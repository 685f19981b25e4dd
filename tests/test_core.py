import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addisgraph.core import (
    ConflictStructure,
    Indicators,
    LedgerEntry,
    TrajectoryLedger,
    budget_path,
    check_corr_condition,
    check_fdr_condition,
    check_fwer_condition,
    compute_indicators,
)
from addisgraph.errors import (
    DomainError,
    IncompleteLedger,
    InvalidConfig,
    MissingAlphaC,
    NonMonotoneConflicts,
)


# ---------------------------------------------------------------------------
# indicators


@pytest.mark.parametrize(
    "p,s,c,r,u",
    [
        (0.9, 0, 0, 0, 1),   # above all thresholds
        (0.10, 1, 1, 0, 1),  # candidate region hit
        (0.3, 1, 0, 0, 0),   # discarding/candidacy gap
        (0.04, 1, 1, 1, 1),  # rejection
    ],
)
def test_indicator_examples(p, s, c, r, u):
    ind = compute_indicators(p, tau=0.8, lam=0.16, alpha=0.05)
    assert (ind.s, ind.c, ind.r) == (s, c, r)
    assert ind.u == u


def test_indicators_closed_intervals():
    ind = compute_indicators(0.8, tau=0.8, lam=0.16, alpha=0.05)
    assert ind.s == 1  # ties at thresholds count as hits
    assert compute_indicators(0.16, tau=0.8, lam=0.16, alpha=0.05).c == 1


def test_indicators_domain_error():
    with pytest.raises(DomainError):
        compute_indicators(1.5, tau=0.8, lam=0.16, alpha=0.05)
    with pytest.raises(DomainError):
        Indicators(s=0, c=1, r=0)  # C <= S always


@given(st.floats(0, 1), st.floats(0.01, 1), st.floats(0, 0.99), st.floats(0, 0.2))
@settings(max_examples=200, deadline=None)
def test_indicator_ordering_property(p, tau, lam, alpha):
    if not (alpha <= lam < tau):
        return
    ind = compute_indicators(p, tau=tau, lam=lam, alpha=alpha)
    assert ind.c <= ind.s
    assert ind.r <= ind.c
    assert ind.u in (0, 1)


# ---------------------------------------------------------------------------
# conflict structures


def test_chain_of_lag_one_conflicts():
    s = ConflictStructure([frozenset(), frozenset({1}), frozenset({2})])
    assert s.lags == (0, 1, 1)


def test_non_monotone_triple_is_named():
    with pytest.raises(NonMonotoneConflicts) as exc:
        ConflictStructure([frozenset(), frozenset({1}), frozenset(), frozenset({1})])
    assert exc.value.triple == (1, 3, 4)


@pytest.mark.parametrize(
    "sets, i, bad",
    [
        ([frozenset(), frozenset({3}), frozenset({7})], 2, 3),
        ([frozenset(), frozenset({1}), frozenset({1, 3})], 3, 3),
        ([frozenset(), frozenset({0})], 2, 0),
    ],
)
def test_conflict_indices_must_be_earlier(sets, i, bad):
    """Indices outside [1, i-1] are a domain error, named before monotonicity."""
    with pytest.raises(DomainError, match=f"conflict set of {i} contains index {bad} "):
        ConflictStructure(sets)


def test_a_structure_is_checked_when_built():
    """A family an engine would refuse part-way through a stream is refused
    whole, when the structure is built; lags are held exactly when every
    set is a suffix, with or without batches."""
    with pytest.raises(DomainError, match="conflict set of 5 contains index 7 "):
        ConflictStructure([set(), set(), {1, 2}, set(), {7}])
    with pytest.raises(NonMonotoneConflicts) as exc:
        ConflictStructure([set(), set(), {1, 2}, set()])
    assert exc.value.triple == (1, 2, 3)
    assert ConflictStructure([(), (1,), (1, 2), ()], batch_of=[1, 1, 1, 2]).lags == (0, 1, 2, 0)
    assert ConflictStructure([(), (1,), (1,)], batch_of=[1, 1, 1]).lags is None


def test_finish_time_form():
    # every test finishes two steps after entry
    s = ConflictStructure.from_finish_times([i + 2 for i in range(1, 6)])
    assert s.conflict_set(3) == frozenset({1, 2})
    assert s.conflict_set(5) == frozenset({3, 4})
    assert s.lags == (0, 1, 2, 2, 2)


def test_batch_form():
    s = ConflictStructure.from_batches([3, 2])
    assert s.conflict_set(3) == frozenset({1, 2})
    assert s.conflict_set(5) == frozenset({4})
    assert s.batch_of[3] == 2


def test_lag_form_request_on_gapped_sets():
    structure = ConflictStructure(
        [frozenset(), frozenset({1}), frozenset({1})]  # X_3 skips 2: monotone, not a suffix
    )
    assert structure.lags is None


@given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_every_lag_form_structure_validates(raw):
    lags = [min(raw[i], i) for i in range(len(raw))]
    for i in range(1, len(lags)):  # monotone sets: lag grows by at most one
        lags[i] = min(lags[i], lags[i - 1] + 1)
    s = ConflictStructure.from_lags(lags)
    assert s.lags == tuple(lags)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_every_batch_form_structure_validates(sizes):
    s = ConflictStructure.from_batches(sizes)
    assert s.lags == tuple(k for size in sizes for k in range(size))


# ---------------------------------------------------------------------------
# ledger and condition checkers


def _entry(i, level, p, tau=0.8, lam=0.16, alpha=None):
    e = LedgerEntry(index=i, level=level, tau=tau, lam=lam)
    e.indicators = compute_indicators(p, tau=tau, lam=lam, alpha=alpha if alpha else level)
    return e


def test_empty_ledger_passes():
    report = check_fwer_condition(TrajectoryLedger(), alpha=0.2)
    assert report.passed and report.max_spend == 0.0


def test_single_overspent_entry_fails():
    ledger = TrajectoryLedger()
    ledger.append(_entry(1, level=0.2, p=0.3))  # S=1, C=0: full spend
    report = check_fwer_condition(ledger, alpha=0.2)
    assert not report.passed
    assert report.max_spend == pytest.approx(0.2 / 0.64, abs=1e-12)
    assert report.worst_index == 1
    assert report.max_spend == pytest.approx(0.3125, abs=1e-10)


def test_ledger_requires_consecutive_indices():
    ledger = TrajectoryLedger()
    with pytest.raises(DomainError):
        ledger.append(LedgerEntry(index=2, level=0.1, tau=0.8, lam=0.16))


def test_incomplete_ledger_rejected():
    ledger = TrajectoryLedger()
    ledger.append(LedgerEntry(index=1, level=0.1, tau=0.8, lam=0.16))
    with pytest.raises(IncompleteLedger):
        check_fwer_condition(ledger, alpha=0.2)


def test_budget_recomputable_in_reverse():
    rng = np.random.default_rng(0)
    ledger = TrajectoryLedger()
    for i in range(1, 60):
        ledger.append(_entry(i, level=float(rng.uniform(0, 0.01)), p=float(rng.uniform())))
    spent = budget_path(*ledger.rows()[:4])
    assert np.all(np.diff(spent) >= 0)
    reverse = sum(
        e.level / (e.tau - e.lam) * (e.indicators.s - e.indicators.c)
        for e in reversed(ledger.entries)
    )
    assert reverse == pytest.approx(spent[-1], rel=1e-12)


def test_ledger_refuses_an_inverted_gap():
    """lambda above tau makes the gap, and with it every spend term,
    negative: a ledger that spends could then pass every checker."""
    ledger = TrajectoryLedger()
    e = LedgerEntry(index=1, level=0.3, tau=0.5, lam=0.6, indicators=Indicators(1, 0, 0))
    with pytest.raises(InvalidConfig):
        ledger.append(e)
    assert len(ledger) == 0


def _sequential_path(level, gap, s, c):
    """sum_{j<=i} level_j / gap_j * (s_j - c_j), one Python float at a time."""
    out, total = [], 0.0
    for a, g, x, y in zip(level, gap, s, c):
        total += float(a) / float(g) * (float(x) - float(y))
        out.append(total)
    return out


def test_budget_path_is_the_sequential_sum():
    rng = np.random.default_rng(7)
    T, n = 4, 300
    level = rng.uniform(0, 0.02, size=(T, n))
    lam = rng.choice([0.0, 0.1, 0.16, 0.5], size=(T, n))
    gap = rng.choice([0.8, 1.0], size=(T, n)) - lam
    s = (rng.uniform(size=(T, n)) < 0.7).astype(np.float64)
    c = s * (rng.uniform(size=(T, n)) < 0.4)
    path = budget_path(level, gap, s, c)
    for t in range(T):
        assert path[t].tolist() == _sequential_path(level[t], gap[t], s[t], c[t])
        assert budget_path(level[t], gap[t], s[t], c[t]).tolist() == path[t].tolist()
    # the corr operands: S = 1 and gap = 1 - lambda_b
    corr = budget_path(level[0], 1.0 - lam[0], 1.0, c[0])
    assert corr.tolist() == _sequential_path(level[0], 1.0 - lam[0], np.ones(n), c[0])


def test_fdr_allows_alpha_per_rejection():
    ledger = TrajectoryLedger()
    ledger.append(_entry(1, level=0.026, p=0.3, alpha=0.05))  # spend 0.04, no rejection
    report = check_fdr_condition(ledger, alpha=0.05)
    assert report.passed  # 0.04 <= 0.05 * max(|R|, 1)
    assert report.max_spend == pytest.approx(0.026 / 0.64, abs=1e-12)


def test_fwer_pass_implies_fdr_pass():
    rng = np.random.default_rng(1)
    ledger = TrajectoryLedger()
    for i in range(1, 40):
        ledger.append(_entry(i, level=float(rng.uniform(0, 0.005)), p=float(rng.uniform())))
    if check_fwer_condition(ledger, alpha=0.2).passed:
        assert check_fdr_condition(ledger, alpha=0.2).passed


def test_corr_checker_all_candidates_pass():
    ledger = TrajectoryLedger()
    for i in (1, 2):
        e = LedgerEntry(index=i, level=0.1, tau=1.0, lam=0.16, batch=1)
        e.indicators = compute_indicators(0.05, tau=1.0, lam=0.16, alpha=0.1)
        e.alpha_c = 0.08
        ledger.append(e)
    report = check_corr_condition(ledger, {1: 0.16}, alpha=0.2)
    assert report.passed and report.max_spend == 0.0  # every C_j = 1 annihilates


def test_corr_checker_singleton_batches_match_fwer():
    # alpha_c = alpha_j, tau = 1: the two conditions coincide
    rng = np.random.default_rng(2)
    ledger = TrajectoryLedger()
    lam = 0.16
    for i in range(1, 30):
        level = float(rng.uniform(0, 0.01))
        e = LedgerEntry(index=i, level=level, tau=1.0, lam=lam, batch=i)
        p = float(rng.uniform())
        e.indicators = compute_indicators(p, tau=1.0, lam=lam, alpha=level)
        e.alpha_c = level
        ledger.append(e)
    corr = check_corr_condition(ledger, {i: lam for i in range(1, 30)}, alpha=0.2)
    # Eq-1 spend uses (S - C) = (1 - C) since tau = 1
    fwer = check_fwer_condition(ledger, alpha=0.2)
    assert corr.max_spend == pytest.approx(fwer.max_spend, rel=1e-12)
    assert corr.passed == fwer.passed


def test_corr_checker_requires_alpha_c():
    ledger = TrajectoryLedger()
    e = LedgerEntry(index=1, level=0.1, tau=1.0, lam=0.16, batch=1)
    e.indicators = compute_indicators(0.5, tau=1.0, lam=0.16, alpha=0.1)
    ledger.append(e)
    with pytest.raises(MissingAlphaC):
        check_corr_condition(ledger, {1: 0.16}, alpha=0.2)


@pytest.mark.parametrize("lambda_by_batch,message", [
    ({1: 0.16}, "no lambda given for batch 3"),  # batch 3 absent
    ({3: 1.0}, "need lambda in"),                # zero gap
    ({3: 1.5}, "need lambda in"),                # negative gap
])
def test_corr_checker_refuses_bad_batch_lambdas(lambda_by_batch, message):
    ledger = TrajectoryLedger()
    e = LedgerEntry(index=1, level=0.1, tau=1.0, lam=0.16, batch=3, alpha_c=0.1)
    e.indicators = compute_indicators(0.5, tau=1.0, lam=0.16, alpha=0.1)
    ledger.append(e)
    with pytest.raises(InvalidConfig, match=message):
        check_corr_condition(ledger, lambda_by_batch, alpha=0.2)
