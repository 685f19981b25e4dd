import copy
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import addisgraph
from addisgraph import gammas
from addisgraph.core import ConflictStructure, TrajectoryLedger, check_corr_condition
from addisgraph.engines import FwerEngine, GraphConf
from addisgraph.errors import (
    BatchIncomplete,
    DomainError,
    IncompleteLedger,
    InvalidConfig,
    InvalidW0,
    MissingAlphaC,
    MissingIndicator,
)
from addisgraph.extensions import (
    AdaptiveGraphCorr,
    CorrModel,
    FdrGraph,
    alpha_c_gaussian,
)
from addisgraph.gammas import GammaSpec
from addisgraph.weights import MASS_TOL
from tests.conftest import alpha_c_monte_carlo, drive, mc_draws

BASEL = GammaSpec.parse("basel")
G1, G2, G3 = BASEL.value(1), BASEL.value(2), BASEL.value(3)
CORR_ENGINE_DIGEST = "289590b9ccaf81e1cdd1dc7a925ead120fffb86910018f57b8f0045c0f7f2ffe"


# ---------------------------------------------------------------------------
# joint-tail level


def test_alpha_c_empty_prior_set_is_exact():
    assert alpha_c_gaussian(0.0778, [], 0.5) == 0.0778


def test_alpha_c_independence_product():
    assert alpha_c_gaussian(0.05, [0.05], 0.0) == pytest.approx(0.0475, abs=1e-12)
    got = alpha_c_gaussian(0.1, [0.2, 0.3], 0.0)
    assert got == pytest.approx(0.8 * 0.7 * 0.1, abs=1e-10)


def test_alpha_c_never_exceeds_level():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rho = float(rng.uniform(0.05, 0.95))
        k = int(rng.integers(0, 4))
        prior = rng.uniform(0.01, 0.3, size=k)
        lvl = float(rng.uniform(0.001, 0.3))
        val = alpha_c_gaussian(lvl, prior, rho)
        assert 0.0 <= val <= lvl + 1e-12
        if k == 1:
            assert val <= (1 - prior[0]) * lvl + 1e-10


def test_alpha_c_quadrature_vs_monte_carlo():
    rng = np.random.default_rng(1)
    n = 10**7
    for rho in (0.2, 0.5, 0.8):
        for prior in ([0.05], [0.1, 0.05], [0.2, 0.1, 0.05]):
            k = len(prior)
            pvals = mc_draws(rng, rho, k + 1, n)
            est, se = alpha_c_monte_carlo(0.05, prior, pvals[:, :k], pvals[:, k])
            del pvals  # released before the next case draws
            quad = alpha_c_gaussian(0.05, prior, rho)
            assert abs(quad - est) <= 3 * se + 1e-12


def test_known_value_rho_half():
    assert alpha_c_gaussian(0.05, [0.05], 0.5) == pytest.approx(0.0378, abs=5e-4)


def test_monte_carlo_requires_draws():
    with pytest.raises(ValueError):
        alpha_c_monte_carlo(0.05, [0.05], np.empty((0, 1)), np.empty(0))


def test_alpha_c_refuses_unresolvable_correlation():
    alpha_c_gaussian(0.05, [0.05], 0.9998)  # 4096 nodes, the most a rho may need
    for rho in (0.9999, 1.0, -0.1):
        with pytest.raises(DomainError):
            alpha_c_gaussian(0.05, [0.05], rho)


def test_import_leaves_scipy_stats_out():
    """``scipy.stats`` took most of the package's import time; nothing needs it."""
    src = str(Path(addisgraph.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import addisgraph; "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Adaptive-Graph corr engine


def _corr_engine(batch_sizes, rho=0.5, lam=0.16, alpha=0.2):
    structure = ConflictStructure.from_batches(batch_sizes)
    model = CorrModel(structure=structure, lam=lam, rho=rho)
    return AdaptiveGraphCorr(model, alpha=alpha)


def test_corr_model_refuses_what_it_cannot_evaluate():
    """A model that could not give a batch its joint tails is refused when
    built, not at the batch's last observation."""
    structure = ConflictStructure.from_batches([2, 3])
    with pytest.raises(InvalidConfig):
        CorrModel(structure=structure)
    with pytest.raises(DomainError):
        CorrModel(structure=structure, rho=0.9999)


@pytest.mark.parametrize(
    "lam, structure",
    [
        pytest.param(1.5, None, id="lambda-above-one"),
        pytest.param(-0.1, None, id="lambda-negative"),
        pytest.param(1.0 - 1e-7, None, id="lambda-within-min-gap-of-one"),
        pytest.param({1: 0.1, 3: 0.1}, None, id="lambda-dict-lacks-batch-2"),
        pytest.param(
            0.16, ConflictStructure([frozenset()] * 4, batch_of=[1, 1, 2, 2]),
            id="conflicts-not-batch-mates",
        ),
        pytest.param(
            0.16, ConflictStructure([frozenset()] * 4, batch_of=[1, 2, 1, 2]),
            id="batch-not-consecutive",
        ),
        pytest.param(
            0.16, ConflictStructure([(), (1,), (), (3,)], batch_of=[2, 2, 3, 3]),
            id="batches-not-numbered-from-one",
        ),
    ],
)
def test_corr_model_refuses_what_the_engine_cannot_run(lam, structure):
    """A lambda the shell refuses, a batch without a lambda, or conflict sets
    that are not the earlier batch-mates are refused when the model is built,
    not at a level or an observation later."""
    structure = structure or ConflictStructure.from_batches([2, 1, 3])
    with pytest.raises(InvalidConfig):
        CorrModel(structure=structure, lam=lam, rho=0.5)


def _rows_through_entries(ledger) -> tuple[list, list, list]:
    entries = list(ledger)
    return [x.alpha_c for x in entries], [x.batch for x in entries], [x.lam for x in entries]


def test_corr_rows_builds_each_ledger_entry_once(monkeypatch):
    """A live engine's ledger builds an entry on each access, so one
    ``corr_rows()`` call must build no entry twice: it reads the engine's
    own records and builds none, here with the last batch open, its two
    issued p-values pending.  The rows equal those read through the entries."""
    e = _corr_engine([5] * 8)
    p = np.random.default_rng(7).uniform(size=40) ** 2
    for i in range(1, 38):
        e.level(i)
        if i <= 35:
            e.observe(i, float(p[i - 1]))
    expected = _rows_through_entries(e.ledger)
    calls = []
    entry = e._entry

    def counted(k):
        calls.append(k)
        return entry(k)

    monkeypatch.setattr(e, "_entry", counted)
    alpha_c, batch, lam = e.ledger.corr_rows()
    assert calls == [] and e.issued == 37
    assert (alpha_c, batch, lam) == expected
    assert alpha_c[34] is not None and alpha_c[35] is None and batch[36] == 8


def test_corr_rows_of_a_plain_engine_are_read_from_its_rows():
    """An engine without a correlation model annotates no joint-tail level
    and no batch; its rows equal those read through the entries, per-index
    lambdas included."""
    e = GraphConf(alpha=0.2, tau=0.8, lam=0.16)
    for i, lam in enumerate((0.16, 0.1, 0.2, 0.16), start=1):
        e.level(i, lam=lam)
        if i < 4:
            e.observe(i, 0.05 * i)
    alpha_c, batch, lam = e.ledger.corr_rows()
    assert (alpha_c, batch, lam) == _rows_through_entries(e.ledger)
    assert alpha_c == batch == [None] * 4 and lam == [0.16, 0.1, 0.2, 0.16]


def test_engine_edges_raise_package_errors():
    """A level past the model's hypotheses is a DomainError, and a snapshot is
    refused, as for a custom gamma: the format has no place for the model."""
    e = _corr_engine([2, 2])
    for i in (1, 2):
        e.level(i)
        e.observe(i, 0.5)
    e.level(3)
    e.level(4)
    with pytest.raises(DomainError):
        e.level(5)
    with pytest.raises(InvalidConfig):
        e.snapshot()
    with pytest.raises(InvalidConfig):
        e.snapshot_json()


def test_engine_alpha_c_is_the_kernel_per_member():
    """A frozen batch's joint tails are alpha_c_gaussian of each member over
    the levels of its batch's earlier non-candidates."""
    rng = np.random.default_rng(7)
    e = _corr_engine([5, 5], rho=0.6)
    p = rng.uniform(size=10) ** 2
    for i in range(1, 11):
        e.level(i)
        e.observe(i, float(p[i - 1]))
    for start in (1, 6):
        batch = e.ledger.entries[start - 1 : start + 4]
        for k, entry in enumerate(batch):
            prior = [x.level for x in batch[:k] if x.indicators.c == 0]
            assert entry.alpha_c == alpha_c_gaussian(entry.level, prior, 0.6)


def test_singleton_batches_match_graph_conf_tau_one():
    rng = np.random.default_rng(2)
    p = rng.uniform(size=20)
    corr = _corr_engine([1] * 20)
    ref = GraphConf(alpha=0.2, tau=1.0, lam=0.16)
    for i in range(1, 21):
        assert corr.level(i) == ref.level(i)
        corr.observe(i, float(p[i - 1]))
        ref.observe(i, float(p[i - 1]))


def test_batch_incomplete_until_all_observed():
    e = _corr_engine([2, 2])
    e.level(1)
    e.level(2)
    e.observe(1, 0.5)
    with pytest.raises(BatchIncomplete):
        e.level(3)
    e.observe(2, 0.5)
    e.level(3)


@pytest.mark.parametrize("seed", range(6))
def test_refused_level_leaves_no_trace(seed):
    """A level refused with BatchIncomplete changes no state: the ledger, the
    frozen-batch count and every alpha_c stay as they were, and the levels
    issued after it, retries included, are those of a fresh engine fed only
    the accepted calls."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=6).tolist()
    n = sum(sizes)
    p = rng.uniform(size=n) ** 2
    live = _corr_engine(sizes)
    accepted = []
    refused = 0
    while live.issued < n or any(e.indicators is None for e in live.ledger.entries):
        pending = [e.index for e in live.ledger.entries if e.indicators is None]
        if live.issued < n and (not pending or rng.random() < 0.5):
            before = (copy.deepcopy(live.ledger.entries), live._frozen_batches)
            try:
                live.level(live.issued + 1)
            except BatchIncomplete:
                refused += 1
                assert (live.ledger.entries, live._frozen_batches) == before
                continue
            accepted.append(("L", live.issued))
        else:
            j = int(rng.choice(pending))
            live.observe(j, float(p[j - 1]))
            accepted.append(("P", j))
    assert refused
    fresh = _corr_engine(sizes)
    for call, k in accepted:
        if call == "L":
            fresh.level(k)
        else:
            fresh.observe(k, float(p[k - 1]))
    assert fresh.ledger.entries == live.ledger.entries
    assert all(e.alpha_c is not None for e in live.ledger.entries)


def test_non_candidate_gains_joint_tail_mass():
    # C_1 = 0: batch-2 levels gain (alpha_1 - alpha_1^c) over the C-only recycling
    e = _corr_engine([1, 1])
    a1 = e.level(1)
    e.observe(1, 0.5)  # C_1 = 0, accepted
    a2 = e.level(2)
    lam = 0.16
    a1c = e.ledger.entries[0].alpha_c
    assert a1c == pytest.approx(a1, abs=0)  # singleton batch: alpha_c = alpha
    expected = (1 - lam) * (0.2 * G2 + G1 * (a1 - a1c) / (1 - lam))
    assert a2 == pytest.approx(expected, rel=1e-12)


def test_non_candidate_surplus_enters_later_levels():
    # batch {1, 2}: 1 is accepted, so 2's joint tail falls short of its level
    # and the non-candidate 2 passes the surplus alpha_2 - alpha_2^c to 3
    e = _corr_engine([2, 1])
    lam = 0.16
    e.level(1)
    a2 = e.level(2)
    e.observe(2, 0.9)
    e.observe(1, 0.5)
    a3 = e.level(3)
    a2c = e.ledger.entries[1].alpha_c
    assert a2c < a2
    assert a3 == (1 - lam) * (0.2 * G3 + G1 * (a2 - a2c) / (1 - lam))


def test_corr_dominates_candidate_only_recycling():
    rng = np.random.default_rng(3)
    p = rng.uniform(size=24) ** 1.5
    lam = 0.16
    corr = _corr_engine([4] * 6, rho=0.5, lam=lam)
    ref = GraphConf(alpha=0.2, tau=1.0, lam=lam)
    structure = ConflictStructure.from_batches([4] * 6)
    for i in range(1, 25):
        x = sorted(structure.conflict_set(i))
        for j in range(1, i):
            if j not in x and ref.ledger.entries[j - 1].indicators is None:
                ref.observe(j, float(p[j - 1]))
        for j in range(1, i):
            if j not in x and corr.ledger.entries[j - 1].indicators is None:
                corr.observe(j, float(p[j - 1]))
        a = corr.level(i)
        b = ref.level(i, conflicts=x)
        assert a >= b - 1e-12


def test_alpha_c_frozen_at_batch_completion():
    e = _corr_engine([2, 2])
    e.level(1)
    e.level(2)
    e.observe(1, 0.5)
    e.observe(2, 0.9)
    e.level(3)
    frozen = [e.ledger.entries[0].alpha_c, e.ledger.entries[1].alpha_c]
    e.observe(3, 0.4)
    e.level(4)
    assert [e.ledger.entries[0].alpha_c, e.ledger.entries[1].alpha_c] == frozen


@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    rho=st.floats(0.0, 0.9),
    driven=st.integers(0, 48),
    pending=st.booleans(),
    fault=st.sampled_from(["none", "no-lambda", "zero-gap"]),
    at=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_corr_checker_reads_engine_rows_as_its_entries(
    sizes, rho, driven, pending, fault, at, seed
):
    """On an engine's ledger the corr checker reads the engine's alpha^c and
    batch rows and builds no entry; its report, or the error it raises
    (an index pending, a batch not yet frozen, a batch with no lambda or with
    a lambda out of range), is the one of a ``TrajectoryLedger`` holding the
    same entries."""
    e = _corr_engine(sizes, rho=rho)
    n = e.structure.n
    p = np.random.default_rng(seed).uniform(size=n) ** 2
    driven = min(driven, n)
    for i in range(1, driven + 1):
        e.level(i)
        e.observe(i, float(p[i - 1]))
    if pending and driven < n:
        e.level(driven + 1)
    copy = TrajectoryLedger()
    for entry in e.ledger.entries:
        copy.append(entry)
    lambdas = e.model.lambda_by_batch()
    b = min(at, len(sizes))
    if fault == "no-lambda":
        del lambdas[b]
    elif fault == "zero-gap":
        lambdas[b] = 1.0

    def outcome(ledger):
        try:
            return check_corr_condition(ledger, lambdas, e.alpha)
        except (IncompleteLedger, InvalidConfig, MissingAlphaC) as err:
            return type(err), str(err)

    assert outcome(e.ledger) == outcome(copy)


def _corr_session_lines(model, alpha, gamma, seed):
    """Drive one engine through random calls, in-order levels (refused ones
    included) and observations in random order within and across batches,
    and return every outcome, every level, alpha_c and SE as ``float.hex``,
    and the certificate, as text lines."""
    rng = np.random.default_rng(seed)
    n = model.structure.n
    p = rng.uniform(size=n) ** 2
    e = AdaptiveGraphCorr(model, alpha=alpha, gamma=gamma)
    lines = []
    pending = []
    while e.issued < n or pending:
        if e.issued < n and (not pending or rng.random() < 0.5):
            i = e.issued + 1
            try:
                lines.append(f"L {i} {e.level(i).hex()}")
            except BatchIncomplete:
                lines.append(f"L {i} refused")
                continue
            pending.append(i)
        else:
            j = pending.pop(int(rng.integers(len(pending))))
            ind, reject = e.observe(j, float(p[j - 1]))
            lines.append(f"P {j} {ind.c} {int(reject)}")
    for entry in e.ledger.entries:
        lines.append(f"E {entry.index} {entry.batch} {entry.level.hex()} {entry.alpha_c.hex()}")
    report = check_corr_condition(e.ledger, model.lambda_by_batch(), alpha)
    lines.append(f"R {report.passed} {report.max_spend.hex()} {report.worst_index}")
    return lines


@pytest.mark.filterwarnings("ignore:issued level:RuntimeWarning")
def test_engine_bits_are_pinned():
    """Levels, joint tails and the certificate of the batch correlation
    engine, hashed as ``float.hex`` over fixed seeds: the rho model from
    independence to rho = 0.999, a lambda per batch and another gamma, with
    observations out of order and refused levels.  The digest was recorded
    on the engine as it stood before its joint-null samples model was
    removed."""
    rng = np.random.default_rng(2024)
    lines = []
    for seed in range(8):
        sizes = rng.integers(1, 6, size=5).tolist()
        structure = ConflictStructure.from_batches(sizes)
        lam_by_batch = {b: float(rng.uniform(0.02, 0.5)) for b in range(1, 6)}
        models = [
            (CorrModel(structure=structure, rho=rho), 0.2, "basel")
            for rho in (0.0, 0.3, 0.95, 0.999)
        ] + [
            (CorrModel(structure=structure, lam=lam_by_batch, rho=0.6), 0.3, "basel"),
            (CorrModel(structure=structure, lam=0.1, rho=0.4), 0.2, "geometric:0.6"),
        ]
        for k, (model, alpha, gamma) in enumerate(models):
            lines.append(f"# seed {seed} model {k}")
            lines.extend(_corr_session_lines(model, alpha, gamma, 100 * seed + k))
    text = "\n".join(lines)
    assert text.count("refused") > 20
    assert hashlib.sha256(text.encode()).hexdigest() == CORR_ENGINE_DIGEST


def test_a_joint_tail_above_its_level_issues_no_negative_level(monkeypatch):
    """The joint-null samples model, now removed, estimated alpha^c by Monte
    Carlo with nothing bounding it by the level: on batches [2, 1], lambda
    0.16, alpha 0.2 and ten sample rows [0.9, 0.0] it gave alpha^c_2 = 1.0
    against alpha_2 = 0.0255, a negative carry, and level(3) = -0.581.  A
    model no longer takes samples, and a joint tail that large, fed in here
    as that model's estimate, gets a refusal that changes nothing."""
    structure = ConflictStructure.from_batches([2, 1])
    with pytest.raises(TypeError):
        CorrModel(structure=structure, samples=np.tile([0.9, 0.0], (10, 1)))
    model = CorrModel(structure=structure, lam=0.16, rho=0.5)
    monkeypatch.setattr(model, "batch_alpha_c", lambda levels, keep: np.array([levels[0], 1.0]))
    e = AdaptiveGraphCorr(model, alpha=0.2)
    for i in (1, 2):
        e.level(i)
    for i in (1, 2):
        e.observe(i, 0.5)  # both non-candidates: the batch's joint tails are frozen
    assert e.ledger.entries[1].level == pytest.approx(0.0255, abs=5e-5)
    entries = list(e.ledger)
    with pytest.raises(DomainError, match=r"-0\.581"):
        e.level(3)
    assert e.issued == 2 and list(e.ledger) == entries


# ---------------------------------------------------------------------------
# rejection memory and the FDR engine


def test_fdr_first_level():
    e = FdrGraph()
    assert e.level(1) == pytest.approx(0.25 * 0.05 * G1, abs=1e-12)
    assert 0.25 * 0.05 * G1 == pytest.approx(0.0075991, abs=5e-8)


def test_fdr_levels_clipped_at_lambda():
    e = FdrGraph(alpha=0.05, tau=0.5, lam=0.002, w0=0.05)
    assert e.level(1) <= 0.002


def test_fdr_first_rejection_earns_nothing_when_w0_equals_alpha():
    e = FdrGraph(alpha=0.05, tau=0.5, lam=0.25, w0=0.05)
    a1 = e.level(1)
    e.observe(1, a1 / 2)  # first rejection (also a candidate)
    a2_hat_seed = 0.25 * 0.05 * G2
    carried = e._alpha_tilde[0]  # U_1 = 1 since p <= lambda
    expected = 0.25 * (0.05 * G2 + G1 * carried)  # no reward term: K_1 = 0
    assert e.level(2) == pytest.approx(expected, rel=1e-12)
    assert expected > a2_hat_seed


def test_fdr_second_rejection_earns_alpha():
    e = FdrGraph(alpha=0.05, tau=0.5, lam=0.25, w0=0.05)
    a1 = e.level(1)
    e.observe(1, a1 / 2)  # rejection 1, K_1 = 0
    a2 = e.level(2)
    e.observe(2, a2 / 2)  # rejection 2, K_2 = 1
    # weights are gamma-shifted: g*_{1,3} = G2, g*_{2,3} = G1
    carried = G2 * e._alpha_tilde[0] + G1 * e._alpha_tilde[1]
    reward_1 = G2 * 0.0  # K_1 = 0 and w0 = alpha: first rejection earns nothing
    reward_2 = G1 * 0.05  # alpha * K_2
    expected = 0.25 * (0.05 * G3 + carried + reward_1 + reward_2)
    assert e.level(3) == pytest.approx(expected, rel=1e-12)
    assert e._first_rejection == 1  # K_1 = 0, K_2 = K_3 = 1


def test_fdr_invalid_w0():
    with pytest.raises(InvalidW0):
        FdrGraph(alpha=0.05, w0=0.06)
    with pytest.raises(InvalidW0):
        FdrGraph(alpha=0.05, w0=0.0)


def test_fdr_monotone_in_rejections():
    """Flipping an observed p-value into a rejection never lowers later levels."""
    rng = np.random.default_rng(5)
    p = rng.uniform(0.3, 1.0, size=15)

    base = drive(FdrGraph(), p, [0] * 15)
    boosted = p.copy()
    boosted[4] = 1e-6  # force a rejection (and candidacy) at index 5
    after = drive(FdrGraph(), boosted, [0] * 15)
    assert np.all(after[5:] >= base[5:] - 1e-15)


def test_fdr_reward_accounting_bound():
    """Seed plus rewards stay within alpha per rejection on trajectories."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = rng.uniform(size=50) ** 2
        e = FdrGraph()
        drive(e, p, [0] * 50)
        r = np.array([en.indicators.r for en in e.ledger.entries])
        k = np.minimum(np.cumsum(r) - r, 1)  # K_i = 1 once some j < i is rejected
        seed = 0.05 * np.cumsum(BASEL.values(50))
        rewards = np.cumsum(r * (0.05 * k))  # w0 = alpha: only alpha*K per rejection
        allowance = 0.05 * np.maximum(np.cumsum(r), 1.0)
        assert np.all(seed + rewards <= allowance + 0.05 + 1e-12)


# -- graph-kind levels against per-level expressions over the recorded state --


def _recomputed_level(engine, i, x, tau, lam):
    """The graph-conf or fdr-graph level of i, recomputed from the recorded
    indicators in one vectorised pass: the denominators from a NaN-filled copy
    of the pinned ones (fresh tail sums for the sources clearing at i),
    U * alpha_tilde, and earn from cumsum(r) - r.  Also checks that the rows
    the engine keeps at observe equal those products."""
    n = i - 1
    blocked = np.zeros(n, dtype=bool)
    blocked[[j - 1 for j in x]] = True
    pinned = engine._renorm._den
    den = np.full(n, np.nan)
    known = min(n, pinned.size)
    den[:known] = pinned[:known]
    fresh = np.flatnonzero(np.isnan(den) & ~blocked)
    for k in fresh:  # source k + 1, first clear at i
        tail = 1.0 if k + 2 == i else gammas._tail_sum(engine.gamma, int(n - k - 1))
        den[k] = tail if tail > MASS_TOL else 0.0
    col = np.zeros(n)
    np.divide(engine._renorm.base.column(i), den, out=col, where=~blocked & (den != 0.0))
    carry = engine._u[:n] * engine._alpha_tilde[:n]
    assert np.array_equal(engine._carry[:n], carry)
    carried = col @ carry
    if engine.kind == "graph-conf":
        return (tau - lam) * (engine.alpha * engine.gamma.value(i) + carried)
    r = engine._r[:n]
    earlier = np.cumsum(r) - r  # K_j = 1 iff a rejection precedes j
    earn = np.where(earlier > 0.0, engine.alpha, engine.alpha - engine.w0)
    assert np.array_equal(engine._reward[:n], r * earn)
    reward = col @ (r * earn)
    return min((tau - lam) * (engine.w0 * engine.gamma.value(i) + carried + reward), lam)


def _same_rows(a, b):
    n = a.issued
    assert b.issued == n
    assert np.array_equal(a._state[:, :n], b._state[:, :n])
    if a.kind == "fdr-graph":
        assert np.array_equal(a._reward[:n], b._reward[:n])
        assert a._first_rejection == b._first_rejection


@pytest.mark.filterwarnings("ignore:issued level:RuntimeWarning")
@given(
    kind=st.sampled_from(["graph-conf", "fdr-graph"]),
    n=st.integers(min_value=1, max_value=30),
    gamma=st.sampled_from(["basel", "logq", "power:1.6", "geometric:0.6"]),
    w0_share=st.floats(0.05, 1.0),
    rnd=st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_graph_levels_equal_the_recomputed_expressions(kind, n, gamma, w0_share, rnd):
    """Every issued level equals, with ==, the level recomputed from the
    recorded indicators, on finish-time conflicts with observations in random
    order; a restore from the snapshot rebuilds the carry and reward rows
    exactly."""
    if kind == "graph-conf":
        engine = GraphConf(gamma=gamma)
    else:
        engine = FdrGraph(alpha=0.05, gamma=gamma, w0=0.05 * w0_share)
    finish = [j + rnd.choice([0, 0, 1, 2, 5]) for j in range(1, n + 1)]
    p = [rnd.choice([rnd.random(), rnd.random() ** 4, rnd.uniform(0.0, 0.003)])
         for _ in range(n)]
    pending = []
    for i in range(1, n + 1):
        x = frozenset(j for j in range(1, i) if finish[j - 1] >= i)
        tau = rnd.uniform(0.05, 1.0)
        lam = tau * rnd.uniform(0.0, 0.95)
        while True:
            rnd.shuffle(pending)
            for _ in range(rnd.randint(0, len(pending))):
                j = pending.pop()
                engine.observe(j, p[j - 1])
            want = _recomputed_level(engine, i, x, tau, lam)
            try:
                got = engine.level(i, tau=tau, lam=lam, conflicts=x)
            except MissingIndicator:
                assert pending
                continue
            assert got == want, i
            pending.append(i)
            break
    restored = FwerEngine.restore(engine.snapshot())
    _same_rows(engine, restored)
    for j in pending:
        engine.observe(j, p[j - 1])
        restored.observe(j, p[j - 1])
    _same_rows(engine, restored)


def test_fdr_reward_moves_to_a_rejection_observed_out_of_order():
    """Rejections of 3 and then 1 are observed: 3 first earns alpha - W0 as
    the earliest rejection seen, and alpha once 1 is seen to precede it."""
    alpha, w0 = 0.05, 0.02
    e = FdrGraph(alpha=alpha, w0=w0)
    sets = [(), (1,), (1, 2), (1, 2, 3)]
    for i, x in enumerate(sets, start=1):
        assert e.level(i, conflicts=x) == _recomputed_level(e, i, frozenset(x), e.tau, e.lam)
    e.observe(3, 1e-6)
    assert e._reward[:4].tolist() == [0.0, 0.0, alpha - w0, 0.0]
    e.observe(1, 1e-6)
    assert e._reward[:4].tolist() == [alpha - w0, 0.0, alpha, 0.0]
    e.observe(2, 0.9)
    want = _recomputed_level(e, 5, frozenset({4}), e.tau, e.lam)
    assert e.level(5, conflicts=[4]) == want
    restored = FwerEngine.restore(e.snapshot())
    _same_rows(e, restored)
    assert restored._first_rejection == 1


def test_fdr_refuses_a_level_whose_reward_waits_on_a_pending_index():
    """X_2 = X_3 = {1}: with 2 observed as a rejection and 1 still pending,
    the reward of 2 reaches 3 but its K flag waits on 1, so level(3) is
    refused and changes nothing."""
    e = FdrGraph()
    e.level(1)
    e.level(2, conflicts=[1])
    _, rejected = e.observe(2, 1e-9)
    assert rejected
    before = e.snapshot_json()
    with pytest.raises(
        MissingIndicator, match="reward at index 2 needs rejections of all earlier indices"
    ):
        e.level(3, conflicts=[1])
    assert e.snapshot_json() == before
    assert e.issued == 2
