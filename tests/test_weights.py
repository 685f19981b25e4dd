import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from addisgraph.core import ConflictStructure, validate_conflicts
from addisgraph.errors import DegenerateRenormalization, NonMonotoneConflicts
from addisgraph.gammas import GammaSpec
from addisgraph.weights import (
    CORR_MAX_NODES,
    CORR_QUAD_NODES,
    NDTR_ONE,
    Closure,
    CustomTable,
    HeldMass,
    IncrementalRenormalizer,
    ShiftedGamma,
    corr_nodes,
    gauss_legendre,
    lemma1_row,
    renorm_table,
)

BASEL = GammaSpec.parse("basel")


def _lag_structure(lags):
    return validate_conflicts(ConflictStructure.from_lags(lags), lag_form=True)


# ---------------------------------------------------------------------------
# base weights


@pytest.mark.parametrize("t_j", [1, 2, 5])
def test_lemma1_row_telescopes_to_one(t_j):
    row = lemma1_row(BASEL, t_j, 4000)
    # sum_i (gamma_{t+i-j-1} - gamma_{t+i-j}) / gamma_t telescopes
    assert float(np.sum(row)) == pytest.approx(
        1.0 - BASEL.value(t_j + 4000) / BASEL.value(t_j), rel=1e-12
    )
    assert np.all(row >= 0)


def test_shifted_gamma_rule():
    rule = ShiftedGamma(BASEL)
    assert rule.weight(2, 5) == pytest.approx(BASEL.value(3), abs=0)
    assert rule.tail_mass(1, 4) == pytest.approx(BASEL.tail_sum(3), rel=1e-12)


def test_spending_counters():
    # t(j) = 1 + sum_{k<j} (1 - U_k), as the held-mass kernel advances it
    u = np.array([1, 0, 0, 1, 0])
    held, t = HeldMass(BASEL, 0.2), []
    for m in range(1, u.size + 1):
        t.append(int(held.t[0]))
        held.level(m, m)
        held.hold(m, m, u[m - 1 : m])
    assert t == [1, 1, 2, 3, 3]


# ---------------------------------------------------------------------------
# conflict renormalization


def _online(spec, structure, n):
    """The renormaliser driven in target order as the engines drive it, and
    its table W[j-1, i-1] of g*[j, i] for targets 1 .. n."""
    inc = IncrementalRenormalizer(ShiftedGamma(spec))
    w = np.zeros((n, n))
    for i in range(2, n + 1):
        blocked = np.zeros(i - 1, dtype=bool)
        blocked[[j - 1 for j in structure.conflict_sets[i - 1]]] = True
        col, cleared = inc.column(i, blocked)
        inc.pin(cleared)
        w[: i - 1, i - 1] = col
    return inc, w


def test_renormalized_zeroes_conflicts_and_preserves_row_mass():
    structure = _lag_structure([0, 1, 2, 2, 2, 2])
    n = 6
    inc, w = _online(BASEL, structure, n)
    for j in range(1, n):
        blocked = [i for i in range(j + 1, n + 1) if j in structure.conflict_set(i)]
        for i in blocked:
            assert w[j - 1, i - 1] == 0.0
        mass = float(np.sum(w[j - 1])) + inc.tail_mass(j, n)
        assert mass == pytest.approx(1.0, rel=1e-12)


def test_incremental_matches_static():
    """The per-pair ``weight`` path against the runners' static table; the
    tail past the horizon completes each row to one."""
    lags = [0, 1, 2, 2, 1, 0, 1, 2, 3, 3]
    structure = _lag_structure(lags)
    static = renorm_table(BASEL, np.array(lags), len(lags))
    inc = IncrementalRenormalizer(ShiftedGamma(BASEL))
    n = len(lags)
    for i in range(1, n + 1):
        x = structure.conflict_set(i)
        for j in range(1, i):
            got = inc.weight(j, i, conflicting=j in x)
            assert got == pytest.approx(static[j, i], rel=1e-13)
    for j in range(1, n + 1):
        want = 1.0 - float(np.sum(static[j, j + 1 :]))
        assert inc.tail_mass(j, n) == pytest.approx(want, rel=1e-13)


def test_renormalization_handles_non_suffix_monotone_sets():
    # X_3 = {1}: index 2 is clear while 1 is still conflicting
    structure = validate_conflicts(
        ConflictStructure([frozenset(), frozenset({1}), frozenset({1})])
    )
    inc, w = _online(BASEL, structure, 3)
    assert w[0, 1] == 0.0
    assert w[0, 2] == 0.0
    assert w[1, 2] > 0.0
    # source 1 is blocked through the horizon; its mass waits beyond it
    assert inc.tail_mass(1, 3) == pytest.approx(1.0, rel=1e-12)


def test_degenerate_row_warns():
    spec = GammaSpec(kind="geometric", q=0.5)
    # conflict horizon so long that the source row's remaining mass underflows
    lags = [min(i, 900) for i in range(1000)]
    structure = _lag_structure(lags)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateRenormalization):
            _online(spec, structure, 950)


def test_custom_table_round_trip(tmp_path):
    table = CustomTable({(1, 2): 0.5, (1, 3): 0.25, (2, 3): 1.0})
    path = tmp_path / "w.table"
    table.dump(path)
    loaded = CustomTable.load(path)
    assert loaded.weight(1, 2) == 0.5
    assert loaded.weight(1, 3) == 0.25
    assert loaded.weight(2, 5) == 0.0


def test_custom_table_rejects_overweight_row():
    with pytest.raises(Exception):
        CustomTable({(1, 2): 0.8, (1, 3): 0.4})


def _drawn_lags(seed, n, top):
    """Monotone contiguous lags L_{i+1} <= L_i + 1, drawn up to ``top``."""
    rng = np.random.default_rng(seed)
    lags = [0]
    for _ in range(n - 1):
        lags.append(int(min(rng.integers(0, top + 1), lags[-1] + 1)))
    return lags


N_RENORM = 122
RENORM_LAGS = {
    "worked": [0, 1, 1, 2, 0],
    "b20": [(i - 1) % 20 for i in range(1, N_RENORM + 1)],
    "b40": [(i - 1) % 40 for i in range(1, N_RENORM + 1)],
    "e60": [min(60, i - 1) for i in range(1, N_RENORM + 1)],
    "drawn60": _drawn_lags(3, N_RENORM, 60),
}


RENORM_CASES = [
    (g, name) for g in ("basel", "logq", "power:1.6", "geometric:0.97") for name in RENORM_LAGS
] + [("geometric:0.6", "e60"), ("geometric:0.6", "b40")]


def test_renormalized_helper_matches_rule():
    """The runners' static table ``weights.renorm_table`` against the online
    renormaliser the engines drive: rel 1e-12 where weight flows, exact zeros
    on blocked pairs and on degenerate rows (geometric:0.6 at e60 blocks all
    but 0.6^60 of each row; at b40 the tails fall to 0.6^39, steep but live)."""
    for gamma, name in RENORM_CASES:
        spec = GammaSpec.parse(gamma)
        lags = RENORM_LAGS[name]
        n = len(lags)
        structure = _lag_structure(lags)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRenormalization)
            inc, want = _online(spec, structure, n)
        got = renorm_table(spec, np.array(lags), n)[1:, 1:]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"{gamma} {name}")
        blocked = np.zeros((n, n), dtype=bool)
        for i in range(1, n + 1):
            for j in structure.conflict_sets[i - 1]:
                blocked[j - 1, i - 1] = True
        assert np.all(got[blocked] == 0.0)
        degenerate = sorted(inc.degenerate_rows)
        assert np.all(got[np.array(degenerate, dtype=int) - 1] == 0.0)
        if (gamma, name) == ("geometric:0.6", "e60"):
            # rows past n - 61 first clear beyond the horizon
            assert degenerate == list(range(1, n - 60)) and not np.any(got)
        else:
            assert not degenerate and np.count_nonzero(got) > n


# ---------------------------------------------------------------------------
# closure kernel


def test_closure_level_refuses_a_window_edge_moving_back():
    """Monotone conflict sets keep the window edge c non-decreasing; a c
    below the previous level's is refused before any state changes."""
    gam = BASEL.values(5)
    windows = ((1, 1), (2, 1), (3, 2), (4, 3), (5, 3))
    kernels = Closure(0.2), Closure(0.2)
    for closure in kernels:
        for i, c in windows[:-1]:
            closure.level(i, c, gam[i - 1], gam[: i - 1][::-1])
            closure.absorb(i, 1.0, 0.0, float(i % 2))
    with pytest.raises(NonMonotoneConflicts) as err:
        kernels[0].level(5, 2, gam[4], gam[:4][::-1])
    assert err.value.triple == (2, 4, 5)
    ats = [k.level(5, 3, gam[4], gam[:4][::-1]) for k in kernels]
    assert np.array_equal(ats[0], ats[1])


# ---------------------------------------------------------------------------
# the joint tail's saturated prefix


def test_ndtr_saturation_threshold_and_node_order_are_pinned():
    """``JointTail`` sets ``cond`` to 1.0 on the nodes whose argument is at
    least ``NDTR_ONE`` and slices them off as a prefix; that is exact only
    while ``ndtr`` is 1.0 from ``NDTR_ONE`` up and the nodes ascend."""
    assert ndtr(NDTR_ONE) == 1.0
    assert ndtr(np.nextafter(NDTR_ONE, -np.inf)) < 1.0
    assert np.all(ndtr(np.linspace(NDTR_ONE, 40.0, 2_000_001)) == 1.0)
    assert ndtr(np.inf) == 1.0
    counts = {corr_nodes(rho) for rho in (0.0, 0.99, 0.995, 0.999, 0.9998)}
    assert counts == {CORR_QUAD_NODES * 2**k for k in range(4)}
    assert max(counts) == CORR_MAX_NODES
    for k in (64, *sorted(counts)):
        assert np.all(np.diff(gauss_legendre(k)[0]) > 0.0)
