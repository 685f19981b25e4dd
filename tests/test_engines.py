import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addisgraph.core import (
    ConflictStructure,
    check_fdr_condition,
    check_fwer_condition,
)
from addisgraph.engines import (
    ENGINE_KINDS,
    ClosedGraph,
    ClosedSpending,
    FwerEngine,
    GraphConf,
    GraphConfU,
    SpendingLocal,
    make_engine,
)
from addisgraph.errors import (
    DomainError,
    DuplicateObservation,
    InvalidConfig,
    MissingIndicator,
    NonMonotoneConflicts,
    ScheduleViolation,
    UnknownIndex,
)
from addisgraph.gammas import GammaSpec
from addisgraph.weights import CustomTable
from tests.conftest import drive

BASEL = GammaSpec.parse("basel")
G1, G2, G3 = BASEL.value(1), BASEL.value(2), BASEL.value(3)


# ---------------------------------------------------------------------------
# worked examples


def test_spending_local_first_levels():
    e = SpendingLocal()
    assert e.level(1) == pytest.approx(0.2 * 0.64 * G1, abs=1e-12)
    assert e.level(2, conflicts=[1]) == pytest.approx(0.128 * G2, abs=1e-12)
    # numeric targets
    assert 0.2 * 0.64 * G1 == pytest.approx(0.0778147, abs=5e-8)
    assert 0.128 * G2 == pytest.approx(0.0194537, abs=5e-8)


def test_spending_local_counter_advances_on_spend():
    e = SpendingLocal()
    e.level(1)
    e.observe(1, 0.3)  # S=1, C=0: one unit spent
    e.level(2)
    e.observe(2, 0.9)  # S=0, C=0: recycled
    assert e.level(3) == pytest.approx(0.128 * G2, abs=1e-12)  # t = 2


def test_graph_conf_first_level_and_recycled_mass():
    e = GraphConf()
    assert e.level(1) == pytest.approx(0.64 * 0.2 * G1, abs=1e-12)
    e.observe(1, 0.9)  # U_1 = 1
    expected = 0.64 * (0.2 * G2 + G1 * 0.2 * G1)
    assert e.level(2) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.0667604, abs=1e-5)


def test_graph_conf_conflicting_level_uses_seed_only():
    e = GraphConf()
    e.level(1)
    assert e.level(2, conflicts=[1]) == pytest.approx(0.64 * 0.2 * G2, abs=1e-12)


def test_graph_conf_reroute_shape_with_custom_table():
    # explicit reroute of the blocked weight onto the next target
    table = CustomTable({(1, 3): G2 + G1, (2, 3): G1})
    e = GraphConf(rule=table, adjust="none")
    a1 = e.level(1)
    a2 = e.level(2, conflicts=[1])
    e.observe(1, 0.9)
    e.observe(2, 0.9)
    a3 = e.level(3)
    expected = 0.64 * (0.2 * G3 + (G2 + G1) * a1 / 0.64 + G1 * a2 / 0.64)
    assert a3 == pytest.approx(expected, rel=1e-12)


def test_graph_conf_schedule_violation_without_adjustment():
    e = GraphConf(adjust="none")
    e.level(1)
    with pytest.raises(ScheduleViolation):
        e.level(2, conflicts=[1])


def test_graph_conf_u_worked_case():
    # L_2 = 1, L_3 = 0 with both early p-values recycled
    e = GraphConfU()
    e.level(1)
    e.level(2, conflicts=[1])
    e.observe(1, 0.9)
    e.observe(2, 0.9)
    a3 = e.level(3)
    b12 = (G1 - G2) / G1
    b13 = (G2 - G3) / G1
    expected = 0.64 * (0.2 * G3 + 0.2 * G1 * (b13 + b12 * b12) + 0.2 * G2 * b12)
    assert a3 == pytest.approx(expected, rel=1e-12)
    # spending uses t(3) = 1 here; the graph recovers the full counter level
    assert a3 == pytest.approx(0.2 * 0.64 * G1, rel=1e-12)


def test_closed_spending_rejection_credit():
    e = ClosedSpending()
    e.level(1)
    e.observe(1, 0.01)  # rejected
    assert e.level(2, conflicts=[1]) == pytest.approx(0.2 * 0.64 * G1, abs=1e-12)


def test_closed_spending_equals_spending_under_zero_lags():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=30)
    lags = [0] * 30
    a = drive(SpendingLocal(), p, lags)
    b = drive(ClosedSpending(), p, lags, closed=True)
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_closed_graph_online_graphical_reduction():
    # tau = 1, lambda = 0: level propagates only on rejection
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e = ClosedGraph(tau=1.0, lam=0.0)
        e.level(1)
        e.observe(1, 0.5)  # accepted
        assert e.level(2) == pytest.approx(0.2 * G2, abs=1e-12)
        e2 = ClosedGraph(tau=1.0, lam=0.0)
        a1 = e2.level(1)
        e2.observe(1, 1e-4)  # rejected
        assert e2.level(2) == pytest.approx(0.2 * G2 + G1 * a1, rel=1e-12)


def test_closed_graph_rejection_gain_inside_window():
    e = ClosedGraph()
    a1 = e.level(1)
    e.observe(1, 1e-4)  # rejected (also a candidate)
    a2 = e.level(2, conflicts=[1])
    assert a2 == pytest.approx(0.64 * (0.2 * G2 + G1 * a1 / 0.64), rel=1e-12)


# ---------------------------------------------------------------------------
# state machine contract


@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_levels_issued_in_order(kind):
    e = make_engine(kind)
    e.level(1)
    with pytest.raises(Exception):
        e.level(3)


@pytest.mark.parametrize("bad", [-10.0, float("nan"), float("inf")])
@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_a_level_below_zero_or_not_finite_is_refused_without_a_trace(kind, bad):
    """A computed level that is negative, NaN or infinite raises DomainError,
    and the engine is as if never asked: its snapshot bytes are unchanged,
    and the levels after it equal those of a restored copy.  gamma_i (the
    held-mass kernel's level for graph-conf-u) reads ``bad`` for the refused
    request only.  That request declares no conflicts and its retry
    conflicts with index 3: a graph kind that had pinned its denominators,
    or a closure kernel that had kept the refused window edge, would give
    other levels from there on."""
    p = [0.01, 0.5, 0.9, 0.3, 0.05, 0.7]
    e = make_engine(kind, alpha=0.2, tau=0.8, lam=0.16)
    for i in (1, 2, 3):
        e.level(i)
        e.observe(i, p[i - 1])
    before = e.snapshot_json()
    gamma = e.gamma
    if kind == "graph-conf-u":
        e._held.level = lambda i, c: np.array([bad])
    else:
        e.gamma = SimpleNamespace(value=lambda i: bad)
    with pytest.raises(DomainError, match="none was issued"):
        e.level(4)
    if kind == "graph-conf-u":
        del e._held.level
    else:
        e.gamma = gamma
    assert e.snapshot_json() == before
    twin = FwerEngine.restore(before)
    for i, conflicts in ((4, [3]), (5, None), (6, [5])):
        levels = [eng.level(i, conflicts=conflicts) for eng in (e, twin)]
        assert levels[0] == levels[1] >= 0.0
        for eng in (e, twin):
            eng.observe(i, p[i - 1])


@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_inline_non_monotone_conflicts_are_named(kind):
    """1 conflicts with 2 and 4 but not 3: the triple is (1, 3, 4), state untouched."""
    e = make_engine(kind)
    for i, x in enumerate([(), (1,), (2,)], start=1):
        e.level(i, conflicts=x)
        e.observe(i, 0.5)
    with pytest.raises(NonMonotoneConflicts) as exc:
        e.level(4, conflicts=(1, 3))
    assert exc.value.triple == (1, 3, 4)
    assert e.issued == 3
    e.level(4, conflicts=(3,))


def _lag_sets(lags):
    lags = [min(lag, i) for i, lag in enumerate(lags)]
    for i in range(1, len(lags)):  # monotone sets: a lag grows by at most one
        lags[i] = min(lags[i], lags[i - 1] + 1)
    return [frozenset(range(i - lag, i)) for i, lag in enumerate(lags, start=1)]


def _batch_sets(sizes):
    return list(ConflictStructure.from_batches(sizes).conflict_sets)


def _finish_time_sets(delays):
    # j is in X_i iff j < i <= e_j; delays that shrink leave gaps in the sets
    finish = [i + d for i, d in enumerate(delays, start=1)]
    n = len(finish)
    return [frozenset(j for j in range(1, i) if finish[j - 1] >= i) for i in range(1, n + 1)]


def _any_sets(masks):
    # subsets of the earlier indices, mostly not monotone
    return [frozenset(j for j in range(1, i) if m >> (j - 1) & 1) for i, m in enumerate(masks, 1)]


CONFLICT_FAMILIES = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=20).map(_lag_sets),
    st.lists(st.integers(1, 5), min_size=1, max_size=6).map(_batch_sets),
    st.lists(st.integers(0, 6), min_size=1, max_size=20).map(_finish_time_sets),
    st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=12).map(_any_sets),
)


@given(CONFLICT_FAMILIES)
@settings(max_examples=300, deadline=None)
def test_structure_and_engine_share_the_conflict_rule(sets):
    """A structure built on the sets and an engine fed them inline agree: lags
    exactly when every held set is a range, and the same non-monotone triple."""
    try:
        structure = ConflictStructure(sets)
        expected = None
    except NonMonotoneConflicts as exc:
        expected = exc.triple
    e = make_engine("graph-conf")
    try:
        for i, x in enumerate(sets, start=1):
            e.level(i, conflicts=sorted(x))
            for j in sorted(e._pending):
                e.observe(j, 0.5)
    except NonMonotoneConflicts as exc:
        assert exc.triple == expected
        assert e.issued == exc.triple[2] - 1
        return
    assert expected is None
    assert (structure.lags is not None) == all(type(x) is range for x in e._sets)
    if structure.lags is not None:
        assert structure.lags == tuple(len(x) for x in e._sets)


def test_observe_requires_issued_level():
    e = GraphConf()
    with pytest.raises(UnknownIndex):
        e.observe(1, 0.5)
    e.level(1)
    e.observe(1, 0.5)
    with pytest.raises(DuplicateObservation):
        e.observe(1, 0.5)


def test_missing_indicator_is_protocol_violation():
    e = GraphConf()
    e.level(1)
    with pytest.raises(MissingIndicator):
        e.level(2)  # 1 not in X_2 and unobserved


def test_out_of_order_observation_for_async_structures():
    lags = [min(i, 2) for i in range(5)]
    p = np.array([0.7, 0.05, 0.9, 0.4, 0.2])

    def feed(order):
        e = GraphConf()
        issued = 0
        seen = set()
        levels = {}
        for action, i in order:
            if action == "L":
                levels[i] = e.level(i, conflicts=range(i - lags[i - 1], i))
            else:
                e.observe(i, float(p[i - 1]))
                seen.add(i)
        return e, levels

    in_order = [("L", 1), ("L", 2), ("P", 1), ("P", 2), ("L", 3), ("L", 4),
                ("P", 3), ("P", 4), ("L", 5), ("P", 5)]
    permuted = [("L", 1), ("L", 2), ("P", 2), ("P", 1), ("L", 3), ("L", 4),
                ("P", 4), ("P", 3), ("L", 5), ("P", 5)]
    e1, l1 = feed(in_order)
    e2, l2 = feed(permuted)
    assert l1 == l2
    for a, b in zip(e1.ledger.entries, e2.ledger.entries):
        assert a.level == b.level and a.indicators == b.indicators


def test_levels_are_immutable_once_issued():
    e = GraphConf()
    a1 = e.level(1)
    e.observe(1, 0.01)
    assert e.ledger.entries[0].level == a1


def test_measurability_conflicting_pvalue_cannot_change_level():
    """Perturbing p-values inside the conflict set never moves the level."""
    rng = np.random.default_rng(3)
    lags = [min((i - 1) % 4, i - 1) for i in range(1, 16)]
    base_p = rng.uniform(size=15)
    for cls in (SpendingLocal, GraphConf, GraphConfU):
        ref = drive(cls(), base_p, lags)
        for trial in range(5):
            p = base_p.copy()
            i = 10
            window = range(i - lags[i - 1], i)
            for j in window:
                p[j - 1] = rng.uniform()
            levels = drive(cls(), p[:i], lags[:i])
            assert levels[i - 1] == pytest.approx(ref[i - 1], abs=0)


def test_degenerate_gap_rejected():
    with pytest.raises(InvalidConfig):
        GraphConf(tau=0.5, lam=0.5)


def test_lint_warning_when_level_exceeds_lambda():
    with pytest.warns(RuntimeWarning):
        e = SpendingLocal(alpha=0.2, tau=0.9, lam=0.01, gamma="basel")
        e.level(1)  # 0.2 * 0.89 * 0.608 > 0.01


# ---------------------------------------------------------------------------
# equivalences and dominance on random trajectories


def test_lemma1_equivalence_zero_lags():
    rng = np.random.default_rng(5)
    for seed in range(5):
        p = rng.uniform(size=50)
        lags = [0] * 50
        a = drive(SpendingLocal(), p, lags)
        b = drive(GraphConfU(), p, lags)
        np.testing.assert_allclose(a, b, rtol=1e-12)


@pytest.mark.parametrize("b", [2, 5])
def test_uniform_improvement_dominance(b):
    rng = np.random.default_rng(6)
    lags = [min((i - 1) % b, i - 1) for i in range(1, 41)]
    for _ in range(10):
        p = rng.uniform(size=40)
        spend = drive(SpendingLocal(), p, lags)
        graph = drive(GraphConfU(), p, lags)
        closed = drive(ClosedSpending(), p, lags, closed=True)
        assert np.all(graph >= spend - 1e-12)
        assert np.all(closed >= spend - 1e-12)


def test_graph_conf_u_state_is_linear_in_n():
    """No reroute table: two dense 4097 x 4097 float tables alone are 268 MB."""
    n, delay = 4000, 10
    p = np.random.default_rng(8).uniform(size=n).tolist()
    e = GraphConfU()
    tracemalloc.start()
    try:
        for i in range(1, n + 1):
            if i > delay + 1:  # the feedback level i needs, sent as late as allowed
                e.observe(i - delay - 1, p[i - delay - 2])
            e.level(i, conflicts=range(max(1, i - delay), i))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_every_engine_trajectory_passes_condition():
    """Each kind certifies the budget behind its own error rate."""
    rng = np.random.default_rng(7)
    for kind in sorted(ENGINE_KINDS):
        check = check_fdr_condition if kind == "fdr-graph" else check_fwer_condition
        for _ in range(20):
            n = 30
            b = int(rng.integers(1, 6))
            lags = [min((i - 1) % b, i - 1) for i in range(1, n + 1)]
            p = rng.uniform(size=n) ** 0.7
            e = make_engine(kind)
            drive(e, p, lags, closed=kind.startswith("closed"))
            assert check(e.ledger, alpha=e.alpha).passed


# ---------------------------------------------------------------------------
# snapshots


@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_snapshot_round_trip(kind):
    rng = np.random.default_rng(8)
    n = 12
    lags = [min((i - 1) % 3, i - 1) for i in range(1, n + 1)]
    p = rng.uniform(size=n)
    e = make_engine(kind)
    drive(e, p[:8], lags[:8], closed=kind.startswith("closed"))
    clone = FwerEngine.restore(e.snapshot_json())
    assert type(clone) is type(e)
    # remaining behavior must be bit-identical
    for i in (9, 10):
        lo = i - lags[i - 1]
        for eng in (e, clone):
            for j in range(1, (i if kind.startswith("closed") else lo)):
                if eng.ledger.entries[j - 1].indicators is None:
                    eng.observe(j, float(p[j - 1]))
        a = e.level(i, conflicts=range(lo, i))
        b = clone.level(i, conflicts=range(lo, i))
        assert a == b
