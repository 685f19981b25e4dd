import tracemalloc
import warnings

import numpy as np
import pytest

from addisgraph.core import check_fdr_condition, check_fwer_condition
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
    DuplicateObservation,
    InvalidConfig,
    MissingIndicator,
    NonMonotoneConflicts,
    ScheduleViolation,
    UnknownIndex,
)
from addisgraph.gammas import GammaSpec
from addisgraph.weights import CustomTable

BASEL = GammaSpec.parse("basel")
G1, G2, G3 = BASEL.value(1), BASEL.value(2), BASEL.value(3)


def drive(engine, p, lags, closed=False):
    """Issue levels in order, observing everything the engine may use."""
    n = len(p)
    levels = np.empty(n)
    seen = 0  # indices 1 .. seen are observed; horizons never fall under monotone lags
    for i in range(1, n + 1):
        lo = i - lags[i - 1]
        horizon = i if closed else lo
        while seen < horizon - 1:
            seen += 1
            engine.observe(seen, float(p[seen - 1]))
        levels[i - 1] = engine.level(i, conflicts=range(lo, i))
    for j in range(seen + 1, n + 1):
        engine.observe(j, float(p[j - 1]))
    return levels


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
            e = cls()
            levels = np.empty(i)
            for k in range(1, i + 1):
                lo = k - lags[k - 1]
                for j in range(1, lo):
                    if e.ledger.entries[j - 1].indicators is None:
                        e.observe(j, float(p[j - 1]))
                levels[k - 1] = e.level(k, conflicts=range(lo, k))
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
