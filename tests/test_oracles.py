import warnings

import numpy as np
import pytest

from addisgraph.core import budget_path
from addisgraph.engines import ClosedGraph, GraphConf, GraphConfU, SpendingLocal
from addisgraph.errors import HorizonTooLarge
from addisgraph.gammas import GammaSpec
from addisgraph.oracles import (
    BudgetFunction,
    brute_force_budget_check,
    closure_oracle,
    improvement_weight_oracle,
)
from addisgraph.weights import CustomTable, lemma1_row, renorm_table
from tests.conftest import drive

BASEL = GammaSpec.parse("basel")


def _shifted_table(spec, n):
    g = np.zeros((n, n))
    vals = spec.values(n)
    for j in range(1, n):
        g[j - 1, j:] = vals[: n - j]
    return g


# ---------------------------------------------------------------------------
# budget enumeration


def test_all_zero_pattern_is_plain_seed_sum():
    n = 8
    bf = BudgetFunction(n=n, gamma=BASEL.values(n), weights=_shifted_table(BASEL, n), alpha=0.2)
    value = bf.evaluate(np.zeros((1, n)))[0]
    assert value == pytest.approx(0.2 * BASEL.prefix_sum(n), rel=1e-12)
    assert value <= 0.2


def test_three_step_enumeration():
    n = 3
    bf = BudgetFunction(n=n, gamma=BASEL.values(n), weights=_shifted_table(BASEL, n), alpha=0.2)
    max_f, pattern, ok = brute_force_budget_check(bf)
    assert ok and max_f <= 0.2 + 1e-12
    assert pattern.shape == (3,)


@pytest.mark.parametrize("gamma", ["basel", "power:1.6", "logq"])
def test_budget_bound_random_weight_tables(gamma):
    """Random valid weight tables keep the worst recycling pattern within alpha."""
    spec = GammaSpec.parse(gamma)
    n = 12
    rng = np.random.default_rng(0)
    for _ in range(10):
        raw = np.triu(rng.uniform(size=(n, n)), k=1)
        scale = rng.uniform(0.2, 1.0, size=n)
        sums = raw.sum(axis=1)
        weights = np.where(sums[:, None] > 0, raw / np.maximum(sums, 1e-300)[:, None], 0.0)
        weights *= scale[:, None]  # row masses <= 1
        bf = BudgetFunction(n=n, gamma=spec.values(n), weights=weights, alpha=0.2)
        max_f, _, ok = brute_force_budget_check(bf)
        assert ok, max_f


def test_budget_cap_enforced():
    bf = BudgetFunction(n=21, gamma=BASEL.values(21), weights=np.zeros((21, 21)), alpha=0.2)
    with pytest.raises(HorizonTooLarge):
        brute_force_budget_check(bf)


def test_engine_spend_equals_budget_function():
    """Ledger accounting agrees with the proof's F_n at the realized pattern."""
    rng = np.random.default_rng(1)
    n = 12
    lags = [min((i - 1) % 3, i - 1) for i in range(1, n + 1)]
    for _ in range(10):
        p = rng.uniform(size=n)
        e = GraphConf()
        drive(e, p, lags)
        u = np.array([en.indicators.u for en in e.ledger.entries], dtype=float)
        weights = renorm_table(BASEL, np.asarray(lags), n)[1:, 1:]
        bf = BudgetFunction(n=n, gamma=BASEL.values(n), weights=weights, alpha=0.2)
        f_real = bf.evaluate(u[None, :])[0]
        spent = budget_path(*e.ledger.rows()[:4])
        assert spent[-1] == pytest.approx(f_real, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# closure recursion


def test_closure_single_hypothesis():
    levels = closure_oracle(1, [0], [0.5])
    assert levels[0] == pytest.approx(0.64 * 0.2 * BASEL.value(1), abs=1e-14)


def test_closure_matches_online_graph_without_lags():
    # lambda = 0, tau = 1: the subset recursion collapses to the rejection graph
    rng = np.random.default_rng(2)
    p = rng.uniform(size=5) ** 3
    levels = closure_oracle(5, [0] * 5, p, alpha=0.2, tau=1.0, lam=0.0)
    eng = ClosedGraph(alpha=0.2, tau=1.0, lam=0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = drive(eng, p, [0] * 5, closed=True)
    np.testing.assert_allclose(got, levels, rtol=1e-12)


@pytest.mark.parametrize("seed", range(50))
def test_closure_equivalence_lag_one(seed):
    n = 8
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=n)
    lags = [0] + [1] * (n - 1)
    expected = closure_oracle(n, lags, p)
    got = drive(ClosedGraph(), p, lags, closed=True)
    np.testing.assert_allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("seed", range(40))
def test_closed_graph_with_a_custom_table_matches_the_closure(seed):
    """ClosedGraph(rule=CustomTable) issues the levels of the closure
    recursion under the same table: sparse rows of mass below one, random
    lag-form windows."""
    n = 7
    rng = np.random.default_rng(seed)
    entries = {}
    for j in range(1, n):
        row = rng.dirichlet(np.ones(n - j + 1))[:-1]  # mass below one
        for i, w in zip(range(j + 1, n + 1), row):
            if rng.uniform() < 0.8:
                entries[(j, i)] = float(w)
    table = CustomTable(entries)
    lags = [0]
    for i in range(2, n + 1):
        lags.append(int(rng.integers(0, lags[-1] + 2)))
    p = rng.uniform(size=n) ** 2
    expected = closure_oracle(n, lags, p, rule=table)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a level above lambda
        got = drive(ClosedGraph(rule=table), p, lags, closed=True)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_closure_cap():
    with pytest.raises(HorizonTooLarge):
        closure_oracle(11, [0] * 11, np.full(11, 0.5))


# ---------------------------------------------------------------------------
# uniform-improvement tables


def test_tables_equal_without_conflicts():
    rng = np.random.default_rng(3)
    u = rng.integers(0, 2, 12)
    local, graph, ok = improvement_weight_oracle(12, [0] * 12, BASEL, u)
    np.testing.assert_allclose(local, graph, atol=1e-15)
    assert ok


def test_tables_coincide_when_everything_recycles():
    lags = [min((i - 1) % 4, i - 1) for i in range(1, 21)]
    local, graph, ok = improvement_weight_oracle(20, lags, BASEL, np.ones(20, dtype=int))
    np.testing.assert_allclose(local, graph, atol=1e-13)
    assert ok


@pytest.mark.parametrize("seed", range(20))
def test_dominance_random_instances(seed):
    n = 50
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 7))
    lags = [min((i - 1) % b, i - 1) for i in range(1, n + 1)]
    u = rng.integers(0, 2, n)
    local, graph, ok = improvement_weight_oracle(n, lags, BASEL, u)
    assert ok
    assert np.all(local <= graph + 1e-12)


def test_tables_reconstruct_engine_levels():
    """Both tables decompose the respective engines' levels by seed mass."""
    rng = np.random.default_rng(4)
    alpha, tau, lam = 0.2, 0.8, 0.16
    n = 30
    lags = [min((i - 1) % 5, i - 1) for i in range(1, n + 1)]
    p = rng.uniform(size=n)
    s = (p <= tau).astype(int)
    c = (p <= lam).astype(int)
    u = c - s + 1
    local, graph, _ = improvement_weight_oracle(n, lags, BASEL, u)
    gam = BASEL.values(n)

    spend_levels = drive(SpendingLocal(), p, lags)
    graph_levels = drive(GraphConfU(), p, lags)
    rec_spend = (tau - lam) * (alpha * gam + (u * alpha * gam) @ local)
    rec_graph = (tau - lam) * (alpha * gam + (u * alpha * gam) @ graph)
    np.testing.assert_allclose(rec_spend, spend_levels, rtol=1e-12)
    np.testing.assert_allclose(rec_graph, graph_levels, rtol=1e-12)


def test_improvement_cap():
    with pytest.raises(HorizonTooLarge):
        improvement_weight_oracle(201, [0] * 201, BASEL, np.ones(201, dtype=int))
