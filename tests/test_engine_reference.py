"""Engines against plain-Python transcriptions of their docstring formulas.

The engines compute a level as a dot product over per-index arrays they keep
as they go.  The references below loop over the predecessors one at a time,
as the formulas read, and share nothing with the engines but the gamma
values.  Streams interleave observations at random, so levels are also
requested before their feedback is in; a request the reference says must
fail has to fail, and is retried once more feedback has arrived.

The closed engines and their runners share one kernel, so the closed runners
are also checked against the references directly, in runner order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addisgraph.engines import ClosedGraph, ClosedSpending, GraphConf, GraphConfU, SpendingLocal
from addisgraph.errors import MissingIndicator
from addisgraph.extensions import FdrGraph
from addisgraph.gammas import GammaSpec
from addisgraph.sim import levels_closed_graph, levels_closed_spending
from addisgraph.weights import CustomTable

GAMMAS = ["basel", "logq", "power:1.6", "geometric:0.6"]

# per-index thresholds often put a level above its lambda, which warns once
pytestmark = pytest.mark.filterwarnings("ignore:issued level:RuntimeWarning")


class Reference:
    """One procedure's levels, recomputed from the whole recorded history."""

    def __init__(self, kind, alpha, gamma, table=None, w0=None):
        self.kind = kind
        self.alpha = alpha
        self.gamma = GammaSpec.parse(gamma)
        self.table = table  # {(j, i): g[j, i]} for graph-conf with adjust="none"
        self.w0 = w0
        self.sets = []  # X_k of every issued level
        self.prop = []  # propagated level over its gap, alpha_k / (tau_k - lambda_k)
        self.ind = []  # (S, C, R) once observed, else None
        self.levels = []

    def g(self, k):
        return self.gamma.value(k)

    def weight(self, j, i, x):
        """g*[j, i]: the table, or shifted gamma renormalized by the blocked prefix."""
        if j in x:
            return 0.0
        if self.table is not None:
            return self.table.get((j, i), 0.0)
        sets = self.sets + [x]
        first_clear = next(k for k in range(j + 1, i + 1) if j not in sets[k - 1])
        # the unblocked tail sum_{k >= first_clear} gamma_{k-j}, taken whole
        return self.g(i - j) / self.gamma.tail_sum(first_clear - 1 - j)

    def reroute_column(self, i, x):
        """{j: g*[j, i]} for sources j < c_i = i - L_i, by the reroute recursion
        whose held-mass form is ``weights.HeldMass``: a target that conflicts
        with the source passes the source's weight and inflow on through its
        own row; a clear target passes on only what reached it through its window.
        Base weights g[m, k] = (gamma_{t_m+k-m-1} - gamma_{t_m+k-m}) / gamma_{t_m}."""
        c_i = i - len(x)
        t = {1: 1}
        for m in range(2, c_i):
            s, c, _ = self.ind[m - 2]
            t[m] = t[m - 1] + s - c  # 1 - U_{m-1}

        def base(m, k):
            return (self.g(t[m] + k - m - 1) - self.g(t[m] + k - m)) / self.g(t[m])

        gm = {}  # g-[j, m]: mass of source j rerouted through m
        for m in range(2, c_i):
            c_m = m - len(self.sets[m - 1])
            for j in range(1, m):
                if j >= c_m:
                    gm[j, m] = base(j, m) + sum(gm[j, k] * base(k, m) for k in range(j + 1, m))
                else:
                    gm[j, m] = sum(gm[j, k] * base(k, m) for k in range(max(c_m, j + 1), m))
        return {
            j: base(j, i) + sum(gm[j, m] * base(m, i) for m in range(j + 1, c_i))
            for j in range(1, c_i)
        }

    def missing(self, i, x):
        """Whether the level of i still lacks feedback it needs."""
        lag = len(x)
        unseen = [j for j in range(1, i) if self.ind[j - 1] is None]
        if self.kind in ("spending-local", "graph-conf-u"):
            return any(j < i - lag for j in unseen)
        if self.kind.startswith("closed"):
            return bool(unseen)
        if any(j not in x for j in unseen):
            return True
        if self.kind == "fdr-graph":
            # a rewarded rejection needs K_j, hence the R of every k < j
            return any(
                self.ind[j - 1][2] and self.weight(j, i, x) and any(k < j for k in unseen)
                for j in range(1, i)
                if j not in x
            )
        return False

    def level(self, i, x, tau, lam):
        """(issued level, propagated level) of i."""
        gap = tau - lam
        lag = len(x)
        ind = self.ind
        if self.kind == "spending-local":
            t = 1 + lag + sum(ind[j - 1][0] - ind[j - 1][1] for j in range(1, i - lag))
            a = self.alpha * gap * self.g(t)
            return a, a
        if self.kind == "closed-spending":
            t = 1 + sum(1 - ind[j - 1][2] for j in x)
            t += sum(ind[j - 1][0] - max(ind[j - 1][2], ind[j - 1][1]) for j in range(1, i - lag))
            a = self.alpha * gap * self.g(t)
            return a, a
        if self.kind == "closed-graph":
            carried = sum(self.g(i - j) * ind[j - 1][2] * self.prop[j - 1] for j in x)
            for j in range(1, i - lag):
                s, c, r = ind[j - 1]
                carried += self.g(i - j) * (max(r, c) - s + 1) * self.prop[j - 1]
            a = gap * (self.alpha * self.g(i) + carried)
            return a, a
        if self.kind == "graph-conf-u":
            col = self.reroute_column(i, x)
            carried = sum(w * (ind[j - 1][1] - ind[j - 1][0] + 1) * self.prop[j - 1]
                          for j, w in col.items())
            a = gap * (self.alpha * self.g(i) + carried)
            return a, a
        carried = 0.0
        for j in range(1, i):
            if j not in x:
                s, c, _ = ind[j - 1]
                carried += self.weight(j, i, x) * (c - s + 1) * self.prop[j - 1]
        if self.kind == "graph-conf":
            a = gap * (self.alpha * self.g(i) + carried)
            return a, a
        reward = 0.0
        for j in range(1, i):
            if j not in x and ind[j - 1][2]:
                k_j = any(ind[k - 1][2] for k in range(1, j))
                earn = self.alpha if k_j else self.alpha - self.w0
                reward += self.weight(j, i, x) * earn
        a_hat = gap * (self.w0 * self.g(i) + carried + reward)
        return min(a_hat, lam), a_hat

    def record_level(self, i, x, tau, lam):
        issued, prop = self.level(i, x, tau, lam)
        self.sets.append(x)
        self.prop.append(prop / (tau - lam))
        self.ind.append(None)
        self.levels.append((issued, tau, lam))
        return issued

    def observe(self, j, p):
        level, tau, lam = self.levels[j - 1]
        self.ind[j - 1] = (int(p <= tau), int(p <= lam), int(p <= level))


def lag_sets(rnd, n):
    sets, lag = [], 0
    for i in range(1, n + 1):
        lag = rnd.randint(0, min(lag + 1, i - 1))
        sets.append(frozenset(range(i - lag, i)))
    return sets


def finish_time_sets(rnd, n):
    """Monotone, not always contiguous: X_i = {j < i : e_j >= i}."""
    finish = [j + rnd.choice([0, 0, 1, 2, 5]) for j in range(1, n + 1)]
    return [frozenset(j for j in range(1, i) if finish[j - 1] >= i) for i in range(1, n + 1)]


def conflict_free_table(rnd, sets):
    """Random row-substochastic weights that vanish on conflicting pairs."""
    n = len(sets)
    entries = {}
    for j in range(1, n):
        row = {i: rnd.choice([0.0, rnd.uniform(0.1, 1.0)]) for i in range(j + 1, n + 1)
               if j not in sets[i - 1]}
        total = sum(row.values())
        scale = rnd.uniform(0.3, 1.0) / total if total else 0.0
        entries.update({(j, i): w * scale for i, w in row.items() if w})
    return entries


def p_value(rnd):
    return rnd.choice([rnd.random(), rnd.random() ** 4, rnd.uniform(0.0, 0.003), 0.0, 1.0])


def thresholds(rnd, default_tau, default_lam):
    if rnd.random() < 0.3:
        return default_tau, default_lam
    tau = rnd.uniform(0.05, 1.0)
    return tau, tau * rnd.uniform(0.0, 0.95)


def run_against_reference(engine, ref, rnd, sets):
    n = len(sets)
    p = [p_value(rnd) for _ in range(n)]

    def observe(j):
        engine.observe(j, p[j - 1])
        ref.observe(j, p[j - 1])

    for i in range(1, n + 1):
        x = sets[i - 1]
        tau, lam = thresholds(rnd, engine.tau, engine.lam)
        pending = [j for j in range(1, i) if ref.ind[j - 1] is None]
        rnd.shuffle(pending)
        for j in pending[: rnd.randint(0, len(pending))]:
            observe(j)
        while True:
            pending = [j for j in range(1, i) if ref.ind[j - 1] is None]
            must_fail = ref.missing(i, x)
            try:
                got = engine.level(i, tau=tau, lam=lam, conflicts=x)
            except MissingIndicator:
                assert must_fail, f"level {i} refused, but its feedback is in"
                rnd.shuffle(pending)
                for j in pending[: rnd.randint(1, len(pending))]:
                    observe(j)
                continue
            assert not must_fail, f"level {i} issued without the feedback it needs"
            want = ref.record_level(i, x, tau, lam)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), i
            break
    for j in range(1, n + 1):
        if ref.ind[j - 1] is None:
            observe(j)
    seen = [(e.indicators.s, e.indicators.c, e.indicators.r) for e in engine.ledger.entries]
    assert seen == ref.ind


streams = dict(
    n=st.integers(min_value=1, max_value=24),
    gamma=st.sampled_from(GAMMAS),
    rnd=st.randoms(use_true_random=False),
)


@pytest.mark.parametrize(
    "kind, cls",
    [("spending-local", SpendingLocal), ("closed-spending", ClosedSpending),
     ("closed-graph", ClosedGraph), ("graph-conf-u", GraphConfU)],
)
@given(**streams)
@settings(max_examples=80, deadline=None)
def test_lag_form_engines_match_reference(kind, cls, n, gamma, rnd):
    sets = lag_sets(rnd, n)
    run_against_reference(cls(gamma=gamma), Reference(kind, 0.2, gamma), rnd, sets)


@given(**streams)
@settings(max_examples=80, deadline=None)
def test_graph_conf_matches_reference(n, gamma, rnd):
    sets = finish_time_sets(rnd, n)
    run_against_reference(GraphConf(gamma=gamma), Reference("graph-conf", 0.2, gamma), rnd, sets)


@given(**streams)
@settings(max_examples=80, deadline=None)
def test_graph_conf_custom_table_matches_reference(n, gamma, rnd):
    sets = finish_time_sets(rnd, n)
    entries = conflict_free_table(rnd, sets)
    engine = GraphConf(gamma=gamma, rule=CustomTable(entries), adjust="none")
    run_against_reference(engine, Reference("graph-conf", 0.2, gamma, table=entries), rnd, sets)


@given(w0_share=st.floats(0.05, 1.0), **streams)
@settings(max_examples=80, deadline=None)
def test_fdr_graph_matches_reference(w0_share, n, gamma, rnd):
    sets = finish_time_sets(rnd, n)
    w0 = 0.05 * w0_share
    engine = FdrGraph(alpha=0.05, gamma=gamma, w0=w0)
    run_against_reference(engine, Reference("fdr-graph", 0.05, gamma, w0=w0), rnd, sets)


def monotone_lags(raw):
    """Contiguous lags with L_1 = 0 and L_{i+1} <= L_i + 1."""
    lags = [0] * len(raw)
    for i in range(1, len(raw)):
        lags[i] = min(raw[i], lags[i - 1] + 1)
    return lags


runner_streams = dict(
    raw=st.lists(st.integers(0, 8), min_size=1, max_size=30),
    gamma=st.sampled_from(GAMMAS),
    rnd=st.randoms(use_true_random=False),
)
CLOSED_RUNNERS = {"closed-spending": levels_closed_spending, "closed-graph": levels_closed_graph}


@pytest.mark.parametrize("kind", sorted(CLOSED_RUNNERS))
@given(**runner_streams)
@settings(max_examples=60, deadline=None)
def test_closed_runners_match_reference(kind, raw, gamma, rnd):
    """Every trial row of a closed runner, level by level in runner order
    (one tau/lambda for the stream, each p-value observed right after its
    level).  Small lambdas put levels above lambda, where max(R, C) is R."""
    lags = monotone_lags(raw)
    n = len(lags)
    tau, lam = thresholds(rnd, 0.8, 0.16)
    p = np.array([[p_value(rnd) for _ in range(n)] for _ in range(3)])
    got = CLOSED_RUNNERS[kind](p, np.array(lags), 0.2, tau, lam, GammaSpec.parse(gamma))
    for t in range(p.shape[0]):
        ref = Reference(kind, 0.2, gamma)
        for i in range(1, n + 1):
            want = ref.record_level(i, frozenset(range(i - lags[i - 1], i)), tau, lam)
            assert got[t, i - 1] == pytest.approx(want, rel=1e-12, abs=0.0), (t, i)
            ref.observe(i, float(p[t, i - 1]))


@given(**runner_streams)
@settings(max_examples=60, deadline=None)
def test_closed_spending_engine_levels_are_runner_bits(raw, gamma, rnd):
    lags = monotone_lags(raw)
    n = len(lags)
    tau, lam = thresholds(rnd, 0.8, 0.16)
    p = np.array([[p_value(rnd) for _ in range(n)] for _ in range(3)])
    rows = levels_closed_spending(p, np.array(lags), 0.2, tau, lam, GammaSpec.parse(gamma))
    for t in range(p.shape[0]):
        engine = ClosedSpending(tau=tau, lam=lam, gamma=gamma)
        levels = np.empty(n)
        for i in range(1, n + 1):
            levels[i - 1] = engine.level(i, conflicts=range(i - lags[i - 1], i))
            engine.observe(i, float(p[t, i - 1]))
        np.testing.assert_array_equal(levels, rows[t])
