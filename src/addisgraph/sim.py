"""Simulation harness: data generation, vectorized runners, metrics, CSV.

Data model: hypotheses arrive in batches of size ``b``; test statistics
within a batch are equicorrelated Gaussian (exact common-factor
construction), batches are independent.  Each index is an alternative with
probability ``pi_a`` (mean shift +3) and a null otherwise (mean ``mu_n`` <=
0, i.e. possibly conservative); one-sided z-test p-values.

The engines in :mod:`.engines` process one trajectory at a time, which is
the right shape for live streams but too slow for thousand-trial sweeps.
This module therefore re-expresses each level recursion with the trial axis
vectorized; the test suite cross-checks these runners against the sequential
engines to 1e-12 on sampled trajectories.

Reproducibility: every trial draws from its own counter-based Philox
stream keyed by ``(seed, trial_index)``, so results are independent of
execution order and thread count.  A data set builds one bit generator and
re-keys it per trial, resetting it to the state a freshly built
``Philox(key=[seed, trial_index])`` has, so the streams are those of a new
generator per trial, at a fraction of the cost.  The draws depend on the
seed, the trials, n and b alone; rho, pi_A and mu_N enter only the
p-value arithmetic.  So ``run_grid`` draws once per (seed, trials, n, b),
a draw group, and its data sets share one statistic per rho and, per
(rho, mu_N) that more than one data set reads, one alternative and one
null p-value row, each formed by the operations a lone data set applies
to its alternatives and nulls; a data set picks its p-values from the two
rows by its labels, which changes no bit.
"""

from __future__ import annotations

import io
import threading
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .core import _input_lines, budget_path, check_gap
from .errors import EmptyOutcomeSet, InvalidConfig, InvalidW0
from .gammas import GammaSpec
from .weights import Closure, ClosureCounter, HeldMass, JointTail, corr_nodes, renorm_table

CSV_HEADER = (
    "procedure,gamma_id,n,b,rho,pi_A,mu_N,e,trials,"
    "fwer,fwer_se,pfer,power,power_se,fdr,fdr_se,mfdr"
)
ALT_SHIFT = 3.0

FWER_PROCEDURES = (
    "spending-local",
    "graph-conf",
    "graph-conf-u",
    "closed-spending",
    "closed-graph",
)
ALL_PROCEDURES = FWER_PROCEDURES + ("adaptive-graph-corr", "fdr-graph")


@dataclass(frozen=True)
class SimConfig:
    """One grid point of the experiment design."""

    procedure: str = "graph-conf-u"
    gamma: str = "basel"
    n: int = 100
    b: int = 1
    rho: float = 0.5
    pi_a: float = 0.5
    mu_n: float = -0.5
    e: int | None = None
    trials: int = 1000
    seed: int = 1
    alpha: float = 0.2
    tau: float = 0.8
    lam: float = 0.16
    w0: float | None = None

    def __post_init__(self):
        if self.procedure not in ALL_PROCEDURES:
            raise InvalidConfig(f"unknown procedure {self.procedure!r}")
        if self.n < 1 or self.b < 1 or self.n % self.b:
            raise InvalidConfig(f"hypothesis count {self.n} must be divisible by batch size {self.b}")
        if not 0.0 < self.rho < 1.0:
            raise InvalidConfig(f"correlation must lie in (0,1), got {self.rho}")
        if not 0.0 < self.pi_a < 1.0:
            raise InvalidConfig(f"alternative probability must lie in (0,1), got {self.pi_a}")
        if not self.mu_n <= 0.0:
            raise InvalidConfig(f"null mean must be <= 0, got {self.mu_n}")
        if self.trials < 1:
            raise InvalidConfig("need at least one trial")
        if self.seed < 0:
            raise InvalidConfig("seed must be a nonnegative integer")
        if self.e is not None and (self.e < 0 or self.b != 1):
            raise InvalidConfig("asynchronous duration e needs e >= 0 and batch size 1")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig(f"alpha must lie in (0,1), got {self.alpha}")
        if self.procedure == "adaptive-graph-corr":
            check_gap(1.0, self.lam)  # the runner tests at tau = 1, as CorrModel does
            corr_nodes(self.rho)  # a rho the joint tail cannot resolve fails here, before any work
        else:
            check_gap(self.tau, self.lam)
        if self.procedure == "fdr-graph" and self.w0 is not None and not 0.0 < self.w0 <= self.alpha:
            raise InvalidW0(f"starting wealth must lie in (0, alpha], got {self.w0}")
        GammaSpec.parse(self.gamma)  # a malformed gamma fails here, before any work

    @property
    def gamma_spec(self) -> GammaSpec:
        return GammaSpec.parse(self.gamma)

    def lags(self) -> np.ndarray:
        """Per-index conflict lags implied by the batch / asynchrony design."""
        i = np.arange(1, self.n + 1)
        if self.e is not None:
            return np.minimum(self.e, i - 1)
        return (i - 1) % self.b


# ---------------------------------------------------------------------------
# data generation


def _draw(config: SimConfig, u, z0, eps) -> None:
    """Row k of ``u``, ``z0`` and ``eps``: trial k's uniforms, batch factors
    and noise, in stream order, from the Philox stream keyed by (seed, k).
    One bit generator serves every row: before each trial it is set to a
    fresh Philox's state re-keyed to (seed, k), so the draws are those of a
    new generator per trial.  The state is held as plain ints and lists,
    which the setter parses in well under half the time of numpy arrays."""
    bg = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bg)
    state = bg.state
    fresh = {
        **state,
        "state": {name: row.tolist() for name, row in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }
    key = fresh["state"]["key"]
    for k in range(len(u)):
        key[1] = k
        bg.state = fresh
        rng.random(out=u[k])
        rng.standard_normal(out=z0[k])
        rng.standard_normal(out=eps[k])


def _drawn(config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t, n = config.trials, config.n
    u, z0, eps = np.empty((t, n)), np.empty((t, n // config.b)), np.empty((t, n))
    _draw(config, u, z0, eps)
    return u, z0, eps


def _statistic(config: SimConfig, z0, eps, out=None) -> np.ndarray:
    """The test statistics sqrt(1 - rho) eps + sqrt(rho) z0, written to
    ``out`` (which may be ``eps``).  Batch k's factor z0[:, k] is added to
    its b members through a (trials, n / b, b) view, which is contiguous."""
    x = np.multiply(eps, np.sqrt(1.0 - config.rho), out=out)
    batches = x.reshape(len(x), -1, config.b)
    batches += np.sqrt(config.rho) * z0[..., None]
    return x


def _pvalues(config: SimConfig, x, labels) -> np.ndarray:
    """P-values of the statistics ``x``, written over it: the mean shift,
    ALT_SHIFT or mu_N, is added as both terms, the other's 0.0 moving no bit."""
    x += labels * ALT_SHIFT
    x += ~labels * config.mu_n
    return ndtr(np.negative(x, out=x), out=x)


def _pvalue_rows(config: SimConfig, x, last: bool) -> tuple[np.ndarray, np.ndarray]:
    """The alternative and the null p-value row of the statistics ``x``, by
    ``_pvalues``'s operations on an alternative, (x + ALT_SHIFT) + 0.0 mu_N,
    and on a null, (x + 0.0) + mu_N; the null row is written over ``x`` when
    this is ``x``'s ``last`` reader."""
    alt = x + ALT_SHIFT
    alt += 0.0 * config.mu_n
    null = np.add(x, 0.0, out=x if last else None)
    null += config.mu_n
    for row in (alt, null):
        ndtr(np.negative(row, out=row), out=row)
    return alt, null


def generate_data(
    config: SimConfig, *, _draws: _DrawGroup | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (trials, n) p-value and label matrices: the draws per trial,
    each row from its own Philox substream, and the arithmetic once over
    the whole matrix.

    ``_draws`` is ``run_grid``'s: the draw group of the config's (seed,
    trials, n, b), which draws at its first data set."""
    if _draws is not None:
        return _draws.take(config)
    u, z0, eps = _drawn(config)
    labels = u < config.pi_a
    return _pvalues(config, _statistic(config, z0, eps, out=eps), labels), labels


class _DrawGroup:
    """The data sets of one (seed, trials, n, b), one per config given,
    built by ``take`` in any order from one draw ``u, z0, eps``.

    Each rho's statistic is formed at its first data set; each (rho, mu_N)
    read by two or more data sets gets an alternative and a null p-value
    row, and a data set's p-values are the alternative row where its label
    is set and the null row elsewhere.  A (rho, mu_N) read once goes
    through ``_pvalues`` alone, so it pays one ``ndtr`` pass, not two.  The
    last reader of an array writes over it and the group drops it: the
    last rho formed takes ``eps``, the last (rho, mu_N) of a rho takes its
    statistic and the last data set of a (rho, mu_N) takes the null row.
    The label rows, one per pi_A, are built as the group draws, and the
    uniforms are dropped then."""

    def __init__(self, configs):
        configs = list(configs)
        self.pi_a = {c.pi_a for c in configs}
        self.left = Counter((c.rho, c.mu_n) for c in configs)  # data sets still to build
        self.readers = Counter(rho for rho, _ in self.left)  # (rho, mu_N) still to form per rho
        self.unformed = len(self.readers)  # rho whose statistic is still to form
        self.labels = self.z0 = self.eps = None
        self.stats: dict = {}  # rho -> statistic
        self.rows: dict = {}  # (rho, mu_N) -> alternative and null p-value rows

    def take(self, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
        if self.labels is None:  # the first data set draws
            u, self.z0, self.eps = _drawn(config)
            self.labels = {pi_a: u < pi_a for pi_a in self.pi_a}
        labels = self.labels[config.pi_a]
        key = (config.rho, config.mu_n)
        if key not in self.rows:
            x, last = self._statistic(config)
            if self.left[key] == 1:
                return _pvalues(config, x if last else x.copy(), labels), labels
            self.rows[key] = _pvalue_rows(config, x, last)
        self.left[key] -= 1
        if self.left[key]:
            return np.where(labels, *self.rows[key]), labels
        alt, null = self.rows.pop(key)
        np.putmask(null, labels, alt)
        return null, labels

    def _statistic(self, config: SimConfig) -> tuple[np.ndarray, bool]:
        """The statistic of ``config.rho`` for one more (rho, mu_N), and
        whether this is its last reader."""
        rho = config.rho
        x = self.stats.get(rho)
        if x is None:
            self.unformed -= 1
            out = None if self.unformed else self.eps
            x = self.stats[rho] = _statistic(config, self.z0, self.eps, out=out)
            if not self.unformed:
                self.z0 = self.eps = None
        self.readers[rho] -= 1
        if self.readers[rho]:
            return x, False
        del self.stats[rho]
        return x, True


# ---------------------------------------------------------------------------
# vectorized level runners (trial axis first)


_table_lock = threading.Lock()
_table: tuple | None = None  # (key, table) of the last weight table built


def _weight_table(spec: GammaSpec, lags, n: int) -> np.ndarray:
    """``renorm_table(spec, lags, n)``, read-only, from a one-entry memo, so
    consecutive grid points of one (gamma, lags, n) build it once.  The old
    table is dropped before a new one is built: at most one is held."""
    global _table
    lags = np.asarray(lags)
    key = (spec, n, lags.dtype.str, lags.tobytes())
    with _table_lock:
        if _table is None or _table[0] != key:
            _table = None
            table = renorm_table(spec, lags, n)
            table.flags.writeable = False
            _table = (key, table)
        return _table[1]


def _indicator_u(p, tau, lam):
    """U = C - S + 1 as floats: 0 where lambda < p <= tau, else 1 (C implies
    S, as lambda < tau)."""
    return (~((lam < p) & (p <= tau))).astype(np.float64)


def levels_spending_local(p, lags, alpha, tau, lam, spec: GammaSpec) -> np.ndarray:
    """Spending levels alpha (tau - lambda) gamma_t, t_i = 1 + L_i + sum of
    S - C over 1 .. i - L_i - 1, counted in integers: S - C is the 0/1 row
    lambda < p <= tau."""
    n = p.shape[1]
    gam = spec.values(2 * n + 2)
    cs = np.zeros((p.shape[0], n + 1), dtype=np.int64)  # cs[:, k]: sum of S - C over 1 .. k
    np.cumsum((p <= tau) & ~(p <= lam), axis=1, out=cs[:, 1:])
    i = np.arange(1, n + 1)
    t0 = cs[:, i - lags - 1]
    t0 += lags  # t_i - 1, the 0-based position of gamma_{t_i}
    return alpha * (tau - lam) * gam[t0]


def levels_graph_conf(p, lags, alpha, tau, lam, spec: GammaSpec) -> np.ndarray:
    """Shifted-gamma graph levels; ``ua[:, j]`` = U_j at_j, the mass source j
    forwards, is stored once at_j is set, so a level is one product over it.
    Each at_i is written into an index-major row."""
    ttr, n = p.shape
    gam = spec.values(n)
    w = _weight_table(spec, lags, n)
    u = _indicator_u(np.ascontiguousarray(p.T), tau, lam)
    at = np.empty((n, ttr))
    ua = np.empty((ttr, n))
    for i0 in range(n):
        a = np.matmul(ua[:, :i0], w[1 : i0 + 1, i0 + 1], out=at[i0])
        a += alpha * gam[i0]
        np.multiply(u[i0], a, out=ua[:, i0])
    return np.multiply(at, tau - lam, out=at).T


def levels_graph_conf_u(p, lags, alpha, tau, lam, spec: GammaSpec) -> np.ndarray:
    """Reroute-adjusted levels by the held-mass recursion of
    :class:`.weights.HeldMass`, O(T n^2) time; no reroute table is formed."""
    ttr, n = p.shape
    u = _indicator_u(p, tau, lam)
    held = HeldMass(spec, alpha, trials=ttr, capacity=n)
    for i in range(1, n + 1):
        c = i - int(lags[i - 1])
        held.level(i, c)
        held.hold(i, c, u[:, i - 1])
    return (tau - lam) * held.at[:, :n]


def levels_closed_spending(p, lags, alpha, tau, lam, spec: GammaSpec) -> np.ndarray:
    """Closure-principle spending levels by :class:`.weights.ClosureCounter`,
    fed index-major 0/1 rows (one contiguous row of trials per index), so
    its int64 counter is summed from bools.  A level is a gather at the
    counter t from ``step``, where step[t] = (alpha (tau - lambda)) gamma_t,
    the product the level formula takes, formed once per gamma value."""
    ttr, n = p.shape
    step = np.empty(2 * n + 3)
    step[0] = np.nan  # t >= 1
    step[1:] = (alpha * (tau - lam)) * spec.values(2 * n + 2)
    pt = np.ascontiguousarray(p.T)
    s, c = pt <= tau, pt <= lam
    levels = np.empty((n, ttr))
    closure = ClosureCounter(trials=ttr, capacity=n)
    for i in range(1, n + 1):
        level = np.take(step, closure.counter(i, int(lags[i - 1])), out=levels[i - 1])
        r = pt[i - 1] <= level
        closure.absorb(i, s[i - 1], np.maximum(r, c[i - 1]), r)
    return levels.T


def levels_closed_graph(p, lags, alpha, tau, lam, spec: GammaSpec) -> np.ndarray:
    """Closure-principle graph levels by :class:`.weights.Closure`, g[j, i] = gamma_{i-j},
    fed index-major rows: S and C as bools, R and max(R, C) as floats."""
    ttr, n = p.shape
    gam = spec.values(n)
    rev = gam[::-1].copy()  # rev[n-i+1:] = gamma_{i-1} .. gamma_1 = g[1 .. i-1, i]
    pt = np.ascontiguousarray(p.T)
    s, c = pt <= tau, pt <= lam
    closure = Closure(alpha, trials=ttr, capacity=n)
    level, r, m = np.empty(ttr), np.empty(ttr), np.empty(ttr)
    for i in range(1, n + 1):
        at = closure.level(i, i - int(lags[i - 1]), gam[i - 1], rev[n - i + 1 :])
        np.less_equal(pt[i - 1], np.multiply(at, tau - lam, out=level), out=r)
        closure.absorb(i, s[i - 1], np.maximum(r, c[i - 1], out=m), r)
    return (tau - lam) * closure.at[:n].T


def levels_fdr_graph(p, e, alpha, tau, lam, w0, spec: GammaSpec) -> np.ndarray:
    """FDR graph levels; the masses U_j at_j and R_j reward_j that source j
    forwards are stored once set, so a level is two products over them.
    Levels are written into index-major rows.  The reward coefficient is a
    row over the trials: alpha - w0 until a trial's first rejection, alpha
    from it on, so R_j reward_j is R_j times the row at j."""
    ttr, n = p.shape
    gam = spec.values(n)
    w = _weight_table(spec, np.minimum(e, np.arange(n)), n)
    pt = np.ascontiguousarray(p.T)
    u = _indicator_u(pt, tau, lam)
    levels = np.empty((n, ttr))
    ua = np.empty((ttr, n))
    rr = np.empty((ttr, n))
    reward = np.full(ttr, alpha - w0)
    r = np.empty(ttr)
    for i0 in range(n):
        col = w[1 : i0 + 1, i0 + 1]
        at_hat = ua[:, :i0] @ col
        at_hat += w0 * gam[i0]
        at_hat += rr[:, :i0] @ col
        level = np.multiply(at_hat, tau - lam, out=levels[i0])
        np.minimum(level, lam, out=level)
        np.multiply(u[i0], at_hat, out=ua[:, i0])
        np.less_equal(pt[i0], level, out=r)  # R_i as 0.0 / 1.0
        np.multiply(r, reward, out=rr[:, i0])
        np.maximum(reward, r * alpha, out=reward)  # alpha from the first rejection on
    return levels.T


def levels_adaptive_corr(
    p, b, rho, alpha, lam, spec: GammaSpec, nodes: int | None = None, candidates: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Levels and frozen joint-tail values for the batch correlation procedure.

    Each batch's joint tails come from :class:`JointTail` over all trials,
    on the ``corr_nodes(rho)`` rule unless ``nodes`` is given.  A later
    level reads only the non-candidates' alpha^c of earlier batches, through
    their surplus alpha_j - alpha^c_j; a candidate's coefficient is its
    level.  So with ``candidates=False`` the candidates' alpha^c and the
    whole last batch's are not evaluated and come back NaN, and the levels
    keep their bits; by default every member's alpha^c is returned, as the
    joint-tail budget reads them.
    """
    ttr, n = p.shape
    gam = spec.values(n)
    lags = (np.arange(1, n + 1) - 1) % b
    w = _weight_table(spec, lags, n)
    keep = p > lam
    tail = JointTail(rho, ttr, nodes)

    levels = np.empty((ttr, n))
    alpha_c = np.full((ttr, n), np.nan)
    coef = np.zeros((ttr, n))
    for start in range(0, n, b):
        for i0 in range(start, start + b):
            levels[:, i0] = (1.0 - lam) * (
                alpha * gam[i0] + coef[:, :start] @ w[1 : start + 1, i0 + 1]
            )
        if start + b == n and not candidates:
            break  # no later level reads the last batch's alpha^c
        batch = slice(start, start + b)
        alpha_c[:, batch] = tail.batch(levels[:, batch], keep[:, batch], candidates)
        coef[:, batch] = np.where(
            keep[:, batch], levels[:, batch] - alpha_c[:, batch], levels[:, batch]
        ) / (1.0 - lam)
    return levels, alpha_c


def compute_levels(config: SimConfig, p: np.ndarray) -> np.ndarray:
    """Dispatch to the vectorized runner for the configured procedure.
    Only the levels are returned, so ``adaptive-graph-corr`` evaluates the
    joint tails of its non-candidates outside the last batch alone
    (``candidates=False``).
    Known fault: ``fdr-graph`` takes its conflicts from ``e`` alone, so at
    b > 1 batch-mates do not conflict (pinned by the benchmark digests)."""
    spec = config.gamma_spec
    lags = config.lags()
    a, t, l = config.alpha, config.tau, config.lam
    if config.procedure == "spending-local":
        return levels_spending_local(p, lags, a, t, l, spec)
    if config.procedure == "graph-conf":
        return levels_graph_conf(p, lags, a, t, l, spec)
    if config.procedure == "graph-conf-u":
        return levels_graph_conf_u(p, lags, a, t, l, spec)
    if config.procedure == "closed-spending":
        return levels_closed_spending(p, lags, a, t, l, spec)
    if config.procedure == "closed-graph":
        return levels_closed_graph(p, lags, a, t, l, spec)
    if config.procedure == "fdr-graph":
        e = config.e if config.e is not None else 0
        w0 = config.w0 if config.w0 is not None else a
        return levels_fdr_graph(p, e, a, t, l, w0, spec)
    if config.procedure == "adaptive-graph-corr":
        levels, _ = levels_adaptive_corr(p, config.b, config.rho, a, l, spec, candidates=False)
        return levels
    raise InvalidConfig(f"unknown procedure {config.procedure!r}")


def max_budget_spend(p, levels, tau: float, lam: float) -> np.ndarray:
    """Worst prefix of the adaptive-discarding budget, per trial: the row
    maximum of :func:`.core.budget_path`, max_i sum_{j<=i}
    alpha_j/(tau-lam) (S_j - C_j); error control requires this to stay at or
    below the overall alpha.
    """
    p = np.atleast_2d(p)
    s, c = (p <= tau).astype(np.float64), (p <= lam).astype(np.float64)
    return np.max(budget_path(np.atleast_2d(levels), tau - lam, s, c), axis=1)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsRow:
    """One CSV row of aggregated error and power estimates."""

    config: SimConfig
    fwer: float
    fwer_se: float
    pfer: float
    power: float | None
    power_se: float | None
    fdr: float
    fdr_se: float
    mfdr: float

    @staticmethod
    def _fmt(x) -> str:
        if x is None:
            return ""
        if isinstance(x, float):
            return f"{x:.10g}"
        return str(x)

    def to_csv(self) -> str:
        c = self.config
        cells = [
            c.procedure,
            c.gamma_spec.name,
            c.n,
            c.b,
            c.rho,
            c.pi_a,
            c.mu_n,
            "" if c.e is None else c.e,
            c.trials,
            self.fwer,
            self.fwer_se,
            self.pfer,
            self.power,
            self.power_se,
            self.fdr,
            self.fdr_se,
            self.mfdr,
        ]
        return ",".join(self._fmt(x) for x in cells)


def metrics(rejected, labels, config: SimConfig) -> MetricsRow:
    """Aggregate (trials, n) rejection and truth matrices into the standard
    metrics with their SEs."""
    t, n = rejected.shape
    if not t:
        raise EmptyOutcomeSet("metrics need at least one trial outcome")
    count = np.uint16 if n < 2**16 else np.int64  # a per-trial count is at most n
    r = np.sum(rejected, axis=1, dtype=count)
    tp = np.sum(rejected & labels, axis=1, dtype=count)
    v = (r - tp).astype(np.float64)
    fwer = float(np.mean(v > 0))
    fwer_se = float(np.sqrt(fwer * (1.0 - fwer) / t))
    pfer = float(np.mean(v))
    r1 = np.maximum(r, 1.0)
    fdp = v / r1
    fdr = float(np.mean(fdp))
    mfdr = float(pfer / np.mean(r1))
    n_alt = np.sum(labels, axis=1, dtype=count)
    has_alt = n_alt > 0
    # power fractions of the trials with an alternative, in trial order
    fracs = tp[has_alt] / n_alt[has_alt]
    power, power_se = (float(np.mean(fracs)), _se(fracs)) if fracs.size else (None, None)
    return MetricsRow(config, fwer, fwer_se, pfer, power, power_se, fdr, _se(fdp), mfdr)


def _se(x: np.ndarray) -> float:  # standard error of the mean
    return float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0


@dataclass
class TrialSet:
    """All trials of one grid point, kept as matrices."""

    config: SimConfig
    p: np.ndarray
    labels: np.ndarray
    levels: np.ndarray

    @property
    def rejected(self) -> np.ndarray:
        return self.p <= self.levels

    def metrics(self) -> MetricsRow:
        return metrics(self.rejected, self.labels, self.config)


def run_config(config: SimConfig, data=None) -> TrialSet:
    """Generate (or reuse) data and compute all levels for one grid point."""
    p, labels = generate_data(config) if data is None else data
    return TrialSet(config=config, p=p, labels=labels, levels=compute_levels(config, p))


# ---------------------------------------------------------------------------
# grids


def _points(lists: dict) -> list[dict]:
    """Cross product of list-valued overrides, in deterministic order: the
    values of the last key vary fastest."""
    points = [{}]
    for key, values in lists.items():
        points = [{**pt, key: v} for pt in points for v in values]
    return points


def expand_grid(base: SimConfig, **lists) -> list[SimConfig]:
    """Cross product of list-valued overrides, in deterministic order; only
    the full grid points are checked, not the partial overrides."""
    return [replace(base, **pt) for pt in _points(lists)]


_GRID_KEYS = {
    "procedure": str,
    "gamma": str,
    "n": int,
    "b": int,
    "rho": float,
    "pi_a": float,
    "mu_n": float,
    "e": int,
    "trials": int,
    "seed": int,
    "alpha": float,
    "tau": float,
    "lam": float,
    "w0": float,
}


def parse_grid_file(path) -> list[SimConfig]:
    """Flat ``key = value[, value...]`` grid file -> cross-product of configs.

    Keys mirror :class:`SimConfig`; list-valued keys expand to a grid in the
    order they appear.  The file is read by :func:`.core._input_lines`.
    """
    single: dict = {}
    multi: dict = {}
    for lineno, line in _input_lines(path, InvalidConfig):
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, rhs = line.partition("=")
        key = key.strip().replace("-", "_").lower()
        if key == "lambda":
            key = "lam"
        if key not in _GRID_KEYS:
            raise InvalidConfig(f"{path}:{lineno}: unknown key {key!r}")
        conv = _GRID_KEYS[key]
        try:
            values = [conv(v.strip()) for v in rhs.split(",") if v.strip()]
        except ValueError as exc:
            raise InvalidConfig(f"{path}:{lineno}: {exc}") from None
        if not values:
            raise InvalidConfig(f"{path}:{lineno}: no values for {key!r}")
        if key in single or key in multi:
            raise InvalidConfig(f"{path}:{lineno}: duplicate key {key!r}")
        if len(values) == 1:
            single[key] = values[0]
        else:
            multi[key] = values
    return [SimConfig(**single, **pt) for pt in _points(multi)]


def _data_key(c: SimConfig) -> tuple:
    """The settings a point's data set depends on: grid points that share
    them read the same trials, so procedures are compared on paired data."""
    return (c.n, c.b, c.rho, c.pi_a, c.mu_n, c.trials, c.seed)


def run_grid(configs, csv_path=None, threads: int = 1) -> list[MetricsRow]:
    """Run every grid point; emit one CSV row per point in input order.

    The grid runs one draw group at a time: a group is the points of one
    (seed, trials, n, b), whose data sets share one draw and differ only in
    the p-value arithmetic (``_DrawGroup``): they share one statistic per
    rho and, per (rho, mu_N) read by more than one of them, one alternative
    and one null p-value row, from which each picks its p-values by its
    labels.  A group's data sets are built when it starts, its points run
    in input order, and the data sets are dropped before the next group is
    built, so the grid holds one group's data, not all of it.  With
    ``threads > 1`` the points run on a pool and at most ``threads`` groups
    are held: the next group is built only once the oldest one's points
    have all finished.  Each point is a pure function of its config and its
    data, so no output bit depends on the order or the thread count.
    """
    configs = list(configs)
    groups: dict = {}  # (seed, trials, n, b) -> its (position, config) pairs, in input order
    for k, c in enumerate(configs):
        groups.setdefault((c.seed, c.trials, c.n, c.b), []).append((k, c))
    rows: list = [None] * len(configs)

    def build(points) -> list[tuple]:
        """(position, config, data set) of each point of one group."""
        first = {}
        for _, c in points:
            first.setdefault(_data_key(c), c)
        group = _DrawGroup(first.values())
        data = {key: generate_data(c, _draws=group) for key, c in first.items()}
        return [(k, c, data[_data_key(c)]) for k, c in points]

    def run_one(c: SimConfig, data) -> MetricsRow:
        return run_config(c, data=data).metrics()

    def run_group(points) -> None:
        # a function, so no loop variable holds a data set while the next group is built
        for k, c, data in build(points):
            rows[k] = run_one(c, data)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            live: deque = deque()  # per held group, its (position, future) pairs
            for points in groups.values():
                if len(live) == threads:
                    for k, future in live.popleft():
                        rows[k] = future.result()
                live.append([(k, pool.submit(run_one, c, data)) for k, c, data in build(points)])
            for group in live:
                for k, future in group:
                    rows[k] = future.result()
    else:
        for points in groups.values():
            run_group(points)

    if csv_path is not None:
        write_csv(rows, csv_path)
    return rows


def write_csv(rows, path_or_buffer) -> None:
    if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
        with open(path_or_buffer, "w", newline="") as fh:
            _write_csv(rows, fh)
    else:
        _write_csv(rows, path_or_buffer)


def _write_csv(rows, fh: io.TextIOBase) -> None:
    fh.write(CSV_HEADER + "\n")
    for row in rows:
        fh.write(row.to_csv() + "\n")
