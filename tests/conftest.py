"""Shared fixtures: the main simulation sweeps, computed once per session,
and two helpers: the stream driver of the engine tests and the joint null
p-value draws of the Monte Carlo tests.

The sweeps are memory-light summaries — per grid point we keep the metrics
row, the worst budget prefix, and pointwise level-comparison margins, never
the raw level arrays.
"""

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import addisgraph
from addisgraph.sim import (
    SimConfig,
    TrialSet,
    compute_levels,
    generate_data,
    max_budget_spend,
)

# pytest imports the package from src/ (pythonpath in pyproject.toml); the
# tests' subprocesses do so through PYTHONPATH
SRC = str(Path(addisgraph.__file__).resolve().parents[1])
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

FIG5_N = 100
FIG5_GAMMAS = ("basel", "power:1.6", "logq")
FIG5_BATCHES = (1, 5, 10, 20)
FIG5_PI_A = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG5_PROCEDURES = (
    "spending-local",
    "graph-conf",
    "graph-conf-u",
    "closed-spending",
    "closed-graph",
)
# The graph-conf-u vs closed-spending power ordering is read on streams that
# hold at least this many batches; see test_05_confu_power_vs_closed_spending.
ORDERING_MIN_BATCHES = 10


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


def mc_draws(rng, rho, k, n):
    """n draws of k one-sided z-test p-values under the equicorrelated
    Gaussian null, as an (n, k) array."""
    z0 = rng.standard_normal(n)
    eps = rng.standard_normal((n, k))
    # ndtr(-(sqrt(rho) z0 + sqrt(1 - rho) eps)), built in place
    eps *= np.sqrt(1 - rho)
    z0 *= np.sqrt(rho)
    eps += z0[:, None]
    return ndtr(np.negative(eps, out=eps), out=eps)


def ordering_horizon(b: int) -> int:
    """Stream length at which the conf-u vs closed-spending ordering is read."""
    return max(FIG5_N, ORDERING_MIN_BATCHES * b)


@dataclass
class SweepPoint:
    """Summary of one (b, pi_a, gamma) grid point across all procedures."""

    b: int
    pi_a: float
    gamma: str
    metrics: dict
    max_spend: dict
    # min over indices/trials of (level difference); >= -tol certifies dominance
    confu_minus_spend_min: float
    closed_minus_spend_min: float
    # b=1 only: worst relative gap between conf-u and spending levels
    b1_rel_err: float | None
    b1_decisions_equal: bool | None


@dataclass
class Fig5Sweep:
    points: list
    elapsed: float


@pytest.fixture(scope="session")
def fig5_sweep():
    """Full main-experiment grid at n=FIG5_N, 1000 trials per point."""
    import time

    started = time.perf_counter()
    points = []
    for b in FIG5_BATCHES:
        for pi_a in FIG5_PI_A:
            data_cfg = SimConfig(n=FIG5_N, b=b, pi_a=pi_a, trials=1000, seed=1)
            p, labels = generate_data(data_cfg)
            for gamma in FIG5_GAMMAS:
                levels = {}
                metrics = {}
                spends = {}
                for proc in FIG5_PROCEDURES:
                    cfg = replace(data_cfg, procedure=proc, gamma=gamma)
                    lv = compute_levels(cfg, p)
                    levels[proc] = lv
                    metrics[proc] = TrialSet(cfg, p, labels, lv).metrics()
                    spends[proc] = float(np.max(max_budget_spend(p, lv, cfg.tau, cfg.lam)))
                diff_u = levels["graph-conf-u"] - levels["spending-local"]
                diff_c = levels["closed-spending"] - levels["spending-local"]
                b1_rel = b1_dec = None
                if b == 1:
                    base = np.maximum(np.abs(levels["spending-local"]), 1e-300)
                    b1_rel = float(np.max(np.abs(diff_u) / base))
                    b1_dec = bool(
                        np.array_equal(
                            p <= levels["graph-conf-u"], p <= levels["spending-local"]
                        )
                    )
                points.append(
                    SweepPoint(
                        b=b,
                        pi_a=pi_a,
                        gamma=gamma,
                        metrics=metrics,
                        max_spend=spends,
                        confu_minus_spend_min=float(np.min(diff_u)),
                        closed_minus_spend_min=float(np.min(diff_c)),
                        b1_rel_err=b1_rel,
                        b1_decisions_equal=b1_dec,
                    )
                )
    return Fig5Sweep(points=points, elapsed=time.perf_counter() - started)


@pytest.fixture(scope="session")
def ordering_sweep():
    """graph-conf-u and closed-spending at the b > 1 main-grid points whose
    n=FIG5_N stream holds fewer than ORDERING_MIN_BATCHES batches, rerun at
    n = ordering_horizon(b) with the main grid's seed and trial count.

    Maps (b, pi_a, gamma) to {procedure: MetricsRow}; today that is the
    15 points of the b=20 row, at n=200.
    """
    points = {}
    for b in FIG5_BATCHES:
        n = ordering_horizon(b)
        if n == FIG5_N:
            continue
        for pi_a in FIG5_PI_A:
            data_cfg = SimConfig(n=n, b=b, pi_a=pi_a, trials=1000, seed=1)
            p, labels = generate_data(data_cfg)
            for gamma in FIG5_GAMMAS:
                metrics = {}
                for proc in ("graph-conf-u", "closed-spending"):
                    cfg = replace(data_cfg, procedure=proc, gamma=gamma)
                    lv = compute_levels(cfg, p)
                    metrics[proc] = TrialSet(cfg, p, labels, lv).metrics()
                points[(b, pi_a, gamma)] = metrics
    return points


@pytest.fixture(scope="session")
def corr_sweep():
    """Correlation-variant grid: b x rho x mu_N at 300 trials, n=100."""
    from addisgraph.gammas import GammaSpec
    from addisgraph.sim import levels_adaptive_corr

    spec = GammaSpec.parse("basel")
    points = []
    for b in (1, 5, 10, 20):
        for rho in (0.3, 0.5, 0.7, 0.9):
            for mu_n in (0.0, -0.5, -1.0, -2.0):
                cfg = SimConfig(
                    procedure="adaptive-graph-corr",
                    n=100,
                    b=b,
                    rho=rho,
                    mu_n=mu_n,
                    pi_a=0.5,
                    trials=300,
                    seed=2,
                )
                p, labels = generate_data(cfg)
                levels, alpha_c = levels_adaptive_corr(
                    p, b, rho, cfg.alpha, cfg.lam, spec
                )
                metrics = TrialSet(cfg, p, labels, levels).metrics()
                # joint-tail budget: sum alpha_c/(1-lam) (1-C) <= alpha, tau = 1
                c = (p <= cfg.lam).astype(float)
                spend = np.cumsum(alpha_c / (1.0 - cfg.lam) * (1.0 - c), axis=1)
                points.append(
                    {
                        "config": cfg,
                        "metrics": metrics,
                        "max_spend": float(np.max(spend)),
                        "alpha_c_max_excess": float(np.max(alpha_c - levels)),
                    }
                )
    return points


@pytest.fixture(scope="session")
def fdr_sweep():
    """FDR-variant grid: asynchrony e in {0,2,5,10} at n=1000, 200 trials."""
    points = []
    for e in (0, 2, 5, 10):
        cfg = SimConfig(
            procedure="fdr-graph",
            n=1000,
            b=1,
            e=e,
            pi_a=0.5,
            trials=200,
            seed=3,
            alpha=0.05,
            tau=0.5,
            lam=0.25,
        )
        p, labels = generate_data(cfg)
        levels = compute_levels(cfg, p)
        rejected = p <= levels
        indicator = (p <= cfg.tau).astype(float) - (p <= cfg.lam)
        spend = np.cumsum(levels / (cfg.tau - cfg.lam) * indicator, axis=1)
        allowance = cfg.alpha * np.maximum(np.cumsum(rejected, axis=1), 1.0)
        points.append(
            {
                "config": cfg,
                "metrics": TrialSet(cfg, p, labels, levels).metrics(),
                "max_excess": float(np.max(spend - allowance)),
            }
        )
    return points
