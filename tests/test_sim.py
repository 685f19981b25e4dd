import hashlib
import importlib
import io
import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from addisgraph.engines import make_engine
from addisgraph.errors import (
    DegenerateRenormalization,
    DomainError,
    EmptyOutcomeSet,
    InvalidConfig,
    InvalidSpec,
    InvalidW0,
)
from addisgraph.extensions import AdaptiveGraphCorr, CorrModel, FdrGraph
from addisgraph.core import ConflictStructure
from addisgraph.gammas import GammaSpec
from addisgraph.oracles import _push_table
from addisgraph.weights import NDTR_ONE, QUAD_SPAN, corr_nodes, gauss_legendre, renorm_table
from addisgraph.sim import (
    ALL_PROCEDURES,
    CSV_HEADER,
    SimConfig,
    TrialSet,
    compute_levels,
    expand_grid,
    generate_data,
    generate_trial,
    levels_adaptive_corr,
    levels_closed_graph,
    levels_fdr_graph,
    levels_graph_conf,
    levels_graph_conf_u,
    max_budget_spend,
    metrics,
    parse_grid_file,
    run_config,
    run_grid,
    write_csv,
)

BASEL = GammaSpec.parse("basel")


# ---------------------------------------------------------------------------
# configuration and data generation


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SimConfig(n=10, b=3)  # not divisible
    with pytest.raises(InvalidConfig):
        SimConfig(rho=1.5)
    with pytest.raises(InvalidConfig):
        SimConfig(pi_a=0.0)
    with pytest.raises(InvalidConfig):
        SimConfig(mu_n=0.5)
    with pytest.raises(InvalidConfig):
        SimConfig(e=2, b=5)  # asynchrony only with singleton batches


def _engine_for(procedure="graph-conf-u", alpha=0.2, tau=0.8, lam=0.16, w0=None, gamma="basel"):
    """The live counterpart of a grid point's procedure, thresholds and gamma."""
    if procedure == "adaptive-graph-corr":
        return AdaptiveGraphCorr(
            CorrModel(ConflictStructure.from_batches([2]), lam=lam, rho=0.5),
            alpha=alpha, gamma=gamma,
        )
    if procedure == "fdr-graph":
        return FdrGraph(alpha=alpha, tau=tau, lam=lam, w0=w0, gamma=gamma)
    return make_engine(procedure, alpha=alpha, tau=tau, lam=lam, gamma=gamma)


@pytest.mark.parametrize(
    "inputs, error",
    [
        ({"tau": 0.1, "lam": 0.16}, InvalidConfig),
        ({"lam": -0.2}, InvalidConfig),
        ({"tau": 1.5}, InvalidConfig),
        ({"alpha": 1.5}, InvalidConfig),
        ({"alpha": 0.0}, InvalidConfig),
        ({"procedure": "adaptive-graph-corr", "lam": 1.0}, InvalidConfig),
        ({"procedure": "fdr-graph", "w0": 0.5}, InvalidW0),
        ({"procedure": "fdr-graph", "w0": 0.0}, InvalidW0),
        ({"gamma": "power"}, InvalidSpec),
        ({"gamma": "power:abc"}, InvalidSpec),
        ({"gamma": "basel:7"}, InvalidSpec),
        ({"gamma": "power:nan"}, InvalidSpec),
    ],
)
def test_config_refuses_what_the_engines_refuse(tmp_path, inputs, error):
    with pytest.raises(error):
        _engine_for(**inputs)
    with pytest.raises(error):
        SimConfig(n=20, trials=20, **inputs)
    grid = tmp_path / "grid.cfg"
    grid.write_text("n = 20\ntrials = 20\n" + "".join(f"{k} = {v}\n" for k, v in inputs.items()))
    with pytest.raises(error):
        parse_grid_file(grid)


def test_config_checks_thresholds_at_the_procedure_tau(tmp_path):
    # the correlation runner tests at tau = 1, whatever tau the grid gives
    SimConfig(procedure="adaptive-graph-corr", lam=0.9)
    _engine_for(procedure="adaptive-graph-corr", lam=0.9)
    SimConfig(procedure="fdr-graph", alpha=0.05, w0=0.05)
    # only full grid points are checked: lambda 0.85 needs the listed taus
    grid = tmp_path / "grid.cfg"
    grid.write_text("lambda = 0.85\ntau = 0.9, 1.0\n")
    assert [(c.tau, c.lam) for c in parse_grid_file(grid)] == [(0.9, 0.85), (1.0, 0.85)]


def test_lag_profiles():
    assert SimConfig(n=6, b=3).lags().tolist() == [0, 1, 2, 0, 1, 2]
    assert SimConfig(n=5, b=1, e=2).lags().tolist() == [0, 1, 2, 2, 2]


def test_trial_determinism_and_substreams():
    cfg = SimConfig(n=50, b=5, trials=4, seed=9)
    p1, l1 = generate_trial(cfg, 0)
    p2, l2 = generate_trial(cfg, 0)
    np.testing.assert_array_equal(p1, p2)
    p3, _ = generate_trial(cfg, 1)
    assert not np.array_equal(p1, p3)


@pytest.mark.parametrize(
    "design",
    [
        {"n": 50, "b": 5},
        {"n": 40, "b": 1, "rho": 0.9},
        {"n": 30, "b": 30, "pi_a": 0.1, "mu_n": -1.0},
    ],
    ids=["b5", "b1", "one-batch"],
)
def test_generate_trial_is_row_of_generate_data(design):
    """The whole-matrix arithmetic of ``generate_data`` gives each row's bits."""
    cfg = SimConfig(trials=7, seed=9, **design)
    p, labels = generate_data(cfg)
    for t in range(cfg.trials):
        pt, lt = generate_trial(cfg, t)
        assert np.array_equal(pt, p[t]) and np.array_equal(lt, labels[t])


@pytest.mark.parametrize(
    "seed, trials", [(0, (0, 1, 999)), (9, (0, 7, 999)), (2**40, (0, 3, 999))]
)
def test_draws_are_those_of_a_fresh_philox_per_trial(seed, trials):
    """Row k holds the uniforms, batch factors and noise that a freshly
    built ``Generator(Philox(key=[seed, k]))`` draws, in that order, so a
    change to Philox's state layout that breaks the per-trial reset fails here."""
    cfg = SimConfig(n=40, b=5, trials=1000, seed=seed)
    p, labels = generate_data(cfg)
    for k in trials:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        u, z0 = rng.random(cfg.n), rng.standard_normal(cfg.n // cfg.b)
        eps = rng.standard_normal(cfg.n)
        want = u < cfg.pi_a
        z = np.sqrt(1.0 - cfg.rho) * eps + np.sqrt(cfg.rho) * np.repeat(z0, cfg.b)
        want_p = ndtr(-(z + np.where(want, 3.0, cfg.mu_n)))
        for got_p, got in (generate_trial(cfg, k), (p[k], labels[k])):
            assert np.array_equal(got, want)
            assert np.array_equal(got_p, want_p)


def test_data_statistics():
    cfg = SimConfig(n=100, b=1, pi_a=0.5, mu_n=-0.5, trials=400, seed=4)
    p, labels = generate_data(cfg)
    assert p.shape == (400, 100) and labels.shape == (400, 100)
    assert np.all((p > 0) & (p < 1))
    assert np.mean(labels) == pytest.approx(0.5, abs=0.02)
    # alternatives shifted by +3 reject much more often at fixed threshold
    assert np.mean(p[labels] < 0.05) > 5 * np.mean(p[~labels] < 0.05)


def test_null_pvalues_super_uniform():
    # mu_N < 0 makes null p-values stochastically larger than uniform
    cfg = SimConfig(n=200, b=1, pi_a=0.2, mu_n=-1.0, trials=200, seed=5)
    p, labels = generate_data(cfg)
    nulls = p[~labels]
    assert np.mean(nulls <= 0.1) < 0.1


# ---------------------------------------------------------------------------
# vectorized runners agree with the sequential engines


def _engine_levels(kind, cfg, prow, lags):
    if kind == "adaptive-graph-corr":
        structure = ConflictStructure.from_batches([cfg.b] * (cfg.n // cfg.b))
        model = CorrModel(structure=structure, lam=cfg.lam, rho=cfg.rho)
        eng = AdaptiveGraphCorr(model, alpha=cfg.alpha, gamma=cfg.gamma_spec)
    elif kind == "fdr-graph":
        eng = FdrGraph(alpha=cfg.alpha, tau=cfg.tau, lam=cfg.lam, w0=cfg.w0, gamma=cfg.gamma_spec)
    else:
        eng = make_engine(kind, alpha=cfg.alpha, tau=cfg.tau, lam=cfg.lam, gamma=cfg.gamma_spec)
    closed = kind.startswith("closed")
    n = cfg.n
    out = np.empty(n)
    seen = 0  # indices 1 .. seen are observed; horizons never fall under monotone lags
    for i in range(1, n + 1):
        lo = i - int(lags[i - 1])
        horizon = i if closed else lo
        while seen < horizon - 1:
            seen += 1
            eng.observe(seen, float(prow[seen - 1]))
        if kind == "adaptive-graph-corr":
            out[i - 1] = eng.level(i)
        else:
            out[i - 1] = eng.level(i, conflicts=range(lo, i))
    return out


# steep gamma, long windows: the unblocked tails fall to 0.6^39 and 0.6^35
STEEP = {"gamma": "geometric:0.6", "n": 120, "trials": 3, "seed": 5}


@pytest.mark.parametrize(
    "kind, design",
    [pytest.param(kind, {}, id=kind) for kind in sorted(ALL_PROCEDURES)]
    + [
        pytest.param("graph-conf", {**STEEP, "b": 40}, id="graph-conf-steep-b40"),
        pytest.param("adaptive-graph-corr", {**STEEP, "b": 4}, id="adaptive-graph-corr-steep-b4"),
        pytest.param("adaptive-graph-corr", {**STEEP, "b": 40}, id="adaptive-graph-corr-steep-b40"),
        pytest.param("fdr-graph", {**STEEP, "e": 35}, id="fdr-graph-steep-e35"),
    ],
)
def test_runner_matches_engine(kind, design):
    b = 1 if kind == "fdr-graph" else 4
    cfg = SimConfig(
        procedure=kind,
        n=24,
        b=b,
        e=3 if kind == "fdr-graph" else None,
        trials=3,
        seed=6,
        alpha=0.05 if kind == "fdr-graph" else 0.2,
        tau=0.5 if kind == "fdr-graph" else 0.8,
        lam=0.25 if kind == "fdr-graph" else 0.16,
    )
    cfg = replace(cfg, **design)
    p, _ = generate_data(cfg)
    vec = compute_levels(cfg, p)
    lags = cfg.lags()
    for t in range(cfg.trials):
        seq = _engine_levels(kind, cfg, p[t], lags)
        np.testing.assert_allclose(vec[t], seq, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ["closed-spending", "closed-graph"])
def test_closed_engines_match_runner_past_kernel_capacity(kind):
    """n = 150 grows the closure rows twice (64 -> 128 -> 256) in the engine;
    closed-spending levels are the runner's bits, closed-graph's agree to 1e-12."""
    cfg = SimConfig(procedure=kind, n=150, b=5, trials=3, seed=6)
    p, _ = generate_data(cfg)
    vec = compute_levels(cfg, p)
    for t in range(cfg.trials):
        seq = _engine_levels(kind, cfg, p[t], cfg.lags())
        if kind == "closed-spending":
            np.testing.assert_array_equal(seq, vec[t])
        else:
            np.testing.assert_allclose(vec[t], seq, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "design",
    [{"n": 200, "b": 20}, {"n": 200, "e": 5}, {"n": 2000, "b": 20}],
    ids=["b20", "e5", "n2000-b20"],
)
def test_confu_runner_matches_engine_at_scale(design):
    """Long streams and wide windows, at the 1e-12 cross-check bound."""
    cfg = SimConfig(procedure="graph-conf-u", trials=1, seed=6, **design)
    p, _ = generate_data(cfg)
    vec = compute_levels(cfg, p)
    seq = _engine_levels("graph-conf-u", cfg, p[0], cfg.lags())
    np.testing.assert_allclose(vec[0], seq, rtol=1e-12, atol=0)


def _assert_confu_engine_is_runner(cfg, p, lags):
    vec = levels_graph_conf_u(p, lags, cfg.alpha, cfg.tau, cfg.lam, cfg.gamma_spec)
    for t in range(p.shape[0]):
        np.testing.assert_array_equal(_engine_levels("graph-conf-u", cfg, p[t], lags), vec[t])


@pytest.mark.parametrize(
    "design",
    [{"n": 200, "b": 20}, {"n": 200, "e": 5}, {"n": 2000, "b": 20}],
    ids=["b20", "e5", "n2000-b20"],
)
def test_confu_engine_levels_are_runner_bits(design):
    """Engine and runner drive one held-mass kernel, so at the runner's
    tau/lambda the live levels equal the runner row bit for bit."""
    cfg = SimConfig(procedure="graph-conf-u", trials=1, seed=6, **design)
    p, _ = generate_data(cfg)
    _assert_confu_engine_is_runner(cfg, p, cfg.lags())


@given(
    raw=st.lists(st.integers(0, 8), min_size=1, max_size=60),
    gamma=st.sampled_from(["basel", "power:1.6", "logq"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_confu_engine_levels_are_runner_bits_on_drawn_lags(raw, gamma, seed):
    lags = [0] * len(raw)
    for i in range(1, len(raw)):  # monotone contiguous lags: L_{i+1} <= L_i + 1
        lags[i] = min(raw[i], lags[i - 1] + 1)
    cfg = SimConfig(procedure="graph-conf-u", gamma=gamma, n=len(raw))
    p = np.random.default_rng(seed).uniform(size=(3, len(raw)))
    _assert_confu_engine_is_runner(cfg, p, np.array(lags))


def test_fdr_runner_matches_engine_on_degenerate_rows():
    """tail_sum(e) <= 1e-12: the runner zeroes the row, as the engine does."""
    cfg = SimConfig(
        procedure="fdr-graph", gamma="geometric:0.6", n=100, e=60, trials=3, seed=4,
        alpha=0.05, tau=0.5, lam=0.25,
    )
    p, _ = generate_data(cfg)
    vec = compute_levels(cfg, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateRenormalization)
        for t in range(cfg.trials):
            seq = _engine_levels("fdr-graph", cfg, p[t], cfg.lags())
            np.testing.assert_allclose(vec[t], seq, rtol=1e-12, atol=1e-15)


def _indicators(p, tau, lam):
    s = (p <= tau).astype(np.float64)
    c = (p <= lam).astype(np.float64)
    return s, c, c - s + 1.0


def _graph_conf_per_level(p, lags, alpha, tau, lam, spec):
    """The graph-conf runner forming the (T, i) product at every level."""
    ttr, n = p.shape
    gam = spec.values(n)
    w = renorm_table(spec, lags, n)
    _, _, u = _indicators(p, tau, lam)
    at = np.zeros((ttr, n))
    for i0 in range(n):
        at[:, i0] = alpha * gam[i0]
        if i0:
            at[:, i0] += (u[:, :i0] * at[:, :i0]) @ w[1 : i0 + 1, i0 + 1]
    return (tau - lam) * at


def _fdr_graph_per_level(p, e, alpha, tau, lam, w0, spec):
    """The fdr-graph runner forming both (T, i) products at every level."""
    ttr, n = p.shape
    gam = spec.values(n)
    w = renorm_table(spec, np.minimum(e, np.arange(n)), n)
    _, _, u = _indicators(p, tau, lam)
    at_hat, levels = np.zeros((ttr, n)), np.empty((ttr, n))
    reward, r = np.empty((ttr, n)), np.empty((ttr, n))
    k_flag = np.zeros(ttr)
    for i0 in range(n):
        at_hat[:, i0] = w0 * gam[i0]
        if i0:
            at_hat[:, i0] += (u[:, :i0] * at_hat[:, :i0]) @ w[1 : i0 + 1, i0 + 1]
            at_hat[:, i0] += (r[:, :i0] * reward[:, :i0]) @ w[1 : i0 + 1, i0 + 1]
        levels[:, i0] = np.minimum((tau - lam) * at_hat[:, i0], lam)
        r[:, i0] = p[:, i0] <= levels[:, i0]
        reward[:, i0] = alpha * k_flag + (alpha - w0) * (1.0 - k_flag)
        k_flag = np.maximum(k_flag, r[:, i0])
    return levels


def _closed_graph_per_level(p, lags, alpha, tau, lam, spec):
    """The closed-graph runner concatenating its coefficients at every level."""
    ttr, n = p.shape
    gam = spec.values(n)
    rev = gam[::-1].copy()
    s, c, _ = _indicators(p, tau, lam)
    at, r, up = np.zeros((ttr, n)), np.zeros((ttr, n)), np.zeros((ttr, n))
    for i in range(1, n + 1):
        lo = i - int(lags[i - 1])
        coef = np.concatenate([up[:, : lo - 1], r[:, lo - 1 : i - 1]], axis=1)
        at[:, i - 1] = alpha * gam[i - 1] + (coef * at[:, : i - 1]) @ rev[n - i + 1 :]
        r[:, i - 1] = p[:, i - 1] <= (tau - lam) * at[:, i - 1]
        up[:, i - 1] = np.maximum(r[:, i - 1], c[:, i - 1]) - s[:, i - 1] + 1.0
    return (tau - lam) * at


@given(
    raw=st.lists(st.integers(0, 8), min_size=1, max_size=40),
    trials=st.integers(1, 6),
    gamma=st.sampled_from(["basel", "power:1.6", "logq", "geometric:0.97"]),
    power=st.sampled_from([1.0, 4.0]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_stored_mass_runners_are_bit_identical_to_per_level_products(
    raw, trials, gamma, power, seed
):
    """Storing each settled source's mass leaves the operands of every level's
    product unchanged, so the levels equal the per-level form bit for bit.
    ``power`` 4 skews p-values small, so that rejections are common."""
    lags = [0] * len(raw)
    for i in range(1, len(raw)):  # monotone contiguous lags: L_{i+1} <= L_i + 1
        lags[i] = min(raw[i], lags[i - 1] + 1)
    lags = np.array(lags)
    spec = GammaSpec.parse(gamma)
    p = np.random.default_rng(seed).uniform(size=(trials, len(raw))) ** power
    alpha, tau, lam = 0.2, 0.8, 0.16
    for runner, reference in (
        (levels_graph_conf, _graph_conf_per_level),
        (levels_closed_graph, _closed_graph_per_level),
    ):
        got = runner(p, lags, alpha, tau, lam, spec)
        assert np.array_equal(got, reference(p, lags, alpha, tau, lam, spec))
    alpha, tau, lam = 0.05, 0.5, 0.25
    for e in (0, 3):
        for w0 in (alpha, alpha / 2):
            got = levels_fdr_graph(p, e, alpha, tau, lam, w0, spec)
            assert np.array_equal(got, _fdr_graph_per_level(p, e, alpha, tau, lam, w0, spec))


def _confu_levels_from_table(p_row, lags, alpha, tau, lam, spec):
    """graph-conf-u levels of one trial from the oracle's graph-side table of
    seed-mass proportions: at_i = alpha gamma_i + sum_j U_j alpha gamma_j g+[j, i]."""
    n = p_row.size
    u = (p_row <= lam).astype(int) - (p_row <= tau).astype(int) + 1
    table = _push_table(spec, lags, n, u, spending=False)
    seed = alpha * spec.values(n)
    return (tau - lam) * (seed + (u * seed) @ table)


@given(
    raw=st.lists(st.integers(0, 8), min_size=1, max_size=40),
    gamma=st.sampled_from(["basel", "power:1.6", "logq"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_confu_runner_matches_reroute_table(raw, gamma, seed):
    lags = [0] * len(raw)
    for i in range(1, len(raw)):  # monotone contiguous lags: L_{i+1} <= L_i + 1
        lags[i] = min(raw[i], lags[i - 1] + 1)
    spec = GammaSpec.parse(gamma)
    p = np.random.default_rng(seed).uniform(size=(3, len(raw)))
    alpha, tau, lam = 0.2, 0.8, 0.16
    got = levels_graph_conf_u(p, np.array(lags), alpha, tau, lam, spec)
    for t in range(p.shape[0]):
        ref = _confu_levels_from_table(p[t], lags, alpha, tau, lam, spec)
        np.testing.assert_allclose(got[t], ref, rtol=1e-12, atol=0)


def test_confu_runner_memory_is_linear_in_n():
    """No (T, n, n) reroute tensor: 1000 x 200 x 200 doubles alone are 320 MB."""
    cfg = SimConfig(procedure="graph-conf-u", n=200, b=20, trials=1000, seed=2)
    p, _ = generate_data(cfg)
    tracemalloc.start()
    try:
        compute_levels(cfg, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("rho", [0.7, 0.99, 0.995, 0.999])
def test_adaptive_corr_quadrature_is_converged(rho):
    """The correlation's node rule agrees with the finest rule it may pick,
    4096 nodes, where the conditional tails are steepest."""
    cfg = SimConfig(procedure="adaptive-graph-corr", n=20, b=5, rho=rho, trials=2, seed=7)
    p, _ = generate_data(cfg)
    fixed, _ = levels_adaptive_corr(p, cfg.b, cfg.rho, cfg.alpha, cfg.lam, BASEL)
    finer, _ = levels_adaptive_corr(p, cfg.b, cfg.rho, cfg.alpha, cfg.lam, BASEL, nodes=4096)
    np.testing.assert_allclose(fixed, finer, rtol=1e-10)


def test_adaptive_corr_refuses_unresolvable_correlation(tmp_path):
    """A rho past the joint tail's node cap fails when the grid point is
    built, so a grid refuses it before any point's work; the runner refuses
    it on its own too."""
    design = dict(n=10, b=5, rho=0.9999, trials=2, seed=7)
    with pytest.raises(DomainError):
        SimConfig(procedure="adaptive-graph-corr", **design)
    grid = tmp_path / "grid.txt"
    grid.write_text("procedure = graph-conf, adaptive-graph-corr\nn = 10\nb = 5\nrho = 0.9999\n")
    with pytest.raises(DomainError):
        parse_grid_file(grid)
    p, _ = generate_data(SimConfig(**design))  # the data design itself is fine
    with pytest.raises(DomainError):
        levels_adaptive_corr(p, 5, 0.9999, 0.2, 0.16, BASEL)


def _adaptive_corr_dense(p, b, rho, alpha, lam, spec, nodes):
    """The correlation runner with the quadrature over every (trial, member, node)."""
    ttr, n = p.shape
    gam = spec.values(n)
    w = renorm_table(spec, (np.arange(1, n + 1) - 1) % b, n)
    c_ind = (p <= lam).astype(np.float64)
    x, wq = leggauss(nodes)
    z = QUAD_SPAN * x
    wq = QUAD_SPAN * wq * np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    sr, s1 = np.sqrt(rho), np.sqrt(1.0 - rho)
    levels, alpha_c, coef = np.empty((ttr, n)), np.empty((ttr, n)), np.zeros((ttr, n))
    for start in range(0, n, b):
        for i0 in range(start, start + b):
            levels[:, i0] = (1.0 - lam) * (
                alpha * gam[i0] + coef[:, :start] @ w[1 : start + 1, i0 + 1]
            )
        crit = ndtri(1.0 - levels[:, start : start + b])
        cond = ndtr((crit[:, :, None] - sr * z[None, None, :]) / s1)
        prefix, n_prior = np.ones((ttr, nodes)), np.zeros(ttr)
        for j0 in range(b):
            i0 = start + j0
            est = (prefix * (1.0 - cond[:, j0, :])) @ wq
            alpha_c[:, i0] = np.where(n_prior == 0, levels[:, i0], est)
            keep = c_ind[:, i0] == 0.0
            prefix *= np.where(keep[:, None], cond[:, j0, :], 1.0)
            n_prior += keep
            coef[:, i0] = np.where(
                c_ind[:, i0] == 1.0, levels[:, i0], levels[:, i0] - alpha_c[:, i0]
            ) / (1.0 - lam)
    return levels, alpha_c


@st.composite
def _corr_case(draw):
    b_kind = draw(st.sampled_from(["1", "2", "n"]))
    n = 2 * draw(st.integers(1, 20)) if b_kind == "2" else draw(st.integers(1, 40))
    b = {"1": 1, "2": 2, "n": n}[b_kind]
    return n, b


@given(
    case=_corr_case(),
    trials=st.integers(1, 6),
    rho=st.floats(0.05, 0.95),
    nodes=st.sampled_from([64, 512]),
    p_kind=st.sampled_from(["uniform", "all-candidates", "no-candidates"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_adaptive_corr_runner_is_bit_identical_to_dense(case, trials, rho, nodes, p_kind, seed):
    """Skipping the quadrature values that are never read changes no bit."""
    n, b = case
    alpha, lam = 0.2, 0.16
    u = np.random.default_rng(seed).uniform(size=(trials, n))
    p = {
        "uniform": u,
        "all-candidates": lam * u,
        "no-candidates": lam + (1.0 - lam) * (1.0 - u),
    }[p_kind]
    levels, alpha_c = levels_adaptive_corr(p, b, rho, alpha, lam, BASEL, nodes=nodes)
    ref_levels, ref_alpha_c = _adaptive_corr_dense(p, b, rho, alpha, lam, BASEL, nodes)
    assert np.array_equal(levels, ref_levels)
    assert np.array_equal(alpha_c, ref_alpha_c)


_CORR_EDGES = {
    # name: (n, b, trials, rho, alpha, gamma, p_kind, seed)
    "rho-0.995-long-saturated-prefix": (20, 5, 40, 0.995, 0.2, "basel", "uniform", 1),
    "crit-inf-every-node-saturated": (10, 10, 30, 0.5, 0.2, "geometric:0.01", "uniform", 2),
    "low-rho-large-levels-no-prefix": (20, 5, 40, 0.05, 0.9, "basel", "no-candidates", 3),
    "one-trial": (20, 5, 1, 0.5, 0.2, "basel", "uniform", 4),
    "first-batch-shared-levels": (12, 12, 200, 0.7, 0.2, "basel", "uniform", 5),
}


@pytest.mark.parametrize("name", sorted(_CORR_EDGES))
def test_adaptive_corr_runner_edge_cases_are_bit_identical_to_dense(name):
    """The saturated-prefix slice and the one-row-per-critical-value gather
    change no bit at the ends of their ranges: a prefix of most nodes (1024
    of them), of every node, of none; one trial; every trial at one level."""
    n, b, trials, rho, alpha, gamma, p_kind, seed = _CORR_EDGES[name]
    lam, spec = 0.16, GammaSpec.parse(gamma)
    u = np.random.default_rng(seed).uniform(size=(trials, n))
    p = {"uniform": u, "no-candidates": lam + (1.0 - lam) * (1.0 - u)}[p_kind]
    levels, alpha_c = levels_adaptive_corr(p, b, rho, alpha, lam, spec)
    ref_levels, ref_alpha_c = _adaptive_corr_dense(p, b, rho, alpha, lam, spec, corr_nodes(rho))
    assert np.array_equal(levels, ref_levels)
    assert np.array_equal(alpha_c, ref_alpha_c)
    # each case reaches the end it is named for
    z, _ = gauss_legendre(corr_nodes(rho))
    crit = ndtri(1.0 - levels)
    first = (crit - np.sqrt(rho) * z[0]) / np.sqrt(1.0 - rho)  # each row's largest argument
    if name == "rho-0.995-long-saturated-prefix":
        assert corr_nodes(rho) == 1024 and np.mean(first >= NDTR_ONE) > 0.5
    elif name == "crit-inf-every-node-saturated":
        assert np.isposinf(crit[:, -1]).all() and np.isfinite(crit[:, 0]).all()
    elif name == "low-rho-large-levels-no-prefix":
        assert np.all(first < NDTR_ONE)
    elif name == "first-batch-shared-levels":
        assert np.all(levels == levels[0]) and np.unique(p <= lam, axis=0).shape[0] > 1


def test_quadrature_rule_is_cached_and_read_only():
    rule = gauss_legendre(64)
    assert gauss_legendre(64) is rule
    for a in rule:
        assert a.shape == (64,) and not a.flags.writeable


def test_adaptive_corr_runner_memory_has_no_member_axis():
    """No (T, b, nodes) quadrature array: 1000 x 20 x 512 doubles alone are 82 MB."""
    cfg = SimConfig(procedure="adaptive-graph-corr", n=200, b=20, trials=1000, seed=2)
    p, _ = generate_data(cfg)
    tracemalloc.start()
    try:
        compute_levels(cfg, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


# ---------------------------------------------------------------------------
# metrics


def test_metrics_empty_outcomes():
    cfg = SimConfig(trials=1)
    empty = np.zeros((0, cfg.n), dtype=bool)
    with pytest.raises(EmptyOutcomeSet):
        metrics(empty, empty, cfg)


def test_metrics_by_hand():
    cfg = SimConfig(n=4, trials=2, seed=1)
    labels = np.array([[True, False, True, False], [False, False, True, True]])
    p = np.array([[0.01, 0.02, 0.5, 0.9], [0.03, 0.9, 0.01, 0.9]])
    levels = np.full((2, 4), 0.05)
    ts = TrialSet(config=cfg, p=p, labels=labels, levels=levels)
    row = ts.metrics()
    # trial 1: rejects {1,2}, V=1; trial 2: rejects {1,3}, V=1
    assert row.fwer == 1.0
    assert row.pfer == 1.0
    assert row.power == pytest.approx((0.5 + 0.5) / 2)
    assert row.fdr == pytest.approx(0.5)
    assert row.mfdr == pytest.approx(1.0 / 2.0)


def test_power_excludes_trials_without_alternatives():
    cfg = SimConfig(n=2, trials=2, seed=1)
    labels = np.array([[False, False], [True, False]])
    p = np.array([[0.9, 0.9], [0.01, 0.9]])
    levels = np.full((2, 2), 0.05)
    row = TrialSet(config=cfg, p=p, labels=labels, levels=levels).metrics()
    assert row.power == 1.0
    assert row.power_trials == 1


def test_metrics_match_per_trial_loop():
    """The matrix reductions against per-trial counts: every field equal."""
    rng = np.random.default_rng(13)
    cfg = SimConfig(n=30, trials=40, seed=1)
    labels = rng.random((40, 30)) < rng.uniform(0.0, 0.3, size=(40, 1))
    labels[:5] = False  # trials without alternatives add no power fraction
    rejected = rng.random((40, 30)) < 0.2
    v = np.array([np.sum(rejected[t] & ~labels[t]) for t in range(40)], dtype=np.float64)
    r = np.array([np.sum(rejected[t]) for t in range(40)], dtype=np.float64)
    fdp = v / np.maximum(r, 1.0)
    fracs = [float(np.sum(rejected[t] & labels[t]) / np.sum(labels[t]))
             for t in range(40) if labels[t].any()]
    row = metrics(rejected, labels, cfg)
    fwer = float(np.mean(v > 0))
    assert (row.fwer, row.fwer_se) == (fwer, float(np.sqrt(fwer * (1.0 - fwer) / 40)))
    assert (row.pfer, row.fdr) == (float(np.mean(v)), float(np.mean(fdp)))
    assert row.fdr_se == float(np.std(fdp, ddof=1) / np.sqrt(40))
    assert row.mfdr == float(np.mean(v) / np.mean(np.maximum(r, 1.0)))
    assert row.power == float(np.mean(fracs))
    assert row.power_se == float(np.std(fracs, ddof=1) / np.sqrt(len(fracs)))
    assert row.power_trials == len(fracs) < 40


def test_max_budget_spend_matches_direct_sum():
    rng = np.random.default_rng(8)
    p = rng.uniform(size=(3, 20))
    levels = rng.uniform(0, 0.01, size=(3, 20))
    got = max_budget_spend(p, levels, 0.8, 0.16)
    for t in range(3):
        direct = max(
            sum(
                levels[t, j] / 0.64 * (int(p[t, j] <= 0.8) - int(p[t, j] <= 0.16))
                for j in range(i + 1)
            )
            for i in range(20)
        )
        assert got[t] == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# grids and CSV


def test_expand_grid_order():
    base = SimConfig()
    configs = expand_grid(base, b=[1, 5], pi_a=[0.1, 0.9])
    assert [(c.b, c.pi_a) for c in configs] == [(1, 0.1), (1, 0.9), (5, 0.1), (5, 0.9)]


def test_parse_grid_file(tmp_path):
    cfg_file = tmp_path / "grid.cfg"
    cfg_file.write_text(
        "# comment\nprocedure = graph-conf-u\nn = 20\nb = 1, 5\nlambda = 0.16\ntrials = 3\n"
    )
    configs = parse_grid_file(cfg_file)
    assert len(configs) == 2
    assert configs[0].lam == 0.16
    assert {c.b for c in configs} == {1, 5}


def test_parse_grid_file_reports_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("n = 20\nwhat = 3\n")
    with pytest.raises(InvalidConfig, match="2"):
        parse_grid_file(cfg_file)


def test_run_grid_deterministic_and_paired(tmp_path):
    base = SimConfig(n=20, trials=20, seed=11)
    configs = expand_grid(base, procedure=["spending-local", "graph-conf-u"], b=[1])
    rows1 = run_grid(configs, threads=1)
    rows2 = run_grid(configs, threads=3)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(rows1, buf1)
    write_csv(rows2, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    assert buf1.getvalue().splitlines()[0] == CSV_HEADER
    # b=1: the two procedures coincide on paired data
    assert rows1[0].fwer == rows1[1].fwer and rows1[0].power == rows1[1].power


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _sweep_csv_digest(workload, tmp_path, monkeypatch):
    """sha256 of the CSV the benchmark's ``workload`` grid writes at seed 0,
    and the one the benchmark recorded; perfbench files are read, never written."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    grid = tmp_path / "grid.cfg"
    grid.write_text(workloads.grid_text(workload, 0))
    csv_path = tmp_path / "sweep.csv"
    run_grid(parse_grid_file(grid), csv_path=csv_path)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload]["0"]
    return hashlib.sha256(csv_path.read_bytes()).hexdigest(), recorded


def test_sweep_many_csv_matches_recorded_digest(tmp_path, monkeypatch):
    digest, recorded = _sweep_csv_digest("sweep-many", tmp_path, monkeypatch)
    assert digest == recorded


def test_sweep_reroute_csv_matches_recorded_digest(tmp_path, monkeypatch):
    """The grid of the two reroute-class runners, ``adaptive-graph-corr``'s
    joint-tail kernel among them."""
    digest, recorded = _sweep_csv_digest("sweep-reroute", tmp_path, monkeypatch)
    assert digest == recorded


def test_run_config_roundtrip():
    cfg = SimConfig(n=10, trials=5, seed=12)
    ts = run_config(cfg)
    assert ts.levels.shape == (5, 10)
    assert ts.rejected.shape == (5, 10)
