import copy
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import addisgraph
from addisgraph import gammas
from addisgraph.core import ConflictStructure, check_corr_condition
from addisgraph.engines import FwerEngine, GraphConf
from addisgraph.errors import (
    BatchIncomplete,
    DomainError,
    InvalidConfig,
    InvalidW0,
    MissingIndicator,
    ModelUnavailable,
)
from addisgraph.extensions import (
    AdaptiveGraphCorr,
    CorrModel,
    FdrGraph,
    alpha_c_gaussian,
    alpha_c_monte_carlo,
    rejection_memory,
)
from addisgraph.gammas import GammaSpec
from addisgraph.weights import MASS_TOL

BASEL = GammaSpec.parse("basel")
G1, G2, G3 = BASEL.value(1), BASEL.value(2), BASEL.value(3)
CORR_ENGINE_DIGEST = "8da4dcc2d0a42cf9daa0226fdf9edab44d65d640a73b6616fc953d6cddf7ab84"


def _mc_draws(rng, rho, k, n):
    z0 = rng.standard_normal(n)
    eps = rng.standard_normal((n, k))
    z = np.sqrt(rho) * z0[:, None] + np.sqrt(1 - rho) * eps
    return ndtr(-z)  # one-sided z-test p-values


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
            pvals = _mc_draws(rng, rho, k + 1, n)
            est, se = alpha_c_monte_carlo(0.05, prior, pvals[:, :k], pvals[:, k])
            quad = alpha_c_gaussian(0.05, prior, rho)
            assert abs(quad - est) <= 3 * se + 1e-12


def test_known_value_rho_half():
    assert alpha_c_gaussian(0.05, [0.05], 0.5) == pytest.approx(0.0378, abs=5e-4)


def test_monte_carlo_requires_draws():
    with pytest.raises(ModelUnavailable):
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
    with pytest.raises(InvalidConfig):
        CorrModel(structure=structure, samples=np.full((10, 2), 0.5))
    with pytest.raises(DomainError):
        CorrModel(structure=structure, rho=0.9999)
    CorrModel(structure=structure, samples=np.full((10, 3), 0.5))


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
            0.16, ConflictStructure([(), (), (1,), (2,)], batch_of=[1, 2, 1, 2]),
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
    lines.extend(f"SE {j} {se.hex()}" for j, se in sorted(e.alpha_c_se.items()))
    report = check_corr_condition(e.ledger, model.lambda_by_batch(), alpha)
    lines.append(f"R {report.passed} {report.max_spend.hex()} {report.worst_index}")
    return lines


@pytest.mark.filterwarnings("ignore:issued level:RuntimeWarning")
def test_engine_bits_are_pinned():
    """Levels, joint tails, their SEs and the certificate of the batch
    correlation engine, hashed as ``float.hex`` over fixed seeds: the rho model
    from independence to rho = 0.999, a lambda per batch, another gamma and a
    model of joint null draws, with observations out of order and refused
    levels.  The digest was recorded before the engine moved onto the shell."""
    rng = np.random.default_rng(2024)
    lines = []
    for seed in range(8):
        sizes = rng.integers(1, 6, size=5).tolist()
        structure = ConflictStructure.from_batches(sizes)
        lam_by_batch = {b: float(rng.uniform(0.02, 0.5)) for b in range(1, 6)}
        draws = _mc_draws(rng, 0.5, max(sizes), 2000)
        models = [
            (CorrModel(structure=structure, rho=rho), 0.2, "basel")
            for rho in (0.0, 0.3, 0.95, 0.999)
        ] + [
            (CorrModel(structure=structure, lam=lam_by_batch, rho=0.6), 0.3, "basel"),
            (CorrModel(structure=structure, lam=0.1, rho=0.4), 0.2, "geometric:0.6"),
            (CorrModel(structure=structure, lam=lam_by_batch, samples=draws), 0.2, "basel"),
        ]
        for k, (model, alpha, gamma) in enumerate(models):
            lines.append(f"# seed {seed} model {k}")
            lines.extend(_corr_session_lines(model, alpha, gamma, 100 * seed + k))
    text = "\n".join(lines)
    assert text.count("refused") > 20
    assert hashlib.sha256(text.encode()).hexdigest() == CORR_ENGINE_DIGEST


def test_corr_model_from_sample_file(tmp_path):
    rng = np.random.default_rng(4)
    draws = _mc_draws(rng, 0.5, 3, 200_000)
    path = tmp_path / "draws.txt"
    np.savetxt(path, draws)
    structure = ConflictStructure.from_batches([3])
    model = CorrModel.from_sample_file(structure, path, lam=0.16)
    val, se = model.batch_alpha_c(np.array([0.05, 0.05, 0.05]), np.array([True, False, True]))
    assert se[0] == 0 and val[0] == 0.05 and se[1] > 0 and se[2] > 0
    assert abs(val[1] - alpha_c_gaussian(0.05, [0.05], 0.5)) <= 4 * se[1] + 1e-3
    assert abs(val[2] - alpha_c_gaussian(0.05, [0.05], 0.5)) <= 4 * se[2] + 1e-3


# ---------------------------------------------------------------------------
# rejection memory and the FDR engine


def test_rejection_memory_examples():
    assert rejection_memory([0, 0, 1, 0]).tolist() == [0, 0, 0, 1, 1]
    assert rejection_memory([0, 0, 0]).tolist() == [0, 0, 0, 0]
    assert rejection_memory([1, 0, 0]).tolist() == [0, 1, 1, 1]


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
    assert e.k_flags[:3].tolist() == [0, 1, 1]


def test_fdr_invalid_w0():
    with pytest.raises(InvalidW0):
        FdrGraph(alpha=0.05, w0=0.06)
    with pytest.raises(InvalidW0):
        FdrGraph(alpha=0.05, w0=0.0)


def test_fdr_monotone_in_rejections():
    """Flipping an observed p-value into a rejection never lowers later levels."""
    rng = np.random.default_rng(5)
    p = rng.uniform(0.3, 1.0, size=15)

    def run(pvals):
        e = FdrGraph()
        out = []
        for i in range(1, 16):
            for j in range(1, i):
                if e.ledger.entries[j - 1].indicators is None:
                    e.observe(j, float(pvals[j - 1]))
            out.append(e.level(i))
        return np.array(out), e

    base, _ = run(p)
    boosted = p.copy()
    boosted[4] = 1e-6  # force a rejection (and candidacy) at index 5
    after, _ = run(boosted)
    assert np.all(after[5:] >= base[5:] - 1e-15)


def test_fdr_reward_accounting_bound():
    """Seed plus rewards stay within alpha per rejection on trajectories."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = rng.uniform(size=50) ** 2
        e = FdrGraph()
        for i in range(1, 51):
            for j in range(1, i):
                if e.ledger.entries[j - 1].indicators is None:
                    e.observe(j, float(p[j - 1]))
            e.level(i)
        for j in range(1, 51):
            if e.ledger.entries[j - 1].indicators is None:
                e.observe(j, float(p[j - 1]))
        r = np.array([en.indicators.r for en in e.ledger.entries])
        k = rejection_memory(r)[:50]
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
