import numpy as np
import pytest
from scipy.special import ndtr

from addisgraph.core import ConflictStructure
from addisgraph.engines import GraphConf
from addisgraph.errors import BatchIncomplete, InvalidW0, ModelUnavailable
from addisgraph.extensions import (
    AdaptiveGraphCorr,
    CorrModel,
    FdrGraph,
    alpha_c_gaussian,
    alpha_c_monte_carlo,
    rejection_memory,
)
from addisgraph.gammas import GammaSpec

BASEL = GammaSpec.parse("basel")
G1, G2, G3 = BASEL.value(1), BASEL.value(2), BASEL.value(3)


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


# ---------------------------------------------------------------------------
# Adaptive-Graph corr engine


def _corr_engine(batch_sizes, rho=0.5, lam=0.16, alpha=0.2):
    structure = ConflictStructure.from_batches(batch_sizes)
    model = CorrModel(structure=structure, lam=lam, rho=rho)
    return AdaptiveGraphCorr(model, alpha=alpha)


def test_singleton_batches_match_graph_conf_tau_one():
    rng = np.random.default_rng(2)
    p = rng.uniform(size=20)
    corr = _corr_engine([1] * 20)
    ref = GraphConf(alpha=0.2, tau=1.0, lam=0.16)
    for i in range(1, 21):
        a = corr.level(i)
        b = ref.level(i)
        assert a == pytest.approx(b, rel=1e-12)
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


def test_corr_model_from_sample_file(tmp_path):
    rng = np.random.default_rng(4)
    draws = _mc_draws(rng, 0.5, 3, 200_000)
    path = tmp_path / "draws.txt"
    np.savetxt(path, draws)
    structure = ConflictStructure.from_batches([3])
    model = CorrModel.from_sample_file(structure, path, lam=0.16)
    val, se = model.alpha_c(0.05, [0.05], positions=[1], pos_j=2)
    assert se > 0
    assert abs(val - alpha_c_gaussian(0.05, [0.05], 0.5)) <= 4 * se + 1e-3


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
