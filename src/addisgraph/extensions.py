"""Correlation-exploiting and FDR-controlling procedures.

Two extensions of the graphical family:

* :class:`AdaptiveGraphCorr` — the graph-conf engine at ``tau = 1`` on a
  batch-dependent stream, where non-candidate hypotheses return the
  *joint-tail surplus* ``alpha_j - alpha_j^c`` instead of nothing, written
  into the engine's carry row when their batch completes; ``alpha_j^c`` is
  the joint null probability of rejecting ``H_j`` while every earlier
  non-candidate in the batch was accepted.  For equicorrelated Gaussian batches the joint tail is
  a one-dimensional integral over the common factor, evaluated by
  :class:`~.weights.JointTail` on a fixed Gauss-Legendre rule whose node
  count depends on the correlation alone, the rule of the simulation runner.

* :class:`FdrGraph` — FDR-controlling variant that adds a rejection reward
  stream on top of the recycling graph, propagating the *unclipped* levels
  and testing at ``min(alpha_hat_i, lambda_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConflictStructure, Indicators, check_gap, check_level
from .engines import ENGINE_KINDS, FwerEngine, GraphConf
from .errors import (
    BatchIncomplete,
    DomainError,
    InvalidConfig,
    InvalidW0,
    MissingIndicator,
    ModelUnavailable,
)
from .gammas import GammaSpec
from .weights import IncrementalRenormalizer, JointTail, ShiftedGamma, corr_nodes


def alpha_c_gaussian(level_j: float, prior_levels, rho: float) -> float:
    """Joint tail P(all prior P_k > alpha_k, P_j <= alpha_j) under the
    equicorrelated Gaussian null with one-sided z-test p-values: the
    :class:`JointTail` of one trial over the batch ``[*prior, j]``."""
    levels = np.append(np.asarray(list(prior_levels), dtype=np.float64), level_j)
    keep = np.ones(levels.size, dtype=bool)
    return float(JointTail(rho).batch(levels[None], keep[None])[0, -1])


def alpha_c_monte_carlo(
    level_j: float, prior_levels, draws_prior: np.ndarray, draws_j: np.ndarray
) -> tuple[float, float]:
    """Monte Carlo joint tail from joint null p-value draws, with its SE: the
    check the tests hold the quadrature of :func:`alpha_c_gaussian` to."""
    prior = np.asarray(list(prior_levels), dtype=np.float64)
    draws_prior = np.atleast_2d(np.asarray(draws_prior, dtype=np.float64))
    draws_j = np.asarray(draws_j, dtype=np.float64)
    n = draws_j.size
    if n == 0:
        raise ModelUnavailable("no joint null draws supplied")
    if prior.size:
        hit = np.all(draws_prior > prior[None, :], axis=1) & (draws_j <= level_j)
    else:
        hit = draws_j <= level_j
    est = float(np.mean(hit))
    se = float(np.sqrt(est * (1.0 - est) / n))
    return est, se


@dataclass
class CorrModel:
    """Joint null model for batch-dependent streams with tau = 1.

    An equicorrelated Gaussian correlation ``rho``, whose joint tails come
    by quadrature (:class:`.weights.JointTail`), so alpha^c stays within
    [0, alpha_j] up to rounding.  ``lam`` is the candidate threshold,
    constant within each batch: one value, or a dict with one per batch.
    The structure's batches are 1, 2, ... in index order, and each index
    conflicts with its earlier batch-mates only.
    """

    structure: ConflictStructure
    lam: float | dict[int, float] = 0.16
    rho: float | None = None

    def __post_init__(self):
        batch_of = self.structure.batch_of
        if batch_of is None:
            raise InvalidConfig("correlation model needs a batch-form conflict structure")
        batches = self.structure.batches
        ref = ConflictStructure.from_batches([len(m) for m in batches])
        if (ref.batch_of, ref.conflict_sets) != (batch_of, self.structure.conflict_sets):
            raise InvalidConfig(
                "correlation model needs batches 1, 2, ... of consecutive indices, "
                "each index conflicting with exactly its earlier batch-mates"
            )
        for b in range(1, len(batches) + 1):
            if isinstance(self.lam, dict) and b not in self.lam:
                raise InvalidConfig(f"no lambda given for batch {b}")
            check_gap(1.0, self.lambda_for(b))  # tau = 1
        if self.rho is None:
            raise InvalidConfig("correlation model needs a correlation")
        corr_nodes(self.rho)  # refuses a correlation the quadrature cannot resolve

    def lambda_for(self, batch: int) -> float:
        if isinstance(self.lam, dict):
            return self.lam[batch]
        return self.lam

    def lambda_by_batch(self) -> dict[int, float]:
        batches = sorted(set(self.structure.batch_of))
        return {b: self.lambda_for(b) for b in batches}

    def batch_alpha_c(self, levels: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Joint tails of one batch's members, in order, from the members'
        levels and non-candidate flags."""
        return JointTail(self.rho).batch(levels[None], keep[None])[0]


class AdaptiveGraphCorr(GraphConf):
    """ADDIS-Graph at tau = 1 on a batch stream, where non-candidates pass on
    their joint-tail surplus.

    alpha_i = (1 - lambda_{b_i}) (alpha gamma_i
      + sum_{j: b_j < b_i} g*[j,i] [ C_j alpha_j / (1 - lambda_{b_j})
                                    + (1 - C_j)(alpha_j - alpha_j^c) / (1 - lambda_{b_j}) ])

    This is :class:`.engines.GraphConf` with tau = 1, lambda per batch from
    the model and the batch-mates before i as the conflict set of i.  At
    tau = 1, S_j = 1, so the shell's carry row U_j alpha_j / (1 - lambda_{b_j})
    is the candidate term.  When a batch completes, its joint tails
    alpha_j^c are frozen and each non-candidate's surplus term is written
    into the carry row; a level request whose earlier batches are not yet
    frozen raises ``BatchIncomplete``.  Snapshots are refused: their format
    has no place for the model.
    """

    kind = "adaptive-graph-corr"

    def __init__(self, model: CorrModel, alpha: float = 0.2, gamma: GammaSpec | str = "basel"):
        super().__init__(alpha=alpha, tau=1.0, gamma=gamma)
        self.structure = model.structure
        self.lam = model.lam  # each level passes the lambda of its batch
        self.model = model
        self._alpha_c: list[float] = []  # per index, once its batch is frozen
        self._frozen_batches = 0

    def _extra_config(self):
        raise InvalidConfig("snapshots do not support the batch correlation model")

    def _entry(self, k):
        entry = super()._entry(k)
        entry.batch = self.structure.batch_of[k]
        if k < len(self._alpha_c):
            entry.alpha_c = self._alpha_c[k]
        return entry

    def level(self, i: int) -> float:
        n = self.structure.n
        if not 1 <= i <= n:
            raise DomainError(f"index {i} lies outside the model's hypotheses 1..{n}")
        lam = self.model.lambda_for(self.structure.batch_of[i - 1])
        return super().level(i, lam=lam, conflicts=range(i - self.structure.lags[i - 1], i))

    def _compute_level(self, i, x, tau_i, lam_i):
        b = self.structure.batch_of[i - 1]
        if self._frozen_batches < b - 1:
            raise BatchIncomplete(
                f"level for batch {b} needs joint-tail values of batches "
                f"{self._frozen_batches + 1}..{b - 1}"
            )
        return super()._compute_level(i, x, tau_i, lam_i)

    def observe(self, i: int, p: float) -> tuple[Indicators, bool]:
        decision = super().observe(i, p)
        batches = self.structure.batches
        while self._frozen_batches < len(batches):
            members = batches[self._frozen_batches]
            if members[-1] > self.issued or not self._pending.isdisjoint(members):
                break
            lo, hi = members[0] - 1, members[-1]
            keep = self._c[lo:hi] == 0.0
            vals = self.model.batch_alpha_c(np.array(self._levels[lo:hi]), keep)
            for j, val, k in zip(members, vals, keep):
                self._alpha_c.append(float(val))
                if k:
                    self._carry[j - 1] = (self._levels[j - 1] - val) / (1.0 - self._lams[j - 1])
            self._frozen_batches += 1
        return decision


class FdrGraph(FwerEngine):
    """FDR-controlling graph with a rejection reward stream.

    alpha_hat_i = (tau_i - lambda_i) (W0 gamma_i
      + sum_j g*[j,i] U_j alpha_hat_j / (tau_j - lambda_j)
      + sum_j g*[j,i] R_j [alpha K_j + (alpha - W0)(1 - K_j)])

    with the conflict-renormalized shifted-gamma weights g* for both the
    recycled levels and the rejection rewards.  The issued testing level is
    min(alpha_hat_i, lambda_i); the graph propagates the unclipped
    alpha_hat.  The first rejection earns only ``alpha - W0``; all later ones
    earn the full ``alpha``.  The reward row R_j [alpha K_j + (alpha - W0)(1 -
    K_j)] over the observed rejections is kept as they arrive, beside the
    shell's carry row.
    """

    kind = "fdr-graph"

    def __init__(
        self,
        alpha: float = 0.05,
        tau: float = 0.5,
        lam: float = 0.25,
        gamma: GammaSpec | str = "basel",
        w0: float | None = None,
    ):
        super().__init__(alpha=alpha, tau=tau, lam=lam, gamma=gamma)
        w0 = alpha if w0 is None else w0
        if not 0.0 < w0 <= alpha:
            raise InvalidW0(f"starting wealth must lie in (0, alpha], got {w0}")
        self.w0 = w0
        self._renorm = IncrementalRenormalizer(ShiftedGamma(self.gamma))
        self._reward = np.zeros(64)
        self._first_rejection = 0  # earliest observed rejection; 0 before any

    def _extra_config(self):
        return {"w0": self.w0}

    def _compute_level(self, i, x, tau_i, lam_i):
        self._require_observed(i, x)
        n = i - 1
        col, cleared = self._renorm.column(i, x)
        # Every pending index lies in x (_require_observed), so no weight
        # reaches it; but a rejection observed after the first pending index
        # has an unknown K flag, and its reward must not reach i.  For a window
        # x = range(lo, i) the scan is vacuous: the first pending index is at
        # least lo, so every source it scans lies in lo..i-1, where the column
        # is zero.
        if self._pending and type(x) is not range:
            first = min(self._pending)
            r = self._r[:n]
            late = np.flatnonzero((col[first:] != 0.0) & (r[first:] == 1.0))
            if late.size:
                raise MissingIndicator(
                    f"reward at index {first + int(late[0]) + 1} needs rejections "
                    "of all earlier indices"
                )
        carried = col @ self._carry[:n]
        reward = col @ self._reward[:n]
        level = check_level((tau_i - lam_i) * (self.w0 * self.gamma.value(i) + carried + reward))
        self._renorm.pin(cleared)
        return level

    def _reserve(self, n):
        super()._reserve(n)
        if n > self._reward.size:
            reward = np.zeros(self._state.shape[1])
            reward[: self._reward.size] = self._reward
            self._reward = reward

    def _observed(self, i, ind):
        """Only the earliest observed rejection earns alpha - W0 (K = 0)."""
        if not ind.r:
            return
        first = self._first_rejection
        if first and first < i:
            self._reward[i - 1] = self.alpha
            return
        self._reward[i - 1] = self.alpha - self.w0
        if first:
            self._reward[first - 1] = self.alpha
        self._first_rejection = i

    def _testing_level(self, propagated, lam_i):
        return min(propagated, lam_i)


ENGINE_KINDS[FdrGraph.kind] = FdrGraph  # registered here: this module imports engines
