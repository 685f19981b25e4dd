"""Correlation-exploiting and FDR-controlling procedures.

Two extensions of the graphical family:

* :class:`AdaptiveGraphCorr` — for batch-dependent streams with ``tau = 1``,
  non-candidate hypotheses return the *joint-tail surplus* ``alpha_j -
  alpha_j^c`` instead of nothing, where ``alpha_j^c`` is the joint null
  probability of rejecting ``H_j`` while every earlier non-candidate in the
  batch was accepted.  For equicorrelated Gaussian batches the joint tail is
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

from .core import (
    ConflictStructure,
    Indicators,
    LedgerEntry,
    TrajectoryLedger,
    compute_indicators,
)
from .engines import FwerEngine
from .errors import (
    BatchIncomplete,
    DomainError,
    DuplicateObservation,
    InvalidConfig,
    InvalidW0,
    MissingIndicator,
    ModelUnavailable,
    UnknownIndex,
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
    """Monte Carlo joint tail from joint null p-value draws, with its SE."""
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

    Either an equicorrelated Gaussian correlation ``rho`` (analytic, by
    quadrature) or a matrix of joint null p-value draws (``samples``, one row
    per draw, one column per within-batch position; Monte Carlo with SE).
    ``lam`` is the candidate threshold, constant within each batch.
    """

    structure: ConflictStructure
    lam: float | dict[int, float] = 0.16
    rho: float | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.structure.batch_of is None:
            raise InvalidConfig("correlation model needs a batch-form conflict structure")
        if self.rho is not None:
            corr_nodes(self.rho)  # refuses a correlation the quadrature cannot resolve
        elif self.samples is None:
            raise InvalidConfig("correlation model needs a correlation or joint null samples")
        else:
            self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
            if self.samples.shape[1] < max(map(len, self.structure.batches)):
                raise InvalidConfig("joint null samples need a column per member of every batch")

    @classmethod
    def from_sample_file(cls, structure, path, lam=0.16) -> "CorrModel":
        samples = np.loadtxt(path, ndmin=2)
        return cls(structure=structure, lam=lam, samples=samples)

    def lambda_for(self, batch: int) -> float:
        if isinstance(self.lam, dict):
            return self.lam[batch]
        return self.lam

    def lambda_by_batch(self) -> dict[int, float]:
        batches = sorted(set(self.structure.batch_of))
        return {b: self.lambda_for(b) for b in batches}

    def batch_alpha_c(self, levels: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint tails of one batch's members, in order, and their SEs (zero
        for ``rho``), from the members' levels and non-candidate flags."""
        if self.rho is not None:
            return JointTail(self.rho).batch(levels[None], keep[None])[0], np.zeros(levels.size)
        val, se = levels.copy(), np.zeros(levels.size)
        for j in range(1, levels.size):
            prior = np.flatnonzero(keep[:j])
            if prior.size:
                val[j], se[j] = alpha_c_monte_carlo(
                    levels[j], levels[prior], self.samples[:, prior], self.samples[:, j]
                )
        return val, se


class AdaptiveGraphCorr:
    """Batch-stream procedure returning joint-tail surplus of non-candidates.

    alpha_i = (1 - lambda_{b_i}) (alpha gamma_i
      + sum_{j: b_j < b_i} g*[j,i] [ C_j alpha_j / (1 - lambda_{b_j})
                                    + (1 - C_j)(alpha_j - alpha_j^c) / (1 - lambda_{b_j}) ])

    Joint-tail values alpha_j^c are computed once, when batch b_j completes,
    and frozen into the ledger; a level request whose prior batches are not
    yet frozen raises ``BatchIncomplete``.  The bracketed coefficient of each
    source is stored when its batch freezes, and g* comes from the online
    renormaliser with the batch-mates before i blocked, so a level is one
    product over the stored coefficients.
    """

    kind = "adaptive-graph-corr"

    def __init__(self, model: CorrModel, alpha: float = 0.2, gamma: GammaSpec | str = "basel"):
        self.model = model
        self.alpha = alpha
        self.gamma = GammaSpec.parse(gamma) if isinstance(gamma, str) else gamma
        self.structure = model.structure
        self._batch_of = np.asarray(self.structure.batch_of)
        self._renorm = IncrementalRenormalizer(ShiftedGamma(self.gamma))
        self.ledger = TrajectoryLedger()
        self.alpha_c_se: dict[int, float] = {}
        self._frozen_batches = 0
        # the bracketed coefficient of each source over 1 - lambda, set when
        # its batch freezes; zero before, where its weights are zero too
        self._coef = np.zeros(64)

    @property
    def issued(self) -> int:
        return len(self.ledger)

    def _batch(self, i: int) -> int:
        return self.structure.batch_of[i - 1]

    def _try_freeze(self) -> None:
        assert self.structure.batches is not None
        while self._frozen_batches < len(self.structure.batches):
            members = self.structure.batches[self._frozen_batches]
            entries = self.ledger.entries
            if members[-1] > len(entries) or any(
                entries[j - 1].indicators is None for j in members
            ):
                return
            batch = [entries[j - 1] for j in members]
            levels = np.array([e.level for e in batch])
            keep = np.array([e.indicators.c == 0 for e in batch])
            vals, ses = self.model.batch_alpha_c(levels, keep)
            for j, e, val, se, k in zip(members, batch, vals, ses, keep):
                e.alpha_c = float(val)
                if se:
                    self.alpha_c_se[j] = float(se)
                self._coef[j - 1] = (e.level - val if k else e.level) / (1.0 - e.lam)
            self._frozen_batches += 1

    def level(self, i: int) -> float:
        if i != self.issued + 1:
            raise DomainError(f"levels must be requested in order; expected {self.issued + 1}")
        b = self._batch(i)
        if self._frozen_batches < b - 1:
            raise BatchIncomplete(
                f"level for batch {b} needs joint-tail values of batches "
                f"{self._frozen_batches + 1}..{b - 1}"
            )
        lam_b = self.model.lambda_for(b)
        if i > self._coef.size:
            coef = np.zeros(2 * i)
            coef[: self._coef.size] = self._coef
            self._coef = coef
        col, cleared = self._renorm.column(i, self._batch_of[: i - 1] == b)
        self._renorm.pin(cleared)
        carried = float(col @ self._coef[: i - 1])
        alpha_i = (1.0 - lam_b) * (self.alpha * self.gamma.value(i) + carried)
        self.ledger.append(
            LedgerEntry(index=i, level=alpha_i, tau=1.0, lam=lam_b, batch=b)
        )
        return alpha_i

    def observe(self, i: int, p: float) -> tuple[Indicators, bool]:
        if not 1 <= i <= self.issued:
            raise UnknownIndex(f"no level issued for index {i}")
        entry = self.ledger.entries[i - 1]
        if entry.indicators is not None:
            raise DuplicateObservation(f"p-value for index {i} already reported")
        ind = compute_indicators(p, entry.tau, entry.lam, entry.level)
        self.ledger.record(i, ind)
        self._try_freeze()
        return ind, bool(ind.r)


def rejection_memory(rejections) -> np.ndarray:
    """K flags from a rejection sequence: K_i = 1 iff some R_j = 1, j <= i-1.

    Returns K_1 .. K_{n+1} for an input of length n (K stays 1 forever after
    the first rejection).
    """
    r = np.asarray(list(rejections), dtype=np.int64)
    k = np.zeros(r.size + 1, dtype=np.int64)
    if r.size:
        k[1:] = np.minimum(np.cumsum(r), 1)
    return k


class FdrGraph(FwerEngine):
    """FDR-controlling graph with a rejection reward stream.

    alpha_hat_i = (tau_i - lambda_i) (W0 gamma_i
      + sum_j g*[j,i] U_j alpha_hat_j / (tau_j - lambda_j)
      + sum_j g*[j,i] R_j [alpha K_j + (alpha - W0)(1 - K_j)])

    with the conflict-renormalized shifted-gamma weights g* for both the
    recycled levels and the rejection rewards.  The issued testing level is
    min(alpha_hat_i, lambda_i); the graph propagates the unclipped
    alpha_hat.  The first rejection earns only ``alpha - W0``; all later ones
    earn the full ``alpha``.
    """

    kind = "fdr-graph"

    def __init__(
        self,
        alpha: float = 0.05,
        tau: float = 0.5,
        lam: float = 0.25,
        gamma: GammaSpec | str = "basel",
        structure: ConflictStructure | None = None,
        w0: float | None = None,
    ):
        super().__init__(alpha=alpha, tau=tau, lam=lam, gamma=gamma, structure=structure)
        w0 = alpha if w0 is None else w0
        if not 0.0 < w0 <= alpha:
            raise InvalidW0(f"starting wealth must lie in (0, alpha], got {w0}")
        self.w0 = w0
        self._renorm = IncrementalRenormalizer(ShiftedGamma(self.gamma))

    def _extra_config(self):
        return {"w0": self.w0}

    def _compute_level(self, i, x, tau_i, lam_i):
        self._require_observed(i, x)
        n = i - 1
        col, cleared = self._renorm.column(i, self._blocked(i, x))
        r = self._r[:n]
        if self._pending:  # every pending index conflicts with i
            first = min(self._pending)
            late = np.flatnonzero((col[first:] != 0.0) & (r[first:] == 1.0))
            if late.size:
                raise MissingIndicator(
                    f"reward at index {first + int(late[0]) + 1} needs rejections "
                    "of all earlier indices"
                )
        earlier = np.cumsum(r) - r  # K_j = 1 iff a rejection precedes j
        earn = np.where(earlier > 0.0, self.alpha, self.alpha - self.w0)
        carried = col @ (self._u[:n] * self._alpha_tilde[:n])
        reward = col @ (r * earn)
        self._renorm.pin(cleared)
        return (tau_i - lam_i) * (self.w0 * self.gamma.value(i) + carried + reward)

    def _testing_level(self, propagated, lam_i):
        return min(propagated, lam_i)

    @property
    def k_flags(self) -> np.ndarray:
        """K_1 .. K_{issued+1} from the currently observed rejections."""
        return rejection_memory(
            [e.indicators.r if e.indicators is not None else 0 for e in self.ledger.entries]
        )
