"""Correlation-exploiting and FDR-controlling procedures.

Two extensions of the graphical family:

* :class:`AdaptiveGraphCorr` — for batch-dependent streams with ``tau = 1``,
  non-candidate hypotheses return the *joint-tail surplus* ``alpha_j -
  alpha_j^c`` instead of nothing, where ``alpha_j^c`` is the joint null
  probability of rejecting ``H_j`` while every earlier non-candidate in the
  batch was accepted.  For equicorrelated Gaussian batches the joint tail is
  computed exactly by one-dimensional quadrature over the common factor.

* :class:`FdrGraph` — FDR-controlling variant that adds a rejection reward
  stream on top of the recycling graph, propagating the *unclipped* levels
  and testing at ``min(alpha_hat_i, lambda_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import norm

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
    QuadratureNonConvergence,
    UnknownIndex,
)
from .gammas import GammaSpec
from .sim import gauss_legendre
from .weights import IncrementalRenormalizer, RenormalizedConflict, ShiftedGamma


def alpha_c_gaussian(
    level_j: float,
    prior_levels,
    rho: float,
    tol: float = 1e-10,
    max_nodes: int = 4096,
) -> float:
    """Joint tail P(all prior P_k > alpha_k, P_j <= alpha_j) under the
    equicorrelated Gaussian null with one-sided z-test p-values.

    Conditional on the common factor the coordinates are independent, so the
    probability is a one-dimensional integral, evaluated by Gauss-Legendre
    quadrature with doubling node counts until two successive estimates agree.
    """
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"correlation must lie in [0, 1), got {rho}")
    prior = np.asarray(list(prior_levels), dtype=np.float64)
    if prior.size == 0:
        return float(level_j)
    if rho == 0.0:
        return float(np.prod(1.0 - prior) * level_j)
    c_prior = ndtri(1.0 - prior)
    c_j = ndtri(1.0 - level_j)
    sr, s1 = np.sqrt(rho), np.sqrt(1.0 - rho)
    prev = None
    m = 64
    while m <= max_nodes:
        z, w, _ = gauss_legendre(m)
        cond_prior = ndtr((c_prior[:, None] - sr * z[None, :]) / s1)
        cond_j = 1.0 - ndtr((c_j - sr * z) / s1)
        est = float(np.sum(w * norm.pdf(z) * np.prod(cond_prior, axis=0) * cond_j))
        if prev is not None and abs(est - prev) < tol:
            return est
        prev = est
        m *= 2
    raise QuadratureNonConvergence(
        f"joint-tail quadrature did not converge to {tol} within {max_nodes} nodes"
    )


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

    Either an equicorrelated Gaussian correlation ``rho`` (analytic, exact
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
        if self.samples is not None:
            self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))

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

    def alpha_c(self, level_j: float, prior_levels, positions=None, pos_j=None):
        """Joint tail value; returns (estimate, se) with se = 0 for analytic."""
        if not list(prior_levels):
            return float(level_j), 0.0
        if self.rho is not None:
            return alpha_c_gaussian(level_j, prior_levels, self.rho), 0.0
        if self.samples is not None:
            if positions is None or pos_j is None:
                raise ModelUnavailable("sample-based model needs within-batch positions")
            draws_prior = self.samples[:, [p - 1 for p in positions]]
            draws_j = self.samples[:, pos_j - 1]
            return alpha_c_monte_carlo(level_j, prior_levels, draws_prior, draws_j)
        raise ModelUnavailable("neither a correlation nor joint null samples configured")


class AdaptiveGraphCorr:
    """Batch-stream procedure returning joint-tail surplus of non-candidates.

    alpha_i = (1 - lambda_{b_i}) (alpha gamma_i
      + sum_{j: b_j < b_i} g*[j,i] [ C_j alpha_j / (1 - lambda_{b_j})
                                    + (1 - C_j)(alpha_j - alpha_j^c) / (1 - lambda_{b_j}) ])

    Joint-tail values alpha_j^c are computed once, when batch b_j completes,
    and frozen into the ledger; a level request whose prior batches are not
    yet frozen raises ``BatchIncomplete``.
    """

    kind = "adaptive-graph-corr"

    def __init__(self, model: CorrModel, alpha: float = 0.2, gamma: GammaSpec | str = "basel"):
        self.model = model
        self.alpha = alpha
        self.gamma = GammaSpec.parse(gamma) if isinstance(gamma, str) else gamma
        self.structure = model.structure
        self.rule = RenormalizedConflict(ShiftedGamma(self.gamma), self.structure)
        self.ledger = TrajectoryLedger()
        self.alpha_c_se: dict[int, float] = {}
        self._frozen_batches = 0

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
            start = members[0]
            for j in members:
                prior = [
                    k
                    for k in members
                    if k < j and entries[k - 1].indicators.c == 0
                ]
                val, se = self.model.alpha_c(
                    entries[j - 1].level,
                    [entries[k - 1].level for k in prior],
                    positions=[k - start + 1 for k in prior],
                    pos_j=j - start + 1,
                )
                entries[j - 1].alpha_c = val
                if se:
                    self.alpha_c_se[j] = se
            self._frozen_batches += 1

    def level(self, i: int) -> float:
        if i != self.issued + 1:
            raise DomainError(f"levels must be requested in order; expected {self.issued + 1}")
        b = self._batch(i)
        self._try_freeze()
        if self._frozen_batches < b - 1:
            raise BatchIncomplete(
                f"level for batch {b} needs joint-tail values of batches "
                f"{self._frozen_batches + 1}..{b - 1}"
            )
        lam_b = self.model.lambda_for(b)
        carried = 0.0
        for j in range(1, i):
            if self._batch(j) >= b:
                continue
            w = self.rule.weight(j, i)
            if not w:
                continue
            e = self.ledger.entries[j - 1]
            if e.indicators is None:
                raise MissingIndicator(f"level {i} needs feedback for prior-batch index {j}")
            lam_j = self.model.lambda_for(self._batch(j))
            if e.indicators.c:
                carried += w * e.level / (1.0 - lam_j)
            else:
                carried += w * (e.level - e.alpha_c) / (1.0 - lam_j)
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
