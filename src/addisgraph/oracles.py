"""Brute-force verifiers derived from the control-guarantee arguments.

These are deliberately independent of the engine implementations: they
re-derive the quantities the guarantees rest on by direct enumeration or
straight-line recursion, at small horizons, so the engines can be checked
against them numerically.

* :func:`brute_force_budget_check` — enumerates every recycling pattern
  ``U in {0,1}^n`` and evaluates the realized budget ``F_n(U)``; the
  FWER/PFER guarantee is exactly the statement ``max_U F_n(U) <= alpha``.
* :func:`closure_oracle` — evaluates the closed graphical procedure through
  the full intersection-test recursion over subsets (exponential), which the
  closed-graph engine shortcuts to a linear recursion.
* :func:`improvement_weight_oracle` — transcribes the two push recursions
  that decompose the local-spending and graph levels into per-source shifted
  proportions, and checks the dominance inequality between them.

Never import this module from engine hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HorizonTooLarge
from .gammas import GammaSpec
from .weights import ShiftedGamma, WeightRule, lemma1_row

BUDGET_CAP = 20
CLOSURE_CAP = 10
IMPROVEMENT_CAP = 200


@dataclass
class BudgetFunction:
    """Inputs of the realized-budget evaluation F_n(U).

    ``weights[j-1, i-1]`` is g[j, i].
    """

    n: int
    gamma: np.ndarray
    weights: np.ndarray
    alpha: float

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)

    def evaluate(self, u_patterns: np.ndarray) -> np.ndarray:
        """F_n(U) for each row of a (patterns, n) bit matrix.

        alpha_tilde_i = alpha gamma_i + sum_{j<i} g[j,i] U_j alpha_tilde_j,
        F_n(U) = sum_i alpha_tilde_i (1 - U_i).
        """
        u = np.atleast_2d(np.asarray(u_patterns, dtype=np.float64))
        n = self.n
        at = np.empty((u.shape[0], n))
        for i in range(n):
            at[:, i] = self.alpha * self.gamma[i]
            if i:
                at[:, i] += (u[:, :i] * at[:, :i]) @ self.weights[:i, i]
        return np.sum(at * (1.0 - u), axis=1)


def brute_force_budget_check(
    bf: BudgetFunction, tol: float = 1e-10
) -> tuple[float, np.ndarray, bool]:
    """Max of F_n over all 2^n recycling patterns, its argmax, and the verdict."""
    if bf.n > BUDGET_CAP:
        raise HorizonTooLarge(f"budget enumeration capped at n <= {BUDGET_CAP}, got {bf.n}")
    patterns = (np.arange(2**bf.n)[:, None] >> np.arange(bf.n)[None, :]) & 1
    values = bf.evaluate(patterns)
    k = int(np.argmax(values))
    return float(values[k]), patterns[k].astype(np.int64), bool(values[k] <= bf.alpha + tol)


def closure_oracle(
    n: int,
    lags,
    p_values,
    alpha: float = 0.2,
    tau: float = 0.8,
    lam: float = 0.16,
    gamma: GammaSpec | str = "basel",
    rule: WeightRule | None = None,
) -> np.ndarray:
    """Closed graphical levels via the full intersection-test recursion.

    For each subset I the intersection test rejects H_I iff some member's
    p-value falls below

      alpha_i^I = (tau - lam) (alpha gamma_i
        + sum_{j in I, j < i - L_i} g[j,i] U_j alpha_j^I / (tau - lam)
        + sum_{j not in I, j < i}  g[j,i] alpha_j^{I + {j}} / (tau - lam)),

    and the closed procedure tests H_i at alpha_i^{I_i} where I_i collects
    all previously accepted indices plus i.  Exponential in n; n <= 10.
    """
    if n > CLOSURE_CAP:
        raise HorizonTooLarge(f"closure recursion capped at n <= {CLOSURE_CAP}, got {n}")
    spec = GammaSpec.parse(gamma) if isinstance(gamma, str) else gamma
    rule = rule if rule is not None else ShiftedGamma(spec)
    lags = list(lags)
    p = np.asarray(p_values, dtype=np.float64)
    gam = spec.values(n)
    u = (p <= lam).astype(int) - (p <= tau).astype(int) + 1

    @lru_cache(maxsize=None)
    def alpha_tilde(members: frozenset, i: int) -> float:
        total = alpha * gam[i - 1]
        cutoff = i - lags[i - 1]
        for j in range(1, i):
            g = rule.weight(j, i)
            if not g:
                continue
            key = frozenset(k for k in members if k <= j)
            if j in members:
                if j < cutoff:
                    total += g * u[j - 1] * alpha_tilde(key, j)
            else:
                total += g * alpha_tilde(key | {j}, j)
        return total

    levels = np.empty(n)
    accepted: set[int] = set()
    for i in range(1, n + 1):
        members = frozenset(k for k in accepted if k < i) | {i}
        levels[i - 1] = (tau - lam) * alpha_tilde(members, i)
        if p[i - 1] > levels[i - 1]:
            accepted.add(i)
    return levels


def _push_table(spec, lags, n, u, *, spending: bool) -> np.ndarray:
    """Shared transcription of the two per-source push recursions.

    Row j tracks the proportion of the j-th seed mass delivered to each
    later position, given that position j itself recycled.  Mass landing on
    a conflicting target (and blocked inflow arriving through conflicting
    intermediates) is removed, and every position forwards its arriving
    mass along the base row of the current counter.  The graph-side variant
    (``spending=False``) forwards removed mass at full weight and retained
    mass only when the intermediate recycled (factor U); the spending-side
    variant discounts both streams by U, which is why it never exceeds the
    graph-side table.

    Two index conventions in the published pseudocode are normalized here:
    the post-inflow subtraction reads ``g-[j, i]`` (not ``g-[j, l]``), and
    the unqualified ``g+`` inside the spending-side recursion refers to the
    table being built.
    """
    lags = np.asarray(lags, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)
    t = np.empty(n, dtype=np.int64)
    t[0] = 1
    if n > 1:
        t[1:] = 1 + np.cumsum(1.0 - u[:-1]).astype(np.int64)

    g = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        if n - j > 0:
            g[j, j + 1 :] = lemma1_row(spec, int(t[j - 1]), n - j)

    table = g.copy()  # g+loc (spending) or g+ (graph)
    gminus = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            lo = i - lags[i - 1]
            if lo <= j:
                gminus[j, i] = table[j, i]
                table[j, i] = 0.0
                push = gminus[j, i] * (u[i - 1] if spending else 1.0)
            else:
                if spending:
                    inflow = float(
                        (g[lo:i, i] * u[lo - 1 : i - 1]) @ (gminus[j, lo:i] + table[j, lo:i])
                    )
                else:
                    inflow = float(
                        g[lo:i, i] @ gminus[j, lo:i]
                        + (g[lo:i, i] * u[lo - 1 : i - 1]) @ table[j, lo:i]
                    )
                gminus[j, i] = inflow
                table[j, i] -= inflow
                if spending:
                    push = (inflow + table[j, i]) * u[i - 1]
                else:
                    push = inflow + table[j, i] * u[i - 1]
            if push:
                table[j, i + 1 :] += push * g[i, i + 1 :]
    return table[1:, 1:]


def improvement_weight_oracle(
    n: int, lags, spec: GammaSpec | str, u
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both shifted-proportion tables plus the entrywise dominance verdict.

    Returns ``(g_plus_local, g_plus, dominates)`` where ``dominates`` is
    true iff ``g_plus_local <= g_plus`` entrywise (up to 1e-12).
    """
    if n > IMPROVEMENT_CAP:
        raise HorizonTooLarge(
            f"improvement-weight transcription capped at n <= {IMPROVEMENT_CAP}, got {n}"
        )
    spec = GammaSpec.parse(spec) if isinstance(spec, str) else spec
    local = _push_table(spec, lags, n, u, spending=True)
    graph = _push_table(spec, lags, n, u, spending=False)
    return local, graph, bool(np.all(local <= graph + 1e-12))
