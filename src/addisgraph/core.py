"""Domain types, indicator bookkeeping and budget-condition checkers.

Everything here is procedure-agnostic: a ledger records what actually
happened on a testing trajectory (levels, thresholds, threshold indicators)
and the checkers certify, for any realized trajectory, that the budget
inequality backing the respective error-control guarantee held at every
prefix.  Index space is 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    IncompleteLedger,
    MissingAlphaC,
    NonContiguousSuffix,
    NonMonotoneConflicts,
)

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Indicators:
    """Threshold indicators for one tested hypothesis.

    s = 1{p <= tau}, c = 1{p <= lambda}, r = 1{p <= level}, u = c - s + 1.
    """

    s: int
    c: int
    r: int

    def __post_init__(self):
        if self.c > self.s:
            raise DomainError("candidate indicator cannot exceed the non-discard indicator")

    @property
    def u(self) -> int:
        return self.c - self.s + 1


# Indicators are immutable, so each of the six possible triples is built once.
_TRIPLES = {(s, c, r): Indicators(s, c, r) for s in (0, 1) for c in range(s + 1) for r in (0, 1)}


def compute_indicators(p: float, tau: float, lam: float, alpha: float) -> Indicators:
    """Evaluate the three threshold indicators with closed intervals (ties hit)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p-value {p} outside [0, 1]")
    if not lam < tau:
        raise DomainError(f"need lambda < tau, got lambda={lam}, tau={tau}")
    return _TRIPLES[p <= tau, p <= lam, p <= alpha]


class ConflictStructure:
    """A family of monotone conflict sets with optional lag/batch/finish-time views."""

    def __init__(self, conflict_sets, finish_times=None, batch_of=None):
        self.conflict_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(s) for s in conflict_sets
        )
        self.n = len(self.conflict_sets)
        self.finish_times = tuple(finish_times) if finish_times is not None else None
        self.batch_of = tuple(batch_of) if batch_of is not None else None
        self.lags: tuple[int, ...] | None = None
        self.batches: tuple[tuple[int, ...], ...] | None = None
        if self.batch_of is not None:
            groups: dict[int, list[int]] = {}
            for idx, b in enumerate(self.batch_of, start=1):
                groups.setdefault(b, []).append(idx)
            self.batches = tuple(tuple(groups[b]) for b in sorted(groups))

    def conflict_set(self, i: int) -> frozenset[int]:
        if i <= self.n:
            return self.conflict_sets[i - 1]
        return frozenset()

    @classmethod
    def from_lags(cls, lags) -> "ConflictStructure":
        sets = []
        for idx, lag in enumerate(lags, start=1):
            if lag > idx - 1:
                raise DomainError(f"lag {lag} at index {idx} reaches before the stream start")
            sets.append(frozenset(range(idx - lag, idx)))
        return validate_conflicts(cls(sets), lag_form=True)

    @classmethod
    def from_finish_times(cls, finish_times) -> "ConflictStructure":
        e = list(finish_times)
        for idx, fin in enumerate(e, start=1):
            if fin < idx:
                raise DomainError(f"finish time {fin} at index {idx} precedes its start")
        n = len(e)
        sets = [frozenset(j for j in range(1, i) if e[j - 1] >= i) for i in range(1, n + 1)]
        return validate_conflicts(cls(sets, finish_times=e))

    @classmethod
    def from_batches(cls, batch_sizes) -> "ConflictStructure":
        batch_of = []
        for b, size in enumerate(batch_sizes, start=1):
            batch_of.extend([b] * size)
        sets = []
        start = 1
        for size in batch_sizes:
            for k in range(size):
                sets.append(frozenset(range(start, start + k)))
            start += size
        return validate_conflicts(cls(sets, batch_of=batch_of), lag_form=True)


def check_monotone_step(sets, i: int, x) -> None:
    """Raise ``NonMonotoneConflicts`` unless ``x \\ {i-1}`` is a subset of ``X_{i-1}``.

    ``sets[k-1]`` is ``X_k`` for every ``k < i`` and these sets must already
    be monotone; then a member ``j`` of ``x`` lies in every ``X_k`` with
    ``j < k < i`` iff it lies in ``X_{i-1}`` (induct down from ``i-1``).  The
    reported ``j`` is the first violating member of ``x`` and ``k`` the first
    index past ``j`` whose set lacks it, the triple a scan over every
    ``(j, k)`` pair reports.
    """
    if i < 2:
        return
    prev = sets[i - 2]
    for j in x:
        if j < i - 1 and j not in prev:
            k = j + 1
            while j in sets[k - 1]:
                k += 1
            raise NonMonotoneConflicts(j, k, i)


def validate_conflicts(structure: ConflictStructure, lag_form: bool = False) -> ConflictStructure:
    """Check monotonicity and derive lags where the sets are contiguous suffixes.

    Monotonicity: ``j in X_i`` implies ``j in X_k`` for every ``k`` strictly
    between ``j`` and ``i``.  When every set is a contiguous suffix
    ``{i-L_i, ..., i-1}`` the lag view is attached; requesting ``lag_form``
    for a non-suffix structure raises ``NonContiguousSuffix``.

    Every member of ``X_i`` must be an earlier index in ``[1, i-1]``; the
    first set holding another index raises ``DomainError`` before the
    monotonicity pass.  Monotonicity holds iff ``X_i \\ {i-1}`` is a subset
    of ``X_{i-1}`` for every ``i`` (see :func:`check_monotone_step`), which
    costs O(sum |X_i|).
    """
    sets = structure.conflict_sets
    n = structure.n
    for i in range(1, n + 1):
        bad = [j for j in sets[i - 1] if not 1 <= j < i]
        if bad:
            raise DomainError(
                f"conflict set of {i} contains index {min(bad)} outside [1, {i - 1}]"
            )
    for i in range(2, n + 1):
        check_monotone_step(sets, i, sets[i - 1])
    lags = []
    contiguous = True
    for i in range(1, n + 1):
        s = sets[i - 1]
        lag = len(s)
        if s and s != frozenset(range(i - lag, i)):
            contiguous = False
            break
        lags.append(lag)
    if contiguous:
        for i in range(n - 1):
            if lags[i + 1] > lags[i] + 1:
                # cannot happen for monotone sets, kept as a safety net
                contiguous = False
                break
    if contiguous:
        structure.lags = tuple(lags)
    elif lag_form:
        raise NonContiguousSuffix("conflict sets are not contiguous suffixes")
    return structure


@dataclass
class LedgerEntry:
    """What the ledger remembers about one tested hypothesis."""

    index: int
    level: float
    tau: float
    lam: float
    indicators: Indicators | None = None
    alpha_c: float | None = None
    batch: int | None = None

    @property
    def gap(self) -> float:
        return self.tau - self.lam

    @property
    def spend(self) -> float:
        """This entry's contribution to the adaptive-discarding budget."""
        ind = self.indicators
        return self.level / self.gap * (ind.s - ind.c)


class TrajectoryLedger:
    """Ordered record of a realized trajectory, consumed by the checkers.

    Entries must arrive with gap-free consecutive 1-based indices.  Indicators
    may be attached later (asynchronous observation) via :meth:`record`.
    """

    def __init__(self):
        self.entries: list[LedgerEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: LedgerEntry) -> None:
        expected = len(self.entries) + 1
        if entry.index != expected:
            raise DomainError(f"ledger expected index {expected}, got {entry.index}")
        self.entries.append(entry)

    def record(self, index: int, indicators: Indicators) -> None:
        self.entries[index - 1].indicators = indicators

    def _require_complete(self) -> None:
        missing = [e.index for e in self.entries if e.indicators is None]
        if missing:
            raise IncompleteLedger(f"no indicators recorded for indices {missing}")

    def budget_spent(self) -> np.ndarray:
        """Prefix sums of the adaptive-discarding budget (nondecreasing)."""
        self._require_complete()
        terms = np.array([e.spend for e in self.entries], dtype=np.float64)
        return np.cumsum(terms)

    def rejection_counts(self) -> np.ndarray:
        self._require_complete()
        terms = np.array([e.indicators.r for e in self.entries], dtype=np.float64)
        return np.cumsum(terms)


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    max_spend: float
    worst_index: int

    def __bool__(self) -> bool:
        return self.passed


def check_fwer_condition(
    ledger: TrajectoryLedger, alpha: float, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Certify the FWER budget: every prefix spend stays at or below alpha."""
    if not len(ledger):
        return ConditionReport(passed=True, max_spend=0.0, worst_index=0)
    spent = ledger.budget_spent()
    worst = int(np.argmax(spent))
    return ConditionReport(
        passed=bool(spent[worst] <= alpha + tol),
        max_spend=float(spent[worst]),
        worst_index=worst + 1,
    )


def check_fdr_condition(
    ledger: TrajectoryLedger, alpha: float, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Certify the FDR budget: prefix spend <= alpha * (rejections-so-far or 1)."""
    if not len(ledger):
        return ConditionReport(passed=True, max_spend=0.0, worst_index=0)
    spent = ledger.budget_spent()
    allowance = alpha * np.maximum(ledger.rejection_counts(), 1.0)
    slack = spent - allowance
    worst = int(np.argmax(slack))
    return ConditionReport(
        passed=bool(slack[worst] <= tol),
        max_spend=float(spent[worst]),
        worst_index=worst + 1,
    )


def check_corr_condition(
    ledger: TrajectoryLedger,
    lambda_by_batch: dict[int, float],
    alpha: float,
    tol: float = DEFAULT_TOL,
) -> ConditionReport:
    """Certify the joint-distribution budget for batch structures with tau = 1.

    Each term uses the joint-tail level annotated on the ledger instead of the
    marginal level: sum_j alpha_j^c / (1 - lambda_{b_j}) * (1 - C_j) <= alpha.
    """
    if not len(ledger):
        return ConditionReport(passed=True, max_spend=0.0, worst_index=0)
    ledger._require_complete()
    terms = []
    for e in ledger.entries:
        if e.alpha_c is None:
            raise MissingAlphaC(f"no joint-tail level recorded for index {e.index}")
        lam = lambda_by_batch[e.batch] if e.batch is not None else e.lam
        terms.append(e.alpha_c / (1.0 - lam) * (1 - e.indicators.c))
    spent = np.cumsum(np.array(terms, dtype=np.float64))
    worst = int(np.argmax(spent))
    return ConditionReport(
        passed=bool(spent[worst] <= alpha + tol),
        max_spend=float(spent[worst]),
        worst_index=worst + 1,
    )
