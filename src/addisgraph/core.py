"""Domain types, indicator bookkeeping and budget-condition checkers.

Everything here is procedure-agnostic: a ledger records what actually
happened on a testing trajectory (levels, thresholds, threshold indicators)
and the checkers certify, for any realized trajectory, that the budget
inequality backing the respective error-control guarantee held at every
prefix.  A ledger hands the checkers float64 rows through ``rows()``, and
every budget path, theirs and the simulation runner's, is one call of
:func:`budget_path`.  Index space is 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IncompleteLedger,
    InvalidConfig,
    MissingAlphaC,
    NonMonotoneConflicts,
)

DEFAULT_TOL = 1e-10
MIN_GAP = 1e-6


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


def check_gap(tau: float, lam: float) -> None:
    """Raise ``InvalidConfig`` unless ``0 < tau <= 1`` and ``0 <= lam < tau``
    with ``tau - lam >= MIN_GAP``: the thresholds every budget divides by."""
    if not 0.0 < tau <= 1.0:
        raise InvalidConfig(f"tau must lie in (0,1], got {tau}")
    if not 0.0 <= lam < tau or tau - lam < MIN_GAP:
        raise InvalidConfig(f"need lambda in [0, tau) with gap >= {MIN_GAP}")


def check_level(level) -> float:
    """``level`` as a plain float, or ``DomainError`` unless it is finite and
    at least 0: an engine checks a level before it stores anything of it."""
    level = float(level)
    if not 0.0 <= level < math.inf:
        raise DomainError(f"computed level {level!r} is not finite and >= 0; none was issued")
    return level


def _input_lines(path, error: type[Exception], header: str | None = None):
    """``(line number, text)`` of each line of the input file at ``path``
    that is more than a ``#`` comment, comment and blanks stripped.  A byte
    that is not UTF-8, or a line 1 other than ``header`` when one is given,
    raises ``error`` naming ``path:line``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        # an empty file reads as one blank line, so a missing header is refused
        for lineno, raw in enumerate(fh.readlines() or [""], start=1):
            try:
                raw.encode("utf-8")  # an undecodable byte was read as a lone surrogate
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not UTF-8") from None
            if lineno == 1 and header is not None and raw.strip() != header:
                raise error(f"{path}:1: expected the header {header!r}, got {raw.strip()!r}")
            if line := raw.split("#", 1)[0].strip():
                yield lineno, line


def compute_indicators(p: float, tau: float, lam: float, alpha: float) -> Indicators:
    """Evaluate the three threshold indicators with closed intervals (ties hit)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p-value {p} outside [0, 1]")
    if not lam < tau:
        raise DomainError(f"need lambda < tau, got lambda={lam}, tau={tau}")
    return _TRIPLES[p <= tau, p <= lam, p <= alpha]


class ConflictStructure:
    """A monotone family of conflict sets, checked when built, with a lag
    view and an optional batch view.

    Every member of ``X_i`` must be an earlier index in ``[1, i-1]``; the
    first set holding another index raises ``DomainError`` before the
    monotonicity pass.  That pass declares the sets in order through
    :func:`declare_conflicts`, the check an engine runs on each level
    request, in O(sum |X_i|).  ``lags`` holds ``|X_i|`` per index when every
    set is a contiguous suffix ``{i-L_i, ..., i-1}``, else None.
    """

    def __init__(self, conflict_sets, batch_of=None):
        self.conflict_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(s) for s in conflict_sets
        )
        self.n = len(self.conflict_sets)
        for i, x in enumerate(self.conflict_sets, start=1):
            bad = [j for j in x if not 1 <= j < i]
            if bad:
                raise DomainError(
                    f"conflict set of {i} contains index {min(bad)} outside [1, {i - 1}]"
                )
        held: list[range | frozenset[int]] = []
        for i, x in enumerate(self.conflict_sets, start=1):
            held.append(declare_conflicts(held, i, x))
        self.lags: tuple[int, ...] | None = None
        if all(type(x) is range for x in held):
            self.lags = tuple(len(x) for x in held)
        self.batch_of = tuple(batch_of) if batch_of is not None else None
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
        return cls(sets)

    @classmethod
    def from_finish_times(cls, finish_times) -> "ConflictStructure":
        e = list(finish_times)
        for idx, fin in enumerate(e, start=1):
            if fin < idx:
                raise DomainError(f"finish time {fin} at index {idx} precedes its start")
        n = len(e)
        sets = [frozenset(j for j in range(1, i) if e[j - 1] >= i) for i in range(1, n + 1)]
        return cls(sets)

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
        return cls(sets, batch_of=batch_of)


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


def _suffix(i: int, conflicts) -> range | None:
    """``range(lo, i)`` when ``conflicts`` is that range, or a list of
    ``lo .. i-1`` in increasing order; None otherwise."""
    if type(conflicts) is range:
        if conflicts.stop == i and conflicts.step == 1 and conflicts.start <= i:
            return conflicts
    elif type(conflicts) is list:
        lo = i - len(conflicts)
        if conflicts == list(range(lo, i)):
            return range(lo, i)
    return None


def declare_conflicts(sets, i: int, conflicts) -> range | frozenset[int]:
    """Check the conflict set ``X_i`` against ``sets`` (``X_1 .. X_{i-1}``,
    already declared) and return it; mutates nothing.

    Every member must lie in ``[1, i-1]`` (else ``DomainError``) and the
    family must stay monotone (see :func:`check_monotone_step`).  A
    contiguous suffix ``{lo .. i-1}`` comes back as ``range(lo, i)``; given
    as such a range or as an in-order list, its range and monotonicity
    checks cost O(1).  Any other set is a frozenset, checked member by
    member.
    """
    x = _suffix(i, conflicts)
    if x is not None:
        if x.start < 1:
            raise DomainError(f"conflict set of {i} contains out-of-range indices")
        if x.start < i - 1:
            prev = sets[i - 2]
            if type(prev) is not range or x.start < prev.start:
                # the frozenset the set would have been, whose iteration
                # order picks the member reported
                check_monotone_step(sets, i, frozenset(x))
        return x
    x = frozenset(conflicts)
    if any(not 1 <= j < i for j in x):
        raise DomainError(f"conflict set of {i} contains out-of-range indices")
    check_monotone_step(sets, i, x)
    suffix = range(i - len(x), i)
    if x and x != frozenset(suffix):
        return x
    return suffix


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


class TrajectoryLedger:
    """Ordered record of a realized trajectory, consumed by the checkers.

    Entries must arrive with gap-free consecutive 1-based indices and
    thresholds that pass :func:`check_gap`.  Indicators may be attached later
    (asynchronous observation) by setting an entry's ``indicators``.
    """

    def __init__(self):
        self.entries: list[LedgerEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: LedgerEntry) -> None:
        expected = len(self.entries) + 1
        if entry.index != expected:
            raise DomainError(f"ledger expected index {expected}, got {entry.index}")
        check_gap(entry.tau, entry.lam)
        self.entries.append(entry)

    def rows(self) -> tuple[np.ndarray, ...]:
        """Float64 rows ``(level, gap, s, c, r)`` over the entries, with
        ``gap = tau - lam``; ``IncompleteLedger`` while any lacks indicators."""
        missing = [e.index for e in self.entries if e.indicators is None]
        if missing:
            raise IncompleteLedger(f"no indicators recorded for indices {missing}")
        table = np.array(
            [(e.level, e.tau - e.lam, e.indicators.s, e.indicators.c, e.indicators.r)
             for e in self.entries],
            dtype=np.float64,
        ).reshape(-1, 5)
        return tuple(table.T)

    def corr_rows(self) -> tuple[list, list, list]:
        """Per entry, its joint-tail level and its batch (each None where
        unset) and its lambda, as :func:`check_corr_condition` reads them,
        in one pass over the entries."""
        alpha_c, batch, lam = [], [], []
        for e in self.entries:
            alpha_c.append(e.alpha_c)
            batch.append(e.batch)
            lam.append(e.lam)
        return alpha_c, batch, lam


def budget_path(level, gap, s, c) -> np.ndarray:
    """Prefix sums ``sum_{j<=i} level_j / gap_j * (s_j - c_j)`` along the last
    axis of (n,) or (T, n) operands: the adaptive-discarding budget spent by
    each prefix of a trajectory, or of each trial row."""
    return np.cumsum(level / gap * (s - c), axis=-1)


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    max_spend: float
    worst_index: int

    def __bool__(self) -> bool:
        return self.passed


def _report(spent: np.ndarray, slack: np.ndarray, bound: float) -> ConditionReport:
    """The prefix of greatest ``slack`` (the first on ties), which passes
    when its slack is at most ``bound``; an empty trajectory passes."""
    if not len(spent):
        return ConditionReport(passed=True, max_spend=0.0, worst_index=0)
    worst = int(np.argmax(slack))
    return ConditionReport(
        passed=bool(slack[worst] <= bound),
        max_spend=float(spent[worst]),
        worst_index=worst + 1,
    )


def check_fwer_condition(
    ledger: TrajectoryLedger, alpha: float, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Certify the FWER budget: every prefix spend stays at or below alpha."""
    level, gap, s, c, _ = ledger.rows()
    spent = budget_path(level, gap, s, c)
    return _report(spent, spent, alpha + tol)


def check_fdr_condition(
    ledger: TrajectoryLedger, alpha: float, tol: float = DEFAULT_TOL
) -> ConditionReport:
    """Certify the FDR budget: prefix spend <= alpha * (rejections-so-far or 1)."""
    level, gap, s, c, r = ledger.rows()
    spent = budget_path(level, gap, s, c)
    return _report(spent, spent - alpha * np.maximum(np.cumsum(r), 1.0), tol)


def check_corr_condition(
    ledger: TrajectoryLedger,
    lambda_by_batch: dict[int, float],
    alpha: float,
    tol: float = DEFAULT_TOL,
) -> ConditionReport:
    """Certify the joint-distribution budget for batch structures with tau = 1.

    Each term uses the joint-tail level annotated on the ledger instead of the
    marginal level: sum_j alpha_j^c / (1 - lambda_{b_j}) * (1 - C_j) <= alpha,
    with lambda_{b_j} from ``lambda_by_batch`` (an entry with no batch uses
    its own lambda).  The first index with no alpha^c or with a batch whose
    lambda is missing or out of range raises.
    """
    _, _, _, c, _ = ledger.rows()
    alpha_c, batch, own_lam = ledger.corr_rows()
    missing = next((k for k, a in enumerate(alpha_c) if a is None), len(alpha_c))
    for b in dict.fromkeys(batch[:missing]):  # in order of first index
        if b is None:
            continue
        if b not in lambda_by_batch:
            raise InvalidConfig(f"no lambda given for batch {b}")
        check_gap(1.0, float(lambda_by_batch[b]))
    if missing < len(alpha_c):
        raise MissingAlphaC(f"no joint-tail level recorded for index {missing + 1}")
    lam = np.array(
        [own if b is None else lambda_by_batch[b] for b, own in zip(batch, own_lam)],
        dtype=np.float64,
    )
    spent = budget_path(np.array(alpha_c, dtype=np.float64), 1.0 - lam, 1.0, c)
    return _report(spent, spent, alpha + tol)
