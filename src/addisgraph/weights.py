"""Weight schedules: base rules, conflict adjustments and reroute tables.

A weight rule assigns nonnegative mass ``g[j, i]`` from a source index ``j``
to later targets ``i > j`` with row sums at most one.  Conflict-adjusted
rules additionally guarantee ``g*[j, i] = 0`` whenever ``j`` conflicts with
``i``.  Two adjustment families are provided:

* renormalization: blocked leading mass is removed and the surviving row is
  scaled back up (used for finish-time / batch structures);
* rerouting: blocked mass flows forward through the rows of the blocking
  indices, which uniformly improves the level-spending procedure under
  contiguous-lag structures.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import ConflictStructure
from .errors import DegenerateRenormalization, HorizonExceeded, InvalidSpec, NonMonotoneGamma
from .gammas import GammaSpec

MASS_TOL = 1e-12


def lemma1_base_weight(spec: GammaSpec, t_j: int, j: int, i: int) -> float:
    """Base weight (gamma_{t+i-j-1} - gamma_{t+i-j}) / gamma_t for one pair."""
    if i <= j:
        raise InvalidSpec("base weights are defined for targets i > j")
    if t_j < 1:
        raise InvalidSpec("spending counter t(j) must be >= 1")
    k = t_j + i - j
    vals = spec.values(k)
    num = vals[k - 2] - vals[k - 1]
    if num < 0.0:
        raise NonMonotoneGamma("negative weight: gamma sequence is not nonincreasing")
    return float(num / vals[t_j - 1])


def lemma1_row(spec: GammaSpec, t_j: int, length: int) -> np.ndarray:
    """Vector of base weights for targets j+1 .. j+length at counter t_j."""
    vals = spec.values(t_j + length)
    num = vals[t_j - 1 : t_j + length - 1] - vals[t_j : t_j + length]
    if num.size and num.min() < 0.0:
        raise NonMonotoneGamma("negative weight: gamma sequence is not nonincreasing")
    return num / vals[t_j - 1]


class WeightRule:
    """Interface shared by static (data-independent) weight rules."""

    def weight(self, j: int, i: int) -> float:
        raise NotImplementedError

    def column(self, i: int) -> np.ndarray:
        """Weights g[1..i-1, i] as an array of length i-1."""
        return np.array([self.weight(j, i) for j in range(1, i)])

    def tail_mass(self, j: int, m: int) -> float:
        """sum_{i>m} g[j, i] of remaining (non-blocked) mass past index m."""
        raise NotImplementedError


class ShiftedGamma(WeightRule):
    """g[j, i] = gamma_{i-j}."""

    def __init__(self, spec: GammaSpec):
        self.spec = spec

    def weight(self, j, i):
        return self.spec.value(i - j) if i > j else 0.0

    def column(self, i):
        return self.spec.values(i - 1)[::-1].copy() if i > 1 else np.empty(0)

    def tail_mass(self, j, m):
        return self.spec.tail_sum(max(m - j, 0))


class RenormalizedConflict(WeightRule):
    """Conflict adjustment that rescales each row by its blocked leading mass.

    For monotone conflict sets the indices blocked for source ``j`` form a
    contiguous range ``j+1 .. d_j - 1``; the surviving weights are
    ``g[j, i] / (1 - blocked_j)``.  A row whose blocked mass reaches one is
    degenerate: it gets all-zero weights and is flagged.
    """

    def __init__(self, base: WeightRule, structure: ConflictStructure):
        self.base = base
        self.structure = structure
        self.degenerate_rows: set[int] = set()
        self._d = self._first_clear_targets(structure)
        self._denom = {}

    @staticmethod
    def _first_clear_targets(structure: ConflictStructure) -> dict[int, int]:
        d = {}
        for i in range(1, structure.n + 1):
            for j in structure.conflict_sets[i - 1]:
                d[j] = max(d.get(j, j + 1), i + 1)
        return d

    def first_clear(self, j: int) -> int:
        return self._d.get(j, j + 1)

    def _denominator(self, j: int) -> float:
        if j not in self._denom:
            d_j = self.first_clear(j)
            if d_j == j + 1:  # empty blocked prefix: keep base weights exactly
                self._denom[j] = 1.0
                return 1.0
            blocked = 1.0 - self.base.tail_mass(j, d_j - 1)
            denom = 1.0 - blocked
            if denom <= MASS_TOL:
                warnings.warn(
                    f"all future weight of source {j} is blocked; emitting zero weights",
                    DegenerateRenormalization,
                )
                self.degenerate_rows.add(j)
                denom = np.inf
            self._denom[j] = denom
        return self._denom[j]

    def weight(self, j, i):
        if i < self.first_clear(j) or i <= j:
            return 0.0
        return self.base.weight(j, i) / self._denominator(j)

    def column(self, i):
        col = self.base.column(i)
        if col.size == 0:
            return col
        denom = np.array([self._denominator(j) for j in range(1, i)])
        blocked = np.array([i < self.first_clear(j) for j in range(1, i)])
        out = col / denom
        out[blocked] = 0.0
        return out

    def tail_mass(self, j, m):
        d_j = self.first_clear(j)
        return self.base.tail_mass(j, max(m, d_j - 1)) / self._denominator(j)


class IncrementalRenormalizer:
    """Per-source renormalization discovered on the fly by a live engine.

    Engines request weights in target order, so the first non-conflicting
    target of a source ``j`` pins down its blocked prefix ``j+1 .. i-1`` and
    hence the renormalization denominator, without a predeclared horizon.
    """

    def __init__(self, base: WeightRule):
        self.base = base
        self._den = np.full(64, np.nan)  # NaN: not pinned yet; 0: degenerate row
        self.degenerate_rows: set[int] = set()

    def _pinned(self, j: int) -> float | None:
        if j > self._den.size or np.isnan(self._den[j - 1]):
            return None
        return float(self._den[j - 1])

    def _denominator(self, j: int, i: int) -> float:
        """Denominator of source ``j`` whose first clear target is ``i``."""
        if i == j + 1:  # empty blocked prefix: keep base weights exactly
            return 1.0
        blocked = 1.0 - self.base.tail_mass(j, i - 1)
        denom = 1.0 - blocked
        return denom if denom > MASS_TOL else 0.0

    def pin(self, cleared: dict[int, float]) -> None:
        """Store denominators returned by :meth:`column`, once the level stands."""
        for j, denom in cleared.items():
            if j > self._den.size:
                grown = np.full(max(j, 2 * self._den.size), np.nan)
                grown[: self._den.size] = self._den
                self._den = grown
            if denom == 0.0:
                warnings.warn(
                    f"all future weight of source {j} is blocked; emitting zero weights",
                    DegenerateRenormalization,
                )
                self.degenerate_rows.add(j)
            self._den[j - 1] = denom

    def weight(self, j: int, i: int, conflicting: bool) -> float:
        if conflicting or i <= j:
            return 0.0
        denom = self._pinned(j)
        if denom is None:
            denom = self._denominator(j, i)
            self.pin({j: denom})
        return self.base.weight(j, i) / denom if denom else 0.0

    def column(self, i: int, blocked: np.ndarray) -> tuple[np.ndarray, dict[int, float]]:
        """Weights g*[1..i-1, i], zero where ``blocked``, and the sources that
        first clear at ``i`` with their denominators.

        Nothing is stored: the caller passes the second value to :meth:`pin`
        once its level stands, so a request that fails leaves no trace.
        """
        n = i - 1
        den = np.full(n, np.nan)
        known = min(n, self._den.size)
        den[:known] = self._den[:known]
        fresh = np.flatnonzero(np.isnan(den) & ~blocked)
        cleared = {int(k) + 1: self._denominator(int(k) + 1, i) for k in fresh}
        den[fresh] = list(cleared.values())
        out = np.zeros(n)
        np.divide(self.base.column(i), den, out=out, where=~blocked & (den != 0.0))
        return out, cleared

    def tail_mass(self, j: int, m: int) -> float:
        denom = self._pinned(j)
        if denom is None:
            return 1.0
        return self.base.tail_mass(j, m) / denom if denom else 0.0


def renormalized_conflict_weights(
    base: WeightRule, structure: ConflictStructure
) -> RenormalizedConflict:
    """Build the renormalized conflict-adjusted rule for a validated structure."""
    return RenormalizedConflict(base, structure)


class CustomTable(WeightRule):
    """Explicit finite weight table, loadable from a text format.

    File format: a header line ``# weight-table v1`` followed by one line per
    entry: ``j i weight`` (whitespace separated).  Rows whose mass exceeds one
    are rejected.
    """

    HEADER = "# weight-table v1"

    def __init__(self, entries: dict[tuple[int, int], float]):
        self.entries = dict(entries)
        row_mass: dict[int, float] = {}
        for (j, i), w in self.entries.items():
            if w < 0.0 or i <= j:
                raise InvalidSpec(f"invalid table entry ({j}, {i}) -> {w}")
            row_mass[j] = row_mass.get(j, 0.0) + w
        for j, mass in row_mass.items():
            if mass > 1.0 + MASS_TOL:
                raise InvalidSpec(f"row {j} has total mass {mass} > 1")

    def weight(self, j, i):
        return self.entries.get((j, i), 0.0)

    def tail_mass(self, j, m):
        return sum(w for (jj, i), w in self.entries.items() if jj == j and i > m)

    @classmethod
    def load(cls, path) -> "CustomTable":
        entries = {}
        with open(path) as fh:
            header = fh.readline().strip()
            if header != cls.HEADER:
                raise InvalidSpec(f"unexpected weight-table header {header!r}")
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                j_s, i_s, w_s = line.split()
                entries[(int(j_s), int(i_s))] = float(w_s)
        return cls(entries)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.HEADER + "\n")
            for (j, i), w in sorted(self.entries.items()):
                fh.write(f"{j} {i} {w!r}\n")


def spending_counters(u: np.ndarray) -> np.ndarray:
    """t(j) = 1 + sum_{k<j} (S_k - C_k) for every j, from the U feed."""
    u = np.asarray(u)
    t = np.empty(u.size, dtype=np.int64)
    t[0] = 1
    if u.size > 1:
        t[1:] = 1 + np.cumsum(1 - u[:-1])
    return t


DEFAULT_HORIZON_CAP = 2000


def algorithm1_weights(
    spec: GammaSpec, lags, n: int, u, horizon_cap: int = DEFAULT_HORIZON_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Reroute-adjusted weights for contiguous-lag conflicts (full table).

    Straight transcription of the reroute recursion: when a target conflicts
    with the source, its weight is moved forward through the target's own
    row; inflow that arrived through conflicting intermediates is likewise
    subtracted and pushed on.  Base weights are the counter-indexed gamma
    increments, so they depend on the realized U feed.

    Returns ``(table, overflow)`` where ``table[j-1, i-1]`` holds
    ``g*[j, i]`` for ``1 <= j < i <= n`` and ``overflow[j-1]`` is the row
    mass living past the horizon (base tail plus rerouted mass), so that
    each row satisfies ``sum_i table[j-1, i-1] + overflow[j-1] = 1``.

    The published recursion subtracts ``g-[j, l]`` in its second branch; the
    index is read as ``g-[j, i]``, which is what the surrounding derivation
    requires.
    """
    if n > horizon_cap:
        raise HorizonExceeded(f"horizon {n} exceeds the cap {horizon_cap}")
    lags = np.asarray(lags, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    t = spending_counters(u)
    gamma = spec.values(int(t.max()) + n + 1)

    # base rows g[j, j+1 .. n] and their tails past the horizon
    g = np.zeros((n + 1, n + 1))
    base_tail = np.zeros(n + 1)
    for j in range(1, n + 1):
        tj = t[j - 1]
        length = n - j
        if length > 0:
            g[j, j + 1 :] = (gamma[tj - 1 : tj + length - 1] - gamma[tj : tj + length]) / gamma[tj - 1]
        base_tail[j] = gamma[tj + n - j - 1] / gamma[tj - 1] if n - j >= 0 else 1.0

    gstar = g.copy()
    gminus = np.zeros((n + 1, n + 1))
    overflow = base_tail.copy()
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            if i - lags[i - 1] <= j:
                gminus[j, i] = gstar[j, i]
                gstar[j, i] = 0.0
            else:
                lo = i - lags[i - 1]
                gminus[j, i] = float(g[lo:i, i] @ gminus[j, lo:i])
                gstar[j, i] -= gminus[j, i]
            if gminus[j, i] != 0.0:
                gstar[j, i + 1 :] += gminus[j, i] * g[i, i + 1 :]
                overflow[j] += gminus[j, i] * base_tail[i]
    return gstar[1:, 1:], overflow[1:]


class Alg1Columns:
    """Incremental, pull-based evaluation of the reroute-adjusted weights.

    Produces exactly the columns of :func:`algorithm1_weights`, but only ever
    consumes indicator feedback for indices outside the requesting target's
    conflict set, which is what a live engine can legally know.  Capacity
    grows on demand so no horizon needs declaring up front.
    """

    def __init__(self, spec: GammaSpec, capacity: int = 64):
        self.spec = spec
        self.cap = capacity
        self.u = np.full(capacity + 1, -1, dtype=np.int64)
        self.lags = np.zeros(capacity + 1, dtype=np.int64)
        self.g = np.zeros((capacity + 1, capacity + 1))
        self.gm = np.zeros((capacity + 1, capacity + 1))
        self._row_done = np.zeros(capacity + 1, dtype=bool)
        self._gm_done = 0  # gminus columns resolved through this index

    def _grow(self, need: int) -> None:
        while self.cap < need:
            self.cap *= 2
        newg = np.zeros((self.cap + 1, self.cap + 1))
        newg[: self.g.shape[0], : self.g.shape[1]] = self.g
        self.g = newg
        newgm = np.zeros((self.cap + 1, self.cap + 1))
        newgm[: self.gm.shape[0], : self.gm.shape[1]] = self.gm
        self.gm = newgm
        self.u = np.concatenate([self.u, np.full(self.cap + 1 - self.u.size, -1, dtype=np.int64)])
        self.lags = np.concatenate(
            [self.lags, np.zeros(self.cap + 1 - self.lags.size, dtype=np.int64)]
        )
        # base rows must be re-extended to the new capacity
        self._row_done = np.zeros(self.cap + 1, dtype=bool)

    def set_lag(self, i: int, lag: int) -> None:
        if i > self.cap:
            self._grow(i)
        self.lags[i] = lag

    def set_u(self, k: int, u_k: int) -> None:
        if k > self.cap:
            self._grow(k)
        self.u[k] = u_k

    def _ensure_row(self, m: int) -> None:
        """Fill base row m up to current capacity; needs U_1..U_{m-1}."""
        if self._row_done[m]:
            return
        t_m = 1 + int(np.sum(1 - self.u[1:m]))
        length = self.cap - m
        if length > 0:
            self.g[m, m + 1 :] = lemma1_row(self.spec, t_m, length)
        self._row_done[m] = True
        self._t_cache = getattr(self, "_t_cache", {})
        self._t_cache[m] = t_m

    def row_tail(self, m: int, past: int) -> float:
        """Remaining base-row mass of source m beyond index ``past``."""
        self._ensure_row(m)
        t_m = self._t_cache[m]
        k = t_m + past - m
        vals = self.spec.values(max(k, t_m))
        return float(vals[k - 1] / vals[t_m - 1]) if past > m else 1.0

    def _resolve_gminus_through(self, c: int) -> None:
        """Resolve reroute columns gm[:, l] for l < c (needs U_1..U_{c-2})."""
        for l in range(self._gm_done + 1, c):
            for m in range(1, l):
                self._ensure_row(m)
            lo = l - self.lags[l]
            col = self.g[1:l, l]
            inflow = self.gm[1:l, 1:l] @ col  # inflow[j-1] = sum_m gm[j,m] g[m,l]
            if lo <= l - 1:
                window = self.gm[1:l, lo:l] @ self.g[lo:l, l]
            else:
                window = np.zeros(l - 1)
            js = np.arange(1, l)
            blocked = js >= lo
            self.gm[1:l, l] = np.where(blocked, self.g[1:l, l] + inflow, window)
            self._gm_done = l

    def column(self, i: int) -> np.ndarray:
        """Adjusted weights g*[1..i-1, i]; zero on the conflicting suffix."""
        if i > self.cap:
            self._grow(i)
        c = i - int(self.lags[i])
        if np.any(self.u[1:c] < 0):
            missing = [k for k in range(1, c) if self.u[k] < 0]
            raise InvalidSpec(f"U feed missing for indices {missing}")
        self._resolve_gminus_through(c)
        for m in range(1, c):
            self._ensure_row(m)
        out = np.zeros(i - 1)
        if c > 1:
            out[: c - 1] = self.g[1:c, i] + self.gm[1:c, 1:c] @ self.g[1:c, i]
        return out

    def adjusted_tail(self, j: int, past: int) -> float:
        """Remaining adjusted-row mass of source j beyond ``past``.

        Mass conservation: whatever was not placed on columns <= past is
        still ahead (including mass in flight through reroutes).
        """
        placed = 0.0
        for i in range(j + 1, past + 1):
            col = self.column(i)
            if j <= col.size:
                placed += col[j - 1]
        return 1.0 - placed
