"""Weight schedules, conflict adjustments, and the kernels that the live
engines and the simulation runners share.

A weight rule assigns nonnegative mass ``g[j, i]`` from a source index ``j``
to later targets ``i > j`` with row sums at most one.  Conflict-adjusted
rules additionally guarantee ``g*[j, i] = 0`` whenever ``j`` conflicts with
``i``.  Two adjustment families are provided:

* renormalization: blocked leading mass is removed and the surviving row is
  scaled back up (used for finish-time / batch structures);
* rerouting: blocked mass flows forward through the rows of the blocking
  indices, which uniformly improves the level-spending procedure under
  contiguous-lag structures.

The renormalization rule lives here alone.  Source ``j`` is blocked for the
targets ``j+1 .. d_j - 1``, ``d_j`` its first clear target; its surviving
weights are ``g[j, i] / D_j`` for ``i >= d_j``.  :func:`denominator` gives
``D_j``: one on an empty blocked prefix, else the unblocked tail
``sum_{k >= d_j} g[j, k]`` itself, never ``1 - blocked``, which cancels on
steep rows, so a rule whose rows hold less than one is scaled to total one;
a row with ``D_j <= MASS_TOL`` is degenerate and gets zero weights.  Both
:class:`IncrementalRenormalizer` (the engines, online, any base rule) and
:func:`renorm_table` (the runners, shifted gamma and lag-form conflicts)
call it, so their weights agree bit for bit.

The runners drive each shared kernel with the trial axis first.  A live
engine drives :class:`HeldMass` (``graph-conf-u``), :class:`ClosureCounter`
(``closed-spending``) and :class:`Closure` (``closed-graph``) with no trial
axis (``trials=None``), so its per-index bookkeeping reads and writes
numpy scalars, and :class:`JointTail` (``adaptive-graph-corr``) with one
trial.  The same code serves both, through ``...`` indexing and index-major
views; the two reductions, ``HeldMass._carry`` and ``Closure.level``, give a
lone trajectory the (1, k) operands a trial row has, as a product over a
bare vector may sum in another order, and read its one entry out of the
(1,) result, a numpy scalar, as the trial row is read whole.  The closed kernels' ``absorb`` takes
m_j = max(R_j, C_j) from its caller, which holds R_j and C_j: a runner's
one ``np.maximum`` pass over the row, an engine's builtin ``max`` of two
scalars, so neither kernel branches on the trial axis nor pays a ufunc call
per scalar index.  :class:`ClosureCounter` keeps its prefix sums in int64,
so its counter indexes the gamma table as it is summed.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from math import inf, isnan

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from .core import _input_lines
from .errors import (
    DegenerateRenormalization,
    DomainError,
    InvalidSpec,
    NonMonotoneConflicts,
    NonMonotoneGamma,
)
from .gammas import GammaSpec

MASS_TOL = 1e-12
CORR_QUAD_NODES = 512
CORR_MAX_NODES = 4096
QUAD_SPAN = 8.0
NDTR_ONE = 8.292361075813597  # the least double x with ndtr(x) == 1.0; 1.0 at every larger x


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


def blocked_mask(i: int, x: range | frozenset[int]) -> np.ndarray:
    """Mask over the sources 1..i-1 of target ``i`` that lie in its conflict
    set ``x``."""
    blocked = np.zeros(i - 1, dtype=bool)
    if type(x) is range:
        blocked[x.start - 1 :] = True
    elif x:
        blocked[np.fromiter(x, np.intp, len(x)) - 1] = True
    return blocked


def denominator(base: WeightRule, j: int, d: int) -> float:
    """D_j of source ``j`` whose first clear target is ``d``: 1.0 on an empty
    blocked prefix (``d == j + 1``), else ``base.tail_mass(j, d - 1)``, and
    0.0, a degenerate row, at or below ``MASS_TOL``."""
    if d == j + 1:  # empty blocked prefix: keep base weights exactly
        return 1.0
    denom = base.tail_mass(j, d - 1)
    return denom if denom > MASS_TOL else 0.0


class IncrementalRenormalizer:
    """Per-source renormalization discovered on the fly by a live engine.

    Engines request weights in target order, so the first non-conflicting
    target ``i`` of a source ``j`` pins down its blocked prefix
    ``j+1 .. i-1`` and hence its :func:`denominator` ``D_j``, without a
    predeclared horizon.  A degenerate row (``D_j = 0``) gets zero weights
    and a ``DegenerateRenormalization`` warning.

    Conflict sets are monotone, so a source that has cleared never conflicts
    again, and only the open sources, those not pinned yet, can clear at a
    later target.  :meth:`column` looks for new denominators among those
    alone.
    """

    def __init__(self, base: WeightRule):
        self.base = base
        self._den = np.full(64, np.nan)  # NaN: not pinned yet; 0: degenerate row
        # The divisor of each source's weights: D_j once pinned to a positive
        # value, +inf otherwise, so that g / divisor is exactly 0.0 there.
        self._divisor = np.full(64, np.inf)
        self._open: set[int] = set()  # unpinned sources among 1 .. _known
        self._known = 0
        self.degenerate_rows: set[int] = set()

    def _pinned(self, j: int) -> float | None:
        if j > self._den.size or isnan(self._den[j - 1]):
            return None
        return float(self._den[j - 1])

    def _reserve(self, n: int) -> None:
        """Room for sources 1..n; the new ones are unpinned, so this is no trace."""
        size = self._den.size
        if n > size:
            grown = max(n, 2 * size)
            den = np.full(grown, np.nan)
            den[:size] = self._den
            divisor = np.full(grown, np.inf)
            divisor[:size] = self._divisor
            self._den, self._divisor = den, divisor

    def pin(self, cleared: dict[int, float]) -> None:
        """Store denominators returned by :meth:`column`, once the level stands."""
        for j, denom in cleared.items():
            self._reserve(j)
            if denom == 0.0:
                warnings.warn(
                    f"all future weight of source {j} is blocked; emitting zero weights",
                    DegenerateRenormalization,
                )
                self.degenerate_rows.add(j)
            else:
                self._divisor[j - 1] = denom
            self._den[j - 1] = denom
            self._open.discard(j)

    def weight(self, j: int, i: int, conflicting: bool) -> float:
        if conflicting or i <= j:
            return 0.0
        denom = self._pinned(j)
        if denom is None:
            denom = denominator(self.base, j, i)
            self.pin({j: denom})
        return self.base.weight(j, i) / denom if denom else 0.0

    def column(self, i: int, x: range | frozenset[int]) -> tuple[np.ndarray, dict[int, float]]:
        """Weights g*[1..i-1, i], zero on the conflict set ``x`` of ``i``, and
        the sources that first clear at ``i`` with their denominators.

        Nothing is stored: the caller passes the second value to :meth:`pin`
        once its level stands, so a request that fails leaves no trace.  The
        column is the base column over the stored divisors, with the sources
        in ``x`` zeroed and each source that clears at ``i`` divided by its
        new denominator.  A contiguous window ``x = range(lo, i)`` zeroes the
        slice of sources ``lo .. i-1``, and the sources that clear are the
        open ones below ``lo``; only a frozenset builds a mask over the column.
        """
        n = i - 1
        self._reserve(n)
        if n > self._known:  # sources new to the stream start open
            den = self._den
            self._open.update(j for j in range(self._known + 1, i) if isnan(den[j - 1]))
            self._known = n
        col = self.base.column(i)
        if type(x) is range:
            zero = slice(x.start - 1, None)
            fresh = sorted(j for j in self._open if j < x.start)
        else:
            zero = blocked_mask(i, x)
            fresh = [j for j in sorted(self._open) if j < i and not zero[j - 1]]
        heads = [col[j - 1] for j in fresh]
        cleared = {j: denominator(self.base, j, i) for j in fresh}
        np.divide(col, self._divisor[:n], out=col)
        col[zero] = 0.0
        for j, g in zip(fresh, heads):
            if cleared[j]:
                col[j - 1] = g / cleared[j]
        return col, cleared

    def tail_mass(self, j: int, m: int) -> float:
        denom = self._pinned(j)
        if denom is None:
            return 1.0
        return self.base.tail_mass(j, m) / denom if denom else 0.0


def renorm_table(spec: GammaSpec, lags, n: int) -> np.ndarray:
    """Static conflict-renormalized shifted-gamma weights W[j, i] (1-based),
    for the runners: each source's surviving weights over its
    :func:`denominator`, so ``W[1:, 1:]`` holds the columns that
    :class:`IncrementalRenormalizer` gives the engines, bit for bit."""
    gam = spec.values(n + 1)
    base = ShiftedGamma(spec)
    w = np.zeros((n + 1, n + 1))
    # d[j-1]: first non-conflicting target of j, one past the last i whose
    # window starts at or before j (i = j itself qualifies, as L_i >= 0)
    i = np.arange(1, n + 1)
    last = np.zeros(n + 1, dtype=np.int64)
    np.maximum.at(last, i - np.asarray(lags), i)
    d = np.maximum.accumulate(last)[1:] + 1
    for j, dj in enumerate(d.tolist(), start=1):
        if dj <= n and (denom := denominator(base, j, dj)):
            w[j, dj:] = gam[dj - j - 1 : n - j] / denom
    return w


class CustomTable(WeightRule):
    """Explicit finite weight table, loadable from a text format.

    File format (read by :func:`.core._input_lines`): the header
    ``# weight-table v1`` on line 1, then one ``j i weight`` line per entry.
    Non-finite or negative weights, a source ``j`` below 1 or a target ``i``
    not after it, and rows whose mass exceeds one are rejected.
    """

    HEADER = "# weight-table v1"

    def __init__(self, entries: dict[tuple[int, int], float]):
        self.entries = dict(entries)
        # each source's (i, w) pairs in the order of ``entries``, so a row's
        # sums add the terms a scan of the whole table would, in its order
        self._rows: dict[int, list[tuple[int, float]]] = {}
        for (j, i), w in self.entries.items():
            if not 0.0 <= w < inf or not 1 <= j < i:
                raise InvalidSpec(f"invalid table entry ({j}, {i}) -> {w}")
            self._rows.setdefault(j, []).append((i, w))
        for j in self._rows:
            mass = self.tail_mass(j, j)
            if mass > 1.0 + MASS_TOL:
                raise InvalidSpec(f"row {j} has total mass {mass} > 1")

    def weight(self, j, i):
        return self.entries.get((j, i), 0.0)

    def tail_mass(self, j, m):
        return sum(w for i, w in self._rows.get(j, ()) if i > m)

    @classmethod
    def load(cls, path) -> "CustomTable":
        entries = {}
        for lineno, line in _input_lines(path, InvalidSpec, header=cls.HEADER):
            try:
                j_s, i_s, w_s = line.split()
                key, w = (int(j_s), int(i_s)), float(w_s)
            except ValueError:
                raise InvalidSpec(f"{path}:{lineno}: not 'j i weight': {line!r}") from None
            if key in entries:
                raise InvalidSpec(f"{path}:{lineno}: duplicate entry {key}")
            entries[key] = w
        return cls(entries)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.HEADER + "\n")
            for (j, i), w in sorted(self.entries.items()):
                fh.write(f"{j} {i} {w!r}\n")


class HeldMass:
    """Reroute-adjusted levels by the held-mass recursion, trial axis first.

    With the spending counter t_m, the base weight
    g[m, i] = (gamma_{t_m+i-m-1} - gamma_{t_m+i-m}) / gamma_{t_m} and the
    first conflicting index c_i = i - L_i:

        at_i = alpha gamma_i + sum_{m < c_i} g[m, i] z_m
        z_i  = U_i at_i + sum_{c_i <= k < i} g[k, i] z_k
        level_i = (tau_i - lambda_i) at_i

    z_m is the mass source m holds for later targets: its own recycled
    wealth plus what was rerouted to it by blocked pairs.  Derivation from
    the reroute recursion, where g-[j, m] is the mass of source j rerouted
    through m (a target that conflicts with j passes j's weight and inflow
    on through its own row, a clear target only what reached it through
    its window): the level is
    at_i = alpha gamma_i + sum_{j < c_i} (g[j, i]
    + sum_{m < c_i} g-[j, m] g[m, i]) U_j at_j.  Since g-[j, m] = 0 for
    m <= j, the inner sums regroup to sum_{m < c_i} g[m, i] (U_m at_m + y_m)
    with y_m = sum_{j < m} U_j at_j g-[j, m], and substituting the g-
    recursion (blocked rows take g[j, m] plus all inflow, clear rows only
    the inflow through m's window [c_m, m)) gives
    y_m = sum_{c_m <= k < m} g[k, m] (U_k at_k + y_k).  So z = U at + y and
    no table is formed.  ``oracles._push_table`` (``spending=False``) is the
    independent reference: it forms the table of seed-mass proportions g+,
    and at_i = alpha gamma_i + sum_{j < i} U_j alpha gamma_j g+[j, i].

    State per trial, grown on demand: z_m, gamma_{t_m}, the offset
    t_m - m - 2 and at_m for every index, and the counter ``t`` of the next
    index to hold.  ``level(i, c)`` may run once z_1 .. z_{c-1} are final;
    ``hold(m, c_m, u_m)`` makes z_m final and must follow ``level(m, c_m)``
    and ``hold(m - 1, ...)``.  A runner passes ``trials=T``; a live engine
    passes ``trials=None``, one trajectory with no trial axis, whose
    counter, entries and levels are scalars.  The state is trial-major, the
    layout of each carry's gather; ``hold`` and ``level`` reach index m's
    entries through the transpose, ``.T[m - 1]``, a row of T trials or one
    scalar.
    """

    def __init__(self, spec: GammaSpec, alpha: float, trials: int | None = 1,
                 capacity: int = 64):
        self.spec = spec
        self.alpha = alpha
        self.shape = () if trials is None else (trials,)
        self._rows = None if trials is None else slice(None)  # trial rows, or one (1, ·) row
        self._out = 0 if trials is None else slice(None)  # a product's trial row, or its one entry
        self.t = np.ones(self.shape, dtype=np.int64)[()]  # a scalar without the axis
        self.final = 0  # z_1 .. z_final are final
        self.state = np.zeros((3, *self.shape, 0))
        self.off = np.zeros((*self.shape, 0), dtype=np.int64)
        self._reserve(capacity)

    def _reserve(self, n: int) -> None:
        old = self.off.shape[-1]
        if n <= old:
            return
        cap = max(n, 2 * old)
        state = np.zeros((3, *self.shape, cap))
        state[..., :old] = self.state
        off = np.zeros((*self.shape, cap), dtype=np.int64)
        off[..., :old] = self.off
        self.state, self.off = state, off
        self.z, self.head, self.at = state
        # g[m, i] = step[t_m - m + i - 2] / gamma_{t_m}, step[k-1] = gamma_k - gamma_{k+1};
        # t_m <= m, so gamma_1 .. gamma_cap cover every target i <= cap
        self._gl = self.spec.values(cap)
        self._step = self._gl[:-1] - self._gl[1:]

    def _carry(self, lo: int, hi: int, i: int) -> np.ndarray | float:
        """sum of g[m, i] z_m over the sources m = lo+1 .. hi, per trial."""
        # one trajectory sums as a (1, k) trial row: einsum may sum two bare
        # vectors in another order
        rows = self._rows
        g = self._step[self.off[rows, lo:hi] + i] / self.head[rows, lo:hi]
        return np.einsum("tm,tm->t", g, self.z[rows, lo:hi])[self._out]

    def level(self, i: int, c: int) -> np.ndarray | float:
        """at_i for target i whose first conflicting index is c."""
        self._reserve(i)
        at = self.alpha * self._gl[i - 1] + self._carry(0, c - 1, i)
        self.at.T[i - 1] = at
        return at

    def hold(self, m: int, c: int, u: np.ndarray | float) -> None:
        """Make z_m final, given m's first conflicting index c and U_m (one
        value per trial), and advance t."""
        t = self.t
        self.off.T[m - 1] = t - (m + 2)
        self.head.T[m - 1] = self._gl[t - 1]
        self.z.T[m - 1] = u * self.at.T[m - 1] + self._carry(c - 1, m - 1, m)
        self.t += u == 0  # in place on the trial axis
        self.final = m


class ClosureCounter:
    """Closed spending's counter, trial axis first: a rejected predecessor
    refunds its level, inside the conflict window c_i = i - L_i .. i-1 too.

    One int64 block, grown on demand, holds the prefix sums of R and of
    S - max(R, C) over 1 .. k in row k, a contiguous row of T trials, so
    ``absorb`` and ``counter`` touch whole rows and the counter is an
    integer as it is summed.  ``counter`` for target i needs 1 .. i-1
    absorbed; ``final`` is the last absorbed index.  A runner passes
    ``trials=T``; a live engine passes ``trials=None``, one trajectory with
    no trial axis, whose rows are scalars.
    """

    def __init__(self, trials: int | None = 1, capacity: int = 64):
        self.final = 0
        self.shape = () if trials is None else (trials,)
        self.state = np.zeros((2, 0, *self.shape), dtype=np.int64)
        self._reserve(capacity)

    def _reserve(self, n: int) -> None:
        old = self.state.shape[1]
        if n < old:
            return
        state = np.zeros((2, max(n + 1, 2 * old), *self.shape), dtype=np.int64)
        state[:, :old] = self.state
        self.state = state
        self.sum_r, self.sum_smax = state

    def absorb(self, j: int, s, m, r) -> None:
        """Record S_j, m_j = max(R_j, C_j) and R_j (one 0/1 value per trial,
        m_j from the caller, which holds R_j and C_j); j = final + 1."""
        self._reserve(j)
        self.sum_r[j] = self.sum_r[j - 1] + r
        self.sum_smax[j] = self.sum_smax[j - 1] + s - m
        self.final = j

    def counter(self, i: int, lag: int) -> np.ndarray | np.int64:
        """t_i = 1 + sum_{c_i <= j < i} (1 - R_j) + sum_{j < c_i} (S_j - max(R_j, C_j)),
        int64 per trial."""
        r, k = self.sum_r, i - lag - 1
        return 1 + (lag - (r[i - 1] - r[k])) + self.sum_smax[k]


class Closure:
    """Closed graph's levels, trial axis first: a rejected predecessor
    forwards its level at_i, inside the conflict window c_i = i - L_i .. i-1
    too.  ``level`` for target i needs 1 .. i-1 absorbed; ``final`` is the
    last absorbed index.  A runner passes ``trials=T``; a live engine passes
    ``trials=None``, one trajectory with no trial axis, whose at, R, up and
    mass entries are scalars.

    One block, grown on demand, holds at_j, R_j and up_j = m_j - S_j + 1,
    m_j = max(R_j, C_j) as ``absorb``'s caller gives it, index-major (j's
    contiguous row of T trials at j - 1), so ``absorb`` touches whole rows,
    and as its last row, read as (T, capacity), the trial-major mass, the
    operand of each level's product.
    One block, not rows and mass apart, also keeps a sweep's largest freed
    allocation large enough that glibc does not trim and fault back the heap
    between grid points.

    The mass of source j is what it forwards to the targets of one level:
    R_j at_j while j lies inside the window, up_j at_j once the window edge
    c has passed it.  ``level`` sets it for 1 .. ``filled`` and has switched
    1 .. ``edge`` - 1 to up_j at_j, so each level is one product over a slice.
    """

    def __init__(self, alpha: float, trials: int | None = 1, capacity: int = 64):
        self.alpha = alpha
        self.final = 0
        self.filled = 0  # mass of 1 .. filled is set
        self.edge = 1  # mass of 1 .. edge-1 is up_j at_j
        self.shape = () if trials is None else (trials,)
        self._rows = None if trials is None else slice(None)  # trial rows, or one (1, ·) row
        self._out = 0 if trials is None else slice(None)  # a product's trial row, or its one entry
        self.state = np.zeros((4, 0, *self.shape))
        self.mass = np.zeros((*self.shape, 0))
        self._reserve(capacity)

    def _reserve(self, n: int) -> None:
        old = self.state.shape[1]
        if n < old:
            return
        state = np.zeros((4, max(n + 1, 2 * old), *self.shape))
        state[:3, :old] = self.state[:3]
        mass = state[3].reshape(*self.shape, -1)
        mass[..., :old] = self.mass
        self.state, self.mass = state, mass
        self.at, self.r, self.up = state[:3]

    def absorb(self, j: int, s, m, r) -> None:
        """Record S_j, m_j = max(R_j, C_j) and R_j (one 0/1 value per trial,
        m_j from the caller, which holds R_j and C_j); j = final + 1."""
        self._reserve(j)
        self.r[j - 1] = r
        self.up[j - 1] = m - s + 1.0
        self.final = j

    def level(self, i: int, c: int, gamma_i: float, col: np.ndarray) -> np.ndarray | float:
        """at_i = alpha gamma_i + sum_j g[j, i] at_j (up_j for j < c, R_j for
        j >= c), with ``col`` = g[1 .. i-1, i]; stored and returned per trial.

        The window edge c may not move back (monotone conflict sets): a c
        below the previous target's raises ``NonMonotoneConflicts``.  A
        repeated target, whose first level an engine refused, may take a
        lower c: its sources c .. i-1 are set to R_j at_j afresh.
        """
        repeat = self.filled == i - 1
        if c < self.edge and not repeat:
            raise NonMonotoneConflicts(c, self.filled + 1, i)
        self._reserve(i)
        start = c - 1 if repeat else max(self.filled, c - 1)
        crossed, fresh = slice(self.edge - 1, c - 1), slice(start, i - 1)
        self.mass[..., crossed] = (self.up[crossed] * self.at[crossed]).T
        self.mass[..., fresh] = (self.r[fresh] * self.at[fresh]).T
        self.edge, self.filled = c, i - 1
        # one trajectory takes the (1, k) @ (k,) product of a trial row
        at = self.alpha * gamma_i + (self.mass[self._rows, : i - 1] @ col)[self._out]
        self.at[i - 1] = at
        return at


def corr_nodes(rho: float) -> int:
    """Gauss-Legendre node count of the joint tail at correlation ``rho``:
    512 * 2^k, k >= 0 the least with 2^k >= 0.1 / sqrt(1 - rho), so 512 up
    to rho = 0.99; a rho that needs more than ``CORR_MAX_NODES`` is refused.
    The conditional tails steepen as sqrt(1 - rho) in the common factor."""
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"correlation must lie in [0, 1), got {rho}")
    nodes, need = CORR_QUAD_NODES, CORR_QUAD_NODES * 0.1 / np.sqrt(1.0 - rho)
    while nodes < need:
        nodes *= 2
        if nodes > CORR_MAX_NODES:
            raise DomainError(f"correlation {rho} needs more than {CORR_MAX_NODES} nodes")
    return nodes


@lru_cache(maxsize=None)
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes ``z`` on [-QUAD_SPAN, QUAD_SPAN] and weights ``wq``
    times the standard normal density there; ``leggauss`` is deterministic,
    so caching per node count changes no value."""
    x, w = leggauss(nodes)
    z = QUAD_SPAN * x
    wq = QUAD_SPAN * w * np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    for a in (z, wq):
        a.flags.writeable = False
    return z, wq


class JointTail:
    """Joint null tails of one batch under equicorrelation, trial axis first.

    With one-sided z-test p-values sharing a common factor Z, member j has
    alpha^c_j = P(P_j <= alpha_j, P_k > alpha_k for each earlier non-candidate
    k) = E[prod_k F_k(Z) (1 - F_j(Z))], F_k(z) = Phi((Phi^-1(1 - alpha_k) -
    sqrt(rho) z) / sqrt(1 - rho)), and alpha_j where there is no such k.  The
    expectation is a Gauss-Legendre sum on ``corr_nodes(rho)`` nodes unless
    ``nodes`` is given; the product is carried one member at a time.  A live
    engine is the case of one trial.

    A member's conditional tail ``cond`` is read only by its estimate, kept
    where the trial has an earlier non-candidate (the estimate rows), and by
    the prefix update of a non-candidate (``keep``) with a later member to
    come (the carry rows); so only those rows are evaluated, and a member
    with none is skipped.  ``batch(..., candidates=False)`` drops the
    estimates of the candidates (C = 1) too, for a caller that reads alpha^c
    only where a level or a budget does: on the non-candidates, as a
    candidate's level coefficient is its level and its budget term carries
    the factor 1 - C_j = 0.  Then the candidates' entries come back NaN,
    "not evaluated".  Every value read is that of a dense evaluation.

    Two exact facts cut the ``ndtr`` calls of the evaluated rows further.
    The nodes ascend, and floating-point subtraction and division by a
    positive number are monotone, so each row's argument ``(crit - srz) /
    s1`` is non-increasing along the nodes and the nodes where it is at
    least ``NDTR_ONE`` (``ndtr`` exactly 1.0) are a prefix.  The row of the
    least ``crit`` has the shortest such prefix, ``lead`` nodes, and every
    row saturates there too; ``ndtr`` runs on the rest.  And ``ndtr`` is a
    pure function of its argument, so rows with equal ``crit`` have equal
    ``cond`` rows: it runs once per distinct critical value, ``V``, and each
    row gathers its values from there.

    The member loop works on its rows alone, with no (T, nodes) ``cond``
    buffer.  An estimate row ``e`` writes ``terms[e, :lead] = 0``, which is
    ``(1 - 1.0) * prefix``, and ``terms[e, lead:] = (1 - V) * prefix[e,
    lead:]``.  A carry row multiplies ``prefix[c, lead:]`` by ``V``; the
    last member carries nothing.  A row's prefix is reset at its first carry
    of the batch, to 1.0 before ``lead`` and to ``V`` past it, as 1.0 * x ==
    x exactly; only an estimate row reads it, and it has had a carry.  The
    product with ``wq`` stays one product over the whole (T, nodes)
    ``terms`` buffer, whose other rows hold finite stale values, and the
    estimate rows are read from it: BLAS may sum a row in another order when
    it gets another row count, while each output row is its own dot product.
    """

    def __init__(self, rho: float, trials: int = 1, nodes: int | None = None):
        rule = corr_nodes(rho)  # refuses a rho out of range also when ``nodes`` is given
        z, self._wq = gauss_legendre(rule if nodes is None else nodes)
        self._srz, self._s1 = np.sqrt(rho) * z, np.sqrt(1.0 - rho)
        self._prefix = np.empty((trials, z.size))
        self._terms = np.zeros((trials, z.size))

    def batch(self, levels: np.ndarray, keep: np.ndarray, candidates: bool = True) -> np.ndarray:
        """alpha^c of every member, from the (T, b) levels of one batch and
        its non-candidate flags ``keep`` (C = 0), members in order; NaN on
        the candidates unless ``candidates``."""
        ttr, b = levels.shape
        prefix, terms = self._prefix, self._terms
        wq, srz, s1 = self._wq, self._srz, self._s1
        # empty intersection set: the tail is the level itself, exactly
        alpha_c = levels.copy()
        crit = ndtri(1.0 - levels)
        seen = np.zeros(ttr, dtype=bool)  # an earlier non-candidate in the batch
        for j0 in range(b):
            kept, more = keep[:, j0], j0 < b - 1
            est = seen if candidates else seen & kept
            rows = np.flatnonzero(est | kept if more else est)
            if rows.size:
                vals, inv = np.unique(crit[rows, j0], return_inverse=True)
                lead = np.count_nonzero((vals[0] - srz) / s1 >= NDTR_ONE)
                arg = np.subtract(vals[:, None], srz[lead:])
                arg /= s1
                v = ndtr(arg, out=arg)
                on_e = est[rows]
                if on_e.any():
                    e = rows[on_e]
                    terms[e, :lead] = 0.0
                    terms[e, lead:] = (1.0 - v[inv[on_e]]) * prefix[e, lead:]
                    alpha_c[e, j0] = (terms @ wq)[e]
                if more:
                    on_c = kept[rows]
                    c, inv_c = rows[on_c], inv[on_c]
                    first = ~seen[c]
                    prefix[c[first], :lead] = 1.0
                    prefix[c[first], lead:] = v[inv_c[first]]
                    prefix[c[~first], lead:] *= v[inv_c[~first]]
            seen |= kept
        if not candidates:
            alpha_c[~keep] = np.nan
        return alpha_c


class Alg1Columns:
    """Placeholder: ``perfbench/layers.py`` wraps ``column`` by name until the
    tracer wraps the live kernels (ROADMAP item 3); :class:`HeldMass`
    computes the reroute weights."""

    def column(self, i: int) -> np.ndarray:
        raise NotImplementedError("the reroute weights come from HeldMass")
