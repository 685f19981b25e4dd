"""Catalog of gamma sequences used to seed significance-level budgets.

Every spec describes a nonnegative sequence ``gamma_1, gamma_2, ...`` whose
infinite sum is at most one.  The proportional forms (``logq``, ``power``)
are normalized so the infinite sum equals one; the normalization constant is
computed once by partial summation plus an integral tail bound and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import polygamma, zeta

from .errors import DomainError, InvalidSpec, NonMonotoneGamma

_BASEL = 6.0 / math.pi**2
_NONE = np.empty(0)  # a spec's gamma array before its first read
_MIN_CACHED = 64  # shortest gamma array a spec caches
_PARTIAL_SUM_TERMS = 10**6


@lru_cache(maxsize=None)
def _logq_norm() -> float:
    """1 / sum_{i>=1} 1/((i+1) ln^2(i+1)), partial sum + midpoint tail integral."""
    tail = 1.0 / math.log(_PARTIAL_SUM_TERMS + 1.5)
    return 1.0 / (_logq_prefix(_PARTIAL_SUM_TERMS) + tail)


def _logq_prefix(m: int) -> float:
    """Unnormalized partial sum of the logq sequence up to index m; not cached,
    as ``_logq_norm`` and each spec's tail sums keep what is made of it."""
    i = np.arange(1, m + 1, dtype=np.float64)
    return math.fsum(1.0 / ((i + 1.0) * np.log(i + 1.0) ** 2))


@dataclass(frozen=True)
class GammaSpec:
    """Specification of a gamma sequence.

    kind:
      * ``"logq"``       gamma_i = c / ((i+1) ln^2(i+1))
      * ``"power"``      gamma_i = i^(-s) / zeta(s), s > 1
      * ``"basel"``      gamma_i = 6 / (pi^2 i^2)
      * ``"geometric"``  gamma_i = q^(i-1) (1-q), q in (0, 1)
      * ``"custom"``     explicit finite table, zero beyond it
    """

    kind: str = "basel"
    s: float | None = None
    q: float | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "power":
            if self.s is None or not self.s > 1.0:  # NaN fails too
                raise InvalidSpec(f"power spec needs exponent s > 1, got {self.s}")
        elif self.kind == "geometric":
            if self.q is None or not 0.0 < self.q < 1.0:
                raise InvalidSpec(f"geometric spec needs ratio q in (0,1), got {self.q}")
        elif self.kind == "custom":
            if not self.table:
                raise InvalidSpec("custom spec needs a nonempty table")
            vals = np.asarray(self.table, dtype=np.float64)
            if not np.all((vals >= 0.0) & (vals < np.inf)):  # NaN fails too
                raise InvalidSpec("custom gamma values must be finite and nonnegative")
            if vals.sum() > 1.0 + 1e-12:
                raise InvalidSpec("custom gamma table sums beyond 1")
        elif self.kind not in ("logq", "basel"):
            raise InvalidSpec(f"unknown gamma kind {self.kind!r}")
        # This instance's caches of gamma values and tail sums.  They are not
        # fields: ==, hash and repr ignore them, and __reduce__ leaves them
        # out of copies and pickles.
        object.__setattr__(self, "_values", _NONE)
        object.__setattr__(self, "_tails", {})

    def __reduce__(self):
        return type(self), (self.kind, self.s, self.q, self.table)

    @property
    def name(self) -> str:
        if self.kind == "power":
            return f"power:{self.s:g}"
        if self.kind == "geometric":
            return f"geometric:{self.q:g}"
        if self.kind == "custom":
            return "custom"
        return self.kind

    def value(self, i: int) -> float:
        """gamma_i for a single 1-based index."""
        if i < 1:
            raise DomainError(f"gamma index must be >= 1, got {i}")
        arr = self._values
        if arr.size < i:
            arr = self._grow(i)
        return float(arr[i - 1])

    def values(self, n: int) -> np.ndarray:
        """Array of gamma_1 .. gamma_n (a read-only view)."""
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        arr = self._values
        if arr.size < n:
            arr = self._grow(n)
        return arr[:n]

    def _grow(self, n: int) -> np.ndarray:
        # Doubled whenever a longer prefix is asked for.  Each element is
        # computed on its own, so a prefix equals a fresh evaluation of that
        # length bit for bit (tests/test_gammas.py checks this).
        arr = _evaluate(self, max(n, _MIN_CACHED, 2 * self._values.size))
        arr.setflags(write=False)
        object.__setattr__(self, "_values", arr)
        return arr

    def prefix_sum(self, m: int) -> float:
        """sum_{i<=m} gamma_i (exact for geometric, high precision otherwise)."""
        if m <= 0:
            return 0.0
        return 1.0 - self.tail_sum(m)

    def tail_sum(self, m: int) -> float:
        """sum_{i>m} gamma_i (cached per spec and m)."""
        if m < 0:
            m = 0
        tail = self._tails.get(m)
        if tail is None:
            tail = self._tails[m] = _tail_sum(self, m)
        return tail

    def require_nonincreasing(self) -> None:
        """Refuse a custom table that rises anywhere on its support; the
        analytic kinds decrease by construction."""
        if self.kind == "custom" and np.any(np.diff(self.table) > 0.0):
            raise NonMonotoneGamma(f"gamma spec {self.name} is not nonincreasing")

    @classmethod
    def parse(cls, text: str) -> "GammaSpec":
        """Parse ``basel``, ``logq``, ``power:<s>`` or ``geometric:<q>``; any
        other text, a non-numeric parameter included, raises ``InvalidSpec``."""
        kind, *params = text.strip().split(":")
        if kind in ("basel", "logq") and not params:
            return cls(kind=kind)
        name = {"power": "s", "geometric": "q"}.get(kind)
        if name is None or len(params) != 1:
            raise InvalidSpec(f"cannot parse gamma spec {text!r}")
        try:
            value = float(params[0])
        except ValueError:
            raise InvalidSpec(f"gamma spec {text!r}: {params[0]!r} is not a number") from None
        return cls(kind=kind, **{name: value})


def _evaluate(spec: GammaSpec, n: int) -> np.ndarray:
    """gamma_1 .. gamma_n, evaluated afresh."""
    i = np.arange(1, n + 1, dtype=np.float64)
    if spec.kind == "basel":
        return _BASEL / i**2
    if spec.kind == "geometric":
        return spec.q ** (i - 1.0) * (1.0 - spec.q)
    if spec.kind == "power":
        return i ** (-spec.s) / zeta(spec.s)
    if spec.kind == "logq":
        return _logq_norm() / ((i + 1.0) * np.log(i + 1.0) ** 2)
    out = np.zeros(n)  # custom
    table = np.asarray(spec.table, dtype=np.float64)
    k = min(n, table.size)
    out[:k] = table[:k]
    return out


def _tail_sum(spec: GammaSpec, m: int) -> float:
    """sum_{i>m} gamma_i for m >= 0, evaluated afresh."""
    if spec.kind == "geometric":
        return float(spec.q**m) if m else 1.0
    if spec.kind == "basel":
        return float(_BASEL * polygamma(1, m + 1))
    if spec.kind == "power":
        return float(zeta(spec.s, m + 1) / zeta(spec.s))
    if spec.kind == "logq":
        if m >= _PARTIAL_SUM_TERMS:
            return float(_logq_norm() / math.log(m + 1.5))
        return 1.0 - float(_logq_norm() * _logq_prefix(m)) if m else 1.0
    # custom: finite support
    vals = np.asarray(spec.table, dtype=np.float64)
    return float(vals[m:].sum())
