"""Machine-speed normalisation against a fixed reference kernel.

The shared machine this benchmark was written on runs every kind of code,
pure Python and numpy alike, 25-30 % slower in phases that last tens of
seconds.  A raw time therefore says as much about the phase as about the
program.  Timed work is cut into segments, with readings of a fixed
reference kernel (benchmark code that never changes with the package)
between them at least every ``READING_EVERY_S``; each segment's time is
divided by the kernel's slowdown over its nominal time around it.  The
kernel is made of parts, and each workload uses the parts that resemble
its own work (``use_parts``).  A normalised second is a second on a
machine where each part in use takes its nominal time.  Raw times are
reported beside the normalised ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

CALLS = 5
READING_EVERY_S = 1.0  # least time between two readings inside timed work

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.random((1000, 100))
_SMALL = _RNG.random(64)
_CUBE = _RNG.random((100, 100, 100))  # 8 MB: memory-bound like the O(n^3) runners


def _interpreter() -> float:
    acc = {}
    for i in range(20000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    return sum(acc.values())


def _small_arrays() -> float:
    x = _SMALL
    for _ in range(600):
        x = np.cumsum(x[::-1]) / 64.0
    return float(x.sum())


def _medium_arrays() -> float:
    s = (_MATRIX <= 0.5).astype(np.float64)
    return float(np.cumsum(_MATRIX * s, axis=1).max(axis=1).sum())


def _memory_bound() -> float:
    y = 0.0
    for _ in range(4):
        y += float(np.einsum("tjm,tm->tj", _CUBE, _MATRIX[:100]).sum())
        y += float((_CUBE[:, :50, :] + 1.0).sum())
    return y


# Parts of the reference kernel and their nominal times in seconds.
PARTS = {
    "interpreter": (_interpreter, 0.005),
    "small_arrays": (_small_arrays, 0.004),
    "medium_arrays": (_medium_arrays, 0.001),
    "memory_bound": (_memory_bound, 0.010),
}
_parts = tuple(PARTS)


def use_parts(parts) -> None:
    """Make ``parts`` (names in ``PARTS``) the reference for this process."""
    global _parts
    _parts = tuple(parts)


def reference_kernel() -> float:
    """One call of every part in use."""
    return sum(PARTS[name][0]() for name in _parts)


def slowdown() -> float:
    """Median reference time over its nominal value (> 1 on a slow phase)."""
    times = []
    for _ in range(CALLS):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times) / sum(PARTS[name][1] for name in _parts)


def bracketed(fn):
    """Run ``fn`` between two slowdown readings: ``(fn(), mean reading)``."""
    before = slowdown()
    out = fn()
    return out, 0.5 * (before + slowdown())


class Segments:
    """Times of the stretches of work between successive ``mark()`` calls.

    A slowdown reading is taken at the start, at ``close()``, and at a mark
    whenever ``READING_EVERY_S`` has passed since the last reading; each
    segment is divided by the mean of the two readings around it.  Reading
    time is in no segment, nor is time handed to ``exclude()``.
    """

    def __init__(self):
        self.raw: list[float] = []
        self._readings = [(0, slowdown())]
        self._excluded = 0.0
        self._t0 = self._last_reading = perf_counter()

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` of the current segment off its time."""
        self._excluded += seconds

    def mark(self) -> None:
        now = perf_counter()
        self.raw.append(now - self._t0 - self._excluded)
        self._excluded = 0.0
        if now - self._last_reading >= READING_EVERY_S:
            self._readings.append((len(self.raw), slowdown()))
            self._last_reading = perf_counter()
        self._t0 = perf_counter()

    def close(self) -> list[float]:
        """The normalised segment times, after a final reading."""
        if self._readings[-1][0] != len(self.raw):
            self._readings.append((len(self.raw), slowdown()))
        norm = []
        for (k0, f0), (k1, f1) in zip(self._readings, self._readings[1:]):
            f = 0.5 * (f0 + f1)
            norm += [t / f for t in self.raw[k0:k1]]
        return norm


def normalised_latencies(call, items) -> tuple[list, list[float], list[float]]:
    """Apply ``call`` to each item; results, raw latencies, normalised ones
    (see ``Segments``: one segment per item)."""
    results = []
    seg = Segments()
    for item in items:
        results.append(call(item))
        seg.mark()
    norm = seg.close()
    return results, seg.raw, norm
