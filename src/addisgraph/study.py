"""Platform-study replay: conflict structure from entry/exit intervals,
engine replay over recorded p-values, and remaining-future-level accounting.

A replay drives the ``graph-conf`` or ``spending-local`` engine, which take
any monotone conflict set, so arms may leave in any order.

Study file format (line-oriented text, read by :func:`.core._input_lines`):

    # optional defaults
    alpha = 0.05
    tau = 0.8
    lambda = 0.3
    q = 0.6
    # one line per hypothesis, in entry order
    T1 enter=1 exit=10 p=0.002
    T2 enter=2 exit=11 p=NA
    ...
    # optional explicit conflict overrides
    conflicts T10 = 5, 7, 8, 9

Each default is set at most once and each ``T<k>`` line appears once; a
``T`` line takes ``enter``, ``exit`` and ``p`` at most once each and no other
field.  ``enter`` must be finite and ``exit`` at or after it (``inf`` for an
arm still running).

Conflicts are derived from interval overlap — an earlier hypothesis whose
exit time is at or after a later one's entry time shares concurrent control
data with it — unless overridden explicitly.  Placeholder p-values (``NA``)
mark structure-only files; replaying them raises ``MissingData``.

Future-level accounting: after the recorded horizon the stream is assumed to
continue conflict-free with full recycling disabled (tau = 1, lambda = 0),
so the level still available to future hypotheses is the engine's
``future_level()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConflictStructure, _input_lines
from .engines import make_engine
from .errors import InvalidConfig, MissingData
from .gammas import GammaSpec

# replay procedure -> engine kind
_REPLAY_KINDS = {"graph": "graph-conf", "spending": "spending-local"}


@dataclass
class StudyHypothesis:
    index: int
    name: str
    enter: float
    exit: float
    p: float | None


@dataclass
class ReplayStudy:
    """A recorded study: hypotheses in entry order plus their conflict sets."""

    hypotheses: list[StudyHypothesis]
    conflict_sets: list[frozenset[int]]
    defaults: dict

    @property
    def n(self) -> int:
        return len(self.hypotheses)

    def p_values(self) -> np.ndarray:
        missing = [h.name for h in self.hypotheses if h.p is None]
        if missing:
            raise MissingData(
                f"study file has placeholder p-values for {missing}; "
                "fill them in to replay"
            )
        return np.array([h.p for h in self.hypotheses])

    @classmethod
    def parse(cls, path) -> "ReplayStudy":
        arms: dict[int, StudyHypothesis] = {}
        overrides: dict[int, frozenset[int]] = {}
        defaults: dict = {}
        for lineno, line in _input_lines(path, InvalidConfig):
            try:
                if line.lower().startswith("conflicts"):
                    head, _, rhs = line.partition("=")
                    name = head.split()[1].strip()
                    idx = int(name.lstrip("T"))
                    members = frozenset(
                        int(v.strip().lstrip("T")) for v in rhs.split(",") if v.strip()
                    )
                    if idx in overrides:
                        raise ValueError(f"duplicate conflicts for T{idx}")
                    overrides[idx] = members
                elif line.startswith("T"):
                    parts = line.split()
                    idx = int(parts[0].lstrip("T"))
                    if idx in arms:
                        raise ValueError(f"duplicate T{idx}")
                    fields = {}
                    for key, value in (kv.split("=", 1) for kv in parts[1:]):
                        if key not in ("enter", "exit", "p"):
                            raise ValueError(f"unknown field {key!r}")
                        if key in fields:
                            raise ValueError(f"duplicate field {key!r}")
                        fields[key] = value
                    p_raw = fields.get("p", "NA")
                    p = None if p_raw.upper() in ("NA", "?", "NONE") else float(p_raw)
                    if p is not None and not 0.0 <= p <= 1.0:
                        raise ValueError(f"p-value {p} outside [0, 1]")
                    enter, exit_ = float(fields["enter"]), float(fields["exit"])
                    if not math.isfinite(enter):
                        raise ValueError(f"enter time {enter} is not finite")
                    if not exit_ >= enter:
                        raise ValueError(f"exit time {exit_} is before enter time {enter}")
                    arms[idx] = StudyHypothesis(
                        index=idx, name=parts[0], enter=enter, exit=exit_, p=p
                    )
                else:
                    key, _, rhs = line.partition("=")
                    key = key.strip().lower()
                    if key == "lambda":
                        key = "lam"
                    if key not in ("alpha", "tau", "lam", "q"):
                        raise ValueError(f"unknown key {key!r}")
                    if key in defaults:
                        raise ValueError(f"duplicate key {key!r}")
                    defaults[key] = float(rhs.strip())
            except (ValueError, KeyError, IndexError) as exc:
                raise InvalidConfig(f"{path}:{lineno}: {exc}") from None
        if sorted(arms) != list(range(1, len(arms) + 1)):
            raise InvalidConfig("hypothesis indices must be consecutive from T1")
        hyps = [arms[k] for k in range(1, len(arms) + 1)]
        for idx in sorted(overrides):
            if not 1 <= idx <= len(hyps):
                raise InvalidConfig(f"conflicts override for T{idx}: the study has no such arm")
        sets = []
        for i, h in enumerate(hyps, start=1):
            if i in overrides:
                sets.append(overrides[i])
            else:
                sets.append(
                    frozenset(j for j in range(1, i) if hyps[j - 1].exit >= h.enter)
                )
        ConflictStructure(sets)  # refuses a non-monotone family
        return cls(hypotheses=hyps, conflict_sets=sets, defaults=defaults)


@dataclass
class ReplayReport:
    procedure: str
    q: float
    rejections: int
    future_level: float
    levels: np.ndarray
    decisions: np.ndarray

    def summary(self, full_precision: bool = False) -> str:
        fl = repr(self.future_level) if full_precision else f"{self.future_level:.4f}"
        return (
            f"procedure={self.procedure} q={self.q:g} "
            f"rejections={self.rejections} future-level={fl}"
        )


def replay_study(
    study: ReplayStudy,
    procedure: str = "graph",
    q: float | None = None,
    alpha: float | None = None,
    tau: float | None = None,
    lam: float | None = None,
) -> ReplayReport:
    """Replay a recorded study and report rejections plus future level.

    ``procedure`` is ``"graph"`` (conflict-renormalized recycling graph) or
    ``"spending"`` (locally shifted spending); the seed sequence
    is geometric with ratio ``q``.  ``q``, ``alpha``, ``tau`` and ``lam``
    fall back to the study file's defaults, then to 0.6, 0.05, 0.8 and 0.3.
    """
    q = study.defaults.get("q", 0.6) if q is None else q
    alpha = study.defaults.get("alpha", 0.05) if alpha is None else alpha
    tau = study.defaults.get("tau", 0.8) if tau is None else tau
    lam = study.defaults.get("lam", 0.3) if lam is None else lam
    p = study.p_values()
    if procedure not in _REPLAY_KINDS:
        raise InvalidConfig(f"unknown replay procedure {procedure!r}")
    engine = make_engine(
        _REPLAY_KINDS[procedure], alpha=alpha, tau=tau, lam=lam,
        gamma=GammaSpec(kind="geometric", q=q),
    )
    levels = np.empty(study.n)
    pending: list[int] = []
    for i, x in enumerate(study.conflict_sets, start=1):
        for j in pending:  # outside X_i, so outside every later set
            if j not in x:
                engine.observe(j, float(p[j - 1]))
        pending = [j for j in pending if j in x] + [i]
        levels[i - 1] = engine.level(i, conflicts=x)
    for j in pending:
        engine.observe(j, float(p[j - 1]))
    decisions = p <= levels
    return ReplayReport(
        procedure=procedure,
        q=q,
        rejections=int(np.sum(decisions)),
        future_level=engine.future_level(),
        levels=levels,
        decisions=decisions,
    )

