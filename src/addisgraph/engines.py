"""Sequential FWER/PFER-controlling engines.

Each engine is a single-owner state machine over a 1-based hypothesis stream:

* ``level(i, ...)`` issues the significance level for index ``i`` (strictly in
  index order; conflicts may be declared inline for live streams);
* ``observe(i, p)`` reports the p-value for any already-levelled index and
  returns the threshold indicators plus the reject/accept decision.

Levels are deterministic functions of the configuration, the schedule, and
indicators of non-conflicting predecessors only; once issued they never
change.  All mutating calls are appended to an event log, which makes the
versioned snapshot trivial: serialize configuration plus events, restore by
replay — behavior after a round-trip is bit-identical by construction.
"""

from __future__ import annotations

import json
import warnings

from .core import (
    ConflictStructure,
    Indicators,
    LedgerEntry,
    TrajectoryLedger,
    check_monotone_step,
    compute_indicators,
)
from .errors import (
    DomainError,
    DuplicateObservation,
    FrozenRowViolation,
    InvalidConfig,
    MissingIndicator,
    NonContiguousSuffix,
    ScheduleViolation,
    UnknownIndex,
)
from .gammas import GammaSpec
from .weights import Alg1Columns, IncrementalRenormalizer, ShiftedGamma, WeightRule

MIN_GAP = 1e-6


class FwerEngine:
    """Shared stream bookkeeping for the concrete procedures below."""

    kind = "abstract"
    needs_lag_form = False

    def __init__(
        self,
        alpha: float = 0.2,
        tau: float = 0.8,
        lam: float = 0.16,
        gamma: GammaSpec | str = "basel",
        structure: ConflictStructure | None = None,
    ):
        if not 0.0 < alpha < 1.0:
            raise InvalidConfig(f"alpha must lie in (0,1), got {alpha}")
        self.alpha = alpha
        self.tau = tau
        self.lam = lam
        self._check_gap(tau, lam)
        self.gamma = GammaSpec.parse(gamma) if isinstance(gamma, str) else gamma
        self.structure = structure
        self.ledger = TrajectoryLedger()
        self._sets: list[frozenset[int]] = []
        self._alpha_tilde: list[float] = []  # issued alpha_i / (tau_i - lambda_i)
        self._events: list[list] = []
        self._warned_lambda = False

    @staticmethod
    def _check_gap(tau: float, lam: float) -> None:
        if not 0.0 < tau <= 1.0:
            raise InvalidConfig(f"tau must lie in (0,1], got {tau}")
        if not 0.0 <= lam < tau or tau - lam < MIN_GAP:
            raise InvalidConfig(f"need lambda in [0, tau) with gap >= {MIN_GAP}")

    # -- stream interface ---------------------------------------------------

    @property
    def issued(self) -> int:
        return len(self.ledger)

    def level(
        self,
        i: int,
        tau: float | None = None,
        lam: float | None = None,
        conflicts=None,
    ) -> float:
        """Issue the significance level for index i (must arrive in order)."""
        if i != self.issued + 1:
            raise DomainError(f"levels must be requested in order; expected {self.issued + 1}")
        tau_i = self.tau if tau is None else tau
        lam_i = self.lam if lam is None else lam
        self._check_gap(tau_i, lam_i)
        x = self._declare_conflicts(i, conflicts)
        # a plain float, so that the stream's full-precision repr is a number
        alpha_i = float(self._compute_level(i, x, tau_i, lam_i))
        self._sets.append(x)
        self._alpha_tilde.append(alpha_i / (tau_i - lam_i))
        self.ledger.append(LedgerEntry(index=i, level=alpha_i, tau=tau_i, lam=lam_i))
        self._events.append(["L", i, tau_i, lam_i, sorted(x)])
        if alpha_i > lam_i and not self._warned_lambda:
            warnings.warn(
                f"issued level {alpha_i:.6g} exceeds lambda {lam_i:.6g}; "
                "rejection and candidacy regions overlap only partially",
                RuntimeWarning,
            )
            self._warned_lambda = True
        return alpha_i

    def observe(self, i: int, p: float) -> tuple[Indicators, bool]:
        """Report the p-value of an already-levelled index; returns decision."""
        if not 1 <= i <= self.issued:
            raise UnknownIndex(f"no level issued for index {i}")
        entry = self.ledger.entries[i - 1]
        if entry.indicators is not None:
            raise DuplicateObservation(f"p-value for index {i} already reported")
        ind = compute_indicators(p, entry.tau, entry.lam, entry.level)
        self.ledger.record(i, ind)
        self._events.append(["P", i, p])
        return ind, bool(ind.r)

    # -- conflict bookkeeping ----------------------------------------------

    def _declare_conflicts(self, i: int, conflicts) -> frozenset[int]:
        """Check the conflict set of i and return it; mutates nothing."""
        if conflicts is None:
            x = self.structure.conflict_set(i) if self.structure is not None else frozenset()
        else:
            x = frozenset(conflicts)
        if any(not 1 <= j < i for j in x):
            raise DomainError(f"conflict set of {i} contains out-of-range indices")
        check_monotone_step(self._sets, i, x)
        if self.needs_lag_form and x and x != frozenset(range(i - len(x), i)):
            raise NonContiguousSuffix(
                f"{self.kind} requires contiguous-suffix conflict sets; got {sorted(x)} at {i}"
            )
        return x

    # -- helpers over recorded indicators -----------------------------------

    def _require_observed(self, indices) -> None:
        missing = [j for j in indices if self.ledger.entries[j - 1].indicators is None]
        if missing:
            raise MissingIndicator(f"levels need p-value feedback for indices {missing}")

    def _ind(self, j: int) -> Indicators:
        return self.ledger.entries[j - 1].indicators

    def _compute_level(self, i, x, tau_i, lam_i) -> float:
        raise NotImplementedError

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> dict:
        if self.gamma.kind == "custom":
            raise InvalidConfig("snapshots support named gamma specs only")
        snap = {
            "version": 1,
            "kind": self.kind,
            "alpha": self.alpha,
            "tau": self.tau,
            "lambda": self.lam,
            "gamma": self.gamma.name,
            "events": self._events,
        }
        snap.update(self._extra_config())
        return snap

    def _extra_config(self) -> dict:
        return {}

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot())

    @staticmethod
    def restore(snap: dict | str) -> "FwerEngine":
        if isinstance(snap, str):
            snap = json.loads(snap)
        if snap.get("version") != 1:
            raise InvalidConfig(f"unsupported snapshot version {snap.get('version')!r}")
        cfg = dict(snap)
        events = cfg.pop("events")
        kind = cfg.pop("kind")
        cfg.pop("version")
        cfg["lam"] = cfg.pop("lambda")
        from .extensions import FdrGraph  # extensions imports this module

        engine = FdrGraph(**cfg) if kind == FdrGraph.kind else make_engine(kind, **cfg)
        for ev in events:
            if ev[0] == "L":
                _, i, tau_i, lam_i, conf = ev
                engine.level(i, tau=tau_i, lam=lam_i, conflicts=conf)
            else:
                _, i, p = ev
                engine.observe(i, p)
        return engine


class SpendingLocal(FwerEngine):
    """Level spending with a locally shifted counter under lag conflicts.

    alpha_i = alpha (tau_i - lambda_i) gamma_{t}, where
    t = 1 + L_i + sum_{j <= i - L_i - 1} (S_j - C_j).
    """

    kind = "spending-local"
    needs_lag_form = True

    def _compute_level(self, i, x, tau_i, lam_i):
        lag = len(x)
        usable = range(1, i - lag)
        self._require_observed(usable)
        t = 1 + lag + sum(self._ind(j).s - self._ind(j).c for j in usable)
        return self.alpha * (tau_i - lam_i) * self.gamma.value(t)


class GraphConf(FwerEngine):
    """Graphical level recycling with conflict-zeroed weights.

    alpha_i = (tau_i - lambda_i) (alpha gamma_i + sum_j g*[j,i] U_j
    alpha_j / (tau_j - lambda_j)); with ``adjust="renormalize"`` the base
    weights blocked by conflicts are folded back into each source row, with
    ``adjust="none"`` the base rule is used as-is and must already vanish on
    conflicting pairs.
    """

    kind = "graph-conf"

    def __init__(self, *args, rule: WeightRule | None = None, adjust: str = "renormalize", **kwargs):
        super().__init__(*args, **kwargs)
        if adjust not in ("renormalize", "none"):
            raise InvalidConfig(f"unknown adjustment {adjust!r}")
        self.adjust = adjust
        self.base_rule = rule if rule is not None else ShiftedGamma(self.gamma)
        self._custom_rule = rule is not None
        self._renorm = IncrementalRenormalizer(self.base_rule)

    def _extra_config(self):
        if self._custom_rule:
            raise InvalidConfig("snapshots support the default shifted-gamma rule only")
        return {"adjust": self.adjust}

    def _weight(self, j: int, i: int, x: frozenset[int]) -> float:
        if self.adjust == "none":
            w = self.base_rule.weight(j, i)
            if j in x:
                if w != 0.0:
                    raise ScheduleViolation(
                        f"base rule puts weight {w} on conflicting pair ({j}, {i})"
                    )
                return 0.0
            return w
        return self._renorm.weight(j, i, conflicting=j in x)

    def _compute_level(self, i, x, tau_i, lam_i):
        self._require_observed(j for j in range(1, i) if j not in x)
        carried = 0.0
        for j in range(1, i):
            w = self._weight(j, i, x)
            if w:
                carried += w * self._ind(j).u * self._alpha_tilde[j - 1]
        return (tau_i - lam_i) * (self.alpha * self.gamma.value(i) + carried)


class GraphConfU(FwerEngine):
    """Graphical procedure with reroute-adjusted counter-indexed weights.

    Uses the data-dependent gamma-increment base rows and reroutes mass off
    conflicting pairs through the blockers' own rows; on every trajectory the
    issued level dominates the local-spending level at the same index.
    """

    kind = "graph-conf-u"
    needs_lag_form = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gamma.require_nonincreasing()
        self._cols = Alg1Columns(self.gamma)

    def _compute_level(self, i, x, tau_i, lam_i):
        lag = len(x)
        usable = range(1, i - lag)
        self._require_observed(usable)
        self._cols.set_lag(i, lag)
        for j in usable:
            self._cols.set_u(j, self._ind(j).u)
        col = self._cols.column(i)
        carried = sum(
            col[j - 1] * self._ind(j).u * self._alpha_tilde[j - 1]
            for j in usable
            if col[j - 1]
        )
        return (tau_i - lam_i) * (self.alpha * self.gamma.value(i) + carried)


class ClosedSpending(FwerEngine):
    """Closure-principle spending: rejections refund their level.

    alpha_i = alpha (tau_i - lambda_i) gamma_t with
    t = 1 + sum_{j in X_i} (1 - R_j) + sum_{j < i - L_i} (S_j - max(R_j, C_j));
    requires feedback for every predecessor, including conflicting ones
    (the closure argument, not measurability, carries the guarantee).
    """

    kind = "closed-spending"
    needs_lag_form = True

    def _compute_level(self, i, x, tau_i, lam_i):
        self._require_observed(range(1, i))
        t = 1 + sum(1 - self._ind(j).r for j in x)
        t += sum(
            self._ind(j).s - max(self._ind(j).r, self._ind(j).c) for j in range(1, i - len(x))
        )
        return self.alpha * (tau_i - lam_i) * self.gamma.value(t)


class ClosedGraph(FwerEngine):
    """Closure-principle graphical procedure.

    Conflicting predecessors forward their level on rejection, earlier ones
    under the usual recycling indicator upgraded by rejections:
    alpha_i = (tau_i - lambda_i) (alpha gamma_i
      + sum_{j in X_i} g[j,i] R_j alpha_j / (tau_j - lambda_j)
      + sum_{j < i-L_i} g[j,i] (max(R_j,C_j) - S_j + 1) alpha_j / (tau_j - lambda_j)).
    Weights on conflicting pairs are frozen when the source level is issued.
    """

    kind = "closed-graph"
    needs_lag_form = True

    def __init__(self, *args, rule: WeightRule | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.base_rule = rule if rule is not None else ShiftedGamma(self.gamma)
        self._custom_rule = rule is not None
        self._frozen: dict[int, dict[int, float]] = {}

    def _extra_config(self):
        if self._custom_rule:
            raise InvalidConfig("snapshots support the default shifted-gamma rule only")
        return {}

    def _frozen_weight(self, j: int, i: int) -> float:
        w = self.base_rule.weight(j, i)
        row = self._frozen.setdefault(j, {})
        if i in row:
            if row[i] != w:
                raise FrozenRowViolation(
                    f"weight ({j}, {i}) changed from {row[i]} to {w} after freezing"
                )
        else:
            row[i] = w
        return w

    def _compute_level(self, i, x, tau_i, lam_i):
        self._require_observed(range(1, i))
        carried = 0.0
        for j in x:
            carried += self._frozen_weight(j, i) * self._ind(j).r * self._alpha_tilde[j - 1]
        for j in range(1, i - len(x)):
            ind = self._ind(j)
            carried += (
                self.base_rule.weight(j, i)
                * (max(ind.r, ind.c) - ind.s + 1)
                * self._alpha_tilde[j - 1]
            )
        level = (tau_i - lam_i) * (self.alpha * self.gamma.value(i) + carried)
        if self.structure is not None:
            # freeze this source's weights toward its future conflicting targets,
            # once its own level stands
            for k in range(i + 1, self.structure.n + 1):
                if i in self.structure.conflict_set(k):
                    self._frozen_weight(i, k)
        return level


ENGINE_KINDS: dict[str, type[FwerEngine]] = {
    cls.kind: cls
    for cls in (SpendingLocal, GraphConf, GraphConfU, ClosedSpending, ClosedGraph)
}


def make_engine(kind: str, **config) -> FwerEngine:
    """Build an engine by its registered kind name."""
    if kind not in ENGINE_KINDS:
        raise InvalidConfig(f"unknown engine kind {kind!r}; known: {sorted(ENGINE_KINDS)}")
    return ENGINE_KINDS[kind](**config)
