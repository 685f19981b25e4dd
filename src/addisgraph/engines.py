"""Sequential FWER/PFER-controlling engines.

Each engine is a single-owner state machine over a 1-based hypothesis stream:

* ``level(i, ...)`` issues the significance level for index ``i`` (strictly in
  index order; conflicts may be declared inline for live streams);
* ``observe(i, p)`` reports the p-value for any already-levelled index and
  returns the threshold indicators plus the reject/accept decision.

Levels are deterministic functions of the configuration, the schedule, and
indicators of non-conflicting predecessors only; once issued they never
change.  Engines keep per-index arrays of indicators and propagated levels
as they go, so a level is a dot product over them, not a loop over the
predecessors.  The state is one block of six per-index rows: S, C, R and U
(zero until observed), the propagated level over its gap,
``alpha_j / (tau_j - lambda_j)``, and the carry row ``U_j alpha_j / (tau_j -
lambda_j)`` that the graph kinds recycle, written when ``observe`` records
the indicators.  All mutating calls are appended to an event log, which makes
the versioned snapshot trivial: serialize configuration plus events, restore
by replay — behavior after a round-trip is bit-identical by construction.
"""

from __future__ import annotations

import json
import warnings
from types import SimpleNamespace

import numpy as np

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
    InvalidConfig,
    MissingIndicator,
    NonContiguousSuffix,
    ScheduleViolation,
    UnknownIndex,
)
from .gammas import GammaSpec
from .weights import Closure, HeldMass, IncrementalRenormalizer, ShiftedGamma, WeightRule

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
        self._events: list[list] = []
        self._warned_lambda = False
        self._pending: set[int] = set()  # issued, not yet observed
        # Per-index rows S, C, R, U (zero until observed), the propagated
        # level over its gap, alpha_j / (tau_j - lambda_j), and the carry
        # U_j alpha_j / (tau_j - lambda_j) (zero until observed); doubled on demand.
        self._state = np.zeros((6, 64))
        self._s, self._c, self._r, self._u, self._alpha_tilde, self._carry = self._state
        # Running sum of S - C over the longest observed prefix (entry k: 1..k).
        self._spent = [0]

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
        # plain floats, so that the stream's full-precision repr is a number
        propagated = float(self._compute_level(i, x, tau_i, lam_i))
        alpha_i = self._testing_level(propagated, lam_i)
        self._reserve(i)
        self._alpha_tilde[i - 1] = propagated / (tau_i - lam_i)
        self._sets.append(x)
        self._pending.add(i)
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
        self._state[:4, i - 1] = ind.s, ind.c, ind.r, ind.u
        self._carry[i - 1] = self._u[i - 1] * self._alpha_tilde[i - 1]
        self._pending.discard(i)
        self._events.append(["P", i, p])
        done = len(self._spent) - 1
        while done < self.issued and done + 1 not in self._pending:
            prev = self.ledger.entries[done].indicators
            self._spent.append(self._spent[-1] + prev.s - prev.c)
            done += 1
        self._observed(i, ind)
        return ind, bool(ind.r)

    def _observed(self, i: int, ind: Indicators) -> None:
        """Hook run once observe(i, ...) has recorded the indicators of i."""

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

    # -- helpers over recorded state ---------------------------------------

    def _reserve(self, n: int) -> None:
        cap = self._state.shape[1]
        if n > cap:
            table = np.zeros((6, max(n, 2 * cap)))
            table[:, :cap] = self._state
            self._state = table
            self._s, self._c, self._r, self._u, self._alpha_tilde, self._carry = table

    def _require_observed(self, below: int, exempt: frozenset[int] = frozenset()) -> None:
        """Raise unless every index < ``below`` outside ``exempt`` is observed."""
        missing = sorted(j for j in self._pending if j < below and j not in exempt)
        if missing:
            raise MissingIndicator(f"levels need p-value feedback for indices {missing}")

    @staticmethod
    def _blocked(i: int, x: frozenset[int]) -> np.ndarray:
        """Mask over sources 1..i-1 that conflict with i."""
        blocked = np.zeros(i - 1, dtype=bool)
        if x:
            blocked[np.fromiter(x, np.intp, len(x)) - 1] = True
        return blocked

    def _compute_level(self, i, x, tau_i, lam_i) -> float:
        """The level of i that later levels build on; must change no state
        before its last check has passed."""
        raise NotImplementedError

    def _testing_level(self, propagated: float, lam_i: float) -> float:
        """The level issued for testing, from the propagated one."""
        return propagated

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
        engine = make_engine(kind, **cfg)
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
        self._require_observed(i - lag)
        t = 1 + lag + self._spent[i - lag - 1]
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

    def _compute_level(self, i, x, tau_i, lam_i):
        self._require_observed(i, x)
        blocked = self._blocked(i, x)
        if self.adjust == "none":
            col = self.base_rule.column(i)
            bad = np.flatnonzero(blocked & (col != 0.0))
            if bad.size:
                j = int(bad[0]) + 1
                raise ScheduleViolation(
                    f"base rule puts weight {col[j - 1]} on conflicting pair ({j}, {i})"
                )
        else:
            col, cleared = self._renorm.column(i, blocked)
            self._renorm.pin(cleared)  # nothing below can fail
        carried = col @ self._carry[: i - 1]
        return (tau_i - lam_i) * (self.alpha * self.gamma.value(i) + carried)


class GraphConfU(FwerEngine):
    """Graphical procedure with reroute-adjusted counter-indexed weights.

    Uses the data-dependent gamma-increment base rows and reroutes mass off
    conflicting pairs through the blockers' own rows; on every trajectory the
    issued level dominates the local-spending level at the same index.  The
    reroute table is never formed: levels come from the held-mass kernel
    :class:`.weights.HeldMass` with one trial, the kernel the runner
    :func:`.sim.levels_graph_conf_u` drives with many.
    """

    kind = "graph-conf-u"
    needs_lag_form = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gamma.require_nonincreasing()
        self._held = HeldMass(self.gamma, self.alpha)

    @property
    def _cols(self):
        # Read by perfbench/workloads.py (the nbytes of g and gm) until it
        # reads a public method instead (ROADMAP item 3).
        return SimpleNamespace(g=self._held.state, gm=self._held.off)

    def _compute_level(self, i, x, tau_i, lam_i):
        c = i - len(x)  # sources 1 .. c-1 carry weight
        self._require_observed(c)
        held = self._held
        for m in range(held.final + 1, c):
            held.hold(m, m - len(self._sets[m - 1]), self._u[m - 1 : m])
        return (tau_i - lam_i) * held.level(i, c)[0]


class ClosedEngine(FwerEngine):
    """The kernel :class:`.weights.Closure` with one trial (the closed runners
    drive it with many).  Levels need feedback for every predecessor, even
    conflicting ones: the closure argument, not measurability, carries them."""

    needs_lag_form = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._closure = Closure(self.alpha)

    def _absorbed(self, i: int) -> Closure:
        """The kernel with every index before i absorbed."""
        self._require_observed(i)
        closure = self._closure
        for j in range(closure.final + 1, i):
            closure.absorb(j, self._s[j - 1], self._c[j - 1], self._r[j - 1])
        return closure


class ClosedSpending(ClosedEngine):
    """Closure-principle spending: rejections refund their level.

    alpha_i = alpha (tau_i - lambda_i) gamma_t with
    t = 1 + sum_{j in X_i} (1 - R_j) + sum_{j < i - L_i} (S_j - max(R_j, C_j)).
    """

    kind = "closed-spending"

    def _compute_level(self, i, x, tau_i, lam_i):
        t = int(self._absorbed(i).counter(i, len(x))[0])
        return self.alpha * (tau_i - lam_i) * self.gamma.value(t)


class ClosedGraph(ClosedEngine):
    """Closure-principle graphical procedure.

    Conflicting predecessors forward their level on rejection, earlier ones
    under the usual recycling indicator upgraded by rejections:
    alpha_i = (tau_i - lambda_i) (alpha gamma_i
      + sum_{j in X_i} g[j,i] R_j alpha_j / (tau_j - lambda_j)
      + sum_{j < i-L_i} g[j,i] (max(R_j,C_j) - S_j + 1) alpha_j / (tau_j - lambda_j)).
    """

    kind = "closed-graph"

    def __init__(self, *args, rule: WeightRule | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.base_rule = rule if rule is not None else ShiftedGamma(self.gamma)
        self._custom_rule = rule is not None

    def _extra_config(self):
        if self._custom_rule:
            raise InvalidConfig("snapshots support the default shifted-gamma rule only")
        return {}

    def _compute_level(self, i, x, tau_i, lam_i):
        closure = self._absorbed(i)
        at = closure.level(i, i - len(x), self.gamma.value(i), self.base_rule.column(i))
        return (tau_i - lam_i) * at[0]


# extensions.py, which the package always imports, adds FdrGraph
ENGINE_KINDS: dict[str, type[FwerEngine]] = {
    cls.kind: cls
    for cls in (SpendingLocal, GraphConf, GraphConfU, ClosedSpending, ClosedGraph)
}


def make_engine(kind: str, **config) -> FwerEngine:
    """Build an engine by its registered kind name."""
    if kind not in ENGINE_KINDS:
        raise InvalidConfig(f"unknown engine kind {kind!r}; known: {sorted(ENGINE_KINDS)}")
    return ENGINE_KINDS[kind](**config)
