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
the indicators (the batch correlation kind of ``extensions.py`` also writes
a non-candidate's frozen joint-tail surplus there).  Beside it sit one
record per index (conflict set, issued level, tau, lambda) and one per
observation (index, p-value, and how many levels had been issued when it
arrived); no ledger entry, indicator object or event list is built per
request.
The input rules live in :mod:`.core`: a conflict set is checked by
:func:`.core.declare_conflicts`, the rule that
:func:`.core.validate_conflicts` folds over a whole structure, and each
(tau, lambda) pair by :func:`.core.check_gap`.  A conflict set that is a
contiguous suffix ``{lo .. i-1}`` is held as ``range(lo, i)`` and checked
in O(1), and the graph kinds pass that range on to the renormaliser, which
zeroes the window as a slice; the engine adds only the refusal of non-suffix
sets by the kinds that need lags, ``graph-conf-u`` and the closed kinds.
``engine.ledger`` is a read-only ledger view of these rows.  The versioned
snapshot is the configuration plus the accepted calls in arrival order,
rebuilt from the records; restore replays them, so behavior after a
round-trip is bit-identical by construction.
"""

from __future__ import annotations

import json
import warnings
from array import array
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np

from .core import (
    ConflictStructure,
    Indicators,
    LedgerEntry,
    check_gap,
    compute_indicators,
    declare_conflicts,
)
from .errors import (
    DomainError,
    DuplicateObservation,
    IncompleteLedger,
    InvalidConfig,
    MissingIndicator,
    NonContiguousSuffix,
    ScheduleViolation,
    UnknownIndex,
)
from .gammas import GammaSpec
from .weights import (
    Closure,
    ClosureCounter,
    HeldMass,
    IncrementalRenormalizer,
    ShiftedGamma,
    WeightRule,
    blocked_mask,
)


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
        check_gap(tau, lam)
        self.gamma = GammaSpec.parse(gamma) if isinstance(gamma, str) else gamma
        self.structure = structure
        self.issued = 0
        self._warned_lambda = False
        self._pending: set[int] = set()  # issued, not yet observed
        # Per index: X_i (range(lo, i) when it is a contiguous suffix, else a
        # frozenset), the issued level, and tau and lambda as given, which the
        # snapshot writes back unchanged.
        self._sets: list[range | frozenset[int]] = []
        self._levels: list[float] = []
        self._taus: list[float] = []
        self._lams: list[float] = []
        # Per observation, in arrival order: its index, its p-value as given
        # and the number of levels issued before it.
        self._seen_index = array("q")
        self._seen_p: list[float] = []
        self._seen_issued = array("q")
        # Per-index rows S, C, R, U (zero until observed), the propagated
        # level over its gap, alpha_j / (tau_j - lambda_j), and the carry
        # U_j alpha_j / (tau_j - lambda_j) (zero until observed); doubled on demand.
        self._state = np.zeros((6, 64))
        self._s, self._c, self._r, self._u, self._alpha_tilde, self._carry = self._state

    @property
    def ledger(self) -> "RowLedger":
        """The trajectory so far, read from the rows."""
        return RowLedger(self)

    # -- stream interface ---------------------------------------------------

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
        if tau is not None or lam is not None:  # the configured pair was checked in __init__
            check_gap(tau_i, lam_i)
        x = self._declare_conflicts(i, conflicts)
        # plain floats, so that the stream's full-precision repr is a number
        propagated = float(self._compute_level(i, x, tau_i, lam_i))
        alpha_i = self._testing_level(propagated, lam_i)
        self._reserve(i)
        self._alpha_tilde[i - 1] = propagated / (tau_i - lam_i)
        self._sets.append(x)
        self._pending.add(i)
        self._levels.append(alpha_i)
        self._taus.append(tau_i)
        self._lams.append(lam_i)
        self.issued = i
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
        if i not in self._pending:
            raise DuplicateObservation(f"p-value for index {i} already reported")
        k = i - 1
        ind = compute_indicators(p, self._taus[k], self._lams[k], self._levels[k])
        self._s[k] = ind.s
        self._c[k] = ind.c
        self._r[k] = ind.r
        self._u[k] = u = ind.c - ind.s + 1
        self._carry[k] = u * self._alpha_tilde[k]
        self._pending.remove(i)
        self._seen_index.append(i)
        self._seen_p.append(p)
        self._seen_issued.append(self.issued)
        self._observed(i, ind)
        return ind, bool(ind.r)

    def _observed(self, i: int, ind: Indicators) -> None:
        """Hook run once observe(i, ...) has recorded the indicators of i."""

    # -- conflict bookkeeping ----------------------------------------------

    def _declare_conflicts(self, i: int, conflicts) -> range | frozenset[int]:
        """The conflict set of i, inline or from the structure, checked by
        :func:`.core.declare_conflicts`; mutates nothing."""
        if conflicts is None:
            structure = self.structure
            if structure is None or i > structure.n:
                conflicts = range(i, i)
            elif structure.lags is not None:
                conflicts = range(i - structure.lags[i - 1], i)
            else:
                conflicts = structure.conflict_set(i)
        x = declare_conflicts(self._sets, i, conflicts)
        if type(x) is not range and self.needs_lag_form:
            raise NonContiguousSuffix(
                f"{self.kind} requires contiguous-suffix conflict sets; got {sorted(x)} at {i}"
            )
        return x

    # -- helpers over recorded state ---------------------------------------

    def _entry(self, k: int) -> LedgerEntry:
        """The ledger entry of index k + 1, built from the rows."""
        indicators = None
        if k + 1 not in self._pending:
            indicators = Indicators(int(self._s[k]), int(self._c[k]), int(self._r[k]))
        return LedgerEntry(
            index=k + 1, level=self._levels[k], tau=self._taus[k], lam=self._lams[k],
            indicators=indicators,
        )

    def _corr_rows(self) -> tuple[list, list, list]:
        """The ledger's joint-tail levels, batches and lambdas: no batch and
        no joint tail here."""
        none = [None] * self.issued
        return none, none, self._lams

    def _reserve(self, n: int) -> None:
        cap = self._state.shape[1]
        if n > cap:
            table = np.zeros((6, max(n, 2 * cap)))
            table[:, :cap] = self._state
            self._state = table
            self._s, self._c, self._r, self._u, self._alpha_tilde, self._carry = table

    def _require_observed(self, below: int, exempt: range | frozenset[int] = frozenset()) -> None:
        """Raise unless every index < ``below`` outside ``exempt`` is observed.

        Only the least pending index is looked up when it is at least
        ``below``, or when ``exempt`` is a range that holds it and reaches
        ``below``; otherwise every pending index is visited.
        """
        pending = self._pending
        if not pending:
            return
        first = min(pending)
        if first >= below or (
            type(exempt) is range and exempt.start <= first and below <= exempt.stop
        ):
            return
        missing = sorted(j for j in pending if j < below and j not in exempt)
        if missing:
            raise MissingIndicator(f"levels need p-value feedback for indices {missing}")

    def _compute_level(self, i, x, tau_i, lam_i) -> float:
        """The level of i that later levels build on; must change no state
        before its last check has passed."""
        raise NotImplementedError

    def _testing_level(self, propagated: float, lam_i: float) -> float:
        """The level issued for testing, from the propagated one."""
        return propagated

    # -- snapshot / restore -------------------------------------------------

    def _events(self) -> list[list]:
        """Every accepted call in arrival order, rebuilt from the rows: the
        levels come in index order, and each observation after as many of
        them as had been issued when it arrived."""
        sets, taus, lams = self._sets, self._taus, self._lams

        def level_event(k):
            x = sets[k]
            return ["L", k + 1, taus[k], lams[k], list(x) if type(x) is range else sorted(x)]

        events = []
        k = 0
        for i, p, m in zip(self._seen_index, self._seen_p, self._seen_issued):
            events.extend(level_event(j) for j in range(k, m))
            k = m  # nondecreasing over the observations
            events.append(["P", i, p])
        events.extend(level_event(j) for j in range(k, self.issued))
        return events

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
            "events": self._events(),
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


class RowLedger(Sequence):
    """Read-only :class:`.core.TrajectoryLedger` view of an engine's rows,
    which is also its own sequence of entries.

    Each :class:`.core.LedgerEntry` is built on access by the engine's
    ``_entry``, in O(1); :meth:`rows`, which the checkers read, is one
    numpy slice of the engine's rows.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: FwerEngine):
        self._engine = engine

    @property
    def entries(self) -> "RowLedger":
        return self

    def __len__(self) -> int:
        return self._engine.issued

    def __getitem__(self, k):
        e = self._engine
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(e.issued))]
        if k < 0:
            k += e.issued
        if not 0 <= k < e.issued:
            raise IndexError("ledger index out of range")
        return e._entry(k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RowLedger, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))

    def rows(self) -> tuple[np.ndarray, ...]:
        """Float64 rows ``(level, gap, s, c, r)`` sliced from the engine's
        state, as :meth:`.core.TrajectoryLedger.rows` gives them, without
        building an entry; ``IncompleteLedger`` while any p-value is pending."""
        e = self._engine
        if e._pending:
            missing = sorted(e._pending)
            raise IncompleteLedger(f"no indicators recorded for indices {missing}")
        gap = np.array(e._taus, dtype=np.float64) - np.array(e._lams, dtype=np.float64)
        s, c, r = e._state[:3, : e.issued].copy()
        return np.array(e._levels, dtype=np.float64), gap, s, c, r

    def corr_rows(self) -> tuple[list, list, list]:
        """Per index, its joint-tail level and its batch (each None where the
        engine has none) and its lambda, read from the engine's lists as
        :meth:`.core.TrajectoryLedger.corr_rows` gives them."""
        return self._engine._corr_rows()


class SpendingLocal(FwerEngine):
    """Level spending with a counter that skips any monotone conflict set.

    alpha_i = alpha (tau_i - lambda_i) gamma_t, where
    t = 1 + |X_i| + sum_{j < i, j not in X_i} (S_j - C_j).  Every pending
    index lies in X_i and U_j = 1 - (S_j - C_j) (zero while pending), so
    t = 1 + net + |pending| + sum_{j in X_i} U_j, net summing S - C over
    the observations.
    """

    kind = "spending-local"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._net = 0

    def _compute_level(self, i, x, tau_i, lam_i):
        self._require_observed(i, x)
        if type(x) is range:
            held = self._u[x.start - 1 : i - 1].sum()
        else:
            held = self._u[np.fromiter(x, np.intp, len(x)) - 1].sum()
        t = 1 + self._net + len(self._pending) + int(held)
        return self.alpha * (tau_i - lam_i) * self.gamma.value(t)

    def _observed(self, i, ind):
        self._net += ind.s - ind.c

    def future_level(self) -> float:
        """alpha sum_{k > net} gamma_k, the level left for a conflict-free
        continuation; ``MissingIndicator`` while any p-value is pending."""
        self._require_observed(self.issued + 1)
        return float(self.alpha * self.gamma.tail_sum(self._net))


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
        if self.adjust == "none":
            col = self.base_rule.column(i)
            bad = np.flatnonzero(blocked_mask(i, x) & (col != 0.0))
            if bad.size:
                j = int(bad[0]) + 1
                raise ScheduleViolation(
                    f"base rule puts weight {col[j - 1]} on conflicting pair ({j}, {i})"
                )
        else:
            col, cleared = self._renorm.column(i, x)
            self._renorm.pin(cleared)  # nothing below can fail
        carried = col @ self._carry[: i - 1]
        return (tau_i - lam_i) * (self.alpha * self.gamma.value(i) + carried)

    def future_level(self) -> float:
        """The seed tail past the last index plus each source's carried mass
        beyond it, the level left for a conflict-free continuation;
        ``MissingIndicator`` while any p-value is pending."""
        self._require_observed(self.issued + 1)
        n = self.issued
        rule = self._renorm if self.adjust == "renormalize" else self.base_rule
        carried = sum(self._carry[j - 1] * rule.tail_mass(j, n) for j in range(1, n + 1))
        return float(self.alpha * self.gamma.tail_sum(n) + carried)


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
    """A closed kind's kernel with one trial (the closed runners drive it with
    many).  Levels need feedback for every predecessor, even conflicting
    ones: the closure argument, not measurability, carries them."""

    needs_lag_form = True

    def _absorbed(self, i: int) -> ClosureCounter | Closure:
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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._closure = ClosureCounter()

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
        self._closure = Closure(self.alpha)
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
