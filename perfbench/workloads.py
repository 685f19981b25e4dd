"""Inputs, timed units and correctness checks of the three workloads.

Everything here is a pure function of the workload seed: the grid files of
the two sweeps and the protocol lines of the stream are generated from it,
so the same seed always yields the same inputs.  The package receives only
those generated inputs, through its public entry points.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import speed
from addisgraph import core, engines, sim, stream
from addisgraph.errors import AddisGraphError
from addisgraph.extensions import AdaptiveGraphCorr, CorrModel, FdrGraph

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

SWEEPS = ("sweep-reroute", "sweep-many")
STREAM = "stream-async"

_GRIDS = {
    # The two O(n^3)-per-trial runners, across conflict windows 0..19.
    "sweep-reroute": (
        "procedure = graph-conf-u, adaptive-graph-corr\n"
        "gamma = basel\nn = 100\nb = 1, 5, 20\npi_a = 0.5\ntrials = 500\n"
    ),
    # Cheap runners: data generation and metrics dominate; 12 data sets
    # are each reused by the 5 procedures.
    "sweep-many": (
        "procedure = spending-local, graph-conf, closed-spending, closed-graph, fdr-graph\n"
        "gamma = basel\nn = 100\nb = 1, 5, 10, 20\npi_a = 0.1, 0.5, 0.9\ntrials = 1000\n"
    ),
}

STREAM_KINDS = (
    "spending-local",
    "graph-conf",
    "graph-conf-u",
    "closed-spending",
    "closed-graph",
    "fdr-graph",
)
STREAM_N = 800
STREAM_DELAY = 10  # H i declares conflicts {i-10 .. i-1}
CLOSED_KINDS = ("closed-spending", "closed-graph")

BUDGET_TOL = 1e-10
CROSS_CHECK_RTOL = 1e-12
CROSS_CHECK_POINTS = 3  # sampled grid points (one trial each) per procedure


def grid_text(workload: str, seed: int) -> str:
    return _GRIDS[workload] + f"seed = {seed}\n"


# ---------------------------------------------------------------------------
# the line-protocol client


def protocol_lines(kind: str, p_row, lags) -> list[str]:
    """Requests of one closed-loop session, each ``P`` sent as late as allowed.

    ``H i`` declares the conflict suffix ``{i-L_i .. i-1}``.  An open kind
    needs the p-values of ``1 .. i-L_i-1`` before it can level ``i``, so
    exactly those are sent just before ``H i``; closed kinds need every
    predecessor, so their ``P i`` follows ``H i`` at once.
    """
    n = len(p_row)
    closed = kind in CLOSED_KINDS
    lines = []
    sent = 0  # p-values of 1..sent have been reported
    for i in range(1, n + 1):
        lo = i - int(lags[i - 1])
        if not closed:
            while sent < lo - 1:
                sent += 1
                lines.append(f"P {sent} {float(p_row[sent - 1])!r}")
        conflicts = ",".join(str(j) for j in range(lo, i))
        lines.append(f"H {i} conflicts={conflicts}" if conflicts else f"H {i}")
        if closed:
            sent = i
            lines.append(f"P {i} {float(p_row[i - 1])!r}")
    while sent < n:
        sent += 1
        lines.append(f"P {sent} {float(p_row[sent - 1])!r}")
    return lines


_NUMPY_REPR = re.compile(r"np\.float64\((.+)\)")


def parse_level(token: str) -> tuple[float, bool]:
    """The level a ``LEVEL`` reply carries, and whether it is a plain float.

    At full precision the session prints ``repr(level)``, which for a numpy
    scalar reads ``np.float64(<repr>)``; the value inside is still exact.
    """
    try:
        return float(token), True
    except ValueError:
        m = _NUMPY_REPR.fullmatch(token)
        if m is None:
            raise
        return float(m.group(1)), False


def check_replies(lines, replies, p_row) -> tuple[dict[int, float], list[str], int]:
    """Levels issued by a session, its protocol violations, and the number
    of ``LEVEL`` replies whose number is not a plain float.

    A reply must never be ``ERR``; ``LEVEL`` must echo its index; a decision
    must reject exactly when ``p <= level`` at full precision.
    """
    levels: dict[int, float] = {}
    problems = []
    malformed = 0
    for line, reply in zip(lines, replies):
        cmd = line.split()
        words = reply.split()
        if words[0] == "ERR":
            problems.append(f"{line!r} -> {reply!r}")
        elif cmd[0] == "H":
            i = int(cmd[1])
            if words[0] != "LEVEL" or int(words[1]) != i:
                problems.append(f"{line!r} -> {reply!r}")
            else:
                levels[i], plain = parse_level(words[2])
                malformed += not plain
        elif cmd[0] == "P":
            j = int(cmd[1])
            reject = words[2] == "reject"
            if words[0] != "DECISION" or int(words[1]) != j or j not in levels:
                problems.append(f"{line!r} -> {reply!r}")
            elif reject != (float(p_row[j - 1]) <= levels[j]):
                problems.append(f"decision for {j} disagrees with p <= level: {reply!r}")
    return levels, problems, malformed


def new_engine(kind: str):
    # make_engine does not register the FDR variant, so it is built directly.
    if kind == "fdr-graph":
        return FdrGraph(gamma="basel")
    return engines.make_engine(kind, gamma="basel")


def certify(engine) -> core.ConditionReport:
    """The budget condition that backs the engine's error-rate guarantee."""
    if isinstance(engine, AdaptiveGraphCorr):
        return core.check_corr_condition(
            engine.ledger, engine.model.lambda_by_batch(), engine.alpha
        )
    if isinstance(engine, FdrGraph):
        return core.check_fdr_condition(engine.ledger, engine.alpha)
    return core.check_fwer_condition(engine.ledger, engine.alpha)


def same_ledger(a, b) -> bool:
    """Bit-for-bit equality of levels, thresholds and indicators."""
    ea, eb = a.ledger.entries, b.ledger.entries
    return len(ea) == len(eb) and all(
        x.level == y.level and x.tau == y.tau and x.lam == y.lam and x.indicators == y.indicators
        for x, y in zip(ea, eb)
    )


# ---------------------------------------------------------------------------
# stream-async


@dataclass
class SessionInput:
    kind: str
    p_row: np.ndarray
    lines: list[str]


@dataclass
class CycleResult:
    """One pass over the six sessions.

    Latencies per kind come raw and normalised for machine speed (speed.py).
    """

    wall: float = 0.0  # whole cycle, checks and resumes included
    live_wall: float = 0.0  # summed request latencies
    live_norm: float = 0.0  # the same, in normalised seconds
    requests: int = 0
    errors: int = 0
    malformed: dict[str, int] = field(default_factory=dict)  # non-float LEVEL replies
    resumes: int = 0
    resume_failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    level_s: dict[str, list[float]] = field(default_factory=dict)
    observe_s: dict[str, list[float]] = field(default_factory=dict)
    level_norm: dict[str, list[float]] = field(default_factory=dict)
    observe_norm: dict[str, list[float]] = field(default_factory=dict)
    snapshot_bytes: dict[str, int] = field(default_factory=dict)
    alg1_bytes: int = 0


class StreamWorkload:
    """One session per engine kind over n hypotheses with delay-e conflicts."""

    def __init__(self, seed: int, workdir: Path, n: int = STREAM_N, e: int = STREAM_DELAY):
        config = sim.SimConfig(
            n=n, b=1, e=e, pi_a=0.3, mu_n=-0.5, trials=len(STREAM_KINDS), seed=seed
        )
        p, _ = sim.generate_data(config)
        lags = config.lags()
        self.workdir = workdir
        self.inputs = [
            SessionInput(kind, p[k], protocol_lines(kind, p[k], lags))
            for k, kind in enumerate(STREAM_KINDS)
        ]

    def run_cycle(self, resume: bool, tracer=None) -> CycleResult:
        """Serve every session; with ``resume``, also resume each one from
        its snapshot and compare it with the live session."""
        res = CycleResult()
        t_cycle = perf_counter()
        for inp in self.inputs:
            self._run_session(inp, res, resume, tracer)
        res.wall = perf_counter() - t_cycle
        return res

    def _run_session(self, inp: SessionInput, res: CycleResult, resume: bool, tracer) -> None:
        kind = inp.kind
        snap_path = self.workdir / f"{kind}.snapshot.json"
        lines = inp.lines + [f"SAVE {snap_path}"]
        session = stream.StreamSession(new_engine(kind), full_precision=True)
        if tracer is not None:
            tracer.label = kind
        replies, raw, norm = speed.normalised_latencies(session.handle, lines)
        res.live_wall += sum(raw)
        res.live_norm += sum(norm)
        res.requests += len(lines)
        is_h = [line[0] == "H" for line in lines]
        is_p = [line[0] == "P" for line in lines]
        res.level_s[kind] = [t for t, h in zip(raw, is_h) if h]
        res.observe_s[kind] = [t for t, p in zip(raw, is_p) if p]
        res.level_norm[kind] = [t for t, h in zip(norm, is_h) if h]
        res.observe_norm[kind] = [t for t, p in zip(norm, is_p) if p]

        levels, problems, malformed = check_replies(inp.lines, replies, inp.p_row)
        res.errors += sum(r.startswith("ERR") for r in replies)
        res.malformed[kind] = malformed
        res.problems += [f"{kind}: {msg}" for msg in problems]
        if replies[-1] != f"SAVED {snap_path}":
            res.problems.append(f"{kind}: SAVE answered {replies[-1]!r}")
        live = session.engine
        if [levels.get(e.index) for e in live.ledger.entries] != [
            e.level for e in live.ledger.entries
        ]:
            res.problems.append(f"{kind}: LEVEL replies differ from the ledger")
        report = certify(live)
        if not report.passed:
            res.problems.append(
                f"{kind}: budget condition fails at {report.worst_index} "
                f"(spend {report.max_spend!r})"
            )
        res.snapshot_bytes[kind] = snap_path.stat().st_size
        if kind == "graph-conf-u":
            res.alg1_bytes = live._cols.g.nbytes + live._cols.gm.nbytes
        if resume:
            if tracer is not None:
                tracer.label = f"restore:{kind}"
            self._resume(kind, snap_path, live, res)
        if tracer is not None:
            tracer.label = None

    @staticmethod
    def _resume(kind, snap_path, live, res: CycleResult) -> None:
        res.resumes += 1
        try:
            resumed = stream.StreamSession.from_snapshot(snap_path, full_precision=True)
        except AddisGraphError as exc:
            # A failed resume is a failed operation, not a wrong answer.
            res.resume_failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return
        if not same_ledger(live, resumed.engine):
            res.problems.append(f"{kind}: resumed session differs from the live one")


# ---------------------------------------------------------------------------
# sweeps


def runner_lags(config) -> np.ndarray:
    """Conflict lags the vectorized runner of ``config`` actually applies."""
    if config.procedure == "fdr-graph":  # the FDR runner uses e alone, not batches
        return np.minimum(config.e or 0, np.arange(config.n))
    return config.lags()


def engine_levels(config, p_row) -> tuple[np.ndarray, object, list[str]]:
    """Levels of one trial from the sequential engine, plus its problems.

    Engine kinds go through the line protocol at full precision, which
    round-trips every float exactly; the batch-correlation engine has no
    protocol form and is driven directly.
    """
    if config.procedure == "adaptive-graph-corr":
        structure = core.ConflictStructure.from_batches([config.b] * (config.n // config.b))
        model = CorrModel(structure=structure, lam=config.lam, rho=config.rho)
        engine = AdaptiveGraphCorr(model, alpha=config.alpha, gamma=config.gamma_spec)
        out = np.empty(config.n)
        for i in range(1, config.n + 1):
            for j in range(1, i - (i - 1) % config.b):
                if engine.ledger.entries[j - 1].indicators is None:
                    engine.observe(j, float(p_row[j - 1]))
            out[i - 1] = engine.level(i)
        for j in range(1, config.n + 1):
            if engine.ledger.entries[j - 1].indicators is None:
                engine.observe(j, float(p_row[j - 1]))
        return out, engine, []
    if config.procedure == "fdr-graph":
        engine = FdrGraph(
            alpha=config.alpha, tau=config.tau, lam=config.lam, w0=config.w0,
            gamma=config.gamma_spec,
        )
    else:
        engine = engines.make_engine(
            config.procedure, alpha=config.alpha, tau=config.tau, lam=config.lam,
            gamma=config.gamma_spec,
        )
    session = stream.StreamSession(engine, full_precision=True)
    lines = protocol_lines(config.procedure, p_row, runner_lags(config))
    replies = [session.handle(line) for line in lines]
    levels, problems, _ = check_replies(lines, replies, p_row)
    out = np.array([levels.get(i, math.nan) for i in range(1, config.n + 1)])
    return out, engine, problems


@contextmanager
def _after_call(owner, attr: str, after):
    original = getattr(owner, attr)

    def hooked(*args, **kwargs):
        out = original(*args, **kwargs)
        after(args, out)
        return out

    setattr(owner, attr, hooked)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class SweepWorkload:
    """``run_grid`` over a generated grid file: the ``simulate --threads 1`` path."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.grid_path = workdir / "grid.cfg"
        self.csv_path = workdir / "results.csv"
        self.grid_path.write_text(grid_text(workload, seed))
        self.configs = sim.parse_grid_file(self.grid_path)
        self.hyp_trials = sum(c.n * c.trials for c in self.configs)
        self.digests: set[str] = set()

    def run_rep(self, check=None) -> tuple[list[float], list[float]]:
        """One ``run_grid``: raw and normalised times of its segments (see
        ``speed.Segments``), one ending with each grid point's ``run_config``
        and a last one, the CSV, to the end.

        ``check(args, levels)`` is called after every ``compute_levels``;
        its time is in no segment.
        """
        seg = speed.Segments()

        def checked(args, levels):
            t0 = perf_counter()
            check(args, levels)
            seg.exclude(perf_counter() - t0)

        with ExitStack() as hooks:
            hooks.enter_context(_after_call(sim, "run_config", lambda args, out: seg.mark()))
            if check is not None:
                hooks.enter_context(_after_call(sim, "compute_levels", checked))
            sim.run_grid(sim.parse_grid_file(self.grid_path), csv_path=self.csv_path,
                         threads=1)
        seg.mark()
        norm = seg.close()
        self.digests.add(hashlib.sha256(self.csv_path.read_bytes()).hexdigest())
        return seg.raw, norm

    def _sampled(self) -> dict[tuple, int]:
        """(procedure, b, pi_a) -> trial index of the points cross-checked."""
        rng = np.random.default_rng([self.seed, 2301])
        picks = {}
        for proc in dict.fromkeys(c.procedure for c in self.configs):
            points = [c for c in self.configs if c.procedure == proc]
            chosen = rng.choice(len(points), size=min(CROSS_CHECK_POINTS, len(points)),
                                replace=False)
            for k in sorted(chosen):
                c = points[k]
                picks[(c.procedure, c.b, c.pi_a)] = int(rng.integers(c.trials))
        return picks

    def verified_rep(self) -> tuple[list[float], list[float], list[str]]:
        """One rep with the budget and runner-vs-engine checks hooked in:
        its segment times, raw and normalised, and its problems."""
        picks = self._sampled()
        samples = []
        problems = []

        def check(args, levels):
            config, p = args
            if config.procedure in sim.FWER_PROCEDURES:
                spend = sim.max_budget_spend(p, levels, config.tau, config.lam)
                worst = int(np.argmax(spend))
                if not spend[worst] <= config.alpha + BUDGET_TOL:
                    problems.append(
                        f"{config.procedure} b={config.b} pi_a={config.pi_a}: trial {worst} "
                        f"spends {float(spend[worst])!r} > alpha"
                    )
            t = picks.get((config.procedure, config.b, config.pi_a))
            if t is not None:
                samples.append((config, p[t].copy(), levels[t].copy(), t))

        raw, norm = self.run_rep(check)
        for config, p_row, runner, t in samples:
            where = f"{config.procedure} b={config.b} pi_a={config.pi_a} trial {t}"
            seq, engine, msgs = engine_levels(config, p_row)
            problems += [f"{where}: {m}" for m in msgs]
            err = float(np.max(np.abs(seq - runner) / np.abs(runner)))
            if not err <= CROSS_CHECK_RTOL:
                problems.append(f"{where}: runner and engine differ by {err!r} (relative)")
            report = certify(engine)
            if not report.passed:
                problems.append(f"{where}: engine ledger fails its budget condition")
        return raw, norm, problems

    def digest_problems(self) -> list[str]:
        problems = []
        if len(self.digests) != 1:
            problems.append(f"CSV differs between reps: {sorted(self.digests)}")
        recorded = recorded_digest(self.workload, self.seed)
        if recorded is not None and self.digests != {recorded}:
            problems.append(f"CSV digest {sorted(self.digests)} != recorded {recorded}")
        return problems


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(seed: int, loadavg) -> dict:
    import platform
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": loadavg,
        "seed": seed,
    }
