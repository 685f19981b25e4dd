"""Command-line entry points.

* ``simulate`` — run a grid of simulation configurations to a CSV.
* ``stream``   — interactive line-protocol session over stdin/stdout.
* ``replay``   — replay a recorded study file and report rejections plus
  the level still available to future hypotheses.
* ``verify``   — run the independent verification oracles and report
  pass/fail with worst-case witnesses.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import core, oracles, sim, study
from .engines import ENGINE_KINDS, ClosedGraph, make_engine
from .errors import AddisGraphError
from .gammas import GammaSpec
from .stream import StreamSession, run_session
from .weights import renorm_table


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate", help="run a simulation grid to CSV")
    p.add_argument("--grid", required=True, help="grid config file (key = value[, value...])")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--trials", type=int, default=None, help="override trials per grid point")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--threads", type=int, default=1, help="worker threads across grid points")


def _add_stream(sub) -> None:
    p = sub.add_parser("stream", help="interactive line-protocol session")
    p.add_argument(
        "--procedure", default="graph-conf", help=f"engine kind: {', '.join(sorted(ENGINE_KINDS))}"
    )
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--tau", type=float, default=0.8)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.16)
    p.add_argument("--gamma", default="basel", help='seed sequence, e.g. "basel", "power:1.6"')
    p.add_argument("--resume", default=None, help="resume from a saved snapshot")
    p.add_argument(
        "--full-precision", action="store_true", help="emit levels at full precision"
    )


def _add_replay(sub) -> None:
    p = sub.add_parser("replay", help="replay a recorded study file")
    p.add_argument("--study", required=True, help="study file path")
    p.add_argument("--procedure", choices=("graph", "spending"), default="graph")
    p.add_argument(
        "--q", type=float, default=None,
        help="geometric seed-sequence ratio (default: the study file's, else 0.6)",
    )
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    p.add_argument("--levels", action="store_true", help="also print per-hypothesis levels")
    p.add_argument(
        "--full-precision", action="store_true", help="report at full precision"
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _unit_open(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run the verification oracles")
    p.add_argument(
        "--suite", choices=("budget", "closure", "improvement", "all"), default="all"
    )
    p.add_argument("--n", type=_positive_int, default=None, help="horizon (default per suite)")
    p.add_argument("--seeds", type=_positive_int, default=20, help="number of random instances")
    p.add_argument("--alpha", type=_unit_open, default=0.2)
    p.add_argument("--tau", type=float, default=0.8)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.16)


def _random_lags(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random monotone conflict profile in suffix (lag) form."""
    mode = rng.integers(0, 3)
    if mode == 0:
        lags = np.minimum(int(rng.integers(0, 6)), np.arange(n))
    elif mode == 1:
        b = int(rng.integers(1, 6))
        lags = np.arange(n) % b
    else:
        lags = np.minimum(rng.integers(0, 4, size=n), np.arange(n))
        for i in range(1, n):  # keep suffixes monotone: lag grows by at most 1
            lags[i] = min(lags[i], lags[i - 1] + 1)
    return lags.astype(np.int64)


def _verify_budget(n: int, seeds: int, alpha: float, out) -> bool:
    """Enumerate all recycling patterns: max_U F_n(U) <= alpha."""
    n = min(n or 12, oracles.BUDGET_CAP)
    worst = (-np.inf, None, None)
    ok = True
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        lags = _random_lags(rng, n)
        spec = GammaSpec.parse(["basel", "power:1.6", "logq"][seed % 3])
        weights = renorm_table(spec, lags, n)
        bf = oracles.BudgetFunction(n=n, gamma=spec.values(n), weights=weights, alpha=alpha)
        max_f, pattern, verdict = oracles.brute_force_budget_check(bf)
        ok = ok and verdict
        if max_f > worst[0]:
            worst = (max_f, pattern, (seed, spec.name, lags.tolist()))
    out.write(
        f"budget: {'PASS' if ok else 'FAIL'} "
        f"(n={n}, instances={seeds}, alpha={alpha:g}, worst max F={worst[0]:.12g} "
        f"at pattern={''.join(map(str, worst[1]))}, instance={worst[2]})\n"
    )
    return ok


def _verify_closure(
    n: int, seeds: int, alpha: float, tau: float, lam: float, out
) -> bool:
    """Closed-graph engine levels equal the full subset recursion."""
    n = min(n or 8, oracles.CLOSURE_CAP)
    worst = (-np.inf, None)
    ok = True
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        lags = _random_lags(rng, n)
        p = rng.uniform(size=n)
        expected = oracles.closure_oracle(n, lags, p, alpha=alpha, tau=tau, lam=lam)
        engine = ClosedGraph(alpha=alpha, tau=tau, lam=lam, gamma="basel")
        got = np.empty(n)
        for i in range(1, n + 1):
            lo = i - lags[i - 1]
            got[i - 1] = engine.level(i, conflicts=range(lo, i))
            engine.observe(i, float(p[i - 1]))
        err = float(np.max(np.abs(got - expected)))
        ok = ok and err <= 1e-10
        if err > worst[0]:
            worst = (err, seed)
    out.write(
        f"closure: {'PASS' if ok else 'FAIL'} "
        f"(n={n}, instances={seeds}, worst |engine - recursion|={worst[0]:.3g} "
        f"at seed={worst[1]})\n"
    )
    return ok


def _verify_improvement(n: int, seeds: int, out) -> bool:
    """Local-spending shifted proportions never exceed the graph-side ones."""
    n = min(n or 50, oracles.IMPROVEMENT_CAP)
    spec = GammaSpec.parse("basel")
    worst = (-np.inf, None)
    ok = True
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        lags = _random_lags(rng, n)
        u = rng.integers(0, 2, size=n)
        local, graph, dominates = oracles.improvement_weight_oracle(n, lags, spec, u)
        ok = ok and dominates
        margin = float(np.max(local - graph))
        if margin > worst[0]:
            worst = (margin, seed)
    out.write(
        f"improvement: {'PASS' if ok else 'FAIL'} "
        f"(n={n}, instances={seeds}, worst local-graph margin={worst[0]:.3g} "
        f"at seed={worst[1]})\n"
    )
    return ok


def cmd_simulate(args) -> int:
    configs = sim.parse_grid_file(args.grid)
    if args.seed is not None or args.trials is not None:
        from dataclasses import replace

        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        configs = [replace(c, **overrides) for c in configs]
    rows = sim.run_grid(configs, csv_path=args.out, threads=args.threads)
    if args.out is None:
        sim.write_csv(rows, sys.stdout)
    else:
        sys.stderr.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


def cmd_stream(args) -> int:
    if args.resume:
        session = StreamSession.from_snapshot(args.resume, full_precision=args.full_precision)
    else:
        engine = make_engine(
            args.procedure, alpha=args.alpha, tau=args.tau, lam=args.lam, gamma=args.gamma
        )
        session = StreamSession(engine, full_precision=args.full_precision)
    run_session(session, sys.stdin, sys.stdout)
    return 0


def cmd_replay(args) -> int:
    recorded = study.ReplayStudy.parse(args.study)
    report = study.replay_study(
        recorded,
        procedure=args.procedure,
        q=args.q,
        alpha=args.alpha,
        tau=args.tau,
        lam=args.lam,
    )
    sys.stdout.write(report.summary(full_precision=args.full_precision) + "\n")
    if args.levels:
        for h, level, rej in zip(recorded.hypotheses, report.levels, report.decisions):
            word = "reject" if rej else "accept"
            lvl = repr(float(level)) if args.full_precision else f"{level:.4f}"
            sys.stdout.write(f"{h.name} level={lvl} {word}\n")
    return 0


def cmd_verify(args) -> int:
    core.check_gap(args.tau, args.lam)
    out = sys.stdout
    ok = True
    if args.suite in ("budget", "all"):
        ok = _verify_budget(args.n, args.seeds, args.alpha, out) and ok
    if args.suite in ("closure", "all"):
        ok = _verify_closure(args.n, args.seeds, args.alpha, args.tau, args.lam, out) and ok
    if args.suite in ("improvement", "all"):
        ok = _verify_improvement(args.n, args.seeds, out) and ok
    out.write("verify: PASS\n" if ok else "verify: FAIL\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addisgraph",
        description="Online multiple testing with conflict-aware recycling graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_stream(sub)
    _add_replay(sub)
    _add_verify(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": cmd_simulate,
        "stream": cmd_stream,
        "replay": cmd_replay,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except AddisGraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
