"""addisgraph benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload sweep-reroute --seed 1 --seconds 20 --trace 0

Workloads (README.md beside this file says why each exists):

* ``sweep-reroute``  run_grid over the two O(n^3)-per-trial runners;
* ``sweep-many``     run_grid over 60 cheap grid points;
* ``stream-async``   one closed-loop client driving six live sessions.

With ``--trace 0`` the workload repeats untraced for ``--seconds`` and the
last line carries the end-to-end metrics.  With ``--trace 1`` one untraced
and one traced unit run back to back and the last line carries the
per-layer metrics; the spans go to ``perfbench/out``.  Every run checks the
outputs and exits non-zero when a check fails.  The line before the last
holds the full report: raw and normalised figures, machine facts, checks.
The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import os

# One thread per process; must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep-reroute", "sweep-many", "stream-async")

# Parts of the speed reference kernel (speed.py) each workload is normalised
# by.  The memory-bound part tracks the O(n^3) runners of sweep-reroute; the
# other two work on cache-sized data.  Re-normalising the same ten runs of
# each, their throughput's IQR/median was 0.043 (sweep-many) and 0.060
# (stream-async) without it, against 0.056 and 0.069 with it.
REFERENCE_PARTS = {
    "sweep-reroute": ("interpreter", "small_arrays", "medium_arrays", "memory_bound"),
    "sweep-many": ("interpreter", "small_arrays", "medium_arrays"),
    "stream-async": ("interpreter", "small_arrays", "medium_arrays"),
}
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}
SETUP_PROBES = 5  # fresh processes whose set-up time is measured per run
PROBE_TIMEOUT_S = 120


def _load_package() -> float:
    """Import addisgraph from this checkout; returns the import time."""
    if not (SRC / "addisgraph" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'addisgraph'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import addisgraph

    import_s = time.perf_counter() - t0
    if Path(addisgraph.__file__).resolve().parent != (SRC / "addisgraph").resolve():
        sys.exit(f"error: imported addisgraph from {addisgraph.__file__}, not {SRC}")
    return import_s


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print the import time, exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _build(workload: str, seed: int, workdir: Path):
    import workloads

    if workload == workloads.STREAM:
        return workloads.StreamWorkload(seed, workdir)
    return workloads.SweepWorkload(workload, seed, workdir)


def _probe_setup(workload: str, seed: int) -> list[dict]:
    """Process start to inputs ready, measured in fresh processes."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]

    def probe():
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        return ready, json.loads(line)["import_s"]

    probes = []
    for _ in range(SETUP_PROBES):
        (ready, import_s), factor = speed.bracketed(probe)
        probes.append({"setup_s": ready, "import_s": import_s, "slowdown": factor})
    return probes


def _rep_s(reps) -> float:
    """Time of one rep: each segment's median over the reps, summed, so
    that a slow spell of the machine during one rep counts once at most."""
    return sum(statistics.median(seg) for seg in zip(*reps))


def _run_sweep(bench, args, tracer) -> dict:
    """Timed reps of the grid; the first one carries the output checks."""
    raw0, norm0, problems = bench.verified_rep()
    reps = [(raw0, norm0)]
    if args.trace:
        import layers

        with layers.traced(tracer):
            reps.append(bench.run_rep())
    else:
        start = time.perf_counter()
        while time.perf_counter() - start + sum(raw0) < args.seconds:
            reps.append(bench.run_rep())
    problems += bench.digest_problems()
    untraced = reps[:1] if args.trace else reps
    raw = bench.hyp_trials / _rep_s([r for r, _ in untraced])
    norm = bench.hyp_trials / _rep_s([n for _, n in untraced])
    return {
        "units": [(sum(r), sum(r) / sum(n)) for r, n in reps],
        "attempted": len(reps) * len(bench.configs),
        "failed": 0,
        "problems": problems,
        "raw": {"sim_hyp_trials_per_s": raw},
        "normalised": {"sim_hyp_trials_per_s": norm},
        "ops_per_s": norm,
    }


def _stream_figures(cycles, normalise: bool) -> dict:
    import numpy as np
    import workloads

    live = sum(c.live_norm if normalise else c.live_wall for c in cycles)
    out = {"stream_req_per_s": sum(c.requests for c in cycles) / live}
    observe = [t for c in cycles for k in workloads.STREAM_KINDS
               for t in (c.observe_norm if normalise else c.observe_s)[k]]
    out["observe_p50_us"] = float(np.percentile(observe, 50)) * 1e6
    out["observe_p99_us"] = float(np.percentile(observe, 99)) * 1e6
    for kind in workloads.STREAM_KINDS:
        levels = [t for c in cycles for t in (c.level_norm if normalise else c.level_s)[kind]]
        out[f"level_p99_us.{kind}"] = float(np.percentile(levels, 99)) * 1e6
    return out


def _run_stream(bench, args, tracer) -> dict:
    """Cycles over the six sessions; the first one also resumes each."""
    cycles = [bench.run_cycle(resume=True)]
    if args.trace:
        import layers

        with layers.traced(tracer):
            cycles.append(bench.run_cycle(resume=True, tracer=tracer))
    else:
        start = time.perf_counter()
        while len(cycles) < 2 or time.perf_counter() - start + cycles[0].wall < args.seconds:
            cycles.append(bench.run_cycle(resume=False))
    untraced = cycles[:1] if args.trace else cycles
    normalised = _stream_figures(untraced, normalise=True)
    return {
        "units": [(c.wall, c.live_wall / c.live_norm) for c in cycles],
        "cycles": cycles,
        "attempted": sum(c.requests + c.resumes for c in cycles),
        # Failed operations: ERR replies and failed resumes.  A resume runs
        # once per resuming cycle, so the count does not grow with --seconds.
        # Non-float LEVEL replies carry the right value and are reported apart.
        "failed": sum(c.errors + len(c.resume_failures) for c in cycles),
        "malformed_level_replies": cycles[0].malformed,
        "resume_failures": cycles[0].resume_failures,
        "problems": [p for c in cycles for p in c.problems],
        "raw": _stream_figures(untraced, normalise=False),
        "normalised": normalised,
        "ops_per_s": normalised["stream_req_per_s"],
    }


def main(argv=None) -> int:
    with open("/proc/loadavg") as fh:
        loadavg = [float(x) for x in fh.read().split()[:3]]
    args = _parse_args(argv)
    import_s = _load_package()
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            _build(args.workload, args.seed, Path(tmp))
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    import speed
    import workloads
    from tracer import Tracer

    speed.use_parts(REFERENCE_PARTS[args.workload])
    probes = _probe_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bench = _build(args.workload, args.seed, Path(tmp))
        if args.workload == workloads.STREAM:
            result = _run_stream(bench, args, tracer)
        else:
            result = _run_sweep(bench, args, tracer)
    attempted, failed = result["attempted"], result["failed"]

    setup_norm = statistics.median(p["setup_s"] / p["slowdown"] for p in probes)
    rss = workloads.peak_rss_mb()
    common = {"peak_rss_mb": rss, "ops_failed_ratio": failed / attempted}
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": workloads.machine_facts(args.seed, loadavg),
        "raw": {"setup_s": statistics.median(p["setup_s"] for p in probes), **common,
                **result["raw"]},
        "normalised": {"setup_s": setup_norm, **common, **result["normalised"]},
        "setup_probes": probes,
        "units_wall_s_and_slowdown": result["units"],
        "problems": result["problems"],
    }
    for key in ("malformed_level_replies", "resume_failures"):
        if key in result:
            report[key] = result[key]

    if args.trace:
        import layers

        (untraced, f_u), (traced, f_t) = result["units"]
        tracing = {"untraced_s": untraced / f_u, "traced_s": traced / f_t}
        metrics = layers.per_layer_metrics(
            tracer, result.get("cycles", [None])[-1],
            import_s=statistics.median(p["import_s"] for p in probes),
            overhead_s=tracing["traced_s"] - tracing["untraced_s"],
        )
        report["tracing"] = tracing
        report["per_layer"] = metrics
        layers.write_spans(tracer, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {"setup_s": setup_norm, "peak_rss_mb": rss, "ops_per_s": result["ops_per_s"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))

    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
