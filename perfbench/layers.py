"""Which package entry points the traced run wraps, and the per-layer metrics.

Layers are the package's modules: ``sim``, ``stream``, ``engines`` /
``extensions``, ``weights``, ``gammas`` and ``core``.  Calls that take
milliseconds get spans; the microsecond calls of ``gammas`` and ``weights``
get counters.  Counters and spans carry the engine kind (stream-async) or
procedure (sweeps) being served as their label; a resumed session's replay
is labelled ``restore:<kind>`` so that it stays apart from the live one.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager

import numpy as np

from addisgraph import core, engines, gammas, sim, stream, weights
from addisgraph.extensions import AdaptiveGraphCorr

from tracer import covered, self_times
from workloads import STREAM_KINDS as KINDS

PROCEDURES = sim.ALL_PROCEDURES


def _point(config) -> str:
    return f"{config.procedure}:b={config.b}:pi_a={config.pi_a}"


def instrument(tracer) -> None:
    w = tracer.wrap
    w(sim, "parse_grid_file", "sim.parse_grid")
    w(sim, "generate_data", "sim.generate_data",
      tag=lambda a: (f"data:b={a[0].b}:pi_a={a[0].pi_a}", None))
    w(sim, "run_config", "sim.point", tag=lambda a: (_point(a[0]), a[0].procedure))
    w(sim, "compute_levels", "sim.levels", memory=True)
    w(sim.TrialSet, "metrics", "sim.metrics",
      tag=lambda a: (_point(a[0].config), a[0].config.procedure))
    w(sim, "write_csv", "sim.write_csv")
    w(stream.StreamSession, "handle", "stream.handle", new_request=True)
    w(stream.StreamSession, "from_snapshot", "stream.resume")
    for cls in (engines.FwerEngine, AdaptiveGraphCorr):
        w(cls, "level", "engines.level")
        w(cls, "observe", "engines.observe")
    w(engines.FwerEngine, "snapshot_json", "engines.snapshot")
    w(engines.FwerEngine, "restore", "engines.restore")
    for fn in ("check_fwer_condition", "check_fdr_condition", "check_corr_condition"):
        w(core, fn, "core.check_condition")
    w(gammas.GammaSpec, "value", "gammas.value", counter=True)
    w(gammas.GammaSpec, "values", "gammas.values", counter=True)
    w(gammas.GammaSpec, "tail_sum", "gammas.tail_sum", counter=True)
    w(weights.IncrementalRenormalizer, "weight", "weights.renorm_weight", counter=True)
    w(weights.ShiftedGamma, "weight", "weights.shifted_gamma_weight", counter=True)
    w(weights.Alg1Columns, "column", "weights.alg1_column", counter=True)


@contextmanager
def traced(tracer):
    """Instrument for the duration of one unit.

    ``tracer.window`` becomes (index of the unit's first span, start, end).
    """
    instrument(tracer)
    first = len(tracer.spans)
    t0 = tracer.clock()
    try:
        yield
    finally:
        tracer.window = (first, t0, tracer.clock())
        tracer.unwrap_all()


def _sum(spans) -> float:
    return float(sum(s.duration for s in spans))


def _pct_us(spans, q) -> float:
    if not spans:
        return 0.0
    return float(np.percentile([s.duration for s in spans], q)) * 1e6


def per_layer_metrics(tracer, cycle, import_s: float, overhead_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from the traced unit.

    ``cycle`` is the traced stream cycle (None on the sweeps).  A layer or
    label the workload never calls reads zero.
    """
    first, t0, t1 = tracer.window
    spans = tracer.spans[first:]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, label=None):
        return [s for s in by_name.get(name, ()) if label is None or s.label == label]

    m: dict[str, tuple[float, str]] = {}
    m["package.import_s"] = (import_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    m["trace.span_cover_pct"] = (100.0 * covered(roots) / (t1 - t0), "%")

    m["sim.generate_data_s"] = (_sum(named("sim.generate_data")), "s")
    m["sim.metrics_s"] = (_sum(named("sim.metrics")), "s")
    m["sim.write_csv_s"] = (_sum(named("sim.write_csv")), "s")
    for proc in PROCEDURES:
        lv = named("sim.levels", proc)
        m[f"sim.levels_s.{proc}"] = (_sum(lv), "s")
        peak = max((s.extra["peak_bytes"] for s in lv), default=0)
        m[f"sim.levels_peak_mb.{proc}"] = (peak / 2**20, "MB")
    m["sim.grid_points"] = (len(named("sim.point")), "count")
    m["sim.data_generations"] = (len(named("sim.generate_data")), "count")

    live = set(KINDS)
    handles = [s for s in named("stream.handle") if s.label in live]
    selfs = self_times(spans)
    m["stream.handle_self_us_p50"] = (
        statistics.median(selfs[s.id] for s in handles) * 1e6 if handles else 0.0, "us"
    )
    m["stream.requests"] = (len(handles), "count")
    m["stream.errors"] = (cycle.errors if cycle else 0, "count")
    m["stream.nonfloat_level_replies"] = (
        sum(cycle.malformed.values()) if cycle else 0, "count"
    )

    for kind in KINDS:
        lv = named("engines.level", kind)
        m[f"engines.level_us_p50.{kind}"] = (_pct_us(lv, 50), "us")
        m[f"engines.level_us_p99.{kind}"] = (_pct_us(lv, 99), "us")
        m[f"engines.observe_us_p50.{kind}"] = (_pct_us(named("engines.observe", kind), 50), "us")
        m[f"engines.restore_s.{kind}"] = (_sum(named("stream.resume", f"restore:{kind}")), "s")
        m[f"engines.snapshot_bytes.{kind}"] = (
            cycle.snapshot_bytes.get(kind, 0) if cycle else 0, "bytes"
        )
        calls, secs = tracer.counter("gammas.value", {kind})
        m[f"gammas.value_calls.{kind}"] = (calls, "count")
        m[f"gammas.value_s.{kind}"] = (secs, "s")
    m["gammas.values_calls"] = (tracer.counter("gammas.values")[0], "count")
    m["gammas.tail_sum_calls"] = (tracer.counter("gammas.tail_sum")[0], "count")

    served = live | set(PROCEDURES)
    calls, secs = tracer.counter("weights.renorm_weight", served)
    m["weights.renorm_weight_calls"] = (calls, "count")
    m["weights.renorm_weight_s"] = (secs, "s")
    m["weights.shifted_gamma_weight_calls"] = (
        tracer.counter("weights.shifted_gamma_weight", served)[0], "count"
    )
    m["weights.alg1_column_s"] = (tracer.counter("weights.alg1_column", served)[1], "s")
    m["weights.alg1_bytes"] = (cycle.alg1_bytes if cycle else 0, "bytes")
    m["core.check_condition_s"] = (_sum(named("core.check_condition")), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_spans(tracer, path) -> None:
    """Spans as JSON lines, then one line per counter."""
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.as_dict()) + "\n")
        for (name, label), (calls, secs) in sorted(
            tracer.counters.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            fh.write(json.dumps(
                {"counter": name, "label": label, "calls": calls, "seconds": secs}
            ) + "\n")
