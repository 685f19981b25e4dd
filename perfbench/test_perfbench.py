"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from addisgraph import stream  # noqa: E402
from tracer import Span, Tracer, covered, self_times  # noqa: E402


def _stream_inputs(seed, n=40):
    bench = workloads.StreamWorkload(seed, HERE, n=n)
    return [(inp.kind, inp.lines) for inp in bench.inputs]


def test_inputs_repeat_for_the_same_seed():
    for workload in workloads.SWEEPS:
        assert workloads.grid_text(workload, 7) == workloads.grid_text(workload, 7)
        assert workloads.grid_text(workload, 7) != workloads.grid_text(workload, 8)
    assert _stream_inputs(7) == _stream_inputs(7)
    assert _stream_inputs(7) != _stream_inputs(8)


def test_sweep_grids_expand_as_intended(tmp_path):
    reroute = workloads.SweepWorkload("sweep-reroute", 3, tmp_path)
    assert len(reroute.configs) == 6
    assert {c.procedure for c in reroute.configs} == {"graph-conf-u", "adaptive-graph-corr"}
    many = workloads.SweepWorkload("sweep-many", 3, tmp_path)
    assert len(many.configs) == 60
    assert len({(c.b, c.pi_a) for c in many.configs}) == 12
    assert all(c.seed == 3 for c in reroute.configs + many.configs)


@pytest.mark.parametrize("kind", workloads.STREAM_KINDS)
def test_client_sends_no_refused_line_and_nothing_early(kind):
    n, e = 30, workloads.STREAM_DELAY
    p = np.random.default_rng(5).random(n)
    lags = np.minimum(e, np.arange(n))
    lines = workloads.protocol_lines(kind, p, lags)
    session = stream.StreamSession(workloads.new_engine(kind), full_precision=True)
    replies = [session.handle(line) for line in lines]
    _, problems, _ = workloads.check_replies(lines, replies, p)
    assert problems == []
    assert sum(line.startswith("H") for line in lines) == n
    assert sorted(int(line.split()[1]) for line in lines if line.startswith("P")) == list(
        range(1, n + 1)
    )
    if kind in workloads.CLOSED_KINDS:
        return
    # As late as allowed: before each H i with i > e + 1, exactly e
    # observations are pending, and withholding the last P makes H i fail.
    pending = 0
    for k, line in enumerate(lines):
        pending += line.startswith("H") - line.startswith("P")
        if line.startswith("H") and int(line.split()[1]) > e + 1:
            assert pending - 1 == e
    i = e + 5
    h = lines.index(next(x for x in lines if x.startswith(f"H {i} ")))
    held = lines[h - 1]
    assert held.startswith(f"P {i - e - 1} ")
    session = stream.StreamSession(workloads.new_engine(kind), full_precision=True)
    for line in lines[: h - 1]:
        session.handle(line)
    assert session.handle(lines[h]).startswith("ERR")


def test_sweep_protocol_follows_the_runner_lags():
    p = np.linspace(0.01, 0.9, 20)
    lags = (np.arange(20)) % 5
    lines = workloads.protocol_lines("graph-conf", p, lags)
    assert "H 7 conflicts=6" in lines
    assert lines.index("H 6") > lines.index(f"P 5 {float(p[4])!r}")


def test_parse_level_flags_numpy_scalar_reprs():
    assert workloads.parse_level("0.25") == (0.25, True)
    value = np.float64(0.1) / 3
    assert workloads.parse_level(repr(value)) == (float(value), False)
    with pytest.raises(ValueError):
        workloads.parse_level("nonsense")


def _span(i, start, end, parent=None):
    return Span(id=i, name=f"s{i}", start=start, end=end, parent=parent, request=None, label=None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps its sibling
        _span(3, 2.5, 2.75, parent=2),  # grandchild: not subtracted from 0
        _span(4, 8.0, 12.0, parent=0),  # runs past its parent's end
        _span(5, 20.0, 21.0),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0 - 0.25)
    assert got[3] == pytest.approx(0.25)
    assert got[5] == pytest.approx(1.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_segments_leave_out_readings_and_excluded_time(monkeypatch):
    clock = iter([0.0, 0.4, 0.4, 1.2, 1.5, 1.5, 2.0, 2.0])
    readings = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(speed, "slowdown", lambda: next(readings))
    seg = speed.Segments()
    seg.exclude(0.1)
    seg.mark()  # 0.0-0.4 less 0.1; no reading yet
    seg.mark()  # 0.4-1.2; a reading follows, from 1.2 to 1.5
    seg.mark()  # 1.5-2.0
    norm = seg.close()  # last reading
    assert seg.raw == pytest.approx([0.3, 0.8, 0.5])
    assert norm == pytest.approx([0.3 / 1.5, 0.8 / 1.5, 0.5 / 3.0])


def test_rep_time_takes_each_segments_median_over_reps():
    reps = [[1.0, 2.0, 3.0], [1.2, 9.0, 3.0], [0.8, 2.2, 3.5]]
    assert run._rep_s(reps) == pytest.approx(1.0 + 2.2 + 3.0)


def test_tracer_nests_spans_counts_calls_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Thing:
        def outer(self):
            return self.inner() + self.tiny()

        def inner(self):
            return 1

        def tiny(self):
            return 2

        @classmethod
        def make(cls):
            return cls()

    originals = dict(Thing.__dict__)
    tracer.wrap(Thing, "outer", "outer", new_request=True)
    tracer.wrap(Thing, "inner", "inner")
    tracer.wrap(Thing, "tiny", "tiny", counter=True)
    tracer.wrap(Thing, "make", "make")
    tracer.label = "kind-a"
    assert Thing.make().outer() == 3
    assert Thing().outer() == 3
    tracer.unwrap_all()
    assert all(Thing.__dict__[k] is originals[k] for k in ("outer", "inner", "tiny", "make"))

    outer = [s for s in tracer.spans if s.name == "outer"]
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert [s.request for s in outer] == [1, 2]
    assert [s.parent for s in inner] == [s.id for s in outer]
    assert [s.request for s in inner] == [1, 2]
    assert all(s.label == "kind-a" for s in tracer.spans)
    assert tracer.counter("tiny") == (2, 2.0)
    assert tracer.counter("tiny", {"other"}) == (0, 0.0)


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    tracer = Tracer()
    with layers.traced(tracer):
        pass
    emitted = layers.per_layer_metrics(tracer, None, import_s=1.0, overhead_s=0.0)
    assert {k: v["unit"] for k, v in emitted.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
