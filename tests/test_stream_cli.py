import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from addisgraph.cli import main
from addisgraph.engines import ENGINE_KINDS, FwerEngine, GraphConf, make_engine
from addisgraph.extensions import FdrGraph
from addisgraph.stream import StreamSession, run_session

DATA = Path(__file__).resolve().parent.parent / "data" / "recovery.study"


# ---------------------------------------------------------------------------
# stream protocol


def test_session_matches_library_calls():
    """Scripted platform-shaped session: levels equal direct engine output."""
    script = [
        ("H 1", 1, None),
        ("P 1 0.9", 1, 0.9),
        ("H 2 conflicts=1", 2, None),
        ("H 3 conflicts=2", 3, None),
        ("P 2 0.05", 2, 0.05),
        ("H 4 conflicts=3", 4, None),
        ("P 3 0.5", 3, 0.5),
        ("P 4 0.7", 4, 0.7),
    ]
    session = StreamSession(GraphConf(), full_precision=True)
    ref = GraphConf()
    for line, idx, p in script:
        out = session.handle(line)
        if line.startswith("H"):
            conflicts = [idx - 1] if "conflicts" in line else None
            expected = ref.level(idx, conflicts=conflicts)
            assert out == f"LEVEL {idx} {expected!r}"
        else:
            ind, reject = ref.observe(idx, p)
            word = "reject" if reject else "accept"
            assert out == f"DECISION {idx} {word} S={ind.s} C={ind.c}"


def test_first_level_formatting():
    session = StreamSession(GraphConf())
    assert session.handle("H 1") == "LEVEL 1 0.0778147"


def test_errors_do_not_corrupt_state():
    session = StreamSession(GraphConf())
    session.handle("H 1")
    assert session.handle("FOO").startswith("ERR bad-command")
    assert session.handle("H 3").startswith("ERR out-of-order")
    assert session.handle("P 2 0.5").startswith("ERR unknown-index")
    assert session.handle("P 1 1.5").startswith("ERR bad-value")
    assert session.handle("H x").startswith("ERR bad-index")
    # the session still works
    assert session.handle("P 1 0.9").startswith("DECISION 1 accept")
    assert session.handle("H 2").startswith("LEVEL 2 ")


def test_duplicate_observation_error():
    session = StreamSession(GraphConf())
    session.handle("H 1")
    session.handle("P 1 0.5")
    assert session.handle("P 1 0.5").startswith("ERR duplicate-observation")


def test_missing_indicator_protocol_error():
    session = StreamSession(GraphConf())
    session.handle("H 1")
    out = session.handle("H 2")  # needs P_1 first since 1 is not conflicting
    assert out.startswith("ERR missing-indicator")


def test_snapshot_resume_equivalence(tmp_path):
    lines = ["H 1", "P 1 0.9", "H 2 conflicts=1", "P 2 0.5", "H 3", "P 3 0.01"]
    full = StreamSession(GraphConf())
    full_out = [full.handle(x) for x in lines]

    first = StreamSession(GraphConf())
    part1 = [first.handle(x) for x in lines[:3]]
    snap = tmp_path / "snap.json"
    first.handle(f"SAVE {snap}")
    resumed = StreamSession.from_snapshot(snap)
    part2 = [resumed.handle(x) for x in lines[3:]]
    assert part1 + part2 == full_out


def _conflict_script(n, seed):
    """H i with conflicts {i-2, i-1}, each P i right after H i."""
    p = np.random.default_rng(seed).uniform(size=n)
    lines = []
    for i in range(1, n + 1):
        conflicts = ",".join(str(j) for j in range(max(1, i - 2), i))
        lines.append(f"H {i} conflicts={conflicts}" if conflicts else f"H {i}")
        lines.append(f"P {i} {float(p[i - 1])!r}")
    return lines


@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_full_precision_levels_are_plain_floats(kind):
    session = StreamSession(make_engine(kind), full_precision=True)
    replies = [session.handle(x) for x in _conflict_script(30, seed=3)]
    levels = [r.split()[2] for r in replies if r.startswith("LEVEL")]
    assert len(levels) == 30
    assert [float(x) for x in levels] == [e.level for e in session.engine.ledger.entries]


def test_fdr_snapshot_resume_is_bit_identical(tmp_path):
    session = StreamSession(FdrGraph(), full_precision=True)
    for line in _conflict_script(40, seed=4):
        assert not session.handle(line).startswith("ERR")
    snap = tmp_path / "fdr.json"
    assert session.handle(f"SAVE {snap}") == f"SAVED {snap}"
    resumed = StreamSession.from_snapshot(snap, full_precision=True)
    assert type(resumed.engine) is FdrGraph
    assert resumed.engine.ledger.entries == session.engine.ledger.entries
    assert resumed.handle("H 41 conflicts=40") == session.handle("H 41 conflicts=40")


@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_failed_level_request_leaves_no_trace(kind):
    """A level request that fails on missing feedback changes no engine state.

    The failed ``H 2`` must not shift the monotonicity checks of later
    requests, and the live session, its restored snapshot and a replay of
    only the accepted lines must agree bit for bit.  The closed procedures
    need feedback for conflicting predecessors too, so they get ``P 2``
    before ``H 3``.
    """
    lines = ["H 1", "H 2", "P 1 0.9", "H 2"]  # the first H 2 has no feedback for 1
    if kind.startswith("closed"):
        lines += ["P 2 0.5", "H 3 conflicts=2"]
    else:
        lines += ["H 3 conflicts=2", "P 2 0.5"]
    lines += ["P 3 0.5", "H 4 conflicts=2,3"]
    live = StreamSession(make_engine(kind), full_precision=True)
    replies = [live.handle(x) for x in lines]
    assert replies[1].startswith("ERR missing-indicator")
    assert replies[-1].startswith("LEVEL 4 ")
    accepted = [x for x, r in zip(lines, replies) if not r.startswith("ERR")]
    replay = StreamSession(make_engine(kind), full_precision=True)
    assert [replay.handle(x) for x in accepted] == [r for r in replies if not r.startswith("ERR")]
    restored = StreamSession(FwerEngine.restore(live.engine.snapshot_json()), full_precision=True)
    for other in (replay, restored):
        assert other.engine.ledger.entries == live.engine.ledger.entries
        assert other.engine.snapshot() == live.engine.snapshot()
    tail = ["P 4 0.5", "H 5 conflicts=3,4"]
    expected = [live.handle(x) for x in tail]
    assert expected[-1].startswith("LEVEL 5 ")
    for other in (replay, restored):
        assert [other.handle(x) for x in tail] == expected


def test_failed_fdr_reward_request_pins_no_denominator():
    """A level rejected for a missing reward indicator leaves no trace.

    The failed ``H 5 conflicts=3`` clears source 4 at target 5, so checking
    it must not pin 4's renormalization denominator: the retry blocks 4 and
    ``H 6`` must see the same state as a session that never sent the
    failed line, and as a restore of the snapshot.
    """
    head = ["H 1", "P 1 0.5", "H 2", "P 2 0.5", "H 3", "H 4 conflicts=3", "P 4 0.0001"]
    tail = ["H 5 conflicts=3,4", "P 3 0.5", "P 5 0.5", "H 6"]
    live = StreamSession(FdrGraph(), full_precision=True)
    replies = [live.handle(x) for x in head + ["H 5 conflicts=3"] + tail]
    assert replies[len(head)].startswith("ERR missing-indicator")
    clean = StreamSession(FdrGraph(), full_precision=True)
    expected = [clean.handle(x) for x in head + tail]
    assert replies[-1] == expected[-1]
    assert float(replies[-1].split()[2]) == pytest.approx(0.00039519107169166793, rel=1e-12)
    restored = FwerEngine.restore(live.engine.snapshot_json())
    for other in (clean.engine, restored):
        assert other.ledger.entries == live.engine.ledger.entries
    nxt = ["P 6 0.5", "H 7 conflicts=6"]
    assert [StreamSession(restored, full_precision=True).handle(x) for x in nxt] == [
        live.handle(x) for x in nxt
    ]


def test_failed_save_keeps_previous_snapshot(tmp_path, monkeypatch):
    """A SAVE whose write fails midway leaves the last snapshot whole."""
    import errno
    import os

    from addisgraph import stream

    snap = tmp_path / "snap.json"
    session = StreamSession(GraphConf(), full_precision=True)
    session.handle("H 1")
    assert session.handle(f"SAVE {snap}") == f"SAVED {snap}"
    before = snap.read_text()
    session.handle("P 1 0.5")
    session.handle("H 2")

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWrite(fh) if "w" in mode else fh

    monkeypatch.setattr(stream, "open", failing_open, raising=False)
    assert session.handle(f"SAVE {snap}").startswith("ERR save-failed")
    monkeypatch.undo()
    assert snap.read_text() == before
    assert os.listdir(tmp_path) == ["snap.json"]
    assert FwerEngine.restore(before).issued == 1
    assert session.handle(f"SAVE {snap}") == f"SAVED {snap}"
    assert FwerEngine.restore(snap.read_text()).ledger.entries == session.engine.ledger.entries


def test_run_session_stops_on_quit():
    out = io.StringIO()
    run_session(GraphConf(), ["H 1", "QUIT", "H 2"], out)
    assert out.getvalue().splitlines() == ["LEVEL 1 0.0778147"]


# ---------------------------------------------------------------------------
# CLI subcommands (in-process via main())


def test_cli_simulate_golden(tmp_path, capsys):
    grid = tmp_path / "g.cfg"
    grid.write_text("procedure = graph-conf-u\nn = 20\nb = 1, 5\ntrials = 10\nseed = 1\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--grid", str(grid), "--out", str(out1)]) == 0
    assert main(["simulate", "--grid", str(grid), "--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 3  # header + 2 grid rows


def test_cli_simulate_overrides(tmp_path):
    grid = tmp_path / "g.cfg"
    grid.write_text("procedure = spending-local\nn = 10\ntrials = 50\nseed = 1\n")
    out = tmp_path / "o.csv"
    main(["simulate", "--grid", str(grid), "--out", str(out), "--trials", "5", "--seed", "3"])
    assert ",5," in out.read_text().splitlines()[1]


@pytest.mark.parametrize("gamma", ["power", "power:abc", "geometric:", "basel:7", "power:nan"])
def test_cli_refuses_a_malformed_gamma(tmp_path, capsys, monkeypatch, gamma):
    monkeypatch.setattr(sys, "stdin", io.StringIO("H 1\n"))
    assert main(["stream", "--gamma", gamma]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    grid = tmp_path / "g.cfg"
    grid.write_text(f"procedure = spending-local\nn = 10\ntrials = 5\ngamma = {gamma}\n")
    assert main(["simulate", "--grid", str(grid), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.csv").exists()


def test_cli_replay_missing_data_exit_code(capsys):
    code = main(["replay", "--study", str(DATA)])
    assert code == 2
    assert "placeholder" in capsys.readouterr().err


def test_cli_replay_filled(tmp_path, capsys):
    text = DATA.read_text().replace("p=NA", "p=0.5")
    study = tmp_path / "s.study"
    study.write_text(text)
    assert main(["replay", "--study", str(study), "--q", "0.6", "--levels"]) == 0
    out = capsys.readouterr().out
    assert "rejections=0" in out
    assert "future-level=0.0001" in out
    assert out.count("accept") == 12


def test_cli_replay_reads_q_from_the_study(tmp_path, capsys):
    study = tmp_path / "s.study"
    study.write_text("q = 0.3\n" + DATA.read_text().replace("p=NA", "p=0.5"))
    assert main(["replay", "--study", str(study)]) == 0
    assert "q=0.3 " in capsys.readouterr().out
    assert main(["replay", "--study", str(study), "--q", "0.7"]) == 0
    assert "q=0.7 " in capsys.readouterr().out


def test_cli_verify_all(capsys):
    code = main(["verify", "--suite", "all", "--seeds", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "budget: PASS" in out
    assert "closure: PASS" in out
    assert "improvement: PASS" in out


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "budget", "--seeds", "0"],
        ["--suite", "closure", "--seeds", "0"],
        ["--seeds", "-1"],
        ["--n", "-3"],
        ["--suite", "budget", "--n", "0"],
    ],
)
def test_cli_verify_refuses_a_count_below_one(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be a positive integer" in captured.err
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize("alpha", ["nan", "-0.2", "0", "1", "1.5", "inf"])
def test_cli_verify_refuses_an_alpha_outside_the_unit_interval(capsys, alpha):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "budget", "--seeds", "1", "--alpha", alpha])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must lie in (0, 1)" in captured.err
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize(
    "args", [["--tau", "1.5"], ["--tau", "nan"], ["--lam", "0.9"], ["--lam", "-0.1"]]
)
def test_cli_verify_checks_the_gap_before_any_suite(capsys, args):
    assert main(["verify", "--seeds", "1", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("text", ["n = 10\nn = 10, 20\n", "n = 10, 20\nn = 10\n"])
def test_cli_simulate_refuses_a_duplicate_grid_key(tmp_path, capsys, text):
    grid = tmp_path / "g.cfg"
    grid.write_text("procedure = spending-local\ntrials = 5\n" + text)
    assert main(["simulate", "--grid", str(grid), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {grid}:4: duplicate key 'n'\n"
    assert not (tmp_path / "o.csv").exists()


def test_cli_stream_subprocess(tmp_path):
    """End-to-end: the installed console script speaks the protocol."""
    proc = subprocess.run(
        [sys.executable, "-m", "addisgraph.cli", "stream"],
        input="H 1\nP 1 0.9\nH 2\nP 2 0.02\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "LEVEL 1 0.0778147"
    assert lines[1] == "DECISION 1 accept S=0 C=0"
    assert lines[2] == "LEVEL 2 0.0667593"
    assert lines[3].startswith("DECISION 2 reject")


def test_cli_stream_matches_library(tmp_path):
    lines = ["H 1", "P 1 0.3", "H 2", "P 2 0.9", "H 3 conflicts=2", "P 3 0.01"]
    proc = subprocess.run(
        [sys.executable, "-m", "addisgraph.cli", "stream", "--full-precision"],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    session = StreamSession(make_engine("graph-conf"), full_precision=True)
    expected = [session.handle(x) for x in lines]
    assert proc.stdout.splitlines() == expected


def test_cli_stream_starts_fdr_graph():
    lines = ["H 1", "P 1 0.001", "H 2 conflicts=1", "P 2 0.5", "H 3"]
    proc = subprocess.run(
        [sys.executable, "-m", "addisgraph.cli", "stream", "--procedure", "fdr-graph",
         "--full-precision"],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    session = StreamSession(FdrGraph(alpha=0.2, tau=0.8, lam=0.16), full_precision=True)
    expected = [session.handle(x) for x in lines]
    assert proc.stdout.splitlines() == expected
    assert expected[0].startswith("LEVEL 1 ") and expected[1].startswith("DECISION 1 reject")


def test_cli_stream_refuses_adaptive_graph_corr(capsys):
    """The correlation procedure takes batches, not protocol lines."""
    assert main(["stream", "--procedure", "adaptive-graph-corr"]) == 2
    assert "unknown engine kind 'adaptive-graph-corr'" in capsys.readouterr().err
