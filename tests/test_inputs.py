"""Every input surface fails cleanly.

Grid, study, weight-table and snapshot files (version 2, and version 1,
which a resume still reads), stream lines and command lines, each mutated
from a valid seed input, are either accepted or refused with an
``AddisGraphError``: the CLI exits 2 with one ``error:`` line, and a stream
answers ``ERR`` and changes nothing.  A mutation is one to three
edits (a span deleted, a short run inserted, or a span replaced), made to
the text or to its raw bytes.  The examples are derandomized, so every run
tests the same inputs.
"""

import io
import json
import os
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addisgraph import (
    AddisGraphError,
    CustomTable,
    ENGINE_KINDS,
    ReplayStudy,
    StreamSession,
    make_engine,
    parse_grid_file,
    replay_study,
)
from addisgraph.cli import main
from addisgraph.engines import FwerEngine
from addisgraph.errors import InvalidConfig, InvalidSpec

GATE = settings(max_examples=50, derandomize=True, deadline=None, database=None)
CLI_GATE = settings(GATE, max_examples=25)  # each example runs a whole command

STUDY = (Path(__file__).resolve().parent.parent / "data" / "recovery.study").read_text()
SCRIPT = ["H 1", "P 1 0.01", "H 2 conflicts=1", "H 3 tau=0.9 lambda=0.2 conflicts=1,2", "P 2 0.6",
          "P 3 0.3", "H 4 conflicts=3", "P 4 0.02", "H 5"]
SEEDS = {  # the ``seeds`` fixture adds a dumped table and a graph-conf snapshot
    "grid": "procedure = spending-local, graph-conf\nn = 10\nb = 1, 2  # batch sizes\n"
            "trials = 3\nseed = 1\n",
    "study": STUDY.replace("p=NA", "p=0.5"),
    # the version-1 snapshot of a graph-conf session after SCRIPT, as the
    # package wrote it before version 2
    "snapshot-v1": '{"version": 1, "kind": "graph-conf", "alpha": 0.2, "tau": 0.8, '
                   '"lambda": 0.16, "gamma": "basel", "events": [["L", 1, 0.8, 0.16, []], '
                   '["P", 1, 0.01], ["L", 2, 0.8, 0.16, [1]], ["L", 3, 0.9, 0.2, [1, 2]], '
                   '["P", 2, 0.6], ["P", 3, 0.3], ["L", 4, 0.8, 0.16, [3]], ["P", 4, 0.02], '
                   '["L", 5, 0.8, 0.16, []]], "adjust": "renormalize"}',
}
READERS = {
    "grid": parse_grid_file,
    "study": lambda path: replay_study(ReplayStudy.parse(path)),
    "table": CustomTable.load,
    "snapshot": StreamSession.from_snapshot,
    "snapshot-v1": StreamSession.from_snapshot,
}
NAMES = {"grid": "grid.cfg", "study": "recovery.study", "table": "w.table", "snapshot": "snap.json",
         "snapshot-v1": "snap-v1.json"}

# structural characters, drawn often, beside any other character
STRUCTURE = "=#,.-+ \t\n0123456789eEinfaTPL[]{}\":"
TEXT = st.text(
    st.one_of(st.sampled_from(STRUCTURE), st.characters(codec="utf-8")), min_size=1, max_size=4
)
BYTES = st.binary(min_size=1, max_size=4)


@st.composite
def mutated(draw, seed, piece):
    """``seed`` (str or bytes) after one to three edits, each replacing a
    span of up to eight units by nothing or by a ``piece``."""
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(0, len(seed)))
        hi = draw(st.integers(lo, min(len(seed), lo + 8)))
        seed = seed[:lo] + draw(st.one_of(st.just(seed[:0]), piece)) + seed[hi:]
    return seed


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The seed inputs by surface, as text, and a directory to write into."""
    where = tmp_path_factory.mktemp("inputs")
    CustomTable({(1, 2): 0.5, (1, 4): 0.25, (2, 3): 0.75, (3, 5): 1.0}).dump(where / "w.table")
    engine = make_engine("graph-conf")
    for line in SCRIPT:
        assert not StreamSession(engine).handle(line).startswith("ERR")
    texts = {**SEEDS, "table": (where / "w.table").read_text(), "snapshot": engine.snapshot_json()}
    # both snapshot seeds hold the same session, in version 2 and version 1
    assert json.loads(texts["snapshot"])["version"] == 2
    assert FwerEngine.restore(texts["snapshot-v1"]).snapshot_json() == texts["snapshot"]
    return texts, where


def _write(where, texts) -> None:
    for surface, text in texts.items():
        (where / NAMES[surface]).write_bytes(text if isinstance(text, bytes) else text.encode())


@pytest.mark.parametrize("as_bytes", [False, True], ids=["text", "bytes"])
@pytest.mark.parametrize("surface", READERS)
@GATE
@given(data=st.data())
def test_a_mutated_input_file_is_read_or_refused(seeds, surface, as_bytes, data):
    texts, where = seeds
    seed = texts[surface].encode() if as_bytes else texts[surface]
    _write(where, {surface: data.draw(mutated(seed, BYTES if as_bytes else TEXT))})
    try:
        READERS[surface](where / NAMES[surface])
    except AddisGraphError:
        pass


@pytest.mark.parametrize("as_bytes", [False, True], ids=["text", "bytes"])
@GATE
@given(kind=st.sampled_from(sorted(ENGINE_KINDS)), data=st.data())
def test_a_mutated_stream_line_gets_one_reply_and_an_error_changes_nothing(kind, as_bytes, data):
    """The session is fed as ``addisgraph stream`` reads stdin: lines split
    by universal newlines, undecodable bytes kept as lone surrogates.  A
    ``SAVE`` line is skipped, so no example writes a file."""
    script = "\n".join(SCRIPT) + "\n"
    if as_bytes:
        raw = data.draw(mutated(script.encode(), BYTES))
    else:
        raw = data.draw(mutated(script, TEXT)).encode()
    session = StreamSession(make_engine(kind))
    for line in io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape"):
        if not line.strip() or line.split()[0].upper() == "SAVE":
            continue
        before = session.engine.snapshot_json()
        reply = session.handle(line)
        assert re.fullmatch(r"(LEVEL|DECISION|ERR) [^\n]+", reply), (line, reply)
        if reply.startswith("ERR"):
            assert session.engine.snapshot_json() == before, (line, reply)


CLI_SEEDS = {
    "simulate": ["simulate", "--grid", "grid.cfg", "--trials", "3", "--seed", "1"],
    "replay": ["replay", "--study", "recovery.study", "--procedure", "spending", "--q", "0.7",
               "--levels"],
    "stream": ["stream", "--procedure", "fdr-graph", "--alpha", "0.2", "--lam", "0.1",
               "--gamma", "basel"],
    "resume": ["stream", "--resume", "snap.json", "--full-precision"],
    "verify": ["verify", "--suite", "closure", "--n", "3", "--seeds", "1", "--tau", "0.8"],
}
# Edits insert no digit, so no count grows past the seeds' own (3 trials,
# n = 3, one seed), and no '/' or NUL, so every path stays a plain name in
# the working directory, which is the fixture's.
ARGV_TEXT = st.text(
    st.characters(codec="utf-8", exclude_characters="/\x000123456789"), min_size=1, max_size=4
)
ARGV_BYTES = st.lists(
    st.sampled_from([b for b in range(1, 256) if b != ord("/") and not ord("0") <= b <= ord("9")]),
    min_size=1, max_size=4,
).map(bytes)
JUNK = ["", "-", "--", "-1", "0", "nan", "inf", "-inf", "--help"]


@st.composite
def mutated_argv(draw, argv, as_bytes):
    """``argv`` after one to three edits: a token deleted, a token (a copy
    of one of its own or a junk one) inserted, or a token's text mutated."""
    argv = list(argv)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, max(len(argv) - 1, 0)))
        edit = draw(st.sampled_from(["delete", "insert", "mutate"])) if argv else "insert"
        if edit == "delete":
            del argv[k]
        elif edit == "insert":
            argv.insert(k, draw(st.sampled_from(argv + JUNK)))
        elif as_bytes:
            argv[k] = os.fsdecode(draw(mutated(os.fsencode(argv[k]), ARGV_BYTES)))
        else:
            argv[k] = draw(mutated(argv[k], ARGV_TEXT))
    return argv


def run_cli(argv, where, stdin=""):
    """``main(argv)`` run in ``where``: exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(where)
        mp.setattr(sys, "stdin", io.StringIO(stdin))
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals, and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("as_bytes", [False, True], ids=["text", "bytes"])
@pytest.mark.parametrize("command", CLI_SEEDS)
@CLI_GATE
@given(data=st.data())
def test_a_mutated_command_line_exits_0_or_2_with_one_error_line(seeds, command, as_bytes, data):
    texts, where = seeds
    _write(where, texts)  # an example may have written its CSV over a seed file
    argv = data.draw(mutated_argv(CLI_SEEDS[command], as_bytes))
    code, _, err = run_cli(argv, where, stdin="\n".join(SCRIPT[:4]) + "\n")
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize(
    "surface, error", [("grid", InvalidConfig), ("study", InvalidConfig), ("table", InvalidSpec)]
)
def test_a_byte_that_is_not_utf8_is_refused_naming_its_line(seeds, tmp_path, surface, error, k):
    """A ``0xff`` byte on line ``k``, a comment line or not, is refused by the
    file's own error class, naming the path and the line."""
    lines = seeds[0][surface].encode().splitlines(keepends=True)
    lines[k - 1] = lines[k - 1][:1] + b"\xff" + lines[k - 1][1:]
    path = tmp_path / NAMES[surface]
    path.write_bytes(b"".join(lines))
    with pytest.raises(error, match=f"^{re.escape(f'{path}:{k}: not UTF-8')}$"):
        READERS[surface](path)
