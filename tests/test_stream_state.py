"""Live sessions, restored snapshots and replays of the accepted lines agree.

A hypothesis state machine drives one stream session per engine kind with
valid and invalid protocol lines interleaved: out-of-order and duplicate
``P``, bad indices, non-monotone and non-contiguous ``conflicts=``, bad
thresholds and ``SAVE``.  A line answered ``ERR`` must change nothing; the
live engine, ``restore(snapshot)`` and a fresh session fed only the
accepted lines must then agree bit for bit, in their snapshots and in every
reply to a common continuation.  Beside it: the replies to malformed
``conflicts=`` fields, the snapshot bytes after a fixed script and the
replies of delay-10 sessions (at three seeds) that level while earlier
p-values are pending, pinned as strings and digests, the version-1 files of
the fixed script (kept in ``snapshots_v1/``), which must restore to the live
session, and the budget certificates of the engine's ledger against a ledger
built entry by entry.
"""

import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from addisgraph.core import (
    ConflictStructure,
    LedgerEntry,
    TrajectoryLedger,
    budget_path,
    check_fdr_condition,
    check_fwer_condition,
)
from addisgraph.engines import ENGINE_KINDS, FwerEngine, make_engine
from addisgraph.errors import IncompleteLedger
from addisgraph.sim import SimConfig, generate_data
from addisgraph.stream import StreamSession

pytestmark = pytest.mark.filterwarnings("ignore:issued level:RuntimeWarning")

KINDS = sorted(ENGINE_KINDS)
CLOSED = ("closed-spending", "closed-graph")

# Ways to depart from the least suffix window, one per request: the shape of
# the conflicts= field, the start of the window, the index or the thresholds.
FORMS = ("none", "gap", "reversed", "duplicate", "empty-token", "zero", "negative", "letter",
         "self")
VARIANTS = (
    [(form, 0, 0, "") for form in FORMS]
    + [("suffix", shift, 0, "") for shift in (-2, -1, 1)]
    + [("suffix", 0, off, "") for off in (-1, 1)]
    + [("suffix", 0, 0, t) for t in (" tau=0.5 lambda=0.1", " lambda=0.9", " tau=x",
                                     " tau=1 lambda=0")]
)


def _conflicts(form: str, lo: int, i: int) -> str:
    window = list(range(lo, i))
    if form == "gap" and len(window) >= 2:
        del window[1]
    elif form == "reversed":
        window.reverse()
    elif form == "duplicate" and window:
        window.append(window[0])
    tokens = [str(j) for j in window]
    if form == "empty-token" and tokens:
        tokens.insert(1, "")
    elif form == "zero":
        tokens.insert(0, "0")
    elif form == "negative":
        tokens.append("-2")
    elif form == "letter":
        tokens.append("a")
    elif form == "self":
        tokens.append(str(i))
    return ",".join(tokens)


def _tail(engine: FwerEngine) -> list[str]:
    """A continuation every consistent session accepts: all pending p-values,
    then two levels, the second conflicting with the first."""
    n = engine.issued
    lines = [
        f"P {j} {0.004 if j % 3 == 0 else 0.6!r}"
        for j in range(1, n + 1)
        if engine.ledger.entries[j - 1].indicators is None
    ]
    return lines + [f"H {n + 1}", f"P {n + 1} 0.01", f"H {n + 2} conflicts={n + 1}"]


class StreamMachine(RuleBasedStateMachine):
    kind = "graph-conf"

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="addisgraph-state-"))
        self.live = StreamSession(make_engine(self.kind), full_precision=True)
        self.accepted: list[tuple[str, str]] = []  # (line, reply) of state-changing lines
        self.saves = 0

    def _send(self, line: str) -> str:
        before = self.live.engine.snapshot_json()
        reply = self.live.handle(line)
        if reply.startswith("ERR"):
            assert self.live.engine.snapshot_json() == before, (line, reply)
        else:
            self.accepted.append((line, reply))
        return reply

    def _pending(self) -> list[int]:
        entries = self.live.engine.ledger.entries
        return [e.index for e in entries if e.indicators is None]

    @rule()
    def register(self):
        """``H`` with the least window that holds every pending index."""
        i = self.live.engine.issued + 1
        conflicts = _conflicts("suffix", min(self._pending(), default=i), i)
        self._send(f"H {i}" + (f" conflicts={conflicts}" if conflicts else ""))

    @rule(variant=st.sampled_from(VARIANTS))
    def register_any(self, variant):
        """``H`` with a window, an index or thresholds that may be refused."""
        form, shift, off, thresholds = variant
        i = self.live.engine.issued + 1 + off
        lo = min(self._pending(), default=i)
        lo = max(1, min(i, lo + shift)) if form != "none" else i
        conflicts = _conflicts(form, lo, i)
        self._send(f"H {i}{thresholds}" + (f" conflicts={conflicts}" if conflicts else ""))

    @rule(pick=st.integers(0, 3), p=st.one_of(st.floats(0.0, 1.0), st.just(0.0)))
    def report(self, pick, p):
        """``P`` for a pending index, not always the oldest; often a rejection."""
        pending = self._pending()
        if pending:
            self._send(f"P {pending[pick % len(pending)]} {p!r}")

    @rule(pick=st.integers(0, 3), p=st.sampled_from(["0.5", "1.5", "-0.1", "nan", "abc"]))
    def report_any(self, pick, p):
        """``P`` for an index that may be observed already or never levelled,
        or with a p-value that is refused."""
        n = self.live.engine.issued
        self._send(f"P {max(1, n + 2 - pick)} {p}")

    @rule(line=st.sampled_from([
        "FOO", "H", "P 1", "H 0", "H -1", "H x", "P x 0.5", "H 1 tau", "H 1 colour=red", "SAVE",
    ]))
    def junk(self, line):
        assert self._send(line).startswith("ERR")

    @rule()
    def save(self):
        self.saves += 1
        path = self.dir / f"snap{self.saves}.json"
        assert self.live.handle(f"SAVE {path}") == f"SAVED {path}"
        restored = StreamSession.from_snapshot(path, full_precision=True)
        assert path.read_text() == self.live.engine.snapshot_json()
        assert restored.engine.snapshot_json() == path.read_text()
        assert restored.engine.ledger.entries == self.live.engine.ledger.entries

    def teardown(self):
        try:
            replay = StreamSession(make_engine(self.kind), full_precision=True)
            for line, reply in self.accepted:
                assert replay.handle(line) == reply, line
            live = self.live.engine
            restored = StreamSession(
                FwerEngine.restore(live.snapshot_json()), full_precision=True
            )
            text = live.snapshot_json()
            for other in (replay, restored):
                assert other.engine.snapshot_json() == text
                assert other.engine.ledger.entries == live.ledger.entries
                assert other.engine.issued == live.issued
            tail = _tail(live)
            expected = [self.live.handle(x) for x in tail]
            assert not any(r.startswith("ERR") for r in expected), expected
            for other in (replay, restored):
                assert [other.handle(x) for x in tail] == expected
                assert other.engine.snapshot_json() == live.snapshot_json()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


@pytest.mark.parametrize("kind", KINDS)
def test_live_restored_and_replayed_sessions_agree(kind):
    machine = type(f"StreamMachine_{kind.replace('-', '_')}", (StreamMachine,), {"kind": kind})
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=40, stateful_step_count=50, deadline=None),
    )


# ---------------------------------------------------------------------------
# replies to malformed and refused conflicts= fields


def _after(kind: str, prefix: list[str], line: str) -> str:
    session = StreamSession(make_engine(kind), full_precision=True)
    for x in prefix:
        assert not session.handle(x).startswith("ERR"), x
    return session.handle(line)


SETUP = ["H 1", "P 1 0.5", "H 2", "P 2 0.5", "H 3 conflicts=2", "P 3 0.5"]


@pytest.mark.parametrize(
    "field, reply",
    [
        ("a", "ERR bad-index index must be an integer, got 'a'"),
        ("0", "ERR bad-index index must be positive, got 0"),
        ("-2", "ERR bad-index index must be positive, got -2"),
        ("3,x,1", "ERR bad-index index must be an integer, got 'x'"),
        ("3,0,x", "ERR bad-index index must be positive, got 0"),
        ("4", "ERR domain-error conflict set of 4 contains out-of-range indices"),
    ],
)
def test_malformed_conflicts_replies(field, reply):
    assert _after("graph-conf", SETUP, f"H 4 conflicts={field}") == reply


def test_conflicts_field_parses_like_the_per_token_path():
    """Empty tokens are skipped, and order and duplicates do not matter."""
    replies = {
        field: _after("graph-conf", SETUP, f"H 4 conflicts={field}")
        for field in ("2,3", "2,,3", "3,2", "2,2,3", ",2,3,")
    }
    assert replies["2,3"].startswith("LEVEL 4 ")
    assert set(replies.values()) == {replies["2,3"]}
    assert _after("graph-conf", ["H 1"], "H 2 conflicts=1,,1") == _after(
        "graph-conf", ["H 1"], "H 2 conflicts=1"
    )


def test_gapped_and_non_monotone_conflicts_replies():
    prefix = ["H 1", "H 2 conflicts=1", "H 3 conflicts=1,2"]
    assert _after("graph-conf-u", prefix, "H 4 conflicts=1,3") == (
        "ERR non-contiguous-suffix graph-conf-u requires contiguous-suffix conflict "
        "sets; got [1, 3] at 4"
    )
    # spending-local and graph-conf accept gapped sets, once the index left
    # out is observed
    for kind in ("spending-local", "graph-conf"):
        assert _after(kind, prefix, "H 4 conflicts=1,3") == (
            "ERR missing-indicator levels need p-value feedback for indices [2]"
        )
        assert _after(kind, prefix + ["P 2 0.5"], "H 4 conflicts=1,3").startswith("LEVEL 4 ")
    for kind in ("spending-local", "graph-conf"):
        assert _after(kind, ["H 1", "P 1 0.5", "H 2", "H 3 conflicts=2"],
                      "H 4 conflicts=1,2,3") == (
            "ERR non-monotone-conflicts conflict sets are not monotone: 1 conflicts "
            "with 4 but not with intermediate index 2"
        )
    # The member reported is the first violator in the set's iteration
    # order, which for {6, 7, 8, 9} is 8, 9, 6, 7.
    prefix = [line for i in range(1, 10) for line in (f"H {i}", f"P {i} 0.5")]
    for field in ("6,7,8,9", "9,8,7,6"):
        assert _after("graph-conf", prefix, f"H 10 conflicts={field}") == (
            "ERR non-monotone-conflicts conflict sets are not monotone: 8 conflicts "
            "with 10 but not with intermediate index 9"
        )


@pytest.mark.parametrize("kind", KINDS)
def test_only_the_lag_form_kinds_refuse_a_gapped_set(kind):
    prefix = ["H 1", "P 1 0.5", "H 2 conflicts=1", "P 2 0.5", "H 3 conflicts=1,2", "P 3 0.5"]
    reply = _after(kind, prefix, "H 4 conflicts=1,3")
    if kind in ("graph-conf-u", *CLOSED):
        assert reply == (
            f"ERR non-contiguous-suffix {kind} requires contiguous-suffix conflict "
            "sets; got [1, 3] at 4"
        )
    else:
        assert reply.startswith("LEVEL 4 ")


# ---------------------------------------------------------------------------
# snapshot bytes after a fixed script

SCRIPT = [
    "H 1",
    "H 2 conflicts=1",
    "P 2 0.03",
    "P 1 0.6",
    "H 3 tau=0.5 lambda=0.1 conflicts=2",
    "H 4 conflicts=1,2,3",  # refused: 1 left X_3
    "P 3 0.001",
    "H 4 conflicts=3",
    "H 5 conflicts=3,4",
    "H 6 conflicts=4,5",
    "P 5 0.2",
    "P 4 0.9",
    "P 6 0.04",
    "H 7",
    "H 8 conflicts=7",
    "P 8 0.5",
]
# the closed kinds need every p-value before the next level
CLOSED_SCRIPT = [
    "H 1",
    "P 1 0.6",
    "H 2 conflicts=1",
    "P 2 0.03",
    "H 3 tau=0.5 lambda=0.1 conflicts=2",
    "H 4 conflicts=3",  # refused: no p-value for 3
    "P 3 0.001",
    "H 4 conflicts=1,2,3",  # refused: 1 left X_3
    "H 4 conflicts=3",
    "P 4 0.9",
    "H 5 conflicts=3,4",
    "P 5 0.2",
    "H 6 conflicts=4,5",
    "P 6 0.04",
    "H 7",
    "P 7 0.5",
    "H 8 conflicts=7",
    "P 8 0.5",
]

# sha256 of the version-2 snapshot_json() after SCRIPT, per kind; the digest
# of the replies
SNAPSHOT_SHA256 = {
    "closed-graph": (
        "e6c0d8edb2904a52d1d252bc84cc184a91fe55365cd057dc01658c1de5aef6ca",
        "f150caf27be20cb71b2cf2c172ed85c1e7b01ffe9c79d42431dc23713a0bd1f3",
    ),
    "closed-spending": (
        "451c713c40c99602786d3ea2aee633134824f1870c956e07954770d8179f4708",
        "9178af92d4f7cc230c0d9fc2ac9deb3171cc67883166a754b1e2e248238e2a8e",
    ),
    "fdr-graph": (
        "dc76ba75e0083cf09dd99aa07159bfcf36a62552a7dd4ea27a59290e8c10d2b1",
        "c384878b5e1ced907761367626dcea01d1c1652c89973f509214716430ae24ff",
    ),
    "graph-conf": (
        "575a2d2aa4e41a8d026d5d33d65a418bb9a59ae10ba54cb157f01eb588017022",
        "a11df5351dbebcc0602c53dca96c359412de38202671b80f26c2a41b709f7345",
    ),
    "graph-conf-u": (
        "b7420a4845551774628a712f7c5e144992f5e092201b8c8f6efa774587a4a497",
        "eeb47c53cdec37c9385b228c4015cb56d1954ea98dc319d1ec6c2d9c27b176c6",
    ),
    "spending-local": (
        "84739de81900de77280a0978b4c52770187430eb05fb2e02460986d0f573dc35",
        "050270d40ffbcf25967d3e54ab35e11b3c94e062f71c2f04456e810e77810455",
    ),
}


# sha256 of the version-1 snapshot_json() after SCRIPT, per kind, as the
# package wrote it before version 2; the texts are in V1_DIR
V1_SNAPSHOT_SHA256 = {
    "closed-graph": "0f943532a0bd9e0c3d95e4d255e37eba63a718fd3290a7db3f0f1b6fbd024200",
    "closed-spending": "bc178d5e7cb3c5d5675a7f7c1863a03734bf1fa6e02dd8b710bbc5e5020756a5",
    "fdr-graph": "3aa861b7cdd5b4e071910a97c296d18a87d32f3b2aa671de3b3ea5816d44eba0",
    "graph-conf": "25541953278bb2d92d079c1b59275195570c70571756f36c55c1dcf8ab7b6b17",
    "graph-conf-u": "5a00e1364404ce234511093736dc5ae4fcdd3846dd02f64e6813f2a8e3968c29",
    "spending-local": "caf0d1392a2f0ddd30ff0a1a710c1d007d5e37934239b385865fc64eee8df6bd",
}
V1_DIR = Path(__file__).resolve().parent / "snapshots_v1"


def _scripted(kind: str) -> tuple[StreamSession, list[str]]:
    session = StreamSession(make_engine(kind), full_precision=True)
    replies = [session.handle(line) for line in (CLOSED_SCRIPT if kind in CLOSED else SCRIPT)]
    return session, replies


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_bytes_after_a_fixed_script(kind):
    session, replies = _scripted(kind)
    assert any(r.startswith("ERR") for r in replies)
    text = session.engine.snapshot_json()
    digests = (
        hashlib.sha256(text.encode()).hexdigest(),
        hashlib.sha256("\n".join(replies).encode()).hexdigest(),
    )
    assert digests == SNAPSHOT_SHA256[kind]
    assert FwerEngine.restore(text).snapshot_json() == text


@pytest.mark.parametrize("kind", KINDS)
def test_a_version_1_snapshot_restores_to_the_live_session(kind):
    """The version-1 file of the fixed script restores to the live engine:
    the same ledger, the same version-2 snapshot and the same next level."""
    text = (V1_DIR / f"{kind}.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == V1_SNAPSHOT_SHA256[kind]
    live, _ = _scripted(kind)
    restored = StreamSession(FwerEngine.restore(text), full_precision=True)
    assert restored.engine.ledger.entries == live.engine.ledger.entries
    assert restored.engine.snapshot_json() == live.engine.snapshot_json()
    assert restored.handle("H 9 conflicts=8") == live.handle("H 9 conflicts=8")


# ---------------------------------------------------------------------------
# budget certificates of the engine's ledger


def _copy(ledger) -> TrajectoryLedger:
    out = TrajectoryLedger()
    for e in ledger.entries:
        out.append(LedgerEntry(index=e.index, level=e.level, tau=e.tau, lam=e.lam,
                               indicators=e.indicators))
    return out


def _reports(ledger, alpha):
    """Both certificates of a ledger, or the message that refuses them."""
    try:
        rows = ledger.rows()
        return (check_fwer_condition(ledger, alpha), check_fdr_condition(ledger, alpha),
                [row.tobytes() for row in rows], budget_path(*rows[:4]).tobytes())
    except IncompleteLedger as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    lag=st.integers(0, 4),
    alpha=st.sampled_from([0.05, 0.2, 0.6]),
)
def test_ledger_certifies_like_a_trajectory_ledger(kind, p, lag, alpha):
    """After every request the engine's ledger and an entry-by-entry copy
    give equal reports, for the FWER and the FDR condition, or refuse them
    alike while p-values are pending."""
    engine = make_engine(kind, alpha=alpha)
    n = len(p)

    def agree():
        copy = _copy(engine.ledger)
        assert len(engine.ledger) == len(copy) == engine.issued
        assert _reports(engine.ledger, alpha) == _reports(copy, alpha)

    def observe_below(m):
        for j in range(1, m):
            if engine.ledger.entries[j - 1].indicators is None:
                engine.observe(j, p[j - 1])
                agree()

    agree()
    for i in range(1, n + 1):
        lo = max(1, i - lag)
        observe_below(i if kind in CLOSED else lo)
        engine.level(i, conflicts=range(lo, i))
        agree()
    observe_below(n + 1)


def test_structure_lag_view_matches_explicit_conflicts():
    """An engine given a lag-form structure's sets issues the levels of one
    given the same sets as explicit lists, and takes the same snapshot."""
    lags = [0, 1, 2, 2, 1, 2, 3, 3, 0, 1]
    structure = ConflictStructure.from_lags(lags)
    p = np.random.default_rng(5).uniform(size=len(lags))
    for kind in KINDS:
        a = make_engine(kind)
        b = make_engine(kind)
        for i in range(1, len(lags) + 1):
            for j in range(1, i):
                if a.ledger.entries[j - 1].indicators is None:
                    a.observe(j, float(p[j - 1]))
                    b.observe(j, float(p[j - 1]))
            want = b.level(i, conflicts=list(range(i - lags[i - 1], i)))
            assert a.level(i, conflicts=structure.conflict_set(i)) == want
        assert a.snapshot() == b.snapshot()


# ---------------------------------------------------------------------------
# replies of a delay-10 session whose windows hold pending p-values

PIN_N = 200
PIN_DELAY = 10


def _late_session_lines(kind: str, p_row, n: int = PIN_N) -> list[str]:
    """Requests of a delay-10 session, each ``P`` sent as late as allowed.

    ``H i`` declares the window ``{i-10 .. i-1}``.  An open kind needs the
    p-values of ``1 .. lo-1`` before it levels ``i``, so up to ten levels
    wait for feedback at once; a closed kind needs every predecessor, so its
    ``P i`` follows ``H i`` at once.
    """
    lines, sent = [], 0
    for i in range(1, n + 1):
        lo = max(1, i - PIN_DELAY)
        if kind not in CLOSED:
            while sent < lo - 1:
                sent += 1
                lines.append(f"P {sent} {float(p_row[sent - 1])!r}")
        window = ",".join(str(j) for j in range(lo, i))
        lines.append(f"H {i} conflicts={window}" if window else f"H {i}")
        if kind in CLOSED:
            sent = i
            lines.append(f"P {i} {float(p_row[i - 1])!r}")
    lines.extend(f"P {j} {float(p_row[j - 1])!r}" for j in range(sent + 1, n + 1))
    return lines


# sha256 of the full-precision replies and of the version-2 snapshot_json()
# at the end, per kind, for the session of _late_session_lines
LATE_SESSION_SHA256 = {
    "closed-graph": (
        "733c355700b42b8a40226c56a4de083f41370811a42b32e6486245a65760e528",
        "e5a46dba287eb2558785a4895248d0c7e58e1955ffdda9c4fc4ba69c15bc372b",
    ),
    "closed-spending": (
        "3b974ee8c7a713c2a0134183301a521760b9099370b753c1efc8d86ad8705a53",
        "409a114fc05967ea469e4092550979c9bf27cc2c706a2745da8963e5d8993db3",
    ),
    "fdr-graph": (
        "3dff78a9789744213b5d4a433a91309630ec2b9005b880e01e30a28433f2d752",
        "42f4a8a897cb69c53ecd29a9fc6a0ba7b252fb41fe23963d16af5bab020139ae",
    ),
    "graph-conf": (
        "28200938520245c7f320f8d66c44e444511036344bd9f00c261c8de5ca7ef1fe",
        "8061eb3d95a053cb5745aac575eb7495f17b9ab37012ab17c32b825d6f232490",
    ),
    "graph-conf-u": (
        "f2b864e6b9028cba8af50a8e14f212241743876e3f5e6f85aaeffa37e17f3375",
        "7c497fb8fef7c4a7873320fdf8c03267fa4174218b480bb9ef04fb3bd0b2eddf",
    ),
    "spending-local": (
        "7acf378d6e954f7306497c9bc7493a10fd8e39d04e311d94979b0bc6431eb8e0",
        "308448b8dceee0bde1e2806051999170ca013b59eccdf946abab4dafe1485695",
    ),
}


# (passed, max_spend.hex(), worst_index) of check_fwer_condition and of
# check_fdr_condition on the final ledger of that session, per kind
LATE_SESSION_REPORTS = {
    "closed-graph": ((True, "0x1.59e3645fcb71dp-6", 200), (True, "0x1.6774609dcad1ap-7", 12)),
    "closed-spending": ((True, "0x1.205ab1e9e63a8p-3", 198), (True, "0x1.09e252f001827p-3", 7)),
    "fdr-graph": ((False, "0x1.984f0eb833672p-2", 191), (True, "0x1.35212a6a904edp-8", 43)),
    "graph-conf": ((True, "0x1.52b39c451ef01p-3", 193), (True, "0x1.e1587d500d6e8p-8", 7)),
    "graph-conf-u": ((True, "0x1.8d46263bf5d12p-3", 200), (True, "0x1.57b2e11669d7dp-3", 6)),
    "spending-local": ((True, "0x1.93ce2a104fa4ep-5", 198), (True, "0x1.f2038dc29bbc1p-6", 2)),
}


def _late_session(kind: str, seed: int) -> tuple[StreamSession, list[str]]:
    """A full-precision session of _late_session_lines over ``kind``'s row of
    the p-values drawn at ``seed``, and its replies, none of them an error."""
    config = SimConfig(n=PIN_N, e=PIN_DELAY, pi_a=0.3, mu_n=-0.5, trials=len(KINDS), seed=seed)
    p, _ = generate_data(config)
    session = StreamSession(make_engine(kind), full_precision=True)
    replies = [session.handle(line) for line in _late_session_lines(kind, p[KINDS.index(kind)])]
    assert not any(r.startswith("ERR") for r in replies)
    return session, replies


@pytest.mark.parametrize("kind", KINDS)
def test_replies_of_a_delay_10_session_are_pinned(kind):
    session, replies = _late_session(kind, seed=3)
    digests = (
        hashlib.sha256("\n".join(replies).encode()).hexdigest(),
        hashlib.sha256(session.engine.snapshot_json().encode()).hexdigest(),
    )
    assert digests == LATE_SESSION_SHA256[kind]
    engine = session.engine
    reports = tuple(
        (r.passed, r.max_spend.hex(), r.worst_index)
        for r in (check_fwer_condition(engine.ledger, engine.alpha),
                  check_fdr_condition(engine.ledger, engine.alpha))
    )
    assert reports == LATE_SESSION_REPORTS[kind]


# sha256 of the full-precision replies of the session of _late_session_lines
# at seeds 0 and 1, per kind: the request shape of the stream benchmark, whose
# windows slide past pending p-values at every level
LATE_SESSION_SEEDS = (0, 1)
LATE_SESSION_REPLIES_SHA256 = {
    "closed-graph": (
        "fa76ada340419991438734fa2242ee56bb8f15cc8b99911ad7e0c3b9cab9a7a7",
        "b90748e733933bed67a6c08766018bee9d847201ed267b4f869bc781610f38c7",
    ),
    "closed-spending": (
        "907146eea984f99e9307f6d6c0ef9f5dc3b2cd83cba4a3fb8786bb15715fd8a0",
        "36f4afe6ea21d7787e155b9c5d34bf09538149dfa16a864abca56c965fe71521",
    ),
    "fdr-graph": (
        "234703eee6804a60f216f644c5cc6bef42b4f582b29ba2d4a105dbbd7128a344",
        "6a435058112eb1814936307cfec6828959b6269b8c4da0b5e3b60ff01d77f0eb",
    ),
    "graph-conf": (
        "c70f5551527160c8f588c57b4cdbbe56ee202152092928fdf9420e8c7f980dd4",
        "5d4c580fbbb8f72af0d7c5853b4402145e5e8d61ce8459cdfe489d69e6325565",
    ),
    "graph-conf-u": (
        "c212223f16496997ed193d34db5e593ba1bb8d74f00b0852a52002d8142bb214",
        "c52e150ea151c56396b332628ece576896c54d9a916d6ea69d478b4acca087d2",
    ),
    "spending-local": (
        "d30dbed3ee191117de46365491af11709013922ee4d0f94356e60dd7d3ea793a",
        "c92229081b2691565b6e70c7dcba5bff0a4762a497ee6f807da714895074ab73",
    ),
}


@pytest.mark.parametrize("seed", LATE_SESSION_SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_replies_of_delay_10_sessions_at_two_more_seeds_are_pinned(kind, seed):
    _, replies = _late_session(kind, seed)
    digest = hashlib.sha256("\n".join(replies).encode()).hexdigest()
    assert digest == LATE_SESSION_REPLIES_SHA256[kind][LATE_SESSION_SEEDS.index(seed)]


# sha256 per kind over the full-precision replies of _late_session_lines at
# n = 800 for seeds 0..23, each session's replies joined by newlines and ended
# by one, in seed order: the 144 sessions of the stream benchmark, which gives
# the kth kind of BENCH_KINDS row k of each seed's draw.  Recorded on the
# engines as they stood before the closed kernels took max(R, C) from their
# callers and kept integer counters, before the open kinds counted U with
# count_nonzero, before observe stored only the indicators that are 1, and
# before the stream passed a contiguous conflicts= field on as a range.
BENCH_N = 800
BENCH_SEEDS = range(24)
BENCH_KINDS = (
    "spending-local", "graph-conf", "graph-conf-u", "closed-spending", "closed-graph", "fdr-graph",
)
BENCH_REPLIES_SHA256 = {
    "spending-local": "b971fbd9b1e6871cdbf11d78f6dd9ee21f474c02d8d83527e6e60880bdc1f23b",
    "graph-conf": "2ad60382a8e8bdbae6f82ba18574b16c9eb708b0b0be7484c82ec038b24b4b88",
    "graph-conf-u": "f685c033d39e7e289e5dc3c3634d5b1952fe5010ccc1a33c3eb589fe28e99a40",
    "closed-spending": "964c5a5aa2653f62d77161bd5ca5a6046f7f1ade557cf852cd9c83090b5a6898",
    "closed-graph": "fc8aacb03995ca7c4c4626550bf5b1de22bd672803f013dd3553ce926a0eb73a",
    "fdr-graph": "07ca08a62d77df80bcf5f4dfd7c0b229f23e8f7f69a58a43f22ac938c895edcb",
}


@pytest.mark.parametrize("kind", BENCH_KINDS)
def test_replies_of_the_benchmark_sessions_are_pinned(kind):
    assert sorted(BENCH_KINDS) == KINDS
    digest = hashlib.sha256()
    for seed in BENCH_SEEDS:
        config = SimConfig(
            n=BENCH_N, e=PIN_DELAY, pi_a=0.3, mu_n=-0.5, trials=len(BENCH_KINDS), seed=seed
        )
        p, _ = generate_data(config)
        session = StreamSession(make_engine(kind), full_precision=True)
        lines = _late_session_lines(kind, p[BENCH_KINDS.index(kind)], n=BENCH_N)
        replies = [session.handle(line) for line in lines]
        assert not any(r.startswith("ERR") for r in replies)
        digest.update(("\n".join(replies) + "\n").encode())
    assert digest.hexdigest() == BENCH_REPLIES_SHA256[kind]
