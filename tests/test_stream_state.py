"""Live sessions, restored snapshots and replays of the accepted lines agree.

A hypothesis state machine drives one stream session per engine kind with
valid and invalid protocol lines interleaved: out-of-order and duplicate
``P``, bad indices, non-monotone and non-contiguous ``conflicts=``, bad
thresholds and ``SAVE``.  A line answered ``ERR`` must change nothing; the
live engine, ``restore(snapshot)`` and a fresh session fed only the
accepted lines must then agree bit for bit, in their snapshots and in every
reply to a common continuation.  Beside it: the replies to malformed
``conflicts=`` fields and the snapshot bytes after a fixed script, pinned
as strings and digests, and the budget certificates of the engine's ledger
against a ledger built entry by entry.
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
    check_fdr_condition,
    check_fwer_condition,
)
from addisgraph.engines import ENGINE_KINDS, FwerEngine, make_engine
from addisgraph.errors import IncompleteLedger
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
    assert _after("spending-local", prefix, "H 4 conflicts=1,3") == (
        "ERR non-contiguous-suffix spending-local requires contiguous-suffix conflict "
        "sets; got [1, 3] at 4"
    )
    # graph-conf accepts gapped sets, once the index left out is observed
    assert _after("graph-conf", prefix, "H 4 conflicts=1,3") == (
        "ERR missing-indicator levels need p-value feedback for indices [2]"
    )
    assert _after("graph-conf", prefix + ["P 2 0.5"], "H 4 conflicts=1,3").startswith("LEVEL 4 ")
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

# sha256 of snapshot_json() after SCRIPT, per kind; the digest of the replies
SNAPSHOT_SHA256 = {
    "closed-graph": (
        "0f943532a0bd9e0c3d95e4d255e37eba63a718fd3290a7db3f0f1b6fbd024200",
        "f150caf27be20cb71b2cf2c172ed85c1e7b01ffe9c79d42431dc23713a0bd1f3",
    ),
    "closed-spending": (
        "bc178d5e7cb3c5d5675a7f7c1863a03734bf1fa6e02dd8b710bbc5e5020756a5",
        "9178af92d4f7cc230c0d9fc2ac9deb3171cc67883166a754b1e2e248238e2a8e",
    ),
    "fdr-graph": (
        "3aa861b7cdd5b4e071910a97c296d18a87d32f3b2aa671de3b3ea5816d44eba0",
        "c384878b5e1ced907761367626dcea01d1c1652c89973f509214716430ae24ff",
    ),
    "graph-conf": (
        "25541953278bb2d92d079c1b59275195570c70571756f36c55c1dcf8ab7b6b17",
        "a11df5351dbebcc0602c53dca96c359412de38202671b80f26c2a41b709f7345",
    ),
    "graph-conf-u": (
        "5a00e1364404ce234511093736dc5ae4fcdd3846dd02f64e6813f2a8e3968c29",
        "eeb47c53cdec37c9385b228c4015cb56d1954ea98dc319d1ec6c2d9c27b176c6",
    ),
    "spending-local": (
        "caf0d1392a2f0ddd30ff0a1a710c1d007d5e37934239b385865fc64eee8df6bd",
        "050270d40ffbcf25967d3e54ab35e11b3c94e062f71c2f04456e810e77810455",
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_bytes_after_a_fixed_script(kind):
    session = StreamSession(make_engine(kind), full_precision=True)
    replies = [session.handle(line) for line in (CLOSED_SCRIPT if kind in CLOSED else SCRIPT)]
    assert any(r.startswith("ERR") for r in replies)
    text = session.engine.snapshot_json()
    digests = (
        hashlib.sha256(text.encode()).hexdigest(),
        hashlib.sha256("\n".join(replies).encode()).hexdigest(),
    )
    assert digests == SNAPSHOT_SHA256[kind]


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
        return (check_fwer_condition(ledger, alpha), check_fdr_condition(ledger, alpha),
                ledger.budget_spent().tobytes(), ledger.rejection_counts().tobytes())
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
    """An engine built on a lag-form structure issues the levels of one
    given the same sets explicitly, and records the same events."""
    lags = [0, 1, 2, 2, 1, 2, 3, 3, 0, 1]
    structure = ConflictStructure.from_lags(lags)
    p = np.random.default_rng(5).uniform(size=len(lags))
    for kind in KINDS:
        a = make_engine(kind, structure=structure)
        b = make_engine(kind)
        for i in range(1, len(lags) + 1):
            for j in range(1, i):
                if a.ledger.entries[j - 1].indicators is None:
                    a.observe(j, float(p[j - 1]))
                    b.observe(j, float(p[j - 1]))
            assert a.level(i) == b.level(i, conflicts=list(range(i - lags[i - 1], i)))
        assert a.snapshot()["events"] == b.snapshot()["events"]
