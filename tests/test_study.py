import hashlib
import re

import numpy as np
import pytest

from addisgraph.engines import make_engine
from addisgraph.errors import DomainError, InvalidConfig, MissingData, MissingIndicator
from addisgraph.gammas import GammaSpec
from addisgraph.study import ReplayStudy, replay_study

from pathlib import Path

STRUCTURE_FILE = Path(__file__).resolve().parent.parent / "data" / "recovery.study"


@pytest.fixture()
def structure():
    return ReplayStudy.parse(STRUCTURE_FILE)


def _with_p(tmp_path, p_values):
    text = open(STRUCTURE_FILE).read()
    for i, p in enumerate(p_values, start=1):
        text = text.replace(f"T{i} ", f"T{i} ", 1)
    lines = []
    k = 0
    for line in text.splitlines():
        if line.strip().startswith("T") and "enter=" in line:
            line = line.replace("p=NA", f"p={p_values[k]}")
            k += 1
        lines.append(line)
    path = tmp_path / "filled.study"
    path.write_text("\n".join(lines) + "\n")
    return ReplayStudy.parse(path)


def test_structure_file_parses(structure):
    assert structure.n == 12
    assert all(h.p is None for h in structure.hypotheses)  # p=NA placeholders
    assert structure.defaults == {"alpha": 0.05, "tau": 0.8, "lam": 0.3}


def test_overlap_derived_conflicts(structure):
    sets = structure.conflict_sets
    # early arms all overlap each other
    assert sets[3] == frozenset({1, 2, 3})
    assert sets[6] == frozenset({4, 5, 6})   # arms 1-3 free from arm 7 onwards
    assert sets[9] == frozenset({5, 7, 8, 9})  # arms 4 and 6 free from arm 10
    assert sets[10] == frozenset({7, 8, 9, 10})  # arm 5 free from arm 11
    assert 5 not in sets[10]


def test_placeholder_p_values_refuse_replay(structure):
    with pytest.raises(MissingData):
        replay_study(structure)


def test_conflict_override(tmp_path):
    path = tmp_path / "o.study"
    path.write_text(
        "T1 enter=1 exit=5 p=0.5\nT2 enter=2 exit=6 p=0.5\n"
        "conflicts T2 = \n"
    )
    study = ReplayStudy.parse(path)
    assert study.conflict_sets[1] == frozenset()


def test_conflict_override_for_a_missing_arm_is_rejected(tmp_path):
    path = tmp_path / "missing.study"
    path.write_text(
        "T1 enter=1 exit=5 p=0.5\nT2 enter=2 exit=6 p=0.5\nconflicts T7 = 1\n"
    )
    with pytest.raises(InvalidConfig, match="T7"):
        ReplayStudy.parse(path)


def test_q_falls_back_to_the_study_default(tmp_path):
    path = tmp_path / "q.study"
    path.write_text("q = 0.3\nT1 enter=1 exit=5 p=0.01\nT2 enter=2 exit=6 p=0.9\n")
    study = ReplayStudy.parse(path)
    assert study.defaults["q"] == 0.3
    report = replay_study(study)
    assert report.q == 0.3
    np.testing.assert_array_equal(report.levels, replay_study(study, q=0.3).levels)
    assert replay_study(study, q=0.7).q == 0.7  # an explicit q wins
    path.write_text("T1 enter=1 exit=5 p=0.01\n")
    assert replay_study(ReplayStudy.parse(path)).q == 0.6


def test_conflict_override_naming_a_later_hypothesis_is_rejected(tmp_path):
    path = tmp_path / "later.study"
    path.write_text(
        "T1 enter=1 exit=5 p=0.5\nT2 enter=2 exit=6 p=0.5\n"
        "T3 enter=3 exit=7 p=0.5\nconflicts T2 = T3\n"
    )
    with pytest.raises(DomainError, match="conflict set of 2 contains index 3 "):
        ReplayStudy.parse(path)


def test_bad_study_file_reports_line(tmp_path):
    path = tmp_path / "bad.study"
    path.write_text("T1 enter=1 exit=2 p=0.5\nT2 enter=x exit=3 p=0.5\n")
    with pytest.raises(InvalidConfig, match="2"):
        ReplayStudy.parse(path)


@pytest.mark.parametrize(
    "text, lineno, what",
    [
        ("alpha = 0.05\nalpha = 0.5\n", 2, "duplicate key 'alpha'"),
        ("lambda = 0.3\nlam = 0.2\n", 2, "duplicate key 'lam'"),
        ("T1 enter=1 exit=2 p=0.01 p=0.5\n", 1, "duplicate field 'p'"),
        ("T1 enter=1 exit=2 p=0.5\nT2 enter=2 exit=3 p=0.5 foo=1\n", 2, "unknown field 'foo'"),
        (
            "T1 enter=1 exit=4 p=0.5\nT2 enter=2 exit=5 p=0.5\nT3 enter=3 exit=6 p=0.5\n"
            "conflicts T3 = 1, 2\nconflicts T3 = 2\n",
            5,
            "duplicate conflicts for T3",
        ),
        (
            "T1 enter=1 exit=4 p=0.5\nT2 enter=2 exit=5 p=0.5\nT2 enter=3 exit=6 p=0.5\n",
            3,
            "duplicate T2",
        ),
        (b"T1 enter=1 exit=4 p=0.5\nT2 enter=2 exit=5 p=0.5 # \xff\n", 2, "not UTF-8"),
    ],
)
def test_study_file_refuses_a_repeated_or_unknown_entry(tmp_path, text, lineno, what):
    """A default set twice, a field repeated on a ``T`` line, an unknown
    field, a second ``conflicts`` line for one arm or a second line for one
    arm is refused with its line, not resolved by the last value; so is a
    line holding a byte that is not UTF-8, even in its comment."""
    path = tmp_path / "bad.study"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(InvalidConfig, match=f"^{re.escape(f'{path}:{lineno}: {what}')}$"):
        ReplayStudy.parse(path)


@pytest.mark.parametrize(
    "times, what",
    [
        ("enter=5 exit=2", "exit time 2.0 is before enter time 5.0"),
        ("enter=1 exit=nan", "exit time nan is before enter time 1.0"),
        ("enter=nan exit=2", "enter time nan is not finite"),
        ("enter=nan exit=nan", "enter time nan is not finite"),
        ("enter=-inf exit=2", "enter time -inf is not finite"),
        ("enter=inf exit=inf", "enter time inf is not finite"),
    ],
)
def test_study_file_refuses_bad_entry_and_exit_times(tmp_path, times, what):
    """An arm enters at a finite time and leaves at or after it; a NaN
    fails both, where it used to conflict with no later arm."""
    path = tmp_path / "bad.study"
    path.write_text(f"T1 enter=0 exit=9 p=0.5\nT2 {times} p=0.5\nT3 enter=6 exit=9 p=0.5\n")
    with pytest.raises(InvalidConfig, match=f"^{re.escape(f'{path}:2: {what}')}$"):
        ReplayStudy.parse(path)


def test_an_arm_still_running_conflicts_with_every_later_arm(tmp_path):
    path = tmp_path / "open.study"
    path.write_text("T1 enter=1 exit=inf p=0.5\nT2 enter=2 exit=3 p=0.5\nT3 enter=9 exit=9 p=0.5\n")
    study = ReplayStudy.parse(path)
    assert study.conflict_sets == [frozenset(), frozenset({1}), frozenset({1})]


def test_nonconsecutive_indices_rejected(tmp_path):
    path = tmp_path / "gap.study"
    path.write_text("T1 enter=1 exit=2 p=0.5\nT3 enter=2 exit=3 p=0.5\n")
    with pytest.raises(InvalidConfig):
        ReplayStudy.parse(path)


def test_untested_future_level_is_alpha():
    spec = GammaSpec(kind="geometric", q=0.6)
    for kind in ("graph-conf", "spending-local"):
        engine = make_engine(kind, alpha=0.05, gamma=spec)
        assert engine.future_level() == pytest.approx(0.05, abs=1e-15), kind


@pytest.mark.parametrize("kind", ["graph-conf", "spending-local"])
def test_future_level_waits_for_every_p_value(kind):
    engine = make_engine(kind, alpha=0.05, gamma="geometric:0.6")
    engine.level(1)
    engine.level(2, conflicts={1})
    engine.observe(2, 0.5)
    with pytest.raises(MissingIndicator, match=r"\[1\]"):
        engine.future_level()
    engine.observe(1, 0.9)
    assert engine.future_level() > 0.0


@pytest.mark.parametrize("procedure", ["graph", "spending"])
def test_replay_refuses_an_inverted_gap(tmp_path, procedure):
    path = tmp_path / "gap.study"
    path.write_text("T1 enter=1 exit=5 p=0.01\nT2 enter=2 exit=6 p=0.9\n")
    with pytest.raises(InvalidConfig, match="lambda"):
        replay_study(ReplayStudy.parse(path), procedure=procedure, tau=0.3, lam=0.5)


@pytest.mark.parametrize("procedure", ["graph", "spending"])
def test_geometric_tail_identity_zero_carryover(tmp_path, procedure):
    """All p-values in the discard gap: nothing carried, pure seed tail remains."""
    study = _with_p(tmp_path, [0.5] * 12)  # lambda=0.3 < 0.5 <= tau=0.8 -> U = 0
    report = replay_study(study, procedure=procedure, q=0.6)
    assert report.rejections == 0
    assert report.future_level == pytest.approx(0.05 * 0.6**12, abs=1e-12)


@pytest.mark.parametrize("procedure", ["graph", "spending"])
def test_full_recycling_preserves_whole_budget(tmp_path, procedure):
    study = _with_p(tmp_path, [0.9] * 12)  # all above tau -> U = 1 everywhere
    report = replay_study(study, procedure=procedure, q=0.6)
    assert report.future_level == pytest.approx(0.05, rel=1e-10)


def test_replay_idempotent(tmp_path):
    rng = np.random.default_rng(0)
    study = _with_p(tmp_path, np.round(rng.uniform(size=12), 4))
    a = replay_study(study, procedure="graph", q=0.7)
    b = replay_study(study, procedure="graph", q=0.7)
    assert a.rejections == b.rejections
    assert a.future_level == b.future_level
    np.testing.assert_array_equal(a.levels, b.levels)


def test_graph_replay_rejects_at_least_spending(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(10):
        p = np.round(rng.uniform(size=12) ** 2, 6)
        study = _with_p(tmp_path, p)
        for q in (0.6, 0.7, 0.8):
            g = replay_study(study, procedure="graph", q=q)
            s = replay_study(study, procedure="spending", q=q)
            assert g.future_level >= -1e-12 and s.future_level >= -1e-12
            # budgets never exceed the overall level
            assert g.future_level <= 0.05 + 1e-9
            assert s.future_level <= 0.05 + 1e-9


def test_summary_formats():
    study = ReplayStudy.parse(STRUCTURE_FILE)
    # structure-only study still formats a summary through a filled clone
    from addisgraph.study import ReplayReport

    report = ReplayReport(
        procedure="graph", q=0.6, rejections=3, future_level=0.02561234,
        levels=np.zeros(1), decisions=np.zeros(1, dtype=bool),
    )
    assert "future-level=0.0256" in report.summary()
    assert "0.02561234" in report.summary(full_precision=True)


# sha256 of the float.hex of every replay level and future level below,
# recorded before the replay drove the public engines
REPLAY_SHA256 = "5d69bd91646927b64e7c627e1ec091e9aa04b758b329c47d62e3405afe146023"


def test_replay_bits_are_pinned(tmp_path):
    """Five seeded fills of the structure file, both procedures, q in
    {0.6, 0.7, 0.8}; the file's later arms have gapped conflict sets."""
    digest = hashlib.sha256()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        study = _with_p(tmp_path, np.round(rng.uniform(size=12) ** 2, 6))
        for procedure in ("graph", "spending"):
            for q in (0.6, 0.7, 0.8):
                report = replay_study(study, procedure=procedure, q=q)
                line = " ".join(float(v).hex() for v in report.levels)
                digest.update(f"{seed} {procedure} {q} {report.future_level.hex()} {line}\n".encode())
    assert digest.hexdigest() == REPLAY_SHA256
