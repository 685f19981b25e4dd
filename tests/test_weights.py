import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from addisgraph.core import ConflictStructure, validate_conflicts
from addisgraph.errors import DegenerateRenormalization, InvalidSpec, NonMonotoneConflicts
from addisgraph import weights
from addisgraph.gammas import GammaSpec
from addisgraph.weights import (
    CORR_MAX_NODES,
    CORR_QUAD_NODES,
    NDTR_ONE,
    Closure,
    ClosureCounter,
    CustomTable,
    HeldMass,
    IncrementalRenormalizer,
    JointTail,
    ShiftedGamma,
    corr_nodes,
    gauss_legendre,
    lemma1_row,
    renorm_table,
)

BASEL = GammaSpec.parse("basel")


def _lag_structure(lags):
    return validate_conflicts(ConflictStructure.from_lags(lags), lag_form=True)


# ---------------------------------------------------------------------------
# base weights


@pytest.mark.parametrize("t_j", [1, 2, 5])
def test_lemma1_row_telescopes_to_one(t_j):
    row = lemma1_row(BASEL, t_j, 4000)
    # sum_i (gamma_{t+i-j-1} - gamma_{t+i-j}) / gamma_t telescopes
    assert float(np.sum(row)) == pytest.approx(
        1.0 - BASEL.value(t_j + 4000) / BASEL.value(t_j), rel=1e-12
    )
    assert np.all(row >= 0)


def test_shifted_gamma_rule():
    rule = ShiftedGamma(BASEL)
    assert rule.weight(2, 5) == pytest.approx(BASEL.value(3), abs=0)
    assert rule.tail_mass(1, 4) == pytest.approx(BASEL.tail_sum(3), rel=1e-12)


def test_spending_counters():
    # t(j) = 1 + sum_{k<j} (1 - U_k), as the held-mass kernel advances it
    u = np.array([1, 0, 0, 1, 0])
    held, t = HeldMass(BASEL, 0.2), []
    for m in range(1, u.size + 1):
        t.append(int(held.t[0]))
        held.level(m, m)
        held.hold(m, m, u[m - 1 : m])
    assert t == [1, 1, 2, 3, 3]


# ---------------------------------------------------------------------------
# conflict renormalization


def _online(spec, structure, n):
    """The renormaliser driven in target order as the engines drive it, and
    its table W[j-1, i-1] of g*[j, i] for targets 1 .. n."""
    inc = IncrementalRenormalizer(ShiftedGamma(spec))
    w = np.zeros((n, n))
    for i in range(2, n + 1):
        col, cleared = inc.column(i, structure.conflict_sets[i - 1])
        inc.pin(cleared)
        w[: i - 1, i - 1] = col
    return inc, w


def test_renormalized_zeroes_conflicts_and_preserves_row_mass():
    structure = _lag_structure([0, 1, 2, 2, 2, 2])
    n = 6
    inc, w = _online(BASEL, structure, n)
    for j in range(1, n):
        blocked = [i for i in range(j + 1, n + 1) if j in structure.conflict_set(i)]
        for i in blocked:
            assert w[j - 1, i - 1] == 0.0
        mass = float(np.sum(w[j - 1])) + inc.tail_mass(j, n)
        assert mass == pytest.approx(1.0, rel=1e-12)


def test_incremental_matches_static():
    """The per-pair ``weight`` path against the runners' static table; the
    tail past the horizon completes each row to one."""
    lags = [0, 1, 2, 2, 1, 0, 1, 2, 3, 3]
    structure = _lag_structure(lags)
    static = renorm_table(BASEL, np.array(lags), len(lags))
    inc = IncrementalRenormalizer(ShiftedGamma(BASEL))
    n = len(lags)
    for i in range(1, n + 1):
        x = structure.conflict_set(i)
        for j in range(1, i):
            assert inc.weight(j, i, conflicting=j in x) == static[j, i]
    for j in range(1, n + 1):
        want = 1.0 - float(np.sum(static[j, j + 1 :]))
        assert inc.tail_mass(j, n) == pytest.approx(want, rel=1e-13)


def test_renormalization_handles_non_suffix_monotone_sets():
    # X_3 = {1}: index 2 is clear while 1 is still conflicting
    structure = validate_conflicts(
        ConflictStructure([frozenset(), frozenset({1}), frozenset({1})])
    )
    inc, w = _online(BASEL, structure, 3)
    assert w[0, 1] == 0.0
    assert w[0, 2] == 0.0
    assert w[1, 2] > 0.0
    # source 1 is blocked through the horizon; its mass waits beyond it
    assert inc.tail_mass(1, 3) == pytest.approx(1.0, rel=1e-12)


def test_degenerate_row_warns():
    spec = GammaSpec(kind="geometric", q=0.5)
    # conflict horizon so long that the source row's remaining mass underflows
    lags = [min(i, 900) for i in range(1000)]
    structure = _lag_structure(lags)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateRenormalization):
            _online(spec, structure, 950)


# Bases for the window-form check: two shifted gammas, a finite table whose
# rows hold less than one, and a steep gamma whose long windows leave a
# degenerate row.
WINDOW_BASES = {
    "basel": lambda: ShiftedGamma(BASEL),
    "power:1.6": lambda: ShiftedGamma(GammaSpec.parse("power:1.6")),
    "custom": lambda: CustomTable(
        {(j, i): 0.4 * 0.6 ** (i - j - 1) for j in range(1, 60) for i in range(j + 1, j + 12)}
    ),
    "geometric:0.5": lambda: ShiftedGamma(GammaSpec.parse("geometric:0.5")),
}


def _window_columns_agree(base, steps, pins, shuffles):
    """Drive one renormaliser with windows ``range(lo, i)`` and one with the
    same sets as frozensets, in lockstep: at each target the columns must be
    equal bit for bit and the cleared sources and denominators equal.  A
    target whose ``pins`` flag is false fails after ``column`` and is asked
    again, as a refused request is; ``shuffles`` orders each ``pin``.
    Returns the degenerate rows warned about, which both sides must share."""
    ranges, masks = IncrementalRenormalizer(WINDOW_BASES[base]()), IncrementalRenormalizer(
        WINDOW_BASES[base]()
    )
    lo, warned = 1, []
    flags = iter(pins)
    for i, step in enumerate(steps, start=2):
        lo = min(i, lo + step)  # nondecreasing, so the windows are monotone
        while True:
            col_r, cleared_r = ranges.column(i, range(lo, i))
            col_m, cleared_m = masks.column(i, frozenset(range(lo, i)))
            assert np.array_equal(col_r, col_m), i
            assert cleared_r == cleared_m, i
            if next(flags, True):
                break
        order = list(cleared_r.items())
        shuffles.shuffle(order)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranges.pin(dict(order))
            masks.pin(dict(reversed(order)))
        warned += [str(w.message) for w in caught if w.category is DegenerateRenormalization]
    assert ranges.degenerate_rows == masks.degenerate_rows
    assert np.array_equal(ranges._den, masks._den, equal_nan=True)
    return ranges.degenerate_rows, warned


@given(
    base=st.sampled_from(sorted(WINDOW_BASES)),
    steps=st.lists(st.sampled_from([0, 0, 1, 1, 2]), min_size=1, max_size=60),
    pins=st.lists(st.booleans(), max_size=80),
    shuffles=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_window_column_equals_the_mask_form(base, steps, pins, shuffles):
    _window_columns_agree(base, steps, pins, shuffles)


def test_window_column_equals_the_mask_form_on_a_degenerate_row():
    """Source 1 stays blocked through target 44, so at 45, its first clear
    target, geometric:0.5 leaves it the tail 0.5**43 <= MASS_TOL."""
    rows, warned = _window_columns_agree(
        "geometric:0.5", [0] * 43 + [1] * 10, [True, False] * 30, random.Random(4)
    )
    assert 1 in rows
    assert len(warned) == 2 * len(rows)  # once per side and row


def test_custom_table_round_trip(tmp_path):
    table = CustomTable({(1, 2): 0.5, (1, 3): 0.25, (2, 3): 1.0})
    path = tmp_path / "w.table"
    table.dump(path)
    loaded = CustomTable.load(path)
    assert loaded.weight(1, 2) == 0.5
    assert loaded.weight(1, 3) == 0.25
    assert loaded.weight(2, 5) == 0.0


def test_custom_table_rejects_overweight_row():
    with pytest.raises(Exception):
        CustomTable({(1, 2): 0.8, (1, 3): 0.4})


@pytest.mark.parametrize("w", [float("nan"), float("inf"), -0.1])
def test_custom_table_refuses_a_weight_that_is_not_finite_and_nonnegative(w):
    """A NaN weight would pass the row-mass check and make every later
    level NaN."""
    with pytest.raises(InvalidSpec, match="invalid table entry"):
        CustomTable({(1, 2): w})


@pytest.mark.parametrize("line", ["1 2", "1 2 0.5 7", "1 x 0.5", "1 2 half"])
def test_custom_table_load_names_the_line_it_cannot_read(tmp_path, line):
    """A wrong field count or a non-numeric field is an ``InvalidSpec``
    naming the file and the line."""
    path = tmp_path / "w.table"
    path.write_text(f"{CustomTable.HEADER}\n1 3 0.25\n\n{line}\n")
    where = re.escape(f"{path}:4: not 'j i weight'")
    with pytest.raises(InvalidSpec, match=f"^{where}"):
        CustomTable.load(path)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_custom_table_tail_mass_keeps_the_bits_of_a_full_scan(seed):
    """A source's tail sum adds its entries in the table's order, as a scan
    over every entry does; weights of unequal magnitude, entered in shuffled
    order, make another order show in the last bits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    pairs = [(j, i) for j in range(1, n) for i in range(j + 1, n + 1) if rng.uniform() < 0.7]
    order = rng.permutation(len(pairs))
    entries = {pairs[k]: float(rng.uniform() * 10.0 ** -rng.uniform(0, 8)) / n for k in order}
    table = CustomTable(entries)
    for j in range(n + 2):
        for m in range(n + 2):
            scan = sum(w for (jj, i), w in entries.items() if jj == j and i > m)
            assert float(table.tail_mass(j, m)).hex() == float(scan).hex()


def _drawn_lags(seed, n, top):
    """Monotone contiguous lags L_{i+1} <= L_i + 1, drawn up to ``top``."""
    rng = np.random.default_rng(seed)
    lags = [0]
    for _ in range(n - 1):
        lags.append(int(min(rng.integers(0, top + 1), lags[-1] + 1)))
    return lags


N_RENORM = 122
RENORM_LAGS = {
    "worked": [0, 1, 1, 2, 0],
    "b1": [0] * N_RENORM,
    "b20": [(i - 1) % 20 for i in range(1, N_RENORM + 1)],
    "b40": [(i - 1) % 40 for i in range(1, N_RENORM + 1)],
    "e60": [min(60, i - 1) for i in range(1, N_RENORM + 1)],
    "drawn60": _drawn_lags(3, N_RENORM, 60),
}


RENORM_CASES = [
    (g, name) for g in ("basel", "logq", "power:1.6", "geometric:0.97") for name in RENORM_LAGS
] + [("geometric:0.6", "e60"), ("geometric:0.6", "b40")]


def test_renormalized_helper_matches_rule():
    """The runners' static table ``weights.renorm_table`` against the online
    renormaliser the engines drive: equal bit for bit, with exact zeros on
    blocked pairs and on degenerate rows (geometric:0.6 at e60 blocks all
    but 0.6^60 of each row; at b40 the tails fall to 0.6^39, steep but live)."""
    for gamma, name in RENORM_CASES:
        spec = GammaSpec.parse(gamma)
        lags = RENORM_LAGS[name]
        n = len(lags)
        structure = _lag_structure(lags)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRenormalization)
            inc, want = _online(spec, structure, n)
        got = renorm_table(spec, np.array(lags), n)[1:, 1:]
        assert np.array_equal(got, want), f"{gamma} {name}"
        blocked = np.zeros((n, n), dtype=bool)
        for i in range(1, n + 1):
            for j in structure.conflict_sets[i - 1]:
                blocked[j - 1, i - 1] = True
        assert np.all(got[blocked] == 0.0)
        degenerate = sorted(inc.degenerate_rows)
        assert np.all(got[np.array(degenerate, dtype=int) - 1] == 0.0)
        if (gamma, name) == ("geometric:0.6", "e60"):
            # rows past n - 61 first clear beyond the horizon
            assert degenerate == list(range(1, n - 60)) and not np.any(got)
        else:
            assert not degenerate and np.count_nonzero(got) > n


# ---------------------------------------------------------------------------
# closure kernel


def test_closure_level_refuses_a_window_edge_moving_back():
    """Monotone conflict sets keep the window edge c non-decreasing; a c
    below the previous level's is refused before any state changes."""
    gam = BASEL.values(5)
    windows = ((1, 1), (2, 1), (3, 2), (4, 3), (5, 3))
    kernels = Closure(0.2), Closure(0.2)
    for closure in kernels:
        for i, c in windows[:-1]:
            closure.level(i, c, gam[i - 1], gam[: i - 1][::-1])
            closure.absorb(i, 1.0, 0.0, float(i % 2))
    with pytest.raises(NonMonotoneConflicts) as err:
        kernels[0].level(5, 2, gam[4], gam[:4][::-1])
    assert err.value.triple == (2, 4, 5)
    ats = [k.level(5, 3, gam[4], gam[:4][::-1]) for k in kernels]
    assert np.array_equal(ats[0], ats[1])


def test_closure_grown_on_demand_matches_one_sized_up_front():
    """Growing the block keeps the index-major rows and the trial-major mass:
    at T > 1 a kernel grown from capacity 2 gives the levels and counters of
    one sized for the whole stream.  Closed spending keeps the two prefix
    sums, closed graph at, R, up and the mass, each in one block."""
    rng = np.random.default_rng(4)
    trials, n = 7, 150
    gam = BASEL.values(2 * n + 2)
    s, c, r = ((rng.random((n, trials)) < q).astype(float) for q in (0.8, 0.2, 0.3))
    runs = []
    for capacity in (2, n):
        graph = Closure(0.2, trials=trials, capacity=capacity)
        spending = ClosureCounter(trials=trials, capacity=capacity)
        assert spending.state.shape == (2, capacity + 1, trials)
        assert graph.state.shape == (4, capacity + 1, trials)
        out = []
        for i in range(1, n + 1):
            lag = min(i - 1, 5)
            out.append(graph.level(i, i - lag, gam[i - 1], gam[: i - 1][::-1]))
            out.append(spending.counter(i, lag))
            for closure in (graph, spending):
                closure.absorb(i, s[i - 1], c[i - 1], r[i - 1])
        runs.append(np.array(out))
    assert np.array_equal(runs[0], runs[1])


# ---------------------------------------------------------------------------
# the joint tail's saturated prefix


def test_ndtr_saturation_threshold_and_node_order_are_pinned():
    """``JointTail`` sets ``cond`` to 1.0 on the nodes whose argument is at
    least ``NDTR_ONE`` and slices them off as a prefix; that is exact only
    while ``ndtr`` is 1.0 from ``NDTR_ONE`` up and the nodes ascend."""
    assert ndtr(NDTR_ONE) == 1.0
    assert ndtr(np.nextafter(NDTR_ONE, -np.inf)) < 1.0
    assert np.all(ndtr(np.linspace(NDTR_ONE, 40.0, 2_000_001)) == 1.0)
    assert ndtr(np.inf) == 1.0
    counts = {corr_nodes(rho) for rho in (0.0, 0.99, 0.995, 0.999, 0.9998)}
    assert counts == {CORR_QUAD_NODES * 2**k for k in range(4)}
    assert max(counts) == CORR_MAX_NODES
    for k in (64, *sorted(counts)):
        assert np.all(np.diff(gauss_legendre(k)[0]) > 0.0)


# ---------------------------------------------------------------------------
# the joint tail's levels-only path


@given(
    trials=st.integers(1, 6),
    b=st.integers(1, 8),
    rho=st.floats(0.05, 0.95),
    kind=st.sampled_from(["mixed", "all-candidates", "no-candidates"]),
    shared=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(trials=1, b=5, rho=0.5, kind="mixed", shared=False, seed=1)
@example(trials=1, b=5, rho=0.5, kind="all-candidates", shared=False, seed=1)
@example(trials=1, b=5, rho=0.5, kind="no-candidates", shared=False, seed=1)
@settings(max_examples=60, deadline=None)
def test_joint_tail_levels_only_keeps_every_non_candidate_bit(trials, b, rho, kind, shared, seed):
    """``candidates=False`` gives the default's alpha^c on the
    non-candidates, bit for bit, and NaN on the candidates, also when one
    kernel runs both ways in turn over its reused buffers."""
    rng = np.random.default_rng(seed)
    if shared:  # equal levels across trials: the one-row-per-critical-value gather
        levels = np.repeat(rng.uniform(1e-4, 0.3, size=(1, b)), trials, axis=0)
    else:
        levels = rng.uniform(1e-4, 0.3, size=(trials, b))
    keep = {
        "mixed": rng.uniform(size=(trials, b)) > 0.16,
        "all-candidates": np.zeros((trials, b), dtype=bool),
        "no-candidates": np.ones((trials, b), dtype=bool),
    }[kind]
    tail = JointTail(rho, trials, nodes=64)
    first = tail.batch(levels, keep, candidates=False)
    full = tail.batch(levels, keep)
    again = tail.batch(levels, keep, candidates=False)
    assert np.array_equal(full, JointTail(rho, trials, nodes=64).batch(levels, keep))
    for part in (first, again):
        assert np.array_equal(part[keep], full[keep])
        assert np.isnan(part[~keep]).all()


def test_levels_only_joint_tail_evaluates_fewer_ndtr_elements(monkeypatch):
    """Without candidates both paths evaluate the same rows; with uniform
    p-values (C = 1 where p <= lambda) the levels-only path skips the
    candidates' rows and evaluates strictly fewer ``ndtr`` elements."""
    evaluated = []

    def counting(x, out=None):
        evaluated.append(x.size)
        return ndtr(x, out=out)

    monkeypatch.setattr(weights, "ndtr", counting)
    rng = np.random.default_rng(5)
    levels = rng.uniform(1e-3, 0.1, size=(200, 10))

    def count(keep, candidates):
        evaluated.clear()
        JointTail(0.5, 200).batch(levels, keep, candidates)
        return sum(evaluated)

    none = np.ones(levels.shape, dtype=bool)
    assert count(none, True) == count(none, False) > 0
    uniform = rng.uniform(size=levels.shape) > 0.16
    assert count(uniform, False) < count(uniform, True)
