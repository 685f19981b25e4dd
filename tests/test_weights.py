import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from addisgraph.core import ConflictStructure
from addisgraph.engines import make_engine
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
    return ConflictStructure.from_lags(lags)


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
    structure = ConflictStructure([frozenset(), frozenset({1}), frozenset({1})])
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


@pytest.mark.parametrize("entries", [{(0, 2): 0.5}, {(-3, 1): 0.2}, {(1, 2): 0.5, (0, 2): 0.5}])
def test_custom_table_refuses_a_source_below_one(entries):
    """No engine reads a row below source 1, so its weight would go nowhere."""
    with pytest.raises(InvalidSpec, match="invalid table entry"):
        CustomTable(entries)


@pytest.mark.parametrize("line", ["1 2", "1 2 0.5 7", "1 x 0.5", "1 2 half"])
def test_custom_table_load_names_the_line_it_cannot_read(tmp_path, line):
    """A wrong field count or a non-numeric field is an ``InvalidSpec``
    naming the file and the line."""
    path = tmp_path / "w.table"
    path.write_text(f"{CustomTable.HEADER}\n1 3 0.25\n\n{line}\n")
    where = re.escape(f"{path}:4: not 'j i weight'")
    with pytest.raises(InvalidSpec, match=f"^{where}"):
        CustomTable.load(path)


def test_custom_table_load_reads_comments_as_every_input_file_does(tmp_path):
    """A comment may follow an entry, as in grid and study files."""
    path = tmp_path / "w.table"
    path.write_text(f"{CustomTable.HEADER}\n1 2 0.5  # note\n  # aside\n\n1 3 0.25#\n")
    assert CustomTable.load(path).entries == {(1, 2): 0.5, (1, 3): 0.25}


@pytest.mark.parametrize(
    "text, got",
    [("", ""), ("1 2 0.5\n", "1 2 0.5"), ("# weight-table v2\n", "# weight-table v2"),
     (f"\n{CustomTable.HEADER}\n", "")],
)
def test_custom_table_load_names_line_1_for_a_wrong_header(tmp_path, text, got):
    path = tmp_path / "w.table"
    path.write_text(text)
    where = re.escape(f"{path}:1: expected the header {CustomTable.HEADER!r}, got {got!r}")
    with pytest.raises(InvalidSpec, match=f"^{where}$"):
        CustomTable.load(path)


@given(weights=st.lists(st.floats(0.0, 0.25, exclude_min=True), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_custom_table_dump_and_load_round_trip_exactly(tmp_path_factory, weights):
    """Entries come back with every bit, in the table's order of sources and
    targets, whatever order they were entered in."""
    entries = {(1 + k % 3, 5 + k): w for k, w in enumerate(weights)}
    path = tmp_path_factory.mktemp("table") / "w.table"
    CustomTable(dict(reversed(entries.items()))).dump(path)
    assert list(CustomTable.load(path).entries.items()) == sorted(entries.items())


def test_custom_table_load_refuses_a_repeated_entry(tmp_path):
    """A second line for one (j, i) is refused with its line, not resolved
    by the last value."""
    path = tmp_path / "w.table"
    path.write_text(f"{CustomTable.HEADER}\n1 2 0.9\n1 3 0.05\n1 2 0.1\n")
    with pytest.raises(InvalidSpec, match=f"^{re.escape(f'{path}:4: duplicate entry (1, 2)')}$"):
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
            closure.absorb(i, 1.0, float(i % 2), float(i % 2))
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
                closure.absorb(i, s[i - 1], np.maximum(r[i - 1], c[i - 1]), r[i - 1])
        runs.append(np.array(out))
    assert np.array_equal(runs[0], runs[1])


# ---------------------------------------------------------------------------
# one trajectory without a trial axis


@st.composite
def _kernel_streams(draw):
    """A stream of n targets: monotone window edges c_i, per index one
    S/C/R/U draw for each of three trials, and for some targets a first
    window edge in c_i .. i that is refused before the level that stands."""
    n = draw(st.integers(1, 80))
    edges, c = [], 1
    for i in range(1, n + 1):
        c = draw(st.integers(max(c, i - 12), i))
        edges.append(c)
    flags = st.lists(st.sampled_from([0.0, 1.0]), min_size=3, max_size=3)
    scru = draw(st.lists(st.tuples(flags, flags, flags, flags), min_size=n, max_size=n))
    refused = [
        draw(st.one_of(st.none(), st.integers(edges[i - 1], i))) for i in range(1, n + 1)
    ]
    return edges, np.array(scru).transpose(1, 0, 2), refused


def _drive(kernels, edges, scru, refused, trials):
    """Drive each kernel through the stream: ``HeldMass`` in the engine's
    order (hold what the window edge has passed, then level), the closed
    kernels level or count, then absorb, each with the first ``trials``
    trials' entries, or trial 0's without a trial axis (``trials=None``),
    and max(R, C) as their callers take it: a runner's ``np.maximum``, an
    engine's builtin ``max``.  Returns each kernel's results in call order."""
    held, closure, counter = kernels
    s, c, r, u = (x[:, 0] if trials is None else x[:, :trials] for x in scru)
    gam = BASEL.values(len(edges))
    out = {"held": [], "closure": [], "counter": []}
    for i, edge in enumerate(edges, start=1):
        for m in range(held.final + 1, edge):
            held.hold(m, edges[m - 1], u[m - 1])
        out["held"].append(held.level(i, edge))
        col = gam[: i - 1][::-1].copy()  # contiguous, as an engine's column is
        if refused[i - 1] is not None:
            out["closure"].append(closure.level(i, refused[i - 1], gam[i - 1], col))
        out["closure"].append(closure.level(i, edge, gam[i - 1], col))
        out["counter"].append(counter.counter(i, i - edge))
        m = np.maximum(r[i - 1], c[i - 1]) if trials else max(r[i - 1], c[i - 1])
        for kernel in (closure, counter):
            kernel.absorb(i, s[i - 1], m, r[i - 1])
    return out


def _state(kernels, n, row):
    """What each kernel holds for targets 1 .. n, of trial ``row`` (None for
    a kernel without a trial axis), as lists."""
    held, closure, counter = kernels
    at = () if row is None else (row,)
    return {
        "held": [a[(*at, slice(n))].tolist() for a in (*held.state, held.off)]
        + [held.t[at].item()],
        "closure": [a[(slice(n), *at)].tolist() for a in closure.state[:3]]
        + [closure.mass[(*at, slice(n))].tolist()],
        "counter": [a[(slice(n + 1), *at)].tolist() for a in counter.state],
    }


def _gemv_order_stream():
    """A stream on which row 0 of the three-trial ``Closure`` sums its
    16th level in another order: C_1 = 1 in trial 0, all else 0."""
    scru = np.zeros((4, 16, 3))
    scru[1, 0, 0] = 1.0
    return [1] * 13 + [2, 3, 4], scru, [None] * 16


@settings(max_examples=60, deadline=None)
@given(stream=_kernel_streams(), capacities=st.tuples(*[st.sampled_from([2, 64])] * 2))
@example(stream=_gemv_order_stream(), capacities=(2, 2))
def test_a_kernel_without_a_trial_axis_follows_row_0_of_one_and_of_three(stream, capacities):
    """``HeldMass``, ``Closure`` and ``ClosureCounter`` with ``trials=None``
    give, at every call, the levels and counters of row 0 of a kernel fed
    the same trajectory there, and hold the same at, z, gamma_{t_m},
    offsets, counter t, R, up, mass and prefix sums, grown from capacity 2
    or not: bit for bit beside one trial, the shape a live engine had, and
    beside three trials, whose rows 1 and 2 carry other trajectories.  The
    one exception is ``Closure`` at three trials: BLAS may sum row 0 of a
    (3, k) @ (k,) product in another order than a (1, k) @ (k,) product,
    so its levels, and the mass they feed, agree there to 1e-12, the
    engine-vs-runner bound."""
    edges, scru, refused = stream
    runs = {}
    for trials, capacity in ((None, capacities[0]), (1, capacities[1]), (3, capacities[1])):
        kernels = (
            HeldMass(BASEL, 0.2, trials=trials, capacity=capacity),
            Closure(0.2, trials=trials, capacity=capacity),
            ClosureCounter(trials=trials, capacity=capacity),
        )
        calls = _drive(kernels, edges, scru, refused, trials)
        runs[trials] = calls, _state(kernels, len(edges), None if trials is None else 0)
    calls, state = runs.pop(None)
    assert all(np.ndim(x) == 0 for xs in calls.values() for x in xs)
    for trials, (rows, row_state) in runs.items():
        for name, lone in calls.items():
            got = [x[0] for x in rows[name]]
            if trials == 3 and name == "closure":
                np.testing.assert_allclose(got, lone, rtol=1e-12, atol=0)
                for a, b in zip(row_state[name], state[name]):
                    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
            else:
                assert got == lone and row_state[name] == state[name], (trials, name)


class _FloatCounter(ClosureCounter):
    """``ClosureCounter`` in its float formulation: float prefix sums, the
    max(R, C) taken inside ``absorb`` and the counter cast to int64 at the end."""

    def _reserve(self, n):
        old = self.state.shape[1]
        if n < old:
            return
        state = np.zeros((2, max(n + 1, 2 * old), *self.shape))
        state[:, :old] = self.state
        self.state = state
        self.sum_r, self.sum_smax = state

    def absorb(self, j, s, c, r):
        self._reserve(j)
        self.sum_r[j] = self.sum_r[j - 1] + r
        self.sum_smax[j] = self.sum_smax[j - 1] + s - np.maximum(r, c)
        self.final = j

    def counter(self, i, lag):
        r, k = self.sum_r, i - lag - 1
        return (1 + (lag - (r[i - 1] - r[k])) + self.sum_smax[k]).astype(np.int64)


class _MaxInsideClosure(Closure):
    """``Closure`` with the max(R, C) taken inside ``absorb``."""

    def absorb(self, j, s, c, r):
        self._reserve(j)
        self.r[j - 1] = r
        self.up[j - 1] = np.maximum(r, c) - s + 1.0
        self.final = j


@settings(max_examples=40, deadline=None)
@given(stream=_kernel_streams(), trials=st.sampled_from([None, 1, 3]), bools=st.booleans())
def test_closed_kernels_fed_the_callers_max_match_the_float_formulation(stream, trials, bools):
    """``Closure`` and ``ClosureCounter`` fed max(R, C) by their caller (an
    engine's builtin ``max`` without a trial axis, a runner's ``np.maximum``
    with one) give, at every call, the levels and counters of the
    formulation that took ``np.maximum`` inside ``absorb`` and summed the
    counter in floats, and end holding the same rows, bit for bit, at
    ``trials=None``, 1 and 3.  The counter is int64, fed float rows or, as
    the closed-spending runner feeds it, bool rows, and both ``gam[t - 1]``
    and ``GammaSpec.value`` read it as they read the float formulation's."""
    edges, scru, _ = stream
    s, c, r, _ = (x[:, 0] if trials is None else x[:, :trials] for x in scru)
    n = len(edges)
    gam = BASEL.values(2 * n + 2)
    closure, counter = Closure(0.2, trials=trials, capacity=2), ClosureCounter(trials, 2)
    ref_closure, ref_counter = _MaxInsideClosure(0.2, trials=trials, capacity=2), _FloatCounter(
        trials, 2
    )
    cs, cc, cr = (x > 0.0 for x in (s, c, r)) if bools else (s, c, r)
    peak = max if trials is None else np.maximum
    for i, edge in enumerate(edges, start=1):
        col = gam[: i - 1][::-1].copy()
        at = closure.level(i, edge, gam[i - 1], col)
        ref_at = ref_closure.level(i, edge, gam[i - 1], col)
        assert np.asarray(at).tobytes() == np.asarray(ref_at).tobytes()
        t, ref_t = counter.counter(i, i - edge), ref_counter.counter(i, i - edge)
        assert t.dtype == np.int64 and np.array_equal(t, ref_t)
        assert np.array_equal(gam[t - 1], gam[ref_t - 1])
        if trials is None and t >= 1:  # the drawn flags need not make a valid trajectory
            assert BASEL.value(t) == BASEL.value(int(ref_t))
        closure.absorb(i, s[i - 1], peak(r[i - 1], c[i - 1]), r[i - 1])
        ref_closure.absorb(i, s[i - 1], c[i - 1], r[i - 1])
        counter.absorb(i, cs[i - 1], peak(cr[i - 1], cc[i - 1]), cr[i - 1])
        ref_counter.absorb(i, s[i - 1], c[i - 1], r[i - 1])
    assert closure.state.tobytes() == ref_closure.state.tobytes()
    assert counter.state.dtype == np.int64 and np.array_equal(counter.state, ref_counter.state)


def test_live_engines_drive_their_kernels_without_a_trial_axis():
    assert make_engine("graph-conf-u")._held.shape == ()
    for kind in ("closed-spending", "closed-graph"):
        assert make_engine(kind)._closure.shape == ()


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
