import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addisgraph import gammas
from addisgraph.errors import InvalidSpec, NonMonotoneGamma
from addisgraph.engines import GraphConfU
from addisgraph.gammas import GammaSpec


FAMILIES = ["basel", "power:1.6", "logq", "geometric:0.6"]


@pytest.mark.parametrize("name", FAMILIES)
def test_nonincreasing_and_positive(name):
    spec = GammaSpec.parse(name)
    vals = spec.values(500)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 1e-15)
    spec.require_nonincreasing()


@pytest.mark.parametrize("name", FAMILIES)
def test_mass_at_most_one(name):
    spec = GammaSpec.parse(name)
    assert spec.prefix_sum(2000) <= 1.0 + 1e-12


@pytest.mark.parametrize("name", ["basel", "power:1.6", "geometric:0.6"])
def test_mass_converges_to_one(name):
    # these families are exactly normalized; tail_sum(0) carries the rest
    spec = GammaSpec.parse(name)
    assert spec.prefix_sum(200_000) + spec.tail_sum(200_000) == pytest.approx(1.0, abs=1e-9)
    assert spec.tail_sum(0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("m", [0, 1, 7, 100])
def test_tail_sum_consistent_with_values(name, m):
    spec = GammaSpec.parse(name)
    big = 300_000
    direct = float(np.sum(spec.values(big)[m:]))
    assert spec.tail_sum(m) == pytest.approx(direct + spec.tail_sum(big), rel=1e-6)


def test_basel_values():
    spec = GammaSpec.parse("basel")
    # 6/pi^2 * 1/i^2
    assert spec.value(1) == pytest.approx(6 / np.pi**2, abs=1e-12)
    assert spec.value(2) == pytest.approx(6 / np.pi**2 / 4, abs=1e-12)


def test_geometric_tail_is_exact_power():
    spec = GammaSpec(kind="geometric", q=0.6)
    assert spec.tail_sum(12) == pytest.approx(0.6**12, abs=1e-15)
    assert spec.value(3) == pytest.approx(0.6**2 * 0.4, abs=1e-15)


def test_parse_rejects_unknown():
    with pytest.raises(InvalidSpec):
        GammaSpec.parse("nope")
    with pytest.raises(InvalidSpec):
        GammaSpec.parse("power:0.5")  # diverges


@pytest.mark.parametrize(
    "text",
    ["power", "power:abc", "geometric:", "basel:7", "logq:1", "power:1.6:2", "power:nan",
     "power:1", "geometric:nan"],
)
def test_parse_refuses_malformed_specs(text):
    """A missing, non-numeric or extra parameter, or an s that is not > 1."""
    with pytest.raises(InvalidSpec):
        GammaSpec.parse(text)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_custom_spec_refuses_a_value_that_is_not_finite_and_nonnegative(bad):
    with pytest.raises(InvalidSpec, match="finite and nonnegative"):
        GammaSpec(kind="custom", table=(0.5, bad))


def test_custom_table_must_be_nonincreasing_when_required():
    """A rise anywhere on the table's support is refused, past its first
    1000 values too, also by graph-conf-u, whose held-mass weights
    gamma_k - gamma_{k+1} need it."""
    for table in ((0.1, 0.5, 0.2), (1e-4,) * 1000 + (2e-4,) * 1000):
        spec = GammaSpec(kind="custom", table=table)
        with pytest.raises(NonMonotoneGamma):
            spec.require_nonincreasing()
        with pytest.raises(NonMonotoneGamma):
            GraphConfU(gamma=spec)


@given(m=st.integers(min_value=0, max_value=50), q=st.floats(0.2, 0.9))
@settings(max_examples=50, deadline=None)
def test_geometric_tail_identity_property(m, q):
    spec = GammaSpec(kind="geometric", q=q)
    assert spec.tail_sum(m) == pytest.approx(q**m, rel=1e-12)


@given(st.sampled_from(FAMILIES), st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_prefix_plus_tail_constant(name, m):
    spec = GammaSpec.parse(name)
    total = spec.prefix_sum(m) + spec.tail_sum(m)
    assert total == pytest.approx(spec.tail_sum(0), rel=1e-9)


LONG = 10**5
SPARSE = [3001, 4095, 4096, 4097, 9999, 12345, 2**14 + 1, 32767, 50000, 65537, 77777, LONG]


@pytest.mark.parametrize(
    "name", ["basel", "logq", "power:1.6", "power:2.5", "geometric:0.6", "geometric:0.97"]
)
def test_cached_prefix_equals_fresh_evaluation(name):
    """``values(n)`` is a prefix of one long cached array, so numpy must give
    each element the same bits whatever the array's length."""
    spec = GammaSpec.parse(name)
    long = spec.values(LONG)
    assert not long.flags.writeable
    for n in [*range(1, 3001), *SPARSE]:
        assert np.array_equal(spec.values(n), gammas._evaluate(spec, n)), n
    assert [spec.value(i) for i in range(1, LONG + 1)] == long.tolist()


def test_tail_sum_cache_serves_fresh_evaluations():
    """``tail_sum`` is cached per spec instance and m: every call, the one that
    fills an entry and the ones that read it, gives the bits of a fresh
    evaluation, and specs of one kind with other parameters never read each
    other's entries."""
    specs = [
        *(GammaSpec.parse(name) for name in
          ["basel", "logq", "power:1.6", "power:1.7", "geometric:0.5", "geometric:0.6"]),
        GammaSpec(kind="custom", table=(0.3, 0.2, 0.2, 0.1, 0.05)),
    ]
    big = gammas._PARTIAL_SUM_TERMS  # logq switches to its integral tail here
    ms = [*range(2001), big - 1, big, big + 1, 2 * big]
    for spec in specs:
        assert not spec._tails  # a new instance starts empty
        fresh = [gammas._tail_sum(spec, m).hex() for m in ms]
        assert [spec.tail_sum(m).hex() for m in ms] == fresh, spec.name
        assert sorted(spec._tails) == ms  # the first pass filled every entry
        assert [spec.tail_sum(m).hex() for m in ms] == fresh, spec.name
        assert spec.tail_sum(-3) == spec.tail_sum(0)
    for a, b in [("power:1.6", "power:1.7"), ("geometric:0.5", "geometric:0.6")]:
        sa, sb = GammaSpec.parse(a), GammaSpec.parse(b)
        assert all(sa.tail_sum(m) != sb.tail_sum(m) for m in range(1, 501))  # no underflow


SPEC_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda spec: pickle.loads(pickle.dumps(spec)),
}


@pytest.mark.parametrize("how", sorted(SPEC_COPIES))
@pytest.mark.parametrize("name", [*FAMILIES, "custom"])
def test_spec_copies_hash_and_compare_equal(name, how):
    """A copy of a spec that has read values and tails is equal to a fresh
    spec of the same text, hashes alike, finds the fresh spec as a dict key,
    and gives the same bits."""
    fresh = (
        GammaSpec(kind="custom", table=(0.3, 0.2, 0.1)) if name == "custom"
        else GammaSpec.parse(name)
    )
    used = copy.copy(fresh)
    used.values(300)
    used.tail_sum(7)
    assert b"_tails" not in pickle.dumps(used)  # the caches stay behind
    dup = SPEC_COPIES[how](used)
    assert dup == fresh and hash(dup) == hash(fresh)
    assert {fresh: 1}[dup] == 1
    assert np.array_equal(dup.values(300), fresh.values(300))
    assert dup.tail_sum(7) == fresh.tail_sum(7)


def test_pickled_spec_loads_in_a_process_with_another_hash_seed(tmp_path):
    """A spec pickled where str hashes take one seed is, loaded where they
    take another, equal to and hashed like the specs built there."""
    src = str(Path(gammas.__file__).resolve().parents[1])
    path = tmp_path / "spec.pickle"
    head = (
        f"import pickle, sys; sys.path.insert(0, {src!r}); "
        "from addisgraph.gammas import GammaSpec; "
    )
    dump = (
        "s = GammaSpec.parse('power:1.6'); s.values(100); s.tail_sum(3); "
        "pickle.dump(s, open(sys.argv[1], 'wb'))"
    )
    load = (
        "s = pickle.load(open(sys.argv[1], 'rb')); f = GammaSpec.parse('power:1.6'); "
        "assert s == f and hash(s) == hash(f) and {f: 1}[s] == 1; "
        "assert s.values(100).tolist() == f.values(100).tolist(); "
        "assert s.tail_sum(3) == f.tail_sum(3); print(hash(f))"
    )

    def run(code, seed):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        return subprocess.run(
            [sys.executable, "-c", head + code, str(path)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()

    hashes = set()
    for dump_seed, load_seed in (("1", "2"), ("2", "1")):
        run(dump, dump_seed)
        hashes.add(run(load, load_seed))
    assert len(hashes) == 2  # the two seeds do hash the kind string apart
