import contextlib
import itertools
import json
import logging
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference
import record_library_golden

from nullgrid import oracle
from nullgrid.errors import GridTooLargeError, HypothesisViolationError
from nullgrid.oracle import (
    _reference_values,
    count_nonzeros,
    min_nonzero_search,
    random_polynomial,
    tightness_family,
    verify_bounds,
)
from nullgrid.parser import parse_poly
from nullgrid.poly import GridSpec, Polynomial
from nullgrid.ring import RingSpec
from nullgrid.transform import grid_values

Z = RingSpec.integers()
F5 = RingSpec.prime_field(5)


def _naive_count(f, grid):
    nz = 0
    zeros = []
    for pt in grid.points():
        if f.eval_raw(pt) != 0:
            nz += 1
        else:
            zeros.append(pt)
    return nz, zeros


def test_count_ellipse_frozen():
    f = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z)
    grid = GridSpec(Z, [range(5), range(5)])
    count = count_nonzeros(f, grid)
    assert count.nonzeros == 24
    assert count.zeros == 1
    assert count.zero_set == ((0, 0),)
    assert count.grid_size == 25


def test_count_matches_naive_random():
    rng = random.Random(8)
    for ring in (Z, F5, RingSpec.integers_mod(9)):
        for _ in range(25):
            f = random_polynomial(2, (3, 3), 0.5, ring, seed=rng.randrange(10**9))
            sets = [tuple(rng.sample(range(0, 9, 2), 3)) for _ in range(2)] \
                if ring.modulus == 9 else [tuple(rng.sample(range(7), 3)) for _ in range(2)]
            try:
                grid = GridSpec(ring, sets)
            except ValueError:
                continue
            try:
                count = count_nonzeros(f, grid)
            except HypothesisViolationError:
                # zero-divisor differences over Z_9 are possible; skip
                assert ring.modulus == 9
                continue
            nz, zeros = _naive_count(f, grid)
            assert count.nonzeros == nz
            assert count.zero_set == tuple(zeros)


@pytest.mark.usefixtures("numpy_counted_as_loaded")
def test_count_kernel_agrees_with_reference(caplog):
    f = parse_poly("x^3*y - 2*x*z + y^2*z^2 - 7", ["x", "y", "z"], Z)
    grid = GridSpec(Z, [range(6), range(5), range(4)])
    with caplog.at_level(logging.DEBUG, logger="nullgrid"):
        count = count_nonzeros(f, grid)
    assert "path=kernel" in caplog.records[-1].getMessage()
    values = list(_reference_values(f.terms, grid.sets, None))
    nonzeros, zeros = sum(map(bool, values)), [pt for pt, v in zip(grid.points(), values) if not v]
    assert (count.nonzeros, count.zero_set) == (nonzeros, tuple(zeros))


@pytest.mark.usefixtures("numpy_counted_as_loaded")
@pytest.mark.parametrize("ring", [Z, RingSpec.prime_field(101), RingSpec.integers_mod(1009 * 1013)])
def test_every_grid_goes_to_the_kernel_once_numpy_is_loaded(caplog, ring):
    # one term, so points x terms is the point count, from one point up;
    # x^2 y vanishes on the grid lines x = 0 and y = 0
    f = Polynomial.monomial(2, ring, (2, 1), 3)
    for sets, size in ((([0], [0]), 1), ((range(-16, 16), range(-16, 16)), 1024),
                       ((range(-12, 13), range(-20, 21)), 1025)):
        grid = GridSpec(ring, sets)
        assert grid.size() == size
        values = list(_reference_values(f.terms, grid.sets, ring.modulus))
        nonzeros, zeros = sum(map(bool, values)), [pt for pt, v in zip(grid.points(), values) if not v]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="nullgrid"):
            count = count_nonzeros(f, grid)
            kernel_values = grid_values(f, grid)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2 and all("path=kernel reason=none" in m for m in messages)
        assert (count.nonzeros, count.zero_set) == (nonzeros, tuple(zeros))
        assert kernel_values == dict(zip(grid.points(), values))


# Z_m with its smallest prime factor: up to that many multiples of a unit,
# shifted by any element, have pairwise unit differences
_ZMODS = ((12, 2), (35, 5), (64, 2), (9, 3), (77, 7))


@st.composite
def _reference_cases(draw):
    """A polynomial over F_p, a Z_m whose grid passes the condition, or Z
    with negative elements, in 1-4 variables on at most 256 points: the
    zero polynomial, {0} sets and terms that all carry a variable whose
    set holds 0 (identically zero on that slice) come up often."""
    kind = draw(st.sampled_from(["fp", "zmod", "int"]))
    arity = draw(st.integers(1, 4))
    side = st.integers(1, {1: 12, 2: 8, 3: 5, 4: 4}[arity])
    sets = []
    if kind == "fp":
        ring = RingSpec.prime_field(draw(st.sampled_from([2, 3, 5, 7, 101])))
        elements = st.integers(0, ring.modulus - 1)
    elif kind == "zmod":
        m, least = draw(st.sampled_from(_ZMODS))
        ring = RingSpec.integers_mod(m)
    else:
        ring = Z
        elements = st.integers(-20, 20)
    for _ in range(arity):
        if draw(st.integers(0, 5)) == 0:
            sets.append((0,))
        elif kind == "zmod":
            unit = draw(st.sampled_from([u for u in range(1, m) if math.gcd(u, m) == 1]))
            shift = draw(st.integers(0, m - 1))
            steps = draw(st.lists(st.integers(0, least - 1), min_size=1, max_size=least, unique=True))
            sets.append(tuple((shift + unit * t) % m for t in steps))
        else:
            sets.append(tuple(draw(st.lists(elements, min_size=1, max_size=draw(side), unique=True))))
    big = 2**70 if ring.modulus is None else ring.modulus
    coefficient = st.one_of(st.integers(-9, 9), st.integers(-big, big))
    exponents = st.tuples(*[st.integers(0, 5)] * arity)
    terms = draw(st.dictionaries(exponents, coefficient, max_size=8))
    if terms and draw(st.booleans()):
        # every term carries x_1: zero on the slice x_1 = 0 when 0 is in S_1
        terms = {(e[0] or 1,) + e[1:]: c for e, c in terms.items()}
    return Polynomial(arity, ring, terms), GridSpec(ring, sets)


@settings(max_examples=300, deadline=None)
@given(case=_reference_cases())
@example(case=(Polynomial.zero(2, Z), GridSpec(Z, [(0, -3), (5,)])))
@example(case=(Polynomial(3, F5, {(1, 2, 0): 3, (2, 0, 1): 1}), GridSpec(F5, [(0, 4), (0,), (1, 2)])))
def test_the_reference_gives_the_frozen_counts_zero_sets_and_values(case):
    # the package's reference evaluation, forced, against the recursion as
    # it was when one function returned the count and appended zeros and values
    f, grid = case
    zeros, values = [], []
    nonzeros = oracle_reference.count_rec(f.terms, grid.sets, f.ring.modulus, (), zeros, values)
    with mock.patch.object(oracle, "_plan", return_value=None):
        collected = count_nonzeros(f, grid)
        bare = count_nonzeros(f, grid, collect_zeros=False)
        grid_list = oracle._grid_values(f, grid)
    assert collected == (nonzeros, grid.size() - nonzeros, tuple(zeros))
    assert bare == (nonzeros, grid.size() - nonzeros, None)
    assert grid_list == values
    assert repr(collected.zero_set) == repr(tuple(zeros)) and repr(grid_list) == repr(values)


@pytest.mark.usefixtures("numpy_counted_as_loaded")
def test_library_results_are_byte_identical():
    # repr of each benchmark case's result as recorded; tiny cases also on
    # the reference, which must give the kernel's bytes
    for row in json.loads(record_library_golden.DIGESTS.read_text()):
        paths = [contextlib.nullcontext()]
        if row["size"] == "tiny":
            paths.append(mock.patch.object(oracle, "_plan", return_value=None))
        for path in paths:
            with path:
                result = record_library_golden.execute(row["workload"], row["spec"])
            assert record_library_golden.digest(result) == row["sha256"], (row, path)


def test_count_zero_polynomial():
    grid = GridSpec(Z, [range(3), range(3)])
    count = count_nonzeros(Polynomial.zero(2, Z), grid)
    assert count.nonzeros == 0 and count.zeros == 9


def test_point_limit():
    f = parse_poly("x*y", ["x", "y"], Z)
    grid = GridSpec(Z, [range(100), range(100)])
    with pytest.raises(GridTooLargeError):
        count_nonzeros(f, grid, point_limit=9999)


def test_zero_set_cap_suppresses_collection(monkeypatch):
    f = parse_poly("x*y", ["x", "y"], Z)
    grid = GridSpec(Z, [range(4), range(4)])
    monkeypatch.setattr(oracle, "DEFAULT_ZERO_SET_CAP", 10)
    count = count_nonzeros(f, grid)
    assert count.zero_set is None
    assert count.nonzeros == 9


def test_count_rejects_zero_divisor_grid():
    zm = RingSpec.integers_mod(6)
    f = Polynomial.variable(1, zm, 0)
    grid = GridSpec(zm, [(0, 2)])
    with pytest.raises(HypothesisViolationError):
        count_nonzeros(f, grid)


def test_verify_bounds_ellipse():
    f = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z)
    grid = GridSpec(Z, [range(5), range(5)])
    report = verify_bounds(f, grid)
    assert report.nonzero_count == 24
    assert report.all_guaranteed_sound
    assert all(c.sound for c in report.checks)
    names = {c.report.name for c in report.checks}
    assert "erdos-density" not in names and "kst-exponent" not in names


def test_verify_bounds_diagnostic_counterexample():
    # product of four lines through the origin over F5; (2,2) is maximal
    # in the support but the grid only carries 8 nonzeros, one short of
    # the 3*3 product claim
    f = parse_poly("x*y^3 + x^2*y^2 + 3*x^3*y", ["x", "y"], F5)
    grid = GridSpec(F5, [range(5), range(5)])
    report = verify_bounds(f, grid)
    assert report.nonzero_count == 8
    assert report.all_guaranteed_sound
    bad = [c for c in report.checks if not c.sound]
    assert bad
    for c in bad:
        assert c.report.name == "product-if-maximal"
        assert not c.report.guaranteed
    assert any(c.report.witness_d == (2, 2) and c.slack == -1 for c in bad)
    # the capped product route is tight on the same instance
    gaf = [c for c in report.checks if c.report.name == "gen-alon-furedi"]
    assert gaf and gaf[0].report.value == 8 and gaf[0].slack == 0


def test_verify_bounds_probability_slack():
    f = parse_poly("x*y", ["x", "y"], F5)
    grid = GridSpec(F5, [range(5), range(5)])
    report = verify_bounds(f, grid)
    prob = [c for c in report.checks if c.report.kind == "zero-probability"]
    assert prob
    # degree 2 over size 5: allowed zeros 10, actual 9
    assert prob[0].slack == 1 and prob[0].sound


def test_tightness_family_exact():
    grid = GridSpec(Z, [(0, 1, 2, 3), (0, 1, 2)])
    f = tightness_family(grid, (2, 1))
    count = count_nonzeros(f, grid)
    assert count.nonzeros == (4 - 2) * (3 - 1)
    # zero exactly on the removed slices
    for pt in count.zero_set:
        assert pt[0] in (0, 1) or pt[1] == 0


def test_tightness_family_random_grids():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(1, 4)
        sets = []
        for _ in range(n):
            size = rng.randrange(1, 5)
            sets.append(tuple(rng.sample(range(-10, 11), size)))
        grid = GridSpec(Z, sets)
        d = tuple(rng.randrange(len(s) + 1) for s in sets)
        f = tightness_family(grid, d)
        expected = 1
        for s, di in zip(grid.sizes, d):
            expected *= s - di
        assert count_nonzeros(f, grid, collect_zeros=False).nonzeros == expected


def test_min_nonzero_search_exhaustive_small():
    grid = GridSpec(RingSpec.prime_field(3), [(0, 1), (0, 1)])
    support = ((0, 0), (1, 0), (0, 1), (1, 1))
    result = min_nonzero_search(support, (1, 1), grid)
    assert result.exhaustive
    # x*y alone is nonzero only at (1,1): matches the product bound 1
    assert result.min_count == 1
    assert result.tried == 2 * 3 ** 3


def test_min_nonzero_search_requires_maximal():
    grid = GridSpec(F5, [(0, 1), (0, 1)])
    with pytest.raises(HypothesisViolationError):
        min_nonzero_search(((1, 1), (0, 0)), (0, 0), grid)


def test_min_nonzero_search_sampled():
    grid = GridSpec(RingSpec.prime_field(11), [tuple(range(4)), tuple(range(4))])
    support = tuple(itertools.product(range(3), repeat=2))
    result = min_nonzero_search(support, (2, 2), grid,
                                exhaustive_limit=100, sample_budget=500, seed=3)
    assert not result.exhaustive
    assert result.tried == 500
    # sampling can only overestimate the true minimum (2,2) guarantees 1
    assert result.min_count >= 1
    # the witness is a genuine polynomial attaining the reported count
    assert count_nonzeros(result.witness, grid, collect_zeros=False).nonzeros == result.min_count
    assert result.witness.coefficient((2, 2)).value != 0


def test_min_nonzero_search_deterministic():
    grid = GridSpec(RingSpec.prime_field(7), [tuple(range(3)), tuple(range(3))])
    support = ((2, 2), (1, 0), (0, 1), (0, 0))
    a = min_nonzero_search(support, (2, 2), grid, exhaustive_limit=10, sample_budget=300, seed=9)
    b = min_nonzero_search(support, (2, 2), grid, exhaustive_limit=10, sample_budget=300, seed=9)
    assert a == b


def test_random_polynomial_properties():
    rng = random.Random(1)
    for ring in (Z, F5):
        for _ in range(30):
            caps = (rng.randrange(4), rng.randrange(4))
            f = random_polynomial(2, caps, 0.6, ring, seed=rng.randrange(10**9))
            assert not f.is_zero
            for e, c in f.terms.items():
                assert all(ei <= ci for ei, ci in zip(e, caps))
                assert c != 0
    assert random_polynomial(2, (3, 3), 0.5, Z, seed=4) == random_polynomial(2, (3, 3), 0.5, Z, seed=4)
