import contextlib
import copy
import itertools
import logging
import pickle
import random
import sys
import time
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullgrid import oracle, poly
from nullgrid.analysis import maximal_monomials
from nullgrid.errors import GridTooLargeError, HypothesisViolationError, RingMismatchError, UnsupportedRingError
from nullgrid.oracle import random_polynomial, tightness_family
from nullgrid.parser import parse_poly
from nullgrid.poly import GridSpec, Polynomial, annihilator, vanishing_poly
from nullgrid.ring import RingSpec
from nullgrid.transform import (
    GridValues,
    _reduce_variable,
    coefficient_via_grid,
    grid_values,
    trim,
    vandermonde_multipliers,
)
from test_poly import _assert_built_as_by_the_constructor

Z = RingSpec.integers()
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)


def test_trim_drops_degrees():
    f = parse_poly("x^5 + 2*x^2 + 1", ["x"], F7)
    grid = GridSpec(F7, [(0, 1, 2)])
    g = trim(f, grid)
    assert g == parse_poly("3*x^2 + 1", ["x"], F7)


def test_trim_preserves_grid_values():
    rng = random.Random(14)
    for ring, universe in ((Z, range(9)), (F5, range(5))):
        for _ in range(30):
            f = random_polynomial(3, (6, 6, 6), 0.3, ring, seed=rng.randrange(10**9))
            sets = [tuple(rng.sample(universe, rng.randrange(1, 4))) for _ in range(3)]
            grid = GridSpec(ring, sets)
            g = trim(f, grid)
            partial = g.degrees()[0] if not g.is_zero else (0, 0, 0)
            assert all(p < s for p, s in zip(partial, grid.sizes))
            for pt in grid.points():
                assert f.eval_raw(pt) == g.eval_raw(pt)


def test_trim_zmod_valid_grid():
    zm = RingSpec.integers_mod(6)
    f = parse_poly("x^5 + 2*x^2 + 1", ["x"], zm)
    grid = GridSpec(zm, [(0, 1)])
    g = trim(f, grid)
    assert g == parse_poly("3*x + 1", ["x"], zm)
    for pt in grid.points():
        assert f.eval_raw(pt) == g.eval_raw(pt)


def test_trim_rejects_zero_divisor_grid():
    zm = RingSpec.integers_mod(6)
    f = Polynomial.variable(1, zm, 0)
    with pytest.raises(HypothesisViolationError):
        trim(f, GridSpec(zm, [(0, 3)]))


def test_trim_idempotent_and_linear():
    rng = random.Random(15)
    grid = GridSpec(F5, [(0, 1, 2), (1, 4)])
    for _ in range(20):
        f = random_polynomial(2, (5, 5), 0.4, F5, seed=rng.randrange(10**9))
        g = random_polynomial(2, (5, 5), 0.4, F5, seed=rng.randrange(10**9))
        tf, tg = trim(f, grid), trim(g, grid)
        assert trim(tf, grid) == tf
        assert trim(f + g, grid) == trim(tf + tg, grid)


def test_trim_annihilates_vanishing_poly():
    from nullgrid.poly import vanishing_poly

    grid = GridSpec(Z, [(0, 2, 5), (1, 3)])
    for var in (0, 1):
        assert trim(vanishing_poly(grid, var), grid).is_zero


def test_multipliers_frozen_f5():
    m = vandermonde_multipliers(F5, (0, 1), 1)
    assert m.values == (4, 1)


def test_multipliers_frozen_f7():
    m = vandermonde_multipliers(F7, (1, 2, 3), 2)
    assert m.values == (4, 6, 4)


def test_multipliers_power_sum_identities():
    rng = random.Random(16)
    for p in (5, 11, 13):
        ring = RingSpec.prime_field(p)
        for _ in range(15):
            size = rng.randrange(1, min(p, 6))
            elements = tuple(rng.sample(range(p), size))
            d = rng.randrange(size)
            m = vandermonde_multipliers(ring, elements, d)
            # zero beyond the first d+1 points
            assert all(v == 0 for v in m.values[d + 1:])
            for k in range(d + 1):
                total = sum(g * pow(a, k, p) for a, g in zip(elements, m.values)) % p
                assert total == (1 if k == d else 0)


def test_multipliers_default_degree():
    m = vandermonde_multipliers(F5, (0, 1, 2))
    assert m.degree == 2


def test_multipliers_repeated_element_message_is_short():
    fp = RingSpec.prime_field(10007)
    elements = list(range(2000)) + [10007 + 1500]
    with pytest.raises(ValueError, match="repeats 1500 at positions 1501 and 2001") as err:
        vandermonde_multipliers(fp, elements)
    assert len(str(err.value)) < 200


def test_multipliers_require_field():
    with pytest.raises(UnsupportedRingError):
        vandermonde_multipliers(Z, (0, 1), 1)


def test_grid_values_cover():
    f = parse_poly("x*y + 1", ["x", "y"], F5)
    grid = GridSpec(F5, [(0, 1), (2, 3)])
    vals = grid_values(f, grid)
    assert set(vals) == set(grid.points())
    assert vals[(1, 2)] == 3


def test_coefficient_via_grid_maximal():
    f = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], F7)
    grid = GridSpec(F7, [range(5), range(5)])
    vals = grid_values(f, grid)
    for d, want in (((2, 0), 1), ((1, 1), 3), ((0, 2), 1), ((2, 1), 0)):
        got = coefficient_via_grid(vals, grid, d)
        assert got.value == want


def test_coefficient_via_grid_equals_trim_coefficient():
    # on a grid of sizes d_i + 1 the functional recovers the trimmed
    # coefficient for arbitrary f
    rng = random.Random(23)
    for _ in range(40):
        f = random_polynomial(2, (6, 6), 0.4, F7, seed=rng.randrange(10**9))
        d = (rng.randrange(4), rng.randrange(4))
        sets = [tuple(rng.sample(range(7), di + 1)) for di in d]
        grid = GridSpec(F7, sets)
        got = coefficient_via_grid(grid_values(f, grid), grid, d)
        assert got.value == trim(f, grid).coefficient(d).value


def test_coefficient_via_grid_random_maximal_agreement():
    rng = random.Random(29)
    hits = 0
    for _ in range(60):
        f = random_polynomial(2, (4, 4), 0.35, F7, seed=rng.randrange(10**9))
        grid = GridSpec(F7, [range(6), range(6)])
        vals = grid_values(f, grid)
        for d in maximal_monomials(f):
            if all(s > di for s, di in zip(grid.sizes, d)):
                assert coefficient_via_grid(vals, grid, d).value == f.coefficient(d).value
                hits += 1
    assert hits > 50


def test_coefficient_via_grid_validation():
    f = parse_poly("x*y", ["x", "y"], F5)
    grid = GridSpec(F5, [(0, 1), (0, 1)])
    vals = grid_values(f, grid)
    with pytest.raises(HypothesisViolationError):
        coefficient_via_grid(vals, grid, (2, 0))
    incomplete = dict(vals)
    incomplete.pop((0, 0))
    with pytest.raises(ValueError):
        coefficient_via_grid(incomplete, grid, (1, 1))


def test_coefficient_via_grid_checks_the_ring_of_each_value():
    f = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], F7)
    grid = GridSpec(F7, [range(5), range(5)])
    vals = grid_values(f, grid)
    # plain ints are canonicalized, and elements of the grid's ring unwrapped
    shifted = {pt: v - 7 * (i + 1) for i, (pt, v) in enumerate(vals.items())}
    wrapped = {pt: F7.element(v) for pt, v in vals.items()}
    for values in (shifted, wrapped):
        assert coefficient_via_grid(values, grid, (1, 1)) == F7.element(3)
    F13 = RingSpec.prime_field(13)
    foreign = {pt: F13.element(v + 10) for pt, v in vals.items()}
    with pytest.raises(RingMismatchError, match="value from fp:13 used in fp:7"):
        coefficient_via_grid(foreign, grid, (1, 1))


# -- the grid values view ------------------------------------------------------

@st.composite
def _extraction_cases(draw):
    """A prime field, a grid of up to 3 unsorted sets given partly by
    non-canonical integers, and a polynomial whose partial degrees reach
    up to one past the set sizes."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 10007]))
    arity = draw(st.integers(1, 3))
    sets = [draw(st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=min(p, 5),
                          unique_by=lambda v: v % p)) for _ in range(arity)]
    grid = GridSpec(RingSpec.prime_field(p), sets)
    exps = st.tuples(*[st.integers(0, s) for s in grid.sizes])
    f = Polynomial(arity, grid.ring, draw(st.dictionaries(exps, st.integers(-10**6, 10**6), max_size=8)))
    return grid, f


@pytest.mark.parametrize("path", ["reference", "kernel"])
@settings(max_examples=80, deadline=None)
@given(case=_extraction_cases())
def test_the_view_gives_the_coefficients_a_dict_gives(path, case):
    grid, f = case
    if path == "reference":
        evaluation = mock.patch.object(oracle, "_plan", return_value=None)
        guard = contextlib.nullcontext()
    else:
        import numpy  # noqa: F401  with numpy loaded, even the zero polynomial goes to the kernel

        evaluation = mock.patch.object(oracle, "_cold_work_left", 0)
        guard = mock.patch.object(oracle, "_reference_values", side_effect=AssertionError("the reference ran"))
    with evaluation, guard:
        view = grid_values(f, grid)
    assert isinstance(view, GridValues)
    as_dict = dict(view)
    for d in itertools.product(*map(range, grid.sizes)):
        assert coefficient_via_grid(view, grid, d) == coefficient_via_grid(as_dict, grid, d)
    for d in [] if f.is_zero else maximal_monomials(f):
        if all(di < s for di, s in zip(d, grid.sizes)):
            assert coefficient_via_grid(view, grid, d) == f.coefficient(d)


def _evaluated(f, grid):
    return {pt: f.eval_raw(pt) for pt in grid.points()}


def test_the_view_keeps_the_contract_of_the_dict_it_replaced():
    f = parse_poly("x^2*y + 3*x + 1", ["x", "y"], F7)
    grid = GridSpec(F7, [(5, 0, 3), (6, 1)])
    view = grid_values(f, grid)
    parent = _evaluated(f, grid)
    assert not isinstance(view, dict)
    assert len(view) == 6
    assert list(view) == list(grid.points())
    assert list(view.items()) == list(parent.items())
    # on the grid, off it, non-canonical (-1 and 12 over F_7), wrong
    # length, equal but not int, and not a tuple at all
    keys = [(5, 6), (3, 1), (5, 2), (-1, 6), (12, 6), (5,), (5, 6, 0), (), (5, 6.0), "ab", 5, None]
    for key in keys:
        assert (key in view) == (key in parent)
        assert view.get(key, "absent") == parent.get(key, "absent")
        if key not in parent:
            with pytest.raises(KeyError):
                view[key]
    for unhashable in ([5, 6], ([5], 6)):
        for values in (view, parent):
            with pytest.raises(TypeError):
                unhashable in values
    with pytest.raises(TypeError):
        view[(5, 6)] = 0
    with pytest.raises(TypeError):
        del view[(5, 6)]
    assert view == parent and parent == view
    changed = {**parent, (5, 6): parent[(5, 6)] + 1}
    assert view != changed and changed != view
    for other in (copy.copy(view), copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
        assert type(other) is GridValues and other.grid == grid
        assert other == view and other == parent
    with pytest.raises(ValueError, match="5 values for a grid of 6 points"):
        GridValues(grid, [0] * 5)


def test_the_view_equals_the_evaluated_dict_on_every_path(monkeypatch, caplog):
    Z35 = RingSpec.integers_mod(35)
    cases = [
        (parse_poly("x^3*y - 2*x + 5", ["x", "y"], RingSpec.prime_field(101)),
         GridSpec(RingSpec.prime_field(101), [(7, 0, 100, 3), (2, 1)]), "path=kernel reason=none"),
        (parse_poly("x*y - x + 6", ["x", "y"], Z35), GridSpec(Z35, [(0, 1, 3), (2, 0, 1)]),
         "path=kernel reason=none"),
        (parse_poly("x^5*y - 3*x*y^2 + 7", ["x", "y"], Z), GridSpec(Z, [(-3, 0, 7), (5, -2)]),
         "path=kernel reason=none primes=1"),
        (parse_poly("x^2*y - 4*x", ["x", "y"], Z), GridSpec(Z, [(0,), (-2, 1, 5)]),
         "path=kernel reason=none primes=0"),
    ]
    monkeypatch.setattr(oracle, "_cold_work_left", 0)
    for f, grid, path in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="nullgrid"):
            view = grid_values(f, grid)
        assert path in caplog.records[-1].getMessage()
        assert view == _evaluated(f, grid) and _evaluated(f, grid) == view
    # a process that has not loaded numpy evaluates small grids by the reference
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(oracle, "_cold_work_left", 10**6)
    for f, grid, _ in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="nullgrid"):
            view = grid_values(f, grid)
        assert "path=reference reason=numpy not loaded" in caplog.records[-1].getMessage()
        assert view == _evaluated(f, grid) and _evaluated(f, grid) == view


class _CountingList(list):
    """A list that counts the entries read through indexing and slicing,
    and refuses to be iterated whole."""

    def __init__(self, values):
        super().__init__(values)
        self.read = 0

    def __getitem__(self, index):
        got = super().__getitem__(index)
        self.read += len(got) if isinstance(index, slice) else 1
        return got

    def __iter__(self):
        raise AssertionError("the value list was iterated")


def test_a_view_of_the_grid_is_read_only_on_the_supported_box():
    F101 = RingSpec.prime_field(101)
    f = parse_poly("x^3*y^2*z^4 + 5*x^6*y - 2*z^5 + x*y*z + 9", ["x", "y", "z"], F101)
    grid = GridSpec(F101, [(9, 2, 40, 0, 77, 5, 13), (3, 1, 100, 8, 6), (4, 0, 1, 99, 50, 2)])
    want = coefficient_via_grid(_evaluated(f, grid), grid, (3, 2, 4))
    assert want == F101.element(1)
    for d in ((3, 2, 4), (6, 1, 0), (0, 0, 0), (6, 4, 5)):
        flat = _CountingList(oracle._grid_values(f, grid))
        # an equal grid built apart takes the same path
        same = GridSpec(F101, grid.sets)
        with mock.patch.object(GridSpec, "points", side_effect=AssertionError("grid.points() was called")):
            got = coefficient_via_grid(GridValues(grid, flat), same, d)
        assert flat.read == prod(di + 1 for di in d)
        assert got == coefficient_via_grid(_evaluated(f, grid), grid, d)


def test_a_view_of_another_grid_is_checked_for_coverage():
    f = parse_poly("x*y + 2", ["x", "y"], F7)
    view = grid_values(f, GridSpec(F7, [(0, 1, 2), (0, 1)]))
    other = GridSpec(F7, [(0, 1, 3), (0, 1)])
    with pytest.raises(ValueError, match="^value map misses 2 of 6 grid points$"):
        coefficient_via_grid(view, other, (1, 1))
    # over another ring with the same sets, no point is missing and each
    # value is read through the view
    F11 = RingSpec.prime_field(11)
    assert coefficient_via_grid(view, GridSpec(F11, [(0, 1, 2), (0, 1)]), (1, 1)) == F11.element(1)


# -- the grid annihilators against repeated multiplication --------------------

# Z_m with its smallest prime factor: up to that many consecutive multiples
# of a unit have pairwise unit differences, so trim accepts the set
ZMODS = ((12, 2), (35, 5), (64, 2), (9, 3), (77, 7))


@st.composite
def _annihilator_cases(draw):
    """A ring, a grid that passes the zero-divisor condition, a polynomial
    of partial degrees up to 6 and a degree vector within the set sizes."""
    kind = draw(st.sampled_from(["fp", "int", "zmod"]))
    arity = draw(st.integers(1, 3))
    if kind == "fp":
        ring = RingSpec.prime_field(draw(st.sampled_from([2, 5, 101, 10007])))
        sets = [draw(st.lists(st.integers(0, ring.modulus - 1), min_size=1,
                              max_size=min(ring.modulus, 5), unique=True)) for _ in range(arity)]
    elif kind == "int":
        ring = Z
        sets = [draw(st.lists(st.integers(-30, 30), min_size=1, max_size=5, unique=True))
                for _ in range(arity)]
    else:
        m, smallest = draw(st.sampled_from(ZMODS))
        ring = RingSpec.integers_mod(m)
        sets = []
        for _ in range(arity):
            start = draw(st.integers(0, m - 1))
            step = draw(st.integers(1, m - 1).filter(lambda s: gcd(s, m) == 1))
            size = draw(st.integers(1, smallest))
            sets.append([(start + k * step) % m for k in range(size)])
    grid = GridSpec(ring, sets)
    exps = st.tuples(*[st.integers(0, 6)] * arity)
    f = Polynomial(arity, ring, draw(st.dictionaries(exps, st.integers(-10**6, 10**6), max_size=8)))
    d = tuple(draw(st.integers(0, s)) for s in grid.sizes)
    return grid, f, d


def _linear_product(grid, var, elements):
    """prod (x_var - a) over the elements, one Polynomial product at a time."""
    out = Polynomial.constant(grid.arity, grid.ring, 1)
    x = Polynomial.variable(grid.arity, grid.ring, var)
    for a in elements:
        out = out * (x - a)
    return out


def _reference_trim(f, grid):
    """Long division by each repeated-multiplication annihilator in turn:
    subtract lead * x_var^(top - s) * g until the degree in x_var is below s."""
    for var, elements in enumerate(grid.sets):
        g, s = _linear_product(grid, var, elements), len(elements)
        while not f.is_zero and f.partial_degree(var) >= s:
            top = f.partial_degree(var)
            lead = Polynomial(grid.arity, grid.ring, {e[:var] + (0,) + e[var + 1:]: c
                                                      for e, c in f.terms.items() if e[var] == top})
            shift = tuple(top - s if i == var else 0 for i in range(grid.arity))
            f = f - lead * Polynomial.monomial(grid.arity, grid.ring, shift) * g
    return f


@settings(max_examples=200, deadline=None)
@given(_annihilator_cases())
def test_annihilators_match_repeated_multiplication(case):
    grid, f, d = case
    for var, elements in enumerate(grid.sets):
        assert vanishing_poly(grid, var) == _linear_product(grid, var, elements)
    family = _linear_product(grid, 0, grid.sets[0][:d[0]])
    for var in range(1, grid.arity):
        family = family * _linear_product(grid, var, grid.sets[var][:d[var]])
    assert tightness_family(grid, d) == family
    assert trim(f, grid) == _reference_trim(f, grid)


@settings(max_examples=200, deadline=None)
@given(_annihilator_cases())
def test_trim_invariants(case):
    # over Z, F_2, F_5, F_101, F_10007 and Z_m, m in ZMODS (Z_35 among them)
    grid, f, _ = case
    g = trim(f, grid)
    for pt in grid.points():
        assert g.eval_raw(pt) == f.eval_raw(pt)
    if not g.is_zero:
        assert all(d < s for d, s in zip(g.degrees()[0], grid.sizes))
    assert trim(g, grid) == g
    _assert_built_as_by_the_constructor(g)


@settings(max_examples=200, deadline=None)
@given(_annihilator_cases())
def test_trim_is_independent_of_the_variable_order(case):
    # trim reduces x_1, ..., x_n in turn; every other order gives its result
    grid, f, _ = case
    g = trim(f, grid)
    for order in itertools.permutations(range(grid.arity)):
        h = f
        for var in order:
            h = _reduce_variable(h, grid, var)
        assert h == g


def test_trim_reduction_work_is_charged_before_reducing():
    # x^20 on {0, 1, 2}: pops of x^20 down to x^3, one rest, and x^3 = 3x^2 - 2x
    # has two nonzero replacement coefficients, so the charge is 18 * 1 * 2,
    # above the 3 * 3 products that building the annihilator charges
    f = parse_poly("x^20 + 2*x^2 + 1", ["x"], F7)
    grid = GridSpec(F7, [(0, 1, 2)])
    with mock.patch.object(poly, "MAX_WORK", 36):
        assert trim(f, grid) == _reference_trim(f, grid)
    with mock.patch.object(poly, "MAX_WORK", 35), \
            pytest.raises(GridTooLargeError, match="reducing x1\\^20 modulo 3 elements needs 36 products"):
        trim(f, grid)
    # over Z a popped coefficient of x^5000 on 0..99 may have up to
    # 4999 + 4901 * 7 + 1 bits, so each of the 4901 * 99 products weighs 44
    start = time.perf_counter()
    with pytest.raises(GridTooLargeError, match="reducing x1\\^5000 modulo 100 elements needs 21348756 products"):
        trim(Polynomial.monomial(1, Z, (5000,)), GridSpec(Z, [range(100)]))
    assert time.perf_counter() - start < 0.5


def test_annihilator_work_is_charged_before_building():
    # over a word-size modulus each of the |S|^2 products counts one
    f101 = RingSpec.prime_field(101)
    with mock.patch.object(poly, "MAX_WORK", 100):
        assert len(annihilator(f101, tuple(range(10)))) == 11
        with pytest.raises(GridTooLargeError, match="11 elements needs 121 products"):
            annihilator(f101, tuple(range(11)))
    # over Z a product counts the words of the element times the words of
    # the coefficient bound prod (1 + |a|): 300 small integers fit, 300
    # elements of 1001 bits charge 588 per product and are refused at once
    assert len(annihilator(Z, tuple(range(300)))) == 301
    start = time.perf_counter()
    with pytest.raises(GridTooLargeError, match="300 elements needs 52920000 products"):
        annihilator(Z, tuple(2**1000 + k for k in range(300)))
    assert time.perf_counter() - start < 0.1
