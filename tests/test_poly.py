import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullgrid.errors import ArityMismatchError, GridTooLargeError, ZeroPolynomialError
from nullgrid.poly import (
    GridSpec,
    Polynomial,
    check_compatible,
    vanishing_poly,
)
from nullgrid.oracle import tightness_family
from nullgrid.ring import RingElem, RingSpec

Z = RingSpec.integers()
F5 = RingSpec.prime_field(5)


def test_constructor_canonicalizes():
    f = Polynomial(2, F5, {(1, 0): 7, (0, 1): 5, (1, 0): 7})
    # 7 = 2 mod 5 and the coefficient 5 = 0 disappears
    assert f.terms == {(1, 0): 2}
    assert Polynomial(2, Z, {(0, 0): 0}).is_zero


def test_constructor_validation():
    with pytest.raises(ArityMismatchError):
        Polynomial(2, Z, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(1, Z, {(-1,): 1})


def test_arithmetic_matches_direct_evaluation():
    rng = random.Random(42)
    for ring in (Z, F5, RingSpec.prime_field(101), RingSpec.integers_mod(12)):
        m = ring.modulus
        for _ in range(40):
            f = _random_poly(rng, ring)
            g = _random_poly(rng, ring)
            k = rng.randrange(-30, 31)
            pt = tuple(rng.randrange(-4, 5) for _ in range(2))
            fv = f.evaluate(pt).value
            gv = g.evaluate(pt).value
            for h, want in ((f + g, fv + gv), (f - g, fv - gv), (f * g, fv * gv), (-f, -fv),
                            (f * k, fv * k), (k - f, k - fv), (f ** 3, fv ** 3)):
                # evaluate reduces mod m; only the constructor reduces the terms
                assert h.evaluate(pt).value == ring.canon(want)
                assert all(0 < c < m if m else c for c in h.terms.values())


def _random_poly(rng, ring, arity=2, cap=3):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        e = tuple(rng.randrange(cap + 1) for _ in range(arity))
        terms[e] = rng.randrange(-5, 6)
    return Polynomial(arity, ring, terms)


def test_power():
    x = Polynomial.variable(1, Z, 0)
    one = Polynomial.constant(1, Z, 1)
    f = x + one
    cube = f ** 3
    # binomial coefficients 1 3 3 1
    assert cube.terms == {(3,): 1, (2,): 3, (1,): 3, (0,): 1}
    assert (f ** 0) == one
    with pytest.raises(ValueError):
        _ = f ** -1


def test_mod_p_arithmetic():
    x = Polynomial.variable(1, F5, 0)
    f = (x + Polynomial.constant(1, F5, 4)) * (x + Polynomial.constant(1, F5, 1))
    # (x+4)(x+1) = x^2 + 5x + 4 = x^2 + 4 mod 5
    assert f.terms == {(2,): 1, (0,): 4}


def test_degrees():
    f = Polynomial(2, Z, {(3, 1): 2, (1, 2): 1})
    assert f.degrees() == ((3, 2), 4)
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(2, Z).degrees()


def test_evaluate_and_eval_raw_agree():
    rng = random.Random(3)
    for ring in (Z, F5, RingSpec.integers_mod(6)):
        for _ in range(30):
            f = _random_poly(rng, ring)
            pt = tuple(rng.randrange(0, 7) for _ in range(2))
            assert f.evaluate(pt).value == f.eval_raw(pt)


def test_render_is_parseable_and_signed():
    f = Polynomial(2, Z, {(2, 0): 1, (1, 1): -4, (0, 2): 1})
    assert f.render(["x", "y"]) == "x^2 - 4*x*y + y^2"
    assert Polynomial.zero(2, Z).render() == "0"
    assert Polynomial.constant(2, Z, -3).render() == "-3"
    g = Polynomial(2, F5, {(1, 1): 4})
    # no signed rendering mod p, coefficients are canonical representatives
    assert g.render(["x", "y"]) == "4*x*y"


def test_render_roundtrip():
    from nullgrid.parser import parse_poly

    rng = random.Random(11)
    for ring in (Z, F5):
        for _ in range(40):
            f = _random_poly(rng, ring)
            text = f.render(["a", "b"])
            assert parse_poly(text, ["a", "b"], ring) == f


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((Z, F5, RingSpec.prime_field(101), RingSpec.integers_mod(6), RingSpec.integers_mod(35))),
       st.integers(1, 4).flatmap(lambda n: st.dictionaries(
           st.tuples(*[st.integers(0, 5)] * n), st.integers(-10**30, 10**30), max_size=8)))
def test_render_parse_round_trip(ring, terms):
    from nullgrid.parser import parse_poly

    n = len(next(iter(terms), (0,)))
    names = [f"x{i}" for i in range(1, n + 1)]
    f = Polynomial(n, ring, terms)
    assert parse_poly(f.render(names), names, ring) == f


def _assert_built_as_by_the_constructor(f):
    again = Polynomial(f.arity, f.ring, f.terms)
    assert f == again and f.terms == again.terms
    assert repr(f) == repr(again) and hash(f) == hash(again)


@st.composite
def _ring_and_polys(draw):
    ring = draw(st.sampled_from((Z, F5, RingSpec.prime_field(101), RingSpec.integers_mod(12),
                                 RingSpec.integers_mod(35))))
    arity = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * arity),
                            st.integers(-10**20, 10**20) | st.integers(-3, 3), max_size=6)
    return ring, [Polynomial(arity, ring, t) for t in draw(st.lists(terms, min_size=1, max_size=4))]


@settings(max_examples=300, deadline=None)
@given(_ring_and_polys(), st.lists(st.tuples(st.sampled_from("+-*^n&s"), st.integers(0, 3),
                                             st.integers(-40, 40)), max_size=8))
def test_arithmetic_builds_what_the_constructor_builds(case, steps):
    # arithmetic hands its raw sums and products to Polynomial._from_raw with
    # no key check: each result must equal the constructor's from its terms
    ring, polys = case
    f = polys[0]
    for op, i, c in steps:
        g = polys[i % len(polys)]
        if op == "+":
            f = f + g if c % 2 else c + f
        elif op == "-":
            f = f - g if c % 2 else c - f
        elif op == "*":
            f = f * g
        elif op == "^":
            f = g ** (i % 3)
        elif op == "n":
            f = -f
        elif op == "&":
            f = c * f
        else:
            f = f * RingElem(ring, ring.canon(c))
        _assert_built_as_by_the_constructor(f)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((Z, F5, RingSpec.prime_field(101), RingSpec.integers_mod(12))),
       st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True), min_size=1, max_size=3),
       st.data())
def test_tightness_family_builds_what_the_constructor_builds(ring, sets, data):
    sets = [list(dict.fromkeys(map(ring.canon, s))) for s in sets]
    grid = GridSpec(ring, sets)
    d = tuple(data.draw(st.integers(0, len(s))) for s in sets)
    _assert_built_as_by_the_constructor(tightness_family(grid, d))


def test_gridspec_basics():
    g = GridSpec(Z, [(0, 1, 2), (5, 7)])
    assert g.arity == 2
    assert g.sizes == (3, 2)
    assert g.size() == 6
    assert sorted(g.points()) == [(0, 5), (0, 7), (1, 5), (1, 7), (2, 5), (2, 7)]


def test_gridspec_rejects_duplicates():
    with pytest.raises(ValueError):
        GridSpec(Z, [(0, 1, 1)])
    # distinctness is checked after canonicalization
    with pytest.raises(ValueError):
        GridSpec(F5, [(0, 5)])


def test_gridspec_from_text():
    g = GridSpec.from_text("0, 1, 2\n-1, 3\n", Z)
    assert g.sets == ((0, 1, 2), (-1, 3))
    # 6 canonicalizes to 1 and collides with the listed 1
    with pytest.raises(ValueError):
        GridSpec.from_text("0,1,6\n", F5)


def test_gridspec_from_text_ranges_and_semicolons():
    g = GridSpec.from_text("-2..1; 4, 6", Z)
    assert g.sets == ((-2, -1, 0, 1), (4, 6))
    g = GridSpec.from_text("0..2,5\n", Z)
    assert g.sets == ((0, 1, 2, 5),)
    with pytest.raises(ValueError):
        GridSpec.from_text("5..2", Z)
    with pytest.raises(ValueError):
        GridSpec.from_text("..3", Z)


def test_vanishing_poly():
    g = GridSpec(Z, [(0, 1, 2), (5, 7)])
    v = vanishing_poly(g, 0)
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert v.terms == {(3, 0): 1, (2, 0): -3, (1, 0): 2}
    for pt in g.points():
        assert v.evaluate(pt).value == 0


def test_check_compatible():
    f = Polynomial.variable(2, Z, 0)
    g = GridSpec(Z, [(0, 1), (0, 1)])
    check_compatible(f, g)
    with pytest.raises(ArityMismatchError):
        check_compatible(Polynomial.variable(1, Z, 0), g)
    from nullgrid.errors import RingMismatchError

    with pytest.raises(RingMismatchError):
        check_compatible(Polynomial.variable(2, F5, 0), g)


def test_gridspec_from_text_caps_set_size_before_expanding():
    from nullgrid.poly import MAX_SET_SIZE

    # cap + 1 elements, in one range and split over a range and a list
    for text in (f"0..{MAX_SET_SIZE}", f"5, 0..{MAX_SET_SIZE - 1}"):
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLargeError):
                GridSpec.from_text(text, Z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
    g = GridSpec.from_text("0..9; 1..3", Z)
    assert g.sizes == (10, 3)


def test_gridspec_repeat_message_names_the_repeat():
    vals = list(range(10_000))
    vals[7_000] = 1_234
    with pytest.raises(ValueError) as err:
        GridSpec(Z, [(0, 1), vals])
    message = str(err.value)
    assert len(message) < 200
    assert "grid set 2" in message and "1234" in message
    assert "1235" in message and "7001" in message  # 1-based positions
    with pytest.raises(ValueError, match="repeats 1 at positions 2 and 3"):
        GridSpec.from_text("0,1,6\n", F5)
