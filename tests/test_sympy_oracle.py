"""sympy as a second, independent oracle for expansion and trim.

sympy is a test-only dependency (the ``dev`` extra); without it these
tests are skipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullgrid.parser import parse_poly
from nullgrid.poly import GridSpec, Polynomial
from nullgrid.ring import RingSpec
from nullgrid.transform import trim

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
GENS = sympy.symbols(NAMES)


def _leaf():
    return st.one_of(
        st.sampled_from([(name, g) for name, g in zip(NAMES, GENS)]),
        st.integers(0, 30).map(lambda c: (str(c), sympy.Integer(c))),
    )


def _extend(children):
    # every compound is parenthesised, so the text means what the sympy
    # expression built beside it means whatever the precedence rules
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: (f"({p[0][0]} + {p[1][0]})", p[0][1] + p[1][1])),
        pairs.map(lambda p: (f"({p[0][0]} - {p[1][0]})", p[0][1] - p[1][1])),
        pairs.map(lambda p: (f"({p[0][0]} * {p[1][0]})", p[0][1] * p[1][1])),
        pairs.map(lambda p: (f"(-{p[0][0]})", -p[0][1])),
        st.tuples(children, st.integers(0, 3)).map(lambda p: (f"({p[0][0]})^{p[1]}", p[0][1] ** p[1])),
    )


# (text, sympy expression) pairs of small sum / product / power expressions
EXPRESSIONS = st.recursive(_leaf(), _extend, max_leaves=8)


def _terms(poly, modulus):
    """A sympy Poly's coefficients as nullgrid keeps them: canonical
    residues over F_p (sympy prints them symmetric), ints over Z."""
    coefficients = ((e, int(c) % modulus if modulus else int(c)) for e, c in poly.as_dict().items())
    return {e: c for e, c in coefficients if c}


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS, st.sampled_from([None, 2, 5, 101]))
def test_parse_poly_matches_sympy(expression, modulus):
    text, expr = expression
    ring = RingSpec.integers() if modulus is None else RingSpec.prime_field(modulus)
    options = {} if modulus is None else {"modulus": modulus}
    expected = sympy.Poly(expr, *GENS, **options)
    assert parse_poly(text, list(NAMES), ring).terms == _terms(expected, modulus)


@st.composite
def _fp_trim_cases(draw):
    p = draw(st.sampled_from([2, 5, 101]))
    arity = draw(st.integers(1, 3))
    sets = [draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, 4), unique=True))
            for _ in range(arity)]
    exps = st.tuples(*[st.integers(0, 7)] * arity)
    terms = draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=6))
    return Polynomial(arity, RingSpec.prime_field(p), terms), GridSpec(RingSpec.prime_field(p), sets)


@settings(max_examples=100, deadline=None)
@given(_fp_trim_cases())
def test_trim_matches_sympy_reduced(case):
    f, grid = case
    p, gens = f.ring.modulus, GENS[:f.arity]
    expr = sympy.Poly.from_dict(f.terms, gens, modulus=p).as_expr() if f.terms else sympy.Integer(0)
    annihilators = [sympy.prod(x - a for a in s) for x, s in zip(gens, grid.sets)]
    _, remainder = sympy.reduced(expr, annihilators, *gens, modulus=p)
    assert trim(f, grid).terms == _terms(sympy.Poly(remainder, *gens, modulus=p), p)
