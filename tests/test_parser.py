import math
import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullgrid import poly
from nullgrid.errors import (
    ExpansionTooLargeError,
    ExponentOverflowError,
    ParseError,
    ResourceLimitError,
    UnknownVariableError,
)
from nullgrid.parser import (
    MAX_EXPONENT,
    MAX_INFERRED,
    MAX_NESTING,
    DagBuilder,
    _power_work,
    _tokenize,
    _words,
    expand_dag,
    infer_variables,
    parse_dag,
    parse_poly,
)
from nullgrid.pit import eval_dag
from nullgrid.poly import MAX_WORK, Polynomial, product_work
from nullgrid.ring import RingSpec
import parser_reference

Z = RingSpec.integers()
F7 = RingSpec.prime_field(7)


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _reference_tokenize(text):
    """One anchored match per token, then a scan of the rest for the
    first character no token starts with."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tails
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        for kind in ("int", "ident", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e), e.position


_PIECES = st.one_of(
    st.sampled_from(["x", "y1", "_z", "Ab_9", "0", "7", "12345", "٣"]),
    st.sampled_from(list("+-*^()")),
    st.sampled_from([" ", "\t", "\n", "\u00a0", "\u2003", "\x1c"]),
    st.sampled_from(["$", ".", "é", ","]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_PIECES, max_size=12).map("".join))
def test_tokenize_matches_the_reference(text):
    # a token is its text, and "" ends the list; the reference's kinds and
    # positions are dropped, its bad-character error is kept
    tokens = _tokens_or_error(_tokenize, text)
    want = _tokens_or_error(_reference_tokenize, text)
    assert tokens == ([value for _, value, _ in want] if isinstance(want, list) else want)


_NESTED = ["(" * k + "x" + ")" * k for k in (MAX_NESTING, MAX_NESTING + 1)]


def _dag_or_error(parse, text):
    try:
        dag = parse(text, ["x", "y1", "_z"], Z)
    except ParseError as e:
        return type(e), str(e), e.position
    return dag.nodes, dag.root


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(_PIECES, st.sampled_from(["²", "1000001", "(" * MAX_NESTING, *_NESTED])),
                max_size=12).map("".join))
@example("")
@example(_NESTED[0])
@example(_NESTED[1])
def test_parse_dag_and_infer_variables_match_the_reference(text):
    # nodes and root, or the error class, message and position, of the
    # parser as it was when a token was a (kind, value, position) tuple
    assert _dag_or_error(parse_dag, text) == _dag_or_error(parser_reference.parse_dag, text)
    try:
        names = infer_variables(text)
    except ResourceLimitError:
        found = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
        assert all(re.fullmatch(r"x[1-9][0-9]*", n) for n in found)
        assert max(int(n[1:]) for n in found) > MAX_INFERRED
    else:
        assert names == parser_reference.infer_variables(text)


def test_simple_terms():
    f = parse_poly("x + 2*y", ["x", "y"], Z)
    assert f.terms == {(1, 0): 1, (0, 1): 2}


def test_precedence_pow_over_mul():
    f = parse_poly("2*x^3", ["x"], Z)
    assert f.terms == {(3,): 2}
    g = parse_poly("x^2*y", ["x", "y"], Z)
    assert g.terms == {(2, 1): 1}


def test_precedence_unary_minus():
    # minus binds tighter than * but looser than ^
    f = parse_poly("-x^2", ["x"], Z)
    assert f.terms == {(2,): -1}
    g = parse_poly("-x*y", ["x", "y"], Z)
    assert g.terms == {(1, 1): -1}
    h = parse_poly("--x", ["x"], Z)
    assert h.terms == {(1,): 1}
    k = parse_poly("2 - -x", ["x"], Z)
    assert k.terms == {(0,): 2, (1,): 1}


def test_parentheses_and_subtraction_chain():
    f = parse_poly("(x + y)^2", ["x", "y"], Z)
    assert f.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    g = parse_poly("x - y - 1", ["x", "y"], Z)
    assert g.terms == {(1, 0): 1, (0, 1): -1, (0, 0): -1}


def test_constant_folding_mod_p():
    f = parse_poly("10*x + 9", ["x"], F7)
    assert f.terms == {(1,): 3, (0,): 2}


def test_whitespace_tolerance():
    assert parse_poly(" x ^ 2 +  1 ", ["x"], Z).terms == {(2,): 1, (0,): 1}


def test_implicit_multiplication_rejected():
    for text in ("2x", "x y", "(x)(y)", "2(x+1)"):
        with pytest.raises(ParseError):
            parse_poly(text, ["x", "y"], Z)


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("x +* y", ["x", "y"], Z)
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("x + ", ["x"], Z)
    with pytest.raises(ParseError):
        parse_poly("(x + 1", ["x"], Z)
    with pytest.raises(ParseError):
        parse_poly("x @ y", ["x", "y"], Z)
    with pytest.raises(ParseError):
        parse_poly("", ["x"], Z)


def test_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse_poly("x + z", ["x", "y"], Z)


def test_exponent_cap():
    parse_poly(f"x^{MAX_EXPONENT}", ["x"], Z)
    with pytest.raises(ExponentOverflowError):
        parse_poly(f"x^{MAX_EXPONENT + 1}", ["x"], Z)
    # non-integer exponents are syntax errors
    with pytest.raises(ParseError):
        parse_poly("x^y", ["x", "y"], Z)
    with pytest.raises(ParseError):
        parse_poly("x^(2)", ["x"], Z)


def test_dag_sharing():
    dag = parse_dag("(x + y)*(x + y)", ["x", "y"], Z)
    # one shared add node: nodes are var, var, add, mul
    assert len(dag) == 4


def test_dag_builder_interning():
    b = DagBuilder(2, Z)
    x = b.var(0)
    y = b.var(1)
    s1 = b.add(x, y)
    s2 = b.add(x, y)
    assert s1 == s2
    b.build(b.mul(s1, s2))


def test_expand_matches_poly_parse():
    for text in ("x^2 - 4*x*y + y^2", "(x - 1)*(y - 2) + 3", "-(x + y)^3"):
        dag = parse_dag(text, ["x", "y"], Z)
        assert expand_dag(dag) == parse_poly(text, ["x", "y"], Z)


def test_expand_evaluates_consistently():
    rng = random.Random(5)
    dag = parse_dag("(x + 2*y)^3 - (x - y)*(x + y) + 4", ["x", "y"], F7)
    f = expand_dag(dag)
    for _ in range(20):
        pt = (rng.randrange(7), rng.randrange(7))
        assert eval_dag(dag, pt).value == f.evaluate(pt).value


X, Y = Polynomial.variable(2, Z, 0), Polynomial.variable(2, Z, 1)


@st.composite
def _signed_sums(draw, depth=2):
    """A sum of signed terms as text, some of them parenthesized sums, and
    the Polynomial that folding its terms left to right with + and - gives."""
    text, value = "", None
    for _ in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from("+-"))
        if depth and draw(st.integers(0, 3)) == 0:
            inner, term = draw(_signed_sums(depth - 1))
            inner = f"({inner})"
        else:
            c, i, j = draw(st.integers(0, 9)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
            inner, term = f"{c}*x^{i}*y^{j}", c * X ** i * Y ** j
        if value is None:
            text, value = ("" if sign == "+" else "-") + inner, term if sign == "+" else -term
        else:
            text, value = f"{text} {sign} {inner}", value + term if sign == "+" else value - term
    return text, value


@settings(max_examples=200, deadline=None)
@given(_signed_sums(), st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=3))
def test_sums_parse_to_the_fold_of_their_terms(sum_and_value, points):
    text, value = sum_and_value
    assert parse_poly(text, ["x", "y"], Z) == value
    dag = parse_dag(text, ["x", "y"], Z)
    for pt in points:
        assert eval_dag(dag, pt) == value.evaluate(pt)


def test_a_flat_sum_expands_in_t_log_t_term_copies(monkeypatch):
    # a left-leaning chain of T additions copies about T^2 / 2 terms
    rng = random.Random(2000)
    f101 = RingSpec.prime_field(101)
    terms = {}
    while len(terms) < 2000:
        terms[(rng.randrange(100), rng.randrange(100))] = rng.randrange(1, 101)
    f = Polynomial(2, f101, terms)
    copied = []
    init = Polynomial.__init__

    def counting(self, arity, ring, terms=None):
        copied.append(len(terms or ()))
        init(self, arity, ring, terms)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    assert parse_poly(f.render(["x", "y"]), ["x", "y"], f101) == f
    assert sum(copied) <= 2 * len(terms) * math.ceil(math.log2(len(terms)))


def test_infer_variables_indexed():
    assert infer_variables("x2*x1 + x4") == ["x1", "x2", "x3", "x4"]
    assert infer_variables("b + a*c") == ["b", "a", "c"]
    assert infer_variables("7 + 1") == []


def test_large_exponent_stays_sparse():
    # power on a monomial never expands into a dense polynomial
    f = parse_poly("x^1000000", ["x"], Z)
    assert f.terms == {(1000000,): 1}


def test_expansion_budget_refuses_a_huge_power_fast():
    start = time.perf_counter()
    with pytest.raises(ExpansionTooLargeError, match="2-term polynomial to the power 1000000"):
        parse_poly("(x + y)^1000000", ["x", "y"], Z)
    assert time.perf_counter() - start < 1.0
    # the budget still covers (x + y + z + 1)^40, about 4 s of expansion
    assert _power_work(parse_poly("x + y + z + 1", ["x", "y", "z"], F7), 40, MAX_WORK) \
        < MAX_WORK


def test_expansion_budget_is_charged_before_each_product(monkeypatch):
    dag = parse_dag("(x + 1)*(y + 1)*(x + y)", ["x", "y"], Z)
    want = expand_dag(dag)
    # 2·2 term products, then 4·2
    monkeypatch.setattr(poly, "MAX_WORK", 12)
    assert expand_dag(dag) == want
    monkeypatch.setattr(poly, "MAX_WORK", 11)
    with pytest.raises(ExpansionTooLargeError, match="product of 4 and 2 terms"):
        expand_dag(dag)
    monkeypatch.setattr(poly, "MAX_WORK", 3)
    with pytest.raises(ExpansionTooLargeError, match="power 2"):
        expand_dag(parse_dag("(x + y)^2", ["x", "y"], Z))


def test_expansion_budget_counts_the_exponent_tuples(monkeypatch):
    # in 8 variables each tuple counts 8 // 4 = 2: the 9 leaves' 18 before
    # anything is built, then 7 products of 1 + 2
    names = [f"x{i}" for i in range(1, 9)]
    dag = parse_dag("*".join(names) + " + 1", names, Z)
    want = expand_dag(dag)
    monkeypatch.setattr(poly, "MAX_WORK", 39)
    assert expand_dag(dag) == want
    monkeypatch.setattr(poly, "MAX_WORK", 38)
    with pytest.raises(ExpansionTooLargeError, match="product of 1 and 1 terms"):
        expand_dag(dag)
    monkeypatch.setattr(poly, "MAX_WORK", 17)
    with pytest.raises(ExpansionTooLargeError, match="tuples of 9 variables and constants in 8 variables"):
        expand_dag(dag)
    # a power's products count their tuples too: squaring x1 + ... + x8,
    # then the square times 1, takes 8·8 + 36·1 term products of 1 + 2
    # each; below 4 variables a tuple counts nothing
    assert _power_work(parse_poly("+".join(names), names, Z), 2, MAX_WORK) == 300
    assert _power_work(parse_poly("x + y + z", ["x", "y", "z"], Z), 2, MAX_WORK) == 3 * 3 + 6 * 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6, unique=True))),
    st.integers(0, 12))
def test_power_work_bounds_the_products_of_pow(shape, k):
    n, support = shape
    f = Polynomial(n, F7, {v: 1 for v in support})
    spent = []
    mul = Polynomial.__mul__

    def counting_mul(a, b):
        spent.append(len(a.terms) * len(b.terms))
        return mul(a, b)

    Polynomial.__mul__ = counting_mul
    try:
        f ** k
    finally:
        Polynomial.__mul__ = mul
    assert sum(spent) <= _power_work(f, k, 10**9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(-2**1600, 2**1600).filter(bool), min_size=4, max_size=4),
       st.integers(0, 6))
def test_power_work_bounds_the_word_weighted_products_of_pow_over_z(support, coeffs, k):
    # coefficients of ~25 words weigh each term product above 1
    f = Polynomial(2, Z, dict(zip(support, coeffs)))
    spent = []
    mul = Polynomial.__mul__

    def counting_mul(a, b):
        spent.append(product_work(len(a.terms), _words(a), len(b.terms), _words(b)))
        return mul(a, b)

    Polynomial.__mul__ = counting_mul
    try:
        f ** k
    finally:
        Polynomial.__mul__ = mul
    assert sum(spent) <= _power_work(f, k, 10**9)


def test_expansion_budget_weighs_coefficient_words(monkeypatch):
    dag = parse_dag(f"(x + {2**1000})*(y - {2**1000})", ["x", "y"], Z)
    # 2·2 term products of 16-word coefficients, each counting 1 + 16·16 // 128 = 3
    assert _words(parse_poly(f"x + {2**1000}", ["x"], Z)) == 16
    monkeypatch.setattr(poly, "MAX_WORK", 12)
    want = expand_dag(dag)
    assert want.terms[(0, 0)] == -2**2000
    monkeypatch.setattr(poly, "MAX_WORK", 11)
    with pytest.raises(ExpansionTooLargeError, match="product of 2 and 2 terms"):
        expand_dag(dag)
    # (x + y)^3000 has coefficients of ~3000 bits over Z, one word over F_101
    assert _power_work(parse_poly("x + y", ["x", "y"], Z), 3000, MAX_WORK) > MAX_WORK
    assert _power_work(parse_poly("x + y", ["x", "y"], RingSpec.prime_field(101)), 3000, MAX_WORK) \
        < MAX_WORK


@pytest.mark.parametrize("parse", [parse_poly, parse_dag])
@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_tokens_past_the_digit_limit_are_refused_at_their_position(limit, parse):
    """Up to Python's limit on the digits of an integer string (0: none) a
    token is read and its value decides; one digit past it, leading zeros
    counted, an integer is a ParseError and an exponent an
    ExponentOverflowError, each at the token."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        n = limit or 5000
        seven, ones = "0" * (n - 1) + "7", "1" * n
        assert parse(f"x - {seven}", ["x"], Z) == parse("x - 7", ["x"], Z)
        assert parse(f"x - {ones}", ["x"], Z) == parse(f"x - {int(ones)}", ["x"], Z)
        assert parse(f"x^{seven}", ["x"], Z) == parse("x^7", ["x"], Z)
        with pytest.raises(ExponentOverflowError) as info:
            parse(f"x^{ones}", ["x"], Z)
        assert str(info.value) == f"exponent {ones} exceeds the maximum {MAX_EXPONENT} (at position 2)"
        for past in ("0" + seven, "0" + ones):
            if not limit:
                assert parse(f"x - {past}", ["x"], Z) == parse(f"x - {int(past)}", ["x"], Z)
                continue
            with pytest.raises(ParseError) as info:
                parse(f"x - {past}", ["x"], Z)
            assert type(info.value) is ParseError
            assert str(info.value) == f"integer of {n + 1} digits exceeds the limit of {limit} digits (at position 4)"
            with pytest.raises(ExponentOverflowError) as info:
                parse(f"(x)^{past}", ["x"], Z)
            assert str(info.value) == f"exponent of {n + 1} digits exceeds the maximum {MAX_EXPONENT} (at position 4)"
    finally:
        sys.set_int_max_str_digits(saved)
