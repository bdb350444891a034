import itertools
import logging
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullgrid import analysis
from nullgrid.analysis import (
    CONDITIONS,
    D_LEADING,
    LEX_LARGEST,
    MAX_ORDERS_ARITY,
    MAXIMAL_MONOMIAL,
    PARTIAL_DEGREES,
    SUCCESSIVELY_LARGEST,
    TOTAL_DEGREE,
    HypothesisReport,
    classify,
    forbidden_set,
    hypothesis_holds,
    is_d_leading,
    lex_largest,
    maximal_monomials,
    successively_largest,
)
from nullgrid.bounds import collect_bounds
from nullgrid.oracle import random_polynomial
from nullgrid.parser import parse_poly
from nullgrid.poly import GridSpec, Polynomial
from nullgrid.ring import RingSpec
from record_contract import assert_same_equality, assert_same_record

Z = RingSpec.integers()
F7 = RingSpec.prime_field(7)
F11 = RingSpec.prime_field(11)

ELLIPSE = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z)


def test_maximal_monomials_ellipse():
    assert maximal_monomials(ELLIPSE) == {(2, 0), (1, 1), (0, 2)}


def test_maximal_monomials_dominated_point_excluded():
    f = parse_poly("x^2*y + x*y + y", ["x", "y"], Z)
    assert maximal_monomials(f) == {(2, 1)}


def test_lex_largest_orders():
    assert lex_largest(ELLIPSE, (0, 1)) == (2, 0)
    assert lex_largest(ELLIPSE, (1, 0)) == (0, 2)
    f = parse_poly("x^3*y + x^2*y^5", ["x", "y"], Z)
    assert lex_largest(f, (0, 1)) == (3, 1)
    assert lex_largest(f, (1, 0)) == (2, 5)
    with pytest.raises(ValueError):
        lex_largest(f, (0, 0))


def test_successively_largest_frozen():
    f = parse_poly("x^7*y^2 + x^5*y^6 + x^2*y^4", ["x", "y"], Z)
    # x first: global x-degree 7, then the y-max among monomials agreeing
    # with the seed in x
    assert successively_largest(f, (7, 2), (0, 1)) == (7, 2)
    assert successively_largest(f, (5, 6), (0, 1)) == (7, 6)
    assert successively_largest(f, (2, 4), (0, 1)) == (7, 4)
    # y first
    assert successively_largest(f, (5, 6), (1, 0)) == (5, 6)
    assert successively_largest(f, (7, 2), (1, 0)) == (7, 6)
    with pytest.raises(ValueError):
        successively_largest(f, (1, 1), (0, 1))


def test_successively_largest_dominates_seed():
    rng = random.Random(21)
    for _ in range(50):
        f = random_polynomial(3, (4, 4, 4), 0.4, Z, seed=rng.randrange(10**9))
        for seed in f.terms:
            for order in itertools.permutations(range(3)):
                d = successively_largest(f, seed, order)
                assert all(di >= si for di, si in zip(d, seed))
                assert hypothesis_holds(f, SUCCESSIVELY_LARGEST, d, e=seed, order=order)


def test_is_d_leading_frozen():
    f = parse_poly("x*y + x^4 + y^2", ["x", "y"], Z)
    # competitors of (1,1) at d=(4,2) need every slot equal or above the cap
    assert is_d_leading(f, (1, 1), (4, 2))
    # at d=(3,1), (4,0) is not excluded: x-slot 4 > 3 and y-slot... 0 != 1
    # and 0 <= 1, so (4,0) fails the pattern and (1,1) is still leading
    assert is_d_leading(f, (1, 1), (3, 1))
    # seed must lie under d
    with pytest.raises(ValueError):
        is_d_leading(f, (1, 1), (0, 2))
    with pytest.raises(ValueError):
        is_d_leading(f, (2, 2), (4, 2))


def test_is_d_leading_rejects():
    f = parse_poly("x*y + x^4*y^2", ["x", "y"], Z)
    # (4,2) exceeds d=(3,1) in every slot, so it beats (1,1)
    assert not is_d_leading(f, (1, 1), (3, 1))
    assert is_d_leading(f, (4, 2), (4, 2))


def test_forbidden_set_maximal_frozen():
    got = forbidden_set(MAXIMAL_MONOMIAL, (1, 1), (2, 2))
    assert got == {(1, 2), (2, 1), (2, 2)}


def test_forbidden_set_total_frozen():
    got = forbidden_set(TOTAL_DEGREE, (1, 1), (2, 2))
    assert got == {(1, 2), (2, 1), (2, 2)}


def test_forbidden_set_partial_frozen():
    got = forbidden_set(PARTIAL_DEGREES, (1, 1), (2, 2))
    assert got == {(0, 2), (1, 2), (2, 0), (2, 1), (2, 2)}


def test_forbidden_set_lex_frozen():
    got = forbidden_set(LEX_LARGEST, (1, 1), (2, 2), order=(0, 1))
    assert got == {(1, 2), (2, 0), (2, 1), (2, 2)}
    got = forbidden_set(LEX_LARGEST, (1, 1), (2, 2), order=(1, 0))
    assert got == {(2, 1), (0, 2), (1, 2), (2, 2)}


def test_forbidden_set_succ_frozen():
    # seed (1,1), d=(2,1), x first: forbidden when x-exp exceeds 2, or
    # x-exp equals the seed and y-exp exceeds 1
    got = forbidden_set(SUCCESSIVELY_LARGEST, (2, 1), (3, 3), e=(1, 1), order=(0, 1))
    assert got == {(3, 0), (3, 1), (3, 2), (3, 3), (1, 2), (1, 3)}


def test_forbidden_set_d_leading_frozen():
    got = forbidden_set(D_LEADING, (2, 1), (3, 3), e=(1, 1))
    assert got == {(1, 2), (1, 3), (3, 1), (3, 2), (3, 3)}
    # a seed given as a list names the same region; the seed itself is allowed
    assert forbidden_set(D_LEADING, (2, 1), (3, 3), e=[1, 1]) == got


def test_region_identity_maximal_is_lex_intersection():
    # the dominance region equals the intersection of the lex regions
    # over all variable orders
    for n, cap in ((2, (5, 5)), (3, (3, 3, 3))):
        rng = random.Random(n)
        for _ in range(10):
            d = tuple(rng.randrange(c + 1) for c in cap)
            lex = None
            for order in itertools.permutations(range(n)):
                region = forbidden_set(LEX_LARGEST, d, cap, order=order)
                lex = region if lex is None else lex & region
            assert lex == forbidden_set(MAXIMAL_MONOMIAL, d, cap)


def test_region_identity_d_leading_is_succ_intersection():
    for n, cap in ((2, (5, 5)), (3, (3, 3, 3))):
        rng = random.Random(10 + n)
        for _ in range(10):
            d = tuple(rng.randrange(c + 1) for c in cap)
            e = tuple(rng.randrange(di + 1) for di in d)
            succ = None
            for order in itertools.permutations(range(n)):
                region = forbidden_set(SUCCESSIVELY_LARGEST, d, cap, e=e, order=order)
                succ = region if succ is None else succ & region
            assert succ == forbidden_set(D_LEADING, d, cap, e=e)


def test_hypothesis_holds_requires_witness_in_support():
    assert not hypothesis_holds(ELLIPSE, MAXIMAL_MONOMIAL, (2, 1))
    assert not hypothesis_holds(ELLIPSE, LEX_LARGEST, (1, 1), order=(0, 1))
    assert hypothesis_holds(ELLIPSE, LEX_LARGEST, (2, 0), order=(0, 1))
    assert not hypothesis_holds(ELLIPSE, PARTIAL_DEGREES, (2, 1))
    assert hypothesis_holds(ELLIPSE, PARTIAL_DEGREES, (2, 2))
    assert hypothesis_holds(ELLIPSE, TOTAL_DEGREE, (2, 0))
    assert hypothesis_holds(ELLIPSE, TOTAL_DEGREE, (1, 1))
    assert not hypothesis_holds(ELLIPSE, TOTAL_DEGREE, (1, 0))


def test_unknown_condition_and_missing_seed_are_errors():
    # rejected even when the witness is not in the support
    for d in ((2, 0), (5, 5)):
        with pytest.raises(ValueError, match="unknown condition"):
            hypothesis_holds(ELLIPSE, "bogus", d)
    with pytest.raises(ValueError, match="unknown condition"):
        forbidden_set("bogus", (1, 1), (2, 2))
    with pytest.raises(ValueError, match="needs the seed"):
        forbidden_set(D_LEADING, (1, 1), (2, 2))
    # without a seed the seeded hypotheses simply do not hold
    assert not hypothesis_holds(ELLIPSE, SUCCESSIVELY_LARGEST, (2, 0))


def test_classify_ellipse_frozen():
    rows = {(r.condition, r.witness_d, r.witness_e, r.order, r.holds) for r in classify(ELLIPSE)}
    assert rows == {
        (MAXIMAL_MONOMIAL, (2, 0), None, None, True),
        (MAXIMAL_MONOMIAL, (1, 1), None, None, True),
        (MAXIMAL_MONOMIAL, (0, 2), None, None, True),
        (LEX_LARGEST, (2, 0), None, (0, 1), True),
        (LEX_LARGEST, (0, 2), None, (1, 0), True),
        (SUCCESSIVELY_LARGEST, (2, 0), (2, 0), (0, 1), True),
        (SUCCESSIVELY_LARGEST, (2, 1), (1, 1), (0, 1), True),
        (SUCCESSIVELY_LARGEST, (2, 2), (0, 2), (0, 1), True),
        (SUCCESSIVELY_LARGEST, (2, 2), (2, 0), (1, 0), True),
        (SUCCESSIVELY_LARGEST, (1, 2), (1, 1), (1, 0), True),
        (SUCCESSIVELY_LARGEST, (0, 2), (0, 2), (1, 0), True),
        (D_LEADING, (0, 2), (0, 2), None, True),
        (D_LEADING, (2, 2), (0, 2), None, True),
        (D_LEADING, (1, 2), (1, 1), None, True),
        (D_LEADING, (2, 1), (1, 1), None, True),
        (D_LEADING, (2, 0), (2, 0), None, True),
        (D_LEADING, (2, 2), (2, 0), None, True),
        (PARTIAL_DEGREES, (2, 2), None, None, True),
        (TOTAL_DEGREE, (2, 0), None, None, True),
    }


def test_hypothesis_report_keeps_the_frozen_dataclass_contract():
    rows = classify(ELLIPSE)
    assert {r.condition for r in rows} == set(CONDITIONS)
    for r in rows:
        assert_same_record(r)
    assert_same_equality(rows)


def test_classify_deterministic():
    f = parse_poly("x^3*y + y^2 + x*y^2 + 2", ["x", "y"], Z)
    assert classify(f) == classify(f)


def test_classify_holds_flags_true_by_construction():
    # detectors only emit witnesses that pass the definitional re-check
    rng = random.Random(77)
    for _ in range(60):
        f = random_polynomial(2, (5, 5), 0.4, Z, seed=rng.randrange(10**9))
        for rep in classify(f):
            assert rep.holds, rep
            assert rep.condition in CONDITIONS


def test_classify_never_rescans_the_support(monkeypatch):
    # every report holds by construction, so classify makes no definitional
    # check, with all orders (ELLIPSE) or the identity order alone (arity 5)
    calls = []
    holds = analysis.hypothesis_holds

    def counting(*args, **kwargs):
        calls.append(args)
        return holds(*args, **kwargs)

    monkeypatch.setattr(analysis, "hypothesis_holds", counting)
    wide = parse_poly("x1*x2^2 + x3*x4 + x5^3 + x1*x5 + 2", [f"x{i}" for i in range(1, 6)], Z)
    assert wide.arity > MAX_ORDERS_ARITY
    for f in (ELLIPSE, wide):
        assert all(rep.holds for rep in classify(f))
    assert calls == []


def test_classify_constant_poly():
    f = Polynomial.constant(2, Z, 3)
    rows = classify(f)
    conds = [r.condition for r in rows]
    assert MAXIMAL_MONOMIAL in conds and TOTAL_DEGREE in conds
    for r in rows:
        assert r.holds
        assert r.witness_d == (0, 0)


def _exists_j(v, bound, agree, order):
    # some variable, in order, exceeds its bound while every earlier
    # variable agrees with the reference vector
    return any(v[order[j]] > bound[order[j]] and all(v[order[i]] == agree[order[i]] for i in range(j))
               for j in range(len(order)))


@st.composite
def _region_inputs(draw):
    n = draw(st.integers(1, 4))
    cap = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    d = tuple(draw(st.integers(0, 4)) for _ in range(n))
    e = tuple(draw(st.integers(0, di)) for di in d)
    order = tuple(draw(st.permutations(range(n))))
    return cap, d, e, order


@settings(max_examples=200, deadline=None)
@given(_region_inputs())
def test_regions_match_their_definitions(inputs):
    cap, d, e, order = inputs
    box = list(itertools.product(*(range(c + 1) for c in cap)))
    assert forbidden_set(SUCCESSIVELY_LARGEST, d, cap, e=e, order=order) == {
        v for v in box if _exists_j(v, d, e, order)}
    assert forbidden_set(LEX_LARGEST, d, cap, order=order) == {
        v for v in box if _exists_j(v, d, d, order)}
    d_leading = {v for v in box if v != e and all(vi == ei or vi > di for vi, ei, di in zip(v, e, d))}
    assert forbidden_set(D_LEADING, d, cap, e=e) == d_leading
    # and d-leading is successively-largest under every order at once
    orders = list(itertools.permutations(range(len(d))))
    assert d_leading == {v for v in box if v != e and all(_exists_j(v, d, e, o) for o in orders)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12, unique=True),
    st.tuples(*[st.integers(0, 2)] * n))), st.data())
def test_is_d_leading_is_the_d_leading_hypothesis(support_and_lift, data):
    support, lift = support_and_lift
    f = Polynomial(len(lift), Z, {v: 1 for v in support})
    e = data.draw(st.sampled_from(support))
    d = tuple(ei + li for ei, li in zip(e, lift))
    assert is_d_leading(f, e, d) == hypothesis_holds(f, D_LEADING, d, e)


def test_hypothesis_holds_rejects_witness_of_wrong_length():
    f = parse_poly("x*y + x^2", ["x", "y"], Z)
    for condition in CONDITIONS:
        # a short d was read through zip and truncated: d-leading held for
        # d = (5,), and successively-largest raised a bare IndexError
        with pytest.raises(ValueError, match="witness d = \\(5,\\) has length 1, f has arity 2"):
            hypothesis_holds(f, condition, (5,), e=(1, 1))
        with pytest.raises(ValueError, match="witness e = \\(1, 1, 0\\) has length 3"):
            hypothesis_holds(f, condition, (2, 2), e=(1, 1, 0))
        with pytest.raises(ValueError, match="witness d"):
            hypothesis_holds(f, condition, (2, 0, 0))


def _reference_classify(f):
    """classify as written before the support was indexed per order: the
    witnesses from successively_largest and lex_largest, every holds from
    the definitional hypothesis_holds scan."""
    n = f.arity
    orders = list(itertools.permutations(range(n))) if n <= MAX_ORDERS_ARITY else [tuple(range(n))]
    graded = lambda v: (sum(v), v)
    rows = []

    def report(condition, d, e=None, order=None):
        rows.append(HypothesisReport(condition, hypothesis_holds(f, condition, d, e, order), d, e, order))

    maximal = [m for m in f.terms if hypothesis_holds(f, MAXIMAL_MONOMIAL, m)]
    for m in sorted(maximal, key=graded, reverse=True):
        report(MAXIMAL_MONOMIAL, m)
    for order in orders:
        report(LEX_LARGEST, lex_largest(f, order), order=order)
    seeds = sorted(f.terms, key=graded, reverse=True)
    pairs = set()
    for order in orders:
        for seed in seeds:
            d = successively_largest(f, seed, order)
            report(SUCCESSIVELY_LARGEST, d, seed, order)
            pairs.add((seed, d))
    for seed, d in sorted(pairs):
        report(D_LEADING, d, seed)
    partial, total = f.degrees()
    report(PARTIAL_DEGREES, partial)
    report(TOTAL_DEGREE, max((e for e in f.terms if sum(e) == total), key=graded))
    return rows


def _reference_skyline(support):
    """maximal_monomials as it was before it skipped maxima of equal total
    degree: each monomial, graded-descending, against every kept maximum."""
    kept = []
    for m in sorted(support, key=lambda v: (sum(v), v), reverse=True):
        if not any(all(a >= b for a, b in zip(k, m)) for k in kept):
            kept.append(m)
    return set(kept)


@st.composite
def _supports(draw):
    # exponents 0..3 repeat per variable, so seeds share prefixes and the
    # same (seed, d) pair comes out of several orders; arity 5 and 6 use the
    # identity order alone.  Homogeneous supports (the last exponent fills
    # each vector up to one total degree) and supports cut to their maxima
    # are antichains, where every monomial is maximal.
    n = draw(st.integers(1, 6))
    top = draw(st.integers(0, 3))
    support = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=14, unique=True))
    shape = draw(st.sampled_from(("any", "homogeneous", "antichain")))
    if shape == "homogeneous":
        support = [v[:-1] + ((n - 1) * top - sum(v[:-1]),) for v in support]
    elif shape == "antichain":
        support = _reference_skyline(support)
    return Polynomial(n, Z, {v: 1 for v in support})


@settings(max_examples=300, deadline=None)
@given(_supports())
@example(Polynomial.constant(3, Z, 5))
@example(Polynomial(1, Z, {(4,): 1}))
@example(Polynomial(5, Z, {(1, 0, 2, 0, 1): 1, (1, 0, 2, 1, 0): 1, (0, 3, 0, 0, 0): 1}))
@example(Polynomial(3, Z, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (2, 0, 0): 1}))
@example(Polynomial(6, Z, {(2, 0, 1, 0, 0, 1): 1, (0, 2, 0, 1, 1, 0): 1, (1, 1, 1, 1, 0, 0): 1}))
def test_classify_matches_the_reference(f):
    assert maximal_monomials(f) == _reference_skyline(f.terms)
    assert classify(f) == _reference_classify(f)


def test_skyline_compares_nothing_on_a_homogeneous_support(monkeypatch):
    # no monomial of equal total degree can strictly dominate another
    calls = []
    dominates = analysis._dominates
    monkeypatch.setattr(analysis, "_dominates", lambda a, b: calls.append(a) or dominates(a, b))
    f = parse_poly("(x + y + z)^12", ["x", "y", "z"], Z)
    assert len(maximal_monomials(f)) == len(f.terms) == 91
    classify(f)
    assert calls == []


def _lambda_lex_largest(f, order):
    """lex_largest keyed as it was before ``itemgetter``: a tuple per term."""
    return max(f.terms, key=lambda e: tuple(e[i] for i in order))


@settings(max_examples=200, deadline=None)
@given(_supports())
@example(Polynomial.constant(0, Z, 5))
@example(Polynomial(1, Z, {(4,): 1, (2,): 1, (0,): 1}))
def test_lex_largest_matches_the_lambda_key(f):
    # at arity 1 itemgetter(0) keys on an int, not a 1-tuple; arity 0 has no key
    for order in itertools.permutations(range(f.arity)):
        assert lex_largest(f, order) == _lambda_lex_largest(f, order)


def _acceptance_polys():
    """The random polynomials of acceptance criteria 4 and 7, drawn as
    those criteria draw them."""
    F5, F101 = RingSpec.prime_field(5), RingSpec.prime_field(101)
    rng = random.Random(404)
    for _ in range(1000):
        ring = rng.choice((F5, F7, F101, Z))
        n = rng.randrange(1, 3)
        caps = tuple(rng.randrange(1, 5) for _ in range(n))
        yield random_polynomial(n, caps, rng.uniform(0.2, 0.7), ring, seed=rng.randrange(10**9))
        if ring.kind == "fp" and ring.modulus <= 7 and rng.random() < 0.5:
            continue
        universe = range(-9, 10) if ring.kind == "int" else range(ring.modulus)
        size = rng.randrange(1, min(9, len(universe) + 1))
        for _ in range(n):
            rng.sample(universe, size)
    rng = random.Random(707)
    for _ in range(100):
        ring = rng.choice((F7, F11))
        yield random_polynomial(2, (rng.randrange(1, 5), rng.randrange(1, 5)), 0.5, ring,
                                seed=rng.randrange(10**9))


def test_classify_matches_the_reference_on_acceptance_corpora():
    polys = [f for f in _acceptance_polys() if not f.is_zero]
    assert len(polys) > 1000
    for f in polys + [ELLIPSE]:
        assert classify(f) == _reference_classify(f), f


def test_classify_logs_one_record(caplog):
    # collect_bounds reads the walk behind classify without calling it, and
    # that walk logs the same one record
    for walk in (lambda: classify(ELLIPSE),
                 lambda: collect_bounds(ELLIPSE, GridSpec(Z, [range(5), range(5)]))):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="nullgrid"):
            walk()
        records = [r for r in caplog.records if r.name.startswith("nullgrid")]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert records[0].getMessage() == (
            "classify terms=3 orders=2 reports=19 d_leading=6")
    assert len(classify(ELLIPSE)) == 19
