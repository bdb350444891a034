import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullgrid import analysis, poly
from nullgrid.analysis import HypothesisReport, classify
from nullgrid.bounds import (
    AFInstance,
    BoundReport,
    additive_existence_bound,
    alon_furedi_original_bound,
    collect_bounds,
    demillo_lipton_bound,
    erdos_density_bound,
    gen_alon_furedi_bound,
    kst_exponent,
    min_products_by_total,
    product_bound,
    schwartz_additive_bound,
    schwartz_zippel_count,
    sz_probability,
    zippel_bound,
)
from nullgrid.cli import jsonable
from nullgrid.errors import SearchBudgetError
from nullgrid.oracle import BoundCheck, random_polynomial, verify_bounds
from nullgrid.parser import parse_poly
from nullgrid.poly import GridSpec, Polynomial
from nullgrid.ring import RingSpec
from record_contract import as_reference, assert_same_record, reference_jsonable

Z = RingSpec.integers()


def test_product_bound():
    assert product_bound((5, 5), (2, 2)) == 9
    assert product_bound((8, 3), (7, 2)) == 1
    assert product_bound((4,), (0,)) == 4
    with pytest.raises(ValueError):
        product_bound((5, 5), (5, 2))


def test_schwartz_additive_bound():
    # ceil(25 * (1 - 2/5 - 2/5)) = ceil(5) = 5
    assert schwartz_additive_bound((5, 5), (2, 2)) == 5
    # negative content clamps to zero
    assert schwartz_additive_bound((4, 3), (2, 2)) == 0
    # ceil of a non-integer: 12 * (1 - 1/4 - 1/3) = 5
    assert schwartz_additive_bound((4, 3), (1, 1)) == 5
    assert schwartz_additive_bound((4, 3), (0, 0)) == 12


def test_sz_probability():
    assert sz_probability(2, 5) == Fraction(2, 5)
    assert sz_probability(0, 5) == 0
    with pytest.raises(ValueError):
        sz_probability(5, 5)


def test_schwartz_zippel_count():
    # s^n - d*s^(n-1)
    assert schwartz_zippel_count(5, 2, 2) == 15
    assert schwartz_zippel_count(5, 2, 3) == 75
    assert schwartz_zippel_count(3, 2, 1) == 1


def test_zippel_and_demillo_lipton():
    assert zippel_bound(5, 2, 2) == 9
    assert zippel_bound(5, 2, 3) == 27
    assert demillo_lipton_bound(5, 2, 2) == 9
    assert demillo_lipton_bound(7, 3, 2) == 16
    # both count forms agree for n = 1
    assert zippel_bound(9, 4, 1) == demillo_lipton_bound(9, 4, 1) == 5


def test_min_products_by_total_small_frozen():
    table = min_products_by_total((2, 2), (5, 5))
    assert table[4] == (4, (2, 2))
    assert table[7] == (10, (2, 5))
    assert table[10] == (25, (5, 5))
    # 6 splits as 2+4 -> 8, 3+3 -> 9; the smaller product wins
    assert table[6] == (8, (2, 4))


def test_min_products_by_total_charges_states_times_choices(monkeypatch):
    # (2, 2)..(5, 5): 1 state x 4 choices, then 4 states x 4 choices
    monkeypatch.setattr(poly, "MAX_WORK", 20)
    assert min_products_by_total((2, 2), (5, 5))[6] == (8, (2, 4))
    monkeypatch.setattr(poly, "MAX_WORK", 19)
    with pytest.raises(SearchBudgetError, match="2 variables needs 20 steps, limit is 19"):
        min_products_by_total((2, 2), (5, 5))
    # malformed ranges are still refused as such, before any charge
    with pytest.raises(ValueError, match="low <= high"):
        min_products_by_total((2, 9), (5, 5))


def test_min_products_by_total_matches_brute_force():
    rng = random.Random(100)
    for _ in range(40):
        n = rng.randrange(1, 4)
        lows = tuple(rng.randrange(1, 4) for _ in range(n))
        highs = tuple(lo + rng.randrange(0, 4) for lo in lows)
        table = min_products_by_total(lows, highs)
        best: dict[int, int] = {}
        for ys in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
            t = sum(ys)
            p = 1
            for y in ys:
                p *= y
            if t not in best or p < best[t]:
                best[t] = p
        assert {t: v for t, (v, _) in table.items()} == best
        for t, (v, ys) in table.items():
            assert sum(ys) == t
            p = 1
            for y in ys:
                p *= y
            assert p == v


def test_gen_alon_furedi_frozen():
    # sizes (8,8), caps (5,2), total 7: y ranges [3,8] x [6,8], target 9
    value, argmin = gen_alon_furedi_bound(AFInstance((8, 8), (5, 2), 7))
    assert (value, argmin) == (18, (3, 6))
    # sizes (5,5), caps (2,2), total 4: y ranges [3,5]^2, target 6 forces (3,3)
    value, argmin = gen_alon_furedi_bound(AFInstance((5, 5), (2, 2), 4))
    assert (value, argmin) == (9, (3, 3))
    # looser caps leave room: [2,5]^2 at target 6 prefers the skewed split
    value, argmin = gen_alon_furedi_bound(AFInstance((5, 5), (3, 3), 4))
    assert (value, argmin) == (8, (2, 4))


def test_af_instance_validation():
    with pytest.raises(ValueError):
        AFInstance((5, 5), (5, 2), 4)  # cap not below size
    with pytest.raises(ValueError):
        AFInstance((5, 5), (2, 2), 5)  # total above sum of caps
    with pytest.raises(ValueError):
        AFInstance((5, 5), (2, 2), -1)


def test_alon_furedi_original_frozen():
    # sizes (5,5), degree 2: distribute 8 over [1,5]^2, fill largest first
    assert alon_furedi_original_bound((5, 5), 2) == 15
    assert alon_furedi_original_bound((5, 5), 0) == 25
    assert alon_furedi_original_bound((5, 5), 8) == 1
    # sizes (4,3,2), degree 3: sum target 6, greedy picks y = (4,1,1)
    assert alon_furedi_original_bound((4, 3, 2), 3) == 4
    with pytest.raises(ValueError):
        alon_furedi_original_bound((5, 5), 9)


def test_alon_furedi_greedy_matches_dp():
    # the greedy fill and the capped dynamic program agree where both apply
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randrange(1, 4)
        sizes = tuple(rng.randrange(2, 7) for _ in range(n))
        total = rng.randrange(0, sum(s - 1 for s in sizes) + 1)
        greedy = alon_furedi_original_bound(sizes, total)
        table = min_products_by_total((1,) * n, sizes)
        assert greedy == table[sum(sizes) - total][0]


def test_additive_existence_bound():
    # 1 + sum of (s_i - d_i - 1)
    assert additive_existence_bound((5, 5), (2, 0)) == 7
    assert additive_existence_bound((5, 5), (2, 2)) == 5
    assert additive_existence_bound((3, 3), (2, 2)) == 1


def test_erdos_density_bound():
    # (3n)^n / s^(1/l^(n-1)) with an exact value when the root is integral
    assert erdos_density_bound(1, 3, 5) == Fraction(3, 5)
    assert erdos_density_bound(2, 2, 16) == Fraction(36, 4)
    approx = erdos_density_bound(2, 2, 17)
    assert isinstance(approx, float)
    assert 36 / 4.2 < approx < 36 / 4.0
    # exact roots on either side of L = l^(n-1) against the size's bit length
    assert erdos_density_bound(2, 3, 8) == erdos_density_bound(2, 4, 16) == Fraction(36, 2)
    assert erdos_density_bound(2, 5, 1) == Fraction(36)
    assert erdos_density_bound(2, 5, 31) == 36 / 31 ** (1 / 5)


def test_erdos_density_bound_tries_no_power_past_the_size():
    # L = 61^5: the bound once computed 2^L, seconds and hundreds of MB
    argv = ["bounds", "--poly", "x1^60*x2*x3*x4*x5*x6", "--grid", "0..60;0..1;0..1;0..1;0..1;0..1"]
    proc = subprocess.run([sys.executable, "-m", "nullgrid", *argv], capture_output=True, text=True,
                          timeout=3, env=dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).resolve().parents[1])))
    assert proc.returncode == 0, proc.stderr
    [value] = [b["value"] for b in json.loads(proc.stdout)["bounds"] if b["name"] == "erdos-density"]
    assert value == erdos_density_bound(6, 61, 2) == 18 ** 6 / 2 ** (1 / 61 ** 5)


def test_kst_exponent():
    assert kst_exponent(2, 2) == Fraction(5, 3)
    assert kst_exponent(1, 5) == Fraction(3, 2)
    assert kst_exponent(3, 3) == Fraction(7, 4)


def test_collect_bounds_ellipse_names():
    f = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z)
    grid = GridSpec(Z, [range(5), range(5)])
    reports = collect_bounds(f, grid)
    names = {r.name for r in reports}
    assert names == {
        "existence", "additive-existence", "product-if-maximal",
        "erdos-density", "kst-exponent", "product", "schwartz-additive",
        "gen-alon-furedi", "schwartz-zippel", "schwartz-zippel-probability",
        "demillo-lipton", "zippel", "alon-furedi",
    }
    by_name = {}
    for r in reports:
        by_name.setdefault(r.name, r)
    assert by_name["gen-alon-furedi"].value == 15
    assert by_name["schwartz-zippel"].value == 15
    assert by_name["schwartz-zippel-probability"].value == Fraction(2, 5)
    assert by_name["alon-furedi"].requires_nonzero_on_grid
    assert not by_name["product-if-maximal"].guaranteed
    assert by_name["erdos-density"].asymptotic


def test_collect_bounds_skips_oversized_witnesses():
    f = parse_poly("x^7*y^2 + x^5*y^6 + x^2*y^4", ["x", "y"], Z)
    grid = GridSpec(Z, [range(6), range(6)])
    # no monomial fits inside a 6x6 grid except via total-degree routes;
    # partial degrees (7,6) cannot hold either
    for r in collect_bounds(f, grid):
        assert r.witness_d is None or all(s > di for s, di in zip(grid.sizes, r.witness_d))


def test_collect_bounds_guaranteed_flags():
    f = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z)
    grid = GridSpec(Z, [range(5), range(5)])
    for r in collect_bounds(f, grid):
        if r.name in ("product-if-maximal", "erdos-density", "kst-exponent"):
            assert not r.guaranteed
        else:
            assert r.guaranteed, r.name


def test_collect_bounds_zero_poly():
    from nullgrid.poly import Polynomial

    grid = GridSpec(Z, [range(3), range(3)])
    assert collect_bounds(Polynomial.zero(2, Z), grid) == []


def test_bound_records_keep_the_frozen_dataclass_contract():
    # the ellipse catalogue has int, Fraction and float values, orders,
    # seeds and an argmin; its checks nest a report with a Fraction value
    f = parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z)
    grid = GridSpec(Z, [range(5), range(5)])
    reports = collect_bounds(f, grid)
    assert {type(r.value) for r in reports} == {int, Fraction, float}
    for r in reports:
        assert_same_record(r)
    report = verify_bounds(f, grid)
    assert any(isinstance(c.report.value, Fraction) for c in report.checks)
    for c in report.checks:
        assert isinstance(c, BoundCheck)
        assert_same_record(c)
    references = tuple(as_reference(c) for c in report.checks)
    assert jsonable(report) == reference_jsonable(report._replace(checks=references))


def _reference_collect_bounds(f, grid):
    """collect_bounds as written before it read the witness tuples: a loop
    over the HypothesisReports of classify, with one (name, d, e) key set
    probed before every entry."""
    if f.is_zero:
        return []
    sizes, n = grid.sizes, grid.arity
    partial, total = f.degrees()
    out, seen = [], set()

    def fresh(name, d, e=None):
        key = (name, d, e)
        if key in seen:
            return False
        seen.add(key)
        return True

    for rep in classify(f):
        d, e, order = rep.witness_d, rep.witness_e, rep.order
        if not all(s > di for s, di in zip(sizes, d)):
            continue
        product, additive = product_bound(sizes, d), additive_existence_bound(sizes, d)
        if rep.condition == analysis.MAXIMAL_MONOMIAL:
            if fresh("existence", d):
                out.append(BoundReport("existence", 1, f"maximal monomial {d} and every |S_i| > d_i", d))
            if fresh("additive-existence", d):
                out.append(BoundReport("additive-existence", additive,
                                       f"maximal monomial {d}; shrink-and-translate argument", d))
            if fresh("product-if-maximal", d):
                out.append(BoundReport("product-if-maximal", product,
                                       f"DIAGNOSTIC: maximality of {d} alone does not imply the product bound", d,
                                       guaranteed=False))
            if max(d) >= 1 and fresh("erdos-density", d):
                l = max(d) + 1
                out.append(BoundReport("erdos-density", erdos_density_bound(n, l, min(sizes)),
                                       f"asymptotic zero-density threshold, l = 1 + max d_i = {l}", d,
                                       kind="density", guaranteed=False, asymptotic=True))
            if n == 2 and fresh("kst-exponent", d):
                out.append(BoundReport("kst-exponent", kst_exponent(d[0], d[1]),
                                       f"asymptotic zero-set exponent for maximal monomial {d}", d,
                                       kind="exponent", guaranteed=False, asymptotic=True))
        elif rep.condition == analysis.LEX_LARGEST:
            if fresh("product", d):
                out.append(BoundReport("product", product,
                                       f"lex-largest monomial {d} under order {order}", d, order=order))
            if fresh("schwartz-additive", d):
                out.append(BoundReport("schwartz-additive", schwartz_additive_bound(sizes, d),
                                       f"lex-largest monomial {d} under order {order}", d, order=order))
        elif rep.condition == analysis.SUCCESSIVELY_LARGEST:
            if fresh("product", d, e):
                out.append(BoundReport("product", product,
                                       f"successively largest sequence {d} for seed {e} under order {order}",
                                       d, witness_e=e, order=order))
        elif rep.condition == analysis.D_LEADING:
            if fresh("existence", d, e):
                out.append(BoundReport("existence", 1, f"{e} is {d}-leading and every |S_i| > d_i", d,
                                       witness_e=e))
            if fresh("additive-existence", d, e):
                out.append(BoundReport("additive-existence", additive,
                                       f"{e} is {d}-leading; shrink-and-translate argument", d, witness_e=e))
        elif rep.condition == analysis.PARTIAL_DEGREES:
            if fresh("product", d):
                out.append(BoundReport("product", product, f"exact partial degrees {d}", d))
            if fresh("schwartz-additive", d):
                out.append(BoundReport("schwartz-additive", schwartz_additive_bound(sizes, d),
                                       f"exact partial degrees {d}", d))
            if fresh("gen-alon-furedi", d):
                value, argmin = gen_alon_furedi_bound(AFInstance(sizes, d, total))
                out.append(BoundReport("gen-alon-furedi", value,
                                       f"partial degrees {d} and total degree {total}", d, argmin=argmin))
    if len(set(sizes)) == 1:
        s = sizes[0]
        if s > total:
            out.append(BoundReport("schwartz-zippel", schwartz_zippel_count(s, total, n),
                                   f"total degree {total}, common size {s}", None))
            out.append(BoundReport("schwartz-zippel-probability", sz_probability(total, s),
                                   f"vanishing probability at most d/s with d = {total}, s = {s}", None,
                                   kind="zero-probability"))
            out.append(BoundReport("demillo-lipton", demillo_lipton_bound(s, total, n),
                                   f"total degree {total}, common size {s}", None))
        if s > max(partial):
            out.append(BoundReport("zippel", zippel_bound(s, max(partial), n),
                                   f"per-variable degree at most {max(partial)}, common size {s}", None))
    if 0 <= total <= sum(s - 1 for s in sizes):
        out.append(BoundReport("alon-furedi", alon_furedi_original_bound(sizes, total),
                               f"total degree {total}; assumes f is not identically zero on the grid", None,
                               requires_nonzero_on_grid=True))
    return out


RINGS = (Z, RingSpec.prime_field(5), RingSpec.prime_field(101), RingSpec.integers_mod(6),
         RingSpec.integers_mod(35))


@st.composite
def _cases(draw):
    # exponents 0..3 repeat per variable, so seeds share prefixes and several
    # orders give one successively-largest (d, e); sets of 1..4 elements leave
    # some witness d too large for the grid
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 5))
    top = draw(st.integers(0, 3))
    support = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=12, unique=True))
    coeffs = draw(st.lists(st.integers(1, 10**6), min_size=len(support), max_size=len(support)))
    f = Polynomial(n, ring, dict(zip(support, coeffs)))
    universe = range(-5, 6) if ring.modulus is None else range(ring.modulus)
    sizes = st.integers(1, min(4, len(universe)))
    sets = [draw(st.lists(st.sampled_from(universe), min_size=k, max_size=k, unique=True))
            for k in (draw(sizes) for _ in range(n))]
    return f, GridSpec(ring, sets)


def _holds_against_the_reference(f, grid):
    assert collect_bounds(f, grid) == _reference_collect_bounds(f, grid)
    if not f.is_zero:
        assert classify(f) == [HypothesisReport(condition, True, d, e, order)
                               for condition, d, e, order in analysis._witnesses(f)]


@settings(max_examples=300, deadline=None)
@given(_cases())
@example((parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z), GridSpec(Z, [range(5), range(5)])))
@example((parse_poly("x^7*y^2 + x^5*y^6 + x^2*y^4", ["x", "y"], Z), GridSpec(Z, [range(8), range(6)])))
@example((Polynomial.constant(3, Z, 5), GridSpec(Z, [(0,), (1,), (2,)])))
@example((Polynomial(4, RingSpec.prime_field(101), {(1, 1, 0, 2): 3, (1, 0, 1, 2): 1, (0, 2, 1, 0): 7,
                                                    (1, 1, 1, 1): 2}),
          GridSpec(RingSpec.prime_field(101), [range(3), range(2), range(3), range(3)])))
def test_collect_bounds_matches_the_reference(case):
    _holds_against_the_reference(*case)


def _acceptance_cases():
    """The (polynomial, grid) pairs of acceptance criteria 4 and 7, drawn
    as those criteria draw them."""
    F5, F7, F11, F101 = (RingSpec.prime_field(p) for p in (5, 7, 11, 101))
    rng = random.Random(404)
    for _ in range(1000):
        ring = rng.choice((F5, F7, F101, Z))
        n = rng.randrange(1, 3)
        caps = tuple(rng.randrange(1, 5) for _ in range(n))
        f = random_polynomial(n, caps, rng.uniform(0.2, 0.7), ring, seed=rng.randrange(10**9))
        if ring.kind == "fp" and ring.modulus <= 7 and rng.random() < 0.5:
            sets = [tuple(range(ring.modulus)) for _ in range(n)]
        else:
            universe = range(-9, 10) if ring.kind == "int" else range(ring.modulus)
            size = rng.randrange(1, min(9, len(universe) + 1))
            sets = [tuple(rng.sample(universe, size)) for _ in range(n)]
        yield f, GridSpec(ring, sets)
    rng = random.Random(707)
    for _ in range(100):
        ring = rng.choice((F7, F11))
        f = random_polynomial(2, (rng.randrange(1, 5), rng.randrange(1, 5)), 0.5, ring,
                              seed=rng.randrange(10**9))
        yield f, GridSpec(ring, [tuple(range(ring.modulus))] * 2)


def test_collect_bounds_matches_the_reference_on_acceptance_corpora():
    cases = list(_acceptance_cases())
    assert len(cases) == 1100
    for f, grid in cases:
        _holds_against_the_reference(f, grid)

