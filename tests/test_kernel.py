"""The numpy grid kernel against the pure-Python reference evaluator.

Counts, zero sets (in odometer order) and grid values must match the
reference exactly on every ring, including the inputs where the kernel
hands over to the reference.
"""

import gc
import logging
import os
import random
import subprocess
import sys
import time
from math import gcd, isqrt, prod
from operator import mul
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nullgrid
from nullgrid import oracle
from nullgrid.errors import GridTooLargeError, debug
from nullgrid.oracle import _power_table, _reference_values, _word_primes, count_nonzeros, min_nonzero_search
from nullgrid.parser import MAX_EXPONENT
from nullgrid.poly import GridSpec, Polynomial, words
from nullgrid.ring import RingSpec
from nullgrid.transform import grid_values

pytestmark = pytest.mark.usefixtures("numpy_counted_as_loaded")

Z = RingSpec.integers()
# Z_m with its smallest prime factor: up to that many consecutive
# multiples of a unit have pairwise unit differences
ZMODS = ((12, 2), (35, 5), (64, 2), (9, 3), (77, 7))


def _reference(f, grid):
    values = list(_reference_values(f.terms, grid.sets, f.ring.modulus))
    return sum(map(bool, values)), tuple(pt for pt, v in zip(grid.points(), values) if not v)


def _assert_matches_reference(f, grid):
    count = count_nonzeros(f, grid)
    assert (count.nonzeros, count.zero_set) == _reference(f, grid)
    assert all(isinstance(v, int) for pt in count.zero_set for v in pt)
    values = grid_values(f, grid)
    assert list(values) == list(grid.points())
    assert values == {pt: f.eval_raw(pt) for pt in grid.points()}


@st.composite
def ring_and_grid(draw):
    kind = draw(st.sampled_from(["fp", "int", "zmod"]))
    arity = draw(st.integers(1, 3))
    if kind == "fp":
        ring = RingSpec.prime_field(draw(st.sampled_from([2, 5, 101, 10007])))
        sets = [draw(st.lists(st.integers(0, ring.modulus - 1), min_size=1,
                              max_size=min(ring.modulus, 5), unique=True)) for _ in range(arity)]
    elif kind == "int":
        ring = Z
        sets = [draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True)
                     | st.just([0])) for _ in range(arity)]
    else:
        m, smallest = draw(st.sampled_from(ZMODS))
        ring = RingSpec.integers_mod(m)
        sets = []
        for _ in range(arity):
            start = draw(st.integers(0, m - 1))
            step = draw(st.integers(1, m - 1).filter(lambda s: gcd(s, m) == 1))
            size = draw(st.integers(1, smallest))
            sets.append(draw(st.permutations([(start + k * step) % m for k in range(size)])))
    return ring, GridSpec(ring, sets)


@st.composite
def poly_on_grid(draw):
    ring, grid = draw(ring_and_grid())
    coeffs = st.integers(-10**6, 10**6) | st.integers(-10**40, 10**40)
    exps = st.tuples(*[st.integers(0, 4) for _ in range(grid.arity)])
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    return Polynomial(grid.arity, ring, terms), grid


@settings(max_examples=300, deadline=None)
@given(poly_on_grid(), st.sampled_from([oracle._CELL_BUDGET, 64, 512]))
def test_kernel_matches_reference(case, budget):
    f, grid = case
    # small cell budgets force several S_1 slices, or the tensor-budget fallback
    with mock.patch.object(oracle, "_CELL_BUDGET", budget):
        _assert_matches_reference(f, grid)


# the last two are the largest word primes for one and for 64 distinct
# exponents, at the edge of the guard (q - 1)^2 * |E| < 2^63
TABLE_MODULI = (2, 3, 101, 10007, _word_primes(1)[0], _word_primes(64)[0])


@settings(max_examples=200, deadline=None)
@given(s=st.lists(st.integers(-50, 50) | st.integers(-10**40, 10**40), min_size=1, max_size=8,
                  unique=True),
       exps=st.sets(st.integers(0, 12) | st.sampled_from([0, MAX_EXPONENT, 2**64 + 3])
                    | st.integers(0, MAX_EXPONENT), min_size=1, max_size=6),
       moduli=st.lists(st.sampled_from(TABLE_MODULI), min_size=1, max_size=3))
def test_power_table_matches_pow(s, exps, moduli):
    exps = sorted(exps)
    table = _power_table(tuple(s), exps, moduli)
    assert table.dtype == np.int64
    assert table.tolist() == [[[pow(a, e, q) for e in exps] for a in s] for q in moduli]


def test_power_table_edges():
    q = _word_primes(64)[0]
    s = (0, 1, -1, q - 1, q, -q - 1, 2**200 + 5, -(3**150))
    exps = [0, 1, 2, 63, MAX_EXPONENT - 1, MAX_EXPONENT]
    for moduli in ([q], [2, 3, q], [_word_primes(1)[0]]):
        assert _power_table(s, exps, moduli).tolist() == \
            [[[pow(a, e, m) for e in exps] for a in s] for m in moduli]


def _traced_kernel(monkeypatch):
    """Record the prime count of every pass the kernel contracts, one list
    per S_1 slice, and the cells of every power table and of every operand
    and result of its matrix products."""
    seen = {"passes": [], "cells": []}
    chunks, table, matmul = oracle._kernel_chunks, oracle._power_table, np.matmul

    def traced_passes(passes, record):
        for r in passes:
            record.append(len(r))
            yield r

    def traced_chunks(*args):
        for start, stop, passes in chunks(*args):
            seen["passes"].append([])
            yield start, stop, traced_passes(passes, seen["passes"][-1])

    def traced_table(*args):
        out = table(*args)
        seen["cells"].append(out.size)
        return out

    def traced_matmul(a, b, *rest, **kwargs):
        out = matmul(a, b, *rest, **kwargs)
        seen["cells"].extend((a.size, b.size, out.size))
        return out

    monkeypatch.setattr(oracle, "_kernel_chunks", traced_chunks)
    monkeypatch.setattr(oracle, "_power_table", traced_table)
    monkeypatch.setattr(np, "matmul", traced_matmul)
    return seen


def _points_of(f, grid):
    return {pt: f.eval_raw(pt) for pt in grid.points()}


BIG = 10**60 + 7
BATCHED = [
    # (f, grid, budget, primes in each pass of a slice of the values, slices,
    #  primes in each pass of each slice of the count): the first prime runs
    # alone, and the count reads the others only for a slice with a zero
    # 8 primes, 2 per batch (a power table of 8 x 4 cells each), 6 of the 8 S_1 rows per slice;
    # the one zero, (0, 0), is in the first slice
    (Polynomial(2, Z, {(3, 3): BIG, (0, 2): -BIG, (1, 0): 3, (2, 1): -(10**59)}),
     GridSpec(Z, [range(-4, 4), (-4, -1, 0, 2, 9)]), 64, [1, 1, 2, 2, 2], 2, [[1, 1, 2, 2, 2], [1]]),
    # arity 1: 7 primes, 3 per batch (a power table of 20 x 4 cells each), one slice, no zero
    (Polynomial(1, Z, {(3,): BIG, (2,): -BIG, (1,): 5, (0,): -(10**58)}),
     GridSpec(Z, [range(-10, 10)]), 256, [1, 2, 3, 1], 1, [[1]]),
    # arity 3: 7 primes, 3 per batch, one S_1 row per slice (9 cells per prime after S_2);
    # the zeros are the three points (0, y, 0), in the fourth slice
    (Polynomial(3, Z, {(1, 2, 1): BIG, (0, 0, 2): -BIG, (1, 0, 0): 1}),
     GridSpec(Z, [range(-3, 3), (-1, 2, 5), (0, 4)]), 40, [1, 2, 3, 1], 6,
     [[1], [1], [1], [1, 2, 3, 1], [1], [1]]),
    # H = 0: no prime, so no pass
    (Polynomial(2, Z, {(1, 0): BIG, (2, 3): -7}), GridSpec(Z, [(0,), range(-5, 5)]), 16, [], 1, [[]]),
]


@pytest.mark.parametrize("f,grid,budget,passes,slices,counted", BATCHED,
                         ids=["arity-2", "arity-1", "arity-3", "height-zero"])
def test_batched_contraction_under_a_small_budget(monkeypatch, f, grid, budget, passes, slices, counted):
    monkeypatch.setattr(oracle, "_CELL_BUDGET", budget)
    expected = _points_of(f, grid)
    seen = _traced_kernel(monkeypatch)
    # Garner rebuilds each value from its residues on every prime; with
    # no prime, every value is 0 without a pass of the kernel
    assert grid_values(f, grid) == expected
    assert seen["passes"] == ([passes] * slices if passes else [])
    seen["passes"].clear()
    count = count_nonzeros(f, grid)
    assert count.zero_set == tuple(pt for pt, v in expected.items() if v == 0)
    assert count.nonzeros == sum(1 for v in expected.values() if v)
    assert seen["passes"] == counted
    assert max(seen["cells"], default=0) <= budget


@st.composite
def integer_poly_on_grid(draw):
    """A Z polynomial on a small grid: random terms, a tightness product
    (a dense zero set) or a multiple of the first prime of its plan, whose
    every value vanishes modulo that prime, so every point stays a zero
    candidate after the first pass and only a later prime clears it."""
    arity = draw(st.integers(1, 3))
    grid = GridSpec(Z, [draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True)
                             | st.just([0])) for _ in range(arity)])
    kind = draw(st.sampled_from(["terms", "tightness", "multiple"]))
    if kind == "tightness":
        return oracle.tightness_family(grid, tuple(draw(st.integers(0, n)) for n in grid.sizes)), grid
    coeffs = st.integers(-10**6, 10**6) | st.integers(-10**40, 10**40)
    f = Polynomial(arity, Z, draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * arity), coeffs, max_size=8)))
    if kind == "multiple" and f:
        f = f * _word_primes(max(len({key[i] for key in f.terms}) for i in range(arity)))[0]
    return f, grid


Q1 = _word_primes(1)[0]


@settings(max_examples=300, deadline=None)
@given(integer_poly_on_grid(), st.sampled_from([oracle._CELL_BUDGET, 64, 512]), st.booleans())
# H = 0; one prime; false candidates q1 x y^2 at x = 1, 2 beside the zeros at x = 0; a dense zero set
@example((Polynomial(2, Z, {(1, 1): 7, (2, 0): -3}), GridSpec(Z, [(0,), (1, 2)])), 64, True)
@example((Polynomial(1, Z, {(1,): 3, (0,): -6}), GridSpec(Z, [(2, 3, 5)])), oracle._CELL_BUDGET, True)
@example((Polynomial(2, Z, {(1, 2): Q1}), GridSpec(Z, [(0, 1, 2), (-1, 3)])), 64, True)
@example((oracle.tightness_family(GridSpec(Z, [range(-5, 5)] * 3), (4, 6, 2)),
          GridSpec(Z, [range(-5, 5)] * 3)), 512, False)
def test_lazy_count_matches_the_reference(case, budget, collect_zeros):
    f, grid = case
    with mock.patch.object(oracle, "_plan", return_value=None):
        expected = count_nonzeros(f, grid, collect_zeros=collect_zeros)
    with mock.patch.object(oracle, "_CELL_BUDGET", budget):
        assert count_nonzeros(f, grid, collect_zeros=collect_zeros) == expected


def _slices(f, grid):
    return -(-grid.sizes[0] // oracle._plan(f, grid, False)[3])


@pytest.mark.parametrize("budget", [oracle._CELL_BUDGET, 64])
def test_the_count_reads_no_more_passes_than_it_needs(monkeypatch, budget):
    monkeypatch.setattr(oracle, "_CELL_BUDGET", budget)
    grid = GridSpec(Z, [range(-4, 4), (-4, -1, 0, 2, 9)])
    # no zero modulo the first prime: each slice contracts that prime alone
    f = Polynomial(2, Z, {(3, 3): BIG, (0, 2): -BIG, (1, 0): 3, (0, 0): 1})
    seen = _traced_kernel(monkeypatch)
    assert all(v % oracle._plan(f, grid, False)[1][0] for v in _points_of(f, grid).values())
    assert count_nonzeros(f, grid).nonzeros == grid.size()
    assert seen["passes"] == [[1]] * _slices(f, grid)
    # a multiple of the first prime: every value is a zero candidate after
    # it and the second prime clears them, but a slice with a true zero, at
    # x = 0, reads every prime
    xf = Polynomial.variable(2, Z, 0) * f
    g = xf * oracle._plan(xf, grid, False)[1][0]
    seen["passes"].clear()
    count = count_nonzeros(g, grid)
    assert count.zero_set == tuple((0, y) for y in grid.sets[1])
    _, primes, _, rows = oracle._plan(g, grid, False)
    assert len(primes) > 2 and (budget > 64 or rows < 8)
    holds_zero = [start <= 4 < start + rows for start in range(0, 8, rows)]
    assert [sum(p) if zero else len(p) for p, zero in zip(seen["passes"], holds_zero)] == \
        [len(primes) if zero else 2 for zero in holds_zero]


def test_batches_split_before_the_reference_takes_over(monkeypatch, caplog):
    # a 5 x 8 tensor fits a 64-cell budget for one prime but not for two:
    # the primes go one per batch, and the reference never runs
    f = Polynomial(2, Z, {(4, 7): BIG, (0, 0): -BIG, (2, 3): 10**40, (1, 5): -3})
    grid = GridSpec(Z, [range(-6, 6), (-4, -1, 0, 2, 9)])
    expected = _points_of(f, grid)
    monkeypatch.setattr(oracle, "_CELL_BUDGET", 64)
    monkeypatch.setattr(oracle, "_reference_values", mock.Mock(side_effect=AssertionError("reference ran")))
    seen = _traced_kernel(monkeypatch)
    message = _path(caplog, lambda: grid_values(f, grid))
    assert message.startswith("grid evaluation path=kernel reason=none primes=")
    primes = int(message.split("primes=")[1].split()[0])
    assert primes >= 4
    assert grid_values(f, grid) == expected
    assert seen["passes"][0] == [1] * primes
    assert max(seen["cells"]) <= 64
    assert "path=kernel" in _path(caplog, lambda: count_nonzeros(f, grid))
    assert count_nonzeros(f, grid).nonzeros == sum(1 for v in expected.values() if v)


def test_kernel_zero_and_constant_polynomials():
    for ring in (Z, RingSpec.prime_field(7), RingSpec.integers_mod(35)):
        grid = GridSpec(ring, [(0, 1, 3), (2, 4)])
        _assert_matches_reference(Polynomial.zero(2, ring), grid)
        _assert_matches_reference(Polynomial.constant(2, ring, 3), grid)
        _assert_matches_reference(Polynomial.constant(2, ring, -1), grid)


def test_kernel_height_zero(caplog):
    # every term has a positive exponent on a variable whose set is {0}:
    # H = 0, no prime is needed, and every point is a zero
    f = Polynomial(2, Z, {(1, 0): 5, (2, 3): -7})
    grid = GridSpec(Z, [(0,), (-2, 1, 5)])
    with caplog.at_level(logging.DEBUG, logger="nullgrid"):
        count = count_nonzeros(f, grid)
    assert "path=kernel" in caplog.records[-1].getMessage()
    assert "primes=0" in caplog.records[-1].getMessage()
    assert count.nonzeros == 0
    assert count.zero_set == ((0, -2), (0, 1), (0, 5))
    _assert_matches_reference(f, grid)


def test_kernel_needs_every_prime():
    # a multiple of the first three word primes vanishes modulo each of
    # them, so only the fourth residue shows the value is nonzero
    width1 = oracle._word_primes(1)
    for c in (width1[0], prod(width1[:3]), -prod(width1[:3])):
        f = Polynomial(1, Z, {(0,): c})
        _assert_matches_reference(f, GridSpec(Z, [(-1, 0, 1)]))
        g = Polynomial(2, Z, {(1, 0): c, (0, 1): -c})
        _assert_matches_reference(g, GridSpec(Z, [(-1, 0, 2), (0, 2)]))


def test_kernel_negative_integer_elements():
    f = Polynomial(2, Z, {(3, 0): 1, (0, 2): -4, (1, 1): 2, (0, 0): 9})
    grid = GridSpec(Z, [range(-6, 6), range(-5, 4)])
    _assert_matches_reference(f, grid)


def _path(caplog, call):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="nullgrid"):
        call()
    records = [r for r in caplog.records if r.name.startswith("nullgrid")]
    assert len(records) == 1
    return records[0].getMessage()


def test_fallback_large_prime(caplog):
    fp = RingSpec.prime_field(2**61 - 1)
    f = Polynomial(2, fp, {(2, 1): 2**60 + 3, (0, 1): -1, (0, 0): 5})
    grid = GridSpec(fp, [(0, 1, 2**40, 2**61 - 2), (0, 3, 2**59)])
    assert "path=reference reason=overflow guard" in _path(caplog, lambda: count_nonzeros(f, grid))
    assert "path=reference reason=overflow guard" in _path(caplog, lambda: grid_values(f, grid))
    _assert_matches_reference(f, grid)
    # the minimum search scores the same value matrix on the reference path
    small = GridSpec(fp, [(0, 1), (0, 1)])
    result = min_nonzero_search(((1, 0), (0, 1)), (1, 0), small, exhaustive_limit=0, sample_budget=20)
    assert result.min_count == count_nonzeros(result.witness, small).nonzeros


def test_fallback_tensor_budget(caplog):
    # 200 distinct exponents per variable: a 200^3 coefficient tensor
    terms = {}
    for k in range(200):
        terms[(k, 0, 0)] = k + 1
        terms[(0, k, 0)] = 2 * k + 1
        terms[(0, 0, k)] = 3 * k + 1
    ring = RingSpec.prime_field(101)
    f = Polynomial(3, ring, terms)
    grid = GridSpec(ring, [(1, 2), (0, 5), (3, 4)])
    assert "path=reference reason=tensor budget" in _path(caplog, lambda: count_nonzeros(f, grid))
    _assert_matches_reference(f, grid)


def test_tensor_budget_bounds_every_power_table(monkeypatch, caplog):
    # five exponents of y on 100 elements: a 500-cell table for one prime,
    # while the tensor (5 cells) and each intermediate (100) fit 256 cells
    ring = RingSpec.prime_field(101)
    f = Polynomial(2, ring, {(0, 4): 1, (0, 3): -10, (0, 2): 35, (0, 1): -50, (0, 0): 24})
    grid = GridSpec(ring, [range(3), range(100)])
    seen = _traced_kernel(monkeypatch)
    monkeypatch.setattr(oracle, "_CELL_BUDGET", 256)
    assert "path=reference reason=tensor budget" in _path(caplog, lambda: count_nonzeros(f, grid))
    count = count_nonzeros(f, grid)
    assert (count.nonzeros, count.zeros) == (288, 12)
    assert max(seen["cells"], default=0) <= 256
    # with room for the table the kernel runs and builds it
    monkeypatch.setattr(oracle, "_CELL_BUDGET", 512)
    assert "path=kernel" in _path(caplog, lambda: count_nonzeros(f, grid))
    assert count_nonzeros(f, grid) == count
    assert 500 in seen["cells"] and max(seen["cells"]) <= 512


def test_fallback_prime_count(caplog):
    f = Polynomial(2, Z, {(1, 1): 10**400, (0, 0): -(10**400)})
    grid = GridSpec(Z, [(-1, 0, 1, 2), (1, 3)])
    message = _path(caplog, lambda: count_nonzeros(f, grid))
    assert "path=reference reason=prime count" in message
    assert f"primes={oracle._MAX_PRIMES}" in message
    _assert_matches_reference(f, grid)


def test_reference_work_is_charged_before_evaluating(caplog):
    # 4 passes over x and 8 over y, each of 8 steps and, for each of the two
    # exponent suffixes, 8 + 21 * 1 // 4 + 1: the 21-word coefficient
    # times a 1-word power, and that power
    f = Polynomial(2, Z, {(1, 1): 10**400, (0, 0): -(10**400)})
    grid = GridSpec(Z, [(-1, 0, 1, 2), (1, 3)])
    with mock.patch.object(oracle, "_REFERENCE_WORK", 432):
        assert count_nonzeros(f, grid).nonzeros == 7
    with mock.patch.object(oracle, "_REFERENCE_WORK", 431), \
            pytest.raises(GridTooLargeError, match="8 points and 432 steps"):
        count_nonzeros(f, grid)
    # below a word-size modulus a suffix takes 8 + (1 + bits(e)) (8 + 1)
    # whatever the reason: 4 passes of 8 + 35 + 17 + 17, 12 of 8 + 26 + 17
    fp = RingSpec.prime_field(2**61 - 1)
    g = Polynomial(2, fp, {(2, 1): 2**60 + 3, (0, 1): -1, (0, 0): 5})
    big = GridSpec(fp, [(0, 1, 2**40, 2**61 - 2), (0, 3, 2**59)])
    with caplog.at_level(logging.DEBUG, logger="nullgrid"), \
            mock.patch.object(oracle, "_REFERENCE_WORK", 919), \
            pytest.raises(GridTooLargeError, match="12 points and 920 steps"):
        grid_values(g, big)
    assert "path=reference reason=overflow guard" in caplog.records[-1].getMessage()


def test_the_cold_budget_is_charged_in_reference_steps(monkeypatch, caplog):
    # in a process without numpy, a grid runs on the reference while the
    # cold budget has its steps left, and spends them; with one step less
    # the kernel takes it.  4 passes over x and 8 over y, each of 8 steps
    # and, for each of the two exponent suffixes, 8 + 1 for a 1-word power
    f = Polynomial(2, Z, {(1, 1): 7, (0, 0): -1})
    grid = GridSpec(Z, [(-1, 0, 1, 2), (1, 3)])
    assert oracle._reference_steps(f, grid.sizes, [2, 3]) == 312
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(oracle, "_cold_work_left", 312)
    assert "path=reference reason=numpy not loaded" in _path(caplog, lambda: count_nonzeros(f, grid))
    assert oracle._cold_work_left == 0
    monkeypatch.setattr(oracle, "_cold_work_left", 311)
    assert "path=kernel reason=none" in _path(caplog, lambda: oracle._plan(f, grid, False))
    assert oracle._cold_work_left == 311


def _sliced_reference_steps(f, sizes, bounds):
    """oracle._reference_steps as written when it walked the variables from
    the first on, slicing each term's exponent suffix and summing its
    prefix's bits afresh at every variable."""
    m = f.ring.modulus
    w = words(m.bit_length()) if m else 0
    bits = [b.bit_length() for b in bounds]
    steps, passes = 0, 1
    for i, size in enumerate(sizes):
        passes *= size
        cost = {}
        for key, c in f.terms.items():
            if m:
                step = (1 + key[i].bit_length()) * (8 + w * w)
            else:
                u, v = words(abs(c).bit_length() + sum(map(mul, key[:i], bits))), words(key[i] * bits[i])
                step = u * v // 4 + v * (1 + isqrt(v // 2))
            cost[key[i:]] = max(cost.get(key[i:], 0), 8 + step)
        steps += passes * (8 + sum(cost.values()))
    return steps


@st.composite
def _steps_cases(draw):
    """Z, F_101, Z_35 and F_(2^61 - 1); up to 4 variables, exponents up to
    2^70, coefficients up to 3,000 bits, and bounds of 0 to 200 bits."""
    ring = draw(st.sampled_from([Z, RingSpec.prime_field(101), RingSpec.integers_mod(35),
                                 RingSpec.prime_field(2**61 - 1)]))
    n = draw(st.integers(1, 4))
    exponent = st.integers(0, 3) | st.integers(0, 2**70)
    terms = draw(st.dictionaries(st.tuples(*[exponent] * n), st.integers(-2**3000, 2**3000), max_size=8))
    sizes = draw(st.tuples(*[st.integers(1, 6)] * n))
    bounds = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**200), min_size=n, max_size=n))
    return Polynomial(n, ring, terms), sizes, bounds


@settings(max_examples=300, deadline=None)
@given(_steps_cases())
def test_reference_steps_match_the_sliced_formula(case):
    assert oracle._reference_steps(*case) == _sliced_reference_steps(*case)


def test_the_plan_is_linear_in_the_number_of_variables():
    # x1*...*x2827 + 1 on 2,827 singleton sets, the largest such product the
    # expansion admits: its tensor passes the cell budget, so the plan also
    # prices the reference, which once sliced every key per variable (0.63 s);
    # the best of three calls after a collection keeps a pause out of it
    n = 2827
    f = Polynomial(n, Z, {(1,) * n: 1, (0,) * n: 1})
    grid = GridSpec(Z, [(2,)] * n)

    def timed():
        start = time.perf_counter()
        assert oracle._plan(f, grid, False) is None
        return time.perf_counter() - start

    gc.collect()
    assert min(timed() for _ in range(3)) < 0.1
    assert oracle._reference_steps(f, grid.sizes, [2] * n) == _sliced_reference_steps(f, grid.sizes, [2] * n)


def test_integer_grid_values_use_kernel(caplog):
    f = Polynomial(1, Z, {(5,): 3, (0,): -1})
    grid = GridSpec(Z, [(-3, 0, 7)])
    assert "path=kernel reason=none primes=1" in _path(caplog, lambda: grid_values(f, grid))
    assert grid_values(f, grid) == {(-3,): -730, (0,): -1, (7,): 50420}


def test_integer_grid_values_over_several_primes(caplog):
    # coefficients near 10^30 need several word primes; the values have both signs
    f = Polynomial(2, Z, {(3, 1): 10**30 + 7, (0, 2): -(10**30) + 11, (1, 0): -3, (0, 0): 10**29})
    grid = GridSpec(Z, [range(-7, 6), (-4, -1, 0, 2, 9)])
    message = _path(caplog, lambda: grid_values(f, grid))
    assert "path=kernel reason=none" in message
    assert int(message.split("primes=")[1].split()[0]) >= 3
    values = grid_values(f, grid)
    assert values == {pt: f.eval_raw(pt) for pt in grid.points()}
    assert min(values.values()) < -(10**32) and max(values.values()) > 10**32
    # several S_1 slices rebuild the same values
    with mock.patch.object(oracle, "_CELL_BUDGET", 16):
        assert grid_values(f, grid) == values
    # one prime q separates q - 1 from 0 when counting, but values need Q > 2H
    q = oracle._word_primes(1)[0]
    g = Polynomial(1, Z, {(0,): q - 1})
    assert "primes=2" in _path(caplog, lambda: grid_values(g, GridSpec(Z, [(0, 1)])))
    assert grid_values(g, GridSpec(Z, [(0, 1)])) == {(0,): q - 1, (1,): q - 1}


def test_integer_grid_values_at_height_zero(caplog):
    f = Polynomial(2, Z, {(1, 0): 5, (2, 3): -7})
    grid = GridSpec(Z, [(0,), (-2, 1, 5)])
    assert "path=kernel reason=none primes=0" in _path(caplog, lambda: grid_values(f, grid))
    assert grid_values(f, grid) == {(0, -2): 0, (0, 1): 0, (0, 5): 0}
    empty = Polynomial.zero(2, Z)
    assert grid_values(empty, GridSpec(Z, [(1, 2), (3,)])) == {(1, 3): 0, (2, 3): 0}


def test_grid_values_refuse_grids_over_the_value_cap():
    grid = GridSpec(Z, [range(1001), range(1000)])
    with pytest.raises(GridTooLargeError, match="1001000 points"):
        grid_values(Polynomial.constant(2, Z, 1), grid)
    # a grid at the cap is evaluated, one point more is refused
    small = GridSpec(Z, [range(4), range(3)])
    with mock.patch.object(oracle, "DEFAULT_ZERO_SET_CAP", 12):
        assert len(grid_values(Polynomial.constant(2, Z, 1), small)) == 12
    with mock.patch.object(oracle, "DEFAULT_ZERO_SET_CAP", 11), pytest.raises(GridTooLargeError):
        grid_values(Polynomial.constant(2, Z, 1), small)


def test_kernel_chunk_count_logged(caplog):
    ring = RingSpec.prime_field(101)
    f = Polynomial(2, ring, {(1, 1): 1, (0, 0): 4})
    grid = GridSpec(ring, [range(10), range(10)])
    with mock.patch.object(oracle, "_CELL_BUDGET", 30):
        message = _path(caplog, lambda: count_nonzeros(f, grid))
    # 10 cells per S_1 element, 3 elements per slice
    assert message == "grid evaluation path=kernel reason=none primes=0 chunks=4"


def test_logging_is_silent_by_default():
    # no handler anywhere: the last-resort handler drops records below WARNING,
    # even with the root logger let down to DEBUG
    src = str(Path(nullgrid.__file__).resolve().parents[1])
    code = ("import logging; logging.getLogger().setLevel(logging.DEBUG)\n"
            "from nullgrid import oracle, parse_poly, GridSpec, RingSpec\n"
            "F = RingSpec.prime_field(7); f = parse_poly('x*y + 1', ['x', 'y'], F)\n"
            "grid = GridSpec(F, [range(3), range(3)])\n"
            "assert logging.getLogger('nullgrid.oracle').isEnabledFor(logging.DEBUG)\n"
            "oracle.verify_bounds(f, grid, count=oracle.count_nonzeros(f, grid))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_import_does_not_load_numpy():
    src = str(Path(nullgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, nullgrid; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _least(f, bounds):
    """The exponent of a lower bound 2^least on the height over Z, -1 when
    every term is zeroed by a set {0}."""
    lows = [b.bit_length() - 1 for b in bounds]
    return max((abs(c).bit_length() - 1 + sum(map(mul, key, lows)) for key, c in f.terms.items()
                if 0 not in bounds or all(b or not e for b, e in zip(bounds, key))), default=-1)


def _three_pass_plan(f, grid, values):
    """oracle._plan as written when it walked the terms three times over Z:
    once for the reference steps, once for the lower bound 2^least on the
    height and once for the exact height."""
    exps = [sorted({key[i] for key in f.terms}) or [0] for i in range(f.arity)]
    widths = [len(e) for e in exps]
    m = f.ring.modulus
    bounds = [max(abs(a) for a in s) for s in grid.sets]
    sizes = grid.sizes
    points = prod(sizes)
    steps = oracle._reference_steps(f, sizes, bounds)
    moduli = []
    reason = None
    if "numpy" not in sys.modules and steps <= oracle._cold_work_left:
        oracle._cold_work_left -= steps
        reason = "numpy not loaded"
    elif m:
        moduli = [m]
        if (m - 1) ** 2 * max(widths) >= oracle._INT64_LIMIT:
            reason = "overflow guard"
    else:
        primes = _word_primes(max(widths))
        height = prod(primes)
        if _least(f, bounds) < height.bit_length():
            height = (2 if values else 1) * sum(abs(c) * prod(b ** e for b, e in zip(bounds, key))
                                                for key, c in f.terms.items())
        product = 1
        for q in primes:
            if product > height:
                break
            moduli.append(q)
            product *= q
        if product <= height:
            reason = "prime count"
    row = max(prod(sizes[1:i + 1]) * prod(widths[i + 1:]) for i in range(grid.arity))
    tables = [s * w for s, w in zip(sizes, widths)] if moduli else []
    per_prime = max(prod(widths), row, *tables)
    if reason is None and per_prime > oracle._CELL_BUDGET:
        reason = "tensor budget"
    group = max(1, min(len(moduli), oracle._CELL_BUDGET // per_prime))
    rows = min(sizes[0], oracle._CELL_BUDGET // (group * row))
    debug(oracle.__name__, "grid evaluation path=%s reason=%s primes=%d chunks=%d",
          "reference" if reason else "kernel", reason or "none",
          0 if m else len(moduli), 0 if reason else -(-sizes[0] // rows))
    if reason is None:
        return exps, moduli, group, rows
    if steps > oracle._REFERENCE_WORK:
        raise GridTooLargeError(f"reference evaluation needs {points} points and {steps} steps, "
                                f"limit is {oracle._REFERENCE_WORK}")
    return None


def _random_integer_case(rng):
    """A Z polynomial on a small grid: sets of {0}, of negative and of
    80-bit elements, and terms up to 3000-bit coefficients and exponent
    400.  Heights near the product of the 16 word primes (about 2^500) are
    common, so 2^least passes it for some and H is built for others."""
    n = rng.randint(1, 3)
    sets = []
    for _ in range(n):
        if rng.random() < 0.2:
            sets.append([0])
        else:
            top = rng.choice((3, 1000, 2**80))
            sets.append(list({rng.randint(-top, top) for _ in range(rng.randint(1, 4))}))
    top = rng.choice((2, 30, 400))
    terms = {tuple(rng.randint(0, top) for _ in range(n)):
             rng.choice((-1, 1)) * rng.randrange(1, 2 ** rng.choice((4, 64, rng.randint(450, 520), 3000)))
             for _ in range(rng.randint(1, 6))}
    return Polynomial(n, Z, terms), GridSpec(Z, sets)


def test_one_pass_plan_matches_the_three_pass_plan(monkeypatch, caplog):
    rng = random.Random(20)
    cases = [_random_integer_case(rng) for _ in range(400)]
    # least = bits(c) + 4 <= log2 H < bits(c) + 5 log2(3): the product of the
    # 16 primes (496 bits for two exponents) falls in between for a few; and
    # H = 2^least exactly, for 2^bits x^3 on a set of bound 4
    cases += [(Polynomial(1, Z, {(5,): 2**bits, (0,): -1}), GridSpec(Z, [(-3, 2, 3)])) for bits in range(480, 500)]
    cases += [(Polynomial(1, Z, {(3,): 2**bits}), GridSpec(Z, [(-4, 1, 4)])) for bits in range(490, 505)]
    seen = set()
    for f, grid in cases:
        for values in (False, True):
            outcomes = []
            for plan in (oracle._plan, _three_pass_plan):
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="nullgrid"):
                    try:
                        outcome = plan(f, grid, values)
                    except GridTooLargeError as exc:
                        outcome = str(exc)
                outcomes.append((outcome, [r.getMessage() for r in caplog.records]))
            assert outcomes[0] == outcomes[1], (f, grid, values)
        width = max(len({key[i] for key in f.terms}) for i in range(f.arity))
        bounds = [max(map(abs, s)) for s in grid.sets]
        bits = prod(_word_primes(width)).bit_length()
        # H < 2^top: at or under the product's bits, H is built without finding least
        top = (max(map(abs, f.terms.values())).bit_length() + len(f.terms).bit_length()
               + sum(max(key[i] for key in f.terms) * b.bit_length() for i, b in enumerate(bounds)))
        built = _least(f, bounds) < bits
        seen.add((built, top <= bits, outcomes[0][1][0].split("reason=")[1].split(" chunks")[0]))
        if not isinstance(outcomes[0][0], str):
            answers = [(count_nonzeros(f, grid), grid_values(f, grid))]
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_plan", _three_pass_plan)
                answers.append((count_nonzeros(f, grid), grid_values(f, grid)))
            assert answers[0] == answers[1]
    # H = 0 on a set {0}; H built and passed by the primes or not; H never built
    assert {(True, "none primes=0"), (True, "none primes=1"), (True, "prime count primes=16"),
            (False, "prime count primes=16")} <= {(built, reason) for built, _, reason in seen}
    # H built at top <= bits(P), with least never found, and at top > bits(P) from least < bits(P)
    assert {(True, True), (True, False)} <= {(built, short) for built, short, _ in seen}
    assert (False, True) not in {(built, short) for built, short, _ in seen}
