import random

import pytest

from nullgrid.errors import SearchBudgetError
from nullgrid.oracle import count_nonzeros
from nullgrid.parser import parse_poly
from nullgrid.poly import GridSpec
from nullgrid.puzzle import (
    AgreementPattern,
    PuzzleInstance,
    agreement_count,
    exhaustive_search,
    k22_check,
    local_search,
    zarankiewicz_k22_bound,
)
from nullgrid.ring import RingSpec

Z = RingSpec.integers()


def test_instance_tables():
    inst = PuzzleInstance((1, 2), (1, 2), (0, 1), (1, 3))
    assert inst.s == 2
    assert inst.multiplication_table() == [[1, 2], [2, 4]]
    assert inst.addition_table() == [[1, 3], [2, 4]]


def test_instance_validation():
    with pytest.raises(ValueError):
        PuzzleInstance((1, 1), (1, 2), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        PuzzleInstance((1, 2), (2, 2), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        PuzzleInstance((1, 2), (1, 2), (0,), (0, 0))
    # u and v may repeat freely
    PuzzleInstance((1, 2), (1, 2), (0, 0), (0, 0))


def test_agreement_count_hand_case():
    inst = PuzzleInstance((1, 2), (1, 2), (0, 1), (1, 3))
    pattern = agreement_count(inst)
    assert pattern.count == 3
    assert pattern.cells == {(0, 0), (1, 0), (1, 1)}


def test_six_agreements_at_s3():
    # off-diagonal agreement: with a = b = (0,1,2) the compatibility
    # condition b_1 - 2 b_2 + b_3 = 0 holds, leaving all six cells i != j
    inst = PuzzleInstance((0, 1, 2), (0, 1, 2), (0, 2, 2), (-2, 0, 0))
    pattern = agreement_count(inst)
    assert pattern.count == 6 == zarankiewicz_k22_bound(3)
    assert pattern.cells == {(i, j) for i in range(3) for j in range(3) if i != j}
    assert k22_check(pattern)


def test_zarankiewicz_bound_frozen():
    assert [zarankiewicz_k22_bound(s) for s in (1, 2, 3, 4, 5)] == [1, 3, 6, 9, 12]


def test_k22_check():
    assert k22_check(AgreementPattern(frozenset({(0, 0), (0, 1), (1, 0)}), 3))
    assert not k22_check(AgreementPattern(frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}), 4))


def test_agreement_patterns_always_k22_free():
    # a full 2x2 agreement block would force equal keys, which the
    # instance constructor forbids; random instances confirm it
    rng = random.Random(41)
    for _ in range(300):
        a = tuple(rng.sample(range(-9, 10), 3))
        b = tuple(rng.sample(range(-9, 10), 3))
        u = tuple(rng.randint(-9, 9) for _ in range(3))
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        assert k22_check(agreement_count(PuzzleInstance(a, b, u, v)))


def test_from_polynomial_matches_zero_count():
    # agreements of the tables are the grid zeros of P(x) + Q(y) - x*y
    a = (0, 1, 3)
    b = (-1, 2, 4)
    p_at_a = tuple(x * x for x in a)
    q_at_b = tuple(2 * y + 1 for y in b)
    # cell (i, j) agrees iff a_i b_j = P(a_i) + Q(b_j), so u = P(a), v = Q(b)
    pattern = agreement_count(PuzzleInstance(a, b, p_at_a, q_at_b))
    f = parse_poly("x^2 + 2*y + 1 - x*y", ["x", "y"], Z)
    grid = GridSpec(Z, [a, b])
    count = count_nonzeros(f, grid)
    assert pattern.count == count.zeros
    assert {(a.index(x), b.index(y)) for x, y in count.zero_set} == pattern.cells


def test_exhaustive_search_s1():
    res = exhaustive_search(1, 2)
    assert res.pattern.count == 1 == zarankiewicz_k22_bound(1)


def test_exhaustive_search_s2_frozen():
    res = exhaustive_search(2, 3)
    assert res.pattern.count == 3 == zarankiewicz_k22_bound(2)
    assert k22_check(res.pattern)
    assert res.examined == 3087
    # deterministic: canonical enumeration returns the same instance
    again = exhaustive_search(2, 3)
    assert again.instance == res.instance


def test_exhaustive_search_budget():
    with pytest.raises(SearchBudgetError):
        exhaustive_search(3, 10, budget=1000)


def test_local_search_reaches_cap_s3():
    res = local_search(3, budget=100_000, seed=0)
    assert res.pattern.count == 6
    assert k22_check(res.pattern)
    # the pattern is re-verified from the instance, not trusted from the walk
    assert agreement_count(res.instance).count == 6


def test_local_search_deterministic():
    a = local_search(3, budget=20_000, seed=5)
    b = local_search(3, budget=20_000, seed=5)
    assert a.instance == b.instance
    assert a.history == b.history


def test_local_search_history_monotone():
    res = local_search(3, budget=50_000, seed=2)
    bests = [h[2] for h in res.history]
    assert bests == sorted(bests)
    assert bests[-1] == res.pattern.count


def test_local_search_validation():
    with pytest.raises(ValueError):
        local_search(0)
    with pytest.raises(ValueError):
        local_search(10, value_range=3)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        local_search(2, budget=-5)
    assert local_search(2, budget=0).steps == 0
