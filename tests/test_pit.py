import random
from fractions import Fraction

import pytest

from nullgrid import poly
from nullgrid.errors import (
    InsufficientSampleSpaceError,
    RingMismatchError,
    SearchBudgetError,
    UnsupportedRingError,
)
from nullgrid.oracle import count_nonzeros, random_polynomial
from nullgrid.parser import DagBuilder, expand_dag, parse_dag
from nullgrid.pit import dag_difference, degree_upper_bound, eval_dag, identity_test
from nullgrid.poly import GridSpec
from nullgrid.ring import RingSpec

F101 = RingSpec.prime_field(101)
Z = RingSpec.integers()


def test_eval_dag_checks_the_ring_of_each_coordinate():
    f7, f13 = RingSpec.prime_field(7), RingSpec.prime_field(13)
    dag = parse_dag("x*y+1", ["x", "y"], f7)
    # plain ints are canonicalized, and elements of the DAG's ring unwrapped
    assert eval_dag(dag, (-4, 8)) == eval_dag(dag, (f7.element(3), 1)) == f7.element(4)
    with pytest.raises(RingMismatchError, match="value from fp:13 used in fp:7"):
        eval_dag(dag, (f13.element(10), 1))


def test_eval_dag_matches_expansion():
    rng = random.Random(31)
    texts = (
        "(x + 2*y)^3 - (x - y)*(x + y) + 4",
        "-(x*y - 3)^2 + x^4",
        "((x + 1)^2 + (y + 1)^2)^2",
    )
    for text in texts:
        dag = parse_dag(text, ["x", "y"], F101)
        f = expand_dag(dag)
        for _ in range(25):
            pt = (rng.randrange(101), rng.randrange(101))
            assert eval_dag(dag, pt).value == f.evaluate(pt).value


def test_degree_upper_bound():
    cases = (
        ("x", 1),
        ("7", 0),
        ("x*y", 2),
        ("(x + y)^3", 3),
        ("(x + y)^3*x", 4),
        ("x^2 - y^2", 2),
        ("-(x^5)", 5),
        ("(x^2 + 1)^10", 20),
    )
    for text, want in cases:
        dag = parse_dag(text, ["x", "y"], F101)
        assert degree_upper_bound(dag) == want


def test_degree_bound_is_structural():
    # cancellation is invisible to the bound: x^2 - x^2 still reports 2
    dag = parse_dag("x^2 - x^2", ["x"], F101)
    assert degree_upper_bound(dag) == 2
    assert expand_dag(dag).is_zero


def test_identity_accepts_equal():
    g1 = parse_dag("(x + y)^2", ["x", "y"], F101)
    g2 = parse_dag("x^2 + 2*x*y + y^2", ["x", "y"], F101)
    v = identity_test(g1, g2, samples_per_var=50, trials=20, seed=0)
    assert v.status == "all-zero"
    assert v.failure_bound == Fraction(2, 50) ** 20
    assert v.degree_bound == 2


def test_identity_failure_bound_frozen():
    g1 = parse_dag("(x + y)^19", ["x", "y"], F101)
    g2 = parse_dag("(y + x)^19", ["x", "y"], F101)
    v = identity_test(g1, g2, samples_per_var=100, trials=7, seed=1)
    assert v.status == "all-zero"
    assert v.failure_bound == Fraction(19, 100) ** 7


def test_identity_rejects_different():
    g1 = parse_dag("x^2 - y^2", ["x", "y"], F101)
    g2 = parse_dag("(x + y)*(x - y - 1)", ["x", "y"], F101)
    v = identity_test(g1, g2, samples_per_var=50, trials=20, seed=0)
    assert v.status == "nonzero-witnessed"
    assert v.failure_bound is None
    # the reported point really separates the expressions
    assert eval_dag(g1, v.point).value != eval_dag(g2, v.point).value
    diff = expand_dag(dag_difference(g1, g2))
    assert diff.evaluate(v.point).value == v.value != 0


def test_identity_deterministic_under_seed():
    g1 = parse_dag("x*y + 3", ["x", "y"], F101)
    g2 = parse_dag("x*y + 4", ["x", "y"], F101)
    a = identity_test(g1, g2, samples_per_var=30, trials=5, seed=12)
    b = identity_test(g1, g2, samples_per_var=30, trials=5, seed=12)
    assert a == b


def test_identity_requires_headroom():
    g1 = parse_dag("x^10", ["x"], F101)
    g2 = parse_dag("x^9", ["x"], F101)
    with pytest.raises(InsufficientSampleSpaceError):
        identity_test(g1, g2, samples_per_var=10, trials=5)
    identity_test(g1, g2, samples_per_var=11, trials=5)


def test_identity_test_charges_trials_times_nodes(monkeypatch):
    g1 = parse_dag("(x+y)^3", ["x", "y"], F101)
    g2 = parse_dag("(y+x)^3", ["x", "y"], F101)
    nodes = len(dag_difference(g1, g2))
    monkeypatch.setattr(poly, "MAX_WORK", 5 * nodes)
    assert identity_test(g1, g2, samples_per_var=100, trials=5).status == "all-zero"
    with pytest.raises(SearchBudgetError, match=f"6 trials of a {nodes}-node DAG need {6 * nodes} node"):
        identity_test(g1, g2, samples_per_var=100, trials=6)


def test_identity_requires_field_and_matching_shape():
    gz = parse_dag("x + 1", ["x"], Z)
    with pytest.raises(UnsupportedRingError):
        identity_test(gz, gz, samples_per_var=5)
    g1 = parse_dag("x", ["x"], F101)
    g2 = parse_dag("x + y", ["x", "y"], F101)
    with pytest.raises(ValueError):
        identity_test(g1, g2, samples_per_var=5)
    with pytest.raises(ValueError):
        identity_test(g1, g1, samples_per_var=102)


def test_zero_fraction_respects_sz_ratio():
    # empirical zero fraction of a nonzero difference stays at or below
    # d/s on the sample box, checked exhaustively via the oracle
    rng = random.Random(33)
    checked = 0
    for _ in range(30):
        f = random_polynomial(2, (3, 3), 0.5, F101, seed=rng.randrange(10**9))
        g = random_polynomial(2, (3, 3), 0.5, F101, seed=rng.randrange(10**9))
        if f == g:
            continue
        diff = f - g
        s = 30
        grid = GridSpec(F101, [range(s), range(s)])
        count = count_nonzeros(diff, grid, collect_zeros=False)
        d = diff.degrees()[1]
        assert count.zeros * s <= d * s * s  # zeros/s^2 <= d/s
        checked += 1
    assert checked >= 25


def test_dag_difference_structure():
    b = DagBuilder(1, F101)
    x = b.var(0)
    g1 = b.build(b.mul(x, x))
    g2 = b.build(b.pow(x, 2))
    diff = expand_dag(dag_difference(g1, g2))
    assert diff.is_zero
