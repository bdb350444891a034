"""Randomized polynomial identity testing over expression DAGs.

The test treats both expressions as black boxes: it never expands them,
only evaluates the hash-consed DAG of their difference at random points.
A structural degree bound (variables count 1, products add, powers
multiply) controls the per-trial failure probability d/s, so t independent
trials that all return zero leave a failure probability of at most
(d/s)^t, reported exactly as a fraction.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from typing import NamedTuple

from . import poly
from .errors import InsufficientSampleSpaceError, SearchBudgetError, UnsupportedRingError, charge
from .parser import DagBuilder, ExprDag, fold_dag
from .ring import RingElem


def eval_dag(dag: ExprDag, point) -> RingElem:
    """Evaluate a DAG at a point of ints or elements of its ring, visiting
    each node exactly once.  An element of another ring raises
    RingMismatchError."""
    if len(point) != dag.arity:
        raise ValueError(f"point of length {len(point)} for arity {dag.arity}")
    ring = dag.ring
    values = list(map(ring.coerce, point))
    value = fold_dag(dag, values.__getitem__, lambda c: c,
                     ring.add, ring.sub, ring.mul, ring.neg, ring.pow)
    return RingElem(ring, value)


def degree_upper_bound(dag: ExprDag) -> int:
    """Structural total-degree bound: exact for expanded forms, an upper
    bound in general (cancellation can only lower the true degree)."""
    return fold_dag(dag, lambda i: 1, lambda c: 0, max, max,
                    operator.add, lambda d: d, operator.mul)


def dag_difference(g1: ExprDag, g2: ExprDag) -> ExprDag:
    """The DAG computing g1 - g2, with shared subtrees interned once."""
    builder = DagBuilder(g1.arity, g1.ring)
    r1 = builder.graft(g1)
    r2 = builder.graft(g2)
    return builder.build(builder.sub(r1, r2))


class PitVerdict(NamedTuple):
    """Outcome of a randomized identity test.

    status is "nonzero-witnessed" (with the witnessing point, its value,
    and the 0-based trial index) or "all-zero" (with the exact failure
    bound (d/s)^t).  Identical verdicts for identical seeds: trial i
    evaluates the i-th point drawn from the seeded generator.  A NamedTuple.
    """

    status: str
    trials: int
    degree_bound: int
    samples_per_var: int
    seed: int
    point: tuple[int, ...] | None = None
    value: int | None = None
    trial_index: int | None = None
    failure_bound: Fraction | None = None


def identity_test(g1: ExprDag, g2: ExprDag, *, samples_per_var: int,
                  trials: int = 20, seed: int = 0) -> PitVerdict:
    """Test g1 == g2 as polynomials by evaluating g1 - g2 at ``trials``
    uniform points of {0, ..., s-1}^n over a prime field.

    Requires s strictly above the structural degree bound of the
    difference; otherwise the d/s guarantee is vacuous and the test
    refuses to run.  A nonzero value is a proof of difference; all zeros
    leaves failure probability at most (d/s)^trials, exact.  Trials times
    the nodes of the difference DAG are charged against ``poly.MAX_WORK``
    before any point is drawn, and past it SearchBudgetError is raised.
    """
    if g1.ring != g2.ring or g1.arity != g2.arity:
        raise ValueError("identity test needs DAGs over one ring and arity")
    ring = g1.ring
    if not ring.is_field:
        raise UnsupportedRingError("identity testing needs a prime field")
    s = samples_per_var
    if not 1 <= s <= ring.modulus:
        raise ValueError(f"samples per variable must be in [1, {ring.modulus}], got {s}")
    if trials < 1:
        raise ValueError("need at least one trial")
    diff = dag_difference(g1, g2)
    d = degree_upper_bound(diff)
    if d >= s:
        raise InsufficientSampleSpaceError(
            f"degree bound {d} needs more than {s} samples per variable")

    charge(trials * len(diff), poly.MAX_WORK, SearchBudgetError,
           "{} trials of a {}-node DAG need {work} node evaluations, limit is {limit}", trials, len(diff))
    rng = random.Random(seed)
    for i in range(trials):
        pt = tuple(rng.randrange(s) for _ in range(diff.arity))
        v = eval_dag(diff, pt)
        if v.value:
            return PitVerdict("nonzero-witnessed", trials, d, s, seed,
                              point=pt, value=v.value, trial_index=i)
    bound = Fraction(d, s) ** trials
    return PitVerdict("all-zero", trials, d, s, seed, failure_bound=bound)
