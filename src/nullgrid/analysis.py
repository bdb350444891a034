"""Detection of monomial hypotheses that license nonzero-count conclusions.

For a nonzero sparse polynomial f, several related hypotheses about a
degree vector d (sometimes together with a seed monomial e) are known to
force f to be nonzero somewhere on a grid with |S_i| > d_i, and the
stronger ones force a guaranteed number of nonzeros:

    total-degree          x^d is a monomial of f of largest total degree
    maximal-monomial      x^d is a monomial of f and no other monomial
                          dominates it componentwise
    lex-largest           x^d is the lexicographically largest monomial
                          of f under a variable order
    successively-largest  d_j is the largest exponent of x_j among the
                          monomials agreeing with the seed e on all
                          earlier variables (under a variable order)
    d-leading             e is a monomial of f, e <= d, and no other
                          monomial e' satisfies, for every i, e'_i = e_i
                          or e'_i > d_i
    partial-degrees       d_i is the degree of f in x_i

Each hypothesis carves out a forbidden region of exponent vectors that
must not meet the support of f; ``forbidden_set`` materializes those
regions, and one membership test per region (``_region``) is shared by
the region enumeration and every definitional hypothesis check, so they
cannot drift apart.  ``classify`` rescans nothing: it builds each witness
so that its hypothesis holds by construction, from two sorts of the
support: one graded, and one lex-descending per variable order.
"""

from __future__ import annotations

import itertools
from operator import ge, itemgetter
from typing import NamedTuple

from .errors import ArityMismatchError, ZeroPolynomialError, debug
from .poly import Polynomial

MAXIMAL_MONOMIAL = "maximal-monomial"
LEX_LARGEST = "lex-largest"
SUCCESSIVELY_LARGEST = "successively-largest"
D_LEADING = "d-leading"
PARTIAL_DEGREES = "partial-degrees"
TOTAL_DEGREE = "total-degree"

CONDITIONS = (MAXIMAL_MONOMIAL, LEX_LARGEST, SUCCESSIVELY_LARGEST, D_LEADING, PARTIAL_DEGREES, TOTAL_DEGREE)

MAX_ORDERS_ARITY = 4


class HypothesisReport(NamedTuple):
    """One detected hypothesis: the condition, its witnesses, and whether
    it holds for f (decided by construction in ``classify``, with
    ``hypothesis_holds`` as the definitional check).

    witness_d is the degree vector; witness_e is the seed monomial for the
    seeded conditions; order is the variable order (a permutation of
    variable indices) for the order-sensitive conditions.  A NamedTuple,
    since one is built per witness: 0.4 us each, against 1.0 us for a
    frozen dataclass.
    """

    condition: str
    holds: bool
    witness_d: tuple[int, ...]
    witness_e: tuple[int, ...] | None = None
    order: tuple[int, ...] | None = None


def _require_nonzero(f: Polynomial):
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial admits no monomial hypothesis")


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(ge, a, b))


def _graded(exps: tuple[int, ...]):
    return sum(exps), exps


def maximal_monomials(f: Polynomial) -> set[tuple[int, ...]]:
    """Support elements not strictly dominated by another support element."""
    _require_nonzero(f)
    return set(_skyline(sorted(f.terms, key=_graded, reverse=True)))


def _skyline(graded: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The maximal monomials of a support sorted graded-descending, in
    that order.  A monomial that strictly dominates m has larger total
    degree, so it comes first, and if it is not maximal itself a kept
    maximum dominates it and hence m.  So m is maximal exactly when no
    kept maximum of larger total degree dominates it."""
    kept: list[tuple[int, ...]] = []
    higher, degree = 0, None
    for m in graded:
        if sum(m) != degree:
            higher, degree = len(kept), sum(m)
        if not any(map(_dominates, itertools.islice(kept, higher), itertools.repeat(m))):
            kept.append(m)
    return kept


def lex_largest(f: Polynomial, order: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """The lexicographically largest monomial under a variable order.

    The order is a permutation of variable indices; comparison reads the
    exponents in that order.  Defaults to the identity order.
    """
    _require_nonzero(f)
    order = _check_order(f.arity, order)
    return max(f.terms, key=itemgetter(*order) if order else None)


def successively_largest(f: Polynomial, seed: tuple[int, ...], order: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """The successively largest degree sequence for a seed monomial.

    Following the variable order, d_j is the largest exponent of variable
    j among the monomials of f that agree with the seed on all earlier
    variables.  The result need not itself be a monomial of f, but always
    dominates the seed.
    """
    _require_nonzero(f)
    order = _check_order(f.arity, order)
    seed = tuple(seed)
    if seed not in f.terms:
        raise ValueError(f"seed {seed} is not a monomial of f")
    d = [0] * f.arity
    candidates = list(f.terms)
    for var in order:
        d[var] = max(e[var] for e in candidates)
        candidates = [e for e in candidates if e[var] == seed[var]]
    return tuple(d)


def is_d_leading(f: Polynomial, e: tuple[int, ...], d: tuple[int, ...]) -> bool:
    """Whether the monomial e of f is d-leading: every other monomial e'
    must fail the pattern (e'_i = e_i or e'_i > d_i for all i)."""
    _require_nonzero(f)
    e, d = tuple(e), tuple(d)
    if e not in f.terms:
        raise ValueError(f"e = {e} is not a monomial of f")
    if not _dominates(d, e):
        raise ValueError(f"need e <= d componentwise, got e={e}, d={d}")
    return hypothesis_holds(f, D_LEADING, d, e)


def _check_order(arity: int, order) -> tuple[int, ...]:
    if order is None:
        return tuple(range(arity))
    order = tuple(order)
    if sorted(order) != list(range(arity)):
        raise ValueError(f"order {order} is not a permutation of 0..{arity - 1}")
    return order


def _region(condition: str, d: tuple[int, ...], e: tuple[int, ...] | None,
            order: tuple[int, ...] | None):
    """Membership test of the forbidden region of a condition.

    A hypothesis with witnesses (d, e) holds for f exactly when no
    monomial of f lies in the forbidden region (plus, for most
    conditions, a witness-in-support requirement handled by callers).
    The condition and witnesses are checked here once, so the returned
    test does only the per-vector work.
    """
    if condition in (SUCCESSIVELY_LARGEST, D_LEADING) and e is None:
        raise ValueError(f"{condition} needs the seed e")
    if condition == MAXIMAL_MONOMIAL:
        return lambda v: v != d and _dominates(v, d)
    if condition == PARTIAL_DEGREES:
        return lambda v: any(vi > di for vi, di in zip(v, d))
    if condition == TOTAL_DEGREE:
        total = sum(d)
        return lambda v: sum(v) > total
    if condition in (LEX_LARGEST, SUCCESSIVELY_LARGEST):
        # some variable exceeds d while v agrees on every earlier one with
        # the reference (d itself for lex-largest, the seed otherwise): the
        # first variable, in order, that exceeds d (forbidden) or leaves
        # the reference (not forbidden) decides
        ref = d if condition == LEX_LARGEST else e
        order = order or tuple(range(len(ref)))

        def ordered_forbidden(v) -> bool:
            for i in order:
                if v[i] > d[i]:
                    return True
                if v[i] != ref[i]:
                    return False
            return False
        return ordered_forbidden
    if condition == D_LEADING:
        def d_leading_forbidden(v) -> bool:
            # v != e, and every v_i equals e_i or exceeds d_i
            if v == e:
                return False
            for vi, ei, di in zip(v, e, d):
                if vi != ei and vi <= di:
                    return False
            return True
        return d_leading_forbidden
    raise ValueError(f"unknown condition {condition!r}")


def forbidden_set(condition: str, d: tuple[int, ...], cap: tuple[int, ...],
                  e: tuple[int, ...] | None = None,
                  order: tuple[int, ...] | None = None) -> set[tuple[int, ...]]:
    """All exponent vectors in the box [0, cap] forbidden by a condition.

    The box is inclusive: cap_i is the largest exponent enumerated for
    variable i.  For the order-sensitive conditions the identity order is
    the default.
    """
    d, cap = tuple(d), tuple(cap)
    e = None if e is None else tuple(e)
    if len(cap) != len(d):
        raise ValueError("cap and d have different lengths")
    forbidden = _region(condition, d, e, order)
    return set(filter(forbidden, itertools.product(*(range(c + 1) for c in cap))))


def hypothesis_holds(f: Polynomial, condition: str, d: tuple[int, ...],
                     e: tuple[int, ...] | None = None,
                     order: tuple[int, ...] | None = None) -> bool:
    """Definitional re-check of a hypothesis for given witnesses.

    Verifies the witness-in-support requirement of the condition and that
    no monomial of f is forbidden.  This is the ground truth the
    detectors are tested against.
    """
    _require_nonzero(f)
    d = tuple(d)
    e = None if e is None else tuple(e)
    for name, w in (("d", d), ("e", e)):
        if w is not None and len(w) != f.arity:
            raise ArityMismatchError(f"witness {name} = {w} has length {len(w)}, f has arity {f.arity}")
    if condition in (MAXIMAL_MONOMIAL, LEX_LARGEST, TOTAL_DEGREE):
        witnessed = d in f.terms
    elif condition in (SUCCESSIVELY_LARGEST, D_LEADING):
        witnessed = e is not None and e in f.terms and _dominates(d, e)
    elif condition == PARTIAL_DEGREES:
        witnessed = d == f.degrees()[0]
    else:
        witnessed = True  # _region rejects the unknown condition
    return witnessed and not any(map(_region(condition, d, e, order), f.terms))


def _witnesses(f: Polynomial):
    """The walk behind ``classify`` and ``bounds.collect_bounds``: the
    maximal monomials, the seeds (graded-descending), the orders, each
    order's lex-largest monomial and its successively-largest d per seed,
    each distinct (seed, d) with the first order that gives it (first seen
    first), and each seed's distinct d (seeds sorted, d unsorted).  It
    logs one ``classify`` DEBUG record."""
    _require_nonzero(f)
    n = f.arity
    orders = list(itertools.permutations(range(n))) if n <= MAX_ORDERS_ARITY else [tuple(range(n))]
    seeds = sorted(f.terms, key=_graded, reverse=True)
    maximal = _skyline(seeds)
    heads, successive, first = [], [], {}
    for order in orders:
        # exponents read in order (itemgetter of one index gives an int); a key's d
        # keeps the lead up to where the key leaves prev, and takes the key after
        permute = itemgetter(*order) if n > 1 else tuple
        restore = itemgetter(*sorted(range(n), key=order.__getitem__)) if n > 1 else tuple
        keys = sorted(map(permute, f.terms), reverse=True)
        lead = keys[0]
        leads = {lead: lead}
        for prev, key in itertools.pairwise(keys):
            j = 0
            while key[j] == prev[j]:
                j += 1
            leads[key] = lead = lead[:j + 1] + key[j + 1:]
        heads.append(restore(keys[0]))
        ds = list(map(restore, map(leads.__getitem__, map(permute, seeds))))
        successive.append(ds)
        first.update(zip(itertools.filterfalse(first.__contains__, zip(seeds, ds)), itertools.repeat(order)))
    leading = {e: [] for e in sorted(seeds)}
    for e, d in first:
        leading[e].append(d)
    debug(__name__, "classify terms=%d orders=%d reports=%d d_leading=%d", len(f.terms), len(orders),
          len(maximal) + len(orders) * (1 + len(seeds)) + len(first) + 2, len(first))
    return maximal, seeds, orders, heads, successive, first, leading


def classify(f: Polynomial) -> list[HypothesisReport]:
    """Detect every supported hypothesis of f with concrete witnesses.

    Emits, in deterministic order:
      * one maximal-monomial report per maximal monomial,
      * one lex-largest report per variable order,
      * one successively-largest report per (order, seed monomial) pair,
        orders outer, seeds graded-descending inner,
      * one d-leading report per distinct (seed, derived degree vector),
        in sorted (seed, d) order,
      * one partial-degrees report and one total-degree report.

    ``bounds.collect_bounds`` reads the same walk (``_witnesses``), whose
    distinct (seed, d) pairs it lists once each.  All variable orders
    are enumerated while arity <= MAX_ORDERS_ARITY; beyond that only the
    identity order is used.
    Every report holds by construction, so none rescans the support
    (``hypothesis_holds`` is the definitional check):
      * maximal: the skyline keeps no monomial that another dominates;
      * lex-largest: it is the maximum under the order's key;
      * partial-degrees: d is ``f.degrees()[0]``;
      * total-degree: the witness has the largest total degree;
      * successively-largest and d-leading: as follows.

    The graded-descending sort gives the seeds, the skyline's input and
    the total-degree witness (its head).  One lex-descending sort per
    order, of the exponents read in that order, gives the lex-largest
    witness (its head) and each seed's successively-largest d.  The
    monomials that agree with the seed e on order[:k] form one run of
    that sort, and d at order[k] is the exponent of the run's first
    monomial there, the largest among them.  A seed that first differs
    from the monomial before it at order[j] starts its runs for k > j and
    shares the rest.  So the report holds: its forbidden region (the v
    that agree with e on order[:k] and exceed d at order[k], for some k)
    misses the support, and d >= e because e is one of those monomials.
    Every d-leading pair (e, d) holds too: when d >= e, a v in the
    d-leading forbidden region (v != e, and each v_i equals e_i or
    exceeds d_i) is in the successively-largest forbidden region of
    (e, d, order) for every order, since at the first index in the order
    where v differs from e, v exceeds d.  For T terms in n variables this
    takes O(orders·T log T) comparisons plus the skyline.
    """
    maximal, seeds, orders, heads, successive, first, leading = _witnesses(f)
    return [*(HypothesisReport(MAXIMAL_MONOMIAL, True, m) for m in maximal),
            *(HypothesisReport(LEX_LARGEST, True, d, None, order) for order, d in zip(orders, heads)),
            *(HypothesisReport(SUCCESSIVELY_LARGEST, True, d, e, order)
              for order, ds in zip(orders, successive) for d, e in zip(ds, seeds)),
            *(HypothesisReport(D_LEADING, True, d, e) for e, ds in leading.items() for d in sorted(ds)),
            HypothesisReport(PARTIAL_DEGREES, True, f.degrees()[0]), HypothesisReport(TOTAL_DEGREE, True, seeds[0])]
