"""Grid-preserving reduction and coefficient extraction.

Trimming replaces a polynomial by its remainder modulo the monic grid
annihilators prod_{a in S_i} (x_i - a), one variable at a time.  The
result agrees with the original at every grid point, has partial degrees
below the set sizes, and keeps the coefficient of any maximal monomial
that already fits the box.  Because the divisors are monic this works
over every supported ring, not just fields.

Coefficient extraction goes the other way: from the values of f on a grid
(a black box, not the terms) it recovers the coefficient of a monomial
x^d, valid whenever d is maximal in f and |S_i| > d_i.  The multipliers
g(a) generalize the reciprocals of the Vandermonde-basis products, and
are validated against their defining power-sum identities at build time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import HypothesisViolationError, UnsupportedRingError
from .poly import (
    GridSpec,
    Polynomial,
    annihilator,
    check_compatible,
    decompose_by_variable,
    first_repeat,
    recompose,
)
from .ring import RingElem, RingSpec, grid_condition_check


def trim(f: Polynomial, grid: GridSpec, order: Sequence[int] | None = None) -> Polynomial:
    """Remainder of f modulo the grid annihilators of every variable.

    Variables are reduced in ascending index order by default; the result
    is independent of the order (a tested property).  The grid must pass
    the zero-divisor difference condition, which is what makes "agrees on
    the grid" a faithful notion over Z_m.
    """
    check_compatible(f, grid)
    condition = grid_condition_check(f.ring, grid)
    if not condition.ok:
        raise HypothesisViolationError(
            f"grid fails the zero-divisor difference condition: {condition.describe()}")
    if order is None:
        order = range(grid.arity)
    result = f
    for var in order:
        result = _reduce_variable(result, grid, var)
    return result


def _reduce_variable(f: Polynomial, grid: GridSpec, var: int) -> Polynomial:
    """Remainder of f modulo the monic annihilator of S_var."""
    s = len(grid.sets[var])
    if f.is_zero or f.partial_degree(var) < s:
        return f
    ring = f.ring
    # x_var^s is congruent to -(lower part of the annihilator)
    replacement = [ring.neg(c) for c in annihilator(ring, grid.sets[var])[:-1]]

    layers = {k: dict(h.terms) for k, h in enumerate(decompose_by_variable(f, var)) if h.terms}
    add, mul = ring.add, ring.mul
    while layers:
        top = max(layers)
        if top < s:
            break
        coeff_layer = layers.pop(top)
        for j, r in enumerate(replacement):
            if not r:
                continue
            dst = layers.setdefault(top - s + j, {})
            for exps, c in coeff_layer.items():
                acc = add(dst.get(exps, 0), mul(c, r))
                if acc:
                    dst[exps] = acc
                else:
                    dst.pop(exps, None)
            if not dst:
                del layers[top - s + j]
    polys = []
    for k in range(max(layers) + 1 if layers else 0):
        polys.append(Polynomial(f.arity, ring, layers.get(k, {})))
    if not polys:
        return Polynomial.zero(f.arity, ring)
    return recompose(polys, var)


@dataclass(frozen=True)
class Multipliers:
    """Interpolation-style multipliers g over a set S for a degree d.

    g is supported on the first d + 1 elements of S (stored order) and
    satisfies sum_{a in S} g(a) a^k = 0 for k < d and = 1 for k = d.
    With |S| = d + 1 this is g(a_j) = 1 / prod_{k != j} (a_j - a_k).
    """

    ring: RingSpec
    elements: tuple[int, ...]
    degree: int
    values: tuple[int, ...]  # aligned with elements; zero beyond degree + 1

    def __getitem__(self, a) -> RingElem:
        a = self.ring.canon(int(a))
        try:
            return RingElem(self.ring, self.values[self.elements.index(a)])
        except ValueError:
            raise KeyError(f"{a} is not an element of {self.elements}") from None


def vandermonde_multipliers(ring: RingSpec, elements: Sequence, d: int | None = None) -> Multipliers:
    """Build the multipliers g for a set of distinct field elements.

    d defaults to |S| - 1 (the classical reciprocal-product case).  The
    defining power-sum identities are recomputed and asserted before the
    result is returned, so a faulty build cannot escape.
    """
    if not ring.is_field:
        raise UnsupportedRingError("multipliers need a prime field")
    vals = tuple(ring.canon(int(v)) for v in elements)
    repeat = first_repeat(vals)
    if repeat:
        raise ValueError("element set repeats {} at positions {} and {}".format(*repeat))
    if not vals:
        raise ValueError("empty element set")
    if d is None:
        d = len(vals) - 1
    if not 0 <= d < len(vals):
        raise HypothesisViolationError(f"need 0 <= d < |S|, got d = {d}, |S| = {len(vals)}")

    head = vals[:d + 1]
    g = []
    for j, a in enumerate(head):
        denom = 1
        for k, b in enumerate(head):
            if k != j:
                denom = ring.mul(denom, ring.sub(a, b))
        g.append(ring.invert(denom))
    values = tuple(g) + (0,) * (len(vals) - d - 1)

    p = ring.modulus
    for k in range(d + 1):
        acc = sum(gv * pow(a, k, p) for gv, a in zip(values, vals)) % p
        expected = 1 if k == d else 0
        if acc != expected:
            raise AssertionError(f"multiplier identity failed at power {k}: {acc} != {expected}")
    return Multipliers(ring, vals, d, values)


def grid_values(f: Polynomial, grid: GridSpec) -> dict[tuple[int, ...], int]:
    """Evaluate f at every grid point: the value map consumed by
    coefficient_via_grid, keyed by canonical point tuples."""
    from .oracle import _grid_values

    check_compatible(f, grid)
    return dict(zip(grid.points(), _grid_values(f, grid)))


def coefficient_via_grid(values: Mapping[tuple[int, ...], int], grid: GridSpec,
                         d: tuple[int, ...]) -> RingElem:
    """Recover the coefficient of x^d in f from its values on the grid.

    Computed as the sum over the grid of f(x) * prod_i g_i(x_i) with the
    degree-d_i multipliers g_i of S_i.  The result equals the coefficient
    of x^d whenever x^d is a maximal monomial of f (zero if absent); for
    non-maximal d it is still a well-defined functional of the values,
    just not the coefficient.

    The value map must cover the whole grid; the sum itself only touches
    the points supported by the multipliers, i.e. the first d_i + 1
    elements per variable.
    """
    ring = grid.ring
    if not ring.is_field:
        raise UnsupportedRingError("coefficient extraction needs a prime field")
    d = tuple(d)
    if len(d) != grid.arity:
        raise ValueError(f"degree vector {d} does not match grid arity {grid.arity}")
    for i, (di, s) in enumerate(zip(d, grid.sizes)):
        if di < 0:
            raise ValueError(f"negative degree {di}")
        if s <= di:
            raise HypothesisViolationError(f"need |S_{i + 1}| > d_{i + 1}, got {s} <= {di}")
    missing = sum(1 for pt in grid.points() if pt not in values)
    if missing:
        raise ValueError(f"value map misses {missing} of {grid.size()} grid points")

    mults = [vandermonde_multipliers(ring, grid.sets[i], d[i]) for i in range(grid.arity)]
    supported = [tuple(zip(grid.sets[i][:d[i] + 1], mults[i].values)) for i in range(grid.arity)]
    p = ring.modulus
    acc = 0
    for entry in itertools.product(*supported):
        w = 1
        for _, gv in entry:
            w = w * gv % p
        v = values[tuple(x for x, _ in entry)]
        if isinstance(v, RingElem):
            v = v.value
        acc = (acc + v % p * w) % p
    return RingElem(ring, acc)
