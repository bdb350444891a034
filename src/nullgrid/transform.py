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
``grid_values`` hands the values over as ``GridValues``, a read-only
mapping view of the oracle's flat odometer-ordered list, not a dict: it
builds no key per point, and ``coefficient_via_grid`` reads a view of
its own grid in place, only on the sub-box S_1[:d_1+1] x ... x
S_n[:d_n+1], with no scan for coverage.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from operator import mul
from typing import NamedTuple, Sequence

from . import poly
from .errors import GridTooLargeError, HypothesisViolationError, UnsupportedRingError, charge
from .poly import (
    Exponents,
    GridSpec,
    Polynomial,
    annihilator,
    check_compatible,
    first_repeat,
    product_work,
    words,
)
from .ring import RingElem, RingSpec, require_grid_condition

_MULTIPLIER_WORK = "the multipliers need {work} ring operations, limit is {limit}"


def trim(f: Polynomial, grid: GridSpec) -> Polynomial:
    """Remainder of f modulo the grid annihilators of every variable.

    Variables are reduced in ascending index order; the result is
    independent of the order (a tested property).  The grid must pass
    the zero-divisor difference condition, which is what makes "agrees on
    the grid" a faithful notion over Z_m.
    """
    check_compatible(f, grid)
    require_grid_condition(grid)
    result = f
    for var in range(grid.arity):
        result = _reduce_variable(result, grid, var)
    return result


def _reduce_variable(f: Polynomial, grid: GridSpec, var: int) -> Polynomial:
    """Remainder of f modulo prod_{a in S_var} (x_var - a), of degree s.

    Terms are split into layers by their exponent of x_var.  From the
    partial degree d down to s, layer t is popped, reduced once (over Z_m
    coefficients stay below about s·m^2; a zero layer is skipped), and
    c·(-r_j) is added raw into layer t - s + j, r_j the annihilator's lower
    coefficients.  ``Polynomial._from_raw`` builds the one result and
    reduces the rest; its keys, made from f's, need no check.

    Before the annihilator is built, (d - s + 1) pops × distinct rests ×
    (s - [0 in S]) products, weighted by ``product_work``, are charged
    against ``poly.MAX_WORK``; past it GridTooLargeError is
    raised.  s - [0 in S] bounds the nonzero r_j, as r_0 = ±prod a; a set
    that is all of F_p has x^p - x, with one nonzero r_j, charged as 1.  Over
    Z, |r_j| <= prod (1 + |a|) <= 2^(sum of the bit lengths of |a|), and a
    popped coefficient is a quotient coefficient sum_k c_k h_(k-t)(S), h_j
    the complete homogeneous symmetric polynomial, and
    |h_j(S)| <= C(j + s - 1, s - 1) B^j, B = max |a|: ‖f‖₁ 2^(d-1) B^(d-s).
    """
    elements = grid.sets[var]
    s = len(elements)
    if f.is_zero or f.partial_degree(var) < s:
        return f
    ring, m = f.ring, f.ring.modulus
    layers: dict[int, dict[Exponents, int]] = {}
    for exps, c in f.terms.items():
        layers.setdefault(exps[var], {})[exps[:var] + exps[var + 1:]] = c
    top = max(layers)
    pops = top - s + 1
    rests = len({rest for layer in layers.values() for rest in layer})
    if m:
        wide = narrow = m.bit_length()
    else:
        narrow = sum(abs(a).bit_length() for a in elements) + 1
        wide = (sum(map(abs, f.terms.values())).bit_length() + top - 1
                + (top - s) * max(map(abs, elements)).bit_length())
    nonzero_r = 1 if s == m else s - (0 in elements)
    charge(product_work(pops * rests, words(wide), nonzero_r, words(narrow)), poly.MAX_WORK, GridTooLargeError,
           "reducing x{}^{} modulo {} elements needs {work} products, limit is {limit}", var + 1, top, s)
    replacement = [(j, -c) for j, c in enumerate(annihilator(ring, elements)[:-1]) if c]
    for t in range(top, s - 1, -1):
        layer = {rest: v for rest, c in layers.pop(t, {}).items() if (v := c % m if m else c)}
        if not layer:
            continue
        for j, r in replacement:
            dst = layers.setdefault(t - s + j, {})
            for rest, c in layer.items():
                dst[rest] = dst.get(rest, 0) + c * r
    return Polynomial._from_raw(f.arity, ring, {rest[:var] + (k,) + rest[var:]: c
                                                for k, layer in layers.items() for rest, c in layer.items()})


class Multipliers(NamedTuple):
    """Interpolation-style multipliers g over a set S for a degree d.

    g is supported on the first d + 1 elements of S (stored order) and
    satisfies sum_{a in S} g(a) a^k = 0 for k < d and = 1 for k = d.
    With |S| = d + 1 this is g(a_j) = 1 / prod_{k != j} (a_j - a_k).
    A NamedTuple.
    """

    ring: RingSpec
    elements: tuple[int, ...]
    degree: int
    values: tuple[int, ...]  # aligned with elements; zero beyond degree + 1


def vandermonde_multipliers(ring: RingSpec, elements: Sequence, d: int | None = None) -> Multipliers:
    """Build the multipliers g for a set of distinct field elements.

    d defaults to |S| - 1 (the classical reciprocal-product case).  The
    defining power-sum identities are recomputed and asserted before the
    result is returned, so a faulty build cannot escape.  g is zero beyond
    the first d + 1 elements, so the build and the check each take
    (d + 1)^2 ring operations, the check with running powers; the
    (d + 1) |S| charged against ``poly.MAX_WORK`` bounds them from above.
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
    charge((d + 1) * len(vals), poly.MAX_WORK, GridTooLargeError, _MULTIPLIER_WORK)

    head = vals[:d + 1]
    p = ring.modulus
    g = []
    for j, a in enumerate(head):
        denom = 1
        for k, b in enumerate(head):
            if k != j:
                denom = denom * (a - b) % p
        g.append(pow(denom, p - 2, p))  # denom != 0: the elements are distinct

    powers = [1] * len(head)
    for k in range(d + 1):
        acc = sum(map(mul, g, powers)) % p
        expected = 1 if k == d else 0
        if acc != expected:
            raise AssertionError(f"multiplier identity failed at power {k}: {acc} != {expected}")
        powers = [x * a % p for x, a in zip(powers, head)]
    return Multipliers(ring, vals, d, tuple(g) + (0,) * (len(vals) - d - 1))


class GridValues(Mapping):
    """The values of a polynomial on a grid: a read-only mapping from each
    canonical point tuple to its canonical integer value.

    A view of one flat list of values in odometer order (last variable
    fastest), the order of ``grid.points()``; it costs that list and one
    position dict per set, nothing per point.  A lookup maps the point to
    its flat index through the position dicts.  A wrong-length, off-grid
    or non-canonical point raises KeyError, as it would in a dict keyed by
    the points.  Iteration yields ``grid.points()``, ``len`` is the grid
    size, a dict with the same items compares equal to it in both
    directions, and item assignment raises TypeError.
    """

    __slots__ = ("grid", "_flat", "_positions")

    def __init__(self, grid: GridSpec, flat: Sequence[int]):
        if len(flat) != grid.size():
            raise ValueError(f"{len(flat)} values for a grid of {grid.size()} points")
        self.grid = grid
        self._flat = flat
        self._positions = [{a: i for i, a in enumerate(s)} for s in grid.sets]

    def __getitem__(self, point):
        if not isinstance(point, tuple) or len(point) != len(self._positions):
            hash(point)  # an unhashable key raises TypeError, as in a dict
            raise KeyError(point)
        index = 0
        try:
            for positions, x in zip(self._positions, point):
                index = index * len(positions) + positions[x]
        except KeyError:
            raise KeyError(point) from None
        return self._flat[index]

    def __iter__(self):
        return self.grid.points()

    def __len__(self):
        return len(self._flat)


def grid_values(f: Polynomial, grid: GridSpec) -> GridValues:
    """Evaluate f at every grid point: the value map consumed by
    coefficient_via_grid, a read-only ``GridValues`` view keyed by
    canonical point tuples, not a dict.  It holds the oracle's flat list
    of values, so it costs one int per point and builds no key; grids over
    ``oracle.DEFAULT_ZERO_SET_CAP`` points raise GridTooLargeError."""
    from .oracle import _grid_values

    check_compatible(f, grid)
    return GridValues(grid, _grid_values(f, grid))


def require_extractable(grid: GridSpec, d: Sequence[int]) -> tuple[int, ...]:
    """d as a tuple, once checked that ``coefficient_via_grid`` can read x^d
    off the grid: a prime field, one entry per variable, 0 <= d_i < |S_i|,
    and multipliers whose cost is within ``poly.MAX_WORK``.  The cost is
    charged as sum (d_i + 1) |S_i|, an upper bound on the sum (d_i + 1)^2
    ring operations they take."""
    if not grid.ring.is_field:
        raise UnsupportedRingError("coefficient extraction needs a prime field")
    d = tuple(d)
    if len(d) != grid.arity:
        raise ValueError(f"degree vector {d} does not match grid arity {grid.arity}")
    for i, (di, s) in enumerate(zip(d, grid.sizes)):
        if di < 0:
            raise ValueError(f"negative degree {di}")
        if s <= di:
            raise HypothesisViolationError(f"need |S_{i + 1}| > d_{i + 1}, got {s} <= {di}")
    charge(sum((di + 1) * s for di, s in zip(d, grid.sizes)), poly.MAX_WORK, GridTooLargeError, _MULTIPLIER_WORK)
    return d


def coefficient_via_grid(values: Mapping[tuple[int, ...], int], grid: GridSpec,
                         d: tuple[int, ...]) -> RingElem:
    """Recover the coefficient of x^d in f from its values on the grid.

    Computed as the sum over the grid of f(x) * prod_i g_i(x_i) with the
    degree-d_i multipliers g_i of S_i, which are zero past its first
    d_i + 1 elements and are built from those alone.  The result equals
    the coefficient of x^d whenever x^d is a maximal monomial of f (zero
    if absent); for non-maximal d it is still a well-defined functional of
    the values, just not the coefficient.

    The sum only touches the prod (d_i + 1) points where the multipliers
    are nonzero, one row of the last variable at a time.  A ``GridValues``
    view of an equal grid covers that grid by construction, and its flat
    list is read in place.  Any other value map must cover the whole grid,
    checked point by point; its values are ints or elements of the grid's
    ring, and an element of another ring raises RingMismatchError.
    """
    ring = grid.ring
    d = require_extractable(grid, d)
    if isinstance(values, GridValues) and values.grid == grid:
        flat, sizes = values._flat, grid.sizes
    else:
        missing = sum(1 for pt in grid.points() if pt not in values)
        if missing:
            raise ValueError(f"value map misses {missing} of {grid.size()} grid points")
        box = itertools.product(*(s[:di + 1] for s, di in zip(grid.sets, d)))
        flat, sizes = [ring.coerce(values[pt]) for pt in box], tuple(di + 1 for di in d)

    *lead, last = [vandermonde_multipliers(ring, s[:di + 1]).values for s, di in zip(grid.sets, d)]
    p = ring.modulus
    acc = 0
    for entry in itertools.product(*map(enumerate, lead)):
        row, weight = 0, 1
        for (j, gj), size in zip(entry, sizes):
            row, weight = row * size + j, weight * gj % p
        start = row * sizes[-1]
        acc = (acc + weight * sum(map(mul, last, flat[start:start + len(last)]))) % p
    return RingElem(ring, acc)
