"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a sparse map from exponent vectors to nonzero canonical
coefficients.  The zero polynomial is the empty map.  All arithmetic is
exact; there is no floating point anywhere in this module.

Representation:
    terms: dict[tuple[int, ...], int]
        Keys are exponent vectors of length ``arity`` with nonnegative
        entries.  Values are canonical integers of ``ring`` and never zero.

Polynomial and GridSpec are ``ring._Frozen`` values: each refuses to set
or delete a field, pickles and copies by calling its class on its
fields, and compares field by field.  No method mutates ``terms``, and
arithmetic always builds a new object.  ``Polynomial._from_raw`` is the
one place that reduces coefficients and drops zeros: the constructor
hands it the caller's terms once their keys are checked, and arithmetic,
``oracle.tightness_family`` and ``transform.trim``'s reduction, whose
keys are right by construction, sum and multiply plain ints and hand it
the raw dict unchecked.  Coefficients, scalars, grid elements and
evaluation points given as ``RingElem`` are unwrapped by
``RingSpec.coerce``, which refuses another ring's values.

GridSpec lives here too: a finite evaluation grid S_1 x ... x S_n whose
per-variable sets keep their stored order.  Order matters downstream
("first k elements" conventions and the odometer enumeration order), so
sets are tuples, not frozensets.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArityMismatchError,
    GridTooLargeError,
    RingMismatchError,
    ZeroPolynomialError,
    charge,
    charge_output,
    digits,
)
from .ring import RingElem, RingSpec, _Frozen

Exponents = tuple[int, ...]

# most elements of one grid set read from text, checked before a range is expanded
MAX_SET_SIZE = 10**6
# most word-size products one annihilator, expansion or trim reduction may charge
MAX_WORK = 4 * 10**6


def words(bits: int) -> int:
    """Machine words of a ``bits``-bit integer, the unit of every work budget."""
    return bits // 64 + 1


def product_work(ta: int, wa: int, tb: int, wb: int) -> int:
    """ta·tb products of wa- and wb-word integers, each counting 1 + wa·wb // 128."""
    return ta * tb * (1 + wa * wb // 128)


class Polynomial(_Frozen):
    """A sparse polynomial in ``arity`` variables over ``ring``."""

    __slots__ = ("arity", "ring", "terms")

    def __init__(self, arity: int, ring: RingSpec, terms: Mapping[Exponents, int] | None = None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        raw: dict[Exponents, int] = {}
        for exps, c in (terms or {}).items():
            key = tuple(map(int, exps))
            if len(key) != arity:
                raise ArityMismatchError(f"exponent vector {key} has length {len(key)}, expected {arity}")
            if key and min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            # caller keys such as (1.0,) and (1,) that name the same exponents are summed
            raw[key] = raw.get(key, 0) + (ring.coerce(c) if isinstance(c, RingElem) else int(c))
        self._from_raw(arity, ring, raw, into=self)

    @classmethod
    def _from_raw(cls, arity: int, ring: RingSpec, raw: dict[Exponents, int], into=None) -> "Polynomial":
        """The polynomial of ``raw``, whose keys are exponent tuples of length
        ``arity`` and whose values are plain ints, not yet reduced: it reduces
        them and drops the zeros, with no check of the keys.  It fills
        ``into``, the instance the constructor is building, or a new one
        for arithmetic, ``oracle.tightness_family`` and ``transform.trim``'s
        reduction, whose keys are right by construction."""
        poly = object.__new__(cls) if into is None else into
        m = ring.modulus
        object.__setattr__(poly, "arity", arity)
        object.__setattr__(poly, "ring", ring)
        object.__setattr__(poly, "terms", {key: r for key, v in raw.items() if (r := v % m if m else v)})
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int, ring: RingSpec) -> "Polynomial":
        return cls(arity, ring)

    @classmethod
    def constant(cls, arity: int, ring: RingSpec, c) -> "Polynomial":
        return cls(arity, ring, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity: int, ring: RingSpec, index: int) -> "Polynomial":
        if not 0 <= index < arity:
            raise ArityMismatchError(f"variable index {index} out of range for arity {arity}")
        exps = (0,) * index + (1,) + (0,) * (arity - index - 1)
        return cls(arity, ring, {exps: 1})

    @classmethod
    def monomial(cls, arity: int, ring: RingSpec, exps: Sequence[int], c=1) -> "Polynomial":
        return cls(arity, ring, {tuple(exps): c})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> RingElem:
        return RingElem(self.ring, self.terms.get(tuple(exps), 0))

    def __hash__(self):
        # terms is a dict, which has no hash
        return hash((self.arity, self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_peer(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"mixed rings {self.ring} and {other.ring}")
        if self.arity != other.arity:
            raise ArityMismatchError(f"mixed arities {self.arity} and {other.arity}")

    def __add__(self, other):
        if isinstance(other, (int, RingElem)):
            other = Polynomial.constant(self.arity, self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_peer(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return Polynomial._from_raw(self.arity, self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_raw(self.arity, self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, RingElem)):
            other = Polynomial.constant(self.arity, self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, RingElem)):
            c = self.ring.coerce(other)
            return Polynomial._from_raw(self.arity, self.ring, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_peer(other)
        out: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial._from_raw(self.arity, self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.arity, self.ring, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> RingElem:
        """Evaluate at a point of ring elements (or plain ints)."""
        if len(point) != self.arity:
            raise ArityMismatchError(f"point of length {len(point)} for arity {self.arity}")
        return RingElem(self.ring, self.eval_raw(tuple(map(self.ring.coerce, point))))

    def eval_raw(self, values: tuple[int, ...]) -> int:
        """Evaluate at canonical integer values.  Fast path; no validation."""
        ring = self.ring
        total = 0
        for exps, c in self.terms.items():
            t = c
            for v, e in zip(values, exps):
                if e:
                    t = ring.mul(t, ring.pow(v, e))
            total += t
        return ring.canon(total)

    # -- degrees -----------------------------------------------------------

    def degrees(self) -> tuple[tuple[int, ...], int]:
        """(partial degrees per variable, total degree).  Zero polynomial
        has no degrees and raises ZeroPolynomialError."""
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no degrees")
        partial = tuple(max(e[i] for e in self.terms) for i in range(self.arity))
        total = max(sum(e) for e in self.terms)
        return partial, total

    def partial_degree(self, index: int) -> int:
        return self.degrees()[0][index]

    # -- rendering ---------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form, parseable back by the expression grammar.

        Terms are ordered by descending (total degree, exponents).  Over Z,
        negative coefficients fold into the +/- chain; over modular rings
        every coefficient prints as its canonical representative.  A
        coefficient past Python's digit limit for ``str`` is refused as a
        ResourceLimitError (``errors.charge_output``).
        """
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.arity)]
        elif len(names) != self.arity:
            raise ArityMismatchError("wrong number of variable names")
        signed = self.ring.modulus is None
        parts: list[str] = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag, sign = (abs(c), "-" if c < 0 else "+") if signed else (c, "+")
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                try:
                    coefficient = str(mag)
                except ValueError:  # past Python's digit limit for str
                    charge_output(digits(mag))
                    raise
                body = "*".join([coefficient, *factors])
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r} over {self.ring})"


def first_repeat(values: Sequence) -> tuple[int, int, int] | None:
    """The first value seen a second time, with the 1-based positions of
    its two occurrences, or None when the values are distinct."""
    first: dict = {}
    for pos, v in enumerate(values, 1):
        if first.setdefault(v, pos) != pos:
            return v, first[v], pos
    return None


class GridSpec(_Frozen):
    """A finite grid S_1 x ... x S_n of ring elements, in stored order.

    Each set is a tuple of distinct canonical values.  Distinctness is
    checked after canonicalization, so {-1, 4} is rejected over F_5.
    """

    __slots__ = ("ring", "sets")

    def __init__(self, ring: RingSpec, sets: Iterable[Iterable]):
        clean = []
        for i, s in enumerate(sets):
            vals = tuple(map(ring.coerce, s))
            if not vals:
                raise ValueError(f"grid set {i + 1} is empty")
            repeat = first_repeat(vals)
            if repeat:
                raise ValueError("grid set {} repeats {} at positions {} and {} after canonicalization"
                                 .format(i + 1, *repeat))
            clean.append(vals)
        if not clean:
            raise ValueError("a grid needs at least one variable")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "sets", tuple(clean))

    @classmethod
    def from_text(cls, text: str, ring: RingSpec) -> "GridSpec":
        """Parse the grid text format: one variable per line (or per
        ';'-separated segment), elements separated by commas, where an
        element is an integer or an inclusive range ``a..b``.  Blank
        segments are ignored.  A set of more than MAX_SET_SIZE elements
        raises GridTooLargeError before any range is expanded."""
        sets = []
        for lineno, line in enumerate(text.replace(";", "\n").splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            elems: list[int] = []
            try:
                for tok in line.split(","):
                    tok = tok.strip()
                    if ".." in tok:
                        lo, hi = (int(part) for part in tok.split("..", 1))
                        if hi < lo:
                            raise ValueError
                    else:
                        lo = hi = int(tok)
                    charge(len(elems) + hi - lo + 1, MAX_SET_SIZE, GridTooLargeError,
                           "grid set {} has more than {limit} elements", len(sets) + 1)
                    elems.extend(range(lo, hi + 1))
            except ValueError:
                raise ValueError(f"bad grid element on line {lineno}: {line!r}") from None
            sets.append(elems)
        return cls(ring, sets)

    @property
    def arity(self) -> int:
        return len(self.sets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

    def size(self) -> int:
        return prod(self.sizes)

    def points(self):
        """All grid points in odometer order (last variable fastest)."""
        return itertools.product(*self.sets)

    def __repr__(self) -> str:
        return f"GridSpec({self.sets} over {self.ring})"


def annihilator(ring: RingSpec, elements: Sequence[int]) -> list[int]:
    """Coefficients of the monic univariate prod_{a in elements} (x - a),
    lowest degree first, as canonical integers of ``ring``.

    Building it takes |S|(|S| + 1)/2 products.  Before the first one,
    |S|^2 products are charged against MAX_WORK, and past it
    GridTooLargeError is raised.  A product of a w_a-word element and a
    w_c-word coefficient counts as ``product_work`` says; over Z,
    |coefficient| <= prod (1 + |a|) < 2^(sum of (bits of |a|) + 1)."""
    m = ring.modulus
    if m:
        width = height = words(m.bit_length())
    else:
        width = words(max(map(abs, elements), default=0).bit_length())
        height = words(sum(abs(a).bit_length() + 1 for a in elements))
    charge(product_work(len(elements), width, len(elements), height), MAX_WORK, GridTooLargeError,
           "prod(x - a) over {} elements needs {work} products, limit is {limit}", len(elements))
    coeffs = [1]
    for a in elements:
        # times (x - a): the new coefficient of x^k is c_{k-1} - a * c_k
        coeffs = [ring.sub(hi, ring.mul(a, lo)) for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def vanishing_poly(grid: GridSpec, var: int) -> Polynomial:
    """The monic polynomial prod_{a in S_var} (x_var - a).

    Vanishes exactly on S_var (over a domain); monic by construction, so it
    can divide over any supported ring.
    """
    if not 0 <= var < grid.arity:
        raise ArityMismatchError(f"variable index {var} out of range")
    zero = (0,) * grid.arity
    return Polynomial(grid.arity, grid.ring,
                      {zero[:var] + (k,) + zero[var + 1:]: c
                       for k, c in enumerate(annihilator(grid.ring, grid.sets[var]))})


def check_compatible(f: Polynomial, grid: GridSpec):
    """Raise unless f and grid share ring and arity."""
    if f.ring != grid.ring:
        raise RingMismatchError(f"polynomial over {f.ring}, grid over {grid.ring}")
    if f.arity != grid.arity:
        raise ArityMismatchError(f"polynomial arity {f.arity}, grid arity {grid.arity}")
