"""Exact arithmetic in the supported coefficient rings.

Three rings are available: prime fields F_p, the integers Z (arbitrary
precision), and modular rings Z_m for composite m.  Z_m is not an integral
domain; it is included so that grid-based arguments can be screened with
the no-zero-divisor difference condition (``grid_condition_check``) before
they are trusted.

Elements are stored as canonical integer representatives: the value itself
over Z, the least nonnegative residue modulo m otherwise.  ``RingSpec``
holds the one ring arithmetic, on raw canonical integers.  A ``RingElem``
is a value tagged with its ring, with no arithmetic of its own, and
``RingSpec.coerce`` is the one place a ``RingElem`` is checked against a
ring and unwrapped: a value of another ring raises RingMismatchError.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import GridTooLargeError, HypothesisViolationError, RingMismatchError, UnsupportedRingError, charge

FP = "fp"
INT = "int"
ZMOD = "zmod"

# Deterministic Miller-Rabin witness set, valid for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_VALID_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for moduli up to ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_VALID_BELOW:
        raise ValueError(f"cannot certify primality of {n}: modulus too large")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Frozen:
    """Base of the package's immutable value classes.  Like a frozen
    dataclass, an instance refuses to set or delete any attribute, with
    the message "<Class> is immutable"; its constructor sets the
    ``__slots__`` fields through ``object.__setattr__``, and it pickles
    and copies by calling the class on them, in order.  Equality (same
    class, field by field), hash and repr are read from the same fields,
    as a dataclass derives them."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class RingSpec(_Frozen):
    """A coefficient ring: ``fp`` (prime field), ``int``, or ``zmod``.

    The modulus is eagerly validated, so an invalid ring cannot be
    constructed.  Instances are immutable and hashable; two specs are the
    same ring exactly when they compare equal.  A ``__slots__`` class
    rather than a tuple, so that it has no tuple behaviour (``len``,
    ``+``, ``<``) and the arithmetic methods read ``modulus`` from a slot.
    """

    __slots__ = __match_args__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == FP:
            if modulus is None or not is_prime(modulus):
                raise ValueError(f"fp modulus must be prime, got {modulus}")
        elif kind == ZMOD:
            if modulus is None or modulus < 2:
                raise ValueError(f"zmod modulus must be >= 2, got {modulus}")
        elif kind == INT:
            if modulus is not None:
                raise ValueError("the integer ring takes no modulus")
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    # -- constructors ------------------------------------------------------

    @classmethod
    def prime_field(cls, p: int) -> "RingSpec":
        return cls(FP, p)

    @classmethod
    def integers(cls) -> "RingSpec":
        return cls(INT)

    @classmethod
    def integers_mod(cls, m: int) -> "RingSpec":
        return cls(ZMOD, m)

    @classmethod
    def from_string(cls, text: str) -> "RingSpec":
        """Parse ``fp:<p>``, ``int``, or ``zmod:<m>`` (the CLI format)."""
        head, sep, tail = text.partition(":")
        if head == INT and not sep:
            return cls.integers()
        if head in (FP, ZMOD) and sep:
            try:
                m = int(tail)
            except ValueError:
                raise ValueError(f"bad ring modulus {tail!r} in {text!r}") from None
            return cls(head, m)
        raise ValueError(f"bad ring spec {text!r}; expected fp:<p>, int, or zmod:<m>")

    # -- predicates --------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind == FP

    # -- raw integer arithmetic --------------------------------------------

    def canon(self, v: int) -> int:
        """Canonical representative: least nonnegative residue, or v itself."""
        m = self.modulus
        return v % m if m else v

    def add(self, a: int, b: int) -> int:
        m = self.modulus
        return (a + b) % m if m else a + b

    def sub(self, a: int, b: int) -> int:
        m = self.modulus
        return (a - b) % m if m else a - b

    def mul(self, a: int, b: int) -> int:
        m = self.modulus
        return (a * b) % m if m else a * b

    def neg(self, a: int) -> int:
        m = self.modulus
        return (-a) % m if m else -a

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        m = self.modulus
        return pow(a, e, m) if m else pow(a, e)

    def invert(self, a: int) -> int:
        """Multiplicative inverse in F_p.  Rejects non-fields and zero."""
        if self.kind != FP:
            raise UnsupportedRingError(f"inversion needs a prime field, not {self}")
        p = self.modulus
        a %= p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p)

    # -- elements ------------------------------------------------------------

    def element(self, v: int) -> "RingElem":
        return RingElem(self, self.canon(int(v)))

    def coerce(self, v) -> int:
        """The canonical integer of v in this ring: the value of a RingElem
        of this ring, any other value canonicalized through ``int``.  A
        RingElem of another ring raises RingMismatchError."""
        if isinstance(v, RingElem):
            if v.ring != self:
                raise RingMismatchError(f"value from {v.ring} used in {self}")
            return v.value
        return self.canon(int(v))

    def __str__(self) -> str:
        return self.kind if self.modulus is None else f"{self.kind}:{self.modulus}"


class RingElem(_Frozen):
    """A ring element: a canonical integer representative tagged with its
    ring.  A value, not an arithmetic type: ``RingSpec`` computes on raw
    integers, and ``RingSpec.coerce`` unwraps an element after checking
    its ring.  Comparison against plain ints canonicalizes the int first,
    so ``ring.element(-1) == p - 1`` holds in F_p.
    """

    __slots__ = __match_args__ = ("ring", "value")

    def __init__(self, ring: RingSpec, value: int):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if isinstance(other, RingElem):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == self.ring.canon(other)
        return NotImplemented

    __hash__ = _Frozen.__hash__

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} ({self.ring})"


class CheckResult(NamedTuple):
    """Outcome of the grid condition check.

    failures lists (variable index, x, y, x - y) for the first
    ``LISTED_FAILURES`` ordered pairs of distinct set elements, in scan
    order, whose difference is a zero divisor; count is how many such
    pairs there are in all.  A NamedTuple, as every plain record of the
    package is: building the class costs a fifth of a frozen dataclass,
    and the package loads no ``dataclasses``.
    """

    ok: bool
    failures: tuple[tuple[int, int, int, int], ...] = ()
    count: int = 0

    def describe(self, limit: int = 3) -> str:
        shown = self.failures[:limit]
        parts = [f"S_{i + 1} contains {x} and {y} with zero-divisor difference {d}"
                 for i, x, y, d in shown]
        if self.count > len(shown):
            parts.append(f"and {self.count - len(shown)} more")
        return "; ".join(parts)


# failing pairs a CheckResult lists; the rest are only counted
LISTED_FAILURES = 10
# most pairs compared one by one for a modulus that resists factoring (~0.15 s)
MAX_PAIRWISE_PAIRS = 10**6


@lru_cache(maxsize=64)
def _prime_factors(m: int) -> tuple[int, ...] | None:
    """The distinct prime factors of m, or None when trial division below
    2^16 leaves a cofactor that is not certainly prime; kept per modulus,
    since every count and ``trim`` over Z_m checks its grid again."""
    factors = []
    d = 2
    while d * d <= m and d < 1 << 16:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        if d * d <= m and not (m < _MR_VALID_BELOW and is_prime(m)):
            return None
        factors.append(m)
    return tuple(factors)


def grid_condition_check(ring: RingSpec, sets) -> CheckResult:
    """Check that no difference of two distinct elements of any S_i is a
    zero divisor.

    Over Z and F_p this holds for any sets of distinct elements; over Z_m
    each difference must be a unit mod m.  The check is what licenses
    treating grid arguments (interpolation, trimming, counting bounds) as
    valid over Z_m.

    A difference is a unit mod m exactly when the two elements differ
    modulo every prime factor q of m, so a pair fails exactly when its
    elements agree modulo some q (over Z and F_p: when they are equal).
    A set distinct modulo every q passes in linear time.  Otherwise
    ``_pairs_agreeing`` counts the failing pairs by inclusion-exclusion
    and ``_first_pairs`` lists the first few from the residue classes,
    without enumerating pairs.  Only a modulus that resists factoring
    gets the pairwise scan; before each set is scanned its s(s - 1)/2
    pairs are charged, and past MAX_PAIRWISE_PAIRS in all
    GridTooLargeError is raised.

    ``sets`` may be a GridSpec or any iterable of per-variable element
    iterables; values are canonicalized before differencing.
    """
    raw = getattr(sets, "sets", sets)
    # moduli whose residues decide a failing pair; 0 compares the values themselves
    moduli = _prime_factors(ring.modulus) if ring.kind == ZMOD else (0,)
    failures: list[tuple[int, int, int, int]] = []
    count = pairs = 0
    for i, s in enumerate(raw):
        vals = [ring.canon(int(v)) for v in s]
        if moduli is None:
            pairs += len(vals) * (len(vals) - 1) // 2
            charge(pairs, MAX_PAIRWISE_PAIRS, GridTooLargeError,
                   "checking the grid over {} compares {work} pairs, limit is {limit}", ring)
            for j, x in enumerate(vals):
                for y in vals[j + 1:]:
                    if gcd(x - y, ring.modulus) != 1:
                        count += 1
                        if len(failures) < LISTED_FAILURES:
                            failures.append((i, x, y, ring.sub(x, y)))
            continue
        if all(len({v % q for v in vals} if q else set(vals)) == len(vals) for q in moduli):
            continue
        count += _pairs_agreeing(vals, moduli)
        failures += [(i, x, y, ring.sub(x, y))
                     for x, y in _first_pairs(vals, moduli, LISTED_FAILURES - len(failures))]
    return CheckResult(count == 0, tuple(failures), count)


def require_grid_condition(grid) -> None:
    """Raise HypothesisViolationError unless the ``poly.GridSpec`` ``grid``
    passes ``grid_condition_check``, called over Z_m alone: over F_p and Z
    the condition is that each set's elements are distinct, as GridSpec
    already ensures."""
    if grid.ring.kind != ZMOD:
        return
    condition = grid_condition_check(grid.ring, grid)
    if not condition.ok:
        raise HypothesisViolationError(
            f"grid fails the zero-divisor difference condition: {condition.describe()}")


def _residue(v: int, q: int) -> int:
    return v % q if q else v


def _pairs_agreeing(vals: list[int], moduli: tuple[int, ...]) -> int:
    """How many pairs j < l have vals[j] = vals[l] modulo at least one
    of the pairwise coprime ``moduli``.

    Inclusion-exclusion over the nonempty subsets T of the moduli: pairs
    that agree modulo every q in T agree modulo their product, and there
    are sum C(c, 2) of them over the residue classes of sizes c.  Each
    subset refines its parent's classes by one more modulus and keeps
    only classes of two or more, so a subset none of whose pairs agree
    is never extended.
    """
    total = 0
    stack = [(0, 1, [vals])]
    while stack:
        first, sign, groups = stack.pop()
        for j in range(first, len(moduli)):
            q = moduli[j]
            refined = []
            for group in groups:
                classes: dict[int, list[int]] = {}
                for v in group:
                    classes.setdefault(_residue(v, q), []).append(v)
                refined += [c for c in classes.values() if len(c) > 1]
            if refined:
                total += sign * sum(len(c) * (len(c) - 1) // 2 for c in refined)
                stack.append((j + 1, -sign, refined))
    return total


def _first_pairs(vals: list[int], moduli: tuple[int, ...], limit: int) -> list[tuple[int, int]]:
    """The first ``limit`` pairs (vals[j], vals[l]), j < l, in scan order,
    that agree modulo one of the moduli."""
    positions: list[dict[int, list[int]]] = []
    for q in moduli:
        classes: dict[int, list[int]] = {}
        for at, v in enumerate(vals):
            classes.setdefault(_residue(v, q), []).append(at)
        positions.append(classes)
    pairs: list[tuple[int, int]] = []
    for j, x in enumerate(vals):
        if len(pairs) >= limit:
            break
        later: set[int] = set()
        for q, classes in zip(moduli, positions):
            group = classes[_residue(x, q)]
            start = bisect_right(group, j)
            later.update(group[start:start + limit])
        pairs += [(x, vals[l]) for l in sorted(later)[:limit - len(pairs)]]
    return pairs
