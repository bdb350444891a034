"""Exact arithmetic in the supported coefficient rings.

Three rings are available: prime fields F_p, the integers Z (arbitrary
precision), and modular rings Z_m for composite m.  Z_m is not an integral
domain; it is included so that grid-based arguments can be screened with
the no-zero-divisor difference condition (``grid_condition_check``) before
they are trusted.

Elements are stored as canonical integer representatives: the value itself
over Z, the least nonnegative residue modulo m otherwise.  ``RingSpec``
operates on raw canonical integers (the fast path used by enumeration
loops); ``RingElem`` wraps a value together with its ring and refuses
mixed-ring arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import RingMismatchError, UnsupportedRingError

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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@dataclass(frozen=True)
class RingSpec:
    """A coefficient ring: ``fp`` (prime field), ``int``, or ``zmod``.

    The modulus is eagerly validated, so an invalid ring cannot be
    constructed.  Instances are immutable and hashable; two specs are the
    same ring exactly when they compare equal.
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == FP:
            if self.modulus is None or not is_prime(self.modulus):
                raise ValueError(f"fp modulus must be prime, got {self.modulus}")
        elif self.kind == ZMOD:
            if self.modulus is None or self.modulus < 2:
                raise ValueError(f"zmod modulus must be >= 2, got {self.modulus}")
        elif self.kind == INT:
            if self.modulus is not None:
                raise ValueError("the integer ring takes no modulus")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

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

    @property
    def characteristic(self) -> int:
        return self.modulus or 0

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

    def is_zero_divisor(self, a: int) -> bool:
        """Whether a (nonzero or not) kills some nonzero element by product."""
        a = self.canon(a)
        if a == 0:
            return True
        if self.modulus is None or self.kind == FP:
            return False
        return gcd(a, self.modulus) != 1

    # -- element factory -----------------------------------------------------

    def element(self, v: int) -> "RingElem":
        return RingElem(self, self.canon(int(v)))

    def zero(self) -> "RingElem":
        return RingElem(self, 0)

    def one(self) -> "RingElem":
        return RingElem(self, self.canon(1))

    def __str__(self) -> str:
        return self.kind if self.modulus is None else f"{self.kind}:{self.modulus}"


@dataclass(frozen=True, eq=False)
class RingElem:
    """A ring element: a canonical integer representative plus its ring.

    Arithmetic between elements of different rings raises
    RingMismatchError rather than guessing a coercion.  Comparison against
    plain ints canonicalizes the int first, so ``ring.element(-1) == p - 1``
    holds in F_p.
    """

    ring: RingSpec
    value: int

    def _combine(self, op, other, reflected: bool = False):
        """op(self, other), or op(other, self) when reflected, as an element
        of this ring; NotImplemented for operands that are not ring values."""
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise RingMismatchError(f"mixed rings {self.ring} and {other.ring}")
            v = other.value
        elif isinstance(other, int):
            v = self.ring.canon(other)
        else:
            return NotImplemented
        return RingElem(self.ring, op(v, self.value) if reflected else op(self.value, v))

    def __add__(self, other):
        return self._combine(self.ring.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self.ring.sub, other)

    def __rsub__(self, other):
        return self._combine(self.ring.sub, other, reflected=True)

    def __mul__(self, other):
        return self._combine(self.ring.mul, other)

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.value))

    def __pow__(self, e: int):
        return RingElem(self.ring, self.ring.pow(self.value, e))

    def inverse(self) -> "RingElem":
        return RingElem(self.ring, self.ring.invert(self.value))

    def __eq__(self, other):
        if isinstance(other, RingElem):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == self.ring.canon(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} ({self.ring})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of the grid condition check.

    failures lists (variable index, x, y, x - y) for every ordered pair of
    distinct set elements whose difference is a zero divisor.
    """

    ok: bool
    failures: tuple[tuple[int, int, int, int], ...] = ()

    def describe(self, limit: int = 3) -> str:
        parts = [
            f"S_{i + 1} contains {x} and {y} with zero-divisor difference {d}"
            for i, x, y, d in self.failures[:limit]
        ]
        if len(self.failures) > limit:
            parts.append(f"and {len(self.failures) - limit} more")
        return "; ".join(parts)


def _prime_factors(m: int) -> tuple[int, ...] | None:
    """The distinct prime factors of m, or None when trial division below
    2^16 leaves a cofactor that is not certainly prime."""
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
    modulo every prime factor of m, so a set passes in linear time when
    it is distinct modulo each factor (over Z and F_p: distinct).  Only a
    set that fails that test, or a modulus that resists factoring, gets
    the pairwise scan that lists the failures.

    ``sets`` may be a GridSpec or any iterable of per-variable element
    iterables; values are canonicalized before differencing.
    """
    raw = getattr(sets, "sets", sets)
    factors = _prime_factors(ring.modulus) if ring.kind == ZMOD else ()
    failures = []
    for i, s in enumerate(raw):
        vals = [ring.canon(int(v)) for v in s]
        if factors is not None and len(set(vals)) == len(vals) and all(
                len({v % q for v in vals}) == len(vals) for q in factors):
            continue
        for j, x in enumerate(vals):
            for y in vals[j + 1:]:
                d = ring.sub(x, y)
                if ring.is_zero_divisor(d):
                    failures.append((i, x, y, d))
    return CheckResult(not failures, tuple(failures))
