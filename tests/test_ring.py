import random
import time
from math import gcd

import pytest

from nullgrid.errors import UnsupportedRingError
from nullgrid.ring import LISTED_FAILURES, RingSpec, grid_condition_check, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert is_prime(1_000_000_007)
    # Carmichael numbers must not fool the test
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_ringspec_constructors():
    fp = RingSpec.prime_field(7)
    assert fp.kind == "fp" and fp.modulus == 7 and fp.is_field
    z = RingSpec.integers()
    assert z.kind == "int" and z.modulus is None and not z.is_field
    zm = RingSpec.integers_mod(6)
    assert zm.kind == "zmod" and zm.modulus == 6 and not zm.is_field

    with pytest.raises(ValueError):
        RingSpec.prime_field(6)
    with pytest.raises(ValueError):
        RingSpec.integers_mod(1)
    # prime moduli are fine for zmod too, they just stay kind zmod
    assert not RingSpec.integers_mod(7).is_field


def test_ringspec_from_string_roundtrip():
    for text in ("fp:7", "int", "zmod:6", "fp:101"):
        assert str(RingSpec.from_string(text)) == text
    for bad in ("fp:6", "zmod:0", "gf:7", "fp:", "fp:x", ""):
        with pytest.raises(ValueError):
            RingSpec.from_string(bad)


def test_canon_and_arithmetic_fp():
    fp = RingSpec.prime_field(5)
    assert fp.canon(-1) == 4
    assert fp.canon(12) == 2
    assert fp.add(3, 4) == 2
    assert fp.mul(3, 4) == 2
    assert fp.sub(1, 3) == 3
    assert fp.neg(2) == 3
    assert fp.pow(2, 10) == 4
    assert fp.invert(3) == 2  # 3*2 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        fp.invert(0)


def test_canon_and_arithmetic_int():
    z = RingSpec.integers()
    assert z.canon(-7) == -7
    assert z.add(3, 4) == 7
    assert z.mul(-3, 4) == -12
    with pytest.raises(UnsupportedRingError):
        z.invert(2)


def test_elem_operators():
    fp = RingSpec.prime_field(11)
    a = fp.element(4)
    assert a == 4 and a == fp.element(15)
    assert int(a) == 4
    assert bool(fp.element(0)) is False
    # RingSpec holds the ring arithmetic; an element has none
    with pytest.raises(TypeError):
        _ = a + fp.element(9)
    with pytest.raises(TypeError):
        _ = -a


def test_elem_int_mixing():
    z = RingSpec.integers()
    a = z.element(5)
    assert a == 5 and a != 6
    with pytest.raises(TypeError):
        _ = RingSpec.prime_field(11).element(4) + 1
    with pytest.raises(TypeError):
        _ = 2 - a


def test_field_inverse_random():
    rng = random.Random(7)
    for p in (5, 13, 101):
        fp = RingSpec.prime_field(p)
        for _ in range(50):
            a = rng.randrange(1, p)
            assert fp.mul(a, fp.invert(a)) == 1


def test_grid_condition_check():
    z = RingSpec.integers()
    assert grid_condition_check(z, [[0, 1, 2], [-5, 7]]).ok

    fp = RingSpec.prime_field(5)
    assert grid_condition_check(fp, [[0, 1, 2, 3, 4]]).ok
    # 0 and 5 collide after canonicalization: difference is zero
    res = grid_condition_check(fp, [[0, 5]])
    assert not res.ok
    assert res.failures[0][0] == 0

    zm = RingSpec.integers_mod(6)
    assert grid_condition_check(zm, [[0, 1]]).ok
    res = grid_condition_check(zm, [[0, 2, 4]])
    assert not res.ok
    # every pairwise difference is even, so all three pairs fail
    assert len(res.failures) == 3
    assert "zero-divisor difference" in res.describe()


def _pairwise_failures(ring, sets):
    failures = []
    for i, s in enumerate(sets):
        vals = [ring.canon(v) for v in s]
        for j, x in enumerate(vals):
            for y in vals[j + 1:]:
                # a zero divisor: zero, or sharing a factor with the modulus
                diff = ring.sub(x, y)
                if diff == 0 or gcd(diff, ring.modulus or 1) != 1:
                    failures.append((i, x, y, diff))
    return tuple(failures)


def test_grid_condition_fast_decision_matches_pairwise():
    rng = random.Random(12)
    # 65537 * 65539 resists trial division below 2^16, so it takes the pairwise scan
    moduli = (12, 35, 64, 65537 * 65539)
    rings = [RingSpec.integers_mod(m) for m in moduli] + [RingSpec.prime_field(101), RingSpec.integers()]
    for ring in rings:
        span = min(ring.modulus or 40, 200)
        outcomes = set()
        for _ in range(300):
            sets = [[rng.randrange(-span, span) for _ in range(rng.randrange(1, 6))]
                    for _ in range(rng.randrange(1, 3))]
            if ring.modulus == 65537 * 65539 and rng.random() < 0.3:
                sets[0].append(sets[0][0] + 65537)
            res = grid_condition_check(ring, sets)
            failures = _pairwise_failures(ring, sets)
            assert (res.ok, res.count) == (not failures, len(failures))
            assert res.failures == failures[:LISTED_FAILURES]
            outcomes.add(res.ok)
        assert outcomes == {True, False}, ring


def test_grid_condition_counts_beyond_the_listed_pairs():
    rng = random.Random(5)
    # 30030 and 210 have several prime factors, so pairs fail modulo different ones
    rings = [RingSpec.integers_mod(m) for m in (30030, 210, 1000000, 64, 7 * 11 * 13)]
    rings += [RingSpec.prime_field(11), RingSpec.integers()]
    for ring in rings:
        for _ in range(40):
            span = min(ring.modulus or 30, 400)
            sets = [[rng.randrange(-span, span) for _ in range(rng.randrange(1, 40))]
                    for _ in range(rng.randrange(1, 4))]
            res = grid_condition_check(ring, sets)
            failures = _pairwise_failures(ring, sets)
            assert (res.ok, res.count) == (not failures, len(failures))
            assert res.failures == failures[:LISTED_FAILURES]


def test_grid_condition_counts_millions_of_pairs_without_listing_them():
    ring = RingSpec.integers_mod(1000000)
    start = time.perf_counter()
    res = grid_condition_check(ring, [range(3000), range(2)])
    assert time.perf_counter() - start < 0.5
    # pairs agreeing mod 2 or mod 5: 2 C(1500, 2) + 5 C(600, 2) - 10 C(300, 2)
    assert res.count == 2698500
    assert res.failures[:3] == ((0, 0, 2, 999998), (0, 0, 4, 999996), (0, 0, 5, 999995))
    assert len(res.failures) == LISTED_FAILURES
    assert res.describe() == (
        "S_1 contains 0 and 2 with zero-divisor difference 999998; "
        "S_1 contains 0 and 4 with zero-divisor difference 999996; "
        "S_1 contains 0 and 5 with zero-divisor difference 999995; and 2698497 more")
    assert res.describe(limit=LISTED_FAILURES).endswith(f"; and {2698500 - LISTED_FAILURES} more")
