"""Extremal search for multiplication/addition table agreements.

Fix row keys a_1 < ... < a_s and column keys b_1 < ... < b_s (distinct
integers).  The multiplication table holds a_i * b_j; an addition table
holds u_i + v_j for free sequences u, v.  A cell (i, j) agrees when
a_i * b_j = u_i + v_j, i.e. exactly when the polynomial
f(x, y) = -x*y + P(x) + Q(y) vanishes at (a_i, b_j) for interpolating P
and Q.  Agreement patterns therefore avoid 2x2 all-agree rectangles
(a K_{2,2}), since (a_i - a_k)(b_j - b_l) = 0 is impossible for distinct
keys; the Zarankiewicz bound caps the count at s(1 + sqrt(4s - 3))/2.

Two searches look for large patterns: an exhaustive scan of a canonical
space (small s only) and a seeded hill climb with restarts.
"""

from __future__ import annotations

import itertools
import random
from math import comb, isqrt, lgamma, log, log1p
from typing import NamedTuple

from .errors import FULL_FIGURE, SearchBudgetError, charge


class _PuzzleFields(NamedTuple):
    a: tuple[int, ...]
    b: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]


class PuzzleInstance(_PuzzleFields):
    """Row/column keys and the addition-table offsets.  Row keys and
    column keys must each be distinct; u and v are unconstrained.

    A NamedTuple that validates on construction, ``_make`` and
    ``_replace`` included, so an invalid instance cannot be built."""

    __slots__ = ()

    def __new__(cls, a: tuple[int, ...], b: tuple[int, ...], u: tuple[int, ...], v: tuple[int, ...]):
        s = len(a)
        if not (len(b) == len(u) == len(v) == s) or s == 0:
            raise ValueError("a, b, u, v must be nonempty and of equal length")
        if len(set(a)) != s:
            raise ValueError(f"row keys must be distinct, got {a}")
        if len(set(b)) != s:
            raise ValueError(f"column keys must be distinct, got {b}")
        return super().__new__(cls, a, b, u, v)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def s(self) -> int:
        return len(self.a)

    def multiplication_table(self) -> list[list[int]]:
        return [[ai * bj for bj in self.b] for ai in self.a]

    def addition_table(self) -> list[list[int]]:
        return [[ui + vj for vj in self.v] for ui in self.u]


class AgreementPattern(NamedTuple):
    """The agreeing cells of an instance, as 0-based (row, column) pairs.
    A NamedTuple, like the other records of this module."""

    cells: frozenset[tuple[int, int]]
    count: int


def agreement_count(inst: PuzzleInstance) -> AgreementPattern:
    cells = frozenset(
        (i, j)
        for i, (ai, ui) in enumerate(zip(inst.a, inst.u))
        for j, (bj, vj) in enumerate(zip(inst.b, inst.v))
        if ai * bj == ui + vj
    )
    return AgreementPattern(cells, len(cells))


def k22_check(pattern: AgreementPattern) -> bool:
    """True when no two rows agree in two common columns (no K_{2,2})."""
    columns: dict[int, set[int]] = {}
    for i, j in pattern.cells:
        columns.setdefault(i, set()).add(j)
    rows = sorted(columns)
    for x, r1 in enumerate(rows):
        for r2 in rows[x + 1:]:
            if len(columns[r1] & columns[r2]) >= 2:
                return False
    return True


def zarankiewicz_k22_bound(s: int) -> int:
    """floor(s(1 + sqrt(4s - 3))/2): the largest K_{2,2}-free cell count
    in an s x s table, computed exactly with integer square roots."""
    if s < 1:
        raise ValueError("s must be positive")
    return (s + isqrt(s * s * (4 * s - 3))) // 2


class SearchResult(NamedTuple):
    """Best instance of ``exhaustive_search``, its pattern, and how many
    (a, b, u) tuples it examined.  A NamedTuple."""

    instance: PuzzleInstance
    pattern: AgreementPattern
    examined: int


def _tuples_order(m: int, s: int) -> int:
    """The nearest integer to log10 of comb(m, s)^2 m^(s - 1), from logs,
    without building either.  ln C(m, k) = ln m!/n! - ln k! with k =
    min(s, m - s) and n = m - k; ln m!/n! comes from Stirling's series to
    its 1/12n term, the log of n/m taken by log1p, so nothing cancels when
    m is far above k.  Past the float range, the order of m^(s - 1) alone."""
    k = min(s, m - s)
    n = m - k
    try:
        ln_comb = k * log(m) - (n + 0.5) * log1p(-k / m) - k + (1 / m - 1 / n) / 12 - lgamma(k + 1)
        return round((2 * ln_comb + (s - 1) * log(m)) / log(10))
    except OverflowError:
        return (s - 1) * (m.bit_length() - 1) * 30103 // 100000


def _check_search(s: int, budget: int, value_range: int) -> None:
    """Refuse what neither search can take; R = value_range must seat s distinct keys."""
    if s < 1:
        raise ValueError("s must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if value_range < 0:
        raise ValueError("value_range must be nonnegative")
    if 2 * value_range + 1 < s:
        raise ValueError(f"range [-{value_range}, {value_range}] cannot seat {s} distinct keys")


def exhaustive_search(s: int, value_range: int, budget: int = 100_000_000) -> SearchResult:
    """Best canonical instance with keys and offsets within [-R, R].

    Canonical form: a and b strictly increasing, u_1 = 0 (translation
    invariance: shifting u by c and v by -c preserves agreements).  For
    each (a, b, u) the optimal v is chosen column by column, since column
    j's agreement count depends on v_j alone; candidates outside [-R, R]
    are discarded.  Note the u_1 = 0 normalization of an instance can push
    v entries past R, so the canonical space is a mild restriction of the
    raw one at the same R.

    The space holds comb(2R + 1, s)^2 (2R + 1)^(s - 1) tuples, charged
    against ``budget`` before the scan.  Once m^(s - 1) alone has more bits
    than the budget and than ``errors.FULL_FIGURE``, the count is refused
    unbuilt, its order of magnitude taken from ``_tuples_order``.
    """
    _check_search(s, budget, value_range)
    R = value_range
    m = 2 * R + 1
    # m^(s - 1) alone has at least this many bits: past the budget and the
    # figures shown in full, the count is never built, only its log taken
    charge((s - 1) * (m.bit_length() - 1), max(budget.bit_length(), FULL_FIGURE.bit_length()), SearchBudgetError,
           "~10^{} candidate (a, b, u) tuples exceed the budget {}; use local_search", _tuples_order(m, s), budget)
    examined = comb(m, s) ** 2 * m ** (s - 1)
    charge(examined, budget, SearchBudgetError,
           "{work} candidate (a, b, u) tuples exceed the budget {limit}; use local_search")

    keys = range(-R, R + 1)
    offsets = range(-R, R + 1)
    best: tuple[int, PuzzleInstance] | None = None
    for a in itertools.combinations(keys, s):
        for b in itertools.combinations(keys, s):
            products = [[ai * bj for ai in a] for bj in b]  # column-major
            for u_tail in itertools.product(offsets, repeat=s - 1):
                u = (0,) + u_tail
                count = 0
                v = []
                for col in products:
                    tally: dict[int, int] = {}
                    for pi, ui in zip(col, u):
                        cand = pi - ui
                        if -R <= cand <= R:
                            tally[cand] = tally.get(cand, 0) + 1
                    if tally:
                        vj = max(tally, key=lambda c: (tally[c], -c))
                        count += tally[vj]
                        v.append(vj)
                    else:
                        v.append(0)
                if best is None or count > best[0]:
                    best = (count, PuzzleInstance(a, b, u, tuple(v)))
    inst = best[1]
    return SearchResult(inst, agreement_count(inst), examined)


# sideways or worse steps of local_search before it restarts from a fresh instance
STALL_LIMIT = 1_000


class LocalSearchResult(NamedTuple):
    """Best instance of ``local_search``, its pattern, the steps and
    restarts taken, and each improvement of the best count.  A NamedTuple."""

    instance: PuzzleInstance
    pattern: AgreementPattern
    steps: int
    restarts: int
    history: tuple[tuple[int, int, int], ...]  # (restart, step, best count so far)


def local_search(s: int, *, budget: int = 100_000, seed: int = 0,
                 value_range: int = 8) -> LocalSearchResult:
    """Hill climb over instances with entries in [-R, R].

    Moves: nudge one entry by +-1, resample one entry, or swap two entries
    within one sequence.  Moves that break key distinctness are rejected.
    Sideways moves (equal count) are accepted to walk plateaus; after
    ``STALL_LIMIT`` steps without strict improvement the state restarts
    from a fresh random instance.  Deterministic for a fixed seed: one
    generator drives everything, and the best instance ever seen is
    returned with its re-verified pattern.
    """
    _check_search(s, budget, value_range)
    R = value_range
    rng = random.Random(seed)

    def fresh() -> list[list[int]]:
        a = rng.sample(range(-R, R + 1), s)
        b = rng.sample(range(-R, R + 1), s)
        u = [rng.randint(-R, R) for _ in range(s)]
        v = [rng.randint(-R, R) for _ in range(s)]
        return [a, b, u, v]

    def count_of(state: list[list[int]]) -> int:
        a, b, u, v = state
        return sum(1 for i in range(s) for j in range(s) if a[i] * b[j] == u[i] + v[j])

    state = fresh()
    current = count_of(state)
    best_state = [list(seq) for seq in state]
    best_count = current
    history = [(0, 0, best_count)]
    restarts = 0
    stall = 0

    for step in range(1, budget + 1):
        seq = rng.randrange(4)
        arr = state[seq]
        saved = arr[:]  # restored when the move is rejected
        move = rng.randrange(3)
        if move < 2:  # nudge by +-1, or resample
            i = rng.randrange(s)
            cand = arr[i] + (1 if rng.randrange(2) else -1) if move == 0 else rng.randint(-R, R)
            if cand < -R or cand > R:
                continue
            arr[i] = cand
            if seq < 2 and len(set(arr)) != s:
                state[seq] = saved
                continue
        else:  # swap
            if s == 1:
                continue
            i, j = rng.sample(range(s), 2)
            arr[i], arr[j] = arr[j], arr[i]

        cand_count = count_of(state)
        if cand_count >= current:
            improved = cand_count > current
            current = cand_count
            if cand_count > best_count:
                best_count = cand_count
                best_state = [list(x) for x in state]
                history.append((restarts, step, best_count))
            stall = 0 if improved else stall + 1
        else:
            state[seq] = saved
            stall += 1
        if stall >= STALL_LIMIT:
            state = fresh()
            current = count_of(state)
            restarts += 1
            stall = 0

    a, b, u, v = best_state
    inst = PuzzleInstance(tuple(a), tuple(b), tuple(u), tuple(v))
    return LocalSearchResult(inst, agreement_count(inst), budget, restarts, tuple(history))
