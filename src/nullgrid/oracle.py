"""Brute-force ground truth: exhaustive counting and verification.

Everything else in the package makes claims; this module checks them by
evaluating polynomials at every grid point.  One exact numpy kernel
(``_kernel_chunks``, guarded by ``_plan``) serves counting,
``transform.grid_values`` and the value matrix of ``min_nonzero_search``
over every ring.  It contracts a coefficient tensor with power tables
built by vectorized square-and-multiply (``_power_table``), for all its
moduli at once: over Z the word primes ride on one leading axis, in
batches sized to ``_CELL_BUDGET`` cells summed over the batch's primes,
and ``_garner`` rebuilds integer values from the residues.  The
pure-Python recursion ``_count_rec`` is kept on purpose as the
independent reference the tests compare the kernel against, and runs
wherever a kernel guard fails, and on any grid until numpy is loaded or
a work budget under its import cost is spent.
``min_nonzero_search`` streams its candidate coefficient vectors in
int64 blocks, decoded in mixed radix when it enumerates the space and
drawn from bulk generator words (the exact ``randrange`` stream of its
seed) when it samples.  When there are fewer classes of vectors that
differ by a scalar than candidates, it scores each class once and looks
each candidate up (``_class_lookup``); ``_scorer`` decides p | v for each
value by one multiplication with the inverse of p modulo 2^64, with no
division.  Each evaluation and each search logs its path at DEBUG level
on the ``nullgrid`` logger.  numpy is imported only when the kernel or
the search runs, so a short run never loads it.

Counting refuses grids above a configurable point limit instead of
running forever, the reference refuses work above ``_REFERENCE_WORK``,
and grid values, which are held all at once, refuse grids above
``DEFAULT_ZERO_SET_CAP`` points.
"""

from __future__ import annotations

import itertools
import random
import sys
from functools import lru_cache
from math import floor, isqrt, prod
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    GridTooLargeError,
    HypothesisViolationError,
    UnsupportedRingError,
    debug,
)
from .poly import GridSpec, Polynomial, annihilator, check_compatible, words
from .ring import RingSpec, is_prime, require_grid_condition

if TYPE_CHECKING:
    from .bounds import BoundReport

DEFAULT_POINT_LIMIT = 100_000_000
DEFAULT_ZERO_SET_CAP = 1_000_000
# most int64 cells in one array of the kernel, counted over every prime of
# a batch: the coefficient tensor, a power table, or an intermediate of one
# S_1 slice (32 MiB)
_CELL_BUDGET = 1 << 22
# most word-size primes the kernel uses over Z before leaving it to the reference
_MAX_PRIMES = 16
_INT64_LIMIT = 1 << 63
# grid points x coefficient words the reference may still take on while
# numpy is not loaded: tens of ms in all, less than importing numpy, so a
# short run never loads it and a long one loses at most about one
# import's time before the kernel takes over
_cold_work_left = 200_000
# most grid points x coefficient words the reference may evaluate (about 1.5 s
# on a 2-vCPU VM); beyond it evaluation is refused
_REFERENCE_WORK = 3 * 10**7


class GridCount(NamedTuple):
    """Exhaustive count of a polynomial over a grid.  zero_set lists the
    zero points in odometer order when collected, else None.  A
    NamedTuple, like the package's other records."""

    nonzeros: int
    zeros: int
    zero_set: tuple[tuple[int, ...], ...] | None = None

    @property
    def grid_size(self) -> int:
        return self.nonzeros + self.zeros


class BoundCheck(NamedTuple):
    """One bound held against brute-force truth.  slack is how far the
    claim is from tight: nonzeros minus the claimed count (or, for
    zero-probability claims, allowed zeros minus actual zeros).  A
    NamedTuple, since one is built per catalogue entry: 0.35 us each,
    against 0.7 us for a frozen dataclass."""

    report: BoundReport
    sound: bool
    slack: int


class VerificationReport(NamedTuple):
    """Every bound of the catalogue held against the exact count, one
    check per catalogue entry.  A NamedTuple."""

    nonzero_count: int
    zero_count: int
    grid_size: int
    checks: tuple[BoundCheck, ...]

    @property
    def all_guaranteed_sound(self) -> bool:
        return all(c.sound for c in self.checks if c.report.guaranteed)


def _substitute_first(terms: dict, value: int, modulus: int | None) -> dict:
    """Plug value into the first variable; keys lose their first entry."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        e = exps[0]
        if e:
            c = c * pow(value, e, modulus) if modulus else c * value**e
        key = exps[1:]
        acc = out.get(key, 0) + c
        if modulus:
            acc %= modulus
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def _count_rec(terms: dict, sets: tuple, modulus: int | None,
               prefix: tuple, zeros: list | None, values: list | None = None) -> int:
    """Nonzero count of the (partially substituted) terms over the
    remaining sets; appends zero points to ``zeros`` and every value, in
    odometer order, to ``values`` when given."""
    if not sets:
        value = terms.get((), 0)
        if values is not None:
            values.append(value)
        if value:
            return 1
        if zeros is not None:
            zeros.append(prefix)
        return 0
    if not terms:
        # identically zero on the remaining subgrid
        if zeros is not None:
            for tail in itertools.product(*sets):
                zeros.append(prefix + tail)
        if values is not None:
            values.extend([0] * prod(map(len, sets)))
        return 0
    nonzeros = 0
    rest = sets[1:]
    for a in sets[0]:
        sub = _substitute_first(terms, a, modulus)
        nonzeros += _count_rec(sub, rest, modulus, prefix + (a,), zeros, values)
    return nonzeros


@lru_cache(maxsize=64)
def _word_primes(width: int) -> tuple[int, ...]:
    """The _MAX_PRIMES largest primes q with (q - 1)^2 * width < 2^63."""
    primes: list[int] = []
    q = isqrt((_INT64_LIMIT - 1) // width) + 1
    while len(primes) < _MAX_PRIMES:
        if is_prime(q):
            primes.append(q)
        q -= 1
    return tuple(primes)


def _reference_words(f: Polynomial, bounds: list[int]) -> int:
    """Machine words the reference handles per grid point: residues below
    m, or integers up to |c| * prod b_i^e_i for the set bounds b_i over Z."""
    m = f.ring.modulus
    if m:
        return len(f.terms) * words(m.bit_length())
    bits = [b.bit_length() for b in bounds]
    return sum(words(abs(c).bit_length() + sum(e * b for e, b in zip(key, bits)))
               for key, c in f.terms.items())


def _plan(f: Polynomial, grid: GridSpec, values: bool) -> tuple | None:
    """The kernel's distinct exponents E_i, moduli, primes per batch and
    S_1 slice height, or None when the reference must run instead.  Logs
    the choice at DEBUG level.

    Once numpy is loaded, every grid goes to the kernel unless a guard
    below fails.  While it is not, grids go to the reference ("numpy not
    loaded") until their points times coefficient words add up to
    ``_cold_work_left``, less work than importing numpy costs; after that
    the kernel runs.  So a short run never imports numpy, whatever its
    input, and a long one pays it once.  The reference is refused with
    GridTooLargeError when points times the words of every term's largest
    value exceed ``_REFERENCE_WORK``.

    Each contraction sums at most |E_i| products of residues below q, so
    the guard (q - 1)^2 * max |E_i| < 2^63 keeps int64 arithmetic exact,
    and with it each product of two residues in the power tables.  Over
    F_p and Z_m the one modulus is m.

    Over Z the kernel takes distinct primes q under the same guard, as
    few as make their product Q exceed the height
    H = sum |c| * prod_i max_{a in S_i} |a|^{e_i}, or 2H for ``values``.
    At every grid point |f(a)| <= H.  If f(a) vanishes modulo every q,
    then Q divides f(a) by the Chinese remainder theorem, and 0 is the
    only multiple of Q in [-H, H], so f(a) = 0; the converse is plain.
    When Q > 2H, f(a) is the one residue of its class modulo Q in
    (-Q/2, Q/2], which ``_garner`` rebuilds.  H = 0 means every term
    carries a variable whose set is {0}, or there are no terms: f
    vanishes on the whole grid, no prime is needed (the empty product
    1 exceeds 0), and with no residue to say otherwise every point is
    a zero of value 0.

    The kernel runs its primes in batches that share every contraction,
    and ``_CELL_BUDGET`` bounds each array of a batch summed over its
    primes: a batch takes as many primes as keep its coefficient tensor
    (prod |E_i| cells a prime), each power table (|S_i| |E_i|) and its
    intermediate for one S_1 element within the budget, and the S_1 slice
    height then fills the budget.  "tensor budget" sends a grid to the
    reference only when one prime's tensor, power table or intermediate
    for one S_1 element exceeds the budget, so splitting the primes into
    more batches never does.
    """
    global _cold_work_left
    exps = [sorted({key[i] for key in f.terms}) or [0] for i in range(f.arity)]
    widths = [len(e) for e in exps]
    m = f.ring.modulus
    bounds = [max(abs(a) for a in s) for s in grid.sets]
    words = _reference_words(f, bounds)
    sizes = grid.sizes
    points = prod(sizes)
    moduli: list[int] = []
    reason = None
    if "numpy" not in sys.modules and points * words <= _cold_work_left:
        _cold_work_left -= points * words
        reason = "numpy not loaded"
    elif m:
        moduli = [m]
        if (m - 1) ** 2 * max(widths) >= _INT64_LIMIT:
            reason = "overflow guard"
    else:
        height = (2 if values else 1) * sum(abs(c) * prod(b ** e for b, e in zip(bounds, key))
                                            for key, c in f.terms.items())
        product = 1
        for q in _word_primes(max(widths)):
            if product > height:
                break
            moduli.append(q)
            product *= q
        if product <= height:
            reason = "prime count"
    # cells per prime per S_1 element of the intermediate once variables 1..i+1 are substituted
    row = max(prod(sizes[1:i + 1]) * prod(widths[i + 1:]) for i in range(grid.arity))
    # cells per prime of the tensor, the intermediate for one S_1 element and
    # each power table; with no prime (H = 0 over Z) no table is built
    tables = [s * w for s, w in zip(sizes, widths)] if moduli else []
    per_prime = max(prod(widths), row, *tables)
    if reason is None and per_prime > _CELL_BUDGET:
        reason = "tensor budget"
    # primes per batch: as many as keep each of the batch's arrays within the budget
    group = max(1, min(len(moduli), _CELL_BUDGET // per_prime))
    rows = min(sizes[0], _CELL_BUDGET // (group * row))
    debug(__name__, "grid evaluation path=%s reason=%s primes=%d chunks=%d",
          "reference" if reason else "kernel", reason or "none",
          0 if m else len(moduli), 0 if reason else -(-sizes[0] // rows))
    if reason is None:
        return exps, moduli, group, rows
    if points * words > _REFERENCE_WORK:
        raise GridTooLargeError(f"reference evaluation needs {points} points x {words} "
                                f"coefficient words, limit is {_REFERENCE_WORK}")
    return None


def _power_table(s: tuple[int, ...], exps: list[int], moduli: list[int]):
    """The int64 array V[k, a, j] = s[a]^exps[j] mod moduli[k], by
    square-and-multiply over the bits of the exponents, all cells at once.

    The elements are reduced modulo each q in Python first, so negative
    and huge integers stay exact; after that every product is of two
    residues below q, exact in int64 while (q - 1)^2 < 2^63, which the
    guard of ``_plan`` implies.  Exponents may exceed int64: only their
    bits are read, in Python.
    """
    import numpy as np

    q = np.array(moduli, dtype=np.int64).reshape(-1, 1, 1)
    power = np.array([[a % m for a in s] for m in moduli], dtype=np.int64).reshape(len(moduli), len(s), 1)
    out = np.ones((len(moduli), len(s), len(exps)), dtype=np.int64)
    for bit in range(max(exps).bit_length()):
        if bit:
            power = power * power % q
        mask = np.array([e >> bit & 1 for e in exps], dtype=bool)
        out[:, :, mask] = out[:, :, mask] * power % q
    return out


def _kernel_chunks(f: Polynomial, grid: GridSpec, exps: list[list[int]],
                   moduli: list[int], group: int, rows: int):
    """Yield (start, stop, batches) for successive slices S_1[start:stop]:
    f modulo each of ``moduli`` on the slice times S_2 x ... x S_n, as one
    int64 array of shape (primes, stop - start, |S_2|, ..., |S_n|) per
    batch of at most ``group`` primes, in odometer order.

    The coefficient tensor T over the distinct exponents E_i is
    contracted with the power tables V_i[a, j] = a^{E_i[j]} mod q
    (``_power_table``), one variable at a time, reducing mod q after each
    step.  Every prime of a batch rides on a leading axis, so each
    ``matmul`` and each ``%`` runs once for the whole batch.  ``_plan``
    supplies moduli that keep this exact, and a batch size and slice
    height that keep the batch's tensor, its power tables and every
    intermediate under the cell budget.
    """
    import numpy as np

    widths = [len(ex) for ex in exps]
    index = [{e: j for j, e in enumerate(ex)} for ex in exps]
    coords = (slice(None),) + tuple(np.array([ix[key[i]] for key in f.terms], dtype=np.intp)
                                    for i, ix in enumerate(index))
    batches = []
    for at in range(0, len(moduli), group):
        qs = moduli[at:at + group]
        tensor = np.zeros([len(qs)] + widths, dtype=np.int64)
        tensor[coords] = [[c % q for c in f.terms.values()] for q in qs]
        tables = [_power_table(s, ex, qs) for s, ex in zip(grid.sets, exps)]
        batches.append((np.array(qs, dtype=np.int64).reshape(-1, 1, 1),
                        tensor.reshape(len(qs), widths[0], -1), tables))
    first = len(grid.sets[0])
    for start in range(0, first, rows):
        stop = min(start + rows, first)
        residues = []
        for q, tensor, (head, *tail) in batches:
            k = len(q)
            r = np.matmul(head[:, start:stop], tensor)
            r %= q
            for v in tail:
                # contract the exponent axis after the rows; the new grid
                # axis goes last, so the next exponent axis comes first
                w = v.shape[2]
                r = np.matmul(r.reshape(k, stop - start, w, -1).swapaxes(2, 3).reshape(k, -1, w),
                              v.swapaxes(1, 2))
                r %= q
            residues.append(r.reshape((k, stop - start) + grid.sizes[1:]))
        yield start, stop, residues


def _garner(residues, moduli: list[int]):
    """The values in (-Q/2, Q/2], Q = prod(moduli), with the given int64
    residues, as object arrays: Garner's mixed-radix algorithm adds one
    digit t_k < q_k per modulus, so the partial value v stays below the
    product P of the moduli so far and v + P t_k = r_k (mod q_k)."""
    import numpy as np

    value, product = 0, 1
    for r, q in zip(residues, moduli):
        digit = (r.astype(object) - value) * pow(product, -1, q) % q
        value, product = value + product * digit, product * q
    return np.where(value > product // 2, value - product, value)


def _grid_values(f: Polynomial, grid: GridSpec) -> list[int]:
    """f at every grid point in odometer order, as canonical integers;
    grids over DEFAULT_ZERO_SET_CAP points raise GridTooLargeError."""
    size = grid.size()
    if size > DEFAULT_ZERO_SET_CAP:
        raise GridTooLargeError(f"grid has {size} points, value limit is {DEFAULT_ZERO_SET_CAP}")
    plan = _plan(f, grid, values=True)
    if plan is None:
        out: list[int] = []
        _count_rec(f.terms, grid.sets, f.ring.modulus, (), None, out)
        return out
    moduli = plan[1]
    if not moduli:  # H = 0 over Z
        return [0] * size
    import numpy as np

    rebuild = (lambda res: res[0][0]) if f.ring.modulus else (lambda res: _garner(itertools.chain(*res), moduli))
    return np.concatenate([rebuild(res).ravel() for _, _, res in _kernel_chunks(f, grid, *plan)]).tolist()


def count_nonzeros(f: Polynomial, grid: GridSpec, *,
                   collect_zeros: bool = True,
                   point_limit: int = DEFAULT_POINT_LIMIT) -> GridCount:
    """Count the grid points where f is nonzero, by full enumeration.

    The zero set is collected only when the grid has at most
    ``DEFAULT_ZERO_SET_CAP`` points and ``collect_zeros`` is set.  Grids
    larger than ``point_limit`` raise GridTooLargeError.  The grid must
    pass the zero-divisor difference condition; otherwise zero counts
    over Z_m would not mean what callers assume.
    """
    check_compatible(f, grid)
    require_grid_condition(f.ring, grid)
    size = grid.size()
    if size > point_limit:
        raise GridTooLargeError(f"grid has {size} points, limit is {point_limit}")
    want_zeros = collect_zeros and size <= DEFAULT_ZERO_SET_CAP
    zeros: list | None = [] if want_zeros else None
    plan = _plan(f, grid, values=False)
    if plan is None:
        nonzeros = _count_rec(f.terms, grid.sets, f.ring.modulus, (), zeros)
        return GridCount(nonzeros, size - nonzeros, None if zeros is None else tuple(zeros))

    import numpy as np

    columns = [np.array(s, dtype=object) for s in grid.sets]
    nonzeros = 0
    for start, stop, residues in _kernel_chunks(f, grid, *plan):
        hit = np.zeros((stop - start,) + grid.sizes[1:], dtype=bool)
        for r in residues:
            hit |= r.any(axis=0)
        nonzeros += int(np.count_nonzero(hit))
        if zeros is not None:
            at = np.argwhere(~hit)
            at[:, 0] += start
            # object columns hand back the grid's own ints, in odometer order
            zeros.extend(zip(*(col[at[:, i]] for i, col in enumerate(columns))))
    return GridCount(nonzeros, size - nonzeros, None if zeros is None else tuple(zeros))


def verify_bounds(f: Polynomial, grid: GridSpec, *,
                  count: GridCount | None = None) -> VerificationReport:
    """Hold every collected ``BoundReport`` against the brute-force count,
    one ``BoundCheck`` each.

    ``count`` is the ``count_nonzeros`` result of f on this grid when the
    caller already has it; otherwise the grid is counted here.  Asymptotic
    entries are skipped (no finite grid can falsify them), and the
    classical total-degree bound that presumes a nonzero value on the
    grid is skipped when that presumption fails.
    """
    from . import bounds

    if count is None:
        count = count_nonzeros(f, grid, collect_zeros=False)
    nonzeros, zeros, size = count.nonzeros, count.zeros, count.grid_size
    checks: list[BoundCheck] = []
    for rep in bounds.collect_bounds(f, grid):
        if rep.asymptotic or (rep.requires_nonzero_on_grid and not nonzeros):
            continue
        if rep.kind == "zero-probability":
            slack = floor(rep.value * size) - zeros
        else:
            slack = nonzeros - rep.value
        checks.append(BoundCheck(rep, slack >= 0, slack))
    return VerificationReport(nonzeros, zeros, size, tuple(checks))


def tightness_family(grid: GridSpec, d: tuple[int, ...]) -> Polynomial:
    """The product polynomial prod_i prod_{a in A_i} (x_i - a), A_i the
    first d_i elements of S_i in stored order, which attains the product
    bound with slack zero.

    Its nonzeros on the grid are exactly the points avoiding every A_i,
    and there are prod (|S_i| - d_i) of them.
    """
    d = tuple(d)
    if len(d) != grid.arity:
        raise ValueError(f"degree vector {d} does not match grid arity {grid.arity}")
    ring = grid.ring
    for i, (di, s) in enumerate(zip(d, grid.sets)):
        if not 0 <= di <= len(s):
            raise HypothesisViolationError(f"need 0 <= d_{i + 1} <= |S_{i + 1}|, got {di}")
    # a product of univariate factors in distinct variables: each
    # coefficient is a product of one coefficient per factor
    factors = [[(k, c) for k, c in enumerate(annihilator(ring, s[:di])) if c]
               for di, s in zip(d, grid.sets)]
    return Polynomial(grid.arity, ring, {tuple(k for k, _ in combo): prod(c for _, c in combo)
                                         for combo in itertools.product(*factors)})


class MinNonzeroResult(NamedTuple):
    """Outcome of the minimum-nonzero-count search over a coefficient
    space.  exhaustive is False when only a sampled subset was tried.
    A NamedTuple."""

    min_count: int
    witness: Polynomial
    exhaustive: bool
    tried: int


def min_nonzero_search(support: tuple[tuple[int, ...], ...], required: tuple[int, ...],
                       grid: GridSpec, *, exhaustive_limit: int = 10_000_000,
                       sample_budget: int = 200_000, seed: int = 0) -> MinNonzeroResult:
    """Minimum nonzero count over all polynomials with the given support
    whose ``required`` coefficient is nonzero, over a prime field.

    The required monomial must be maximal within the support, so the
    existence guarantee applies to every candidate and the reported
    minimum is meaningful.  The space has (p-1) * p^(k-1) candidate
    coefficient vectors; when that exceeds ``exhaustive_limit`` a seeded
    random sample of ``sample_budget`` candidates is scored instead and
    the result is flagged non-exhaustive.

    Scaling a coefficient vector by any lambda != 0 leaves its zeros on
    the grid where they are, so the candidates fall into p^(k-1) classes
    of p - 1 vectors; each class has one representative whose required
    coefficient is 1, and every member has the representative's count.
    One rule picks what is scored: when there are fewer classes than
    candidates to try (every enumerated space with p > 2, and a sample
    of more than p^(k-1) candidates), each representative is scored once
    into a table of counts and each candidate c reads the entry of
    c * c[req]^-1 mod p (``_class_lookup``); otherwise each candidate is
    scored (``_scorer``).  Either way the candidates come in the same
    stream, described below, and the first one that reaches the least
    count wins (``_best_assignment``).  No candidate goes below the
    table's least entry (or below 0), so the scan stops at the first
    candidate that reaches it: later ones could only tie, and a tie
    keeps the earlier candidate.  So ``min_count``, the witness,
    ``exhaustive`` and ``tried`` (the candidates the answer covers) are
    those of scoring every candidate one by one.
    Rows are scored in int64 blocks of at most ``_BLOCK_ROWS`` rows
    (fewer when the grid is large, so one block's value matrix stays
    under the cell budget), and the answer does not depend on the block
    size.  Each block is scored by one matrix product and, for each
    value v, an exact test of p | v by multiplication in uint64
    (``_scorer``), with no int64 ``% p``.
    The exhaustive path decodes an index range in mixed radix
    (``_product_blocks``), which is ``itertools.product`` order.  The
    sampled path yields, for every seed, exactly the vectors of
    ``rng = random.Random(seed)`` and
    ``rng.randrange(1, p) if i == req else rng.randrange(p)`` for
    i = 0..k-1, one vector after another (``_sample_blocks``).  When p
    has more than 32 bits, each draw takes several generator words and
    ``randrange`` itself fills the blocks.  Otherwise each draw of
    ``randrange(n)`` takes one 32-bit Mersenne Twister output w at a
    time, keeps its top b = n.bit_length() bits, and stops at the first
    value below n.  ``getrandbits(32 m)`` returns the next m outputs as
    the little-endian words of one integer, so the block reads the same
    outputs in the same order.  The required slot uses n = p - 1 and
    adds 1; the others use n = p.  When p > 2, p - 1 and p have the
    same bit length b, so every slot reads the same top b bits t of an
    output: t < p - 1 is taken by every slot, t >= p by none, and only
    t = p - 1 depends on the slot (the required slot rejects it, the
    others take it).  At p = 2 the required slot reads one bit and the
    others two, and both take exactly the outputs whose top bit is 0.
    ``_accepted_values`` takes the outputs every slot takes at once and
    walks only the slot-dependent ones in order, counting the outputs
    taken before each to know its slot.
    Accepted values left over after a block are kept for the next.
    One DEBUG record on the ``nullgrid`` logger names the path, the
    candidate and block counts, the source of the values, and what was
    scored (classes or candidates) with its number of rows.
    """
    ring = grid.ring
    if not ring.is_field:
        raise UnsupportedRingError("minimum search needs a prime field")
    p = ring.modulus
    support = tuple(sorted({tuple(m) for m in support}, key=lambda e: (sum(e), e), reverse=True))
    required = tuple(required)
    if required not in support:
        raise ValueError(f"required monomial {required} not in support")
    for m in support:
        if len(m) != grid.arity:
            raise ValueError(f"support monomial {m} does not match grid arity {grid.arity}")
        if m != required and all(a >= b for a, b in zip(m, required)):
            raise HypothesisViolationError(
                f"required monomial {required} is dominated by {m}; it must be maximal in the support")

    k = len(support)
    req_idx = support.index(required)
    space = (p - 1) * p ** (k - 1)
    classes = p ** (k - 1)

    # value matrix: one column per grid point, one row per support monomial
    matrix = [_grid_values(Polynomial.monomial(grid.arity, ring, m), grid) for m in support]
    rows = max(1, min(_BLOCK_ROWS, _CELL_BUDGET // grid.size()))

    if space <= exhaustive_limit:
        blocks = _product_blocks(p, k, req_idx, space, rows)
        exhaustive, tried, source = True, space, "radix"
    else:
        blocks = _sample_blocks(random.Random(seed), p, k, req_idx, sample_budget, rows)
        exhaustive, tried = False, sample_budget
        source = "words" if p.bit_length() <= 32 else "randrange"
    by_class = classes < tried
    debug(__name__, "min search path=%s candidates=%d blocks=%d source=%s scored=%s rows=%d",
          "exhaustive" if exhaustive else "sampled", tried, -(-tried // rows), source,
          "classes" if by_class else "candidates", classes if by_class else tried)

    score, least = _scorer(matrix, p), 0
    if by_class:
        score, least = _class_lookup(score, p, k, req_idx, rows, grid.size())
    best_count, best_coeffs = _best_assignment(blocks, score, least)
    witness = Polynomial(grid.arity, ring, dict(zip(support, best_coeffs)))
    return MinNonzeroResult(best_count, witness, exhaustive, tried)


# most candidate rows in one block
_BLOCK_ROWS = 4096


def _product_blocks(p: int, k: int, req: int, space: int, rows: int):
    """Yield the vectors of ``itertools.product`` over range(1, 1 + r) in
    slot ``req`` and range(p) elsewhere, r = space // p^(k-1), as int64
    blocks of ``rows`` rows: candidate number t is t written in mixed
    radix (r for slot req, p for the others, last slot least
    significant), plus 1 in slot req.  r = p - 1 gives every candidate
    of the search, r = 1 every class representative."""
    import numpy as np

    radices = [space // p ** (k - 1) if i == req else p for i in range(k)]
    for start in range(0, space, rows):
        index = np.arange(start, min(start + rows, space), dtype=np.int64)
        block = np.empty((len(index), k), dtype=np.int64)
        for i in reversed(range(k)):
            index, block[:, i] = np.divmod(index, radices[i])
        block[:, req] += 1
        yield block


def _sample_blocks(rng: random.Random, p: int, k: int, req: int, budget: int, rows: int):
    """Yield ``budget`` vectors drawn as ``rng.randrange(1, p)`` in slot
    ``req`` and ``rng.randrange(p)`` elsewhere, in blocks of ``rows``
    rows: int64 from bulk generator words when p has at most 32 bits,
    from ``randrange`` itself (object dtype) otherwise."""
    import numpy as np

    if p.bit_length() > 32:
        for start in range(0, budget, rows):
            yield np.array([[rng.randrange(1, p) if i == req else rng.randrange(p)
                             for i in range(k)] for _ in range(min(rows, budget - start))],
                           dtype=object)
        return
    pending = np.empty(0, dtype=np.int64)  # accepted values not yet handed out, from slot 0
    for start in range(0, budget, rows):
        need = min(rows, budget - start) * k
        parts, have = [pending], len(pending)
        while have < need:
            # every slot accepts an output with probability at least (p - 1) / 2^b
            m = ((need - have) << p.bit_length()) // (p - 1) + 16
            words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
            values = _accepted_values(words.astype(np.int64), p, k, req, have % k)
            parts.append(values)
            have += len(values)
        pending = np.concatenate(parts)
        yield pending[:need].reshape(-1, k)
        pending = pending[need:]


def _accepted_values(words, p: int, k: int, req: int, slot: int):
    """The values that ``randrange`` draws from the 32-bit outputs
    ``words`` when the first output goes to slot ``slot`` of a vector of
    k slots (see ``min_nonzero_search`` for why this is exact)."""
    import numpy as np

    top_req = words >> (32 - (p - 1).bit_length())
    top = words >> (32 - p.bit_length())
    ok_req = top_req < p - 1
    ok = top < p
    taken = ok & ok_req
    # outputs taken by every slot before each output, then the walk over the rest
    before = np.cumsum(taken) - taken
    mixed = np.flatnonzero(ok != ok_req)
    extra = 0
    for j, ahead, yes_req, yes in zip(mixed.tolist(), before[mixed].tolist(),
                                      ok_req[mixed].tolist(), ok[mixed].tolist()):
        if yes_req if (slot + ahead + extra) % k == req else yes:
            taken[j] = True
            extra += 1
    at = np.flatnonzero(taken)
    slots = (slot + np.arange(len(at))) % k
    return np.where(slots == req, top_req[at] + 1, top[at])


def _scorer(matrix: list[list[int]], p: int):
    """The function that maps a block of coefficient vectors to each row's
    count of nonzero grid values, given the value matrix (one row per
    support monomial, one column per grid point) over F_p.

    Scores each block with one integer matrix product.  While every
    value v <= (p - 1)^2 k stays below 2^62, the product runs in int64
    and p | v is decided without a division (Granlund and Montgomery):
    for odd p, with p' the inverse of p modulo 2^64, the map
    v -> v p' mod 2^64 permutes [0, 2^64) and sends the multiples of p,
    and only them, to [0, (2^64 - 1) // p]; for p = 2, v 2^63 mod 2^64 is
    0 exactly when v is even.  One uint64 multiply and one compare per
    value replace int64 ``% p``, in buffers reused from block to block.
    Beyond 2^62 the product runs on Python integers (object arrays), where
    no word-size test applies, and keeps ``% p``.
    """
    import numpy as np

    wide = p * p * len(matrix) >= 2**62
    mat = np.array(matrix, dtype=object if wide else np.int64)
    factor, limit = (1 << 63, 0) if p == 2 else (pow(p, -1, 1 << 64), ((1 << 64) - 1) // p)
    factor, limit = np.uint64(factor), np.uint64(limit)
    values = live = None

    def score(block):
        nonlocal values, live
        if wide:
            return np.count_nonzero((block.astype(object, copy=False) @ mat) % p, axis=1)
        if values is None or len(block) > len(values):
            values = np.empty((len(block), mat.shape[1]), dtype=np.int64)
            live = np.empty(values.shape, dtype=bool)
        v, nonzero = values[:len(block)], live[:len(block)]
        np.matmul(block.astype(np.int64, copy=False), mat, out=v)
        u = v.view(np.uint64)
        np.multiply(u, factor, out=u)
        np.greater(u, limit, out=nonzero)
        return np.count_nonzero(nonzero, axis=1)

    return score


def _class_lookup(score, p: int, k: int, req: int, rows: int, points: int):
    """A scorer of the same counts as ``score`` that scores each class
    once, and the least count of any class.

    ``score`` runs on the p^(k-1) class representatives (1 in slot
    ``req``, ``_product_blocks`` order) in blocks of ``rows`` rows, into
    a table of the smallest dtype that holds counts up to ``points``.
    Candidate c then reads the count of c * c[req]^-1 mod p, whose entry
    is its slots other than req read in radix p, last slot least
    significant.  c is a nonzero multiple of that representative, so it
    vanishes at the same grid points.  The residues are exact in uint64
    while p < 2^32, as the products of two stay below 2^64, and on
    Python integers beyond."""
    import numpy as np

    classes = p ** (k - 1)
    table = np.empty(classes, dtype=np.min_scalar_type(points))
    for start, block in zip(range(0, classes, rows), _product_blocks(p, k, req, classes, rows)):
        table[start:start + len(block)] = score(block)
    dtype = np.uint64 if p < 2**32 else object
    free = [i for i in range(k) if i != req]
    inverse = _inverses(p, dtype) if free else None

    def lookup(block):
        index = np.zeros(len(block), dtype=dtype)
        if free:
            scale = inverse[block[:, req].astype(np.intp)]
            for i in free:
                index = index * p + block[:, i].astype(dtype) * scale % p
        return table[index.astype(np.intp)]

    return lookup, int(table.min())


def _inverses(p: int, dtype):
    """a^-1 mod p at index a for 0 < a < p, as a^(p-2) (Fermat), by
    square-and-multiply over every residue at once."""
    import numpy as np

    power = np.arange(p).astype(dtype)
    out = np.ones_like(power)
    e = p - 2
    while e:
        if e & 1:
            out = out * power % p
        power = power * power % p
        e >>= 1
    return out


def _best_assignment(blocks, score, least: int = 0) -> tuple[int, tuple[int, ...]]:
    """The first coefficient vector, over the blocks in order, that
    reaches the least count ``score`` gives any row, with that count.
    Ties keep the earliest row, within a block and across blocks, so the
    answer does not depend on where the block boundaries fall.  ``least``
    is a count no row goes below: the scan stops at the first row that
    reaches it, without drawing further blocks."""
    import numpy as np

    best_count: int | None = None
    best_coeffs: tuple[int, ...] | None = None
    for block in blocks:
        counts = score(block)
        i = int(np.argmin(counts))
        if best_count is None or counts[i] < best_count:
            best_count = int(counts[i])
            best_coeffs = tuple(int(c) for c in block[i])
            if best_count <= least:
                break
    if best_coeffs is None:
        raise ValueError("no candidate coefficient vectors")
    return best_count, best_coeffs


def random_polynomial(arity: int, caps: tuple[int, ...], density: float,
                      ring: RingSpec, seed: int) -> Polynomial:
    """A random polynomial with exponents in the box [0, caps].

    Every box monomial is included independently with probability
    ``density`` and a uniform nonzero coefficient (from [-9, 9] over Z).
    Deterministic per seed; redraws until at least one term appears, so
    the result is never the zero polynomial.
    """
    caps = tuple(caps)
    if len(caps) != arity or any(c < 0 for c in caps):
        raise ValueError(f"bad caps {caps} for arity {arity}")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    box = list(itertools.product(*(range(c + 1) for c in caps)))

    def coefficient() -> int:
        if ring.modulus:
            return rng.randrange(1, ring.modulus)
        c = rng.randrange(1, 10)
        return -c if rng.random() < 0.5 else c

    while True:
        terms = {exps: coefficient() for exps in box if rng.random() < density}
        if terms:
            return Polynomial(arity, ring, terms)
