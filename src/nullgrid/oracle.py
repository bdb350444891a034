"""Brute-force ground truth: exhaustive counting and verification.

Everything else in the package makes claims; this module checks them by
evaluating polynomials at every grid point.  One exact numpy kernel
(``_kernel_chunks``, guarded by ``_plan``) serves counting,
``transform.grid_values`` and the value matrix of ``min_nonzero_search``
over every ring.  It contracts a coefficient tensor with power tables
built by vectorized square-and-multiply (``_power_table``), for all its
moduli at once: over Z the word primes ride on one leading axis, in
batches sized to ``_CELL_BUDGET`` cells summed over the batch's primes,
and ``_garner`` rebuilds integer values from the residues.  A count over
Z runs the first prime alone and the others only on an S_1 slice that
still holds a zero candidate: a point is a zero exactly when f vanishes
modulo every prime, and a nonzero value is a multiple of a word prime
about once in 2^30, the Schwartz-Zippel argument run on the oracle.  The
pure-Python generator ``_reference_values`` is kept on purpose as the
independent reference the tests compare the kernel against: it yields
f's values in odometer order, the kernel's order, substituting one
variable at a time, and counts, zero sets and value lists all read that
one stream, with the open levels on a stack rather than the call stack.
It runs wherever a kernel guard fails, and on any grid until numpy is
loaded or a work budget under its import cost is spent.
``min_nonzero_search`` streams its candidate coefficient vectors in
int64 blocks, decoded in mixed radix when it enumerates the space and
drawn from bulk generator words (the exact ``randrange`` stream of its
seed) when it samples.  When there are fewer classes of vectors that
differ by a scalar than candidates, and their table fits the cell budget
like any other array here, it counts each class's zeros by hyperplane
incidence, one ``np.bincount`` per chunk of grid points, and looks each
candidate up (``_class_lookup``); otherwise ``_scorer`` scores each
block with one integer matrix product and ``% p``, in int64 while the
values stay below 2^62.  Each evaluation and each search logs its path at
DEBUG level on the ``nullgrid`` logger.  numpy is imported only when the
kernel or the search runs, so a short run never loads it.

Counting refuses grids above a configurable point limit instead of
running forever, the reference refuses work above ``_REFERENCE_WORK``,
the minimum search refuses multiply-adds above its share of
``poly.MAX_WORK``, and grid values, which are held all at once, refuse
grids above ``DEFAULT_ZERO_SET_CAP`` points.  ``_grid_values`` returns
them as one flat list in odometer order, one int per point, which
``transform.grid_values`` wraps in a read-only mapping view, not a dict.
"""

from __future__ import annotations

import itertools
import random
import sys
from functools import lru_cache, partial
from math import floor, isqrt, prod
from operator import getitem, mul, not_
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    GridTooLargeError,
    HypothesisViolationError,
    SearchBudgetError,
    UnsupportedRingError,
    charge,
    debug,
)
from .poly import MAX_WORK, GridSpec, Polynomial, annihilator, check_compatible, words
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
# steps of ``_reference_steps`` the reference may still take on while
# numpy is not loaded: 4 to 12 ms in all on one core of a 2-vCPU VM, a
# quarter of importing numpy there or less, so a short run never loads it
# and a long one loses little before the kernel takes over
_cold_work_left = 500_000
# most steps of ``_reference_steps`` the reference may take, beyond which
# evaluation is refused: the largest grid admitted ran 0.4 to 0.8 s, over
# F_p, Z_m and Z, narrow and wide values and exponents up to 2^1000, on one
# core of a 2-vCPU VM
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
    NamedTuple, since one is built per catalogue entry: 0.27 us through
    this constructor, against 0.52 us for a frozen dataclass.
    ``verify_bounds`` builds each as ``tuple.__new__(BoundCheck, (report,
    sound, slack))``, the same record without the generated Python
    ``__new__`` frame: 0.16 us (one pinned core of a 2-vCPU VM, Python
    3.11)."""

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


def _reference_values(terms: dict, sets: tuple, modulus: int | None):
    """Yield the (partially substituted) terms' values on the remaining
    sets, at least one, in odometer order, substituting one variable at a
    time.  The substitutions of each open level wait on a stack, not in
    nested frames, so no number of variables reaches the recursion limit."""
    stack = [iter((terms,))]  # stack[i] yields the terms with x_1..x_i substituted
    while stack:
        rest, done = next(stack[-1], None), len(stack) - 1
        if rest is None:
            stack.pop()
        elif not rest:
            # identically zero on the remaining subgrid
            yield from itertools.repeat(0, prod(map(len, sets[done:])))
        elif done == len(sets) - 1:
            for a in sets[done]:
                yield _substitute_first(rest, a, modulus).get((), 0)
        else:
            stack.append(map(partial(_substitute_first, rest, modulus=modulus), sets[done]))


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


def _reference_steps(f: Polynomial, sizes: tuple[int, ...], bounds: list[int]) -> int:
    """The time ``_reference_values`` takes on a grid of these set sizes
    and bounds, in steps, each measured at 8 to 27 ns on one core of a
    2-vCPU VM.

    Variable i is substituted once per element of S_1 x ... x S_i, into
    each distinct exponent suffix (e_i, ..., e_n) of the terms.  Such a
    pass costs 8 steps, and each suffix 8 more plus its products, a
    product of u- and v-word integers counting u v // 4.  Modulo a w-word
    m, ``pow`` takes about one product of residues per bit of e_i, and one
    more multiplies the coefficient.  Over Z, a**e_i of v words costs
    v (1 + isqrt(v // 2)), since its squarings run at Karatsuba's
    v^1.58, and multiplying it into a coefficient of u words so far u v // 4.
    """
    m = f.ring.modulus
    w = words(m.bit_length()) if m else 0
    bits = [b.bit_length() for b in bounds]
    # walked from the last variable back, so no key is sliced: a term's suffix is numbered from e_i and
    # its number at i + 1, and its bits so far are its bits less e_j bits(b_j) for j >= i
    suffix = [0] * len(f.terms)
    so_far = [abs(c).bit_length() + sum(map(mul, key, bits)) for key, c in f.terms.items()]
    steps = 0
    for i, passes in reversed(list(enumerate(itertools.accumulate(sizes, mul)))):
        number: dict[tuple[int, int], int] = {}
        cost: dict[int, int] = {}
        for t, key in enumerate(f.terms):
            e = key[i]
            j = suffix[t] = number.setdefault((e, suffix[t]), len(number))
            if m:
                step = (1 + e.bit_length()) * (8 + w * w)
            else:
                so_far[t] -= e * bits[i]
                u, v = words(so_far[t]), words(e * bits[i])
                step = u * v // 4 + v * (1 + isqrt(v // 2))
            cost[j] = max(cost.get(j, 0), 8 + step)
        steps += passes * (8 + sum(cost.values()))
    return steps


def _plan(f: Polynomial, grid: GridSpec, values: bool) -> tuple | None:
    """The kernel's distinct exponents E_i, moduli, primes per batch and
    S_1 slice height, or None when the reference must run instead.  Logs
    the choice at DEBUG level.

    Once numpy is loaded, every grid goes to the kernel unless a guard
    below fails.  While it is not, grids go to the reference ("numpy not
    loaded") until their reference steps (``_reference_steps``) add up to
    ``_cold_work_left``, less work than importing numpy costs; after that,
    and at once for a grid past what is left, the kernel runs.  So a short
    run never imports numpy, whatever its input, and a long one pays it
    once.  Any other grid the reference gets is refused with
    GridTooLargeError when its steps pass ``_REFERENCE_WORK``.

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
    a zero of value 0.  H < 2^top, top = bits(max |c|) + bits(T) +
    sum_i max E_i bits(b_i) for T terms and the bounds b_i = max |S_i|,
    found in O(n).  H >= 2^least: at those bounds a term no set {0}
    zeroes is at least 2^(bits(c) - 1 + sum e_i (bits(b_i) - 1)), an
    O(T) walk taken only when top passes the bits of the product of all
    ``_MAX_PRIMES`` primes.  When 2^least passes that product too, the
    product stands in for H, never built; otherwise H is built, each term
    from one table {e: b_i^e} per variable.

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
    sizes = grid.sizes
    points = prod(sizes)
    moduli: list[int] = []
    reason = None
    steps = 0  # the reference's, found here only while numpy is not loaded
    if "numpy" not in sys.modules and (steps := _reference_steps(f, sizes, bounds)) <= _cold_work_left:
        _cold_work_left -= steps
        reason = "numpy not loaded"
    elif m:
        moduli = [m]
        if (m - 1) ** 2 * max(widths) >= _INT64_LIMIT:
            reason = "overflow guard"
    else:
        primes = _word_primes(max(widths))
        height = prod(primes)
        bits = height.bit_length()
        # H < 2^top, found in O(n): only a top past the product's bits needs the O(T) 2^least <= H
        top = (max(map(abs, f.terms.values()), default=0).bit_length() + len(f.terms).bit_length()
               + sum(ex[-1] * b.bit_length() for ex, b in zip(exps, bounds)))
        lows = [b.bit_length() - 1 for b in bounds]
        if top <= bits or max((abs(c).bit_length() - 1 + sum(map(mul, key, lows)) for key, c in f.terms.items()
                               if 0 not in bounds or all(b or not e for b, e in zip(bounds, key))),
                              default=-1) < bits:
            powers = [{e: b ** e for e in ex} for b, ex in zip(bounds, exps)]
            height = (2 if values else 1) * sum(abs(c) * prod(map(getitem, powers, key))
                                                for key, c in f.terms.items())
        product = 1
        for q in primes:
            if product > height:
                break
            moduli.append(q)
            product *= q
        if product <= height:
            reason = "prime count"
    # cells per prime per S_1 element of the intermediate once variables 1..i+1 are substituted
    row = max(map(mul, itertools.accumulate(sizes[1:], mul, initial=1),
                  reversed(list(itertools.accumulate(reversed(widths[1:]), mul, initial=1)))))
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
    charge(steps or _reference_steps(f, sizes, bounds), _REFERENCE_WORK, GridTooLargeError,
           "reference evaluation needs {} points and {work} steps, limit is {limit}", points)
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
    """Yield (start, stop, passes) for successive slices S_1[start:stop].
    ``passes`` lazily yields f modulo ``moduli`` on the slice times
    S_2 x ... x S_n, in the order of ``moduli``, as int64 arrays of shape
    (primes, stop - start, |S_2|, ..., |S_n|) in odometer order: the
    first prime alone, then the rest of its batch of at most ``group``
    primes, then each later batch.  A pass is contracted only when it is
    read.  Over Z a point is a zero only if f vanishes modulo every
    prime, and a nonzero value is a multiple of a word prime q about once
    in q, so a count whose first pass leaves no zero in the slice reads no
    other pass.

    The coefficient tensor T over the distinct exponents E_i is
    contracted with the power tables V_i[a, j] = a^{E_i[j]} mod q
    (``_power_table``), one variable at a time, reducing mod q after each
    step.  Every prime of a pass rides on a leading axis, so each
    ``matmul`` and each ``%`` runs once for the whole pass.  Tensors and
    tables are built once per batch; the first two passes read slices of
    the first batch's.  ``_plan`` supplies moduli that keep this exact,
    and a batch size and slice height that keep the batch's tensor, its
    power tables and every intermediate under the cell budget.
    """
    import numpy as np

    widths = [len(ex) for ex in exps]
    index = [{e: j for j, e in enumerate(ex)} for ex in exps]
    coords = (slice(None),) + tuple(np.array([ix[key[i]] for key in f.terms], dtype=np.intp)
                                    for i, ix in enumerate(index))
    operands = []  # of each pass: its moduli, tensor and power tables
    for at in range(0, len(moduli), group):
        qs = moduli[at:at + group]
        tensor = np.zeros([len(qs)] + widths, dtype=np.int64)
        tensor[coords] = [[c % q for c in f.terms.values()] for q in qs]
        q = np.array(qs, dtype=np.int64).reshape(-1, 1, 1)
        tensor = tensor.reshape(len(qs), widths[0], -1)
        tables = [_power_table(s, ex, qs) for s, ex in zip(grid.sets, exps)]
        for cut in (slice(1), slice(1, None)) if at == 0 and len(qs) > 1 else (slice(None),):
            operands.append((q[cut], tensor[cut], [v[cut] for v in tables]))

    def passes(start: int, stop: int):
        for q, tensor, (head, *tail) in operands:
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
            yield r.reshape((k, stop - start) + grid.sizes[1:])

    first = len(grid.sets[0])
    for start in range(0, first, rows):
        stop = min(start + rows, first)
        yield start, stop, passes(start, stop)


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
    charge(size, DEFAULT_ZERO_SET_CAP, GridTooLargeError, "grid has {work} points, value limit is {limit}")
    plan = _plan(f, grid, values=True)
    if plan is None:
        return list(_reference_values(f.terms, grid.sets, f.ring.modulus))
    moduli = plan[1]
    if not moduli:  # H = 0 over Z
        return [0] * size
    import numpy as np

    # Garner reads every pass; over F_p and Z_m the one pass holds the values
    rebuild = ((lambda passes: next(passes)[0]) if f.ring.modulus
               else (lambda passes: _garner(itertools.chain.from_iterable(passes), moduli)))
    return np.concatenate([rebuild(passes).ravel() for _, _, passes in _kernel_chunks(f, grid, *plan)]).tolist()


def count_nonzeros(f: Polynomial, grid: GridSpec, *,
                   collect_zeros: bool = True,
                   point_limit: int | None = None) -> GridCount:
    """Count the grid points where f is nonzero, by full enumeration.

    The zero set is collected only when the grid has at most
    ``DEFAULT_ZERO_SET_CAP`` points and ``collect_zeros`` is set.  Grids
    larger than ``point_limit`` (None: ``DEFAULT_POINT_LIMIT``) raise
    GridTooLargeError.  The grid must pass the zero-divisor difference
    condition; otherwise zero counts over Z_m would not mean what callers
    assume.  A negative ``point_limit`` is invalid input (ValueError).
    """
    if point_limit is None:
        point_limit = DEFAULT_POINT_LIMIT
    elif point_limit < 0:
        raise ValueError("point_limit must be nonnegative")
    check_compatible(f, grid)
    require_grid_condition(grid)
    size = grid.size()
    charge(size, point_limit, GridTooLargeError, "grid has {work} points, limit is {limit}")
    want_zeros = collect_zeros and size <= DEFAULT_ZERO_SET_CAP
    zeros: list | None = [] if want_zeros else None
    plan = _plan(f, grid, values=False)
    if plan is None:
        values = _reference_values(f.terms, grid.sets, f.ring.modulus)
        if zeros is None:
            nonzeros = sum(map(bool, values))
            return GridCount(nonzeros, size - nonzeros)
        zero_set = tuple(itertools.compress(grid.points(), map(not_, values)))
        return GridCount(size - len(zero_set), len(zero_set), zero_set)

    import numpy as np

    columns = [np.array(s, dtype=object) for s in grid.sets]
    nonzeros = 0
    for start, stop, passes in _kernel_chunks(f, grid, *plan):
        hit = np.zeros((stop - start,) + grid.sizes[1:], dtype=bool)
        for r in passes:
            hit |= r.any(axis=0)
            if hit.all():  # no zero left in the slice for a later prime to confirm
                break
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
    row = tuple.__new__  # a literal row, see BoundCheck
    for rep in bounds.collect_bounds(f, grid):
        if rep.asymptotic or (rep.requires_nonzero_on_grid and not nonzeros):
            continue
        if rep.kind == "zero-probability":
            slack = floor(rep.value * size) - zeros
        else:
            slack = nonzeros - rep.value
        checks.append(row(BoundCheck, (rep, slack >= 0, slack)))
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
    return Polynomial._from_raw(grid.arity, ring, {tuple(k for k, _ in combo): prod(c for _, c in combo)
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
    the result is flagged non-exhaustive.  ``sample_budget`` must then be
    positive: anything less raises ValueError before any work.

    Scaling a coefficient vector by any lambda != 0 leaves its zeros on
    the grid where they are, so the candidates fall into p^(k-1) classes
    of p - 1 vectors; each class has one representative whose required
    coefficient is 1, and every member has the representative's count.
    One rule picks what is scored: when there are fewer classes than
    candidates to try (every enumerated space with p > 2, and a sample
    of more than p^(k-1) candidates) and their table fits ``_CELL_BUDGET``
    cells, as any array of this module must, a table of counts is built
    by hyperplane incidence, with no representative scored, and each
    candidate c reads the entry of c * c[req]^-1 mod p
    (``_class_lookup``); otherwise each candidate is scored
    (``_scorer``).  Either way the candidates come in
    the same stream, described below, and the first one that reaches the
    least count wins (``_best_assignment``).  No candidate goes below the
    table's least entry (or below 0), so the scan stops at the first
    candidate that reaches it: later ones could only tie, and a tie
    keeps the earlier candidate.  So ``min_count``, the witness,
    ``exhaustive`` and ``tried`` (the candidates the answer covers) are
    those of scoring every candidate one by one.
    Before any grid value is computed, rows x points x k multiply-adds
    are charged, rows being the candidates scored or the p^(k-2)
    solutions the table finds at each point, against 32 ``MAX_WORK`` in
    int64 and ``MAX_WORK`` on Python integers (where p^2 k >= 2^62), and
    refused past that with SearchBudgetError.
    Rows are scored in int64 blocks of at most ``_BLOCK_ROWS`` rows
    (fewer when the grid is large, so one block's value matrix stays
    under the cell budget); the answer does not depend on the block size.
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
    One DEBUG record on the ``nullgrid`` logger, sent once the scan is
    over, names the path, the candidate count, the blocks of candidates
    actually drawn, the source of the values, and what was scored
    (classes or candidates) with its number of rows.
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

    rows = max(1, min(_BLOCK_ROWS, _CELL_BUDGET // grid.size()))

    if space <= exhaustive_limit:
        blocks = _product_blocks(p, k, req_idx, rows)
        exhaustive, tried, source = True, space, "radix"
    else:
        if sample_budget < 1:
            raise ValueError(f"sample_budget must be positive to sample, got {sample_budget}")
        blocks = _sample_blocks(random.Random(seed), p, k, req_idx, sample_budget, rows)
        exhaustive, tried = False, sample_budget
        source = "words" if p.bit_length() <= 32 else "randrange"
    by_class = classes < tried and classes <= _CELL_BUDGET
    scored = classes if by_class else tried
    # on one core of a 2-vCPU VM a multiply-add on Python integers
    # (``_scorer`` past 2^62) took 92 to 108 ns, 32 of them in int64 102 to
    # 124 ns, and 32 of the table's, whose rows are the p^(k-2) solutions it
    # finds at each point, 165 to 215 ns: the largest searches admitted ran
    # 0.37 to 0.43 s, 0.41 to 0.50 s and 0.66 to 0.86 s
    wide = not by_class and p * p * k >= 2**62
    charge((classes // p if by_class else tried) * grid.size() * k, MAX_WORK * (1 if wide else 32),
           SearchBudgetError, "minimum search needs {work} multiply-adds on {} points, limit is {limit}",
           grid.size())
    # value matrix: one column per grid point, one row per support monomial
    matrix = [_grid_values(Polynomial.monomial(grid.arity, ring, m), grid) for m in support]
    score, least = _class_lookup(matrix, p, k, req_idx) if by_class else (_scorer(matrix, p), 0)
    # zip draws a block before a count, so next(drawn) is then the blocks drawn
    drawn = itertools.count()
    best_count, best_coeffs = _best_assignment((b for b, _ in zip(blocks, drawn)), score, least)
    debug(__name__, "min search path=%s candidates=%d blocks=%d source=%s scored=%s rows=%d",
          "exhaustive" if exhaustive else "sampled", tried, next(drawn), source,
          "classes" if by_class else "candidates", scored)
    witness = Polynomial(grid.arity, ring, dict(zip(support, best_coeffs)))
    return MinNonzeroResult(best_count, witness, exhaustive, tried)


# most candidate rows in one block
_BLOCK_ROWS = 4096


def _product_blocks(p: int, k: int, req: int, rows: int):
    """Yield the vectors of ``itertools.product`` over range(1, p) in slot
    ``req`` and range(p) elsewhere, as int64 blocks of ``rows`` rows:
    candidate number t is t written in mixed radix (p - 1 for slot req, p
    for the others, last slot least significant), plus 1 in slot req."""
    import numpy as np

    radices = [p - 1 if i == req else p for i in range(k)]
    space = prod(radices)
    for start in range(0, space, rows):
        block = np.stack(np.unravel_index(np.arange(start, min(start + rows, space), dtype=np.int64), radices), 1)
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
    support monomial, one column per grid point) over F_p: one integer
    matrix product and ``% p``, in int64 while every value
    v <= (p - 1)^2 k stays below 2^62, on Python integers (object arrays)
    beyond."""
    import numpy as np

    mat = np.array(matrix, dtype=object if p * p * len(matrix) >= 2**62 else np.int64)
    return lambda block: np.count_nonzero(block.astype(mat.dtype, copy=False) @ mat % p, axis=1)


def _class_lookup(matrix: list[list[int]], p: int, k: int, req: int):
    """A scorer of each candidate's count, given the value matrix over
    F_p, that reads a table of the p^(k-1) classes' counts, and the least
    count of any class.

    The table is counted by incidence: with 1 in slot ``req``, the
    classes that vanish at a point a solve v_req(a) + sum_j c_j v_j(a) =
    0 mod p, one affine hyperplane (as in Alon and Furedi's cube covers).
    If some free v_j(a) is nonzero, the first such c_j is solved for on
    each assignment of the other free slots, grown one slot at a time; if
    none is, a vanishes for every class when v_req(a) = 0, else for none.
    One ``np.bincount`` per chunk of ``_CELL_BUDGET`` // p^(k-2) points
    counts the zeros.  A class's entry, in the smallest dtype that holds
    the number of points, is its free slots read in radix p, last slot
    least significant (``itertools.product`` order); candidate c reads that
    of c * c[req]^-1 mod p, which vanishes where c does.  All of it is
    int64: partial sums stay below p + (k-2)(p-1)^2, and for k >= 2 the
    caller's rule p^(k-1) <= ``_CELL_BUDGET`` keeps p <= 2^22, so every
    product stays below p^2 <= 2^44."""
    import numpy as np

    free = [i for i in range(k) if i != req]
    # with no free slot values are only compared with 0, so p may pass int64
    classes, values = p ** (k - 1), np.array(matrix, dtype=np.int64 if free else object)
    # a^(p-2) = a^-1 mod p (Fermat); with no free slot nothing is scaled
    inverse = _power_table(range(p), [p - 2], [p])[0, :, 0] if free else None
    # each point's first free slot (its place in free) with a nonzero value, len(free) if none
    lead = np.count_nonzero(np.cumsum(values[free] != 0, axis=0) == 0, axis=0)
    zeros = np.full(classes, np.count_nonzero(values[req, lead == len(free)] == 0), dtype=np.int64)
    weight = [p ** (len(free) - 1 - j) for j in range(len(free))]
    width = max(1, _CELL_BUDGET * p // classes)
    for j, slot in enumerate(free):
        at, digit = np.flatnonzero(lead == j), np.arange(p)
        for start in range(0, len(at), width):
            cols = values[:, at[start:start + width]]
            total, index = cols[req], np.zeros(1, dtype=np.int64)
            for i, other in enumerate(free):
                if i != j:
                    total = (total + digit[:, None, None] * cols[other]).reshape(-1, cols.shape[1])
                    index = (index + digit[:, None] * weight[i]).ravel()
            solved = -total % p * inverse[cols[slot]] % p
            zeros += np.bincount((index[:, None] + solved * weight[j]).ravel(), minlength=classes)
    table = (len(matrix[0]) - zeros).astype(np.min_scalar_type(len(matrix[0])))

    def lookup(block):
        index = np.zeros(len(block), dtype=np.int64)
        if free:
            scale = inverse[block[:, req]]
            for i in free:
                index = index * p + block[:, i] * scale % p
        return table[index]

    return lookup, int(table.min())


def _best_assignment(blocks, score, least: int = 0) -> tuple[int, tuple[int, ...]]:
    """The first coefficient vector, over the blocks in order, that
    reaches the least count ``score`` gives any row, with that count.
    Ties keep the earliest row, within a block and across blocks, so the
    answer does not depend on where the block boundaries fall.  ``least``
    is a count no row goes below: the scan stops at the first row that
    reaches it, without drawing further blocks.  The caller hands over at
    least one row: the whole space, or a sample of at least one."""
    import numpy as np

    best_count: int | None = None
    for block in blocks:
        counts = score(block)
        i = int(np.argmin(counts))
        if best_count is None or counts[i] < best_count:
            best_count = int(counts[i])
            best_coeffs = tuple(int(c) for c in block[i])
            if best_count <= least:
                break
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
