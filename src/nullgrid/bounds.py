"""Lower bounds on the number of grid points where a polynomial is nonzero.

Every bound here is a closed formula or a small optimization problem over
the grid sizes and a degree vector; none of them look at grid values.  The
catalog builder ``collect_bounds`` pairs each formula with the detected
hypothesis that licenses it in a ``BoundReport``, so a downstream verifier
can hold every guaranteed claim against brute-force truth.

Conventions: ``sizes`` are the per-variable grid sizes |S_i|; ``d`` is a
per-variable degree vector unless a formula takes the total degree, and
preconditions such as |S_i| > d_i are enforced eagerly with
HypothesisViolationError.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, prod
from typing import NamedTuple

from . import analysis, poly
from .errors import HypothesisViolationError, SearchBudgetError
from .poly import GridSpec, Polynomial, check_compatible


class BoundReport(NamedTuple):
    """A single bound claim.

    value is an exact count (int), an exact probability or exponent
    (Fraction), or a float for the one asymptotic density formula without
    an exact rational value.  ``guaranteed`` distinguishes claims whose
    hypothesis provably implies them from diagnostic entries recorded to
    be checked against truth (and expected to fail sometimes);
    ``asymptotic`` marks order-of-growth statements that no finite grid
    can falsify, which verifiers must skip.  A NamedTuple, since one is
    built per catalogue entry: 0.5 us each, against 1.6 us for a frozen
    dataclass (one core of a 2-vCPU VM).
    """

    name: str
    value: object
    assumptions: str
    witness_d: tuple[int, ...] | None = None
    witness_e: tuple[int, ...] | None = None
    order: tuple[int, ...] | None = None
    kind: str = "count"  # "count" | "zero-probability" | "exponent" | "density"
    guaranteed: bool = True
    asymptotic: bool = False
    argmin: tuple[int, ...] | None = None
    requires_nonzero_on_grid: bool = False


class _AFFields(NamedTuple):
    sizes: tuple[int, ...]
    caps: tuple[int, ...]
    total: int


class AFInstance(_AFFields):
    """Inputs of the generalized Alon-Furedi bound: grid sizes, degree
    caps d_i < |S_i| per variable, and a total degree 0 <= d <= sum d_i.

    A NamedTuple that validates on construction, ``_make`` and
    ``_replace`` included, so an invalid instance cannot be built."""

    __slots__ = ()

    def __new__(cls, sizes: tuple[int, ...], caps: tuple[int, ...], total: int):
        if len(sizes) != len(caps) or not sizes:
            raise ValueError("sizes and caps must be nonempty and of equal length")
        for s, c in zip(sizes, caps):
            if c < 0 or s < 1:
                raise ValueError(f"bad instance entry: size {s}, cap {c}")
            if c >= s:
                raise HypothesisViolationError(f"need cap {c} < size {s}")
        if not 0 <= total <= sum(caps):
            raise HypothesisViolationError(f"total degree {total} outside [0, {sum(caps)}]")
        return super().__new__(cls, sizes, caps, total)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def product_bound(sizes: tuple[int, ...], d: tuple[int, ...]) -> int:
    """prod (|S_i| - d_i): the guaranteed nonzero count under any of the
    quantitative hypotheses (lex-largest, successively-largest, or exact
    partial degrees)."""
    _check_sizes_exceed(sizes, d)
    return prod(s - di for s, di in zip(sizes, d))


def schwartz_additive_bound(sizes: tuple[int, ...], d: tuple[int, ...]) -> int:
    """ceil(prod |S_i| * (1 - sum d_i / |S_i|)), clamped at zero.

    An additive weakening of the product bound; exact rational arithmetic
    throughout, so the ceiling never sees floating point.
    """
    _check_sizes_exceed(sizes, d)
    total = prod(sizes) * (1 - sum(Fraction(di, s) for di, s in zip(d, sizes)))
    return max(0, ceil(total))


def sz_probability(total_degree: int, size: int) -> Fraction:
    """Upper bound d/s on the probability that a nonzero polynomial of
    total degree d vanishes at a uniform point of S^n with |S| = s."""
    if total_degree < 0:
        raise ValueError("negative total degree")
    if size <= total_degree:
        raise HypothesisViolationError(f"need sample size {size} > total degree {total_degree}")
    return Fraction(total_degree, size)


def schwartz_zippel_count(size: int, total_degree: int, arity: int) -> int:
    """Count form of the d/s vanishing bound: s^n - d * s^(n-1)."""
    if arity < 1:
        raise ValueError("arity must be positive")
    if size <= total_degree or total_degree < 0:
        raise HypothesisViolationError(f"need size {size} > total degree {total_degree} >= 0")
    return size**arity - total_degree * size ** (arity - 1)


def zippel_bound(size: int, degree: int, arity: int) -> int:
    """(s - d)^n when every variable has degree at most d."""
    if arity < 1:
        raise ValueError("arity must be positive")
    if size <= degree or degree < 0:
        raise HypothesisViolationError(f"need size {size} > per-variable degree {degree} >= 0")
    return (size - degree) ** arity


def demillo_lipton_bound(size: int, total_degree: int, arity: int) -> int:
    """(s - d)^n under the total-degree reading of d; numerically the same
    expression as zippel_bound but with a different hypothesis."""
    if arity < 1:
        raise ValueError("arity must be positive")
    if size <= total_degree or total_degree < 0:
        raise HypothesisViolationError(f"need size {size} > total degree {total_degree} >= 0")
    return (size - total_degree) ** arity


def min_products_by_total(lows: tuple[int, ...], highs: tuple[int, ...]) -> dict[int, tuple[int, tuple[int, ...]]]:
    """For each achievable sum T of integers y_i in [lows_i, highs_i],
    the minimum of prod y_i subject to sum y_i = T, with an argmin.

    Dynamic program over (variable index, running sum).  Ties keep the
    first argmin in ascending y order, which makes output deterministic.
    Before it runs, its work (the running sums reached before each
    variable, times that variable's hi - lo + 1 choices, summed over the
    variables) is charged against ``poly.MAX_WORK``; past it
    SearchBudgetError is raised.
    """
    if len(lows) != len(highs) or not lows:
        raise ValueError("lows and highs must be nonempty and of equal length")
    work, states = 0, 1
    for lo, hi in zip(lows, highs):
        if not 1 <= lo <= hi:
            raise ValueError(f"need 1 <= low <= high, got [{lo}, {hi}]")
        work += states * (hi - lo + 1)
        states += hi - lo
    if work > poly.MAX_WORK:
        raise SearchBudgetError(f"the generalized Alon-Furedi table over {len(lows)} variables needs {work} "
                                f"steps, limit is {poly.MAX_WORK}")
    table: dict[int, tuple[int, tuple[int, ...]]] = {0: (1, ())}
    for lo, hi in zip(lows, highs):
        nxt: dict[int, tuple[int, tuple[int, ...]]] = {}
        for s in sorted(table):
            p, ys = table[s]
            for y in range(lo, hi + 1):
                key = s + y
                cand = p * y
                cur = nxt.get(key)
                if cur is None or cand < cur[0]:
                    nxt[key] = (cand, ys + (y,))
        table = nxt
    return table


def gen_alon_furedi_bound(inst: AFInstance) -> tuple[int, tuple[int, ...]]:
    """Minimum of prod y_i over |S_i| - d_i <= y_i <= |S_i| with
    sum y_i = sum |S_i| - d: the guaranteed nonzero count for a polynomial
    with partial degrees at most d_i and total degree at most d.

    Returns (value, argmin).  Increasing the total degree never increases
    the value, and at d = sum d_i it collapses to the product bound.
    """
    target = sum(inst.sizes) - inst.total
    lows = tuple(s - c for s, c in zip(inst.sizes, inst.caps))
    table = min_products_by_total(lows, inst.sizes)
    return table[target]


def alon_furedi_original_bound(sizes: tuple[int, ...], total_degree: int) -> int:
    """Minimum of prod y_i over 1 <= y_i <= |S_i|, sum y_i >= sum |S_i| - d,
    for a polynomial of total degree d not vanishing identically on the grid.

    Computed greedily: visit variables by decreasing size and raise each
    y_i from 1 to its cap until the sum constraint is met.  The greedy
    optimum matches the dynamic program (a tested property).
    """
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    if not 0 <= total_degree <= sum(s - 1 for s in sizes):
        raise HypothesisViolationError(
            f"total degree {total_degree} outside [0, {sum(s - 1 for s in sizes)}]")
    need = sum(sizes) - total_degree - len(sizes)  # amount to add over the all-ones point
    result = 1
    for s in sorted(sizes, reverse=True):
        if need <= 0:
            break
        take = min(s - 1, need)
        result *= 1 + take
        need -= take
    return result


def additive_existence_bound(sizes: tuple[int, ...], d: tuple[int, ...]) -> int:
    """1 + sum (|S_i| - (d_i + 1)): nonzeros guaranteed by a maximal
    monomial d, obtained by shrinking the grid to sizes d_i + 1 in all
    ways and taking one nonzero from each shrunken grid."""
    _check_sizes_exceed(sizes, d)
    return 1 + sum(s - (di + 1) for s, di in zip(sizes, d))


def erdos_density_bound(arity: int, l: int, size: int):
    """(3n)^n / s^(1 / l^(n-1)): the density threshold above which an
    n-uniform hypergraph argument applies, asymptotic in s.

    Returns an exact Fraction when s is a perfect l^(n-1)-th power and a
    float (documented tolerance 1e-12) otherwise.
    """
    if arity < 1 or l < 1 or size < 1:
        raise ValueError("need arity >= 1, l >= 1, size >= 1")
    L = l ** (arity - 1)
    numerator = (3 * arity) ** arity
    root = round(size ** (1.0 / L))
    # once L >= size.bit_length(), k^L >= 2^L > size for every k >= 2
    for k in (root - 1, root, root + 1):
        if (k == 1 or k >= 2 and L < size.bit_length()) and k**L == size:
            return Fraction(numerator, k)
    return numerator / size ** (1.0 / L)


def kst_exponent(d1: int, d2: int) -> Fraction:
    """2 - 1/(min(d1, d2) + 1): the exponent of the zero-set growth
    O(s^(2 - 1/l)) for bivariate f with a maximal monomial x1^d1 x2^d2."""
    if d1 < 0 or d2 < 0:
        raise ValueError("degrees must be nonnegative")
    return Fraction(2) - Fraction(1, min(d1, d2) + 1)


def _check_sizes_exceed(sizes: tuple[int, ...], d: tuple[int, ...]):
    if len(sizes) != len(d) or not sizes:
        raise ValueError("sizes and d must be nonempty and of equal length")
    for s, di in zip(sizes, d):
        if di < 0:
            raise ValueError(f"negative degree {di}")
        if s <= di:
            raise HypothesisViolationError(f"need size {s} > degree {di}")


class _Text(dict):
    """The str of each witness tuple, rendered on first use."""

    def __missing__(self, key):
        text = self[key] = str(key)
        return text


def collect_bounds(f: Polynomial, grid: GridSpec) -> list[BoundReport]:
    """Every bound licensed by a hypothesis ``analysis.classify`` finds for
    f, plus diagnostic and asymptotic entries.

    Every classifier report holds by construction, so each one licenses
    its bounds.  One entry per (bound name, witness degree vector); when
    several hypotheses certify the same entry, the first in classifier
    order is recorded in the assumptions.  Bounds whose size
    preconditions fail for a witness are silently skipped: the hypothesis
    does not hold on this grid, so there is nothing to claim.

    The reports are read as the plain tuples of ``analysis._witnesses``;
    no ``HypothesisReport`` is built.  Two kinds can repeat an entry: a
    successively-largest (d, e) that several orders give, skipped first,
    and a lex-largest or partial-degrees d.  Maximal monomials and
    d-leading pairs come once each, and no other report makes their
    entries.  The product and additive-existence values are computed once
    per distinct d, and each witness tuple's text is rendered once.
    """
    check_compatible(f, grid)
    if f.is_zero:
        return []
    sizes = grid.sizes
    n = grid.arity
    partial, total = f.degrees()

    out: list[BoundReport] = []
    text = _Text()
    plain: set[tuple[int, ...]] = set()  # d with a lex-largest or partial-degrees product entry
    successive: set[tuple] = set()  # successively-largest (d, e) already read
    # per distinct d: (product bound, additive existence bound), or () when d does not fit
    per_d: dict[tuple[int, ...], tuple] = {}

    for condition, d, e, order in analysis._witnesses(f):
        if condition == analysis.SUCCESSIVELY_LARGEST:
            if (d, e) in successive:
                continue
            successive.add((d, e))
        facts = per_d.get(d)
        if facts is None:
            facts = per_d[d] = ((product_bound(sizes, d), additive_existence_bound(sizes, d))
                                if all(s > di for s, di in zip(sizes, d)) else ())
        if not facts:
            continue
        product, additive = facts
        if condition == analysis.SUCCESSIVELY_LARGEST:
            out.append(BoundReport("product", product, f"successively largest sequence {text[d]} "
                                   f"for seed {text[e]} under order {text[order]}", d, e, order))
        elif condition in (analysis.D_LEADING, analysis.MAXIMAL_MONOMIAL):
            why = f"maximal monomial {text[d]}" if e is None else f"{text[e]} is {text[d]}-leading"
            out.append(BoundReport("existence", 1, f"{why} and every |S_i| > d_i", d, e))
            out.append(BoundReport("additive-existence", additive, f"{why}; shrink-and-translate argument", d, e))
            if e is not None:
                continue
            out.append(BoundReport("product-if-maximal", product, "DIAGNOSTIC: maximality of "
                                   f"{text[d]} alone does not imply the product bound", d, guaranteed=False))
            if max(d) >= 1:
                l = max(d) + 1
                out.append(BoundReport("erdos-density", erdos_density_bound(n, l, min(sizes)),
                                       f"asymptotic zero-density threshold, l = 1 + max d_i = {l}", d,
                                       kind="density", guaranteed=False, asymptotic=True))
            if n == 2:
                out.append(BoundReport("kst-exponent", kst_exponent(d[0], d[1]),
                                       f"asymptotic zero-set exponent for {why}", d,
                                       kind="exponent", guaranteed=False, asymptotic=True))
        elif condition in (analysis.LEX_LARGEST, analysis.PARTIAL_DEGREES):
            if d not in plain:
                plain.add(d)
                why = (f"lex-largest monomial {text[d]} under order {text[order]}"
                       if condition == analysis.LEX_LARGEST else f"exact partial degrees {text[d]}")
                out.append(BoundReport("product", product, why, d, order=order))
                out.append(BoundReport("schwartz-additive", schwartz_additive_bound(sizes, d), why, d,
                                       order=order))
            if condition == analysis.PARTIAL_DEGREES:
                value, argmin = gen_alon_furedi_bound(AFInstance(sizes, d, total))
                out.append(BoundReport("gen-alon-furedi", value,
                                       f"partial degrees {text[d]} and total degree {total}", d, argmin=argmin))

    # bounds keyed to the total degree alone
    if len(set(sizes)) == 1:
        s = sizes[0]
        if s > total:
            out.append(BoundReport("schwartz-zippel", schwartz_zippel_count(s, total, n),
                                   f"total degree {total}, common size {s}", None))
            out.append(BoundReport("schwartz-zippel-probability", sz_probability(total, s),
                                   f"vanishing probability at most d/s with d = {total}, s = {s}", None,
                                   kind="zero-probability"))
            out.append(BoundReport("demillo-lipton", demillo_lipton_bound(s, total, n),
                                   f"total degree {total}, common size {s}", None))
        if s > max(partial):
            out.append(BoundReport("zippel", zippel_bound(s, max(partial), n),
                                   f"per-variable degree at most {max(partial)}, common size {s}", None))
    if 0 <= total <= sum(s - 1 for s in sizes):
        out.append(BoundReport("alon-furedi", alon_furedi_original_bound(sizes, total),
                               f"total degree {total}; assumes f is not identically zero on the grid", None,
                               requires_nonzero_on_grid=True))
    return out
