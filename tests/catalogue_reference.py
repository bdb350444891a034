"""The hypothesis walk and bound catalogue as written before the walk
handed over each distinct (seed, d) pair once: a generator of every
classify report as a ``(condition, d, e, order)`` tuple, and a catalogue
that reads those tuples and skips the successively-largest pairs it has
already seen.  Kept as a test-only reference that the catalogue and
``classify`` must equal, entry for entry and report for report."""

from __future__ import annotations

import itertools
from operator import itemgetter

from nullgrid import analysis
from nullgrid.analysis import (
    D_LEADING,
    LEX_LARGEST,
    MAX_ORDERS_ARITY,
    MAXIMAL_MONOMIAL,
    PARTIAL_DEGREES,
    SUCCESSIVELY_LARGEST,
    TOTAL_DEGREE,
    HypothesisReport,
)
from nullgrid.bounds import (
    AFInstance,
    BoundReport,
    additive_existence_bound,
    alon_furedi_original_bound,
    demillo_lipton_bound,
    erdos_density_bound,
    gen_alon_furedi_bound,
    kst_exponent,
    product_bound,
    schwartz_additive_bound,
    schwartz_zippel_count,
    sz_probability,
    zippel_bound,
)
from nullgrid.poly import check_compatible


def _graded(exps):
    return sum(exps), exps


def _skyline(graded):
    """The maximal monomials of a graded-descending support, in that order."""
    kept = []
    higher, degree = 0, None
    for m in graded:
        if sum(m) != degree:
            higher, degree = len(kept), sum(m)
        if not any(all(x >= y for x, y in zip(k, m)) for k in itertools.islice(kept, higher)):
            kept.append(m)
    return kept


def witnesses(f):
    """classify's reports as ``(condition, d, e, order)`` tuples, in its
    order, each successively-largest pair once per order that gives it."""
    assert not f.is_zero
    n = f.arity
    orders = list(itertools.permutations(range(n))) if n <= MAX_ORDERS_ARITY else [tuple(range(n))]
    seeds = sorted(f.terms, key=_graded, reverse=True)
    maximal = _skyline(seeds)
    for m in maximal:
        yield MAXIMAL_MONOMIAL, m, None, None
    ranked = [sorted(f.terms, key=itemgetter(*order) if order else None, reverse=True) for order in orders]
    for order, ranking in zip(orders, ranked):
        yield LEX_LARGEST, ranking[0], None, order

    pairs: set[tuple] = set()
    for order, ranking in zip(orders, ranked):
        lead, successive = list(ranking[0]), {ranking[0]: ranking[0]}
        for prev, v in zip(ranking, ranking[1:]):
            j = next(j for j, var in enumerate(order) if v[var] != prev[var])
            for var in order[j + 1:]:
                lead[var] = v[var]
            successive[v] = tuple(lead)
        for seed in seeds:
            d = successive[seed]
            yield SUCCESSIVELY_LARGEST, d, seed, order
            pairs.add((seed, d))
    for seed, d in sorted(pairs):
        yield D_LEADING, d, seed, None

    yield PARTIAL_DEGREES, f.degrees()[0], None, None
    yield TOTAL_DEGREE, seeds[0], None, None


def classify(f):
    """classify's reports, built from the tuples of ``witnesses``."""
    return [HypothesisReport(condition, True, d, e, order) for condition, d, e, order in witnesses(f)]


class _Text(dict):
    """The str of each witness tuple, rendered on first use."""

    def __missing__(self, key):
        text = self[key] = str(key)
        return text


def collect_bounds(f, grid):
    """The bound catalogue of f on the grid, read from the tuples of
    ``witnesses``: a successively-largest (d, e) that several orders give
    is skipped after its first, and a lex-largest or partial-degrees d
    gives its product entries once."""
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

    for condition, d, e, order in witnesses(f):
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
