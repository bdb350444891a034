"""enumerate: grid evaluation on large grids.

Sparse polynomials (at most 60 terms, 2-3 variables) over F_101, F_10007,
Z and Z_35, on grids of 10^4 - 10^5 points, a few with 1000-element sets.
Grid evaluation (oracle counting, ``grid_values`` and the grid condition
check) does almost all the work; ``classify`` sees only small supports.
Z and Z_35 keep the exact non-numpy paths in view.  Each slot fixes a
case's shape; the seed draws coefficients, exponents and set elements, so
the cost of a slot hardly moves between seeds.
"""

from __future__ import annotations

import itertools
from math import prod

from common import (digest, grid_set, maximal_monomials, modulus_of, peval,
                    random_terms, sample_points, times_linear)

# The cycle, listed cheapest first (about 0.15 s a case on a 2-core Xeon VM).
# The shapes around the middle and at the top of the cost ranking repeat,
# so p50 and p90 fall inside a block of equal-cost cases rather than on the
# gap between two shapes, and do not jump when a run ends a case earlier.
SLOTS = (
    {"kind": "tightness", "ring": "zmod:35", "sides": (5, 5, 5), "d": (2, 2, 2)},
    {"kind": "zeros", "ring": "zmod:35", "sides": (5, 5, 5), "terms": 20, "cap": 4},
    {"kind": "verify", "ring": "zmod:35", "sides": (5, 5, 5), "terms": 20, "cap": 4},
    {"kind": "zeros", "ring": "int", "sides": (25, 25, 25), "terms": 40, "cap": 5},
    {"kind": "zeros", "ring": "int", "sides": (25, 25, 25), "terms": 40, "cap": 5},
    {"kind": "minsearch", "ring": "fp:101", "sides": (6, 6)},
    {"kind": "minsearch", "ring": "fp:101", "sides": (6, 6)},
    {"kind": "tightness", "ring": "int", "sides": (30, 30, 30), "d": (5, 5, 5)},
    {"kind": "tightness", "ring": "int", "sides": (30, 30, 30), "d": (5, 5, 5)},
    {"kind": "verify", "ring": "int", "sides": (100, 100), "terms": 60, "cap": 10},
    {"kind": "verify", "ring": "int", "sides": (100, 100), "terms": 60, "cap": 10},
    {"kind": "verify", "ring": "int", "sides": (100, 100), "terms": 60, "cap": 10},
    {"kind": "zeros", "ring": "fp:101", "sides": (30, 30, 30), "terms": 40, "cap": 5},
    {"kind": "verify", "ring": "fp:101", "sides": (30, 30, 30), "terms": 60, "cap": 6},
    {"kind": "verify", "ring": "fp:101", "sides": (30, 30, 30), "terms": 60, "cap": 6},
    {"kind": "coeff", "ring": "fp:101", "sides": (100, 100), "terms": 30, "cap": 8},
    {"kind": "coeff", "ring": "fp:10007", "sides": (100, 100), "terms": 30, "cap": 8},
    {"kind": "verify", "ring": "fp:10007", "sides": (1000, 20), "terms": 30, "cap": 8},
    {"kind": "zeros", "ring": "fp:10007", "sides": (1000, 17), "terms": 30, "cap": 8},
    {"kind": "tightness", "ring": "fp:10007", "sides": (140, 140), "d": (20, 20)},
)
# run order interleaves cheap and dear shapes
ORDER = (0, 19, 9, 3, 13, 5, 17, 10, 1, 15, 7, 12, 4, 18, 11, 6, 14, 2, 16, 8)


def slots(size: str):
    """The case shapes, cycled in order; tiny shrinks every grid."""
    ordered = tuple(SLOTS[i] for i in ORDER)
    return ordered if size == "full" else tuple(map(_shrink, ordered))


def _shrink(slot: dict) -> dict:
    small = dict(slot)
    small["sides"] = tuple(min(s, 6) for s in slot["sides"])
    if "terms" in slot:
        small["terms"], small["cap"] = min(slot["terms"], 6), min(slot["cap"], 3)
    if "d" in slot:
        small["d"] = tuple(min(d, s - 1) for d, s in zip(slot["d"], small["sides"]))
    return small


def generate(rng, slot: dict) -> dict:
    """Plain-Python inputs of one case, drawn from its generator."""
    ring, sides = slot["ring"], slot["sides"]
    m = modulus_of(ring)
    spec = {"kind": slot["kind"], "ring": ring,
            "sets": [grid_set(rng, ring, s) for s in sides],
            "check_seed": rng.randrange(2**31)}
    n = len(sides)
    if slot["kind"] in ("verify", "zeros", "coeff"):
        terms = random_terms(rng, n, slot["terms"], (slot["cap"],) * n, m)
        if slot["kind"] == "zeros":
            # two linear factors vanishing on grid hyperplanes give a large zero set
            for var in (0, 1):
                terms = times_linear(terms, var, rng.choice(spec["sets"][var]), m)
        spec["terms"] = terms
        if slot["kind"] == "coeff":
            spec["d"] = maximal_monomials(terms)[0]
    elif slot["kind"] == "tightness":
        spec["d"] = slot["d"]
    elif slot["kind"] == "minsearch":
        required = (rng.randint(1, 4), rng.randint(1, 4))
        support = {required}
        while len(support) < 3:
            e = (rng.randint(0, 4), rng.randint(0, 4))
            if not (e[0] >= required[0] and e[1] >= required[1]):
                support.add(e)
        spec["support"] = sorted(support)
        spec["required"] = required
        spec["search_seed"] = rng.randrange(2**31)
    return spec


def prepare(spec: dict, ng) -> dict:
    """Build the case's ring, grid and polynomial objects (set-up)."""
    ring = ng.RingSpec.from_string(spec["ring"])
    case = dict(spec, grid=ng.GridSpec(ring, spec["sets"]))
    if "terms" in spec:
        case["poly"] = ng.Polynomial(len(spec["sets"]), ring, spec["terms"])
    return case


def execute(case: dict, ng):
    """The timed program calls of one case."""
    kind, grid = case["kind"], case["grid"]
    if kind == "verify":
        return ng.verify_bounds(case["poly"], grid)
    if kind == "zeros":
        return ng.count_nonzeros(case["poly"], grid, collect_zeros=True)
    if kind == "coeff":
        values = ng.grid_values(case["poly"], grid)
        return ng.coefficient_via_grid(values, grid, case["d"])
    if kind == "tightness":
        f = ng.tightness_family(grid, case["d"])
        return ng.count_nonzeros(f, grid, collect_zeros=False)
    return ng.min_nonzero_search(tuple(map(tuple, case["support"])), tuple(case["required"]), grid,
                                 exhaustive_limit=20_000, sample_budget=20_000,
                                 seed=case["search_seed"])


def summarize(case: dict, out) -> dict:
    """The answer of one case, in the form frozen for the default seed."""
    kind = case["kind"]
    if kind == "verify":
        bounds = sorted([c.report.name, str(c.report.value)] for c in out.checks)
        return {"nonzeros": out.nonzero_count, "zeros": out.zero_count,
                "sound": out.all_guaranteed_sound, "bounds": digest(bounds)}
    if kind == "zeros":
        return {"nonzeros": out.nonzeros, "zeros": out.zeros,
                "zero_set": digest([list(p) for p in out.zero_set])}
    if kind == "coeff":
        return {"coefficient": int(out)}
    if kind == "tightness":
        return {"nonzeros": out.nonzeros}
    return {"min_count": out.min_count, "tried": out.tried}


def check(case: dict, out, rng) -> list[str]:
    """Invariants that hold for every seed; returns the violations."""
    kind, sets, m = case["kind"], case["sets"], modulus_of(case["ring"])
    size = prod(len(s) for s in sets)
    bad = []
    if kind == "verify":
        if out.nonzero_count + out.zero_count != size:
            bad.append(f"counts {out.nonzero_count}+{out.zero_count} != grid size {size}")
        if not out.all_guaranteed_sound:
            bad.append("a guaranteed bound is unsound")
        for c in out.checks:
            if c.report.guaranteed and c.report.kind == "count" and c.report.value > out.nonzero_count:
                bad.append(f"guaranteed {c.report.name} = {c.report.value} exceeds {out.nonzero_count}")
    elif kind == "zeros":
        zero_set = set(out.zero_set)
        if len(zero_set) != out.zeros or out.nonzeros + out.zeros != size:
            bad.append("zero set size disagrees with the counts")
        for pt in sample_points(rng, sets, 20) + rng.sample(sorted(zero_set), min(20, len(zero_set))):
            if (peval(case["terms"], pt, m) == 0) != (pt in zero_set):
                bad.append(f"zero-set membership of {pt} disagrees with the reference evaluator")
                break
    elif kind == "coeff":
        want = case["terms"][tuple(case["d"])] % m
        if int(out) != want:
            bad.append(f"coefficient {int(out)} != stored {want}")
    elif kind == "tightness":
        want = prod(len(s) - d for s, d in zip(sets, case["d"]))
        if out.nonzeros != want:
            bad.append(f"tightness count {out.nonzeros} != product {want}")
    else:
        witness = {tuple(e): c for e, c in out.witness.terms.items()}
        if not witness.get(tuple(case["required"]), 0):
            bad.append("minimum witness lacks the required monomial")
        recount = sum(1 for pt in itertools.product(*sets) if peval(witness, pt, m))
        if recount != out.min_count or out.min_count < 1:
            bad.append(f"witness has {recount} nonzeros, search reported {out.min_count}")
    return bad
