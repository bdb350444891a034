"""dense-support: expansion and hypothesis detection on dense supports.

Powers and products of sparse factors that expand to roughly 60-165 terms
in 3-4 variables over F_101 and Z, on small grids whose sides sit just
above the partial degrees.  Expansion, ``classify`` and ``collect_bounds``
dominate; grid enumeration runs as many tiny grids rather than a few big
ones, so a kernel's per-call overhead shows here.  Each case chains
parse -> verify_bounds, trim onto a smaller grid, and two identity tests
of the parsed DAG: against its expanded rendering (expect all-zero) and
against a copy perturbed by one monomial (expect a witness).
"""

from __future__ import annotations

from math import prod

from common import digest, expr_eval, grid_set, modulus_of, peval, sample_points

# sides are the verify grid (partial degree + 1 per variable); the trim grid
# takes half of each side.  Z cases run their identity tests over F_10007.
# The shapes are defined cheapest first (0.12-0.49 s a case on a 2-core Xeon
# VM).  The cycle doubles the shapes at the middle and at the top of the
# cost ranking, so that p50 and p90 fall inside a block of equal-cost cases
# rather than on the gap between two shapes.
_XYZ_Z_PRODUCT = {"ring": "int", "names": "xyz", "sides": (8, 13, 6),
                  "text": "(x + {a}*y^2 + {b}*z)^5*({c}*x*y + {d})^2"}
_XYZ_POWER6 = {"ring": "fp:101", "names": "xyz", "sides": (7, 7, 7),
               "text": "({a}*x + {b}*y + {c}*z + {d})^6"}
_XYZW_Z_PRODUCT = {"ring": "int", "names": "xyzw", "sides": (6, 6, 4, 4),
                   "text": "({a}*x*y + {b}*z*w + {c}*x + {d})^3*(x + y + {e})^2"}
_XYZ_Z_POWER7 = {"ring": "int", "names": "xyz", "sides": (8, 8, 8),
                 "text": "({a}*x + {b}*y + {c}*z + {d})^7"}
_XYZW_POWER4 = {"ring": "fp:101", "names": "xyzw", "sides": (5, 5, 5, 5),
                "text": "({a}*x + {b}*y + {c}*z + {d}*w + {e})^4"}
_XYZ_PRODUCT = {"ring": "fp:101", "names": "xyz", "sides": (12, 8, 8),
                "text": "({a}*x^2*y + {b}*z + {c})^4*(x + {d}*y*z + {e})^3"}
_XYZ_PRODUCT2 = {"ring": "fp:101", "names": "xyz", "sides": (6, 14, 4),
                 "text": "({a}*x + {b}*y^2 + {c})^5*(y + {d}*z + {e})^3"}
SLOTS = (_XYZ_Z_PRODUCT, _XYZ_PRODUCT2, _XYZ_POWER6, _XYZ_Z_POWER7, _XYZW_Z_PRODUCT,
         _XYZW_POWER4, _XYZ_POWER6, _XYZ_PRODUCT, _XYZ_Z_POWER7, _XYZ_PRODUCT2)

TINY_SLOTS = (
    {"ring": "fp:101", "names": "xyz", "sides": (3, 3, 3),
     "text": "({a}*x + {b}*y + {c}*z + {d})^2"},
    {"ring": "int", "names": "xyzw", "sides": (3, 3, 3, 3),
     "text": "({a}*x*y + {b}*z*w + {c}*x + {d})*(x + y + {e})"},
)

PIT_TRIALS = 10


def slots(size: str):
    """The case shapes, cycled in order."""
    return SLOTS if size == "full" else TINY_SLOTS


def generate(rng, slot: dict) -> dict:
    """Plain-Python inputs of one case, drawn from its generator."""
    ring = slot["ring"]
    m = modulus_of(ring)
    coeffs = {k: rng.randrange(1, m) if m else rng.randint(1, 3) for k in "abcde"}
    pit_ring = ring if m else "fp:10007"
    p = modulus_of(pit_ring)
    names = list(slot["names"])
    i, j = rng.randint(1, 2), rng.randint(1, 2)
    return {
        "ring": ring, "names": names, "text": slot["text"].format(**coeffs),
        "sets": [grid_set(rng, ring, s) for s in slot["sides"]],
        "trim_sets": [grid_set(rng, ring, (s + 1) // 2) for s in slot["sides"]],
        "pit_ring": pit_ring, "samples": min(p, 1000),
        # the perturbation c*x^i*y^j vanishes only where x or y is 0
        "perturb": (rng.randrange(1, p), i, j),
        "pit_seed": rng.randrange(2**31),
        "check_seed": rng.randrange(2**31),
    }


def prepare(spec: dict, ng) -> dict:
    """Build the case's rings and grids (set-up)."""
    ring = ng.RingSpec.from_string(spec["ring"])
    return dict(spec, ring_obj=ring,
                pit_ring_obj=ng.RingSpec.from_string(spec["pit_ring"]),
                grid=ng.GridSpec(ring, spec["sets"]),
                trim_grid=ng.GridSpec(ring, spec["trim_sets"]))


def execute(case: dict, ng):
    """The timed program calls of one case."""
    names, text = case["names"], case["text"]
    f = ng.parse_poly(text, names, case["ring_obj"])
    report = ng.verify_bounds(f, case["grid"])
    trimmed = ng.trim(f, case["trim_grid"])
    expanded = f.render(names)
    c, i, j = case["perturb"]
    pring = case["pit_ring_obj"]
    dag = ng.parse_dag(text, names, pring)
    same = ng.parse_dag(expanded, names, pring)
    other = ng.parse_dag(f"{expanded} + {c}*{names[0]}^{i}*{names[1]}^{j}", names, pring)
    options = {"samples_per_var": case["samples"], "trials": PIT_TRIALS, "seed": case["pit_seed"]}
    return (f, report, trimmed,
            ng.identity_test(dag, same, **options), ng.identity_test(dag, other, **options))


def summarize(case: dict, out) -> dict:
    """The answer of one case, in the form frozen for the default seed."""
    f, report, trimmed, same, other = out
    bounds = sorted([c.report.name, str(c.report.value)] for c in report.checks)
    return {"terms": len(f.terms), "nonzeros": report.nonzero_count, "zeros": report.zero_count,
            "sound": report.all_guaranteed_sound, "bounds": digest(bounds),
            "trimmed": digest(trimmed.render(case["names"])), "pit": [same.status, other.status]}


def check(case: dict, out, rng) -> list[str]:
    """Invariants that hold for every seed; returns the violations."""
    f, report, trimmed, same, other = out
    names, text, m = case["names"], case["text"], modulus_of(case["ring"])
    bad = []
    for pt in sample_points(rng, case["sets"], 6):
        if peval(f.terms, pt, m) != expr_eval(text, names, pt, m):
            bad.append(f"expansion disagrees with the expression at {pt}")
            break
    size = prod(len(s) for s in case["sets"])
    if report.nonzero_count + report.zero_count != size:
        bad.append(f"counts {report.nonzero_count}+{report.zero_count} != grid size {size}")
    if not report.all_guaranteed_sound:
        bad.append("a guaranteed bound is unsound")
    for c in report.checks:
        if c.report.guaranteed and c.report.kind == "count" and c.report.value > report.nonzero_count:
            bad.append(f"guaranteed {c.report.name} = {c.report.value} exceeds {report.nonzero_count}")
    sides = [len(s) for s in case["trim_sets"]]
    if trimmed.terms and any(max(e[k] for e in trimmed.terms) >= sides[k] for k in range(len(sides))):
        bad.append("trimmed polynomial has a partial degree at or above its set size")
    for pt in sample_points(rng, case["trim_sets"], 6):
        if peval(trimmed.terms, pt, m) != expr_eval(text, names, pt, m):
            bad.append(f"trimmed polynomial disagrees with the expression at {pt}")
            break
    if same.status != "all-zero":
        bad.append(f"identity test of the expansion gave {same.status}")
    c, i, j = case["perturb"]
    p = modulus_of(case["pit_ring"])
    if other.status != "nonzero-witnessed":
        bad.append(f"identity test of the perturbed copy gave {other.status}")
    elif other.value != -c * other.point[0] ** i * other.point[1] ** j % p:
        bad.append(f"witness value {other.value} at {other.point} is not the perturbation's")
    return bad
