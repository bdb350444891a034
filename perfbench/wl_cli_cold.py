"""cli-cold: one fresh ``python -m nullgrid`` process per case.

Cycles all eight subcommands on small inputs (``verify --list-zeros``,
``puzzle local`` with a small budget and ``puzzle exhaustive --size 2``
included) plus the exit-1 (parse error), exit-2 (zero-divisor grid over
Z_12) and exit-3 (``--limit-grid``) paths.  The inputs are tiny, so a case
costs interpreter start-up plus ``import nullgrid``: this workload shows
start-up weight and any set-up moved onto the per-call path.  Answers are
checked by their semantic fields, never by bytes, so a schema bump that
keeps the fields does not read as a failure.
"""

from __future__ import annotations

import itertools
import json
from math import comb, prod

from common import (digest, expr_eval, maximal_monomials, modulus_of, partial_degrees,
                    peval, random_terms, render_terms, times_linear)

KINDS = ("analyze", "bounds", "verify", "verify-zeros", "trim", "coeff", "pit-same",
         "pit-diff", "puzzle-local", "puzzle-exhaustive", "tightness",
         "parse-error", "zero-divisor-grid", "limit-grid")
CONDITIONS = {"maximal-monomial", "lex-largest", "successively-largest", "d-leading",
              "partial-degrees", "total-degree"}
ERRORS = {"parse-error": (1, "parse"), "zero-divisor-grid": (2, "hypothesis-violation"),
          "limit-grid": (3, "resource-limit")}


def slots(size: str):
    """The case shapes, cycled in order; tiny runs use the same ones."""
    return tuple({"kind": k} for k in KINDS)


def _grid_text(sets) -> str:
    return ";".join(",".join(map(str, s)) for s in sets)


def generate(rng, slot: dict) -> dict:
    """Plain-Python inputs of one case: the argv and what checking needs."""
    kind = slot["kind"]
    spec = {"kind": kind, "names": ["x", "y"]}
    if kind in ("analyze", "verify", "parse-error", "zero-divisor-grid", "limit-grid"):
        terms = random_terms(rng, 2, 5, (3, 3), None)
        text = render_terms(terms, "xy")
        lo = rng.randint(-3, 3), rng.randint(-3, 3)
        grid = [list(range(a, a + 5)) for a in lo]
        argv = {
            "analyze": ["analyze", "--ring", "int", "--vars", "x,y", f"--poly={text}"],
            "verify": ["verify", "--ring", "int", f"--grid={lo[0]}..{lo[0] + 4};{lo[1]}..{lo[1] + 4}",
                       f"--poly={text}"],
            "parse-error": ["analyze", "--ring", "int", f"--poly={text} ^^ 2"],
            "zero-divisor-grid": ["verify", "--ring", "zmod:12", "--grid", "0..3;0..3", f"--poly={text}"],
            "limit-grid": ["verify", "--ring", "int", "--grid", "0..4;0..4", "--limit-grid", "10",
                           f"--poly={text}"],
        }[kind]
        spec.update(ring="zmod:12" if kind == "zero-divisor-grid" else "int", terms=terms)
        if kind in ("verify", "zero-divisor-grid", "limit-grid"):
            spec["sets"] = {"verify": grid, "zero-divisor-grid": [list(range(4))] * 2,
                            "limit-grid": [list(range(5))] * 2}[kind]
    elif kind in ("bounds", "verify-zeros", "trim", "coeff", "tightness"):
        p = 7 if kind in ("verify-zeros", "trim", "coeff") else 11
        side = {"bounds": 6, "verify-zeros": 7, "trim": 3, "coeff": 6, "tightness": 6}[kind]
        sets = [sorted(rng.sample(range(p), side)) for _ in range(2)]
        spec.update(ring=f"fp:{p}", sets=sets)
        argv = [kind.split("-")[0], "--ring", f"fp:{p}", "--grid=" + _grid_text(sets)]
        if kind == "tightness":
            spec["d"] = [rng.randint(0, side - 1) for _ in range(2)]
            argv += ["--d", ",".join(map(str, spec["d"]))]
        else:
            caps = {"bounds": (3, 3), "verify-zeros": (2, 2), "trim": (5, 5), "coeff": (4, 4)}[kind]
            terms = random_terms(rng, 2, 5, caps, p)
            if kind == "verify-zeros":
                terms = times_linear(terms, 0, rng.choice(sets[0]), p)
                argv.append("--list-zeros")
            if kind == "coeff":
                spec["d"] = list(maximal_monomials(terms)[0])
                argv += ["--monomial", ",".join(map(str, spec["d"]))]
            spec["terms"] = terms
            argv += ["--vars", "x,y", "--poly=" + render_terms(terms, "xy")]
    elif kind in ("pit-same", "pit-diff"):
        a, b, c = (rng.randrange(1, 101) for _ in range(3))
        k = rng.randint(3, 6)
        left = f"({a}*x + {b}*y + {c})^{k}"
        right = f"({c} + {b}*y + {a}*x)^{k}"
        if kind == "pit-diff":
            spec["shift"] = rng.randrange(1, 101)
            right += f" + {spec['shift']}"
        argv = ["pit", left, right, "--ring", "fp:101", "--samples", "100", "--trials", "7",
                "--seed", str(rng.randrange(1000))]
    elif kind == "puzzle-local":
        argv = ["puzzle", "local", "--size", "3", "--budget", "1500", "--seed", str(rng.randrange(1000))]
    else:
        spec["range"] = rng.choice((2, 3))
        argv = ["puzzle", "exhaustive", "--size", "2", "--range", str(spec["range"])]
    spec["argv"] = argv
    return spec


def prepare(spec: dict, ng) -> dict:
    """Build the case's ring and grid objects, as the CLI will (set-up)."""
    if "sets" in spec:
        ng.GridSpec.from_text(_grid_text(spec["sets"]), ng.RingSpec.from_string(spec["ring"]))
    return spec


def summarize(case: dict, out) -> dict:
    """The semantic answer of one case, in the form frozen for the default seed."""
    code, data = out
    kind = case["kind"]
    if kind in ERRORS:
        return {"exit": code, "error": data.get("error", {}).get("code")}
    answer = {"exit": code}
    if kind == "analyze":
        answer["hypotheses"] = digest(sorted({json.dumps([r.get("condition"), r.get("holds"), r.get("witness_d"),
                                                          r.get("witness_e")])
                                              for r in data["hypotheses"]}))
    elif kind == "bounds":
        answer["bounds"] = digest(sorted([b["name"], json.dumps(b["value"])] for b in data["bounds"]))
    elif kind.startswith("verify"):
        answer.update(nonzeros=data["nonzero_count"], zeros=data["zero_count"],
                      sound=data["all_guaranteed_sound"],
                      bounds=digest(sorted([c["bound"]["name"], json.dumps(c["bound"]["value"])]
                                           for c in data["checks"])))
        if kind == "verify-zeros":
            answer["zero_set"] = digest(data["zeros"])
    elif kind == "trim":
        answer["trimmed"] = data["trimmed"]
    elif kind == "coeff":
        answer["coefficient"] = data["coefficient"]
    elif kind.startswith("pit"):
        answer["status"] = data["verdict"]["status"]
    elif kind.startswith("puzzle"):
        answer["count"] = data["count"]
    else:
        answer["nonzeros"] = data["nonzero_count"]
    return answer


def _count(terms, sets, modulus):
    return sum(1 for pt in itertools.product(*sets) if peval(terms, pt, modulus))


def check(case: dict, out, rng) -> list[str]:
    """Invariants that hold for every seed; returns the violations."""
    code, data = out
    kind = case["kind"]
    if kind in ERRORS:
        want = ERRORS[kind]
        got = (code, data.get("error", {}).get("code"))
        return [] if got == want else [f"expected exit/error {want}, got {got}"]
    if code != 0:
        return [f"exit code {code}: {data.get('error')}"]
    p = modulus_of(case.get("ring", "int"))
    bad = []
    if kind == "analyze":
        rows = data["hypotheses"]
        if {r["condition"] for r in rows} - CONDITIONS:
            bad.append("unknown hypothesis condition")
        want = list(partial_degrees(case["terms"]))
        if not any(r["condition"] == "partial-degrees" and r["witness_d"] == want and r["holds"] for r in rows):
            bad.append(f"no holding partial-degrees report with d = {want}")
        found = {tuple(r["witness_d"]) for r in rows if r["condition"] == "maximal-monomial"}
        if found != set(maximal_monomials(case["terms"])):
            bad.append("maximal monomials disagree with the reference")
    elif kind == "bounds":
        truth = _count(case["terms"], case["sets"], p)
        for b in data["bounds"]:
            if b["guaranteed"] and b["kind"] == "count" and b["value"] > truth:
                bad.append(f"guaranteed {b['name']} = {b['value']} exceeds the true count {truth}")
    elif kind.startswith("verify"):
        truth = _count(case["terms"], case["sets"], p)
        if data["nonzero_count"] != truth or data["all_guaranteed_sound"] is not True:
            bad.append(f"nonzero count {data['nonzero_count']} (true {truth}) or unsound bounds")
        if kind == "verify-zeros":
            want = [list(pt) for pt in itertools.product(*case["sets"]) if not peval(case["terms"], pt, p)]
            if data["zeros"] != want:
                bad.append("listed zeros disagree with the reference evaluator")
    elif kind == "trim":
        for pt in itertools.product(*case["sets"]):
            if expr_eval(data["trimmed"], case["names"], pt, p) != peval(case["terms"], pt, p):
                bad.append(f"trimmed polynomial disagrees with the input at {pt}")
                break
        if any(d >= len(s) for d, s in zip(data.get("degrees_after", ()), case["sets"])):
            bad.append("trimmed degrees not below the set sizes")
    elif kind == "coeff":
        want = case["terms"][tuple(case["d"])]
        if not data["coefficient"] == data["stored_coefficient"] == want:
            bad.append(f"coefficient {data['coefficient']} != stored {want}")
    elif kind == "pit-same":
        if data["verdict"]["status"] != "all-zero":
            bad.append(f"identity test of equal expressions gave {data['verdict']['status']}")
    elif kind == "pit-diff":
        v = data["verdict"]
        if v["status"] != "nonzero-witnessed" or v["value"] != -case["shift"] % 101:
            bad.append(f"identity test of a shifted copy gave {v['status']} / {v.get('value')}")
    elif kind.startswith("puzzle"):
        mult, add = data["multiplication_table"], data["addition_table"]
        agree = sorted([i, j] for i in range(len(mult)) for j in range(len(mult))
                       if mult[i][j] == add[i][j])
        if (sorted(map(list, data["agreements"])) != agree or data["count"] != len(agree)
                or data["count"] > data["zarankiewicz_cap"] or data["k22_free"] is not True):
            bad.append("agreement pattern disagrees with the tables or the K22 cap")
        if kind == "puzzle-exhaustive":
            m = 2 * case["range"] + 1
            if data["examined"] != comb(m, 2) ** 2 * m:
                bad.append(f"examined {data['examined']} candidates, expected {comb(m, 2) ** 2 * m}")
    else:
        want = prod(len(s) - d for s, d in zip(case["sets"], case["d"]))
        if data["nonzero_count"] != want:
            bad.append(f"tightness count {data['nonzero_count']} != product {want}")
    return bad
