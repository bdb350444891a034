"""Helpers shared by the workloads: the benchmark's own reference
evaluators, answer digests and seeded input pieces.

The evaluators here are deliberately independent of nullgrid: answers the
program returns are checked against them, never against the program
itself.  They are slow and only ever run on sampled points or small grids.
"""

from __future__ import annotations

import hashlib
import json
import random


def modulus_of(ring: str) -> int | None:
    """The modulus of a ring given in the CLI format, None over Z."""
    return None if ring == "int" else int(ring.split(":")[1])


def case_rng(workload: str, seed: int, index: int) -> random.Random:
    """Generator for one case: the same (workload, seed, index) always
    yields the same inputs, whatever else the run does."""
    return random.Random(f"{workload}:{seed}:{index}")


def peval(terms: dict, point, modulus: int | None) -> int:
    """Value of a sparse polynomial {exponents: coefficient} at a point."""
    total = 0
    for exps, c in terms.items():
        t = c
        for x, e in zip(point, exps):
            t *= x ** e
        total += t
    return total % modulus if modulus else total


def expr_eval(text: str, names, point, modulus: int | None) -> int:
    """Value of an expression in the nullgrid grammar at a point.

    The grammar (+, -, *, ^ with integer exponents, parentheses) is a
    subset of Python's once ^ becomes **, with the same precedence, so
    exact integer arithmetic gives the value; only benchmark-generated
    text and program output derived from it are ever evaluated.
    """
    env = dict(zip(names, point))
    value = eval(text.replace("^", "**"), {"__builtins__": {}}, env)  # noqa: S307
    return value % modulus if modulus else value


def partial_degrees(terms: dict) -> tuple[int, ...]:
    arity = len(next(iter(terms)))
    return tuple(max(e[i] for e in terms) for i in range(arity))


def maximal_monomials(terms: dict) -> list[tuple[int, ...]]:
    """Support elements no other support element dominates, sorted by
    descending (total degree, exponents)."""
    supp = list(terms)
    out = [a for a in supp
           if not any(b != a and all(x >= y for x, y in zip(b, a)) for b in supp)]
    return sorted(out, key=lambda e: (sum(e), e), reverse=True)


def random_terms(rng: random.Random, arity: int, count: int, caps, modulus: int | None) -> dict:
    """``count`` distinct monomials in the box [0, caps] with nonzero
    coefficients (from +-[1, 9] over Z)."""
    terms: dict[tuple[int, ...], int] = {}
    while len(terms) < count:
        exps = tuple(rng.randrange(c + 1) for c in caps)
        if modulus:
            terms[exps] = rng.randrange(1, modulus)
        else:
            terms[exps] = rng.choice((-1, 1)) * rng.randrange(1, 10)
    return terms


def times_linear(terms: dict, var: int, root: int, modulus: int | None) -> dict:
    """terms * (x_var - root), reduced mod the modulus."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        up = exps[:var] + (exps[var] + 1,) + exps[var + 1:]
        out[up] = out.get(up, 0) + c
        out[exps] = out.get(exps, 0) - root * c
    if modulus:
        out = {e: c % modulus for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def grid_set(rng: random.Random, ring: str, size: int) -> list[int]:
    """``size`` distinct ring elements whose pairwise differences are
    units.  Over Z_35 that means distinct mod 5 and mod 7, so at most five
    elements."""
    if ring == "zmod:35":
        if size > 5:
            raise ValueError("Z_35 grid sets hold at most five elements")
        fives = rng.sample(range(5), size)
        sevens = rng.sample(range(7), size)
        return [next(v for v in range(35) if v % 5 == a and v % 7 == b)
                for a, b in zip(fives, sevens)]
    modulus = modulus_of(ring)
    if modulus:
        return rng.sample(range(modulus), size)
    return rng.sample(range(-3 * size, 3 * size), size)


def render_terms(terms: dict, names) -> str:
    """Expression text for a sparse polynomial, in the nullgrid grammar."""
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[exps]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        body = "*".join([str(abs(c))] + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def digest(value) -> str:
    """Short stable fingerprint of a JSON-able value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sample_points(rng: random.Random, sets, k: int) -> list[tuple[int, ...]]:
    return [tuple(rng.choice(s) for s in sets) for _ in range(k)]
