"""Command line driver.

Subcommands: analyze, bounds, verify, trim, coeff, pit, puzzle, tightness.
Output is JSON by default ("schema": 1, keys sorted, byte-stable across
runs for fixed inputs and seeds) or a terse text rendering with --format
text.  Exit codes: 0 success, 1 usage or input error, 2 a theorem
hypothesis is violated, 3 a resource limit was hit.  -v sends the
``nullgrid`` logger's DEBUG records (which code path each evaluation and
search took) to stderr; stdout is the same with or without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import prod

from .errors import (
    GridTooLargeError,
    HypothesisViolationError,
    NullgridError,
    ParseError,
    ResourceLimitError,
    charge,
    charge_output,
    digits,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # hypothesis violations, so remap.
    def error(self, message):
        raise _UsageError(message)


def jsonable(obj):
    """Recursively convert package values to JSON-stable primitives.

    A record becomes a dict of the fields its class matches by position
    (``__match_args__``): every NamedTuple, and the ``RingSpec``,
    ``RingElem`` and ``ExprDag`` values.  A ``Polynomial`` or ``GridSpec``
    declares none and is returned as it is.  A Fraction is recognised
    without importing ``fractions``: none can exist unless that module is
    already loaded."""
    if isinstance(obj, getattr(sys.modules.get("fractions"), "Fraction", ())):
        return f"{obj.numerator}/{obj.denominator}"
    fields = getattr(type(obj), "__match_args__", None)
    if fields is not None:
        return {name: jsonable(getattr(obj, name)) for name in fields}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    return obj


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}") from None


def _load_poly(args, ring):
    from .parser import infer_variables, parse_poly

    if args.poly is not None and args.polyfile is not None:
        raise _UsageError("pass the polynomial inline with --poly or as a file, not both")
    if args.poly is not None:
        text, source = args.poly.strip(), "--poly"
    elif args.polyfile is not None:
        text, source = _read_text(args.polyfile).strip(), args.polyfile
    else:
        raise _UsageError("pass a polynomial file or --poly")
    names = args.vars.split(",") if args.vars else infer_variables(text)
    if not names:
        raise _UsageError(f"no variables found in {source}; pass --vars")
    return parse_poly(text, names, ring), names


def _load_poly_and_grid(args):
    ring = _ring_of(args)
    f, names = _load_poly(args, ring)
    return ring, f, names, _load_grid(args, ring)


def _load_grid(args, ring):
    from .poly import GridSpec

    spec = getattr(args, "grid", None)
    if not spec:
        raise _UsageError("this subcommand needs --grid")
    text = _read_text(spec) if os.path.exists(spec) else spec
    return GridSpec.from_text(text, ring)


def _ring_of(args):
    from .ring import RingSpec

    try:
        return RingSpec.from_string(args.ring)
    except ValueError as e:
        raise _UsageError(str(e)) from None


# -- subcommand handlers -----------------------------------------------------


def _poly_header(command: str, ring, names, f) -> dict:
    """The leading fields of every subcommand that reads one polynomial."""
    return {"command": command, "ring": str(ring), "vars": names, "polynomial": f.render(names)}


def _cmd_analyze(args):
    from . import analysis

    ring = _ring_of(args)
    f, names = _load_poly(args, ring)
    reports = [] if f.is_zero else analysis.classify(f)
    return {
        **_poly_header("analyze", ring, names, f),
        "is_zero": f.is_zero,
        "hypotheses": reports,
    }


def _cmd_bounds(args):
    from . import bounds

    ring, f, names, grid = _load_poly_and_grid(args)
    return {
        **_poly_header("bounds", ring, names, f),
        "grid": grid.sets,
        "bounds": bounds.collect_bounds(f, grid),
    }


def _cmd_verify(args):
    from . import oracle

    ring, f, names, grid = _load_poly_and_grid(args)
    charge(args.list_zeros and grid.size(), oracle.DEFAULT_ZERO_SET_CAP, GridTooLargeError,
           "grid has {work} points, --list-zeros limit is {limit}")
    count = oracle.count_nonzeros(f, grid, collect_zeros=args.list_zeros,
                                  point_limit=_point_limit(args))
    report = oracle.verify_bounds(f, grid, count=count)
    payload = {
        **_poly_header("verify", ring, names, f),
        "grid": grid.sets,
        "grid_size": report.grid_size,
        "nonzero_count": report.nonzero_count,
        "zero_count": report.zero_count,
        "all_guaranteed_sound": report.all_guaranteed_sound,
        "checks": [{"bound": c.report, "sound": c.sound, "slack": c.slack} for c in report.checks],
    }
    if args.list_zeros:
        payload["zeros"] = count.zero_set
    return payload


def _cmd_trim(args):
    from . import transform

    ring, f, names, grid = _load_poly_and_grid(args)
    g = transform.trim(f, grid)
    payload = {
        **_poly_header("trim", ring, names, f),
        "trimmed": g.render(names),
        "term_count": len(g.terms),
    }
    if not f.is_zero:
        payload["degrees_before"] = f.degrees()[0]
    if not g.is_zero:
        payload["degrees_after"] = g.degrees()[0]
    return payload


def _cmd_coeff(args):
    from . import transform
    from .poly import check_compatible

    ring, f, names, grid = _load_poly_and_grid(args)
    d = _parse_vector(args.monomial, grid.arity)
    check_compatible(f, grid)  # an arity mismatch is reported before the preconditions
    transform.require_extractable(grid, d)
    values = transform.grid_values(f, grid)
    c = transform.coefficient_via_grid(values, grid, d)
    return {
        **_poly_header("coeff", ring, names, f),
        "monomial": d,
        "coefficient": c.value,
        "stored_coefficient": f.coefficient(d).value,
    }


def _cmd_pit(args):
    from . import pit
    from .parser import infer_variables, parse_dag

    ring = _ring_of(args)
    names = args.vars.split(",") if args.vars else sorted(
        set(infer_variables(args.expr1)) | set(infer_variables(args.expr2)))
    if not names:
        raise _UsageError("no variables found; pass --vars")
    g1 = parse_dag(args.expr1, names, ring)
    g2 = parse_dag(args.expr2, names, ring)
    verdict = pit.identity_test(g1, g2, samples_per_var=args.samples,
                                trials=args.trials, seed=args.seed)
    return {
        "command": "pit",
        "ring": str(ring),
        "vars": names,
        "verdict": verdict,
    }


def _cmd_puzzle(args):
    from . import puzzle

    if args.mode == "exhaustive":
        result = puzzle.exhaustive_search(args.size, args.range, budget=args.budget)
        extra = {"examined": result.examined}
    else:
        result = puzzle.local_search(args.size, budget=args.budget, seed=args.seed,
                                     value_range=args.range)
        extra = {"steps": result.steps, "restarts": result.restarts,
                 "history": result.history}
    inst = result.instance
    return {
        "command": "puzzle",
        "mode": args.mode,
        "s": inst.s,
        "instance": inst,
        "multiplication_table": inst.multiplication_table(),
        "addition_table": inst.addition_table(),
        "agreements": sorted(result.pattern.cells),
        "count": result.pattern.count,
        "k22_free": puzzle.k22_check(result.pattern),
        "zarankiewicz_cap": puzzle.zarankiewicz_k22_bound(inst.s),
        **extra,
    }


def _cmd_tightness(args):
    from . import oracle

    ring = _ring_of(args)
    grid = _load_grid(args, ring)
    d = _parse_vector(args.d, grid.arity)
    f = oracle.tightness_family(grid, d)
    count = oracle.count_nonzeros(f, grid, collect_zeros=False,
                                  point_limit=_point_limit(args))
    expected = prod(s - di for s, di in zip(grid.sizes, d))
    return {
        "command": "tightness",
        "ring": str(ring),
        "grid": grid.sets,
        "d": d,
        "polynomial": f.render(),
        "nonzero_count": count.nonzeros,
        "product_value": expected,
        "slack": count.nonzeros - expected,
    }


def _point_limit(args) -> int:
    """--limit-grid, or the oracle's default; read here, not when the
    parser is built, so that commands without a count load no oracle."""
    from .oracle import DEFAULT_POINT_LIMIT

    return DEFAULT_POINT_LIMIT if args.limit_grid is None else args.limit_grid


def _parse_vector(text: str, arity: int) -> tuple[int, ...]:
    try:
        d = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"bad integer vector {text!r}") from None
    if len(d) != arity:
        raise _UsageError(f"vector {text!r} has {len(d)} entries, grid has {arity} variables")
    return d


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="nullgrid", description=__doc__.splitlines()[0])
    top.add_argument("--format", choices=("json", "text"), default="json")
    top.add_argument("-v", "--verbose", action="store_true",
                     help="log which code paths ran to stderr (DEBUG level)")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, grid=True, poly=True):
        p.add_argument("--ring", default="int", help="fp:<p>, int, or zmod:<m>")
        p.add_argument("--vars", default=None, help="comma-separated variable names")
        if poly:
            p.add_argument("polyfile", nargs="?", default=None,
                           help="file with one polynomial expression")
            p.add_argument("--poly", default=None,
                           help="polynomial expression given inline")
        if grid:
            p.add_argument("--grid", required=False,
                           help="grid: ';'-separated variable sets of comma-separated "
                                "elements or a..b ranges, or a file with one set per line")
        return p

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    common(command("analyze", _cmd_analyze, "detect monomial hypotheses"), grid=False)
    common(command("bounds", _cmd_bounds, "list certified lower bounds"))
    v = common(command("verify", _cmd_verify, "check every bound against brute force"))
    v.add_argument("--list-zeros", action="store_true")
    v.add_argument("--limit-grid", type=int, default=None)
    common(command("trim", _cmd_trim, "reduce modulo the grid annihilators"))
    c = common(command("coeff", _cmd_coeff, "coefficient of a monomial from grid values"))
    c.add_argument("--monomial", required=True, help="comma-separated exponents")

    p = command("pit", _cmd_pit, "randomized identity test of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--ring", default="fp:101")
    p.add_argument("--vars", default=None)
    p.add_argument("--samples", type=int, required=True, help="samples per variable")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    z = command("puzzle", _cmd_puzzle, "search for table agreement patterns")
    z.add_argument("mode", choices=("exhaustive", "local"))
    z.add_argument("--size", type=int, required=True, help="table side s")
    z.add_argument("--range", type=int, default=8, help="entries live in [-R, R]")
    z.add_argument("--budget", type=int, default=100_000)
    z.add_argument("--seed", type=int, default=0)

    t = command("tightness", _cmd_tightness, "product-bound-tight polynomial for a grid")
    t.add_argument("--ring", default="int")
    t.add_argument("--grid", required=True)
    t.add_argument("--d", required=True, help="comma-separated subset sizes")
    t.add_argument("--limit-grid", type=int, default=None)
    return top


def _render(payload: dict, fmt: str) -> str:
    """The output text of a payload.  An integer past Python's digit limit
    for ``str`` is refused as a ResourceLimitError, not printed."""
    payload = jsonable({"schema": SCHEMA, **payload})
    try:
        if fmt == "json":
            return json.dumps(payload, sort_keys=True, indent=2)
        return "\n".join(f"{key}: {json.dumps(value, sort_keys=True) if isinstance(value, (list, dict)) else value}"
                         for key, value in payload.items())
    except ValueError:
        charge_output(_widest(payload))
        raise


def _widest(value) -> int:
    """Decimal digits of the widest integer in a JSON-ready value, found
    without converting any integer to a string."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return max(map(_widest, value), default=0)
    return digits(value) if isinstance(value, int) else 0


# characters an error message keeps at each end once it is longer than
# twice this: an argument it echoes may be of any length
_MESSAGE_END = 400


def _emit_error(code: str, message: str, fmt: str):
    left_out = len(message) - 2 * _MESSAGE_END
    if left_out > 0:
        message = f"{message[:_MESSAGE_END]} ... ({left_out} characters left out) ... {message[-_MESSAGE_END:]}"
    payload = {"schema": SCHEMA, "error": {"code": code, "message": message}}
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"error ({code}): {message}")


def main(argv=None) -> int:
    # argparse sets format here when it reads --format, so a usage error it
    # raises later in the arguments prints in that format too
    args = argparse.Namespace(format="json")
    handler = None
    try:
        build_parser().parse_args(argv, args)
        if args.verbose:
            import logging  # only here: runs without -v never load it

            logger = logging.getLogger("nullgrid")
            level = logger.level
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
            logger.addHandler(handler)
            logger.setLevel(logging.DEBUG)
        text = _render(args.run(args), args.format)
    except _UsageError as e:
        # an error in --format itself prints JSON, whatever an earlier --format said
        _emit_error("usage", str(e), "json" if str(e).startswith("argument --format:") else args.format)
        return EXIT_USAGE
    except ParseError as e:
        _emit_error("parse", str(e), args.format)
        return EXIT_USAGE
    except HypothesisViolationError as e:
        _emit_error("hypothesis-violation", str(e), args.format)
        return EXIT_HYPOTHESIS
    except ResourceLimitError as e:
        _emit_error("resource-limit", str(e), args.format)
        return EXIT_RESOURCE
    except (NullgridError, ValueError) as e:
        _emit_error("invalid-input", str(e), args.format)
        return EXIT_USAGE
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)
    print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
