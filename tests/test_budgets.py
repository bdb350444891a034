"""Every cost bound's refusal, pinned: one input per budget site.

Each case raises the site's exact exception class with its exact message
from the library, and, where the command line reaches the site, prints
the exact JSON error and exits 3."""

import ast
import json
import math
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import nullgrid
from nullgrid import analysis, bounds, cli, errors, oracle, pit, poly, puzzle, transform
from nullgrid.errors import (
    ExponentOverflowError,
    ExpansionTooLargeError,
    GridTooLargeError,
    NullgridError,
    ParseError,
    ResourceLimitError,
    SearchBudgetError,
    charge,
    digits,
    figure,
)
from nullgrid.parser import MAX_INFERRED, MAX_NESTING, infer_variables, parse_dag, parse_poly
from nullgrid.poly import GridSpec
from nullgrid.ring import RingSpec, grid_condition_check

Z = RingSpec.integers()
F101 = RingSpec.prime_field(101)
F10007 = RingSpec.prime_field(10007)
F1000003 = RingSpec.prime_field(1000003)


def _grid(text, ring):
    return GridSpec.from_text(text, ring)


def _tight(n):
    grid = _grid(f"0..{n - 1}", Z)
    return oracle.tightness_family(grid, (n,)), grid


SITES = [
    ("poly.GridSpec.from_text", GridTooLargeError,
     lambda: _grid("0..1000000", Z),
     ["verify", "--grid", "0..1000000", "--poly", "x"],
     "grid set 1 has more than 1000000 elements"),
    ("poly.annihilator", GridTooLargeError,
     lambda: poly.annihilator(F10007, range(5000)),
     ["tightness", "--ring", "fp:10007", "--grid", "0..4999", "--d", "5000"],
     "prod(x - a) over 5000 elements needs 25000000 products, limit is 4000000"),
    # each power alone fits; the running total passes at the second one
    ("parser.expand_dag", ExpansionTooLargeError,
     lambda: parse_poly("(x+y)^2500 + (x-y)^2500", ["x", "y"], F101),
     ["analyze", "--ring", "fp:101", "--poly", "(x+y)^2500 + (x-y)^2500"],
     "expansion passes its budget of 4000000 term products at a 2-term polynomial to the power 2500; "
     "expand a smaller expression"),
    ("transform._reduce_variable", GridTooLargeError,
     lambda: transform.trim(parse_poly("x^60000", ["x"], F10007), _grid("0..999", F10007)),
     ["trim", "--ring", "fp:10007", "--poly", "x^60000", "--grid", "0..999"],
     "reducing x1^60000 modulo 1000 elements needs 58941999 products, limit is 4000000"),
    ("transform.vandermonde_multipliers", GridTooLargeError,
     lambda: transform.vandermonde_multipliers(F10007, range(4001), 1000),
     None,
     "the multipliers need 4005001 ring operations, limit is 4000000"),
    ("transform.require_extractable", GridTooLargeError,
     lambda: transform.require_extractable(_grid("0..5999", F10007), (3000,)),
     ["coeff", "--ring", "fp:10007", "--poly", "x^3000", "--grid", "0..5999", "--monomial", "3000"],
     "the multipliers need 18006000 ring operations, limit is 4000000"),
    ("pit.identity_test", SearchBudgetError,
     lambda: pit.identity_test(parse_dag("(x+y)^3", ["x", "y"], F101), parse_dag("(y+x)^3", ["x", "y"], F101),
                               samples_per_var=100, trials=10**6),
     ["pit", "(x+y)^3", "(y+x)^3", "--ring", "fp:101", "--samples", "100", "--trials", "1000000"],
     "1000000 trials of a 7-node DAG need 7000000 node evaluations, limit is 4000000"),
    ("bounds.min_products_by_total", SearchBudgetError,
     lambda: bounds.min_products_by_total((1,) * 4, (1001,) * 4),
     ["bounds", "--ring", "fp:10007", "--poly", "x^1000*y^1000*z^1000*w^1000 + 1",
      "--grid", "0..1000;0..1000;0..1000;0..1000"],
     "the generalized Alon-Furedi table over 4 variables needs 6010004 steps, limit is 4000000"),
    ("puzzle.exhaustive_search", SearchBudgetError,
     lambda: puzzle.exhaustive_search(3, 10, 1000),
     ["puzzle", "exhaustive", "--size", "3", "--range", "10", "--budget", "1000"],
     "780084900 candidate (a, b, u) tuples exceed the budget 1000; use local_search"),
    # 65537 * 65539 resists trial division below 2^16; the second set's
    # 998,991 pairs fit alone, and the running count passes there
    ("ring.grid_condition_check", GridTooLargeError,
     lambda: grid_condition_check(RingSpec.integers_mod(4295229443), [range(100), range(1414)]),
     ["verify", "--ring", "zmod:4295229443", "--grid", "0..99;0..1413", "--poly", "x+y"],
     "checking the grid over zmod:4295229443 compares 1003941 pairs, limit is 1000000"),
    ("oracle._plan", GridTooLargeError,
     lambda: oracle.count_nonzeros(*_tight(1000)),
     ["tightness", "--ring", "int", "--grid", "0..999", "--d", "1000"],
     "reference evaluation needs 1000 points and 1740130000 steps, limit is 30000000"),
    # 20000 sampled rows on 300 x 300 points once ran 11.7 s
    ("oracle.min_nonzero_search", SearchBudgetError,
     lambda: oracle.min_nonzero_search(((3, 2), (0, 4), (4, 0)), (3, 2), _grid("0..299;0..299", F10007),
                                       exhaustive_limit=0, sample_budget=20_000),
     None,
     "minimum search needs 5400000000 multiply-adds on 90000 points, limit is 256000000"),
    ("oracle._grid_values", GridTooLargeError,
     lambda: transform.grid_values(parse_poly("x*y", ["x", "y"], F1000003), _grid("0..1000;0..999", F1000003)),
     ["coeff", "--ring", "fp:1000003", "--grid", "0..1000;0..999", "--monomial", "1,1", "--poly", "x*y"],
     "grid has 1001000 points, value limit is 1000000"),
    ("oracle.count_nonzeros", GridTooLargeError,
     lambda: oracle.count_nonzeros(parse_poly("x*y", ["x", "y"], Z), _grid("0..99;0..99", Z), point_limit=9999),
     ["verify", "--ring", "int", "--grid", "0..99;0..99", "--limit-grid", "9999", "--poly", "x*y"],
     "grid has 10000 points, limit is 9999"),
    ("cli._cmd_verify", GridTooLargeError,
     lambda: cli._cmd_verify(cli.build_parser().parse_args(
         ["verify", "--ring", "fp:1009", "--vars", "x,y", "--poly", "x", "--grid", "0..1008;0..999", "--list-zeros"])),
     ["verify", "--ring", "fp:1009", "--vars", "x,y", "--poly", "x", "--grid", "0..1008;0..999", "--list-zeros"],
     "grid has 1009000 points, --list-zeros limit is 1000000"),
]


@pytest.mark.usefixtures("numpy_counted_as_loaded")
@pytest.mark.parametrize("error,call,argv,message", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_each_budget_refuses_with_its_pinned_message(capsys, error, call, argv, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    if argv is not None:
        assert cli.main(argv) == cli.EXIT_RESOURCE
        out = capsys.readouterr()
        assert out.out == json.dumps({"schema": 1, "error": {"code": "resource-limit", "message": message}},
                                     sort_keys=True, indent=2) + "\n"
        assert out.err == ""


RESOURCE_LIMITS = {"ResourceLimitError", "GridTooLargeError", "ExpansionTooLargeError", "SearchBudgetError"}


def test_only_charge_raises_a_resource_limit():
    # every refusal goes through errors.charge, which raises the class it is
    # handed, so its message rules hold everywhere
    offenders = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if (getattr(exc, "id", None) or getattr(exc, "attr", None)) in RESOURCE_LIMITS:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _charge_sites():
    """The ``module.function`` around every ``charge(...)`` call outside
    ``errors``: a method keeps its class, and a nested function counts as
    the function it is nested in."""
    sites = set()

    def walk(node, name, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (getattr(child.func, "id", None)
                                                or getattr(child.func, "attr", None)) == "charge":
                sites.add(name)
            if isinstance(child, ast.ClassDef) or isinstance(child, ast.FunctionDef) and not in_function:
                walk(child, f"{name}.{child.name}", isinstance(child, ast.FunctionDef))
            else:
                walk(child, name, in_function)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem != "errors":
            walk(ast.parse(path.read_text(), str(path)), path.stem, False)
    return sites


def test_every_charge_site_is_in_the_budget_table():
    # the site column of the table in the errors docstring, a continuation
    # line being one that starts with "("
    lines = errors.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    assert len(rules) == 3
    table = [line.split()[0] for line in lines[rules[1] + 1:rules[2]] if not line.startswith("(")]
    assert len(table) == len(set(table)) == 16
    assert _charge_sites() == set(table)


def test_the_resource_limits_keep_their_names_and_ancestry():
    for cls in (GridTooLargeError, ExpansionTooLargeError, SearchBudgetError):
        assert cls.__bases__ == (ResourceLimitError,)
        assert issubclass(cls, NullgridError) and issubclass(cls, RuntimeError)
        assert getattr(nullgrid, cls.__name__) is cls
    assert len({GridTooLargeError, ExpansionTooLargeError, SearchBudgetError}) == 3
    handlers = [h for h in ast.walk(ast.parse(Path(cli.__file__).read_text())) if isinstance(h, ast.ExceptHandler)]
    names = {n.id for h in handlers if h.type for n in ast.walk(h.type) if isinstance(n, ast.Name)}
    assert names & RESOURCE_LIMITS == {"ResourceLimitError"}


FIGURES = [
    (10**100 - 1, str(10**100 - 1)),
    (-(10**100 - 1), str(-(10**100 - 1))),
    (10**100, "~10^100"),
    (-(10**100), "-~10^100"),
    (10**5000, "~10^5000"),
    (4 * 10**4999, "~10^5000"),
    (3 * 10**4999, "~10^4999"),
    (7, "7"),
    ("zmod:6", "zmod:6"),
]


@pytest.mark.parametrize("value,shown", FIGURES, ids=[shown[:12] for _, shown in FIGURES])
def test_a_figure_prints_in_full_up_to_100_digits(value, shown):
    assert figure(value) == shown


def test_charge_builds_no_message_within_its_limit():
    class Loud:
        def __str__(self):
            raise AssertionError("the message was built")

    charge(5, 5, GridTooLargeError, "{} {work} {limit}", Loud())
    with pytest.raises(SearchBudgetError, match=r"^x 6 past 5 at ~10\^200$"):
        charge(6, 5, SearchBudgetError, "{} {work} past {limit} at {}", "x", 10**200)


def test_the_puzzle_count_order_from_logs_matches_the_exact_count():
    # the order from logs rounds a log10 within 1e-6 of the exact count's
    for m in [*range(1, 40), 101, 2001, 4001, 20001, 10**6 + 1, 10**30 + 1]:
        for s in {1, 2, 3, 7, 40, 300, m // 2, m - 1, m}:
            if 1 <= s <= m and s * m.bit_length() < 100_000:
                exact = math.log10(comb(m, s) ** 2 * m ** (s - 1))
                assert abs(puzzle._tuples_order(m, s) - exact) < 0.5 + 1e-6, (m, s)


def test_the_asymptotic_density_entry_never_raises():
    assert isinstance(bounds.erdos_density_bound(120, 2, 10), float)
    value = bounds.erdos_density_bound(121, 2, 10)
    numerator = 363**121
    assert isinstance(value, int) and abs(numerator - value) * 10**12 < numerator
    assert bounds.erdos_density_bound(5000, 2, 10) == 15000**5000  # the root of 10 rounds to 1.0


def test_parentheses_nest_to_a_fixed_depth():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(deep, ["x"], F101) == parse_poly("x", ["x"], F101)
    with pytest.raises(ParseError) as info:
        parse_dag("1 + " + "(" * 250 + "x" + ")" * 250, ["x"], F101)
    assert info.value.position == 4 + MAX_NESTING
    assert str(info.value) == "parentheses nest deeper than 200 levels (at position 204)"


def _sets(n, text="0..9"):
    return ";".join([text] * n)


def _names(n):
    return ",".join(f"x{i}" for i in range(1, n + 1))


# inputs that once crashed or printed thousands of digits
REPROS = [
    (["tightness", "--grid", _sets(5000), "--d", ",".join(["0"] * 5000)], 3,
     "grid has ~10^5000 points, limit is 100000000"),
    (["tightness", "--grid", _sets(2000), "--d", ",".join(["0"] * 2000)], 3,
     "grid has ~10^2000 points, limit is 100000000"),
    (["verify", "--ring", "fp:101", "--vars", _names(5000), "--poly", "x1+1", "--grid", _sets(5000)], 3,
     "grid has ~10^5000 points, limit is 100000000"),
    (["coeff", "--ring", "fp:101", "--vars", _names(5000), "--poly", "x1+1", "--grid", _sets(5000),
      "--monomial", ",".join(["0"] * 5000)], 3,
     "grid has ~10^5000 points, value limit is 1000000"),
    (["puzzle", "exhaustive", "--size", "1000", "--range", "1000"], 3,
     "~10^4499 candidate (a, b, u) tuples exceed the budget 100000; use local_search"),
    (["puzzle", "exhaustive", "--size", "300", "--range", "1000"], 3,
     "~10^1718 candidate (a, b, u) tuples exceed the budget 100000; use local_search"),
    (["puzzle", "exhaustive", "--size", "1000000", "--range", "1000000"], 3,
     "~10^7505138 candidate (a, b, u) tuples exceed the budget 100000; use local_search"),
    (["bounds", "--ring", "fp:101", "--vars", _names(125), "--poly", "x1*x2+1", "--grid", _sets(125, "0..2")], 0,
     None),
    (["bounds", "--ring", "fp:101", "--vars", _names(5000), "--poly", "1", "--grid", _sets(5000)], 3,
     "the output holds a 5001-digit integer, limit is 4300"),
    (["analyze", "--ring", "fp:101", "--poly", "(" * 250 + "x" + ")" * 250], 1,
     "parentheses nest deeper than 200 levels (at position 200)"),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv,code,message", REPROS, ids=[" ".join(a[:2]) + f"-{i}" for i, (a, _, _) in
                                                           enumerate(REPROS)])
def test_inputs_past_the_budgets_exit_fast_with_a_short_answer(capsys, fmt, argv, code, message):
    start = time.perf_counter()
    assert cli.main(["--format", fmt, *argv]) == code
    assert time.perf_counter() - start < 5
    out = capsys.readouterr()
    assert out.err == ""
    if code == 0:
        data = json.loads(out.out) if fmt == "json" else None
        assert fmt == "text" or any(b["name"] == "erdos-density" for b in data["bounds"])
        return
    assert len(out.out) < 1024
    kind = "parse" if code == 1 else "resource-limit"
    if fmt == "json":
        assert json.loads(out.out)["error"] == {"code": kind, "message": message}
    else:
        assert out.out == f"error ({kind}): {message}\n"


_WIDE = ",".join(str(10**2500 + i) for i in range(4))

# an inferred x<k> prefix past its cap, a coefficient too wide to print, and
# negative limits: each exits at once with its code and a short message
SHORT_ANSWERS = [
    (["analyze", "--poly", "x100000"], 3, "resource-limit",
     "x1..x100000 would be 100000 inferred variables, limit is 1000; name them with --vars"),
    (["analyze", "--poly", "x1000000"], 3, "resource-limit",
     "x1..x1000000 would be 1000000 inferred variables, limit is 1000; name them with --vars"),
    (["pit", "x1001", "x1", "--samples", "50"], 3, "resource-limit",
     "x1..x1001 would be 1001 inferred variables, limit is 1000; name them with --vars"),
    (["analyze", "--ring", "int", "--poly", "x*10^4400"], 3, "resource-limit",
     "the output holds a 4401-digit integer, limit is 4300"),
    (["trim", "--ring", "int", "--poly", "x^3*10^4400 + 1", "--grid", "0..2"], 3, "resource-limit",
     "the output holds a 4401-digit integer, limit is 4300"),
    (["tightness", "--ring", "int", "--d", "2", "--grid", _WIDE], 3, "resource-limit",
     "the output holds a 5001-digit integer, limit is 4300"),
    (["verify", "--grid", "0..1;0..1", "--limit-grid", "-5", "--poly", "x*y"], 1, "invalid-input",
     "point_limit must be nonnegative"),
    (["tightness", "--grid", "0..1;0..1", "--d", "1,1", "--limit-grid", "-5"], 1, "invalid-input",
     "point_limit must be nonnegative"),
    (["verify", "--grid", "0..1;0..1", "--limit-grid", "0", "--poly", "x*y"], 3, "resource-limit",
     "grid has 4 points, limit is 0"),
    (["puzzle", "exhaustive", "--size", "2", "--budget", "-1"], 1, "invalid-input",
     "budget must be nonnegative"),
    (["puzzle", "exhaustive", "--size", "3", "--range", "-1"], 1, "invalid-input",
     "value_range must be nonnegative"),
    (["puzzle", "local", "--size", "3", "--range", "-1"], 1, "invalid-input",
     "value_range must be nonnegative"),
    # the reference's steps on a narrow modulus: each once ran 28 s
    (["verify", "--ring", "fp:2305843009213693951", "--vars", "x,y", "--poly", "x*y",
      "--grid", "0..4999;0..4999"], 3, "resource-limit",
     "reference evaluation needs 25000000 points and 850170000 steps, limit is 30000000"),
    (["tightness", "--ring", "fp:2305843009213693951", "--grid", "0..4999;0..4999", "--d", "1,1"], 3,
     "resource-limit", "reference evaluation needs 25000000 points and 850170000 steps, limit is 30000000"),
    # integers past Python's 4,300-digit limit for reading one from a string
    (["analyze", "--vars", "x", "--poly", "x + " + "1" * 5000], 1, "parse",
     "integer of 5000 digits exceeds the limit of 4300 digits (at position 4)"),
    (["analyze", "--vars", "x", "--poly", "x^" + "1" * 5000], 1, "parse",
     "exponent of 5000 digits exceeds the maximum 1000000 (at position 2)"),
    (["analyze", "--poly", "x" + "1" * 5000], 3, "resource-limit",
     "x1..x<k> for a 5000-digit k would be more than 1000 inferred variables; name them with --vars"),
    (["analyze", "--ring", "fp:101", "--vars", "x", "--poly", "x*" + "1" * 5000], 1, "parse",
     "integer of 5000 digits exceeds the limit of 4300 digits (at position 2)"),
    (["pit", "x + " + "1" * 5000, "x", "--ring", "fp:101", "--samples", "5"], 1, "parse",
     "integer of 5000 digits exceeds the limit of 4300 digits (at position 4)"),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv,code,kind,message", SHORT_ANSWERS,
                         ids=[" ".join(a[:2]) + f"-{i}" for i, (a, *_) in enumerate(SHORT_ANSWERS)])
def test_prefixes_wide_coefficients_and_negative_limits_get_a_short_answer(capsys, fmt, argv, code, kind,
                                                                            message):
    start = time.perf_counter()
    assert cli.main(["--format", fmt, *argv]) == code
    assert time.perf_counter() - start < 5
    out = capsys.readouterr()
    assert out.err == ""
    assert len(out.out) < 1024
    if fmt == "json":
        assert json.loads(out.out)["error"] == {"code": kind, "message": message}
    else:
        assert out.out == f"error ({kind}): {message}\n"


def test_the_inferred_prefix_stops_at_its_cap():
    assert infer_variables(f"x{MAX_INFERRED} + x2") == [f"x{i}" for i in range(1, MAX_INFERRED + 1)]
    with pytest.raises(ResourceLimitError) as info:
        infer_variables(f"x2 + x{MAX_INFERRED + 1}")
    assert type(info.value) is ResourceLimitError
    # other names are never expanded, so nothing caps them
    assert infer_variables(f"y{10**6} + x3") == [f"y{10**6}", "x3"]


@pytest.mark.usefixtures("numpy_counted_as_loaded")
@pytest.mark.parametrize("ring,terms,top", [
    (RingSpec.prime_field(2**61 - 1), {(1, 1): 1}, 2**61 - 1),
    (RingSpec.prime_field(2**61 - 1), {(2**200 + 1, 3): 5, (7, 2**100): 1}, 2**61 - 1),
    (Z, {(3, 1): 7**2800, (0, 2): -(3**5000)}, 1000),
    (Z, {(0, 400): 3, (0, 0): 1}, 2**80),
], ids=["narrow", "exponents", "wide", "wide-power"])
def test_the_largest_grid_the_reference_takes_runs_in_seconds(caplog, ring, terms, top):
    # the side n of an n x n grid past which the reference refuses, found
    # from its charge alone; that grid is evaluated within 5 s
    f = poly.Polynomial(2, ring, terms)

    def grid(n):
        return GridSpec(ring, [range(n), range(top - n, top)])

    def steps(n):
        return oracle._reference_steps(f, (n, n), [max(map(abs, s)) for s in grid(n).sets])

    n, high = 1, 2
    while steps(high) <= oracle._REFERENCE_WORK:
        n, high = high, 2 * high
    while high - n > 1:
        middle = (n + high) // 2
        n, high = (middle, high) if steps(middle) <= oracle._REFERENCE_WORK else (n, middle)
    with pytest.raises(GridTooLargeError, match="reference evaluation needs"):
        oracle.count_nonzeros(f, grid(n + 1), collect_zeros=False)
    caplog.set_level("DEBUG", logger="nullgrid")
    start = time.process_time()
    oracle.count_nonzeros(f, grid(n), collect_zeros=False)
    assert time.process_time() - start < 5
    assert "path=reference" in caplog.records[-1].getMessage()


@pytest.mark.usefixtures("numpy_counted_as_loaded")
@pytest.mark.parametrize("p,side", [(10007, 300), (10007, 100), (2**61 - 1, 30)],
                         ids=["refused", "int64", "python-integers"])
def test_the_largest_search_admitted_runs_in_seconds(p, side):
    # a sample past the charge is refused before anything is scored; the
    # largest one it admits, found from the limit its message gives, is
    # scored within 5 s (0.4 to 1.2 s on a 2-vCPU VM), in int64 and, where
    # p^2 k passes 2^62, on Python integers
    grid = GridSpec(RingSpec.prime_field(p), [range(side), range(side)])

    def search(budget):
        return oracle.min_nonzero_search(((3, 2), (0, 4), (4, 0)), (3, 2), grid, exhaustive_limit=0,
                                         sample_budget=budget)

    start = time.process_time()
    with pytest.raises(SearchBudgetError) as info:
        search(20_000)
    assert time.process_time() - start < 1
    budget = int(str(info.value).rsplit(" ", 1)[1]) // (side * side * 3)
    if side < 300:
        start = time.process_time()
        assert search(budget).tried == budget
        assert time.process_time() - start < 5
        with pytest.raises(SearchBudgetError):
            search(budget + 1)


@pytest.mark.usefixtures("numpy_counted_as_loaded")
def test_the_class_table_is_charged_for_the_solutions_it_counts():
    # the table finds 101^2 solutions at each of 79^2 points: 101^2 x 6241
    # x 4 multiply-adds fit the limit, where the 101^3 classes would count
    # 101 times as many; scoring them took 67 s on a 2-vCPU VM, the table
    # 1.5 s.  One more row of points is refused.
    def search(sides):
        grid = GridSpec(F101, [range(n) for n in sides])
        return oracle.min_nonzero_search(((3, 2), (2, 2), (1, 3), (0, 2)), (1, 3), grid, exhaustive_limit=0,
                                         sample_budget=2_000_000, seed=1)

    start = time.process_time()
    res = search((79, 79))
    assert time.process_time() - start < 5
    assert (res.min_count, sorted(res.witness.terms.items()), res.tried) == (6006, [((1, 3), 88), ((2, 2), 13)],
                                                                             2_000_000)
    with pytest.raises(SearchBudgetError, match="needs 257881280 multiply-adds on 6320 points"):
        search((80, 79))


def test_the_reference_takes_more_variables_than_the_recursion_limit():
    # one generator frame per variable once ended in a RecursionError
    # traceback on a grid of 1,100 singleton sets
    n = 1100
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nullgrid", "verify", "--ring", "int", "--vars", _names(n),
                           "--poly", "*".join(_names(n).split(",")) + " + 1", "--grid", _sets(n, "2")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["nonzero_count"] == 1


def test_the_expansion_is_charged_for_its_exponent_tuples():
    # x1*...*xn + 1 writes an n-entry tuple per leaf and per product, n^2
    # entries in all, which ran 3.7 s at n = 3,000.  6,000 variables are
    # refused before anything is built, from their leaves alone; the
    # largest n the limit in the message admits is expanded within 5 s
    n = 6000
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).resolve().parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nullgrid", "verify", "--ring", "int", "--vars", _names(n),
                           "--poly", "*".join(_names(n).split(",")) + " + 1", "--grid", _sets(n, "2")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3 and len(proc.stderr) < 1024
    message = json.loads(proc.stdout)["error"]["message"]
    assert "exponent tuples of 6001 variables and constants in 6000 variables" in message
    limit = int(message.split("budget of ")[1].split(" ")[0])
    # n + 1 leaves and n - 1 products of one term product each, every tuple counting n // 4
    n = max(n for n in range(1, 6000) if 2 * n * (n // 4) + n - 1 <= limit)
    names = _names(n).split(",")
    start = time.process_time()
    assert len(parse_poly("*".join(names) + " + 1", names, Z).terms) == 2
    assert time.process_time() - start < 5


_LONG = "1" * 5000

# arguments other than polynomial text, each echoed whole by its message
ECHOES = [
    (["verify", "--ring", "fp:101", "--poly", "x", "--grid", "0," + _LONG], "invalid-input",
     f"bad grid element on line 1: '0,{_LONG}'"),
    (["verify", "--ring", "zmod:" + _LONG, "--poly", "x", "--grid", "0,1"], "usage",
     f"bad ring modulus '{_LONG}' in 'zmod:{_LONG}'"),
    (["tightness", "--ring", "fp:101", "--grid", "0..3", "--d", _LONG + ",1"], "usage",
     f"bad integer vector '{_LONG},1'"),
    (["coeff", "--ring", "fp:101", "--poly", "x", "--grid", "0..3", "--monomial", _LONG], "usage",
     f"bad integer vector '{_LONG}'"),
    (["pit", "x", "x", "--samples", _LONG], "usage", f"argument --samples: invalid int value: '{_LONG}'"),
]


@pytest.mark.parametrize("argv,kind,whole", ECHOES, ids=[a[0] + f"-{i}" for i, (a, *_) in enumerate(ECHOES)])
def test_an_echoed_argument_is_clipped(capsys, argv, kind, whole):
    # the message keeps 400 characters at each end
    clipped = f"{whole[:400]} ... ({len(whole) - 800} characters left out) ... {whole[-400:]}"
    for fmt in ("json", "text"):
        assert cli.main(["--format", fmt, *argv]) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.err == ""
        assert len(out.out.encode()) < 1024
        if fmt == "json":
            assert json.loads(out.out)["error"] == {"code": kind, "message": clipped}
        else:
            assert out.out == f"error ({kind}): {clipped}\n"


@pytest.mark.parametrize("length,clipped", [(800, False), (801, True)])
def test_a_message_is_clipped_only_past_800_characters(capsys, length, clipped):
    message = "".join(chr(97 + i % 26) for i in range(length))
    cli._emit_error("usage", message, "text")
    out = capsys.readouterr().out
    if clipped:
        assert out == f"error (usage): {message[:400]} ... (1 characters left out) ... {message[-400:]}\n"
    else:
        assert out == f"error (usage): {message}\n"


def test_integers_past_the_digit_limit_are_refused_by_their_length():
    long = "1" * 4301
    with pytest.raises(ParseError) as info:
        parse_dag(f"(x - {long})", ["x"], Z)
    assert type(info.value) is ParseError and info.value.position == 5
    with pytest.raises(ExponentOverflowError) as info:
        parse_dag(f"x^{long}", ["x"], Z)
    assert info.value.position == 2
    assert "4301 digits" in str(info.value)
    # at the limit the literal is read, and its value decides
    assert parse_poly("1" * 4300, ["x"], Z).terms == {(0,): int("1" * 4300)}
    with pytest.raises(ExponentOverflowError, match="exponent 1000001 exceeds"):
        parse_dag("x^" + "0" * 4293 + "1000001", ["x"], Z)
    # an x<k> name is refused from the digits of k alone past 100 of them
    with pytest.raises(ResourceLimitError, match="for a 101-digit k"):
        infer_variables("x2 + x" + "1" * 101)
    with pytest.raises(ResourceLimitError, match=f"x1..x{'9' * 100} would be"):
        infer_variables("x2 + x" + "9" * 100)


def test_render_refuses_a_coefficient_too_wide_to_print():
    f = parse_poly("x*10^4400 + 1", ["x"], Z)
    with pytest.raises(ResourceLimitError) as info:
        f.render(["x"])
    assert type(info.value) is ResourceLimitError
    assert str(info.value) == "the output holds a 4401-digit integer, limit is 4300"
    assert parse_poly("x*10^4299 - 1", ["x"], Z).render(["x"]) == f"{10**4299}*x - 1"


@pytest.mark.parametrize("n", [0, 1, 9, 10, 99, 10**15 - 1, 10**15, 10**15 + 1, 2**53, 2**53 + 1,
                               10**299 - 1, 10**299, -10**4299, 10**4299 - 1])
def test_digits_counts_without_converting(n):
    assert digits(n) == len(str(abs(n))) - (n == 0)


def test_negative_limits_are_invalid_input_and_zero_is_a_limit():
    f = parse_poly("x*y", ["x", "y"], F101)
    grid = _grid("0..1;0..1", F101)
    with pytest.raises(ValueError, match="point_limit must be nonnegative"):
        oracle.count_nonzeros(f, grid, point_limit=-1)
    with pytest.raises(GridTooLargeError, match="limit is 0"):
        oracle.count_nonzeros(f, grid, point_limit=0)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        puzzle.exhaustive_search(2, 2, budget=-1)
    with pytest.raises(SearchBudgetError):
        puzzle.exhaustive_search(2, 2, budget=0)
    for search in (lambda: puzzle.exhaustive_search(1, -1), lambda: puzzle.local_search(1, value_range=-1)):
        with pytest.raises(ValueError, match="value_range must be nonnegative"):
            search()
    assert puzzle.local_search(1, budget=5, value_range=0).instance.s == 1


def test_classify_inverts_each_order_in_linear_time():
    n = 20_000
    f = poly.Polynomial(n, F101, {tuple(range(n)): 1, (0,) * n: 1})
    start = time.perf_counter()
    reports = analysis.classify(f)
    assert time.perf_counter() - start < 0.5
    assert reports[0].witness_d == tuple(range(n))
