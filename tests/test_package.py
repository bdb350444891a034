"""The package's public names, and what each command imports.

Public names load their module on first access, and the command line
driver imports only the modules its command runs; the subprocess tests
read a fresh interpreter's imports from ``python -X importtime``.  Every
module-level import in the package is used by its module, no module
imports ``dataclasses``, only ``cli.main``'s ``-v`` branch imports
``logging``, and numpy is imported only inside functions; DEBUG records
still reach a handler added after import.  Only ``ring._Frozen`` defines
how a value refuses to change and how it pickles.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nullgrid

SRC = str(Path(nullgrid.__file__).resolve().parents[1])


def _imports(*args, exit_code=0):
    """Every module a fresh interpreter imports while running ``args``,
    which must exit with ``exit_code``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == exit_code, proc.stdout + proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


# no command loads dataclasses (nor inspect through it), and logging loads
# only under -v
NO_COUNT = {"nullgrid.oracle", "numpy"}
NEVER = {"dataclasses", "inspect", "logging"}
POLY = "--poly=x*y - 2*x + 1"


# fractions is loaded only by the modules that build a Fraction
@pytest.mark.parametrize("argv,absent,exit_code", [
    (["pit", "(x + y)^2", "x^2 + 2*x*y + y^2", "--samples", "50"],
     NO_COUNT | {"nullgrid.bounds", "nullgrid.analysis", "nullgrid.puzzle"}, 0),
    (["puzzle", "exhaustive", "--size", "2", "--range", "2"],
     NO_COUNT | {"nullgrid.parser", "nullgrid.poly", "fractions"}, 0),
    (["analyze", "--poly", "x^2*y - 3*y + 1"], NO_COUNT | {"fractions"}, 0),
    (["bounds", "--ring", "fp:11", "--grid", "0..5;1..6", POLY], NO_COUNT, 0),
    (["trim", "--ring", "fp:7", "--grid", "0..2;0..3", "--poly", "x^4*y - y^5"],
     NO_COUNT | {"fractions"}, 0),
    (["coeff", "--ring", "fp:7", "--grid", "0..5;0..5", "--monomial", "1,1", POLY],
     {"numpy", "fractions", "nullgrid.analysis", "nullgrid.bounds"}, 0),
    (["verify", "--grid", "0..4;0..4", POLY], {"numpy"}, 0),
    (["verify", "--ring", "fp:7", "--grid", "0..6;0..6", "--list-zeros", POLY], {"numpy"}, 0),
    (["verify", "--ring", "zmod:12", "--grid", "0..3;0..3", POLY], {"numpy"}, 2),
    (["verify", "--grid", "0..4;0..4", "--limit-grid", "10", POLY], {"numpy"}, 3),
    # 36 points x 36 terms, above the small-grid constant
    (["tightness", "--ring", "fp:11", "--grid", "2,3,7,8,9,10;2,4,5,6,7,8", "--d", "5,5"],
     {"numpy", "fractions"}, 0),
], ids=["pit", "puzzle", "analyze", "bounds", "trim", "coeff", "verify-5x5", "verify-zeros",
        "zero-divisor-grid", "limit-grid", "tightness-6x6"])
def test_command_leaves_modules_unloaded(argv, absent, exit_code):
    loaded = _imports("-m", "nullgrid", *argv, exit_code=exit_code)
    assert "nullgrid.cli" in loaded
    assert not loaded & (absent | NEVER)


def test_verbose_command_loads_logging():
    loaded = _imports("-m", "nullgrid", "-v", "verify", "--grid", "0..4;0..4", POLY)
    assert "logging" in loaded
    assert not loaded & {"dataclasses", "inspect", "numpy"}


COLD_RUN = """
import json, logging, sys
from nullgrid import oracle
from nullgrid.poly import GridSpec, Polynomial
from nullgrid.ring import RingSpec

messages = []
handler = logging.Handler()
handler.emit = lambda record: messages.append(record.getMessage())
logging.getLogger("nullgrid").addHandler(handler)
logging.getLogger("nullgrid").setLevel(logging.DEBUG)
F = RingSpec.prime_field(101)
f = Polynomial(2, F, {(1, 1): 1, (0, 0): 1})
grid = GridSpec(F, [range(40), range(40)])
oracle._cold_work_left = 300_000
rows = []
for _ in range(5):
    count = oracle.count_nonzeros(f, grid)
    rows.append([count.nonzeros, count.zero_set, "numpy" in sys.modules, messages[-1]])
print(json.dumps(rows))
"""


def test_numpy_loads_once_the_cold_budget_is_spent():
    # each count charges its 83,640 reference steps against 300,000: three fit
    proc = subprocess.run([sys.executable, "-c", COLD_RUN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [loaded for _, _, loaded, _ in rows] == [False] * 3 + [True] * 2
    assert all("path=reference reason=numpy not loaded" in m for _, _, _, m in rows[:3])
    assert all("path=kernel reason=none" in m for _, _, _, m in rows[3:])
    assert all(row[:2] == rows[0][:2] for row in rows)


def test_a_cold_grid_past_the_reference_budget_goes_to_the_kernel():
    # y^(2^400) takes a product of residues per bit at each of the
    # 101 x 101 points, 3.7·10^7 reference steps, past the cold budget: the
    # kernel runs it in a process that had not loaded numpy
    code = ("import sys\nfrom nullgrid import oracle\nfrom nullgrid.poly import GridSpec, Polynomial\n"
            "from nullgrid.ring import RingSpec\n"
            "F = RingSpec.prime_field(101)\nf = Polynomial(2, F, {(0, 2**400): 1, (0, 0): 1})\n"
            "grid = GridSpec(F, [range(101), range(101)])\n"
            "print(oracle.count_nonzeros(f, grid, collect_zeros=False).nonzeros, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    nonzeros = 101 * sum(1 for y in range(101) if (pow(y, 2**400, 101) + 1) % 101)
    assert proc.stdout.split() == [str(nonzeros), "True"]


LATE_HANDLER = """
import json, sys
from nullgrid import GridSpec, RingSpec, classify, count_nonzeros, min_nonzero_search, parse_poly

F = RingSpec.prime_field(7)
f = parse_poly("x^2*y - 3*x + 1", ["x", "y"], F)
grid = GridSpec(F, [range(5), range(4)])

def run():
    classify(f)
    count_nonzeros(f, grid)
    min_nonzero_search(((2, 0), (1, 1), (0, 0)), (2, 0), grid,
                       exhaustive_limit=10, sample_budget=50, seed=3)

run()
loaded_before = "logging" in sys.modules
import logging
records = []
handler = logging.Handler(logging.DEBUG)
handler.emit = lambda r: records.append([r.name, r.levelname, r.funcName, r.getMessage()])
logging.getLogger("nullgrid").addHandler(handler)
logging.getLogger("nullgrid").setLevel(logging.DEBUG)
run()
print(json.dumps([loaded_before, records]))
"""


def test_debug_records_reach_a_handler_added_after_import():
    proc = subprocess.run([sys.executable, "-c", LATE_HANDLER], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    loaded_before, records = json.loads(proc.stdout)
    assert loaded_before is False
    # the records a handler configured before import received from the
    # module-level loggers: same logger, function and text
    grid = ["nullgrid.oracle", "DEBUG", "_plan",
            "grid evaluation path=kernel reason=none primes=0 chunks=1"]
    assert records == [
        ["nullgrid.analysis", "DEBUG", "_witnesses", "classify terms=3 orders=2 reports=16 d_leading=5"],
        grid, grid, grid, grid,
        ["nullgrid.oracle", "DEBUG", "min_nonzero_search",
         "min search path=sampled candidates=50 blocks=1 source=words scored=classes rows=49"],
    ]


def test_import_loads_no_submodule():
    assert not {name for name in _imports("-c", "import nullgrid") if name.startswith("nullgrid.")}


def test_import_loads_no_logging():
    # the package adds no handler; unconfigured, its DEBUG records are dropped
    assert "logging" not in _imports("-c", "import nullgrid")


def _module_imports(tree):
    """(bound name, line) of every import at module level, including
    under a module-level ``if``; ``from __future__`` binds nothing."""
    for node in tree.body:
        for stmt in [node, *(node.body if isinstance(node, ast.If) else ())]:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and \
                    getattr(stmt, "module", None) != "__future__":
                for alias in stmt.names:
                    yield alias.asname or alias.name.split(".")[0], stmt.lineno


@pytest.mark.parametrize("path", sorted(Path(SRC, "nullgrid").glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(name, line) for name, line in _module_imports(tree) if name not in used] == []


def _import_sites(node, enclosing=()):
    """(imported module, enclosing nodes) of every absolute import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((alias.name, enclosing) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module, enclosing
        yield from _import_sites(child, enclosing + (child,))


def _in_verbose_branch_of_main(path, enclosing):
    return path.name == "cli.py" and bool(enclosing) and getattr(enclosing[0], "name", "") == "main" \
        and any(isinstance(n, ast.If) and ast.unparse(n.test) == "args.verbose" for n in enclosing)


@pytest.mark.parametrize("path", sorted(Path(SRC, "nullgrid").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_logging(path):
    # records are NamedTuples or __slots__ classes, and DEBUG records go
    # through errors.debug; only cli.main's -v branch imports logging
    sites = _import_sites(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name, enclosing in sites
            if name.split(".")[0] == "dataclasses" or name.split(".")[0] == "logging"
            and not _in_verbose_branch_of_main(path, enclosing)] == []


@pytest.mark.parametrize("path", sorted(Path(SRC, "nullgrid").glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_only_inside_functions(path):
    # the kernel and the search import numpy where they run, so that
    # importing any module, oracle included, never loads it
    sites = _import_sites(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name, enclosing in sites if name.split(".")[0] == "numpy" and not any(
        isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in enclosing)] == []


def test_only_the_frozen_base_defines_immutability():
    # every immutable value class inherits set, delete and pickling from ring._Frozen
    owners = [f"{path.stem}.{node.name}"
              for path in sorted(Path(SRC, "nullgrid").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.ClassDef)
              and {"__setattr__", "__delattr__", "__reduce__"} & _defined_names(node)]
    assert owners == ["ring._Frozen"]


def _defined_names(cls: ast.ClassDef) -> set[str]:
    """The names a class body binds by ``def`` or by assignment."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _charge_sites(path):
    """The site of each ``charge`` call in a module: module.function or
    module.Class.method, the outermost definition around it, so that a
    nested function counts toward the function it is defined in."""
    def walk(node, site, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", "")) == "charge":
                yield site
            if not in_function and isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, f"{site}.{child.name}", not isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, site, in_function)

    return set(walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, False))


def test_every_charge_is_a_row_of_the_budget_table():
    # the table in the errors module's docstring lists every cost bound;
    # charge_output is described in the prose under it instead
    lines = nullgrid.errors.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=")]
    table = {line.split()[0] for line in lines[rules[1] + 1:rules[2]] if not line.startswith("(")}
    sites = set().union(*map(_charge_sites, Path(SRC, "nullgrid").glob("*.py")))
    assert sites - {"errors.charge_output"} == table


def test_importing_the_evaluation_modules_loads_no_numpy():
    modules = ["nullgrid.oracle", "nullgrid.transform", "nullgrid.bounds", "nullgrid.cli"]
    loaded = _imports("-c", "; ".join(f"import {name}" for name in modules))
    assert set(modules) <= loaded
    assert "numpy" not in loaded


def test_every_public_name_resolves():
    listed = dir(nullgrid)
    for name in nullgrid.__all__:
        assert getattr(nullgrid, name) is not None
        assert name in listed
    namespace = {}
    exec("from nullgrid import *", namespace)
    assert set(nullgrid.__all__) <= set(namespace)
    assert nullgrid.Polynomial is nullgrid.poly.Polynomial


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nullgrid.no_such_name
    with pytest.raises(ImportError):
        exec("from nullgrid import no_such_name", {})
