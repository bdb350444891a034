"""The package's public names, and what each command imports.

Public names load their module on first access, and the command line
driver imports only the modules its command runs; the subprocess tests
read a fresh interpreter's imports from ``python -X importtime``.  Every
module-level import in the package is used by its module.
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


def _imports(*args):
    """Every module a fresh interpreter imports while running ``args``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


NO_COUNT = {"nullgrid.oracle", "numpy"}


# logging is loaded only by the modules that log, fractions only by those
# that build a Fraction
@pytest.mark.parametrize("argv,absent", [
    (["pit", "(x + y)^2", "x^2 + 2*x*y + y^2", "--samples", "50"],
     NO_COUNT | {"nullgrid.bounds", "nullgrid.analysis", "nullgrid.puzzle", "logging"}),
    (["puzzle", "exhaustive", "--size", "2", "--range", "2"],
     NO_COUNT | {"nullgrid.parser", "nullgrid.poly", "logging", "fractions"}),
    (["analyze", "--poly", "x^2*y - 3*y + 1"], NO_COUNT | {"fractions"}),
    (["trim", "--ring", "fp:7", "--grid", "0..2;0..3", "--poly", "x^4*y - y^5"],
     NO_COUNT | {"logging", "fractions"}),
    (["verify", "--grid", "0..4;0..4", "--poly", "x*y - 2*x + 1"], {"numpy"}),
    # 36 points x 36 terms, above the small-grid constant
    (["tightness", "--ring", "fp:11", "--grid", "2,3,7,8,9,10;2,4,5,6,7,8", "--d", "5,5"],
     {"numpy", "fractions"}),
], ids=["pit", "puzzle", "analyze", "trim", "verify-5x5", "tightness-6x6"])
def test_command_leaves_modules_unloaded(argv, absent):
    loaded = _imports("-m", "nullgrid", *argv)
    assert "nullgrid.cli" in loaded
    assert not loaded & absent


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
oracle._cold_work_left = 10_000
rows = []
for _ in range(5):
    count = oracle.count_nonzeros(f, grid)
    rows.append([count.nonzeros, count.zero_set, "numpy" in sys.modules, messages[-1]])
print(json.dumps(rows))
"""


def test_numpy_loads_once_the_cold_budget_is_spent():
    # each count charges 1600 points x 2 words against 10,000: three fit
    proc = subprocess.run([sys.executable, "-c", COLD_RUN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [loaded for _, _, loaded, _ in rows] == [False] * 3 + [True] * 2
    assert all("path=reference reason=numpy not loaded" in m for _, _, _, m in rows[:3])
    assert all("path=kernel reason=none" in m for _, _, _, m in rows[3:])
    assert all(row[:2] == rows[0][:2] for row in rows)


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
