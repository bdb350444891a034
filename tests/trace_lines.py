"""Report the statements of ``src/nullgrid`` that a command never ran.

    python tests/trace_lines.py python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20
    python tests/trace_lines.py python -m pytest -q -x tests/test_budgets.py

A script, not a test module.  It runs the command with a line tracer
(``sys.settrace``, and ``threading.settrace`` for new threads) that
records only frames of the package's own files.  The tracer is installed
by a ``sitecustomize`` module put first on PYTHONPATH, so every Python
child the command starts with that PYTHONPATH, such as the ``python -m
nullgrid`` children of ``perfbench/run.py``, is traced too; a child
started with a PYTHONPATH of its own, or one that leaves through
``os._exit``, is not.  Each traced process writes the lines it ran when
it exits, and the lines of all processes are merged.

Then, for each function of the package, in file order, it prints the
statements that never ran: a function no process called as ``never
called``, any other by the first line of each such statement.  A
compound statement counts as run when a line of its header ran, a simple
one when any of its lines ran.  The exit code is the command's.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nullgrid"

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_PACKAGE, _OUT = {package!r}, {out!r}
_hits = {{}}  # file name as compiled: its lines that ran
_ours = {{}}  # file name as compiled: whether it is a file of the package


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.dirname(os.path.realpath(name)) == _PACKAGE
        _hits[name] = set()
    return _local if ours else None


@atexit.register
def _dump():
    sys.settrace(None)
    ran = {{}}
    for name, lines in _hits.items():
        if _ours[name]:
            ran.setdefault(os.path.realpath(name), set()).update(lines)
    with open(os.path.join(_OUT, "lines-%d.json" % os.getpid()), "w") as fh:
        json.dump({{name: sorted(lines) for name, lines in ran.items()}}, fh)


sys.settrace(_global)
threading.settrace(_global)
'''


def _statements(body: list[ast.stmt]):
    """The statements of a function body, nested blocks included and
    nested function and class bodies excluded, with the lines that mark
    each as run."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        # these compile to no instruction, so no line event marks them
        if isinstance(stmt, (ast.Global, ast.Nonlocal)) or isinstance(stmt, ast.AnnAssign) and stmt.value is None:
            continue
        blocks = [getattr(stmt, name) for name in ("body", "orelse", "finalbody") if getattr(stmt, name, None)]
        blocks += [handler.body for handler in getattr(stmt, "handlers", ())]
        blocks += [case.body for case in getattr(stmt, "cases", ())]
        if blocks:
            last = min(block[0].lineno for block in blocks) - 1
            yield stmt.lineno, range(stmt.lineno, max(last, stmt.lineno) + 1)
            for block in blocks:
                yield from _statements(block)
        else:
            yield stmt.lineno, range(stmt.lineno, stmt.end_lineno + 1)


def _functions(tree: ast.Module):
    """(qualified name, node) of every function in the module, in file order."""
    stack = [("", tree)]
    found = []
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found.append((name, child))
                stack.append((name + ".", child))
            elif isinstance(child, ast.stmt):
                stack.append((prefix, child))
    return sorted(found, key=lambda item: item[1].lineno)


def _body(node) -> list[ast.stmt]:
    """The function's statements less its docstring."""
    return node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body


def report(hits: dict[str, set[int]]) -> list[str]:
    lines = []
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for name, node in _functions(ast.parse(path.read_text(), str(path))):
            statements = list(_statements(_body(node)))
            unrun = sorted(first for first, span in statements if ran.isdisjoint(span))
            total += len(statements)
            missed += len(unrun)
            if statements and len(unrun) == len(statements):
                lines.append(f"{path.name}:{node.lineno} {name}: never called")
            elif unrun:
                lines.append(f"{path.name}:{node.lineno} {name}: {' '.join(map(str, unrun))}")
    lines.append(f"{missed} of {total} statements in functions of {PACKAGE} never ran")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(package=str(PACKAGE), out=str(out)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(site), os.environ.get("PYTHONPATH")])))
        code = subprocess.run(argv, env=env).returncode
        dumps = list(out.glob("lines-*.json"))
        hits: dict[str, set[int]] = {}
        for dump in dumps:
            for name, ran in json.loads(dump.read_text()).items():
                hits.setdefault(name, set()).update(ran)
    print(f"{len(dumps)} traced processes", file=sys.stderr)
    print("\n".join(report(hits)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
