"""Spans around the calls into each nullgrid layer, recorded from outside.

``Tracer.install`` replaces each listed public function at every module
attribute that names it (``nullgrid.count_nonzeros`` and
``nullgrid.oracle.count_nonzeros`` alike, and ``oracle.grid_condition_check``
where the oracle imported it), so calls between layers nest into parent
and child spans.  ``Polynomial.__mul__`` is wrapped on the class.  A span is
(name, case id, parent span, start, end, counts); spans stay in memory
until the run writes them out.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _holding(reports) -> int:
    return sum(1 for r in reports if r.holds)


def _pairs(args, kwargs) -> int:
    sets = kwargs.get("sets", args[1] if len(args) > 1 else ())
    return sum(len(s) * (len(s) - 1) // 2 for s in getattr(sets, "sets", sets))


def _trials(verdict) -> int:
    return verdict.trials if verdict.trial_index is None else verdict.trial_index + 1


def _classify_counts(args, kwargs, out) -> dict:
    return {"reports": len(out), "holding": _holding(out),
            "distinct": len({(r.condition, r.witness_d, r.witness_e) for r in out})}


def _collect_counts(args, kwargs, out) -> dict:
    reports = kwargs.get("reports", args[2] if len(args) > 2 else None)
    counts = {"entries": len(out)}
    if reports is not None:
        counts["given_holding"] = _holding(reports)
    return counts


# (module, function, counts taken from (args, kwargs, result)); spans are named module.function
TARGETS = (
    ("oracle", "count_nonzeros", lambda a, k, r: {"points": r.grid_size}),
    ("oracle", "verify_bounds", lambda a, k, r: {"checks": len(r.checks)}),
    ("oracle", "min_nonzero_search", lambda a, k, r: {"candidates": r.tried}),
    ("oracle", "tightness_family", None),
    ("ring", "grid_condition_check", lambda a, k, r: {"pairs": _pairs(a, k)}),
    ("transform", "grid_values", lambda a, k, r: {"points": len(r)}),
    ("transform", "coefficient_via_grid", None),
    ("transform", "trim",
     lambda a, k, r: {"terms_in": len(a[0].terms), "terms_out": len(r.terms)}),
    ("analysis", "classify", _classify_counts),
    ("analysis", "hypothesis_holds", None),
    ("analysis", "successively_largest", None),
    ("analysis", "maximal_monomials", None),
    ("bounds", "collect_bounds", _collect_counts),
    ("parser", "parse_poly", None),
    ("parser", "parse_dag", None),
    ("parser", "expand_dag", lambda a, k, r: {"terms_out": len(r.terms)}),
    ("pit", "identity_test", lambda a, k, r: {"trials": _trials(r)}),
    ("pit", "eval_dag", None),
    ("cli", "main", None),
    ("puzzle", "local_search",
     lambda a, k, r: {"steps": r.steps, "restarts": r.restarts}),
    ("puzzle", "exhaustive_search", lambda a, k, r: {"examined": r.examined}),
)


class Tracer:
    """Records spans while installed; ``case`` tags every span opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self.hook_errors = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.case, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counts is not None:
                try:
                    span[5] = counts(args, kwargs, out)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # a changed result shape loses the counts, never the call
                    self.hook_errors += 1
            return out

        return traced

    def install(self, ng) -> list[str]:
        """Wrap every target; returns the targets the package lacks."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nullgrid" or n.startswith("nullgrid."))]
        missing = []
        for mod_name, attr, counts in TARGETS:
            name = f"{mod_name}.{attr}"
            fn = getattr(getattr(ng, mod_name, None), attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(fn, name, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        poly = ng.Polynomial
        mul = poly.__mul__
        wrapper = self._wrap(mul, "poly.mul",
                             lambda a, k, r: {"terms_out": len(r.terms)} if hasattr(r, "terms") else None)
        for key in ("__mul__", "__rmul__"):
            if vars(poly).get(key) is mul:
                self._undo.append((poly, key, mul))
                setattr(poly, key, wrapper)
        return missing

    def uninstall(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def layers(self) -> dict:
        """Per span name: calls, inclusive busy time ``s`` (outermost spans
        of the name only), ``self_s`` (duration minus direct children) and
        the summed counts."""
        spans = self.spans
        child_time = defaultdict(float)
        classify_holding = defaultdict(int)
        for span in spans:
            if span[2] >= 0:
                child_time[span[2]] += span[4] - span[3]
                if span[0] == "analysis.classify" and span[5]:
                    classify_holding[span[2]] += span[5]["holding"]
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for i, (name, _case, parent, start, end, counts) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            if not self._inside(parent, name):
                row["s"] += end - start
            for key, value in (counts or {}).items():
                row[key] += value
            if name == "bounds.collect_bounds":
                # holding reports behind the call: given, or from its own classify
                given = (counts or {}).get("given_holding")
                row["holding"] += classify_holding[i] if given is None else given
        return out

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][2]
        return False


# per-layer metrics: span name -> fields, each reported as "<span>.<field>"
LAYER_FIELDS = (
    ("oracle.count_nonzeros", ("calls", "s", "self_s", "points", "points_per_s")),
    ("oracle.verify_bounds", ("calls", "s", "self_s", "checks")),
    ("oracle.min_nonzero_search", ("calls", "s", "candidates")),
    ("oracle.tightness_family", ("s",)),
    ("ring.grid_condition_check", ("calls", "s", "pairs")),
    ("transform.grid_values", ("calls", "s", "points")),
    ("transform.coefficient_via_grid", ("s",)),
    ("analysis.classify", ("calls", "s", "self_s", "reports", "distinct_frac")),
    ("analysis.hypothesis_holds", ("calls", "s")),
    ("analysis.successively_largest", ("calls", "s")),
    ("analysis.maximal_monomials", ("s",)),
    ("bounds.collect_bounds", ("calls", "s", "self_s", "entries", "entries_per_holding_report")),
    ("parser.parse_poly", ("calls", "s")),
    ("parser.parse_dag", ("s",)),
    ("parser.expand_dag", ("s", "self_s", "terms_out")),
    ("poly.mul", ("calls", "s", "terms_out")),
    ("transform.trim", ("calls", "s", "terms_in", "terms_out")),
    ("pit.identity_test", ("calls", "s", "trials")),
    ("pit.eval_dag", ("calls", "s")),
    ("cli.main", ("calls", "s", "self_s")),
    ("puzzle.local_search", ("calls", "s", "steps", "steps_per_s", "restarts")),
    ("puzzle.exhaustive_search", ("s", "examined")),
)
# derived fields: numerator and denominator among the summed counts
RATIOS = {"points_per_s": ("points", "s"), "steps_per_s": ("steps", "s"),
          "distinct_frac": ("distinct", "reports"),
          "entries_per_holding_report": ("entries", "holding")}


def field_unit(field: str) -> str:
    if field in ("s", "self_s"):
        return "s"
    if field.endswith("_per_s"):
        return "1/s"
    return "ratio" if field in RATIOS else "count"


def layer_metrics(layers: dict) -> dict:
    """Every per-layer metric from ``Tracer.layers()``; a layer that never
    ran reads 0."""
    out = {}
    for span, fields in LAYER_FIELDS:
        row = layers[span]
        for field in fields:
            if field in RATIOS:
                num, den = RATIOS[field]
                out[f"{span}.{field}"] = row[num] / row[den] if row[den] else 0.0
            else:
                out[f"{span}.{field}"] = row[field]
    return out
