"""Exact nonzero-counting toolkit for sparse polynomials on finite grids.

The package detects leading-monomial hypotheses, derives certified lower
bounds on the number of grid points where a polynomial is nonzero, and
checks every claim against brute-force enumeration.  Companion tools
cover grid trimming, coefficient extraction from grid values, randomized
identity testing of expression DAGs, and an extremal search over small
multiplication/addition table pairs.

Public names load their module on first access (PEP 562), so importing
the package, or one command of the command line driver, loads only the
modules that command runs.

Diagnostics go to the ``nullgrid`` loggers as DEBUG records, through
``errors.debug``.  The package adds no handler and never imports
``logging``: ``debug`` sends a record only when the application has
loaded ``logging``, since no handler can exist before that, so a handler
added before or after ``import nullgrid`` receives every record sent
after it.  With logging left unconfigured, Python's last-resort handler
drops everything below WARNING, so the records stay silent until the
application configures logging.  No module loads ``dataclasses``: the
records are NamedTuples or ``__slots__`` classes.
"""

import importlib

_EXPORTS = {
    "analysis": """CONDITIONS D_LEADING LEX_LARGEST MAXIMAL_MONOMIAL PARTIAL_DEGREES
        SUCCESSIVELY_LARGEST TOTAL_DEGREE HypothesisReport classify forbidden_set
        hypothesis_holds is_d_leading lex_largest maximal_monomials successively_largest""",
    "bounds": """AFInstance BoundReport additive_existence_bound alon_furedi_original_bound
        collect_bounds demillo_lipton_bound erdos_density_bound gen_alon_furedi_bound
        kst_exponent min_products_by_total product_bound schwartz_additive_bound
        schwartz_zippel_count sz_probability zippel_bound""",
    "errors": """ArityMismatchError ExpansionTooLargeError ExponentOverflowError
        GridTooLargeError HypothesisViolationError InsufficientSampleSpaceError
        NullgridError ParseError ResourceLimitError RingMismatchError SearchBudgetError
        UnknownVariableError UnsupportedRingError ZeroPolynomialError""",
    "oracle": """BoundCheck GridCount MinNonzeroResult VerificationReport count_nonzeros
        min_nonzero_search random_polynomial tightness_family verify_bounds""",
    "parser": "ExprDag DagBuilder expand_dag infer_variables parse_dag parse_poly",
    "pit": "PitVerdict dag_difference degree_upper_bound eval_dag identity_test",
    "poly": "GridSpec Polynomial check_compatible vanishing_poly",
    "puzzle": """AgreementPattern LocalSearchResult PuzzleInstance SearchResult
        agreement_count exhaustive_search k22_check local_search zarankiewicz_k22_bound""",
    "ring": "CheckResult RingElem RingSpec grid_condition_check is_prime",
    "transform": "GridValues Multipliers coefficient_via_grid grid_values trim vandermonde_multipliers",
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # nothing is cached here, so a name always reads its module's attribute
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
