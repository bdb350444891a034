"""Exception hierarchy shared across the package, its cost bounds' one
refusal path, and its DEBUG records.

Everything raised deliberately by this package derives from NullgridError,
so callers (the command line driver in particular) can map failures to
exit codes without matching on message text.

Every cost bound refuses through ``charge``, with a ResourceLimitError
or one of its subclasses, before the work it prices starts.  The sixteen
budgets:

================================  ======================  ===========  ======================
site                              limit                   unit         exception
================================  ======================  ===========  ======================
poly.GridSpec.from_text           poly.MAX_SET_SIZE       elements     GridTooLargeError
poly.annihilator                  poly.MAX_WORK           products     GridTooLargeError
parser.expand_dag (running)       poly.MAX_WORK           products     ExpansionTooLargeError
transform._reduce_variable        poly.MAX_WORK           products     GridTooLargeError
transform.vandermonde_multipliers poly.MAX_WORK           ring ops     GridTooLargeError
transform.require_extractable     poly.MAX_WORK           ring ops     GridTooLargeError
pit.identity_test                 poly.MAX_WORK           node evals   SearchBudgetError
bounds.min_products_by_total      poly.MAX_WORK           DP steps     SearchBudgetError
puzzle.exhaustive_search          ``budget`` argument     tuples       SearchBudgetError
ring.grid_condition_check         ring.MAX_PAIRWISE_PAIRS pairs        GridTooLargeError
(running over the sets)
oracle._plan                      oracle._REFERENCE_WORK  steps        GridTooLargeError
oracle._grid_values               DEFAULT_ZERO_SET_CAP    points       GridTooLargeError
oracle.count_nonzeros             ``point_limit`` arg     points       GridTooLargeError
oracle.min_nonzero_search         poly.MAX_WORK           mult-adds    SearchBudgetError
cli._cmd_verify --list-zeros      DEFAULT_ZERO_SET_CAP    points       GridTooLargeError
parser.infer_variables            parser.MAX_INFERRED     names        ResourceLimitError
================================  ======================  ===========  ======================

MAX_SET_SIZE and DEFAULT_ZERO_SET_CAP are 10^6, MAX_WORK 4·10^6,
_REFERENCE_WORK 3·10^7 steps of 8 to 27 ns (``oracle._reference_steps``),
MAX_PAIRWISE_PAIRS 10^6, MAX_INFERRED 10^3; the
exhaustive search's budget defaults to 10^8 and the point limit to 10^8.
The minimum search charges its multiply-adds, rows x points x monomials
(rows: the candidates scored, or the solutions its class table finds at
each point), against 32 MAX_WORK in int64 and MAX_WORK on Python integers.
A running site charges a total that grows step by step.  A negative
budget or point limit is invalid input (ValueError), not a limit; 0 is a
limit.  ``Polynomial.render`` and the command line's output also refuse,
with a plain ResourceLimitError (``charge_output``), an integer past
Python's digit limit for printing one, its digits counted by ``digits``.
"""

import math
import sys


def debug(logger: str, msg: str, *args) -> None:
    """Send a DEBUG record to the named logger, if ``logging`` is loaded.

    The module is looked up at call time, not imported: no handler can
    exist until the application has imported ``logging``, so until then
    there is nothing to send the record to, and the package never loads
    it for a record nobody can receive.  The record names the caller's
    function and line, as a call on a module-level logger would."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(msg, *args, stacklevel=2)


class NullgridError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(NullgridError, TypeError):
    """Operands or containers belong to different coefficient rings."""


class ArityMismatchError(NullgridError, ValueError):
    """Objects disagree on the number of variables."""


class UnsupportedRingError(NullgridError, ValueError):
    """The requested operation needs a ring capability that is absent,
    e.g. inversion outside a prime field."""


class ZeroPolynomialError(NullgridError, ValueError):
    """Degree data was requested for the zero polynomial."""


class HypothesisViolationError(NullgridError, ValueError):
    """A stated precondition of a theorem-backed operation fails, e.g. a
    grid set no larger than the degree cap it must exceed."""


class InsufficientSampleSpaceError(HypothesisViolationError):
    """The sample space of an identity test is not larger than the degree
    bound, so the failure probability guarantee would be vacuous."""


class ResourceLimitError(NullgridError, RuntimeError):
    """Work was refused before it started: raised by ``charge``, exit 3 on the command line."""


class GridTooLargeError(ResourceLimitError):
    """Work on a grid was refused before it started: enumeration past the
    configured point limit, or a grid set too large to evaluate on, to
    build its annihilator from, to reduce modulo that annihilator or to
    check pair by pair within the package's work budgets."""


class ExpansionTooLargeError(ResourceLimitError):
    """Expanding an expression into a sparse polynomial was refused because
    its work exceeds the expansion budget."""


class SearchBudgetError(ResourceLimitError):
    """A search exceeds its budget: an exhaustive puzzle search (use the
    local search instead), identity-test trials times DAG nodes, the
    steps of the dynamic program behind the generalized Alon-Furedi
    bound, or the multiply-adds of a minimum nonzero search."""


# a figure below this prints in full; from it on, as ~10^k
FULL_FIGURE = 10**100


def figure(value) -> str:
    """``value`` as a message shows it: an integer in full below
    ``FULL_FIGURE`` in size, else as ~10^k, k the nearest integer to its
    log10 (which ``math.log10`` takes from the bit length and the leading
    bits, so ``str`` is never called on it); anything else by ``str``."""
    if isinstance(value, int) and abs(value) >= FULL_FIGURE:
        return f"{'-' if value < 0 else ''}~10^{round(math.log10(abs(value)))}"
    return str(value)


def charge(work: int, limit: int, error: type[ResourceLimitError], text: str, *args) -> None:
    """Refuse ``work`` past ``limit``: raise ``error`` when work > limit.

    Only then is the message built, as ``text.format(*args, work=...,
    limit=...)`` with every figure shown by ``figure``, so a refusal
    prints a short message however large its figures are.  The module
    docstring lists every call.
    """
    if work > limit:
        raise error(text.format(*map(figure, args), work=figure(work), limit=figure(limit)))


def digits(n: int) -> int:
    """Decimal digits of |n| (0 for 0), found without converting it to a string."""
    n = abs(n)
    if not n:
        return 0
    k = int(math.log10(n))  # floor(log10 n), give or take one
    return k + 1 - (10**k > n) + (10 ** (k + 1) <= n)


def charge_output(widest: int) -> None:
    """Refuse output that holds an integer of ``widest`` digits, past
    Python's limit for converting one to a string."""
    charge(widest, sys.get_int_max_str_digits(), ResourceLimitError,
           "the output holds a {work}-digit integer, limit is {limit}")


class ParseError(NullgridError, ValueError):
    """Syntax error in polynomial text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """An identifier is not among the declared variables."""


class ExponentOverflowError(ParseError):
    """An exponent literal exceeds the supported maximum."""
