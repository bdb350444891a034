"""Exception hierarchy shared across the package, and its DEBUG records.

Everything raised deliberately by this package derives from NullgridError,
so callers (the command line driver in particular) can map failures to
exit codes without matching on message text.
"""

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


class GridTooLargeError(NullgridError, RuntimeError):
    """Work on a grid was refused before it started: enumeration past the
    configured point limit, or a grid set too large to evaluate on, to
    build its annihilator from, to reduce modulo that annihilator or to
    check pair by pair within the package's work budgets."""


class ExpansionTooLargeError(NullgridError, RuntimeError):
    """Expanding an expression into a sparse polynomial was refused because
    its work exceeds the expansion budget."""


class SearchBudgetError(NullgridError, RuntimeError):
    """A search exceeds its budget: an exhaustive puzzle search (use the
    local search instead) or identity-test trials times DAG nodes."""


class ParseError(NullgridError, ValueError):
    """Syntax error in polynomial text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """An identifier is not among the declared variables."""


class ExponentOverflowError(ParseError):
    """An exponent literal exceeds the supported maximum."""
