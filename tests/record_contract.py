"""The frozen-dataclass contract of the package's records.

Every record of the package was once a frozen dataclass.  Most are now
NamedTuples; ``RingSpec``, ``RingElem`` and ``ExprDag`` are ``__slots__``
classes.  This module keeps test-only frozen-dataclass copies of the old
types, each named as the package names it so that the reprs read the
same.  ``as_reference`` rebuilds a value with every record swapped for
its copy, and ``reference_jsonable`` is ``cli.jsonable`` as it was, with
its dataclass branch, so a test can hold a record to the contract it had:
``assert_same_record``.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

from nullgrid.analysis import HypothesisReport
from nullgrid.bounds import AFInstance, BoundReport
from nullgrid.cli import jsonable
from nullgrid.errors import HypothesisViolationError
from nullgrid.oracle import BoundCheck, GridCount, MinNonzeroResult, VerificationReport
from nullgrid.parser import ExprDag
from nullgrid.pit import PitVerdict
from nullgrid.puzzle import AgreementPattern, LocalSearchResult, PuzzleInstance, SearchResult
from nullgrid.ring import FP, INT, ZMOD, CheckResult, RingElem, RingSpec, is_prime
from nullgrid.transform import Multipliers

_COPIES = {}


def _copy_of(record):
    """Register the decorated frozen dataclass as the copy of ``record``."""
    def register(cls):
        cls = dataclasses.dataclass(frozen=True)(cls)
        cls.__qualname__ = cls.__name__ = record.__name__
        _COPIES[record] = cls
        return cls
    return register


@_copy_of(RingSpec)
class _RingSpec:
    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == FP:
            if self.modulus is None or not is_prime(self.modulus):
                raise ValueError(f"fp modulus must be prime, got {self.modulus}")
        elif self.kind == ZMOD:
            if self.modulus is None or self.modulus < 2:
                raise ValueError(f"zmod modulus must be >= 2, got {self.modulus}")
        elif self.kind == INT:
            if self.modulus is not None:
                raise ValueError("the integer ring takes no modulus")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    def __str__(self):
        return self.kind if self.modulus is None else f"{self.kind}:{self.modulus}"


@_copy_of(RingElem)
class _RingElem:
    ring: _RingSpec
    value: int

    def __eq__(self, other):
        if isinstance(other, _RingElem):
            return self.ring == other.ring and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"{self.value} ({self.ring})"


@_copy_of(CheckResult)
class _CheckResult:
    ok: bool
    failures: tuple[tuple[int, int, int, int], ...] = ()
    count: int = 0


@_copy_of(ExprDag)
class _ExprDag:
    arity: int
    ring: _RingSpec
    nodes: tuple[tuple, ...]
    root: int


@_copy_of(HypothesisReport)
class _HypothesisReport:
    condition: str
    holds: bool
    witness_d: tuple[int, ...]
    witness_e: tuple[int, ...] | None = None
    order: tuple[int, ...] | None = None


@_copy_of(BoundReport)
class _BoundReport:
    name: str
    value: object
    assumptions: str
    witness_d: tuple[int, ...] | None = None
    witness_e: tuple[int, ...] | None = None
    order: tuple[int, ...] | None = None
    kind: str = "count"
    guaranteed: bool = True
    asymptotic: bool = False
    argmin: tuple[int, ...] | None = None
    requires_nonzero_on_grid: bool = False


@_copy_of(AFInstance)
class _AFInstance:
    sizes: tuple[int, ...]
    caps: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.sizes) != len(self.caps) or not self.sizes:
            raise ValueError("sizes and caps must be nonempty and of equal length")
        for s, c in zip(self.sizes, self.caps):
            if c < 0 or s < 1:
                raise ValueError(f"bad instance entry: size {s}, cap {c}")
            if c >= s:
                raise HypothesisViolationError(f"need cap {c} < size {s}")
        if not 0 <= self.total <= sum(self.caps):
            raise HypothesisViolationError(
                f"total degree {self.total} outside [0, {sum(self.caps)}]")


@_copy_of(GridCount)
class _GridCount:
    nonzeros: int
    zeros: int
    zero_set: tuple[tuple[int, ...], ...] | None = None


@_copy_of(BoundCheck)
class _BoundCheck:
    report: _BoundReport
    sound: bool
    slack: int


@_copy_of(VerificationReport)
class _VerificationReport:
    nonzero_count: int
    zero_count: int
    grid_size: int
    checks: tuple[_BoundCheck, ...]


@_copy_of(MinNonzeroResult)
class _MinNonzeroResult:
    min_count: int
    witness: object
    exhaustive: bool
    tried: int


@_copy_of(PitVerdict)
class _PitVerdict:
    status: str
    trials: int
    degree_bound: int
    samples_per_var: int
    seed: int
    point: tuple[int, ...] | None = None
    value: int | None = None
    trial_index: int | None = None
    failure_bound: Fraction | None = None


@_copy_of(PuzzleInstance)
class _PuzzleInstance:
    a: tuple[int, ...]
    b: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        s = len(self.a)
        if not (len(self.b) == len(self.u) == len(self.v) == s) or s == 0:
            raise ValueError("a, b, u, v must be nonempty and of equal length")
        if len(set(self.a)) != s:
            raise ValueError(f"row keys must be distinct, got {self.a}")
        if len(set(self.b)) != s:
            raise ValueError(f"column keys must be distinct, got {self.b}")


@_copy_of(AgreementPattern)
class _AgreementPattern:
    cells: frozenset[tuple[int, int]]
    count: int


@_copy_of(SearchResult)
class _SearchResult:
    instance: _PuzzleInstance
    pattern: _AgreementPattern
    examined: int


@_copy_of(LocalSearchResult)
class _LocalSearchResult:
    instance: _PuzzleInstance
    pattern: _AgreementPattern
    steps: int
    restarts: int
    history: tuple[tuple[int, int, int], ...]


@_copy_of(Multipliers)
class _Multipliers:
    ring: _RingSpec
    elements: tuple[int, ...]
    degree: int
    values: tuple[int, ...]


def copy_of(record_type):
    """The frozen-dataclass copy of a package record type."""
    return _COPIES[record_type]


def as_reference(value):
    """``value`` as the frozen dataclasses built it: every record, nested
    ones included, becomes its copy; tuples stay tuples."""
    reference = _COPIES.get(type(value))
    if reference is not None:
        return reference(*(as_reference(getattr(value, fl.name))
                           for fl in dataclasses.fields(reference)))
    if type(value) is tuple:
        return tuple(as_reference(v) for v in value)
    return value


def reference_jsonable(obj):
    """``cli.jsonable`` as it was when the records were frozen dataclasses."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: reference_jsonable(v) for name, v in zip(obj._fields, obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {fl.name: reference_jsonable(getattr(obj, fl.name)) for fl in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(reference_jsonable(v) for v in obj)
    return obj


def _signature(cls):
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


def assert_same_record(record):
    """The record and its frozen-dataclass copy agree on the constructor's
    fields, order and defaults and on the fields a class pattern matches
    by position, and, built from the same values, on repr, hash, equality
    and JSON.  Like the copy, the record refuses to set or delete an
    attribute, and it pickles and copies when its fields do."""
    reference = as_reference(record)
    names = [fl.name for fl in dataclasses.fields(reference)]
    values = tuple(getattr(record, name) for name in names)
    assert list(getattr(record, "_fields", None) or record.__slots__) == names
    assert type(record).__match_args__ == type(reference).__match_args__
    assert _signature(type(record)) == _signature(type(reference))
    assert repr(record) == repr(reference)
    assert hash(record) == hash(reference)
    rebuilt = type(record)(*values)
    assert rebuilt == record and not rebuilt != record and hash(rebuilt) == hash(record)
    assert as_reference(rebuilt) == reference
    assert jsonable(record) == reference_jsonable(reference)
    for name in (names[0], "extra"):
        for action in (lambda: setattr(record, name, None), lambda: delattr(record, name)):
            try:
                action()
            except AttributeError:
                pass
            else:
                raise AssertionError(f"{type(record).__name__}.{name} can be set or deleted")
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert _clone_outcome(clone, record) == _clone_outcome(clone, values)


def _clone_outcome(clone, value):
    """Whether the clone equals the value, or the type of the error
    cloning raised: a frozen dataclass clones exactly when its field
    values do."""
    try:
        return clone(value) == value
    except Exception as e:
        return type(e)


def assert_same_equality(records):
    """Records compare equal exactly when their copies do."""
    references = [as_reference(r) for r in records]
    for a, ra in zip(records, references):
        for b, rb in zip(records, references):
            assert (a == b) == (ra == rb), (a, b)
