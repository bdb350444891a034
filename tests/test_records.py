"""Every record keeps the contract it had as a frozen dataclass.

Each record is built by the package call that makes it and compared
with a test-only frozen-dataclass copy of its old type (see
``record_contract``).  The three records that validate their fields
raise the same errors as their copies, also through ``_replace``.  The
five value classes on ``ring._Frozen`` share one contract: equality,
hash, pickling, copying and the "<Class> is immutable" refusal.
"""

import copy
import dataclasses
import pickle

import pytest

from nullgrid.bounds import AFInstance
from nullgrid.cli import jsonable
from nullgrid.errors import HypothesisViolationError
from nullgrid.oracle import count_nonzeros, min_nonzero_search, verify_bounds
from nullgrid.parser import ExprDag, parse_dag, parse_poly
from nullgrid.pit import identity_test
from nullgrid.poly import GridSpec, Polynomial
from nullgrid.puzzle import PuzzleInstance, agreement_count, exhaustive_search, local_search
from nullgrid.ring import RingElem, RingSpec, grid_condition_check
from nullgrid.transform import vandermonde_multipliers
from record_contract import as_reference, assert_same_equality, assert_same_record, copy_of

F7 = RingSpec.prime_field(7)
F101 = RingSpec.prime_field(101)
Z = RingSpec.integers()
Z12 = RingSpec.integers_mod(12)


def _samples():
    """Records of every converted type, as the package builds them."""
    f = parse_poly("x^2*y - 3*x + 1", ["x", "y"], F7)
    grid = GridSpec(F7, [range(5), range(4)])
    g1 = parse_dag("(x + y)^3", ["x", "y"], F101)
    g2 = parse_dag("x^3 + 3*x^2*y + 3*x*y^2 + y^3", ["x", "y"], F101)
    g3 = parse_dag("x^3 + y^3", ["x", "y"], F101)
    search = exhaustive_search(2, 2)
    return {
        "RingSpec": [F7, F101, Z, Z12, RingSpec.from_string("fp:7")],
        "RingElem": [F7.element(-1), F7.element(6), F101.element(6), Z.element(-1)],
        "ExprDag": [g1, g2, g3, parse_dag("(x + y)^3", ["x", "y"], F101)],
        "CheckResult": [grid_condition_check(Z12, [range(12), range(3)]),
                        grid_condition_check(Z12, [[1, 2], [0, 5, 7]]),
                        grid_condition_check(F7, [range(5)])],
        "GridCount": [count_nonzeros(f, grid, collect_zeros=True),
                      count_nonzeros(f, grid, collect_zeros=False),
                      count_nonzeros(f, grid, collect_zeros=False)],
        "VerificationReport": [verify_bounds(f, grid),
                               verify_bounds(parse_poly("x^2 - 4*x*y + y^2", ["x", "y"], Z),
                                             GridSpec(Z, [range(5), range(5)]))],
        "MinNonzeroResult": [min_nonzero_search(((1, 0), (0, 1), (0, 0)), (1, 0),
                                                GridSpec(F7, [range(3), range(3)])),
                             min_nonzero_search(((2, 0), (1, 1), (0, 0)), (2, 0),
                                                GridSpec(F7, [range(4), range(2)]),
                                                exhaustive_limit=10, sample_budget=50, seed=3)],
        "PitVerdict": [identity_test(g1, g2, samples_per_var=50, trials=5, seed=1),
                       identity_test(g1, g3, samples_per_var=50, trials=5, seed=1)],
        "AFInstance": [AFInstance((8, 8), (5, 2), 7), AFInstance((5, 5), (2, 2), 4),
                       AFInstance((5, 5), (2, 2), 4)],
        "PuzzleInstance": [search.instance, PuzzleInstance((1, 2), (3, 4), (0, 0), (5, 6))],
        "AgreementPattern": [search.pattern, agreement_count(search.instance)],
        "SearchResult": [search, exhaustive_search(2, 3)],
        "LocalSearchResult": [local_search(3, budget=300, seed=5),
                              local_search(3, budget=300, seed=6)],
        "Multipliers": [vandermonde_multipliers(F7, [1, 2, 4]),
                        vandermonde_multipliers(F7, [1, 2, 4], 1),
                        vandermonde_multipliers(F101, [1, 2, 4])],
    }


SAMPLES = _samples()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_keeps_the_frozen_dataclass_contract(name):
    records = SAMPLES[name]
    assert {type(r).__name__ for r in records} == {name}
    for record in records:
        assert_same_record(record)
    assert_same_equality(records)


def test_samples_reach_every_field_shape():
    # both verdicts, an unlisted failure count, a Fraction value and a
    # sampled search are among the samples
    assert {v.status for v in SAMPLES["PitVerdict"]} == {"all-zero", "nonzero-witnessed"}
    assert any(c.count > len(c.failures) > 0 for c in SAMPLES["CheckResult"])
    assert {m.exhaustive for m in SAMPLES["MinNonzeroResult"]} == {True, False}
    assert any(type(c.report.value).__name__ == "Fraction"
               for r in SAMPLES["VerificationReport"] for c in r.checks)
    assert SAMPLES["GridCount"][0].zero_set and SAMPLES["GridCount"][1].zero_set is None


def _error(build, *args, **kwargs):
    """The type and message of what ``build`` raises.  A missing argument
    is a TypeError on both sides, but its message names ``__init__`` or
    ``__new__``, so only its type is kept."""
    with pytest.raises(Exception) as info:
        build(*args, **kwargs)
    return type(info.value), None if type(info.value) is TypeError else str(info.value)


INVALID = [
    (RingSpec, ("fp", 12)), (RingSpec, ("fp", None)), (RingSpec, ("fp",)),
    (RingSpec, ("zmod", 1)), (RingSpec, ("zmod",)), (RingSpec, ("int", 5)),
    (RingSpec, ("gf", 7)), (RingSpec, ()),
    (AFInstance, ((5, 5), (2,), 3)), (AFInstance, ((), (), 0)), (AFInstance, ((5, 0), (2, 0), 1)),
    (AFInstance, ((5, 5), (-1, 2), 1)), (AFInstance, ((5, 5), (5, 2), 4)),
    (AFInstance, ((5, 5), (2, 2), 5)), (AFInstance, ((5, 5), (2, 2), -1)), (AFInstance, ((5,), (2,))),
    (PuzzleInstance, ((1, 2), (3, 4), (0,), (5, 6))), (PuzzleInstance, ((), (), (), ())),
    (PuzzleInstance, ((1, 1), (3, 4), (0, 0), (5, 6))),
    (PuzzleInstance, ((1, 2), (4, 4), (0, 0), (5, 6))), (PuzzleInstance, ((1, 2), (3, 4), (0, 0))),
]


@pytest.mark.parametrize("record,args", INVALID, ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_validating_records_raise_as_before(record, args):
    expected = _error(copy_of(record), *args)
    assert _error(record, *args) == expected
    assert expected[0] in (ValueError, HypothesisViolationError, TypeError)


@pytest.mark.parametrize("record,changes", [
    (AFInstance((5, 5), (2, 2), 4), {"total": 5}),
    (AFInstance((5, 5), (2, 2), 4), {"caps": (5, 2)}),
    (PuzzleInstance((1, 2), (3, 4), (0, 0), (5, 6)), {"a": (1, 1)}),
    (PuzzleInstance((1, 2), (3, 4), (0, 0), (5, 6)), {"v": (5,)}),
])
def test_replace_and_make_validate_as_dataclasses_replace_did(record, changes):
    expected = _error(dataclasses.replace, as_reference(record), **changes)
    assert _error(record._replace, **changes) == expected
    assert _error(type(record)._make, {**record._asdict(), **changes}.values()) == expected
    valid = record._replace()
    assert valid == record and type(valid) is type(record)


CLONES = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("clone", sorted(CLONES))
def test_polynomials_and_grids_pickle_and_copy(clone):
    f = parse_poly("x^2*y - 3*x + 1", ["x", "y"], F7)
    big = Polynomial(2, Z, {(3, 0): -(10**40) - 1, (0, 0): 7})
    grids = [GridSpec(F7, [range(5), (6, 2)]), GridSpec(Z, [(-3, 10**30), (0,)])]
    values = [f, big, Polynomial.zero(2, F101), *grids, *SAMPLES["MinNonzeroResult"]]
    for value in values:
        copied = CLONES[clone](value)
        assert copied == value and type(copied) is type(value) and repr(copied) == repr(value)
    # the witness of a search result comes back as a Polynomial with its terms
    result = CLONES[clone](SAMPLES["MinNonzeroResult"][1])
    assert type(result.witness) is Polynomial
    assert result.witness.terms == SAMPLES["MinNonzeroResult"][1].witness.terms


def test_polynomial_and_grid_fields_cannot_be_deleted():
    f = parse_poly("x^2*y - 3*x + 1", ["x", "y"], F7)
    grid = GridSpec(F7, [range(5), range(4)])
    for value, fields in ((f, ("arity", "ring", "terms")), (grid, ("ring", "sets"))):
        message = f"^{type(value).__name__} is immutable$"
        for name in fields:
            with pytest.raises(AttributeError, match=message):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=message):
                delattr(value, name)
    assert (f.arity, f.ring, f.terms) == (2, F7, {(2, 1): 1, (1, 0): 4, (0, 0): 1})
    assert grid.sets == ((0, 1, 2, 3, 4), (0, 1, 2, 3))
    # the command line still prints them as they are, not as a dict of fields
    assert jsonable(f) is f and jsonable(grid) is grid


FROZEN = {
    RingSpec: [F7, Z, Z12],
    RingElem: [F7.element(-1), F7.element(5), Z.element(-1)],
    ExprDag: [parse_dag("x*y + 1", ["x", "y"], F7), parse_dag("x*y + 1", ["x", "y"], F101)],
    Polynomial: [parse_poly("x^2*y - 3*x + 1", ["x", "y"], F7), Polynomial.zero(2, F7),
                 Polynomial(2, Z, {(3, 0): -(10**40) - 1, (0, 0): 7})],
    GridSpec: [GridSpec(F7, [range(5), (6, 2)]), GridSpec(F7, [range(5), (2, 6)]),
               GridSpec(Z, [(-3, 10**30), (0,)])],
}


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)
def test_frozen_values_share_one_contract(cls):
    values = FROZEN[cls]
    for i, value in enumerate(values):
        rebuilt = cls(*(getattr(value, name) for name in cls.__slots__))
        assert rebuilt == value and not rebuilt != value and hash(rebuilt) == hash(value)
        for j, other in enumerate(values):
            assert (value == other) == (i == j) and (value != other) == (i != j)
        for clone in CLONES.values():
            copied = clone(value)
            assert copied == value and type(copied) is cls and hash(copied) == hash(value)
        for name in (cls.__slots__[0], "extra"):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                delattr(value, name)
    # the reprs read from the slots are the ones the hand-written methods gave
    assert repr(Z12) == "RingSpec(kind='zmod', modulus=12)"
    assert repr(FROZEN[ExprDag][0]) == (
        "ExprDag(arity=2, ring=RingSpec(kind='fp', modulus=7), nodes=(('var', 0), ('var', 1), "
        "('mul', 0, 1), ('const', 1), ('add', 2, 3)), root=4)")
