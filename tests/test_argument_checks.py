"""Every argument check of the library and the command line handlers,
reached once: the call, the exception it raises and a fragment of its
message.  Each row is a check no other test reaches."""

import pytest

from nullgrid import analysis, bounds, cli, oracle, pit, puzzle, transform
from nullgrid.errors import (
    ArityMismatchError,
    HypothesisViolationError,
    RingMismatchError,
    SearchBudgetError,
    UnsupportedRingError,
    ZeroPolynomialError,
)
from nullgrid.parser import DagBuilder, parse_dag, parse_poly
from nullgrid.poly import GridSpec, Polynomial, vanishing_poly
from nullgrid.ring import _MR_VALID_BELOW, RingSpec, is_prime

F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)
Z = RingSpec.integers()
X = parse_poly("x + 1", ["x"], F7)
XY = parse_poly("x*y", ["x", "y"], F7)
GRID = GridSpec(F7, [range(3), range(3)])


def _handler(argv):
    """Run a subcommand's handler as ``cli.main`` does, without catching."""
    args = cli.build_parser().parse_args(argv)
    return args.run(args)


CHECKS = [
    # analysis
    ("analysis._require_nonzero", ZeroPolynomialError,
     lambda: analysis.maximal_monomials(Polynomial.zero(1, F7)), "the zero polynomial admits no monomial"),
    ("analysis.forbidden_set", ValueError,
     lambda: analysis.forbidden_set(analysis.D_LEADING, (1,), (1, 1)), "cap and d have different lengths"),
    # bounds
    ("bounds.sz_probability", ValueError, lambda: bounds.sz_probability(-1, 5), "negative total degree"),
    ("bounds.min_products_by_total", ValueError,
     lambda: bounds.min_products_by_total((), ()), "lows and highs must be nonempty and of equal length"),
    ("bounds.alon_furedi_original_bound", ValueError,
     lambda: bounds.alon_furedi_original_bound((2, 0), 1), "sizes must be positive"),
    ("bounds.erdos_density_bound", ValueError,
     lambda: bounds.erdos_density_bound(0, 1, 1), "need arity >= 1, l >= 1, size >= 1"),
    ("bounds.kst_exponent", ValueError, lambda: bounds.kst_exponent(-1, 2), "degrees must be nonnegative"),
    # oracle
    ("oracle.tightness_family arity", ValueError,
     lambda: oracle.tightness_family(GRID, (1,)), "degree vector (1,) does not match grid arity 2"),
    ("oracle.tightness_family degree", HypothesisViolationError,
     lambda: oracle.tightness_family(GRID, (1, 4)), "need 0 <= d_2 <= |S_2|, got 4"),
    ("oracle.min_nonzero_search ring", UnsupportedRingError,
     lambda: oracle.min_nonzero_search(((1,),), (1,), GridSpec(Z, [range(3)])), "minimum search needs a prime field"),
    ("oracle.min_nonzero_search required", ValueError,
     lambda: oracle.min_nonzero_search(((1,),), (2,), GridSpec(F7, [range(3)])),
     "required monomial (2,) not in support"),
    ("oracle.min_nonzero_search arity", ValueError,
     lambda: oracle.min_nonzero_search(((1,), (0, 1)), (1,), GridSpec(F7, [range(3)])),
     "support monomial (0, 1) does not match grid arity 1"),
    ("oracle.random_polynomial caps", ValueError,
     lambda: oracle.random_polynomial(2, (1,), 0.5, F7, seed=0), "bad caps (1,) for arity 2"),
    ("oracle.random_polynomial density", ValueError,
     lambda: oracle.random_polynomial(1, (1,), 0, F7, seed=0), "density must be in (0, 1]"),
    # parser
    ("parser.DagBuilder.var", ArityMismatchError,
     lambda: DagBuilder(2, F7).var(2), "variable index 2 out of range for arity 2"),
    ("parser.DagBuilder.pow", ValueError, lambda: DagBuilder(1, F7).pow(0, -1), "negative exponent"),
    ("parser.DagBuilder.graft ring", RingMismatchError,
     lambda: DagBuilder(1, F7).graft(parse_dag("x", ["x"], F5)), "mixed rings fp:5 and fp:7"),
    ("parser.DagBuilder.graft arity", ArityMismatchError,
     lambda: DagBuilder(2, F7).graft(parse_dag("x", ["x"], F7)), "mixed arities 1 and 2"),
    ("parser._Parser", ValueError, lambda: parse_poly("x", ["x", "x"], F7), "repeated variable name in ['x', 'x']"),
    # pit
    ("pit.eval_dag", ValueError,
     lambda: pit.eval_dag(parse_dag("x", ["x"], F7), (1, 2)), "point of length 2 for arity 1"),
    ("pit.identity_test", ValueError,
     lambda: pit.identity_test(parse_dag("x", ["x"], F7), parse_dag("x", ["x"], F7), samples_per_var=3, trials=0),
     "need at least one trial"),
    # poly
    ("poly.Polynomial", ValueError, lambda: Polynomial(-1, F7), "arity must be nonnegative"),
    ("poly.Polynomial.variable", ArityMismatchError,
     lambda: Polynomial.variable(2, F7, 2), "variable index 2 out of range for arity 2"),
    ("poly.Polynomial ring", RingMismatchError, lambda: X + parse_poly("x", ["x"], F5), "mixed rings fp:7 and fp:5"),
    ("poly.Polynomial arity", ArityMismatchError, lambda: X * XY, "mixed arities 1 and 2"),
    ("poly.Polynomial + other", TypeError, lambda: X + 1.5, "unsupported operand"),
    ("poly.Polynomial - other", TypeError, lambda: X - 1.5, "unsupported operand"),
    ("poly.Polynomial * other", TypeError, lambda: X * 1.5, "unsupported operand"),
    ("poly.Polynomial.evaluate", ArityMismatchError, lambda: XY.evaluate((1,)), "point of length 1 for arity 2"),
    ("poly.Polynomial.render", ArityMismatchError, lambda: XY.render(["x"]), "wrong number of variable names"),
    ("poly.GridSpec empty set", ValueError, lambda: GridSpec(F7, [range(2), ()]), "grid set 2 is empty"),
    ("poly.GridSpec no set", ValueError, lambda: GridSpec(F7, []), "a grid needs at least one variable"),
    ("poly.vanishing_poly", ArityMismatchError, lambda: vanishing_poly(GRID, 2), "variable index 2 out of range"),
    # puzzle
    ("puzzle.zarankiewicz_k22_bound", ValueError, lambda: puzzle.zarankiewicz_k22_bound(0), "s must be positive"),
    # m^(s - 1) past the float range: the order of the count from its bit length
    ("puzzle._tuples_order", SearchBudgetError,
     lambda: puzzle.exhaustive_search(3, 10**400), "~10^800 candidate (a, b, u) tuples exceed the budget 100000000"),
    # ring
    ("ring.is_prime", ValueError, lambda: is_prime(_MR_VALID_BELOW), "cannot certify primality"),
    ("ring.RingSpec.pow", ValueError, lambda: F7.pow(2, -1), "negative exponent"),
    # transform
    ("transform.vandermonde_multipliers empty", ValueError,
     lambda: transform.vandermonde_multipliers(F7, []), "empty element set"),
    ("transform.vandermonde_multipliers degree", HypothesisViolationError,
     lambda: transform.vandermonde_multipliers(F7, [1, 2], 2), "need 0 <= d < |S|, got d = 2, |S| = 2"),
    ("transform.require_extractable", ValueError,
     lambda: transform.require_extractable(GRID, (1,)), "degree vector (1,) does not match grid arity 2"),
    # the command line handlers
    ("cli._read_text", cli._UsageError,
     lambda: _handler(["analyze", "no-such-file.txt"]), "cannot read no-such-file.txt"),
    ("cli._load_poly", cli._UsageError,
     lambda: _handler(["analyze", "--poly", "3"]), "no variables found in --poly; pass --vars"),
    ("cli._cmd_pit", cli._UsageError,
     lambda: _handler(["pit", "3", "4", "--samples", "5"]), "no variables found; pass --vars"),
]


@pytest.mark.parametrize("error,call,fragment", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_each_argument_check_raises_its_error(error, call, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


def test_blank_grid_segments_are_skipped():
    grid = GridSpec.from_text(" ;0..2;\n\n; ;1,4;", F7)
    assert grid.sets == ((0, 1, 2), (1, 4))
