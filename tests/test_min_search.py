"""The block candidate streams of ``min_nonzero_search``.

The sampled blocks must hold exactly the vectors of the per-value
``randrange`` generator they replace, the exhaustive blocks exactly
``itertools.product`` order, and the answer must not depend on where the
block boundaries fall.
"""

import itertools
import logging
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullgrid import oracle
from nullgrid.oracle import (
    _best_assignment,
    _class_lookup,
    _product_blocks,
    _sample_blocks,
    _scorer,
    count_nonzeros,
    min_nonzero_search,
)
from nullgrid.poly import GridSpec
from nullgrid.ring import RingSpec

# 4294967311 is the first prime above 2^32: its draws take two words each
PRIMES = (2, 3, 101, 10007, 2**31 - 1, 4294967311)


def _randrange_vectors(seed, p, k, req, budget):
    """The sampled candidates as the search drew them one value at a time."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(1, p) if i == req else rng.randrange(p) for i in range(k))
            for _ in range(budget)]


def _rows(blocks):
    return [tuple(int(c) for c in row) for block in blocks for row in block]


@settings(max_examples=250, deadline=None)
@given(p=st.sampled_from(PRIMES), k=st.integers(1, 6), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_sample_blocks_reproduce_the_randrange_stream(p, k, data, seed):
    req = data.draw(st.integers(0, k - 1), label="req")
    small = data.draw(st.booleans(), label="small blocks")
    # small blocks cross many boundaries and carry leftover values between draws
    rows = data.draw(st.integers(1, 9), label="rows") if small else oracle._BLOCK_ROWS
    budget = data.draw(st.integers(1, 60) if small else st.integers(4090, 4110), label="budget")
    blocks = list(_sample_blocks(random.Random(seed), p, k, req, budget, rows))
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert all(b.dtype == (np.int64 if p < 2**32 else object) for b in blocks)
    assert _rows(blocks) == _randrange_vectors(seed, p, k, req, budget)


@pytest.mark.parametrize("p,k,rows", [(2, 5, 3), (3, 4, 7), (5, 3, 1), (7, 2, 10), (11, 1, 4)])
def test_product_blocks_follow_itertools_product_order(p, k, rows):
    for req in range(k):
        space = (p - 1) * p ** (k - 1)
        ranges = [range(1, p) if i == req else range(p) for i in range(k)]
        blocks = list(_product_blocks(p, k, req, rows))
        assert _rows(blocks) == list(itertools.product(*ranges))
        assert max(len(b) for b in blocks) == min(rows, space)


def _reference_best_assignment(blocks, matrix, p):
    """The first candidate with the least count, every value block scored
    with ``% p`` on Python integers (object arrays), exact at every p: the
    reference for the int64 path of ``_scorer``."""
    mat = np.array(matrix, dtype=object)
    best_count = best_coeffs = None
    for block in blocks:
        values = (block.astype(object) @ mat) % p
        counts = np.count_nonzero(values, axis=1)
        i = int(np.argmin(counts))
        if best_count is None or counts[i] < best_count:
            best_count = int(counts[i])
            best_coeffs = tuple(int(c) for c in block[i])
    if best_coeffs is None:
        raise ValueError("no candidate coefficient vectors")
    return best_count, best_coeffs


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from(PRIMES), k=st.integers(1, 5), points=st.integers(1, 40),
       rows=st.lists(st.integers(1, 300), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_scoring_matches_the_reference(p, k, points, rows, seed):
    # half the entries are 0, 1 or p - 1, so many values are multiples of
    # p; k = 1 at p = 2^31 - 1 puts values near 2^62 on the int64 path,
    # and larger p or k run on Python integers
    rng = random.Random(seed)

    def entries(n):
        return [rng.choice((0, 1, p - 1)) if rng.random() < 0.5 else rng.randrange(p) for _ in range(n)]

    matrix = [entries(points) for _ in range(k)]
    dtype = np.int64 if p < 2**32 else object
    blocks = [np.array(entries(n * k), dtype=dtype).reshape(n, k) for n in rows]
    assert _best_assignment(iter(blocks), _scorer(matrix, p)) == _reference_best_assignment(blocks, matrix, p)


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1, 4294967311])
def test_ties_across_blocks_keep_the_first_candidate(p):
    dtype = np.int64 if p < 2**32 else object
    # (a, b) -> (a, a - b, b): every candidate below has 2 nonzeros
    tied = [[1, 1, 0], [0, p - 1, 1]]
    blocks = [np.array(b, dtype=dtype) for b in ([[1, 1], [1, 0]], [[0, 1], [1, 1]])]
    # (a, b) -> (a, 0, 0): the minimum 0 first in the second block, then again in the third
    later = [[1, 0, 0], [0, 0, 0]]
    firsts = [np.array(b, dtype=dtype) for b in ([[1, 0]], [[1, 1], [0, 1]], [[0, 0]])]
    for matrix, blks, expected in ((tied, blocks, (2, (1, 1))), (later, firsts, (0, (0, 1)))):
        assert _reference_best_assignment(blks, matrix, p) == expected
        assert _best_assignment(iter(blks), _scorer(matrix, p)) == expected


def test_values_past_a_word_are_scored_on_python_integers():
    # at p = 2^31 - 1 and k = 6 the first candidate's first value is
    # 5 (p - 1)^2 + 5 (p - 1) = 5 p (p - 1) > 2^64, a multiple of p that a
    # wrapped word sum would score as nonzero; both candidates have one
    # nonzero value, and the first wins
    p = 2**31 - 1
    matrix = [[p - 1, 1]] * 5 + [[5, 1]]
    blocks = [np.array([[p - 1] * 6, [1] * 6], dtype=np.int64)]
    assert _best_assignment(iter(blocks), _scorer(matrix, p)) == _reference_best_assignment(blocks, matrix, p) \
        == (1, (p - 1,) * 6)


def test_minimum_first_reached_in_a_later_block_wins():
    mat = [[1, 0, 1], [0, 1, 1]]  # over F_5: (a, b) -> (a, b, a + b)
    blocks = [np.array([[1, 1], [2, 2]]),        # 3 and 3 nonzeros
              np.array([[1, 1], [1, 4], [2, 3]]),  # 3, then the minimum 2 twice
              np.array([[3, 2]])]                # 2 again, but later
    assert _best_assignment(iter(blocks), _scorer(mat, 5)) == (2, (1, 4))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 101)), points=st.integers(1, 12), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_class_table_matches_the_reference(p, points, data, seed):
    # the table path, over the enumerated space when it is small and a
    # sample either way, against scoring every candidate with % p; a few
    # grid points and blocks of a few rows make ties within and across
    # blocks common, and stop the scan in mid-stream
    k = data.draw(st.integers(1, 3 if p == 101 else 5), label="k")
    req = data.draw(st.integers(0, k - 1), label="req")
    rows = data.draw(st.integers(1, 9), label="rows")
    rng = random.Random(seed)
    matrix = [[rng.choice((0, 1, p - 1)) if rng.random() < 0.5 else rng.randrange(p)
               for _ in range(points)] for _ in range(k)]
    space = (p - 1) * p ** (k - 1)
    streams = [list(_sample_blocks(random.Random(seed), p, k, req, data.draw(st.integers(1, 300)), rows))]
    if space <= 20_000:
        streams.append(list(_product_blocks(p, k, req, rows)))
    for blocks in streams:
        score, least = _class_lookup(matrix, p, k, req)
        assert _best_assignment(iter(blocks), score, least) \
            == _reference_best_assignment([np.concatenate(blocks)], matrix, p)


def _representatives(p, k, req):
    """Every class representative, 1 in slot ``req``, in
    ``itertools.product`` order."""
    ranges = [(1,) if i == req else range(p) for i in range(k)]
    flat = itertools.chain.from_iterable(itertools.product(*ranges))
    return np.fromiter(flat, dtype=np.int64, count=p ** (k - 1) * k).reshape(-1, k)


def _scored_table(matrix, p, reps):
    """The class table by scoring every class representative: the
    reference for the incidence count."""
    score = _scorer(matrix, p)
    table = np.empty(len(reps), dtype=np.min_scalar_type(len(matrix[0])))
    for start in range(0, len(reps), 4096):
        table[start:start + 4096] = score(reps[start:start + 4096])
    return table


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 101)), points=st.integers(1, 30), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_incidence_table_equals_the_scored_table(p, points, data, seed):
    # points of four kinds: any values, every free value 0, v_req 0, all 0;
    # a budget of a few cells splits the points into chunks of one or more
    k = data.draw(st.integers(1, 4 if p == 101 else 5), label="k")
    req = data.draw(st.integers(0, k - 1), label="req")
    cells = data.draw(st.sampled_from((1, 2, 5, 64, p ** k, oracle._CELL_BUDGET)), label="cells")
    rng = random.Random(seed)
    columns = []
    for _ in range(points):
        kind = rng.randrange(4)
        column = [rng.choice((0, 1, p - 1)) if rng.random() < 0.5 else rng.randrange(p) for _ in range(k)]
        columns.append([0 if (kind & 1 and i != req) or (kind & 2 and i == req) else v
                        for i, v in enumerate(column)])
    matrix = [list(row) for row in zip(*columns)]
    reps = _representatives(p, k, req)
    expected = _scored_table(matrix, p, reps)
    with mock.patch.object(oracle, "_CELL_BUDGET", cells):
        lookup, least = _class_lookup(matrix, p, k, req)
    table = lookup(reps)
    assert table.dtype == expected.dtype
    assert table.tolist() == expected.tolist()
    assert least == int(expected.min())


def test_the_class_table_is_counted_without_the_scorer(monkeypatch, caplog):
    def scorer(matrix, p):
        raise AssertionError("scored a class representative")

    grid = GridSpec(RingSpec.prime_field(23), [range(6), range(6)])
    monkeypatch.setattr(oracle, "_scorer", scorer)
    with caplog.at_level(logging.DEBUG, logger="nullgrid"):
        res = min_nonzero_search(((3, 2), (2, 2), (1, 3), (0, 2)), (1, 3), grid)
    assert (res.min_count, tuple(sorted(res.witness.terms.items()))) == (20, (((1, 3), 22), ((2, 2), 1)))
    assert any(r.getMessage().endswith("scored=classes rows=12167") for r in caplog.records)


@pytest.mark.parametrize("p,coefficient", [(18446744073709551557, 7106521602475165646),
                                           (3317044064679887385961813, 195764606286610477549187)])
def test_one_monomial_over_a_prime_past_a_word_reads_its_one_class(p, coefficient):
    # with k = 1 the one class is counted by comparing values with 0, so
    # values past int64 need no arithmetic; the witness was recorded from
    # the scored table
    grid = GridSpec(RingSpec.prime_field(p), [range(5)])
    res = min_nonzero_search(((2,),), (2,), grid, exhaustive_limit=0, sample_budget=5)
    assert (res.min_count, res.witness.terms, res.tried) == (4, {(2,): coefficient}, 5)


def test_scan_stops_at_the_least_count():
    def blocks():
        yield np.array([[1, 1], [1, 0]])  # 3 nonzeros, then the least, 2
        raise AssertionError("drew a block after the least count")

    mat = [[1, 0, 1], [0, 1, 1]]  # over F_5: (a, b) -> (a, b, a + b)
    assert _best_assignment(blocks(), _scorer(mat, 5), least=2) == (2, (1, 0))


@pytest.mark.parametrize("limit,budget", [(10**6, 1), (0, 700)])
def test_answer_does_not_depend_on_block_size(monkeypatch, limit, budget):
    grid = GridSpec(RingSpec.prime_field(7), [range(3), range(3)])
    support = ((1, 1), (1, 0), (0, 1), (0, 0))
    expected = min_nonzero_search(support, (1, 1), grid, exhaustive_limit=limit,
                                  sample_budget=budget, seed=11)
    for rows in (1, 3, 64):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
        assert min_nonzero_search(support, (1, 1), grid, exhaustive_limit=limit,
                                  sample_budget=budget, seed=11) == expected


# (prime, grid sets, support, required, exhaustive_limit, sample_budget, seed)
# -> (min_count, witness terms, exhaustive, tried), recorded from the
# per-value randrange / itertools.product search
FROZEN = [
    ((101, [range(6), range(6)], ((3, 2), (0, 4), (4, 0)), (3, 2), 20_000, 20_000, 7),
     (28, (((3, 2), 22), ((4, 0), 13)), False, 20000)),
    ((10007, [range(6)], ((3,), (1,), (0,)), (3,), 0, 5000, 1),
     (5, (((0,), 6006), ((1,), 6940), ((3,), 7068)), False, 5000)),
    ((3, [range(3), range(3)], ((2, 1), (1, 2), (0, 2), (1, 0), (0, 0)), (2, 1), 10, 4097, 2),
     (2, (((1, 2), 2), ((2, 1), 1)), False, 4097)),
    ((2**31 - 1, [range(4), range(3)], ((2, 2), (3, 0), (0, 1)), (2, 2), 0, 300, 3),
     (11, (((0, 1), 1168723365), ((2, 2), 511025151), ((3, 0), 1272686665)), False, 300)),
    ((4294967311, [range(4)], ((2,), (0,)), (2,), 0, 50, 4),
     (4, (((0,), 1701057193), ((2,), 1013818840)), False, 50)),
    ((2, [range(2), range(2)], ((1, 1), (1, 0), (0, 1), (0, 0)), (1, 1), 4, 100, 5),
     (1, (((1, 1), 1),), False, 100)),
    ((5, [range(3), range(3)], ((1, 1), (1, 0), (0, 1), (0, 0)), (1, 1), 10_000, 1, 0),
     (4, (((1, 1), 1),), True, 500)),
    # the first minimal vector in product order has 1 in slot (2, 2), so
    # its required coefficient is 6, not its class representative's 1
    ((7, [range(4), range(4)], ((3, 2), (2, 2), (1, 3), (0, 2)), (1, 3), 10**6, 1, 0),
     (6, (((1, 3), 6), ((2, 2), 1)), True, 2058)),
]


@pytest.mark.parametrize("call,expected", FROZEN)
def test_min_nonzero_search_frozen(call, expected):
    p, sets, support, required, limit, budget, seed = call
    grid = GridSpec(RingSpec.prime_field(p), sets)
    res = min_nonzero_search(support, required, grid, exhaustive_limit=limit,
                             sample_budget=budget, seed=seed)
    assert (res.min_count, tuple(sorted(res.witness.terms.items())), res.exhaustive,
            res.tried) == expected
    assert count_nonzeros(res.witness, grid, collect_zeros=False).nonzeros == res.min_count


@pytest.mark.parametrize("budget", [0, -1])
def test_a_sample_of_no_candidates_is_refused_before_any_work(monkeypatch, budget):
    monkeypatch.setattr(oracle, "_grid_values", mock.Mock(side_effect=AssertionError("grid values were built")))
    grid = GridSpec(RingSpec.prime_field(101), [range(3)])
    with pytest.raises(ValueError, match=f"sample_budget must be positive to sample, got {budget}"):
        min_nonzero_search(((1,), (0,)), (1,), grid, exhaustive_limit=0, sample_budget=budget)
    # an exhaustive search draws no sample, so its sample count is not read
    monkeypatch.undo()
    assert min_nonzero_search(((1,), (0,)), (1,), grid, sample_budget=budget).exhaustive


@pytest.mark.parametrize("p,limit,message", [
    (101, 10**6, "min search path=exhaustive candidates=10100 blocks=1 source=radix scored=classes rows=101"),
    (101, 0, "min search path=sampled candidates=9000 blocks=1 source=words scored=classes rows=101"),
    (4294967311, 0, "min search path=sampled candidates=9000 blocks=3 source=randrange "
     "scored=candidates rows=9000"),
])
def test_min_search_logs_its_path(caplog, p, limit, message):
    grid = GridSpec(RingSpec.prime_field(p), [range(3)])
    with caplog.at_level(logging.DEBUG, logger="nullgrid"):
        min_nonzero_search(((1,), (0,)), (1,), grid, exhaustive_limit=limit, sample_budget=9000)
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("min search")] == [message]


def test_exhaustive_search_scores_each_class_once(caplog):
    # 22 * 23^3 = 267,674 candidates in 23^3 = 12,167 classes
    grid = GridSpec(RingSpec.prime_field(23), [range(6), range(6)])
    with caplog.at_level(logging.DEBUG, logger="nullgrid"):
        res = min_nonzero_search(((3, 2), (2, 2), (1, 3), (0, 2)), (1, 3), grid)
    assert (res.min_count, tuple(sorted(res.witness.terms.items())), res.exhaustive, res.tried) \
        == (20, (((1, 3), 22), ((2, 2), 1)), True, 267674)
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("min search")] \
        == ["min search path=exhaustive candidates=267674 blocks=1 source=radix scored=classes rows=12167"]


@pytest.mark.parametrize("p,limit,budget,scored", [
    (2, 10**6, 1, "scored=candidates rows=2"),  # at p = 2 each class is one candidate
    (101, 0, 101, "scored=candidates rows=101"),
    (101, 0, 102, "scored=classes rows=101"),
])
def test_classes_are_scored_only_when_fewer_than_candidates(caplog, p, limit, budget, scored):
    grid = GridSpec(RingSpec.prime_field(p), [range(2)])
    with caplog.at_level(logging.DEBUG, logger="nullgrid"):
        min_nonzero_search(((1,), (0,)), (1,), grid, exhaustive_limit=limit, sample_budget=budget)
    [message] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("min search")]
    assert message.endswith(scored)


@pytest.mark.parametrize("limit,budget,tried", [(10**6, 1, 2058), (0, 700, 700)])
def test_classes_are_scored_only_within_the_cell_budget(monkeypatch, caplog, limit, budget, tried):
    # 7^3 = 343 classes: their table fits a budget of 343 cells, not one of 342
    grid = GridSpec(RingSpec.prime_field(7), [range(3), range(3)])
    support = ((1, 1), (1, 0), (0, 1), (0, 0))
    answers = []
    for cells, scored in ((343, "scored=classes rows=343"), (342, f"scored=candidates rows={tried}")):
        monkeypatch.setattr(oracle, "_CELL_BUDGET", cells)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="nullgrid"):
            answers.append(min_nonzero_search(support, (1, 1), grid, exhaustive_limit=limit,
                                              sample_budget=budget, seed=3))
        [message] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("min search")]
        assert message.endswith(scored)
    assert answers[0] == answers[1]
    assert answers[0].tried == tried
