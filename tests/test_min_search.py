"""The block candidate streams of ``min_nonzero_search``.

The sampled blocks must hold exactly the vectors of the per-value
``randrange`` generator they replace, the exhaustive blocks exactly
``itertools.product`` order, and the answer must not depend on where the
block boundaries fall.
"""

import itertools
import logging
import random

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
        blocks = list(_product_blocks(p, k, req, space, rows))
        assert _rows(blocks) == list(itertools.product(*ranges))
        assert max(len(b) for b in blocks) == min(rows, space)


def _reference_best_assignment(blocks, matrix, p):
    """The scoring as it was, with int64 ``% p`` over every value block."""
    dtype = np.int64 if p * p * len(matrix) < 2**62 else object
    mat = np.array(matrix, dtype=dtype)
    best_count = best_coeffs = None
    for block in blocks:
        values = (block.astype(dtype, copy=False) @ mat) % p
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
        streams.append(list(_product_blocks(p, k, req, space, rows)))
    for blocks in streams:
        score, least = _class_lookup(_scorer(matrix, p), p, k, req, rows, points)
        assert _best_assignment(iter(blocks), score, least) \
            == _reference_best_assignment([np.concatenate(blocks)], matrix, p)


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


@pytest.mark.parametrize("p,limit,message", [
    (101, 10**6, "min search path=exhaustive candidates=10100 blocks=3 source=radix scored=classes rows=101"),
    (101, 0, "min search path=sampled candidates=9000 blocks=3 source=words scored=classes rows=101"),
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
        == ["min search path=exhaustive candidates=267674 blocks=66 source=radix scored=classes rows=12167"]


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
