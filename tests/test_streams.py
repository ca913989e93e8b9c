"""Counter-based stream contract: known answers, purity, uniformity."""

import itertools
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from scoutsim import streams

# Reference vectors for Philox-4x32-10.
KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2,
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter,key,expected", KAT)
def test_known_answer(counter, key, expected):
    got = streams.philox4x32(*(np.uint32(c) for c in counter),
                             np.uint32(key[0]), np.uint32(key[1]))
    assert tuple(int(x) for x in got) == expected


def test_batch_matches_scalar():
    reps = np.arange(200, dtype=np.int64)
    batch = streams.uniforms(42, reps, 3, 17)
    for r in (0, 1, 57, 199):
        assert streams.uniform_scalar(42, r, 3, 17) == batch[r]


def test_broadcast_invariance():
    grid = streams.uniforms(7, np.arange(50)[:, None], 2, np.arange(33)[None, :])
    flat = streams.uniforms(7, np.repeat(np.arange(50), 33), 2,
                            np.tile(np.arange(33), 50)).reshape(50, 33)
    assert np.array_equal(grid, flat)


def test_block_matches_elementwise():
    blk = streams.uniforms(5, 9, 1, np.arange(100, 164, dtype=np.uint64))
    ref = np.array([streams.uniform_scalar(5, 9, 1, 100 + j) for j in range(64)])
    assert np.array_equal(blk, ref)


def test_distinct_coordinates_decorrelate():
    a = streams.uniforms(1, np.arange(1000), 0, 0)
    b = streams.uniforms(1, np.arange(1000), 1, 0)
    c = streams.uniforms(2, np.arange(1000), 0, 0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_uniformity_chi_square():
    u = streams.uniforms(123, np.arange(200000), 0, 0)
    counts, _ = np.histogram(u, bins=32, range=(0, 1))
    _, p = chisquare(counts)
    assert p > 1e-4
    assert 0.0 <= u.min() and u.max() < 1.0


def test_serial_correlation_along_steps():
    u = streams.uniforms(9, 0, 0, np.arange(100000, dtype=np.uint64))
    lag1 = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(lag1) < 0.02
    # pairs must also cover the unit square uniformly
    counts, *_ = np.histogram2d(u[:-1], u[1:], bins=8, range=[[0, 1], [0, 1]])
    _, p = chisquare(counts.ravel())
    assert p > 1e-4


def test_output_bits_balanced():
    bits = streams.raw64(31, np.arange(50000), 2, 7)
    for shift in range(0, 64, 7):
        frac = float(((bits >> np.uint64(shift)) & np.uint64(1)).mean())
        assert abs(frac - 0.5) < 0.01


def test_large_step_counters():
    big = 1 << 40
    a = streams.uniform_scalar(5, 3, 1, big)
    b = float(streams.uniforms(5, np.array([3]), 1, np.array([big]))[0])
    assert a == b
    # the high counter word must matter
    assert a != streams.uniform_scalar(5, 3, 1, big & 0xFFFFFFFF)


def test_out_of_range_counters_rejected():
    # masking to 32 bits would let replica 3 and 3 + 2**32 share a stream
    with pytest.raises(ValueError, match="replica"):
        streams.uniforms(0, 3 + 2**32, 0, 5)
    with pytest.raises(ValueError, match="replica"):
        streams.uniforms(0, np.array([0, 1, -1]), 0, 5)
    with pytest.raises(ValueError, match="scout"):
        streams.raw64(0, 3, 2**32, 5)
    with pytest.raises(ValueError, match="replica"):
        streams.uniform_scalar(0, -1, 0, 5)
    top = 2**32 - 1
    assert streams.uniform_scalar(0, top, top, 5) == float(
        streams.uniforms(0, np.array([top]), np.uint64(top), 5)[0])


def test_out_of_range_root_seed_rejected():
    # masking to 64 bits would let seed -1 and seed 2**64 - 1 share streams
    with pytest.raises(ValueError, match="root seed"):
        streams.uniforms(-1, 0, 0, 0)
    with pytest.raises(ValueError, match="root seed"):
        streams.raw64(2**64, 0, 0, 0)
    top = 2**64 - 1
    assert streams.uniform_scalar(top, 0, 0, 0) == float(streams.uniforms(top, 0, 0, 0))
    assert streams.uniform_scalar(top, 0, 0, 0) != streams.uniform_scalar(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# categorical tables


@st.composite
def _rows(draw):
    """A row of 1-64 outcomes: all Fraction, all float, or mixed; some short of
    1; zero-probability outcomes, often in runs, repeat a partial sum."""
    cells = draw(st.lists(st.tuples(st.one_of(st.just(0), st.integers(1, 12)), st.booleans()),
                          min_size=1, max_size=64).filter(lambda c: any(w for w, _ in c)))
    scale = Fraction(100 - draw(st.integers(0, 5)), sum(w for w, _ in cells) * 100)
    return [float(w * scale) if as_float else w * scale for w, as_float in cells]


def _searchsorted_select(row, u):
    """Categorical.select of one row as it was: a sorted search of the row's
    true partial sums, clamped to the last branch."""
    cum = np.array(_reference_cum(row))
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def _reference_cum(row):
    if all(isinstance(p, Fraction) for p in row):
        return [float(c) for c in itertools.accumulate(row)]
    return list(itertools.accumulate(float(p) for p in row))


@settings(max_examples=150, deadline=None)
@given(st.lists(_rows(), min_size=1, max_size=6),
       st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
def test_categorical_selections_agree(rows, extra_u):
    table = streams.Categorical(rows)
    refs = [_reference_cum(r) for r in rows]
    # every cumulative value below 1 is a uniform the boundary rule must place
    u = np.array(sorted({*extra_u, *(c for ref in refs for c in ref if c < 1)}))
    want = {j: [min(bisect_right(ref, x), len(ref) - 1) for x in u]
            for j, ref in enumerate(refs)}
    for j in want:
        assert table.select(j, u).tolist() == want[j]
        assert _searchsorted_select(rows[j], u).tolist() == want[j]
        assert [table.select_one(j, float(x)) for x in u] == want[j]
    # a gather over padded rows of different lengths
    which = np.arange(u.size) % len(rows)
    assert table.select(which, u).tolist() == [want[j][i] for i, j in enumerate(which)]
    assert table.cum.shape == (len(rows), max(len(r) for r in rows))


def test_categorical_cumulates_exact_rows_exactly():
    row = [Fraction(1, 10), Fraction(2, 10), Fraction(7, 10)]
    # a float cumsum reaches 0.30000000000000004 and would pick branch 1
    assert streams.Categorical([[float(p) for p in row]]).select_one(0, 0.3) == 1
    table = streams.Categorical([row])
    assert table.select_one(0, 0.3) == 2
    assert table.select(0, np.array([0.3])).tolist() == [2]


def test_categorical_single_row_search_matches_gather():
    # zero-probability outcomes repeat a cumulative value; a uniform equal to
    # a cumulative value belongs to the next outcome with positive weight
    rows = [[Fraction(1, 4), Fraction(0), Fraction(1, 4), Fraction(0), Fraction(1, 2)],
            [0.0, 0.5, 0.0, 0.5], [Fraction(1)]]
    table = streams.Categorical(rows)
    u = np.array([[0.0, 0.25, 0.5], [0.75, 0.9999, 0.1]])
    want = {0: [[0, 2, 4], [4, 4, 0]], 1: [[1, 1, 3], [3, 3, 1]], 2: [[0, 0, 0], [0, 0, 0]]}
    for j, branches in want.items():
        assert table.select(j, u).tolist() == branches
        assert table.select(np.full(u.shape, j), u).tolist() == branches


def test_categorical_draw_keys():
    table = streams.Categorical([[Fraction(1, 3)] * 3, [0.25, 0.75]])
    reps = np.array([0, 5, 9])
    got = table.draw(1, 11, reps, 2, 40, 7)
    u = streams.uniforms(11, reps[:, None], 2, 40 + np.arange(7)[None, :])
    assert np.array_equal(got, (u >= 0.25).astype(np.int64))
    assert np.array_equal(table.draw(1, 11, 5, 2, 40, 7), got[1])
