"""Counter-based stream contract: known answers, purity, uniformity."""

import hashlib
import itertools
import math
import sys
import threading
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from scoutsim import streams

from conftest import philox4x32, uniform_scalar

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
    got = philox4x32(*(np.uint32(c) for c in counter), np.uint32(key[0]), np.uint32(key[1]))
    assert tuple(int(x) for x in got) == expected


def test_batch_matches_scalar():
    reps = np.arange(200, dtype=np.int64)
    batch = streams.uniforms(42, reps, 3, 17)
    for r in (0, 1, 57, 199):
        assert uniform_scalar(42, r, 3, 17) == batch[r]


def test_broadcast_invariance():
    grid = streams.uniforms(7, np.arange(50)[:, None], 2, np.arange(33)[None, :])
    flat = streams.uniforms(7, np.repeat(np.arange(50), 33), 2,
                            np.tile(np.arange(33), 50)).reshape(50, 33)
    assert np.array_equal(grid, flat)


def test_block_matches_elementwise():
    blk = streams.uniforms(5, 9, 1, np.arange(100, 164, dtype=np.uint64))
    ref = np.array([uniform_scalar(5, 9, 1, 100 + j) for j in range(64)])
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
    a = uniform_scalar(5, 3, 1, big)
    b = float(streams.uniforms(5, np.array([3]), 1, np.array([big]))[0])
    assert a == b
    # the high counter word must matter
    assert a != uniform_scalar(5, 3, 1, big & 0xFFFFFFFF)


def test_out_of_range_counters_rejected():
    # masking to 32 bits would let replica 3 and 3 + 2**32 share a stream,
    # and casting would put step -1 on step 2**64 - 1, and 1.7 or 0.5 on 1 or 0
    with pytest.raises(ValueError, match="replica"):
        streams.uniforms(0, 3 + 2**32, 0, 5)
    with pytest.raises(ValueError, match="replica"):
        streams.uniforms(0, np.array([0, 1, -1]), 0, 5)
    with pytest.raises(ValueError, match="scout"):
        streams.raw64(0, 3, 2**32, 5)
    with pytest.raises(ValueError, match="replica"):
        uniform_scalar(0, -1, 0, 5)
    with pytest.raises(ValueError, match="replica"):
        streams.uniforms(1, np.array([3, -2], dtype=np.int8), 0, 0)
    for bad in (np.array([-1]), -1, 1.7, np.array([2.0]), 2**64, True):
        with pytest.raises(ValueError, match="step counter"):
            streams.raw64(1, 0, 0, bad)
    with pytest.raises(ValueError, match="replica counter"):
        streams.raw64(1, 0.5, 0, 0)
    with pytest.raises(ValueError, match="scout counter"):
        streams.uniforms(1, 0, np.array([1.0, 2.0]), 0)
    top = 2**32 - 1
    assert uniform_scalar(0, top, top, 5) == float(
        streams.uniforms(0, np.array([top]), np.uint64(top), 5)[0])
    top = 2**64 - 1
    assert streams.raw64(1, 0, 0, top) == streams.raw64(1, 0, 0, np.array([top], np.uint64))[0]
    assert streams.raw64(1, 0, 0, np.int32(5)) == streams.raw64(1, 0, 0, 5)


def test_out_of_range_root_seed_rejected():
    # masking to 64 bits would let seed -1 and seed 2**64 - 1 share streams
    with pytest.raises(ValueError, match="root seed"):
        streams.uniforms(-1, 0, 0, 0)
    with pytest.raises(ValueError, match="root seed"):
        streams.raw64(2**64, 0, 0, 0)
    top = 2**64 - 1
    assert uniform_scalar(top, 0, 0, 0) == float(streams.uniforms(top, 0, 0, 0))
    assert uniform_scalar(top, 0, 0, 0) != uniform_scalar(0, 0, 0, 0)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.astype("<u8").tobytes()).hexdigest()


# sha256 of raw64's little-endian bytes, computed before the kernel ran in a
# per-thread workspace: one call over several _CHUNK passes, one (R, B) call
# at the i.i.d. block size with the high step word set, and two calls whose
# rows span more than one pass along their first or second axis
RAW64_PINS = [
    (lambda: streams.raw64(7, np.arange(50000, dtype=np.int64), 3, 11),
     "35c218927bd9e1a10a65d316d131890aa477c04dad45ea7e67cf6149ce83afc7"),
    (lambda: streams.raw64(2**63 + 5, np.arange(8)[:, None], 1,
                           np.arange(2048, dtype=np.uint64) + (1 << 33)),
     "754b780f7d0f9436add88a0510777b33a15b7e9321bbfebecb7587f800b3eb9c"),
    (lambda: streams.raw64(5, np.arange(3)[:, None, None], np.arange(2)[None, None, :],
                           np.arange(40000, dtype=np.int64)[None, :, None]),
     "74a1950d0d53be2c4999dc3c412c04277cf6d0ced054cb1f607c32ba83de16ba"),
    (lambda: streams.raw64(9, 0, np.arange(3), np.arange(70000, dtype=np.uint64)[:, None]),
     "8b060db226d140e630422941ab197da77afd5e97985a919770745f68e4c7d295"),
]


def _reference_raw64(root_seed, replica, scout, step):
    """raw64 by the full ten-round reference: w0 << 32 | w1 at each counter."""
    step = np.asarray(step, dtype=np.uint64)
    w0, w1, _, _ = philox4x32(step & np.uint64(0xFFFFFFFF), step >> np.uint64(32),
                              replica, scout, root_seed & 0xFFFFFFFF, root_seed >> 32)
    return (w0.astype(np.uint64) << np.uint64(32)) | w1.astype(np.uint64)


# broadcast shapes of raw64 calls: one pass, and past _CHUNK cut along the
# first axis (70000, 3), along the second (3, 70000) and by integer indices
# on the leading axes (2, 3, 40000) and (2, 40000, 2), where a piece of the
# last is cut along its second axis
RAW64_LAYOUT_SHAPES = [(), (5,), (4, 6), (3, 4, 5), (70000, 3), (3, 70000),
                       (2, 3, 40000), (2, 40000, 2)]


@pytest.mark.parametrize("shape", RAW64_LAYOUT_SHAPES)
def test_raw64_matches_reference_in_every_layout(shape):
    # every way of giving each axis to one counter, so each of step, replica
    # and scout is the only non-singleton axis somewhere; a counter with no
    # axis is a Python int or a 0-d array, and one whose leading axes are
    # singletons drops them in every other layout; steps run past 2**32
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    for k, owners in enumerate(itertools.product(range(3), repeat=len(shape))):
        if math.prod(shape) > 1000 and k % 4 and len(set(owners)) > 1:
            continue  # a quarter of the mixed large layouts keeps the test quick
        counters = []
        for c, bits in enumerate((64, 32, 32)):
            sub = tuple(n if o == c else 1 for n, o in zip(shape, owners))
            if k % 2:
                while sub and sub[0] == 1:
                    sub = sub[1:]
            values = rng.integers(0, 2**bits, size=sub, dtype=np.uint64)
            if not sub:
                values = int(values) if k % 3 else values
            counters.append(values)
        step, replica, scout = counters
        seed = int(rng.integers(0, 2**63)) * 2 + k % 2
        got = streams.raw64(seed, replica, scout, step)
        assert got.shape == shape
        assert np.array_equal(got, _reference_raw64(seed, replica, scout, step))


@pytest.mark.parametrize("call,digest", RAW64_PINS)
def test_raw64_bytes_pinned(call, digest):
    assert _digest(call()) == digest


def test_raw64_threads_match_serial():
    # each thread keeps its own workspace; a shared one would mix the lanes
    # of passes that run at once (numpy drops the GIL inside large ufuncs)
    calls = [(11, np.arange(16)[:, None], 0, np.arange(2048, dtype=np.int64)),
             (12, 5, np.arange(2), np.arange(40000, dtype=np.uint64)[:, None]),
             (13, np.arange(3), 1, 9)]
    want = [streams.raw64(*args) for args in calls]
    start = threading.Barrier(len(calls))
    got: dict = {}

    def work(i):
        start.wait(timeout=60)
        got[i] = [streams.raw64(*calls[i]) for _ in range(15)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for i, w in enumerate(want):
        assert all(np.array_equal(g, w) for g in got[i])


def test_raw64_edge_shapes():
    # 0-d
    one = streams.raw64(3, 4, 1, 9)
    assert one.shape == () and one == streams.raw64(3, np.array([4]), 1, 9)[0]
    assert isinstance(streams.uniforms(3, 4, 1, 9), np.float64)
    # zero-size, small and past one pass
    for shape in ((0,), (0, 5), (5, 0), (0, 40000), (40000, 0)):
        steps = np.zeros(shape, dtype=np.int64)
        assert streams.raw64(3, 4, 1, steps).shape == shape
        assert streams.uniforms(3, 4, 1, steps).shape == shape
    # a leading axis of 1 over rows of one pass or more
    for n in (3, 40000):
        steps = np.arange(n, dtype=np.int64)
        flat = streams.raw64(3, 4, 1, steps)
        assert np.array_equal(streams.raw64(3, 4, 1, steps[None, :]), flat[None, :])
        assert np.array_equal(streams.raw64(3, np.array([[4]]), 1, steps[:, None])[:, 0], flat)


def test_out_arrays_receive_the_same_values():
    # one pass and several, and a 0-d call: the values written to ``out``
    # are the ones a fresh array gets, and ``out`` itself is returned
    for reps, steps in ((np.arange(3)[:, None], np.arange(5, 15)),
                        (np.arange(7)[:, None], np.arange(6000)),
                        (np.int64(4), np.int64(9))):
        shape = np.broadcast(reps, steps).shape
        bits = np.empty(shape, dtype=np.uint64)
        assert streams.raw64(3, reps, 1, steps, out=bits) is bits
        assert np.array_equal(bits, streams.raw64(3, reps, 1, steps))
        u = np.empty(shape)
        assert streams.uniforms(3, reps, 1, steps, out=u) is u
        assert np.array_equal(u, streams.uniforms(3, reps, 1, steps))
        branch = np.full(shape, 7, dtype=np.int64)
        table = streams.Categorical([[Fraction(1, 4)] * 4])
        assert table.select(0, u, out=branch) is branch
        assert np.array_equal(branch, table.select(0, u))
    with pytest.raises(ValueError, match="shape"):
        streams.raw64(3, np.arange(3)[:, None], 1, np.arange(4), out=np.empty(4, np.uint64))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        streams.uniforms(3, 4, 1, np.arange(4), out=np.empty((4, 2))[:, 0])
    # a right-shaped out of another dtype is refused too
    with pytest.raises(ValueError, match="uint64"):
        streams.raw64(3, np.arange(3)[:, None], 1, np.arange(4), out=np.empty((3, 4), np.int64))


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
        assert [bisect_right(table.lists[j], float(x)) for x in u] == want[j]
    assert table.cum.shape == (len(rows), max(len(r) for r in rows))


def test_categorical_cumulates_exact_rows_exactly():
    row = [Fraction(1, 10), Fraction(2, 10), Fraction(7, 10)]
    # a float cumsum reaches 0.30000000000000004 and would pick branch 1
    assert bisect_right(streams.Categorical([[float(p) for p in row]]).lists[0], 0.3) == 1
    table = streams.Categorical([row])
    assert bisect_right(table.lists[0], 0.3) == 2
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
        # VectorSim.step's count over the padded row's columns but the last
        assert sum(u >= c for c in table.cum[j, :-1]).tolist() == branches


def test_categorical_draw_keys():
    table = streams.Categorical([[Fraction(1, 3)] * 3, [0.25, 0.75]])
    reps = np.array([0, 5, 9])
    got = table.draw(1, 11, reps, 2, 40, 7)
    u = streams.uniforms(11, reps[:, None], 2, 40 + np.arange(7)[None, :])
    assert np.array_equal(got, (u >= 0.25).astype(np.int64))
    assert np.array_equal(table.draw(1, 11, 5, 2, 40, 7), got[1])
