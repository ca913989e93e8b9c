"""Counter-based random streams for reproducible parallel simulation.

Every variate consumed anywhere in the package is a pure function of
``(root_seed, replica, scout, step)``.  That makes results independent of
batching, thread scheduling, and platform: vectorized and scalar simulation
paths consume literally the same numbers, and replicas can be split across
workers in any order.

The generator is Philox 4x32 with 10 rounds, evaluated directly at the
counter ``(step_lo, step_hi, replica, scout)`` under a key derived from the
root seed.  Of the four output words the bits are w0 << 32 | w1; w2 and w3
are dropped.  The implementation keeps the 32-bit lanes in uint64 arrays
and runs the rounds in place, which is considerably faster in numpy than a
literal 32-bit transcription.  Round 1 reads only the counter words, so it
runs on the counters as passed (the steps, and the replicas with the
scouts) before anything is broadcast, and writes its four words at full
size once.  Rounds 2-8 run at full size, and rounds 9 and 10 compute only
what w0 and w1 read.  Outputs are bit-identical to the full ten-round
reference, which lives in ``tests/conftest.py`` with the known-answer
tests.  The lanes and the two products of a round live in a workspace of
6 x ``_CHUNK`` words (1.5 MiB) that each thread makes once and reuses on
every call.  A call runs in passes of at most
``_CHUNK`` counters, cut along its leading axes, so it allocates only its
result, or nothing where the caller passes ``out``; :func:`uniforms` turns
the bits into floats in that same array.  The memory kept stays at the
workspace however large a call is.

:class:`Categorical` is the one sampler that turns these uniforms into
outcomes of finite distributions: a scout's rule row in the engine (which
also steps the reduced kernels of the analysis) and a step law in the
walks.  Branch b of a row is drawn by u when cum[b-1] <= u < cum[b], the
last branch by every u from cum[-2] up: the branch is the number of the
row's first length - 1 partial sums that are <= u.  A row whose
probabilities are all ``Fraction`` is cumulated exactly and each partial
sum rounded to float once; any other row is cumulated in float.  The
scalar, vector and block paths compare against the same floats, so they
pick the same branch.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np

_M0 = 0xD2511F53
_M1 = 0xCD9E8D57
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_ROUNDS = 10
_INV53 = float(2.0**-53)

SEED_LIMIT = 1 << 64  # the root seed fills the two 32-bit key words


def _key_words(root_seed: int) -> tuple[int, int]:
    """The Philox key of a root seed in [0, 2**64).

    Masking instead would let e.g. seeds -1 and 2**64 - 1 share every stream.
    """
    root = int(root_seed)
    if not 0 <= root < SEED_LIMIT:
        raise ValueError(f"root seed {root} outside [0, 2**64)")
    return root & 0xFFFFFFFF, root >> 32


_CHUNK = 1 << 15  # counters per Philox pass: keeps the working set cache-resident
_LANES = 6  # four counter words and two products per round
_local = threading.local()


def _workspace() -> np.ndarray:
    """This thread's Philox workspace: _LANES rows of _CHUNK words (1.5 MiB).

    It is made on a thread's first call and reused by every later one, so a
    pass allocates nothing, and calls from different threads never share
    it.  Only the pages a pass writes are resident: small calls touch a few.
    Every row starts on a 64-byte cache line.  A plain ``np.empty`` of this
    size starts 16 bytes into one, after the allocator's chunk header, and
    there the rounds ran about 15% slower (AVX-512 Xeon, numpy 2.4).
    """
    ws = getattr(_local, "ws", None)
    if ws is None:
        raw = np.empty(_LANES * _CHUNK + 8, dtype=np.uint64)
        skip = -raw.ctypes.data % 64 // 8
        ws = _local.ws = raw[skip:skip + _LANES * _CHUNK].reshape(_LANES, _CHUNK)
    return ws


def _pieces(shape: tuple):
    """Index tuples cutting an array of ``shape`` into blocks of at most
    _CHUNK entries: runs of whole sub-arrays along the first axis where one
    sub-array fits, otherwise one first-axis index at a time, recursively."""
    inner = math.prod(shape[1:])
    if inner > _CHUNK:
        for i in range(shape[0]):
            for rest in _pieces(shape[1:]):
                yield (i,) + rest
    else:
        run = _CHUNK // max(inner, 1)
        for s in range(0, shape[0], run):
            yield (slice(s, s + run),)


COUNTER_LIMIT = 1 << 32  # replica and scout each fill one 32-bit counter word


def _counter_word(values, name: str, bits: int = 32) -> np.ndarray:
    """``values`` as uint64, refusing any that is not an integer in [0, 2**bits).

    Casting instead would let e.g. replica r and r + 2**32, step -1 and
    2**64 - 1, or step 1.7 and step 1 share a stream.  The range test is one
    reduction of the input before it is broadcast: below 64 bits the largest
    cast word, since a negative value casts to at least 2**63; for 64 bits
    the smallest value of a signed input.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind in "iu":
        words = values.astype(np.uint64, copy=False)
        if bits < 64:
            bad = values.size and words.max() >= 1 << bits
        else:
            bad = kind == "i" and values.size and values.min() < 0
        if not bad:
            return words
    raise ValueError(f"{name} counter must be an integer in [0, 2**{bits})")


def check_counters(root_seed: int, replica) -> None:
    """Raise the ValueError a draw would raise for an out-of-range root seed
    or replica counter, without drawing."""
    _key_words(root_seed)
    _counter_word(replica, "replica")


@lru_cache(maxsize=16)
def _round_keys(k0: int, k1: int) -> tuple[tuple[np.uint64, np.uint64], ...]:
    """The key pair of each of the _ROUNDS rounds, bumped by (W0, W1) a round.

    Cached: making the 20 numpy scalars costs about two full passes."""
    keys = []
    for _ in range(_ROUNDS):
        keys.append((np.uint64(k0), np.uint64(k1)))
        k0, k1 = (k0 + _W0) & 0xFFFFFFFF, (k1 + _W1) & 0xFFFFFFFF
    return tuple(keys)


def _philox_into(out: np.ndarray, step, replica, scout, keys) -> None:
    """Fill ``out`` (at most _CHUNK entries) with the 64 bits w0 << 32 | w1 of
    Philox-4x32-10 at each counter, the counter words broadcast to its shape.

    A round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)), on uint64 lanes holding 32-bit words.
    Round 1 runs on the counters as passed: c0 and c1 vary with the step
    alone, c2 with the replica and c3 with the scout, so its products and
    words are computed at those shapes, in the two scratch rows, and only
    its four results are written at full size.  Rounds 2-8 run in place on
    the four full lanes and the two scratch lanes.  The last two rounds
    compute only what w0 and w1 read: round 9 the new c1 and c2, and
    round 10 the product M1 c2 = hi << 32 | lo, whence
    w0 << 32 | w1 = M1 c2 ^ (c1 ^ k0) << 32.
    """
    if out.ndim == 0:  # unpacking the lanes needs an axis
        out = out.reshape(1)
    if not out.size:
        return
    ws = _workspace()
    x0, x1, x2, x3, a, b = ws[:, :out.size].reshape((_LANES,) + out.shape)
    m0, m1 = np.uint64(_M0), np.uint64(_M1)
    # round 1 on the counters: ta has the step's shape and tb the joint
    # shape of replica and scout, so every full write broadcasts one over
    # the other along whole runs of axes (a word broadcast along a short
    # inner axis, as a (1, R, 1) replica over scouts, is several times slower)
    k0, k1 = keys[0]
    ta = ws[4, :step.size].reshape(step.shape)
    joint = np.broadcast_shapes(replica.shape, scout.shape)
    tb = ws[5, :math.prod(joint)].reshape(joint)
    np.bitwise_and(step, _LO32, out=ta)
    ta *= m0                                # M0 * c0
    np.bitwise_and(ta, _LO32, out=x3)       # new c3 = lo0
    ta >>= _S32                             # hi0
    np.bitwise_xor(scout, k1, out=tb)
    np.bitwise_xor(ta, tb, out=x2)          # new c2 = hi0 ^ c3 ^ k1
    np.right_shift(step, _S32, out=ta)
    ta ^= k0                                # c1 ^ k0
    np.multiply(replica, m1, out=tb)        # M1 * c2
    np.bitwise_and(tb, _LO32, out=x1)       # new c1 = lo1
    tb >>= _S32                             # hi1
    np.bitwise_xor(tb, ta, out=x0)          # new c0 = hi1 ^ c1 ^ k0
    for r in range(1, _ROUNDS - 2):
        k0, k1 = keys[r]
        np.multiply(x0, m0, out=a)          # a = M0 * c0
        np.multiply(x2, m1, out=b)          # b = M1 * c2
        np.right_shift(a, _S32, out=x0)     # x0 = hi0
        a &= _LO32                          # a  = lo0
        np.right_shift(b, _S32, out=x2)     # x2 = hi1
        if r < _ROUNDS - 3:                 # round 8's new c1 is never read
            b &= _LO32                      # b  = lo1
        x2 ^= x1
        x2 ^= k0                            # x2 = new c0
        x0 ^= x3
        x0 ^= k1                            # x0 = new c2
        x0, x1, x2, x3, a, b = x2, b, x0, a, x1, x3
    # round 9: new c1 = lo(M1 c2) and new c2 = hi(M0 c0) ^ c3 ^ k1; c1 is
    # read only shifted up by 32 bits, so its high word needs no mask
    np.multiply(x0, m0, out=a)
    a >>= _S32
    a ^= x3
    a ^= keys[-2][1]                        # a = new c2
    np.multiply(x2, m1, out=b)              # b = new c1, unmasked
    # round 10 and the output: w0 << 32 | w1 = M1 c2 ^ (c1 ^ k0) << 32
    np.multiply(a, m1, out=out)
    b <<= _S32
    out ^= b
    out ^= keys[-1][0] << _S32


def raw64(root_seed: int, replica, scout, step, out: np.ndarray | None = None) -> np.ndarray:
    """64 uniform bits at counter (root_seed, replica, scout, step).

    ``root_seed`` must lie in [0, 2**64), ``replica`` and ``scout`` in
    [0, 2**32), and ``step`` in [0, 2**64); every counter must be an integer.
    The bits are written to ``out`` when given, a uint64 array of the
    counters' broadcast shape, and returned.
    """
    replica = _counter_word(replica, "replica")
    scout = _counter_word(scout, "scout")
    step = _counter_word(step, "step", 64)
    keys = _round_keys(*_key_words(root_seed))
    shape = np.broadcast(step, replica, scout).shape
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    elif out.shape != shape or out.dtype != np.uint64:
        raise ValueError(f"out must be a uint64 array of shape {shape}")
    if out.size <= _CHUNK:
        _philox_into(out, step, replica, scout, keys)
        return out
    # each counter keeps its own shape in every pass: it is cut only along
    # its non-singleton axes, and takes index 0 where a piece takes an
    # integer index along one of its singleton axes
    counters = [c.reshape((1,) * (out.ndim - c.ndim) + c.shape) for c in (step, replica, scout)]
    for piece in _pieces(out.shape):
        own = [c[tuple(p if n > 1 else 0 if isinstance(p, int) else slice(None)
                       for p, n in zip(piece, c.shape))] for c in counters]
        _philox_into(out[piece], *own, keys)
    return out


def uniforms(root_seed: int, replica, scout, step, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform float64 samples in [0, 1), one per broadcast element.

    The value at a given (root_seed, replica, scout, step) never depends on
    how the call is batched.  The samples are written to ``out`` when
    given, a C-contiguous float64 array of the broadcast shape, and
    returned; otherwise they fill one new array.  Either way the bits are
    made in that array's memory and each word is turned into its float in
    place.
    """
    if out is not None and not (out.dtype == np.float64 and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array")
    bits = raw64(root_seed, replica, scout, step,
                 out=None if out is None else out.view(np.uint64))
    bits >>= np.uint64(11)
    u = bits.view(np.float64)
    # one dimension and equal strides: numpy casts word by word, no copy
    np.copyto(u.reshape(-1), bits.reshape(-1))
    u *= _INV53
    return u[()] if out is None else out  # a 0-d call gives a float64 scalar


class Categorical:
    """Finite distributions as padded cumulative rows.

    ``lists[j]`` holds the partial sums of row j with the last of them
    raised to 2.0, above every uniform, and ``cum[j]`` holds the same list
    padded with 2.0 past its ``length[j]`` outcomes.  So counting the
    entries <= u, or bisecting the list, gives the branch with no clamp, and
    the last outcome takes the remainder of a float row summing below 1.
    Payloads (successor states, moves, step sizes) stay with the caller,
    indexed by the branch.
    """

    def __init__(self, rows):
        self.lists: list[list[float]] = []
        for row in rows:
            exact = all(isinstance(p, Fraction) for p in row)
            acc = Fraction(0) if exact else 0.0
            cum = []
            for p in row:
                acc += p if exact else float(p)
                cum.append(float(acc))
            cum[-1] = 2.0
            self.lists.append(cum)
        self.length = np.array([len(c) for c in self.lists], dtype=np.int64)
        self.cum = self.pad(self.lists, np.float64, fill=2.0)

    def pad(self, values, dtype, fill=0) -> np.ndarray:
        """Per-outcome ``values`` (one list per row) in the layout of ``cum``."""
        shape = np.shape(values[0][0])
        out = np.full((len(values), max(len(v) for v in values)) + shape, fill, dtype=dtype)
        for j, row in enumerate(values):
            out[j, :len(row)] = row
        return out

    def select(self, row: int, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Branch of each uniform in ``u`` under one row: the count of the
        row's partial sums before its last that are <= u.  Rows never
        decrease, so this is ``bisect_right`` of u in the row's list.  The
        branches are written to ``out`` when given, an int64 array of u's
        shape, and returned."""
        if out is None:
            out = np.zeros(np.shape(u), dtype=np.int64)
        else:
            out.fill(0)
        for c in self.lists[row][:-1]:
            out += u >= c
        return out

    def draw(self, row: int, root_seed: int, replicas, lane: int, t0: int,
             count: int) -> np.ndarray:
        """Branches of ``count`` iid draws from one row for each replica.

        Draw k of replica r uses the uniform at counter (r, lane, t0 + k).
        The shape is (len(replicas), count), or (count,) for one replica
        given as a scalar.
        """
        steps = t0 + np.arange(count, dtype=np.int64)
        u = uniforms(root_seed, np.asarray(replicas, dtype=np.int64)[..., None],
                     np.int64(lane), steps)
        return self.select(row, u)
