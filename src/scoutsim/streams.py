"""Counter-based random streams for reproducible parallel simulation.

Every variate consumed anywhere in the package is a pure function of
``(root_seed, replica, scout, step)``.  That makes results independent of
batching, thread scheduling, and platform: vectorized and scalar simulation
paths consume literally the same numbers, and replicas can be split across
workers in any order.

The generator is Philox 4x32 with 10 rounds, evaluated directly at the
counter ``(step_lo, step_hi, replica, scout)`` under a key derived from the
root seed.  The implementation keeps the four 32-bit lanes in uint64 arrays
and runs the rounds in place, which is considerably faster in numpy than a
literal 32-bit transcription; outputs are bit-identical to the reference
function (see the known-answer tests).  The lanes and the two products of a
round live in a workspace of 6 x ``_CHUNK`` words (1.5 MiB) that each thread
makes once and reuses on every call.  A call runs in passes of at most
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


def _philox_u64(lanes, key0: int, key1: int):
    """Philox-4x32-10 on uint64 lanes holding 32-bit values, in place.

    ``lanes`` holds the four counter words and two scratch lanes of the same
    shape.  Returns the four output lanes (aliases of ``lanes``).
    """
    x0, x1, x2, x3, a, b = lanes
    m0 = np.uint64(_M0)
    m1 = np.uint64(_M1)
    k0 = key0 & 0xFFFFFFFF
    k1 = key1 & 0xFFFFFFFF
    for _ in range(_ROUNDS):
        np.multiply(x0, m0, out=a)          # a = M0 * c0
        np.multiply(x2, m1, out=b)          # b = M1 * c2
        np.right_shift(a, _S32, out=x0)     # x0 = hi0
        a &= _LO32                          # a  = lo0
        np.right_shift(b, _S32, out=x2)     # x2 = hi1
        b &= _LO32                          # b  = lo1
        x2 ^= x1
        x2 ^= np.uint64(k0)                 # x2 = new c0
        x0 ^= x3
        x0 ^= np.uint64(k1)                 # x0 = new c2
        x0, x1, x2, x3, a, b = x2, b, x0, a, x1, x3
        k0 = (k0 + _W0) & 0xFFFFFFFF
        k1 = (k1 + _W1) & 0xFFFFFFFF
    return x0, x1, x2, x3


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


def _philox_into(out: np.ndarray, step, replica, scout, k0: int, k1: int) -> None:
    """Fill ``out`` (at most _CHUNK entries) with the 64 bits at each counter,
    the counter words broadcast to its shape."""
    if out.ndim == 0:  # unpacking the lanes needs an axis
        out = out.reshape(1)
    lanes = _workspace()[:, :out.size].reshape((_LANES,) + out.shape)
    np.bitwise_and(step, _LO32, out=lanes[0])
    np.right_shift(step, _S32, out=lanes[1])
    lanes[2][...] = replica
    lanes[3][...] = scout
    w0, w1, _, _ = _philox_u64(lanes, k0, k1)
    np.left_shift(w0, _S32, out=out)
    out |= w1


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
    k0, k1 = _key_words(root_seed)
    shape = np.broadcast(step, replica, scout).shape
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    elif out.shape != shape or out.dtype != np.uint64:
        raise ValueError(f"out must be a uint64 array of shape {shape}")
    if out.size <= _CHUNK:
        _philox_into(out, step, replica, scout, k0, k1)
    else:
        counters = [np.broadcast_to(c, out.shape) for c in (step, replica, scout)]
        for piece in _pieces(out.shape):
            _philox_into(out[piece], *(c[piece] for c in counters), k0, k1)
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
