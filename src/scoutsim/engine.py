"""Seeded simulation of scout processes.

Stepping follows the synchronous product law: every scout's environment is
read from the current configuration, then each scout independently draws a
(state, move) pair from its matching rule row.  The variate consumed by
scout i at step n of replica r is ``streams.uniforms(root_seed, r, i, n)``,
so scalar stepping, vectorized batches, and threaded replica chunks all
produce bit-identical trajectories.  Every path turns a variate into a
branch of the rule row through the one sampler, :class:`streams.Categorical`:
the scalar kernel bisects the row's list, :class:`VectorSim` counts the
partial sums <= u of each scout's row, and the iid block path,
:meth:`VectorSim._iid_keys`, draws whole blocks from one row.  All three
compare against the same floats; a row of ``Fraction`` probabilities is
cumulated exactly and only then rounded.

:func:`run` materializes one replica's trace: it is a one-replica
:func:`run_batch`, and every trace comes from :meth:`VectorSim.blocks`.
The scalar kernel, :func:`_kernel`, steps a lone replica on plain Python
ints: each scout's state index and its grid key.  Scouts share a point
exactly when their keys are equal, the environment mask is the OR of the
co-located scouts' state bits, and the rule row of a (state, mask) pair
comes from a cache filled on first use.  The kernel fetches the uniforms of
its block with one ``streams.uniforms`` call, keyed by the absolute
(replica, scout, step) counters, as :meth:`VectorSim.step`'s blocks are:
the counters fix every value, so no partition of the steps into blocks,
and no choice of stepper, changes one.

:class:`VectorSim` steps all replicas through flat tables of the compiled
protocol.  One rule table, ``mask_bases`` from :meth:`_Compiled.dispatch_row`,
holds each state's flat row base row * row_width (-1 where no rule covers)
per exact rule's mask, and last for any other mask.  A scout's rule row is
one ``take`` from a dense dispatch table of (n + 1)**c entries for n
states, gathered from it: the index holds the scout's own state as its top
base-(n + 1) digit and, below it, one digit per other scout, s + 1 for one
at the same point in state s and 0 for one elsewhere.  The indices of all
scouts are one batched product of the co-location matrix with a constant
weight matrix.  The branch counts the row's partial sums <= u at base + j,
and the successor state and move key are ``take``s at base + branch.
Environment-free protocols index by their own state alone; past 2**20
table entries, ``mask_bases`` is read at each scout's mask column instead.
Both stepping paths report an uncovered environment with the same
:meth:`_Compiled.no_rule` message.

Hitting times, first meetings, meeting gaps and :func:`run_batch` read one
source, :meth:`VectorSim.blocks`, with one loop each, and so do the return
samples and ray-width pilots of :mod:`.analysis`, on a reduced kernel
written as a protocol of wildcard rules.  A :class:`VectorSim` holds the
active replicas of a replica range and hands out the grid keys and states
of a block of steps as step-major (steps, replicas, scouts) arrays; between
blocks, a loop drops the replicas it has finished with, as soon as there is
one.  Protocols whose scouts all walk i.i.d. draw each scout's block from
its one row and cumulate the moves, in :meth:`VectorSim._iid_keys`: a
block after step t0 is min(cap - t0, max(1, V // R)) steps for R active
replicas and a budget of V = 2**14 variates per scout, so blocks start
short while most replicas run and grow as they finish.  B * R never
exceeds max(V, R), so the uniforms, branches, moves and keys of every
block are written into one set of buffers that the :class:`VectorSim`
makes at its first i.i.d. block, and a block is valid only until the next
one.  All other protocols step by the active count.  A lone active
replica takes blocks of min(1024, cap - t0) steps of :func:`_kernel`; two
or more draw a block's uniforms with one ``streams.uniforms`` call and take
one :meth:`VectorSim.step` per step, in blocks of min(32, cap - t0,
max(1, t0)) steps after step t0, by :func:`_stepped_block`.  Every draw is
keyed by its absolute step, so neither the path nor the partition changes a
value: each event equals a loop of single steps bit for bit, meeting gaps
in its (time, replica) order.  These measurements never materialize traces,
so caps of 2**24 steps run in bounded memory.

Every path carries each grid point as one int64 key of its offset (x, y)
from the origin: k = x for d = 1 and k = x * 2**32 + y for d = 2.  A move
adds its own key, scouts share a point exactly when their keys are equal,
and keys sort like the offsets in ``np.unique(axis=0)`` order.  A run whose
cap (or horizon) steps could take an offset to 2**31 for d = 2, or to 2**63
for d = 1, raises :class:`PreconditionError` before it starts, whatever the
origin.  Targets farther than the cap from the origin can never be hit and
are dropped; the rest are packed as offsets.  :func:`_positions` turns keys
into (..., scouts, d) positions and raises :class:`PositionOverflowError`
for one outside int64.
Hitting compares a block's keys with each distinct target key when there
are at most ``_FEW_TARGETS`` of them (4); with more, it looks every key up
with one ``searchsorted`` among the sorted target keys: per step
O(replicas * scouts * log targets), not a compare against every target.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from . import streams
from .errors import BudgetExceededError, PreconditionError
from .protocol import (ProtocolError, ProtocolValidationError, ScoutProtocol, protocol_hash,
                       validate)
from .tails import CensoredSummary, SurvivalCurve, summarize_censored

DEFAULT_CAP = 1 << 20
_MEMORY_LIMIT_BYTES = 1 << 28
# variates per scout in one iid block of VectorSim.blocks (see _iid_block):
# however many replicas are active, a block's per-scout arrays (uniforms,
# branches, moves, keys) stay near 128 KiB, in buffers reused for every
# block, and its Philox passes run in the streams workspace
_IID_VARIATES = 1 << 14
# most steps per block stepped one at a time (see _stepped_block); blocks
# double up to it, so replicas that finish early run no whole window
_HIT_WINDOW = 32
# most distinct target keys that _find_targets compares one at a time: a
# compare per target costs about 1 ns a key and a searchsorted 4-8 ns, so
# they break even near 4 targets on a 3000-key stepped block, and on a
# 16,000-key i.i.d. block 4 targets take 36 us against 140 us
_FEW_TARGETS = 4
# replicas per VectorSim of hit_times and first_meeting_times (see hit_times)
_REPLICA_CHUNK = 8192
# d = 2 grid keys are exact while |coordinate| < _KEY_HALF (see _pack)
_KEY_HALF = 1 << 31
_KEY_LOW = (1 << 32) - 1
_INT64_LIMIT = 1 << 63
# most entries of VectorSim's dense dispatch table (see _Compiled._dense_table)
_DENSE_LIMIT = 1 << 20
# steps per block of a lone replica on the scalar kernel (see VectorSim._kernel_keys)
_KERNEL_BLOCK = 1024
# validate codes that leave no tables to build: a rule with no outcomes, or
# a state name that is not declared.  Rows that do not sum to 1, moves
# outside the unit box and uncovered environments still compile; an
# uncovered environment fails at the step that meets it (_Compiled.no_rule)
_UNCOMPILABLE = ("empty-row", "unknown-state")


class ResourceLimitError(BudgetExceededError):
    """A materializing run would exceed the memory policy."""


class PositionOverflowError(PreconditionError, OverflowError):
    """A position of a run leaves int64."""


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus replica index; identifies one independent stream family."""

    root_seed: int
    replica: int = 0


# ---------------------------------------------------------------------------
# grid keys


def _pack(points: np.ndarray) -> np.ndarray:
    """Grid keys of int64 points (..., d): x for d = 1, x * 2**32 + y for d = 2.

    Exact, and ordered like the points lexicographically, while every
    coordinate lies inside (-2**31, 2**31).
    """
    if points.shape[-1] == 1:
        return points[..., 0].copy()
    return (points[..., 0] << 32) + points[..., 1]


def _unpack(keys: np.ndarray, d: int) -> np.ndarray:
    """Points (..., d) of grid keys; the inverse of :func:`_pack`."""
    points = np.empty(keys.shape + (d,), dtype=np.int64)
    points[..., -1] = keys
    _unpack_in_place(points)
    return points


def _unpack_in_place(points: np.ndarray) -> None:
    """Turn the keys held in ``points[..., -1]`` into the points' coordinates."""
    if points.shape[-1] == 2:
        low = points[..., 1]
        low += _KEY_HALF  # x * 2**32 + (y + 2**31), with 0 <= y + 2**31 < 2**32
        np.right_shift(low, 32, out=points[..., 0])
        low &= _KEY_LOW
        low -= _KEY_HALF


def _check_key_range(comp: "_Compiled", steps: int) -> None:
    """Raise PreconditionError unless every offset within ``steps`` steps of
    the origin has an exact grid key."""
    if comp.d not in (1, 2):
        raise PreconditionError(f"grid keys cover d = 1 and 2, not d = {comp.d}")
    bits = 31 if comp.d == 2 else 63
    if steps * comp.max_move >= 1 << bits:
        raise PreconditionError(
            f"d = {comp.d} offsets from the origin must stay below 2**{bits} in absolute "
            f"value; {steps} steps of up to {comp.max_move} reach {steps * comp.max_move}")


def _positions(comp: "_Compiled", points: np.ndarray) -> np.ndarray:
    """Turn the grid keys from the origin held in ``points[..., -1]`` into
    positions in place, and return ``points``: unpacked, checked to stay
    inside int64, and moved by the origin."""
    _unpack_in_place(points)
    axes = tuple(range(points.ndim - 1))
    origin = comp.protocol.initial_position
    if not all(-_INT64_LIMIT <= x0 + lo and x0 + hi < _INT64_LIMIT for x0, lo, hi in zip(
            origin, points.min(axis=axes, initial=0).tolist(),
            points.max(axis=axes, initial=0).tolist())):
        raise PositionOverflowError(f"a position leaves int64 (origin {origin})")
    points += comp.origin
    return points


def _check_cap(cap: int) -> None:
    """Raise PreconditionError unless cap >= 0 and its censor marker fits int64."""
    if not 0 <= cap < _INT64_LIMIT - 1:
        raise PreconditionError(f"cap must be in [0, 2**63 - 1), so that the censor "
                                f"marker cap + 1 fits int64; got {cap}")


# ---------------------------------------------------------------------------
# compiled protocol


class _Compiled:
    """Dispatch tables of a protocol, shared by scalar and vector stepping."""

    def __init__(self, p: ScoutProtocol):
        bad = [v for v in validate(p) if v.code in _UNCOMPILABLE]
        if bad:
            raise ProtocolValidationError(bad)
        self.protocol = p
        self.d = p.dim
        self.c = p.scouts
        names = p.state_names
        self.n_states = len(names)
        if self.n_states > 63:
            raise ProtocolError("more than 63 states not supported")
        self.state_index = {n: i for i, n in enumerate(names)}

        self.wildcard_row = np.full(self.n_states, -1, dtype=np.int32)
        self.exact_rows: dict[tuple[int, int], int] = {}
        for row_idx, rule in enumerate(p.rules):
            si = self.state_index[rule.state]
            if rule.pattern.is_wildcard:
                self.wildcard_row[si] = row_idx
            else:  # the OR of the pattern's state bits
                mask = sum({1 << self.state_index[s] for s in rule.pattern.states})
                self.exact_rows[(si, mask)] = row_idx
        outcomes = [rule.outcomes for rule in p.rules]
        self.table = streams.Categorical([[o.probability for o in r] for r in outcomes])
        self.row_state = self.table.pad(
            [[self.state_index[o.state] for o in r] for r in outcomes], np.int64)
        self.row_move = self.table.pad([[o.move for o in r] for r in outcomes], np.int8)
        self.row_key = _pack(self.row_move.astype(np.int64))
        # VectorSim's tables, indexed by row * row_width + branch
        self.row_width = self.row_state.shape[1]
        self.flat_state = self.row_state.reshape(-1)
        self.flat_key = self.row_key.reshape(-1)
        # column j of the partial sums at index row * row_width, for every
        # column but the last, which is 2.0 in every row
        flat_cum = self.table.cum.reshape(-1)
        self.cum_columns = [flat_cum[j:] for j in range(self.row_width - 1)]
        self.state_bit = np.int64(1) << np.arange(self.n_states, dtype=np.int64)
        # widened first: abs of the int8 move -128 wraps to -128
        self.max_move = int(np.abs(self.row_move.astype(np.int64)).max(initial=0))

        self.env_free = not self.exact_rows
        # the rule table: each state's base (row * row_width, or -1 with no
        # rule) per exact rule's sorted mask, and last in mask -1 for the rest
        self.exact_masks = np.array(sorted({m for _, m in self.exact_rows}), dtype=np.int64)
        rows = np.array([[self.dispatch_row(q, m) for m in self.exact_masks.tolist() + [-1]]
                         for q in range(self.n_states)], dtype=np.int64)
        self.mask_bases = np.where(rows < 0, -1, rows * self.row_width)
        self.dense, self.weights = self._dense_table()

        self.init_state_idx = np.array(
            [self.state_index[s] for s in p.initial_states], dtype=np.int64)
        self.origin = np.array(p.initial_position, dtype=np.int64)

        # a scout whose initial state is environment-free and self-absorbing
        # performs an i.i.d. walk; protocols where every scout does qualify
        # for block simulation
        self.iid_single = self.env_free and all(
            row >= 0 and (self.row_state[row, :self.table.length[row]] == si).all()
            for row, si in zip(self.wildcard_row[self.init_state_idx].tolist(),
                               self.init_state_idx.tolist()))

        # the scalar kernel's rows by mask << 6 | state; filled on first use
        # by kernel_row
        self.kernel_rows: dict[int, tuple] = {}

    def _dense_table(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """VectorSim's dispatch table and the weights of its index.

        A scout's index has one base-(n + 1) digit per other scout, in
        scout order, and its own state's digit above them: digit s + 1 for
        a scout in state s, and 0 for an other scout not at its point (no
        digits for an environment-free protocol).  Entry k of the table is
        the rule table's (``mask_bases``) for the own state and the others'
        mask.  ``weights[i, j]`` is the place value of scout j's digit in
        scout i's index.  Past _DENSE_LIMIT entries the table is None and
        :meth:`VectorSim._bases` reads ``mask_bases`` at each mask instead.
        """
        n, c = self.n_states, self.c
        others = 0 if self.env_free else c - 1
        span = (n + 1) ** others
        if span * (n + 1) > _DENSE_LIMIT:
            return None, None
        # scout j is the (j - [j > i])-th other scout of scout i
        i, j = np.indices((c, c))
        weights = np.where(i == j, span, (n + 1) ** (j - (j > i)) if others else 0)
        # the environment mask of each value of the others' digits
        digit_bit = np.concatenate([[0], self.state_bit])
        masks = np.zeros(span, dtype=np.int64)
        rest = np.arange(span, dtype=np.int64)
        for _ in range(others):
            rest, digit = np.divmod(rest, n + 1)
            masks |= digit_bit.take(digit)
        table = np.full((n + 1, span), -1, dtype=np.int32)
        table[1:] = self.mask_bases[:, self.mask_columns(masks)]
        return table.reshape(-1), weights

    def mask_columns(self, masks: np.ndarray) -> np.ndarray:
        """Column of each environment mask in ``mask_bases``: its exact
        rules' column, or the last one for a mask no exact rule has."""
        col = self.exact_masks.searchsorted(masks)
        # the -1 never equals a mask, and stands in for a column past the end
        found = np.append(self.exact_masks, -1).take(col) == masks
        return np.where(found, col, self.exact_masks.size)

    def dispatch_row(self, state_idx: int, mask: int) -> int:
        row = self.exact_rows.get((state_idx, mask), -1)
        if row < 0:
            row = int(self.wildcard_row[state_idx])
        return row

    def no_rule(self, state_idx: int, mask: int) -> ProtocolError:
        """The error for a state in an environment that no rule covers."""
        names = self.protocol.state_names
        env = sorted(names[j] for j in range(self.n_states) if mask >> j & 1)
        return ProtocolError(f"no matching rule for state {names[state_idx]!r} "
                             f"with environment {env}")

    def kernel_row(self, state_idx: int, mask: int) -> tuple:
        """Cache and return the kernel row of a state in an environment: the
        cumulative list and each branch's successor state and move key."""
        row = self.dispatch_row(state_idx, mask)
        if row < 0:
            raise self.no_rule(state_idx, mask)
        k = int(self.table.length[row])
        entry = (self.table.lists[row], self.row_state[row, :k].tolist(),
                 self.row_key[row, :k].tolist())
        self.kernel_rows[mask << 6 | state_idx] = entry
        return entry


@lru_cache(maxsize=128)
def _compile(p: ScoutProtocol) -> _Compiled:
    return _Compiled(p)


# ---------------------------------------------------------------------------
# scalar stepping


def _kernel(comp: _Compiled, seed: SeedSpec, keys: list[int], states: list[int],
            t: int, n: int) -> tuple[list[int], list[int]]:
    """Advance one replica n steps from time t on plain Python ints.

    ``keys`` and ``states`` hold each scout's grid key relative to the origin
    (see :func:`_pack`) and state index at time t.  Returns the keys and
    states after each step, flat: entry b * c + i is scout i at time
    t + b + 1.  A step with an uncovered environment raises
    :class:`ProtocolError`.
    """
    c = comp.c
    rows = comp.kernel_rows
    pairs = [] if comp.env_free else list(combinations(range(c), 2))
    # one list of floats per scout, read a step at a time through zip, so the
    # block holds c lists rather than one list per step
    u = streams.uniforms(seed.root_seed, seed.replica, np.arange(c, dtype=np.int64)[:, None],
                         np.arange(t, t + n, dtype=np.uint64)).tolist()
    out_keys: list[int] = []
    out_states: list[int] = []
    for ub in zip(*u):
        # bit s of masks[i]: some other scout at i's point is in state s
        masks = [0] * c
        for i, j in pairs:
            if keys[i] == keys[j]:
                masks[i] |= 1 << states[j]
                masks[j] |= 1 << states[i]
        new_keys = []
        new_states = []
        for key, s, mask, x in zip(keys, states, masks, ub):
            entry = rows.get(mask << 6 | s)
            if entry is None:
                entry = comp.kernel_row(s, mask)
            cum, succ, move = entry
            b = bisect_right(cum, x)  # the branch of Categorical.select
            new_keys.append(key + move[b])
            new_states.append(succ[b])
        keys, states = new_keys, new_states
        out_keys += keys
        out_states += states
    return out_keys, out_states


# ---------------------------------------------------------------------------
# traces


@dataclass
class Trace:
    """Time-indexed joint positions and states from one seeded run."""

    protocol: ScoutProtocol
    seed: SeedSpec
    positions: np.ndarray  # (horizon+1, c, d) int64
    state_idx: np.ndarray  # (horizon+1, c) int16

    @property
    def horizon(self) -> int:
        return self.positions.shape[0] - 1


def run(p: ScoutProtocol, horizon: int, seed: SeedSpec) -> Trace:
    """Materialized trace of length horizon+1; identical for identical inputs.

    A one-replica :func:`run_batch`, with its checks: its memory policy, the
    root seed and the replica counter at every horizon, and a position
    outside int64 raising :class:`PositionOverflowError` from any origin.
    """
    positions, state_idx = run_batch(p, horizon, seed.root_seed, 1, seed.replica)
    return Trace(p, seed, positions[0], state_idx[0])


# ---------------------------------------------------------------------------
# vectorized replica simulation


def _iid_block(t0: int, cap: int, active: int) -> int:
    """Steps of the iid block after step t0: the variate budget over the
    active replicas, at least one and at most up to the cap."""
    return min(cap - t0, max(1, _IID_VARIATES // active))


def _stepped_block(t0: int, cap: int) -> int:
    """Steps of a block stepped one at a time after step t0: doubling from
    one up to _HIT_WINDOW, and at most up to the cap."""
    return min(_HIT_WINDOW, cap - t0, max(1, t0))


class VectorSim:
    """The active replicas of a replica range, advanced in lockstep.

    :meth:`blocks` advances them a block of steps at a time, and
    :meth:`drop` stops the ones a caller has finished with; the remaining
    rows keep their absolute replica indices.  Every variate is keyed by
    its absolute (replica, scout, step) counter, so neither the block
    lengths nor when (or whether) replicas are dropped changes a
    trajectory.  :meth:`step` advances one step on given variates.  The
    replica count, the root seed and the replica range are checked on
    construction, so a run of no steps refuses what a draw would.

    Positions are held as grid keys (replicas, scouts) of the offsets from
    the origin, all 0 at step 0; :meth:`blocks` checks that its cap keeps
    them exact before it starts.  States are int64 indices into the
    compiled protocol's flat tables (see the module docstring).
    """

    def __init__(self, p: ScoutProtocol, n_replicas: int, root_seed: int,
                 replica_start: int = 0):
        comp = _compile(p)
        _check_key_range(comp, 0)
        if n_replicas < 0:
            raise PreconditionError(f"replicas must be >= 0, got {n_replicas}")
        self.comp = comp
        self.root_seed = root_seed
        self.replicas = np.arange(replica_start, replica_start + n_replicas, dtype=np.int64)
        streams.check_counters(root_seed, self.replicas)
        self.keys = np.zeros((n_replicas, comp.c), dtype=np.int64)
        self.states = np.tile(comp.init_state_idx, (n_replicas, 1))
        self.time = 0
        self._scouts = np.arange(comp.c, dtype=np.int64)
        self._off_diagonal = ~np.eye(comp.c, dtype=bool)
        # the columns (i, j) of every scout pair, all i before all j, so
        # that one gather of the keys holds both sides of each compare
        self._pairs = np.concatenate([np.repeat(self._scouts, comp.c),
                                      np.tile(self._scouts, comp.c)])
        self._iid_buffers: tuple[np.ndarray, ...] | None = None

    @property
    def n_active(self) -> int:
        return self.replicas.size

    @property
    def positions(self) -> np.ndarray:
        """Positions (replicas, scouts, d) of the keys, by :func:`_positions`."""
        points = np.empty(self.keys.shape + (self.comp.d,), dtype=np.int64)
        points[..., -1] = self.keys
        return _positions(self.comp, points)

    def compact(self, keep: np.ndarray) -> None:
        self.replicas = self.replicas[keep]
        self.keys = self.keys[keep]
        self.states = self.states[keep]

    def drop(self, done: np.ndarray) -> None:
        """Stop the active replicas marked ``done``, if there are any."""
        if done.any():
            self.compact(~done)

    def _co_located(self) -> np.ndarray:
        """co[r, i, j]: scouts i and j of row r share a point (i == j too)."""
        c = self.comp.c
        sides = self.keys[:, self._pairs]
        return (sides[:, :c * c] == sides[:, c * c:]).reshape(-1, c, c)

    def _masks(self) -> np.ndarray:
        """Environment masks (replicas, scouts): bit s of masks[r, i] is set
        when some other scout at i's point is in state s."""
        comp = self.comp
        if comp.env_free:
            return np.zeros(self.states.shape, dtype=np.int64)
        co = self._co_located() & self._off_diagonal
        bits = comp.state_bit.take(self.states)
        return np.bitwise_or.reduce(np.where(co, bits[:, None, :], 0), axis=2)

    def _bases(self) -> np.ndarray:
        """row * row_width of each active scout's rule row, or -1 where no
        rule covers its environment: the dense table's entry at the index
        of :meth:`_Compiled._dense_table`, or without one the rule table's
        entry at the column of each scout's mask."""
        comp = self.comp
        if comp.dense is None:
            return comp.mask_bases[self.states, comp.mask_columns(self._masks())]
        digits = self.states + 1
        return comp.dense.take(np.matmul(self._co_located() * comp.weights,
                                         digits[:, :, None])[..., 0])

    def step(self, u: np.ndarray, keys: np.ndarray | None = None,
             states: np.ndarray | None = None) -> None:
        """Advance one step on ``u`` (replicas, scouts), the variates of step
        ``time`` of the active replicas.  The new keys and states are
        written to ``keys`` and ``states`` when given, arrays of their
        shape, and held from there."""
        comp = self.comp
        self.time += 1
        if self.replicas.size == 0:
            return
        base = self._bases()
        if base.min() < 0:
            r, i = np.argwhere(base < 0)[0]
            raise comp.no_rule(int(self.states[r, i]), int(self._masks()[r, i]))
        # the branch is the count of the row's partial sums <= u, as in
        # Categorical.select
        flat = base
        for column in comp.cum_columns:
            flat = flat + (u >= column.take(base))
        # flat is in range, so no index is clipped; unlike the default
        # mode, "clip" writes to ``out`` without a buffer
        self.states = comp.flat_state.take(flat, out=states, mode="clip")
        self.keys = np.add(self.keys, comp.flat_key.take(flat), out=keys)

    def _iid_keys(self, cap: int) -> np.ndarray:
        """Advance i.i.d. walks by the block after step ``time`` and return
        its keys (B, R, c): each scout draws every step's branch from its one
        row and cumulates the moves.  Every block is written into the same
        buffers, remade only when a block needs more: one scout's uniforms,
        branches and moves, the keys of every scout and the next base keys."""
        comp, R, t0 = self.comp, self.replicas.size, self.time
        B = _iid_block(t0, cap, R)
        # B * R of this block and of every later one up to this cap is at
        # most this size: R and cap - t0 only fall
        size = min(max(_IID_VARIATES, R), (cap - t0) * R)
        if self._iid_buffers is None or self._iid_buffers[0].size < size:
            self._iid_buffers = (np.empty(size), np.empty(size, np.int64),
                                 np.empty(size, np.int64), np.empty(size * comp.c, np.int64),
                                 np.empty(R * comp.c, np.int64))
        *temps, keys, base = self._iid_buffers
        # step-major (B, R) views, so that the gather runs in order
        u, branch, move = (a[:B * R].reshape(B, R) for a in temps)
        keys = keys[:B * R * comp.c].reshape(B, R, comp.c)
        steps = np.arange(t0, t0 + B, dtype=np.int64)[:, None]
        for i, row in enumerate(comp.wildcard_row[comp.init_state_idx]):
            streams.uniforms(self.root_seed, self.replicas, i, steps, out=u)
            comp.table.select(row, u, out=branch)
            # branch is in range, so no index is clipped
            np.take(comp.row_key[row], branch, out=move, mode="clip")
            move[0] += self.keys[:, i]
            np.cumsum(move, axis=0, out=keys[:, :, i])
        # the next block's base, out of the block buffer it overwrites
        self.keys = base[:R * comp.c].reshape(R, comp.c)
        np.copyto(self.keys, keys[-1])
        self.time = t0 + B
        return keys

    def _kernel_keys(self, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """Advance the one active replica by the block after step ``time``,
        min(_KERNEL_BLOCK, cap - time) steps of :func:`_kernel`, and return
        its keys and states (B, 1, c)."""
        t0, c = self.time, self.comp.c
        B = min(_KERNEL_BLOCK, cap - t0)
        keys, states = _kernel(self.comp, SeedSpec(self.root_seed, int(self.replicas[0])),
                               self.keys[0].tolist(), self.states[0].tolist(), t0, B)
        keys = np.array(keys, dtype=np.int64).reshape(B, 1, c)
        states = np.array(states, dtype=np.int64).reshape(B, 1, c)
        self.keys, self.states, self.time = keys[-1].copy(), states[-1].copy(), t0 + B
        return keys, states

    def blocks(self, cap: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Advance the active replicas to step ``cap``, a block at a time.

        Yields ``(t0, keys, states)``: the grid keys and state indices
        (B, R, c) of steps t0+1 .. t0+B for the R active replicas,
        step-major, until the cap or until no replica is left.  An i.i.d.
        walk never changes state, so there ``states`` is one (1, R, c) view
        that broadcasts over the block.  Other protocols step a lone active
        replica on :func:`_kernel` and two or more on :meth:`step`.  The
        block rules are in the module docstring.  The key range and the cap
        are checked on the call.

        A yielded block is valid only until the iteration resumes: the
        i.i.d. path writes every block into the same buffers, so a caller
        that keeps a block, or part of one, past that must copy it.
        """
        _check_key_range(self.comp, cap)
        _check_cap(cap)
        return self._blocks(cap)

    def _blocks(self, cap: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        comp = self.comp
        while self.replicas.size and self.time < cap:
            t0 = self.time
            if comp.iid_single:
                keys, states = self._iid_keys(cap), self.states[None]
            elif self.replicas.size == 1:
                keys, states = self._kernel_keys(cap)
            else:
                B = _stepped_block(t0, cap)
                u = streams.uniforms(self.root_seed, self.replicas[None, :, None],
                                     self._scouts[None, None, :],
                                     np.arange(t0, t0 + B, dtype=np.int64)[:, None, None])
                keys = np.empty((B,) + self.keys.shape, dtype=np.int64)
                states = np.empty_like(keys)
                for b in range(B):
                    self.step(u[b], keys[b], states[b])
            yield t0, keys, states


def run_batch(p: ScoutProtocol, horizon: int, root_seed: int, replicas: int,
              replica_start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Positions (R, horizon+1, c, d) and state indices (R, horizon+1, c).

    The one trace path: :func:`run` is this with R = 1, so stacking
    :func:`run` over replicas gives the same arrays.  The traces come from
    :meth:`VectorSim.blocks`.  Traces past _MEMORY_LIMIT_BYTES raise
    :class:`ResourceLimitError`, a horizon past the key range (see the
    module docstring) PreconditionError, and a position outside int64
    :class:`PositionOverflowError`.
    """
    if horizon < 0:
        raise PreconditionError(f"horizon must be >= 0, got {horizon}")
    comp = _compile(p)
    footprint = replicas * (horizon + 1) * comp.c * (8 * comp.d + 2)
    if footprint > _MEMORY_LIMIT_BYTES:
        raise ResourceLimitError(
            f"{replicas} trace(s) of {horizon + 1} steps need ~{footprint >> 20} MiB, over "
            f"the {_MEMORY_LIMIT_BYTES >> 20} MiB limit; hit_times and first_meeting_times "
            "stream without a trace")
    sim = VectorSim(p, replicas, root_seed, replica_start)
    blocks = sim.blocks(horizon)
    positions = np.empty((replicas, horizon + 1, comp.c, comp.d), dtype=np.int64)
    keys_out = positions[..., -1]  # keys from the origin until _positions
    state_idx = np.empty((replicas, horizon + 1, comp.c), dtype=np.int16)
    keys_out[:, 0] = sim.keys
    state_idx[:, 0] = sim.states
    for t0, keys, states in blocks:
        steps = slice(t0 + 1, t0 + 1 + len(keys))
        keys_out[:, steps] = keys.swapaxes(0, 1)
        state_idx[:, steps] = states.swapaxes(0, 1)
    return _positions(comp, positions), state_idx


# ---------------------------------------------------------------------------
# stopping times: one block loop per event


def _in_chunks(work, replicas: int, threads: int, root_seed: int,
               empty: np.ndarray) -> np.ndarray:
    """``work(start, n)`` over consecutive chunks of the replicas, concatenated;
    the root seed and last replica counter are checked even for no replicas."""
    if replicas < 0 or threads < 1:
        raise PreconditionError(f"need replicas >= 0, threads >= 1; got "
                                f"replicas={replicas}, threads={threads}")
    streams.check_counters(root_seed, max(replicas - 1, 0))
    ranges = [(s, min(_REPLICA_CHUNK, replicas - s)) for s in range(0, replicas, _REPLICA_CHUNK)]
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda r: work(*r), ranges))
    else:
        parts = [work(*r) for r in ranges]
    return np.concatenate(parts) if parts else empty


# hitting times


def _target_keys(comp: _Compiled, targets: np.ndarray,
                 cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys of the targets within reach of the cap, and each
    target's column among them (the number of keys for a target out of
    reach).

    A target farther from the origin than cap steps of the longest move can
    never be hit, so it is dropped before packing, where it could alias a
    reachable point; the others are packed as offsets from the origin, taken
    in Python ints.  The caller has checked the key range for the cap.
    """
    span = cap * comp.max_move
    offsets = [[x - x0 for x, x0 in zip(t, comp.protocol.initial_position)]
               for t in targets.tolist()]
    near = np.array([max(map(abs, o)) <= span for o in offsets], dtype=bool)
    reach = np.array([o for o, ok in zip(offsets, near) if ok], dtype=np.int64)
    keys, inverse = np.unique(_pack(reach.reshape(-1, comp.d)), return_inverse=True)
    columns = np.full(len(offsets), keys.size, dtype=np.int64)
    columns[near] = inverse.reshape(-1)
    return keys, columns


def _find_targets(tkeys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the keys equal to a target key, and those targets' columns.

    Up to _FEW_TARGETS target keys, one compare of the block per target;
    past it, one ``searchsorted`` of every key among the sorted targets.
    """
    flat = keys.reshape(-1)
    if tkeys.size <= _FEW_TARGETS:
        hits = [np.flatnonzero(flat == key) for key in tkeys]
        return (np.concatenate(hits) if hits else np.zeros(0, np.intp),
                np.repeat(np.arange(tkeys.size), [h.size for h in hits]))
    j = tkeys.searchsorted(flat)
    # j = tkeys.size (a key past every target) clips to the last target,
    # which it does not equal
    i = np.flatnonzero(tkeys.take(j, mode="clip") == flat)
    return i, j[i]


def _hit_times_chunk(p: ScoutProtocol, targets: np.ndarray, start: int, n: int,
                     cap: int, root_seed: int) -> np.ndarray:
    sim = VectorSim(p, n, root_seed, start)
    blocks = sim.blocks(cap)
    tkeys, columns = _target_keys(sim.comp, targets, cap)
    T = tkeys.size
    # a column per distinct target key, and a last one, never hit, for the
    # targets out of reach
    out = np.full((n, T + 1), cap + 1, dtype=np.int64)
    out[:, :T][:, tkeys == 0] = 0  # the origin, hit at time 0
    sim.drop((out[:, :T] <= cap).all(axis=1))
    for t0, keys, _ in blocks:
        rows = sim.replicas - start
        i, col = _find_targets(tkeys, keys)
        b, k = np.divmod(i, keys[0].size)
        np.minimum.at(out.reshape(-1), rows[k // sim.comp.c] * (T + 1) + col, t0 + 1 + b)
        sim.drop((out[rows, :T] <= cap).all(axis=1))
    return out[:, columns]


def hit_times(p: ScoutProtocol, targets: Sequence[Sequence[int]], replicas: int,
              cap: int, root_seed: int, threads: int = 1) -> np.ndarray:
    """First-passage times (replicas, n_targets); cap+1 marks censored.

    Streaming: no trace is stored.  Trajectories depend only on
    (protocol, replica, root_seed), so neither the target set, the replica
    chunks nor the thread count changes the array.  Threads run whole
    chunks of 8192 replicas, so they start only above 8192 replicas: on 2
    cores, smaller chunks cost more than a second thread gives back.  A cap
    past the key range (see the module docstring) raises PreconditionError.
    """
    comp = _compile(p)
    targets_arr = np.array([tuple(t) for t in targets], dtype=np.int64)
    if targets_arr.ndim != 2 or targets_arr.shape[1] != comp.d:
        raise ValueError("targets must be points of the protocol dimension")
    return _in_chunks(lambda start, n: _hit_times_chunk(p, targets_arr, start, n, cap, root_seed),
                      replicas, threads, root_seed, np.zeros((0, len(targets)), np.int64))


@dataclass
class HittingSummary:
    """Monte-Carlo hitting estimate for one target."""

    target: tuple[int, ...]
    summary: CensoredSummary
    protocol_hash: str
    cap_is_default: bool = False

    @property
    def curve(self) -> SurvivalCurve:
        return self.summary.curve

    def to_json(self) -> dict:
        body = self.summary.to_json()
        body["target"] = list(self.target)
        body["protocol_hash"] = self.protocol_hash
        body["cap_policy"] = "default" if self.cap_is_default else "user"
        return body


def monte_carlo_hitting_multi(p: ScoutProtocol, targets: Sequence[Sequence[int]],
                              replicas: int, cap: int | None = None,
                              root_seed: int = 0, threads: int = 1) -> list[HittingSummary]:
    """Per-target summaries sharing one set of simulated replicas."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    cap_default = cap is None
    if cap is None:
        cap = DEFAULT_CAP
    times = hit_times(p, targets, replicas, cap, root_seed, threads=threads)
    phash = protocol_hash(p)
    out = []
    for k, tgt in enumerate(targets):
        label = "hitting:" + ",".join(str(int(v)) for v in tgt)
        summ = summarize_censored(label, times[:, k], cap, root_seed)
        out.append(HittingSummary(tuple(int(v) for v in tgt), summ, phash, cap_default))
    return out


# ---------------------------------------------------------------------------
# meetings (two-scout protocols)


def first_meeting_times(p: ScoutProtocol, replicas: int, cap: int, root_seed: int,
                        threads: int = 1) -> np.ndarray:
    """First n >= 1 with both scouts co-located, per replica; cap+1 censored.
    Threads run whole chunks of 8192 replicas, as in :func:`hit_times`."""
    if _compile(p).c != 2:
        raise ValueError("first_meeting_times needs a two-scout protocol")
    return _in_chunks(lambda start, n: _first_meeting_chunk(p, start, n, cap, root_seed),
                      replicas, threads, root_seed, np.zeros(0, np.int64))


def _first_meeting_chunk(p: ScoutProtocol, start: int, n: int, cap: int,
                         root_seed: int) -> np.ndarray:
    sim = VectorSim(p, n, root_seed, start)
    blocks = sim.blocks(cap)
    out = np.full(n, cap + 1, dtype=np.int64)
    for t0, keys, _ in blocks:
        met = keys[..., 0] == keys[..., 1]
        has = met.any(axis=0)
        out[sim.replicas[has] - start] = t0 + 1 + met[:, has].argmax(axis=0)
        sim.drop(has)
    return out


def meeting_gap_samples(p: ScoutProtocol, replicas: int, cap: int, root_seed: int,
                        k_min: int = 1, k_max: int = 64) -> np.ndarray:
    """Inter-meeting gaps N_k - N_{k-1} pooled over replicas, k_min <= k <= k_max.

    Raising k_min discards the burn-in gaps tied to the fixed initial state
    pair; the remaining gaps are pooled across the k range, in order of
    meeting time and then replica.
    """
    if _compile(p).c != 2:
        raise ValueError("meeting gaps need a two-scout protocol")
    if not 1 <= k_min <= k_max:
        raise ValueError("need 1 <= k_min <= k_max")
    sim = VectorSim(p, replicas, root_seed)
    blocks = sim.blocks(cap)
    last = np.zeros(replicas, dtype=np.int64)  # each replica's latest meeting
    count = np.zeros(replicas, dtype=np.int64)
    gaps: list[np.ndarray] = []
    for t0, keys, _ in blocks:
        rows = sim.replicas
        met = keys[..., 0] == keys[..., 1]
        t = t0 + 1 + np.arange(met.shape[0], dtype=np.int64)
        k = count[rows] + np.cumsum(met, axis=0)  # index of each step's meeting
        upto = np.maximum.accumulate(np.where(met, t[:, None], 0), axis=0)
        np.maximum(upto, last[rows], out=upto)  # last meeting at or before each step
        before = np.concatenate([last[rows][None], upto[:-1]])
        # nonzero on (B, R) lists meetings by time, then replica
        b, r = np.nonzero(met & (k >= k_min) & (k <= k_max))
        gaps.append(t[b] - before[b, r])
        count[rows], last[rows] = k[-1], upto[-1]
        sim.drop(k[-1] >= k_max)
    return np.concatenate(gaps) if gaps else np.zeros(0, dtype=np.int64)
