"""Shared builders: random kernels and protocols with controlled structure."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from scoutsim import streams
from scoutsim.analysis import KernelEntry, ReducedKernel
from scoutsim.errors import PreconditionError
from scoutsim.protocol import (EnvPattern, Outcome, ScoutProtocol,
                               TransitionRule)


# the stream references: the known-answer entry point of Philox-4x32-10 and
# a scalar draw, which tests compare the batched streams against


def _philox_u64(lanes, key0: int, key1: int):
    """Philox-4x32-10 on uint64 lanes holding 32-bit values, in place: all
    ten rounds at full size, all four output words.

    ``lanes`` holds the four counter words and two scratch lanes of the same
    shape.  Returns the four output lanes (aliases of ``lanes``).
    """
    x0, x1, x2, x3, a, b = lanes
    m0 = np.uint64(streams._M0)
    m1 = np.uint64(streams._M1)
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    k0 = key0 & 0xFFFFFFFF
    k1 = key1 & 0xFFFFFFFF
    for _ in range(streams._ROUNDS):
        np.multiply(x0, m0, out=a)          # a = M0 * c0
        np.multiply(x2, m1, out=b)          # b = M1 * c2
        np.right_shift(a, s32, out=x0)      # x0 = hi0
        a &= lo32                           # a  = lo0
        np.right_shift(b, s32, out=x2)      # x2 = hi1
        b &= lo32                           # b  = lo1
        x2 ^= x1
        x2 ^= np.uint64(k0)                 # x2 = new c0
        x0 ^= x3
        x0 ^= np.uint64(k1)                 # x0 = new c2
        x0, x1, x2, x3, a, b = x2, b, x0, a, x1, x3
        k0 = (k0 + streams._W0) & 0xFFFFFFFF
        k1 = (k1 + streams._W1) & 0xFFFFFFFF
    return x0, x1, x2, x3


def philox4x32(c0, c1, c2, c3, k0, k1):
    """One Philox-4x32-10 block: four uint32 counter words -> four uint32 words."""
    shape = np.broadcast(np.asarray(c0), np.asarray(c1),
                         np.asarray(c2), np.asarray(c3)).shape
    lanes = [np.empty(shape, dtype=np.uint64) for _ in range(6)]
    for lane, c in zip(lanes, (c0, c1, c2, c3)):
        lane[...] = np.asarray(c, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
    w = _philox_u64(lanes, int(k0), int(k1))
    return tuple(x.astype(np.uint32) for x in w)


def uniform_scalar(root_seed: int, replica: int, scout: int, step: int) -> float:
    """Single stream value; exact scalar equivalent of :func:`streams.uniforms`."""
    return float(streams.uniforms(root_seed, replica, scout, np.uint64(step)))


# the environment semantics, stated independently of the engine's masks: the
# reference steppers of tests/test_engine.py and the environment tests of
# tests/test_protocol.py read these


@dataclass(frozen=True)
class Configuration:
    """Joint positions and states of all scouts at one time step."""

    positions: tuple[tuple[int, ...], ...]
    states: tuple[str, ...]
    time: int = 0


def environment_of(cfg: Configuration, i: int) -> frozenset[str]:
    """States sensed by scout i (1-based): states of co-located other scouts.

    This is the set of raised bits of the binary environment vector; a state
    contributed by several co-located scouts appears once.
    """
    c = len(cfg.positions)
    if not 1 <= i <= c:
        raise ValueError(f"scout index {i} out of range 1..{c}")
    me = cfg.positions[i - 1]
    return frozenset(cfg.states[j] for j in range(c) if j != i - 1 and cfg.positions[j] == me)


def rational_probs(rng: np.random.Generator, k: int, denom: int = 16) -> list[Fraction]:
    """k positive rationals with a common small denominator, summing to 1."""
    while True:
        weights = rng.integers(1, denom, size=k)
        total = int(weights.sum())
        probs = [Fraction(int(w), total) for w in weights]
        if sum(probs) == 1:
            return probs


def random_move(rng: np.random.Generator, dim: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(-1, 2, size=dim))


def random_rational_kernel(rng: np.random.Generator, n_states: int, dim: int,
                           max_extra: int = 2) -> ReducedKernel:
    """Irreducible kernel: a covering cycle plus random extra transitions."""
    names = tuple(f"s{i}" for i in range(n_states))
    rows = []
    for q in range(n_states):
        targets = [(q + 1) % n_states]
        for _ in range(int(rng.integers(0, max_extra + 1))):
            targets.append(int(rng.integers(0, n_states)))
        probs = rational_probs(rng, len(targets))
        rows.append(tuple(
            KernelEntry(p, t, random_move(rng, dim))
            for p, t in zip(probs, targets)))
    return ReducedKernel(dim, names, tuple(rows))


def random_degenerate_kernel(rng: np.random.Generator, n_states: int,
                             dim: int, max_extra: int = 2) -> ReducedKernel:
    """Kernel whose moves follow a potential: x[q] in {0,1}^dim per state.

    Every transition q -> q' moves by x[q'] - x[q], so all cycles have zero
    net displacement by construction.
    """
    names = tuple(f"s{i}" for i in range(n_states))
    offsets = [tuple(int(v) for v in rng.integers(0, 2, size=dim))
               for _ in range(n_states)]
    rows = []
    for q in range(n_states):
        targets = [(q + 1) % n_states]
        for _ in range(int(rng.integers(0, max_extra + 1))):
            targets.append(int(rng.integers(0, n_states)))
        probs = rational_probs(rng, len(targets))
        rows.append(tuple(
            KernelEntry(p, t, tuple(b - a for a, b in zip(offsets[q], offsets[t])))
            for p, t in zip(probs, targets)))
    return ReducedKernel(dim, names, tuple(rows))


def return_nonzero_probability(k: ReducedKernel, truncate: int = 60) -> float:
    """Lower bound on P(first return to state 0 has nonzero displacement).

    Truncated forward distribution over (state, displacement); exact up to
    the mass still circulating after `truncate` steps.  Each row is
    converted to float once.
    """
    from collections import defaultdict

    rows = [[(e.to, e.move, float(e.probability)) for e in row] for row in k.rows]
    dist = {(0, (0,) * k.dim): 1.0}
    hit_nonzero = 0.0
    for _ in range(truncate):
        new: dict = defaultdict(float)
        for (q, disp), w in dist.items():
            for to, move, prob in rows[q]:
                nd = tuple(a + m for a, m in zip(disp, move))
                p = w * prob
                if to == 0:
                    if any(nd):
                        hit_nonzero += p
                else:
                    new[(to, nd)] += p
        dist = new
        if not dist:
            break
    return hit_nonzero


def random_two_scout_protocol(rng: np.random.Generator, dim: int) -> ScoutProtocol:
    """Random valid two-scout protocol with some co-location-sensitive rules."""
    n1 = int(rng.integers(1, 3))
    n2 = int(rng.integers(1, 3))
    names = tuple(f"a{i}" for i in range(n1)) + tuple(f"b{i}" for i in range(n2))
    groups = [list(names[:n1]), list(names[n1:])]
    rules = []
    for gi, group in enumerate(groups):
        for s in group:
            k = int(rng.integers(1, 3))
            probs = rational_probs(rng, k)
            outs = tuple(
                Outcome(p, group[int(rng.integers(0, len(group)))], random_move(rng, dim))
                for p in probs)
            rules.append(TransitionRule(s, EnvPattern.wildcard(), outs))
            other = groups[1 - gi]
            if rng.random() < 0.5:
                sensed = other[int(rng.integers(0, len(other)))]
                probs = rational_probs(rng, k)
                outs = tuple(
                    Outcome(p, group[int(rng.integers(0, len(group)))],
                            random_move(rng, dim))
                    for p in probs)
                rules.append(TransitionRule(s, EnvPattern.exact([sensed]), outs))
    return ScoutProtocol(
        dim=dim, scouts=2, state_names=names,
        initial_position=(0,) * dim,
        initial_states=(groups[0][0], groups[1][0]),
        rules=tuple(rules),
    )


def product_kernel(k1: ReducedKernel, k2: ReducedKernel,
                   difference: bool = False) -> ReducedKernel:
    """Kernel of two independent scouts run jointly, by joint state q1 * n2 + q2.

    Moves are concatenated, or reduced to scout1 - scout2 per axis when
    ``difference`` is set (the chain of the difference walk).  The
    full-product reference for ``analysis.difference_drift``, which walks
    the product without building it.
    """
    if k1.dim != k2.dim:
        raise ValueError("kernels must share a dimension")
    n2 = k2.n_states
    names = tuple(f"{a}|{b}" for a in k1.states for b in k2.states)
    rows = tuple(tuple(KernelEntry(e1.probability * e2.probability, e1.to * n2 + e2.to,
                                   tuple(a - b for a, b in zip(e1.move, e2.move))
                                   if difference else e1.move + e2.move)
                       for e1 in row1 for e2 in row2)
                 for row1 in k1.rows for row2 in k2.rows)
    dim = k1.dim if difference else k1.dim + k2.dim
    return ReducedKernel(dim, names, rows, initial_state=k1.initial_state * n2 + k2.initial_state)


# the single-path walk sampler: the corridor tests' reference for the
# stopping-time sampler, walks._stopping_times


@dataclass
class WalkPath:
    """One sampled trajectory: S_0..S_h, radii R_1..R_{h+1}, times T_0..T_h."""

    positions: np.ndarray
    radii: np.ndarray
    times: np.ndarray


def sample_walk(w, horizon: int, seed_root: int, trial: int = 0, walk_id: int = 0) -> WalkPath:
    """Deterministic single path of a ``walks.LookAroundWalk``: draw indices
    are (seed_root, trial, walk_id, step).

    Positions are int64 when s0 is integer-valued, float otherwise; integer
    positions that could leave int64 raise PreconditionError.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    zeta, nu, rad = w.law.arrays
    exact = float(w.s0).is_integer()  # a float start would round the int steps
    step = max(abs(int(o.zeta)) for o in w.law.outcomes)
    reach = (abs(int(w.s0)) if exact else 0) + (horizon + 1) * step
    if reach >= 1 << 63:
        raise PreconditionError("integer walk positions could leave int64: "
                                f"|s0| + {horizon + 1} steps * max|zeta| >= 2**63")
    s0 = int(w.s0) if exact else float(w.s0)
    b = w.law.table.draw(0, seed_root, trial, walk_id, 0, horizon + 1)
    S = np.empty(horizon + 1, dtype=np.int64 if exact else float)
    S[0] = s0
    if horizon:
        S[1:] = s0 + np.cumsum(zeta[b[:-1]])
    T = np.zeros(horizon + 1, dtype=np.int64)
    if horizon:
        T[1:] = np.cumsum(nu[b[:-1]])
    return WalkPath(S, rad[b], T)
