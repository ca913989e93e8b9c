"""Shared builders: random kernels and protocols with controlled structure."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from scoutsim.analysis import KernelEntry, ReducedKernel
from scoutsim.protocol import (EnvPattern, Outcome, ScoutProtocol,
                               TransitionRule)


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
