"""Property tests of the structural invariants."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scoutsim import SeedSpec, parse_protocol, run, serialize
from scoutsim.engine import first_meeting_times, hit_times, run_batch
from scoutsim.protocol import (EnvPattern, Outcome, ScoutProtocol,
                               TransitionRule)
from scoutsim.tails import SurvivalCurve, dyadic_thresholds


@st.composite
def protocols(draw):
    dim = draw(st.integers(1, 2))
    c = draw(st.integers(1, 3))
    n_states = draw(st.integers(1, 4))
    names = [f"q{i}" for i in range(n_states)]
    rules = []
    for s in names:
        k = draw(st.integers(1, 3))
        weights = [draw(st.integers(1, 8)) for _ in range(k)]
        total = sum(weights)
        outs = []
        for w in weights:
            to = names[draw(st.integers(0, n_states - 1))]
            move = tuple(draw(st.integers(-1, 1)) for _ in range(dim))
            outs.append(Outcome(Fraction(w, total), to, move))
        rules.append(TransitionRule(s, EnvPattern.wildcard(), tuple(outs)))
        if c > 1 and draw(st.booleans()):
            sensed = names[draw(st.integers(0, n_states - 1))]
            to = names[draw(st.integers(0, n_states - 1))]
            move = tuple(draw(st.integers(-1, 1)) for _ in range(dim))
            rules.append(TransitionRule(s, EnvPattern.exact([sensed]),
                                        (Outcome(Fraction(1), to, move),)))
    inits = tuple(names[draw(st.integers(0, n_states - 1))] for _ in range(c))
    return ScoutProtocol(dim=dim, scouts=c, state_names=tuple(names),
                         initial_position=(0,) * dim, initial_states=inits,
                         rules=tuple(rules))


@settings(max_examples=40, deadline=None)
@given(protocols())
def test_serialize_parse_round_trip(p):
    text = serialize(p)
    q = parse_protocol(text)
    assert serialize(q) == text
    assert q == parse_protocol(serialize(q))


@settings(max_examples=15, deadline=None)
@given(protocols(), st.integers(0, 2**32 - 1))
def test_state_relabeling_preserves_positions(p, seed):
    # reversed naming flips the lexicographic state order on purpose
    n = len(p.state_names)
    mapping = {name: f"zz{n - 1 - i}" for i, name in enumerate(p.state_names)}

    def relabel_rule(r):
        return TransitionRule(
            mapping[r.state],
            r.pattern if r.pattern.is_wildcard
            else EnvPattern.exact([mapping[s] for s in r.pattern.states]),
            tuple(Outcome(o.probability, mapping[o.state], o.move)
                  for o in r.outcomes))

    q = ScoutProtocol(
        dim=p.dim, scouts=p.scouts,
        state_names=tuple(mapping[n] for n in p.state_names),
        initial_position=p.initial_position,
        initial_states=tuple(mapping[s] for s in p.initial_states),
        rules=tuple(relabel_rule(r) for r in p.rules))
    a = run(p, 60, SeedSpec(seed))
    b = run(q, 60, SeedSpec(seed))
    assert np.array_equal(a.positions, b.positions)


@st.composite
def placed_protocols(draw):
    """A protocol of :func:`protocols` at the origin, or within a few steps
    of the key edge: +-2**31 per coordinate for d = 2, the ends of int64 for
    d = 1, where a trace can leave int64."""
    p = draw(protocols())
    edge = 2**31 if p.dim == 2 else 2**63 - 1
    origin = tuple(draw(st.sampled_from([0, 1, -1]))
                   * (edge - draw(st.integers(-3 if p.dim == 2 else 0, 3)))
                   for _ in range(p.dim))
    return dataclasses.replace(p, initial_position=origin)


def _first_times(hit: np.ndarray, horizon: int) -> np.ndarray:
    """First true index along axis 1 of (replicas, horizon + 1, ...), and
    horizon + 1 where there is none."""
    return np.where(hit.any(axis=1), hit.argmax(axis=1), horizon + 1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(placed_protocols(), st.integers(0, 2**64 - 1), st.integers(0, 4), st.integers(1, 3),
       st.integers(0, 40))
def test_paths_agree(p, seed, start, replicas, horizon):
    # run_batch against stacked run; hit_times and first_meeting_times
    # against first visits and first co-locations in run's traces
    try:
        traces = [run(p, horizon, SeedSpec(seed, start + k)) for k in range(replicas)]
    except Exception as err:
        with pytest.raises(type(err)):
            run_batch(p, horizon, seed, replicas, start)
        return
    P, S = run_batch(p, horizon, seed, replicas, start)
    assert np.array_equal(P, np.stack([tr.positions for tr in traces]))
    assert np.array_equal(S, np.stack([tr.state_idx for tr in traces]))
    # every point a scout of the first replica visits, the origin among them
    targets = np.unique(P[0].reshape(-1, p.dim), axis=0)
    hit = (P[:, :, :, None, :] == targets).all(axis=-1).any(axis=2)  # (R, H + 1, T)
    got = hit_times(p, [tuple(t) for t in targets.tolist()], start + replicas, horizon, seed)
    assert np.array_equal(got[start:], _first_times(hit, horizon))
    if p.scouts == 2:
        met = (P[:, :, 0] == P[:, :, 1]).all(axis=-1)
        met[:, 0] = False  # a first meeting is at a step n >= 1
        got = first_meeting_times(p, start + replicas, horizon, seed)
        assert np.array_equal(got[start:], _first_times(met, horizon))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300),
       st.integers(4, 16))
def test_survival_curve_from_samples_invariants(samples, log_cap):
    cap = 1 << log_cap
    curve = SurvivalCurve.from_samples(np.array(samples, dtype=np.int64), cap)
    assert np.all(np.diff(curve.survivors) <= 0)
    assert curve.survivors.max() <= curve.total
    probs = curve.probabilities()
    assert np.all((0 <= probs) & (probs <= 1))
    # censored samples survive every threshold below the cap
    n_cens = sum(1 for s in samples if s > cap)
    assert curve.survivors[-1] >= n_cens


@given(st.integers(1, 2**63 - 2))
def test_dyadic_thresholds_are_the_powers_of_two_up_to_the_cap(cap):
    # a float log2 rounded 2**53 - 1 up to 53, so the last threshold
    # exceeded the cap, and from 2**63 - 512 up it overflowed int64
    t = dyadic_thresholds(cap)
    assert t.tolist() == [1 << j for j in range(len(t))]
    assert int(t[-1]) <= cap < 2 * int(t[-1])


def test_dyadic_thresholds_near_float_rounding():
    assert dyadic_thresholds(2**53 - 1)[-1] == 2**52
    assert dyadic_thresholds(2**63 - 2)[-1] == 2**62
