"""Engine contracts: stepping semantics, determinism, hitting, meetings."""

import dataclasses
import functools
import hashlib
import itertools
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (Configuration, environment_of, random_two_scout_protocol,
                      uniform_scalar)
from scoutsim import SeedSpec, builtin, monte_carlo_hitting_multi, parse_protocol, run
from scoutsim import engine, streams
from scoutsim.errors import PreconditionError
from scoutsim.protocol import (EnvPattern, Outcome, ProtocolError, ProtocolValidationError,
                               ScoutProtocol, TransitionRule)
from scoutsim.engine import (ResourceLimitError, VectorSim, first_meeting_times, hit_times,
                             meeting_gap_samples, run_batch)
from scoutsim.renewal import extract_renewal

DET_PLUS = "dim 1\nscouts 1\nstates A\ninit 1 A\ntrans A * -> 1 A (+1)\n"

OPPOSITE = """\
dim 1
scouts 2
states L R
init 1 R
init 2 L
trans R * -> 1 R (+1)
trans L * -> 1 L (-1)
"""


def _step(sim):
    """One VectorSim step on its own draw of the (replicas, scouts) uniforms
    of that step."""
    sim.step(streams.uniforms(sim.root_seed, sim.replicas[:, None],
                              np.arange(sim.keys.shape[1], dtype=np.int64)[None, :],
                              sim.time))


def _initial(p):
    """The configuration of a protocol at time 0."""
    return Configuration((p.initial_position,) * p.scouts, p.initial_states, 0)


def _config(tr, n):
    """The configuration of a trace at time n."""
    names = tr.protocol.state_names
    return Configuration(tuple(tuple(int(x) for x in row) for row in tr.positions[n]),
                         tuple(names[j] for j in tr.state_idx[n]), n)


def test_step_deterministic_rule():
    p = parse_protocol(DET_PLUS)
    assert _config(run(p, 1, SeedSpec(0)), 1) == Configuration(((1,),), ("A",), 1)


def test_step_opposite_moves_and_environments():
    p = parse_protocol(OPPOSITE)
    cfg = _initial(p)
    assert environment_of(cfg, 1) == frozenset({"L"})
    assert environment_of(cfg, 2) == frozenset({"R"})
    assert _config(run(p, 1, SeedSpec(0)), 1).positions == ((1,), (-1,))


def test_step_srw_frequency():
    # empirical frequency of +1 moves over 1e5 seeded steps: binomial 3 sigma
    p = builtin("srw", d=1)
    tr = run(p, 100000, SeedSpec(123))
    steps = np.diff(tr.positions[:, 0, 0])
    freq = float((steps == 1).mean())
    assert abs(freq - 0.5) <= 3 * 0.5 / np.sqrt(steps.size)


def test_run_horizon_zero():
    p = parse_protocol(DET_PLUS)
    tr = run(p, 0, SeedSpec(1))
    assert tr.horizon == 0
    assert _config(tr, 0) == _initial(p)


def test_run_deterministic_positions():
    p = parse_protocol(DET_PLUS)
    tr = run(p, 5, SeedSpec(1))
    assert list(tr.positions[:, 0, 0]) == [0, 1, 2, 3, 4, 5]


def test_run_repeatable():
    p = builtin("srw", d=2)
    a = run(p, 500, SeedSpec(7, replica=3))
    b = run(p, 500, SeedSpec(7, replica=3))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.state_idx, b.state_idx)
    c = run(p, 500, SeedSpec(7, replica=4))
    assert not np.array_equal(a.positions, c.positions)


def test_run_matches_batch_and_vector_paths():
    p = builtin("anchored_geometric", d=1, p="1/2")
    tr = run(p, 200, SeedSpec(11, replica=5))
    P, S = run_batch(p, 200, 11, replicas=1, replica_start=5)
    assert np.array_equal(tr.positions, P[0])
    assert np.array_equal(tr.state_idx, S[0])


def test_trace_legality():
    p = builtin("anchored_geometric", d=2, p="1/2")
    tr = run(p, 400, SeedSpec(3))
    moves = np.diff(tr.positions, axis=0)
    assert moves.min() >= -1 and moves.max() <= 1
    assert tr.state_idx.min() >= 0
    assert tr.state_idx.max() < len(p.state_names)


SIMULTANEOUS = """\
dim 1
scouts 2
states a b
init 1 a
init 2 b
trans a {b} -> 1 a (+1)
trans a * -> 1 a (0)
trans b {a} -> 1 b (-1)
trans b * -> 1 b (0)
"""


def test_simultaneous_environment_semantics():
    # under a sequential (buggy) update scout 2 would see an empty point
    p = parse_protocol(SIMULTANEOUS)
    tr = run(p, 2, SeedSpec(0))
    assert tuple(tr.positions[1, :, 0]) == (1, -1)
    assert tuple(tr.positions[2, :, 0]) == (1, -1)


def test_frequency_law_multinomial():
    text = ("dim 1\nscouts 1\nstates A B C\ninit 1 A\n"
            "trans A * -> 0.2 A (+1) | 0.3 B (0) | 0.5 C (-1)\n"
            "trans B * -> 1 A (0)\ntrans C * -> 1 A (0)\n")
    p = parse_protocol(text)
    tr = run(p, 100000, SeedSpec(17))
    names = p.state_names
    firing = tr.state_idx[:-1, 0] == names.index("A")
    outcome = tr.state_idx[1:, 0][firing]
    n = outcome.size
    for state, prob in (("A", 0.2), ("B", 0.3), ("C", 0.5)):
        freq = float((outcome == names.index(state)).mean())
        assert abs(freq - prob) <= 4 * np.sqrt(prob * (1 - prob) / n)


def test_many_state_protocol_uses_dict_dispatch():
    # five scouts over 18 states: 19**5 entries are past the dense table, so
    # VectorSim dispatches each distinct (state, mask) pair, and must agree
    # with the scalar stepper
    proto = _many_state_protocol(scouts=5)
    assert engine._compile(proto).dense is None
    P, S = run_batch(proto, 300, 7, replicas=4)
    for k in range(4):
        tr = run(proto, 300, SeedSpec(7, replica=k))
        assert np.array_equal(tr.positions, P[k])
        assert np.array_equal(tr.state_idx, S[k])


@pytest.mark.parametrize("n", [18, 63])
def test_two_scout_many_state_protocol_uses_dense_table(n):
    # (n + 1)**2 entries: a dense table, where more than 16 states used to
    # dispatch each distinct pair
    proto = _many_state_protocol(n)
    assert engine._compile(proto).dense.size == (n + 1) ** 2
    P, S = run_batch(proto, 300, 11, replicas=5, replica_start=2)
    for k in range(5):
        tr = run(proto, 300, SeedSpec(11, replica=2 + k))
        assert np.array_equal(tr.positions, P[k])
        assert np.array_equal(tr.state_idx, S[k])


def test_run_memory_guard():
    p = builtin("srw", d=1)
    with pytest.raises(ResourceLimitError, match="hit_times and first_meeting_times stream"):
        run(p, 1 << 27, SeedSpec(0))


def test_cap_marker_must_fit_int64():
    # the censor marker cap + 1 overflowed np.full with an OverflowError; a
    # negative cap ran no step and returned cap + 1 in every cell, also for
    # the origin, which is hit at time 0
    p, pair = builtin("srw", d=1), builtin("independent_walks", d=1, c=2)
    anchored = builtin("anchored_geometric", d=1)
    for call in (lambda cap: hit_times(p, [(1,), (0,)], 2, cap, 0),
                 lambda cap: hit_times(anchored, [(1,), (0,)], 2, cap, 0),
                 lambda cap: first_meeting_times(pair, 2, cap, 0),
                 lambda cap: first_meeting_times(anchored, 2, cap, 0),
                 lambda cap: meeting_gap_samples(pair, 2, cap, 0)):
        for cap in (2**63 - 1, -1, -5):
            with pytest.raises(PreconditionError, match="cap"):
                call(cap)
    # cap 0 takes no step: only the origin is hit
    assert hit_times(p, [(1,), (0,)], 2, 0, 0).tolist() == [[1, 0]] * 2
    # the largest cap whose marker fits; the origin is hit at time 0
    assert hit_times(p, [(0,)], 2, 2**63 - 2, 0).tolist() == [[0], [0]]
    [s] = monte_carlo_hitting_multi(p, [(0,)], 2, cap=2**63 - 2)
    assert s.curve.thresholds[-1] == 2**62


@pytest.mark.parametrize("bad", [dict(replicas=-3), dict(threads=0), dict(threads=-2)])
def test_replica_chunks_refuse_bad_counts(bad):
    # replicas=-3 returned [] and threads < 1 ran serially
    kw = {"replicas": 4, "threads": 1, **bad}
    pair = builtin("independent_walks", d=1, c=2)
    for call in (lambda: hit_times(builtin("srw", d=1), [(1,)], cap=10, root_seed=0, **kw),
                 lambda: first_meeting_times(pair, cap=10, root_seed=0, **kw)):
        with pytest.raises(PreconditionError, match="need replicas >= 0, threads >= 1"):
            call()
    # no replicas is no work
    assert hit_times(builtin("srw", d=1), [(1,)], 0, 10, 0).shape == (0, 1)
    assert first_meeting_times(pair, 0, 10, 0).shape == (0,)


def test_zero_replicas_check_the_counters():
    # with no replicas no chunk was made, so no seed or replica counter was
    # checked: these returned empty arrays where one replica raised
    srw, pair = builtin("srw", d=1), builtin("independent_walks", d=1, c=2)
    for n in (0, 1):
        with pytest.raises(ValueError, match="root seed"):
            hit_times(srw, [(1,)], n, 10, -1)
        with pytest.raises(ValueError, match="root seed"):
            first_meeting_times(pair, n, 10, 2**64)


def test_seed_and_replica_counters_checked_at_every_horizon():
    # at horizon or cap 0 no variate is drawn, and each of these calls
    # returned; from 1 up the draw refused it.  Both now raise the draw's
    # message before any step
    srw, pair = builtin("srw", d=1), builtin("independent_walks", d=1, c=2)
    anchored1 = builtin("anchored_geometric", d=1)
    anchored2 = builtin("anchored_geometric", d=2)
    calls = {
        "run seed": lambda n: run(srw, n, SeedSpec(-1)),
        "run replica": lambda n: run(anchored1, n, SeedSpec(0, -1)),
        "run_batch seed": lambda n: run_batch(srw, n, -1, 2),
        "run_batch last replica": lambda n: run_batch(srw, n, 0, 3, 2**32 - 2),
        "hit_times seed": lambda n: hit_times(anchored2, [(1, 1)], 2, n, 2**64),
        "first meetings seed": lambda n: first_meeting_times(pair, 2, n, -1),
        "meeting gaps seed": lambda n: meeting_gap_samples(pair, 2, n, -1),
        "VectorSim replica": lambda n: list(VectorSim(srw, 2, 0, 2**32).blocks(n)),
    }
    for name, call in calls.items():
        messages = set()
        for n in (0, 1, 5):
            with pytest.raises(ValueError, match="counter must be|root seed") as err:
                call(n)
            messages.add(str(err.value))
        assert len(messages) == 1, name
    # the edges of the ranges still run
    assert run(srw, 0, SeedSpec(2**64 - 1, 2**32 - 1)).horizon == 0
    assert run_batch(srw, 0, 0, 2, 2**32 - 2)[0].shape == (2, 1, 1, 1)


def test_negative_replica_counts_refused():
    # these ended in numpy's "negative dimensions are not allowed"
    srw, pair = builtin("srw", d=1), builtin("independent_walks", d=1, c=2)
    for call in (lambda: VectorSim(srw, -2, 0),
                 lambda: run_batch(srw, 5, 0, -2),
                 lambda: meeting_gap_samples(pair, -2, 8, 0)):
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == "replicas must be >= 0, got -2"


def test_negative_horizon_refused_alike():
    # run_batch reported the cap range of VectorSim.blocks instead
    srw = builtin("srw", d=1)
    for call in (lambda: run(srw, -1, SeedSpec(0)), lambda: run_batch(srw, -1, 0, 2)):
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == "horizon must be >= 0, got -1"


# ---------------------------------------------------------------------------
# the scalar kernel against a reference stepper
#
# The reference is the per-step stepper the kernel replaced, kept here as an
# independent check: environments through conftest.environment_of, the rule
# found among the protocol's own rules, the branch by bisection of the row's
# Categorical list on conftest.uniform_scalar, and one Configuration per step.


@functools.lru_cache(maxsize=None)
def _reference_tables(p):
    rules = {}
    for k, rule in enumerate(p.rules):
        env = None if rule.pattern.is_wildcard else frozenset(rule.pattern.states)
        rules[rule.state, env] = k
    return rules, streams.Categorical([[o.probability for o in r.outcomes] for r in p.rules])


def _reference_step(p, cfg, seed):
    rules, table = _reference_tables(p)
    envs = [environment_of(cfg, i + 1) for i in range(p.scouts)]
    positions, states = [], []
    for i, (state, env) in enumerate(zip(cfg.states, envs)):
        k = rules.get((state, env), rules.get((state, None)))
        if k is None:
            raise ProtocolError(
                f"no matching rule for state {state!r} with environment {sorted(env)}")
        u = uniform_scalar(seed.root_seed, seed.replica, i, cfg.time)
        o = p.rules[k].outcomes[bisect_right(table.lists[k], u)]
        positions.append(tuple(x + m for x, m in zip(cfg.positions[i], o.move)))
        states.append(o.state)
    return Configuration(tuple(positions), tuple(states), cfg.time + 1)


@functools.lru_cache(maxsize=None)
def _reference_trace(p, seed, horizon):
    cfgs = [_initial(p)]
    for _ in range(horizon):
        cfgs.append(_reference_step(p, cfgs[-1], seed))
    return cfgs


def _many_state_protocol(n=18, scouts=2):
    """Scouts over n states, starting in s00 and s{n-1} by turns: stochastic
    wildcard rows, and an exact rule for sharing a point with state s{n-1}
    alone."""
    names = tuple(f"s{i:02d}" for i in range(n))
    rules = []
    for i, name in enumerate(names):
        rules.append(TransitionRule(name, EnvPattern.wildcard(), (
            Outcome(Fraction(1, 2), names[(i + 1) % n], (1,)),
            Outcome(Fraction(1, 3), names[(i + 7) % n], (0,)),
            Outcome(Fraction(1, 6), name, (-1,)))))
        rules.append(TransitionRule(name, EnvPattern.exact([names[-1]]), (
            Outcome(Fraction(1, 2), names[0], (1,)),
            Outcome(Fraction(1, 2), names[-1], (-1,)))))
    return ScoutProtocol(dim=1, scouts=scouts, state_names=names, initial_position=(0,),
                         initial_states=tuple(names[-(k % 2)] for k in range(scouts)),
                         rules=tuple(rules))


def _anchored_d2_far():
    # an origin whose d = 2 key does not fit int64: every path keys offsets
    return dataclasses.replace(builtin("anchored_geometric", d=2, p="1/2"),
                               initial_position=(2**31 + 5, -2**40))


def _srw_d2_far():
    # the same origin on the i.i.d. block routine
    return dataclasses.replace(builtin("srw", d=2), initial_position=(2**31 + 5, -2**40))


def _short_float_row_protocol():
    # a float row summing to 0.8: uniforms from 0.8 up take the last outcome
    rules = (TransitionRule("A", EnvPattern.wildcard(), (
        Outcome(0.5, "A", (1,)), Outcome(0.3, "A", (-1,)))),)
    return ScoutProtocol(dim=1, scouts=1, state_names=("A",), initial_position=(0,),
                         initial_states=("A",), rules=rules)


KERNEL_CASES = {
    "det_plus": lambda: parse_protocol(DET_PLUS),
    "opposite": lambda: parse_protocol(OPPOSITE),
    "simultaneous": lambda: parse_protocol(SIMULTANEOUS),
    "anchored_d1": lambda: builtin("anchored_geometric", d=1, p="1/2"),
    "anchored_d2": lambda: builtin("anchored_geometric", d=2, p="1/2"),
    "eighteen_states": _many_state_protocol,
    "anchored_d2_far": _anchored_d2_far,
    "short_float_row": _short_float_row_protocol,
    # i.i.d. protocols, which run steps on the i.i.d. block routine (det_plus,
    # opposite and short_float_row are i.i.d. too)
    "iid_pair_d1": lambda: builtin("independent_walks", d=1, c=2),
    "iid_pair_d2": lambda: builtin("independent_walks", d=2, c=2),
    "srw_d2_far": _srw_d2_far,
}
KERNEL_SEED = SeedSpec(2024, replica=3)
KERNEL_HORIZON = 2049


@pytest.mark.parametrize("horizon", [0, 1, 1023, 1024, 1025, KERNEL_HORIZON])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_run_matches_reference_stepper(name, horizon):
    p = KERNEL_CASES[name]()
    ref = _reference_trace(p, KERNEL_SEED, KERNEL_HORIZON)[:horizon + 1]
    tr = run(p, horizon, KERNEL_SEED)
    assert [_config(tr, n) for n in range(horizon + 1)] == ref


def test_kernel_cases_cover_both_routes():
    iid = {name for name, make in KERNEL_CASES.items() if engine._compile(make()).iid_single}
    assert iid == {"det_plus", "opposite", "short_float_row", "iid_pair_d1", "iid_pair_d2",
                   "srw_d2_far"}


def _kernel_step(p, cfg, seed):
    """One step of the scalar kernel from ``cfg``, at any time: the kernel
    reads the configuration as _pack keys from the origin."""
    comp = engine._compile(p)
    offsets = np.array(cfg.positions, dtype=np.int64) - comp.origin
    keys, states = engine._kernel(comp, seed, engine._pack(offsets).tolist(),
                                  [comp.state_index[s] for s in cfg.states], cfg.time, 1)
    positions = engine._unpack(np.array(keys, dtype=np.int64), comp.d) + comp.origin
    return Configuration(tuple(tuple(q) for q in positions.tolist()),
                         tuple(p.state_names[s] for s in states), cfg.time + 1)


@pytest.mark.parametrize("time", [0, 1, 1023, 1500])
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_step_matches_reference_stepper(name, time):
    # a kernel call that starts off run's 1024-step block bounds
    p = KERNEL_CASES[name]()
    ref = _reference_trace(p, KERNEL_SEED, KERNEL_HORIZON)
    assert _kernel_step(p, ref[time], KERNEL_SEED) == ref[time + 1]


def _uncovered_protocol():
    """Four scouts at one point in states d, c, b, a (declared c, b, a, d).
    Scout c leaves with probability 1/8 per step; d then sees {a, b}, which
    no rule of d covers."""
    stay = (Outcome(Fraction(1), "d", (0,)),)
    rules = (
        TransitionRule("d", EnvPattern.exact(["a", "b", "c"]), stay),
        TransitionRule("c", EnvPattern.exact(["a", "b", "d"]), (
            Outcome(Fraction(7, 8), "c", (0,)), Outcome(Fraction(1, 8), "c", (1,)))),
        TransitionRule("c", EnvPattern.wildcard(), (Outcome(Fraction(1), "c", (0,)),)),
        TransitionRule("b", EnvPattern.wildcard(), (Outcome(Fraction(1), "b", (0,)),)),
        TransitionRule("a", EnvPattern.wildcard(), (Outcome(Fraction(1), "a", (0,)),)),
    )
    return ScoutProtocol(dim=1, scouts=4, state_names=("c", "b", "a", "d"),
                         initial_position=(0,), initial_states=("d", "c", "b", "a"),
                         rules=rules)


def test_longest_move_of_minus_128():
    # the longest move bounds the reach that targets and key widths rely on
    rules = (TransitionRule("A", EnvPattern.wildcard(), (Outcome(Fraction(1), "A", (-128,)),)),)
    p = ScoutProtocol(dim=1, scouts=1, state_names=("A",), initial_position=(0,),
                      initial_states=("A",), rules=rules)
    assert engine._compile(p).max_move == 128
    assert hit_times(p, [(-256,)], 1, 2, 0)[0, 0] == 2


def test_run_leaving_int64_raises():
    p = dataclasses.replace(parse_protocol(DET_PLUS), initial_position=(2**63 - 3,))
    assert run(p, 2, SeedSpec(0)).positions[-1, 0, 0] == 2**63 - 1
    with pytest.raises(OverflowError):
        run(p, 3, SeedSpec(0))


def test_uncovered_environment_raises_after_every_earlier_step(monkeypatch):
    p = _uncovered_protocol()
    message = "no matching rule for state 'd' with environment ['a', 'b']"
    ref = [_initial(p)]
    with pytest.raises(ProtocolError) as err:
        while True:
            ref.append(_reference_step(p, ref[-1], KERNEL_SEED))
    assert str(err.value) == message
    assert len(ref) > 2  # the failing step is not the first of its block
    tr = run(p, len(ref) - 1, KERNEL_SEED)
    assert [_config(tr, n) for n in range(len(ref))] == ref
    with pytest.raises(ProtocolError) as err:
        run(p, 1024, KERNEL_SEED)
    assert str(err.value) == message
    # VectorSim.step names the environment too, and so does a lone replica
    # of each chunk on the scalar kernel
    for chunk in (8192, 1):
        monkeypatch.setattr(engine, "_REPLICA_CHUNK", chunk)
        with pytest.raises(ProtocolError) as err:
            hit_times(p, [(5,)], KERNEL_SEED.replica + 1, 1024, KERNEL_SEED.root_seed)
        assert str(err.value) == message
    with pytest.raises(ProtocolError) as err:
        run_batch(p, 1024, KERNEL_SEED.root_seed, 1, KERNEL_SEED.replica)
    assert str(err.value) == message


def _uncompilable(rule_state="A", outcome_state="A", pattern=(), init="A", outcomes=True):
    """A two-scout protocol over the one declared state A, built in code past
    the parser, with one name swapped for an undeclared one or no outcomes."""
    pattern = EnvPattern.exact(pattern) if pattern else EnvPattern.wildcard()
    row = (Outcome(Fraction(1), outcome_state, (1,)),) if outcomes else ()
    return ScoutProtocol(dim=1, scouts=2, state_names=("A",), initial_position=(0,),
                         initial_states=(init, "A"),
                         rules=(TransitionRule(rule_state, pattern, row),))


UNCOMPILABLE = {
    "empty-row": ("empty-row", dict(outcomes=False)),
    "outcome-state": ("unknown-state", dict(outcome_state="B")),
    "rule-state": ("unknown-state", dict(rule_state="B")),
    "pattern-state": ("unknown-state", dict(pattern=("B",))),
    "initial-state": ("unknown-state", dict(init="B")),
}


@pytest.mark.parametrize("case", sorted(UNCOMPILABLE))
def test_uncompilable_protocol_refused_on_every_path(case):
    # these ended in IndexError (no outcomes) or KeyError (undeclared name)
    code, kwargs = UNCOMPILABLE[case]
    p = _uncompilable(**kwargs)
    seed = SeedSpec(0)
    calls = (lambda: run(p, 5, seed),
             lambda: run_batch(p, 5, 0, 2),
             lambda: VectorSim(p, 2, 0),
             lambda: hit_times(p, [(1,)], 2, 8, 0),
             lambda: first_meeting_times(p, 2, 8, 0))
    for call in calls:
        with pytest.raises(ProtocolValidationError) as err:
            call()
        assert [v.code for v in err.value.violations] == [code]


# ---------------------------------------------------------------------------
# VectorSim against the stepper its flat tables replaced
#
# The reference is VectorSim.step as it was before: the environment masks by
# a reduce over a (replicas, scouts, scouts) array, each (state, mask) pair
# dispatched through _Compiled.dispatch_row, the branch by a count over the
# true cumulative rows clamped to the last branch, and the successor state
# and move key gathered from the 2-d row tables.  Both sides draw each
# step's uniforms on their own.


def _reference_select(p, rows, u):
    """Categorical.select as it was: a count over the gathered true partial
    sums of the rule rows (exact for Fraction rows), padded with 2.0, then
    a clamp to the last branch."""
    sums = []
    for rule in p.rules:
        probs = [o.probability for o in rule.outcomes]
        if all(isinstance(q, Fraction) for q in probs):
            sums.append([float(c) for c in itertools.accumulate(probs)])
        else:
            sums.append(list(itertools.accumulate(float(q) for q in probs)))
    width = max(len(c) for c in sums)
    cum = np.array([c + [2.0] * (width - len(c)) for c in sums])
    length = np.array([len(c) for c in sums])
    branch = (cum[rows] <= u[..., None]).sum(axis=-1)
    return np.minimum(branch, length[rows] - 1)


class _ReferenceVectorSim:
    def __init__(self, p, n, root_seed, replica_start):
        self.comp = comp = engine._compile(p)
        self.root_seed = root_seed
        self.replicas = np.arange(replica_start, replica_start + n, dtype=np.int64)
        self.keys = np.zeros((n, comp.c), dtype=np.int64)  # offsets from the origin
        self.states = np.tile(comp.init_state_idx.astype(np.int16), (n, 1))
        self.time = 0

    def compact(self, keep):
        self.replicas, self.keys, self.states = (
            self.replicas[keep], self.keys[keep], self.states[keep])

    def step(self):
        comp = self.comp
        R, c = self.states.shape
        co = self.keys[:, :, None] == self.keys[:, None, :]
        co &= ~np.eye(c, dtype=bool)
        bits = np.int64(1) << self.states.astype(np.int64)
        masks = np.bitwise_or.reduce(np.where(co, bits[:, None, :], 0), axis=2)
        rows = np.array([[comp.dispatch_row(int(s), int(m)) for s, m in zip(sr, mr)]
                         for sr, mr in zip(self.states, masks)], dtype=np.int64).reshape(R, c)
        u = streams.uniforms(self.root_seed, self.replicas[:, None],
                             np.arange(c, dtype=np.int64)[None, :], self.time)
        branch = _reference_select(comp.protocol, rows, u)
        self.states = comp.row_state[rows, branch].astype(np.int16)
        self.keys = self.keys + comp.row_key[rows, branch]
        self.time += 1


VECTOR_CASES = {
    "anchored_d1": lambda: builtin("anchored_geometric", d=1, p="1/2"),
    "anchored_d2": lambda: builtin("anchored_geometric", d=2, p="1/2"),
    "eighteen_states": _many_state_protocol,
    "independent_walks_c2": lambda: builtin("independent_walks", d=1, c=2),
    "srw": lambda: builtin("srw", d=1),
    "short_float_row": _short_float_row_protocol,
}


@pytest.mark.parametrize("name", sorted(VECTOR_CASES))
def test_vector_step_matches_reference(name):
    p = VECTOR_CASES[name]()
    sim = VectorSim(p, 9, 2024, replica_start=5)
    ref = _ReferenceVectorSim(p, 9, 2024, 5)
    for t in range(2048):
        if t == 1001:
            keep = np.arange(sim.n_active) % 3 != 1
            sim.compact(keep)
            ref.compact(keep)
        _step(sim)
        ref.step()
        assert np.array_equal(sim.keys, ref.keys), t
        assert np.array_equal(sim.states, ref.states), t


def _random_sensing_protocol(dim, seed):
    """A conftest.random_two_scout_protocol with an exact rule and some
    stochastic row, so that the stepped path runs and draws."""
    rng = np.random.default_rng(seed)
    while True:
        p = random_two_scout_protocol(rng, dim)
        comp = engine._compile(p)
        if comp.exact_rows and not comp.iid_single and (comp.table.length > 1).any():
            return p


LONE_CASES = {
    "anchored_d1": lambda: builtin("anchored_geometric", d=1, p="1/2"),
    "anchored_d2": lambda: builtin("anchored_geometric", d=2, p="1/2"),
    "random_d1": lambda: _random_sensing_protocol(1, 3),
    "random_d2": lambda: _random_sensing_protocol(2, 4),
}


@pytest.mark.parametrize("drop_at", [3, 40, 1500])
@pytest.mark.parametrize("name", sorted(LONE_CASES))
def test_lone_replica_blocks_match_reference(name, drop_at):
    # five replicas step on VectorSim.step up to drop_at; the one left then
    # steps on the scalar kernel in blocks of up to 1024 steps, on its own
    # counter, and each block equals the reference stepper's steps
    p = LONE_CASES[name]()
    c = engine._compile(p).c
    sim = VectorSim(p, 5, 2024, replica_start=5)
    for _ in sim.blocks(drop_at):
        pass
    ref = _ReferenceVectorSim(p, 1, 2024, 8)
    for _ in range(drop_at):
        ref.step()
    sim.compact(sim.replicas == 8)
    cap = drop_at + 1024 + 100
    lengths = []
    for t0, keys, states in sim.blocks(cap):
        assert t0 == ref.time and keys.shape == states.shape == (len(keys), 1, c)
        for b in range(len(keys)):
            ref.step()
            assert np.array_equal(keys[b], ref.keys), t0 + b
            assert np.array_equal(states[b], ref.states), t0 + b
        lengths.append(len(keys))
    assert lengths == [1024, 100] and sim.time == cap
    assert np.array_equal(sim.keys, ref.keys) and np.array_equal(sim.states, ref.states)


def test_hit_times_lone_chunks_match(monkeypatch):
    # chunks of one replica step every replica on the scalar kernel from
    # step 0; the default chunk steps VectorSim.step until one replica is left
    p = builtin("anchored_geometric", d=2, p="1/2")
    targets = [(x, y) for x in range(-3, 4) for y in range(-3, 4)] + [(9, 9)]
    want = hit_times(p, targets, 24, 600, 8)
    assert (want > 600).any() and (want[:, :-1] <= 600).any()
    monkeypatch.setattr(engine, "_REPLICA_CHUNK", 1)
    assert np.array_equal(hit_times(p, targets, 24, 600, 8), want)


def _decoded_dense_table(comp):
    """The dense dispatch table decoded entry by entry: the own state's
    digit on top, one digit per other scout below it, 0 for a scout not at
    the point and s + 1 for one in state s."""
    n = comp.n_states
    others = 0 if comp.env_free else comp.c - 1
    entries = []
    for k in range((n + 1) ** (others + 1)):
        own, rest = divmod(k, (n + 1) ** others)
        mask = 0
        for _ in range(others):
            rest, digit = divmod(rest, n + 1)
            if digit:
                mask |= 1 << (digit - 1)
        row = comp.dispatch_row(own - 1, mask) if own else -1
        entries.append(row * comp.row_width if row >= 0 else -1)
    return entries


def _two_state_environment_protocol():
    """Two scouts with a rule for sensing states a and b at once, an
    environment that one other scout never shows."""
    def rule(state, pattern, move):
        return TransitionRule(state, pattern, (Outcome(Fraction(1, 2), "a", (move,)),
                                               Outcome(Fraction(1, 2), "b", (0,))))
    rules = (rule("a", EnvPattern.wildcard(), 1), rule("a", EnvPattern.exact(["a", "b"]), -1),
             rule("b", EnvPattern.wildcard(), -1), rule("b", EnvPattern.exact(["b"]), 1))
    return ScoutProtocol(dim=1, scouts=2, state_names=("a", "b"), initial_position=(0,),
                         initial_states=("a", "b"), rules=rules)


def test_dense_table_encoding():
    from conftest import random_two_scout_protocol
    rng = np.random.default_rng(20)
    protocols = [builtin("srw", d=1), builtin("srw", d=2),
                 builtin("independent_walks", d=2, c=3),
                 builtin("anchored_geometric", d=1), builtin("anchored_geometric", d=2),
                 _uncovered_protocol(), _two_state_environment_protocol()]
    protocols += [random_two_scout_protocol(rng, 1 + k % 2) for k in range(40)]
    for p in protocols:
        comp = engine._compile(p)
        assert comp.dense.tolist() == _decoded_dense_table(comp)
    # five scouts are past the dense table: 18 states, 63 states (the exact
    # rule's mask is bit 62), and 18 states where s05 has no wildcard rule
    many = _many_state_protocol(scouts=5)
    fallback = [many, _many_state_protocol(63, scouts=5),
                dataclasses.replace(many, rules=tuple(
                    r for r in many.rules if r.state != "s05" or not r.pattern.is_wildcard))]
    for k, p in enumerate(protocols + fallback):
        comp = engine._compile(p)
        assert (comp.dense is None) == (k >= len(protocols))
        # VectorSim's index of random configurations, with many shared
        # points, against the OR of the co-located scouts' state bits
        sim = VectorSim(p, 64, 0)
        sim.keys = rng.integers(0, 3, size=sim.keys.shape)
        sim.states = rng.integers(0, comp.n_states, size=sim.states.shape)
        if comp.dense is None:
            # half the scouts in the last state, which the exact rule senses
            sim.states[rng.random(sim.states.shape) < 0.5] = comp.n_states - 1
        want = [[comp.dispatch_row(int(s), sum({1 << int(states[j]) for j in range(comp.c)
                                                if j != i and keys[j] == keys[i]}))
                 for i, s in enumerate(states)]
                for keys, states in zip(sim.keys, sim.states)]
        assert sim._bases().tolist() == [[r * comp.row_width if r >= 0 else -1 for r in row]
                                         for row in want]
        if comp.dense is None:
            rows = {r for row in want for r in row}
            assert rows & set(comp.exact_rows.values()) and rows & set(comp.wildcard_row.tolist())
            assert (-1 in rows) == (p is fallback[2])


def test_covered_is_a_property_of_the_rule_table():
    # a table with no uncovered (state, mask) entry skips VectorSim.step's
    # coverage check; one with an uncovered entry keeps it, and names the
    # environment on both gathers (test_mask_lookup_matches_dense_table)
    from conftest import random_two_scout_protocol
    rng = np.random.default_rng(21)
    builtins = [builtin("anchored_geometric", d=1), builtin("anchored_geometric", d=2),
                builtin("srw", d=2), builtin("independent_walks", d=1, c=2)]
    assert all(engine._compile(p).covered for p in builtins)
    assert not engine._compile(_uncovered_protocol()).covered
    protocols = []
    for k in range(40):
        p = random_two_scout_protocol(rng, 1 + k % 2)
        # and without the wildcard rules of the states that sense: uncovered
        sensing = {r.state for r in p.rules if not r.pattern.is_wildcard}
        protocols += [p, dataclasses.replace(p, rules=tuple(
            r for r in p.rules if r.state not in sensing or not r.pattern.is_wildcard))]
    covered = [engine._compile(p).covered for p in protocols]
    # the dense table's entries that scouts read: own digit s + 1 >= 1
    read = [engine._compile(p).dense.reshape(engine._compile(p).n_states + 1, -1)[1:]
            for p in protocols]
    assert covered == [int(t.min()) >= 0 for t in read]
    assert 0 < sum(covered) < len(covered)


def test_mask_lookup_matches_dense_table(monkeypatch):
    # with no dense table, every protocol reads the rule table at each
    # scout's mask column; the dense table is a gather of the same table, so
    # hitting times, traces and the no-rule message are those of the dense path
    rng = np.random.default_rng(30)
    protocols = [builtin("anchored_geometric", d=1), builtin("anchored_geometric", d=2),
                 _two_state_environment_protocol(), _uncovered_protocol()]
    protocols += [random_two_scout_protocol(rng, 1 + k % 2) for k in range(20)]

    def outputs(p):
        near = range(-3, 4)
        targets = list(itertools.product(near, repeat=p.dim))
        try:
            return (hit_times(p, targets, 12, 400, 3), *run_batch(p, 300, 5, 4, 2))
        except ProtocolError as exc:
            return str(exc)

    want = [outputs(p) for p in protocols]
    assert isinstance(want[3], str) and "no matching rule" in want[3]
    monkeypatch.setattr(engine, "_DENSE_LIMIT", 0)
    engine._compile.cache_clear()
    try:
        assert all(engine._compile(p).dense is None for p in protocols)
        got = [outputs(p) for p in protocols]
    finally:
        engine._compile.cache_clear()
    for k, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, str):
            assert a == b, k
        else:
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), k


@pytest.mark.parametrize("scouts", [3, 5])
def test_many_state_hit_times_match_scalar_across_drops(scouts):
    # three scouts on the dense table and five past it, environment-dependent
    # rows; replicas finish, and are dropped, between blocks of every length
    p = _many_state_protocol(scouts=scouts)
    assert (engine._compile(p).dense is None) == (scouts == 5)
    targets = [(1,), (3,), (8,), (-1,), (20,)]
    want = _hit_times_oracle(p, targets, 12, 200, 5)
    done = want.max(axis=1)
    assert len(set(done[done <= 200].tolist())) > 4
    assert np.array_equal(hit_times(p, targets, 12, 200, 5), want)


# hitting


def test_hitting_at_origin_is_zero():
    p = builtin("srw", d=1)
    assert hit_times(p, [(0,)], 1, 10, 0)[0, 0] == 0


def test_hitting_deterministic():
    p = parse_protocol(DET_PLUS)
    assert hit_times(p, [(7,)], 1, 100, 0)[0, 0] == 7
    assert hit_times(p, [(-1,)], 1, 100, 0)[0, 0] == 101  # censored: cap + 1


def test_hitting_survival_matches_enumeration():
    # all 8 equiprobable length-3 paths of the simple walk: P(T_{+1} > 3) = 3/8
    paths = list(itertools.product((-1, 1), repeat=3))
    good = 0
    for moves in paths:
        pos = 0
        visited = [0]
        for m in moves:
            pos += m
            visited.append(pos)
        if 1 not in visited:
            good += 1
    assert Fraction(good, len(paths)) == Fraction(3, 8)
    p = builtin("srw", d=1)
    times = hit_times(p, [(1,)], 40000, 3, root_seed=5)
    freq = float((times[:, 0] > 3).mean())
    sigma = np.sqrt(0.375 * 0.625 / 40000)
    assert abs(freq - 0.375) <= 4 * sigma


def _vectorsim_path(monkeypatch, p):
    """Send an i.i.d. protocol down the stepped path of VectorSim.blocks."""
    comp = engine._compile(p)
    assert comp.iid_single
    monkeypatch.setattr(comp, "iid_single", False)


def test_hit_times_fast_and_general_paths_agree(monkeypatch):
    p = builtin("srw", d=1)
    targets = [(1,), (-2,)]
    a = hit_times(p, targets, 300, 500, 9)
    _vectorsim_path(monkeypatch, p)
    b = hit_times(p, targets, 300, 500, 9)
    assert np.array_equal(a, b)


def _hit_times_oracle(p, targets, replicas, cap, root_seed):
    """First passage from scalar traces, comparing every scout with every target."""
    tgt = np.array(targets, dtype=np.int64)
    out = np.full((replicas, len(tgt)), cap + 1, dtype=np.int64)
    for r in range(replicas):
        pos = run(p, cap, SeedSpec(root_seed, replica=r)).positions  # (cap+1, c, d)
        hit = (pos[:, :, None, :] == tgt[None, None]).all(-1).any(1)  # (cap+1, T)
        seen = hit.any(0)
        out[r, seen] = hit[:, seen].argmax(0)
    return out


@pytest.mark.parametrize("name,d,targets", [
    # duplicates, the origin (time 0), unreachable and far-apart points
    ("anchored_geometric", 1, [(1,), (-2,), (1,), (0,), (3,), (10**9,), (-10**9,)]),
    ("anchored_geometric", 2, [(1, 0), (0, 0), (1, 0), (-2, 1), (0, -3),
                               (10**9, -10**9), (2, 2)]),
    ("srw", 2, [(1, 1), (-1, 0), (1, 1), (0, 0), (10**9, -10**9)]),
])
def test_hit_times_general_path_matches_oracle(name, d, targets, monkeypatch):
    p = builtin(name, d=d)
    cap = 300
    want = _hit_times_oracle(p, targets, 10, cap, 4)
    assert np.array_equal(hit_times(p, targets, 10, cap, 4), want)
    monkeypatch.setattr(engine, "_REPLICA_CHUNK", 3)
    assert np.array_equal(hit_times(p, targets, 10, cap, 4), want)
    origin = targets.index((0,) * d)
    far = [i for i, t in enumerate(targets) if max(map(abs, t)) > cap]
    assert (want[:, origin] == 0).all() and (want[:, far] == cap + 1).all()


@pytest.mark.parametrize("replicas", [40, 3000])
def test_vectorsim_compaction_mid_block_matches_scalar(replicas):
    # drops between blocks, after steps 4, 32 and 96, move the tracked
    # replicas' rows; a 32-step block of 3000 replicas x 3 scouts draws its
    # 288,000 uniforms in one call, over several Philox passes
    p = builtin("anchored_geometric", d=2)
    horizon = 150
    tracked = np.linspace(0, replicas - 1, 8).astype(np.int64)
    ref = {int(r): run(p, horizon, SeedSpec(9, replica=int(r))) for r in tracked}
    sim = VectorSim(p, replicas, 9)
    rng = np.random.default_rng(0)
    ends = []
    for t0, keys, states in sim.blocks(horizon):
        positions = engine._unpack(keys, 2)
        for row in np.flatnonzero(np.isin(sim.replicas, tracked)):
            tr = ref[int(sim.replicas[row])]
            assert np.array_equal(positions[:, row], tr.positions[t0 + 1:t0 + 1 + len(keys)])
            assert np.array_equal(states[:, row], tr.state_idx[t0 + 1:t0 + 1 + len(keys)])
        ends.append(sim.time)
        if sim.time in (4, 32, 96):
            done = rng.random(sim.n_active) >= 0.7
            done[np.isin(sim.replicas, tracked)] = False
            sim.drop(done)
    assert ends[-1] == horizon and {4, 32, 96} <= set(ends)
    assert sim.n_active < replicas


@pytest.mark.parametrize("name,kw", [
    ("anchored_geometric", {"d": 2}),  # three scouts, environment-dependent
    ("independent_walks", {"d": 1, "c": 2}),  # i.i.d. block draws
    ("srw", {"d": 2}),
], ids=["anchored_d2", "independent_walks_c2", "srw_d2"])
def test_three_scout_env_protocol_batch_matches_run(name, kw):
    p = builtin(name, **kw)
    assert engine._compile(p).iid_single == (name != "anchored_geometric")
    P, S = run_batch(p, 300, 13, replicas=6, replica_start=3)
    for k in range(6):
        tr = run(p, 300, SeedSpec(13, replica=3 + k))
        assert np.array_equal(tr.positions, P[k])
        assert np.array_equal(tr.state_idx, S[k])


def test_hit_times_threads_and_chunks_identical(monkeypatch):
    # both paths of VectorSim.blocks: i.i.d. walks and the anchored sweeper
    def both(threads, chunk):
        monkeypatch.setattr(engine, "_REPLICA_CHUNK", chunk)
        return (hit_times(p, [(2,), (-3,)], 400, 800, 3, threads=threads),
                first_meeting_times(p, 400, 800, 3, threads=threads))

    for p in (builtin("independent_walks", d=1, c=2),
              builtin("anchored_geometric", d=1, p="1/2")):
        for a, b in zip(both(1, 57), both(4, 128)):
            assert np.array_equal(a, b)


def test_monte_carlo_degenerate_target():
    p = parse_protocol(DET_PLUS)
    s = monte_carlo_hitting_multi(p, [(3,)], replicas=200, cap=64, root_seed=1)[0]
    assert s.summary.mean == 3.0
    assert s.summary.ci_low == s.summary.ci_high == 3.0
    assert s.summary.n_censored == 0


def test_monte_carlo_mean_nondecreasing_in_cap():
    p = builtin("srw", d=1)
    lo = monte_carlo_hitting_multi(p, [(1,)], replicas=4000, cap=1 << 8, root_seed=2)[0]
    hi = monte_carlo_hitting_multi(p, [(1,)], replicas=4000, cap=1 << 12, root_seed=2)[0]
    assert hi.summary.mean >= lo.summary.mean
    assert hi.summary.n_censored <= lo.summary.n_censored


def test_monte_carlo_censored_flag():
    p = builtin("srw", d=1)
    s = monte_carlo_hitting_multi(p, [(1,)], replicas=2000, cap=16, root_seed=2)[0]
    assert s.summary.censored_fraction > 0.01
    assert s.summary.mean_is_lower_bound


def test_anchored_mean_matches_epoch_calculation():
    # per-epoch hit probability of x=4 at p=1/2 is q = 1/32; epoch lengths are
    # 1 (rest, w.p. 1/2) or 2M (launch, E[M] = 2), so E[L] = 5/2 and
    # E[L | hit] = 10; the hit lands 4 steps into its epoch, giving
    # E[T] = E[K] E[L] - (E[L | hit] - 4) = 32 * 5/2 - 6 = 74 exactly.
    p = builtin("anchored_geometric", d=1, p="1/2")
    s = monte_carlo_hitting_multi(p, [(4,)], replicas=6000, cap=1 << 12, root_seed=8)[0]
    assert s.summary.censored_fraction < 0.001
    assert s.summary.ci_low <= 74.0 <= s.summary.ci_high


def test_anchored_censoring_vanishes_with_cap():
    p = builtin("anchored_geometric", d=1, p="1/2")
    fracs = []
    widths = []
    for cap in (1 << 6, 1 << 8, 1 << 10):
        s = monte_carlo_hitting_multi(p, [(4,)], replicas=3000, cap=cap, root_seed=9)[0]
        fracs.append(s.summary.censored_fraction)
        if s.summary.mean is not None:
            widths.append(s.summary.ci_high - s.summary.ci_low)
    assert fracs[0] > fracs[1] > fracs[2]
    assert fracs[2] < 0.01


def test_survival_curve_invariants():
    p = builtin("srw", d=1)
    s = monte_carlo_hitting_multi(p, [(1,)], replicas=3000, cap=1 << 10, root_seed=4)[0]
    c = s.curve
    assert np.all(np.diff(c.survivors) <= 0)
    assert c.survivors.max() <= c.total
    assert c.thresholds[0] == 1 and c.thresholds[-1] <= 1 << 10


# meetings


def test_meeting_times_stay_put():
    text = ("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
            "trans a * -> 1 a (0)\ntrans b * -> 1 b (0)\n")
    tr = run(parse_protocol(text), 10, SeedSpec(0))
    assert extract_renewal(tr).meeting_times.tolist() == list(range(11))


def test_meeting_times_opposite_never_remeet():
    tr = run(parse_protocol(OPPOSITE), 50, SeedSpec(0))
    assert extract_renewal(tr).meeting_times.tolist() == [0]


def test_meeting_times_needs_two_scouts():
    tr = run(builtin("srw", d=1), 10, SeedSpec(0))
    with pytest.raises(ValueError, match="two-scout"):
        extract_renewal(tr)


def _first_meetings_stepwise(p, replicas, cap, root_seed):
    """Reference first meetings: a VectorSim stepped once per loop, the
    replicas that met compacted away at once."""
    sim = VectorSim(p, replicas, root_seed)
    out = np.full(replicas, cap + 1, dtype=np.int64)
    while sim.n_active and sim.time < cap:
        _step(sim)
        met = sim.keys[:, 0] == sim.keys[:, 1]
        if met.any():
            out[sim.replicas[met]] = sim.time
            sim.compact(~met)
    return out


def _meeting_gaps_stepwise(p, replicas, cap, root_seed, k_min, k_max):
    """Reference meeting gaps: a VectorSim stepped once per loop, gaps taken
    per step in replica order, a replica compacted away at its k_max-th
    meeting."""
    sim = VectorSim(p, replicas, root_seed)
    last = np.zeros(replicas, dtype=np.int64)
    count = np.zeros(replicas, dtype=np.int64)
    gaps = []
    while sim.n_active and sim.time < cap:
        _step(sim)
        met = sim.keys[:, 0] == sim.keys[:, 1]
        if met.any():
            count[met] += 1
            eligible = met & (count >= k_min)
            if eligible.any():
                gaps.append(sim.time - last[eligible])
            last[met] = sim.time
            full = count >= k_max
            if full.any():
                keep = ~full
                sim.compact(keep)
                last = last[keep]
                count = count[keep]
    return np.concatenate(gaps) if gaps else np.zeros(0, dtype=np.int64)


def test_first_meeting_paths_agree(monkeypatch):
    p = builtin("independent_walks", d=1, c=2)
    want = _first_meetings_stepwise(p, 500, 600, 21)
    assert np.array_equal(first_meeting_times(p, 500, 600, 21), want)
    _vectorsim_path(monkeypatch, p)
    assert np.array_equal(first_meeting_times(p, 500, 600, 21), want)


@pytest.mark.parametrize("replicas", [5, 60])
def test_iid_block_budget_changes_no_value(monkeypatch, replicas):
    # budget 1 gives one-step blocks, 7 gives blocks that grow as replicas
    # finish, 2**40 one block up to the cap
    srw = builtin("srw", d=2)
    pair = builtin("independent_walks", d=1, c=2)
    targets = [(1, 0), (0, -2), (1, 0)]
    results = []
    for budget in (1, 7, 2**40):
        monkeypatch.setattr(engine, "_IID_VARIATES", budget)
        monkeypatch.setattr(engine, "_REPLICA_CHUNK", 3)
        results.append((hit_times(srw, targets, replicas, 300, 5),
                        first_meeting_times(pair, replicas, 300, 5),
                        meeting_gap_samples(pair, replicas, 300, 5, k_min=2, k_max=9)))
    for got in results[1:]:
        for a, b in zip(results[0], got):
            assert np.array_equal(a, b)
    assert results[0][2].size > 0


@pytest.mark.parametrize("name,kw", [("srw", {"d": 1}), ("independent_walks", {"d": 2, "c": 2})],
                         ids=["srw_d1", "independent_walks_d2"])
def test_iid_blocks_share_one_workspace(name, kw):
    # the i.i.d. path writes every block into the same buffers, so a block is
    # valid until the iteration resumes: copies taken as the blocks come,
    # with replicas dropped between blocks, equal the reference stepper
    p = builtin(name, **kw)
    assert engine._compile(p).iid_single
    n, start, cap = 40, 3, 2000
    ref = _ReferenceVectorSim(p, n, 11, start)
    want = []
    for _ in range(cap):
        ref.step()
        want.append(ref.keys)
    sim = VectorSim(p, n, 11, replica_start=start)
    rng = np.random.default_rng(4)
    views, copies, end = [], [], 0
    for t0, keys, states in sim.blocks(cap):
        assert t0 == end
        end = t0 + len(keys)
        copies.append((t0, sim.replicas - start, keys.copy(), states.copy()))
        views.append(keys)
        sim.drop(rng.random(sim.n_active) < 0.2)
    assert end == cap and len(copies) >= 3
    assert all(np.shares_memory(views[0], v) for v in views[1:])
    for t0, rows, keys, states in copies:
        assert np.array_equal(keys, np.stack(want[t0:t0 + len(keys)])[:, rows])
        assert np.array_equal(states[0], ref.states[rows])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("cap,k_min,k_max", [
    (800, 1, 64), (800, 3, 3), (800, 1, 1), (1, 1, 4),
    (5, 1, 4),  # a cap shorter than the first block of 2**14 // 40 steps
])
def test_iid_meeting_gaps_match_stepwise_loop(d, cap, k_min, k_max):
    p = builtin("independent_walks", d=d, c=2)
    assert engine._compile(p).iid_single
    got = meeting_gap_samples(p, 40, cap, 17, k_min, k_max)
    want = _meeting_gaps_stepwise(p, 40, cap, 17, k_min, k_max)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("k_max", [1, 3])
def test_iid_meeting_gaps_kmax_meeting_on_block_end(monkeypatch, k_max):
    # size the first block so that replica 0's k_max-th meeting is its last step
    p = builtin("independent_walks", d=1, c=2)
    replicas = 30
    n_k = extract_renewal(run(p, 400, SeedSpec(8))).meeting_times[k_max]
    monkeypatch.setattr(engine, "_IID_VARIATES", n_k * replicas)
    assert engine._iid_block(0, 400, replicas) == n_k
    got = meeting_gap_samples(p, replicas, 400, 8, 1, k_max)
    want = _meeting_gaps_stepwise(p, replicas, 400, 8, 1, k_max)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k_max", [1, 3])
def test_meeting_gaps_kmax_meeting_on_window_end(monkeypatch, k_max):
    # the anchored sweeper steps a VectorSim; choose the longest window
    # under which replica 0's k_max-th meeting is the last step of a block.
    # Two replicas read the blocks of VectorSim.step: a lone one steps the
    # scalar kernel
    p = builtin("anchored_geometric", d=1, p="1/2")
    assert not engine._compile(p).iid_single
    n_k = extract_renewal(run(p, 400, SeedSpec(8))).meeting_times[k_max]
    for window in range(n_k, 0, -1):
        monkeypatch.setattr(engine, "_HIT_WINDOW", window)
        if n_k in {t0 + len(keys) for t0, keys, _ in VectorSim(p, 2, 8).blocks(400)}:
            break
    assert window > 1
    got = meeting_gap_samples(p, 30, 400, 8, 1, k_max)
    assert np.array_equal(got, _meeting_gaps_stepwise(p, 30, 400, 8, 1, k_max))


# block partitions of the source: the default rules, one step per block, a
# fixed odd block, and one block up to the cap; each with the variate budget
# that sizes the stepped draws: one step per draw, draws of 1009 // (R * c)
# steps (1009 is prime, so no R * c divides it) that end inside a block, and
# one draw up to the cap
PARTITIONS = {
    "default": None,
    "one_step": (lambda t0, cap, active: 1, 1, 1),
    "seven": (lambda t0, cap, active: min(cap - t0, 7), 7, 1009),
    "whole": (lambda t0, cap, active: cap - t0, 1 << 30, 1 << 30),
}


@pytest.fixture(params=sorted(PARTITIONS))
def partition(request, monkeypatch):
    rule = PARTITIONS[request.param]
    if rule is not None:
        monkeypatch.setattr(engine, "_iid_block", rule[0])
        monkeypatch.setattr(engine, "_HIT_WINDOW", rule[1])
        monkeypatch.setattr(engine, "_IID_VARIATES", rule[2])
    return request.param


@pytest.mark.parametrize("budget", [1, 1009, 1 << 30])
def test_stepped_draws_span_blocks(monkeypatch, budget):
    # the budget sizes the stepped draws: one step each, 1009 // (R * c)
    # steps that end inside a block, and one draw up to the cap.  Replicas
    # dropped mid-draw, and the last one handed to the scalar kernel with
    # its draw partly read, take the values of each replica's own trace
    monkeypatch.setattr(engine, "_IID_VARIATES", budget)
    p = builtin("anchored_geometric", d=1, p="1/2")
    n, start, cap = 12, 3, 400
    want = [run(p, cap, SeedSpec(11, replica=start + k)) for k in range(n)]
    sim = VectorSim(p, n, 11, replica_start=start)
    rng = np.random.default_rng(4)
    handoff = None
    for t0, keys, states in sim.blocks(cap):
        for j, k in enumerate((sim.replicas - start).tolist()):
            steps = slice(t0 + 1, t0 + 1 + len(keys))
            assert np.array_equal(keys[:, j], want[k].positions[steps, :, 0])
            assert np.array_equal(states[:, j], want[k].state_idx[steps])
        if sim.n_active > 1:
            draw_end = sim._draw[0] + len(sim._draw[2])
            done = rng.random(sim.n_active) < 0.3
            done[-1] = False
            sim.drop(done)
            if sim.n_active == 1:
                handoff = sim.time, draw_end
    assert sim.time == cap and handoff is not None
    # the lone replica leaves rows of its draw unread unless each draw is one step
    assert (handoff[1] > handoff[0]) == (budget > 1)


@pytest.mark.parametrize("name,targets", [
    ("srw1", [(0,), (2,), (2,), (-3,), (10**6,)]),
    ("srw1", [(0,), (1,), (-1,), (2,), (-2,), (3,), (3,), (-4,), (10**6,)]),
    ("srw2", [(0, 0), (1, 1), (1, 1), (-2, 0), (10**6, 0)]),
    ("anchored2", [(0, 0), (1, 0), (1, 0), (0, -2), (3, 3), (10**6, 3)]),
])
def test_target_lookups_agree(monkeypatch, name, targets):
    # a compare per target key and the searchsorted of every key find the
    # same hits, with the origin, a repeated target and one out of reach
    p = {"srw1": builtin("srw", d=1), "srw2": builtin("srw", d=2),
         "anchored2": builtin("anchored_geometric", d=2)}[name]
    got = []
    for few in (0, 1 << 30):
        monkeypatch.setattr(engine, "_FEW_TARGETS", few)
        got.append(hit_times(p, targets, 40, 300, 11))
    assert np.array_equal(got[0], got[1])
    assert (got[0][:, 0] == 0).all() and (got[0][:, -1] == 301).all()
    assert (got[0][:, 1:-1] <= 300).any()


@pytest.mark.parametrize("name", ["independent_walks", "anchored_geometric"])
def test_stopping_times_match_references_under_partitions(partition, name, monkeypatch):
    # an i.i.d. protocol (block draws) and an environment-dependent one
    # (VectorSim windows), each against the references bit for bit
    p = builtin(name, d=1) if name == "anchored_geometric" else builtin(name, d=1, c=2)
    assert engine._compile(p).iid_single == (name == "independent_walks")
    targets = [(1,), (0,), (-3,), (1,), (10**9,)]
    want = _hit_times_oracle(p, targets, 12, 150, 5)
    monkeypatch.setattr(engine, "_REPLICA_CHUNK", 5)
    assert np.array_equal(hit_times(p, targets, 12, 150, 5), want)
    # replica 7 alone: a one-replica range that starts past replica 0
    monkeypatch.setattr(engine, "_REPLICA_CHUNK", 1)
    assert hit_times(p, [(-3,)], 8, 150, 5)[7, 0] == want[7, 2]
    want = _first_meetings_stepwise(p, 60, 150, 5)
    monkeypatch.setattr(engine, "_REPLICA_CHUNK", 25)
    assert np.array_equal(first_meeting_times(p, 60, 150, 5), want)
    for k_min, k_max in ((1, 64), (2, 3)):
        want = _meeting_gaps_stepwise(p, 30, 150, 5, k_min, k_max)
        got = meeting_gap_samples(p, 30, 150, 5, k_min, k_max)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_first_meeting_survival_slope():
    # difference walk of two independent walks: N_1 tail decays like u^{-1/2}
    from scoutsim.tails import SurvivalCurve, fit_tail
    p = builtin("independent_walks", d=1, c=2)
    times = first_meeting_times(p, 30000, 1 << 14, 31)
    curve = SurvivalCurve.from_samples(times, 1 << 14)
    fit = fit_tail(curve, "power")
    assert abs(fit.slope + 0.5) < 0.05


# grid keys


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-(2**31) + 1, 2**31 - 1)] * d), min_size=1, max_size=30)))
def test_pack_round_trip_and_order(points):
    pts = np.array(points, dtype=np.int64)
    keys = engine._pack(pts)
    assert keys.shape == pts.shape[:1]
    assert np.array_equal(engine._unpack(keys, pts.shape[1]), pts)
    # sorted distinct keys unpack to the points in np.unique(axis=0) order
    assert np.array_equal(engine._unpack(np.unique(keys), pts.shape[1]),
                          np.unique(pts, axis=0))


def _with_origin(p, origin):
    return dataclasses.replace(p, initial_position=origin)


def test_far_targets_do_not_alias():
    # packed without the reach filter, (0, 2**32) would share the key of
    # (1, 0), and (2**40, -2**40) would wrap onto a near point
    p = builtin("anchored_geometric", d=2)
    targets = [(1, 0), (0, 2**32), (2**40, -2**40), (-1, 2**32 - 1), (0, 0)]
    want = _hit_times_oracle(p, targets, 12, 200, 3)
    assert (want[:, 1:4] == 201).all() and (want[:, 0] <= 200).any()
    assert np.array_equal(hit_times(p, targets, 12, 200, 3), want)
    srw = builtin("srw", d=2)
    want = _hit_times_oracle(srw, targets, 12, 200, 3)
    assert np.array_equal(hit_times(srw, targets, 12, 200, 3), want)


def test_key_range_error():
    # keys hold offsets from the origin, so the bound is on the steps alone:
    # below 2**31 for d = 2 and below 2**63 for d = 1, from any origin.  A
    # target at the origin is hit at time 0, so a cap that passes the check
    # runs no step
    origin = (2**31 - 100, 0)
    far = _with_origin(builtin("anchored_geometric", d=2), origin)
    pair = _with_origin(builtin("independent_walks", d=2, c=2), (0, -(2**31) + 50))
    for call in (lambda: hit_times(far, [origin], 2, 2**31, 0),
                 lambda: hit_times(far, [origin], 1, 2**31, 0),
                 lambda: run_batch(far, 2**31, 0, 0),
                 lambda: first_meeting_times(pair, 2, 2**31, 0),
                 lambda: meeting_gap_samples(pair, 2, 2**31, 0),
                 lambda: VectorSim(far, 2, 0).blocks(2**31)):
        with pytest.raises(PreconditionError, match="2\\*\\*31"):
            call()
    # one step less stays inside the range
    assert hit_times(far, [origin], 2, 2**31 - 1, 0).tolist() == [[0], [0]]
    assert run_batch(far, 2**31 - 1, 0, 0)[0].shape == (0, 2**31, 3, 2)
    # d = 1 with moves of 2: 2**62 steps reach 2**63
    rules = (TransitionRule("A", EnvPattern.wildcard(), (Outcome(Fraction(1), "A", (2,)),)),)
    plus2 = ScoutProtocol(dim=1, scouts=1, state_names=("A",), initial_position=(2**63 - 1,),
                          initial_states=("A",), rules=rules)
    with pytest.raises(PreconditionError, match="2\\*\\*63"):
        hit_times(plus2, [(2**63 - 1,)], 2, 2**62, 0)
    assert hit_times(plus2, [(2**63 - 1,)], 2, 2**62 - 1, 0).tolist() == [[0], [0]]


def _plus_one_from(origin):
    return _with_origin(parse_protocol(DET_PLUS), origin)


def test_run_batch_leaving_int64_raises_like_run():
    # run_batch wrapped from 2**63 - 1 to -2**63 where run raised
    srw = _with_origin(builtin("srw", d=1), (2**63 - 3,))
    for p, seed in ((srw, 2), (_plus_one_from((2**63 - 3,)), 0),
                    (_with_origin(parse_protocol(DET_PLUS.replace("+1", "-1")),
                                  (-(2**63) + 3,)), 0)):
        with pytest.raises(OverflowError):
            run(p, 10, SeedSpec(seed))
        with pytest.raises(OverflowError):
            run_batch(p, 10, seed, 1)
    # the steps before the wrap still run, on both paths
    p = _plus_one_from((2**63 - 3,))
    assert run_batch(p, 2, 0, 1)[0][0, :, 0, 0].tolist() == [2**63 - 3, 2**63 - 2, 2**63 - 1]
    assert run(p, 2, SeedSpec(0)).positions[:, 0, 0].tolist() == [2**63 - 3, 2**63 - 2, 2**63 - 1]


def test_hit_near_the_int64_edge():
    # the reach filter computed origin + span in int64, which wrapped, so a
    # point the walk stands on at step 2 was reported censored
    srw = _with_origin(builtin("srw", d=1), (2**63 - 3,))
    assert run(srw, 2, SeedSpec(2)).positions[2, 0, 0] == 2**63 - 1
    assert hit_times(srw, [(2**63 - 1,)], 1, 10, 2).tolist() == [[2]]
    low = _with_origin(builtin("srw", d=1), (-(2**63) + 2,))
    want = _hit_times_oracle(low, [(-(2**63),), (-(2**63) + 1,)], 4, 2, 5)
    assert np.array_equal(hit_times(low, [(-(2**63),), (-(2**63) + 1,)], 4, 2, 5), want)


@pytest.mark.parametrize("make", [_srw_d2_far, _anchored_d2_far], ids=["srw", "anchored"])
def test_far_d2_origin_runs_on_every_path(make, monkeypatch):
    # run_batch and hit_times refused this origin before any step, though
    # run keyed it from the origin
    p = make()
    P, S = run_batch(p, 200, 13, replicas=4, replica_start=2)
    for k in range(4):
        tr = run(p, 200, SeedSpec(13, replica=2 + k))
        assert np.array_equal(tr.positions, P[k])
        assert np.array_equal(tr.state_idx, S[k])
    sim = VectorSim(p, 4, 13, replica_start=2)
    list(sim.blocks(200))
    assert np.array_equal(sim.positions, P[:, -1])
    # the origin, points some trace visits and a point out of reach
    origin = p.initial_position
    targets = [origin, tuple(P[1, 7, 0]), tuple(P[3, 150, -1]),
               (origin[0] + 300, origin[1])]
    want = _hit_times_oracle(p, targets, 6, 200, 13)
    assert (want[:, 0] == 0).all() and (want[:, 1:3] <= 200).any()
    assert np.array_equal(hit_times(p, targets, 6, 200, 13), want)
    monkeypatch.setattr(engine, "_REPLICA_CHUNK", 4)
    assert np.array_equal(hit_times(p, targets, 6, 200, 13), want)


@pytest.mark.parametrize("cap", [1, 63, 64, 65, 130])
def test_hit_times_general_path_window_edges(cap):
    p = builtin("anchored_geometric", d=2)
    targets = [(x, y) for x in range(-2, 3) for y in range(-2, 3)] + [(9, 9)]
    want = _hit_times_oracle(p, targets, 10, cap, 6)
    assert np.array_equal(hit_times(p, targets, 10, cap, 6), want)


def test_hit_times_general_path_done_on_window_boundary(monkeypatch):
    # deterministic +1 walk: the last target is hit at exactly step 64, a
    # window boundary, where the replica finishes and is dropped; the walk
    # is i.i.d., so it runs on block draws and then on VectorSim windows
    p = parse_protocol(DET_PLUS)
    for vectorsim in (False, True):
        if vectorsim:
            _vectorsim_path(monkeypatch, p)
        assert (hit_times(p, [(64,), (3,), (63,)], 3, 200, 0) == [64, 3, 63]).all()
        assert (hit_times(p, [(65,), (64,)], 3, 64, 0) == [65, 64]).all()


def test_d2_batch_and_vectorsim_positions_at_negative_coordinates():
    for p in (_with_origin(builtin("anchored_geometric", d=2), (-5, -9)),
              _with_origin(builtin("srw", d=2), (-(2**31) + 301, 2**31 - 301))):
        P, S = run_batch(p, 300, 13, replicas=4, replica_start=2)
        sim = VectorSim(p, 4, 13, replica_start=2)
        for _ in range(300):
            _step(sim)
        for k in range(4):
            tr = run(p, 300, SeedSpec(13, replica=2 + k))
            assert np.array_equal(tr.positions, P[k])
            assert np.array_equal(tr.state_idx, S[k])
            assert np.array_equal(sim.positions[k], tr.positions[-1])
        assert P.min() < 0


# engine digests: sha256 of the little-endian int64 bytes of each result at
# seeds 0, 7 and 12345.  The counters fix every value, so no block rule, draw
# length or drop may move one; a new stream layout regenerates the table
_ANCHORED1 = builtin("anchored_geometric", d=1, p="1/2")
_ANCHORED2 = builtin("anchored_geometric", d=2, p="1/2")
_PAIR = builtin("independent_walks", d=1, c=2)
ENGINE_DIGESTS = {
    # the sweep2d_hitting shape: 32 replicas, 81 targets, cap 1024
    "sweep2d": (lambda s: hit_times(_ANCHORED2, [(x, y) for x in range(-4, 5)
                                                 for y in range(-4, 5)], 32, 1024, s), (
        "b90b66dbb49937bed7bf50959a2287864e0fe6e26609e041b2a40541bab28854",
        "758887d60aa1edf26671b814be53c3e5d6f40072f6eda41c0c1e5b159f813e91",
        "d93e8bd523a47b1809fdf4aeb45d90ad1aa0e2aced2b7ba619fb71e030045245")),
    # replicas finish early, and the last one steps the scalar kernel
    "anchored1_early": (lambda s: hit_times(_ANCHORED1, [(1,), (-1,), (2,)], 300, 4096, s), (
        "ff45e09d10faa58a4cd8c50a48047ab951f5503a33ed391bcd05e5c101db4148",
        "5ef53244ed1d0b943e627d4369aaa24602448f1db4408915b27a6332eabbdccd",
        "720dd6332d3530cdab247eae41c309314f710f59c23ad9663d641c059a5bed84")),
    "srw1": (lambda s: hit_times(builtin("srw", d=1), [(1,), (-4,), (9,)], 500, 1 << 13, s), (
        "fbc163f6802de6bf18df29e3492fcd99257a29681a9e7309ab3ed0e298c081e3",
        "3e49994385613fc724049a6e487eb671087f141d609a1ca6b076b27b8e032d45",
        "8a7f9df3a4e07ac7a926c2db7cc925fb8c5f4c1b1120a5d3a63759e5d9f35c1d")),
    "meet_anchored1": (lambda s: first_meeting_times(_ANCHORED1, 500, 1024, s), (
        "a8704f414f12618238edb25424990a07096082a782f2451857e4fede0bb23ad0",
        "fa0e4fa2a4ab4879bc238416d6210e487c9a8952a1b6d5bd0a7ca2ac48f4c186",
        "6294238dc0a67ae1fcbc6961b3b09f4b20a61e12d6b11b45bbb6b9e1c149b28f")),
    "gaps_anchored1": (lambda s: meeting_gap_samples(_ANCHORED1, 500, 1024, s, 1, 64), (
        "8882667914d068c0bb003a3721bd3102a776323d268dc605c3f3f6bdf50dc4a2",
        "b6f7854278faae96e256316f58235546d6de7b708abf2b7a8d2d569c8021a697",
        "585e45d094d65d1cd96c1aecec37f964b4b129f801444420bc889b167b16381a")),
    "meet_pair": (lambda s: first_meeting_times(_PAIR, 500, 1024, s), (
        "46e1d43e1e8e985d6454b6565496be460d8431160867a438eb450f0ffdebbe57",
        "058658a00a1c5624927b70b3bc5544925285dc9b8eade1e56cf7a0248649fe40",
        "72f0bc92f84674dc0242ccedd855e4bb4bf6adcfd2b16c0d8825d527274e11f8")),
    "gaps_pair": (lambda s: meeting_gap_samples(_PAIR, 500, 1024, s, 1, 64), (
        "a0e317820b01c54b46be96094257597a33667414956d29df695e8ff9d105dfd7",
        "a4a2a53a70e04ab73c5a35e3fbc66628794675a4df07bf560071946c82d81a1f",
        "649d064fe9254d74dc23264f928d4cd94c5bcd35f885c07058ffd4462a147ee3")),
    # positions, then state indices, of 8 traces of 300 steps
    "run_batch_anchored2": (lambda s: np.concatenate(
        [a.reshape(-1).astype(np.int64) for a in run_batch(_ANCHORED2, 300, s, 8)]), (
        "f37282c17388580dcb36466541acec78f4701240ebbbc24257c31d52506a3af5",
        "c443367b0d5df6cf080e50b8d3710a19a1f262642211508e3465e65898876417",
        "a98285a980b38b5c007ddfa342a46c2e7dd86e44e18ccb6974607b0ebf09c2cd")),
}


@pytest.mark.parametrize("name", sorted(ENGINE_DIGESTS))
def test_engine_digests(name):
    call, want = ENGINE_DIGESTS[name]
    got = tuple(hashlib.sha256(np.ascontiguousarray(call(seed), dtype="<i8").tobytes()).hexdigest()
                for seed in (0, 7, 12345))
    assert got == want
