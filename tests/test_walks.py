"""Look-around walk laws, oracles (checked against brute-force enumeration),
samplers, and the statistical tail checks."""

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from scoutsim import engine, walks
from scoutsim.errors import BudgetExceededError, PreconditionError
from scoutsim.tails import SurvivalCurve, fit_tail
from scoutsim.walks import (CHECKS, LookAroundWalk, NAMED_LAWS, StepLaw,
                            check_escape_under_drift,
                            check_exit_time_tail,
                            check_joint_corridor_avoidance,
                            check_upper_deviation_bound,
                            check_zero_drift_reach_tail, exact_dp_oracle,
                            make_law, mc_event_frequency, parse_law)
from scoutsim.walks import (_EVENTS, _corridor_times, _dp_survival, _frame, _interval_cond,
                            _split, _stopping_times)

from conftest import sample_walk


def srw():
    return NAMED_LAWS["srw"]()


# ---------------------------------------------------------------------------
# law construction


def test_law_validation():
    with pytest.raises(ValueError, match="sum"):
        make_law([("1/2", 1), ("1/3", -1)])
    with pytest.raises(ValueError, match="radius"):
        make_law([(1, 0, 1, 0.5)])
    with pytest.raises(ValueError, match="nu"):
        make_law([(1, 0, 0)])


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_law_rejects_non_finite_radius(radius):
    # NaN compares false with everything, so `radius < 1` let it through
    with pytest.raises(ValueError, match="radius must be finite"):
        make_law([("1/2", 1, 1, radius), ("1/2", -1)])


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf])
def test_law_rejects_non_finite_zeta(zeta):
    with pytest.raises(ValueError, match="zeta must be finite"):
        make_law([("1/2", zeta), ("1/2", -1)])


@pytest.mark.parametrize("zeta", [0.5, -0.1, 2.5, Fraction(1, 3)])
def test_law_rejects_non_integer_zeta(zeta):
    # a scout moves between grid points: a rational step is an integer step
    # on a scaled lattice, and float steps were summed in float per block
    with pytest.raises(ValueError, match="zeta must be an integer"):
        make_law([("1/2", zeta), ("1/2", -1)])
    with pytest.raises(ValueError, match="zeta must be an integer"):
        parse_law(f"1/2:{float(zeta)};1/2:-1")
    # an integer-valued float is that integer
    assert parse_law("1/2:2.0;1/2:-1").arrays[0].tolist() == [2, -1]


def test_parsed_law_rejects_overflowing_zeta():
    # 1.0e400 parses to an infinite float: the escape check passed on it and
    # the exact oracle overflowed
    with pytest.raises(ValueError, match="zeta must be finite"):
        parse_law("1/2:1.0e400;1/2:-1")


def test_law_moments_exact():
    law = make_law([("3/4", 1), ("1/4", -1)])
    assert law.mean_zeta == Fraction(1, 2)
    law2 = make_law([("1/2", 1, 2), ("1/2", -1, 2)])
    assert law2.mean_zeta == 0


@pytest.mark.parametrize("zeta", [2**63, -2**63 - 1, 10**400, 2.0**63],
                         ids=["2**63", "-2**63-1", "10**400", "2.0**63"])
def test_law_rejects_integer_zeta_beyond_int64(zeta):
    # integer displacements are carried as int64: 2**63 wrapped to -2**63
    # and 10**400 overflowed converting to float
    with pytest.raises(ValueError, match="int64"):
        make_law([("1/2", zeta), ("1/2", -1)])


def test_law_int64_zeta_extremes_exact():
    law = make_law([("1/2", 2**63 - 1), ("1/2", -2**63)])
    assert law.arrays[0].tolist() == [2**63 - 1, -2**63]
    # arrays built through float rounded 2**53 + 1 to 2**53
    assert parse_law("1/2:9007199254740993;1/2:-1").arrays[0][0] == 9007199254740993


def test_stopping_times_reject_offsets_beyond_int64():
    # 33 steps of 2**62 wrapped the int64 offsets: the escape estimate read
    # 0.34 where the walk escapes with probability 15/16
    w = LookAroundWalk(parse_law("1/2:4611686018427387904;1/2:-1"))
    with pytest.raises(PreconditionError, match="int64"):
        check_escape_under_drift(w, -5, trials=50, horizon=16)
    with pytest.raises(PreconditionError, match="int64"):
        _stopping_times([w.law], lambda S, R: S[0] < -5, 3, 1, 0)
    # one step of 2**62 fits
    assert (_stopping_times([w.law], lambda S, R: S[0] < -5, 3, 0, 0) == 1).all()


def test_stopping_times_reject_cap_marker_beyond_int64():
    # the zero law passes the offset check (its largest step is 0), and the
    # censor marker cap + 1 overflowed np.full with an OverflowError; a
    # negative cap checked nothing and returned cap + 1, also where the
    # event holds at time 0
    w = LookAroundWalk(NAMED_LAWS["zero"]())
    for cap in (2**63 - 1, -1):
        with pytest.raises(PreconditionError, match="cap"):
            check_zero_drift_reach_tail(w, 2, trials=5, cap=cap)
    with pytest.raises(PreconditionError, match="cap"):
        _stopping_times([w.law], lambda S, R: S[0] == 0, 3, -5, 0)
    with pytest.raises(PreconditionError, match="cap"):
        mc_event_frequency(w.law, 0, 2**63 - 1, "hit:5", 4, 0)
    # the largest cap whose marker fits; the event holds at time 0
    assert (_stopping_times([w.law], lambda S, R: S[0] == 0, 3, 2**63 - 2, 0) == 0).all()


def test_sampled_paths_reject_offsets_beyond_int64():
    # three steps of 2**62 wrapped: sample_walk ended at -2**63 where the walk
    # stands at 2**63, and the paths of mc_event_frequency likewise
    w = LookAroundWalk(parse_law("1/2:4611686018427387904;1/2:-1"))
    with pytest.raises(PreconditionError, match="int64"):
        sample_walk(w, 3, 0, trial=2)
    with pytest.raises(PreconditionError, match="int64"):
        mc_event_frequency(w.law, 0, 3, "hit:5", 4, 0)
    with pytest.raises(PreconditionError, match="int64"):
        mc_event_frequency(srw(), 0, 3, "meeting", 4, 0, law2=w.law, s02=0)
    # horizon 0 takes no step
    assert sample_walk(w, 0, 0, trial=2).positions.tolist() == [0]
    assert mc_event_frequency(w.law, 0, 0, "hit:5", 4, 0) == 1.0


def test_negative_horizon_rejected():
    # the oracles ended in AttributeError, and the frequency of a hit at the
    # start read 1.0
    law = srw()
    calls = [lambda: exact_dp_oracle(law, 0, -3, "hit:1"),
             lambda: exact_dp_oracle(law, 0, -1, "meeting", law2=law, s02=2),
             lambda: mc_event_frequency(law, 0, -3, "hit:0", 10, 0),
             lambda: mc_event_frequency(law, 0, -1, "meeting", 10, 0, law2=law, s02=2),
             # sample_walk ended in IndexError at -1 and "negative dimensions" at -3
             lambda: sample_walk(LookAroundWalk(law), -1, 0),
             lambda: sample_walk(LookAroundWalk(law), -3, 0)]
    for call in calls:
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            call()
    # horizon 0 checks the start only
    assert exact_dp_oracle(law, 0, 0, "hit:0") == 0
    assert mc_event_frequency(law, 0, 0, "hit:0", 10, 0) == 0.0


@pytest.mark.parametrize("name", sorted(_EVENTS))
def test_oracle_rejects_negative_horizon_for_every_event(name):
    law = srw()
    spec, pair = (name, dict(law2=law, s02=2)) if _EVENTS[name].pair else (f"{name}:1", {})
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        exact_dp_oracle(law, 0, -1, spec, **pair)


def test_mc_event_frequency_exact_at_large_positions():
    # positions were compared as float64: S_0..S_3 and the target all rounded
    # to 2**60, so a hit at 2**60 + 5 read as certain
    big = 2**60
    up, zero = parse_law("up"), parse_law("zero")
    cases = [(up, big, 3, f"hit:{big + 5}", None, None),
             (parse_law("1:1,1,2.5"), big, 3, f"reach:{big + 6}", None, None),
             (parse_law("1:1,1,2.5"), big, 4, f"reach:{big + 6}", None, None),
             (up, big, 3, "meeting", zero, big + 5),
             # radius floor(1.5 + 1.5) = 3 reaches S1 - S2 = -3 at step 3
             (parse_law("1:1,1,1.5"), big, 2, "ballmeeting", parse_law("1:0,1,1.5"), big + 6),
             (parse_law("1:1,1,1.5"), big, 3, "ballmeeting", parse_law("1:0,1,1.5"), big + 6)]
    for law, s0, horizon, event, law2, s02 in cases:
        want = exact_dp_oracle(law, s0, horizon, event, law2=law2, s02=s02)
        assert mc_event_frequency(law, s0, horizon, event, 5, 0, law2=law2, s02=s02) == want, event
    got = [mc_event_frequency(*c[:4], 5, 0, law2=c[4], s02=c[5]) for c in cases]
    assert got == [1, 1, 0, 1, 1, 0]
    # event arguments and distances that int64 cannot carry are refused
    for arg in (2**63, -2**63 - 1, 2**62):
        with pytest.raises(PreconditionError, match="int64"):
            mc_event_frequency(srw(), 0, 3, f"lookaround:{arg}", 5, 0)


def test_parse_law_named_and_literal():
    assert parse_law("srw").mean_zeta == 0
    law = parse_law("1/4:1,2,3;3/4:-1")
    assert law.outcomes[0].nu == 2 and law.outcomes[0].radius == 3.0
    assert law.mean_zeta == Fraction(1, 4) - Fraction(3, 4)


# ---------------------------------------------------------------------------
# exact oracles against brute-force enumeration


def enumerate_event(law: StepLaw, s0: int, horizon: int, indicator) -> Fraction:
    """Sum over all outcome sequences: independent enumeration oracle."""
    total = Fraction(0)
    outs = [(Fraction(o.probability), int(o.zeta), float(o.radius))
            for o in law.outcomes]
    for seq in itertools.product(range(len(outs)), repeat=horizon + 1):
        prob = Fraction(1)
        for j in seq:
            prob *= outs[j][0]
        path = [s0]
        for j in seq[:-1]:
            path.append(path[-1] + outs[j][1])
        radii = [outs[j][2] for j in seq]
        if indicator(path, radii):
            total += prob
    return total


@pytest.mark.parametrize("law_text,s0,horizon", [
    ("srw", 0, 5),
    ("1/4:2;1/4:-2;1/2:0", 0, 4),
    ("1/3:1,1,2;2/3:-1,1,1", 1, 4),
    # non-dyadic weights over D = 6 and fractional radii: lcm scaling and
    # the floor(R) comparison
    ("1/3:1,1,1.5;1/6:-2,1,2.5;1/2:0", 0, 4),
    ("1/6:1,1,1.5;1/3:-1,1,3.5;1/2:0,1,1", -1, 4),
])
def test_oracles_match_enumeration(law_text, s0, horizon):
    law = parse_law(law_text)
    target = 2
    got = exact_dp_oracle(law, s0, horizon, f"hit:{target}")
    want = enumerate_event(law, s0, horizon,
                           lambda path, radii: target not in path)
    assert got == want

    got = exact_dp_oracle(law, s0, horizon, f"lookaround:{target}")
    want = enumerate_event(
        law, s0, horizon,
        lambda path, radii: all(abs(x - target) > r for x, r in zip(path, radii)))
    assert got == want

    got = exact_dp_oracle(law, s0, horizon, f"reach:{target}")
    want = enumerate_event(
        law, s0, horizon,
        lambda path, radii: all(x + r < target for x, r in zip(path, radii)))
    assert got == want

    got = _dp_survival(law, horizon, _interval_cond(*_frame(s0, -1, 1)))

    def dist(x):
        return max(-1 - x, x - 1, 0)

    want = enumerate_event(
        law, s0, horizon,
        lambda path, radii: all(dist(x) > r for x, r in zip(path, radii)))
    assert got == want


ENUM_LAWS = (
    "srw",
    "1/3:1,1,1.5;1/6:-2,1,2.5;1/2:0",     # zero drift
    "1/3:2,1,1.5;1/6:-1,1,3;1/2:1",        # positive drift
    "1/6:1,1,1.5;1/3:-1,1,1;1/2:0,1,2.5",  # negative drift
)


@pytest.mark.parametrize("law_text", ENUM_LAWS)
def test_position_and_exit_oracles_match_enumeration(law_text):
    law = parse_law(law_text)
    horizon = 4
    for s0, y in ((0, 0), (1, 2), (-1, -3)):
        got = exact_dp_oracle(law, s0, horizon, f"position:{y}")
        want = enumerate_event(law, s0, horizon, lambda path, radii: path[-1] == y)
        assert got == want
    drift = law.mean_zeta
    for s0, rho in ((0, 1), (1, 2), (0, 0)):
        if drift == 0:
            out = lambda x: abs(x) > rho
        elif drift > 0:
            out = lambda x: x > rho
        else:
            out = lambda x: x < -rho
        got = exact_dp_oracle(law, s0, horizon, f"exit:{rho}")
        want = enumerate_event(law, s0, horizon,
                               lambda path, radii: not any(out(x) for x in path))
        assert got == want


def enumerate_pair(law1: StepLaw, law2: StepLaw, s01: int, s02: int, horizon: int,
                   indicator) -> Fraction:
    """Sum over both walks' outcome sequences: two independent walks."""
    def paths(law, s0):
        outs = [(Fraction(o.probability), int(o.zeta), float(o.radius))
                for o in law.outcomes]
        for seq in itertools.product(outs, repeat=horizon + 1):
            prob = math.prod(p for p, _z, _r in seq)
            path = [s0]
            for _p, z, _r in seq[:-1]:
                path.append(path[-1] + z)
            yield prob, path, [r for _p, _z, r in seq]

    total = Fraction(0)
    second = list(paths(law2, s02))
    for p1, path1, radii1 in paths(law1, s01):
        for p2, path2, radii2 in second:
            if indicator(path1, radii1, path2, radii2):
                total += p1 * p2
    return total


@pytest.mark.parametrize("law_text1,law_text2,s01,s02", [
    ("srw", "srw", 0, 2),
    (ENUM_LAWS[1], ENUM_LAWS[3], 0, 3),
    (ENUM_LAWS[2], ENUM_LAWS[1], -2, 2),
])
def test_two_walk_oracles_match_enumeration(law_text1, law_text2, s01, s02):
    law1, law2 = parse_law(law_text1), parse_law(law_text2)
    horizon = 3
    got = exact_dp_oracle(law1, s01, horizon, "meeting", law2=law2, s02=s02)
    want = enumerate_pair(
        law1, law2, s01, s02, horizon,
        lambda p1, r1, p2, r2: all(a != b for a, b in zip(p1[1:], p2[1:])))
    assert got == want
    got = exact_dp_oracle(law1, s01, horizon, "ballmeeting", law2=law2, s02=s02)
    want = enumerate_pair(
        law1, law2, s01, s02, horizon,
        lambda p1, r1, p2, r2: all(abs(a - b) > ra + rb
                                   for a, b, ra, rb in zip(p1, p2, r1, r2)))
    assert got == want


def test_radius_oracles_need_integer_arguments():
    # the floor(R) comparison is exact only against integer distances
    law = parse_law(ENUM_LAWS[1])
    for spec in ("lookaround:2.5", "reach:2.0"):
        with pytest.raises(ValueError, match="integer argument"):
            exact_dp_oracle(law, 0, 3, spec)


def test_oracle_frozen_values():
    assert exact_dp_oracle(srw(), 0, 3, "hit:1") == Fraction(3, 8)
    assert exact_dp_oracle(srw(), 0, 2, "position:0") == Fraction(1, 2)
    up = NAMED_LAWS["up"]()
    assert exact_dp_oracle(up, 0, 4, "hit:5") == 1
    assert exact_dp_oracle(up, 0, 5, "hit:5") == 0
    assert exact_dp_oracle(srw(), 0, 1, "meeting", law2=srw(), s02=0) == Fraction(1, 2)
    assert exact_dp_oracle(srw(), 0, 2, "meeting", law2=srw(), s02=0) == Fraction(3, 8)


def test_oracle_exit_deterministic():
    up = NAMED_LAWS["up"]()
    assert exact_dp_oracle(up, 0, 5, "exit:5") == 1
    assert exact_dp_oracle(up, 0, 6, "exit:5") == 0


def test_oracle_requires_integer_zeta():
    # the oracle refused the law; every walk now refuses it at construction
    with pytest.raises(ValueError, match="integer"):
        make_law([("1/2", 0.5), ("1/2", -0.5)])


def test_oracle_budget_guard():
    with pytest.raises(BudgetExceededError):
        exact_dp_oracle(srw(), 0, 1 << 20, "hit:1")


def test_oracle_dispatcher():
    assert exact_dp_oracle(srw(), 0, 3, "hit:1") == Fraction(3, 8)
    assert exact_dp_oracle(srw(), 0, 2, "position:0") == Fraction(1, 2)
    assert exact_dp_oracle(srw(), 0, 2, "meeting", law2=srw(), s02=0) == Fraction(3, 8)
    with pytest.raises(ValueError, match="unknown oracle event"):
        exact_dp_oracle(srw(), 0, 2, "nonsense:1")


def test_mc_matches_oracle_4sigma():
    law = parse_law("1/4:2;1/4:-2;1/2:0")
    horizon = 8
    for event in ("hit:2", "lookaround:3", "reach:4"):
        p = float(exact_dp_oracle(law, 0, horizon, event))
        f = mc_event_frequency(law, 0, horizon, event, 30000, 77)
        sigma = math.sqrt(p * (1 - p) / 30000)
        assert abs(f - p) <= 4 * sigma + 1e-9, (event, f, p)


# ---------------------------------------------------------------------------
# the packed DP against the dict-of-positions DP it replaced


def dict_dp_survival(law: StepLaw, horizon: int, cond, check_from: int = 0) -> Fraction:
    """Reference: one dict of integer numerators per step, keyed by the
    offset from the start, with the merged (zeta, weight) moves that survive
    there looked up once per position."""
    walks._budget_check(law, horizon + 1)
    D, outs = walks._exact_outcomes(law)
    radii = {r for _a, _z, r in outs}

    def merged(weighted):
        acc = defaultdict(int)
        for a, z in weighted:
            acc[z] += a
        return tuple((z, a) for z, a in acc.items() if a)

    every = merged((a, z) for a, z, _r in outs)
    checked, unchecked = {}, {}

    def moves(table, s, rule):
        if s not in table:
            table[s] = rule(s)
        return table[s]

    def rule(s):
        dead = {r for r in radii if cond(s, r)}
        return merged((a, z) for a, z, r in outs if r not in dead) if dead else every

    dist = {0: 1}
    for n in range(horizon):
        table, how = (checked, rule) if n >= check_from else (unchecked, lambda s: every)
        new = defaultdict(int)
        for s, w in dist.items():
            for z, a in moves(table, s, how):
                new[s + z] += w * a
        if not new:
            return Fraction(0)
        dist = new
    table, how = (checked, rule) if horizon >= check_from else (unchecked, lambda s: every)
    total = sum(w * sum(a for _z, a in moves(table, s, how)) for s, w in dist.items())
    return Fraction(total, D ** (horizon + 1))


def random_dp_law(rng) -> StepLaw:
    """1-4 outcomes with zeta in [-3, 3], radii in {1, 1.5, 2, 3.7} and some
    zero weights; about a quarter of the laws take the probabilities 1/7,
    1/9, 1/11 and the rest, so that D reaches 7 * 9 * 11 with four outcomes."""
    size = int(rng.integers(1, 5))
    if rng.random() < 0.25:
        probs = [Fraction(1, 7), Fraction(1, 9), Fraction(1, 11)][:size - 1]
        probs.append(1 - sum(probs, Fraction(0)))
    else:
        weights = [int(v) for v in rng.integers(0, 5, size=size)]
        weights[int(rng.integers(size))] += 1
        probs = [Fraction(w, sum(weights)) for w in weights]
    return make_law([(p, int(rng.integers(-3, 4)), 1, float(rng.choice([1, 1.5, 2, 3.7])))
                     for p in probs])


def dp_case(name: str, law: StepLaw, s0: int, horizon: int, arg, law2=None, s02=None):
    """The (law, horizon, cond, check_from) that ``exact_dp_oracle`` runs."""
    ev = walks._EVENTS[name]
    if ev.pair:
        law = walks._difference_law(law, law2)
    cond, _ = walks._event_cond(ev, arg, law, s0, s02 if ev.pair else 0)
    return law, horizon, cond, ev.first(horizon)


def test_packed_dp_matches_dict_dp():
    # no check before the first meeting check; a walk that never moves;
    # steps 1000 apart, which pack every 1000th position
    wide = parse_law("1/4:1000,1,2.5;1/4:-1000;1/2:0,1,2")
    for case in [dp_case("meeting", srw(), 3, 0, None, srw(), 3),
                 dp_case("hit", parse_law("zero"), 2, 9, 2),
                 dp_case("reach", parse_law("1/2:0,1,3.7;1/2:0"), 2, 9, 5),
                 dp_case("lookaround", wide, 7, 6, 1009),
                 dp_case("ballmeeting", wide, 7, 4, None, srw(), -994)]:
        assert walks._dp_survival(*case) == dict_dp_survival(*case)
    rng = np.random.default_rng(13)
    seen = defaultdict(int)
    for _ in range(420):
        name = sorted(walks._EVENTS)[int(rng.integers(len(walks._EVENTS)))]
        law, law2 = random_dp_law(rng), random_dp_law(rng)
        s0, s02 = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        horizon = int(rng.integers(0, 26 if not walks._EVENTS[name].pair else 14))
        arg = int(rng.integers(-8, 9))
        case = dp_case(name, law, s0, horizon, arg, law2, s02)
        want = dict_dp_survival(*case)
        assert walks._dp_survival(*case) == want, (name, law, s0, horizon, arg, law2, s02)
        seen[name] += 1
        seen["dead"] += want == 0
        seen["large D"] += math.lcm(*(Fraction(o.probability).denominator
                                      for o in case[0].outcomes)) % 693 == 0
        zs = [int(o.zeta) for o in case[0].outcomes if o.probability]
        seen["stride > 1"] += math.gcd(*(z - min(zs) for z in zs)) > 1
    assert len(seen) == len(walks._EVENTS) + 3 and min(seen.values()) >= 10, seen


@pytest.mark.parametrize("law_text,name,arg,horizon", [
    ("up", "hit", 3, 5),                       # every path hits at step 3
    ("srw", "exit", 0, 4),                     # centred: |S_1| = 1 > 0
    ("1/2:1,1,2;1/2:-1,1,1.5", "lookaround", 0, 3),  # S_0 = 0 within every radius
    ("srw", "position", 1, 4),                 # parity: S_4 is even
])
def test_packed_dp_all_mass_dies(law_text, name, arg, horizon):
    case = dp_case(name, parse_law(law_text), 0, horizon, arg)
    assert walks._dp_survival(*case) == dict_dp_survival(*case) == 0
    assert isinstance(walks._dp_survival(*case), Fraction)


def test_packed_dp_budget_at_the_same_cell_count(monkeypatch):
    # cells = (2 * span * (horizon + 1) + 1) * (horizon + 1) * outcomes
    law = parse_law("1/4:3;1/4:-2;1/2:0")
    monkeypatch.setattr(walks, "_DP_CELL_BUDGET", (2 * 3 * 8 + 1) * 8 * 3)
    case = dp_case("hit", law, 0, 7, 5)
    assert walks._dp_survival(*case) == dict_dp_survival(*case)
    case = dp_case("hit", law, 0, 8, 5)
    for dp in (walks._dp_survival, dict_dp_survival):
        with pytest.raises(BudgetExceededError, match=f"~{(2 * 3 * 9 + 1) * 9 * 3} cells"):
            dp(*case)


# ---------------------------------------------------------------------------
# sampler


def test_sample_walk_deterministic_laws():
    up = LookAroundWalk(NAMED_LAWS["up"](), 2.0)
    path = sample_walk(up, 5, 0)
    assert list(path.positions) == [2, 3, 4, 5, 6, 7]
    assert list(path.times) == [0, 1, 2, 3, 4, 5]
    zero = LookAroundWalk(NAMED_LAWS["zero"]())
    assert list(sample_walk(zero, 4, 0).positions) == [0] * 5


def test_sample_walk_martingale_variance():
    # Var S_n = n for the simple walk: S_n^2 - n has mean 0
    walk = LookAroundWalk(srw())
    n = 100
    vals = []
    for trial in range(4000):
        path = sample_walk(walk, n, 99, trial=trial)
        vals.append(path.positions[-1] ** 2 - n)
    vals = np.array(vals, dtype=float)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean()) <= 4 * se


def test_sample_walk_time_component():
    law = make_law([(1, 1, 3, 2.0)])
    path = sample_walk(LookAroundWalk(law), 4, 0)
    assert list(path.times) == [0, 3, 6, 9, 12]
    assert list(path.radii) == [2.0] * 5


# ---------------------------------------------------------------------------
# checks


_TRIALS_CALLS = {
    check_escape_under_drift: lambda n: check_escape_under_drift(
        LookAroundWalk(NAMED_LAWS["up"]()), -10.0, trials=n, horizon=16),
    check_zero_drift_reach_tail: lambda n: check_zero_drift_reach_tail(
        LookAroundWalk(srw()), 10.0, trials=n, cap=64),
    check_exit_time_tail: lambda n: check_exit_time_tail(LookAroundWalk(srw()), 5, trials=n),
    check_upper_deviation_bound: lambda n: check_upper_deviation_bound(
        LookAroundWalk(srw()), 0.2, 100, 20.0, trials=n),
    check_joint_corridor_avoidance: lambda n: check_joint_corridor_avoidance(
        LookAroundWalk(srw(), 8), LookAroundWalk(srw(), -8), (-2, 2), trials=n, cap=64),
    mc_event_frequency: lambda n: mc_event_frequency(srw(), 0, 3, "hit:1", n, 0),
}


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("name", sorted(CHECKS) + ["mc_event_frequency"])
def test_trials_below_one_refused(name, trials):
    # at trials=0 escape and deviation raised ZeroDivisionError, exit time
    # warned "Mean of empty slice" and failed, reach tail and corridor failed;
    # negative counts hit numpy's "negative dimensions"
    with pytest.raises(ValueError, match="trials must be >= 1"):
        _TRIALS_CALLS[CHECKS.get(name, mc_event_frequency)](trials)


def test_escape_deterministic_up():
    res = check_escape_under_drift(LookAroundWalk(NAMED_LAWS["up"]()), -10.0,
                                   trials=400, horizon=128, root_seed=1)
    assert res.passed
    assert res.estimate == 1.0


def test_escape_drifted_matches_ruin_formula():
    # up 3/4 / down 1/4 from 0: never reaching -19 has probability 1-(1/3)^19
    res = check_escape_under_drift(LookAroundWalk(NAMED_LAWS["drift34"]()), -20.0,
                                   trials=3000, horizon=512, root_seed=2)
    assert res.passed
    analytic = 1 - (1 / 3) ** 19
    assert res.ci[0] <= analytic <= res.ci[1] + 1e-9


def test_escape_target_in_reach():
    res = check_escape_under_drift(LookAroundWalk(NAMED_LAWS["up"](), 0.0), -1.0,
                                   trials=200, horizon=64, root_seed=3)
    assert res.estimate == 0.0
    assert not res.passed


def test_escape_horizon_snapshot_is_prefix():
    # the half-horizon estimate counts exactly horizon+1 checks: with a law
    # that approaches x late, the two estimates must differ
    law = make_law([("3/5", 1), ("2/5", -1)])
    res = check_escape_under_drift(LookAroundWalk(law, 0.0), -2.0,
                                   trials=4000, horizon=5, root_seed=11)
    est_h = res.details["estimate_at_horizon"]
    est_2h = res.details["estimate_at_double_horizon"]
    assert est_h > est_2h  # more time, more chances to dip down to x


def test_escape_preconditions():
    with pytest.raises(PreconditionError, match="E\\[zeta\\] > 0"):
        check_escape_under_drift(LookAroundWalk(srw()), -5.0)
    with pytest.raises(PreconditionError, match="x < s0"):
        check_escape_under_drift(LookAroundWalk(NAMED_LAWS["up"]()), 5.0)


def test_reach_tail_degenerate_flat():
    res = check_zero_drift_reach_tail(LookAroundWalk(NAMED_LAWS["zero"]()), 10.0,
                                      trials=300, cap=256, root_seed=1)
    assert not res.passed
    assert res.estimate == 0.0  # survival identically one fits slope 0


def test_reach_tail_immediate():
    # target already inside the look radius: no survival at u=1
    res = check_zero_drift_reach_tail(LookAroundWalk(srw()), 1.0, trials=300,
                                      cap=128, root_seed=1)
    curve_zero = res.details.get("reason") is not None or res.estimate is not None
    assert curve_zero


def test_reach_tail_precondition():
    with pytest.raises(PreconditionError, match="E\\[zeta\\] = 0"):
        check_zero_drift_reach_tail(LookAroundWalk(NAMED_LAWS["up"]()), 5.0)


@pytest.mark.slow
def test_reach_tail_srw_slope():
    res = check_zero_drift_reach_tail(LookAroundWalk(srw()), 10.0,
                                      trials=12000, cap=1 << 13, root_seed=5)
    assert res.passed
    assert abs(res.estimate + 0.5) <= 0.07
    assert res.fit.r_squared >= 0.95
    # small-u cross-check of the reach event against the exact oracle
    for u in (8, 32):
        p = float(exact_dp_oracle(srw(), 0, u, "reach:10"))
        f = mc_event_frequency(srw(), 0, u, "reach:10", 20000, 5)
        assert abs(f - p) <= 4 * math.sqrt(p * (1 - p) / 20000)
    # tail blocks grow without stabilizing: divergent-mean signature
    blocks = res.details["tail_mass_blocks"]
    assert all(b2 >= b1 * 0.8 for b1, b2 in zip(blocks[2:], blocks[3:]))
    assert blocks[-1] > 4 * blocks[2]


def test_exit_tail_srw():
    res = check_exit_time_tail(LookAroundWalk(srw()), 5, trials=8000, root_seed=4)
    assert res.passed
    assert res.fit.slope < 0 and res.fit.r_squared >= 0.95
    # exact small-u agreement with the DP oracle
    p16 = float(exact_dp_oracle(srw(), 0, 16, "exit:5"))
    thr = list(res.fit.thresholds)
    # the fitted curve used counts; compare the raw survival at a grid point
    # via a fresh frequency estimate
    f = mc_event_frequency(srw(), 0, 16, "exit:5", 8000, 4)
    assert abs(f - p16) <= 4 * math.sqrt(p16 * (1 - p16) / 8000)


def test_exit_tail_deterministic_step():
    res = check_exit_time_tail(LookAroundWalk(NAMED_LAWS["up"]()), 5,
                               trials=100, root_seed=4)
    assert res.details["mean_exit"] == 6.0


def test_exit_tail_precondition():
    with pytest.raises(PreconditionError, match="zeta = 0"):
        check_exit_time_tail(LookAroundWalk(NAMED_LAWS["zero"]()), 5)
    # rho = -3 put every walk outside the set at step 0: a FAIL verdict
    with pytest.raises(PreconditionError, match="rho >= 0"):
        check_exit_time_tail(LookAroundWalk(srw()), -3, trials=5)
    # a start outside the exit set exits at step 0, a FAIL verdict with
    # "insufficient tail data"; the set follows the drift sign
    for law, s0 in ((srw(), 100), (srw(), -6), (NAMED_LAWS["drift34"](), 6)):
        with pytest.raises(PreconditionError, match="inside the exit set"):
            check_exit_time_tail(LookAroundWalk(law, s0), 5, trials=5)
    for law, s0 in ((srw(), 3), (srw(), -5), (NAMED_LAWS["drift34"](), -100)):
        check_exit_time_tail(LookAroundWalk(law, s0), 5, trials=5)


def test_deviation_bound_srw():
    res = check_upper_deviation_bound(LookAroundWalk(srw()), 0.2, 100, 20,
                                      trials=30000, root_seed=6)
    assert res.passed
    exact = sum(Fraction(math.comb(100, k), 2 ** 100) for k in range(60, 101))
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / 30000)
    assert abs(res.estimate - float(exact)) <= 4 * sigma
    assert res.estimate <= res.details["chernoff_bound"]


def test_deviation_extreme_event_unobserved():
    res = check_upper_deviation_bound(LookAroundWalk(srw()), 1.0, 100, 100,
                                      trials=2000, root_seed=6)
    assert res.passed
    assert res.estimate == 0.0


def test_deviation_zero_law():
    res = check_upper_deviation_bound(LookAroundWalk(NAMED_LAWS["zero"]()),
                                      0.5, 10, 5, trials=500, root_seed=1)
    assert res.estimate == 0.0
    assert res.passed


def test_deviation_preconditions():
    with pytest.raises(PreconditionError, match="y >= mu"):
        check_upper_deviation_bound(LookAroundWalk(srw()), 0.5, 100, 10)


def deviation_count_chunked(law, n, y, trials, root_seed, chunk=4096):
    """Reference: the deviation check's count of S_n >= y as it was before it
    moved onto the stopping-time helper, every full path in chunks of trials."""
    zeta = law.arrays[0]
    count = 0
    for start in range(0, trials, chunk):
        idx = np.arange(start, min(start + chunk, trials), dtype=np.int64)
        S_n = zeta[law.table.draw(0, root_seed, idx, 0, 0, n)].sum(axis=1)
        count += int((S_n >= y).sum())
    return count


def random_centered_law(rng):
    """A random integer law with E[zeta] = 0: a last unit step cancels the mean."""
    weights = [int(v) for v in rng.integers(1, 7, size=int(rng.integers(1, 4)))]
    zetas = [int(v) for v in rng.integers(-3, 4, size=len(weights))]
    moment = sum(w * z for w, z in zip(weights, zetas))
    if moment:
        weights.append(abs(moment))
        zetas.append(-1 if moment > 0 else 1)
    return make_law([(Fraction(w, sum(weights)), z, 1, float(rng.choice([1.0, 2.5])))
                     for w, z in zip(weights, zetas)])


def test_deviation_count_matches_chunked_reference():
    rng = np.random.default_rng(50)
    cases = 0
    for case in range(12):
        law = random_centered_law(rng)
        n = int(rng.integers(1, 40))
        mu = float(rng.choice([0.05, 0.2, 0.5]))
        y = mu * n + float(rng.integers(0, 4))
        trials = int(rng.choice([1, 300, 4099, 9000]))
        res = check_upper_deviation_bound(LookAroundWalk(law), mu, n, y,
                                          trials=trials, root_seed=case)
        want = deviation_count_chunked(law, n, y, trials, case)
        assert res.estimate == want / trials, (case, n, y, trials)
        cases += 0 < want < trials
    assert cases >= 4  # some counts are neither 0 nor every trial


def chernoff_old_bounds(law, n, y):
    """Reference: the bound optimized on (1e-9, 60 / max|zeta|), valid while
    that interval is not empty."""
    logp = np.log([float(o.probability) for o in law.outcomes])
    zs = np.array([float(o.zeta) for o in law.outcomes])
    zmax = max(1.0, float(np.abs(zs).max()))
    res = minimize_scalar(lambda t: n * float(logsumexp(logp + t * zs)) - t * y,
                          bounds=(1e-9, 60.0 / zmax), method="bounded")
    return min(1.0, math.exp(res.fun)), float(res.x)


@pytest.mark.parametrize("law_text,n,y", [
    ("srw", 100, 20), ("lazy", 64, 8), ("1/2:0.1;1/2:-0.1", 300, 3.0),
])
def test_deviation_bound_unchanged_where_old_bounds_valid(law_text, n, y):
    # laws with max|zeta| <= 1 optimize over t itself.  Only a float-step law
    # has max|zeta| < 1, and step laws refuse float steps
    if law_text == "1/2:0.1;1/2:-0.1":
        with pytest.raises(ValueError, match="zeta must be an integer"):
            parse_law(law_text)
        return
    law = parse_law(law_text)
    res = check_upper_deviation_bound(LookAroundWalk(law), 0.01, n, y, trials=10)
    bound, t = chernoff_old_bounds(law, n, y)
    assert (res.details["chernoff_bound"], res.details["optimal_t"]) == (bound, t)


@pytest.mark.parametrize("scale,n,y", [(100000, 16, 8), (60000000000, 4, 4), (3, 100, 20)])
def test_deviation_bound_scale_free(scale, n, y):
    # the optimizer's absolute tolerance acted on t, so steps of +-1e5 stopped
    # at t = 4.56e-6 with the bound 0.1301, where the optimum is 0.1233
    unit = check_upper_deviation_bound(LookAroundWalk(srw()), 0.01, n, y, trials=10)
    law = parse_law(f"1/2:{scale};1/2:-{scale}")
    res = check_upper_deviation_bound(LookAroundWalk(law), 0.01, n, y * scale, trials=10)
    assert res.details["chernoff_bound"] == unit.details["chernoff_bound"]
    assert res.details["optimal_t"] == pytest.approx(unit.details["optimal_t"] / scale, rel=1e-12)
    if scale == 100000:
        assert res.details["chernoff_bound"] == pytest.approx(0.1233, abs=1e-4)


def test_deviation_large_steps_bounded():
    # past max|zeta| = 6e10 the optimizer's lower bound 1e-9 exceeded its
    # upper bound 60 / max|zeta|, and minimize_scalar raised ValueError
    w = LookAroundWalk(parse_law("1/2:100000000000;1/2:-100000000000"))
    res = check_upper_deviation_bound(w, 1, 4, 4, trials=10)
    assert 0 < res.details["optimal_t"] <= 60 / 1e11
    assert res.details["chernoff_bound"] == 1.0
    assert res.estimate == deviation_count_chunked(w.law, 4, 4, 10, 0) / 10


def test_corridor_separating_drifts_flat():
    # walks drifting apart with the corridor behind both: survival stays 1
    up = LookAroundWalk(NAMED_LAWS["up"](), 10.0)
    down = LookAroundWalk(parse_law("1:-1"), -10.0)
    res = check_joint_corridor_avoidance(up, down, (30.0, 40.0),
                                         trials=500, cap=512, root_seed=2)
    assert res.passed
    assert res.estimate == 0.0  # flat survival fits slope zero


def test_corridor_started_inside():
    w1 = LookAroundWalk(srw(), 0.0)
    w2 = LookAroundWalk(srw(), 1.0)
    res = check_joint_corridor_avoidance(w1, w2, (-2.0, 2.0),
                                         trials=400, cap=256, root_seed=2)
    assert not res.passed
    assert res.estimate == 0.0
    assert res.details["reason"] == "no survivors"


def test_interval_cond_exact_for_integer_positions():
    # the floor-and-fraction form against exact rationals, with fractional
    # bounds and radii whose sums a float rounds: a fraction of 2**-60 under
    # 3.0, the bound 0.5 - 2**-54 against a radius fraction of 0.5, radii past
    # 2**52, and one past int64, which only the clamp keeps from wrapping
    bounds = [0, -2, 2, 2.5, -2.5, 2.0**-60, -(2.0**-60), 0.5 - 2.0**-54, 2**53 + 11,
              -(2**60)]
    radii = np.array([1.0, 1.5, 2.5, 3.0, 0.5 + 2.0**-54, 1 - 2.0**-53, 2.0**52 + 0.5,
                      2.0**62 + 2.0**40, 1e30])
    for lo, hi in itertools.product(bounds, bounds):
        if hi < lo:
            continue
        base = math.floor(lo)
        s = np.array([base + d for d in range(-6, 7)] + [math.floor(hi) + d for d in (-3, 3)]
                     + [0, 2**61, -(2**61)], dtype=np.int64)
        got = _interval_cond(lo, hi)(s[:, None], *_split(radii[None, :]))
        want = [[Fraction(lo) - Fraction(r) <= v <= Fraction(hi) + Fraction(r)
                 for r in radii.tolist()] for v in s.tolist()]
        assert got.tolist() == want, (lo, hi)


def test_corridor_times_exact_far_from_zero():
    # bounds 2**53 + 11 and + 15 were compared in floats with the positions;
    # integer walks keep every difference exact, so the times are those of
    # the same geometry from 0
    far = 2**53 + 1
    for pair in CORRIDOR_PAIRS:
        laws = [parse_law(t) for t in pair]
        got = _corridor_times(LookAroundWalk(laws[0], far), LookAroundWalk(laws[1], far + 24),
                              far + 10, far + 14, 200, 256, 7)
        want = _corridor_times(LookAroundWalk(laws[0], 0), LookAroundWalk(laws[1], 24),
                               10, 14, 200, 256, 7)
        assert np.array_equal(got, want)
        assert (want <= 256).any() and (want > 256).any()
    # differences that could leave int64 are refused
    with pytest.raises(PreconditionError, match="int64"):
        _corridor_times(LookAroundWalk(srw(), 2**62), LookAroundWalk(srw(), -(2**62)),
                        0, 10, 5, 16, 7)
    with pytest.raises(PreconditionError, match="int64"):
        check_escape_under_drift(LookAroundWalk(NAMED_LAWS["up"](), 2**62), -(2**62),
                                 trials=5, horizon=4)


def test_corridor_times_exact_for_mixed_starts():
    # with one start an integer and the other not, both walks were compared
    # in floats, so the walk from 2**53 + 1 had its positions rounded: 219 of
    # 300 trials differed.  Offsets from each start are exact, and the second
    # walk starting 2**53 away changes nothing
    far = 2**53 + 1
    got = _corridor_times(LookAroundWalk(srw(), far), LookAroundWalk(srw(), 0.5),
                          far + 10, far + 14, 300, 512, 7)
    want = _corridor_times(LookAroundWalk(srw(), far), LookAroundWalk(srw(), 0),
                           far + 10, far + 14, 300, 512, 7)
    assert np.array_equal(got, want)
    assert (want <= 512).any() and (want > 512).any()


def test_corridor_interval_validation():
    with pytest.raises(PreconditionError, match="y - x > 2"):
        check_joint_corridor_avoidance(LookAroundWalk(srw()), LookAroundWalk(srw()),
                                       (0.0, 1.0))


def test_corridor_general_time_path_matches_unit():
    # nu == 1 laws: the block helper agrees with the per-trial reference loop
    w1 = LookAroundWalk(srw(), 6.0)
    w2 = LookAroundWalk(srw(), -6.0)
    a = _corridor_times(w1, w2, -2.0, 2.0, 40, 128, 3)
    b = corridor_times_per_trial(w1, w2, -2.0, 2.0, 40, 128, 3)
    assert np.array_equal(a, b)


def test_corridor_time_translation_deterministic():
    # walk1 descends one unit per two time units from 10; walk2 sits at -10.
    # It detects [0,4] (radius 1) at position 5, i.e. at time 10; the balls
    # meet only at time 36; so min(sigma, tau1, tau2) = 10 exactly.
    w1 = LookAroundWalk(make_law([(1, -1, 2, 1.0)]), 10.0)
    w2 = LookAroundWalk(make_law([(1, 0, 1, 1.0)]), -10.0)
    times = _corridor_times(w1, w2, 0.0, 4.0, 5, 128, 1)
    assert np.all(times == 10)


def test_corridor_general_matches_bruteforce_time_scan():
    # independent oracle: evaluate the three clocks at every integer time
    law1 = make_law([("1/2", 1, 2, 1.0), ("1/2", -1, 1, 2.0)])
    law2 = make_law([("1/3", 2, 1, 1.0), ("2/3", -1, 3, 1.0)])
    w1 = LookAroundWalk(law1, 7.0)
    w2 = LookAroundWalk(law2, -7.0)
    cap = 96
    got = _corridor_times(w1, w2, -2.0, 2.0, 30, cap, 13)
    for trial in range(30):
        p1 = sample_walk(w1, cap + 2, 13, trial=trial, walk_id=0)
        p2 = sample_walk(w2, cap + 2, 13, trial=trial, walk_id=1)
        t_min = cap + 1
        for m in range(cap + 1):
            k1 = int(np.searchsorted(p1.times, m, side="right") - 1)
            k2 = int(np.searchsorted(p2.times, m, side="right") - 1)
            s1, r1 = float(p1.positions[k1]), float(p1.radii[k1])
            s2, r2 = float(p2.positions[k2]), float(p2.radii[k2])
            d1 = max(-2.0 - s1, s1 - 2.0, 0.0)
            d2 = max(-2.0 - s2, s2 - 2.0, 0.0)
            if abs(s1 - s2) <= r1 + r2 or d1 <= r1 or d2 <= r2:
                t_min = m
                break
        assert got[trial] == t_min, (trial, got[trial], t_min)


def test_corridor_factorization_against_oracle():
    # interval between the walks: min(sigma, tau1, tau2) = min(tau1, tau2)
    # and the factors are independent; check the product at small u
    w1 = LookAroundWalk(srw(), 6.0)
    w2 = LookAroundWalk(srw(), -6.0)
    times = _corridor_times(w1, w2, -2.0, 2.0, 40000, 64, 11)
    for u in (4, 16):
        p1 = float(_dp_survival(srw(), u, _interval_cond(*_frame(6, -2, 2))))
        p2 = float(_dp_survival(srw(), u, _interval_cond(*_frame(-6, -2, 2))))
        want = p1 * p2
        got = float((times > u).mean())
        sigma = math.sqrt(want * (1 - want) / 40000)
        assert abs(got - want) <= 4 * sigma + 1e-9


# ---------------------------------------------------------------------------
# the stopping-time block helper against the loops it replaced


def corridor_times_per_trial(w1, w2, lo, hi, trials, cap, root_seed):
    """Reference: one Python loop per trial over each walk's own step times
    (tau_i) and the merged jump times (sigma)."""
    out = np.full(trials, cap + 1, dtype=np.int64)
    for trial in range(trials):
        t_min = cap + 1
        p1, p2 = (sample_walk(w, cap + 2, root_seed, trial=trial, walk_id=wid)
                  for wid, w in ((0, w1), (1, w2)))

        def k_of(path, m):
            return int(np.searchsorted(path.times, m, side="right") - 1)

        for path in (p1, p2):
            for k in range(len(path.times)):
                m = int(path.times[k])
                if m > cap:
                    break
                s = float(path.positions[k])
                if max(lo - s, s - hi, 0.0) <= float(path.radii[k]):
                    t_min = min(t_min, m)
                    break
        for m in np.unique(np.concatenate([p1.times, p2.times, [0]])):
            m = int(m)
            if m > cap or m >= t_min:
                break
            k1, k2 = k_of(p1, m), k_of(p2, m)
            if abs(float(p1.positions[k1]) - float(p2.positions[k2])) <= \
                    float(p1.radii[k1]) + float(p2.radii[k2]):
                t_min = m
                break
        out[trial] = t_min
    return out


def reach_times_fixed_blocks(w, levels, trials, cap, root_seed, block=16):
    """Reference: the fixed-block loop of the reach-tail check, no trial dropped."""
    zeta, _, rad = w.law.arrays
    idx = np.arange(trials, dtype=np.int64)
    T = np.full((trials, len(levels)), cap + 1, dtype=np.int64)
    s_prev = np.full(trials, float(w.s0))
    t0 = 0
    while t0 <= cap:
        B = min(block, cap + 1 - t0)
        b = w.law.table.draw(0, root_seed, idx, 0, t0, B)
        S_blk = s_prev[:, None] + np.cumsum(zeta[b], axis=1)
        S_check = np.concatenate([s_prev[:, None], S_blk[:, :-1]], axis=1)
        w_vals = S_check + rad[b]
        for k, level in enumerate(levels):
            reach = w_vals >= level
            has = reach.any(axis=1) & (T[:, k] > cap)
            T[has, k] = t0 + reach[has].argmax(axis=1)
        s_prev = S_blk[:, -1].astype(float)
        t0 += B
    return T


def reach_times(w, levels, trials, cap, root_seed):
    levels = np.asarray(levels, dtype=float)
    return _stopping_times([w.law], lambda S, R: (S[0] + R[0])[..., None] >= levels,
                           trials, cap, root_seed, columns=len(levels))


# zero drift; the second law has durations (ignored on the step clock),
# fractional radii and zero steps
REACH_LAWS = ("srw", "1/3:1,2,1.5;1/6:-2,1,2.5;1/2:0,3")
# unit pair, and laws with durations 1 to 3
CORRIDOR_PAIRS = (("srw", "srw"),
                  ("1/2:1,2,1;1/2:-1,1,2", "1/3:2,1,1;2/3:-1,3,1"))


@pytest.mark.parametrize("budget", [1, 7, 2**40])
@pytest.mark.parametrize("law_text", REACH_LAWS)
@pytest.mark.parametrize("cap", [1, 150])
def test_stopping_times_match_fixed_blocks(monkeypatch, budget, law_text, cap):
    monkeypatch.setattr(engine, "_IID_VARIATES", budget)
    w = LookAroundWalk(parse_law(law_text), 0.0)
    levels = (1.5, 3, 5, 8)
    got = reach_times(w, levels, 40, cap, 21)
    assert np.array_equal(got, reach_times_fixed_blocks(w, levels, 40, cap, 21))


@pytest.mark.parametrize("budget", [1, 7, 2**40])
@pytest.mark.parametrize("pair", CORRIDOR_PAIRS)
@pytest.mark.parametrize("s0,cap", [((7.0, -7.0), 96), ((5.5, -6.5), 96), ((7.0, -7.0), 1)])
def test_corridor_times_match_per_trial_loop(monkeypatch, budget, pair, s0, cap):
    monkeypatch.setattr(engine, "_IID_VARIATES", budget)
    w1 = LookAroundWalk(parse_law(pair[0]), s0[0])
    w2 = LookAroundWalk(parse_law(pair[1]), s0[1])
    got = _corridor_times(w1, w2, -2.0, 2.0, 30, cap, 13)
    want = corridor_times_per_trial(w1, w2, -2.0, 2.0, 30, cap, 13)
    assert np.array_equal(got, want)
    if cap > 1:
        assert (want <= cap).any() and (want > cap).any()


@pytest.mark.parametrize("pair", CORRIDOR_PAIRS)
def test_trial_decided_on_last_check_of_block(monkeypatch, pair):
    # size the first block so that trial 0's stopping time is its last check
    w1 = LookAroundWalk(parse_law(pair[0]), 7.0)
    w2 = LookAroundWalk(parse_law(pair[1]), -7.0)
    trials, cap = 20, 400
    want = corridor_times_per_trial(w1, w2, -2.0, 2.0, trials, cap, 5)
    n = int(want[0])
    assert 1 <= n < cap
    monkeypatch.setattr(engine, "_IID_VARIATES", (n + 1) * trials)
    assert engine._iid_block(0, cap + 1, trials) == n + 1
    assert np.array_equal(_corridor_times(w1, w2, -2.0, 2.0, trials, cap, 5), want)
    w = LookAroundWalk(parse_law(REACH_LAWS[0]))
    levels = (2, 4)
    want = reach_times_fixed_blocks(w, levels, trials, cap, 5)
    n = int(want[0].max())
    monkeypatch.setattr(engine, "_IID_VARIATES", (n + 1) * trials)
    assert np.array_equal(reach_times(w, levels, trials, cap, 5), want)


def test_every_level_decided_in_one_block(monkeypatch):
    # each walk reaches every level within the first block: one block is drawn
    blocks = []
    block_rule = engine._iid_block
    monkeypatch.setattr(engine, "_iid_block", lambda *a: blocks.append(a) or block_rule(*a))
    monkeypatch.setattr(engine, "_IID_VARIATES", 8 * 10)
    up = LookAroundWalk(NAMED_LAWS["up"](), 0.0)
    got = reach_times(up, (2, 4, 6, 8), 10, 500, 3)
    assert len(blocks) == 1
    assert (got == [1, 3, 5, 7]).all()


def test_sample_walk_rejects_start_beyond_int64():
    # the start was added after only the offsets were bounded: from 2**63 - 2
    # the third position wrapped to -2**63
    up = parse_law("up")
    with pytest.raises(PreconditionError, match="int64"):
        sample_walk(LookAroundWalk(up, 2**63 - 2), 3, 0)
    with pytest.raises(PreconditionError, match="int64"):
        sample_walk(LookAroundWalk(up, -float(2**63)), 0, 0)
    assert sample_walk(LookAroundWalk(up, 2**63 - 2), 0, 0).positions.tolist() == [2**63 - 2]


def test_sample_walk_adds_integer_start_exactly():
    # a float start was summed in float: from 2.0**62 every position read 2**62
    path = sample_walk(LookAroundWalk(parse_law("up"), float(2**62)), 3, 0)
    assert path.positions.dtype == np.int64
    assert path.positions.tolist() == [2**62, 2**62 + 1, 2**62 + 2, 2**62 + 3]
    assert sample_walk(LookAroundWalk(parse_law("up"), 2**62), 3, 0).positions.tolist() \
        == [2**62, 2**62 + 1, 2**62 + 2, 2**62 + 3]


def test_sample_walk_keeps_fractional_start():
    path = sample_walk(LookAroundWalk(srw(), 0.5), 4, 0)
    assert path.positions.dtype == np.float64
    assert (path.positions - 0.5 == sample_walk(LookAroundWalk(srw()), 4, 0).positions).all()
    assert sample_walk(LookAroundWalk(srw(), 2.0), 4, 0).positions.dtype == np.int64


@pytest.mark.parametrize("law_text,want", [("1:-1", 6), ("1:-1,2", 12)])
def test_corridor_fractional_start(law_text, want):
    # from 10.5 the walk sees [0, 4] from 5.5, after 5.5 steps rounded up
    w1 = LookAroundWalk(parse_law(law_text), 10.5)
    w2 = LookAroundWalk(parse_law("1:0"), -10.0)
    assert (_corridor_times(w1, w2, 0.0, 4.0, 3, 64, 1) == want).all()
    assert (corridor_times_per_trial(w1, w2, 0.0, 4.0, 3, 64, 1) == want).all()


@pytest.mark.parametrize("kwargs,match", [
    ({"event": "meeting"}, "second walk"),
    ({"event": "ballmeeting", "law2": NAMED_LAWS["srw"]()}, "second walk"),
    ({"event": "hit:x"}, "integer"),
    ({"event": "hit"}, "argument"),
    ({"event": "bogus:1"}, "unknown"),
    ({"event": "hit:1", "trials": 0}, "trials"),
])
def test_mc_event_frequency_checks_arguments(kwargs, match):
    args = {"law": srw(), "s0": 0, "horizon": 4, "trials": 10, "root_seed": 1}
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        mc_event_frequency(**args)


def paths(law, root_seed, trials_idx, walk_id, s0, horizon):
    """Reference sampler: every full path, positions S_0..S_horizon as float
    and radii R_1..R_{horizon+1}, as mc_event_frequency drew them before it
    moved onto the stopping-time helper."""
    zeta, _, rad = law.arrays
    b = law.table.draw(0, root_seed, trials_idx, walk_id, 0, horizon + 1)
    S = np.empty(b.shape)
    S[:, 0] = s0
    S[:, 1:] = s0 + np.cumsum(zeta[b[:, :-1]], axis=1)
    return S, rad[b]


def mc_event_frequency_branches(law, s0, horizon, event, trials, root_seed,
                                law2=None, s02=None):
    """Reference: one branch per event on the sampled paths of both walks,
    the estimator as it was before the events moved into one table."""
    name, _, arg = event.partition(":")
    target = int(arg) if arg else None
    idx = np.arange(trials, dtype=np.int64)
    S1, R1 = paths(law, root_seed, idx, 0, s0, horizon)
    if name in ("meeting", "ballmeeting"):
        S2, R2 = paths(law2, root_seed, idx, 1, s02, horizon)
        if name == "meeting":
            ok = (S1[:, 1:] != S2[:, 1:]).all(axis=1)
        else:
            ok = (np.abs(S1 - S2) > R1 + R2).all(axis=1)
    elif name == "hit":
        ok = (S1 != target).all(axis=1)
    elif name == "lookaround":
        ok = (np.abs(S1 - target) > R1).all(axis=1)
    elif name == "reach":
        ok = (S1 + R1 < target).all(axis=1)
    elif name == "exit":
        drift = float(law.mean_zeta)
        if drift == 0:
            inside = np.abs(S1) <= target
        elif drift > 0:
            inside = S1 <= target
        else:
            inside = S1 >= -target
        ok = inside.all(axis=1)
    else:
        ok = S1[:, horizon] == target
    return int(ok.sum()) / trials


def random_integer_law(rng):
    weights = rng.integers(1, 7, size=int(rng.integers(1, 5)))
    return make_law([(Fraction(int(w), int(weights.sum())), int(rng.integers(-3, 4)), 1,
                      float(rng.choice([1.0, 1.5, 2.0, 3.5]))) for w in weights])


@pytest.mark.parametrize("name", ["hit", "lookaround", "reach", "exit", "position",
                                  "meeting", "ballmeeting"])
def test_mc_event_frequency_matches_branch_reference(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    cases = 0
    for case in range(40):
        law1, law2 = random_integer_law(rng), random_integer_law(rng)
        s01, s02 = (int(v) for v in rng.integers(-4, 5, size=2))
        horizon = int(rng.integers(0, 10))
        if case < 4:  # position at horizon 0 and meetings from one start
            horizon, s02 = 0 if case < 2 else horizon, s01
        arg = int(rng.integers(0, 4)) if name == "exit" else s01 + int(rng.integers(-3, 4))
        event = name if name in ("meeting", "ballmeeting") else f"{name}:{arg}"
        trials = 1 if case == 4 else int(rng.choice([37, 500, 4099]))
        want = mc_event_frequency_branches(law1, s01, horizon, event, trials, case,
                                           law2=law2, s02=s02)
        assert mc_event_frequency(law1, s01, horizon, event, trials, case,
                                  law2=law2, s02=s02) == want, (case, event)
        cases += 0 < want < 1
    assert cases >= 5  # some cases are neither sure nor impossible


@pytest.mark.parametrize("budget", [1, 7])
@pytest.mark.parametrize("name", ["position", "meeting", "reach"])
def test_mc_event_frequency_check_from_across_blocks(monkeypatch, budget, name):
    # blocks of one or a few checks: the first checked time falls inside and
    # past the first blocks
    monkeypatch.setattr(engine, "_IID_VARIATES", budget * 30)
    rng = np.random.default_rng(budget)
    for case in range(6):
        law1, law2 = random_integer_law(rng), random_integer_law(rng)
        horizon = int(rng.integers(0, 12))
        event = "meeting" if name == "meeting" else f"{name}:{int(rng.integers(-3, 4))}"
        want = mc_event_frequency_branches(law1, 0, horizon, event, 30, case,
                                           law2=law2, s02=1)
        assert mc_event_frequency(law1, 0, horizon, event, 30, case,
                                  law2=law2, s02=1) == want, (case, event)


def test_checks_registry():
    assert CHECKS["lemma6"] is check_escape_under_drift
    assert CHECKS["lemma7"] is check_zero_drift_reach_tail
    assert CHECKS["lemma17"] is check_exit_time_tail
    assert CHECKS["lemma50"] is check_upper_deviation_bound
    assert CHECKS["prop22"] is check_joint_corridor_avoidance


# ---------------------------------------------------------------------------
# tail fitting sanity (no sampling noise)


def _analytic_curve(fn, thresholds):
    total = float(2 ** 52)
    survivors = np.array([fn(u) * total for u in thresholds])
    return SurvivalCurve(np.array(thresholds, dtype=np.int64), survivors, total)


def test_fit_power_exact():
    curve = _analytic_curve(lambda u: u ** -0.5, [1, 4, 16, 64, 256, 1024])
    fit = fit_tail(curve, "power")
    assert abs(fit.slope + 0.5) < 1e-9
    assert abs(fit.r_squared - 1) < 1e-12


def test_fit_stretched_exact():
    curve = _analytic_curve(lambda u: math.exp(-math.sqrt(u)),
                            [1, 4, 16, 64, 256, 1024])
    fit = fit_tail(curve, "stretched")
    assert abs(fit.slope + 1) < 1e-9
    assert abs(fit.r_squared - 1) < 1e-12


def test_fit_exponential_exact():
    curve = _analytic_curve(lambda u: math.exp(-u), [1, 2, 4, 8, 16, 24])
    fit = fit_tail(curve, "exponential")
    assert abs(fit.slope + 1) < 1e-9
    assert abs(fit.r_squared - 1) < 1e-12


def test_fit_requires_enough_points():
    from scoutsim.tails import InsufficientDataError
    curve = _analytic_curve(lambda u: u ** -1.0, [1, 2, 4])
    with pytest.raises(InsufficientDataError):
        fit_tail(curve, "power")
