"""Meeting renewals, gap tails, divergence verdicts."""

from dataclasses import replace

import numpy as np
import pytest

from scoutsim import SeedSpec, builtin, parse_protocol, run
from scoutsim.engine import first_meeting_times, monte_carlo_hitting_multi
from scoutsim.errors import PreconditionError
from scoutsim.renewal import (FINITE, INFINITE,
                              EnvelopeViolation,
                              divergence_flag, divergence_report,
                              extract_renewal, meeting_tail)
from scoutsim.tails import (CENSORED_FLAG_FRACTION, CensoredSummary, InsufficientDataError,
                            SurvivalCurve, summarize_censored)

STAY_PUT = ("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
            "trans a * -> 1 a (0)\ntrans b * -> 1 b (0)\n")
CO_MOVING = ("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
             "trans a * -> 1 a (+1)\ntrans b * -> 1 b (+1)\n")
SEPARATING = ("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
              "trans a * -> 1 a (+1)\ntrans b * -> 1 b (-1)\n")


def test_extract_stay_put():
    mr = extract_renewal(run(parse_protocol(STAY_PUT), 12, SeedSpec(0)))
    assert list(mr.gaps[:4]) == [0, 1, 1, 1]
    assert np.all(mr.points == 0)
    assert mr.state_pairs[0] == ("a", "b")


def test_extract_co_moving():
    mr = extract_renewal(run(parse_protocol(CO_MOVING), 6, SeedSpec(0)))
    assert list(mr.points[:4, 0]) == [0, 1, 2, 3]
    assert list(mr.gaps[1:4]) == [1, 1, 1]


def test_extract_needs_two_scouts():
    with pytest.raises(ValueError, match="two-scout"):
        extract_renewal(run(builtin("srw", d=1), 5, SeedSpec(0)))


def test_envelope_holds_on_srw_pair():
    p = builtin("independent_walks", d=2, c=2)
    for rep in range(5):
        mr = extract_renewal(run(p, 2000, SeedSpec(3, rep)))  # raises on violation
        assert np.all(mr.gaps[1:] >= 1)


def test_envelope_violation_detected_on_corrupted_trace():
    tr = run(parse_protocol(CO_MOVING), 6, SeedSpec(0))
    tr.positions[3, 0, 0] = 50  # teleport: breaks the unit-move envelope
    tr.positions[3, 1, 0] = 50
    with pytest.raises(EnvelopeViolation):
        extract_renewal(tr)


def _envelope_message(tr, pair):
    """The per-meeting envelope loop: message of the first violation, or None."""
    watched = tr.positions[:, (pair[0] - 1, pair[1] - 1), :]
    eq = (watched[:, 0] == watched[:, 1]).all(axis=1)
    eq[0] = True
    times = np.flatnonzero(eq)
    pts = watched[times, 0]
    for k in range(1, times.size):
        seg = watched[times[k - 1]:times[k] + 1]
        gap = times[k] - times[k - 1]
        for endpoint in (pts[k - 1], pts[k]):
            dist = int(np.abs(seg - endpoint).max())
            if dist > gap:
                return f"scout strayed {dist} > gap {gap} between meetings {k-1} and {k}"
    return None


def test_envelope_check_matches_per_meeting_loop():
    rng = np.random.default_rng(7)
    violations = 0
    for name, d, params in (("anchored_geometric", 1, {}), ("anchored_geometric", 2, {}),
                            ("independent_walks", 2, {"c": 2})):
        p = builtin(name, d=d, **params)
        for rep in range(12):
            tr = run(p, 300, SeedSpec(5, rep))
            # scouts 1 and 2 (anchored d=2 has three): extraction reads a
            # two-scout trace
            tr = replace(tr, positions=tr.positions[:, :2], state_idx=tr.state_idx[:, :2])
            if rep % 3:  # corrupt one coordinate of one scout at one step
                n, i, k = rng.integers(1, 301), rng.integers(2), rng.integers(d)
                tr.positions[n, i, k] += rng.integers(-5, 6)
            want = _envelope_message(tr, (1, 2))
            if want is None:
                extract_renewal(tr)
            else:
                violations += 1
                with pytest.raises(EnvelopeViolation) as info:
                    extract_renewal(tr)
                assert str(info.value) == want
    assert violations >= 5


@pytest.mark.parametrize("moved,want", [
    # both teleported to 5 at step 2: the end point is 5 from Y_0, which is
    # reported although (1, -1) lies 6 from Y_1
    ({2: (5, 5)}, "scout strayed 5 > gap 2 between meetings 0 and 1"),
    # 4 strays from Y_0 = 0 but lies within gap 3 of Y_1 = 2
    ({2: (4, 1), 3: (2, 2)}, "scout strayed 4 > gap 3 between meetings 0 and 1"),
    # -2 lies within gap 3 of Y_0 = 0 but strays 4 from Y_1 = 2
    ({2: (-2, 1), 3: (2, 2)}, "scout strayed 4 > gap 3 between meetings 0 and 1"),
])
def test_envelope_violation_reports_the_loop_distance(moved, want):
    tr = run(parse_protocol(SEPARATING), 3, SeedSpec(0))  # 0, (1, -1), (2, -2), ...
    for n, xs in moved.items():
        tr.positions[n, :, 0] = xs
    assert _envelope_message(tr, (1, 2)) == want
    with pytest.raises(EnvelopeViolation, match=want):
        extract_renewal(tr)


# meeting tails


def test_meeting_tail_anchored_passes():
    res = meeting_tail(builtin("anchored_geometric", d=1, p="1/2"),
                       trials=400, cap=1 << 12, root_seed=5)
    assert res.passed
    assert res.fit.r_squared >= 0.95
    assert res.fitted_decay > 0
    assert "consistent" in res.verdict


def test_meeting_tail_srw_pair_fails():
    res = meeting_tail(builtin("independent_walks", d=1, c=2),
                       trials=1200, cap=1 << 14, root_seed=5)
    assert not res.passed
    assert res.fit.r_squared < 0.95


def test_meeting_tail_no_meetings():
    res = meeting_tail(parse_protocol(SEPARATING), trials=40, cap=256, root_seed=1)
    assert not res.passed
    assert res.verdict == "no-meetings-within-cap"
    assert res.n_gaps == 0


def test_meeting_tail_needs_two_scouts():
    with pytest.raises(PreconditionError):
        meeting_tail(builtin("srw", d=1), trials=10, cap=64)


def test_gap_k_range_drops_burn_in():
    from scoutsim.engine import meeting_gap_samples
    p = builtin("anchored_geometric", d=1, p="1/2")
    all_gaps = meeting_gap_samples(p, 50, 1 << 10, 3, k_min=1, k_max=40)
    late_gaps = meeting_gap_samples(p, 50, 1 << 10, 3, k_min=6, k_max=40)
    assert late_gaps.size < all_gaps.size
    # identical trajectories: the late gaps are a subsequence per replica
    assert late_gaps.size > 0


def test_engine_meeting_survival_matches_difference_oracle():
    # the engine simulates two interactionless scouts; the oracle runs the
    # difference walk: P(N_1 > 1) = 1/2, P(N_1 > 2) = 3/8
    from scoutsim.engine import first_meeting_times as fmt
    from scoutsim.walks import NAMED_LAWS, exact_dp_oracle
    srw = NAMED_LAWS["srw"]()
    p = builtin("independent_walks", d=1, c=2)
    times = fmt(p, 30000, 64, root_seed=17)
    for u in (1, 2, 4, 8):
        want = float(exact_dp_oracle(srw, 0, u, "meeting", law2=srw, s02=0))
        got = float((times > u).mean())
        sigma = (want * (1 - want) / 30000) ** 0.5
        assert abs(got - want) <= 4 * sigma, (u, got, want)


# divergence verdicts


def _power_summary(slope, cap=1 << 20, total=2 ** 40):
    """A summary whose survival curve is the analytic total * u**slope."""
    thresholds = np.array([1 << j for j in range(int(np.log2(cap)) + 1)],
                          dtype=np.int64)
    surv = np.array([total * u ** slope for u in thresholds])
    curve = SurvivalCurve(thresholds, surv, float(total), censor_cap=cap)
    censored = int(surv[-1])
    return CensoredSummary("power", curve, total, censored, None, None, None, cap, 0,
                           censored / total > CENSORED_FLAG_FRACTION)


def test_divergence_power_half_infinite():
    assert divergence_flag(_power_summary(-0.5)) == INFINITE


def test_divergence_steep_tail_finite():
    assert divergence_flag(_power_summary(-1.5)) == FINITE


def test_divergence_flag_on_simulated_controls():
    srw = builtin("srw", d=1)
    s = monte_carlo_hitting_multi(srw, [(1,)], replicas=8000, cap=1 << 14, root_seed=3)[0]
    assert divergence_flag(s.summary) == INFINITE

    det = parse_protocol("dim 1\nscouts 1\nstates A\ninit 1 A\ntrans A * -> 1 A (+1)\n")
    d = monte_carlo_hitting_multi(det, [(7,)], replicas=100, cap=1 << 9, root_seed=3)[0]
    assert divergence_flag(d.summary) == FINITE
    assert d.summary.mean == 7.0

    trip = builtin("independent_walks", d=1, c=3)
    t = monte_carlo_hitting_multi(trip, [(3,)], replicas=6000, cap=1 << 16, root_seed=3)[0]
    assert divergence_flag(t.summary) == FINITE


def test_divergence_on_curve_without_thresholds():
    # cap 0 leaves the curve with no thresholds: a data error, not an IndexError
    [h] = monte_carlo_hitting_multi(builtin("srw", d=1), [(1,)], 10, cap=0)
    assert h.summary.curve.thresholds.size == 0
    with pytest.raises(InsufficientDataError):
        divergence_flag(h.summary)
    with pytest.raises(InsufficientDataError):
        divergence_report(h.summary)

    pair = builtin("independent_walks", d=1, c=2)
    mt = first_meeting_times(pair, 8000, 1 << 14, 3)
    ms = summarize_censored("meeting", mt, 1 << 14, 3)
    assert divergence_flag(ms) == INFINITE


def test_divergence_censored_fraction_at_non_dyadic_cap():
    # the last dyadic threshold below cap 1000 is 512: the report gave
    # P(T > 512) = 0.1125 as its censored fraction, beside the summary's 33/400
    [h] = monte_carlo_hitting_multi(builtin("srw", d=1), [(3,)], 400, cap=1000, root_seed=1)
    assert h.summary.n_censored == 33
    assert divergence_report(h.summary)["censored_fraction"] == 0.0825


def test_divergence_report_fields():
    rep = divergence_report(_power_summary(-0.5))
    assert rep["verdict"] == INFINITE
    assert rep["power_fit"]["slope"] == pytest.approx(-0.5, abs=1e-9)


def test_divergence_origin_target_degenerate():
    det = parse_protocol("dim 1\nscouts 1\nstates A\ninit 1 A\ntrans A * -> 1 A (+1)\n")
    s = monte_carlo_hitting_multi(det, [(0,)], replicas=50, cap=64, root_seed=1)[0]
    assert s.summary.mean == 0.0
    assert divergence_flag(s.summary) == FINITE

