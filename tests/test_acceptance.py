"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at fixed seeds through the counter-based streams, so
outcomes are reproducible bit for bit; statistical tolerances are the
stated ones (binomial/multinomial sigma bounds, slope windows, fit-quality
floors).  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from scoutsim import SeedSpec, builtin, engine, parse_protocol
from scoutsim.analysis import (_kernel_sim, classes, degeneracy_check,
                               effective_drift, kernel_renewal_samples)
from scoutsim.engine import (Trace, _unpack, first_meeting_times, hit_times,
                             monte_carlo_hitting_multi, run_batch)
from scoutsim.renewal import (FINITE, INFINITE, divergence_flag,
                              extract_renewal, meeting_tail)
from scoutsim.tails import SurvivalCurve, fit_tail, summarize_censored
from scoutsim.walks import (LookAroundWalk, exact_dp_oracle,
                            check_joint_corridor_avoidance,
                            mc_event_frequency, parse_law)

from conftest import (product_kernel, random_degenerate_kernel, random_rational_kernel,
                      random_two_scout_protocol, return_nonzero_probability)


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Monte-Carlo event frequencies match the exact oracle


def _random_law(rng):
    k = int(rng.integers(2, 5))
    while True:
        weights = rng.integers(1, 16, size=k)
        total = int(weights.sum())
        probs = [Fraction(int(w), total) for w in weights]
        if sum(probs) == 1:
            break
    entries = []
    for p in probs:
        entries.append((p, int(rng.integers(-2, 3)), int(rng.integers(1, 4)),
                        float(rng.integers(1, 4))))
    from scoutsim.walks import make_law
    return make_law(entries)


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(2024)
    trials = 100000
    worst = 0.0
    events = itertools.cycle(["hit:2", "lookaround:2", "reach:3", "exit:2",
                              "position:1"])
    for i in range(20):
        law = _random_law(rng)
        horizon = int(rng.integers(4, 21))
        event = next(events)
        p = float(exact_dp_oracle(law, 0, horizon, event))
        f = mc_event_frequency(law, 0, horizon, event, trials, root_seed=1000 + i)
        sigma = math.sqrt(p * (1 - p) / trials)
        if sigma == 0:
            assert f == p, (i, event, f, p)
        else:
            z = abs(f - p) / sigma
            worst = max(worst, z)
            assert z <= 4, (i, event, f, p, z)
    _report(1, "oracle equivalence (20 laws, 1e5 trials, 4 sigma)", True,
            f"worst deviation {worst:.2f} sigma")


# ---------------------------------------------------------------------------
# 2 & 3 share the single-walk hitting sample


@pytest.fixture(scope="module")
def srw_hitting():
    p = builtin("srw", d=1)
    times = hit_times(p, [(1,)], 100000, 1 << 20, root_seed=20)
    return times[:, 0]


def test_criterion_02_hitting_law_slope(srw_hitting):
    cap = 1 << 20
    curve = SurvivalCurve.from_samples(srw_hitting, cap)
    keep = curve.thresholds >= 8
    fit = fit_tail(SurvivalCurve(curve.thresholds[keep], curve.survivors[keep],
                                 curve.total, cap), "power")
    slope_ok = abs(fit.slope + 0.5) <= 0.05

    srw_law = parse_law("srw")
    dp_ok = True
    worst = 0.0
    n = srw_hitting.size
    for u in (1, 2, 4, 8, 16, 32, 64):
        p_exact = float(exact_dp_oracle(srw_law, 0, u, "hit:1"))
        f = float((srw_hitting > u).mean())
        sigma = math.sqrt(p_exact * (1 - p_exact) / n)
        z = abs(f - p_exact) / sigma
        worst = max(worst, z)
        dp_ok = dp_ok and z <= 4
    _report(2, "single-walk hitting tail", slope_ok and dp_ok,
            f"slope {fit.slope:.4f} (want -0.5 +/- 0.05), "
            f"oracle agreement worst {worst:.2f} sigma at u<=64")


def test_criterion_03_recurrence_trichotomy(srw_hitting):
    cap = 1 << 20
    one = summarize_censored("srw-hit", srw_hitting, cap, 20)
    v1 = divergence_flag(one)

    pair = builtin("independent_walks", d=1, c=2)
    meet = first_meeting_times(pair, 40000, 1 << 16, root_seed=21)
    ms = summarize_censored("pair-meeting", meet, 1 << 16, 21)
    v2 = divergence_flag(ms)
    curve = ms.curve
    keep = curve.thresholds >= 8
    fit = fit_tail(SurvivalCurve(curve.thresholds[keep], curve.survivors[keep],
                                 curve.total, curve.censor_cap), "power")
    slope_ok = abs(fit.slope + 0.5) <= 0.05

    trio = builtin("independent_walks", d=1, c=3)
    times3 = hit_times(trio, [(5,)], 20000, 1 << 22, root_seed=22)
    ts = summarize_censored("three-walks", times3[:, 0], 1 << 22, 22)
    v3 = divergence_flag(ts)

    ok = (v1 == INFINITE and v2 == INFINITE and slope_ok
          and v3 == FINITE and ts.censored_fraction < 0.01)
    _report(3, "recurrence trichotomy controls", ok,
            f"1 walk: {v1}; meeting: {v2} slope {fit.slope:.3f}; "
            f"3 walks: {v3} censored {ts.censored_fraction:.4%}")


# ---------------------------------------------------------------------------
# 4. engineered sweep protocols are effective at desk scale


def _epoch_hit_frequencies(protocol, targets, marks_fn, horizon, replicas,
                           root_seed, chunk=48):
    """Per-epoch hit counts measured from batch traces.

    ``marks_fn(P, S)`` returns a boolean (replicas, horizon+1) array of
    epoch-start steps; hits are counted once per epoch per target.  An
    epoch [a, b) of a replica hits a target when the count of steps at
    which some scout stands on it grows from a to b.
    """
    epochs = 0
    hits = {t: 0 for t in targets}
    for rep_start in range(0, replicas, chunk):
        n = min(chunk, replicas - rep_start)
        P, S = run_batch(protocol, horizon, root_seed, n, replica_start=rep_start)
        rows, steps = np.nonzero(marks_fn(P, S))
        same = rows[1:] == rows[:-1]  # consecutive marks of one replica
        r, a, b = rows[1:][same], steps[:-1][same], steps[1:][same]
        epochs += int(same.sum())
        for t in targets:
            on = (P == np.array(t)).all(-1).any(-1)  # (n, horizon+1)
            seen = np.zeros((n, horizon + 2), dtype=np.int64)
            np.cumsum(on, axis=1, out=seen[:, 1:])  # seen[r, s]: steps < s on t
            hits[t] += int((seen[r, b] > seen[r, a]).sum())
    return epochs, hits


def _epoch_hit_frequencies_loop(protocol, targets, marks_fn, horizon, replicas,
                                root_seed, chunk=48):
    """Reference for :func:`_epoch_hit_frequencies`: each epoch of each
    replica scanned for each target."""
    epochs = 0
    hits = {t: 0 for t in targets}
    for rep_start in range(0, replicas, chunk):
        n = min(chunk, replicas - rep_start)
        P, S = run_batch(protocol, horizon, root_seed, n, replica_start=rep_start)
        starts = marks_fn(P, S)
        for r in range(n):
            marks = np.flatnonzero(starts[r])
            for i in range(len(marks) - 1):
                epochs += 1
                seg = P[r, marks[i]:marks[i + 1]]
                for t in targets:
                    tgt = np.array(t)
                    if ((seg == tgt[None, None, :]).all(-1)).any():
                        hits[t] += 1
    return epochs, hits


def test_epoch_hit_frequencies_match_loop():
    p = builtin("anchored_geometric", d=1, p="1/2")
    home = [p.state_names.index("b-home-"), p.state_names.index("b-home+")]

    def marks(P, S):
        return np.isin(S[:, :, 1], home) & (P[:, :, 1, 0] == 0)

    args = (p, [(k,) for k in (-4, -2, -1, 1, 2, 4)], marks, 600, 10, 41)
    got = _epoch_hit_frequencies(*args, chunk=4)
    assert got == _epoch_hit_frequencies_loop(*args, chunk=4)
    assert got[0] > 50 and all(got[1].values())


def test_criterion_04_anchored_protocols_effective():
    # dimension one: anchor + sweeper, p = 1/2
    p1 = builtin("anchored_geometric", d=1, p="1/2")
    targets1 = [(k,) for k in range(-4, 5)]
    summaries = monte_carlo_hitting_multi(p1, targets1, replicas=3000,
                                          cap=1 << 12, root_seed=40)
    verdicts1 = {s.target: divergence_flag(s.summary) for s in summaries}
    finite1 = all(v == FINITE for v in verdicts1.values())

    # an epoch renews each step the sweeper stands at the anchor in a home state
    names1 = p1.state_names
    home1 = [names1.index("b-home-"), names1.index("b-home+")]

    def marks_d1(P, S):
        return np.isin(S[:, :, 1], home1) & (P[:, :, 1, 0] == 0)

    epochs, hits = _epoch_hit_frequencies(
        p1, [(k,) for k in (-4, -2, -1, 1, 2, 4)], marks_d1,
        horizon=8192, replicas=96, root_seed=41)
    freq_ok1 = True
    worst1 = 0.0
    for t, count in hits.items():
        expect = 0.5 * 0.5 ** abs(t[0])
        sigma = math.sqrt(expect * (1 - expect) / epochs)
        z = abs(count / epochs - expect) / sigma
        worst1 = max(worst1, z)
        freq_ok1 = freq_ok1 and z <= 3

    # dimension two: anchor + column scout + excursion scout, p = 1/2
    p2 = builtin("anchored_geometric", d=2, p="1/2")
    targets2 = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
    summaries2 = monte_carlo_hitting_multi(p2, targets2, replicas=384,
                                           cap=1 << 19, root_seed=42)
    verdicts2 = {s.target: divergence_flag(s.summary) for s in summaries2}
    finite2 = all(v == FINITE for v in verdicts2.values())
    censored2 = max(s.summary.censored_fraction for s in summaries2)

    # an epoch renews when the column scout re-enters a wait state from a
    # home state (only happens at the anchor)
    names2 = p2.state_names
    wait2 = [names2.index("b-wait+x"), names2.index("b-wait-x")]
    home2 = [names2.index("b-home-x"), names2.index("b-home+x")]

    def marks_d2(P, S):
        b = S[:, :, 1]
        out = np.zeros(b.shape, dtype=bool)
        out[:, 1:] = np.isin(b[:, 1:], wait2) & np.isin(b[:, :-1], home2)
        return out

    off_axis = [(1, 1), (2, 1), (-2, 3), (3, -2), (1, -4)]
    epochs2, hits2 = _epoch_hit_frequencies(
        p2, off_axis, marks_d2,
        horizon=8192, replicas=336, root_seed=43)
    freq_ok2 = True
    worst2 = 0.0
    for t, count in hits2.items():
        expect = 0.25 * 0.5 ** (abs(t[0]) + abs(t[1]))
        sigma = math.sqrt(expect * (1 - expect) / epochs2)
        z = abs(count / epochs2 - expect) / sigma
        worst2 = max(worst2, z)
        freq_ok2 = freq_ok2 and z <= 3

    ok = finite1 and freq_ok1 and finite2 and freq_ok2
    _report(4, "anchored sweep protocols effective", ok,
            f"d=1: 9/9 finite={finite1}, epoch law worst {worst1:.2f} sigma "
            f"({epochs} epochs); d=2: 81/81 finite={finite2} "
            f"(max censored {censored2:.3%}), epoch law worst {worst2:.2f} sigma "
            f"({epochs2} epochs)")


# ---------------------------------------------------------------------------
# 5. exact drift identities


def test_criterion_05_exact_drift_identities():
    rng = np.random.default_rng(500)
    worst = 0.0
    for i in range(50):
        k = random_rational_kernel(rng, int(rng.integers(2, 7)), 1)
        info = classes(k).recurrent_classes()[0]
        d = effective_drift(k, info.states)[0]
        rs = kernel_renewal_samples(k, info.states[0], 2000, root_seed=5000 + i)
        # E[zeta]/E[nu] = d exactly, i.e. E[zeta - d nu] = 0: t-statistic
        resid = rs.zeta[:, 0] - float(d) * rs.nu
        se = resid.std(ddof=1) / math.sqrt(resid.size)
        z = abs(resid.mean()) / se if se > 0 else 0.0
        worst = max(worst, z)
        assert z <= 3, (i, z)

    worst_dd = 0.0
    for i in range(50):
        k1 = random_rational_kernel(rng, int(rng.integers(1, 5)), 1)
        k2 = random_rational_kernel(rng, int(rng.integers(1, 5)), 1)
        c1 = classes(k1).recurrent_classes()[0].states
        c2 = classes(k2).recurrent_classes()[0].states
        d1 = effective_drift(k1, c1)[0]
        d2 = effective_drift(k2, c2)[0]
        kd = product_kernel(k1, k2, difference=True)
        for info in classes(kd).recurrent_classes():
            pair_states = {s.split("|")[0] for s in info.states}
            if not pair_states <= set(c1):
                continue
            dd = effective_drift(kd, info.states)[0]
            err = abs(float(dd) - (float(d1) - float(d2)))
            worst_dd = max(worst_dd, err)
            assert err <= 1e-12
            break
    _report(5, "exact drift identities", True,
            f"renewal ratio worst {worst:.2f} sigma (50 kernels); "
            f"difference-drift worst error {worst_dd:.2e} (50 pairs)")


# ---------------------------------------------------------------------------
# 6. degeneracy verdicts agree with simulation


def _confinement_holds(k, verdict, root_seed, chains=64, steps=512):
    root = next(k.states.index(name) for name, off in verdict.offsets.items()
                if off == (0,) * k.dim)
    offsets = np.array([verdict.offsets[s] for s in k.states], dtype=np.int64)
    # the i.i.d. branch hands out one (1, R) view of the states for a block
    return all(np.array_equal(_unpack(keys[..., 0], k.dim),
                              offsets[np.broadcast_to(states[..., 0], keys.shape[:2])])
               for _, keys, states in _kernel_sim(k, [root], chains, root_seed).blocks(steps))


def test_criterion_06_degeneracy_soundness():
    rng = np.random.default_rng(600)
    n_deg = 0
    n_non = 0
    worst_bound = 0.0
    for i in range(100):
        if i % 2 == 0:
            k = random_degenerate_kernel(rng, int(rng.integers(2, 6)),
                                         int(rng.integers(1, 3)))
        else:
            while True:
                k = random_rational_kernel(rng, int(rng.integers(1, 6)),
                                           int(rng.integers(1, 3)))
                info = classes(k).recurrent_classes()[0]
                if frozenset(info.states) != frozenset(k.states):
                    continue
                v = degeneracy_check(k, info.states)
                if v.degenerate:
                    break  # rare but legitimate: test it as degenerate
                if return_nonzero_probability(k) >= 0.05:
                    break
        info = classes(k).recurrent_classes()[0]
        verdict = degeneracy_check(k, info.states)
        rs = kernel_renewal_samples(k, info.states[0], 10000, root_seed=6000 + i)
        observed_nonzero = bool((rs.zeta != 0).any())
        if verdict.degenerate:
            n_deg += 1
            assert not observed_nonzero, f"kernel {i}: degenerate verdict, moving returns"
            assert _confinement_holds(k, verdict, root_seed=6500 + i), \
                f"kernel {i}: escaped the offset set"
        else:
            n_non += 1
            q = return_nonzero_probability(k)
            worst_bound = max(worst_bound, (1 - q) ** 10000 if q < 1 else 0.0)
            assert observed_nonzero, f"kernel {i}: witness exists, no moving return seen"
    _report(6, "degeneracy verdict soundness", True,
            f"{n_deg} degenerate + {n_non} witnessed kernels agree; "
            f"miss-probability bound {worst_bound:.2e}")


# ---------------------------------------------------------------------------
# 7. gap-tail diagnostic discriminates


def test_criterion_07_meeting_tail_discrimination():
    anchored = meeting_tail(builtin("anchored_geometric", d=1, p="1/2"),
                            trials=1500, cap=1 << 12, root_seed=70)
    control = meeting_tail(builtin("independent_walks", d=1, c=2),
                           trials=2000, cap=1 << 14, root_seed=71)
    ok = anchored.passed and not control.passed
    _report(7, "gap-tail diagnostic discrimination", ok,
            f"anchored R2 {anchored.fit.r_squared:.3f} (PASS), "
            f"control R2 {control.fit.r_squared:.3f} (FAIL)")


# ---------------------------------------------------------------------------
# 8. the gap dominates every excursion on random traces


def test_criterion_08_gap_envelope_invariant():
    rng = np.random.default_rng(800)
    protocols = [random_two_scout_protocol(rng, 1) for _ in range(8)]
    protocols += [random_two_scout_protocol(rng, 2) for _ in range(8)]
    protocols += [
        builtin("anchored_geometric", d=1, p="1/2"),
        builtin("independent_walks", d=1, c=2),
        parse_protocol("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
                       "trans a * -> 1 a (0)\ntrans b * -> 1 b (0)\n"),
        parse_protocol("dim 1\nscouts 2\nstates a b\ninit 1 a\ninit 2 b\n"
                       "trans a * -> 1 a (+1)\ntrans b * -> 1 b (+1)\n"),
    ]
    traces = 0
    meetings = 0
    per_proto = 10000 // len(protocols)
    for pi, proto in enumerate(protocols):
        for rep_start in range(0, per_proto, 250):
            n = min(250, per_proto - rep_start)
            P, S = run_batch(proto, 1000, 8000 + pi, n, replica_start=rep_start)
            for r in range(n):
                tr = Trace(proto, SeedSpec(8000 + pi, rep_start + r), P[r], S[r])
                mr = extract_renewal(tr)  # raises EnvelopeViolation on failure
                traces += 1
                meetings += mr.count
    ok = traces >= 10000
    _report(8, "gap envelope invariant", ok,
            f"{traces} traces, {meetings} meetings, zero violations")


# ---------------------------------------------------------------------------
# 9. two equal-drift walks and a separating corridor: divergent mean


def test_criterion_09_joint_corridor_tail():
    res = check_joint_corridor_avoidance(
        LookAroundWalk(parse_law("srw"), 8.0),
        LookAroundWalk(parse_law("srw"), -8.0),
        (-2.0, 2.0), trials=30000, cap=1 << 13, root_seed=90)
    ok = res.passed and res.estimate >= -1.15
    _report(9, "joint corridor-avoidance tail", ok,
            f"slope {res.estimate:.3f} (floor -1.15), "
            f"fit R2 {res.fit.r_squared:.3f}")


# ---------------------------------------------------------------------------
# 10. bit-identical reruns and thread neutrality


def test_criterion_10_determinism(monkeypatch):
    def chunked(chunk, protocol, *args, **kw):
        monkeypatch.setattr(engine, "_REPLICA_CHUNK", chunk)
        return hit_times(protocol, *args, **kw)

    p = builtin("independent_walks", d=1, c=2)
    a = chunked(512, p, [(2,)], 5000, 1 << 12, root_seed=100, threads=1)
    b = chunked(173, p, [(2,)], 5000, 1 << 12, root_seed=100, threads=8)
    c = chunked(5000, p, [(2,)], 5000, 1 << 12, root_seed=100, threads=1)
    arrays_equal = np.array_equal(a, b) and np.array_equal(a, c)

    anchored = builtin("anchored_geometric", d=2, p="1/2")
    t1 = chunked(8192, anchored, [(2, 1)], 300, 1 << 12, root_seed=101)
    t2 = chunked(97, anchored, [(2, 1)], 300, 1 << 12, root_seed=101, threads=4)
    general_equal = np.array_equal(t1, t2)

    r1 = meeting_tail(builtin("anchored_geometric", d=1, p="1/2"),
                      trials=300, cap=1 << 10, root_seed=102).to_json()
    r2 = meeting_tail(builtin("anchored_geometric", d=1, p="1/2"),
                      trials=300, cap=1 << 10, root_seed=102).to_json()
    json_equal = r1 == r2

    ok = arrays_equal and general_equal and json_equal
    _report(10, "determinism across reruns, chunking, threads", ok,
            f"fast-path arrays equal: {arrays_equal}; "
            f"general-path arrays equal: {general_equal}; "
            f"check JSON equal: {json_equal}")
