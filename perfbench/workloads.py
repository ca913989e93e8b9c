"""Seeded workloads of the scoutsim benchmark.

Each workload is a fixed list of jobs built from the workload seed.  A job
is one call (or a short chain of calls) into scoutsim's public functions or
``scoutsim.cli.main``, always with ``threads=1``.  Running a job is split
into a timed ``call`` and an untimed ``finish`` that turns the call's result
into canonical digest content, logical work counts, and independent checks.

Digest content is numerical, never a JSON layout: hit and meeting time
arrays as little-endian int64, the ``renewal`` CLI stdout bytes, and
``Fraction`` strings of stationary laws, drifts, degeneracy verdicts and DP
probabilities.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from scoutsim import analysis, cli, engine, protocol, renewal, walks
from tracing import TRACER

class CheckFailed(AssertionError):
    """An output failed one of the benchmark's independent checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    finish: Callable[[Any], tuple[list[bytes], dict[str, int]]]


def digest(parts: list[bytes]) -> str:
    """sha256 over length-prefixed content parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def le_int64(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<i8").tobytes()


# ---------------------------------------------------------------------------
# logical work, computed from inputs and outputs only


def replica_steps(times: np.ndarray, cap: int) -> int:
    """Sum over replicas of min(max_k T_rk, cap): steps a replica must run."""
    t = times.reshape(times.shape[0], -1).max(axis=1)
    return int(np.minimum(t, cap).sum())


def dp_cells(outcomes: list[tuple[Fraction, int]], horizon: int) -> int:
    """Cells the exact DP touches, by the oracle's own budget formula
    (every oracle checks its budget at horizon + 1).  Computed, not counted."""
    h = horizon + 1
    span = max(1, max(abs(z) for _, z in outcomes))
    return (2 * span * h + 1) * h * len(outcomes)


# ---------------------------------------------------------------------------
# sweep2d_hitting: the general VectorSim path with 3 scouts and 81 targets


SWEEP_REPLICAS = 32
SWEEP_CAP = 1 << 10
SWEEP_JOBS = 4


def _sweep2d(rng: random.Random) -> list[Job]:
    p = protocol.builtin("anchored_geometric", {"d": 2, "p": "1/2"})
    targets = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    engine.VectorSim(p, 1, 0)  # first compile belongs to set-up
    jobs = []
    for _ in range(SWEEP_JOBS):
        seed = rng.randrange(1 << 31)

        def call(seed=seed):
            summaries = engine.monte_carlo_hitting_multi(
                p, targets, SWEEP_REPLICAS, SWEEP_CAP, seed, threads=1)
            return [renewal.divergence_report(s.summary) for s in summaries]

        def finish(reports):
            times = TRACER.take("hit_times")
            require(times.shape == (SWEEP_REPLICAS, len(targets)), "hit-time shape")
            require(int(times.min()) >= 0 and int(times.max()) <= SWEEP_CAP + 1,
                    "hit time out of range")
            steps = replica_steps(times, SWEEP_CAP)
            verdicts = "\n".join(r["verdict"] for r in reports).encode()
            return [le_int64(times), verdicts], {
                "replica_steps": steps, "scout_steps": steps * p.scouts,
                "vectorsim_replica_steps": steps}

        jobs.append(Job("hitting_d2_81", call, finish))
    return jobs


# ---------------------------------------------------------------------------
# iid_walks: the iid block path, no VectorSim and no many-target detection


# Caps are small enough that censored replicas, which run to the cap, do not
# dominate the work: the work per round then varies by about 1% between seeds.
# Replica counts keep a first-meeting job, the slowest kind, short enough
# that a run holds at least 11 of them even on a box twice as slow, so the
# 11th-slowest job stays inside that kind.
IID_SRW1 = (500, 1 << 13, [(1,), (-4,), (9,)])
IID_MEET = (500, 1 << 13)
IID_SRW2 = (256, 1 << 12, [(1, 0), (0, 2)])
IID_ROUNDS = 2


def _hitting_job(kind: str, p, replicas: int, cap: int, targets, seed: int) -> Job:
    def call():
        return engine.monte_carlo_hitting_multi(p, targets, replicas, cap, seed,
                                                threads=1)

    def finish(summaries):
        times = TRACER.take("hit_times")
        require(times.shape == (replicas, len(targets)), "hit-time shape")
        require(len(summaries) == len(targets), "one summary per target")
        for k, s in enumerate(summaries):
            require(s.summary.n_censored == int((times[:, k] > cap).sum()),
                    "censored count disagrees with hit times")
        steps = replica_steps(times, cap)
        return [le_int64(times)], {"replica_steps": steps,
                                   "scout_steps": steps * p.scouts}

    return Job(kind, call, finish)


def _iid_walks(rng: random.Random) -> list[Job]:
    srw1 = protocol.builtin("srw", {"d": 1})
    srw2 = protocol.builtin("srw", {"d": 2})
    pair = protocol.builtin("independent_walks", {"d": 1, "c": 2})
    for p in (srw1, srw2, pair):
        engine.VectorSim(p, 1, 0)
    jobs = []
    for _ in range(IID_ROUNDS):
        jobs.append(_hitting_job("srw1_hitting", srw1, IID_SRW1[0], IID_SRW1[1],
                                 IID_SRW1[2], rng.randrange(1 << 31)))
        seed = rng.randrange(1 << 31)
        replicas, cap = IID_MEET

        def call(seed=seed, replicas=replicas, cap=cap):
            return engine.first_meeting_times(pair, replicas, cap, seed, threads=1)

        def finish(times, replicas=replicas, cap=cap):
            require(times.shape == (replicas,), "meeting-time shape")
            require(int(times.min()) >= 1 and int(times.max()) <= cap + 1,
                    "meeting time out of range")
            steps = int(np.minimum(times, cap).sum())
            return [le_int64(times)], {"replica_steps": steps,
                                       "scout_steps": 2 * steps}

        jobs.append(Job("first_meeting", call, finish))
        jobs.append(_hitting_job("srw2_hitting", srw2, IID_SRW2[0], IID_SRW2[1],
                                 IID_SRW2[2], rng.randrange(1 << 31)))
    return jobs


# ---------------------------------------------------------------------------
# renewal_cli: the scalar engine, renewal extraction and the CLI, in-process


RENEWAL_PROTOCOLS = ("builtin:anchored_geometric?d=1,p=1/2",
                     "builtin:independent_walks?d=1,c=2")
RENEWAL_HORIZON = 8192
RENEWAL_TRIALS = 500
RENEWAL_CAP = 1024
# A round is independent, anchored, independent.  Independent-walk jobs
# take about twice as long, so with two of every three jobs both the median
# and the 11th-slowest job fall inside that one mode, whatever the number
# of rounds (from 6 up), instead of on the gap between the two modes.
RENEWAL_ROUND = (1, 0, 1)


def _renewal_cli(rng: random.Random) -> list[Job]:
    engine.VectorSim(protocol.builtin("anchored_geometric", {"d": 1, "p": "1/2"}), 1, 0)
    engine.VectorSim(protocol.builtin("independent_walks", {"d": 1, "c": 2}), 1, 0)
    jobs = []
    for kind in RENEWAL_ROUND:
        spec = RENEWAL_PROTOCOLS[kind]
        argv = ["renewal", "--protocol", spec, "--horizon", str(RENEWAL_HORIZON),
                "--tail", "--trials", str(RENEWAL_TRIALS), "--cap", str(RENEWAL_CAP),
                "--seed", str(rng.randrange(1 << 31))]

        def call(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def finish(result):
            code, text = result
            require(code == cli.EXIT_OK, f"renewal exited {code}")
            gaps = TRACER.take("meeting_gap_samples")
            csv_text, brace, tail_text = text.partition("{")
            rows = csv_text.splitlines()[1:]
            require(rows and rows[0].startswith("0,"), "renewal CSV starts at k=0")
            last_time = sum(int(r.rsplit(",", 1)[1]) for r in rows)
            require(last_time <= RENEWAL_HORIZON, "meeting gaps exceed the horizon")
            require(brace and f'"n_gaps": {gaps.size},' in tail_text,
                    "meeting tail reports a different gap count")
            out = text.encode()
            return [out], {
                "replica_steps": RENEWAL_HORIZON + int(gaps.sum()),
                "scout_steps": 2 * (RENEWAL_HORIZON + int(gaps.sum())),
                "vectorsim_replica_steps": int(gaps.sum()),
                "scalar_steps": RENEWAL_HORIZON,
                "meetings": len(rows) - 1,
                "output_bytes": len(out)}

        jobs.append(Job("renewal_" + spec.split(":")[1].split("?")[0], call, finish))
    return jobs


# ---------------------------------------------------------------------------
# exact_analysis: pure Fraction work, no streams and no engine


# Work shapes are fixed per round and the seed fills in the details (rows,
# moves, probabilities, event arguments), so a round costs about the same
# on every seed.  States per scout stay <= 8: the product class of
# difference_drift has n1 * n2 states and its exact solve grows steeply.
PROTOCOL_SIZES = ((5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (5, 7))
ROW_WEIGHTS = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
# (event, law, horizon).  "gen" is a seeded integer law: the weights 1/4,
# 1/4, 1/2 on the steps -1, 0, +1 in seeded order, with seeded look radii.
# Event arguments exceed every look radius, so no event holds at time 0.
# Events that prune the support on one side (reach, exit) use srw only,
# where the pruned share does not depend on the seed.
DP_SLOTS = (("hit", "srw", 300), ("lookaround", "gen", 200), ("reach", "srw", 300),
            ("exit", "srw", 250), ("meeting", "srw", 180), ("hit", "gen", 150),
            ("lookaround", "srw", 250), ("hit", "gen", 200))
SRW = ("1/2:1;1/2:-1", [(Fraction(1, 2), 1), (Fraction(1, 2), -1)])


def _block_rows(rng: random.Random, names: list[str]):
    """Irreducible, aperiodic rows on ``names``: state q moves to q+1, q+2 or
    stays, with seeded weights and moves.  The support is the same on every
    seed, so the exact solves cost about the same."""
    rows = {}
    n = len(names)
    for q in range(n):
        targets = ((q + 1) % n, (q + 2) % n, q)
        probs = rng.sample(ROW_WEIGHTS, 3)
        rows[names[q]] = [(pr, names[t], rng.choice((-1, 0, 1)))
                          for pr, t in zip(probs, targets)]
    return rows


def _render_row(state: str, pattern: str, row) -> str:
    outs = " | ".join(f"{pr} {to} ({mv:+d})" if mv else f"{pr} {to} (0)"
                      for pr, to, mv in row)
    return f"trans {state} {pattern} -> {outs}"


def make_two_scout_protocol(rng: random.Random, n1: int, n2: int):
    """Protocol text with a state block per scout, plus exact-set rows that
    apply only when the scouts share a point."""
    a = [f"a{i}" for i in range(n1)]
    b = [f"b{i}" for i in range(n2)]
    rows = {**_block_rows(rng, a), **_block_rows(rng, b)}
    lines = ["dim 1", "scouts 2", "states " + " ".join(a + b), "origin 0",
             "init 1 a0", "init 2 b0"]
    for state, row in rows.items():
        lines.append(_render_row(state, "*", row))
    for state, other in ((a[-1], b[0]), (b[-1], a[0])):
        lines.append(_render_row(state, "{" + other + "}", [(Fraction(1), state, 0)]))
    return "\n".join(lines) + "\n", rows


def _check_class(rows, states, pi, drift) -> None:
    require(sum(pi) == 1, "stationary law does not sum to 1")
    index = {s: j for j, s in enumerate(states)}
    flow = [Fraction(0)] * len(states)
    mean = Fraction(0)
    for s, w in zip(states, pi):
        for pr, to, mv in rows[s]:
            flow[index[to]] += w * pr
            mean += w * pr * mv
    require(flow == list(pi), "stationary law is not stationary")
    require(tuple(drift) == (mean,), "drift differs from sum_q pi(q) E[move | q]")


def _protocol_job(text: str, rows) -> Job:
    def call():
        p = protocol.parse_protocol(text)
        violations = protocol.validate(p)
        phash = protocol.protocol_hash(p)
        reports = [analysis.analyze_protocol(p, scout) for scout in (1, 2)]
        return p, violations, phash, reports, analysis.difference_drift(p)

    def finish(result):
        p, violations, phash, reports, ddrift = result
        require(not violations, "generated protocol has violations")
        parts = [phash.encode()]
        drifts = {}
        for rep in reports:
            for info in rep.classes:
                fields = [",".join(info.states), str(info.recurrent)]
                if info.recurrent:
                    _check_class(rows, info.states, info.pi, info.drift)
                    drifts[info.states[0][0]] = info.drift[0]
                    fields += [",".join(str(v) for v in info.pi),
                               ",".join(str(v) for v in info.drift),
                               str(info.degeneracy.degenerate)]
                parts.append(";".join(fields).encode())
        # by independence every recurrent product class drifts by d1 - d2
        require(ddrift == (drifts["a"] - drifts["b"],),
                "difference drift is not drift1 - drift2")
        parts.append(",".join(str(v) for v in ddrift).encode())
        n = len(p.state_names)
        return parts, {"product_states": n * n}

    return Job("analyze_protocol", call, finish)


def _gen_law(rng: random.Random):
    probs = ROW_WEIGHTS
    zetas = rng.sample((-1, 0, 1), 3)
    text = ";".join(f"{pr}:{z},1,{rng.choice((1, 2))}" for pr, z in zip(probs, zetas))
    return text, list(zip(probs, zetas))


def _dp_job(event: str, law, horizon: int, arg: int) -> Job:
    law_text, outcomes = law
    walk = walks.parse_law(law_text)
    if event == "meeting":
        spec = event
        cells = dp_cells([(p1 * p2, z1 - z2) for p1, z1 in outcomes
                          for p2, z2 in outcomes], horizon)
    else:
        spec = f"{event}:{arg}"
        cells = dp_cells(outcomes, horizon)

    def call():
        if event == "meeting":
            return walks.exact_dp_oracle(walk, 0, horizon, spec, law2=walk, s02=2 * arg)
        return walks.exact_dp_oracle(walk, 0, horizon, spec)

    def finish(prob):
        require(isinstance(prob, Fraction) and 0 <= prob <= 1,
                "DP probability outside [0, 1]")
        return [f"{spec}@{horizon}={prob}".encode()], {"dp_cells": cells}

    return Job("dp_" + event, call, finish)


def _exact_analysis(rng: random.Random) -> list[Job]:
    jobs = [_protocol_job(*make_two_scout_protocol(rng, n1, n2))
            for n1, n2 in PROTOCOL_SIZES]
    for event, law, horizon in DP_SLOTS:
        jobs.append(_dp_job(event, SRW if law == "srw" else _gen_law(rng), horizon,
                            rng.randint(3, 6)))
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {
    "sweep2d_hitting": _sweep2d,
    "iid_walks": _iid_walks,
    "renewal_cli": _renewal_cli,
    "exact_analysis": _exact_analysis,
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's fixed job list; the same seed gives the same jobs."""
    return JOB_LISTS[workload](random.Random(f"scoutsim-bench/{workload}/{seed}"))
