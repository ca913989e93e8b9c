"""Look-around random walks: samplers, exact oracles, and statistical checks.

A step law is a finite-support distribution over triples (zeta, nu, R): the
spatial displacement of a step, the time it took, and the radius within
which the walk can detect a target while standing at the pre-step position.
The walk S_n = s0 + zeta_1 + ... + zeta_n paired with the radius sequence
models a process that at time n "sees" everything within R_{n+1} of S_n.

The checks estimate the tail laws such walks obey in the three structural
regimes (positive drift, zero drift, degenerate steps) and report
PASS/FAIL verdicts against the expected shapes.  Verdicts are consistency
statements about finite samples, not proofs.  Samplers draw steps through
the package's one categorical sampler, :class:`streams.Categorical`, with
the law as its one row: cumulated exactly when every probability is a
``Fraction``, in float otherwise.

Each event is defined once, in one table (``_EVENTS``): a predicate
cond(s, r) of a position and a radius at one check, and the first checked
time as a function of the horizon.  The predicates use only ``abs``,
comparisons and ``&``, so the same function serves the exact oracle (on
Python ints), the Monte-Carlo frequency and the checks (on numpy arrays).
Two-walk events act on S1 - S2 with radius R1 + R2: the difference law in
the oracle, the sampled paths in the Monte Carlo.  One exact forward
dynamic program, :func:`_dp_survival`, provides the independent oracle for
every event with integer displacements.  It runs on Python integers: with
D the lcm of the outcome probabilities' denominators, outcome j carries the
integer weight a_j = p_j * D, and the surviving mass at each position after
n steps is an integer numerator over D**n.  The numerators of all positions
are packed into one int, one slot of W bits per position with W a multiple
of 8 and 2**W > D**horizon, so that no carry crosses a slot (Kronecker
substitution); slots step by g, the gcd of the displacement differences,
so a law with steps +-10 packs only the positions it can reach.  Each
distinct floor radius has one mask, all-ones slots at the positions where
the event does not hold, built once over the reachable range; a step is
one AND with each mask and one shift-and-add per merged (radius,
displacement) outcome, and empty low slots are shifted out after each
step.  Integer sums and products are exact, so the one
``Fraction(numerator, D**n)`` built at the end equals the rational answer
bit for bit.  Integer displacements must lie in int64.

Every Monte-Carlo estimate is a stopping time found by one sampler,
:func:`_stopping_times` (:func:`sample_walk` is the single-path API): per
trial and event column, the first check m in [check_from, cap] at which
the event holds.  The frequency asks if its event fails at every check from
its first checked time, the deviation check if S_n >= y at check n.  It draws in
blocks of ``engine._iid_block`` checks (2**14 variates per walk over the
active trials, so blocks grow as trials finish) and drops a trial once
every column is decided.  Draws are keyed by (trial, walk, step) (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), and integer
displacements are carried exactly as int64 offsets from s0 (a run whose
offsets could reach 2**63 is refused), so for integer steps neither the
partition nor the dropping changes a value.  A walk with integer steps and
an integer s0 has int64 positions, s0 + offset.  The frequency then compares
each radius as its int64 floor, clamped at a power of two above every
distance its event can compare, so each comparison is exact and no sum
leaves int64; a run whose positions, argument and clamp could reach 2**63
is refused (:func:`_clamp`); the escape and corridor checks compare S - x,
S - lo, hi - S and S1 - S2 by the same rule.  Float steps are summed block
by block, so float-step ``lemma`` results are not pinned across block
partitions.  Single-walk checks run on the step clock.  The corridor runs
on the integer time clock: at time m walk i stands at step k_i(m), the
last k with T_k <= m, read per trial from the block's cumulated
durations; for unit-time laws k(m) = m.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import engine, streams
from .errors import BudgetExceededError, PreconditionError
from .protocol import ROW_SUM_TOLERANCE
from .tails import (FIT_R2_MIN, MIN_FIT_POINTS, MIN_FIT_SURVIVORS, InsufficientDataError,
                    SurvivalCurve, TailFit, fit_tail, wilson_interval)

_DP_CELL_BUDGET = 8_000_000
# most steps per trial of the exit-time check: u_max = 8 * max(1, rho)**2
# stays within it for rho up to about 362
_EXIT_STEP_BUDGET = 1 << 20
_INT64 = 1 << 63
# verdict thresholds of the checks: a reach-tail slope may miss -1/2 by
# REACH_SLOPE_TOL and its scaling over the offsets REACH_OFFSETS needs
# r_squared >= REACH_SCALING_R2_MIN; a corridor slope must stay at or above
# CORRIDOR_SLOPE_FLOOR.  The exit-time curve has EXIT_GRID_POINTS thresholds.
REACH_SLOPE_TOL = 0.07
REACH_SCALING_R2_MIN = 0.85
REACH_OFFSETS = (2.0, 4.0, 6.0, 8.0)
CORRIDOR_SLOPE_FLOOR = -1.15
EXIT_GRID_POINTS = 12


# ---------------------------------------------------------------------------
# step laws


@dataclass(frozen=True)
class LawOutcome:
    probability: Fraction | float
    zeta: int | float
    nu: int = 1
    radius: float = 1.0


@dataclass(frozen=True)
class StepLaw:
    """Finite-support law of (displacement, duration, look radius) triples."""

    outcomes: tuple[LawOutcome, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("a step law needs at least one outcome")
        total = 0.0
        for o in self.outcomes:
            if float(o.probability) < 0:
                raise ValueError("negative probability")
            if int(o.nu) != o.nu or o.nu < 1:
                raise ValueError("nu must be a positive integer")
            if not -math.inf < o.zeta < math.inf:  # also rejects NaN
                raise ValueError(f"zeta must be finite, got {o.zeta}")
            if (isinstance(o.zeta, int) or float(o.zeta).is_integer()) \
                    and not -_INT64 <= o.zeta < _INT64:  # integer steps are int64
                raise ValueError(f"an integer zeta must lie in int64, got {o.zeta}")
            if not 1 <= float(o.radius) < math.inf:  # also rejects NaN
                raise ValueError(f"radius must be finite and >= 1, got {o.radius}")
            total += float(o.probability)
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise ValueError(f"outcome probabilities sum to {total!r}, not 1")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(o.probability, Fraction) for o in self.outcomes)

    @cached_property
    def table(self) -> streams.Categorical:
        """The outcomes as the one row of a categorical table."""
        return streams.Categorical([[o.probability for o in self.outcomes]])

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-outcome zeta (int64 when every zeta is an integer), nu and radius."""
        if self.integer_zeta:
            zeta = np.array([int(o.zeta) for o in self.outcomes], dtype=np.int64)
        else:
            zeta = np.array([float(o.zeta) for o in self.outcomes])
        return (zeta, np.array([int(o.nu) for o in self.outcomes], dtype=np.int64),
                np.array([float(o.radius) for o in self.outcomes]))

    @property
    def integer_zeta(self) -> bool:
        return all(float(o.zeta).is_integer() for o in self.outcomes)

    @property
    def mean_zeta(self):
        if self.is_exact and self.integer_zeta:
            return sum((o.probability * int(o.zeta) for o in self.outcomes), Fraction(0))
        return float(sum(float(o.probability) * float(o.zeta) for o in self.outcomes))

    @property
    def zeta_identically_zero(self) -> bool:
        return all(o.zeta == 0 for o in self.outcomes if float(o.probability) > 0)

    @property
    def unit_time(self) -> bool:
        return all(o.nu == 1 for o in self.outcomes)


def make_law(entries: Sequence[tuple]) -> StepLaw:
    """Law from (probability, zeta[, nu[, radius]]) tuples.

    Probabilities given as strings or Fractions stay exact.
    """
    outs = []
    for e in entries:
        prob = e[0]
        if isinstance(prob, str):
            prob = Fraction(prob)
        elif isinstance(prob, (int,)):
            prob = Fraction(prob)
        zeta = e[1]
        nu = e[2] if len(e) > 2 else 1
        radius = e[3] if len(e) > 3 else 1.0
        outs.append(LawOutcome(prob, zeta, int(nu), float(radius)))
    return StepLaw(tuple(outs))


NAMED_LAWS: dict[str, Callable[[], StepLaw]] = {
    "srw": lambda: make_law([("1/2", 1), ("1/2", -1)]),
    "lazy": lambda: make_law([("1/4", 1), ("1/4", -1), ("1/2", 0)]),
    "up": lambda: make_law([(1, 1)]),
    "zero": lambda: make_law([(1, 0)]),
    "drift34": lambda: make_law([("3/4", 1), ("1/4", -1)]),
}


def parse_law(text: str) -> StepLaw:
    """Named law or literal ``p:zeta[,nu[,R]];p:zeta...``."""
    if text in NAMED_LAWS:
        return NAMED_LAWS[text]()
    entries = []
    for chunk in text.split(";"):
        prob_s, _, rest = chunk.partition(":")
        if not rest:
            raise ValueError(f"bad law outcome {chunk!r}")
        parts = rest.split(",")
        zeta = float(parts[0]) if "." in parts[0] else int(parts[0])
        nu = int(parts[1]) if len(parts) > 1 else 1
        rad = float(parts[2]) if len(parts) > 2 else 1.0
        try:
            prob = Fraction(prob_s)
        except ZeroDivisionError:
            raise ValueError(f"bad law probability {prob_s!r}") from None
        entries.append((prob, zeta, nu, rad))
    return make_law(entries)


@dataclass(frozen=True)
class LookAroundWalk:
    law: StepLaw
    s0: float = 0.0


@dataclass
class WalkPath:
    """One sampled trajectory: S_0..S_h, radii R_1..R_{h+1}, times T_0..T_h."""

    positions: np.ndarray
    radii: np.ndarray
    times: np.ndarray


def _max_step(law: StepLaw) -> int:
    return max(abs(int(o.zeta)) for o in law.outcomes)


def _start(w: LookAroundWalk, steps: int) -> int | float:
    """The walk's start: an int when its steps and s0 are integer-valued, so
    positions are carried exactly in int64 (``steps`` steps from it must stay
    inside int64), a float otherwise."""
    exact = w.law.integer_zeta and float(w.s0).is_integer()
    reach = (abs(int(w.s0)) if exact else 0) + steps * _max_step(w.law)
    if w.law.integer_zeta and reach >= _INT64:
        raise PreconditionError("integer walk positions could leave int64: "
                                f"|s0| + {steps} steps * max|zeta| >= 2**63")
    return int(w.s0) if exact else float(w.s0)


def sample_walk(w: LookAroundWalk, horizon: int, seed_root: int,
                trial: int = 0, walk_id: int = 0) -> WalkPath:
    """Deterministic single path: draw indices are (seed_root, trial, walk_id, step).

    Positions are int64 when the steps and s0 are integer-valued, float
    otherwise; integer positions that could leave int64 raise PreconditionError.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    zeta, nu, rad = w.law.arrays
    s0 = _start(w, horizon + 1)  # a float start would round the int steps
    b = w.law.table.draw(0, seed_root, trial, walk_id, 0, horizon + 1)
    S = np.empty(horizon + 1, dtype=np.int64 if isinstance(s0, int) else float)
    S[0] = s0
    if horizon:
        S[1:] = s0 + np.cumsum(zeta[b[:-1]])
    T = np.zeros(horizon + 1, dtype=np.int64)
    if horizon:
        T[1:] = np.cumsum(nu[b[:-1]])
    return WalkPath(S, rad[b], T)


def _stopping_times(walks: Sequence[LookAroundWalk], event, trials: int, cap: int,
                    root_seed: int, columns: int = 1, timed: bool = False,
                    check_from: int = 0) -> np.ndarray:
    """First check m in [check_from, cap] at which each event column holds,
    else cap + 1.

    Walk i draws on lane i.  At check m it stands at step k(m), with
    position S_k (int64 when the steps and s0 are integer-valued, float
    otherwise) and radius R_{k+1}: k(m) = m on the step clock, and with
    ``timed`` the last k whose time T_k (the sum of the first k durations)
    is at most m.  ``event(S, R)`` gets those per-walk positions and radii
    of the active trials as (active, B) arrays, one column per check of a
    block, and returns a boolean (active, B) or (active, B, columns) array.
    A block holds ``engine._iid_block(t0, cap + 1, active)`` checks, and a
    trial leaves once every column is decided (see the module docstring).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engine._check_cap(cap)
    starts = [_start(w, cap + 1) for w in walks]
    out = np.empty((trials, columns), dtype=np.int64)
    idx = np.arange(trials, dtype=np.int64)
    times = np.full((trials, columns), cap + 1, dtype=np.int64)  # of the active trials
    # per walk and active trial: step k(t0), its time T_k (both kept on the
    # time clock only; else k(t0) = t0) and the offset S_k - s0
    state = [(np.zeros(trials, np.int64), np.zeros(trials, np.int64),
              np.zeros(trials, w.law.arrays[0].dtype)) for w in walks]
    t0 = 0
    while t0 <= cap and idx.size:
        n = idx.size
        B = engine._iid_block(t0, cap + 1, n)
        S, R = [], []
        for lane, (w, s0, (k, T, off)) in enumerate(zip(walks, starts, state)):
            zeta, nu, rad = w.law.arrays
            clocked = timed and not w.law.unit_time
            b = w.law.table.draw(0, root_seed, idx, lane, k[:, None] if clocked else t0, B)
            cum = np.empty((n, B + 1), dtype=off.dtype)  # offsets of S_k .. S_{k+B}
            cum[:, 0] = off
            np.cumsum(zeta[b], axis=1, out=cum[:, 1:])
            cum[:, 1:] += off[:, None]
            if clocked:
                ends = np.cumsum(nu[b], axis=1)  # T_{k+1..k+B} - T_k
                rel = T[:, None] + ends - t0     # >= 1, as T_{k+1} > t0
                jumps = np.zeros((n, B + 1), dtype=np.int64)
                inside = rel <= B
                jumps[np.nonzero(inside)[0], rel[inside]] = 1
                j = np.cumsum(jumps, axis=1)     # k(m) - k at m = t0 .. t0 + B
                cum = np.take_along_axis(cum, j, axis=1)
                b = np.take_along_axis(b, j[:, :B], axis=1)
                last = j[:, B]
                T = T + np.where(last > 0, ends[np.arange(n), last - 1], 0)
                k = k + last
            S.append(s0 + cum[:, :B])
            R.append(rad[b])
            state[lane] = (k, T, cum[:, B])
        ev = np.asarray(event(S, R)).reshape(n, B, columns)
        if t0 < check_from:  # checks before check_from never count
            ev = ev & (np.arange(t0, t0 + B) >= check_from)[:, None]
        hit = ev.any(axis=1)
        rows = np.nonzero(hit.any(axis=1))[0]
        if rows.size:
            first = np.where(hit[rows], t0 + ev[rows].argmax(axis=1), cap + 1)
            times[rows] = np.minimum(times[rows], first)
            done = rows[(times[rows] <= cap).all(axis=1)]
            out[idx[done]] = times[done]
            keep = np.ones(n, dtype=bool)
            keep[done] = False
            idx, times = idx[keep], times[keep]
            state = [tuple(a[keep] for a in s) for s in state]
        t0 += B
    out[idx] = times
    return out


# ---------------------------------------------------------------------------
# exact dynamic-programming oracles


def _exact_outcomes(law: StepLaw) -> tuple[int, list[tuple[int, int, int]]]:
    """Common denominator D and integer (weight, zeta, floor radius) outcomes.

    D is the lcm of the probabilities' denominators and weight = p * D, so
    the weights sum to D exactly when the probabilities sum to 1.
    """
    if not law.integer_zeta:
        raise PreconditionError("the exact oracle requires integer displacements")
    probs = [o.probability if isinstance(o.probability, Fraction) else Fraction(o.probability)
             for o in law.outcomes]
    D = math.lcm(*(p.denominator for p in probs))
    outs = [(p.numerator * (D // p.denominator), int(o.zeta),
             math.floor(Fraction(o.radius).limit_denominator(10**9)))
            for p, o in zip(probs, law.outcomes)]
    if sum(a for a, _z, _r in outs) != D:
        raise PreconditionError("exact oracle needs probabilities summing exactly to 1")
    return D, outs


def _budget_check(law: StepLaw, horizon: int) -> None:
    span = max(1, int(max(abs(float(o.zeta)) for o in law.outcomes)))
    cells = (2 * span * horizon + 1) * max(horizon, 1) * len(law.outcomes)
    if cells > _DP_CELL_BUDGET:
        raise BudgetExceededError(f"DP would touch ~{cells} cells")


def _exit_cond(rho, law: StepLaw):
    """Outside the exit set, which the drift sign chooses: past rho on either
    side for a centered walk, past rho in the drift direction otherwise."""
    drift = float(law.mean_zeta)
    if drift == 0:
        return lambda s, r: abs(s) > rho
    if drift > 0:
        return lambda s, r: s > rho
    return lambda s, r: s < -rho


def _interval_cond(lo, hi, clamp: int | None = None):
    """Within look distance of [lo, hi]: dist(s, [lo, hi]) <= r, as r >= 0.

    With a clamp (see :func:`_clamp`), exact for int64 s and float r: for
    L = floor(lo), lo - s <= r when L - s <= floor(r), less one where
    frac(r) < lo - L; for H = floor(hi), s - hi <= r when s - H <= floor(r),
    plus one where frac(r) >= 1 - (hi - H), each fraction rounded up to a float.
    """
    if clamp is None:
        return lambda s, r: (lo - r <= s) & (s <= hi + r)
    L, H = math.floor(lo), math.floor(hi)
    f, g = (x if x >= y else math.nextafter(x, math.inf)
            for y in (Fraction(lo) - L, 1 + H - Fraction(hi)) for x in [float(y)])

    def cond(s, r):
        whole, q = np.minimum(r, clamp).astype(np.int64), r % 1
        return (L - s <= whole - (q < f)) & (s - H <= whole + (q >= g))
    return cond


def _clamp(ws: Sequence[LookAroundWalk], starts: Sequence, steps: int, marks) -> int | None:
    """None unless every start is an int (int64 positions), else the power of
    two that exact comparisons clamp radii to: above every distance within
    ``steps`` steps between starts and marks (event arguments or interval
    bounds).  PreconditionError unless all stay inside int64, unwrapped."""
    if not all(isinstance(s, int) for s in starts):
        return None
    points = [Fraction(p) for p in (*starts, *marks)]
    far = max(abs(a - b) for a in points for b in points)
    clamp = 1 << math.ceil(far + steps * sum(_max_step(w.law) for w in ws)).bit_length()
    extents = [abs(s) + steps * _max_step(w.law) for s, w in zip(starts, ws)]
    if max([*map(abs, marks), *extents]) + clamp >= _INT64:
        raise PreconditionError(
            "integer walk events could leave int64: max(|arg|, |s0| + "
            f"{steps} steps * max|zeta|) + 2**{clamp.bit_length() - 1} >= 2**63")
    return clamp


class _Event(NamedTuple):
    cond: Callable                    # (arg, law) -> cond(s, r): the event at one check
    first: Callable[[int], int] = lambda horizon: 0  # first checked time
    pair: bool = False                # on S1 - S2 with radius R1 + R2


# the one event table (see the module docstring); ``position`` "survives"
# exactly when S_horizon = y
_EVENTS = {
    "hit": _Event(lambda t, law: lambda s, r: s == t),
    "lookaround": _Event(lambda t, law: lambda s, r: abs(s - t) <= r),
    "reach": _Event(lambda x, law: lambda s, r: s + r >= x),
    "exit": _Event(_exit_cond),
    "position": _Event(lambda y, law: lambda s, r: s != y, first=lambda horizon: horizon),
    "meeting": _Event(lambda _, law: lambda s, r: s == 0, first=lambda horizon: 1, pair=True),
    "ballmeeting": _Event(lambda _, law: lambda s, r: abs(s) <= r, pair=True),
}


def _dp_survival(law: StepLaw, s0: int, horizon: int, cond, check_from: int = 0) -> Fraction:
    """P(for all n in [check_from, horizon]: not cond(S_n, floor(R_{n+1}))).

    The check at time n is paired with the radius of the outcome performing
    step n+1, including one final unmoved draw at n = horizon.  Every event
    compares an integer g(S_n) with R, and for integer g, g <= R exactly when
    g <= floor(R), so ``cond`` sees the integer floor.  It runs once per
    (position of the reachable range, distinct radius), and an event of the
    position alone is the case where ``cond`` ignores r.

    The surviving mass is packed into one int P: slot i, ``width`` bits wide
    (a multiple of 8 with 2**width > D**horizon), holds the numerator of
    position base + g * i, where g is the gcd of the differences z - zmin of
    the displacements, so every S_n is s0 + n * zmin + g * j and only those
    positions take a slot.  Slots are nonnegative and sum to at most D**n,
    so no carry crosses a slot.  Radius r has one mask per residue mod g
    that some S_n takes, over that residue's positions in the reachable
    range [lo, hi], built once from bytes: all-ones slots where
    ``cond(s, r)`` is false.  A step is new P = sum over the merged
    outcomes (r, z) of a_{r,z} * (P & mask_r >> offset) << (z - zmin) / g *
    width, with the mask shifted to P's base; before ``check_from`` the mask
    is skipped.  Empty low slots are shifted out after each step, so an
    event that prunes the support pays only for the occupied width.  The
    slots are unpacked once, at the end.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    _budget_check(law, horizon + 1)
    D, outs = _exact_outcomes(law)
    outs = [(a, z, r) for a, z, r in outs if a]  # zero weights move no mass
    zs = [z for _a, z, _r in outs]
    zmin = min(zs)
    g = math.gcd(*(z - zmin for z in zs)) or 1  # S_n = s0 + n * zmin + g * j
    lo, hi = s0 + horizon * min(zmin, 0), s0 + horizon * max(max(zs), 0)  # reachable
    k = ((D ** horizon).bit_length() + 7) // 8  # bytes per slot
    width = 8 * k
    moves: dict[int | None, dict[int, int]] = {}  # radius (None: unchecked) -> zeta -> weight
    for a, z, r in outs:
        for key in (r, None):
            moves.setdefault(key, defaultdict(int))[z] += a
    steps = {r: [((z - zmin) // g * width, a) for z, a in m.items()] for r, m in moves.items()}
    radii = [r for r in moves if r is not None]
    # per residue mod g that some S_n takes, its positions in [lo, hi]: slot
    # j of a mask holds the position lo + (c - lo) % g + g * j
    residues = {(s0 + n * zmin) % g for n in range(horizon + 1)}
    alive = {(r, c): [r is None or not cond(s, r) for s in range(lo + (c - lo) % g, hi + 1, g)]
             for r in moves for c in residues}
    ones, zeros = b"\xff" * k, bytes(k)
    masks = {(r, c): int.from_bytes(b"".join(ones if ok else zeros for ok in alive[r, c]), "little")
             for r in radii for c in residues}
    P, base, low = 1, s0, (1 << width) - 1
    for n in range(horizon):
        off, new = (base - lo) // g * width, 0
        for r in (radii if n >= check_from else (None,)):
            Q = P if r is None else P & (masks[r, base % g] >> off)
            for shift, a in steps[r]:
                term = (Q if a == 1 else a * Q) << shift  # 1 * Q would copy Q
                new = new + term if new else term
        if not new:
            return Fraction(0)
        if not new & low:  # shift out the empty low slots
            empty = ((new & -new).bit_length() - 1) // width
            new, base = new >> empty * width, base + g * empty
        P, base = new, base + zmin
    data = P.to_bytes(-(-P.bit_length() // width) * k, "little")
    slots = [int.from_bytes(data[i:i + k], "little") for i in range(0, len(data), k)]
    total = sum(sum(moves[r].values())
                * sum(w for w, ok in zip(slots, alive[r, base % g][(base - lo) // g:]) if ok)
                for r in (radii if horizon >= check_from else (None,)))
    return Fraction(total, D ** (horizon + 1))


def _difference_law(law1: StepLaw, law2: StepLaw) -> StepLaw:
    """The law of S1 - S2 with radius R1 + R2, for independent unit-time walks."""
    if not (law1.unit_time and law2.unit_time):
        raise PreconditionError("two-walk oracles need unit-time laws")
    return StepLaw(tuple(LawOutcome(Fraction(o1.probability) * Fraction(o2.probability),
                                    o1.zeta - o2.zeta, 1, float(o1.radius) + float(o2.radius))
                         for o1 in law1.outcomes for o2 in law2.outcomes))


def _parse_event(event: str, law2: StepLaw | None, s02) -> tuple[str, int | None]:
    """An event spec as (name, integer argument), checked before any work."""
    name, _, arg = event.partition(":")
    if name not in _EVENTS:
        raise ValueError(f"unknown oracle event {name!r}")
    if _EVENTS[name].pair:
        if law2 is None or s02 is None:
            raise ValueError(f"event {name!r} needs a second walk")
        return name, None
    if not arg:
        raise ValueError(f"event {name!r} needs an argument, e.g. {name}:3")
    try:
        return name, int(arg)
    except ValueError:
        raise ValueError(f"event {name!r} needs an integer argument, got {arg!r}") from None


def exact_dp_oracle(law: StepLaw, s0: int, horizon: int, event: str,
                    law2: StepLaw | None = None, s02: int | None = None) -> Fraction:
    """P(the event never holds at a checked time), by the exact DP, for an
    event spec like ``hit:3``, ``reach:10``, ``meeting``.

    Single-walk events: hit, lookaround, reach, exit, position (survival
    forms; ``position`` is a point probability).  With a second law,
    ``meeting`` and ``ballmeeting`` act on the difference walk.
    """
    name, arg = _parse_event(event, law2, s02)
    make_cond, first, pair = _EVENTS[name]
    if pair:
        law, s0 = _difference_law(law, law2), s0 - s02
    return _dp_survival(law, s0, horizon, make_cond(arg, law), first(horizon))


# ---------------------------------------------------------------------------
# Monte-Carlo event estimation


def mc_event_frequency(law: StepLaw, s0: int, horizon: int, event: str,
                       trials: int, root_seed: int, law2: StepLaw | None = None,
                       s02: int | None = None) -> float:
    """Empirical frequency of the oracle events, using the same conventions."""
    name, arg = _parse_event(event, law2, s02)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    make_cond, first, pair = _EVENTS[name]
    cond = make_cond(arg, law)
    ws = [LookAroundWalk(law, s0)]
    if pair:
        ws.append(LookAroundWalk(law2, s02))
    clamp = _clamp(ws, [_start(w, horizon + 1) for w in ws], horizon, [] if pair else [arg])

    def holds(S, R):  # a pair acts on S1 - S2 with radius R1 + R2
        s, r = (S[0] - S[1], R[0] + R[1]) if pair else (S[0], R[0])
        if clamp:  # for integer g, g <= r exactly when g <= floor(r)
            r = np.floor(np.minimum(r, clamp)).astype(np.int64)
        return cond(s, r)

    T = _stopping_times(ws, holds, trials, horizon, root_seed,
                        check_from=first(horizon))
    return int((T > horizon).sum()) / trials


# ---------------------------------------------------------------------------
# check results


@dataclass
class CheckResult:
    check: str
    passed: bool
    params: dict
    seed: int
    estimate: float | None = None
    ci: tuple[float, float] | None = None
    fit: TailFit | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lemma": self.check,
            "parameters": self.params,
            "estimate": self.estimate,
            "CI": None if self.ci is None else [self.ci[0], self.ci[1]],
            "fit": None if self.fit is None else self.fit.to_json(),
            "verdict": "PASS" if self.passed else "FAIL",
            "seed": self.seed,
            "details": self.details,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


# ---------------------------------------------------------------------------
# drifted walks escape backward targets


def check_escape_under_drift(w: LookAroundWalk, x: float, trials: int = 20000,
                             horizon: int = 2048, root_seed: int = 0) -> CheckResult:
    """Estimate P(the walk never comes within look distance of x).

    Requires positive drift and a target behind the start.  PASS means the
    95% interval excludes zero and the estimate is stable under doubling
    the horizon (the probability of a late first approach is negligible).
    """
    drift = w.law.mean_zeta
    _require(float(drift) > 0, "escape check requires E[zeta] > 0")
    _require(x < w.s0, "escape check requires a target x < s0")
    h2 = 2 * horizon
    seen = _interval_cond(x, x, _clamp([w], [_start(w, h2 + 1)], h2, [x]))
    T = _stopping_times([w], lambda S, R: seen(S[0], R[0]), trials, h2, root_seed)
    alive_h = int((T > horizon).sum())
    alive_2h = int((T > h2).sum())
    est_h = alive_h / trials
    est_2h = alive_2h / trials
    lo, hi = wilson_interval(alive_2h, trials)
    passed = lo > 0 and (est_h - est_2h) < max(hi - lo, 1e-12)
    return CheckResult(
        "escape-under-drift", passed,
        {"x": x, "s0": w.s0, "trials": trials, "horizon": horizon},
        root_seed, estimate=est_2h, ci=(lo, hi),
        details={"estimate_at_horizon": est_h, "estimate_at_double_horizon": est_2h})


# ---------------------------------------------------------------------------
# zero-drift reach-time tail


def _asymptotic_fit(curve: SurvivalCurve, distance: float) -> TailFit:
    """Power fit over the thresholds u >= 2 * distance**2, past the transient
    of a start that far from its target, or over the whole curve when fewer
    than MIN_FIT_POINTS thresholds lie there."""
    keep = curve.thresholds >= 2.0 * distance * distance
    if keep.sum() >= MIN_FIT_POINTS:
        curve = SurvivalCurve(curve.thresholds[keep], curve.survivors[keep],
                              curve.total, curve.censor_cap)
    return fit_tail(curve, "power")


def check_zero_drift_reach_tail(w: LookAroundWalk, x: float, trials: int = 30000,
                                cap: int = 1 << 14, root_seed: int = 0) -> CheckResult:
    """Tail of the first time S_n + R_{n+1} reaches level x, for E[zeta] = 0.

    Fits a power law on dyadic thresholds from the asymptotic window
    u >= 2 (x - s0)^2 upward (below it the curve still carries the
    distance-to-level transient).  PASS requires slope -1/2 within
    REACH_SLOPE_TOL, fit quality FIT_R2_MIN, and survival at a deep common
    threshold scaling linearly across the offsets REACH_OFFSETS and x - s0.
    Also reports the smallest offset at which the -1/2 law already holds,
    and the dyadic tail-mass blocks whose growth signals a divergent mean.
    """
    drift = w.law.mean_zeta
    _require(float(drift) == 0, "reach-tail check requires E[zeta] = 0")
    # the levels are taken as offsets from the start, and each walk's offset
    # S - s0 is read back from its positions: both are exact for an integer
    # walk from an integer start however far it lies from 0
    s0 = _start(w, cap + 1)
    main = float(Fraction(x) - Fraction(s0))
    offsets = sorted(set(REACH_OFFSETS) | {main})
    _require(all(o > 0 for o in offsets), "offsets must be positive")
    reached = _EVENTS["reach"].cond(np.array(offsets), w.law)  # one column per level
    T = _stopping_times([w], lambda S, R: reached((S[0] - s0)[..., None], R[0][..., None]),
                        trials, cap, root_seed, columns=len(offsets))
    main_k = offsets.index(main)
    curves = [SurvivalCurve.from_samples(T[:, k], cap) for k in range(len(offsets))]
    main_curve = curves[main_k]
    try:
        fit = _asymptotic_fit(main_curve, offsets[main_k])
    except InsufficientDataError:
        return CheckResult("zero-drift-reach-tail", False,
                           {"x": x, "trials": trials, "cap": cap}, root_seed,
                           details={"reason": "insufficient tail data"})
    slope_ok = abs(fit.slope + 0.5) <= REACH_SLOPE_TOL
    r2_ok = fit.r_squared >= FIT_R2_MIN

    # linear scaling of survival in the offset, read at a deep common threshold
    probe_u = None
    for u in reversed(main_curve.thresholds):
        col = [c.survivors[list(c.thresholds).index(u)] for c in curves]
        if all(s >= MIN_FIT_SURVIVORS for s in col):
            probe_u = int(u)
            probe = np.array([s / trials for s in col])
            break
    if probe_u is None:
        scaling_ok = False
        scaling_r2 = 0.0
    else:
        xs = np.array(offsets)
        A = np.stack([xs, np.ones_like(xs)], axis=1)
        coef, *_ = np.linalg.lstsq(A, probe, rcond=None)
        resid = probe - A @ coef
        ss_tot = float(((probe - probe.mean()) ** 2).sum())
        scaling_r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
        scaling_ok = scaling_r2 >= REACH_SCALING_R2_MIN and coef[0] > 0

    r_estimate = None
    for k, off in enumerate(offsets):
        try:
            f = _asymptotic_fit(curves[k], off)
        except InsufficientDataError:
            continue
        if abs(f.slope + 0.5) <= REACH_SLOPE_TOL and f.r_squared >= FIT_R2_MIN:
            r_estimate = off
            break

    probs = main_curve.probabilities()
    tail_blocks = [float(p) * int(u) for p, u in zip(probs, main_curve.thresholds)]

    passed = slope_ok and r2_ok and scaling_ok
    return CheckResult(
        "zero-drift-reach-tail", passed,
        {"x": x, "trials": trials, "cap": cap, "offsets": offsets},
        root_seed, estimate=fit.slope, fit=fit,
        details={"scaling_r2": scaling_r2, "probe_threshold": probe_u,
                 "r_estimate": r_estimate, "tail_mass_blocks": tail_blocks,
                 "offset_survival_at_probe": None if probe_u is None else probe.tolist()})


# ---------------------------------------------------------------------------
# interval exit times


def check_exit_time_tail(w: LookAroundWalk, rho: float, trials: int = 20000,
                         root_seed: int = 0) -> CheckResult:
    """Exponential tail of the first exit past distance rho >= 0.

    The exit set follows the drift sign: two-sided for centered walks,
    one-sided in the drift direction otherwise; s0 must lie inside it.  The curve runs to
    u_max = max(64, 8 * max(1, rho)**2) steps.  A rho whose 8 * rho**2
    exceeds _EXIT_STEP_BUDGET (2**20 steps, so rho above about 362) raises
    BudgetExceededError before any draw.  PASS needs a negative slope on
    semi-log axes with fit quality at least FIT_R2_MIN.
    """
    _require(not w.law.zeta_identically_zero,
             "exit-time check requires P(zeta = 0) < 1")
    _require(rho >= 0, f"exit-time check requires rho >= 0, got {rho}")
    outside = _exit_cond(rho, w.law)
    _require(not outside(w.s0, 0), f"exit-time check requires s0 inside the exit set, got {w.s0}")
    r = max(1.0, rho)
    steps = 8 * (r * r)  # a float past its range is inf, not an OverflowError
    if steps > _EXIT_STEP_BUDGET:
        raise BudgetExceededError(f"exit-time check would run {steps:.4g} steps per trial, "
                                  f"over the budget of {_EXIT_STEP_BUDGET}; take rho <= "
                                  f"{math.isqrt(_EXIT_STEP_BUDGET // 8)}")
    u_max = max(64, int(steps))
    params = {"rho": rho, "trials": trials, "u_max": u_max}
    tau = _stopping_times([w], lambda S, R: outside(S[0], R[0]),
                          trials, u_max, root_seed)[:, 0]
    grid = np.unique(np.linspace(1, u_max, EXIT_GRID_POINTS).astype(np.int64))
    counts = (tau[None, :] > grid[:, None]).sum(axis=1).astype(np.float64)
    curve = SurvivalCurve(grid, counts, float(trials), censor_cap=u_max)
    mean_exit = float(np.minimum(tau, u_max).mean())
    try:
        fit = fit_tail(curve, "exponential")
    except InsufficientDataError:
        return CheckResult("exit-time-tail", False, params, root_seed,
                           details={"reason": "insufficient tail data",
                                    "mean_exit": mean_exit,
                                    "curve": curve.to_json()})
    passed = fit.slope < 0 and fit.r_squared >= FIT_R2_MIN
    return CheckResult("exit-time-tail", passed, params, root_seed,
                       estimate=fit.slope, fit=fit, details={"mean_exit": mean_exit})


# ---------------------------------------------------------------------------
# upper deviations of a centered walk


def check_upper_deviation_bound(w: LookAroundWalk, mu: float, n: int, y: float,
                                trials: int = 100000, root_seed: int = 0) -> CheckResult:
    """Empirical P(S_n >= y) against the optimized exponential-moment bound.

    The bound exp(min_t [n log E e^(t zeta) - t y]) is computed from the
    law's exact moment generating function, minimized over u = t * max|zeta|
    (max|zeta| taken as at least 1) in [1e-9, 60]; PASS means the frequency
    does not exceed it.  scipy's optimizer loads on the call, so importing
    the package loads no scipy module.
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import logsumexp

    _require(float(w.law.mean_zeta) == 0, "deviation check requires E[zeta] = 0")
    _require(float(w.s0) == 0, "deviation check requires s0 = 0")
    _require(mu > 0, "mu must be positive")
    _require(y >= mu * n, "requires y >= mu * n")
    logp = np.log([float(o.probability) for o in w.law.outcomes])
    zs = np.array([float(o.zeta) for o in w.law.outcomes])

    zmax = max(1.0, float(np.abs(zs).max()))

    def objective(u: float) -> float:  # at t = u / max|zeta|: the tolerance is scale-free
        return n * float(logsumexp(logp + u * (zs / zmax))) - u * (y / zmax)

    res = minimize_scalar(objective, bounds=(1e-9, 60.0), method="bounded")
    bound = min(1.0, math.exp(res.fun))

    T = _stopping_times([w], lambda S, R: S[0] >= y, trials, n, root_seed, check_from=n)
    count = int((T <= n).sum())
    freq = count / trials
    lo, hi = wilson_interval(count, trials)
    return CheckResult("upper-deviation", freq <= bound,
                       {"mu": mu, "n": n, "y": y, "trials": trials},
                       root_seed, estimate=freq, ci=(lo, hi),
                       details={"chernoff_bound": bound,
                                "optimal_t": float(res.x) / zmax})


# ---------------------------------------------------------------------------
# two walks avoiding a separating corridor


def _corridor_times(w1: LookAroundWalk, w2: LookAroundWalk, lo: float, hi: float,
                    trials: int, cap: int, root_seed: int) -> np.ndarray:
    """min(sigma, tau1, tau2) per trial on the time clock, cap + 1 if past
    cap; exact for integer walks (see :func:`_interval_cond`)."""
    clamp = _clamp([w1, w2], [_start(w, cap + 1) for w in (w1, w2)], cap, [lo, hi])
    balls, seen = _interval_cond(0, 0, clamp), _interval_cond(lo, hi, clamp)

    def contact(S, R):
        (S1, S2), (R1, R2) = S, R
        return balls(S1 - S2, R1 + R2) | seen(S1, R1) | seen(S2, R2)

    return _stopping_times([w1, w2], contact, trials, cap, root_seed, timed=True)[:, 0]


def check_joint_corridor_avoidance(w1: LookAroundWalk, w2: LookAroundWalk,
                                   interval: tuple[float, float],
                                   trials: int = 20000, cap: int = 1 << 13,
                                   root_seed: int = 0) -> CheckResult:
    """Tail of min(sigma, tau1, tau2): ball contact or corridor detection.

    sigma is the first time the look-around balls intersect, tau_i the
    first time walk i detects the corridor [x, y].  All three clocks run in
    time units (step durations accumulate).  The power law is fitted from
    the asymptotic window past the initial-separation transient.  PASS
    means the fitted slope stays at or above CORRIDOR_SLOPE_FLOOR, the
    signature of a divergent mean.
    """
    lo, hi = interval
    _require(Fraction(hi) - Fraction(lo) > 2, "corridor needs y - x > 2")
    times = _corridor_times(w1, w2, lo, hi, trials, cap, root_seed)
    curve = SurvivalCurve.from_samples(times, cap)
    far = float(max(1, *(Fraction(a) - Fraction(b) for w in (w1, w2)
                         for a, b in ((lo, w.s0), (w.s0, hi)))))
    try:
        fit = _asymptotic_fit(curve, far)
    except InsufficientDataError:
        zero_at_one = float(curve.survivors[0]) == 0.0
        return CheckResult("joint-corridor-avoidance", False,
                           {"interval": [lo, hi], "trials": trials, "cap": cap},
                           root_seed, estimate=0.0,
                           details={"reason": "no survivors" if zero_at_one
                                    else "insufficient tail data"})
    passed = fit.slope >= CORRIDOR_SLOPE_FLOOR
    return CheckResult("joint-corridor-avoidance", passed,
                       {"interval": [lo, hi], "trials": trials, "cap": cap,
                        "s0": [w1.s0, w2.s0]},
                       root_seed, estimate=fit.slope, fit=fit,
                       details={"censored_fraction": float((times > cap).mean())})


CHECKS = {
    "lemma6": check_escape_under_drift,
    "escape": check_escape_under_drift,
    "lemma7": check_zero_drift_reach_tail,
    "reach-tail": check_zero_drift_reach_tail,
    "lemma17": check_exit_time_tail,
    "exit-time": check_exit_time_tail,
    "lemma50": check_upper_deviation_bound,
    "deviation": check_upper_deviation_bound,
    "prop22": check_joint_corridor_avoidance,
    "corridor": check_joint_corridor_avoidance,
}
