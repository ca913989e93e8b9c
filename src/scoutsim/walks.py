"""Look-around random walks: samplers, exact oracles, and statistical checks.

A step law is a finite-support distribution over triples (zeta, nu, R): the
integer displacement of a step, the time it took, and the radius within
which the walk can detect a target while standing at the pre-step position.
The walk S_n = s0 + zeta_1 + ... + zeta_n paired with the radius sequence
models a process that at time n "sees" everything within R_{n+1} of S_n.
Displacements are integers in int64, as a scout's moves between grid
points are; a rational-step law is an integer law on a scaled lattice.

The checks estimate the tail laws such walks obey in the three structural
regimes (positive drift, zero drift, degenerate steps) and report
PASS/FAIL verdicts against the expected shapes.  Verdicts are consistency
statements about finite samples, not proofs.  Samplers draw steps through
the package's one categorical sampler, :class:`streams.Categorical`, with
the law as its one row: cumulated exactly when every probability is a
``Fraction``, in float otherwise.

Every walk runs in one frame: its int64 offset S - s0 from its start, which
does not depend on s0.  Each event is defined once, in one table
(``_EVENTS``), as an interval [lo, hi] that it compares S with (a point
for hit, position and the two-walk events, a half-line for reach and the
one-sided exit) and the first checked time as a function of the horizon.
Its marks move into the walk's frame once, as exact rationals
(:func:`_frame`: lo - s0 and hi - s0; for two walks, S1 - S2 is compared
with s02 - s01), and one comparison, :func:`_interval_cond`, decides every
event exactly from any start, integer or not: within look distance of the
interval, on it, or off it.  It uses only comparisons, ``-``, ``+``, ``^`` and
``&``, so the same predicate serves the exact oracle (on Python ints) and
the Monte-Carlo frequency and the checks (on int64 offsets).  Two-walk
events act on S1 - S2 with radius R1 + R2: the difference law in the
oracle, the sampled offsets in the Monte Carlo.  One exact forward dynamic
program, :func:`_dp_survival`, run from offset 0, provides the independent
oracle for every event.  It runs on Python integers: with D the lcm of the
outcome probabilities' denominators, outcome j carries the integer weight
a_j = p_j * D, and the surviving mass at each position after n steps is an
integer numerator over D**n.  The numerators of all positions are packed
into one int, one slot of W bits per position with W a multiple of 8 and
2**W > D**horizon, so that no carry crosses a slot (Kronecker
substitution); slots step by g, the gcd of the displacement differences,
so a law with steps +-10 packs only the positions it can reach.  Each
distinct floor radius has one mask, all-ones slots at the positions where
the event does not hold, built once over the reachable range; a step is
one AND with each mask and one shift-and-add per merged (radius,
displacement) outcome, and empty low slots are shifted out after each
step.  Integer sums and products are exact, so the one
``Fraction(numerator, D**n)`` built at the end equals the rational answer
bit for bit.

Every Monte-Carlo estimate is a stopping time found by one sampler,
:func:`_stopping_times`: per trial and event column, the first check m in
[check_from, cap] at which the event holds.  The frequency asks if its
event fails at every check from its first checked time, the deviation
check if S_n >= y at check n.  It draws in blocks of ``engine._iid_block``
checks (2**14 variates per walk over the active trials, so blocks grow as
trials finish) and drops a trial once every column is decided.  Draws are
keyed by (trial, walk, step) (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), and the offsets are carried exactly in int64
(a run whose cap + 1 steps of max|zeta| reach 2**63 is refused, as in
``engine._check_key_range``), so neither the partition nor the dropping
changes a value.  The Monte Carlo splits each float radius into its whole
part, clamped at 2**62, and its fraction (:func:`_split`), so each
comparison is exact in int64; a run whose marks and offsets int64 cannot
hold under that clamp is refused.  A geometry far from 0 therefore gives
the report of the same geometry from 0.  Single-walk checks run on the
step clock.  The corridor runs on the integer time clock: at time m walk i
stands at step k_i(m), the last k with T_k <= m, read per trial from the
block's cumulated durations; for unit-time laws k(m) = m.
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
# the Monte Carlo clamps whole radii here: a run whose marks and offsets
# stay below it decides every comparison as the radius itself would, and
# no sum of its comparisons leaves int64
_RADIUS_CLAMP = 1 << 62
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
    zeta: int
    nu: int = 1
    radius: float = 1.0


@dataclass(frozen=True)
class StepLaw:
    """Finite-support law of (displacement, duration, look radius) triples.

    Displacements are integers in int64; a non-integer zeta raises
    ValueError.
    """

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
            if not (isinstance(o.zeta, int) or float(o.zeta).is_integer()):
                raise ValueError(f"zeta must be an integer (scale a rational-step law "
                                 f"to an integer lattice), got {o.zeta}")
            if not -_INT64 <= o.zeta < _INT64:  # steps are carried in int64
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
        """Per-outcome zeta (int64), nu and radius."""
        return (np.array([int(o.zeta) for o in self.outcomes], dtype=np.int64),
                np.array([int(o.nu) for o in self.outcomes], dtype=np.int64),
                np.array([float(o.radius) for o in self.outcomes]))

    @property
    def mean_zeta(self):
        if self.is_exact:
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


def _max_step(law: StepLaw) -> int:
    return max(abs(int(o.zeta)) for o in law.outcomes)


def _frame(s0, *marks) -> list:
    """The marks as exact rational offsets from s0: the frame of a walk that
    starts there.  An open side (-inf or inf) stays open."""
    return [m if m in (-math.inf, math.inf) else Fraction(m) - Fraction(s0) for m in marks]


def _ceil_float(y: Fraction) -> float:
    x = float(y)
    return x if x >= y else math.nextafter(x, math.inf)


def _interval_cond(lo, hi):
    """Within look distance of [lo, hi]: dist(s, [lo, hi]) <= r + q, as r >= 0.

    The one comparison of every walk event, exact for integer offsets s
    (Python ints or int64 arrays) against bounds that are exact rationals,
    or -inf and inf for an open side, with the radius given as its whole
    part r and its fraction q in [0, 1) (:func:`_split`; the exact DP passes
    integer radii).  For L = floor(lo), lo - s <= r + q when L - s <= r,
    less one where q < lo - L; for H = floor(hi), s - hi <= r + q when
    s - H <= r, plus one where q >= 1 - (hi - H), each fraction rounded up
    to a float.
    """
    L = None if lo == -math.inf else math.floor(lo)
    H = None if hi == math.inf else math.floor(hi)
    f = None if L is None else _ceil_float(Fraction(lo) - L)
    g = None if H is None else _ceil_float(1 + H - Fraction(hi))

    def cond(s, r, q=0):
        # q lies in [0, 1), so q < 0 and q >= 1 never hold: a bound with no
        # fraction (f = 0, g = 1) compares r alone, and an open side nothing
        below = None if L is None else L - s <= (r if f == 0 else r - (q < f))
        above = None if H is None else s - H <= (r if g == 1 else r + (q >= g))
        return above if below is None else below if above is None else below & above
    return cond


def _split(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float radii as their int64 whole parts, clamped at _RADIUS_CLAMP, and
    their fractions: the radius arguments of :func:`_interval_cond`."""
    return np.minimum(r, _RADIUS_CLAMP).astype(np.int64), r % 1


def _stopping_times(laws: Sequence[StepLaw], event, trials: int, cap: int,
                    root_seed: int, columns: int = 1, timed: bool = False,
                    check_from: int = 0, marks: Sequence = ()) -> np.ndarray:
    """First check m in [check_from, cap] at which each event column holds,
    else cap + 1.

    Walk i draws on lane i.  At check m it stands at step k(m), with
    offset S_k - s0 (int64) and radius R_{k+1}: k(m) = m on the step clock,
    and with ``timed`` the last k whose time T_k (the sum of the first k
    durations) is at most m.  ``event(S, R)`` gets those per-walk offsets
    and radii of the active trials as (active, B) arrays, one column per
    check of a block, and returns a boolean (active, B) or (active, B,
    columns) array.  ``marks`` are the bounds the event compares with, in
    the walks' frame (:func:`_frame`); PreconditionError unless each mark,
    plus one, plus cap steps of every walk stays below _RADIUS_CLAMP, so
    that every comparison of :func:`_interval_cond` is exact in int64, and
    unless cap + 1 steps of each walk stay inside int64.  A block holds
    ``engine._iid_block(t0, cap + 1, active)`` checks, and a trial leaves
    once every column is decided (see the module docstring).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engine._check_cap(cap)
    for law in laws:
        if (cap + 1) * _max_step(law) >= _INT64:
            raise PreconditionError("walk offsets could leave int64: "
                                    f"{cap + 1} steps * max|zeta| >= 2**63")
    finite = [abs(m) for m in marks if m not in (-math.inf, math.inf)]
    if max(finite, default=0) + 1 + cap * sum(map(_max_step, laws)) >= _RADIUS_CLAMP:
        raise PreconditionError("walk events could leave int64: max|mark - s0| + 1 + "
                                f"{cap} steps * max|zeta| >= 2**62")
    out = np.empty((trials, columns), dtype=np.int64)
    idx = np.arange(trials, dtype=np.int64)
    times = np.full((trials, columns), cap + 1, dtype=np.int64)  # of the active trials
    # per walk and active trial: step k(t0), its time T_k (both kept on the
    # time clock only; else k(t0) = t0) and the offset S_k - s0
    state = [tuple(np.zeros(trials, np.int64) for _ in range(3)) for _ in laws]
    t0 = 0
    while t0 <= cap and idx.size:
        n = idx.size
        B = engine._iid_block(t0, cap + 1, n)
        S, R = [], []
        for lane, (law, (k, T, off)) in enumerate(zip(laws, state)):
            zeta, nu, rad = law.arrays
            clocked = timed and not law.unit_time
            b = law.table.draw(0, root_seed, idx, lane, k[:, None] if clocked else t0, B)
            cum = np.empty((n, B + 1), dtype=np.int64)  # offsets of S_k .. S_{k+B}
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
            S.append(cum[:, :B])
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
# the events and their exact dynamic-programming oracle


def _exact_outcomes(law: StepLaw) -> tuple[int, list[tuple[int, int, int]]]:
    """Common denominator D and integer (weight, zeta, floor radius) outcomes.

    D is the lcm of the probabilities' denominators and weight = p * D, so
    the weights sum to D exactly when the probabilities sum to 1.
    """
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
    span = max(1, _max_step(law))
    cells = (2 * span * horizon + 1) * max(horizon, 1) * len(law.outcomes)
    if cells > _DP_CELL_BUDGET:
        raise BudgetExceededError(f"DP would touch ~{cells} cells")


def _exit_set(rho, law: StepLaw) -> tuple:
    """The interval a walk exits, which the drift sign chooses: [-rho, rho]
    for a centered walk, up to rho when it drifts up, down to -rho when it
    drifts down."""
    drift = float(law.mean_zeta)
    return -rho if drift <= 0 else -math.inf, rho if drift >= 0 else math.inf


class _Event(NamedTuple):
    bounds: Callable                  # (arg, law) -> (lo, hi): the interval S is compared with
    kind: str                         # "near" (within look distance), "on" or "off" it
    first: Callable[[int], int] = lambda horizon: 0  # first checked time
    pair: bool = False                # on S1 - S2 with radius R1 + R2, compared with s02 - s01


# the one event table (see the module docstring); ``position`` "survives"
# exactly when S_horizon = y
_EVENTS = {
    "hit": _Event(lambda t, law: (t, t), "on"),
    "lookaround": _Event(lambda t, law: (t, t), "near"),
    "reach": _Event(lambda x, law: (x, math.inf), "near"),
    "exit": _Event(_exit_set, "off"),
    "position": _Event(lambda y, law: (y, y), "off", first=lambda horizon: horizon),
    "meeting": _Event(lambda _, law: (0, 0), "on", first=lambda horizon: 1, pair=True),
    "ballmeeting": _Event(lambda _, law: (0, 0), "near", pair=True),
}


def _event_cond(event: _Event, arg, law: StepLaw, s0, s02=0) -> tuple[Callable, list]:
    """The event as cond(s, r, q=0) of a walk's offsets s from s0 (for a
    pair, of S1 - S2 from s0 - s02), and its bounds in that frame.  An
    ``on`` or ``off`` event ignores the radius."""
    marks = _frame(Fraction(s0) - Fraction(s02), *event.bounds(arg, law))
    near = _interval_cond(*marks)
    if event.kind == "near":
        return near, marks
    off = event.kind == "off"
    return (lambda s, r, q=0: near(s, 0) ^ off), marks  # ^ True negates a bool or bool array


def _dp_survival(law: StepLaw, horizon: int, cond, check_from: int = 0) -> Fraction:
    """P(for all n in [check_from, horizon]: not cond(S_n, floor(R_{n+1})))
    for the walk from offset 0.

    The check at time n is paired with the radius of the outcome performing
    step n+1, including one final unmoved draw at n = horizon.  Every event
    compares an integer offset with rational bounds within R, and for those
    the comparison with R equals the comparison with floor(R)
    (:func:`_interval_cond` at fraction 0), so ``cond`` sees the integer
    floor.  It runs once per (position of the reachable range, distinct
    radius), and an event of the position alone is the case where ``cond``
    ignores r.

    The surviving mass is packed into one int P: slot i, ``width`` bits wide
    (a multiple of 8 with 2**width > D**horizon), holds the numerator of
    position base + g * i, where g is the gcd of the differences z - zmin of
    the displacements, so every S_n is n * zmin + g * j and only those
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
    g = math.gcd(*(z - zmin for z in zs)) or 1  # S_n = n * zmin + g * j
    lo, hi = horizon * min(zmin, 0), horizon * max(max(zs), 0)  # reachable
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
    residues = {n * zmin % g for n in range(horizon + 1)}
    alive = {(r, c): [r is None or not cond(s, r) for s in range(lo + (c - lo) % g, hi + 1, g)]
             for r in moves for c in residues}
    ones, zeros = b"\xff" * k, bytes(k)
    masks = {(r, c): int.from_bytes(b"".join(ones if ok else zeros for ok in alive[r, c]), "little")
             for r in radii for c in residues}
    P, base, low = 1, 0, (1 << width) - 1
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
                                    int(o1.zeta) - int(o2.zeta), 1,
                                    float(o1.radius) + float(o2.radius))
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
    ``meeting`` and ``ballmeeting`` act on the difference walk.  The DP runs
    from offset 0, with the event's marks in the walk's frame.
    """
    name, arg = _parse_event(event, law2, s02)
    ev = _EVENTS[name]
    if ev.pair:
        law = _difference_law(law, law2)
    cond, _ = _event_cond(ev, arg, law, s0, s02 if ev.pair else 0)
    return _dp_survival(law, horizon, cond, ev.first(horizon))


# ---------------------------------------------------------------------------
# Monte-Carlo event estimation


def mc_event_frequency(law: StepLaw, s0: int, horizon: int, event: str,
                       trials: int, root_seed: int, law2: StepLaw | None = None,
                       s02: int | None = None) -> float:
    """Empirical frequency of the oracle events, using the same conventions."""
    name, arg = _parse_event(event, law2, s02)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    ev = _EVENTS[name]
    laws = [law, law2] if ev.pair else [law]
    cond, marks = _event_cond(ev, arg, law, s0, s02 if ev.pair else 0)

    def holds(S, R):  # a pair acts on S1 - S2 with radius R1 + R2
        s, r = (S[0] - S[1], R[0] + R[1]) if ev.pair else (S[0], R[0])
        return cond(s, *_split(r))

    T = _stopping_times(laws, holds, trials, horizon, root_seed,
                        check_from=ev.first(horizon), marks=marks)
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
    seen, marks = _event_cond(_EVENTS["lookaround"], x, w.law, w.s0)
    T = _stopping_times([w.law], lambda S, R: seen(S[0], *_split(R[0])), trials, h2,
                        root_seed, marks=marks)
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
    # the levels are offsets from the start, x - s0 among them
    (main,) = _frame(w.s0, x)
    marks = sorted({*map(Fraction, REACH_OFFSETS), main})
    _require(all(m > 0 for m in marks), "offsets must be positive")
    offsets = [float(m) for m in marks]
    levels = [_event_cond(_EVENTS["reach"], m, w.law, 0)[0] for m in marks]

    def reached(S, R):  # one column per level
        r, q = _split(R[0])
        return np.stack([level(S[0], r, q) for level in levels], axis=-1)

    T = _stopping_times([w.law], reached, trials, cap, root_seed, columns=len(marks),
                        marks=marks)
    main_k = marks.index(main)
    curves = [SurvivalCurve.from_samples(T[:, k], cap) for k in range(len(offsets))]
    main_curve = curves[main_k]
    try:
        fit = _asymptotic_fit(main_curve, offsets[main_k])
    except InsufficientDataError:
        return CheckResult("zero-drift-reach-tail", False,
                           {"x": x, "s0": w.s0, "trials": trials, "cap": cap}, root_seed,
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
        {"x": x, "s0": w.s0, "trials": trials, "cap": cap, "offsets": offsets},
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
    outside, marks = _event_cond(_EVENTS["exit"], rho, w.law, w.s0)
    _require(not outside(0, 0), f"exit-time check requires s0 inside the exit set, got {w.s0}")
    r = max(1.0, rho)
    steps = 8 * (r * r)  # a float past its range is inf, not an OverflowError
    if steps > _EXIT_STEP_BUDGET:
        raise BudgetExceededError(f"exit-time check would run {steps:.4g} steps per trial, "
                                  f"over the budget of {_EXIT_STEP_BUDGET}; take rho <= "
                                  f"{math.isqrt(_EXIT_STEP_BUDGET // 8)}")
    u_max = max(64, int(steps))
    params = {"rho": rho, "s0": w.s0, "trials": trials, "u_max": u_max}
    tau = _stopping_times([w.law], lambda S, R: outside(S[0], 0),
                          trials, u_max, root_seed, marks=marks)[:, 0]
    # the return_inverse form: a plain np.unique imports numpy.ma
    grid = np.unique(np.linspace(1, u_max, EXIT_GRID_POINTS).astype(np.int64),
                     return_inverse=True)[0]
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

    T = _stopping_times([w.law], lambda S, R: S[0] >= y, trials, n, root_seed, check_from=n)
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
    cap; exact from any starts (see :func:`_interval_cond`)."""
    frames = [_frame(w.s0, lo, hi) for w in (w1, w2)]
    seen1, seen2 = (_interval_cond(*f) for f in frames)
    balls, pair = _event_cond(_EVENTS["ballmeeting"], None, w1.law, w1.s0, w2.s0)

    def contact(S, R):
        (S1, S2), (R1, R2) = S, R
        return (balls(S1 - S2, *_split(R1 + R2)) | seen1(S1, *_split(R1))
                | seen2(S2, *_split(R2)))

    return _stopping_times([w1.law, w2.law], contact, trials, cap, root_seed, timed=True,
                           marks=[*frames[0], *frames[1], *pair])[:, 0]


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
    far = float(max(1, *(d for w in (w1, w2) for a, b in [_frame(w.s0, lo, hi)]
                         for d in (a, -b))))
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
