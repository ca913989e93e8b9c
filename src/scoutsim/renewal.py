"""Meeting renewals of two-scout processes and derived diagnostics.

Sampling a two-scout trace at the times the scouts share a grid point
yields a renewal sequence (Y_k, A_k, R_k): the meeting point, the state
pair there, and the gap since the previous meeting.  The gap dominates how
far either scout strayed in between, which makes the sequence a faithful
coarse view of the joint process: diagnostics on it (the gap tail, and
the divergence of hitting-time means) are packaged here as falsifiable
checks on concrete protocols, never as proofs.  Verdicts use
"consistent with" vocabulary throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Trace
from .errors import PreconditionError
from .protocol import ScoutProtocol, protocol_hash
from .tails import (CENSORED_FLAG_FRACTION, FIT_R2_MIN, CensoredSummary,
                    InsufficientDataError, SurvivalCurve, TailFit, fit_tail)

FINITE_TAIL_INCREMENT_MAX = 0.01
INFINITE_SLOPE_MIN = -1.0


class EnvelopeViolation(AssertionError):
    """A trace violated the gap-dominates-excursion invariant: simulator bug."""


@dataclass
class MeetingRenewal:
    """Renewal view of one two-scout trace, sampled at meetings."""

    meeting_times: np.ndarray          # N_k, starting at N_0 = 0
    points: np.ndarray                 # Y_k, shape (K+1, d)
    state_pairs: list[tuple[str, str]]  # A_k
    gaps: np.ndarray                   # R_k = N_k - N_{k-1}, R_0 = 0

    @property
    def count(self) -> int:
        return int(self.meeting_times.size)

    def csv_rows(self) -> list[tuple]:
        rows = []
        for k in range(self.count):
            y = ",".join(str(int(v)) for v in self.points[k])
            a = "|".join(self.state_pairs[k])
            rows.append((k, y, a, int(self.gaps[k])))
        return rows


def extract_renewal(t: Trace) -> MeetingRenewal:
    """Meetings of a two-scout trace, with the envelope invariant enforced.

    For every k and every n between consecutive meetings, each scout's
    sup-norm distance to both endpoints Y_{k-1} and Y_k must be at most the
    gap R_k; a violation raises EnvelopeViolation (it cannot happen under
    unit moves and indicates a corrupted trace).
    """
    if t.positions.shape[1] != 2:
        raise ValueError("renewal extraction needs a two-scout trace")
    eq = (t.positions[:, 0, :] == t.positions[:, 1, :]).all(axis=1)
    eq[0] = True
    times = np.flatnonzero(eq).astype(np.int64)
    pts = t.positions[times, 0, :]
    names = t.protocol.state_names
    pairs = [(names[t.state_idx[n, 0]], names[t.state_idx[n, 1]]) for n in times]
    gaps = np.zeros(times.size, dtype=np.int64)
    gaps[1:] = np.diff(times)
    if times.size > 1:
        _check_envelope(t.positions, times, pts, gaps)
    return MeetingRenewal(times, pts, pairs, gaps)


def _check_envelope(watched: np.ndarray, times: np.ndarray, pts: np.ndarray,
                    gaps: np.ndarray) -> None:
    """Raise EnvelopeViolation for the first segment straying beyond its gap.

    Segment k spans steps N_{k-1} .. N_k, both included.  The sup-norm
    distance of its positions to a point y is the largest of max - y and
    y - min over the segment's per-axis extremes, so one reduceat per
    extreme replaces a loop over meetings.
    """
    ends = times[1:]
    hi, lo = watched.max(axis=1), watched.min(axis=1)  # (steps, d) over both scouts
    seg_hi = np.maximum(np.maximum.reduceat(hi[:times[-1]], times[:-1]), hi[ends])
    seg_lo = np.minimum(np.minimum.reduceat(lo[:times[-1]], times[:-1]), lo[ends])
    strays = [np.maximum(seg_hi - y, y - seg_lo).max(axis=1) for y in (pts[:-1], pts[1:])]
    bad = (strays[0] > gaps[1:]) | (strays[1] > gaps[1:])
    if bad.any():
        k = int(np.argmax(bad)) + 1
        dist = strays[0][k - 1] if strays[0][k - 1] > gaps[k] else strays[1][k - 1]
        raise EnvelopeViolation(
            f"scout strayed {int(dist)} > gap {int(gaps[k])} "
            f"between meetings {k-1} and {k}")


# ---------------------------------------------------------------------------
# gap tails


@dataclass
class MeetingTailResult:
    curve: SurvivalCurve | None
    fit: TailFit | None
    passed: bool
    verdict: str
    n_gaps: int
    fitted_decay: float | None
    protocol_hash: str
    root_seed: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "passed": self.passed,
            "n_gaps": self.n_gaps,
            "fitted_decay": self.fitted_decay,
            "fit": None if self.fit is None else self.fit.to_json(),
            "curve": None if self.curve is None else self.curve.to_json(),
            "protocol_hash": self.protocol_hash,
            "seed": self.root_seed,
        }


def meeting_tail(p: ScoutProtocol, k_range: tuple[int, int] = (1, 64),
                 trials: int = 2000, cap: int = 1 << 14,
                 root_seed: int = 0) -> MeetingTailResult:
    """Fit of the inter-meeting gap tail in sqrt(u) coordinates.

    Gaps with meeting index k in ``k_range`` are pooled across replicas.
    PASS means the log-survival is well described by a line in sqrt(u)
    (r_squared >= FIT_R2_MIN): consistent with a stretched-exponential or faster
    gap decay.  Heavier (power-law) gap tails bend the plot and fail.  When
    no meeting beyond time 0 occurs in any replica, the result reports that
    as evidence against frequent meetings instead of a fit.
    """
    from .engine import meeting_gap_samples

    if p.scouts != 2:
        raise PreconditionError("meeting tails need a two-scout protocol")
    gaps = meeting_gap_samples(p, trials, cap, root_seed,
                               k_min=k_range[0], k_max=k_range[1])
    phash = protocol_hash(p)
    if gaps.size == 0:
        return MeetingTailResult(None, None, False, "no-meetings-within-cap",
                                 0, None, phash, root_seed)
    curve = SurvivalCurve.from_samples(gaps, cap)
    try:
        fit = fit_tail(curve, "stretched")
    except InsufficientDataError:
        return MeetingTailResult(curve, None, False, "insufficient-gap-data",
                                 int(gaps.size), None, phash, root_seed)
    passed = fit.r_squared >= FIT_R2_MIN and fit.slope < 0
    verdict = ("consistent with stretched-exponential gap decay" if passed
               else "not consistent with stretched-exponential gap decay")
    return MeetingTailResult(curve, fit, passed, verdict, int(gaps.size),
                             -fit.slope, phash, root_seed)


# ---------------------------------------------------------------------------
# divergence flag


FINITE = "finite-mean-consistent"
INFINITE = "infinite-mean-consistent"
INCONCLUSIVE = "inconclusive"


def divergence_flag(summary: CensoredSummary) -> str:
    """Classify a stopping-time tail as finite- or infinite-mean consistent.

    Finite: censoring below CENSORED_FLAG_FRACTION (1%), so the mean is not
    flagged as a lower bound, and the last threshold-doubling adds less
    than 1% to the accumulated tail mass (the mean estimate has stopped
    moving).  Infinite: a good power-law fit with slope >= -1, whose tail
    integral diverges.  Anything else is inconclusive.
    """
    return divergence_report(summary)["verdict"]


def divergence_report(summary: CensoredSummary) -> dict:
    """The :func:`divergence_flag` verdict with the statistics behind it: the
    summary's censored fraction and mean, the last doubling's share of the
    tail mass, and the power fit (None when too few thresholds qualify)."""
    c = summary.curve
    if c.total <= 0:
        raise InsufficientDataError("empty survival curve")
    if c.thresholds.size == 0:
        raise InsufficientDataError("survival curve has no thresholds")
    blocks = c.probabilities() * c.thresholds
    total_mass = float(blocks.sum())
    last_increment = float(blocks[-1]) / total_mass if total_mass > 0 else 0.0
    try:
        fit = fit_tail(c, "power")
    except InsufficientDataError:
        fit = None
    if (summary.censored_fraction < CENSORED_FLAG_FRACTION
            and last_increment < FINITE_TAIL_INCREMENT_MAX):
        verdict = FINITE
    elif fit is not None and fit.slope >= INFINITE_SLOPE_MIN - 1e-12 \
            and fit.r_squared >= FIT_R2_MIN:
        verdict = INFINITE
    else:
        verdict = INCONCLUSIVE
    return {
        "verdict": verdict,
        "censored_fraction": summary.censored_fraction,
        "tail_mass_last_increment": last_increment,
        "power_fit": None if fit is None else fit.to_json(),
        "mean": summary.mean,
        "mean_is_lower_bound": summary.mean_is_lower_bound,
    }

