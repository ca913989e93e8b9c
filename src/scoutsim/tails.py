"""Survival curves over dyadic thresholds and tail-shape fitting.

The survival curve is the shared substrate for every tail diagnostic in the
package: hitting times, meeting gaps, reach times of look-around walks.
Counts are kept rather than probabilities: a tail fit reads only the
thresholds with enough survivors, and the CSV output reports survivors and
totals.  ``survivors`` is stored as float64 so that analytically generated
curves (exact probabilities scaled by a power of two) pass through the
fitting path without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# a tail fit reads only thresholds with at least MIN_FIT_SURVIVORS survivors
# and needs MIN_FIT_POINTS of them; a fit passes a quality check when its
# r_squared is at least FIT_R2_MIN
MIN_FIT_SURVIVORS = 30
MIN_FIT_POINTS = 4
FIT_R2_MIN = 0.95
# the two-sided 95% standard normal quantile of every confidence interval
Z95 = 1.959963984540054
# a censored-sample mean is a lower bound once more than this fraction of
# the samples is censored
CENSORED_FLAG_FRACTION = 0.01

MODELS = ("power", "exponential", "stretched")


class InsufficientDataError(ValueError):
    """Too few eligible thresholds to fit a tail."""


def dyadic_thresholds(cap: int) -> np.ndarray:
    """Thresholds 1, 2, 4, ... not exceeding cap."""
    if cap < 1:
        return np.zeros(0, dtype=np.int64)
    top = int(cap).bit_length() - 1  # floor(log2(cap)); a float log2 rounds 2**53 - 1 up to 53
    return np.array([1 << j for j in range(top + 1)], dtype=np.int64)


@dataclass
class SurvivalCurve:
    """Empirical tail counts: survivors[j] samples exceeded thresholds[j].

    ``censor_cap`` records the truncation point of the underlying samples;
    censored samples exceed every threshold <= cap, so the counts here are
    exact despite censoring.
    """

    thresholds: np.ndarray
    survivors: np.ndarray
    total: float
    censor_cap: int | None = None

    def __post_init__(self) -> None:
        self.thresholds = np.asarray(self.thresholds, dtype=np.int64)
        self.survivors = np.asarray(self.survivors, dtype=np.float64)
        if self.thresholds.shape != self.survivors.shape:
            raise ValueError("thresholds and survivors must align")
        if np.any(np.diff(self.thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any(np.diff(self.survivors) > 0):
            raise ValueError("survivor counts must be nonincreasing")
        if np.any(self.survivors > self.total):
            raise ValueError("survivors cannot exceed total")

    @staticmethod
    def from_samples(samples: np.ndarray, cap: int) -> "SurvivalCurve":
        """Curve of P(sample > u) over the dyadic thresholds up to cap;
        values above cap are treated as censored."""
        samples = np.asarray(samples)
        thresholds = dyadic_thresholds(cap)
        counts = (samples[None, :] > thresholds[:, None]).sum(axis=1)
        return SurvivalCurve(thresholds, counts.astype(np.float64),
                             float(samples.size), censor_cap=cap)

    def probabilities(self) -> np.ndarray:
        return self.survivors / float(self.total)

    def csv_rows(self) -> list[tuple]:
        def fmt(x: float):
            return int(x) if float(x).is_integer() else x
        return [(int(u), fmt(s), fmt(self.total))
                for u, s in zip(self.thresholds, self.survivors)]

    def to_json(self) -> dict:
        return {
            "thresholds": [int(u) for u in self.thresholds],
            "survivors": [float(s) for s in self.survivors],
            "total": float(self.total),
            "censor_cap": None if self.censor_cap is None else int(self.censor_cap),
        }


@dataclass
class TailFit:
    """Least-squares line through transformed survival points.

    Model transforms of the x axis: ``power`` uses log u, ``exponential``
    uses u, ``stretched`` uses sqrt(u); the y axis is always log P.
    """

    model: str
    slope: float
    intercept: float
    r_squared: float
    thresholds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    survivor_counts: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_points(self) -> int:
        return int(self.thresholds.size)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n_points": self.n_points,
            "thresholds": [int(u) for u in self.thresholds],
            "survivors": [float(s) for s in self.survivor_counts],
        }


def _transform(u: np.ndarray, model: str) -> np.ndarray:
    if model == "power":
        return np.log(u)
    if model == "exponential":
        return u.astype(np.float64)
    if model == "stretched":
        return np.sqrt(u)
    raise ValueError(f"unknown tail model {model!r} (choose from {MODELS})")


def fit_tail(curve: SurvivalCurve, model: str) -> TailFit:
    """Fit log-survival against the model's transformed threshold axis.

    Only thresholds with at least MIN_FIT_SURVIVORS surviving samples enter
    the fit; fewer than MIN_FIT_POINTS eligible points raises
    InsufficientDataError.
    """
    eligible = curve.survivors >= MIN_FIT_SURVIVORS
    u = curve.thresholds[eligible].astype(np.float64)
    s = curve.survivors[eligible]
    if u.size < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"{u.size} thresholds with >= {MIN_FIT_SURVIVORS} survivors; need {MIN_FIT_POINTS}")
    x = _transform(u, model)
    y = np.log(s / float(curve.total))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot < 1e-30:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return TailFit(model, float(slope), float(intercept), float(r2),
                   curve.thresholds[eligible].copy(), s.copy())


def wilson_interval(successes: float, trials: float) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class CensoredSummary:
    """Mean/CI bookkeeping for a censored stopping-time sample."""

    label: str
    curve: SurvivalCurve
    n: int
    n_censored: int
    mean: float | None
    ci_low: float | None
    ci_high: float | None
    cap: int
    root_seed: int
    mean_is_lower_bound: bool

    @property
    def censored_fraction(self) -> float:
        return self.n_censored / self.n if self.n else 0.0

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "n_censored": self.n_censored,
            "censored_fraction": self.censored_fraction,
            "mean": self.mean,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "cap": self.cap,
            "seed": self.root_seed,
            "mean_is_lower_bound": self.mean_is_lower_bound,
            "curve": self.curve.to_json(),
        }


def summarize_censored(label: str, samples: np.ndarray, cap: int,
                       root_seed: int) -> CensoredSummary:
    """Build a summary from stopping-time samples (censored values > cap).

    The mean is computed over uncensored samples only, with a 95% normal
    interval; when more than CENSORED_FLAG_FRACTION of the samples is
    censored it is flagged as a lower bound.
    """
    samples = np.asarray(samples, dtype=np.int64)
    censored = samples > cap
    n = int(samples.size)
    n_cens = int(censored.sum())
    curve = SurvivalCurve.from_samples(samples, cap)
    if n_cens == n:
        mean = lo = hi = None
    else:
        kept = samples[~censored].astype(np.float64)
        mean = float(kept.mean())
        if kept.size > 1:
            half = Z95 * float(kept.std(ddof=1)) / math.sqrt(kept.size)
        else:
            half = 0.0
        lo, hi = mean - half, mean + half
    frac = n_cens / n if n else 0.0
    return CensoredSummary(label, curve, n, n_cens, mean, lo, hi, cap, root_seed,
                           mean_is_lower_bound=frac > CENSORED_FLAG_FRACTION)
