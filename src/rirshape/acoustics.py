"""Room-acoustic measurement: energy decay, RT60, direct-to-reverberant ratio.

These are the instruments used to verify what shaping does to a room:
backward-integrated energy decay curves, a T30-style reverberation-time
estimate, and the energy ratio across the early/late boundary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import kvtext
from .errors import DegenerateEnergyError, ParameterError, UndefinedDecayError
from .shaping import DEFAULT_T1, Rir, ShapingParams

FIT_RANGE_DB = (-5.0, -35.0)
MIN_DECAY_SPAN = 0.030   # seconds between the -5 and -35 dB crossings
MIN_FIT_POINTS = 16
DEFAULT_DRR_BOUNDARY = DEFAULT_T1  # the early/late split shaping leaves intact


@dataclass(frozen=True)
class DecayCurve:
    """Backward-integrated energy level per tap, in dB re total energy.

    Starts at 0 dB and is nonincreasing by construction; levels are
    -inf once the remaining energy is exhausted.
    """

    times: np.ndarray
    levels: np.ndarray


def energy_decay_curve(h: Rir) -> DecayCurve:
    """Backward cumulative energy of an impulse response, in dB.

    level(t) = 10 log10( sum_{tau >= t} h^2 / sum_{tau >= 0} h^2 ),
    evaluated at every tap. Times count from the first tap.
    """
    squares = h.taps ** 2
    remaining = np.cumsum(squares[::-1])[::-1]
    total = remaining[0]
    if total <= 0.0:
        raise DegenerateEnergyError("impulse response has zero energy")
    with np.errstate(divide="ignore"):
        levels = 10.0 * np.log10(remaining / total)
    times = np.arange(h.taps.size) / h.sample_rate
    return DecayCurve(times, levels)


def estimate_rt60(h: Rir) -> float:
    """Reverberation time from a line fit to the energy decay curve.

    Least squares over the curve between -5 and -35 dB, extrapolated to
    -60 dB (RT60 = -60 / slope). The decay is considered unmeasurable,
    and UndefinedDecayError raised, when the curve never spans the fit
    range or crosses it in under 30 ms, as happens for a bare impulse
    or a response whose tail has been zeroed.
    """
    high, low = FIT_RANGE_DB
    curve = energy_decay_curve(h)
    mask = (curve.levels <= high) & (curve.levels >= low)
    if np.count_nonzero(mask) < MIN_FIT_POINTS:
        raise UndefinedDecayError(
            f"energy decay spans fewer than {MIN_FIT_POINTS} taps inside "
            f"[{low}, {high}] dB")
    times = curve.times[mask]
    span = times[-1] - times[0]
    if span < MIN_DECAY_SPAN:
        raise UndefinedDecayError(
            f"decay crosses [{low}, {high}] dB in {span * 1e3:.2f} ms, "
            f"below the {MIN_DECAY_SPAN * 1e3:.0f} ms floor")
    # closed-form least-squares slope on centred data (no LAPACK call)
    dt = times - times.mean()
    levels = curve.levels[mask]
    slope = np.sum(dt * (levels - levels.mean())) / np.sum(dt * dt)
    if slope >= 0.0:
        raise UndefinedDecayError("energy decay curve has nonnegative slope")
    return float(-60.0 / slope)


def drr(h: Rir, boundary: float) -> float:
    """Direct-to-reverberant ratio in dB at a boundary after the direct path.

    Energy of taps with t < boundary over energy with t >= boundary,
    t measured from the direct-path peak. Returns +inf when there is no
    late energy (fully dry response) rather than raising.
    """
    if boundary <= 0.0:
        raise ParameterError(f"boundary must be positive, got {boundary}")
    split = h.direct_index + int(np.ceil(boundary * h.sample_rate))
    early = float(np.sum(h.taps[:split] ** 2))
    late = float(np.sum(h.taps[split:] ** 2))
    if late == 0.0:
        return math.inf
    if early == 0.0:
        return -math.inf
    return 10.0 * math.log10(early / late)


@dataclass
class ShapingReport:
    """Measured vs predicted effect of one shaping run."""

    strategy: str
    r0_estimate: float
    r1_estimate: float
    r1_predicted: float | None
    relative_deviation: float | None
    drr_before_db: float
    drr_after_db: float
    drr_boundary: float

    CSV_HEADER = ("strategy,r0_estimate,r1_estimate,r1_predicted,"
                  "relative_deviation,drr_before_db,drr_after_db,drr_boundary")

    def as_dict(self) -> dict:
        return asdict(self)

    def to_kv(self) -> str:
        return kvtext.dump_kv(self.as_dict())

    def to_csv_row(self) -> str:
        return ",".join(kvtext.kv_str(v) for v in self.as_dict().values())


def verify_shaping(h0: Rir, h1: Rir, params: ShapingParams) -> ShapingReport:
    """Measure how shaping changed the room and compare with prediction.

    ``h1`` is expected to be shape_rir(h0, params); the prediction is
    ``params.predicted_rt60`` of the measured r0. Estimator errors
    propagate, so a zeroed tail (full, alpha 0) raises UndefinedDecayError.
    """
    r0 = estimate_rt60(h0)
    r1 = estimate_rt60(h1)
    predicted = params.predicted_rt60(r0)
    deviation = abs(r1 - predicted) / predicted if predicted else None
    boundary = params.t1
    return ShapingReport(
        strategy=params.strategy.value,
        r0_estimate=r0,
        r1_estimate=r1,
        r1_predicted=predicted,
        relative_deviation=deviation,
        drr_before_db=drr(h0, boundary),
        drr_after_db=drr(h1, boundary),
        drr_boundary=boundary,
    )
