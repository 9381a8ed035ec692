"""Impulse-response synthesis and tail shaping.

A room impulse response is reshaped, tap by tap, with two gain curves
that act on the late tail while leaving the direct path and early
reflections (everything within ``t0`` of the direct sound) untouched:

* a decay curve that multiplies the tail by an exponential falling
  60 dB over ``rd`` seconds, which shortens the effective reverberation
  time of the response, and
* an attenuation curve that steps smoothly (raised cosine between
  ``t0`` and ``t1``) from unity down to ``alpha``, which scales the
  tail the same way moving the microphone to ``alpha`` times its
  distance would.

Four target strategies combine these curves, from leaving the response
untouched to zeroing everything past the early reflections.

Shaping time is measured from the direct-path peak, not from tap zero,
so recorded responses with pre-delay keep their leading taps unshaped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kvtext, wavio
from .dsp import DEFAULT_SAMPLE_RATE, Signal
from .errors import ParameterError

DEFAULT_T0 = 0.020
DEFAULT_T1 = 0.030
DEFAULT_RD = 0.200
DEFAULT_ALPHA = 0.4

MIN_SYNTH_RT60 = 0.05
MAX_SYNTH_RT60 = 3.0
MAX_SYNTH_LENGTH = 10.0  # s; the longest room's tail is ~200 dB down by then
MAX_SYNTH_N_EARLY = 1000  # more than the early window's taps at 48 kHz
MAX_SYNTH_SAMPLE_RATE = 384_000  # Hz; a 10 s room is then 31 MB per float64 array
DEFAULT_N_EARLY = 6
DEFAULT_TAIL_LEVEL = 0.05
SYNTH_EARLY_WINDOW = (0.002, DEFAULT_T0)  # s after the direct tap, early reflections


class Strategy(str, Enum):
    """Training-target strategy: which gain curves multiply the tail."""

    NONE = "none"                              # identity
    FULL = "full"                              # attenuation only, alpha defaults to 0
    DECAYED = "decayed"                        # decay only
    ATTENUATED_DECAYED = "attenuated-decayed"  # attenuation times decay

    @property
    def uses_decay(self) -> bool:
        return self in (Strategy.DECAYED, Strategy.ATTENUATED_DECAYED)

    @property
    def uses_attenuation(self) -> bool:
        return self in (Strategy.FULL, Strategy.ATTENUATED_DECAYED)


_STRATEGY_ALPHA_DEFAULT = {
    Strategy.NONE: 1.0,
    Strategy.FULL: 0.0,
    Strategy.DECAYED: 1.0,
    Strategy.ATTENUATED_DECAYED: DEFAULT_ALPHA,
}


@dataclass
class ShapingParams:
    """Target strategy plus the boundaries and levels of its gain curves.

    ``t0`` is the early/late boundary, ``t1`` the end of the smooth
    attenuation transition, ``alpha`` the late-tail amplitude factor and
    ``rd`` the 60 dB decay time of the decay curve. A value left as
    None picks its default: 20 ms, 30 ms and 200 ms for the times, and
    the strategy's own ``alpha`` (0 for full, 0.4 for attenuated-decayed).
    """

    strategy: Strategy
    t0: float | None = None
    t1: float | None = None
    alpha: float | None = None
    rd: float | None = None

    def __post_init__(self):
        self.strategy = Strategy(self.strategy)
        self.t0 = DEFAULT_T0 if self.t0 is None else self.t0
        self.t1 = DEFAULT_T1 if self.t1 is None else self.t1
        self.rd = DEFAULT_RD if self.rd is None else self.rd
        if self.alpha is None:
            self.alpha = _STRATEGY_ALPHA_DEFAULT[self.strategy]
        if not 0.0 <= self.t0 < self.t1:
            raise ParameterError(f"need t1 > t0 >= 0, got t0={self.t0}, t1={self.t1}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.rd > 0.0:
            raise ParameterError(f"rd must be positive, got {self.rd}")

    def as_dict(self) -> dict:
        return {"strategy": self.strategy.value, "t0": self.t0, "t1": self.t1,
                "alpha": self.alpha, "rd": self.rd}

    def predicted_rt60(self, r0: float | None) -> float | None:
        """Reverberation time this shaping should leave a room of RT60 ``r0``.

        The harmonic law when the strategy decays the tail, ``r0`` when it
        only attenuates it (the decay rate is unchanged), and None for an
        unknown ``r0`` or a zeroed tail (full, alpha 0).
        """
        if r0 is None or (self.strategy is Strategy.FULL and self.alpha == 0.0):
            return None
        if self.strategy.uses_decay:
            return predicted_target_rt60(r0, self.rd)
        return r0


@dataclass(frozen=True)
class Rir(Signal):
    """An impulse response: a Signal whose samples are its taps, plus a direct-path index."""

    direct_index: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.direct_index < self.samples.size:
            raise ParameterError(
                f"direct_index {self.direct_index} outside [0, {self.samples.size})")
        if not np.any(self.samples != 0.0):
            raise ParameterError("impulse response has zero total energy")

    @property
    def taps(self) -> np.ndarray:
        """The samples, by their impulse-response name."""
        return self.samples

    def times(self) -> np.ndarray:
        """Tap times in seconds, zero at the direct-path peak."""
        return (np.arange(self.samples.size) - self.direct_index) / self.sample_rate


def decay_function(t, params: ShapingParams):
    """Exponential tail gain: 1 before ``t0``, then 10^(-3 (t - t0) / rd).

    Falls by 60 dB over ``rd`` seconds past the boundary; continuous at
    ``t0``. Accepts a scalar or an array of times.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    gain = np.ones_like(t_arr)
    late = t_arr >= params.t0
    gain[late] = 10.0 ** (-3.0 * (t_arr[late] - params.t0) / params.rd)
    return gain if np.ndim(t) else float(gain[0])


def attenuation_function(t, params: ShapingParams):
    """Raised-cosine step gain: 1 before ``t0``, ``alpha`` past ``t1``.

    Interpolates (1+a)/2 + (1-a)/2 * cos(pi (t - t0) / (t1 - t0)) in
    between; continuous at both boundaries and monotone nonincreasing.
    Accepts a scalar or an array of times.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    a = params.alpha
    gain = np.ones_like(t_arr)
    mid = (t_arr >= params.t0) & (t_arr <= params.t1)
    late = t_arr > params.t1
    gain[mid] = 0.5 * (1.0 + a) + 0.5 * (1.0 - a) * np.cos(
        np.pi * (t_arr[mid] - params.t0) / (params.t1 - params.t0))
    gain[late] = a
    return gain if np.ndim(t) else float(gain[0])


def shaping_gain(t, params: ShapingParams):
    """Combined per-tap gain of the strategy's curves at times ``t``.

    Exactly 1.0 wherever neither curve applies, so under strategy ``none``
    every tap is multiplied by one and keeps its bits.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    gain = np.ones_like(t_arr)
    if params.strategy.uses_decay:
        gain = gain * decay_function(t_arr, params)
    if params.strategy.uses_attenuation:
        gain = gain * attenuation_function(t_arr, params)
    return gain if np.ndim(t) else float(gain[0])


def shape_rir(h0: Rir, params: ShapingParams) -> Rir:
    """Multiply an impulse response, tap by tap, by its strategy's gain.

    Time zero sits at ``h0.direct_index``; taps before it pass through
    unshaped. Length, sample rate and direct index are preserved; the
    ``none`` strategy's gain is exactly one, so it gives a bit-identical copy.
    """
    return Rir(h0.taps * shaping_gain(h0.times(), params), h0.sample_rate, h0.direct_index)


def dirac_rir(sample_rate: int = DEFAULT_SAMPLE_RATE) -> Rir:
    """A single unit tap at index 0: convolution identity, zero reverb."""
    return Rir(np.array([1.0]), sample_rate, 0)


def check_synth_args(rt60: float, length: float | None, n_early: int | None,
                     tail_level: float = DEFAULT_TAIL_LEVEL) -> None:
    """Raise ParameterError unless :func:`synth_rir` accepts these arguments."""
    if not MIN_SYNTH_RT60 <= rt60 <= MAX_SYNTH_RT60:
        raise ParameterError(
            f"rt60 must lie in [{MIN_SYNTH_RT60}, {MAX_SYNTH_RT60}] s, got {rt60}")
    if length is not None and not rt60 <= length <= MAX_SYNTH_LENGTH:
        raise ParameterError(
            f"length must lie in [rt60 {rt60}, {MAX_SYNTH_LENGTH}] s, got {length}")
    if not 0.0 < tail_level <= 0.15:
        # keeps the direct tap the peak with overwhelming probability
        raise ParameterError(f"tail_level must lie in (0, 0.15], got {tail_level}")
    if n_early is not None and not 0 <= n_early <= MAX_SYNTH_N_EARLY:  # None: the default
        raise ParameterError(f"n_early must lie in [0, {MAX_SYNTH_N_EARLY}], got {n_early}")


def synth_rir(rt60: float, *, length: float | None = None, n_early: int | None = None,
              seed: int = 0, sample_rate: int = DEFAULT_SAMPLE_RATE,
              tail_level: float = DEFAULT_TAIL_LEVEL) -> Rir:
    """Synthesize a stochastic impulse response with a known decay time.

    The model is a unit direct impulse at t = 0, ``n_early`` sparse
    reflections at seeded-random times inside ``SYNTH_EARLY_WINDOW``
    with amplitudes in [0.1, 0.7] (random sign), and a Gaussian tail
    with envelope tail_level * 10^(-3 t / rt60), whose energy decays by
    exactly 60 dB over ``rt60`` seconds. Output is bit-identical for a
    fixed seed.

    ``length`` defaults to max(1.5 * rt60, rt60 + 0.3) seconds, enough
    for the decay measurement to span its full fit range, and
    ``n_early`` to ``DEFAULT_N_EARLY``.
    """
    check_synth_args(rt60, length, n_early, tail_level)
    if length is None:
        length = max(1.5 * rt60, rt60 + 0.3)
    if not 0 < sample_rate <= MAX_SYNTH_SAMPLE_RATE:
        raise ParameterError(
            f"sample_rate must lie in (0, {MAX_SYNTH_SAMPLE_RATE}] Hz, got {sample_rate}")
    if seed < 0:  # numpy seeds no generator from it
        raise ParameterError(f"seed must be non-negative, got {seed}")

    n = int(round(length * sample_rate))
    if n <= round(SYNTH_EARLY_WINDOW[1] * sample_rate):
        raise ParameterError(f"{length} s at {sample_rate} Hz is too short for early reflections")
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate
    envelope = tail_level * 10.0 ** (-3.0 * t / rt60)
    taps = rng.standard_normal(n) * envelope
    taps[0] = 1.0
    for _ in range(DEFAULT_N_EARLY if n_early is None else n_early):
        when = rng.uniform(*SYNTH_EARLY_WINDOW)
        amplitude = rng.uniform(0.1, 0.7) * (1.0 if rng.random() < 0.5 else -1.0)
        taps[int(round(when * sample_rate))] += amplitude
    # the direct tap must stay the peak even when an early reflection rides
    # a tail excursion (possible at high tail levels)
    np.clip(taps[1:], -0.98, 0.98, out=taps[1:])
    return Rir(taps, sample_rate, 0)


def predicted_target_rt60(r0: float, rd: float) -> float:
    """Reverberation time after decay shaping: (1/r0 + 1/rd)^-1.

    Always below both ``r0`` and ``rd``; approaches ``rd`` for very
    reverberant rooms.
    """
    if not (r0 > 0.0 and rd > 0.0):
        raise ParameterError("r0 and rd must be positive")
    return 1.0 / (1.0 / r0 + 1.0 / rd)


def predicted_target_distance(d0: float, alpha: float) -> float:
    """Apparent microphone distance after attenuating the tail by ``alpha``.

    Under a free-field 1/d^2 intensity law the shaped response sounds
    as if recorded at alpha * d0.
    """
    if not d0 > 0.0:
        raise ParameterError(f"d0 must be positive, got {d0}")
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha * d0


# --- file interface: WAV taps plus a key=value metadata sidecar ---------------

def write_rir(rir: Rir, path, metadata: dict | None = None,
              encoding: str = "float32") -> None:
    """Write taps as mono WAV plus a sidecar with the direct index.

    ``metadata`` entries (nominal rt60, seed, shaping params, ...) are
    appended to the sidecar record.
    """
    wavio.write_wav(rir, path, encoding=encoding)
    record = {"direct_index": rir.direct_index, "sample_rate": rir.sample_rate}
    if metadata:
        record.update(metadata)
    kvtext.save_kv(record, kvtext.sidecar_path(path))


def read_rir(path) -> Rir:
    """Read a WAV impulse response, using the sidecar's direct index if present.

    Without a sidecar the direct path is detected as the peak-magnitude tap.
    A sidecar's ``sample_rate=`` must match the WAV header. Every refusal
    names the file at fault: the sidecar for its values, the WAV for its taps.
    """
    signal = wavio.read_wav(path)
    sidecar = kvtext.sidecar_path(path)
    try:
        record = kvtext.load_kv(sidecar)
    except FileNotFoundError:
        record = {}
    values = kvtext.convert(record, {"direct_index": int, "sample_rate": int}, sidecar,
                            others=str)
    if values.get("sample_rate", signal.sample_rate) != signal.sample_rate:
        raise ParameterError(f"{sidecar}: sample_rate={values['sample_rate']} disagrees with "
                             f"the WAV header's {signal.sample_rate} Hz")
    direct_index = values.get("direct_index")
    if direct_index is None:
        direct_index = int(np.argmax(np.abs(signal.samples)))
    elif not 0 <= direct_index < len(signal):
        raise ParameterError(f"{sidecar}: direct_index {direct_index} outside [0, {len(signal)})")
    try:
        return Rir(signal.samples, signal.sample_rate, direct_index)
    except ParameterError as exc:  # taps with zero total energy
        raise ParameterError(f"{path}: {exc}") from None
