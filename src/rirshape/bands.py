"""Triangular filterbank on the ERB-rate scale and per-band gain math.

Band matrices have one row per analysis frame of ``dsp``'s fixed
profile (``dsp.WINDOW_MS`` windows every ``dsp.FRAME_ADVANCE_MS``) and
one column per band; a filterbank covers the bins of those frames, so a
sample rate fixes the whole layout. ``N_BANDS`` (32) band centers are
spaced uniformly on the ERB-rate scale between 0 Hz and Nyquist; each FFT bin splits its
unit weight between the two neighboring bands (a partition of unity), so
per-band energies sum back to the spectrum's energy. Band gains are
target/mixture energy ratios clamped to [0, 1]. ``apply_gains``
interpolates them back onto bins with the weights of the filterbank it
is given: the triangular design (production) or its ``rectangularized``
copy, where each bin takes the gain of the band that owns it, which
makes the gains-to-energies loop an exact identity.

Products against the weights add each band's span of nonzero weights
one bin at a time, in bin order, rather than through a dense BLAS
matmul: each bin has only two nonzero weights, and a threaded BLAS
inside every dataset-build worker process makes the workers contend for
the cores. The sums are bit-identical to a sparse (CSR) product with the
weights, which the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import kvtext
from .dsp import FRAME_ADVANCE_MS, FrameSpectra, frame_lengths
from .errors import ParameterError

N_BANDS = 32
ENERGY_FLOOR = 1e-9
ERB_RATE_SCALE = 21.4
ERB_RATE_KNEE = 0.00437


def erb_rate(freq_hz):
    """Map frequency in Hz to the ERB-rate (auditory filter count) scale."""
    return ERB_RATE_SCALE * np.log10(1.0 + ERB_RATE_KNEE * np.asarray(freq_hz, dtype=np.float64))


def erb_rate_to_hz(rate):
    """Inverse of :func:`erb_rate`."""
    return (10.0 ** (np.asarray(rate, dtype=np.float64) / ERB_RATE_SCALE) - 1.0) / ERB_RATE_KNEE


@dataclass(frozen=True)
class Filterbank:
    """Per-band, per-bin nonnegative weights plus band centers in Hz."""

    weights: np.ndarray       # (n_bands, n_bins)
    band_centers: np.ndarray  # (n_bands,) Hz, strictly increasing
    sample_rate: int

    @property
    def n_bands(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Each band's bins from its first to its last nonzero weight, as (start, stop)."""
        spans = []
        for row in self.weights:
            nonzero = np.flatnonzero(row)
            spans.append((int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0))
        return tuple(spans)

    def rectangularized(self) -> "Filterbank":
        """0/1 weights giving each bin to its peak-weight band; still a partition of unity."""
        weights = np.zeros_like(self.weights)
        weights[np.argmax(self.weights, axis=0), np.arange(self.n_bins)] = 1.0
        return Filterbank(weights, self.band_centers, self.sample_rate)


@lru_cache(maxsize=None)
def design_erb_filterbank(sample_rate: int) -> Filterbank:
    """Design the ``N_BANDS``-band triangular ERB-scale filterbank for one sample rate.

    Its bins are those of ``dsp.analyze``'s frames at that rate. Centers
    run from 0 Hz to Nyquist with a constant ERB-rate step; a bin between
    two centers splits its weight linearly in ERB-rate, and the edge bands
    extend flat to the spectrum edges. Every bin's weights sum to one.
    Designs are cached per rate and shared by every caller, so their
    arrays are read-only.
    """
    win = frame_lengths(sample_rate)[0]
    if win < 64:
        raise ParameterError(f"{sample_rate} Hz gives a {win}-sample window; "
                             "the filterbank needs at least 64")

    nyquist = sample_rate / 2.0
    n_bins = win // 2 + 1
    freqs = np.arange(n_bins) * sample_rate / win
    center_rates = np.linspace(0.0, float(erb_rate(nyquist)), N_BANDS)
    centers = erb_rate_to_hz(center_rates)
    centers[0] = 0.0
    centers[-1] = nyquist

    bin_rates = erb_rate(freqs)
    segment = np.clip(np.searchsorted(center_rates, bin_rates, side="right") - 1,
                      0, N_BANDS - 2)
    width = center_rates[segment + 1] - center_rates[segment]
    fraction = np.clip((bin_rates - center_rates[segment]) / width, 0.0, 1.0)

    weights = np.zeros((N_BANDS, n_bins))
    cols = np.arange(n_bins)
    weights[segment, cols] = 1.0 - fraction
    weights[segment + 1, cols] += fraction
    weights.flags.writeable = False
    centers.flags.writeable = False
    return Filterbank(weights, centers, sample_rate)


@dataclass(frozen=True)
class BandMatrix:
    """Per-frame, per-band nonnegative values tagged as energies or gains."""

    values: np.ndarray  # (n_frames, n_bands)
    role: str           # "energy" | "gain"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ParameterError("band matrix must be 2-D (frames x bands)")
        if self.role not in ("energy", "gain"):
            raise ParameterError(f"unknown band-matrix role {self.role!r}")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ParameterError("band matrix must be finite and nonnegative")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bands(self) -> int:
        return self.values.shape[1]


def _check_same_rate(spectra: FrameSpectra, fb: Filterbank) -> None:
    if spectra.sample_rate != fb.sample_rate:
        raise ParameterError(
            f"spectra at {spectra.sample_rate} Hz vs filterbank at {fb.sample_rate} Hz")


def band_energies(spectra: FrameSpectra, fb: Filterbank) -> BandMatrix:
    """Weighted L2 norm of each frame's spectrum inside each band.

    X[l, b] = sqrt( sum_k weight[b, k] |S[l, k]|^2 ). Because the
    weights partition unity, the squared band energies of a frame sum
    to the frame's total spectral energy.
    """
    _check_same_rate(spectra, fb)
    # one row per bin, so that each band adds its bins' rows in bin order
    power = np.square(np.abs(spectra.frames).T, out=np.empty((spectra.n_bins, spectra.n_frames)))
    sums = np.empty((fb.n_bands, spectra.n_frames))
    products = np.empty_like(power)
    for band, (start, stop) in enumerate(fb.spans):
        rows = np.multiply(power[start:stop], fb.weights[band, start:stop, None],
                           out=products[:stop - start])
        if spectra.n_frames > 1:
            np.add.reduce(rows, axis=0, out=sums[band])
        else:  # numpy sums a lone column pairwise, not in order
            sums[band] = np.add.accumulate(np.append(0.0, rows))[-1]
    return BandMatrix(np.sqrt(sums).T, "energy")


def ideal_gains(target: BandMatrix, noisy: BandMatrix, clamp: bool = True) -> BandMatrix:
    """Per-band target/mixture energy ratios.

    g[l, b] = X[l, b] / Y[l, b], clamped to [0, 1] unless ``clamp`` is
    False (the raw ratio is what makes the rectangular-mode resynthesis
    identity exact). Frames where the mixture energy sits below
    ``ENERGY_FLOOR`` yield 0 when the target is also below the floor
    and 1 otherwise; the result is never NaN.
    """
    if target.values.shape != noisy.values.shape:
        raise ParameterError(f"target and noisy band matrices differ in shape: "
                             f"{target.values.shape} vs {noisy.values.shape}")
    if target.role != "energy" or noisy.role != "energy":
        raise ParameterError("ideal_gains expects two energy-role matrices")
    x = target.values
    y = noisy.values
    silent = y < ENERGY_FLOOR
    gains = x / np.where(silent, 1.0, y)
    gains[silent] = np.where(x[silent] >= ENERGY_FLOOR, 1.0, 0.0)
    if clamp:
        gains = np.clip(gains, 0.0, 1.0)
    return BandMatrix(gains, "gain")


def apply_gains(noisy_spectra: FrameSpectra, gains: BandMatrix,
                fb: Filterbank) -> FrameSpectra:
    """Scale each bin by its band gains interpolated with ``fb``'s weights, preserving phase.

    Pass ``fb.rectangularized()`` to give every bin the gain of the band
    that owns it.
    """
    _check_same_rate(noisy_spectra, fb)
    if gains.role != "gain":
        raise ParameterError(f"apply_gains expects a gain-role matrix, got {gains.role!r}")
    if gains.n_bands != fb.n_bands:
        raise ParameterError(f"{gains.n_bands} gain bands vs {fb.n_bands} filter bands")
    if gains.n_frames != noisy_spectra.n_frames:
        raise ParameterError(
            f"{gains.n_frames} gain frames vs {noisy_spectra.n_frames} spectra frames")
    if noisy_spectra.n_bins != fb.n_bins:
        raise ParameterError(
            f"{noisy_spectra.n_bins} spectrum bins vs {fb.n_bins} filterbank bins")
    per_bin = np.zeros((fb.n_bins, gains.n_frames))
    for band, (start, stop) in enumerate(fb.spans):  # each bin adds its bands in band order
        per_bin[start:stop] += fb.weights[band, start:stop, None] * gains.values[:, band]
    return replace(noisy_spectra, frames=noisy_spectra.frames * per_bin.T)


# --- serialization -----------------------------------------------------------

def _count(raw: str) -> int:  # a layout size: reshape would infer a -1 from the data
    if int(raw) < 0:
        raise ValueError(f"{raw} is negative")
    return int(raw)


_CSV_HEADER_KEYS = {"role": str, "band_centers_hz": lambda raw: np.array(raw.split(","), float)}
_RAW_LAYOUT_KEYS = {"frames": _count, "bands": _count}


def write_band_matrix_csv(matrix: BandMatrix, path, sample_rate: int) -> None:
    """CSV with one row per frame, 9 significant digits, band centers in the header.

    The centers are those of the filterbank designed for ``sample_rate``.
    """
    fb = design_erb_filterbank(sample_rate)
    if fb.n_bands != matrix.n_bands:
        raise ParameterError(f"{matrix.n_bands} columns vs {fb.n_bands} band centers")
    row_format = ",".join(["%.9g"] * matrix.n_bands)
    lines = ["# role=%s band_centers_hz=%s"
             % (matrix.role, row_format % tuple(fb.band_centers.tolist()))]
    lines += [row_format % tuple(row) for row in matrix.values.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_band_matrix_csv(path) -> tuple[BandMatrix, np.ndarray]:
    """Read a matrix written by :func:`write_band_matrix_csv`."""
    lines = [line.strip() for line in kvtext.read_text(path).splitlines() if line.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ParameterError(f"{path}: missing band-matrix header")
    try:  # the header's space-separated pairs, one per line, make a key=value record
        header = kvtext.parse_kv("\n".join(lines[0][1:].split()))
        fields = kvtext.convert(header, _CSV_HEADER_KEYS, "header")
        centers = fields["band_centers_hz"]
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        values = values.reshape(len(lines) - 1, centers.size)  # one value per center
    except KeyError:
        raise ParameterError(f"{path}: header has no band_centers_hz") from None
    except ValueError as exc:  # a bad number, or rows that do not match the centers
        raise ParameterError(f"{path}: {exc}") from None
    return BandMatrix(values, fields.get("role", "energy")), centers


def write_band_matrix_raw(matrix: BandMatrix, path, sample_rate: int) -> None:
    """Raw little-endian float32 dump plus a key=value layout sidecar.

    The sidecar records the frame advance of ``dsp``'s fixed profile.
    """
    matrix.values.astype("<f4").tofile(path)
    kvtext.save_kv({
        "frames": matrix.n_frames,
        "bands": matrix.n_bands,
        "role": matrix.role,
        "sample_rate": sample_rate,
        "frame_advance_ms": FRAME_ADVANCE_MS,
        "dtype": "float32le",
    }, kvtext.sidecar_path(path))


def read_band_matrix_raw(path) -> tuple[BandMatrix, dict]:
    """Read a matrix written by :func:`write_band_matrix_raw`."""
    sidecar = kvtext.sidecar_path(path)
    meta = kvtext.load_kv(sidecar)
    layout = kvtext.convert(meta, _RAW_LAYOUT_KEYS, sidecar, others=str)
    if layout.get("dtype", "float32le") != "float32le":  # the one encoding read here
        raise ParameterError(f"{sidecar}: dtype={layout['dtype']} is not float32le")
    try:
        frames, bands = layout["frames"], layout["bands"]
        values = np.frombuffer(Path(path).read_bytes(), dtype="<f4").reshape(frames, bands)
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"{path}: does not match the frames x bands of its sidecar "
                             f"({exc})") from None
    return BandMatrix(values.astype(np.float64), meta.get("role", "energy")), meta
