"""Triangular filterbank on the ERB-rate scale and per-band gain math.

32 band centers are spaced uniformly on the ERB-rate scale between 0 Hz
and Nyquist; each FFT bin splits its unit weight between the two
neighboring bands (a partition of unity), so per-band energies sum back
to the spectrum's energy. Band gains are target/mixture energy ratios
clamped to [0, 1], and can be interpolated back onto bins either with
the triangular weights (production) or by band ownership (rectangular,
which makes the gains-to-energies loop an exact identity).

Products against the weights go through a sparse copy of them rather
than a dense BLAS matmul: each bin has only two nonzero weights, and a
threaded BLAS inside every dataset-build worker process makes the
workers contend for the cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import csr_array

from . import kvtext
from .dsp import FrameSpectra
from .errors import ParameterError, SampleRateMismatchError, ShapeMismatchError

N_BANDS = 32
ENERGY_FLOOR = 1e-9
ERB_RATE_SCALE = 21.4
ERB_RATE_KNEE = 0.00437

APPLY_MODES = ("triangular", "rectangular")


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
    fft_size: int

    @property
    def n_bands(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def sparse_weights(self) -> csr_array:
        """``weights`` as a CSR array, for products that avoid BLAS."""
        return csr_array(self.weights)

    def bin_owners(self) -> np.ndarray:
        """Index of the band holding each bin's peak weight."""
        return np.argmax(self.weights, axis=0)

    def rectangularized(self) -> "Filterbank":
        """0/1 ownership weights; still a partition of unity."""
        owners = self.bin_owners()
        weights = np.zeros_like(self.weights)
        weights[owners, np.arange(self.n_bins)] = 1.0
        return Filterbank(weights, self.band_centers, self.sample_rate, self.fft_size)


@lru_cache(maxsize=None)
def design_erb_filterbank(fft_size: int, sample_rate: int = 48000,
                          n_bands: int = N_BANDS) -> Filterbank:
    """Design the triangular ERB-scale filterbank for one FFT layout.

    Centers run from 0 Hz to Nyquist with a constant ERB-rate step; a
    bin between two centers splits its weight linearly in ERB-rate, and
    the edge bands extend flat to the spectrum edges. Every bin's
    weights sum to one. Designs are cached per argument set and shared
    by every caller, so their arrays are read-only.
    """
    if fft_size < 64:
        raise ParameterError(f"fft_size must be at least 64, got {fft_size}")
    if sample_rate <= 0:
        raise ParameterError(f"sample_rate must be positive, got {sample_rate}")
    if n_bands < 2:
        raise ParameterError(f"need at least 2 bands, got {n_bands}")

    nyquist = sample_rate / 2.0
    n_bins = fft_size // 2 + 1
    freqs = np.arange(n_bins) * sample_rate / fft_size
    center_rates = np.linspace(0.0, float(erb_rate(nyquist)), n_bands)
    centers = erb_rate_to_hz(center_rates)
    centers[0] = 0.0
    centers[-1] = nyquist

    bin_rates = erb_rate(freqs)
    segment = np.clip(np.searchsorted(center_rates, bin_rates, side="right") - 1,
                      0, n_bands - 2)
    width = center_rates[segment + 1] - center_rates[segment]
    fraction = np.clip((bin_rates - center_rates[segment]) / width, 0.0, 1.0)

    weights = np.zeros((n_bands, n_bins))
    cols = np.arange(n_bins)
    weights[segment, cols] = 1.0 - fraction
    weights[segment + 1, cols] += fraction
    weights.flags.writeable = False
    centers.flags.writeable = False
    return Filterbank(weights, centers, sample_rate, fft_size)


@dataclass(frozen=True)
class BandMatrix:
    """Per-frame, per-band nonnegative values tagged as energies or gains."""

    values: np.ndarray  # (n_frames, n_bands)
    role: str           # "energy" | "gain"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ShapeMismatchError("band matrix must be 2-D (frames x bands)")
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


def band_energies(spectra: FrameSpectra, fb: Filterbank) -> BandMatrix:
    """Weighted L2 norm of each frame's spectrum inside each band.

    X[l, b] = sqrt( sum_k weight[b, k] |S[l, k]|^2 ). Because the
    weights partition unity, the squared band energies of a frame sum
    to the frame's total spectral energy.
    """
    if spectra.fft_size != fb.fft_size or spectra.n_bins != fb.n_bins:
        raise ShapeMismatchError(
            f"spectra fft_size {spectra.fft_size} does not match filterbank "
            f"fft_size {fb.fft_size}")
    if spectra.sample_rate != fb.sample_rate:
        raise SampleRateMismatchError(
            f"spectra at {spectra.sample_rate} Hz vs filterbank at {fb.sample_rate} Hz")
    power = np.abs(spectra.frames) ** 2
    return BandMatrix(np.sqrt(fb.sparse_weights.dot(power.T).T), "energy")


def ideal_gains(target: BandMatrix, noisy: BandMatrix, clamp: bool = True) -> BandMatrix:
    """Per-band target/mixture energy ratios.

    g[l, b] = X[l, b] / Y[l, b], clamped to [0, 1] unless ``clamp`` is
    False (the raw ratio is what makes the rectangular-mode resynthesis
    identity exact). Frames where the mixture energy sits below
    ``ENERGY_FLOOR`` yield 0 when the target is also below the floor
    and 1 otherwise; the result is never NaN.
    """
    if target.values.shape != noisy.values.shape:
        raise ShapeMismatchError(
            f"target {target.values.shape} vs noisy {noisy.values.shape}")
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


def apply_gains(noisy_spectra: FrameSpectra, gains: BandMatrix, fb: Filterbank,
                mode: str = "triangular") -> FrameSpectra:
    """Scale each bin by its band gains, preserving phase.

    Triangular mode interpolates per-bin gains with the filterbank
    weights; rectangular mode gives every bin the gain of the band that
    owns it (peak weight).
    """
    if mode not in APPLY_MODES:
        raise ParameterError(f"unknown mode {mode!r}; expected one of {APPLY_MODES}")
    if gains.n_bands != fb.n_bands:
        raise ShapeMismatchError(f"{gains.n_bands} gain bands vs {fb.n_bands} filter bands")
    if gains.n_frames != noisy_spectra.n_frames:
        raise ShapeMismatchError(
            f"{gains.n_frames} gain frames vs {noisy_spectra.n_frames} spectra frames")
    if noisy_spectra.n_bins != fb.n_bins:
        raise ShapeMismatchError(
            f"{noisy_spectra.n_bins} spectrum bins vs {fb.n_bins} filterbank bins")
    if mode == "triangular":
        per_bin = fb.sparse_weights.T.dot(gains.values.T).T
    else:
        per_bin = gains.values[:, fb.bin_owners()]
    return FrameSpectra(noisy_spectra.frames * per_bin, noisy_spectra.sample_rate,
                        noisy_spectra.fft_size, noisy_spectra.frame_advance_ms,
                        noisy_spectra.window_ms)


# --- serialization -----------------------------------------------------------

def write_band_matrix_csv(matrix: BandMatrix, path, fb: Filterbank | None = None) -> None:
    """CSV with one row per frame, 9 significant digits, centers in the header."""
    if fb is not None and fb.n_bands != matrix.n_bands:
        raise ShapeMismatchError(f"{matrix.n_bands} columns vs {fb.n_bands} band centers")
    centers = fb.band_centers if fb is not None else np.zeros(matrix.n_bands)
    row_format = ",".join(["%.9g"] * matrix.n_bands)
    lines = ["# role=%s band_centers_hz=%s" % (matrix.role, row_format % tuple(centers.tolist()))]
    lines += [row_format % tuple(row) for row in matrix.values.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_band_matrix_csv(path) -> tuple[BandMatrix, np.ndarray]:
    """Read a matrix written by :func:`write_band_matrix_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ParameterError(f"{path}: missing band-matrix header")
    fields = dict(item.split("=", 1) for item in lines[0][1:].split() if "=" in item)
    centers = np.array([float(c) for c in fields["band_centers_hz"].split(",")])
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if values.size == 0:
        values = values.reshape(0, centers.size)
    return BandMatrix(values, fields.get("role", "energy")), centers


def write_band_matrix_raw(matrix: BandMatrix, path, sample_rate: int,
                          frame_advance_ms: float) -> None:
    """Raw little-endian float32 dump plus a key=value layout sidecar."""
    matrix.values.astype("<f4").tofile(path)
    kvtext.save_kv({
        "frames": matrix.n_frames,
        "bands": matrix.n_bands,
        "role": matrix.role,
        "sample_rate": sample_rate,
        "frame_advance_ms": frame_advance_ms,
        "dtype": "float32le",
    }, f"{path}.meta.txt")


def read_band_matrix_raw(path) -> tuple[BandMatrix, dict]:
    """Read a matrix written by :func:`write_band_matrix_raw`."""
    meta = kvtext.load_kv(f"{path}.meta.txt")
    frames, bands = int(meta["frames"]), int(meta["bands"])
    values = np.fromfile(path, dtype="<f4").astype(np.float64).reshape(frames, bands)
    return BandMatrix(values, meta.get("role", "energy")), meta
