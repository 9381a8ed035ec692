"""Manifest-driven generation of noisy-reverberant training examples.

Each example pairs an input (speech convolved with a room impulse
response, plus scaled noise) with a target (the same speech convolved
with the shaped response) and the per-frame, per-band gain matrix that
turns the input's band energies into the target's. Generation is fully
deterministic: every entry draws its randomness from a counter-based
stream keyed by (global seed, entry index), so outputs are byte-stable
under any worker count or scheduling order.
"""

from __future__ import annotations

import csv
import io
import math
import unicodedata
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kvtext
from .acoustics import estimate_rt60
from .bands import (BandMatrix, Filterbank, band_energies, design_erb_filterbank,
                    ideal_gains, write_band_matrix_csv)
from .dsp import DEFAULT_SAMPLE_RATE, Signal, analyze, convolve, mix_at_snr
from .errors import (KvFormatError, ManifestError, ParameterError, RirshapeError,
                     SampleRateMismatchError, UndefinedDecayError)
from .shaping import (DEFAULT_N_EARLY, Rir, ShapingParams, Strategy, check_synth_args,
                      read_rir, shape_rir, synth_rir)
from .wavio import read_wav, write_wav

DEFAULT_SNR_RANGE = (-5.0, 45.0)
DEFAULT_P_NOISE_FREE = 0.05
TAIL_SECONDS = 0.5  # reverberant tail kept past the end of the speech


@dataclass
class RirSynthSpec:
    """Parameters for synthesizing an entry's impulse response on the fly."""

    rt60: float
    n_early: int = DEFAULT_N_EARLY
    length: float | None = None


@dataclass
class ManifestEntry:
    """One training-example recipe.

    ``snr_db`` of None means sample it from the global range. Exactly
    one of ``rir_path`` / ``rir_synth`` must be given. A missing seed is
    resolved from the entry's derived random stream.
    """

    speech: str
    noise: str | None = None
    rir_path: str | None = None
    rir_synth: RirSynthSpec | None = None
    snr_db: float | None = None
    strategy: Strategy = Strategy.ATTENUATED_DECAYED
    t0: float | None = None
    t1: float | None = None
    alpha: float | None = None
    rd: float | None = None
    seed: int | None = None
    entry_id: str | None = None

    def shaping_params(self) -> ShapingParams:
        return ShapingParams(self.strategy, self.t0, self.t1, self.alpha, self.rd)

    def resolved_id(self, index: int) -> str:
        """The id this entry's files and summary lines are named by."""
        return self.entry_id if self.entry_id is not None else f"ex{index:05d}"

    def validate(self) -> None:
        if self.entry_id is not None:
            _check_entry_id(self.entry_id)
        if (self.rir_path is None) == (self.rir_synth is None):
            raise ManifestError("entry needs exactly one of rir=/rir_rt60=")
        if self.rir_synth is not None:
            spec = self.rir_synth
            check_synth_args(spec.rt60, spec.length, spec.n_early)
        self.shaping_params()


def _check_entry_id(entry_id: str) -> None:
    """Reject an id that is not a plain file-name stem and summary key.

    The id names the entry's files inside the output directory and its
    ``failure_<id>`` line in ``summary.txt``, so it may hold no path
    part, no ``=`` and nothing that breaks or hides a line.
    """
    if (entry_id in ("", ".", "..") or any(c in "/\\=" for c in entry_id)
            or entry_id.splitlines() != [entry_id]
            or any(unicodedata.category(c) == "Cc" for c in entry_id)):
        raise ManifestError(f"unsafe entry id {entry_id!r}: it must be a non-empty "
                            "file name without / \\ =, line breaks or control characters")


@dataclass
class DatasetManifest:
    """Entry list plus the globals that drive sampled randomness."""

    entries: list[ManifestEntry] = field(default_factory=list)
    seed: int = 0
    snr_range: tuple[float, float] = DEFAULT_SNR_RANGE
    p_noise_free: float = DEFAULT_P_NOISE_FREE

    def __post_init__(self):
        lo, hi = self.snr_range
        if not lo < hi:
            raise ManifestError(f"snr_range must be increasing, got {self.snr_range}")
        if not 0.0 <= self.p_noise_free <= 1.0:
            raise ManifestError(f"p_noise_free must lie in [0, 1], got {self.p_noise_free}")

    def validate(self) -> None:
        """Raise ManifestError for a bad entry or two entries with one resolved id."""
        lo, hi = self.snr_range
        first_index: dict[str, int] = {}
        for i, entry in enumerate(self.entries):
            try:
                entry.validate()
            except RirshapeError as exc:
                raise ManifestError(f"entry {i}: {exc}") from exc
            if entry.snr_db is not None and not lo <= entry.snr_db <= hi:
                raise ManifestError(
                    f"entry {i}: snr {entry.snr_db} outside range {self.snr_range}")
            entry_id = entry.resolved_id(i)
            if entry_id in first_index:
                raise ManifestError(
                    f"entries {first_index[entry_id]} and {i} share the id {entry_id!r}")
            first_index[entry_id] = i


@dataclass(frozen=True)
class EntryDraws:
    """Deterministic per-entry randomness."""

    snr_db: float
    noise_free: bool
    rir_seed: int


def sample_entry_randomness(global_seed: int, entry_index: int,
                            snr_range: tuple[float, float] = DEFAULT_SNR_RANGE,
                            p_noise_free: float = DEFAULT_P_NOISE_FREE) -> EntryDraws:
    """Draw an entry's randomness from its own counter-based stream.

    The stream is a Philox generator keyed by (global_seed,
    entry_index), so any entry's draws can be reproduced in isolation
    and parallel generation cannot reorder them. Draw order: noise-free
    flag, SNR (uniform over ``snr_range``), impulse-response seed.
    """
    key = np.array([global_seed & 0xFFFFFFFFFFFFFFFF,
                    entry_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    noise_free = bool(rng.random() < p_noise_free)
    snr_db = float(rng.uniform(snr_range[0], snr_range[1]))
    rir_seed = int(rng.integers(0, 2 ** 63))
    return EntryDraws(snr_db, noise_free, rir_seed)


@dataclass
class Example:
    """A generated training pair plus its gain matrix and provenance.

    ``filterbank`` is the one the gains were computed with.
    """

    input: Signal
    target: Signal
    gains: BandMatrix
    metadata: dict
    filterbank: Filterbank


def generate_example(speech: Signal, noise: Signal | None, h0: Rir,
                     params: ShapingParams, snr_db: float | None, seed: int) -> Example:
    """Build one (input, target, gains) triple.

    The input is speech convolved with ``h0`` plus noise scaled to
    ``snr_db``; the target is the same speech convolved with the shaped
    response. Both come from one transform of the speech (one
    ``convolve`` call over both responses; strategy ``none`` renders a
    single product and uses it as both) and are truncated
    identically to the speech length plus ``TAIL_SECONDS``, so they
    stay sample-aligned. Passing no noise makes a noise-free example
    (``snr_db`` is ignored). The only randomness is the noise crop
    offset, drawn from ``seed``, so the result is fully deterministic.
    """
    if speech.sample_rate != DEFAULT_SAMPLE_RATE:
        raise ParameterError(
            f"speech must be {DEFAULT_SAMPLE_RATE} Hz, got {speech.sample_rate}")
    if speech.sample_rate != h0.sample_rate:
        raise SampleRateMismatchError(
            f"speech at {speech.sample_rate} Hz vs impulse response at {h0.sample_rate} Hz")
    if noise is not None:
        if snr_db is None:
            raise ParameterError("a noisy example needs snr_db")
        if not math.isfinite(snr_db):
            raise ParameterError(f"snr_db must be finite, got {snr_db}")

    # strategy none shapes h0 into a bit-identical copy, so one product serves both
    responses = [h0] if params.strategy is Strategy.NONE else [h0, shape_rir(h0, params)]
    out_len = len(speech) + int(round(TAIL_SECONDS * speech.sample_rate))
    products = convolve(speech, responses, length=out_len)
    reverberant, target = products[0], products[-1]

    if noise is not None:
        offset = int(np.random.default_rng(seed).integers(0, 2 ** 31))
        mixture, noise_gain = mix_at_snr(reverberant, noise, snr_db, noise_offset=offset)
    else:
        mixture, noise_gain = reverberant, 0.0

    input_spectra = analyze(mixture)
    target_spectra = analyze(target)
    fb = design_erb_filterbank(input_spectra.fft_size, speech.sample_rate)
    gains = ideal_gains(band_energies(target_spectra, fb),
                        band_energies(input_spectra, fb))

    try:
        rt60_input = estimate_rt60(h0)
    except UndefinedDecayError:
        rt60_input = None

    metadata = {
        "seed": seed,
        "snr_db": None if noise is None else snr_db,
        "noise_free": noise is None,
        "noise_gain": noise_gain,
        "strategy": params.strategy.value,
        "t0": params.t0,
        "t1": params.t1,
        "alpha": params.alpha,
        "rd": params.rd,
        "rt60_input_estimate": rt60_input,
        "rt60_target_predicted": params.predicted_rt60(rt60_input),
        "n_frames": gains.n_frames,
        "sample_rate": speech.sample_rate,
    }
    return Example(mixture, target, gains, metadata, fb)


# --- manifest text format ----------------------------------------------------
#
# Block records:  a [global] block with seed=/snr_min=/snr_max=/p_noise_free=,
# then one [entry] block per example with speech=, noise=, rir= or rir_rt60=
# (+ rir_n_early=, rir_length=), snr= (number or "sample"), strategy=,
# t0=/t1=/alpha=/rd= overrides, seed=, id=.

def parse_manifest(text: str) -> DatasetManifest:
    try:
        (_, loose), *sections = kvtext.parse_sections(text)
    except KvFormatError as exc:
        raise ManifestError(str(exc)) from exc
    if loose:
        raise ManifestError(f"key {next(iter(loose))!r} outside any section")

    seed = 0
    snr_range = DEFAULT_SNR_RANGE
    p_noise_free = DEFAULT_P_NOISE_FREE
    entries: list[ManifestEntry] = []
    for name, record in sections:
        name = name.lower()
        if name not in ("global", "entry"):
            raise ManifestError(f"unknown manifest section [{name}]")
        if name == "global":
            try:
                seed = int(record.get("seed", seed))
                snr_range = (float(record.get("snr_min", snr_range[0])),
                             float(record.get("snr_max", snr_range[1])))
                p_noise_free = float(record.get("p_noise_free", p_noise_free))
            except ValueError as exc:
                raise ManifestError(f"bad global value: {exc}") from exc
        else:
            entries.append(_parse_entry(record))
    manifest = DatasetManifest(entries, seed, snr_range, p_noise_free)
    manifest.validate()
    return manifest


def _parse_entry(record: dict) -> ManifestEntry:
    if "speech" not in record:
        raise ManifestError("entry is missing speech=")
    try:
        snr_raw = record.get("snr", "sample")
        snr_db = None if snr_raw == "sample" else float(snr_raw)
        rir_synth = None
        if "rir_rt60" in record:
            rir_synth = RirSynthSpec(
                rt60=float(record["rir_rt60"]),
                n_early=int(record.get("rir_n_early", DEFAULT_N_EARLY)),
                length=float(record["rir_length"]) if "rir_length" in record else None)
        return ManifestEntry(
            speech=record["speech"],
            noise=record.get("noise"),
            rir_path=record.get("rir"),
            rir_synth=rir_synth,
            snr_db=snr_db,
            strategy=Strategy(record.get("strategy", Strategy.ATTENUATED_DECAYED.value)),
            t0=float(record["t0"]) if "t0" in record else None,
            t1=float(record["t1"]) if "t1" in record else None,
            alpha=float(record["alpha"]) if "alpha" in record else None,
            rd=float(record["rd"]) if "rd" in record else None,
            seed=int(record["seed"]) if "seed" in record else None,
            entry_id=record.get("id"),
        )
    except ValueError as exc:
        raise ManifestError(f"bad entry value: {exc}") from exc


def format_manifest(manifest: DatasetManifest) -> str:
    """Render a manifest back to its text form (round-trips with parse)."""
    lo, hi = manifest.snr_range
    blocks = [("global", {"seed": manifest.seed, "snr_min": lo, "snr_max": hi,
                          "p_noise_free": manifest.p_noise_free})]
    for entry in manifest.entries:
        record = {"speech": entry.speech, "noise": entry.noise, "rir": entry.rir_path}
        if entry.rir_synth:
            spec = entry.rir_synth
            record.update(rir_rt60=spec.rt60, rir_n_early=spec.n_early,
                          rir_length=spec.length)
        record.update(snr="sample" if entry.snr_db is None else entry.snr_db,
                      strategy=entry.strategy.value, t0=entry.t0, t1=entry.t1,
                      alpha=entry.alpha, rd=entry.rd, seed=entry.seed, id=entry.entry_id)
        blocks.append(("entry", {k: v for k, v in record.items() if v is not None}))
    return "\n".join(f"[{name}]\n{kvtext.dump_kv(record)}" for name, record in blocks)


def load_manifest(path) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())


# --- dataset build -----------------------------------------------------------

@dataclass
class EntryResult:
    entry_id: str
    ok: bool
    reason: str | None = None
    snr_db: float | None = None
    noise_free: bool | None = None
    rt60_estimate: float | None = None
    strategy: str | None = None


@dataclass
class DatasetSummary:
    """Per-entry outcomes plus aggregate counts."""

    results: list[EntryResult]

    @property
    def n_ok(self) -> int:
        return sum(r.ok for r in self.results)

    @property
    def n_failed(self) -> int:
        return len(self.results) - self.n_ok

    def failures(self) -> list[EntryResult]:
        return [r for r in self.results if not r.ok]

    def rt60_histogram(self, bin_width: float = 0.2) -> dict[str, int]:
        """Counts of estimated input-room RT60 per ``bin_width``-second bucket."""
        histogram: dict[str, int] = {}
        for result in self.results:
            if result.rt60_estimate is None:
                continue
            lo = math.floor(result.rt60_estimate / bin_width) * bin_width
            label = f"{lo:.1f}-{lo + bin_width:.1f}"
            histogram[label] = histogram.get(label, 0) + 1
        return dict(sorted(histogram.items()))

    def to_kv(self) -> str:
        record = {"entries": len(self.results), "ok": self.n_ok,
                  "failed": self.n_failed}
        for label, count in self.rt60_histogram().items():
            record[f"rt60_hist_{label}"] = count
        for failure in self.failures():
            record[f"failure_{failure.entry_id}"] = failure.reason
        return kvtext.dump_kv(record)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("entry_id", "ok", "reason", "snr_db", "noise_free",
                         "rt60_estimate", "strategy"))
        for r in self.results:
            writer.writerow([kvtext.kv_str(v) for v in (
                r.entry_id, r.ok, r.reason or "", r.snr_db, r.noise_free,
                r.rt60_estimate, r.strategy)])
        return out.getvalue()


def _process_entry(task) -> EntryResult:
    index, entry, global_seed, snr_range, p_noise_free, out_dir = task
    draws = sample_entry_randomness(global_seed, index, snr_range=snr_range,
                                    p_noise_free=p_noise_free)
    entry_id = entry.resolved_id(index)
    resolved_seed = entry.seed if entry.seed is not None else draws.rir_seed
    try:
        speech = read_wav(entry.speech)
        params = entry.shaping_params()
        if entry.rir_path is not None:
            h0 = read_rir(entry.rir_path)
        else:
            recipe = entry.rir_synth
            h0 = synth_rir(recipe.rt60, length=recipe.length, n_early=recipe.n_early,
                           seed=resolved_seed, sample_rate=speech.sample_rate)

        # the sampled noise-free flag only applies to entries whose SNR is
        # itself sampled; an explicit snr= pins the mix
        noise_free = entry.noise is None or (entry.snr_db is None and draws.noise_free)
        noise = None if noise_free else read_wav(entry.noise)
        snr_db = None if noise_free else (
            entry.snr_db if entry.snr_db is not None else draws.snr_db)

        example = generate_example(speech, noise, h0, params, snr_db, resolved_seed)

        out = Path(out_dir)
        write_wav(example.input, out / f"{entry_id}.input.wav")
        write_wav(example.target, out / f"{entry_id}.target.wav")
        write_band_matrix_csv(example.gains, out / f"{entry_id}.gains.csv",
                              example.filterbank)
        metadata = {"entry_id": entry_id, "speech": entry.speech,
                    "noise": entry.noise,
                    "rir": entry.rir_path or f"synth(rt60={entry.rir_synth.rt60})"}
        metadata.update(example.metadata)
        kvtext.save_kv(metadata, out / f"{entry_id}.meta.txt")

        return EntryResult(entry_id, True, None,
                           snr_db=example.metadata["snr_db"],
                           noise_free=example.metadata["noise_free"],
                           rt60_estimate=example.metadata["rt60_input_estimate"],
                           strategy=params.strategy.value)
    except Exception as exc:  # entry isolation: record, never abort the batch
        return EntryResult(entry_id, False, f"{type(exc).__name__}: {exc}",
                           strategy=entry.strategy.value)


def build_dataset(manifest: DatasetManifest, out_dir, workers: int = 1) -> DatasetSummary:
    """Generate every manifest entry into ``out_dir``.

    Writes ``<id>.input.wav``, ``<id>.target.wav``, ``<id>.gains.csv``
    and ``<id>.meta.txt`` per entry, plus ``summary.txt`` and
    ``summary.csv``. Entry failures are recorded in the summary, not
    raised. A bad entry or a repeated id is a ManifestError raised
    before anything is written. With ``workers`` > 1 entries are
    processed in parallel; outputs are byte-identical regardless of
    worker count.
    """
    manifest.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(i, entry, manifest.seed, manifest.snr_range, manifest.p_noise_free,
              str(out)) for i, entry in enumerate(manifest.entries)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_process_entry, tasks))
    else:
        results = [_process_entry(task) for task in tasks]
    summary = DatasetSummary(results)
    (out / "summary.txt").write_text(summary.to_kv(), encoding="utf-8")
    (out / "summary.csv").write_text(summary.to_csv(), encoding="utf-8")
    return summary
