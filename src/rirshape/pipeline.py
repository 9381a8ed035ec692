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

import math
import unicodedata
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kvtext
from .acoustics import estimate_rt60
from .bands import (BandMatrix, band_energies, design_erb_filterbank, ideal_gains,
                    write_band_matrix_csv)
from .dsp import DEFAULT_SAMPLE_RATE, Signal, analyze, convolve, mix_at_snr
from .errors import (KvFormatError, ManifestError, ParameterError, RirshapeError,
                     UndefinedDecayError)
from .shaping import (Rir, ShapingParams, Strategy, check_synth_args, read_rir, shape_rir,
                      synth_rir)
from .wavio import read_wav, write_wav

DEFAULT_SNR_RANGE = (-5.0, 45.0)
DEFAULT_P_NOISE_FREE = 0.05
TAIL_SECONDS = 0.5  # reverberant tail kept past the end of the speech
RT60_BIN_WIDTH = 0.2  # seconds per bucket of the summary's RT60 histogram
# summary.csv columns after entry_id, ok and reason: header name -> meta.txt key
SUMMARY_COLUMNS = {"snr_db": "snr_db", "noise_free": "noise_free",
                   "rt60_estimate": "rt60_input_estimate", "strategy": "strategy"}


@dataclass(slots=True)
class ManifestEntry:
    """One training-example recipe; its fields are the ``[entry]`` keys.

    Exactly one of ``rir`` (a file) and ``rir_rt60`` (a room to synthesize)
    must be given. ``snr`` of None means sample it from the global range. A
    missing seed is resolved from the entry's derived random stream.
    """

    speech: str
    noise: str | None = None
    rir: str | None = None
    rir_rt60: float | None = None
    rir_n_early: int | None = None
    rir_length: float | None = None
    snr: float | None = None
    strategy: Strategy = Strategy.ATTENUATED_DECAYED
    t0: float | None = None
    t1: float | None = None
    alpha: float | None = None
    rd: float | None = None
    seed: int | None = None
    id: str | None = None

    def shaping_params(self) -> ShapingParams:
        return ShapingParams(self.strategy, self.t0, self.t1, self.alpha, self.rd)

    def resolved_id(self, index: int) -> str:
        """The id this entry's files and summary lines are named by."""
        return self.id if self.id is not None else f"ex{index:05d}"

    def validate(self) -> None:
        """Raise ManifestError for a bad value; a strategy name becomes its Strategy."""
        try:
            self.strategy = Strategy(self.strategy)
        except ValueError as exc:
            raise ManifestError(str(exc)) from None
        if self.id is not None:
            _check_entry_id(self.id)
        stray = [key for key in ("rir_n_early", "rir_length") if getattr(self, key) is not None]
        if stray and self.rir_rt60 is None:
            raise ManifestError(f"keys {stray} apply only beside rir_rt60=")
        if (self.rir is None) == (self.rir_rt60 is None):
            raise ManifestError("entry needs exactly one of rir=/rir_rt60=")
        if self.rir_rt60 is not None:
            check_synth_args(self.rir_rt60, self.rir_length, self.rir_n_early)
        self.shaping_params()


def _check_entry_id(entry_id: str) -> None:
    """Reject an id that is not a plain file-name stem and summary key.

    The id names the entry's files inside the output directory and its
    ``failure_<id>`` line in ``summary.txt``, so it may hold no path part,
    no ``=`` and nothing that breaks, hides or is stripped from a line.
    """
    if (entry_id in ("", ".", "..") or any(c in "/\\=" for c in entry_id)
            or entry_id.splitlines() != [entry_id] or entry_id != entry_id.strip()
            or any(unicodedata.category(c) == "Cc" for c in entry_id)):
        raise ManifestError(f"unsafe entry id {entry_id!r}: it must be a non-empty file "
                            "name without / \\ =, line breaks, controls or edge whitespace")


@dataclass(slots=True)
class DatasetManifest:
    """Entry list plus the ``[global]`` keys that drive sampled randomness."""

    entries: list[ManifestEntry] = field(default_factory=list)
    seed: int = 0
    snr_min: float = DEFAULT_SNR_RANGE[0]
    snr_max: float = DEFAULT_SNR_RANGE[1]
    p_noise_free: float = DEFAULT_P_NOISE_FREE

    def __post_init__(self):
        if not -math.inf < self.snr_min < self.snr_max < math.inf:
            raise ManifestError(f"need finite snr_min < snr_max, got {self.snr_range}")
        if not 0.0 <= self.p_noise_free <= 1.0:
            raise ManifestError(f"p_noise_free must lie in [0, 1], got {self.p_noise_free}")

    @property
    def snr_range(self) -> tuple[float, float]:
        return (self.snr_min, self.snr_max)

    def validate(self) -> None:
        """Raise ManifestError for a bad global, a bad entry or two entries with one id."""
        self.__post_init__()  # the globals may have been reassigned since construction
        first_index: dict[str, int] = {}
        for i, entry in enumerate(self.entries):
            try:
                entry.validate()
            except RirshapeError as exc:
                raise ManifestError(f"entry {i}: {exc}") from exc
            if entry.snr is not None and not self.snr_min <= entry.snr <= self.snr_max:
                raise ManifestError(
                    f"entry {i}: snr {entry.snr} outside range {self.snr_range}")
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
    """A generated training pair plus its gain matrix and provenance."""

    input: Signal
    target: Signal
    gains: BandMatrix
    metadata: dict


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

    gains = pair_gains(mixture, target)

    try:
        rt60_input = estimate_rt60(h0)
    except UndefinedDecayError:
        rt60_input = None

    metadata = {
        "seed": seed,
        "snr_db": None if noise is None else snr_db,
        "noise_free": noise is None,
        "noise_gain": noise_gain,
        **params.as_dict(),
        "rt60_input_estimate": rt60_input,
        "rt60_target_predicted": params.predicted_rt60(rt60_input),
        "n_frames": gains.n_frames,
        "sample_rate": speech.sample_rate,
    }
    return Example(mixture, target, gains, metadata)


def pair_gains(input: Signal, target: Signal) -> BandMatrix:
    """Ideal band gains that turn ``input``'s band energies into ``target``'s.

    The gains are computed with ``design_erb_filterbank`` at the input's
    sample rate. The two signals must be equally long. Both are analyzed
    in one ``analyze`` call; a signal passed as both input and target, as
    in a noise-free strategy-``none`` example, is analyzed once.
    """
    if len(input) != len(target):
        raise ParameterError("input and target must be equally long")
    spectra = analyze([input] if target is input else [input, target])
    fb = design_erb_filterbank(input.sample_rate)
    energies = [band_energies(s, fb) for s in spectra]
    return ideal_gains(energies[-1], energies[0])


# --- manifest text format ----------------------------------------------------
#
# Block records: a [global] block, then one [entry] block per example. Each
# table below lists a block's keys, which are the fields of DatasetManifest
# and ManifestEntry in order, with the parser of each value; any other key
# is an error.

GLOBAL_KEYS = {"seed": int, "snr_min": float, "snr_max": float, "p_noise_free": float}
ENTRY_KEYS = {"speech": str, "noise": str, "rir": str, "rir_rt60": float,
              "rir_n_early": int, "rir_length": float,
              "snr": lambda raw: None if raw == "sample" else float(raw),
              "strategy": Strategy, "t0": float, "t1": float, "alpha": float, "rd": float,
              "seed": int, "id": str}


def _parse_values(record: dict, keys: dict, where: str) -> dict:
    """Each value of ``record`` parsed by its key's parser; an unknown key is an error."""
    values = {}
    for key, raw in record.items():
        if key not in keys:
            raise ManifestError(f"{where}: unknown key {key!r}")
        try:
            values[key] = keys[key](raw)
        except ValueError as exc:
            raise ManifestError(f"{where}: bad {key}= value: {exc}") from None
    return values


def parse_manifest(text: str) -> DatasetManifest:
    try:
        (_, loose), *sections = kvtext.parse_sections(text)
    except KvFormatError as exc:
        raise ManifestError(str(exc)) from exc
    if loose:
        raise ManifestError(f"key {next(iter(loose))!r} outside any section")

    globals_ = {}
    entries: list[ManifestEntry] = []
    for name, record in sections:
        name = name.lower()
        if name == "global":
            globals_.update(_parse_values(record, GLOBAL_KEYS, "global"))
        elif name == "entry":
            entries.append(_parse_entry(record, f"entry {len(entries)}"))
        else:
            raise ManifestError(f"unknown manifest section [{name}]")
    manifest = DatasetManifest(entries, **globals_)
    manifest.validate()
    return manifest


def _parse_entry(record: dict, where: str) -> ManifestEntry:
    values = _parse_values(record, ENTRY_KEYS, where)
    if "speech" not in values:
        raise ManifestError(f"{where}: missing speech=")
    return ManifestEntry(**values)


def format_manifest(manifest: DatasetManifest) -> str:
    """Render a manifest back to its text form (round-trips with parse)."""
    blocks = [("global", {key: getattr(manifest, key) for key in GLOBAL_KEYS})]
    for entry in manifest.entries:
        record = {key: getattr(entry, key) for key in ENTRY_KEYS}
        record.update(snr="sample" if entry.snr is None else entry.snr,
                      strategy=Strategy(entry.strategy).value)
        blocks.append(("entry", record))
    return "\n".join(
        f"[{name}]\n" + kvtext.dump_kv({key: value for key, value in record.items()
                                         if value is not None})
        for name, record in blocks)


def load_manifest(path) -> DatasetManifest:
    try:
        return parse_manifest(kvtext.read_text(path))
    except KvFormatError as exc:  # parse_manifest raises ManifestError, so not UTF-8
        raise ManifestError(str(exc)) from exc


# --- dataset build -----------------------------------------------------------

@dataclass
class EntryResult:
    """An entry's outcome and ``record``, the dict it wrote as ``<id>.meta.txt``.

    A failed entry writes no files, and its record holds only its ``strategy``.
    """

    entry_id: str
    ok: bool
    reason: str | None = None
    record: dict = field(default_factory=dict)


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

    def rt60_histogram(self) -> dict[str, int]:
        """Counts of estimated input-room RT60 per ``RT60_BIN_WIDTH``-second bucket."""
        histogram: dict[str, int] = {}
        for result in self.results:
            rt60 = result.record.get(SUMMARY_COLUMNS["rt60_estimate"])
            if rt60 is None:
                continue
            lo = math.floor(rt60 / RT60_BIN_WIDTH) * RT60_BIN_WIDTH
            label = f"{lo:.1f}-{lo + RT60_BIN_WIDTH:.1f}"
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
        rows = [[r.entry_id, r.ok, r.reason or "", *map(r.record.get, SUMMARY_COLUMNS.values())]
                for r in self.results]
        return kvtext.csv_text([["entry_id", "ok", "reason", *SUMMARY_COLUMNS], *rows])


def _process_entry(task) -> EntryResult:
    index, entry, global_seed, snr_range, p_noise_free, out_dir = task
    draws = sample_entry_randomness(global_seed, index, snr_range=snr_range,
                                    p_noise_free=p_noise_free)
    entry_id = entry.resolved_id(index)
    resolved_seed = entry.seed if entry.seed is not None else draws.rir_seed
    try:
        speech = read_wav(entry.speech)
        params = entry.shaping_params()
        if entry.rir is not None:
            h0 = read_rir(entry.rir)
        else:
            h0 = synth_rir(entry.rir_rt60, length=entry.rir_length, n_early=entry.rir_n_early,
                           seed=resolved_seed, sample_rate=speech.sample_rate)

        # the sampled noise-free flag only applies to entries whose SNR is
        # itself sampled; an explicit snr= pins the mix
        noise_free = entry.noise is None or (entry.snr is None and draws.noise_free)
        noise = None if noise_free else read_wav(entry.noise)
        snr_db = None if noise_free else (
            entry.snr if entry.snr is not None else draws.snr_db)

        example = generate_example(speech, noise, h0, params, snr_db, resolved_seed)

        out = Path(out_dir)
        write_wav(example.input, out / f"{entry_id}.input.wav")
        write_wav(example.target, out / f"{entry_id}.target.wav")
        write_band_matrix_csv(example.gains, out / f"{entry_id}.gains.csv",
                              example.input.sample_rate)
        record = {"entry_id": entry_id, "speech": entry.speech, "noise": entry.noise,
                  "rir": entry.rir or f"synth(rt60={entry.rir_rt60})",
                  **example.metadata}
        kvtext.save_kv(record, out / f"{entry_id}.meta.txt")
        return EntryResult(entry_id, True, record=record)
    except (RirshapeError, OSError) as exc:  # bad data fails its entry; a bug propagates
        return EntryResult(entry_id, False, f"{type(exc).__name__}: {exc}",
                           record={"strategy": entry.strategy.value})


def build_dataset(manifest: DatasetManifest, out_dir, workers: int = 1) -> DatasetSummary:
    """Generate every manifest entry into ``out_dir``.

    Writes ``<id>.input.wav``, ``<id>.target.wav``, ``<id>.gains.csv``
    and ``<id>.meta.txt`` per entry, plus ``summary.txt`` and
    ``summary.csv``. An entry whose inputs cannot be read or used
    (``RirshapeError``, ``OSError``) is recorded in the summary as failed;
    any other exception is a bug and propagates, with no summary written.
    A bad entry or a repeated id is a ManifestError, and a ``workers``
    count below 1 a ParameterError, raised before anything is written.
    With ``workers`` > 1 entries are processed in parallel, by at most one
    forked process per entry, each started from the parent's trimmed heap
    (see ``rirshape.dsp``); outputs are byte-identical regardless of
    worker count.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    manifest.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(i, entry, manifest.seed, manifest.snr_range, manifest.p_noise_free,
              str(out)) for i, entry in enumerate(manifest.entries)]
    if workers > 1 and len(tasks) > 1:
        # all workers start at once, so never more of them than entries
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_process_entry, tasks))
    else:
        results = [_process_entry(task) for task in tasks]
    summary = DatasetSummary(results)
    (out / "summary.txt").write_text(summary.to_kv(), encoding="utf-8")
    (out / "summary.csv").write_text(summary.to_csv(), encoding="utf-8")
    return summary
