"""Room-impulse-response shaping and dereverberation training-data synthesis."""

from .acoustics import (DecayCurve, ShapingReport, drr, energy_decay_curve,
                        estimate_rt60, verify_shaping)
from .bands import (BandMatrix, Filterbank, apply_gains, band_energies,
                    design_erb_filterbank, ideal_gains)
from .dsp import (FrameSpectra, Signal, analyze, convolve, mix_at_snr,
                  power_complementary_window, synthesize)
from .errors import (DegenerateEnergyError, KvFormatError, MalformedSpectraError,
                     ManifestError, ParameterError, RirshapeError,
                     SampleRateMismatchError, ShapeMismatchError, TooShortError,
                     UndefinedDecayError, WavFormatError)
from .pipeline import (DatasetManifest, Example, ManifestEntry, RirSynthSpec,
                       build_dataset, generate_example, load_manifest,
                       parse_manifest, sample_entry_randomness)
from .shaping import (Rir, ShapingParams, Strategy, attenuation_function,
                      decay_function, dirac_rir, predicted_target_distance,
                      predicted_target_rt60, read_rir, shape_rir, synth_rir,
                      write_rir)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "BandMatrix", "DatasetManifest", "DecayCurve", "DegenerateEnergyError",
    "Example", "Filterbank", "FrameSpectra", "KvFormatError", "MalformedSpectraError",
    "ManifestEntry", "ManifestError", "ParameterError", "Rir", "RirshapeError",
    "RirSynthSpec", "SampleRateMismatchError", "ShapeMismatchError",
    "ShapingParams", "ShapingReport", "Signal", "Strategy", "TooShortError",
    "UndefinedDecayError", "WavFormatError", "analyze", "apply_gains",
    "attenuation_function", "band_energies", "build_dataset", "convolve",
    "decay_function", "design_erb_filterbank", "dirac_rir", "drr",
    "energy_decay_curve", "estimate_rt60", "generate_example", "ideal_gains",
    "load_manifest", "mix_at_snr", "parse_manifest",
    "power_complementary_window", "predicted_target_distance",
    "predicted_target_rt60", "read_rir", "read_wav", "sample_entry_randomness",
    "shape_rir", "synth_rir", "synthesize", "verify_shaping", "write_rir",
    "write_wav",
]
