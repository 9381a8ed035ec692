"""Exception types shared across the library."""


class RirshapeError(Exception):
    """Base class for every error this package raises deliberately."""


class ParameterError(RirshapeError, ValueError):
    """A parameter lies outside its documented domain."""


class SampleRateMismatchError(RirshapeError, ValueError):
    """Two operands carry different sample rates."""


class DegenerateEnergyError(RirshapeError, ValueError):
    """An operand has zero energy where nonzero energy is required."""


class TooShortError(RirshapeError, ValueError):
    """A signal is shorter than the minimum the operation supports."""


class MalformedSpectraError(RirshapeError, ValueError):
    """Frame spectra are inconsistent with their declared layout."""


class ShapeMismatchError(RirshapeError, ValueError):
    """Array dimensions of two operands do not line up."""


class UndefinedDecayError(RirshapeError, ValueError):
    """An impulse response has no measurable energy decay."""


class WavFormatError(RirshapeError, ValueError):
    """A WAV file is outside the subset of the format this package supports."""


class ManifestError(RirshapeError, ValueError):
    """A dataset manifest is malformed or self-contradictory."""


class KvFormatError(RirshapeError, ValueError):
    """A key=value text holds a line that is neither a pair nor a header."""
