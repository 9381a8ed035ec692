"""Exception types shared across the library.

A class exists only where code catches it or README names it; any other
refusal is a ParameterError whose message says what was refused.
"""


class RirshapeError(Exception):
    """Base class for every error this package raises deliberately."""


class ParameterError(RirshapeError, ValueError):
    """A value the package refuses: an argument, or file or text content, it cannot use."""


class ManifestError(RirshapeError, ValueError):
    """A dataset manifest is malformed or self-contradictory."""


class UndefinedDecayError(RirshapeError, ValueError):
    """An impulse response has no measurable energy decay."""
