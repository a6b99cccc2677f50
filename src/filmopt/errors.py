"""Exception types shared across the package."""


class FilmoptError(Exception):
    """Base class for all package errors."""


class NonDielectricIndex(FilmoptError):
    """Coating layer matrix requested for an index with nonzero extinction."""


class NonPositiveWavelength(FilmoptError):
    """Wavelength must be strictly positive."""


class DegenerateDenominator(FilmoptError):
    """Reflectance denominator fell below the safe threshold."""


class MismatchedSpectrumLength(FilmoptError):
    """Per-wavelength inputs do not line up with the spectrum."""


class ParseError(FilmoptError):
    """Malformed input file."""


class ValidationError(FilmoptError):
    """Input parsed but violates a structural invariant."""


class OutOfRange(FilmoptError):
    """Wavelength outside the tabulated dispersion range."""


class MissingDispersion(FilmoptError):
    """A referenced material has no dispersion table."""


class SpectrumCoverage(FilmoptError):
    """A dispersion table does not cover the requested wavelengths."""


class ConfigError(FilmoptError):
    """Bad catalog or run configuration."""


class EmptyCandidateSet(FilmoptError):
    """No extreme-point candidates could be collected (inconsistent bounds)."""


class SingularSystem(FilmoptError):
    """Interpolation system is rank-deficient; skip this point subset."""


class NoValidHyperplane(FilmoptError):
    """No fitted hyperplane dominates the quadratic on the candidate set."""


class InconsistentBounds(FilmoptError):
    """Entrywise lower bound exceeds the upper bound."""


class MissingHyperplanes(FilmoptError):
    """A wavelength has no overapproximators to build the relaxation with."""


class InfeasibleAssignment(FilmoptError):
    """Imported solution does not select exactly one choice per layer."""


class InadmissibleDesign(FilmoptError):
    """Design uses a (material, thickness) pair not offered at that layer."""


class InstanceTooLarge(FilmoptError):
    """Enumeration size exceeds the configured cap."""


class InternalError(FilmoptError):
    """An internal invariant failed: a bug in filmopt, not bad input (exit code 3)."""
