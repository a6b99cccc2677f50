"""Exception types shared across the package; the CLI's exit code for each comes from its base."""


class FilmoptError(Exception):
    """Base class for all package errors."""


class UsageError(FilmoptError):
    """Bad input, configuration or design: the caller's to fix (exit code 1)."""


class InstanceError(FilmoptError):
    """A well-formed instance this run cannot solve or decode (exit code 2)."""


class NonDielectricIndex(FilmoptError):
    """Coating layer matrix requested for an index with nonzero extinction."""


class NonPositiveWavelength(FilmoptError):
    """Wavelength must be strictly positive."""


class DegenerateDenominator(FilmoptError):
    """Reflectance denominator fell below the safe threshold."""


class MismatchedSpectrumLength(FilmoptError):
    """Per-wavelength inputs do not line up with the spectrum."""


class ParseError(UsageError):
    """Malformed input file."""


class ValidationError(UsageError):
    """Input parsed but violates a structural invariant."""


class OutOfRange(UsageError):
    """Wavelength outside the tabulated dispersion range."""


class MissingDispersion(UsageError):
    """A referenced material has no dispersion table."""


class SpectrumCoverage(UsageError):
    """A dispersion table does not cover the requested wavelengths."""


class ConfigError(UsageError):
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


class InfeasibleAssignment(InstanceError):
    """Imported solution does not select exactly one choice per layer."""


class InadmissibleDesign(UsageError):
    """Design uses a (material, thickness) pair not offered at that layer."""


class InstanceTooLarge(InstanceError):
    """A search without a node budget faces more designs than ``solver.LEAF_CAP``."""


class InternalError(FilmoptError):
    """An internal invariant failed: a bug in filmopt, not bad input (exit code 3)."""
