"""Exception hierarchy shared across the library: two families under ``CircleRespError``.

* ``ConfigError``, exit status 2 in the CLI: a config file or option that
  cannot be parsed or holds a refused value.  Only :mod:`circleresp.config`
  and :mod:`circleresp.cli` make one; a routine below them rejects a bad
  argument with ``ValueError``, which the CLI places at its key's line.
* ``NumericsError`` and its subclasses, exit status 3: a numerical
  assumption that failed at run time (missing contraction, singular
  linearization, missing spectral gap, ...).
"""


class CircleRespError(Exception):
    """Base class for all library errors."""


class ConfigError(CircleRespError):
    """Configuration file cannot be parsed or validated."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class NumericsError(CircleRespError):
    """A numerical assumption failed at run time."""


class NonContractionError(NumericsError):
    """Picard iteration shows no contraction over many consecutive windows."""


class MaxIterExceededError(NumericsError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class SingularSystemError(NumericsError):
    """Id - Q is numerically singular; the derivative formula does not apply."""


class BranchNewtonError(NumericsError):
    """Newton iteration for an inverse branch failed to converge."""


class NoSpectralGapError(NumericsError):
    """Subdominant spectral ratio too close to one."""


class NonPositiveEigenfunctionError(NumericsError):
    """Leading eigenvector changes sign; operator is outside the positive regime."""


class NormalizationVanishesError(NumericsError):
    """The normalizing pairing of the renormalized map is numerically zero."""


class NotExpandingError(NumericsError):
    """|dT/dx| <= 1 somewhere on the verification grid."""

    def __init__(self, message, u=None, x=None):
        super().__init__(message)
        self.u = u
        self.x = x


class ConsistencyError(NumericsError):
    """Two independent computation routes disagree beyond tolerance."""


class DegenerateFitError(NumericsError):
    """Regression data does not determine a slope."""
