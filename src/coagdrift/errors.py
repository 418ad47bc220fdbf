"""Exception hierarchy shared by all solver modules."""

from __future__ import annotations


class CoagDriftError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(CoagDriftError, ValueError):
    """A model or numerical parameter lies outside its admissible domain."""


class ThresholdExceededError(ParameterDomainError):
    """m0 exceeds the admissible threshold below which a constant barrier
    exists; the message names m0, the threshold and v."""


class ProfileFormatError(CoagDriftError, ValueError):
    """A profile file is malformed or internally inconsistent."""


class DivergentMomentError(CoagDriftError, ValueError):
    """Requested moment diverges under the stored algebraic tail model."""


class ConvergenceError(CoagDriftError, RuntimeError):
    """An iteration stopped short of its tolerance.  ``best`` and ``report``
    (optional) hold the last iterate and the solve's report for callers."""

    def __init__(self, message: str, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


class NumericalConsistencyError(CoagDriftError, RuntimeError):
    """A structural property (e.g. monotone decrease) was violated beyond
    rounding slack, signalling a quadrature too coarse for the run."""


class SchemeFailureError(CoagDriftError, RuntimeError):
    """The explicit time stepper produced an invalid state.  ``simulate``
    fills in ``state``, the last good state, and the ``diagnostics`` and
    ``snapshots`` recorded up to it."""

    def __init__(self, message: str, state=None, diagnostics=(), snapshots=None):
        super().__init__(message)
        self.state = state
        self.diagnostics = list(diagnostics)
        self.snapshots = snapshots or {}


class StepSizeError(SchemeFailureError):
    """Requested time step violates the stability bounds."""
