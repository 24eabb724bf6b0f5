"""Exception hierarchy for the wavestring package.

Every failure mode raised by library code derives from WavestringError so
callers can catch one base class. The CLI maps these onto its exit codes
(config -> 1, assumption -> 2, numerical -> 3).
"""


class WavestringError(Exception):
    """Base class for all wavestring errors."""


class ConfigError(WavestringError):
    """Invalid or unparseable scenario configuration."""


class AssumptionViolated(WavestringError):
    """Agent dynamics violate the structural assumptions required downstream."""


class NumericalError(WavestringError):
    """Base class for runtime numerical failures."""


class ZeroDenominator(ConfigError):
    """Denominator polynomial is identically zero."""


class NumeratorOriginZero(ConfigError):
    """Numerator constant coefficient is zero after factoring origin poles."""


class DegreeZero(WavestringError):
    """Root finding requested on a degree-zero polynomial."""


class PoleAtSample(NumericalError):
    """Transfer function evaluated exactly on one of its poles."""


class SingularSample(NumericalError):
    """Wave quantities are singular at the requested frequency."""


class NoIntegrator(WavestringError):
    """DC gain formulas require at least one integrator."""


class ReflectionSingular(NumericalError):
    """Boundary reflection denominator vanishes (g_minus near 1)."""


class ImproperTF(WavestringError):
    """Transfer function is not proper enough for the requested operation."""


class DisconnectedTopology(ConfigError):
    """Interconnection graph is not connected."""


class CyclicTopology(ConfigError):
    """Interconnection graph contains a cycle (must be a tree)."""


class NonFiniteState(NumericalError):
    """Simulation state became non-finite."""

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"non-finite state at t={time:.6g} s")


class SingularSolve(NumericalError):
    """Frequency-response solve hit an eigenvalue of the network matrix."""


class NonDecaying(NumericalError):
    """Sampled spectrum does not decay; inverse transform would be garbage."""
