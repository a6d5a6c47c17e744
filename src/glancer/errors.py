"""Exception types shared across the package.

Every error named in an operation contract maps to one class here so callers
can catch them without importing the defining module.
"""

from __future__ import annotations


class GlancerError(Exception):
    """Base class for all package errors."""


class OutOfChart(GlancerError):
    """Point lies outside the chart's domain box."""


class NotOnBoundary(GlancerError):
    """Operation requires a boundary point (or the extension band) and got none."""


class DegenerateNormal(GlancerError):
    """dphi is too small to define a normal direction."""


class NotCharacteristic(GlancerError):
    """Phase point is neither characteristic nor an elliptic tangential point."""


class EllipticPoint(GlancerError):
    """Tangential point with p > 0: no hyperbolic lifts exist."""


class DegenerateTransversal(GlancerError):
    """H_z^2 p fell below threshold; the gliding field is not defined."""


class SmoothingFailure(GlancerError):
    """Discretized convolution kernel mass is off its analytic normalization."""


class ChartDegenerate(GlancerError):
    """Quasi-normal chart Jacobian failed the rank check."""


class StepFailure(GlancerError):
    """A trace or the measure along it left the floats: the integrator
    produced a non-finite state, the metric is not positive definite at a
    point of the trace, or a damping weight or the transport residual is
    not finite (or a weight not > 0)."""


class MaxStepsExceeded(GlancerError):
    """Integrator ran past its step budget."""


class MaxPiecesExceeded(GlancerError):
    """Trace accumulated more pieces than allowed (possible chattering)."""


class ProjectionDiverged(GlancerError):
    """Newton projection onto the gliding constraint set failed to converge."""


class LeftChart(GlancerError):
    """Discrete glancing construction stepped outside the chart."""


class SupportLeak(GlancerError):
    """Test function is nonzero at a trajectory endpoint."""


class EmptySupport(GlancerError):
    """support_step_check received no sample points."""


class ValidationError(GlancerError):
    """Scenario configuration failed validation."""


class ConfigError(GlancerError):
    """CLI usage or configuration problem (exit code 2)."""
