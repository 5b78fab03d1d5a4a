"""Exception types shared across the package.

Exit-code mapping for the command line lives in ``cli``: configuration and
schema problems exit 2, solver and runtime failures exit 1.
"""

from __future__ import annotations


class SurveySenseError(Exception):
    """Base class for all package errors."""


class SchemaError(SurveySenseError):
    """Input data violates the declared column schema."""


class ConfigError(SurveySenseError):
    """Run configuration is missing, malformed, or inconsistent."""


class RankDeficiencyError(SurveySenseError):
    """Constraint design is rank deficient.

    Carries the offending column names so callers can report which
    declared features are linearly dependent (the implicit normalization
    constraint counts as a column, so constants are caught too).
    """

    def __init__(self, columns: tuple[str, ...]):
        self.columns = tuple(columns)
        super().__init__(
            "rank-deficient constraint design; dependent columns: "
            + ", ".join(self.columns)
        )


class InfeasibleTargetsError(SurveySenseError):
    """Calibration targets lie outside the achievable range.

    ``constraint`` names the violated margin, ``target`` the requested
    value, ``achievable`` the open interval attainable with strictly
    positive weights.
    """

    def __init__(
        self,
        constraint: str,
        target: float,
        achievable: tuple[float, float],
        *,
        joint: bool = False,
    ):
        self.constraint = constraint
        self.target = target
        self.achievable = achievable
        self.joint = joint
        self.dropped_columns: tuple[str, ...] = ()  # set by the solver's rank guard
        if joint:
            message = (
                f"target {target:g} for constraint {constraint!r} cannot be met "
                f"jointly with the other constraints (marginal range "
                f"({achievable[0]:g}, {achievable[1]:g}))"
            )
        else:
            message = (
                f"target {target:g} for constraint {constraint!r} is not attainable; "
                f"achievable range is ({achievable[0]:g}, {achievable[1]:g}) exclusive"
            )
        super().__init__(message)


class DetectionError(SurveySenseError):
    """Graph estimation or path search failed (cap hit, bad node set)."""
