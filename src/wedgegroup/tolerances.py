"""Tolerance resolution.

Precedence: explicit argument > WEDGEGROUP_TOL environment variable > 1e-9.
"""

import os

__all__ = ["resolve_tol"]

DEFAULT_TOL = 1e-9
ENV_VAR = "WEDGEGROUP_TOL"


def resolve_tol(tol=None):
    """Return the effective tolerance for a structural validation."""
    if tol is not None:
        value = float(tol)
    else:
        raw = os.environ.get(ENV_VAR)
        if raw is None or raw == "":
            return DEFAULT_TOL
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be a float, got {raw!r}") from exc
    if not value > 0.0:
        raise ValueError(f"tolerance must be positive, got {value}")
    return value
