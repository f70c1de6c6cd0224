"""Exact closed forms for the section-volume function.

These are the analytically known values: the two-equal-coordinates
direction, the general two-coordinate direction, and the large-dimension
limit along the main diagonal.  section_value is the one router from a
direction to its closed form, for the quadrature engine and the CLI's
closed engine.
"""

from __future__ import annotations

from typing import Optional

from .direction import NORM_TOL, canonicalize, validate_exponent
from .specfun import gamma


def a2_closed_form(p: float) -> float:
    """Section volume at the two-equal-coordinates direction: 2^(1-2/p)."""
    p = validate_exponent(p)
    return 2.0 ** (1.0 - 2.0 / p)


def a2_general(p: float, b1: float, b2: float) -> float:
    """Section volume for a two-coordinate direction (b1, b2):
    the inverse squared p-norm of (b1, b2)."""
    p = validate_exponent(p)
    if b1 < 0.0 or b2 < 0.0:
        raise ValueError("coordinates must be nonnegative")
    if abs(b1 * b1 + b2 * b2 - 1.0) > NORM_TOL:
        raise ValueError(f"(b1, b2) must be unit: got |b|^2 = {b1 * b1 + b2 * b2!r}")
    if b1 == b2:
        # equal coordinates reduce to 2^(1-2/p) exactly; evaluating the
        # p-norm form would round the last ulp
        return a2_closed_form(p)
    # (b1^p + b2^p)^(-2/p) with the larger coordinate factored out, so the
    # sum cannot underflow at large p; at p = inf it is max(b1, b2)^(-2)
    big, small = max(b1, b2), min(b1, b2)
    return big ** -2.0 * (1.0 + (small / big) ** p) ** (-2.0 / p)


def section_value(p: float, a) -> Optional[float]:
    """Exact section volume of a direction with one or two nonzero
    coordinates (1 on a coordinate axis, a2_general for two), or None
    when no closed form is known."""
    nz = canonicalize(a).nonzero()
    if len(nz) == 1:
        return 1.0
    if len(nz) == 2:
        return a2_general(p, nz[0], nz[1])
    return None


def limit_diagonal(p: float) -> float:
    """Large-n limit of the diagonal section volume:
    2 Gamma(1+2/p)^2 / Gamma(1+4/p)."""
    p = validate_exponent(p)
    if p <= 1.0:
        raise ValueError(f"diagonal limit requires p > 1, got {p}")
    return 2.0 * gamma(1.0 + 2.0 / p) ** 2 / gamma(1.0 + 4.0 / p)
