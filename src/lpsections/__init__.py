"""Normalized hyperplane-section volumes of complex l_p balls.

Three independent routes to the same quantity: exact closed forms where
they exist, a deterministic Bessel-product quadrature engine with
certified truncation error, and a Rao-Blackwellized Monte Carlo engine;
plus the inequality/limit verification suites, a direction optimizer,
and a CLI front end (lpsections.cli / the lpsec script).
"""

from .analysis import (
    CrossingReport,
    Ineq,
    LipschitzReport,
    a2_closed_form,
    a2_general,
    crossing_scan,
    limit_diagonal,
    lipschitz_gap,
    lemma1_f,
    lemma1_g,
    lemma1_h,
    lemma1_h_cubic,
    sufficient_F,
    sufficient_G,
)
from .direction import Direction, canonicalize
from .hankel import (
    NonConvergenceError,
    VolumeResult,
    section_volume_quadrature,
    tail_bound_outer,
)
from .montecarlo import (
    McSpec,
    clt_experiment,
    estimate_section_volume,
    rao_blackwell_kernel,
)
from .optimize import OptReport, maximize_direction
from .randkit import RngStream

__version__ = "0.1.0"

__all__ = [
    "CrossingReport", "Direction", "Ineq", "LipschitzReport",
    "McSpec", "NonConvergenceError", "OptReport",
    "RngStream", "VolumeResult",
    "a2_closed_form", "a2_general", "canonicalize", "clt_experiment",
    "crossing_scan", "estimate_section_volume",
    "lemma1_f", "lemma1_g",
    "lemma1_h", "lemma1_h_cubic", "limit_diagonal", "lipschitz_gap",
    "maximize_direction", "rao_blackwell_kernel",
    "section_volume_quadrature", "sufficient_F", "sufficient_G",
    "tail_bound_outer",
]
