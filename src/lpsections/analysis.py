"""Closed forms, limits, and the quantitative inequality suite.

Covers the exactly-known section values, the diagonal large-dimension
limit, the gamma-ratio inequalities backing the crossing analysis, the
two sufficient conditions for the diagonal to beat the two-coordinate
direction, the large-p Lipschitz gap, and the empirical crossing
scanner.  All comparisons of computed volumes are *certified*: a strict
inequality is asserted only when the error bands separate, otherwise the
entry is reported indeterminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closedform import a2_closed_form, a2_general, limit_diagonal
from .direction import Direction, canonicalize, is_inf, validate_exponent
from .hankel import VolumeResult, section_volume_quadrature
# not called here: the benchmark's span tracer (perfbench/layers.py) rebinds this name
from .montecarlo import estimate_section_volume  # noqa: F401
from .specfun import digamma, gamma

__all__ = [
    "Ineq", "CrossingEntry", "CrossingReport", "LipschitzReport",
    "a2_closed_form", "a2_general", "limit_diagonal",
    "f_value", "g_value", "h_value", "h_cubic_lower",
    "lemma1_f", "lemma1_g", "lemma1_h", "lemma1_h_cubic",
    "sufficient_F", "sufficient_G", "lipschitz_gap",
    "certify_above", "crossing_scan",
    "verify_lemma1", "verify_lipschitz", "verify_sufficient",
    "LEMMA1_BREAKPOINTS",
]


@dataclass(frozen=True)
class Ineq:
    """One checked inequality, normalized to the form lhs >= rhs."""

    name: str
    p: float
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    n: Optional[int] = None

    @staticmethod
    def check(name: str, p: float, lhs: float, rhs: float, n: Optional[int] = None) -> "Ineq":
        return Ineq(name, p, lhs, rhs, lhs >= rhs, lhs - rhs, n)


# -- gamma-ratio quantities --------------------------------------------------


def f_value(p: float) -> float:
    """Gamma(1+4/p) / Gamma(1+2/p)."""
    return gamma(1.0 + 4.0 / p) / gamma(1.0 + 2.0 / p)


def g_value(p: float) -> float:
    """Gamma(1+1/p) / Gamma(1+2/p)."""
    return gamma(1.0 + 1.0 / p) / gamma(1.0 + 2.0 / p)


def h_value(p: float) -> float:
    """(2^(1/p) Gamma(1+2/p))^2 / Gamma(1+4/p), the ratio between the
    diagonal limit and the two-coordinate closed form."""
    return 2.0 ** (2.0 / p) * gamma(1.0 + 2.0 / p) ** 2 / gamma(1.0 + 4.0 / p)


def h_cubic_lower(p: float) -> float:
    """Cubic lower bound for h on p >= 9:
    1 + 2 ln2/p - (2/3 pi^2 - 2 ln2^2)/p^2 + 4/p^3."""
    ln2 = math.log(2.0)
    return 1.0 + 2.0 * ln2 / p - (2.0 / 3.0 * math.pi ** 2 - 2.0 * ln2 ** 2) / p ** 2 + 4.0 / p ** 3


def lemma1_f(p: float) -> Ineq:
    """f(p) >= 24/25 for p >= 4."""
    if p < 4.0:
        raise ValueError(f"f bound is stated for p >= 4, got {p}")
    return Ineq.check("lemma1a_f_lower", p, f_value(p), 24.0 / 25.0)


def lemma1_g(p: float) -> Ineq:
    """g is non-increasing at p (for p >= 7), expressed through the
    digamma sign test: Psi(1+1/p) >= 2 Psi(1+2/p)."""
    if p < 7.0:
        raise ValueError(f"g monotonicity is stated for p >= 7, got {p}")
    return Ineq.check("lemma1b_g_decreasing", p,
                      digamma(1.0 + 1.0 / p), 2.0 * digamma(1.0 + 2.0 / p))


def lemma1_h(p: float) -> Ineq:
    """h(p) > 1 for 2 < p < infinity."""
    if not (2.0 < p < math.inf):
        raise ValueError(f"h bound is stated for 2 < p < inf, got {p}")
    return Ineq.check("lemma1c_h_above_one", p, h_value(p), 1.0)


def lemma1_h_cubic(p: float) -> Ineq:
    """h(p) >= its cubic lower bound for p >= 9."""
    if p < 9.0:
        raise ValueError(f"the cubic bound is stated for p >= 9, got {p}")
    return Ineq.check("lemma1c_h_cubic_lower", p, h_value(p), h_cubic_lower(p))


# -- sufficient conditions ---------------------------------------------------


def _dimension_bracket(n: int) -> float:
    # 1 - 4/(3n) - (1/2) n/(n-2) 0.854^n
    return 1.0 - 4.0 / (3.0 * n) - 0.5 * n / (n - 2.0) * 0.854 ** n


def sufficient_F(p: float, n: int) -> Ineq:
    """h(p) times the dimension bracket, compared against 1."""
    if p < 9.0 or n < 3:
        raise ValueError("sufficient_F requires p >= 9 and n >= 3")
    return Ineq.check("sufficient_F", p, h_value(p) * _dimension_bracket(n), 1.0, n=n)


def sufficient_G(p: float, n: int) -> Ineq:
    """The cubic lower bound for h times the dimension bracket,
    compared against 1 (implies sufficient_F by the cubic bound)."""
    if p < 9.0 or n < 3:
        raise ValueError("sufficient_G requires p >= 9 and n >= 3")
    return Ineq.check("sufficient_G", p, h_cubic_lower(p) * _dimension_bracket(n), 1.0, n=n)


# -- Lipschitz gap in p ------------------------------------------------------


@dataclass(frozen=True)
class LipschitzReport:
    gap: float
    bound: float
    within: bool
    value_p: VolumeResult
    value_inf: VolumeResult


def lipschitz_gap(p: float, a, tol: float = 1e-8) -> LipschitzReport:
    """|volume(p, a) - volume(inf, a)| against the bound 16/p, for p > 8.

    Both sides run through the quadrature engine at tol_abs = tol (closed
    forms when the direction has at most two nonzero coordinates).
    """
    p = validate_exponent(p)
    if not p > 8.0:
        raise ValueError(f"the 16/p bound is stated for p > 8, got {p}")
    a = canonicalize(a)
    vp = section_volume_quadrature(p, a, tol)
    vinf = section_volume_quadrature(math.inf, a, tol)
    gap = abs(vp.value - vinf.value)
    bound = 16.0 / p
    within = gap + vp.err_bound + vinf.err_bound < bound
    return LipschitzReport(gap, bound, within, vp, vinf)


# -- crossing scan -----------------------------------------------------------


def certify_above(value: float, err: float, threshold: float) -> str:
    """Certified comparison of value +- err against a threshold:
    'above', 'below', or 'indeterminate' when the band straddles it."""
    if value - err > threshold:
        return "above"
    if value + err < threshold:
        return "below"
    return "indeterminate"


@dataclass(frozen=True)
class CrossingEntry:
    n: int
    a_diag: VolumeResult
    a_two: float
    holds: bool
    indeterminate: bool


@dataclass(frozen=True)
class CrossingReport:
    p: float
    n_examined: tuple
    per_n: tuple
    first_n_holds: Optional[int]
    holds_for_all_tail: bool


def crossing_scan(p: float, n_max: int, tol: float = 1e-6) -> CrossingReport:
    """Scan n = 3..n_max for the certified strict inequality
    diagonal-volume(n) > two-coordinate-volume, at fixed finite p > 2,
    with diagonal volumes from the quadrature engine at tol_abs = tol.

    holds is True only when the certified lower edge clears the
    threshold; straddling bands are reported indeterminate, never
    coerced either way.
    """
    p = validate_exponent(p)
    if is_inf(p) or p <= 2.0:
        raise ValueError(f"crossing scan requires finite p > 2, got {p}")
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    threshold = a2_closed_form(p)
    entries = []
    for n in range(3, n_max + 1):
        res = section_volume_quadrature(p, Direction.diagonal(n), tol)
        verdict = certify_above(res.value, res.err_bound, threshold)
        entries.append(CrossingEntry(n, res, threshold,
                                     verdict == "above", verdict == "indeterminate"))
    first = next((e.n for e in entries if e.holds), None)
    tail_ok = first is not None and all(e.holds for e in entries if e.n >= first)
    return CrossingReport(p, (3, n_max), tuple(entries), first, tail_ok)


# -- verification suites -----------------------------------------------------

LEMMA1_BREAKPOINTS = (4.0, 7.0, 9.0, 13.78, 26.265, 140.0)


def _grid(lo: float, hi: float, count: int) -> list[float]:
    pts = set(float(x) for x in np.geomspace(lo, hi, count))
    pts.update(b for b in LEMMA1_BREAKPOINTS if lo <= b <= hi)
    return sorted(pts)


def verify_lemma1(count: int = 48) -> list[Ineq]:
    """Gamma-ratio inequality rows on fixed grids: the f lower bound on
    [4, 1000], g monotonicity on [7, 1000], h > 1 on (2, 1000], the
    cubic bound on [9, 1000], and the two numeric caps on g."""
    rows = []
    for p in _grid(4.0, 1000.0, count):
        rows.append(lemma1_f(p))
    for p in _grid(7.0, 1000.0, count):
        rows.append(lemma1_g(p))
    for p in _grid(2.05, 1000.0, count):
        rows.append(lemma1_h(p))
    for p in _grid(9.0, 1000.0, count):
        rows.append(lemma1_h_cubic(p))
    rows.append(Ineq.check("lemma1b_g7_cap", 7.0, 1.0397, g_value(7.0)))
    rows.append(Ineq.check("lemma1b_g9_cap", 9.0, 1.0377, g_value(9.0)))
    return rows


def verify_lipschitz(tol: float = 1e-4) -> list[Ineq]:
    """Gap rows for p in {16, 32, 64} and the two-, three- and
    five-coordinate diagonal directions, volumes at tol_abs = tol."""
    rows = []
    for p in (16.0, 32.0, 64.0):
        for k in (2, 3, 5):
            rep = lipschitz_gap(p, Direction.diagonal(k), tol)
            err = rep.value_p.err_bound + rep.value_inf.err_bound
            rows.append(Ineq.check("lipschitz_gap", p, rep.bound, rep.gap + err, n=k))
    return rows


def verify_sufficient(count: int = 24) -> list[Ineq]:
    """sufficient_G above 1 for n = ceil(5p/2) on p in [9, 500] and for
    n = ceil(p) on p in [140, 500], with the matching sufficient_F rows."""
    rows = []
    for p in _grid(9.0, 500.0, count):
        n = math.ceil(2.5 * p)
        rows.append(sufficient_G(p, n))
        rows.append(sufficient_F(p, n))
    for p in _grid(140.0, 500.0, max(8, count // 2)):
        n = math.ceil(p)
        rows.append(sufficient_G(p, n))
        rows.append(sufficient_F(p, n))
    return rows
