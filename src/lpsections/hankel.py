"""Deterministic quadrature engine for normalized section volumes.

The engine evaluates

    volume(p, a) = Gamma(1+2/p) * 1/2 * int_0^inf  prod_j k_p(a_j s)  s ds

where the kernel is the normalized Hankel-type transform of the radial
weight exp(-r^p),

    k_p(s) = 2 / Gamma(1+2/p) * int_0^inf J0(s r) exp(-r^p) r dr,

with the closed form 2 J1(s)/s at p = inf.  Directions with fewer than
three nonzero coordinates are routed to exact closed forms (their
envelope tail integral diverges, and exact values exist anyway).

Error model
-----------
* Kernel truncation at r_max is certified analytically:
  |tail| <= 2/Gamma(1+2/p) * 1/p * gamma_upper(2/p, r_max^p).
* Kernel quadrature error is estimated by comparing Gauss-Legendre
  rules with 8 and 12 nodes on radial cells graded dyadically in
  u = r^p (so the weight varies by at most one octave per cell, whatever
  p) and subdivided to quarter-period width (so each panel sees at most
  one sign change of the oscillatory factor).  The kernel's bound also
  covers the rounding of 2/Gamma(1+2/p) and of the panel sums.
* For finite p the outer quadrature reads the kernel from a per-p
  piecewise Chebyshev table (degree 24 on panels of width 2, nodes from
  kernel_values).  Each table value carries a certified bound: the
  kernel's x-uniform errors (truncation, flat head) once, the nodes'
  quadrature estimates times the Lebesgue constant, the interpolation
  error from the kernel's maximum on a Bernstein ellipse (Trefethen,
  ATAP Thm 8.2), and rounding.  Panels whose bound exceeds the kernel
  target, and every p without a usable bound (p = 1), are evaluated
  directly.
* The outer integral is truncated at s_max with a rigorous envelope
  bound (tail_bound_outer) and integrated adaptively, panel error from
  comparing 12 with 24 nodes, inner kernel errors propagated through the
  product rule |d prod| <= sum_j |d k_j| * prod of bounds, and the
  rounding of the Gamma(1+2/p)/2 prefactor added.  The orders are
  module constants, not settings.

The one setting is tol_abs.  A call whose certified bound misses it,
or that needs more than _PANEL_BUDGET outer panels, raises
NonConvergenceError.

Results depend only on the arguments.  The only shared state is a set of
lazily filled caches: the kernels (one per p and kernel target, each
with its table), interpolation bounds, envelope families, Gauss-Legendre
nodes and the Chebyshev basis.  A table panel depends only on (p, kernel
target, panel index), and a table grows by swapping in new arrays, so
concurrent calls stay safe and cache state never shows in a result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import section_value
from .direction import canonicalize, is_inf, validate_exponent
from .specfun import GAMMA_REL_ERR, gamma, gamma_upper, j0_array, j1_array

# Upper bound for |J1| everywhere (the envelope constant M).
J1_MAX_BOUND = 0.5819
# sqrt(2/pi), amplitude of the Bessel large-argument decay.
_SQRT_2_OVER_PI = 0.7978845608028654
# sqrt(2/pi) * (3/4)^(-1/4): |J1(x)| <= this / sqrt(x) for x >= 2,
# obtained from |J1(x)| <= sqrt(2/pi) (x^2-1)^(-1/4) and x^2-1 >= 3x^2/4.
_J1_SQRT_BOUND = _SQRT_2_OVER_PI * 0.75 ** -0.25
_U = 2.0 ** -53  # unit roundoff of float64
# relative error of 2/Gamma(1+2/p) or Gamma(1+2/p)/2 as computed, times
# any one product with it: Gamma's own, 5u from rounding the argument
# (|psi| < 1 on (1, 3]), and u each for the division and the product
_PREF_REL_ERR = GAMMA_REL_ERR + 7.0 * _U


class NonConvergenceError(RuntimeError):
    """Requested tolerance not reachable within the configured budget."""


class DimensionError(ValueError):
    """Operation requires more nonzero coordinates than provided."""


@dataclass(frozen=True)
class VolumeResult:
    value: float
    err_bound: float
    engine: str
    meta: dict = field(default_factory=dict)


# Gauss-Legendre nodes per panel.  Kernel radial panels take the value at
# _GL_ORDER nodes and estimate its error against _GL_ORDER_LOW nodes; outer
# panels take 2 * _GL_ORDER nodes against _GL_ORDER.
_GL_ORDER_LOW = 8
_GL_ORDER = 12


@functools.lru_cache(maxsize=64)
def _gl_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


def _j1_normalized(x: np.ndarray) -> np.ndarray:
    """2 J1(x) / x with the value 1 at x = 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = 2.0 * j1_array(x[nz]) / x[nz]
    return out


def _trunc_radius(p: float, target: float) -> tuple[float, float]:
    """Kernel cutoff r_max with a certified truncation bound <= target.

    Start from r_max = (ln(C/target))^(1/p) with C = 4/Gamma(1+2/p) and
    inflate until gamma_upper certifies the bound.
    """
    g2 = gamma(1.0 + 2.0 / p)
    big_x = max(math.log(4.0 / (g2 * target)), 1.0)
    for _ in range(80):
        bound = 2.0 / g2 / p * gamma_upper(2.0 / p, big_x)
        if bound <= target:
            return big_x ** (1.0 / p), bound
        big_x *= 1.15
    raise NonConvergenceError(f"cannot certify kernel truncation at p={p}, target={target}")


def _weight(r: np.ndarray, p: float) -> np.ndarray:
    return np.exp(-(r ** p)) * r


# radial panels per block of _kernel_finite_raw: its temporaries stay small
_CHUNK_PANELS = 4096


def _weight_cells(p: float, r_max: float, levels: int):
    """Radial cells graded in u = r^p: dyadic below u = 1 (`levels`
    octaves), unit steps above, clipped at r_max.

    Dyadic-in-u grading keeps the per-panel variation of exp(-r^p) to at
    most one octave, which Gauss-Legendre resolves to near machine
    precision for every p (including the near-step transition at r = 1
    when p is large and the fractional-power behaviour at r = 0 when p
    is not an even integer).  Returns (r_flat, cell_lo, cell_w): the
    flat head [0, r_flat] carries weight within 2^-levels of 1 and is
    not panelled."""
    us = np.concatenate([
        2.0 ** np.arange(-levels, 0, dtype=np.float64),
        np.arange(1.0, int(math.ceil(r_max ** p)) + 1, dtype=np.float64),
    ])
    edges = us ** (1.0 / p)
    edges = edges[edges < r_max]
    if edges.size == 0:
        # for p >~ 1e15 every edge and r_max round to 1.0
        raise NonConvergenceError(
            f"no radial kernel cell left at p={p!r}: the r^p grading collapses in double precision"
        )
    edges = np.concatenate([edges, [r_max]])
    return float(edges[0]), edges[:-1].copy(), np.diff(edges)


def _head_cert(r_flat: float, levels: int) -> float:
    return 2.0 ** -levels * 0.5 * r_flat * r_flat


def _gamma_n(k, u: float):
    return k * u / (1.0 - k * u)


def _kernel_finite_raw(p: float, x: np.ndarray, cells, levels: int):
    """Raw integral int_0^r_max J0(x r) exp(-r^p) r dr for an array of
    nonnegative x, plus an error estimate from the lower order (the
    reported value uses _GL_ORDER nodes; the comparison with
    _GL_ORDER_LOW nodes overestimates its error) and a bound on the
    rounding of the sums: gamma_(k+14) times the sum of the terms'
    magnitudes for k panels per x (two products per node, the node sum
    and the panel sum, in any order), plus gamma_4 times |head| + |raw|
    for the head's three products and its addition."""
    g1, w1 = _gl_nodes(_GL_ORDER_LOW)
    g2, w2 = _gl_nodes(_GL_ORDER)
    r_flat, cell_lo, cell_w = cells

    # closed-form head: int_0^r_flat J0(x r) r dr = r_flat^2/2 * j1n(x r_flat),
    # exact up to the certified weight deviation 2^-levels * r_flat^2 / 2
    head = 0.5 * r_flat * r_flat * _j1_normalized(x * r_flat)
    head_cert = _head_cert(r_flat, levels)

    vals = np.empty_like(x)
    ests = np.empty_like(x)
    mags = np.empty_like(x)
    # subpanels per (x, cell): quarter-period width, so the lower-order
    # comparison rule is already sharp
    counts = np.ceil(np.outer(x, cell_w) / (0.5 * math.pi)).astype(np.int64)
    np.maximum(counts, 1, out=counts)
    per_x = counts.sum(axis=1)
    csum = np.cumsum(per_x)
    start = 0
    while start < x.size:
        base = csum[start] - per_x[start]
        stop = int(np.searchsorted(csum, base + _CHUNK_PANELS)) + 1
        stop = min(max(stop, start + 1), x.size)
        C = counts[start:stop]
        nx, ncells = C.shape
        cflat = C.ravel()
        total = int(cflat.sum())
        pan_cell = np.repeat(np.tile(np.arange(ncells), nx), cflat)
        pan_x = np.repeat(np.repeat(np.arange(nx), ncells), cflat)
        offs_flat = np.cumsum(cflat) - cflat
        within = np.arange(total) - np.repeat(offs_flat, cflat)
        sub_w = cell_w[pan_cell] / np.repeat(cflat, cflat)
        lo = cell_lo[pan_cell] + within * sub_w
        mid = lo + 0.5 * sub_w
        half = 0.5 * sub_w
        x_rep = x[start:stop][pan_x]
        x_offs = np.cumsum(C.sum(axis=1)) - C.sum(axis=1)

        def terms(gl_x, gl_w):
            r = mid[:, None] + half[:, None] * gl_x[None, :]
            return j0_array(x_rep[:, None] * r) * _weight(r, p) * gl_w[None, :]

        def per_x_sums(fw):
            return np.add.reduceat(fw.sum(axis=1) * half, x_offs)

        s1 = per_x_sums(terms(g1, w1))
        fw = terms(g2, w2)
        s2 = per_x_sums(fw)
        vals[start:stop] = s2
        ests[start:stop] = np.abs(s2 - s1)
        mags[start:stop] = per_x_sums(np.abs(fw, out=fw))
        start = stop
    raw = vals + head
    rounding = _gamma_n(per_x + 14, _U) * mags + _gamma_n(4, _U) * (np.abs(head) + np.abs(raw))
    return raw, ests + head_cert, rounding


def kernel_values(p: float, x, trunc_target: float = 1e-13):
    """Vectorized kernel evaluation.

    Returns (values, err_bounds) for an array of nonnegative arguments;
    err_bounds combines the certified truncation tail, the measured
    quadrature estimate and the rounding of the sums and of the
    prefactor 2/Gamma(1+2/p).  p = inf uses the closed form (error 0).
    """
    p = validate_exponent(p)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x < 0.0):
        raise ValueError("kernel argument must be nonnegative")
    if not np.all(np.isfinite(x)):
        raise ValueError("kernel argument must be finite")
    if is_inf(p):
        return _j1_normalized(x), np.zeros_like(x)
    # k(0) = 1 exactly
    vals = np.ones_like(x)
    errs = np.zeros_like(x)
    nz = x != 0.0
    if np.any(nz):
        k = _kernel(p, trunc_target)
        raw, est, rounding = _kernel_finite_raw(p, x[nz], k.cells, k.levels)
        vals[nz] = k.pref * raw
        errs[nz] = k.pref * (est + rounding) + k.cert + _PREF_REL_ERR * np.abs(vals[nz])
    return vals, errs


# ---------------------------------------------------------------------------
# The kernel per (p, target): its radial set-up and Chebyshev table
# ---------------------------------------------------------------------------

# Panel i covers [2i, 2i + 2] and carries the degree-24 interpolant of
# k_p at the 25 Chebyshev points of the second kind mapped onto it.
_CHEB_WIDTH = 2.0
_CHEB_DEGREE = 24
# Lebesgue constant bound of those points, 1 + (2/pi) ln(n + 1) (Trefethen,
# Approximation Theory and Approximation Practice, Thm 15.2)
_CHEB_LEBESGUE = 1.0 + 2.0 / math.pi * math.log(_CHEB_DEGREE + 1)
# Bernstein ellipse parameters tried for the interpolation bound, and the
# cells per family of the Riemann sum that bounds the kernel on each
_RHO_GRID = tuple(np.geomspace(1.5, 256.0, 48).tolist())
_M_CELLS = 512
# panels per kernel_values call while filling, and the table's extent
# (arguments beyond 2 * _TABLE_MAX_PANELS are evaluated directly)
_BUILD_PANELS = 128
_TABLE_MAX_PANELS = 1 << 16
_U_LD = float(np.finfo(np.longdouble).epsneg)


@functools.lru_cache(maxsize=256)
def _interp_bound(p: float) -> float:
    """Certified bound on |k - q| over any panel, q the degree-24
    Chebyshev interpolant of k = k_p, or of the kernel that
    kernel_values integrates (truncated at r_max, weight 1 on the flat
    head, where e^-r^p > 1 - 2^-20).

    ATAP Thm 8.2 gives |k - q| <= 4 M rho^-n / (rho - 1) when |k| <= M
    on the Bernstein ellipse E_rho of the panel.  On a panel of half-width
    1, E_rho lies in the strip |Im z| <= b = (rho - 1/rho)/2, where
    |J0(w)| <= e^|Im w| gives

        |k(z)| <= M(b) = 2/Gamma(1+2/p) int_0^inf e^(b r - r^p) r dr.

    M(b) is bounded by an upper Riemann sum on [0, R] (monotone factors:
    e^(b hi - lo^p) hi per cell) plus the tail beyond R = (2b)^(1/(p-1)),
    where b r <= r^p / 2; the factor 1 + 1e-5 covers the flat head and
    rounding.  Returns the minimum over a fixed rho grid, or inf when no
    ellipse gives a finite bound (p = 1: M(b) is finite only for b < 1,
    and the bound is useless there)."""
    if not p > 1.0:
        return math.inf
    n = _CHEB_DEGREE
    grid = np.linspace(0.0, 1.0, _M_CELLS + 1)
    # edges in units of R, uniform in r and in r^p
    unit = np.unique(np.concatenate([grid, grid ** (1.0 / p)]))
    pref = 2.0 / gamma(1.0 + 2.0 / p)
    best = math.inf
    for rho in _RHO_GRID:
        b = 0.5 * (rho - 1.0 / rho)
        log_r = math.log(2.0 * b) / (p - 1.0)
        if log_r > 300.0:
            break  # b grows along the grid, and so does R
        big_r = math.exp(log_r) * (1.0 + 1e-9)
        try:
            big_rp = big_r ** p
            if not big_r ** (p - 1.0) >= 2.0 * b * (1.0 + 1e-12):
                continue
        except OverflowError:
            continue
        edges = big_r * unit
        lo, hi = edges[:-1], edges[1:]
        with np.errstate(over="ignore"):
            head = float(np.sum(np.exp(b * hi - lo ** p) * hi * (hi - lo)))
        if p >= 2.0:
            # r = r^(p-1) r^(2-p) <= r^(p-1) R^(2-p) for r >= R
            tail = big_r ** (2.0 - p) * 2.0 / p * math.exp(-0.5 * big_rp)
        else:
            # u = r^p / 2 turns the tail into a Gamma(2/p, R^p/2) integral
            tail = 2.0 ** (2.0 / p) / p * gamma_upper(2.0 / p, 0.5 * big_rp)
        m = pref * (head + tail) * (1.0 + 1e-5)
        if math.isfinite(m):
            best = min(best, 4.0 * m * rho ** -n / (rho - 1.0))
    return best


@functools.lru_cache(maxsize=None)
def _cheb_basis():
    """Panel nodes t_k = cos(k pi / n) and the discrete Chebyshev
    transform from node values to coefficients (longdouble, so that the
    transform's own rounding stays far below the double result's)."""
    n = _CHEB_DEGREE
    # sin form: exactly antisymmetric, with t = 0 in the middle
    t = np.sin(math.pi * (n - 2.0 * np.arange(n + 1)) / (2.0 * n))
    ld = np.longdouble
    pi = ld(4.0) * np.arctan(ld(1.0))
    jk = np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)
    dct = np.cos(jk.astype(ld) * pi / ld(n)) * ld(2.0 / n)
    dct[:, [0, n]] *= ld(0.5)
    dct[[0, n], :] *= ld(0.5)
    dct.flags.writeable = False
    return t, dct


def _clenshaw(coeffs: np.ndarray, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j, idx] T_j(t): Clenshaw's recurrence with one
    coefficient gather per step."""
    two_t = t + t
    b1 = coeffs[-1].take(idx)
    b2 = np.zeros_like(t)
    for row in coeffs[-2:0:-1]:
        b0 = two_t * b1
        b0 += row.take(idx)
        b0 -= b2
        b2, b1 = b1, b0
    out = t * b1
    out += coeffs[0].take(idx)
    out -= b2
    return out


class _Kernel:
    """k_p for one (p, trunc_target): the truncation bound `cert`, the
    radial `cells` and head `levels`, the prefactor `pref` = 2/Gamma(1+2/p)
    and the x-uniform error `uniform` that kernel_values integrates with,
    and a piecewise Chebyshev table filled panel by panel on demand.  At
    p = inf (a closed form) it holds only the empty table.

    `state` is (coeffs, errs): coefficient rows (degree + 1, panels),
    lowest degree first, and one certified error per panel (inf where the
    bound exceeds trunc_target, so the panel is evaluated directly).  A
    panel depends on nothing but (p, trunc_target, its index), so
    results do not depend on which call filled the table; filling builds
    new arrays and swaps them in, so concurrent readers never see a
    partial state."""

    def __init__(self, p: float, trunc_target: float):
        self.p, self.trunc_target = p, trunc_target
        self.state = (np.empty((_CHEB_DEGREE + 1, 0)), np.empty(0))
        if is_inf(p):
            return
        r_max, self.cert = _trunc_radius(p, trunc_target)
        # octaves of dyadic radial cells below u = r^p = 1 (see _weight_cells)
        self.levels = int(min(48, max(20, math.ceil(-math.log2(trunc_target)))))
        self.cells = _weight_cells(p, r_max, self.levels)
        self.pref = 2.0 / gamma(1.0 + 2.0 / p)
        self.uniform = self.cert + self.pref * _head_cert(self.cells[0], self.levels)

    def _panels(self, first: int, stop: int):
        """Coefficients, certified errors and the number of kernel_values
        points evaluated for panels first .. stop-1.

        kernel_values' error bound at x != 0 is `uniform` plus its
        Gauss-Legendre estimate.  `uniform` (truncation tail and flat-head
        weight) bounds one smooth function of x at every x, so the table
        interpolates the kernel without it and adds it once.  Per panel:
        * the node estimates pass through the Lebesgue constant;
        * the interpolation error is _interp_bound(p);
        * rounding: the longdouble transform and the coefficients'
          rounding to double, Clenshaw's local errors (|b_k| <=
          sum_j>=k (j-k+1)|c_j|, |T_j| <= 1), and the rounding of node
          and query abscissae (u (1 + |x|) each, through |q'| <=
          sum j^2 |c_j|, doubled for the interpolation error's slope).
        """
        t, dct = _cheb_basis()
        n = _CHEB_DEGREE
        half = 0.5 * _CHEB_WIDTH
        centres = _CHEB_WIDTH * np.arange(first, stop, dtype=np.float64) + half
        x = centres[:, None] + half * t[None, :]
        # kernel_values returns k(0) = 1 exactly, not the quadrature that
        # every other node carries; k is even and smooth, so sampling that
        # quadrature at x = 1e-100 instead moves k by about 1e-200
        x[x == 0.0] = 1e-100
        # neighbouring panels share their end nodes: evaluate each once
        xs, inverse = np.unique(x, return_inverse=True)
        vals, errs = kernel_values(self.p, xs, trunc_target=self.trunc_target)
        vals = vals[inverse].reshape(x.shape)
        errs = errs[inverse].reshape(x.shape)
        coeffs = (vals.astype(np.longdouble) @ dct.T).astype(np.float64)

        node = np.max(errs - self.uniform + 4.0 * _U * errs, axis=1)
        j = np.arange(n + 1, dtype=np.float64)
        mag = np.abs(coeffs)
        transform = _gamma_n(n + 3, _U_LD) * (np.abs(vals) @ np.abs(dct).astype(np.float64).T).sum(axis=1)
        clenshaw = 2.0 * _gamma_n(3, _U) * (mag @ (1.0 + 1.5 * j * (j + 1.0)))
        abscissae = _U * (1.0 + _CHEB_LEBESGUE) * (2.0 + centres + half) * 2.0 * (mag @ (j * j))
        rounding = _U * mag.sum(axis=1) + transform + clenshaw + abscissae
        err = self.uniform + _CHEB_LEBESGUE * node + _interp_bound(self.p) + rounding
        err[~(err <= self.trunc_target)] = math.inf
        return coeffs.T, err, xs.size

    def lookup(self, x: np.ndarray):
        """(values, errors, nodes added, interpolation bound or 0.0 if no
        value came from the table) for nonnegative finite x.  p = inf (a
        closed form) and p = 1 (no usable ellipse) go to kernel_values
        directly, and so do points on panels without a certified fit or
        past the table's extent."""
        if is_inf(self.p) or not _interp_bound(self.p) <= self.trunc_target:
            kv, ke = kernel_values(self.p, x, trunc_target=self.trunc_target)
            return kv, ke, 0, 0.0
        idx = np.minimum(x * (1.0 / _CHEB_WIDTH), _TABLE_MAX_PANELS - 1).astype(np.intp)
        coeffs, errs = self.state
        need = int(idx.max()) + 1
        parts = [self._panels(lo, min(lo + _BUILD_PANELS, need))
                 for lo in range(errs.size, need, _BUILD_PANELS)]
        if parts:
            coeffs = np.concatenate([coeffs] + [c for c, _, _ in parts], axis=1)
            errs = np.concatenate([errs] + [e for _, e, _ in parts])
            self.state = (coeffs, errs)
        err = errs.take(idx)
        err[x >= _CHEB_WIDTH * _TABLE_MAX_PANELS] = math.inf
        t = x - (_CHEB_WIDTH * idx + 0.5 * _CHEB_WIDTH)
        vals = _clenshaw(coeffs, idx, t)
        direct = np.isinf(err)
        if np.any(direct):
            vals[direct], err[direct] = kernel_values(self.p, x[direct], trunc_target=self.trunc_target)
        interp = 0.0 if np.all(direct) else _interp_bound(self.p)
        return vals, err, sum(count for _, _, count in parts), interp


@functools.lru_cache(maxsize=64)
def _kernel(p: float, trunc_target: float) -> _Kernel:
    return _Kernel(p, trunc_target)


# ---------------------------------------------------------------------------
# Envelopes and outer tail bounds
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _envelope_families(p: float):
    """Proven kernel bounds of the form |k_p(x)| <= C x^-q for x >= x_min,
    as tuples (q, C, x_min).

    q=1   from |J1| <= M inside the integrated-by-parts form;
    q=3/2 from |J1(x)| <= sqrt(2/pi) (x^2-1)^(-1/4) for the oscillatory
          range plus an explicitly dominated head term (the 1.15 factor
          absorbs the head for x >= x_min);
    q=2   from a second integration by parts:
          |k_p(x)| <= 4 p / (e Gamma(1+2/p)) / x^2.
    """
    if is_inf(p):
        return ((1.0, 2.0 * J1_MAX_BOUND, 0.0), (1.5, 2.0 * _J1_SQRT_BOUND, 2.0))
    g2 = gamma(1.0 + 2.0 / p)
    fams = [(1.0, 2.0 * J1_MAX_BOUND * gamma(1.0 + 1.0 / p) / g2, 0.0)]
    gh = gamma(1.0 + 0.5 / p)
    c15 = 1.15 * (2.0 / g2) * _J1_SQRT_BOUND * gh
    log_xc = (
        math.log(J1_MAX_BOUND) + math.log(p) + (p + 1.0) * math.log(2.0)
        - math.log(p + 1.0) - math.log(0.15 * _J1_SQRT_BOUND * gh)
    ) / (p + 0.5)
    fams.append((1.5, c15, max(2.0, math.exp(log_xc))))
    fams.append((2.0, 4.0 * p / (math.e * g2), 0.0))
    return tuple(fams)


def tail_bound_outer(p: float, a, s_max: float) -> float:
    """Rigorous upper bound on int_{s_max}^inf prod_j |k_p(a_j s)| s ds.

    For each envelope family and each cut m, the m largest coordinates
    take the power-law factor (closed-form tail integral) and the rest
    are capped by their envelope value at s_max; the minimum over all
    valid combinations is returned, or math.inf when that minimum is
    past the double range.  Requires at least three nonzero coordinates
    (two-coordinate products decay too slowly for the q=1 envelope to
    integrate).
    """
    p = validate_exponent(p)
    a = canonicalize(a)
    if not s_max > 0.0:
        raise ValueError("s_max must be positive")
    nz = np.array(a.nonzero())
    r = nz.size
    if r < 3:
        raise DimensionError("outer tail bound needs at least 3 nonzero coordinates")
    best_log = math.inf
    for q, c, x_min in _envelope_families(p):
        xs = nz * s_max
        with np.errstate(divide="ignore"):
            log_env = np.minimum(0.0, math.log(c) - q * np.log(xs))
        log_env = np.where(xs >= x_min, log_env, 0.0)
        # suffix sums of the cap logs: caps for indices m..r-1
        suffix = np.concatenate([np.cumsum(log_env[::-1])[::-1], [0.0]])
        lead = 0.0  # sum over subset of log(C / a_j^q)
        m_min = 3 if q == 1.0 else 2
        for m in range(1, r + 1):
            lead += math.log(c) - q * math.log(nz[m - 1])
            if m < m_min or q * m <= 2.0:
                continue
            if nz[m - 1] * s_max < x_min:
                break
            log_b = lead + suffix[m] + (2.0 - q * m) * math.log(s_max) - math.log(q * m - 2.0)
            best_log = min(best_log, log_b)
    if not math.isfinite(best_log):
        raise NonConvergenceError("no valid envelope combination for the outer tail")
    try:
        return math.exp(best_log)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Outer adaptive integration
# ---------------------------------------------------------------------------

_WAVE_LIMIT = 1500  # panels per evaluation wave (memory control)
_PANEL_BUDGET = 40000  # outer panels, accepted plus pending, per call


def _outer_adaptive(p, coeffs, mults, s_max, tol_quad, trunc_target):
    order = _GL_ORDER
    g1, w1 = _gl_nodes(order)
    g2, w2 = _gl_nodes(2 * order)
    freq = float(np.sum(coeffs * mults))
    n_init = int(min(1024, max(6, math.ceil(s_max * freq / (2.0 * math.pi)))))
    edges = np.linspace(0.0, s_max, n_init + 1)
    # the queue: panel edges in order; accepted panels' sums, estimates and
    # propagated errors collect in waves (fsum is exactly rounded, so the
    # totals do not depend on the order of collection)
    queue_lo, queue_hi = edges[:-1], edges[1:]
    accepted = []
    n_accepted = 0
    evals = nodes = 0
    interp_bound = 0.0
    min_width = s_max * 1e-12
    kernel = _kernel(p, trunc_target)

    while queue_lo.size:
        if n_accepted + queue_lo.size > _PANEL_BUDGET:
            raise NonConvergenceError(
                f"outer panel budget {_PANEL_BUDGET} exhausted "
                f"({n_accepted} accepted, {queue_lo.size} pending)"
            )
        lo, queue_lo = queue_lo[:_WAVE_LIMIT], queue_lo[_WAVE_LIMIT:]
        hi, queue_hi = queue_hi[:_WAVE_LIMIT], queue_hi[_WAVE_LIMIT:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        n_pan = lo.size
        s_all = np.concatenate([(mid[:, None] + half[:, None] * g[None, :]).ravel() for g in (g1, g2)])
        x_all = (coeffs[:, None] * s_all[None, :]).ravel()
        kv, ke, added, interp = kernel.lookup(x_all)
        evals += x_all.size
        nodes += added
        interp_bound = max(interp_bound, interp)
        kv = kv.reshape(coeffs.size, s_all.size)
        ke = ke.reshape(coeffs.size, s_all.size)
        prod = np.prod(kv ** mults[:, None], axis=0)
        # floor keeps an exactly-zero kernel value (possible at p = inf,
        # where ke is 0 as well) from producing 0/0 in the exclusion ratio
        bounds = np.maximum(np.minimum(1.0, np.abs(kv) + ke), 1e-300)
        prod_bound = np.prod(bounds ** mults[:, None], axis=0)
        prop = np.zeros_like(prod)
        for i in range(coeffs.size):
            prop += mults[i] * ke[i] * prod_bound / bounds[i]
        f_all = prod * s_all
        e_all = prop * s_all

        k1 = n_pan * order
        f1 = (f_all[:k1].reshape(n_pan, order) * w1[None, :]).sum(axis=1) * half
        f2 = (f_all[k1:].reshape(n_pan, 2 * order) * w2[None, :]).sum(axis=1) * half
        p2 = (e_all[k1:].reshape(n_pan, 2 * order) * w2[None, :]).sum(axis=1) * half
        est = np.abs(f2 - f1)
        tol_panel = tol_quad * (hi - lo) / s_max
        accept = (est <= tol_panel) | (hi - lo <= min_width)
        accepted.append(np.stack([f2[accept], est[accept], p2[accept]]))
        n_accepted += int(np.count_nonzero(accept))
        # a rejected panel [lo, hi] becomes [lo, mid], [mid, hi] at the back
        split = ~accept
        queue_lo = np.concatenate([queue_lo, np.stack([lo[split], mid[split]], axis=1).ravel()])
        queue_hi = np.concatenate([queue_hi, np.stack([mid[split], hi[split]], axis=1).ravel()])
    total, quad_est, prop = (math.fsum(row) for row in np.concatenate(accepted, axis=1))
    return total, quad_est, prop, n_accepted, evals, nodes, interp_bound


def _auto_s_max(p, a, prefactor, tol_abs):
    """(s_max, prefactor * tail_bound_outer at s_max <= tol_abs / 2)."""
    s = 4.0
    for _ in range(260):
        tail = prefactor * tail_bound_outer(p, a, s)
        if tail <= 0.5 * tol_abs:
            return s, tail
        s_tried, s = s, s * 1.3
    raise NonConvergenceError(
        f"outer tail bound cannot reach tol_abs/2 = {0.5 * tol_abs:.3e}: "
        f"tail {tail:.3e} at s_max {s_tried:.6g}, the last tried"
    )


def section_volume_quadrature(p: float, a, tol_abs: float = 1e-8) -> VolumeResult:
    """Normalized section volume by the deterministic product-integral.

    Directions with one or two nonzero coordinates are routed to the
    exact closed forms (engine tag "closed_form").  Otherwise the outer
    integral runs to a cutoff certified by tail_bound_outer and the
    total err_bound (tail + quadrature estimate + propagated kernel
    error) is checked against tol_abs, which must be finite and positive
    on either route.
    """
    if not 0.0 < tol_abs < math.inf:
        raise ValueError(f"tol_abs must be finite and positive, got {tol_abs!r}")
    p = validate_exponent(p)
    a = canonicalize(a)
    closed = section_value(p, a)
    if closed is not None:
        return VolumeResult(closed, 0.0, "closed_form")

    prefactor = 0.5 if is_inf(p) else 0.5 * gamma(1.0 + 2.0 / p)
    s_max, tail = _auto_s_max(p, a, prefactor, tol_abs)

    groups = a.grouped()
    coeffs = np.array([g[0] for g in groups])
    mults = np.array([g[1] for g in groups])
    # deep enough that propagated kernel error stays far below tol_abs,
    # without paying full depth at loose tolerances
    trunc_target = min(tol_abs / 10.0, max(1e-13, tol_abs * 1e-5))
    tol_quad = 0.375 * tol_abs / prefactor
    total, quad_est, inner_prop, n_panels, evals, nodes, interp = _outer_adaptive(
        p, coeffs, mults, s_max, tol_quad, trunc_target
    )
    value = prefactor * total
    # Gamma(1+2/p) and the product with it round; at p = inf the factor 1/2 is exact
    pref_err = 0.0 if is_inf(p) else _PREF_REL_ERR * abs(value)
    err = tail + prefactor * (quad_est + inner_prop) + pref_err
    meta = {
        "s_max": s_max,
        "panels": n_panels,
        "kernel_evals": evals,
        "kernel_nodes": nodes,
        "kernel_interp_bound": interp,
        "tail_bound": tail,
        "quadrature_estimate": prefactor * quad_est,
        "kernel_error_propagated": prefactor * inner_prop,
        "prefactor_error": pref_err,
    }
    if err > tol_abs:
        raise NonConvergenceError(
            f"certified error {err:.3e} exceeds tol_abs {tol_abs:.3e} at s_max {s_max:.6g}: "
            f"tail {tail:.3e}, quadrature {meta['quadrature_estimate']:.3e}, "
            f"propagated kernel error {meta['kernel_error_propagated']:.3e}, "
            f"prefactor {pref_err:.3e}"
        )
    return VolumeResult(value, err, "quadrature", meta)
