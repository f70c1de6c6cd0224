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
* Kernel truncation at r_max is certified in closed form: with s = 2/p, X =
  r_max^p, |tail| <= 2/(Gamma(1+2/p) p) X^(s-1) e^-X (1 + max(s-1, 0)/X).
* Kernel quadrature error is certified: radial cells graded dyadically
  in u = r^p (so the weight varies by at most one octave per cell,
  whatever p) are subdivided to quarter-period width (so each panel sees
  at most one sign change of the oscillatory factor), and each subpanel
  is integrated once with 12 Gauss-Legendre nodes, its error bounded by
  the integrand's maximum on a Bernstein ellipse (Trefethen, ATAP
  Thm 19.3; see _Kernel.direct).  The kernel's bound also covers the
  rounding of 2/Gamma(1+2/p) and of the panel sums.
* For finite p the outer quadrature reads the kernel from a per-p
  piecewise Chebyshev table: degree 24 on panels of one width per
  kernel, the widest power of two from 2 up whose interpolation bound
  takes at most a third of the room the x-uniform errors leave in the
  kernel target (8 from p ~ 5 on at kernel targets 1e-9 to 1e-13), with
  nodes from the radial quadrature.  Each table value carries a
  certified bound: the kernel's x-uniform errors (truncation, flat head)
  once, the nodes' bounds times the Lebesgue constant, the
  interpolation error (ATAP Thm 8.2, from a bound on |k_p| in a strip,
  _log_strip_max), and rounding.  The table covers arguments below the
  kernel's `extent`: 2^17, or 0 at p = inf and where the uniform and
  interpolation terms alone miss the kernel target.  Arguments past it
  and panels whose bound exceeds the target take _Kernel.values, the
  one route off the table (the closed form, or the radial quadrature).
* The outer integral is truncated at s_max, the least cutoff where a
  rigorous envelope bound (tail_bound_outer, the least of a table of
  power laws, each solved in closed form) meets tol_abs / 2, times
  1 + 2^-30 to absorb the solve's rounding, and
  integrated by one 24-node Gauss-Legendre rule on n equal panels, n
  the fewest whose certified bound (ATAP Thm 19.3, from the same strip
  bound, which tends to 1 for thin strips, so that the product of one
  factor per coordinate stays bounded) meets the target, found before
  any kernel value; to it come the rule's rounding, the kernel errors
  propagated through |d prod| <= sum_j |d k_j| * prod of bounds, and the
  prefactor's.

Kernel work runs in batches of about _BATCH_POINTS rule points: blocks
of radial subpanels in _Kernel.direct (one argument's subpanels are
never split) and waves of outer panels, whatever the number of
coordinates.  The batches change no bit.

The one setting is tol_abs.  A call whose certified bound misses it,
whose cutoff is past the double range, or whose rule bound needs more
than _PANEL_BUDGET outer panels, raises NonConvergenceError.

Results depend only on the arguments.  The only shared state is two
lazily filled caches: the kernels (one per p and kernel target, each
with its interpolation bound and table) and the Gauss-Legendre nodes.
A table panel depends only on (p, kernel target, panel index), and a
table grows by swapping in new arrays, so concurrent calls stay safe and
cache state never shows in a value or a bound (only meta's kernel_nodes,
the nodes a call added, depends on it).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import section_value
from .direction import canonicalize, validate_exponent
from .specfun import GAMMA_REL_ERR, gamma, j0_array, j1_array

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


# Gauss-Legendre nodes per panel.  Kernel radial subpanels take _GL_ORDER
# nodes and certify the rule's error on the Bernstein ellipse rho = 5
# (_Kernel.direct); outer panels take _OUTER_ORDER nodes, certified on
# the best ellipse of a fixed grid (_outer_bound).
_GL_ORDER = 12
_OUTER_ORDER = 24
# bounds sum_k |w_k - w_exact_k| for leggauss's weights (55.9 u; nodes within u)
_OUTER_WEIGHT_ERR = 64.0 * _U
# ATAP Thm 19.3 at rho = 5, 64/15 rho^(-2 n) / (rho^2 - 1) per unit of
# M * half-width, doubled for the rounding of the bound itself
_GL_ELLIPSE_BOUND = 2.0 * 64.0 / 15.0 * 5.0 ** (-2 * _GL_ORDER) / 24.0


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


def _log_tail_bound(p: float, x: float) -> float:
    """log of a bound on 2/Gamma(1+2/p) * 1/p * Gamma(s, X), s = 2/p <= 2, for X
    = x (1 + eta), |eta| <= 2u, x >= 1: u^(s-1) <= X^(s-1) on [X, inf) if s <= 1
    (DLMF 8.10.1), else Gamma(s, X) = X^(s-1) e^-X + (s-1) Gamma(s-1, X) (8.8.2)."""
    s = 2.0 / p
    a = math.log(2.0 / gamma(1.0 + s) / p * (1.0 + max(s - 1.0, 0.0) / x))
    b = (s - 1.0) * math.log(x)
    # the last term covers _PREF_REL_ERR + 6u for the log's argument, 2u |a|
    # for the log, 3u (x + |b|) for b, 3u (|a| + |b| + x) for the additions,
    # 2u x + 4u for eta and 2u for the caller's exp (log, pow, exp within an ulp)
    return a + b - x + _PREF_REL_ERR + 8.0 * _U * (2.0 + abs(a) + abs(b) + x)


def _trunc_radius(p: float, target: float) -> tuple[float, float]:
    """Kernel cutoff r_max and truncation bound cert, log cert <= log target:
    X = r_max^p grows by 1.15 from max(ln(4/(Gamma(1+2/p) target)), 1)."""
    g2 = gamma(1.0 + 2.0 / p)
    big_x = max(math.log(4.0 / (g2 * target)), 1.0)
    for _ in range(80):
        r_max = big_x ** (1.0 / p)
        log_bound = _log_tail_bound(p, r_max ** p)
        if log_bound <= math.log(target):
            return r_max, math.exp(log_bound)
        big_x *= 1.15
    raise NonConvergenceError(f"cannot certify kernel truncation at p={p}, target={target}")


def _weight(r: np.ndarray, p: float) -> np.ndarray:
    return np.exp(-(r ** p)) * r


# kernel-rule points per batch: _Kernel.direct's blocks of radial
# subpanels and _outer_adaptive's waves of outer panels, so that their
# temporaries stay small (_log_strip_max's blocks take as many entries)
_BATCH_POINTS = 12 * 4096


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


def _gamma_n(k, u: float):
    return k * u / (1.0 - k * u)


def kernel_values(p: float, x, trunc_target: float = 1e-13):
    """Vectorized kernel evaluation, never from the table.

    Returns (values, err_bounds) for an array of nonnegative finite
    arguments: _Kernel.values of the cached kernel for (p, trunc_target).
    Arguments that are all 0 return 1 with error 0 without setting a
    kernel up.
    """
    p = validate_exponent(p)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x < 0.0):
        raise ValueError("kernel argument must be nonnegative")
    if not np.all(np.isfinite(x)):
        raise ValueError("kernel argument must be finite")
    if not np.any(x):
        return np.ones_like(x), np.zeros_like(x)
    return _kernel(p, trunc_target).values(x)


# ---------------------------------------------------------------------------
# The kernel per (p, target): its radial set-up and Chebyshev table
# ---------------------------------------------------------------------------

# Panel i of a kernel's table, of width w (_Kernel.width), covers
# [w i, w i + w] and carries the degree-24 interpolant of k_p at the 25
# Chebyshev points of the second kind mapped onto it.
_CHEB_DEGREE = 24
# Lebesgue constant bound of those points, 1 + (2/pi) ln(n + 1) (Trefethen,
# Approximation Theory and Approximation Practice, Thm 15.2)
_CHEB_LEBESGUE = 1.0 + 2.0 / math.pi * math.log(_CHEB_DEGREE + 1)
# Bernstein ellipse parameters tried for the interpolation and outer bounds
_RHO_GRID = np.geomspace(1.5, 256.0, 48)
# splits b r - r^p = (b r - t r^p) - (1 - t) r^p tried by _log_strip_max:
# small t for thin strips (the bound tends to 1 as b -> 0), t near 1 for wide
_YOUNG_T = np.r_[np.geomspace(2.0 ** -50, 0.5, 50, endpoint=False), 1.0 - np.geomspace(0.5, 2.0 ** -20, 40)]
# arguments a full table covers, [0, 2^17): a whole number of panels
# of any power-of-two width up to 2^17
_TABLE_EXTENT = float(1 << 17)
_U_LD = float(np.finfo(np.longdouble).epsneg)


def _log_strip_max(p: float, b: np.ndarray) -> np.ndarray:
    """log of a bound on sup |k_p(z)| over |Im z| <= b, for each entry of
    an array of b > 0 (inf where none is finite).  |J0(w)| <= e^|Im w| gives |k_p(z)|
    <= 2/Gamma(1+2/p) int_0^inf e^(b r - r^p) r dr.  For p > 1 and
    0 < t < 1, b r - t r^p is at most (1 - 1/p) b r_t, r_t = (b /
    (t p))^(1/(p-1)), and e^(-(1-t) r^p) integrates to exactly
    Gamma(1+2/p)/2 (1-t)^(-2/p); the minimum over _YOUNG_T is returned.
    _YOUNG_T reaches down to t = 2^-50, so the bound tends to 1 (log 0)
    for thin strips: a t bounded away from 0 would leave (1-t)^(-2/p)
    however small b is.  At p = inf this is e^b (r_t = 0^0 = 1); at p = 1
    the integral is (1 - b)^-2 for b < 1."""
    if p == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b < 1.0, -2.0 * np.log1p(-b), math.inf)
    t = _YOUNG_T.reshape((-1,) + (1,) * b.ndim)
    # the minimum over t in blocks of rows of b, so that the (t, block)
    # temporaries stay near _BATCH_POINTS entries however many rows b has
    rows = max(1, _BATCH_POINTS // (_YOUNG_T.size * math.prod(b.shape[1:])))
    out = np.empty(b.shape)
    for start in range(0, len(b), rows):
        blk = b[start:start + rows]
        with np.errstate(over="ignore"):
            r_t = (blk / (t * p)) ** (1.0 / (p - 1.0))
            out[start:start + rows] = np.min(((1.0 - 1.0 / p) * blk) * r_t - (2.0 / p) * np.log1p(-t), axis=0)
    return out


def _interp_bound(p: float, width: float) -> float:
    """Certified bound on |k - q| over any panel of the given width, q
    the degree-24 Chebyshev interpolant of k = k_p, or of the kernel
    that kernel_values integrates (truncated at r_max, weight 1 on the
    flat head, where e^-r^p > 1 - 2^-20).

    ATAP Thm 8.2 gives |k - q| <= 4 M rho^-n / (rho - 1) when |k| <= M
    on the Bernstein ellipse E_rho of the panel, which lies in the strip
    |Im z| <= h (rho - 1/rho)/2, h = width/2 the half-width; 1 + 1e-5
    covers the flat head (its weight is within 2^-20 of the strip
    bound's, at any width) and rounding.  The minimum over _RHO_GRID
    (at p = 1 over the rho where the strip bound is finite)."""
    log_m = _log_strip_max(p, 0.25 * width * (_RHO_GRID - 1.0 / _RHO_GRID))
    with np.errstate(over="ignore"):
        bound = 4.0 * (1.0 + 1e-5) * np.exp(log_m - _CHEB_DEGREE * np.log(_RHO_GRID)) / (_RHO_GRID - 1.0)
    return float(np.min(bound))


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


_CHEB_NODES, _CHEB_DCT = _cheb_basis()


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
    radial `cells`, the flat head's weight bound `head_cert`, the prefactor
    `pref` = 2/Gamma(1+2/p) and the x-uniform error `uniform` of the
    radial quadrature `direct`, the table's panel `width` and its
    interpolation bound `interp` (_interp_bound), and a piecewise
    Chebyshev table filled panel by panel on demand for arguments below
    `extent`.  `values` is the one route off the table.  `extent` is 0.0
    where no table panel could pass, so that lookup never reads the
    table: at p = inf (a closed form, which holds nothing else) and
    wherever uniform + interp alone misses trunc_target (p at or near 1
    at tight targets: at p = 1 and width 2, interp is 1.7e-6).

    `width` is the widest power of two from 2 up whose interpolation
    bound is at most a third of trunc_target - uniform: that room holds
    a panel's three other terms (the nodes' errors through the Lebesgue
    constant, the interpolation error and rounding), and the nodes and
    rounding keep the other two thirds.  It depends on (p, trunc_target)
    alone.  Powers of two make x / width and (x - centre) / (width / 2)
    exact scalings, so the map from x to a panel and its variable t adds
    no rounding beyond the subtraction's.

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
        self.extent = 0.0
        if math.isinf(p):
            return
        r_max, self.cert = _trunc_radius(p, trunc_target)
        # octaves of dyadic radial cells below u = r^p = 1 (see _weight_cells)
        levels = int(min(48, max(20, math.ceil(-math.log2(trunc_target)))))
        self.cells = _weight_cells(p, r_max, levels)
        self.head_cert = 2.0 ** -levels * 0.5 * self.cells[0] * self.cells[0]
        self.pref = 2.0 / gamma(1.0 + 2.0 / p)
        self.uniform = self.cert + self.pref * self.head_cert
        room = (trunc_target - self.uniform) / 3.0
        self.width, self.interp = 2.0, _interp_bound(p, 2.0)
        while (wider := _interp_bound(p, 2.0 * self.width)) <= room:
            self.width, self.interp = 2.0 * self.width, wider
        self.extent = _TABLE_EXTENT if self.uniform + self.interp <= trunc_target else 0.0

    def values(self, x: np.ndarray):
        """(values, errors) off the table for nonnegative finite x: the
        closed form 2 J1(x)/x at p = inf (error 0), exactly 1 at x = 0,
        otherwise `direct` with `uniform` added to its errors."""
        if math.isinf(self.p):
            return _j1_normalized(x), np.zeros_like(x)
        vals, errs = np.ones_like(x), np.zeros_like(x)
        nz = x != 0.0
        if np.any(nz):
            vals[nz], errs[nz] = self.direct(x[nz])
            errs[nz] += self.uniform
        return vals, errs

    def direct(self, x: np.ndarray):
        """(values, errors) of pref * int_0^r_max J0(x r) exp(-r^p) r dr
        for an array of nonnegative x, the errors without `uniform`.

        The flat head [0, r_flat] is the closed form r_flat^2/2 *
        j1n(x r_flat).  Each cell is cut into subpanels of at most a
        quarter period of J0(x r), each integrated once with _GL_ORDER
        nodes.  On a subpanel (centre mid, half-width half) the rule's
        error is at most _GL_ELLIPSE_BOUND * M * half, M the integrand's
        modulus on the Bernstein ellipse rho = 5, with half-axes 2.6 half
        and 2.4 half.  There |J0(x r)| <= e^(x |Im r|), |r| <= mid + 5
        half, and |exp(-r^p)| <= exp(-near^p cos(p phi)), with near = mid
        - 2.6 half and phi = atan(2.4 half / near), if near > 0 and
        p phi < pi/2.  Both hold for rho = 5 at every p >= 1: a cell is at
        most c = 2^(1/p) - 1 times its left end lo wide (dyadic in u = r^p
        below 1, unit steps above, clipped at r_max), so near >= lo (1 -
        0.8 c) >= 0.2 lo and p phi <= p atan(1.2 c / (1 - 0.8 c)) <= 1.43
        (worst near p = 1.18); a subpanel's near and phi are no worse
        than its cell's.

        Rounding: gamma_(k+14) times the sum of the terms' magnitudes for
        k subpanels per x (two products per node, the node sum and the
        panel sum, in any order), gamma_4 (|head| + |raw|) for the head's
        three products and its addition, and the prefactor's."""
        gl_x, gl_w = _gl_nodes(_GL_ORDER)
        r_flat, cell_lo, cell_w = self.cells
        head = 0.5 * r_flat * r_flat * _j1_normalized(x * r_flat)
        # exact subpanels per argument, one cell at a time: the (x, cell)
        # counts form for one block only
        per_x = np.zeros_like(x)
        for w in cell_w:
            per_x += np.maximum(np.ceil(x * w / (0.5 * math.pi)), 1.0)
        per_x = per_x.astype(np.int64)
        csum = np.cumsum(per_x)
        vals, bound, mags = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        start = 0
        while start < x.size:
            base = csum[start - 1] if start else 0
            stop = max(int(np.searchsorted(csum, base + _BATCH_POINTS // _GL_ORDER, side="right")), start + 1)
            C = np.ceil(np.outer(x[start:stop], cell_w) / (0.5 * math.pi)).astype(np.int64)
            np.maximum(C, 1, out=C)
            nx, ncells = C.shape
            cflat = C.ravel()
            pan_cell = np.repeat(np.tile(np.arange(ncells), nx), cflat)
            pan_x = np.repeat(np.repeat(np.arange(nx), ncells), cflat)
            within = np.arange(csum[stop - 1] - base) - np.repeat(np.cumsum(cflat) - cflat, cflat)
            sub_w = cell_w[pan_cell] / np.repeat(cflat, cflat)
            lo = cell_lo[pan_cell] + within * sub_w
            mid = lo + 0.5 * sub_w
            half = 0.5 * sub_w
            x_rep = x[start:stop][pan_x]
            r = mid[:, None] + half[:, None] * gl_x[None, :]
            fw = j0_array(x_rep[:, None] * r) * _weight(r, self.p) * gl_w[None, :]
            near = mid - 2.6 * half
            m = np.exp(2.4 * half * x_rep - near ** self.p * np.cos(self.p * np.arctan(2.4 * half / near)))
            x_offs = csum[start:stop] - per_x[start:stop] - base
            vals[start:stop] = np.add.reduceat(fw.sum(axis=1) * half, x_offs)
            bound[start:stop] = np.add.reduceat(_GL_ELLIPSE_BOUND * m * (mid + 5.0 * half) * half, x_offs)
            mags[start:stop] = np.add.reduceat(np.abs(fw, out=fw).sum(axis=1) * half, x_offs)
            start = stop
        raw = vals + head
        rounding = _gamma_n(per_x + 14, _U) * mags + _gamma_n(4, _U) * (np.abs(head) + np.abs(raw))
        values = self.pref * raw
        return values, self.pref * (bound + rounding) + _PREF_REL_ERR * np.abs(values)

    def _panels(self, first: int, stop: int):
        """Coefficients, certified errors and the number of `direct`
        points evaluated for panels first .. stop-1.

        The nodes come from `direct`, whose errors leave out `uniform`
        (truncation tail and flat-head weight): that bounds one smooth
        function of x at every x, so the table interpolates the kernel
        without it and adds it once.  Per panel:
        * the nodes' quadrature and rounding bounds pass through the
          Lebesgue constant;
        * the interpolation error is `interp`;
        * rounding: the longdouble transform and the coefficients'
          rounding to double, Clenshaw's local errors (|b_k| <=
          sum_j>=k (j-k+1)|c_j|, |T_j| <= 1), and the rounding of node
          and query abscissae, through |dq/dt| <= sum j^2 |c_j|, doubled
          for the interpolation error's slope: in t, on a panel of
          centre c and half-width h, each is within u (2 + (c + h) / h),
          an error of u (2 h + c + h) in x over h (the node x = c + h t_k
          with t_k within u of the exact Chebyshev point, the query t =
          (x - c) / h, which rounds only in the subtraction).
        """
        t, dct = _CHEB_NODES, _CHEB_DCT
        n = _CHEB_DEGREE
        half = 0.5 * self.width
        centres = self.width * np.arange(first, stop, dtype=np.float64) + half
        x = centres[:, None] + half * t[None, :]
        # neighbouring panels share their end nodes: evaluate each once
        xs, inverse = np.unique(x, return_inverse=True)
        vals, errs = self.direct(xs)
        vals = vals[inverse].reshape(x.shape)
        errs = errs[inverse].reshape(x.shape)
        coeffs = (vals.astype(np.longdouble) @ dct.T).astype(np.float64)

        node = np.max(errs, axis=1)
        j = np.arange(n + 1, dtype=np.float64)
        mag = np.abs(coeffs)
        transform = _gamma_n(n + 3, _U_LD) * (np.abs(vals) @ np.abs(dct).astype(np.float64).T).sum(axis=1)
        clenshaw = 2.0 * _gamma_n(3, _U) * (mag @ (1.0 + 1.5 * j * (j + 1.0)))
        abscissae = _U * (1.0 + _CHEB_LEBESGUE) * (2.0 * half + centres + half) / half * 2.0 * (mag @ (j * j))
        rounding = _U * mag.sum(axis=1) + transform + clenshaw + abscissae
        err = self.uniform + _CHEB_LEBESGUE * node + self.interp + rounding
        err[~(err <= self.trunc_target)] = math.inf
        return coeffs.T, err, xs.size

    def lookup(self, x: np.ndarray):
        """(values, errors, nodes added, interpolation bound or 0.0 if no
        value came from the table) for nonnegative finite x.  Points at or
        past `extent` (all of them where extent is 0.0) and points on
        panels without a certified fit take `values`."""
        past = x >= self.extent
        if np.all(past):
            return (*self.values(x), 0, 0.0)
        # past points read panel 0 and go direct: they must not grow the table
        idx = np.where(past, 0.0, x * (1.0 / self.width)).astype(np.intp)
        coeffs, errs = self.state
        need = int(idx.max()) + 1
        added = 0
        if need > errs.size:
            new_coeffs, new_errs, added = self._panels(errs.size, need)
            coeffs, errs = np.concatenate([coeffs, new_coeffs], axis=1), np.concatenate([errs, new_errs])
            self.state = (coeffs, errs)
        err = errs.take(idx)
        err[past] = math.inf
        half = 0.5 * self.width
        t = (x - (self.width * idx + half)) * (1.0 / half)
        vals = _clenshaw(coeffs, idx, t)
        direct = np.isinf(err)
        if np.any(direct):
            vals[direct], err[direct] = self.values(x[direct])
        interp = 0.0 if np.all(direct) else self.interp
        return vals, err, added, interp


@functools.lru_cache(maxsize=64)
def _kernel(p: float, trunc_target: float) -> _Kernel:
    return _Kernel(p, trunc_target)


# ---------------------------------------------------------------------------
# Envelopes and outer tail bounds
# ---------------------------------------------------------------------------


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
    if math.isinf(p):
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


def _tail_laws(p: float, b: np.ndarray):
    """Arrays (log K, e, s_lo) of the power laws K S^-e that bound
    int_S^inf prod_j |k_p(b_j s)| s ds for S >= s_lo, b the nonzero
    coordinates sorted descending: per envelope family (q, C, x_min) and
    cut m with e = q m - 2 > 0, the m largest take C (b_j s)^-q, valid
    for S >= x_min / b_m, the rest 1, so K = prod_j<=m C b_j^-q / e.
    Capping the rest at their envelope values at S gives no less: the
    caps below 1 form a run m+1 .. m' of b, and taking them into the
    power law is the law of cut m', which is valid and no larger."""
    q, c, x_min = (np.array(v)[:, None] for v in zip(*_envelope_families(p)))
    e = q * np.arange(1, b.size + 1) - 2.0
    ok = e > 0.0
    log_k = np.cumsum(np.log(c) - q * np.log(b), axis=1) - np.log(np.where(ok, e, 1.0))
    # x_min / b overflows for a subnormal b: inf, a law valid nowhere
    with np.errstate(over="ignore"):
        return log_k[ok], e[ok], (x_min / b)[ok]


def tail_bound_outer(p: float, a, s_max: float) -> float:
    """Rigorous upper bound on int_{s_max}^inf prod_j |k_p(a_j s)| s ds:
    the least law of _tail_laws valid at s_max (the q=1 cut m=3 always
    is), or math.inf past the double range.  Requires at least three
    nonzero coordinates (two-coordinate products decay too slowly for
    the q=1 envelope to integrate)."""
    p = validate_exponent(p)
    a = canonicalize(a)
    if not s_max > 0.0:
        raise ValueError("s_max must be positive")
    b = np.array(a.nonzero())
    if b.size < 3:
        raise DimensionError("outer tail bound needs at least 3 nonzero coordinates")
    log_k, expo, s_lo = _tail_laws(p, b)
    try:
        return math.exp(float(np.min((log_k - expo * math.log(s_max))[s_lo <= s_max])))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Outer adaptive integration
# ---------------------------------------------------------------------------

_PANEL_BUDGET = 40000  # outer panels per call


def _outer_bound(p, coeffs, mults, s_max, n):
    """Error bound of the exact N = _OUTER_ORDER point Gauss-Legendre rule
    on n equal panels of [0, s_max] for int prod_j k_p(a_j s)^m_j s ds,
    exact kernels.  A panel (centre mid, half-width h = s_max / (2 n))
    errs by at most h 64/15 M rho^(-2 N) / (rho^2 - 1) (ATAP Thm 19.3),
    M the integrand's modulus on its Bernstein ellipse E_rho, where
    |Im(a_j s)| <= a_j h (rho - 1/rho)/2 (_log_strip_max) and |s| <= mid
    + h (rho + 1/rho)/2; summed, s_max/2 (s_max/2 + h (rho + 1/rho)/2).
    Doubled for rounding; min over _RHO_GRID; it does not grow with n."""
    rho = _RHO_GRID
    h = 0.5 * s_max / n
    # past the double range a term is inf: no finite bound on that ellipse
    with np.errstate(over="ignore"):
        log_m = mults @ _log_strip_max(p, np.outer(coeffs, 0.5 * h * (rho - 1.0 / rho)))
        reach = 0.5 * s_max * (0.5 * s_max + 0.5 * h * (rho + 1.0 / rho))
        bound = 2.0 * 64.0 / 15.0 * np.exp(log_m - 2 * _OUTER_ORDER * np.log(rho)) * reach / (rho * rho - 1.0)
    return float(np.min(bound))


def _outer_adaptive(p, coeffs, mults, s_max, tol_quad, trunc_target):
    """(sum, rule and rounding bound, propagated kernel error, panels,
    kernel points, table nodes added, interpolation bound) on the fewest
    equal panels, 1 or more, whose _outer_bound meets tol_quad (doubling
    from 1, then bisection).  Rounding: a node is within ds = 4 u (mid
    + half) of the exact one and an argument within a_j (ds + u s), which
    moves k_p by at most `slope` >= |k_p'| (2/Gamma(1+2/p) max|J1|
    int r^2 e^-r^p dr) times that, a kernel error; the weights move a panel
    sum by _OUTER_WEIGHT_ERR max|f|; products and sums take gamma_(N+2g+4)."""
    # bound(fail) > tol_quad or fail = 0; then bound = bound(n) <= tol_quad
    fail, n = 0, 1
    while (bound := _outer_bound(p, coeffs, mults, s_max, n)) > tol_quad:
        if n >= _PANEL_BUDGET:
            raise NonConvergenceError(f"outer panel budget {_PANEL_BUDGET} exhausted at s_max {s_max:.6g}")
        fail, n = n, min(2 * n, _PANEL_BUDGET)
    while n - fail > 1:
        half_way = (fail + n) // 2
        trial = _outer_bound(p, coeffs, mults, s_max, half_way)
        if trial > tol_quad:
            fail = half_way
        else:
            n, bound = half_way, trial
    g, w = _gl_nodes(_OUTER_ORDER)
    gam = _gamma_n(_OUTER_ORDER + 2 * coeffs.size + 4, _U)
    slope = 2.0 * J1_MAX_BOUND * gamma(1.0 + 3.0 / p) / (3.0 * gamma(1.0 + 2.0 / p))
    edges = np.linspace(0.0, s_max, n + 1)
    kernel = _kernel(p, trunc_target)
    # panel sums, propagated errors and rounding bounds collect in waves of
    # about _BATCH_POINTS kernel arguments (fsum is exactly rounded, so the
    # totals do not depend on the waves)
    wave = max(1, _BATCH_POINTS // (_OUTER_ORDER * coeffs.size))
    sums, props, rounds = [], [], []
    nodes, interp_bound = 0, 0.0
    for start in range(0, n, wave):
        lo, hi = edges[start:n][:wave], edges[start + 1:][:wave]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s_all = (mid[:, None] + half[:, None] * g[None, :]).ravel()
        kv, ke, added, interp = kernel.lookup((coeffs[:, None] * s_all[None, :]).ravel())
        nodes += added
        interp_bound = max(interp_bound, interp)
        ds = np.repeat(4.0 * _U * (mid + half), _OUTER_ORDER)
        kv = kv.reshape(coeffs.size, s_all.size)
        ke = ke.reshape(coeffs.size, s_all.size) + slope * coeffs[:, None] * (ds + _U * s_all)
        prod = np.prod(kv ** mults[:, None], axis=0)
        # floor keeps an exactly-zero kernel value (possible at p = inf,
        # where ke is 0 as well) from producing 0/0 in the exclusion ratio
        bounds = np.maximum(np.minimum(1.0, np.abs(kv) + ke), 1e-300)
        prod_bound = np.prod(bounds ** mults[:, None], axis=0)
        prop = (mults[:, None] * ke * prod_bound / bounds).sum(axis=0)
        sums.append(((prod * s_all).reshape(lo.size, _OUTER_ORDER) * w[None, :]).sum(axis=1) * half)
        props.append(((prop * s_all).reshape(lo.size, _OUTER_ORDER) * w[None, :]).sum(axis=1) * half)
        mag = (prod_bound * (s_all + ds)).reshape(lo.size, _OUTER_ORDER)
        rounds.append((mag @ (gam * w) + _OUTER_WEIGHT_ERR * mag.max(axis=1)
                         + (prod_bound * ds).reshape(mag.shape) @ w) * half)
    total, prop, rounding = (math.fsum(np.concatenate(parts)) for parts in (sums, props, rounds))
    return total, bound + rounding, prop, n, _OUTER_ORDER * n * coeffs.size, nodes, interp_bound


def _auto_s_max(p, a, prefactor, tol_abs):
    """(s_max, prefactor * tail_bound_outer at s_max <= tol_abs / 2): the
    least S where a law of _tail_laws is valid and meets tol_abs / 2,
    solved in closed form per law, times 1 + 2^-30 (NonConvergenceError
    past the double range)."""
    log_k, expo, s_lo = _tail_laws(p, np.array(a.nonzero()))
    with np.errstate(divide="ignore", over="ignore"):
        need = np.min(np.maximum(s_lo, np.exp((log_k - np.log(0.5 * tol_abs / prefactor)) / expo)))
    # every law has exponent e >= 1, so this factor lowers its tail by at
    # least 9e-10 relative: far above the ~1e-13 relative rounding of the
    # solve exp((log K - log target) / e) and of tail_bound_outer
    s_max = float(need) * (1.0 + 2.0 ** -30)
    tail = prefactor * tail_bound_outer(p, a, s_max) if s_max < math.inf else math.inf
    if not tail <= 0.5 * tol_abs:
        raise NonConvergenceError(f"outer tail bound cannot reach tol_abs/2 = {0.5 * tol_abs:.3e}: "
                                  f"tail {tail:.3e} at s_max {s_max:.6g}")
    return s_max, tail


def section_volume_quadrature(p: float, a, tol_abs: float = 1e-8) -> VolumeResult:
    """Normalized section volume by the deterministic product-integral.

    Directions with one or two nonzero coordinates are routed to the
    exact closed forms (engine tag "closed_form").  Otherwise the outer
    integral runs to a cutoff certified by tail_bound_outer and the
    total err_bound (tail, outer rule and rounding bound, propagated
    kernel error, prefactor rounding) is checked against tol_abs, which
    must be finite and positive on either route.
    """
    if not 0.0 < tol_abs < math.inf:
        raise ValueError(f"tol_abs must be finite and positive, got {tol_abs!r}")
    p = validate_exponent(p)
    a = canonicalize(a)
    closed = section_value(p, a)
    if closed is not None:
        return VolumeResult(closed, 0.0, "closed_form")

    prefactor = 0.5 * gamma(1.0 + 2.0 / p)
    s_max, tail = _auto_s_max(p, a, prefactor, tol_abs)

    groups = a.grouped()
    coeffs = np.array([g[0] for g in groups])
    mults = np.array([g[1] for g in groups])
    # deep enough that propagated kernel error stays far below tol_abs,
    # without paying full depth at loose tolerances
    trunc_target = min(tol_abs / 10.0, max(1e-13, tol_abs * 1e-5))
    tol_quad = 0.375 * tol_abs / prefactor
    total, quad_bound, inner_prop, n_panels, evals, nodes, interp = _outer_adaptive(
        p, coeffs, mults, s_max, tol_quad, trunc_target
    )
    value = prefactor * total
    # Gamma(1+2/p) and the product with it round; at p = inf the factor 1/2 is exact
    pref_err = 0.0 if math.isinf(p) else _PREF_REL_ERR * abs(value)
    err = tail + prefactor * (quad_bound + inner_prop) + pref_err
    meta = {
        "s_max": s_max,
        "panels": n_panels,
        "kernel_evals": evals,
        "kernel_nodes": nodes,
        "kernel_interp_bound": interp,
        "tail_bound": tail,
        "quadrature_bound": prefactor * quad_bound,
        "kernel_error_propagated": prefactor * inner_prop,
        "prefactor_error": pref_err,
    }
    if err > tol_abs:
        raise NonConvergenceError(
            f"certified error {err:.3e} exceeds tol_abs {tol_abs:.3e} at s_max {s_max:.6g}: "
            f"tail {tail:.3e}, quadrature {meta['quadrature_bound']:.3e}, "
            f"propagated kernel error {meta['kernel_error_propagated']:.3e}, "
            f"prefactor {pref_err:.3e}"
        )
    return VolumeResult(value, err, "quadrature", meta)
