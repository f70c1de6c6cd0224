"""Self-contained special-function kernel.

Everything here is a pure function of its arguments (no shared mutable
state apart from the read-only Bessel table, built once on first use),
so concurrent use is safe.  Accuracy contracts:

    gamma       relative error <= GAMMA_REL_ERR = 1e-15 on (0, 5]
    digamma     absolute error <= 1e-12 on [1, 10]
    j0/j1_array absolute error <= 1e-13 for |x| <= 50, <= 1e-10 beyond;
                J1 relative error <= 1e-15 for |x| <= 1e-2; J0(0) = 1 and
                J1(0) = 0 exactly; NaN in, NaN out

Algorithms: the standard library's math.gamma for Gamma (within 8.1e-16
relative of mpmath on a dense grid of (0, 5]); asymptotic series plus
downward recurrence for digamma; for J0/J1 the power series up to x = 2, a
piecewise polynomial table on (2, 16] (degree 13 per interval of width
1/2, interpolating the power series summed in 128-bit fixed-point
integers) and the Hankel asymptotic expansion above.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Gamma(x) for x > 0; GAMMA_REL_ERR bounds its relative error on (0, 5]
gamma = math.gamma
GAMMA_REL_ERR = 1e-15

# Bernoulli numbers B_2, B_4, ..., B_14.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def digamma(x: float) -> float:
    """Psi(x) = d/dx ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    # Shift into the asymptotic regime: Psi(x) = Psi(x+1) - 1/x.
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = math.log(x) - 0.5 / x
    pw = inv2
    for k, b in enumerate(_BERNOULLI):
        s -= b / (2 * (k + 1)) * pw
        pw *= inv2
    return s + acc


# ---------------------------------------------------------------------------
# Bessel functions J0, J1
# ---------------------------------------------------------------------------

# Ranges: the power series in double precision up to x = 2 (exact at 0,
# and relatively accurate for tiny x), a piecewise polynomial table on
# (2, 16], the Hankel asymptotic expansion beyond.  The table holds one
# polynomial of degree 13 per interval of width 1/2, in a local variable
# t in [-1, 1], interpolating J at Chebyshev points.  Its node values
# come from the power series summed in fixed-point integers with 128
# fraction bits (in floating point, its alternating cancellation costs
# ~1e-14 even at 80 bits), and it is built on first use, not at import.
_SERIES_CUT = 2.0
_TABLE_CUT = 16.0
_TABLE_WIDTH = 0.5
_TABLE_DEGREE = 13
# fraction bits of the fixed-point node sums, and their term count (the
# last term is below 1e-55 up to x = 16)
_NODE_BITS = 128
_NODE_TERMS = 60


def _series_coeffs(order: int, terms: int):
    # J_order(x) = (x/2)^order sum_m c_m t^m, t = (x/2)^2
    c = np.empty(terms + 1)
    c[0] = 1.0
    for m in range(1, terms + 1):
        c[m] = -c[m - 1] / (m * (m + order))
    return c


def _asym_coeffs(order: int, terms: int = 22):
    # Hankel expansion J_nu = sqrt(2/(pi x)) (P cos chi - Q sin chi),
    # chi = x - nu pi/2 - pi/4, P and Q polynomials in 1/x^2.
    mu = 4 * order * order
    u = 1.0
    cp = [1.0]
    cq = []
    for j in range(1, terms + 1):
        u = u * (mu - (2 * j - 1) ** 2) / (8.0 * j)
        if j % 2 == 1:
            cq.append(u if (j // 2) % 2 == 0 else -u)
        else:
            cp.append(u if (j // 2) % 2 == 0 else -u)
    return np.array(cp), np.array(cq)


_J_SERIES = {0: _series_coeffs(0, 14), 1: _series_coeffs(1, 14)}
_J_ASYM = {0: _asym_coeffs(0), 1: _asym_coeffs(1)}


def _horner(t: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] t^k, in place; the same operations in the same
    order as numpy's polyval, without its two temporaries per step."""
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _bessel_series(x: np.ndarray, order: int) -> np.ndarray:
    acc = _horner((0.5 * x) ** 2, _J_SERIES[order])
    if order == 1:
        acc *= 0.5 * x
    return acc


def _series_exact(x, order: int) -> int:
    """J_order(x) * 2^_NODE_BITS from the power series in fixed-point
    integers; x is any float with an exact as_integer_ratio."""
    num, den = x.as_integer_ratio()
    t = (num * num << _NODE_BITS) // (4 * den * den)
    term = (num << _NODE_BITS) // (2 * den) if order else 1 << _NODE_BITS
    total = term
    for m in range(1, _NODE_TERMS):
        term = -((term * t >> _NODE_BITS) // (m * (m + order)))
        total += term
    return total


@functools.lru_cache(maxsize=None)
def _bessel_table(order: int) -> np.ndarray:
    """Monomial coefficients in t of J_order on each table interval,
    shape (degree + 1, intervals), highest degree first."""
    n = _TABLE_DEGREE + 1
    count = round((_TABLE_CUT - _SERIES_CUT) / _TABLE_WIDTH)
    ld = np.longdouble
    theta = (np.arange(n, dtype=ld) + ld(0.5)) * (ld(4.0) * np.arctan(ld(1.0))) / ld(n)
    centres = _SERIES_CUT + _TABLE_WIDTH * (np.arange(count, dtype=ld) + ld(0.5))
    x = centres[:, None] + ld(0.5 * _TABLE_WIDTH) * np.cos(theta)[None, :]
    # |J| <= 1, so 62 leading bits of each sum fit an int64 exactly
    shift = _NODE_BITS - 62
    f = np.array([_series_exact(v, order) >> shift for v in x.ravel()], dtype=np.int64)
    f = f.reshape(x.shape).astype(ld) * ld(2.0) ** -62
    # discrete Chebyshev transform at the first-kind points
    cheb = f @ np.cos(np.outer(np.arange(n), theta)).T * ld(2.0 / n)
    cheb[:, 0] *= ld(0.5)
    # T_k in the monomial basis (exact integers): T_k+1 = 2t T_k - T_k-1
    to_mono = np.zeros((n, n), dtype=ld)
    to_mono[0, 0] = to_mono[1, 1] = 1
    for k in range(1, n - 1):
        to_mono[k + 1, 1:] = 2 * to_mono[k, :-1]
        to_mono[k + 1] -= to_mono[k - 1]
    table = np.ascontiguousarray((cheb @ to_mono).T[::-1].astype(np.float64))
    table.flags.writeable = False
    return table


def _bessel_tabulated(x: np.ndarray, order: int) -> np.ndarray:
    """Table lookup for 2 < x <= 16: Horner's rule in t, one
    coefficient gather per step."""
    coeffs = _bessel_table(order)
    u = (x - _SERIES_CUT) * (1.0 / _TABLE_WIDTH)
    idx = np.minimum(u.astype(np.intp), coeffs.shape[1] - 1)
    t = u - idx
    t *= 2.0
    t -= 1.0
    acc = coeffs[0].take(idx)
    for row in coeffs[1:]:
        acc *= t
        acc += row.take(idx)
    return acc


def _bessel_asymptotic(x: np.ndarray, order: int) -> np.ndarray:
    cp, cq = _J_ASYM[order]
    z = 1.0 / (x * x)
    p = _horner(z, cp)
    q = _horner(z, cq) / x
    chi = x - (0.5 * order + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _j_array(x: np.ndarray, order: int) -> np.ndarray:
    ax = np.abs(x)
    # NaN falls in no range and stays NaN
    out = np.full_like(ax, np.nan)
    small = ax <= _SERIES_CUT
    table = (ax > _SERIES_CUT) & (ax <= _TABLE_CUT)
    large = ax > _TABLE_CUT
    if np.any(small):
        out[small] = _bessel_series(ax[small], order)
    if np.any(table):
        out[table] = _bessel_tabulated(ax[table], order)
    if np.any(large):
        out[large] = _bessel_asymptotic(ax[large], order)
    if order == 1:
        out = np.where(x < 0, -out, out)
    return out


def j0_array(x) -> np.ndarray:
    """Vectorized J0 (even in x)."""
    return _j_array(np.asarray(x, dtype=np.float64), 0)


def j1_array(x) -> np.ndarray:
    """Vectorized J1 (odd in x)."""
    return _j_array(np.asarray(x, dtype=np.float64), 1)

