"""Independent reference values for the lpsections benchmark.

This command does not import lpsections.  It recomputes the kernel

    k_p(x) = 2/Gamma(1+2/p) * int_0^inf J0(x r) exp(-r^p) r dr   (2 J1(x)/x at p = inf)

and the normalized section volume

    A(p, a) = Gamma(1+2/p)/2 * int_0^inf prod_j k_p(a_j s) s ds

from scipy.special.j0 / j1 with plain composite Gauss-Legendre rules,
and writes every value with its own error estimate:

* each integral is taken at two Gauss-Legendre orders on the same
  panels; the higher order is reported and the difference is its error
  estimate;
* the kernel's radial tail beyond r^p = U_MAX is bounded by
  int_R^inf exp(-r^p) r dr, since |J0| <= 1;
* the outer tail beyond S is bounded by integrating the product of the
  kernel envelopes (Kernel.envelope);
* kernel errors are propagated through the product exactly:
  prod (|k|+e) - prod |k|.

Usage:
    python3 reference.py --requests REQ.json --output OUT.json

REQ.json is a list of requests, each one of
    {"kind": "volume", "p": <float or "inf">, "a": [...], "target": <float>}
    {"kind": "kernel", "p": <float or "inf">, "x": [...]}
OUT.json is the list of results in the same order:
    {"value": v, "err": e} for a volume, {"value": [...], "err": [...]} for a kernel.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np
from scipy import integrate, special

# Kernel radial integrals stop at r^p = U_MAX; the remainder is below 1e-17.
U_MAX = 40.0
# Panel edges in u = r^p: geometric below 1, so that the non-smooth part
# r^(p+1) of the integrand varies by a factor of 2 per panel and what is
# left below the first edge is under 2^-40; then steps that keep exp(-u)
# within a factor e^-7 per panel.
_U_EDGES = np.concatenate([
    2.0 ** np.arange(-40.0, 0.0),
    [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 11.0, 15.0, 20.0, 26.0, 33.0, U_MAX],
])
# Panels are split so that the phase of the oscillatory factor spans at
# most PHASE radians.  A sub-panel spanning phi radians takes the orders
# lo = 8 + ceil(0.8 phi) and hi = lo + 6 (24 and 30 at phi = 20, where
# Gauss-Legendre resolves the oscillation to 1e-13 and 1e-22); Q_hi is
# reported and |Q_hi - Q_lo| is its error estimate.
PHASE = 20.0
# Floor on every kernel error estimate: the absolute accuracy of the
# scipy Bessel functions, summed over a weight of total mass <= 1.
J_FLOOR = 1e-14


@functools.lru_cache(maxsize=None)
def _gl(order: int):
    return np.polynomial.legendre.leggauss(order)


def composite(edges: np.ndarray, freq: float):
    """Nodes r and weight vectors (w_lo, w_hi) of the two composite rules
    on the panels between `edges`, for an integrand oscillating at up to
    `freq` radians per unit.  Each weight vector is zero on the other
    rule's nodes, so one function evaluation serves both."""
    width = np.diff(edges)
    parts = np.maximum(1, np.ceil(width * freq / PHASE)).astype(int)
    sub_w = np.repeat(width / parts, parts)
    first = np.cumsum(parts) - parts
    sub_lo = np.repeat(edges[:-1], parts) + (np.arange(parts.sum()) - np.repeat(first, parts)) * sub_w
    lo_order = 8 + np.ceil(0.8 * sub_w * freq).astype(int)
    rs, w_lo, w_hi = [], [], []
    for order in np.unique(lo_order):
        sel = lo_order == order
        a, h = sub_lo[sel], 0.5 * sub_w[sel]
        for n, mine, other in ((order, w_lo, w_hi), (order + 6, w_hi, w_lo)):
            t, w = _gl(int(n))
            rs.append((a[:, None] + h[:, None] * (t[None, :] + 1.0)).ravel())
            mine.append((h[:, None] * w[None, :]).ravel())
            other.append(np.zeros(rs[-1].size))
    return np.concatenate(rs), np.concatenate(w_lo), np.concatenate(w_hi)


@functools.lru_cache(maxsize=None)
def _sup_sqrt_j1() -> float:
    """sup_y sqrt(y) |J1(y)| with a relative margin of 1e-3.

    On (0, 60] the sup is taken on a grid of step 1e-3 (the maximum,
    about 0.8188 near y = 2.3, is smooth there); beyond 60 the Hankel
    amplitude is sqrt(2/pi) (1 + 3/(16 y^2) + ...) < 0.7982."""
    y = np.arange(1e-3, 60.0, 1e-3)
    return 1.001 * max(float(np.max(np.sqrt(y) * np.abs(special.j1(y)))), 0.7982)


@functools.lru_cache(maxsize=None)
def _sup_j1() -> float:
    """sup_y |J1(y)| (about 0.5819 at y = 1.84) with a margin of 1e-3."""
    y = np.arange(0.0, 60.0, 1e-4)
    return 1.001 * float(np.max(np.abs(special.j1(y))))


def _variation3(p: float) -> float:
    """int_0^inf r |g'(r)| dr for g = f'/r, f = p r^p exp(-r^p); in u = r^p
    it equals p int u^(-1/p) e^-u |(p-2)(1-u) - p u (2-u)| du."""
    def h(u):
        return p * u ** (-1.0 / p) * math.exp(-u) * abs((p - 2.0) * (1.0 - u) - p * u * (2.0 - u))
    # the bracket changes sign at the roots of p u^2 - (3p-2) u + (p-2)
    disc = math.sqrt((3.0 * p - 2.0) ** 2 - 4.0 * p * (p - 2.0))
    roots = sorted([((3.0 * p - 2.0) - disc) / (2.0 * p), ((3.0 * p - 2.0) + disc) / (2.0 * p)])
    cuts = [0.0] + [r for r in roots if r > 0.0] + [80.0]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err = integrate.quad(h, lo, hi, limit=200, epsabs=0.0, epsrel=1e-10)
        total += val + err
    return 1.001 * total


def _parse_p(p) -> float:
    return math.inf if p == "inf" else float(p)


class Kernel:
    """k_p with error estimates, for one exponent p.

    envelope() is a proven bound on |k_p|, the minimum of four families:
      1                            |k_p| <= k_p(0) = 1 (k_p is a mean of 2 J1(y)/y);
      c15 x^-1.5   c15 = 2 M E[R^-1.5], M = sup sqrt(y)|J1(y)|, because
                   k_p(x) = E[2 J1(x R) / (x R)] for the radial law R with
                   density p r^(p+1) exp(-r^p) / Gamma(1+2/p), and
                   E[R^-1.5] = Gamma(1 + 1/(2p)) / Gamma(1+2/p);
      c2 x^-2      c2 = 4 p / (e Gamma(1+2/p)): two integrations by parts
                   give k_p(x) = 2/(Gamma(1+2/p) x^2) int J0(x r) f'(r) dr with
                   f = p r^p exp(-r^p), and int |f'| = 2 max f = 2 p / e;
      c3 x^-3      c3 = 2 sup|J1| V / Gamma(1+2/p), V = int r |(f'/r)'| dr,
                   from a third integration by parts (p > 2).
    """

    def __init__(self, p: float):
        self.p = p
        if math.isinf(p):
            self.g2 = 1.0
            self.c15 = 2.0 * _sup_sqrt_j1()
            self.c2 = self.c3 = math.inf
            return
        self.g2 = float(special.gamma(1.0 + 2.0 / p))
        self.r_max = U_MAX ** (1.0 / p)
        # int_R^inf exp(-r^p) r dr = Gamma(2/p) Q(2/p, R^p) / p
        self.trunc = (2.0 / self.g2) * float(special.gamma(2.0 / p) * special.gammaincc(2.0 / p, U_MAX)) / p
        self.edges = np.concatenate([[0.0], _U_EDGES ** (1.0 / p)])
        self.c15 = 2.0 * _sup_sqrt_j1() * float(special.gamma(1.0 + 0.5 / p)) / self.g2
        self.c2 = 4.0 * p / (math.e * self.g2)
        self.c3 = 2.0 * _sup_j1() * _variation3(p) / self.g2 if p > 2.0 else math.inf

    def envelope(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            env = np.minimum(1.0, self.c15 * x ** -1.5)
            if math.isfinite(self.c2):
                env = np.minimum(env, self.c2 / (x * x))
            if math.isfinite(self.c3):
                env = np.minimum(env, self.c3 / (x * x * x))
        return env

    def values(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        if math.isinf(self.p):
            out = np.ones_like(x)
            nz = x != 0.0
            out[nz] = 2.0 * special.j1(x[nz]) / x[nz]
            return out, np.full_like(x, J_FLOOR)
        flat = x.ravel()
        vals = np.empty_like(flat)
        errs = np.empty_like(flat)
        order = np.argsort(flat)
        # arguments of similar magnitude share one node set
        block = 64
        for start in range(0, flat.size, block):
            idx = order[start:start + block]
            xb = flat[idx]
            r, w_lo, w_hi = composite(self.edges, max(float(xb[-1]), 1.0))
            f = np.exp(-(r ** self.p)) * r
            j = special.j0(np.outer(xb, r))
            q_lo = j @ (w_lo * f)
            q_hi = j @ (w_hi * f)
            vals[idx] = (2.0 / self.g2) * q_hi
            errs[idx] = (2.0 / self.g2) * np.abs(q_hi - q_lo) + self.trunc + J_FLOOR
        return vals.reshape(x.shape), errs.reshape(x.shape)


@functools.lru_cache(maxsize=None)
def kernel(p: float) -> Kernel:
    return Kernel(p)


def _tail(k: Kernel, a: np.ndarray, s0: float) -> float:
    """Bound on int_{s0}^inf prod_j env(a_j s) s ds: Gauss-Legendre on
    geometric panels up to 1e6 s0 (the integrand is smooth and
    decreasing there), then the pure x^-1.5 family beyond."""
    uniq, mult = np.unique(a, return_counts=True)
    edges = s0 * np.geomspace(1.0, 1e6, 121)
    t, w = _gl(24)
    lo, hi = edges[:-1], edges[1:]
    s = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * t[None, :]
    env = k.envelope(uniq[:, None, None] * s[None, :, :])
    f = np.prod(env ** mult[:, None, None], axis=0) * s
    body = float(np.sum(f * w[None, :] * (0.5 * (hi - lo))[:, None]))
    top = edges[-1]
    log_far = np.sum(mult * np.log(np.minimum(1.0, k.c15 * (uniq * top) ** -1.5)))
    far = math.exp(log_far) * top * top / (1.5 * a.size - 2.0)
    # 3% margin for the quadrature error on the envelope integral
    return 1.03 * body + far


def volume(p: float, a, target: float) -> tuple[float, float]:
    """A(p, a) and its error estimate, aiming at an error below target."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    a = np.sort(a[a > 0.0])[::-1] / np.linalg.norm(a)
    if a.size < 3:
        raise ValueError("the reference handles directions with >= 3 nonzero coordinates")
    k = kernel(p)
    pref = 0.5 * k.g2
    s_max = 2.0
    while pref * _tail(k, a, s_max) > 0.25 * target:
        s_max *= 1.05
    tail = pref * _tail(k, a, s_max)
    # the kernel oscillates at radii up to ~1 (p = inf: exactly 1); for
    # finite p, radii beyond 2 carry weight below exp(-2^p)
    r_eff = 1.0 if math.isinf(p) else min(k.r_max, 2.0)
    uniq, mult = np.unique(a, return_counts=True)
    n_pan = max(1, int(math.ceil(s_max / 8.0)))
    s, w_lo, w_hi = composite(np.linspace(0.0, s_max, n_pan + 1), float(a.sum()) * r_eff)
    kv, ke = k.values(uniq[:, None] * s[None, :])
    prod = np.prod(kv ** mult[:, None], axis=0) * s
    absb = np.abs(kv)
    prop = (np.prod((absb + ke) ** mult[:, None], axis=0) - np.prod(absb ** mult[:, None], axis=0)) * s
    q_hi = float(w_hi @ prod)
    q_lo = float(w_lo @ prod)
    value = pref * q_hi
    err = tail + pref * (abs(q_hi - q_lo) + float(w_hi @ prop)) + 1e-15 * abs(value)
    return value, err


def answer(req: dict) -> dict:
    p = _parse_p(req["p"])
    if req["kind"] == "volume":
        v, e = volume(p, req["a"], float(req["target"]))
        return {"value": v, "err": e}
    if req["kind"] == "kernel":
        v, e = kernel(p).values(np.asarray(req["x"], dtype=np.float64))
        return {"value": v.tolist(), "err": e.tolist()}
    raise ValueError(f"unknown request kind {req['kind']!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Reference kernel and volume values for the benchmark checks.")
    ap.add_argument("--requests", required=True)
    ap.add_argument("--output", required=True)
    args = ap.parse_args(argv)
    with open(args.requests) as fh:
        reqs = json.load(fh)
    out = [answer(r) for r in reqs]
    with open(args.output, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
