"""Derivative-free maximization of the section volume over directions.

The search runs in unconstrained coordinates y (one per entry); a point
maps to the direction with squared weights w_j = y_j^2 / sum y^2, so the
unit constraint is built in and the objective is even in every
coordinate.  Canonicalization quotients out permutations.  Nelder-Mead
with multi-start: the two-coordinate direction, the main diagonal, and
seeded random points; the best accepted value is tracked monotonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .direction import Direction, validate_exponent
from .hankel import VolumeResult, section_volume_quadrature
from .montecarlo import McSpec, estimate_section_volume
from .randkit import RngStream

_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5
# seeded random starting points, after the two-coordinate direction and
# the main diagonal
_RANDOM_STARTS = 2

# Squared weights below this are snapped to exact zero before the engine
# sees the direction.  Near-boundary points otherwise carry a coordinate
# whose certified outer tail forces an enormous cutoff at large p, for a
# volume difference far below the optimizer's resolution.
W_SNAP = 1e-3


@dataclass(frozen=True)
class OptReport:
    best: Direction
    best_value: VolumeResult
    iterations: int
    trace: tuple
    converged: bool
    meta: dict


def _weights(y: np.ndarray) -> np.ndarray:
    q = y * y
    return q / q.sum()


def _as_direction(y: np.ndarray) -> Direction:
    w = _weights(y)
    w[w < W_SNAP] = 0.0
    return Direction(np.sqrt(w / w.sum()))


class _Objective:
    """Engine-backed objective with evaluation counting and memoization
    on the canonical direction (plateaus from canonicalization would
    otherwise re-pay the engine).  The engines are module globals looked
    up at each call, so a hook that rebinds them sees every call."""

    def __init__(self, p, tol_abs, mc):
        self.p = p
        self.tol_abs = tol_abs
        self.mc = mc
        self.cache: dict = {}
        self.evals = 0

    def __call__(self, d: Direction) -> VolumeResult:
        hit = self.cache.get(d)
        if hit is not None:
            return hit
        if self.mc is None:
            res = section_volume_quadrature(self.p, d, self.tol_abs)
        else:
            res = estimate_section_volume(self.p, d, self.mc)
        self.evals += 1
        self.cache[d] = res
        return res

    def error_unit(self, res: VolumeResult) -> float:
        return 3.0 * res.err_bound if res.engine == "montecarlo" else res.err_bound


def _w_diameter(ys: list[np.ndarray]) -> float:
    ws = [_weights(y) for y in ys]
    return max(
        float(np.linalg.norm(ws[i] - ws[j]))
        for i in range(len(ws)) for j in range(i + 1, len(ws))
    )


def _nelder_mead(obj, y0, budget, tol):
    n = y0.size
    ys = [y0.copy()]
    for j in range(n):
        y = y0.copy()
        y[j] += 0.25
        ys.append(y)
    vals = [obj(_as_direction(y)).value for y in ys]
    used = len(ys)
    converged = False
    while used < budget:
        order = sorted(range(len(ys)), key=lambda i: -vals[i])
        ys = [ys[i] for i in order]
        vals = [vals[i] for i in order]
        if _w_diameter(ys) < tol:
            converged = True
            break
        centroid = np.mean(ys[:-1], axis=0)
        worst = ys[-1]
        refl = centroid + _REFLECT * (centroid - worst)
        f_refl = obj(_as_direction(refl)).value
        used += 1
        if f_refl > vals[0]:
            if used < budget:
                expd = centroid + _EXPAND * (centroid - worst)
                f_expd = obj(_as_direction(expd)).value
                used += 1
                if f_expd > f_refl:
                    ys[-1], vals[-1] = expd, f_expd
                    continue
            ys[-1], vals[-1] = refl, f_refl
            continue
        if f_refl > vals[-2]:
            ys[-1], vals[-1] = refl, f_refl
            continue
        if used >= budget:
            break
        cont = centroid + _CONTRACT * (worst - centroid)
        f_cont = obj(_as_direction(cont)).value
        used += 1
        if f_cont > vals[-1]:
            ys[-1], vals[-1] = cont, f_cont
            continue
        for i in range(1, len(ys)):
            if used >= budget:
                break
            ys[i] = ys[0] + _SHRINK * (ys[i] - ys[0])
            vals[i] = obj(_as_direction(ys[i])).value
            used += 1
    best = int(np.argmax(vals))
    return ys[best], vals[best], used, converged


def maximize_direction(
    p: float,
    n: int,
    budget: int = 240,
    tol: float = 1e-2,
    seed: int = 0,
    mc: Optional[McSpec] = None,
) -> OptReport:
    """Maximize the section volume over unit directions of length n.

    Multi-start Nelder-Mead in the squared-weight parameterization;
    starts are the two-coordinate direction, the main diagonal, and
    seeded random points.  budget caps the engine evaluations: the first
    k = min(4, budget // (n + 2)) starts run, with budget // k each, so
    budget must be at least n + 2.  Convergence means the final simplex
    diameter in w dropped below tol.  The engine is quadrature at
    tol_abs = tol/4, or Monte Carlo when mc is given; its error at the
    reported best must stay below tol/4 (3 standard errors for Monte
    Carlo) or the run is flagged unconverged.
    """
    p = validate_exponent(p)
    if n < 2:
        raise ValueError("need n >= 2")
    if budget < n + 2:
        raise ValueError(f"budget must be at least n + 2 = {n + 2} evaluations")
    obj = _Objective(p, tol / 4.0, mc)

    starts = [Direction.two_equal(n).as_array(), Direction.diagonal(n).as_array()]
    rng = RngStream(seed, 0).generator
    for _ in range(_RANDOM_STARTS):
        starts.append(np.abs(rng.standard_normal(n)) + 1e-3)
    # every start needs n + 1 evaluations for its simplex and one step
    starts = starts[:budget // (n + 2)]
    share = budget // len(starts)

    trace = []
    best_y = None
    best_val = -math.inf
    any_converged = False
    best_from_converged = False
    total_iters = 0
    for y0 in starts:
        y0 = np.asarray(y0, dtype=float) / np.linalg.norm(y0)
        y, val, used, conv = _nelder_mead(obj, y0, share, tol)
        total_iters += used
        any_converged = any_converged or conv
        if val > best_val:
            best_val = val
            best_y = y
            best_from_converged = conv
            trace.append((total_iters, val))
    best_dir = _as_direction(best_y)
    best_res = obj(best_dir)
    err_ok = obj.error_unit(best_res) <= tol / 4.0
    meta = {
        "engine": "quadrature" if mc is None else "montecarlo",
        "starts": len(starts),
        "engine_evals": obj.evals,
        "seed": seed,
        "error_within_quarter_tol": err_ok,
    }
    return OptReport(
        best=best_dir,
        best_value=best_res,
        iterations=total_iters,
        trace=tuple(trace),
        converged=best_from_converged and err_ok,
        meta=meta,
    )
