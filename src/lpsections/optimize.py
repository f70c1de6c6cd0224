"""Derivative-free maximization of the section volume over directions.

The search runs in unconstrained coordinates y (one per entry); a point
maps to the direction with squared weights w_j = y_j^2 / sum y^2, so the
unit constraint is built in and the objective is even in every
coordinate.  Canonicalization quotients out permutations.  The objective
is the certified quadrature volume.  Nelder-Mead with multi-start: the
two-coordinate direction, the main diagonal, and seeded random points;
the best accepted value is tracked monotonically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .direction import Direction, validate_exponent
from .hankel import VolumeResult, section_volume_quadrature
# not called here: the benchmark's span tracer (perfbench/layers.py) rebinds this name
from .montecarlo import estimate_section_volume  # noqa: F401
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


def _weights(y: np.ndarray) -> np.ndarray:
    q = y * y
    return q / q.sum()


def _as_direction(y: np.ndarray) -> Direction:
    w = _weights(y)
    w[w < W_SNAP] = 0.0
    return Direction(np.sqrt(w / w.sum()))


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
) -> OptReport:
    """Maximize the section volume over unit directions of length n.

    Multi-start Nelder-Mead in the squared-weight parameterization;
    starts are the two-coordinate direction, the main diagonal, and
    random points from RngStream(seed, 0), the PCG64DXSM stream keyed by
    (seed, 0), seed in [0, 2^64).  budget caps the engine evaluations:
    the first k = min(4, budget // (n + 2)) starts run, with budget // k
    each, so budget must be at least n + 2.  Convergence means the final
    simplex diameter in w dropped below tol.  Every evaluation is a
    quadrature volume at tol_abs = tol/4, which raises NonConvergenceError
    rather than return a larger err_bound, so the reported best is always
    certified to tol/4.
    """
    p = validate_exponent(p)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if n < 2:
        raise ValueError("need n >= 2")
    if budget < n + 2:
        raise ValueError(f"budget must be at least n + 2 = {n + 2} evaluations")

    # memoized on the canonical direction (plateaus from canonicalization
    # would otherwise re-pay the engine); the engine is a module global
    # looked up at each miss, so a hook that rebinds it sees every call
    @functools.lru_cache(maxsize=None)
    def obj(d: Direction) -> VolumeResult:
        return section_volume_quadrature(p, d, tol / 4.0)

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
    best_from_converged = False
    total_iters = 0
    for y0 in starts:
        y0 = np.asarray(y0, dtype=float) / np.linalg.norm(y0)
        y, val, used, conv = _nelder_mead(obj, y0, share, tol)
        total_iters += used
        if val > best_val:
            best_val = val
            best_y = y
            best_from_converged = conv
            trace.append((total_iters, val))
    best_dir = _as_direction(best_y)
    best_res = obj(best_dir)
    return OptReport(
        best=best_dir,
        best_value=best_res,
        iterations=total_iters,
        trace=tuple(trace),
        converged=best_from_converged,
    )
