"""Stochastic engine for the probabilistic volume representation

    volume(p, a) = Gamma(1+2/p) * E | sum_j a_j R_j xi_j |^(-2),

with R_j the radial modulus law and xi_j uniform on the 3-sphere.

The raw estimator |sum|^(-2) has a logarithmically divergent second
moment in dimension four (the density of |sum| grows like r^3 at the
origin), so the estimator is Rao-Blackwellized: the sphere variable
attached to the largest magnitude b_k = a_k R_k is integrated out in
closed form.  Writing S for the partial sum over j != k and
conditioning on |S| = u, the law of |S + v xi|^2 is
u^2 + v^2 + 2 u v T with T the real part of a uniform point of the unit
disc, and

    E[ |S + v xi|^(-2)  |  |S| = u ]  =  1 / max(u, v)^2.

Every per-draw value is then bounded by 1/max_j(a_j R_j)^2, giving a
finite-variance estimator with honest central-limit error bars.

Sampling is batched: batch b draws from the substream (seed, b), so the
result is bit-for-bit reproducible regardless of how the work would be
scheduled; results are reduced in batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .direction import Direction, canonicalize, is_inf, validate_exponent
from .hankel import VolumeResult
from .randkit import RngStream, radial_array, sphere3_array
from .specfun import gamma

# batches per estimate: their spread gives the error bars
_BATCHES = 32


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo configuration: sample count and base seed."""

    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < _BATCHES:
            raise ValueError(f"samples must be >= {_BATCHES} (one per batch)")


def rao_blackwell_kernel(u: float, v: float) -> float:
    """Conditional second negative moment 1/max(u, v)^2.

    Closed form of (2/pi) * int_{-1}^{1} sqrt(1-t^2) / (u^2+v^2+2uvt) dt;
    validated against that integral by the test suite.
    """
    if u < 0.0 or v < 0.0:
        raise ValueError("magnitudes must be nonnegative")
    m = max(u, v)
    if m == 0.0:
        raise ValueError("rao_blackwell_kernel undefined at u = v = 0")
    return 1.0 / (m * m)


def _draw_batch(p: float, a: np.ndarray, gen: np.random.Generator, count: int):
    """Per-draw Rao-Blackwellized values (pre gamma-factor)."""
    n = a.size
    chunk = max(1, min(count, (1 << 21) // (4 * n)))
    vals = np.empty(count)
    done = 0
    while done < count:
        m = min(chunk, count - done)
        b = a[None, :] * radial_array(p, (m, n), gen)
        xi = sphere3_array((m, n), gen)
        vec = np.einsum("ij,ijk->ik", b, xi)
        k = np.argmax(b, axis=1)
        rows = np.arange(m)
        bk = b[rows, k]
        s = vec - bk[:, None] * xi[rows, k, :]
        u = np.sqrt(np.einsum("ik,ik->i", s, s))
        top = np.maximum(u, bk)
        vals[done:done + m] = 1.0 / (top * top)
        done += m
    return vals


def _batch_sizes(samples: int, batches: int) -> list[int]:
    base, extra = divmod(samples, batches)
    return [base + (1 if b < extra else 0) for b in range(batches)]


def estimate_section_volume(
    p: float, a, spec: Optional[McSpec] = None, stream_domain: int = 0
) -> VolumeResult:
    """Monte Carlo estimate of the normalized section volume.

    The value is the mean of the batch means and err_bound its standard
    error from their spread.  Directions with fewer than two nonzero
    coordinates have the exact value 1 and are flagged, not simulated.
    """
    p = validate_exponent(p)
    a = canonicalize(a)
    spec = spec or McSpec()
    if a.nonzero_count < 2:
        return VolumeResult(1.0, 0.0, "closed_form", {"degenerate": True})
    g2 = 1.0 if is_inf(p) else gamma(1.0 + 2.0 / p)
    arr = a.as_array()
    base = RngStream(spec.seed, stream_domain)
    batch_means = []
    for bi, bn in enumerate(_batch_sizes(spec.samples, _BATCHES)):
        gen = base.substream(bi).generator
        vals = _draw_batch(p, arr, gen, bn)
        batch_means.append(float(vals.mean()))
    bm = np.array(batch_means) * g2
    std_err = float(bm.std(ddof=1) / math.sqrt(bm.size)) if bm.size > 1 else 0.0
    meta = {
        "samples": spec.samples,
        "batches": _BATCHES,
        "seed": spec.seed,
        "batch_values": tuple(float(v) for v in bm),
    }
    return VolumeResult(float(bm.mean()), std_err, "montecarlo", meta)


@dataclass(frozen=True)
class CltRow:
    n: int
    estimate: float
    std_err: float
    c_p_target: float


def clt_experiment(p: float, n_list: Sequence[int], spec: Optional[McSpec] = None) -> list[CltRow]:
    """Second negative moment of the scaled radial-sphere sum across
    dimensions, against its Gaussian-limit target
    c_p = 2 Gamma(1+2/p) / Gamma(1+4/p).

    Row n estimates E |X_n|^(-2) with X_n = n^(-1/2) sum R_j xi_j, i.e.
    the diagonal-direction volume estimate divided by Gamma(1+2/p); each
    n draws from its own substream family.  At p = inf the moduli are
    deterministic and the target is 2.
    """
    p = validate_exponent(p)
    spec = spec or McSpec()
    g2 = 1.0 if is_inf(p) else gamma(1.0 + 2.0 / p)
    target = 2.0 if is_inf(p) else 2.0 * g2 / gamma(1.0 + 4.0 / p)
    rows = []
    for n in n_list:
        n = int(n)
        if n < 2:
            raise ValueError("each dimension must be >= 2")
        res = estimate_section_volume(p, Direction.diagonal(n), spec, stream_domain=n)
        rows.append(CltRow(n, res.value / g2, res.err_bound / g2, target))
    return rows
