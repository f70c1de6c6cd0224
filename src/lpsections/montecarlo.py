"""Stochastic engine for the probabilistic volume representation

    volume(p, a) = Gamma(1+2/p) * E | sum_j a_j R_j xi_j |^(-2),

with R_j the radial modulus law and xi_j uniform on the 3-sphere.  At
p = inf (the polydisc) R_j = 1 and Gamma(1 + 2/p) = Gamma(1) = 1, so
the same expressions serve every p.

The raw estimator |sum|^(-2) has a logarithmically divergent second
moment in dimension four (the density of |sum| grows like r^3 at the
origin), so the estimator is Rao-Blackwellized: the sphere variable
attached to the largest magnitude b_k = a_k R_k is integrated out in
closed form.  Writing S for the partial sum over j != k and
conditioning on |S| = u, the law of |S + v xi|^2 is
u^2 + v^2 + 2 u v T with T the real part of a uniform point of the unit
disc, and

    E[ |S + v xi|^(-2)  |  |S| = u ]  =  1 / max(u, v)^2.

rao_blackwell_kernel is that closed form, and every draw's value comes
from it, so the test that checks it against the integral checks the
engine's own arithmetic.  Every per-draw value is then bounded by
1/max_j(a_j R_j)^2, giving a finite-variance estimator with honest
central-limit error bars.

The same identity samples |S| without sphere points.  Two independent,
rotation-invariant partial sums with norms x and y add to one with
squared norm x^2 + y^2 + 2 x y T, where T is independent of x and y, and
the sum is again rotation-invariant.  So |S| is drawn by merging the
magnitudes (b_k set to 0) pairwise: ceil(log2 n) levels, each halving
the number of partial sums and drawing one T = sqrt(U) cos(2 pi V) per
merged pair from two uniforms.  A draw costs one radial modulus and two
uniforms per coordinate, where sphere points cost four normals.

Only the n nonzero coordinates are drawn: a zero coordinate adds nothing
to the sum, so a zero-padded direction gives the bits of its unpadded
form at its cost.  Sampling is batched: batch b of an estimate with seed
s draws from PCG64DXSM seeded by SeedSequence(s, spawn_key=(n, b))
(_batch_generator), so the stream is keyed by the inputs alone; numpy
pads the seed to its pool size before it appends the key, so no two
(s, n, b) share a stream.  The batch
means are reduced in batch order.  The batches run on a thread pool with
one worker per core available to the process (at most one per batch);
numpy's random fills and ufuncs release the GIL.  Since every batch owns
its generator and the reduction order is fixed, the worker count changes
no bit of the value, the error bar or the batch means.  A batch draws in
chunks of at most _CHUNK_ELEMENTS magnitudes, which bounds each worker's
working set (about 2 MiB).  A chunk of m draws is an (n, m) array,
coordinate-major, so each merge level works in place on contiguous rows;
it draws its radial moduli first, then the merge scalars level by level.
The chunk size and this order are part of the random stream: a batch
spanning several chunks draws in a different order than one chunk would.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .direction import Direction, canonicalize, validate_exponent
from .hankel import VolumeResult
from .randkit import radial_array
# not called here: the benchmark's span tracer (perfbench/layers.py) rebinds this name
from .randkit import sphere3_array  # noqa: F401
from .specfun import gamma

# batches per estimate: their spread gives the error bars
_BATCHES = 32
# magnitudes per chunk of a batch: each worker thread holds one chunk's
# arrays (about 32 bytes per magnitude at the peak) at a time
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo configuration: sample count and base seed."""

    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.samples < _BATCHES:
            raise ValueError(f"samples must be >= {_BATCHES} (one per batch)")


def rao_blackwell_kernel(u, v):
    """Conditional second negative moment 1/max(u, v)^2, elementwise
    over scalars or broadcastable arrays.

    Closed form of (2/pi) * int_{-1}^{1} sqrt(1-t^2) / (u^2+v^2+2uvt) dt;
    validated against that integral by the test suite.
    """
    if not (np.min(u) >= 0.0 and np.min(v) >= 0.0):
        raise ValueError("magnitudes must be nonnegative")
    m = np.maximum(u, v)
    if not np.min(m) > 0.0:
        raise ValueError("rao_blackwell_kernel undefined at u = v = 0")
    return 1.0 / (m * m)


def _merged_norms(b: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One draw of |sum_i b_ij xi_ij| per column j of the (n, m) magnitudes
    b, the xi_ij independent and uniform on the 3-sphere, by the pairwise
    merge of the module docstring.  The merge runs in place on b's rows:
    b is overwritten, and the result is its first row."""
    w = b.shape[0]
    while w > 1:
        # rows [0, h) absorb rows [w - h, w); with w odd, row h waits a level
        h = w // 2
        x, y = b[:h], b[w - h:w]
        t = gen.random(x.shape)
        phase = gen.random(x.shape)
        np.sqrt(t, out=t)
        phase *= 2.0 * math.pi
        np.cos(phase, out=phase)
        t *= phase
        # x^2 + y^2 + 2xyT as x (x + 2yT) + y^2, clamped at 0: near
        # x = y, T = -1 rounding can leave it slightly negative
        t *= y
        t *= 2.0
        t += x
        t *= x
        y *= y
        t += y
        np.maximum(t, 0.0, out=t)
        np.sqrt(t, out=x)
        w -= h
    return b[0]


def _draw_batch(p: float, a: np.ndarray, gen: np.random.Generator, count: int):
    """Per-draw Rao-Blackwellized values (pre gamma-factor)."""
    n = a.size
    chunk = max(1, min(count, _CHUNK_ELEMENTS // n))
    vals = np.empty(count)
    done = 0
    while done < count:
        m = min(chunk, count - done)
        b = radial_array(p, (n, m), gen)
        b *= a[:, None]
        k = np.argmax(b, axis=0)
        cols = np.arange(m)
        bk = b[k, cols]
        b[k, cols] = 0.0
        vals[done:done + m] = rao_blackwell_kernel(_merged_norms(b, gen), bk)
        done += m
    return vals


def _workers() -> int:
    """Threads for the batches: the cores this process may run on, at most
    one per batch."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, _BATCHES))


def _batch_generator(seed: int, n: int, index: int) -> np.random.Generator:
    """The generator of batch `index` of the estimate with seed `seed` over
    n nonzero coordinates."""
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(n, index))))


def _batch_sizes(samples: int, batches: int) -> list[int]:
    base, extra = divmod(samples, batches)
    return [base + (1 if b < extra else 0) for b in range(batches)]


def estimate_section_volume(p: float, a, spec: McSpec) -> VolumeResult:
    """Monte Carlo estimate of the normalized section volume.

    The value is the mean of the batch means and err_bound its standard
    error from their spread.  Directions with fewer than two nonzero
    coordinates have the exact value 1 and are flagged, not simulated.
    """
    p = validate_exponent(p)
    a = canonicalize(a)
    if a.nonzero_count < 2:
        return VolumeResult(1.0, 0.0, "closed_form", {"degenerate": True})
    from concurrent.futures import ThreadPoolExecutor  # not at import, so start-up time stays the same

    g2 = gamma(1.0 + 2.0 / p)
    arr = np.array(a.nonzero())

    def batch_mean(job):
        bi, bn = job
        return float(_draw_batch(p, arr, _batch_generator(spec.seed, arr.size, bi), bn).mean())

    with ThreadPoolExecutor(_workers()) as ex:
        # map yields in batch order, whatever order the batches finish in
        batch_means = list(ex.map(batch_mean, enumerate(_batch_sizes(spec.samples, _BATCHES))))
    bm = np.array(batch_means) * g2
    std_err = float(bm.std(ddof=1) / math.sqrt(bm.size))
    meta = {"batch_values": tuple(float(v) for v in bm)}
    return VolumeResult(float(bm.mean()), std_err, "montecarlo", meta)


@dataclass(frozen=True)
class CltRow:
    n: int
    estimate: float
    std_err: float
    c_p_target: float


def clt_experiment(p: float, n_list: Sequence[int], spec: McSpec) -> list[CltRow]:
    """Second negative moment of the scaled radial-sphere sum across
    dimensions, against its Gaussian-limit target
    c_p = 2 Gamma(1+2/p) / Gamma(1+4/p).

    Row n estimates E |X_n|^(-2) with X_n = n^(-1/2) sum R_j xi_j: it is
    exactly the n-diagonal volume estimate at the same spec divided by
    Gamma(1+2/p).  Every dimension is checked before any is drawn.  At
    p = inf the moduli are deterministic and the target is 2.
    """
    p = validate_exponent(p)
    ns = [int(n) for n in n_list]
    if any(n < 2 for n in ns):
        raise ValueError("each dimension must be >= 2")
    g2 = gamma(1.0 + 2.0 / p)
    target = 2.0 * g2 / gamma(1.0 + 4.0 / p)
    rows = []
    for n in ns:
        res = estimate_section_volume(p, Direction.diagonal(n), spec)
        rows.append(CltRow(n, res.value / g2, res.err_bound / g2, target))
    return rows
