"""Deterministic random streams and samplers for the two laws behind the
Monte Carlo volume representation: the radial modulus law and the uniform
law on the 3-sphere.

RngStream(seed, stream_id).generator is the counter-based Philox
generator keyed by the pair, each of which must lie in [0, 2^64): the
key is the caller's input itself, so identical keys reproduce identical
draw sequences on any machine, distinct keys give statistically
independent streams, and no two keys share one.  It draws the
optimizer's random starts; the Monte Carlo engine keys its batches
itself (montecarlo._batch_generator).  A generator is a stateful
consumable; never draw from one concurrently.
"""

from __future__ import annotations

import math

import numpy as np


class RngStream:
    """The Philox generator keyed by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= seed < 2 ** 64 and 0 <= stream_id < 2 ** 64):
            raise ValueError(f"seed and stream_id must be in [0, 2^64), got ({seed}, {stream_id})")
        self.generator = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


def radial_array(p: float, size, gen: np.random.Generator) -> np.ndarray:
    """Draws of the radial modulus R, density t^(p+1) exp(-t^p) / c on
    [0, inf) for finite p (c the normalizing constant), the point mass
    at 1 for p = inf.

    For finite p a draw is G**(1/p) with G gamma-distributed of shape
    1 + 2/p; the change of variables u = t^p makes this exact.
    """
    if math.isinf(p):
        return np.ones(size)
    g = gen.standard_gamma(1.0 + 2.0 / p, size=size)
    g **= 1.0 / p
    return g


def sphere3_array(size, gen: np.random.Generator) -> np.ndarray:
    """(*size, 4) array of uniform points on the 3-sphere."""
    shape = (size, 4) if np.isscalar(size) else tuple(size) + (4,)
    g = gen.standard_normal(shape)
    norms = np.sqrt((g * g).sum(axis=-1))
    # the all-zeros event has probability zero; redraw defensively
    bad = norms == 0.0
    while np.any(bad):
        g[bad] = gen.standard_normal((int(bad.sum()), 4))
        norms[bad] = np.sqrt((g[bad] * g[bad]).sum(axis=-1))
        bad = norms == 0.0
    return g / norms[..., None]
