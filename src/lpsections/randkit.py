"""Deterministic random streams and samplers for the two laws behind the
Monte Carlo volume representation: the radial modulus law and the uniform
law on the 3-sphere.

RngStream(seed, *key).generator is the one random stream of the
library: PCG64DXSM seeded by SeedSequence(seed, spawn_key=key), the seed
and every key part checked to lie in [0, 2^64).  The key is the caller's
input itself, so identical keys reproduce identical draw sequences on
any machine and distinct keys give statistically independent streams.
numpy pads the seed to its pool size before it appends the key, so a
seed never aliases a key part; it hashes a key part below 2^32 as one
32-bit word and a larger one as two, so distinct keys share no stream
while their parts lie below 2^32 ((2^32,) and (0, 1) share one).  Batch
b of a Monte Carlo estimate over n coordinates draws from key (n, b), the
optimizer's random starts from key (0,).  A generator is a stateful
consumable; never draw from one concurrently.
"""

from __future__ import annotations

import math

import numpy as np


class RngStream:
    """The PCG64DXSM generator keyed by (seed, *key)."""

    def __init__(self, seed: int, *key: int):
        if not all(0 <= k < 2 ** 64 for k in (seed, *key)):
            raise ValueError(f"seed and key parts must be in [0, 2^64), got {(seed, *key)}")
        self.generator = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=key)))


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
