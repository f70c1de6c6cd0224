"""Deterministic random streams and samplers for the two laws behind the
Monte Carlo volume representation: the radial modulus law and the uniform
law on the 3-sphere.

RngStream is the counter-based Philox generator keyed by (seed,
stream_id): identical keys reproduce identical draw sequences on any
machine, distinct keys give statistically independent streams.  It
draws the optimizer's random starts; the Monte Carlo engine keys its
batches itself (montecarlo._batch_generator).  A stream is a stateful
consumable; never draw from one stream concurrently.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class RngStream:
    """A (seed, stream_id)-keyed deterministic random stream."""

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


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
