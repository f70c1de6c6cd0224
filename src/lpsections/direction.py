"""Canonicalized section directions and exponent validation.

A section volume depends only on the multiset of coordinate moduli of
the unit vector spanning the orthogonal complement, so directions are
stored canonically: moduli taken, sorted descending, renormalized to the
Euclidean unit sphere.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12


def validate_exponent(p: float) -> float:
    """Check p is in [1, inf]; returns p as float (math.inf allowed)."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return p


class Direction:
    """Canonical unit coefficient vector: nonnegative entries, sorted
    descending, unit Euclidean norm."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[float]):
        with np.errstate(over="ignore"):
            arr = np.abs(np.asarray(list(entries), dtype=complex)).astype(np.float64)
            nrm = float(np.linalg.norm(arr))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("direction needs at least one coordinate")
        if not np.all(np.isfinite(arr)) or not np.any(arr):
            raise ValueError("direction entries must be finite and not all zero")
        if not 0.0 < nrm < math.inf:
            # the sum of squares left the double range: the direction is
            # scale-invariant, so bring the largest modulus to 1 first
            arr /= arr.max()
            nrm = float(np.linalg.norm(arr))
        arr = np.sort(arr / nrm)[::-1]
        # one polish pass keeps sum of squares at 1 within 1e-12 even for
        # long inputs
        arr /= float(np.linalg.norm(arr))
        self.entries = tuple(float(v) for v in arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def diagonal(cls, n: int) -> "Direction":
        """The main diagonal: n equal coordinates."""
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return cls([1.0] * n)

    @classmethod
    def two_equal(cls, n: int) -> "Direction":
        """Two equal coordinates 1/sqrt(2), padded with zeros to length n."""
        if n < 2:
            raise ValueError("two_equal needs n >= 2")
        return cls([1.0, 1.0] + [0.0] * (n - 2))

    # -- views -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def nonzero_count(self) -> int:
        return sum(1 for v in self.entries if v > 0.0)

    def nonzero(self) -> tuple[float, ...]:
        return tuple(v for v in self.entries if v > 0.0)

    def grouped(self) -> list[tuple[float, int]]:
        """Distinct nonzero values with multiplicities, descending."""
        out: list[tuple[float, int]] = []
        for v in self.nonzero():
            if out and out[-1][0] == v:
                out[-1] = (v, out[-1][1] + 1)
            else:
                out.append((v, 1))
        return out

    def as_array(self) -> np.ndarray:
        return np.array(self.entries)

    def __eq__(self, other):
        return isinstance(other, Direction) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Direction({list(self.entries)!r})"


def canonicalize(entries) -> Direction:
    """Build a Direction from raw (possibly complex) coordinates; passing
    a Direction through is the identity."""
    if isinstance(entries, Direction):
        return entries
    return Direction(entries)


def euclidean_distance(a: Direction | Sequence[float], b: Direction | Sequence[float]) -> float:
    va = a.as_array() if isinstance(a, Direction) else np.asarray(a, dtype=float)
    vb = b.as_array() if isinstance(b, Direction) else np.asarray(b, dtype=float)
    if va.size != vb.size:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(va - vb))
