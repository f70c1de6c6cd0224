import math

import numpy as np
import pytest

from lpsections import optimize as op
from lpsections.closedform import a2_closed_form
from lpsections.direction import Direction, canonicalize
from lpsections.hankel import section_volume_quadrature

INF = math.inf


def grid_search_simplex(p, n, resolution, tol=1e-6):
    """Quadrature values over the squared-weight simplex grid for n in
    {2, 3}: the brute-force oracle for maximize_direction.  Canonically
    equivalent grid points are evaluated once."""
    if n not in (2, 3):
        raise ValueError("grid search supports n in {2, 3} only")
    if not 0.0 < resolution <= 0.5:
        raise ValueError("resolution must lie in (0, 0.5]")
    k = int(round(1.0 / resolution))
    if n == 2:
        combos = [(i, k - i) for i in range(k + 1)]
    else:
        combos = [(i, j, k - i - j) for i in range(k + 1) for j in range(k + 1 - i)]
    out = []
    seen = set()
    for combo in combos:
        d = Direction(np.sqrt(np.array(combo, dtype=float) / k))
        if d not in seen:
            seen.add(d)
            out.append((d, section_volume_quadrature(p, d, tol).value))
    return out


class TestDirection:
    def test_canonical_form(self):
        d = Direction([3.0, -4.0, 0.0])
        assert d.entries == (0.8, 0.6, 0.0)
        assert d.nonzero_count == 2

    def test_complex_moduli(self):
        d = Direction([3.0 + 4.0j, 0.0, 5.0j])
        assert d.entries[0] == pytest.approx(d.entries[1], rel=1e-15)
        assert sum(v * v for v in d.entries) == pytest.approx(1.0, abs=1e-12)

    def test_sorted_descending_and_unit(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = Direction(rng.standard_normal(6))
            arr = d.as_array()
            assert np.all(arr[:-1] >= arr[1:])
            assert np.all(arr >= 0.0)
            assert abs(np.sum(arr ** 2) - 1.0) <= 1e-12

    def test_canonicalize_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            raw = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            once = canonicalize(raw)
            assert canonicalize(once) is once
            assert Direction(once.entries) == once

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Direction([0.0, 0.0])
        with pytest.raises(ValueError):
            Direction([])

    def test_grouping(self):
        d = Direction([1.0, 1.0, 1.0, 0.0])
        groups = d.grouped()
        assert len(groups) == 1 and groups[0][1] == 3


class TestObjectiveInvariance:
    def test_permuted_zero_padded_values_agree(self):
        d1 = Direction([0.8, 0.6, 0.0])
        d2 = Direction([0.6, 0.0, 0.8])
        assert d1 == d2
        v1 = section_volume_quadrature(5.0, d1, 1e-6).value
        v2 = section_volume_quadrature(5.0, d2, 1e-6).value
        assert v1 == v2


class TestSnapping:
    def test_tiny_weights_dropped(self):
        y = np.array([0.9, 0.9, 1e-4])
        d = op._as_direction(y)
        assert d.nonzero_count == 2
        assert d.entries[0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)


class TestMaximizeDirection:
    @pytest.mark.parametrize("p", [3.0, 10.0, 100.0])
    def test_n2_recovers_two_equal(self, p):
        rep = op.maximize_direction(p, 2, budget=800, tol=1e-6, seed=1)
        w = rep.best.as_array() ** 2
        assert np.max(np.abs(w - 0.5)) <= 1e-6
        assert rep.best_value.value == pytest.approx(a2_closed_form(p), rel=1e-12)

    def test_trace_monotone_and_soundness_polydisc(self):
        rep = op.maximize_direction(INF, 4, budget=200, tol=1e-3, seed=3)
        values = [v for _, v in rep.trace]
        assert values == sorted(values)
        anchor_a2 = section_volume_quadrature(INF, Direction.two_equal(4)).value
        anchor_diag = section_volume_quadrature(
            INF, Direction.diagonal(4), 1e-4).value
        assert rep.best_value.value >= max(anchor_a2, anchor_diag) - 1e-3
        # polydisc slicing: the two-equal direction is the global maximum
        assert rep.best_value.value == pytest.approx(2.0, abs=1e-6)

    def test_soundness_p25_n12(self):
        rep = op.maximize_direction(2.5, 12, budget=60, tol=1e-2, seed=5)
        anchor_diag = section_volume_quadrature(2.5, Direction.diagonal(12), 2.5e-3)
        anchor_a2 = section_volume_quadrature(2.5, Direction.two_equal(12), 2.5e-3)
        floor = max(anchor_diag.value, anchor_a2.value)
        assert rep.best_value.value >= floor - 1e-2
        # below the crossing exponent the diagonal dominates at this size
        assert anchor_diag.value > anchor_a2.value

    def test_validation(self):
        with pytest.raises(ValueError):
            op.maximize_direction(4.0, 1)
        with pytest.raises(ValueError, match="budget"):
            op.maximize_direction(4.0, 3, budget=4)
        with pytest.raises(ValueError, match="tol"):
            op.maximize_direction(4.0, 2, budget=8, tol=math.nan)
        # a negative seed aliased the starts of seed 2^64 - 1
        with pytest.raises(ValueError, match="seed"):
            op.maximize_direction(4.0, 2, budget=8, seed=-1)


class TestGridSearch:
    def test_n2_p4_argmax_two_equal(self):
        pts = grid_search_simplex(4.0, 2, 0.01)
        best = max(pts, key=lambda t: t[1])
        assert best[0] == Direction([1.0, 1.0])
        assert best[1] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_n3_polydisc_argmax_two_equal(self):
        pts = grid_search_simplex(INF, 3, 0.02, tol=1e-5)
        best = max(pts, key=lambda t: t[1])
        assert best[0] == Direction([1.0, 1.0, 0.0])
        assert best[1] == 2.0

    def test_n3_p3_grid_vs_optimizer(self):
        pts = grid_search_simplex(3.0, 3, 0.1, tol=1e-4)
        grid_best = max(pts, key=lambda t: t[1])
        rep = op.maximize_direction(3.0, 3, budget=120, tol=1e-2, seed=2)
        assert rep.best_value.value >= grid_best[1] - 2e-2
        # a quadrature best, certified to the objective's tol/4
        assert rep.best.nonzero_count == 3 and rep.best_value.err_bound <= 1e-2 / 4
        # record where the coarse grid puts the maximum: interior at p = 3
        assert grid_best[0].nonzero_count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_search_simplex(4.0, 4, 0.1)
        with pytest.raises(ValueError):
            grid_search_simplex(4.0, 2, 0.0)
