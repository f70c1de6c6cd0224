import math

import numpy as np
import pytest

from lpsections import montecarlo as mc
from lpsections.direction import Direction, canonicalize
from lpsections.hankel import section_volume_quadrature
from lpsections.randkit import RngStream, radial_array, sphere3_array
from lpsections.specfun import gamma

INF = math.inf


def rb_oracle(u: float, v: float, order: int = 400) -> float:
    """(2/pi) int_{-1}^{1} sqrt(1-t^2)/(u^2+v^2+2uvt) dt by high-order
    Gauss-Legendre after t = cos(theta) (the integrand becomes smooth)."""
    x, w = np.polynomial.legendre.leggauss(order)
    th = 0.5 * math.pi * (x + 1.0)
    f = np.sin(th) ** 2 / (u * u + v * v + 2.0 * u * v * np.cos(th))
    return float(2.0 / math.pi * 0.5 * math.pi * (w * f).sum())


def plain_batch_means(p, a, spec):
    """Batch means of the raw estimator Gamma(1+2/p) |sum_j a_j R_j xi_j|^(-2),
    whose second moment diverges: the substreams, chunks and draw order
    of mc.estimate_section_volume, with 1/|sum|^2 per draw in place of
    the Rao-Blackwellized value."""
    a = canonicalize(a).as_array()
    n = a.size
    means = []
    for bi, count in enumerate(mc._batch_sizes(spec.samples, mc._BATCHES)):
        gen = RngStream(spec.seed, 0).substream(bi).generator
        chunk = max(1, min(count, (1 << 21) // (4 * n)))
        vals = []
        for done in range(0, count, chunk):
            m = min(chunk, count - done)
            b = a[None, :] * radial_array(p, (m, n), gen)
            vec = np.einsum("ij,ijk->ik", b, sphere3_array((m, n), gen))
            vals.append(1.0 / np.einsum("ik,ik->i", vec, vec))
        means.append(float(np.concatenate(vals).mean()))
    return np.array(means) * (1.0 if p == INF else gamma(1.0 + 2.0 / p))


class TestRaoBlackwellKernel:
    def test_examples(self):
        assert mc.rao_blackwell_kernel(2.0, 1.0) == 0.25
        assert mc.rao_blackwell_kernel(3.0, 0.0) == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert mc.rao_blackwell_kernel(1.0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mc.rao_blackwell_kernel(0.0, 0.0)
        with pytest.raises(ValueError):
            mc.rao_blackwell_kernel(-1.0, 2.0)

    def test_oracle_spot_grid(self):
        # the full 20x20 oracle grid runs in the acceptance suite
        for u in (0.2, 0.7, 1.0, 1.9):
            for v in (0.1, 0.7, 1.3):
                assert mc.rao_blackwell_kernel(u, v) == pytest.approx(rb_oracle(u, v), abs=1e-10)


class TestMcSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc.McSpec(samples=0)
        with pytest.raises(ValueError):
            mc.McSpec(samples=31)


class TestEstimator:
    def test_polydisc_two_equal_exact(self):
        # at p = inf the conditioned estimator is constant: both the partial
        # sum modulus and the removed magnitude equal 1/sqrt(2)
        res = mc.estimate_section_volume(INF, Direction.two_equal(2),
                                         mc.McSpec(samples=4000, seed=1))
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.err_bound == pytest.approx(0.0, abs=1e-13)

    def test_p4_two_equal(self):
        res = mc.estimate_section_volume(4.0, Direction.two_equal(2),
                                         mc.McSpec(samples=10 ** 6, seed=2))
        assert abs(res.value - math.sqrt(2.0)) <= 3.0 * res.err_bound

    def test_degenerate_direction(self):
        res = mc.estimate_section_volume(4.0, Direction([1.0, 0.0, 0.0]),
                                         mc.McSpec(samples=100, seed=0))
        assert res.value == 1.0 and res.err_bound == 0.0
        assert res.meta["degenerate"] is True

    def test_cross_engine_p4_diag3(self):
        q = section_volume_quadrature(4.0, Direction.diagonal(3), 1e-5)
        m = mc.estimate_section_volume(4.0, Direction.diagonal(3),
                                       mc.McSpec(samples=10 ** 6, seed=3))
        assert abs(q.value - m.value) <= 3.0 * m.err_bound + q.err_bound

    def test_strategy_consistency_and_variance_reduction(self):
        spec = mc.McSpec(samples=10 ** 6, seed=3)
        r_rb = mc.estimate_section_volume(4.0, Direction.diagonal(3), spec)
        bm_pl = plain_batch_means(4.0, Direction.diagonal(3), spec)
        # the median of batch means is robust against the plain estimator's heavy tail
        se_pl = bm_pl.std(ddof=1) / math.sqrt(bm_pl.size)
        combined = math.hypot(r_rb.err_bound, se_pl)
        assert abs(r_rb.value - np.median(bm_pl)) <= 4.0 * combined
        v_rb = np.var(r_rb.meta["batch_values"], ddof=1)
        assert v_rb < np.var(bm_pl, ddof=1)  # same seeds, strictly smaller spread

    def test_reproducible_bit_for_bit(self):
        spec = mc.McSpec(samples=200_000, seed=9)
        a = mc.estimate_section_volume(9.0, Direction.diagonal(5), spec)
        b = mc.estimate_section_volume(9.0, Direction.diagonal(5), spec)
        assert a.value == b.value and a.err_bound == b.err_bound

    def test_per_draw_bounded_by_peak_term(self):
        a = Direction.diagonal(5).as_array()
        vals = mc._draw_batch(3.0, a, RngStream(21, 0).generator, 10_000)
        # 10 000 draws fit one chunk, which draws its radial moduli first:
        # a twin generator reproduces them and so max_j a_j R_j per draw
        twin = RngStream(21, 0).generator
        vmax = (a[None, :] * radial_array(3.0, (10_000, a.size), twin)).max(axis=1)
        assert np.all(vals <= 1.0 / vmax ** 2 + 1e-12)


class TestCltExperiment:
    def test_target_constant_p4(self):
        rows = mc.clt_experiment(4.0, [2], mc.McSpec(samples=1000, seed=0))
        assert rows[0].c_p_target == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_polydisc_n2_exact(self):
        rows = mc.clt_experiment(INF, [2], mc.McSpec(samples=2000, seed=0))
        assert rows[0].estimate == pytest.approx(2.0, abs=1e-12)
        assert rows[0].c_p_target == 2.0

    def test_n2_matches_closed_form(self):
        rows = mc.clt_experiment(4.0, [2], mc.McSpec(samples=200_000, seed=6))
        expected = math.sqrt(2.0) / gamma(1.5)
        assert abs(rows[0].estimate - expected) <= 3.0 * rows[0].std_err

    def test_estimates_approach_target(self):
        rows = mc.clt_experiment(4.0, [4, 16, 64], mc.McSpec(samples=200_000, seed=7))
        gaps = [abs(r.estimate - r.c_p_target) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            mc.clt_experiment(4.0, [1], mc.McSpec(samples=100, seed=0))
