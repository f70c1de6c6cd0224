import math

import numpy as np
import pytest

from lpsections import randkit as rk
from lpsections.specfun import gamma

N = 10 ** 6


def se(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1) / math.sqrt(x.size))


class TestStreams:
    def test_reproducible(self):
        a = rk.RngStream(42, 7).generator.random(1000)
        b = rk.RngStream(42, 7).generator.random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rk.RngStream(42, 0).generator.random(1000)
        b = rk.RngStream(42, 1).generator.random(1000)
        assert not np.array_equal(a, b)

    def test_draws_are_pinned(self):
        # the optimizer draws its random starts from key (seed, 0), so this
        # stream's kind is part of its output
        got = rk.RngStream(42, 7).generator.random(4).tolist()
        assert got == [0.652402014600426, 0.7420279682752083, 0.640424051799781, 0.07830649437329074]

    @pytest.mark.parametrize("key", [(-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64),
                                     (0, 0, 2 ** 64), (0, -1, 0)])
    def test_key_outside_64_bits(self, key):
        # masking to 64 bits made -1 an alias of 2^64 - 1
        with pytest.raises(ValueError, match="seed"):
            rk.RngStream(*key)
        top = 2 ** 64 - 1
        assert rk.RngStream(top, top).generator.random(2).shape == (2,)


class TestRadial:
    def test_degenerate_law(self):
        r = rk.radial_array(math.inf, (5, 3), rk.RngStream(1, 0).generator)
        assert r.shape == (5, 3) and np.all(r == 1.0)

    def test_negative_second_moment_p4(self):
        r = rk.radial_array(4.0, N, rk.RngStream(21, 0).generator)
        x = r ** -2.0
        assert abs(x.mean() - 1.0 / gamma(1.5)) < 3 * se(x)

    def test_second_moment_p4(self):
        r = rk.radial_array(4.0, N, rk.RngStream(22, 0).generator)
        x = r ** 2.0
        assert abs(x.mean() - gamma(2.0) / gamma(1.5)) < 3 * se(x)

    @pytest.mark.parametrize("p", [3.0, 4.0, 9.0])
    def test_moment_identity_grid(self, p):
        # E R^k = Gamma(1 + (k+2)/p) / Gamma(1 + 2/p); validate the formula
        # against a quadrature oracle, then the sampler against the formula.
        scipy_integrate = pytest.importorskip("scipy.integrate")
        c_inv = p / gamma(1.0 + 2.0 / p)

        def density(t):
            return c_inv * t ** (p + 1.0) * math.exp(-(t ** p))

        r = rk.radial_array(p, N, rk.RngStream(23, int(p)).generator)
        for k in (-2.0, 2.0, 3.0, 4.0):
            formula = gamma(1.0 + (k + 2.0) / p) / gamma(1.0 + 2.0 / p)
            oracle, _ = scipy_integrate.quad(
                lambda t: t ** k * density(t), 0.0, 50.0, epsabs=1e-12, epsrel=1e-12
            )
            assert formula == pytest.approx(oracle, rel=1e-9)
            x = r ** k
            assert abs(x.mean() - formula) < 4 * se(x)

    @pytest.mark.parametrize("p", [10.0, 20.0, 100.0])
    def test_unit_deviation_second_moment_bound(self, p):
        # E (R-1)^2 in closed form, bounded by 2 / (p^2 Gamma(1+2/p))
        moment = (
            gamma(1.0 + 4.0 / p) - 2.0 * gamma(1.0 + 3.0 / p) + gamma(1.0 + 2.0 / p)
        ) / gamma(1.0 + 2.0 / p)
        assert 0.0 < moment <= 2.0 / (p ** 2 * gamma(1.0 + 2.0 / p))

    def test_unit_deviation_sampled(self):
        p = 10.0
        r = rk.radial_array(p, N, rk.RngStream(24, 0).generator)
        x = (r - 1.0) ** 2
        formula = (
            gamma(1.0 + 4.0 / p) - 2.0 * gamma(1.0 + 3.0 / p) + gamma(1.0 + 2.0 / p)
        ) / gamma(1.0 + 2.0 / p)
        assert abs(x.mean() - formula) < 4 * se(x)


class TestSphere3:
    def test_unit_norm(self):
        pts = rk.sphere3_array(1000, rk.RngStream(31, 0).generator)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-14

    def test_componentwise_mean_zero(self):
        pts = rk.sphere3_array(N, rk.RngStream(32, 0).generator)
        for j in range(4):
            col = pts[:, j]
            assert abs(col.mean()) < 3 * se(col)

    def test_first_coordinate_square(self):
        pts = rk.sphere3_array(N, rk.RngStream(33, 0).generator)
        x = pts[:, 0] ** 2
        assert abs(x.mean() - 0.25) < 3 * se(x)


class TestDeterminism:
    def test_radial_bytes(self):
        a = rk.radial_array(4.0, 4096, rk.RngStream(7, 9).generator)
        b = rk.radial_array(4.0, 4096, rk.RngStream(7, 9).generator)
        assert a.tobytes() == b.tobytes()
