import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpsections import specfun as sf

EULER = 0.57721566490153286061

# Frozen oracle values. Each was produced by the independent oracle coded
# next to it (re-run cheaply here where feasible).
DIGAMMA_15_ORACLE = 0.03648997397857653   # 1e6-term series + log tail


def digamma_series_oracle(x_shift: float, n_terms: int = 10 ** 6) -> float:
    """Psi(1+x) = -euler + sum_k x/(k(k+x)), truncated with a log tail estimate."""
    k = np.arange(1, n_terms + 1, dtype=np.float64)
    partial = math.fsum((x_shift / (k * (k + x_shift)))[::-1])
    tail = math.log1p(x_shift / (n_terms + 0.5))
    return -EULER + partial + tail


class TestGamma:
    def test_accuracy_vs_mpmath(self):
        mp = pytest.importorskip("mpmath")
        xs = np.concatenate([np.geomspace(1e-300, 1e-2, 60), np.linspace(1e-2, 5.0, 400)])
        with mp.workdps(40):
            worst = max(float(abs(mp.mpf(sf.gamma(float(x))) / mp.gamma(float(x)) - 1)) for x in xs)
        assert worst <= 1e-15
        assert worst <= sf.GAMMA_REL_ERR


class TestDigammaTrigamma:
    def test_digamma_known_values(self):
        assert sf.digamma(1.0) == pytest.approx(-EULER, abs=1e-12)
        assert sf.digamma(2.0) == pytest.approx(1.0 - EULER, abs=1e-12)

    def test_digamma_derived_oracle(self):
        assert sf.digamma(1.5) == pytest.approx(DIGAMMA_15_ORACLE, abs=1e-9)
        # regenerate the oracle to guard the frozen constant
        assert digamma_series_oracle(0.5) == pytest.approx(DIGAMMA_15_ORACLE, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.digamma(0.0)


class TestRecurrences:
    # Grid x in {0.5, 0.51, ..., 5}, tolerance 1e-11.
    GRID = np.arange(0.5, 5.0 + 1e-9, 0.01)

    def test_digamma_recurrence(self):
        for x in self.GRID:
            x = float(x)
            assert abs(sf.digamma(x + 1.0) - sf.digamma(x) - 1.0 / x) <= 1e-11


class TestBessel:
    def test_at_zero(self):
        assert sf.j0_array(0.0) == 1.0
        assert sf.j1_array(0.0) == 0.0

    def test_residuals_at_j0_zeros(self):
        # the first 200 zeros reach x ~ 628, far into the Hankel branch
        sp = pytest.importorskip("scipy.special")
        zs = sp.jn_zeros(0, 200)
        assert zs[0] == pytest.approx(2.4048, abs=5e-4)  # value quoted to 5 digits
        assert abs(sf.j0_array(zs[0])) < 1e-12
        assert np.max(np.abs(sf.j0_array(zs))) < 1e-11

    def test_j1_max(self):
        # coarse grid then golden refinement around the maximum
        xs = np.linspace(0.5, 3.5, 3001)
        vals = sf.j1_array(xs)
        i = int(np.argmax(vals))
        assert xs[i] == pytest.approx(1.8412, abs=2e-3)
        assert vals[i] == pytest.approx(0.5819, abs=1e-4)
        assert vals[i] <= 0.5819  # the envelope constant really is an upper bound

    def test_j1_first_zero_by_rootfinding(self):
        # bracketing + bisection between the max (1.84) and 5
        lo, hi = 2.0, 5.0
        assert sf.j1_array(lo) > 0 > sf.j1_array(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if sf.j1_array(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(3.8317059702075125, abs=1e-9)

    def test_j0_amplitude_bound(self):
        xs = np.linspace(1e-3, 200.0, 4001)
        bound = math.sqrt(2.0 / math.pi) / np.sqrt(xs)
        assert np.all(np.abs(sf.j0_array(xs)) <= bound + 1e-15)

    def test_j1_global_bound(self):
        xs = np.linspace(0.0, 400.0, 8001)
        assert np.all(np.abs(sf.j1_array(xs)) <= 0.5819)

    def test_derivative_identity(self):
        # d/dx (x J1(x)) = x J0(x), central differences
        h = 1e-6
        for x in np.linspace(0.1, 30.0, 60):
            x = float(x)
            lhs = ((x + h) * sf.j1_array(x + h) - (x - h) * sf.j1_array(x - h)) / (2 * h)
            assert lhs == pytest.approx(x * sf.j0_array(x), abs=1e-5)

    def test_accuracy_vs_mpmath(self):
        mp = pytest.importorskip("mpmath")
        # every seam of the (2, 16] table (2, 2.5, ..., 16) and its
        # neighbours 1 ulp either side, plus a dense grid over the table
        seams = np.arange(2.0, 16.25, 0.5)
        xs = np.concatenate([
            np.linspace(0.05, 50.0, 120), np.linspace(51.0, 900.0, 40),
            seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf),
            np.linspace(2.0, 16.0, 1401)[1:],
        ])
        tol = np.where(xs <= 50.0, 1e-13, 1e-10)
        tiny = np.geomspace(1e-12, 1e-2, 41)
        with mp.workdps(30):
            for order, fn in ((0, sf.j0_array), (1, sf.j1_array)):
                ref = np.array([float(mp.besselj(order, float(x))) for x in xs])
                assert np.all(np.abs(fn(xs) - ref) < tol)
            # J1 keeps its relative accuracy towards 0
            ref = np.array([float(mp.besselj(1, float(x))) for x in tiny])
            assert np.all(np.abs(sf.j1_array(tiny) / ref - 1.0) <= 1e-15)

    def test_shape_contract(self):
        # hankel passes N x order arrays; scalars and empty arrays keep theirs
        for fn in (sf.j0_array, sf.j1_array):
            assert fn(0.5).shape == ()
            assert fn(np.empty(0)).shape == (0,)
            grid = np.linspace(0.0, 40.0, 60).reshape(5, 12)
            out = fn(grid)
            assert out.shape == (5, 12)
            assert np.array_equal(out.ravel(), fn(grid.ravel()))

    def test_parity(self):
        xs = np.linspace(0.0, 40.0, 801)
        assert np.array_equal(sf.j0_array(-xs), sf.j0_array(xs))
        assert np.array_equal(sf.j1_array(-xs), -sf.j1_array(xs))

    def test_nan_propagates(self):
        xs = np.array([np.nan, 1.0, 5.0, 30.0])
        for fn in (sf.j0_array, sf.j1_array):
            out = fn(xs)
            assert np.isnan(out[0]) and np.all(np.isfinite(out[1:]))
            assert np.isnan(fn(np.nan))

    def test_table_not_built_at_import(self):
        # the (2, 16] table is built on first use; building it at import
        # would add to every command's start-up
        code = ("from lpsections import cli, specfun; cli.build_parser(); "
                "print(specfun._bessel_table.cache_info().currsize)")
        src = str(Path(sf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert res.stdout.strip() == "0"

