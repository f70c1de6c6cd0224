import math

import numpy as np
import pytest

from lpsections import hankel as hk
from lpsections.closedform import a2_closed_form, a2_general
from lpsections.direction import Direction
from lpsections.specfun import gamma, j1_array

INF = math.inf

_trapz = getattr(np, "trapezoid", None) or np.trapz

# Frozen oracle: (2/Gamma(1.5)) * trapezoid of J0(r) exp(-r^4) r on [0, 6]
# with 1e6+1 nodes (truncation beyond 6 is below e^-1296).  The trapezoid
# rule itself carries ~7e-12 discretization error at this step size.
KERNEL_P4_S1_ORACLE = 0.8665252407699683
KERNEL_ORACLE_SELF_ERR = 2e-11

P_GRID = (1.0, 2.0, 3.0, 4.0, 9.0, 26.0, 140.0, INF)


def kernel_at(p, s, trunc_target=5e-11):
    """One direct kernel value and its error bound."""
    vals, errs = hk.kernel_values(p, np.array([s]), trunc_target=trunc_target)
    return float(vals[0]), float(errs[0])


def q1_envelope(p, s):
    """The q = 1 envelope family, min(1, C1/s), valid for every s > 0."""
    q, c, x_min = hk._envelope_families(p)[0]
    assert q == 1.0 and x_min == 0.0
    return min(1.0, c / s)


def envelope_refined(p, s):
    """Best proven pointwise bound on |k_p(s)| over every envelope family
    (<= the q = 1 family min(1, C1/s))."""
    best = 1.0
    for q, c, x_min in hk._envelope_families(p):
        if s >= x_min:
            best = min(best, c / s ** q)
    return best


def trapezoid_kernel_oracle():
    sp = pytest.importorskip("scipy.special")
    r = np.linspace(0.0, 6.0, 10 ** 6 + 1)
    f = sp.j0(r) * np.exp(-(r ** 4)) * r
    return 2.0 / gamma(1.5) * float(_trapz(f, r))


def series_kernel(p, x, terms=8):
    """k_p(x) to 40 digits from its power series, for small x:
    sum_m (-x^2/4)^m / m!^2 * 2 Gamma((2m+2)/p) / (p Gamma(1+2/p))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p, h = mpmath.mpf(p), (mpmath.mpf(x) / 2) ** 2
        total = mpmath.fsum((-h) ** m / mpmath.factorial(m) ** 2 * mpmath.gamma((2 * m + 2) / p)
                            for m in range(terms))
        return 2 * total / (p * mpmath.gamma(1 + 2 / p))


class TestKernel:
    def test_value_one_at_zero(self):
        for p in P_GRID:
            value, err = kernel_at(p, 0.0)
            assert value == 1.0 and err == 0.0

    def test_inf_closed_form(self):
        value, err = kernel_at(INF, 2.0)
        assert err == 0.0
        assert value == pytest.approx(float(j1_array(2.0)), abs=1e-15)
        assert value == pytest.approx(0.5767248077568734, abs=1e-12)

    def test_derived_trapezoid_oracle(self):
        value, err = kernel_at(4.0, 1.0)
        assert abs(value - KERNEL_P4_S1_ORACLE) <= err + KERNEL_ORACLE_SELF_ERR
        # regenerate the oracle to guard the frozen constant
        assert trapezoid_kernel_oracle() == pytest.approx(KERNEL_P4_S1_ORACLE, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_at(4.0, -1.0)
        with pytest.raises(ValueError):
            kernel_at(0.5, 1.0)
        for bad in (math.nan, math.inf):
            for p in (4.0, INF):
                with pytest.raises(ValueError):
                    hk.kernel_values(p, np.array([1.0, bad]))

    def test_modulus_bounded_by_one(self):
        s = np.linspace(0.0, 50.0, 26)
        for p in P_GRID:
            vals, errs = hk.kernel_values(p, s)
            assert np.all(np.abs(vals) <= 1.0 + errs + 1e-15)

    @pytest.mark.parametrize("p", [1.5, 4.0, 140.0])
    def test_chunking_keeps_bits(self, p, monkeypatch):
        # every argument's panel sums form inside one chunk, so the chunk
        # size cannot change a bit
        x = np.linspace(0.0, 120.0, 241)
        runs = []
        for chunk in (1, 4096, 60000):
            monkeypatch.setattr(hk, "_CHUNK_PANELS", chunk)
            runs.append(hk.kernel_values(p, x))
        for vals, errs in runs[1:]:
            assert np.array_equal(vals, runs[0][0]) and np.array_equal(errs, runs[0][1])

    def test_invariant_value_within_one_plus_err(self):
        value, err = kernel_at(9.0, 0.3)
        assert abs(value) <= 1.0 + err

    @pytest.mark.parametrize("p", [1.5, 2.3, 3.0, 4.0, 5.5])
    def test_small_x_within_bound_of_series(self, p):
        # near x = 0 the truncation bound is tight, so the bound must also
        # cover the rounding of 2/Gamma(1+2/p) and of the panel sums
        vals, errs = hk.kernel_values(p, np.array([1e-6]))
        assert abs(float(vals[0]) - series_kernel(p, 1e-6)) <= float(errs[0])


class TestExactOracles:
    # k_1(x) = (1 + x^2)^(-3/2) and k_2(x) = exp(-x^2/4) exactly, and
    # A(1, diag n) = n / (3n - 2)
    X = np.linspace(0.0, 60.0, 241)

    @pytest.mark.parametrize("trunc_target", [1e-13, 1e-11, 1e-9])
    def test_p1_direct_kernel(self, trunc_target):
        vals, errs = hk.kernel_values(1.0, self.X, trunc_target=trunc_target)
        assert np.all(np.abs(vals - (1.0 + self.X ** 2) ** -1.5) <= errs)

    @pytest.mark.parametrize("trunc_target", [1e-13, 1e-11, 1e-9])
    def test_p2_table_kernel(self, trunc_target):
        table = hk._Kernel(2.0, trunc_target)
        vals, errs, _, _ = table.lookup(self.X)
        assert np.all(np.isfinite(table.state[1]))
        assert np.all(np.abs(vals - np.exp(-0.25 * self.X ** 2)) <= errs)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_p1_diagonal_volume(self, n):
        res = hk.section_volume_quadrature(1.0, Direction.diagonal(n), 1e-6)
        assert res.engine == "quadrature"
        assert abs(res.value - n / (3.0 * n - 2.0)) <= res.err_bound


class TestEnvelope:
    def test_clamps_to_one(self):
        # the min clamps whenever 2*0.5819*ratio/s >= 1; at p = 1 the ratio
        # is 1/2, so the clamp holds only below s ~ 0.58 there
        for p in (1.0, 2.0, 4.0, INF):
            assert q1_envelope(p, 0.5) == 1.0
        for p in (2.0, 4.0, 9.0, INF):
            assert q1_envelope(p, 1.0) == 1.0
        assert q1_envelope(1.0, 1.0) == pytest.approx(0.5819, abs=1e-12)

    def test_p9_constant_cap(self):
        assert q1_envelope(9.0, 2.0) <= 1.2077 / 2.0

    def test_formula_p4_s10(self):
        g_ratio = gamma(1.25) / gamma(1.5)
        assert q1_envelope(4.0, 10.0) == pytest.approx(1.1638 / 10.0 * g_ratio, rel=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_dominates_kernel(self, p):
        s = np.linspace(0.05, 50.0, 120)
        vals, errs = hk.kernel_values(p, s)
        for si, v, e in zip(s, vals, errs):
            assert q1_envelope(p, float(si)) >= abs(v) - e
            assert envelope_refined(p, float(si)) >= abs(v) - e

    def test_refined_never_looser(self):
        for p in P_GRID:
            for s in (0.5, 2.0, 10.0, 200.0):
                assert envelope_refined(p, s) <= q1_envelope(p, s) + 1e-15


class TestTailBound:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 16])
    def test_matches_closed_form_reference(self, n):
        # diagonal direction at p = 9 truncated at sqrt(2n): the family of
        # bounds must undercut (2n/(n-2)) 0.854^n
        b = hk.tail_bound_outer(9.0, Direction.diagonal(n), math.sqrt(2.0 * n))
        assert b <= 2.0 * n / (n - 2.0) * 0.854 ** n

    def test_monotone_in_cutoff(self):
        for p in (4.0, 9.0, INF):
            d = Direction([0.8, 0.4, 0.4472135954999579])
            for s in (5.0, 10.0, 40.0):
                assert hk.tail_bound_outer(p, d, 2.0 * s) < hk.tail_bound_outer(p, d, s)

    def test_derived_vs_envelope_quadrature(self):
        # sandwich: integral of the pointwise-min envelope <= bound <= the
        # single-family closed form with the first-order envelope
        p, s_max = 4.0, 10.0
        d = Direction([0.8, 0.4, 0.4472135954999579])
        bound = hk.tail_bound_outer(p, d, s_max)
        s = np.geomspace(s_max, 1e6, 20001)
        prod = np.ones_like(s)
        for c in d.nonzero():
            prod *= np.array([envelope_refined(p, float(c * si)) for si in s])
        lower = float(_trapz(prod * s, s))
        env1 = 1.0
        for c in d.nonzero():
            env1 *= q1_envelope(p, 1.0) * 2.0 * 0.5819 * gamma(1.25) / gamma(1.5) / c
        env1_tail = env1 / s_max  # prod (C1/a_j) * s^(2-3)/(3-2) at s_max
        assert lower <= bound <= env1_tail * 1.0001

    def test_dimension_error(self):
        with pytest.raises(hk.DimensionError):
            hk.tail_bound_outer(4.0, Direction([1.0, 1.0, 0.0]), 10.0)

    def test_overflow_is_infinite(self):
        # the bound's logarithm is past the double range: inf, not OverflowError
        assert hk.tail_bound_outer(4.0, [1.0, 1e-200, 1e-200], 4.0) == INF


class TestTolerance:
    # checked before the closed-form routing, so two_equal(2) rejects it too
    @pytest.mark.parametrize("tol", [0.0, -1.0, INF, math.nan], ids=["0", "neg", "inf", "nan"])
    @pytest.mark.parametrize("d", [Direction.diagonal(3), Direction.two_equal(2)], ids=["diag3", "a2"])
    def test_validation(self, d, tol):
        with pytest.raises(ValueError, match="tol_abs"):
            hk.section_volume_quadrature(4.0, d, tol)


class TestSectionVolume:
    def test_two_equal_routed_exact(self):
        for p in (3.0, 4.0, 9.0, 26.265, 140.0):
            res = hk.section_volume_quadrature(p, Direction.two_equal(3))
            assert res.engine == "closed_form"
            assert res.value == a2_closed_form(p)
            assert res.err_bound == 0.0

    def test_polydisc_two_coordinate(self):
        res = hk.section_volume_quadrature(INF, Direction.diagonal(2))
        assert res.value == 2.0

    def test_coordinate_axis(self):
        res = hk.section_volume_quadrature(7.0, Direction([1.0, 0.0, 0.0, 0.0]))
        assert res.value == 1.0 and res.err_bound == 0.0

    def test_general_two_nonzero_closed(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            b = np.abs(rng.standard_normal(2)) + 0.1
            b /= np.linalg.norm(b)
            d = Direction([b[0], b[1], 0.0])
            res = hk.section_volume_quadrature(9.0, d)
            nz = d.nonzero()
            assert res.value == a2_general(9.0, nz[0], nz[1])

    def test_zero_padding_invariance(self):
        r1 = hk.section_volume_quadrature(9.0, Direction.diagonal(3), 1e-6)
        r2 = hk.section_volume_quadrature(9.0, Direction([1.0, 1.0, 1.0, 0.0, 0.0]), 1e-6)
        assert abs(r1.value - r2.value) <= 2e-6

    def test_permutation_invariance(self):
        tol = 1e-4
        raw = [0.8, 0.4, 0.4472135954999579]
        d1 = Direction(raw)
        d2 = Direction([raw[2], raw[0], raw[1]])  # permuted, same multiset
        assert d1 == d2
        r1 = hk.section_volume_quadrature(4.0, d1, tol)
        r2 = hk.section_volume_quadrature(4.0, d2, tol)
        assert r1.value == r2.value  # identical canonical input, deterministic engine
        # with an interior zero the canonical forms also coincide
        assert Direction([0.8, 0.6, 0.0]) == Direction([0.6, 0.0, 0.8])
        ra = hk.section_volume_quadrature(4.0, Direction([0.8, 0.6, 0.0]), tol)
        rb = hk.section_volume_quadrature(4.0, Direction([0.6, 0.0, 0.8]), tol)
        assert ra.value == rb.value

    def test_monotone_in_p_and_range(self):
        # fixed four-coordinate diagonal; values are nondecreasing in p and
        # stay within [1 - tol, 2 + tol] for p >= 2
        ps = (2.5, 3.0, 4.0, 6.0, 9.0, 26.0, 140.0)
        vals = []
        for p in ps:
            res = hk.section_volume_quadrature(p, Direction.diagonal(4), 1e-6)
            assert res.value > 0.0
            assert 1.0 - res.err_bound <= res.value <= 2.0 + res.err_bound
            vals.append(res.value)
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 2e-6

    def test_exact_at_p2(self):
        # at p = 2 every section has normalized volume exactly 1
        res = hk.section_volume_quadrature(2.0, Direction([0.9, 0.3, 0.2, 0.1, 0.1, 0.1]),
                                           1e-8)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.err_bound <= 1e-8

    def test_err_bound_within_tol(self):
        res = hk.section_volume_quadrature(4.0, Direction.diagonal(5), 1e-5)
        assert res.err_bound <= 1e-5
        assert res.engine == "quadrature"
        assert res.meta["s_max"] > 0

    def test_nonconvergence_reported(self, monkeypatch):
        # a cutoff far too small for the requested tolerance
        monkeypatch.setattr(hk, "_auto_s_max",
                            lambda p, a, pref, tol: (3.0, pref * hk.tail_bound_outer(p, a, 3.0)))
        with pytest.raises(hk.NonConvergenceError, match="certified error") as info:
            hk.section_volume_quadrature(9.0, Direction.diagonal(3), 1e-6)
        # the message names the cutoff and the error split, not the meta dict
        msg = str(info.value)
        assert "at s_max 3:" in msg and "{" not in msg
        for part in ("tail", "quadrature", "propagated kernel error", "prefactor"):
            assert f"{part} " in msg

    def test_collapsed_radial_cells(self):
        # at p = 1e20 the kernel quadrature has no radial cell left, but
        # k(0) = 1 needs none
        vals, errs = hk.kernel_values(1e20, np.array([0.0]))
        assert (float(vals[0]), float(errs[0])) == (1.0, 0.0)
        with pytest.raises(hk.NonConvergenceError, match="p=1e\\+20"):
            hk.kernel_values(1e20, np.array([0.5]))
        with pytest.raises(hk.NonConvergenceError, match="p=1e\\+20"):
            hk.section_volume_quadrature(1e20, Direction.diagonal(3))

    def test_panel_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(hk, "_PANEL_BUDGET", 4)
        with pytest.raises(hk.NonConvergenceError, match="panel budget 4"):
            hk.section_volume_quadrature(4.0, Direction.diagonal(3), 1e-6)


def outer_adaptive_loop(p, coeffs, mults, s_max, tol_quad, trunc_target):
    """The outer integration with per-panel Python bookkeeping: a list of
    (lo, hi) tuples as the queue and three accumulator lists.  Same waves
    and arithmetic as hankel._outer_adaptive, so the totals must match
    bit for bit."""
    order = hk._GL_ORDER
    g1, w1 = hk._gl_nodes(order)
    g2, w2 = hk._gl_nodes(2 * order)
    n_init = int(min(1024, max(6, math.ceil(s_max * float(np.sum(coeffs * mults)) / (2.0 * math.pi)))))
    edges = np.linspace(0.0, s_max, n_init + 1)
    pending = list(zip(edges[:-1], edges[1:]))
    acc_vals, acc_est, acc_prop = [], [], []
    while pending:
        assert len(acc_vals) + len(pending) <= hk._PANEL_BUDGET
        wave, pending = pending[:hk._WAVE_LIMIT], pending[hk._WAVE_LIMIT:]
        lo = np.array([w[0] for w in wave])
        hi = np.array([w[1] for w in wave])
        mid, half, n_pan = 0.5 * (lo + hi), 0.5 * (hi - lo), len(wave)
        s_all = np.concatenate([(mid[:, None] + half[:, None] * g[None, :]).ravel() for g in (g1, g2)])
        kv, ke, _, _ = hk._kernel(p, trunc_target).lookup((coeffs[:, None] * s_all[None, :]).ravel())
        kv, ke = kv.reshape(coeffs.size, -1), ke.reshape(coeffs.size, -1)
        bounds = np.maximum(np.minimum(1.0, np.abs(kv) + ke), 1e-300)
        prod_bound = np.prod(bounds ** mults[:, None], axis=0)
        prop = np.zeros_like(s_all)
        for i in range(coeffs.size):
            prop += mults[i] * ke[i] * prod_bound / bounds[i]
        f_all = np.prod(kv ** mults[:, None], axis=0) * s_all
        k1 = n_pan * order
        f1 = (f_all[:k1].reshape(n_pan, order) * w1[None, :]).sum(axis=1) * half
        f2 = (f_all[k1:].reshape(n_pan, 2 * order) * w2[None, :]).sum(axis=1) * half
        p2 = ((prop * s_all)[k1:].reshape(n_pan, 2 * order) * w2[None, :]).sum(axis=1) * half
        est = np.abs(f2 - f1)
        accept = (est <= tol_quad * (hi - lo) / s_max) | (hi - lo <= s_max * 1e-12)
        for j in range(n_pan):
            if accept[j]:
                acc_vals.append(float(f2[j]))
                acc_est.append(float(est[j]))
                acc_prop.append(float(p2[j]))
            else:
                m = float(mid[j])
                pending += [(float(lo[j]), m), (m, float(hi[j]))]
    return math.fsum(acc_vals), math.fsum(acc_est), math.fsum(acc_prop), len(acc_vals)


class TestOuterQueue:
    @pytest.mark.parametrize("p,a,tol", [(4.0, [1.0, 0.8, 0.6], 1e-9), (INF, [1.0, 1.0, 1.0], 1e-8),
                                         (2.3, [1.0, 1.0, 1.0, 1.0], 1e-7)])
    def test_matches_per_panel_loop(self, p, a, tol):
        d = Direction(a)
        coeffs = np.array([g[0] for g in d.grouped()])
        mults = np.array([g[1] for g in d.grouped()])
        s_max = 30.0
        args = (p, coeffs, mults, s_max, 1e-3 * tol, min(tol / 10.0, max(1e-13, tol * 1e-5)))
        got = hk._outer_adaptive(*args)
        assert got[3] > 6  # some panels were split
        assert got[:4] == outer_adaptive_loop(*args)


class TestCrossEngineLight:
    def test_quad_vs_mc_p4_diag3(self):
        from lpsections.montecarlo import McSpec, estimate_section_volume
        q = hk.section_volume_quadrature(4.0, Direction.diagonal(3), 1e-5)
        m = estimate_section_volume(4.0, Direction.diagonal(3), McSpec(samples=400_000, seed=11))
        assert abs(q.value - m.value) <= 4.0 * m.err_bound + q.err_bound


TABLE_PS = (1.5, 2.3, 3.0, 4.0, 7.5, 9.0, 40.0, 140.0, 500.0)


def mpmath_kernel(p, x):
    """k_p(x) to about 25 digits: the radial integral on quarter-unit
    cells up to where exp(-r^p) is below 1e-27."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r_end = mpmath.mpf(63) ** (mpmath.mpf(1) / p)
        cells = mpmath.linspace(0, r_end, int(mpmath.ceil(4 * r_end)) + 1)
        integral = mpmath.quad(lambda r: mpmath.besselj(0, x * r) * mpmath.exp(-r ** p) * r, cells)
        return float(2 / mpmath.gamma(1 + mpmath.mpf(2) / p) * integral)


class TestChebyshevKernelTable:
    @pytest.mark.parametrize("trunc_target", [1e-11, 1e-13])
    @pytest.mark.parametrize("p", TABLE_PS)
    def test_within_direct_bounds(self, p, trunc_target):
        x = np.linspace(0.0, 60.0, 400)
        table = hk._Kernel(p, trunc_target)
        tv, te, added, interp = table.lookup(x)
        # every panel is certified within the target, so no value fell back
        assert added > 0 and 0.0 < interp and np.all(table.state[1] <= trunc_target)
        dv, de = hk.kernel_values(p, x, trunc_target=trunc_target)
        assert np.all(np.abs(tv - dv) <= te + de)

    @pytest.mark.parametrize("p", [3.0, 9.0])
    def test_against_mpmath(self, p):
        x = np.array([0.0, 0.3, 1.0, 1.9, 2.0, 3.7, 6.1, 9.5, 14.2, 19.9])
        tv, te, _, _ = hk._Kernel(p, 1e-13).lookup(x)
        for xi, v, e in zip(x, tv, te):
            assert abs(v - mpmath_kernel(p, float(xi))) <= e

    def test_build_order_independent(self):
        stepwise = hk._Kernel(40.0, 1e-12)
        stepwise.lookup(np.array([100.0]))
        stepwise.lookup(np.array([200.0]))
        at_once = hk._Kernel(40.0, 1e-12)
        at_once.lookup(np.array([200.0]))
        for a, b in zip(stepwise.state, at_once.state):
            assert np.array_equal(a, b)

    def test_p1_takes_the_direct_path(self):
        x = np.linspace(0.1, 30.0, 50)
        kv, ke, added, interp = hk._kernel(1.0, 1e-12).lookup(x)
        dv, de = hk.kernel_values(1.0, x, trunc_target=1e-12)
        assert (added, interp) == (0, 0.0)
        assert np.array_equal(kv, dv) and np.array_equal(ke, de)
        # the bits of the direct-evaluation engine, within err_bound of the
        # exact A(1, diag 3) = 3/7
        res = hk.section_volume_quadrature(1.0, Direction.diagonal(3), 1e-4)
        assert (res.value, res.err_bound) == (0.42857140908542257, 1.9352793245316283e-05)
        assert abs(res.value - 3.0 / 7.0) <= res.err_bound
        assert res.meta["kernel_nodes"] == 0

    def test_repeat_adds_no_nodes(self):
        d = Direction([1.0, 0.8, 0.6])
        first = hk.section_volume_quadrature(6.125, d, 1e-6)
        again = hk.section_volume_quadrature(6.125, d, 1e-6)
        assert first.meta["kernel_nodes"] > 0 and again.meta["kernel_nodes"] == 0
        assert first.meta["kernel_interp_bound"] > 0.0
        assert (again.value, again.err_bound) == (first.value, first.err_bound)
        assert again.meta["kernel_evals"] == first.meta["kernel_evals"]

    def test_concurrent_fills_match_serial(self):
        # threads that fill one table to different extents at once must
        # read the same bits as serial lookups on a table of their own
        import sys
        import threading

        xs = [np.linspace(0.0, 10.0 * (i + 1), 97) for i in range(6)]
        shared = hk._Kernel(40.0, 1e-11)
        got = [None] * len(xs)

        def work(i):
            got[i] = shared.lookup(xs[i])[:2]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        for x, (v, e) in zip(xs, got):
            sv, se, _, _ = hk._Kernel(40.0, 1e-11).lookup(x)
            assert np.array_equal(v, sv) and np.array_equal(e, se)
