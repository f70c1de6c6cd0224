import math
import warnings

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
            monkeypatch.setattr(hk, "_BATCH_POINTS", 12 * chunk)
            runs.append(hk.kernel_values(p, x))
        for vals, errs in runs[1:]:
            assert np.array_equal(vals, runs[0][0]) and np.array_equal(errs, runs[0][1])

    def test_memory_does_not_grow_with_arguments(self):
        # the argument x cell subpanel counts form one block at a time, so
        # 20 000 arguments stay within a few chunks' temporaries
        import tracemalloc

        hk.kernel_values(4.0, np.linspace(1e-3, 1.0, 10))
        tracemalloc.start()
        try:
            hk.kernel_values(4.0, np.linspace(1e-3, 1.0, 20_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

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


def capped_tail_bound(p, d, s_max):
    """The outer tail bound with envelope caps: per envelope family and
    cut m, the m largest coordinates take the power law and every other
    one is capped at its envelope value at s_max.  The caps never lower
    the minimum (hankel._tail_laws), so the engine leaves them out."""
    nz = np.array(d.nonzero())
    best_log = INF
    for q, c, x_min in hk._envelope_families(p):
        xs = nz * s_max
        with np.errstate(divide="ignore"):
            log_env = np.minimum(0.0, math.log(c) - q * np.log(xs))
        log_env = np.where(xs >= x_min, log_env, 0.0)
        # suffix sums of the cap logs: caps for indices m..r-1
        suffix = np.concatenate([np.cumsum(log_env[::-1])[::-1], [0.0]])
        lead = 0.0
        for m in range(1, nz.size + 1):
            lead += math.log(c) - q * math.log(nz[m - 1])
            if q * m <= 2.0:
                continue
            if nz[m - 1] * s_max < x_min:
                break
            log_b = lead + suffix[m] + (2.0 - q * m) * math.log(s_max) - math.log(q * m - 2.0)
            best_log = min(best_log, log_b)
    return math.exp(best_log)


TAIL_PS = (1.0, 1.5, 4.0, 9.0, 60.0, 500.0, INF)
# on (1, 1, 1, 1, 1e-3) the least law is mostly a cut m = 4, which leaves
# the small coordinate out of the power law
TAIL_DIRECTIONS = (Direction.diagonal(3), Direction.diagonal(12), Direction([1.0, 0.8, 0.6]),
                   Direction([1.0, 0.3, 0.1, 0.02]), Direction([1.0, 1.0, 1.0, 1.0, 1e-3]))


class TestTailBound:
    @pytest.mark.parametrize("p", TAIL_PS)
    def test_power_laws_match_the_capped_bound(self, p):
        for d in TAIL_DIRECTIONS:
            for s in (1.0, 4.0, 30.0, 300.0, 3000.0):
                capped = capped_tail_bound(p, d, s)
                assert hk.tail_bound_outer(p, d, s) == pytest.approx(capped, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", TAIL_PS)
    def test_auto_s_max_is_the_least_cutoff(self, p):
        # the solved cutoff meets tol/2, and no law valid a little below it
        # does (the capped bound is the least of the laws)
        prefactor = 0.5 * gamma(1.0 + 2.0 / p)
        for d in TAIL_DIRECTIONS:
            for tol in (1e-12, 1e-8, 1e-4, 1e-2):
                s_max, tail = hk._auto_s_max(p, d, prefactor, tol)
                assert type(s_max) is float
                assert tail == prefactor * hk.tail_bound_outer(p, d, s_max) <= 0.5 * tol
                assert prefactor * capped_tail_bound(p, d, s_max * (1.0 - 1e-6)) > 0.5 * tol

    def test_one_tail_bound_per_volume(self, monkeypatch):
        calls = []
        real = hk.tail_bound_outer

        def counting(p, a, s_max):
            calls.append(s_max)
            return real(p, a, s_max)

        monkeypatch.setattr(hk, "tail_bound_outer", counting)
        res = hk.section_volume_quadrature(4.0, Direction([1.0, 0.8, 0.6]), 1e-6)
        assert calls == [res.meta["s_max"]]

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

    def test_subnormal_coordinate_is_quiet(self):
        # x_min / b overflowed with a warning; the laws that leave b out stay
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(hk.tail_bound_outer(4.0, [1.0, 1.0, 1.0, 1.0, 1e-310], 10.0))


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

    def test_scale_invariance(self):
        # the sums of squares underflow and overflow; the directions are
        # rescaled by their largest modulus, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Direction([1e-200] * 3) == Direction([1e200] * 3) == Direction.diagonal(3)
            for bad in ([1.0, math.nan], [math.inf, 1.0], [0.0, 0.0]):
                with pytest.raises(ValueError):
                    Direction(bad)

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

    def test_exact_at_p2_on_a_long_diagonal(self):
        # the outer rule's strip bound stopped at (2/p) ln 2 per coordinate
        # for thin strips, so long diagonals exhausted the panel budget
        res = hk.section_volume_quadrature(2.0, Direction.diagonal(1000), 1e-8)
        assert abs(res.value - 1.0) <= res.err_bound <= 1e-8

    @pytest.mark.parametrize("p", [2.05, 2.3, 4.0, 9.0])
    def test_long_diagonal_converges(self, p):
        res = hk.section_volume_quadrature(p, Direction.diagonal(2000), 1e-6)
        assert res.err_bound <= 1e-6

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

    @staticmethod
    def no_lookup(self, x):
        raise AssertionError("kernel lookup before the panel budget check")

    def test_panel_budget_exhaustion(self, monkeypatch):
        # raised before any kernel lookup: the rule bound needs 10 panels
        monkeypatch.setattr(hk, "_PANEL_BUDGET", 4)
        monkeypatch.setattr(hk._Kernel, "lookup", self.no_lookup)
        with pytest.raises(hk.NonConvergenceError, match="panel budget 4 "):
            hk.section_volume_quadrature(4.0, Direction.diagonal(3), 1e-6)

    def test_panel_budget_below_the_rule_bound(self, monkeypatch):
        # the rule bound needs 49 panels, more than the budget of 48
        monkeypatch.setattr(hk, "_PANEL_BUDGET", 48)
        monkeypatch.setattr(hk._Kernel, "lookup", self.no_lookup)
        with pytest.raises(hk.NonConvergenceError, match="panel budget 48 "):
            hk.section_volume_quadrature(1.0, Direction.diagonal(3), 1e-8)


def mpmath_gauss_legendre(order):
    """Gauss-Legendre nodes and weights to 40 digits: numpy's nodes
    refined by Newton's method on P_order."""
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = [], []
    with mpmath.workdps(40):
        for x0 in np.polynomial.legendre.leggauss(order)[0]:
            x = mpmath.mpf(x0)
            for _ in range(5):
                d = order * (x * mpmath.legendre(order, x) - mpmath.legendre(order - 1, x)) / (x * x - 1)
                x -= mpmath.legendre(order, x) / d
            d = order * (x * mpmath.legendre(order, x) - mpmath.legendre(order - 1, x)) / (x * x - 1)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * d * d))
    return nodes, weights


def outer_grouped(d):
    return np.array([g[0] for g in d.grouped()]), np.array([g[1] for g in d.grouped()])


class TestOuterBound:
    # one 24-node rule per equal outer panel, its error certified on
    # Bernstein ellipses (hankel._outer_bound) before any kernel value

    @pytest.mark.parametrize("p", [1.0, 1.0001, 1.05, 1.18, 1.5, 2.0, 4.0, 40.0, 1e6])
    def test_strip_max_covers_mpmath(self, p):
        mpmath = pytest.importorskip("mpmath")
        bs = np.array([1e-6, 1e-3, 0.05, 0.3, 0.9, 2.0, 5.0])
        got = hk._log_strip_max(p, bs)
        for b, log_m in zip(bs, got):
            if not math.isfinite(log_m):
                assert p < 1.1 and b > 0.5  # only where the integral is out of reach
                continue
            with mpmath.workdps(30):
                # cut the range at the Laplace centre and widths of
                # e^(b r - r^p) and around r = 1; for p >= 2 and b <= 5,
                # b r - r^p < -170 past 1 + 30/p
                end = mpmath.inf if p < 2 else 1 + mpmath.mpf(30) / p
                if p == 1.0:
                    cuts = [mpmath.mpf(0), end]
                else:
                    peak = (mpmath.mpf(b) / p) ** (1 / mpmath.mpf(p - 1))
                    width = min(1, 1 / mpmath.sqrt(p * (p - 1) * peak ** (p - 2)))
                    pts = [peak + k * width for k in range(-40, 41)]
                    pts += [1 + mpmath.mpf(k) / p for k in (-30, -10, -3, -1, 0, 1, 3, 10, 30)]
                    cuts = sorted({mpmath.mpf(0), end} | {c for c in pts if 0 < c < end})
                integral = mpmath.quad(lambda r: mpmath.exp(b * r - r ** p) * r, cuts)
                exact = mpmath.log(2 * integral / mpmath.gamma(1 + mpmath.mpf(2) / p))
            assert log_m >= float(exact)
        assert np.array_equal(hk._log_strip_max(INF, bs), bs)

    def test_interp_bound_overflows_quietly(self):
        # the strip bound's product overflowed outside its errstate and
        # warned for p in [1.0365, 1.054]; inf is the correct "no bound"
        # (wider panels take wider strips, where it overflows sooner)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in np.linspace(1.0, 3.0, 401):
                for width in (2.0, 4.0, 8.0, 16.0):
                    assert hk._interp_bound(float(p), width) > 0.0

    @pytest.mark.parametrize("p", [1.5, 2.3, 4.0, 9.0, 500.0])
    def test_strip_max_tends_to_one_for_thin_strips(self, p):
        # with t >= 1/2 only, the bound stopped at (2/p) ln 2 (0.35 at p = 4)
        assert hk._log_strip_max(p, np.array([1e-6]))[0] <= 1e-5

    @pytest.mark.parametrize("p", [1.0, 1.05, 2.3, 4.0, 140.0, INF])
    def test_strip_max_blocks_keep_bits(self, p, monkeypatch):
        # the minimum over t runs in blocks of rows of b; one block (a
        # _BATCH_POINTS that holds every row) gives the same bits
        b = np.outer(np.linspace(1.0, 0.5, 3000), 0.5 * (hk._RHO_GRID - 1.0 / hk._RHO_GRID) * 0.01)
        blocked = hk._log_strip_max(p, b)
        monkeypatch.setattr(hk, "_BATCH_POINTS", b.size * hk._YOUNG_T.size)
        assert np.array_equal(blocked, hk._log_strip_max(p, b))

    def test_outer_bound_memory_is_linear_in_coordinates(self):
        # 3000 distinct coordinates: one block of (t, rows, rho) held
        # 90 x 3000 x 48 doubles (297 MiB) per temporary
        import tracemalloc

        coeffs = np.linspace(1.0, 0.5, 3000)
        mults = np.ones(3000, dtype=np.int64)
        hk._outer_bound(4.0, coeffs[:3], mults[:3], 30.0, 4)
        tracemalloc.start()
        try:
            hk._outer_bound(4.0, coeffs, mults, 30.0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    @pytest.mark.parametrize("p,a,s_max,ns", [
        (1.0, [1.0, 1.0, 1.0], 30.0, (5, 8)),
        (1.0, [1.0, 0.8, 0.6], 30.0, (5, 8)),
        (INF, [1.0, 1.0, 1.0], 30.0, (1, 2, 3)),
        (INF, [1.0, 0.8, 0.6], 30.0, (1, 2)),
        # the cutoff of the p = 9, diag 20, 1e-5 volume, which takes one panel
        (9.0, [1.0] * 20, 11.4244, (1, 2)),
    ])
    def test_rule_bound_covers_mpmath(self, p, a, s_max, ns):
        # k_1 = (1 + x^2)^(-3/2) and k_inf = 2 J1(x)/x exactly; at p = 9
        # every argument a_j s is below 2.6, where 30 terms of the power
        # series give 40 digits
        mpmath = pytest.importorskip("mpmath")
        coeffs, mults = outer_grouped(Direction(a))
        nodes, weights = mpmath_gauss_legendre(24)
        with mpmath.workdps(40):
            def kernel(x):
                if p == 9.0:
                    return series_kernel(p, x, terms=30)
                return (1 + x * x) ** mpmath.mpf(-1.5) if p == 1.0 else 2 * mpmath.besselj(1, x) / x

            def f(s):
                return mpmath.fprod(kernel(mpmath.mpf(c) * s) ** int(m) for c, m in zip(coeffs, mults)) * s

            exact = mpmath.quad(f, mpmath.linspace(0, s_max, 61))
            for n in ns:
                h = mpmath.mpf(s_max) / (2 * n)
                rule = h * mpmath.fsum(w * f((2 * i + 1) * h + h * x)
                                       for i in range(n) for x, w in zip(nodes, weights))
                assert hk._outer_bound(p, coeffs, mults, s_max, n) >= abs(rule - exact)

    def test_leggauss_within_stated_rounding(self):
        # the rounding bound takes numpy's 24-node rule to be within u of
        # the exact nodes, its weights within _OUTER_WEIGHT_ERR in sum
        g, w = hk._gl_nodes(24)
        nodes, weights = mpmath_gauss_legendre(24)
        assert max(abs(float(x - y)) for x, y in zip(g, nodes)) <= hk._U
        assert sum(abs(float(x - y)) for x, y in zip(w, weights)) <= hk._OUTER_WEIGHT_ERR

    def test_panel_count_is_minimal(self):
        # the certificate alone sizes the rule: n = 1, or n - 1 panels miss
        # tol_quad.  p = 1, diag 3 (A = 3/7); two quad_distinct_p-like
        # slots; p = inf; and a 20-coordinate diagonal that takes one panel
        cases = [
            (1.0, Direction.diagonal(3), 1e-8),
            (5.5, Direction(np.linspace(1.0, 0.6, 6)), 1e-8),
            (40.0, Direction(np.linspace(1.0, 0.6, 5)), 1e-6),
            (INF, Direction([1.0, 0.8, 0.6]), 1e-8),
            (9.0, Direction.diagonal(20), 1e-5),
        ]
        panels = []
        for p, d, tol in cases:
            res = hk.section_volume_quadrature(p, d, tol)
            coeffs, mults = outer_grouped(d)
            s_max, n = res.meta["s_max"], res.meta["panels"]
            tol_quad = 0.375 * tol / (0.5 * gamma(1.0 + 2.0 / p))
            assert hk._outer_bound(p, coeffs, mults, s_max, n) <= tol_quad
            assert n == 1 or hk._outer_bound(p, coeffs, mults, s_max, n - 1) > tol_quad
            assert res.meta["kernel_evals"] == 24 * n * len(d.grouped())
            panels.append(n)
            if p == 1.0:
                assert abs(res.value - 3.0 / 7.0) <= res.err_bound
        assert (panels[0], panels[-1]) == (49, 1)

    @pytest.mark.parametrize("p,a", [(4.0, [1.0, 0.9, 0.9, 0.5]), (INF, [1.0, 0.8, 0.6])])
    def test_one_rule_per_panel(self, p, a):
        d = Direction(a)
        res = hk.section_volume_quadrature(p, d, 1e-7)
        assert res.meta["kernel_evals"] == 24 * res.meta["panels"] * len(d.grouped())

    def test_rounding_is_bounded(self):
        # at p = inf the kernels are exact and the rule's bound is ~1e-50,
        # so only the rounding bound keeps err_bound above the true error
        mpmath = pytest.importorskip("mpmath")
        d = Direction.diagonal(12)
        with pytest.raises(hk.NonConvergenceError, match="certified error"):
            hk.section_volume_quadrature(INF, d, 1e-15)
        res = hk.section_volume_quadrature(INF, d, 1e-12)
        s_max = res.meta["s_max"]
        with mpmath.workdps(30):
            a = 1 / mpmath.sqrt(12)
            integral = mpmath.quad(lambda s: (2 * mpmath.besselj(1, a * s) / (a * s)) ** 12 * s,
                                   mpmath.linspace(0, s_max, int(s_max) + 1))
            err = abs(res.value - integral / 2)
        assert err > 1e-16 and err <= res.err_bound - res.meta["tail_bound"]


class TestOuterWaves:
    # the outer rule looks kernel values up in waves of about _BATCH_POINTS
    # points (_BATCH_POINTS // (24 * distinct coordinates) panels);
    # fsum makes the totals independent of the waves (p = 1 takes no table,
    # and the p = inf call needs 2 168 panels, four default waves); with
    # _BATCH_POINTS = 3 * 24 a wave holds at most 3 panels
    @pytest.mark.parametrize("p,a,tol", [
        (4.0, [1.0, 0.9, 0.9, 0.5], 1e-7),
        (9.0, [1.0, 1.0, 1.0], 1e-6),
        (1.0, [1.0, 1.0, 1.0], 1e-6),
        (INF, [1.0, 0.8, 0.6], 1e-10),
    ])
    def test_waves_keep_every_bit(self, p, a, tol, monkeypatch):
        d = Direction(a)
        hk._kernel.cache_clear()
        whole = hk.section_volume_quadrature(p, d, tol)
        monkeypatch.setattr(hk, "_BATCH_POINTS", 3 * 24)
        hk._kernel.cache_clear()
        waves = hk.section_volume_quadrature(p, d, tol)
        assert whole.meta["panels"] > 3
        assert (waves.value, waves.err_bound) == (whole.value, whole.err_bound)
        # panel end nodes shared by two separate table fills count in each
        nodes = waves.meta.pop("kernel_nodes")
        assert nodes >= whole.meta.pop("kernel_nodes")
        assert waves.meta == whole.meta


class TestKernelRouting:
    # _Kernel.values is the one route off the table; `extent` says where
    # the table ends, and kernel_values is only an entry point

    @staticmethod
    def no_public_route(monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("kernel_values called from inside the engine")

        monkeypatch.setattr(hk, "kernel_values", boom)

    @pytest.mark.parametrize("p", [1.0, INF])
    def test_volumes_do_not_call_kernel_values(self, p, monkeypatch):
        self.no_public_route(monkeypatch)
        res = hk.section_volume_quadrature(p, Direction([1.0, 0.8, 0.6]), 1e-6)
        assert res.meta["kernel_nodes"] == 0

    def test_lookup_past_the_extent_does_not_call_kernel_values(self, monkeypatch):
        kernel = hk._kernel(4.0, 1e-13)
        self.no_public_route(monkeypatch)
        _, e, _, interp = kernel.lookup(np.array([2e5, 1.0]))
        assert interp == kernel.interp and np.all(e <= 1e-13)

    @pytest.mark.parametrize("p,target,extent", [
        (INF, 1e-13, 0.0), (1.0, 1e-12, 0.0), (1.13, 1e-9, 0.0), (4.0, 1e-13, 2.0 * 65536),
    ])
    def test_extent(self, p, target, extent):
        assert hk._Kernel(p, target).extent == extent

    def test_lookups_stay_within_one_batch(self, monkeypatch):
        # 500 distinct coordinates on 10 panels: the outer waves shrink
        # with the coordinates, to 4 panels, so no lookup gets more than
        # _BATCH_POINTS arguments
        sizes = []
        lookup = hk._Kernel.lookup

        def counting(self, x):
            sizes.append(x.size)
            return lookup(self, x)

        monkeypatch.setattr(hk._Kernel, "lookup", counting)
        res = hk.section_volume_quadrature(4.0, Direction(np.linspace(1.0, 0.5, 500)), 1e-6)
        assert res.err_bound <= 1e-6 and len(sizes) > 1
        assert max(sizes) <= hk._BATCH_POINTS
        assert sum(sizes) == res.meta["kernel_evals"]


class TestCrossEngineLight:
    def test_quad_vs_mc_p4_diag3(self):
        from lpsections.montecarlo import McSpec, estimate_section_volume
        q = hk.section_volume_quadrature(4.0, Direction.diagonal(3), 1e-5)
        m = estimate_section_volume(4.0, Direction.diagonal(3), McSpec(samples=400_000, seed=11))
        assert abs(q.value - m.value) <= 4.0 * m.err_bound + q.err_bound


TABLE_PS = (1.5, 2.3, 3.0, 4.0, 7.5, 9.0, 40.0, 140.0, 500.0, 1e13)


def mpmath_kernel(p, x):
    """k_p(x) to about 25 digits: the radial integral on quarter-unit
    cells up to where exp(-r^p) is below 1e-27."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r_end = mpmath.mpf(63) ** (mpmath.mpf(1) / p)
        cells = mpmath.linspace(0, r_end, int(mpmath.ceil(4 * r_end)) + 1)
        integral = mpmath.quad(lambda r: mpmath.besselj(0, x * r) * mpmath.exp(-r ** p) * r, cells)
        return float(2 / mpmath.gamma(1 + mpmath.mpf(2) / p) * integral)


class TestKernelQuadratureBound:
    # each radial subpanel takes one 12-node rule, its error certified on
    # the Bernstein ellipse rho = 5 (hankel._Kernel.direct)

    def test_one_rule_per_subpanel_in_exact_blocks(self, monkeypatch):
        x = np.linspace(0.0, 120.0, 241)
        sizes = []
        real = hk.j0_array

        def counting(z):
            sizes.append(z.size)
            return real(z)

        monkeypatch.setattr(hk, "j0_array", counting)
        hk.kernel_values(4.0, x)
        cell_w = hk._kernel(4.0, 1e-13).cells[2]
        # k(0) = 1 takes no quadrature
        counts = np.maximum(np.ceil(np.outer(x[1:], cell_w) / (0.5 * math.pi)), 1.0).sum(axis=1)
        assert sum(sizes) == 12 * counts.sum()
        blocks, filled = 0, math.inf
        for c in counts:
            if filled + c > hk._BATCH_POINTS // 12:
                blocks, filled = blocks + 1, 0.0
            filled += c
        assert len(sizes) == blocks

    @pytest.mark.parametrize("target", [1e-13, 1e-5])
    @pytest.mark.parametrize("p", [1.0, 1.18, 1.5, 2.3, 4.0, 40.0, 500.0, 1e6, 1e14])
    def test_ellipse_fits_every_cell(self, p, target):
        # the bound needs near > 0 and p phi < pi/2 on every subpanel; a
        # subpanel's near and phi are no worse than its whole cell's
        _, lo, w = hk._kernel(p, target).cells
        half = 0.5 * w
        near = lo + half - 2.6 * half
        assert np.all(near > 0.0)
        assert np.all(p * np.arctan(2.4 * half / near) < 0.5 * math.pi)

    @pytest.mark.parametrize("p,xs", [(2.3, (0.7, 10.0, 100.0)), (4.0, (0.7, 10.0, 100.0)),
                                      (40.0, (0.7, 10.0, 100.0)), (500.0, (0.7, 10.0, 100.0)),
                                      (1.5, (0.7, 10.0))])
    def test_direct_err_covers_mpmath(self, p, xs):
        vals, errs = hk.kernel_values(p, np.array(xs))
        for xi, v, e in zip(xs, vals, errs):
            assert abs(v - mpmath_kernel(p, xi)) <= e


class TestTruncationBound:
    # the kernel truncation tail 2/(Gamma(1+2/p) p) Gamma(2/p, r_max^p) is
    # bounded in closed form (hankel._log_tail_bound), not approximated

    @staticmethod
    def mpmath_tail(p, big_x):
        mpmath = pytest.importorskip("mpmath")
        s = mpmath.mpf(2) / p
        return 2 / (mpmath.gamma(1 + s) * p) * mpmath.gammainc(s, big_x)

    def test_closed_form_covers_mpmath(self):
        # s = 1 and s = 2 at X = 5, 40, 60 (and s = 2 at X = 2, 20, 30):
        # there the inequality is an equality, and without its eps the
        # computed bound falls below mpmath
        mpmath = pytest.importorskip("mpmath")
        ss = np.concatenate([[2e-6, 1e-3], np.linspace(0.02, 2.0, 34), [1.0, 1.5]])
        xs = np.unique(np.concatenate([np.geomspace(1.0, 80.0, 19), [2.0, 5.0, 20.0, 30.0, 40.0, 60.0]]))
        with mpmath.workdps(40):
            for s in ss:
                p = 2.0 / float(s)
                for big_x in xs:
                    bound = math.exp(hk._log_tail_bound(p, float(big_x)))
                    assert bound >= self.mpmath_tail(p, mpmath.mpf(float(big_x))), (s, big_x)

    @pytest.mark.parametrize("target", [1e-13, 1e-9, 1e-7, 1e-5])
    @pytest.mark.parametrize("p", [1.0, 1.2, 1.446, 1.461, 1.5, 2.0, 2.3, 4.0, 40.0, 500.0, 1e6, 1e14, 3e15])
    def test_cert_covers_the_tail_at_r_max(self, p, target):
        # at large p the rounded r_max^p is far from the X it came from
        # (31.24 for X = 31.32 at p = 1e14): the bound must hold at r_max
        mpmath = pytest.importorskip("mpmath")
        r_max, cert = hk._trunc_radius(p, target)
        assert hk._kernel(p, target).cert == cert
        with mpmath.workdps(40):
            tail = self.mpmath_tail(p, mpmath.mpf(r_max) ** p)
        assert tail <= cert <= target


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

    @pytest.mark.parametrize("trunc_target", [1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("p", TABLE_PS)
    def test_width(self, p, trunc_target):
        # the widest power of two from 2 up whose interpolation bound takes
        # at most a third of the room uniform leaves; the extent stays 2^17
        kernel = hk._Kernel(p, trunc_target)
        room = (trunc_target - kernel.uniform) / 3.0
        assert kernel.width >= 2.0 and math.frexp(kernel.width)[0] == 0.5
        assert kernel.width == 2.0 or kernel.interp <= room
        assert hk._interp_bound(p, 2.0 * kernel.width) > room
        assert kernel.interp == hk._interp_bound(p, kernel.width)
        assert kernel.extent == 2.0 * 65536

    def test_nodes_within_u_of_chebyshev_points(self):
        # the abscissae term in _panels takes each t_k within u of cos(k pi / n)
        mpmath = pytest.importorskip("mpmath")
        n = hk._CHEB_DEGREE
        with mpmath.workdps(40):
            for k, t in enumerate(hk._CHEB_NODES):
                assert abs(mpmath.mpf(float(t)) - mpmath.cos(mpmath.pi * k / n)) <= hk._U

    @pytest.mark.parametrize("p", [3.0, 9.0])
    def test_against_mpmath(self, p):
        x = np.array([0.0, 0.3, 1.0, 1.9, 2.0, 3.7, 6.1, 9.5, 14.2, 19.9])
        if p == 9.0:
            # width 8: both ends and the interior of five panels
            x = np.r_[x, 8.0, 16.0, 24.0, 27.3, 31.9, 32.0, 36.6, 39.99]
        kernel = hk._Kernel(p, 1e-13)
        tv, te, _, _ = kernel.lookup(x)
        assert kernel.width == {3.0: 4.0, 9.0: 8.0}[p] and np.all(kernel.state[1] <= 1e-13)
        for xi, v, e in zip(x, tv, te):
            assert abs(v - mpmath_kernel(p, float(xi))) <= e

    def test_cold_table_nodes(self):
        # p = 9 at kernel target 1e-11 takes width 8: the outer rule reads
        # x below 214 from 27 panels, 649 nodes (2 569 on width-2 panels)
        hk._kernel.cache_clear()
        res = hk.section_volume_quadrature(9.0, Direction.diagonal(3), 1e-6)
        assert hk._kernel(9.0, 1e-11).width == 8.0
        assert res.meta["kernel_nodes"] == 649

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
        assert (res.value, res.err_bound) == (0.428571327654794, 5.003534178172519e-05)
        assert abs(res.value - 3.0 / 7.0) <= res.err_bound
        assert res.meta["kernel_nodes"] == 0

    def test_every_panel_failing_takes_the_direct_path(self, monkeypatch):
        # interp alone meets the target here, uniform + interp does not: no
        # panel could pass, so lookup must not fill a table to reject it
        kernel = hk._Kernel(1.13, 1e-9)
        assert kernel.interp <= 1e-9 < kernel.uniform + kernel.interp

        def no_panels(self, first, stop):
            raise AssertionError("table filled although every panel fails")

        monkeypatch.setattr(hk._Kernel, "_panels", no_panels)
        x = np.linspace(0.0, 30.0, 61)
        kv, ke, added, interp = kernel.lookup(x)
        dv, de = hk.kernel_values(1.13, x, trunc_target=1e-9)
        assert (added, interp) == (0, 0.0)
        assert np.array_equal(kv, dv) and np.array_equal(ke, de)

    def test_repeat_adds_no_nodes(self):
        d = Direction([1.0, 0.8, 0.6])
        first = hk.section_volume_quadrature(6.125, d, 1e-6)
        again = hk.section_volume_quadrature(6.125, d, 1e-6)
        assert first.meta["kernel_nodes"] > 0 and again.meta["kernel_nodes"] == 0
        assert first.meta["kernel_interp_bound"] > 0.0
        assert (again.value, again.err_bound) == (first.value, first.err_bound)
        assert again.meta["kernel_evals"] == first.meta["kernel_evals"]
        # the kernel cache holds all input-keyed state: cleared, it rebuilds
        # the same table and the same bits
        hk._kernel.cache_clear()
        cold = hk.section_volume_quadrature(6.125, d, 1e-6)
        assert (cold.value, cold.err_bound) == (first.value, first.err_bound)
        assert cold.meta["kernel_nodes"] == first.meta["kernel_nodes"]

    def test_past_extent_goes_direct_without_filling(self, monkeypatch):
        # a point past the table's extent must not make the table fill up
        # to its last panel before it goes direct
        calls = []
        panels = hk._Kernel._panels

        def counting(self, first, stop):
            calls.append((first, stop))
            return panels(self, first, stop)

        monkeypatch.setattr(hk._Kernel, "_panels", counting)
        x = np.array([2e5])
        v, e, added, interp = hk._kernel(4.0, 1e-13).lookup(x)
        assert calls == [] and (added, interp) == (0, 0.0)
        dv, de = hk.kernel_values(4.0, x, trunc_target=1e-13)
        assert np.array_equal(v, dv) and np.array_equal(e, de)

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
