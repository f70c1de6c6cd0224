import math

import numpy as np
import pytest

from lpsections import analysis as an
from lpsections.direction import Direction

INF = math.inf


class TestClosedForms:
    def test_a2_closed_form(self):
        assert an.a2_closed_form(2.0) == 1.0
        assert an.a2_closed_form(4.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert an.a2_closed_form(INF) == 2.0

    def test_a2_general(self):
        assert an.a2_general(5.0, 1.0, 0.0) == 1.0
        assert an.a2_general(4.0, 1 / math.sqrt(2), 1 / math.sqrt(2)) == pytest.approx(
            math.sqrt(2.0), rel=1e-15)
        expected = (0.8 ** 3 + 0.6 ** 3) ** (-2.0 / 3.0)
        assert an.a2_general(3.0, 0.8, 0.6) == pytest.approx(expected, rel=1e-14)
        assert an.a2_general(INF, 0.8, 0.6) == pytest.approx(0.8 ** -2, rel=1e-14)

    @pytest.mark.parametrize("p", [1e4, 1e300, INF])
    def test_a2_general_extreme_p(self, p):
        # b1^p + b2^p underflowed to 0 at large p: 0^(-2/p) raised
        # ZeroDivisionError; the value tends to max(b1, b2)^(-2)
        assert an.a2_general(p, 0.8, 0.6) == 0.8 ** -2
        assert an.a2_general(p, 0.6, 0.8) == an.a2_general(p, 0.8, 0.6)

    def test_a2_general_normalization_error(self):
        with pytest.raises(ValueError):
            an.a2_general(3.0, 0.8, 0.7)

    def test_seam_consistency(self):
        b = 1 / math.sqrt(2)
        for p in (2.0, 3.0, 4.0, 9.0, 140.0, INF):
            assert an.a2_closed_form(p) == an.a2_general(p, b, b)

    def test_section_value_router(self):
        from lpsections.closedform import section_value
        for p in (2.0, 3.0, 9.0, INF):
            assert section_value(p, Direction([1.0, 0.0, 0.0, 0.0])) == 1.0
            # equal pairs give the 2^(1-2/p) form bit for bit
            assert section_value(p, Direction.two_equal(5)) == an.a2_closed_form(p)
            assert section_value(p, [0.6, 0.0, 0.8]) == an.a2_general(p, 0.8, 0.6)
            assert section_value(p, Direction.diagonal(3)) is None

    def test_limit_diagonal(self):
        assert an.limit_diagonal(2.0) == pytest.approx(1.0, rel=1e-14)
        assert an.limit_diagonal(4.0) == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert an.limit_diagonal(INF) == 2.0

    def test_limit_beats_two_equal_above_two(self):
        for p in np.geomspace(2.02, 1000.0, 60):
            p = float(p)
            assert an.limit_diagonal(p) > an.a2_closed_form(p)


class TestLemma1Suite:
    GRID = [float(x) for x in np.geomspace(4.0, 1000.0, 80)] + [4.0, 7.0, 9.0, 13.78, 26.265, 140.0]

    def test_f_values_and_bound(self):
        assert an.f_value(4.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)
        for p in self.GRID:
            q = an.lemma1_f(p)
            assert q.satisfied, f"f({p}) = {q.lhs} below 24/25"

    def test_f_interior_minimum(self):
        fmin = an.f_value(13.78)
        for p in self.GRID:
            assert fmin <= an.f_value(p) + 1e-4

    def test_g_decreasing_on_grid(self):
        grid = sorted(p for p in self.GRID if p >= 7.0)
        vals = [an.g_value(p) for p in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert lo >= hi
        for p in grid:
            assert an.lemma1_g(p).satisfied

    def test_g_caps(self):
        # the stated cap 1.0397 holds at p = 7; the tighter 1.0390 quoted in
        # a derivation step does not (recorded here as the observed fact)
        g7 = an.g_value(7.0)
        assert 1.0390 < g7 < 1.0397
        assert an.g_value(9.0) < 1.0377

    def test_h_above_one_and_cubic(self):
        for p in [2.05, 2.5, 3.0] + [q for q in self.GRID]:
            assert an.lemma1_h(p).satisfied
        for p in [q for q in self.GRID if q >= 9.0]:
            assert an.lemma1_h_cubic(p).satisfied

    def test_h9_cubic_value(self):
        ln2 = math.log(2.0)
        cubic9 = 1.0 + 2 * ln2 / 9 - (2.0 / 3.0 * math.pi ** 2 - 2 * ln2 ** 2) / 81 + 4.0 / 729
        assert an.h_cubic_lower(9.0) == pytest.approx(cubic9, rel=1e-14)
        assert an.h_value(9.0) >= cubic9

    def test_domains(self):
        with pytest.raises(ValueError):
            an.lemma1_f(3.0)
        with pytest.raises(ValueError):
            an.lemma1_g(6.0)
        with pytest.raises(ValueError):
            an.lemma1_h(2.0)
        with pytest.raises(ValueError):
            an.lemma1_h_cubic(8.0)


class TestSufficient:
    def test_anchor_points(self):
        assert an.sufficient_G(9.0, 23).satisfied
        assert an.sufficient_G(140.0, 140).satisfied
        assert an.sufficient_F(9.0, 23).lhs >= an.sufficient_G(9.0, 23).lhs

    def test_grid_five_halves(self):
        for p in np.geomspace(9.0, 500.0, 40):
            p = float(p)
            assert an.sufficient_G(p, math.ceil(2.5 * p)).satisfied

    def test_grid_diagonal_eq_p(self):
        for p in np.geomspace(140.0, 500.0, 20):
            p = float(p)
            assert an.sufficient_G(p, math.ceil(p)).satisfied

    def test_domains(self):
        with pytest.raises(ValueError):
            an.sufficient_F(8.0, 30)
        with pytest.raises(ValueError):
            an.sufficient_G(9.0, 2)


class TestLipschitz:
    def test_two_equal_p16(self):
        rep = an.lipschitz_gap(16.0, Direction.two_equal(2))
        assert rep.gap == pytest.approx(abs(2.0 ** 0.875 - 2.0), rel=1e-12)
        assert rep.bound == 1.0
        assert rep.within

    def test_diag3_p32(self):
        rep = an.lipschitz_gap(32.0, Direction.diagonal(3), 1e-4)
        assert rep.gap < 0.5
        assert rep.within

    def test_gap_shrinks_with_p(self):
        g16 = an.lipschitz_gap(16.0, Direction.diagonal(3), 1e-4).gap
        g64 = an.lipschitz_gap(64.0, Direction.diagonal(3), 1e-4).gap
        assert g64 < g16

    def test_random_direction(self):
        rng = np.random.default_rng(12)
        d = Direction(np.abs(rng.standard_normal(4)) + 0.05)
        rep = an.lipschitz_gap(32.0, d, 1e-4)
        assert rep.within

    def test_domain(self):
        with pytest.raises(ValueError):
            an.lipschitz_gap(8.0, Direction.two_equal(2))


class TestCertification:
    def test_certify_above(self):
        assert an.certify_above(1.5, 0.1, 1.0) == "above"
        assert an.certify_above(0.8, 0.1, 1.0) == "below"
        assert an.certify_above(1.05, 0.1, 1.0) == "indeterminate"
        assert an.certify_above(0.95, 0.1, 1.0) == "indeterminate"


class TestCrossingScan:
    def test_p4_scan(self):
        rep = an.crossing_scan(4.0, 12, 1e-4)
        assert rep.p == 4.0
        assert rep.n_examined == (3, 12)
        assert rep.first_n_holds is not None
        assert rep.holds_for_all_tail
        thresh = an.a2_closed_form(4.0)
        for e in rep.per_n:
            assert e.a_two == thresh
            assert e.holds == (e.a_diag.value - e.a_diag.err_bound > thresh)
            assert not (e.holds and e.indeterminate)

    def test_p21_certified_at_tight_tol(self):
        rep = an.crossing_scan(2.1, 5, 1e-5)
        assert rep.first_n_holds == 3
        assert rep.holds_for_all_tail

    def test_p21_indeterminate_at_loose_tol(self):
        # at n = 3 the certified band (~6.1e-3 at this budget) straddles the
        # ~5.6e-3 gap above the threshold: must be reported, not coerced
        rep = an.crossing_scan(2.1, 5, 2e-2)
        assert rep.per_n[0].indeterminate and not rep.per_n[0].holds
        for e in rep.per_n:
            assert e.holds == (e.a_diag.value - e.a_diag.err_bound > e.a_two)

    def test_domains(self):
        with pytest.raises(ValueError):
            an.crossing_scan(2.0, 10)
        with pytest.raises(ValueError):
            an.crossing_scan(INF, 10)
        with pytest.raises(ValueError):
            an.crossing_scan(4.0, 2)


class TestVerifySuites:
    def test_lemma1_all_satisfied(self):
        rows = an.verify_lemma1()
        assert len(rows) > 100
        assert all(r.satisfied for r in rows)

    def test_sufficient_all_satisfied(self):
        rows = an.verify_sufficient()
        assert all(r.satisfied for r in rows)

    def test_breakpoints_present(self):
        rows = an.verify_lemma1()
        ps = {r.p for r in rows}
        for b in an.LEMMA1_BREAKPOINTS:
            assert b in ps
