"""Acceptance gate: one test per quantitative criterion, each printing a
single PASS/FAIL line (run with -s to see them).

Tolerances are fixed here, not tuned at runtime.  Statistical criteria
pin their seeds; deterministic criteria re-run byte-identical.
"""

import math

import numpy as np
import pytest

from lpsections import analysis as an
from lpsections import cli
from lpsections import hankel as hk
from lpsections import montecarlo as mc
from lpsections import optimize as op
from lpsections.direction import Direction

INF = math.inf


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


class TestAcceptance:
    def test_01_closed_form_reproduction(self):
        worst = 0.0
        for p in (3.0, 4.0, 9.0, 26.265, 140.0):
            res = hk.section_volume_quadrature(p, Direction.two_equal(3), 1e-6)
            worst = max(worst, abs(res.value - 2.0 ** (1.0 - 2.0 / p)))
        ok = worst <= 1e-6
        report("A-01 two-equal closed form", ok, f"max deviation {worst:.2e} <= 1e-06")
        assert ok

    def test_02_two_coordinate_closed_form(self):
        rng = np.random.default_rng(20240814)
        worst = 0.0
        for p in (3.0, 9.0):
            for _ in range(5):
                b = np.abs(rng.standard_normal(2)) + 0.05
                b /= np.linalg.norm(b)
                d = Direction([b[0], b[1], 0.0])
                res = hk.section_volume_quadrature(p, d, 1e-6)
                nz = d.nonzero()
                expected = (nz[0] ** p + nz[1] ** p) ** (-2.0 / p)
                worst = max(worst, abs(res.value - expected))
        ok = worst <= 1e-6
        report("A-02 two-coordinate form", ok, f"max deviation {worst:.2e} <= 1e-06")
        assert ok

    def test_03_cross_engine_agreement(self):
        cases = [(4.0, Direction.diagonal(3)), (9.0, Direction.diagonal(5)),
                 (INF, Direction.diagonal(4))]
        details = []
        ok = True
        for p, d in cases:
            q = hk.section_volume_quadrature(p, d, 1e-5)
            m = mc.estimate_section_volume(p, d, mc.McSpec(samples=10 ** 7, seed=31))
            # combined error unit: three sigmas of the statistical engine
            # plus the certified deterministic bound
            budget = 3.0 * m.err_bound + q.err_bound
            gap = abs(q.value - m.value)
            ok = ok and gap <= budget
            details.append(f"p={p:g}: |dq-dm|={gap:.2e} <= {budget:.2e}")
        report("A-03 cross-engine", ok, "; ".join(details))
        assert ok

    def test_04_diagonal_limit_trend(self):
        target = math.pi / 2.0
        devs = []
        for n in (8, 16, 32, 64, 128):
            res = hk.section_volume_quadrature(4.0, Direction.diagonal(n), 1e-5)
            devs.append(abs(res.value - target))
        decreasing = all(a > b for a, b in zip(devs, devs[1:]))
        ok = decreasing and devs[-1] < 0.02
        report("A-04 diagonal limit", ok,
               "deviations " + ", ".join(f"{d:.2e}" for d in devs) + f"; final < 0.02: {devs[-1] < 0.02}")
        assert ok

    def test_05_crossing_bound_p9(self):
        rep = an.crossing_scan(9.0, 40, 2e-4)
        tail = [e for e in rep.per_n if 23 <= e.n <= 40]
        all_hold = all(e.holds for e in tail)
        ok = all_hold and rep.first_n_holds is not None and rep.first_n_holds <= 23
        report("A-05 crossing p=9", ok,
               f"certified on [23,40]: {all_hold}; first crossing n={rep.first_n_holds}")
        assert ok

    def test_06_lemma1_suite(self):
        rows = an.verify_lemma1()
        bad = [r for r in rows if not r.satisfied]
        ok = not bad
        report("A-06 gamma-ratio suite", ok, f"{len(rows)} rows, {len(bad)} violations")
        assert ok

    def test_07_lipschitz_bound(self):
        ok = True
        details = []
        for p in (16.0, 32.0, 64.0):
            for k in (2, 3, 5):
                rep = an.lipschitz_gap(p, Direction.diagonal(k), 1e-4)
                side_ok = rep.value_p.err_bound <= 1e-4 and rep.value_inf.err_bound <= 1e-4
                ok = ok and rep.within and side_ok
                details.append(f"(p={p:g},k={k}) gap={rep.gap:.4f}<{rep.bound:.4f}")
        report("A-07 16/p bound", ok, "; ".join(details[:3]) + " ...")
        assert ok

    def test_08_sufficient_conditions(self):
        rows = an.verify_sufficient()
        bad = [r for r in rows if not r.satisfied]
        ok = not bad
        report("A-08 sufficient conditions", ok, f"{len(rows)} rows, {len(bad)} violations")
        assert ok

    @pytest.mark.slow  # 90 s on a 2-core machine (two threads), most of Tier-1
    def test_09_clt_rate(self):
        ns = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
        rows = mc.clt_experiment(4.0, ns, mc.McSpec(samples=10 ** 6, seed=20250808))
        devs = np.array([max(abs(r.estimate - r.c_p_target), 1e-12) for r in rows])
        slope = float(np.polyfit(np.log10(np.array(ns, dtype=float)), np.log10(devs), 1)[0])
        ok = slope <= -0.4
        report("A-09 scaling rate", ok, f"regression slope {slope:.3f} <= -0.4")
        assert ok

    def test_10_rao_blackwell_oracle(self):
        integrate = pytest.importorskip("scipy.integrate")

        def oracle(u, v):
            val, _ = integrate.quad(
                lambda th: math.sin(th) ** 2 / (u * u + v * v + 2 * u * v * math.cos(th)),
                0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
            return 2.0 / math.pi * val

        grid = np.linspace(0.1, 2.0, 20)
        worst = 0.0
        for u in grid:
            for v in grid:
                worst = max(worst, abs(mc.rao_blackwell_kernel(float(u), float(v))
                                       - oracle(float(u), float(v))))
        ok = worst <= 1e-10
        report("A-10 conditional kernel oracle", ok, f"max |closed - quad| {worst:.2e} <= 1e-10")
        assert ok

    def test_11_resilience_probe_p500(self):
        rep = op.maximize_direction(500.0, 3, budget=160, tol=1e-2, seed=7)
        cap = 2.0 ** (1.0 - 2.0 / 500.0) + 1e-4
        dist = float(np.linalg.norm(rep.best.as_array() - Direction.two_equal(3).as_array()))
        ok = rep.best_value.value <= cap and dist <= 0.05
        report("A-11 resilience probe", ok,
               f"best {rep.best_value.value:.8f} <= {cap:.8f}; |best - two-equal| = {dist:.4f} <= 0.05")
        assert ok

    def test_12_cli_determinism(self, tmp_path):
        cases = [
            ["volume", "--p", "4", "--a2", "3", "--engine", "closed"],
            ["volume", "--p", "9", "--diag", "3", "--engine", "quad", "--tol", "1e-4"],
            ["volume", "--p", "4", "--diag", "4", "--engine", "mc", "--samples", "40000",
             "--seed", "5"],
            ["kernel", "--p", "4", "--s-max", "4", "--step", "0.5"],
            ["crossing", "--p", "9", "--n-max", "5", "--tol", "1e-3"],
            ["verify", "--suite", "lemma1"],
            ["verify", "--suite", "sufficient"],
            ["clt", "--p", "4", "--n-list", "2,4,8", "--samples", "10000", "--seed", "3"],
            ["optimize", "--p", "100", "--n", "2", "--engine", "quad", "--budget", "60",
             "--tol", "1e-3", "--seed", "2"],
            ["clt", "--p", "inf", "--n-list", "2,4", "--samples", "5000", "--format", "json"],
        ]
        ok = True
        for i, argv in enumerate(cases):
            f1 = tmp_path / f"c{i}a.out"
            f2 = tmp_path / f"c{i}b.out"
            r1 = cli.main(argv + ["--output-path", str(f1)])
            r2 = cli.main(argv + ["--output-path", str(f2)])
            same = (r1 == r2) and f1.read_bytes() == f2.read_bytes()
            ok = ok and same
        report("A-12 determinism", ok, f"{len(cases)} subcommand re-runs byte-identical")
        assert ok
