import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    whose second moment diverges, drawn with sphere points from the
    batch generators of mc.estimate_section_volume, keyed by the
    coordinate count (its chunks and draw order differ: it draws merge
    scalars, not sphere points)."""
    a = np.array(canonicalize(a).nonzero())
    n = a.size
    means = []
    for bi, count in enumerate(mc._batch_sizes(spec.samples, mc._BATCHES)):
        gen = mc._batch_generator(spec.seed, n, bi)
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

    def test_arrays_match_scalar_calls(self):
        u = np.array([0.0, 0.2, 1.0, 1.9, 3.0])
        v = np.array([0.7, 0.1, 1.0, 2.5, 0.0])
        got = mc.rao_blackwell_kernel(u, v)
        assert got.tolist() == [mc.rao_blackwell_kernel(float(x), float(y)) for x, y in zip(u, v)]
        for bad_u, bad_v in ((0.0, 0.0), (-1.0, 2.0), (2.0, -1e-300)):
            with pytest.raises(ValueError):
                mc.rao_blackwell_kernel(np.append(u, bad_u), np.append(v, bad_v))

    def test_estimator_runs_the_kernel(self, monkeypatch):
        calls = []
        kernel = mc.rao_blackwell_kernel

        def counting(u, v):
            calls.append(np.size(u))
            return kernel(u, v)

        monkeypatch.setattr(mc, "rao_blackwell_kernel", counting)
        mc.estimate_section_volume(4.0, Direction.diagonal(3), mc.McSpec(samples=64, seed=1))
        # one chunk per batch, and every draw passes through the kernel
        assert len(calls) == mc._BATCHES and sum(calls) == 64

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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits(self, seed):
        # rejected here, not by SeedSequence inside a batch's worker thread
        with pytest.raises(ValueError, match="seed"):
            mc.McSpec(samples=64, seed=seed)
        assert mc.McSpec(samples=64, seed=2 ** 64 - 1).seed == 2 ** 64 - 1


class TestBatchKeys:
    """Batch b of the estimate with a given seed over n nonzero coordinates
    has its own stream, keyed by (seed, n, b)."""

    def test_distinct_and_stable(self):
        def draws():
            return [mc._batch_generator(5, 3, b).random(4).tobytes() for b in range(mc._BATCHES)]

        first = draws()
        assert len(set(first)) == mc._BATCHES
        assert draws() == first

    def test_seed_and_coordinate_count_do_not_alias(self):
        # as list entropy, (7 + 5 * 2^32, 0) and (7, 5) give one state
        alias = [np.random.SeedSequence(e).generate_state(4) for e in ([7 + 5 * 2 ** 32, 0], [7, 5])]
        assert np.array_equal(*alias)
        for b in (0, 1, mc._BATCHES - 1):
            x = mc._batch_generator(7 + 5 * 2 ** 32, 0, b).random(8)
            y = mc._batch_generator(7, 5, b).random(8)
            assert not np.array_equal(x, y)


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

    def test_zero_padding_changes_no_bit(self):
        spec = mc.McSpec(samples=4000, seed=3)
        padded = mc.estimate_section_volume(4.0, Direction([1.0, 0.8, 0.6, 0.0, 0.0]), spec)
        plain = mc.estimate_section_volume(4.0, Direction([1.0, 0.8, 0.6]), spec)
        assert (padded.value, padded.err_bound) == (plain.value, plain.err_bound)
        assert padded.meta["batch_values"] == plain.meta["batch_values"]

    def test_only_nonzero_coordinates_are_drawn(self, monkeypatch):
        # a radial modulus per zero coordinate made --a2 2000 cost 1000 times --a2 2
        rows = []
        radial = mc.radial_array

        def counting(p, size, gen):
            rows.append(size[0])
            return radial(p, size, gen)

        monkeypatch.setattr(mc, "radial_array", counting)
        mc.estimate_section_volume(4.0, Direction.two_equal(2000), mc.McSpec(samples=64, seed=1))
        assert rows and set(rows) == {2}

    def test_reproducible_bit_for_bit(self):
        spec = mc.McSpec(samples=200_000, seed=9)
        a = mc.estimate_section_volume(9.0, Direction.diagonal(5), spec)
        b = mc.estimate_section_volume(9.0, Direction.diagonal(5), spec)
        assert a.value == b.value and a.err_bound == b.err_bound

    def test_per_draw_bounded_by_peak_term(self):
        a = Direction.diagonal(5).as_array()
        vals = mc._draw_batch(3.0, a, RngStream(21, 0).generator, 10_000)
        # 10 000 draws fit one (n, m) chunk, which draws its radial moduli
        # first: a twin generator reproduces them and so max_j a_j R_j per draw
        twin = RngStream(21, 0).generator
        vmax = (a[:, None] * radial_array(3.0, (a.size, 10_000), twin)).max(axis=0)
        assert np.all(vals <= 1.0 / vmax ** 2 + 1e-12)


class TestThreads:
    """The batches run on a thread pool; nothing but speed depends on it."""

    @pytest.mark.parametrize("p,n,samples", [
        (4.0, 1024, 8192),  # 256 draws per batch: four chunks of 64 rows
        (INF, 5, 20_000),
        (9.0, 5, 20_000),
    ])
    def test_worker_count_changes_no_bit(self, p, n, samples, monkeypatch):
        spec = mc.McSpec(samples=samples, seed=12)
        results = []
        for cores in (1, 2, 3, 5):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: set(range(c)), raising=False)
            assert mc._workers() == cores
            res = mc.estimate_section_volume(p, Direction.diagonal(n), spec)
            results.append((res.value, res.err_bound, res.meta["batch_values"]))
        assert all(r == results[0] for r in results[1:])

    def test_batch_working_set(self):
        # each worker holds one batch's arrays at a time; this bound on them
        # is what keeps a threaded run's peak RSS at the serial one's
        a = Direction.diagonal(4).as_array()
        gen = RngStream(5, 0).generator
        tracemalloc.start()
        try:
            mc._draw_batch(4.0, a, gen, 58_593)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20

    def test_thread_pool_not_imported_at_start_up(self):
        code = ("import sys; from lpsections import cli; cli.build_parser(); "
                "print('concurrent.futures' in sys.modules)")
        src = str(Path(mc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert res.stdout.strip() == "False"


class TestMergedNorms:
    """The pairwise merge draws |sum_j b_j xi_j| exactly in law."""

    @pytest.mark.parametrize("b", [[1.0, 0.7, 0.0, 0.4, 0.9],
                                   [0.3, 1.2, 0.8, 0.8, 0.0, 0.5, 1.0, 0.1]])
    def test_law_matches_sphere_sum(self, b):
        stats = pytest.importorskip("scipy.stats")
        m = 20_000
        mags = np.tile(np.array(b), (m, 1))
        merged = mc._merged_norms(mags.T.copy(), RngStream(41, 0).generator)
        vec = np.einsum("ij,ijk->ik", mags, sphere3_array((m, len(b)), RngStream(42, 0).generator))
        direct = np.sqrt(np.einsum("ik,ik->i", vec, vec))
        assert stats.ks_2samp(merged, direct).pvalue > 1e-3

    def test_two_coordinates_give_the_peak_term(self):
        # with the larger magnitude removed, one term is left, whose norm
        # is its magnitude: every draw is 1/max(b_1, b_2)^2 exactly
        a = Direction([0.8, 0.6]).as_array()
        vals = mc._draw_batch(4.0, a, RngStream(23, 0).generator, 10_000)
        twin = RngStream(23, 0).generator
        vmax = (a[:, None] * radial_array(4.0, (2, 10_000), twin)).max(axis=0)
        assert np.array_equal(vals, 1.0 / (vmax * vmax))


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

    def test_row_is_the_diagonal_volume(self):
        spec = mc.McSpec(samples=4000, seed=5)
        g2 = gamma(1.5)
        for n in (2, 7):
            row = mc.clt_experiment(4.0, [n], spec)[0]
            vol = mc.estimate_section_volume(4.0, Direction.diagonal(n), spec)
            assert row.estimate == vol.value / g2 and row.std_err == vol.err_bound / g2

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            mc.clt_experiment(4.0, [1], mc.McSpec(samples=100, seed=0))
