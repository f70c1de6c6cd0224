"""Per-layer measurements: span tracing and layer microbenchmarks.

Spans come from wrappers installed by rebinding module attributes under
the names that callers look up (for example `hankel.j0_array`, which is
what the kernel quadrature calls), so the program itself is not edited.
Spans are kept in memory and written out once, by the caller.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# layer name -> [(module attribute holding a caller's reference, attribute name)]
# Every place a caller looks the function up is rebound, so each call
# opens exactly one span.  The `cli` layer is the benchmark's own call
# into cli.main and is recorded by the caller.
HOOKS = {
    "analysis": [("analysis", n) for n in
                 ("crossing_scan", "verify_lemma1", "verify_sufficient", "verify_lipschitz", "lipschitz_gap")],
    "optimize": [("cli", "maximize_direction")],
    "hankel.section_volume_quadrature": [(m, "section_volume_quadrature") for m in ("cli", "analysis", "optimize")],
    "hankel.kernel_values": [("hankel", "kernel_values")],
    "hankel.tail_bound_outer": [("hankel", "tail_bound_outer")],
    "specfun.j0_array": [("hankel", "j0_array")],
    "montecarlo.estimate_section_volume": [(m, "estimate_section_volume")
                                           for m in ("cli", "montecarlo", "analysis", "optimize")],
    "randkit.sphere3_array": [("montecarlo", "sphere3_array")],
}
LAYERS = ("cli",) + tuple(HOOKS)


class Tracer:
    """Single-threaded span recorder: each span is [name, start, end, parent]."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.stack: list = []
        self.quad_meta: list = []
        self._saved: list = []

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def install(self) -> None:
        def keep_meta(res):
            if res.engine == "quadrature":
                self.quad_meta.append(res.meta)

        for layer, sites in HOOKS.items():
            hook = keep_meta if layer == "hankel.section_volume_quadrature" else None
            for mod_name, attr in sites:
                mod = self.modules[mod_name]
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self.span(layer, orig, hook))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def layer_totals(self) -> dict:
        """{layer: [self seconds, calls]}; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: [0.0, 0] for layer in LAYERS}
        for (name, t0, t1, _), covered in zip(self.spans, child):
            out[name][0] += (t1 - t0) - covered
            out[name][1] += 1
        return out

    def overhead_per_span(self, reps: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        wrapped = Tracer(self.modules).span("calibration", noop)
        best_plain = best_wrapped = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                noop()
            t1 = time.perf_counter()
            for _ in range(reps):
                wrapped()
            t2 = time.perf_counter()
            best_plain = min(best_plain, t1 - t0)
            best_wrapped = min(best_wrapped, t2 - t1)
        return max(best_wrapped - best_plain, 0.0) / reps


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def microbenchmarks(m: dict) -> dict:
    """Layer microbenchmarks on fixed inputs: {metric name: (value, unit)}."""
    specfun, hankel, montecarlo, randkit = m["specfun"], m["hankel"], m["montecarlo"], m["randkit"]
    Direction, McSpec = m["direction"].Direction, montecarlo.McSpec
    out = {}

    # J0 on a fixed vector split evenly over the three evaluation bands:
    # series (<= 8), extended-precision series (8-16), asymptotic (> 16)
    x = np.concatenate([np.linspace(0.0, 8.0, 100_000), np.linspace(8.001, 16.0, 100_000),
                        np.linspace(16.001, 200.0, 100_000)])
    out["specfun.j0_ns_per_pt"] = (_median_time(lambda: specfun.j0_array(x), 5) / x.size * 1e9, "ns")

    # kernel at one even and one non-even p, 8 points near each decade;
    # the first call fills the per-p caches, so the timing is steady state
    for label, x0 in (("x1e1", 10.0), ("x1e2", 100.0), ("x1e3", 1000.0)):
        xs = x0 * (1.0 + np.linspace(0.0, 0.07, 8))
        per_pt = []
        for p in (4.0, 7.5):
            hankel.kernel_values(p, xs)
            per_pt.append(_median_time(lambda: hankel.kernel_values(p, xs), 3) / xs.size)
        out[f"hankel.kernel_us_per_pt.{label}"] = (statistics.mean(per_pt) * 1e6, "us")

    # Monte Carlo per (sample x coordinate) along the diagonal at p = 4
    for n in (16, 256):
        samples = 2_000_000 // n
        spec = McSpec(samples=samples, seed=11)
        t = _median_time(lambda: montecarlo.estimate_section_volume(4.0, Direction.diagonal(n), spec), 3)
        out[f"montecarlo.ns_per_sample_coord.n{n}"] = (t / (samples * n) * 1e9, "ns")

    gen = randkit.RngStream(11, 0).generator
    size = (50_000, 16)
    t = _median_time(lambda: randkit.sphere3_array(size, gen), 5)
    out["randkit.sphere3_ns_per_pt"] = (t / (size[0] * size[1]) * 1e9, "ns")
    # the gamma draw montecarlo makes for the radial law at p = 4
    t = _median_time(lambda: gen.standard_gamma(1.5, size=size), 5)
    out["montecarlo.gamma_ns_per_draw"] = (t / (size[0] * size[1]) * 1e9, "ns")
    return out
