"""Benchmark for lpsections: one workload per run, in one process and one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The operations are `lpsec` command lines issued in-process through
`lpsections.cli.main`, each writing its table to a file.  Every output
is checked against perfbench/reference.py, an independent computation
that does not import lpsections.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (a traced run plus layer microbenchmarks).  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# The program is single-threaded by design; keep BLAS and OpenMP pools
# from adding threads.  This must precede the first numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import csv
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Nominal seconds of one round of each workload on a 2-core sandbox.  A run
# makes round(seconds / ROUND_SECONDS) rounds (at least one), so the work
# done depends on --seconds and --seed only, never on the machine's speed.
ROUND_SECONDS = {"quad_distinct_p": 24.0, "scan_shared_p": 12.0, "mc_dims": 12.0}

# quad_distinct_p: (p centre, nonzero coordinates, tol).  Each call draws
# p within 3 % of its centre and coordinates within 0.02 of an even
# spread from 1 to 0.6, so no two calls share p while the work per slot
# stays nearly fixed: the outer cutoff is the same for every draw of a
# slot (checked over 12 draws per slot), whereas free draws over (2, 150]
# change the cost of one call by up to 30x.
QUAD_SLOTS = (
    (2.3, 4, 1e-7), (3.0, 5, 1e-7), (4.0, 4, 1e-6), (5.5, 6, 1e-8), (7.5, 5, 1e-6), (10.0, 6, 1e-8),
    (14.0, 5, 1e-6), (20.0, 5, 1e-6), (40.0, 5, 1e-6), (60.0, 6, 1e-6), (90.0, 6, 1e-6), (140.0, 6, 1e-7),
)
KERNEL_TABLE = (25.0, 100.0, 0.25)  # p centre, --s-max, --step
HUGE_P = 1e20
# Monte Carlo: sample x coordinate budget of one clt call, so that every
# dimension costs about the same; and the samples of the two volume calls.
MC_BUDGET = 7_500_000
MC_VOLUME_SAMPLES = 600_000
CROSSING_P = 9.0
OPT_P, OPT_N, OPT_BUDGET, OPT_TOL = 500.0, 3, 20, 1e-2
SETUP_REPEATS = 9

# Every traced run starts with these tiny operations, which enter every
# traced layer once, so each layer reports a measured time on every
# workload.  They run before the traced window and are included in the
# per-layer totals.
PROBE = (
    ["volume", "--p", "5", "--diag", "4", "--engine", "quad", "--tol", "1e-3"],
    ["volume", "--p", "5", "--diag", "4", "--engine", "mc", "--samples", "2000", "--seed", "1"],
    ["crossing", "--p", "9", "--n-max", "3", "--tol", "1e-3"],
    ["optimize", "--p", "5", "--n", "2", "--engine", "quad", "--budget", "8"],
)


@dataclass
class Op:
    argv: list
    check: str
    info: dict = field(default_factory=dict)
    seconds: float = 0.0
    rc: object = None
    path: Path | None = None


def _fmt(v: float, digits: int = 6) -> str:
    return repr(float(f"{v:.{digits}g}"))


def _spread(rng: random.Random, m: int, top: float = 1.0, bottom: float = 0.6) -> list:
    return [round(top - (top - bottom) * j / (m - 1) + rng.uniform(-0.02, 0.02), 4) for j in range(m)]


def _jitter(rng: random.Random, centre: float) -> float:
    return float(_fmt(centre * (1.0 + rng.uniform(-0.03, 0.03))))


def ops_quad_distinct_p(rng: random.Random) -> list:
    ops = []
    for centre, m, tol in QUAD_SLOTS:
        p, a = _jitter(rng, centre), _spread(rng, m)
        ops.append(Op(["volume", "--p", repr(p), "--a", ",".join(map(str, a)), "--engine", "quad",
                       "--tol", f"{tol:g}"], "quad", {"p": p, "a": a, "tol": tol}))
    a = _spread(rng, 3)
    ops.append(Op(["volume", "--p", "inf", "--a", ",".join(map(str, a)), "--engine", "quad", "--tol", "1e-8"],
                  "quad", {"p": "inf", "a": a, "tol": 1e-8}))
    centre, s_max, step = KERNEL_TABLE
    p = _jitter(rng, centre)
    ops.append(Op(["kernel", "--p", repr(p), "--s-max", repr(s_max), "--step", repr(step)], "kernel",
                  {"p": p, "s": [k * step for k in range(int(s_max / step) + 1)]}))
    # fails today with an IndexError (no radial cells for p >~ 1e15); it
    # counts as failed until it exits 0 within 16/p of the p = inf value
    ops.append(Op(["volume", "--p", "1e20", "--diag", "3", "--engine", "quad"], "huge_p", {"p": HUGE_P}))
    return ops


def ops_scan_shared_p(rng: random.Random) -> list:
    # The optimizer's --seed stays fixed: its random starts change its cost
    # by +-20 %, which would swamp the bounds.  The scan length varies.
    n_max = 22 + rng.randrange(5)
    return [
        Op(["crossing", "--p", _fmt(CROSSING_P), "--n-max", str(n_max), "--tol", "1e-5"], "crossing",
           {"p": CROSSING_P, "n_max": n_max}),
        Op(["optimize", "--p", _fmt(OPT_P), "--n", str(OPT_N), "--engine", "quad", "--budget", str(OPT_BUDGET),
            "--tol", f"{OPT_TOL:g}", "--seed", "0"], "optimize", {}),
        Op(["verify", "--suite", "all"], "verify", {}),
    ]


def ops_mc_dims(rng: random.Random) -> list:
    ops = []
    dims = [rng.randrange(2 ** k, 2 ** (k + 1)) for k in range(2, 8)] + [256]
    for n in dims:
        samples = MC_BUDGET // n
        ops.append(Op(["clt", "--p", "4", "--n-list", str(n), "--samples", str(samples),
                       "--seed", str(rng.randrange(1 << 30))], "clt", {"p": 4.0, "n": n}))
    for p in ("inf", _fmt(rng.uniform(3.0, 12.0))):
        a = _spread(rng, 5, 1.0, 0.5)
        ops.append(Op(["volume", "--p", p, "--a", ",".join(map(str, a)), "--engine", "mc",
                       "--samples", str(MC_VOLUME_SAMPLES), "--seed", str(rng.randrange(1 << 30))], "mc",
                      {"p": p if p == "inf" else float(p), "a": a}))
    return ops


WORKLOADS = {
    "quad_distinct_p": ops_quad_distinct_p,
    "scan_shared_p": ops_scan_shared_p,
    "mc_dims": ops_mc_dims,
}


def load_program() -> dict:
    """Import lpsections from the checkout's src/ and nowhere else."""
    if not (SRC / "lpsections" / "cli.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'lpsections'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"lpsections.{name}")
            for name in ("cli", "analysis", "optimize", "hankel", "specfun", "montecarlo", "randkit", "direction")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: lpsections was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from lpsections import cli
cli.build_parser()
print(time.perf_counter() - t0)
"""


def measure_setup(count: int) -> list:
    """Seconds to import the package and build the parser, in `count`
    fresh interpreters one after another."""
    times = []
    for _ in range(count):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True, text=True,
                             timeout=60, check=True, cwd=ROOT)
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def execute(ops: list, main, run_dir: Path) -> tuple[float, float]:
    """Run every operation; returns (first start, last end)."""
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        op.path = run_dir / f"op{i:03d}.csv"
        argv = op.argv + ["--output-path", str(op.path)]
        t0 = clock()
        try:
            op.rc = main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            op.rc = type(exc).__name__
        op.seconds = clock() - t0
    end = clock()
    for op in ops:
        print(f"{op.seconds:9.3f} s  exit {op.rc}  lpsec {' '.join(op.argv)}", file=sys.stderr)
    return start, end


def read_rows(op: Op) -> list:
    with open(op.path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- reference values -----------------------------------------------------


def reference_requests(ops: list) -> list:
    """One request list for the whole run; op.info["ref"] indexes into it."""
    reqs = []

    def add(req) -> int:
        reqs.append(req)
        return len(reqs) - 1

    for op in ops:
        kind, info = op.check, op.info
        if kind == "quad":
            info["ref"] = add({"kind": "volume", "p": info["p"], "a": info["a"], "target": max(info["tol"] / 100, 1e-11)})
        elif kind == "huge_p":
            info["ref"] = add({"kind": "volume", "p": "inf", "a": [1.0, 1.0, 1.0], "target": 1e-10})
        elif kind == "kernel":
            info["ref"] = add({"kind": "kernel", "p": info["p"], "x": info["s"]})
        elif kind == "crossing":
            info["ref"] = {n: add({"kind": "volume", "p": info["p"], "a": [1.0] * n, "target": 1e-7})
                           for n in range(3, info["n_max"] + 1)}
        elif kind == "clt":
            info["ref"] = add({"kind": "volume", "p": info["p"], "a": [1.0] * info["n"], "target": 1e-7})
        elif kind == "mc":
            info["ref"] = add({"kind": "volume", "p": info["p"], "a": info["a"], "target": 1e-7})
    return reqs


def run_reference(reqs: list, run_dir: Path) -> list:
    req_path, out_path = run_dir / "reference-requests.json", run_dir / "reference.json"
    req_path.write_text(json.dumps(reqs))
    subprocess.run([sys.executable, str(HERE / "reference.py"), "--requests", str(req_path),
                    "--output", str(out_path)], check=True, timeout=150, cwd=ROOT)
    return json.loads(out_path.read_text())


# -- checks ---------------------------------------------------------------


def _close(value: float, ref: dict, allowance: float) -> bool:
    return abs(value - ref["value"]) <= allowance + ref["err"]


def check(op: Op, refs: list) -> tuple[bool, str]:
    """(ok, why) for an operation that did not fail."""
    info = op.info
    rows = read_rows(op)
    if op.check == "quad":
        (row,) = rows
        v, e = float(row["value"]), float(row["err_bound"])
        ok = row["engine"] == "quadrature" and e <= info["tol"] and _close(v, refs[info["ref"]], e)
        return ok, f"value {v!r} +- {e:.2e} vs reference {refs[info['ref']]}"
    if op.check == "kernel":
        ref = refs[info["ref"]]
        bad = [r["s"] for r, s, v, ve in zip(rows, info["s"], ref["value"], ref["err"])
               if float(r["s"]) != s or abs(float(r["value"]) - v) > float(r["err_bound"]) + ve]
        return len(rows) == len(info["s"]) and not bad, f"{len(rows)} rows, wrong at s = {bad[:5]}"
    if op.check == "crossing":
        thr = 2.0 ** (1.0 - 2.0 / info["p"])
        bad = []
        for row in rows:
            if int(row["n"]) not in info["ref"]:
                bad.append(f"n={row['n']} unexpected")
                continue
            ref = refs[info["ref"][int(row["n"])]]
            if not _close(float(row["a_diag"]), ref, float(row["a_diag_err"])):
                bad.append(f"n={row['n']} value")
            if row["holds"] == "true" and ref["value"] <= thr:
                bad.append(f"n={row['n']} holds")
            if abs(float(row["a2"]) - thr) > 1e-15:
                bad.append(f"n={row['n']} a2")
        ok = len(rows) == info["n_max"] - 2 and not bad
        return ok, f"{len(rows)} rows, bad: {bad[:5]}"
    if op.check == "optimize":
        best = [r for r in rows if r["record"] == "best"][-1]
        coords = [float(c) for c in best["coords"].split(";")]
        two = [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0]
        dist = math.dist(coords, two)
        ok = float(best["value"]) <= 2.0 ** (1.0 - 2.0 / OPT_P) + OPT_TOL and dist <= 0.05
        return ok, f"best {best['value']} at distance {dist:.3g} from the two-equal direction"
    if op.check == "verify":
        ok = op.rc == 0 and rows and all(r["satisfied"] == "true" for r in rows)
        return ok, f"exit {op.rc}, {len(rows)} rows"
    if op.check == "clt":
        (row,) = rows
        g = math.gamma(1.0 + 2.0 / info["p"])
        ref = refs[info["ref"]]
        ok = (abs(float(row["estimate"]) - ref["value"] / g) <= 5.0 * float(row["std_err"]) + ref["err"] / g
              and math.isclose(float(row["c_p"]), 2.0 * g / math.gamma(1.0 + 4.0 / info["p"]), rel_tol=1e-12))
        return ok, f"estimate {row['estimate']} +- {row['std_err']} vs reference {ref['value'] / g!r}"
    if op.check == "mc":
        (row,) = rows
        ok = _close(float(row["value"]), refs[info["ref"]], 5.0 * float(row["err_bound"]))
        return ok, f"estimate {row['value']} +- {row['err_bound']} vs reference {refs[info['ref']]}"
    raise ValueError(op.check)


def _failed(op: Op, refs: list) -> bool:
    """Crashed or exited non-zero; verify's exit 1 (a violated inequality)
    is a wrong answer, not a failure.  The huge-p volume fails until it
    exits 0 within 16/p of the p = inf reference."""
    if op.check == "huge_p":
        if op.rc != 0:
            return True
        (row,) = read_rows(op)
        return not _close(float(row["value"]), refs[op.info["ref"]], 16.0 / HUGE_P + float(row["err_bound"]))
    return op.rc != 0 and not (op.check == "verify" and op.rc == 1)


def verdict(ops: list, refs: list) -> tuple[bool, int]:
    """(correct, failed); correct speaks of the operations that did not fail."""
    correct, failed = True, 0
    for op in ops:
        try:
            if _failed(op, refs):
                failed += 1
                print(f"FAILED ({op.rc}): lpsec {' '.join(op.argv)}", file=sys.stderr)
                continue
            ok, why = check(op, refs)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
            ok, why = False, repr(exc)
        if not ok:
            correct = False
            print(f"WRONG: lpsec {' '.join(op.argv)}: {why}", file=sys.stderr)
    return correct, failed


# -- entry point -----------------------------------------------------------


def build_ops(workload: str, seed: int, seconds: int) -> list:
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    ops = []
    for r in range(rounds):
        ops += WORKLOADS[workload](random.Random(f"{workload}/{seed}/{r}"))
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lpsections benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = load_program()
    ops = build_ops(args.workload, args.seed, args.seconds)
    run_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics = {}
    try:
        if args.trace:
            from layers import Tracer, microbenchmarks

            for name, (value, unit) in microbenchmarks(mods).items():
                metrics[name] = {"value": value, "unit": unit}
            tracer = Tracer(mods)
            traced_main = tracer.span("cli", mods["cli"].main)
            tracer.install()
            try:
                execute([Op(list(a), "probe") for a in PROBE], traced_main, run_dir)
                first_span = len(tracer.spans)
                start, end = execute(ops, traced_main, run_dir)
            finally:
                tracer.uninstall()
            per_span = tracer.overhead_per_span()
            metas = tracer.quad_meta
            metrics["hankel.kernel_points"] = {"value": sum(m["kernel_evals"] for m in metas), "unit": "count"}
            metrics["hankel.outer_panels"] = {"value": sum(m["panels"] for m in metas), "unit": "count"}
            metrics["hankel.s_max_p50"] = {"value": statistics.median(m["s_max"] for m in metas), "unit": "1"}
            for layer, (self_s, calls) in tracer.layer_totals().items():
                metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
                metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
            workload_spans = len(tracer.spans) - first_span
            metrics["trace.wall_s"] = {"value": end - start, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": workload_spans * per_span, "unit": "s"}
            metrics["trace.spans"] = {"value": workload_spans, "unit": "count"}
            (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(tracer.spans))
        else:
            # set-up samples straddle the operations, so that the median
            # spans several of the machine's slow and fast spells
            setup = measure_setup(SETUP_REPEATS // 2)
            start, end = execute(ops, mods["cli"].main, run_dir)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setup += measure_setup(SETUP_REPEATS - len(setup))
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": end - start, "unit": "s"},
                "op_s_p50": {"value": statistics.median(op.seconds for op in ops), "unit": "s"},
                "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
            }
        t0 = time.perf_counter()
        refs = run_reference(reference_requests(ops), run_dir)
        print(f"reference values in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        correct, failed = verdict(ops, refs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}: {len(ops)} operations attempted, {failed} failed, "
          f"outputs {'correct' if correct else 'WRONG'}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
