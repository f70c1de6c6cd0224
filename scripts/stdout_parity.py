#!/usr/bin/env python3
"""Stdout parity check for `lpsec`.

Runs a fixed list of `lpsec` command lines, each in a fresh
`python -m lpsections` with PYTHONPATH set to one source tree, and prints
one line per command: `exit sha256-of-stdout sha256-of-values command`.
The second hash covers stdout with the error-bearing columns removed
(`err_bound`, `a_diag_err`, `std_err`, and `verify`'s `rhs` and
`margin`, which add engine errors on the Lipschitz rows), so a change
that moves only error bounds keeps it.  Comparing two checkouts is a
diff of two runs:

    python3 scripts/stdout_parity.py --src /path/to/parent/src > parent.txt
    python3 scripts/stdout_parity.py > change.txt
    diff parent.txt change.txt

The list covers every engine and subcommand: quadrature volumes from
p = 1 to inf (one whose kernel skips its table, one at p = 1 whose
loose target lets the kernel read its table, one at p = 1.05 whose
interpolation bound overflows on part of its strip, one whose outer tail
bound leaves a small coordinate out of its power law, one on a diagonal
of 1000 coordinates, one whose outer rule takes a single panel, one at
p = 500 whose kernel table takes panels of width 8), Monte
Carlo volumes (odd and even n, finite p and p = inf, a spread
direction whose largest drawn magnitude moves between coordinates from
draw to draw, and a zero-padded direction) and closed forms
(finite p, p = 1e4 and p = inf), a direction whose sum of squares underflows,
the usage (2) and non-convergence (3) exits (one of them a kernel argument
past the radial subpanel limit), a kernel grid whose step is not dyadic,
a kernel grid below 1, a kernel whose cutoff the truncation bound
decides, a crossing scan,
the Lipschitz suite, four clt tables (one at p = inf, one whose batches
span several chunks), and the optimizer on n = 2 (closed forms only,
also at p = 1e300) and n = 3 (quadrature).  It runs in under a minute on two cores.
Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

LINES = [
    # quadrature volumes across p
    "volume --p 1 --diag 3 --engine quad --tol 1e-4",
    "volume --p 1 --diag 3 --engine quad --tol 1e-8",
    # a kernel target of 2e-6 is above p = 1's interpolation bound: p = 1 reads the table
    "volume --p 1 --diag 3 --engine quad --tol 0.2",
    # every table panel would miss the kernel target here: all points go direct
    "volume --p 1.13 --diag 3 --engine quad --tol 1e-4",
    # the strip bound overflows to inf for some Young weights here: quietly
    "volume --p 1.05 --diag 3 --engine quad --tol 1e-6",
    "volume --p 1.5 --a 1,0.8,0.6 --engine quad --tol 1e-6",
    "volume --p 2.3 --diag 4 --engine quad --tol 1e-7",
    "volume --p 4 --a 1,0.9,0.7,0.5 --engine quad --tol 1e-8",
    "volume --p 9 --diag 5 --engine quad --tol 1e-6",
    # the outer rule's certificate is met by a single panel
    "volume --p 9 --diag 20 --engine quad --tol 1e-5",
    "volume --p 60 --a 1,0.8,0.6 --engine quad --tol 1e-6",
    # the least outer tail law is a cut that leaves the small coordinate out
    "volume --p 40 --a 1,1,1,1,1e-3 --engine quad --tol 1e-6",
    "volume --p 140 --diag 6 --engine quad --tol 1e-6",
    # kernel target 1e-12: the table's panels are 8 wide
    "volume --p 500 --diag 3 --engine quad --tol 1e-7",
    # a long diagonal: the outer rule's strip bound must tend to 1 for thin strips
    "volume --p 2.3 --diag 1000 --engine quad --tol 1e-6",
    "volume --p inf --a 1,0.8,0.6 --engine quad --tol 1e-8 --format json",
    # other engines
    "volume --p 4 --diag 3 --engine mc --samples 20000 --seed 5",
    "volume --p inf --diag 5 --engine mc --samples 20000 --seed 4",
    # the largest a_j R_j is not always the first coordinate's
    "volume --p 3 --a 1,0.9,0.5,0.5,0.2 --engine mc --samples 20000 --seed 13",
    # 398 zero coordinates: drawn as the two nonzero ones alone
    "volume --p 4 --a2 400 --engine mc --samples 20000 --seed 1",
    "volume --p 4 --a2 3 --engine closed",
    # b1^p + b2^p underflows to 0 here
    "volume --p 1e4 --a 0.8,0.6 --engine closed",
    "volume --p inf --a2 3 --engine closed",
    # usage errors (exit 2)
    "volume --p 0.5 --diag 3 --engine quad",
    "volume --p 4 --a2 3 --engine quad --tol inf",
    "volume --p 4 --diag 3 --engine mc --samples 1000 --tol nan",
    "volume --p 4 --a2 3 --engine closed --tol -1",
    "volume --p 4 --diag 3 --engine mc --samples 100 --seed -1",
    "kernel --p 4 --s-max inf --step 1",
    "kernel --p inf --s-max 1e17 --step 1",
    "kernel --p 4 --s-max 2 --step 0.5 --tol nan",
    "verify --suite lemma1 --tol nan",
    "optimize --p 4 --n 2 --engine quad --budget 8 --tol nan",
    "optimize --p 4 --n 2 --engine quad --budget 8 --tol -1",
    "optimize --p 4 --n 2 --engine quad --budget 0",
    # non-convergence (exit 3)
    "volume --p 1e20 --diag 3 --engine quad",
    "volume --p 4 --a 1,1e-200,1e-200 --engine quad",
    # a kernel argument past the radial subpanel limit, refused before any work
    "kernel --p 4 --s-max 1e12 --step 1e11",
    # a direction whose sum of squares underflows, rescaled by its largest entry
    "volume --p 4 --a 1e-200,1e-200,1e-200 --engine quad --tol 1e-6",
    # the other subcommands
    "kernel --p 7.3 --s-max 12.1 --step 0.3",
    # a grid below 1: its rows end at s_max, ten steps in
    "kernel --p inf --s-max 1e-13 --step 1e-14",
    # a kernel target met with little room: the truncation bound sets r_max
    "kernel --p 1.461 --s-max 6 --step 0.5 --tol 2e-7",
    "crossing --p 9 --n-max 8 --tol 1e-5",
    "verify --suite lipschitz",
    "clt --p 4 --n-list 2,8 --samples 20000 --seed 3",
    "clt --p 4 --n-list 3,16 --samples 20000 --seed 2",
    "clt --p inf --n-list 2,5 --samples 20000 --seed 6",
    # 256 draws of 1024 coordinates per batch: four chunks each
    "clt --p 4 --n-list 1024 --samples 8192 --seed 8",
    "optimize --p 4 --n 2 --engine quad --budget 20",
    "optimize --p 4 --n 3 --engine quad --budget 15 --seed 1",
    "optimize --p 1e300 --n 2 --engine quad --budget 8",
]

# columns that carry an error bound, or a figure computed from one
ERROR_COLUMNS = frozenset({"err_bound", "a_diag_err", "std_err", "rhs", "margin"})


def values_only(stdout: bytes) -> bytes:
    """stdout with the ERROR_COLUMNS removed: keys of a JSON document,
    columns of a CSV table (named by its first row)."""
    text = stdout.decode()
    if text.startswith("{"):
        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k not in ERROR_COLUMNS}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj
        return json.dumps(strip(json.loads(text)), sort_keys=True, indent=1).encode()
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in ERROR_COLUMNS] if rows else []
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="print `exit sha256 values-sha256 command` for a fixed list of lpsec lines")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="source tree holding the lpsections package (default: this checkout's src)")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=args.src)
    for line in LINES:
        res = subprocess.run([sys.executable, "-m", "lpsections", *shlex.split(line)],
                             env=env, capture_output=True, timeout=300)
        print(res.returncode, hashlib.sha256(res.stdout).hexdigest(),
              hashlib.sha256(values_only(res.stdout)).hexdigest(), line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
