#!/usr/bin/env python3
"""Stdout parity check for `lpsec`.

Runs a fixed list of `lpsec` command lines, each in a fresh
`python -m lpsections` with PYTHONPATH set to one source tree, and prints
one line per command: `exit sha256-of-stdout command`.  Comparing two
checkouts is a diff of two runs:

    python3 scripts/stdout_parity.py --src /path/to/parent/src > parent.txt
    python3 scripts/stdout_parity.py > change.txt
    diff parent.txt change.txt

The list covers every engine and subcommand: quadrature volumes from
p = 1 to inf, Monte Carlo and closed forms, the usage (2) and
non-convergence (3) exits, a kernel grid whose step is not dyadic, a
crossing scan, the Lipschitz suite, and the optimizer on n = 2 (closed
forms only) and n = 3 (quadrature).  The `optimize --engine mc` lines
exit 2 since the optimizer became quadrature-only; they stay so that a
diff against an older tree shows that change.  It runs in under a minute
on two cores.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

LINES = [
    # quadrature volumes across p
    "volume --p 1 --diag 3 --engine quad --tol 1e-4",
    "volume --p 1.5 --a 1,0.8,0.6 --engine quad --tol 1e-6",
    "volume --p 2.3 --diag 4 --engine quad --tol 1e-7",
    "volume --p 4 --a 1,0.9,0.7,0.5 --engine quad --tol 1e-8",
    "volume --p 9 --diag 5 --engine quad --tol 1e-6",
    "volume --p 60 --a 1,0.8,0.6 --engine quad --tol 1e-6",
    "volume --p 140 --diag 6 --engine quad --tol 1e-6",
    "volume --p inf --a 1,0.8,0.6 --engine quad --tol 1e-8 --format json",
    # other engines
    "volume --p 4 --diag 3 --engine mc --samples 20000 --seed 5",
    "volume --p 4 --a2 3 --engine closed",
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
    "optimize --p 4 --n 2 --engine mc --budget 8 --samples 1000 --tol nan",
    "optimize --p 4 --n 2 --engine mc --budget 8 --samples 1000 --tol -1",
    "optimize --p 4 --n 2 --engine quad --budget 0",
    # non-convergence (exit 3)
    "volume --p 1e20 --diag 3 --engine quad",
    "volume --p 4 --a 1,1e-200,1e-200 --engine quad",
    # the other subcommands
    "kernel --p 7.3 --s-max 12.1 --step 0.3",
    "crossing --p 9 --n-max 8 --tol 1e-5",
    "verify --suite lipschitz",
    "clt --p 4 --n-list 2,8 --samples 20000 --seed 3",
    "optimize --p 4 --n 2 --engine quad --budget 20",
    "optimize --p 4 --n 3 --engine quad --budget 15 --seed 1",
    "optimize --p 4 --n 3 --engine mc --budget 15 --samples 20000 --seed 1",
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="print `exit sha256 command` for a fixed list of lpsec lines")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="source tree holding the lpsections package (default: this checkout's src)")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=args.src)
    for line in LINES:
        res = subprocess.run([sys.executable, "-m", "lpsections", *shlex.split(line)],
                             env=env, capture_output=True, timeout=300)
        print(res.returncode, hashlib.sha256(res.stdout).hexdigest(), line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
