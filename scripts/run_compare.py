#!/usr/bin/env python3
"""Estimator comparison table: kernel vs Pick-Freeze vs 1-NN vs rank.

Emits one CSV row per estimator with mean, RMSE, n-scaled empirical
variance, and the theoretical limiting variance where a CLT constant is
available.  Append CLI flags to override the defaults, e.g.
``python scripts/run_compare.py --model product --n 4000``; ``--rule`` or
``--auto`` replaces the default ``--h 0.25``, and so does an
``--estimators`` without the kernel, which takes no bandwidth (see
``_defaults.py``).
"""

import sys

from mirrorsobol.cli import main

DEFAULTS = [
    "compare",
    "--model", "linear3",
    "--n", "2000",
    "--mask", "1",
    "--h", "0.25",
    "--seeds", "50",
    "--estimators", "kernel,pf,nn,rank",
    "--output", "compare.csv",
]

if __name__ == "__main__":
    from _defaults import command_line  # beside this script

    sys.exit(main(command_line(DEFAULTS, sys.argv[1:])))
