#!/usr/bin/env python3
"""RMSE-vs-n convergence study for the kernel estimator.

Defaults reproduce the root-n rate check on the linear model (takes a few
minutes at 100 seeds).  Any CLI flag can be appended to override a default,
e.g. ``python scripts/run_convergence.py --seeds 10 --n-grid 500,1000``;
``--h`` or ``--auto`` replaces the default ``--rule``, and so does an
``--estimators`` without the kernel, which takes no bandwidth (see
``_defaults.py``).
"""

import sys

from mirrorsobol.cli import main

DEFAULTS = [
    "convergence",
    "--model", "linear3",
    "--mask", "1",
    "--rule", "1.0", "0.4",
    "--n-grid", "500,1000,2000,4000,8000",
    "--seeds", "100",
    "--output", "convergence.csv",
]

if __name__ == "__main__":
    from _defaults import command_line  # beside this script

    sys.exit(main(command_line(DEFAULTS, sys.argv[1:])))
