#!/usr/bin/env python3
"""CI coverage study for the kernel Sobol' estimator.

Defaults reproduce the 95% CLT-interval calibration run on the linear
model with an order-1 kernel and h = n^(-0.3).  Append CLI flags to
override, e.g. ``python scripts/run_coverage.py --seeds 50``; ``--h`` or
``--auto`` replaces the default ``--rule`` (see ``_defaults.py``).  Add
``--variance-scale 0.5`` for the deliberate-miscalibration negative
control.
"""

import sys

from mirrorsobol.cli import main

DEFAULTS = [
    "coverage",
    "--model", "linear3",
    "--n", "4000",
    "--mask", "1",
    "--order", "1",
    "--rule", "1.0", "0.3",
    "--seeds", "300",
    "--output", "coverage.csv",
]

if __name__ == "__main__":
    from _defaults import command_line  # beside this script

    sys.exit(main(command_line(DEFAULTS, sys.argv[1:])))
