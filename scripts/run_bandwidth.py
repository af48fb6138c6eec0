#!/usr/bin/env python3
"""Data-driven bandwidth selection demo.

Runs ``estimate --auto`` on one drawn sample: the pilot-matching selection
rule picks h, and the JSON artifact holds the estimate at that h beside the
selection, with the pilot targets and the objective curve in its
``bandwidth`` block.  Append CLI flags to override the defaults, e.g.
``python scripts/run_bandwidth.py --n 500``; ``--h`` or ``--rule``
replaces the default ``--auto`` (see ``_defaults.py``).
"""

import sys

from mirrorsobol.cli import main

DEFAULTS = [
    "estimate",
    "--model", "linear3",
    "--n", "2000",
    "--seed", "0",
    "--mask", "1",
    "--auto",
    "--output", "bandwidth.json",
]

if __name__ == "__main__":
    from _defaults import command_line  # beside this script

    sys.exit(main(command_line(DEFAULTS, sys.argv[1:])))
