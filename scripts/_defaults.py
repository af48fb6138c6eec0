"""How the experiment scripts' command-line flags replace their defaults.

Each ``run_*.py`` script passes ``command_line(DEFAULTS, sys.argv[1:])`` to
``mirrorsobol.cli.main``; ``DEFAULTS`` starts with the command.  The flags
are read by the CLI's one parser, ``_build_parser()``, the same that
``main`` reads them with.  They follow the defaults, so a flag given
twice takes its later value and every appended flag overrides its default.
The bandwidth is the exception: ``--h``, ``--rule`` and ``--auto`` are
three modes of which a command takes exactly one, so the script's default
mode is dropped when the flags choose a mode of their own, or run
estimators without the kernel, which reads none.
"""

from mirrorsobol.cli import _build_parser

_BANDWIDTH_FLAGS = ("--h", "--rule", "--auto")


def command_line(defaults: list, flags: list) -> list:
    """defaults, less their bandwidth flag where `flags` replace it, followed by flags."""
    given = vars(_build_parser().parse_args(defaults[:1] + flags))  # the fields the flags set
    if not ({"h", "rule", "auto"} & set(given) or "kernel" not in given.get("estimators", ("kernel",))):
        return defaults + flags
    kept, dropping = [], False
    for token in defaults:  # a flag's values follow it, and none starts with "--"
        if token.startswith("--"):
            dropping = token in _BANDWIDTH_FLAGS
        if not dropping:
            kept.append(token)
    return kept + flags
