"""Command-line front end: run or validate scenario configs.

    spinbath list-scenarios | validate CONFIG | run CONFIG

``-h`` or ``--help`` anywhere prints the usage text. Exit codes: 0 success,
1 bad input (a malformed command line, or a config that cannot be read or is
refused), 2 numerical assertion failure (an oracle comparison above tolerance).
"""

from __future__ import annotations

import sys

from .scenarios import KINDS, ConfigError, parse_config_file, run, validate

USAGE = "usage: spinbath {list-scenarios | validate CONFIG | run CONFIG}"
HELP = f"""{USAGE}

Two-qubit spin-bath decoherence scenarios.

  list-scenarios   list available scenario kinds
  validate CONFIG  check a config and report derived quantities
  run CONFIG       validate and execute a scenario config

CONFIG is the path to a key = value config file."""


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(HELP)
        return 0
    match argv:
        case ["list-scenarios"]:
            width = max(map(len, KINDS))
            for name, kind in KINDS.items():
                print(f"{name:<{width}}  {kind.summary}")
            return 0
        case ["run" | "validate" as command, path]:
            pass
        case _:
            print(f"error: {USAGE}", file=sys.stderr)
            return 1

    try:
        config = parse_config_file(path)
        report = validate(config)
        if command == "validate":
            print(report.render())
            return 0 if report.ok else 1
        # a refused config raises here, its errors joined on one line
        result = run(config, report)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, value in result.summary.items():
        print(f"{key}: {value}")
    print(f"wrote {result.path}")
    if result.numerical_failure:
        print("numerical assertion FAILED (deviation above tolerance)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
