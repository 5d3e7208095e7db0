"""Command-line front end: run or validate scenario configs.

Exit codes: 0 success, 1 config validation failure, 2 numerical assertion
failure (an oracle comparison above tolerance).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .scenarios import KINDS, ConfigError, parse_config_file, run, validate


# built on the first call rather than at import, so importing the package stays cheap,
# and then reused: one process can call main many times, and each build costs ~0.3 ms
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Two-qubit spin-bath decoherence scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="validate and execute a scenario config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_val = sub.add_parser("validate", help="check a config and report derived quantities")
    p_val.add_argument("config", help="path to a key = value config file")
    sub.add_parser("list-scenarios", help="list available scenario kinds")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "list-scenarios":
        width = max(map(len, KINDS))
        for name, kind in KINDS.items():
            print(f"{name:<{width}}  {kind.summary}")
        return 0

    try:
        config = parse_config_file(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = validate(config)
    if args.command == "validate":
        print(report.render())
        return 0 if report.ok else 1

    if not report.ok:
        print(report.render(), file=sys.stderr)
        return 1
    try:
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
