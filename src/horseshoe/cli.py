"""Command-line entry point of the ``horseshoe`` console script.

Subcommands, each on a reference parameter set (``--params ex|strict``):

* ``validate``  : the parameter checks of :func:`map_core.validate`;
* ``calibrate`` : :func:`induced.calibrate_certificate` with
  ``--budget`` sampled window points and the sampling ``--seed``.

Each prints its report's ``to_json`` on stdout and the elapsed seconds
on stderr, so stdout stays one JSON document::

    horseshoe validate --params strict
    horseshoe calibrate --params ex --budget 40 --seed 0
"""

from __future__ import annotations

import argparse
import sys
import time

from . import map_core as mc
from .induced import calibrate_certificate

PARAMS = {"ex": mc.REF_EX, "strict": mc.REF_STRICT}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horseshoe",
        description="Numerical laboratory for the horseshoe with an "
                    "internal homoclinic tangency.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": sub.add_parser(
            "validate", help="check the parameter constraints"),
        "calibrate": sub.add_parser(
            "calibrate", help="calibrate the certificate constants"),
    }
    for cmd in commands.values():
        cmd.add_argument("--params", choices=sorted(PARAMS), default="ex",
                         help="reference parameter set (default: ex)")
    cal = commands["calibrate"]
    cal.add_argument("--budget", type=int, default=200,
                     help="sampled window points (default: 200)")
    cal.add_argument("--seed", type=int, default=0,
                     help="sampling seed (default: 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the exit status is 1 for an invalid parameter
    set, else 0."""
    args = _parser().parse_args(argv)
    params = PARAMS[args.params]
    start = time.perf_counter()
    if args.command == "validate":
        report = mc.validate(params)
        status = 0 if report.valid else 1
    else:
        report = calibrate_certificate(params, args.budget, args.seed)
        status = 0
    elapsed = time.perf_counter() - start
    print(report.to_json())
    print(f"elapsed_s {elapsed:.3f}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
