"""Command-line entry point of the ``horseshoe`` console script.

Subcommands, each on a reference parameter set (``--params ex|strict``):

* ``validate``  : the parameter checks of :func:`map_core.validate`;
* ``calibrate`` : :func:`induced.calibrate_certificate` with
  ``--budget`` sampled window points (at most 40 are read) and the
  sampling ``--seed``: the value and provenance of C0, eps0, eta, rho1,
  C5 and the derived C3 = rho1 * C0;
* ``atoms``     : the nonempty atoms of :func:`coding.atoms` at
  ``--level`` N, counted: ``words``, ``empty_words`` (the other of the
  3^(2N+1) centered words) and the cover ``boxes`` of all atoms.

Each prints its report as JSON on stdout and the elapsed seconds on
stderr, so stdout stays one JSON document::

    horseshoe validate --params strict
    horseshoe calibrate --params ex --budget 40 --seed 0
    horseshoe atoms --params ex --level 2
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import map_core as mc
from .coding import atoms
from .induced import calibrate_certificate

PARAMS = {"ex": mc.REF_EX, "strict": mc.REF_STRICT}
#: Atom levels the ``atoms`` subcommand builds; level 4 is out of reach.
LEVELS = range(4)


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
        "atoms": sub.add_parser(
            "atoms", help="count the atoms of one level"),
    }
    for cmd in commands.values():
        cmd.add_argument("--params", choices=sorted(PARAMS), default="ex",
                         help="reference parameter set (default: ex)")
    cal = commands["calibrate"]
    cal.add_argument("--budget", type=int, default=40,
                     help="sampled window points, of which at most 40 "
                          "are read (default: 40)")
    cal.add_argument("--seed", type=int, default=0,
                     help="sampling seed (default: 0)")
    commands["atoms"].add_argument("--level", type=int, choices=LEVELS,
                                   required=True, help="word level N")
    return parser


def _atoms_report(params: mc.MapParams, n: int) -> str:
    level = atoms(params, n)
    return json.dumps({"level": n, "words": len(level),
                       "empty_words": 3 ** (2 * n + 1) - len(level),
                       "boxes": sum(len(a.boxes) for a in level.values())})


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the exit status is 1 for an invalid parameter
    set, else 0."""
    args = _parser().parse_args(argv)
    params = PARAMS[args.params]
    start = time.perf_counter()
    status = 0
    if args.command == "validate":
        report = mc.validate(params)
        status = int(not report.valid)
        text = report.to_json()
    elif args.command == "calibrate":
        text = calibrate_certificate(params, args.budget, args.seed).to_json()
    else:
        text = _atoms_report(params, args.level)
    elapsed = time.perf_counter() - start
    print(text)
    print(f"elapsed_s {elapsed:.3f}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
