"""Command-line interface: classification, portraits, sweeps, Melnikov, forced runs.

Subcommands
-----------
classify   equilibria, critical parameter values and phase-portrait regime (JSON)
portrait   trajectories from seeds as CSV (columns seed_id,t,x,y); with
           --format svg and --out also an SVG next to the CSV, with the
           limit cycles found from the seeds
sweep      region classification over a parameter grid (CSV)
melnikov   closed-form vs quadrature Melnikov values (JSON)
forced     stroboscopic samples, full time series and attractor verdict; the
           verdict equals detect.classify_forced on the same run
repro      one-command rerun of the six reference unforced parameter sets
           and the two forced ones

This module only parses: ``import qvdp.cli`` loads argparse and no other
qvdp module, so ``qvdp --help`` and a usage error load nothing more.  main
then imports :mod:`qvdp.commands`, whose dispatch runs the subcommand.

A flag's value may start with '-' as a separate argument, whatever its
form (``--mu -5e-05``, ``--alpha -3e-1``, ``--seed -2,0``); main rewrites it
as ``--flag=value`` before argparse sees it.

Exit codes: 0 success, 2 usage/parameter error, 3 runtime numerical failure.
Outputs are deterministic (17-significant-digit numbers, LF line endings).
"""

from __future__ import annotations

import argparse
import math
import sys


def _seed_pair(text: str):
    try:
        x, y = text.split(",")
        return (float(x), float(y))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"seed must be 'x,y', got {text!r}") from exc


def _grid_spec(text: str):
    try:
        name, lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if count < 2 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
        return (name, lo, hi, count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be 'AXIS:MIN:MAX:N' with N >= 2, got {text!r}") from exc


def _add_common_flags(sp) -> None:
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--eps", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qvdp",
        description="bifurcations, limit cycles and quasi-periodic orbits "
                    "of the quintic van der Pol-Duffing oscillator")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="equilibria and regime (JSON)")
    _add_common_flags(sp)

    sp = sub.add_parser("portrait", help="trajectories from seeds (CSV/SVG)")
    _add_common_flags(sp)
    sp.add_argument("--format", choices=("csv", "svg"), default="csv",
                    help="svg also writes the portrait next to the --out CSV")
    sp.add_argument("--seed", type=_seed_pair, action="append", default=[],
                    help="initial state 'x,y' (repeatable)")
    sp.add_argument("--t1", type=float, default=60.0)
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="relative tolerance (absolute = rel/100)")
    sp.add_argument("--disk", action="store_true",
                    help="render the SVG on the Poincare disk")

    sp = sub.add_parser("sweep", help="region classification over a grid (CSV)")
    _add_common_flags(sp)
    sp.add_argument("--grid", type=_grid_spec, action="append", default=[],
                    help="axis spec 'AXIS:MIN:MAX:N' (exactly two)")

    sp = sub.add_parser("melnikov", help="Melnikov closed form vs quadrature")
    _add_common_flags(sp)

    sp = sub.add_parser("forced", help="stroboscopic analysis of the forced system")
    _add_common_flags(sp)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--seed", type=_seed_pair, action="append", default=[])
    sp.add_argument("--n", type=int, default=2000,
                    help="number of forcing periods to sample")

    sp = sub.add_parser("repro", help="rerun the reference parameter sets")
    sp.add_argument("--out", default="repro_out")
    sp.add_argument("--n", type=int, default=2000,
                    help="strobe count for the forced runs")
    return ap


# the flags that take no value; every other --flag takes one
_FLAGS_WITHOUT_VALUE = ("--disk", "--help")


def _join_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -V`` as ``--flag=-V`` for every flag that takes a value.

    argparse takes a separate value with a leading '-' for an option, and
    rejects it as the flag's value, unless it reads as a plain negative
    number: ``-5e-05``, ``-inf`` and the seed ``-2,0`` do not.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and out[-1] not in _FLAGS_WITHOUT_VALUE \
                and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_values(argv))
    from .commands import dispatch
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
