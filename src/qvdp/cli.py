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

This module only parses, from the one table :data:`COMMANDS`:
``import qvdp.cli`` loads no module beyond ``qvdp``, so ``qvdp --help`` and
a usage error load nothing more.  main then imports :mod:`qvdp.commands`,
whose dispatch runs the subcommand.

Every flag but ``--disk`` takes the next argument as its value, verbatim,
or the text after its own ``=``: ``--mu -5e-05`` and ``--seed -2,0`` are
``--mu=-5e-05`` and ``--seed=-2,0``.  A flag is spelled out in full: a
prefix of one is an unknown flag.

Exit codes: 0 success, 2 usage/parameter error, 3 runtime numerical failure.
Outputs are deterministic (17-significant-digit numbers, LF line endings).
"""

import math
import sys
from types import SimpleNamespace


def _seed_pair(text: str):
    try:
        x, y = text.split(",")
        return (float(x), float(y))
    except ValueError as exc:
        raise ValueError(f"seed must be 'x,y', got {text!r}") from exc


def _grid_spec(text: str):
    try:
        name, lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if count < 2 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
        return (name, lo, hi, count)
    except ValueError as exc:
        raise ValueError(
            f"grid must be 'AXIS:MIN:MAX:N' with N >= 2, got {text!r}") from exc


def _portrait_format(text: str) -> str:
    if text not in ("csv", "svg"):
        raise ValueError(f"format must be 'csv' or 'svg', got {text!r}")
    return text


_PARAMS = {
    "--out": (str, None, "output path (default stdout)"),
    "--mu": (float, 0.0, "mu, the damping at x = 0"),
    "--beta": (float, 0.0, "beta >= 0, the coefficient of x"),
    "--eps": (float, 1.0, "eps, the coefficient of -x^3"),
}

# subcommand -> (help, {flag: (type, default, help)}); a list default makes
# the flag repeatable, each value appended, and type None a flag that takes
# no value
COMMANDS = {
    "classify": ("equilibria and regime (JSON)", _PARAMS),
    "portrait": ("trajectories from seeds (CSV/SVG)", {
        **_PARAMS,
        "--format": (_portrait_format, "csv",
                     "csv, or svg to also write the portrait next to the "
                     "--out CSV"),
        "--seed": (_seed_pair, [], "initial state 'x,y' (repeatable)"),
        "--t1": (float, 60.0, "end time; runs start at t = 0"),
        "--tol": (float, 1e-10, "relative tolerance (absolute = rel/100)"),
        "--disk": (None, False, "render the SVG on the Poincare disk"),
    }),
    "sweep": ("region classification over a grid (CSV)", {
        **_PARAMS,
        "--grid": (_grid_spec, [], "axis spec 'AXIS:MIN:MAX:N' (exactly two)"),
    }),
    "melnikov": ("Melnikov closed form vs quadrature", _PARAMS),
    "forced": ("stroboscopic analysis of the forced system", {
        **_PARAMS,
        "--alpha": (float, 0.0, "forcing amplitude, must be nonzero"),
        "--omega": (float, 1.0, "forcing frequency"),
        "--seed": (_seed_pair, [], "initial state 'x,y' (default 0,1.2)"),
        "--n": (int, 2000, "number of forcing periods to sample"),
    }),
    "repro": ("rerun the reference parameter sets", {
        "--out": (str, "repro_out", "output directory"),
        "--n": (int, 2000, "strobe count for the forced runs"),
    }),
}


def _spelled(flag: str, kind) -> str:
    return flag if kind is None else f"{flag} {flag[2:].upper()}"


def _usage(command) -> str:
    if command is None:
        return f"usage: qvdp [-h] {{{','.join(COMMANDS)}}} ..."
    flags = " ".join(f"[{_spelled(flag, kind)}]"
                     for flag, (kind, _, _) in COMMANDS[command][1].items())
    return f"usage: qvdp {command} [-h] {flags}"


def _help(command) -> str:
    if command is None:
        lines = ["bifurcations, limit cycles and quasi-periodic orbits of the "
                 "quintic van der Pol-Duffing oscillator",
                 "x' = y, y' = (mu + x^2 - x^4) y + beta x - eps x^3 "
                 "- alpha x cos(omega t)", "", "commands:"]
        lines += [f"  {name:<10}  {text}"
                  for name, (text, _) in COMMANDS.items()]
        lines += ["", "'qvdp <command> --help' lists the flags of a command"]
    else:
        text, flags = COMMANDS[command]
        rows = []
        for flag, (kind, default, what) in flags.items():
            if kind is not None and default not in (None, []):
                what += f" (default {default})"
            rows.append((_spelled(flag, kind), what))
        rows.append(("-h, --help", "show this help and exit"))
        width = max(len(name) for name, _ in rows)
        lines = [text, "", "flags:"]
        lines += [f"  {name:<{width}}  {what}" for name, what in rows]
    return "\n".join([_usage(command), "", *lines])


def _fail(command, message: str):
    prog = "qvdp" if command is None else f"qvdp {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv) -> SimpleNamespace:
    """The namespace of a ``qvdp`` argv: ``command`` and one attribute per
    flag of that command, named without its dashes.  ``-h``/``--help``
    prints the help and exits 0; a usage error prints the usage and one
    ``error:`` line to stderr and exits 2."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        print(_help(None))
        sys.exit(0)
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(COMMANDS)})")
    flags = COMMANDS[command][1]
    values = {flag[2:]: list(default) if isinstance(default, list) else default
              for flag, (_, default, _) in flags.items()}
    args = iter(rest)
    for arg in args:
        if arg in ("-h", "--help"):
            print(_help(command))
            sys.exit(0)
        flag, joined, text = arg.partition("=")
        if flag not in flags:
            _fail(command, f"unrecognized argument: {arg}")
        kind, default, _ = flags[flag]
        if kind is None:
            if joined:
                _fail(command, f"argument {flag}: takes no value, got {arg!r}")
            values[flag[2:]] = True
            continue
        if not joined:
            text = next(args, None)
            if text is None:
                _fail(command, f"argument {flag}: expected one argument")
        try:
            value = kind(text)
        except ValueError as exc:
            _fail(command, f"argument {flag}: {exc}")
        if isinstance(default, list):
            values[flag[2:]].append(value)
        else:
            values[flag[2:]] = value
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    from .commands import dispatch
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
