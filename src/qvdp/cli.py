"""Command-line interface: classification, portraits, sweeps, Melnikov, forced runs.

Subcommands
-----------
classify   equilibria, critical parameter values and phase-portrait regime (JSON)
portrait   trajectories from seeds as CSV (columns seed_id,t,x,y), optional SVG
sweep      region classification over a parameter grid (CSV)
melnikov   closed-form vs quadrature Melnikov values (JSON)
forced     stroboscopic samples, full time series and attractor verdict
repro      one-command rerun of the six reference unforced parameter sets
           and the two forced ones

Exit codes: 0 success, 2 usage/parameter error, 3 runtime numerical failure.
Outputs are deterministic (17-significant-digit numbers, LF line endings).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bifurcation, detect, equilibria
from .compactify import disk_project
from .integrate import IntegrationError, NonFinite, integrate, stroboscopic
from .model import Params, State, forced_rhs_3d, unforced_rhs
from .output import PortraitSVG, dumps_json, fmt, rows_to_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# |mu - mu_3| below this counts as "operating at the homoclinic threshold"
# for reporting purposes (the exact-curve tolerance stays 1e-9)
HOMOCLINIC_PROXIMITY = 1e-3

_TS_PER_PERIOD = 16  # time-series samples per forcing period


def _params_from(args) -> Params:
    return Params(mu=args.mu, beta=args.beta, eps=args.eps,
                  alpha=args.alpha, omega=args.omega)


def _tol_pair(rel: float) -> tuple[float, float]:
    return (rel * 1e-2, rel)


def _write(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _params_doc(p: Params) -> dict:
    return {"mu": p.mu, "beta": p.beta, "eps": p.eps,
            "alpha": p.alpha, "omega": p.omega}


# --- classify ----------------------------------------------------------------

def cmd_classify(args) -> int:
    p = _params_from(args)
    eqs = equilibria.find_equilibria(p)
    doc: dict = {"params": _params_doc(p)}
    doc["equilibria"] = [
        {"label": e.label.value, "x": e.location.x, "y": e.location.y,
         "eigenvalues": [[ev.real, ev.imag] for ev in e.eigs],
         "kind": e.kind.value}
        for e in eqs
    ]
    if p.beta > 0 and p.eps > 0:
        mus = equilibria.critical_mus(p)
        mu3 = bifurcation.homoclinic_curve(p.beta, p.eps)
        doc["critical_mus"] = {"mu1": mus.mu1, "muc": mus.muc, "mu2": mus.mu2}
        doc["mu3"] = mu3
        doc["homoclinic_distance"] = abs(p.mu - mu3)
        proximal = abs(p.mu - mu3) <= HOMOCLINIC_PROXIMITY
    else:
        doc["critical_mus"] = None
        doc["mu3"] = None
        doc["homoclinic_distance"] = None
        proximal = False
    region = bifurcation.classify_region(p)
    doc["region_label"] = region.label.value
    doc["certificates"] = list(region.certificates)
    doc["homoclinic_proximal"] = proximal
    _write(args.out, dumps_json(doc))
    return EXIT_OK


# --- portrait ----------------------------------------------------------------

# bounded orbits of this family stay within single digits; escapes toward
# the equator nodes are algebraically slow and increasingly stiff in x, so
# the bound is kept small enough to reach quickly
_PORTRAIT_ESCAPE = 10.0


def _integrate_seed(p: Params, seed, t0: float, t1: float, tol):
    rhs = unforced_rhs(p)
    try:
        traj = integrate(rhs, np.array(seed), (t0, t1), tol=tol,
                         escape_radius=_PORTRAIT_ESCAPE)
        return traj, None
    except NonFinite as exc:
        return exc.trajectory, "escaped"
    except IntegrationError as exc:
        return None, str(exc)


def cmd_portrait(args) -> int:
    p = _params_from(args)
    if not args.seed:
        print("portrait requires at least one --seed x,y", file=sys.stderr)
        return EXIT_USAGE
    tol = _tol_pair(args.tol)
    results = [_integrate_seed(p, seed, args.t0, args.t1, tol)
               for seed in args.seed]

    rows = []
    ok_seeds = 0
    for sid, (traj, err) in enumerate(results):
        if traj is None or len(traj.t) < 2:
            print(f"warning: seed {sid} failed: {err or 'no samples'}",
                  file=sys.stderr)
            continue
        if err == "escaped":
            print(f"warning: seed {sid} escaped to infinity at "
                  f"t={traj.t1:.6g} (partial trajectory kept)",
                  file=sys.stderr)
        ok_seeds += 1
        for t, (x, y) in zip(traj.t, traj.states):
            rows.append((sid, float(t), float(x), float(y)))
    if ok_seeds == 0:
        print("error: all seeds failed to integrate", file=sys.stderr)
        return EXIT_NUMERICAL
    _write(args.out, rows_to_csv(("seed_id", "t", "x", "y"), rows))

    if args.format == "svg":
        svg_path = (os.path.splitext(args.out)[0] + ".svg"
                    if args.out else None)
        svg = PortraitSVG(half_width=1.1 if args.disk else 3.0)
        if args.disk:
            svg.circle(0.0, 0.0, 1.0)
        for traj, err in results:
            if traj is None or len(traj.t) < 2:
                continue
            pts = traj.states[:, :2]
            if args.disk:
                pts = np.array([disk_project(State(x, y)) for x, y in pts])
            svg.polyline(pts)
        for e in equilibria.find_equilibria(p):
            x, y = e.location
            if args.disk:
                x, y = disk_project(e.location)
            svg.marker(x, y, stable=e.kind.stable,
                       saddle=e.kind is equilibria.EquilibriumKind.SADDLE)
        for cyc in _detect_cycles_for_portrait(p, args.seed):
            loop = _cycle_path(p, cyc, tol)
            if args.disk:
                loop = np.array([disk_project(State(x, y)) for x, y in loop])
            svg.closed_curve(loop)
        _write(svg_path, svg.render())
    return EXIT_OK


def _detect_cycles_for_portrait(p: Params, seeds) -> list:
    found = []
    for seed in seeds:
        try:
            cyc = detect.find_limit_cycle(p, State(*seed))
        except IntegrationError:
            continue
        if cyc is None:
            continue
        if all(abs(cyc.period - c.period) > 1e-6
               or abs(cyc.representative.x - c.representative.x) > 1e-6
               for c in found):
            found.append(cyc)
    return found


def _cycle_path(p: Params, cyc, tol) -> np.ndarray:
    rhs = unforced_rhs(p)
    traj = integrate(rhs, np.array(cyc.representative), (0.0, cyc.period),
                     tol=tol, t_eval=np.linspace(0.0, cyc.period, 600))
    return traj.states


# --- sweep -------------------------------------------------------------------

def _sweep_cell(mu: float, beta: float, eps: float):
    try:
        p = Params(mu=mu, beta=beta, eps=eps)
    except ValueError:
        return (beta, mu, eps, "invalid_params",
                math.nan, math.nan, math.nan, math.nan)
    region = bifurcation.classify_region(p).label.value
    if beta > 0 and eps > 0:
        mus = equilibria.critical_mus(p)
        mu3 = bifurcation.homoclinic_curve(beta, eps)
        return (beta, mu, eps, region, mus.mu1, mus.muc, mus.mu2, mu3)
    return (beta, mu, eps, region, math.nan, math.nan, math.nan, math.nan)


def cmd_sweep(args) -> int:
    if len(args.grid) != 2:
        print("sweep requires exactly two --grid AXIS:MIN:MAX:N specs",
              file=sys.stderr)
        return EXIT_USAGE
    base = {"mu": args.mu, "beta": args.beta, "eps": args.eps}
    axes = []
    for name, lo, hi, count in args.grid:
        if name not in base:
            print(f"unknown sweep axis {name!r} (use mu, beta or eps)",
                  file=sys.stderr)
            return EXIT_USAGE
        axes.append((name, np.linspace(lo, hi, count)))
    (ax1, vals1), (ax2, vals2) = axes
    cells = []
    for v1 in vals1:
        for v2 in vals2:
            point = dict(base)
            point[ax1] = float(v1)
            point[ax2] = float(v2)
            cells.append((point["mu"], point["beta"], point["eps"]))
    rows = [_sweep_cell(*c) for c in cells]

    def cell_text(row):
        out = [fmt(row[0]), fmt(row[1]), fmt(row[2]), row[3]]
        out += ["nan" if isinstance(v, float) and math.isnan(v) else fmt(v)
                for v in row[4:]]
        return out

    text = rows_to_csv(("beta", "mu", "eps", "region",
                        "mu1", "muc", "mu2", "mu3"),
                       [cell_text(r) for r in rows])
    _write(args.out, text)
    return EXIT_OK


# --- melnikov ----------------------------------------------------------------

def cmd_melnikov(args) -> int:
    closed = bifurcation.melnikov(args.mu, args.beta, args.eps, args.eps1,
                                  bifurcation.MelnikovMethod.CLOSED_FORM)
    quadr = bifurcation.melnikov(args.mu, args.beta, args.eps, args.eps1,
                                 bifurcation.MelnikovMethod.QUADRATURE)
    scale = max(abs(closed.value), abs(quadr.value), 1e-300)
    rel = abs(closed.value - quadr.value) / scale
    doc = {"closed_form": closed.value, "quadrature": quadr.value,
           "mu3": closed.mu3, "relative_diff": rel}
    _write(args.out, dumps_json(doc))
    if rel >= 1e-6 and scale > 1e-12:
        print(f"error: closed form and quadrature disagree: rel={rel:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --- forced ------------------------------------------------------------------

def cmd_forced(args) -> int:
    p = _params_from(args)
    if p.alpha == 0:
        print("forced analysis requires alpha != 0", file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed[0] if args.seed else (0.0, 1.2)
    tol = _tol_pair(min(args.tol, 1e-10))
    T = p.forcing_period
    n = args.n
    t_eval = np.arange(n * _TS_PER_PERIOD + 1) * (T / _TS_PER_PERIOD)
    try:
        traj = integrate(forced_rhs_3d(p), np.array([seed[0], seed[1], 0.0]),
                         (0.0, n * T), tol=tol, method="DOP853", dense=False,
                         t_eval=t_eval, escape_components=slice(0, 2))
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    series = traj.states[:, :2]
    strobe = series[::_TS_PER_PERIOD]
    base, ext = os.path.splitext(args.out) if args.out else ("", "")
    strobe_rows = [(k, float(k * T), float(x), float(y))
                   for k, (x, y) in enumerate(strobe)]
    _write(args.out, rows_to_csv(("k", "t", "x", "y"), strobe_rows))
    ts_rows = [(float(t), float(x), float(y))
               for t, (x, y) in zip(traj.t, series)]
    ts_path = f"{base}_ts{ext}" if args.out else None
    _write(ts_path, rows_to_csv(("t", "x", "y"), ts_rows))

    report = detect.classify_forced(p, State(*seed), n, samples=strobe)
    doc = {
        "params": _params_doc(p),
        "seed": [seed[0], seed[1]],
        "n": n,
        "verdict": report.verdict.value,
        "rotation_number": report.rotation_number,
        "evidence": _jsonable(report.evidence),
    }
    json_path = f"{base}.json" if args.out else None
    _write(json_path, dumps_json(doc))
    return EXIT_OK


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# --- repro -------------------------------------------------------------------

_UNFORCED_EXAMPLES = [
    ("single_cycle_degenerate_focus", {"eps": 2.0, "beta": 0.0, "mu": 0.0}),
    ("single_cycle_unstable_node", {"eps": 2.0, "beta": 0.0, "mu": 1.0}),
    ("pre_hopf_stable_foci", {"eps": 2.0, "beta": 1.0, "mu": -0.25}),
    ("two_small_cycles", {"eps": 2.0, "beta": 1.0, "mu": -0.2}),
    ("homoclinic_proximal", {"eps": 2.0, "beta": 1.0, "mu": -0.171}),
    ("large_cycle", {"eps": 2.0, "beta": 1.0, "mu": -0.1}),
]
_FORCED_EXAMPLES = [
    ("forced_irregular", {"mu": -0.3, "beta": 1.0, "eps": 3.0,
                          "alpha": -0.3, "omega": 1.0}),
    ("forced_quasiperiodic", {"mu": -0.1, "beta": 1.0, "eps": 3.0,
                              "alpha": -0.3, "omega": 1.0}),
]


def cmd_repro(args) -> int:
    outdir = args.out or "repro_out"
    os.makedirs(outdir, exist_ok=True)
    manifest = {"unforced": [], "forced": [], "n_strobe": args.n}
    parser = build_parser()
    for name, kw in _UNFORCED_EXAMPLES:
        path = os.path.join(outdir, f"{name}.json")
        argv = ["classify", "--mu", str(kw["mu"]), "--beta", str(kw["beta"]),
                "--eps", str(kw["eps"]), "--out", path]
        rc = dispatch(parser.parse_args(argv))
        manifest["unforced"].append({"name": name, "params": kw,
                                     "file": os.path.basename(path),
                                     "exit_code": rc})
    for name, kw in _FORCED_EXAMPLES:
        path = os.path.join(outdir, f"{name}.csv")
        argv = ["forced", "--mu", str(kw["mu"]), "--beta", str(kw["beta"]),
                "--eps", str(kw["eps"]), "--alpha", str(kw["alpha"]),
                "--omega", str(kw["omega"]), "--seed", "0,1.2",
                "--n", str(args.n), "--out", path]
        rc = dispatch(parser.parse_args(argv))
        manifest["forced"].append({"name": name, "params": kw,
                                   "file": os.path.basename(path),
                                   "exit_code": rc})
    _write(os.path.join(outdir, "manifest.json"), dumps_json(manifest))
    print(f"wrote {outdir}/", file=sys.stderr)
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------

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
        count = int(count)
        if count < 2:
            raise ValueError
        return (name, float(lo), float(hi), count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be 'AXIS:MIN:MAX:N' with N >= 2, got {text!r}") from exc


def _add_param_flags(sp) -> None:
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--omega", type=float, default=1.0)


def _add_io_flags(sp, default_format: str) -> None:
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json", "svg"),
                    default=default_format)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qvdp",
        description="bifurcations, limit cycles and quasi-periodic orbits "
                    "of the quintic van der Pol-Duffing oscillator")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="equilibria and regime (JSON)")
    _add_param_flags(sp)
    _add_io_flags(sp, "json")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("portrait", help="trajectories from seeds (CSV/SVG)")
    _add_param_flags(sp)
    _add_io_flags(sp, "csv")
    sp.add_argument("--seed", type=_seed_pair, action="append", default=[],
                    help="initial state 'x,y' (repeatable)")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, default=60.0)
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="relative tolerance (absolute = rel/100)")
    sp.add_argument("--disk", action="store_true",
                    help="render the SVG on the Poincare disk")
    sp.set_defaults(func=cmd_portrait)

    sp = sub.add_parser("sweep", help="region classification over a grid (CSV)")
    _add_param_flags(sp)
    _add_io_flags(sp, "csv")
    sp.add_argument("--grid", type=_grid_spec, action="append", default=[],
                    help="axis spec 'AXIS:MIN:MAX:N' (exactly two)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("melnikov", help="Melnikov closed form vs quadrature")
    _add_param_flags(sp)
    _add_io_flags(sp, "json")
    sp.add_argument("--eps1", type=float, default=1.0,
                    help="perturbation scale in the rescaled system")
    sp.set_defaults(func=cmd_melnikov)

    sp = sub.add_parser("forced", help="stroboscopic analysis of the forced system")
    _add_param_flags(sp)
    _add_io_flags(sp, "csv")
    sp.add_argument("--seed", type=_seed_pair, action="append", default=[])
    sp.add_argument("--n", type=int, default=2000,
                    help="number of forcing periods to sample")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_forced)

    sp = sub.add_parser("repro", help="rerun the reference parameter sets")
    sp.add_argument("--out", default="repro_out")
    sp.add_argument("--n", type=int, default=2000,
                    help="strobe count for the forced runs")
    sp.set_defaults(func=cmd_repro)
    return ap


def dispatch(args) -> int:
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _join_seed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--seed X,Y`` as ``--seed=X,Y``.

    argparse takes a separate value with a leading '-' (a negative x such
    as ``-2,0``) for an option and rejects it as the value of ``--seed``.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--seed" and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] = f"--seed={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_seed_values(argv))
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
