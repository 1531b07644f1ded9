"""What the qvdp subcommands run: :mod:`qvdp.cli` parses the arguments and
imports this module only then, to hand them to :func:`dispatch`.

A subcommand loads what it runs: each cmd_* imports the qvdp modules it
uses when it starts.  classify, sweep and melnikov never load numpy, the
integrating modules (integrate, detect, compactify) or :mod:`dataclasses`
and the :mod:`inspect` it imports: the records they read are NamedTuples
(see qvdp.model), and params serialise through ``Params._asdict``.  Every
name is read from its module when the command runs, never cached at
import, so a patched or traced function is the one called; a sweep looks
Params and classify_region up once and hands them to the cell code, which
imports nothing.  classify and sweep report the critical mus and mu_3 the
region label carries, so each is evaluated once.

CSV rows are streamed as they are formed; an --out file appears only once
complete, so a failing run leaves none (see qvdp.output.write_lines).  An
--out path that a file written next to it (portrait's SVG, forced's JSON)
would replace exits 2 before anything runs.  The
one exception is melnikov's exit 3: its JSON, written first, is the
evidence that the closed form and the quadrature disagree.
"""

from __future__ import annotations

import os
import sys

from .errors import IntegrationError, NonFinite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# |mu - mu_3| below this counts as "operating at the homoclinic threshold"
# for reporting purposes (the exact-curve tolerance stays 1e-9)
HOMOCLINIC_PROXIMITY = 1e-3

_TS_PER_PERIOD = 16  # time-series samples per forcing period


def _params_from(args):
    from .model import Params

    # only forced has --alpha/--omega; elsewhere alpha = 0, omega = 1
    return Params(**{k: v for k, v in vars(args).items()
                     if k in ("mu", "beta", "eps", "alpha", "omega")})


# --- classify ----------------------------------------------------------------

def cmd_classify(args) -> int:
    from .bifurcation import classify_region
    from .equilibria import find_equilibria
    from .output import dumps_json, write_lines

    p = _params_from(args)
    eqs = find_equilibria(p)
    doc: dict = {"params": p._asdict()}
    doc["equilibria"] = [
        {"label": e.label.value, "x": e.location.x, "y": e.location.y,
         "eigenvalues": [[ev.real, ev.imag] for ev in e.eigs],
         "kind": e.kind.value}
        for e in eqs
    ]
    region = classify_region(p)
    dist = None if region.mus is None else abs(p.mu - region.mu3)
    doc.update(
        critical_mus=None if region.mus is None else region.mus._asdict(),
        mu3=region.mu3, homoclinic_distance=dist,
        region_label=region.label.value,
        certificates=list(region.certificates),
        homoclinic_proximal=dist is not None and dist <= HOMOCLINIC_PROXIMITY)
    write_lines(args.out, [dumps_json(doc)])
    return EXIT_OK


# --- portrait ----------------------------------------------------------------

def cmd_portrait(args) -> int:
    from .compactify import disk_project
    from .equilibria import EquilibriumKind, find_equilibria
    from .integrate import escape_bound, integrate
    from .model import unforced_rhs
    from .output import PortraitSVG, csv_lines, write_lines

    p = _params_from(args)
    if not args.seed:
        raise ValueError("portrait requires at least one --seed x,y")
    if args.format == "svg":
        if not args.out:
            raise ValueError(
                "--format svg needs --out: the SVG goes next to the CSV")
        svg_path = os.path.splitext(args.out)[0] + ".svg"
        if os.path.realpath(svg_path) == os.path.realpath(args.out):
            raise ValueError(f"--out {args.out} is also the SVG's path: "
                             "give the CSV another extension")
    rhs = unforced_rhs(p)

    kept = []  # (seed id, trajectory on its refined grid)
    for sid, seed in enumerate(args.seed):
        err = None
        try:
            traj = integrate(rhs, seed, (0.0, args.t1),
                             tol=(args.tol * 1e-2, args.tol),
                             escape_radius=escape_bound(p, args.t1))
        except NonFinite as exc:
            traj, err = exc.trajectory, "escaped"
        except IntegrationError as exc:
            traj, err = None, str(exc)
        if traj is None or len(traj.t) < 2:
            print(f"warning: seed {sid} failed: {err}", file=sys.stderr)
            continue
        if err:
            print(f"warning: seed {sid} escaped to infinity at "
                  f"t={traj.t1:.6g} (partial trajectory kept)",
                  file=sys.stderr)
        kept.append((sid, traj.refined()))
    if not kept:
        print("error: all seeds failed to integrate", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = ((sid, float(t), float(x), float(y)) for sid, traj in kept
            for t, (x, y) in zip(traj.t, traj.states))
    write_lines(args.out, csv_lines(("seed_id", "t", "x", "y"), rows))

    if args.format == "svg":
        svg = PortraitSVG(half_width=1.1 if args.disk else 3.0)
        if args.disk:
            svg.circle(0.0, 0.0, 1.0)

        def view(xy):
            return [disk_project(pt) for pt in xy] if args.disk else xy

        for _, traj in kept:
            svg.polyline(view(traj.states[:, :2]))
        for e in find_equilibria(p):
            x, y = disk_project(e.location) if args.disk else e.location
            svg.marker(x, y, stable=e.kind.stable,
                       saddle=e.kind is EquilibriumKind.SADDLE)
        for cyc in _detect_cycles_for_portrait(p, args.seed):
            svg.closed_curve(view(cyc.path))
        write_lines(svg_path, [svg.render()])
    return EXIT_OK


def _detect_cycles_for_portrait(p, seeds) -> list:
    from .detect import find_limit_cycle
    from .model import State

    found = []
    for seed in seeds:
        try:
            cyc = find_limit_cycle(p, State(*seed))
        except IntegrationError:
            continue
        if cyc is not None and all(
                abs(cyc.period - c.period) > 1e-6
                or abs(cyc.representative.x - c.representative.x) > 1e-6
                for c in found):
            found.append(cyc)
    return found


# --- sweep -------------------------------------------------------------------

def _sweep_cell(Params, classify_region, mu: float, beta: float,
                eps: float) -> list:
    try:
        p = Params(mu=mu, beta=beta, eps=eps)
    except ValueError:
        return [beta, mu, eps, "invalid_params"] + ["nan"] * 4
    region = classify_region(p)
    crit = ["nan"] * 4 if region.mus is None else [*region.mus, region.mu3]
    return [beta, mu, eps, region.label.value, *crit]


def _axis(lo: float, hi: float, n: int) -> list:
    """``np.linspace(lo, hi, n)`` for n >= 2 as floats, bit for bit unless
    a nonzero span divides to a zero step (bounds a few subnormals apart)."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def cmd_sweep(args) -> int:
    from .bifurcation import classify_region
    from .model import Params
    from .output import csv_lines, write_lines

    if len(args.grid) != 2:
        raise ValueError("sweep requires exactly two --grid AXIS:MIN:MAX:N specs")
    base = {"mu": args.mu, "beta": args.beta, "eps": args.eps}
    axes = []
    for name, lo, hi, count in args.grid:
        if name not in base:
            raise ValueError(f"unknown sweep axis {name!r} (use mu, beta or eps)")
        axes.append((name, _axis(lo, hi, count)))
    (ax1, vals1), (ax2, vals2) = axes
    # a repeated axis takes its second value, as the later key wins
    rows = (_sweep_cell(Params, classify_region, **{**base, ax1: v1, ax2: v2})
            for v1 in vals1 for v2 in vals2)
    write_lines(args.out, csv_lines(("beta", "mu", "eps", "region",
                                     "mu1", "muc", "mu2", "mu3"), rows))
    return EXIT_OK


# --- melnikov ----------------------------------------------------------------

def cmd_melnikov(args) -> int:
    from . import bifurcation
    from .output import dumps_json, write_lines

    closed = bifurcation.melnikov(args.mu, args.beta, args.eps,
                                  bifurcation.MelnikovMethod.CLOSED_FORM)
    quadr = bifurcation.melnikov(args.mu, args.beta, args.eps,
                                 bifurcation.MelnikovMethod.QUADRATURE)
    # relative to the terms M cancels, not to M, which vanishes at mu3
    rel = abs(closed.value - quadr.value) / max(closed.scale, 1e-300)
    doc = {"closed_form": closed.value, "quadrature": quadr.value,
           "mu3": closed.mu3, "relative_diff": rel}
    write_lines(args.out, [dumps_json(doc)])
    if rel >= 1e-6:
        print(f"error: closed form and quadrature disagree: rel={rel:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --- forced ------------------------------------------------------------------

def cmd_forced(args) -> int:
    import numpy as np

    from . import detect
    from .integrate import stroboscopic
    from .model import State
    from .output import csv_lines, dumps_json, write_lines

    p = _params_from(args)
    if p.alpha == 0:
        raise ValueError("forced analysis requires alpha != 0")
    if len(args.seed) > 1:
        raise ValueError("forced takes at most one --seed")
    seed = args.seed[0] if args.seed else (0.0, 1.2)
    base, ext = os.path.splitext(args.out) if args.out else ("", "")
    json_path = f"{base}.json" if args.out else None
    if args.out and os.path.realpath(json_path) == os.path.realpath(args.out):
        raise ValueError(f"--out {args.out} is also the JSON verdict's path: "
                         "give the CSV another extension")
    T = p.forcing_period
    n = args.n
    series = stroboscopic(p, seed, n, per_period=_TS_PER_PERIOD)
    ts = np.arange(n * _TS_PER_PERIOD + 1) * (T / _TS_PER_PERIOD)

    strobe = series[::_TS_PER_PERIOD]
    strobe_rows = ((k, float(k * T), float(x), float(y))
                   for k, (x, y) in enumerate(strobe))
    write_lines(args.out, csv_lines(("k", "t", "x", "y"), strobe_rows))
    ts_rows = ((float(t), float(x), float(y))
               for t, (x, y) in zip(ts, series))
    ts_path = f"{base}_ts{ext}" if args.out else None
    write_lines(ts_path, csv_lines(("t", "x", "y"), ts_rows))

    report = detect.classify_forced(p, State(*seed), n, samples=strobe)
    doc = {
        "params": p._asdict(),
        "seed": [seed[0], seed[1]],
        "n": n,
        "verdict": report.verdict.value,
        "rotation_number": report.rotation_number,
        "evidence": report.evidence,
    }
    write_lines(json_path, [dumps_json(doc)])
    return EXIT_OK


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
    ("forced_entrained", {"mu": -0.3, "beta": 1.0, "eps": 3.0,
                          "alpha": -0.3, "omega": 1.0}),
    ("forced_quasiperiodic", {"mu": -0.1, "beta": 1.0, "eps": 3.0,
                              "alpha": -0.3, "omega": 1.0}),
]


def cmd_repro(args) -> int:
    from .cli import parse_args
    from .output import dumps_json, write_lines

    if args.n < 1:
        raise ValueError("repro requires --n >= 1")
    outdir = args.out
    if not outdir:
        raise ValueError("cannot write '': the path is empty")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:  # a regular file there or among its parents
        raise ValueError(f"cannot write {outdir}: {exc.strerror}") from exc
    manifest = {"unforced": [], "forced": [], "n_strobe": args.n}
    for name, kw in _UNFORCED_EXAMPLES:
        path = os.path.join(outdir, f"{name}.json")
        argv = ["classify", "--mu", str(kw["mu"]), "--beta", str(kw["beta"]),
                "--eps", str(kw["eps"]), "--out", path]
        rc = dispatch(parse_args(argv))
        manifest["unforced"].append({"name": name, "params": kw,
                                     "file": os.path.basename(path),
                                     "exit_code": rc})
    for name, kw in _FORCED_EXAMPLES:
        path = os.path.join(outdir, f"{name}.csv")
        argv = ["forced", "--mu", str(kw["mu"]), "--beta", str(kw["beta"]),
                "--eps", str(kw["eps"]), "--alpha", str(kw["alpha"]),
                "--omega", str(kw["omega"]), "--seed", "0,1.2",
                "--n", str(args.n), "--out", path]
        rc = dispatch(parse_args(argv))
        manifest["forced"].append({"name": name, "params": kw,
                                   "file": os.path.basename(path),
                                   "exit_code": rc})
    write_lines(os.path.join(outdir, "manifest.json"), [dumps_json(manifest)])
    print(f"wrote {outdir}/", file=sys.stderr)
    return EXIT_OK


def dispatch(args) -> int:
    """Run the subcommand ``cmd_<args.command>``, read when it is called."""
    try:
        return globals()["cmd_" + args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
