"""Case runners (the timed calls into qvdp) and the untimed verification.

Every runner calls the package through module attributes
(``detect.find_limit_cycle``, ``cli.main``, ...) so that the tracer's
rebinding sees each call.  A runner returns a plain-dict outcome; the
verification step afterwards adds the evidence the checks in
:mod:`checks` compare against the paper: re-integrated cycle closure,
bounded orbits, parsed CLI artifacts, reruns for byte identity.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import os

import numpy as np

from qvdp import bifurcation, cli, compactify, detect, equilibria, model
from qvdp.model import Params, State

# the package re-exports the function ``integrate`` under the module's name
integrate = importlib.import_module("qvdp.integrate")

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(
    cli.__file__)), "schemas", "cli.schema.json")
BOUNDED_T = 100.0          # horizon of the bounded-attractor probe
BOUNDED_ESCAPE = 1e3


def _params(a: dict) -> Params:
    return Params(mu=a["mu"], beta=a["beta"], eps=a["eps"],
                  alpha=a.get("alpha", 0.0), omega=a.get("omega", 1.0))


def _num(x: float) -> str:
    return repr(float(x))


def _param_flags(a: dict) -> list[str]:
    out = []
    for key in ("mu", "beta", "eps", "alpha", "omega"):
        if key in a:
            out += [f"--{key}", _num(a[key])]
    return out


class Runner:
    """Executes cases of one run; CLI artifacts go to ``workdir``."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, case_id: str, name: str) -> str:
        return os.path.join(self.workdir,
                            f"{case_id.replace(':', '_')}_{name}")

    def run(self, case, case_id: str) -> dict:
        return getattr(self, "_" + case.kind)(case.args, case_id)

    # --- forced ------------------------------------------------------------

    def _forced(self, a, case_id):
        p = _params(a)
        samples = integrate.stroboscopic(p, a["seed"], a["n"])
        report = detect.classify_forced(p, State(*a["seed"]), a["n"],
                                        samples=samples)
        return {"verdict": report.verdict.value,
                "rotation_number": report.rotation_number,
                "samples": samples, "units": a["n"]}

    def _forced_cli(self, a, case_id):
        out = self.path(case_id, "forced.csv")
        argv = ["forced", *_param_flags(a),
                "--seed", f"{_num(a['seed'][0])},{_num(a['seed'][1])}",
                "--n", str(a["n"]), "--out", out]
        return {"rc": cli.main(argv), "out": out, "units": a["n"]}

    # --- limit cycles ------------------------------------------------------

    def _search(self, a, case_id):
        cyc = detect.find_limit_cycle(_params(a), State(*a["seed"]))
        if cyc is None:
            return {"found": False}
        return {"found": True, "x": cyc.representative.x,
                "period": cyc.period, "floquet": cyc.floquet,
                "stable": cyc.stable,
                "encloses": sorted(e.value for e in cyc.encloses)}

    def _split(self, a, case_id):
        beta, eps = a["beta"], a["eps"]
        mu3 = bifurcation.homoclinic_curve(beta, eps)

        def gap(mu):
            return detect.separatrix_split(
                Params(mu=mu, beta=beta, eps=eps)).distance

        lo, hi = mu3 - a["delta"], mu3 + a["delta"]
        d_lo, d_hi = gap(lo), gap(hi)
        below, above = d_lo, d_hi
        for _ in range(a["steps"]):
            mid = 0.5 * (lo + hi)
            d_mid = gap(mid)
            if d_mid * d_lo > 0:
                lo, d_lo = mid, d_mid
            else:
                hi = mid
        return {"mu3": mu3, "d_below": below, "d_above": above,
                "root": 0.5 * (lo + hi)}

    def _portrait_cli(self, a, case_id):
        out = self.path(case_id, "portrait.csv")
        argv = ["portrait", *_param_flags(a), "--t1", _num(a["t1"]),
                "--format", "svg", "--out", out]
        for x, y in a["seeds"]:
            argv.append(f"--seed={_num(x)},{_num(y)}")
        return {"rc": cli.main(argv), "out": out}

    # --- atlas -------------------------------------------------------------

    def _sweep_cli(self, a, case_id):
        out = self.path(case_id, "sweep.csv")
        argv = self.sweep_argv(a, out)
        return {"rc": cli.main(argv), "out": out, "units": a["n"] ** 2}

    @staticmethod
    def sweep_argv(a, out):
        def grid(axis):
            lo, hi = a[axis]
            return f"{axis}:{_num(lo)}:{_num(hi)}:{a['n']}"

        return ["sweep", "--eps", _num(a["eps"]), "--grid", grid("beta"),
                "--grid", grid("mu"), "--out", out]

    def _classify_cli(self, a, case_id):
        out = self.path(case_id, "classify.json")
        return {"rc": cli.main(["classify", *_param_flags(a), "--out", out]),
                "out": out}

    def _melnikov_cli(self, a, case_id):
        out = self.path(case_id, "melnikov.json")
        return {"rc": cli.main(["melnikov", *_param_flags(a), "--out", out]),
                "out": out}

    def _hopf(self, a, case_id):
        beta, eps = a["beta"], a["eps"]
        h = bifurcation.hopf_normal_form(
            Params(mu=bifurcation.hopf_curve(beta, eps), beta=beta, eps=eps))
        return {"c1_real": float(h.c1.real), "beta": beta}

    def _infinity(self, a, case_id):
        eqs = compactify.infinity_equilibria(_params(a))
        return {"kinds": {e.label.value: e.kind.value for e in eqs}}

    def _probe(self, a, case_id):
        rep = compactify.probe_infinity_kind(
            _params(a), compactify.InfinityLabel(a["label"]))
        return {"inferred": rep.inferred_kind.value,
                "alternations": rep.sector_alternations}


# --- verification (untimed) --------------------------------------------------

def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _schema_errors(path: str, kind: str) -> list[str]:
    import jsonschema

    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(
        {"$defs": schema["$defs"], "$ref": f"#/$defs/{kind}"})
    with open(path) as fh:
        doc = json.load(fh)
    return [e.message for e in validator.iter_errors(doc)]


def _closure(a: dict, out: dict) -> float:
    """Distance between a cycle's start and its state one period later."""
    rhs = model.unforced_rhs(_params(a))
    traj = integrate.integrate(rhs, np.array([out["x"], 0.0]),
                               (0.0, out["period"]), tol=(1e-12, 1e-10))
    return float(math.hypot(traj.final[0] - out["x"], traj.final[1]))


def _bounded_orbit(a: dict) -> dict:
    """Does the seed's orbit stay bounded and away from every equilibrium?"""
    p = _params(a)
    rhs = model.unforced_rhs(p)
    try:
        traj = integrate.integrate(rhs, np.array(a["seed"], dtype=float),
                                   (0.0, BOUNDED_T), tol=(1e-10, 1e-8),
                                   escape_radius=BOUNDED_ESCAPE)
    except integrate.NonFinite:
        return {"bounded": False, "max_abs": math.inf, "eq_distance": 0.0}
    tail = traj.states[traj.t > 0.5 * BOUNDED_T]
    eq_distance = min(
        float(np.min(np.hypot(tail[:, 0] - e.location.x,
                              tail[:, 1] - e.location.y)))
        for e in equilibria.find_equilibria(p))
    return {"bounded": True, "max_abs": float(np.max(np.abs(tail))),
            "eq_distance": eq_distance}


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def verify(outcomes: list[dict], runner: Runner) -> None:
    """Add the evidence the checks need to each outcome, in place."""
    by_label = {(o["pass"], o["label"]): o for o in outcomes}
    rerun_done = set()
    for o in outcomes:
        kind, a = o["kind"], o["args"]
        if kind == "search":
            if o.get("found"):
                o["closure"] = _closure(a, o)
            if o["expect"] == "bounded":
                o.update(_bounded_orbit(a))
            p = _params(a)
            cert = bifurcation.nonexistence_certificate(p)
            o["certificate"] = cert.kind.value if cert else None
            o["region"] = bifurcation.classify_region(p).label.value
            continue
        if o.get("error") or o.get("rc", 0) != 0:
            continue
        if kind == "forced_cli":
            _, rows = _read_csv(o["out"])
            ref = by_label[(o["pass"], "paper_entrained")].get("samples")
            cli_xy = np.array([[float(r[2]), float(r[3])] for r in rows])
            o["strobe_rows"] = len(rows)
            o["strobe_max_diff"] = (float(np.max(np.abs(cli_xy - ref)))
                                    if ref is not None
                                    and ref.shape == cli_xy.shape
                                    else math.inf)
            base = os.path.splitext(o["out"])[0]
            o["schema_errors"] = _schema_errors(base + ".json", "forced")
            with open(base + ".json") as fh:
                o["verdict"] = json.load(fh)["verdict"]
        elif kind == "portrait_cli":
            header, rows = _read_csv(o["out"])
            o["csv_header"] = header
            o["csv_rows"] = len(rows)
            with open(os.path.splitext(o["out"])[0] + ".svg") as fh:
                o["svg_cycles"] = fh.read().count("<polygon")
        elif kind == "sweep_cli":
            header, rows = _read_csv(o["out"])
            o["csv_header"] = header
            o["rows"] = [(float(r[0]), float(r[1]), float(r[2]), r[3])
                         for r in rows]
            o["sha256"] = _sha(o["out"])
        elif kind in ("classify_cli", "melnikov_cli"):
            schema = kind.split("_")[0]
            o["schema_errors"] = _schema_errors(o["out"], schema)
            with open(o["out"]) as fh:
                o["doc"] = json.load(fh)
            o["sha256"] = _sha(o["out"])
        # byte identity: rerun the first CLI call of each kind once
        if kind in ("sweep_cli", "classify_cli", "melnikov_cli") \
                and kind not in rerun_done:
            rerun_done.add(kind)
            again = runner.path(o["case_id"], "rerun")
            if kind == "sweep_cli":
                argv = Runner.sweep_argv(a, again)
            else:
                argv = [kind.split("_")[0], *_param_flags(a), "--out", again]
            cli.main(argv)
            o["rerun_sha256"] = _sha(again)
