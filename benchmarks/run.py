"""qvdp benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload forced --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``src/qvdp``), prints
every metric by name with its unit, checks the outputs against the paper,
writes ``benchmarks/out/<workload>_seed<seed>_trace<t>.json`` and prints
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run.  Exit code 0 when every
check passed, 1 when one failed, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 5          # fresh-interpreter imports per run for setup_s
IMPORTTIME_SAMPLES = 3

END_TO_END = {             # name -> unit; BENCHMARK.json lists the same
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not bounded: on the reference host the speed of
# the machine drifts by +-20 % over minutes, so across ten seeds these
# spread by 0.09 to 0.59 of their median, beyond the widest bound allowed.
REPORTED_ONLY = {"wall_s": "s", "work_per_s": "1/s", "case_s_p50": "s",
                 "case_s_tail": "s"}
PER_LAYER = {
    "model.rhs_calls": "count", "model.rhs_us": "us",
    "integrate.calls": "count", "integrate.busy_s": "s",
    "integrate.steps": "count", "integrate.nfev": "count",
    "integrate.rejected_est": "count", "integrate.us_per_step": "us",
    "integrate.stroboscopic_s": "s", "integrate.crossings_s": "s",
    "integrate.crossings_calls": "count",
    "detect.find_limit_cycle_s": "s", "detect.searches": "count",
    "detect.found_ratio": "ratio",
    "detect.integrate_calls_per_search": "count",
    "detect.useful_time_ratio": "ratio",
    "detect.separatrix_split_s": "s",
    "detect.classify_forced_on_samples_s": "s",
    "bifurcation.classify_region_us": "us",
    "bifurcation.hopf_normal_form_s": "s",
    "bifurcation.melnikov_quadrature_s": "s",
    "equilibria.find_equilibria_us": "us",
    "equilibria.critical_mus_us": "us",
    "compactify.infinity_equilibria_us": "us",
    "compactify.probe_infinity_kind_s": "s",
    "output.rows_to_csv_s": "s", "output.rows": "count",
    "output.bytes": "bytes", "output.dumps_json_s": "s",
    "output.svg_render_s": "s",
    "cli.classify_s": "s", "cli.sweep_s": "s", "cli.melnikov_s": "s",
    "cli.portrait_s": "s", "cli.forced_s": "s", "cli.overhead_s": "s",
    "setup.import_qvdp_s": "s", "setup.import_scipy_integrate_s": "s",
    "trace.overhead_s": "s",
}
# the workload's own name for work_per_s, a rate per second of the passes
WORK_NAME = {"forced": "periods_per_s", "cycle_hunt": "cycles_per_s",
             "cycle_exclusion": "searches_per_s", "atlas": "cells_per_s"}
# the blocking-path sum may differ from the untraced wall time by the
# measured tracing overhead plus this share of run-to-run noise
BLOCKING_NOISE = 0.03


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- set-up and environment --------------------------------------------------

def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def time_setup(samples: int) -> list[float]:
    """``import qvdp.cli`` timed inside fresh interpreters.

    One untimed import first fills the bytecode and file caches, which a
    user running the CLI repeatedly has warm.
    """
    code = ("import time; t = time.perf_counter(); import qvdp.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                 env=_child_env(), capture_output=True,
                                 text=True, check=True, timeout=120).stdout)
            for _ in range(samples + 1)][1:]


def import_times(samples: int) -> dict:
    """Cumulative ``-X importtime`` figures of qvdp and scipy.integrate."""
    qvdp_s, scipy_s = [], []
    for _ in range(samples):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qvdp.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            check=True, timeout=120).stderr
        top, integ = 0.0, None
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue        # the header line
            us = int(cumulative)
            stripped = name.strip()
            if name.startswith(" qvdp") and stripped.split(".")[0] == "qvdp":
                top += us       # top-level entries only: no indentation
            if stripped == "scipy.integrate" and integ is None:
                integ = us
        qvdp_s.append(top * 1e-6)
        scipy_s.append((integ or 0) * 1e-6)
    return {"setup.import_qvdp_s": statistics.median(qvdp_s),
            "setup.import_scipy_integrate_s": statistics.median(scipy_s)}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "nproc_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "seed": seed, "git_commit": commit}


# --- timed execution ---------------------------------------------------------

def warm_up(runner) -> None:
    """First calls of every path, so lazy imports and caches are not timed."""
    import numpy as np
    from execute import integrate
    from qvdp import cli, detect, model
    from qvdp.model import Params, State

    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    traj = integrate.integrate(model.unforced_rhs(p), [2.0, 0.0], (0.0, 7.0))
    integrate.detect_crossings(traj, lambda s: s[1])
    pf = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    integrate.stroboscopic(pf, (0.0, 1.2), 2)
    turns = 2.0 * np.pi * 0.3819660112501051 * np.arange(301)
    ring = np.column_stack([np.cos(turns), np.sin(turns)])
    detect.classify_forced(pf, State(0.0, 1.2), 300, samples=ring)
    cli.main(["classify", "--beta", "1", "--eps", "2", "--mu", "-0.1",
              "--out", runner.path("warmup", "classify.json")])


def run_pass(cases, k: int, runner, tracer=None):
    outcomes = []
    start = perf_counter()
    for i, case in enumerate(cases):
        case_id = f"{k}:{i}"
        t0 = perf_counter()
        error = None
        try:
            if tracer is None:
                out = runner.run(case, case_id)
            else:
                out = tracer.case_span(case_id, f"case.{case.kind}",
                                       runner.run, case, case_id)
        except Exception as exc:        # a failed case is a counted result
            out, error = {}, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        out.update(kind=case.kind, label=case.label, args=case.args,
                   expect=case.expect, case_id=case_id, time_s=elapsed,
                   error=error, traced=tracer is not None, **{"pass": k})
        outcomes.append(out)
    return outcomes, perf_counter() - start


def is_failure(o: dict) -> bool:
    """A raised exception, a non-zero CLI exit, or a missed cycle."""
    if o["error"] or o.get("rc", 0) != 0:
        return True
    missed = o["kind"] == "search" and not o.get("found") and (
        isinstance(o["expect"], tuple) or o["expect"] == "bounded")
    return missed


def work_units(workload: str, o: dict) -> int:
    if is_failure(o):
        return 0
    if workload == "cycle_hunt":
        return int(o["kind"] == "search" and o.get("found", False))
    if workload == "cycle_exclusion":
        return int(o["kind"] == "search" and not o.get("found", False))
    return o.get("units", 0)


def tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not exceed the median, so the
    maximum is reported instead, with zero samples beyond it.
    """
    ts = sorted(times)
    n = len(ts)
    k = n - 11
    while k >= 0 and sum(1 for t in ts if t > ts[k]) < 10:
        k -= 1
    if n < 21 or k < 0:
        return {"value": ts[-1], "percentile": 100.0, "beyond": 0, "n": n}
    return {"value": ts[k], "percentile": 100.0 * (k + 1) / n,
            "beyond": sum(1 for t in ts if t > ts[k]), "n": n}


# --- reporting ---------------------------------------------------------------

def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _print_table(rows) -> None:
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<38} {text:>14} {unit:<6} {note}")


def _jsonable(o):
    if isinstance(o, dict):
        return {str(k): _jsonable(v) for k, v in o.items()
                if k not in ("samples", "rows", "doc")}
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if isinstance(o, float) and o != o:
        return None
    return o


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qvdp", "__init__.py")):
        print(f"error: no qvdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, SRC]
    import cases as case_gen
    import execute

    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        codes = [subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
            for w in case_gen.WORKLOADS]
        return max(codes)
    if args.workload not in case_gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(case_gen.WORKLOADS)} or all", file=sys.stderr)
        return 2

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(OUT_DIR, "work", f"{tag}_{os.getpid()}")
    runner = execute.Runner(workdir)
    try:
        return _run(args, tag, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, tag, runner) -> int:
    import cases as case_gen
    import checks
    import execute
    import tracing

    env = environment(args.seed)
    n_passes = case_gen.passes_for(args.workload, args.seconds)
    plan = case_gen.generate(args.workload, args.seed, n_passes)

    if args.trace:
        setup = import_times(IMPORTTIME_SAMPLES)
    else:
        setup_samples = time_setup(SETUP_SAMPLES)

    warm_up(runner)
    outcomes, walls, traced_walls = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    if args.trace:
        # each traced pass repeats the untraced pass before it, same inputs
        for k in range(max(1, n_passes // 2)):
            out, wall = run_pass(plan[k], k, runner)
            outcomes += out
            walls.append(wall)
            tracer.install()
            try:
                out, wall = run_pass(plan[k], k, runner, tracer)
            finally:
                tracer.uninstall()
            outcomes += out
            traced_walls.append(wall)
    else:
        for k, cases in enumerate(plan):
            out, wall = run_pass(cases, k, runner)
            outcomes += out
            walls.append(wall)

    # before verification, whose parsed artifacts are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    execute.verify(outcomes, runner)
    errors = checks.CHECKS[args.workload](outcomes)

    timed = [o for o in outcomes if not o["traced"]]
    attempted = len(timed)
    failed = sum(1 for o in timed if is_failure(o))
    alias = WORK_NAME[args.workload]
    work = sum(work_units(args.workload, o) for o in timed)
    case_tail = tail([o["time_s"] for o in timed])

    print(f"qvdp benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(walls)} pass(es) of {len(plan[0])} cases, "
          f"trace {args.trace}")
    report = {"env": env, "args": vars(args), "passes": len(walls),
              "pass_wall_s": walls}
    if not args.trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "case_s_p50": statistics.median(o["time_s"] for o in timed),
            "case_s_tail": case_tail["value"],
            "work_per_s": work / sum(walls),
            "success_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "wall_s": f"median pass wall time over {len(walls)} pass(es)",
            "case_s_p50": f"median of {attempted} cases",
            "case_s_tail": (f"p{case_tail['percentile']:.4g}, "
                            f"{case_tail['beyond']} of {case_tail['n']} "
                            "cases beyond it"),
            "work_per_s": f"{work} units in {sum(walls):.4g} s of passes",
            "success_ratio": f"{attempted - failed} of {attempted} cases "
                             "succeeded",
            "setup_s": f"median of {SETUP_SAMPLES} fresh imports",
            "peak_rss_mb": "peak resident memory of this process",
        }
        metrics[alias] = metrics["work_per_s"]
        metrics["failed_ratio"] = failed / attempted
        units = dict(END_TO_END, **REPORTED_ONLY, failed_ratio="ratio")
        units[alias] = "1/s"
        notes.update({alias: "the same as work_per_s",
                      "failed_ratio": f"{failed} of {attempted} failed; not "
                                      "bounded, 0 on most workloads"})
        for name in REPORTED_ONLY:
            notes[name] += "; not bounded"
        _print_table([(name, metrics[name], units[name], notes[name])
                      for name in ("wall_s", "case_s_p50", "case_s_tail",
                                   "work_per_s", alias, "success_ratio",
                                   "failed_ratio", "setup_s",
                                   "peak_rss_mb")])
        report.update({"metrics_reported": metrics,
                       "case_s_tail_detail": case_tail,
                       "setup_samples_s": setup_samples})
        unit_of = END_TO_END
    else:
        spans = tracer.span_records()
        tracing.annotate_self_time(spans)
        leaves = tracer.leaf_totals()
        metrics = tracing.layer_metrics(spans, leaves)
        metrics.update(setup)
        overhead = sum(traced_walls) - sum(walls)
        metrics["trace.overhead_s"] = overhead
        blocking = tracing.blocking_path_s(spans)
        untraced = sum(walls)
        if abs(blocking - sum(traced_walls)) > 0.01 * sum(traced_walls) \
                or abs(blocking - untraced) > abs(overhead) \
                + BLOCKING_NOISE * untraced:
            errors.append(
                f"blocking-path self times sum to {blocking:.4f} s; traced "
                f"wall {sum(traced_walls):.4f} s, untraced wall "
                f"{untraced:.4f} s, tracing overhead {overhead:.4f} s")
        breakdown = tracing.self_time_breakdown(spans, leaves)
        _print_table([(name, metrics[name], PER_LAYER[name], "")
                      for name in PER_LAYER])
        print("  self time by layer (traced passes):")
        for name, secs in breakdown.items():
            print(f"    {name:<36} {secs:10.4f} s "
                  f"{100.0 * secs / sum(traced_walls):6.2f} %")
        print(f"  blocking path {blocking:.4f} s = untraced wall "
              f"{untraced:.4f} s + tracing overhead {overhead:.4f} s "
              f"(traced wall {sum(traced_walls):.4f} s)")
        report.update({"traced_pass_wall_s": traced_walls,
                       "blocking_path_s": blocking,
                       "self_time_s": breakdown,
                       "leaf_totals": leaves})
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{tag}_spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        unit_of = PER_LAYER

    for msg in errors:
        print(f"  CHECK FAILED: {msg}")
    print("  checks: " + (f"{len(errors)} failed" if errors else "all passed"))
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: _metric(metrics[name], unit_of[name])
                          for name in unit_of}}
    report.update(result=result, check_errors=errors,
                  cases=[_jsonable(o) for o in outcomes])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(_jsonable(report), fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
