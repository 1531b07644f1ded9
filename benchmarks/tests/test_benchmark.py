"""Tests of the benchmark itself: seeded inputs, checks, statistics, tracing.

Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import cases  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# --- seeded generation -------------------------------------------------------

@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert cases.generate(workload, 11, 3) == cases.generate(workload, 11, 3)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    assert cases.generate(workload, 11, 1) != cases.generate(workload, 12, 1)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_pass_has_the_same_composition(workload):
    plan = cases.generate(workload, 5, 3)
    shapes = [[(c.kind, c.label) for c in p] for p in plan]
    assert shapes[0] == shapes[1] == shapes[2]
    assert plan[0] != plan[1]


def test_pass_count_follows_seconds():
    assert cases.passes_for("atlas", 1) == 1
    assert cases.passes_for("atlas", 20) == 5
    assert cases.passes_for("cycle_hunt", 20) == 1


def test_draws_land_in_their_regions():
    from qvdp.bifurcation import classify_region, nonexistence_certificate
    from qvdp.model import Params

    for seed in range(5):
        for c in cases.generate("cycle_exclusion", seed, 1)[0]:
            p = Params(mu=c.args["mu"], beta=c.args["beta"], eps=c.args["eps"])
            if c.expect == "three_eq_no_cycle":
                assert classify_region(p).label.value == c.expect
            else:
                assert nonexistence_certificate(p).kind.value == c.expect
        hunt = {c.label: c for c in cases.generate("cycle_hunt", seed, 1)[0]}
        for label, region in (("draw_small", "two_small_cycles"),
                              ("draw_large", "large_cycle")):
            a = hunt[label].args
            p = Params(mu=a["mu"], beta=a["beta"], eps=a["eps"])
            assert classify_region(p).label.value == region
        a = hunt["draw_beyond_7_3"].args
        assert a["beta"] / a["eps"] > 7.0 / 3.0


# --- correctness checks fail on wrong results --------------------------------

def _outcome(kind, label, expect=None, args=None, **fields):
    o = {"kind": kind, "label": label, "expect": expect, "args": args or {},
         "pass": 0, "error": None}
    o.update(fields)
    return o


def _forced_good():
    n = cases.FORCED_N
    return [
        _outcome("forced", "paper_qp", "quasi_periodic",
                 verdict="quasi_periodic"),
        _outcome("forced", "paper_entrained", "entrained",
                 verdict="equilibrium"),
        _outcome("forced", "neighbour_qp", None, verdict="irregular"),
        _outcome("forced_cli", "cli_entrained", "entrained", {"n": n},
                 rc=0, strobe_rows=n + 1, strobe_max_diff=0.0,
                 schema_errors=[], verdict="equilibrium"),
    ]


def _hunt_good():
    return [
        _outcome("search", "paper_large", cases.ALL_EQ, found=True,
                 closure=1e-9, encloses=["E1", "E2", "O"], stable=True),
        _outcome("search", "paper_small", ("E2",), found=True, closure=1e-9,
                 encloses=["E2"], stable=True),
        _outcome("search", "fixed_beyond_7_3", "bounded", found=False,
                 bounded=True, eq_distance=0.3),
        _outcome("split", "split_bisection", "sign_change", d_below=-0.01,
                 d_above=0.01, root=-0.1713, mu3=-0.17142857142857143),
        _outcome("portrait_cli", "portrait_large", 1, rc=0,
                 csv_header=["seed_id", "t", "x", "y"], csv_rows=50,
                 svg_cycles=1),
    ]


def _exclusion_good():
    return [
        _outcome("search", "draw_dulac", "dulac", found=False,
                 certificate="dulac", region="no_cycle_dulac"),
        _outcome("search", "anchor_energy_boundary", "energy",
                 error="NoConvergence: x", certificate="energy",
                 region="no_cycle_energy"),
        _outcome("search", "draw_three_eq", "three_eq_no_cycle", found=False,
                 certificate=None, region="three_eq_no_cycle"),
    ]


def _atlas_good():
    rows = [(0.0, 0.5, 1.0, "single_small_cycle"),
            (0.0, -0.5, 1.0, "no_cycle_dulac"),
            (1.0, 0.0, 1.0, "large_cycle"),
            (1.0, 0.2, 1.0, "large_cycle")]
    header = ["beta", "mu", "eps", "region", "mu1", "muc", "mu2", "mu3"]
    return [
        _outcome("sweep_cli", "sweep_eps_positive", None, {"n": 2}, rc=0,
                 csv_header=header, rows=rows, sha256="a", rerun_sha256="a"),
        _outcome("classify_cli", "reference_0", None, rc=0, schema_errors=[],
                 sha256="b", rerun_sha256="b"),
        _outcome("melnikov_cli", "melnikov_reference", None, rc=0,
                 schema_errors=[], doc={"relative_diff": 1e-12}),
        _outcome("hopf", "hopf_draw_a", None, c1_real=-0.25, beta=2.0),
        _outcome("infinity", "infinity_eps_negative", None, {"eps": -1.0},
                 kinds={"B+": "stable_node", "B-": "stable_node",
                        "C+": "unstable_node", "C-": "unstable_node"}),
        _outcome("probe", "infinity_eps_positive_B+", None,
                 {"eps": 2.0, "label": "B+"}, inferred="saddle"),
    ]


GOOD = {"forced": _forced_good, "cycle_hunt": _hunt_good,
        "cycle_exclusion": _exclusion_good, "atlas": _atlas_good}


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_checks_pass_on_right_results(workload):
    assert checks.CHECKS[workload](GOOD[workload]()) == []


def _mutated(workload, index, **fields):
    outcomes = copy.deepcopy(GOOD[workload]())
    outcomes[index].update(fields)
    return checks.CHECKS[workload](outcomes)


@pytest.mark.parametrize("workload,index,fields", [
    ("forced", 0, {"verdict": "equilibrium"}),          # swapped verdicts
    ("forced", 1, {"verdict": "quasi_periodic"}),
    ("forced", 3, {"strobe_max_diff": 1e-4}),
    ("forced", 3, {"verdict": "irregular"}),
    ("forced", 3, {"rc": 3}),
    ("cycle_hunt", 0, {"encloses": ["E2"]}),            # wrong enclosure
    ("cycle_hunt", 1, {"found": False}),                 # paper cycle missed
    ("cycle_hunt", 1, {"closure": 1e-3}),                # does not close
    ("cycle_hunt", 1, {"stable": False}),
    ("cycle_hunt", 2, {"bounded": False}),               # nothing to miss
    ("cycle_hunt", 3, {"d_above": -0.01}),               # no sign change
    ("cycle_hunt", 3, {"root": -0.1}),
    ("cycle_hunt", 4, {"svg_cycles": 0}),
    ("cycle_exclusion", 0, {"found": True}),             # cycle, Dulac region
    ("cycle_exclusion", 2, {"found": True}),
    ("cycle_exclusion", 0, {"certificate": "index"}),
    ("atlas", 0, {"rows": [(0.0, 0.5, -1.0, "large_cycle")] * 4}),
    ("atlas", 0, {"rerun_sha256": "c"}),                 # not byte-identical
    ("atlas", 1, {"schema_errors": ["'x' is a required property"]}),
    ("atlas", 2, {"doc": {"relative_diff": 1e-3}}),
    ("atlas", 3, {"c1_real": 0.25}),
    ("atlas", 4, {"kinds": {"B+": "saddle", "B-": "saddle",
                            "C+": "unstable_node", "C-": "unstable_node"}}),
    ("atlas", 5, {"inferred": "stable_node"}),
])
def test_checks_fail_on_wrong_results(workload, index, fields):
    assert _mutated(workload, index, **fields)


# --- statistics --------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    t = run.tail([float(i) for i in range(21)])
    assert (t["value"], t["beyond"], t["n"]) == (10.0, 10, 21)
    t = run.tail([float(i) for i in range(100)])
    assert (t["value"], t["beyond"], t["percentile"]) == (89.0, 10, 90.0)


def test_tail_of_few_samples_is_the_maximum():
    t = run.tail([3.0, 1.0, 2.0])
    assert (t["value"], t["beyond"], t["percentile"]) == (3.0, 0, 100.0)
    t = run.tail([float(i) for i in range(20)])
    assert (t["value"], t["beyond"], t["percentile"]) == (19.0, 0, 100.0)


def test_failures_count_misses_and_errors():
    miss = _outcome("search", "x", ("O",), found=False)
    assert run.is_failure(miss)
    assert not run.is_failure(_outcome("search", "x", "dulac", found=False))
    assert run.is_failure(_outcome("search", "x", "dulac", error="E: x"))
    assert run.is_failure(_outcome("sweep_cli", "x", rc=3))


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)


# --- tracing -----------------------------------------------------------------

def _span(sid, parent, start, end, main=True, leaf=0.0):
    return {"id": sid, "name": f"s{sid}", "start": start, "end": end,
            "parent": parent, "main_thread": main, "leaf_s": leaf,
            "foreign_leaf_s": 0.0, "attrs": {}}


def test_self_time_subtracts_children_and_pool_wait():
    spans = [_span(1, None, 0.0, 10.0, leaf=1.0),
             _span(2, 1, 1.0, 3.0),
             _span(3, 1, 4.0, 8.0, main=False),
             _span(4, 1, 5.0, 9.0, main=False)]
    tracing.annotate_self_time(spans)
    assert spans[0]["self_s"] == pytest.approx(10.0 - 2.0 - 5.0 - 1.0)
    assert spans[0]["wait_s"] == pytest.approx(5.0)
    assert tracing.blocking_path_s(spans) == pytest.approx(10.0)


def test_tracer_records_spans_and_restores_the_package():
    import importlib

    from qvdp import detect
    from qvdp.model import Params, unforced_rhs

    integ = importlib.import_module("qvdp.integrate")
    original = integ.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def case():
            rhs = sys.modules["qvdp.model"].unforced_rhs(
                Params(mu=-0.1, beta=1.0, eps=2.0))
            traj = integ.integrate(rhs, np.array([2.0, 0.0]), (0.0, 7.0))
            return integ.detect_crossings(traj, lambda s: s[1])
        tracer.case_span("0:0", "case.test", case)
    finally:
        tracer.uninstall()
    assert integ.integrate is original
    assert detect.integrate is original
    assert sys.modules["qvdp.model"].unforced_rhs is unforced_rhs
    spans = tracer.span_records()
    assert [s["name"] for s in spans] == ["integrate.integrate",
                                          "integrate.detect_crossings",
                                          "case.test"]
    tracing.annotate_self_time(spans)
    m = tracing.layer_metrics(spans, tracer.leaf_totals())
    assert m["integrate.calls"] == 1 and m["integrate.steps"] > 0
    # integrate evaluates the field once more, at the initial state
    assert m["model.rhs_calls"] == m["integrate.nfev"] + 1
