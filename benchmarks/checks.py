"""Correctness checks against the paper's facts, as pure functions.

Each ``check_<workload>`` takes the verified outcomes of a run (plain
dicts, see :mod:`execute`) and returns a list of error strings; an empty
list means every check passed.  Thresholds are fixed here and come from
the paper and its acceptance criteria, never from the program's outputs.
"""

from __future__ import annotations

STROBE_BOUND = 1e-8        # CLI strobe rows vs stroboscopic(), max abs diff
CLOSURE_TOL = 1e-6         # |state(T) - state(0)| after one period
SPLIT_ROOT_TOL = 5e-3      # criterion 5: bisection root vs mu3
MELNIKOV_REL = 1e-6        # criterion 4: closed form vs quadrature
HOPF_C1_TOL = 1e-8         # criterion 2: Re c1(mu_c) = -1/(2 beta)
ATTRACTOR_EQ_DISTANCE = 0.05
ENTRAINED = ("equilibrium", "periodic_locked")
REGIONS = {"no_cycle_saddle_only", "no_cycle_energy", "no_cycle_dulac",
           "single_small_cycle", "two_small_cycles", "homoclinic_pair",
           "large_cycle", "three_eq_no_cycle", "invalid_params"}


def _where(o) -> str:
    return f"pass {o['pass']} {o['label']}"


def _cli_ok(o, errors) -> bool:
    if o.get("error") or o.get("rc") != 0:
        errors.append(f"{_where(o)}: CLI failed "
                      f"(rc={o.get('rc')}, {o.get('error')})")
        return False
    for msg in o.get("schema_errors", []):
        errors.append(f"{_where(o)}: schema: {msg}")
    if "rerun_sha256" in o and o["rerun_sha256"] != o["sha256"]:
        errors.append(f"{_where(o)}: output differs between repeated runs")
    return True


def check_forced(outcomes) -> list[str]:
    errors = []
    for o in outcomes:
        if o["kind"] == "forced" and o["expect"] is not None:
            verdict = o.get("verdict")
            if o.get("error"):
                errors.append(f"{_where(o)}: raised {o['error']}")
            elif (o["expect"] == "quasi_periodic"
                  and verdict != "quasi_periodic"):
                errors.append(f"{_where(o)}: verdict {verdict}, "
                              "criterion 9 says quasi_periodic")
            elif o["expect"] == "entrained" and verdict not in ENTRAINED:
                errors.append(f"{_where(o)}: verdict {verdict}, "
                              "criterion 9 says entrained")
        elif o["kind"] == "forced_cli" and _cli_ok(o, errors):
            if o["strobe_rows"] != o["args"]["n"] + 1:
                errors.append(f"{_where(o)}: {o['strobe_rows']} strobe rows")
            if not o["strobe_max_diff"] <= STROBE_BOUND:
                errors.append(f"{_where(o)}: CLI strobe differs from "
                              f"stroboscopic() by {o['strobe_max_diff']:.3e}")
            if o.get("verdict") not in ENTRAINED:
                errors.append(f"{_where(o)}: CLI verdict {o.get('verdict')}, "
                              "criterion 9 says entrained")
    return errors


def check_cycle_hunt(outcomes) -> list[str]:
    errors = []
    for o in outcomes:
        if o["kind"] == "search":
            expect = o["expect"]
            if o.get("found"):
                if not o["closure"] <= CLOSURE_TOL:
                    errors.append(f"{_where(o)}: cycle does not close "
                                  f"({o['closure']:.3e})")
                if isinstance(expect, tuple) and (
                        o["encloses"] != sorted(expect) or not o["stable"]):
                    errors.append(f"{_where(o)}: encloses {o['encloses']} "
                                  f"stable={o['stable']}, paper says "
                                  f"{sorted(expect)} stable")
            elif o["label"].startswith("paper_"):
                errors.append(f"{_where(o)}: no cycle "
                              f"({o.get('error') or 'None'}), criterion 6 "
                              "says one exists")
            if expect == "bounded" and not (
                    o.get("bounded")
                    and o["eq_distance"] > ATTRACTOR_EQ_DISTANCE):
                errors.append(f"{_where(o)}: no bounded non-equilibrium "
                              "attractor to miss")
        elif o["kind"] == "split" and not o.get("error"):
            if not o["d_below"] < 0.0 < o["d_above"]:
                errors.append(f"{_where(o)}: separatrix gap keeps its sign "
                              f"across mu3 ({o['d_below']:.3e}, "
                              f"{o['d_above']:.3e})")
            elif not abs(o["root"] - o["mu3"]) < SPLIT_ROOT_TOL:
                errors.append(f"{_where(o)}: bisection root "
                              f"{o['root']:.6f} vs mu3 {o['mu3']:.6f}")
        elif o["kind"] == "portrait_cli" and _cli_ok(o, errors):
            if o["csv_header"] != ["seed_id", "t", "x", "y"] \
                    or o["csv_rows"] < 2:
                errors.append(f"{_where(o)}: portrait CSV malformed")
            if o["svg_cycles"] != o["expect"]:
                errors.append(f"{_where(o)}: {o['svg_cycles']} cycle "
                              f"overlays, expected {o['expect']}")
    return errors


def check_cycle_exclusion(outcomes) -> list[str]:
    errors = []
    for o in outcomes:
        if o.get("found"):
            errors.append(f"{_where(o)}: cycle found in a certified "
                          f"no-cycle region ({o['expect']})")
        certified = (o.get("region") if o["expect"] == "three_eq_no_cycle"
                     else o.get("certificate"))
        if certified != o["expect"]:
            errors.append(f"{_where(o)}: certificate {certified}, "
                          f"expected {o['expect']}")
    return errors


def _expected_region(beta, mu, eps):
    if eps < 0 or (eps == 0 and beta > 0):
        return "no_cycle_saddle_only"
    if eps == 0:
        return "invalid_params"
    if beta == 0 and mu >= 0:
        return "single_small_cycle"
    if beta == 0 and mu <= -0.25:
        return "no_cycle_dulac"
    return None                  # closed-form curves decide; not re-derived


def _catalogue(label: str, eps: float) -> str:
    if label.startswith("C"):
        return "unstable_node"
    return "saddle" if eps > 0 else "stable_node"


def check_atlas(outcomes) -> list[str]:
    errors = []
    for o in outcomes:
        kind, a = o["kind"], o["args"]
        if kind == "sweep_cli" and _cli_ok(o, errors):
            if o["csv_header"] != ["beta", "mu", "eps", "region",
                                   "mu1", "muc", "mu2", "mu3"]:
                errors.append(f"{_where(o)}: sweep header {o['csv_header']}")
            if len(o["rows"]) != a["n"] ** 2:
                errors.append(f"{_where(o)}: {len(o['rows'])} sweep rows")
            bad = [r for r in o["rows"] if r[3] not in REGIONS or (
                _expected_region(*r[:3]) not in (None, r[3]))]
            if bad:
                errors.append(f"{_where(o)}: {len(bad)} cells mislabelled, "
                              f"first {bad[0]}")
        elif kind == "classify_cli":
            _cli_ok(o, errors)
        elif kind == "melnikov_cli" and _cli_ok(o, errors):
            if not o["doc"]["relative_diff"] < MELNIKOV_REL:
                errors.append(f"{_where(o)}: Melnikov closed form vs "
                              f"quadrature {o['doc']['relative_diff']:.3e}")
        elif kind == "hopf":
            if o.get("error"):
                errors.append(f"{_where(o)}: raised {o['error']}")
            elif not abs(o["c1_real"] + 0.5 / o["beta"]) < HOPF_C1_TOL:
                errors.append(f"{_where(o)}: Re c1(mu_c) = {o['c1_real']}, "
                              f"paper says {-0.5 / o['beta']}")
        elif kind == "infinity":
            want = {lab: _catalogue(lab, a["eps"])
                    for lab in ("B+", "B-", "C+", "C-")}
            if o.get("kinds") != want:
                errors.append(f"{_where(o)}: equator kinds {o.get('kinds')}"
                              f", catalogue {want}")
        elif kind == "probe":
            want = _catalogue(a["label"], a["eps"])
            if o.get("inferred") != want:
                errors.append(f"{_where(o)}: probe says {o.get('inferred')}, "
                              f"catalogue {want}")
    return errors


CHECKS = {"forced": check_forced, "cycle_hunt": check_cycle_hunt,
          "cycle_exclusion": check_cycle_exclusion, "atlas": check_atlas}
