"""In-memory spans around the public functions of each qvdp layer.

The tracer never edits the package: :meth:`Tracer.install` rebinds the
public functions in every loaded ``qvdp`` module (and
``scipy.integrate.OdeSolver.step``, to count accepted steps) to timing
wrappers, and :meth:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span, case id and thread,
  plus counters taken from the call's arguments and result;
* a *leaf* (the right-hand-side closures and the microsecond closed forms,
  called up to millions of times) only adds its call count and time to a
  per-name total and to the covered time of the innermost open span of its
  thread.  A leaf called from a pool thread with no open span is charged
  to the main thread's innermost span as parallel work.

Spans stay in memory until :meth:`Tracer.span_records` is read at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import scipy.integrate

# open-span record layout (a list, mutated in place while the span is open)
_ID, _NAME, _START, _PARENT, _CASE, _THREAD, _LEAF, _ATTRS = range(8)

_SPAN_TARGETS = (
    ("qvdp.integrate", "integrate", "integrate.integrate"),
    ("qvdp.integrate", "detect_crossings", "integrate.detect_crossings"),
    ("qvdp.integrate", "stroboscopic", "integrate.stroboscopic"),
    ("qvdp.detect", "find_limit_cycle", "detect.find_limit_cycle"),
    ("qvdp.detect", "separatrix_split", "detect.separatrix_split"),
    ("qvdp.detect", "classify_forced", "detect.classify_forced"),
    ("qvdp.bifurcation", "hopf_normal_form", "bifurcation.hopf_normal_form"),
    ("qvdp.bifurcation", "melnikov", "bifurcation.melnikov"),
    ("qvdp.compactify", "probe_infinity_kind",
     "compactify.probe_infinity_kind"),
    ("qvdp.output", "rows_to_csv", "output.rows_to_csv"),
    ("qvdp.output", "dumps_json", "output.dumps_json"),
)
_LEAF_TARGETS = (
    ("qvdp.bifurcation", "classify_region", "bifurcation.classify_region"),
    ("qvdp.equilibria", "find_equilibria", "equilibria.find_equilibria"),
    ("qvdp.equilibria", "critical_mus", "equilibria.critical_mus"),
    ("qvdp.compactify", "infinity_equilibria",
     "compactify.infinity_equilibria"),
)
_RHS_FACTORIES = (("qvdp.model", "unforced_rhs"),
                  ("qvdp.model", "forced_rhs_3d"))


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list = []
        self._lock = threading.Lock()
        self._thread_leaves: list = []    # per thread: name -> [calls, s]
        self._thread_foreign: list = []   # per thread: span id -> s
        self._closed: list = []
        self._patches: list = []
        self.case = None

    # --- bookkeeping ---------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            main = threading.get_ident() == self._main_ident
            loc.stack = self._main_stack if main else []
            loc.leaves = defaultdict(lambda: [0, 0.0])
            loc.foreign = defaultdict(float)
            loc.depth = 0
            with self._lock:
                self._thread_leaves.append(loc.leaves)
                self._thread_foreign.append(loc.foreign)
        return loc

    def _open(self, name: str):
        loc = self._state()
        stack = loc.stack
        if stack:
            parent = stack[-1][_ID]
        else:
            parent = self._main_stack[-1][_ID] if (
                stack is not self._main_stack and self._main_stack) else None
        rec = [next(self._ids), name, 0.0, parent, self.case,
               threading.get_ident(), 0.0, {}]
        stack.append(rec)
        rec[_START] = perf_counter()
        return rec

    def _close(self, rec) -> None:
        end = perf_counter()
        self._local.stack.pop()
        self._closed.append((rec[_ID], rec[_NAME], rec[_START], end,
                             rec[_PARENT], rec[_CASE], rec[_THREAD],
                             rec[_LEAF], rec[_ATTRS]))

    def _charge_leaf(self, loc, name: str, dt: float) -> None:
        tot = loc.leaves[name]
        tot[0] += 1
        tot[1] += dt
        if loc.depth:
            return                      # nested leaf: its caller is charged
        if loc.stack:
            loc.stack[-1][_LEAF] += dt
        elif self._main_stack:
            loc.foreign[self._main_stack[-1][_ID]] += dt

    # --- wrappers ------------------------------------------------------------

    def case_span(self, case_id: str, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one benchmark case."""
        self.case = case_id
        rec = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.case = None

    def _span(self, name, fn, hook=None, name_of=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = self._open(name_of(args) if name_of else name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                if hook is not None:
                    hook(rec[_ATTRS], args, kwargs, result, exc)
                self._close(rec)
        return wrapped

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            loc = self._state()
            loc.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                loc.depth -= 1
                self._charge_leaf(loc, name, dt)
        return wrapped

    def _rhs_factory(self, factory):
        # the closure runs millions of times: bind the creating thread's
        # state once (qvdp calls a closure in the thread that built it)
        @functools.wraps(factory)
        def wrapped(p):
            rhs = factory(p)
            loc = self._state()
            stack, total = loc.stack, loc.leaves["model.rhs"]

            def traced_rhs(t, s):
                t0 = perf_counter()
                out = rhs(t, s)
                dt = perf_counter() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    stack[-1][_LEAF] += dt
                return out
            return traced_rhs
        return wrapped

    def _step(self, step):
        @functools.wraps(step)
        def wrapped(solver):
            stack = self._state().stack
            if stack:
                attrs = stack[-1][_ATTRS]
                attrs["steps"] = attrs.get("steps", 0) + 1
            return step(solver)
        return wrapped

    # --- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qvdp"
                                   or mod_name.startswith("qvdp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod, attr, name in _SPAN_TARGETS:
            fn = getattr(importlib.import_module(mod), attr)
            self._rebind(fn, self._span(name, fn, _HOOKS.get(name)))
        for mod, attr, name in _LEAF_TARGETS:
            fn = getattr(importlib.import_module(mod), attr)
            self._rebind(fn, self._leaf(name, fn))
        for mod, attr in _RHS_FACTORIES:
            fn = getattr(importlib.import_module(mod), attr)
            self._rebind(fn, self._rhs_factory(fn))
        cli = importlib.import_module("qvdp.cli")
        self._rebind(cli.main, self._span(
            "cli", cli.main, name_of=lambda a: f"cli.{a[0][0]}"))
        svg = importlib.import_module("qvdp.output").PortraitSVG
        render = svg.render
        self._patches.append((svg, "render", render))
        svg.render = self._span("output.svg_render", render, _text_hook)
        solver = scipy.integrate.OdeSolver
        step = solver.step
        self._patches.append((solver, "step", step))
        solver.step = self._step(step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def span_records(self) -> list[dict]:
        foreign = defaultdict(float)
        for part in self._thread_foreign:
            for sid, s in list(part.items()):
                foreign[sid] += s
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "case": case,
                 "main_thread": thread == self._main_ident,
                 "leaf_s": leaf, "foreign_leaf_s": foreign.get(sid, 0.0),
                 "attrs": attrs}
                for (sid, name, start, end, parent, case, thread, leaf,
                     attrs) in self._closed]

    def leaf_totals(self) -> dict:
        out: dict = defaultdict(lambda: [0, 0.0])
        for part in self._thread_leaves:
            for name, (calls, s) in list(part.items()):
                out[name][0] += calls
                out[name][1] += s
        return dict(out)


# --- per-function counters ---------------------------------------------------

def _traj_hook(attrs, args, kwargs, result, exc):
    traj = result if result is not None else getattr(exc, "trajectory", None)
    attrs["t_eval"] = (kwargs.get("t_eval") is not None
                       or (len(args) > 6 and args[6] is not None))
    if traj is None:
        return
    attrs["span_t"] = abs(float(traj.t[-1] - traj.t[0]))
    attrs["nfev"] = traj.stats.get("nfev", 0)
    attrs["rejected_est"] = traj.stats.get("rejected_steps_estimate", 0)


def _crossings_hook(attrs, args, kwargs, result, exc):
    traj = args[0]
    t0 = float(traj.t[0])
    attrs["span_t"] = abs(float(traj.t[-1]) - t0)
    # the return map uses the first crossing past the start with x > 0
    used = next((ev.t - t0 for ev in (result or [])
                 if ev.t - t0 > 1e-9 and ev.state[0] > 0.0), 0.0)
    attrs["used_t"] = float(used)


def _search_hook(attrs, args, kwargs, result, exc):
    attrs["found"] = result is not None


def _melnikov_hook(attrs, args, kwargs, result, exc):
    method = kwargs.get("method", args[4] if len(args) > 4 else None)
    attrs["quadrature"] = getattr(method, "value", None) == "quadrature"


def _text_hook(attrs, args, kwargs, result, exc):
    if isinstance(result, str):
        attrs["bytes"] = len(result.encode())


def _csv_hook(attrs, args, kwargs, result, exc):
    _text_hook(attrs, args, kwargs, result, exc)
    if isinstance(result, str):
        attrs["rows"] = result.count("\n") - 1


_HOOKS = {
    "integrate.integrate": _traj_hook,
    "integrate.detect_crossings": _crossings_hook,
    "detect.find_limit_cycle": _search_hook,
    "bifurcation.melnikov": _melnikov_hook,
    "output.rows_to_csv": _csv_hook,
    "output.dumps_json": _text_hook,
}


# --- self time and layer metrics ---------------------------------------------

def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans: list[dict]) -> dict:
    out = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]].append(s)
    return out


def annotate_self_time(spans: list[dict]) -> None:
    """Add ``self_s`` and ``wait_s`` to every span record.

    ``self_s`` is the duration minus the union of the child spans'
    intervals and minus the leaf time charged to the span by its own
    thread.  ``wait_s`` is the part of the children's union that only
    other-thread children cover: time the span's thread spent waiting on
    the pool.
    """
    children = _children(spans)
    for s in spans:
        kids = children.get(s["id"], [])
        lo, hi = s["start"], s["end"]
        every = _union_length([(k["start"], k["end"]) for k in kids], lo, hi)
        same = _union_length([(k["start"], k["end"]) for k in kids
                              if k["main_thread"] == s["main_thread"]],
                             lo, hi)
        s["self_s"] = max(0.0, hi - lo - every - s["leaf_s"])
        s["wait_s"] = every - same


def blocking_path_s(spans: list[dict]) -> float:
    """Self time, leaf time and pool wait summed over main-thread spans.

    For properly nested spans this equals the summed duration of the case
    root spans; a gap or an overlap in the accounting shows as a mismatch.
    """
    return sum(s["self_s"] + s["leaf_s"] + s["wait_s"]
               for s in spans if s["main_thread"])


def self_time_breakdown(spans: list[dict], leaves: dict) -> dict:
    out: dict = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["self_s"]
        if s["wait_s"] > 0:
            out["pool_wait"] += s["wait_s"]
    for name, (_, secs) in leaves.items():
        out[name] += secs
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], leaves: dict) -> dict:
    """Per-layer metric values (name -> value) from annotated spans."""
    by_id = {s["id"]: s for s in spans}

    def under(s, name) -> bool:
        pid = s["parent"]
        while pid is not None:
            p = by_id[pid]
            if p["name"] == name:
                return True
            pid = p["parent"]
        return False

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def attr_sum(ss, key):
        return sum(s["attrs"].get(key, 0) for s in ss)

    def leaf(name):
        return leaves.get(name, [0, 0.0])

    integ = named("integrate.integrate")
    cross = named("integrate.detect_crossings")
    searches = named("detect.find_limit_cycle")
    in_search = [s for s in integ if under(s, "detect.find_limit_cycle")]
    scans = [s for s in cross if under(s, "detect.find_limit_cycle")]
    useful = attr_sum(scans, "used_t") + sum(
        s["attrs"].get("span_t", 0.0) for s in in_search
        if s["attrs"]["t_eval"])
    melq = [s for s in named("bifurcation.melnikov")
            if s["attrs"].get("quadrature")]
    csv = named("output.rows_to_csv")
    js = named("output.dumps_json")
    svg = named("output.svg_render")
    busy = dur(integ)
    steps = attr_sum(integ, "steps")
    rhs_calls, rhs_s = leaf("model.rhs")

    m = {
        "model.rhs_calls": rhs_calls,
        "model.rhs_us": 1e6 * _ratio(rhs_s, rhs_calls),
        "integrate.calls": len(integ),
        "integrate.busy_s": busy,
        "integrate.steps": steps,
        "integrate.nfev": attr_sum(integ, "nfev"),
        "integrate.rejected_est": attr_sum(integ, "rejected_est"),
        "integrate.us_per_step": 1e6 * _ratio(busy, steps),
        "integrate.stroboscopic_s": dur(named("integrate.stroboscopic")),
        "integrate.crossings_s": dur(cross),
        "integrate.crossings_calls": len(cross),
        "detect.find_limit_cycle_s": dur(searches),
        "detect.searches": len(searches),
        "detect.found_ratio": _ratio(
            sum(1 for s in searches if s["attrs"].get("found")),
            len(searches)),
        "detect.integrate_calls_per_search": _ratio(len(in_search),
                                                    len(searches)),
        "detect.useful_time_ratio": _ratio(useful,
                                           attr_sum(in_search, "span_t")),
        "detect.separatrix_split_s": dur(named("detect.separatrix_split")),
        "detect.classify_forced_on_samples_s": sum(
            s["self_s"] for s in named("detect.classify_forced")),
    }
    for name, metric in (("bifurcation.classify_region",
                          "bifurcation.classify_region_us"),
                         ("equilibria.find_equilibria",
                          "equilibria.find_equilibria_us"),
                         ("equilibria.critical_mus",
                          "equilibria.critical_mus_us"),
                         ("compactify.infinity_equilibria",
                          "compactify.infinity_equilibria_us")):
        calls, secs = leaf(name)
        m[metric] = 1e6 * _ratio(secs, calls)
    m["bifurcation.hopf_normal_form_s"] = dur(
        named("bifurcation.hopf_normal_form"))
    m["bifurcation.melnikov_quadrature_s"] = dur(melq)
    m["compactify.probe_infinity_kind_s"] = dur(
        named("compactify.probe_infinity_kind"))
    m["output.rows_to_csv_s"] = dur(csv)
    m["output.rows"] = attr_sum(csv, "rows")
    m["output.bytes"] = attr_sum(csv + js + svg, "bytes")
    m["output.dumps_json_s"] = dur(js)
    m["output.svg_render_s"] = dur(svg)

    children = _children(spans)
    overhead = 0.0
    for sub in ("classify", "sweep", "melnikov", "portrait", "forced"):
        calls = named(f"cli.{sub}")
        m[f"cli.{sub}_s"] = dur(calls)
        for s in calls:
            covered = _union_length(
                [(k["start"], k["end"]) for k in children.get(s["id"], [])],
                s["start"], s["end"])
            overhead += max(0.0, s["end"] - s["start"] - covered
                            - s["leaf_s"] - s["foreign_leaf_s"])
    m["cli.overhead_s"] = overhead
    return m
