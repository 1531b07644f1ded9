"""Trajectory verdicts: limit cycles, separatrix splitting, forced attractors.

Limit cycles of the unforced system are located as fixed points of the
Poincare return map on the half-axis section {y = 0, x > 0}, taken between
successive downward crossings.  That one section works for every cycle this
family produces: the single cycle around the origin (beta = 0), the small
cycles around E1/E2, and the large cycle enclosing all three equilibria all
cross it exactly once per period going down.  Each return is one
integration, stopped by a terminal event at the crossing, of the state
augmented with the divergence integral.  The fixed point is solved by a
damped secant iteration with plain map iteration as fallback.  By
Liouville's formula the return map on {y = 0} has the derivative

    P'(x0) = g(x0) / g(P(x0)) * exp(int div dt),   g(x) = beta x - eps x^3,

so at a cycle the nontrivial Floquet multiplier is exp(int_0^T div dt),
read off the closing return (Perko, Differential Equations and Dynamical
Systems, sec. 3.4).  The cycle's geometry is sampled from the dense output
of that same return.

Homoclinic proximity is measured by shooting: the unstable manifold of the
saddle at the origin is launched forward, the stable manifold backward,
both from 1e-8 offsets along the respective eigenvectors, each integrated
once up to its first section crossing, and the signed gap between the two
crossings brackets the homoclinic connection as mu varies.

The forced system is judged through its stroboscopic map: contraction to a
point (a harmonically entrained periodic solution), a revisited finite set
(locked torus), an invariant closed curve with convergent rotation number
(quasi-periodic two-frequency motion), or none of these.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibria import EqLabel, find_equilibria
from .integrate import (Direction, NonFinite, NoConvergence, integrate,
                        stroboscopic)
from .model import Params, State, divergence, unforced_rhs

__all__ = [
    "LimitCycle",
    "SeparatrixSplit",
    "Verdict",
    "AttractorReport",
    "RotationEstimate",
    "ManifoldEscape",
    "find_limit_cycle",
    "separatrix_split",
    "classify_forced",
    "rotation_number",
    "winding_number",
]

_SECTION_TOL = (1e-12, 1e-10)
_FIXED_POINT_RESIDUAL = 1e-8
_MAX_RETURNS = 60
_RETURN_HORIZON = 240.0
# a converged section fixed point closer than this to an equilibrium, or a
# loop staying within this distance of one, is a collapsed spiral, not a cycle
_COLLAPSE_RADIUS = 1e-2
# escapes toward infinity grow stiffer with |x| (quartic damping), so bail
# out early: at 8 * max(1, mu).  Large cycles reach |y| of about 3 mu
# (beta/eps in [2.5, 3.25], mu up to 8), so a fixed bound would hide them.
_CYCLE_ESCAPE = 8.0


class ManifoldEscape(RuntimeError):
    """A separatrix branch left the shooting box before reaching the section."""


@dataclass(frozen=True)
class LimitCycle:
    representative: State        # on the section {y = 0, x > 0}
    period: float
    amplitude: float             # max |x| along the cycle
    floquet: float               # nontrivial return-map multiplier
    stable: bool
    encloses: frozenset          # EqLabel members wound around


@dataclass(frozen=True)
class SeparatrixSplit:
    mu: float
    distance: float              # x_unstable - x_stable on {y = 0, x > 0}


class Verdict(enum.Enum):
    EQUILIBRIUM = "equilibrium"
    PERIODIC_LOCKED = "periodic_locked"
    QUASI_PERIODIC = "quasi_periodic"
    IRREGULAR = "irregular"


@dataclass(frozen=True)
class RotationEstimate:
    value: float
    error: float
    locked_q: Optional[int] = None


@dataclass(frozen=True)
class AttractorReport:
    verdict: Verdict
    rotation_number: Optional[float]
    evidence: dict


def winding_number(path_xy: np.ndarray, point) -> int:
    """Winding of a closed sampled path around ``point`` (nearest integer)."""
    dx = path_xy[:, 0] - point[0]
    dy = path_xy[:, 1] - point[1]
    ang = np.unwrap(np.arctan2(dy, dx))
    return int(round((ang[-1] - ang[0]) / (2.0 * np.pi)))


# --- return map ------------------------------------------------------------

def _positive_x(s):
    return s[0] > 0.0


def _to_section(field, s0, direction, accept, t_max, escape_radius,
                tol=_SECTION_TOL, escape_components=slice(None)):
    """One integration from ``s0`` to the first accepted crossing of {y = 0}.

    Returns the trajectory, whose final state lies on the section, or None
    when no accepted crossing in ``direction`` occurs within ``t_max``;
    raises :class:`~qvdp.integrate.NonFinite` on escape.  A start exactly on
    the section is not a crossing.  Off the accepted half the event is held
    on the near side of the section, so leaving the half is never taken for
    a crossing; the orbit has to enter the half from the near side, as it
    does for every flow with x' = y or x' = -y and the directions used here.
    """
    sign = direction.value

    def crossing(t, s):
        if not accept(s):
            return -sign
        # a state exactly on the section counts as past it
        return s[1] if s[1] != 0.0 else sign * math.ulp(0.0)
    crossing.terminal = True
    crossing.direction = sign

    traj = integrate(field, s0, (0.0, t_max), tol=tol,
                     escape_radius=escape_radius,
                     escape_components=escape_components, stop_event=crossing)
    return traj if traj.stopped else None


def find_limit_cycle(p: Params, seed: State,
                     tol=_SECTION_TOL) -> Optional[LimitCycle]:
    """Locate a limit cycle of the unforced system reachable from ``seed``.

    Returns None when the iterates escape to infinity, converge into an
    equilibrium, or no section crossing occurs; raises
    :class:`~qvdp.integrate.NoConvergence` if the fixed-point solve stalls
    without either outcome.
    """
    rhs = unforced_rhs(p)
    eqs = find_equilibria(p)
    section_eq_x = [0.0] + [e.location.x for e in eqs if e.location.x > 0]
    escape_radius = _CYCLE_ESCAPE * max(1.0, p.mu)

    def field(t, s):
        # (x, y) and the divergence integral along the orbit
        dx, dy = rhs(t, s[:2])
        return np.array([dx, dy, divergence(s[0], p)])

    def ret(x, y=0.0):
        try:
            return _to_section(field, (x, y, 0.0), Direction.DOWN,
                               _positive_x, _RETURN_HORIZON, escape_radius,
                               tol, slice(0, 2))
        except NonFinite:
            return None

    first = ret(float(seed[0]), float(seed[1]))
    if first is None:
        return None
    x_prev = float(first.final[0])

    hit = ret(x_prev)
    if hit is None:
        return None
    x_curr = float(hit.final[0])
    g_prev = x_curr - x_prev

    def near_equilibrium(x):
        return min(abs(x - xe) for xe in section_eq_x) < _COLLAPSE_RADIUS

    for _ in range(_MAX_RETURNS):
        if abs(g_prev) < _FIXED_POINT_RESIDUAL:
            break
        if near_equilibrium(x_curr) and near_equilibrium(x_prev):
            return None  # spiral collapsing into an equilibrium
        hit = ret(x_curr)
        if hit is None:
            return None
        g_curr = float(hit.final[0]) - x_curr
        denom = g_curr - g_prev
        if denom != 0.0:
            step = -g_curr * (x_curr - x_prev) / denom
            # damp wild secant extrapolations; plain iteration as fallback
            if abs(step) > 0.5 * max(abs(x_curr), 1.0):
                x_new = x_curr + g_curr
            else:
                x_new = x_curr + step
        else:
            x_new = x_curr + g_curr
        if x_new <= 0.0:
            x_new = 0.5 * x_curr
        x_prev, g_prev = x_curr, g_curr
        x_curr = x_new
    else:
        raise NoConvergence("return map fixed point not found within "
                            f"{_MAX_RETURNS} returns")

    x_star = x_curr
    hit = ret(x_star)
    if hit is None:
        return None
    residual = abs(float(hit.final[0]) - x_star)
    if residual > _FIXED_POINT_RESIDUAL:
        # polish once by plain iteration
        x_star = float(hit.final[0])
        hit = ret(x_star)
        if hit is None:
            return None
        residual = abs(float(hit.final[0]) - x_star)
        if residual > _FIXED_POINT_RESIDUAL:
            raise NoConvergence(f"fixed point residual {residual:.3e}")
    period = hit.t1

    # geometry from the dense output of the closing return
    path = hit.at(np.linspace(0.0, period, 2001))[:, :2]
    dist_to_eq = min(
        np.max(np.hypot(path[:, 0] - e.location.x, path[:, 1] - e.location.y))
        for e in eqs)
    if dist_to_eq < _COLLAPSE_RADIUS:
        return None

    # Liouville: the multiplier is exp of the divergence integral over a period
    floquet = math.exp(hit.final[2])
    encloses = frozenset(
        e.label for e in eqs
        if winding_number(path, (e.location.x, e.location.y)) != 0)
    return LimitCycle(representative=State(x_star, 0.0),
                      period=float(period),
                      amplitude=float(np.max(np.abs(path[:, 0]))),
                      floquet=floquet,
                      stable=abs(floquet) < 1.0,
                      encloses=encloses)


# --- separatrix shooting ---------------------------------------------------

_LAUNCH_OFFSET = 1e-8
_SHOOT_BOX = 5.0
_SHOOT_HORIZON = 400.0


def _saddle_eigvectors(p: Params):
    disc = math.sqrt(p.mu * p.mu + 4.0 * p.beta)
    lam_u = 0.5 * (p.mu + disc)
    lam_s = 0.5 * (p.mu - disc)
    vu = np.array([1.0, lam_u])
    vs = np.array([1.0, lam_s])
    return vu / np.linalg.norm(vu), vs / np.linalg.norm(vs)


def _shoot_to_section(rhs, s0, direction, accept=_positive_x) -> float:
    try:
        traj = _to_section(rhs, s0, direction, accept, _SHOOT_HORIZON,
                           _SHOOT_BOX)
    except NonFinite as exc:
        raise ManifoldEscape(
            f"separatrix branch left |x|,|y| <= {_SHOOT_BOX}") from exc
    if traj is None:
        raise ManifoldEscape("no section crossing within the shooting horizon")
    return float(traj.final[0])


def separatrix_split(p: Params) -> SeparatrixSplit:
    """Signed gap between the saddle separatrices on {y = 0, x > 0}.

    The unstable manifold (x > 0 branch) is integrated forward from a 1e-8
    offset along the unstable eigenvector; the stable manifold backward
    from the stable eigenvector.  ``distance = x_unstable - x_stable``
    changes sign across the homoclinic connection; its zero tracks the
    Melnikov root to first order in the perturbation.
    """
    if not (p.beta > 0 and p.eps > 0):
        raise ValueError("separatrix shooting requires a saddle: beta, eps > 0")
    rhs = unforced_rhs(p)

    def rhs_back(t, s):
        return -rhs(t, s)

    vu, vs = _saddle_eigvectors(p)
    x_unstable = _shoot_to_section(rhs, _LAUNCH_OFFSET * vu, Direction.DOWN)
    x_stable = _shoot_to_section(rhs_back, _LAUNCH_OFFSET * vs, Direction.UP)
    return SeparatrixSplit(mu=p.mu, distance=x_unstable - x_stable)


# --- forced system ---------------------------------------------------------

_EQ_DELTA = 1e-6
_REVISIT_TOL = 1e-6
_MAX_LOCKED_Q = 32
_GAP_FACTOR = 5.0            # closure: max adjacency gap < factor * median gap
_REL_GAP_MAX = 0.02          # ... and < 2% of the curve extent (thinness)
_ROT_CONVERGENCE = 1e-3
_MIN_CURVE_SAMPLES = 200


def rotation_number(samples: np.ndarray, center) -> Optional[RotationEstimate]:
    """Average angular advance per iterate around ``center``, in turns.

    Requires >= 200 samples winding monotonically; returns None otherwise.
    The estimate is Richardson-extrapolated from the half- and full-sample
    Birkhoff means (endpoint error is O(1/N)) and carries the difference of
    the two as its error figure.  ``locked_q`` flags a rational value
    p/q with q <= 32 resolved within 1e-5.
    """
    pts = np.asarray(samples, dtype=float)
    if len(pts) < _MIN_CURVE_SAMPLES:
        return None
    ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
    inc = np.mod(np.diff(ang), 2.0 * np.pi)
    margin = 1e-3 * 2.0 * np.pi
    if np.min(inc) < margin or np.max(inc) > 2.0 * np.pi - margin:
        return None  # winding not monotone (or grazing the branch cut)
    full = float(np.mean(inc)) / (2.0 * np.pi)
    half = float(np.mean(inc[: len(inc) // 2])) / (2.0 * np.pi)
    value = 2.0 * full - half
    error = abs(full - half)
    locked_q = None
    for q in range(1, _MAX_LOCKED_Q + 1):
        if abs(value * q - round(value * q)) < 1e-5:
            locked_q = q
            break
    return RotationEstimate(value=value, error=error, locked_q=locked_q)


def _closure_diagnostics(tail: np.ndarray) -> dict:
    """Adjacency-gap statistics of a candidate invariant curve.

    Adjacency along the curve is taken as nearest-neighbor proximity: the
    plain angular sort around the centroid breaks down for the large-cycle
    torus, whose section curve is not star-shaped.  A filled closed curve
    has every sample flanked closely on both sides, so the largest
    nearest-neighbor chord stays within a small factor of the median and
    tiny relative to the curve extent.
    """
    from scipy.spatial import cKDTree

    center = tail.mean(axis=0)
    radii = np.hypot(tail[:, 0] - center[0], tail[:, 1] - center[1])
    nn = cKDTree(tail).query(tail, k=2)[0][:, 1]
    extent = float(np.hypot(*(tail.max(axis=0) - tail.min(axis=0))))
    return {
        "center": (float(center[0]), float(center[1])),
        "max_gap": float(np.max(nn)),
        "median_gap": float(np.median(nn)),
        "gap_ratio": float(np.max(nn) / max(np.median(nn), 1e-300)),
        "extent": extent,
        "relative_max_gap": float(np.max(nn) / max(extent, 1e-300)),
        "min_radius": float(np.min(radii)),
        "max_radius": float(np.max(radii)),
    }


def classify_forced(p: Params, s0: State, n: int = 2000,
                    tol=(1e-12, 1e-10),
                    samples: Optional[np.ndarray] = None) -> AttractorReport:
    """Attractor type of the forced system seen through the stroboscopic map.

    Tests, in order: contraction of the samples to a point (a periodically
    entrained solution), revisit of a finite set of q <= 32 points (locked
    torus; the revisit test deliberately precedes the curve test, since a
    low-order rational rotation number is decisively detectable), and an
    invariant closed curve -- nearest-neighbor adjacency gaps bounded by
    ``5 x median`` and by 2% of the curve extent, monotone winding, and a
    convergent rotation number.  Anything else is reported irregular.
    All thresholds appear in ``evidence``.

    A precomputed ``samples`` array (as produced by
    :func:`~qvdp.integrate.stroboscopic`) skips the integration.
    """
    if p.alpha == 0:
        raise ValueError("classify_forced requires alpha != 0")
    if samples is None:
        samples = stroboscopic(p, s0, n, tol=tol)
    tail = samples[len(samples) // 4:]
    evidence: dict = {
        "n": n,
        "thresholds": {
            "equilibrium_delta": _EQ_DELTA,
            "revisit_tol": _REVISIT_TOL,
            "max_locked_q": _MAX_LOCKED_Q,
            "gap_factor": _GAP_FACTOR,
            "rotation_convergence": _ROT_CONVERGENCE,
        },
    }

    # 1. fixed point of the stroboscopic map
    deltas = np.hypot(*np.diff(tail[-64:], axis=0).T)
    evidence["final_delta"] = float(np.max(deltas))
    if np.max(deltas) < _EQ_DELTA:
        return AttractorReport(Verdict.EQUILIBRIUM, None, evidence)

    # 2. locked orbit of low period
    check = tail[-256:]
    for q in range(1, _MAX_LOCKED_Q + 1):
        if len(check) <= q:
            break
        d = np.hypot(*(check[q:] - check[:-q]).T)
        if np.max(d) < _REVISIT_TOL:
            evidence["locked_q"] = q
            rot = rotation_number(tail, tail.mean(axis=0))
            return AttractorReport(Verdict.PERIODIC_LOCKED,
                                   rot.value if rot else None, evidence)

    # 3. invariant closed curve
    closure = _closure_diagnostics(tail)
    evidence["closure"] = closure
    half_closure = _closure_diagnostics(tail[: len(tail) // 2])
    # recorded for audit; not gated on: near-resonant rotation numbers fill
    # the curve lumpily and stall the O(1/n) shrink at these sample counts
    evidence["gap_shrink_ratio"] = float(
        closure["median_gap"] / max(half_closure["median_gap"], 1e-300))
    rot = rotation_number(tail, closure["center"])
    if rot is not None:
        evidence["rotation"] = {"value": rot.value, "error": rot.error,
                                "locked_q": rot.locked_q}
    curve_like = (
        len(tail) >= _MIN_CURVE_SAMPLES
        and closure["gap_ratio"] < _GAP_FACTOR
        and closure["relative_max_gap"] < _REL_GAP_MAX
        and closure["min_radius"] > 0.0
        and rot is not None
        and rot.error < _ROT_CONVERGENCE
    )
    if curve_like:
        return AttractorReport(Verdict.QUASI_PERIODIC, rot.value, evidence)
    return AttractorReport(Verdict.IRREGULAR,
                           rot.value if rot is not None else None, evidence)
