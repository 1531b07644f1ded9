"""Trajectory verdicts: limit cycles, separatrix splitting, forced attractors.

Limit cycles of the unforced system are located as fixed points of the
Poincare return map on the section {y = 0}, taken between successive
downward crossings.  Since x' = y, every cycle this family produces
crosses the axis going down exactly once per period, at its largest x,
where y' = g(x) < 0: the single cycle around the origin (beta = 0) right
of O, the small cycle around E2 and the large cycle enclosing all three
equilibria right of E2, and the small cycle around E1, the Z2 image of
the one around E2, between E1 and O.  Each return is one
integration, stopped by a terminal event at the crossing, of the state
augmented with the divergence integral.  By Liouville's formula the return
map on {y = 0} has the derivative

    P'(x0) = g(x0) / g(P(x0)) * exp(int div dt),   g(x) = beta x - eps x^3,

(Perko, Differential Equations and Dynamical Systems, sec. 3.4), so every
return carries its own slope.  The search reports the attracting cycle the
seed's forward orbit reaches: it follows the orbit return by return and
shortcuts it by a Newton step wherever the map contracts and the step
shrinks the residual.  It stops only at a fixed point that attracts,
P'(x) < 1: next to a weakly repelling focus a return closes as tightly as
at a cycle, but the orbit leaves it.  It ends without a cycle where a
section point and its return both lie near an equilibrium that attracts;
a repelling focus ends none, since past mu_c a small stable cycle rings
it.  At the cycle the nontrivial Floquet multiplier is exp(int_0^T div dt),
read off the closing return, and its geometry is sampled from that
return's dense output.

Homoclinic proximity is measured by shooting: the unstable manifold of the
saddle at the origin is launched forward, the stable manifold backward,
both from 1e-8 offsets along the respective eigenvectors, each integrated
once up to its first return to the section, and the signed gap between the
two returns brackets the homoclinic connection as mu varies.  A return,
forward or backward, is the first crossing of the section that goes down
in forward time: a backward run meets it going up.

The forced system is judged through its stroboscopic map: contraction to a
point (a harmonically entrained periodic solution), a revisited finite set
(locked torus), an invariant closed curve with convergent rotation number
(quasi-periodic two-frequency motion), or none of these.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .equilibria import EqLabel, find_equilibria
from .integrate import (NonFinite, NoConvergence, escape_bound, integrate,
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

_FIXED_POINT_RESIDUAL = 1e-8
_MAX_RETURNS = 60
_RETURN_HORIZON = 240.0
# a section point and its return both closer than this to an equilibrium
# that attracts are a spiral collapsing into it, not a cycle
_COLLAPSE_RADIUS = 1e-2


class ManifoldEscape(RuntimeError):
    """A separatrix branch escaped, or did not reach the section in time."""


@dataclass(frozen=True)
class LimitCycle:
    representative: State        # on {y = 0}, at the cycle's largest x
    period: float
    amplitude: float             # max |x| along the cycle
    floquet: float               # nontrivial return-map multiplier
    stable: bool
    encloses: frozenset          # EqLabel members wound around
    # one period sampled at 2001 equally spaced times, (x, y) per row
    path: np.ndarray = field(repr=False, compare=False)


class SeparatrixSplit(NamedTuple):
    distance: float              # x_unstable - x_stable, right of E2


class Verdict(enum.Enum):
    EQUILIBRIUM = "equilibrium"
    PERIODIC_LOCKED = "periodic_locked"
    QUASI_PERIODIC = "quasi_periodic"
    IRREGULAR = "irregular"


class RotationEstimate(NamedTuple):
    value: float
    error: float
    locked_q: Optional[int] = None


class AttractorReport(NamedTuple):
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

def _first_return(field_fn, s0, t_max, escape_radius):
    """One integration from ``s0`` to its first return to the section {y = 0}.

    The return is the first crossing of the axis that goes down in forward
    time, for a span (0, t_max) of either sign: a backward run (t_max < 0)
    meets it going up along the run.  The stop event is ``sign * y``, with
    sign -1 forward and +1 backward, so it rises through zero at the return
    either way.
    Returns the trajectory, whose final state lies on the section, or None
    when no such crossing occurs within ``t_max``; raises
    :class:`~qvdp.integrate.NonFinite` on escape.  A start exactly on the
    section is not a crossing.
    """
    sign = -1 if t_max > 0 else 1

    def crossing(t, s):
        return sign * s[1]

    traj = integrate(field_fn, s0, (0.0, t_max),
                     escape_radius=escape_radius, stop_event=crossing)
    return traj if traj.stopped else None


def find_limit_cycle(p: Params, seed: State) -> Optional[LimitCycle]:
    """Locate the attracting limit cycle the forward orbit of ``seed`` reaches.

    Each step makes one return from x on the section {y = 0}.  Where the
    return map contracts (slope P'(x) < 1, from Liouville's formula) a
    Newton step is tried and kept only if it shrinks the residual
    |P(x) - x|; otherwise, and always near a repelling focus, the iterate
    follows the seed's orbit to P(x).  A Newton step keeps the sign of x,
    as every return does: a cycle around E1 crosses the section between E1
    and O, every other cycle right of E2 (or of O at beta = 0).  The first
    return that closes to within 1e-8 where the map contracts gives the
    period, the path and the multiplier; one that closes next to a weakly
    repelling focus (P'(x) > 1) is followed on.

    Returns None when the orbit collapses, x and P(x) both within 1e-2 of
    an equilibrium that attracts (checked on every return, before the
    residual), or never crosses the section; raises
    :class:`~qvdp.integrate.NoConvergence` if none of 60 returns from the
    section closes onto a fixed point that attracts.  The returns take
    their bound from :func:`~qvdp.integrate.escape_bound`, which gives
    forward eps > 0 runs none: every such orbit is bounded (the equator
    repels it), so a large cycle is found however far out it lies.  A seed
    where the field overflows raises :class:`~qvdp.integrate.NonFinite`.

    For eps <= 0 it returns None at once, without integrating: the origin
    is then the only equilibrium, a saddle of index -1, and a cycle must
    enclose equilibria of index sum +1, so there is no cycle to find.  The
    integration would only crawl off to infinity, and the escape bound of
    10 would make the search raise.
    """
    if p.eps <= 0.0:
        return None
    rhs = unforced_rhs(p)
    bound = escape_bound(p, _RETURN_HORIZON)
    eqs = find_equilibria(p)

    def aug_field(t, s):
        # (x, y) and the divergence integral along the orbit
        return (*rhs(t, s[:2]), divergence(s[0], p))

    def ret(x, y=0.0):
        return _first_return(aug_field, (x, y, 0.0), _RETURN_HORIZON, bound)

    def g(x):
        # y' on the section {y = 0}
        return p.beta * x - p.eps * x ** 3

    first = ret(float(seed[0]), float(seed[1]))
    if first is None:
        return None
    x_try, newton = float(first.final[0]), False
    for _ in range(_MAX_RETURNS):
        trial = ret(x_try)
        if newton and (trial is None
                       or abs(float(trial.final[0]) - x_try) >= abs(resid)):
            x_try, newton = px, False  # rejected: follow the orbit instead
            continue
        if trial is None:
            return None
        x, hit = x_try, trial
        px = float(hit.final[0])
        if any(max(abs(x - e.location.x), abs(px - e.location.x))
               < _COLLAPSE_RADIUS for e in eqs if e.kind.stable):
            return None  # spiral collapsing into an attracting equilibrium
        resid = px - x
        # Liouville: P'(x) = g(x) / g(P(x)) * exp(int div dt)
        slope = g(x) / g(px) * math.exp(hit.final[2]) if g(px) else math.inf
        if abs(resid) < _FIXED_POINT_RESIDUAL and slope < 1.0:
            break  # a fixed point that attracts, not a slow repelling focus
        x_try, newton = px, False
        if slope < 1.0:
            step = -resid / (slope - 1.0)
            if abs(step) <= 0.5 * max(abs(x), 1.0):
                x_try = x + step if (x + step > 0.0) == (x > 0.0) else 0.5 * x
                newton = True
    else:
        raise NoConvergence(f"none of {_MAX_RETURNS} returns from the section "
                            f"closed to within {_FIXED_POINT_RESIDUAL:g} "
                            "onto a fixed point that attracts")

    period = hit.t1

    # geometry from the dense output of the closing return
    path = hit.at(np.linspace(0.0, period, 2001))[:, :2]

    # Liouville: the multiplier is exp of the divergence integral over a period
    floquet = math.exp(hit.final[2])
    encloses = frozenset(
        e.label for e in eqs
        if winding_number(path, (e.location.x, e.location.y)) != 0)
    return LimitCycle(representative=State(x, 0.0),
                      period=float(period),
                      amplitude=float(np.max(np.abs(path[:, 0]))),
                      floquet=floquet,
                      stable=abs(floquet) < 1.0,
                      encloses=encloses,
                      path=path)


# --- separatrix shooting ---------------------------------------------------

_LAUNCH_OFFSET = 1e-8
_SHOOT_HORIZON = 400.0


def _saddle_eigvectors(p: Params):
    lam_u, lam_s = find_equilibria(p)[0].eigs  # the origin
    vu = np.array([1.0, lam_u.real])
    vs = np.array([1.0, lam_s.real])
    return vu / np.linalg.norm(vu), vs / np.linalg.norm(vs)


def separatrix_split(p: Params) -> SeparatrixSplit:
    """Signed gap between the saddle separatrices on the section {y = 0}.

    The unstable manifold (x > 0 branch) is integrated forward from a 1e-8
    offset along the unstable eigenvector; the stable manifold backward
    from the stable eigenvector, over the negative time span (0, -400).
    Both branches stay in x > 0 until their first return, so the gap is
    measured right of E2.
    ``distance = x_unstable - x_stable``
    changes sign across the homoclinic connection; its zero tracks the
    Melnikov root to first order in the perturbation.

    Each shot takes its bound from :func:`~qvdp.integrate.escape_bound`,
    like every other run: the forward, unstable one none, so a saddle loop
    is found however far out it reaches, and the backward, stable one
    10 max(1, mu, beta/sqrt(2 eps)), where beta/sqrt(2 eps) is the saddle
    loop's height |y|, so the stable branch follows a large loop back.
    Raises :class:`ManifoldEscape` when a shot escapes its bound or does
    not return within the horizon of 400.
    """
    if not (p.beta > 0 and p.eps > 0):
        raise ValueError("separatrix shooting requires a saddle: beta, eps > 0")
    rhs = unforced_rhs(p)

    def shoot(s0, t_max):
        bound = escape_bound(p, t_max)
        try:
            traj = _first_return(rhs, s0, t_max, bound)
        except NonFinite as exc:
            raise ManifoldEscape(
                f"separatrix branch left |x|,|y| <= {bound:g}") from exc
        if traj is None:
            raise ManifoldEscape(
                "no section crossing within the shooting horizon")
        return float(traj.final[0])

    vu, vs = _saddle_eigvectors(p)
    x_unstable = shoot(_LAUNCH_OFFSET * vu, _SHOOT_HORIZON)
    x_stable = shoot(_LAUNCH_OFFSET * vs, -_SHOOT_HORIZON)
    return SeparatrixSplit(distance=x_unstable - x_stable)


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


_NN_BLOCK = 64  # query rows per block of the nearest-neighbor distances


def _nearest_neighbor_distances(pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its nearest other point.

    Brute force over blocks of rows, so the work arrays stay at
    ``_NN_BLOCK x len(pts)``.  The distance is sqrt(dx*dx + dy*dy), taken
    after the minimum (sqrt is monotone and correctly rounded), the same
    value a KD-tree query returns.
    """
    x, y = pts[:, 0], pts[:, 1]
    nn = np.empty(len(pts))
    for lo in range(0, len(pts), _NN_BLOCK):
        hi = min(lo + _NN_BLOCK, len(pts))
        dx = x[lo:hi, None] - x
        dy = y[lo:hi, None] - y
        d2 = dx * dx + dy * dy
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # not itself
        nn[lo:hi] = d2.min(axis=1)
    return np.sqrt(nn)


def _closure_diagnostics(tail: np.ndarray) -> dict:
    """Adjacency-gap statistics of a candidate invariant curve.

    Adjacency along the curve is taken as nearest-neighbor proximity: the
    plain angular sort around the centroid breaks down for the large-cycle
    torus, whose section curve is not star-shaped.  A filled closed curve
    has every sample flanked closely on both sides, so the largest
    nearest-neighbor chord stays within a small factor of the median and
    tiny relative to the curve extent.
    """
    center = tail.mean(axis=0)
    radii = np.hypot(tail[:, 0] - center[0], tail[:, 1] - center[1])
    nn = _nearest_neighbor_distances(tail)
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
                    samples: Optional[np.ndarray] = None) -> AttractorReport:
    """Attractor type of the forced system seen through the stroboscopic map.

    Tests, in order: contraction of the samples to a point (a periodically
    entrained solution), revisit of a finite set of q <= 32 points (locked
    torus; the revisit test deliberately precedes the curve test, since a
    low-order rational rotation number is decisively detectable), and an
    invariant closed curve -- nearest-neighbor adjacency gaps bounded by
    ``5 x median`` and by 2% of the curve extent, monotone winding, and a
    convergent rotation number.  Anything else is reported irregular.
    ``evidence["thresholds"]`` lists every threshold except the curve
    test's 2% thinness bound and its 200-sample minimum.

    A precomputed ``samples`` array (as produced by
    :func:`~qvdp.integrate.stroboscopic`) skips the integration.
    """
    if p.alpha == 0:
        raise ValueError("classify_forced requires alpha != 0")
    if samples is None:
        samples = stroboscopic(p, s0, n)
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
    half = tail[: len(tail) // 2]
    if len(half) >= 2:  # a lone sample has no nearest neighbour
        # recorded for audit; not gated on: near-resonant rotation numbers
        # fill the curve lumpily and stall the O(1/n) shrink at these counts
        half_gap = float(np.median(_nearest_neighbor_distances(half)))
        evidence["gap_shrink_ratio"] = float(
            closure["median_gap"] / max(half_gap, 1e-300))
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
