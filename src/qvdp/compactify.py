"""Poincare-disk compactification: charts, fields at infinity, equilibrium catalogue.

Directions at infinity are studied in two polynomial charts.  Chart U covers
the equator near (+-1, 0) via x = 1/z, y = u/z; chart V covers (0, +-1) via
x = v/z, y = 1/z.  After the time rescale dt = z^4 dtau both fields are
polynomial and evaluate without singular division, including on the equator
z = 0:

    chart U:  du/dtau = -u - eps z^2 + z^2 u + beta z^4 + mu z^4 u - u^2 z^4
              dz/dtau = -z^5 u

    chart V:  dv/dtau = z^4 + v^5 - mu z^4 v - beta v^2 z^4 - v^3 z^2 + eps v^4 z^2
              dz/dtau = -mu z^5 - v^2 z^3 + v^4 z - beta v z^5 + eps v^3 z^3

The equator carries four equilibria: the pair B at (+-1, 0) (chart U origin)
and the pair C at (0, +-1) (chart V origin).  C is an unstable node for all
parameters; B is a stable node for eps <= 0 and a degenerate saddle for
eps > 0.  Because the rescale dt = z^4 dtau has even degree, both antipodal
copies share the kind.  The catalogue is stored closed-form and checked
numerically by trajectory-direction probes (see :func:`probe_infinity_kind`):
the blow-up chain that proves it is not reproduced at runtime.  All four
points share one probe loop, one verdict rule and one kind rule; only the
chart, the size measure and its thresholds differ between B and C.  Each
probe is one :func:`~qvdp.integrate.integrate` call stopped at its leave
threshold, so a failed integration raises instead of being read as a verdict.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .equilibria import EquilibriumKind
from .integrate import integrate
from .model import Params, State

__all__ = [
    "InfinityLabel",
    "InfinityEquilibrium",
    "field_chart_u",
    "field_chart_v",
    "finite_to_chart_u",
    "finite_to_chart_v",
    "infinity_equilibria",
    "disk_project",
    "ProbeReport",
    "probe_infinity_kind",
]


class InfinityLabel(enum.Enum):
    B_PLUS = "B+"    # disk point (1, 0)
    B_MINUS = "B-"   # disk point (-1, 0)
    C_PLUS = "C+"    # disk point (0, 1)
    C_MINUS = "C-"   # disk point (0, -1)


_DISK_LOCATION = {
    InfinityLabel.B_PLUS: (1.0, 0.0),
    InfinityLabel.B_MINUS: (-1.0, 0.0),
    InfinityLabel.C_PLUS: (0.0, 1.0),
    InfinityLabel.C_MINUS: (0.0, -1.0),
}


class InfinityEquilibrium(NamedTuple):
    disk_location: tuple[float, float]
    kind: EquilibriumKind
    label: InfinityLabel


def field_chart_u(u: float, z: float, p: Params) -> tuple[float, float]:
    """Rescaled field (du/dtau, dz/dtau) in chart U; polynomial, total on R^2."""
    z2 = z * z
    z4 = z2 * z2
    du = -u - p.eps * z2 + z2 * u + p.beta * z4 + p.mu * z4 * u - u * u * z4
    dz = -z4 * z * u
    return (du, dz)


def field_chart_v(v: float, z: float, p: Params) -> tuple[float, float]:
    """Rescaled field (dv/dtau, dz/dtau) in chart V; polynomial, total on R^2."""
    v2 = v * v
    z2 = z * z
    z4 = z2 * z2
    dv = z4 + v2 * v2 * v - p.mu * z4 * v - p.beta * v2 * z4 \
        - v2 * v * z2 + p.eps * v2 * v2 * z2
    dz = -p.mu * z4 * z - v2 * z2 * z + v2 * v2 * z - p.beta * v * z4 * z \
        + p.eps * v2 * v * z2 * z
    return (dv, dz)


def finite_to_chart_u(s: State) -> tuple[float, float]:
    """(u, z) coordinates of a finite state with x != 0."""
    x, y = s
    if x == 0:
        raise ValueError("chart U requires x != 0")
    return (y / x, 1.0 / x)


def finite_to_chart_v(s: State) -> tuple[float, float]:
    """(v, z) coordinates of a finite state with y != 0."""
    x, y = s
    if y == 0:
        raise ValueError("chart V requires y != 0")
    return (x / y, 1.0 / y)


def infinity_equilibria(p: Params) -> list[InfinityEquilibrium]:
    """The four equator equilibria with their parameter-dependent kinds."""
    b_kind = EquilibriumKind.SADDLE if p.eps > 0 else EquilibriumKind.STABLE_NODE
    c_kind = EquilibriumKind.UNSTABLE_NODE
    kinds = {
        InfinityLabel.B_PLUS: b_kind,
        InfinityLabel.B_MINUS: b_kind,
        InfinityLabel.C_PLUS: c_kind,
        InfinityLabel.C_MINUS: c_kind,
    }
    return [InfinityEquilibrium(_DISK_LOCATION[lab], kinds[lab], lab)
            for lab in InfinityLabel]


def disk_project(s: State) -> tuple[float, float]:
    """Radial compression of the finite plane onto the open unit disk.

    (x, y) -> (x, y) / (1 + sqrt(1 + x^2 + y^2)); continuous, injective,
    fixes the origin, and strictly monotone in radius along every ray.
    """
    x, y = s
    denom = 1.0 + math.sqrt(1.0 + x * x + y * y)
    return (x / denom, y / denom)


# --- numerical verification of the catalogue -------------------------------

class ProbeReport(NamedTuple):
    """Trajectory-direction evidence for the kind of an equator equilibrium.

    ``verdicts`` holds one of 'approach'/'leave'/'undecided' per probe, in
    angular order around the equilibrium; ``sector_alternations`` counts
    verdict changes around the circle (4 for a saddle with two hyperbolic
    sector pairs, 0 for a node); ``inferred_kind`` is the conclusion.
    """

    verdicts: tuple[str, ...]
    sector_alternations: int
    inferred_kind: EquilibriumKind


_N_PROBES = 16
_PROBE_RADIUS = 0.35
_PROBE_TAU = 400.0
# per pair: chart field, probe size measure, and the leave / approach
# thresholds on that size as multiples of the probe radius
_B_PROBE = (field_chart_u, lambda s: abs(s[1]), 1.15, 0.85)
_C_PROBE = (field_chart_v, lambda s: math.hypot(s[0], s[1]), 1.6, 0.5)


def _probe_verdict(chart, p: Params, s0) -> str:
    """'leave', 'approach' or 'undecided' for one probe orbit from ``s0``."""
    field, size, grow, shrink = chart

    def leave(t, s):
        return size(s) - grow * _PROBE_RADIUS
    traj = integrate(lambda t, s: field(*s, p), s0,
                     (0.0, _PROBE_TAU), tol=(1e-12, 1e-9),
                     t_eval=(0.0, _PROBE_TAU), stop_event=leave)
    if traj.stopped:
        return "leave"
    if size(traj.final) <= shrink * _PROBE_RADIUS:
        return "approach"
    return "undecided"


def _count_alternations(verdicts: list[str]) -> int:
    decided = [v for v in verdicts if v != "undecided"]
    if len(decided) < 2:
        return 0
    flips = sum(1 for a, b in zip(decided, decided[1:]) if a != b)
    if decided[0] != decided[-1]:
        flips += 1
    return flips


def probe_infinity_kind(p: Params, label: InfinityLabel) -> ProbeReport:
    """Numerically infer the kind of an equator equilibrium from probe orbits.

    Sixteen probes ring the equilibrium at radius 0.35 in its chart (U for
    the B pair, V for the C pair) and run for up to tau = 400, sampled at
    tau = 0 and 400 alone (``t_eval``, so no interpolant is kept).  One
    rule gives every verdict: a probe leaves once its size grows past the
    leave threshold, approaches if it ends at or below the approach
    threshold, and is undecided otherwise.  At B the size is the center
    coordinate |z| with thresholds 1.15 and 0.85 times the start (the
    hyperbolic u direction is uniformly contracting, so radius alone cannot
    separate the degenerate saddle from the node); at C it is the chart
    radius with thresholds 1.6 and 0.5.  One rule gives the kind from the
    decided verdicts: all approach is a stable node, all leave an unstable
    node, anything else a saddle.

    At B the z coordinate of each probe is padded to +-0.35 so its slow
    drift is observable within tau = 400, keeping the angular sign
    pattern; the two probes exactly on the u axis witness the contracting
    separatrix pair and approach without integration.
    """
    at_b = label in (InfinityLabel.B_PLUS, InfinityLabel.B_MINUS)
    chart = _B_PROBE if at_b else _C_PROBE
    radius = _PROBE_RADIUS
    verdicts: list[str] = []
    for k in range(_N_PROBES):
        th = 2.0 * math.pi * k / _N_PROBES
        a, b = radius * math.cos(th), radius * math.sin(th)
        if at_b:
            if abs(b) < 1e-12:
                verdicts.append("approach")  # invariant axis: u' = -u + O(u^2 z^4)
                continue
            b = math.copysign(radius, b)
        verdicts.append(_probe_verdict(chart, p, (a, b)))

    decided = [v for v in verdicts if v != "undecided"]
    if decided and all(v == "approach" for v in decided):
        kind = EquilibriumKind.STABLE_NODE
    elif decided and all(v == "leave" for v in decided):
        kind = EquilibriumKind.UNSTABLE_NODE
    else:
        kind = EquilibriumKind.SADDLE
    return ProbeReport(tuple(verdicts), _count_alternations(verdicts), kind)
