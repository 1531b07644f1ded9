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
the blow-up chain that proves it is not reproduced at runtime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .equilibria import EquilibriumKind
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


@dataclass(frozen=True)
class InfinityEquilibrium:
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

@dataclass(frozen=True)
class ProbeReport:
    """Trajectory-direction evidence for the kind of an equator equilibrium.

    ``verdicts`` holds one of 'approach'/'leave'/'undecided' per probe, in
    angular order around the equilibrium; ``sector_alternations`` counts
    verdict changes around the circle (4 for a saddle with two hyperbolic
    sector pairs, 0 for a node); ``inferred_kind`` is the conclusion.
    """

    verdicts: tuple[str, ...]
    sector_alternations: int
    inferred_kind: EquilibriumKind


def _b_probe_verdict(p: Params, u0: float, z0: float,
                     tau_max: float, grow: float, shrink: float) -> str:
    # the u direction contracts like e^(-tau) for every parameter choice;
    # the kind is decided by the slow drift of the center coordinate z
    def rhs(t, s):
        return np.array(field_chart_u(s[0], s[1], p))

    if z0 == 0.0:
        return "approach"  # invariant axis: u' = -u + O(u^2 z^4)
    sol = solve_ivp(rhs, (0.0, tau_max), np.array([u0, z0]),
                    rtol=1e-9, atol=1e-12)
    zT = sol.y[1, -1]
    if abs(zT) >= grow * abs(z0):
        return "leave"
    if abs(zT) <= shrink * abs(z0):
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


def probe_infinity_kind(p: Params, label: InfinityLabel,
                        n_probes: int = 16, radius: float = 0.35,
                        tau_max: float = 400.0) -> ProbeReport:
    """Numerically infer the kind of an equator equilibrium from probe orbits.

    For the B pair, probes ring the chart-U origin; verdicts compare the
    center coordinate |z| against its start (the hyperbolic u direction is
    uniformly contracting, so radius alone cannot separate the degenerate
    saddle from the node).  Probes exactly on the u axis witness the
    contracting separatrix pair.  For the C pair, probes ring the chart-V
    origin and the verdict is plain radius growth, which every direction
    exhibits at an unstable node.

    Probe angles avoid degenerate near-axis starts by padding the z
    coordinate away from zero; the two on-axis directions are kept exact.
    """
    angles = 2.0 * np.pi * np.arange(n_probes) / n_probes
    verdicts: list[str] = []

    if label in (InfinityLabel.B_PLUS, InfinityLabel.B_MINUS):
        for th in angles:
            u0 = radius * math.cos(th)
            z0 = radius * math.sin(th)
            if abs(z0) < 1e-12:
                z0 = 0.0  # exact invariant axis
            else:
                # pin the slow coordinate to the probe radius so its
                # degree-7 drift is observable within tau_max; the angular
                # sign pattern is preserved
                z0 = math.copysign(radius, z0)
            verdicts.append(_b_probe_verdict(p, u0, z0, tau_max,
                                             grow=1.15, shrink=0.85))
        flips = _count_alternations(verdicts)
        decided = [v for v in verdicts if v != "undecided"]
        if decided and all(v == "approach" for v in decided):
            kind = EquilibriumKind.STABLE_NODE
        elif decided and all(v == "leave" for v in decided):
            kind = EquilibriumKind.UNSTABLE_NODE
        else:
            kind = EquilibriumKind.SADDLE
        return ProbeReport(tuple(verdicts), flips, kind)

    # C pair, chart V: unstable node, all probes leave
    def rhs(t, s):
        return np.array(field_chart_v(s[0], s[1], p))

    r_out = 1.6 * radius
    for th in angles:
        s0 = np.array([radius * math.cos(th), radius * math.sin(th)])

        def leave(t, s):
            return math.hypot(s[0], s[1]) - r_out
        leave.terminal = True
        leave.direction = 1
        sol = solve_ivp(rhs, (0.0, tau_max), s0, rtol=1e-9, atol=1e-12,
                        events=[leave])
        if len(sol.t_events[0]) > 0:
            verdicts.append("leave")
        else:
            rT = math.hypot(sol.y[0, -1], sol.y[1, -1])
            verdicts.append("approach" if rT < 0.5 * radius else "undecided")
    flips = _count_alternations(verdicts)
    if all(v == "leave" for v in verdicts):
        kind = EquilibriumKind.UNSTABLE_NODE
    elif all(v == "approach" for v in verdicts):
        kind = EquilibriumKind.STABLE_NODE
    else:
        kind = EquilibriumKind.SADDLE
    return ProbeReport(tuple(verdicts), flips, kind)
