"""Finite equilibria of the unforced oscillator: location, eigenvalues, type.

The unforced system has the origin O as an equilibrium for every admissible
parameter choice, and the symmetric pair E1 = (-sqrt(beta/eps), 0),
E2 = (sqrt(beta/eps), 0) exactly when beta > 0 and eps > 0.  Classification
is by closed form: characteristic roots at O solve

    lambda^2 - mu lambda - beta = 0

and at E1/E2

    lambda^2 - (mu - mu_c) lambda + 2 beta = 0,   mu_c = (beta^2 - eps*beta)/eps^2.

The eigenvalue discriminant at E1/E2 changes sign at mu_1 = mu_c - 2 sqrt(2 beta)
and mu_2 = mu_c + 2 sqrt(2 beta); together with the sign of mu - mu_c these
delimit the stable node / stable focus / unstable focus / unstable node bands.

Degenerate linearizations (a zero eigenvalue at beta = 0, a double zero at
beta = mu = 0) are classified by the known closed-form answer for this family
rather than by runtime center-manifold reduction; the double-zero case at
beta = 0, eps > 0, mu = 0 is a focus that is unstable through the cubic terms
and is reported with its own enum member.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .model import Params, State

__all__ = [
    "EquilibriumKind",
    "EqLabel",
    "Equilibrium",
    "CriticalMus",
    "find_equilibria",
    "critical_mus",
    "classify",
    "eigenvalues_at",
]


class EquilibriumKind(enum.Enum):
    SADDLE = "saddle"
    STABLE_NODE = "stable_node"
    UNSTABLE_NODE = "unstable_node"
    STABLE_FOCUS = "stable_focus"
    UNSTABLE_FOCUS = "unstable_focus"
    # double-zero linearization at beta = mu = 0, eps > 0; unstable focus by
    # the cubic terms, flagged separately because the eigenvalues carry no
    # stability information there
    DEGENERATE_UNSTABLE_FOCUS = "degenerate_unstable_focus"

    @property
    def stable(self) -> bool:
        return self in (EquilibriumKind.STABLE_NODE, EquilibriumKind.STABLE_FOCUS)


class EqLabel(enum.Enum):
    O = "O"
    E1 = "E1"
    E2 = "E2"


@dataclass(frozen=True)
class Equilibrium:
    location: State
    eigs: tuple[complex, complex]
    kind: EquilibriumKind
    label: EqLabel


@dataclass(frozen=True)
class CriticalMus:
    """Critical damping offsets of the E1/E2 pair.

    mu1 < muc < mu2 for beta > 0: node/focus transitions at mu1 and mu2,
    loss of stability (Hopf) at muc.
    """

    mu1: float
    muc: float
    mu2: float


def critical_mus(p: Params) -> CriticalMus:
    """Return (mu1, muc, mu2) for the E1/E2 pair; requires beta>0, eps>0."""
    if not (p.beta > 0 and p.eps > 0):
        raise ValueError("critical mus require beta > 0 and eps > 0")
    muc = (p.beta ** 2 - p.eps * p.beta) / p.eps ** 2
    half_width = 2.0 * math.sqrt(2.0 * p.beta)
    return CriticalMus(mu1=muc - half_width, muc=muc, mu2=muc + half_width)


def _eigs_at_origin(p: Params) -> tuple[complex, complex]:
    # roots of lambda^2 - mu lambda - beta = 0; real for beta >= 0
    disc = p.mu * p.mu + 4.0 * p.beta
    r = math.sqrt(disc)
    return (complex(0.5 * (p.mu + r)), complex(0.5 * (p.mu - r)))


def _eigs_at_pair(p: Params) -> tuple[complex, complex]:
    # roots of lambda^2 - sigma lambda + 2 beta = 0, sigma = mu - muc
    sigma = p.mu - critical_mus(p).muc
    disc = sigma * sigma - 8.0 * p.beta
    root = cmath.sqrt(complex(disc))
    return (0.5 * (sigma + root), 0.5 * (sigma - root))


def _kind_at_origin(p: Params) -> EquilibriumKind:
    if p.beta > 0:
        # one positive, one negative real root for any mu, eps
        return EquilibriumKind.SADDLE
    # beta == 0
    if p.eps < 0:
        return EquilibriumKind.SADDLE
    # eps > 0 (eps == 0 with beta == 0 is excluded by Params)
    if p.mu < 0:
        return EquilibriumKind.STABLE_NODE
    if p.mu == 0:
        return EquilibriumKind.DEGENERATE_UNSTABLE_FOCUS
    return EquilibriumKind.UNSTABLE_NODE


def _kind_at_pair(p: Params) -> EquilibriumKind:
    mus = critical_mus(p)
    if p.mu <= mus.mu1:
        return EquilibriumKind.STABLE_NODE
    if p.mu <= mus.muc:
        return EquilibriumKind.STABLE_FOCUS
    if p.mu < mus.mu2:
        return EquilibriumKind.UNSTABLE_FOCUS
    return EquilibriumKind.UNSTABLE_NODE


def find_equilibria(p: Params) -> list[Equilibrium]:
    """All finite equilibria, with closed-form eigenvalues and kinds.

    Returns [O] when beta == 0 or eps <= 0, and [O, E1, E2] when beta > 0
    and eps > 0.
    """
    out = [Equilibrium(location=State(0.0, 0.0), eigs=_eigs_at_origin(p),
                       kind=_kind_at_origin(p), label=EqLabel.O)]
    if p.beta > 0 and p.eps > 0:
        x2 = math.sqrt(p.beta / p.eps)
        eigs = _eigs_at_pair(p)
        kind = _kind_at_pair(p)
        out.append(Equilibrium(State(-x2, 0.0), eigs, kind, EqLabel.E1))
        out.append(Equilibrium(State(x2, 0.0), eigs, kind, EqLabel.E2))
    return out


def classify(e: Equilibrium, p: Params) -> EquilibriumKind:
    """Type and stability of equilibrium ``e`` under parameters ``p``."""
    if e.label is EqLabel.O:
        return _kind_at_origin(p)
    return _kind_at_pair(p)


def eigenvalues_at(e: Equilibrium, p: Params) -> tuple[complex, complex]:
    """Characteristic roots of the linearization at ``e`` (closed form)."""
    if e.label is EqLabel.O:
        return _eigs_at_origin(p)
    return _eigs_at_pair(p)
