"""Finite equilibria of the unforced oscillator: location, eigenvalues, type.

The unforced system has the origin O as an equilibrium for every admissible
parameter choice, and the symmetric pair E1 = (-sqrt(beta/eps), 0),
E2 = (sqrt(beta/eps), 0) exactly when beta > 0 and eps > 0.  Classification
is by closed form: the characteristic roots at every equilibrium solve

    lambda^2 - s lambda + m beta = 0,   mu_c = (beta^2 - eps*beta)/eps^2,

with (s, m) = (mu, -1) at O and (mu - mu_c, 2) at E1/E2, and one solver
takes them at either point.
The eigenvalue discriminant at E1/E2 changes sign at mu_1 = mu_c - 2 sqrt(2 beta)
and mu_2 = mu_c + 2 sqrt(2 beta); together with the sign of mu - mu_c these
delimit the stable node / stable focus / unstable focus / unstable node bands.
The band decides the kind, and the eigenvalues are complex exactly at a focus.

Every closed form here and in :mod:`qvdp.bifurcation` has one formula and
one range rule, :func:`scale_exponent`.  Inside [2^-500, 2^500] it gives
k = 0: no intermediate such as beta^2 or s^2 can leave the normal range,
and the formula runs on its inputs as they are.  Outside that box it runs
on them divided by a power of two, which is exact, and an eigenvalue is
scaled back.  Every value that is a finite double then stays finite and
keeps the bits the direct formula gives wherever its intermediates are
normal; every other value raises ValueError.

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
from typing import NamedTuple

from .model import Params, State

__all__ = [
    "EquilibriumKind",
    "EqLabel",
    "Equilibrium",
    "CriticalMus",
    "find_equilibria",
    "critical_mus",
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

    @property
    def focus(self) -> bool:
        return self in (EquilibriumKind.STABLE_FOCUS,
                        EquilibriumKind.UNSTABLE_FOCUS,
                        EquilibriumKind.DEGENERATE_UNSTABLE_FOCUS)


class EqLabel(enum.Enum):
    O = "O"
    E1 = "E1"
    E2 = "E2"


class Equilibrium(NamedTuple):
    location: State
    eigs: tuple[complex, complex]
    kind: EquilibriumKind
    label: EqLabel


class CriticalMus(NamedTuple):
    """Critical damping offsets of the E1/E2 pair.

    mu1 < muc < mu2 for beta > 0: node/focus transitions at mu1 and mu2,
    loss of stability (Hopf) at muc.
    """

    mu1: float
    muc: float
    mu2: float


def scale_exponent(s: float, c: float, c2: float = 1.0) -> int:
    """The closed forms' one range rule: k = 0 where |s| <= 2^500 and c, c2
    lie in [2^-500, 2^500], and elsewhere the binary exponent of
    max(|s|, sqrt(c) sqrt(c2)), for c, c2 >= 0.

    Dividing s by 2^k and c c2 by 4^k divides the roots of
    x^2 - s x + c c2 = 0 by 2^k and brings max(|s|, sqrt(c c2)) into
    [1/2, 1), so the quadratic's intermediates neither overflow nor
    underflow where that matters.  In binary floating point the division
    is exact (Goldberg, ACM Comput. Surv. 23, 1991): a formula of degree 0,
    such as mu_c in (beta, eps), keeps every bit, and a root is scaled back
    by ``math.ldexp``.  The curves take (s, c, c2) = (eps, beta, eps) and
    divide beta and eps by 2^k; the eigenvalues take (s, c) = (trace,
    beta), whose quadratics' constants are -beta and 2 beta.
    """
    box = 2.0 ** 500
    if abs(s) <= box and 1.0 / box <= min(c, c2) and max(c, c2) <= box:
        return 0
    return math.frexp(max(abs(s), math.sqrt(c) * math.sqrt(c2)))[1]


def critical_mus(p: Params) -> CriticalMus:
    """Return (mu1, muc, mu2) for the E1/E2 pair; requires beta>0, eps>0.

    Raises ValueError where a value overflows the float range.
    """
    beta, eps = p.beta, p.eps
    if not (beta > 0 and eps > 0):
        raise ValueError("critical mus require beta > 0 and eps > 0")
    k = scale_exponent(eps, beta, eps)
    beta, eps = math.ldexp(beta, -k), math.ldexp(eps, -k)
    # 2 sqrt(2 beta); above 1 the form in beta/2 has the same bits, and
    # stays finite where 2 beta overflows
    half_width = (4.0 * math.sqrt(0.5 * p.beta) if p.beta > 1.0
                  else 2.0 * math.sqrt(2.0 * p.beta))
    try:
        muc = (beta * beta - eps * beta) / (eps * eps)
        mu1, mu2 = muc - half_width, muc + half_width
        if not (math.isfinite(mu1) and math.isfinite(mu2)):
            raise OverflowError(muc)
    except (OverflowError, ZeroDivisionError):
        # a scaled eps^2 underflows to zero only where (beta/eps)^2 overflows
        raise ValueError(f"critical mus overflow the float range at "
                         f"beta={p.beta:g}, eps={p.eps:g}") from None
    return CriticalMus(mu1, muc, mu2)


def _char_roots(p: Params, s: float, m: int,
                mus: CriticalMus | None = None) -> tuple[complex, complex]:
    # roots of lambda^2 - s lambda + m beta = 0: at O (s, m) = (mu, -1), at
    # E1/E2 (mu - muc, 2) with the pair's critical mus, whose band
    # mu1 < mu < mu2 has the complex roots
    k = scale_exponent(s, p.beta)
    s, beta = math.ldexp(s, -k), math.ldexp(p.beta, -2 * k)
    disc = s * s - 4.0 * m * beta
    if mus is not None and (disc < 0.0) != (mus.mu1 < p.mu < mus.mu2):
        # rounding at a band edge; the factored form (mu - mu1)(mu - mu2)
        # has the band's sign
        disc = math.ldexp(p.mu - mus.mu1, -k) * math.ldexp(p.mu - mus.mu2, -k)
    if disc < 0.0:
        # a trace of -0 gives both roots the real part +0, like a trace of +0
        re, im = 0.5 * (s + 0.0), 0.5 * math.sqrt(-disc)
        eigs = (complex(re, im), complex(re, -im))
    else:
        r = math.sqrt(disc)
        eigs = (complex(0.5 * (s + r)), complex(0.5 * (s - r)))
    # times 2^k; 2.0 ** k itself overflows at k = 1024
    try:
        if not all(map(cmath.isfinite, eigs)):
            raise OverflowError(eigs)
        eigs = tuple(complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                     for z in eigs)
    except OverflowError:
        raise ValueError(f"eigenvalues leave the float range at "
                         f"mu={p.mu:g}, beta={p.beta:g}, "
                         f"eps={p.eps:g}") from None
    if disc > 0.0 and p.beta != 0.0 and s * s > abs(4.0 * m * beta):
        # past this ratio the smaller root, (s -+ r) / 2, cancels ever more,
        # to 0: it is m beta over the larger one (Higham, Accuracy and
        # Stability of Numerical Algorithms, 1.8), from the unscaled beta,
        # so it stays where a scaled beta underflows; below, the direct
        # formula keeps its bits, within 4 ulps of the root
        big = eigs[0] if s > 0 else eigs[1]
        small = complex(m * (p.beta / big.real))
        eigs = (big, small) if s > 0 else (small, big)
    return eigs


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


def _kind_at_pair(p: Params, mus: CriticalMus) -> EquilibriumKind:
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
    out = [Equilibrium(location=State(0.0, 0.0),
                       eigs=_char_roots(p, p.mu, -1),
                       kind=_kind_at_origin(p), label=EqLabel.O)]
    if p.beta > 0 and p.eps > 0:
        x2 = math.sqrt(p.beta / p.eps)
        mus = critical_mus(p)
        kind = _kind_at_pair(p, mus)
        eigs = _char_roots(p, p.mu - mus.muc, 2, mus)
        out.append(Equilibrium(State(-x2, 0.0), eigs, kind, EqLabel.E1))
        out.append(Equilibrium(State(x2, 0.0), eigs, kind, EqLabel.E2))
    return out

