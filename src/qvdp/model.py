"""Quintic van der Pol-Duffing oscillator: vector fields and pointwise quantities.

The family under study is the planar system

    x' = y
    y' = (mu + x^2 - x^4) y + beta x - eps x^3 - alpha x cos(omega t)

with real parameters (mu, beta, eps, alpha, omega), beta >= 0.  The field
is odd in (x, y) at every t, so the system, forced or not, is
Z2-equivariant: orbits come in (x, y) <-> (-x, -y) pairs.  The Hamiltonian
of the conservative limit is provided alongside the raw fields.

All functions here are pure and operate on 64-bit floats; parameter
validation happens once, at :class:`Params` construction.  The RHS
factories build fields on plain floats, the integrator's state format,
and every one of them acts on the plane (x, y): the forced field is
non-autonomous and reads its forcing from t.  Only :func:`jacobian`,
which returns an array, imports numpy.

Records are ``typing.NamedTuple`` classes, like :class:`State` and
:class:`Params`, so the modules the closed-form CLI loads (this one,
equilibria and bifurcation) load neither :mod:`dataclasses` nor the
:mod:`inspect` it imports.  The one reason for a dataclass is an array
field left out of comparison, which a NamedTuple cannot do: only
``Trajectory`` (integrate) and ``LimitCycle`` (detect) have one.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Params",
    "State",
    "field_unforced",
    "jacobian",
    "divergence",
    "hamiltonian",
    "unforced_rhs",
    "forced_rhs",
    "hamiltonian_rhs",
]


class State(NamedTuple):
    """Point of the planar phase space (position x, velocity y)."""

    x: float
    y: float


class _ParamsTuple(NamedTuple):
    mu: float
    beta: float
    eps: float
    alpha: float = 0.0
    omega: float = 1.0


class Params(_ParamsTuple):
    """Parameter vector (mu, beta, eps, alpha, omega) of the oscillator.

    Constraints enforced on construction, by ``_make`` and by ``_replace``:

    * ``beta >= 0``
    * ``beta`` and ``eps`` not both zero (otherwise the whole line y = 0
      consists of equilibria and the analysis degenerates)
    * ``omega > 0`` whenever the forcing amplitude ``alpha`` is nonzero
    * all entries finite
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(math.isfinite(v) for v in self):
            raise ValueError("all parameters must be finite")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.beta == 0 and self.eps == 0:
            raise ValueError("beta and eps must not both be zero")
        if self.alpha != 0 and not self.omega > 0:
            raise ValueError("omega must be > 0 when alpha != 0")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def forcing_period(self) -> float:
        """Period 2*pi/omega of the external forcing."""
        return 2.0 * math.pi / self.omega


def field_unforced(s: State, p: Params) -> State:
    """Vector field of the autonomous (alpha = 0) system at state ``s``."""
    return State(*unforced_rhs(p)(0.0, s))


def jacobian(s: State, p: Params) -> np.ndarray:
    """Jacobian matrix of the unforced field at state ``s`` (2x2 array)."""
    import numpy as np

    x, y = s
    x2 = x * x
    return np.array([
        [0.0, 1.0],
        [p.beta - 3.0 * p.eps * x2 + (2.0 * x - 4.0 * x2 * x) * y,
         p.mu + x2 - x2 * x2],
    ])


def divergence(x: float, p: Params) -> float:
    """Divergence mu + x^2 - x^4 of the unforced field.

    Independent of y; its maximum over x is mu + 1/4, attained at
    x^2 = 1/2.  Nonpositive divergence everywhere (mu <= -1/4) rules out
    closed orbits by the Bendixson-Dulac criterion.
    """
    x2 = x * x
    return p.mu + x2 - x2 * x2


def hamiltonian(s: State, p: Params) -> float:
    """Energy H = y^2/2 - beta x^2/2 + eps x^4/4 of the scaling limit.

    H is a first integral of x' = y, y' = beta x - eps x^3 (the system with
    the velocity-dependent terms switched off).  Its zero level set, for
    beta > 0 and eps > 0, carries the pair of explicit homoclinic orbits
    x(t) = +/- sqrt(2 beta/eps) sech t.
    """
    x, y = s
    x2 = x * x
    return 0.5 * y * y - 0.5 * p.beta * x2 + 0.25 * p.eps * x2 * x2


# --- RHS factories for the integrator (floats in, tuple out) ---

def unforced_rhs(p: Params) -> Callable[[float, list], tuple]:
    """Closure f(t, (x, y)) -> (x', y') for the autonomous system."""
    mu, beta, eps = p.mu, p.beta, p.eps

    def rhs(t, s):
        x, y = s
        x2 = x * x
        return (y, (mu + x2 - x2 * x2) * y + beta * x - eps * x2 * x)

    return rhs


def forced_rhs(p: Params) -> Callable[[float, list], tuple]:
    """Closure f(t, (x, y)) -> (x', y') for the forced system.

    The field is non-autonomous: it reads the forcing cos(omega t) from
    the time, so a forced run integrates the plane (x, y) and its period-T
    map acts on the plane.
    """
    mu, beta, eps, alpha, omega = p.mu, p.beta, p.eps, p.alpha, p.omega

    def rhs(t, s):
        x, y = s
        x2 = x * x
        return (y, (mu + x2 - x2 * x2) * y + beta * x - eps * x2 * x
                - alpha * x * math.cos(omega * t))

    return rhs


# the name the benchmark tracer (benchmarks/tracing.py) looks the factory up by
forced_rhs_3d = forced_rhs


def hamiltonian_rhs(p: Params) -> Callable[[float, list], tuple]:
    """Closure f(t, (x, y)) for the conservative limit x' = y, y' = beta x - eps x^3."""
    beta, eps = p.beta, p.eps

    def rhs(t, s):
        x, y = s
        return (y, beta * x - eps * x * x * x)

    return rhs
