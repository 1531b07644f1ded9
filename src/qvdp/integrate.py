"""Adaptive ODE integration with dense output and section-crossing events.

Thin layer over scipy's embedded Runge-Kutta pairs (RK45 = Dormand-Prince
5(4) with a free quartic interpolant, DOP853 for long high-accuracy runs).
Both use proportional-integral step control and supply the dense output the
event machinery needs.  The layer adds:

* a :class:`Trajectory` value carrying samples, tolerances and step stats;
* escape detection -- for eps <= 0 the oscillator genuinely blows up in
  finite time, which is a reportable outcome (:class:`NonFinite`), not a
  crash;
* sign-change detection of arbitrary scalar sections on the dense output,
  refined by root bracketing to |section| < 1e-10, and a terminal event
  that ends a run at its first section crossing;
* stroboscopic sampling of the forced system at exact multiples of the
  forcing period.

Integrator instances are single-use; all returned values are immutable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .model import Params, forced_rhs_3d

__all__ = [
    "Tol",
    "Trajectory",
    "SectionEvent",
    "Direction",
    "IntegrationError",
    "StepUnderflow",
    "NonFinite",
    "NoConvergence",
    "integrate",
    "detect_crossings",
    "stroboscopic",
]

DEFAULT_TOL = (1e-12, 1e-10)  # (abs, rel)
TOL_FLOOR, TOL_CEIL = 1e-13, 1e-3


class IntegrationError(RuntimeError):
    pass


class StepUnderflow(IntegrationError):
    """Step control drove the step size below machine resolution."""


class NonFinite(IntegrationError):
    """The state left the finite domain (escape to infinity).

    The partial trajectory up to the escape event is attached as
    ``.trajectory``.
    """

    def __init__(self, msg: str, trajectory: "Trajectory"):
        super().__init__(msg)
        self.trajectory = trajectory


class NoConvergence(IntegrationError):
    """Crossing refinement failed to reach the section residual target."""


class Direction(enum.Enum):
    UP = 1      # section value passes through zero increasing
    DOWN = -1   # decreasing


@dataclass(frozen=True)
class Tol:
    abs: float
    rel: float

    @classmethod
    def coerce(cls, tol) -> "Tol":
        if isinstance(tol, Tol):
            t = tol
        else:
            a, r = tol
            t = cls(float(a), float(r))
        if not (TOL_FLOOR <= t.abs <= TOL_CEIL and TOL_FLOOR <= t.rel <= TOL_CEIL):
            raise ValueError(f"tolerances must lie in [{TOL_FLOOR}, {TOL_CEIL}]")
        return t


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered solution samples with integrator metadata.

    ``states`` has one row per sample; ``t`` is strictly increasing for
    forward integration (strictly decreasing spans are stored as produced).
    ``stats`` records function evaluations, accepted steps, and an estimate
    of rejected steps reconstructed from the evaluation count (the stepper
    does not expose rejections directly).
    """

    t: np.ndarray
    states: np.ndarray
    tol: Tol
    stats: dict
    escaped: bool = False
    stopped: bool = False
    _dense: object = field(default=None, repr=False, compare=False)

    def at(self, times) -> np.ndarray:
        """Evaluate the dense interpolant; rows are states."""
        if self._dense is None:
            raise ValueError("trajectory was built without dense output")
        out = self._dense(np.atleast_1d(np.asarray(times, dtype=float)))
        return out.T

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class SectionEvent:
    t: float
    state: np.ndarray
    direction: Direction


def _reject_estimate(method: str, nfev: int, accepted: int, dense: bool) -> int:
    # RK45: 6 fresh evals per attempted step (FSAL) + 1 initial.
    # DOP853: 12 per attempted step + 1 initial, +3 per accepted step for
    # the dense interpolant.
    if method == "RK45":
        attempts = (nfev - 1) // 6
    else:
        extra = 3 * accepted if dense else 0
        attempts = max(0, (nfev - 1 - extra)) // 12
    return max(0, attempts - accepted)


def integrate(field_fn: Callable[[float, np.ndarray], np.ndarray],
              s0,
              t_span: tuple[float, float],
              tol=DEFAULT_TOL,
              method: str = "RK45",
              dense: bool = True,
              t_eval: Optional[Sequence[float]] = None,
              max_step: float = np.inf,
              escape_radius: float = 1e4,
              escape_components: slice = slice(None),
              stop_event: Optional[Callable] = None) -> Trajectory:
    """Integrate ``field_fn`` from ``s0`` over ``t_span``.

    Parameters
    ----------
    field_fn : callable(t, state) -> dstate
    s0 : array-like initial state
    t_span : (t0, t1)
    tol : (abs, rel) pair, both within [1e-13, 1e-3]
    method : "RK45" (default) or "DOP853"
    dense : keep the interpolant for later evaluation / event refinement
    t_eval : optional explicit sample times
    escape_radius : max-norm radius beyond which the run is declared escaped
    escape_components : which state components the escape monitor sees
        (the forced 3D extension excludes its unwrapped phase coordinate)
    stop_event : optional terminal event ``g(t, state)`` in scipy's
        convention (``terminal`` and ``direction`` attributes); the run
        ends at its first zero with ``stopped`` set on the trajectory

    Raises
    ------
    NonFinite
        state crossed ``escape_radius`` (partial trajectory attached)
    StepUnderflow
        step control failure without escape
    """
    tol = Tol.coerce(tol)
    y0 = np.asarray(s0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = np.asarray(field_fn(t_span[0], y0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise NonFinite(
            "field is non-finite at the initial state",
            Trajectory(t=np.array([t_span[0]]), states=y0[None, :],
                       tol=tol, stats={"nfev": 1}, escaped=True))

    def escape(t, y):
        return np.max(np.abs(y[escape_components])) - escape_radius
    escape.terminal = True
    escape.direction = 1
    events = [escape] if stop_event is None else [escape, stop_event]

    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(field_fn, t_span, y0, method=method,
                        rtol=tol.rel, atol=tol.abs, dense_output=dense,
                        t_eval=t_eval, max_step=max_step, events=events)

    accepted = max(0, len(sol.t) - 1) if t_eval is None else None
    stats = {"nfev": sol.nfev}
    if accepted is not None:
        stats["accepted_steps"] = accepted
        stats["rejected_steps_estimate"] = _reject_estimate(
            method, sol.nfev, accepted, dense)

    escaped = len(sol.t_events[0]) > 0
    stopped = stop_event is not None and len(sol.t_events[1]) > 0
    traj = Trajectory(t=sol.t, states=sol.y.T, tol=tol, stats=stats,
                      escaped=escaped, stopped=stopped,
                      _dense=sol.sol if dense else None)
    if escaped:
        raise NonFinite(
            f"state escaped |s| > {escape_radius:g} at t={sol.t_events[0][0]:.6g}",
            traj)
    if not sol.success:
        if sol.status == -1:
            raise StepUnderflow(sol.message)
        raise IntegrationError(sol.message)
    return traj


_SUBSAMPLES = 4  # interior dense-output probes per accepted step


def detect_crossings(traj: Trajectory,
                     section: Callable,
                     direction: Optional[Direction] = None,
                     residual_tol: float = 1e-10,
                     max_iter: int = 100) -> list[SectionEvent]:
    """All crossings of ``section(state) == 0`` along a trajectory.

    The section is sampled at every accepted step plus interior points of
    the dense interpolant; each sign-change bracket is refined by Brent
    root-finding on the interpolant until |section| < ``residual_tol``.

    ``direction`` filters for increasing (UP) or decreasing (DOWN)
    crossings; None keeps both.  Events are returned in strictly
    increasing time order.
    """
    if traj._dense is None:
        raise ValueError("crossing detection requires dense output")
    ts = traj.t
    if len(ts) < 2:
        return []
    # refined time grid: step endpoints + interior probes
    fine = [ts]
    for k in range(1, _SUBSAMPLES + 1):
        frac = k / (_SUBSAMPLES + 1)
        fine.append(ts[:-1] + frac * np.diff(ts))
    tgrid = np.sort(np.concatenate(fine))
    g = np.array([section(s) for s in traj.at(tgrid)])

    def gfun(t):
        return section(traj.at(t)[0])

    events: list[SectionEvent] = []
    for i in range(len(tgrid) - 1):
        ga, gb = g[i], g[i + 1]
        if ga == 0.0:
            if i == 0 or g[i - 1] == 0.0:
                continue  # starts on the section / grazing: not a crossing
            d = Direction.UP if g[i - 1] < 0 else Direction.DOWN
            if direction is None or d is direction:
                events.append(SectionEvent(float(tgrid[i]),
                                           traj.at(tgrid[i])[0], d))
            continue
        if ga * gb >= 0.0:
            continue
        d = Direction.UP if ga < 0 else Direction.DOWN
        if direction is not None and d is not direction:
            continue
        try:
            t_root = brentq(gfun, tgrid[i], tgrid[i + 1],
                            xtol=1e-14, rtol=8.9e-16, maxiter=max_iter)
        except (RuntimeError, ValueError) as exc:
            raise NoConvergence(f"crossing refinement failed: {exc}") from exc
        state = traj.at(t_root)[0]
        if abs(section(state)) > residual_tol:
            raise NoConvergence(
                f"crossing residual {abs(section(state)):.3e} above target")
        events.append(SectionEvent(float(t_root), state, d))
    return events


def stroboscopic(p: Params, s0, n: int,
                 tol=(1e-12, 1e-10),
                 method: str = "DOP853") -> np.ndarray:
    """States of the forced system at t = k * 2*pi/omega, k = 0..n.

    The forced system is integrated as its 3D autonomous extension
    (x, y, theta); samples are taken at exact multiples of the forcing
    period.  Returns an (n+1) x 2 array of (x, y) samples.
    """
    if p.alpha == 0:
        raise ValueError("stroboscopic sampling requires alpha != 0")
    tol = Tol.coerce(tol)
    if tol.rel > 1e-10:
        raise ValueError("stroboscopic sampling requires rel tol <= 1e-10")
    T = p.forcing_period
    x0, y0 = float(s0[0]), float(s0[1])
    rhs = forced_rhs_3d(p)
    t_eval = np.arange(n + 1) * T
    traj = integrate(rhs, np.array([x0, y0, 0.0]), (0.0, n * T),
                     tol=tol, method=method, dense=False, t_eval=t_eval,
                     escape_components=slice(0, 2))
    return traj.states[:, :2].copy()
