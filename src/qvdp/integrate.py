"""Adaptive ODE integration with dense output and section-crossing events.

One embedded Runge-Kutta stepper serves every integration in the package:
DOP853, the Dormand-Prince 8(5,3) pair with its 7th-order dense output
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
ch. II.5-6, and Hairer's dop853.f).  Step control is the standard one --
the initial-step rule of HNW II.4, an RMS error norm against
``atol + rtol * |y|``, safety factor 0.9, step factors limited to [0.2, 10]
and no growth right after a rejection -- so a run takes the same steps as
scipy's ``solve_ivp(method="DOP853")`` with the same tolerances, up to
rounding: sums run in another order, which can flip an accept/reject
decision that sits on the bound.  Every field integrated here acts on
the plane (x, y); the forced one is non-autonomous and reads its forcing
from t, and only the return map augments its state, with the divergence
integral.  :func:`integrate`'s one run loop works on Python floats alone
(stages, each component's 7 interpolant rows, event roots, ``t_eval``
samples): for these small states array operations cost more than they
compute.  One evaluator serves its floats and :meth:`Trajectory.at`'s arrays.

On top of the stepper the module provides:

* a :class:`Trajectory` value carrying samples, exact step counts and,
  unless sampled at ``t_eval``, the interpolant on its step ends with a
  finer grid of its points per step (:meth:`Trajectory.refined`);
* escape detection on the first two state components (x, y; the return
  map's divergence integral is not monitored) -- for eps <= 0
  the oscillator genuinely blows up in finite time, which is a reportable
  outcome (:class:`NonFinite`), not a crash -- and one rule,
  :func:`escape_bound`, that sets the bound of every oscillator run;
* a terminal event that ends a run at the first zero a scalar function g
  of the state rises through, in a step with g(start) < 0 <= g(end),
  located by Brent's method to 4 eps on the step's interpolant;
* crossings of a scalar section of the state by the same rule and locator;
* stroboscopic sampling of the forced system at exact fractions of the
  forcing period.

All returned values are immutable: a trajectory's arrays and those of
its interpolant are read-only.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field, replace
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import IntegrationError, NoConvergence, NonFinite, StepUnderflow
from .model import Params, forced_rhs

__all__ = [
    "Trajectory",
    "SectionEvent",
    "IntegrationError",
    "StepUnderflow",
    "NonFinite",
    "NoConvergence",
    "integrate",
    "detect_crossings",
    "stroboscopic",
    "escape_bound",
]

DEFAULT_TOL = (1e-12, 1e-10)  # (abs, rel)
TOL_FLOOR, TOL_CEIL = 1e-13, 1e-3
_ESCAPE_BOUND = 10.0  # read by escape_bound alone


def escape_bound(p: Params, t1: float) -> float:
    """Bound on max(|x|, |y|) for an oscillator run over (0, t1).

    Every run of the oscillator, forced or not, takes its bound from this
    rule, by whether the run can escape.  Forward eps > 0 runs get none
    (``math.inf``): the equator repels every forward orbit, and the
    quintic damping bounds the forced ones, forcing included.  Backward
    eps > 0 runs, where the quintic damping blows up in finite time, get
    10 max(1, mu, beta/sqrt(2 eps)), capped at the largest double: seeds
    on the large cycles past beta/eps = 7/3 lie at |y| of about 3 mu, and
    the saddle loop, which the stable separatrix follows back, reaches
    |y| = beta/sqrt(2 eps).  eps <= 0 runs get 10: they crawl out along
    the quartic-damping nullcline, ever more stiffly, and a larger bound
    would let them run for hours.
    """
    if p.eps <= 0:
        return _ESCAPE_BOUND
    if t1 > 0:
        return math.inf
    # beta/sqrt(2 eps), inf where that overflows
    loop = p.beta / math.sqrt(2.0) / math.sqrt(p.eps)
    return min(_ESCAPE_BOUND * max(1.0, p.mu, loop), sys.float_info.max)


# --- DOP853 -----------------------------------------------------------------

def _lower(rows: Sequence[dict]) -> tuple:
    """Dense rows of a strictly lower-triangular matrix given sparsely."""
    return tuple(tuple(r.get(j, 0.0) for j in range(i + 1))
                 for i, r in enumerate(rows))


# DOP853 (Hairer's dop853.f): row i combines stages 0..i into stage i + 1
# at t + c_i h; row 11 holds the solution weights, so stage 12 is the
# derivative at the new point, and rows 12-14 give the interpolant's stages
# 13-15
_DOP_A = _lower([
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3,
     12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149,
     14: -9.15095847217987001081870187138},
])
# nodes of stages 1-15; stage 12, at 1.0, is the new point
_DOP_C = (0.526001519587677318785587544488e-01,
          0.789002279381515978178381316732e-01,
          0.118350341907227396726757197510,
          0.281649658092772603273242802490,
          0.333333333333333333333333333333,
          0.25,
          0.307692307692307692307692307692,
          0.651282051282051282051282051282,
          0.6,
          0.857142857142857142857142857142,
          1.0,
          1.0,
          0.1,
          0.2,
          0.777777777777777777777777777778)
# rows F_3..F_6 of the interpolant (see _dop853_coef) over 16 stages
_DOP_POLY = tuple(
    tuple(r.get(j, 0.0) for j in range(16)) for r in (
        {0: -0.84289382761090128651353491142e+1,
         5: 0.56671495351937776962531783590,
         6: -0.30689499459498916912797304727e+1,
         7: 0.23846676565120698287728149680e+1,
         8: 0.21170345824450282767155149946e+1,
         9: -0.87139158377797299206789907490,
         10: 0.22404374302607882758541771650e+1,
         11: 0.63157877876946881815570249290,
         12: -0.88990336451333310820698117400e-1,
         13: 0.18148505520854727256656404962e+2,
         14: -0.91946323924783554000451984436e+1,
         15: -0.44360363875948939664310572000e+1},
        {0: 0.10427508642579134603413151009e+2,
         5: 0.24228349177525818288430175319e+3,
         6: 0.16520045171727028198505394887e+3,
         7: -0.37454675472269020279518312152e+3,
         8: -0.22113666853125306036270938578e+2,
         9: 0.77334326684722638389603898808e+1,
         10: -0.30674084731089398182061213626e+2,
         11: -0.93321305264302278729567221706e+1,
         12: 0.15697238121770843886131091075e+2,
         13: -0.31139403219565177677282850411e+2,
         14: -0.93529243588444783865713862664e+1,
         15: 0.35816841486394083752465898540e+2},
        {0: 0.19985053242002433820987653617e+2,
         5: -0.38703730874935176555105901742e+3,
         6: -0.18917813819516756882830838328e+3,
         7: 0.52780815920542364900561016686e+3,
         8: -0.11573902539959630126141871134e+2,
         9: 0.68812326946963000169666922661e+1,
         10: -0.10006050966910838403183860980e+1,
         11: 0.77771377980534432092869265740,
         12: -0.27782057523535084065932004339e+1,
         13: -0.60196695231264120758267380846e+2,
         14: 0.84320405506677161018159903784e+2,
         15: 0.11992291136182789328035130030e+2},
        {0: -0.25693933462703749003312586129e+2,
         5: -0.15418974869023643374053993627e+3,
         6: -0.23152937917604549567536039109e+3,
         7: 0.35763911791061412378285349910e+3,
         8: 0.93405324183624310003907691704e+2,
         9: -0.37458323136451633156875139351e+2,
         10: 0.10409964950896230045147246184e+3,
         11: 0.29840293426660503123344363579e+2,
         12: -0.43533456590011143754432175058e+2,
         13: 0.96324553959188282948394950600e+2,
         14: -0.39177261675615439165231486172e+2,
         15: -0.14972683625798562581422125276e+3}))
# 5th- and 3rd-order error weights over the 12 stages and the new derivative
_DOP_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
           -0.1225156446376204440720569753e+1,
           -0.4957589496572501915214079952,
           0.1664377182454986536961530415e+1,
           -0.3503288487499736816886487290,
           0.3341791187130174790297318841,
           0.8192320648511571246570742613e-1,
           -0.2235530786388629525884427845e-1, 0.0)
_DOP_E3 = tuple(
    w - {0: 0.244094488188976377952755905512,
         8: 0.733846688281611857341361741547,
         11: 0.220588235294117647058823529412e-1}.get(j, 0.0)
    for j, w in enumerate(_DOP_A[11] + (0.0,)))

_ERROR_ORDER = 7  # order of the embedded error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = math.ulp(1.0)  # machine epsilon
_SUBSAMPLES = 4  # interior interpolant points per step of Trajectory.refined
_NO_INTERPOLANT = "a run sampled at t_eval or refined keeps no interpolant"


def _rms(v) -> float:
    return math.sqrt(sum(e * e for e in v)) / len(v) ** 0.5


def _error_norm(ks, h: float, scale) -> float:
    """Scaled local error of the step attempt whose stages are ``ks``.

    DOP853 blends its 5th- and 3rd-order estimates (HNW II.10).
    """
    e5 = [sum(map(mul, _DOP_E5, k)) / s for k, s in zip(ks, scale)]
    e3 = [sum(map(mul, _DOP_E3, k)) / s for k, s in zip(ks, scale)]
    n5, n3 = sum(e * e for e in e5), sum(e * e for e in e3)
    if n5 == 0.0:  # the norm below is |h| n5 / sqrt(...); n3 may underflow
        return 0.0
    return abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * len(scale))


def _stage_rows(fun, t: float, y: list, h: float, ks: list,
                rows: range) -> list:
    """Append to ``ks`` (per component, the stage derivatives so far) the
    stages of tableau ``rows``; returns the state of the last row."""
    for i in rows:
        ys = [yi + sum(map(mul, _DOP_A[i], k)) * h for yi, k in zip(y, ks)]
        for k, v in zip(ks, fun(t + _DOP_C[i] * h, ys)):
            k.append(v)
    return ys


def _dop853_coef(fun, t: float, y: list, h: float, y_new: list,
                 ks: list) -> list:
    """Interpolant rows F_0..F_6 of the step of size h from (t, y) to
    y_new (see :func:`_interp_eval`), per component a list of 7 floats.

    ``ks`` holds per component the step's stage derivatives: stage 0 at
    (t, y), stages 1-12 from tableau rows 0-11, stage 12 the derivative at
    y_new.  The stages of rows 12-14 are appended to it (three evaluations
    of ``fun``), so call this at most once per step.
    """
    _stage_rows(fun, t, y, h, ks, range(12, 15))
    dy = [b - a for a, b in zip(y, y_new)]
    return [[d, h * k[0] - d, 2 * d - h * (k[12] + k[0]),
             *(h * sum(map(mul, row, k)) for row in _DOP_POLY)]
            for d, k in zip(dy, ks)]


def _interp_eval(x, y_old, coef):
    """State at fraction ``x`` of a step from its interpolant rows.

    ``coef[j]`` is row j: one component's 7 floats evaluate that component
    of one step, and arrays with the row axis first evaluate many steps at
    once, elementwise by the same operations, so a sample does not depend
    on the others evaluated with it and equals its float evaluation.
    """
    # y_old + x (F_0 + (1 - x) (F_1 + x (F_2 + ... + (1 - x) (F_5 + x F_6))))
    y = coef[6] * x
    for j in range(5, -1, -1):
        y = (y + coef[j]) * (x if j % 2 == 0 else 1.0 - x)
    return y + y_old


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered solution samples with integrator metadata.

    ``states`` has one row per sample; ``t`` is strictly increasing for
    forward integration (strictly decreasing spans are stored as produced).
    Without ``t_eval`` the samples are the step ends and the run keeps its
    interpolant: ``_h`` holds each step's signed size and ``_rows``, shaped
    (steps, components, 7), each component's rows F_0..F_6, step i starting
    at t[i] in states[i] (a run stopped at a step's start keeps that step
    last).  A ``t_eval`` run keeps none.
    ``stopped`` marks a run a stop event ended; an escaping run raises
    :class:`NonFinite`, which carries it.  ``stats`` counts accepted steps
    (``accepted_steps``), rejected step attempts (``rejected_steps_estimate``,
    an exact count despite its name) and field evaluations, ``nfev`` =
    2 + 12 (accepted + rejected) + 3 per step whose interpolant is formed:
    every step of a dense run, and in a ``t_eval`` run each step that holds
    a sample or an event root.
    All its arrays are made read-only.
    """

    t: np.ndarray
    states: np.ndarray
    stats: dict
    stopped: bool = False
    _h: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _rows: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        for a in (self.t, self.states, self._h, self._rows):
            if a is not None:
                a.flags.writeable = False

    def at(self, times) -> np.ndarray:
        """Evaluate the dense interpolant; rows are states.

        A time on a step boundary belongs to the step that ends there;
        times outside the run extrapolate the first or last step.
        """
        if self._h is None:
            raise ValueError(_NO_INTERPOLANT)
        times = np.atleast_1d(np.asarray(times, dtype=float))
        t, h = self.t, self._h
        key, at = (t, times) if h[0] > 0 else (-t, -times)  # ascending
        seg = np.searchsorted(key, at) - 1
        np.clip(seg, 0, len(h) - 1, out=seg)
        x = (times - t[seg])[:, None] / h[seg][:, None]
        return _interp_eval(x, self.states[seg],
                            np.moveaxis(self._rows[seg], -1, 0))

    def refined(self) -> "Trajectory":
        """The run on a finer grid: the dense interpolant at the samples
        and at ``_SUBSAMPLES`` evenly spaced interior times between each
        two, in the trajectory's time order.  Without ``t_eval`` the
        samples are the step ends, so the grid follows the step sizes.
        The refined run keeps no interpolant: its samples are not knots."""
        t = self.t
        frac = np.arange(_SUBSAMPLES + 1) / (_SUBSAMPLES + 1)
        grid = np.append((t[:-1, None] + frac * np.diff(t)[:, None]).ravel(),
                         t[-1:])
        return replace(self, t=grid, states=self.at(grid), _h=None,
                       _rows=None)

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


class SectionEvent(NamedTuple):
    t: float
    state: np.ndarray


def _brent(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of ``f`` in the sign-change bracket [a, b] (Brent, 1973).

    Inverse quadratic or secant steps where they shrink the bracket fast
    enough, bisection otherwise; converged once the bracket half-width is
    below 2 eps (1 + |x|).  Raises :class:`NoConvergence` on a
    bracket without a sign change, a NaN value or 100 iterations exhausted.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise NoConvergence("root bracketing met a NaN value")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoConvergence("root bracket has no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 2 * _EPS * (1.0 + abs(xcur))
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:             # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a vanishing denominator means no usable step: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den \
                    else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NoConvergence("root bracketing met a NaN value")
    raise NoConvergence("root bracketing did not converge in 100 iterations")


def _root(event, t: float, t_new: float, y, h: float, coef):
    """Zero of ``event(t, state)`` in the step from (t, y) to t_new, size h,
    and the state there, by Brent's method to 4 eps on its float rows."""
    def state(s):
        x = (s - t) / h
        return [_interp_eval(x, yi, c) for yi, c in zip(y, coef)]
    t_root = _brent(lambda s: event(s, state(s)), t, t_new)
    return t_root, state(t_root)


def _initial_step(fun, t0, y0, f0, t1, direction, atol, rtol):
    """First step size from the local behaviour at t0 (HNW II.4).

    Costs one evaluation.
    """
    span = abs(t1 - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0 * direction,
             [v + h0 * direction * f for v, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, span)


def integrate(field_fn: Callable[[float, list], Sequence[float]],
              s0,
              t_span: tuple[float, float],
              tol=DEFAULT_TOL,
              t_eval: Optional[Sequence[float]] = None,
              escape_radius: float = 1e4,
              stop_event: Optional[Callable] = None) -> Trajectory:
    """Integrate ``field_fn`` from ``s0`` over ``t_span``.

    One loop takes every step: it retries a DOP853 step, shrinking it, until
    the error norm accepts it, then evaluates the events at its end and
    forms its interpolant where a knot, a sample or a root needs it.
    Without ``t_eval`` the trajectory holds the start and the step ends
    and keeps the interpolant; with it, the samples alone.  A span with
    t1 < t0 runs backward.

    Parameters
    ----------
    field_fn : callable(t, state) -> dstate; ``state`` is a list of
        floats, ``dstate`` any sequence of floats
    s0 : initial state, a sequence of numbers
    t_span : (t0, t1), both finite and distinct
    tol : (abs, rel) pair, both within [1e-13, 1e-3]
    t_eval : optional explicit sample times within ``t_span``, ordered
        along it; samples come from the step interpolants, so the steps
        taken do not depend on them
    escape_radius : bound on the max-norm of the first two components,
        (x, y): the run escapes where the norm rises through it, by the
        stop rule, or at t0 from a start on or beyond it; a further
        component (the return map's divergence integral) is not monitored.
        Runs of the oscillator should pass :func:`escape_bound`, which
        sizes a backward eps > 0 run's bound by mu and the saddle loop: the
        default 1e4 does not end an eps <= 0 crawl, whose steps shrink
        as the orbit creeps out (from (2, 0) at mu = 0.3, beta = 1,
        eps = -1 a run over (0, 600) had not returned after 11 minutes)
    stop_event : optional event ``g(t, state)`` on the same state lists.
        The run ends at the first zero it rises through along the run, in
        a step with g(start) < 0 <= g(end), so a start on a zero is none,
        with ``stopped`` set on the trajectory

    Raises
    ------
    ValueError
        tolerance out of bounds, empty or non-finite ``t_span``, or
        non-finite initial state
    NonFinite
        state reached ``escape_radius`` (partial trajectory attached)
    StepUnderflow
        the step size fell below ten float spacings of t, without escape
    NoConvergence
        an event root could not be bracketed on the step interpolant
    """
    atol, rtol = tol
    if not (TOL_FLOOR <= atol <= TOL_CEIL and TOL_FLOOR <= rtol <= TOL_CEIL):
        raise ValueError(f"tolerances must lie in [{TOL_FLOOR}, {TOL_CEIL}]")
    t0, t1 = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if t0 == t1:
        raise ValueError("t_span must not be empty")
    y = [float(v) for v in s0]
    if not all(map(math.isfinite, y)):
        raise ValueError("initial state must be finite")
    direction = 1.0 if t1 > t0 else -1.0
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if not np.all(np.isfinite(t_eval)):
            raise ValueError("t_eval must be finite")
        if np.any(direction * np.diff(t_eval) < 0) or len(t_eval) and (
                direction * (t_eval[0] - t0) < 0
                or direction * (t_eval[-1] - t1) > 0):
            raise ValueError("t_eval must lie within t_span, in its order")
        t_eval = t_eval.tolist()

    # terminal events, each ending the run where it rises through zero; the
    # escape check first, so that it wins a tie
    events = [lambda t, s: max(map(abs, s[:2])) - escape_radius]
    if stop_event is not None:
        events.append(stop_event)

    # flat float buffers: the samples (the start and the step ends, or the
    # t_eval times reached), their states, each step's h and rows
    ts, ys = (array("d"), array("d")) if t_eval is not None else \
        (array("d", [t0]), array("d", y))
    hs, rows = array("d"), array("d")
    n = len(y)
    accepted = rejected = interpolants = 0
    escaped = stopped = False
    with np.errstate(over="ignore", invalid="ignore"):
        f = field_fn(t0, y)
        g = [ev(t0, y) for ev in events]
        # a start on or beyond the bound never rises through it: escaped
        if g[0] >= 0 or not all(map(math.isfinite, f)):
            raise NonFinite(
                f"state escaped |s| > {escape_radius:g} at t={t0:.6g}"
                if g[0] >= 0 else "field is non-finite at the initial state",
                Trajectory(t=np.array([t0]), states=np.array([y]),
                           stats={"nfev": 1, "accepted_steps": 0,
                                  "rejected_steps_estimate": 0}))
        exponent = -1 / (_ERROR_ORDER + 1)
        h_abs = _initial_step(field_fn, t0, y, f, t1, direction, atol, rtol)
        t = t0
        while direction * (t - t1) < 0:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            retried = False
            while True:
                if h_abs < min_step:
                    raise StepUnderflow(
                        f"step size fell below the float spacing at t={t:.6g}")
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0:
                    t_new = t1
                h = t_new - t
                h_abs = abs(h)
                ks = [[fi] for fi in f]
                y_new = _stage_rows(field_fn, t, y, h, ks, range(12))
                scale = [atol + max(abs(a), abs(b)) * rtol
                         for a, b in zip(y, y_new)]
                err = _error_norm(ks, h, scale)
                if err < 1:
                    factor = _MAX_FACTOR if err == 0 else min(
                        _MAX_FACTOR, _SAFETY * err ** exponent)
                    h_abs *= min(1.0, factor) if retried else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** exponent)
                rejected += 1
                retried = True
            accepted += 1
            t_end, y_end = t_new, y_new
            g_new = [ev(t_end, y_end) for ev in events]
            hit = [i for i, (a, b) in enumerate(zip(g, g_new)) if a < 0 <= b]
            g = g_new
            coef = (_dop853_coef(field_fn, t, y, h, y_new, ks)
                    if t_eval is None or hit else None)
            if hit:
                roots = [_root(events[i], t, t_new, y, h, coef) for i in hit]
                # the earliest root ends the run; a tie goes to the escape
                first = min(range(len(hit)),
                            key=lambda j: (direction * roots[j][0], j))
                t_end, y_end = roots[first]
                escaped = hit[first] == 0
                stopped = not escaped
            if t_eval is None:
                if t_end != t:  # a root at the step start adds no knot
                    ts.append(t_end)
                    ys.extend(y_end)
                hs.append(h)
                rows.extend(v for c in coef for v in c)
            else:
                while len(ts) < len(t_eval) and \
                        direction * (t_eval[len(ts)] - t_end) <= 0:
                    # rows only for a step that holds samples
                    coef = coef or _dop853_coef(field_fn, t, y, h, y_new, ks)
                    x = (t_eval[len(ts)] - t) / h
                    ts.append(t_eval[len(ts)])
                    ys.extend([_interp_eval(x, yi, c)
                               for yi, c in zip(y, coef)])
            interpolants += coef is not None
            if hit:
                break
            t, y, f = t_new, y_new, [k[12] for k in ks]

    stats = {"nfev": 2 + 12 * (accepted + rejected) + 3 * interpolants,
             "accepted_steps": accepted, "rejected_steps_estimate": rejected}
    interp = {} if t_eval is not None else {
        "_h": np.frombuffer(hs),
        "_rows": np.frombuffer(rows).reshape(-1, n, 7)}
    traj = Trajectory(t=np.frombuffer(ts),
                      states=np.frombuffer(ys).reshape(-1, n), stats=stats,
                      stopped=stopped, **interp)
    if escaped:
        raise NonFinite(
            f"state escaped |s| > {escape_radius:g} at t={t_end:.6g}", traj)
    return traj


_RESIDUAL_TOL = 1e-10  # |section| at a crossing: a safety check, not a target


def detect_crossings(traj: Trajectory,
                     section: Callable) -> list[SectionEvent]:
    """The crossings where ``section(state)`` rises through zero.

    The rule and the locator are the stop event's: a crossing lies in a
    step whose knots a, b have section(a) < 0 <= section(b), so a start
    on the section is none, and Brent's method locates it to 4 eps on the
    step's interpolant.  The first crossing is bit for bit where a stop
    event ``section(state)`` ends the same run.  A falling crossing is a
    rising crossing of ``-section``; events come in the run's time order.
    Raises :class:`NoConvergence` on a NaN section value or |section| >
    1e-10 at a crossing, ValueError for a run without an interpolant.
    """
    if traj._h is None:
        raise ValueError(_NO_INTERPOLANT)
    g = np.array([section(s) for s in traj.states])
    if np.isnan(g).any():
        raise NoConvergence("root bracketing met a NaN value")
    events: list[SectionEvent] = []
    for i in np.flatnonzero((g[:-1] < 0) & (g[1:] >= 0)):
        t_root, state = _root(lambda t, s: section(s), float(traj.t[i]),
                              float(traj.t[i + 1]), traj.states[i].tolist(),
                              float(traj._h[i]), traj._rows[i].tolist())
        if abs(section(state)) > _RESIDUAL_TOL:
            raise NoConvergence(
                f"crossing residual {abs(section(state)):.3e} above target")
        events.append(SectionEvent(t_root, np.array(state)))
    return events


def stroboscopic(p: Params, s0, n: int, per_period: int = 1) -> np.ndarray:
    """Forced-system states at t = k * T / per_period, k = 0..n*per_period.

    T = 2*pi/omega is the forcing period, the integer n >= 1 the number of
    periods and the integer per_period >= 1 the samples per period.  The
    forced field is integrated at ``DEFAULT_TOL`` in the plane (x, y),
    non-autonomous, from t = 0, in one ``t_eval`` run (no interpolant
    kept) on the exact grid ``arange(n*per_period + 1) * (T/per_period)``.
    The run takes its bound from :func:`escape_bound`: an eps <= 0 run
    escapes (:class:`NonFinite`) where max(|x|, |y|) rises through 10, and
    an eps > 0 run has none, since the quintic damping bounds every orbit.
    The samples come from the step interpolants, so the steps, and every
    ``per_period``-th row, do not depend on ``per_period``.  Returns the
    run's own read-only (n*per_period + 1) x 2 array of (x, y) samples.
    """
    if p.alpha == 0:
        raise ValueError("stroboscopic sampling requires alpha != 0")
    if n < 1:
        raise ValueError("stroboscopic sampling requires n >= 1")
    if not float(n).is_integer():
        raise ValueError("n must be a positive integer")
    if not (per_period >= 1 and float(per_period).is_integer()):
        raise ValueError("per_period must be a positive integer")
    T = p.forcing_period
    t_eval = np.arange(n * per_period + 1) * (T / per_period)
    traj = integrate(forced_rhs(p), (float(s0[0]), float(s0[1])),
                     (0.0, n * T), t_eval=t_eval,
                     escape_radius=escape_bound(p, n * T))
    return traj.states
