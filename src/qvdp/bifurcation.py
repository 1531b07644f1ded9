"""Bifurcation curves, Hopf normal form, Melnikov function, region classifier.

For eps > 0 the unforced oscillator undergoes, in the (beta, mu) plane:

* a pitchfork of the origin on the beta = 0 axis (subcritical for mu > 0,
  supercritical for mu < 0);
* a Hopf bifurcation of the symmetric pair E1/E2 on the curve
  mu_c(beta, eps) = (beta^2 - eps*beta)/eps^2, always supercritical since
  the cubic resonant coefficient satisfies Re c1(mu_c) = -1/(2 beta) < 0;
* a homoclinic (double saddle-loop) bifurcation on the curve
  mu_3(beta, eps) = 32 beta^2/(35 eps^2) - 4 beta/(5 eps), obtained as the
  zero of the Melnikov integral along the explicit sech/tanh saddle loop
  of the conservative limit.  :func:`homoclinic_curve` computes it, and
  :func:`melnikov` reports its root from there.

Both curves keep one formula each over the whole float range: outside
[2^-500, 2^500] it is evaluated on (beta, eps) divided by a power of two,
the rule :func:`qvdp.equilibria.scale_exponent` states, which leaves a
form of degree 0 unchanged bit for bit.  :func:`melnikov` divides beta
and eps by two different powers of two, since each of its terms has its
own degree in each of them.

The Hopf coefficients g_kl are closed forms: the shifted field's quadratic
and cubic Taylor coefficients at E2, substituted into the complex
eigenbasis.  The identity Re c1(mu_c) = -1/(2 beta) and an independent
polynomial-composition oracle in the test suite pin them down.
Quantities that need only that identity (the first Lyapunov coefficient
and the cycle prediction) read it directly.

Region classification follows the global phase-portrait regimes: saddle-only
escape (eps <= 0), the single Poincare-Bendixson cycle (eps > 0, beta = 0,
mu >= 0), the pre-Hopf three-equilibria regime, the two-small-cycles band
mu_c < mu < mu_3, the measure-zero homoclinic pair, and the large cycle
enclosing all three equilibria for mu > mu_3.  Non-existence certificates
(Bendixson-Dulac, index theory, energy dissipation) are attached wherever
their defining inequalities hold.
"""

from __future__ import annotations

import enum
import math
from math import factorial
from typing import NamedTuple, Optional

from .equilibria import (CriticalMus, Equilibrium, critical_mus,
                         find_equilibria, scale_exponent)
from .model import Params

__all__ = [
    "PitchforkKind",
    "PitchforkReduction",
    "HopfData",
    "CyclePrediction",
    "MelnikovMethod",
    "MelnikovResult",
    "CertificateKind",
    "Certificate",
    "Region",
    "RegionLabel",
    "pitchfork_reduction",
    "hopf_curve",
    "hopf_normal_form",
    "hopf_cycle_prediction",
    "torus_frequency_estimate",
    "melnikov",
    "homoclinic_curve",
    "nonexistence_certificate",
    "classify_region",
    "HOMOCLINIC_CURVE_TOL",
]

# absolute tolerance for "mu lies exactly on the homoclinic curve";
# closed forms are exact in double precision, so this is deliberately tight
HOMOCLINIC_CURVE_TOL = 1e-9


# --- pitchfork -------------------------------------------------------------

class PitchforkKind(enum.Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"


class PitchforkReduction(NamedTuple):
    """Center-manifold reduction x' = linear_coeff*x + cubic_coeff*x^3
    of the origin for beta near 0."""

    linear_coeff: float
    cubic_coeff: float
    kind: PitchforkKind


def pitchfork_reduction(p: Params) -> PitchforkReduction:
    """Reduced flow x' = (-beta/mu) x + (eps/mu) x^3 on the center manifold.

    Valid for eps > 0 and mu != 0 with beta near 0.  The sign of eps/mu
    decides the branch type: subcritical for mu > 0, supercritical for
    mu < 0.  The nontrivial fixed points +/- sqrt(beta/eps) of the reduced
    flow coincide with the full-system equilibria E1/E2.
    """
    if p.eps <= 0:
        raise ValueError("pitchfork reduction requires eps > 0")
    if p.mu == 0:
        raise ValueError("reduction invalid at mu = 0 (double-zero eigenvalue)")
    kind = PitchforkKind.SUBCRITICAL if p.mu > 0 else PitchforkKind.SUPERCRITICAL
    return PitchforkReduction(linear_coeff=-p.beta / p.mu,
                              cubic_coeff=p.eps / p.mu,
                              kind=kind)


# --- Hopf ------------------------------------------------------------------

def hopf_curve(beta: float, eps: float) -> float:
    """Critical damping offset mu_c = (beta^2 - eps*beta)/eps^2; beta, eps > 0."""
    if not (beta > 0 and eps > 0):
        raise ValueError("hopf curve requires beta > 0 and eps > 0")
    return critical_mus(Params(mu=0.0, beta=beta, eps=eps)).muc


class HopfData(NamedTuple):
    """Normal-form data of the E2 (equivalently E1) focus.

    ``g`` maps (k, l) with 2 <= k+l <= 3 to the coefficient of
    z^k zbar^l / (k! l!) in the complex-diagonalized equation
    z' = lambda z + sum g_kl z^k zbar^l / (k! l!).  ``c1`` is the cubic
    resonant coefficient after removing the non-resonant terms; ``g`` and
    ``c1`` are closed forms of the shifted field at the given mu.  The
    other fields are closed forms too: ``lambda_mu`` the E2 eigenvalue,
    ``l1`` the first Lyapunov coefficient Re c1(mu_c) / omega0 =
    -1/(2 beta omega0), omega0 = sqrt(2 beta) the frequency at mu_c, and
    ``ddelta_dmu`` = 1/2.
    """

    lambda_mu: complex
    g: dict
    c1: complex
    l1: float
    ddelta_dmu: float


def _e2_focus(e2: Equilibrium) -> Equilibrium:
    if not e2.kind.focus:
        raise ValueError("eigenvalues at E1/E2 are real; need mu1 < mu < mu2")
    return e2


def _g_coeffs(p: Params, e2: Equilibrium) -> dict:
    """Normal-form coefficients g_kl, 2 <= k+l <= 3, in closed form.

    At x = x2 + u, x2 = sqrt(beta/eps) the location of the focus ``e2``,
    the nonlinear part of y' to cubic order is a u y + b u^2 + c u^2 y
    + d u^3 with the coefficients below.  With lam its first eigenvalue,
    the eigenbasis substitution u = s z + conj(s) zbar, s = conj(lam)/(2 beta),
    y = z + zbar (Kuznetsov, Elements of Applied Bifurcation Theory, 3rd ed.,
    sec. 3.5) makes g_kl = k! l! lam/(lam - conj lam) times the coefficient
    of z^k zbar^l.
    """
    x2, lam = e2.location.x, e2.eigs[0]
    a, b = 2.0 * x2 - 4.0 * x2 ** 3, -3.0 * p.eps * x2
    c, d = 1.0 - 6.0 * x2 * x2, -p.eps
    s = lam.conjugate() / (2.0 * p.beta)
    sb = s.conjugate()
    ss = s * sb
    n = {(2, 0): a * s + b * s * s,
         (1, 1): a * (s + sb) + 2.0 * b * ss,
         (0, 2): a * sb + b * sb * sb,
         (3, 0): c * s * s + d * s ** 3,
         (2, 1): c * (s * s + 2.0 * ss) + 3.0 * d * s * ss,
         (1, 2): c * (2.0 * ss + sb * sb) + 3.0 * d * sb * ss,
         (0, 3): c * sb * sb + d * sb ** 3}
    pref = lam / (lam - lam.conjugate())
    return {(k, l): factorial(k) * factorial(l) * pref * v
            for (k, l), v in n.items()}


def _c1_from_g(g: dict, lam: complex) -> complex:
    lamb = lam.conjugate()
    return (g[(2, 1)] / 2.0
            + g[(0, 2)] * g[(0, 2)].conjugate() / (2.0 * (2.0 * lam - lamb))
            + g[(1, 1)] * g[(1, 1)].conjugate() / lam
            + g[(1, 1)] * g[(2, 0)] * (2.0 * lam + lamb) / (2.0 * lam * lamb))


def hopf_normal_form(p: Params) -> HopfData:
    """Normal-form data at E2 for the given parameters.

    Requires beta > 0, eps > 0, and mu within (mu1, mu2) so the
    linearization is a focus.  ``g`` and ``c1`` are the closed forms of
    the shifted field at the given mu; ``l1`` is taken at the critical
    value mu_c, where Re c1 = -1/(2 beta).
    """
    if not (p.beta > 0 and p.eps > 0):
        raise ValueError("hopf normal form requires beta > 0 and eps > 0")
    e2 = _e2_focus(find_equilibria(p)[2])
    lam = e2.eigs[0]
    g = _g_coeffs(p, e2)
    c1 = _c1_from_g(g, lam)
    l1 = -0.5 / p.beta / math.sqrt(2.0 * p.beta)
    return HopfData(lambda_mu=lam, g=g, c1=c1, l1=l1, ddelta_dmu=0.5)


class CyclePrediction(NamedTuple):
    """Leading-order prediction of the Hopf cycle around E1/E2.

    Both radii are closed forms in the E2 eigenvalue lambda:
    ``z_radius`` = sqrt(2 beta Re lambda) = sqrt(beta (mu - mu_c)) is the
    amplitude in the complex eigen-coordinate, and ``radius_estimate`` =
    z_radius |lambda| / beta the predicted half peak-to-peak x-excursion
    around the equilibrium (the quantity comparable with a detected cycle).
    Both are truncations at cubic order and degrade ~linearly in mu - mu_c.
    """

    exists: bool
    radius_estimate: float
    z_radius: float


def hopf_cycle_prediction(p: Params) -> CyclePrediction:
    """Existence (mu > mu_c) and leading-order size of the small cycle."""
    if not (p.beta > 0 and p.eps > 0):
        raise ValueError("cycle prediction requires beta > 0 and eps > 0")
    if p.mu <= critical_mus(p).muc:
        return CyclePrediction(False, 0.0, 0.0)
    lam = _e2_focus(find_equilibria(p)[2]).eigs[0]
    # radial truncation r' = Re lambda r + Re c1(mu_c) r^3 with
    # Re c1(mu_c) = -1/(2 beta); Re c1 at mu itself changes sign just above
    # mu_c when beta/eps is large
    z_radius = math.sqrt(2.0 * p.beta * lam.real)
    return CyclePrediction(True, z_radius * abs(lam) / p.beta, z_radius)


def torus_frequency_estimate(p: Params) -> float:
    """Angular frequency of the Hopf cycle to cubic order.

    omega(mu) + Im c1 * rho0 with rho0 = -Re lambda / Re c1(mu_c)
    = 2 beta Re lambda (the squared ``z_radius`` of
    :func:`hopf_cycle_prediction`), the phase speed on the truncated
    normal-form cycle.  Under small periodic forcing this is the predicted
    first fundamental frequency of the invariant torus near E1/E2.
    """
    hopf = hopf_normal_form(p)
    lam = hopf.lambda_mu
    if lam.real <= 0:
        return lam.imag
    rho0 = 2.0 * p.beta * lam.real
    return lam.imag + hopf.c1.imag * rho0


# --- Melnikov / homoclinic -------------------------------------------------

class MelnikovMethod(enum.Enum):
    """QUADRATURE is the trapezoid rule, spacing 0.05 on |t| <= 40.  The
    integrand is analytic in |Im t| < pi/2 and decays like exp(-2|t|), so
    the rule converges geometrically in the spacing (Trefethen & Weideman,
    SIAM Review 56, 2014): rounding, not the rule, limits the sum."""
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


class MelnikovResult(NamedTuple):
    value: float
    scale: float  # sum of the closed form's term magnitudes
    mu3: float


_QUAD_T = 40.0  # sech^2(40) ~ 1e-34: truncation tail far below 1e-10


def melnikov(mu: float, beta: float, eps: float,
             method: MelnikovMethod = MelnikovMethod.CLOSED_FORM) -> MelnikovResult:
    """Melnikov integral along the saddle loop of the conservative limit.

    Closed form:

        M = 4 beta^2 mu / (3 eps) + 16 beta^3 / (15 eps^2)
            - 128 beta^4 / (105 eps^3)

    Quadrature evaluates int y(t)^2 (mu + x(t)^2 - x(t)^4) dt over
    the explicit loop x = sqrt(2 beta/eps) sech t,
    y = -sqrt(2) beta/sqrt(eps) sech t tanh t, by the trapezoid rule on the
    nodes t = -40 + 0.05 k, k = 0..1600, summed by ``math.fsum`` (see
    :class:`MelnikovMethod`).
    ``scale`` sums the magnitudes of the closed form's terms, which M
    cancels near ``mu3``, its root in mu (:func:`homoclinic_curve`).

    Outside [2^-250, 2^250], where beta^4 or eps^3 may leave the float
    range, the terms and the quadrature's weight 2 beta^2/eps run on the
    mantissas b, e of beta = b 2^p and eps = e 2^q (``math.frexp``), and
    each is scaled back by its own power of two: beta^n/eps^(n-1) by
    2^(n p - (n-1) q).  The scaling is exact, so a term keeps its in-range
    bits and leaves the range only where it does itself, whatever the
    ratio beta/eps; inside the box p = q = 0.
    Raises ValueError where ``mu3``, a term or M leaves the float range.
    """
    if not (beta > 0 and eps > 0):
        raise ValueError("melnikov requires beta > 0 and eps > 0")
    b, e, p, q = beta, eps, 0, 0
    if not (2.0 ** -250 <= b <= 2.0 ** 250 and 2.0 ** -250 <= e <= 2.0 ** 250):
        (b, p), (e, q) = math.frexp(beta), math.frexp(eps)
    try:
        mu3 = homoclinic_curve(beta, eps)
        # ldexp raises OverflowError where a term overflows
        lin = math.ldexp(4.0 * b * b * mu / (3.0 * e), 2 * p - q)
        cub = math.ldexp(16.0 * b ** 3 / (15.0 * e * e), 3 * p - 2 * q)
        quart = math.ldexp(128.0 * b ** 4 / (105.0 * e ** 3), 4 * p - 3 * q)
        if method is MelnikovMethod.CLOSED_FORM:
            value = lin + cub - quart
        else:
            # h = 0.05; the end nodes, where the integrand is ~1e-34, take
            # weight h rather than h/2, which changes nothing
            h = 2.0 * _QUAD_T / 1600
            a, w = math.ldexp(2.0 * b / e, p - q), 2.0 * b * b / e
            terms = []
            for t in [-_QUAD_T + i * h for i in range(1600)] + [_QUAD_T]:
                c, th = math.cosh(t), math.tanh(t)
                sech2 = 1.0 / (c * c)
                x2 = a * sech2
                terms.append(w * sech2 * (th * th) * (mu + x2 - x2 * x2))
            value = math.ldexp(h * math.fsum(terms), 2 * p - q)
        if not math.isfinite(value):
            raise OverflowError(value)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        # fsum raises ValueError on a sum of inf and -inf
        raise ValueError(f"melnikov leaves the float range at "
                         f"beta={beta:g}, eps={eps:g}") from exc
    return MelnikovResult(value, abs(lin) + cub + quart, mu3)


def homoclinic_curve(beta: float, eps: float) -> float:
    """Homoclinic threshold mu_3 = 32 beta^2/(35 eps^2) - 4 beta/(5 eps),
    the root in mu of the closed-form Melnikov integral; beta, eps > 0.

    Outside [2^-500, 2^500] the form is evaluated on (beta, eps) / 2^k,
    k from :func:`~qvdp.equilibria.scale_exponent`, which is exact; it
    raises ValueError only where mu_3 is not a finite double.
    """
    if not (beta > 0 and eps > 0):
        raise ValueError("homoclinic curve requires beta > 0 and eps > 0")
    k = scale_exponent(eps, beta, eps)
    b, e = math.ldexp(beta, -k), math.ldexp(eps, -k)
    try:
        mu3 = (32.0 * b * b) / (35.0 * e * e) - (4.0 * b) / (5.0 * e)
        if not math.isfinite(mu3):
            raise OverflowError(mu3)
    except (OverflowError, ZeroDivisionError):
        # a scaled eps^2 underflows to zero only where (beta/eps)^2 overflows
        raise ValueError(f"homoclinic curve leaves the float range at "
                         f"beta={beta:g}, eps={eps:g}") from None
    return mu3


# --- non-existence certificates / region classifier ------------------------

class CertificateKind(enum.Enum):
    DULAC = "dulac"
    INDEX = "index"
    ENERGY = "energy"


class Certificate(NamedTuple):
    kind: CertificateKind
    reason: str


# per criterion, in check order: its kind, whether its inequality holds,
# the certificate's reason, and its entry in a region label
_CRITERIA = (
    (CertificateKind.DULAC, lambda p: p.mu <= -0.25,
     "mu <= -1/4: divergence mu + x^2 - x^4 <= -(x^2 - 1/2)^2 "
     "+ (mu + 1/4) <= 0 everywhere (Bendixson-Dulac)",
     "dulac: mu <= -1/4, divergence nonpositive everywhere"),
    (CertificateKind.INDEX,
     lambda p: (p.eps <= 0 and p.beta > 0) or (p.eps < 0 and p.beta == 0),
     "sole equilibrium is a saddle (index -1); a closed orbit would "
     "have to enclose index +1 (index theory)",
     "index: sole equilibrium is a saddle"),
    (CertificateKind.ENERGY,
     lambda p: p.eps > 0 and p.beta == 0 and p.mu <= -5.0 / 36.0,
     "eps > 0, beta = 0, mu <= -5/36: dE/dt = eps x^4 "
     "(mu + x^2/3 - x^4/5) <= 0, closed orbits impossible",
     "energy: dE/dt <= 0 along orbits"),
)


def nonexistence_certificate(p: Params) -> Optional[Certificate]:
    """Certificate that no limit cycle or homoclinic loop exists, if any.

    Checked in order: Bendixson-Dulac (mu <= -1/4, divergence nonpositive
    everywhere), index theory (the sole equilibrium is a saddle), energy
    dissipation (eps > 0, beta = 0, mu <= -5/36).  Returns None when no
    criterion applies.
    """
    for kind, holds, reason, _ in _CRITERIA:
        if holds(p):
            return Certificate(kind, reason)
    return None


class Region(enum.Enum):
    NO_CYCLE_SADDLE_ONLY = "no_cycle_saddle_only"
    NO_CYCLE_ENERGY = "no_cycle_energy"
    NO_CYCLE_DULAC = "no_cycle_dulac"
    SINGLE_SMALL_CYCLE = "single_small_cycle"
    TWO_SMALL_CYCLES = "two_small_cycles"
    HOMOCLINIC_PAIR = "homoclinic_pair"
    LARGE_CYCLE = "large_cycle"
    THREE_EQ_NO_CYCLE = "three_eq_no_cycle"


class RegionLabel(NamedTuple):
    """A regime with the values it was decided from: ``mus`` and ``mu3``,
    the critical mus and the homoclinic value mu is compared against, are
    None unless beta > 0 and eps > 0."""

    label: Region
    certificates: tuple[str, ...] = ()
    mus: Optional[CriticalMus] = None
    mu3: Optional[float] = None


def classify_region(p: Params) -> RegionLabel:
    """Global phase-portrait regime of (eps, beta, mu); alpha is ignored.

    Total and deterministic.  Exact membership of the homoclinic curve is
    decided with absolute tolerance 1e-9 (the curve has measure zero and
    the closed forms are exact in double precision).  For eps > 0,
    beta = 0, -5/36 < mu < 0 no non-existence proof is known; that open
    strip is reported under NO_CYCLE_ENERGY with an explicit note in the
    certificate list.
    """
    held = [(kind, entry) for kind, holds, _, entry in _CRITERIA if holds(p)]
    kinds = {kind for kind, _ in held}
    certs = [entry for _, entry in held]
    mus = mu3 = None
    if p.eps <= 0:
        label = Region.NO_CYCLE_SADDLE_ONLY
    elif p.beta == 0:
        if p.mu >= 0:
            certs.append("poincare-bendixson: equator repels inward, origin "
                         "unstable; annulus traps a stable cycle")
            label = Region.SINGLE_SMALL_CYCLE
        elif CertificateKind.DULAC in kinds:
            label = Region.NO_CYCLE_DULAC
        else:
            if CertificateKind.ENERGY not in kinds:
                certs.append("uncertified: -5/36 < mu < 0 with beta = 0; "
                             "origin is a stable node but no closed-orbit "
                             "exclusion is proven")
            label = Region.NO_CYCLE_ENERGY
    else:
        mus, mu3 = critical_mus(p), homoclinic_curve(p.beta, p.eps)
        if abs(p.mu - mu3) <= HOMOCLINIC_CURVE_TOL:
            label = Region.HOMOCLINIC_PAIR
        elif p.mu <= mus.muc:
            label = Region.THREE_EQ_NO_CYCLE
        elif p.mu < mu3:
            label = Region.TWO_SMALL_CYCLES
        else:
            label = Region.LARGE_CYCLE
    return RegionLabel(label, tuple(certs), mus, mu3)
