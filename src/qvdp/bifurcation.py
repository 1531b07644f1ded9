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
  of the conservative limit.

The Hopf coefficients g_kl are *computed from the vector field*, by
evaluating the complex-diagonalized system on circles |z| = r and reading
the Taylor coefficients off FFT modes.  Hand-transcribed closed forms for
these coefficients are error-prone; the identity Re c1(mu_c) = -1/(2 beta) and an
independent polynomial-composition oracle in the test suite pin the
computation down instead.

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
from dataclasses import dataclass, field
from math import factorial
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .equilibria import critical_mus
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


@dataclass(frozen=True)
class PitchforkReduction:
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


@dataclass(frozen=True)
class HopfData:
    """Normal-form data of the E2 (equivalently E1) focus.

    ``g`` maps (k, l) with 2 <= k+l <= 3 to the coefficient of
    z^k zbar^l / (k! l!) in the complex-diagonalized equation
    z' = lambda z + sum g_kl z^k zbar^l / (k! l!).  ``c1`` is the cubic
    resonant coefficient after removing the non-resonant terms; ``l1`` the
    first Lyapunov coefficient Re c1(mu_c) / omega(mu_c).
    """

    lambda_mu: complex
    g: dict
    c1: complex
    l1: float
    ddelta_dmu: float
    muc: float
    omega0: float


def _eig_pair(p: Params) -> complex:
    mus = critical_mus(p)
    sigma = p.mu - mus.muc
    disc = 8.0 * p.beta - sigma * sigma
    if disc <= 0:
        raise ValueError("eigenvalues at E1/E2 are real; need mu1 < mu < mu2")
    return complex(0.5 * sigma, 0.5 * math.sqrt(disc))


def _diagonalized_nonlinearity(p: Params, lam: complex):
    """Callable z -> N1(z, conj z): first component of the shifted field in
    the complex eigenbasis, linear part removed.

    The coordinate change is x = x2 + u with x2 = sqrt(beta/eps) and
    (u, y)^T = T (z, zbar)^T, T = [[conj(lam)/(2 beta), lam/(2 beta)], [1, 1]].
    The field formula is evaluated directly at complex arguments, so no
    transcription of shifted Taylor coefficients enters here.
    """
    mu, beta, eps = p.mu, p.beta, p.eps
    x2 = math.sqrt(beta / eps)
    sigma = 2.0 * lam.real
    lamb = lam.conjugate()
    pref = lam / (lam - lamb)

    def n1(z):
        zb = np.conj(z)
        u = (lamb * z + lam * zb) / (2.0 * beta)
        y = z + zb
        x = x2 + u
        ydot = (mu + x * x - x ** 4) * y + beta * x - eps * x ** 3
        return pref * (ydot - (-2.0 * beta * u + sigma * y))

    return n1


# (k, l) -> (FFT mode k-l, degrees k+l of the two monomials sharing the mode
# up to the field's total degree 5)
_MODE_TABLE = {
    (2, 0): (2, (2, 4)), (1, 1): (0, (2, 4)), (0, 2): (-2, (2, 4)),
    (3, 0): (3, (3, 5)), (2, 1): (1, (3, 5)), (1, 2): (-1, (3, 5)),
    (0, 3): (-3, (3, 5)),
}
_FFT_N = 64


def _taylor_coeffs(n1, radius: float) -> dict:
    """Raw monomial coefficients n_kl of z^k zbar^l, 2 <= k+l <= 3.

    Samples n1 on circles |z| = radius and 2*radius; the monomial
    z^k zbar^l restricted to |z| = r contributes r^(k+l) e^(i(k-l)theta),
    so an FFT over theta isolates modes m = k - l and a 2x2 Vandermonde in
    r^(k+l) separates the two total degrees per mode.  Exact for polynomial
    n1 up to rounding.
    """
    theta = 2.0 * np.pi * np.arange(_FFT_N) / _FFT_N
    rings = np.exp(1j * theta)
    modes = {}
    for r in (radius, 2.0 * radius):
        modes[r] = np.fft.fft(n1(r * rings)) / _FFT_N
    out = {}
    r1, r2 = radius, 2.0 * radius
    for (k, l), (m, (d1, d2)) in _MODE_TABLE.items():
        A = np.array([[r1 ** d1, r1 ** d2], [r2 ** d1, r2 ** d2]])
        b = np.array([modes[r1][m % _FFT_N], modes[r2][m % _FFT_N]])
        out[(k, l)] = complex(np.linalg.solve(A, b)[0])
    return out


def _g_coeffs(p: Params, lam: complex) -> dict:
    # sample radius keeps |u| <= ~0.1 regardless of the eigenbasis scaling
    radius = 0.1 * min(1.0, p.beta / abs(lam))
    n = _taylor_coeffs(_diagonalized_nonlinearity(p, lam), radius)
    return {kl: factorial(kl[0]) * factorial(kl[1]) * v for kl, v in n.items()}


def _c1_from_g(g: dict, lam: complex) -> complex:
    lamb = lam.conjugate()
    return (g[(2, 1)] / 2.0
            + g[(0, 2)] * np.conj(g[(0, 2)]) / (2.0 * (2.0 * lam - lamb))
            + g[(1, 1)] * np.conj(g[(1, 1)]) / lam
            + g[(1, 1)] * g[(2, 0)] * (2.0 * lam + lamb) / (2.0 * lam * lamb))


def hopf_normal_form(p: Params) -> HopfData:
    """Normal-form data at E2 for the given parameters.

    Requires beta > 0, eps > 0, and mu within (mu1, mu2) so the
    linearization is a focus.  ``c1`` is evaluated at the given mu;
    ``l1`` at the critical value mu_c, where Re c1 = -1/(2 beta).
    """
    if not (p.beta > 0 and p.eps > 0):
        raise ValueError("hopf normal form requires beta > 0 and eps > 0")
    mus = critical_mus(p)
    lam = _eig_pair(p)
    g = _g_coeffs(p, lam)
    c1 = _c1_from_g(g, lam)

    omega0 = math.sqrt(2.0 * p.beta)
    pc = Params(mu=mus.muc, beta=p.beta, eps=p.eps, alpha=0.0, omega=p.omega)
    lam_c = _eig_pair(pc)
    c1_c = _c1_from_g(_g_coeffs(pc, lam_c), lam_c)
    l1 = c1_c.real / omega0

    return HopfData(lambda_mu=lam, g=g, c1=c1, l1=l1, ddelta_dmu=0.5,
                    muc=mus.muc, omega0=omega0)


@dataclass(frozen=True)
class CyclePrediction:
    """Leading-order prediction of the Hopf cycle around E1/E2.

    ``radius_estimate`` is the predicted half peak-to-peak x-excursion
    around the equilibrium (the quantity comparable with a detected cycle);
    ``z_radius`` the amplitude in the complex eigen-coordinate,
    ``normal_form_radius`` sqrt(alpha) in the fully rescaled normal form.
    All are truncations at cubic order and degrade ~linearly in mu - mu_c.
    """

    exists: bool
    radius_estimate: float
    z_radius: float
    normal_form_radius: float


def hopf_cycle_prediction(p: Params) -> CyclePrediction:
    """Existence (mu > mu_c) and leading-order size of the small cycle."""
    if not (p.beta > 0 and p.eps > 0):
        raise ValueError("cycle prediction requires beta > 0 and eps > 0")
    mus = critical_mus(p)
    if p.mu <= mus.muc:
        return CyclePrediction(False, 0.0, 0.0, 0.0)
    hopf = hopf_normal_form(p)
    lam = hopf.lambda_mu
    delta, omega = lam.real, lam.imag
    alpha = delta / omega
    nf_radius = math.sqrt(alpha)
    # radial truncation r' = delta r + Re c1 r^3 => r* = sqrt(-delta/Re c1)
    z_radius = math.sqrt(delta / (-hopf.c1.real))
    x_radius = z_radius * abs(lam) / p.beta
    return CyclePrediction(True, x_radius, z_radius, nf_radius)


def torus_frequency_estimate(p: Params) -> float:
    """Angular frequency of the Hopf cycle to cubic order.

    omega(mu) + Im c1 * rho0 with rho0 = -Re lambda / Re c1, the phase
    speed on the truncated normal-form cycle.  Under small periodic
    forcing this is the predicted first fundamental frequency of the
    invariant torus near E1/E2.
    """
    hopf = hopf_normal_form(p)
    lam = hopf.lambda_mu
    if lam.real <= 0:
        return lam.imag
    rho0 = -lam.real / hopf.c1.real
    return lam.imag + hopf.c1.imag * rho0


# --- Melnikov / homoclinic -------------------------------------------------

class MelnikovMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class MelnikovResult:
    value: float
    method: MelnikovMethod
    mu3: float


_QUAD_T = 40.0  # sech^2(40) ~ 1e-34: truncation tail far below 1e-10


def melnikov(mu: float, beta: float, eps: float, eps1: float = 1.0,
             method: MelnikovMethod = MelnikovMethod.CLOSED_FORM) -> MelnikovResult:
    """Melnikov integral along the saddle loop of the conservative limit.

    Closed form:

        M = 4 beta^2 mu / (3 eps) + 16 beta^3 / (15 eps^2)
            - 128 beta^4 eps1^2 / (105 eps^3)

    Quadrature evaluates int y(t)^2 (mu + x(t)^2 - eps1^2 x(t)^4) dt over
    the explicit loop x = sqrt(2 beta/eps) sech t,
    y = -sqrt(2) beta/sqrt(eps) sech t tanh t, truncated to |t| <= 40.
    ``mu3`` is the root of M in mu at the given eps1.
    """
    if not (beta > 0 and eps > 0):
        raise ValueError("melnikov requires beta > 0 and eps > 0")
    mu3 = _mu3(beta, eps, eps1)
    if method is MelnikovMethod.CLOSED_FORM:
        value = (4.0 * beta * beta * mu / (3.0 * eps)
                 + 16.0 * beta ** 3 / (15.0 * eps * eps)
                 - 128.0 * beta ** 4 * eps1 * eps1 / (105.0 * eps ** 3))
        return MelnikovResult(value, MelnikovMethod.CLOSED_FORM, mu3)

    cx = math.sqrt(2.0 * beta / eps)
    cy = math.sqrt(2.0) * beta / math.sqrt(eps)

    def integrand(t):
        sech = 1.0 / math.cosh(t)
        tanh = math.tanh(t)
        x2 = cx * cx * sech * sech
        y2 = cy * cy * sech * sech * tanh * tanh
        return y2 * (mu + x2 - eps1 * eps1 * x2 * x2)

    value, _ = quad(integrand, -_QUAD_T, _QUAD_T,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    return MelnikovResult(value, MelnikovMethod.QUADRATURE, mu3)


def _mu3(beta: float, eps: float, eps1: float) -> float:
    # root in mu of the closed-form Melnikov integral
    return (32.0 * beta * beta * eps1 * eps1) / (35.0 * eps * eps) \
        - (4.0 * beta) / (5.0 * eps)


def homoclinic_curve(beta: float, eps: float) -> float:
    """Homoclinic threshold mu_3 = 32 beta^2/(35 eps^2) - 4 beta/(5 eps)."""
    if not (beta > 0 and eps > 0):
        raise ValueError("homoclinic curve requires beta > 0 and eps > 0")
    return _mu3(beta, eps, 1.0)


# --- non-existence certificates / region classifier ------------------------

class CertificateKind(enum.Enum):
    DULAC = "dulac"
    INDEX = "index"
    ENERGY = "energy"


@dataclass(frozen=True)
class Certificate:
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


@dataclass(frozen=True)
class RegionLabel:
    label: Region
    certificates: tuple[str, ...] = field(default_factory=tuple)


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
    if p.eps <= 0:
        return RegionLabel(Region.NO_CYCLE_SADDLE_ONLY, tuple(certs))
    if p.beta == 0:
        if p.mu >= 0:
            certs.append("poincare-bendixson: equator repels inward, origin "
                         "unstable; annulus traps a stable cycle")
            return RegionLabel(Region.SINGLE_SMALL_CYCLE, tuple(certs))
        if CertificateKind.DULAC in kinds:
            return RegionLabel(Region.NO_CYCLE_DULAC, tuple(certs))
        if CertificateKind.ENERGY in kinds:
            return RegionLabel(Region.NO_CYCLE_ENERGY, tuple(certs))
        certs.append("uncertified: -5/36 < mu < 0 with beta = 0; origin is "
                     "a stable node but no closed-orbit exclusion is proven")
        return RegionLabel(Region.NO_CYCLE_ENERGY, tuple(certs))
    # eps > 0, beta > 0
    muc = critical_mus(p).muc
    mu3 = homoclinic_curve(p.beta, p.eps)
    if abs(p.mu - mu3) <= HOMOCLINIC_CURVE_TOL:
        return RegionLabel(Region.HOMOCLINIC_PAIR, tuple(certs))
    if p.mu <= muc:
        return RegionLabel(Region.THREE_EQ_NO_CYCLE, tuple(certs))
    if p.mu < mu3:
        return RegionLabel(Region.TWO_SMALL_CYCLES, tuple(certs))
    return RegionLabel(Region.LARGE_CYCLE, tuple(certs))
