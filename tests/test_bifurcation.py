import math
import warnings
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from qvdp import bifurcation, cli, equilibria
from qvdp.bifurcation import (CertificateKind, MelnikovMethod, PitchforkKind,
                              Region, classify_region, homoclinic_curve,
                              hopf_curve, hopf_cycle_prediction,
                              hopf_normal_form, melnikov,
                              nonexistence_certificate, pitchfork_reduction,
                              torus_frequency_estimate)
from qvdp.detect import find_limit_cycle
from qvdp.equilibria import critical_mus, find_equilibria
from qvdp.integrate import integrate
from qvdp.model import Params, State, unforced_rhs


# --- pitchfork ---------------------------------------------------------------

def test_pitchfork_kinds_and_coefficients():
    r = pitchfork_reduction(Params(mu=1.0, beta=0.0, eps=2.0))
    assert r.kind is PitchforkKind.SUBCRITICAL
    assert r.cubic_coeff == 2.0
    r2 = pitchfork_reduction(Params(mu=-1.0, beta=0.0, eps=2.0))
    assert r2.kind is PitchforkKind.SUPERCRITICAL
    assert r2.cubic_coeff == -2.0
    with pytest.raises(ValueError):
        pitchfork_reduction(Params(mu=0.0, beta=0.0, eps=2.0))
    with pytest.raises(ValueError):
        pitchfork_reduction(Params(mu=1.0, beta=0.0, eps=-2.0))


def test_pitchfork_fixed_points_match_equilibria():
    p = Params(mu=-1.0, beta=0.01, eps=2.0)
    r = pitchfork_reduction(p)
    # fixed points of x' = l x + c x^3
    x_star = math.sqrt(-r.linear_coeff / r.cubic_coeff)
    eqs = find_equilibria(p)
    assert abs(x_star - eqs[2].location.x) < 1e-15
    assert abs(x_star - math.sqrt(p.beta / p.eps)) < 1e-15

    # supercritical side: the reduced flow settles onto the new branch
    def rhs(t, s):
        return np.array([r.linear_coeff * s[0] + r.cubic_coeff * s[0] ** 3])

    traj = integrate(rhs, np.array([0.03]), (0.0, 4000.0), tol=(1e-12, 1e-10))
    assert abs(traj.final[0] - x_star) < 1e-6


# --- Hopf --------------------------------------------------------------------

def test_hopf_curve_values():
    assert abs(hopf_curve(1.0, 3.0) - (-2.0 / 9.0)) < 1e-15
    assert hopf_curve(1.0, 1.0) == 0.0
    for b in (0.3, 1.7):
        assert hopf_curve(b, b) == 0.0
    with pytest.raises(ValueError):
        hopf_curve(0.0, 1.0)
    p = Params(mu=0.0, beta=1.3, eps=0.8)
    assert hopf_curve(1.3, 0.8) == critical_mus(p).muc


def test_c1_identity_at_criticality():
    for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
        for eps in (0.5, 1.0, 2.0):
            muc = hopf_curve(beta, eps)
            h = hopf_normal_form(Params(mu=muc, beta=beta, eps=eps))
            assert abs(h.c1.real + 1.0 / (2.0 * beta)) < 1e-8
            assert h.c1.real < 0
            assert abs(h.l1 - h.c1.real / math.sqrt(2.0 * beta)) < 1e-12
            assert h.l1 < 0


def test_lambda_at_criticality():
    h = hopf_normal_form(Params(mu=-0.25, beta=1.0, eps=2.0))
    assert abs(h.lambda_mu.real) < 1e-15
    assert abs(h.lambda_mu.imag - math.sqrt(2.0)) < 1e-15
    assert h.ddelta_dmu == 0.5


def test_transversality_numerically():
    beta, eps = 1.0, 2.0
    muc = hopf_curve(beta, eps)
    h = 1e-5

    def delta(mu):
        return hopf_normal_form(Params(mu=mu, beta=beta, eps=eps)).lambda_mu.real

    d = (delta(muc + h) - delta(muc - h)) / (2.0 * h)
    assert abs(d - 0.5) < 1e-10


def test_hopf_domain_errors():
    with pytest.raises(ValueError):
        hopf_normal_form(Params(mu=0.0, beta=0.0, eps=2.0))
    p = Params(mu=0.0, beta=1.0, eps=2.0)
    mus = critical_mus(p)
    with pytest.raises(ValueError):
        hopf_normal_form(Params(mu=mus.mu2 + 1.0, beta=1.0, eps=2.0))


# independent oracle: expand the shifted vector field through the complex
# eigenbasis by pure coefficient convolution (no sampling of the field)

def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def _poly_scale(a: dict, s) -> dict:
    return {k: s * v for k, v in a.items()}


def _poly_pow(a: dict, n: int) -> dict:
    out = {(0, 0): 1.0}
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def _oracle_g(beta: float, eps: float, mu: float) -> dict:
    x2 = math.sqrt(beta / eps)
    muc = (beta * beta - eps * beta) / (eps * eps)
    sigma = mu - muc
    lam = complex(0.5 * sigma, 0.5 * math.sqrt(8.0 * beta - sigma * sigma))
    lamb = lam.conjugate()

    # ydot(x2+u, y) as a polynomial in (u, y)
    u = {(1, 0): 1.0}
    y = {(0, 1): 1.0}
    x = _poly_add(u, {(0, 0): x2})
    x_sq = _poly_mul(x, x)
    bracket = _poly_add({(0, 0): mu}, _poly_add(x_sq,
                        _poly_scale(_poly_mul(x_sq, x_sq), -1.0)))
    ydot = _poly_add(_poly_mul(bracket, y),
                     _poly_add(_poly_scale(x, beta),
                               _poly_scale(_poly_mul(x_sq, x), -eps)))
    # nonlinear part only
    f2 = {k: v for k, v in ydot.items() if k[0] + k[1] >= 2}

    # substitute u = a z + conj(a) zbar, y = z + zbar
    a = lamb / (2.0 * beta)
    sub_u = {(1, 0): a, (0, 1): a.conjugate()}
    sub_y = {(1, 0): 1.0 + 0.0j, (0, 1): 1.0 + 0.0j}
    n1: dict = {}
    for (i, j), c in f2.items():
        term = _poly_scale(_poly_mul(_poly_pow(sub_u, i), _poly_pow(sub_y, j)), c)
        n1 = _poly_add(n1, term)
    pref = lam / (lam - lamb)
    return {(k, l): factorial(k) * factorial(l) * pref * v
            for (k, l), v in n1.items() if 2 <= k + l <= 3}


@pytest.mark.parametrize("beta,eps,mu_off", [
    (1.0, 2.0, 0.0), (1.0, 2.0, 0.05), (0.5, 1.0, -0.1),
    (2.0, 0.7, 0.2), (0.25, 3.0, 0.0),
    (5.0, 0.05, 0.0), (0.01, 3.0, 0.0),  # beta/eps = 100 and 1/300
])
def test_g_coefficients_against_composition_oracle(beta, eps, mu_off):
    mu = hopf_curve(beta, eps) + mu_off
    h = hopf_normal_form(Params(mu=mu, beta=beta, eps=eps))
    oracle = _oracle_g(beta, eps, mu)
    assert set(h.g) == set(oracle)
    for kl in oracle:
        err = abs(h.g[kl] - oracle[kl])
        assert err < 1e-8, kl
        assert err <= 1e-12 * max(1.0, abs(oracle[kl])), kl


def test_cycle_prediction_existence():
    p = Params(mu=-0.25, beta=1.0, eps=2.0)  # exactly mu_c
    pred = hopf_cycle_prediction(p)
    assert not pred.exists and pred.radius_estimate == 0.0
    pred2 = hopf_cycle_prediction(Params(mu=0.2, beta=1.0, eps=2.0))
    assert pred2.exists and pred2.radius_estimate > 0
    with pytest.raises(ValueError):
        hopf_cycle_prediction(Params(mu=0.2, beta=0.0, eps=2.0))
    mu2 = critical_mus(p).mu2
    for mu in (mu2, mu2 + 1.0):  # E2 a node: no focus, no small cycle
        with pytest.raises(ValueError):
            hopf_cycle_prediction(Params(mu=mu, beta=1.0, eps=2.0))


@pytest.mark.parametrize("beta,eps", [(1.0, 0.5), (4.0, 1.0)])
def test_cycle_prediction_raises_at_mu2(beta, eps):
    # rounding leaves (mu2 - muc)^2 - 8 beta slightly negative here, but E2
    # is a node at mu2 and has no small cycle
    mu2 = critical_mus(Params(mu=0.0, beta=beta, eps=eps)).mu2
    with pytest.raises(ValueError):
        hopf_cycle_prediction(Params(mu=mu2, beta=beta, eps=eps))


def test_normal_form_extracted_once(monkeypatch):
    # l1 and the cycle prediction read Re c1(mu_c) = -1/(2 beta) directly;
    # only g and c1 at mu itself need the coefficients
    calls = []
    coeffs = bifurcation._g_coeffs

    def counted(p, lam):
        calls.append(lam)
        return coeffs(p, lam)

    monkeypatch.setattr(bifurcation, "_g_coeffs", counted)
    p = Params(mu=-0.2, beta=1.0, eps=2.0)
    hopf_cycle_prediction(p)
    assert len(calls) == 0
    hopf_normal_form(p)
    assert len(calls) == 1


@pytest.mark.parametrize("mu_off", [0.01, 1e-5])
def test_cycle_prediction_matches_detected_amplitude(mu_off):
    # leading-order radius against the detected cycle at mu - mu_c = mu_off;
    # at 1e-5 the whole cycle lies within the 1e-2 collapse radius of the
    # repelling focus E2, and one seed starts at the predicted radius, one
    # outside the cycle, 0.02 right of E2
    p = Params(mu=hopf_curve(1.0, 2.0) + mu_off, beta=1.0, eps=2.0)
    pred = hopf_cycle_prediction(p)
    x_e2 = math.sqrt(0.5)
    seeds = ([0.85] if mu_off == 0.01
             else [x_e2 + pred.radius_estimate, x_e2 + 0.02])
    for x in seeds:
        cyc = find_limit_cycle(p, State(x, 0.0))
        assert cyc is not None and cyc.stable
        loop = integrate(unforced_rhs(p), np.array(cyc.representative),
                         (0.0, cyc.period), tol=(1e-12, 1e-10),
                         t_eval=np.linspace(0.0, cyc.period, 2001))
        xdev = 0.5 * (loop.states[:, 0].max() - loop.states[:, 0].min())
        assert abs(xdev - pred.radius_estimate) < 0.25 * xdev


@pytest.mark.parametrize("beta,eps,mu_off",
                         [(4.0, 0.5, 0.01), (4.0, 1.0, 0.1), (2.0, 0.5, 0.1)])
def test_cycle_prediction_past_re_c1_sign_change(beta, eps, mu_off):
    # Re c1 at mu turns positive just above mu_c here (at beta=4, eps=0.5:
    # -0.125 at mu_c, +0.187 at mu_c + 0.01); the radial truncation uses
    # Re c1(mu_c) = -1/(2 beta), so |z| = sqrt(beta (mu - mu_c))
    p = Params(mu=hopf_curve(beta, eps) + mu_off, beta=beta, eps=eps)
    assert hopf_normal_form(p).c1.real > 0
    pred = hopf_cycle_prediction(p)
    assert pred.exists
    assert abs(pred.z_radius - math.sqrt(beta * mu_off)) < 1e-9
    assert math.isfinite(torus_frequency_estimate(p))


def test_torus_frequency_at_a_stable_focus_is_the_linear_one():
    # below mu_c the foci are stable and there is no cycle: the estimate is
    # Im lambda itself, with no cubic correction
    p = Params(mu=hopf_curve(1.0, 2.0) - 0.05, beta=1.0, eps=2.0)
    assert torus_frequency_estimate(p) == hopf_normal_form(p).lambda_mu.imag
    assert torus_frequency_estimate(p) == 1.4139925742379271


def test_torus_frequency_tracks_cycle_frequency():
    # in the two-small-cycles band the cubic normal form should beat the
    # bare linear frequency by a wide margin
    p = Params(mu=-0.19, beta=1.0, eps=3.0)
    cyc = find_limit_cycle(p, State(0.75, 0.0))
    assert cyc is not None
    omega_true = 2.0 * math.pi / cyc.period
    w1 = torus_frequency_estimate(p)
    lin = hopf_normal_form(p).lambda_mu.imag
    assert abs(w1 - omega_true) < 0.08 * omega_true
    assert abs(w1 - omega_true) < 0.4 * abs(lin - omega_true)


# --- Melnikov ----------------------------------------------------------------

def test_standard_sech_tanh_integrals():
    vals = {2: 2.0 / 3.0, 4: 4.0 / 15.0, 6: 16.0 / 105.0}
    for n, expect in vals.items():
        got, _ = quad(lambda t, n=n: (1.0 / math.cosh(t)) ** n * math.tanh(t) ** 2,
                      -40, 40, epsabs=1e-13, epsrel=1e-13)
        assert abs(got - expect) < 1e-12


def test_melnikov_closed_form_values():
    m = melnikov(0.0, 1.0, 1.0)
    assert abs(m.value - (16.0 / 15.0 - 128.0 / 105.0)) < 1e-15
    root = melnikov(-0.17142857142857143, 1.0, 2.0)
    assert abs(root.value) < 1e-15
    assert abs(m.mu3 - homoclinic_curve(1.0, 1.0)) < 1e-15


# (value, scale, mu3) as float.hex, closed form then quadrature: the sums
# and mu3 keep these bits to the last one
_MELNIKOV_BITS = {
    (-0.1714285, 1.0, 2.0): (
        ("0x1.990b64a000000p-25", "0x1.11110f7805ac7p-1",
         "-0x1.5f15f15f15f17p-3"),
        ("0x1.990b64a46399ap-25", "0x1.11110f7805ac7p-1",
         "-0x1.5f15f15f15f17p-3")),
    (0.2, 0.7, 1.3): (
        ("0x1.7860895db77c3p-3", "0x1.cd080fd27c182p-2",
         "-0x1.535048b5c6702p-3"),
        ("0x1.7860895db77c4p-3", "0x1.cd080fd27c182p-2",
         "-0x1.535048b5c6702p-3")),
    (-0.1, 2.0, 0.9): (
        ("-0x1.0d028669b7b9fp+4", "0x1.2f1089ca749edp+5",
         "0x1.5e5d0241eb3b2p+1"),
        ("-0x1.0d028669b7ba2p+4", "0x1.2f1089ca749edp+5",
         "0x1.5e5d0241eb3b2p+1")),
}


@pytest.mark.parametrize("mu,beta,eps", list(_MELNIKOV_BITS))
def test_melnikov_keeps_its_bits(mu, beta, eps):
    for method, bits in zip(MelnikovMethod, _MELNIKOV_BITS[mu, beta, eps]):
        got = melnikov(mu, beta, eps, method=method)
        assert tuple(map(float.hex, got)) == bits, method
        assert got.mu3 == homoclinic_curve(beta, eps)


# (mu1, muc, mu2) and E2's eigenvalue with positive imaginary part, as
# float.hex, at the points of _MELNIKOV_BITS: all three are foci
_CLOSED_FORM_BITS = {
    (-0.1714285, 1.0, 2.0): (
        ("-0x1.8a09e667f3bcdp+1", "-0x1.0000000000000p-2",
         "0x1.4a09e667f3bcdp+1"),
        ("0x1.41d4306e5cd4ep-5", "0x1.69e621ebaeb7cp+0")),
    (0.2, 0.7, 1.3): (
        ("-0x1.4eb6c47ed44ffp+1", "-0x1.fcf86d10a9a81p-3",
         "0x1.0f17b6dcbf1afp+1"),
        ("0x1.cb49035521a0ep-3", "0x1.2969b20f68d0bp+0")),
    (-0.1, 2.0, 0.9): (
        ("-0x1.48b0fcd6e9e06p+0", "0x1.5ba781948b0fdp+1",
         "0x1.add3c0ca4587ep+2"),
        ("-0x1.68744e6157dcap+0", "0x1.6b9dba04ba143p+0")),
}


@pytest.mark.parametrize("mu,beta,eps", list(_CLOSED_FORM_BITS))
def test_critical_mus_and_eigenvalues_keep_their_bits(mu, beta, eps):
    p = Params(mu=mu, beta=beta, eps=eps)
    mus, (re, im) = _CLOSED_FORM_BITS[mu, beta, eps]
    assert tuple(map(float.hex, critical_mus(p))) == mus
    lam, lam_bar = find_equilibria(p)[2].eigs
    assert (lam.real.hex(), lam.imag.hex()) == (re, im)
    assert lam_bar == lam.conjugate()


def test_melnikov_quadrature_agreement():
    rng = np.random.default_rng(17)
    for _ in range(27):
        beta = rng.uniform(0.5, 2.0)
        eps = rng.uniform(0.5, 3.0)
        mu = rng.uniform(-1.0, 1.0)
        cf = melnikov(mu, beta, eps).value
        qd = melnikov(mu, beta, eps, method=MelnikovMethod.QUADRATURE).value
        assert abs(cf - qd) <= 1e-6 * max(abs(cf), abs(qd), 1e-9)


def test_melnikov_mu3_root_identity():
    # the mu3 formula solves M = 0
    for beta, eps in [(1.0, 2.0), (0.7, 1.3), (2.0, 0.9)]:
        mu3 = 32.0 * beta ** 2 / (35.0 * eps ** 2) - 4.0 * beta / (5.0 * eps)
        assert abs(melnikov(mu3, beta, eps).value) < 1e-14
        assert abs(homoclinic_curve(beta, eps) - mu3) < 1e-15


def test_melnikov_domain_errors():
    with pytest.raises(ValueError):
        melnikov(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        melnikov(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        homoclinic_curve(1.0, 0.0)


@pytest.mark.parametrize("beta,eps", [(1.0, 1e-200), (1e200, 1.0)])
def test_homoclinic_curve_leaves_the_float_range(beta, eps):
    # eps^2 underflows to zero, or mu3 overflows: the curve raises as
    # hopf_curve does there, and melnikov keeps its own message
    with pytest.raises(ValueError, match="homoclinic curve leaves the float "
                                         "range"):
        homoclinic_curve(beta, eps)
    with pytest.raises(ValueError, match="float range"):
        hopf_curve(beta, eps)
    for method in MelnikovMethod:
        with pytest.raises(ValueError, match="melnikov leaves the float range"):
            melnikov(0.0, beta, eps, method=method)


@pytest.mark.parametrize("beta,eps", [(1e154, 1e10), (1.2e154, 1e10),
                                      (1e200, 1e200)])
def test_homoclinic_curve_survives_an_intermediate_overflow(beta, eps):
    # 32 beta^2 or 35 eps^2 overflows while mu3 ~ 32/35 (beta/eps)^2 is
    # representable: the curve stays finite, to rounding of that form
    r = beta / eps
    assert homoclinic_curve(beta, eps) == pytest.approx(
        32 / 35 * r * r - 0.8 * r, rel=1e-15)


@pytest.mark.parametrize("mu,beta", [(math.inf, 1.0), (math.nan, 1.0),
                                     (0.1, 1e80)])
def test_melnikov_non_finite_sums_raise(mu, beta):
    # both methods raise the same ValueError, and numpy warns about nothing
    for method in MelnikovMethod:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                melnikov(mu, beta, 2.0, method=method)


def _exact_melnikov(mu, beta, eps):
    b, e, m = Fraction(beta), Fraction(eps), Fraction(mu)
    return (4 * b * b * m / (3 * e) + 16 * b ** 3 / (15 * e * e)
            - 128 * b ** 4 / (105 * e ** 3))


@pytest.mark.parametrize("mu,beta,eps", [
    (0.1, 1e100, 1e100),                          # beta^4 overflows
    (1.0, 2.0 ** -300, 2.0 ** 300),               # beta^4 underflows to 0
    (0.1, 2.0 ** -260, 2.0 ** 200),               # beta^4 is subnormal
    (0.1, 2.0 ** -50, 2.0 ** -350)])              # eps^3 is subnormal
def test_melnikov_survives_an_intermediate_overflow(mu, beta, eps):
    # M is a double while a power of beta or eps is not: both methods run on
    # the mantissas and scale each term back; M cancels about 13:1 at the
    # first point, so the error is bounded relative to the terms' sum
    exact = _exact_melnikov(mu, beta, eps)
    for method in MelnikovMethod:
        got = melnikov(mu, beta, eps, method=method)
        assert abs(Fraction(got.value) - exact) <= 1e-15 * Fraction(got.scale)
        assert got.value != 0.0
        assert got.mu3 == homoclinic_curve(beta, eps)


def test_melnikov_matches_the_exact_form_wherever_it_is_a_double():
    # log-uniform beta and eps over 2^+-600, drawn apart: where mu3, each
    # term and M are doubles, both methods stay within 1e-15 of the terms'
    # sum of the Fraction value, and they raise only where one is not
    rng = np.random.default_rng(36)
    top, returned = Fraction(2.0 ** 1023), 0
    for _ in range(300):
        beta, eps = (float(2.0 ** x) for x in rng.uniform(-600, 600, 2))
        mu = float(rng.uniform(-1, 1))
        b, e = Fraction(beta), Fraction(eps)
        terms = (abs(4 * b * b * Fraction(mu) / (3 * e)),
                 16 * b ** 3 / (15 * e * e), 128 * b ** 4 / (105 * e ** 3))
        mu3 = 32 * b * b / (35 * e * e) - 4 * b / (5 * e)
        doubles = max(terms) < top and abs(mu3) < top
        for method in MelnikovMethod:
            if not doubles:
                with pytest.raises(ValueError, match="float range"):
                    melnikov(mu, beta, eps, method=method)
                continue
            got = melnikov(mu, beta, eps, method=method)
            tol = 1e-15 * Fraction(got.scale) + Fraction(2.0 ** -1070)
            assert abs(Fraction(got.value) - _exact_melnikov(mu, beta, eps)) <= tol
            returned += 1
    assert returned > 150


@pytest.mark.parametrize("j", [-900, -400, -260, 260, 400, 900])
def test_melnikov_scales_with_beta_and_eps_bit_for_bit(j):
    # M has degree 1 in (beta, eps): the rescaled evaluation outside
    # [2^-250, 2^250] gives the in-range bits times 2^j
    rng = np.random.default_rng(36)
    for _ in range(40):
        mu, beta, eps = rng.uniform(-1, 1), *rng.uniform(0.1, 10, 2)
        for method in MelnikovMethod:
            inside = melnikov(mu, beta, eps, method=method)
            outside = melnikov(mu, math.ldexp(beta, j), math.ldexp(eps, j),
                               method=method)
            assert outside == (math.ldexp(inside.value, j),
                               math.ldexp(inside.scale, j), inside.mu3)


def test_homoclinic_curve_values_and_melnikov_sign_change():
    mu3 = homoclinic_curve(1.0, 2.0)
    assert abs(mu3 - (-0.17142857142857143)) < 1e-15
    assert abs(homoclinic_curve(1.0, 1.0) - (32.0 / 35.0 - 4.0 / 5.0)) < 1e-15
    assert melnikov(mu3 - 1e-6, 1.0, 2.0).value < 0
    assert melnikov(mu3 + 1e-6, 1.0, 2.0).value > 0
    # bisection on the closed form recovers the curve
    root = brentq(lambda mu: melnikov(mu, 1.0, 2.0).value, mu3 - 0.1, mu3 + 0.1,
                  xtol=1e-14)
    assert abs(root - mu3) < 1e-12


def test_curve_ordering_and_intersection():
    # mu_c < mu_3 exactly while beta/eps < 7/3; the curves meet where
    # r = beta/eps solves r^2 - r = 32 r^2/35 - 4 r/5, i.e. r (3r - 7) = 0
    for r in (0.1, 0.5, 1.0, 2.0):
        beta, eps = r * 1.3, 1.3
        assert hopf_curve(beta, eps) < homoclinic_curve(beta, eps)
    for r in (2.5, 3.0):
        beta, eps = r * 1.3, 1.3
        assert hopf_curve(beta, eps) > homoclinic_curve(beta, eps)
    root = brentq(lambda r: hopf_curve(r, 1.0) - homoclinic_curve(r, 1.0),
                  2.0, 3.0, xtol=1e-12)
    assert abs(root - 7.0 / 3.0) < 1e-10
    assert abs(hopf_curve(1.0, 2.0) - (-0.25)) < 1e-15
    assert hopf_curve(1.0, 2.0) < homoclinic_curve(1.0, 2.0)


# --- certificates / regions --------------------------------------------------

def test_certificates():
    for beta, eps in [(1.0, 2.0), (0.0, 2.0), (1.0, -1.0)]:
        cert = nonexistence_certificate(Params(mu=-0.3, beta=beta, eps=eps))
        assert cert is not None and cert.kind is CertificateKind.DULAC
    cert = nonexistence_certificate(Params(mu=0.0, beta=1.0, eps=-1.0))
    assert cert.kind is CertificateKind.INDEX
    cert = nonexistence_certificate(Params(mu=0.5, beta=0.0, eps=-1.0))
    assert cert.kind is CertificateKind.INDEX
    cert = nonexistence_certificate(Params(mu=-5.0 / 36.0, beta=0.0, eps=2.0))
    assert cert.kind is CertificateKind.ENERGY
    assert nonexistence_certificate(Params(mu=0.1, beta=1.0, eps=2.0)) is None
    assert nonexistence_certificate(Params(mu=-0.1, beta=0.0, eps=2.0)) is None


def test_classify_region_reference_points():
    assert classify_region(Params(mu=-0.2, beta=1.0, eps=2.0)).label \
        is Region.TWO_SMALL_CYCLES
    assert classify_region(Params(mu=-0.1, beta=1.0, eps=2.0)).label \
        is Region.LARGE_CYCLE
    assert classify_region(Params(mu=1.0, beta=0.0, eps=2.0)).label \
        is Region.SINGLE_SMALL_CYCLE
    assert classify_region(Params(mu=0.3, beta=1.0, eps=-1.0)).label \
        is Region.NO_CYCLE_SADDLE_ONLY
    assert classify_region(Params(mu=-0.25, beta=1.0, eps=2.0)).label \
        is Region.THREE_EQ_NO_CYCLE
    mu3 = homoclinic_curve(1.0, 2.0)
    assert classify_region(Params(mu=mu3, beta=1.0, eps=2.0)).label \
        is Region.HOMOCLINIC_PAIR
    assert classify_region(Params(mu=mu3 + 1e-7, beta=1.0, eps=2.0)).label \
        is Region.LARGE_CYCLE
    assert classify_region(Params(mu=-0.3, beta=0.0, eps=2.0)).label \
        is Region.NO_CYCLE_DULAC
    assert classify_region(Params(mu=-5.0 / 36.0, beta=0.0, eps=2.0)).label \
        is Region.NO_CYCLE_ENERGY


@pytest.mark.parametrize("mu,beta,eps", [(-0.2, 1.0, 2.0), (-0.25, 1.0, 2.0),
                                         (0.3, 0.0, 2.0), (0.3, 1.0, -1.0),
                                         (0.0, 1.0, 0.0)])
def test_region_label_carries_the_values_it_was_decided_from(mu, beta, eps):
    p = Params(mu=mu, beta=beta, eps=eps)
    region = classify_region(p)
    if beta > 0 and eps > 0:
        assert region.mus == critical_mus(p)
        assert region.mu3 == homoclinic_curve(beta, eps)
    else:
        assert region.mus is None and region.mu3 is None


def _count_closed_forms(monkeypatch) -> Counter:
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    mus = counted(equilibria.critical_mus)
    monkeypatch.setattr(equilibria, "critical_mus", mus)
    monkeypatch.setattr(bifurcation, "critical_mus", mus)
    monkeypatch.setattr(bifurcation, "homoclinic_curve",
                        counted(bifurcation.homoclinic_curve))
    return calls


_P = Params(mu=-0.2, beta=1.0, eps=2.0)


@pytest.mark.parametrize("run, per_call", [
    # six sweep cells, all with beta, eps > 0
    (lambda: cli.main(["sweep", "--eps", "2", "--grid", "beta:0.5:1.5:2",
                       "--grid", "mu:-0.3:0.1:3"]),
     {"critical_mus": 6, "homoclinic_curve": 6}),
    (lambda: cli.main(["classify", "--beta", "1", "--eps", "2",
                       "--mu", "-0.2"]),
     {"critical_mus": 2, "homoclinic_curve": 1}),
    (lambda: hopf_normal_form(_P), {"critical_mus": 1}),
    (lambda: torus_frequency_estimate(_P), {"critical_mus": 1}),
])
def test_each_closed_form_once_per_answer(run, per_call, monkeypatch, capsys):
    # the region label hands the CLI the critical mus and mu_3 it was
    # decided from, and the Hopf data reads muc only through E2's record;
    # classify's second critical_mus is find_equilibria's
    calls = _count_closed_forms(monkeypatch)
    run()
    assert calls == Counter(per_call)


def test_classify_region_open_strip_is_flagged():
    lab = classify_region(Params(mu=-0.05, beta=0.0, eps=2.0))
    assert lab.label is Region.NO_CYCLE_ENERGY
    assert any("uncertified" in c for c in lab.certificates)


def test_classify_region_total_and_deterministic():
    rng = np.random.default_rng(23)
    for _ in range(300):
        beta = max(0.0, rng.uniform(-0.5, 3.0))
        eps = rng.uniform(-2.0, 3.0)
        if beta == 0.0 and eps == 0.0:
            continue
        mu = rng.uniform(-3.0, 3.0)
        p = Params(mu=mu, beta=beta, eps=eps)
        a = classify_region(p)
        b = classify_region(p)
        assert a == b
        assert isinstance(a.label, Region)


def test_dulac_certificate_attached_in_pre_hopf_region():
    lab = classify_region(Params(mu=-0.3, beta=1.0, eps=2.0))
    assert lab.label is Region.THREE_EQ_NO_CYCLE
    assert any("dulac" in c for c in lab.certificates)
