import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qvdp.bifurcation import homoclinic_curve
from qvdp.equilibria import (EqLabel, EquilibriumKind, critical_mus,
                             find_equilibria)
from qvdp.model import Params, field_unforced, jacobian

K = EquilibriumKind


def test_equilibrium_counts_and_locations():
    assert len(find_equilibria(Params(mu=0.1, beta=1.0, eps=-1.0))) == 1
    assert len(find_equilibria(Params(mu=0.1, beta=0.0, eps=2.0))) == 1
    eqs = find_equilibria(Params(mu=0.1, beta=1.0, eps=2.0))
    assert [e.label for e in eqs] == [EqLabel.O, EqLabel.E1, EqLabel.E2]
    assert abs(eqs[2].location.x - 0.70710678) < 1e-8
    assert eqs[1].location.x == -eqs[2].location.x


def test_locations_are_exact_roots():
    for p in [Params(mu=0.3, beta=1.0, eps=2.0),
              Params(mu=-1.0, beta=2.5, eps=0.7)]:
        for e in find_equilibria(p):
            f = field_unforced(e.location, p)
            assert f.x == 0.0
            assert abs(f.y) < 1e-14


def test_critical_mus_values():
    mus = critical_mus(Params(mu=0.0, beta=1.0, eps=2.0))
    assert mus.muc == -0.25
    assert abs(mus.mu1 - (-0.25 - 2.0 * math.sqrt(2.0))) < 1e-14
    assert abs(mus.mu2 - (-0.25 + 2.0 * math.sqrt(2.0))) < 1e-14
    assert abs(critical_mus(Params(mu=0, beta=1.0, eps=3.0)).muc
               - (-2.0 / 9.0)) < 1e-15
    with pytest.raises(ValueError):
        critical_mus(Params(mu=0.0, beta=0.0, eps=2.0))


def test_critical_mus_match_discriminant_sign_change():
    # Delta(mu) = (mu - muc)^2 - 8 beta changes sign at mu1 and mu2
    p = Params(mu=0.0, beta=1.0, eps=2.0)
    mus = critical_mus(p)

    def delta(mu):
        return (mu - mus.muc) ** 2 - 8.0 * p.beta

    h = 1e-6
    assert delta(mus.mu1 - h) > 0 > delta(mus.mu1 + h)
    assert delta(mus.mu2 - h) < 0 < delta(mus.mu2 + h)


@pytest.mark.parametrize("p,expect_o", [
    (Params(mu=0.5, beta=1.0, eps=-1.0), K.SADDLE),
    (Params(mu=-0.5, beta=1.0, eps=0.0), K.SADDLE),
    (Params(mu=0.5, beta=0.0, eps=-2.0), K.SADDLE),
    (Params(mu=-0.5, beta=0.0, eps=2.0), K.STABLE_NODE),
    (Params(mu=0.0, beta=0.0, eps=2.0), K.DEGENERATE_UNSTABLE_FOCUS),
    (Params(mu=0.5, beta=0.0, eps=2.0), K.UNSTABLE_NODE),
    (Params(mu=0.5, beta=1.0, eps=2.0), K.SADDLE),
])
def test_classify_origin_rows(p, expect_o):
    eqs = find_equilibria(p)
    assert eqs[0].kind is expect_o


def test_classify_pair_rows():
    beta, eps = 1.0, 2.0
    mus = critical_mus(Params(mu=0.0, beta=beta, eps=eps))
    cases = [
        (mus.mu1 - 0.5, K.STABLE_NODE),
        (mus.mu1, K.STABLE_NODE),          # closed interval boundary
        (0.5 * (mus.mu1 + mus.muc), K.STABLE_FOCUS),
        (mus.muc, K.STABLE_FOCUS),         # Hopf point, per-table row
        (0.5 * (mus.muc + mus.mu2), K.UNSTABLE_FOCUS),
        (mus.mu2, K.UNSTABLE_NODE),
        (mus.mu2 + 0.5, K.UNSTABLE_NODE),
    ]
    for mu, expect in cases:
        p = Params(mu=mu, beta=beta, eps=eps)
        eqs = find_equilibria(p)
        assert eqs[1].kind is expect
        assert eqs[2].kind is expect
        assert eqs[0].kind is K.SADDLE


def test_reference_classifications():
    p = Params(mu=-0.25, beta=1.0, eps=2.0)
    eqs = find_equilibria(p)
    assert eqs[0].kind is K.SADDLE
    assert eqs[1].kind is K.STABLE_FOCUS
    p2 = Params(mu=0.2, beta=1.0, eps=2.0)
    assert find_equilibria(p2)[2].kind is K.UNSTABLE_FOCUS
    p3 = Params(mu=0.0, beta=0.0, eps=2.0)
    assert find_equilibria(p3)[0].kind is K.DEGENERATE_UNSTABLE_FOCUS


def test_eigenvalues_reference_values():
    p = Params(mu=0.0, beta=1.0, eps=2.0)
    eqs = find_equilibria(p)
    lo = eqs[0].eigs
    assert {round(v.real, 12) for v in lo} == {1.0, -1.0}
    pc = Params(mu=-0.25, beta=1.0, eps=2.0)
    le = find_equilibria(pc)[2].eigs
    assert abs(le[0] - 1.41421356j) < 1e-8
    assert abs(le[1] + 1.41421356j) < 1e-8


def test_eigenvalues_match_generic_solver():
    rng = np.random.default_rng(5)
    for _ in range(50):
        beta = rng.uniform(0.05, 3.0)
        eps = rng.uniform(0.1, 3.0)
        mu = rng.uniform(-4.0, 4.0)
        p = Params(mu=mu, beta=beta, eps=eps)
        for e in find_equilibria(p):
            closed = sorted(e.eigs, key=lambda z: (z.real, z.imag))
            generic = sorted(np.linalg.eigvals(jacobian(e.location, p)),
                             key=lambda z: (z.real, z.imag))
            for a, b in zip(closed, generic):
                assert abs(a - b) < 1e-10


def test_kinds_and_eigenvalues_come_only_from_find_equilibria():
    import qvdp
    from qvdp import equilibria
    for module in (qvdp, equilibria):
        for name in ("classify", "eigenvalues_at"):
            assert not hasattr(module, name)
            assert name not in getattr(module, "__all__", ())


def test_pair_classification_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = Params(mu=rng.uniform(-4, 4), beta=rng.uniform(0.05, 3),
                   eps=rng.uniform(0.1, 3))
        eqs = find_equilibria(p)
        assert eqs[1].kind is eqs[2].kind


def _sign_pattern_kind(eigs) -> EquilibriumKind:
    l1, l2 = eigs
    if abs(l1.imag) > 1e-12:
        re = l1.real
        assert abs(re - l2.real) < 1e-12
        return K.STABLE_FOCUS if re < 0 else K.UNSTABLE_FOCUS
    re1, re2 = l1.real, l2.real
    if re1 * re2 < 0:
        return K.SADDLE
    return K.STABLE_NODE if max(re1, re2) < 0 else K.UNSTABLE_NODE


def test_classification_matches_eigenvalue_signs_when_nondegenerate():
    rng = np.random.default_rng(13)
    margin = 1e-6
    for _ in range(200):
        beta = rng.uniform(0.05, 3.0)
        eps = rng.uniform(0.1, 3.0)
        mu = rng.uniform(-4.0, 4.0)
        p = Params(mu=mu, beta=beta, eps=eps)
        mus = critical_mus(p)
        if min(abs(mu - m) for m in (mus.mu1, mus.muc, mus.mu2)) < margin:
            continue
        for e in find_equilibria(p):
            assert e.kind is _sign_pattern_kind(e.eigs)


def test_pair_eigenvalues_follow_the_kind_at_band_edges():
    # at mu1 and mu2 and one ulp either side, rounding of (mu - muc)^2 - 8 beta
    # can give the wrong sign; the eigenvalues must still be complex exactly
    # at a focus
    rng = np.random.default_rng(29)
    for _ in range(500):
        beta, eps = rng.uniform(0.01, 5.0), rng.uniform(0.1, 5.0)
        mus = critical_mus(Params(mu=0.0, beta=beta, eps=eps))
        for edge in (mus.mu1, mus.mu2):
            for mu in (math.nextafter(edge, -math.inf), edge,
                       math.nextafter(edge, math.inf)):
                e2 = find_equilibria(Params(mu=mu, beta=beta, eps=eps))[2]
                focus = e2.kind in (K.STABLE_FOCUS, K.UNSTABLE_FOCUS)
                assert (e2.eigs[0].imag != 0.0) is focus, (beta, eps, mu)


# --- the whole float range ---------------------------------------------------

def _sqrt(q: Fraction) -> Fraction:
    # sqrt(q) to a relative 2^-199, far below the 4-ulp tolerance
    nd = q.numerator * q.denominator
    k = max(0, (401 - nd.bit_length()) // 2)
    return Fraction(math.isqrt(nd << 2 * k), q.denominator << k)


def _double(q: Fraction):
    """The double nearest q, or None where q lies beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return None


def _close(got: complex, exact: tuple, size: Fraction, cond=1) -> bool:
    # within 4 ulps of size, times cond, in each part
    tol = 4 * cond * Fraction(math.ulp(_double(size)))
    return all(math.isfinite(g) and abs(Fraction(g) - x) <= tol
               for g, x in zip((got.real, got.imag), exact))


def _exact_roots(s: Fraction, c: Fraction):
    """(real, imag) parts of the roots of x^2 - s x + c = 0, principal
    square root first, the larger root modulus, and the roots' condition:
    a rounding of s or c moves them by that modulus over their distance.
    A smaller real root is c over the larger, as s -+ sqrt would cancel
    the relative 2^-199 of :func:`_sqrt`."""
    disc = s * s - 4 * c
    root = _sqrt(abs(disc))
    if disc >= 0:
        big = (s + root) / 2 if s >= 0 else (s - root) / 2
        small = c / big if big else big
        roots = ((big, 0), (small, 0)) if s >= 0 else ((small, 0), (big, 0))
        size = abs(big)
    else:
        roots, size = ((s / 2, root / 2), (s / 2, -root / 2)), _sqrt(c)
    return roots, size, max(1, size / root) if root else math.inf


def _box_edges():
    # the range box's edges 2^-500 and 2^500, and one ulp outside each; at
    # beta = eps, mu_c = 0 and E2's trace is mu itself, like O's
    edges = (2.0 ** -500, math.nextafter(2.0 ** -500, 0.0),
             2.0 ** 500, math.nextafter(2.0 ** 500, math.inf))
    for beta, eps in itertools.product(edges, repeat=2):
        for mu in (1.0, *edges[2:], *(-x for x in edges[2:])):
            yield mu, beta, eps


def _float_range_draws(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        beta, eps = 10.0 ** rng.uniform(-300, 300, size=2)
        mu = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
        yield float(mu), float(beta), float(eps)


def test_eigenvalues_leaving_the_float_range_raise():
    # mu_c ~ 1e308 is a double, but sigma = mu - mu_c ~ -2e308 is not
    p = Params(mu=-1e308, beta=1e154, eps=1.0)
    assert math.isfinite(critical_mus(p).muc)
    with pytest.raises(ValueError,
                       match="^eigenvalues leave the float range at "
                             "mu=-1e[+]308, beta=1e[+]154, eps=1$"):
        find_equilibria(p)


def test_closed_forms_keep_the_float_range():
    # beta, eps log-uniform on [1e-300, 1e300], mu = +-10^U(-300, 300),
    # after the range box's edges:
    # wherever the exact value is a double, mu1, muc, mu2 and mu3 are
    # finite and within 4 ulps of the sum of their terms' magnitudes, and
    # the eigenvalues at O and E2 within 4 ulps, times their condition, of
    # their own magnitude where real and of their modulus where complex, so
    # a smaller root that cancels fails; elsewhere each call raises its one
    # float-range ValueError.  E2's trace is mu minus the muc checked
    # here: it cancels where mu is near muc, as it does at the parent
    finite = {"mus": 0, "mu3": 0, "eigs": 0}
    for mu, beta, eps in itertools.chain(_box_edges(),
                                         _float_range_draws(2000, 31)):
        p = Params(mu=mu, beta=beta, eps=eps)
        m, b, e = Fraction(mu), Fraction(beta), Fraction(eps)
        r = b / e
        half_width = 2 * _sqrt(2 * b)
        muc = r * r - r
        mus = (muc - half_width, muc, muc + half_width)
        if all(_double(x) is not None for x in mus):
            finite["mus"] += 1
            got = critical_mus(p)
            for g, x in zip(got, mus):
                assert _close(g, (x, 0), r * r + r + half_width), (p, got)
            at_o = _exact_roots(m, -b)
            at_e2 = _exact_roots(m - Fraction(got.muc), 2 * b)
            if all(_double(x) is not None for roots, *_ in (at_o, at_e2)
                   for z in roots for x in z):
                finite["eigs"] += 1
                eqs = find_equilibria(p)
                for eq, (roots, size, cond) in zip(eqs[::2], (at_o, at_e2)):
                    for g, x in zip(eq.eigs, roots):
                        own = abs(x[0]) if x[1] == 0 else size
                        assert _close(g, x, own, cond), (p, eq)
            else:
                with pytest.raises(ValueError, match="float range"):
                    find_equilibria(p)
        else:
            for call in (critical_mus, find_equilibria):
                with pytest.raises(ValueError, match="float range"):
                    call(p)
        mu3 = Fraction(32, 35) * r * r - Fraction(4, 5) * r
        if _double(mu3) is not None:
            finite["mu3"] += 1
            got = homoclinic_curve(beta, eps)
            assert _close(got, (mu3, 0), Fraction(32, 35) * r * r
                          + Fraction(4, 5) * r), (p, got)
        else:
            with pytest.raises(ValueError, match="float range"):
                homoclinic_curve(beta, eps)
    # both branches are exercised
    assert all(200 < n < 1800 for n in finite.values()), finite
