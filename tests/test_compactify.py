import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvdp.compactify import (InfinityLabel, disk_project, field_chart_u,
                             field_chart_v, finite_to_chart_u,
                             finite_to_chart_v, infinity_equilibria,
                             probe_infinity_kind)
from qvdp.equilibria import EquilibriumKind
from qvdp.model import Params, State, field_unforced

K = EquilibriumKind


def test_chart_u_equilibrium_and_linearization():
    p = Params(mu=0.4, beta=1.2, eps=2.0)
    assert field_chart_u(0.0, 0.0, p) == (0.0, 0.0)
    # numerical Jacobian at the chart origin has eigenvalues (-1, 0)
    h = 1e-7
    J = np.zeros((2, 2))
    for j, (du, dz) in enumerate([(h, 0.0), (0.0, h)]):
        fp = np.array(field_chart_u(du, dz, p))
        fm = np.array(field_chart_u(-du, -dz, p))
        J[:, j] = (fp - fm) / (2.0 * h)
    eigs = sorted(np.linalg.eigvals(J).real)
    assert abs(eigs[0] + 1.0) < 1e-6
    assert abs(eigs[1]) < 1e-6


def test_chart_v_values():
    p = Params(mu=0.7, beta=1.2, eps=2.0)
    assert field_chart_v(0.0, 0.0, p) == (0.0, 0.0)
    dv, dz = field_chart_v(0.0, 1.0, p)
    assert dv == 1.0
    assert dz == -p.mu
    # zero Jacobian at the chart origin
    h = 1e-7
    for du, dz_ in [(h, 0.0), (0.0, h)]:
        fp = np.array(field_chart_v(du, dz_, p))
        assert np.max(np.abs(fp)) < 1e-13


def test_chart_fields_total_on_equator():
    p = Params(mu=-0.3, beta=0.5, eps=-1.0)
    for u in np.linspace(-2, 2, 9):
        du, dz = field_chart_u(u, 0.0, p)
        assert math.isfinite(du) and dz == 0.0
        dv, dz2 = field_chart_v(u, 0.0, p)
        assert math.isfinite(dv) and math.isfinite(dz2)


def _chain_rule_residual_u(s, p):
    u, z = finite_to_chart_u(s)
    x, y = s
    fx, fy = field_unforced(s, p)
    # u = y/x, z = 1/x: du/dt, dz/dt by the chain rule
    du_dt = (fy * x - y * fx) / (x * x)
    dz_dt = -fx / (x * x)
    du_dtau, dz_dtau = field_chart_u(u, z, p)
    scale = z ** 4
    return max(abs(du_dtau - du_dt * scale), abs(dz_dtau - dz_dt * scale))


def _chain_rule_residual_v(s, p):
    v, z = finite_to_chart_v(s)
    x, y = s
    fx, fy = field_unforced(s, p)
    dv_dt = (fx * y - x * fy) / (y * y)
    dz_dt = -fy / (y * y)
    dv_dtau, dz_dtau = field_chart_v(v, z, p)
    scale = z ** 4
    return max(abs(dv_dtau - dv_dt * scale), abs(dz_dtau - dz_dt * scale))


def test_chart_fields_consistent_with_finite_plane():
    p = Params(mu=0.3, beta=1.0, eps=2.0)
    rng = np.random.default_rng(31)
    for _ in range(60):
        x = rng.uniform(1.0, 6.0) * rng.choice([-1.0, 1.0])
        y = rng.uniform(-4.0, 4.0)
        assert _chain_rule_residual_u(State(x, y), p) < 1e-6
    for _ in range(60):
        x = rng.uniform(-4.0, 4.0)
        y = rng.uniform(1.0, 6.0) * rng.choice([-1.0, 1.0])
        assert _chain_rule_residual_v(State(x, y), p) < 1e-6


def test_infinity_catalogue():
    for eps, b_kind in [(2.0, K.SADDLE), (-1.0, K.STABLE_NODE),
                        (0.0, K.STABLE_NODE)]:
        p = Params(mu=0.1, beta=1.0, eps=eps)
        cat = {e.label: e for e in infinity_equilibria(p)}
        assert cat[InfinityLabel.B_PLUS].kind is b_kind
        assert cat[InfinityLabel.B_MINUS].kind is b_kind
        assert cat[InfinityLabel.C_PLUS].kind is K.UNSTABLE_NODE
        assert cat[InfinityLabel.C_MINUS].kind is K.UNSTABLE_NODE
    cat = {e.label: e.disk_location for e in infinity_equilibria(
        Params(mu=0, beta=1, eps=1))}
    assert cat[InfinityLabel.B_PLUS] == (1.0, 0.0)
    assert cat[InfinityLabel.B_MINUS] == (-1.0, 0.0)
    assert cat[InfinityLabel.C_PLUS] == (0.0, 1.0)
    assert cat[InfinityLabel.C_MINUS] == (0.0, -1.0)


@pytest.mark.parametrize("eps,expected", [(2.0, K.SADDLE), (-1.0, K.STABLE_NODE)])
def test_probe_verification_of_b_kind(eps, expected):
    p = Params(mu=0.1, beta=1.0, eps=eps)
    for label in (InfinityLabel.B_PLUS, InfinityLabel.B_MINUS):
        report = probe_infinity_kind(p, label)
        assert report.inferred_kind is expected
        if expected is K.SADDLE:
            assert report.sector_alternations == 4
            # the invariant u axis carries the contracting separatrix pair
            assert report.verdicts[0] == "approach"
            assert report.verdicts[8] == "approach"
        else:
            assert report.sector_alternations == 0


def test_probe_stops_at_threshold_before_blow_up():
    # one B+ probe here blows up in finite tau; it is stopped where |z|
    # reaches its leave threshold instead of ending in a step underflow
    report = probe_infinity_kind(Params(mu=0.918, beta=1.631, eps=2.466),
                                 InfinityLabel.B_PLUS)
    assert report.inferred_kind is K.SADDLE
    assert report.sector_alternations == 4


@pytest.mark.parametrize("eps", [2.0, -1.0])
def test_probe_verification_of_c_kind(eps):
    p = Params(mu=0.1, beta=1.0, eps=eps)
    for label in (InfinityLabel.C_PLUS, InfinityLabel.C_MINUS):
        report = probe_infinity_kind(p, label)
        assert report.inferred_kind is K.UNSTABLE_NODE
        assert all(v == "leave" for v in report.verdicts)


def test_probe_c_kind_from_decided_verdicts():
    # two C probes end inside the ring without reaching either threshold;
    # the kind follows the 14 decided ones, as at B
    p = Params(mu=0.918, beta=1.631, eps=2.466)
    for label in (InfinityLabel.C_PLUS, InfinityLabel.C_MINUS):
        report = probe_infinity_kind(p, label)
        assert [i for i, v in enumerate(report.verdicts)
                if v != "leave"] == [6, 10]
        assert report.verdicts[6] == report.verdicts[10] == "undecided"
        assert report.inferred_kind is K.UNSTABLE_NODE


def test_antipodal_pairs_share_kind():
    # the time rescale has even degree, so both copies behave identically
    for eps in (2.0, -1.0):
        cat = {e.label: e.kind for e in infinity_equilibria(
            Params(mu=0.2, beta=0.7, eps=eps))}
        assert cat[InfinityLabel.B_PLUS] is cat[InfinityLabel.B_MINUS]
        assert cat[InfinityLabel.C_PLUS] is cat[InfinityLabel.C_MINUS]


def test_disk_project_basics():
    assert disk_project(State(0.0, 0.0)) == (0.0, 0.0)
    px, py = disk_project(State(3.0, -4.0))
    assert math.hypot(px, py) < 1.0
    assert px > 0 > py


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1e8, 1e8), y=st.floats(-1e8, 1e8))
def test_disk_project_inside_unit_disk(x, y):
    px, py = disk_project(State(x, y))
    assert math.hypot(px, py) < 1.0


@settings(max_examples=100, deadline=None)
@given(r1=st.floats(0.0, 100.0), r2=st.floats(0.0, 100.0),
       theta=st.floats(0.0, 2.0 * math.pi))
def test_disk_project_monotone_on_rays(r1, r2, theta):
    lo, hi = sorted((r1, r2))
    c, s = math.cos(theta), math.sin(theta)
    p_lo = disk_project(State(lo * c, lo * s))
    p_hi = disk_project(State(hi * c, hi * s))
    assert math.hypot(*p_lo) <= math.hypot(*p_hi) + 1e-15
