import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvdp.integrate import integrate
from qvdp.model import (Params, State, divergence, field_unforced,
                        forced_rhs, hamiltonian, hamiltonian_rhs, jacobian,
                        unforced_rhs)

finite_coord = st.floats(min_value=-3.0, max_value=3.0,
                         allow_nan=False, allow_infinity=False)


def test_params_validation():
    Params(mu=0.0, beta=1.0, eps=2.0)
    with pytest.raises(ValueError):
        Params(mu=0.0, beta=-1.0, eps=2.0)
    with pytest.raises(ValueError):
        Params(mu=0.0, beta=0.0, eps=0.0)
    with pytest.raises(ValueError):
        Params(mu=0.0, beta=1.0, eps=2.0, alpha=0.5, omega=0.0)
    with pytest.raises(ValueError):
        Params(mu=math.inf, beta=1.0, eps=2.0)
    # omega unconstrained while alpha == 0
    Params(mu=0.0, beta=1.0, eps=2.0, alpha=0.0, omega=-1.0)


@pytest.mark.parametrize("bad", [
    {"beta": -1.0},
    {"mu": math.nan},
    {"eps": math.inf},
    {"alpha": 0.5, "omega": 0.0},
    {"alpha": -0.5, "omega": -1.0},
])
def test_params_replace_and_make_validate(bad):
    # namedtuple's _make and _replace would build a tuple past __new__
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    with pytest.raises(ValueError):
        p._replace(**bad)
    with pytest.raises(ValueError):
        Params._make({**p._asdict(), **bad}.values())
    q = p._replace(mu=0.3, alpha=0.5)
    assert type(q) is Params and q == Params(0.3, 1.0, 2.0, 0.5, 1.0)
    assert Params._make(q) == q
    back = pickle.loads(pickle.dumps(q))
    assert type(back) is Params and back == q


def test_params_asdict_order():
    # the CLI's params block is this dict, in dataclasses.asdict's order
    p = Params(mu=-0.25, beta=1.0, eps=2.0)
    assert list(p._asdict().items()) == [
        ("mu", -0.25), ("beta", 1.0), ("eps", 2.0), ("alpha", 0.0),
        ("omega", 1.0)]


def test_field_unforced_values():
    p = Params(mu=0.0, beta=1.0, eps=2.0)
    assert field_unforced(State(0.0, 0.0), p) == State(0.0, 0.0)
    assert field_unforced(State(1.0, 0.0), p) == State(0.0, -1.0)
    x2 = math.sqrt(p.beta / p.eps)
    dx, dy = field_unforced(State(x2, 0.0), p)
    assert dx == 0.0
    assert abs(dy) < 1e-15


def _random_params(rng):
    beta = rng.uniform(0.0, 2.0)
    eps = rng.uniform(-2.0, 2.0) if beta > 0 else rng.uniform(0.1, 2.0)
    return Params(mu=rng.uniform(-1.0, 1.0), beta=beta, eps=eps,
                  alpha=rng.uniform(-1.0, 1.0), omega=rng.uniform(0.1, 3.0))


def test_rhs_closures_match_field_bit_for_bit():
    # the closures every integration runs are the pinned spellings of the field
    rng = np.random.default_rng(19)
    for _ in range(200):
        p = _random_params(rng)
        unforced, forced = unforced_rhs(p), forced_rhs(p)
        for _ in range(10):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            t = rng.uniform(-10.0, 10.0)
            f = field_unforced(State(x, y), p)
            assert list(unforced(t, [x, y])) == [f.x, f.y]
            assert list(forced(t, [x, y])) == [
                f.x, f.y - p.alpha * x * math.cos(p.omega * t)]


def test_forced_rhs_values_and_reduction():
    p = Params(mu=0.0, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    assert list(forced_rhs(p)(0.0, [1.0, 0.0])) == [0.0, -1.7]
    p0 = Params(mu=0.4, beta=0.5, eps=1.5, alpha=0.0, omega=2.0)
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = rng.uniform(-2, 2, size=2)
        t = rng.uniform(0, 20)
        f = forced_rhs(p0)(t, list(s))
        assert list(f) == list(field_unforced(State(*s), p0))


def test_forced_rhs_periodicity():
    # the field is periodic in t with the forcing period T = 2 pi / omega
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.3)
    rhs, T = forced_rhs(p), p.forcing_period
    rng = np.random.default_rng(3)
    for _ in range(25):
        s = list(rng.uniform(-2, 2, size=2))
        t = rng.uniform(0, 20)
        assert abs(rhs(t, s)[1] - rhs(t + T, s)[1]) < 1e-12


def test_jacobian_closed_forms():
    p = Params(mu=0.3, beta=1.5, eps=2.0)
    A0 = jacobian(State(0.0, 0.0), p)
    assert np.allclose(A0, [[0.0, 1.0], [p.beta, p.mu]], atol=0)
    x2 = math.sqrt(p.beta / p.eps)
    B = jacobian(State(x2, 0.0), p)
    expected = [[0.0, 1.0],
                [-2.0 * p.beta,
                 p.mu + p.beta / p.eps - (p.beta / p.eps) ** 2]]
    assert np.allclose(B, expected, atol=1e-14)


def test_jacobian_finite_differences():
    p = Params(mu=-0.2, beta=0.8, eps=1.7)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(100):
        x, y = rng.uniform(-2, 2, size=2)
        J = jacobian(State(x, y), p)
        for j, (dx, dy) in enumerate([(h, 0.0), (0.0, h)]):
            fp = field_unforced(State(x + dx, y + dy), p)
            fm = field_unforced(State(x - dx, y - dy), p)
            col = (np.array(fp) - np.array(fm)) / (2.0 * h)
            assert np.max(np.abs(col - J[:, j])) < 1e-6


def test_divergence():
    p = Params(mu=-0.25, beta=1.0, eps=2.0)
    assert divergence(0.0, p) == p.mu
    xs = np.linspace(-2, 2, 4001)
    vals = np.array([divergence(x, p) for x in xs])
    assert abs(np.max(vals) - (p.mu + 0.25)) < 1e-6
    assert abs(divergence(1.0 / math.sqrt(2.0), p) - (p.mu + 0.25)) < 1e-15
    p2 = Params(mu=-0.3, beta=1.0, eps=2.0)
    assert abs(max(divergence(x, p2) for x in xs) - (-0.05)) < 1e-6


def test_hamiltonian_values():
    p = Params(mu=0.7, beta=1.0, eps=2.0)
    assert hamiltonian(State(0.0, 0.0), p) == 0.0
    x_loop = math.sqrt(2.0 * p.beta / p.eps)
    assert abs(hamiltonian(State(x_loop, 0.0), p)) < 1e-15


def test_hamiltonian_conserved_on_conservative_limit():
    p = Params(mu=0.0, beta=1.0, eps=2.0)
    traj = integrate(hamiltonian_rhs(p), np.array([0.1, 0.0]), (0.0, 50.0),
                     tol=(1e-12, 1e-10))
    H = np.array([hamiltonian(State(x, y), p) for x, y in traj.states])
    assert np.max(np.abs(H - H[0])) < 1e-8


@settings(max_examples=200, deadline=None)
@given(x=finite_coord, y=finite_coord,
       mu=st.floats(-1, 1), beta=st.floats(0, 2), eps=st.floats(-2, 2))
def test_z2_equivariance(x, y, mu, beta, eps):
    if beta == 0 and eps == 0:
        return
    p = Params(mu=mu, beta=beta, eps=eps)
    f = field_unforced(State(x, y), p)
    g = field_unforced(State(-x, -y), p)
    assert g.x == -f.x and g.y == -f.y


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-10, 10), mu=st.floats(-1, 1))
def test_divergence_bounded(x, mu):
    p = Params(mu=mu, beta=1.0, eps=1.0)
    assert divergence(x, p) <= mu + 0.25 + 1e-12

