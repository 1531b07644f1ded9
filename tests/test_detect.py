import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvdp.detect import (SeparatrixSplit, Verdict, _shoot_to_section,
                         classify_forced, find_limit_cycle, rotation_number,
                         separatrix_split, winding_number)
from qvdp.detect import (_saddle_eigvectors, _positive_x, _to_section,
                         _LAUNCH_OFFSET)
from qvdp.equilibria import EqLabel, EquilibriumKind, find_equilibria
from qvdp.bifurcation import homoclinic_curve, hopf_curve
from qvdp.integrate import Direction, detect_crossings, integrate
from qvdp.model import Params, State, unforced_rhs


# --- rotation number ---------------------------------------------------------

def _circle_samples(advance: float, n: int = 500, r: float = 1.0):
    k = np.arange(n)
    ang = 2.0 * math.pi * advance * k
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def test_rotation_number_golden_angle():
    golden = 0.6180339887498949
    est = rotation_number(_circle_samples(golden), (0.0, 0.0))
    assert est is not None
    assert abs(est.value - golden) < 1e-4
    assert est.locked_q is None


def test_rotation_number_rational_flags_locking():
    est = rotation_number(_circle_samples(1.0 / 7.0), (0.0, 0.0))
    assert est is not None
    assert abs(est.value - 0.14285714) < 1e-6
    assert est.locked_q == 7


def test_rotation_number_requires_enough_samples():
    assert rotation_number(_circle_samples(0.3, n=100), (0.0, 0.0)) is None


def test_rotation_number_rejects_nonmonotone_winding():
    pts = _circle_samples(0.31, n=400)
    pts[200] = pts[199]  # a repeated point breaks monotone angular advance
    assert rotation_number(pts, (0.0, 0.0)) is None


def test_winding_number():
    theta = np.linspace(0.0, 2.0 * math.pi, 400)
    loop = np.column_stack([np.cos(theta), np.sin(theta)])
    assert winding_number(loop, (0.0, 0.0)) == 1
    assert winding_number(loop, (2.0, 0.0)) == 0
    assert winding_number(loop[::-1], (0.0, 0.0)) == -1


# --- limit cycles ------------------------------------------------------------

@pytest.fixture(scope="module")
def cycle_origin():
    return find_limit_cycle(Params(mu=1.0, beta=0.0, eps=2.0), State(2.0, 0.0))


def test_cycle_around_origin(cycle_origin):
    cyc = cycle_origin
    assert cyc is not None
    assert cyc.stable and abs(cyc.floquet) < 1.0
    assert cyc.encloses == frozenset({EqLabel.O})
    assert cyc.period > 1.0
    assert cyc.amplitude > 1.0


def test_cycle_reintegrates_onto_itself(cycle_origin):
    p = Params(mu=1.0, beta=0.0, eps=2.0)
    cyc = cycle_origin
    traj = integrate(unforced_rhs(p), np.array(cyc.representative),
                     (0.0, cyc.period), tol=(1e-12, 1e-10))
    assert np.max(np.abs(traj.final - np.array(cyc.representative))) < 1e-6


def test_cycle_attracts_perturbed_seed(cycle_origin):
    p = Params(mu=1.0, beta=0.0, eps=2.0)
    cyc = cycle_origin
    seed = State(cyc.representative.x + 1e-3, 0.0)
    again = find_limit_cycle(p, seed)
    assert again is not None
    assert abs(again.representative.x - cyc.representative.x) < 1e-6
    assert abs(again.period - cyc.period) < 1e-6


def test_small_cycle_and_z2_transport():
    p = Params(mu=-0.2, beta=1.0, eps=2.0)
    cyc = find_limit_cycle(p, State(0.9, 0.0))
    assert cyc is not None
    assert cyc.encloses == frozenset({EqLabel.E2})
    assert cyc.stable
    # Z2 transport: the mirrored orbit is a cycle of identical period
    # around E1, verified by integrating the negated representative
    traj = integrate(unforced_rhs(p),
                     -np.array(cyc.representative), (0.0, cyc.period),
                     tol=(1e-12, 1e-10),
                     t_eval=np.linspace(0.0, cyc.period, 1201))
    assert np.max(np.abs(traj.final - (-np.array(cyc.representative)))) < 1e-6
    eqs = {e.label: e.location for e in find_equilibria(p)}
    assert winding_number(traj.states, eqs[EqLabel.E1]) != 0
    assert winding_number(traj.states, eqs[EqLabel.E2]) == 0


def test_index_sum_of_enclosed_equilibria(cycle_origin):
    index = {EquilibriumKind.SADDLE: -1}
    for p, cyc in [
        (Params(mu=1.0, beta=0.0, eps=2.0), cycle_origin),
        (Params(mu=-0.1, beta=1.0, eps=2.0),
         find_limit_cycle(Params(mu=-0.1, beta=1.0, eps=2.0), State(2.0, 0.0))),
    ]:
        eqs = {e.label: e for e in find_equilibria(p)}
        total = sum(index.get(eqs[lab].kind, 1) for lab in cyc.encloses)
        assert total == 1


def test_no_cycle_when_spiraling_into_equilibria():
    # pre-Hopf regime: E1/E2 attract everything inside the saddle loop
    p = Params(mu=-0.3, beta=1.0, eps=2.0)
    assert find_limit_cycle(p, State(0.8, 0.0)) is None


def test_no_cycle_on_escape():
    p = Params(mu=0.3, beta=1.0, eps=-1.0)
    assert find_limit_cycle(p, State(2.0, 0.0), tol=(1e-9, 1e-7)) is None


def test_cycle_beyond_fixed_escape_bound():
    # beta/eps = 3 past mu_c: the large cycle reaches |y| ~ 3 mu, well
    # beyond the escape bound of 8 that holds for mu <= 1
    p = Params(mu=6.1, beta=3.0, eps=1.0)
    cyc = find_limit_cycle(p, State(2.0, 0.0))
    assert cyc is not None
    traj = integrate(unforced_rhs(p), np.array(cyc.representative),
                     (0.0, cyc.period), tol=(1e-12, 1e-10))
    assert np.max(np.abs(traj.final - np.array(cyc.representative))) < 1e-6


# --- Liouville multiplier vs the return map ----------------------------------

def _first_return_x(p: Params, x0: float) -> float:
    """x of the first downward crossing of {y = 0, x > 0} from (x0, 0)."""
    traj = integrate(unforced_rhs(p), np.array([x0, 0.0]), (0.0, 40.0),
                     tol=(1e-12, 1e-10))
    return next(float(ev.state[0])
                for ev in detect_crossings(traj, lambda s: s[1],
                                           Direction.DOWN)
                if ev.t > 1e-9 and ev.state[0] > 0.0)


def _check_multiplier(p: Params, seed) -> None:
    cyc = find_limit_cycle(p, seed)
    assert cyc is not None
    x = cyc.representative.x
    h = 1e-5 * max(1.0, abs(x))
    central = (_first_return_x(p, x + h) - _first_return_x(p, x - h)) / (2 * h)
    assert abs(cyc.floquet - central) < 1e-6


@pytest.mark.parametrize("p, seed", [
    (Params(mu=1.0, beta=0.0, eps=2.0), State(2.0, 0.0)),
    (Params(mu=-0.2, beta=1.0, eps=2.0), State(0.9, 0.0)),
    (Params(mu=-0.1, beta=1.0, eps=2.0), State(2.0, 0.0)),
])
def test_liouville_multiplier_paper_regimes(p, seed):
    _check_multiplier(p, seed)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(beta=st.floats(0.9, 1.1), eps=st.floats(1.9, 2.1),
       frac=st.floats(0.55, 0.75))
def test_liouville_multiplier_two_small_cycles_band(beta, eps, frac):
    muc, mu3 = hopf_curve(beta, eps), homoclinic_curve(beta, eps)
    _check_multiplier(Params(mu=muc + frac * (mu3 - muc), beta=beta, eps=eps),
                      State(math.sqrt(beta / eps) + 0.05, 0.0))


@settings(max_examples=4, deadline=None, derandomize=True)
@given(beta=st.floats(0.9, 1.1), eps=st.floats(1.9, 2.1),
       offset=st.floats(0.05, 0.1))
def test_liouville_multiplier_large_cycle_band(beta, eps, offset):
    _check_multiplier(
        Params(mu=homoclinic_curve(beta, eps) + offset, beta=beta, eps=eps),
        State(2.0, 0.0))


def test_return_from_the_section_does_not_stop_at_start():
    # from (2, 0) the orbit leaves the section downward at t = 0; a plain
    # terminal event would report that start as the crossing
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    traj = _to_section(unforced_rhs(p), (2.0, 0.0), Direction.DOWN,
                       _positive_x, 240.0, 8.0)
    assert traj is not None and traj.t1 > 1.0
    assert abs(traj.final[1]) < 1e-10
    assert abs(traj.final[0] - _first_return_x(p, 2.0)) < 1e-9


# --- separatrix shooting -----------------------------------------------------

def test_separatrix_split_near_homoclinic_threshold():
    mu3 = homoclinic_curve(1.0, 2.0)
    at = separatrix_split(Params(mu=mu3, beta=1.0, eps=2.0))
    assert isinstance(at, SeparatrixSplit)
    assert abs(at.distance) < 1e-3
    below = separatrix_split(Params(mu=mu3 - 0.02, beta=1.0, eps=2.0))
    above = separatrix_split(Params(mu=mu3 + 0.02, beta=1.0, eps=2.0))
    assert below.distance < 0 < above.distance


def test_separatrix_split_mirror_symmetry():
    # the x < 0 separatrix pair is the Z2 image of the x > 0 pair: same
    # split magnitude from mirrored launches onto the section {y=0, x<0}
    p = Params(mu=-0.18, beta=1.0, eps=2.0)
    ref = separatrix_split(p)
    rhs = unforced_rhs(p)

    def rhs_back(t, s):
        return -rhs(t, s)

    def negative_x(s):
        return s[0] < 0.0

    vu, vs = _saddle_eigvectors(p)
    xu = _shoot_to_section(rhs, -_LAUNCH_OFFSET * vu, Direction.UP,
                           accept=negative_x)
    xs = _shoot_to_section(rhs_back, -_LAUNCH_OFFSET * vs, Direction.DOWN,
                           accept=negative_x)
    assert abs(abs(xu - xs) - abs(ref.distance)) < 1e-9


def test_separatrix_split_crosses_section_before_leaving_box():
    # the unstable branch crosses the section, then leaves |x|,|y| <= 5
    beta, eps = 1.2, 2.0
    mu3 = homoclinic_curve(beta, eps)

    def gap(mu):
        return separatrix_split(Params(mu=mu, beta=beta, eps=eps)).distance

    lo, hi = mu3 - 0.02, mu3 + 0.02
    d_lo = gap(lo)
    assert d_lo < 0 < gap(hi)
    for _ in range(3):
        mid = 0.5 * (lo + hi)
        d_mid = gap(mid)
        if d_mid * d_lo > 0:
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - mu3) < 5e-3


def test_separatrix_requires_saddle():
    with pytest.raises(ValueError):
        separatrix_split(Params(mu=0.0, beta=0.0, eps=2.0))


# --- forced system -----------------------------------------------------------

def test_classify_forced_requires_forcing():
    with pytest.raises(ValueError):
        classify_forced(Params(mu=0.0, beta=1.0, eps=3.0), State(0.0, 1.0))


def test_forced_entrained_fixed_point():
    # below the Hopf band the forced response settles onto a periodic
    # solution: a fixed point of the stroboscopic map
    p = Params(mu=-0.3, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    rep = classify_forced(p, State(0.0, 1.2), n=600)
    assert rep.verdict is Verdict.EQUILIBRIUM


def test_forced_locked_torus():
    # weak forcing of the small cycle at these settings entrains 2:1
    p = Params(mu=-0.19, beta=1.0, eps=3.0, alpha=-0.05, omega=1.0)
    rep = classify_forced(p, State(0.75, 0.0), n=500)
    assert rep.verdict is Verdict.PERIODIC_LOCKED
    assert rep.evidence.get("locked_q") == 2


def test_forced_quasi_periodic_short_run():
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    rep = classify_forced(p, State(0.0, 1.2), n=600)
    assert rep.verdict is Verdict.QUASI_PERIODIC
    assert rep.rotation_number is not None
    assert rep.evidence["closure"]["gap_ratio"] < 5.0


def test_rotation_number_tracks_underlying_cycle_frequency():
    # the strobe rotation number of the quasi-periodic attractor matches
    # the underlying unforced cycle frequency up to an integer and the
    # winding orientation (the flow circulates clockwise)
    p0 = Params(mu=-0.1, beta=1.0, eps=3.0)
    cyc = find_limit_cycle(p0, State(2.0, 0.0))
    assert cyc is not None
    omega_cycle = 2.0 * math.pi / cyc.period
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    rep = classify_forced(p, State(0.0, 1.2), n=800)
    assert rep.verdict is Verdict.QUASI_PERIODIC
    ratio = omega_cycle / p.omega
    best = min(abs(ratio - rho - round(ratio - rho))
               for rho in (rep.rotation_number, 1.0 - rep.rotation_number))
    assert best < 1e-2


def test_nearly_autonomous_forcing_fills_the_cycle():
    # vanishing forcing on a seed riding the unforced small cycle: the
    # strobe samples sweep the cycle itself; with the period ratio pinned
    # near the golden mean the samples fill it as an invariant curve
    p0 = Params(mu=-0.2, beta=1.0, eps=2.0)
    cyc = find_limit_cycle(p0, State(0.9, 0.0))
    omega = (2.0 * math.pi / cyc.period) / 1.382
    ratio = cyc.period / (2.0 * math.pi / omega)
    assert min(abs(ratio * q - round(ratio * q)) for q in range(1, 33)) > 1e-4
    p = Params(mu=-0.2, beta=1.0, eps=2.0, alpha=1e-8, omega=omega)
    rep = classify_forced(p, cyc.representative, n=500)
    assert rep.verdict in (Verdict.QUASI_PERIODIC, Verdict.PERIODIC_LOCKED)
    assert rep.rotation_number is not None
    assert abs(rep.rotation_number - 0.618) < 5e-3
