import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qvdp import detect
from qvdp.detect import (ManifoldEscape, SeparatrixSplit, Verdict,
                         _first_return, classify_forced, find_limit_cycle,
                         rotation_number, separatrix_split, winding_number)
from qvdp.detect import _saddle_eigvectors, _LAUNCH_OFFSET, _SHOOT_HORIZON
from qvdp.equilibria import EqLabel, EquilibriumKind, find_equilibria
from qvdp.bifurcation import homoclinic_curve, hopf_curve
from qvdp.integrate import (NoConvergence, NonFinite, detect_crossings,
                            escape_bound, integrate)
from qvdp.model import Params, State, divergence, unforced_rhs


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


def test_cycle_path_is_the_closed_orbit(cycle_origin):
    path = cycle_origin.path
    assert path.shape == (2001, 2)
    assert np.max(np.abs(path[-1] - path[0])) < 1e-6
    assert np.max(np.abs(path[0] - np.array(cycle_origin.representative))) \
        < 1e-12


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


def test_seed_circling_e1_finds_the_e1_cycle():
    # the orbit from (-0.8, 0) circles E1 alone and crosses {y = 0} going
    # down between E1 and O; its cycle is the Z2 image of the one (0.8, 0)
    # reaches, with the same period and multiplier
    p = Params(mu=-0.2, beta=1.0, eps=2.0)
    cyc = find_limit_cycle(p, State(-0.8, 0.0))
    mirror = find_limit_cycle(p, State(0.8, 0.0))
    eqs = {e.label: e.location for e in find_equilibria(p)}
    assert cyc.encloses == frozenset({EqLabel.E1})
    assert eqs[EqLabel.E1].x < cyc.representative.x < eqs[EqLabel.O].x
    assert abs(cyc.period - mirror.period) < 1e-6
    assert abs(cyc.floquet - mirror.floquet) < 1e-6


@pytest.mark.parametrize("beta, eps, mu, seed", [
    (1.9763, 1.7645, 0.20555, (0.363, -1.606)),
    (1.1977, 1.5954, -0.13742, (0.191, -0.958)),
    (1.5939, 2.1302, -0.15358, (-0.068, -1.950)),
])
def test_orbit_crossing_right_of_e2_once_then_reaching_e1(beta, eps, mu,
                                                          seed):
    # the orbit crosses {y = 0} going down right of E2 once, near t = 4-7,
    # and then winds only around E1: the search follows it onto the E1 cycle
    p = Params(mu=mu, beta=beta, eps=eps)
    assert _winding_set(p, State(*seed)) == frozenset({EqLabel.E1})
    cyc = find_limit_cycle(p, State(*seed))
    assert cyc is not None and cyc.encloses == frozenset({EqLabel.E1})


def test_search_collapsing_into_e1_ends_within_a_few_returns(monkeypatch):
    # from (-0.8, 0) the orbit spirals into the stable focus E1, crossing
    # {y = 0} between E1 and O each turn: the collapse test ends the search
    # instead of a return that runs the whole 240-unit horizon
    spent = []

    def timing(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        spent.append(abs(traj.t1))
        return traj

    monkeypatch.setattr(detect, "integrate", timing)
    p = Params(mu=-0.3, beta=1.0, eps=2.0)
    assert find_limit_cycle(p, State(-0.8, 0.0)) is None
    assert spent and sum(spent) < 50.0


_Z2_IMAGE = {EqLabel.O: EqLabel.O, EqLabel.E1: EqLabel.E2,
             EqLabel.E2: EqLabel.E1}


@settings(max_examples=5, deadline=None, derandomize=True)
@given(beta=st.floats(0.9, 1.1), eps=st.floats(1.9, 2.1),
       frac=st.floats(0.55, 0.75), radius=st.floats(0.02, 0.25),
       angle=st.floats(0.0, 2.0 * math.pi))
@example(beta=1.0, eps=2.0, frac=0.75, radius=0.0100814, angle=1.0)
def test_mirrored_seeds_find_mirrored_cycles(beta, eps, frac, radius, angle):
    # two-small-cycles band: the seed s near E2 and -s near E1 reach Z2
    # images of one cycle, with the same period and multiplier.  In the
    # example a section point of s's orbit and its return both lie within
    # 1e-2 of the repelling focus E2, and none of -s's pairs does near E1:
    # a repelling focus ends no search
    muc, mu3 = hopf_curve(beta, eps), homoclinic_curve(beta, eps)
    p = Params(mu=muc + frac * (mu3 - muc), beta=beta, eps=eps)
    x = math.sqrt(beta / eps) + radius * math.cos(angle)
    y = radius * math.sin(angle)
    cyc = find_limit_cycle(p, State(x, y))
    mirror = find_limit_cycle(p, State(-x, -y))
    assert cyc is not None and mirror is not None
    assert mirror.encloses == frozenset(_Z2_IMAGE[e] for e in cyc.encloses)
    assert abs(cyc.period - mirror.period) < 1e-6
    assert abs(cyc.floquet - mirror.floquet) < 1e-6


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
    assert find_limit_cycle(p, State(2.0, 0.0)) is None


def test_large_cycle_from_seed_outside_unstable_focus():
    # the orbit spirals away from the repelling focus E2 out to the large
    # cycle; the search follows it instead of settling onto the focus
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    cyc = find_limit_cycle(p, State(0.75, 0.0))
    assert cyc is not None and cyc.stable
    assert cyc.encloses == frozenset({EqLabel.O, EqLabel.E1, EqLabel.E2})


def test_small_cycle_from_seed_outside_its_loop():
    beta, eps = 0.905, 1.942
    p = Params(mu=-0.2098, beta=beta, eps=eps)
    cyc = find_limit_cycle(p, State(math.sqrt(beta / eps) + 0.15, 0.0))
    assert cyc is not None and cyc.stable
    assert cyc.encloses == frozenset({EqLabel.E2})


def test_small_cycle_from_seeds_on_both_sides():
    # two seeds between the focus E2 (x = 0.707) and the cycle (x = 0.979
    # on the section), one outside it: all reach the one stable cycle
    p = Params(mu=-0.19, beta=1.0, eps=2.0)
    found = [find_limit_cycle(p, State(x, 0.0)) for x in (0.72, 0.9, 1.2)]
    assert all(c is not None for c in found)
    assert all(c.encloses == frozenset({EqLabel.E2}) and c.stable
               for c in found)
    ref = found[0]
    for cyc in found[1:]:
        assert abs(cyc.representative.x - ref.representative.x) < 1e-6
        assert abs(cyc.period - ref.period) < 1e-6


def _winding_set(p: Params, seed: State) -> frozenset:
    """Equilibria the seed's orbit winds around over t in [300, 400]."""
    t = np.linspace(300.0, 400.0, 20001)
    traj = integrate(unforced_rhs(p), np.array(seed), (0.0, 400.0),
                     tol=(1e-10, 1e-10), t_eval=t)
    return frozenset(e.label for e in find_equilibria(p)
                     if winding_number(traj.states, e.location) != 0)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(beta=st.floats(0.9, 1.1), eps=st.floats(1.9, 2.1),
       frac=st.one_of(st.floats(0.55, 0.75), st.floats(1.1, 1.5)),
       offset=st.floats(0.01, 0.3))
def test_search_reports_the_cycle_the_orbit_reaches(beta, eps, frac, offset):
    # frac < 1: the two-small-cycles band (mu_c, mu_3); frac > 1: just
    # past the homoclinic loop, where the large cycle takes over
    muc, mu3 = hopf_curve(beta, eps), homoclinic_curve(beta, eps)
    p = Params(mu=muc + frac * (mu3 - muc), beta=beta, eps=eps)
    seed = State(math.sqrt(beta / eps) + offset, 0.0)
    reached = _winding_set(p, seed)
    cyc = find_limit_cycle(p, seed)
    assert (cyc.encloses if cyc is not None else frozenset()) == reached


def test_no_cycle_search_crawls_to_a_mu_scaled_bound(monkeypatch):
    # eps < 0 admits no cycle; at a large mu the search still returns None
    # without integrating instead of crawling through the stiff damping
    calls = []

    def counting(*args):
        calls.append(args)
        return _first_return(*args)

    monkeypatch.setattr(detect, "_first_return", counting)
    p = Params(mu=4.0, beta=1.0, eps=-1.0)
    assert find_limit_cycle(p, State(2.0, 0.0)) is None
    assert calls == []


@pytest.mark.parametrize("beta,eps", [(0.0, -1.0), (1.0, -1.0), (1.0, 0.0)])
def test_no_return_map_search_for_nonpositive_eps(monkeypatch, beta, eps):
    # the origin is the only equilibrium, a saddle of index -1, and a cycle
    # encloses index sum +1: the search returns None without integrating
    calls = []

    def counting(*args):
        calls.append(args)
        return _first_return(*args)

    monkeypatch.setattr(detect, "_first_return", counting)
    p = Params(mu=0.1, beta=beta, eps=eps)
    for k in range(8):  # the criterion-7 seed ring
        ang = 2.0 * math.pi * k / 8
        seed = State(2.2 * math.cos(ang), 2.2 * math.sin(ang))
        assert find_limit_cycle(p, seed) is None
    assert calls == []
    # the counter sees the searches that do integrate
    assert find_limit_cycle(Params(mu=-0.1, beta=1.0, eps=2.0),
                            State(2.0, 0.0)) is not None
    assert calls


def test_cycle_beyond_fixed_escape_bound():
    # beta/eps = 3 past mu_c: the large cycle reaches |y| ~ 3 mu, well
    # beyond a fixed bound of order 1; the search's returns carry none
    p = Params(mu=6.1, beta=3.0, eps=1.0)
    cyc = find_limit_cycle(p, State(2.0, 0.0))
    assert cyc is not None
    traj = integrate(unforced_rhs(p), np.array(cyc.representative),
                     (0.0, cyc.period), tol=(1e-12, 1e-10))
    assert np.max(np.abs(traj.final - np.array(cyc.representative))) < 1e-6


def test_large_cycle_at_large_beta_is_found():
    # beta/eps = 2 < 7/3 and mu just past mu_3 = 2.057: the large cycle
    # reaches |y| of about 25, beyond 8 max(1, mu) = 16.9, which a first
    # return from (2.1, 0) passes; no escape bound cuts that return off
    p = Params(mu=homoclinic_curve(400.0, 200.0) + 0.05, beta=400.0,
               eps=200.0)
    cyc = find_limit_cycle(p, State(2.1, 0.0))
    assert cyc is not None and cyc.stable
    assert cyc.encloses == frozenset({EqLabel.O, EqLabel.E1, EqLabel.E2})
    assert abs(cyc.period - 0.527548) < 1e-6
    assert abs(cyc.floquet - 0.6824) < 1e-4
    assert np.max(np.abs(cyc.path[:, 1])) > 20.0


def test_search_from_a_seed_on_an_equilibrium_finds_nothing():
    # at beta = eps = 1 the field vanishes exactly at E2 = (1, 0): the seed
    # never moves, so it never returns to the section
    for mu in (-0.5, 0.5):  # a stable and an unstable focus
        p = Params(mu=mu, beta=1.0, eps=1.0)
        e2 = find_equilibria(p)[2]
        assert e2.location == State(1.0, 0.0)
        assert unforced_rhs(p)(0.0, list(e2.location)) == (0.0, 0.0)
        assert find_limit_cycle(p, e2.location) is None


def test_search_from_an_overflowing_seed_raises():
    # the field overflows at the seed itself: no escape bound turns that
    # into None, and the portrait skips the seed's search
    with pytest.raises(NonFinite, match="non-finite at the initial state"):
        find_limit_cycle(Params(mu=-0.1, beta=1.0, eps=2.0), State(1e80, 0.0))


# --- Liouville multiplier vs the return map ----------------------------------

def _first_return_x(p: Params, x0: float) -> float:
    """x of the first downward crossing of {y = 0} from (x0, 0)."""
    traj = integrate(unforced_rhs(p), np.array([x0, 0.0]), (0.0, 40.0),
                     tol=(1e-12, 1e-10))
    return next(float(ev.state[0])
                for ev in detect_crossings(traj, lambda s: -s[1])
                if ev.t > 1e-9)


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
    # the cycle around E1, which crosses the section between E1 and O
    (Params(mu=-0.2, beta=1.0, eps=2.0), State(-0.8, 0.0)),
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


@pytest.mark.parametrize("x0", [1.5, 0.6])
def test_liouville_slope_matches_return_map(x0):
    # P'(x0) = g(x0) / g(P(x0)) * exp(int div dt), g(x) = beta x - eps x^3,
    # read off one return; positive at 1.5, negative at 0.6 < x_E2
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    rhs = unforced_rhs(p)

    def aug_field(t, s):
        return np.append(rhs(t, s[:2]), divergence(s[0], p))

    def g(x):
        return p.beta * x - p.eps * x ** 3

    hit = _first_return(aug_field, (x0, 0.0, 0.0), 240.0, 8.0)
    px = float(hit.final[0])
    slope = g(x0) / g(px) * math.exp(hit.final[2])
    h = 1e-5 * max(1.0, abs(x0))
    central = (_first_return_x(p, x0 + h)
               - _first_return_x(p, x0 - h)) / (2 * h)
    assert abs(slope - central) < 1e-6


def test_energy_boundary_search_gives_up_within_30_returns(monkeypatch):
    # criterion-7 energy set at its boundary: no cycle; the orbit spirals
    # into the origin until a return no longer crosses the section
    calls = []

    def counting(*args):
        calls.append(args)
        return _first_return(*args)

    monkeypatch.setattr(detect, "_first_return", counting)
    p = Params(mu=-5.0 / 36.0, beta=0.0, eps=2.0)
    assert find_limit_cycle(p, State(2.2, 0.0)) is None
    assert len(calls) <= 30


def test_search_that_never_closes_raises(monkeypatch):
    # two returns from (2, 0) do not close onto the large cycle; next to the
    # weakly repelling focus E2 a return closes to within 1e-8 but repels
    # (multiplier 1.00004 at mu_c + 1e-5, 1.14 at mu_c + 0.03), so it is no
    # cycle: the search gives up with NoConvergence, which the portrait and
    # the CLI catch
    monkeypatch.setattr(detect, "_MAX_RETURNS", 2)
    muc = hopf_curve(1.0, 2.0)
    for mu, seed in [(-0.1, State(2.0, 0.0)),
                     (muc + 1e-5, State(math.sqrt(0.5) + 1e-4, 0.0)),
                     (muc + 0.03, State(math.sqrt(0.5) + 1e-8, 0.0))]:
        with pytest.raises(NoConvergence, match="none of 2 returns"):
            find_limit_cycle(Params(mu=mu, beta=1.0, eps=2.0), seed)


def test_return_from_the_section_does_not_stop_at_start():
    # from (2, 0) the orbit leaves the section downward at t = 0; a plain
    # terminal event would report that start as the crossing
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    traj = _first_return(unforced_rhs(p), (2.0, 0.0), 240.0, 8.0)
    assert traj is not None and traj.t1 > 1.0
    assert abs(traj.final[1]) < 1e-10
    assert abs(traj.final[0] - _first_return_x(p, 2.0)) < 1e-9


@pytest.mark.parametrize("start, t_max, t_stop", [
    ((0.0, 1.0), 10.0, 0.5 * math.pi),
    # passing (-1, 0) at t = -pi/2 goes up in forward time: not a stop
    ((0.0, 1.0), -10.0, -1.5 * math.pi),
    # a start on the section is not a crossing, in either direction
    ((1.0, 0.0), 10.0, 2.0 * math.pi),
    ((1.0, 0.0), -10.0, -2.0 * math.pi),
    ((0.0, 1.0), 1.0, None),
])
def test_first_return_is_downward_in_forward_time(start, t_max, t_stop):
    # x' = y, y' = -x turns clockwise: it crosses {y = 0} going down at
    # (1, 0) in forward time, so a backward run meets it going up there
    traj = _first_return(lambda t, s: (s[1], -s[0]), start, t_max, 8.0)
    if t_stop is None:
        assert traj is None
        return
    assert abs(traj.t1 - t_stop) < 1e-8
    assert abs(traj.final[0] - 1.0) < 1e-8 and abs(traj.final[1]) < 1e-10


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

    def shoot(s0, t_max):
        # from these launches y keeps its sign, and x' = y moves x away from
        # 0, until the first crossing of y = 0, which therefore has x < 0;
        # the event rises there: y forward, -y backward
        sign = 1.0 if t_max > 0 else -1.0
        traj = integrate(rhs, s0, (0.0, t_max),
                         escape_radius=escape_bound(p, t_max),
                         stop_event=lambda t, s: sign * s[1])
        assert traj.stopped and traj.final[0] < 0.0
        return float(traj.final[0])

    vu, vs = _saddle_eigvectors(p)
    xu = shoot(-_LAUNCH_OFFSET * vu, _SHOOT_HORIZON)
    xs = shoot(-_LAUNCH_OFFSET * vs, -_SHOOT_HORIZON)
    assert abs(abs(xu - xs) - abs(ref.distance)) < 1e-9


def test_separatrix_split_bisects_to_mu3():
    # the gap changes sign across mu_3, and three bisection steps on it
    # land within 5e-3 of the Melnikov root
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


@pytest.mark.parametrize("mu", [1.9, 2.0, 2.05])
def test_separatrix_split_reports_a_branch_leaving_the_box(mu):
    # at beta = 2, eps = 1 and mu up to 2.05, just under mu_3 = 2.057, the
    # stable branch, shot backward, escapes its bound of 10 mu (19 to 20.5)
    # before it reaches the section
    p = Params(mu=mu, beta=2.0, eps=1.0)
    bound = escape_bound(p, -_SHOOT_HORIZON)
    assert bound == 10.0 * mu
    with pytest.raises(ManifoldEscape,
                       match=rf"left \|x\|,\|y\| <= {bound:g}$"):
        separatrix_split(p)


def test_separatrix_split_inside_the_box_at_beta_2():
    split = separatrix_split(Params(mu=2.1, beta=2.0, eps=1.0))
    assert abs(split.distance - 0.1959) < 1e-4


@pytest.mark.parametrize("beta, eps, mu, distance", [
    # mu_3 - 0.02, mu_3 and mu_3 + 0.02 at beta = 1.2 and 1, eps = 2
    (1.2, 2.0, -0.17085714285714285, -0.013541613437798361),
    (1.2, 2.0, -0.15085714285714286, -3.0286606936602567e-05),
    (1.2, 2.0, -0.13085714285714287, 0.013384653312263461),
    (1.0, 2.0, -0.19142857142857145, -0.013465610039747444),
    (1.0, 2.0, -0.17142857142857146, -5.952779440954181e-05),
    (1.0, 2.0, -0.15142857142857147, 0.013284785391255327),
    (2.0, 1.0, 2.1, 0.1959003995389499),
])
def test_separatrix_split_keeps_its_bits_inside_the_old_box(beta, eps, mu,
                                                            distance):
    # these shots stay within |x|,|y| <= 5, the fixed box they once had, so
    # the bound each takes from escape_bound leaves their gap bit for bit
    assert separatrix_split(Params(mu=mu, beta=beta, eps=eps)).distance \
        == distance


@pytest.mark.parametrize("dmu, distance", [
    (-0.01, -7.271883015003144e-4),
    (0.01, 6.257480488756073e-4),
])
def test_separatrix_split_finds_the_saddle_loop_at_large_beta(dmu, distance):
    # at beta = 400, eps = 200 the forward shot reaches |y| = 21.5 and the
    # backward one 18.5, under its bound of 10 beta/sqrt(2 eps) = 200; the
    # gap changes sign across mu_3
    mu = homoclinic_curve(400.0, 200.0) + dmu
    split = separatrix_split(Params(mu=mu, beta=400.0, eps=200.0))
    assert abs(split.distance - distance) < 1e-9


@pytest.mark.parametrize("beta, eps, below, above", [
    (800.0, 400.0, -4.927160127212726e-4, 4.5698273334870976e-4),
    (2000.0, 1000.0, -3.035208469270856e-4, 2.9450075101089546e-4),
])
def test_separatrix_split_follows_larger_saddle_loops(beta, eps, below,
                                                      above):
    # the saddle loop reaches |y| = beta/sqrt(2 eps), 28 and 45 here, past
    # 10 mu_3 = 20.6: the stable branch, shot backward, follows it back
    # under its bound, and the gap changes sign across mu_3
    mu3 = homoclinic_curve(beta, eps)
    for dmu, distance in ((-0.01, below), (0.01, above)):
        split = separatrix_split(Params(mu=mu3 + dmu, beta=beta, eps=eps))
        assert abs(split.distance - distance) < 1e-9


def test_separatrix_split_without_a_return_in_the_horizon():
    # at beta = 1e-4, mu = 0 the saddle's eigenvalues are +-0.01, so a
    # branch launched 1e-8 off needs about ln(1e8)/0.01 = 1842 to leave it,
    # past the horizon of 400
    with pytest.raises(ManifoldEscape,
                       match="^no section crossing within the shooting "
                             "horizon$"):
        separatrix_split(Params(mu=0.0, beta=1e-4, eps=2.0))


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_forced_short_run_has_no_lone_sample_gap_ratio(n):
    # for n <= 3 the first half of the tail is a single sample, whose
    # nearest-neighbour distance is inf: no gap shrink ratio is recorded
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify_forced(p, State(0.0, 1.2), n=n)
    ratio = rep.evidence.get("gap_shrink_ratio")
    assert (ratio is None) == (n <= 3)
    assert ratio != 0


def test_nearest_neighbor_distances_match_kdtree():
    # the closure test's brute-force distances equal a KD-tree query bit
    # for bit, with ties and a repeated point among the samples
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(7)
    pts = np.vstack([rng.standard_normal((300, 2)),
                     np.mgrid[0:3, 0:3].reshape(2, -1).T * 0.5,
                     [[0.25, -0.5], [0.25, -0.5]]])
    expected = cKDTree(pts).query(pts, k=2)[0][:, 1]
    got = detect._nearest_neighbor_distances(pts)
    assert got.tobytes() == expected.tobytes()
    tail = np.column_stack([np.cos(np.arange(1501) * 0.618),
                            np.sin(np.arange(1501) * 0.618)])
    expected = cKDTree(tail).query(tail, k=2)[0][:, 1]
    assert detect._nearest_neighbor_distances(tail).tobytes() \
        == expected.tobytes()


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
