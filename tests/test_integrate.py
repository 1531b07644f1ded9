import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qvdp
from qvdp.integrate import (DEFAULT_TOL, NoConvergence, NonFinite,
                            StepUnderflow, detect_crossings, escape_bound,
                            integrate, stroboscopic)
from qvdp.model import (Params, State, divergence, forced_rhs,
                        hamiltonian, hamiltonian_rhs, unforced_rhs)


def _rotation_field(t, s):
    return np.array([-s[1], s[0]])


def test_tolerance_validation():
    with pytest.raises(ValueError):
        integrate(_rotation_field, [1.0, 0.0], (0.0, 1.0), tol=(1e-20, 1e-10))
    with pytest.raises(ValueError):
        integrate(_rotation_field, [1.0, 0.0], (0.0, 1.0), tol=(1e-10, 1e-2))
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 1.0),
                     tol=(1e-12, 1e-9))
    assert traj.t1 == 1.0


@pytest.mark.parametrize("t1", [math.nan, math.inf, -math.inf])
def test_non_finite_end_time_rejected(t1):
    with pytest.raises(ValueError):
        integrate(_rotation_field, [1.0, 0.0], (0.0, t1))


@pytest.mark.parametrize("t_eval", [[1.0, math.nan, 2.0], [math.nan],
                                    [1.0, math.inf], [-math.inf, 1.0]])
def test_non_finite_t_eval_rejected(t_eval):
    # a NaN sample time used to pass the ordering check and silently drop
    # every later sample
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    with pytest.raises(ValueError, match="t_eval must be finite"):
        integrate(unforced_rhs(p), [2.0, 0.0], (0.0, 5.0), t_eval=t_eval)


@pytest.mark.parametrize("s0", [[math.nan, 0.0], [0.0, math.inf]])
def test_non_finite_initial_state_rejected(s0):
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate(_rotation_field, s0, (0.0, 1.0))


@pytest.mark.parametrize("t1, t_eval", [
    (5.0, [2.0, 1.0]),     # decreasing on a forward run
    (5.0, [1.0, 6.0]),     # past the end of a forward run
    (5.0, [-1.0, 1.0]),    # before the start of a forward run
    (-5.0, [-1.0, -6.0]),  # past the end of a backward run
    (-5.0, [-2.0, -1.0]),  # increasing on a backward run
])
def test_t_eval_out_of_its_span_or_order_rejected(t1, t_eval):
    with pytest.raises(ValueError,
                       match="t_eval must lie within t_span, in its order"):
        integrate(_rotation_field, [1.0, 0.0], (0.0, t1), t_eval=t_eval)


def test_trajectory_contract():
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 10.0))
    assert np.all(np.diff(traj.t) > 0)
    assert traj.states.shape == (len(traj.t), 2)
    assert traj.stats["nfev"] > 0
    assert traj.stats["accepted_steps"] == len(traj.t) - 1
    assert traj.stats["rejected_steps_estimate"] >= 0
    mid = traj.at(5.0)[0]
    assert abs(mid[0] - math.cos(5.0)) < 1e-8


def test_energy_drift_on_conservative_limit():
    p = Params(mu=0.0, beta=1.0, eps=2.0)
    traj = integrate(hamiltonian_rhs(p), [0.1, 0.0], (0.0, 50.0),
                     tol=(1e-12, 1e-10))
    H = np.array([hamiltonian(State(*s), p) for s in traj.states])
    assert np.max(np.abs(H - H[0])) < 1e-8


def test_degenerate_stable_origin_contracts_fast_direction():
    # beta = 0, eps = 1, mu = -1: eigenvalues {0, -1}; the y direction
    # contracts like e^(-t) while x creeps along the center manifold, so
    # the norm stays bounded and y alone decays below e^-1 of the start
    p = Params(mu=-1.0, beta=0.0, eps=1.0)
    s0 = np.array([0.0, 0.01])
    traj = integrate(unforced_rhs(p), s0, (0.0, 10.0), tol=(1e-13, 1e-11))
    x1, y1 = traj.final
    assert abs(y1) < abs(s0[1]) * math.exp(-1.0)
    assert math.hypot(x1, y1) < 1.1 * np.linalg.norm(s0)


def test_hopf_point_linear_period_recovered():
    # at mu = mu_c the focus frequency is sqrt(2 beta): time successive
    # downward section crossings of a tiny orbit around E2
    beta, eps = 1.0, 2.0
    muc = (beta ** 2 - eps * beta) / eps ** 2
    p = Params(mu=muc, beta=beta, eps=eps)
    x2 = math.sqrt(beta / eps)
    traj = integrate(unforced_rhs(p), [x2 + 1e-3, 0.0], (0.0, 25.0),
                     tol=(1e-13, 1e-11))
    events = detect_crossings(traj, lambda s: -s[1])
    times = [e.t for e in events if e.state[0] > x2]
    assert len(times) >= 3
    period = np.mean(np.diff(times))
    expected = 2.0 * math.pi / math.sqrt(2.0 * beta)
    assert abs(period - expected) < 1e-3 * expected


def test_detect_crossings_rotation():
    # the span ends at y = 1, away from a crossing, so the count does not
    # hang on the sign of the phase error at t1
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 20.5 * math.pi),
                     tol=(1e-12, 1e-10))
    ups = detect_crossings(traj, lambda s: s[1])
    assert len(ups) == 10
    for k, ev in enumerate(ups):
        assert abs(ev.t - 2.0 * math.pi * (k + 1)) < 1e-6
        assert abs(ev.state[0] - 1.0) < 1e-6
        assert abs(ev.state[1]) < 1e-10
    ts = [e.t for e in ups]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    downs = detect_crossings(traj, lambda s: -s[1])
    assert len(ups) + len(downs) == 20


def test_detect_crossings_skips_start_on_section():
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 2.5 * math.pi),
                     tol=(1e-12, 1e-10))
    downs = detect_crossings(traj, lambda s: -s[1])
    assert len(downs) == 1
    assert abs(downs[0].t - math.pi) < 1e-6


@pytest.mark.parametrize("field_fn, s0, t1, c", [
    (_rotation_field, [0.8, 0.3], 20.0, 0.5),
    (_rotation_field, [0.8, 0.3], -20.0, 0.5),
    # the paper's reference set onto its large cycle, and backward into the
    # focus E2 (x = 0.707), unstable forward
    (unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0)), [1.5, 0.3], 30.0, 0.5),
    (unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0)), [0.9, 0.1], -15.0,
     0.7),
    (unforced_rhs(Params(mu=0.1, beta=0.5, eps=1.0)), [0.9, 0.1], -10.0, 0.7),
    (unforced_rhs(Params(mu=0.5, beta=0.0, eps=1.0)), [0.1, 0.2], 40.0, 0.05),
])
def test_detect_crossings_follows_the_stop_event_rule(field_fn, s0, t1, c):
    # one rule and one locator: the first crossing is bit for bit where a
    # stop event on the same section ends the run, and the crossings come
    # in the run's time order, backward runs included
    run = integrate(field_fn, s0, (0.0, t1))
    sign = math.copysign(1.0, t1)
    for g in (lambda s: s[1], lambda s: -s[1], lambda s: s[0] - c,
              lambda s: c - s[0]):
        assert g(s0) != 0.0
        events = detect_crossings(run, g)
        assert events
        assert all(sign * (b.t - a.t) > 0 for a, b in zip(events, events[1:]))
        stop = integrate(field_fn, s0, (0.0, t1),
                         stop_event=lambda t, s: g(s))
        assert stop.stopped
        assert events[0].t == stop.t1
        assert np.array_equal(events[0].state, stop.final)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=st.floats(-0.5, 0.5),
       t1=st.sampled_from([-12.0, 12.0]), i=st.sampled_from([0, 1]),
       c=st.floats(-0.5, 0.5), sign=st.sampled_from([-1.0, 1.0]))
def test_first_crossing_is_the_stop_root_bit_for_bit(x, y, t1, i, c, sign):
    # the section sign * (s[i] - c) from a start off it, on the paper's
    # reference set: forward onto its large cycle, backward into E1 or E2
    # (from |x| > 1.1 a backward run escapes)
    def g(s):
        return sign * (s[i] - c)
    s0 = [x, y]
    assume(g(s0) != 0.0)
    rhs = unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0))
    run = integrate(rhs, s0, (0.0, t1))
    events = detect_crossings(run, g)
    assert all(math.copysign(1.0, t1) * (b.t - a.t) > 0
               for a, b in zip(events, events[1:]))
    stop = integrate(rhs, s0, (0.0, t1), stop_event=lambda t, s: g(s))
    assert stop.stopped == bool(events)
    if events:
        assert events[0].t == stop.t1
        assert np.array_equal(events[0].state, stop.final)


def test_detect_crossings_raises_on_a_nan_section_value():
    # a NaN orders neither way, so it would hide a crossing: it raises
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 2.5 * math.pi))
    with pytest.raises(NoConvergence, match="NaN"):
        detect_crossings(traj, lambda s: s[1] if s[0] > -0.5 else math.nan)


def test_self_convergence():
    # halving tolerances moves endpoints by less than 10 x rel tol per
    # unit time (global error grows roughly linearly over these horizons)
    cases = [
        (hamiltonian_rhs(Params(mu=0, beta=1, eps=2)), [0.1, 0.0]),
        (unforced_rhs(Params(mu=1.0, beta=0.0, eps=2.0)), [2.0, 0.0]),
    ]
    horizon = 50.0
    for rhs, s0 in cases:
        for rel in (1e-8, 1e-10):
            coarse = integrate(rhs, s0, (0.0, horizon), tol=(rel * 1e-2, rel))
            fine = integrate(rhs, s0, (0.0, horizon),
                             tol=(rel * 0.5e-2, rel * 0.5))
            diff = np.max(np.abs(coarse.final - fine.at(horizon)[0]))
            assert diff < 10.0 * rel * horizon


def test_z2_transport_is_exact():
    # the field is odd in the state and IEEE negation is exact, so the
    # mirrored run reproduces the negated trajectory bitwise
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    rhs = unforced_rhs(p)
    a = integrate(rhs, [0.7, 0.3], (0.0, 30.0), tol=(1e-12, 1e-10))
    b = integrate(rhs, [-0.7, -0.3], (0.0, 30.0), tol=(1e-12, 1e-10))
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.states, -b.states)
    # the forced field is odd in (x, y) at every t, so its strobe is too
    q = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    assert np.array_equal(stroboscopic(q, (-0.7, -0.3), 20),
                          -stroboscopic(q, (0.7, 0.3), 20))


def test_determinism_bitwise():
    p = Params(mu=-0.2, beta=1.0, eps=2.0)
    rhs = unforced_rhs(p)
    a = integrate(rhs, [1.3, -0.4], (0.0, 40.0), tol=(1e-12, 1e-10))
    b = integrate(rhs, [1.3, -0.4], (0.0, 40.0), tol=(1e-12, 1e-10))
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.states, b.states)


def test_a_start_on_the_event_is_not_a_crossing():
    # y is zero at t0 and rises: a crossing needs g(a) < 0, so the run goes
    # on to its next rising zero, one turn later, and the interpolant
    # answers at the start
    def on_axis(t, s):
        return s[1]
    short = integrate(_rotation_field, [1.0, 0.0], (0.0, 1.0),
                      stop_event=on_axis)
    assert not short.stopped and short.t1 == 1.0
    assert np.array_equal(short.at(0.0)[0], [1.0, 0.0])
    turn = integrate(_rotation_field, [1.0, 0.0], (0.0, 7.0),
                     stop_event=on_axis)
    assert turn.stopped and abs(turn.t1 - 2.0 * math.pi) < 1e-9


@pytest.mark.parametrize("s0", [[12.0, 0.0], [10.0, 0.0]])
def test_a_start_on_or_beyond_the_escape_bound_has_escaped(s0):
    # backward, the quintic damping drives (12, 0) off to infinity; a start
    # beyond the bound, or on it, never rises through it, so the run
    # escapes at t0 with the start alone instead of crawling on until the
    # step size underflows
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    with pytest.raises(NonFinite, match="escaped") as exc:
        integrate(unforced_rhs(p), s0, (0.0, -1.0), escape_radius=10.0)
    partial = exc.value.trajectory
    assert partial.t.tolist() == [0.0]
    assert partial.states.tolist() == [s0]
    assert partial.stats["nfev"] == 1


def test_a_stop_event_stops_only_where_it_rises():
    # -y is zero and falling at the start: the run goes on to t = pi, where
    # it rises through zero
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 10.0),
                     stop_event=lambda t, s: -s[1])
    assert traj.stopped and abs(traj.t1 - math.pi) < 1e-9
    assert abs(traj.final[0] + 1.0) < 1e-9 and abs(traj.final[1]) < 1e-10


def test_a_run_sampled_at_t_eval_keeps_no_interpolant():
    # the samples are all a t_eval run returns: it has no interpolant to
    # evaluate or to scan for crossings
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 10.0),
                     t_eval=[0.0, 5.0, 10.0])
    assert list(traj.t) == [0.0, 5.0, 10.0]
    assert abs(traj.states[1][0] - math.cos(5.0)) < 1e-8
    with pytest.raises(ValueError, match="keeps no interpolant"):
        traj.at(5.0)
    with pytest.raises(ValueError, match="keeps no interpolant"):
        detect_crossings(traj, lambda s: s[1])


def test_a_refined_run_keeps_no_interpolant():
    # the refined grid is no longer the step ends the interpolant is
    # knotted on, so the refined run keeps none
    fine = integrate(_rotation_field, [1.0, 0.0], (0.0, 10.0)).refined()
    with pytest.raises(ValueError, match="keeps no interpolant"):
        fine.at(0.0)


def test_a_t_eval_run_owns_its_times():
    # the returned times are a copy: writing to the caller's t_eval later
    # does not reach the trajectory
    t_eval = np.array([0.0, 1.0, 2.0])
    traj = integrate(_rotation_field, [2.0, 0.0], (0.0, 5.0), t_eval=t_eval)
    t_eval[1] = 99.0
    assert list(traj.t) == [0.0, 1.0, 2.0]


def _run_or_partial(*args, **kwargs):
    """The run, or the partial trajectory of one that escapes."""
    try:
        return integrate(*args, **kwargs)
    except NonFinite as exc:
        return exc.trajectory


def _assert_samples_are_at(field_fn, s0, t1):
    # t_eval samples come from the run loop's floats, at() from arrays of
    # the dense run's rows: one evaluator, so equal bit for bit, also on a
    # knot, where a sample belongs to the step that ends there
    dense = _run_or_partial(field_fn, s0, (0.0, t1), escape_radius=10.0)
    ts = np.unique(np.concatenate([dense.t[::3], dense.t[-1:],
                                   np.linspace(0.0, t1, 37)]))
    ts = ts if t1 > 0 else ts[::-1]
    sampled = _run_or_partial(field_fn, s0, (0.0, t1), t_eval=ts,
                              escape_radius=10.0)
    assert len(sampled.t) >= min(len(ts), 4)
    assert np.array_equal(sampled.t, ts[:len(sampled.t)])
    assert np.array_equal(sampled.states, dense.at(sampled.t))


_FORCED_SET = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)


@pytest.mark.parametrize("field_fn, s0", [
    (unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0)), [2.0, 0.0]),
    (forced_rhs(_FORCED_SET), [0.0, 1.2]),
])
@pytest.mark.parametrize("t1", [30.0, -0.6])
def test_t_eval_samples_are_at_bit_for_bit(field_fn, s0, t1):
    _assert_samples_are_at(field_fn, s0, t1)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0),
       t1=st.floats(0.5, 20.0) | st.floats(-2.0, -0.1),
       forced=st.booleans())
@example(x=0.0, y=5.262815441413184e-158, t1=1.0, forced=False)
def test_t_eval_samples_are_at_on_random_runs(x, y, t1, forced):
    field_fn = forced_rhs(_FORCED_SET) if forced else \
        unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0))
    _assert_samples_are_at(field_fn, [x, y], t1)


def test_a_step_whose_error_estimates_vanish_has_error_zero():
    # from this start the 5th-order error estimate is 0 and 0.01 times the
    # 3rd-order one underflows to 0: the error norm |h| n5 / sqrt(...) is
    # 0, not 0 / 0
    field_fn = unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0))
    traj = integrate(field_fn, [0.0, 5.262815441413184e-158], (0.0, 1.0))
    assert traj.t1 == 1.0 and np.all(np.isfinite(traj.states))


def test_returned_arrays_are_read_only():
    # the samples share their buffers with the interpolant, so a write to
    # them would move the curve at() evaluates
    traj = integrate(_rotation_field, [1.0, 0.0], (0.0, 1.0))
    fine = traj.refined()
    sampled = integrate(_rotation_field, [1.0, 0.0], (0.0, 1.0),
                        t_eval=[0.0, 0.5])
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    s0 = np.array([1.0, 0.0])
    with pytest.raises(NonFinite) as exc:
        integrate(lambda t, s: (math.inf, 0.0), s0, (0.0, 1.0))
    s0[0] = 5.0  # the failed run keeps its own copy of the start
    arrays = [traj.t, traj.states, fine.t, fine.states, sampled.t,
              sampled.states, stroboscopic(p, (0.0, 1.2), 2),
              exc.value.trajectory.t, exc.value.trajectory.states,
              traj._h, traj._rows]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5.0
    assert exc.value.trajectory.states.tolist() == [[1.0, 0.0]]
    assert traj.at(0.0).tolist() == [[1.0, 0.0]]


def _half_speed_stop(t, s):
    return abs(s[1]) - 0.5


@pytest.mark.parametrize("t1, t_eval, stop, radius", [
    # stopped where |y| reaches 0.5, before t = 0.25
    (50.0, (10.0, 50.0), _half_speed_stop, 1e4),
    # escaped past |x| = 8 before t = 599
    (600.0, (599.0,), None, 8.0),
])
def test_a_t_eval_run_ending_before_its_first_sample_is_empty(t1, t_eval,
                                                              stop, radius):
    p = Params(mu=0.3, beta=1.0, eps=-1.0)
    escaped = False
    try:
        traj = integrate(unforced_rhs(p), [2.0, 0.0], (0.0, t1),
                         t_eval=t_eval, escape_radius=radius, stop_event=stop)
    except NonFinite as exc:
        traj, escaped = exc.trajectory, True
    assert traj.stopped == (stop is not None)
    assert escaped == (stop is None)
    assert traj.t.shape == (0,)
    assert traj.states.shape == (0, 2)


def _rising(t, s):
    return s[1]


_SADDLE_SET = Params(mu=-0.18, beta=1.0, eps=2.0)
# the stable eigenvalue of the saddle at the origin
_LAM_S = (_SADDLE_SET.mu - math.sqrt(_SADDLE_SET.mu ** 2
                                     + 4.0 * _SADDLE_SET.beta)) / 2.0


@pytest.mark.parametrize("s0, t1, stop", [
    ([0.7, 0.3], 30.0, None),
    # the stable separatrix, run backward from a 1e-8 offset along its
    # eigenvector (1, lam_s) to the section, as separatrix shooting does
    ([1e-8 / math.hypot(1.0, _LAM_S), 1e-8 * _LAM_S / math.hypot(1.0, _LAM_S)],
     400.0, _rising),
])
def test_backward_span_is_the_negated_field_run_forward(s0, t1, stop):
    # a negative span runs the field backward: it takes the steps of the
    # negated field run forward, with times negated, bit for bit
    rhs = unforced_rhs(_SADDLE_SET)

    def negated(t, s):
        return [-v for v in rhs(t, s)]
    back = integrate(rhs, s0, (0.0, -t1), escape_radius=5.0,
                     stop_event=stop)
    fwd = integrate(negated, s0, (0.0, t1), escape_radius=5.0,
                    stop_event=stop)
    assert back.stopped == fwd.stopped == (stop is not None)
    assert back.stats == fwd.stats
    assert np.array_equal(back.t, -fwd.t)
    assert np.array_equal(back.states, fwd.states)
    grid = np.linspace(0.0, fwd.t1, 101)
    assert np.array_equal(back.at(-grid), fwd.at(grid))


def _recorded_rotation_run(wrap):
    """A stopped rotation run whose field returns ``wrap(tuple)``, and
    the states its field and event calls got."""
    seen = []

    def field(t, s):
        seen.append(s)
        return wrap((-s[1], s[0]))

    def below_half(t, s):
        seen.append(s)
        return -0.5 - s[1]

    traj = integrate(field, [1.0, 0.0], (0.0, 10.0), stop_event=below_half)
    return traj, seen


def test_fields_and_events_get_lists_of_floats():
    # every field and event call gets the state as a list of floats, and a
    # field may return any sequence: a tuple and an array give the same run
    a, seen_a = _recorded_rotation_run(tuple)
    b, seen_b = _recorded_rotation_run(np.array)
    assert a.stopped and abs(a.t1 - 7.0 * math.pi / 6.0) < 1e-9
    # more calls than evaluations: the event was also located by bracketing
    assert len(seen_a) > a.stats["nfev"] + a.stats["accepted_steps"]
    assert all(type(s) is list and all(type(v) is float for v in s)
               for s in seen_a)
    # an array field's components reach the stage states as numpy float
    # scalars, a float subclass
    assert all(type(s) is list and all(isinstance(v, float) for v in s)
               for s in seen_b)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.states, b.states)
    assert a.stats == b.stats


def _counted(field_fn):
    calls = []

    def counted(t, s):
        calls.append(t)
        return field_fn(t, s)
    return counted, calls


def test_nfev_counts_the_field_calls():
    # stats["nfev"] is the number of field calls, whichever way the run
    # ends and whichever steps form their interpolant
    p = Params(mu=-0.1, beta=1.0, eps=2.0)

    def at_ten(t, s):
        return t - 10.0

    runs = {
        # its steps include rejected attempts, 12 evaluations each
        "dense": dict(s0=[2.0, 0.0], t_span=(0.0, 30.0)),
        "backward": dict(s0=[0.5, 0.1], t_span=(0.0, -5.0),
                         escape_radius=escape_bound(p, -5.0)),
        "t_eval": dict(s0=[2.0, 0.0], t_span=(0.0, 30.0),
                       t_eval=np.linspace(0.0, 30.0, 7)),
        "stopped": dict(s0=[2.0, 0.0], t_span=(0.0, 30.0),
                        stop_event=at_ten),
        # the hit step holds no sample, yet forms its interpolant
        "stopped t_eval": dict(s0=[2.0, 0.0], t_span=(0.0, 30.0),
                               t_eval=[0.0, 30.0], stop_event=at_ten),
    }
    for name, kw in runs.items():
        field_fn, calls = _counted(unforced_rhs(p))
        traj = integrate(field_fn, **kw)
        assert traj.stats["nfev"] == len(calls), name
        assert traj.stopped is ("stopped" in name), name
        if name == "dense":
            assert traj.stats["rejected_steps_estimate"] > 0
    pe = Params(mu=0.3, beta=1.0, eps=-1.0)
    field_fn, calls = _counted(unforced_rhs(pe))
    with pytest.raises(NonFinite) as exc:
        integrate(field_fn, [2.0, 0.0], (0.0, 600.0), tol=(1e-10, 1e-7),
                  escape_radius=8.0)
    assert exc.value.trajectory.stats["nfev"] == len(calls)


def test_nonfinite_escape_reported():
    # for eps < 0 orbits creep to infinity along the quartic-damping
    # nullcline (x ~ sqrt(2t), stiffer as x grows); crossing the escape
    # bound is an outcome, not a crash, and the partial trajectory is kept
    p = Params(mu=0.3, beta=1.0, eps=-1.0)
    with pytest.raises(NonFinite) as exc:
        integrate(unforced_rhs(p), [2.0, 0.0], (0.0, 600.0),
                  tol=(1e-10, 1e-7), escape_radius=8.0)
    partial = exc.value.trajectory
    assert "escaped" in str(exc.value)
    assert len(partial.t) >= 2
    assert np.all(np.isfinite(partial.states))
    assert partial.t1 < 600.0


def test_step_underflow_in_a_finite_time_blow_up():
    # backward in time the quintic damping blows up in finite time; with no
    # escape bound the steps shrink until they fall below the float spacing
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    with pytest.raises(StepUnderflow,
                       match="step size fell below the float spacing"):
        integrate(unforced_rhs(p), [2.0, 0.0], (0.0, -5.0),
                  escape_radius=math.inf)


def test_stroboscopic_requires_forcing():
    with pytest.raises(ValueError):
        stroboscopic(Params(mu=0.0, beta=1.0, eps=2.0), (0.0, 1.0), 10)


@pytest.mark.parametrize("n", [0, -3])
def test_stroboscopic_requires_a_period(n):
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    with pytest.raises(ValueError):
        stroboscopic(p, (0.0, 1.2), n)


@pytest.mark.parametrize("per_period", [0, -1, 2.5, math.nan, math.inf])
def test_stroboscopic_requires_a_positive_integer_per_period(per_period):
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    with pytest.raises(ValueError, match="per_period must be a positive"):
        stroboscopic(p, (0.0, 1.2), 2, per_period=per_period)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
def test_stroboscopic_requires_a_positive_integer_period_count(n):
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        stroboscopic(p, (0.0, 1.2), n)


def test_stroboscopic_escapes_for_eps_below_zero():
    # an eps < 0 orbit crawls out along the quartic-damping nullcline; the
    # forced run escapes where max(|x|, |y|) rises through 10 (here at
    # t = 23.82 after 13,846 steps, about 1 s) with the samples before it,
    # at t = 0, T, 2T and 3T
    p = Params(mu=0.3, beta=1.0, eps=-2.0, alpha=0.3)
    with pytest.raises(NonFinite, match=r"escaped \|s\| > 10 at t=23\.8") \
            as exc:
        stroboscopic(p, (0.0, 1.2), 20)
    assert len(exc.value.trajectory.t) == 4
    assert exc.value.trajectory.states[-1].tolist() == [8.931918703828263,
                                                        0.22776502237765134]


def test_escape_bound_follows_whether_a_run_can_escape():
    # forward eps > 0 runs have none, backward ones 10 max(1, mu,
    # beta/sqrt(2 eps)), and eps <= 0 runs 10 either way
    assert escape_bound(Params(mu=6.1, beta=3.0, eps=1.0), 1.0) == math.inf
    assert escape_bound(Params(mu=6.1, beta=3.0, eps=1.0), -1.0) == 61.0
    # 10 * 3/sqrt(2): the saddle loop's height beta/sqrt(2 eps) exceeds mu
    assert escape_bound(Params(mu=0.5, beta=3.0, eps=1.0), -1.0) \
        == 21.213203435596423
    for eps in (0.0, -1.0):
        for t1 in (1.0, -1.0):
            assert escape_bound(Params(mu=6.0, beta=1.0, eps=eps), t1) == 10.0


def test_backward_escape_bound_clears_the_saddle_loop():
    # the loop x = sqrt(2 beta/eps) sech t, y = x' reaches |y| =
    # beta/sqrt(2 eps) at x = sqrt(beta/eps); the bound is ten times that
    # where it exceeds 1 and mu, and the largest double where it overflows
    for beta, eps in ((2.0, 1.0), (800.0, 400.0), (2000.0, 1000.0)):
        top = beta / math.sqrt(2.0 * eps)
        bound = escape_bound(Params(mu=0.0, beta=beta, eps=eps), -1.0)
        assert bound == pytest.approx(10.0 * top, rel=1e-15)
    for p in (Params(mu=0.0, beta=1e308, eps=1e-300),
              Params(mu=1e308, beta=1.0, eps=1.0)):
        assert escape_bound(p, -1.0) == sys.float_info.max


def test_stroboscopic_fixed_point_of_forced_system():
    # x = 0 kills the parametric forcing, so the origin persists as an
    # equilibrium of the forced system and strobing must hold it
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    samples = stroboscopic(p, (0.0, 0.0), 20)
    assert samples.shape == (21, 2)
    assert np.max(np.abs(samples)) < 1e-9


def test_stroboscopic_sampling_times_are_periods():
    p = Params(mu=-0.3, beta=1.0, eps=3.0, alpha=-0.3, omega=2.0)
    n = 30
    samples = stroboscopic(p, (0.1, 0.0), n)
    assert samples.shape == (n + 1, 2)
    assert np.all(np.isfinite(samples))


def test_stroboscopic_per_period_grid_holds_the_strobe():
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    fine = stroboscopic(p, (0.0, 1.2), 5, per_period=4)
    assert fine.shape == (21, 2)
    assert np.array_equal(fine[::4], stroboscopic(p, (0.0, 1.2), 5))


def test_cli_paths_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI, classifying,
    # sweeping, checking the Melnikov function and drawing a portrait with
    # its cycle search load no scipy module (the forced run is checked in
    # test_cli)
    code = "\n".join([
        "import sys",
        "import qvdp.cli",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(scipy_modules())",
        "for argv in sys.argv[1:]:",
        "    assert qvdp.cli.main(argv.split()) == 0, argv",
        "    print(scipy_modules())",
    ])
    params = "--beta 1 --eps 2 --mu -0.1"
    runs = [f"classify {params} --out {tmp_path / 'c.json'}",
            f"sweep --eps 2 --grid beta:0.5:1.5:3 --grid mu:-0.3:0.1:3 "
            f"--out {tmp_path / 's.csv'}",
            f"melnikov {params} --out {tmp_path / 'm.json'}",
            f"portrait {params} --seed 2,0 --t1 10 --format svg "
            f"--out {tmp_path / 'p.csv'}"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qvdp.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code, *runs], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:-1] == ["[]"] * (1 + len(runs))
    assert (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("t1, t_eval, k", [
    (50.0, [0.0, 3.3, 10.0, 25.0, 50.0], 5),
    # the first two samples share the first step
    (50.0, [0.0, 1e-9, 25.0, 50.0], 3),
    (-0.5, [-0.1, -0.5], 2),
])
def test_a_t_eval_run_forms_interpolants_only_in_steps_it_samples(t1, t_eval,
                                                                  k):
    # the steps do not depend on t_eval; a dense run forms the interpolant
    # of every step, three evaluations each, and a t_eval run only those of
    # the k steps that hold a sample
    rhs = unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0))
    dense = integrate(rhs, [2.0, 0.0], (0.0, t1))
    sampled = integrate(rhs, [2.0, 0.0], (0.0, t1), t_eval=t_eval)
    accepted = dense.stats["accepted_steps"]
    assert sampled.stats["accepted_steps"] == accepted
    assert sampled.stats["rejected_steps_estimate"] == \
        dense.stats["rejected_steps_estimate"]
    # a sample belongs to the first step ending at or past it; step i ends
    # at dense.t[i], and a sample at the start belongs to the first step
    sign = math.copysign(1.0, t1)
    ends = np.searchsorted(sign * dense.t, sign * np.array(t_eval))
    assert len(set(np.maximum(ends, 1).tolist())) == k
    assert sampled.stats["nfev"] == dense.stats["nfev"] - 3 * (accepted - k)


# --- scipy's solve_ivp as the reference of the stepper ------------------------

def _solve_ivp(field_fn, s0, t_span, tol, escape_radius=1e4, stop_event=None,
               **kw):
    from scipy.integrate import solve_ivp

    def escape(t, y):
        return max(map(abs, y[:2])) - escape_radius
    escape.terminal = True
    escape.direction = 1
    events = [escape] + ([stop_event] if stop_event else [])
    return solve_ivp(field_fn, t_span, np.asarray(s0, dtype=float),
                     atol=tol[0], rtol=tol[1], events=events, **kw)


def _section_down(t, s):
    # first downward crossing of {y = 0}, as a return map takes it: the
    # event rises through zero there.  A state on the section reads one ulp
    # past it, since solve_ivp takes g(a) <= 0 <= g(b) for a crossing and
    # would stop at a start on the section
    return -s[1] if s[1] != 0.0 else math.ulp(0.0)


_section_down.terminal = True  # for solve_ivp
_section_down.direction = 1


def _augmented(p):
    rhs = unforced_rhs(p)

    def field(t, s):
        dx, dy = rhs(t, s[:2])
        return np.array([dx, dy, divergence(s[0], p)])
    return field


@pytest.mark.parametrize("field_fn, s0, t1, tol, radius, stop", [
    # the large cycle of the paper's reference set
    (unforced_rhs(Params(mu=-0.1, beta=1.0, eps=2.0)), [2.0, 0.0], 200.0,
     (1e-12, 1e-10), 1e4, None),
    # the single cycle around the origin at beta = 0, coarser tolerances
    (unforced_rhs(Params(mu=0.5, beta=0.0, eps=1.0)), [0.1, 0.0], 100.0,
     (1e-9, 1e-7), 1e4, None),
    # escape for eps < 0 (NonFinite); at rtol 1e-7 the error estimate of the
    # third step is 1e-5 of the terms it sums, scipy's BLAS sums and ours
    # differ there by 3e-7 relative, and the interpolants end 1.8e-12 apart
    (unforced_rhs(Params(mu=0.3, beta=1.0, eps=-1.0)), [2.0, 0.0], 600.0,
     DEFAULT_TOL, 3.0, None),
    # one return of the augmented state, stopped on the section
    (_augmented(Params(mu=-0.1, beta=1.0, eps=2.0)), [2.0, 0.0, 0.0], 1000.0,
     (1e-12, 1e-10), 1e4, _section_down),
    # the forced system on the paper's quasi-periodic set
    (forced_rhs(Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)),
     [0.0, 1.2], 30.0, DEFAULT_TOL, 1e4, None),
])
def test_integrate_takes_the_steps_of_solve_ivp(field_fn, s0, t1, tol, radius,
                                                stop):
    ref = _solve_ivp(field_fn, s0, (0.0, t1), tol, radius, stop,
                     method="DOP853", dense_output=True)
    escaped = False
    try:
        traj = integrate(field_fn, s0, (0.0, t1), tol=tol,
                         escape_radius=radius, stop_event=stop)
    except NonFinite as exc:
        traj, escaped = exc.trajectory, True
    accepted = len(ref.t) - 1
    assert traj.stats["accepted_steps"] == accepted
    assert traj.stats["nfev"] == ref.nfev
    # after the first two evaluations every attempt costs 12, and every
    # accepted step 3 more for its interpolant (scipy forms it once
    # dense_output is asked for, as this stepper does for dense runs)
    assert traj.stats["rejected_steps_estimate"] == \
        (ref.nfev - 2 - 3 * accepted) // 12 - accepted
    assert escaped == (len(ref.t_events[0]) > 0)
    assert traj.stopped == (stop is not None and len(ref.t_events[1]) > 0)
    assert abs(traj.t1 - ref.t[-1]) < 1e-12
    assert np.max(np.abs(traj.final - ref.y[:, -1])) < 1e-12
    grid = np.linspace(0.0, traj.t1, 997)
    assert np.max(np.abs(traj.at(grid) - ref.sol(grid).T)) < 1e-12


@pytest.mark.parametrize("mu", [-0.3, -0.1])
def test_stroboscopic_matches_solve_ivp_dop853(mu):
    # the paper's entrained (mu = -0.3) and quasi-periodic (-0.1) sets
    p = Params(mu=mu, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    n, T = 50, p.forcing_period
    ref = _solve_ivp(forced_rhs(p), [0.0, 1.2], (0.0, n * T),
                     DEFAULT_TOL, method="DOP853",
                     t_eval=np.arange(n + 1) * T)
    samples = stroboscopic(p, (0.0, 1.2), n)
    assert np.max(np.abs(samples - ref.y.T)) < 1e-10
