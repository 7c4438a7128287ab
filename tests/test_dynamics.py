import ast
import cmath
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoramsey import dynamics
from nanoramsey.constants import HBAR
from nanoramsey.dynamics import (
    PulseSequence,
    branch_overlap,
    evolve_sequence,
    fringe,
    gravitational_phase,
    initial_state,
    max_separation,
    ramsey_probability,
    wavepacket_width,
)
from nanoramsey.grid import desk_scale_params
from nanoramsey.params import SpinBranch, atan2, build_params, modulus
from conftest import PAPER_CONFIG
from oracles import (
    classical_step_reference,
    classical_trajectory_reference,
    evolve_branches,
    evolved_branches_reference,
    evolved_step_reference,
    gravitational_phase_action,
    gravitational_phase_propagator,
    integrate_trajectory,
    numeric_action,
    numeric_separation_integral,
    relative_segments_reference,
    sampled_trajectory,
    separation_at_reference,
    separation_time_integral,
)
from test_public_names import PACKAGE, _references


def make_params(**overrides):
    cfg = dict(PAPER_CONFIG)
    cfg.update(overrides)
    return build_params(cfg)


def random_param_sets(n, seed):
    """``n`` random (params, t3) pairs: the t3 is the pulse sequence's, not a field."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cfg = dict(
            mass=float(10 ** rng.uniform(-18, -16)),
            b_gradient=float(10 ** rng.uniform(5, 7.5)),
            theta=float(rng.uniform(0.0, 1.4)),
            t3=float(10 ** rng.uniform(-4.5, -3.5)),
            trap_omega=float(10 ** rng.uniform(4, 6)),
        )
        out.append((make_params(**cfg), cfg["t3"]))
    return out


class TestPulseSequence:
    def test_balanced_constructor(self):
        seq = PulseSequence.balanced(1e-4)
        assert seq.t1 == 1e-4 / 4.0 and seq.t2 == 3.0 * 1e-4 / 4.0
        assert seq.is_balanced()

    def test_ordering_enforced_after_jitter(self):
        with pytest.raises(ValueError):
            PulseSequence(t1=3e-5, t2=2e-5, t3=1e-4)
        with pytest.raises(ValueError):
            PulseSequence(t1=2.5e-5, t2=7.5e-5, t3=1e-4, jitter=(6e-5, 0.0, 0.0))

    def test_jittered_is_not_balanced(self):
        seq = replace(PulseSequence.balanced(1e-4), jitter=(1e-9, 0.0, 0.0))
        assert not seq.is_balanced()


def branch_at(params, seq, spin, t, x0=0.0, p0=0.0):
    """(centre, momentum) at time t of the branch that starts on ``spin``."""
    branch = evolve_branches(params, seq, initial_state(x0, p0), spins=(spin, spin),
                             until=t).plus_branch
    return branch.center, branch.momentum


class TestClassicalTrajectory:
    def test_force_free_center_constant(self):
        # cos(pi/2) is eps-level rather than zero in floats, hence the tolerances
        params = make_params(b_gradient=0.0, theta=math.pi / 2)
        seq = PulseSequence.balanced(1e-4)
        for t in np.linspace(0, 1e-4, 7):
            x, p = branch_at(params, seq, SpinBranch.PLUS, float(t), x0=1.0e-9, p0=0.0)
            assert x == pytest.approx(1.0e-9, abs=1e-22)
            assert abs(p) < 1e-30

    def test_matches_verlet_oracle(self, paper_params, paper_seq):
        for spin in (SpinBranch.PLUS, SpinBranch.MINUS, SpinBranch.ZERO):
            ts, xs, vs = integrate_trajectory(paper_params, paper_seq, spin, 1e-9, 1e-24)
            for frac in (0.25, 0.5, 0.9, 1.0):
                t = 1e-4 * frac
                idx = int(np.argmin(np.abs(ts - t)))
                x_cl, p_cl = branch_at(paper_params, paper_seq, spin, ts[idx], x0=1e-9, p0=1e-24)
                scale = max(abs(xs[idx]), 1e-12)
                assert x_cl == pytest.approx(xs[idx], abs=1e-7 * scale)
                assert p_cl / paper_params.mass == pytest.approx(vs[idx], rel=1e-7, abs=1e-30)

    def test_balanced_closure_relative_coordinates(self):
        for params, t3 in random_param_sets(20, seed=5):
            seq = PulseSequence.balanced(t3)
            final = evolve_sequence(params, seq, initial_state())
            xp, pp = final.plus_branch.center, final.plus_branch.momentum
            xm, pm = final.minus_branch.center, final.minus_branch.momentum
            # closure to 1e-12 of the excursion scale
            scale_x = max(abs(xp), max_separation(params, seq))
            scale_p = max(abs(pp), params.spin_coupling() * t3)
            assert abs(xp - xm) <= 1e-12 * scale_x
            assert abs(pp - pm) <= 1e-12 * scale_p

    def test_spin_zero_is_projectile(self, paper_params, paper_seq):
        g = paper_params.g_earth
        for t in (2e-5, 5e-5, 1e-4):
            x, p = branch_at(paper_params, paper_seq, SpinBranch.ZERO, t)
            assert x == pytest.approx(-0.5 * g * t * t, rel=1e-12)
            assert p == pytest.approx(-paper_params.mass * g * t, rel=1e-12)

    def test_separation_at_half_time(self, paper_params, paper_seq):
        # peak separation 2 (A/m) (t3/4)^2 at t3/2, frozen from the verlet oracle
        sep = separation_at_reference(paper_params, paper_seq, 0.5e-4)
        a = paper_params.spin_coupling() / paper_params.mass
        assert sep == pytest.approx(2.0 * a * (2.5e-5) ** 2, rel=1e-12)
        assert sep == pytest.approx(1.8574e-8, rel=1e-4)
        ts, xp, _ = integrate_trajectory(paper_params, paper_seq, +1)
        _, xm, _ = integrate_trajectory(paper_params, paper_seq, -1)
        idx = int(np.argmin(np.abs(ts - 0.5e-4)))
        assert sep == pytest.approx(xp[idx] - xm[idx], rel=1e-6)
        mid = evolve_branches(paper_params, paper_seq, initial_state(), until=0.5e-4)
        assert sep == pytest.approx(mid.plus_branch.center - mid.minus_branch.center, rel=1e-12)

    def test_separation_at_measurement_time(self, paper_params):
        # the accumulated segment starts end an ulp short of t3 on this sequence
        seq = PulseSequence(6e-6, 51e-6, 1e-4)
        final = evolve_sequence(paper_params, seq, initial_state())
        start, _, dx0, dv0, da = dynamics._relative_segments(paper_params, seq)[-1]
        dt = 1e-4 - start
        sep = dx0 + dv0 * dt + 0.5 * da * dt * dt
        assert sep == pytest.approx(final.plus_branch.center - final.minus_branch.center,
                                    rel=1e-12)


class TestMaxSeparation:
    def test_zero_gradient(self, paper_seq):
        assert max_separation(make_params(b_gradient=0.0), paper_seq) == 0.0

    def test_balanced_closed_form_vs_piecewise_max(self, paper_params):
        seq = PulseSequence.balanced(1e-4)
        closed = max_separation(paper_params, seq)
        # fallback path: shift t1 past BALANCE_RTOL, by a negligible amount, so the closed
        # form is skipped
        nudged = PulseSequence(t1=seq.t1 * (1 + 1e-11), t2=seq.t2, t3=seq.t3)
        assert not nudged.is_balanced()
        assert max_separation(paper_params, nudged) == pytest.approx(closed, rel=1e-9)


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def t1_sweep_sequence(v):
    """The ``sweep`` workload's t1 sweep of input variant ``v``: 20,000 points around t3/4."""
    t3 = PAPER_CONFIG["t3"]
    t1 = np.linspace(2.495e-5 + 1.1e-9 * v, 2.505e-5 + 1.1e-9 * v, 20000)
    return PulseSequence(t1=t1, t2=3.0 * t3 / 4.0, t3=t3)


#: the older walk arithmetic, through a = f / m, as a drop-in for ``dynamics._relative_segments``
classical_segments = partial(relative_segments_reference, step=classical_step_reference)


def separation_observables(params, seq, monkeypatch, segments=None):
    """(max_separation, separation_time_integral), with ``_relative_segments`` swapped for
    ``segments`` when one is given."""
    with monkeypatch.context() as patched:
        if segments is not None:
            patched.setattr(dynamics, "_relative_segments", segments)
        return max_separation(params, seq), separation_time_integral(params, seq)


def centre_scale(params, seq):
    """The largest |centre| either branch reaches at a segment boundary: the size of the
    numbers whose rounding the separation, their difference, inherits."""
    xs = [abs(np.asarray(x)) for spin in (+1, -1)
          for _, x, _ in classical_trajectory_reference(params, seq, spin)[0]]
    return np.max(np.array(np.broadcast_arrays(*xs)), axis=0)


class TestOneSeparationSource:
    """The separation observables come from _relative_segments, bit for bit the
    arithmetic of the reference route that walks each branch on its own through
    ``evolved_reference``'s step, and within a few ulps of the older classical step."""

    def assert_same_bits(self, params, seq, monkeypatch):
        new = separation_observables(params, seq, monkeypatch)
        old = separation_observables(params, seq, monkeypatch, relative_segments_reference)
        for a, b in zip(new, old):
            np.testing.assert_array_equal(bits(a), bits(b))
        for seg, ref in zip(dynamics._relative_segments(params, seq),
                            relative_segments_reference(params, seq)):
            for a, b in zip(seg, ref):
                np.testing.assert_array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("v", range(8))
    def test_t1_sweep_bit_identical(self, paper_params, v, monkeypatch):
        self.assert_same_bits(paper_params, t1_sweep_sequence(v), monkeypatch)

    @pytest.mark.parametrize("v", range(8))
    def test_t1_sweep_within_ulps_of_the_classical_step(self, paper_params, v, monkeypatch):
        """Measured on the eight variants: at most 3.6e-16 relative on the peak and 1.1e-15
        on the integral, moved on about 3,700 and 11,000 of the 20,000 points."""
        seq = t1_sweep_sequence(v)
        new = separation_observables(paper_params, seq, monkeypatch)
        old = separation_observables(paper_params, seq, monkeypatch, classical_segments)
        for a, b, rel in zip(new, old, (4e-16, 1.5e-15)):
            np.testing.assert_allclose(a, b, rtol=rel, atol=0.0)

    def test_random_scalar_sequences_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(11)
        for params, t3 in random_param_sets(40, seed=13):
            t1, t2 = np.sort(rng.uniform(0.0, t3, 2))
            jitter = tuple(float(j) for j in rng.normal(0.0, 1e-3 * t3, 3))
            seq = PulseSequence(float(t1), float(t2), t3)
            for s in (seq, replace(seq, jitter=jitter)):
                self.assert_same_bits(params, s, monkeypatch)
                # the classical step moves the centres, not the separation, by ulps: at most
                # 2.5 ulps of the largest |centre| was measured
                tol = 4.0 * np.finfo(float).eps * centre_scale(params, s)
                # the separations at 0 and at t1, where each segment starts
                for seg, t in zip(dynamics._relative_segments(params, s), (0.0, s.effective_times()[0])):
                    assert bits(seg[2]) == bits(separation_at_reference(params, s, t, evolved_step_reference))
                    assert abs(seg[2] - separation_at_reference(params, s, t)) <= tol
                peak = separation_observables(params, s, monkeypatch)[0]
                assert abs(peak - separation_observables(params, s, monkeypatch, classical_segments)[0]) <= tol


class TestGravitationalPhase:
    def test_perpendicular_tilt_gives_zero(self, paper_seq):
        phi = gravitational_phase(make_params(theta=math.pi / 2), paper_seq)
        assert abs(phi) < 1e-9     # cos(pi/2) is eps-level in floats

    def test_zero_gradient_gives_zero(self, paper_seq):
        assert gravitational_phase(make_params(b_gradient=0.0), paper_seq) == 0.0

    def test_nominal_value_against_action_oracle(self, paper_params, paper_seq):
        phi = gravitational_phase(paper_params, paper_seq)
        # independent route: m g cos(theta) * integral(dx dt) / hbar with the
        # separation integral from brute-force integration
        integral = numeric_separation_integral(paper_params, paper_seq)
        phi_oracle = paper_params.mass * paper_params.g_earth * integral / HBAR
        assert phi == pytest.approx(phi_oracle, rel=1e-6)
        assert phi == pytest.approx(1.0795e6, rel=1e-3)

    def test_separation_integral_closed_form(self, paper_params, paper_seq):
        # integral of dx over the flight is 4 (A/m) (t3/4)^3
        a = paper_params.spin_coupling() / paper_params.mass
        assert separation_time_integral(paper_params, paper_seq) == pytest.approx(
            4.0 * a * (2.5e-5) ** 3, rel=1e-12)

    def test_three_routes_agree_over_random_sweep(self):
        for params, t3 in random_param_sets(100, seed=17):
            seq = PulseSequence.balanced(t3)
            phi = gravitational_phase(params, seq)
            assert gravitational_phase_action(params, seq) == pytest.approx(phi, rel=1e-9)
            assert gravitational_phase_propagator(params, seq) == pytest.approx(phi, rel=1e-9)

    def test_mass_independence_at_fixed_coupling(self, paper_seq):
        phis = []
        for mass in (1e-18, 1e-17, 1e-16):
            params = make_params(mass=mass, n_nucleons=1e9)
            phis.append((gravitational_phase(params, paper_seq),
                         gravitational_phase_action(params, paper_seq),
                         gravitational_phase_propagator(params, paper_seq)))
        for a, b, c in phis:
            assert b == pytest.approx(phis[0][0], rel=1e-12)
            assert c == pytest.approx(phis[0][0], rel=1e-12)
            assert a == pytest.approx(phis[0][0], rel=1e-12)

    def test_linearity_in_g_costheta_coupling(self, paper_params, paper_seq):
        phi0 = gravitational_phase(paper_params, paper_seq)
        assert gravitational_phase(make_params(g_earth=2 * 9.80665), paper_seq) == pytest.approx(2 * phi0, rel=1e-12)
        assert gravitational_phase(make_params(b_gradient=3e7), paper_seq) == pytest.approx(3 * phi0, rel=1e-12)
        theta = 1.1
        assert gravitational_phase(make_params(theta=theta), paper_seq) == pytest.approx(
            math.cos(theta) * phi0, rel=1e-12)

    def test_cubic_scaling_in_t3(self):
        t3s = np.geomspace(1e-4, 1e-3, 9)
        phis = []
        for t3 in t3s:
            params = make_params(t3=float(t3))
            phis.append(gravitational_phase_action(params, PulseSequence.balanced(float(t3))))
        slope = np.polyfit(np.log(t3s), np.log(phis), 1)[0]
        assert slope == pytest.approx(3.0, abs=1e-6)

    def test_unbalanced_rejected(self, paper_params):
        seq = PulseSequence(t1=2e-5, t2=7.5e-5, t3=1e-4)
        with pytest.raises(ValueError, match="evolve_sequence"):
            gravitational_phase(paper_params, seq)


class TestRamseyProbability:
    @pytest.mark.parametrize("phi,expected", [
        (0.0, 1.0), (math.pi, 0.0), (math.pi / 2, 0.5),
    ])
    def test_values(self, phi, expected):
        assert ramsey_probability(phi) == pytest.approx(expected, abs=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ramsey_probability(float("nan"))


class TestEvolveSequence:
    def test_balanced_branches_coincide(self, paper_params, paper_seq):
        final = evolve_sequence(paper_params, paper_seq, initial_state())
        plus, minus = final.plus_branch, final.minus_branch
        scale_x = max_separation(paper_params, paper_seq)
        assert abs(plus.center - minus.center) <= 1e-12 * scale_x
        assert abs(plus.momentum - minus.momentum) <= 1e-12 * abs(plus.momentum)
        assert final.spread_time == 1e-4

    def test_action_phase_difference_equals_phi_g(self, paper_params, paper_seq):
        """The branch actions accumulate (S+ - S-)/hbar = -phi_g."""
        final = evolve_sequence(paper_params, paper_seq, initial_state())
        diff = final.plus_branch.action_phase - final.minus_branch.action_phase
        assert diff == pytest.approx(-gravitational_phase(paper_params, paper_seq), rel=1e-9)

    def test_action_phase_against_numeric_action_oracle(self, desk):
        params, seq = desk
        final = evolve_sequence(params, seq, initial_state())
        s_plus = numeric_action(params, seq, +1)
        s_minus = numeric_action(params, seq, -1)
        assert final.plus_branch.action_phase == pytest.approx(s_plus / HBAR, rel=1e-6)
        assert final.minus_branch.action_phase == pytest.approx(s_minus / HBAR, rel=1e-6)

    def test_initial_condition_independence(self, desk):
        params, seq = desk
        rng = np.random.default_rng(23)
        phi_ref = gravitational_phase(params, seq)
        s0 = params.sigma0()
        for _ in range(100):
            x0 = float(rng.normal(0.0, 5.0)) * s0
            p0 = float(rng.normal(0.0, 5.0)) * HBAR / s0
            final = evolve_sequence(params, seq, initial_state(x0, p0))
            diff = final.minus_branch.action_phase - final.plus_branch.action_phase
            assert diff == pytest.approx(phi_ref, rel=1e-12)

    def test_intermediate_truncation_exposes_split_state(self, paper_params, paper_seq):
        mid = evolve_branches(paper_params, paper_seq, initial_state(),
                              until=0.5e-4)
        sep = mid.plus_branch.center - mid.minus_branch.center
        assert sep == pytest.approx(max_separation(paper_params, paper_seq), rel=1e-12)
        assert mid.spread_time == 0.5e-4

    def test_first_order_jitter_residuals(self, paper_params):
        """Exact kinematics: dx(t3) = 3 (A/m) t3 dt1 - 2 (A/m) dt1^2, dp = 4 A dt1."""
        delta = 1e-9
        seq = replace(PulseSequence.balanced(1e-4), jitter=(delta, 0.0, 0.0))
        final = evolve_sequence(paper_params, seq, initial_state())
        a = paper_params.spin_coupling() / paper_params.mass
        dx = final.plus_branch.center - final.minus_branch.center
        dp = final.plus_branch.momentum - final.minus_branch.momentum
        assert dx == pytest.approx(3.0 * a * 1e-4 * delta - 2.0 * a * delta**2, rel=1e-9)
        assert dp == pytest.approx(4.0 * paper_params.spin_coupling() * delta, rel=1e-9)

    def test_jitter_residuals_match_verlet_oracle(self, paper_params):
        delta = 5e-7   # large enough for the oracle stepper to resolve
        seq = replace(PulseSequence.balanced(1e-4), jitter=(delta, 0.0, 0.0))
        final = evolve_sequence(paper_params, seq, initial_state())
        tp, xp, vp = integrate_trajectory(paper_params, seq, +1)
        tm, xm, vm = integrate_trajectory(paper_params, seq, -1)
        assert final.plus_branch.center - final.minus_branch.center == pytest.approx(
            xp[-1] - xm[-1], rel=1e-6)
        assert final.plus_branch.momentum - final.minus_branch.momentum == pytest.approx(
            paper_params.mass * (vp[-1] - vm[-1]), rel=1e-6)

    def test_spin_zero_pair_has_no_phase(self, paper_params, paper_seq):
        final = evolve_branches(paper_params, paper_seq, initial_state(),
                                spins=(SpinBranch.ZERO, SpinBranch.ZERO))
        assert final.plus_branch.action_phase == final.minus_branch.action_phase
        assert final.plus_branch.center == final.minus_branch.center


class TestBranchOverlap:
    def test_identical_branches(self, paper_params):
        state = initial_state()
        assert branch_overlap(paper_params, state) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_pure_displacement_inversion_at_half(self, paper_params):
        """At spread_time 0 and dp = 0, |ov| = exp(-dx^2/(8 sigma0^2)); invert 0.5."""
        from nanoramsey.dynamics import CompositeState, GaussianBranchState
        s0 = paper_params.sigma0()
        dx = s0 * math.sqrt(8.0 * math.log(2.0))
        state = CompositeState(GaussianBranchState(dx / 2, 0.0), GaussianBranchState(-dx / 2, 0.0))
        assert abs(branch_overlap(paper_params, state)) == pytest.approx(0.5, rel=1e-12)

    def test_displacement_law_spread_independent(self, paper_params):
        """For dp = 0 the exact modulus keeps sigma0 in the exponent at any spread."""
        from nanoramsey.dynamics import CompositeState, GaussianBranchState
        s0 = paper_params.sigma0()
        dx = 3.0 * s0
        for spread in (0.0, 1e-4, 5e-4):
            state = CompositeState(GaussianBranchState(dx / 2, 0.0), GaussianBranchState(-dx / 2, 0.0), spread)
            assert abs(branch_overlap(paper_params, state)) == pytest.approx(
                math.exp(-dx**2 / (8 * s0**2)), rel=1e-12)

    def test_closure_argument_is_minus_phi_g(self, paper_params, paper_seq):
        final = evolve_sequence(paper_params, paper_seq, initial_state())
        ov = branch_overlap(paper_params, final)
        assert abs(ov) == pytest.approx(1.0, abs=1e-12)
        phi = gravitational_phase(paper_params, paper_seq)
        expected = cmath.exp(-1j * phi)
        # compare on the circle; phi itself is ~1e6 rad
        assert ov.real == pytest.approx(expected.real, abs=1e-6)
        assert ov.imag == pytest.approx(expected.imag, abs=1e-6)


#: Desk sets (a_spin, a_gravity, tau_scaled); their phase a_s a_g tau^3 / 16 stays below 432 rad.
#: A gravity below about 1e-280 would take the SI m g product into subnormal floats.
DESK_SETS = st.tuples(st.floats(0.01, 2.0, exclude_min=True, exclude_max=True),
                      st.one_of(st.just(0.0), st.floats(1e-200, 2.0, exclude_max=True)),
                      st.floats(0.5, 12.0, exclude_min=True, exclude_max=True))


class TestDeskSetProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, st.tuples(st.floats(0.02, 0.49), st.floats(0.51, 0.97)),
           st.tuples(*[st.floats(-0.01, 0.01)] * 3))
    def test_max_separation_matches_the_sampled_separation(self, desk_set, flips, jitter):
        """On open, jittered flights the peak is the largest sampled |x_plus - x_minus| of
        the reference centres, within what 4001 samples a segment can miss at a vertex."""
        params, balanced = desk_scale_params(*desk_set)
        t3 = balanced.t3
        seq = PulseSequence(flips[0] * t3, flips[1] * t3, t3, jitter=tuple(j * t3 for j in jitter))
        _, x_plus, _ = sampled_trajectory(params, seq, +1, 4001)
        _, x_minus, _ = sampled_trajectory(params, seq, -1, 4001)
        sampled = float(np.max(np.abs(x_plus - x_minus)))
        # |x''| of the separation is 2 |A| / m; a sample lies within h / 2 of the vertex
        h = max(seq.segment_durations()) / 4000
        miss = 0.5 * (2.0 * abs(params.spin_coupling()) / params.mass) * (h / 2.0) ** 2
        peak = max_separation(params, seq)
        assert sampled - 1e-12 * sampled <= peak <= sampled + miss + 1e-12 * sampled

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS)
    def test_balanced_flight_closes_on_phi_g(self, desk_set):
        params, seq = desk_scale_params(*desk_set)
        ov = branch_overlap(params, evolve_sequence(params, seq, initial_state()))
        phi = gravitational_phase(params, seq)
        assert abs(abs(ov) - 1.0) <= 1e-12
        # below 1 rad absolutely: at a_gravity = 0, phi is cos(pi/2) ~ 6e-17 times its scale
        assert abs(math.remainder(-cmath.phase(ov) - phi, 2.0 * math.pi)) <= 1e-12 * max(abs(phi), 1.0)
        assert gravitational_phase_action(params, seq) == pytest.approx(phi, rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, st.floats(0.02, 0.49).filter(lambda f: abs(f - 0.25) > 1e-3),
           st.floats(0.51, 0.98).filter(lambda f: abs(f - 0.75) > 1e-3))
    def test_open_flight_overlap_at_most_one(self, desk_set, f1, f2):
        params, balanced = desk_scale_params(*desk_set)
        seq = PulseSequence(t1=f1 * balanced.t3, t2=f2 * balanced.t3, t3=balanced.t3)
        assert abs(branch_overlap(params, evolve_sequence(params, seq, initial_state()))) <= 1.0


def assert_same_state_bits(state, other):
    pairs = [(state.spread_time, other.spread_time)]
    for branch, want in zip((state.plus_branch, state.minus_branch), (other.plus_branch, other.minus_branch)):
        pairs += [(getattr(branch, field), getattr(want, field))
                  for field in ("center", "momentum", "action_phase")]
    for got, expected in pairs:
        assert type(got) is type(expected)
        np.testing.assert_array_equal(bits(got), bits(expected))


class TestBranchWalkerIsEvolveSequence:
    """At its defaults the oracle walker ``evolve_branches`` is ``evolve_sequence`` bit for
    bit, so what the grid certifies of the walker (``TestDeskSpaceOnGrid``) holds for the
    package's route."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS,
           st.one_of(st.just((0.25, 0.75)), st.tuples(st.floats(0.02, 0.49), st.floats(0.51, 0.98))),
           st.tuples(st.floats(-3.0, 3.0), st.floats(-1.5, 1.5)))
    def test_desk_sets(self, desk_set, flips, start):
        params, balanced = desk_scale_params(*desk_set)
        seq = PulseSequence(t1=flips[0] * balanced.t3, t2=flips[1] * balanced.t3, t3=balanced.t3)
        s0 = params.sigma0()
        initial = initial_state(start[0] * s0, start[1] * HBAR / s0)
        assert_same_state_bits(evolve_sequence(params, seq, initial), evolve_branches(params, seq, initial))

    @pytest.mark.parametrize("v", range(8))
    def test_t1_sweep_arrays(self, paper_params, v):
        seq = t1_sweep_sequence(v)
        initial = initial_state()
        assert_same_state_bits(evolve_sequence(paper_params, seq, initial),
                               evolve_branches(paper_params, seq, initial))


class TestPhaseBitsAgainstEvolvedReference:
    """``evolve_sequence``'s end state, and with it phi, is every float64 bit of the loop
    that steps each branch through ``evolved_reference``, the closed form the one walk and
    the action sum took their arithmetic from; the overlap whose phase is printed follows."""

    def assert_same_phase_bits(self, params, seq, initial):
        final = evolve_sequence(params, seq, initial)
        want = evolved_branches_reference(params, seq, initial)
        assert_same_state_bits(final, want)
        for got, expected in zip(*(np.broadcast_arrays(branch_overlap(params, state)) for state in (final, want))):
            np.testing.assert_array_equal(bits(got.real), bits(expected.real))
            np.testing.assert_array_equal(bits(got.imag), bits(expected.imag))

    @pytest.mark.parametrize("v", range(8))
    def test_t1_sweep_arrays(self, paper_params, v):
        self.assert_same_phase_bits(paper_params, t1_sweep_sequence(v), initial_state())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS,
           st.one_of(st.just((0.25, 0.75)), st.tuples(st.floats(0.02, 0.49), st.floats(0.51, 0.97))),
           st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-0.01, 0.01)] * 3)),
           st.tuples(st.floats(-3.0, 3.0), st.floats(-1.5, 1.5)))
    def test_desk_sets_off_centre_and_jittered(self, desk_set, flips, jitter, start):
        params, balanced = desk_scale_params(*desk_set)
        t3 = balanced.t3
        seq = PulseSequence(flips[0] * t3, flips[1] * t3, t3, jitter=tuple(j * t3 for j in jitter))
        s0 = params.sigma0()
        self.assert_same_phase_bits(params, seq, initial_state(start[0] * s0, start[1] * HBAR / s0))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, st.floats(0.02, 0.49), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1.0, 100.0]))
    def test_thermal_array_starts(self, desk_set, f1, seed, n_bar):
        """Array starts (x0, p0), one per thermal sample with the ground state's own spread
        added, on one open sequence."""
        params, balanced = desk_scale_params(*desk_set)
        seq = PulseSequence(f1 * balanced.t3, 0.75 * balanced.t3, balanced.t3)
        re, im = np.random.default_rng(seed).normal(0.0, math.sqrt(n_bar / 2.0 + 0.5), (2, 64))
        s0 = params.sigma0()
        self.assert_same_phase_bits(params, seq, initial_state(2.0 * s0 * re, HBAR / s0 * im))

    def test_thermal_array_starts_at_paper_scale(self, paper_params):
        seq = t1_sweep_sequence(0)
        seq = PulseSequence(seq.t1[:256], seq.t2, seq.t3)
        re, im = np.random.default_rng(7).normal(0.0, math.sqrt(10.0 / 2.0), (2, 256))
        s0 = paper_params.sigma0()
        self.assert_same_phase_bits(paper_params, seq, initial_state(2.0 * s0 * re, HBAR / s0 * im))


#: the array kernels of ``params``, each a libm function over arrays
KERNELS = {"exp", "atan2", "cos", "sin", "sqrt", "power", "modulus"}


class TestFringe:
    """``fringe`` is the one place that picks the balanced closed form or the branch
    overlap, and each of its columns is every bit of the public route it stands for."""

    def test_only_dynamics_picks_the_phase_route(self):
        trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
        imported = [(node.module, alias.name) for node in ast.walk(trees["cli"])
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert sorted(name for module, name in imported if module == "dynamics") == ["PulseSequence", "fringe"]
        assert not {name for module, name in imported if module == "params"} & KERNELS
        naming = {stem for stem, tree in trees.items() if "gravitational_phase" in _references(tree)}
        assert naming <= {"dynamics", "dicke"}

    def test_balanced_is_the_closed_form(self, paper_params, paper_seq):
        phi, p0, separation, vis = fringe(paper_params, paper_seq, True)
        want = gravitational_phase(paper_params, paper_seq)
        assert bits([phi, p0, separation, vis]).tolist() == bits(
            [want, ramsey_probability(want), max_separation(paper_params, paper_seq), 1.0]).tolist()

    @pytest.mark.parametrize("v", [0, 5])
    def test_unbalanced_is_the_overlap(self, paper_params, v):
        seq = t1_sweep_sequence(v)
        ov = branch_overlap(paper_params, evolve_sequence(paper_params, seq, initial_state()))
        want = -atan2(ov.imag, ov.real)
        for got, expected in zip(fringe(paper_params, seq, False),
                                 (want, ramsey_probability(want), max_separation(paper_params, seq),
                                  modulus(ov))):
            np.testing.assert_array_equal(bits(got), bits(expected))


class TestWavepacketWidth:
    def test_initial_width(self, paper_params):
        assert wavepacket_width(paper_params, 0.0) == paper_params.sigma0()

    def test_symmetry_point(self, paper_params):
        # hbar t / (2 m sigma0^2) = 1 at t = 1/omega
        t = 1.0 / paper_params.trap_omega
        assert wavepacket_width(paper_params, t) == pytest.approx(
            paper_params.sigma0() * math.sqrt(2.0), rel=1e-12)

    def test_spread_ratio_at_nominal_flight(self, paper_params):
        ratio = wavepacket_width(paper_params, 1e-4) / paper_params.sigma0()
        assert ratio == pytest.approx(math.sqrt(1.0 + (1e5 * 1e-4) ** 2), rel=1e-12)
        assert ratio == pytest.approx(10.0499, rel=1e-4)


def thermal_flight(params, seq, n_bar, n_samples, seed):
    """(phase spread, first phase, worst visibility) over thermal starts (x0, p0) =
    (2 sigma0 Re beta, (hbar / sigma0) Im beta), beta circular Gaussian with mean
    occupation ``n_bar``. The spread is taken about the first sample: np.std of a
    megaradian array would report its own summation roundoff."""
    re, im = np.random.default_rng(seed).normal(0.0, math.sqrt(n_bar / 2.0), (2, n_samples))
    s0 = params.sigma0()
    start = initial_state(2.0 * s0 * re, HBAR / s0 * im)
    final = evolve_sequence(params, seq, start)
    phases = final.plus_branch.action_phase - final.minus_branch.action_phase
    return np.std(phases - phases[0]), phases[0], np.min(np.abs(branch_overlap(params, final)))


class TestThermalInvariance:
    def test_phase_spread_tiny_at_stated_occupations(self, desk):
        for n_bar, seed in ((0.0, 1), (1.0, 2), (10.0, 3), (100.0, 4)):
            spread, _, visibility = thermal_flight(*desk, n_bar, 200, seed)
            assert spread <= 1e-10 and visibility >= 1.0 - 1e-12

    def test_phase_spread_at_large_occupation_floor(self, desk):
        # huge occupations blow up the per-sample action scale; the spread is
        # then limited by float cancellation of that scale, not by physics
        # (4e10 is the occupation of the 1 rad/s desk trap at 0.3 K)
        params, seq = desk
        spread, _, visibility = thermal_flight(params, seq, 4e10, 200, 4)
        assert spread <= 64.0 * np.finfo(float).eps * 4e10 * params.trap_omega * seq.t3
        assert visibility >= 1.0 - 1e-12

    def test_zero_temperature_single_point(self, desk):
        spread, phase, _ = thermal_flight(*desk, 0.0, 50, 9)
        assert spread == 0.0
        assert phase == pytest.approx(-gravitational_phase(*desk), rel=1e-9)

    def test_paper_scale_spread_at_float_floor(self, paper_params, paper_seq):
        # at phi_g ~ 1e6 rad the two-branch action difference carries an
        # irreducible float64 cancellation noise of order eps * phi_g
        # (1.3e3 is the occupation of the 1e5 rad/s trap at 1 mK)
        spread, _, visibility = thermal_flight(paper_params, paper_seq, 1.3e3, 300, 12)
        assert spread <= 64.0 * np.finfo(float).eps * gravitational_phase(paper_params, paper_seq)
        assert visibility >= 1.0 - 1e-12


class TestJitterScan:
    def test_zero_jitter_full_visibility(self, paper_params, paper_seq):
        seq = replace(paper_seq, jitter=(0.0, 0.0, 0.0))
        final = evolve_sequence(paper_params, seq, initial_state())
        assert abs(branch_overlap(paper_params, final)) == pytest.approx(1.0, abs=1e-12)

    def test_five_ns_jitter_frozen_value(self, paper_params, paper_seq):
        """Exact visibility at dt1 = 5 ns, frozen from the certified overlap law.

        dx = 3 (A/m) t3 d, dp = 4 A d; pulled back to t = 0 the displacement
        is dx - dp t3/m and the overlap follows. Comes out near 0.83, not
        close to 1: a 5 ns flip error is not negligible at these parameters.
        """
        d = 5e-9
        a = paper_params.spin_coupling() / paper_params.mass
        m = paper_params.mass
        s0 = paper_params.sigma0()
        dx = 3.0 * a * 1e-4 * d - 2.0 * a * d * d
        dp = 4.0 * paper_params.spin_coupling() * d
        dx_back = dx - dp * 1e-4 / m
        expected = math.exp(-dx_back**2 / (8 * s0**2) - (s0 * dp / HBAR) ** 2 / 2.0)
        seq = replace(paper_seq, jitter=(d, 0.0, 0.0))
        visibility = abs(branch_overlap(paper_params, evolve_sequence(paper_params, seq,
                                                                      initial_state())))
        assert visibility == pytest.approx(expected, rel=1e-9)
        assert visibility == pytest.approx(0.827, abs=5e-3)

    def test_momentum_closes_for_compensating_jitter(self, paper_params, paper_seq):
        """dp(t3) vanishes when dt3 = -2 dt1 (and only then, for dt2 = 0)."""
        d = 3e-8
        seq = replace(paper_seq, jitter=(d, 0.0, np.array([-2.0 * d, -d, 0.0])))
        final = evolve_sequence(paper_params, seq, initial_state())
        dp = np.abs(final.plus_branch.momentum - final.minus_branch.momentum)
        dp_scale = 4.0 * paper_params.spin_coupling() * d
        assert dp[0] <= 1e-9 * dp_scale
        assert dp[1] > 0.3 * dp_scale
        assert dp[2] == pytest.approx(dp_scale, rel=1e-9)

    def test_visibility_extrema_track_phase_multiples_of_pi(self):
        """P0(theta) sits at an extremum exactly where phi_g(theta) = k pi."""
        t3 = 2.3e-4
        seq = PulseSequence.balanced(t3)
        phi_of = lambda th: gravitational_phase(make_params(t3=t3, theta=th), seq)
        phi_max = phi_of(0.0)
        k_max = int(phi_max / math.pi)
        # well-conditioned inversions (cos(theta) of order one)
        for k in (int(0.3 * k_max), int(0.6 * k_max), int(0.9 * k_max)):
            target = k * math.pi
            theta = math.acos(target / phi_max)
            phi = phi_of(theta)
            assert phi == pytest.approx(target, rel=1e-9)
            p0 = ramsey_probability(phi)
            assert min(abs(p0 - 0.0), abs(p0 - 1.0)) < 1e-9
