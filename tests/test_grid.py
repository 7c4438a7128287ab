import math

import numpy as np
import pytest

from nanoramsey import (
    ClosureError,
    GridBoundaryError,
    GridSpec,
    PulseSequence,
    ScaleError,
    auto_grid,
    branch_overlap,
    build_params,
    desk_scale_params,
    evolve_branch_on_grid,
    evolve_sequence,
    gaussian_packet,
    gravitational_phase,
    initial_state,
    oracle_compare,
    oracle_phase,
    scale_params,
    sector_action_phases,
    snapshot_frames,
    split_step_evolve,
    wavepacket_width,
)
from conftest import PAPER_CONFIG


def small_spec(**overrides):
    kw = dict(n_points=2048, x_min=-40.0, x_max=40.0, steps_per_segment=800)
    kw.update(overrides)
    return GridSpec(**kw)


class TestScaledUnits:
    def test_round_trip_random_params(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            params, seq = desk_scale_params(
                a_spin=float(rng.uniform(0.1, 1.0)),
                a_gravity=float(rng.uniform(0.05, 0.5)),
                tau_scaled=float(rng.uniform(3.0, 9.0)),
                omega=float(10 ** rng.uniform(-1, 5)),
                mass=float(10 ** rng.uniform(-25, -18)),
            )
            scaled = scale_params(params, seq)
            for x in (0.0, 1.3e-7, -2.2e-9):
                assert scaled.length_to_si(scaled.length_from_si(x)) == pytest.approx(x, rel=1e-12, abs=1e-300)
            for t in (1e-6, 3.3e-4):
                assert scaled.time_to_si(scaled.time_from_si(t)) == pytest.approx(t, rel=1e-12)
            a_si = 9.81
            assert scaled.acceleration_to_si(scaled.acceleration_from_si(a_si)) == pytest.approx(a_si, rel=1e-12)

    def test_scaled_phase_equals_si_phase(self):
        # the dimensionless problem carries the same interferometric phase
        rng = np.random.default_rng(37)
        for _ in range(20):
            params, seq = desk_scale_params(
                a_spin=float(rng.uniform(0.1, 1.0)),
                a_gravity=float(rng.uniform(0.05, 0.5)),
                tau_scaled=float(rng.uniform(3.0, 9.0)),
                omega=float(10 ** rng.uniform(0, 4)),
            )
            scaled = scale_params(params, seq)
            phi_scaled = scaled.a_spin * scaled.a_gravity * scaled.total_time**3 / 16.0
            assert phi_scaled == pytest.approx(gravitational_phase(params, seq), rel=1e-12)

    def test_segment_times_scale(self, paper_params, paper_seq):
        scaled = scale_params(paper_params, paper_seq)
        assert scaled.time_unit == pytest.approx(1.0 / (2.0 * paper_params.trap_omega), rel=1e-12)
        assert scaled.seg_times[0] == pytest.approx(2.0 * paper_params.trap_omega * 2.5e-5, rel=1e-12)

    def test_megaradian_phase_refused(self, paper_params, paper_seq):
        with pytest.raises(ScaleError, match="desk scale"):
            scale_params(paper_params, paper_seq)

    def test_zero_spin_force_allowed(self):
        params, seq = desk_scale_params(a_spin=0.0, a_gravity=0.2)
        scaled = scale_params(params, seq)
        assert scaled.a_spin == pytest.approx(0.0, abs=1e-15)


class TestGridSpecValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            small_spec(n_points=1000)
        with pytest.raises(ValueError):
            small_spec(n_points=128)

    def test_domain_and_dt(self):
        with pytest.raises(ValueError):
            small_spec(x_min=1.0, x_max=-1.0)


class TestSplitStep:
    def test_free_spreading_width_law(self):
        spec = small_spec()
        psi = gaussian_packet(spec)
        t = 4.0
        out = split_step_evolve(psi, force=0.0, duration=t, spec=spec)
        _, _, width = out.moments()
        assert width == pytest.approx(math.sqrt(1.0 + (t / 2.0) ** 2), rel=1e-9)

    def test_constant_force_ehrenfest(self):
        spec = small_spec()
        psi = gaussian_packet(spec)
        a, t = 0.8, 3.0
        out = split_step_evolve(psi, force=a, duration=t, spec=spec)
        xb, pb, _ = out.moments()
        assert xb == pytest.approx(0.5 * a * t * t, rel=1e-6)
        assert pb == pytest.approx(a * t, rel=1e-6)

    def test_norm_conserved(self):
        spec = small_spec()
        out = split_step_evolve(gaussian_packet(spec), force=0.5, duration=5.0, spec=spec)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_second_order_phase_convergence(self):
        """Phase error against the exact evolved Gaussian scales as dt^2."""
        force, duration = 0.7, 2.0
        x = None
        errors = []
        steps_list = (40, 80, 160, 320)
        for steps in steps_list:
            spec = small_spec(steps_per_segment=steps)
            psi = split_step_evolve(gaussian_packet(spec), force, duration, spec)
            x = psi.x
            # exact evolved state: classical center/momentum/action, free-spread width
            xc = 0.5 * force * duration**2
            pc = force * duration
            action = force**2 * duration**3 / 3.0  # closed form for x0 = p0 = 0
            w = 1.0 + 0.5j * duration
            chi = (2 * math.pi) ** (-0.25) * w ** (-0.5) * np.exp(
                -((x - xc) ** 2) / (4.0 * w) + 1j * (action + pc * (x - xc)))
            ov = np.sum(np.conj(chi) * psi.amplitudes) * psi.dx
            errors.append(abs(np.angle(ov)))
        slope = np.polyfit(np.log(steps_list), np.log(errors), 1)[0]
        assert -slope == pytest.approx(2.0, abs=0.1)
        # the splitting bias for a linear potential is a pure phase: exact c-number
        predicted = (duration / steps_list[0]) ** 2 * force**2 * duration / 12.0
        assert errors[0] == pytest.approx(predicted, rel=1e-3)

    def test_boundary_contact_detected(self):
        spec = small_spec(x_min=-6.0, x_max=6.0)
        with pytest.raises(GridBoundaryError, match="enlarge"):
            split_step_evolve(gaussian_packet(spec), force=2.0, duration=4.0, spec=spec)


class TestOraclePhase:
    def test_no_gravity_gives_zero_phase(self):
        params, seq = desk_scale_params(a_spin=0.6, a_gravity=0.0)
        assert abs(oracle_phase(params, seq)) < 5e-4

    def test_desk_scale_phase_matches_analytic(self):
        for a_spin, a_grav, tau in ((0.5, 0.2, 6.0), (0.7, 0.25, 6.5)):
            params, seq = desk_scale_params(a_spin=a_spin, a_gravity=a_grav, tau_scaled=tau)
            phi = gravitational_phase(params, seq)
            assert oracle_phase(params, seq) == pytest.approx(phi, abs=1e-3)

    def test_balanced_overlap_high(self, desk):
        params, seq = desk
        report = oracle_compare(params, seq)
        assert report.overlap_grid >= 0.9999

    def test_closure_error_for_broken_balanced_run(self):
        # huge jitter breaks recombination; is_balanced is False then, so force
        # the check by calling with a sequence that claims balance via t1/t2
        params, seq = desk_scale_params()
        bad = PulseSequence(t1=seq.t3 / 4.0 * 0.8, t2=seq.t2, t3=seq.t3)
        # not balanced -> no closure exception expected, phase returned raw
        phase = oracle_phase(params, bad)
        assert math.isfinite(phase)

    def test_megaradian_refused(self, paper_params, paper_seq):
        with pytest.raises(ScaleError):
            oracle_phase(paper_params, paper_seq)


class TestOracleCompare:
    def test_nominal_certification(self, desk):
        params, seq = desk
        report = oracle_compare(params, seq)
        assert report.phase_error <= 1e-3
        assert report.center_error <= 1e-6
        assert report.width_error <= 1e-4
        assert report.overlap_deficit <= 1e-4
        assert report.norm_drift <= 1e-9
        assert report.passed

    def test_unbalanced_overlap_matches_analytic(self):
        """Two independent computations of the same overlap agree to 1e-3."""
        params, seq0 = desk_scale_params()
        seq = seq0.with_jitter(0.02 * seq0.t3, 0.0, 0.0)
        report = oracle_compare(params, seq)
        assert not seq.is_balanced()
        assert report.overlap_grid < 0.999           # genuinely open interferometer
        assert report.overlap_deficit <= 1e-3
        assert report.phase_error <= 1e-3

    def test_zero_force_machine_level(self):
        params, seq = desk_scale_params(a_spin=0.0, a_gravity=0.0)
        report = oracle_compare(params, seq)
        assert report.phase_error < 1e-9
        assert report.center_error < 1e-9
        assert report.overlap_deficit < 1e-9

    def test_width_law_discriminates_printed_variant(self, desk):
        """The grid certifies sigma0*sqrt(1+(omega t)^2) and rejects the
        variant with the (1 + (omega t)^2/16) denominator."""
        params, seq = desk
        scaled = scale_params(params, seq)
        spec = auto_grid(scaled)
        psi = evolve_branch_on_grid(scaled, spec, +1)
        _, _, width_grid = psi.moments()
        width_std = wavepacket_width(params, seq.t3) / scaled.length_unit
        omega_t = params.trap_omega * seq.t3
        width_alt = (math.sqrt(1.0 + omega_t**2 / 16.0)
                     * math.sqrt(2.0))   # rms width implied by the printed form
        assert width_grid == pytest.approx(width_std, rel=1e-4)
        assert abs(width_grid - width_alt) / width_alt > 0.1

    def test_report_lines_render(self, desk):
        params, seq = desk
        report = oracle_compare(params, seq)
        text = "\n".join(report.lines())
        assert "phase" in text and "pass" in text


class TestSectorPhasesOnGrid:
    def test_quadratic_sector_phase_certified(self):
        """Grid-certify the one-axis-twisting term: sectors M = 0 and M = 2."""
        params, seq = desk_scale_params(a_spin=0.35, a_gravity=0.15, tau_scaled=6.0)
        scaled = scale_params(params, seq)
        spec = auto_grid(scaled, spin_values=(2, -2, 1, -1))
        psi2 = evolve_branch_on_grid(scaled, spec, +2)
        psi0 = evolve_branch_on_grid(scaled, spec, 0)
        ov = np.sum(np.conj(psi0.amplitudes) * psi2.amplitudes) * psi2.dx
        assert abs(ov) > 0.9999       # every sector recombines
        phases = dict(sector_action_phases(params, seq, 2))
        expected = phases[2] - phases[0]
        wrapped = (expected + math.pi) % (2 * math.pi) - math.pi
        assert np.angle(ov) == pytest.approx(wrapped, abs=1e-3)


class TestSnapshots:
    def test_frames_normalized_and_split(self):
        # exaggerated splitting so the mid-flight frame shows two clear peaks
        params, seq = desk_scale_params(a_spin=2.0, a_gravity=0.05, tau_scaled=8.0)
        frames = snapshot_frames(params, seq, [0.0, 0.5, 1.0])
        from nanoramsey import max_separation
        sep_expected = max_separation(params, seq)
        for t, x, prob_p, prob_m in frames:
            dx = x[1] - x[0]
            assert np.sum(prob_p) * dx == pytest.approx(1.0, abs=1e-9)
            assert np.sum(prob_m) * dx == pytest.approx(1.0, abs=1e-9)
        _, x, prob_p, prob_m = frames[1]
        peak_p = x[np.argmax(prob_p)]
        peak_m = x[np.argmax(prob_m)]
        assert abs(peak_p - peak_m) == pytest.approx(sep_expected, rel=0.05)

    def test_fraction_out_of_range(self, desk):
        params, seq = desk
        with pytest.raises(ValueError, match="fraction"):
            snapshot_frames(params, seq, [1.5])
