import math
import re
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nanoramsey import cli, grid
from nanoramsey.constants import HBAR
from nanoramsey.dynamics import (
    PulseSequence,
    _spin_history,
    branch_overlap,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    wavepacket_width,
)
from nanoramsey.grid import (
    CERTIFY_DESK,
    DOMAIN_SIGMAS,
    GUARD_SIGMAS,
    MAX_POINTS,
    MIN_POINTS,
    ClosureError,
    GridBoundaryError,
    GridSpec,
    ScaleError,
    auto_grid,
    desk_scale_params,
    evolve_branch_on_grid,
    gaussian_packet,
    oracle_compare,
    oracle_phase,
    scale_params,
    snapshot_frames,
    snapshot_grid,
    split_step_evolve,
    splitting_phase,
)
from nanoramsey.params import build_params
from conftest import PAPER_CONFIG
from oracles import (classical_walk_reference, evolve_branches, flight_reference, reference_branch,
                     sampled_trajectory, sector_action_phases)
from test_dynamics import DESK_SETS


#: perfbench/configs/snapshot.cfg: the paper object at desk scale by tilt and gradient
SNAPSHOT_CONFIG = dict(PAPER_CONFIG, b_gradient=1.0e5, theta=1.5667963267948966, t3=3.0e-5)


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
            # length unit sigma0 = sqrt(hbar / (2 m omega)), time unit 1 / (2 omega)
            sigma0 = math.sqrt(HBAR / (2.0 * params.mass * params.trap_omega))
            assert scaled.length_unit == pytest.approx(sigma0, rel=1e-12)
            assert scaled.time_unit == pytest.approx(0.5 / params.trap_omega, rel=1e-12)

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

    def test_segment_times_scale(self, paper_params):
        # the paper's t3 = 1e-4 s is refused (test_megaradian_phase_refused); phase ~ t3^3, so 1e-5 s gives ~1e3
        scaled = scale_params(paper_params, PulseSequence.balanced(1.0e-5))
        assert scaled.time_unit == pytest.approx(1.0 / (2.0 * paper_params.trap_omega), rel=1e-12)
        assert scaled.seg_times[0] == pytest.approx(2.0 * paper_params.trap_omega * 2.5e-6, rel=1e-12)

    def test_megaradian_phase_refused(self, paper_params, paper_seq):
        with pytest.raises(ScaleError, match="desk scale"):
            scale_params(paper_params, paper_seq)

    def test_zero_spin_force_allowed(self):
        params, seq = desk_scale_params(a_spin=0.0, a_gravity=0.2)
        scaled = scale_params(params, seq)
        assert scaled.a_spin == pytest.approx(0.0, abs=1e-15)

    def test_underflowing_gravity_refused(self):
        """A positive a_gravity whose g_earth or m g_earth is no normal float is refused by
        name; a_gravity = 0 still means the perpendicular tilt."""
        accel_unit = desk_scale_params(a_gravity=1.0)[0].g_earth               # ~2.9e-5
        limit = np.finfo(float).smallest_normal / (1.0e-24 * accel_unit)       # ~7.6e-280
        for a_gravity in (1e-320, 0.99 * limit):
            with pytest.raises(ValueError, match="a_gravity"):
                desk_scale_params(a_gravity=a_gravity)
        params, _ = desk_scale_params(a_gravity=1.01 * limit)
        assert params.mass * params.g_earth >= np.finfo(float).smallest_normal
        assert desk_scale_params(a_gravity=0.0)[0].theta == math.pi / 2.0


class TestGridSpecValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            small_spec(n_points=1000)
        with pytest.raises(ValueError):
            small_spec(n_points=128)

    def test_domain_and_dt(self):
        with pytest.raises(ValueError):
            small_spec(x_min=1.0, x_max=-1.0)
        with pytest.raises(ValueError, match="steps_per_segment must be >= 1"):
            small_spec(steps_per_segment=0)


class TestSplitStep:
    def test_free_spreading_width_law(self):
        spec = small_spec()
        psi = gaussian_packet(spec)
        t = 4.0
        out = split_step_evolve(psi, force=0.0, duration=t, spec=spec)
        _, _, width, _, _ = spec.moments(out)
        assert width == pytest.approx(math.sqrt(1.0 + (t / 2.0) ** 2), rel=1e-9)

    def test_constant_force_ehrenfest(self):
        spec = small_spec()
        psi = gaussian_packet(spec)
        a, t = 0.8, 3.0
        out = split_step_evolve(psi, force=a, duration=t, spec=spec)
        xb, pb, _, _, _ = spec.moments(out)
        assert xb == pytest.approx(0.5 * a * t * t, rel=1e-6)
        assert pb == pytest.approx(a * t, rel=1e-6)

    def test_norm_conserved(self):
        spec = small_spec()
        out = split_step_evolve(gaussian_packet(spec), force=0.5, duration=5.0, spec=spec)
        assert abs(spec.moments(out)[4] - 1.0) < 1e-12

    def test_second_order_phase_convergence(self):
        """Phase error against the exact evolved Gaussian scales as dt^2."""
        force, duration = 0.7, 2.0
        errors = []
        steps_list = (40, 80, 160, 320)
        for steps in steps_list:
            spec = small_spec(steps_per_segment=steps)
            psi = split_step_evolve(gaussian_packet(spec), force, duration, spec)
            x = spec.x
            # exact evolved state: classical center/momentum/action, free-spread width
            xc = 0.5 * force * duration**2
            pc = force * duration
            action = force**2 * duration**3 / 3.0  # closed form for x0 = p0 = 0
            w = 1.0 + 0.5j * duration
            chi = (2 * math.pi) ** (-0.25) * w ** (-0.5) * np.exp(
                -((x - xc) ** 2) / (4.0 * w) + 1j * (action + pc * (x - xc)))
            ov = np.sum(np.conj(chi) * psi) * spec.dx
            errors.append(abs(np.angle(ov)))
        slope = np.polyfit(np.log(steps_list), np.log(errors), 1)[0]
        assert -slope == pytest.approx(2.0, abs=0.1)
        # the splitting bias for a linear potential is a pure phase: exact c-number
        predicted = (duration / steps_list[0]) ** 2 * force**2 * duration / 12.0
        assert errors[0] == pytest.approx(predicted, rel=1e-3)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan])
    def test_duration_not_positive_refused(self, duration):
        spec = small_spec()
        with pytest.raises(ValueError, match=re.escape(f"duration must be > 0, got {duration!r}")):
            split_step_evolve(gaussian_packet(spec), force=0.5, duration=duration, spec=spec)

    def test_unnormalized_row_refused_before_any_fft(self, monkeypatch):
        """One row of a pair 1e-8 off in norm is refused as it enters, before any FFT; a row
        normalized to rounding passes."""
        spec = small_spec()
        pair = np.tile(gaussian_packet(spec), (2, 1))
        pair[1] *= math.sqrt(1.0 + 1e-8)

        def no_fft(*args, **kwargs):
            raise AssertionError("an FFT ran on an unnormalized state")

        with monkeypatch.context() as patched:
            patched.setattr(np.fft, "fft", no_fft)
            patched.setattr(np.fft, "ifft", no_fft)
            with pytest.raises(ValueError, match=re.escape("wavefunction must be normalized, got norm [")):
                split_step_evolve(pair, force=(0.5, -0.5), duration=1.0, spec=spec)
        pair[1] = gaussian_packet(spec) * (1.0 + 2.0 ** -52)
        out = split_step_evolve(pair, force=(0.5, -0.5), duration=1.0, spec=spec)
        assert np.all(np.abs(spec.moments(out)[4] - 1.0) < 1e-12)

    def test_boundary_contact_detected(self):
        spec = small_spec(x_min=-6.0, x_max=6.0)
        with pytest.raises(GridBoundaryError, match="enlarge"):
            split_step_evolve(gaussian_packet(spec), force=2.0, duration=4.0, spec=spec)

    @pytest.mark.parametrize("spins", [(1, -1), (2, -2, 1, -1, 0)])
    def test_batched_fused_kernel_matches_reference(self, spins):
        """Rows of one fused run equal the unfused one-branch reference loop."""
        params, seq = desk_scale_params(a_spin=0.35, a_gravity=0.15, tau_scaled=6.0)
        scaled = scale_params(params, seq)
        spec = auto_grid(scaled, steps_per_segment=300, spin_values=spins)
        rows = evolve_branch_on_grid(scaled, spec, spins)
        ref = np.array([reference_branch(scaled, spec, s) for s in spins])
        assert np.max(np.abs(rows - ref)) < 1e-12
        # overlap of every row with the last: phases agree as well as moduli
        ov_rows = np.angle(np.sum(np.conj(rows[-1]) * rows, axis=-1))
        ov_ref = np.angle(np.sum(np.conj(ref[-1]) * ref, axis=-1))
        assert np.max(np.abs(ov_rows - ov_ref)) < 1e-12

    def test_horizons_must_ascend(self, desk):
        scaled = scale_params(*desk)
        with pytest.raises(ValueError, match="ascend"):
            evolve_branch_on_grid(scaled, auto_grid(scaled), (1, -1), until=[2.0, 1.0])


class TestMarginThresholds:
    """``_check_margin`` on each of its four edges alone, just inside (passes) and just
    outside (raises), with the edge placed from the packet's own moments: a packet of
    width 1 and momentum width 1/2, offset toward the edge under test. The moments that
    place the edge come from the packet on a first grid; on the placed grid they move by
    rounding only, which is checked to stay far below the gap."""

    GAP = 1e-6

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_x_edge(self, side, inside):
        def support(spec):
            xb, _, width, _, _ = spec.moments(gaussian_packet(spec, center=10.0 * side))
            return float(xb + side * GUARD_SIGMAS * width)

        gap = side * (self.GAP if inside else -self.GAP)
        edge = support(small_spec(n_points=1024)) + gap
        far = -40.0 * side
        spec = small_spec(n_points=1024, x_min=min(edge, far), x_max=max(edge, far))
        assert abs(support(spec) + gap - edge) < 1e-3 * self.GAP
        psi = gaussian_packet(spec, center=10.0 * side)
        if inside:
            grid._check_margin(psi, spec)
        else:
            with pytest.raises(GridBoundaryError, match="sigma of the grid edge"):
                grid._check_margin(psi, spec)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_p_edge(self, side, inside):
        def support(spec):
            _, pb, _, pwidth, _ = spec.moments(gaussian_packet(spec, momentum=5.0 * side))
            return abs(float(pb + side * GUARD_SIGMAS * pwidth))

        gap = self.GAP if inside else -self.GAP
        k_edge = support(small_spec(n_points=1024, x_min=-44.0, x_max=44.0)) + gap
        half = 0.5 * math.pi * 256 / k_edge       # pi / dx = k_edge
        spec = small_spec(n_points=256, x_min=-half, x_max=half)
        assert abs(support(spec) + gap - k_edge) < 1e-3 * self.GAP
        psi = gaussian_packet(spec, momentum=5.0 * side)
        if inside:
            grid._check_margin(psi, spec)
        else:
            with pytest.raises(GridBoundaryError, match="FFT edge"):
                grid._check_margin(psi, spec)


class TestEachStateGuardedOnce:
    """:func:`split_step_evolve` checks only its input; :func:`evolve_branch_on_grid`
    checks the state it ends on, so every state it returns has passed a guard, and each
    state the grid makes is measured once."""

    EDGE = ("packet within 8.0 sigma of the grid edge (support [-28.00, 22.60] vs domain "
            "[-25.00, 34.43]); enlarge the domain to at least half-width 31.22 beyond the current edges")

    def test_last_segment_edge_refused(self):
        """The pair enters the last segment inside the domain and leaves it past x_min: only
        the check of the final state can refuse it, with the message the segment's own exit
        check gave."""
        params, seq = desk_scale_params()
        scaled = scale_params(params, seq)
        spec = replace(auto_grid(scaled), x_min=-25.0)
        entry = evolve_branch_on_grid(scaled, spec, (+1, -1), until=sum(scaled.seg_times[:2]))
        xb, _, width, _, _ = spec.moments(entry)
        assert spec.x_min < float(np.min(xb - GUARD_SIGMAS * width)) < -21.8
        with pytest.raises(GridBoundaryError, match=re.escape(self.EDGE)):
            evolve_branch_on_grid(scaled, spec, (+1, -1))
        with pytest.raises(GridBoundaryError, match=re.escape(self.EDGE)):
            oracle_compare(params, seq, spec)

    def test_state_at_horizon_zero_guarded(self, desk):
        """A start packet that no segment takes as input is still checked."""
        scaled = scale_params(*desk)
        spec = auto_grid(scaled)
        with pytest.raises(GridBoundaryError, match="sigma of the grid edge"):
            evolve_branch_on_grid(scaled, spec, (+1, -1), center=spec.x_max - 4.0, until=0.0)

    def test_empty_horizon_list_refused(self, desk):
        params, seq = desk
        scaled = scale_params(params, seq)
        with pytest.raises(ValueError, match=re.escape("until must name at least one horizon, got []")):
            evolve_branch_on_grid(scaled, auto_grid(scaled), (+1, -1), until=[])
        with pytest.raises(ValueError, match=re.escape("until must name at least one horizon, got []")):
            snapshot_frames(params, seq, [], snapshot_grid(params, seq))

    def test_moments_calls(self, desk, monkeypatch, capsys):
        """Per flight, one entry check per segment piece and one on the final pair, plus
        ``oracle_compare``'s own reading of the final pair: 3 + 1 + 1 per certify set."""
        calls = []
        moments = GridSpec.moments

        def counted(self, psi):
            calls.append(psi.shape)
            return moments(self, psi)

        monkeypatch.setattr(GridSpec, "moments", counted)
        assert cli.main(["certify"]) == 0
        capsys.readouterr()
        assert len(calls) == 3 * 5
        calls.clear()
        oracle_compare(*desk)
        assert len(calls) == 5
        calls.clear()
        snapshot_frames(*desk, [0.25, 0.5, 0.75, 1.0], snapshot_grid(*desk))
        assert len(calls) == 5


class TestAutoGridMomentum:
    # phi ~ 972 rad, under both thresholds; the minus branch peaks at |p| = 36
    FAST = dict(a_spin=3.0, a_gravity=3.0, tau_scaled=12.0)

    def test_points_follow_peak_momentum(self):
        params, seq = desk_scale_params(**self.FAST)
        spec = auto_grid(scale_params(params, seq))
        assert spec.n_points == 8192
        assert math.pi / spec.dx > 36.0 + 5.0
        report = oracle_compare(params, seq)
        assert report.passed
        assert report.phase_error <= 1e-3

    def test_aliasing_grid_refused_with_n_points_advice(self):
        params, seq = desk_scale_params(**self.FAST)
        scaled = scale_params(params, seq)
        spec = auto_grid(scaled)
        coarse = GridSpec(2048, spec.x_min, spec.x_max, spec.steps_per_segment)
        with pytest.raises(GridBoundaryError, match="FFT edge.*raise n_points") as excinfo:
            oracle_compare(params, seq, coarse)
        # the advice covers the whole flight, so following it passes
        advised = int(re.search(r"at least (\d+)", str(excinfo.value)).group(1))
        report = oracle_compare(params, seq, replace(coarse, n_points=advised))
        assert report.passed

    @pytest.mark.parametrize("g_earth", [9.80665, 1.0e200, 1.0e308])
    def test_gravity_only_flight_refused_before_any_array(self, g_earth, monkeypatch):
        """Without a gradient the phase is 0 and scale_params passes, but gravity alone
        drives the momentum: the paper object needs about 2e6 points at 1 g. At 1e308 the
        scaled gravity overflows and the phase scale 0 * inf = NaN, which scale_params
        refuses first."""
        params = build_params(dict(PAPER_CONFIG, b_gradient=0.0, g_earth=g_earth))
        monkeypatch.setattr(grid, "GridSpec", None)      # no grid may be built
        match = ("dimensionless phase ~nan" if g_earth == 1.0e308
                 else f"more than {MAX_POINTS}; .*desk scale")
        with pytest.raises(ScaleError, match=match):
            auto_grid(scale_params(params, PulseSequence.balanced(PAPER_CONFIG["t3"])))

    @pytest.mark.parametrize("desk_set", list(CERTIFY_DESK.values()))
    def test_certify_desk_at_criterion_points_matches_2048(self, desk_set):
        """The momentum criterion alone sets n_points; the report matches a 2048-point run."""
        params, seq = desk_scale_params(*desk_set)
        spec = auto_grid(scale_params(params, seq))
        assert spec.n_points == 256
        small = oracle_compare(params, seq)
        large = oracle_compare(params, seq, replace(spec, n_points=2048))
        assert small.phase_grid == pytest.approx(large.phase_grid, abs=1e-12)
        for field in ("phase_error", "phase_residual", "center_error", "width_error",
                      "overlap_grid", "overlap_deficit", "norm_drift"):
            assert getattr(small, field) == pytest.approx(getattr(large, field), abs=1e-10)


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

    def test_unbalanced_run_returns_the_raw_grid_phase(self):
        """An open flight needs no closure and keeps -arg of its grid overlap, unwrapped."""
        params, seq = desk_scale_params()
        bad = PulseSequence(t1=seq.t3 / 4.0 * 0.8, t2=seq.t2, t3=seq.t3)
        report = oracle_compare(params, bad)
        assert not report.balanced and report.closure_ok
        scaled = scale_params(params, bad)
        spec = auto_grid(scaled)
        pair = evolve_branch_on_grid(scaled, spec, (+1, -1))
        ov = complex(np.sum(np.conj(pair[1]) * pair[0]) * spec.dx)
        assert report.phase_grid == oracle_phase(params, bad) == -math.atan2(ov.imag, ov.real)

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
        seq = replace(seq0, jitter=(0.02 * seq0.t3, 0.0, 0.0))
        report = oracle_compare(params, seq)
        assert not seq.is_balanced()
        assert report.overlap_grid < 0.999           # genuinely open interferometer
        assert report.overlap_deficit <= 1e-3
        assert report.phase_error <= 1e-3

    def test_nan_phase_scale_refused(self):
        """No gradient and a gravity whose scaled value overflows: the phase scale is
        0 * inf = NaN, which scale_params refuses before a caller's grid is ever sized."""
        params = build_params(dict(PAPER_CONFIG, b_gradient=0.0, g_earth=1.0e308))
        seq = PulseSequence.balanced(PAPER_CONFIG["t3"])
        with pytest.raises(ScaleError, match="dimensionless phase ~nan"):
            oracle_compare(params, seq, GridSpec(256, -50.0, 50.0, 10))

    def test_closure_ok_reads_closure_min(self, desk):
        report = oracle_compare(*desk)
        assert report.balanced and report.closure_ok
        assert not replace(report, overlap_grid=grid.CLOSURE_MIN - 1e-6).closure_ok
        assert replace(report, overlap_grid=0.5, balanced=False).closure_ok

    def test_oracle_phase_band_refused_before_grid_work(self, monkeypatch):
        # phi ~ 2000 rad: under MAX_SCALED_PHASE, over MAX_ORACLE_PHASE
        calls = []
        monkeypatch.setattr(grid, "evolve_branch_on_grid", lambda *args, **kwargs: calls.append(args))
        params, seq = desk_scale_params(a_spin=10.0, a_gravity=10.0, tau_scaled=6.84)
        with pytest.raises(ScaleError, match="desk scale"):
            oracle_compare(params, seq)
        assert calls == []

    def test_pair_that_fails_to_recombine_refused(self, desk, monkeypatch):
        def broken(*args, **kwargs):
            pair = evolve_branch_on_grid(*args, **kwargs).copy()
            pair[1] = np.roll(pair[1], pair.shape[-1] // 4)
            return pair

        monkeypatch.setattr(grid, "evolve_branch_on_grid", broken)
        with pytest.raises(ClosureError, match="failed to recombine"):
            oracle_compare(*desk)

    @pytest.mark.parametrize("until", [12.0, math.nan, -1.0], ids=["2t3", "nan", "negative"])
    def test_horizon_outside_the_flight_refused(self, desk, until):
        """``evolve_branches(until=...)``, the closed form the grid is held to, refuses these too."""
        params, seq = desk
        scaled = scale_params(params, seq)
        assert scaled.total_time == 6.0
        with pytest.raises(ValueError, match="until must lie"):
            evolve_branches(params, seq, initial_state(), until=until * scaled.time_unit)
        with pytest.raises(ValueError, match=re.escape(f"horizon {until!r} outside the flight [0, 6.0]")):
            evolve_branch_on_grid(scaled, auto_grid(scaled), (+1, -1), until=[1.0, until])

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
        _, _, width_grid, _, _ = spec.moments(psi)
        width_std = wavepacket_width(params, seq.t3) / scaled.length_unit
        omega_t = params.trap_omega * seq.t3
        width_alt = (math.sqrt(1.0 + omega_t**2 / 16.0)
                     * math.sqrt(2.0))   # rms width implied by the printed form
        assert width_grid == pytest.approx(width_std, rel=1e-4)
        assert abs(width_grid - width_alt) / width_alt > 0.1

    def test_phase_grid_is_oracle_phase(self, desk):
        params, seq = desk
        phase = oracle_phase(params, seq)
        assert oracle_compare(params, seq).phase_grid == pytest.approx(phase, abs=1e-12)

    def test_report_lines_render(self, desk):
        params, seq = desk
        report = oracle_compare(params, seq)
        text = "\n".join(report.lines())
        assert "phase" in text and "pass" in text


class TestLockstep:
    """Certify's sets run in turn, one ``oracle_compare`` each, and each keeps its own guards."""

    def test_phase_band_refused_before_grid_work(self, monkeypatch):
        """A band set after the three desk sets is refused without a grid call of its own."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return evolve_branch_on_grid(*args, **kwargs)

        monkeypatch.setattr(grid, "evolve_branch_on_grid", counting)
        desk_sets = [desk_scale_params(*desk_set) for desk_set in CERTIFY_DESK.values()]
        assert all(oracle_compare(params, seq).passed for params, seq in desk_sets)
        assert len(calls) == len(desk_sets)
        band = desk_scale_params(a_spin=10.0, a_gravity=10.0, tau_scaled=6.84)   # phi ~ 2000 rad
        with pytest.raises(ScaleError, match="desk scale"):
            oracle_compare(*band)
        assert len(calls) == len(desk_sets)


class TestSplittingPhase:
    """Grid phase = closed form + splitting_phase, to rounding: the splitting error of a
    linear potential is a known c-number, so it is no tolerance but a prediction."""

    @pytest.mark.parametrize("steps", [300, 1200])
    @pytest.mark.parametrize("desk_set", [*CERTIFY_DESK.values(), (1.0, 0.5, 8.0)])
    def test_balanced_residual(self, desk_set, steps):
        params, seq = desk_scale_params(*desk_set)
        report = oracle_compare(params, seq, auto_grid(scale_params(params, seq),
                                                       steps_per_segment=steps))
        assert abs(report.phase_residual) <= 1e-10
        assert report.center_error <= 1e-10
        assert report.width_error <= 1e-10
        assert report.overlap_deficit <= 1e-10

    @pytest.mark.parametrize("steps", [300, 1200])
    def test_unbalanced_residual_against_branch_overlap(self, steps):
        params, seq0 = desk_scale_params()
        seq = replace(seq0, jitter=(0.02 * seq0.t3, 0.0, 0.0))
        report = oracle_compare(params, seq, auto_grid(scale_params(params, seq),
                                                       steps_per_segment=steps))
        ov = branch_overlap(params, evolve_sequence(params, seq, initial_state()))
        assert report.phase_analytic == -math.atan2(ov.imag, ov.real)
        assert abs(report.phase_residual) <= 1e-10
        assert report.center_error <= 1e-10
        assert report.width_error <= 1e-10
        assert report.overlap_deficit <= 1e-10


class TestSectorPhasesOnGrid:
    def test_quadratic_sector_phase_certified(self):
        """Grid-certify the one-axis-twisting term: sectors M = 0 and M = 2."""
        params, seq = desk_scale_params(a_spin=0.35, a_gravity=0.15, tau_scaled=6.0)
        scaled = scale_params(params, seq)
        phases = dict(sector_action_phases(params, seq, 2))
        expected = phases[2] - phases[0]
        wrapped = (expected + math.pi) % (2 * math.pi) - math.pi
        for steps in (300, 1200):
            spec = auto_grid(scaled, steps_per_segment=steps, spin_values=(2, -2, 1, -1))
            sectors = evolve_branch_on_grid(scaled, spec, (2, 0))
            psi2, psi0 = sectors
            ov = np.sum(np.conj(psi0) * psi2) * spec.dx
            assert abs(ov) > 0.9999       # every sector recombines
            assert abs(abs(ov) - 1.0) <= 1e-10
            assert np.angle(ov) == pytest.approx(wrapped, abs=1e-3)
            # rows (2, 0) as (plus, minus): -arg ov = -expected + splitting phase
            splitting = splitting_phase(scaled.seg_times,
                                        scaled.branch_accelerations((2, -2, 2)),
                                        scaled.branch_accelerations((0, 0, 0)), steps)
            residual = math.remainder(-np.angle(ov) + expected - splitting, 2 * math.pi)
            assert abs(residual) <= 1e-10


#: (plus, minus) initial spins of a drawn pair: spin pairs, and the spin-0 kinetic variant
SPIN_PAIRS = [(1, -1), (-1, 1), (1, 0), (0, 1), (-1, 0), (0, -1)]
#: a packet start (x0, p0) up to 3 sigma off centre in position and in momentum (sigma_p = 1/2)
STARTS = st.tuples(st.floats(-3.0, 3.0), st.floats(-1.5, 1.5))
#: flip fractions (f1, f2) of t3: the balanced pair, or an open one
FLIPS = st.one_of(st.just((0.25, 0.75)), st.tuples(st.floats(0.02, 0.49), st.floats(0.51, 0.97)))
#: jitter of (t1, t2, t3) as fractions of t3
JITTER = st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-0.01, 0.01)] * 3))
#: the horizon as a fraction of the flight: the whole flight, or a cut inside it
HORIZONS = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
#: the rows a walk test sizes a grid for: a spin pair, the Dicke pair of l = 2, spin 0 alone
WALK_SPINS = [(1, -1), (2, -2), (0,)]


def drawn_flight(desk_set, flips, jitter, spins, start):
    """(params, seq, scaled, spec) of one drawn flight. The rule that filters draws: a
    flight ``auto_grid`` refuses (more than MAX_POINTS points) is no draw."""
    params, balanced = desk_scale_params(*desk_set)
    t3 = balanced.t3
    seq = PulseSequence(t1=flips[0] * t3, t2=flips[1] * t3, t3=t3, jitter=tuple(j * t3 for j in jitter))
    scaled = scale_params(params, seq)
    try:
        spec = auto_grid(scaled, spin_values=spins, center=start[0], momentum=start[1])
    except ScaleError:
        assume(False)
    return params, seq, scaled, spec


class TestStrangReference:
    """The closed-form segment propagator against the Strang loop it composes, to 1e-12 in
    amplitude: the product of n steps is the exact propagator times a known c-number."""

    @staticmethod
    def assert_matches(scaled, spec, spins, center=0.0, momentum=0.0, until=None):
        rows = evolve_branch_on_grid(scaled, spec, spins, center, momentum, until)
        ref = flight_reference(scaled, spec, spins, center, momentum, until)
        assert np.max(np.abs(rows - ref)) < 1e-12

    @pytest.mark.parametrize("desk_set", [*CERTIFY_DESK.values(), (1.0, 0.5, 8.0)])
    def test_desk_sets(self, desk_set):
        scaled = scale_params(*desk_scale_params(*desk_set))
        self.assert_matches(scaled, auto_grid(scaled), (+1, -1))

    def test_rows_match_strang_reference(self, monkeypatch):
        """The rows ``oracle_compare`` evolves for the three certify desk sets, each on its own
        default grid (256 points, 1200 steps, three spacings), match the Strang loop."""
        evolved = []

        def recording(*args, **kwargs):
            evolved.append((args, evolve_branch_on_grid(*args, **kwargs)))
            return evolved[-1][1]

        monkeypatch.setattr(grid, "evolve_branch_on_grid", recording)
        for desk_set in CERTIFY_DESK.values():
            oracle_compare(*desk_scale_params(*desk_set))
        specs = [spec for (_, spec, _), _ in evolved]
        assert {(spec.n_points, spec.steps_per_segment) for spec in specs} == {(256, 1200)}
        assert len({spec.dx for spec in specs}) == 3
        for (scaled, spec, spins), pair in evolved:
            assert spins == (+1, -1)
            assert np.max(np.abs(pair - flight_reference(scaled, spec))) < 1e-12

    def test_jittered_set(self):
        params, seq0 = desk_scale_params()
        scaled = scale_params(params, replace(seq0, jitter=(0.02 * seq0.t3, 0.0, 0.0)))
        self.assert_matches(scaled, auto_grid(scaled), (+1, -1))

    def test_sector_rows(self):
        scaled = scale_params(*desk_scale_params(a_spin=0.35, a_gravity=0.15, tau_scaled=6.0))
        self.assert_matches(scaled, auto_grid(scaled, spin_values=(2, -2, 1, -1)), (2, 0))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, FLIPS, JITTER, st.sampled_from(SPIN_PAIRS), STARTS, HORIZONS)
    def test_drawn_flights(self, desk_set, flips, jitter, spins, start, fraction):
        """Few Strang steps keep the reference cheap; the c-number follows the count."""
        _, _, scaled, spec = drawn_flight(desk_set, flips, jitter, spins, start)
        self.assert_matches(scaled, replace(spec, steps_per_segment=40), spins, *start,
                            until=fraction * scaled.total_time)


class TestDeskSpaceOnGrid:
    """The closed forms grid-certified over the desk space: balanced or open flips with
    jitter, a start off centre, spin pairs with a spin-0 row, and a mid-flight horizon."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, FLIPS, JITTER, st.sampled_from(SPIN_PAIRS), STARTS, HORIZONS)
    def test_grid_matches_closed_forms(self, desk_set, flips, jitter, spins, start, fraction):
        params, seq, scaled, spec = drawn_flight(desk_set, flips, jitter, spins, start)
        horizon = fraction * scaled.total_time
        pair = evolve_branch_on_grid(scaled, spec, spins, *start, until=horizon)
        unit = scaled.length_unit
        initial = initial_state(start[0] * unit, start[1] * HBAR / unit)
        final = evolve_branches(params, seq, initial, spins=spins,
                                until=fraction * seq.effective_times()[2])
        sigma = wavepacket_width(params, final.spread_time) / unit
        for xb, pb, width, _, _, branch in zip(*spec.moments(pair), (final.plus_branch, final.minus_branch)):
            x_cl, p_cl = branch.center / unit, branch.momentum * unit / HBAR
            denom = max(1.0, abs(x_cl), abs(p_cl))
            assert abs(xb - x_cl) <= 1e-10 * denom and abs(pb - p_cl) <= 1e-10 * denom
            assert abs(width - sigma) <= 1e-10 * sigma
        ov_grid = complex(np.sum(np.conj(pair[1]) * pair[0]) * spec.dx)
        ov = branch_overlap(params, final)
        assert abs(abs(ov_grid) - abs(ov)) <= 1e-10
        # the grid phase carries the splitting term of every piece up to the horizon
        starts = np.cumsum((0.0, *scaled.seg_times[:-1]))
        pieces = [max(0.0, min(tau, horizon - t0)) for t0, tau in zip(starts, scaled.seg_times)]
        splitting = splitting_phase(pieces, *(scaled.branch_accelerations(_spin_history(s)) for s in spins),
                                    spec.steps_per_segment)
        residual = math.remainder(-np.angle(ov_grid) + np.angle(ov) - splitting, 2.0 * math.pi)
        # the phase of an overlap near 0 is rounding noise: checked where |ov| >= 1e-3
        assert abs(ov) < 1e-3 or abs(residual) <= 1e-10


class TestWalkAgainstSampledCentres:
    """The grid's reading of the classical walk against the closed-form centres of
    ``oracles.sampled_trajectory``, sampled densely in scaled units (mass 1): the domain's
    excursions, the peak |p| that sizes ``n_points``, and the flight's momentum refusal."""

    SAMPLES = 4001

    @classmethod
    def sampled(cls, scaled, spins, start, until=None):
        """(x, p) of every row of ``spins`` at the sampled times, and the widest gap a
        vertex can fall into, on the scaled problem as the reference trajectory reads it."""
        units = SimpleNamespace(mass=1.0, spin_coupling=lambda: scaled.a_spin,
                                gravity_force=lambda: scaled.a_gravity)
        flight = SimpleNamespace(segment_durations=lambda: scaled.seg_times)
        rows = [sampled_trajectory(units, flight, s, cls.SAMPLES, *start, until) for s in spins]
        return (np.concatenate([x for _, x, _ in rows]), np.concatenate([p for _, _, p in rows]),
                max(scaled.seg_times) / (cls.SAMPLES - 1))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, FLIPS, JITTER, st.sampled_from(WALK_SPINS), STARTS)
    def test_domain_and_points_follow_the_sampled_centres(self, desk_set, flips, jitter, spins, start):
        _, _, scaled, spec = drawn_flight(desk_set, flips, jitter, spins, start)
        x, p, h = self.sampled(scaled, spins, start)
        margin = DOMAIN_SIGMAS * math.sqrt(1.0 + (scaled.total_time / 2.0) ** 2) + 2.0
        # a sample lies within h / 2 of a vertex, where the centre is |a| (h / 2)^2 / 2 further out
        a_max = max(abs(a) for s in spins for a in scaled.branch_accelerations(_spin_history(s)))
        tol = 0.5 * a_max * (h / 2.0) ** 2 + 1e-12 * (abs(spec.x_min) + abs(spec.x_max) + margin)
        assert spec.x_min + margin == pytest.approx(float(np.min(x)), abs=tol)
        assert spec.x_max - margin == pytest.approx(float(np.max(x)), abs=tol)
        # n_points: the smallest power of two from MIN_POINTS whose pi / dx clears the peak |p|
        # plus DOMAIN_SIGMAS momentum widths of 1/2
        need = (float(np.max(np.abs(p))) + 0.5 * DOMAIN_SIGMAS) * (spec.x_max - spec.x_min) / math.pi
        assert spec.n_points == max(MIN_POINTS, 1 << math.ceil(math.log2(need)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, FLIPS, JITTER, st.sampled_from(WALK_SPINS), STARTS, HORIZONS,
           st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9]))
    def test_momentum_refused_exactly_where_the_sampled_range_crosses_the_edge(
            self, desk_set, flips, jitter, spins, start, fraction, edge):
        """A grid whose +-pi/dx sits a part in 1e9 inside the sampled <p> range +- GUARD_SIGMAS
        widths of 1/2 (up to the horizon) is refused; one a part in 1e9 outside is not."""
        _, _, scaled, spec = drawn_flight(desk_set, flips, jitter, spins, start)
        horizon = fraction * scaled.total_time
        _, p, _ = self.sampled(scaled, spins, start, horizon)
        k_edge = edge * max(-float(np.min(p)), float(np.max(p))) + edge * GUARD_SIGMAS * 0.5
        edged = GridSpec(spec.n_points, spec.x_min, spec.x_min + spec.n_points * math.pi / k_edge, 1)
        with mock.patch.object(grid, "split_step_evolve", lambda psi, *_: psi):    # the check alone
            if edge < 1.0:
                with pytest.raises(GridBoundaryError, match="momentum support"):
                    evolve_branch_on_grid(scaled, edged, spins, *start, until=horizon)
            else:
                evolve_branch_on_grid(scaled, edged, spins, *start, until=horizon)


class TestSizingKeepsItsBits:
    """The grid's sizing against the walk's older classical arithmetic
    (``oracles.classical_walk_reference``), from which the one walk's step differs by ulps:
    ``n_points`` never moves and a domain edge by at most 2 ulps; the grids the commands
    run keep every bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(DESK_SETS, FLIPS, JITTER, st.sampled_from([(1, -1), (2, -2, 1, -1, 0), (0,), (1, 0)]), STARTS)
    def test_points_fixed_and_edges_within_two_ulps(self, desk_set, flips, jitter, spins, start):
        _, _, scaled, spec = drawn_flight(desk_set, flips, jitter, spins, start)
        with mock.patch.object(grid, "_walk", classical_walk_reference):
            old = auto_grid(scaled, spin_values=spins, center=start[0], momentum=start[1])
        assert (spec.n_points, spec.steps_per_segment) == (old.n_points, old.steps_per_segment)
        for edge, was in ((spec.x_min, old.x_min), (spec.x_max, old.x_max)):
            assert abs(edge - was) <= 2.0 * math.ulp(was)

    #: (n_points, x_min, x_max) of each certify desk set's grid, recorded from the older walk
    CERTIFY_GRIDS = {
        "desk-a": (256, "-0x1.22950be6212aep+5", "0x1.1376539435a5cp+5"),
        "desk-b": (256, "-0x1.382ea57fbac47p+5", "0x1.0e02c2c18ee1bp+5"),
        "desk-c": (256, "-0x1.4b3bb5bacd399p+5", "0x1.41418071d3045p+5"),
    }

    @pytest.mark.parametrize("label", list(CERTIFY_DESK))
    def test_certify_grids(self, label):
        params, seq = desk_scale_params(*CERTIFY_DESK[label])
        spec = auto_grid(scale_params(params, seq))
        assert (spec.n_points, spec.x_min.hex(), spec.x_max.hex()) == self.CERTIFY_GRIDS[label]

    def test_snapshot_grid(self):
        spec = snapshot_grid(build_params(SNAPSHOT_CONFIG), PulseSequence.balanced(SNAPSHOT_CONFIG["t3"]))
        assert (spec.n_points, spec.x_min.hex(), spec.x_max.hex()) == (
            2048, "-0x1.22b995651d3b5p+5", "0x1.12fa2394b234cp+5")


class TestSnapshots:
    def test_frames_normalized_and_split(self):
        # exaggerated splitting so the mid-flight frame shows two clear peaks
        params, seq = desk_scale_params(a_spin=2.0, a_gravity=0.05, tau_scaled=8.0)
        frames = snapshot_frames(params, seq, [0.0, 0.5, 1.0], snapshot_grid(params, seq))
        from nanoramsey.dynamics import max_separation
        sep_expected = max_separation(params, seq)
        for t, x, prob_p, prob_m in frames:
            dx = x[1] - x[0]
            assert np.sum(prob_p) * dx == pytest.approx(1.0, abs=1e-9)
            assert np.sum(prob_m) * dx == pytest.approx(1.0, abs=1e-9)
        _, x, prob_p, prob_m = frames[1]
        peak_p = x[np.argmax(prob_p)]
        peak_m = x[np.argmax(prob_m)]
        assert abs(peak_p - peak_m) == pytest.approx(sep_expected, rel=0.05)

    def test_forward_pass_matches_from_zero_reference(self):
        """Unsorted, repeated and mid-segment times, in the caller's order."""
        params, seq = desk_scale_params()
        scaled = scale_params(params, seq)
        spec = auto_grid(scaled, steps_per_segment=400)
        fractions = [0.6, 0.0, 1.0, 0.1, 0.6, 0.33, 0.5]
        frames = snapshot_frames(params, seq, fractions, spec)
        assert [t for t, *_ in frames] == [f * seq.t3 for f in fractions]
        for frac, (_, _, prob_p, prob_m) in zip(fractions, frames):
            until = frac * seq.t3 / scaled.time_unit
            for spin, prob in ((+1, prob_p), (-1, prob_m)):
                ref = np.abs(reference_branch(scaled, spec, spin, until)) ** 2
                ref /= scaled.length_unit
                assert np.max(np.abs(prob - ref)) < 1e-10 * ref.max()

    def test_last_frame_where_t3_rounds_past_the_flight(self):
        """t3 / time_unit one ulp above the sum of the scaled segments: the frame at t3 is
        the state at the end of the flight."""
        params, seq0 = desk_scale_params(omega=2.9)
        seq = replace(seq0, jitter=(0.01 * seq0.t3, 0.0, 0.0))
        scaled = scale_params(params, seq)
        assert seq.effective_times()[2] / scaled.time_unit > scaled.total_time
        [(_, _, prob_p, prob_m)] = snapshot_frames(params, seq, [1.0], snapshot_grid(params, seq))
        final = evolve_branch_on_grid(scaled, auto_grid(scaled, 2048, 1), (+1, -1))
        assert np.array_equal(np.abs(final) ** 2 / scaled.length_unit, [prob_p, prob_m])

    @pytest.mark.parametrize("case", ["snapshot", (2.0, 0.05, 8.0), (6.0, 0.2, 8.0)])
    def test_default_frames_match_strang_reference(self, case):
        """Default frames keep 2048 points and one step per segment, yet match the 1200-step
        Strang loop: the step count moves only a c-number phase."""
        if case == "snapshot":
            params = build_params(SNAPSHOT_CONFIG)
            seq = PulseSequence.balanced(SNAPSHOT_CONFIG["t3"])
        else:
            params, seq = desk_scale_params(*case)
        scaled = scale_params(params, seq)
        fractions = [0.25, 0.6, 1.0, 0.1, 0.5]
        frames = snapshot_frames(params, seq, fractions, snapshot_grid(params, seq))
        spec = auto_grid(scaled, 2048, 1200)
        reference = flight_reference(scaled, spec, until=[f * scaled.total_time for f in sorted(fractions)])
        for (t, x, *probs), frac in zip(frames, fractions):
            assert t == frac * seq.t3
            assert x.size == 2048 and np.array_equal(x, spec.x * scaled.length_unit)
            ref = np.abs(reference[sorted(fractions).index(frac)]) ** 2 / scaled.length_unit
            for prob, ref_prob in zip(probs, ref):
                assert np.max(np.abs(prob - ref_prob)) < 1e-10 * ref_prob.max()

    def test_megaradian_refused(self, paper_params, paper_seq, desk):
        """Refused when the grid is sized, and by the frames on any grid."""
        with pytest.raises(ScaleError, match="desk scale"):
            snapshot_grid(paper_params, paper_seq)
        with pytest.raises(ScaleError, match="desk scale"):
            snapshot_frames(paper_params, paper_seq, [0.5], snapshot_grid(*desk))

    def test_fraction_out_of_range(self, desk):
        params, seq = desk
        with pytest.raises(ValueError, match="fraction"):
            snapshot_frames(params, seq, [1.5], snapshot_grid(params, seq))
