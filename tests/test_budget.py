"""Feasibility budget against hand formulas, Verlet paths and the action route."""
import json
import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

import oracles
from conftest import PAPER_CONFIG
from nanoramsey import cli
from nanoramsey.budget import (
    QUOTED_ONLY_NOTES,
    budget_report,
    csl_bound,
    doppler_linewidth,
    thermal_velocity,
)
from nanoramsey.constants import HBAR, K_BOLTZMANN, MU_BOHR
from nanoramsey.dynamics import PulseSequence
from nanoramsey.params import build_params
from oracles import gravitational_phase_action, integrate_trajectory, joined

mpmath.mp.dps = 40


class TestPointFormulas:
    def test_csl_bound(self):
        expected = 1 / (2 * mpmath.mpf("1e9") ** 2 * mpmath.mpf("1e-4"))
        assert csl_bound(1e9, 1e-4) == pytest.approx(float(expected), rel=1e-15)
        with pytest.raises(ValueError, match="n_nucleons"):
            csl_bound(0.5, 1e-4)
        with pytest.raises(ValueError, match="t3"):
            csl_bound(1e9, 0.0)

    def test_doppler_two_forms_agree(self):
        v0 = 1.0e-3
        direct = doppler_linewidth(2.87e9, v0)
        assert direct == pytest.approx(2.87e9 * v0 / 299792458.0, rel=1e-15)
        with pytest.raises(ValueError, match="f0"):
            doppler_linewidth(0.0, v0)
        with pytest.raises(ValueError, match="v0"):
            doppler_linewidth(2.87e9, -1.0)

    def test_thermal_velocity_is_equipartition(self):
        # (1/2) m <v^2> = (3/2) k T
        t, m = 1.0e-3, 1.25e-17
        kt = mpmath.mpf(K_BOLTZMANN) * mpmath.mpf(t)
        expected = mpmath.sqrt(3 * kt / mpmath.mpf(m))
        assert thermal_velocity(t, m) == pytest.approx(float(expected), rel=1e-14)
        assert thermal_velocity(0.0, m) == 0.0
        with pytest.raises(ValueError):
            thermal_velocity(-1.0, m)

    @pytest.mark.parametrize("formula, args, message", [
        (csl_bound, (0.5, 1e-4), "n_nucleons must be >= 1"),
        (csl_bound, (1e9, 0.0), "t3 must be > 0"),
        (csl_bound, (1e9, math.nan), "t3 must be > 0"),
        (doppler_linewidth, (0.0, 1e-3), "f0 must be > 0"),
        (doppler_linewidth, (2.87e9, -1e-300), "v0 must be >= 0"),
        (thermal_velocity, (-1e-300, 1.25e-17), "t_cm must be >= 0"),
        (thermal_velocity, (1e-3, 0.0), "mass must be > 0"),
        (thermal_velocity, (1e-3, math.nan), "mass must be > 0"),
    ], ids=["csl-nucleons", "csl-t3", "csl-t3-nan", "doppler-f0", "doppler-v0", "thermal-t_cm",
            "thermal-mass", "thermal-mass-nan"])
    def test_refusal_names_its_input(self, formula, args, message):
        """Each point formula refuses its input by name, as a ValueError with this text."""
        with pytest.raises(ValueError) as refused:
            formula(*args)
        assert type(refused.value) is ValueError and str(refused.value) == message

    def test_threshold_inputs_pass(self):
        """The inputs on the other side of each refusal's threshold."""
        assert csl_bound(1.0, 1e-4) == 1.0 / 2e-4
        assert doppler_linewidth(5e-324, 0.0) == 0.0
        assert thermal_velocity(0.0, 5e-324) == 0.0


class TestZeeman:
    def test_splitting_from_verlet_arm_positions(self, paper_params, paper_seq):
        e1 = paper_seq.effective_times()[0]
        tp, xp, _ = integrate_trajectory(paper_params, paper_seq, +1, n_steps=20_000)
        _, xm, _ = integrate_trajectory(paper_params, paper_seq, -1, n_steps=20_000)
        i = int(np.argmin(np.abs(tp - e1)))
        x_flip = 0.5 * abs(xp[i] - xm[i])
        h = 2 * math.pi * HBAR
        expected = 2 * (paper_params.g_nv * MU_BOHR / h) * paper_params.b_gradient * x_flip
        report = budget_report(paper_params, paper_seq)
        assert report.zeeman_splitting_hz == pytest.approx(expected, rel=1e-9)
        assert report.pulse_bandwidth_hz == 1.0 / paper_params.pulse_duration
        assert report.resolvability_ratio == report.zeeman_splitting_hz / report.pulse_bandwidth_hz
        assert report.resolvability_pass == (report.resolvability_ratio >= 10.0)


class TestReport:
    def test_paper_report_against_independent_routes(self, paper_params, paper_seq):
        report = budget_report(paper_params, paper_seq)
        t3, omega = PAPER_CONFIG["t3"], PAPER_CONFIG["trap_omega"]
        accel = paper_params.spin_coupling() / paper_params.mass
        assert report.peak_separation_m == pytest.approx(2 * accel * (t3 / 4) ** 2, rel=1e-14)
        assert report.arm_displacement_m == pytest.approx(0.5 * report.peak_separation_m, rel=1e-15)
        # sigma0^2 = hbar / (2 m omega), so sigma(t)/sigma0 = sqrt(1 + (omega t)^2)
        assert report.spread_ratio == pytest.approx(math.hypot(1.0, omega * t3), rel=1e-12)
        assert report.phi_g_rad == pytest.approx(gravitational_phase_action(paper_params, paper_seq),
                                                 rel=1e-9)
        assert report.ramsey_p0 == pytest.approx(math.cos(report.phi_g_rad / 2) ** 2, abs=1e-12)
        assert report.visibility_closure == pytest.approx(1.0, abs=1e-12)
        assert report.closure_pass
        assert report.n_nucleons == PAPER_CONFIG["n_nucleons"]
        assert report.csl_bound_per_s == csl_bound(PAPER_CONFIG["n_nucleons"], t3)
        assert report.all_pass() == (report.resolvability_pass and report.closure_pass)
        assert report.notes[-len(QUOTED_ONLY_NOTES):] == QUOTED_ONLY_NOTES

    def test_unbalanced_flight_fails_closure(self, paper_params):
        seq = PulseSequence(t1=0.26e-4, t2=0.75e-4, t3=1.0e-4)
        report = budget_report(paper_params, seq)
        assert report.visibility_closure < 1.0 - 1e-9
        assert not report.closure_pass
        assert not report.all_pass()

    @pytest.mark.parametrize("keys", [{"t1": 0.3e-4}, {"jitter_t2": 2.0e-7}], ids=["t1-off", "jittered"])
    def test_unbalanced_fringe_is_the_sweep_row(self, keys):
        """Off balance the phase, P0 and peak are the overlap route's: every bit of the
        one-point sweep row of the same config, and of the point-by-point oracle."""
        cfg = dict(PAPER_CONFIG, **keys)
        params, seq = build_params(dict(cfg)), cli._sequence_from_config(cfg)
        assert not seq.is_balanced()
        report = budget_report(params, seq)
        columns = ["phi_g_rad", "p0", "delta_x_max_m"]
        got = [report.phi_g_rad, report.ramsey_p0, report.peak_separation_m]
        row = cli._sweep_rows(cfg, "theta", [cfg["theta"]], columns)[0, 1:]
        point = oracles._point_outputs(params, seq)
        bits = lambda values: np.asarray(values, dtype=float).view(np.int64).tolist()
        assert bits(got) == bits(row) == bits([point[c] for c in columns])

    def test_discrepancy_note_follows_the_separation(self):
        # a tenfold gradient moves the separation far from the quoted 100 nm
        params = build_params(dict(PAPER_CONFIG, b_gradient=1.0e8))
        report = budget_report(params, PulseSequence.balanced(PAPER_CONFIG["t3"]))
        assert any(note.startswith("peak separation: computed") for note in report.notes)

    def test_json_round_trip_and_text(self, paper_params, paper_seq):
        report = budget_report(paper_params, paper_seq)
        text = joined(report.to_json({"command": "budget"}))
        data = json.loads(text)
        assert data.pop("metadata") == {"command": "budget"}
        assert data.pop("notes") == list(report.notes)
        assert data == {k: v for k, v in asdict(report).items() if k != "notes"}
        assert text == joined(report.to_json({"command": "budget"}))
        lines = report.to_text().splitlines()
        assert lines[0] == "feasibility budget"
        assert lines[-len(QUOTED_ONLY_NOTES):] == [f"  - {n}" for n in QUOTED_ONLY_NOTES]
        closure = next(line for line in lines if "closure visibility" in line)
        assert closure.endswith("[pass]")
