import math

import numpy as np
import pytest
import scipy.constants

from nanoramsey import (
    CODATA,
    ConfigError,
    ExperimentParams,
    PhysicalConstants,
    PulseSequence,
    SpinBranch,
    branch_force,
    build_params,
    gravitational_phase,
    parse_config_text,
    sphere_mass,
)
from conftest import PAPER_CONFIG


def make_params(**overrides):
    cfg = dict(PAPER_CONFIG)
    cfg.update(overrides)
    return build_params(cfg)


class TestConstants:
    def test_codata_values_match_scipy(self):
        assert CODATA.hbar == pytest.approx(scipy.constants.hbar, rel=1e-9)
        assert CODATA.k_boltzmann == pytest.approx(scipy.constants.k, rel=1e-9)
        assert CODATA.mu_bohr == pytest.approx(
            scipy.constants.physical_constants["Bohr magneton"][0], rel=1e-9)
        assert CODATA.light_speed == scipy.constants.c
        assert CODATA.amu == pytest.approx(scipy.constants.atomic_mass, rel=1e-9)

    def test_all_positive_enforced(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=-1.0)
        with pytest.raises(ValueError):
            PhysicalConstants(g_earth=0.0)


class TestBuildParams:
    def test_mass_from_radius_density(self):
        # (4/3) pi R^3 rho with R = 100 nm, rho = 3500 kg/m^3
        cfg = dict(PAPER_CONFIG)
        del cfg["mass"]
        cfg["density"] = 3500.0
        params = build_params(cfg)
        expected = 4.0 / 3.0 * math.pi * 1e-21 * 3500.0
        assert params.mass == pytest.approx(expected, rel=1e-12)
        assert params.mass == pytest.approx(1.46608e-17, rel=1e-4)

    def test_explicit_mass_passes_through(self):
        params = make_params()
        assert params.mass == 1.25e-17

    def test_mass_and_consistent_sphere_accepted(self):
        mass = sphere_mass(1e-7, 3500.0)
        params = make_params(mass=mass, density=3500.0)
        assert params.mass == mass

    def test_mass_vs_sphere_conflict_is_error(self):
        with pytest.raises(ConfigError, match="conflicts with radius/density"):
            make_params(density=3500.0)   # 1.25e-17 vs 1.466e-17

    def test_untilted_gravity_component(self):
        params = make_params(theta=0.0)
        assert params.gravity_force() == pytest.approx(
            params.mass * CODATA.g_earth, rel=1e-15)

    def test_missing_key_named(self):
        cfg = dict(PAPER_CONFIG)
        del cfg["mw_frequency"]
        with pytest.raises(ConfigError, match="mw_frequency"):
            build_params(cfg)

    def test_missing_mass_and_sphere(self):
        cfg = dict(PAPER_CONFIG)
        del cfg["mass"]
        with pytest.raises(ConfigError, match="mass"):
            build_params(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="b_gradeint"):
            build_params({**PAPER_CONFIG, "b_gradeint": 1.0})

    @pytest.mark.parametrize("key,value", [
        ("mass", -1.0), ("t3", 0.0), ("trap_omega", -2.0),
        ("theta", 2.0), ("t_cm", -1e-3), ("pulse_duration", 0.0),
    ])
    def test_invalid_values_name_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            make_params(**{key: value})

    def test_n_nucleons_defaults_to_mass_over_amu(self):
        cfg = dict(PAPER_CONFIG)
        del cfg["n_nucleons"]
        params = build_params(cfg)
        assert params.n_nucleons == pytest.approx(1.25e-17 / CODATA.amu, rel=1e-12)

    def test_g_earth_override(self):
        params = make_params(g_earth=1.0)
        assert params.constants.g_earth == 1.0
        assert params.constants.hbar == CODATA.hbar


class TestSpinBranch:
    def test_only_three_values(self):
        assert {int(s) for s in SpinBranch} == {-1, 0, 1}
        with pytest.raises(ValueError):
            SpinBranch(2)


class TestBranchForce:
    def test_spin_zero_feels_only_gravity(self):
        params = make_params()
        assert branch_force(params, SpinBranch.ZERO) == pytest.approx(
            -params.mass * CODATA.g_earth * math.cos(params.theta), rel=1e-15)

    def test_magnetic_force_magnitude(self):
        # g_nv * mu_B * dB/dx at the nominal gradient
        params = make_params()
        a = params.spin_coupling()
        assert a == pytest.approx(2.0028 * CODATA.mu_bohr * 1e7, rel=1e-12)
        assert a == pytest.approx(1.8574e-16, rel=1e-4)
        assert branch_force(params, SpinBranch.PLUS) == pytest.approx(
            a - params.gravity_force(), rel=1e-15)

    def test_minus_branch_sign_flip(self):
        params = make_params()
        assert branch_force(params, SpinBranch.MINUS) == pytest.approx(
            -params.spin_coupling() - params.gravity_force(), rel=1e-15)

    def test_spin_terms_cancel_in_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            params = make_params(
                mass=float(10 ** rng.uniform(-18, -15)),
                b_gradient=float(10 ** rng.uniform(4, 8)),
                theta=float(rng.uniform(0, math.pi / 2)),
            )
            total = branch_force(params, SpinBranch.PLUS) + branch_force(params, SpinBranch.MINUS)
            # analytically exact; rounding of each branch costs ~1 ulp of max(A, C)
            ulp_scale = params.spin_coupling() + params.gravity_force()
            assert total == pytest.approx(-2.0 * params.gravity_force(), abs=4e-16 * ulp_scale)

    def test_spin_part_odd_in_gradient(self):
        params_pos = make_params(b_gradient=3.3e6)
        params_neg = make_params(b_gradient=-3.3e6)
        diff_pos = branch_force(params_pos, 1) - branch_force(params_pos, -1)
        diff_neg = branch_force(params_neg, 1) - branch_force(params_neg, -1)
        assert diff_pos == -diff_neg
        assert diff_pos > 0


class TestConfigText:
    def test_parse_with_comments_and_blanks(self):
        cfg = parse_config_text("# run A\nmass = 1e-18\n\nt3 = 2e-4  # seconds\n")
        assert cfg == {"mass": 1e-18, "t3": 2e-4}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("mass = 1\nmass = 2\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config_text("theta = north\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_seed_key_refused(self):
        # --seed is the only seed; a config key nothing reads is an unknown key
        cfg = dict(PAPER_CONFIG, **parse_config_text("seed = 5\n"))
        with pytest.raises(ConfigError, match="unknown config key.*seed"):
            build_params(cfg)


class TestUnitAudit:
    def test_phase_invariant_under_unit_rescaling(self):
        """phi_g is dimensionless: rescaling (m, kg, s) must leave it fixed."""
        base = make_params()
        seq = PulseSequence.balanced(base.t3)
        phi0 = gravitational_phase(base, seq)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam_l, lam_m, lam_t = (float(10 ** rng.uniform(-2, 2)) for _ in range(3))
            consts = PhysicalConstants(
                hbar=CODATA.hbar * lam_m * lam_l**2 / lam_t,
                k_boltzmann=CODATA.k_boltzmann,
                mu_bohr=CODATA.mu_bohr,   # field units absorbed into b_gradient
                light_speed=CODATA.light_speed,
                g_earth=CODATA.g_earth * lam_l / lam_t**2,
                amu=CODATA.amu * lam_m,
            )
            # spin coupling is a force: scale b_gradient so A -> A * kg m / s^2
            scale_force = lam_m * lam_l / lam_t**2
            params = ExperimentParams(
                mass=base.mass * lam_m,
                b_gradient=base.b_gradient * scale_force,
                theta=base.theta,
                t3=base.t3 * lam_t,
                trap_omega=base.trap_omega / lam_t,
                mw_frequency=base.mw_frequency,
                pulse_duration=base.pulse_duration,
                t_internal=base.t_internal,
                t_environment=base.t_environment,
                t_cm=base.t_cm,
                g_nv=base.g_nv,
                constants=consts,
            )
            phi = gravitational_phase(params, PulseSequence.balanced(params.t3))
            assert phi == pytest.approx(phi0, rel=1e-12)

    def test_immutability(self):
        params = make_params()
        with pytest.raises(AttributeError):
            params.mass = 1.0
        with pytest.raises(AttributeError):
            CODATA.hbar = 1.0
