import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

from nanoramsey.constants import AMU, HBAR, K_BOLTZMANN, LIGHT_SPEED, MU_BOHR, STANDARD_GRAVITY
from nanoramsey.dynamics import PulseSequence, gravitational_phase
from nanoramsey.params import (
    ConfigError,
    ExperimentParams,
    SpinBranch,
    branch_force,
    build_params,
    parse_config_text,
    sphere_mass,
)
from conftest import PAPER_CONFIG, load_perfbench
from nanoramsey import cli, dynamics, params


def make_params(**overrides):
    cfg = dict(PAPER_CONFIG)
    cfg.update(overrides)
    return build_params(cfg)


class TestConstants:
    def test_codata_values_match_scipy(self):
        assert HBAR == pytest.approx(scipy.constants.hbar, rel=1e-9)
        assert K_BOLTZMANN == pytest.approx(scipy.constants.k, rel=1e-9)
        assert MU_BOHR == pytest.approx(
            scipy.constants.physical_constants["Bohr magneton"][0], rel=1e-9)
        assert LIGHT_SPEED == scipy.constants.c
        assert AMU == pytest.approx(scipy.constants.atomic_mass, rel=1e-9)


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
            params.mass * STANDARD_GRAVITY, rel=1e-15)

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

    @pytest.mark.parametrize("overrides, named", [
        ({"mass": 1e300}, "mass=1e+300, trap_omega=100000.0"),
        ({"trap_omega": 5e-324}, "mass=1.25e-17, trap_omega=5e-324"),
        ({"mass": np.array([1.25e-17, 1e300, 1e301])}, "mass=1e+300, trap_omega=100000.0"),
        ({"trap_omega": np.array([1e5, 1e-320, 5e-324])}, "mass=1.25e-17, trap_omega=1e-320"),
    ], ids=["mass", "trap_omega", "mass-array", "trap_omega-array"])
    def test_packet_width_must_be_positive_normal(self, overrides, named):
        with np.errstate(over="ignore"):        # 2 mass trap_omega overflows on arrays
            with pytest.raises(ConfigError, match=re.escape(f"positive normal float, got {named}") + "$"):
                make_params(**overrides)

    def test_n_nucleons_defaults_to_mass_over_amu(self):
        cfg = dict(PAPER_CONFIG)
        del cfg["n_nucleons"]
        params = build_params(cfg)
        assert params.n_nucleons == pytest.approx(1.25e-17 / AMU, rel=1e-12)

    def test_g_earth_override(self):
        params = make_params(g_earth=1.0)
        assert params.g_earth == 1.0
        assert make_params().g_earth == STANDARD_GRAVITY

    @pytest.mark.parametrize("g_earth", [math.inf, math.nan, 0.0])
    def test_g_earth_must_be_finite_and_positive(self, g_earth):
        with pytest.raises(ConfigError, match="g_earth must be finite and > 0"):
            make_params(b_gradient=0.0, g_earth=g_earth)


class TestSpinBranch:
    def test_only_three_values(self):
        assert {int(s) for s in SpinBranch} == {-1, 0, 1}
        with pytest.raises(ValueError):
            SpinBranch(2)


class TestBranchForce:
    def test_spin_zero_feels_only_gravity(self):
        params = make_params()
        assert branch_force(params, SpinBranch.ZERO) == pytest.approx(
            -params.mass * STANDARD_GRAVITY * math.cos(params.theta), rel=1e-15)

    def test_magnetic_force_magnitude(self):
        # g_nv * mu_B * dB/dx at the nominal gradient
        params = make_params()
        a = params.spin_coupling()
        assert a == pytest.approx(2.0028 * MU_BOHR * 1e7, rel=1e-12)
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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(ConfigError, match=f"line 2: value for 't_cm' must be finite, got '{value}'"):
            parse_config_text(f"mass = 1e-18\nt_cm = {value}\n")

    def test_seed_key_refused(self):
        # --seed is the only seed; a config key nothing reads is an unknown key
        cfg = dict(PAPER_CONFIG, **parse_config_text("seed = 5\n"))
        with pytest.raises(ConfigError, match="unknown config key.*seed"):
            build_params(cfg)


class TestUnitAudit:
    def test_phase_invariant_under_unit_rescaling(self, monkeypatch):
        """phi_g is dimensionless: rescaling (m, kg, s) must leave it fixed."""
        base = make_params()
        seq = PulseSequence.balanced(PAPER_CONFIG["t3"])
        phi0 = gravitational_phase(base, seq)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam_l, lam_m, lam_t = (float(10 ** rng.uniform(-2, 2)) for _ in range(3))
            # mu_bohr keeps its value: field units are absorbed into b_gradient
            monkeypatch.setattr(dynamics, "HBAR", HBAR * lam_m * lam_l**2 / lam_t)
            # spin coupling is a force: scale b_gradient so A -> A * kg m / s^2
            scale_force = lam_m * lam_l / lam_t**2
            params = ExperimentParams(
                mass=base.mass * lam_m,
                b_gradient=base.b_gradient * scale_force,
                theta=base.theta,
                trap_omega=base.trap_omega / lam_t,
                mw_frequency=base.mw_frequency,
                pulse_duration=base.pulse_duration,
                t_internal=base.t_internal,
                t_environment=base.t_environment,
                t_cm=base.t_cm,
                g_nv=base.g_nv,
                g_earth=STANDARD_GRAVITY * lam_l / lam_t**2,
            )
            phi = gravitational_phase(params, PulseSequence.balanced(PAPER_CONFIG["t3"] * lam_t))
            assert phi == pytest.approx(phi0, rel=1e-12)

    def test_immutability(self):
        params = make_params()
        with pytest.raises(AttributeError):
            params.mass = 1.0


# -- array kernels ------------------------------------------------------------

#: name -> (array kernel, the CPython scalar operation it must reproduce, the
#: number of leading arguments that are arrays; the rest pass through as they are)
KERNELS = {
    "exp": (params.exp, math.exp, 1),
    "atan2": (params.atan2, math.atan2, 2),
    "cos": (params.cos, math.cos, 1),
    "sin": (params.sin, math.sin, 1),
    "sqrt": (params.sqrt, math.sqrt, 1),
    "power": (params.power, operator.pow, 1),
    "modulus": (params.modulus, abs, 1),
    "isclose": (params.isclose,
                lambda a, b, rel_tol: math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0), 2),
    "polar": (dynamics._polar,
              lambda log_mod, arg: math.exp(log_mod) * complex(math.cos(arg), math.sin(arg)), 2),
    "ramsey_probability": (dynamics.ramsey_probability, lambda phi: math.cos(phi / 2.0) ** 2, 1),
}
ROOT = Path(__file__).resolve().parents[1]


def edge_values(n: int, seed: int) -> np.ndarray:
    """n shuffled floats: +-0, subnormals, +-inf, +-1e300 and +-1e-300 with their
    neighbours, signed magnitudes log-uniform over 1e-300 .. 1e300, and uniform
    values in (-1000, 1000), where exp neither overflows nor underflows."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300,
                        1.7976931348623157e308, math.inf, 0.5, 1.0, 2.0, math.pi])
    special = np.concatenate([special, np.nextafter(special, 0.0), np.nextafter(special, 3.0)])
    special = np.concatenate([special, -special])
    wide = rng.choice([-1.0, 1.0], n // 2) * 10.0 ** rng.uniform(-300.0, 300.0, n // 2)
    near = rng.uniform(-1000.0, 1000.0, n - n // 2 - special.size)
    out = np.concatenate([special, wide, near])
    rng.shuffle(out)
    return out


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(re.shape, complex)
    z.real, z.imag = re, im
    return z


def edge_arguments(name: str, n: int = 1 << 20) -> tuple:
    x, y = edge_values(n, 1), edge_values(n, 2)
    if name == "modulus":
        x[:2], y[:2] = 1e308, -1.5e308      # |z| above the largest float
        return (complex_array(x, y),)
    if name == "isclose":
        # b a few 1e-12 relative steps (and single ulps) off a, and unrelated pairs
        rng = np.random.default_rng(3)
        steps = np.array([0.0, 1e-13, 9.9e-13, 1e-12, 1.01e-12, 2e-12, 1e-6])
        with np.errstate(over="ignore"):
            b = x * (1.0 + rng.choice(np.concatenate([steps, -steps]), n))
            b[::7] = np.nextafter(x[::7], rng.choice([-np.inf, np.inf], x[::7].size))
        b[::11] = y[::11]
        return x, b, dynamics.BALANCE_RTOL
    if name == "power":
        return x, 3
    return (x, y)[:KERNELS[name][2]]


def scalar_results(op, arrays, rest, chunk=1024):
    """``op`` on each element as Python numbers: the results where it returns,
    and per element the exception class it raises (None where it returns)."""
    call = (lambda *args: op(*args, *rest)) if rest else op
    columns = [a.tolist() for a in arrays]
    results, errors = [], []
    for start in range(0, len(columns[0]), chunk):
        part = [c[start:start + chunk] for c in columns]
        try:
            results += list(map(call, *part))
            errors += [None] * len(part[0])
            continue
        except (ValueError, ArithmeticError):
            pass
        for args in zip(*part):
            try:
                results.append(call(*args))
                errors.append(None)
            except (ValueError, ArithmeticError) as exc:
                errors.append(type(exc))
    return np.array(results), errors


def assert_kernel_matches_scalar(name: str, args: tuple):
    kernel, op, n_arrays = KERNELS[name]
    arrays = [a.ravel() for a in np.broadcast_arrays(*args[:n_arrays])]
    rest = args[n_arrays:]
    want, errors = scalar_results(op, arrays, rest)
    ok = np.array([e is None for e in errors])
    got = np.asarray(kernel(*(a[ok] for a in arrays), *rest))
    assert got.dtype == want.dtype and got.shape == want.shape
    # bit for bit, signed zeros and NaN payloads included
    assert got.tobytes() == want.tobytes(), name
    raised = {e for e in errors if e is not None}
    for error in raised:
        i = errors.index(error)
        with pytest.raises(error):
            kernel(*(a[i:i + 1] for a in arrays), *rest)
    if raised:
        with pytest.raises(tuple(raised)):
            kernel(*arrays, *rest)
    return raised


class TestArrayKernels:
    """Each array kernel returns the scalar call's bits and raises its class."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_edge_values(self, name):
        raised = assert_kernel_matches_scalar(name, edge_arguments(name))
        assert raised == {
            "exp": {OverflowError}, "cos": {ValueError}, "sin": {ValueError},
            "sqrt": {ValueError}, "power": {OverflowError}, "modulus": {OverflowError},
            "polar": {OverflowError, ValueError}, "ramsey_probability": {ValueError},
        }.get(name, set())

    def test_exp_above_the_cexp_threshold(self):
        # glibc's cexp scales exp(x) through int arithmetic above 709, where its real part
        # leaves libm's bits on about 30% of inputs; math.exp takes those elements
        largest = math.log(1.7976931348623157e308)
        band = np.linspace(params._CEXP_EXACT_MAX, largest, 200_001)
        band = np.concatenate([band, np.nextafter(band, math.inf), [709.79, 710.0, 1e3, 1e300, math.inf]])
        assert assert_kernel_matches_scalar("exp", (band,)) == {OverflowError}
        finite = band[(band > params._CEXP_EXACT_MAX) & (band <= largest)]
        cexp = np.exp(finite + 0j).real
        assert np.count_nonzero(cexp != np.array([math.exp(x) for x in finite.tolist()])) > 1000
        for x in (np.nextafter(largest, math.inf), 709.79, 710.0, 1e300):
            with pytest.raises(OverflowError):
                params.exp(np.array([0.0, x]))

    def test_atan2_signed_zeros_infinities_and_nan(self):
        special = np.array([0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0, 1e308, math.inf, math.nan])
        special = np.concatenate([special, -special])
        y, x = np.meshgrid(special, special)
        assert assert_kernel_matches_scalar("atan2", (y.ravel(), x.ravel())) == set()

    def test_square(self):
        # numpy squares by multiplying, which misses pow(x, 2) on about 0.1% of inputs
        assert_kernel_matches_scalar("power", (edge_values(1 << 20, 4), 2))

    def test_scalars_stay_python_scalars(self):
        assert type(params.cos(0.5)) is float
        assert type(params.power(0.5, 3)) is float
        assert type(params.modulus(3 + 4j)) is float
        assert type(params.isclose(1.0, 1.0, 1e-12)) is bool
        assert type(dynamics._polar(-1.0, 0.5)) is complex

    @pytest.fixture(scope="class")
    def sweep_arguments(self):
        """Every argument that the benchmark's two sweep commands pass to each
        kernel, over all input variants, grouped by the pass-through arguments."""
        calls = {}
        workloads = load_perfbench("workloads")
        with pytest.MonkeyPatch.context() as patched:
            for name, (kernel, _, n_arrays) in KERNELS.items():
                def recorded(*args, _name=name, _kernel=kernel, _n=n_arrays):
                    key = (_name, *args[_n:])
                    calls.setdefault(key, []).append(np.broadcast_arrays(*args[:_n]))
                    return _kernel(*args)
                for module in (params, dynamics, cli):
                    for attr, value in list(vars(module).items()):
                        if value is kernel:
                            patched.setattr(module, attr, recorded)
            for seed in range(workloads.VARIANTS):
                for cmd in workloads.commands("sweep", seed):
                    args = cli.parse_args(cmd.argv)
                    cfg = parse_config_text((ROOT / args.config).read_text())
                    rows = cli._sweep_rows(cfg, args.param, cli._sweep_values(args),
                                           list(cli.OUTPUT_COLUMNS))
                    assert isinstance(rows, np.ndarray)     # no point fell back
        return {key: tuple(np.concatenate([c[i].ravel() for c in chunks])
                           for i in range(len(chunks[0])))
                for key, chunks in calls.items()}

    def test_sweep_arguments(self, sweep_arguments):
        assert {key[0] for key in sweep_arguments} == set(KERNELS)
        for (name, *rest), arrays in sweep_arguments.items():
            assert assert_kernel_matches_scalar(name, (*arrays, *rest)) == set()


def test_exp_and_atan2_are_libm_on_benchmark_sweeps(monkeypatch):
    """The t1 sweep bytes rest on numpy's complex exp and log having libm's exp and
    atan2 as their parts (``params.exp``, ``params.atan2``). Check every element those
    two return in the benchmark's t1 sweeps, all 8 input variants, against ``math.exp``
    and ``math.atan2``, so a numpy build that breaks it fails here by name rather than
    in a golden byte."""
    workloads = load_perfbench("workloads")
    counts = {}

    def checked(name, kernel, op):
        def wrapped(*args):
            out = kernel(*args)
            arrays = [a.ravel().tolist() for a in np.broadcast_arrays(*args)]
            libm = np.fromiter(map(op, *arrays), float, out.size)
            checked_, differ = counts.get(name, (0, 0))
            counts[name] = (checked_ + out.size,
                            differ + int(np.count_nonzero(out.view(np.uint64) != libm.view(np.uint64))))
            return out
        return wrapped

    for name, op in (("exp", math.exp), ("atan2", math.atan2)):
        kernel = getattr(params, name)
        wrapped = checked(name, kernel, op)
        for module in (params, dynamics, cli):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, wrapped)
    for seed in range(workloads.VARIANTS):
        for cmd in workloads.commands("sweep", seed):
            args = cli.parse_args(cmd.argv)
            if args.param != "t1":
                continue
            cfg = parse_config_text((ROOT / args.config).read_text())
            rows = cli._sweep_rows(cfg, args.param, cli._sweep_values(args), list(cli.OUTPUT_COLUMNS))
            assert isinstance(rows, np.ndarray)     # every point went through the array kernels
    points = workloads.VARIANTS * 20_000
    assert counts == {"exp": (points, 0), "atan2": (points, 0)}
