import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import paper_config_text
from nanoramsey import cli, grid
from nanoramsey.decoherence import MAX_SEPARATIONS

SWEEP_ARGS = ["--param", "theta", "--start", "0.0", "--stop", "1.5", "--count", "7"]


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "paper.cfg"
    path.write_text(paper_config_text(), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def usage_exit(*argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    return excinfo.value.code


class TestExitCodes:
    def test_success(self, capsys, config):
        rc, out = run(capsys, "sweep", "--config", config, *SWEEP_ARGS)
        assert rc == cli.EXIT_OK and out

    def test_missing_config_file(self, capsys, tmp_path):
        rc, _ = run(capsys, "budget", "--config", str(tmp_path / "absent.cfg"))
        assert rc == cli.EXIT_VALIDATION

    def test_bad_outputs(self, capsys, config):
        rc, out = run(capsys, "sweep", "--config", config, *SWEEP_ARGS, "--outputs", "p0,phase")
        assert rc == cli.EXIT_VALIDATION and out == ""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--param", "theta", "--values", "0.1", "--bogus"],
        ["sweep", "--param", "theta", "--values", "0.1", "--workers", "2"],
        ["visibility", "--dx-log"],
        ["sweep"],                                  # --param missing
        ["certify", "--format", "json"],            # certify writes text only
        ["certify", "--seed", "3"],                 # and samples nothing
    ])
    def test_usage_errors_are_validation_errors(self, config, argv):
        command, *rest = argv
        assert usage_exit(command, "--config", config, *rest) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("flags", [
        ["--start", "-1e-05", "--stop", "1e-05", "--count", "3"],
        ["--start", "-2e-05", "--stop", "-1e-05", "--count", "3"],
        ["--values", "-1e-05,0.1,-2.5E-3"],
    ])
    def test_leading_negative_exponent_values(self, capsys, config, flags):
        """A value such as -1e-05 is a value, read as in the --flag=value form."""
        joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
        rc, out = run(capsys, "sweep", "--config", config, "--param", "b_gradient", *flags)
        rc_eq, out_eq = run(capsys, "sweep", "--config", config, "--param", "b_gradient", *joined)
        assert rc == rc_eq == cli.EXIT_OK
        assert out == out_eq and out.splitlines()[1].startswith("-")

    def test_negative_value_without_flag_is_usage_error(self, config):
        assert usage_exit("sweep", "--config", config, "--param", "b_gradient", "-1e-05") \
            == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        assert usage_exit(*argv) == 0

    def test_certify_paper_scale_is_numerical_failure(self, capsys, config):
        assert cli.main(["certify", "--config", config]) == cli.EXIT_NUMERICAL
        assert "desk scale" in capsys.readouterr().err

    def test_certify_unbalanced_flight_needs_no_closure(self, capsys, tmp_path):
        """An open interferometer (|overlap| 0.71) passes on its four checks."""
        path = tmp_path / "open.cfg"
        path.write_text(paper_config_text(b_gradient=1.0e5, theta=1.5667963267948966,
                                          t3=3.0e-5, t1=0.7e-5, t2=2.3e-5), encoding="utf-8")
        rc, out = run(capsys, "certify", "--config", str(path))
        assert rc == cli.EXIT_OK
        assert "  closure  |overlap| 0.711609  (unbalanced flight: closure not required)" in out
        assert out.endswith("certification: PASS\n")

    def test_certify_closure_failure_is_numerical_failure(self, capsys, monkeypatch):
        """The middle desk set's pair fails to recombine; its neighbours close."""
        evolve = grid.evolve_branch_on_grid
        calls = []

        def broken_middle(*args, **kwargs):
            pair = evolve(*args, **kwargs)
            calls.append(args)
            if len(calls) == 2:
                amps = pair.amplitudes.copy()
                amps[1] = np.roll(amps[1], amps.shape[-1] // 4)
                pair = grid.GridWavefunction(pair.x, amps)
            return pair

        monkeypatch.setattr(grid, "evolve_branch_on_grid", broken_middle)
        assert cli.main(["certify"]) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert len(calls) == 2 and out == ""
        assert err.startswith("numerical failure: balanced sequence failed to recombine")
        assert err.count("\n") == 1


def write_config(tmp_path, **overrides) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(paper_config_text(**overrides), encoding="utf-8")
    return str(path)


class TestGravityOnlyGrid:
    """Without a gradient the phase is 0, yet gravity alone sizes the oracle grid."""

    @pytest.mark.parametrize("g_earth", [None, 1.0e200])
    @pytest.mark.parametrize("command", [["certify"], ["dump-snapshots", "--times", "0.5"]])
    def test_refused_before_any_grid(self, capsys, tmp_path, command, g_earth):
        config = write_config(tmp_path, b_gradient=0.0, g_earth=g_earth)
        tracemalloc.start()
        try:
            rc = cli.main([*command, "--config", config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == cli.EXIT_NUMERICAL
        assert err.startswith("numerical failure: ") and "desk scale" in err
        assert peak < 16 * 2**20

    def test_infinite_gravity_refused_by_its_line(self, capsys, tmp_path):
        config = write_config(tmp_path, b_gradient=0.0, g_earth=math.inf)
        assert cli.main(["certify", "--config", config]) == cli.EXIT_VALIDATION
        assert "line 13: value for 'g_earth' must be finite" in capsys.readouterr().err


class TestNonFiniteInputs:
    """NaN fails every comparison, so each guard must accept only what lies in bounds."""

    def test_subnormal_temperature_refused_without_warnings(self, capsys, tmp_path):
        """k T underflows, so no node count can help: the refusal names the temperature."""
        config = write_config(tmp_path, t_environment=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["visibility", "--config", config])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_NUMERICAL and out == ""
        assert "not converged" in err and "temperature 1e-300 K" in err
        assert "n_nodes" not in err and "Warning" not in err

    def test_subnormal_temperature_is_numerical_failure(self, capsys, tmp_path):
        config = write_config(tmp_path, t_environment=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)     # the Planck factor overflows
            rc = cli.main(["visibility", "--config", config])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_NUMERICAL and out == ""
        assert "not converged" in err

    @pytest.mark.parametrize("command, key, value", [
        ("visibility", "t_environment", math.inf),
        ("visibility", "response_im", math.nan),
        ("visibility", "radius", math.inf),
        ("budget", "t_cm", math.inf),
    ])
    def test_non_finite_config_value_refused(self, capsys, tmp_path, command, key, value):
        config = write_config(tmp_path, **{key: value})
        rc = cli.main([command, "--config", config])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        lineno = paper_config_text(**{key: value}).splitlines().index(f"{key} = {value!r}") + 1
        assert f"line {lineno}: value for {key!r} must be finite" in err

    @pytest.mark.parametrize("flag, value", [
        ("--dx-min", "nan"), ("--dx-max", "inf"), ("--tint-min", "-inf"), ("--tint-max", "nan"),
    ])
    def test_non_finite_axis_bound_refused(self, capsys, tmp_path, flag, value):
        config = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["visibility", "--config", config, f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: {flag} must be finite\n"

    @pytest.mark.parametrize("flags, message", [
        (["--tint-max=-5"], "--tint-max must be >= 0, got -5.0"),
        (["--tint-min=-5"], "--tint-min must be >= 0, got -5.0"),
        (["--dx-min=-1e-9"], "--dx-min must be > 0 under log spacing, got -1e-09"),
        (["--dx-min=0"], "--dx-min must be > 0 under log spacing, got 0.0"),
        (["--dx-linear", "--dx-min=-1e-9"], "--dx-min must be >= 0, got -1e-09"),
    ], ids=["tint-max", "tint-min", "dx-min-negative", "dx-min-zero", "dx-min-linear"])
    def test_axis_bound_below_range_refused_by_flag(self, capsys, tmp_path, flags, message):
        config = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["visibility", "--config", config, *flags])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: {message}\n"


class TestPacketWidthUnderflow:
    """sigma0 = sqrt(hbar / (2 m omega)) that is 0 or inf is refused by its keys, and so
    is a normal sigma0 (about 2e-159 m at trap_omega = 1e300) whose 2 m sigma0 sigma0,
    the denominator of the spreading, underflows to 0."""

    @pytest.mark.parametrize("overrides, message", [
        ({"mass": 1e300}, "mass and trap_omega must give a packet width sqrt(hbar / (2 mass "
         "trap_omega)) that is a positive normal float, got mass=1e+300, trap_omega=100000.0"),
        ({"trap_omega": 5e-324}, "mass and trap_omega must give a packet width sqrt(hbar / "
         "(2 mass trap_omega)) that is a positive normal float, got mass=1.25e-17, "
         "trap_omega=5e-324"),
        ({"trap_omega": 1e300}, "mass and trap_omega make 2 mass sigma0^2 = 0.0 underflow, "
         "got mass=1.25e-17, trap_omega=1e+300"),
    ], ids=["mass", "trap_omega", "spreading"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_budget_refused(self, capsys, tmp_path, overrides, message, fmt):
        config = write_config(tmp_path, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["budget", "--config", config, "--format", fmt])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: {message}\n"

    def test_sweep_refused_at_the_first_bad_point(self, capsys, tmp_path):
        config = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["sweep", "--config", config, "--param", "mass",
                           "--values", "1e-17,1e300,1e301"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        assert err.startswith("error: mass and trap_omega must give a packet width")
        assert err.endswith("got mass=1e+300, trap_omega=100000.0\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dicke_twisting_overflow_refused(capsys, tmp_path, fmt):
    """A/m is about 1.9e274 m/s^2, so (A/m)**2 overflows: refused by its keys."""
    config = write_config(tmp_path, mass=1e-290, n_nucleons=1.0)
    rc = cli.main(["dicke", "--config", config, "--l", "3", "--format", fmt])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION and out == ""
    assert err == ("error: mass, b_gradient and t3 overflow the twisting coefficient, "
                   "got mass=1e-290, b_gradient=10000000.0, t3=0.0001\n")


def _refusal(argv, overrides, code, *named):
    label = " ".join([*argv, *(f"{key}={value:g}" for key, value in overrides.items())])
    return pytest.param(argv, overrides, code, named, id=label)


_GRID = (["certify"], ["dump-snapshots", "--times", "0.5"])
_BUDGET = (["budget"], ["budget", "--format", "json"])
_VISIBILITY = ["visibility", "--dx-count", "3", "--tint-count", "2"]


@pytest.mark.parametrize("argv, overrides, code, named", [
    *(_refusal(argv, {"trap_omega": 1e300}, cli.EXIT_NUMERICAL, "trap_omega=1e+300") for argv in _GRID),
    *(_refusal(argv, {"trap_omega": 1e-300}, cli.EXIT_NUMERICAL, "trap_omega=1e-300") for argv in _GRID),
    *(_refusal(argv, {"t3": 1e300}, cli.EXIT_NUMERICAL, "phase ~inf", "t3") for argv in _GRID),
    *(_refusal(argv, {"n_nucleons": 1e300}, cli.EXIT_VALIDATION, "n_nucleons=1e+300", "t3=0.0001")
      for argv in _BUDGET),
    *(_refusal(argv, {"pulse_duration": 1e300}, cli.EXIT_VALIDATION, "ratio inf",
               "pulse_duration=1e+300", "b_gradient=") for argv in _BUDGET),
    _refusal(_VISIBILITY, {"radius": 1e300}, cli.EXIT_VALIDATION, "radius", "got 1e+300"),
    _refusal(_VISIBILITY, {"radius": 1e60}, cli.EXIT_VALIDATION, "radius", "got 1e+60"),
    _refusal(["visibility", "--tint-count", "-1"], {}, cli.EXIT_VALIDATION, "--tint-count", "got -1"),
    _refusal(["visibility", "--dx-count", "-3"], {}, cli.EXIT_VALIDATION, "--dx-count", "got -3"),
    _refusal(["visibility", "--dx-count", "0"], {}, cli.EXIT_VALIDATION, "--dx-count", "got 0"),
    _refusal(["dicke", "--l", "3"], {"t3": 1e300}, cli.EXIT_VALIDATION, "t3 = 1e+300"),
    _refusal(["sweep", "--param", "theta", "--values", "0,0.1,0.2"], {"t3": 1e300}, cli.EXIT_VALIDATION,
             "t3 = 1e+300"),
    *(_refusal(argv, {"mass": 1e284}, cli.EXIT_VALIDATION, "action phase", "mass=1e+284")
      for argv in _BUDGET),
    *(_refusal(argv, {"pulse_duration": 5e-324}, cli.EXIT_VALIDATION, "pulse_duration = 5e-324")
      for argv in _BUDGET),
    _refusal(_VISIBILITY, {"radius": 1e46}, cli.EXIT_VALIDATION, "radius 1e+46", "reduce the radius"),
    _refusal(["visibility", "--dx-count", str(MAX_SEPARATIONS + 1)], {}, cli.EXIT_VALIDATION,
             "--dx-count", f"got {MAX_SEPARATIONS + 1}"),
])
def test_extreme_input_refused_by_name(capsys, tmp_path, argv, overrides, code, named):
    """An input whose arithmetic overflows, underflows or is out of range ends in one
    refusal line that names what to change, with no traceback and no warning."""
    config = write_config(tmp_path, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([*argv, "--config", config])
    out, err = capsys.readouterr()
    assert rc == code and out == ""
    assert err.startswith("numerical failure: " if code == cli.EXIT_NUMERICAL else "error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert all(name in err for name in named), err


def test_dx_count_refused_before_any_array(capsys, tmp_path):
    """A count of 2^40 separations would ask for an 8 TiB work buffer: refused first."""
    config = write_config(tmp_path)
    tracemalloc.start()
    try:
        rc = cli.main(["visibility", "--config", config, "--dx-count", str(1 << 40)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == cli.EXIT_VALIDATION and capsys.readouterr().err.startswith("error: --dx-count")
    assert peak < 1 << 20


def test_visibility_exposure_overflow_decays_to_zero_without_warning(capsys, tmp_path):
    """eta * t3 overflows to inf for t3 = 1e300, and exp(-inf) is the 0.0 that every
    exposure above about 745 already gives."""
    config = write_config(tmp_path, t3=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["visibility", "--config", config, "--dx-count", "3", "--tint-count", "2"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_OK and err == ""
    rows = [line.split(",")[1:] for line in out.splitlines()[1:]]
    assert len(rows) == 3 and all(cell == "0.00000000000e+00" for row in rows for cell in row)


def test_visibility_beyond_the_rule_reach_refused(capsys, tmp_path):
    """At 3e-4 m the default axis reaches dx T = 0.45 m K, past the 0.178 m K where the
    stored rule's error bound passes QUADRATURE_RTOL on thermal emission."""
    config = write_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["visibility", "--config", config, "--dx-min", "3e-4", "--dx-max", "3e-4",
                       "--dx-count", "1"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_NUMERICAL and out == ""
    assert err.startswith("numerical failure: channel 'thermal_emission' not converged: "
                          "the 1024-node rule's error bound is ")
    assert "up to 0.0003 m; reduce the largest separation" in err
    assert "n_nodes" not in err and "Warning" not in err


@pytest.mark.parametrize("key", ["radius", "t_environment"])
def test_visibility_subnormal_key_answered(capsys, tmp_path, key):
    """R / c and k T underflow to 0 at 5e-324; the channel's rate ceiling is taken in
    logarithms of each factor, so the surface is computed: every cell finite."""
    config = write_config(tmp_path, **{key: 5e-324})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["visibility", "--config", config, "--dx-count", "3", "--tint-count", "2"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_OK and err == ""
    cells = [float(cell) for line in out.splitlines()[1:] for cell in line.split(",")[1:]]
    assert len(cells) == 6 and all(0.0 <= cell <= 1.0 for cell in cells)


@pytest.mark.parametrize("mass", [1e-300, 5e-324, 1e-28])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_budget_mass_below_one_nucleon_refused_by_name(capsys, tmp_path, mass, fmt):
    config = write_config(tmp_path, mass=mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["budget", "--config", config, "--format", fmt])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION and out == ""
    assert err == ("error: mass must be at least one atomic mass unit (1.6605390666e-27 kg) to "
                   f"count the nucleons of the collapse-rate bound, got mass={mass!r}\n")


def _child(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports ``nanoramsey`` from ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120,
                          **kwargs)


def _modules_after_import(module: str, *packages: str) -> set[str]:
    """The modules of ``packages`` that ``import module`` loads in a fresh interpreter."""
    code = (f"import json, sys, {module}; print(json.dumps("
            f"[m for m in sys.modules if m.split('.')[0] in {packages!r}]))")
    return set(json.loads(_child("-c", code, check=True).stdout))


def test_cli_import_loads_no_scipy():
    # the test process itself imports scipy through the oracles
    assert _modules_after_import("nanoramsey.cli", "scipy") == set()


def test_cli_import_loads_no_numpy_polynomial():
    """Only the two stored Gauss-Legendre rules are read; no rule is computed."""
    loaded = _modules_after_import("nanoramsey.cli", "numpy")
    assert "numpy" in loaded
    assert not {m for m in loaded if m.startswith("numpy.polynomial")}


def test_constants_import_loads_no_numpy():
    assert _modules_after_import("nanoramsey.constants", "numpy") == set()


def test_package_import_loads_only_what_it_names():
    """``import nanoramsey`` loads no submodule and no numpy; the CLI loads all nine."""
    loaded = {module: _modules_after_import(module, "nanoramsey", "numpy")
              for module in ("nanoramsey", "nanoramsey.cli")}
    assert loaded["nanoramsey"] == {"nanoramsey"}
    submodules = {m for m in loaded["nanoramsey.cli"] if m.startswith("nanoramsey.")}
    assert submodules == {f"nanoramsey.{name}" for name in (
        "budget", "cli", "constants", "decoherence", "dicke", "dynamics", "grid", "io", "params")}


class TestProcessLifetime:
    """The CLI freezes its import heap; the library modules leave the collector alone."""

    def test_cli_import_freezes_the_heap(self):
        code = "import gc, nanoramsey.cli; print(gc.get_freeze_count(), gc.isenabled())"
        frozen, enabled = _child("-c", code, check=True, text=True).stdout.split()
        assert int(frozen) > 0 and enabled == "True"

    def test_library_import_freezes_nothing(self):
        code = ("import gc, nanoramsey, nanoramsey.grid, nanoramsey.decoherence; "
                "print(gc.get_freeze_count(), gc.isenabled())")
        assert _child("-c", code, check=True, text=True).stdout.split() == ["0", "True"]

    @pytest.mark.parametrize("argv, code", [
        (["budget", "--out", "{out}"], cli.EXIT_OK),
        (["dicke", "--l", "12", "--format", "json"], cli.EXIT_OK),
        (["sweep"], cli.EXIT_VALIDATION),           # --param missing
        (["certify"], cli.EXIT_NUMERICAL),          # paper scale is beyond the grid
    ], ids=["budget-out", "dicke-json", "usage-error", "numerical-failure"])
    def test_spawned_command_matches_in_process(self, capsys, config, tmp_path, argv, code):
        """stdout or the --out file, stderr and exit code, byte for byte."""
        def command(out):
            return [arg.format(out=out) for arg in [*argv, "--config", config]]

        spawned = _child("-m", "nanoramsey.cli", *command(tmp_path / "spawned.out"))
        try:
            rc = cli.main(command(tmp_path / "in_process.out"))
        except SystemExit as exc:                   # argparse's usage error
            rc = exc.code
        out, err = capsys.readouterr()
        assert spawned.returncode == rc == code
        assert spawned.stdout == out.encode() and spawned.stderr == err.encode()
        if "--out" in argv:
            assert out == ""
            assert (tmp_path / "spawned.out").read_bytes() == \
                (tmp_path / "in_process.out").read_bytes() != b""
        else:
            assert (out == "") == (code != cli.EXIT_OK)
