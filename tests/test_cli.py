import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import PAPER_CONFIG, paper_config_text
from nanoramsey import cli, grid
from nanoramsey.decoherence import MAX_SEPARATIONS
from nanoramsey.params import parse_config_text

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
                pair = pair.copy()
                pair[1] = np.roll(pair[1], pair.shape[-1] // 4)
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
        (["--param", "b_gradient", "--values", "nan"], "--values must be finite, got nan"),
        (["--param", "theta", "--values", "0.1,-inf,nan"], "--values must be finite, got -inf"),
        (["--param", "mass", "--start", "1e-17", "--stop", "inf", "--count", "3"],
         "--stop must be finite, got inf"),
        (["--param", "mass", "--start", "nan", "--stop", "inf", "--count", "3", "--log"],
         "--start must be finite, got nan"),
    ], ids=["values-nan", "values-inf", "stop-inf", "start-nan-log"])
    def test_non_finite_sweep_flag_refused(self, capsys, tmp_path, flags, message, monkeypatch):
        """Refused by the flag before any point runs, not by the check a point then fails."""
        monkeypatch.setattr(cli, "_sweep_rows", lambda *args: pytest.fail("a point ran"))
        config = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["sweep", "--config", config, *flags])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, named", [
        (["--values", "0.1,0.2", "--start", "0", "--stop", "1", "--count", "5", "--log"],
         "--start, --stop, --count, --log"),
        (["--values", "0.1,0.2", "--start", "0"], "--start"),
        (["--values", "0.1,0.2", "--stop", "1"], "--stop"),
        (["--values", "0.1,0.2", "--count", "5"], "--count"),
        (["--values", "0.1,0.2", "--log"], "--log"),
        (["--values", "", "--start", "0", "--stop", "1", "--count", "3"], "--start, --stop, --count"),
    ], ids=["all", "start", "stop", "count", "log", "empty-values"])
    def test_values_with_range_flags_refused(self, capsys, tmp_path, flags, named, monkeypatch):
        """--values next to a range flag is refused by name, not run with either dropped."""
        monkeypatch.setattr(cli, "_sweep_rows", lambda *args: pytest.fail("a point ran"))
        rc = cli.main(["sweep", "--config", write_config(tmp_path), "--param", "theta", *flags])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: --values takes no range flags, got {named}\n"

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
    assert err == ("error: mass, g_nv, b_gradient and t3 overflow the twisting coefficient, "
                   "got mass=1e-290, g_nv=2.0028, b_gradient=10000000.0, t3=0.0001\n")


@pytest.mark.parametrize("argv, config_text, message", [
    (["dicke", "--l", "0"], paper_config_text(), "l must lie in [1, 30]"),
    (["dicke", "--l", "31"], paper_config_text(), "l must lie in [1, 30]"),
    (["dicke", "--l", "3"], paper_config_text(t1=2.6e-5),
     "collective final state is separable only for balanced sequences"),
    (["visibility"], paper_config_text(radius=None),
     "decoherence model needs the object radius; set the radius key"),
    (["budget"], paper_config_text() + "= 5\n", f"line {len(PAPER_CONFIG) + 1}: empty key"),
    (["sweep", "--param", "t1", "--start", "2e-5", "--stop", "9e-5", "--count", "5000"], paper_config_text(),
     "pulse times must satisfy 0 < t1 < t2 < t3 after jitter, got 7.500300060012002e-05, "
     "7.500000000000001e-05, 0.0001"),
    (["sweep", "--param", "theta"], paper_config_text(), "pass --values or all of --start/--stop/--count"),
    (["sweep", "--param", "t4", "--values", "1"], paper_config_text(),
     "--param must be one of mass, radius, density, b_gradient, theta, t3, trap_omega, g_nv, t_internal, "
     "t_environment, t_cm, mw_frequency, pulse_duration, n_nucleons, g_earth, t1, t2"),
    (["dump-snapshots", "--times", "0.5"],
     (Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "snapshot.cfg").read_text(),
     "dump-snapshots with CSV output needs --out as a filename prefix"),
], ids=["dicke-l-0", "dicke-l-31", "dicke-unbalanced", "visibility-no-radius", "empty-key",
        "t1-sweep-out-of-order", "sweep-no-range", "sweep-unknown-param", "snapshots-csv-no-out"])
def test_input_refused_with_its_message(capsys, tmp_path, argv, config_text, message):
    """Each refusal ends the command with exit 1, nothing on stdout and its one line."""
    path = tmp_path / "run.cfg"
    path.write_text(config_text, encoding="utf-8")
    rc = cli.main([*argv, "--config", str(path)])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION == 1 and out == ""
    assert err == f"error: {message}\n"


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
    *(_refusal(_VISIBILITY, {key: 1e300}, cli.EXIT_VALIDATION, "with response 1e+300",
               "reduce the radius, the temperature or the response")
      for key in ("response_im", "response_mod_sq")),
    _refusal(["visibility", "--dx-count", str(MAX_SEPARATIONS + 1)], {}, cli.EXIT_VALIDATION,
             "--dx-count", f"got {MAX_SEPARATIONS + 1}"),
    *(_refusal(argv, {"g_nv": 1e300}, cli.EXIT_VALIDATION, "ratio inf", "g_nv=1e+300") for argv in _BUDGET),
    _refusal(["dicke", "--l", "3"], {"g_nv": 1e300}, cli.EXIT_VALIDATION, "twisting", "g_nv=1e+300"),
    _refusal(["sweep", "--param", "t1", "--values", "1e-5,2e-5"], {"g_nv": 1e300}, cli.EXIT_VALIDATION,
             "action phase", "g_nv=1e+300"),
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


@pytest.mark.parametrize("value", [-0.5, -1e-3])
@pytest.mark.parametrize("key", ["response_im", "response_mod_sq"])
def test_negative_response_refused_by_name(capsys, tmp_path, key, value):
    """A negative |.|^2, or a negative absorption that would make the visibility exceed 1,
    is the object's bad input, and is refused as one."""
    rc = cli.main([*_VISIBILITY, "--config", write_config(tmp_path, **{key: value})])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION and out == ""
    assert err == f"error: {key} must be >= 0\n"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--param", "theta", "--values", "0.1,abc"], "--values entry 'abc' is not a number"),
    (["dump-snapshots", "--times", "0.5, x", "--format", "json"], "--times entry 'x' is not a number"),
], ids=["sweep-values", "dump-snapshots-times"])
def test_unparsable_list_entry_refused_by_flag(capsys, tmp_path, argv, message):
    rc = cli.main([*argv, "--config", write_config(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION and out == ""
    assert err == f"error: {message}\n"


#: Each key of paper.cfg, and each response factor, takes each of these on each probed command.
_PROBED_KEYS = (*PAPER_CONFIG, "response_im", "response_mod_sq")
_BAD_VALUES = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, 1e-300, 5e-324, 1e20, 1e-20)
#: The grid commands run on the desk-scale config, where a refusal is about the changed key
#: and not about paper.cfg's scale.
_SNAPSHOT_CONFIG = parse_config_text(
    (Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "snapshot.cfg").read_text())
_PROBED = {
    "sweep": (PAPER_CONFIG, ["sweep", "--param", "theta", "--values", "0,0.5,1"]),
    "visibility": (PAPER_CONFIG, _VISIBILITY),
    "certify": (_SNAPSHOT_CONFIG, ["certify"]),
    "budget": (PAPER_CONFIG, _BUDGET[0]),
    "budget-json": (PAPER_CONFIG, _BUDGET[1]),
    "dicke": (PAPER_CONFIG, ["dicke", "--l", "3"]),
    "dump-snapshots": (_SNAPSHOT_CONFIG, ["dump-snapshots", "--times", "0.5", "--format", "json"]),
}


@pytest.mark.parametrize("command", _PROBED)
def test_every_key_at_every_bad_value(capsys, tmp_path, command):
    """Each of the 14 keys at each of ten bad or extreme values, with warnings as errors:
    the command answers with finite numbers (exit 0, or 2 for a budget report), or prints
    one refusal line, which names the key or its value, whether it exits 1 or 2."""
    base, argv = _PROBED[command]
    prefixes = {cli.EXIT_VALIDATION: "error: ", cli.EXIT_NUMERICAL: "numerical failure: "}
    config = tmp_path / "probe.cfg"
    failures = []
    for key in _PROBED_KEYS:
        for value in _BAD_VALUES:
            config.write_text("".join(f"{k} = {v!r}\n" for k, v in dict(base, **{key: value}).items()))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli.main([*argv, "--config", str(config)])
            out, err = capsys.readouterr()
            if rc == cli.EXIT_OK or (rc == cli.EXIT_NUMERICAL and command.startswith("budget") and out):
                failed = err != "" or re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE)
            elif rc not in prefixes or out or err.count("\n") != 1:
                failed = True
            else:
                failed = not (err.startswith(prefixes[rc]) and err.endswith("\n")) or (
                    key not in err and repr(value) not in err)
            if failed:
                failures.append(f"{key} = {value!r}: exit {rc}, stderr {err!r}")
    assert failures == []


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


#: Runs each argv of the JSON list on stdin through ``cli.main`` in this process, its address
#: space capped 1 GiB above what the imports left, so a flag without a ceiling raises
#: MemoryError here instead of paging the machine; prints [exit code, stderr] per argv.
_SIZE_PROBE = """
import io, json, os, resource, sys
from contextlib import redirect_stderr, redirect_stdout
from nanoramsey import cli
argvs = json.load(sys.stdin)
limit = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + (1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
results = []
for argv in argvs:
    err = io.StringIO()
    with redirect_stdout(io.TextIOWrapper(io.BytesIO())), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except BaseException as exc:        # what the command line would show as a traceback
            rc = f"uncaught {type(exc).__name__}: {exc}"
    results.append([rc, err.getvalue()])
print(json.dumps(results))
"""


def test_every_size_flag_refused_by_name(tmp_path):
    """Each flag that sizes an array, at 0, -1, 1, 2^31, 2^63 - 1 and 10^23, and each list flag
    empty and one entry past its ceiling: the command runs, or it exits with one line that
    names the flag, before any array of that size exists."""
    config = write_config(tmp_path)
    probes = []
    for value in ("0", "-1", "1", str(2**31), str(2**63 - 1), str(10**23)):
        probes += [
            ("--count", ["sweep", "--param", "theta", "--start", "0", "--stop", "1", "--count", value]),
            ("--tint-count", ["visibility", "--dx-count", "2", "--tint-count", value]),
            ("--dx-count", ["visibility", "--dx-count", value, "--tint-count", "2"]),
        ]
    for entries in (0, cli.MAX_SWEEP_POINTS + 1):
        probes.append(("--values", ["sweep", "--param", "theta", "--values", ",".join(["0.5"] * entries)]))
    for entries in (0, cli.MAX_FRAMES + 1):
        probes.append(("--times", ["dump-snapshots", "--format", "json", "--times", ",".join(["1"] * entries)]))
    probes.append(("--tint-count", ["visibility", "--dx-count", str(MAX_SEPARATIONS),
                                    "--tint-count", str(cli.MAX_CELLS // MAX_SEPARATIONS + 1)]))
    argvs = [[argv[0], "--config", config, *argv[1:]] for _, argv in probes]
    child = _child("-c", _SIZE_PROBE, input=json.dumps(argvs).encode(), check=True)
    failures = [f"{argv}: exit {rc}, stderr {err!r}"
                for (flag, argv), (rc, err) in zip(probes, json.loads(child.stdout))
                if rc != cli.EXIT_OK and not (rc == cli.EXIT_VALIDATION and err.startswith("error: ")
                                              and err.count("\n") == 1 and flag in err)]
    assert failures == []


def test_times_held_to_the_frame_budget_on_a_wide_grid(tmp_path):
    """Frames of a config whose momentum sizes the widest grid cost 32 times a 2048-point
    frame each: ``--times`` is refused by name past ``MAX_FRAME_POINTS`` on that grid, at
    ``MAX_FRAMES`` too, before any evolution, and one frame still runs."""
    config = write_config(tmp_path, b_gradient=4e6, theta=1.5667963267948966, t3=1e-4)
    params, seq, _, _ = cli._load_config(config)
    assert grid.snapshot_grid(params, seq).n_points == grid.MAX_POINTS
    most = cli.MAX_FRAME_POINTS // grid.MAX_POINTS
    counts = (1, most, most + 1, cli.MAX_FRAMES)
    argvs = [["dump-snapshots", "--config", config, "--format", "json", "--times", ",".join(["1"] * k)]
             for k in counts]
    child = _child("-c", _SIZE_PROBE, input=json.dumps(argvs).encode(), check=True)
    refusal = "error: --times takes at most {} entries on this config's {}-point grid, got {}\n"
    assert json.loads(child.stdout) == [
        [cli.EXIT_OK, ""], [cli.EXIT_OK, ""],
        *([cli.EXIT_VALIDATION, refusal.format(most, grid.MAX_POINTS, k)] for k in counts[2:])]


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
    assert err.endswith(" K already at the smallest separation, 0.0003 m\n")
    assert "n_nodes" not in err and "Warning" not in err


@pytest.mark.parametrize("dx_min, dx_max, t_environment, reach", [
    ("1e-9", "1e-6", 1e20, "at temperature 1e+20 K already at the smallest separation, 1e-09 m\n"),
    ("0", "3e-4", 300.0, "at temperature 1500.0 K on separations up to 0.0003 m; the largest that "
                         "passes is 9.999999999999999e-05 m\n"),
])
def test_quadrature_refusal_names_what_passes(capsys, tmp_path, dx_min, dx_max, t_environment,
                                              reach):
    """The bound grows with the separation: the refusal names the largest separation of the
    axis that passes, or says that even the smallest fails at that temperature."""
    config = write_config(tmp_path, t_environment=t_environment)
    rc = cli.main(["visibility", "--config", config, "--dx-linear", "--dx-min", dx_min,
                   "--dx-max", dx_max, "--dx-count", "4", "--tint-count", "2"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_NUMERICAL and out == "" and err.endswith(reach)
    assert "reduce the largest separation" not in err


def test_quadrature_refusal_ratio_stays_finite(capsys, config):
    """At 3e-4 m and 1500 K the bound itself overflows a float; the refusal gives its ratio
    to the rate at the smallest failing separation in mantissa and power of ten, which
    matches the log bound over the 4096-node reference rate."""
    from nanoramsey.decoherence import RULE_ORDER, _log_error_bound, default_model
    from nanoramsey.params import build_params
    from oracles import channel_rate_reference

    rc = cli.main(["visibility", "--config", config, "--dx-min", "1e-5", "--dx-max", "3e-4",
                   "--dx-count", "3", "--tint-count", "2"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_NUMERICAL and out == ""
    assert err.endswith(" K on separations up to 0.0003 m; the largest that passes is 5.477225575051662e-05 m\n")
    mantissa, exponent = re.search(r"error bound is (\d\.\d\d)e\+(\d+) relative", err).groups()
    printed = math.log10(float(mantissa)) + int(exponent)
    channel = next(ch for ch in default_model(build_params(PAPER_CONFIG), 1500.0) if ch.name == "thermal_emission")
    separation = np.array([3e-4])
    log_bound = _log_error_bound(channel, separation, RULE_ORDER)[0]
    assert log_bound > math.log(sys.float_info.max)
    want = (log_bound - math.log(channel_rate_reference(channel, separation, 4096)[0])) / math.log(10.0)
    assert printed == pytest.approx(want, abs=0.003)     # the mantissa's 3 digits


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


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports ``nanoramsey`` from ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _child(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports ``nanoramsey`` from ``src/``."""
    return subprocess.run([sys.executable, *args], env=_child_env(), capture_output=True, timeout=120,
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


def test_command_loads_no_argparse_or_locale(tmp_path):
    """The flag table needs neither; argparse loaded gettext and, through it, locale."""
    code = ("import json, sys, nanoramsey.cli; nanoramsey.cli.main(sys.argv[1:]); "
            "print(json.dumps(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))))")
    child = _child("-c", code, "budget", "--config", write_config(tmp_path),
                   "--out", str(tmp_path / "budget.txt"), check=True)
    assert json.loads(child.stdout) == [] and (tmp_path / "budget.txt").read_text()


#: Runs ``main`` on its arguments and writes the exit code and the minor page faults that
#: ``main`` took (RUSAGE_SELF) to stderr.
_MAIN_FAULTS = """
import resource, sys
from nanoramsey import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[1:])
sys.stderr.write(f"{code} {resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before}")
"""
PAPER_CFG = str(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "paper.cfg")


@pytest.mark.parametrize("argv", [
    ("--param", "theta", "--start", "0.0", "--stop", "1.5", "--count", "30000", "--out", "theta.csv"),
    ("--param", "t1", "--start", "2.495e-05", "--stop", "2.505e-05", "--count", "20000", "--format", "json"),
], ids=["theta-csv-file", "t1-json-stdout"])
def test_sweep_faults_in_no_whole_table(tmp_path, argv):
    """The benchmark's two sweeps in a fresh interpreter stay under 1200 minor faults in
    ``main``: the document is written as its 64 KiB pieces are made, and the formatter's
    scratch is reused block by block, so neither the formatted table (3 MB on theta) nor
    the document is ever faulted in whole. Measured 392 (theta) and 588 (t1), against
    1653 and 1374 when each document was built whole."""
    child = _child("-c", _MAIN_FAULTS, "sweep", "--config", PAPER_CFG, *argv, cwd=tmp_path)
    code, faults = map(int, child.stderr.split())
    assert code == cli.EXIT_OK
    assert len(child.stdout or (tmp_path / "theta.csv").read_bytes()) > 2_500_000
    assert faults < 1200


def test_sweep_whose_last_block_fails_writes_nothing():
    """All of a sweep's physics runs before its first byte is written: t1 runs past t2 in
    the last of three blocks, and stdout stays empty."""
    child = _child("-m", "nanoramsey.cli", "sweep", "--config", PAPER_CFG, "--param", "t1",
                   "--start", "1e-06", "--stop", "7.6e-05", "--count", "9000")
    assert child.returncode == cli.EXIT_VALIDATION
    assert child.stderr.startswith(b"error: pulse times must satisfy 0 < t1 < t2 < t3")
    assert child.stdout == b""


@pytest.mark.parametrize("lines", [1, 0], ids=["head-1", "unread"])
def test_reader_that_closes_stdout_early(config, lines):
    """``nanoramsey sweep ... | head -1``: the reader closes the pipe with most of the 2.7 MB
    table unwritten. The command exits 0 with nothing on stderr, as it did when it wrote text
    (one partial write(2) that never raised), also when the reader reads no byte at all."""
    argv = ["sweep", "--config", config, "--param", "theta", "--start", "0", "--stop", "1.5",
            "--count", "30000"]
    proc = subprocess.Popen([sys.executable, "-m", "nanoramsey.cli", *argv], env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    read = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (cli.EXIT_OK, b"")
    assert read == [b"param_value,phi_g_rad,p0,delta_x_max_m,visibility\n"][:lines]


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
        except SystemExit as exc:                   # the parser's usage error
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
