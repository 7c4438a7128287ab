import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import paper_config_text
from nanoramsey import cli

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


class TestFringeIsSweep:
    def test_csv_byte_identical(self, capsys, config):
        rc_f, fringe = run(capsys, "fringe", "--config", config, *SWEEP_ARGS)
        rc_s, sweep = run(capsys, "sweep", "--config", config, *SWEEP_ARGS,
                          "--outputs", "phi_g_rad,p0,delta_x_max_m")
        assert rc_f == rc_s == cli.EXIT_OK
        assert fringe == sweep
        assert fringe.splitlines()[0] == "param_value,phi_g_rad,p0,delta_x_max_m"
        assert len(fringe.splitlines()) == 8

    def test_json_differs_only_in_command(self, capsys, config):
        _, fringe = run(capsys, "fringe", "--config", config, *SWEEP_ARGS, "--format", "json")
        _, sweep = run(capsys, "sweep", "--config", config, *SWEEP_ARGS, "--format", "json",
                       "--outputs", "phi_g_rad,p0,delta_x_max_m")
        fringe, sweep = json.loads(fringe), json.loads(sweep)
        assert fringe["metadata"].pop("command") == "fringe"
        assert sweep["metadata"].pop("command") == "sweep"
        assert fringe == sweep


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


def test_cli_import_loads_no_scipy():
    # the test process itself imports scipy through the oracles
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, nanoramsey.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"
