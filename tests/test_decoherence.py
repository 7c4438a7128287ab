import importlib.util
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fnmatch import fnmatch
from functools import lru_cache
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_legendre

from conftest import PAPER_CONFIG
from nanoramsey import cli, decoherence, dynamics
from nanoramsey.constants import DEFAULT_RESPONSE_MOD_SQ, HBAR, K_BOLTZMANN, LIGHT_SPEED
from nanoramsey.decoherence import (
    MAX_SATURATED_RATE,
    QUADRATURE_RTOL,
    RULE_ORDER,
    BlackbodyChannel,
    QuadratureError,
    _channel_rate,
    _checked_channel_rate,
    _log_error_bound,
    _stored_rule,
    _weighted_spectrum,
    angular_factor,
    default_model,
    localization_rate_profile,
    visibility_surface,
)
from nanoramsey.dynamics import PulseSequence
from nanoramsey.io import SIZE_BUDGET
from nanoramsey.params import build_params
from oracles import (
    TIME_NODES,
    _leggauss_rule,
    angular_factor_reference,
    channel_rate_reference,
    dephasing_exposures,
    gauss_nodes,
    localization_rate_adaptive,
    mc_sphere_kick_average,
    visibility_surface_reference,
)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


class TestLocalizationRate:
    @pytest.mark.parametrize("delta_x", [1e-9, 1e-7, 1e-6, 1e-5])
    def test_gauss_legendre_matches_adaptive_oracle(self, paper_params, delta_x):
        model = default_model(paper_params, PAPER_CONFIG["t_internal"])
        assert localization_rate_profile([model], [delta_x])[0, 0] == pytest.approx(
            localization_rate_adaptive(model, delta_x), rel=1e-9)

    def test_under_resolved_channel_raises(self, paper_params):
        model = default_model(paper_params, t_internal=1500.0)
        with pytest.raises(QuadratureError, match="not converged") as refused:
            localization_rate_profile([model], [1e-3])
        assert str(refused.value).endswith("300.0 K already at the smallest separation, 0.001 m")

    def test_refusal_names_the_largest_separation_that_passes(self, paper_params):
        """The 300 K absorption channel is refused first: dx T = 0.003 and 0.03 m K pass, 0.3 m K
        does not."""
        model = default_model(paper_params, t_internal=1500.0)
        with pytest.raises(QuadratureError, match="not converged") as refused:
            localization_rate_profile([model], [1e-3, 1e-5, 1e-4])
        assert str(refused.value).endswith("on separations up to 0.001 m; the largest that "
                                           "passes is 0.0001 m")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_rate_raises(self, paper_params):
        """A subnormal k_B T makes every Planck weight NaN; NaN passes no bound, and the
        refusal names the temperature instead of asking for more nodes."""
        model = default_model(paper_params, t_internal=1e-300)
        with pytest.raises(QuadratureError, match="not converged: its rate is not finite "
                                                  "at temperature 1e-300 K"):
            localization_rate_profile([model], [1e-7])

    def test_models_share_channels_and_an_empty_model_sums_to_zero(self, paper_params):
        """One column per model, in order; a model with no channels forks nothing."""
        hot, cold = default_model(paper_params, 900.0), default_model(paper_params, PAPER_CONFIG["t_internal"])
        eta = localization_rate_profile([hot, (), cold], [1e-8, 1e-7])
        assert eta.shape == (2, 3) and eta[:, 1].tolist() == [0.0, 0.0]
        assert_bit_equal(eta[:, 0], localization_rate_profile([hot], [1e-8, 1e-7])[:, 0])
        assert_bit_equal(eta[:, 2], localization_rate_profile([cold], [1e-8, 1e-7])[:, 0])
        assert localization_rate_profile([()], [1e-7]).tolist() == [[0.0]]

    def test_nan_visibility_refused(self):
        with pytest.raises(ValueError, match="must lie in"):
            decoherence.VisibilitySurface(np.array([1e-7, 2e-7]), np.array([300.0]),
                                          np.array([[0.5], [np.nan]]), 1e-4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta_x", [math.nan, math.inf, -1e-9])
    def test_separation_outside_bounds_refused(self, paper_params, delta_x):
        with pytest.raises(ValueError, match="delta_x must be finite and >= 0"):
            localization_rate_profile([default_model(paper_params, PAPER_CONFIG["t_internal"])], [1e-7, delta_x])

    @pytest.mark.parametrize("temperature, radius", [
        (math.nan, 1e-7), (math.inf, 1e-7), (300.0, math.nan), (300.0, math.inf),
    ])
    def test_channel_outside_bounds_refused(self, temperature, radius):
        field = "temperature" if not math.isfinite(temperature) else "radius"
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BlackbodyChannel("absorption", "absorption", temperature, radius)

    @pytest.mark.parametrize("temperature, radius, message", [
        (-5.0, 1e-7, "temperature must be finite and >= 0, got -5.0"),
        (math.nan, 0.0, "temperature must be finite and >= 0, got nan"),
        (300.0, 0.0, "radius must be finite and > 0, got 0.0"),
        (300.0, -1e-7, "radius must be finite and > 0, got -1e-07"),
    ], ids=["negative-temperature", "temperature-first", "zero-radius", "negative-radius"])
    def test_channel_refusal_names_the_field_and_value(self, temperature, radius, message):
        with pytest.raises(ValueError) as refused:
            BlackbodyChannel("absorption", "absorption", temperature, radius)
        assert str(refused.value) == message

    def test_unknown_channel_kind_refused(self):
        with pytest.raises(ValueError) as refused:
            BlackbodyChannel("laser", "laser", 300.0, 1e-7)
        assert type(refused.value) is ValueError
        assert str(refused.value) == "unknown blackbody channel kind 'laser'"

    @pytest.mark.parametrize("visibility, message", [
        (np.full((1, 2), 0.5), "visibility matrix shape must match the axes"),
        (np.array([[0.5], [1.0 + 2**-52]]), "visibility entries must lie in [0, 1]"),
        (np.array([[-5e-324], [0.5]]), "visibility entries must lie in [0, 1]"),
    ], ids=["shape", "above-one", "below-zero"])
    def test_surface_record_refusal(self, visibility, message):
        axes = np.array([1e-7, 2e-7]), np.array([300.0])
        with pytest.raises(ValueError) as refused:
            decoherence.VisibilitySurface(*axes, visibility, 1e-4)
        assert type(refused.value) is ValueError and str(refused.value) == message
        decoherence.VisibilitySurface(*axes, np.array([[0.0], [1.0]]), 1e-4)     # the bounds pass

    @pytest.mark.parametrize("dx, tins", [([], [300.0]), ([1e-7], []), ([], [])])
    def test_empty_surface_axis_refused(self, paper_params, dx, tins):
        with pytest.raises(ValueError) as refused:
            visibility_surface(paper_params, dx, tins, 1e-4)
        assert type(refused.value) is ValueError and str(refused.value) == "axes must be non-empty"


class TestSaturatedRateCeiling:
    """A channel whose rate at infinite separation passes MAX_SATURATED_RATE is refused when
    it is built, before any quadrature, so numpy never overflows mid-integral."""

    @staticmethod
    def saturated_rate(kind, temperature, radius, response):
        p, c = decoherence._SATURATION[kind]
        theta = K_BOLTZMANN * temperature / HBAR
        return c * response * theta * (radius * theta / LIGHT_SPEED) ** p

    @pytest.mark.parametrize("kind, temperature", [("absorption", 300.0), ("emission", 1500.0),
                                                   ("scattering", 300.0)])
    def test_closed_form_is_the_planck_integral(self, kind, temperature):
        channel = BlackbodyChannel(kind, kind, temperature, 1e-7, 0.38)
        lo, hi = channel.support()
        integral = mpmath.quad(lambda w: channel.rate_density(np.array([float(w)]))[0],
                               mpmath.linspace(lo, hi, 9))
        assert float(integral) == pytest.approx(self.saturated_rate(kind, temperature, 1e-7, 0.38),
                                                rel=1e-9)

    @pytest.mark.parametrize("kind, temperature", [("emission", 1e33), ("scattering", 300.0)])
    def test_refused_just_past_the_ceiling(self, kind, temperature):
        p, _ = decoherence._SATURATION[kind]
        edge = 1e-7 * (MAX_SATURATED_RATE / self.saturated_rate(kind, temperature, 1e-7, 1e-3)) ** (1.0 / p)
        BlackbodyChannel(kind, kind, temperature, 0.99 * edge)
        with pytest.raises(ValueError, match=re.escape(f"radius {1.01 * edge!r} m at temperature")):
            BlackbodyChannel(kind, kind, temperature, 1.01 * edge)


# -- the masked kernel against the whole-array reference, bit for bit ----------

#: The series switch at |z| = 0.1 and its neighbours, signed zeros and non-finite values.
EDGES = [0.0, -0.0, 0.1, -0.1, np.nextafter(0.1, 0.0), np.nextafter(0.1, 1.0),
         np.nextafter(-0.1, 0.0), np.nextafter(-0.1, -1.0), 1e-300, 5e-324, 1e300,
         np.nan, -np.nan, np.inf, -np.inf]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAngularFactorKernel:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=40),
                      elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_arrays_bit_equal(self, z):
        assert_bit_equal(angular_factor(z), angular_factor_reference(z))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 3000),
                      elements=st.floats(-50.0, 50.0)))
    def test_kick_range_bit_equal(self, z):
        assert_bit_equal(angular_factor(z), angular_factor_reference(z))

    @pytest.mark.parametrize("z", EDGES)
    def test_zero_dim_edges(self, z):
        got = angular_factor(np.float64(z))
        assert got.ndim == 0
        assert_bit_equal(got, angular_factor_reference(np.float64(z)))

    def test_edges_in_one_array(self):
        z = np.array(EDGES * 3).reshape(5, 9)
        assert_bit_equal(angular_factor(z), angular_factor_reference(z))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(allow_nan=False)))
    def test_even(self, z):
        assert_bit_equal(angular_factor(-z), angular_factor(z))


ROOT = Path(__file__).resolve().parents[1]


def test_np_sin_is_libm_on_benchmark_surfaces(monkeypatch, tmp_path):
    """The surface bytes rest on np.sin being libm's sin, element by element (see
    angular_factor). Check it on every argument np.sin receives inside angular_factor
    for the benchmark's visibility commands (variant 0: 200 x 100 and 50 x 50), so a
    numpy build that breaks it fails here by name rather than in a golden byte. The
    counts sit in shared memory, so the forked processes that integrate most of the
    channels add theirs too."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    counts = multiprocessing.Array("q", 2)     # sines checked, sines that differ

    def checked_angular_factor(z):
        y = np.pi * (z[np.abs(z) >= 0.1] / np.pi)      # the sin arguments, as angular_factor forms them
        libm = np.fromiter(map(math.sin, y.tolist()), float, y.size)
        differ = int(np.count_nonzero(_bits(np.sin(y)) != _bits(libm)))
        with counts.get_lock():
            counts[0] += y.size
            counts[1] += differ
        return angular_factor(z)

    monkeypatch.setattr(decoherence, "angular_factor", checked_angular_factor)
    monkeypatch.chdir(ROOT)
    for cmd in workloads.commands("surface", 0):
        assert cli.main([*cmd.argv, "--out", str(tmp_path / cmd.name)]) == 0
    assert counts[0] > 10_000_000       # both whole surfaces went through the hook
    assert counts[1] == 0
    with pytest.raises(ChildProcessError):      # and every worker was reaped
        os.waitpid(-1, os.WNOHANG)


#: Run in a child interpreter: the OpenBLAS core type numpy's BLAS runs on, and the raw
#: eta of every column of a 50 x 7 surface, as JSON on stdout.
_ETA_ON_THIS_KERNEL = """
import ctypes, json
import numpy as np
from nanoramsey.decoherence import default_model, localization_rate_profile
from nanoramsey.params import build_params

def core():
    for line in open("/proc/self/maps"):
        if "openblas" in line:
            lib = ctypes.CDLL(line.split()[-1])
            for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                         "openblas_get_corename"):
                if hasattr(lib, name):
                    getattr(lib, name).restype = ctypes.c_char_p
                    return getattr(lib, name)().decode()
    return None

params = build_params(%r)
dx = np.geomspace(1e-9, 1e-6, 50)
eta = localization_rate_profile([default_model(params, t) for t in np.linspace(300, 1500, 7)], dx)
print(json.dumps({"core": core(), "eta": eta.tobytes().hex()}))
"""


def test_surface_bits_depend_on_the_blas_kernel_by_a_few_ulp():
    """The matrix-vector product of each channel sums 1024 positive terms in the order its
    OpenBLAS kernel picks, so another kernel moves the raw eta by a few ulp (14 at most
    measured, Sandybridge against SkylakeX; the a-priori bound for two orders is about
    2 x 1023 ulp) and with them printed digits (docs/physics-notes.md, "Which bytes
    depend on the machine"). Forked workers inherit the parent's kernel."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("the loaded BLAS library is found through /proc/self/maps")

    def run(coretype):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", _ETA_ON_THIS_KERNEL % (dict(PAPER_CONFIG),)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        got = json.loads(out.stdout)
        return got["core"], np.frombuffer(bytes.fromhex(got["eta"]))

    default_core, default_eta = run(None)
    other_core, other_eta = run("Sandybridge")
    if default_core is None or default_core == other_core:
        pytest.skip(f"no second OpenBLAS kernel to compare (default {default_core!r})")
    ulps = np.abs(_bits(other_eta) - _bits(default_eta))
    assert default_eta.size == 350 and np.all(default_eta > 0.0)
    assert ulps.max() <= 32, f"{other_core} against {default_core}: {ulps.max()} ulp"


class TestBlockedQuadratureBits:
    """The blocked kernel on the stored rule against one whole kick matrix on
    a rule computed by ``leggauss``. m = 7, 33 and 50 leave partial blocks and 200
    spans many; 33 (and 9, 17) leave a one-row last block, where a matrix-vector
    product taken block by block moves the last bits. n_nodes = 512 and 64 run the
    surface on a computed rule of that order in place of the stored one."""

    @pytest.mark.parametrize("n_nodes", [512, 64, 1024])
    @pytest.mark.parametrize("m", [1, 7, 33, 50, 200])
    def test_visibility_surface_bit_equal(self, paper_params, m, n_nodes, monkeypatch):
        if n_nodes != RULE_ORDER:
            monkeypatch.setattr(decoherence, "RULE_ORDER", n_nodes)
            monkeypatch.setattr(decoherence, "_stored_rule", lambda: _leggauss_rule(n_nodes))
        dx = np.geomspace(1e-9, 1e-6, m)
        tins = np.linspace(300.0, 1500.0, 3)
        t3 = PAPER_CONFIG["t3"]
        got = visibility_surface(paper_params, dx, tins, t3)
        want = visibility_surface_reference(paper_params, dx, tins, t3, n_nodes=n_nodes)
        assert_bit_equal(got.visibility, want.visibility)

    @pytest.mark.parametrize("n_nodes", [512, 1024, 64, 100])
    @pytest.mark.parametrize("m", [1, 9, 17, 33, 64])
    def test_channel_rate_bit_equal(self, paper_params, m, n_nodes):
        dx = np.geomspace(1e-9, 1e-6, m)
        rule = _stored_rule() if n_nodes == RULE_ORDER else _leggauss_rule(n_nodes)
        for channel in default_model(paper_params, 900.0):
            work = np.empty(dx.size * n_nodes)
            assert_bit_equal(_channel_rate(_weighted_spectrum(channel, rule), dx, work),
                             channel_rate_reference(channel, dx, n_nodes))


class TestForkedShares:
    """visibility_surface integrates its distinct channels in shares, one per CPU, in
    forked processes (``_channel_rates``). Every case gives the serial walk's bits
    or its first refusal, and leaves no child unreaped."""

    SURFACES = {"200x100": (200, 100), "50x50": (50, 50)}     # the benchmark's, variant 0
    SHARE_COUNT = staticmethod(decoherence._share_count)

    @pytest.fixture(autouse=True)
    def every_child_reaped(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _surface(params, shares, monkeypatch, dx, tins):
        """The visibility on ``shares`` shares at most; None: one per CPU, as the CLI runs."""
        monkeypatch.setattr(decoherence, "_share_count", TestForkedShares.SHARE_COUNT
                            if shares is None else lambda n, m: min(shares, n))
        return visibility_surface(params, dx, tins, PAPER_CONFIG["t3"]).visibility

    @pytest.mark.parametrize("surface", SURFACES)
    def test_benchmark_surfaces_equal_the_serial_walk(self, paper_params, surface, monkeypatch):
        m, k = self.SURFACES[surface]
        axes = np.geomspace(1e-9, 1e-6, m), np.linspace(300.0, 1500.0, k)
        serial = self._surface(paper_params, 1, monkeypatch, *axes)
        for shares in (None, 3):
            assert_bit_equal(self._surface(paper_params, shares, monkeypatch, *axes), serial)

    @pytest.mark.parametrize("shares", [2, 3])
    def test_each_channel_integrated_once(self, paper_params, shares, monkeypatch):
        """This process integrates only share 0, and forms only share 0's spectra; every
        other rate and spectrum comes from a child."""
        parent, checked = os.getpid(), decoherence._checked_channel_rate
        density = BlackbodyChannel.rate_density
        here, spectra = [], []

        def counted(channel, *args):
            if os.getpid() == parent:
                here.append(channel)
            return checked(channel, *args)

        def counted_density(channel, omega):
            if os.getpid() == parent:
                spectra.append(channel)
            return density(channel, omega)

        monkeypatch.setattr(decoherence, "_checked_channel_rate", counted)
        monkeypatch.setattr(BlackbodyChannel, "rate_density", counted_density)
        tins = np.linspace(300.0, 1500.0, 10)
        self._surface(paper_params, shares, monkeypatch, np.geomspace(1e-9, 1e-6, 20), tins)
        distinct = list(dict.fromkeys(ch for t in tins for ch in default_model(paper_params, t)))
        assert here == distinct[::shares]
        assert spectra == distinct[::shares]

    def test_rule_read_before_the_first_fork(self, paper_params, monkeypatch):
        """The stored rule is loaded once, in this process, before any child is forked, so
        that no share loads it again."""
        fork, cached = os.fork, []

        def counted_fork():
            cached.append(decoherence._stored_rule.cache_info().currsize)
            return fork()

        decoherence._stored_rule.cache_clear()
        monkeypatch.setattr(os, "fork", counted_fork)
        self._surface(paper_params, 2, monkeypatch, np.geomspace(1e-9, 1e-6, 20),
                      np.linspace(300.0, 1500.0, 4))
        assert cached == [1]
        assert decoherence._stored_rule.cache_info().misses == 1

    @pytest.mark.parametrize("shares", [1, 3])
    @pytest.mark.parametrize("m", [1, 7, 33, 50, 200])
    def test_blocked_shapes_equal_the_reference(self, paper_params, m, shares, monkeypatch):
        dx, tins = np.geomspace(1e-9, 1e-6, m), np.linspace(300.0, 1500.0, 3)
        want = visibility_surface_reference(paper_params, dx, tins, PAPER_CONFIG["t3"])
        assert_bit_equal(self._surface(paper_params, shares, monkeypatch, dx, tins),
                         want.visibility)

    # Up to 3e-4 m the emission channels at 600 and 700 K are refused and every other one is
    # not. The distinct channels are absorption, scattering, then emission per column, so
    # over two shares the first refused channel (600 K) is the child's with these T_int
    # and the parent's (share 0) with the second set, its 700 K twin the other's.
    @pytest.mark.parametrize("tins", [[100.0, 200.0, 300.0, 600.0, 700.0], [100.0, 200.0, 600.0, 700.0]],
                             ids=["child-share", "parent-share"])
    @pytest.mark.parametrize("shares", [2, 3])
    def test_first_refusal_is_the_serial_one(self, paper_params, tins, shares, monkeypatch):
        dx = np.geomspace(1e-9, 3e-4, 5)
        with pytest.raises(QuadratureError) as serial:
            self._surface(paper_params, 1, monkeypatch, dx, tins)
        assert "1.24e-02 relative" in str(serial.value)       # the 600 K channel's bound
        with pytest.raises(QuadratureError) as split:
            self._surface(paper_params, shares, monkeypatch, dx, tins)
        assert str(split.value) == str(serial.value)

    @pytest.mark.parametrize("dies_at", [0, 2])
    def test_child_killed_mid_share(self, paper_params, dies_at, monkeypatch):
        """A child that dies before its first or third channel sends nothing or two rates;
        this process computes the rest, to the same bits."""
        dx, tins = np.geomspace(1e-9, 1e-6, 33), np.linspace(300.0, 1500.0, 12)
        serial = self._surface(paper_params, 1, monkeypatch, dx, tins)
        parent, checked = os.getpid(), decoherence._checked_channel_rate
        calls = iter(range(1_000))

        def dying(*args):
            if os.getpid() != parent and next(calls) == dies_at:
                os._exit(3)
            return checked(*args)

        monkeypatch.setattr(decoherence, "_checked_channel_rate", dying)
        assert_bit_equal(self._surface(paper_params, 2, monkeypatch, dx, tins), serial)

    def test_one_work_buffer_for_the_missing_channels(self, paper_params, monkeypatch):
        """A child that dies before its first channel leaves its whole share here; this
        process integrates all of it in one work buffer, to the serial walk's bits."""
        dx, tins = np.geomspace(1e-9, 1e-6, 33), np.linspace(300.0, 1500.0, 12)
        serial = self._surface(paper_params, 1, monkeypatch, dx, tins)
        parent, checked = os.getpid(), decoherence._checked_channel_rate
        here, buffers = [], []      # each buffer held here, so that no later one takes its id

        def dying(channel, dx, rule, work):
            if os.getpid() != parent:
                os._exit(3)
            here.append(channel)
            if not any(work is seen for seen in buffers):
                buffers.append(work)
            return checked(channel, dx, rule, work)

        monkeypatch.setattr(decoherence, "_checked_channel_rate", dying)
        assert_bit_equal(self._surface(paper_params, 2, monkeypatch, dx, tins), serial)
        distinct = list(dict.fromkeys(ch for t in tins for ch in default_model(paper_params, t)))
        assert here == distinct[::2] + distinct[1::2]
        # share 0's, then one for the child's share
        assert [work.size for work in buffers] == [dx.size * RULE_ORDER] * 2

    def test_child_cut_off_mid_write(self, paper_params, monkeypatch):
        """A child killed while writing leaves part of a rate at the end of the pipe; that
        part is dropped and its channel computed here."""
        dx, tins = np.geomspace(1e-9, 1e-6, 33), np.linspace(300.0, 1500.0, 12)
        serial = self._surface(paper_params, 1, monkeypatch, dx, tins)
        parent, checked = os.getpid(), decoherence._checked_channel_rate
        calls = iter(range(1_000))

        def cut(*args):
            if os.getpid() == parent:
                return checked(*args)
            call = next(calls)
            if call == 2:
                raise QuadratureError("the share ends here")
            return checked(*args)[:None if call < 1 else 5]    # 5 of 33 floats of the second

        monkeypatch.setattr(decoherence, "_checked_channel_rate", cut)
        assert_bit_equal(self._surface(paper_params, 2, monkeypatch, dx, tins), serial)

    def test_interrupt_kills_and_reaps_every_child(self, paper_params, monkeypatch):
        parent, checked = os.getpid(), decoherence._checked_channel_rate

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60.0)            # a child still at work
            return checked(*args)

        monkeypatch.setattr(decoherence, "_checked_channel_rate", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self._surface(paper_params, 3, monkeypatch, np.geomspace(1e-9, 1e-6, 20),
                          np.linspace(300.0, 1500.0, 10))
        assert time.monotonic() - start < 30.0

    def test_failed_fork_leaves_the_share_to_the_walk(self, paper_params, monkeypatch):
        dx, tins = np.geomspace(1e-9, 1e-6, 17), np.linspace(300.0, 1500.0, 5)
        serial = self._surface(paper_params, 1, monkeypatch, dx, tins)

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        assert_bit_equal(self._surface(paper_params, 2, monkeypatch, dx, tins), serial)

    def test_no_fork_while_another_thread_runs(self, paper_params, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        dx, tins = np.geomspace(1e-9, 1e-6, 9), np.linspace(300.0, 1500.0, 4)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60.0,))
        other.start()
        try:
            alone = self._surface(paper_params, None, monkeypatch, dx, tins)
        finally:
            release.set()
            other.join(timeout=60.0)
        assert not other.is_alive()
        assert forks == []
        split = self._surface(paper_params, None, monkeypatch, dx, tins)
        assert len(forks) == min(len(os.sched_getaffinity(0)), 6) - 1
        assert_bit_equal(split, alone)

    def test_share_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert [decoherence._share_count(n, 200) for n in (1, 3, 102)] == [1, 3, 4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert decoherence._share_count(102, 200) == 1

    def test_shares_fit_in_the_size_budget(self, monkeypatch):
        """On 64 CPUs the shares' work buffers, one each, stay within ``io.SIZE_BUDGET``, and
        one more would not fit; no fewer shares run than fit. Nothing forks here."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert decoherence._share_count(124, decoherence.MAX_SEPARATIONS) == 2
        assert decoherence._share_count(102, 200) == 64
        buffer = 8 * RULE_ORDER          # bytes of a work buffer per separation
        for m in (1, 2, 200, 511, 512, 513, 4096, 5000, 8192, 8193, decoherence.MAX_SEPARATIONS):
            shares = decoherence._share_count(10**6, m)
            assert shares * buffer * m <= SIZE_BUDGET
            assert shares == 64 or (shares + 1) * buffer * m > SIZE_BUDGET
        assert decoherence._share_count(10**6, 4 * decoherence.MAX_SEPARATIONS) == 1    # the floor

    def test_channel_rates_cap_shares_by_their_separations(self, paper_params, monkeypatch):
        """``_channel_rates`` asks for shares by its channel count and its separations."""
        asked = []
        monkeypatch.setattr(decoherence, "_share_count", lambda n, m: asked.append((n, m)) or 1)
        localization_rate_profile([default_model(paper_params, 300.0)], np.geomspace(1e-9, 1e-6, 7))
        assert asked == [(3, 7)]

    def test_no_separations_take_no_share(self, paper_params, monkeypatch):
        """An empty separation axis takes one share, which forks nothing, and gives an empty
        rate table; over two shares the parent would split the children's bytes into rows of
        zero length."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert decoherence._share_count(6, 0) == 1
        models = [default_model(paper_params, t) for t in (300.0, 400.0)]
        assert localization_rate_profile(models, []).shape == (0, 2)


# -- the stored Gauss-Legendre rule --------------------------------------------

@pytest.mark.parametrize("n", [RULE_ORDER])
class TestStoredRules:
    def test_symmetric_and_weights_sum_to_two(self, n):
        nodes, weights = _stored_rule()
        assert nodes.shape == weights.shape == (n,)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(2.0, rel=1e-15)

    def test_integrates_even_monomials(self, n):
        # exact for degree <= 2n - 1. numpy's leggauss takes the weights from the
        # derivative at the nodes before their Newton step, so the relative
        # error grows with the degree: 2.4e-14 at x^2, 1.2e-11 at the top degree
        nodes, weights = _stored_rule()
        for k in range(n):
            exact = 2.0 / (2 * k + 1)
            got = float(np.dot(weights, nodes ** (2 * k)))
            assert got == pytest.approx(exact, rel=2e-14 * (2 * k + 1)), k
        assert float(np.dot(weights, nodes ** 2)) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_within_two_ulp_of_leggauss(self, n):
        for stored, computed in zip(_stored_rule(), leggauss(n)):
            assert np.all(np.abs(stored - computed) <= 2.0 * np.spacing(np.abs(computed)))

    def test_shipped_as_package_data(self, n):
        resource = resources.files("nanoramsey").joinpath(f"leggauss_{n}.npy")
        assert resource.is_file()
        with resource.open("rb") as f:
            rows = np.load(f)
        assert rows.dtype == np.float64 and rows.shape == (2, n)
        assert_bit_equal(rows, np.stack(_stored_rule()))


def test_package_data_glob_covers_stored_rules():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"][
        "nanoramsey"]
    assert any(fnmatch(f"leggauss_{RULE_ORDER}.npy", g) for g in globs)
    shipped = sorted(f.name for f in resources.files("nanoramsey").iterdir()
                     if fnmatch(f.name, "leggauss_*.npy"))
    assert shipped == [f"leggauss_{RULE_ORDER}.npy"]


# -- the a-priori error bound of the stored rule --------------------------------

#: Order of the reference rule the bound is checked against.
REFERENCE_ORDER = 4096


@lru_cache(maxsize=1)
def _reference_rule():
    return roots_legendre(REFERENCE_ORDER)


def reference_rate(channel, delta_x):
    """The channel's rate on scipy's 4096-node rule, from one whole kick matrix; 0 on an
    empty support, as at 0 K, where ``rate_density`` would give 0/0."""
    lo, hi = channel.support()
    if hi <= lo:
        return np.zeros_like(delta_x)
    nodes, weights = _reference_rule()
    half = 0.5 * hi
    omega = half * (nodes + 1.0)
    kick = angular_factor_reference(np.outer(delta_x, omega) / LIGHT_SPEED)
    return kick @ (channel.rate_density(omega) * half * weights)


def _ellipse(n_points):
    """x on the boundary of the bound's Bernstein ellipse."""
    u = decoherence._BERNSTEIN_RHO * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n_points))
    return 0.5 * (u + 1.0 / u)


#: The three channel kinds at the radius and responses of the default model.
KINDS = [("absorption", 300.0, 1e-3), ("emission", 1500.0, 1e-3),
         ("scattering", 300.0, DEFAULT_RESPONSE_MOD_SQ)]


class TestErrorBound:
    def test_ellipse_inside_the_first_bose_pole(self):
        pole = -1.0 + 2j * math.pi / (0.5 * decoherence.PLANCK_CUTOFF)     # w = 2 pi i
        root = np.sqrt(pole * pole - 1.0 + 0j)
        rho_pole = max(abs(pole + root), abs(pole - root))     # x = (u + 1/u) / 2, |u| >= 1
        assert rho_pole == pytest.approx(1.667, abs=1e-3)
        assert 1.0 < decoherence._BERNSTEIN_RHO < rho_pole

    @pytest.mark.parametrize("p", [3, 6])
    def test_planck_sup_literal_bounds_the_sampled_boundary(self, p):
        # the integrand is analytic inside the ellipse (w = 0 is removable), so by the
        # maximum-modulus principle its sup over the ellipse is its sup on the boundary
        w = 0.5 * decoherence.PLANCK_CUTOFF * (1.0 + _ellipse(400_001))
        sampled = float(np.max(np.abs(w**p / np.expm1(w))))
        sup, integral = decoherence._PLANCK_SHAPE[p]
        assert sampled <= sup <= sampled * (1.0 + 1e-3)
        assert integral == pytest.approx(float(mpmath.quad(lambda t: t**p / mpmath.expm1(t),
                                                           [0, mpmath.inf])), rel=1e-14)

    @pytest.mark.parametrize("kind, temperature, response", KINDS)
    @pytest.mark.parametrize("dx_t", [0.0, 1e-6, 1e-3, 0.05, 0.1])
    def test_majorant_bounds_the_integrand_on_the_ellipse(self, kind, temperature, response, dx_t):
        """Without its rho^(-2n) factor the bound is (64/15) M / (rho^2 - 1): M must dominate
        |f| sampled on the ellipse, f the channel's integrand on [-1, 1] as rate_density
        gives it. M takes each factor's sup on its own, so it overshoots by up to e^25 at
        0.1 m K, where M is about e^550: that moves the refusal by under 0.005 m K."""
        channel = BlackbodyChannel(kind, kind, temperature, 1e-7, response)
        rho = decoherence._BERNSTEIN_RHO
        dx = dx_t / temperature
        log_bound = _log_error_bound(channel, np.array([dx]))[0] + 2.0 * RULE_ORDER * math.log(rho)
        majorant = math.exp(log_bound) * (rho * rho - 1.0) * 15.0 / 64.0
        half = 0.5 * channel.support()[1]
        omega = half * (1.0 + _ellipse(20_001))
        z = omega * dx / LIGHT_SPEED
        with np.errstate(invalid="ignore", divide="ignore"):
            kick = np.where(z == 0.0, 0.0, 1.0 - np.sin(z) / z)
        sampled = float(np.max(np.abs(half * channel.rate_density(omega) * kick)))
        assert sampled <= majorant
        assert majorant <= math.exp(25.0) * sampled or sampled == majorant == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, temperature, response", KINDS)
    def test_bound_refuses_wherever_the_rule_misses(self, kind, temperature, response):
        """dx T from 0.05 to 0.3 m K: wherever the stored rule's value differs from the
        4096-node value by more than QUADRATURE_RTOL, the channel is refused."""
        channel = BlackbodyChannel(kind, kind, temperature, 1e-7, response)
        dx = np.linspace(0.05, 0.3, 126) / temperature
        rule = _stored_rule()
        missed = np.abs(_channel_rate(_weighted_spectrum(channel, rule), dx, np.empty(dx.size * RULE_ORDER))
                        / reference_rate(channel, dx) - 1.0) > QUADRATURE_RTOL
        refused = np.zeros(dx.size, dtype=bool)
        for i, sep in enumerate(dx):
            try:
                _checked_channel_rate(channel, np.array([sep]), rule, np.empty(RULE_ORDER))
            except QuadratureError:
                refused[i] = True
        assert missed.any() and not missed[dx * temperature < 0.19].any()
        assert np.all(refused[missed])
        # one boundary, at dx T = 0.178 m K: refused from there on, accepted below
        edge = int(np.argmax(refused))
        assert np.all(refused[edge:]) and not refused[:edge].any()
        assert 0.17 < dx[edge] * temperature < 0.19

    def test_1e_4_m_at_1500_k_answered(self, paper_params):
        """dx T = 0.15 m K, inside the rule's reach: answered, matching the 4096-node rule."""
        model = default_model(paper_params, t_internal=1500.0)
        want = sum(reference_rate(channel, np.array([1e-4]))[0] for channel in model)
        assert localization_rate_profile([model], [1e-4])[0, 0] == pytest.approx(want, rel=QUADRATURE_RTOL)

    @pytest.mark.filterwarnings("error")
    def test_zero_rates_pass_without_warning(self, paper_params, monkeypatch):
        """dx = 0 gives exactly 0, and so does a subnormal dx, whose kicks underflow: both
        bounds are exactly 0 too. A zero response or temperature makes every rate 0, with
        nothing to bound; at 0 K the support is empty, and no ``rate_density`` call forms
        the spectrum."""
        model = default_model(paper_params, PAPER_CONFIG["t_internal"])
        eta = localization_rate_profile([model], [0.0, 5e-324, 1e-7])[:, 0]
        assert eta[0] == eta[1] == 0.0 < eta[2]
        assert np.exp(_log_error_bound(model[0], np.array([0.0, 5e-324]))).tolist() == [0.0, 0.0]
        mute = default_model(replace(paper_params, response_im=0.0, response_mod_sq=0.0), PAPER_CONFIG["t_internal"])
        cold = BlackbodyChannel("cold", "emission", 0.0, 1e-7)
        dx = np.array([0.0, 1e-7, 1e-4])
        for model in (mute, (cold,)):
            assert localization_rate_profile([model], dx)[:, 0].tolist() == [0.0, 0.0, 0.0]
            # each channel's own rate, before the sum into eta could turn a -0.0 into +0.0
            for rate in decoherence._channel_rates(list(model), dx).values():
                assert rate.tolist() == [0.0, 0.0, 0.0] and not np.signbit(rate).any()

        def no_call(channel, omega):
            raise AssertionError(f"rate_density called on {channel.name!r}")

        monkeypatch.setattr(BlackbodyChannel, "rate_density", no_call)
        rate = decoherence._channel_rates([cold], dx)[cold]
        assert rate.tolist() == [0.0, 0.0, 0.0] and not np.signbit(rate).any()
        assert reference_rate(cold, np.array([1e-7])).tolist() == [0.0]     # it skips the empty support too


# -- angular factor against independent oracles --------------------------------

class TestAngularFactorOracles:
    def test_matches_mpmath(self):
        # worst measured: 1.65e-11 just below the z = 0.1 switch, the first
        # dropped series term z^8 / 9!
        zs = np.concatenate([np.geomspace(1e-8, 10.0, 1500),
                             [np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0)]])
        with mpmath.workdps(50):
            for z in map(float, zs):
                exact = float(1 - mpmath.sin(mpmath.mpf(z)) / mpmath.mpf(z))
                assert angular_factor(z) == pytest.approx(exact, rel=2e-11), z

    @pytest.mark.parametrize("k, delta_x", [(3e5, 1e-6), (1e6, 1e-6), (2e6, 1e-6),
                                            (5.0, 1.0), (9.0, 1.0)])
    def test_matches_monte_carlo_sphere_average(self, k, delta_x):
        # 400k directions: standard error at most 0.71 / sqrt(4e5) = 1.1e-3
        real, imag = mc_sphere_kick_average(k, delta_x, 400_000, seed=7)
        assert real == pytest.approx(angular_factor(k * delta_x), abs=6e-3)
        assert imag == pytest.approx(0.0, abs=6e-3)


# -- time-resolved refinement ---------------------------------------------------

class TestDephasingExposures:
    @pytest.mark.parametrize("overrides", [{}, {"theta": 0.7}, {"t3": 3e-4},
                                           {"b_gradient": 1e5}, {"t_internal": 1200.0}])
    @pytest.mark.parametrize("shape", [(0.25, 0.75), (0.2, 0.7)])
    def test_refined_below_bound_with_spin_force(self, overrides, shape):
        cfg = dict(PAPER_CONFIG, **overrides)
        params = build_params(cfg)
        t3 = cfg["t3"]
        seq = PulseSequence(t1=shape[0] * t3, t2=shape[1] * t3, t3=t3)
        bound, refined = dephasing_exposures(params, seq, default_model(params, cfg["t_internal"]))
        assert 0.0 < refined < bound

    @pytest.mark.parametrize("shape", [(0.25, 0.75), (0.2, 0.7)])
    def test_one_walk_per_piece_and_the_per_node_bits(self, paper_params, shape, monkeypatch):
        t3 = PAPER_CONFIG["t3"]
        seq = PulseSequence(t1=shape[0] * t3, t2=shape[1] * t3, t3=t3)
        model = default_model(paper_params, PAPER_CONFIG["t_internal"])
        # the refinement as a per-node loop computes it: each node's separation from the
        # last segment that starts at or before it
        segments = dynamics._relative_segments(paper_params, seq)

        def separation(t):
            start, _, dx0, dv0, da = [seg for seg in segments if seg[0] <= t][-1]
            dt = t - start
            return dx0 + dv0 * dt + 0.5 * da * dt * dt

        edges = sorted({0.0, *seq.effective_times(), t3 / 2.0})
        want = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes, weights = gauss_nodes(lo, hi, TIME_NODES)
            seps = np.abs([separation(t) for t in nodes.tolist()])
            want += float(np.dot(localization_rate_profile([model], seps)[:, 0], weights))
        walks = []
        walk = dynamics._relative_segments
        monkeypatch.setattr(dynamics, "_relative_segments",
                            lambda *args: walks.append(1) or walk(*args))
        _, refined = dephasing_exposures(paper_params, seq, model)
        # four pieces, split at the flips and at t3 / 2; an unbalanced peak walks once more
        assert len(walks) == 4 + (shape != (0.25, 0.75))
        assert np.float64(refined).view(np.int64) == np.float64(want).view(np.int64)

    def test_no_spin_force_gives_equal_zero_exposures(self):
        params = build_params(dict(PAPER_CONFIG, b_gradient=0.0))
        seq = PulseSequence.balanced(PAPER_CONFIG["t3"])
        bound, refined = dephasing_exposures(params, seq, default_model(params, PAPER_CONFIG["t_internal"]))
        assert refined <= bound
        assert bound == refined == 0.0
