import importlib.util
import math
import sys
from fnmatch import fnmatch
from importlib import resources
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial.legendre import leggauss

from conftest import PAPER_CONFIG
from nanoramsey import cli, decoherence, dynamics
from nanoramsey import (
    BlackbodyChannel,
    PulseSequence,
    QuadratureError,
    angular_factor,
    build_params,
    default_model,
    default_model_family,
    dephasing_exposures,
    localization_rate_profile,
    separation_at,
    visibility_surface,
)
from nanoramsey.decoherence import (
    _STORED_RULE_ORDERS,
    _channel_rate,
    _leggauss_cached,
)
from oracles import (
    angular_factor_reference,
    channel_rate_reference,
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
        model = default_model(paper_params)
        assert localization_rate_profile(model, [delta_x])[0] == pytest.approx(
            localization_rate_adaptive(model, delta_x), rel=1e-9)

    def test_under_resolved_channel_raises(self, paper_params):
        model = default_model(paper_params, t_internal=1500.0)
        with pytest.raises(QuadratureError, match="not converged"):
            localization_rate_profile(model, [1e-3], n_nodes=16)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_rate_raises(self, paper_params):
        """A subnormal k_B T makes every Planck weight NaN; NaN passes no bound, and the
        refusal names the temperature instead of asking for more nodes."""
        model = default_model(paper_params, t_internal=1e-300)
        with pytest.raises(QuadratureError, match="not converged: its rate is not finite "
                                                  "at temperature 1e-300 K"):
            localization_rate_profile(model, [1e-7])

    def test_nan_visibility_refused(self):
        with pytest.raises(ValueError, match="must lie in"):
            decoherence.VisibilitySurface(np.array([1e-7, 2e-7]), np.array([300.0]),
                                          np.array([[0.5], [np.nan]]), 1e-4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta_x", [math.nan, math.inf, -1e-9])
    def test_separation_outside_bounds_refused(self, paper_params, delta_x):
        with pytest.raises(ValueError, match="delta_x must be finite and >= 0"):
            localization_rate_profile(default_model(paper_params), [1e-7, delta_x])

    @pytest.mark.parametrize("temperature, radius", [
        (math.nan, 1e-7), (math.inf, 1e-7), (300.0, math.nan), (300.0, math.inf),
    ])
    def test_channel_outside_bounds_refused(self, temperature, radius):
        with pytest.raises(ValueError, match="temperature must be finite"):
            BlackbodyChannel("absorption", "absorption", temperature, radius)

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
    numpy build that breaks it fails here by name rather than in a golden byte."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)     # its dataclasses look it up
    spec.loader.exec_module(workloads)
    counts = {"checked": 0, "differ": 0}

    def checked_angular_factor(z):
        y = np.pi * (z[np.abs(z) >= 0.1] / np.pi)      # the sin arguments, as angular_factor forms them
        libm = np.fromiter(map(math.sin, y.tolist()), float, y.size)
        counts["checked"] += y.size
        counts["differ"] += int(np.count_nonzero(_bits(np.sin(y)) != _bits(libm)))
        return angular_factor(z)

    monkeypatch.setattr(decoherence, "angular_factor", checked_angular_factor)
    monkeypatch.chdir(ROOT)
    for cmd in workloads.commands("surface", 0):
        assert cli.main([*cmd.argv, "--out", str(tmp_path / cmd.name)]) == 0
    assert counts["checked"] > 10_000_000       # both whole surfaces went through the hook
    assert counts["differ"] == 0


@pytest.fixture(scope="module")
def paper_family():
    return default_model_family(build_params(dict(PAPER_CONFIG)))


class TestBlockedQuadratureBits:
    """The blocked kernel on the stored rules against one whole kick matrix on
    a rule computed by ``leggauss``. m = 7, 33 and 50 leave partial blocks and 200
    spans many; 33 (and 9, 17) leave a one-row last block, where a matrix-vector
    product taken block by block moves the last bits. n_nodes = 64 takes the
    computed-rule fallback (64 and 128 nodes)."""

    @pytest.mark.parametrize("n_nodes", [512, 64])
    @pytest.mark.parametrize("m", [1, 7, 33, 50, 200])
    def test_visibility_surface_bit_equal(self, paper_family, m, n_nodes):
        dx = np.geomspace(1e-9, 1e-6, m)
        tins = np.linspace(300.0, 1500.0, 3)
        t3 = PAPER_CONFIG["t3"]
        got = visibility_surface(paper_family, dx, tins, t3, n_nodes)
        want = visibility_surface_reference(paper_family, dx, tins, t3, n_nodes)
        assert_bit_equal(got.visibility, want.visibility)

    @pytest.mark.parametrize("n_nodes", [512, 1024, 64, 100])
    @pytest.mark.parametrize("m", [1, 9, 17, 33, 64])
    def test_channel_rate_bit_equal(self, paper_family, m, n_nodes):
        dx = np.geomspace(1e-9, 1e-6, m)
        for channel in paper_family(900.0).channels:
            work = np.empty(2 * dx.size * n_nodes)      # as the coarse pass gets it
            assert_bit_equal(_channel_rate(channel, dx, n_nodes, work),
                             channel_rate_reference(channel, dx, n_nodes))


# -- the stored Gauss-Legendre rules -------------------------------------------

@pytest.mark.parametrize("n", _STORED_RULE_ORDERS)
class TestStoredRules:
    def test_symmetric_and_weights_sum_to_two(self, n):
        nodes, weights = _leggauss_cached(n)
        assert nodes.shape == weights.shape == (n,)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(2.0, rel=1e-15)

    def test_integrates_even_monomials(self, n):
        # exact for degree <= 2n - 1. numpy's leggauss takes the weights from the
        # derivative at the nodes before their Newton step, so the relative
        # error grows with the degree: 7.5e-15 (n = 512) and 2.4e-14 (n = 1024)
        # at x^2, 3.6e-12 and 1.2e-11 at the top degree
        nodes, weights = _leggauss_cached(n)
        for k in range(n):
            exact = 2.0 / (2 * k + 1)
            got = float(np.dot(weights, nodes ** (2 * k)))
            assert got == pytest.approx(exact, rel=2e-14 * (2 * k + 1)), k
        assert float(np.dot(weights, nodes ** 2)) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_within_two_ulp_of_leggauss(self, n):
        for stored, computed in zip(_leggauss_cached(n), leggauss(n)):
            assert np.all(np.abs(stored - computed) <= 2.0 * np.spacing(np.abs(computed)))

    def test_shipped_as_package_data(self, n):
        resource = resources.files("nanoramsey").joinpath(f"leggauss_{n}.npy")
        assert resource.is_file()
        with resource.open("rb") as f:
            rows = np.load(f)
        assert rows.dtype == np.float64 and rows.shape == (2, n)
        assert_bit_equal(rows, np.stack(_leggauss_cached(n)))


def test_package_data_glob_covers_stored_rules():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"][
        "nanoramsey"]
    for n in _STORED_RULE_ORDERS:
        assert any(fnmatch(f"leggauss_{n}.npy", g) for g in globs)


def test_other_orders_fall_back_to_leggauss():
    for n in (24, 64, 300):
        assert n not in _STORED_RULE_ORDERS
        for got, want in zip(_leggauss_cached(n), leggauss(n)):
            assert_bit_equal(got, want)


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
        bound, refined = dephasing_exposures(params, seq, default_model(params))
        assert 0.0 < refined < bound

    @pytest.mark.parametrize("shape", [(0.25, 0.75), (0.2, 0.7)])
    def test_one_walk_per_piece_and_the_per_node_bits(self, paper_params, shape, monkeypatch):
        t3 = PAPER_CONFIG["t3"]
        seq = PulseSequence(t1=shape[0] * t3, t2=shape[1] * t3, t3=t3)
        model = default_model(paper_params)
        # the refinement as the per-node loop of scalar separation_at calls computes it
        edges = sorted({0.0, *seq.effective_times(), t3 / 2.0})
        want = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes, weights = decoherence._gauss_nodes(lo, hi, decoherence.TIME_NODES)
            seps = np.abs([separation_at(paper_params, seq, t) for t in nodes.tolist()])
            want += float(np.dot(localization_rate_profile(model, seps), weights))
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
        bound, refined = dephasing_exposures(params, seq, default_model(params))
        assert refined <= bound
        assert bound == refined == 0.0
