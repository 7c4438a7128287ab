"""Experiment parameters, validation, and the spin-dependent force convention.

The protocol: a nanodiamond holding NV spins is released from a harmonic trap
(angular frequency ``trap_omega``) whose axis is tilted by ``theta`` against
gravity, inside a magnetic field gradient ``b_gradient`` along that axis.
The spin projection s in {-1, 0, +1} feels the signed force

    F(s) = s * g_nv * mu_bohr * b_gradient - mass * g_earth * cos(theta)

with the magnetic term A = g_nv * mu_bohr * b_gradient and the gravity
component C = mass * g_earth * cos(theta).

Every number knob may also be a numpy array (one swept parameter): the
formulas then broadcast, each check covers the whole array and names its
first bad element, and a scalar call still yields Python scalars.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .constants import (AMU, DEFAULT_G_NV, DEFAULT_RESPONSE_IM, DEFAULT_RESPONSE_MOD_SQ, HBAR, MU_BOHR,
                        STANDARD_GRAVITY)


def _has_array(*args) -> bool:
    return any(isinstance(a, np.ndarray) for a in args)


# Array kernels. Each gives, element by element, the bits of its scalar call
# on Python floats and raises the class that call raises; a scalar argument
# takes the scalar call itself. The array routes are C libm or IEEE basic
# operations, never a numpy SIMD loop (docs/physics-notes.md, "Bit-identical
# broadcasting"). numpy's float exp and arctan2 are SIMD loops, so those two
# run in its complex loops, whose parts are libm's exp and atan2.

def _kernel(scalar, array, refused, error, message):
    """``scalar`` on scalars; on arrays ``array``, raising ``error(message)``
    where ``refused(out, *args)`` marks an element the scalar call raises on."""
    def kernel(*args):
        if not _has_array(*args):
            return scalar(*args)
        with np.errstate(over="ignore", invalid="ignore"):
            out = array(*args)
        if refused(out, *args).any():
            raise error(message)
        return out
    return kernel


#: Above this glibc's cexp scales exp(x) through int arithmetic and its real part leaves libm
#: exp's bits; up to it the real part of cexp(x + 0i) is exp(x) times cos(0) = 1.
_CEXP_EXACT_MAX = 709.0


def exp(x):
    """``math.exp``: over arrays the real part of numpy's complex exp (C ``cexp``) up to
    ``_CEXP_EXACT_MAX``, and ``math.exp`` element by element above it and on NaN, which
    raises OverflowError where the scalar call does."""
    if not _has_array(x):
        return math.exp(x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(x + 0j).real.copy()
    rest = np.logical_not(x <= _CEXP_EXACT_MAX)
    if rest.any():
        out[rest] = [math.exp(v) for v in x[rest].tolist()]
    return out


def atan2(y, x):
    """``math.atan2``: over arrays the imaginary part of numpy's complex log of x + iy, which
    is C ``clog``'s libm ``atan2(y, x)``, signed zeros, infinities and NaN included."""
    if not _has_array(y, x):
        return math.atan2(y, x)
    y, x = np.broadcast_arrays(y, x)
    z = np.empty(x.shape, complex)
    z.real, z.imag = x, y
    with np.errstate(divide="ignore", invalid="ignore"):     # log(0) is -inf, raising divide
        return np.log(z, out=z).imag.copy()


cos = _kernel(math.cos, np.cos, lambda out, x: np.isinf(x), ValueError, "math domain error")
sin = _kernel(math.sin, np.sin, lambda out, x: np.isinf(x), ValueError, "math domain error")
sqrt = _kernel(math.sqrt, np.sqrt, lambda out, x: x < 0.0, ValueError, "math domain error")
#: ``x ** n`` for an int ``n``: C ``pow``, as CPython's float power calls it
power = _kernel(operator.pow, lambda x, n: np.float_power(x, float(n)),
                lambda out, x, n: np.isinf(out) & np.isfinite(x),
                OverflowError, "(34, 'Numerical result out of range')")
#: ``abs`` of a complex: C ``hypot`` of its parts
modulus = _kernel(abs, lambda z: np.hypot(z.real, z.imag),
                  lambda out, z: np.isinf(out) & np.isfinite(z.real) & np.isfinite(z.imag),
                  OverflowError, "absolute value too large")


def isclose(a, b, rel_tol: float):
    """``math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)``; over arrays
    CPython's own test, whose abs_tol clause holds only where a == b."""
    if not _has_array(a, b):
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)
    with np.errstate(invalid="ignore"):
        diff = np.abs(b - a)
        near = (diff <= np.abs(rel_tol * b)) | (diff <= np.abs(rel_tol * a))
    return (a == b) | (near & ~(np.isinf(a) | np.isinf(b)))


def where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``; all-scalar inputs give a Python scalar."""
    if not _has_array(cond, a, b):
        return a if cond else b
    return np.where(cond, a, b)


def first(mask, value):
    """``value`` at the first true element of ``mask``; a scalar passes through."""
    if not isinstance(value, np.ndarray):
        return value
    return np.broadcast_to(value, np.shape(mask)).flat[int(np.argmax(mask))].item()


def all_of(cond) -> bool:
    """Whether ``cond`` holds: a bool, or every element of a bool array."""
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


def any_of(cond) -> bool:
    """Whether ``cond`` holds anywhere: a bool, or some element of a bool array."""
    return bool(cond.any()) if isinstance(cond, np.ndarray) else bool(cond)


def number(value):
    """``float(value)``, or a float array when ``value`` is an ndarray."""
    return value.astype(float, copy=False) if isinstance(value, np.ndarray) else float(value)


class ConfigError(ValueError):
    """Raised when a parameter map or config file fails validation."""


class SpinBranch(IntEnum):
    """Eigenvalue of the spin projection along the trap axis."""

    MINUS = -1
    ZERO = 0
    PLUS = 1


@dataclass(frozen=True)
class ExperimentParams:
    """All physical knobs of one protocol run (SI units throughout), except the pulse
    times, flight time t3 included, which belong to the
    :class:`~nanoramsey.dynamics.PulseSequence`.

    mass            kg, of the test object
    b_gradient      T/m, magnetic field gradient along the flight axis
    theta           rad, tilt of the flight axis against gravity, [0, pi/2]
    trap_omega      rad/s, trap angular frequency before release
    g_nv            Lande factor of the NV spin (dimensionless)
    t_internal      K, internal temperature of the object
    t_environment   K, temperature of the surrounding blackbody field
    t_cm            K, centre-of-mass temperature in the trap
    mw_frequency    Hz, microwave carrier used for spin control
    pulse_duration  s, duration of one control pulse
    n_nucleons      nucleon count used for collapse-model bounds
    radius          m, object radius (optional; needed by the decoherence model)
    g_earth         m/s^2, local gravitational acceleration (standard gravity by default)
    response_im     Im[(eps-1)/(eps+2)] of the object's material, >= 0, for blackbody
                    absorption and emission (a rough placeholder by default)
    response_mod_sq |(eps-1)/(eps+2)|^2 of the object's material, >= 0, for blackbody
                    scattering (a rough placeholder by default)
    """

    mass: float
    b_gradient: float
    theta: float
    trap_omega: float
    mw_frequency: float
    pulse_duration: float
    t_internal: float
    t_environment: float
    t_cm: float
    g_nv: float = DEFAULT_G_NV
    n_nucleons: float | None = None
    radius: float | None = None
    g_earth: float = STANDARD_GRAVITY
    response_im: float = DEFAULT_RESPONSE_IM
    response_mod_sq: float = DEFAULT_RESPONSE_MOD_SQ

    def __post_init__(self):
        _require((0.0 < self.g_earth) & (self.g_earth < math.inf), "g_earth", "must be finite and > 0")
        _require(self.mass > 0.0, "mass", "must be > 0")
        _require(self.trap_omega > 0.0, "trap_omega", "must be > 0")
        _require((0.0 <= self.theta) & (self.theta <= math.pi / 2.0),
                 "theta", "must lie in [0, pi/2]")
        for name in ("t_internal", "t_environment", "t_cm", "response_im", "response_mod_sq"):
            _require(getattr(self, name) >= 0.0, name, "must be >= 0")
        _require(self.mw_frequency > 0.0, "mw_frequency", "must be > 0")
        _require(self.pulse_duration > 0.0, "pulse_duration", "must be > 0")
        if self.radius is not None:
            _require(self.radius > 0.0, "radius", "must be > 0")
        if self.n_nucleons is None:
            object.__setattr__(self, "n_nucleons", self.mass / AMU)
        _require(self.n_nucleons >= 1.0, "n_nucleons", "must be >= 1")
        # the product first, so that hbar is divided by neither 0 nor inf; the
        # square root of a positive float is normal, so sigma0 > 0 is enough
        product = 2.0 * self.mass * self.trap_omega
        ok = (0.0 < product) & (product < math.inf)
        if all_of(ok):
            sigma0 = self.sigma0()
            ok = (0.0 < sigma0) & (sigma0 < math.inf)
        if not all_of(ok):
            bad = np.logical_not(ok)
            raise ConfigError(
                "mass and trap_omega must give a packet width sqrt(hbar / (2 mass trap_omega)) "
                f"that is a positive normal float, got mass={first(bad, self.mass)!r}, "
                f"trap_omega={first(bad, self.trap_omega)!r}"
            )

    # -- derived quantities ------------------------------------------------

    def spin_coupling(self) -> float:
        """Magnetic force per unit spin projection, A = g_nv mu_B dB/dx (N)."""
        return self.g_nv * MU_BOHR * self.b_gradient

    def gravity_force(self) -> float:
        """Axis projection of the weight, C = m g cos(theta) (N)."""
        return self.mass * self.g_earth * cos(self.theta)

    def sigma0(self) -> float:
        """Ground-state width of the trapped packet, sqrt(hbar / 2 m omega) (m)."""
        return sqrt(HBAR / (2.0 * self.mass * self.trap_omega))


def branch_force(params: ExperimentParams, s: SpinBranch | int) -> float:
    """Signed force (N) along the flight axis for spin projection ``s``.

    Works for any integer projection, which covers single spins (|s| <= 1)
    and collective sectors alike.
    """
    return int(s) * params.spin_coupling() - params.gravity_force()


# -- configuration ---------------------------------------------------------

_DERIVED_MASS_RTOL = 1e-12

PARAM_KEYS = (
    "mass", "radius", "density", "b_gradient", "theta", "t3", "trap_omega",
    "g_nv", "t_internal", "t_environment", "t_cm", "mw_frequency",
    "pulse_duration", "n_nucleons", "g_earth",
)
_FIELDS = tuple(field.name for field in fields(ExperimentParams))
#: the keys the pulse sequence is built from
_SEQUENCE_KEYS = {"t1", "t2", "t3", "jitter_t1", "jitter_t2", "jitter_t3"}
#: each key has one home: a field, the pulse sequence, or, for the density, none (it is only checked)
KNOWN_CONFIG_KEYS = {*_FIELDS, *_SEQUENCE_KEYS, "density"}

_MANDATORY = ("b_gradient", "theta", "t3", "trap_omega", "mw_frequency",
              "pulse_duration", "t_internal", "t_environment", "t_cm")


def sphere_mass(radius: float, density: float) -> float:
    """Mass of a homogeneous sphere (kg)."""
    return 4.0 / 3.0 * math.pi * power(radius, 3) * density


def build_params(config: dict) -> ExperimentParams:
    """Validate a flat key/value map (SI units) into :class:`ExperimentParams`.

    The mass may be given directly, derived from ``radius`` and ``density``,
    or both; when all three are present they must agree to 1e-12 relative,
    otherwise the conflict is reported instead of silently resolved. The
    pulse-sequence keys are the caller's; of them only ``t3`` is required and
    checked here. Any number may be an array; a failing check names its first
    bad element.
    """
    unknown = set(config) - KNOWN_CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in _MANDATORY if k not in config]
    if missing:
        raise ConfigError(f"missing mandatory config key(s): {', '.join(missing)}")

    mass = config.get("mass")
    radius = config.get("radius")
    density = config.get("density")
    if mass is None:
        if radius is None or density is None:
            raise ConfigError("missing mandatory config key(s): mass (or radius and density)")
        if any_of((radius <= 0) | (density <= 0)):
            raise ConfigError("radius and density must be > 0 to derive the mass")
        mass = sphere_mass(radius, density)
    elif radius is not None and density is not None:
        derived = sphere_mass(radius, density)
        bad = abs(derived - mass) > _DERIVED_MASS_RTOL * abs(mass)
        if any_of(bad):
            raise ConfigError(
                f"mass={first(bad, mass)!r} conflicts with radius/density "
                f"(sphere mass {first(bad, derived)!r}); "
                "drop one of the keys"
            )
    elif density is not None:       # the mass is given, so the density is only checked
        _require(density > 0.0, "density", "must be > 0")
    # t3 is the pulse sequence's, and checked here as the density is
    _require(config["t3"] > 0.0, "t3", "must be > 0")

    kwargs = {key: number(config[key]) for key in _FIELDS if config.get(key) is not None}
    kwargs["mass"] = number(mass)        # derived, or checked against radius and density, above
    try:
        return ExperimentParams(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` config format.

    One assignment per line, ``#`` starts a comment, values are finite numbers.
    Unknown keys are rejected by :func:`build_params`, not here, so that
    callers can carve off their own keys first.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: could not parse value for {key!r}: {value!r}") from exc
        if not math.isfinite(out[key]):
            raise ConfigError(f"line {lineno}: value for {key!r} must be finite, got {value!r}")
    return out


def _require(cond, key: str, message: str):
    if not all_of(cond):
        raise ConfigError(f"{key} {message}")
