"""Momentum-kick dephasing model and the visibility surface.

Environmental photons and gas particles kick the object with random
directions; a kick of wavenumber k resolves a superposition of separation
dx with probability governed by the isotropic sphere average of the kick
phase, whose closed form is :func:`angular_factor` (z) = 1 - sinc(z) at
z = k*dx. Summed over the spectral rate densities gamma_i(omega) of all
channels this gives the localization rate, which
:func:`localization_rate_profile` evaluates over an array of separations,

    eta(dx) = sum_i  integral domega gamma_i(omega) * (1 - sinc(omega*dx/c))

and the worst-case spin visibility after a flight of duration t is
exp(-eta(dx_max) * t), evaluated at the peak separation. That bounds the
dephasing from above: the time-resolved exposure, eta(|dx(t)|) integrated
along the flight, is smaller whenever the spin force is nonzero (the tests
check the bound against that refinement).

Default channels. No public tabulation of the object's spectral response is
assumed. The built-in defaults use textbook point-dipole blackbody forms:
absorption and thermal emission use the cross-section
(omega/c) * 4 pi R^3 * Im[(eps-1)/(eps+2)], Rayleigh scattering uses
(8 pi/3) (omega/c)^4 R^6 |(eps-1)/(eps+2)|^2, each weighted by a Planck
photon flux at the relevant temperature. THE MATERIAL RESPONSE FACTORS ARE
ROUGH PLACEHOLDERS (constant Im[(eps-1)/(eps+2)] = 1e-3 and the static
permittivity 5.7 for the modulus), chosen so that the surface is
qualitatively right; pass measured response factors (the ``response_im``
and ``response_mod_sq`` config keys, or the ``response`` of a
:class:`BlackbodyChannel`) for quantitative work.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .constants import HBAR, K_BOLTZMANN, LIGHT_SPEED
from .io import csv_text, fmt, json_document
from .params import ExperimentParams

#: Default constant Im[(eps-1)/(eps+2)] used by absorption/emission channels.
DEFAULT_RESPONSE_IM = 1.0e-3
#: Static relative permittivity used for the default scattering response.
EPSILON_STATIC = 5.7
#: Default |(eps-1)/(eps+2)|^2 for the scattering channel.
DEFAULT_RESPONSE_MOD_SQ = ((EPSILON_STATIC - 1.0) / (EPSILON_STATIC + 2.0)) ** 2
#: Planck spectra are truncated at this multiple of kT/hbar (relative tail ~1e-17).
PLANCK_CUTOFF = 50.0
#: Largest radius whose sixth power is a finite float.
_MAX_RADIUS = sys.float_info.max ** (1.0 / 6.0)
#: Largest saturated rate (eta at infinite separation, 1/s) of a channel that the quadrature
#: integrates; up to it every weighted node and kick sum stays a finite float.
MAX_SATURATED_RATE = 1.0e300
#: kind -> (p, c): the saturated rate, in closed form, is c |response| theta (R theta / c)^p, theta = k T / hbar
_SATURATION = {"absorption": (3, 4.0 * math.pi**3 / 15.0), "emission": (3, 4.0 * math.pi**3 / 15.0),
               "scattering": (6, 1920.0 * 1.0083492773819228 / math.pi)}     # 8 6! zeta(7) / (3 pi)


class QuadratureError(RuntimeError):
    """A channel integral failed to converge under refinement."""


def angular_factor(z) -> np.ndarray:
    """Sphere-averaged which-path factor 1 - sinc(z), sinc(z) = sin(z)/z, elementwise.

    With z = k*dx this is the closed form of 1 - (1/4pi) * integral dOmega
    exp(i k n_x dx); the imaginary part vanishes by the n_x -> -n_x symmetry.
    Ranges over [0, 2), -> 0 as z -> 0 (no which-path information) and
    oscillates about 1 with a 1/z envelope once the kick resolves the
    separation. Even in z.
    """
    # 1 - sinc(z) cancels catastrophically for small z, so the series runs where
    # |z| < 0.1 and 1 - sin(y)/y runs on the rest, each only on its own
    # elements. y = pi * (z / pi) is np.sinc's exact operation sequence, so
    # every element gets the bits np.where(small, series, 1 - np.sinc(z / pi))
    # gives it (numpy's float64 sin is libm, element by element).
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 0.1
    zs = z[small]
    z2 = zs * zs
    out[small] = z2 / 6.0 - z2 * z2 / 120.0 + z2 * z2 * z2 / 5040.0
    big = ~small
    y = np.pi * (z[big] / np.pi)
    with np.errstate(invalid="ignore"):
        out[big] = 1.0 - np.sin(y) / y
    return out


# -- spectral channels -------------------------------------------------------

def _planck_flux(omega: np.ndarray, temperature: float) -> np.ndarray:
    """Photon flux spectral density of an isotropic Planck field.

    Photons per unit area, time and angular frequency: c * n(omega) with the
    mode density omega^2/(pi^2 c^3) weighted by the Bose occupation.
    """
    # a k T that underflows makes the weights inf or NaN; _checked_channel_rate refuses them
    with np.errstate(divide="ignore", invalid="ignore"):
        occ = 1.0 / np.expm1(HBAR * omega / (K_BOLTZMANN * temperature))
        return omega**2 / (math.pi**2 * LIGHT_SPEED**2) * occ


@dataclass(frozen=True)
class BlackbodyChannel:
    """Planck-weighted photon channel (absorption, emission or scattering).

    response: constant material factor, Im[(eps-1)/(eps+2)] for
    absorption/emission and |(eps-1)/(eps+2)|^2 for scattering.
    """

    name: str
    kind: str                    # "absorption" | "emission" | "scattering"
    temperature: float           # K
    radius: float                # m
    response: float = DEFAULT_RESPONSE_IM

    def __post_init__(self):
        if self.kind not in ("absorption", "emission", "scattering"):
            raise ValueError(f"unknown blackbody channel kind {self.kind!r}")
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and > 0, got {self.radius!r}")
        if not self.radius <= _MAX_RADIUS:
            raise ValueError(f"radius must be at most {_MAX_RADIUS!r}, whose sixth power the "
                             f"scattering cross-section takes, got {self.radius!r}")
        if self.temperature > 0.0 and 0.0 < abs(self.response) < math.inf:
            p, c = _SATURATION[self.kind]     # in logarithms: k T / hbar overflows from 7.6e296 K on
            log_theta = math.log10(K_BOLTZMANN * self.temperature) - math.log10(HBAR)
            log_rate = math.log10(c * abs(self.response)) + log_theta + p * (
                math.log10(self.radius / LIGHT_SPEED) + log_theta)
            if not log_rate <= math.log10(MAX_SATURATED_RATE):
                raise ValueError(
                    f"radius {self.radius!r} m at temperature {self.temperature!r} K gives channel "
                    f"{self.name!r} a rate of 10^{log_rate:.2f} 1/s, above the {MAX_SATURATED_RATE:.0e} "
                    "1/s its quadrature can sum; reduce the radius or the temperature")

    def support(self) -> tuple[float, float]:
        if self.temperature == 0.0:
            return (0.0, 0.0)
        return (0.0, PLANCK_CUTOFF * K_BOLTZMANN * self.temperature / HBAR)

    def rate_density(self, omega: np.ndarray) -> np.ndarray:
        """gamma(omega) in s^-1 per unit angular frequency."""
        if self.temperature == 0.0:
            return np.zeros_like(omega)
        flux = _planck_flux(omega, self.temperature)
        resp = self.response
        if self.kind == "scattering":
            cross = (8.0 * math.pi / 3.0) * (omega / LIGHT_SPEED) ** 4 * self.radius**6 * resp
        else:
            cross = (omega / LIGHT_SPEED) * 4.0 * math.pi * self.radius**3 * resp
        return flux * cross


def default_model(
    params: ExperimentParams,
    t_internal: float | None = None,
    response_im: float = DEFAULT_RESPONSE_IM,
    response_mod_sq: float = DEFAULT_RESPONSE_MOD_SQ,
) -> tuple[BlackbodyChannel, ...]:
    """Blackbody absorption + scattering at t_environment, emission at t_internal.

    Requires ``params.radius``. Gas collisions are left out: the chamber is
    assumed pumped to a vacuum where their rate is negligible.
    """
    if params.radius is None:
        raise ValueError("decoherence model needs the object radius; set the radius key")
    t_int = params.t_internal if t_internal is None else t_internal
    return (
        BlackbodyChannel("blackbody_absorption", "absorption",
                         params.t_environment, params.radius, response_im),
        BlackbodyChannel("blackbody_scattering", "scattering",
                         params.t_environment, params.radius, response_mod_sq),
        BlackbodyChannel("thermal_emission", "emission",
                         t_int, params.radius, response_im),
    )


# -- localization rate -------------------------------------------------------

#: Gauss-Legendre orders of the coarse and fine pass, shipped as package data:
#: ``leggauss_<n>.npy`` holds the rows (nodes, weights), the exact float64
#: output of ``numpy.polynomial.legendre.leggauss(n)`` (``numpy.save`` of the
#: two rows stacked). Loading one is a small file read; leggauss(1024) solves a
#: dense 1024 x 1024 eigenvalue problem.
RULE_ORDERS = (512, 1024)

#: Elements per block of the kick matrix (64 KiB of float64). Every temporary of
#: a block stays under glibc's 128 KiB mmap threshold, and all of them together
#: stay small enough that freeing the kick matrix does not trim the heap, so
#: each call reuses heap pages instead of faulting in fresh ones. Chosen by
#: measurement: 12288 refaults about 10k pages on 50 separations.
_KICK_BLOCK_ELEMENTS = 8192

#: Most separations one surface takes: each channel pass fills a separations x
#: ``RULE_ORDERS[-1]`` float64 work buffer, 128 MiB at this count.
MAX_SEPARATIONS = (128 << 20) // (8 * RULE_ORDERS[-1])

#: Largest relative coarse/fine mismatch a channel integral may show.
QUADRATURE_RTOL = 1.0e-6


@lru_cache(maxsize=len(RULE_ORDERS))
def _stored_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The shipped rule of order ``n`` (one of ``RULE_ORDERS``) as (nodes, weights)."""
    with resources.files(__package__).joinpath(f"leggauss_{n}.npy").open("rb") as f:
        nodes, weights = np.load(f)
    return nodes, weights


def _channel_rate(channel, delta_x: np.ndarray, rule, work: np.ndarray) -> np.ndarray:
    """Localization rate of one channel over a 1-d array of separations.

    ``rule`` is a Gauss-Legendre (nodes, weights) pair on [-1, 1]. The kick matrix
    is filled a block of rows at a time, but the matrix-vector product runs on the
    whole matrix: BLAS sums a row in an order that depends on the row count, so a
    blocked product would move the last bits. The matrix takes the first
    delta_x.size * len(nodes) elements of the float64 buffer ``work``.
    """
    lo, hi = channel.support()
    if hi <= lo:
        return np.zeros_like(delta_x)
    half = 0.5 * (hi - lo)
    nodes, weights = lo + half * (rule[0] + 1.0), half * rule[1]
    gam = channel.rate_density(nodes)
    kick = work[:delta_x.size * nodes.size].reshape(delta_x.size, nodes.size)
    rows = max(1, _KICK_BLOCK_ELEMENTS // nodes.size)
    for start in range(0, delta_x.size, rows):
        block = slice(start, start + rows)
        z = np.multiply.outer(delta_x[block], nodes) / LIGHT_SPEED
        kick[block] = angular_factor(z)
    return kick @ (gam * weights)


def localization_rate_profile(
    channels: tuple[BlackbodyChannel, ...],
    delta_x,
    channel_rates: dict | None = None,
) -> np.ndarray:
    """eta(delta_x) of the summed ``channels`` for an array of separations (s^-1).

    Every channel is integrated on both rules of ``RULE_ORDERS``; a relative
    mismatch beyond ``QUADRATURE_RTOL`` raises :class:`QuadratureError`
    naming the channel, so silent under-resolution is impossible.
    ``channel_rates``, if given, memoizes each checked channel rate by channel
    (channels are frozen and hashable); pass the same dict only with the same
    separations.
    """
    dx = np.atleast_1d(np.asarray(delta_x, dtype=float))
    if not np.all((dx >= 0.0) & (dx < math.inf)):
        raise ValueError("delta_x must be finite and >= 0")
    if channel_rates is None:
        channel_rates = {}
    total = np.zeros_like(dx)
    for channel in channels:
        if channel not in channel_rates:
            channel_rates[channel] = _checked_channel_rate(channel, dx)
        total += channel_rates[channel]
    return total


def _checked_channel_rate(channel, dx: np.ndarray) -> np.ndarray:
    """The channel rate on the fine rule, after the coarse/fine refinement check.

    Both passes fill one work buffer. A fine kick matrix allocated after the coarse
    one was freed lands wherever the heap has room, so peak RSS would step by about
    1 MiB with the heap layout that import left behind.
    """
    coarse_order, fine_order = RULE_ORDERS
    work = np.empty(dx.size * fine_order)
    coarse = _channel_rate(channel, dx, _stored_rule(coarse_order), work)
    fine = _channel_rate(channel, dx, _stored_rule(fine_order), work)
    if not (np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))):
        raise QuadratureError(
            f"channel {channel.name!r} not converged: its rate is not finite at "
            f"temperature {channel.temperature!r} K"
        )
    scale = np.maximum(np.abs(fine), 1e-300)
    worst = float(np.max(np.abs(fine - coarse) / scale))
    # written as "unless within bounds", so a NaN rate is refused too
    if not worst <= QUADRATURE_RTOL and not float(np.max(np.abs(fine - coarse))) <= 1e-302:
        raise QuadratureError(
            f"channel {channel.name!r} not converged: refinement changed the "
            f"integral by {worst:.2e} relative (tol {QUADRATURE_RTOL:.0e}) on separations "
            f"up to {float(dx.max())!r} m; reduce the largest separation"
        )
    return fine


# -- visibility surface --------------------------------------------------------

@dataclass(frozen=True)
class VisibilitySurface:
    """Visibility over the (peak separation, internal temperature) plane."""

    delta_x_axis: np.ndarray     # m
    t_int_axis: np.ndarray       # K
    visibility: np.ndarray       # shape (len(delta_x_axis), len(t_int_axis)), in [0, 1]
    flight_time: float           # s

    def __post_init__(self):
        if self.visibility.shape != (self.delta_x_axis.size, self.t_int_axis.size):
            raise ValueError("visibility matrix shape must match the axes")
        if not np.all((0.0 <= self.visibility) & (self.visibility <= 1.0)):
            raise ValueError("visibility entries must lie in [0, 1]")


def visibility_surface(
    params: ExperimentParams,
    delta_x_range,
    t_int_range,
    flight_time: float,
    response_im: float = DEFAULT_RESPONSE_IM,
    response_mod_sq: float = DEFAULT_RESPONSE_MOD_SQ,
) -> VisibilitySurface:
    """Tabulate exp(-eta(dx; T_int) * t) of the :func:`default_model` channels.

    A channel that several columns share (one that does not depend on T_int)
    is integrated once.
    """
    dx = np.asarray(list(delta_x_range), dtype=float)
    tins = np.asarray(list(t_int_range), dtype=float)
    if dx.size == 0 or tins.size == 0:
        raise ValueError("axes must be non-empty")
    # every column's channels first, so that a refused channel stops the surface before any work
    models = [default_model(params, float(t_int), response_im, response_mod_sq) for t_int in tins]
    vis = np.empty((dx.size, tins.size))
    channel_rates = {}
    for j, channels in enumerate(models):
        eta = localization_rate_profile(channels, dx, channel_rates)
        # an exposure that overflows to inf decays to exactly 0.0, as its finite
        # neighbours beyond about 745 already do
        with np.errstate(over="ignore"):
            vis[:, j] = np.exp(-eta * flight_time)
    return VisibilitySurface(delta_x_axis=dx, t_int_axis=tins,
                             visibility=vis, flight_time=flight_time)


# -- serialization -----------------------------------------------------------------

def surface_to_csv(surface: VisibilitySurface) -> str:
    """Matrix CSV: first row the T_int axis, first column the delta_x axis."""
    header = ["delta_x_m\\t_int_K", *map(fmt, surface.t_int_axis)]
    return csv_text(header, np.column_stack([surface.delta_x_axis, surface.visibility]))


def surface_to_json(surface: VisibilitySurface, metadata: dict | None = None) -> str:
    """The surface as a JSON document of its float arrays; an empty ``metadata`` is left out."""
    payload = {"delta_x_m": surface.delta_x_axis, "flight_time_s": surface.flight_time,
               "t_int_K": surface.t_int_axis, "visibility": surface.visibility}
    if metadata:
        payload["metadata"] = metadata
    return json_document(payload)
