"""Momentum-kick dephasing model and the visibility surface.

Environmental photons and gas particles kick the object with random
directions; a kick of wavenumber k resolves a superposition of separation
dx with probability governed by the isotropic sphere average of the kick
phase, whose closed form is :func:`angular_factor` (z) = 1 - sinc(z) at
z = k*dx. Summed over the spectral rate densities gamma_i(omega) of all
channels this gives the localization rate, which
:func:`localization_rate_profile` evaluates over an array of separations for
a list of models (tuples of channels), each distinct channel integrated once,

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
and ``response_mod_sq`` fields of
:class:`~nanoramsey.params.ExperimentParams`, set by the config keys of the
same names, or the ``response`` of a :class:`BlackbodyChannel`) for
quantitative work.
"""
from __future__ import annotations

import math
import os
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .constants import DEFAULT_RESPONSE_IM, HBAR, K_BOLTZMANN, LIGHT_SPEED
from .io import BLOCK_BYTES, csv_text, fmt, json_document
from .params import ExperimentParams

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
            log_rate = self._log10_saturated_rate()
            if not log_rate <= math.log10(MAX_SATURATED_RATE):
                raise ValueError(
                    f"radius {self.radius!r} m at temperature {self.temperature!r} K with response "
                    f"{self.response!r} gives channel {self.name!r} a rate of 10^{log_rate:.2f} 1/s, "
                    f"above the {MAX_SATURATED_RATE:.0e} 1/s its quadrature can sum; reduce the "
                    "radius, the temperature or the response")

    def _log10_saturated_rate(self) -> float:
        """log10 of the rate at infinite separation, c |response| theta (R theta / c)^p, theta =
        k T / hbar, for a temperature > 0 and a response != 0.

        Taken factor by factor: k T / hbar overflows from 7.6e296 K on, and k T and R / c
        underflow to 0 at subnormal temperatures and radii.
        """
        p, c = _SATURATION[self.kind]
        log_theta = math.log10(K_BOLTZMANN) + math.log10(self.temperature) - math.log10(HBAR)
        return math.log10(c) + math.log10(abs(self.response)) + log_theta + p * (
            math.log10(self.radius) - math.log10(LIGHT_SPEED) + log_theta)

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


def default_model(params: ExperimentParams,
                  t_internal: float | None = None) -> tuple[BlackbodyChannel, ...]:
    """Blackbody absorption + scattering at t_environment, emission at t_internal, with
    the object's response factors ``params.response_im`` and ``params.response_mod_sq``.

    Requires ``params.radius``. Gas collisions are left out: the chamber is
    assumed pumped to a vacuum where their rate is negligible.
    """
    if params.radius is None:
        raise ValueError("decoherence model needs the object radius; set the radius key")
    t_int = params.t_internal if t_internal is None else t_internal
    return (
        BlackbodyChannel("blackbody_absorption", "absorption",
                         params.t_environment, params.radius, params.response_im),
        BlackbodyChannel("blackbody_scattering", "scattering",
                         params.t_environment, params.radius, params.response_mod_sq),
        BlackbodyChannel("thermal_emission", "emission",
                         t_int, params.radius, params.response_im),
    )


# -- localization rate -------------------------------------------------------

#: Gauss-Legendre order of every channel integral, shipped as package data:
#: ``leggauss_1024.npy`` holds the rows (nodes, weights), the exact float64
#: output of ``numpy.polynomial.legendre.leggauss(1024)`` (``numpy.save`` of the
#: two rows stacked). Loading it is a small file read; leggauss(1024) solves a
#: dense 1024 x 1024 eigenvalue problem.
RULE_ORDER = 1024

#: Elements per block of the kick matrix, ``io.BLOCK_BYTES`` of float64. All the
#: temporaries of a block together stay small enough that freeing the kick matrix
#: does not trim the heap, so each call reuses heap pages instead of faulting in
#: fresh ones. Chosen by measurement: 12288 refaults about 10k pages on 50 separations.
_KICK_BLOCK_ELEMENTS = BLOCK_BYTES // 8

#: Most separations one surface takes: each channel integral fills a separations x
#: ``RULE_ORDER`` float64 work buffer, 128 MiB at this count.
MAX_SEPARATIONS = (128 << 20) // (8 * RULE_ORDER)

#: Largest relative error a channel integral may carry, by its a-priori bound.
QUADRATURE_RTOL = 1.0e-6

#: Bernstein ellipse of the error bound, the image of |u| = rho under x = (u + 1/u) / 2
#: with [-1, 1] mapped onto the support: just inside rho = 1.667, where it meets the
#: first Bose poles hbar omega / k T = +-2 pi i.
_BERNSTEIN_RHO = 1.6
#: Largest |1 + x| and |Im x| on that ellipse: one plus its semi-major axis, and its semi-minor axis.
_ELLIPSE_REACH = 1.0 + 0.5 * (_BERNSTEIN_RHO + 1.0 / _BERNSTEIN_RHO)
_ELLIPSE_HEIGHT = 0.5 * (_BERNSTEIN_RHO - 1.0 / _BERNSTEIN_RHO)
#: p -> (sup of |w^p / expm1(w)| over the ellipse, w = hbar omega / k T, rounded up;
#: the integral p! zeta(p + 1) of w^p / expm1(w) over w > 0). The tests sample the
#: ellipse's boundary, where the sup lies by the maximum-modulus principle.
_PLANCK_SHAPE = {3: (213.0, math.pi**4 / 15.0), 6: (41150.0, 720.0 * 1.0083492773819228)}


@lru_cache(maxsize=1)
def _stored_rule() -> tuple[np.ndarray, np.ndarray]:
    """The shipped ``RULE_ORDER``-node rule as (nodes, weights)."""
    with resources.files(__package__).joinpath(f"leggauss_{RULE_ORDER}.npy").open("rb") as f:
        nodes, weights = np.load(f)
    return nodes, weights


def _weighted_spectrum(channel, rule) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of ``rule``, a Gauss-Legendre (nodes, weights) pair on [-1, 1], mapped onto
    the channel's support, and gamma(omega) times the weight at each. An empty support
    maps every node to 0 with weight 0, and calls no ``rate_density``."""
    lo, hi = channel.support()
    half = 0.5 * (hi - lo)
    nodes, weights = lo + half * (rule[0] + 1.0), half * rule[1]
    if hi <= lo:
        return nodes, weights
    return nodes, channel.rate_density(nodes) * weights


def _channel_rate(spectrum, delta_x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Localization rate of one channel over a 1-d array of separations.

    ``spectrum`` is the channel's :func:`_weighted_spectrum`; where its weights are all
    zero, so is the rate. The kick matrix is filled a block of rows at a time, but the
    matrix-vector product runs on the whole matrix: BLAS sums a row in an order that
    depends on the row count, so a blocked product would move the last bits. The matrix
    takes the first delta_x.size * len(nodes) elements of the float64 buffer ``work``.
    """
    nodes, weighted = spectrum
    if not weighted.any():
        return np.zeros_like(delta_x)
    kick = work[:delta_x.size * nodes.size].reshape(delta_x.size, nodes.size)
    rows = max(1, _KICK_BLOCK_ELEMENTS // nodes.size)
    for start in range(0, delta_x.size, rows):
        block = slice(start, start + rows)
        z = np.multiply.outer(delta_x[block], nodes) / LIGHT_SPEED
        kick[block] = angular_factor(z)
    return kick @ weighted


def _log_error_bound(channel, delta_x: np.ndarray, n_nodes: int) -> np.ndarray:
    """Natural log of an a-priori bound on the absolute error of ``channel``'s rate on an
    ``n_nodes`` rule; -inf where the bound is 0.

    Gauss-Legendre on an integrand f analytic inside the Bernstein ellipse E_rho errs
    by at most (64/15) M rho^(-2n) / (rho^2 - 1), M = sup |f| on E_rho (Trefethen,
    Approximation Theory and Approximation Practice, Thm 19.3). f is the integrand on
    [-1, 1], half-length included; M is its prefactor times sup |w^p / expm1(w)| times
    a majorant of |1 - sinc z|, all in logarithms, as rho^(-2048) underflows and the bound
    far past the rule's reach overflows (docs/physics-notes.md, "How far the rule
    reaches"). Calls no ``rate_density``.
    """
    p, _ = _SATURATION[channel.kind]
    sup, integral = _PLANCK_SHAPE[p]
    rho = _BERNSTEIN_RHO
    # prefactor times sup: the saturated rate is the prefactor times the integral over [0, inf)
    log_base = (channel._log10_saturated_rate() * math.log(10.0)
                + math.log(0.5 * PLANCK_CUTOFF * sup / integral * (64.0 / 15.0) / (rho * rho - 1.0))
                - 2.0 * n_nodes * math.log(rho))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = delta_x * (0.5 * channel.support()[1] / LIGHT_SPEED)     # z at x = 0
        log_s = np.log(s)
        # sinh r / r - 1 <= (r^2 / 6) e^r at r = max |z|, for small kicks
        series = 2.0 * log_s + _ELLIPSE_REACH * s + math.log(_ELLIPSE_REACH**2 / 6.0)
        # 1 + sinh y / y <= 1 + e^y / (2 y) at y = max |Im z|, from sinc z = int_0^1 cos(z t) dt
        cosine = np.logaddexp(0.0, _ELLIPSE_HEIGHT * s - log_s - math.log(2.0 * _ELLIPSE_HEIGHT))
        return log_base + np.minimum(series, cosine)


def localization_rate_profile(models, delta_x) -> np.ndarray:
    """eta(delta_x) of each model, a tuple of channels, for an array of separations (s^-1):
    one row per separation and one column per model.

    Each distinct channel is integrated once (:func:`_channel_rates`) on the
    ``RULE_ORDER``-node rule; where the rule's a-priori error bound passes
    ``QUADRATURE_RTOL`` of the rate, it raises :class:`QuadratureError` naming the first
    such channel in the models' order, so silent under-resolution is impossible.
    """
    dx = np.atleast_1d(np.asarray(delta_x, dtype=float))
    if not np.all((dx >= 0.0) & (dx < math.inf)):
        raise ValueError("delta_x must be finite and >= 0")
    rates = _channel_rates(list(dict.fromkeys(ch for model in models for ch in model)), dx)
    eta = np.zeros((dx.size, len(models)))
    for j, model in enumerate(models):
        for channel in model:
            eta[:, j] += rates[channel]
    return eta


def _work_buffer(dx: np.ndarray) -> np.ndarray:
    """A float64 buffer that holds the kick matrix of any channel over ``dx``."""
    return np.empty(dx.size * RULE_ORDER)


def _checked_channel_rate(channel, dx: np.ndarray, spectrum, work: np.ndarray) -> np.ndarray:
    """The rate of ``channel`` from its :func:`_weighted_spectrum` on the stored rule, its
    kick matrix in ``work`` (:func:`_work_buffer`), refused where it is not finite or where
    the rule's error bound passes ``QUADRATURE_RTOL`` of it."""
    rate = _channel_rate(spectrum, dx, work)
    if not np.all(np.isfinite(rate)):
        raise QuadratureError(
            f"channel {channel.name!r} not converged: its rate is not finite at "
            f"temperature {channel.temperature!r} K"
        )
    if not rate.any():      # zero temperature or response, or every term underflows: nothing to bound
        return rate
    log_bound = _log_error_bound(channel, dx, RULE_ORDER)
    with np.errstate(over="ignore"):
        # written as "unless within bounds", so a NaN bound is refused too
        passes = np.exp(log_bound) <= QUADRATURE_RTOL * np.abs(rate)
    if not np.all(passes):
        # the ratio at the smallest failing separation, from the log bound, as the bound
        # itself overflows far past the rule's reach: mantissa and power of ten apart
        first = np.flatnonzero(~passes)[np.argmin(dx[~passes])]
        log10_ratio = float(log_bound[first] - math.log(abs(rate[first]))) / math.log(10.0)
        whole = math.floor(log10_ratio)
        mantissa, carry = f"{10.0 ** (log10_ratio - whole):.2e}".split("e")
        # the bound grows with the separation, so the passing separations are the smallest
        reach = (f"on separations up to {float(dx.max())!r} m; the largest that passes is "
                 f"{float(dx[passes].max())!r} m" if passes.any() else
                 f"already at the smallest separation, {float(dx.min())!r} m")
        raise QuadratureError(
            f"channel {channel.name!r} not converged: the {RULE_ORDER}-node rule's error "
            f"bound is {mantissa}e{whole + int(carry):+03d} relative (tol {QUADRATURE_RTOL:.0e}) "
            f"at temperature {channel.temperature!r} K {reach}"
        )
    return rate


# -- channel integrals in forked processes --------------------------------------

def _share_count(n_channels: int) -> int:
    """Processes that integrate ``n_channels`` channels: one per CPU this process may run
    on, at most one per channel. Only one while another Python thread runs, since a forked
    child would hold just the forking thread and whatever locks the others held."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_channels) or 1


def _share_rates(channels, spectra, dx: np.ndarray) -> list[np.ndarray]:
    """Checked rates of ``channels``, in order, up to the first one refused. One work buffer
    serves them all: freed and taken again per channel, next to the small rates that stay,
    it could fragment the heap so that a later buffer no longer fits in the freed one; the
    command's peak then rose by 0.9 MiB, or not, with the length of its argv."""
    rates = []
    work = _work_buffer(dx)
    for channel, spectrum in zip(channels, spectra):
        try:
            rates.append(_checked_channel_rate(channel, dx, spectrum, work))
        except QuadratureError:
            break
    return rates


def _channel_rates(channels: list, dx: np.ndarray) -> dict:
    """Checked rates of the distinct ``channels`` over ``dx``, integrated in shares.

    Channel i goes to share i % n, n = :func:`_share_count`. This process runs share 0;
    each other share runs in a forked child, which sends its finished rates back through
    a pipe, once, and leaves by ``os._exit``. A share stops at its first refused channel.
    Once every child is reaped, this process integrates, in order, each channel no share
    returned (a refused one, the rest of its share, a dead or unforked child's share, a
    rate cut off mid-write), so it raises the serial walk's first refusal. Every weighted
    spectrum is evaluated in this process; every kick matrix, product and check runs whole
    in one process.
    """
    rule = _stored_rule()
    shares = _share_count(len(channels))
    # the children's spectra, in one block: mapped, never touched at share 0's rows,
    # and unmapped here once the children hold it
    handed = np.empty((len(channels), 2, RULE_ORDER))
    children = []       # (pid, read end of its pipe, its channels)
    try:
        for share in range(1, shares):
            for i in range(share, len(channels), shares):
                handed[i] = _weighted_spectrum(channels[i], rule)
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                try:
                    os.close(read)
                    rates = _share_rates(channels[share::shares], handed[share::shares], dx)
                    with open(write, "wb") as pipe:
                        pipe.writelines(rates)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read, channels[share::shares]))
        del handed
        own = channels[::shares]
        rates = dict(zip(own, _share_rates(own, (_weighted_spectrum(ch, rule) for ch in own), dx)))
        for _, read, sent_for in children:
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            whole = len(sent) // (8 * dx.size)      # a child killed mid-write sends a part
            sent = np.frombuffer(sent, count=whole * dx.size).reshape(whole, dx.size)
            rates.update(zip(sent_for, sent))
    except BaseException:
        import signal       # here, so that no command that succeeds imports it
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read, _ in children:
            os.close(read)
            os.waitpid(pid, 0)
    missing = [channel for channel in channels if channel not in rates]
    if missing:
        work = _work_buffer(dx)     # one for them all, as in _share_rates
        for channel in missing:
            rates[channel] = _checked_channel_rate(channel, dx, _weighted_spectrum(channel, rule), work)
    return rates


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


def visibility_surface(params: ExperimentParams, delta_x_range, t_int_range,
                       flight_time: float) -> VisibilitySurface:
    """Tabulate exp(-eta(dx; T_int) * t) of the :func:`default_model` channels, one
    :func:`localization_rate_profile` column per internal temperature."""
    dx = np.asarray(list(delta_x_range), dtype=float)
    tins = np.asarray(list(t_int_range), dtype=float)
    if dx.size == 0 or tins.size == 0:
        raise ValueError("axes must be non-empty")
    # every column's channels first, so that a refused channel stops the surface before any work
    models = [default_model(params, float(t_int)) for t_int in tins]
    vis = localization_rate_profile(models, dx)
    # in place, eta * -t having the bits of -eta * t; an exposure that overflows to inf
    # decays to exactly 0.0, as its finite neighbours beyond about 745 already do
    with np.errstate(over="ignore"):
        np.exp(np.multiply(vis, -flight_time, out=vis), out=vis)
    return VisibilitySurface(delta_x_axis=dx, t_int_axis=tins,
                             visibility=vis, flight_time=flight_time)


# -- serialization -----------------------------------------------------------------

def surface_to_csv(surface: VisibilitySurface) -> Iterator[bytes]:
    """Matrix CSV, as ``io.csv_text`` pieces: first row the T_int axis, first column the delta_x axis."""
    header = ["delta_x_m\\t_int_K", *map(fmt, surface.t_int_axis)]
    return csv_text(header, np.column_stack([surface.delta_x_axis, surface.visibility]))


def surface_to_json(surface: VisibilitySurface, metadata: dict | None = None) -> Iterator[bytes]:
    """The surface as a JSON document of its float arrays, as ``io.json_document`` pieces; an
    empty ``metadata`` is left out."""
    payload = {"delta_x_m": surface.delta_x_axis, "flight_time_s": surface.flight_time,
               "t_int_K": surface.t_int_axis, "visibility": surface.visibility}
    if metadata:
        payload["metadata"] = metadata
    return json_document(payload)
