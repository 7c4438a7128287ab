"""Independent routes used to freeze and cross-check expected values.

Trajectories come from fine-step velocity-Verlet integration, actions from
trapezoid integration of the Lagrangian along those paths, sphere averages
from Monte-Carlo sampling and localization rates from adaptive quadrature;
none of these calls the closed forms under test. The action route to phi_g
leans on ``separation_time_integral``, which is itself checked against Verlet.
The package moves every branch centre with one walk, ``dynamics._walk``, and
sums phi's action from its records, in the arithmetic of ``evolved_reference``:
the constant-force closed form each branch was once stepped through, kept here
unchanged. ``evolved_branches_reference`` steps a branch pair through it, and
``evolve_sequence`` must give every bit of it. The separation observables are
checked bit for bit against ``relative_segments_reference``, which walks each
branch centre on its own through ``classical_trajectory_reference`` with the
same step, and within a few ulps against the walk's older arithmetic,
``classical_step_reference``; ``classical_walk_reference`` puts that arithmetic
back into the grid's sizing walk. The extremes the walk's readers find
(``max_separation``, ``auto_grid``'s domain and size, the flight's momentum check)
are checked against ``sampled_trajectory``, the same centres sampled densely.
The grid's closed-form segment propagator is checked against the Strang
loop it composes: ``strang_reference``, the plain unfused one-branch loop, and
``flight_reference``, which runs a flight's rows through the fused loop with
fresh arrays at every step, to 1e-12 in amplitude. The broadcast CLI sweep is checked against
``sweep_reference``, the loop that builds every point's objects from Python
scalars and calls the closed forms once per point. The blocked, masked
quadrature kernel is checked bit for bit against ``angular_factor_reference``
and ``channel_rate_reference``, which evaluate both branches of 1 - sinc on a
whole kick matrix built on a rule computed by ``leggauss``. The Dicke
sectors are checked against brute-force 2^l statevectors of l pseudo-spins.
The column-wise table emitters are checked byte for byte against
``csv_text_reference`` and ``json_table_reference``, which call ``fmt`` once
per cell and let the json module lay out the document.
The CLI's one-pass flag parser is checked against ``build_parser``, the
argparse parser it replaced, kept here unchanged as the reference.

Four compositions of package routines that no command runs live here too,
beside the claims the tests make with them; unlike the routes above, they
call the code under test. ``evolve_branches`` moves a branch pair with any
initial spins to any horizon through the package's ``dynamics._walk`` and
``dynamics._branch_end``, and
at its defaults equals ``evolve_sequence`` bit for bit;
``separation_time_integral`` sums the separation pieces of
``dynamics._relative_segments``; ``dephasing_exposures`` returns the
peak-separation exposure that the visibility surface takes and the
time-resolved one it bounds; ``sector_action_phases`` runs
``evolve_branches`` once per Dicke sector.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from nanoramsey import __version__, dynamics
from nanoramsey.cli import (
    EXIT_VALIDATION,
    OUTPUT_COLUMNS,
    SWEEPABLE,
    _cmd_budget,
    _cmd_certify,
    _cmd_dicke,
    _cmd_dump_snapshots,
    _cmd_sweep,
    _cmd_visibility,
)
from nanoramsey.constants import HBAR, LIGHT_SPEED
from nanoramsey.decoherence import (
    QuadratureError,
    VisibilitySurface,
    angular_factor,
    default_model,
    localization_rate_profile,
)
from nanoramsey.dynamics import (
    CompositeState,
    GaussianBranchState,
    PulseSequence,
    _spin_history,
    branch_overlap,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    max_separation,
    ramsey_probability,
)
from nanoramsey.grid import _check_margin, gaussian_packet
from nanoramsey.io import fmt
from nanoramsey.params import (
    ConfigError,
    all_of,
    branch_force,
    build_params,
    first,
    number,
    power,
    where,
)


def evolve_branches(params, seq, initial, spins=(1, -1), until=None):
    """The (plus, minus) branches of ``initial`` from initial spins ``spins`` through
    the flip sequence, to t3 or to the horizon ``until`` in [0, t3].

    Spin 0 is the kinetic variant that superposes spin 0 with spin +-1, and
    ``until`` exposes the mid-flight delocalized state. Over array sequences, a
    point whose horizon falls before a segment sits that segment out.
    """
    e1, e2, e3 = seq.effective_times()
    horizon = e3 if until is None else float(until)
    ok = (0.0 <= horizon) & (horizon <= e3)
    if not all_of(ok):
        raise ValueError(f"until must lie in [0, {first(np.logical_not(ok), e3)}]")
    edges = [where(horizon < e, horizon, e) for e in (0.0, e1, e2, e3)]     # min(e, horizon)
    durations = []
    for start, stop in zip(edges, edges[1:]):
        idle = stop <= start
        if all_of(idle):
            break
        durations.append(where(idle, 0.0, stop - start))
    cubes = [power(tau, 3) for tau in durations]
    branches = []
    for state, spin in zip((initial.plus_branch, initial.minus_branch), spins):
        forces = [branch_force(params, s) for s in _spin_history(spin)]
        walk = dynamics._walk(durations, forces, params.mass, state.center, state.momentum)
        branches.append(dynamics._branch_end(params.mass, durations, cubes, forces, walk, state.action_phase))
    clock = initial.spread_time
    for tau in durations:
        clock = clock + tau
    return CompositeState(*branches, clock)


def evolved_reference(x, p, phase, f, tau, m):
    """(centre, momentum, action phase) of a branch at (``x``, ``p``, ``phase``) moved for
    ``tau`` under the constant force ``f``: the closed form of the package's former
    ``GaussianBranchState.evolved``, every operation in its order."""
    action = (
        p * p * tau / (2.0 * m)
        + f * x * tau
        + f * p * tau * tau / m
        + f * f * power(tau, 3) / (3.0 * m)
    )
    return x + p * tau / m + f * tau * tau / (2.0 * m), p + f * tau, phase + action / HBAR


def evolved_step_reference(x, p, f, tau, m):
    """(centre, momentum) of ``evolved_reference``: the arithmetic of ``dynamics._walk``."""
    x, p, _ = evolved_reference(x, p, 0.0, f, tau, m)
    return x, p


def classical_step_reference(x, p, f, tau, m):
    """(centre, momentum) after ``tau`` under ``f`` in the package's older walk arithmetic,
    through the acceleration a = f / m; it differs from ``evolved_step_reference`` by ulps."""
    a = f / m
    return x + ((p / m) * tau + 0.5 * a * tau * tau), p + m * a * tau


def classical_walk_reference(durations, forces, mass, x=0.0, p=0.0):
    """``dynamics._walk`` with ``classical_step_reference``'s arithmetic: the walk as the grid
    sized its domain before the package had one walk."""
    segments = []
    for tau, f in zip(durations, forces):
        segments.append((x, p, f / mass))
        x, p = classical_step_reference(x, p, f, tau, mass)
    return segments, (x, p)


def evolved_branches_reference(params, seq, initial):
    """The (plus, minus) branch pair of ``initial`` at t3, each branch stepped segment by
    segment through ``evolved_reference`` from spin +1 and -1: the phase route as the
    package ran it before ``evolve_sequence`` read the one walk."""
    durations = seq.segment_durations()
    branches = []
    for state, spin in zip((initial.plus_branch, initial.minus_branch), (1, -1)):
        x, p, phase = state.center, state.momentum, state.action_phase
        for tau, s in zip(durations, _spin_history(spin)):
            x, p, phase = evolved_reference(x, p, phase, branch_force(params, s), tau, params.mass)
        branches.append(GaussianBranchState(x, p, phase))
    return CompositeState(*branches, initial.spread_time + durations[0] + durations[1] + durations[2])


def _force_of_time(params, seq, initial_spin):
    e1, e2, e3 = seq.effective_times()
    s = int(initial_spin)
    f1 = branch_force(params, s)
    f2 = branch_force(params, -s)

    def force(t):
        if t < e1 or t >= e2:
            return f1
        return f2

    return force, e3


def integrate_trajectory(params, seq, initial_spin, x0=0.0, p0=0.0, n_steps=200_000):
    """Velocity-Verlet integration; returns (t, x, v) arrays including endpoints.

    Steps are aligned so that the flip times fall exactly on grid points,
    which keeps the integration exact for piecewise-constant forces up to
    rounding (the force is constant inside every step).
    """
    force, t_end = _force_of_time(params, seq, initial_spin)
    e1, e2, _ = seq.effective_times()
    edges = [0.0, e1, e2, t_end]
    m = params.mass
    ts = [0.0]
    xs = [float(x0)]
    vs = [float(p0) / m]
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, int(round(n_steps * (b - a) / t_end)))
        dt = (b - a) / n
        f = force(0.5 * (a + b)) / m
        for k in range(n):
            t = a + k * dt
            x_new = xs[-1] + vs[-1] * dt + 0.5 * f * dt * dt
            v_new = vs[-1] + f * dt
            ts.append(t + dt)
            xs.append(x_new)
            vs.append(v_new)
    return np.asarray(ts), np.asarray(xs), np.asarray(vs)


def numeric_action(params, seq, initial_spin, x0=0.0, p0=0.0, n_steps=400_000):
    """Trapezoid integral of L = m v^2/2 + F x along the integrated path (J s).

    Integrated segment by segment so the force discontinuities at the flips
    never enter a trapezoid panel.
    """
    e1, e2, e3 = seq.effective_times()
    edges = [0.0, e1, e2, e3]
    s = int(initial_spin)
    m = params.mass
    ts, xs, vs = integrate_trajectory(params, seq, initial_spin, x0, p0, n_steps)
    # boundary slack well above time-grid rounding, well below the step size
    slack = 1e-9 * e3
    total = 0.0
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        f = branch_force(params, s if k != 1 else -s)
        sel = (ts >= a - slack) & (ts <= b + slack)
        lagr = 0.5 * m * vs[sel] ** 2 + f * xs[sel]
        total += float(np.trapezoid(lagr, ts[sel]))
    return total


def numeric_separation_integral(params, seq, n_steps=400_000):
    """Trapezoid integral of x_plus - x_minus over the flight (m s)."""
    tp, xp, _ = integrate_trajectory(params, seq, +1, n_steps=n_steps)
    tm, xm, _ = integrate_trajectory(params, seq, -1, n_steps=n_steps)
    assert np.allclose(tp, tm)
    return float(np.trapezoid(xp - xm, tp))


def classical_trajectory_reference(params, seq, initial_spin, x0=0.0, p0=0.0,
                                   step=classical_step_reference):
    """(breakpoints, accelerations) of the branch centre that starts on ``initial_spin``.

    ``breakpoints`` holds (time, centre, momentum) at the segment boundaries, the
    times accumulated segment by segment and each segment moved by ``step``: the
    older classical arithmetic by default, ``evolved_step_reference`` for the
    package's walk.
    """
    durations = seq.segment_durations()
    spins = _spin_history(int(initial_spin))
    m = params.mass
    t, x, p = 0.0, number(x0), number(p0)
    breakpoints = [(t, x, p)]
    accels = []
    for tau, s in zip(durations, spins):
        f = branch_force(params, s)
        accels.append(f / m)
        x, p = step(x, p, f, tau, m)
        t = t + tau
        breakpoints.append((t, x, p))
    return breakpoints, accels


def sampled_trajectory(params, seq, initial_spin, samples, x0=0.0, p0=0.0, until=None):
    """(t, x, p) arrays of the branch centre that starts on ``initial_spin``, at ``samples``
    evenly spaced times in each segment of ``classical_trajectory_reference`` (both ends
    included), up to ``until`` (default t3); each point is its segment's closed form."""
    breakpoints, accels = classical_trajectory_reference(params, seq, initial_spin, x0, p0)
    horizon = breakpoints[-1][0] if until is None else until
    ts, xs, ps = [], [], []
    for (t0, x, p), a, (t1, _, _) in zip(breakpoints, accels, breakpoints[1:]):
        if t0 > horizon:
            break
        dt = np.linspace(0.0, min(t1, horizon) - t0, samples)
        ts.append(t0 + dt)
        xs.append(x + (p / params.mass) * dt + 0.5 * a * dt * dt)
        ps.append(p + params.mass * a * dt)
    return np.concatenate(ts), np.concatenate(xs), np.concatenate(ps)


def relative_segments_reference(params, seq, step=evolved_step_reference):
    """Per-segment (start, duration, dx0, dv0, da) from the two reference trajectories, each
    moved by ``step``: by default the arithmetic of the package's walk."""
    plus, plus_accels = classical_trajectory_reference(params, seq, +1, step=step)
    minus, minus_accels = classical_trajectory_reference(params, seq, -1, step=step)
    m = params.mass
    out = []
    for k in range(len(plus_accels)):
        t0, xp, pp = plus[k]
        _, xm, pm = minus[k]
        tau = plus[k + 1][0] - t0
        out.append((t0, tau, xp - xm, (pp - pm) / m, plus_accels[k] - minus_accels[k]))
    return out


def separation_at_reference(params, seq, t, step=classical_step_reference):
    """x_plus(t) - x_minus(t), each centre evaluated in its own trajectory segment, the
    segment starts moved by ``step``."""
    centres = []
    for spin in (+1, -1):
        breakpoints, accels = classical_trajectory_reference(params, seq, spin, step=step)
        times = [b[0] for b in breakpoints]
        if not times[0] <= t <= times[-1]:
            raise ValueError(f"time {t} outside trajectory range [{times[0]}, {times[-1]}]")
        k = max(0, min(len(accels) - 1, np.searchsorted(times, t, side="right") - 1))
        t0, x0, p0 = breakpoints[k]
        dt = t - t0
        centres.append(x0 + (p0 / params.mass) * dt + 0.5 * accels[k] * dt * dt)
    return centres[0] - centres[1]


def mc_sphere_kick_average(k, delta_x, n_samples, seed):
    """Monte-Carlo estimate of 1 - <cos(k dx n_x)> over uniform sphere directions.

    Directions are drawn as normalized 3-d Gaussians; also returns the
    imaginary part <sin(k dx n_x)>, which must vanish by symmetry.
    """
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n_samples, 3))
    n_x = vecs[:, 0] / np.linalg.norm(vecs, axis=1)
    phase = k * delta_x * n_x
    return 1.0 - float(np.mean(np.cos(phase))), float(np.mean(np.sin(phase)))


def separation_time_integral(params, seq):
    """Exact integral of the signed separation x_plus - x_minus over the flight (m s).

    Sums the piecewise polynomial of each ``dynamics._relative_segments`` piece,
    looked up on the module so that a test can swap the segment walk.
    """
    total = 0.0
    for _, tau, dx0, dv0, da in dynamics._relative_segments(params, seq):
        total = total + (dx0 * tau + 0.5 * dv0 * tau * tau
                         + da * power(tau, 3) / 6.0)
    return total


def gravitational_phase_action(params, seq):
    """Route (a): phi_g from the semiclassical action difference.

    Evaluates (m g cos(theta) / hbar) * integral of the branch separation,
    using exact piecewise-polynomial integration of the classical paths.
    """
    if not seq.is_balanced():
        raise ValueError("action route requires a balanced sequence")
    w = params.g_earth * math.cos(params.theta)
    return params.mass * w * separation_time_integral(params, seq) / HBAR


class _CanonicalUnitary:
    """Factorized one-dimensional linear-force propagator.

    Any product of constant-force segment propagators can be kept in the
    ordered form exp(i*phi) exp(i*b*x/h) exp(-i*p^2*T/(2 m h)) exp(i*a*p/h);
    composing two such forms only produces scalar phase corrections because
    the commutators close on c-numbers.
    """

    __slots__ = ("phi", "b", "T", "a", "mass", "hbar")

    def __init__(self, mass, hbar):
        self.phi = 0.0
        self.b = 0.0
        self.T = 0.0
        self.a = 0.0
        self.mass = mass
        self.hbar = hbar

    def apply_segment(self, force, tau):
        """Left-multiply by the exact propagator of H = p^2/2m - force*x."""
        m, h = self.mass, self.hbar
        phi_s = -(force**2) * tau**3 / (6.0 * m * h)
        b_s = force * tau
        a_s = -force * tau * tau / (2.0 * m)
        # commute the new segment's p-translation past the stored x-translation
        self.phi += phi_s + a_s * self.b / h
        # commute the new kinetic factor past the stored x-translation
        self.phi += -(self.b**2) * tau / (2.0 * m * h)
        a_extra = -self.b * tau / m
        self.b += b_s
        self.T += tau
        self.a += a_s + a_extra


def gravitational_phase_propagator(params, seq):
    """Route (b): phi_g from exact composition of piecewise propagators.

    Builds the full unitary of each branch from per-segment factorized
    propagators and returns the scalar phase difference. At closure the
    operator parts of the two branch unitaries coincide, so the difference
    is a pure spin phase; the returned sign matches the closed form
    (the branch phases themselves obey phi_plus - phi_minus = -phi_g).
    """
    if not seq.is_balanced():
        raise ValueError("propagator route requires a balanced sequence")
    durations = seq.segment_durations()
    units = []
    for s in (1, -1):
        u = _CanonicalUnitary(params.mass, HBAR)
        # the flip pulses map s -> -s at t1 and t2
        for tau, spin in zip(durations, (s, -s, s)):
            u.apply_segment(branch_force(params, spin), tau)
        units.append(u)
    up, um = units
    if abs(up.b - um.b) > 1e-9 * max(1.0, abs(up.b)) or abs(up.a - um.a) > 1e-9 * max(1.0, abs(up.a)):
        raise ValueError("branch unitaries do not close; sequence is not balanced")
    return -(up.phi - um.phi)


def localization_rate_adaptive(channels, delta_x):
    """The localization rate eta(delta_x) via adaptive Gauss-Kronrod quadrature."""
    if delta_x < 0.0:
        raise ValueError("delta_x must be >= 0")
    total = 0.0
    for channel in channels:
        lo, hi = channel.support()
        if hi <= lo:
            continue

        def integrand(omega):
            gam = channel.rate_density(np.asarray([omega]))[0]
            return gam * angular_factor(omega / LIGHT_SPEED * delta_x)

        value, abserr = integrate.quad(integrand, lo, hi, limit=400)
        if abserr > max(1e-10, 1e-6 * abs(value)):
            raise QuadratureError(
                f"adaptive quadrature for channel {channel.name!r} reports error "
                f"{abserr:.2e} on value {value:.2e}"
            )
        total += value
    return total


#: Gauss-Legendre nodes per flight piece of the time-resolved exposure.
TIME_NODES = 24

_leggauss_rule = lru_cache(maxsize=None)(leggauss)


def gauss_nodes(lo, hi, n_nodes):
    """``leggauss(n_nodes)`` mapped onto [lo, hi], as the quadrature maps its rules."""
    nodes, weights = _leggauss_rule(n_nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def dephasing_exposures(params, seq, channels):
    """(worst-case, time-resolved) dimensionless dephasing exposures.

    Worst case is eta(peak separation) * t3, as the visibility surface takes
    it; the refinement integrates eta(|dx(t)|) dt along the actual separation
    profile, ``TIME_NODES`` Gauss-Legendre nodes per piece, with the pieces
    split at the flips and at t3 / 2.
    """
    t3 = seq.effective_times()[2]
    bound = float(localization_rate_profile([channels], max_separation(params, seq))[0, 0]) * t3
    edges = sorted({0.0, *seq.effective_times(), t3 / 2.0})
    refined = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        nodes, weights = gauss_nodes(a, b, TIME_NODES)
        # the piece lies inside one segment: the last that starts before its midpoint
        start, _, dx0, dv0, da = [seg for seg in dynamics._relative_segments(params, seq)
                                  if seg[0] <= 0.5 * (a + b)][-1]
        dt = nodes - start
        seps = np.abs(dx0 + dv0 * dt + 0.5 * da * dt * dt)
        rates = localization_rate_profile([channels], seps)[:, 0]
        refined += float(np.dot(rates, weights))
    return bound, refined


def angular_factor_reference(z):
    """1 - sinc(z) on a whole array: both branches everywhere, then np.where."""
    z = np.asarray(z, dtype=float)
    z2 = z * z
    series = z2 / 6.0 - z2 * z2 / 120.0 + z2 * z2 * z2 / 5040.0
    with np.errstate(invalid="ignore"):
        direct = 1.0 - np.sinc(z / np.pi)
    return np.where(np.abs(z) < 0.1, series, direct)


def channel_rate_reference(channel, delta_x, n_nodes):
    """One channel's rate from a ``leggauss`` rule and one whole kick matrix."""
    lo, hi = channel.support()
    if hi <= lo:
        return np.zeros_like(delta_x)
    nodes, weights = gauss_nodes(lo, hi, n_nodes)
    gam = channel.rate_density(nodes)
    kick = angular_factor_reference(np.outer(delta_x, nodes) / LIGHT_SPEED)
    return kick @ (gam * weights)


def visibility_surface_reference(params, delta_x_range, t_int_range, flight_time,
                                 n_nodes=1024):
    """exp(-eta t) column by column, every channel of every column integrated
    afresh at ``n_nodes`` with ``channel_rate_reference``."""
    dx = np.asarray(list(delta_x_range), dtype=float)
    tins = np.asarray(list(t_int_range), dtype=float)
    vis = np.empty((dx.size, tins.size))
    for j, t_int in enumerate(tins):
        eta = np.zeros_like(dx)
        for channel in default_model(params, float(t_int)):
            eta += channel_rate_reference(channel, dx, n_nodes)
        vis[:, j] = np.exp(-eta * flight_time)
    return VisibilitySurface(delta_x_axis=dx, t_int_axis=tins,
                             visibility=vis, flight_time=flight_time)


def strang_reference(psi, force, duration, spec):
    """Strang-split evolution under H = p^2/2 - force*x (natural units).

    Second order in the step size; for a linear potential the splitting error
    is a pure c-number phase (the commutator algebra closes), so centres and
    widths are exact up to discretization.
    """
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    if duration == 0.0:
        return psi
    _check_margin(psi, spec)
    steps = spec.steps_per_segment
    dt = duration / steps
    k = 2.0 * np.pi * np.fft.fftfreq(spec.n_points, d=spec.dx)
    half_kinetic = np.exp(-0.25j * k * k * dt)
    potential = np.exp(1j * force * spec.x * dt)       # V = -force*x
    amps = psi
    for _ in range(steps):
        amps = np.fft.ifft(half_kinetic * np.fft.fft(amps))
        amps = potential * amps
        amps = np.fft.ifft(half_kinetic * np.fft.fft(amps))
    _check_margin(amps, spec)
    return amps


def reference_branch(scaled, spec, spin, until=None):
    """One spin branch from t = 0 through its (possibly truncated) flip
    sequence, segment by segment with ``strang_reference``."""
    psi = gaussian_packet(spec)
    horizon = scaled.total_time if until is None else until
    elapsed = 0.0
    for tau, a in zip(scaled.seg_times, scaled.branch_accelerations(_spin_history(spin))):
        step = min(tau, horizon - elapsed)
        if step <= 0.0:
            break
        psi = strang_reference(psi, a, step, spec)
        elapsed += step
    return psi


def paired_strang_reference(psi, force, duration, spec):
    """One segment of the rows of ``psi`` through the fused Strang loop, one fft/ifft pair
    per step and fresh arrays at every step, with the margin guard before and after."""
    force = np.asarray(force, dtype=float)[..., None]
    _check_margin(psi, spec, kick=force[..., 0] * duration)
    steps = spec.steps_per_segment
    dt = duration / steps
    k = 2.0 * np.pi * np.fft.fftfreq(spec.n_points, d=spec.dx)
    kinetic = np.exp(-0.5j * k * k * dt)
    half_kinetic = np.exp(-0.25j * k * k * dt)
    potential = np.exp(1j * force * spec.x * dt)      # V = -force*x
    amps = np.fft.fft(psi) * half_kinetic
    for i in range(steps):
        amps = np.fft.fft(potential * np.fft.ifft(amps))
        amps *= kinetic if i < steps - 1 else half_kinetic
    out = np.fft.ifft(amps)
    _check_margin(out, spec)
    return out


def flight_reference(scaled, spec, spins=(1, -1), center=0.0, momentum=0.0, until=None):
    """The rows of ``spins``, from a packet at ``center`` with ``momentum``, through their
    (possibly truncated) flip sequences, segment by segment with ``paired_strang_reference``.

    ``until`` is one horizon (default t3) or an ascending list, walked in one forward pass
    that returns one state per horizon; durations are cut as the package cuts them.
    """
    psi = np.tile(gaussian_packet(spec, center, momentum), (len(spins), 1))
    accelerations = np.array([scaled.branch_accelerations(_spin_history(s)) for s in spins]).T
    states, t = [], 0.0
    for horizon in np.atleast_1d(scaled.total_time if until is None else until):
        start = 0.0
        for tau, a in zip(scaled.seg_times, accelerations):
            piece = min(start + tau, horizon) - max(start, t)
            if piece > 0.0:
                psi = paired_strang_reference(psi, a, piece, spec)
            start += tau
        states.append(psi)
        t = horizon
    return states if np.ndim(until) else states[0]


def _sequence_from_config(cfg: dict) -> PulseSequence:
    t3 = float(cfg["t3"])
    t1 = float(cfg.get("t1", t3 / 4.0))
    t2 = float(cfg.get("t2", 3.0 * t3 / 4.0))
    jitter = (float(cfg.get("jitter_t1", 0.0)),
              float(cfg.get("jitter_t2", 0.0)),
              float(cfg.get("jitter_t3", 0.0)))
    return PulseSequence(t1=t1, t2=t2, t3=t3, jitter=jitter)


def _point_outputs(params, seq) -> dict:
    if seq.is_balanced():
        phi = gravitational_phase(params, seq)
        vis = 1.0
    else:
        ov = branch_overlap(params, evolve_sequence(params, seq, initial_state()))
        phi = -math.atan2(ov.imag, ov.real)
        vis = abs(ov)
    return {
        "phi_g_rad": phi,
        "p0": ramsey_probability(phi),
        "delta_x_max_m": max_separation(params, seq),
        "visibility": vis,
    }


def _sweep_values(args) -> list[float]:
    if args.values:
        vals = [float(v) for v in args.values.split(",") if v.strip()]
        if not vals:
            raise ConfigError("empty --values list")
        return vals
    if args.start is None or args.stop is None:
        raise ConfigError("pass --values or all of --start/--stop/--count")
    if args.count < 2:
        raise ConfigError("--count must be >= 2 for a range sweep")
    if args.log:
        if args.start <= 0 or args.stop <= 0:
            raise ConfigError("log spacing needs positive endpoints")
        return list(np.geomspace(args.start, args.stop, args.count))
    return list(np.linspace(args.start, args.stop, args.count))


def _apply_sweep_value(cfg: dict, name: str, value: float) -> dict:
    out = dict(cfg)
    if name == "t3":
        # preserve the sequence shape: t1/t3 and t2/t3 ratios stay fixed
        old_t3 = float(cfg["t3"])
        for key in ("t1", "t2"):
            if key in out:
                out[key] = float(out[key]) * value / old_t3
    out[name] = value
    return out


def run_point(cfg: dict, name: str, value: float) -> dict:
    """Output columns of one swept value, from Python scalars."""
    cfg_v = _apply_sweep_value(cfg, name, value)
    params = build_params(cfg_v)
    seq = _sequence_from_config(cfg_v)
    return _point_outputs(params, seq)


def sweep_reference(cfg: dict, args) -> tuple[list[str], list[tuple]]:
    """(header, rows) of ``nanoramsey sweep`` on the parsed config ``cfg``, point by point.

    ``args`` is the parsed sweep command line. Every swept value builds its
    own parameters and sequence from Python scalars, as the CLI did before
    the sweep became one broadcast call.
    """
    outputs = [c.strip() for c in args.outputs.split(",") if c.strip()]
    values = _sweep_values(args)
    points = [run_point(cfg, args.param, v) for v in values]
    header = ["param_value", *outputs]
    rows = [(v, *[p[c] for c in outputs]) for v, p in zip(values, points)]
    return header, rows


# -- per-cell table emitters ------------------------------------------------------

def joined(pieces) -> str:
    """A document's byte pieces, as ``io`` emitters return them, as its text."""
    pieces = list(pieces)
    assert all(type(piece) is bytes for piece in pieces)
    return b"".join(pieces).decode("utf-8")


def csv_text_reference(header, rows) -> str:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def json_table_reference(header, rows, metadata: dict) -> str:
    """JSON mirror of a CSV table: same cells, plus run metadata."""
    payload = {
        "columns": list(header),
        "rows": [[fmt(v) for v in row] for row in rows],
        "metadata": metadata,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


# -- brute-force statevectors of l pseudo-spins --------------------------------

#: 4096-dimensional statevectors at most
MAX_BRUTE_FORCE_L = 12


def sector_action_phases(params, seq, l: int):
    """Exact per-sector action phases: a list of (M, S_M/hbar), M = -l, -l + 2, ..., l.

    Sector M is ``evolve_branches`` with both branches on spin M; the global
    phase is included. The dependence on M is quadratic: a linear part of
    slope -phi_g/2 plus ``sector_phase_quadratic_coefficient`` * M^2.
    """
    out = []
    for n in range(l + 1):
        mv = 2 * n - l
        final = evolve_branches(params, seq, initial_state(), spins=(mv, mv))
        out.append((mv, final.plus_branch.action_phase))
    return out


def dicke_state_vector(l: int, n: int) -> np.ndarray:
    """Normalized Dicke state |D_l^n> in the 2^l computational basis.

    Qubit encoding: bit 0 = spin +1, bit 1 = spin -1; n counts +1 spins.
    """
    if not 1 <= l <= MAX_BRUTE_FORCE_L:
        raise ValueError(f"statevector reconstruction capped at l <= {MAX_BRUTE_FORCE_L}")
    vec = np.zeros(2**l, dtype=complex)
    for idx in range(2**l):
        if l - bin(idx).count("1") == n:
            vec[idx] = 1.0
    return vec / np.linalg.norm(vec)


def product_state_vector(l: int, rel_phase: float) -> np.ndarray:
    """((|+1> + exp(i rel_phase)|-1>)/sqrt(2))^(x l) as a 2^l statevector."""
    single = np.array([1.0, np.exp(1j * rel_phase)], dtype=complex) / math.sqrt(2.0)
    vec = single
    for _ in range(l - 1):
        vec = np.kron(vec, single)
    return vec


def reconstruct_spin_state(l: int, sector_phases) -> np.ndarray:
    """Statevector sum_n amplitude_n exp(i phase(M_n)) |D_l^n>, M_n = 2n - l.

    amplitude_n = sqrt(binomial(l, n)) / 2^(l/2) is the coefficient of the
    uniform product state ((|+1> + |-1>)/sqrt(2))^(x l) on |D_l^n>.
    """
    phase_map = dict(sector_phases)
    vec = np.zeros(2**l, dtype=complex)
    for n in range(l + 1):
        amplitude = math.sqrt(math.comb(l, n)) / 2.0 ** (l / 2.0)
        vec += amplitude * np.exp(1j * phase_map[2 * n - l]) * dicke_state_vector(l, n)
    return vec


def refactorization_fidelity(l: int, phi: float) -> float:
    """|<product | sum_n e^{i M phi} sectors>|^2, the separability identity.

    Sector phases linear in M refactorize exactly: assigning e^{i M phi}
    to sector M reproduces the product state with per-spin relative phase
    -2 phi (each +1 spin contributes e^{i phi}, each -1 spin e^{-i phi},
    up to a global phase).
    """
    phases = [(2 * n - l, (2 * n - l) * phi) for n in range(l + 1)]
    reconstructed = reconstruct_spin_state(l, phases)
    target = product_state_vector(l, -2.0 * phi) * np.exp(1j * l * phi)
    return float(abs(np.vdot(target, reconstructed)) ** 2)


def single_spin_contrast(vec: np.ndarray) -> float:
    """Ramsey contrast 2 |rho_{+-}| of the first spin, the other l - 1 traced out."""
    rows = vec.reshape(2, -1)
    return float(2.0 * abs(np.vdot(rows[1], rows[0])))


# -- the argparse parser the CLI's flag table replaced -----------------------------

def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a flat key=value config file (SI units)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=None,
                     help="integer recorded in the JSON metadata; no command samples, so it moves no number")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_VALIDATION; exit 2 means a numerical failure."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only "-1" and "-1.5" as negative numbers, so "--start -1e-05"
        # would take "-1e-05" for an option; no flag here starts with a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nanoramsey",
        description="Free-flight spin-force Ramsey interferometry toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sweep", help="general parameter sweep with selectable outputs")
    _add_common(p)
    p.add_argument("--param", required=True, help=f"one of: {', '.join(SWEEPABLE)}")
    p.add_argument("--values", default=None, help="comma-separated explicit values")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--log", action="store_true", help="logarithmic range spacing")
    p.add_argument("--outputs", default=",".join(OUTPUT_COLUMNS),
                   help=f"comma list from: {', '.join(OUTPUT_COLUMNS)}")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("visibility", help="decoherence visibility surface")
    _add_common(p)
    p.add_argument("--dx-min", type=float, default=1e-9)
    p.add_argument("--dx-max", type=float, default=1e-6,
                   help="largest separation (m); the quadrature's error bound holds up to "
                        "about 0.178 m K / T, T the hotter of t_environment and --tint-max "
                        "(1.19e-4 m at 1500 K); beyond that the command exits 2")
    p.add_argument("--dx-count", type=int, default=50)
    p.add_argument("--dx-linear", dest="dx_log", action="store_false")
    p.add_argument("--tint-min", type=float, default=300.0)
    p.add_argument("--tint-max", type=float, default=1500.0)
    p.add_argument("--tint-count", type=int, default=50)
    p.set_defaults(func=_cmd_visibility)

    p = subs.add_parser("certify", help="grid oracle vs closed forms, pass/fail per tolerance")
    p.add_argument("--config", help="config file to certify instead of the three desk sets")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("budget", help="feasibility budget report")
    _add_common(p)
    p.set_defaults(func=_cmd_budget)

    p = subs.add_parser("dicke", help="collective sector table for l spins")
    _add_common(p)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_dicke)

    p = subs.add_parser("dump-snapshots", help="grid |psi|^2 frames at fractions of t3")
    _add_common(p)
    p.add_argument("--times", required=True, help="comma-separated fractions of t3 in [0, 1]")
    p.set_defaults(func=_cmd_dump_snapshots)

    return parser
