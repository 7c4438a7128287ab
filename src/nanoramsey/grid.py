"""Split-operator Schrodinger oracle on a 1D grid, in scaled natural units.

This module is the independent referee for every closed form in
:mod:`nanoramsey.dynamics`: it brute-forces the time-dependent Schrodinger
equation with second-order Strang splitting (kinetic step in momentum space
via FFT, linear-potential step in position space) and compares phases,
trajectories, widths and overlaps against the analytic predictions.

Scaling. The oracle works in units where m = hbar = 1 and the initial packet
width sigma0 = 1. With length unit sigma0 and time unit m*sigma0^2/hbar
(= 1/(2*omega) for a trap ground state), the dimensionless problem has the
same interferometric phase as the SI one, because the phase
g*cos(theta)*A*t3^3/(16*hbar) is invariant under this rescaling. Laboratory
parameter sets whose phase is macroscopically large (megaradians) are
certified by running desk-scaled parameters and invoking that invariance;
see docs/physics-notes.md for the argument spelled out.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    PulseSequence,
    _spin_history,
    branch_overlap,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    wavepacket_width,
)
from .params import ExperimentParams

#: Largest dimensionless phase the grid is asked to resolve directly.
MAX_SCALED_PHASE = 1.0e4
#: oracle_compare refuses a balanced phase above this; desk-scale first.
MAX_ORACLE_PHASE = 1.0e3

PHASE_TOL = 1.0e-3       # rad, grid vs analytic phase
CENTER_TOL = 1.0e-6      # relative, grid <x>,<p> vs classical trajectory
WIDTH_TOL = 1.0e-4       # relative, grid width vs spreading law
OVERLAP_TOL = 1.0e-4     # absolute, |overlap| grid vs analytic
CLOSURE_MIN = 0.9999     # |overlap| on the grid a balanced flight must reach

MIN_POINTS = 256         # smallest grid; auto_grid doubles it until momentum fits
MAX_POINTS = 1 << 16     # largest grid auto_grid sizes; past it, desk-scale first
GUARD_SIGMAS = 8.0       # packet widths the runtime guards keep inside the grid
DOMAIN_SIGMAS = 10.0     # final widths auto_grid leaves beyond the excursions


class ScaleError(ValueError):
    """Parameters cannot be represented on the grid without rescaling."""


class GridBoundaryError(RuntimeError):
    """The wavepacket came too close to the grid edge."""


class ClosureError(RuntimeError):
    """A balanced sequence failed to recombine on the grid."""


@dataclass(frozen=True)
class ScaledUnits:
    """Mapping between the SI problem and the natural-unit grid problem."""

    length_unit: float               # m, equals sigma0
    time_unit: float                 # s, equals m sigma0^2 / hbar = 1/(2 omega)
    a_spin: float                    # dimensionless acceleration from A
    a_gravity: float                 # dimensionless acceleration from m g cos(theta)
    seg_times: tuple[float, float, float]   # dimensionless segment durations

    @property
    def total_time(self) -> float:
        return sum(self.seg_times)

    def branch_accelerations(self, spin_pattern) -> tuple[float, ...]:
        """Dimensionless acceleration per segment for a spin-sign history."""
        return tuple(s * self.a_spin - self.a_gravity for s in spin_pattern)


def scale_params(params: ExperimentParams, seq: PulseSequence) -> ScaledUnits:
    """Build the natural-unit problem for one parameter set and sequence.

    Raises :class:`ScaleError` when the dimensionless phase exceeds
    ``MAX_SCALED_PHASE``: the grid cannot resolve megaradian phases, and by
    scale invariance nothing is lost by certifying a reduced t3 or gradient
    instead.
    """
    sigma0 = params.sigma0()
    time_unit = params.mass * sigma0**2 / params.constants.hbar
    a_spin = (params.spin_coupling() / params.mass) * time_unit**2 / sigma0
    a_grav = (params.constants.g_earth * math.cos(params.theta)) * time_unit**2 / sigma0
    seg = tuple(tau / time_unit for tau in seq.segment_durations())
    phase_scale = abs(a_spin * a_grav) * sum(seg) ** 3 / 16.0
    # written as "unless within bounds", so a NaN phase scale (0 * inf) is refused too
    if not phase_scale <= MAX_SCALED_PHASE:
        raise ScaleError(
            f"dimensionless phase ~{phase_scale:.3g} exceeds {MAX_SCALED_PHASE:.0g}; "
            "reduce t3 or the gradient to desk scale for the oracle run "
            "(the phase is invariant under the rescaling, see docs/physics-notes.md)"
        )
    return ScaledUnits(
        length_unit=sigma0,
        time_unit=time_unit,
        a_spin=a_spin,
        a_gravity=a_grav,
        seg_times=seg,
    )


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the natural-unit problem.

    n_points primarily sets momentum resolution (FFT), the domain
    [x_min, x_max] must contain every excursion plus an 8-sigma margin,
    and each segment of duration tau is split into steps_per_segment
    Strang steps of tau / steps_per_segment.
    """

    n_points: int
    x_min: float
    x_max: float
    steps_per_segment: int

    def __post_init__(self):
        if self.n_points < MIN_POINTS or (self.n_points & (self.n_points - 1)) != 0:
            raise ValueError(f"n_points must be a power of two, at least {MIN_POINTS}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.steps_per_segment < 1:
            raise ValueError("steps_per_segment must be >= 1")

    def axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points, endpoint=False)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points


@dataclass(frozen=True)
class GridWavefunction:
    """Complex amplitudes over the spatial grid: one branch, shape (N,), or
    one branch per row, shape (B, N). Norms and moments are per row."""

    x: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.amplitudes.shape[-1:]:
            raise ValueError("grid and amplitude arrays must share the last axis")
        n = self.norm()
        if np.any(np.abs(n - 1.0) > 1e-9):
            raise ValueError(f"wavefunction must be normalized, got norm {n}")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def norm(self):
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1) * self.dx

    def moments(self):
        """(<x>, <p>, width, momentum width) from the grid state, per row."""
        prob = np.abs(self.amplitudes) ** 2
        dx = self.dx
        xb = np.sum(self.x * prob, axis=-1) * dx
        width = np.sqrt(np.sum((self.x - np.expand_dims(xb, -1)) ** 2 * prob, axis=-1) * dx)
        k = 2.0 * np.pi * np.fft.fftfreq(self.x.size, d=dx)
        prob_k = np.abs(np.fft.fft(self.amplitudes)) ** 2
        total = np.sum(prob_k, axis=-1)
        pk = np.sum(k * prob_k, axis=-1) / total
        pwidth = np.sqrt(np.maximum(np.sum(k * k * prob_k, axis=-1) / total - pk * pk, 0.0))
        return xb, pk, width, pwidth


def gaussian_packet(spec: GridSpec, center: float = 0.0, momentum: float = 0.0) -> GridWavefunction:
    """Minimum-uncertainty packet with sigma0 = 1 in natural units."""
    x = spec.axis()
    psi = np.exp(-((x - center) ** 2) / 4.0 + 1j * momentum * (x - center))
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * spec.dx))
    return GridWavefunction(x=x, amplitudes=psi)


def _check_momentum(p_lo: float, p_hi: float, spec: GridSpec):
    """Refuse momentum support [p_lo, p_hi] that reaches the FFT edge +-pi/dx, naming
    the smallest power-of-two ``n_points`` whose edge clears it."""
    k_edge = math.pi / spec.dx
    if p_lo < -k_edge or p_hi > k_edge:
        need = 1 << math.ceil(math.log2(max(-p_lo, p_hi) * (spec.x_max - spec.x_min) / math.pi))
        raise GridBoundaryError(
            f"momentum support [{p_lo:.2f}, {p_hi:.2f}] reaches the FFT edge +-{k_edge:.2f}; "
            f"raise n_points to at least {need}"
        )


def _check_margin(psi: GridWavefunction, spec: GridSpec, kick=0.0, sigmas: float = GUARD_SIGMAS):
    """Keep every row ``sigmas`` widths inside +-pi/dx in p, at <p> and <p> + ``kick``,
    then inside the domain in x (aliased momentum would garble the x moments)."""
    xb, pb, width, pwidth = psi.moments()
    _check_momentum(float(np.min(np.minimum(pb, pb + kick) - sigmas * pwidth)),
                    float(np.max(np.maximum(pb, pb + kick) + sigmas * pwidth)), spec)
    lo, hi = float(np.min(xb - sigmas * width)), float(np.max(xb + sigmas * width))
    if lo < spec.x_min or hi > spec.x_max:
        need = max(spec.x_max - lo if lo < spec.x_min else 0.0,
                   hi - spec.x_min if hi > spec.x_max else 0.0)
        raise GridBoundaryError(
            f"packet within {sigmas} sigma of the grid edge "
            f"(support [{lo:.2f}, {hi:.2f}] vs domain [{spec.x_min:.2f}, {spec.x_max:.2f}]); "
            f"enlarge the domain to at least half-width {0.5 * need:.2f} beyond the current edges"
        )


def _strang_rows(amps, kinetic, half_kinetic, potential, steps: int) -> np.ndarray:
    """``steps`` Strang steps of the position-space rows ``amps`` under per-row factors.

    Adjacent half-kinetic steps are fused: one fft/ifft pair per step over all rows, into
    two preallocated buffers. numpy's SIMD complex multiply is not commutative in the last
    bit, so the operand order potential * psi, psi_k * kinetic is part of the result.
    """
    amps = np.fft.fft(amps)
    buf = np.empty_like(amps)
    np.multiply(amps, half_kinetic, out=amps)
    for i in range(steps):
        np.fft.ifft(amps, out=buf)
        np.multiply(potential, buf, out=buf)
        np.fft.fft(buf, out=amps)
        np.multiply(amps, kinetic if i < steps - 1 else half_kinetic, out=amps)
    return np.fft.ifft(amps, out=buf)


def _evolve_segment(runs) -> list[GridWavefunction]:
    """One segment of every (psi, force, duration, spec) in ``runs`` through one kernel call,
    each state on its own grid, with its margin checked before and after. The specs
    must share ``n_points`` and ``steps_per_segment``, else ValueError."""
    steps = runs[0][3].steps_per_segment
    if len({(spec.n_points, spec.steps_per_segment) for *_, spec in runs}) != 1:
        raise ValueError("lockstep runs must share one n_points and one steps_per_segment")
    factors = []
    for psi, force, duration, spec in runs:
        force = np.asarray(force, dtype=float)[..., None]     # one row each, broadcast over x
        _check_margin(psi, spec, kick=force[..., 0] * duration)
        k, dt = 2.0 * np.pi * np.fft.fftfreq(spec.n_points, d=spec.dx), duration / steps
        factors.append((np.exp(-0.5j * k * k * dt), np.exp(-0.25j * k * k * dt),
                        np.exp(1j * force * psi.x * dt)))     # V = -force*x
    amps = np.array([psi.amplitudes for psi, *_ in runs])
    shape = (len(runs),) + (1,) * (amps.ndim - 2) + (-1,)    # one kinetic row per state
    kinetic, half_kinetic, potential = (np.array(f) for f in zip(*factors))
    rows = _strang_rows(amps, kinetic.reshape(shape), half_kinetic.reshape(shape), potential, steps)
    out = [GridWavefunction(x=psi.x, amplitudes=row) for (psi, *_), row in zip(runs, rows)]
    for psi, (*_, spec) in zip(out, runs):
        _check_margin(psi, spec)
    return out


def split_step_evolve(
    psi: GridWavefunction,
    force,
    duration: float,
    spec: GridSpec,
) -> GridWavefunction:
    """Strang-split evolution under H = p^2/2 - force*x (natural units).

    ``force`` is a number or one per row of ``psi``. Adjacent half-kinetic steps are fused:
    one fft/ifft pair per step over all rows. Second order in the step size; for a linear
    potential the splitting error is a c-number phase, so |psi|^2 is exact up to discretization.
    """
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    if duration == 0.0:
        return psi
    return _evolve_segment([(psi, force, duration, spec)])[0]


def _final_width(scaled: ScaledUnits) -> float:
    """Packet width at t3, the widest it gets (sigma0 = 1, free spreading)."""
    return math.sqrt(1.0 + (scaled.total_time / 2.0) ** 2)


def auto_grid(
    scaled: ScaledUnits,
    n_points: int = MIN_POINTS,
    steps_per_segment: int = 1200,
    spin_values: tuple[int, ...] = (1, -1),
) -> GridSpec:
    """Size the grid from the classical trajectory.

    The domain spans every branch-centre excursion plus ``DOMAIN_SIGMAS`` final
    packet widths and 2 on each side (the guards enforce ``GUARD_SIGMAS`` at run
    time). ``n_points`` is a floor, doubled until pi/dx clears the peak branch |p|
    plus ``DOMAIN_SIGMAS`` momentum widths (1/2 each); a flight that needs more
    than ``MAX_POINTS`` raises :class:`ScaleError` before any array exists.
    """
    lo, hi, p_peak = 0.0, 0.0, 0.0
    for spin in spin_values:
        x, v = 0.0, 0.0
        for tau, a in zip(scaled.seg_times, scaled.branch_accelerations(_spin_history(spin))):
            candidates = [tau]
            if a != 0.0:
                tv = -v / a
                if 0.0 < tv < tau:
                    candidates.append(tv)
            for tc in candidates:
                xc = x + v * tc + 0.5 * a * tc * tc
                lo, hi = min(lo, xc), max(hi, xc)
            x += v * tau + 0.5 * a * tau * tau
            v += a * tau
            p_peak = max(p_peak, abs(v))
    margin = DOMAIN_SIGMAS * _final_width(scaled) + 2.0
    while math.pi * n_points / (hi - lo + 2.0 * margin) < p_peak + 0.5 * DOMAIN_SIGMAS:
        n_points *= 2
        if n_points > MAX_POINTS:
            need = (p_peak + 0.5 * DOMAIN_SIGMAS) * (hi - lo + 2.0 * margin) / math.pi
            raise ScaleError(f"peak momentum {p_peak:.3g} needs about {need:.3g} grid points, more than "
                             f"{MAX_POINTS}; reduce the parameters to desk scale (see docs/physics-notes.md)")
    return GridSpec(
        n_points=n_points,
        x_min=lo - margin,
        x_max=hi + margin,
        steps_per_segment=steps_per_segment,
    )


def _drift_steps(scaled: ScaledUnits) -> int:
    """Fewest Strang steps per segment that keep both branches inside an ``auto_grid`` domain.

    Between kicks a row sits where a half-drift put it, |F| dt^2 / 8 off its classical
    centre; the domain leaves (DOMAIN_SIGMAS - GUARD_SIGMAS) final widths + 2 beyond
    the guard's reach, so dt may grow until the drift fills that slack.
    """
    force = max(abs(a) for s in (+1, -1) for a in scaled.branch_accelerations(_spin_history(s)))
    slack = (DOMAIN_SIGMAS - GUARD_SIGMAS) * _final_width(scaled) + 2.0
    return max(1, math.ceil(max(scaled.seg_times) * math.sqrt(force / (8.0 * slack))))


def _flight(scaled: ScaledUnits, spec: GridSpec, spins, center, momentum, horizons):
    """The rows' initial state, and per horizon the (duration, row accelerations) of each
    segment from the last horizon up to it, after one momentum check of the whole flight."""
    accelerations = np.array([scaled.branch_accelerations(_spin_history(s)) for s in spins]).T
    # The whole flight's classical <p> is extreme at segment ends, and the packet's
    # momentum width stays 1/2; check it once, so the advice covers every segment.
    p_ends = [np.full(accelerations.shape[1], float(momentum))]
    start = 0.0
    for tau, a in zip(scaled.seg_times, accelerations):
        p_ends.append(p_ends[-1] + a * min(tau, max(horizons[-1] - start, 0.0)))
        start += tau
    _check_momentum(float(np.min(p_ends)) - GUARD_SIGMAS * 0.5,
                    float(np.max(p_ends)) + GUARD_SIGMAS * 0.5, spec)
    packet = gaussian_packet(spec, center, momentum)
    psi = GridWavefunction(packet.x, np.tile(packet.amplitudes, (accelerations.shape[1], 1)))
    plan, t = [], 0.0
    for horizon in horizons:
        start, pieces = 0.0, []
        for tau, a in zip(scaled.seg_times, accelerations):
            pieces.append((min(start + tau, horizon) - max(start, t), a))
            start += tau
        plan.append(pieces)
        t = horizon
    return psi, plan


def _evolve_flights(flights) -> list[list[GridWavefunction]]:
    """Every flight ``(scaled, spec, spins, center, momentum, horizons)``, planned by
    :func:`_flight`, with all rows in lockstep: per piece, one :func:`_evolve_segment` call
    over the flights whose piece is not empty. The flights share their number of
    horizons; each flight's states at its horizons are returned, one list per flight.
    """
    planned = [_flight(*flight) for flight in flights]
    states = [psi for psi, _ in planned]
    out = [[] for _ in flights]
    for pieces in zip(*(plan for _, plan in planned), strict=True):   # one horizon each
        for segment in zip(*pieces):
            live = [(i, step, a) for i, (step, a) in enumerate(segment) if step > 0.0]
            if live:
                moved = _evolve_segment([(states[i], a, step, flights[i][1]) for i, step, a in live])
                for (i, _, _), psi in zip(live, moved):
                    states[i] = psi
        for frames, psi in zip(out, states):
            frames.append(psi)
    return out


def evolve_branch_on_grid(
    scaled: ScaledUnits,
    spec: GridSpec,
    spin,
    center: float = 0.0,
    momentum: float = 0.0,
    until=None,
):
    """Evolve spin branches through their (possibly truncated) flip sequences.

    ``spin`` is one spin (a one-branch state) or a tuple of spins, the rows
    of one state. ``until`` is one horizon (default t3) or an ascending
    sequence, for which the rows go forward once, each horizon resuming from
    the state and time of the last, and the list of states is returned.
    """
    horizons = np.atleast_1d(scaled.total_time if until is None else until)
    if np.any(np.diff(horizons) < 0.0):
        raise ValueError("horizons must ascend")
    [states] = _evolve_flights([(scaled, spec, np.atleast_1d(spin), center, momentum, horizons)])
    if not np.ndim(spin):
        states = [GridWavefunction(psi.x, psi.amplitudes[0]) for psi in states]
    return states if np.ndim(until) else states[0]


def splitting_phase(seg_times, plus, minus, steps: int) -> float:
    """What Strang splitting adds to a pair's -arg<psi_minus|psi_plus>.

    For a linear potential a step of dt differs from the exact propagator by the
    c-number phase F^2 dt^3 / 12 (docs/physics-notes.md), so ``steps`` steps per
    segment of the (plus, minus) branch accelerations give
    sum_k (tau_k / n)^2 (F+_k^2 - F-_k^2) tau_k / 12.
    """
    return sum((tau / steps) ** 2 * (fp * fp - fm * fm) * tau / 12.0
               for tau, fp, fm in zip(seg_times, plus, minus))


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side grid vs closed-form observables for one run."""

    phase_grid: float          # rad, unwrapped where a balanced prediction exists
    phase_analytic: float      # rad
    phase_error: float         # rad, circular distance grid vs analytic
    phase_residual: float      # rad, grid - analytic - splitting_phase, circular
    center_error: float        # relative, worst branch at t3
    width_error: float         # relative
    overlap_grid: float        # |<psi_minus|psi_plus>| on the grid
    overlap_analytic: float
    overlap_deficit: float     # absolute difference of the two moduli
    norm_drift: float          # worst |norm - 1| over both branches
    balanced: bool

    @property
    def passed(self) -> bool:
        return (
            self.phase_error <= PHASE_TOL
            and self.center_error <= CENTER_TOL
            and self.width_error <= WIDTH_TOL
            and self.overlap_deficit <= OVERLAP_TOL
        )

    @property
    def closure_ok(self) -> bool:
        """Whether the grid closed: only a balanced flight recombines, an open one passes."""
        return self.overlap_grid >= CLOSURE_MIN or not self.balanced

    def lines(self) -> list[str]:
        def mark(ok):
            return "pass" if ok else "FAIL"

        return [
            f"phase    grid {self.phase_grid:+.9f} rad  vs  analytic {self.phase_analytic:+.9f} rad"
            f"  error {self.phase_error:.3e} (tol {PHASE_TOL:.0e})  [{mark(self.phase_error <= PHASE_TOL)}]",
            f"centers  relative error {self.center_error:.3e} (tol {CENTER_TOL:.0e})"
            f"  [{mark(self.center_error <= CENTER_TOL)}]",
            f"width    relative error {self.width_error:.3e} (tol {WIDTH_TOL:.0e})"
            f"  [{mark(self.width_error <= WIDTH_TOL)}]",
            f"overlap  grid {self.overlap_grid:.6f}  vs  analytic {self.overlap_analytic:.6f}"
            f"  deficit {self.overlap_deficit:.3e} (tol {OVERLAP_TOL:.0e})"
            f"  [{mark(self.overlap_deficit <= OVERLAP_TOL)}]",
            f"norm     drift {self.norm_drift:.3e}",
        ]


def oracle_compare(
    params: ExperimentParams,
    seq: PulseSequence,
    spec: GridSpec | None = None,
) -> OracleReport:
    """Run the grid and the closed forms side by side and report the errors: the
    one-set case of :func:`oracle_compare_sets`."""
    return oracle_compare_sets([(params, seq, spec)])[0]


def oracle_compare_sets(sets) -> list[OracleReport]:
    """One :class:`OracleReport` per (params, seq, spec) in ``sets``, their grids run in lockstep.

    ``spec`` is the set's grid, None for ``auto_grid``. Each branch pair is evolved
    once, as two rows of one flight of :func:`_evolve_flights`, and ``phase_grid`` is
    -arg<psi_minus(t3)|psi_plus(t3)>. A balanced set is refused above
    ``MAX_ORACLE_PHASE`` before any grid work, must recombine (else
    :class:`ClosureError`), and has ``phase_grid`` unwrapped onto the 2 pi branch of
    phi_g; the sub-2pi residual is untouched.
    """
    checked = []
    for params, seq, spec in sets:
        scaled = scale_params(params, seq)
        balanced = bool(seq.is_balanced())
        phase_analytic = gravitational_phase(params, seq) if balanced else None
        if balanced and abs(phase_analytic) > MAX_ORACLE_PHASE:
            raise ScaleError(
                f"analytic phase {phase_analytic:.3g} rad exceeds {MAX_ORACLE_PHASE:.0g}; "
                "reduce the parameters to desk scale"
            )
        checked.append((params, seq, scaled, spec or auto_grid(scaled), balanced, phase_analytic))
    flights = _evolve_flights([(scaled, spec, (+1, -1), 0.0, 0.0, [scaled.total_time])
                               for _, _, scaled, spec, _, _ in checked])
    reports = []
    for [pair], (params, seq, scaled, spec, balanced, phase_analytic) in zip(flights, checked):
        ov_grid = complex(np.sum(np.conj(pair.amplitudes[1]) * pair.amplitudes[0]) * pair.dx)
        if balanced and abs(ov_grid) < 0.99:
            raise ClosureError(
                f"balanced sequence failed to recombine on the grid (|overlap| = {abs(ov_grid):.4f})"
            )
        norm_drift = float(np.max(np.abs(pair.norm() - 1.0)))

        final = evolve_sequence(params, seq, initial_state(params))
        ov_analytic = branch_overlap(params, final)

        # phases compared as a circular residual; unwrapping only picks the branch
        phase_error = abs(math.remainder(math.atan2(ov_grid.imag, ov_grid.real)
                                         - math.atan2(ov_analytic.imag, ov_analytic.real), 2.0 * math.pi))

        phase_grid = -math.atan2(ov_grid.imag, ov_grid.real)
        if balanced:
            phase_grid += 2.0 * math.pi * round((phase_analytic - phase_grid) / (2.0 * math.pi))
        else:
            phase_analytic = -math.atan2(ov_analytic.imag, ov_analytic.real)
        splitting = splitting_phase(scaled.seg_times, scaled.branch_accelerations(_spin_history(+1)),
                                    scaled.branch_accelerations(_spin_history(-1)), spec.steps_per_segment)

        center_error = 0.0
        width_error = 0.0
        for xb, pb, width, _, branch in zip(*pair.moments(), (final.plus_branch, final.minus_branch)):
            x_cl = branch.center / scaled.length_unit
            # natural momentum unit is hbar / sigma0
            p_cl = branch.momentum * scaled.length_unit / params.constants.hbar
            denom = max(1.0, abs(x_cl), abs(p_cl))
            center_error = max(center_error, abs(xb - x_cl) / denom, abs(pb - p_cl) / denom)
            sigma_scaled = wavepacket_width(params, branch.spread_time) / scaled.length_unit
            width_error = max(width_error, abs(width - sigma_scaled) / sigma_scaled)

        reports.append(OracleReport(
            phase_grid=phase_grid,
            phase_analytic=phase_analytic,
            phase_error=phase_error,
            phase_residual=math.remainder(phase_grid - phase_analytic - splitting, 2.0 * math.pi),
            center_error=center_error,
            width_error=width_error,
            overlap_grid=abs(ov_grid),
            overlap_analytic=abs(ov_analytic),
            overlap_deficit=abs(abs(ov_grid) - abs(ov_analytic)),
            norm_drift=norm_drift,
            balanced=balanced,
        ))
    return reports


def oracle_phase(
    params: ExperimentParams,
    seq: PulseSequence,
    spec: GridSpec | None = None,
) -> float:
    """Interferometric phase measured on the grid, in the phi_g convention:
    the ``phase_grid`` of :func:`oracle_compare`."""
    return oracle_compare(params, seq, spec).phase_grid


def snapshot_frames(
    params: ExperimentParams,
    seq: PulseSequence,
    fractions,
    spec: GridSpec | None = None,
):
    """Probability-density frames |psi(x)|^2 of both branches in SI units.

    ``fractions`` are times as fractions of t3. Returns a list of
    (time_s, x_m, prob_plus_per_m, prob_minus_per_m) tuples, each probability
    normalized per metre so the frames are plot-ready, in the order given;
    both branches go forward once through the sorted times. The default grid
    has 2048 points (more if momentum needs them) and the fewest steps the
    drift criterion allows: the step size moves only a c-number phase, never
    |psi|^2.
    """
    scaled = scale_params(params, seq)
    fractions = list(fractions)
    for frac in fractions:
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"snapshot fraction {frac} outside [0, 1]")
    if spec is None:
        # frames are an output, so their resolution is fixed, not sized for the physics
        spec = auto_grid(scaled, 2048, _drift_steps(scaled))
    t3 = seq.effective_times()[2]
    order = sorted(range(len(fractions)), key=fractions.__getitem__)
    states = evolve_branch_on_grid(scaled, spec, (+1, -1),
                                   until=[fractions[i] * t3 / scaled.time_unit for i in order])
    frames = [None] * len(fractions)
    for i, pair in zip(order, states):
        prob = np.abs(pair.amplitudes) ** 2 / scaled.length_unit
        frames[i] = (fractions[i] * t3, pair.x * scaled.length_unit, prob[0], prob[1])
    return frames


#: (a_spin, a_gravity, tau_scaled) of the desk sets ``certify`` runs, by label
CERTIFY_DESK = {
    "desk-a": (0.6, 0.15, 6.0),
    "desk-b": (0.4, 0.30, 6.0),
    "desk-c": (0.75, 0.10, 7.0),
}


def desk_scale_params(
    a_spin: float = 0.6,
    a_gravity: float = 0.15,
    tau_scaled: float = 6.0,
    omega: float = 1.0,
    mass: float = 1.0e-24,
    g_nv: float = 2.0028,
) -> tuple[ExperimentParams, PulseSequence]:
    """SI parameter set engineered to land on given natural-unit targets.

    ``a_spin`` and ``a_gravity`` are the dimensionless spin and gravity
    accelerations, ``tau_scaled`` the dimensionless flight time; the
    analytic phase is a_spin * a_gravity * tau_scaled^3 / 16. The effective
    gravity is dialed through the constants bundle, which is exactly what
    that knob exists for; constants stay positive, so ``a_gravity = 0``
    tilts the axis perpendicular to one unit of gravity (theta = pi/2); an
    ``a_gravity`` whose g_earth or m g_earth is no normal float raises ValueError.
    """
    from .constants import PhysicalConstants

    constants = PhysicalConstants()
    sigma0 = math.sqrt(constants.hbar / (2.0 * mass * omega))
    time_unit = 1.0 / (2.0 * omega)
    accel_unit = sigma0 / time_unit**2
    b_gradient = a_spin * accel_unit * mass / (g_nv * constants.mu_bohr)
    g_earth = (a_gravity or 1.0) * accel_unit
    if not all(math.isfinite(v) and abs(v) >= sys.float_info.min for v in (g_earth, mass * g_earth)):
        raise ValueError(f"a_gravity = {a_gravity!r} takes g_earth or m g_earth out of the normal floats")
    constants = PhysicalConstants(g_earth=g_earth)
    params = ExperimentParams(
        mass=mass,
        b_gradient=b_gradient,
        theta=math.pi / 2.0 if a_gravity == 0.0 else 0.0,
        t3=tau_scaled * time_unit,
        trap_omega=omega,
        mw_frequency=2.87e9,
        pulse_duration=1.0e-8,
        t_internal=300.0,
        t_environment=300.0,
        t_cm=1.0e-3,
        g_nv=g_nv,
        radius=1.0e-7,
        constants=constants,
    )
    return params, PulseSequence.balanced(params.t3)
