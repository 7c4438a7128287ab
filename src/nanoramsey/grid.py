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
#: oracle_phase refuses above this; the caller should desk-scale first.
MAX_ORACLE_PHASE = 1.0e3

PHASE_TOL = 1.0e-3       # rad, grid vs analytic phase
CENTER_TOL = 1.0e-6      # relative, grid <x>,<p> vs classical trajectory
WIDTH_TOL = 1.0e-4       # relative, grid width vs spreading law
OVERLAP_TOL = 1.0e-4     # absolute, |overlap| grid vs analytic


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

    # conversions (natural units carry no suffix, SI carries _si)
    def length_to_si(self, x: float) -> float:
        return x * self.length_unit

    def length_from_si(self, x_si: float) -> float:
        return x_si / self.length_unit

    def time_to_si(self, t: float) -> float:
        return t * self.time_unit

    def time_from_si(self, t_si: float) -> float:
        return t_si / self.time_unit

    def acceleration_from_si(self, a_si: float) -> float:
        return a_si * self.time_unit**2 / self.length_unit

    def acceleration_to_si(self, a: float) -> float:
        return a * self.length_unit / self.time_unit**2

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
    if phase_scale > MAX_SCALED_PHASE:
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
        if self.n_points < 256 or (self.n_points & (self.n_points - 1)) != 0:
            raise ValueError("n_points must be a power of two, at least 256")
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
    """Discretized complex amplitudes over the spatial grid."""

    x: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.amplitudes.shape:
            raise ValueError("grid and amplitude arrays must share a shape")
        n = self.norm()
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"wavefunction must be normalized, got norm {n}")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * (self.x[1] - self.x[0]))

    def moments(self) -> tuple[float, float, float]:
        """(<x>, <p>, width) from the grid state."""
        prob = np.abs(self.amplitudes) ** 2
        dx = self.dx
        xb = float(np.sum(self.x * prob) * dx)
        width = math.sqrt(float(np.sum((self.x - xb) ** 2 * prob) * dx))
        k = 2.0 * np.pi * np.fft.fftfreq(self.x.size, d=dx)
        psi_k = np.fft.fft(self.amplitudes)
        pk = float(np.sum(k * np.abs(psi_k) ** 2) / np.sum(np.abs(psi_k) ** 2))
        return xb, pk, width


def gaussian_packet(spec: GridSpec, center: float = 0.0, momentum: float = 0.0) -> GridWavefunction:
    """Minimum-uncertainty packet with sigma0 = 1 in natural units."""
    x = spec.axis()
    psi = np.exp(-((x - center) ** 2) / 4.0 + 1j * momentum * (x - center))
    psi = psi.astype(complex)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * spec.dx))
    return GridWavefunction(x=x, amplitudes=psi)


def _check_margin(psi: GridWavefunction, spec: GridSpec, sigmas: float = 8.0):
    xb, _, width = psi.moments()
    lo, hi = xb - sigmas * width, xb + sigmas * width
    if lo < spec.x_min or hi > spec.x_max:
        need = max(spec.x_max - lo if lo < spec.x_min else 0.0,
                   hi - spec.x_min if hi > spec.x_max else 0.0)
        raise GridBoundaryError(
            f"packet within {sigmas} sigma of the grid edge "
            f"(support [{lo:.2f}, {hi:.2f}] vs domain [{spec.x_min:.2f}, {spec.x_max:.2f}]); "
            f"enlarge the domain to at least half-width {0.5 * need:.2f} beyond the current edges"
        )


def split_step_evolve(
    psi: GridWavefunction,
    force: float,
    duration: float,
    spec: GridSpec,
) -> GridWavefunction:
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
    x = psi.x
    k = 2.0 * np.pi * np.fft.fftfreq(spec.n_points, d=spec.dx)
    half_kinetic = np.exp(-0.25j * k * k * dt)
    potential = np.exp(1j * force * x * dt)       # V = -force*x
    amps = psi.amplitudes
    for _ in range(steps):
        amps = np.fft.ifft(half_kinetic * np.fft.fft(amps))
        amps = potential * amps
        amps = np.fft.ifft(half_kinetic * np.fft.fft(amps))
    out = GridWavefunction(x=x, amplitudes=amps)
    _check_margin(out, spec)
    return out


def auto_grid(
    scaled: ScaledUnits,
    n_points: int = 2048,
    steps_per_segment: int = 1200,
    width_sigmas: float = 10.0,
    spin_values: tuple[int, ...] = (1, -1),
) -> GridSpec:
    """Size the grid from the classical trajectory.

    The domain spans every branch-centre excursion plus ``width_sigmas``
    times the final packet width on each side (the boundary check enforces
    8 sigma at runtime, so 10 leaves headroom).
    """
    lo, hi = 0.0, 0.0
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
    width_max = math.sqrt(1.0 + (scaled.total_time / 2.0) ** 2)
    margin = width_sigmas * width_max + 2.0
    return GridSpec(
        n_points=n_points,
        x_min=lo - margin,
        x_max=hi + margin,
        steps_per_segment=steps_per_segment,
    )


def evolve_branch_on_grid(
    scaled: ScaledUnits,
    spec: GridSpec,
    spin: int,
    center: float = 0.0,
    momentum: float = 0.0,
    until: float | None = None,
) -> GridWavefunction:
    """Evolve one spin branch through its (possibly truncated) flip sequence."""
    psi = gaussian_packet(spec, center, momentum)
    horizon = scaled.total_time if until is None else until
    elapsed = 0.0
    for tau, a in zip(scaled.seg_times, scaled.branch_accelerations(_spin_history(spin))):
        step = min(tau, horizon - elapsed)
        if step <= 0.0:
            break
        psi = split_step_evolve(psi, a, step, spec)
        elapsed += step
    return psi


def _grid_overlap(psi_plus: GridWavefunction, psi_minus: GridWavefunction) -> complex:
    return complex(np.sum(np.conj(psi_minus.amplitudes) * psi_plus.amplitudes) * psi_plus.dx)


def oracle_phase(
    params: ExperimentParams,
    seq: PulseSequence,
    spec: GridSpec | None = None,
) -> float:
    """Interferometric phase measured on the grid, in the phi_g convention.

    Evolves the two branches as separate scalar wavefunctions, computes
    -arg<psi_minus(t3)|psi_plus(t3)>, and unwraps onto the 2 pi branch of
    the analytic prediction; the sub-2pi residual is untouched, so the
    comparison stays honest. Requires the scaled phase below
    ``MAX_ORACLE_PHASE``.
    """
    scaled = scale_params(params, seq)
    phi_analytic = gravitational_phase(params, seq) if seq.is_balanced() else None
    if phi_analytic is not None and abs(phi_analytic) > MAX_ORACLE_PHASE:
        raise ScaleError(
            f"analytic phase {phi_analytic:.3g} rad exceeds {MAX_ORACLE_PHASE:.0g}; "
            "reduce the parameters to desk scale"
        )
    if spec is None:
        spec = auto_grid(scaled)
    psi_p = evolve_branch_on_grid(scaled, spec, +1)
    psi_m = evolve_branch_on_grid(scaled, spec, -1)
    ov = _grid_overlap(psi_p, psi_m)
    if seq.is_balanced() and abs(ov) < 0.99:
        raise ClosureError(
            f"balanced sequence failed to recombine on the grid (|overlap| = {abs(ov):.4f})"
        )
    phase_raw = -math.atan2(ov.imag, ov.real)
    if phi_analytic is None:
        return phase_raw
    n = round((phi_analytic - phase_raw) / (2.0 * math.pi))
    return phase_raw + 2.0 * math.pi * n


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side grid vs closed-form observables for one run."""

    phase_grid: float          # rad, unwrapped where a balanced prediction exists
    phase_analytic: float      # rad
    phase_error: float         # rad, circular distance grid vs analytic
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
    """Run the grid and the closed forms side by side and report the errors."""
    scaled = scale_params(params, seq)
    if spec is None:
        spec = auto_grid(scaled)
    psi_p = evolve_branch_on_grid(scaled, spec, +1)
    psi_m = evolve_branch_on_grid(scaled, spec, -1)
    ov_grid = _grid_overlap(psi_p, psi_m)
    norm_drift = max(abs(psi_p.norm() - 1.0), abs(psi_m.norm() - 1.0))

    final = evolve_sequence(params, seq, initial_state(params))
    ov_analytic = branch_overlap(params, final)

    # phases compared as a circular residual; unwrapping only picks the branch
    phase_error = abs(_wrap_angle(math.atan2(ov_grid.imag, ov_grid.real)
                                  - math.atan2(ov_analytic.imag, ov_analytic.real)))

    balanced = seq.is_balanced()
    if balanced:
        phase_analytic = gravitational_phase(params, seq)
        phase_grid = oracle_phase(params, seq, spec)
    else:
        phase_analytic = -math.atan2(ov_analytic.imag, ov_analytic.real)
        phase_grid = -math.atan2(ov_grid.imag, ov_grid.real)

    center_error = 0.0
    width_error = 0.0
    for psi, branch in ((psi_p, final.plus_branch), (psi_m, final.minus_branch)):
        xb, pb, width = psi.moments()
        x_cl = scaled.length_from_si(branch.center)
        # natural momentum unit is hbar / sigma0
        p_cl = branch.momentum * scaled.length_unit / params.constants.hbar
        denom = max(1.0, abs(x_cl), abs(p_cl))
        center_error = max(center_error, abs(xb - x_cl) / denom, abs(pb - p_cl) / denom)
        sigma_scaled = wavepacket_width(params, branch.spread_time) / scaled.length_unit
        width_error = max(width_error, abs(width - sigma_scaled) / sigma_scaled)

    return OracleReport(
        phase_grid=phase_grid,
        phase_analytic=phase_analytic,
        phase_error=phase_error,
        center_error=center_error,
        width_error=width_error,
        overlap_grid=abs(ov_grid),
        overlap_analytic=abs(ov_analytic),
        overlap_deficit=abs(abs(ov_grid) - abs(ov_analytic)),
        norm_drift=norm_drift,
        balanced=balanced,
    )


def snapshot_frames(
    params: ExperimentParams,
    seq: PulseSequence,
    fractions,
    spec: GridSpec | None = None,
):
    """Probability-density frames |psi(x)|^2 of both branches in SI units.

    ``fractions`` are times as fractions of t3. Returns a list of
    (time_s, x_m, prob_plus_per_m, prob_minus_per_m) tuples, each probability
    normalized per metre so the frames are plot-ready.
    """
    scaled = scale_params(params, seq)
    if spec is None:
        spec = auto_grid(scaled)
    t3 = seq.effective_times()[2]
    frames = []
    for frac in fractions:
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"snapshot fraction {frac} outside [0, 1]")
        until = scaled.time_from_si(frac * t3)
        psi_p = evolve_branch_on_grid(scaled, spec, +1, until=until)
        psi_m = evolve_branch_on_grid(scaled, spec, -1, until=until)
        x_si = psi_p.x * scaled.length_unit
        prob_p = np.abs(psi_p.amplitudes) ** 2 / scaled.length_unit
        prob_m = np.abs(psi_m.amplitudes) ** 2 / scaled.length_unit
        frames.append((frac * t3, x_si, prob_p, prob_m))
    return frames


def _wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


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
    tilts the axis perpendicular to one unit of gravity (theta = pi/2).
    """
    from .constants import PhysicalConstants

    constants = PhysicalConstants()
    sigma0 = math.sqrt(constants.hbar / (2.0 * mass * omega))
    time_unit = 1.0 / (2.0 * omega)
    accel_unit = sigma0 / time_unit**2
    b_gradient = a_spin * accel_unit * mass / (g_nv * constants.mu_bohr)
    constants = PhysicalConstants(g_earth=(a_gravity or 1.0) * accel_unit)
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
