"""Split-operator Schrodinger oracle on a 1D grid, in scaled natural units.

This module is the independent referee for every closed form in
:mod:`nanoramsey.dynamics`: it solves the time-dependent Schrodinger equation
on a grid, as a product of second-order Strang steps (kinetic step in momentum
space via FFT, linear-potential step in position space), composed per segment
in closed form, and compares phases, trajectories, widths and overlaps against
the analytic predictions. A grid state is its complex amplitude array, read
through the :class:`GridSpec` it lives on: that spec alone holds the axis, the
spacing and the wavenumbers.

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
from itertools import accumulate

import numpy as np

from .constants import DEFAULT_G_NV, HBAR, MU_BOHR
from .dynamics import (
    PulseSequence,
    _reach,
    _spin_history,
    _walk,
    branch_overlap,
    evolve_sequence,
    fringe,
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
SNAPSHOT_POINTS = 2048   # fewest points of a snapshot frame
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
    instead. It also refuses a time unit that is no normal float or whose
    square overflows.
    """
    sigma0 = params.sigma0()
    time_unit = params.mass * sigma0**2 / HBAR
    if not sys.float_info.min <= time_unit <= math.sqrt(sys.float_info.max):
        raise ScaleError(
            f"mass and trap_omega give a time unit m sigma0^2 / hbar = {time_unit!r} s that the "
            f"grid cannot scale by, got mass={params.mass!r}, trap_omega={params.trap_omega!r}"
        )
    a_spin = (params.spin_coupling() / params.mass) * time_unit**2 / sigma0
    a_grav = (params.g_earth * math.cos(params.theta)) * time_unit**2 / sigma0
    seg = tuple(tau / time_unit for tau in seq.segment_durations())
    try:
        phase_scale = abs(a_spin * a_grav) * sum(seg) ** 3 / 16.0
    except OverflowError:       # float ** raises where float * gives inf
        phase_scale = math.inf
    # written as "unless within bounds", so a NaN phase scale (0 * inf) is refused too
    if not phase_scale <= MAX_SCALED_PHASE:
        raise ScaleError(
            f"dimensionless phase ~{phase_scale:.3g} exceeds {MAX_SCALED_PHASE:.0g}; "
            "reduce t3 or the gradient to desk scale for the oracle run "
            "(the phase is invariant under the rescaling, see docs/physics-notes.md), "
            f"got g_nv={params.g_nv!r}, b_gradient={params.b_gradient!r}, g_earth={params.g_earth!r}, "
            f"theta={params.theta!r}, t3={seq.t3!r}"
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
    """Discretization of the natural-unit problem, and the one home of its grid quantities.

    n_points primarily sets momentum resolution (FFT), the domain
    [x_min, x_max] must contain every excursion plus an 8-sigma margin,
    and each segment of duration tau evolves as the product of
    steps_per_segment Strang steps of tau / steps_per_segment. A state on
    the grid is its complex amplitude array, one branch of shape (N,) or one
    branch per row, shape (B, N); ``x``, ``dx`` and :meth:`wavenumbers` are
    the axis, spacing and FFT wavenumbers every reader of a state uses.
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
        # built once per spec, not per read; it is no field, so equality and replace()
        # see only the four above
        object.__setattr__(self, "x", np.linspace(self.x_min, self.x_max, self.n_points, endpoint=False))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    def wavenumbers(self) -> np.ndarray:
        """The FFT's angular wavenumbers, in the order ``np.fft.fft`` returns them."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def norm(self, psi):
        """Norm of the state ``psi``, per row."""
        return np.sum(np.abs(psi) ** 2, axis=-1) * self.dx

    def moments(self, psi):
        """(<x>, <p>, width, momentum width) of the state ``psi``, per row. Refuses a row
        whose norm is more than 1e-9 off 1, from the same |psi|^2, before any FFT."""
        prob = np.abs(psi) ** 2
        dx = self.dx
        n = np.sum(prob, axis=-1) * dx
        if np.any(np.abs(n - 1.0) > 1e-9):
            raise ValueError(f"wavefunction must be normalized, got norm {n}")
        xb = np.sum(self.x * prob, axis=-1) * dx
        width = np.sqrt(np.sum((self.x - np.expand_dims(xb, -1)) ** 2 * prob, axis=-1) * dx)
        k = self.wavenumbers()
        prob_k = np.abs(np.fft.fft(psi)) ** 2
        total = np.sum(prob_k, axis=-1)
        pk = np.sum(k * prob_k, axis=-1) / total
        pwidth = np.sqrt(np.maximum(np.sum(k * k * prob_k, axis=-1) / total - pk * pk, 0.0))
        return xb, pk, width, pwidth


def gaussian_packet(spec: GridSpec, center: float = 0.0, momentum: float = 0.0) -> np.ndarray:
    """Minimum-uncertainty packet with sigma0 = 1 in natural units, normalized on ``spec``."""
    psi = np.exp(-((spec.x - center) ** 2) / 4.0 + 1j * momentum * (spec.x - center))
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * spec.dx))
    return psi


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


def _check_margin(psi: np.ndarray, spec: GridSpec, kick=0.0):
    """Keep every row of ``psi`` normalized (:meth:`GridSpec.moments`), ``GUARD_SIGMAS``
    widths inside +-pi/dx in p, at <p> and <p> + ``kick``, then inside the domain in x
    (aliased momentum would garble the x moments)."""
    xb, pb, width, pwidth = spec.moments(psi)
    _check_momentum(float(np.min(np.minimum(pb, pb + kick) - GUARD_SIGMAS * pwidth)),
                    float(np.max(np.maximum(pb, pb + kick) + GUARD_SIGMAS * pwidth)), spec)
    lo, hi = float(np.min(xb - GUARD_SIGMAS * width)), float(np.max(xb + GUARD_SIGMAS * width))
    if lo < spec.x_min or hi > spec.x_max:
        need = max(spec.x_max - lo if lo < spec.x_min else 0.0,
                   hi - spec.x_min if hi > spec.x_max else 0.0)
        raise GridBoundaryError(
            f"packet within {GUARD_SIGMAS} sigma of the grid edge "
            f"(support [{lo:.2f}, {hi:.2f}] vs domain [{spec.x_min:.2f}, {spec.x_max:.2f}]); "
            f"enlarge the domain to at least half-width {0.5 * need:.2f} beyond the current edges"
        )


def split_step_evolve(psi: np.ndarray, force, duration: float, spec: GridSpec) -> np.ndarray:
    """Strang-split evolution of the rows of ``psi`` under H = p^2/2 - force*x (natural
    units) for a ``duration`` > 0, ``force`` a number or one per row, with the norm and
    margin of ``psi`` checked first, with the segment's kick. The state it returns is
    unchecked: in a flight it is the next segment's input, and
    :func:`evolve_branch_on_grid` checks the last.

    The n = ``spec.steps_per_segment`` Strang steps of dt = tau/n are composed in closed
    form: the exact propagator, psi(k, tau) = exp(-i (k^2 tau/2 - k F tau^2/2 + F^2 tau^3/6))
    FFT[exp(i F tau x) psi](k), times the c-number exp(-i n F^2 dt^3 / 12) by which their
    product differs from it (docs/physics-notes.md). One fft/ifft pair per segment.
    """
    if not duration > 0.0:      # written so, NaN is refused too
        raise ValueError(f"duration must be > 0, got {duration!r}")
    force = np.asarray(force, dtype=float)[..., None]     # one row each, broadcast over x
    _check_margin(psi, spec, kick=force[..., 0] * duration)
    k = spec.wavenumbers()
    dt = duration / spec.steps_per_segment
    c_number = force * force * duration * (duration * duration / 6.0 + dt * dt / 12.0)
    kicked = np.exp(1j * force * duration * spec.x) * psi      # V = -force*x
    drift = np.exp(-1j * (0.5 * k * k * duration - 0.5 * force * duration * duration * k + c_number))
    return np.fft.ifft(drift * np.fft.fft(kicked))


def auto_grid(
    scaled: ScaledUnits,
    n_points: int = MIN_POINTS,
    steps_per_segment: int = 1200,
    spin_values: tuple[int, ...] = (1, -1),
    center: float = 0.0,
    momentum: float = 0.0,
) -> GridSpec:
    """Size the grid from the classical trajectory of a packet that starts at
    ``center`` with ``momentum``, as :func:`evolve_branch_on_grid` starts it.

    The domain spans every branch-centre excursion plus ``DOMAIN_SIGMAS`` final
    packet widths and 2 on each side (the guards enforce ``GUARD_SIGMAS`` at run
    time). ``n_points`` is a floor, doubled until pi/dx clears the peak branch |p|
    plus ``DOMAIN_SIGMAS`` momentum widths (1/2 each); a flight that needs more
    than ``MAX_POINTS`` raises :class:`ScaleError` before any array exists.
    """
    lo, hi, p_peak = center, center, abs(momentum)
    for spin in spin_values:
        segments, (_, p) = _walk(scaled.seg_times, scaled.branch_accelerations(_spin_history(spin)),
                                 1.0, center, momentum)
        for tau, (x, v, a) in zip(scaled.seg_times, segments):
            seg_lo, seg_hi = _reach(x, v, a, tau)
            lo, hi, p_peak = min(lo, seg_lo), max(hi, seg_hi), max(p_peak, abs(v))
        p_peak = max(p_peak, abs(p))
    # the packet is widest at t3: sigma0 = 1 spreads freely to sqrt(1 + (t3 / 2)^2)
    margin = DOMAIN_SIGMAS * math.sqrt(1.0 + (scaled.total_time / 2.0) ** 2) + 2.0
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
    of one state, from a packet at ``center`` with ``momentum``. ``until`` is
    one horizon in [0, t3] (default t3) or an ascending sequence, for which
    the rows go forward once, each horizon resuming from the state and time
    of the last, and the list of states is returned; each segment piece is
    one :func:`split_step_evolve` call. Every state returned passes the margin
    guard: each piece checks its input, and the last state is checked once at
    the end; an earlier horizon's state is a later piece's input or the last
    state itself.
    """
    horizons = np.atleast_1d(scaled.total_time if until is None else until)
    if horizons.size == 0:
        raise ValueError(f"until must name at least one horizon, got {until!r}")
    for horizon in horizons:
        if not 0.0 <= horizon <= scaled.total_time:     # written so, NaN is refused too
            raise ValueError(f"horizon {float(horizon)!r} outside the flight [0, {scaled.total_time!r}]")
    if np.any(np.diff(horizons) < 0.0):
        raise ValueError("horizons must ascend")
    accelerations = np.array([scaled.branch_accelerations(_spin_history(s))
                              for s in np.atleast_1d(spin)]).T
    # The whole flight's classical <p> is extreme at segment ends (cut at the last horizon), and
    # the packet's momentum width stays 1/2; check it once, so the advice covers every segment.
    segments, (_, p) = _walk([min(tau, max(horizons[-1] - start, 0.0)) for start, tau in
                              zip((0.0, *accumulate(scaled.seg_times)), scaled.seg_times)],
                             accelerations, 1.0, center, np.full(accelerations.shape[1], float(momentum)))
    p_ends = [seg[1] for seg in segments] + [p]
    _check_momentum(float(np.min(p_ends)) - GUARD_SIGMAS * 0.5,
                    float(np.max(p_ends)) + GUARD_SIGMAS * 0.5, spec)
    psi = np.tile(gaussian_packet(spec, center, momentum), (accelerations.shape[1], 1))
    states, t = [], 0.0
    for horizon in horizons:
        start = 0.0
        for tau, a in zip(scaled.seg_times, accelerations):
            step = min(start + tau, horizon) - max(start, t)
            if step > 0.0:
                psi = split_step_evolve(psi, a, step, spec)
            start += tau
        states.append(psi if np.ndim(spin) else psi[0])
        t = horizon
    _check_margin(psi, spec)
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
            f"closure  |overlap| {self.overlap_grid:.6f}"
            + (f" >= {CLOSURE_MIN}  [{mark(self.closure_ok)}]" if self.balanced
               else "  (unbalanced flight: closure not required)"),
        ]


def _sized_grid(params: ExperimentParams, seq: PulseSequence, scaled: ScaledUnits,
                n_points: int, steps_per_segment: int) -> GridSpec:
    """:func:`auto_grid` of ``scaled``, whose refusal names the inputs that the
    trajectories, and so the grid, come from."""
    try:
        return auto_grid(scaled, n_points, steps_per_segment)
    except ScaleError as exc:
        raise ScaleError(
            f"{exc}, got mass={params.mass!r}, trap_omega={params.trap_omega!r}, g_nv={params.g_nv!r}, "
            f"b_gradient={params.b_gradient!r}, g_earth={params.g_earth!r}, theta={params.theta!r}, "
            f"t3={seq.t3!r}") from None


def oracle_compare(
    params: ExperimentParams,
    seq: PulseSequence,
    spec: GridSpec | None = None,
) -> OracleReport:
    """Run the grid and the closed forms side by side and report the errors.

    ``spec`` is the grid, None for ``auto_grid``. The branch pair is run once,
    as the two rows of :func:`evolve_branch_on_grid`, and ``phase_grid`` is
    -arg<psi_minus(t3)|psi_plus(t3)>. A balanced set is refused above
    ``MAX_ORACLE_PHASE`` before any grid work, must recombine (else
    :class:`ClosureError`), and has ``phase_grid`` unwrapped onto the 2 pi branch of
    phi_g; the sub-2pi residual is untouched.
    """
    scaled = scale_params(params, seq)
    balanced = bool(seq.is_balanced())
    phase_analytic = fringe(params, seq, balanced)[0]
    if balanced and abs(phase_analytic) > MAX_ORACLE_PHASE:
        raise ScaleError(
            f"analytic phase {phase_analytic:.3g} rad exceeds {MAX_ORACLE_PHASE:.0g}; "
            "reduce the parameters to desk scale"
        )
    spec = spec or _sized_grid(params, seq, scaled, MIN_POINTS, 1200)
    pair = evolve_branch_on_grid(scaled, spec, (+1, -1))
    ov_grid = complex(np.sum(np.conj(pair[1]) * pair[0]) * spec.dx)
    if balanced and abs(ov_grid) < 0.99:
        raise ClosureError(
            f"balanced sequence failed to recombine on the grid (|overlap| = {abs(ov_grid):.4f})"
        )
    norm_drift = float(np.max(np.abs(spec.norm(pair) - 1.0)))

    final = evolve_sequence(params, seq, initial_state())
    ov_analytic = branch_overlap(params, final)

    # phases compared as a circular residual; unwrapping only picks the branch
    phase_error = abs(math.remainder(math.atan2(ov_grid.imag, ov_grid.real)
                                     - math.atan2(ov_analytic.imag, ov_analytic.real), 2.0 * math.pi))

    phase_grid = -math.atan2(ov_grid.imag, ov_grid.real)
    if balanced:
        phase_grid += 2.0 * math.pi * round((phase_analytic - phase_grid) / (2.0 * math.pi))
    splitting = splitting_phase(scaled.seg_times, scaled.branch_accelerations(_spin_history(+1)),
                                scaled.branch_accelerations(_spin_history(-1)), spec.steps_per_segment)

    center_error = 0.0
    width_error = 0.0
    sigma_scaled = wavepacket_width(params, final.spread_time) / scaled.length_unit
    for xb, pb, width, _, branch in zip(*spec.moments(pair), (final.plus_branch, final.minus_branch)):
        x_cl = branch.center / scaled.length_unit
        # natural momentum unit is hbar / sigma0
        p_cl = branch.momentum * scaled.length_unit / HBAR
        denom = max(1.0, abs(x_cl), abs(p_cl))
        center_error = max(center_error, abs(xb - x_cl) / denom, abs(pb - p_cl) / denom)
        width_error = max(width_error, abs(width - sigma_scaled) / sigma_scaled)

    return OracleReport(
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
    )


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
    both branches go forward once through the sorted times, on
    :func:`snapshot_grid` when ``spec`` is None.
    """
    scaled = scale_params(params, seq)
    fractions = list(fractions)
    for frac in fractions:
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"snapshot fraction {frac} outside [0, 1]")
    spec = spec or snapshot_grid(params, seq)
    t3 = seq.effective_times()[2]
    order = sorted(range(len(fractions)), key=fractions.__getitem__)
    # f t3 / time_unit can round an ulp past total_time; capping it drops no piece
    states = evolve_branch_on_grid(scaled, spec, (+1, -1), until=[
        min(fractions[i] * t3 / scaled.time_unit, scaled.total_time) for i in order])
    frames = [None] * len(fractions)
    for i, pair in zip(order, states):
        prob = np.abs(pair) ** 2 / scaled.length_unit
        frames[i] = (fractions[i] * t3, spec.x * scaled.length_unit, prob[0], prob[1])
    return frames


def snapshot_grid(params: ExperimentParams, seq: PulseSequence) -> GridSpec:
    """The grid of :func:`snapshot_frames`: ``SNAPSHOT_POINTS`` points, more if
    momentum needs them, and one step per segment, as the step count moves only a
    c-number phase, never |psi|^2. Frames are an output, so their resolution is
    fixed, not sized for the physics."""
    return _sized_grid(params, seq, scale_params(params, seq), SNAPSHOT_POINTS, 1)


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
) -> tuple[ExperimentParams, PulseSequence]:
    """SI parameter set engineered to land on given natural-unit targets.

    ``a_spin`` and ``a_gravity`` are the dimensionless spin and gravity
    accelerations, ``tau_scaled`` the dimensionless flight time, at the
    default Lande factor ``DEFAULT_G_NV``; the
    analytic phase is a_spin * a_gravity * tau_scaled^3 / 16. The effective
    gravity is dialed through ``g_earth``, which must stay positive, so
    ``a_gravity = 0`` tilts the axis perpendicular to one unit of gravity
    (theta = pi/2); an ``a_gravity`` whose g_earth or m g_earth is no normal
    float raises ValueError.
    """
    sigma0 = math.sqrt(HBAR / (2.0 * mass * omega))
    time_unit = 1.0 / (2.0 * omega)
    accel_unit = sigma0 / time_unit**2
    b_gradient = a_spin * accel_unit * mass / (DEFAULT_G_NV * MU_BOHR)
    g_earth = (a_gravity or 1.0) * accel_unit
    if not all(math.isfinite(v) and abs(v) >= sys.float_info.min for v in (g_earth, mass * g_earth)):
        raise ValueError(f"a_gravity = {a_gravity!r} takes g_earth or m g_earth out of the normal floats")
    return ExperimentParams(
        mass=mass,
        b_gradient=b_gradient,
        theta=math.pi / 2.0 if a_gravity == 0.0 else 0.0,
        trap_omega=omega,
        mw_frequency=2.87e9,
        pulse_duration=1.0e-8,
        t_internal=300.0,
        t_environment=300.0,
        t_cm=1.0e-3,
        radius=1.0e-7,
        g_earth=g_earth,
    ), PulseSequence.balanced(tau_scaled * time_unit)
