"""Closed-form evolution of spin-conditioned Gaussian wavepackets.

Each spin branch of the released object moves under a piecewise-constant
force, so its wavepacket stays Gaussian: the centre follows the classical
trajectory, the width spreads exactly as in free flight (a linear potential
never distorts a Gaussian), and the accumulated phase is the classical action
over hbar. In the position representation a branch reads

    psi(x) = N(t) * exp(i*(S + p*(x - xc))/hbar) * exp(-(x - xc)^2 / (4*w))

with complex width w = sigma0^2 + i*hbar*t/(2m) and S the action integral.
Both branches leave the same trap ground state, so sigma0 is
``params.sigma0()`` and t, the time since release, is the pair's one clock,
``CompositeState.spread_time``; a branch holds only xc, p and S / hbar.

Sign conventions used throughout (and certified by the grid oracle):

* the branch that starts on spin +1 is pushed toward +x for b_gradient > 0;
* the interferometric phase ``phi_g`` is positive for positive gradient,
  gravity and cos(theta), and the branch actions obey
  (S_plus - S_minus)/hbar = -phi_g, equivalently arg<psi_minus|psi_plus> = -phi_g;
* the measured fringe P0 = cos^2(phi/2) is insensitive to that sign.

Broadcasting. Parameters, sequence times, jitter and initial conditions may
be numpy arrays; every closed form then evaluates all points in one call and
returns arrays, while a scalar call returns Python scalars. Each element is
bit-identical to the scalar call on that point: numpy does only + - * / and
comparisons, and every ``math`` function and ``**`` goes through an array
kernel of :mod:`~nanoramsey.params` that calls C libm (docs/physics-notes.md,
"Bit-identical broadcasting"). So a thermal ensemble (array starts x0, p0)
or a jitter scan (an array ``jitter``) is one :func:`evolve_sequence` call.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .params import (
    ExperimentParams,
    all_of,
    any_of,
    atan2,
    branch_force,
    cos,
    exp,
    first,
    isclose,
    modulus,
    power,
    sin,
    where,
)

#: Relative tolerance within which t1 = t3/4 and t2 = 3 t3/4 count as balanced.
BALANCE_RTOL = 1e-12


@dataclass(frozen=True)
class PulseSequence:
    """Spin-flip times t1 < t2 and measurement time t3, with optional jitter.

    The jitter triple shifts the respective times; both branches see the same
    shifted times because the flips are the same physical pulses.
    """

    t1: float
    t2: float
    t3: float
    jitter: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        e1, e2, e3 = self.effective_times()
        ok = (0.0 < e1) & (e1 < e2) & (e2 < e3)
        if not all_of(ok):
            bad = np.logical_not(ok)
            raise ValueError(
                "pulse times must satisfy 0 < t1 < t2 < t3 after jitter, "
                f"got {first(bad, e1)}, {first(bad, e2)}, {first(bad, e3)}"
            )

    @classmethod
    def balanced(cls, t3: float) -> "PulseSequence":
        """The closing sequence t1 = t3/4, t2 = 3 t3/4."""
        return cls(t1=t3 / 4.0, t2=3.0 * t3 / 4.0, t3=t3)

    def effective_times(self) -> tuple[float, float, float]:
        j1, j2, j3 = self.jitter
        return (self.t1 + j1, self.t2 + j2, self.t3 + j3)

    def segment_durations(self) -> tuple[float, float, float]:
        e1, e2, e3 = self.effective_times()
        return (e1, e2 - e1, e3 - e2)

    def is_balanced(self):
        """True when the flips close the interferometer exactly: t1 = t3/4 and
        t2 = 3 t3/4 within ``BALANCE_RTOL``, and no jitter. A bool for a scalar
        sequence, else a mask over the array times."""
        j1, j2, j3 = self.jitter
        return ((j1 == 0.0) & (j2 == 0.0) & (j3 == 0.0)
                & isclose(self.t1, self.t3 / 4.0, BALANCE_RTOL)
                & isclose(self.t2, 3.0 * self.t3 / 4.0, BALANCE_RTOL))


@dataclass(frozen=True)
class GaussianBranchState:
    """One spin-conditioned motional wavepacket; its width is the pair's (:class:`CompositeState`).

    center        m, packet centre xc
    momentum      kg m/s, packet momentum p
    action_phase  rad, accumulated classical action over hbar
    """

    center: float
    momentum: float
    action_phase: float = 0.0


@dataclass(frozen=True)
class CompositeState:
    """Equal spin superposition: one Gaussian branch per spin, and the pair's
    clock ``spread_time`` (s), the time since release that sets both widths."""

    plus_branch: GaussianBranchState
    minus_branch: GaussianBranchState
    spread_time: float = 0.0


def _spin_history(initial_spin: int) -> tuple[int, int, int]:
    # the flip pulses map s -> -s; spin 0 is untouched
    s = int(initial_spin)
    return (s, -s, s)


def _walk(durations, forces, mass, x=0.0, p=0.0):
    """The one routine that moves a branch centre: (x, p, a) at each segment start from
    (``x``, ``p``) under ``forces``, and the end (x, p), each step the exact constant-force one
    over its duration. It keeps no clock and no action, which only some readers need:
    :func:`_relative_segments` adds the segment starts, :func:`_branch_end` the action, and the
    grid walks with mass 1.0 (docs/physics-notes.md, "One walk moves a branch")."""
    segments = []
    for tau, f in zip(durations, forces):
        segments.append((x, p, f / mass))
        ft = f * tau
        x, p = x + p * tau / mass + ft * tau / (2.0 * mass), p + ft
    return segments, (x, p)


def _walks(params: ExperimentParams, durations, plus=(0.0, 0.0), minus=(0.0, 0.0)):
    """(forces, walk) of each branch through ``durations`` of the flip sequence: the plus
    branch from (x, p) ``plus`` on spin +1, the minus branch from ``minus`` on spin -1. The
    two forces are formed once for both."""
    up, down = branch_force(params, 1), branch_force(params, -1)
    return [(forces, _walk(durations, forces, params.mass, *start))
            for forces, start in (((up, down, up), plus), ((down, up, down), minus))]


def _reach(x, v, a, tau):
    """(lowest, highest) value of x + v t + a t^2 / 2 over 0 <= t <= ``tau``, from
    both ends and from the vertex -v / a where it lies inside: the one vertex search."""
    has_vertex = a != 0.0
    t_vertex = -v / where(has_vertex, a, 1.0)
    inside = has_vertex & (0.0 < t_vertex) & (t_vertex < tau)
    lo = hi = x
    for tc, candidate in ((tau, True), (t_vertex, inside)):
        value = x + v * tc + 0.5 * a * tc * tc
        lo = where(candidate & (value < lo), value, lo)
        hi = where(candidate & (value > hi), value, hi)
    return lo, hi


def _separation_pieces(mass, durations, walks):
    """Per-segment (start, duration, dx0, dv0, da) of the + minus - branch separation of
    :func:`_walks`, each ``duration`` the difference of consecutive accumulated starts."""
    (_, (plus, _)), (_, (minus, _)) = walks
    t, pieces = 0.0, []
    for tau, (xp, pp, ap), (xm, pm, am) in zip(durations, plus, minus):
        end = t + tau
        pieces.append((t, end - t, xp - xm, (pp - pm) / mass, ap - am))
        t = end
    return pieces


def _relative_segments(params: ExperimentParams, seq: PulseSequence):
    """:func:`_separation_pieces` of the two branches' walks from rest at the origin."""
    durations = seq.segment_durations()
    return _separation_pieces(params.mass, durations, _walks(params, durations))


def _peak(pieces):
    """The exact maximum of |separation| over the segments ``pieces``."""
    best = 0.0
    for _, tau, dx0, dv0, da in pieces:
        for sep in map(abs, _reach(dx0, dv0, da, tau)):
            best = where(sep > best, sep, best)
    return best


def max_separation(params: ExperimentParams, seq: PulseSequence) -> float:
    """Peak |x_plus - x_minus| over the whole flight (m): for a balanced sequence the closed
    form 2*(|A|/m)*(t3/4)^2, reached at t3/2; for any other sequence, and an array of sequences
    not all balanced, the exact maximum of the piecewise-quadratic separation, per segment."""
    if all_of(seq.is_balanced()):
        return 2.0 * (abs(params.spin_coupling()) / params.mass) * power(seq.t3 / 4.0, 2)
    return _peak(_relative_segments(params, seq))


# -- interferometric phase ----------------------------------------------------

def gravitational_phase(params: ExperimentParams, seq: PulseSequence) -> float:
    """Gravity-induced spin phase phi_g for a balanced sequence (rad).

    Closed form: phi_g = g * cos(theta) * A * t3^3 / (16 * hbar) with
    A = g_nv * mu_B * dB/dx. Positive for positive gradient; the sign flips
    with the gradient. Unbalanced sequences entangle the phase with the
    motion, so they are rejected here (over arrays, if any point is); use
    :func:`evolve_sequence` and :func:`branch_overlap` instead.
    """
    if not all_of(seq.is_balanced()):
        raise ValueError(
            "gravitational_phase needs a balanced, jitter-free sequence; "
            "evolve_sequence handles the general case"
        )
    g_axis = params.g_earth * cos(params.theta)
    try:
        return g_axis * params.spin_coupling() * power(seq.t3, 3) / (16.0 * HBAR)
    except OverflowError:       # float ** raises where float * gives inf
        with np.errstate(over="ignore"):
            bad = np.isinf(np.float_power(seq.t3, 3.0))
        raise ValueError(f"t3 = {first(bad, seq.t3)!r} s overflows t3^3 in the gravitational "
                         "phase g cos(theta) A t3^3 / (16 hbar); reduce t3") from None


def ramsey_probability(phi):
    """Spin-0 return probability P0 = cos^2(phi/2) of the closing pulse."""
    if not all_of(np.isfinite(phi)):
        raise ValueError("phase must be finite")
    return power(cos(phi / 2.0), 2)


# -- full sequence evolution -------------------------------------------------

def initial_state(x0: float = 0.0, p0: float = 0.0) -> CompositeState:
    """Equal superposition of the two spin branches on a shared coherent state."""
    packet = GaussianBranchState(center=x0, momentum=p0)
    return CompositeState(plus_branch=packet, minus_branch=packet)


def _branch_end(mass, durations, cubes, forces, walk, phase) -> GaussianBranchState:
    """The branch at the end of ``walk`` under ``forces``: the walk's end (x, p), and ``phase``
    plus the action over hbar summed from each segment's start (x, p) over ``durations``,
    ``cubes`` their cubes: S = p^2 tau / 2m + f x tau + f p tau^2 / m + f^2 tau^3 / 3m."""
    segments, (x, p) = walk
    for tau, cube, f, (x0, p0, _) in zip(durations, cubes, forces, segments):
        phase = phase + (p0 * p0 * tau / (2.0 * mass) + f * x0 * tau + f * p0 * tau * tau / mass
                         + f * f * cube / (3.0 * mass)) / HBAR
    return GaussianBranchState(x, p, phase)


def _sequence_end(params: ExperimentParams, seq: PulseSequence, durations, walks,
                  initial: CompositeState) -> CompositeState:
    """The pair of ``initial`` at the end of its :func:`_walks`, each tau^3 formed once for
    both branches; an action phase that overflows is refused."""
    cubes = [power(tau, 3) for tau in durations]
    branches = [_branch_end(params.mass, durations, cubes, forces, walk, state.action_phase)
                for (forces, walk), state in zip(walks, (initial.plus_branch, initial.minus_branch))]
    bad = np.logical_not(np.isfinite(branches[0].action_phase) & np.isfinite(branches[1].action_phase))
    if any_of(bad):     # an action that overflows leaves the overlap phase inf - inf = NaN
        raise ValueError("mass, g_earth, g_nv, b_gradient and t3 overflow a branch's action phase S / hbar, "
                         f"got mass={first(bad, params.mass)!r}, g_earth={first(bad, params.g_earth)!r}, "
                         f"g_nv={first(bad, params.g_nv)!r}, b_gradient={first(bad, params.b_gradient)!r}, "
                         f"t3={first(bad, seq.t3)!r}")
    return CompositeState(branches[0], branches[1],
                          initial.spread_time + durations[0] + durations[1] + durations[2])


def evolve_sequence(params: ExperimentParams, seq: PulseSequence, initial: CompositeState) -> CompositeState:
    """Evolve both branches through the flip sequence to t3 (exact closed forms):
    the plus branch starts on spin +1, the minus branch on spin -1."""
    durations = seq.segment_durations()
    plus, minus = initial.plus_branch, initial.minus_branch
    walks = _walks(params, durations, (plus.center, plus.momentum), (minus.center, minus.momentum))
    return _sequence_end(params, seq, durations, walks, initial)


def fringe(params: ExperimentParams, seq: PulseSequence, balanced: bool):
    """(phi_g, P0, peak separation, visibility) of points that are all ``balanced``, or all
    not. A balanced flight closes the interferometer, so the phase is the closed form
    :func:`gravitational_phase` and the visibility 1.0. Any other flight leaves the phase on
    the motion: phase and visibility are read from the branch overlap at t3, and the peak
    from the same one walk from rest."""
    if balanced:
        phi = gravitational_phase(params, seq)
        separation = max_separation(params, seq)
        vis = 1.0
    else:
        durations = seq.segment_durations()
        walks = _walks(params, durations)
        final = _sequence_end(params, seq, durations, walks, initial_state())
        separation = _peak(_separation_pieces(params.mass, durations, walks))
        ov = branch_overlap(params, final)
        phi = -atan2(ov.imag, ov.real)
        vis = modulus(ov)
    return phi, ramsey_probability(phi), separation, vis


def wavepacket_width(params: ExperimentParams, spread_time: float) -> float:
    """Free-spreading width sigma(t) = sigma0 * sqrt(1 + (hbar t / 2 m sigma0^2)^2).

    With sigma0 the trap ground-state width this is sigma0*sqrt(1+(omega t)^2).
    Linear potentials do not alter the spreading, so the law holds verbatim
    through the whole accelerated sequence (grid-certified).
    """
    if not spread_time >= 0.0:      # written so, NaN is refused too
        raise ValueError(f"spread_time must be >= 0, got {spread_time!r}")
    s0 = params.sigma0()
    # hbar / trap_omega in exact arithmetic, but its left-to-right product can underflow
    denominator = 2.0 * params.mass * s0 * s0
    if not denominator >= sys.float_info.min:
        raise ValueError(
            f"mass and trap_omega make 2 mass sigma0^2 = {denominator!r} underflow, got "
            f"mass={params.mass!r}, trap_omega={params.trap_omega!r}"
        )
    z = HBAR * spread_time / denominator
    return s0 * math.sqrt(1.0 + z * z)


def branch_overlap(params: ExperimentParams, state: CompositeState) -> complex:
    """Motional overlap <psi_minus | psi_plus> of the two branch packets.

    Both packets share the same complex width, so the overlap has the exact
    closed form obtained by pulling the phase-space displacement back to
    t = 0 (free spreading is symplectic):

        |ov|  = exp(-(dx - dp t/m)^2 / (8 sigma0^2) - sigma0^2 dp^2 / (2 hbar^2))
        arg   = (S_plus - S_minus)/hbar - p_mean * dx / hbar

    with dx, dp the centre and momentum differences at time t. At closure
    the modulus is 1 and the argument equals -phi_g. The modulus is the
    fringe-visibility factor contributed by motional which-path information.
    """
    plus, minus = state.plus_branch, state.minus_branch
    s0 = params.sigma0()
    t = state.spread_time
    dx = plus.center - minus.center
    dp = plus.momentum - minus.momentum
    p_mean = 0.5 * (plus.momentum + minus.momentum)
    dx_back = dx - dp * t / params.mass
    log_mod = -power(dx_back, 2) / (8.0 * s0 * s0) - power(s0 * dp / HBAR, 2) / 2.0
    arg = (plus.action_phase - minus.action_phase) - p_mean * dx / HBAR
    return _polar(log_mod, arg)


def _polar(log_mod, arg):
    """``exp(log_mod) * complex(cos(arg), sin(arg))``. Over arrays the product is
    CPython's float * complex, which takes e as complex(e, 0.0), so the zero
    terms keep the scalar call's signed zeros when the modulus underflows."""
    if not any(isinstance(v, np.ndarray) for v in (log_mod, arg)):
        return math.exp(log_mod) * complex(math.cos(arg), math.sin(arg))
    e, c, s = exp(log_mod), cos(arg), sin(arg)
    z = np.empty(np.broadcast(e, c).shape, complex)
    z.real = e * c - 0.0 * s
    z.imag = e * s + 0.0 * c
    return z
