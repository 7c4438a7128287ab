"""Closed-form evolution of spin-conditioned Gaussian wavepackets.

Each spin branch of the released object moves under a piecewise-constant
force, so its wavepacket stays Gaussian: the centre follows the classical
trajectory, the width spreads exactly as in free flight (a linear potential
never distorts a Gaussian), and the accumulated phase is the classical action
over hbar. In the position representation a branch reads

    psi(x) = N(t) * exp(i*(S + p*(x - xc))/hbar) * exp(-(x - xc)^2 / (4*w))

with complex width w = sigma0^2 + i*hbar*t/(2m) and S the action integral.

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
comparisons, and every ``math`` function runs point by point through
:func:`~nanoramsey.params.pointwise` (docs/physics-notes.md, "Bit-identical
broadcasting"). So a thermal ensemble (array starts x0, p0) or a jitter scan
(array ``with_jitter``) is one :func:`evolve_sequence` call.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .params import (
    ExperimentParams,
    SpinBranch,
    all_of,
    any_of,
    branch_force,
    first,
    pointwise,
    where,
)

#: Relative tolerance within which t1 = t3/4 and t2 = 3 t3/4 count as balanced.
BALANCE_RTOL = 1e-12
_isclose = partial(math.isclose, rel_tol=BALANCE_RTOL, abs_tol=0.0)


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
                & pointwise(_isclose, self.t1, self.t3 / 4.0)
                & pointwise(_isclose, self.t2, 3.0 * self.t3 / 4.0))

    def with_jitter(self, j1: float, j2: float, j3: float) -> "PulseSequence":
        return replace(self, jitter=(j1, j2, j3))


@dataclass(frozen=True)
class GaussianBranchState:
    """One spin-conditioned motional wavepacket.

    center        m, packet centre xc
    momentum      kg m/s, packet momentum p
    sigma0        m, initial (trap ground state) width
    spread_time   s, total time entering the free-spreading width law
    action_phase  rad, accumulated classical action over hbar

    A piecewise-constant force leaves ``sigma0`` untouched and advances
    ``spread_time`` by exactly the evolved duration.
    """

    center: float
    momentum: float
    sigma0: float
    spread_time: float = 0.0
    action_phase: float = 0.0

    def __post_init__(self):
        if not all_of(self.sigma0 > 0.0):
            raise ValueError("sigma0 must be > 0")
        if any_of(self.spread_time < 0.0):
            raise ValueError("spread_time must be >= 0")

    def evolved(self, force: float, duration: float, mass: float, hbar: float) -> "GaussianBranchState":
        """Exact evolution under a constant force for ``duration`` seconds."""
        x, p, tau, m = self.center, self.momentum, duration, mass
        f = force
        action = (
            p * p * tau / (2.0 * m)
            + f * x * tau
            + f * p * tau * tau / m
            + f * f * pointwise(operator.pow, tau, 3) / (3.0 * m)
        )
        return GaussianBranchState(
            center=x + p * tau / m + f * tau * tau / (2.0 * m),
            momentum=p + f * tau,
            sigma0=self.sigma0,
            spread_time=self.spread_time + tau,
            action_phase=self.action_phase + action / hbar,
        )


@dataclass(frozen=True)
class CompositeState:
    """Equal spin superposition: one Gaussian branch per spin."""

    plus_branch: GaussianBranchState
    minus_branch: GaussianBranchState


def _spin_history(initial_spin: int) -> tuple[int, int, int]:
    # the flip pulses map s -> -s; spin 0 is untouched
    s = int(initial_spin)
    return (s, -s, s)


def _relative_segments(params: ExperimentParams, seq: PulseSequence):
    """Per-segment (start, duration, dx0, dv0, da) of the + minus - branch separation.

    Both branch centres start at rest at the origin and are walked through the
    three segments; ``start`` accumulates the durations and ``duration`` is the
    difference of consecutive starts, so the last segment may end an ulp off t3.
    """
    m = params.mass
    t, xp, pp, xm, pm = 0.0, 0.0, 0.0, 0.0, 0.0
    out = []
    for tau, s in zip(seq.segment_durations(), _spin_history(SpinBranch.PLUS)):
        ap, am = branch_force(params, s) / m, branch_force(params, -s) / m
        end = t + tau
        out.append((t, end - t, xp - xm, (pp - pm) / m, ap - am))
        xp, pp = xp + ((pp / m) * tau + 0.5 * ap * tau * tau), pp + m * ap * tau
        xm, pm = xm + ((pm / m) * tau + 0.5 * am * tau * tau), pm + m * am * tau
        t = end
    return out


def separation_at(params: ExperimentParams, seq: PulseSequence, t: float) -> float:
    """Signed branch separation x_plus(t) - x_minus(t) in metres, for 0 <= t <= t3."""
    t3 = seq.effective_times()[2]
    if not 0.0 <= t <= t3:
        raise ValueError(f"time {t} outside the flight [0.0, {t3}]")
    start, _, dx0, dv0, da = [seg for seg in _relative_segments(params, seq) if seg[0] <= t][-1]
    dt = t - start
    return dx0 + dv0 * dt + 0.5 * da * dt * dt


def max_separation(params: ExperimentParams, seq: PulseSequence) -> float:
    """Peak |x_plus - x_minus| over the whole flight (m).

    For a balanced sequence this is the closed form 2*(|A|/m)*(t3/4)^2,
    reached at t3/2. Any other sequence falls back to the exact maximum of
    the piecewise-quadratic separation, evaluated segment by segment. Over
    arrays each point takes its own route.
    """
    balanced = seq.is_balanced()
    if all_of(balanced):
        return _balanced_separation(params, seq)
    best = 0.0
    for _, tau, dx0, dv0, da in _relative_segments(params, seq):
        has_vertex = da != 0.0
        t_vertex = -dv0 / where(has_vertex, da, 1.0)
        inside = has_vertex & (0.0 < t_vertex) & (t_vertex < tau)
        for tc, candidate in ((0.0, True), (tau, True), (t_vertex, inside)):
            sep = abs(dx0 + dv0 * tc + 0.5 * da * tc * tc)
            best = where(candidate & (sep > best), sep, best)
    if any_of(balanced):
        return np.where(balanced, _balanced_separation(params, seq), best)
    return best


def _balanced_separation(params: ExperimentParams, seq: PulseSequence):
    a = abs(params.spin_coupling()) / params.mass
    return 2.0 * a * pointwise(operator.pow, seq.t3 / 4.0, 2)


def separation_time_integral(params: ExperimentParams, seq: PulseSequence) -> float:
    """Exact integral of the signed separation x_plus - x_minus over the flight (m s)."""
    total = 0.0
    for _, tau, dx0, dv0, da in _relative_segments(params, seq):
        total = total + (dx0 * tau + 0.5 * dv0 * tau * tau
                         + da * pointwise(operator.pow, tau, 3) / 6.0)
    return total


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
    c = params.constants
    g_axis = c.g_earth * pointwise(math.cos, params.theta)
    return g_axis * params.spin_coupling() * pointwise(operator.pow, seq.t3, 3) / (16.0 * c.hbar)


def ramsey_probability(phi):
    """Spin-0 return probability P0 = cos^2(phi/2) of the closing pulse."""
    if not all_of(np.isfinite(phi)):
        raise ValueError("phase must be finite")
    return pointwise(_cos_squared, phi / 2.0)


def _cos_squared(x: float) -> float:
    return math.cos(x) ** 2


# -- full sequence evolution -------------------------------------------------

def initial_state(params: ExperimentParams, x0: float = 0.0, p0: float = 0.0) -> CompositeState:
    """Equal superposition of the two spin branches on a shared coherent state."""
    packet = GaussianBranchState(center=x0, momentum=p0, sigma0=params.sigma0())
    return CompositeState(plus_branch=packet, minus_branch=packet)


def evolve_sequence(
    params: ExperimentParams,
    seq: PulseSequence,
    initial: CompositeState,
    spins: tuple[int, int] = (SpinBranch.PLUS, SpinBranch.MINUS),
    until: float | None = None,
) -> CompositeState:
    """Evolve both branches through the flip sequence (exact closed forms).

    ``spins`` selects the initial spin of the (plus, minus) branches, which
    allows the kinetic-energy variant that superposes spin 0 with spin +1.
    ``until`` truncates the evolution at an intermediate time, exposing the
    mid-flight delocalized state. Over array sequences, a point whose
    horizon falls before a segment sits that segment out.
    """
    if any_of(initial.plus_branch.sigma0 != initial.minus_branch.sigma0):
        raise ValueError("branches must share sigma0")
    e1, e2, e3 = seq.effective_times()
    horizon = e3 if until is None else float(until)
    ok = (0.0 <= horizon) & (horizon <= e3)
    if not all_of(ok):
        raise ValueError(f"until must lie in [0, {first(np.logical_not(ok), e3)}]")
    m, hbar = params.mass, params.constants.hbar
    edges = [0.0, e1, e2, e3]
    branches = []
    for branch, spin in zip((initial.plus_branch, initial.minus_branch), spins):
        state = branch
        for k, s in enumerate(_spin_history(int(spin))):
            start = edges[k]
            stop = edges[k + 1] if until is None else pointwise(min, edges[k + 1], horizon)
            idle = stop <= start
            if all_of(idle):
                break
            state = state.evolved(branch_force(params, s), where(idle, 0.0, stop - start),
                                  m, hbar)
        branches.append(state)
    return CompositeState(branches[0], branches[1])


def wavepacket_width(params: ExperimentParams, spread_time: float) -> float:
    """Free-spreading width sigma(t) = sigma0 * sqrt(1 + (hbar t / 2 m sigma0^2)^2).

    With sigma0 the trap ground-state width this is sigma0*sqrt(1+(omega t)^2).
    Linear potentials do not alter the spreading, so the law holds verbatim
    through the whole accelerated sequence (grid-certified).
    """
    if spread_time < 0.0:
        raise ValueError("spread_time must be >= 0")
    s0 = params.sigma0()
    z = params.constants.hbar * spread_time / (2.0 * params.mass * s0 * s0)
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
    if any_of(plus.sigma0 != minus.sigma0):
        raise ValueError("branch overlap undefined for differing sigma0")
    if any_of(plus.spread_time != minus.spread_time):
        raise ValueError("branch overlap undefined for differing spread_time")
    hbar = params.constants.hbar
    s0 = plus.sigma0
    t = plus.spread_time
    dx = plus.center - minus.center
    dp = plus.momentum - minus.momentum
    p_mean = 0.5 * (plus.momentum + minus.momentum)
    dx_back = dx - dp * t / params.mass
    log_mod = (-pointwise(operator.pow, dx_back, 2) / (8.0 * s0 * s0)
               - pointwise(operator.pow, s0 * dp / hbar, 2) / 2.0)
    arg = (plus.action_phase - minus.action_phase) - p_mean * dx / hbar
    return pointwise(_polar, log_mod, arg)


def _polar(log_mod: float, arg: float) -> complex:
    return math.exp(log_mod) * complex(math.cos(arg), math.sin(arg))
