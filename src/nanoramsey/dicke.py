"""Multi-NV extension: Dicke sectors of the collective spin ensemble.

With l NV spins aligned along the same axis, only the +-1 projections take
part in the splitting, so each NV acts as a pseudo-spin-1/2 and the uniform
product state ((|+1> + |-1>)/sqrt(2))^(x l) decomposes binomially over
symmetric Dicke sectors: the sector with n up-spins holds binomial(l, n)
permutation components, carries the collective projection M = 2n - l and its
motional packet feels the force M*A - C, so every sector closes under a
balanced sequence and the final spin state picks up sector phases.

``collective_final_state`` carries the idealized linear phase table
phase(M) = M * phi_g, whose refactorization target is the product state
((|+1> + exp(-2 i phi_g)|-1>)/sqrt(2))^(x l). The exact sector phase is the
action phase of a packet that starts in sector M, which each flip maps to -M.
Besides the linear term of slope -phi_g/2 it holds a real quadratic
(one-axis-twisting) term from the spin-dependent kinetic energy, whose
coefficient :func:`sector_phase_quadratic_coefficient` gives. The grid oracle
certifies the quadratic term, so the linear table is an idealization, not
the dynamics: for l >= 2 the twisting cuts each spin's contrast to
|cos 4c|^(l-1) (docs/physics-notes.md, "The twisting contrast of l spins").
"""
from __future__ import annotations

import math

from .constants import HBAR
from .dynamics import PulseSequence, gravitational_phase
from .params import ExperimentParams

MAX_EXACT_L = 30          # binomials stay exact in float64 well past this


def collective_final_state(params: ExperimentParams, seq: PulseSequence,
                           l: int) -> tuple[tuple[int, float], ...]:
    """Final collective state for a balanced sequence, linear-phase convention: the
    idealized separable output's sector phases (M, M * phi_g), M = -l, -l + 2, ..., l.

    Every sector recombines onto the same motional Gaussian (the spin-zero
    projectile packet). Unbalanced sequences leave the sectors entangled with
    distinct packets and are rejected.
    """
    if not seq.is_balanced():
        raise ValueError("collective final state is separable only for balanced sequences")
    if not 1 <= l <= MAX_EXACT_L:
        raise ValueError(f"l must lie in [1, {MAX_EXACT_L}]")
    phi = gravitational_phase(params, seq)
    return tuple((2 * n - l, (2 * n - l) * phi) for n in range(l + 1))


def sector_phase_quadratic_coefficient(params: ExperimentParams, seq: PulseSequence) -> float:
    """Coefficient of M^2 in the exact sector phase, -(2/3) A^2 (t3/4)^3 / (m hbar).

    The spin-conditioned motion carries kinetic energy proportional to M^2,
    so sectors of different |M| twist against each other; for a single spin
    (M = +-1) the term is a global phase and drops out of every observable.
    Balanced sequences only.
    """
    if not seq.is_balanced():
        raise ValueError("quadratic coefficient derived for balanced sequences")
    a_spin = params.spin_coupling() / params.mass
    tau = seq.t3 / 4.0
    try:
        coefficient = -(2.0 / 3.0) * params.mass * a_spin**2 * tau**3 / HBAR
    except OverflowError:       # float ** raises where float * gives inf
        coefficient = math.inf
    if not math.isfinite(coefficient):
        raise ValueError(
            f"mass, g_nv, b_gradient and t3 overflow the twisting coefficient, got mass={params.mass!r}, "
            f"g_nv={params.g_nv!r}, b_gradient={params.b_gradient!r}, t3={seq.t3!r}"
        )
    return coefficient


def sector_table(sector_phases: tuple[tuple[int, float], ...]) -> tuple[list[str], list[tuple]]:
    """CSV-ready sector table (M, multiplicity, phase_rad) of the l + 1 sectors'
    (M, phase) pairs of :func:`collective_final_state`."""
    l = len(sector_phases) - 1
    rows = [(m, math.comb(l, (m + l) // 2), phase) for m, phase in sector_phases]
    return ["M", "multiplicity", "phase_rad"], rows
