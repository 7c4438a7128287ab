"""Multi-NV extension: Dicke sectors of the collective spin ensemble.

With l NV spins aligned along the same axis, only the +-1 projections take
part in the splitting, so each NV acts as a pseudo-spin-1/2 and the uniform
product state ((|+1> + |-1>)/sqrt(2))^(x l) decomposes binomially over
symmetric Dicke sectors. A sector with n up-spins carries the collective
projection M = 2n - l and its motional packet feels the force M*A - C, so
every sector closes under a balanced sequence and the final spin state picks
up sector phases.

Amplitude convention: ``amplitude`` is the coefficient on the NORMALIZED
Dicke state |D_l^n> (norm 1), so sum_n |amplitude|^2 = 1; the coefficient on
each of the binomial(l, n) permutation components is amplitude/sqrt(multiplicity).

Two phase tables are exposed on purpose:

* ``collective_final_state`` carries the idealized linear table
  phase(M) = M * phi_g, whose refactorization target is the product state
  ((|+1> + exp(-2 i phi_g)|-1>)/sqrt(2))^(x l);
* ``sector_action_phases`` carries the exact per-sector action phases, which
  contain, besides the linear term of slope -phi_g/2, a real quadratic
  (one-axis-twisting) term from the spin-dependent kinetic energy; see
  :func:`sector_phase_quadratic_coefficient`. The grid oracle certifies the
  quadratic term, so the linear table is an idealization, not the dynamics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    GaussianBranchState,
    PulseSequence,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    ramsey_probability,
)
from .params import ExperimentParams

MAX_EXACT_L = 30          # binomials stay exact in float64 well past this
MAX_BRUTE_FORCE_L = 12    # 4096-dimensional statevectors for the tensor tests


@dataclass(frozen=True)
class DickeSector:
    """One symmetric sector of the l-spin ensemble."""

    n: int                    # number of +1 spins
    multiplicity: int         # binomial(l, n) permutation components
    collective_value: int     # M = 2n - l
    amplitude: complex        # coefficient on the normalized Dicke state


@dataclass(frozen=True)
class DickeDecomposition:
    """Sector expansion of the uniform product spin state."""

    l: int
    sectors: tuple[DickeSector, ...]

    def __post_init__(self):
        norm = sum(abs(s.amplitude) ** 2 for s in self.sectors)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"sector amplitudes must have unit norm, got {norm}")


def product_to_dicke(l: int) -> DickeDecomposition:
    """Decompose ((|+1> + |-1>)/sqrt(2))^(x l) over normalized Dicke sectors."""
    if not 1 <= l <= MAX_EXACT_L:
        raise ValueError(f"l must lie in [1, {MAX_EXACT_L}]")
    sectors = []
    for n in range(l + 1):
        mult = math.comb(l, n)
        amp = math.sqrt(mult) / 2.0 ** (l / 2.0)
        sectors.append(DickeSector(n=n, multiplicity=mult,
                                   collective_value=2 * n - l, amplitude=amp))
    return DickeDecomposition(l=l, sectors=tuple(sectors))


@dataclass(frozen=True)
class CollectiveFinalState:
    """Idealized separable output: common motional packet, linear sector phases."""

    l: int
    motional: GaussianBranchState
    sector_phases: tuple[tuple[int, float], ...]   # (M, M * phi_g)
    phi_g: float

    def phase_of(self, m_value: int) -> float:
        for m, phase in self.sector_phases:
            if m == m_value:
                return phase
        raise KeyError(m_value)


def collective_final_state(params: ExperimentParams, seq: PulseSequence, l: int) -> CollectiveFinalState:
    """Final collective state for a balanced sequence, linear-phase convention.

    Every sector recombines onto the same motional Gaussian (the spin-zero
    projectile packet); the sector table carries phase(M) = M * phi_g.
    Unbalanced sequences leave the sectors entangled with distinct packets
    and are rejected.
    """
    if not seq.is_balanced():
        raise ValueError("collective final state is separable only for balanced sequences")
    if not 1 <= l <= MAX_EXACT_L:
        raise ValueError(f"l must lie in [1, {MAX_EXACT_L}]")
    phi = gravitational_phase(params, seq)
    # every sector recombines onto the spin-averaged projectile packet
    packet = GaussianBranchState(center=0.0, momentum=0.0, sigma0=params.sigma0())
    packet = packet.evolved(-params.gravity_force(), seq.t3, params.mass, params.constants.hbar)
    motional = replace(packet, action_phase=0.0)
    phases = tuple((2 * n - l, (2 * n - l) * phi) for n in range(l + 1))
    return CollectiveFinalState(l=l, motional=motional, sector_phases=phases, phi_g=phi)


def sector_action_phases(params: ExperimentParams, seq: PulseSequence, l: int):
    """Exact per-sector action phases (dynamical truth, global phase included).

    Returns a list of (M, S_M/hbar). The dependence on M is quadratic:
    a linear part of slope -phi_g/2 plus the one-axis-twisting term
    sector_phase_quadratic_coefficient * M^2.
    """
    if not 1 <= l <= MAX_EXACT_L:
        raise ValueError(f"l must lie in [1, {MAX_EXACT_L}]")
    out = []
    for n in range(l + 1):
        mv = 2 * n - l
        final = evolve_sequence(params, seq, initial_state(params), spins=(mv, mv))
        out.append((mv, final.plus_branch.action_phase))
    return out


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
    return -(2.0 / 3.0) * params.mass * a_spin**2 * tau**3 / params.constants.hbar


def collective_ramsey_signal(l: int, phi: float) -> float:
    """Per-spin return probability cos^2(phi/2); identical for every NV."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return ramsey_probability(phi)


# -- brute-force statevector reconstruction -----------------------------------

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
    """Statevector sum_n amplitude_n exp(i phase(M_n)) |D_l^n>."""
    decomp = product_to_dicke(l)
    phase_map = dict(sector_phases)
    vec = np.zeros(2**l, dtype=complex)
    for sector in decomp.sectors:
        phase = phase_map[sector.collective_value]
        vec += sector.amplitude * np.exp(1j * phase) * dicke_state_vector(l, sector.n)
    return vec


def refactorization_fidelity(l: int, phi: float) -> float:
    """|<product | sum_n e^{i M phi} sectors>|^2, the separability identity.

    Sector phases linear in M refactorize exactly: assigning e^{i M phi}
    to sector M reproduces the product state with per-spin relative phase
    -2 phi (each +1 spin contributes e^{i phi}, each -1 spin e^{-i phi},
    up to a global phase).
    """
    decomp = product_to_dicke(l)
    phases = [(s.collective_value, s.collective_value * phi) for s in decomp.sectors]
    reconstructed = reconstruct_spin_state(l, phases)
    target = product_state_vector(l, -2.0 * phi) * np.exp(1j * l * phi)
    return float(abs(np.vdot(target, reconstructed)) ** 2)


def sector_table(final: CollectiveFinalState) -> tuple[list[str], list[tuple]]:
    """CSV-ready sector table (M, multiplicity, phase_rad)."""
    decomp = product_to_dicke(final.l)
    mult = {s.collective_value: s.multiplicity for s in decomp.sectors}
    header = ["M", "multiplicity", "phase_rad"]
    rows = [(m, mult[m], phase) for m, phase in final.sector_phases]
    return header, rows
