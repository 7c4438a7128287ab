"""Feasibility budget: point estimates that decide whether a run is viable.

Every number here is recomputed from the configured parameters; the quoted
reference-design figures live in ``PROPOSAL_QUOTES`` and are used only to
annotate discrepancies in the report notes, never as inputs.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass

from .constants import AMU, HBAR, K_BOLTZMANN, LIGHT_SPEED, MU_BOHR
from .dynamics import (
    PulseSequence,
    _relative_segments,
    branch_overlap,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    max_separation,
    ramsey_probability,
    wavepacket_width,
)
from .io import json_document
from .params import ExperimentParams

#: Headline figures quoted for the reference design of this protocol.
#: Annotated constants for discrepancy notes only; computations never read them.
PROPOSAL_QUOTES = {
    "peak_separation_m": 1.0e-7,        # "about 100 nm" separation
    "doppler_linewidth_hz": 0.029,      # quoted Doppler linewidth at v0 = 1 mm/s
    "thermal_velocity_m_s": 0.002,      # quoted rms velocity at 1 mK
    "zeeman_splitting_hz": 56.0e9,      # quoted splitting at the first flip
    "csl_bound_per_s": 1.0e-14,         # quoted order of the collapse-rate bound
    "csl_rate_enhanced_per_s": 1.0e-9,  # enhanced-collapse model rate
    "csl_rate_original_per_s": 1.0e-16,  # original-collapse model rate
}

#: Reference-design figures that this package does not recompute (out of scope);
#: they appear in reports as quoted strings only.
QUOTED_ONLY_NOTES = (
    "quoted macroscopicity of the reference design: mu = 24 (not recomputed here)",
    "quoted time-dilation dephasing time: ~1000 s (not recomputed here)",
    "quoted gravitational-reduction coherence time: ~100 s (not recomputed here)",
    "quoted space-time-texture bound: Theta <~ 1e25 (not recomputed here)",
)

#: A flip is considered resolvable when the splitting exceeds this many pulse bandwidths.
RESOLVABILITY_MARGIN = 10.0
#: Computed-vs-quoted values further apart than this factor earn a discrepancy note.
DISCREPANCY_FACTOR = 1.5


def csl_bound(n_nucleons: float, t3: float) -> float:
    """Collapse-rate upper bound 1/(2 N^2 t3) from observing full coherence (s^-1)."""
    if n_nucleons < 1.0:
        raise ValueError("n_nucleons must be >= 1")
    if not t3 > 0.0:
        raise ValueError("t3 must be > 0")
    try:
        return 1.0 / (2.0 * n_nucleons**2 * t3)
    except OverflowError:       # float ** raises where float * gives inf, and 1 / inf is 0
        return 0.0


def doppler_linewidth(f0: float, v0: float) -> float:
    """First-order Doppler linewidth f0 * v0 / c (Hz) at velocity amplitude ``v0``."""
    if not f0 > 0.0:
        raise ValueError("f0 must be > 0")
    if v0 < 0.0:
        raise ValueError("v0 must be >= 0")
    return f0 * v0 / LIGHT_SPEED


def thermal_velocity(t_cm: float, mass: float) -> float:
    """Root-mean-square velocity sqrt(3 k T / m) of the trapped object (m/s)."""
    if t_cm < 0.0:
        raise ValueError("t_cm must be >= 0")
    if not mass > 0.0:
        raise ValueError("mass must be > 0")
    return math.sqrt(3.0 * K_BOLTZMANN * t_cm / mass)


@dataclass(frozen=True)
class BudgetReport:
    """Consolidated feasibility numbers for one configuration (all SI)."""

    csl_bound_per_s: float             # with the configured nucleon count
    csl_bound_mass_derived_per_s: float  # with N = mass / amu
    n_nucleons: float
    doppler_linewidth_hz: float
    thermal_velocity_m_s: float
    zeeman_splitting_hz: float
    pulse_bandwidth_hz: float
    resolvability_ratio: float
    peak_separation_m: float           # kinematic maximum of the arm separation
    arm_displacement_m: float          # single-arm peak excursion (half the above)
    spread_ratio: float                # sigma(t3) / sigma0
    phi_g_rad: float
    ramsey_p0: float
    visibility_closure: float          # |<psi_-|psi_+>| at t3
    resolvability_pass: bool
    closure_pass: bool
    notes: tuple[str, ...]

    def all_pass(self) -> bool:
        return self.resolvability_pass and self.closure_pass

    def to_json(self, metadata: dict | None = None) -> Iterator[bytes]:
        """The report as ``io.json_document`` pieces, ``metadata`` under its own key."""
        payload = asdict(self)
        if metadata is not None:
            payload["metadata"] = metadata
        return json_document(payload)

    def to_text(self) -> str:
        flag = lambda ok: "pass" if ok else "FAIL"
        lines = [
            "feasibility budget",
            f"  collapse-rate bound      {self.csl_bound_per_s:.6e} 1/s  (N = {self.n_nucleons:.6e})",
            f"  bound with N = m/amu     {self.csl_bound_mass_derived_per_s:.6e} 1/s",
            f"  doppler linewidth        {self.doppler_linewidth_hz:.6e} Hz",
            f"  thermal rms velocity     {self.thermal_velocity_m_s:.6e} m/s",
            f"  zeeman splitting         {self.zeeman_splitting_hz:.6e} Hz",
            f"  pulse bandwidth          {self.pulse_bandwidth_hz:.6e} Hz",
            f"  resolvability ratio      {self.resolvability_ratio:.3f}  [{flag(self.resolvability_pass)}]",
            f"  peak arm separation      {self.peak_separation_m:.6e} m",
            f"  single-arm displacement  {self.arm_displacement_m:.6e} m",
            f"  spread ratio sigma(t3)/sigma0 = {self.spread_ratio:.4f}",
            f"  phase phi_g              {self.phi_g_rad:.6e} rad,  P0 = {self.ramsey_p0:.6f}",
            f"  closure visibility       {self.visibility_closure:.12f}  [{flag(self.closure_pass)}]",
            "notes:",
        ]
        lines += [f"  - {note}" for note in self.notes]
        return "\n".join(lines) + "\n"


def _discrepant(computed: float, quoted: float) -> bool:
    if computed <= 0.0 or quoted <= 0.0:
        return computed != quoted
    ratio = computed / quoted
    return ratio > DISCREPANCY_FACTOR or ratio < 1.0 / DISCREPANCY_FACTOR


def budget_report(params: ExperimentParams, seq: PulseSequence) -> BudgetReport:
    """Recompute every feasibility figure and flag quoted-value discrepancies."""
    t3 = seq.effective_times()[2]
    bound = csl_bound(params.n_nucleons, t3)
    if not 0.0 < bound < math.inf:
        raise ValueError(f"n_nucleons and t3 take the collapse-rate bound 1/(2 N^2 t3) out of "
                         f"range, got n_nucleons={params.n_nucleons!r}, t3={t3!r}")
    if not params.mass >= AMU:
        raise ValueError(f"mass must be at least one atomic mass unit ({AMU!r} kg) to count the "
                         f"nucleons of the collapse-rate bound, got mass={params.mass!r}")
    bound_mass = csl_bound(params.mass / AMU, t3)
    v_rms = thermal_velocity(params.t_cm, params.mass)
    doppler = doppler_linewidth(params.mw_frequency, v_rms)
    # at t1, where the second segment starts, the arms sit at +-x_flip around the mean path, in
    # fields 2 b_gradient x_flip apart: a splitting 2 (g_nv mu_B / h) b_gradient x_flip that
    # must clear the pulse bandwidth 1 / pulse_duration to address each arm's resonance
    x_flip = 0.5 * abs(_relative_segments(params, seq)[1][2])
    h = 2.0 * math.pi * HBAR
    splitting = 2.0 * (params.g_nv * MU_BOHR / h) * abs(params.b_gradient) * x_flip
    bandwidth = 1.0 / params.pulse_duration
    if bandwidth == math.inf:
        raise ValueError(f"pulse_duration = {params.pulse_duration!r} s makes the pulse bandwidth "
                         "1 / pulse_duration overflow")
    ratio = splitting / bandwidth
    if not math.isfinite(ratio):
        raise ValueError(f"pulse_duration, g_nv and b_gradient make the resolvability ratio {ratio!r}, "
                         f"got pulse_duration={params.pulse_duration!r}, g_nv={params.g_nv!r}, "
                         f"b_gradient={params.b_gradient!r}")
    separation = max_separation(params, seq)
    arm = 0.5 * separation
    spread = wavepacket_width(params, t3) / params.sigma0()
    final = evolve_sequence(params, seq, initial_state())
    ov = branch_overlap(params, final)
    vis = abs(ov)
    if seq.is_balanced():
        phi = gravitational_phase(params, seq)
    else:
        phi = -math.atan2(ov.imag, ov.real)

    quotes = PROPOSAL_QUOTES
    notes = [f"{label}: computed {value:.3e} {unit} vs quoted {quotes[key]:.3e} {unit}{suffix}"
             for label, key, value, unit, suffix in (
                 ("peak separation", "peak_separation_m", separation, "m",
                  f" (single-arm displacement {arm:.3e} m)"),
                 ("doppler linewidth", "doppler_linewidth_hz", doppler, "Hz", ""),
                 ("thermal rms velocity", "thermal_velocity_m_s", v_rms, "m/s", ""),
                 ("zeeman splitting", "zeeman_splitting_hz", splitting, "Hz", ""),
             ) if _discrepant(value, quotes[key])]
    # bound comparison on the order of magnitude only (the quote is an order)
    if abs(math.log10(bound) - math.log10(quotes["csl_bound_per_s"])) > 0.5:
        notes.append(
            f"collapse bound: computed {bound:.3e} 1/s vs quoted order "
            f"{quotes['csl_bound_per_s']:.0e} 1/s"
        )
    if quotes["csl_rate_enhanced_per_s"] > bound:
        notes.append(
            f"enhanced collapse rate {quotes['csl_rate_enhanced_per_s']:.0e} 1/s exceeds the "
            f"bound by {quotes['csl_rate_enhanced_per_s'] / bound:.1e}: a high-visibility run "
            "would already rule it out"
        )
    if quotes["csl_rate_original_per_s"] < bound:
        notes.append(
            f"original collapse rate {quotes['csl_rate_original_per_s']:.0e} 1/s sits below the "
            "bound; reaching it needs a correspondingly longer coherence time"
        )
    notes.extend(QUOTED_ONLY_NOTES)

    return BudgetReport(
        csl_bound_per_s=bound,
        csl_bound_mass_derived_per_s=bound_mass,
        n_nucleons=params.n_nucleons,
        doppler_linewidth_hz=doppler,
        thermal_velocity_m_s=v_rms,
        zeeman_splitting_hz=splitting,
        pulse_bandwidth_hz=bandwidth,
        resolvability_ratio=ratio,
        peak_separation_m=separation,
        arm_displacement_m=arm,
        spread_ratio=spread,
        phi_g_rad=phi,
        ramsey_p0=ramsey_probability(phi),
        visibility_closure=vis,
        resolvability_pass=ratio >= RESOLVABILITY_MARGIN,
        closure_pass=vis >= 1.0 - 1e-9,
        notes=tuple(notes),
    )
