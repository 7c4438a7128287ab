"""Free-flight spin-force Ramsey interferometry of a released nano-object.

Closed-form spin-conditioned wavepacket dynamics, a split-operator grid
oracle that certifies every analytic formula, a momentum-kick decoherence
model, collective (multi-NV) sector dynamics, and feasibility budgets, all
behind a deterministic CLI.
"""

__version__ = "0.1.0"
