"""Physical constants (SI, CODATA 2018) shared by every module.

All quantities in this package are SI unless a function explicitly says
otherwise; the split-operator oracle is the only place that works in scaled
natural units.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicalConstants:
    """Immutable bundle of the constants entering the protocol formulas.

    ``g_earth`` is a constant of the laboratory, not of nature; it is kept
    here so that desk-scale test configurations can dial the effective
    gravitational acceleration without touching any formula.
    """

    hbar: float = 1.054571817e-34          # reduced Planck constant (J s)
    k_boltzmann: float = 1.380649e-23      # Boltzmann constant (J/K)
    mu_bohr: float = 9.2740100783e-24      # Bohr magneton (J/T)
    light_speed: float = 299792458.0       # speed of light (m/s)
    g_earth: float = 9.80665               # standard gravity (m/s^2)
    amu: float = 1.66053906660e-27         # atomic mass unit (kg)

    def __post_init__(self):
        for name in ("hbar", "k_boltzmann", "mu_bohr", "light_speed", "g_earth", "amu"):
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"physical constant {name!r} must be strictly positive")


#: Default constant set used everywhere unless a caller injects its own.
CODATA = PhysicalConstants()

#: Electron-like Lande factor of the NV ground-state spin. The commonly used
#: 28 GHz/T per unit spin projection corresponds to g_nv * mu_bohr / h.
DEFAULT_G_NV = 2.0028
