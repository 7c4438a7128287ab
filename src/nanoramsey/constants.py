"""Physical constants (SI, CODATA 2018) shared by every module.

All quantities in this package are SI unless a function explicitly says
otherwise; the split-operator oracle is the only place that works in scaled
natural units. Gravity belongs to the laboratory, not to nature: its value
is the ``g_earth`` field of :class:`~nanoramsey.params.ExperimentParams`,
which defaults to ``STANDARD_GRAVITY``. The defaults of its other fields
that describe the object (``g_nv``, ``response_im``, ``response_mod_sq``)
live here too.
"""
from __future__ import annotations

HBAR = 1.054571817e-34          # reduced Planck constant (J s)
K_BOLTZMANN = 1.380649e-23      # Boltzmann constant (J/K)
MU_BOHR = 9.2740100783e-24      # Bohr magneton (J/T)
LIGHT_SPEED = 299792458.0       # speed of light (m/s)
AMU = 1.66053906660e-27         # atomic mass unit (kg)
STANDARD_GRAVITY = 9.80665      # standard gravity (m/s^2)

#: Electron-like Lande factor of the NV ground-state spin. The commonly used
#: 28 GHz/T per unit spin projection corresponds to g_nv * mu_bohr / h.
DEFAULT_G_NV = 2.0028

#: Placeholder Im[(eps-1)/(eps+2)] of the absorption and emission channels
#: (the ``response_im`` default).
DEFAULT_RESPONSE_IM = 1.0e-3
#: Placeholder |(eps-1)/(eps+2)|^2 of the scattering channel (the ``response_mod_sq``
#: default), at the static relative permittivity eps = 5.7.
DEFAULT_RESPONSE_MOD_SQ = ((5.7 - 1.0) / (5.7 + 2.0)) ** 2
