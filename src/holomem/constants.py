"""Physical constants used by the geometry and line-shape modules (SI), and
the visibility threshold shared by the decay model and its fit."""

import math

BOLTZMANN_J_PER_K = 1.380649e-23
RB87_MASS_KG = 1.44316060e-25

# Natural linewidth of the Rb-87 D1 line (FWHM), rad/s.
GAMMA_D1_RAD_PER_S = 2.0 * 3.141592653589793 * 5.75e6

# A visibility above 1/sqrt(2) lets the CHSH S exceed the classical bound 2.
CHSH_VISIBILITY = 1.0 / math.sqrt(2.0)
