"""The visibility threshold shared by the decay model and its fit."""

import math

# A visibility above 1/sqrt(2) lets the CHSH S exceed the classical bound 2.
CHSH_VISIBILITY = 1.0 / math.sqrt(2.0)
