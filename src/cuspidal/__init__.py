"""Discriminant geometry of deformed degree-4 covers and the 3-cuspidal quartic."""

import math
from fractions import Fraction

__version__ = "0.1.0"

# The braid monodromy defaults live here, not in ``monodromy``, so that the
# CLI's parser can show them without running the braid layers.
DEFAULT_SHEAR = Fraction(1, 100)


def default_basepoint():
    """x0 = 3/4 (sqrt 3 - 3), between the tangency and the origin cusp."""
    return 0.75 * (math.sqrt(3) - 3)
