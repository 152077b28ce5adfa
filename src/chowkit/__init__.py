"""chowkit: exact Chow-ring computations for the boundary of the universal
family of degenerating principally polarized abelian varieties.

The package models the divisor-generated subring of the boundary as an exact
quotient ring over the rationals, machine-verifies the expansion of the
zero-section class in invariant divisor classes, and expands
double-ramification classes over formal boundary symbols on moduli of
pointed curves.
"""

from . import arith, dr, parsing, poly, ring, zero_section
from .arith import *
from .dr import *
from .parsing import *
from .poly import *
from .ring import *
from .zero_section import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (arith, dr, parsing, poly, ring, zero_section) for name in module.__all__})
