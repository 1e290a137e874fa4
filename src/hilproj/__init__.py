"""Metric projections onto closed convex sets in real Hilbert spaces.

Closed-form projections, their one-sided directional derivatives, exact
inverse-image geometry, discretized Bochner-space constructions, and
independent numerical oracles for verifying all of it.

Each module lists the public names it defines in its own ``__all__``;
the package exports their union.
"""

from . import bochner, core, derivatives, errors, fourier, oracle, sets
from .bochner import *
from .core import *
from .derivatives import *
from .errors import *
from .fourier import *
from .oracle import *
from .sets import *

__version__ = "0.1.0"

__all__ = [*bochner.__all__, *core.__all__, *derivatives.__all__, *errors.__all__,
           *fourier.__all__, *oracle.__all__, *sets.__all__]
