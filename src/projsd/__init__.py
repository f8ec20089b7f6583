"""Projected steepest descent in p-convex / q-smooth sequence spaces.

A small numerical library for nonlinear inverse problems posed in
weighted l^r spaces: duality mappings and Bregman distances, Bregman
projections onto convex sets, synthetic forward models with analytically
known constants, the single-level projected steepest descent iteration
with its posterior step size, and a multi-level driver over nested sets.
"""

from . import errors, geometry, models, multilevel, sets, solver
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .geometry import DEFAULT_CONSTANTS
from .models import *  # noqa: F401,F403
from .multilevel import *  # noqa: F401,F403
from .sets import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "1.0.0"

# Each module's __all__ is the one list of its public names.
__all__ = (errors.__all__ + geometry.__all__ + ["DEFAULT_CONSTANTS"]
           + sets.__all__ + models.__all__ + solver.__all__
           + multilevel.__all__)
