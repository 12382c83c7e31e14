"""Three-field glioblastoma growth simulator.

Deterministic reaction-diffusion engine for the coupled tumor / necrosis /
vasculature system, with ring-quotient and surface-quotient morphometrics
and a one-parameter sweep harness.

The public names are those in each module's ``__all__``, republished here;
``cli`` stays out of them.
"""

from .errors import *
from .kinetics import *
from .mesh import *
from .metrics import *
from .solver import *
from .experiments import *
from .config import *
from .output import *

__version__ = "0.1.0"
