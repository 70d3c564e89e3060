"""Dynamic distance-based pricing simulator for managed freeway lanes.

Models a corridor as two coupled trip-flow bathtubs (managed and
general-purpose lanes), prices the managed lanes with a feedback toll built
from integral controllers on the excess density and residual service rate,
and ships the analysis tools to check the closed loop's equilibrium and
stability predictions numerically.

The package exports every name in each module's ``__all__``; ``cli`` is the
command line and exports none.
"""

from .analysis import *  # noqa: F403  each module's __all__ is its public API
from .bathtub import *  # noqa: F403
from .controller import *  # noqa: F403
from .estimation import *  # noqa: F403
from .lane_choice import *  # noqa: F403
from .nfd import *  # noqa: F403
from .presets import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.1.0"
