"""Heavy-tailed stochastic volatility: simulation, estimation, theory.

The package simulates four SV model families whose returns X_t =
sigma_t Z_t have power-law tails, estimates tail and cluster quantities
from paths (Hill index, extremal index, extremogram), and evaluates the
matching theoretical extremal indices for stochastic-recurrence and
moving-average volatility, so theory and simulation can be checked
against each other.
"""

__version__ = "0.1.0"

# the public names are the modules' __all__ lists
from . import distributions, estimators, experiments, models, rng, theory
from .distributions import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .theory import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__all__ = ["__version__", *distributions.__all__, *rng.__all__,
           *models.__all__, *estimators.__all__, *theory.__all__,
           *experiments.__all__]
