"""Heavy-tailed stochastic volatility: simulation, estimation, theory.

The package simulates four SV model families whose returns X_t =
sigma_t Z_t have power-law tails, estimates tail and cluster quantities
from paths (Hill index, extremal index, extremogram), and evaluates the
matching theoretical extremal indices for stochastic-recurrence and
moving-average volatility, so theory and simulation can be checked
against each other.

The public names are the __all__ lists of the modules in _MODULES, in
that order. Importing the package loads none of them: a public name
loads the modules in that order up to the one whose __all__ holds it,
on first use (PEP 562), so a process loads only the code it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("distributions", "rng", "models", "estimators", "theory",
            "experiments")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        value = ["__version__", *(n for m in _MODULES
                                  for n in __getattr__(m).__all__)]
    else:
        # a leading underscore marks no public name: __version__ is set
        # above, and a probe such as __wrapped__ loads nothing
        holder = None if name.startswith("_") else next(
            (m for m in map(__getattr__, _MODULES) if name in m.__all__),
            None)
        if holder is None:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
        value = getattr(holder, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
