"""Idle-timeout tuning for pooled directory connections.

The package answers one operational question: how large must a directory
server's idle timeout be so that a proxy's pooled connections are dropped
mid-use with at most a chosen probability.  It offers the closed-form
model and its inverse, a recursive estimator that tracks the model's
parameters from access-log traffic, simulators that check both against
sampled behavior, and a command line tying them together.

The simulators need numpy, so their names are loaded on first use: a
bare ``import idletune`` does not import numpy.
"""

import importlib

from .errors import *
from .model import *
from .ingest import *
from .estimator import *
from .sinks import *

__version__ = "0.1.0"

# simulate.__all__, which cannot be read here without importing numpy
_SIMULATE_NAMES = frozenset(
    ["SimResult", "SystemConfig", "SystemReport", "generate_event_log", "simulate_failure_prob",
     "simulate_system"]
)


def __getattr__(name):
    if name == "simulate" or name in _SIMULATE_NAMES:
        # import_module, not ``from . import``: that would look the name up
        # on this package again, and so call this function again
        simulate = importlib.import_module(".simulate", __name__)
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = (
    errors.__all__ + model.__all__ + ingest.__all__ + estimator.__all__ + sorted(_SIMULATE_NAMES)
    + sinks.__all__ + ["__version__"]
)
