"""Numeric settings of the linear-Gaussian path, and ``np``, its numpy handle.

Finite-domain computations are exact (rationals) and never consult this.
``np`` imports numpy on its first attribute access, so finite-model and graph
work never loads it; modules use it in place of ``import numpy as np``.
"""

import os

DEFAULT_TOLERANCE = 1e-9

#: Condition-number threshold above which Gaussian conditioning regularizes
#: the observed block instead of inverting it directly.
REGULARIZATION_CONDITION = 1e12


class _Numpy:
    """Stands in for the numpy module.  The first access to a name imports
    numpy and stores the attribute in the instance dict, so every later
    access is a plain attribute lookup."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        self.__dict__[name] = value
        return value


np = _Numpy()


def tolerance(tol=None):
    """Resolve the zero-test tolerance: explicit argument, then the
    SCMKIT_TOLERANCE environment variable, then the library default."""
    if tol is not None:
        return float(tol)
    env = os.environ.get("SCMKIT_TOLERANCE")
    if env:
        return float(env)
    return DEFAULT_TOLERANCE
