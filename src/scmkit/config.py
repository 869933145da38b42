"""Numeric settings of the linear-Gaussian path, its one zero rule, and
``np``, its numpy handle.

Finite-domain computations are exact (rationals) and never consult this.
``np`` imports numpy on its first attribute access, so finite-model and graph
work never loads it; modules use it in place of ``import numpy as np``.

The one zero rule of the linear path: the tolerance bounds only
dimensionless numbers, so no verdict depends on the units of a variable or
a noise.  (i) ``I - B_OO`` is singular iff a strongly connected component of
``B_OO`` has an eigenvalue within the tolerance of 1, or within the rounding
error of a multiple eigenvalue (``unit_eigenvectors``); for one variable
this is the self-loop test.  (ii) A computed value is zero iff it is at most
the tolerance times its uncancelled magnitude, the same expression evaluated
on absolute values (``negligible``, ``snap``), and two are equal iff their
difference is; a covariance is judged, and factored, in correlation units
(``covariance_root``), and Gaussian conditioning and CI project the
normalized rows of that noise factor (``analysis._project``).  The left null
vectors of ``I - B_OO`` are computed in the Perron-balanced coordinates of
each component (``perron_balance``), where an entry is also zero when it is
at most the tolerance times the vector's largest entry on its component.
(iii) A coefficient, gain or variance of a model is zero only when it is
exactly 0.
"""

import os

DEFAULT_TOLERANCE = 1e-9


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


def tolerance():
    """The zero-test tolerance: the SCMKIT_TOLERANCE environment variable,
    else the library default."""
    env = os.environ.get("SCMKIT_TOLERANCE")
    if env:
        return float(env)
    return DEFAULT_TOLERANCE


def negligible(value, magnitude):
    """Rule (ii), elementwise: is ``value`` at most the tolerance times its ``magnitude``?"""
    return np.abs(value) <= tolerance() * np.asarray(magnitude)


def snap(value, magnitude):
    """``value`` with every entry that rule (ii) calls zero set to exactly 0."""
    return np.where(negligible(value, magnitude), 0.0, value)


def unit_eigenvectors(b):
    """Rule (i): the eigenvectors, as columns, of the square matrix ``b`` whose
    eigenvalue is within the tolerance of 1.  Rounding moves a k-fold one by
    about rho (n eps)^(1/k), rho the Perron root of ``|b|`` (unit-free), so the
    k eigenvalues nearest 1 all count when each lies within that bound."""
    tol, near = tolerance(), len(b) * np.finfo(float).eps
    if len(b) == 1:  # the self-loop test
        return np.ones((1, int(abs(b[0, 0] - 1) <= max(tol, abs(b[0, 0]) * near))))
    w, v = np.linalg.eig(b)
    gap, rho = np.abs(w - 1.0), max(np.abs(np.linalg.eigvals(np.abs(b))))
    ranked = np.sort(gap)
    k = max([i + 1 for i, g in enumerate(ranked) if g <= max(tol, rho * near ** (1 / (i + 1)))], default=0)
    return v[:, gap <= ranked[k - 1]] if k else v[:, :0]


def perron_balance(b):
    """The positive diagonal p for which diag(p) |b| diag(p)^-1 has equal left
    and right Perron vectors, p = sqrt(u / v) for the left and right Perron
    vectors u and v of ``|b|``, irreducible (a strongly connected component).
    It undoes a change of units: for D b D^-1 it is p D^-1, so P b P^-1 is
    the same in any units, P = diag(p)."""
    if len(b) == 1:
        return np.ones(1)

    def perron(a):
        w, v = np.linalg.eig(a)
        return np.abs(v[:, np.argmax(w.real)].real)

    return np.sqrt(perron(np.abs(b).T) / perron(np.abs(b)))


def covariance_root(cov, scale=None):
    """``(root, problem)``: ``root @ root.T == cov`` up to rounding, and ``None``
    for a symmetric positive semi-definite covariance, else what is wrong with
    it (and no root), judged in correlation units: entry ``(i, j)`` over
    ``sqrt(scale[i] * scale[j])``, ``scale`` the uncancelled variances.  The
    root is ``diag(sqrt(scale)) V sqrt(w)`` from one ``eigh`` of the
    correlations, an eigenvalue zero by rule (ii) against the largest."""
    cov = np.asarray(cov, dtype=float)
    sd = np.sqrt(np.maximum(np.diag(cov) if scale is None else scale, 0.0))
    unit = np.outer(sd, sd)
    if not negligible(cov - cov.T, unit).all():
        return None, "not symmetric"
    corr = cov / np.where(unit > 0, unit, 1.0)
    w, v = np.linalg.eigh((corr + corr.T) / 2)
    if ((unit == 0) & (cov != 0)).any() or w.min(initial=0.0) < -tolerance():
        return None, "not positive semi-definite"
    return sd[:, None] * v * np.sqrt(snap(np.maximum(w, 0.0), w.max(initial=0.0))), None
