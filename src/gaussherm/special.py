"""log Gamma for the package's factorial algebra, on the standard library.

Scalars go to :func:`math.lgamma`.  Arrays arise only as factorial indices
(Taylor maps, Gaussian coefficients, Bargmann images of phi_k), so they are
looked up in a table of ``math.lgamma`` values rather than evaluated element
by element.
"""

from __future__ import annotations

import math

import numpy as np

#: log Gamma(k) for k = 1..size; index k-1.  Grown by replacement, never
#: written in place, so a caller holding the old table still reads
#: correct values.
_LOG_GAMMA_TABLE = np.zeros(1)


def _log_gamma_table(kmax: int) -> np.ndarray:
    global _LOG_GAMMA_TABLE
    if kmax > _LOG_GAMMA_TABLE.size:
        size = max(kmax, 2 * _LOG_GAMMA_TABLE.size)
        table = np.array([math.lgamma(k) for k in range(1, size + 1)])
        table.flags.writeable = False
        _LOG_GAMMA_TABLE = table
    return _LOG_GAMMA_TABLE


def gammaln(x):
    """log|Gamma(x)|.

    A scalar (or 0-d array) is evaluated by :func:`math.lgamma` and returns a
    Python float.  An array must hold positive integers (as ints or
    integer-valued floats); its values are read from a table of
    ``math.lgamma(k)`` built up to the largest entry.  Other arrays are
    refused with ``ValueError``.
    """
    if np.ndim(x) == 0:
        return math.lgamma(x)
    x = np.asarray(x)
    with np.errstate(invalid="ignore"):
        k = x.astype(np.intp)
    if k.min(initial=1) < 1 or (k != x).any():
        raise ValueError("gammaln of an array needs positive integer entries")
    return _log_gamma_table(int(k.max(initial=1)))[k - 1]
