"""log Gamma without scipy: math.lgamma for scalars, a log-factorial table
for integer arrays, both against mpmath."""

import mpmath
import numpy as np
import pytest

from gaussherm.special import gammaln

#: scipy.special.gammaln's own worst absolute error against mpmath on these
#: arguments (two ulps at log Gamma(20001) ~ 1.8e5).
SCIPY_ABS_ERR = 6e-11


def _loggamma(xs):
    with mpmath.workdps(30):
        return np.array([float(mpmath.loggamma(mpmath.mpf(float(x)))) for x in xs])


def test_gammaln_integer_table_against_mpmath():
    ks = np.arange(1, 20_002)
    ref = _loggamma(ks)
    err = np.abs(gammaln(ks) - ref)
    assert err.max() <= SCIPY_ABS_ERR
    assert np.all(err <= 4e-16 * np.maximum(1.0, np.abs(ref)))  # a few ulps
    # the same table answers integer-valued floats and any array shape
    assert np.array_equal(gammaln(ks.astype(float).reshape(-1, 1)), gammaln(ks).reshape(-1, 1))


def test_gammaln_quarter_integers_against_mpmath():
    xs = np.concatenate([np.arange(1, 4001), np.arange(4001, 80_005, 7)]) / 4.0
    got = np.array([gammaln(float(x)) for x in xs])
    assert np.abs(got - _loggamma(xs)).max() <= SCIPY_ABS_ERR


def test_gammaln_exact_zeros_and_scalar_type():
    assert gammaln(1) == 0.0 and gammaln(2) == 0.0
    assert gammaln(1.0) == 0.0 and gammaln(2.0) == 0.0
    assert np.all(gammaln(np.array([1, 2])) == 0.0)
    assert isinstance(gammaln(np.float64(3.5)), float)
    assert gammaln(np.array([], dtype=float)).shape == (0,)


@pytest.mark.parametrize("bad", [[1.5], [2.0, 0.25], [0], [-3.0], [np.nan], [np.inf]])
def test_gammaln_refuses_non_integer_arrays(bad):
    with pytest.raises(ValueError):
        gammaln(np.array(bad))
