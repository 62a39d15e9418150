import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from biasbound._special import _CENTRAL, _FAR, _NEAR, ndtri, wrightomega, xlogx

# Largest error, in units in the last place of the 40-digit value, that both
# these functions and scipy.special's meet on the grids below: there ndtri
# reaches 3.3 (scipy 2.4) and omega 27 (scipy too, near z = -33, where the
# residual z - w - ln w cancels to the rounding of ln w).
NDTRI_ULP = 5.0
OMEGA_ULP = 32.0
SCIPY_ULP = 8.0  # these functions against scipy.special's


def below(x):
    return float(np.nextafter(x, -math.inf))


def above(x):
    return float(np.nextafter(x, math.inf))


def ulps(got, exact):
    """|got - exact| in units in the last place of exact rounded to a double."""
    return float(abs(mpmath.mpf(got) - exact)) / math.ulp(float(exact))


def ndtri_mp(u):
    """-sqrt(2) erfinv(1 - 2u), with 40 digits left after the cancellation."""
    digits = 40 + int(-math.log10(min(u, 1.0 - u)))
    with mpmath.workdps(digits):
        return -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(u))


def omega_mp(z):
    with mpmath.workdps(40):
        return mpmath.lambertw(mpmath.exp(mpmath.mpf(z))).real


# the tails, both sides of each AS241 branch edge (|u - 1/2| = 0.425 and
# sqrt(-ln u) = 5) and of 1/2, then a uniform and a log-uniform sample
_EDGES = [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0), 0.5]
U_GRID = sorted({2.0 ** -53, 1.0 - 2.0 ** -53}
                | {10.0 ** -k for k in range(1, 16)}
                | {1.0 - 10.0 ** -k for k in range(1, 16)}
                | {f(e) for e in _EDGES for f in (below, float, above)}
                | set(np.random.default_rng(0).random(300).tolist())
                | set(np.exp(-np.random.default_rng(1).uniform(0.0, 36.0, 300)).tolist()))

# both sides of -50, -2, 1 and 1e20, from -745 to 1e300
_CUTS = [-50.0, -2.0, 1.0, 1e20]
Z_GRID = sorted({-745.0, -700.0, -300.0, -100.0, 0.0, 1e25, 1e100, 1e300}
                | {f(c) for c in _CUTS for f in (below, float, above)}
                | set(np.random.default_rng(2).uniform(-60.0, 60.0, 400).tolist())
                | set((10.0 ** np.random.default_rng(3).uniform(1.0, 21.0, 100)).tolist()))


@pytest.mark.parametrize("fn,oracle,grid,bound", [
    (ndtri, ndtri_mp, U_GRID, NDTRI_ULP),
    (wrightomega, omega_mp, Z_GRID, OMEGA_ULP),
], ids=["ndtri", "wrightomega"])
def test_mpmath_oracle_within_ulp_bound_scipy_also_meets(fn, oracle, grid, bound):
    theirs = getattr(special, fn.__name__)
    got = fn(np.array(grid))
    ref = theirs(np.array(grid))
    worst = worst_scipy = 0.0
    for x, g, r in zip(grid, got, ref):
        exact = oracle(x)
        worst = max(worst, ulps(g, exact))
        worst_scipy = max(worst_scipy, ulps(r, exact))
        assert ulps(g, mpmath.mpf(float(r))) <= SCIPY_ULP, x
    assert worst <= bound
    assert worst_scipy <= bound


def test_scalar_and_array_agree_elementwise():
    z = np.array(Z_GRID).reshape(2, -1)
    assert wrightomega(z).shape == z.shape
    assert np.array_equal(wrightomega(z)[1], [wrightomega(v) for v in z[1]])
    u = np.array(U_GRID[:64]).reshape(8, 8)
    assert np.array_equal(ndtri(u).ravel(), [ndtri(v) for v in u.ravel()])
    assert isinstance(ndtri(0.3), np.float64) and isinstance(wrightomega(3.0), np.float64)


def test_edges_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
        assert ndtri(0.5) == 0.0
        assert np.all(np.isnan(ndtri([math.nan, -0.5, 1.5, -math.inf, math.inf])))
        assert np.array_equal(ndtri([0.0, 0.5, 1.0]), [-math.inf, 0.0, math.inf])
        assert wrightomega(-math.inf) == 0.0
        assert wrightomega(math.inf) == math.inf
        assert math.isnan(wrightomega(math.nan))
        assert wrightomega(-800.0) == 0.0 and wrightomega(-745.0) == 5e-324
        assert wrightomega(1e300) == 1e300
        assert wrightomega(1.0) == 1.0  # omega(1) = 1: 1 + ln 1 = 1
        got = wrightomega([-math.inf, math.nan, math.inf, 0.0])
        assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == math.inf
        assert xlogx(0.0) == 0.0 and xlogx(1.0) == 0.0 and xlogx(math.inf) == math.inf
        assert math.isnan(xlogx(math.nan))


def test_xlogx_is_x_times_log_x():
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1.0, 1e300],
                        np.random.default_rng(4).random(1000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = xlogx(x)
    ref = special.xlogy(x, x)
    assert got[0] == 0.0
    # numpy's and the C library's log may round apart by an ulp
    assert np.allclose(got, ref, rtol=4e-16, atol=0.0)


def ndtri_by_branch(p):
    """AS241 with each branch evaluated on its own values only, by boolean
    masks: the straightforward form ``ndtri`` must reproduce bit for bit."""
    def _ratio(coeffs, r):
        (n0, n1, *num), (d0, d1, *den) = coeffs
        a, b = n0 * r + n1, d0 * r + d1
        for cn, cd in zip(num, den):
            a, b = a * r + cn, b * r + cd
        return a / b

    p = np.asarray(p, dtype=float)
    q = p - 0.5
    x = np.full_like(q, np.nan)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _ratio(_CENTRAL, 0.180625 - qc * qc)
    tail = ~central & (p > 0.0) & (p < 1.0)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)[tail]))
    near = r <= 5.0
    r[near] = _ratio(_NEAR, r[near] - 1.6)
    r[~near] = _ratio(_FAR, r[~near] - 5.0)
    x[tail] = np.copysign(r, q[tail])
    x[p == 0.0] = -np.inf
    x[p == 1.0] = np.inf
    return x[()]


def test_ndtri_matches_branch_by_branch_evaluation_bit_for_bit():
    # the grids, both sides of every branch edge, the domain edges and values
    # outside it, then 10**6 seeded uniforms and their far tails
    edges = [f(e) for e in _EDGES + [0.0, 1.0, 2.0 ** -1074] for f in (below, float, above)]
    uniforms = np.random.default_rng(5).random(10 ** 6)
    for u in (np.array(U_GRID), np.array(edges + [math.nan, math.inf, -math.inf, 1e300]),
              uniforms, 1.0 - uniforms, uniforms * 1e-12,
              np.exp(-np.linspace(0.0, 745.0, 10_001))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ndtri(u)
        want = ndtri_by_branch(u)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    for v in edges:
        assert repr(ndtri(v)) == repr(ndtri_by_branch(v))
