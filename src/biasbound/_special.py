"""The special functions the package needs, in numpy.

* ``ndtri``: the standard normal quantile, by Wichura's rational
  approximations (Algorithm AS241, Applied Statistics 37, 1988), the same
  coefficients as the standard library's ``statistics.NormalDist``.
* ``wrightomega``: the Wright omega function on the reals, omega + ln omega
  = z, by the real branch of Lawrence, Corless & Jeffrey, Algorithm 917
  (ACM TOMS 38, 2012): an initial guess on (-inf, -2), [-2, 1) or
  [1, inf), then one or two Fritsch-Shafer-Crowley steps.
* ``xlogx``: x ln x with 0 at x = 0.

Each maps an array elementwise (a 0-d input gives a numpy scalar) and raises
no floating-point warning on its domain, the infinities and NaN included.
Against 40-digit mpmath, ``ndtri`` is within 4.1 ulp on [2^-53, 1 - 2^-53]
(scipy.special's: 3.1) and ``wrightomega`` within 29 ulp from -745 to 1e300
(scipy's: the same), over a few thousand points each; the largest omega
errors sit near z = -33, where its residual cancels to the rounding of ln w.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ndtri", "wrightomega", "xlogx"]

_EPS72 = 72.0 * np.finfo(float).eps

# AS241 numerator and denominator coefficients, highest degree first: the
# central branch |p - 1/2| <= 0.425 in r = 0.180625 - q^2, then the tails in
# r = sqrt(-ln min(p, 1 - p)) - 1.6 (r <= 5 before the shift) and r - 5.
_CENTRAL = ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
             4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
             1.3314166789178437745e+2, 3.3871328727963666080e+0),
            (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
             2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
             4.2313330701600911252e+1, 1.0))
_NEAR = ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
          1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
          4.6303378461565452959e+0, 1.4234371107496835773e+0),
         (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
          1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
          2.0531916266377588219e+0, 1.0))
_FAR = ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
         2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
         5.4637849111641143699e+0, 6.6579046435011037772e+0),
        (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
         7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
         5.9983220655588793769e-1, 1.0))


def _ratio(coeffs, r):
    """num(r) / den(r), each by Horner's rule, in place on two new arrays."""
    num, den = coeffs
    a = r * num[0]
    a += num[1]
    b = r * den[0]
    b += den[1]
    for cn, cd in zip(num[2:], den[2:]):
        a *= r
        a += cn
        b *= r
        b += cd
    a /= b
    return a


def ndtri(p):
    """x with Phi(x) = p, the standard normal quantile.

    ndtri(0) = -inf and ndtri(1) = +inf; p outside [0, 1], and NaN, give NaN.
    Each branch of AS241 is evaluated on its own values only: the central and
    the tail values are gathered by one index each, the tail's steps run in
    place, and both are written into one output array.
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape
    p = p.reshape(-1)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    x = np.empty_like(q)
    c = np.flatnonzero(central)
    qc = q[c]
    y = _ratio(_CENTRAL, 0.180625 - qc * qc)
    y *= qc
    x[c] = y
    tail = np.flatnonzero(~central)  # NaN and the infinities too
    pt = p[tail]
    with np.errstate(all="ignore"):  # p <= 0 and p >= 1 are mapped below
        r = np.subtract(1.0, pt)  # exact for p in (0.925, 1]
        np.minimum(pt, r, out=r)
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            y_far = _ratio(_FAR, r[far] - 5.0)
        edge = np.flatnonzero(~(r < np.inf))  # min(p, 1 - p) <= 0, or NaN
        r -= 1.6
        y = _ratio(_NEAR, r)
    if far.size:
        y[far] = y_far
    np.negative(y, out=y, where=pt < 0.5)  # y > 0 on (0, 1)
    if edge.size:
        pe = pt[edge]
        y[edge] = np.where(pe == 0.0, -np.inf, np.where(pe == 1.0, np.inf, np.nan))
    x[tail] = y
    return x.reshape(shape)[()]


def _fsc(z, w):
    """One Fritsch-Shafer-Crowley step for w + ln w = z (fourth order), with
    the residual r of w and w + 1."""
    r = z - w - np.log(w)
    wp1 = w + 1.0
    t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + r / wp1 * (t - r) / (t - 2.0 * r)), r, wp1


def wrightomega(z):
    """omega(z), the real solution of omega + ln(omega) = z.

    omega(-inf) = 0, omega(+inf) = +inf and omega(NaN) = NaN.  Below -50 it
    is exp(z) and above 1e20 it is z, both exact to double precision.  As in
    Algorithm 917, the second step is taken only where the first one's error
    bound, |2w^2 - 8w - 1| r^4 / (72 (w + 1)^6), is not below eps: where
    omega is small the residual cancels, and a needless step adds its rounding.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):  # every branch is computed; edges are mapped below
        lz = np.log(np.maximum(z, 1.0))
        w = np.where(z >= 1.0, z - lz + lz / z,  # two terms of the series at infinity
                     np.exp(np.where(z < -2.0, z, 2.0 / 3.0 * (z - 1.0))))
        w, r, wp1 = _fsc(z, w)
        r2, s2 = r * r, wp1 * wp1
        again = np.abs((2.0 * w * w - 8.0 * w - 1.0) * r2 * r2) >= _EPS72 * s2 * s2 * s2
        w = np.where(again, _fsc(z, w)[0], w)
        w = np.where(z > 1e20, z, w)
        return np.where(z < -50.0, np.exp(z), w)[()]


def xlogx(x):
    """x ln x, with 0 at x = 0 (as scipy's xlogy(x, x))."""
    x = np.asarray(x, dtype=float)
    return (x * np.log(np.where(x == 0.0, 1.0, x)))[()]
