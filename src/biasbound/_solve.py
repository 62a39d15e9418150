"""The three 1-D searches behind every numeric solve in the package.

``minimize`` (golden section on a quasiconvex function) and ``threshold``
(bisection on a monotone test) need only function values; ``increasing_root``
(safeguarded Newton) also needs the derivative of a convex increasing
function.  All three are scale-free: brackets grow and shrink by factors and
the stopping rules are relative, so a problem rescaled by 10**k is solved as
accurately.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = 32            # points in one log-grid scan
_SPAN = 1e-18         # lowest / highest point of one scan
_FLOOR = 1e-300       # scans stop widening left below this
_TOP = 2.0 ** 1000    # doubling past this: no minimum in range
_RTOL = 1e-15         # golden section stops at this width relative to the bracket
_MAX = math.nextafter(math.inf, 0.0)  # the largest float

# Newton stops once its step is below this fraction of lam: well above the
# few ulps a converged step rounds to, and well below the half distance to a
# pole that a step near one covers (cgf's mixture iterates stay 1e-12 away
# from theirs).
_NEWTON_RTOL = 1e-14
_NEWTON_STEPS = 100  # a cap only: a solve takes about 5


class NumericDivergence(ArithmeticError):
    """Raised when a norm or bound diverges over the whole search range."""


def minimize(f: Callable[[float], float], hi: float) -> float:
    """Minimum value of a quasiconvex f on (0, hi] (hi may be math.inf).

    An infinite hi is replaced by 2h, where h is the first of 1, 2, 4, ... at
    which f stops decreasing in floats; if f still decreases past 2**1000,
    NumericDivergence is raised (no minimum in range: f may be unbounded
    below, or its infimum may only be approached at infinity).  A log grid
    over [hi * 1e-18, hi] then brackets the minimiser, rescanning 18 decades
    further left (down to 1e-300) while the minimum sits on the left edge or
    is +inf, and golden section refines the bracket.  Returns the smallest
    value f took at any probe, so a minimum attained exactly at hi is not
    rounded inward.
    """
    if math.isinf(hi):
        hi, f_hi = 1.0, f(1.0)
        while (f_next := f(2.0 * hi)) < f_hi:
            hi, f_hi = 2.0 * hi, f_next
            if hi > _TOP:
                raise NumericDivergence("f still decreases past 2**1000")
        hi *= 2.0
    while True:
        grid = np.geomspace(hi * _SPAN, hi, _GRID)
        vals = [f(float(t)) for t in grid]
        i = _GRID - 1 - int(np.argmin(vals[::-1]))  # last minimum: ties do not widen
        if (i > 0 and vals[i] < math.inf) or grid[0] < _FLOOR:
            break
        hi = float(grid[1])
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, _GRID - 1)])
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best = min(vals[i], fc, fd)
    # 4 ulps < _RTOL * b for a normal b; the ulp test only ends a subnormal
    # bracket, where _RTOL * b is below the float spacing
    while b - a > _RTOL * b and b - a > 4.0 * math.ulp(b):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        best = min(best, fc, fd)
    return best


def threshold(pred: Callable[[float], bool], x: float) -> float:
    """Smallest positive float s with pred(s) true, for pred monotone in s.

    Brackets from x > 0 by halving (pred(x) true) or doubling (false), then
    bisects until the midpoint is no longer strictly inside the bracket, so
    the answer does not depend on x.  Returns math.inf if pred is false at
    the largest float; raises ValueError unless x > 0 (a NaN x included).
    """
    x = min(float(x), _MAX)
    if not x > 0.0:
        raise ValueError("threshold needs a start x > 0")
    if pred(x):
        hi, lo = x, x / 2.0
        while lo > 0.0 and pred(lo):
            hi, lo = lo, lo / 2.0
    else:
        lo, hi = x, min(2.0 * x, _MAX)
        while not pred(hi):
            if not hi < _MAX:
                return math.inf
            lo, hi = hi, min(2.0 * hi, _MAX)
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def increasing_root(f: Callable[[float], Tuple[float, float]], target: float,
                    lam: float, hi: float) -> float:
    """lam in (0, hi] with f(lam) = target, for f increasing and convex on
    (0, hi] with f(0+) <= target < f(hi); f returns f and f'.

    Newton from lam; a step that leaves the bracket of the iterates so far
    bisects it instead.  Right of the root, Newton descends monotonically.
    """
    lo = 0.0
    for _ in range(_NEWTON_STEPS):
        val, slope = f(lam)
        if val < target:
            lo = lam
        elif val == target:
            return lam
        else:  # NaN too: f overflowed, so lam is right of the root
            hi = lam
        step = (val - target) / slope
        if abs(step) <= _NEWTON_RTOL * lam:
            return lam - step
        lam -= step
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
    return lam
