"""Orlicz norms of finite discrete distributions and the bias bound they give.

Two norms of |X| under a finite distribution (values v_i, weights w_i):

* Luxemburg:  ||X||_psi   = inf { s > 0 : E psi(|X|/s) <= 1 }
* Amemiya:    ||X||_psi^A = inf_{t > 0} (1 + E psi(t |X|)) / t

They satisfy ||X||_psi <= ||X||^A_psi <= 2 ||X||_psi, and the generalized
Hölder inequality E|XY| <= ||X||_psi * ||Y||^A_{psi*} pairs a Luxemburg norm
with the Amemiya norm of the conjugate function.

A psi and its conjugate psi* are elementwise functions on numpy arrays: an
array in gives an array of the same shape out, a scalar in gives a float
out.  power, scaled power and exp carry their conjugates in closed form, so
a norm under psi* costs the same few array operations per objective
evaluation as a norm under psi; only a psi without a closed-form conjugate
takes a numeric Legendre transform per element.

A power psi(u) = a u**p with p > 1 (``power_orlicz(p)``,
``scaled_power_orlicz(p)`` and the conjugate of either, a v**q) carries its
(a, p), and its norms and inverse are closed forms, with m = max|X| and
M = a E (|X|/m)**p:

* Luxemburg:  m M**(1/p)
* Amemiya:    m p/(p - 1) ((p - 1) M)**(1/p)
* psi^{-1}(y) = (y/a)**(1/p)

exp and its conjugate v ln v - v + 1 solve by safeguarded Newton
(``_solve.increasing_root``) on u = |X| / m, from their closed-form psi(x),
x psi'(x) - psi(x) and x**2 psi''(x):

* Luxemburg:  m / r, where E psi(r u) = 1;
* Amemiya:    m (1 + E psi(s u)) / s, where E [x psi'(x) - psi(x)] = 1 at
  x = s u (the minimiser; Krasnosel'skii and Rutickii, 1961);
* psi^{-1}(y): the u with psi(u) = y (exp's is log1p(y), a closed form).

Each is the root of a convex increasing function, and Newton starts right
of it, where it descends monotonically (``_newton_root``).  For the
conjugate, x psi'(x) - psi(x) = (x - 1)+ is piecewise linear, so Newton
lands on the Amemiya root exactly.  A weight below 1e-300 could put the
start so far right that psi's slope overflows on the way down, so such a
sample takes the numeric searches.

Every other psi solves numerically, one call into ``_solve`` per solve:
the Luxemburg norm and psi^{-1} ask ``threshold`` for the smallest s at
which the monotone tests E psi(|X|/s) <= 1 and psi(s) >= y turn true; the
Amemiya norm asks ``minimize`` for the minimum of its quasiconvex
objective, and a conjugate without a closed form goes through
``cgf.legendre_transform``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ._solve import NumericDivergence, increasing_root, minimize, threshold
from .cgf import legendre_transform
from .divergence import DiscreteJoint, _on_support, _underflowed_cells

__all__ = [
    "OrliczFunction",
    "power_orlicz",
    "scaled_power_orlicz",
    "exp_orlicz",
    "luxemburg_norm",
    "amemiya_norm",
    "orlicz_bias_bound",
    "holder_check",
    "NumericDivergence",
]


class OrliczFunction:
    """Convex nondecreasing psi on [0, inf) with psi(0) = 0, not identically 0.

    ``fn`` and ``conjugate_fn`` are elementwise on numpy arrays: an array in
    gives an array of the same shape out, a 0-d array in gives a float out.
    ``conjugate_fn`` (if given) is the closed-form convex conjugate
    psi*(v) = sup_u (u v - psi(u)); otherwise the conjugate is computed
    numerically by ``cgf.legendre_transform``, one element at a time.
    """

    # (a, p) of a power psi(u) = a u**p with p > 1, set by the factories and
    # by conjugate_function; None selects the numeric solves
    _power = None
    # (psi's, psi*'s) _Newton pieces, set by exp_orlicz and by
    # conjugate_function; None selects the numeric solves
    _newton = None

    def __init__(self, fn: Callable, name: str = "psi",
                 conjugate_fn: Optional[Callable] = None, validate: bool = True):
        self._fn = fn
        self._conjugate_fn = conjugate_fn
        self.name = name
        if validate:
            self._validate()

    def __call__(self, u):
        # overflow to +inf is legitimate for fast-growing psi
        with np.errstate(over="ignore", invalid="ignore"):
            return self._fn(np.asarray(u, dtype=float))

    def __repr__(self):
        return f"OrliczFunction({self.name})"

    def _validate(self):
        at0 = float(self(0.0))
        if abs(at0) > 1e-12:
            raise ValueError("psi(0) must be 0")
        grid = np.geomspace(1e-8, 1e8, 65)
        vals = np.asarray(self(grid), dtype=float)
        if np.any(vals < -1e-12):
            raise ValueError("psi must be nonnegative")
        finite = vals[np.isfinite(vals)]
        if finite.size == 0 or not np.any(finite > 0):
            raise ValueError("psi must be finite and positive somewhere on (0, inf)")
        dense = np.linspace(0.0, float(grid[np.isfinite(vals)][-1]), 129)
        dv = np.asarray(self(dense), dtype=float)
        keep = np.isfinite(dv)
        dv, dense = dv[keep], dense[keep]
        if dv.size >= 3:
            second = dv[:-2] - 2.0 * dv[1:-1] + dv[2:]
            if np.any(second < -1e-9 * (1.0 + np.abs(dv[1:-1]))):
                raise ValueError("psi fails sampled convexity check")
        if np.any(np.diff(dv) < -1e-12):
            raise ValueError("psi must be nondecreasing")

    def conjugate_value(self, v: float) -> float:
        """psi*(v) for v >= 0."""
        return float(self.conjugate_function()(v))

    def conjugate_function(self) -> "OrliczFunction":
        """The conjugate psi* as an OrliczFunction (it is one).

        A power psi's conjugate is a power too, and exp's is v ln v - v + 1;
        the conjugate of either is psi again.
        """
        fn = self._conjugate_fn
        if fn is None:
            def fn(v):
                return np.vectorize(
                    lambda t: legendre_transform(lambda u: float(self(u)), t),
                    otypes=[float])(v)[()]
        if self._power is None and self._newton is None:
            return OrliczFunction(fn, name=f"{self.name}*", validate=False)
        conj = OrliczFunction(fn, name=f"{self.name}*", conjugate_fn=self._fn,
                              validate=False)
        if self._newton is not None:
            conj._newton = self._newton[::-1]
            return conj
        # sup_u (u v - a u**p) = (p - 1)/p (a p)**(1 - q) v**q, 1/p + 1/q = 1
        a, p = self._power
        q = p / (p - 1.0)
        conj._power = ((p - 1.0) / p * (a * p) ** (1.0 - q), q)
        return conj

    def inverse(self, y: float) -> float:
        """Smallest u with psi(u) >= y (generalized inverse), y >= 0.

        psi^{-1}(inf) is math.inf: a psi(u) that overflows to inf in floats
        is not a level psi reaches.
        """
        y = float(y)
        if not y >= 0:
            raise ValueError("inverse argument must be nonnegative")
        if y == 0.0:
            return 0.0
        if y == math.inf:
            return math.inf
        if self._power is not None:
            a, p = self._power
            return y ** (1.0 / p) / a ** (1.0 / p)  # y / a could overflow
        if self._newton is not None:
            pieces = self._newton[0]
            if pieces.inverse is not None:
                return pieces.inverse(y)

            def f(u):
                psi, x_slope = pieces.level(u)
                return float(psi), float(x_slope) / u
            with np.errstate(over="ignore", invalid="ignore"):
                return increasing_root(f, y, float(pieces.level_start(y)), math.inf)
        u = threshold(lambda u: float(self(u)) >= y, 1.0)
        if u == math.inf:
            raise NumericDivergence("psi never reaches the requested level")
        return u


def power_orlicz(p: float) -> OrliczFunction:
    """psi(u) = u**p for p >= 1."""
    p = float(p)
    if not p >= 1:
        raise ValueError("p must be >= 1")

    def fn(u):
        return np.power(u, p)

    if p == 1.0:
        def conj(v):
            return np.where(v <= 1.0, 0.0, math.inf)[()]  # NaN -> inf
    else:
        q = p / (p - 1.0)

        def conj(v):
            return (p - 1.0) * np.power(v / p, q)
    psi = OrliczFunction(fn, name=f"power({p:g})", conjugate_fn=conj, validate=False)
    if p > 1.0:
        psi._power = (1.0, p)
    return psi


def scaled_power_orlicz(p: float) -> OrliczFunction:
    """psi(u) = u**p / p for p > 1; its conjugate is v**q / q, 1/p + 1/q = 1."""
    p = float(p)
    if not p > 1:
        raise ValueError("p must be > 1")
    q = p / (p - 1.0)

    def fn(u):
        return np.power(u, p) / p

    def conj(v):
        return np.power(v, q) / q
    psi = OrliczFunction(fn, name=f"scaled_power({p:g})", conjugate_fn=conj,
                         validate=False)
    psi._power = (1.0 / p, p)
    return psi


# 1/(2k + 3), k = 0..15: the series of exp_orlicz's conjugate below v = 2; at
# z <= 1/3 the first term left out is below 1e-17 of the sum
_EXP_CONJ_SERIES = 1.0 / (2.0 * np.arange(16) + 3.0)


class _Newton:
    """What the Newton solves need of a psi, all elementwise.

    level(x) gives psi(x) and x psi'(x); excess(x) gives x psi'(x) - psi(x)
    and x**2 psi''(x); level_start(y) and excess_start(y) are at or right of
    the x where psi(x) and x psi'(x) - psi(x) reach y; inverse is psi^{-1} in
    closed form, or None for a Newton root from level_start.
    """

    __slots__ = ("level", "excess", "level_start", "excess_start", "inverse")

    def __init__(self, level, excess, level_start, excess_start, inverse=None):
        self.level = level
        self.excess = excess
        self.level_start = level_start
        self.excess_start = excess_start
        self.inverse = inverse


def _exp_conj(v):
    """v ln v - v + 1 for v >= 1, else 0 (exp_orlicz's conjugate)."""
    x = np.maximum(v - 1.0, 0.0)  # 0 on v <= 1; NaN stays NaN
    s = np.minimum(x, 1.0)
    z = s / (s + 2.0)
    w = z * z
    series = np.full_like(w, _EXP_CONJ_SERIES[-1])
    for c in _EXP_CONJ_SERIES[-2::-1]:  # Horner, in place
        series *= w
        series += c
    near = s * s / (s + 2.0) * (1.0 + z * (1.0 + z) * series)
    far = np.where(x < math.inf, v * np.log1p(x) - x, x)
    return np.where(x < 1.0, near, far)[()]


def _exp_level(x):
    """psi(x) = e**x - 1 and x psi'(x) = x e**x."""
    psi = np.expm1(x)
    return psi, x * (psi + 1.0)


def _exp_excess(x):
    """x psi'(x) - psi(x) = (x - 1) e**x + 1 and x**2 psi''(x) = x**2 e**x."""
    ex = np.exp(x)
    return (x - 1.0) * ex + 1.0, x * x * ex


def _exp_excess_start(y):
    """1 + log1p(y): there (x - 1) e**x + 1 >= log1p(y) e (1 + y) >= y."""
    return 1.0 + np.log1p(y)


def _exp_conj_level(x):
    """psi*(x) and x psi*'(x) = x ln x = psi*(x) + x - 1 on x > 1, else 0."""
    psi = _exp_conj(x)
    return psi, psi + np.maximum(x - 1.0, 0.0)


def _exp_conj_excess(x):
    """x psi*'(x) - psi*(x) = (x - 1)+, taken directly, and x**2 psi*''(x) = x [x > 1]."""
    return np.maximum(x - 1.0, 0.0), np.where(x > 1.0, x, 0.0)


def _exp_conj_level_start(y):
    """1 + y + 2 sqrt(y), and at least the float after 1, where psi* turns
    positive: psi*(1 + t) >= t**2 / (2 + 2 t / 3) >= y at t = y + 2 sqrt(y)."""
    return np.maximum(1.0 + y + 2.0 * np.sqrt(y), 1.0 + 2.0 ** -52)


def _exp_conj_excess_start(y):
    """1 + y, where (x - 1)+ reaches y."""
    return 1.0 + y


def exp_orlicz() -> OrliczFunction:
    """psi(u) = e**u - 1; conjugate v ln v - v + 1 for v >= 1, else 0.

    With x = v - 1, the conjugate is v log1p(x) - x from v = 2 on (+inf at
    v = +inf, where that difference is inf - inf).  Below, that difference
    cancels (to every digit as v -> 1), so it is taken from
    ln v = 2 atanh(z), z = x / (x + 2), as the cancellation-free series
    x**2 / (x + 2) * (1 + z (1 + z) sum_k z**(2k) / (2k + 3)).
    """
    def fn(u):
        return np.expm1(u)
    psi = OrliczFunction(fn, name="exp", conjugate_fn=_exp_conj, validate=False)
    psi._newton = (_Newton(_exp_level, _exp_excess, np.log1p, _exp_excess_start,
                           math.log1p),
                   _Newton(_exp_conj_level, _exp_conj_excess, _exp_conj_level_start,
                           _exp_conj_excess_start))
    return psi


def _as_weighted(values, weights, *paired):
    """|values|, weights (uniform if None) and ``paired`` on positive weights."""
    v = np.abs(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ValueError("empty sample")
    if np.any(np.isnan(v)):
        raise ValueError("values must not be NaN")
    if weights is None:
        weights = np.full(v.size, 1.0 / v.size)
    w, v, *paired = _on_support(np.ravel(weights), v, *paired, what="weights")
    return (v, w, *paired)


def _power_moment(v, w, m: float, power) -> float:
    """a sum_i w_i (v_i/m)**p under psi(u) = a u**p, for m = max v in (0, inf):
    no (v_i/m)**p overflows."""
    a, p = power
    return a * float(np.sum(w * (v / m) ** p))


def _power_amemiya(v, w, m: float, power) -> float:
    """Amemiya norm under psi(u) = a u**p, p > 1, for m = max v in (0, inf).

    The minimiser t of (1 + E psi(t |X|)) / t solves (p - 1) a t**p E|X|**p = 1,
    where the objective is p / ((p - 1) t).  The weights need not sum to 1.
    """
    p = power[1]
    return m * p / (p - 1.0) * ((p - 1.0) * _power_moment(v, w, m, power)) ** (1.0 / p)


# A weight below this can put a Newton start (from 1/w) so far right that
# psi's slope overflows on the way down: such a sample takes the searches.
_NEWTON_MIN_WEIGHT = 1e-300


def _newton_root(pair, start, u, w) -> float:
    """s > 0 with sum_i w_i g(s u_i) = 1, for g convex and increasing on
    [0, inf) with g(0) = 0, max u = 1 and every w >= _NEWTON_MIN_WEIGHT.

    pair(x) gives g(x) and x g'(x), and start(y) is at or right of the x
    where g reaches y.  The sum is at least 1 at min_i start(1/w_i) / u_i,
    where one cell's term reaches 1, and at start(1) / sum_i w_i u_i, where
    g of the mean does (Jensen, for weights summing to 1); Newton starts at
    the smaller.  Weights that sum to 1 only within 1e-9 can put that a
    hair left of the root, which costs Newton one step right.
    """
    def f(s):
        g, x_slope = pair(s * u)
        return float(w @ g), float(w @ x_slope) / s
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lam = min(float(np.min(start(1.0 / w) / u)), float(start(1.0)) / float(w @ u))
        return increasing_root(f, 1.0, lam, math.inf)


def luxemburg_norm(values, psi: OrliczFunction, weights=None) -> float:
    """Luxemburg norm inf { s : E psi(|X|/s) <= 1 } of a finite distribution."""
    v, w = _as_weighted(values, weights)
    m = float(v.max())
    if m == 0.0:
        return 0.0
    if m == math.inf:  # E psi(inf / s) = inf at every s
        raise NumericDivergence("Luxemburg norm diverges: E psi(|X|/s) > 1 for all s")
    if psi._power is not None:
        return m * _power_moment(v, w, m, psi._power) ** (1.0 / psi._power[1])
    if psi._newton is not None and w.min() >= _NEWTON_MIN_WEIGHT:
        pieces = psi._newton[0]
        return m / _newton_root(pieces.level, pieces.level_start, v / m, w)

    def excess(s: float) -> float:
        return float(np.sum(w * np.asarray(psi(v / s), dtype=float)))

    s = threshold(lambda s: excess(s) <= 1.0, m)
    if s == math.inf:
        raise NumericDivergence("Luxemburg norm diverges: E psi(|X|/s) > 1 for all s")
    return s


def amemiya_norm(values, psi: OrliczFunction, weights=None) -> float:
    """Amemiya norm inf_t (1 + E psi(t |X|)) / t of a finite distribution.

    With t = s / max|X| the objective is max|X| (1 + E psi(s |X| / max|X|)) / s,
    quasiconvex in s; ``_solve.minimize`` takes its minimum over s > 0, so the
    search starts at t = 1 / max|X| whatever the scale of X.  NumericDivergence
    if the objective is infinite for every t or has no minimum below s = 2**1000.
    A power psi takes the closed form instead, and exp and its conjugate a
    Newton root for the minimiser (module docstring).
    """
    v, w = _as_weighted(values, weights)
    m = float(v.max())
    if m == 0.0:
        return 0.0
    if m == math.inf:
        raise NumericDivergence("Amemiya objective diverges for every t")
    if psi._power is not None:
        return _power_amemiya(v, w, m, psi._power)
    u = v / m
    if psi._newton is not None and w.min() >= _NEWTON_MIN_WEIGHT:
        pieces = psi._newton[0]
        s = _newton_root(pieces.excess, pieces.excess_start, u, w)
        with np.errstate(over="ignore"):
            return m * (1.0 + float(w @ psi._fn(s * u))) / s

    def obj(s: float) -> float:
        return m * (1.0 + float(np.sum(w * np.asarray(psi(s * u), dtype=float)))) / s

    val = minimize(obj, math.inf)
    if val == math.inf:
        raise NumericDivergence("Amemiya objective diverges for every t")
    return val


def orlicz_bias_bound(sigma: float, joint: DiscreteJoint,
                      psi: OrliczFunction) -> float:
    """Bias bound sigma * || L - 1 ||^A_{psi*} from an Orlicz moment cap.

    sigma is the common Luxemburg psi-norm cap on the centered coordinates;
    L is the likelihood ratio joint/(product of marginals) and the conjugate
    Amemiya norm is taken under the product measure.

    A product of two positive marginals can underflow to 0 at a cell with
    mass.  Under a power psi, whose conjugate is a v**q, such a cell adds
    w |L - 1|**q = (w**(1/q) |L - 1|)**q to the norm's moment, which is
    taken from logs without forming w or L (``_underflowed_cells``); under
    any other psi the bound is then +inf.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    prod = joint.product_of_marginals()
    mask = prod > 0
    values = np.abs(joint.p[mask] / prod[mask] - 1.0)
    conj = psi.conjugate_function()
    lost = _underflowed_cells(joint, prod)
    if lost is None:
        return sigma * amemiya_norm(values, conj, weights=prod[mask])
    if conj._power is None:
        return math.inf
    _, log_w, log_l1 = lost
    q = conj._power[1]
    values = np.concatenate([values, np.exp(log_w / q + log_l1)])
    weights = np.concatenate([prod[mask], np.ones(log_w.size)])
    m = float(values.max())
    if not 0.0 < m < math.inf:  # every value is 0 or underflows, or one overflows
        return m
    return sigma * _power_amemiya(values, weights, m, conj._power)


def holder_check(x, y, psi: OrliczFunction, weights=None):
    """Check E|XY| <= ||X||_psi * ||Y||^A_{psi*} on a finite distribution.

    Returns (holds, slack, lhs, rhs) with slack = rhs - lhs.
    """
    x = np.abs(np.asarray(x, dtype=float).ravel())
    y = np.abs(np.asarray(y, dtype=float).ravel())
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    x, w, y = _as_weighted(x, weights, y)
    lhs = float(np.sum(w * x * y))
    rhs = luxemburg_norm(x, psi, w) * amemiya_norm(y, psi.conjugate_function(), w)
    slack = rhs - lhs
    return slack >= -1e-12 * max(1.0, abs(rhs)), slack, lhs, rhs
