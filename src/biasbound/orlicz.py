"""Orlicz norms of finite discrete distributions and the bias bound they give.

Two norms of |X| under a finite distribution (values v_i, weights w_i):

* Luxemburg:  ||X||_psi   = inf { s > 0 : E psi(|X|/s) <= 1 }
* Amemiya:    ||X||_psi^A = inf_{t > 0} (1 + E psi(t |X|)) / t

They satisfy ||X||_psi <= ||X||^A_psi <= 2 ||X||_psi, and the generalized
Hölder inequality E|XY| <= ||X||_psi * ||Y||^A_{psi*} pairs a Luxemburg norm
with the Amemiya norm of the conjugate function.

A psi and its conjugate psi* are elementwise functions on numpy arrays.
power, scaled power and exp carry psi* in closed form; only a psi without
one takes a numeric Legendre transform per element.

A psi's class alone decides how its three solves are done: psi^{-1}, and
the Luxemburg and Amemiya norms of a sample the public functions have
checked.  ``OrliczFunction`` searches numerically, for any psi and for
power(1); ``_Power`` (a u**p with p > 1, and its conjugate) has closed
forms; ``_Exp`` and its conjugate ``_ExpConjugate`` take safeguarded Newton
roots (``_Newton``).  Each returns its partner from ``conjugate_function``,
and psi** = psi for every psi.
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

_LUXEMBURG_DIVERGES = "Luxemburg norm diverges: E psi(|X|/s) > 1 for all s"
_AMEMIYA_DIVERGES = "Amemiya objective diverges for every t"


class OrliczFunction:
    """Convex nondecreasing psi on [0, inf) with psi(0) = 0, not identically 0.

    ``fn`` and ``conjugate_fn`` are elementwise on numpy arrays: an array in
    gives an array of the same shape out, a 0-d array in gives a float out.
    ``conjugate_fn`` (if given) is the closed-form convex conjugate
    psi*(v) = sup_u (u v - psi(u)); otherwise the conjugate is computed
    numerically by ``cgf.legendre_transform``, one element at a time.

    Its solves are numeric, one call into ``_solve`` each: psi^{-1} and the
    Luxemburg norm ask ``threshold`` for the smallest s at which the monotone
    tests psi(s) >= y and E psi(|X|/s) <= 1 turn true; the Amemiya norm asks
    ``minimize`` for the minimum of its quasiconvex objective.  A family with
    faster solves overrides ``_inverse``, ``_luxemburg`` and ``_amemiya``.
    """

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
        """The conjugate psi* as an OrliczFunction (it is one), whose own
        conjugate is psi: psi** = psi exactly."""
        fn = self._conjugate_fn
        if fn is None:
            def fn(v):
                return np.vectorize(
                    lambda t: legendre_transform(lambda u: float(self(u)), t),
                    otypes=[float])(v)[()]
        return OrliczFunction(fn, name=f"{self.name}*", conjugate_fn=self._fn,
                              validate=False)

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
        return self._inverse(y)

    def _inverse(self, y: float) -> float:
        """psi^{-1}(y) for y in (0, inf)."""
        u = threshold(lambda u: float(self(u)) >= y, 1.0)
        if u == math.inf:
            raise NumericDivergence("psi never reaches the requested level")
        return u

    def _weighted_sum(self, x, w) -> float:
        """sum_i w_i psi(x_i), the searches' expectation."""
        return float(np.sum(w * np.asarray(self(x), dtype=float)))

    def _luxemburg(self, v, w, m: float) -> float:
        """Luxemburg norm of values v > 0 under weights w, m = max v in (0, inf)."""
        s = threshold(lambda s: self._weighted_sum(v / s, w) <= 1.0, m)
        if s == math.inf:
            raise NumericDivergence(_LUXEMBURG_DIVERGES)
        return s

    def _amemiya(self, v, w, m: float) -> float:
        """Amemiya norm of values v under weights w, m = max v in (0, inf).

        With t = s / m the objective is m (1 + E psi(s |X| / m)) / s,
        quasiconvex in s; ``_solve.minimize`` takes its minimum over s > 0, so
        the search starts at t = 1 / m whatever the scale of X.
        """
        u = v / m
        val = minimize(lambda s: m * (1.0 + self._weighted_sum(s * u, w)) / s, math.inf)
        if val == math.inf:
            raise NumericDivergence(_AMEMIYA_DIVERGES)
        return val

    def _lost_cells(self, log_w, log_l1):
        """Values at weight 1 that stand in for cells of weight w and ratio L
        (given as log w and log |L - 1|) in this psi's moment; None: none do."""
        return None


class _Power(OrliczFunction):
    """psi(u) = a u**p with p > 1, whose conjugate is a power too.

    With m = max|X| and M = a E (|X|/m)**p (no (|X|/m)**p overflows, and the
    weights need not sum to 1), every solve is a closed form:

    * Luxemburg:  m M**(1/p)
    * Amemiya:    m p/(p - 1) ((p - 1) M)**(1/p), at the minimiser t of
      (1 + E psi(t |X|)) / t, where (p - 1) a t**p E|X|**p = 1
    * psi^{-1}(y) = (y/a)**(1/p)
    """

    def __init__(self, a: float, p: float, fn, conjugate_fn, name: str):
        super().__init__(fn, name, conjugate_fn, validate=False)
        self._a, self._p = a, p

    def conjugate_function(self) -> "_Power":
        # sup_u (u v - a u**p) = (p - 1)/p (a p)**(1 - q) v**q, 1/p + 1/q = 1
        a, p = self._a, self._p
        q = p / (p - 1.0)
        return _Power((p - 1.0) / p * (a * p) ** (1.0 - q), q, self._conjugate_fn,
                      self._fn, f"{self.name}*")

    def _inverse(self, y: float) -> float:
        return y ** (1.0 / self._p) / self._a ** (1.0 / self._p)  # y / a could overflow

    def _moment(self, v, w, m: float) -> float:
        return self._a * float(np.sum(w * (v / m) ** self._p))

    def _luxemburg(self, v, w, m: float) -> float:
        return m * self._moment(v, w, m) ** (1.0 / self._p)

    def _amemiya(self, v, w, m: float) -> float:
        p = self._p
        return m * p / (p - 1.0) * ((p - 1.0) * self._moment(v, w, m)) ** (1.0 / p)

    def _lost_cells(self, log_w, log_l1):
        # w |L - 1|**p = (w**(1/p) |L - 1|)**p, taken without forming w or L
        return np.exp(log_w / self._p + log_l1)


def power_orlicz(p: float) -> OrliczFunction:
    """psi(u) = u**p for p >= 1."""
    p = float(p)
    if not p >= 1:
        raise ValueError("p must be >= 1")

    def fn(u):
        return np.power(u, p)

    name = f"power({p:g})"
    if p == 1.0:
        def conj(v):
            return np.where(v <= 1.0, 0.0, math.inf)[()]  # NaN -> inf
        return OrliczFunction(fn, name=name, conjugate_fn=conj, validate=False)
    q = p / (p - 1.0)

    def conj(v):
        return (p - 1.0) * np.power(v / p, q)
    return _Power(1.0, p, fn, conj, name)


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
    return _Power(1.0 / p, p, fn, conj, f"scaled_power({p:g})")


# A weight below this can put a Newton start (from 1/w) so far right that
# psi's slope overflows on the way down: such a sample takes the searches.
_NEWTON_MIN_WEIGHT = 1e-300


class _Newton(OrliczFunction):
    """A psi whose solves are safeguarded Newton roots (``_solve.increasing_root``)
    on u = |X| / m, m = max|X|, from closed-form psi(x), x psi'(x) - psi(x)
    and x**2 psi''(x):

    * Luxemburg:  m / r, where E psi(r u) = 1;
    * Amemiya:    m (1 + E psi(s u)) / s, where E [x psi'(x) - psi(x)] = 1 at
      x = s u (the minimiser; Krasnosel'skii and Rutickii, 1961);
    * psi^{-1}(y): the u with psi(u) = y.

    Each is the root of a convex increasing function, and Newton starts right
    of it, where it descends monotonically (``_root``).  A subclass gives,
    elementwise, (psi(x), x psi'(x)) as ``_level``, (x psi'(x) - psi(x),
    x**2 psi''(x)) as ``_excess``, and ``_level_start(y)`` / ``_excess_start(y)``
    at or right of where each first member reaches y.  A sample with a weight
    below 1e-300 takes the base class's searches.
    """

    def _inverse(self, y: float) -> float:
        def f(u):
            psi, x_slope = self._level(u)
            return float(psi), float(x_slope) / u
        with np.errstate(over="ignore", invalid="ignore"):
            return increasing_root(f, y, float(self._level_start(y)), math.inf)

    def _luxemburg(self, v, w, m: float) -> float:
        if w.min() < _NEWTON_MIN_WEIGHT:
            return super()._luxemburg(v, w, m)
        return m / self._root(self._level, self._level_start, v / m, w)

    def _amemiya(self, v, w, m: float) -> float:
        if w.min() < _NEWTON_MIN_WEIGHT:
            return super()._amemiya(v, w, m)
        u = v / m
        s = self._root(self._excess, self._excess_start, u, w)
        with np.errstate(over="ignore"):
            return m * (1.0 + float(w @ self._fn(s * u))) / s

    @staticmethod
    def _root(pair, start, u, w) -> float:
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


# 1/(2k + 3), k = 0..15: the series of exp_orlicz's conjugate below v = 2; at
# z <= 1/3 the first term left out is below 1e-17 of the sum
_EXP_CONJ_SERIES = 1.0 / (2.0 * np.arange(16) + 3.0)


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


class _Exp(_Newton):
    """psi(u) = e**u - 1, whose psi^{-1} is log1p; its conjugate is _ExpConjugate."""

    def __init__(self, name: str = "exp"):
        super().__init__(np.expm1, name, _exp_conj, validate=False)

    def conjugate_function(self) -> "_ExpConjugate":
        return _ExpConjugate(f"{self.name}*")

    def _level(self, x):
        """psi(x) = e**x - 1 and x psi'(x) = x e**x."""
        psi = np.expm1(x)
        return psi, x * (psi + 1.0)

    def _excess(self, x):
        """x psi'(x) - psi(x) = (x - 1) e**x + 1 and x**2 psi''(x) = x**2 e**x."""
        ex = np.exp(x)
        return (x - 1.0) * ex + 1.0, x * x * ex

    # psi^{-1} and where psi reaches y; neither is bound as a method
    _inverse, _level_start = math.log1p, np.log1p

    def _excess_start(self, y):
        """1 + log1p(y): there (x - 1) e**x + 1 >= log1p(y) e (1 + y) >= y."""
        return 1.0 + np.log1p(y)

    def _weighted_sum(self, x, w) -> float:
        # the searches serve weights below 1e-300, where w (e**x - 1) can be
        # finite past x = 709.78, at which e**x - 1 overflows: take it in logs
        with np.errstate(over="ignore"):
            psi = np.expm1(x)
            return float(np.sum(np.where(psi < math.inf, w * psi, np.exp(x + np.log(w)) - w)))


class _ExpConjugate(_Newton):
    """psi*(v) = v ln v - v + 1 for v >= 1, else 0; its conjugate is _Exp."""

    def __init__(self, name: str = "exp*"):
        super().__init__(_exp_conj, name, np.expm1, validate=False)

    def conjugate_function(self) -> _Exp:
        return _Exp(f"{self.name}*")

    def _level(self, x):
        """psi*(x) and x psi*'(x) = x ln x = psi*(x) + x - 1 on x > 1, else 0."""
        psi = _exp_conj(x)
        return psi, psi + np.maximum(x - 1.0, 0.0)

    def _excess(self, x):
        """x psi*'(x) - psi*(x) = (x - 1)+, taken directly, and x**2 psi*''(x) = x [x > 1]."""
        return np.maximum(x - 1.0, 0.0), np.where(x > 1.0, x, 0.0)

    def _level_start(self, y):
        """1 + y + 2 sqrt(y), and at least the float after 1, where psi* turns
        positive: psi*(1 + t) >= t**2 / (2 + 2 t / 3) >= y at t = y + 2 sqrt(y)."""
        return np.maximum(1.0 + y + 2.0 * np.sqrt(y), 1.0 + 2.0 ** -52)

    def _excess_start(self, y):
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
    return _Exp()


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


def luxemburg_norm(values, psi: OrliczFunction, weights=None) -> float:
    """Luxemburg norm inf { s : E psi(|X|/s) <= 1 } of a finite distribution."""
    v, w = _as_weighted(values, weights)
    m = float(v.max())
    if m == 0.0:
        return 0.0
    if m == math.inf:  # E psi(inf / s) = inf at every s
        raise NumericDivergence(_LUXEMBURG_DIVERGES)
    return psi._luxemburg(v, w, m)


def amemiya_norm(values, psi: OrliczFunction, weights=None) -> float:
    """Amemiya norm inf_t (1 + E psi(t |X|)) / t of a finite distribution.

    NumericDivergence if the objective is infinite for every t or, for a
    psi that searches, has no minimum below t = 2**1000 / max|X|.
    """
    v, w = _as_weighted(values, weights)
    m = float(v.max())
    if m == 0.0:
        return 0.0
    if m == math.inf:
        raise NumericDivergence(_AMEMIYA_DIVERGES)
    return psi._amemiya(v, w, m)


def orlicz_bias_bound(sigma: float, joint: DiscreteJoint,
                      psi: OrliczFunction) -> float:
    """Bias bound sigma * || L - 1 ||^A_{psi*} from an Orlicz moment cap.

    sigma is the common Luxemburg psi-norm cap on the centered coordinates;
    L is the likelihood ratio joint/(product of marginals) and the conjugate
    Amemiya norm is taken under the product measure.

    A product of two positive marginals can underflow to 0 at a cell with
    mass (``_underflowed_cells``).  A power psi* = a v**q carries such a cell
    in its moment from logs (``_lost_cells``); under any other the bound is +inf.
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
    carried = conj._lost_cells(*lost[1:])
    if carried is None:
        return math.inf
    values = np.concatenate([values, carried])
    weights = np.concatenate([prod[mask], np.ones(carried.size)])
    m = float(values.max())
    if not 0.0 < m < math.inf:  # every value is 0 or underflows, or one overflows
        return m
    return sigma * conj._amemiya(values, weights, m)


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
