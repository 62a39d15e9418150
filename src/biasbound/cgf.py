"""Cumulant-generating-function envelopes and their convex conjugates.

An envelope is a convex function psi on [0, domain_sup) with psi(0) = 0 and
zero right-derivative at the origin.  It upper-bounds the CGF of a centered
random variable; its convex conjugate psi*(x) = sup_lam (lam*x - psi(lam))
gives Chernoff-style tail rates, and the inverse conjugate

    (psi*)^{-1}(I) = inf_{0 < lam < domain_sup} (psi(lam) + I) / lam

converts an information budget I (in nats) into a deviation scale.

Sub-Gaussian, sub-exponential and sub-gamma envelopes, and mixtures that
collapse to one of them, carry both conjugates in closed form.  A mixture
of those three families that does not collapse solves for its optimum by
safeguarded Newton on (0, domain_sup (1 - 1e-12)], the numeric search's own
bracket, from each family's closed-form psi' and psi'': psi'(lam) = x for
the conjugate, lam psi'(lam) - psi(lam) = I for the inverse conjugate, and
the bracket's end when the root lies beyond it.  A tabulated envelope is
linear between its knots and +inf past the last one, so both optima sit on
a knot and its conjugates are exact knot-wise reductions, the last knot
included.  Every other envelope, and ``conjugate_numeric`` /
``inverse_conjugate_numeric`` on any envelope (the numeric reference the
closed forms and the Newton are tested against), asks ``_solve.minimize``
for the minimum of a quasiconvex function of lam on (0, domain_sup):
psi(lam) - lam*x for the conjugate (convex), and (psi(lam) + I)/lam for the
inverse conjugate (quasiconvex, because psi is convex with psi(0) = 0).

Every envelope shares one argument contract, stated once in ``CgfEnvelope``:
``evaluate`` checks lam >= 0 and calls the unchecked ``_psi``.  The four
conjugate methods (``conjugate``, ``inverse_conjugate`` and their
``*_numeric`` references) convert their argument with ``float``, raise
ValueError below 0, return +0.0 at +-0 and hand anything else, NaN and +inf
included, to the unchecked ``_conjugate`` / ``_inverse_conjugate`` (or
their numeric counterparts).  A family overrides only those formulas.  The
numeric searches call ``_psi`` directly, as they only probe lam in
(0, domain_sup].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ._csv import Table
from ._solve import NumericDivergence, increasing_root, minimize
from .divergence import _as_prob_vector

__all__ = [
    "CgfEnvelope",
    "SubGaussian",
    "SubExponential",
    "SubGamma",
    "Tabulated",
    "MixedEnvelope",
    "legendre_transform",
    "subexponential_piecewise_bound",
]

# Capped domains are approached to within this relative shrink: close enough
# to a pole for boundary-attained minima, far enough to stay finite in float64.
_BOUNDARY_SHRINK = 1e-12

# The largest first-segment slope a tabulated envelope may have, as its
# stand-in for the zero right-derivative at the origin.
_ORIGIN_SLOPE_TOL = 0.1

# Above this, doubling a float overflows.
_HALF_MAX = float(np.finfo(float).max) / 2.0

_NEGATIVE_X = "conjugate argument must be nonnegative"
_NEGATIVE_INFO = "information budget must be nonnegative"


def _nonnegative(fn: Callable[[float], float], arg: float, message: str) -> float:
    """The argument contract of psi* and (psi*)^{-1}: float(arg), ValueError
    (message) below 0, +0.0 at +-0, and fn(arg) otherwise (NaN, +inf too)."""
    arg = float(arg)
    if arg < 0:
        raise ValueError(message)
    if arg == 0.0:
        return 0.0
    return fn(arg)


def _legendre(f: Callable[[float], float], x: float, domain_sup: float) -> float:
    hi = domain_sup * (1.0 - _BOUNDARY_SHRINK)
    try:
        return max(-minimize(lambda lam: f(lam) - lam * x, hi), 0.0)
    except NumericDivergence:
        return math.inf


def legendre_transform(f: Callable[[float], float], x: float) -> float:
    """sup over lam >= 0 of lam*x - f(lam).

    f must be convex with f(0) = 0 (hence nonnegative), so the supremum is
    always >= 0; it is math.inf if lam*x - f(lam) still grows past 2**1000.
    """
    return _nonnegative(lambda t: _legendre(f, t, math.inf), x, _NEGATIVE_X)


class CgfEnvelope:
    """Base class: convex psi on [0, domain_sup) with psi(0) = 0."""

    domain_sup: float = math.inf

    def evaluate(self, lam: float) -> float:
        """psi(lam) for lam >= 0."""
        lam = float(lam)
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        return self._psi(lam)

    def _psi(self, lam: float) -> float:
        """psi at a float lam >= 0, unchecked."""
        raise NotImplementedError

    def conjugate(self, x: float) -> float:
        """Convex conjugate psi*(x) for x >= 0 (closed form when available)."""
        return _nonnegative(self._conjugate, x, _NEGATIVE_X)

    def conjugate_numeric(self, x: float) -> float:
        """psi*(x) by numeric maximization (``legendre_transform``)."""
        return _nonnegative(self._conjugate_numeric, x, _NEGATIVE_X)

    def inverse_conjugate(self, info: float) -> float:
        """Generalized inverse of psi* at information budget info (nats)."""
        return _nonnegative(self._inverse_conjugate, info, _NEGATIVE_INFO)

    def inverse_conjugate_numeric(self, info: float) -> float:
        """inf over lam in (0, domain_sup) of (psi(lam) + info) / lam."""
        return _nonnegative(self._inverse_conjugate_numeric, info, _NEGATIVE_INFO)

    def _conjugate_numeric(self, x: float) -> float:
        return _legendre(self._psi, x, self.domain_sup)

    def _inverse_conjugate_numeric(self, info: float) -> float:
        return minimize(lambda lam: (self._psi(lam) + info) / lam,
                        self.domain_sup * (1.0 - _BOUNDARY_SHRINK))

    # Unchecked psi* and (psi*)^{-1} at a float > 0, NaN or +inf: a family
    # with a closed form overrides these two.
    _conjugate = _conjugate_numeric
    _inverse_conjugate = _inverse_conjugate_numeric


@dataclass(frozen=True)
class SubGaussian(CgfEnvelope):
    """psi(lam) = lam^2 sigma^2 / 2 on [0, inf)."""

    sigma: float
    family = "gaussian"  # names the report's mgf_<family> bound

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @property
    def domain_sup(self) -> float:
        return math.inf

    def _psi(self, lam: float) -> float:
        return 0.5 * lam * lam * self.sigma * self.sigma

    def _conjugate(self, x: float) -> float:
        return x * x / (2.0 * self.sigma * self.sigma)

    def _inverse_conjugate(self, info: float) -> float:
        return self.sigma * math.sqrt(2.0 * info)

    def _derivatives(self, lam: float) -> Tuple[float, float, float]:
        """psi, psi' and psi'' at a float lam in [0, domain_sup)."""
        s2 = self.sigma * self.sigma
        return 0.5 * lam * lam * s2, lam * s2, s2


@dataclass(frozen=True)
class SubExponential(CgfEnvelope):
    """psi(lam) = lam^2 sigma^2 / 2 on [0, 1/b); +inf beyond."""

    sigma: float
    b: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.b > 0:
            raise ValueError("b must be positive")

    @property
    def domain_sup(self) -> float:
        return 1.0 / self.b

    def _psi(self, lam: float) -> float:
        if lam >= self.domain_sup:
            return math.inf
        return 0.5 * lam * lam * self.sigma * self.sigma

    def _conjugate(self, x: float) -> float:
        s2 = self.sigma * self.sigma
        if x < s2 / self.b:
            return x * x / (2.0 * s2)
        return (x - s2 / (2.0 * self.b)) / self.b  # no b * b to underflow

    def _inverse_conjugate(self, info: float) -> float:
        s2 = self.sigma * self.sigma
        if info <= s2 / (2.0 * self.b) / self.b:
            return self.sigma * math.sqrt(2.0 * info)
        return self.b * info + s2 / (2.0 * self.b)

    _derivatives = SubGaussian._derivatives  # the same quadratic below 1/b


@dataclass(frozen=True)
class SubGamma(CgfEnvelope):
    """psi(lam) = lam^2 sigma2 / (2 (1 - c lam)) on [0, 1/c); +inf beyond."""

    sigma2: float
    c: float
    family = "subgamma"  # names the report's mgf_<family> bound

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not self.c > 0:
            raise ValueError("c must be positive")

    @property
    def domain_sup(self) -> float:
        return 1.0 / self.c

    def _psi(self, lam: float) -> float:
        if lam >= self.domain_sup:
            return math.inf
        return 0.5 * lam * lam * self.sigma2 / (1.0 - self.c * lam)

    def _conjugate(self, x: float) -> float:
        # psi*(x) = (sigma2/c^2) h(cx/sigma2) with h(u) = 1 + u - sqrt(1 + 2u),
        # evaluated as x^2 / (sigma2 (1 + u + sqrt(1 + 2u))) with one x last:
        # no cancellation at small u, no c^2 to underflow, no x^2 to overflow.
        u = self.c * x / self.sigma2
        if u > _HALF_MAX:
            # 2u (or u itself) overflows: expand in t = x/c without forming u,
            # psi* = t + sigma2/c^2 - (sigma/c) sqrt(2) sqrt(t) sqrt(1 + sigma2/(2cx)).
            # psi* >= t/2 here, so it is +inf with t (where inf - inf would be NaN).
            t = x / self.c
            if t == math.inf:
                return math.inf
            return (t + self.sigma2 / (self.c * self.c)
                    - math.sqrt(self.sigma2) / self.c * math.sqrt(2.0) * math.sqrt(t)
                    * math.sqrt(1.0 + self.sigma2 / (2.0 * self.c * x)))
        return x / self.sigma2 / (1.0 + u + math.sqrt(1.0 + 2.0 * u)) * x

    def _inverse_conjugate(self, info: float) -> float:
        return math.sqrt(2.0 * self.sigma2 * info) + self.c * info

    def _derivatives(self, lam: float) -> Tuple[float, float, float]:
        """psi, psi' = sigma2 lam (2 - c lam) / (2 u**2) and psi'' = sigma2 / u**3,
        u = 1 - c lam, at a float lam in [0, domain_sup)."""
        u = 1.0 - self.c * lam
        half = 0.5 * lam * self.sigma2 / u
        return half * lam, half * (1.0 + u) / u, self.sigma2 / (u * u * u)


class Tabulated(CgfEnvelope):
    """Envelope given on a grid; linear interpolation inside, +inf beyond.

    The grid must start at (0, 0), be strictly increasing in lambda, have
    nondecreasing convex values, and a near-zero slope at the origin.
    evaluate(lambda_max) returns the last tabulated value; strictly beyond
    the grid the envelope is +inf.  Both conjugates are exact reductions
    over the knots (lambda_max included).
    """

    def __init__(self, lams: Sequence[float], psis: Sequence[float]):
        lams = np.asarray(lams, dtype=float)
        psis = np.asarray(psis, dtype=float)
        if lams.ndim != 1 or lams.shape != psis.shape or lams.size < 2:
            raise ValueError("grid must be two equal-length 1-D arrays with >= 2 points")
        if not np.all(np.diff(lams) > 0):
            raise ValueError("lambda grid must be strictly increasing")
        if abs(lams[0]) > 0 or abs(psis[0]) > 1e-12:
            raise ValueError("grid must start at (0, 0)")
        if not np.all(np.diff(psis) >= -1e-12):
            raise ValueError("envelope values must be nondecreasing")
        slopes = np.diff(psis) / np.diff(lams)
        if np.any(np.diff(slopes) < -1e-9 * (1.0 + np.abs(slopes[:-1]))):
            raise ValueError("envelope values must be convex")
        if slopes[0] > _ORIGIN_SLOPE_TOL:
            raise ValueError("slope at the origin must be (near) zero")
        self._lams = lams
        self._psis = psis

    @property
    def domain_sup(self) -> float:
        return float(self._lams[-1])

    def _psi(self, lam: float) -> float:
        if lam > self._lams[-1]:
            return math.inf
        return float(np.interp(lam, self._lams, self._psis))

    def _conjugate(self, x: float) -> float:
        # lam*x - psi(lam) is linear between knots, so its sup is at a knot;
        # both reductions overflow to inf, quietly, at huge arguments
        with np.errstate(over="ignore"):
            return float(np.max(self._lams[1:] * x - self._psis[1:],
                                initial=max(0.0, -self._psis[0])))

    def _inverse_conjugate(self, info: float) -> float:
        # on a segment (psi(lam) + info)/lam = slope + a/lam is monotone in
        # lam, so its infimum over (0, lambda_max] is at a knot lam_j > 0
        with np.errstate(over="ignore"):
            return float(np.min((self._psis[1:] + info) / self._lams[1:]))

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load a grid from CSV with header line ``lambda,psi``."""
        table = Table(path)
        if len(table.header) != 2:
            raise ValueError(f"{path}: line 1: expected two columns, lambda,psi")
        lams, psis = table.floats().T
        return cls(lams, psis)


class MixedEnvelope(CgfEnvelope):
    """Convex combination of envelopes: psi(lam) = sum_i w_i psi_i(lam).

    Weights must be nonnegative and sum to 1 within 1e-9.  A zero-weight
    component adds nothing: domain_sup is the minimum over the positive-weight
    components only.  Homogeneous mixtures collapse to a closed-form member
    (sub-Gaussian, sub-gamma with shared c, or sub-exponential); other
    mixtures of those three families solve for the optimum by Newton, and
    anything else evaluates conjugates numerically.
    """

    def __init__(self, components: Sequence[Tuple[float, CgfEnvelope]]):
        components = [(float(w), env) for w, env in components]
        if not components:
            raise ValueError("mixture needs at least one component")
        _as_prob_vector([w for w, _ in components], "mixture weights")
        self.components = tuple(components)
        active = [(w, env) for w, env in components if w > 0]
        self._domain_sup = sup = min(env.domain_sup for _, env in active)
        self._terms = tuple((w, env._psi) for w, env in active)
        # finite at lam == domain_sup only if every term is
        self._boundary_finite = math.isfinite(sup) and all(
            math.isfinite(psi(sup)) for _, psi in self._terms)
        # (weight, _derivatives) per term for Newton; None: numeric searches
        self._derivative_terms = None
        collapsed = self._collapse(active)
        if collapsed is not None:  # its closed forms are the mixture's
            self._conjugate = collapsed._conjugate
            self._inverse_conjugate = collapsed._inverse_conjugate
        elif all(isinstance(e, (SubGaussian, SubExponential, SubGamma))
                 for _, e in active):
            self._derivative_terms = tuple((w, env._derivatives) for w, env in active)

    @property
    def domain_sup(self) -> float:
        return self._domain_sup

    def _psi(self, lam: float) -> float:
        if lam > self._domain_sup or (lam == self._domain_sup
                                      and not self._boundary_finite):
            return math.inf
        return sum(w * psi(lam) for w, psi in self._terms)

    def _derivatives(self, lam: float) -> Tuple[float, float, float]:
        psi = d1 = d2 = 0.0
        for w, derivatives in self._derivative_terms:
            f, f1, f2 = derivatives(lam)
            psi += w * f
            d1 += w * f1
            d2 += w * f2
        return psi, d1, d2

    # The Newton starts below are the optima of the sub-gamma envelope with
    # variance psi''(0) and its pole at domain_sup.  That envelope's psi''
    # bounds every term's from above, so its optimum lies left of the
    # mixture's, where the first Newton step moves right.  A mixture that
    # does not collapse has a capped term, so domain_sup is finite.

    def _inverse_conjugate(self, info: float) -> float:
        if self._derivative_terms is None:
            return self._inverse_conjugate_numeric(info)
        if not info < math.inf:  # +inf or NaN
            return info

        def excess(lam):  # lam psi'(lam) - psi(lam), increasing and convex
            psi, d1, d2 = self._derivatives(lam)
            return lam * d1 - psi, lam * d2

        lam = self._domain_sup * (1.0 - _BOUNDARY_SHRINK)
        # NaN: inf - inf where lam psi'(lam) overflows, so the root is inside
        if not excess(lam)[0] <= info:  # else the objective still falls at the end
            start = math.sqrt(2.0 * info / self._derivatives(0.0)[2])
            lam = increasing_root(excess, info, start / (1.0 + start / self._domain_sup),
                                  lam)
        return (self._psi(lam) + info) / lam

    def _conjugate(self, x: float) -> float:
        if self._derivative_terms is None:
            return self._conjugate_numeric(x)
        if not x < math.inf:  # +inf or NaN
            return x

        def slope(lam):  # psi'(lam), increasing and convex
            return self._derivatives(lam)[1:]

        lam = self._domain_sup * (1.0 - _BOUNDARY_SHRINK)
        if not slope(lam)[0] <= x:  # else lam x - psi(lam) still rises at the end
            s2 = self._derivatives(0.0)[2]
            r = math.sqrt(1.0 + 2.0 * x / (s2 * self._domain_sup))
            lam = increasing_root(slope, x, 2.0 * x / (s2 * r * (1.0 + r)), lam)
        return max(lam * x - self._psi(lam), 0.0)

    @staticmethod
    def _collapse(active):
        if all(isinstance(e, SubGaussian) for _, e in active):
            s2 = sum(w * e.sigma ** 2 for w, e in active)
            return SubGaussian(math.sqrt(s2))
        if all(isinstance(e, SubGamma) for _, e in active):
            cs = {e.c for _, e in active}
            if len(cs) == 1:
                s2 = sum(w * e.sigma2 for w, e in active)
                return SubGamma(s2, cs.pop())
        if all(isinstance(e, SubExponential) for _, e in active):
            s2 = sum(w * e.sigma ** 2 for w, e in active)
            return SubExponential(math.sqrt(s2), max(e.b for _, e in active))
        return None


class _PointwiseMax(CgfEnvelope):
    """psi(lam) = max_i psi_i(lam) on the smallest domain_sup: conjugates
    numeric only."""

    def __init__(self, envelopes: Sequence[CgfEnvelope]):
        if not envelopes:
            raise ValueError("need at least one envelope")
        self._envs = tuple(envelopes)
        self._domain = min(e.domain_sup for e in self._envs)

    @property
    def domain_sup(self) -> float:
        return self._domain

    def _psi(self, lam: float) -> float:
        return max(e._psi(lam) for e in self._envs)


def subexponential_piecewise_bound(sigma: float, b: float, info: float) -> float:
    """Piecewise closed form for the sub-exponential deviation scale.

    sigma*sqrt(2 I) for I <= sigma^2/(2b), else b I + sigma^2/(2 b^2).  Kept
    as printed for comparison; it matches the numeric inverse conjugate only
    at b = 1 (the numeric minimization is the canonical value).
    """
    if not sigma > 0 or not b > 0:
        raise ValueError("sigma and b must be positive")
    s2 = sigma * sigma

    def scale(info: float) -> float:
        if info <= s2 / (2.0 * b):
            return sigma * math.sqrt(2.0 * info)
        return b * info + s2 / (2.0 * b) / b

    return _nonnegative(scale, info, _NEGATIVE_INFO)
