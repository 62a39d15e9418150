"""Finite phi-divergences and dependence measures for discrete joints.

All information is measured in nats.  Zero-mass conventions: 0 * phi(0/0) = 0,
and a cell with q = 0 < p contributes p * slope_at_infinity (infinite for
superlinear generators).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from . import _csv
from ._csv import Table
from ._special import xlogx

__all__ = [
    "PhiGenerator",
    "kl_generator",
    "abs_power_generator",
    "custom_generator",
    "DiscreteJoint",
    "phi_divergence",
    "mutual_information",
    "alpha_mutual_information",
    "alpha_mi_marginal_bound",
    "alpha_mi_cardinality_bound",
    "phi_mi_marginal_bound",
    "load_probability_vector",
    "save_probability_vector",
]

_MASS_ATOL = 1e-12


class PhiGenerator:
    """Convex generator phi with phi(1) = 0 for f-divergences.

    Parameters
    ----------
    fn : callable
        Vectorized map on nonnegative arrays.
    phi_at_zero : float
        phi(0), possibly +inf.
    slope_at_infinity : float
        lim phi(x)/x as x -> inf; +inf for superlinear generators.
    name : str
    """

    def __init__(self, fn: Callable, phi_at_zero: float,
                 slope_at_infinity: float = math.inf, name: str = "custom"):
        self._fn = fn
        self.phi_at_zero = float(phi_at_zero)
        self.slope_at_infinity = float(slope_at_infinity)
        self.name = name

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def __repr__(self):
        return f"PhiGenerator({self.name})"


def kl_generator() -> PhiGenerator:
    """phi(x) = x ln x - x + 1 (KL divergence in nats)."""
    def fn(x):
        return xlogx(x) - x + 1.0
    return PhiGenerator(fn, phi_at_zero=1.0, slope_at_infinity=math.inf, name="kl")


def abs_power_generator(alpha: float) -> PhiGenerator:
    """phi_alpha(x) = |x - 1|**alpha for alpha >= 1."""
    alpha = float(alpha)
    if not alpha >= 1:
        raise ValueError("alpha must be >= 1")

    def fn(x):
        return np.power(np.abs(x - 1.0), alpha)

    slope = math.inf if alpha > 1 else 1.0
    return PhiGenerator(fn, phi_at_zero=1.0, slope_at_infinity=slope,
                        name=f"abs_power({alpha:g})")


def custom_generator(fn: Callable, phi_at_zero: float,
                     slope_at_infinity: float = math.inf,
                     name: str = "custom") -> PhiGenerator:
    """Wrap a user generator, checking phi(1) = 0 and sampled convexity."""
    gen = PhiGenerator(fn, phi_at_zero, slope_at_infinity, name)
    at_one = float(gen(1.0))
    if abs(at_one) > 1e-12:
        raise ValueError(f"phi(1) must be 0, got {at_one!r}")
    grid = np.linspace(1e-6, 8.0, 161)
    vals = gen(grid)
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    if np.any(second < -1e-9 * (1.0 + np.abs(vals[1:-1]))):
        raise ValueError("generator fails sampled convexity check")
    return gen


def _as_measure(x) -> np.ndarray:
    if isinstance(x, DiscreteJoint):
        return x.p
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0):
        raise ValueError("measure entries must be nonnegative")
    return arr


def _as_prob_vector(p, what: str = "probabilities") -> np.ndarray:
    """p as a 1-D array, nonnegative and summing to 1 within 1e-9."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a 1-D probability vector")
    if not np.all(p >= 0):
        raise ValueError(f"{what} must be nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{what} must sum to 1, got {total!r}")
    return p


def _on_support(p, *arrays, what: str = "probabilities"):
    """The probability vector p and each array of ``arrays``, one entry per
    cell of p, on the cells where p > 0: a cell of zero weight adds nothing."""
    p = _as_prob_vector(p, what)
    if any(a.shape != p.shape for a in arrays):
        raise ValueError(f"{what} must have one entry per value")
    keep = p > 0
    return (p[keep], *(a[keep] for a in arrays))


class DiscreteJoint:
    """Immutable finite joint distribution with cached marginals.

    The first axis indexes the selected coordinate T, the second the probe
    symbol.  Entries must be nonnegative and sum to 1 within 1e-12.
    """

    def __init__(self, p, row_labels: Optional[Sequence[str]] = None,
                 col_labels: Optional[Sequence[str]] = None):
        p = np.array(p, dtype=float)
        if p.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if not np.all(p >= 0):
            raise ValueError("joint table entries must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _MASS_ATOL:
            raise ValueError(f"joint table mass must be 1 within 1e-12, got {total!r}")
        p.setflags(write=False)
        self.p = p
        self.p_rows = p.sum(axis=1)
        self.p_cols = p.sum(axis=0)
        self.row_labels = tuple(row_labels) if row_labels is not None else tuple(
            f"t{i}" for i in range(p.shape[0]))
        self.col_labels = tuple(col_labels) if col_labels is not None else tuple(
            f"b{j}" for j in range(p.shape[1]))
        if len(self.row_labels) != p.shape[0] or len(self.col_labels) != p.shape[1]:
            raise ValueError("label lengths must match the table shape")

    @property
    def n_rows(self) -> int:
        return self.p.shape[0]

    @property
    def n_cols(self) -> int:
        return self.p.shape[1]

    def product_of_marginals(self) -> np.ndarray:
        return np.outer(self.p_rows, self.p_cols)

    def merge_cols(self, j: int, k: int) -> "DiscreteJoint":
        """Coarsen the probe axis by pooling columns j and k (j keeps the slot)."""
        if j == k:
            raise ValueError("cannot merge a column with itself")
        q = np.array(self.p)
        q[:, j] = q[:, j] + q[:, k]
        q = np.delete(q, k, axis=1)
        labels = list(self.col_labels)
        labels[j] = f"{labels[j]}+{labels[k]}"
        del labels[k]
        return DiscreteJoint(q, self.row_labels, labels)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            rows = ([label, *row] for label, row in zip(self.row_labels, self.p))
            fh.write(_csv.write(["", *self.col_labels], rows))

    @classmethod
    def from_csv(cls, path) -> "DiscreteJoint":
        table = Table(path)
        if len(table.header) < 2:
            raise ValueError(f"{path}: line 1: expected a header row with column labels")
        return cls(table.floats(1), [row[0] for row in table.rows], table.header[1:])


def phi_divergence(p, q, gen: PhiGenerator) -> float:
    """D_phi(p || q) = sum_i q_i phi(p_i / q_i) over matching finite measures."""
    p = _as_measure(p)
    q = _as_measure(q)
    if p.shape != q.shape:
        raise ValueError("p and q must have the same shape")
    p = p.ravel()
    q = q.ravel()
    pos = q > 0
    total = float(np.sum(q[pos] * gen(p[pos] / q[pos])))
    escaped = float(p[~pos].sum())
    if escaped > 0:
        if math.isinf(gen.slope_at_infinity):
            return math.inf
        total += gen.slope_at_infinity * escaped
    return total


def _underflowed_cells(joint: DiscreteJoint, prod: np.ndarray):
    """p, log w and log(L - 1) at the cells with mass p where prod, the
    product of marginals, underflowed to w = 0 in floats, with L = p / w;
    None if there is no such cell.

    log w = log p_row + log p_col; p >= 2**-1074 > 2 w there, so L > 2 and
    log(L - 1) = log L + log(1 - 1/L).
    """
    lost = (joint.p > 0) & (prod == 0)
    if not lost.any():
        return None
    rows, cols = np.nonzero(lost)
    p = joint.p[rows, cols]
    log_w = np.log(joint.p_rows[rows]) + np.log(joint.p_cols[cols])
    log_l = np.log(p) - log_w
    return p, log_w, log_l + np.log(-np.expm1(-log_l))


def mutual_information(joint: DiscreteJoint) -> float:
    """I(T; probe) in nats, the KL divergence from the product of marginals.

    A cell with mass whose product of marginals underflows to 0 adds
    p (log p - log p_row - log p_col) (``_underflowed_cells``).
    """
    j = joint.p
    prod = joint.product_of_marginals()
    mask = (j > 0) & (prod > 0)
    val = float(np.sum(j[mask] * (np.log(j[mask]) - np.log(prod[mask]))))
    lost = _underflowed_cells(joint, prod)
    if lost is not None:
        p, log_w, _ = lost
        val += float(np.sum(p * (np.log(p) - log_w)))
    return max(val, 0.0)


def alpha_mutual_information(joint: DiscreteJoint, alpha: float) -> float:
    """I_alpha(T; probe): the |x-1|^alpha divergence from the product measure.

    A cell with mass whose product of marginals w underflows to 0 adds
    w (L - 1)**alpha, taken from logs (``_underflowed_cells``).
    """
    if not alpha >= 1:
        raise ValueError("alpha must be >= 1")
    prod = joint.product_of_marginals()
    mask = prod > 0
    val = phi_divergence(joint.p[mask], prod[mask], abs_power_generator(alpha))
    lost = _underflowed_cells(joint, prod)
    if lost is not None:
        _, log_w, log_l1 = lost
        val += float(np.sum(np.exp(log_w + alpha * log_l1)))
    return max(val, 0.0)


def _two_point_alpha(k: int, m: int, alpha: float) -> float:
    """E|L - 1|^alpha for L = m/k with probability k/m, else 0 (1 <= k <= m):
    I_alpha when T is, given the data, uniform on k of m equally likely cells;
    math.inf where it exceeds the largest double."""
    try:
        return k / m * ((m - k) / k) ** alpha + (m - k) / m
    except OverflowError:
        return math.inf


def alpha_mi_marginal_bound(p_t, alpha: float) -> float:
    """Largest possible I_alpha given the T-marginal p_t.

    ``phi_mi_marginal_bound`` under phi(x) = |x - 1|^alpha, that is
    1 + sum_i p_i^2 (|1/p_i - 1|^alpha - 1); attained exactly when T is a
    deterministic function of the other coordinate.
    """
    return phi_mi_marginal_bound(p_t, abs_power_generator(alpha))


def alpha_mi_cardinality_bound(n: int, alpha: float) -> float:
    """Worst-case I_alpha over all T-marginals on n symbols, for alpha in [1, 2].

    ((n-1)/n) * ((n-1)^(alpha-1) + 1), from a uniform T that is a function of
    the data (L = n with probability 1/n, else 0), which attains it.  Outside
    alpha in [1, 2] the uniform marginal is no longer extremal, so the formula
    is refused rather than silently wrong.
    """
    if not (1.0 <= alpha <= 2.0):
        raise ValueError("cardinality bound requires 1 <= alpha <= 2")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _two_point_alpha(1, n, alpha)


def phi_mi_marginal_bound(p_t, gen: PhiGenerator) -> float:
    """Largest possible D_phi(joint || product) given the T-marginal p_t.

    phi(0) (1 - sum p_i^2) + sum p_i^2 phi(1/p_i), requiring finite phi(0).
    For the KL generator this is exactly the Shannon entropy of p_t.
    """
    if not math.isfinite(gen.phi_at_zero):
        raise ValueError("marginal bound needs a generator with finite phi(0)")
    p = _as_prob_vector(p_t)
    pos = p[p > 0]
    val = gen.phi_at_zero * (1.0 - float(np.sum(p ** 2)))
    val += float(np.sum(pos ** 2 * gen(1.0 / pos)))
    return max(val, 0.0)


def load_probability_vector(path) -> np.ndarray:
    """Read a one-column CSV (header ``p``) as a probability vector."""
    table = Table(path)
    if len(table.header) != 1:
        raise ValueError(f"{path}: line 1: expected one column, p")
    return _as_prob_vector(table.floats()[:, 0])


def save_probability_vector(p, path) -> None:
    p = _as_prob_vector(p)
    with open(path, "w", newline="") as fh:
        fh.write(_csv.write(["p"], ([v] for v in p)))
