"""Bias bounds for adaptively selected means, and expected-max baselines.

The selected-mean bias E[phi_T - mu_T] is controlled two ways:

* MGF route (one-sided): a mixture envelope psi_bar(lam) = E_T psi_T(lam)
  gives bias <= (psi_bar*)^{-1}(I) at information budget I = I(T; data).
* Moment route (two-sided): |bias| <= ||sigma_T||_beta * I_alpha^{1/alpha}
  with 1/alpha + 1/beta = 1, where sigma_i caps the beta-th moment of the
  i-th centered coordinate.

Expected-maximum baselines (the non-adaptive worst case) are included for
calibration; they bound E[max_i Z_i], not the bias of a general rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _csv
from .cgf import (_NEGATIVE_INFO, CgfEnvelope, MixedEnvelope, _PointwiseMax,
                  _nonnegative)
from .divergence import _on_support
from .orlicz import OrliczFunction

__all__ = [
    "weighted_beta_norm",
    "mgf_bound",
    "pnorm_bound",
    "pnorm_uniform_bound",
    "UniformPnormBound",
    "gaussian_bound",
    "max_inequality_cgf_bound",
    "max_inequality_pnorm_bound",
    "max_inequality_orlicz_bound",
    "conjugate_exponent",
    "BoundReport",
]


def conjugate_exponent(beta: float) -> float:
    """alpha with 1/alpha + 1/beta = 1; beta = inf gives alpha = 1."""
    beta = float(beta)
    if not beta > 1:
        raise ValueError("beta must be > 1")
    if math.isinf(beta):
        return 1.0
    return beta / (beta - 1.0)


def weighted_beta_norm(sigmas, p_t=None, beta: float = 2.0) -> float:
    """||sigma_T||_beta = (sum_i p_i sigma_i^beta)^(1/beta) over the support of
    p (uniform without p_t; one sigma for all cells); the max for beta = inf."""
    beta = float(beta)
    if not beta >= 1:
        raise ValueError("beta must be >= 1")
    s = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if s.size == 0:
        raise ValueError("sigma needs at least one value")
    if not np.all(s >= 0):
        raise ValueError("sigma values must be nonnegative")
    if p_t is None:
        p_t = np.full(s.size, 1.0 / s.size)
    elif s.size == 1:
        s = np.full(np.size(p_t), s[0])
    p, s = _on_support(p_t, s, what="p_t")
    top = float(s.max())
    if math.isinf(beta) or not 0.0 < top < math.inf:
        return top
    # max sigma factored out, so that sigma^beta cannot overflow
    return top * float(np.sum(p * (s / top) ** beta) ** (1.0 / beta))


def mgf_bound(envelopes: Sequence[CgfEnvelope], p_t, info: float) -> float:
    """Mixture-envelope bound (psi_bar*)^{-1}(info) with psi_bar = E_T psi_T."""
    p = np.asarray(p_t, dtype=float)
    envelopes = list(envelopes)
    if p.ndim != 1 or len(envelopes) != p.size:
        raise ValueError("p_t length must match the number of envelopes")
    mix = MixedEnvelope(list(zip(p.tolist(), envelopes)))
    return mix.inverse_conjugate(info)


def pnorm_bound(sigmas, p_t, beta: float, i_alpha: float) -> float:
    """Moment-route bound ||sigma_T||_beta * i_alpha^(1/alpha) on |bias|."""
    if not i_alpha >= 0:
        raise ValueError("i_alpha must be nonnegative")
    alpha = conjugate_exponent(beta)
    return weighted_beta_norm(sigmas, p_t, beta) * i_alpha ** (1.0 / alpha)


@dataclass(frozen=True)
class UniformPnormBound:
    value: float
    loose: float


def pnorm_uniform_bound(sigmas, beta: float, n: int, p_t=None) -> UniformPnormBound:
    """Marginal-free cap on the moment-route bound over all joints on n cells.

    beta = 2 gives ||sigma||_2 sqrt(n-1); beta in (2, inf] gives
    ||sigma||_beta (1 + n^(alpha-1))^(1/alpha) together with the looser
    2^(1/alpha) ||sigma||_beta n^(1/beta), with ||sigma||_beta under p_t, or
    without it max sigma, the worst case over all marginals.  No uniform cap
    exists for beta < 2, so that range is refused.  p_t has n entries, sigmas 1 or n.
    """
    beta = float(beta)
    if not beta >= 2:
        raise ValueError("no uniform bound exists for beta < 2")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if p_t is not None and np.size(p_t) != n:
        raise ValueError(f"p_t has {np.size(p_t)} entries, not n = {n}")
    if np.size(sigmas) not in (1, n):
        raise ValueError(f"sigma has {np.size(sigmas)} values, not 1 or n = {n}")
    alpha = conjugate_exponent(beta)
    norm = weighted_beta_norm(sigmas if p_t is not None else np.max(sigmas), p_t, beta)
    if beta == 2.0:
        value = norm * math.sqrt(n - 1.0)
    else:
        value = norm * (1.0 + n ** (alpha - 1.0)) ** (1.0 / alpha)
    n_pow = 1.0 if math.isinf(beta) else n ** (1.0 / beta)
    loose = 2.0 ** (1.0 / alpha) * norm * n_pow
    return UniformPnormBound(value=value, loose=loose)


def gaussian_bound(sigmas, info: float, p_t=None) -> float:
    """Sub-Gaussian closed form ||sigma_T||_2 * sqrt(2 * info)."""
    info = _nonnegative(float, info, _NEGATIVE_INFO)  # +0.0 at -0.0
    return weighted_beta_norm(sigmas, p_t, 2.0) * math.sqrt(2.0 * info)


def max_inequality_cgf_bound(envelopes: Sequence[CgfEnvelope], n: int) -> float:
    """Chernoff baseline for E[max of n coordinates]: (max_i psi_i)*^{-1}(ln n)."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    envelopes = list(envelopes)
    if len(envelopes) == 1:
        return envelopes[0].inverse_conjugate(math.log(n))
    return _PointwiseMax(envelopes).inverse_conjugate(math.log(n))


def max_inequality_pnorm_bound(sigma_max: float, beta: float, n: int) -> float:
    """Moment baseline n^(1/beta) * sigma_max for E[max |Z_i|]."""
    if not sigma_max >= 0:
        raise ValueError("sigma_max must be nonnegative")
    beta = float(beta)
    if not beta >= 1:
        raise ValueError("beta must be >= 1")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    n_pow = 1.0 if math.isinf(beta) else n ** (1.0 / beta)
    return n_pow * sigma_max


def max_inequality_orlicz_bound(sigma: float, psi: OrliczFunction, n: int) -> float:
    """Orlicz baseline sigma * psi^{-1}(n) for E[max |Z_i|] under a psi-norm cap."""
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return sigma * psi.inverse(float(n))


_SE_SLACK = 3.0  # standard errors: of bias for a ratio, of shortfall for dominance


def _resolved(bias, stderr) -> bool:
    """Whether the bias is positive beyond ``_SE_SLACK`` standard errors."""
    return bias is not None and stderr is not None and bias > _SE_SLACK * stderr


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, np.integer):
        obj = int(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(payload) -> str:
    """A report as indented JSON: numpy scalars as numbers, non-finite as null."""
    return json.dumps(_json_safe(payload), indent=2) + "\n"


@dataclass
class BoundReport:
    """Assembled record of bounds, empirical bias, and dependence estimates.

    ``bounds`` entries carry a ``side`` label: moment-route bounds control
    |bias| (two_sided), MGF-route bounds control the signed upper tail
    (upper), and expected-max baselines control E[max] (expected_max);
    printed_form marks a formula reported for comparison, not as a bound.
    Ratios bound/bias are reported only when the empirical bias is positive
    beyond three standard errors; dominance verdicts allow that slack.
    """

    meta: Dict = field(default_factory=dict)
    empirical: Optional[Dict] = None          # {"bias": float, "stderr": float}
    dependence: Optional[Dict] = None         # {"I": float, "I_alpha": {str: float}}
    bounds: List[Dict] = field(default_factory=list)

    def add_bound(self, name: str, value: float, side: str = "two_sided") -> None:
        self.bounds.append({"name": name, "value": float(value), "side": side})

    def _bias_stderr(self) -> Tuple[Optional[float], Optional[float]]:
        if not self.empirical:
            return None, None
        return self.empirical.get("bias"), self.empirical.get("stderr")

    def ratios(self) -> List[Optional[float]]:
        bias, stderr = self._bias_stderr()
        resolved = _resolved(bias, stderr)
        return [entry["value"] / bias if resolved else None for entry in self.bounds]

    def to_dict(self) -> Dict:
        bias, stderr = self._bias_stderr()
        bounds_out = []
        for entry in self.bounds:
            e = dict(entry)
            if bias is not None and stderr is not None:
                # no verdict on a value or a slack that is not a number
                e["dominates"] = bool(
                    math.isfinite(entry["value"]) and math.isfinite(stderr)
                    and entry["value"] >= bias - _SE_SLACK * stderr)
            bounds_out.append(e)
        return _json_safe({
            "meta": self.meta,
            "empirical": self.empirical,
            "dependence": self.dependence,
            "bounds": bounds_out,
            "ratios": self.ratios(),
        })

    def to_json(self) -> str:
        return _json_text(self.to_dict())

    def to_csv(self) -> str:
        """One header line and one row of the sections in order: meta,
        empirical (blank bias and stderr if none), dependence (nested keys
        joined by ``_``), then ``bound_<name>`` (``printed_<name>`` for a
        printed form) and ``ratio_<name>`` per entry."""
        cells = list(self.meta.items())
        cells += (self.empirical or {"bias": None, "stderr": None}).items()
        for key, value in (self.dependence or {}).items():
            if isinstance(value, dict):
                cells += ((f"{key}_{sub}", v) for sub, v in value.items())
            else:
                cells.append((key, value))
        for entry, ratio in zip(self.bounds, self.ratios()):
            kind = "printed" if entry["side"] == "printed_form" else "bound"
            cells += ((f"{kind}_{entry['name']}", entry["value"]),
                      (f"ratio_{entry['name']}", ratio))
        header, row = zip(*cells)
        return _csv.write(header, [row])
