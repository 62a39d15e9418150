"""Seeded Monte Carlo for selection bias, with its bound table.

Each trial t draws n i.i.d. coordinates from a measurement model via the
inverse-CDF transform of uniforms, applies a selection rule to pick an index
T, and records phi_T.  Seed contract: trial t's uniforms are draws t*W ..
t*W + n - 1 of Generator(PCG64DXSM(seed)), W = n + extra; top-k and softmax
(extra = 1) take draw t*W + n for their random choice.  PCG64DXSM jumps
ahead any k draws exactly, in O(log k) steps (O'Neill, HMC-CS-2014-0905), so
a chunk of trials starts at its first draw directly, and results are
bit-identical for any ``workers`` value and any subset of trials.
Consecutive trials lie end to end in the stream, so a tile of trials is one
generator call; rules and models act on whole tiles, row by row.  Softmax's
per-trial dependence terms are summed in trial order within each chunk of
1024 trials, then chunk by chunk.  Sweep rows with different n read the one
stream at different per-trial offsets (W grows with n), so their draws
overlap and the rows are not independent of each other.

Rules that depend only on the ordering of coordinates (argmax, argmin,
fixed, top-k) are applied to the uniforms directly: a strictly increasing
inverse CDF cannot change which index is selected, so only the selected
uniform ever passes through the inverse CDF, which is closed-form for every
built-in model.  The Gaussian quantile and the Wright omega function behind
the heavy-tail one are computed in numpy by ``_special``: AS241 for the
former, within 5 ulp of 40-digit values, and Algorithm 917's real branch for
the latter, within 32 ulp, the bounds scipy's versions also meet.

Each model states its own facts (mean, CGF envelope, moment cap, norming
constant a_n) and each rule its own law of L = dP_{T,X} / d(P_T x P_X)
where that has a closed form (argmax, argmin, fixed, top-k): given the data,
T is uniform on k of m equally likely cells, so L = m/k with probability
k/m and 0 otherwise.  ``run_experiment`` alone turns (k, m) into I and
I_alpha, and ``bounds_for`` turns the facts into the named bounds that
``simulate`` reports and ``sweep`` tabulates.  Only softmax has its
dependence estimated, from q = P(T | data) in the same pass as the
selection.  Every model is i.i.d. and softmax treats all indices alike, so
P(T = i) = 1/n exactly and both measures are trial averages:
I = ln n + E[sum_i q_i ln q_i] and I_alpha = E[sum_i (1/n) |n q_i - 1|^alpha].
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in the first trial

from . import _csv
from ._special import ndtri, wrightomega, xlogx
from .bounds import (_resolved, conjugate_exponent, max_inequality_cgf_bound,
                     max_inequality_pnorm_bound, pnorm_bound, pnorm_uniform_bound)
from .cgf import CgfEnvelope, SubGamma, SubGaussian
from .divergence import _two_point_alpha

__all__ = [
    "GaussianIID",
    "ExponentialIID",
    "HeavyTailIID",
    "ArgMax",
    "ArgMin",
    "FixedIndex",
    "TopKUniform",
    "SoftMax",
    "run_experiment",
    "ExperimentResult",
    "bounds_for",
    "heavy_tail_beta_norm",
    "frechet_mean",
    "tightness_sweep",
    "SweepRow",
    "sweep_to_csv",
    "SWEEP_CSV_HEADER",
]

_CHUNK = 1024  # trials per chunk: a thread's unit of work, and softmax's unit of summing
_TILE = 8192  # doubles per tile (64 KiB); a tile has max(1, _TILE // W) trials


# ---------------------------------------------------------------------------
# measurement models

@dataclass(frozen=True)
class GaussianIID:
    """n i.i.d. Gaussian coordinates."""

    mu: float = 0.0
    sigma: float = 1.0
    n: int = 10

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def norming_constant(self) -> float:
        """a_n = mu + sigma * sqrt(2 ln n), the leading term of E[max]."""
        return self.mu + self.sigma * math.sqrt(2.0 * math.log(self.n))

    def inverse_cdf(self, u):
        return self.mu + self.sigma * ndtri(u)

    @property
    def cgf_envelope(self) -> CgfEnvelope:
        return SubGaussian(self.sigma)

    @property
    def moment_cap(self) -> Tuple[float, float]:
        """(beta, sigma) with ||X - mean||_beta <= sigma."""
        return 2.0, self.sigma

    @property
    def label(self) -> str:
        return f"gaussian(mu={self.mu:g},sigma={self.sigma:g})"


@dataclass(frozen=True)
class ExponentialIID:
    """n i.i.d. exponential coordinates with the given rate."""

    rate: float = 1.0
    n: int = 10

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        try:  # cgf_envelope's variance 1/rate^2 must be a positive finite double
            ok = 0.0 < 1.0 / self.rate ** 2 < math.inf
        except (ZeroDivisionError, OverflowError):  # 1/0, or rate ** 2 overflows
            ok = False
        if not ok:
            raise ValueError("rate must lie in about (7.5e-155, 1.3e154)")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def norming_constant(self) -> float:
        """a_n = ln(n) / rate, the 1 - 1/n quantile without rounding 1 - 1/n."""
        return math.log(self.n) / self.rate

    def inverse_cdf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    @property
    def cgf_envelope(self) -> CgfEnvelope:
        # centered exponential is sub-gamma with variance 1/rate^2, scale 1/rate
        return SubGamma(1.0 / self.rate ** 2, 1.0 / self.rate)

    @property
    def moment_cap(self) -> Tuple[float, float]:
        """(beta, sigma) with ||X - mean||_beta <= sigma."""
        return 2.0, 1.0 / self.rate

    @property
    def label(self) -> str:
        return f"exponential(rate={self.rate:g})"


@dataclass(frozen=True)
class HeavyTailIID:
    """n i.i.d. draws with survival x0^beta (ln x0)^c / (x^beta (ln x)^c).

    Supported on [x0, inf) with x0 > e^(1/beta); beta > 1 keeps the mean
    finite and c > 1 keeps the beta-th moment finite (barely: the tail sits
    at the integrability edge, which is what makes the moment-route bound
    nearly tight for argmax selection).  The quantile at survival S solves
    beta*y + c*ln(y) = ln K0 - ln S for y = ln x (K0 = x0^beta (ln x0)^c):
    (beta/c)*y = omega((ln K0 - ln S)/c + ln(beta/c)), omega the Wright omega.
    """

    beta: float = 3.0
    c: float = 2.0
    x0: float = math.e
    n: int = 10

    def __post_init__(self):
        if not self.beta > 1:
            raise ValueError("beta must be > 1")
        if not self.c > 1:
            raise ValueError("c must be > 1")
        if not self.x0 > math.exp(1.0 / self.beta):
            raise ValueError("x0 must exceed e**(1/beta)")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def _log_x0(self) -> float:
        return math.log(self.x0)

    @property
    def _log_k0(self) -> float:
        # K0 = x0^beta (ln x0)^c normalizes the survival function at x0
        return self.beta * self._log_x0 + self.c * math.log(self._log_x0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        above = x > self.x0
        xa = x[above]
        log_surv = self._log_k0 - self.beta * np.log(xa) - self.c * np.log(np.log(xa))
        out[above] = -np.expm1(log_surv)
        return out if out.shape else float(out)

    def _quantile(self, log_s):
        # clamped to the support: at log_s = 0 rounding can land 1 ulp below x0
        z = (self._log_k0 - log_s) / self.c + math.log(self.beta / self.c)
        x = np.maximum(np.exp(self.c / self.beta * wrightomega(z)), self.x0)
        return float(x) if np.ndim(x) == 0 else x

    def inverse_cdf(self, u):
        """Quantile at u in [0, 1), from ln survival = log1p(-u)."""
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0) & (u < 1)):
            raise ValueError("inverse CDF is defined on [0, 1)")
        return self._quantile(np.log1p(-u))

    def inverse_survival(self, s):
        """x with survival(x) = s in (0, 1], accurate where 1 - s rounds."""
        s = np.asarray(s, dtype=float)
        if not np.all((s > 0) & (s <= 1)):
            raise ValueError("inverse survival is defined on (0, 1]")
        return self._quantile(np.log(s))

    @cached_property
    def mean(self) -> float:
        return heavy_tail_beta_norm(self, 1.0)

    @property
    def norming_constant(self) -> float:
        """a_n with survival(a_n) = 1/n (a_1 = x0), valid past n = 2**53."""
        return self.inverse_survival(1.0 / self.n)

    @property
    def cgf_envelope(self) -> Optional[CgfEnvelope]:
        return None  # polynomial tail: no finite exponential moment

    @cached_property
    def moment_cap(self) -> Tuple[float, float]:
        """(beta, ||X||_beta): the uncentered norm caps ||X - mean||_beta
        because |X - mean| <= X holds whenever mean <= 2 * x0."""
        return self.beta, heavy_tail_beta_norm(self)

    @property
    def label(self) -> str:
        return f"heavytail(beta={self.beta:g},c={self.c:g},x0={self.x0:g})"


# ---------------------------------------------------------------------------
# selection rules
#
# Rules act row-wise on a (rows, n) tile v of values: select(v, r, q) returns
# one index per row.  Randomized rules (deterministic = False) get r, one
# extra uniform per row.  law(n) checks the rule against n and gives the
# (k, m) for which, on any i.i.d. continuous model, T is uniform on k of m
# equally likely cells given the data, or None when there is no closed form;
# only then does the rule give conditional_probs(v), the (rows, n) matrix of
# P(T = i | row), which the engine computes once per tile and passes to select
# as q.  A rule with a law depends only on the coordinates' order and gets
# the uniforms as v; one without gets the model's values.  ``extreme`` rules
# pick the largest or smallest coordinate, so expected-max baselines apply.

def _alpha_key(alpha: float) -> str:
    """The label of I_alpha: ``:g`` where that reads back as alpha, else repr."""
    short = f"{float(alpha):g}"
    return short if float(short) == float(alpha) else repr(float(alpha))


@dataclass(frozen=True)
class ArgMax:
    deterministic = True
    extreme = True
    label = "argmax"

    def law(self, n):
        return 1, n

    def select(self, v, r=None, q=None):
        return np.argmax(v, axis=-1)  # ties resolve to the lowest index


@dataclass(frozen=True)
class ArgMin:
    deterministic = True
    extreme = True
    label = "argmin"

    def law(self, n):
        return 1, n

    def select(self, v, r=None, q=None):
        return np.argmin(v, axis=-1)


@dataclass(frozen=True)
class FixedIndex:
    index: int = 0
    deterministic = True
    extreme = False

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be nonnegative")

    @property
    def label(self) -> str:
        return f"fixed({self.index})"

    def law(self, n):
        if self.index >= n:
            raise ValueError("fixed index out of range")
        return 1, 1

    def select(self, v, r=None, q=None):
        return np.full(np.shape(v)[:-1], self.index)


@dataclass(frozen=True)
class TopKUniform:
    """Uniform choice among the k largest coordinates (ties: lowest index)."""

    k: int = 2
    deterministic = False
    extreme = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def label(self) -> str:
        return f"topk({self.k})"

    def law(self, n):
        if self.k > n:
            raise ValueError("top-k rule needs k <= n")
        return self.k, n

    def _top(self, v) -> np.ndarray:
        """The first k of a stable argsort of -v along the last axis.

        Only the candidates v >= (k-th largest) are sorted: each row's go into
        a padded row of keys -v in index order (padding +inf, after them), so
        a stable sort of that row keeps the lowest-index tie order.
        """
        v = np.asarray(v)
        n, k = v.shape[-1], self.k
        flat = v.reshape(-1, n)
        kth = np.partition(flat, n - k, axis=-1)[:, n - k, None]
        rows, cols = np.divmod(np.flatnonzero(flat >= kth), n)
        counts = np.bincount(rows, minlength=len(flat))
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.zeros((len(flat), counts.max()), dtype=np.intp)
        key = np.full(idx.shape, np.inf)
        idx[rows, slot] = cols
        key[rows, slot] = -flat[rows, cols]
        order = np.argsort(key, axis=-1, kind="stable")[:, :k]
        return np.take_along_axis(idx, order, axis=1).reshape(v.shape[:-1] + (k,))

    def select(self, v, r, q=None):
        j = np.minimum((r * self.k).astype(np.int64), self.k - 1)
        return np.take_along_axis(self._top(v), j[:, None], axis=1)[:, 0]


@dataclass(frozen=True)
class SoftMax:
    """P(T = i) proportional to exp(phi_i / temperature)."""

    temperature: float = 1.0
    deterministic = False
    extreme = False

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    @property
    def label(self) -> str:
        return f"softmax({self.temperature:g})"

    def law(self, n):
        return None  # estimated from conditional_probs

    def conditional_probs(self, v) -> np.ndarray:
        z = np.asarray(v, dtype=float) / self.temperature
        z = z - z.max(axis=-1, keepdims=True)
        p = np.exp(z)
        return p / p.sum(axis=-1, keepdims=True)

    def select(self, v, r, q):
        # the count of cumulative probabilities <= r is searchsorted(side="right")
        k = (np.cumsum(q, axis=-1) <= r[:, None]).sum(axis=-1)
        return np.minimum(k, q.shape[-1] - 1)


# ---------------------------------------------------------------------------
# engine

@dataclass(eq=False)
class ExperimentResult:
    """Outcome of a seeded selection experiment.

    ``i`` and ``i_alpha`` are the dependence of T on the data, I(T; data)
    and I_alpha keyed by alpha.  ``estimator`` says where they come from:
    ``"analytic"`` is exact, from the rule's law (argmax, argmin, fixed,
    top-k); ``"rule_conditional"`` averages a function of the rule's known
    conditional distribution q = P(T | data) over the trials (softmax).  The
    marginal of T is exactly uniform there (i.i.d. coordinates, a rule that
    treats all indices alike), so I = ln n + mean of sum_i q_i ln q_i and
    I_alpha = mean of sum_i (1/n) |n q_i - 1|^alpha, with no estimated
    marginal plugged in.
    """

    trials: int
    seed: int
    selected_mean: float
    bias: float
    stderr: float
    t_counts: np.ndarray
    i: float
    i_alpha: Dict[str, float]
    estimator: str


def run_experiment(model, rule, trials: int, seed: int = 0, *,
                   alphas: Sequence[float] = (2.0,),
                   workers: int = 1) -> ExperimentResult:
    """Run a seeded selection experiment and estimate bias and dependence.

    Identical (model, rule, trials, seed, alphas) give bit-identical results
    for any ``workers``.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seed = int(seed)
    if seed < 0 or seed >= 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    n = model.n
    if int(workers) < 1:
        raise ValueError("workers must be >= 1")
    alphas = list(alphas)
    if not all(a >= 1 for a in alphas):
        raise ValueError("alpha must be >= 1")
    law = rule.law(n)

    t_idx, u_sel, terms = _main_pass(model, rule, trials, seed, int(workers),
                                     None if law is not None else alphas)

    phi_sel = np.asarray(model.inverse_cdf(u_sel), dtype=float)
    deviations = phi_sel - model.mean
    bias = float(np.mean(deviations))
    selected_mean = float(np.mean(phi_sel))
    # deviations scaled by a power of two, which is exact, to put the largest
    # in [1/2, 1): their squares can neither overflow nor underflow
    scale = math.ldexp(1.0, -max(-1022, math.frexp(float(np.max(np.abs(deviations))))[1]))
    stderr = float(np.std(deviations * scale, ddof=1) / scale / math.sqrt(trials)) \
        if trials > 1 else math.nan

    if law is not None:  # L = m/k with probability k/m, else 0
        k, m = law
        i = math.log(m / k)
        values = [_two_point_alpha(k, m, a) for a in alphas]
        estimator = "analytic"
    else:
        # in trial order within each chunk, then chunk by chunk: a flat sum
        # would round differently past 1024 trials and change reports
        sums = sum(np.cumsum(terms[lo:lo + _CHUNK], axis=0)[-1]
                   for lo in range(0, trials, _CHUNK))
        i = max(0.0, math.log(n) + float(sums[0]) / trials)
        values = [float(s) / (n * trials) for s in sums[1:]]
        estimator = "rule_conditional"

    return ExperimentResult(
        trials=trials, seed=seed, selected_mean=selected_mean, bias=bias,
        stderr=stderr, t_counts=np.bincount(t_idx, minlength=n), i=i,
        i_alpha=dict(zip(map(_alpha_key, alphas), values)), estimator=estimator)


def _tiles(seed: int, lo: int, hi: int, n: int, extra: bool):
    """Yield (start, u, r) for trials lo..hi-1 of one chunk: row i of u is
    draws (start + i)*W .. (start + i)*W + n - 1 of Generator(PCG64DXSM(seed)),
    W = n + extra, and r[i] its next draw when ``extra`` (else r is None).

    One double is one draw, and ``advance`` skips any number of draws
    exactly, so the chunk builds the generator once and advances it to draw
    lo*W; from there its trials lie end to end, and a tile of rows =
    max(1, _TILE // W) trials is one ``random`` call into a (rows, W)
    buffer.  The buffer is reused, so a tile is valid until the next one is
    yielded.
    """
    width = n + extra
    bitgen = np.random.PCG64DXSM(seed)
    bitgen.advance(lo * width)
    gen = np.random.Generator(bitgen)
    rows = max(1, _TILE // width)
    buf = np.empty((rows, width))
    for start in range(lo, hi, rows):
        m = min(rows, hi - start)
        gen.random(out=buf[:m])
        yield start, buf[:m, :n], buf[:m, n] if extra else None


def _main_pass(model, rule, trials, seed, workers, alphas=None):
    """Per trial: the selected index, its uniform and, given ``alphas`` (a
    rule without a closed-form dependence), its dependence terms; else None.

    Row t of the (trials, 1 + len(alphas)) terms, each summed pairwise, is
    sum_i q_ti ln q_ti then, per alpha, sum_i |n q_ti - 1|^alpha, with q_t =
    P(T | trial t) from conditional_probs.  ``run_experiment`` adds the rows
    in trial order within each chunk of 1024 trials, then chunk by chunk.
    """
    n = model.n
    t_idx = np.empty(trials, dtype=np.int64)
    u_sel = np.empty(trials, dtype=float)
    conditional = alphas is not None
    terms = np.empty((trials, 1 + len(alphas))) if conditional else None

    def chunk(lo: int):
        hi = min(lo + _CHUNK, trials)
        # |L - 1|^alpha may overflow: that I_alpha is +inf, reported as null
        with np.errstate(over="ignore"):
            for start, u, r in _tiles(seed, lo, hi, n, not rule.deterministic):
                v = model.inverse_cdf(u) if conditional else u
                q = rule.conditional_probs(v) if conditional else None
                k = rule.select(v, r, q)
                rows = slice(start, start + len(u))
                t_idx[rows] = k
                u_sel[rows] = u[np.arange(len(u)), k]
                if conditional:
                    dev = np.abs(n * q - 1.0)  # |L - 1|, L = q_ti / (1/n)
                    terms[rows, 0] = xlogx(q).sum(axis=1)
                    for j, a in enumerate(alphas):
                        terms[rows, 1 + j] = (dev ** a).sum(axis=1)

    starts = range(0, trials, _CHUNK)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(chunk, starts))  # re-raises a chunk's error
    else:  # inline: a pool's start-up and fresh thread only slow one worker
        list(map(chunk, starts))
    return t_idx, u_sel, terms


# ---------------------------------------------------------------------------
# extreme-value helpers

# Double-exponential rule (Takahasi & Mori 1974) for integrals over (0, inf)
# of integrands of about unit scale that decay exponentially:
# w = exp(t - e^(-t)) and the trapezoid rule in t with step 1/6 on [-4, 48].
# Nodes crowd double-exponentially toward 0 and space out single-exponentially
# past w = 1, so a decay e^(-r w) is resolved by the same nodes for any rate
# r <= 1.  Below t = -4 lies w < 4e-26; past w = e^48 = 7e20 a decay with
# r >= 1e-18 is below e^(-700).
_DE_T = np.arange(-4 * 6, 48 * 6 + 1) / 6.0
_DE_LOG_NODE = _DE_T - np.exp(-_DE_T)
_DE_NODE = np.exp(_DE_LOG_NODE)
_DE_LOG_WEIGHT = _DE_LOG_NODE + np.log1p(np.exp(-_DE_T)) - math.log(6.0)  # ln(h dw/dt)


def heavy_tail_beta_norm(model: HeavyTailIID, s: Optional[float] = None) -> float:
    """(E X^s)^(1/s) for the heavy-tail model, s <= beta (default s = beta).

    The value does not depend on n, so it is evaluated once per
    (beta, c, x0, s); see ``_beta_norm`` for how.
    """
    s = model.beta if s is None else float(s)
    if not 0 < s <= model.beta:
        raise ValueError("moment order must lie in (0, beta]")
    return _beta_norm(dataclasses.replace(model, n=1), s)


@lru_cache(maxsize=64)
def _beta_norm(model: HeavyTailIID, s: float) -> float:
    """x0 (1 + s J)^(1/s), from E X^s = x0^s + s * integral of x^(s-1) * survival(x).

    With x = x0 e^u and L = ln x0 the integral is x0^s J, where
    J = integral over u > 0 of e^(-(beta - s) u) (1 + u / L)^(-c) du.
    At s = beta it has the closed form J = L / (c - 1).  Below beta, the
    integrand is about e^(-k u / L) near 0 (k = (beta - s) L + c), so
    u = (L / k) w puts its decay at unit scale for the double-exponential
    rule, and the branch point of (1 + w / k)^(-c) stays at w = -k < -1;
    the terms are summed in log space.  Against 200-digit values of
    J = L e^b b^(c-1) Gamma(1 - c, b), b = (beta - s) L, it is within
    1e-15 relative for beta up to 300, c from 1.001 to 100, x0 up to 1e300
    and s from 1e-3 to one ulp below beta (there r = (beta - s) L / k is
    still above 1e-18).  The power adds the rounding of 1 + s J, times 1/s.
    """
    L = model._log_x0
    a = model.beta - s
    if a == 0:
        j = L / (model.c - 1.0)
    else:
        k = a * L + model.c
        terms = np.exp(_DE_LOG_WEIGHT - (a * L / k) * _DE_NODE
                       - model.c * np.log1p(_DE_NODE / k))
        j = L / k * float(terms.sum())
    return model.x0 * (1.0 + s * j) ** (1.0 / s)


def frechet_mean(beta: float) -> float:
    """Gamma(1 - 1/beta): the mean of the standard Frechet(beta) limit."""
    beta = float(beta)
    if not beta > 1:
        raise ValueError("beta must be > 1 for a finite Frechet mean")
    return math.gamma(1.0 - 1.0 / beta)


# ---------------------------------------------------------------------------
# bound table

def bounds_for(model, rule, res: ExperimentResult) -> Dict[str, Tuple[float, str]]:
    """The bounds a model's tail facts and a run's dependence give, as
    name -> (value, side) in report order.

    ``mgf_<family>`` from the model's CGF envelope, when it has one; ``pnorm``
    from its moment cap (beta, sigma), when the run computed I_alpha at the
    conjugate exponent of beta; for beta >= 2 the marginal-free cap
    ``pnorm_uniform`` and, without an envelope, its looser closed form
    ``pnorm_uniform_loose``; and for extreme rules the expected-max baseline
    (``max_cgf`` or ``max_beta``).
    """
    n = model.n
    beta, sigma = model.moment_cap
    env = model.cgf_envelope
    table = {}
    if env is not None:
        table[f"mgf_{env.family}"] = env.inverse_conjugate(res.i), "upper"
    key = _alpha_key(conjugate_exponent(beta))
    if key in res.i_alpha:
        table["pnorm"] = pnorm_bound(sigma, None, beta, res.i_alpha[key]), "two_sided"
    if beta >= 2:
        ub = pnorm_uniform_bound(sigma, beta, n)
        table["pnorm_uniform"] = ub.value, "two_sided"
        if env is None:
            table["pnorm_uniform_loose"] = ub.loose, "two_sided"
    if rule.extreme:
        if env is not None:
            table["max_cgf"] = max_inequality_cgf_bound([env], n), "expected_max"
        else:
            table["max_beta"] = max_inequality_pnorm_bound(sigma, beta, n), "expected_max"
    return table


# ---------------------------------------------------------------------------
# tightness sweep

@dataclass(frozen=True)
class SweepRow:
    """One sweep CSV line: the field names, in order, are its header."""

    n: int
    empirical_bias: float
    stderr: float
    a_n: float
    frechet_ratio: float
    bound_pnorm: float
    bound_mgf: float
    ratio: float


SWEEP_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepRow))


def tightness_sweep(model, n_values: Sequence[int], trials: int, seed: int = 0,
                    *, workers: int = 1) -> List[SweepRow]:
    """Argmax selection across sample sizes, with bounds and norming ratios.

    ``bound_mgf`` and ``bound_pnorm`` are the ``mgf_*`` and the loosest
    ``pnorm_uniform*`` entries of ``bounds_for`` (nan where the model has no
    envelope, or beta < 2).  ``ratio`` compares the MGF bound (else the
    moment bound) to the empirical bias, reported only when the bias is
    positive beyond three standard errors.
    """
    rows = []
    rule = ArgMax()
    for n in n_values:
        m = dataclasses.replace(model, n=int(n))
        res = run_experiment(m, rule, trials, seed, workers=workers)
        table = {name: value for name, (value, _) in bounds_for(m, rule, res).items()}
        bound_mgf = next((v for name, v in table.items() if name.startswith("mgf_")),
                         math.nan)
        bound_pnorm = table.get("pnorm_uniform_loose", table.get("pnorm_uniform", math.nan))
        primary = bound_mgf if math.isfinite(bound_mgf) else bound_pnorm
        ratio = primary / res.bias if _resolved(res.bias, res.stderr) else math.nan
        a_n = m.norming_constant
        rows.append(SweepRow(
            n=int(n), empirical_bias=res.bias, stderr=res.stderr, a_n=a_n,
            frechet_ratio=res.selected_mean / a_n if a_n != 0 else math.nan,
            bound_pnorm=bound_pnorm, bound_mgf=bound_mgf, ratio=ratio))
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    return _csv.write(SWEEP_CSV_HEADER.split(","), map(dataclasses.astuple, rows))
