import dataclasses
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special
from scipy.special import lambertw
from scipy.stats import norm

from biasbound import simulate
from biasbound.divergence import (DiscreteJoint, alpha_mutual_information,
                                  mutual_information)
from biasbound.simulate import (ArgMax, ArgMin, ExponentialIID, FixedIndex,
                                GaussianIID, HeavyTailIID, SoftMax,
                                SWEEP_CSV_HEADER, TopKUniform,
                                frechet_mean, heavy_tail_beta_norm,
                                run_experiment, sweep_to_csv,
                                tightness_sweep)


def heavy_quantile_mp(model, log_s):
    """40-digit root of beta*y + c*ln(y) = ln K0 - ln S, returned as e^y;
    log_s() gives ln S and is evaluated at the same precision."""
    with mpmath.workdps(40):
        beta, c, log_x0 = mpmath.mpf(model.beta), mpmath.mpf(model.c), mpmath.log(model.x0)
        target = beta * log_x0 + c * mpmath.log(log_x0) - log_s()
        y = mpmath.findroot(lambda y: beta * y + c * mpmath.log(y) - target, target / beta)
        return mpmath.exp(y)


def heavy_quantile_oracle(model, u):
    """Closed-form quantile via Lambert W (independent of the Wright omega route)."""
    log_k = model.beta * math.log(model.x0) + model.c * math.log(math.log(model.x0))
    k = math.exp(log_k) / (1.0 - u)
    w = lambertw(model.beta / model.c * k ** (1.0 / model.c)).real
    return math.exp(model.c / model.beta * w)


def test_sample_gaussian_mean():
    model = GaussianIID(mu=0.0, sigma=1.0, n=1_000_000)
    x = model.inverse_cdf(np.random.default_rng(0).random(model.n))
    assert abs(float(x.mean())) <= 0.004
    assert abs(float(x.std()) - 1.0) <= 0.01


def test_sample_exponential_mean():
    model = ExponentialIID(rate=2.0, n=500_000)
    x = model.inverse_cdf(np.random.default_rng(1).random(model.n))
    assert float(x.mean()) == pytest.approx(0.5, abs=0.005)
    assert np.all(x >= 0)


def test_model_validation():
    with pytest.raises(ValueError):
        GaussianIID(sigma=0.0)
    with pytest.raises(ValueError):
        ExponentialIID(rate=-1.0)
    # 1/rate^2, the sub-gamma variance, must be a positive finite double
    for rate in (1e-200, 7.4e-155, 1.35e154, 1e200, math.inf):
        with pytest.raises(ValueError, match=r"rate must lie in about \(7.5e-155, 1.3e154\)"):
            ExponentialIID(rate=rate)
    for rate in (7.5e-155, 1.3e154):
        assert 0.0 < ExponentialIID(rate=rate).cgf_envelope.sigma2 < math.inf
    with pytest.raises(ValueError):
        HeavyTailIID(beta=0.5)
    with pytest.raises(ValueError):
        HeavyTailIID(c=1.0)
    with pytest.raises(ValueError):
        HeavyTailIID(beta=3.0, x0=1.0)  # x0 <= e^(1/3)
    with pytest.raises(ValueError):
        GaussianIID(n=0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        ExponentialIID(n=0)


def test_model_parameters_must_be_finite():
    # an infinite parameter would give null bias and bounds, or a math domain
    # error; a parameter with a range check (sigma > 0, ...) meets that first
    for model, name in ((GaussianIID, "mu"), (GaussianIID, "sigma"), (HeavyTailIID, "beta"),
                        (HeavyTailIID, "c"), (HeavyTailIID, "x0")):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            model(**{name: math.inf})
    for mu in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="^mu must be finite$"):
            GaussianIID(mu=mu)


def test_heavy_tail_cdf_quantile_inverse_pair():
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e, n=5)
    us = np.array([0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9])
    xs = model.inverse_cdf(us)
    assert xs[0] == pytest.approx(model.x0, rel=1e-12)
    back = model.cdf(xs)
    assert np.max(np.abs(back - us)) <= 1e-9
    # against the Lambert-W closed form
    for u in (0.2, 0.7, 0.99, 1 - 1e-6):
        assert float(model.inverse_cdf(u)) == pytest.approx(
            heavy_quantile_oracle(model, u), rel=1e-10)


def test_heavy_tail_quantile_other_params():
    for beta, c, x0 in [(2.0, 1.5, 2.5), (4.0, 3.0, 1.4), (1.5, 2.0, 2.0)]:
        model = HeavyTailIID(beta=beta, c=c, x0=x0, n=3)
        for u in (0.0, 0.3, 0.9, 0.9999):
            assert float(model.inverse_cdf(u)) == pytest.approx(
                heavy_quantile_oracle(model, u), rel=1e-10)
    with pytest.raises(ValueError):
        HeavyTailIID(n=2).inverse_cdf(1.0)
    with pytest.raises(ValueError):
        HeavyTailIID(n=2).inverse_cdf(-0.1)


@pytest.mark.parametrize("beta,c,x0", [(3.0, 2.0, math.e), (2.0, 1.5, 2.5), (4.0, 3.0, 1.4),
                                       (1.5, 2.0, 2.0), (2.0, 1.8, 2.2), (4.0, 2.5, 1.6)])
def test_heavy_tail_quantile_at_zero_is_x0(beta, c, x0):
    model = HeavyTailIID(beta=beta, c=c, x0=x0, n=2)
    assert model.inverse_cdf(0.0) == x0  # never below the support
    assert model.inverse_survival(1.0) == x0
    assert model.inverse_cdf(np.zeros(3)).tolist() == [x0] * 3
    for s in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            model.inverse_survival(s)
    with pytest.raises(ValueError):
        model.inverse_cdf(math.nan)


def test_heavy_tail_quantile_mpmath_oracle():
    us = [0.0, 1e-12] + np.random.default_rng(3).random(20).tolist() \
        + [1.0 - 10.0 ** -k for k in range(1, 16)]
    for beta, c, x0 in [(3.0, 2.0, math.e), (2.0, 1.5, 2.0), (1.5, 1.2, 2.0)]:
        model = HeavyTailIID(beta=beta, c=c, x0=x0, n=2)
        got = model.inverse_cdf(np.array(us))
        for u, x in zip(us, got):
            want = heavy_quantile_mp(model, lambda: mpmath.log1p(-mpmath.mpf(u)))
            assert abs(x - want) <= 1e-13 * want, (beta, c, x0, u)
            assert model.inverse_cdf(u) == x  # scalar in, same float out


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(1.05, 8.0), c=st.floats(1.05, 8.0), x0_gap=st.floats(1e-3, 10.0),
       us=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
def test_heavy_tail_quantile_properties(beta, c, x0_gap, us):
    model = HeavyTailIID(beta=beta, c=c, x0=math.exp(1.0 / beta) + x0_gap, n=2)
    u = np.sort(np.array(us))
    x = model.inverse_cdf(u)
    assert np.all(x >= model.x0)
    # non-decreasing to within the quantile's 1e-13 accuracy: Wright omega
    # itself is not monotone at the last few ulps
    assert np.all(x[1:] >= x[:-1] * (1.0 - 1e-13))
    assert np.all(np.abs(model.cdf(x) - u) <= 1e-9)


def test_heavy_tail_mean_against_survival_quadrature():
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e, n=2)
    # independent oracle: direct x-space integral of the survival function
    tail, _ = integrate.quad(lambda x: 1.0 - model.cdf(x), model.x0, math.inf,
                             limit=300)
    assert model.mean == pytest.approx(model.x0 + tail, rel=1e-8)
    assert model.mean == pytest.approx(3.472177630139099, rel=1e-12)


def test_heavy_tail_beta_norm_closed_form():
    # E X^beta = x0^beta (1 + beta L / (c - 1)) with L = ln x0
    for beta, c, x0 in [(3.0, 2.0, math.e), (2.0, 1.8, 2.2), (4.0, 2.5, 1.6)]:
        model = HeavyTailIID(beta=beta, c=c, x0=x0, n=2)
        L = math.log(x0)
        want = (x0 ** beta * (1.0 + beta * L / (c - 1.0))) ** (1.0 / beta)
        assert heavy_tail_beta_norm(model) == pytest.approx(want, rel=1e-9)
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e, n=2)
    assert heavy_tail_beta_norm(model) == pytest.approx(4.3150034340419285, rel=1e-9)
    # lower moments also available
    assert heavy_tail_beta_norm(model, 1.0) == pytest.approx(model.mean, rel=1e-8)
    with pytest.raises(ValueError):
        heavy_tail_beta_norm(model, 3.5)


def heavy_norm_mp(beta, c, x0, s):
    """(E X^s)^(1/s) at 40 digits, E X^s = x0^s + s K0 tail with
    K0 = x0^beta L^c, L = ln x0 and tail = integral over y > L of
    e^((s - beta) y) y^(-c) dy = a^(c-1) Gamma(1 - c, a L), a = beta - s
    (L^(1-c) / (c - 1) at a = 0)."""
    with mpmath.workdps(40):
        beta, c, x0, s = map(mpmath.mpf, (beta, c, x0, s))
        L, a = mpmath.log(x0), beta - s
        tail = (L ** (1 - c) / (c - 1) if a == 0
                else a ** (c - 1) * mpmath.gammainc(1 - c, a * L))
        return (x0 ** s + s * x0 ** beta * L ** c * tail) ** (1 / s)


def test_heavy_tail_beta_norm_mpmath_oracle():
    # includes s one ulp below beta, where e^(-(beta - s) y) decays only past
    # y = 1e15, and (2, 5, 82.5), whose tail integral for the mean, 3.6e-6, is
    # small enough that an adaptive quadrature's default absolute tolerance,
    # not its relative one, decides when it stops; at x0 = 1e200,
    # x0^beta = 1e600 is past the largest double
    cases = [(2.0, 5.0, 82.5, 1.0), (3.0, 2.0, 1e200, 1.0), (3.0, 2.0, 1e200, 3.0)]
    for beta, c in itertools.product([1.05, 2.0, 3.25, 10.0], [1.01, 2.0, 5.0]):
        e = math.exp(1.0 / beta)
        for x0 in (e + 0.01, 2.9, 82.5, 50.0 * e):
            for s in (0.5, 1.0, beta / 2, math.nextafter(beta, 0.0), beta):
                cases.append((beta, c, x0, s))
    for beta, c, x0, s in cases:
        got = heavy_tail_beta_norm(HeavyTailIID(beta=beta, c=c, x0=x0), s)
        want = heavy_norm_mp(beta, c, x0, s)
        assert abs(got - want) <= 4e-15 * want, (beta, c, x0, s)


def test_extreme_norming_constant():
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e, n=2)

    def a(n):
        return dataclasses.replace(model, n=n).norming_constant
    assert a(1) == pytest.approx(math.e, rel=1e-12)
    assert a(1000) == pytest.approx(14.18663381204898, rel=1e-10)
    vals = [a(n) for n in (2, 10, 100, 1000, 10_000)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        a(0)
    # survival space: no cancellation in 1 - 1/n, even past n = 2**53
    for n in (10 ** 3, 10 ** 9, 10 ** 12, 2 ** 60):
        want = heavy_quantile_mp(model, lambda: -mpmath.log(n))
        assert abs(a(n) - want) <= 1e-13 * want


def test_frechet_mean():
    assert frechet_mean(3.0) == pytest.approx(1.3541179394264005, rel=1e-12)
    assert frechet_mean(2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        frechet_mean(1.0)


def test_norming_constant_families():
    g = GaussianIID(mu=1.0, sigma=2.0, n=100)
    assert g.norming_constant == pytest.approx(1.0 + 2.0 * math.sqrt(2 * math.log(100)))
    e = ExponentialIID(rate=2.0, n=100)
    assert e.norming_constant == pytest.approx(math.log(100) / 2.0, rel=1e-12)
    h = HeavyTailIID(n=50)
    assert h.norming_constant == pytest.approx(float(h.inverse_cdf(1.0 - 1.0 / 50)),
                                               rel=1e-12)
    # the exponential 1 - 1/n quantile is ln(n) / rate: no rounding of 1 - 1/n
    for rate in (2.0, 0.5, 3.0):
        for n in (10 ** 6, 10 ** 9, 10 ** 12):
            want = float(mpmath.log(n) / rate)
            got = ExponentialIID(rate=rate, n=n).norming_constant
            assert abs(got - want) <= 1e-13 * want, (rate, n)


def test_run_experiment_determinism_across_workers():
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e, n=40)
    rule = ArgMax()
    a = run_experiment(model, rule, trials=3000, seed=99, workers=1)
    b = run_experiment(model, rule, trials=3000, seed=99, workers=4)
    assert a.bias == b.bias
    assert a.stderr == b.stderr
    assert a.selected_mean == b.selected_mean
    assert a.i == b.i
    assert np.array_equal(a.t_counts, b.t_counts)


def test_run_experiment_determinism_randomized_rule():
    model = GaussianIID(n=6)
    rule = SoftMax(0.7)
    a = run_experiment(model, rule, trials=2000, seed=5, workers=1,
                       alphas=(1.5, 2.0))
    b = run_experiment(model, rule, trials=2000, seed=5, workers=3,
                       alphas=(1.5, 2.0))
    assert a.bias == b.bias
    assert a.i == b.i
    assert a.i_alpha == b.i_alpha


def test_selection_invariant_under_monotone_transform(monkeypatch):
    # order-only rules rank the uniforms, never the values: identical indices
    # for any continuous model, even one whose quantile is not exactly
    # monotone in its last ulps (the Wright omega quantile at beta = 6)
    models = [GaussianIID(n=12), ExponentialIID(n=12), HeavyTailIID(n=12),
              HeavyTailIID(beta=6.0, c=5.0, x0=1.3, n=12)]
    shapes = []
    quantile = HeavyTailIID.inverse_cdf
    monkeypatch.setattr(HeavyTailIID, "inverse_cdf",
                        lambda self, u: shapes.append(np.shape(u)) or quantile(self, u))
    for rule in (ArgMax(), ArgMin(), FixedIndex(5), TopKUniform(3)):
        counts = [run_experiment(m, rule, trials=1500, seed=3).t_counts for m in models]
        for c in counts[1:]:
            assert np.array_equal(counts[0], c), rule
    # only the 1500 selected uniforms of each run pass through the quantile
    assert shapes == [(1500,)] * 8


def test_gaussian_argmax_bias_matches_quadrature():
    n = 10
    res = run_experiment(GaussianIID(n=n), ArgMax(), trials=40_000, seed=12)
    oracle, _ = integrate.quad(
        lambda x: n * x * norm.pdf(x) * norm.cdf(x) ** (n - 1), -12, 12)
    assert abs(res.bias - oracle) <= 4 * res.stderr
    assert res.estimator == "analytic"
    assert res.i == pytest.approx(math.log(n), rel=1e-12)
    assert res.i_alpha["2"] == pytest.approx(n - 1, rel=1e-9)


def test_argmin_mirrors_argmax():
    res_max = run_experiment(GaussianIID(n=8), ArgMax(), trials=8000, seed=21)
    res_min = run_experiment(GaussianIID(n=8), ArgMin(), trials=8000, seed=21)
    # symmetric model: argmin bias is the negative of argmax bias on average
    assert res_min.bias < 0 < res_max.bias
    assert abs(res_min.bias + res_max.bias) <= 4 * math.hypot(res_min.stderr,
                                                              res_max.stderr)


def test_bias_and_stderr_scale_exactly_with_sigma():
    # sigma = 2^k scales every deviation exactly; squared, those of order
    # 2^600 would overflow and those of order 2^-600 lose bits as subnormals
    base = run_experiment(GaussianIID(n=10), ArgMax(), trials=500, seed=1)
    for k in (-600, 600):
        with np.errstate(all="raise"):
            res = run_experiment(GaussianIID(sigma=2.0 ** k, n=10), ArgMax(),
                                 trials=500, seed=1)
        assert res.bias == math.ldexp(base.bias, k)
        assert res.stderr == math.ldexp(base.stderr, k)


def test_fixed_index_is_unbiased():
    res = run_experiment(GaussianIID(n=7), FixedIndex(4), trials=20_000, seed=8)
    assert abs(res.bias) <= 4 * res.stderr
    assert res.estimator == "analytic"
    assert res.i == 0.0
    assert res.i_alpha == {"2": 0.0}
    assert res.t_counts[4] == res.trials


def test_topk_conditional_information():
    # I(T; data) = ln(n/k) exactly for top-k uniform on continuous draws
    n, k = 10, 3
    res = run_experiment(GaussianIID(n=n), TopKUniform(k), trials=6000, seed=14)
    assert res.estimator == "analytic"
    assert res.i == math.log(n / k)
    # bias sits between fixed-index (0) and argmax
    res_max = run_experiment(GaussianIID(n=n), ArgMax(), trials=6000, seed=14)
    assert 0 < res.bias < res_max.bias


def rank_joint(rule, n):
    """Exact joint of (T, rank permutation) for an order-only rule: the n!
    orderings of n i.i.d. continuous coordinates are equally likely."""
    perms = list(itertools.permutations(range(n)))
    p = np.zeros((n, len(perms)))
    for j, ranks in enumerate(perms):
        if isinstance(rule, TopKUniform):
            top = sorted(range(n), key=lambda i: -ranks[i])[:rule.k]
            p[top, j] = 1.0 / rule.k
        else:
            p[rule.select(np.array([ranks], dtype=float))[0], j] = 1.0
    return DiscreteJoint(p / len(perms))


def test_closed_form_dependence_matches_exact_joint():
    alphas = (1.0, 1.5, 2.0, 3.0)
    for n in range(1, 6):
        rules = [ArgMax(), ArgMin()] + [FixedIndex(i) for i in range(n)] \
            + [TopKUniform(k) for k in range(1, n + 1)]
        for rule in rules:
            joint = rank_joint(rule, n)
            res = run_experiment(GaussianIID(n=n), rule, trials=1, alphas=alphas)
            assert res.estimator == "analytic"
            assert res.i == pytest.approx(mutual_information(joint), abs=1e-12), (n, rule)
            for a in alphas:
                assert res.i_alpha[f"{a:g}"] == pytest.approx(
                    alpha_mutual_information(joint, a), abs=1e-12), (n, rule, a)
    assert SoftMax().law(5) is None
    with pytest.raises(ValueError):
        FixedIndex(5).law(5)
    with pytest.raises(ValueError):
        TopKUniform(6).law(5)


def test_each_closed_form_rule_states_its_two_point_law():
    assert ArgMax().law(7) == ArgMin().law(7) == (1, 7)
    assert TopKUniform(3).law(7) == (3, 7)
    assert FixedIndex(6).law(7) == (1, 1)
    assert TopKUniform(7).law(7) == (7, 7)


def test_argmax_i_alpha_is_the_two_point_value():
    # L = 10 with probability 1/10: I_2 = (1/10) 81 + 9/10 = 9 exactly, and
    # the two-point expression gives it without the marginal cap's rounding
    res = run_experiment(GaussianIID(n=10), ArgMax(), trials=1, alphas=(2.0,))
    assert res.i_alpha["2"] == 9.0
    assert res.i == math.log(10)


def test_alpha_labels_name_their_alpha():
    assert simulate._alpha_key(2.0) == "2"
    assert simulate._alpha_key(1.5) == "1.5"
    assert simulate._alpha_key(1.5000001) == "1.5000001"
    assert simulate._alpha_key(5.0 / 3.0) == "1.6666666666666667"
    res = run_experiment(GaussianIID(n=4), SoftMax(0.5), trials=20, seed=2,
                         alphas=(1.5000001, 1.5))
    assert list(res.i_alpha) == ["1.5000001", "1.5"]
    assert res.i_alpha["1.5000001"] != res.i_alpha["1.5"]


@pytest.mark.parametrize("rule", [ArgMax(), ArgMin(), FixedIndex(2), TopKUniform(3),
                                  SoftMax(0.5)], ids=lambda r: r.label)
def test_only_softmax_estimates_its_conditional(monkeypatch, rule):
    calls = []
    probs = SoftMax.conditional_probs
    monkeypatch.setattr(SoftMax, "conditional_probs",
                        lambda self, v: calls.append(v.shape) or probs(self, v))
    res = run_experiment(HeavyTailIID(n=8), rule, trials=50, seed=1)
    conditional = isinstance(rule, SoftMax)
    assert res.estimator == ("rule_conditional" if conditional else "analytic")
    assert hasattr(rule, "conditional_probs") == conditional
    # one pass: the 50 trials fit one tile, whose q is computed once
    assert calls == ([(50, 8)] if conditional else [])


def test_softmax_dependence_estimates():
    res = run_experiment(GaussianIID(n=5), SoftMax(1.0), trials=5000, seed=31,
                         alphas=(2.0,))
    assert res.estimator == "rule_conditional"
    assert res.bias > 0
    # temperature -> 0 approaches argmax behavior
    cold = run_experiment(GaussianIID(n=5), SoftMax(0.01), trials=5000, seed=31)
    assert cold.bias > res.bias
    assert res.i < cold.i <= math.log(5) + 1e-9
    assert cold.i == pytest.approx(math.log(5), abs=0.1)


def test_softmax_single_trial_uses_the_exact_uniform_marginal():
    # P(T = i) = 1/n exactly, so one trial gives I = ln n + sum_i q_i ln q_i;
    # a marginal estimated from that same trial (p_bar = q) would give 0
    n, seed = 5, 3
    model, rule = GaussianIID(n=n), SoftMax(0.5)
    res = run_experiment(model, rule, trials=1, seed=seed, alphas=(1.5, 2.0))
    rng = trial_rng(seed, 0, n, True)
    q = reference_rule(rule, model.inverse_cdf(rng.random(n)), rng)[1]
    assert res.i == pytest.approx(math.log(n) + float(np.sum(special.xlogy(q, q))),
                                  rel=1e-12)
    assert res.i > 0.1
    for a in (1.5, 2.0):
        assert res.i_alpha[f"{a:g}"] == pytest.approx(
            float(np.sum(np.abs(n * q - 1.0) ** a)) / n, rel=1e-12)


def test_softmax_two_coordinates_against_quadrature():
    # n = 2: q_1 = expit(D / tau) with D = X_1 - X_2 ~ N(0, 2), so
    # I = ln 2 - E[H_b(q_1)] and I_alpha = E|2 q_1 - 1|^alpha = E|tanh(D / 2 tau)|^alpha
    tau, trials, alphas = 0.5, 20_000, (1.5, 2.0)
    res = run_experiment(GaussianIID(n=2), SoftMax(tau), trials=trials, seed=17,
                         alphas=alphas)

    def expect(f):
        return integrate.quad(lambda d: f(d) * norm.pdf(d, scale=math.sqrt(2.0)),
                              -np.inf, np.inf, epsabs=1e-12)[0]

    def binary_entropy(d):
        p = special.expit(d / tau)
        return special.entr(p) + special.entr(1.0 - p)

    # per-trial terms lie in [0, 1], so their standard deviation is at most 0.5
    tol = 4 * 0.5 / math.sqrt(trials)
    assert abs(res.i - (math.log(2.0) - expect(binary_entropy))) <= tol
    for a in alphas:
        want = expect(lambda d: abs(math.tanh(d / (2.0 * tau))) ** a)
        assert abs(res.i_alpha[f"{a:g}"] - want) <= tol, a


def test_run_experiment_errors():
    model = GaussianIID(n=4)
    with pytest.raises(ValueError):
        run_experiment(model, ArgMax(), trials=0, seed=1)
    with pytest.raises(ValueError):
        run_experiment(model, FixedIndex(9), trials=10, seed=1)
    with pytest.raises(ValueError):
        run_experiment(model, TopKUniform(5), trials=10, seed=1)
    with pytest.raises(ValueError):
        run_experiment(model, ArgMax(), trials=10, seed=-3)
    for rule in (TopKUniform(2), SoftMax(1.0)):
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            run_experiment(model, rule, trials=10, seed=1, alphas=(2.0, 0.5))
    with pytest.raises(ValueError):
        SoftMax(0.0)
    with pytest.raises(ValueError):
        TopKUniform(0)
    with pytest.raises(ValueError, match="index must be nonnegative"):
        FixedIndex(-1)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_experiment(model, ArgMax(), trials=10, seed=1, workers=0)


def test_softmax_refuses_a_temperature_where_values_overflow():
    # v / 1e-320 overflows, where every trial would choose index 0 with I
    # reported as 0 and I_alpha as NaN; an infinite temperature is uniform
    with pytest.raises(ValueError, match=r"softmax at temperature 1e-320: value / temperature"):
        run_experiment(GaussianIID(n=4), SoftMax(1e-320), trials=10, seed=1)
    with pytest.raises(ValueError, match="value / temperature overflows"):
        SoftMax(1e-300).conditional_probs(np.array([[1.0, 2.0], [1e10, -1e10]]))
    q = SoftMax(math.inf).conditional_probs(np.array([[1.0, 2.0, 3.0]]))
    assert q.tolist() == [[1 / 3, 1 / 3, 1 / 3]]
    assert run_experiment(GaussianIID(n=4), SoftMax(math.inf), trials=10, seed=1).i == 0.0


def test_tie_breaking_lowest_index():
    v = np.array([1.0, 3.0, 3.0, 0.5])
    assert ArgMax().select(v, None) == 1
    assert ArgMin().select(np.array([2.0, 0.1, 0.1]), None) == 1
    top = TopKUniform(2)._top(np.array([1.0, 2.0, 2.0, 2.0]))
    assert list(top) == [1, 2]


def test_topk_partial_selection_matches_full_stable_argsort():
    # the reference: the first k of a stable argsort of -v, row by row
    rng = np.random.default_rng(97)
    tiles = [rng.random((31, 257)), rng.random((5, 1)), rng.random((8, 6)),
             rng.integers(0, 3, (40, 9)).astype(float),      # ties everywhere
             np.repeat(rng.random((6, 1)), 7, axis=1),        # all equal
             np.where(rng.random((20, 12)) < 0.5, 0.25, rng.random((20, 12)))]
    for v in tiles:
        n = v.shape[1]
        for k in sorted({1, 2, 3, n // 2, n - 1, n} & set(range(1, n + 1))):
            want = np.argsort(-v, axis=-1, kind="stable")[:, :k]
            assert np.array_equal(TopKUniform(k)._top(v), want), (v.shape, k)
            assert np.array_equal(TopKUniform(k)._top(v[0]), want[0])


def test_sweep_rows_and_csv():
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e, n=10)
    rows = tightness_sweep(model, [20, 60], trials=2500, seed=44)
    assert [r.n for r in rows] == [20, 60]
    for r in rows:
        assert r.a_n == pytest.approx(dataclasses.replace(model, n=r.n).norming_constant)
        assert math.isnan(r.bound_mgf)  # no exponential moments
        assert r.bound_pnorm > 0
        assert r.frechet_ratio == pytest.approx(
            (r.empirical_bias + model.mean) / r.a_n, rel=1e-12)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    # the header README documents; SWEEP_CSV_HEADER is derived from SweepRow
    assert lines[0] == SWEEP_CSV_HEADER == (
        "n,empirical_bias,stderr,a_n,frechet_ratio,bound_pnorm,bound_mgf,ratio")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 20
    assert float(first[1]) == rows[0].empirical_bias  # repr round-trips


def test_sweep_integrates_heavy_tail_norms_once():
    # mean and moment cap do not depend on n: 3 n values, 2 evaluations
    model = HeavyTailIID(beta=3.25, c=2.0, x0=2.9, n=10)
    simulate._beta_norm.cache_clear()
    rows = tightness_sweep(model, [5, 10, 20], trials=200, seed=3)
    assert simulate._beta_norm.cache_info().misses == 2
    fresh = dataclasses.replace(model, n=20)  # own cached_property, shared evaluation
    assert (fresh.mean, fresh.moment_cap) == (model.mean, model.moment_cap)
    assert simulate._beta_norm.cache_info().misses == 2 and len(rows) == 3


def test_sweep_gaussian_has_mgf_column():
    rows = tightness_sweep(GaussianIID(n=5), [30], trials=2000, seed=2)
    assert rows[0].bound_mgf == pytest.approx(math.sqrt(2 * math.log(30)), rel=1e-9)
    assert rows[0].bound_pnorm == pytest.approx(math.sqrt(29.0), rel=1e-12)
    assert rows[0].ratio == pytest.approx(rows[0].bound_mgf / rows[0].empirical_bias)


def test_sweep_pnorm_column_is_the_tables_marginal_free_cap():
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e)
    for r in tightness_sweep(model, [15, 40], trials=300, seed=5):
        # the loose cap 2^(1/alpha) ||X||_beta n^(1/beta), alpha = beta / (beta - 1)
        want = 2.0 ** (2.0 / 3.0) * heavy_tail_beta_norm(model) * r.n ** (1.0 / 3.0)
        assert r.bound_pnorm == pytest.approx(want, rel=1e-12)
    # no marginal-free cap exists below beta = 2, so no bound and no ratio
    model = HeavyTailIID(beta=1.5, c=1.2, x0=2.0)
    for r in tightness_sweep(model, [15, 40], trials=300, seed=5):
        assert math.isnan(r.bound_pnorm) and math.isnan(r.bound_mgf)
        assert math.isnan(r.ratio)


def test_sweep_at_n1_has_no_frechet_ratio():
    # a_n = 0 at n = 1 for the Gaussian and the exponential: no ratio, no error
    for model in (GaussianIID(), ExponentialIID()):
        (row,) = tightness_sweep(model, [1], trials=20, seed=1)
        assert row.a_n == 0.0
        assert math.isnan(row.frechet_ratio)


def test_sweep_csv_byte_identical_across_workers():
    model = HeavyTailIID(beta=3.0, c=2.0, x0=math.e, n=10)
    a = sweep_to_csv(tightness_sweep(model, [15, 40], trials=2000, seed=6, workers=1))
    b = sweep_to_csv(tightness_sweep(model, [15, 40], trials=2000, seed=6, workers=4))
    assert a == b


# ---------------------------------------------------------------------------
# stream contract: the tile engine against the per-trial loop it replaced

def trial_rng(seed, t, n, extra):
    """Trial t's stream: PCG64DXSM seeded with seed, advanced by t*W draws,
    W = n + extra; its first n + extra doubles are the trial's."""
    bitgen = np.random.PCG64DXSM(seed)
    bitgen.advance(t * (n + extra))
    return np.random.Generator(bitgen)


def reference_rule(rule, v, rng):
    """(index, q) from the 1-D rules; top-k and softmax draw one more double.
    q = P(T | v) only for softmax, the one rule without a closed-form I."""
    if isinstance(rule, ArgMax):
        return int(np.argmax(v)), None
    if isinstance(rule, ArgMin):
        return int(np.argmin(v)), None
    if isinstance(rule, FixedIndex):
        return rule.index, None
    if isinstance(rule, TopKUniform):
        top = np.argsort(-v, kind="stable")[:rule.k]
        return int(top[min(int(rng.random() * rule.k), rule.k - 1)]), None
    z = v / rule.temperature
    p = np.exp(z - z.max())
    q = p / p.sum()
    k = int(np.searchsorted(np.cumsum(q), rng.random(), side="right"))
    return min(k, len(q) - 1), q


def reference_main_pass(model, rule, trials, seed, workers, alphas=None):
    n = model.n
    t_idx, u_sel = np.empty(trials, np.int64), np.empty(trials)
    terms = np.empty((trials, 1 + len(alphas))) if alphas is not None else None
    for t in range(trials):
        rng = trial_rng(seed, t, n, not rule.deterministic)
        u = rng.random(n)
        v = model.inverse_cdf(u) if alphas is not None else u
        t_idx[t], q = reference_rule(rule, v, rng)
        assert (alphas is not None) == (q is not None)
        u_sel[t] = u[t_idx[t]]
        if q is not None:  # against the exact uniform marginal 1/n
            terms[t, 0] = np.sum(special.xlogy(q, q))
            for j, a in enumerate(alphas):
                terms[t, 1 + j] = np.sum(np.abs(n * q - 1.0) ** a)
    return t_idx, u_sel, terms


def reference_experiment(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(simulate, "_main_pass", reference_main_pass)
        return run_experiment(*args, **kwargs)


def assert_bit_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert repr(x) == repr(y), f.name  # exact floats; nan == nan


MODELS = [GaussianIID(mu=0.5, sigma=2.0), ExponentialIID(rate=2.0), HeavyTailIID()]
RULES = [ArgMax(), ArgMin(), FixedIndex(2), TopKUniform(3), SoftMax(0.5)]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.label)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label.split("(")[0])
@pytest.mark.parametrize("n,trials,seed,workers", [
    (100, 1100, 2 ** 64 - 1, 3),  # 81-row tiles that do not divide a chunk
    (7, 1030, 5, 1),              # trials not a multiple of the chunk
    (10_000, 9, 3, 2),            # n above the tile size: one row per tile
])
def test_tile_engine_matches_per_trial_reference(monkeypatch, model, rule, n, trials,
                                                 seed, workers):
    m = dataclasses.replace(model, n=n)
    args = (m, rule, trials, seed)
    kwargs = dict(alphas=(1.5, 2.0), workers=workers)
    assert_bit_equal(run_experiment(*args, **kwargs),
                     reference_experiment(monkeypatch, *args, **kwargs))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 40),
       trials=st.integers(1, 300), rule=st.integers(0, 4), model=st.integers(0, 2))
def test_tile_engine_matches_reference_property(seed, n, trials, rule, model):
    rule = [ArgMax(), ArgMin(), FixedIndex(n - 1), TopKUniform(min(3, n)),
            SoftMax(0.7)][rule]
    m = dataclasses.replace(MODELS[model], n=n)
    with pytest.MonkeyPatch.context() as mp:
        assert_bit_equal(run_experiment(m, rule, trials, seed),
                         reference_experiment(mp, m, rule, trials, seed))


def assert_tiles_follow_contract(seed, lo, hi, n, extra):
    starts = []
    for start, u, r in simulate._tiles(seed, lo, hi, n, extra):
        starts.append(start)
        assert u.shape == (min(max(1, simulate._TILE // (n + extra)), hi - start), n)
        for i, row in enumerate(u):
            rng = trial_rng(seed, start + i, n, extra)
            assert np.array_equal(row, rng.random(n))
            if extra:
                assert r[i] == rng.random()
            else:
                assert r is None
    assert starts[0] == lo and starts[-1] + len(u) == hi


def test_trial_stream_is_one_advanced_pcg64dxsm_and_any_subset_agrees():
    seed = 2 ** 64 - 1
    # unpadded widths n + extra of 300, 301, 7, 8 and 9, odd and even
    for n in (300, 7, 8):
        for lo, hi in [(0, 1024), (1000, 1024), (2048, 2050)]:
            for extra in (False, True):
                assert_tiles_follow_contract(seed, lo, hi, n, extra)
    # a run over fewer trials repeats the first trials of a longer one
    model, rule = HeavyTailIID(n=30), SoftMax(0.5)
    short = simulate._main_pass(model, rule, 700, 9, 1, (2.0,))
    long = simulate._main_pass(model, rule, 2100, 9, 3, (2.0,))
    for a, b in zip(short, long):
        assert np.array_equal(a, b[:700])
    # every 64-bit seed is its own stream: 2**64 - 1 is not seed 0
    assert run_experiment(model, rule, 50, 2 ** 64 - 1).bias != \
        run_experiment(model, rule, 50, 0).bias


def test_trial_offset_past_two_to_the_64():
    # lo * W >= 2**64: the chunk advances past 2**64 draws, and a tile that
    # starts just below that offset crosses it inside the generator
    for n, extra in [(9, True), (4, False), (1, True), (7, False)]:
        w = n + extra
        lo = -(-2 ** 64 // w)
        assert lo * w >= 2 ** 64
        assert_tiles_follow_contract(3, lo, lo + 5, n, extra)
        assert_tiles_follow_contract(2 ** 64 - 1, lo - 3, lo + 3, n, extra)


def test_consecutive_trials_are_one_slice_of_a_single_stream():
    # trials lo..hi-1, each n + extra doubles laid end to end, are the
    # doubles of one Generator.random call from draw lo * W
    seed, lo, hi = 12345, 1000, 1400
    for n, extra in [(100, False), (9, True), (10, False), (3, True), (2000, True),
                     (7, False), (8, True)]:
        width = n + extra
        stream = trial_rng(seed, lo, n, extra).random((hi - lo) * width)
        trials = stream.reshape(hi - lo, width)
        for start, u, r in simulate._tiles(seed, lo, hi, n, extra):
            rows = trials[start - lo:start - lo + len(u)]
            assert np.array_equal(u, rows[:, :n])
            assert (r is None) if not extra else np.array_equal(r, rows[:, n])


def test_threaded_chunks_match_serial_under_fast_switching():
    # chunks write disjoint slices of shared arrays; more threads than cores
    # and a short switch interval would expose a lost or misplaced write
    model, rule = GaussianIID(n=20), SoftMax(0.5)
    serial = run_experiment(model, rule, 6000, 4, alphas=(1.5,))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_experiment(model, rule, 6000, 4, alphas=(1.5,), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert_bit_equal(serial, threaded)
