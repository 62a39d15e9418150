import csv
import io
import json
import math

import numpy as np
import pytest

from biasbound.bounds import (BoundReport, conjugate_exponent, gaussian_bound,
                              max_inequality_cgf_bound,
                              max_inequality_orlicz_bound,
                              max_inequality_pnorm_bound, mgf_bound,
                              pnorm_bound, pnorm_uniform_bound,
                              weighted_beta_norm)
from biasbound.cgf import (SubExponential, SubGamma, SubGaussian,
                           subexponential_piecewise_bound)
from biasbound.divergence import (DiscreteJoint, abs_power_generator,
                                  alpha_mi_cardinality_bound,
                                  alpha_mi_marginal_bound,
                                  alpha_mutual_information, kl_generator,
                                  load_probability_vector, phi_divergence)
from biasbound.orlicz import (NumericDivergence, OrliczFunction, amemiya_norm,
                              holder_check, power_orlicz, scaled_power_orlicz)
from biasbound.simulate import ArgMax, GaussianIID, frechet_mean, run_experiment


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    assert conjugate_exponent(math.inf) == 1.0
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)


def test_weighted_beta_norm():
    sig = [1.0, 2.0, 3.0]
    p = [0.2, 0.3, 0.5]
    want = (0.2 * 1 + 0.3 * 2 ** 3 + 0.5 * 3 ** 3) ** (1 / 3)
    assert weighted_beta_norm(sig, p, 3.0) == pytest.approx(want, rel=1e-14)
    # beta = inf takes the max over the support only
    assert weighted_beta_norm([1.0, 9.0, 2.0], [0.5, 0.0, 0.5], math.inf) == 2.0
    # scalar sigma broadcasts over p
    assert weighted_beta_norm(1.5, [0.25, 0.75], 2.0) == pytest.approx(1.5)
    # max sigma is factored out: no overflow in sigma^beta, one sigma exactly
    assert weighted_beta_norm(1e200, None, 3.0) == 1e200
    assert weighted_beta_norm([1e200, 2e200], [0.5, 0.5], 3.0) == pytest.approx(
        1e200 * 4.5 ** (1 / 3), rel=1e-14)
    assert weighted_beta_norm([0.0, 0.0], None, 2.0) == 0.0
    assert weighted_beta_norm([1.0, math.inf], None, 2.0) == math.inf
    # only the support of p counts
    assert weighted_beta_norm([math.inf, 2.0], [0.0, 1.0], 3.0) == 2.0
    assert weighted_beta_norm([1e300, 1.0], [0.0, 1.0], 3.0) == 1.0
    with pytest.raises(ValueError):
        weighted_beta_norm([1.0, -1.0], None, 2.0)
    with pytest.raises(ValueError):
        weighted_beta_norm([1.0, 1.0], [0.4, 0.4], 2.0)


def test_mgf_bound_soft_generalizes_hard():
    # uniform marginal over identical envelopes == single-envelope bound
    env = SubGamma(2.0, 0.5)
    n = 6
    soft = mgf_bound([env] * n, np.full(n, 1 / n), math.log(n))
    hard = env.inverse_conjugate(math.log(n))
    assert soft == pytest.approx(hard, rel=1e-9)


def test_mgf_bound_heterogeneous_and_errors():
    envs = [SubGaussian(1.0), SubGaussian(2.0)]
    val = mgf_bound(envs, [0.5, 0.5], 0.7)
    assert val == pytest.approx(math.sqrt(2.5) * math.sqrt(2 * 0.7), rel=1e-9)
    with pytest.raises(ValueError):
        mgf_bound(envs, [0.5, 0.3, 0.2], 0.7)


def test_mgf_bound_ignores_cells_never_selected():
    # psi_bar = E_T psi_T: a cell with P(T = i) = 0 contributes nothing, so
    # its narrow domain (1/b = 0.1) must not cut the mixture's
    envs = [SubGaussian(1.0), SubGamma(1.0, 0.5)]
    want = mgf_bound(envs, [0.5, 0.5], 2.0)
    got = mgf_bound(envs + [SubExponential(1.0, 10.0)], [0.5, 0.5, 0.0], 2.0)
    assert got == want
    assert want == pytest.approx(2.70, abs=0.01)


def test_mgf_bound_takes_a_loaded_probability_vector(tmp_path):
    # one tolerance, 1e-9, for every probability vector: a p_t that the
    # loader accepts is a valid mixture
    path = tmp_path / "p.csv"
    path.write_text("p\n0.5\n0.2500000005\n0.25\n")
    p = load_probability_vector(path)
    assert abs(p.sum() - 1.0) > 1e-12
    envs = [SubGaussian(1.0), SubGamma(1.0, 0.5), SubGaussian(2.0)]
    assert mgf_bound(envs, p, 1.0) == pytest.approx(
        mgf_bound(envs, [0.5, 0.25, 0.25], 1.0), rel=1e-8)


def test_mgf_bound_monotone():
    envs = [SubGaussian(1.0), SubGamma(1.5, 0.8)]
    p = [0.4, 0.6]
    infos = np.linspace(0.1, 3.0, 12)
    vals = [mgf_bound(envs, p, i) for i in infos]
    assert np.all(np.diff(vals) > 0)
    # larger sigma on one component can only increase the bound
    bigger = [SubGaussian(1.5), SubGamma(1.5, 0.8)]
    assert mgf_bound(bigger, p, 1.0) > mgf_bound(envs, p, 1.0)


def test_pnorm_bound_formula():
    sig = [1.0, 2.0]
    p = [0.5, 0.5]
    i_alpha = 0.8
    alpha = conjugate_exponent(4.0)
    want = (0.5 * 1 + 0.5 * 16) ** 0.25 * 0.8 ** (1 / alpha)
    assert pnorm_bound(sig, p, 4.0, i_alpha) == pytest.approx(want, rel=1e-14)
    assert pnorm_bound(sig, p, 4.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        pnorm_bound(sig, p, 4.0, -0.1)


def test_pnorm_uniform_frozen_values():
    ub = pnorm_uniform_bound(1.0, 2.0, 5)
    assert ub.value == pytest.approx(2.0, rel=1e-14)
    ub = pnorm_uniform_bound(1.0, 4.0, 16)
    assert ub.value == pytest.approx((1 + 16 ** (1 / 3)) ** (3 / 4), rel=1e-12)
    assert ub.value == pytest.approx(2.5697589428259664, rel=1e-12)
    assert ub.loose == pytest.approx(2 ** (3 / 4) * 16 ** 0.25, rel=1e-12)
    assert ub.loose == pytest.approx(3.363585661014858, rel=1e-12)


def test_pnorm_uniform_edge_cases():
    assert pnorm_uniform_bound(1.0, 2.0, 1).value == 0.0
    # beta = inf: alpha = 1, factor 2 on both forms
    ub = pnorm_uniform_bound(3.0, math.inf, 7)
    assert ub.value == pytest.approx(6.0)
    assert ub.loose == pytest.approx(6.0)
    with pytest.raises(ValueError):
        pnorm_uniform_bound(1.0, 1.5, 5)


def test_pnorm_uniform_tight_below_loose():
    rng = np.random.default_rng(3)
    for _ in range(40):
        beta = float(rng.uniform(2.0, 8.0))
        n = int(rng.integers(1, 200))
        sigma = float(rng.uniform(0.1, 4.0))
        ub = pnorm_uniform_bound(sigma, beta, n)
        assert ub.value <= ub.loose + 1e-12


def test_pnorm_uniform_caps_data_dependent_bound():
    # at beta = 2 the uniform cap equals the cardinality worst case exactly
    for n in (2, 5, 11):
        cap = alpha_mi_cardinality_bound(n, 2.0)
        assert pnorm_bound(1.0, np.full(n, 1 / n), 2.0, cap) == pytest.approx(
            pnorm_uniform_bound(1.0, 2.0, n).value, rel=1e-12)


def test_pnorm_uniform_cell_count_is_n():
    # a joint attains I_2 = 2 on the marginal (0.5, 0.25, 0.25), a bias of
    # sqrt(2); that marginal with n = 2 once gave a "cap" of 1.0
    p = [0.5, 0.25, 0.25]
    worst = pnorm_bound(1.0, p, 2.0, alpha_mi_marginal_bound(p, 2.0))
    assert worst == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert pnorm_uniform_bound(1.0, 2.0, 3, p).value == pytest.approx(worst, rel=1e-14)
    with pytest.raises(ValueError, match="p_t has 3 entries, not n = 2"):
        pnorm_uniform_bound(1.0, 2.0, 2, p)
    with pytest.raises(ValueError, match="sigma has 2 values, not 1 or n = 3"):
        pnorm_uniform_bound([1.0, 2.0], 2.0, 3)
    assert pnorm_uniform_bound([1.0, 2.0, 3.0], 2.0, 3, p).value == pytest.approx(
        weighted_beta_norm([1.0, 2.0, 3.0], p, 2.0) * math.sqrt(2.0), rel=1e-14)


def test_pnorm_uniform_caps_every_marginal():
    # without p_t the cap holds over all joints on n cells, whatever their
    # T-marginal; a uniformly weighted sigma list once fell to 0.44 of the
    # bound that a Dirichlet marginal attains
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(2, 61))
        beta = 2.0 if rng.random() < 0.5 else float(rng.uniform(2.0, 8.0))
        sigma = rng.uniform(0.0, 10.0, n) ** 2
        p = rng.dirichlet(np.full(n, float(rng.choice([0.05, 1.0]))))
        if p.min() <= 0.0:
            continue
        attained = pnorm_bound(sigma, p, beta, alpha_mi_marginal_bound(
            p, conjugate_exponent(beta)))
        ub = pnorm_uniform_bound(sigma, beta, n)
        assert ub.value >= attained * (1 - 1e-12)
        assert ub.loose >= attained * (1 - 1e-12)
    assert pnorm_uniform_bound([1.0, 10.0], 2.0, 2).value == 10.0


def test_closed_form_family_bounds():
    assert gaussian_bound(1.5, math.log(2)) == pytest.approx(
        1.5 * math.sqrt(2 * math.log(2)), rel=1e-14)
    # vector sigma with weights
    val = gaussian_bound([1.0, 2.0], 0.5, [0.5, 0.5])
    assert val == pytest.approx(math.sqrt(2.5) * 1.0, rel=1e-14)
    subgamma = SubGamma(4.0, 2.0).inverse_conjugate(math.log(2))
    assert subgamma == pytest.approx(
        2 * math.sqrt(2 * math.log(2)) + 2 * math.log(2), rel=1e-14)
    assert subgamma == pytest.approx(3.7411144061508397, rel=1e-14)


def test_subexponential_bound_pair():
    # the canonical bound and the printed piecewise form, as the CLI reports them
    canonical = SubExponential(1.0, 1.0).inverse_conjugate(2.0)
    assert canonical == pytest.approx(
        subexponential_piecewise_bound(1.0, 1.0, 2.0), rel=1e-12)
    env = SubExponential(1.0, 2.0)
    canonical = env.inverse_conjugate(2.0)
    assert canonical == pytest.approx(4.25, rel=1e-12)
    assert subexponential_piecewise_bound(1.0, 2.0, 2.0) == pytest.approx(4.125, rel=1e-12)
    # the canonical value is the true minimum, so it is a valid upper bound
    lams = np.linspace(1e-6, 0.5 * (1 - 1e-9), 5001)
    direct = np.min((np.array([env.evaluate(l) for l in lams]) + 2.0) / lams)
    assert canonical <= direct + 1e-9


def test_max_inequality_bounds():
    assert max_inequality_cgf_bound([SubGaussian(1.0)], 8) == pytest.approx(
        math.sqrt(2 * math.log(8)), rel=1e-12)
    # pointwise max of two envelopes dominates each single-envelope bound
    both = max_inequality_cgf_bound([SubGaussian(1.0), SubGaussian(2.0)], 8)
    assert both >= max_inequality_cgf_bound([SubGaussian(2.0)], 8) - 1e-9
    # any iterable is read once; an empty one is a ValueError
    assert max_inequality_cgf_bound(iter([SubGaussian(1.0)]), 8) == \
        max_inequality_cgf_bound([SubGaussian(1.0)], 8)
    with pytest.raises(ValueError):
        max_inequality_cgf_bound([], 8)
    assert max_inequality_pnorm_bound(2.0, 3.0, 8) == pytest.approx(2 * 2.0)
    assert max_inequality_pnorm_bound(2.0, math.inf, 9) == 2.0
    assert max_inequality_orlicz_bound(1.5, power_orlicz(2.0), 9) == pytest.approx(
        1.5 * 3.0, rel=1e-9)
    with pytest.raises(ValueError):
        max_inequality_pnorm_bound(1.0, 2.0, 0)


def test_numeric_bounds_past_an_overflowing_envelope():
    # SubExponential(1, 1e-200) is the sub-Gaussian lam^2 / 2 on [0, 1e200),
    # but lam^2 overflows on the whole first scan of the numeric search
    pair = [SubExponential(1.0, 1e-200), SubGaussian(1.0)]
    assert mgf_bound(pair, [0.5, 0.5], 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert max_inequality_cgf_bound(pair, 10) == pytest.approx(
        math.sqrt(2.0 * math.log(10)), rel=1e-12)


def test_scaling_covariance_of_pnorm():
    rng = np.random.default_rng(9)
    sig = rng.uniform(0.5, 2.0, size=4)
    p = rng.dirichlet(np.ones(4))
    for a in (0.5, 2.0, 7.0):
        assert pnorm_bound(a * sig, p, 3.0, 0.7) == pytest.approx(
            a * pnorm_bound(sig, p, 3.0, 0.7), rel=1e-12)


def test_bound_report_ratios_and_dominance():
    rep = BoundReport(meta={"n": 4}, empirical={"bias": 1.0, "stderr": 0.05})
    rep.add_bound("a", 1.2, side="upper")
    rep.add_bound("b", 0.5)
    d = rep.to_dict()
    assert d["ratios"] == [pytest.approx(1.2), pytest.approx(0.5)]
    assert d["bounds"][0]["dominates"] is True
    assert d["bounds"][1]["dominates"] is False
    # a value or a stderr that is not a number dominates nothing
    for bound, stderr in ((math.inf, 0.05), (math.nan, 0.05), (1.2, math.nan),
                          (1.2, math.inf)):
        rep3 = BoundReport(empirical={"bias": 1.0, "stderr": stderr})
        rep3.add_bound("a", bound)
        assert rep3.to_dict()["bounds"][0]["dominates"] is False
    # bias indistinguishable from zero: no ratios
    rep2 = BoundReport(empirical={"bias": 0.01, "stderr": 0.05})
    rep2.add_bound("a", 1.0)
    assert rep2.to_dict()["ratios"] == [None]


def test_bound_report_json_and_csv():
    rep = BoundReport(meta={"n": 3, "model": "m"},
                      empirical={"bias": 0.5, "stderr": 0.001},
                      dependence={"I": 1.0, "I_alpha": {"2": 2.0}})
    rep.add_bound("x", 0.75)
    parsed = json.loads(rep.to_json())
    assert parsed["bounds"][0]["name"] == "x"
    assert parsed["dependence"]["I_alpha"]["2"] == 2.0
    header, row = rep.to_csv().strip().split("\n")
    assert header.split(",")[:2] == ["n", "model"]
    assert "bound_x" in header
    # non-finite values serialize as null / nan
    rep.add_bound("inf", math.inf)
    assert json.loads(rep.to_json())["bounds"][1]["value"] is None
    assert "nan" in rep.to_csv()


def test_bound_report_csv_columns_come_from_its_sections():
    # every key of every section is a column, in section order
    rep = BoundReport(meta={"command": "simulate", "model": "m(a=1,b=2)"},
                      empirical={"bias": 0.5, "stderr": 0.1, "exact_bias": 0.45},
                      dependence={"I": 1.0, "I_se": 0.1, "I_alpha": {"2": 3.0}})
    rep.add_bound("mgf", 2.0, side="upper")
    rep.add_bound("form", 1.0, side="printed_form")
    header, row = csv.reader(io.StringIO(rep.to_csv()))
    assert header == ["command", "model", "bias", "stderr", "exact_bias", "I", "I_se",
                      "I_alpha_2", "bound_mgf", "ratio_mgf", "printed_form", "ratio_form"]
    assert row == ["simulate", "m(a=1,b=2)", "0.5", "0.1", "0.45", "1.0", "0.1", "3.0",
                   "2.0", "4.0", "1.0", "2.0"]
    # no empirical section: blank bias and stderr, and no ratios
    rep = BoundReport(meta={"command": "bound"}, dependence={"I": None, "I_alpha": {}})
    rep.add_bound("x", 0.75)
    assert rep.to_csv() == "command,bias,stderr,I,bound_x,ratio_x\nbound,,,,0.75,\n"


def test_gaussian_bound_signed_zero_budget():
    # the envelopes' argument contract: -0.0 and +0.0 both give +0.0
    for info in (-0.0, 0.0):
        for sigma in (1.0, 0.0):
            got = gaussian_bound(sigma, info)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0, (sigma, info)
    with pytest.raises(ValueError, match="information budget must be nonnegative"):
        gaussian_bound(1.0, -1e-300)
    # invalid sigmas still raise at a zero budget
    with pytest.raises(ValueError, match="sigma values must be nonnegative"):
        gaussian_bound([math.nan], -0.0)


def test_nan_sigma_or_pt_raises():
    with pytest.raises(ValueError, match="sigma values must be nonnegative"):
        gaussian_bound([math.nan], 1.0)
    with pytest.raises(ValueError, match="sigma values must be nonnegative"):
        pnorm_bound(math.nan, None, 2.0, 1.0)
    with pytest.raises(ValueError, match="p_t must be nonnegative"):
        pnorm_bound([1.0], [math.nan], 2.0, 1.0)


NAN = math.nan


@pytest.mark.parametrize("call,message", [
    (lambda: conjugate_exponent(NAN), "beta must be > 1"),
    (lambda: weighted_beta_norm(1.0, None, NAN), "beta must be >= 1"),
    (lambda: pnorm_bound(1.0, None, NAN, 1.0), "beta must be > 1"),
    (lambda: pnorm_bound(1.0, None, 2.0, NAN), "i_alpha must be nonnegative"),
    (lambda: pnorm_uniform_bound(1.0, NAN, 5), "no uniform bound exists for beta < 2"),
    (lambda: max_inequality_pnorm_bound(1.0, NAN, 5), "beta must be >= 1"),
    (lambda: abs_power_generator(NAN), "alpha must be >= 1"),
    (lambda: alpha_mutual_information(DiscreteJoint([[0.5, 0.0], [0.0, 0.5]]), NAN),
     "alpha must be >= 1"),
    (lambda: alpha_mi_marginal_bound([0.5, 0.5], NAN), "alpha must be >= 1"),
    (lambda: run_experiment(GaussianIID(n=3), ArgMax(), 10, alphas=(NAN,)),
     "alpha must be >= 1"),
    (lambda: power_orlicz(NAN), "p must be >= 1"),
    (lambda: scaled_power_orlicz(NAN), "p must be > 1"),
    (lambda: max_inequality_pnorm_bound(NAN, 2.0, 5), "sigma_max must be nonnegative"),
    (lambda: max_inequality_orlicz_bound(NAN, power_orlicz(2.0), 5),
     "sigma must be nonnegative"),
    (lambda: frechet_mean(NAN), "beta must be > 1"),
], ids=["conjugate_exponent", "weighted_beta_norm", "pnorm_bound-beta",
        "pnorm_bound-i_alpha", "pnorm_uniform_bound", "max_inequality_pnorm_bound",
        "abs_power_generator", "alpha_mutual_information", "alpha_mi_marginal_bound",
        "run_experiment", "power_orlicz", "scaled_power_orlicz",
        "max_inequality_pnorm_bound-sigma", "max_inequality_orlicz_bound", "frechet_mean"])
def test_nan_order_parameter_raises(call, message):
    # a NaN order or scale fails the check instead of returning nan
    with pytest.raises(ValueError, match=message):
        call()


BOUNDED = OrliczFunction(lambda u: np.minimum(u, 1.0), validate=False)
INFINITE = OrliczFunction(lambda u: np.where(u > 0, np.inf, 0.0), validate=False)


@pytest.mark.parametrize("call,error,message", [
    (lambda: weighted_beta_norm([]), ValueError, "sigma needs at least one value"),
    (lambda: gaussian_bound([], 1.0), ValueError, "sigma needs at least one value"),
    (lambda: pnorm_bound([], None, 2, 1), ValueError, "sigma needs at least one value"),
    (lambda: weighted_beta_norm([1.0, 2.0, 3.0], [0.5, 0.5]), ValueError,
     "p_t must have one entry per value"),
    (lambda: pnorm_uniform_bound(1.0, 2.0, 0), ValueError, "n must be >= 1"),
    (lambda: max_inequality_cgf_bound([SubGaussian(1.0)], 0), ValueError, "n must be >= 1"),
    (lambda: max_inequality_orlicz_bound(1.0, power_orlicz(2.0), 0), ValueError,
     "n must be >= 1"),
    (lambda: alpha_mi_marginal_bound([[0.5, 0.5]], 2.0), ValueError,
     "expected a 1-D probability vector"),
    (lambda: phi_divergence([0.5, 0.5], [1.0], kl_generator()), ValueError,
     "p and q must have the same shape"),
    (lambda: holder_check([1.0, 2.0], [1.0], power_orlicz(2.0)), ValueError,
     "x and y must have the same length"),
    (lambda: BOUNDED.inverse(2.0), NumericDivergence, "psi never reaches"),
    (lambda: amemiya_norm([1.0, 2.0], INFINITE), NumericDivergence,
     "diverges for every t"),
], ids=["weighted_beta_norm-empty", "gaussian_bound-empty", "pnorm_bound-empty",
        "weighted_beta_norm-lengths", "pnorm_uniform_bound-n", "max_inequality_cgf_bound-n",
        "max_inequality_orlicz_bound-n", "alpha_mi_marginal_bound-2d", "phi_divergence-shapes",
        "holder_check-lengths", "orlicz-inverse-bounded", "amemiya_norm-infinite"])
def test_empty_mismatched_or_unreachable_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
