import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biasbound.divergence import (DiscreteJoint, alpha_mutual_information)
from biasbound.orlicz import (NumericDivergence, OrliczFunction, amemiya_norm,
                              exp_orlicz, holder_check, luxemburg_norm, orlicz_bias_bound,
                              power_orlicz, scaled_power_orlicz)


def random_joint(rng, shape):
    m = rng.random(shape)
    m[rng.random(shape) < 0.15] = 0.0
    if m.sum() == 0:
        m[0, 0] = 1.0
    return DiscreteJoint(m / m.sum())


def test_power_luxemburg_is_p_norm():
    rng = np.random.default_rng(61)
    for p in (1.0, 2.0, 3.5):
        psi = power_orlicz(p)
        for _ in range(10):
            x = rng.uniform(0, 5, size=int(rng.integers(2, 9)))
            want = float(np.mean(np.abs(x) ** p) ** (1 / p))
            assert luxemburg_norm(x, psi) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_scaled_power_luxemburg_scaling():
    # psi(u) = u^p / p: E psi(|X|/s) <= 1 iff s >= p^{-1/p} ||X||_p
    rng = np.random.default_rng(67)
    p = 3.0
    psi = scaled_power_orlicz(p)
    x = rng.uniform(0.1, 4, size=6)
    want = p ** (-1 / p) * float(np.mean(x ** p) ** (1 / p))
    assert luxemburg_norm(x, psi) == pytest.approx(want, rel=1e-9)


def test_norm_equivalence_luxemburg_amemiya():
    rng = np.random.default_rng(71)
    psis = [power_orlicz(1.5), power_orlicz(2.0), scaled_power_orlicz(3.0),
            exp_orlicz()]
    for _ in range(60):
        psi = psis[int(rng.integers(len(psis)))]
        x = rng.uniform(0, 3, size=int(rng.integers(2, 8)))
        if not np.any(x > 0):
            continue
        lux = luxemburg_norm(x, psi)
        am = amemiya_norm(x, psi)
        assert lux <= am * (1 + 1e-9)
        assert am <= 2 * lux * (1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6), k=st.integers(-30, 30),
       which=st.integers(0, 3))
def test_norms_are_homogeneous(x, k, which):
    psi = (power_orlicz(1.5), power_orlicz(2.0), scaled_power_orlicz(3.0),
           exp_orlicz())[which]
    c = 10.0 ** k
    for norm in (luxemburg_norm, amemiya_norm):
        assert norm([c * v for v in x], psi) == pytest.approx(
            c * norm(x, psi), rel=1e-12, abs=0)


def test_amemiya_equality_case():
    # constant variable with psi = u^2: Amemiya = 2 * Luxemburg exactly
    c = np.array([1.7, 1.7, 1.7])
    psi = power_orlicz(2.0)
    assert luxemburg_norm(c, psi) == pytest.approx(1.7, rel=1e-9)
    assert amemiya_norm(c, psi) == pytest.approx(3.4, rel=1e-9)
    for scale in (1e30, 1e-30):
        assert luxemburg_norm([scale], psi) == pytest.approx(scale, rel=1e-13, abs=0)
        assert amemiya_norm([scale], psi) == pytest.approx(2 * scale, rel=1e-13, abs=0)
    # psi = u with weight 1e-300 on 1: the objective 1/t + 1e-300 still
    # decreases in floats past t = 2**1000, so no minimum is found in range
    with pytest.raises(NumericDivergence):
        amemiya_norm([0.0, 1.0], power_orlicz(1.0), [1.0, 1e-300])


def test_zero_variable_has_zero_norms():
    psi = power_orlicz(2.0)
    z = np.zeros(4)
    assert luxemburg_norm(z, psi) == 0.0
    assert amemiya_norm(z, psi) == 0.0


def test_weights_and_validation():
    psi = power_orlicz(2.0)
    x = np.array([1.0, 3.0])
    w = np.array([0.75, 0.25])
    want = math.sqrt(0.75 * 1 + 0.25 * 9)
    assert luxemburg_norm(x, psi, w) == pytest.approx(want, rel=1e-9)
    # a tiny weight on a huge value: sqrt(1 + 1e-300 * 1e400) = 1e50
    assert luxemburg_norm([1.0, 1e200], psi, [1.0 - 1e-300, 1e-300]) == \
        pytest.approx(1e50, rel=1e-13)
    with pytest.raises(ValueError):
        luxemburg_norm(x, psi, np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        luxemburg_norm(x, psi, np.array([1.5, -0.5]))
    # NaN values or weights are rejected, not searched on
    for norm in (luxemburg_norm, amemiya_norm):
        with pytest.raises(ValueError):
            norm([math.nan, 1.0], psi)
        with pytest.raises(ValueError):
            norm(x, psi, [math.nan, 1.0])
    with pytest.raises(ValueError):
        psi.inverse(math.nan)
    with pytest.raises(ValueError):
        luxemburg_norm(np.array([]), psi)


def test_zero_weight_cells_add_nothing():
    # an infinite value at zero weight: no NaN from 0 * inf, no warning,
    # and Hoelder holds on the cells that carry mass
    psi = power_orlicz(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert luxemburg_norm([math.inf, 1.0], psi, [0.0, 1.0]) == 1.0
        assert amemiya_norm([math.inf, 1.0], psi, [0.0, 1.0]) == 2.0
        assert holder_check([1.0, math.inf], [1.0, 1.0], psi,
                            weights=[1.0, 0.0]) == (True, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="weights must sum to 1, got 1.1"):
        luxemburg_norm([1.0, 2.0], psi, [0.5, 0.6])


def test_orlicz_function_validation():
    with pytest.raises(ValueError):
        OrliczFunction(lambda u: u * 0 + 1.0)  # psi(0) != 0
    with pytest.raises(ValueError):
        OrliczFunction(lambda u: np.sqrt(u))  # concave
    with pytest.raises(ValueError):
        OrliczFunction(lambda u: u * 0.0)  # identically zero
    with pytest.raises(ValueError):
        power_orlicz(0.5)
    with pytest.raises(ValueError):
        scaled_power_orlicz(1.0)
    with pytest.raises(ValueError, match="psi must be nonnegative"):
        OrliczFunction(lambda u: -u)
    # convex, but decreasing below u = 5e-9 and infinite past the first grid
    # point 1e-8, so only the dense pass sees it fall below psi(0)
    with pytest.raises(ValueError, match="psi must be nondecreasing"):
        OrliczFunction(lambda u: np.where(u <= 1.5e-8, 1e9 * u * (u - 5e-9), np.inf))


def test_conjugate_closed_vs_numeric():
    # power(1) has conjugate 0 up to v = 1 and +inf beyond: the numeric
    # supremum of u v - u must come out unbounded, not as a large float
    for psi in (power_orlicz(1.0), power_orlicz(2.0), scaled_power_orlicz(3.0),
                exp_orlicz()):
        numeric = OrliczFunction(psi._fn, name="numeric", validate=False)
        for v in (0.2, 1.0, 2.0, 2.5, 6.0):
            assert psi.conjugate_value(v) == pytest.approx(
                numeric.conjugate_value(v), rel=1e-6, abs=1e-9)


def test_exp_conjugate_values():
    e = exp_orlicz()
    assert e.conjugate_value(0.5) == 0.0
    assert e.conjugate_value(1.0) == 0.0
    assert e.conjugate_value(2.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-12)


def test_inverse_of_psi():
    psi = power_orlicz(2.0)
    assert psi.inverse(9.0) == pytest.approx(3.0, rel=1e-9)
    assert psi.inverse(0.0) == 0.0
    e = exp_orlicz()
    assert e.inverse(math.e - 1) == pytest.approx(1.0, rel=1e-9)
    # far from unit scale, against the closed forms y**(1/p) and log1p(y)
    assert psi.inverse(1e-300) == pytest.approx(1e-300 ** 0.5, rel=1e-13, abs=0)
    assert e.inverse(1e-200) == pytest.approx(math.log1p(1e-200), rel=1e-13, abs=0)
    # psi(u) overflows to inf at a finite u, but never reaches inf
    assert psi.inverse(math.inf) == math.inf
    assert e.inverse(math.inf) == math.inf


def test_generalized_holder():
    rng = np.random.default_rng(73)
    psis = [power_orlicz(2.0), scaled_power_orlicz(2.5), exp_orlicz()]
    for _ in range(100):
        psi = psis[int(rng.integers(len(psis)))]
        k = int(rng.integers(2, 8))
        x = rng.uniform(0, 4, size=k)
        y = rng.uniform(0, 4, size=k)
        holds, slack, lhs, rhs = holder_check(x, y, psi)
        assert holds, (lhs, rhs)


def test_holder_equality_example():
    # X constant 2, Y constant 1, psi = u^2: E[XY] = 2 while
    # ||X||_psi = 2 and ||Y||^A_{psi*} = 1 (t* = 2 gives (1 + 1/4*4)/2 = 1)
    x = np.array([2.0, 2.0])
    y = np.array([1.0, 1.0])
    holds, slack, lhs, rhs = holder_check(x, y, power_orlicz(2.0))
    assert holds
    assert lhs == pytest.approx(2.0, rel=1e-9)
    assert rhs == pytest.approx(2.0, rel=1e-9)
    assert slack == pytest.approx(0.0, abs=1e-8)


def test_orlicz_bias_bound_independent_joint_is_zero():
    joint = DiscreteJoint(np.outer([0.3, 0.7], [0.4, 0.6]))
    assert orlicz_bias_bound(2.0, joint, scaled_power_orlicz(3.0)) == \
        pytest.approx(0.0, abs=1e-12)


def test_orlicz_bias_bound_matches_pnorm_route():
    # with psi(u) = u^beta / beta, sigma_Lux = beta^{-1/beta} ||X||_beta and
    # the conjugate Amemiya norm is beta^{1/beta} I_alpha^{1/alpha}: the
    # product reproduces ||X||_beta I_alpha^{1/alpha} exactly
    rng = np.random.default_rng(79)
    for beta in (2.0, 3.0):
        alpha = beta / (beta - 1)
        psi = scaled_power_orlicz(beta)
        for _ in range(10):
            joint = random_joint(rng, (3, 4))
            ia = alpha_mutual_information(joint, alpha)
            got = orlicz_bias_bound(1.0, joint, psi)
            assert got == pytest.approx(beta ** (1 / beta) * ia ** (1 / alpha),
                                        rel=1e-7, abs=1e-9)


def test_orlicz_bias_bound_scales_in_sigma():
    joint = DiscreteJoint([[0.4, 0.1], [0.1, 0.4]])
    psi = scaled_power_orlicz(2.0)
    one = orlicz_bias_bound(1.0, joint, psi)
    assert orlicz_bias_bound(3.0, joint, psi) == pytest.approx(3 * one, rel=1e-9)
    with pytest.raises(ValueError):
        orlicz_bias_bound(-1.0, joint, psi)


UNDERFLOWED = [[1e-200, 0.0], [0.0, 1.0 - 1e-200]]


def test_orlicz_bias_bound_underflowed_product_power_is_finite():
    # both marginals of cell (0, 0) are 1e-200, so the product measure is 0
    # there in floats; L = 1e200 at weight 1e-400 still weighs about 1 in
    # the conjugate norm: sum p**2 / (p_row p_col) - 1 = 1, so under
    # psi = u**2 (psi* = v**2 / 4) the bound is sqrt(1) = 1, where leaving the
    # cell out would give 1.4e-100
    joint = DiscreteJoint(UNDERFLOWED)
    assert orlicz_bias_bound(1.0, joint, power_orlicz(2.0)) == pytest.approx(1.0, rel=1e-15)
    # psi = u**2 / 2 scales the conjugate norm by 2**(1/2)
    assert orlicz_bias_bound(3.0, joint, scaled_power_orlicz(2.0)) == \
        pytest.approx(3.0 * math.sqrt(2.0), rel=1e-15)


def test_orlicz_bias_bound_underflowed_product_exp_is_inf():
    # exp's conjugate has no power form to carry the lost cell's weight
    joint = DiscreteJoint(UNDERFLOWED)
    assert orlicz_bias_bound(1.0, joint, exp_orlicz()) == math.inf


# --- the power family in closed form ---------------------------------------

@pytest.mark.parametrize("psi", [power_orlicz(2.0), power_orlicz(3.0), scaled_power_orlicz(3.0)],
                         ids=repr)
def test_power_family_makes_no_numeric_search(psi, no_numeric_search):
    rng = np.random.default_rng(97)
    x = rng.uniform(0.0, 3.0, 50)
    w = rng.dirichlet(np.ones(50))
    joint = random_joint(rng, (4, 5))
    for f in (psi, psi.conjugate_function()):
        assert 0.0 < luxemburg_norm(x, f, w) <= amemiya_norm(x, f, w) < math.inf
        assert 0.0 < f.inverse(7.0) < math.inf
        assert 0.0 < orlicz_bias_bound(1.5, joint, f) < math.inf


def numeric_twin(family, p):
    """A closed-form power psi and the same function as a plain OrliczFunction,
    whose norms and inverse take the numeric searches."""
    q = p / (p - 1.0)
    return {"power": (power_orlicz(p), lambda u: u ** p),
            "scaled": (scaled_power_orlicz(p), lambda u: u ** p / p),
            "power*": (power_orlicz(p).conjugate_function(),
                       lambda v: (p - 1.0) * (v / p) ** q)}[family]


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["power", "scaled", "power*"]), p=st.floats(1.05, 8.0),
       cells=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1.0)),
                      min_size=1, max_size=8),
       y=st.floats(1e-3, 1e3))
def test_power_closed_forms_match_numeric(family, p, cells, y):
    closed, fn = numeric_twin(family, p)
    plain = OrliczFunction(fn)
    x, w = np.array(cells).T
    w = w / w.sum()
    for norm in (luxemburg_norm, amemiya_norm):
        assert norm(x, closed, w) == pytest.approx(norm(x, plain, w), rel=1e-12, abs=0)
    assert closed.inverse(y) == pytest.approx(plain.inverse(y), rel=1e-12, abs=0)


@settings(max_examples=100, deadline=None)
@given(p=st.floats(1.05, 8.0), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 6)))
def test_power_bias_bound_is_alpha_mutual_information(p, seed, shape):
    # psi = u**p has psi* = (p - 1)(v/p)**q, whose Amemiya norm of L - 1 is
    # E_prod |L - 1|**q to the 1/q: I_q(J)**(1/q).  On a joint that is a
    # product, L - 1 is rounding, a few 1e-16, where I_q is clamped to 0
    q = p / (p - 1.0)
    joint = random_joint(np.random.default_rng(seed), shape)
    assert orlicz_bias_bound(1.0, joint, power_orlicz(p)) == pytest.approx(
        alpha_mutual_information(joint, q) ** (1.0 / q), rel=1e-12, abs=1e-14)


# --- closed-form conjugates on arrays ---------------------------------------

def closed_psi(family, p):
    return {"power": lambda: power_orlicz(p), "scaled": lambda: scaled_power_orlicz(p),
            "exp": exp_orlicz}[family]()


def conjugate_mp(family, p, v):
    """40-digit psi*(v) from the closed form, at the exact double inputs p and v,
    and kappa: half-ulp roundings of the closed form's inputs move psi* by at most
    kappa half-ulps (y**q with y = v/p or v and q = p/(p - 1) each rounded once;
    v ln v from a rounded ln v)."""
    with mpmath.workdps(40):
        v = mpmath.mpf(v)
        if family == "exp":
            if v <= 1:
                return mpmath.mpf(0), 0.0
            want = v * mpmath.log(v) - v + 1
            return want, float(v * abs(mpmath.log(v)) / want)
        p = mpmath.mpf(p)
        q = p / (p - 1)
        y = v / p if family == "power" else v
        want = (p - 1) * y ** q if family == "power" else y ** q / q
        kappa = float(q * (1 + abs(mpmath.log(y)))) if y > 0 else 0.0
        return want, kappa


def assert_conjugate_close(got, want, kappa):
    """got within 4 ulp of want plus kappa half-ulps of relative error, or within
    1e-300; got = inf only where that allowance reaches past the largest double."""
    got, top = float(got), np.finfo(float).max
    rel = kappa * 2.0 ** -53
    if math.isinf(got):
        assert want * (1 + rel) >= top, (got, float(want), kappa)
        return
    err = abs(mpmath.mpf(got) - want)
    assert err <= 4 * np.spacing(min(float(want), top)) + rel * want or err <= 1e-300, \
        (got, float(want), kappa)


conjugate_cases = st.one_of(
    st.tuples(st.just("power"), st.floats(1.0, 6.0, exclude_min=True)),
    st.tuples(st.just("scaled"), st.floats(1.0, 6.0, exclude_min=True)),
    st.tuples(st.just("exp"), st.just(math.nan)))


@settings(max_examples=300, deadline=None)
@given(case=conjugate_cases,
       v=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8))
def test_array_conjugate_matches_mpmath(case, v):
    family, p = case
    got = closed_psi(family, p).conjugate_function()(np.array(v))
    assert got.shape == (len(v),)
    for g, t in zip(got, v):
        assert_conjugate_close(g, *conjugate_mp(family, p, t))


def test_exp_conjugate_has_no_cancellation_near_one():
    # v ln v - v + 1 lost every digit at v = 1 + 1e-8 and 1 + 1e-12
    x = np.concatenate([[1e-12, 1e-8, 1e-5, 1e-3], np.geomspace(2.0 ** -52, 1e6, 400),
                        np.random.default_rng(89).uniform(0.0, 3.0, 400)])
    v = 1.0 + x
    v = v[v > 1.0]
    got = exp_orlicz().conjugate_function()(v)
    with mpmath.workdps(50):
        for g, t in zip(got, v):
            t = mpmath.mpf(t)
            want = t * mpmath.log(t) - t + 1
            assert abs(g - want) <= 1e-14 * want, (float(t), g, float(want))


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(conjugate_cases, st.tuples(st.just("power"), st.just(1.0))),
       u=st.floats(0.0, 50.0), v=st.floats(0.0, 50.0), slope=st.floats(0.5, 2.0))
@example(case=("power", 5.75), u=3.6643241972790615e-56, v=0.0, slope=1.0)
def test_young_inequality(case, u, v, slope):
    # psi(u) + psi*(v) >= u v, with equality where v = psi'(u); the slope
    # factor draws v near that curve as well as anywhere.  Where u v is
    # subnormal, psi(u) and psi*(v) each round to a multiple of 2**-1074 and
    # their sum rounds once more, so lhs may fall short by that much
    family, p = case
    psi = closed_psi(family, p)
    deriv = math.exp(u) if family == "exp" else (
        p * u ** (p - 1) if family == "power" else u ** (p - 1))
    for w in (v, slope * deriv):
        lhs = float(psi(u)) + psi.conjugate_value(w)
        assert lhs >= u * w * (1 - 1e-12) - 4 * 2.0 ** -1074, (u, w, lhs)


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(conjugate_cases, st.tuples(st.just("power"), st.just(1.0))),
       x=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6).filter(lambda x: max(x) > 0))
def test_norm_equivalence_under_conjugate(case, x):
    conj = closed_psi(*case).conjugate_function()
    lux = luxemburg_norm(x, conj)
    am = amemiya_norm(x, conj)
    assert lux <= am * (1 + 1e-9)
    assert am <= 2 * lux * (1 + 1e-9)


def test_conjugate_shape_contract():
    numeric = OrliczFunction(lambda u: np.power(u, 3.0), name="cube")
    grid = np.array([[0.0, 0.5, 1.0], [2.0, 3.5, 8.0]])
    for psi in (power_orlicz(1.0), power_orlicz(2.5), scaled_power_orlicz(3.0),
                exp_orlicz(), numeric):
        conj = psi.conjugate_function()
        for scalar in (2.0, np.float64(2.0), np.array(2.0)):
            out = conj(scalar)
            assert isinstance(out, float) and np.ndim(out) == 0
            assert isinstance(psi.conjugate_value(scalar), float)
        for arr in (grid[0], grid):
            out = conj(arr)
            assert isinstance(out, np.ndarray) and out.shape == arr.shape
            assert np.array_equal(out, np.vectorize(psi.conjugate_value)(arr))
    # the numeric conjugate still works per element: psi = u^3 gives 2 (v/3)^1.5
    assert np.allclose(numeric.conjugate_function()(grid),
                       power_orlicz(3.0).conjugate_function()(grid), rtol=1e-6, atol=1e-9)


def test_power_one_conjugate_is_exactly_zero_or_inf():
    conj = power_orlicz(1.0).conjugate_function()
    v = np.array([0.0, 0.3, 1.0, np.nextafter(1.0, 2.0), 2.0, 1e300, np.inf, np.nan])
    out = conj(v)
    assert out.tolist() == [0.0, 0.0, 0.0, math.inf, math.inf, math.inf, math.inf, math.inf]
    assert conj(np.array([[0.5], [1.5]])).tolist() == [[0.0], [math.inf]]


def test_conjugate_nan_and_inf():
    assert math.isnan(exp_orlicz().conjugate_value(math.nan))
    for psi in (power_orlicz(2.0), power_orlicz(1.3), scaled_power_orlicz(2.5)):
        assert psi.conjugate_value(math.inf) == math.inf
        assert math.isnan(psi.conjugate_value(math.nan))


def test_conjugate_at_inf_nan_and_0d_every_family():
    # psi*(+inf) = +inf and psi*(nan) = nan for every closed form, from a float,
    # a 0-d array or inside an array (exp gave inf - inf = nan at +inf)
    for psi in (power_orlicz(2.0), power_orlicz(1.3), scaled_power_orlicz(2.5),
                exp_orlicz()):
        conj = psi.conjugate_function()
        for v in (math.inf, np.array(math.inf)):
            assert psi.conjugate_value(v) == math.inf
            out = conj(v)
            assert isinstance(out, float) and out == math.inf
        for v in (math.nan, np.array(math.nan)):
            assert math.isnan(psi.conjugate_value(v))
            assert math.isnan(conj(v))
        out = conj(np.array([0.0, 2.0, math.inf, math.nan]))
        assert out[0] == 0.0 and 0.0 < out[1] < math.inf
        assert out[2] == math.inf and math.isnan(out[3])


@pytest.mark.parametrize("psi", [power_orlicz(1.0), exp_orlicz()] + [
    family(p) for family in (power_orlicz, scaled_power_orlicz)
    for p in (1.05, 1.5, 2.0, 3.0, 5.75, 8.0)], ids=repr)
def test_builtin_psi_pass_validation(psi):
    # the factories skip _validate; each psi and its conjugate still pass it
    # (power(1)'s conjugate, 0 up to 1 and inf past it, is positive nowhere
    # it is finite, so it is left out)
    psi._validate()
    if psi.name != "power(1)":
        psi.conjugate_function()._validate()


def test_conjugate_twice_is_psi_for_a_user_psi():
    # psi* carries psi's own fn as its closed conjugate, so psi** is psi
    # exactly, not a numeric Legendre transform of a numeric one
    psi = OrliczFunction(lambda u: u ** 3 + u ** 2, name="cubic")
    conj = psi.conjugate_function()
    twice = conj.conjugate_function()
    grid = np.array([0.0, 1e-300, 0.5, 2.0, 700.0])
    assert twice.name == "cubic**"
    assert np.array_equal(twice(grid), psi(grid))
    assert np.array_equal(twice.conjugate_function()(grid), conj(grid))
    assert np.array_equal(power_orlicz(1.0).conjugate_function().conjugate_function()(grid),
                          grid)


# --- exp and its conjugate by Newton -----------------------------------------

def exp_family():
    psi = exp_orlicz()
    return {"exp": psi, "exp*": psi.conjugate_function(),
            "exp**": psi.conjugate_function().conjugate_function()}


def test_exp_conjugate_twice_is_exp():
    twice = exp_family()["exp**"]
    grid = np.array([0.0, 1e-300, 0.5, 2.0, 700.0])
    assert np.array_equal(twice(grid), np.expm1(grid))
    assert twice.inverse(7.0) == math.log1p(7.0)


@pytest.mark.parametrize("family", ["exp", "exp*", "exp**"])
def test_exp_family_makes_no_numeric_search(family, no_numeric_search):
    f = exp_family()[family]
    rng = np.random.default_rng(101)
    x = rng.uniform(0.0, 3.0, 50)
    y = rng.uniform(0.0, 3.0, 50)
    w = rng.dirichlet(np.ones(50))
    joint = random_joint(rng, (4, 5))
    assert 0.0 < luxemburg_norm(x, f, w) <= amemiya_norm(x, f, w) < math.inf
    assert 0.0 < f.inverse(7.0) < math.inf
    assert 0.0 < orlicz_bias_bound(1.5, joint, f) < math.inf
    assert holder_check(x, y, f, w)[0]


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["exp", "exp*"]), k=st.integers(-30, 30),
       cells=st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(-300.0, 0.0)),
                      min_size=1, max_size=8),
       y=st.floats(1e-3, 1e3))
def test_exp_family_newton_matches_numeric(family, k, cells, y):
    # values at scale 10**k, weights 10**e for e in [-300, 0] before
    # normalising; the plain OrliczFunction of the same function searches
    closed = exp_family()[family]
    plain = OrliczFunction(closed._fn)
    x, e = np.array(cells).T
    x = x * 10.0 ** k
    w = 10.0 ** e / np.sum(10.0 ** e)
    for norm in (luxemburg_norm, amemiya_norm):
        assert norm(x, closed, w) == pytest.approx(norm(x, plain, w), rel=1e-12, abs=0)
    assert closed.inverse(y) == pytest.approx(plain.inverse(y), rel=1e-12, abs=0)


def test_exp_family_norms_match_mpmath():
    # the corpus sample data.csv (uniform weights): 40-digit roots of
    # E psi(X / s) = 1 and E [x psi'(x) - psi(x)] = 1 at x = t X
    x = [1.0, 2.5, 0.5, 3.0]
    with mpmath.workdps(40):
        xs = [mpmath.mpf(v) for v in x]
        mean = lambda g: sum(g(v) for v in xs) / len(xs)  # noqa: E731
        conj = lambda v: v * mpmath.log(v) - v + 1 if v > 1 else mpmath.mpf(0)  # noqa: E731
        for family, psi, excess, guess in (
                ("exp", mpmath.expm1, lambda v: (v - 1) * mpmath.exp(v) + 1, (2.8, 0.5)),
                ("exp*", conj, lambda v: max(v - 1, 0), (0.8, 2.0))):
            closed = exp_family()[family]
            lux = mpmath.findroot(lambda s: mean(lambda v: psi(v / s)) - 1, guess[0])
            t = mpmath.findroot(lambda t: mean(lambda v: excess(t * v)) - 1, guess[1])
            ame = (1 + mean(lambda v: psi(t * v))) / t
            for got, want in ((luxemburg_norm(x, closed), lux), (amemiya_norm(x, closed), ame)):
                assert abs(got - want) <= 4 * np.spacing(float(want)), (family, got, want)


def test_exp_fallback_norms_match_mpmath():
    # a weight below 1e-300 takes the searches, and here the root lies past
    # x = 709.78, where e**x - 1 overflows but the weighted term does not.
    # 60-digit roots at the exact double inputs: 1e-315 is subnormal,
    # 9.9999999848e-316 as a double, which moves the norms by 2e-12
    x, w = [1e-6, 1.0], [1.0, 1e-315]
    with mpmath.workdps(60):
        xs, ws = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in w]
        mean = lambda g: sum(wi * g(xi) for xi, wi in zip(xs, ws))  # noqa: E731
        r = mpmath.findroot(lambda r: mpmath.log(mean(lambda v: mpmath.expm1(r * v))),
                            (700, 760), solver="anderson")
        t = mpmath.findroot(lambda t: mpmath.log(mean(
            lambda v: (t * v - 1) * mpmath.exp(t * v) + 1)), (700, 760), solver="anderson")
        lux, ame = 1 / r, (1 + mean(lambda v: mpmath.expm1(t * v))) / t
    for norm, want in ((luxemburg_norm, lux), (amemiya_norm, ame)):
        got = norm(x, exp_orlicz(), w)
        assert abs(got - want) <= 1e-12 * want, (norm.__name__, got, want)
