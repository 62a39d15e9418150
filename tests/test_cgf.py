import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasbound.bounds import _PointwiseMax
from biasbound.cgf import (MixedEnvelope, SubExponential, SubGamma,
                           SubGaussian, Tabulated, legendre_transform,
                           subexponential_piecewise_bound)


def grid_conjugate(env, x, points=200_001):
    """Brute-force sup_lam (lam*x - psi(lam)) on a dense grid (oracle)."""
    hi = env.domain_sup
    if math.isinf(hi):
        hi = 1.0
        while hi * x - env.evaluate(hi) > (hi / 2) * x - env.evaluate(hi / 2):
            hi *= 2.0
        hi *= 2.0
    else:
        hi = hi * (1.0 - 1e-9)
    lams = np.linspace(0.0, hi, points)
    vals = np.array([lam * x - env.evaluate(lam) for lam in lams])
    return float(vals.max())


def grid_inverse_conjugate(env, info, points=200_001):
    """Brute-force inf_lam (psi(lam) + info) / lam on a dense log grid (oracle)."""
    hi = env.domain_sup
    if math.isinf(hi):
        hi = 1.0
        while (env.evaluate(2 * hi) + info) / (2 * hi) < (env.evaluate(hi) + info) / hi:
            hi *= 2.0
        hi *= 2.0
    else:
        hi = hi * (1.0 - 1e-12)
    lams = np.geomspace(hi * 1e-12, hi, points)
    vals = np.array([(env.evaluate(lam) + info) / lam for lam in lams])
    return float(vals.min())


def test_subgaussian_closed_forms():
    env = SubGaussian(1.5)
    assert env.evaluate(0.0) == 0.0
    assert math.isclose(env.evaluate(2.0), 0.5 * 4.0 * 2.25)
    assert math.isclose(env.conjugate(2.0), 4.0 / (2 * 2.25))
    assert math.isclose(env.inverse_conjugate(math.log(2)),
                        1.5 * math.sqrt(2 * math.log(2)))


def test_subgaussian_numeric_matches_closed():
    for sigma in (0.3, 1.0, 2.5, 1e20, 1e40):
        env = SubGaussian(sigma)
        for info in (1e-4, 0.1, math.log(2), 3.0, 20.0):
            closed = env.inverse_conjugate(info)
            numeric = env.inverse_conjugate_numeric(info)
            assert math.isclose(closed, numeric, rel_tol=1e-9)
        for x in (0.05, 1.0, 4.0):
            assert math.isclose(env.conjugate(x), env.conjugate_numeric(x),
                                rel_tol=1e-9)
    assert math.isclose(SubGaussian(1e20).conjugate_numeric(1.0), 5e-41, rel_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(k=st.floats(-40, 40), s=st.floats(0.5, 2.0), c=st.floats(0.1, 2.0),
       info=st.floats(1e-3, 1e2), t=st.floats(0.01, 100.0))
def test_numeric_matches_closed_at_any_scale(k, s, c, info, t):
    # X -> aX maps SubGaussian(s) to SubGaussian(a s) and SubGamma(s^2, c) to
    # SubGamma(a^2 s^2, a c); the conjugate argument a t scales with X.  The
    # conjugate is held to 1e-9 only because the closed sub-gamma form
    # 1 + u - sqrt(1 + 2u) cancels at small u (1.8e-10 at u = 2.5e-4)
    a = 10.0 ** k
    for env in (SubGaussian(a * s), SubGamma((a * s) ** 2, a * c)):
        assert math.isclose(env.inverse_conjugate_numeric(info),
                            env.inverse_conjugate(info), rel_tol=1e-12)
        assert math.isclose(env.conjugate_numeric(a * t), env.conjugate(a * t),
                            rel_tol=1e-9)


def test_subgamma_closed_forms_and_numeric():
    env = SubGamma(4.0, 2.0)
    # inverse conjugate sqrt(2 sigma2 I) + c I
    info = math.log(2)
    expect = math.sqrt(2 * 4.0 * info) + 2.0 * info
    assert math.isclose(env.inverse_conjugate(info), expect, rel_tol=1e-12)
    assert math.isclose(env.inverse_conjugate_numeric(info), expect, rel_tol=1e-9)
    # conjugate via h(u) = 1 + u - sqrt(1 + 2u)
    for x in (0.1, 1.0, 3.0, 10.0):
        u = 2.0 * x / 4.0
        expect = 4.0 / 4.0 * (1.0 + u - math.sqrt(1.0 + 2.0 * u))
        assert math.isclose(env.conjugate(x), expect, rel_tol=1e-12)
        assert math.isclose(env.conjugate_numeric(x), expect, rel_tol=1e-8)


def test_subgamma_conjugate_mpmath_oracle():
    # at small u = c x / sigma2 the form 1 + u - sqrt(1 + 2u) cancels
    for sigma2, c in ((1.0, 1.0), (4.0, 2.0), (0.3, 7.0)):
        env = SubGamma(sigma2, c)
        for k in range(3, 10):
            x = 10.0 ** -k
            with mpmath.workdps(40):
                u = mpmath.mpf(c) * mpmath.mpf(x) / mpmath.mpf(sigma2)
                want = mpmath.mpf(sigma2) / mpmath.mpf(c) ** 2 * (
                    1 + u - mpmath.sqrt(1 + 2 * u))
            assert env.conjugate(x) == pytest.approx(float(want), rel=1e-13, abs=0)
    # u * u would overflow here; the value is 1e300 - sqrt(2e300) + 1
    assert SubGamma(1.0, 1.0).conjugate(1e300) == pytest.approx(1e300, rel=1e-13)


@pytest.mark.parametrize("sigma2,c,x", [(1.0, 1.0, 1e308),     # 2u overflows
                                        (0.01, 1.0, 1e307),    # u overflows
                                        (1e-300, 1.0, 1e10)])  # u overflows, small x
def test_subgamma_conjugate_past_overflow_of_u(sigma2, c, x):
    env = SubGamma(sigma2, c)
    assert env.conjugate(x) == pytest.approx(env.conjugate_numeric(x), rel=1e-9)
    # psi* past the largest float is +inf, not inf - inf
    assert SubGamma(sigma2, 0.5).conjugate(1e308) == math.inf


def test_subgamma_conjugate_continuous_across_the_large_u_switch():
    # at sigma2 = c = 1, u = x: the last x whose 2u is finite, and the next one
    env = SubGamma(1.0, 1.0)
    last = np.finfo(float).max / 2.0
    after = float(np.nextafter(last, math.inf))
    assert env.conjugate(after) == pytest.approx(env.conjugate(last), rel=1e-15)
    assert env.conjugate(last) < env.conjugate(after)


@pytest.mark.parametrize("c", [1e-150, 1e-160, 1e-200])
def test_subgamma_conjugate_at_tiny_scale(c):
    # c * c underflows (to 0 at 1e-200: ZeroDivisionError); at this scale
    # psi* is the sub-Gaussian x^2 / (2 sigma2) = 0.5 to float precision
    env = SubGamma(1.0, c)
    assert env.conjugate(1.0) == 0.5
    # the numeric reference: psi overflows on its first scan, [1/c * 1e-18, 1/c]
    assert env.conjugate_numeric(1.0) == pytest.approx(0.5, rel=1e-12)


def test_subexponential_at_tiny_b():
    # sigma^2 / (2 b^2) overflows and b * b underflows to 0: every branch
    # used to raise ZeroDivisionError
    env = SubExponential(1.0, 1e-200)
    assert env.conjugate(1.0) == 0.5
    assert env.conjugate(1e250) == math.inf
    assert env.inverse_conjugate(1.0) == math.sqrt(2.0)
    assert env.inverse_conjugate(1e250) == math.sqrt(2e250)
    assert subexponential_piecewise_bound(1.0, 1e-200, 1.0) == math.sqrt(2.0)
    assert subexponential_piecewise_bound(1.0, 1e-200, 1e250) == math.inf
    # the linear branch, finite although b * b underflows
    assert SubExponential(1e-100, 1e-170).conjugate(1.0) == pytest.approx(
        (1.0 - 1e-200 / 2e-170) / 1e-170, rel=1e-15)


def test_subexponential_conjugate_piecewise():
    env = SubExponential(1.0, 2.0)
    s2 = 1.0
    # quadratic branch below sigma^2/b, linear branch above
    assert math.isclose(env.conjugate(0.3), 0.3 ** 2 / 2)
    assert math.isclose(env.conjugate(2.0), 2.0 / 2.0 - s2 / 8.0)
    assert math.isclose(env.conjugate_numeric(0.3), 0.3 ** 2 / 2, rel_tol=1e-9)
    assert math.isclose(env.conjugate_numeric(2.0), 2.0 / 2.0 - s2 / 8.0,
                        rel_tol=1e-9)


def test_subexponential_inverse_closed_vs_numeric():
    for sigma, b in [(1.0, 1.0), (1.0, 0.5), (2.0, 2.0), (0.7, 3.0)]:
        env = SubExponential(sigma, b)
        for info in (1e-3, 0.05, 0.2, 1.0, 5.0):
            closed = env.inverse_conjugate(info)
            numeric = env.inverse_conjugate_numeric(info)
            assert math.isclose(closed, numeric, rel_tol=1e-9, abs_tol=1e-9)


def test_piecewise_print_matches_only_at_b_one():
    # at b=1 the printed piecewise form coincides with the true minimum
    for info in np.linspace(0.01, 4.0, 40):
        env = SubExponential(1.3, 1.0)
        assert math.isclose(env.inverse_conjugate_numeric(info),
                            subexponential_piecewise_bound(1.3, 1.0, info),
                            rel_tol=1e-9, abs_tol=1e-9)
    # beyond the threshold at b=2 they separate
    env = SubExponential(1.0, 2.0)
    assert env.inverse_conjugate(2.0) - subexponential_piecewise_bound(1.0, 2.0, 2.0) \
        == pytest.approx(1.0 / 4.0 - 1.0 / 8.0)


def test_conjugates_match_grid_oracle():
    envs = [SubGaussian(1.2), SubExponential(0.8, 1.5), SubGamma(2.0, 0.7)]
    for env in envs:
        for x in (0.2, 1.0, 2.7):
            assert math.isclose(env.conjugate(x), grid_conjugate(env, x),
                                rel_tol=2e-6, abs_tol=2e-6)
        for info in (0.1, 0.9, 2.5):
            assert math.isclose(env.inverse_conjugate(info),
                                grid_inverse_conjugate(env, info),
                                rel_tol=2e-6)


def test_fenchel_young_sampled():
    rng = np.random.default_rng(42)
    grid = np.linspace(0, 4, 401)
    envs = [SubGaussian(1.0), SubExponential(1.0, 2.0), SubGamma(1.5, 0.5),
            Tabulated(grid, grid ** 2 / 2),
            MixedEnvelope([(0.5, SubGaussian(1.0)), (0.5, SubGamma(1.0, 0.5))])]
    for env in envs:
        cap = env.domain_sup if math.isfinite(env.domain_sup) else 4.0
        for _ in range(40):
            lam = float(rng.uniform(0, cap * 0.999))
            x = float(rng.uniform(0, 5.0))
            assert env.evaluate(lam) + env.conjugate(x) >= lam * x - 1e-9


def test_inverse_conjugate_inverts_conjugate():
    envs = [SubGaussian(0.9), SubExponential(1.1, 0.8), SubGamma(2.0, 1.5)]
    for env in envs:
        for x in (0.1, 0.7, 2.0, 6.0):
            info = env.conjugate(x)
            if info <= 0:
                continue
            assert math.isclose(env.inverse_conjugate(info), x, rel_tol=1e-8)


def test_inverse_conjugate_monotone_concave_in_budget():
    envs = [SubGaussian(1.0), SubGamma(1.0, 2.0), SubExponential(1.0, 0.5),
            MixedEnvelope([(0.3, SubGaussian(2.0)), (0.7, SubGamma(1.0, 1.0))])]
    infos = np.linspace(0.05, 3.0, 25)
    for env in envs:
        vals = np.array([env.inverse_conjugate(i) for i in infos])
        assert np.all(np.diff(vals) > 0)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second <= 1e-8)


def test_zero_budget_and_zero_argument():
    for env in (SubGaussian(1.0), SubExponential(1.0, 1.0), SubGamma(1.0, 1.0)):
        assert env.inverse_conjugate(0.0) == 0.0
        assert env.conjugate(0.0) == 0.0
        assert env.evaluate(0.0) == 0.0


def test_domain_and_argument_errors():
    env = SubGaussian(1.0)
    with pytest.raises(ValueError):
        env.evaluate(-0.5)
    with pytest.raises(ValueError):
        env.conjugate(-1.0)
    with pytest.raises(ValueError):
        env.inverse_conjugate(-0.1)
    with pytest.raises(ValueError):
        SubGaussian(0.0)
    with pytest.raises(ValueError):
        SubGamma(1.0, -1.0)
    with pytest.raises(ValueError):
        SubExponential(-1.0, 1.0)
    with pytest.raises(ValueError, match="b must be positive"):
        SubExponential(1.0, 0.0)
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        SubGamma(0.0, 1.0)
    with pytest.raises(ValueError, match="sigma and b must be positive"):
        subexponential_piecewise_bound(1.0, 0.0, 1.0)
    assert SubExponential(1.0, 2.0).evaluate(0.6) == math.inf
    assert SubGamma(1.0, 2.0).evaluate(0.5) == math.inf


def test_scaling_covariance():
    # scaling the variable by a scales the deviation bound by a
    for a in (0.5, 3.0):
        assert math.isclose(SubGaussian(a * 1.3).inverse_conjugate(0.8),
                            a * SubGaussian(1.3).inverse_conjugate(0.8),
                            rel_tol=1e-12)
        assert math.isclose(SubGamma(a * a * 2.0, a * 0.7).inverse_conjugate(0.8),
                            a * SubGamma(2.0, 0.7).inverse_conjugate(0.8),
                            rel_tol=1e-12)


def test_tabulated_quadratic_grid_behaves_subgaussian():
    grid = np.linspace(0, 4, 401)
    tab = Tabulated(grid, grid ** 2 / 2)
    assert tab.domain_sup == 4.0
    assert tab.evaluate(4.0) == 8.0  # closed right endpoint
    assert tab.evaluate(4.0000001) == math.inf
    assert math.isclose(tab.inverse_conjugate(0.5), 1.0, rel_tol=1e-6)
    assert math.isclose(tab.conjugate(1.0), 0.5, rel_tol=1e-6)
    # budget large enough that the minimizer hits the grid boundary
    big = tab.inverse_conjugate(50.0)
    assert math.isclose(big, (8.0 + 50.0) / 4.0, rel_tol=1e-6)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0, 0.5], [0.0, 0.5, 1.0])  # not increasing
    with pytest.raises(ValueError):
        Tabulated([0.1, 1.0], [0.0, 0.5])  # does not start at 0
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0], [0.1, 0.5])  # psi(0) != 0
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 1.2])  # concave kink
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])  # decreasing
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0], [0.0, 1.0])  # slope 1 at the origin
    with pytest.raises(ValueError, match=">= 2 points"):
        Tabulated([0.0], [0.0])
    for psis in ([0.0, math.nan, 1.0], [math.nan, 0.5, 1.0], [0.0, 0.5, math.nan]):
        with pytest.raises(ValueError):
            Tabulated([0.0, 1.0, 2.0], psis)


def test_tabulated_csv_round_trip(tmp_path):
    grid = np.linspace(0, 2, 51)
    path = tmp_path / "env.csv"
    with open(path, "w") as fh:
        fh.write("lambda,psi\n")
        for lam, val in zip(grid, grid ** 2):
            fh.write(f"{float(lam)!r},{float(val)!r}\n")
    tab = Tabulated.from_csv(path)
    assert tab.domain_sup == 2.0
    assert math.isclose(tab.evaluate(1.37), 1.37 ** 2, rel_tol=1e-3)
    bad = tmp_path / "bad.csv"
    for text, match in (("lambda,psi\n0.0,0.0\nx,1.0\n", "line 3: non-numeric"),
                        ("lambda,psi\n0.0,0.0\n1.0,0.5,9\n", "line 3: row has 3 cells"),
                        ("lambda\n0.0\n1.0\n", "line 1: expected two columns"),
                        ("lambda,psi\n0.0,0.0\n1.0,nan\n2.0,2.0\n", "nondecreasing")):
        bad.write_text(text)
        with pytest.raises(ValueError, match=match):
            Tabulated.from_csv(bad)


def test_mixture_validation_and_domain():
    with pytest.raises(ValueError):
        MixedEnvelope([])
    with pytest.raises(ValueError):
        MixedEnvelope([(0.6, SubGaussian(1.0)), (0.6, SubGaussian(1.0))])
    with pytest.raises(ValueError):
        MixedEnvelope([(-0.1, SubGaussian(1.0)), (1.1, SubGaussian(1.0))])
    mix = MixedEnvelope([(0.5, SubGaussian(1.0)), (0.5, SubGamma(1.0, 0.5))])
    assert mix.domain_sup == 2.0
    assert mix.evaluate(2.1) == math.inf


def test_mixture_evaluation_is_convex_combination():
    rng = np.random.default_rng(11)
    parts = [SubGaussian(0.7), SubGamma(1.2, 0.4), SubExponential(1.0, 0.3)]
    w = rng.dirichlet(np.ones(3))
    mix = MixedEnvelope(list(zip(w, parts)))
    for lam in rng.uniform(0, mix.domain_sup * 0.99, size=20):
        direct = sum(wi * p.evaluate(float(lam)) for wi, p in zip(w, parts))
        assert math.isclose(mix.evaluate(float(lam)), direct, rel_tol=1e-12)


def test_mixture_collapse_matches_numeric():
    # homogeneous sub-Gaussian mixture collapses to sqrt of mixed variance
    mix = MixedEnvelope([(0.5, SubGaussian(1.0)), (0.5, SubGaussian(2.0))])
    expect = math.sqrt(0.5 * 1 + 0.5 * 4) * math.sqrt(2 * 0.7)
    assert math.isclose(mix.inverse_conjugate(0.7), expect, rel_tol=1e-12)
    assert math.isclose(mix.inverse_conjugate_numeric(0.7), expect, rel_tol=1e-8)
    # homogeneous sub-gamma with shared c
    mix = MixedEnvelope([(0.25, SubGamma(1.0, 0.5)), (0.75, SubGamma(3.0, 0.5))])
    s2 = 0.25 * 1 + 0.75 * 3
    expect = math.sqrt(2 * s2 * 0.9) + 0.5 * 0.9
    assert math.isclose(mix.inverse_conjugate(0.9), expect, rel_tol=1e-12)
    assert math.isclose(mix.inverse_conjugate_numeric(0.9), expect, rel_tol=1e-8)


def test_zero_weight_and_subexponential_mixtures_match_numeric():
    # a never-selected component adds nothing: the sub-Gaussian's sqrt(2 I)
    mix = MixedEnvelope([(1.0, SubGaussian(1.0)), (0.0, SubGamma(1.0, 10.0))])
    assert mix.inverse_conjugate(2.0) == 2.0
    assert math.isclose(mix.inverse_conjugate_numeric(2.0), 2.0, rel_tol=1e-8)
    # homogeneous sub-exponential: mixed sigma^2 and the largest b, on both
    # sides of the switch of its inverse at sigma^2 / (2 b^2) = 0.3125
    mix = MixedEnvelope([(0.5, SubExponential(1.0, 2.0)), (0.5, SubExponential(2.0, 1.0))])
    for info in (0.1, 3.0):
        expect = SubExponential(math.sqrt(2.5), 2.0).inverse_conjugate(info)
        assert math.isclose(mix.inverse_conjugate(info), expect, rel_tol=1e-12)
        assert math.isclose(mix.inverse_conjugate_numeric(info), expect, rel_tol=1e-8)


def test_heterogeneous_mixture_between_components():
    # a mixture bound sits between the pure bounds of its components
    lo_env, hi_env = SubGaussian(1.0), SubGaussian(3.0)
    mix = MixedEnvelope([(0.5, lo_env), (0.5, hi_env)])
    info = 1.3
    assert lo_env.inverse_conjugate(info) < mix.inverse_conjugate(info) \
        < hi_env.inverse_conjugate(info)


def test_legendre_transform_direct():
    # quadratic f: conjugate of lam^2/2 is x^2/2
    for x in (0.3, 1.0, 2.2):
        val = legendre_transform(lambda lam: lam * lam / 2.0, x)
        assert math.isclose(val, x * x / 2.0, rel_tol=1e-8)
    assert legendre_transform(lambda lam: lam * lam, 0.0) == 0.0
    with pytest.raises(ValueError):
        legendre_transform(lambda lam: lam * lam, -1.0)


# --- properties over every family ------------------------------------------

_EPS = 2.0 ** -52


@st.composite
def tabulated_envelopes(draw):
    """A convex grid from (0, 0): positive lambda gaps, nondecreasing slopes
    from an origin slope in [0, 0.09] (rounding stays below the 0.1 cap)."""
    k = draw(st.integers(2, 12))
    gaps = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=k - 1, max_size=k - 1)))
    rises = draw(st.lists(st.floats(0.0, 100.0), min_size=k - 2, max_size=k - 2))
    slopes = draw(st.floats(0.0, 0.09)) + np.concatenate([[0.0], np.cumsum(rises)])
    lams = np.concatenate([[0.0], np.cumsum(gaps)])
    psis = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
    return Tabulated(lams, psis)


sub_gaussians = st.builds(SubGaussian, st.floats(0.1, 10.0))
sub_exponentials = st.builds(SubExponential, st.floats(0.1, 10.0), st.floats(0.1, 10.0))
sub_gammas = st.builds(SubGamma, st.floats(0.01, 100.0), st.floats(0.1, 10.0))


@st.composite
def mixtures(draw, others=st.one_of(sub_exponentials, sub_gammas, tabulated_envelopes())):
    """A sub-Gaussian mixed with one or two components drawn from ``others``,
    all with positive weight, so the mixture never collapses to a closed form."""
    others = draw(st.lists(others, min_size=1, max_size=2))
    envs = [draw(sub_gaussians)] + others
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(envs),
                               max_size=len(envs))))
    return MixedEnvelope(list(zip(w / w.sum(), envs)))


envelopes = st.one_of(sub_gaussians, sub_exponentials, sub_gammas,
                      tabulated_envelopes(), mixtures())


def knot_scale(env):
    """The largest knot value of a tabulated envelope, or of one in a mixture
    (0 without one)."""
    parts = env.components if isinstance(env, MixedEnvelope) else [(1.0, env)]
    return max((float(e._psis[-1]) for _, e in parts if isinstance(e, Tabulated)),
               default=0.0)


@settings(max_examples=200, deadline=None)
@given(env=envelopes, info=st.floats(1e-3, 1e2))
def test_conjugate_round_trip(env, info):
    # psi*((psi*)^{-1}(I)) = I.  At the optimum lam x = psi(lam) + I, and the
    # conjugate's lam x - psi(lam) loses a few ulps of that sum.  psi(lam) <= I
    # there for the smooth families; on a knot it can be as large as the
    # largest knot value.  The numeric mixtures also lose their searches'
    # 1e-12 shrink from a domain boundary
    x = env.inverse_conjugate(info)
    back = env.conjugate(x)
    assert abs(back - info) <= 1e-10 * info + 1e-12 * knot_scale(env), (x, back)


@settings(max_examples=200, deadline=None)
@given(env=envelopes, t=st.floats(0.0, 1.0), x=st.floats(0.0, 100.0),
       slope=st.floats(0.5, 2.0))
def test_fenchel_young(env, t, x, slope):
    # psi(lam) + psi*(x) >= lam x on the closed domain; x is drawn anywhere and
    # near the slope of psi at lam, where the inequality is tight
    cap = env.domain_sup if math.isfinite(env.domain_sup) else 10.0
    if not math.isfinite(env.evaluate(cap)):
        cap *= 1.0 - 1e-9
    lam = t * cap
    h = 1e-6 * cap
    deriv = (env.evaluate(lam) - env.evaluate(lam - h)) / h if lam > h else 0.0
    for w in (x, slope * deriv):
        lhs = env.evaluate(lam) + env.conjugate(w)
        assert lhs >= lam * w * (1 - 1e-10) - 1e-300, (lam, w, lhs)


def test_mixture_newton_makes_no_numeric_search(no_numeric_search):
    mix = MixedEnvelope([(0.3, SubGaussian(1.2)), (0.5, SubGamma(0.8, 0.6)),
                         (0.2, SubExponential(1.1, 0.9))])
    for info in (1e-3, 0.5, 10.0, 1e4):
        x = mix.inverse_conjugate(info)
        assert mix.conjugate(x) == pytest.approx(info, rel=1e-10)


# an optimum at lam = t * domain_sup: anywhere the budget is a normal float,
# within 1e-10 of the cap 1/c or 1/b, or past the numeric search's 1e-12
# shrink, where both take its end
cap_fractions = st.one_of(st.floats(1e-100, 1.0, exclude_max=True),
                          st.floats(0.0, 14.0).map(lambda k: 1.0 - 10.0 ** -k))


@settings(max_examples=200, deadline=None)
@given(mix=mixtures(st.one_of(sub_exponentials, sub_gammas)), t=cap_fractions)
def test_mixture_newton_matches_numeric(mix, t):
    lam = t * mix.domain_sup
    psi, slope, _ = mix._derivatives(lam)
    info = lam * slope - psi  # the budget and the argument optimal at lam
    assert mix.inverse_conjugate(info) == pytest.approx(
        mix.inverse_conjugate_numeric(info), rel=1e-12, abs=0)
    assert mix.conjugate(slope) == pytest.approx(
        mix.conjugate_numeric(slope), rel=1e-12, abs=0)


@settings(max_examples=200, deadline=None)
@given(tab=tabulated_envelopes(), info=st.floats(1e-3, 1e3), x=st.floats(0.0, 1e3))
def test_tabulated_closed_forms_match_references(tab, info, x):
    lams, psis = tab._lams, tab._psis
    with mpmath.workdps(40):
        mp_lams = [mpmath.mpf(float(v)) for v in lams]
        mp_psis = [mpmath.mpf(float(v)) for v in psis]
        want_inv = min((p + info) / l for l, p in zip(mp_lams[1:], mp_psis[1:]))
        want_conj = max(0, max(l * x - p for l, p in zip(mp_lams, mp_psis)))
    # the knot-wise inverse is a sum and a division: two roundings
    inv = tab.inverse_conjugate(info)
    assert abs(inv - want_inv) <= 2 * _EPS * want_inv
    # the knot-wise conjugate is a product and a difference, which cancels
    # (and is subnormal at the smallest x)
    conj = tab.conjugate(x)
    scale = float(np.max(lams * x + psis))
    assert abs(conj - want_conj) <= 2 * _EPS * scale + 1e-300
    # the numeric reference never probes past lambda_max (1 - 1e-12), so it
    # can only be worse: higher for the infimum, lower for the supremum
    numeric_inv = tab.inverse_conjugate_numeric(info)
    assert inv <= numeric_inv * (1 + 4 * _EPS)
    assert numeric_inv <= inv * (1 + 1e-9)
    numeric_conj = tab.conjugate_numeric(x)
    assert numeric_conj <= conj + 4 * _EPS * scale + 1e-300
    assert conj - numeric_conj <= 1e-9 * float(lams[-1] * x + psis[-1])


def test_tabulated_last_knot_is_exact():
    # a budget large enough that the optimum is lambda_max: the closed forms
    # return the knot value itself, which the numeric search only approaches
    grid = np.linspace(0, 4, 401)
    tab = Tabulated(grid, grid ** 2 / 2)
    assert tab.inverse_conjugate(50.0) == (8.0 + 50.0) / 4.0
    assert tab.inverse_conjugate_numeric(50.0) > 14.5
    assert tab.conjugate(10.0) == 4.0 * 10.0 - 8.0
    assert tab.conjugate_numeric(10.0) < 32.0
    assert tab.conjugate(0.0) == 0.0 and tab.inverse_conjugate(0.0) == 0.0
    assert tab.conjugate(math.inf) == math.inf
    assert tab.inverse_conjugate(math.inf) == math.inf
    with pytest.raises(ValueError):
        tab.conjugate(-1.0)
    with pytest.raises(ValueError):
        tab.inverse_conjugate(-1e-3)


# --- lambda checks and the mixture's terms ---------------------------------

def test_negative_lambda_raises_on_every_family():
    grid = np.linspace(0, 2, 21)
    tab = Tabulated(grid, grid ** 2 / 2)
    collapsed = MixedEnvelope([(0.5, SubGamma(1.0, 0.5)), (0.5, SubGamma(2.0, 0.5))])
    for env in (SubGaussian(1.0), SubExponential(1.0, 1.0), SubGamma(1.0, 1.0), tab,
                collapsed, MixedEnvelope([(0.5, SubGaussian(1.0)), (0.5, tab)]),
                _PointwiseMax([SubGaussian(1.0), SubGamma(1.0, 1.0)])):
        for lam in (-1e-300, -0.5, -math.inf, np.float64(-1.0)):
            with pytest.raises(ValueError, match="lambda must be nonnegative"):
                env.evaluate(lam)
        assert env.evaluate(0.0) == 0.0
        assert math.isnan(env.evaluate(math.nan))
        # psi*, (psi*)^{-1} and their numeric references share one contract
        for method, message in (
                ("conjugate", "conjugate argument must be nonnegative"),
                ("conjugate_numeric", "conjugate argument must be nonnegative"),
                ("inverse_conjugate", "information budget must be nonnegative"),
                ("inverse_conjugate_numeric", "information budget must be nonnegative")):
            f = getattr(env, method)
            for arg in (-1e-300, -0.5, -math.inf):
                with pytest.raises(ValueError, match=message):
                    f(arg)
            for zero in (0.0, -0.0):
                assert f(zero) == 0.0 and math.copysign(1.0, f(zero)) == 1.0
            assert math.isnan(f(math.nan))
            assert f(math.inf) == math.inf


def test_mixture_boundary_rule_and_zero_weights():
    grid = np.linspace(0, 2, 21)
    tab = Tabulated(grid, grid ** 2 / 2)
    # every positive-weight component is finite at domain_sup = 2: so is the mixture
    mix = MixedEnvelope([(0.5, SubGaussian(1.0)), (0.5, tab)])
    assert mix.domain_sup == 2.0
    assert mix.evaluate(2.0) == 0.5 * 2.0 + 0.5 * 2.0
    assert mix.evaluate(np.nextafter(2.0, 3.0)) == math.inf
    # SubGamma(1, 0.5) is +inf at its domain_sup 2: so is the mixture
    mix = MixedEnvelope([(0.5, SubGaussian(1.0)), (0.5, SubGamma(1.0, 0.5))])
    assert mix.evaluate(2.0) == math.inf
    assert math.isfinite(mix.evaluate(np.nextafter(2.0, 0.0)))
    # a zero-weight component adds nothing, even where it is +inf (0 * inf
    # is nan): its domain_sup does not cap the mixture's either
    mix = MixedEnvelope([(1.0, SubGaussian(1.0)), (0.0, SubGamma(1.0, 0.5))])
    assert mix.domain_sup == math.inf
    assert mix.evaluate(1.0) == 0.5
    assert mix.evaluate(2.0) == 2.0
    assert mix.evaluate(2.5) == 3.125
    # an infinite domain has no boundary
    mix = MixedEnvelope([(0.25, SubGaussian(1.0)), (0.75, SubGaussian(2.0))])
    assert mix.domain_sup == math.inf
    assert mix.evaluate(1e150) == pytest.approx(1.625e300, rel=1e-15)
