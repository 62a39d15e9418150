import math

import pytest
from hypothesis import given, settings, strategies as st

from biasbound._solve import NumericDivergence, minimize, threshold
from biasbound.cgf import Tabulated


@settings(max_examples=300, deadline=None)
@given(y=st.floats(1e-300, 1e300), x=st.floats(1e-300, 1e300))
def test_threshold_is_the_switching_float(y, x):
    # s*s >= y is monotone in s (float products round monotonically)
    def pred(s):
        return s * s >= y

    s = threshold(pred, x)
    assert pred(s) and not pred(math.nextafter(s, 0.0))
    t = threshold(lambda s: s >= y, x)
    assert t == y


def test_threshold_edges():
    assert threshold(lambda s: True, 1.0) == 5e-324
    assert threshold(lambda s: False, 1.0) == math.inf
    assert threshold(lambda s: s >= 1e308, 1e-300) == 1e308
    assert threshold(lambda s: True, math.inf) == 5e-324
    for x in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            threshold(lambda s: s >= 1.0, x)


@settings(max_examples=200, deadline=None)
@given(k=st.floats(-250, 250), capped=st.booleans())
def test_minimize_any_scale(k, capped):
    t0 = 10.0 ** k

    def f(t):
        return t / t0 + t0 / t  # minimum 2 at t0

    assert math.isclose(minimize(f, 4.0 * t0 if capped else math.inf), 2.0,
                        rel_tol=1e-14)
    # a decreasing f attains its minimum at hi; an unbounded one has none
    hi = 3.0 * t0
    assert minimize(lambda t: -t / t0, hi) == -hi / t0
    with pytest.raises(NumericDivergence):
        minimize(lambda t: -t, math.inf)



def test_minimize_widens_a_scan_that_is_inf_everywhere():
    # quasiconvex and +inf above 1e-40: the first scan, [1e-18, 1], sees only
    # inf, and the minimiser (1e-50) lies to its left
    def f(t):
        return math.inf if t > 1e-40 else t / 1e-50 + 1e-50 / t

    assert math.isclose(minimize(f, 1.0), 2.0, rel_tol=1e-14)
    # widening stops at the scan floor: an f that is inf everywhere gives inf
    assert minimize(lambda t: math.inf, 1.0) == math.inf
    assert minimize(lambda t: math.inf, math.inf) == math.inf


def test_minimize_ends_on_a_subnormal_bracket():
    # a minimiser below the smallest normal float: _RTOL * b underflows there,
    # so the stop rule also counts subnormal spacings (3e-313 looped forever)
    for t0 in (3e-313, 2e-308):
        assert minimize(lambda t: abs(t - t0), 1.0) == 0.0
    # below the scan floor the search stops at its left end
    assert 0.0 < minimize(lambda t: abs(t - 1e-320), 1.0) < 1e-314
    # the numeric conjugate of an envelope a little steeper at the origin than
    # x descends into that range, where its objective rounds to ties
    tab = Tabulated([0.0, 2.8638763997262764, 11.121871409022361],
                    [0.0, 0.0030211617626001506, 667.2])
    assert tab.conjugate_numeric(0.001) == 0.0
