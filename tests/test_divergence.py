import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasbound.divergence import (DiscreteJoint, _two_point_alpha, abs_power_generator,
                                  alpha_mi_cardinality_bound,
                                  alpha_mi_marginal_bound,
                                  alpha_mutual_information, custom_generator,
                                  kl_generator, load_probability_vector,
                                  mutual_information, phi_divergence,
                                  phi_mi_marginal_bound,
                                  save_probability_vector)


def naive_phi_divergence(p, q, phi, phi0, slope_inf):
    """Independent double-loop oracle with the zero-mass conventions."""
    total = 0.0
    for pi, qi in zip(np.ravel(p), np.ravel(q)):
        if qi > 0:
            total += qi * (phi0 if pi == 0 else phi(pi / qi))
        elif pi > 0:
            total += pi * slope_inf
    return total


def random_joint(rng, shape):
    m = rng.random(shape)
    # sprinkle structural zeros
    m[rng.random(shape) < 0.2] = 0.0
    if m.sum() == 0:
        m[0, 0] = 1.0
    return DiscreteJoint(m / m.sum())


def deterministic_joint(rng, n_rows, n_cols):
    """Joint where T = f(probe) deterministically; one nonzero per column."""
    assign = rng.integers(0, n_rows, size=n_cols)
    # make sure every row that exists is hit at least once where possible
    col_mass = rng.dirichlet(np.ones(n_cols))
    m = np.zeros((n_rows, n_cols))
    for j, i in enumerate(assign):
        m[i, j] = col_mass[j]
    return DiscreteJoint(m)


def test_phi_divergence_matches_naive_oracle():
    rng = np.random.default_rng(101)
    for _ in range(30):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        p = rng.random(shape)
        q = rng.random(shape)
        p[rng.random(shape) < 0.25] = 0.0
        q[rng.random(shape) < 0.25] = 0.0
        alpha = float(rng.uniform(1.0, 3.0))
        gen = abs_power_generator(alpha)
        want = naive_phi_divergence(p, q, lambda x: abs(x - 1) ** alpha, 1.0,
                                    math.inf if alpha > 1 else 1.0)
        got = phi_divergence(p, q, gen)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_kl_generator_values():
    gen = kl_generator()
    assert gen(1.0) == pytest.approx(0.0, abs=1e-15)
    assert gen(0.0) == pytest.approx(1.0)
    assert gen.phi_at_zero == 1.0
    x = 2.5
    assert gen(x) == pytest.approx(x * math.log(x) - x + 1)


def test_abs_power_generator_values_and_validation():
    gen = abs_power_generator(2.0)
    assert gen(1.0) == 0.0
    assert gen(0.0) == 1.0
    assert gen(3.0) == 4.0
    assert abs_power_generator(1.0).slope_at_infinity == 1.0
    assert math.isinf(abs_power_generator(1.5).slope_at_infinity)
    with pytest.raises(ValueError):
        abs_power_generator(0.5)


def test_custom_generator_checks():
    custom_generator(lambda x: (x - 1) ** 2, phi_at_zero=1.0)  # fine
    with pytest.raises(ValueError):
        custom_generator(lambda x: (x - 1) ** 2 + 0.1, phi_at_zero=1.1)
    with pytest.raises(ValueError):
        custom_generator(lambda x: -((x - 1) ** 2), phi_at_zero=-1.0)  # concave


def test_zero_mass_conventions():
    gen2 = abs_power_generator(2.0)
    # q = 0 < p with superlinear generator escapes to infinity
    assert phi_divergence([0.3, 0.7], [1.0, 0.0], gen2) == math.inf
    # alpha = 1 has slope 1 at infinity
    gen1 = abs_power_generator(1.0)
    got = phi_divergence([0.3, 0.7], [1.0, 0.0], gen1)
    assert got == pytest.approx(1.0 * abs(0.3 - 1.0) + 0.7 * 1.0)
    # 0 * phi(0/0) = 0
    assert phi_divergence([1.0, 0.0], [1.0, 0.0], gen2) == pytest.approx(0.0)


def test_divergence_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(5)
    gen = abs_power_generator(1.8)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert phi_divergence(p, q, gen) >= 0.0
        assert phi_divergence(p, p, gen) == pytest.approx(0.0, abs=1e-14)


def test_mutual_information_identity_joint():
    joint = DiscreteJoint([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(joint) == pytest.approx(math.log(2), rel=1e-14)
    assert alpha_mutual_information(joint, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_dependence_measures_on_an_underflowed_product():
    # both marginals of cell (0, 0) are 1e-200, so p_row p_col = 1e-400 is 0
    # in floats: I = 1e-200 ln(1e200) there, and the cell adds
    # w (L - 1)**alpha = 1e-400 (1e200)**alpha to I_alpha, 1 at alpha = 2
    joint = DiscreteJoint([[1e-200, 0.0], [0.0, 1.0 - 1e-200]])
    assert mutual_information(joint) == pytest.approx(200 * math.log(10) * 1e-200, rel=1e-14)
    assert alpha_mutual_information(joint, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert alpha_mutual_information(joint, 3.0) == pytest.approx(1e200, rel=1e-12)
    # alpha = 1: |p - w| summed, 1e-200 at each of the three cells off (1, 1)
    assert alpha_mutual_information(joint, 1.0) == pytest.approx(3e-200, rel=1e-12)


def test_mutual_information_independent_is_zero():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pr = rng.dirichlet(np.ones(4))
        pc = rng.dirichlet(np.ones(5))
        joint = DiscreteJoint(np.outer(pr, pc))
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)
        assert alpha_mutual_information(joint, 1.7) == pytest.approx(0.0, abs=1e-12)


def test_alpha_mi_marginal_bound_equality_for_deterministic():
    # when T is a deterministic function of the probe, the bound is attained
    rng = np.random.default_rng(23)
    for _ in range(25):
        n_rows = int(rng.integers(2, 6))
        n_cols = int(rng.integers(n_rows, 9))
        joint = deterministic_joint(rng, n_rows, n_cols)
        for alpha in (1.0, 1.5, 2.0, 2.7):
            lhs = alpha_mutual_information(joint, alpha)
            rhs = alpha_mi_marginal_bound(joint.p_rows, alpha)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_alpha_mi_marginal_bound_strict_for_randomized():
    rng = np.random.default_rng(29)
    for _ in range(25):
        joint = random_joint(rng, (4, 5))
        # skip joints that happen to be deterministic (at most one live row/col)
        live = (joint.p > 0).sum(axis=0)
        if np.all(live <= 1):
            continue
        for alpha in (1.5, 2.0):
            lhs = alpha_mutual_information(joint, alpha)
            rhs = alpha_mi_marginal_bound(joint.p_rows, alpha)
            assert lhs < rhs - 1e-12


def test_alpha_mi_cardinality_bound():
    assert alpha_mi_cardinality_bound(2, 2.0) == pytest.approx(1.0)
    assert alpha_mi_cardinality_bound(5, 1.5) == pytest.approx(0.8 * (2.0 + 1.0))
    assert alpha_mi_cardinality_bound(1, 1.3) == 0.0
    # uniform marginal attains it
    rng = np.random.default_rng(31)
    for n in (2, 3, 7):
        for alpha in (1.0, 1.4, 2.0):
            uniform = np.full(n, 1.0 / n)
            assert alpha_mi_marginal_bound(uniform, alpha) == pytest.approx(
                alpha_mi_cardinality_bound(n, alpha), rel=1e-12)
            # any other marginal stays below, within the pinned alpha range
            p = rng.dirichlet(np.ones(n))
            assert alpha_mi_marginal_bound(p, alpha) \
                <= alpha_mi_cardinality_bound(n, alpha) + 1e-12
    with pytest.raises(ValueError):
        alpha_mi_cardinality_bound(5, 2.5)
    with pytest.raises(ValueError):
        alpha_mi_cardinality_bound(5, 0.9)
    with pytest.raises(ValueError, match="n must be >= 1"):
        alpha_mi_cardinality_bound(0, 1.5)


def test_two_point_alpha_within_5_ulps_of_mpmath():
    # E|L - 1|^alpha for L = m/k with probability k/m, else 0, against
    # (k/m) ((m - k)/k)^alpha + (m - k)/m at 40 digits; k = 1 is the argmax
    # law, k near m is where m/k - 1 would cancel
    alphas = (1.0, 1.25, 1.5, 5.0 / 3.0, 2.0, 3.0)
    with mpmath.workdps(40):
        for m in range(1, 3001):
            for k in {1, m // 2, m - 2, m - 1} - {0, -1}:
                mk, km = mpmath.mpf(m - k), mpmath.mpf(k) / m
                for alpha in alphas:
                    want = float(km * (mk / k) ** mpmath.mpf(alpha) + mk / m)
                    got = _two_point_alpha(k, m, alpha)
                    assert abs(got - want) <= 5 * math.ulp(want), (k, m, alpha)
    # the cardinality cap is the argmax law (1, n): exact at n = 1 and 10
    assert alpha_mi_cardinality_bound(1, 1.3) == 0.0
    assert alpha_mi_cardinality_bound(10, 2.0) == 9.0
    # past the largest double the value is +inf, not an OverflowError
    assert _two_point_alpha(1, 100, 201.0) == math.inf
    assert _two_point_alpha(1, 5, 1000.0) == math.inf


def test_phi_marginal_bound_specializes_to_entropy():
    rng = np.random.default_rng(37)
    gen = kl_generator()
    for _ in range(50):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
        entropy = -float(np.sum(p * np.log(p)))
        assert abs(phi_mi_marginal_bound(p, gen) - entropy) <= 1e-12 * max(1.0, entropy)


def test_phi_marginal_bound_specializes_to_alpha_bound():
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = rng.dirichlet(np.ones(5))
        alpha = float(rng.uniform(1.0, 3.0))
        assert phi_mi_marginal_bound(p, abs_power_generator(alpha)) == pytest.approx(
            alpha_mi_marginal_bound(p, alpha), rel=1e-12)


def test_phi_marginal_bound_requires_finite_phi0():
    inf_gen = custom_generator(lambda x: np.abs(x - 1.0) ** 2 / np.maximum(x, 1e-300),
                               phi_at_zero=math.inf, name="reciprocal")
    with pytest.raises(ValueError):
        phi_mi_marginal_bound([0.5, 0.5], inf_gen)


def test_data_processing_under_column_merges():
    rng = np.random.default_rng(43)
    for _ in range(30):
        joint = random_joint(rng, (int(rng.integers(2, 5)), int(rng.integers(3, 7))))
        j, k = rng.choice(joint.n_cols, size=2, replace=False)
        merged = joint.merge_cols(int(j), int(k))
        for alpha in (1.0, 1.5, 2.0):
            assert alpha_mutual_information(merged, alpha) \
                <= alpha_mutual_information(joint, alpha) + 1e-12
        assert mutual_information(merged) <= mutual_information(joint) + 1e-12


def test_joint_validation():
    with pytest.raises(ValueError):
        DiscreteJoint([[0.5, 0.6], [0.0, 0.0]])  # mass > 1
    with pytest.raises(ValueError):
        DiscreteJoint([[0.5, -0.1], [0.3, 0.3]])  # negative
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteJoint([[0.5, math.nan], [0.0, 0.5]])  # NaN: its mass test passes
    with pytest.raises(ValueError):
        DiscreteJoint([0.5, 0.5])  # 1-D
    with pytest.raises(ValueError, match="label lengths"):
        DiscreteJoint([[0.5, 0.5]], row_labels=["a", "b"])
    j = DiscreteJoint([[0.25, 0.25], [0.25, 0.25]])
    assert np.allclose(j.p_rows, [0.5, 0.5])
    with pytest.raises(ValueError):
        j.merge_cols(1, 1)


def test_joint_marginals_consistent():
    rng = np.random.default_rng(47)
    joint = random_joint(rng, (5, 6))
    assert np.max(np.abs(joint.p_rows - joint.p.sum(axis=1))) <= 1e-12
    assert np.max(np.abs(joint.p_cols - joint.p.sum(axis=0))) <= 1e-12
    assert joint.product_of_marginals().sum() == pytest.approx(1.0, abs=1e-9)


def test_joint_csv_round_trip(tmp_path):
    rng = np.random.default_rng(53)
    joint = random_joint(rng, (3, 4))
    path = tmp_path / "joint.csv"
    joint.to_csv(path)
    assert b"\r" not in path.read_bytes()  # lines end with \n, as every CSV written
    back = DiscreteJoint.from_csv(path)
    assert np.array_equal(joint.p, back.p)  # repr round-trips exactly
    assert back.row_labels == joint.row_labels
    assert back.col_labels == joint.col_labels


def test_joint_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(",b0,b1\nt0,0.5,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        DiscreteJoint.from_csv(bad)
    short = tmp_path / "short.csv"
    short.write_text(",b0,b1\nt0,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        DiscreteJoint.from_csv(short)
    short.write_text("t\nt0\n")
    with pytest.raises(ValueError, match="line 1: expected a header row"):
        DiscreteJoint.from_csv(short)


def test_merge_cols_labels():
    joint = DiscreteJoint([[0.2, 0.3, 0.1], [0.1, 0.1, 0.2]],
                          col_labels=["a", "b", "c"])
    merged = joint.merge_cols(0, 2)
    assert merged.col_labels == ("a+c", "b")
    assert merged.p[:, 0] == pytest.approx([0.3, 0.3])


def test_probability_vector_round_trip(tmp_path):
    p = np.array([0.2, 0.3, 0.5])
    path = tmp_path / "p.csv"
    save_probability_vector(p, path)
    back = load_probability_vector(path)
    assert np.array_equal(p, back)
    with pytest.raises(ValueError):
        save_probability_vector([0.2, 0.2], path)
    for text, match in (("p\n0.5\nnan\n0.5\n", "nonnegative"),
                        ("p\n0.5,0.1\n0.5\n", "line 2: row has 2 cells, header has 1"),
                        ("p,q\n0.5,0.5\n", "line 1: expected one column")):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_probability_vector(path)


def test_nan_measure_raises():
    with pytest.raises(ValueError, match="measure entries must be nonnegative"):
        phi_divergence([math.nan, 0.5], [0.5, 0.5], kl_generator())
    with pytest.raises(ValueError, match="measure entries must be nonnegative"):
        phi_divergence([0.5, 0.5], [0.5, math.nan], kl_generator())


@st.composite
def joints(draw):
    """A joint on up to 6 x 6 cells, with some cells exactly 0."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
                          min_size=rows * cols, max_size=rows * cols))
    m = np.array(cells).reshape(rows, cols)
    if m.sum() == 0:
        m[0, 0] = 1.0
    return DiscreteJoint(m / m.sum())


@settings(max_examples=200, deadline=None)
@given(joint=joints(), alpha=st.floats(1.0, 8.0, exclude_min=True))
def test_marginal_caps_hold_on_random_joints(joint, alpha):
    # no joint with the T-marginal p_rows carries more dependence than the
    # deterministic one, which attains both caps
    mi = mutual_information(joint)
    assert mi <= phi_mi_marginal_bound(joint.p_rows, kl_generator()) * (1 + 1e-12) + 1e-15
    i_alpha = alpha_mutual_information(joint, alpha)
    assert i_alpha <= alpha_mi_marginal_bound(joint.p_rows, alpha) * (1 + 1e-12) + 1e-15
