"""Seeded bound problems ("bundles") for the ``solvers`` workload.

A bundle is one bound problem drawn from (seed, index) and solved through
biasbound's public API, together with its oracle checks:

* a bound-vs-budget curve over a fixed grid of information budgets, for a
  heterogeneous (non-collapsing) ``MixedEnvelope`` via ``mgf_bound`` and
  for a ``Tabulated`` sub-gamma envelope (numeric inverse conjugates);
* ``mutual_information`` / ``alpha_mutual_information`` and ``pnorm_bound``
  on a random joint, checked against the marginal caps;
* ``orlicz_bias_bound`` on that joint with psi drawn from power:2, power:3
  and exp, checked as the Hölder inequality it is: for a random X on the
  cells, E_prod[|L - 1| |X|] <= ||X||_psi * ||L - 1||^A_{psi*};
* ``luxemburg_norm`` / ``amemiya_norm`` of a weighted sample, checked by
  Luxemburg <= Amemiya <= 2 Luxemburg;
* ``max_inequality_orlicz_bound``, checked against psi^{-1} in closed form;
* a homogeneous mixture's numeric inverse conjugate, checked against the
  closed form it collapses to, and the conjugate of each curve's middle
  point, checked as the round trip psi*((psi*)^{-1}(I)) = I.

``solve`` returns the names of the checks that failed.
"""

import math

import numpy as np

from biasbound import bounds, cgf, divergence, orlicz

PSI_SPECS = ("power:2", "power:3", "exp")
_REL = 1e-9          # slack for inequalities between two numeric solves
_CLOSED_REL = 1e-6   # numeric vs closed-form inverse conjugate (criterion 1)


def _psi(spec):
    if spec == "exp":
        return orlicz.exp_orlicz()
    return orlicz.power_orlicz(float(spec.split(":")[1]))


def _psi_inverse_closed(spec, y):
    if spec == "exp":
        return math.log1p(y)
    return y ** (1.0 / float(spec.split(":")[1]))


def make_bundle(seed, index, grid, rows, cols, sample):
    """Draw the inputs of bundle ``index`` from the workload seed."""
    rng = np.random.default_rng([seed, index])
    c_tab = float(rng.uniform(0.5, 2.0))
    s2_tab = float(rng.uniform(0.5, 2.0))
    lams = np.linspace(0.0, 0.95 / c_tab, 100)
    return {
        "index": index,
        "budgets": np.geomspace(0.01, 10.0, grid),
        "mix_weights": rng.dirichlet(np.ones(3)),
        "mix": (cgf.SubGaussian(float(rng.uniform(0.5, 2.0))),
                cgf.SubGamma(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 1.0))),
                cgf.SubExponential(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 2.0)))),
        "tabulated": (lams, 0.5 * lams * lams * s2_tab / (1.0 - c_tab * lams)),
        "homogeneous_sigmas": rng.uniform(0.5, 2.0, 3),
        "joint": rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols),
        "row_sigmas": rng.uniform(0.5, 2.0, rows),
        "cell_x": rng.standard_normal((rows, cols)),
        "psi": PSI_SPECS[int(rng.integers(len(PSI_SPECS)))],
        "sample": np.abs(rng.standard_normal(sample)) * float(rng.uniform(0.5, 2.0)),
        "sample_weights": rng.dirichlet(np.ones(sample)),
        "max_n": int(rng.integers(10, 10_000)),
    }


def solve(b):
    """Solve bundle b; return the names of the oracle checks that failed."""
    failed = []

    def check(name, ok):
        if not ok:
            failed.append(name)

    # cgf: bound-vs-budget curves
    tab = cgf.Tabulated(*b["tabulated"])
    curves = []
    for info in b["budgets"]:
        mixed = bounds.mgf_bound(b["mix"], b["mix_weights"], float(info))
        tabulated = tab.inverse_conjugate(float(info))
        check("mgf_curve_finite", math.isfinite(mixed) and mixed > 0
              and math.isfinite(tabulated) and tabulated > 0)
        curves.append((mixed, tabulated))
    mid = len(b["budgets"]) // 2
    info = float(b["budgets"][mid])
    mix = cgf.MixedEnvelope(list(zip(b["mix_weights"].tolist(), b["mix"])))
    for env, x in ((mix, curves[mid][0]), (tab, curves[mid][1])):
        check("conjugate_round_trip", abs(env.conjugate(x) - info) <= _CLOSED_REL * info)
    homo = cgf.MixedEnvelope(list(zip(b["mix_weights"].tolist(),
                                      map(cgf.SubGaussian, b["homogeneous_sigmas"]))))
    closed = homo.inverse_conjugate(info)
    check("homogeneous_closed_form",
          abs(homo.inverse_conjugate_numeric(info) - closed) <= _CLOSED_REL * closed)

    # divergence: dependence of a random joint and the moment-route bound
    joint = divergence.DiscreteJoint(b["joint"] / b["joint"].sum())
    mi = divergence.mutual_information(joint)
    i2 = divergence.alpha_mutual_information(joint, 2.0)
    entropy = divergence.phi_mi_marginal_bound(joint.p_rows, divergence.kl_generator())
    check("mi_marginal_cap", 0.0 <= mi <= entropy * (1 + _REL))
    check("alpha_mi_marginal_cap",
          0.0 <= i2 <= divergence.alpha_mi_marginal_bound(joint.p_rows, 2.0) * (1 + _REL))
    check("pnorm_finite", math.isfinite(
        bounds.pnorm_bound(b["row_sigmas"], joint.p_rows, 2.0, i2)))

    # orlicz: the bias bound as a Hölder inequality on the joint's cells
    psi = _psi(b["psi"])
    prod = joint.product_of_marginals()
    x = b["cell_x"]
    sigma = orlicz.luxemburg_norm(x, psi, prod.ravel())
    bound = orlicz.orlicz_bias_bound(sigma, joint, psi)
    lhs = float(np.sum(prod * np.abs(joint.p / prod - 1.0) * np.abs(x)))
    bias = abs(float(np.sum((joint.p - prod) * x)))
    check("holder", bias <= lhs * (1 + _REL) and lhs <= bound * (1 + _REL))

    lux = orlicz.luxemburg_norm(b["sample"], psi, b["sample_weights"])
    ame = orlicz.amemiya_norm(b["sample"], psi, b["sample_weights"])
    check("norm_equivalence", lux <= ame * (1 + _REL) and ame <= 2.0 * lux * (1 + _REL))

    got = bounds.max_inequality_orlicz_bound(sigma, psi, b["max_n"])
    want = sigma * _psi_inverse_closed(b["psi"], float(b["max_n"]))
    check("max_inequality_closed_form", abs(got - want) <= _REL * want)
    return failed
