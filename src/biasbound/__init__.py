"""Bias bounds for adaptive data exploration.

When an analyst looks at n noisy measurements and reports the one that
looks best, the reported value is biased upward.  This package computes
information-theoretic upper bounds on that bias — CGF-envelope (MGF) bounds,
moment/beta-norm bounds, and Orlicz-norm bounds — estimates the dependence
they consume, and validates everything against seeded Monte Carlo, including
a heavy-tailed construction where the moment bound is nearly tight.
"""

from .cgf import (CgfEnvelope, MixedEnvelope, SubExponential, SubGamma,
                  SubGaussian, Tabulated, subexponential_piecewise_bound)
from .divergence import (DiscreteJoint, PhiGenerator, abs_power_generator,
                         alpha_mi_cardinality_bound, alpha_mi_marginal_bound,
                         alpha_mutual_information, custom_generator,
                         kl_generator, load_probability_vector,
                         mutual_information, phi_divergence,
                         phi_mi_marginal_bound, save_probability_vector)
from .bounds import (BoundReport, UniformPnormBound, conjugate_exponent,
                     gaussian_bound, max_inequality_cgf_bound,
                     max_inequality_orlicz_bound, max_inequality_pnorm_bound,
                     mgf_bound, pnorm_bound, pnorm_uniform_bound,
                     weighted_beta_norm)
from .orlicz import (NumericDivergence, OrliczFunction, amemiya_norm,
                     exp_orlicz, holder_check, luxemburg_norm,
                     orlicz_bias_bound, power_orlicz, scaled_power_orlicz)
from .simulate import (ArgMax, ArgMin, ExperimentResult,
                       ExponentialIID, FixedIndex, GaussianIID, HeavyTailIID,
                       SoftMax, SweepRow, TopKUniform, bounds_for,
                       frechet_mean, heavy_tail_beta_norm, run_experiment,
                       sweep_to_csv, tightness_sweep)

__version__ = "0.1.0"
