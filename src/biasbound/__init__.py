"""Bias bounds for adaptive data exploration.

When an analyst looks at n noisy measurements and reports the one that
looks best, the reported value is biased upward.  This package computes
information-theoretic upper bounds on that bias — CGF-envelope (MGF) bounds,
moment/beta-norm bounds, and Orlicz-norm bounds — estimates the dependence
they consume, and validates everything against seeded Monte Carlo, including
a heavy-tailed construction where the moment bound is nearly tight.
"""

from .cgf import *
from .divergence import *
from .bounds import *
from .orlicz import *
from .simulate import *

__version__ = "0.1.0"
