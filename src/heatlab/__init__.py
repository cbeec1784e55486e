"""heatlab: desk-scale experiments for semilinear heat flow with degenerate absorption.

The package studies d_t u - lap(u) + h(x,t) u**p = 0 where the absorption
coefficient h vanishes along a space-time curve, and turns the analytic
propagation-vs-localization dichotomy for Dirac-type initial data into
runnable, verifiable experiments:

* :mod:`heatlab.geometry`  - degeneracy curves and their parabolic distance
* :mod:`heatlab.potential` - decay profiles and the coefficient h
* :mod:`heatlab.barriers`  - closed-form super/subsolutions + grid verifiers
* :mod:`heatlab.spectral`  - Dirichlet ground states, drift shift, blow-up functionals
* :mod:`heatlab.solver`    - IMEX finite-difference evolution in fixed/moving frames
* :mod:`heatlab.harness`   - scenarios, sweeps, verdicts, reports
"""

from . import barriers, geometry, grids, harness, potential, solver, spectral
from .errors import (BudgetError, ConfigurationError, DomainError,
                     HeatlabError, NumericalError)
from .geometry import Curve
from .grids import Field, Grid
from .potential import DecayProfile, Potential

__version__ = "0.1.0"
