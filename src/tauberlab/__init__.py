"""tauberlab: numerical laboratory for exponential-type Tauberian equivalences.

Validates the admissible parameter regimes of the equivalence between a
power-law log-asymptotic ``log P(x) ~ a*x**b`` and the log-asymptotic
``log f(lam) ~ d*lam**(b/(1-b))`` of the exponential-kernel transform
f(s) = offset + int_0^inf P(u*s) e^{c*u} du, evaluates the transform by
saddle-centered log-domain quadrature, estimates growth indices empirically,
and reduces the classical Kohlbecker, de Bruijn, and Kasahara statements to
the one shared parameter map.

The package exports exactly what each module lists in its own ``__all__``.
"""

from . import asymptotics, classical, errors, measures, params, targets, transform
from .asymptotics import *
from .classical import *
from .errors import *
from .measures import *
from .params import *
from .targets import *
from .transform import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (params, targets, measures, transform, asymptotics, classical, errors)
    for name in module.__all__
]
