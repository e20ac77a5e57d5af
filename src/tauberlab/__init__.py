"""tauberlab: numerical laboratory for exponential-type Tauberian equivalences.

Validates the admissible parameter regimes of the equivalence between a
power-law log-asymptotic ``log P(x) ~ a*x**b`` and the log-asymptotic
``log f(lam) ~ d*lam**(b/(1-b))`` of the exponential-kernel transform
f(s) = offset + int_0^inf P(u*s) e^{c*u} du, evaluates the transform by
saddle-centered log-domain quadrature, estimates growth indices empirically,
and reduces the classical Kohlbecker, de Bruijn, and Kasahara statements to
the one shared parameter map.

The package exports exactly what each module lists in its own ``__all__``.
The engine and its errors (``params``, ``targets``, ``measures``,
``transform``, ``asymptotics``, ``errors``) are imported with the package.
``classical`` (the classical adapters) and ``index`` (the growth-index
estimators) are front ends that no sweep, verification or measure transform
runs, so they load on first use: the first lookup of one of their names on
the package imports the module (PEP 562), and a process that never asks for
them does not compile them or define their record classes.
"""

import importlib

from . import asymptotics, errors, measures, params, targets, transform
from .asymptotics import *
from .errors import *
from .measures import *
from .params import *
from .targets import *
from .transform import *

__version__ = "0.1.0"

# The ``__all__`` of each module that loads on first use; the surface tests
# hold these lists equal to the modules' own.
_LAZY = {
    "classical": (
        "Kohlbecker",
        "DeBruijn",
        "Kasahara",
        "ClassicalSpec",
        "UnifiedReduction",
        "to_unified",
        "coefficient_identity_check",
        "classify",
    ),
    "index": (
        "CkIndexResult",
        "ck_index",
        "TrendVerdict",
        "EpsilonCheck",
        "ClassMDiagnostic",
        "class_m_check",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["__version__"] + [
    name
    for module in (params, targets, measures, transform, asymptotics, errors)
    for name in module.__all__
] + list(_LAZY_OWNER)


def __getattr__(name: str):
    """Import the module that owns a lazy name and bind its exports here."""
    if name in _LAZY:
        owner = name
    elif name in _LAZY_OWNER:
        owner = _LAZY_OWNER[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{owner}", __name__)
    globals().update((n, getattr(module, n)) for n in _LAZY[owner])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY_OWNER) | set(_LAZY))
