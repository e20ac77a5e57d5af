"""Shared test targets."""

from typing import NamedTuple

import numpy as np
import pytest

import tauberlab as tl


class KinkedPower(NamedTuple):
    """q(x) = a*x**b*(1 + k/(1 + |log x|)).

    The perturbation has a derivative jump at x = 1, across which the
    trapezoid rule converges only algebraically, so rows at small psi refine
    until the engine's node budget stops them.  The library families are
    smooth; this target keeps that path under test.  The engine and
    verify_equivalence read a power target by its a and b, so both take it
    as the power a*x**b.
    """

    a: float
    b: float
    k: float = 0.4

    def log_amplitude(self, x):
        arr = np.asarray(x, dtype=float)
        return self.a * arr**self.b * (1.0 + self.k / (1.0 + np.abs(np.log(arr))))

    def label(self) -> str:
        return f"kinked-power(a={self.a:g}, b={self.b:g}, k={self.k:g})"


@pytest.fixture
def kinked_kasahara():
    """The Kasahara power -x**2 with the kinked inverse-log perturbation, k = 0.4."""
    return KinkedPower(-1.0, 2.0, 0.4)
