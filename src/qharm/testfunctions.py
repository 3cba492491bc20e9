"""Seeded test-function generators shared by the verification suite and the
tests.

Each generator draws from the `numpy.random.Generator` it is given, in a
fixed call order, so a seed reproduces the same functions everywhere.
"""
from __future__ import annotations

import numpy as np

from .qlattice import LatticeFunction, QLattice, q_exponential
from .transform import TransformTable, clean_inversion_range


def random_compact(lattice: QLattice, rng: np.random.Generator) -> LatticeFunction:
    """Random function supported on a random clean sub-window.

    The window inverts a lattice point q^n only when the transform variable
    reaches exponent about -n, so draws keep their support inside the
    cleanly invertible exponent range.
    """
    lo_n, hi_n = clean_inversion_range(lattice)
    lo = int(rng.integers(lattice.index_of(lo_n), lattice.index_of(hi_n) - 1))
    hi = int(rng.integers(lo + 1, lattice.index_of(hi_n) + 1))
    vals = np.zeros(lattice.size)
    vals[lo : hi + 1] = rng.uniform(-1.0, 1.0, hi - lo + 1)
    return LatticeFunction(lattice, vals)


def nonneg_density(lattice: QLattice, rng: np.random.Generator) -> LatticeFunction:
    f = random_compact(lattice, rng)
    vals = np.abs(f.values)
    return LatticeFunction(lattice, vals)


def random_measure_weights(lattice: QLattice, rng: np.random.Generator) -> np.ndarray:
    """Nonnegative weights supported on exponents in [-2, 12]."""
    lo_n, hi_n = clean_inversion_range(lattice)
    lo = lattice.index_of(max(-2, lo_n))
    hi = lattice.index_of(hi_n)
    w = np.zeros(lattice.size)
    w[lo : hi + 1] = rng.uniform(0.0, 1.0, hi - lo + 1)
    return w


def gaussian_density(table: TransformTable, width_exp: int = 0) -> LatticeFunction:
    params = table.params
    q2 = params.q ** 2
    t = params.q ** (2 * width_exp)
    x = table.lattice.points
    vals = q_exponential(-t * x * x, q2).real
    return LatticeFunction(table.lattice, vals, value_at_zero=1.0)
