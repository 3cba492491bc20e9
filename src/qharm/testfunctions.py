"""Seeded test-function generators shared by the verification suite and the
tests.

Each generator draws from the `numpy.random.Generator` it is given, in a
fixed call order, so a seed reproduces the same functions everywhere.
"""
from __future__ import annotations

import numpy as np

from .qlattice import LatticeFunction, QLattice, _lattice_q_gaussian
from .transform import TransformTable, clean_inversion_range


def random_compact(lattice: QLattice, rng: np.random.Generator) -> LatticeFunction:
    """Random function supported on a random clean sub-window.

    The window inverts a lattice point q^n only when the transform variable
    reaches exponent about -n, so draws keep their support inside the
    cleanly invertible exponent range.
    """
    vals = np.zeros(lattice.size)
    _compact_into(vals, *_compact_offsets(lattice), rng)
    return LatticeFunction(lattice, vals)


def nonneg_density(lattice: QLattice, rng: np.random.Generator) -> LatticeFunction:
    """|f| for a :func:`random_compact` draw f."""
    return LatticeFunction(lattice, np.abs(random_compact(lattice, rng).values))


def _compact_offsets(lattice: QLattice):
    """Array offsets of the ends of the clean inversion range, where every
    :func:`random_compact` draw on the window keeps its support."""
    lo_n, hi_n = clean_inversion_range(lattice)
    return lattice.index_of(lo_n), lattice.index_of(hi_n)


def _compact_into(row: np.ndarray, first: int, last: int, rng: np.random.Generator) -> None:
    """Write the values of one :func:`random_compact` draw into a zero row,
    given the :func:`_compact_offsets` of its window."""
    lo = int(rng.integers(first, last - 1))
    hi = int(rng.integers(lo + 1, last + 1))
    row[lo : hi + 1] = rng.uniform(-1.0, 1.0, hi - lo + 1)


def draw_stacks(lattice: QLattice, rng: np.random.Generator, count: int, *kinds: str):
    """`count` rounds of draws, each round one draw per kind in order, as
    one (count, N) stack of values per kind.

    A kind is "compact" (:func:`random_compact`) or "nonneg"
    (:func:`nonneg_density`); the rng calls are those of the per-draw
    generators called in the same order, so row j of each stack equals the
    draw of round j bit for bit.
    """
    unknown = set(kinds) - {"compact", "nonneg"}
    if unknown:
        raise ValueError(f"unknown draw kinds {sorted(unknown)}")
    first, last = _compact_offsets(lattice)
    stacks = np.zeros((len(kinds), count, lattice.size))
    for j in range(count):
        for k in range(len(kinds)):
            _compact_into(stacks[k, j], first, last, rng)
    for k, kind in enumerate(kinds):
        if kind == "nonneg":
            np.abs(stacks[k], out=stacks[k])
    return tuple(stacks)


def random_measure_weights(lattice: QLattice, rng: np.random.Generator) -> np.ndarray:
    """Nonnegative weights supported on exponents in [-2, 12]."""
    lo_n, hi_n = clean_inversion_range(lattice)
    lo = lattice.index_of(max(-2, lo_n))
    hi = lattice.index_of(hi_n)
    w = np.zeros(lattice.size)
    w[lo : hi + 1] = rng.uniform(0.0, 1.0, hi - lo + 1)
    return w


def gaussian_density(table: TransformTable, width_exp: int = 0) -> LatticeFunction:
    """The q-Gaussian e(-q^{2w} x^2, q^2) on the window, 1 at x = 0."""
    vals = _lattice_q_gaussian(table.params.q ** (2 * width_exp), table.lattice)
    return LatticeFunction(table.lattice, vals, value_at_zero=1.0)
