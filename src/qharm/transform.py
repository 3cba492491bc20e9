"""The q-Bessel Fourier transform on a lattice window.

The kernel j_v(q^k q^n, q^2) depends only on k+n, so a single table of
Bessel values indexed by the exponent sum serves the transform, translation
and convolution.  The transform maps the window to itself; self-inversion
and Plancherel then hold up to window truncation, which the verify_* helpers
measure on an interior sub-window.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bessel import bessel_bound_envelope, lattice_jv_table
from .errors import LatticeMismatchError
from .qlattice import DEFAULT_TRUNC_TOL, LatticeFunction, QLattice, QParams, _lp_norms

BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class TransformTable:
    """Precomputed kernel data shared by all window operators.

    bessel_values[i] = j_v(q^{2 n_min + i}, q^2), covering every exponent sum
    k+n reachable from the window.
    """

    params: QParams
    lattice: QLattice
    bessel_values: np.ndarray = field(repr=False)

    def rows(self, exponents) -> np.ndarray:
        """Hankel gather: rows(ns)[r, k] = j_v(q^{ns[r] + n_min + k}, q^2).

        The one way to read rows of the kernel table: every exponent must be
        an integer (else TypeError) in the window (else IndexError).
        """
        exps = np.asarray(exponents)
        if exps.size and exps.dtype.kind not in "iu":
            raise TypeError(f"row exponents must be integers, got {exps.dtype}")
        lat = self.lattice
        offsets = exps.astype(int) - lat.n_min
        if offsets.size and (offsets.min() < 0 or offsets.max() >= lat.size):
            first = exps[(offsets < 0) | (offsets >= lat.size)][0]
            raise IndexError(f"row exponent {first} outside the window [{lat.n_min}, {lat.n_max}]")
        return self.bessel_values[offsets[:, None] + np.arange(lat.size)]

    @cached_property
    def weights(self) -> np.ndarray:
        """Jackson-plus-measure weights q^{n(2v+2)} over the window."""
        expo = (2.0 * self.params.v + 2.0) * self.lattice.indices.astype(float)
        weights = self.params.q ** expo
        weights.flags.writeable = False  # shared by every caller
        return weights

    @cached_property
    def kernel_matrix(self) -> np.ndarray:
        """Dense transform matrix M[k,n] = c (1-q) q^{n(2v+2)} j_v(q^{k+n})."""
        hankel = self.rows(self.lattice.indices)
        scale = self.params.c_qv * (1.0 - self.params.q)
        return scale * hankel * self.weights[None, :]


def build_transform_table(params: QParams, lattice: QLattice) -> TransformTable:
    """Evaluate every kernel Bessel value the window can reach.

    Each tabulated value is checked against the lattice decay bound (with a
    small absolute slack covering double-precision noise in the tiny entries).
    """
    if abs(lattice.q - params.q) > 1e-15 * params.q:
        raise ValueError("params and lattice disagree on q")
    if not lattice.straddles_one() and lattice.size > 1:
        raise ValueError("transform window must straddle x=1 (n_min < 0 < n_max)")
    m_lo, m_hi = 2 * lattice.n_min, 2 * lattice.n_max
    values = lattice_jv_table(params, m_lo, m_hi)
    ms = np.arange(m_lo, m_hi + 1)
    envelope = bessel_bound_envelope(params, ms)
    bad = np.abs(values) > envelope + BOUND_SLACK
    if np.any(bad):
        worst = ms[bad][0]
        raise ValueError(
            f"tabulated j_v(q^{worst}) violates the decay bound: "
            f"{values[bad][0]} vs {envelope[bad][0]}"
        )
    return TransformTable(params=params, lattice=lattice, bessel_values=values)


class TransformResult(NamedTuple):
    function: LatticeFunction
    edge_warning: bool


def _check_lattice(table: TransformTable, *operands) -> None:
    """Refuse any operand, a function or a measure, off the table's window."""
    for x in operands:
        if x.lattice != table.lattice:
            raise LatticeMismatchError(f"operand on {x.lattice}, table on {table.lattice}")


# The private helpers below take a stack of functions as a (K, N) array, one
# function per row, or a single (N,) vector; for a vector each gives the
# result of the one-function route bit for bit.  The first three make up
# :func:`fourier_transform_detail`, which runs them on one vector.


def _transform_rows(values: np.ndarray, table: TransformTable) -> np.ndarray:
    """F of every row: one product with the kernel matrix for the stack."""
    return (table.kernel_matrix @ values.T).T


def _hankel_form(table: TransformTable, s: np.ndarray, exponents, others=None) -> np.ndarray:
    """H[..., i, j] = sum_k rows[i, k] s[..., k] cols[j, k] for the Hankel
    rows of `exponents` and the columns of `others` (the same rows when
    None, the symmetric (P, P) form; else the (P, Q) block of it on the two
    sets): a (..., N) stack of s gives the (..., P, Q) stack from one
    stacked product, which runs one matrix product per slab, so each slab
    equals the form of its s alone bit for bit."""
    rows = table.rows(exponents)
    cols = rows if others is None else table.rows(others)
    return (rows * s[..., None, :]) @ cols.T


def _at_zero(weighted: np.ndarray, table: TransformTable) -> np.ndarray:
    """F f(0) from the weighted rows q^{n(2v+2)} f(q^n): the j_v(0)=1 limit."""
    return table.params.c_qv * (1.0 - table.params.q) * weighted.sum(axis=-1)


def _edge_warning(weighted: np.ndarray) -> np.ndarray:
    """Whether a weighted summand at either window end exceeds DEFAULT_TRUNC_TOL."""
    ends = weighted.T  # the window ends of every row lead; a vector gives scalars
    return (abs(ends[0]) > DEFAULT_TRUNC_TOL) | (abs(ends[-1]) > DEFAULT_TRUNC_TOL)


def fourier_transform_detail(
    f: LatticeFunction, table: TransformTable
) -> TransformResult:
    """F f(q^k) = c (1-q) sum_n q^{n(2v+2)} f(q^n) j_v(q^{k+n}, q^2).

    The output lives on the input window; value_at_zero is filled from the
    j_v(0)=1 limit of the same sum.  An edge warning is raised when the
    summand magnitude at either window end exceeds DEFAULT_TRUNC_TOL (the
    window then visibly truncates the infinite Jackson sum).
    """
    _check_lattice(table, f)
    weighted = table.weights * f.values
    out = LatticeFunction(
        table.lattice, _transform_rows(f.values, table), _at_zero(weighted, table)
    )
    return TransformResult(out, bool(_edge_warning(weighted)))


def fourier_transform(f: LatticeFunction, table: TransformTable) -> LatticeFunction:
    return fourier_transform_detail(f, table).function


def delta_qv(x_exponent: int, y_exponent: int, params: QParams) -> float:
    """Reproducing diagonal weight: 0 off-diagonal, 1/((1-q) x^{2v+2}) on it."""
    if x_exponent != y_exponent:
        return 0.0
    x = params.q ** x_exponent
    return 1.0 / ((1.0 - params.q) * x ** (2.0 * params.v + 2.0))


def clean_inversion_range(lattice: QLattice) -> tuple:
    """Exponent range [lo, hi] whose kernel columns invert to < 1e-10.

    Inverting the lattice point q^n needs transform exponents near -n, so
    the usable range shrinks from both window ends; the constants cover
    every supported (q, v) regime at the default window sizes.
    """
    lo = lattice.n_min + 8
    hi = min(12, -lattice.n_min - 6, lattice.n_max - 8)
    if hi < lo:
        raise ValueError("window too small for clean inversion")
    return lo, hi


def interior_slice(lattice: QLattice, fraction: float = 0.6) -> slice:
    """Centered sub-window holding `fraction` of the indices."""
    size = lattice.size
    margin = int(round(size * (1.0 - fraction) / 2.0))
    margin = min(margin, (size - 1) // 2)
    return slice(margin, size - margin)


class InversionReport(NamedTuple):
    max_interior_error: float
    interior: slice
    edge_warning: bool


def verify_inversion(f: LatticeFunction, table: TransformTable) -> InversionReport:
    """Max deviation of F(F f) from f on the interior sub-window."""
    _check_lattice(table, f)
    err, edge = _inversion_errors(f.values, table)
    return InversionReport(
        max_interior_error=float(err),
        interior=interior_slice(table.lattice),
        edge_warning=bool(edge),
    )


def _inversion_errors(values: np.ndarray, table: TransformTable):
    """(interior error, edge warning) of :func:`verify_inversion` per row;
    the error is relative to the row's sup, absolute for a zero row."""
    first = _transform_rows(values, table)
    second = _transform_rows(first, table)
    sl = interior_slice(table.lattice)
    diff = np.abs(second[..., sl] - values[..., sl]).max(axis=-1)
    scale = np.abs(values).max(axis=-1)
    err = diff / np.where(scale > 0.0, scale, 1.0)
    w = table.weights
    return err, _edge_warning(w * values) | _edge_warning(w * first)


class PlancherelReport(NamedTuple):
    input_norm: float
    output_norm: float
    error: float  # relative when the input norm is nonzero, else absolute


def verify_plancherel(f: LatticeFunction, table: TransformTable) -> PlancherelReport:
    _check_lattice(table, f)
    return PlancherelReport(*(float(x) for x in _plancherel_errors(f.values, table)))


def _plancherel_errors(values: np.ndarray, table: TransformTable):
    """(||f||_2, ||F f||_2, error) of :func:`verify_plancherel` per row."""
    n_in = _lp_norms(values, table.lattice, 2.0, table.weights)
    n_out = _lp_norms(_transform_rows(values, table), table.lattice, 2.0, table.weights)
    err = np.abs(n_out - n_in) / np.where(n_in == 0.0, 1.0, n_in)
    return n_in, n_out, err


class OrthogonalityReport(NamedTuple):
    n: int
    m: int
    value: float
    target: float
    error: float


def verify_orthogonality(n: int, m: int, table: TransformTable) -> OrthogonalityReport:
    """Window Jackson sum of c^2 int j_v(q^n x) j_v(q^m x) x^{2v+1} d_qx."""
    values, targets = _orthogonality_values([n], [m], table)
    value, target = float(values[0, 0]), float(targets[0, 0])
    return OrthogonalityReport(n=n, m=m, value=value, target=target, error=abs(value - target))


def _orthogonality_values(ns, ms, table: TransformTable):
    """(values, targets) of :func:`verify_orthogonality` for every pair
    (ns[i], ms[j]): the window sums of the weighted row products, each
    summed along its own row, and the diagonal norms.  An exponent outside
    the window raises IndexError from :meth:`TransformTable.rows`."""
    params = table.params
    q = params.q
    integrand = (table.weights * table.rows(ns))[:, None, :] * table.rows(ms)[None, :, :]
    values = params.c_qv ** 2 * (1.0 - q) * integrand.sum(axis=-1)
    norms = {n: q ** (-2.0 * n * (params.v + 1.0)) / (1.0 - q) for n in ns}
    targets = np.array([[norms[n] if n == m else 0.0 for m in ms] for n in ns])
    return values, targets


class L1BoundReport(NamedTuple):
    sup_transform: float
    bound: float
    holds: bool


def verify_l1_bound(f: LatticeFunction, table: TransformTable) -> L1BoundReport:
    """sup |F f| against B_qv ||f||_1 on the window."""
    _check_lattice(table, f)
    sup, bound = (float(x) for x in _l1_bounds(f.values, table))
    return L1BoundReport(sup, bound, sup <= bound * (1.0 + BOUND_SLACK) + 1e-300)


def _l1_bounds(values: np.ndarray, table: TransformTable):
    """(sup |F f| with F f(0) included, B_qv ||f||_1) per row."""
    sup = np.abs(_transform_rows(values, table)).max(axis=-1)
    sup = np.maximum(sup, np.abs(_at_zero(table.weights * values, table)))
    return sup, table.params.B_qv * _lp_norms(values, table.lattice, 1.0, table.weights)
