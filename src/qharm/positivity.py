"""Positive-type testing, lattice measures and the constructive Bochner pipeline.

The positive-type criterion quantifies over every finite point list; the
checker samples Gram matrices on a fixed set of grids, so POSITIVE means "no
violation found on the tested grids" while NEGATIVE is conclusive and comes
with the violating coefficient vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import LatticeMismatchError
from .qlattice import LatticeFunction, QLattice, QParams, _lp_norms, lp_norm
from .transform import (
    TransformTable,
    _check_lattice,
    _transform_rows,
    clean_inversion_range,
    fourier_transform,
    interior_slice,
)
from .operators import _all_translations, _spectral_convolution

DEFAULT_PSD_TOL = 1e-9

# the hat cutoff phi_n perturbs the spectrum at order q^n; the per-level PSD
# and density tolerances grant that perturbation 50 q^n on top of tol
_CUTOFF_GUARD = 50.0


def default_point_exponents(table: TransformTable) -> List[int]:
    """Default Gram grid: q^1..q^8 plus the larger points 1, q^-1, q^-2."""
    lat = table.lattice
    pts = [n for n in range(1, 9) if n <= lat.n_max]
    pts += [n for n in (0, -1, -2) if n >= lat.n_min]
    return pts


@dataclass
class GramMatrix:
    """Translation Gram matrix: entries[r][l] = T_{x_r} phi (x_l)."""

    point_exponents: List[int]
    entries: np.ndarray

    @property
    def hermitian_defect(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())


def gram_matrix(
    phi: LatticeFunction, point_exponents: Sequence[int], table: TransformTable
) -> GramMatrix:
    """Assemble the translation Gram matrix over distinct lattice points.

    Uses the spectral form: entry (r,l) = c (1-q) sum_n w_n Fphi(q^n)
    j_v(q^{n+r}) j_v(q^{n+l}), i.e. one transform plus one quadratic form.
    """
    return _spectral_gram(fourier_transform(phi, table).values, point_exponents, table)


def _spectral_gram(
    spectrum: np.ndarray, point_exponents: Sequence[int], table: TransformTable
) -> GramMatrix:
    """The Gram matrix as a quadratic form in the spectrum F phi.

    A stack of spectra (..., N) gives the stack of Gram matrices (..., P, P).
    """
    pts = list(point_exponents)
    if len(set(pts)) != len(pts):
        raise ValueError("gram points must be distinct")
    for n in pts:
        table.lattice.index_of(n)  # bounds check
    params = table.params
    rows = table.rows(pts)
    scale = params.c_qv * (1.0 - params.q) * table.weights
    flat = spectrum.reshape(-1, spectrum.shape[-1])
    entries = np.empty((len(flat), len(pts), len(pts)), np.result_type(rows, spectrum))
    for i, row in enumerate(flat):
        # one product per matrix: a stacked product would materialise an
        # (..., P, N) temporary and raise the peak memory of long level lists
        entries[i] = (rows * (scale * row)) @ rows.T
    entries = entries.reshape(spectrum.shape[:-1] + entries.shape[1:])
    return GramMatrix(point_exponents=pts, entries=entries)


@dataclass(frozen=True)
class PositivityVerdict:
    positive: bool
    min_eigenvalue: float
    scale: float
    tolerance: float
    witness: Optional[np.ndarray]  # coefficients violating the quadratic form
    point_exponents: Tuple[int, ...]


def is_q_positive_type(
    phi: LatticeFunction,
    point_exponents: Optional[Sequence[int]] = None,
    table: TransformTable = None,
    tol: float = DEFAULT_PSD_TOL,
) -> PositivityVerdict:
    """PSD test of the translation Gram matrix on one point grid.

    The tolerance is relative: lambda_min >= -tol * max(1, ||G||_inf),
    because Gram entries span many orders of magnitude on the lattice.
    """
    if table is None:
        raise ValueError("a transform table is required")
    spectrum = fourier_transform(phi, table).values
    return _spectral_verdict(spectrum, point_exponents, table, tol)


def _spectral_verdict(
    spectrum: np.ndarray,
    point_exponents: Optional[Sequence[int]],
    table: TransformTable,
    tol: Union[float, Sequence[float]],
) -> Union[PositivityVerdict, List[PositivityVerdict]]:
    """The PSD verdict of :func:`is_q_positive_type` from the spectrum F phi.

    A stack of spectra (L, N), with one tolerance per row or one for all,
    gives the list of L verdicts from one stacked ``eigvalsh``, and ``eigh``
    runs on the NEGATIVE rows only, for their witnesses.  Each verdict equals
    the verdict of its row alone, bit for bit.
    """
    if point_exponents is None:
        point_exponents = default_point_exponents(table)
    g = _spectral_gram(spectrum, point_exponents, table)
    herm = 0.5 * (g.entries + np.swapaxes(g.entries.conj(), -1, -2))
    lam = np.linalg.eigvalsh(herm)[..., 0]
    scale = np.maximum(1.0, np.abs(g.entries).max(axis=(-2, -1)))
    tols = np.full(lam.shape, tol)
    ok = lam >= -tols * scale
    flat = herm.reshape(-1, *herm.shape[-2:])
    bad = np.flatnonzero(~ok.reshape(-1))
    witnesses = [None] * len(flat)
    for i, vecs in zip(bad, np.linalg.eigh(flat[bad])[1] if bad.size else ()):
        witnesses[i] = vecs[:, 0]
    verdicts = [
        PositivityVerdict(
            positive=positive,
            min_eigenvalue=lam_i,
            scale=scale_i,
            tolerance=tol_i,
            witness=witness,
            point_exponents=tuple(g.point_exponents),
        )
        for positive, lam_i, scale_i, tol_i, witness in zip(
            ok.reshape(-1).tolist(),
            lam.reshape(-1).tolist(),
            scale.reshape(-1).tolist(),
            tols.reshape(-1).tolist(),
            witnesses,
        )
    ]
    return verdicts if spectrum.ndim > 1 else verdicts[0]


@dataclass(frozen=True)
class GridSweepReport:
    verdicts: Tuple[PositivityVerdict, ...]

    @property
    def all_positive(self) -> bool:
        return all(v.positive for v in self.verdicts)


def _grid_sweep(
    spectrum: np.ndarray, table: TransformTable, tol: float
) -> Union[GridSweepReport, List[GridSweepReport]]:
    """PSD verdicts on the default grid plus 4 grids drawn with seed 0, from
    the spectrum F fn; every grid is a quadratic form in that spectrum.

    A (K, N) stack of spectra gives K reports from one stacked ``eigvalsh`` per
    grid.
    """
    lat = table.lattice
    rng = np.random.default_rng(0)
    grids = [default_point_exponents(table)]
    pool = np.arange(max(lat.n_min, -4), min(lat.n_max, 14) + 1)
    for _ in range(4):
        size = int(rng.integers(3, min(9, pool.size)))
        grids.append(sorted(int(n) for n in rng.choice(pool, size=size, replace=False)))
    per_grid = [_spectral_verdict(spectrum, g, table, tol) for g in grids]
    if spectrum.ndim == 1:
        return GridSweepReport(verdicts=tuple(per_grid))
    return [GridSweepReport(verdicts=v) for v in zip(*per_grid)]


def verify_transform_positive_type(
    phi: LatticeFunction, table: TransformTable, tol: float = DEFAULT_PSD_TOL
) -> GridSweepReport:
    """Run the PSD test on F phi over the default grid plus sampled grids."""
    spectrum = fourier_transform(fourier_transform(phi, table), table).values
    return _grid_sweep(spectrum, table, tol)


@dataclass(frozen=True)
class QuadraticFormReport:
    value: complex
    scale: float
    nonnegative: bool


def verify_quadratic_form_positivity(
    phi: LatticeFunction,
    f: LatticeFunction,
    table: TransformTable,
    tol: float = DEFAULT_PSD_TOL,
) -> QuadraticFormReport:
    """<phi * f, f> in the x^{2v+1}-weighted inner product."""
    phi.same_window(f)
    _check_lattice(phi, table)
    val, scale = _quadratic_forms(phi.values, f.values, table)
    val, scale = complex(val), float(scale)
    ok = val.real >= -tol * scale and abs(val.imag) <= max(tol * scale, 1e-9 * scale)
    return QuadraticFormReport(value=val, scale=scale, nonnegative=bool(ok))


def _quadratic_forms(phi_values: np.ndarray, f_values: np.ndarray, table: TransformTable):
    """(<phi * f, f>, its scale) of :func:`verify_quadratic_form_positivity`
    for one pair of (N,) vectors or row by row for two (K, N) stacks."""
    conv = _spectral_convolution(phi_values, f_values, table)[0]
    val = (1.0 - table.params.q) * np.sum(table.weights * conv * np.conj(f_values), axis=-1)
    norm = _lp_norms(f_values, table.lattice, 2.0, table.params)
    scale = np.maximum(1.0, norm ** 2 * np.abs(phi_values).max(axis=-1, initial=0.0))
    return val, scale


@dataclass(frozen=True)
class SpectrumReport:
    min_value: float
    sup_value: float
    nonnegative: bool


def verify_nonneg_spectrum(
    phi: LatticeFunction, table: TransformTable, tol: float = DEFAULT_PSD_TOL
) -> SpectrumReport:
    """Min of F phi over the window against -tol * sup |F phi|."""
    _check_lattice(phi, table)
    mn, sup = (float(x) for x in _spectrum_extremes(phi.values, table))
    return SpectrumReport(min_value=mn, sup_value=sup, nonnegative=bool(mn >= -tol * max(sup, 1e-300)))


def _spectrum_extremes(values: np.ndarray, table: TransformTable):
    """(min Re F phi, sup |F phi|) per row."""
    ff = _transform_rows(values, table)
    return ff.real.min(axis=-1), np.abs(ff).max(axis=-1)


@dataclass(frozen=True)
class SpectrumMassReport:
    absolute_mass: float
    signed_mass: complex
    target: complex
    max_relative_error: float


def verify_l1_spectrum_mass(
    phi: LatticeFunction, table: TransformTable
) -> SpectrumMassReport:
    """c_qv int F phi x^{2v+1} d_qx (and its absolute version) against phi(0).

    The c_qv prefactor matches the one the transform itself carries; without
    it the mass comes out a constant factor off for every phi.
    """
    if phi.value_at_zero is None:
        raise ValueError("phi must carry value_at_zero")
    _check_lattice(phi, table)
    target = complex(phi.value_at_zero)
    absolute, signed, err = _spectrum_masses(phi.values, target, table)
    return SpectrumMassReport(
        absolute_mass=float(absolute),
        signed_mass=complex(signed),
        target=target,
        max_relative_error=float(err),
    )


def _spectrum_masses(values: np.ndarray, targets, table: TransformTable):
    """(absolute mass, signed mass, relative error) of
    :func:`verify_l1_spectrum_mass` per row, against the targets phi(0)."""
    ff = _transform_rows(values, table)
    w = table.weights
    scale = table.params.c_qv * (1.0 - table.params.q)
    signed = scale * np.sum(w * ff, axis=-1)
    absolute = scale * np.sum(w * np.abs(ff), axis=-1)
    size = np.abs(targets)
    err = np.maximum(np.abs(signed - targets), np.abs(absolute - size))
    return absolute, signed, err / np.maximum(size, 1e-300)


@dataclass(frozen=True)
class WienerReport:
    l1_norm: float
    transform_l1_norm: float
    tails_decay: bool
    consistent: bool


def wiener_membership(f: LatticeFunction, table: TransformTable) -> WienerReport:
    """Window diagnostics for membership in the q-Wiener algebra."""
    params = table.params
    n1 = lp_norm(f, 1.0, params)
    ff = fourier_transform(f, table)
    n2 = lp_norm(ff, 1.0, params)
    w = table.weights

    def tail_ok(vals: np.ndarray) -> bool:
        summands = np.abs(w * vals)
        peak = summands.max()
        if peak == 0.0:
            return True
        edge = max(summands[0], summands[-1])
        return bool(edge <= 1e-8 * peak)

    decay = tail_ok(f.values) and tail_ok(ff.values)
    ok = bool(np.isfinite(n1) and np.isfinite(n2) and decay)
    return WienerReport(l1_norm=n1, transform_l1_norm=n2, tails_decay=decay, consistent=ok)


def product_positive_type_check(
    phi: LatticeFunction,
    f_nonneg: LatticeFunction,
    table: TransformTable,
    tol: float = DEFAULT_PSD_TOL,
) -> GridSweepReport:
    """PSD sweep of the product phi . F(f_nonneg)."""
    ff = fourier_transform(f_nonneg, table)
    product = LatticeFunction(table.lattice, phi.values * ff.values)
    return _grid_sweep(fourier_transform(product, table).values, table, tol)


@dataclass
class QMeasure:
    """Nonnegative density weights against d_qx on a lattice window."""

    lattice: QLattice
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.lattice.size,):
            raise ValueError("one weight per lattice point required")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("measure weights must be nonnegative")
        self.weights = w

    def total_mass_v(self, params: QParams) -> float:
        """int x^{2v+1} d_q xi(x) over the window."""
        q = self.lattice.q
        expo = (2.0 * params.v + 2.0) * self.lattice.indices.astype(float)
        return float((1.0 - q) * np.sum(q ** expo * self.weights))


def measure_fourier_transform(xi: QMeasure, table: TransformTable) -> LatticeFunction:
    """Transform of a measure: no c_qv prefactor, unlike the function transform."""
    if xi.lattice != table.lattice:
        raise LatticeMismatchError("measure must live on the table lattice")
    vals = table.kernel_matrix @ xi.weights / table.params.c_qv
    return LatticeFunction(
        table.lattice, vals, value_at_zero=xi.total_mass_v(table.params)
    )


def measure_convolution(
    xi: QMeasure,
    rho: QMeasure,
    f: LatticeFunction,
    table: TransformTable,
    with_scale: bool = False,
):
    """Action of the convolved measure on f.

    Both integration variables carry the x^{2v+1} weight; with that symmetric
    convention the transform of the convolved measure factorizes exactly into
    the product of the individual measure transforms.  With ``with_scale``
    the all-absolute version of the double sum is returned alongside: it is
    the magnitude against which double-precision cancellation in the result
    must be judged.  The translations T_u f are computed only at the points
    u that carry xi mass, as one matrix product.
    """
    _check_lattice(f, table)
    total, scale = _measure_convolutions(xi, rho, f.values, table)
    if with_scale:
        return complex(total), float(scale)
    return complex(total)


def _measure_convolutions(xi: QMeasure, rho: QMeasure, values: np.ndarray, table: TransformTable):
    """(double sum, all-absolute double sum) of :func:`measure_convolution`
    for one (N,) vector f, or for each row of a (K, N) stack from one stack
    of translations."""
    if xi.lattice != table.lattice or rho.lattice != table.lattice:
        raise LatticeMismatchError("measures must live on the table lattice")
    q = table.params.q
    w = table.weights
    support = np.flatnonzero(xi.weights != 0.0)
    shifted = _all_translations(values, table.lattice.indices[support], table)
    outer = (1.0 - q) ** 2 * (w * rho.weights)
    inner = (w * xi.weights)[support]
    return outer @ shifted @ inner, outer @ np.abs(shifted) @ inner


def measure_product_identity_error(
    xi: QMeasure, rho: QMeasure, table: TransformTable
) -> float:
    """Max pointwise relative deviation of F(xi * rho) from F(xi) F(rho).

    F(xi * rho)(x) is evaluated by feeding the Bessel probe j_v(x .) to the
    convolved measure; the translation of the probe factorizes exactly as
    T_u j_v(x .)(t) = j_v(xu) j_v(xt), which makes the identity sharp.  The
    deviation at each probe point is scaled by the all-positive version of
    the product (weights and kernel in absolute value), the precision
    actually attainable for these heavily v-weighted sums.
    """
    lat = table.lattice
    q = table.params.q
    f_xi = measure_fourier_transform(xi, table)
    f_rho = measure_fourier_transform(rho, table)
    w = table.weights
    # probing relies on a double transform of the Bessel row, so only the
    # cleanly invertible exponents are sampled; all probes are translated
    # as one stack
    lo, hi = clean_inversion_range(lat)
    idx = np.arange(lo, hi + 1)
    probes = idx[:: max(1, len(idx) // 12)]
    rows = table.rows(probes)
    lhs = _measure_convolutions(xi, rho, rows, table)[0]
    at = probes - lat.n_min
    rhs = f_xi.values[at] * f_rho.values[at]
    abs_rows = np.abs(rows)
    scale_xi = (1.0 - q) * np.sum(w * xi.weights * abs_rows, axis=-1)
    scale_rho = (1.0 - q) * np.sum(w * rho.weights * abs_rows, axis=-1)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, scale_xi * scale_rho), initial=0.0))


def _cutoff_factors(lat: QLattice, levels) -> np.ndarray:
    """1 - q^{n+m} for n+m >= 1, else 0: one row per level n, or one row for an int n."""
    shifted = lat.indices + np.asarray(levels)[..., None]
    return np.where(shifted >= 1, 1.0 - lat.q ** shifted.astype(float), 0.0)


def bochner_cutoff(phi: LatticeFunction, n: int) -> LatticeFunction:
    """phi_n(q^m) = phi(q^m) (1 - q^{n+m}) for n+m >= 1, else 0."""
    return LatticeFunction(
        phi.lattice,
        phi.values * _cutoff_factors(phi.lattice, n),
        value_at_zero=phi.value_at_zero,
    )


def _matvec_rows(matrix: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """matrix @ row for every row of an (L, N) stack.

    One matrix-vector product per row keeps each row bit-identical to a lone
    ``matrix @ row``; a single matrix product over the stack is not.
    """
    out = np.empty((stack.shape[0], matrix.shape[0]), np.result_type(matrix, stack))
    for i, row in enumerate(stack):
        out[i] = matrix @ row
    return out


@dataclass(frozen=True)
class BochnerLevel:
    level: int
    psd_positive: bool
    min_eigenvalue: float
    psd_tolerance: float
    density_min: float
    density_clip_tolerance: float
    mass: float
    transform_deviation: float  # sup interior |c F(xi_n) - phi_rescaled|


@dataclass
class BochnerReport:
    cutoff_levels: List[int]
    levels: List[BochnerLevel]
    limit_measure: Optional[QMeasure]
    reconstruction_error: float
    normalization: complex  # phi(0) divided out before the pipeline
    accepted: bool
    rejection_reason: Optional[str] = None


def bochner_reconstruct(
    phi: LatticeFunction,
    levels: Sequence[int],
    table: TransformTable,
    tol: float = DEFAULT_PSD_TOL,
) -> BochnerReport:
    """Constructive Bochner pipeline.

    Per level n: cutoff phi_n, density rho_n = F phi_n, PSD check of the
    Gram matrix of phi_n (a quadratic form in rho_n), mass check against
    phi(0), and the deviation of c F(xi_n) from phi.  The hat cutoff
    perturbs the spectrum at order q^n, so the per-level PSD and
    density-negativity tolerances carry a q^n-scaled guard; the limit
    measure, obtained by eliminating the exactly geometric q^n cutoff term
    from the last two levels, is held to the strict tolerance.

    All levels are evaluated as arrays: one (L, N) cutoff stack, a
    matrix-vector product per row for the densities, one stack of Gram
    matrices with one stacked ``eigvalsh`` for the PSD checks, and axis
    reductions for the other checks.  A real phi(0) divides as a float, so a
    real phi runs in float64 on the table's own kernel; complex values or a
    complex phi(0) cast the kernel once.  Each level's PSD verdict equals
    ``is_q_positive_type`` on that cutoff with tolerance tol + 50 q^n, bit
    for bit.  When several levels fail, the reason names the highest.  A
    phi(0) that is not real and positive (|Im phi(0)| > tol |phi(0)|) is
    rejected whatever the levels say: it is the total mass of the measure.
    """
    if phi.value_at_zero is None:
        raise ValueError("phi must carry value_at_zero")
    phi0 = complex(phi.value_at_zero)
    if phi0 == 0:
        raise ValueError("phi(0) = 0 cannot be normalized to 1")
    levels = sorted(int(n) for n in levels)
    if len(levels) < 2:
        raise ValueError("at least two cutoff levels are required")
    if len(set(levels)) != len(levels):
        raise ValueError(f"cutoff levels must be distinct, got {levels}")
    lat = table.lattice
    q = table.params.q
    c = table.params.c_qv
    kernel = table.kernel_matrix
    norm = phi0.real if phi0.imag == 0.0 else phi0
    norm_phi = LatticeFunction(lat, phi.values / norm, value_at_zero=1.0).values
    sl = interior_slice(lat)

    cutoffs = norm_phi * _cutoff_factors(lat, levels)
    rho = _matvec_rows(kernel.astype(cutoffs.dtype, copy=False), cutoffs)
    dens = rho.real
    if not np.all(np.isfinite(dens)):
        raise ValueError("weights must be finite")
    # the guard stays a Python float per level: numpy's power over an array
    # of levels differs from q ** n in the last bit (at level 12 for q = 0.9)
    level_tols = [tol + _CUTOFF_GUARD * q ** n for n in levels]
    verdicts = _spectral_verdict(rho, None, table, level_tols)
    dens_min = dens.min(axis=1)
    clip_tol = np.array(level_tols) * np.maximum(np.abs(dens).max(axis=1), 1e-300)
    mass = c * (1.0 - q) * np.sum(table.weights * dens, axis=1)
    recons = _matvec_rows(kernel, np.clip(dens, 0.0, None)) / c
    dev = np.abs(c * recons[:, sl] - norm_phi[sl]).max(axis=1)
    records = [
        BochnerLevel(
            level=n,
            psd_positive=verdicts[i].positive,
            min_eigenvalue=verdicts[i].min_eigenvalue,
            psd_tolerance=level_tols[i],
            density_min=float(dens_min[i]),
            density_clip_tolerance=float(clip_tol[i]),
            mass=float(mass[i]),
            transform_deviation=float(dev[i]),
        )
        for i, n in enumerate(levels)
    ]

    accepted = True
    reason = None
    for rec in records:
        if not rec.psd_positive:
            accepted = False
            reason = f"PSD check failed at cutoff level {rec.level}"
        elif rec.density_min < -rec.density_clip_tolerance:
            accepted = False
            reason = f"density negativity beyond tolerance at level {rec.level}"
    if phi0.real <= 0.0 or abs(phi0.imag) > tol * abs(phi0):
        accepted = False
        reason = f"phi(0) = {phi0} is not real and positive"

    limit = None
    recon_err = float("inf")
    if accepted:
        n1, n2 = levels[-2], levels[-1]
        ratio = q ** (n2 - n1)
        lim = (dens[-1] - ratio * dens[-2]) / (1.0 - ratio)
        lim_scale = max(float(np.abs(lim).max()), 1e-300)
        if float(lim.min()) < -tol * lim_scale * 10.0:
            accepted = False
            reason = "limit density negative beyond strict tolerance"
        else:
            limit = QMeasure(lat, np.clip(lim, 0.0, None))
            recon = measure_fourier_transform(limit, table)
            recon_err = float(np.abs(c * recon.values[sl] - norm_phi[sl]).max())
    return BochnerReport(
        cutoff_levels=list(levels),
        levels=records,
        limit_measure=limit,
        reconstruction_error=recon_err,
        normalization=phi0,
        accepted=accepted,
        rejection_reason=reason,
    )
