"""Registry-driven verification suite.

Every analytic identity the library implements is registered once under a
stable statement id.  Each check reports a measured error, the tolerance it
was held to, and a pass/fail/skip status; failures carry a command line that
reruns just that check.
"""
from __future__ import annotations

import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .qlattice import QLattice, QParams
from .transform import (
    TransformTable,
    _at_zero,
    _hankel_form,
    _inversion_errors,
    _l1_bounds,
    _orthogonality_values,
    _plancherel_errors,
    _transform_rows,
    build_transform_table,
    fourier_transform,
    interior_slice,
)
from .bessel import bessel_bound_envelope
from .operators import (
    _all_translations,
    _direct_convolution,
    _gauss_limit_integrals,
    _spectral_convolution,
    _young_report,
    gauss_kernel_function,
)
from .positivity import (
    DEFAULT_PSD_TOL,
    QMeasure,
    _grid_sweep,
    _quadratic_forms,
    _spectral_verdict,
    _spectrum_extremes,
    _spectrum_masses,
    bochner_reconstruct,
    measure_product_identity_error,
    wiener_membership,
)
from .testfunctions import (
    draw_stacks,
    gaussian_density,
    nonneg_density,
    random_compact,
    random_measure_weights,
)

_SEED = 12345
# Thm2's (p, p') pairs: r = 2, 2 and about 1.0202, each admissible
_THM2_EXPONENTS = ((4.0 / 3.0, 4.0 / 3.0), (1.2, 1.5), (1.01, 1.01))


class VerificationEntry(NamedTuple):
    statement_id: str
    status: str  # pass | fail | skip
    measured_error: float
    tolerance: float
    runtime_ms: float  # wall time of the check, rounded to 0.001 ms
    detail: str = ""
    repro: Optional[str] = None


class VerificationSuiteResult(NamedTuple):
    q: float
    v: float
    n_min: int
    n_max: int
    entries: List[VerificationEntry]

    @property
    def all_ok(self) -> bool:
        return all(e.status in ("pass", "skip") for e in self.entries)


def _psd_defect(verdicts) -> float:
    """Largest -lambda_min / scale over PSD verdicts, or 0 when none is negative."""
    return max([0.0] + [-v.min_eigenvalue / v.scale for v in verdicts])


def _prop4_kernel_route(draws: np.ndarray, xs, table: TransformTable) -> np.ndarray:
    """(X, K, N) stack of int f_k(z) D_v(x, y, z) z^{2v+1} d_qz, the kernel
    route of :func:`operators.translation_via_kernel`, for each row f_k of
    `draws` at each x of `xs`, summed over the z where some draw is nonzero:
    one (X, Z, N) Hankel form for the D_v rows of those z (D_v is symmetric
    in y and z).  Only zero terms are left out; every other term is kept
    and no product is reassociated."""
    params = table.params
    indices = table.lattice.indices
    zs = np.flatnonzero(np.any(draws != 0, axis=0))
    core = _hankel_form(
        table.rows(indices[zs]), table.weights * table.rows(xs), table.rows(indices)
    )
    core *= params.c_qv ** 2 * (1.0 - params.q)
    weighted = table.weights * draws * (1.0 - params.q)
    return weighted[:, zs] @ core


CheckFn = Callable[[TransformTable], Tuple[float, str]]


def _registry() -> List[Tuple[str, float, CheckFn]]:
    """(statement_id, default tolerance, check) triples.

    Each check returns (measured_error, detail); pass means
    measured_error <= tolerance.
    """

    # Statements that draw several functions evaluate them as one (K, N)
    # stack, one draw per row, with the rng calls of the per-draw generators
    # in the same order; each stage runs once on the stack through the
    # private core of the one-function checker.

    def prop1(table: TransformTable) -> Tuple[float, str]:
        ns = list(range(-5, 6))
        values, targets = _orthogonality_values(ns, ns, table)
        norms = np.diag(targets)
        rel = np.abs(values - targets) / np.maximum.outer(norms, norms)
        i, j = np.unravel_index(int(np.argmax(rel)), rel.shape)
        worst = float(rel[i, j])
        return worst, f"worst at (n,m)=({ns[i]},{ns[j]})" if worst > 0.0 else ""

    def prop2(table: TransformTable) -> Tuple[float, str]:
        lat = table.lattice
        ms = np.arange(2 * lat.n_min, 2 * lat.n_max + 1)
        env = bessel_bound_envelope(table.params, ms)
        excess = float((np.abs(table.bessel_values) - env).max())
        return max(excess, 0.0), "max |j| - bound over the kernel table"

    def thm1_inv(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED)
        (draws,) = draw_stacks(table.lattice, rng, 20, "compact")
        errors = _inversion_errors(draws, table)[0]
        return float(errors.max()), "20 random compact draws, interior sup error"

    def thm1_plan(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 1)
        (draws,) = draw_stacks(table.lattice, rng, 20, "compact")
        errors = _plancherel_errors(draws, table)[2]
        return float(errors.max()), "20 random compact draws, relative norm error"

    def prop3(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 2)
        (draws,) = draw_stacks(table.lattice, rng, 20, "compact")
        sup, bound = _l1_bounds(draws, table)
        worst = float((sup / bound - 1.0).max())
        return max(worst, 0.0), "max relative excess of sup|Ff| over B ||f||_1"

    def prop4(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 3)
        lat = table.lattice
        (draws,) = draw_stacks(lat, rng, 5, "compact")
        xs = (-2, 0, 2, 5, 8)
        # spectral route: every draw translated to every point in one stack;
        # kernel route: the D-kernel rows of the draws' support for all five
        # points in one stack; both compared at every point of the window
        spectral = _all_translations(draws, xs, table)
        by_kernel = _prop4_kernel_route(draws, xs, table)
        dev = np.abs(np.moveaxis(spectral, -1, 0) - by_kernel).max(axis=-1)
        scales = np.maximum(np.abs(draws).max(axis=1), 1e-300)
        worst = float((dev / scales).max())
        return worst, "spectral vs kernel translation on 5 draws x 5 points"

    def prop5(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 4)
        lat = table.lattice
        fs, gs = draw_stacks(lat, rng, 5, "compact", "compact")
        spectral = _spectral_convolution(fs, gs, table)[0]
        sl = interior_slice(lat)
        worst = 0.0
        # the direct double sum, one pair at a time, translates f to the
        # interior points only, on the rows where g is nonzero: the other
        # terms are zero
        for f, g, spec in zip(fs, gs, spectral):
            direct = _direct_convolution(f, g, lat.indices[sl], table, np.flatnonzero(g))
            scale = max(float(np.abs(spec).max()), 1e-300)
            worst = max(worst, float(np.abs(spec[sl] - direct).max()) / scale)
        return worst, "spectral vs direct convolution, 5 pairs, interior"

    def prop6_kernel(table: TransformTable) -> Tuple[float, str]:
        gauss_in = gaussian_density(table)
        ff = fourier_transform(gauss_in, table)
        target = gauss_kernel_function(1.0, table.params, table.lattice)
        sl = interior_slice(table.lattice, 0.8)
        dev = float(np.abs(ff.values[sl] - target.values[sl]).max())
        return dev, "F of the q-Gaussian against the closed-form kernel"

    def prop6_limit(table: TransformTable) -> Tuple[float, str]:
        q = table.params.q
        points = table.lattice.points
        # bounded test functions, each with f(0) = 1
        tests = np.stack(
            [np.ones(points.size), (points <= 1.0) * 1.0, (points <= q ** -3) * 1.0]
        )
        # the measured error is the deviation from f(0) at a = q^10
        integrals = _gauss_limit_integrals(tests, [q ** 10], table)[:, -1]
        worst = float(np.abs(integrals - 1.0).max())
        return worst, "delta limit at a=q^10 for bounded test functions"

    def thm2(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 5)
        f = random_compact(table.lattice, rng)
        g = random_compact(table.lattice, rng)
        conv = _spectral_convolution(f.values, g.values, table)[0]
        bad = 0.0
        for p, pp in _THM2_EXPONENTS:
            rep = _young_report(conv, p, pp, table)
            if not rep.finite:
                bad = float("inf")
        return bad, "||f*g||_r finite for admissible exponent triples"

    def def1(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 6)
        # phi = F(nonnegative density): positive type by construction
        (rho,) = draw_stacks(table.lattice, rng, 5, "nonneg")
        spectra = _transform_rows(_transform_rows(rho, table), table)
        worst = _psd_defect(_spectral_verdict(spectra, None, table, DEFAULT_PSD_TOL))
        return worst, "Gram PSD defect for 5 transform-of-density functions"

    def prop7(table: TransformTable) -> Tuple[float, str]:
        # phi = (F sigma)^2 with sigma >= 0 is positive type (its transform
        # is sigma * sigma >= 0) and nonnegative, so F phi is positive type
        # as well; a bare F sigma can have a signed transform image
        rng = np.random.default_rng(_SEED + 7)
        (sigma,) = draw_stacks(table.lattice, rng, 3, "nonneg")
        phi = _transform_rows(sigma, table) ** 2
        spectra = _transform_rows(_transform_rows(phi, table), table)
        worst = _psd_defect(v for r in _grid_sweep(spectra, table, DEFAULT_PSD_TOL) for v in r.verdicts)
        return worst, "PSD defect of Gram matrices of F phi"

    def prop8(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 8)
        rho, fs = draw_stacks(table.lattice, rng, 5, "nonneg", "compact")
        value, scale = _quadratic_forms(_transform_rows(rho, table), fs, table)
        worst = max(0.0, float((-value.real / scale).max()))
        return worst, "negativity defect of <phi*f, f>"

    def cor1(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 9)
        (rho,) = draw_stacks(table.lattice, rng, 5, "nonneg")
        low, sup = _spectrum_extremes(_transform_rows(rho, table), table)
        worst = max(0.0, float((-low / np.maximum(sup, 1e-300)).max()))
        return worst, "negativity defect of F phi"

    def prop9(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 10)
        (rho,) = draw_stacks(table.lattice, rng, 5, "nonneg")
        phi_at_zero = _at_zero(table.weights * rho, table)
        errors = _spectrum_masses(_transform_rows(rho, table), phi_at_zero, table)[2]
        return float(errors.max()), "mass of F phi against phi(0)"

    def cor2(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 11)
        phi = fourier_transform(nonneg_density(table.lattice, rng), table)
        xi = fourier_transform(phi, table)
        rep = wiener_membership(xi, table)
        neg = max(0.0, -float(xi.values.real.min()) / max(float(np.abs(xi.values).max()), 1e-300))
        if not rep.consistent:
            neg = float("inf")
        return neg, "xi = F phi is nonnegative and Wiener-algebra consistent"

    def prop10(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 12)
        rho, fs = draw_stacks(table.lattice, rng, 3, "nonneg", "nonneg")
        products = _transform_rows(rho, table) * _transform_rows(fs, table)
        spectra = _transform_rows(products, table)
        worst = _psd_defect(v for r in _grid_sweep(spectra, table, DEFAULT_PSD_TOL) for v in r.verdicts)
        return worst, "PSD defect of phi . F(f) for nonnegative f"

    def cor3(table: TransformTable) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 13)
        rho1, rho2 = draw_stacks(table.lattice, rng, 3, "nonneg", "nonneg")
        products = _transform_rows(rho1, table) * _transform_rows(rho2, table)
        spectra = _transform_rows(products, table)
        worst = _psd_defect(_spectral_verdict(spectra, None, table, DEFAULT_PSD_TOL))
        return worst, "PSD defect of products of positive-type functions"

    def s3_product(table: TransformTable) -> Tuple[float, str]:
        # measures keep their mass at exponents >= -2: further out the
        # x^{2v+2} weight amplifies sub-noise kernel values beyond what
        # double precision can certify
        rng = np.random.default_rng(_SEED + 14)
        worst = 0.0
        for _ in range(2):
            xi = QMeasure(table.lattice, random_measure_weights(table.lattice, rng))
            rho = QMeasure(table.lattice, random_measure_weights(table.lattice, rng))
            worst = max(worst, measure_product_identity_error(xi, rho, table))
        return worst, "F(xi * rho) against F(xi) F(rho)"

    def thm4(table: TransformTable) -> Tuple[float, str]:
        rho = gaussian_density(table, width_exp=1)
        phi = fourier_transform(rho, table)
        rep = bochner_reconstruct(phi, range(1, 11), table)
        if not rep.accepted:
            return float("inf"), rep.rejection_reason or "pipeline rejected"
        # the pipeline normalizes phi(0) to 1; the recovered weights are the
        # density divided by phi(0), so scale back before comparing
        sl = interior_slice(table.lattice)
        scale = complex(rep.normalization).real
        recon = rep.limit_measure.weights * scale
        dev = float(np.abs(recon[sl] - rho.values[sl]).max())
        return dev, "round-trip recovery of a q-Gaussian density"

    return [
        ("Prop1", 1e-8, prop1),
        ("Prop2", 1e-9, prop2),
        ("Thm1-inversion", 1e-8, thm1_inv),
        ("Thm1-plancherel", 1e-8, thm1_plan),
        ("Prop3", 1e-9, prop3),
        ("Prop4", 1e-8, prop4),
        ("Prop5", 1e-8, prop5),
        ("Prop6-kernel", 1e-8, prop6_kernel),
        ("Prop6-limit", 1e-6, prop6_limit),
        ("Thm2", 1e-8, thm2),
        ("Def1", 1e-9, def1),
        ("Prop7", 1e-9, prop7),
        ("Prop8", 1e-9, prop8),
        ("Cor1", 1e-9, cor1),
        ("Prop9", 1e-7, prop9),
        ("Cor2", 1e-9, cor2),
        ("Prop10", 1e-9, prop10),
        ("Cor3", 1e-9, cor3),
        ("S3-product", 1e-8, s3_product),
        ("Thm4-roundtrip", 1e-6, thm4),
    ]


def statement_ids() -> List[str]:
    return [sid for sid, _, _ in _registry()]


def run_suite(
    params: QParams,
    lattice: QLattice,
    tol: Optional[float] = None,
    only: Optional[Sequence[str]] = None,
) -> VerificationSuiteResult:
    """Run every registered check (or the `only` subset) on one window.

    `tol` overrides each check's default tolerance when given; checks not in
    `only` are reported as skipped so the registry is always fully listed.
    """
    table = build_transform_table(params, lattice)
    wanted = set(only) if only is not None else None
    # numpy imports numpy.random lazily (about 13 ms): pay it before the
    # first drawing check's clock starts, not at `import qharm`
    import numpy.random  # noqa: F401
    if wanted is not None:
        unknown = wanted - set(statement_ids())
        if unknown:
            raise ValueError(f"unknown statement ids: {sorted(unknown)}")
    entries: List[VerificationEntry] = []
    for sid, default_tol, check in _registry():
        if wanted is not None and sid not in wanted:
            entries.append(
                VerificationEntry(sid, "skip", 0.0, default_tol, 0.0, "not selected")
            )
            continue
        use_tol = default_tol if tol is None else tol
        t0 = time.perf_counter()
        try:
            err, detail = check(table)
        except Exception as exc:  # a crash is a failure with infinite error
            err, detail = float("inf"), f"exception: {exc!r}"
        ms = round((time.perf_counter() - t0) * 1000.0, 3)
        status = "pass" if err <= use_tol else "fail"
        repro = None
        if status == "fail":
            repro = (
                f"qharm verify --q {params.q} --v {params.v} "
                f"--nmin {lattice.n_min} --nmax {lattice.n_max} --only {sid}"
            )
        entries.append(VerificationEntry(sid, status, err, use_tol, ms, detail, repro))
    return VerificationSuiteResult(
        q=params.q, v=params.v, n_min=lattice.n_min, n_max=lattice.n_max, entries=entries
    )
