"""Registry-driven verification suite.

Every analytic identity the library implements is registered once under a
stable statement id.  Each check reports a measured error, the tolerance it
was held to, and a pass/fail/skip status; failures carry a command line that
reruns just that check.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .qlattice import LatticeFunction, QLattice, QParams
from .transform import (
    TransformTable,
    build_transform_table,
    fourier_transform,
    interior_slice,
    verify_inversion,
    verify_l1_bound,
    verify_orthogonality,
    verify_plancherel,
)
from .bessel import bessel_bound_envelope
from .operators import (
    convolution,
    gauss_kernel_function,
    gauss_delta_limit_check,
    translation,
    translation_kernel_matrix,
    young_inequality_check,
)
from .positivity import (
    QMeasure,
    bochner_reconstruct,
    is_q_positive_type,
    measure_product_identity_error,
    product_positive_type_check,
    verify_l1_spectrum_mass,
    verify_nonneg_spectrum,
    verify_quadratic_form_positivity,
    verify_transform_positive_type,
    wiener_membership,
)
from .testfunctions import gaussian_density, nonneg_density, random_compact, random_measure_weights

_SEED = 12345


@dataclass(frozen=True)
class VerificationEntry:
    statement_id: str
    status: str  # pass | fail | skip
    measured_error: float
    tolerance: float
    runtime_ms: float  # wall time of the check, rounded to 0.001 ms
    detail: str = ""
    repro: Optional[str] = None


@dataclass
class VerificationSuiteResult:
    q: float
    v: float
    n_min: int
    n_max: int
    entries: List[VerificationEntry]

    @property
    def all_ok(self) -> bool:
        return all(e.status in ("pass", "skip") for e in self.entries)


def _positive_type_function(
    table: TransformTable, rng: np.random.Generator
) -> LatticeFunction:
    """phi = F(nonnegative density): positive type by construction."""
    rho = nonneg_density(table.lattice, rng)
    return fourier_transform(rho, table)


CheckFn = Callable[[TransformTable, float], Tuple[float, str]]


def _registry() -> List[Tuple[str, float, CheckFn]]:
    """(statement_id, default tolerance, check) triples.

    Each check returns (measured_error, detail); pass means
    measured_error <= tolerance.
    """

    def prop1(table: TransformTable, tol: float) -> Tuple[float, str]:
        worst = 0.0
        detail = ""
        for n in range(-5, 6):
            diag = table.params.q ** (-2.0 * n * (table.params.v + 1.0)) / (
                1.0 - table.params.q
            )
            for m in range(-5, 6):
                rep = verify_orthogonality(n, m, table)
                scale = diag if n == m else max(
                    diag, table.params.q ** (-2.0 * m * (table.params.v + 1.0)) / (1.0 - table.params.q)
                )
                rel = rep.error / scale
                if rel > worst:
                    worst, detail = rel, f"worst at (n,m)=({n},{m})"
        return worst, detail

    def prop2(table: TransformTable, tol: float) -> Tuple[float, str]:
        lat = table.lattice
        ms = np.arange(2 * lat.n_min, 2 * lat.n_max + 1)
        env = bessel_bound_envelope(table.params, ms)
        excess = float((np.abs(table.bessel_values) - env).max())
        return max(excess, 0.0), "max |j| - bound over the kernel table"

    def thm1_inv(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED)
        worst = 0.0
        for _ in range(20):
            rep = verify_inversion(random_compact(table.lattice, rng), table)
            worst = max(worst, rep.max_interior_error)
        return worst, "20 random compact draws, interior sup error"

    def thm1_plan(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 1)
        worst = 0.0
        for _ in range(20):
            rep = verify_plancherel(random_compact(table.lattice, rng), table)
            worst = max(worst, rep.error)
        return worst, "20 random compact draws, relative norm error"

    def prop3(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 2)
        worst = 0.0
        for _ in range(20):
            rep = verify_l1_bound(random_compact(table.lattice, rng), table)
            worst = max(worst, rep.sup_transform / rep.bound - 1.0)
        return max(worst, 0.0), "max relative excess of sup|Ff| over B ||f||_1"

    def prop4(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 3)
        lat = table.lattice
        draws = [random_compact(lat, rng) for _ in range(5)]
        values = np.stack([f.values for f in draws], axis=1)
        scales = np.maximum(np.abs(values).max(axis=0), 1e-300)
        worst = 0.0
        for x in (-2, 0, 2, 5, 8):
            core = translation_kernel_matrix(x, lat.indices, table)
            by_kernel = core @ (table.weights[:, None] * values) * (1.0 - table.params.q)
            for j, f in enumerate(draws):
                spectral = translation(f, x, table).values
                dev = np.abs(spectral - by_kernel[:, j]).max()
                worst = max(worst, float(dev / scales[j]))
        return worst, "spectral vs kernel translation on 5 draws x 5 points"

    def prop5(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 4)
        worst = 0.0
        sl = interior_slice(table.lattice)
        for _ in range(5):
            f = random_compact(table.lattice, rng)
            g = random_compact(table.lattice, rng)
            spec = convolution(f, g, table, route="spectral")
            direct = convolution(f, g, table, route="direct")
            scale = max(float(np.abs(spec.values).max()), 1e-300)
            worst = max(
                worst, float(np.abs(spec.values[sl] - direct.values[sl]).max()) / scale
            )
        return worst, "spectral vs direct convolution, 5 pairs, interior"

    def prop6_kernel(table: TransformTable, tol: float) -> Tuple[float, str]:
        gauss_in = gaussian_density(table)
        ff = fourier_transform(gauss_in, table)
        target = gauss_kernel_function(1.0, table.params, table.lattice)
        sl = interior_slice(table.lattice, 0.8)
        dev = float(np.abs(ff.values[sl] - target.values[sl]).max())
        return dev, "F of the q-Gaussian against the closed-form kernel"

    def prop6_limit(table: TransformTable, tol: float) -> Tuple[float, str]:
        q = table.params.q
        lat = table.lattice
        tests = [
            LatticeFunction(lat, np.ones(lat.size), value_at_zero=1.0),
            LatticeFunction(
                lat, (lat.points <= 1.0).astype(float), value_at_zero=1.0
            ),
            LatticeFunction(
                lat, (lat.points <= q ** -3).astype(float), value_at_zero=1.0
            ),
        ]
        # the measured error is each report's final_deviation, at a = q^10
        a_seq = [q ** 10]
        worst = 0.0
        for f in tests:
            rep = gauss_delta_limit_check(f, a_seq, table)
            worst = max(worst, rep.final_deviation)
        return worst, "delta limit at a=q^10 for bounded test functions"

    def thm2(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 5)
        f = random_compact(table.lattice, rng)
        g = random_compact(table.lattice, rng)
        bad = 0.0
        for p, pp in ((4.0 / 3.0, 4.0 / 3.0), (1.2, 1.5), (2.0, 1.01)):
            try:
                rep = young_inequality_check(f, g, p, pp, table)
            except ValueError:
                continue
            if not rep.finite:
                bad = float("inf")
        return bad, "||f*g||_r finite for admissible exponent triples"

    def def1(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 6)
        worst = 0.0
        for _ in range(5):
            phi = _positive_type_function(table, rng)
            v = is_q_positive_type(phi, None, table, tol)
            worst = max(worst, max(0.0, -v.min_eigenvalue / v.scale))
        return worst, "Gram PSD defect for 5 transform-of-density functions"

    def prop7(table: TransformTable, tol: float) -> Tuple[float, str]:
        # phi = (F sigma)^2 with sigma >= 0 is positive type (its transform
        # is sigma * sigma >= 0) and nonnegative, so F phi is positive type
        # as well; a bare F sigma can have a signed transform image
        rng = np.random.default_rng(_SEED + 7)
        worst = 0.0
        for _ in range(3):
            sigma = nonneg_density(table.lattice, rng)
            u = fourier_transform(sigma, table)
            phi = LatticeFunction(
                table.lattice,
                u.values ** 2,
                value_at_zero=complex(u.value_at_zero) ** 2,
            )
            rep = verify_transform_positive_type(phi, table, tol)
            for v in rep.verdicts:
                worst = max(worst, max(0.0, -v.min_eigenvalue / v.scale))
        return worst, "PSD defect of Gram matrices of F phi"

    def prop8(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 8)
        worst = 0.0
        for _ in range(5):
            phi = _positive_type_function(table, rng)
            f = random_compact(table.lattice, rng)
            rep = verify_quadratic_form_positivity(phi, f, table, tol)
            worst = max(worst, max(0.0, -rep.value.real / rep.scale))
        return worst, "negativity defect of <phi*f, f>"

    def cor1(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 9)
        worst = 0.0
        for _ in range(5):
            phi = _positive_type_function(table, rng)
            rep = verify_nonneg_spectrum(phi, table, tol)
            worst = max(worst, max(0.0, -rep.min_value / max(rep.sup_value, 1e-300)))
        return worst, "negativity defect of F phi"

    def prop9(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 10)
        worst = 0.0
        for _ in range(5):
            rho = nonneg_density(table.lattice, rng)
            phi = fourier_transform(rho, table)
            rep = verify_l1_spectrum_mass(phi, table)
            worst = max(worst, rep.max_relative_error)
        return worst, "mass of F phi against phi(0)"

    def cor2(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 11)
        phi = _positive_type_function(table, rng)
        xi = fourier_transform(phi, table)
        rep = wiener_membership(xi, table)
        neg = max(0.0, -float(xi.values.real.min()) / max(float(np.abs(xi.values).max()), 1e-300))
        if not rep.consistent:
            neg = float("inf")
        return neg, "xi = F phi is nonnegative and Wiener-algebra consistent"

    def prop10(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 12)
        worst = 0.0
        for _ in range(3):
            phi = _positive_type_function(table, rng)
            f = nonneg_density(table.lattice, rng)
            rep = product_positive_type_check(phi, f, table, tol)
            for v in rep.verdicts:
                worst = max(worst, max(0.0, -v.min_eigenvalue / v.scale))
        return worst, "PSD defect of phi . F(f) for nonnegative f"

    def cor3(table: TransformTable, tol: float) -> Tuple[float, str]:
        rng = np.random.default_rng(_SEED + 13)
        worst = 0.0
        for _ in range(3):
            p1 = _positive_type_function(table, rng)
            p2 = _positive_type_function(table, rng)
            prod = LatticeFunction(table.lattice, p1.values * p2.values)
            v = is_q_positive_type(prod, None, table, tol)
            worst = max(worst, max(0.0, -v.min_eigenvalue / v.scale))
        return worst, "PSD defect of products of positive-type functions"

    def s3_product(table: TransformTable, tol: float) -> Tuple[float, str]:
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

    def thm4(table: TransformTable, tol: float) -> Tuple[float, str]:
        rho = gaussian_density(table, width_exp=1)
        phi = fourier_transform(rho, table)
        phi = LatticeFunction(
            table.lattice, phi.values, value_at_zero=phi.value_at_zero
        )
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
            err, detail = check(table, use_tol)
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
