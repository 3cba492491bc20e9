"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Regimes: q in {0.5, 0.9}, v in {0, 1.5}, double precision, windows as in
conftest.REGIMES.  Randomized criteria use fixed seeds so the gate is
deterministic.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qharm import (
    LatticeFunction,
    QLattice,
    QMeasure,
    QParams,
    bessel_bound_envelope,
    fourier_transform,
    gauss_delta_limit_check,
    gauss_kernel,
    gauss_kernel_function,
    hahn_exton_jv,
    is_q_positive_type,
    lattice_jv_table,
    measure_product_identity_error,
    q_exponential,
    q_pochhammer_infinite,
    qv_membership_probe,
    report_to_json,
    translation,
    translation_via_kernel,
    verify_inversion,
    verify_l1_bound,
    verify_l1_spectrum_mass,
    verify_nonneg_spectrum,
    verify_orthogonality,
    verify_plancherel,
)
from qharm.operators import convolution
from qharm.positivity import bochner_reconstruct, measure_fourier_transform
from qharm.transform import interior_slice
from qharm.testfunctions import (
    gaussian_density,
    nonneg_density,
    random_compact,
    random_measure_weights,
)

from conftest import REGIMES, get_table


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_orthogonality():
    t0 = time.perf_counter()
    worst = 0.0
    for regime in REGIMES:
        table = get_table(*regime)
        params = table.params
        for n in range(-5, 6):
            diag_n = params.q ** (-2.0 * n * (params.v + 1.0)) / (1.0 - params.q)
            for m in range(-5, 6):
                rep = verify_orthogonality(n, m, table)
                if n == m:
                    worst = max(worst, abs(rep.error) / rep.target)
                else:
                    diag_m = params.q ** (-2.0 * m * (params.v + 1.0)) / (
                        1.0 - params.q
                    )
                    worst = max(worst, rep.error / max(diag_n, diag_m))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _report(
        1,
        "kernel orthogonality",
        ok,
        f"max relative deviation {worst:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_bessel_bound():
    worst = 0.0
    for q, v, _, _ in REGIMES:
        params = QParams(q=q, v=v)
        ms = np.arange(-20, 61)
        tab = lattice_jv_table(params, -20, 60)
        env = bessel_bound_envelope(params, ms)
        worst = max(worst, float((np.abs(tab) - env).max()))
    ok = worst <= 1e-9
    _report(2, "Bessel decay bound", ok, f"max excess over bound {worst:.3e}")


def test_criterion_03_inversion_and_plancherel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_inv = 0.0
    worst_plan = 0.0
    for regime in REGIMES:
        table = get_table(*regime)
        for _ in range(25):
            f = random_compact(table.lattice, rng)
            worst_inv = max(worst_inv, verify_inversion(f, table).max_interior_error)
            worst_plan = max(worst_plan, verify_plancherel(f, table).error)
    elapsed = time.perf_counter() - t0
    ok = worst_inv < 1e-8 and worst_plan < 1e-8 and elapsed < 30.0
    _report(
        3,
        "inversion and Plancherel",
        ok,
        f"100 draws: interior sup {worst_inv:.3e}, norm dev {worst_plan:.3e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_04_transform_bound():
    rng = np.random.default_rng(2024)  # the same 100 draws as criterion 3
    worst = 0.0
    for regime in REGIMES:
        table = get_table(*regime)
        for _ in range(25):
            rep = verify_l1_bound(random_compact(table.lattice, rng), table)
            worst = max(worst, rep.sup_transform / rep.bound - 1.0)
    ok = worst <= 1e-9
    _report(
        4,
        "sup-norm bound of the transform",
        ok,
        f"max relative excess over B ||f||_1: {worst:.3e}",
    )


def test_criterion_05_translation_routes():
    rng = np.random.default_rng(31)
    points = [-2, 0, 2, 5, 8]
    worst = 0.0
    for regime in REGIMES:
        table = get_table(*regime)
        for _ in range(5):  # 5 per regime, 20 functions total
            f = random_compact(table.lattice, rng)
            scale = max(float(np.abs(f.values).max()), 1e-300)
            for x in points:
                a = translation(f, x, table)
                b = translation_via_kernel(f, x, table)
                worst = max(worst, float(np.abs(a.values - b.values).max()) / scale)
    ok = worst < 1e-8
    _report(
        5,
        "translation route equivalence",
        ok,
        f"20 functions x 5 points, max deviation {worst:.3e}",
    )


def test_criterion_06_convolution_and_measure_product():
    rng = np.random.default_rng(47)
    worst_conv = 0.0
    worst_meas = 0.0
    for regime in REGIMES:
        table = get_table(*regime)
        sl = interior_slice(table.lattice)
        for _ in range(5):  # 5 pairs per regime, 20 pairs total
            f = random_compact(table.lattice, rng)
            g = random_compact(table.lattice, rng)
            spec = convolution(f, g, table, route="spectral")
            direct = convolution(f, g, table, route="direct")
            scale = max(float(np.abs(spec.values).max()), 1e-300)
            worst_conv = max(
                worst_conv,
                float(np.abs(spec.values[sl] - direct.values[sl]).max()) / scale,
            )
        for _ in range(2):
            xi = QMeasure(table.lattice, random_measure_weights(table.lattice, rng))
            rho = QMeasure(table.lattice, random_measure_weights(table.lattice, rng))
            worst_meas = max(
                worst_meas, measure_product_identity_error(xi, rho, table)
            )
    ok = worst_conv < 1e-8 and worst_meas < 1e-8
    _report(
        6,
        "convolution factorization",
        ok,
        f"route deviation {worst_conv:.3e}, measure identity {worst_meas:.3e}",
    )


def test_criterion_07_gauss_kernel_and_delta_limit():
    worst_kernel = 0.0
    worst_limit = 0.0
    for regime in REGIMES:
        table = get_table(*regime)
        params, lat = table.params, table.lattice
        q = params.q
        ff = fourier_transform(gaussian_density(table, width_exp=0), table)
        target = gauss_kernel_function(1.0, params, lat)
        worst_kernel = max(
            worst_kernel, float(np.abs(ff.values - target.values).max())
        )
        # five bounded test functions per regime; width-q^4 q-Gaussian decay
        # is only fast enough relative to a = q^10 when q is small, so the
        # q = 0.9 battery uses a third indicator instead
        tests = [
            LatticeFunction(lat, np.ones(lat.size), value_at_zero=1.0),
            LatticeFunction(lat, 0.5 * np.ones(lat.size), value_at_zero=0.5),
            LatticeFunction(lat, (lat.points <= 1.0).astype(float), value_at_zero=1.0),
            LatticeFunction(
                lat, (lat.points <= q ** -3).astype(float), value_at_zero=1.0
            ),
        ]
        if q <= 0.5:
            gauss_vals = np.array(
                [q_exponential(-(q ** 4) * x * x, q * q).real for x in lat.points]
            )
            tests.append(LatticeFunction(lat, gauss_vals, value_at_zero=1.0))
        else:
            tests.append(
                LatticeFunction(
                    lat, (lat.points <= q ** -1).astype(float), value_at_zero=1.0
                )
            )
        for f in tests:
            rep = gauss_delta_limit_check(f, [q ** 10], table)
            worst_limit = max(worst_limit, rep.final_deviation)
    ok = worst_kernel < 1e-8 and worst_limit < 1e-6
    _report(
        7,
        "Gauss kernel and delta limit",
        ok,
        f"kernel match {worst_kernel:.3e}, delta limit at a=q^10 {worst_limit:.3e}",
    )


def test_criterion_08_positive_type_battery():
    rng = np.random.default_rng(83)
    worst_gram = 0.0
    worst_spec = 0.0
    worst_mass = 0.0
    worst_prod = 0.0
    pairs_checked = 0
    counts = (13, 13, 12, 12)  # 50 functions across the four regimes
    for regime, count in zip(REGIMES, counts):
        table = get_table(*regime)
        phis = []
        for _ in range(count):
            rho = nonneg_density(table.lattice, rng)
            phi = fourier_transform(rho, table)
            phis.append(phi)
            v = is_q_positive_type(phi, None, table)
            worst_gram = max(worst_gram, -v.min_eigenvalue / v.scale)
            srep = verify_nonneg_spectrum(phi, table)
            worst_spec = max(
                worst_spec, -srep.min_value / max(srep.sup_value, 1e-300)
            )
            worst_mass = max(
                worst_mass, verify_l1_spectrum_mass(phi, table).max_relative_error
            )
        for a, b in zip(phis[:-1:2], phis[1::2]):
            prod = LatticeFunction(table.lattice, a.values * b.values)
            v = is_q_positive_type(prod, None, table)
            worst_prod = max(worst_prod, -v.min_eigenvalue / v.scale)
            pairs_checked += 1
    ok = (
        worst_gram <= 1e-9
        and worst_spec <= 1e-9
        and worst_mass < 1e-7
        and worst_prod <= 1e-9
        and pairs_checked >= 24
    )
    _report(
        8,
        "positive-type battery",
        ok,
        f"50 functions: Gram defect {worst_gram:.3e}, spectrum defect "
        f"{worst_spec:.3e}, mass error {worst_mass:.3e}, "
        f"{pairs_checked} product pairs defect {worst_prod:.3e}",
    )


def _bochner_densities(table):
    """Gaussian-type, indicator and point-mass densities on the window."""
    lat = table.lattice
    out = [gaussian_density(table, width_exp=w) for w in (0, 1, 2)]
    # compactly supported densities keep their support at small exponents:
    # zeroing the cutoff phi_n below exponent -n discards terms of size
    # q^{(n - k)^2} for a density reaching exponent k, and that error is only
    # negligible against the geometric limit extraction when n - k is large
    ind = np.where((lat.indices >= 0) & (lat.indices <= 3), 1.0, 0.0)
    out.append(LatticeFunction(lat, ind))
    point = np.zeros(lat.size)
    point[lat.index_of(2)] = 1.0
    out.append(LatticeFunction(lat, point))
    return out


def test_criterion_09_bochner_roundtrip():
    t0 = time.perf_counter()
    worst_mass = 0.0
    worst_recon = 0.0
    total = 0
    for regime in ((0.5, 0.0, -20, 60), (0.5, 1.5, -20, 60)):
        table = get_table(*regime)
        c = table.params.c_qv
        sl = interior_slice(table.lattice)
        for rho in _bochner_densities(table):
            phi = fourier_transform(rho, table)
            rep = bochner_reconstruct(phi, range(1, 11), table)
            assert rep.accepted, rep.rejection_reason
            assert all(lev.psd_positive for lev in rep.levels)
            mass = c * measure_fourier_transform(rep.limit_measure, table).value_at_zero
            worst_mass = max(worst_mass, abs(mass - 1.0))  # phi normalized to 1
            scale = complex(rep.normalization).real
            recon = rep.limit_measure.weights * scale
            worst_recon = max(
                worst_recon, float(np.abs(recon[sl] - rho.values[sl]).max())
            )
            total += 1
    elapsed = time.perf_counter() - t0
    ok = total == 10 and worst_mass < 1e-8 and worst_recon < 1e-6 and elapsed < 60.0
    _report(
        9,
        "constructive Bochner round-trip",
        ok,
        f"10 densities: mass deviation {worst_mass:.3e}, interior recovery "
        f"{worst_recon:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_10_positivity_probe():
    params = QParams(q=0.5, v=0.0)
    window = QLattice(0.5, -8, 12)
    rep1 = qv_membership_probe(params, window)
    rep2 = qv_membership_probe(params, window)
    bytes1 = report_to_json(rep1)
    bytes2 = report_to_json(rep2)
    ok = rep1.min_value >= -1e-10 and rep1.witness is None and bytes1 == bytes2
    _report(
        10,
        "kernel positivity window scan",
        ok,
        f"min kernel value {rep1.min_value:.3e}, byte-reproducible: "
        f"{bytes1 == bytes2}",
    )


def test_criterion_11_oracle_agreement():
    pins = json.loads(
        (Path(__file__).parent / "data" / "oracle_pins.json").read_text()
    )
    assert len(pins) == 20
    worst = 0.0
    worst_name = ""
    all_ok = True
    for pin in pins:
        kind, p = pin["kind"], pin["params"]
        if kind == "pochhammer_inf":
            got = q_pochhammer_infinite(p["a"], p["q"]).real
        elif kind == "qexp":
            got = q_exponential(p["z"], p["q"]).real
        elif kind == "jv":
            got = hahn_exton_jv(p["z"], p["p"], p["v"])
        elif kind == "c_qv":
            got = QParams(q=p["q"], v=p["v"]).c_qv
        elif kind == "B_qv":
            got = QParams(q=p["q"], v=p["v"]).B_qv
        elif kind == "gauss":
            got = gauss_kernel(p["x"], p["t"], QParams(q=p["q"], v=p["v"]))
        else:  # pragma: no cover
            raise AssertionError(f"unknown pin kind {kind}")
        target = float(pin["value"])
        rel = abs(got - target) / abs(target)
        tol = 1e-9 if pin["flagged_large_argument"] else 1e-12
        if rel > tol:
            all_ok = False
        if rel > worst:
            worst, worst_name = rel, pin["name"]
    _report(
        11,
        "oracle pin agreement",
        all_ok,
        f"20 pins, worst relative deviation {worst:.3e} at {worst_name}",
    )
