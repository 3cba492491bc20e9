import os
import subprocess
import sys

import numpy as np
import pytest

import qharm

from qharm import QLattice, QParams
from qharm.operators import (
    _all_translations,
    _direct_convolution,
    _gauss_limit_integrals,
    all_translations,
    convolution,
    gauss_delta_limit_check,
    translation,
    translation_kernel_matrix,
    young_inequality_check,
)
from qharm.positivity import (
    QMeasure,
    _measure_operands,
    _spectral_gram,
    default_point_exponents,
    gram_matrix,
    is_q_positive_type,
    measure_convolution,
    measure_fourier_transform,
    measure_product_identity_error,
    product_positive_type_check,
    verify_l1_spectrum_mass,
    verify_nonneg_spectrum,
    verify_quadratic_form_positivity,
    verify_transform_positive_type,
)
from qharm.qlattice import LatticeFunction
from qharm.testfunctions import (
    draw_stacks,
    nonneg_density,
    random_compact,
    random_measure_weights,
)
from qharm.transform import (
    _hankel_form,
    _transform_rows,
    build_transform_table,
    clean_inversion_range,
    fourier_transform,
    interior_slice,
    verify_inversion,
    verify_l1_bound,
    verify_orthogonality,
    verify_plancherel,
)
from qharm.verify import (
    _SEED,
    _THM2_EXPONENTS,
    _prop4_kernel_route,
    _registry,
    run_suite,
)

README_REGIMES = [(0.5, 0.0, -20, 60), (0.9, 1.5, -30, 160)]
_GENERATORS = {"compact": random_compact, "nonneg": nonneg_density}


@pytest.mark.parametrize(
    "q, n_min, n_max", [(0.95, -40, 320), (0.97, -50, 550), (0.99, -120, 1600)]
)
def test_suite_passes_near_q_one(q, n_min, n_max):
    # with the kernel series summed near m = 0 the first two windows failed 3
    # and 11 of the 20 statements; at q = 0.99, [-80, 1600] still fails 6
    result = run_suite(QParams(q, 0.0), QLattice(q, n_min, n_max))
    assert [e.statement_id for e in result.entries if e.status != "pass"] == []
    assert len(result.entries) == 20


@pytest.fixture(scope="module", params=README_REGIMES, ids=["q0.5", "q0.9"])
def regime(request):
    q, v, n_min, n_max = request.param
    params, lattice = QParams(q, v), QLattice(q, n_min, n_max)
    entries = {e.statement_id: e for e in run_suite(params, lattice).entries}
    return build_transform_table(params, lattice), entries


def _per_draw(lattice, seed, count, *kinds):
    """The draws of draw_stacks made one LatticeFunction at a time."""
    rng = np.random.default_rng(seed)
    return [tuple(_GENERATORS[k](lattice, rng) for k in kinds) for _ in range(count)]


def _close(stacked, one, rel=1e-13):
    assert np.shape(stacked) == np.shape(one)
    assert np.abs(stacked - one).max() <= rel * np.abs(one).max()


# Reference measured errors: each restacked statement with its seed and draw
# order, evaluated one draw at a time through the public checkers.


def _ref_prop1(table):
    worst = 0.0
    for n in range(-5, 6):
        for m in range(-5, 6):
            norm = max(
                table.params.q ** (-2.0 * k * (table.params.v + 1.0)) / (1.0 - table.params.q)
                for k in (n, m)
            )
            worst = max(worst, verify_orthogonality(n, m, table).error / norm)
    return worst


def _ref_thm1_inv(table):
    draws = _per_draw(table.lattice, _SEED, 20, "compact")
    return max(verify_inversion(f, table).max_interior_error for (f,) in draws)


def _ref_thm1_plan(table):
    draws = _per_draw(table.lattice, _SEED + 1, 20, "compact")
    return max(verify_plancherel(f, table).error for (f,) in draws)


def _ref_prop3(table):
    draws = _per_draw(table.lattice, _SEED + 2, 20, "compact")
    reps = [verify_l1_bound(f, table) for (f,) in draws]
    return max(0.0, max(r.sup_transform / r.bound - 1.0 for r in reps))


def _ref_prop4(table):
    lat = table.lattice
    worst = 0.0
    for (f,) in _per_draw(lat, _SEED + 3, 5, "compact"):
        for x in (-2, 0, 2, 5, 8):
            core = translation_kernel_matrix(x, lat.indices, table)
            by_kernel = core @ (table.weights * f.values) * (1.0 - table.params.q)
            dev = np.abs(translation(f, x, table).values - by_kernel).max()
            worst = max(worst, dev / np.abs(f.values).max())
    return worst


def _ref_prop5(table):
    sl = interior_slice(table.lattice)
    worst = 0.0
    for f, g in _per_draw(table.lattice, _SEED + 4, 5, "compact", "compact"):
        spec = convolution(f, g, table, route="spectral").values
        direct = convolution(f, g, table, route="direct").values
        worst = max(worst, np.abs(spec[sl] - direct[sl]).max() / np.abs(spec).max())
    return worst


def _ref_prop6_limit(table):
    q, lat = table.params.q, table.lattice
    tests = [np.ones(lat.size), lat.points <= 1.0, lat.points <= q ** -3]
    return max(
        gauss_delta_limit_check(
            LatticeFunction(lat, vals * 1.0, value_at_zero=1.0), [q ** 10], table
        ).final_deviation
        for vals in tests
    )


def _defect(verdicts):
    return max([0.0] + [-v.min_eigenvalue / v.scale for v in verdicts])


def _ref_def1(table):
    draws = _per_draw(table.lattice, _SEED + 6, 5, "nonneg")
    return _defect(
        is_q_positive_type(fourier_transform(rho, table), None, table, 1e-9) for (rho,) in draws
    )


def _ref_prop7(table):
    verdicts = []
    for (sigma,) in _per_draw(table.lattice, _SEED + 7, 3, "nonneg"):
        u = fourier_transform(sigma, table)
        phi = LatticeFunction(table.lattice, u.values ** 2)
        verdicts += verify_transform_positive_type(phi, table, 1e-9).verdicts
    return _defect(verdicts)


def _ref_prop8(table):
    worst = 0.0
    for rho, f in _per_draw(table.lattice, _SEED + 8, 5, "nonneg", "compact"):
        rep = verify_quadratic_form_positivity(fourier_transform(rho, table), f, table, 1e-9)
        worst = max(worst, -rep.value.real / rep.scale)
    return worst


def _ref_cor1(table):
    worst = 0.0
    for (rho,) in _per_draw(table.lattice, _SEED + 9, 5, "nonneg"):
        rep = verify_nonneg_spectrum(fourier_transform(rho, table), table, 1e-9)
        worst = max(worst, -rep.min_value / rep.sup_value)
    return worst


def _ref_prop9(table):
    draws = _per_draw(table.lattice, _SEED + 10, 5, "nonneg")
    return max(
        verify_l1_spectrum_mass(fourier_transform(rho, table), table).max_relative_error
        for (rho,) in draws
    )


def _ref_prop10(table):
    verdicts = []
    for rho, f in _per_draw(table.lattice, _SEED + 12, 3, "nonneg", "nonneg"):
        phi = fourier_transform(rho, table)
        verdicts += product_positive_type_check(phi, f, table, 1e-9).verdicts
    return _defect(verdicts)


def _ref_cor3(table):
    verdicts = []
    for rho1, rho2 in _per_draw(table.lattice, _SEED + 13, 3, "nonneg", "nonneg"):
        prod = fourier_transform(rho1, table).values * fourier_transform(rho2, table).values
        prod_fn = LatticeFunction(table.lattice, prod)
        verdicts.append(is_q_positive_type(prod_fn, None, table, 1e-9))
    return _defect(verdicts)


def _ref_s3_product(table):
    lat, q, w = table.lattice, table.params.q, table.weights
    rng = np.random.default_rng(_SEED + 14)
    lo, hi = clean_inversion_range(lat)
    idx = np.arange(lo, hi + 1)
    worst = 0.0
    for _ in range(2):
        xi = QMeasure(lat, random_measure_weights(lat, rng))
        rho = QMeasure(lat, random_measure_weights(lat, rng))
        f_xi, f_rho = measure_fourier_transform(xi, table), measure_fourier_transform(rho, table)
        for n in idx[:: max(1, len(idx) // 12)]:
            row = table.rows([n])[0]
            lhs = measure_convolution(xi, rho, LatticeFunction(lat, row.copy()), table)
            rhs = f_xi.at_index(int(n)) * f_rho.at_index(int(n))
            scale_xi = (1.0 - q) * np.sum(w * xi.weights * np.abs(row))
            scale_rho = (1.0 - q) * np.sum(w * rho.weights * np.abs(row))
            worst = max(worst, abs(lhs - rhs) / max(1.0, scale_xi * scale_rho))
    return worst


_REFERENCES = {
    "Prop1": _ref_prop1,
    "Thm1-inversion": _ref_thm1_inv,
    "Thm1-plancherel": _ref_thm1_plan,
    "Prop3": _ref_prop3,
    "Prop4": _ref_prop4,
    "Prop5": _ref_prop5,
    "Prop6-limit": _ref_prop6_limit,
    "Def1": _ref_def1,
    "Prop7": _ref_prop7,
    "Prop8": _ref_prop8,
    "Cor1": _ref_cor1,
    "Prop9": _ref_prop9,
    "Prop10": _ref_prop10,
    "Cor3": _ref_cor3,
    "S3-product": _ref_s3_product,
}


@pytest.mark.parametrize("sid", sorted(_REFERENCES))
def test_stacked_error_matches_per_draw(regime, sid):
    table, entries = regime
    tolerance = {s: tol for s, tol, _ in _registry()}[sid]
    entry = entries[sid]
    assert entry.status == "pass"
    assert abs(entry.measured_error - _REFERENCES[sid](table)) <= 1e-3 * tolerance


_DRAW_KINDS = [("compact",), ("nonneg",), ("nonneg", "compact"), ("nonneg", "nonneg")]


def _assert_stacked_draws_equal_per_draw(regime, kinds, count):
    lat = regime[0].lattice
    stacks = draw_stacks(lat, np.random.default_rng(_SEED), count, *kinds)
    for j, draws in enumerate(_per_draw(lat, _SEED, count, *kinds)):
        for stack, f in zip(stacks, draws):
            assert stack[j].tobytes() == f.values.tobytes()


@pytest.mark.parametrize("kinds", _DRAW_KINDS)
def test_stacked_draws_equal_per_draw_generators(regime, kinds):
    _assert_stacked_draws_equal_per_draw(regime, kinds, 6)


@pytest.mark.parametrize("kinds", _DRAW_KINDS)
def test_stacked_draws_equal_per_draw_generators_at_twenty(regime, kinds):
    # 20: the draw count of Thm1 and Prop3
    _assert_stacked_draws_equal_per_draw(regime, kinds, 20)


def test_stacked_intermediates_match_per_draw(regime):
    table = regime[0]
    lat = table.lattice
    rho, f = draw_stacks(lat, np.random.default_rng(_SEED + 8), 5, "nonneg", "compact")
    phi = _transform_rows(rho, table)
    spectra = _transform_rows(phi, table)
    points = default_point_exponents(table)
    grams = _spectral_gram(spectra, points, table).entries
    xs = (-2, 0, 2, 5, 8)
    shifted = _all_translations(f, xs, table)
    widths = [table.params.q ** 4, table.params.q ** 10]
    integrals = _gauss_limit_integrals(f, widths, table)
    for j in range(5):
        one_rho, one_f = LatticeFunction(lat, rho[j]), LatticeFunction(lat, f[j])
        one_phi = fourier_transform(one_rho, table)
        _close(phi[j], one_phi.values)
        _close(spectra[j], fourier_transform(one_phi, table).values)
        _close(grams[j], gram_matrix(one_phi, points, table).entries)
        for i, x in enumerate(xs):
            _close(shifted[j, :, i], translation(one_f, x, table).values)
        with_zero = LatticeFunction(lat, f[j], value_at_zero=0.0)
        want = gauss_delta_limit_check(with_zero, widths, table)
        _close(integrals[j], np.array(want.integrals))
    # the Bessel-row probes of S3-product, translated to the measure support
    probes = table.rows(np.arange(-6, 7, 2))
    support = lat.indices[(lat.indices >= -2) & (lat.indices <= 12)]
    for row, slab in zip(probes, _all_translations(probes, support, table)):
        _close(slab, all_translations(LatticeFunction(lat, row), support, table))


def test_translations_at_chosen_rows(regime, rng):
    table = regime[0]
    n = table.lattice.size
    xs = (-2, 0, 5)
    at = np.array([0, 3, 17, n // 2, n - 1])
    for values in (rng.standard_normal(n), rng.standard_normal((3, n))):
        full = _all_translations(values, xs, table)
        _close(_all_translations(values, xs, table, at), full[..., at, :])


def test_asymmetric_hankel_form_is_a_block_of_the_symmetric_one(regime, rng):
    table = regime[0]
    a, b = np.array([-3, 0, 4]), np.array([-5, 1, 2, 9, 11])
    both = np.concatenate([a, b])
    for s in (rng.standard_normal(table.lattice.size), rng.random((4, table.lattice.size))):
        symmetric = _hankel_form(table.rows(both), s)
        _close(_hankel_form(table.rows(a), s, table.rows(b)), symmetric[..., : a.size, a.size :])


def _full_support(lat, rng, count):
    """Draws nonzero at every point of the window: the zero-skipping routes
    skip nothing on them."""
    shape = (count, lat.size)
    return rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


@pytest.mark.parametrize("support", ["compact", "full"])
def test_prop4_prop5_routes_equal_their_full_routes(regime, rng, support):
    table = regime[0]
    lat, q = table.lattice, table.params.q
    if support == "compact":
        draws, others = draw_stacks(lat, rng, 5, "compact", "compact")
    else:
        draws, others = _full_support(lat, rng, 5), _full_support(lat, rng, 5)
    xs = (-2, 0, 2, 5, 8)
    weighted = (table.weights * draws).T * (1.0 - q)
    full = [(translation_kernel_matrix(x, lat.indices, table) @ weighted).T for x in xs]
    _close(_prop4_kernel_route(draws, xs, table), np.stack(full))
    for f, g in zip(draws, others):
        fn, gn = LatticeFunction(lat, f), LatticeFunction(lat, g)
        direct = convolution(fn, gn, table, route="direct").values
        _close(_direct_convolution(f, g, lat.indices, table, np.flatnonzero(g)), direct)


def _full_measure_sums(xi, rho, values, table):
    """The double sum of measure_convolution and its all-absolute scale, for
    each row of `values`, with the translations formed on every row of the
    window."""
    lat, q, w = table.lattice, table.params.q, table.weights
    support = np.flatnonzero(xi.weights)
    shifted = _all_translations(values, lat.indices[support], table)
    outer, inner = (1.0 - q) ** 2 * (w * rho.weights), (w * xi.weights)[support]
    return outer @ shifted @ inner, outer @ np.abs(shifted) @ inner


def _full_identity_error(xi, rho, table):
    """measure_product_identity_error on the double sums of every row."""
    lat, q, w = table.lattice, table.params.q, table.weights
    lo, hi = clean_inversion_range(lat)
    idx = np.arange(lo, hi + 1)
    probes = idx[:: max(1, len(idx) // 12)]
    rows = table.rows(probes)
    lhs = _full_measure_sums(xi, rho, rows, table)[0]
    at = probes - lat.n_min
    f_xi = measure_fourier_transform(xi, table).values[at]
    f_rho = measure_fourier_transform(rho, table).values[at]
    scale_xi = (1.0 - q) * np.sum(w * xi.weights * np.abs(rows), axis=-1)
    scale_rho = (1.0 - q) * np.sum(w * rho.weights * np.abs(rows), axis=-1)
    return float(np.max(np.abs(lhs - f_xi * f_rho) / np.maximum(1.0, scale_xi * scale_rho)))


@pytest.mark.parametrize("support", ["compact", "full"])
def test_measure_product_route_equals_its_full_route(regime, rng, support):
    table = regime[0]
    lat = table.lattice
    if support == "compact":
        xi, rho = (QMeasure(lat, random_measure_weights(lat, rng)) for _ in range(2))
    else:
        xi, rho = (QMeasure(lat, np.abs(w)) for w in _full_support(lat, rng, 2))
    probes = table.rows(np.arange(-6, 7, 2))
    outer, shifted, inner = _measure_operands(xi, rho, probes, table)
    _close(outer @ shifted @ inner, _full_measure_sums(xi, rho, probes, table)[0])
    total, scale = measure_convolution(xi, rho, LatticeFunction(lat, probes[0]), table, True)
    want = _full_measure_sums(xi, rho, probes[0], table)
    _close(np.array([total.real, scale]), np.array(want))
    error = measure_product_identity_error(xi, rho, table)
    assert abs(error - _full_identity_error(xi, rho, table)) <= 1e-13


def test_thm2_exponents_admissible_and_distinct(table05, rng):
    # a pair outside 1 < r <= 2 raises instead of being skipped
    f = random_compact(table05.lattice, rng)
    reports = [young_inequality_check(f, f, p, pp, table05) for p, pp in _THM2_EXPONENTS]
    assert all(rep.finite for rep in reports)
    assert len({rep.r for rep in reports}) > 1


_FIRST_CHECK_PROBE = """
import sys
import qharm
from qharm import verify
print("numpy.random" in sys.modules)
registry = verify._registry
seen = []

def spied():
    def wrap(check):
        def run(table):
            seen.append("numpy.random" in sys.modules)
            return check(table)
        return run
    return [(sid, tol, wrap(check)) for sid, tol, check in registry()]

verify._registry = spied
verify.run_suite(qharm.QParams(0.5, 0.0), qharm.QLattice(0.5, -20, 60), only=["Thm2"])
print(seen[0])
"""


def test_suite_imports_numpy_random_before_first_check():
    # numpy.random's lazy import would be timed as part of the first check
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qharm.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _FIRST_CHECK_PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["False", "True"]  # not at import qharm; before the check


def test_import_leaves_numpy_random_unloaded():
    # every qharm process pays numpy.random's import (about 13 ms) if any
    # module imports it, or draws, at import time; the CLI imports them all
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qharm.__file__)))
    probe = "import sys, qharm, qharm.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["False"]
