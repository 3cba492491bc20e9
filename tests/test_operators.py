import json
import warnings

import numpy as np
import pytest

from qharm import (
    LatticeFunction,
    QLattice,
    QParams,
    convolution,
    fourier_transform,
    gauss_delta_limit_check,
    gauss_kernel,
    gauss_kernel_function,
    qv_membership_probe,
    translation,
    translation_kernel,
    translation_via_kernel,
    young_inequality_check,
)
from qharm.errors import LatticeMismatchError
from qharm.operators import (
    _PROBE_BLOCK_BYTES,
    _probe_integration_window,
    all_translations,
    translation_kernel_matrix,
)
from qharm.transform import build_transform_table, interior_slice
from qharm.testfunctions import random_compact

from conftest import get_table


class TestTranslation:
    def test_routes_agree(self, regime_table, rng):
        for _ in range(3):
            f = random_compact(regime_table.lattice, rng)
            for x in (-2, 0, 4):
                a = translation(f, x, regime_table)
                b = translation_via_kernel(f, x, regime_table)
                scale = max(np.abs(f.values).max(), 1e-300)
                assert np.abs(a.values - b.values).max() / scale < 1e-10

    def test_kernel_symmetric_in_arguments(self, table05):
        d1 = translation_kernel(1, 3, -2, table05)
        d2 = translation_kernel(3, -2, 1, table05)
        d3 = translation_kernel(-2, 1, 3, table05)
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert d1 == pytest.approx(d3, rel=1e-12)

    def test_kernel_matrix_matches_scalar_kernel(self, regime_table):
        table = regime_table
        exps = np.arange(-6, 9)
        params = table.params
        rows = np.abs(table.rows(exps))
        for x in (-2, 0, 3):
            d = translation_kernel_matrix(x, exps, table)
            scalar = np.array(
                [[translation_kernel(x, int(y), int(z), table) for z in exps] for y in exps]
            )
            # D_v vanishes up to roundoff for many triples, so errors are
            # measured against the all-absolute version of the same sum
            absolute = params.c_qv ** 2 * (1.0 - params.q) * (
                (rows * (table.weights * np.abs(table.jv_row(x)))) @ rows.T
            )
            assert np.all(np.abs(d - scalar) <= 1e-13 * absolute)
            assert np.all(np.abs(d - d.T) <= 1e-13 * absolute)

    @pytest.mark.parametrize(
        "regime", [(0.5, 0.0, -20, 60), (0.9, 1.5, -30, 160)], ids=["q0.5-v0", "q0.9-v1.5"]
    )
    def test_kernel_stack_equals_per_x_matrices(self, regime):
        table = get_table(*regime)
        exps = np.arange(-12, 21)
        xs = np.array([-7, -2, 0, 3, 11, 20])
        stack = translation_kernel_matrix(xs, exps, table)
        assert stack.shape == (xs.size, exps.size, exps.size)
        for x, slab in zip(xs, stack):
            single = translation_kernel_matrix(int(x), exps, table)
            assert single.shape == (exps.size, exps.size)
            assert np.array_equal(slab, single)

    def test_translation_of_bessel_probe_factorizes(self, table05):
        # T_u j_v(q^n .) = j_v(q^{n+u}) j_v(q^n .)
        n, u = 2, 4
        probe = LatticeFunction(table05.lattice, table05.jv_row(n).copy())
        t = translation(probe, u, table05)
        expect = table05.jv_at(n + u) * table05.jv_row(n)
        np.testing.assert_allclose(t.values, expect, atol=1e-13)


class TestConvolution:
    def test_routes_agree_on_interior(self, regime_table, rng):
        f = random_compact(regime_table.lattice, rng)
        g = random_compact(regime_table.lattice, rng)
        spec = convolution(f, g, regime_table, route="spectral")
        direct = convolution(f, g, regime_table, route="direct")
        sl = interior_slice(regime_table.lattice)
        scale = max(np.abs(spec.values).max(), 1e-300)
        assert np.abs(spec.values[sl] - direct.values[sl]).max() / scale < 1e-10

    def test_direct_route_matches_translation_loop(self, regime_table, rng):
        table = regime_table
        params, w = table.params, table.weights
        f = random_compact(table.lattice, rng)
        g = random_compact(table.lattice, rng)
        expect = np.array(
            [
                params.c_qv
                * (1.0 - params.q)
                * np.sum(w * translation(f, int(n), table).values * g.values)
                for n in table.lattice.indices
            ]
        )
        got = convolution(f, g, table, route="direct").values
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_all_translations_checks_the_lattice(self, table05):
        lat = table05.lattice
        other = QLattice(lat.q, lat.n_min + 1, lat.n_max + 1)
        with pytest.raises(LatticeMismatchError):
            all_translations(LatticeFunction(other, np.ones(lat.size)), [0], table05)

    def test_commutative(self, table05, rng):
        f = random_compact(table05.lattice, rng)
        g = random_compact(table05.lattice, rng)
        fg = convolution(f, g, table05)
        gf = convolution(g, f, table05)
        np.testing.assert_allclose(fg.values, gf.values, rtol=1e-12, atol=1e-16)

    def test_transform_factorizes(self, table05, rng):
        f = random_compact(table05.lattice, rng)
        g = random_compact(table05.lattice, rng)
        conv = convolution(f, g, table05)
        lhs = fourier_transform(conv, table05).values
        rhs = fourier_transform(f, table05).values * fourier_transform(g, table05).values
        sl = interior_slice(table05.lattice)
        assert np.abs(lhs[sl] - rhs[sl]).max() < 1e-10

    def test_unknown_route(self, table05, rng):
        f = random_compact(table05.lattice, rng)
        with pytest.raises(ValueError):
            convolution(f, f, table05, route="fft")

    def test_young_exponent_validation(self, table05, rng):
        f = random_compact(table05.lattice, rng)
        with pytest.raises(ValueError):
            young_inequality_check(f, f, 3.0, 2.0, table05)
        with pytest.raises(ValueError):
            young_inequality_check(f, f, 2.0, 2.0, table05)  # 1/r = 0

    def test_young_norm_finite(self, table05, rng):
        f = random_compact(table05.lattice, rng)
        g = random_compact(table05.lattice, rng)
        rep = young_inequality_check(f, g, 4.0 / 3.0, 4.0 / 3.0, table05)
        assert rep.r == pytest.approx(2.0)
        assert rep.finite


class TestGaussKernel:
    def test_positive_on_window(self, regime_table):
        g = gauss_kernel_function(1.0, regime_table.params, regime_table.lattice)
        assert np.all(g.values > 0.0)
        assert g.value_at_zero > 0.0

    def test_transform_of_q_gaussian(self, regime_table):
        from qharm.qlattice import q_exponential

        params, lat = regime_table.params, regime_table.lattice
        q2 = params.q ** 2
        f = LatticeFunction(
            lat,
            np.array([q_exponential(-x * x, q2).real for x in lat.points]),
            value_at_zero=1.0,
        )
        ff = fourier_transform(f, regime_table)
        target = gauss_kernel_function(1.0, params, lat)
        assert np.abs(ff.values - target.values).max() < 1e-12

    def test_function_matches_pointwise_kernel(self, regime_table):
        # the window is one cumulative product and each point of the scalar
        # kernel its own loop: equal to roundoff, with the same underflows
        params, lat = regime_table.params, regime_table.lattice
        for t in (1.0, params.q ** 8, params.q ** 20):
            g = gauss_kernel_function(t, params, lat)
            pointwise = np.array([gauss_kernel(float(x), t, params) for x in lat.points])
            assert np.array_equal(g.values == 0.0, pointwise == 0.0)
            np.testing.assert_allclose(g.values, pointwise, rtol=1e-13, atol=0.0)
            assert g.value_at_zero == gauss_kernel(0.0, t, params)

    @pytest.mark.parametrize("width", [24, 40])
    def test_product_past_double_range_gives_zero(self, width, table05):
        # at x = 2^20 and t = q^width the product of e(-x^2/t, q^2) passes
        # the double range, and the far end of the window is 0
        params, lat = table05.params, table05.lattice
        t = params.q ** width
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = gauss_kernel_function(t, params, lat)
        assert g.values[0] == 0.0 == gauss_kernel(float(lat.points[0]), t, params)
        assert np.all(g.values[-10:] > 0.0)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            gauss_kernel(1.0, 0.0, QParams(q=0.5))

    def test_delta_limit_for_constant(self, table05):
        lat = table05.lattice
        f = LatticeFunction(lat, np.ones(lat.size), value_at_zero=1.0)
        rep = gauss_delta_limit_check(f, [0.5 ** 4, 0.5 ** 7, 0.5 ** 10], table05)
        assert rep.final_deviation < 1e-10

    def test_delta_limit_requires_origin_value(self, table05):
        f = LatticeFunction(table05.lattice, np.ones(table05.lattice.size))
        with pytest.raises(ValueError):
            gauss_delta_limit_check(f, [0.1], table05)


class TestQvProbe:
    def test_no_negativity_at_default_regime(self):
        rep = qv_membership_probe(QParams(q=0.5, v=0.0), QLattice(0.5, -8, 12))
        assert rep.witness is None
        assert rep.min_value > -1e-10
        assert "no negativity" in rep.verdict

    def test_two_runs_give_equal_reports(self):
        params = QParams(q=0.5, v=0.0)
        lat = QLattice(0.5, -6, 8)
        assert qv_membership_probe(params, lat) == qv_membership_probe(params, lat)

    @staticmethod
    def _per_slab_reference(params, lattice):
        """min D and its first (x, y, z) position, one x slab at a time:
        np.argmin within a slab, strict < across slabs."""
        integration = _probe_integration_window(params, lattice)
        table = build_transform_table(params, integration)
        exps = lattice.indices
        min_val, best = float("inf"), None
        for x in exps:
            core = translation_kernel_matrix(int(x), exps, table)
            flat = int(np.argmin(core))
            if core.flat[flat] < min_val:
                j, l = divmod(flat, lattice.size)
                min_val, best = float(core.flat[flat]), (int(x), int(exps[j]), int(exps[l]))
        return min_val, best, integration.size

    @pytest.mark.parametrize(
        "q, v, n_min, n_max, blocks",
        [(0.5, 0.0, -8, 12, 1), (0.9, 0.0, -20, 40, 7)],
        ids=["cli-default", "q0.9-several-blocks"],
    )
    def test_blocked_scan_matches_per_slab_reference(self, q, v, n_min, n_max, blocks):
        params, lattice = QParams(q=q, v=v), QLattice(q, n_min, n_max)
        min_val, best, n_int = self._per_slab_reference(params, lattice)
        per_block = max(1, _PROBE_BLOCK_BYTES // (lattice.size * n_int * 8))
        assert -(-lattice.size // per_block) == blocks
        rep = qv_membership_probe(params, lattice)
        assert rep.min_value == min_val
        if min_val < -rep.tolerance:
            assert rep.witness == best
            assert rep.verdict == "negativity detected"
        else:
            assert rep.witness is None
            assert "no negativity" in rep.verdict
