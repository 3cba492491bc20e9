import numpy as np
import pytest

from qharm import (
    LatticeFunction,
    QLattice,
    QParams,
    build_transform_table,
    delta_qv,
    fourier_transform,
    fourier_transform_detail,
    verify_inversion,
    verify_l1_bound,
    verify_orthogonality,
    verify_plancherel,
)
from qharm.errors import LatticeMismatchError
from qharm.transform import clean_inversion_range, interior_slice
from qharm.testfunctions import random_compact


class TestTableConstruction:
    def test_window_must_straddle_one(self):
        params = QParams(q=0.5)
        with pytest.raises(ValueError):
            build_transform_table(params, QLattice(0.5, 0, 10))

    def test_q_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_transform_table(QParams(q=0.5), QLattice(0.6, -5, 5))

    def test_jv_row_covers_window(self, table05):
        lat = table05.lattice
        row = table05.rows([0])[0]
        assert row.shape == (lat.size,)
        # rows([k])[0][i] = j_v(q^{k + n_min + i}), so the first entry of row 0
        # is the table value at the window bottom, bessel_values[n_min - 2 n_min]
        assert row[0] == table05.bessel_values[-lat.n_min]

    def test_rows_gathers_jv_rows(self, table05):
        ns = [-3, 0, 7]
        lat = table05.lattice
        expect = np.stack(
            [table05.bessel_values[n - lat.n_min : n - lat.n_min + lat.size] for n in ns]
        )
        np.testing.assert_array_equal(table05.rows(ns), expect)
        with pytest.raises(IndexError):
            table05.rows([table05.lattice.n_max + 1])

    @pytest.mark.parametrize("n", [-120, -21, 61, 200])  # the window is [-20, 60]
    def test_rows_refuse_out_of_window(self, table05, n):
        with pytest.raises(IndexError, match=rf"^row exponent {n} outside the window \[-20, 60\]$"):
            table05.rows([0, n])
        with pytest.raises(IndexError, match=rf"^row exponent {n} "):  # the first one is named
            table05.rows([0, n, 999])

    def test_rows_refuse_fractional_exponents(self, table05):
        with pytest.raises(TypeError):
            table05.rows([0, 2.5])

    def test_kernel_matrix_hankel_structure(self, table05):
        M = table05.kernel_matrix
        params, lat = table05.params, table05.lattice
        k, n = 5, 7
        expect = (
            params.c_qv
            * (1.0 - params.q)
            * params.q ** ((2 * params.v + 2) * lat.indices[n])
            * table05.bessel_values[lat.indices[k] + lat.indices[n] - 2 * lat.n_min]
        )
        assert M[k, n] == pytest.approx(expect, rel=1e-14)


class TestTransform:
    def test_zero_maps_to_zero(self, regime_table):
        f = LatticeFunction.zero(regime_table.lattice)
        out = fourier_transform(f, regime_table)
        assert np.all(out.values == 0.0)
        assert out.value_at_zero == 0.0

    def test_lattice_mismatch(self, table05):
        f = LatticeFunction.zero(QLattice(0.5, -5, 5))
        with pytest.raises(LatticeMismatchError):
            fourier_transform(f, table05)

    def test_linearity(self, regime_table, rng):
        f = random_compact(regime_table.lattice, rng)
        g = random_compact(regime_table.lattice, rng)
        combo = LatticeFunction(regime_table.lattice, 2.0 * f.values - 3.0 * g.values)
        lhs = fourier_transform(combo, regime_table).values
        rhs = (
            2.0 * fourier_transform(f, regime_table).values
            - 3.0 * fourier_transform(g, regime_table).values
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_edge_warning_for_nondecaying_input(self, table05):
        f = LatticeFunction(table05.lattice, np.ones(table05.lattice.size))
        res = fourier_transform_detail(f, table05)
        assert res.edge_warning  # constant input truncates visibly at x->inf

    def test_no_edge_warning_for_compact_input(self, table05, rng):
        f = random_compact(table05.lattice, rng)
        res = fourier_transform_detail(f, table05)
        assert not res.edge_warning


class TestIdentities:
    def test_orthogonality_diagonal(self, regime_table):
        params = regime_table.params
        rep = verify_orthogonality(3, 3, regime_table)
        target = params.q ** (-6.0 * (params.v + 1.0)) / (1.0 - params.q)
        assert rep.target == pytest.approx(target)
        assert rep.error / rep.target < 1e-10

    def test_orthogonality_off_diagonal(self, regime_table):
        rep = verify_orthogonality(2, -2, regime_table)
        assert rep.target == 0.0
        assert rep.error < 1e-8

    def test_out_of_range_orthogonality_rejected(self, table05):
        with pytest.raises(IndexError, match="row exponent 100 "):
            verify_orthogonality(100, 0, table05)

    def test_inversion_on_clean_draw(self, regime_table, rng):
        for _ in range(5):
            f = random_compact(regime_table.lattice, rng)
            rep = verify_inversion(f, regime_table)
            assert rep.max_interior_error < 1e-10

    def test_plancherel(self, regime_table, rng):
        for _ in range(5):
            f = random_compact(regime_table.lattice, rng)
            rep = verify_plancherel(f, regime_table)
            assert rep.error < 1e-10

    def test_l1_bound(self, regime_table, rng):
        for _ in range(5):
            rep = verify_l1_bound(random_compact(regime_table.lattice, rng), regime_table)
            assert rep.holds

    def test_delta_weight(self):
        params = QParams(q=0.5, v=0.0)
        assert delta_qv(2, 3, params) == 0.0
        assert delta_qv(2, 2, params) == pytest.approx(
            1.0 / ((1.0 - 0.5) * 0.25 ** 2), rel=1e-14
        )

    def test_bessel_row_transforms_to_delta_spike(self, table05):
        # F(c j_v(q^n .)) concentrates at q^n with height delta_qv(x,x)/c... the
        # normalized statement: F(j_v(q^n .))(q^k) ~ q^{-2n(v+1)}/((1-q)c) delta_nk
        params, lat = table05.params, table05.lattice
        n = 3
        probe = LatticeFunction(lat, table05.rows([n])[0])
        ff = fourier_transform(probe, table05)
        spike = params.q ** (-2.0 * n * (params.v + 1.0)) / ((1.0 - params.q) * params.c_qv)
        assert ff.at_index(n) == pytest.approx(spike, rel=1e-12)
        others = np.abs(ff.values[np.arange(lat.size) != lat.index_of(n)])
        assert others.max() < 1e-9 * spike


class TestHelpers:
    def test_interior_slice_fraction(self):
        lat = QLattice(0.5, -20, 60)
        sl = interior_slice(lat, 0.6)
        assert sl.stop - sl.start == pytest.approx(0.6 * lat.size, abs=2)

    def test_clean_range_inside_window(self):
        lat = QLattice(0.5, -20, 60)
        lo, hi = clean_inversion_range(lat)
        assert lat.n_min < lo < hi < lat.n_max

    def test_clean_range_too_small(self):
        with pytest.raises(ValueError):
            clean_inversion_range(QLattice(0.5, -3, 3))
