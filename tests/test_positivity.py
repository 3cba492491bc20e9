import numpy as np
import pytest

from qharm import (
    LatticeFunction,
    QLattice,
    QMeasure,
    QParams,
    bochner_cutoff,
    bochner_reconstruct,
    fourier_transform,
    gram_matrix,
    is_q_positive_type,
    measure_convolution,
    measure_fourier_transform,
    measure_product_identity_error,
    product_positive_type_check,
    translation,
    verify_l1_spectrum_mass,
    verify_nonneg_spectrum,
    verify_quadratic_form_positivity,
    verify_transform_positive_type,
    wiener_membership,
)
import qharm.positivity
from qharm.positivity import (
    DEFAULT_PSD_TOL,
    BochnerLevel,
    BochnerReport,
    default_point_exponents,
)
from qharm.transform import interior_slice
from conftest import get_table
from qharm.testfunctions import (
    gaussian_density,
    nonneg_density,
    random_compact,
    random_measure_weights,
)


def positive_type_fn(table, rng):
    rho = nonneg_density(table.lattice, rng)
    return fourier_transform(rho, table)


class TestGram:
    def test_hermitian(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        g = gram_matrix(phi, [0, 1, 2, -1], table05)
        assert g.hermitian_defect < 1e-10 * np.abs(g.entries).max()

    def test_duplicate_points_rejected(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        with pytest.raises(ValueError):
            gram_matrix(phi, [1, 1, 2], table05)

    def test_positive_type_accepted(self, regime_table, rng):
        phi = positive_type_fn(regime_table, rng)
        verdict = is_q_positive_type(phi, None, regime_table)
        assert verdict.positive
        assert verdict.witness is None

    def test_signed_density_rejected_with_witness(self, table05):
        # transform of a signed function is not of positive type
        lat = table05.lattice
        vals = np.zeros(lat.size)
        vals[lat.index_of(2)] = 1.0
        vals[lat.index_of(4)] = -1.0
        phi = fourier_transform(LatticeFunction(lat, vals), table05)
        verdict = is_q_positive_type(phi, None, table05)
        assert not verdict.positive
        assert verdict.witness is not None
        # the witness actually violates the quadratic form
        g = gram_matrix(phi, list(verdict.point_exponents), table05)
        z = verdict.witness
        quad = float(np.real(z.conj() @ g.entries @ z))
        assert quad < 0.0

    def test_requires_table(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        with pytest.raises(ValueError):
            is_q_positive_type(phi)


class TestPositivityBattery:
    def test_transform_positive_type_for_squared(self, table05, rng):
        sigma = nonneg_density(table05.lattice, rng)
        u = fourier_transform(sigma, table05)
        phi = LatticeFunction(
            table05.lattice, u.values ** 2, value_at_zero=complex(u.value_at_zero) ** 2
        )
        rep = verify_transform_positive_type(phi, table05)
        assert rep.all_positive

    def test_quadratic_form_nonnegative(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        f = LatticeFunction(table05.lattice, rng.uniform(-1, 1, table05.lattice.size))
        rep = verify_quadratic_form_positivity(phi, f, table05)
        assert rep.nonnegative

    def test_spectrum_nonnegative(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        rep = verify_nonneg_spectrum(phi, table05)
        assert rep.nonnegative

    def test_mass_equals_origin_value(self, regime_table, rng):
        rho = nonneg_density(regime_table.lattice, rng)
        phi = fourier_transform(rho, regime_table)
        rep = verify_l1_spectrum_mass(phi, regime_table)
        assert rep.max_relative_error < 1e-10

    def test_mass_requires_origin_value(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        phi.value_at_zero = None
        with pytest.raises(ValueError):
            verify_l1_spectrum_mass(phi, table05)

    def test_wiener_membership(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        rep = wiener_membership(phi, table05)
        assert rep.consistent

    def test_product_positive_type(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        f = nonneg_density(table05.lattice, rng)
        rep = product_positive_type_check(phi, f, table05)
        assert rep.all_positive


class TestMeasures:
    def test_weights_validation(self):
        lat = QLattice(0.5, 0, 4)
        with pytest.raises(ValueError):
            QMeasure(lat, np.array([1.0, -0.5, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            QMeasure(lat, np.ones(3))

    def test_transform_origin_is_total_mass(self, table05, rng):
        xi = QMeasure(table05.lattice, random_measure_weights(table05.lattice, rng))
        ft = measure_fourier_transform(xi, table05)
        assert ft.value_at_zero == pytest.approx(xi.total_mass_v(table05.params), rel=1e-14)

    def test_product_identity(self, regime_table, rng):
        xi = QMeasure(regime_table.lattice, random_measure_weights(regime_table.lattice, rng))
        rho = QMeasure(regime_table.lattice, random_measure_weights(regime_table.lattice, rng))
        assert measure_product_identity_error(xi, rho, regime_table) < 1e-8

    def test_convolution_matches_translation_loop(self, regime_table, rng):
        table = regime_table
        lat, q, w = table.lattice, table.params.q, table.weights
        xi = QMeasure(lat, random_measure_weights(lat, rng))
        rho = QMeasure(lat, random_measure_weights(lat, rng))
        f = LatticeFunction(lat, table.jv_row(2).copy())
        total, abs_total = 0.0, 0.0
        for i, n in enumerate(lat.indices):
            if xi.weights[i] == 0.0:
                continue
            tf = translation(f, int(n), table).values
            outer = (1.0 - q) ** 2 * w[i] * xi.weights[i]
            total += outer * np.sum(w * rho.weights * tf)
            abs_total += outer * np.sum(w * rho.weights * np.abs(tf))
        val, scale = measure_convolution(xi, rho, f, table, with_scale=True)
        assert abs(val - total) <= 1e-13 * abs(total)
        assert scale == pytest.approx(abs_total, rel=1e-13)

    def test_convolution_scale_output(self, table05, rng):
        xi = QMeasure(table05.lattice, random_measure_weights(table05.lattice, rng))
        rho = QMeasure(table05.lattice, random_measure_weights(table05.lattice, rng))
        probe = LatticeFunction(table05.lattice, table05.jv_row(2).copy())
        val, scale = measure_convolution(xi, rho, probe, table05, with_scale=True)
        assert scale >= abs(val) * (1.0 - 1e-12)


class TestBochner:
    def test_cutoff_definition(self):
        lat = QLattice(0.5, -5, 10)
        phi = LatticeFunction(lat, np.ones(lat.size), value_at_zero=1.0)
        cut = bochner_cutoff(phi, 3)
        # zero where m <= -3, 1 - q^{3+m} elsewhere
        assert cut.at_index(-4) == 0.0
        assert cut.at_index(-3) == 0.0
        assert cut.at_index(-2) == pytest.approx(1.0 - 0.5)
        assert cut.at_index(5) == pytest.approx(1.0 - 0.5 ** 8)

    def test_gaussian_roundtrip(self, regime_table):
        rho = gaussian_density(regime_table, width_exp=1)
        phi = fourier_transform(rho, regime_table)
        rep = bochner_reconstruct(phi, range(1, 11), regime_table)
        assert rep.accepted
        assert rep.reconstruction_error < 1e-8
        sl = interior_slice(regime_table.lattice)
        recon = rep.limit_measure.weights * complex(rep.normalization).real
        assert np.abs(recon[sl] - rho.values[sl]).max() < 1e-6

    def test_mass_tends_to_origin_value(self, table05):
        rho = gaussian_density(table05, width_exp=0)
        phi = fourier_transform(rho, table05)
        rep = bochner_reconstruct(phi, range(1, 11), table05)
        masses = [lev.mass for lev in rep.levels]
        # masses approach 1 (phi is normalized) geometrically in the level
        devs = [abs(m - 1.0) for m in masses]
        assert devs[-1] < 1e-9
        assert devs[-1] < devs[0]

    def test_rejects_signed_input(self, table05):
        lat = table05.lattice
        vals = np.zeros(lat.size)
        vals[lat.index_of(2)] = 1.0
        vals[lat.index_of(4)] = -1.0
        phi = fourier_transform(LatticeFunction(lat, vals), table05)
        phi.value_at_zero = complex(phi.value_at_zero)
        rep = bochner_reconstruct(phi, range(1, 6), table05)
        assert not rep.accepted
        assert rep.rejection_reason is not None

    @pytest.mark.parametrize("factor", [-1.0, 1.0 + 0.3j])
    def test_rejects_origin_value_not_real_positive(self, regime_table, factor):
        # phi(0) is the total mass of a positive measure; dividing by a signed
        # or complex phi(0) used to accept these with errors near 1e-14
        phi = fourier_transform(gaussian_density(regime_table, width_exp=1), regime_table)
        phi = LatticeFunction(
            phi.lattice, factor * phi.values, value_at_zero=factor * phi.value_at_zero
        )
        rep = bochner_reconstruct(phi, range(1, 11), regime_table)
        assert not rep.accepted
        assert rep.limit_measure is None
        assert "phi(0)" in rep.rejection_reason

    def test_requires_origin_value(self, table05, rng):
        phi = positive_type_fn(table05, rng)
        phi.value_at_zero = None
        with pytest.raises(ValueError):
            bochner_reconstruct(phi, [1, 2], table05)

    def test_needs_two_levels(self, table05):
        rho = gaussian_density(table05)
        phi = fourier_transform(rho, table05)
        with pytest.raises(ValueError):
            bochner_reconstruct(phi, [3], table05)

    def test_overflowing_densities_refused(self, table05):
        # finite samples whose transform overflows: refused before the eigh
        lat = table05.lattice
        phi = LatticeFunction(lat, np.full(lat.size, 1e308), value_at_zero=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="weights must be finite"):
                bochner_reconstruct(phi, [1, 2], table05)

    @pytest.mark.parametrize("levels", [[3, 3], [1, 2, 2]])
    def test_duplicate_levels_refused(self, table05, levels):
        # a repeated level would divide by 1 - q^0 in the limit extraction
        phi = fourier_transform(gaussian_density(table05), table05)
        with pytest.raises(ValueError, match="cutoff levels must be distinct"):
            bochner_reconstruct(phi, levels, table05)


def _sweep_grids(table):
    """The default grid, then four grids drawn from default_rng(0)."""
    lat = table.lattice
    rng = np.random.default_rng(0)
    grids = [default_point_exponents(table)]
    pool = np.arange(max(lat.n_min, -4), min(lat.n_max, 14) + 1)
    for _ in range(4):
        size = int(rng.integers(3, min(9, pool.size)))
        grids.append(sorted(int(n) for n in rng.choice(pool, size=size, replace=False)))
    return grids


def _assert_same_verdict(got, want):
    assert got.positive == want.positive
    assert got.min_eigenvalue == want.min_eigenvalue
    assert got.scale == want.scale
    assert got.tolerance == want.tolerance
    assert got.point_exponents == want.point_exponents
    if want.witness is None:
        assert got.witness is None
    else:
        assert np.array_equal(got.witness, want.witness)


class TestSpectralRoute:
    """Positivity verdicts come from one transform of the tested function."""

    @pytest.fixture
    def count_transforms(self, monkeypatch):
        calls = []
        original = qharm.positivity.fourier_transform

        def counted(f, table):
            calls.append(1)
            return original(f, table)

        monkeypatch.setattr(qharm.positivity, "fourier_transform", counted)
        return calls

    def test_bochner_levels_are_one_stack(self, table05, count_transforms, monkeypatch):
        # no per-level transform and one stacked eigvalsh, whatever the level
        # count; an accepted run never needs a witness, so never calls eigh
        shapes = {"eigvalsh": [], "eigh": []}
        for name, shape_list in shapes.items():
            original = getattr(np.linalg, name)

            def counted(a, original=original, shape_list=shape_list):
                shape_list.append(a.shape)
                return original(a)

            monkeypatch.setattr(np.linalg, name, counted)
        phi = fourier_transform(gaussian_density(table05, width_exp=1), table05)
        n_points = len(default_point_exponents(table05))
        for n_levels in (2, 5, 10, 20):
            count_transforms.clear()
            for shape_list in shapes.values():
                shape_list.clear()
            assert bochner_reconstruct(phi, range(1, n_levels + 1), table05).accepted
            assert len(count_transforms) == 0
            assert shapes == {"eigvalsh": [(n_levels, n_points, n_points)], "eigh": []}

    def test_sweeps_transform_twice(self, table05, rng, count_transforms):
        phi = positive_type_fn(table05, rng)
        f = nonneg_density(table05.lattice, rng)
        count_transforms.clear()
        verify_transform_positive_type(phi, table05)
        assert len(count_transforms) == 2
        count_transforms.clear()
        product_positive_type_check(phi, f, table05)
        assert len(count_transforms) == 2

    def test_sweeps_match_single_grid_verdicts(self, regime_table, rng):
        lat = regime_table.lattice
        grids = _sweep_grids(regime_table)
        f = nonneg_density(lat, rng)
        ff = fourier_transform(f, regime_table)
        # a signed phi makes F phi fail: the negative verdicts carry witnesses
        for phi in (positive_type_fn(regime_table, rng), random_compact(lat, rng)):
            rep = verify_transform_positive_type(phi, regime_table)
            fphi = fourier_transform(phi, regime_table)
            assert len(rep.verdicts) == len(grids)
            for got, g in zip(rep.verdicts, grids):
                _assert_same_verdict(got, is_q_positive_type(fphi, g, regime_table))
            rep = product_positive_type_check(phi, f, regime_table)
            prod = LatticeFunction(lat, phi.values * ff.values)
            assert len(rep.verdicts) == len(grids)
            for got, g in zip(rep.verdicts, grids):
                _assert_same_verdict(got, is_q_positive_type(prod, g, regime_table))

    def test_bochner_levels_match_single_grid_verdicts(self, regime_table):
        q = regime_table.params.q
        phi = fourier_transform(gaussian_density(regime_table, width_exp=1), regime_table)
        norm_phi = LatticeFunction(
            regime_table.lattice,
            phi.values / _normalizer(phi),
            value_at_zero=1.0,
        )
        rep = bochner_reconstruct(phi, range(1, 11), regime_table)
        assert [lev.level for lev in rep.levels] == list(range(1, 11))
        for lev in rep.levels:
            tol = DEFAULT_PSD_TOL + 50.0 * q ** lev.level
            want = is_q_positive_type(
                bochner_cutoff(norm_phi, lev.level), None, regime_table, tol
            )
            assert lev.min_eigenvalue == want.min_eigenvalue
            assert lev.psd_positive == want.positive
            assert lev.psd_tolerance == want.tolerance


def _normalizer(phi):
    """phi(0) as bochner_reconstruct divides by it: a float when it is real."""
    phi0 = complex(phi.value_at_zero)
    return phi0.real if phi0.imag == 0.0 else phi0


def _reference_bochner(phi, levels, table, tol=DEFAULT_PSD_TOL):
    """The per-level loop bochner_reconstruct replaced: a cutoff, a transform,
    a PSD verdict and a measure transform for each level in turn."""
    phi0 = complex(phi.value_at_zero)
    levels = sorted(int(n) for n in levels)
    lat = table.lattice
    q = table.params.q
    c = table.params.c_qv
    norm_phi = LatticeFunction(lat, phi.values / _normalizer(phi), value_at_zero=1.0)
    sl = interior_slice(lat)
    records, densities = [], {}
    accepted, reason = True, None
    for n in levels:
        cut = bochner_cutoff(norm_phi, n)
        rho_n = fourier_transform(cut, table)
        level_tol = tol + 50.0 * q ** n
        verdict = is_q_positive_type(cut, None, table, level_tol)
        dens = rho_n.values.real
        dens_min = float(dens.min())
        clip_tol = level_tol * max(float(np.abs(dens).max()), 1e-300)
        mass = float((c * (1.0 - q) * np.sum(table.weights * dens)).real)
        recon = measure_fourier_transform(QMeasure(lat, np.clip(dens, 0.0, None)), table)
        dev = float(np.abs(c * recon.values[sl] - norm_phi.values[sl]).max())
        records.append(
            BochnerLevel(n, verdict.positive, verdict.min_eigenvalue, level_tol,
                         dens_min, clip_tol, mass, dev)
        )
        densities[n] = dens
        if not verdict.positive:
            accepted, reason = False, f"PSD check failed at cutoff level {n}"
        elif dens_min < -clip_tol:
            accepted, reason = False, f"density negativity beyond tolerance at level {n}"
    limit, recon_err = None, float("inf")
    if accepted:
        ratio = q ** (levels[-1] - levels[-2])
        lim = (densities[levels[-1]] - ratio * densities[levels[-2]]) / (1.0 - ratio)
        if float(lim.min()) < -tol * max(float(np.abs(lim).max()), 1e-300) * 10.0:
            accepted, reason = False, "limit density negative beyond strict tolerance"
        else:
            limit = QMeasure(lat, np.clip(lim, 0.0, None))
            recon = measure_fourier_transform(limit, table)
            recon_err = float(np.abs(c * recon.values[sl] - norm_phi.values[sl]).max())
    return BochnerReport(levels, records, limit, recon_err, phi0, accepted, reason)


@pytest.mark.parametrize(
    "regime",
    [(0.5, 0.0, -20, 60), (0.9, 1.5, -30, 160), (0.3, 1.5, -20, 40)],
    ids=lambda r: f"q{r[0]}-v{r[1]}",
)
def test_bochner_matches_per_level_loop(regime):
    """The array evaluation gives the per-level loop's report bit for bit."""
    table = get_table(*regime)
    lat = table.lattice
    rng = np.random.default_rng(11)
    signed = np.zeros(lat.size)
    signed[lat.index_of(2)] = 1.0
    signed[lat.index_of(4)] = -1.0
    phis = [
        fourier_transform(gaussian_density(table, width_exp=1), table),
        fourier_transform(LatticeFunction(lat, signed), table),
        fourier_transform(nonneg_density(lat, rng), table),
        fourier_transform(nonneg_density(lat, rng), table),
    ]
    outcomes = set()
    for phi in phis:
        for levels in (range(1, 11), range(1, 21), [3, 7], list(range(10, 0, -1))):
            got = bochner_reconstruct(phi, levels, table)
            want = _reference_bochner(phi, levels, table)
            assert got.cutoff_levels == want.cutoff_levels
            assert got.levels == want.levels
            assert got.accepted == want.accepted
            assert got.rejection_reason == want.rejection_reason
            assert got.reconstruction_error == want.reconstruction_error
            assert got.normalization == want.normalization
            if want.limit_measure is None:
                assert got.limit_measure is None
            else:
                assert np.array_equal(got.limit_measure.weights, want.limit_measure.weights)
            outcomes.add(want.rejection_reason is None)
    assert outcomes == {True, False}  # both accepted and rejected reports compared


class TestRealRoute:
    """A real phi keeps the Bochner pipeline and the PSD verdicts in float64."""

    def test_real_phi_stays_float64(self, regime_table, monkeypatch):
        eig_dtypes, products = [], []
        original_eig = np.linalg.eigvalsh
        original_matvec = qharm.positivity._matvec_rows

        def eig(a):
            eig_dtypes.append(a.dtype)
            return original_eig(a)

        def matvec(matrix, stack):
            out = original_matvec(matrix, stack)
            products.append((matrix is regime_table.kernel_matrix, out.dtype))
            return out

        monkeypatch.setattr(np.linalg, "eigvalsh", eig)
        monkeypatch.setattr(qharm.positivity, "_matvec_rows", matvec)
        phi = fourier_transform(gaussian_density(regime_table, width_exp=1), regime_table)
        assert phi.values.dtype == np.float64
        assert bochner_reconstruct(phi, range(1, 11), regime_table).accepted
        assert eig_dtypes == [np.float64]
        # densities and reconstructions from the table's own kernel, no copy
        assert products == [(True, np.float64)] * 2

    @pytest.mark.parametrize(
        "regime", [(0.5, 0.0, -20, 60), (0.9, 1.5, -30, 160)], ids=lambda r: f"q{r[0]}-v{r[1]}"
    )
    def test_complex_values_match_per_level_loop(self, regime):
        table = get_table(*regime)
        lat = table.lattice
        phi = fourier_transform(gaussian_density(table, width_exp=1), table)
        wobble = 1e-3j * np.sin(np.arange(lat.size)) * phi.values
        tilt = 1.0 + 1e-12j
        phis = [
            # complex values, real phi(0): the complex route, float division
            LatticeFunction(lat, phi.values + wobble, value_at_zero=phi.value_at_zero),
            # a phi(0) off the real axis (within tol) divides as a complex
            LatticeFunction(lat, tilt * phi.values, value_at_zero=tilt * phi.value_at_zero),
        ]
        for phi in phis:
            for levels in (range(1, 11), [3, 7]):
                got = bochner_reconstruct(phi, levels, table)
                want = _reference_bochner(phi, levels, table)
                assert got.levels == want.levels
                assert got.accepted == want.accepted
                assert got.rejection_reason == want.rejection_reason
                assert got.reconstruction_error == want.reconstruction_error
                assert got.normalization == want.normalization
                if want.limit_measure is None:
                    assert got.limit_measure is None
                else:
                    assert np.array_equal(got.limit_measure.weights, want.limit_measure.weights)

    @pytest.mark.parametrize("far", [-1.0, -1.0 - 0.5j])
    def test_witness_attains_min_eigenvalue(self, regime_table, far):
        # the verdict's eigenvalue comes from eigvalsh, its witness from eigh
        lat = regime_table.lattice
        vals = np.zeros(lat.size, type(far))
        vals[lat.index_of(2)] = 1.0
        vals[lat.index_of(4)] = far
        phi = fourier_transform(LatticeFunction(lat, vals), regime_table)
        verdict = is_q_positive_type(phi, None, regime_table)
        assert not verdict.positive
        g = gram_matrix(phi, list(verdict.point_exponents), regime_table).entries
        z = verdict.witness
        rayleigh = np.real(z.conj() @ g @ z) / np.real(z.conj() @ z)
        roundoff = 64 * np.finfo(float).eps * np.linalg.norm(g, 2)
        assert abs(rayleigh - verdict.min_eigenvalue) <= roundoff
