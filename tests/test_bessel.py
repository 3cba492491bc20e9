import hashlib

import numpy as np
import pytest

import qharm.qlattice
from qharm import (
    QLattice,
    QParams,
    bessel_bound_envelope,
    build_transform_table,
    hahn_exton_jv,
    hahn_exton_jv_detail,
    lattice_jv_table,
)

# sha256 of build_transform_table(...).bessel_values for (q, v, n_min, n_max),
# computed with the per-exponent scalar series this table build replaced
TABLE_SHA256 = {
    (0.5, 0.0, -20, 60): "34a67f2a8164296661f6076b06f628b9a0914ffe435620e34a94718f44cf8462",
    (0.9, 1.5, -30, 160): "cabf52beb158615a2fb035f7821844e1a196989a659ed162fd2c50e19c1b3222",
    (0.95, 0.0, -40, 320): "94c71ae5d699e0e07581e8e7b1acf18f76af7ff068c9085ac9fe037e8018034c",
    (0.97, 0.0, -50, 550): "a7c25e661d3c7d4032c01794530dc8c8688ee2d38518e91bb7d1d88a378333f1",
    (0.3, 1.5, -45, 15): "acf8c11e00ada7312502b38036871ee1689fee3709535c6dbf83a6a5cba5dd6e",
}


@pytest.fixture(params=[(0.5, 0.0), (0.5, 1.5), (0.9, 0.0), (0.9, 1.5)], ids=str)
def params(request):
    q, v = request.param
    return QParams(q=q, v=v)


class TestLatticeTable:
    def test_matches_series_for_nonnegative_exponents(self, params):
        tab = lattice_jv_table(params, 0, 20)
        for m in range(0, 21):
            direct = hahn_exton_jv(params.q ** m, params.q ** 2, params.v)
            assert tab[m] == pytest.approx(direct, rel=1e-14, abs=1e-300)

    def test_recurrence_consistency_negative_exponents(self, params):
        # j(q^m) = (1 + q^{2v} - q^{2m+2}) j(q^{m+1}) - q^{2v} j(q^{m+2});
        # checked where the values are comfortably inside double range
        q, v = params.q, params.v
        tab = lattice_jv_table(params, -12, 4)
        p2v = q ** (2.0 * v)
        for m in range(-10, 2):
            lhs = tab[m + 12]
            a = (1.0 + p2v - q ** (2 * m + 2)) * tab[m + 13]
            b = p2v * tab[m + 14]
            # for m << 0 the two right-hand terms cancel down far below their
            # own magnitude, so the residual is measured against the largest
            # term rather than the (much smaller) result
            scale = max(abs(lhs), abs(a), abs(b), 1e-300)
            assert abs(lhs - (a - b)) / scale < 1e-12

    def test_decay_bound_holds(self, params):
        m_lo, m_hi = -40, 60
        tab = lattice_jv_table(params, m_lo, m_hi)
        ms = np.arange(m_lo, m_hi + 1)
        env = bessel_bound_envelope(params, ms)
        assert np.all(np.abs(tab) <= env + 1e-9)

    def test_deep_negative_exponents_underflow_to_zero(self):
        params = QParams(q=0.5, v=0.0)
        tab = lattice_jv_table(params, -40, 0)
        # q^{m^2+m} at m=-40 is ~1e-470, beyond double range
        assert tab[0] == 0.0
        # but the entries that fit are nonzero
        assert tab[30] != 0.0  # m = -10

    def test_steep_chain_stays_finite_and_flushes_to_zero(self):
        # at q = 0.2 one recurrence step near m = -160 grows by about
        # q^{2m} ~ 2^743, so the chain must renormalize on every step
        params = QParams(q=0.2, v=0.0)
        m_lo = -160
        tab = lattice_jv_table(params, m_lo, 0)
        assert np.all(np.isfinite(tab))
        nonzero = np.flatnonzero(tab)
        # values below double range are exactly 0, never subnormal, and they
        # are the deepest entries
        assert tab[0] == 0.0
        assert np.all(np.abs(tab[nonzero]) >= np.finfo(float).tiny)
        assert np.array_equal(nonzero, np.arange(nonzero[0], tab.size))
        p2v = params.q ** (2.0 * params.v)
        checked = 0
        for m in range(m_lo, -2):
            lhs, mid, top = tab[m - m_lo], tab[m - m_lo + 1], tab[m - m_lo + 2]
            if 0.0 in (lhs, mid, top):
                continue
            a = (1.0 + p2v - params.q ** (2 * m + 2)) * mid
            b = p2v * top
            scale = max(abs(lhs), abs(a), abs(b), 1e-300)
            assert abs(lhs - (a - b)) / scale < 1e-12
            checked += 1
        assert checked > 10

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            lattice_jv_table(QParams(q=0.5), 5, 4)

    def test_window_without_negative_part(self):
        params = QParams(q=0.5, v=0.0)
        tab = lattice_jv_table(params, 2, 6)
        assert tab.shape == (5,)
        assert tab[0] == pytest.approx(
            hahn_exton_jv(0.25, 0.25, 0.0), rel=1e-14
        )

    def test_envelope_constant_for_nonnegative_m(self, params):
        env = bessel_bound_envelope(params, np.array([0, 5, 50]))
        assert np.allclose(env, params.bessel_bound_constant)

    def test_envelope_decays_superexponentially(self, params):
        env = bessel_bound_envelope(params, np.array([-5, -10, -20]))
        assert env[0] > env[1] > env[2]
        q, v = params.q, params.v
        expect = params.bessel_bound_constant * q ** (100.0 - 10.0 * (2 * v + 1))
        assert env[1] == pytest.approx(expect, rel=1e-10)


def _scalar_series(z, q_base, v):
    """The one-point series loop, in Python floats, as the array path must
    reproduce it operation for operation."""
    qv1 = q_base ** (v + 1.0)
    denom_floor = abs(qharm.qlattice.q_pochhammer_infinite(q_base, q_base)) * abs(
        qharm.qlattice.q_pochhammer_infinite(qv1, q_base)
    )
    z2 = z * z
    total = comp = 0.0
    term = max_term = 1.0
    n = 0
    while True:
        t = term if n % 2 == 0 else -term
        s = total + t
        comp += (total - s) + t if abs(total) >= abs(t) else (t - s) + total
        total = s
        max_term = max(max_term, abs(term))
        n += 1
        qn = q_base ** n
        term *= qn * z2 / ((1.0 - qn) * (1.0 - qv1 * qn / q_base))
        if qn * z2 < 1.0 and term / denom_floor < 1e-18 * (1.0 + abs(total)):
            break
    value = total + comp
    cancel = 2.3e-16 * max_term > 1e-11 * abs(value) if value else max_term > 1.0
    return value, max_term, cancel


class TestSeriesArrayPath:
    @pytest.mark.parametrize("regime", list(TABLE_SHA256), ids=str)
    def test_table_bytes_pinned(self, regime):
        q, v, n_min, n_max = regime
        table = build_transform_table(QParams(q, v), QLattice(q, n_min, n_max))
        digest = hashlib.sha256(table.bessel_values.tobytes()).hexdigest()
        assert digest == TABLE_SHA256[regime]

    def test_z_free_products_computed_once_per_table(self, monkeypatch):
        params = QParams(0.9, 1.5)
        calls = []
        inner = qharm.qlattice.q_pochhammer_infinite

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(qharm.qlattice, "q_pochhammer_infinite", counting)
        lattice_jv_table(params, -60, 320)
        assert len(calls) <= 2

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95])
    @pytest.mark.parametrize("v", [0.0, 1.5])
    def test_array_matches_scalar_exactly(self, q, v):
        z = np.array([q ** m for m in range(4)])
        arr = hahn_exton_jv_detail(z, q * q, v)
        tab = lattice_jv_table(QParams(q, v), 0, 3)
        for m in range(4):
            one = hahn_exton_jv_detail(q ** m, q * q, v)
            assert type(one.value) is float and type(one.cancellation) is bool
            assert (arr.value[m], arr.max_term[m], arr.cancellation[m]) == one
            assert tab[m] == one.value

    @pytest.mark.parametrize("q_base", [0.25, 0.81, 0.9025, 0.9409])
    def test_matches_python_float_loop(self, q_base):
        # unsorted arguments that need very different numbers of terms, in a
        # 2-d shape, so points leave the active set at different n
        z = np.array([[5.0, 0.0, 9.0, 0.3], [32.0, 1.0, 2.0, 0.7]])
        arr = hahn_exton_jv_detail(z, q_base, 1.5)
        assert arr.value.shape == arr.max_term.shape == arr.cancellation.shape == z.shape
        for idx in np.ndindex(z.shape):
            expect = _scalar_series(float(z[idx]), q_base, 1.5)
            assert (arr.value[idx], arr.max_term[idx], arr.cancellation[idx]) == expect
            assert hahn_exton_jv_detail(float(z[idx]), q_base, 1.5) == expect

