import numpy as np
import pytest

from qharm import QParams, bessel_bound_envelope, hahn_exton_jv, lattice_jv_table


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
