import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qharm import (
    LatticeFunction,
    PoleProximityError,
    QLattice,
    QParams,
    TruncationCapError,
    build_transform_table,
    hahn_exton_jv,
    hahn_exton_jv_detail,
    jackson_integral,
    lp_norm,
    q_exponential,
    q_pochhammer_finite,
    q_pochhammer_infinite,
)
from qharm.qlattice import (
    _lattice_q_gaussian,
    jackson_integral_detail,
)
from qharm.testfunctions import gaussian_density


def _pochhammer_loop(a, q):
    """(a;q)_inf as a factor loop that stops at the first |a| q^i below 1e-18,
    raising after 10000 factors; the array product must agree with it."""
    out = 1.0
    mag = abs(a)
    for i in range(10000):
        if mag < 1e-18:
            return out, i
        out *= 1.0 - a * (q**i)
        mag *= q
    raise TruncationCapError("loop cap")


class TestPochhammer:
    def test_empty_product(self):
        assert q_pochhammer_finite(0.3, 0.5, 0) == 1.0

    def test_single_factor(self):
        assert q_pochhammer_finite(0.5, 0.5, 1) == 0.5

    def test_matches_manual_product(self):
        a, q = 0.3, 0.6
        expect = (1 - a) * (1 - a * q) * (1 - a * q * q)
        assert q_pochhammer_finite(a, q, 3) == pytest.approx(expect, rel=1e-15)

    def test_infinite_at_zero_argument(self):
        assert q_pochhammer_infinite(0.0, 0.5) == 1.0

    def test_infinite_extends_finite(self):
        a, q = 0.4, 0.5
        inf = q_pochhammer_infinite(a, q)
        # (a;q)_inf = (a;q)_n (a q^n; q)_inf
        n = 7
        split = q_pochhammer_finite(a, q, n) * q_pochhammer_infinite(a * q ** n, q)
        assert inf == pytest.approx(split, rel=1e-14)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
    def test_infinite_matches_factor_loop(self, q):
        # the array product and the loop round each power q^i and the running
        # product differently, so they part like a random walk over n factors
        values = (0.3, -0.7, 0.95, -2.5, -40.0, 1e-20, 0.0, 0.5 + 0.5j, -1.2 + 0.3j, 2j, 3 - 4j)
        for a in values:
            want, n = _pochhammer_loop(a, q)
            got = q_pochhammer_infinite(a, q)
            assert type(got) is (complex if isinstance(a, complex) else float)
            tol = 2.0 * math.sqrt(max(n, 1)) * np.finfo(float).eps
            assert got == pytest.approx(want, rel=tol, abs=0.0)
        # one call for all of them: real and complex entries alike, so the
        # finite products only (at q = 0.99, (-40; q)_inf is past double range)
        finite = [a for a in values if math.isfinite(abs(q_pochhammer_infinite(a, q)))]
        both = q_pochhammer_infinite(np.array(finite), q)
        assert both.shape == (len(finite),)
        for a, got in zip(finite, both):
            assert got == pytest.approx(q_pochhammer_infinite(a, q), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "a, q", [(0.5, 0.999), (1e-3, 0.9999), (-3.0 + 1j, 0.999), (math.inf, 0.5), (math.nan, 0.5)]
    )
    def test_infinite_raises_where_factor_loop_raises(self, a, q):
        with pytest.raises(TruncationCapError):
            _pochhammer_loop(a, q)
        with pytest.raises(TruncationCapError):
            q_pochhammer_infinite(a, q)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            q_pochhammer_finite(0.5, 1.5, 2)
        with pytest.raises(ValueError):
            q_pochhammer_infinite(0.5, 0.0)

    @given(
        a=st.floats(-2.0, 0.99),
        q=st.floats(0.05, 0.95),
        n=st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, a, q, n):
        left = q_pochhammer_finite(a, q, n + 1)
        right = q_pochhammer_finite(a, q, n) * (1.0 - a * q ** n)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


class TestQExponential:
    def test_at_zero(self):
        assert q_exponential(0.0, 0.5) == 1.0

    def test_reciprocal_of_pochhammer(self):
        z, q = -0.7, 0.5
        assert q_exponential(z, q) * q_pochhammer_infinite(z, q) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_pole_raises(self):
        with pytest.raises(PoleProximityError):
            q_exponential(1.0, 0.5)
        with pytest.raises(PoleProximityError):
            q_exponential(2.0, 0.5)  # z = q^{-1}

    def test_negative_argument_positive_value(self):
        val = q_exponential(-3.0, 0.25)
        assert 0.0 < val.real < 1.0

    def test_ndarray_refused(self):
        for z in (np.array(-0.5), np.array([-0.5, 0.25]), -QLattice(0.5, -2, 4).points):
            with pytest.raises(TypeError):
                q_exponential(z, 0.5)

    @pytest.mark.parametrize("spare", [-1, 0, 1])
    def test_cap_at_the_factor_count(self, spare, monkeypatch):
        # the lattice product raises where the scalar loop does at the
        # window's largest point, which succeeds only below the cap
        lat = QLattice(0.5, -20, 60)
        z = -(0.5 ** (2.0 * lat.n_min))
        mag, count = -z, 0
        while mag >= 1e-18:
            mag *= 0.25
            count += 1
        monkeypatch.setattr("qharm.qlattice.DEFAULT_MAX_TERMS", count + spare)
        if spare > 0:
            got = _lattice_q_gaussian(1.0, lat)[0]
            assert got == pytest.approx(q_exponential(z, 0.25), rel=1e-13, abs=0.0)
        else:
            with pytest.raises(TruncationCapError):
                q_exponential(z, 0.25)
            with pytest.raises(TruncationCapError):
                _lattice_q_gaussian(1.0, lat)

    @pytest.mark.parametrize("kind", [float, complex])
    def test_pole_before_the_cap(self, kind):
        # q^-6000 needs more factors than the cap, but the loop meets its
        # pole at factor 6000 first
        with pytest.raises(PoleProximityError, match="pole q\\^-6000$"):
            q_exponential(kind(0.99 ** -6000), 0.99)
        with pytest.raises(TruncationCapError):
            q_exponential(kind(-1e30), 0.99)

    @pytest.mark.parametrize(
        "zs, cap",
        [
            ([-1.0, 0.5, 2.0], 10000),  # 2 = q^-1 is a pole
            ([0.25, 1.0 + 1e-14], 10000),  # within tolerance of the pole at 1
            ([1e-19, -50.0], 5),  # -50 needs more than 5 factors
            ([-1.0, 0.5, 3.0, 1e-19], 10000),
            ([0.1j, -3.0 + 1e-3j, 2.0 + 1e-3j], 10000),
        ],
    )
    def test_array_raises_where_scalar_raises(self, zs, cap, monkeypatch):
        # the loop raises at a zero of (z;q)_inf and past the cap, and
        # otherwise gives the reciprocal of the product; an array of the
        # points is refused (test_ndarray_refused)
        monkeypatch.setattr("qharm.qlattice.DEFAULT_MAX_TERMS", cap)
        for z in zs:
            try:
                val = q_exponential(z, 0.5)
            except PoleProximityError:
                assert abs(q_pochhammer_infinite(z, 0.5)) < 1e-12
            except TruncationCapError:
                with pytest.raises(TruncationCapError):
                    q_pochhammer_infinite(z, 0.5)
            else:
                assert val * q_pochhammer_infinite(z, 0.5) == pytest.approx(1.0, rel=1e-14)


class TestLatticeQGaussian:
    # e(-q^{2n+2}, q^2) at the window's n_min in mpmath (60 digits), q the
    # same double: 2.262686690249457875478293e-42 at q = 0.95 and
    # 1.098875624460437506296251e-59 at q = 0.99
    PINS = {
        (0.95, -40, 320): 2.262686690249458e-42,
        (0.99, -80, 1600): 1.0988756244604376e-59,
    }

    @pytest.mark.parametrize("window", sorted(PINS), ids=str)
    def test_density_meets_the_exact_lattice_value(self, window):
        q, n_min, n_max = window
        table = build_transform_table(QParams(q), QLattice(q, n_min, n_max))
        got = gaussian_density(table, width_exp=1).values[0]
        assert got == pytest.approx(self.PINS[window], rel=1.5e-14, abs=0.0)


class TestHahnExtonJv:
    def test_at_zero_is_one(self):
        assert hahn_exton_jv(0.0, 0.25, 0.0) == 1.0

    def test_two_term_check(self):
        # truncated by hand: 1 - q z^2 / ((1-q)(1-q^{v+1})) + O(z^4)
        q, v, z = 0.25, 0.0, 0.01
        lead = 1.0 - q * z * z / ((1.0 - q) * (1.0 - q ** (v + 1.0)))
        assert hahn_exton_jv(z, q, v) == pytest.approx(lead, abs=1e-7)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            hahn_exton_jv(-1.0, 0.25, 0.0)

    def test_cancellation_flagged_for_large_z(self):
        res = hahn_exton_jv_detail(32.0, 0.25, 0.0)
        assert res.max_term > 1e6
        assert res.cancellation

    def test_no_cancellation_for_small_z(self):
        res = hahn_exton_jv_detail(0.5, 0.25, 0.0)
        assert not res.cancellation

    @given(z=st.floats(0.0, 2.0), v=st.floats(-0.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_on_moderate_arguments(self, z, v):
        params = QParams(q=0.5, v=v)
        val = hahn_exton_jv(z, 0.25, v)
        assert abs(val) <= params.bessel_bound_constant + 1e-9


class TestQParams:
    def test_constants_positive(self):
        p = QParams(q=0.5, v=0.0)
        assert p.c_qv > 0.0
        assert p.B_qv > 0.0
        assert p.bessel_bound_constant > 0.0

    def test_c_qv_v0_closed_form(self):
        # at v=0 the two Pochhammer products cancel: c = 1/(1-q)
        p = QParams(q=0.5, v=0.0)
        assert p.c_qv == pytest.approx(2.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            QParams(q=1.0)
        with pytest.raises(ValueError):
            QParams(q=0.5, v=-1.0)
        # QParams is (q, v) only: a truncation setting is refused
        with pytest.raises(TypeError):
            QParams(q=0.5, trunc_tol=0.0)


class TestQLattice:
    def test_points_and_indices(self):
        lat = QLattice(0.5, -2, 3)
        assert lat.size == 6
        assert list(lat.indices) == [-2, -1, 0, 1, 2, 3]
        np.testing.assert_allclose(lat.points, [4.0, 2.0, 1.0, 0.5, 0.25, 0.125])

    def test_index_of(self):
        lat = QLattice(0.5, -2, 3)
        assert lat.index_of(-2) == 0
        assert lat.index_of(3) == 5
        with pytest.raises(ValueError):
            lat.index_of(4)

    def test_straddles_one(self):
        assert QLattice(0.5, -1, 1).straddles_one()
        assert not QLattice(0.5, 0, 5).straddles_one()

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            QLattice(0.5, 3, 2)


class TestLatticeFunction:
    def test_shape_validation(self):
        lat = QLattice(0.5, 0, 4)
        with pytest.raises(ValueError):
            LatticeFunction(lat, np.zeros(3))

    def test_nonfinite_rejected(self):
        lat = QLattice(0.5, 0, 2)
        with pytest.raises(ValueError):
            LatticeFunction(lat, np.array([1.0, np.inf, 0.0]))

    def test_from_callable(self):
        lat = QLattice(0.5, -1, 2)
        f = LatticeFunction.from_callable(lat, lambda x: x * x)
        np.testing.assert_allclose(f.values, lat.points ** 2)

    def test_is_real(self):
        lat = QLattice(0.5, 0, 1)
        assert LatticeFunction(lat, np.array([1.0, 2.0])).is_real
        assert not LatticeFunction(lat, np.array([1.0 + 1j, 2.0])).is_real


class TestJacksonIntegral:
    def test_geometric_sum(self):
        # f = 1 on [0, N]: (1-q) sum q^n -> 1 - q^{N+1}
        q = 0.5
        lat = QLattice(q, 0, 30)
        f = LatticeFunction(lat, np.ones(lat.size))
        assert jackson_integral(f) == pytest.approx(1.0 - q ** 31, rel=1e-14)

    def test_edge_terms_reported(self):
        lat = QLattice(0.5, -3, 3)
        f = LatticeFunction(lat, np.ones(lat.size))
        res = jackson_integral_detail(f)
        assert res.head_term == pytest.approx(8.0)
        assert res.tail_term == pytest.approx(0.125)

    def test_lp_norm_monotone_in_p_for_small_values(self):
        params = QParams(q=0.5, v=0.0)
        lat = QLattice(0.5, -5, 20)
        f = LatticeFunction(lat, np.full(lat.size, 0.5))
        assert lp_norm(f, 1.0, params) > 0.0
        with pytest.raises(ValueError):
            lp_norm(f, 0.5, params)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_lp_norm_refuses_non_finite_p(self, p):
        # p = inf once gave 1.0 for both constants below, and p = nan gave nan
        params = QParams(q=0.5, v=0.0)
        lat = QLattice(0.5, -5, 5)
        for c in (3.0, 0.1):
            with pytest.raises(ValueError):
                lp_norm(LatticeFunction(lat, np.full(lat.size, c)), p, params)
