import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import qharm.bessel
import qharm.qlattice
from qharm import (
    PrecisionLossError,
    QLattice,
    QParams,
    bessel_bound_envelope,
    build_transform_table,
    hahn_exton_jv,
    hahn_exton_jv_detail,
    lattice_jv_table,
)

# sha256 of build_transform_table(...).bessel_values for (q, v, n_min, n_max),
# computed with the closed-form tail above m_two and the two-seed recurrence
# below it
TABLE_SHA256 = {
    (0.5, 0.0, -20, 60): "cbaf0780cf962fb338a21cd5c22878f162f9807763a5b287bbb0a545ad8422fc",
    (0.9, 1.5, -30, 160): "4060a66d4fddf5bdcb8cfd45c5f21e257bf66d9530450b014ea5ca5f8b039724",
    (0.95, 0.0, -40, 320): "688d3f87f835e987f1071c2c8b269aeb8acfcbc07405ef0f76018f5e8795d92a",
    (0.97, 0.0, -50, 550): "d55796aeba5e5471b46afe4efaec3d56855bf48d9bb8aa886873ebae3ae10ec2",
    (0.3, 1.5, -45, 15): "1f648937490593fb11e7e3395c08b26dadc328da79f48a6d1b029f16fe08db4c",
}

# sha256 over lattice_jv_table(QParams(q, v), m_lo, -1) on the grid below, the
# name of the exception folded in where a case raises (at q = 0.1, m_lo = -160
# the first chain coefficient q^{2m+2} overflows); the chain kept as one frexp
# mantissa and exponent per entry gave the same digest
MILLER_GRID = (
    (0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97),
    (-0.9, -0.5, 0.0, 0.5, 1.5, 3.0),
    (-3, -10, -20, -45, -60, -100, -160),
)
MILLER_SHA256 = "314f731877485b039b8a4079831663ca958c9906d969af501b4f08c5aa4ad1e0"

# sha256 over lattice_jv_table(QParams(q, v), m_lo, m_hi) on each (q, v,
# window) grid, for the three parts of the table that the pins above leave
# out: "upward", v < 0 tables past m_two + 2, whose head runs the recurrence
# upward to m_two + 2 and whose tail is the closed form; "short", tables with
# 0 <= m_hi < m_two + 2, whose head stops at the table top; "deep", windows
# whose Miller chain is rescaled inside the entries it returns
PART_GRIDS = {
    "upward": ((0.3, 0.6, 0.9, 0.95), (-0.9, -0.5, -0.1), ((0, 400), (-10, 400), (-40, 420))),
    "short": (
        (0.5, 0.7, 0.9, 0.97),
        (-0.5, 0.0, 1.5),
        ((0, 0), (-3, 1), (-12, 3), (0, 10), (-20, 12)),
    ),
    "deep": ((0.7, 0.9, 0.95, 0.99), (-0.5, 0.0, 1.5), ((-300, -1), (-600, 5), (-900, 40))),
}
PART_SHA256 = {
    "upward": "411b072c57adc0d4ced8609ff26677882494be9b0292a19f494c495694c4a9dc",
    "short": "3fc770a495a71751bee43a000f783a5b54398e4c3363a8df74e8d49b01578bfd",
    "deep": "372512d4cb99d7547a70c5a2b87889d06f84287e8b726e3b510efc3fa10d4564",
}

# mpmath values of j_v(q^m, q^2), precision sized to each sum's cancellation
# (scripts/kernel_pins.py)
KERNEL_PINS = json.loads((Path(__file__).parent / "data" / "kernel_pins.json").read_text())


def truth(q, v):
    """{m: j_v(q^m, q^2)} of the pins at (q, v)."""
    return {p["m"]: float(p["value"]) for p in KERNEL_PINS if (p["q"], p["v"]) == (q, v)}


@pytest.fixture(params=[(0.5, 0.0), (0.5, 1.5), (0.9, 0.0), (0.9, 1.5)], ids=str)
def params(request):
    q, v = request.param
    return QParams(q=q, v=v)


class TestLatticeTable:
    def test_matches_series_for_nonnegative_exponents(self, params):
        # the defining series summed in mpmath; the double series itself is
        # 3.9e-13 off at q = 0.9, v = 0, m = 0
        tab = lattice_jv_table(params, 0, 20)
        want = truth(params.q, params.v)
        for m in range(0, 21):
            assert tab[m] == pytest.approx(want[m], rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("v", [1.5, 3.0])
    def test_miller_chain_matches_truth_at_small_q(self, v):
        # at q = 0.3 each chain step above m = 0 grows the unwanted solution
        # by q^{-2v}; normalizing at m = 3 cost 4.2e-8 (v = 3) here
        tab = lattice_jv_table(QParams(0.3, v), -15, 3)
        for m, want in truth(0.3, v).items():
            assert tab[m + 15] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("q", [0.95, 0.97, 0.99])
    def test_matches_truth_near_q_one(self, q):
        # the series cancels near m = 0 here (4e-9 at q = 0.95, 1e-3 at
        # q = 0.97); the Miller chain needs a deep window at q = 0.99
        m_lo = -80
        tab = lattice_jv_table(QParams(q, 0.0), m_lo, 3)
        for m, want in truth(q, 0.0).items():
            assert tab[m - m_lo] == pytest.approx(want, rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize(
        "q, v, m_lo, m_hi",
        [(0.5, 0.0, 20, 60), (0.5, -0.5, 30, 31), (0.9, 1.5, 100, 160), (0.5, 0.0, 10, 20)],
    )
    def test_window_above_the_recurrence_run(self, q, v, m_lo, m_hi):
        # windows starting above, or straddling, the last recurrence entry
        tab = lattice_jv_table(QParams(q=q, v=v), m_lo, m_hi)
        want = [hahn_exton_jv(q ** m, q * q, v) for m in range(m_lo, m_hi + 1)]
        np.testing.assert_allclose(tab, want, rtol=1e-14, atol=0.0)

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
    """The Python-float series loop, restated here so that any change to its
    arithmetic shows."""
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
    """Table bytes, the series seed count and the scalar series loop."""

    @pytest.mark.parametrize("regime", list(TABLE_SHA256), ids=str)
    def test_table_bytes_pinned(self, regime):
        q, v, n_min, n_max = regime
        table = build_transform_table(QParams(q, v), QLattice(q, n_min, n_max))
        digest = hashlib.sha256(table.bessel_values.tobytes()).hexdigest()
        assert digest == TABLE_SHA256[regime]
        pinned = {m: x for m, x in truth(q, v).items() if 2 * n_min <= m <= 2 * n_max}
        assert pinned
        for m, want in pinned.items():
            got = table.bessel_values[m - 2 * n_min]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_table_reads_z_free_products_from_params(self, monkeypatch):
        # the series seeds share (q^2;q^2)_inf and (q^{2v+2};q^2)_inf, which
        # QParams computes along with c_qv and B_qv: no q-product per table
        params = QParams(0.9, 1.5)
        calls = []
        inner = qharm.qlattice.q_pochhammer_infinite

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(qharm.qlattice, "q_pochhammer_infinite", counting)
        lattice_jv_table(params, -10, 40)
        lattice_jv_table(params, -60, 320)
        assert calls == []
        QParams(0.9, 1.5)
        assert len(calls) == 1

    def test_recurrence_head_kept_per_params_instance(self, monkeypatch):
        # a transform table and the probe's table from one QParams, as in a
        # q-scan pair: the second reuses the first one's series seeds and runs
        params = QParams(0.9, 1.5)
        fresh = [lattice_jv_table(QParams(0.9, 1.5), lo, hi) for lo, hi in ((-60, 320), (-10, 400))]
        seen = (repr(params), hash(params), [f.name for f in dataclasses.fields(params)])
        calls = []
        inner = qharm.bessel._jv_series

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(qharm.bessel, "_jv_series", counting)
        first = lattice_jv_table(params, -60, 320)
        second = lattice_jv_table(params, -10, 400)
        assert len(calls) == 2
        assert first.tobytes() == fresh[0].tobytes() and second.tobytes() == fresh[1].tobytes()
        # an equal instance keeps its own heads
        other = QParams(0.9, 1.5)
        assert other == params
        lattice_jv_table(other, -60, 320)
        assert len(calls) == 4
        assert (repr(params), hash(params), [f.name for f in dataclasses.fields(params)]) == seen
        assert params == QParams(0.9, 1.5) and hash(params) == hash(QParams(0.9, 1.5))

    def test_miller_chain_bytes_pinned(self):
        digest = hashlib.sha256()
        for q, v, m_lo in itertools.product(*MILLER_GRID):
            try:
                digest.update(lattice_jv_table(QParams(q, v), m_lo, -1).tobytes())
            except (OverflowError, ZeroDivisionError) as exc:
                digest.update(type(exc).__name__.encode())
        assert digest.hexdigest() == MILLER_SHA256

    @pytest.mark.parametrize("part", list(PART_GRIDS))
    def test_table_part_bytes_pinned(self, part):
        digest = hashlib.sha256()
        for q, v, (m_lo, m_hi) in itertools.product(*PART_GRIDS[part]):
            digest.update(lattice_jv_table(QParams(q, v), m_lo, m_hi).tobytes())
        assert digest.hexdigest() == PART_SHA256[part]

    def test_short_downward_run_matches_pins_at_q_095(self):
        # the downward run starts just above m_two (about 225 here), not at
        # the table top 640; from the top the m = 3 pin was 2.1e-13 off
        q, v, n_min, n_max = 0.95, 0.0, -40, 320
        table = build_transform_table(QParams(q, v), QLattice(q, n_min, n_max))
        pinned = truth(q, v)
        assert len(pinned) == 6
        for m, want in pinned.items():
            got = table.bessel_values[m - 2 * n_min]
            assert got == pytest.approx(want, rel=2e-14, abs=0.0)

    @pytest.mark.parametrize("q, v", [(0.3, 0.0), (0.9, -0.5), (0.95, 3.0)])
    def test_closed_form_tail_matches_series(self, q, v):
        # above m_two + 2, m_two being the first m whose n = 2 series term
        # q^{4m+6} / ((1-q^2)(1-q^4)(1-q^{2v+2})(1-q^{2v+4})) is below 2^-55,
        # the table is the two-term series; the summed series agrees to an ulp
        c2 = (1 - q**2) * (1 - q**4) * (1 - q ** (2 * v + 2)) * (1 - q ** (2 * v + 4))
        m_two = next(m for m in range(3, 10**4) if q ** (4 * m + 6) / c2 < 2.0**-55)
        tab = lattice_jv_table(QParams(q, v), 0, m_two + 60)
        for m in range(m_two + 3, m_two + 61):
            assert tab[m] == pytest.approx(hahn_exton_jv(q**m, q * q, v), rel=2.3e-16)

    @pytest.mark.parametrize("q_base", [0.25, 0.81, 0.9025, 0.9409])
    def test_matches_python_float_loop(self, q_base):
        # arguments that need very different numbers of terms
        for z in (5.0, 0.0, 9.0, 0.3, 32.0, 1.0, 2.0, 0.7):
            got = hahn_exton_jv_detail(z, q_base, 1.5)
            assert type(got.value) is float and type(got.cancellation) is bool
            assert got == _scalar_series(z, q_base, 1.5)


class TestCheckedScalar:
    """qharm.hahn_exton_jv serves or refuses a cancelling series, never returns it."""

    # mpmath values (perfbench/reference.jv); the raw series sums to 1.41e24
    # and -628.9 at these lattice arguments z = q^0
    @pytest.mark.parametrize(
        "q_base, want", [(0.98, 0.05736543116913019), (0.9604, 0.08344398505120142)]
    )
    def test_cancelling_lattice_argument_matches_mpmath(self, q_base, want):
        assert hahn_exton_jv_detail(1.0, q_base, 0.0).cancellation
        assert hahn_exton_jv(1.0, q_base, 0.0) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_cancelling_off_lattice_argument_refused(self):
        # the raw series sums to 2.35e44 here; mpmath gives -0.0646
        with pytest.raises(PrecisionLossError):
            hahn_exton_jv(1.5, 0.98, 0.0)
