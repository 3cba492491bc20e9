"""Independent mpmath references for the benchmark checks.

Nothing here imports qharm.  Every quantity is computed from its defining
product or series with mpmath, at a working precision sized for the value
asked for: an alternating sum whose largest term is 10^a and whose value is
10^b loses a - b digits, so the precision is log10(max term) - log10|value|
plus a margin.  A fixed 50-60 digits is not enough for the kernel at large
negative exponents: at q = 0.9, v = 1.5 the largest term of j_v(q^m, q^2)
exceeds the value by 89 orders of magnitude at m = -30 and by 267 at m = -53.

Parameters may be floats (the exact binary values qharm receives) or decimal
strings (as in the frozen oracle pins).
"""
from __future__ import annotations

import math
from typing import Dict, List, Sequence

import mpmath as mp

# correct digits asked of every reference value; the benchmark checks
# doubles, the oracle-pin test asks for 60
DIGITS = 30


def _mpf(x) -> mp.mpf:
    return x if isinstance(x, mp.mpf) else mp.mpf(x)


def qpoch_inf(a, q) -> mp.mpf:
    """(a; q)_infinity by its product, to the current working precision."""
    a, q = _mpf(a), _mpf(q)
    eps = mp.mpf(10) ** (-(mp.mp.dps + 5))
    out = mp.mpf(1)
    term = a
    while abs(term) > eps:
        out *= 1 - term
        term *= q
    return out


def q_exp(z, q) -> mp.mpf:
    """e(z, q) = 1 / (z; q)_infinity."""
    return 1 / qpoch_inf(z, q)


def c_qv(q, v, digits: int = DIGITS) -> mp.mpf:
    """(q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf)."""
    with mp.workdps(digits + 10):
        q, v = _mpf(q), _mpf(v)
        q2 = q * q
        return qpoch_inf(q ** (2 * v + 2), q2) / qpoch_inf(q2, q2) / (1 - q)


def big_b_qv(q, v, digits: int = DIGITS) -> mp.mpf:
    """(-q^2; q^2)_inf (-q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf)."""
    with mp.workdps(digits + 10):
        q, v = _mpf(q), _mpf(v)
        q2 = q * q
        return (
            qpoch_inf(-q2, q2)
            * qpoch_inf(-(q ** (2 * v + 2)), q2)
            / qpoch_inf(q2, q2)
            / (1 - q)
        )


def _log10_max_term(z: float, p: float, v: float) -> float:
    """log10 of the largest term of the Hahn-Exton series, from float logs."""
    lz, lp = math.log10(abs(z)) if z else -400.0, math.log10(p)
    pv1 = p ** (v + 1.0)
    best = 0.0
    log_term = 0.0
    k = 0
    while True:
        k += 1
        # term_k / term_{k-1} = p^k z^2 / ((1-p^k)(1-p^{v+k}))
        log_term += (
            k * lp
            + 2.0 * lz
            - math.log10(1.0 - p**k)
            - math.log10(1.0 - pv1 * p ** (k - 1))
        )
        best = max(best, log_term)
        if log_term < best - 40.0 and k * lp + 2.0 * lz < 0.0:
            return best


def _jv_series(z: mp.mpf, p: mp.mpf, v: mp.mpf) -> mp.mpf:
    """sum_k (-1)^k p^{k(k+1)/2} z^{2k} / ((p;p)_k (p^{v+1};p)_k)."""
    pv1 = p ** (v + 1)
    z2 = z * z
    total = mp.mpf(0)
    term = mp.mpf(1)
    eps = mp.mpf(10) ** (-(mp.mp.dps + 5))
    k = 0
    while True:
        total += term
        k += 1
        pk = p**k
        term *= -pk * z2 / ((1 - pk) * (1 - pv1 * p ** (k - 1)))
        if abs(term) < eps * abs(total) and pk * z2 < 1:
            return total


def _sized(series, lmax: float, digits: int) -> mp.mpf:
    """Evaluate ``series()`` at a precision sized to its cancellation.

    The sum is first taken at log10(max term) + digits; if the value then
    shows a larger cancellation than that covers, it is summed again with
    log10(max term) - log10|value| + digits.  The
    callable builds its own arguments, so they carry the same precision as
    the sum: at a lattice point z = q^m the value is small only because z
    and the base q^2 are exactly related, and rounding either one to fewer
    digits than the sum carries turns the cancellation into noise.
    """
    dps = int(lmax) + digits
    while True:
        with mp.workdps(dps):
            val = series()
        if val == 0:
            dps *= 2
            continue
        need = int(lmax - float(mp.log10(abs(val)))) + digits
        if need <= dps:
            return val
        dps = need


def jv(z, p, v, digits: int = DIGITS) -> mp.mpf:
    """Normalized Hahn-Exton j_v(z, p), precision sized to the value."""
    lmax = _log10_max_term(float(z), float(p), float(v))
    return _sized(lambda: _jv_series(_mpf(z), _mpf(p), _mpf(v)), lmax, digits)


def jv_lattice(q, v, m: int, digits: int = DIGITS) -> mp.mpf:
    """j_v(q^m, q^2) at the integer exponent m."""
    lmax = _log10_max_term(float(q) ** m, float(q) ** 2, float(v))

    def series() -> mp.mpf:
        qq = _mpf(q)
        return _jv_series(qq**m, qq * qq, _mpf(v))

    return _sized(series, lmax, digits)


def kernel_table(q: float, v: float, m_lo: int, m_hi: int) -> List[float]:
    """Floats j_v(q^m, q^2) for m in [m_lo, m_hi], rounded once."""
    return [float(jv_lattice(q, v, m)) for m in range(m_lo, m_hi + 1)]


def q_gaussian_window(t, q, n_min: int, n_max: int) -> List[mp.mpf]:
    """e(-t q^{2n}, q^2) for n in [n_min, n_max].

    One full product at n_max, then the product's own telescoping
    e(z) = e(z q^2) / (1 - z) walks down the window, one factor a point.
    """
    with mp.workdps(DIGITS + 10):
        t, q = _mpf(t), _mpf(q)
        q2 = q * q
        vals = [q_exp(-t * q ** (2 * n_max), q2)]
        for n in range(n_max - 1, n_min - 1, -1):
            vals.append(vals[-1] / (1 + t * q ** (2 * n)))
        return vals[::-1]


def _gauss_prefactor(t: mp.mpf, q: mp.mpf, v: mp.mpf) -> mp.mpf:
    q2 = q * q
    qm2v = q ** (-2 * v)
    num = qpoch_inf(-(q ** (2 * v + 2)) * t, q2) * qpoch_inf(-qm2v / t, q2)
    return num / (qpoch_inf(-t, q2) * qpoch_inf(-q2 / t, q2))


def gauss_kernel(x, t, q, v, digits: int = DIGITS) -> mp.mpf:
    """Closed-form q-Gauss kernel G^v(x, t, q^2); F of e(-t x^2, q^2)."""
    with mp.workdps(digits + 10):
        x, t, q, v = _mpf(x), _mpf(t), _mpf(q), _mpf(v)
        return _gauss_prefactor(t, q, v) * q_exp(-(q ** (-2 * v)) * x * x / t, q * q)


def regime_reference(
    q: float, v: float, n_min: int, n_max: int, widths: Sequence[int] = ()
) -> Dict[str, object]:
    """Everything the float checks of one (q, v, window) regime need.

    ``table`` holds j_v(q^m, q^2) for every exponent sum 2 n_min..2 n_max;
    for each width exponent w, ``gauss[w]`` is G^v(q^n, q^{2w}) over the
    window (with its value at x = 0 last) and ``density[w]`` the q-Gaussian
    e(-q^{2w} x^2, q^2) that G is the transform of.
    """
    out: Dict[str, object] = {
        "q": q,
        "v": v,
        "n_min": n_min,
        "n_max": n_max,
        "c_qv": float(c_qv(q, v)),
        "B_qv": float(big_b_qv(q, v)),
        "table": kernel_table(q, v, 2 * n_min, 2 * n_max),
        "gauss": {},
        "density": {},
    }
    for w in widths:
        with mp.workdps(DIGITS + 10):
            qq, vv = _mpf(q), _mpf(v)
            t = qq ** (2 * w)
            pref = _gauss_prefactor(t, qq, vv)
            decay = q_gaussian_window(qq ** (-2 * vv) / t, qq, n_min, n_max)
            gauss = [pref * e for e in decay] + [pref]
        out["gauss"][str(w)] = [float(g) for g in gauss]
        out["density"][str(w)] = [float(d) for d in q_gaussian_window(t, q, n_min, n_max)]
    return out
