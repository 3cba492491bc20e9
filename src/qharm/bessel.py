"""Lattice tables of the normalized Hahn-Exton q-Bessel function.

Transform kernels only ever need j_v(q^m, q^2) at integer exponents m, and
the table is filled by the three-term recurrence in the argument exponent,

    j(q^m) = (1 + q^{2v} - q^{2m+2}) j(q^{m+1}) - q^{2v} j(q^{m+2}),

whose two solutions behave like 1 and q^{-2vm} as m grows.  Far out in m the
defining series is its first two terms to within half an ulp, and the table
takes them in closed form.  Below that the series is summed at two seed
exponents only, where its terms shrink from the first one on and nothing
cancels, and the recurrence runs from them in its stable direction
(Gautschi, SIAM Review 9, 1967): downward to m = 0 for v >= 0, downward and
upward for -1 < v < 0.

For m < 0 the series cancels catastrophically (the true value decays like
q^{m^2} while intermediate terms explode), so the recurrence is run upward
from tiny seeds well below the window (Miller's algorithm: the desired
solution is minimal in the downward direction, so contamination from the
dominant solution dies off as the recurrence climbs) and normalized against
the table value at one m in 0..3.  The dynamic range of j along the chain
exceeds what a double can hold, so the chain carries plain floats at one
power-of-two scale and rescales them, exactly, only when they near the top
of the double range.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import PrecisionLossError
from .qlattice import QParams, _jv_series, hahn_exton_jv_detail

# extra recurrence steps below the lowest requested exponent; contamination
# decays superexponentially with this margin
_SEED_MARGIN = 16

_MIN_EXP = -1020  # below this base-2 scale a double underflows anyway

# relative error a series value may carry when no lattice fallback applies;
# the oracle pins hold cancelling arguments to the same tolerance
_MAX_SERIES_LOSS = 1e-9


def lattice_jv_table(params: QParams, m_lo: int, m_hi: int) -> np.ndarray:
    """j_v(q^m, q^2) for m in [m_lo, m_hi], index offset by m_lo.

    m_two is the first m >= 3 where the series' n = 2 term drops below 2^-55.
    Above m_two + 2 the entries are the two-term series 1 - q^{2m+2} / d1,
    in one array expression; from 0 to m_two + 2 they come from the
    recurrence on series seeds at m_two + 1 and m_two + 2 (v >= 0), and for
    m < 0 from the scaled Miller recurrence.
    """
    if m_lo > m_hi:
        raise ValueError("empty exponent range")
    q, v = params.q, params.v
    q2 = q * q
    p2v = q ** (2.0 * v)
    # the series' n = 1 term is q^{2m+2} / d1, its n = 2 term q^{4m+6} / (d1 d2)
    d1 = (1.0 - q2) * (1.0 - q ** (2.0 * v + 2.0))
    d2 = (1.0 - q2 * q2) * (1.0 - q ** (2.0 * v + 4.0))
    # first m >= 0 whose series terms shrink from the first one on: the term
    # ratio is largest at n = 1, where it is q^{2m+2} / d1
    m_safe = max(0, math.ceil(math.log(d1 / q2) / (2.0 * math.log(q))))
    # from m_two on the series alternates with terms shrinking from n = 1 and
    # the n = 2 term is below 2^-55, so two terms are within half an ulp:
    # q^{4m+6} / (d1 d2) < 2^-55 once 4m + 6 > n2_exp.  m_two >= 3 keeps the
    # Miller chain's normalization values at m in 0..3 on the recurrence
    n2_exp = (math.log(d1 * d2) - 55.0 * math.log(2.0)) / math.log(q)
    m_two = max(3, math.floor(n2_exp - 6.0) // 4 + 1)
    top = max(m_hi, 3)
    # for v >= 0 the seeds sit one step above m_two; where the downward run
    # starts moves only its roundoff
    seed = m_safe if v < 0.0 else max(m_safe, min(top, m_two + 1))
    last = max(seed + 1, min(top, m_two + 2))
    pos = [0.0] * (last + 1)  # j at m = 0, 1, ..., last; the closed form above
    for m in (seed, seed + 1):
        pos[m] = _jv_series(q ** m, q2, v, params.jv_denom_floor).value
    # downward the solution near 1 dominates the one like q^{-2vm} for v >= 0;
    # for v < 0 the latter grows by at most q^{-2|v| seed} on the way down
    for m in range(seed - 1, -1, -1):
        pos[m] = (1.0 + p2v - q ** (2 * m + 2)) * pos[m + 1] - p2v * pos[m + 2]
    # upward (v < 0 only) the solution near 1 dominates
    for m in range(seed, last - 1):
        pos[m + 2] = ((1.0 + p2v - q ** (2 * m + 2)) * pos[m + 1] - pos[m]) / p2v
    out = np.empty(m_hi - m_lo + 1, dtype=float)
    if m_hi >= 0:
        lo = max(m_lo, 0)
        hi = min(m_hi, last)
        if hi >= lo:
            out[lo - m_lo : hi + 1 - m_lo] = pos[lo : hi + 1]
        if m_hi > last:
            tail = np.arange(max(lo, last + 1), m_hi + 1)
            out[tail[0] - m_lo :] = 1.0 - q ** (2.0 * tail + 2.0) / d1

    if m_lo < 0:
        start = m_lo - _SEED_MARGIN
        # each upward chain step above m = 0 grows the unwanted solution by
        # q^{-2v} (v > 0), and a value near a zero of j carries a large
        # relative error: normalize where the two weigh least
        weight = [abs(pos[m]) * q ** (2.0 * max(v, 0.0) * m) for m in range(4)]
        m_ref = weight.index(max(weight))
        # one step multiplies |j| by at most (2 + p2v) / p2v + q^{2m+2} / p2v,
        # largest at m = start; below 2^(1020 - g) the next step stays finite
        lg = math.log2(q)
        g = max((2 * start + 2 - 2.0 * v) * lg, math.log2((2.0 + p2v) / p2v)) + 2.0
        limit = math.ldexp(1.0, 1020 - math.ceil(g))
        one_p, inv = 1.0 + p2v, 1.0 / p2v
        # j at exponent start + i is chain[i] * 2**shift[i] (up to one global
        # scale), shift[i] being the sum of the rescales made before entry i
        chain, shift = [0.0, 1.0], [0, 0]
        x0, x1, s = 0.0, 1.0, 0
        for m in range(start, m_ref - 1):
            x0, x1 = x1, (x1 * (one_p - q ** (2 * m + 2)) - x0) * inv
            chain.append(x1)
            shift.append(s)
            if not -limit <= x1 <= limit:
                x1, e = math.frexp(x1)
                x0 = math.ldexp(x0, -e)
                s += e
        ref = m_ref - start
        mant_ref, e_ref = math.frexp(chain[ref])
        if mant_ref == 0.0:
            raise ZeroDivisionError("Miller chain lost the reference value")
        kept = slice(m_lo - start, min(0, m_hi + 1) - start)
        mant, expo = np.frexp(chain[kept])
        mt, e = np.frexp(mant * (pos[m_ref] / mant_ref))
        e += expo + np.array(shift[kept]) - (shift[ref] + e_ref)
        mt[e < _MIN_EXP] = 0.0
        if np.any(mt[e > 1024]):
            raise OverflowError("scaled chain value exceeds double range")
        out[: kept.stop - kept.start] = np.ldexp(mt, e)
    return out


def hahn_exton_jv(z: float, q_base: float, v: float) -> float:
    """Normalized Hahn-Exton j_v(z, q_base): the series of
    :func:`hahn_exton_jv_detail`, checked for cancellation.

    When the alternating series loses precision and z sits on the lattice
    z = q^m (q = sqrt(q_base), any integer m), the value is taken from the
    recurrence table instead, which carries no cancellation.  Any other
    cancelling argument keeps the flagged series value when its estimated
    relative error eps * max_term / |value| stays within 1e-9, and raises
    PrecisionLossError otherwise: there is no better double-precision route
    for those.
    """
    detail = hahn_exton_jv_detail(z, q_base, v)
    if not detail.cancellation:
        return detail.value
    q = math.sqrt(q_base)
    m_real = math.log(z) / math.log(q)
    m = round(m_real)
    if abs(m_real - m) <= 1e-8:
        return float(lattice_jv_table(QParams(q=q, v=v), m, m)[0])
    loss = 2.3e-16 * detail.max_term / abs(detail.value) if detail.value else math.inf
    if loss > _MAX_SERIES_LOSS:
        raise PrecisionLossError(
            f"j_v({z}, {q_base}) series loses precision to cancellation: estimated "
            f"relative error {loss:.1e} exceeds {_MAX_SERIES_LOSS:g}"
        )
    return detail.value


def bessel_bound_envelope(params: QParams, m: np.ndarray) -> np.ndarray:
    """Lattice decay bound: constant for m >= 0, constant * q^{m^2+(2v+1)m}
    for m < 0."""
    const = params.bessel_bound_constant
    m = np.asarray(m, dtype=float)
    expo = np.where(m < 0, m * m + (2.0 * params.v + 1.0) * m, 0.0)
    # q^expo can overflow double for very negative m; go through logs
    log_env = math.log(const) + expo * math.log(params.q)
    with np.errstate(over="ignore"):
        return np.exp(np.minimum(log_env, 700.0))
