"""Translation, convolution, the q-Gauss kernel and the positivity probe.

Translation is evaluated spectrally (one transform, one kernel-weighted
transform); the triple-product kernel D_v is only materialized for the
verification routes and the window positivity scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import LatticeMismatchError
from .qlattice import (
    LatticeFunction,
    QLattice,
    QParams,
    _lattice_q_gaussian,
    _lp_norms,
    q_exponential,
    q_pochhammer_infinite,
)
from .transform import (
    TransformTable,
    _at_zero,
    _check_lattice,
    _transform_rows,
    build_transform_table,
    fourier_transform,
)

# a scanned D_v value below -DEFAULT_PROBE_TOL is reported as negativity
DEFAULT_PROBE_TOL = 1e-10
# the probe builds D_v in blocks of x slabs whose (block, P, N) operand of
# the stacked product stays under this many bytes
_PROBE_BLOCK_BYTES = 1 << 20


def translation(
    f: LatticeFunction, x_exponent: int, table: TransformTable
) -> LatticeFunction:
    """T_x f(y) = c int F f(t) j_v(xt) j_v(yt) t^{2v+1} d_qt at x = q^{x_exponent}.

    Computed as the transform of F f multiplied by the Bessel row of x; the
    summation order is the ascending lattice order of the dense matrix
    product, so results are deterministic.
    """
    ff = fourier_transform(f, table)
    weighted = LatticeFunction(
        table.lattice,
        ff.values * table.jv_row(x_exponent),
        value_at_zero=None,
    )
    return fourier_transform(weighted, table)


def all_translations(
    f: LatticeFunction, exponents: Sequence[int], table: TransformTable
) -> np.ndarray:
    """Columns T_{x_i} f for x_i = q^{exponents[i]}, as one matrix product.

    Column i is F(F f . j_v(x_i .)), the translation route of
    :func:`translation`, evaluated for every requested point at once.
    """
    _check_lattice(f, table)
    return _all_translations(f.values, exponents, table)


def _all_translations(
    values: np.ndarray, exponents: Sequence[int], table: TransformTable
) -> np.ndarray:
    """:func:`all_translations` of the values of one f, an (N, X) matrix, or
    of a (K, N) stack of them, a (K, N, X) stack from one stacked product
    whose slab k equals the matrix of row k alone bit for bit."""
    ff = _transform_rows(values, table)
    return table.kernel_matrix @ (ff[..., :, None] * table.rows(exponents).T)


def translation_kernel(
    x_exponent: int, y_exponent: int, z_exponent: int, table: TransformTable
) -> float:
    """D_v(x,y,z) = c^2 int j_v(xt) j_v(yt) j_v(zt) t^{2v+1} d_qt (window sum)."""
    params = table.params
    integrand = (
        table.weights
        * table.jv_row(x_exponent)
        * table.jv_row(y_exponent)
        * table.jv_row(z_exponent)
    )
    return params.c_qv ** 2 * (1.0 - params.q) * float(integrand.sum())


def translation_kernel_matrix(
    x_exponents: Union[int, Sequence[int]], exponents: Sequence[int], table: TransformTable
) -> np.ndarray:
    """D[..., i, j] = D_v(q^x, q^{e_i}, q^{e_j}), the window sum of
    :func:`translation_kernel` as matrix products.

    An int x gives one (P, P) matrix; an array of X exponents gives the
    (X, P, P) stack from one Hankel gather and one stacked product, which
    runs one matrix product per slab, so slab k equals the matrix of
    x_exponents[k] bit for bit.
    """
    params = table.params
    rows = table.rows(exponents)
    x_rows = table.rows(np.ravel(x_exponents))
    weighted = rows * (table.weights * x_rows)[:, None, :]
    core = weighted @ rows.T
    core *= params.c_qv ** 2 * (1.0 - params.q)
    return core[0] if np.ndim(x_exponents) == 0 else core


def translation_via_kernel(
    f: LatticeFunction, x_exponent: int, table: TransformTable
) -> LatticeFunction:
    """Kernel route of the translation: int f(z) D_v(x,y,z) z^{2v+1} d_qz."""
    lat = table.lattice
    core = translation_kernel_matrix(x_exponent, lat.indices, table)
    return LatticeFunction(lat, core @ (table.weights * f.values) * (1.0 - table.params.q))


def convolution(
    f: LatticeFunction,
    g: LatticeFunction,
    table: TransformTable,
    route: str = "spectral",
) -> LatticeFunction:
    """q-convolution f * g.

    spectral route: F(F f . F g), using the factorization of the convolution
    theorem together with self-inversion.  direct route: the defining double
    sum c int T_x f(y) g(y) y^{2v+1} d_qy, with the translations of every
    output point computed as one matrix product.
    """
    f.same_window(g)
    if f.lattice != table.lattice:
        raise LatticeMismatchError("operands must live on the table lattice")
    params = table.params
    if route == "spectral":
        out, at_zero = _spectral_convolution(f.values, g.values, table)
        return LatticeFunction(table.lattice, out, value_at_zero=at_zero)
    if route == "direct":
        lat = table.lattice
        shifted = _all_translations(f.values, lat.indices, table)
        out = params.c_qv * (1.0 - params.q) * ((table.weights * g.values) @ shifted)
        if f.is_real and g.is_real:
            out = out.real
        return LatticeFunction(lat, out)
    raise ValueError(f"unknown route {route!r}")


def _spectral_convolution(f_values: np.ndarray, g_values: np.ndarray, table: TransformTable):
    """The spectral route of :func:`convolution`, F(F f . F g), for one pair
    of (N,) vectors or row by row for two (K, N) stacks, with its value at 0."""
    prod = _transform_rows(f_values, table) * _transform_rows(g_values, table)
    return _transform_rows(prod, table), _at_zero(table.weights * prod, table)


@dataclass(frozen=True)
class YoungReport:
    p: float
    p_prime: float
    r: float
    norm_r: float
    finite: bool


def young_inequality_check(
    f: LatticeFunction,
    g: LatticeFunction,
    p: float,
    p_prime: float,
    table: TransformTable,
) -> YoungReport:
    """Convolve and report ||f*g||_r for 1/r = 1/p + 1/p' - 1.

    Only membership is asserted (the underlying inequality carries no stated
    constant), and the exponent hypotheses 1 < p, p', r <= 2 are enforced.
    """
    conv = convolution(f, g, table, route="spectral")
    return _young_report(conv.values, p, p_prime, table)


def _young_report(conv: np.ndarray, p: float, p_prime: float, table: TransformTable):
    """:func:`young_inequality_check` for the values of a convolution f*g."""
    if not (1.0 < p <= 2.0) or not (1.0 < p_prime <= 2.0):
        raise ValueError("need 1 < p, p' <= 2")
    inv_r = 1.0 / p + 1.0 / p_prime - 1.0
    if inv_r <= 0.0:
        raise ValueError(f"1/p + 1/p' - 1 = {inv_r} does not define a finite r")
    r = 1.0 / inv_r
    if not (1.0 < r <= 2.0):
        raise ValueError(f"r = {r} violates 1 < r <= 2")
    norm_r = float(_lp_norms(conv, table.lattice, r, table.params))
    return YoungReport(p=p, p_prime=p_prime, r=r, norm_r=norm_r, finite=bool(np.isfinite(norm_r)))


def _gauss_at_zero(t: float, params: QParams) -> float:
    """G^v(0, t, q^2), the product of the four x-independent Pochhammer
    factors; G^v(x) multiplies it by e(-q^{-2v} x^2 / t, q^2)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    q2 = params.q ** 2
    q2v2 = params.q ** (2.0 * params.v + 2.0)
    qm2v = params.q ** (-2.0 * params.v)
    num_a, num_b, den_a, den_b = q_pochhammer_infinite(
        np.array([-q2v2 * t, -qm2v / t, -t, -q2 / t]), q2
    ).tolist()
    return num_a * num_b / (den_a * den_b)


def gauss_kernel(x: float, t: float, params: QParams) -> float:
    """q-Gauss kernel G^v(x, t, q^2)."""
    at_zero = _gauss_at_zero(t, params)
    qm2v = params.q ** (-2.0 * params.v)
    return at_zero * q_exponential(-qm2v * x * x / t, params.q ** 2).real


def gauss_kernel_function(
    t: float, params: QParams, lattice: QLattice
) -> LatticeFunction:
    """G^v(., t, q^2) sampled on a window, with its x -> 0 limit."""
    at_zero = _gauss_at_zero(t, params)
    decay = _lattice_q_gaussian(params.q ** (-2.0 * params.v) / t, lattice)
    return LatticeFunction(lattice, at_zero * decay, value_at_zero=at_zero)


@dataclass(frozen=True)
class GaussLimitReport:
    a_values: Tuple[float, ...]
    integrals: Tuple[float, ...]
    target: float
    final_deviation: float


def gauss_delta_limit_check(
    f: LatticeFunction, a_sequence: Sequence[float], table: TransformTable
) -> GaussLimitReport:
    """Track c int f(x) G^v(x, a^2) x^{2v+1} d_qx along shrinking widths a.

    The limit is f(0), so f must carry value_at_zero.
    """
    if f.value_at_zero is None:
        raise ValueError("f must have value_at_zero set")
    integrals = [complex(x) for x in _gauss_limit_integrals(f.values, a_sequence, table)]
    target = f.value_at_zero
    vals = tuple(x.real if abs(x.imag) == 0.0 else x for x in integrals)
    dev = abs(integrals[-1] - target) if integrals else abs(target)
    return GaussLimitReport(
        a_values=tuple(float(a) for a in a_sequence),
        integrals=vals,
        target=target,
        final_deviation=float(dev),
    )


def _gauss_limit_integrals(
    values: np.ndarray, a_sequence: Sequence[float], table: TransformTable
) -> np.ndarray:
    """c int f(x) G^v(x, a^2) x^{2v+1} d_qx for each width a, as the last
    axis, for one (N,) vector or each row of a (K, N) stack; each Gauss
    kernel is built once for the whole stack."""
    params = table.params
    weighted = table.weights * values
    out = np.empty(values.shape[:-1] + (len(a_sequence),), complex)
    for i, a in enumerate(a_sequence):
        g = gauss_kernel_function(a * a, params, table.lattice).values
        out[..., i] = params.c_qv * (1.0 - params.q) * np.sum(weighted * g, axis=-1)
    return out


@dataclass(frozen=True)
class QvProbeReport:
    q: float
    v: float
    n_min: int
    n_max: int
    min_value: float
    witness: Optional[Tuple[int, int, int]]
    verdict: str
    tolerance: float


def _probe_integration_window(params: QParams, lattice: QLattice) -> QLattice:
    """Integration window for the D_v scan: extends past the probe window so
    the Jackson tail is below roundoff for every probed triple."""
    decay = (2.0 * params.v + 2.0) * math.log(1.0 / params.q)
    top = max(lattice.n_max, int(math.ceil(40.0 / decay))) + 2
    bottom = lattice.n_min - 15
    return QLattice(params.q, bottom, top)


def qv_membership_probe(
    params: QParams,
    lattice: QLattice,
    tolerance: float = DEFAULT_PROBE_TOL,
) -> QvProbeReport:
    """Exhaustive window scan of min D_v(x,y,z).

    A finite-window heuristic only: a clean scan reports "no negativity
    detected", never membership of q in the positivity set.  The x slabs
    are built as stacks from :func:`translation_kernel_matrix`, in blocks
    whose (block, P, N) product operand stays under _PROBE_BLOCK_BYTES;
    the first smallest entry in (x, y, z) order wins, so the output is
    deterministic and does not depend on the block size.
    """
    integration = _probe_integration_window(params, lattice)
    table = build_transform_table(params, integration)
    exponents = lattice.indices
    n_pts = lattice.size
    block = max(1, _PROBE_BLOCK_BYTES // (n_pts * integration.size * 8))
    min_val, best = float("inf"), (0, 0, 0)
    for start in range(0, n_pts, block):
        # D(x_i, y_j, z_l) for the block's i and all j, l at once
        core = translation_kernel_matrix(exponents[start : start + block], exponents, table)
        flat = int(np.argmin(core))
        if core.flat[flat] < min_val:
            i, rest = divmod(flat, n_pts * n_pts)
            min_val, best = float(core.flat[flat]), (start + i, *divmod(rest, n_pts))
        del core  # free this block's stack before the next one is built
    offs = lattice.n_min
    witness = None
    verdict = f"no negativity detected at tolerance -{tolerance:g}"
    if min_val < -tolerance:
        witness = (best[0] + offs, best[1] + offs, best[2] + offs)
        verdict = "negativity detected"
    return QvProbeReport(
        q=params.q,
        v=params.v,
        n_min=lattice.n_min,
        n_max=lattice.n_max,
        min_value=min_val,
        witness=witness,
        verdict=verdict,
        tolerance=tolerance,
    )
