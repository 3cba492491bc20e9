"""Core q-calculus on the geometric lattice {q^n}.

Everything downstream (transforms, translation, positivity tests) is built
from the primitives here: q-Pochhammer symbols, the q-exponential, the
normalized Hahn-Exton q-Bessel function, Jackson sums and weighted L^p norms
on a finite lattice window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import PoleProximityError, TruncationCapError

Complex = Union[float, complex]

# truncation of every q-product and q-series loop below, read at call time
DEFAULT_TRUNC_TOL = 1e-18
DEFAULT_MAX_TERMS = 10000


def q_pochhammer_finite(a: Complex, q: float, n: int) -> Complex:
    """(a;q)_n = prod_{i=0}^{n-1} (1 - a q^i); equals 1 for n = 0."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: Complex = 1.0
    qi: Complex = 1.0
    for _ in range(n):
        out *= 1.0 - a * qi
        qi *= q
    return out


def q_pochhammer_infinite(a: Union[Complex, np.ndarray], q: float):
    """(a;q)_inf as one product over the factors 1 - a q^i, i < n.

    n is the first index with |a| q^n < DEFAULT_TRUNC_TOL, taken in closed
    form from logs; TruncationCapError is raised when n exceeds
    DEFAULT_MAX_TERMS.  An ndarray `a` gives the products of all its
    entries in one pass, each over the factor count of the largest |a|: a
    factor past an entry's own count is within 1e-18 of 1 and rounds to it.
    A scalar `a` gives a Python float, or a complex for complex `a`.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    batch = isinstance(a, np.ndarray)
    mag = float(np.abs(a).max(initial=0.0)) if batch else abs(a)
    n = 0
    if not mag < DEFAULT_TRUNC_TOL:
        steps = (math.log(DEFAULT_TRUNC_TOL) - math.log(mag)) / math.log(q)
        # a NaN or infinite |a| never reaches the tolerance
        n = math.floor(steps) + 1 if math.isfinite(steps) else DEFAULT_MAX_TERMS + 1
    if n > DEFAULT_MAX_TERMS:
        raise TruncationCapError(
            f"(a;q)_inf did not reach tolerance {DEFAULT_TRUNC_TOL} "
            f"within {DEFAULT_MAX_TERMS} factors"
        )
    powers = q ** np.arange(n)
    # a product past double range is inf, as the scalar float product is
    with np.errstate(over="ignore"):
        if batch:
            return np.multiply.reduce(1.0 - a[..., None] * powers, axis=-1)
        return np.multiply.reduce(1.0 - a * powers).item()


def q_exponential(z: Complex, q: float) -> Complex:
    """e(z,q) = 1/(z;q)_inf for a scalar z.

    The product form continues the series sum z^n/(q;q)_n beyond |z| < 1.
    Points z = q^{-i} are poles; proximity raises PoleProximityError.  An
    ndarray z raises TypeError: the q-Gaussian on a lattice window comes
    from :func:`_lattice_q_gaussian`.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if isinstance(z, np.ndarray):
        raise TypeError("q_exponential takes a scalar z, not an ndarray")
    denom: Complex = 1.0
    mag = abs(z)
    for i in range(DEFAULT_MAX_TERMS):
        if mag < DEFAULT_TRUNC_TOL:
            return 1.0 / denom
        factor = 1.0 - z * (q ** i)
        if abs(factor) < 1e-12 * (1.0 + mag):
            raise PoleProximityError(f"z={z} is within tolerance of the pole q^-{i}")
        denom *= factor
        mag *= q
    raise TruncationCapError(
        f"e(z,q) product did not reach tolerance {DEFAULT_TRUNC_TOL} "
        f"within {DEFAULT_MAX_TERMS} factors"
    )


def _lattice_q_gaussian(c: float, lattice: QLattice) -> np.ndarray:
    """e(-c q^{2n}, q^2) for every n of the window, for c > 0.

    Neighbouring points share all but one factor, e(-c q^{2n}) =
    e(-c q^{2n+2}) / (1 + c q^{2n}), so the window is one reverse cumulative
    product over f_k = 1 + c q^{2k}, for k from n_min up to n_max or the last
    k with c q^{2k} >= DEFAULT_TRUNC_TOL, whichever is later.  Like the
    scalar loop at the largest point q^{n_min}, it raises TruncationCapError
    when that point needs DEFAULT_MAX_TERMS factors or more.  A product past
    double range gives 1/inf = 0.
    """
    q = lattice.q
    last = math.floor(math.log(DEFAULT_TRUNC_TOL / c) / (2.0 * math.log(q)))
    if last - lattice.n_min + 1 >= DEFAULT_MAX_TERMS:
        raise TruncationCapError(f"q-Gaussian needs {DEFAULT_MAX_TERMS} factors or more")
    k = np.arange(lattice.n_min, max(lattice.n_max, last) + 1)
    with np.errstate(over="ignore"):
        tails = np.multiply.accumulate((1.0 + c * q ** (2.0 * k))[::-1])[::-1]
    return 1.0 / tails[: lattice.size]


class JvResult(NamedTuple):
    value: float
    max_term: float
    cancellation: bool


def hahn_exton_jv_detail(z: float, q_base: float, v: float) -> JvResult:
    """Normalized Hahn-Exton q-Bessel function, with summation diagnostics.

    j_v(z, q) = sum_{n>=0} (-1)^n q^{n(n+1)/2} z^{2n} / ((q;q)_n (q^{v+1};q)_n).

    Uses Neumaier-compensated summation and reports the largest intermediate
    term; for large z the alternating terms grow far beyond the result and the
    `cancellation` flag marks the value as precision-limited.
    """
    if not 0.0 < q_base < 1.0:
        raise ValueError(f"q_base must lie in (0,1), got {q_base}")
    if v <= -1.0:
        raise ValueError(f"v must exceed -1, got {v}")
    if z < 0.0:
        raise ValueError(f"z must be nonnegative, got {z}")
    return _jv_series(z, q_base, v, _jv_denom_floor(q_base, v))


def _jv_denom_floor(q_base: float, v: float) -> float:
    """(q;q)_inf (q^{v+1};q)_inf, which bounds the series denominators from
    below; a kernel table reads it from :class:`QParams` instead."""
    poch_q, poch_qv = q_pochhammer_infinite(
        np.array([q_base, q_base ** (v + 1.0)]), q_base
    ).tolist()
    return abs(poch_q) * abs(poch_qv)


def _jv_series(z: float, q_base: float, v: float, denom_floor: float) -> JvResult:
    """The series loop of :func:`hahn_exton_jv_detail` for checked arguments."""
    z2 = z * z
    qv1 = q_base ** (v + 1.0)
    total = comp = 0.0  # comp: the Neumaier carry
    term = max_term = 1.0
    n = 0
    while True:
        t = term if n % 2 == 0 else -term
        s = total + t
        comp += (total - s) + t if abs(total) >= abs(t) else (t - s) + total
        total = s
        max_term = max(max_term, abs(term))
        n += 1
        if n >= DEFAULT_MAX_TERMS:
            raise TruncationCapError(
                f"j_v series did not converge within {DEFAULT_MAX_TERMS} terms (z={z})"
            )
        # term_{n} = term_{n-1} * q^n z^2 / ((1-q^n)(1-q^{v+n}))
        qn = q_base ** n
        term *= qn * z2 / ((1.0 - qn) * (1.0 - qv1 * qn / q_base))
        # superexponential decay kicks in once q^n z^2 < 1; then the crude
        # bound q^{n(n+1)/2} z^{2n} / denom_floor controls the tail
        if qn * z2 < 1.0 and term / denom_floor < DEFAULT_TRUNC_TOL * (1.0 + abs(total)):
            break
    value = total + comp
    # roundoff in the summed terms is about eps * max_term; flag the value
    # once that noise floor reaches 1e-11 of the result
    cancel = 2.3e-16 * max_term > 1e-11 * abs(value) if value else max_term > 1.0
    return JvResult(value, max_term, cancel)


@dataclass(frozen=True)
class QParams:
    """Deformation parameters (q, v) plus the derived transform constants.

    c_qv is the transform normalization, B_qv the L^1 -> sup-norm bound
    constant and jv_denom_floor = (q^2;q^2)_inf (q^{2v+2};q^2)_inf the floor
    of the kernel series' denominators; all three come from the four
    infinite q-Pochhammer products of one call.  Each instance also keeps
    the recurrence heads of its kernel tables
    (:func:`qharm.bessel.lattice_jv_table`) in a private dict outside the
    dataclass fields, so equality, hashing, repr and the JSON rendering
    ignore it, and equal instances do not share it.
    """

    q: float
    v: float = 0.0
    c_qv: float = field(init=False)
    B_qv: float = field(init=False)
    jv_denom_floor: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if self.v <= -1.0:
            raise ValueError(f"v must exceed -1, got {self.v}")
        q2 = self.q * self.q
        qv2 = self.q ** (2.0 * self.v + 2.0)
        poch_q2, poch_qv2, poch_neg_q2, poch_neg_qv2 = q_pochhammer_infinite(
            np.array([q2, qv2, -q2, -qv2]), q2
        ).tolist()
        object.__setattr__(self, "c_qv", poch_qv2 / poch_q2 / (1.0 - self.q))
        object.__setattr__(
            self, "B_qv", poch_neg_q2 * poch_neg_qv2 / poch_q2 / (1.0 - self.q)
        )
        object.__setattr__(self, "jv_denom_floor", abs(poch_q2) * abs(poch_qv2))
        object.__setattr__(self, "_jv_heads", {})

    @property
    def bessel_bound_constant(self) -> float:
        """Envelope constant of the lattice Bessel bound,
        (-q^2, -q^{2v+2}; q^2)_inf / (q^{2v+2}; q^2)_inf = B_qv / c_qv."""
        return self.B_qv / self.c_qv


@dataclass(frozen=True)
class QLattice:
    """Finite window {q^n : n_min <= n <= n_max} of the geometric lattice."""

    q: float
    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if self.n_min > self.n_max:
            raise ValueError(f"empty window [{self.n_min}, {self.n_max}]")

    @property
    def size(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def points(self) -> np.ndarray:
        return self.q ** self.indices.astype(float)

    def straddles_one(self) -> bool:
        """Transform construction requires the window to contain x=1 strictly
        inside: n_min < 0 < n_max."""
        return self.n_min < 0 < self.n_max

    def index_of(self, n: int) -> int:
        """Array offset of lattice exponent n."""
        if not self.n_min <= n <= self.n_max:
            raise ValueError(f"exponent {n} outside window [{self.n_min}, {self.n_max}]")
        return n - self.n_min


@dataclass
class LatticeFunction:
    """Samples f(q^n) on a lattice window, optionally with the limit at 0."""

    lattice: QLattice
    values: np.ndarray
    value_at_zero: Optional[Complex] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.ndim != 1 or vals.shape[0] != self.lattice.size:
            raise ValueError(
                f"expected {self.lattice.size} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("lattice samples must be finite")
        if vals.dtype.kind not in "fc":
            vals = vals.astype(float)
        self.values = vals
        if self.value_at_zero is not None and not np.isfinite(self.value_at_zero):
            raise ValueError("value_at_zero must be finite")

    @property
    def is_real(self) -> bool:
        return self.values.dtype.kind == "f" or bool(
            np.all(np.abs(self.values.imag) == 0.0)
        )

    def at_index(self, n: int) -> Complex:
        return self.values[self.lattice.index_of(n)]

    @classmethod
    def from_callable(
        cls, lattice: QLattice, fn, value_at_zero: Optional[Complex] = None
    ) -> "LatticeFunction":
        vals = np.array([fn(x) for x in lattice.points])
        return cls(lattice, vals, value_at_zero)

    @classmethod
    def zero(cls, lattice: QLattice) -> "LatticeFunction":
        return cls(lattice, np.zeros(lattice.size), value_at_zero=0.0)


class JacksonResult(NamedTuple):
    value: Complex
    head_term: float  # |summand| at the n_min (large x) edge
    tail_term: float  # |summand| at the n_max (small x) edge


def jackson_integral_detail(f: LatticeFunction) -> JacksonResult:
    """Window truncation of the Jackson sum (1-q) sum_n q^n f(q^n).

    The edge summand magnitudes are reported so callers can judge how much of
    the doubly infinite sum the window misses.
    """
    q = f.lattice.q
    weights = q ** f.lattice.indices.astype(float)
    summands = weights * f.values
    value = (1.0 - q) * summands.sum()
    head = float(abs(summands[0])) if summands.size else 0.0
    tail = float(abs(summands[-1])) if summands.size else 0.0
    if f.values.dtype.kind != "c":
        value = float(value.real) if np.iscomplexobj(value) else float(value)
    return JacksonResult(value=value, head_term=head, tail_term=tail)


def jackson_integral(f: LatticeFunction) -> Complex:
    return jackson_integral_detail(f).value


def lp_norm(f: LatticeFunction, p: float, params: QParams) -> float:
    """[(1-q) sum_n q^{n(2v+2)} |f(q^n)|^p]^{1/p}.

    The measure weight x^{2v+1} merged with the Jackson weight x gives the
    q^{n(2v+2)} factor.
    """
    weights = f.lattice.q ** ((2.0 * params.v + 2.0) * f.lattice.indices.astype(float))
    return float(_lp_norms(f.values, f.lattice, p, weights))


def _lp_norms(values: np.ndarray, lattice: QLattice, p: float, weights: np.ndarray):
    """:func:`lp_norm` of each row of a (K, N) stack, or of one (N,) vector,
    from the window's weights q^{n(2v+2)}, which a TransformTable caches."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be a finite number at least 1, got {p}")
    total = (weights * np.abs(values) ** p).sum(axis=-1)
    return ((1.0 - lattice.q) * total) ** (1.0 / p)
