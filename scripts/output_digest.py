"""Print one sha256 over a fixed set of library outputs.

Two trees that print the same digest give the same bytes for:

- the ``run_suite`` entries (without their timings) at q=0.5 [-20, 60],
  q=0.9 v=1.5 [-30, 160], q=0.95 [-40, 320], q=0.97 [-50, 550] and
  q=0.3 v=1.5 [-20, 40];
- the Bochner JSON reports for cutoff levels 1..2, 1..10, 1..20 and 1..40 of
  phi = F(q-Gaussian density), of -phi and of (1 + 1e-3j) phi, at q=0.5
  [-20, 60] and q=0.9 v=1.5 [-30, 160];
- the PSD verdicts, witnesses and Gram entries of the same functions on the
  default grid and on two explicit grids;
- translations and translation-kernel values at a few lattice points;
- the D_v probe reports at q=0.5 [-8, 12], q=0.9 v=1.5 [-6, 10] and q=0.3
  v=1.5 [-30, 15], and one (X, P, P) stack of translation_kernel_matrix at
  q=0.9 v=1.5;
- the checked scalar j_v at the oracle-pin arguments of
  tests/data/oracle_pins.json and at three cancelling arguments near q = 1,
  with the name of the exception where it refuses.

A refactor that promises unchanged outputs should leave the digest as it is.
The script imports the qharm next to it, so copy it into another checkout to
digest that tree.

Usage: python3 scripts/output_digest.py
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from qharm import (  # noqa: E402
    LatticeFunction,
    QLattice,
    QParams,
    bochner_reconstruct,
    build_transform_table,
    fourier_transform,
    gram_matrix,
    is_q_positive_type,
    qv_membership_probe,
    report_to_json,
    run_suite,
    translation,
    translation_kernel,
)
from qharm.errors import QHarmError  # noqa: E402
from qharm.operators import translation_kernel_matrix  # noqa: E402
from qharm.testfunctions import gaussian_density  # noqa: E402

try:
    from qharm.bessel import hahn_exton_jv  # noqa: E402
except ImportError:  # trees where the checked route had its own name
    from qharm.bessel import hahn_exton_jv_stable as hahn_exton_jv  # noqa: E402

SUITE_REGIMES = [
    (0.5, 0.0, -20, 60),
    (0.9, 1.5, -30, 160),
    (0.95, 0.0, -40, 320),
    (0.97, 0.0, -50, 550),
    (0.3, 1.5, -20, 40),
]
BOCHNER_REGIMES = [(0.5, 0.0, -20, 60), (0.9, 1.5, -30, 160)]
LEVELS = [range(1, 3), range(1, 11), range(1, 21), range(1, 41)]
GRIDS = [None, [0, 1, 2, -1], [3, 5, 8, 13]]
PROBE_REGIMES = [(0.5, 0.0, -8, 12), (0.9, 1.5, -6, 10), (0.3, 1.5, -30, 15)]
# (z, q_base, v) where the series cancels near q = 1: two lattice arguments
# and one off the lattice, which is refused
JV_CANCELLING = [(1.0, 0.98, 0.0), (1.0, 0.9604, 0.0), (1.5, 0.98, 0.0)]


def _replace(record, **changes):
    """A copy of a result record with some fields changed: NamedTuple
    records through ``_replace``, dataclass records of older trees through
    ``dataclasses.replace``."""
    if hasattr(record, "_replace"):
        return record._replace(**changes)
    return replace(record, **changes)


def _array_bytes(a) -> bytes:
    a = np.asarray(a)
    return f"{a.dtype}{a.shape}".encode() + a.tobytes()


def main() -> None:
    h = hashlib.sha256()
    for q, v, n_min, n_max in SUITE_REGIMES:
        result = run_suite(QParams(q=q, v=v), QLattice(q, n_min, n_max))
        entries = [_replace(e, runtime_ms=0.0) for e in result.entries]
        h.update(report_to_json(_replace(result, entries=entries)).encode())
    for regime in BOCHNER_REGIMES:
        q, v, n_min, n_max = regime
        table = build_transform_table(QParams(q=q, v=v), QLattice(q, n_min, n_max))
        lat = table.lattice
        phi = fourier_transform(gaussian_density(table, width_exp=1), table)
        tilt = 1.0 + 1e-3j
        phis = [
            phi,
            LatticeFunction(lat, -phi.values, value_at_zero=-phi.value_at_zero),
            LatticeFunction(lat, tilt * phi.values, value_at_zero=tilt * phi.value_at_zero),
        ]
        for f in phis:
            for levels in LEVELS:
                h.update(report_to_json(bochner_reconstruct(f, levels, table)).encode())
            for grid in GRIDS:
                verdict = is_q_positive_type(f, grid, table)
                h.update(report_to_json(verdict).encode())  # witness included
                gram = gram_matrix(f, list(verdict.point_exponents), table)
                h.update(_array_bytes(gram.entries))
            for x in (lat.n_min, -3, 0, 2, 7, lat.n_max):
                h.update(_array_bytes(translation(f, x, table).values))
        for x, y, z in [(0, 0, 0), (1, 2, 3), (-2, 4, 9), (lat.n_min, 0, lat.n_max)]:
            h.update(_array_bytes(translation_kernel(x, y, z, table)))
        if regime == BOCHNER_REGIMES[1]:
            xs = np.arange(-6, 11)
            h.update(_array_bytes(translation_kernel_matrix(xs, xs, table)))
    for q, v, n_min, n_max in PROBE_REGIMES:
        report = qv_membership_probe(QParams(q=q, v=v), QLattice(q, n_min, n_max))
        h.update(report_to_json(report).encode())
    pins = json.loads((ROOT / "tests" / "data" / "oracle_pins.json").read_text())
    jv_args = [tuple(p["params"][k] for k in "zpv") for p in pins if p["kind"] == "jv"]
    for args in jv_args + JV_CANCELLING:
        try:
            h.update(_array_bytes(hahn_exton_jv(*args)))
        except QHarmError as exc:
            h.update(type(exc).__name__.encode())
    print(h.hexdigest())


if __name__ == "__main__":
    main()
