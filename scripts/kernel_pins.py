"""Generate mpmath reference values of the lattice kernel j_v(q^m, q^2).

Each value is the defining Hahn-Exton series summed with mpmath by the
benchmark's independent reference (perfbench/reference.py, which imports no
qharm), at a precision sized to the cancellation of each sum: a fixed
precision does not do, since at q = 0.9, v = 1.5 the largest term exceeds
the value by 89 orders of magnitude at m = -30.  q is the exact binary double
the library receives.  The frozen copy lives in tests/data/kernel_pins.json;
rerun this script only to regenerate it, never at test time.

Usage: python3 scripts/kernel_pins.py > tests/data/kernel_pins.json
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402

DIGITS = 30  # correct digits asked of every value
STORED = 25  # significant digits written

# (q, v): exponents m
PINS = {
    (0.5, 0.0): [-30, -20, -10, -5, -1, *range(0, 21)],
    (0.5, 1.5): list(range(0, 21)),
    (0.9, 0.0): list(range(0, 21)),
    (0.9, 1.5): [-60, -30, -10, -5, -1, *range(0, 21)],
    (0.3, 1.5): list(range(-15, 0)),
    (0.3, 3.0): list(range(-15, 0)),
    (0.95, 0.0): [-10, -5, -1, 0, 1, 3],
    (0.97, 0.0): [-10, -5, -1, 0, 1, 3],
    (0.99, 0.0): [-10, -5, -1, 0, 1, 3],
}


def main() -> None:
    pins = [
        {
            "q": q,
            "v": v,
            "m": m,
            "value": mp.nstr(reference.jv_lattice(q, v, m, DIGITS), STORED, strip_zeros=False),
        }
        for (q, v), ms in PINS.items()
        for m in ms
    ]
    print(json.dumps(pins, indent=1))


if __name__ == "__main__":
    main()
