"""Seeded inputs of the workloads (numpy only, no qharm).

The same seed always gives the same inputs.  Each round draws from its own
generator ``default_rng([seed, round_index])``, so a round's inputs do not
depend on how many rounds ran before it.  Round 0 is the warm-up round whose
outputs feed ``accuracy_digits``.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

# the two README regimes: (q, v, n_min, n_max)
REGIMES: Tuple[Tuple[float, float, int, int], ...] = (
    (0.5, 0.0, -20, 60),
    (0.9, 1.5, -30, 160),
)
# cutoff levels 1..L of the Bochner pipeline; 10 levels at q = 0.9 accept a
# measure off by 1e-4 for wide q-Gaussians, 20 levels bring it to 1e-11
BOCHNER_LEVELS = {0.5: 10, 0.9: 20}
# width exponents w of the q-Gaussians e(-q^{2w} x^2, q^2) in the mixtures
WIDTHS: Tuple[int, ...] = (-2, -1, 0, 1, 2)
# lattice exponents of the translation points, as in the Prop4 check
TRANSLATION_POINTS: Tuple[int, ...] = (-2, 0, 2, 5, 8)

# q-scan grid: every q in base + jitter lies in [0.7, 0.91], where the probe
# window below scans clean with margin for v in {0, 0.5, 1.5} (below 0.7 it
# reports false witnesses at v = 1.5); cli-batch probes the same window, and
# the CLI's default (-8, 12) is not clean at q = 0.6
SCAN_Q_BASES: Tuple[float, ...] = (0.7, 0.75, 0.8, 0.85, 0.9)
SCAN_V: Tuple[float, ...] = (0.0, 0.5, 1.5)
SCAN_JITTER: Tuple[float, ...] = (0.0, 0.005, 0.01)
PROBE_WINDOW = (-6, 10)
PROBE_TOLERANCE = 1e-10
# kernel exponents checked in every q-scan table besides the seeded ones:
# near m = 0 is where the large-q tables lose the most digits
SCAN_FIXED_EXPONENTS = (0, 1, 2, 3)
SCAN_SAMPLED_EXPONENTS = 4

# argument of `qharm eval jv` in cli-batch: x = 1 is the exponent m = 0
# where the q = 0.9 table loses the most digits (5e-13 relative)
CLI_JV_Z = 1.0
# cheap statements for `qharm verify --only` in cli-batch
CLI_VERIFY_ONLY = "Prop1,Prop2,Thm1-inversion,Thm1-plancherel,Def1,Cor1,Prop9"


def scan_window(q: float) -> Tuple[int, int]:
    """README-scaled window: linear in q between [-20, 60] at q = 0.5 and
    [-30, 160] at q = 0.9."""
    return -round(20 + 25 * (q - 0.5)), round(60 + 250 * (q - 0.5))


def clean_range(n_min: int, n_max: int) -> Tuple[int, int]:
    """Exponents whose lattice points the window inverts cleanly (the same
    range qharm documents as ``clean_inversion_range``)."""
    return n_min + 8, min(12, -n_min - 6, n_max - 8)


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


def regime_order(seed: int, round_index: int) -> List[int]:
    """Order in which a verify-suite round visits the two regimes."""
    return [int(i) for i in round_rng(seed, round_index).permutation(len(REGIMES))]


def scan_grid(seed: int) -> List[Tuple[float, float]]:
    """The (q, v) pairs of a q-scan round, jittered and ordered by the seed."""
    rng = np.random.default_rng([seed, 1 << 20])
    pairs = [
        (round(base + float(rng.choice(SCAN_JITTER)), 6), v)
        for base in SCAN_Q_BASES
        for v in SCAN_V
    ]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def scan_exponents(seed: int, q: float, v: float) -> List[int]:
    """Kernel exponents checked against mpmath in the (q, v) table."""
    n_min, n_max = scan_window(q)
    rng = np.random.default_rng([seed, int(round(q * 1e6)), int(round(v * 10))])
    sampled = rng.integers(2 * n_min + 1, 2 * n_max, SCAN_SAMPLED_EXPONENTS)
    return sorted(set(SCAN_FIXED_EXPONENTS) | {int(m) for m in sampled})


def mixture(rng: np.random.Generator) -> Dict[str, list]:
    """Nonnegative mixture of two or three q-Gaussians of distinct widths."""
    k = int(rng.integers(2, 4))
    widths = sorted(int(w) for w in rng.choice(WIDTHS, size=k, replace=False))
    weights = [float(c) for c in rng.uniform(0.25, 1.0, size=k)]
    return {"widths": widths, "weights": weights}


def compact(rng: np.random.Generator, n_min: int, n_max: int) -> np.ndarray:
    """Random signed function supported on a random part of the clean range."""
    lo_n, hi_n = clean_range(n_min, n_max)
    lo = int(rng.integers(lo_n, hi_n - 1))
    hi = int(rng.integers(lo + 1, hi_n + 1))
    vals = np.zeros(n_max - n_min + 1)
    vals[lo - n_min : hi - n_min + 1] = rng.uniform(-1.0, 1.0, hi - lo + 1)
    return vals


def request_inputs(seed: int, round_index: int) -> List[Dict[str, object]]:
    """One function-requests or cli-batch batch: per regime a mixture, two
    compact functions and a translation point."""
    rng = round_rng(seed, round_index)
    batch = []
    for q, v, n_min, n_max in REGIMES:
        batch.append(
            {
                "mixture": mixture(rng),
                "f": compact(rng, n_min, n_max),
                "g": compact(rng, n_min, n_max),
                "x": int(rng.choice(TRANSLATION_POINTS)),
            }
        )
    return batch
