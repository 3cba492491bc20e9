"""The benchmark's mpmath references reproduce the frozen 50-digit oracle pins.

The pins in tests/data/oracle_pins.json were generated by an independent
script; this test only reads them.  Run it with

    python3 -m pytest perfbench/test_reference.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402

PINS_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "oracle_pins.json"
DIGITS = 60


def _pins():
    return json.loads(PINS_PATH.read_text())


def _decimal(x) -> str:
    # the pins were computed from the shortest decimal form of each parameter
    return repr(float(x))


def _value(pin) -> mp.mpf:
    kind, p = pin["kind"], {k: _decimal(x) for k, x in pin["params"].items()}
    with mp.workdps(DIGITS + 10):
        if kind == "pochhammer_inf":
            return reference.qpoch_inf(p["a"], p["q"])
        if kind == "qexp":
            return reference.q_exp(p["z"], p["q"])
        if kind == "jv":
            return reference.jv(p["z"], p["p"], p["v"], digits=DIGITS)
        if kind == "c_qv":
            return reference.c_qv(p["q"], p["v"], digits=DIGITS)
        if kind == "B_qv":
            return reference.big_b_qv(p["q"], p["v"], digits=DIGITS)
        if kind == "gauss":
            return reference.gauss_kernel(p["x"], p["t"], p["q"], p["v"], digits=DIGITS)
    raise AssertionError(f"unknown pin kind {kind}")


def test_every_pin_kind_is_covered():
    assert {pin["kind"] for pin in _pins()} == {
        "pochhammer_inf", "qexp", "jv", "c_qv", "B_qv", "gauss"
    }


@pytest.mark.parametrize("pin", _pins(), ids=lambda pin: pin["name"])
def test_reference_reproduces_pin(pin):
    with mp.workdps(DIGITS + 10):
        target = mp.mpf(pin["value"])
        got = _value(pin)
        # 50 significant digits: agreement up to half a unit in the 50th
        assert abs(got - target) <= abs(target) * mp.mpf(10) ** -49
