"""CSV serialization for lattice functions and measures, JSON for reports.

CSV layout: header ``n,x,re,im``, one row per lattice point with n ascending,
and optionally one trailing row with an empty n field and x=0 carrying the
value at the origin.  Output formatting is fixed (repr of the float fields),
so identical data always produces identical bytes.  JSON reports are strict
JSON: a non-finite float is written as the string "inf", "-inf" or "nan".
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import is_dataclass, fields as dataclass_fields
from typing import Any, Optional, TextIO

import numpy as np

from .errors import QHarmError
from .qlattice import LatticeFunction, QLattice


class CSVFormatError(QHarmError):
    """Malformed lattice CSV; carries the offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _format_float(x: float) -> str:
    return repr(float(x))


def write_lattice_function(f: LatticeFunction, stream: TextIO) -> None:
    stream.write("n,x,re,im\n")
    vals = np.asarray(f.values, dtype=complex)
    for n, x, v in zip(f.lattice.indices, f.lattice.points, vals):
        stream.write(
            f"{int(n)},{_format_float(x)},{_format_float(v.real)},{_format_float(v.imag)}\n"
        )
    if f.value_at_zero is not None:
        z = complex(f.value_at_zero)
        stream.write(f",0,{_format_float(z.real)},{_format_float(z.imag)}\n")


def lattice_function_to_csv(f: LatticeFunction) -> str:
    buf = io.StringIO()
    write_lattice_function(f, buf)
    return buf.getvalue()


def read_lattice_function(stream: TextIO, q: float) -> LatticeFunction:
    """Parse the CSV layout back into a LatticeFunction on q's lattice."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise CSVFormatError(1, "empty file") from None
    if [h.strip() for h in header] != ["n", "x", "re", "im"]:
        raise CSVFormatError(1, f"expected header n,x,re,im, got {','.join(header)}")
    ns = []
    values = []
    value_at_zero: Optional[complex] = None
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4:
            raise CSVFormatError(lineno, f"expected 4 fields, got {len(row)}")
        n_field = row[0].strip()
        try:
            x = float(row[1])
            re = float(row[2])
            im = float(row[3])
        except ValueError as exc:
            raise CSVFormatError(lineno, f"bad numeric field: {exc}") from None
        if n_field == "":
            if x != 0.0:
                raise CSVFormatError(lineno, "origin row must have x=0")
            if value_at_zero is not None:
                raise CSVFormatError(lineno, "duplicate origin row")
            value_at_zero = complex(re, im)
            continue
        if value_at_zero is not None:
            raise CSVFormatError(lineno, "origin row must come last")
        try:
            n = int(n_field)
        except ValueError:
            raise CSVFormatError(lineno, f"bad lattice index {n_field!r}") from None
        if ns and n != ns[-1] + 1:
            raise CSVFormatError(lineno, f"indices must ascend by 1, got {n} after {ns[-1]}")
        expected = q ** n
        if abs(x - expected) > 1e-9 * max(abs(expected), 1e-300):
            raise CSVFormatError(lineno, f"x={x} does not match q^{n}={expected}")
        ns.append(n)
        values.append(complex(re, im))
    if not ns:
        raise CSVFormatError(2, "no lattice rows")
    arr = np.array(values)
    if np.all(arr.imag == 0.0):
        arr = arr.real
    if value_at_zero is not None and value_at_zero.imag == 0.0:
        value_at_zero = value_at_zero.real
    lattice = QLattice(q, ns[0], ns[-1])
    return LatticeFunction(lattice, arr, value_at_zero=value_at_zero)


def load_lattice_function(path: str, q: float) -> LatticeFunction:
    with open(path, "r", newline="") as fh:
        return read_lattice_function(fh, q)


def save_lattice_function(f: LatticeFunction, path: str) -> None:
    with open(path, "w", newline="") as fh:
        write_lattice_function(f, fh)


def _jsonable(obj: Any) -> Any:
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclass_fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a NamedTuple report
        return {k: _jsonable(v) for k, v in obj._asdict().items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)  # "inf", "-inf" or "nan"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, slice):
        return {"start": obj.start, "stop": obj.stop}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def report_to_json(report: Any) -> str:
    """Deterministic, strict JSON rendering of a report record or dict."""
    return json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
