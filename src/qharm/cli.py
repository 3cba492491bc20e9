"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All output is deterministic for fixed inputs and flags.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional, Tuple

import numpy as np

from .errors import QHarmError
from .lattice_io import (
    CSVFormatError,
    lattice_function_to_csv,
    load_lattice_function,
    report_to_json,
    save_lattice_function,
)
from .operators import DEFAULT_PROBE_TOL, gauss_kernel, qv_membership_probe, convolution
from .positivity import DEFAULT_PSD_TOL, bochner_reconstruct, is_q_positive_type
from .bessel import hahn_exton_jv
from .qlattice import (
    LatticeFunction,
    QLattice,
    QParams,
    q_exponential,
    q_pochhammer_finite,
    q_pochhammer_infinite,
)
from .transform import build_transform_table, fourier_transform
from .verify import run_suite


def _add_common(
    p: argparse.ArgumentParser,
    window: Optional[Tuple[int, int]] = None,
    tol: Optional[float] = None,
    tol_help: Optional[str] = None,
) -> None:
    """--q, --v and --output; the window and --tol only where they are read."""
    p.add_argument("--q", type=float, default=0.5, help="base, 0 < q < 1")
    p.add_argument("--v", type=float, default=0.0, help="order parameter v > -1")
    if window is not None:
        p.add_argument("--nmin", type=int, default=window[0], help="lowest lattice exponent")
        p.add_argument("--nmax", type=int, default=window[1], help="highest lattice exponent")
    if tol_help is not None:
        p.add_argument("--tol", type=float, default=tol, help=tol_help)
    p.add_argument("--output", type=str, default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qharm",
        description="q-harmonic analysis on the lattice {q^n}: transforms, "
        "operators, positivity checks and the Bochner pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a special function or constant")
    p_eval.add_argument(
        "function",
        choices=["pochhammer", "qexp", "jv", "gauss_kernel", "c_qv", "B_qv"],
    )
    p_eval.add_argument("--a", type=float, help="pochhammer argument")
    p_eval.add_argument("--z", type=float, help="series argument")
    p_eval.add_argument("--n", type=int, help="finite pochhammer length (omit for infinite)")
    p_eval.add_argument("--qbase", type=float, help="series base (default q for qexp, q^2 for jv)")
    p_eval.add_argument("--x", type=float, help="gauss kernel point")
    p_eval.add_argument("--t", type=float, default=1.0, help="gauss kernel width")
    _add_common(p_eval)
    p_eval.set_defaults(run=functools.partial(_cmd_eval, parser=parser))

    p_tr = sub.add_parser("transform", help="q-Bessel Fourier transform of a CSV")
    p_tr.add_argument("input", help="lattice function CSV")
    _add_common(p_tr)
    p_tr.set_defaults(run=_cmd_transform)

    p_cv = sub.add_parser("convolve", help="q-convolution of two CSVs")
    p_cv.add_argument("left", help="first lattice function CSV")
    p_cv.add_argument("right", help="second lattice function CSV")
    p_cv.add_argument("--route", choices=["spectral", "direct"], default="spectral")
    _add_common(p_cv)
    p_cv.set_defaults(run=_cmd_convolve)

    p_probe = sub.add_parser("probe-qv", help="window scan of the translation kernel sign")
    # the probe default window is deliberately small; the kernel scan is cubic
    _add_common(p_probe, (-8, 12), DEFAULT_PROBE_TOL, "kernel values below -tol are negativity")
    p_probe.set_defaults(run=_cmd_probe)

    p_pos = sub.add_parser("positivity", help="PSD test of the translation Gram matrix")
    p_pos.add_argument("input", help="lattice function CSV")
    p_pos.add_argument(
        "--points",
        type=str,
        default=None,
        help="comma-separated lattice exponents for the Gram grid; a list that starts "
        "with a negative exponent needs the = form, e.g. --points=-2,0,3",
    )
    _add_common(p_pos, tol=DEFAULT_PSD_TOL, tol_help="PSD tolerance of the Gram test")
    p_pos.set_defaults(run=_cmd_positivity)

    p_boch = sub.add_parser("bochner", help="constructive Bochner pipeline")
    p_boch.add_argument("input", help="positive-type function CSV")
    p_boch.add_argument("--levels", type=int, default=10, help="cutoff levels 1..N")
    _add_common(p_boch, tol=DEFAULT_PSD_TOL, tol_help="tolerance of the level and limit checks")
    p_boch.set_defaults(run=_cmd_bochner)

    p_ver = sub.add_parser("verify", help="run the full verification suite")
    p_ver.add_argument(
        "--only",
        type=str,
        default=None,
        help="comma-separated statement ids to run (others are skipped)",
    )
    _add_common(p_ver, (-20, 60), tol_help="override of every statement's tolerance")
    p_ver.set_defaults(run=_cmd_verify)
    return parser


def _params(args: argparse.Namespace) -> QParams:
    return QParams(q=args.q, v=args.v)


def _lattice(args: argparse.Namespace) -> QLattice:
    return QLattice(args.q, args.nmin, args.nmax)


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _fmt(value) -> str:
    if isinstance(value, complex):
        if value.imag == 0.0:
            return f"{value.real:.15g}"
        return f"{value.real:.15g}{value.imag:+.15g}j"
    return f"{float(value):.15g}"


def _load(args: argparse.Namespace, *paths: str, origin: bool = False) -> tuple:
    """The CSV functions at `paths` on the lattice of base --q, then the
    kernel table of --q, --v on the first one's window.  origin=True refuses
    a first CSV without its phi(0) row before any table is built."""
    fs = [load_lattice_function(path, args.q) for path in paths]
    if origin and fs[0].value_at_zero is None:
        raise ValueError("input CSV must carry the origin row (phi(0))")
    return (*fs, build_transform_table(_params(args), fs[0].lattice))


def _cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = _params(args)
    name = args.function
    if name == "pochhammer":
        if args.a is None:
            parser.error("eval pochhammer requires --a")
        if args.n is not None:
            val = q_pochhammer_finite(args.a, args.q, args.n)
        else:
            val = q_pochhammer_infinite(args.a, args.q)
    elif name == "qexp":
        if args.z is None:
            parser.error("eval qexp requires --z")
        val = q_exponential(args.z, args.q if args.qbase is None else args.qbase)
    elif name == "jv":
        if args.z is None:
            parser.error("eval jv requires --z")
        qbase = args.q ** 2 if args.qbase is None else args.qbase
        val = hahn_exton_jv(args.z, qbase, args.v)
    elif name == "gauss_kernel":
        if args.x is None:
            parser.error("eval gauss_kernel requires --x")
        val = gauss_kernel(args.x, args.t, params)
    elif name == "c_qv":
        val = params.c_qv
    else:  # B_qv
        val = params.B_qv
    _emit(_fmt(val) + "\n", args.output)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    f, table = _load(args, args.input)
    out = fourier_transform(f, table)
    _emit(lattice_function_to_csv(out), args.output)
    return 0


def _cmd_convolve(args: argparse.Namespace) -> int:
    f, g, table = _load(args, args.left, args.right)
    out = convolution(f, g, table, route=args.route)
    _emit(lattice_function_to_csv(out), args.output)
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    report = qv_membership_probe(_params(args), _lattice(args), tolerance=args.tol)
    payload = {
        "min_value": report.min_value,
        "witness": list(report.witness) if report.witness else None,
        "verdict": report.verdict,
    }
    _emit(report_to_json(payload), args.output)
    return 0 if report.witness is None else 1


def _cmd_positivity(args: argparse.Namespace) -> int:
    f, table = _load(args, args.input)
    points = None
    if args.points is not None:  # "--points=" is an empty grid, which the Gram check refuses
        points = [int(s) for s in args.points.split(",")] if args.points else []
    verdict = is_q_positive_type(f, points, table, args.tol)
    payload = {
        "verdict": "POSITIVE" if verdict.positive else "NEGATIVE",
        "min_eigenvalue": verdict.min_eigenvalue,
        "tolerance": verdict.tolerance,
        "point_exponents": list(verdict.point_exponents),
        "witness_coefficients": None
        if verdict.witness is None
        else [{"re": z.real, "im": z.imag} for z in np.asarray(verdict.witness, dtype=complex)],
    }
    _emit(report_to_json(payload), args.output)
    return 0 if verdict.positive else 1


def _cmd_bochner(args: argparse.Namespace) -> int:
    f, table = _load(args, args.input, origin=True)
    report = bochner_reconstruct(f, range(1, args.levels + 1), table, args.tol)
    sys.stdout.write(report_to_json(report))
    if args.output is not None and report.limit_measure is not None:
        # recovered measure written as a lattice function CSV of its weights
        mf = LatticeFunction(report.limit_measure.lattice, report.limit_measure.weights)
        save_lattice_function(mf, args.output)
    return 0 if report.accepted else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _params(args)
    only = args.only.split(",") if args.only else None
    result = run_suite(params, _lattice(args), tol=args.tol, only=only)
    _emit(report_to_json(result), args.output)
    return 0 if result.all_ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except CSVFormatError as exc:
        sys.stderr.write(f"{args.command}: CSV parse error: {exc}\n")
        return 2
    except (FileNotFoundError, IndexError, QHarmError, ValueError) as exc:
        sys.stderr.write(f"{args.command}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
