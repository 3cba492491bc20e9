"""The workloads: set-up, one round, the checks of a round's outputs,
and the extra layer calls of a traced round.

A round is a fixed batch of operations.  ``run_round`` is the only timed
code; inputs are made before it and outputs are checked after it, against
float references that ``run.py`` computed with mpmath before the worker
started (see reference.py).  Checks compare with those references or with
a property the method must have, never with a stored copy of qharm output.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from qharm import (
    LatticeFunction,
    QLattice,
    QMeasure,
    QParams,
    bochner_reconstruct,
    build_transform_table,
    convolution,
    fourier_transform,
    gauss_kernel_function,
    is_q_positive_type,
    lattice_function_to_csv,
    lattice_jv_table,
    load_lattice_function,
    measure_product_identity_error,
    q_exponential,
    qv_membership_probe,
    run_suite,
    statement_ids,
    translation,
    translation_via_kernel,
)

import inputs as I

# relative tolerances of the float checks
TOL_EXACT = 1e-10  # same formula, independent kernel values
TOL_CONSTANT = 1e-12  # c_qv, B_qv
TOL_KERNEL = 1e-9  # table entries against mpmath, local scale
TOL_INVERSION = 1e-8  # F(F f) = f, as Thm1-inversion
TOL_BOCHNER = 1e-6  # recovered measure, as Thm4-roundtrip
MAX_DIGITS = 16.0


class Failed:
    """Outcome of an operation that raised, kept in a round's outputs."""

    def __init__(self, error: str) -> None:
        self.error = error


def attempt(op, *needs):
    """Outcome of ``op()``, or Failed if it raises.  An operation that needs
    the outcome of an earlier one fails without running when that one failed."""
    for need in needs:
        if isinstance(need, Failed):
            return Failed(f"needs a failed operation ({need.error})")
    try:
        return op()
    except Exception as exc:  # noqa: BLE001  (any exception fails the operation)
        return Failed(f"{type(exc).__name__}: {exc}")


class Checks:
    """Outcome of checking one round: failed operations (with their errors),
    failed checks of the other operations, and the fewest correct digits
    among the outputs compared with a reference."""

    def __init__(self) -> None:
        self.failed = 0
        self.errors: List[str] = []
        self.problems: List[str] = []
        self.digits = MAX_DIGITS

    def fail(self, name: str, error: str, ops: int = 1) -> None:
        """Count ``ops`` failed operations; their outputs are not checked."""
        self.failed += ops
        self.errors.append(f"{name}: {error}")

    def close(self, name: str, got, ref, tol: float, scale: Optional[float] = None) -> None:
        got = np.asarray(got, dtype=complex)
        ref = np.asarray(ref, dtype=complex)
        if scale is None:
            scale = float(np.abs(ref).max())
        err = float(np.abs(got - ref).max()) / scale
        if not err <= tol:
            self.problems.append(f"{name}: relative error {err:.3e} > {tol:g}")
        self.note(err)

    def note(self, rel_err: float) -> None:
        if rel_err > 0.0:
            self.digits = min(self.digits, -math.log10(rel_err))
        if not math.isfinite(self.digits):
            self.digits = 0.0

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.problems.append(f"{name}: {detail}")


def kernel_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Worst error of table entries relative to the local kernel scale.

    The scale of entry m is the largest |j| among m-1, m, m+1, so entries
    next to a zero of j are not judged by their own tiny value; entries
    whose scale is below 1e-290 carry no double-precision digits and are
    skipped.
    """
    a = np.abs(ref)
    scale = a.copy()
    scale[1:] = np.maximum(scale[1:], a[:-1])
    scale[:-1] = np.maximum(scale[:-1], a[1:])
    keep = scale > 1e-290
    return float((np.abs(got - ref)[keep] / scale[keep]).max())


def interior(size: int, fraction: float) -> slice:
    """Centred slice holding ``fraction`` of the window."""
    margin = min(int(round(size * (1.0 - fraction) / 2.0)), (size - 1) // 2)
    return slice(margin, size - margin)


class RegimeRef:
    """Float references of one regime, built from the mpmath values."""

    def __init__(self, ref: dict) -> None:
        self.q, self.v = ref["q"], ref["v"]
        self.n_min, self.n_max = ref["n_min"], ref["n_max"]
        self.c_qv, self.B_qv = ref["c_qv"], ref["B_qv"]
        self.table = np.array(ref["table"])
        self.gauss = {int(w): np.array(x) for w, x in ref["gauss"].items()}
        self.density = {int(w): np.array(x) for w, x in ref["density"].items()}
        size = self.n_max - self.n_min + 1
        idx = np.arange(size)
        n = np.arange(self.n_min, self.n_max + 1)
        self.weights = self.q ** ((2.0 * self.v + 2.0) * n)
        self.scale = self.c_qv * (1.0 - self.q)
        hankel = self.table[idx[:, None] + idx[None, :]]
        self.matrix = self.scale * hankel * self.weights[None, :]
        self.size = size

    def transform(self, f: np.ndarray) -> np.ndarray:
        return self.matrix @ f

    def at_zero(self, f: np.ndarray) -> complex:
        return self.scale * complex(np.sum(self.weights * f))

    def row(self, n: int) -> np.ndarray:
        i = n - self.n_min
        return self.table[i : i + self.size]

    def mixture(self, mix: dict, which: str) -> np.ndarray:
        source = self.gauss if which == "gauss" else self.density
        return sum(c * source[w] for w, c in zip(mix["widths"], mix["weights"]))


def _inputs_for(refs: List[RegimeRef], seed: int, round_index: int) -> List[dict]:
    """Request inputs of one round with the mixture densities filled in."""
    batch = I.request_inputs(seed, round_index)
    for item, ref in zip(batch, refs):
        item["rho"] = ref.mixture(item["mixture"], "density")
    return batch


class Workload:
    name = ""
    ops_per_round = 0
    # set-up runs to the end of the warm-up round (the first call of each
    # kind of operation), except where the set-up a user pays is the
    # fresh-process import alone
    setup_is_import = False

    def __init__(self, seed: int, refs: dict, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the state the workload keeps (tables), untimed inputs aside."""

    def inputs(self, round_index: int):
        raise NotImplementedError

    def run_round(self, inp, tr):
        raise NotImplementedError

    def check(self, inp, out) -> Checks:
        raise NotImplementedError

    def layer_calls(self, inp, out, tr) -> None:
        """Extra calls of a traced round, made after the round's timer."""

    def counts(self, inp, out) -> Dict[str, float]:
        """Operation counts of a round, computed from array shapes."""
        return {}


class VerifySuite(Workload):
    """run_suite with every statement on both README regimes."""

    name = "verify-suite"

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        self.regimes = [RegimeRef(r) for r in refs["regimes"]]
        self.ops_per_round = len(I.REGIMES) * len(statement_ids())

    def inputs(self, round_index):
        return {"order": I.regime_order(self.seed, round_index), "round": round_index}

    def run_round(self, inp, tr):
        out = []
        for i in inp["order"]:
            q, v, n_min, n_max = I.REGIMES[i]
            params = attempt(lambda: tr.call("qlattice.QParams", QParams, q, v))
            result = attempt(lambda: tr.call("verify.run_suite", run_suite, params,
                                             QLattice(q, n_min, n_max)), params)
            out.append((i, params, result))
        return out

    def check(self, inp, out):
        ck = Checks()
        for i, params, result in out:
            ref = self.regimes[i]
            if isinstance(result, Failed):
                # no statement of this regime ran
                ck.fail(f"run_suite[{i}]", result.error, len(statement_ids()))
                continue
            ck.close(f"c_qv[{i}]", params.c_qv, ref.c_qv, TOL_CONSTANT)
            ck.close(f"B_qv[{i}]", params.B_qv, ref.B_qv, TOL_CONSTANT)
            for e in result.entries:
                if e.detail.startswith("exception:"):
                    ck.fail(f"{e.statement_id}[{i}]", e.detail)
                else:
                    ck.require(e.statement_id, e.status == "pass", f"{e.status} {e.measured_error:.3e}")
            if inp["round"] == 0:
                # the table run_suite builds, rebuilt outside the round
                q, v, n_min, n_max = I.REGIMES[i]
                table = build_transform_table(params, QLattice(q, n_min, n_max))
                err = kernel_error(table.bessel_values, ref.table)
                ck.require(f"kernel[{i}]", err <= TOL_KERNEL, f"{err:.3e}")
                ck.note(err)
        return ck

    def layer_calls(self, inp, out, tr):
        rng = I.round_rng(self.seed, inp["round"] + (1 << 16))
        for i, params, result in out:
            if isinstance(params, Failed):
                continue
            q, v, n_min, n_max = I.REGIMES[i]
            lat = QLattice(q, n_min, n_max)
            tr.call("bessel.lattice_jv_table.miller", lattice_jv_table, params, 2 * n_min, -1)
            tr.call("bessel.lattice_jv_table.series", lattice_jv_table, params, 0, 2 * n_max)
            table = tr.call("transform.build_transform_table", build_transform_table, params, lat)
            with tr.span("transform.kernel_matrix"):
                table.kernel_matrix
            q2 = q * q
            for x in lat.points:
                tr.call("qlattice.q_exponential", q_exponential, -x * x, q2)
            tr.call("operators.gauss_kernel_function", gauss_kernel_function, 1.0, params, lat)
            f = LatticeFunction(lat, I.compact(rng, n_min, n_max))
            g = LatticeFunction(lat, I.compact(rng, n_min, n_max))
            tr.call("operators.convolution", convolution, f, g, table, route="direct")
            tr.call("operators.translation_via_kernel", translation_via_kernel, f, 2, table)
            # measures with mass at exponents -2..hi, as in S3-product
            lo, hi = I.clean_range(n_min, n_max)
            support = (lat.indices >= max(-2, lo)) & (lat.indices <= hi)
            xi = QMeasure(lat, np.where(support, rng.uniform(0.0, 1.0, lat.size), 0.0))
            rho = QMeasure(lat, np.where(support, rng.uniform(0.0, 1.0, lat.size), 0.0))
            tr.call("positivity.measure_product_identity_error",
                    measure_product_identity_error, xi, rho, table)
            density = LatticeFunction(lat, self.regimes[i].density[1], value_at_zero=1.0)
            phi = tr.call("transform.fourier_transform", fourier_transform, density, table)
            tr.call("positivity.bochner_reconstruct", bochner_reconstruct, phi, range(1, 11), table)

    def counts(self, inp, out):
        return {
            "computed.table_entries": float(sum(r.table.size for r in self.regimes)),
            "computed.bochner_levels": float(10 * len(out)),
        }

    def statement_ms(self, out) -> Dict[str, float]:
        ms: Dict[str, float] = {}
        for _, _, result in out:
            for e in getattr(result, "entries", ()):
                ms[e.statement_id] = ms.get(e.statement_id, 0.0) + e.runtime_ms
        return ms


class QScan(Workload):
    """QParams, a README-scaled kernel table and a clean probe scan per (q, v)."""

    name = "q-scan"

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        self.grid = I.scan_grid(seed)
        self.ops_per_round = len(self.grid)
        self.scan_refs = {(r["q"], r["v"]): r for r in refs["scan"]}

    def inputs(self, round_index):
        return self.grid

    def run_round(self, grid, tr):
        return [attempt(lambda: self._pair(q, v, tr)) for q, v in grid]

    @staticmethod
    def _pair(q, v, tr):
        params = tr.call("qlattice.QParams", QParams, q, v)
        n_min, n_max = I.scan_window(q)
        table = tr.call("transform.build_transform_table", build_transform_table,
                        params, QLattice(q, n_min, n_max))
        report = tr.call("operators.qv_membership_probe", qv_membership_probe, params,
                         QLattice(q, *I.PROBE_WINDOW), tolerance=I.PROBE_TOLERANCE)
        return q, v, params, table, report

    def check(self, grid, out):
        ck = Checks()
        for (q, v), pair in zip(grid, out):
            if isinstance(pair, Failed):
                ck.fail(f"pair({q},{v})", pair.error)
                continue
            _, _, params, table, report = pair
            ref = self.scan_refs[(q, v)]
            ck.close(f"c_qv({q},{v})", params.c_qv, ref["c_qv"], TOL_CONSTANT)
            ck.close(f"B_qv({q},{v})", params.B_qv, ref["B_qv"], TOL_CONSTANT)
            # every checked exponent comes with its neighbours (inside the
            # table), which give the local scale of kernel_error
            m_lo = 2 * table.lattice.n_min
            for m in ref["checked"]:
                near = [k for k in (m - 1, m, m + 1) if str(k) in ref["kernel"]]
                vals = np.array([ref["kernel"][str(k)] for k in near])
                got = table.bessel_values[np.array(near) - m_lo]
                scale = float(np.abs(vals).max())
                if scale > 1e-290:
                    err = abs(got[near.index(m)] - ref["kernel"][str(m)]) / scale
                    ck.require(f"kernel({q},{v},{m})", err <= TOL_KERNEL, f"{err:.3e}")
                    ck.note(err)
            ck.require(f"probe({q},{v})", report.witness is None,
                       f"witness {report.witness} D={report.min_value:.3e}")
            ck.require(f"probe-min({q},{v})", abs(report.min_value) <= I.PROBE_TOLERANCE,
                       f"min {report.min_value:.3e}")
        return ck

    def layer_calls(self, grid, out, tr):
        for q, v, params, table, report in _succeeded(out):
            n_min, n_max = I.scan_window(q)
            tr.call("bessel.lattice_jv_table.miller", lattice_jv_table, params, 2 * n_min, -1)
            tr.call("bessel.lattice_jv_table.series", lattice_jv_table, params, 0, 2 * n_max)

    def counts(self, grid, out):
        probe = I.PROBE_WINDOW[1] - I.PROBE_WINDOW[0] + 1
        done = _succeeded(out)
        return {
            "computed.probe_triples": float(len(done) * probe**3),
            "computed.table_entries": float(sum(t.bessel_values.size for _, _, _, t, _ in done)),
        }


class FunctionRequests(Workload):
    """Per-call library use on kept tables, with fresh inputs every round."""

    name = "function-requests"

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        self.regimes = [RegimeRef(r) for r in refs["regimes"]]
        self.ops_per_round = 8 * len(I.REGIMES)
        self.tables = []

    def setup(self):
        for q, v, n_min, n_max in I.REGIMES:
            table = build_transform_table(QParams(q, v), QLattice(q, n_min, n_max))
            table.kernel_matrix
            self.tables.append(table)

    def inputs(self, round_index):
        return _inputs_for(self.regimes, self.seed, round_index)

    def run_round(self, batch, tr):
        out = []
        for (q, v, n_min, n_max), table, item in zip(I.REGIMES, self.tables, batch):
            lat = table.lattice
            ft = "transform.fourier_transform"
            pq = "positivity.is_q_positive_type"
            levels = range(1, I.BOCHNER_LEVELS[q] + 1)
            phi = attempt(lambda: tr.call(ft, fourier_transform, LatticeFunction(lat, item["rho"]),
                                          table))
            ff = attempt(lambda: tr.call(ft, fourier_transform, LatticeFunction(lat, item["f"]),
                                         table))
            fff = attempt(lambda: tr.call(ft, fourier_transform, ff, table), ff)
            shifted = attempt(lambda: tr.call("operators.translation", translation, phi,
                                              item["x"], table), phi)
            conv = attempt(lambda: tr.call("operators.convolution", convolution,
                                           LatticeFunction(lat, item["f"]),
                                           LatticeFunction(lat, item["g"]), table))
            pos = attempt(lambda: tr.call(pq, is_q_positive_type, phi, table=table), phi)
            neg = attempt(lambda: tr.call(pq, is_q_positive_type, LatticeFunction(
                lat, -phi.values, value_at_zero=-phi.value_at_zero), table=table), phi)
            boch = attempt(lambda: tr.call("positivity.bochner_reconstruct", bochner_reconstruct,
                                           phi, levels, table), phi)
            out.append({"phi": phi, "ff": ff, "fff": fff, "shifted": shifted,
                        "conv": conv, "pos": pos, "neg": neg, "boch": boch})
        return out

    def check(self, batch, out):
        ck = Checks()
        for ref, item, res in zip(self.regimes, batch, out):
            done = {}
            for key, outcome in res.items():
                if isinstance(outcome, Failed):
                    ck.fail(f"{key} q={ref.q}", outcome.error)
                else:
                    done[key] = outcome
            for key in ("pos", "neg"):
                if key in done:
                    done[key] = done[key].positive
            if "boch" in done:
                boch = done.pop("boch")
                done["measure"] = None
                if boch.accepted:
                    done["measure"] = boch.limit_measure.weights * complex(boch.normalization).real
            check_requests(ck, ref, item, done)
        return ck

    def layer_calls(self, batch, out, tr):
        for table in self.tables:
            with tr.span("transform.weights"):
                table.weights
            fresh = dataclasses.replace(table)  # same kernel values, no cached matrix
            with tr.span("transform.kernel_matrix"):
                fresh.kernel_matrix

    def counts(self, batch, out):
        bochs = _succeeded(r["boch"] for r in out)
        return {"computed.bochner_levels": float(sum(len(b.levels) for b in bochs))}


def _succeeded(outcomes) -> list:
    return [o for o in outcomes if not isinstance(o, Failed)]


def check_requests(ck: Checks, ref: RegimeRef, item: dict, res: dict) -> None:
    """Checks of one regime's requests (function-requests and cli-batch)."""
    tag = f"q={ref.q}"
    f, g = item["f"], item["g"]
    if "phi" in res:
        # F of a q-Gaussian mixture against the closed-form kernel mixture
        sl = interior(ref.size, 0.8)
        exact = ref.mixture(item["mixture"], "gauss")
        phi = res["phi"]
        got = np.append(phi.values[sl], phi.value_at_zero)
        ck.close(f"F(rho) {tag}", got, np.append(exact[:-1][sl], exact[-1]), TOL_EXACT)
    if "ff" in res:
        ff = res["ff"]
        ck.close(f"F(f) {tag}", np.append(ff.values, ff.value_at_zero),
                 np.append(ref.transform(f), ref.at_zero(f)), TOL_EXACT)
    if "fff" in res:
        lo, hi = I.clean_range(ref.n_min, ref.n_max)
        keep = slice(lo - ref.n_min, hi - ref.n_min + 1)
        ck.close(f"F(F f) {tag}", res["fff"].values[keep], f[keep], TOL_INVERSION)
    if "shifted" in res:
        phi = res["phi"].values
        expect = ref.transform(ref.transform(phi) * ref.row(item["x"]))
        ck.close(f"T_x phi {tag}", res["shifted"].values, expect, TOL_EXACT)
    if "conv" in res:
        expect = ref.transform(ref.transform(f) * ref.transform(g))
        ck.close(f"f*g {tag}", res["conv"].values, expect, TOL_EXACT)
    if "pos" in res:
        ck.require(f"positive {tag}", res["pos"], "F(rho) not POSITIVE")
    if "neg" in res:
        ck.require(f"negative {tag}", not res["neg"], "-F(rho) not NEGATIVE")
    if "measure" in res:
        if res["measure"] is None:
            ck.require(f"bochner {tag}", False, "pipeline rejected")
        else:
            sl = interior(ref.size, 0.6)
            rho = ref.mixture(item["mixture"], "density")
            ck.close(f"bochner {tag}", res["measure"][sl], rho[sl], TOL_BOCHNER)


# -- cli-batch ---------------------------------------------------------------

CLI_MAIN = "import sys; from qharm.cli import main; sys.exit(main())"


def write_csv(path: str, q: float, n_min: int, values: np.ndarray,
              at_zero: Optional[complex] = None) -> None:
    """The CSV layout of the README, written without qharm."""
    with open(path, "w", newline="") as fh:
        fh.write("n,x,re,im\n")
        for k, val in enumerate(values):
            n = n_min + k
            fh.write(f"{n},{q ** n!r},{float(val)!r},0.0\n")
        if at_zero is not None:
            z = complex(at_zero)
            fh.write(f",0,{z.real!r},{z.imag!r}\n")


def read_csv(path: str) -> Tuple[np.ndarray, Optional[complex]]:
    vals, at_zero = [], None
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        z = complex(float(row[2]), float(row[3]))
        if row[0] == "":
            at_zero = z
        else:
            vals.append(z)
    return np.array(vals), at_zero


class CliBatch(Workload):
    """Fresh qharm processes, one at a time, on CSVs the benchmark writes."""

    name = "cli-batch"
    setup_is_import = True

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        self.regimes = [RegimeRef(r) for r in refs["regimes"]]
        self.jv_refs = refs["cli_jv"]
        self.items = _inputs_for(self.regimes, seed, 0)
        self.commands = self._commands()
        self.ops_per_round = len(self.commands)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _commands(self) -> List[Tuple[str, int, List[str]]]:
        """(subcommand, regime, argv) in the fixed order of a round."""
        cmds = []
        for i, (q, v, n_min, n_max) in enumerate(I.REGIMES):
            common = ["--q", repr(q), "--v", repr(v)]
            levels = str(I.BOCHNER_LEVELS[q])
            cmds += [
                ("eval", i, ["eval", "jv", "--z", repr(I.CLI_JV_Z), "--qbase", repr(q * q),
                             "--v", repr(v)]),
                ("eval", i, ["eval", "c_qv"] + common),
                ("transform", i, ["transform", self._path(f"f{i}.csv"), *common,
                                  "--output", self._path(f"Ff{i}.csv")]),
                ("positivity", i, ["positivity", self._path(f"phi{i}.csv"), *common]),
                ("bochner", i, ["bochner", self._path(f"phi{i}.csv"), *common,
                                "--levels", levels, "--output", self._path(f"mu{i}.csv")]),
                ("probe-qv", i, ["probe-qv", *common, "--nmin", str(I.PROBE_WINDOW[0]),
                                 "--nmax", str(I.PROBE_WINDOW[1])]),
                ("verify", i, ["verify", "--only", I.CLI_VERIFY_ONLY, *common,
                               "--nmin", str(n_min), "--nmax", str(n_max)]),
            ]
        return cmds

    def setup(self):
        for i, ((q, v, n_min, n_max), ref, item) in enumerate(zip(I.REGIMES, self.regimes, self.items)):
            write_csv(self._path(f"f{i}.csv"), q, n_min, item["f"])
            # phi = F rho through the reference kernel, with phi(0)
            write_csv(self._path(f"phi{i}.csv"), q, n_min, ref.transform(item["rho"]),
                      ref.at_zero(item["rho"]))

    def inputs(self, round_index):
        return self.items

    def run_round(self, items, tr):
        out = []
        for sub, i, argv in self.commands:
            with tr.span(f"cli.{sub}"):
                proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv],
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            out.append((sub, i, argv, proc.returncode, proc.stdout, proc.stderr))
        return out

    def check(self, items, out):
        ck = Checks()
        per_regime: Dict[int, dict] = {i: {} for i in range(len(I.REGIMES))}
        for sub, i, argv, code, stdout, stderr in out:
            if code != 0:
                last = stderr.strip().splitlines()[-1:]
                ck.fail(" ".join(argv[:2]), f"exit {code}: {''.join(last)[:200]}")
                continue
            try:
                self._check_process(ck, sub, i, argv, stdout, per_regime[i])
            except (ValueError, KeyError, TypeError) as exc:
                ck.require(" ".join(argv[:2]), False, f"unreadable output: {exc!r}")
        for i, res in per_regime.items():
            check_requests(ck, self.regimes[i], self.items[i], res)
        return ck

    def _check_process(self, ck, sub, i, argv, stdout, res):
        """Checks of one process that exited 0; fills ``res`` for check_requests."""
        ref = self.regimes[i]
        tag = f"q={ref.q}"
        if sub == "eval" and argv[1] == "jv":
            ck.close(f"eval jv {tag}", float(stdout), self.jv_refs[i], TOL_KERNEL)
        elif sub == "eval":
            ck.close(f"eval c_qv {tag}", float(stdout), ref.c_qv, TOL_CONSTANT)
        elif sub == "transform":
            vals, at_zero = read_csv(self._path(f"Ff{i}.csv"))
            res["ff"] = LatticeFunction(QLattice(ref.q, ref.n_min, ref.n_max), vals,
                                        value_at_zero=at_zero)
        elif sub == "positivity":
            res["pos"] = json.loads(stdout)["verdict"] == "POSITIVE"
        elif sub == "bochner":
            report = json.loads(stdout)
            measure = None
            if report["accepted"]:
                weights, _ = read_csv(self._path(f"mu{i}.csv"))
                measure = weights.real * report["normalization"]["re"]
            res["measure"] = measure
        elif sub == "probe-qv":
            report = json.loads(stdout)
            ck.require(f"probe {tag}", report["witness"] is None, str(report))
            ck.require(f"probe-min {tag}", abs(report["min_value"]) <= I.PROBE_TOLERANCE,
                       str(report["min_value"]))
        elif sub == "verify":
            entries = json.loads(stdout)["entries"]
            wanted = set(I.CLI_VERIFY_ONLY.split(","))
            for e in entries:
                want = "pass" if e["statement_id"] in wanted else "skip"
                ck.require(f"verify {e['statement_id']} {tag}", e["status"] == want, e["status"])

    def layer_calls(self, items, out, tr):
        with tr.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import qharm"], check=True)
        for i, (q, v, n_min, n_max) in enumerate(I.REGIMES):
            for name in (f"f{i}.csv", f"phi{i}.csv"):
                fn = tr.call("lattice_io.load_lattice_function", load_lattice_function,
                             self._path(name), q)
                tr.call("lattice_io.lattice_function_to_csv", lattice_function_to_csv, fn)
            params = tr.call("qlattice.QParams", QParams, q, v)
            tr.call("bessel.lattice_jv_table.miller", lattice_jv_table, params, 2 * n_min, -1)
            tr.call("bessel.lattice_jv_table.series", lattice_jv_table, params, 0, 2 * n_max)
            tr.call("transform.build_transform_table", build_transform_table, params,
                    QLattice(q, n_min, n_max))

    def counts(self, items, out):
        probe = I.PROBE_WINDOW[1] - I.PROBE_WINDOW[0] + 1
        levels = sum(len(json.loads(o[4])["cutoff_levels"]) for o in out
                     if o[0] == "bochner" and o[3] == 0)
        # transform, positivity, bochner and verify each build the window's table
        return {
            "computed.probe_triples": float(len(I.REGIMES) * probe**3),
            "computed.bochner_levels": float(levels),
            "computed.table_entries": float(4 * sum(r.table.size for r in self.regimes)),
        }


WORKLOADS = {w.name: w for w in (VerifySuite, QScan, FunctionRequests, CliBatch)}
