"""One benchmark worker process: set-up, then (role "measure") timed rounds.

Started by run.py with BLAS limited to one thread and PYTHONPATH on the
checkout's src.  `import qharm` comes first, before any module of the
benchmark, so its time (numpy's import under it included) is that of a
fresh-process import; it opens the set-up clock.  Prints one JSON object as
its last line.

Times are reported at a nominal host speed.  On the shared machine this
benchmark was built on, the same code ran up to 1.85x slower from one
20-second window to the next because of other tenants' load: in a
four-minute test the medians of 20-second windows spread 0.39-0.55
(quartile distance over median), beyond any usable bound.  So the worker
times a fixed calibration loop that does not touch qharm (pure-Python float
products and small numpy matvecs and eigh, about 5 ms) before and after
every round and after the set-up, and scales each measured time by
CALIBRATION_S / the calibration time around it.  That cut the spread between 20-second windows
to 0.06-0.09.  A change to qharm moves the scaled times exactly as it
moves the raw ones; raw times are reported alongside.
"""
import time

T0 = time.perf_counter()
import qharm  # noqa: E402,F401

T_IMPORT = time.perf_counter() - T0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402

from tracer import NullTracer, Tracer  # noqa: E402

# at least this many timed rounds, whatever --seconds says; a traced run
# needs two traced and two untraced rounds to compare
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
# nominal wall time of one calibration(); scaled times are wall times on a
# host where the calibration takes this long
CALIBRATION_S = 0.005
SETUP_CALIBRATIONS = 3
CALIBRATION_MATRIX = np.random.default_rng(0).uniform(size=(191, 191))


def calibration() -> float:
    """Wall time of a fixed loop that does not touch qharm."""
    a = CALIBRATION_MATRIX
    t = time.perf_counter()
    out = 1.0
    for i in range(40000):
        out *= 1.0 - 5e-7 * 0.999999**i
    x = np.ones(191)
    for _ in range(40):
        x = a @ x
        x /= np.abs(x).max()
        np.linalg.eigh(a[:11, :11] + a[:11, :11].T)
    return time.perf_counter() - t


def blas_info() -> dict:
    """BLAS library numpy was built with, and the threads it runs."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--role", choices=["setup", "measure"], required=True)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    with open(args.refs) as fh:
        refs = json.load(fh)
    work = W.WORKLOADS[args.workload](args.seed, refs, args.workdir)

    setup_wall = T_IMPORT
    if not work.setup_is_import or args.role == "measure":
        inp0 = work.inputs(0)
        t = time.perf_counter()
        work.setup()
        out0 = work.run_round(inp0, NullTracer())
        if not work.setup_is_import:
            setup_wall += time.perf_counter() - t
    calib = statistics.median(calibration() for _ in range(SETUP_CALIBRATIONS))
    result = {"setup_s": setup_wall * CALIBRATION_S / calib, "setup_wall_s": setup_wall}
    if args.role == "setup":
        print(json.dumps(result))
        return 0

    first = work.check(inp0, out0)
    failed, errors, problems = first.failed, list(first.errors), list(first.problems)
    tracer = Tracer() if args.trace else None
    times = {False: [], True: []}  # scaled round times, by traced
    walls, calibs = [], [calibration()]
    counts, statement_ms = [], []
    start = time.perf_counter()
    r = 0
    while True:
        r += 1
        traced = bool(args.trace) and r % 2 == 0
        inp = work.inputs(r)
        tr = NullTracer()
        if traced:
            tracer.round = r
            tr = tracer
        t = time.perf_counter()
        with tr.span("round"):
            out = work.run_round(inp, tr)
        wall = time.perf_counter() - t
        calibs.append(calibration())
        times[traced].append(wall * CALIBRATION_S / ((calibs[-2] + calibs[-1]) / 2.0))
        walls.append(wall)
        if traced:
            work.layer_calls(inp, out, tracer)
            tracer.round = None
            counts.append(work.counts(inp, out))
            if hasattr(work, "statement_ms"):
                statement_ms.append(work.statement_ms(out))
        ck = work.check(inp, out)
        failed += ck.failed
        errors += [e for e in ck.errors if e not in errors]
        problems += ck.problems
        rounds = len(walls)
        need = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
        if time.perf_counter() - start >= args.seconds and rounds >= need:
            break
    if work.name == "cli-batch":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    plain = times[False]
    result.update(
        rounds=1 + rounds,
        attempted=(1 + rounds) * work.ops_per_round,
        failed=failed,
        errors=errors[:20],
        problems=problems[:20],
        round_s=statistics.median(plain),
        ops_per_s=len(plain) * work.ops_per_round / sum(plain),
        round_wall_s=statistics.median(walls),
        calibration_s=statistics.median(calibs),
        peak_rss_mb=peak_kb / 1024.0,
        accuracy_digits=first.digits,
        env=blas_info(),
    )
    if args.trace:
        result["layers"] = layer_metrics(tracer, times, counts, statement_ms)
        result["layers"]["host.calibration_ms"] = 1e3 * statistics.median(calibs)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, times, counts, statement_ms) -> dict:
    """Per traced round: median self ms and calls of each span name,
    statement runtimes, computed counts, and the tracing overhead (from the
    scaled round times)."""
    by_round_ms = tracer.self_ms_by_round()
    by_round_calls = tracer.calls_by_round()
    rounds = sorted(by_round_ms)
    names = {n for per in by_round_ms.values() for n in per} - {"round"}
    out = {}
    for name in names:
        out[f"{name}.ms"] = statistics.median(by_round_ms[r].get(name, 0.0) for r in rounds)
        out[f"{name}.calls"] = statistics.median(by_round_calls[r].get(name, 0) for r in rounds)
    for sid in {k for per in statement_ms for k in per}:
        out[f"verify.{sid}.ms"] = statistics.median(per.get(sid, 0.0) for per in statement_ms)
    for key in {k for per in counts for k in per}:
        out[key] = statistics.median(per.get(key, 0.0) for per in counts)
    out["trace.overhead_ms"] = 1e3 * (statistics.median(times[True]) - statistics.median(times[False]))
    return out


if __name__ == "__main__":
    sys.exit(main())
