"""qharm benchmark: four workloads, each checked against independent references.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a qharm checkout.  The benchmark compiles src/, computes
the mpmath references of the workload (outside every timed region), runs
the set-up in several fresh worker processes, then one worker that repeats
the workload's round for S seconds.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs traced and untraced rounds
alternately and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Every
worker runs with BLAS limited to one thread (see README.md).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import inputs as I  # noqa: E402

WORKLOADS = ("verify-suite", "q-scan", "function-requests", "cli-batch")
# set-up runs in this many fresh processes before the measuring worker and
# as many after it (the machine's speed drifts over tens of seconds, so the
# samples straddle the measurement); setup_s is the median of these and the
# measuring worker's own set-up.  The set-ups of cli-batch (one import) and
# function-requests (two tables) are short and spread most, and cheap
# enough to sample more often.
SETUP_SAMPLES_EACH_SIDE = {"cli-batch": 8, "function-requests": 6}
SETUP_SAMPLES_DEFAULT = 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_digits", "digits"),
)


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


def references(workload: str, seed: int) -> dict:
    """mpmath references of one run (reference.py never imports qharm)."""
    import reference as R

    if workload == "q-scan":
        scan = []
        for q, v in I.scan_grid(seed):
            n_min, n_max = I.scan_window(q)
            checked = I.scan_exponents(seed, q, v)
            near = {m + d for m in checked for d in (-1, 0, 1)} & set(range(2 * n_min, 2 * n_max + 1))
            scan.append({
                "q": q, "v": v,
                "c_qv": float(R.c_qv(q, v)), "B_qv": float(R.big_b_qv(q, v)),
                "checked": checked,
                "kernel": {str(m): float(R.jv_lattice(q, v, m)) for m in sorted(near)},
            })
        return {"scan": scan}
    refs = {"regimes": [R.regime_reference(q, v, a, b, I.WIDTHS) for q, v, a, b in I.REGIMES]}
    if workload == "cli-batch":
        refs["cli_jv"] = [float(R.jv(I.CLI_JV_Z, q * q, v)) for q, v, _, _ in I.REGIMES]
    return refs


def worker(args, role: str, env: dict, refs_path: str, workdir: str, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--refs", refs_path, "--workdir", workdir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} {role} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, root: str) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        refs_path = os.path.join(tmp, "refs.json")
        with open(refs_path, "w") as fh:
            json.dump(references(args.workload, args.seed), fh)
        samples = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE.get(args.workload,
                                                                   SETUP_SAMPLES_DEFAULT)
        setups = [worker(args, "setup", env, refs_path, tmp) for _ in range(samples)]
        trace_out = None
        if args.trace:
            trace_out = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        res = worker(args, "measure", env, refs_path, tmp, trace_out)
        setups += [worker(args, "setup", env, refs_path, tmp) for _ in range(samples)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["setup_wall_s"] = statistics.median([s["setup_wall_s"] for s in setups] + [res["setup_wall_s"]])
    res["setup_s"] = statistics.median([s["setup_s"] for s in setups] + [res["setup_s"]])
    return res


def metrics_of(res: dict, trace: int, spec: dict) -> dict:
    if not trace:
        return {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    layers = res["layers"]
    return {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qharm", "__init__.py")):
        print("run.py: no src/qharm here; run from the root of a qharm checkout",
              file=sys.stderr)
        return 2
    # the build: byte-compile the sources once, so no timed import compiles
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE], check=True,
                   stdout=subprocess.DEVNULL)
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        one = argparse.Namespace(**vars(args))
        one.workload = name
        res = run_workload(one, root)
        metrics = metrics_of(res, args.trace, spec)
        for error in res["errors"]:
            print(f"{name}: OPERATION FAILED {error}")
        for problem in res["problems"]:
            print(f"{name}: CHECK FAILED {problem}")
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"rounds {res['rounds']}")
        for key, m in metrics.items():
            print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
        if not args.trace:
            print(f"{name}: wall setup {res['setup_wall_s']:.6g} s, round {res['round_wall_s']:.6g} s; "
                  f"calibration {res['calibration_s'] * 1e3:.4g} ms")
        print(f"{name}: env {json.dumps(res['env'], sort_keys=True)}")
        results[name] = {
            "correct": not res["problems"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
