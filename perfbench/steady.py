"""Steadiness of the benchmark's end-to-end metrics across runs and seeds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 100]

Run from the root of a qharm checkout.  Makes --runs runs of every workload
in BENCHMARK.json, each run_seconds long and with its own seed, alternating
the workloads (the order rotates every run) so a drift of the machine's
speed spreads over all of them.  Prints, per workload and metric, the
median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound in BENCHMARK.json, and the share
of failed operations; exits 1 when any spread exceeds its bound.  Every
run's result and its nproc, Python, numpy, BLAS library and BLAS thread
count are written to perfbench/out/steady-<first seed>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env_prefix = f"{workload}: env "
    result["env"] = next(json.loads(line[len(env_prefix):]) for line in lines
                         if line.startswith(env_prefix))
    result["seed"] = seed
    return result


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()

    runs = {w: [] for w in names}
    for i in range(args.runs):
        order = names[i % len(names):] + names[: i % len(names)]
        for w in order:
            t = time.perf_counter()
            res = one_run(w, args.first_seed + i, spec["run_seconds"])
            runs[w].append(res)
            values = " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
            print(f"run {i} {w} seed {res['seed']} ({time.perf_counter() - t:.1f} s): {values}",
                  flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{args.first_seed}.json")
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)

    ok = True
    print(f"\n{'workload':18} {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for w in names:
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        print(f"{w:18} failed/attempted: {sorted(shares)}  correct: "
              f"{all(r['correct'] for r in runs[w])}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"]:
                flag, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{w:18} {m['name']:16} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.4f} {m['bound']:6.3f}{flag}")
    print(f"\nruns written to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
