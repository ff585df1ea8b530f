"""Print every end-to-end metric and the fail share of every workload.

    python3 bench/report.py [--seconds 55] [--seed 1] [--trace]

Runs ``run.py`` once per workload, including those kept out of
BENCHMARK.json, each in its own process so that one workload's peak memory
cannot leak into another's, and prints one row per workload. With
``--trace`` it also runs the traced split and prints one row per per-layer
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run

BENCH_DIR = run.BENCH_DIR
ROOT = run.ROOT


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true",
                    help="also print the traced per-layer split")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    run.bootstrap()
    import workloads

    names = list(workloads.paper_workloads())

    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in spec["end_to_end"]]
    header += ["fail_share", "correct"]
    rows = []
    for name in names:
        res = run_one(name, args.seed, seconds, 0)
        rows.append([name] + [f"{res['metrics'][m['name']]['value']:.4g}"
                              for m in spec["end_to_end"]]
                    + [f"{res['failed'] / res['attempted']:.3g}", res["correct"]])
    table(rows, header)

    if args.trace:
        traced = {name: run_one(name, args.seed, seconds, 1) for name in names}
        rows = [[f"{m['name']} [{m['unit']}]"]
                + [f"{traced[n]['metrics'][m['name']]['value']:.4g}" for n in names]
                for m in spec["per_layer"]]
        print()
        table(rows, ["per-layer metric"] + names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
