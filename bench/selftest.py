"""Self-test of the benchmark at toy sizes; runs in seconds.

    python3 bench/selftest.py

Runs each workload shrunk to a toy size (covariance d=40, Max Cut n=60,
polytope n=10, a 300x10 nuclear ball) through ``run.main`` untraced and
traced. Checks that the last line is a correct result carrying every metric
named in BENCHMARK.json with its unit, that each metric is also printed by
name with its unit, and that the correctness gate rejects a point outside
the spectrahedron. Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def toy_workloads(workloads):
    Target = workloads.Target
    return {w.name: w for w in (
        workloads.cme(d=40, r=3, iters=30, target=Target(2.0, 0.5)),
        workloads.maxcut(n=60, rank=5, iters=20, target=Target(-1.0, 2.0)),
        workloads.polytope(n=10, iters=20, target=Target(1.0, 0.3)),
        workloads.nucball(m=300, n=10, iters=20, target=Target(1.5, 0.3)),
    )}


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL {message}")


def check_result(spec, name, trace, registry):
    argv = ["--workload", name, "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(argv, registry)
    lines = buf.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    where = f"{name} --trace {trace}"
    check(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{where}: run not correct\n" + "\n".join(lines))
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in wanted},
          f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], float) and math.isfinite(got["value"]),
              f"{where}: {m['name']} value {got['value']!r}")
        printed = [ln.split() for ln in lines[:-1]]
        check([m["name"], m["unit"]] in [[p[0], p[-1]] for p in printed if p],
              f"{where}: {m['name']} not printed with its unit")
    print(f"PASS {where}: {len(wanted)} metrics with units")


def check_gate(workloads):
    import numpy as np
    from wpmm import model, solver

    wl = workloads.cme(d=40, r=3, iters=5)
    inputs = wl.instance(0)
    spec, q0, w0 = wl.build(inputs)
    log = solver.run(spec, q0, w0, wl.config(5))
    check(workloads.audit(wl, inputs, log) == [],
          "gate rejects a solve that stayed in its domains")
    # the negated iterate has trace -tau and negative eigenvalues
    log.last_point = model.PrimalPoint(-log.last_point.x, log.last_point.y)
    failures = workloads.audit(wl, inputs, log)
    check(any(f.startswith("last.x outside") for f in failures),
          f"gate accepts a point outside the spectrahedron: {failures}")
    log.last_point = model.PrimalPoint(np.full_like(q0.x, np.nan), q0.y)
    check(workloads.audit(wl, inputs, log) != [], "gate accepts a NaN iterate")
    print("PASS gate rejects points outside the spectrahedron")


def main():
    run.bootstrap()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    registry = toy_workloads(workloads)
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(registry) == sorted(workloads.paper_workloads())
          and set(names) <= set(registry),
          f"workloads differ: BENCHMARK.json {names}, toy {sorted(registry)}")
    check(set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]},
          "run.py end-to-end metrics differ from BENCHMARK.json")
    check(set(run.PER_LAYER_UNITS) == {m["name"] for m in spec["per_layer"]},
          "run.py per-layer metrics differ from BENCHMARK.json")
    check_gate(workloads)
    for name in registry:
        for trace in (0, 1):
            check_result(spec, name, trace, registry)
    print("PASS selftest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
