"""Layered polypack benchmark: one command, every metric, checked results.

    python3 perfbench/run.py --workload tri-bulk --seed 1 --seconds 12 --trace 0

Each sample is a fresh ``workload.py`` process (see its docstring for why),
started one after another so samples never compete for the CPUs.  The run
prints a table of every metric with its unit and how it was taken, then,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced samples.  Times are in scaled seconds (see ``workload.Clock``);
the notes give the raw wall time beside them.  ``--seconds`` is the timed
execution, shared out over the samples; set-up (cold compile and pack)
comes on top of it.

``--trace 1`` runs one untraced and one traced sample and reports the
per-layer metrics from the traced one; spans go to ``.perfbench_out/``.
``trace.overhead_ratio`` is traced over untraced set-up plus execution.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_LIMIT_S = 170     # every run must end within 180 s

# BLAS/OpenMP pools would compete with the fork pool and with each other.
# glibc raises its mmap threshold each time a large mmapped block is freed,
# so later arrays come from the heap and the peak RSS depends on how many
# timed rounds fit in the run (107 or 122 MB on tri-bulk).  Pinning the
# threshold at its default of 128 KiB keeps every large array mmapped and
# the peak RSS a measure of live data.
PROCESS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "131072"}


def run_sample(workload, seed, exec_seconds, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--exec-seconds", f"{exec_seconds:.3f}"] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PROCESS_ENV},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} sample exceeded the run limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} sample exited {proc.returncode}")
    return json.loads(lines[-1])


def median_sum(samples, key, kind="scaled"):
    """Sum over kernels (or ops) of the median of their pooled samples."""
    pooled = {}
    for s in samples:
        for k, v in s[kind][key].items():
            pooled.setdefault(k, []).extend(v)
    return sum(statistics.median(v) for v in pooled.values() if v), pooled


def round_totals(samples, key):
    """Per-round sums over kernels, pooled over samples, for the tail."""
    out = []
    for s in samples:
        per_kernel = list(s["scaled"][key].values())
        if per_kernel:
            out.extend(map(sum, zip(*per_kernel)))
    return out


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n} rounds, too few for a tail percentile"
    p = math.floor(100 * (n - 10) / n)
    v = sorted(values)[max(0, math.ceil(p / 100 * n) - 1)]
    return f"p{p} {v:.4g} s over n={n} rounds"


def end_to_end(samples):
    """(metrics, notes): {name: value} and how each value was taken.

    Times are scaled seconds (see workload.REFERENCE_S); each note gives
    the same figure from raw wall time.
    """
    m, notes = {}, {}
    for name in ("setup_s", "compile_s"):
        m[name] = statistics.median(s["scaled"][name] for s in samples)
        raw = statistics.median(s["raw"][name] for s in samples)
        notes[name] = f"median of {len(samples)} fresh processes; raw {raw:.4g} s"
    for name, key in (("pack_s", "pack"), ("exec_packed_s", "packed"),
                      ("exec_dense_s", "dense"), ("exec_par2_s", "par2"),
                      ("gather_s", "gather")):
        if key == "par2" and samples[0]["par2_skipped"]:
            notes[name] = f"skipped: {samples[0]['par2_skipped']}"
            continue
        m[name] = median_sum(samples, key)[0]
        raw = median_sum(samples, key, "raw")[0]
        notes[name] = f"sum of medians; raw {raw:.4g} s"
        if key != "pack":
            notes[name] += "; " + tail(round_totals(samples, key))
    _, packed = median_sum(samples, "packed")
    _, dense = median_sum(samples, "dense")
    ratios = [statistics.median(packed[k]) / statistics.median(dense[k])
              for k in packed if packed[k] and dense.get(k)]
    if ratios:
        m["packed_over_dense"] = math.exp(statistics.fmean(map(math.log, ratios)))
        notes["packed_over_dense"] = f"geometric mean over {len(ratios)} kernels"
    m["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in samples)
    notes["peak_rss_mb"] = "ru_maxrss before the oracle runs"
    st, de = samples[0]["stored"], samples[0]["dense_elements"]
    if de:
        m["stored_over_dense"] = st / de
        notes["stored_over_dense"] = f"{st} of {de} elements at input+output"
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    m["verified_frac"] = 1 - failed / attempted
    notes["verified_frac"] = (f"failed_frac={failed / attempted:g}: "
                              f"{failed} of {attempted} operations failed")
    return m, notes


def per_layer(untraced, traced):
    """(metrics, exec rows) of a traced run, plus the tracing overhead."""
    layers = traced["layers"]

    def cost(s):
        t = s["scaled"]
        return t["setup_s"] + sum(statistics.median(v) for key in ("packed", "dense")
                                  for v in t[key].values())
    m = dict(layers["metrics"])
    m["trace.overhead_ratio"] = cost(traced) / cost(untraced)
    return m, layers["exec_rows"]


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({d["name"]: d["unit"] for d in spec["end_to_end"]},
            {d["name"]: d["unit"] for d in spec["per_layer"]})


def print_table(title, metrics, units, notes):
    print(title)
    width = max(map(len, metrics), default=0)
    for k, v in metrics.items():
        print(f"  {k:<{width}}  {v:>14.6g} {units[k]:<6} {notes.get(k, '')}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="layered polypack benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed execution, shared out over the samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polypack", "__init__.py")):
        print("perfbench: no polypack sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2

    e2e_units, layer_units = load_units()
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        untraced = run_sample(args.workload, args.seed, args.seconds / 2, False, deadline)
        traced = run_sample(args.workload, args.seed, args.seconds / 2, True, deadline)
        samples = [untraced, traced]
        metrics, rows = per_layer(untraced, traced)
        units, notes = layer_units, {}
    else:
        n = WORKLOADS[args.workload].processes
        samples = [run_sample(args.workload, args.seed, args.seconds / n, False, deadline)
                   for _ in range(n)]
        metrics, notes = end_to_end(samples)
        units, rows = e2e_units, {}
    skipped = {"exec_par2_s"} if samples[0]["par2_skipped"] else set()
    missing = set(units) - set(metrics) - skipped
    if missing or set(metrics) - set(units):
        print(f"perfbench: metrics out of step with BENCHMARK.json: "
              f"missing {sorted(missing)}, undeclared {sorted(set(metrics) - set(units))}",
              file=sys.stderr)
        return 1

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} processes={len(samples)} "
          + " ".join(f"{k}={v}" for k, v in samples[0]["machine"].items()))
    print_table("metrics:", metrics, units, notes)
    if rows:
        print_table("execute per kernel and level (traced, median):", rows,
                    dict.fromkeys(rows, "s"), {})
        print(f"spans: {traced['spans_file']}")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
