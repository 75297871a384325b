"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tri-bulk --seeds 1-10 [--trace 0]
        [--baseline perfbench/baseline.json --label seed-commit]

For every metric: the median of the runs, the first and third quartile
(``statistics.quantiles(values, n=4)``), and the spread, the distance between
the quartiles as a share of the median, beside the metric's bound from
``BENCHMARK.json``.  With ``--baseline`` the medians and quartiles are
stored in that file under ``--label`` and the workload's name.
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
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", help="JSON file to record the medians in")
    ap.add_argument("--label", default="baseline")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values, failed, attempted = {}, 0, 0
    for seed in args.seeds:
        cmd = list(spec["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"took {time.monotonic() - start:.1f} s", flush=True)

    summary = {}
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} bound")
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(k)
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                         "  WIDE" if spread > bound else "  >1/3")
        print(f"{k:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} "
              f"{bound if bound is not None else '-'}{flag}")
        summary[k] = {"median": med, "q1": q1, "q3": q3, "runs": len(v)}
    print(f"failed {failed} of {attempted} operations")

    if args.baseline:
        data = {}
        if os.path.exists(args.baseline):
            with open(args.baseline) as f:
                data = json.load(f)
        key = args.workload + (".trace" if args.trace else "")
        data.setdefault(args.label, {})[key] = summary
        with open(args.baseline, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
