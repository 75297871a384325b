"""Self-tests of the benchmark: its oracle, its counts and its command.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import workload

pp = workload.import_polypack()

ROOT = workload.ROOT
EXACT_COUNTS = (
    "stur.summands", "indexing.buffers_compressed", "indexing.buffers_dense",
    "counting.pieces_in", "counting.pieces_out", "polyhedra.fm_calls",
    "codegen.py_source_bytes", "codegen.c_source_bytes", "runtime.pack_points",
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["f64", "i64"])
@pytest.mark.parametrize("kernel", sorted(pp.cli.BUILTIN_KERNELS))
def test_oracle_matches_reference(kernel, dtype):
    spec, binding, shapes = workload.kernel_config(pp, kernel, None)
    rng = np.random.default_rng(11)
    dense = {t: rng.integers(-3, 4, size=math.prod(shapes[t])).astype(dtype)
             if dtype == np.int64 else rng.uniform(-1, 1, size=math.prod(shapes[t]))
             for t in shapes if t != spec.rule}
    program = pp.stur.parse_program(spec.text)
    want = pp.codegen.reference_execute(program, spec.rule, shapes, dense, binding, dtype)
    got = oracle.oracle(kernel, shapes, dense, binding)
    assert oracle.agrees(got, want, dtype)
    # a wrong output must not pass
    hit = int(np.flatnonzero(want)[0])
    bad = want.copy()
    bad[hit] += 1
    assert not oracle.agrees(got, bad, dtype)


def test_spmv_ut_stores_the_triangle():
    n = 50
    spec, binding, shapes = workload.kernel_config(pp, "SpMV_UT", n)
    program = pp.stur.parse_program(spec.text)
    plan = pp.codegen.build_plan(program, spec.rule, workload.PACKED)
    store = pp.runtime.build_store(plan, workload.make_inputs(pp, spec, shapes, 0), binding)
    result = pp.codegen.execute(plan, store, shapes, binding)
    held = {b.tensor: len(store[b.id]) for b in plan.registry.buffers if b.id in store}
    assert held == {"B": n * (n + 1) // 2, "C": n}     # B: the upper triangle
    assert workload.stored_elements(store, result) == n * (n + 1) // 2 + 2 * n
    assert sum(math.prod(s) for s in shapes.values()) == n * n + 2 * n


def _traced_sample(name, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(workload.HERE, "workload.py"),
         "--workload", name, "--seed", str(seed), "--exec-seconds", "0", "--trace"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_exact_counts_repeat(name):
    first, second = _traced_sample(name, 1), _traced_sample(name, 2)
    for s in (first, second):
        assert s["failed"] == 0
    assert (first["stored"], first["dense_elements"]) == \
        (second["stored"], second["dense_elements"])
    a, b = first["layers"]["metrics"], second["layers"]["metrics"]
    assert {k: a[k] for k in EXACT_COUNTS} == {k: b[k] for k in EXACT_COUNTS}
    assert all(a[k] > 0 for k in EXACT_COUNTS if k != "indexing.buffers_dense")


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(trace):
    spec = _spec()
    out = subprocess.run(
        spec["command"] + ["--workload", "thin-slices", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {d["name"]: d["unit"] for d in declared}


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workload.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = _spec()
    out = subprocess.run(
        spec["command"] + ["--workload", "thin-slices", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
