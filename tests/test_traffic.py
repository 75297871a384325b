"""The benchmark never enters the NumPy walk.

With gcc on PATH every call that perfbench times runs on the emitted C, so
the walk (`codegen._expand` and what drives it) is only the fallback where
C cannot run and the oracle the C is checked against.  This pins that
premise: each workload of `perfbench/workload.py`, run once in this process
with a short execution phase, calls `codegen._run` and none of the walk's
functions, also at floor 0, where its `workers=2` calls split on C.  The workload script is only imported here.
"""

import importlib
import os
import shutil
import sys
from pathlib import Path

import pytest

import polypack
# the workload reads these as attributes of the package
from polypack import cli, codegen, counting, indexing, polyhedra, runtime, stur  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

WALK = ("_expand", "dim_ranges", "_leaf_blocks")


@pytest.fixture(scope="module")
def workload():
    if shutil.which("gcc") is None or not hasattr(os, "sched_getaffinity"):
        pytest.skip("the benchmark runs on C, which needs gcc and os.sched_getaffinity")
    sys.path.insert(0, str(PERFBENCH))   # the script imports its oracle by name
    try:
        yield importlib.import_module("workload")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["compile-suite", "tri-bulk", "thin-slices"])
def test_benchmark_never_walks(workload, name, monkeypatch):
    calls = dict.fromkeys(WALK + ("_run",), 0)

    def counted(fn_name):
        real = getattr(codegen, fn_name)

        def count(*args, **kwargs):
            calls[fn_name] += 1
            return real(*args, **kwargs)
        return count
    for fn_name in calls:
        monkeypatch.setattr(codegen, fn_name, counted(fn_name))
    out = workload.run_workload(polypack, name, 1, 0.01)
    assert out["failed"] == 0
    assert calls["_run"] >= 1
    assert {f: calls[f] for f in WALK} == dict.fromkeys(WALK, 0)


@pytest.mark.parametrize("name", ["compile-suite", "tri-bulk", "thin-slices"])
def test_split_calls_never_walk(workload, name, monkeypatch):
    # at floor 0 on two CPUs the workload's workers=2 calls split on C, and
    # cutting a summand's shares walks none of its points or rows
    real, splits = codegen._shares, []

    def recorded(*args):
        shares = real(*args)
        splits.append(len(shares) > 1)
        return shares
    monkeypatch.setattr(codegen, "_shares", recorded)
    monkeypatch.setattr(codegen, "THREAD_POINTS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    test_benchmark_never_walks(workload, name, monkeypatch)
    assert any(splits)
