"""Command-line front end: compile, inspect, run, and benchmark kernels.

Builtin kernels are STUR text fed through the same pipeline as user
programs; nothing here bypasses the compiler.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from .codegen import (
    JAM, CodegenError, IndexingFault, build_loop_nest, build_plan, dim_ranges,
    emit_c_files, execute, jam_level, reference_execute,
)
from .counting import CountingError, DomainError
from .polyhedra import PolyhedronError, iteration_space
from .runtime import (
    _frac, build_store, footprint_report, gather_output, random_tensor,
)
from .stur import SturError, build_compressed_summands, parse_program

FLOAT_TOL = 1e-12


@dataclass(frozen=True)
class Kernel:
    name: str
    text: str
    rule: str
    shapes: dict      # tensor -> tuple of symbol names
    defaults: dict    # symbol -> int


_TTM = "A(i, j, k) := B(i, j, l) * C(k, l)\n"
_THP = "A(i, j, k) := B(i, j, k) * C(i, j, k)\n"
_MTT = "A(i, j) := B(i, k, l) * C(k, j) * D(l, j)\n"
_SPMV = "A(i) := B(i, j) * C(j)\n"
_TTM_C = "C_U(k, l) := (0 <= k < n_k) * (0 <= l < n_l)\n"

_TTM_SHAPES = {"A": ("n_i", "n_j", "n_k"), "B": ("n_i", "n_j", "n_l"),
               "C": ("n_k", "n_l")}
_THP_SHAPES = {"A": ("n_i", "n_j", "n_k"), "B": ("n_i", "n_j", "n_k"),
               "C": ("n_i", "n_j", "n_k")}
_MTT_SHAPES = {"A": ("n_i", "n_j"), "B": ("n_i", "n_k", "n_l"),
               "C": ("n_k", "n_j"), "D": ("n_l", "n_j")}
_SPMV_SHAPES = {"A": ("n_i",), "B": ("n_i", "n_j"), "C": ("n_j",)}

_TTM_DEF = {"n_i": 8, "n_j": 8, "n_k": 8, "n_l": 8}
_THP_DEF = {"n_i": 8, "n_j": 8, "n_k": 8}
_MTT_DEF = {"n_i": 8, "n_j": 8, "n_k": 8, "n_l": 8}
_SPMV_DEF = {"n_i": 8, "n_j": 8}

BUILTIN_KERNELS = {k.name: k for k in [
    Kernel("TTM_DP",
           _TTM + "B_U(i, j, l) := (0 <= i < n_i) * (i = j) * (0 <= l < n_l)\n"
           + _TTM_C, "A", _TTM_SHAPES, _TTM_DEF),
    Kernel("TTM_J",
           _TTM + "B_U(i, j, l) := (0 <= i < n_i) * (j = J) * (0 <= l < n_l)\n"
           + _TTM_C, "A", _TTM_SHAPES, {**_TTM_DEF, "J": 2}),
    Kernel("TTM_UT",
           _TTM + "B_U(i, j, l) := (0 <= i < n_i) * (i <= j < n_j) * (0 <= l < n_l)\n"
           + _TTM_C, "A", _TTM_SHAPES, _TTM_DEF),
    Kernel("THP_DP",
           _THP + "B_U(i, j, k) := (0 <= i < n_i) * (i = j) * (0 <= k < n_k)\n",
           "A", _THP_SHAPES, _THP_DEF),
    Kernel("THP_I",
           _THP + "B_U(i, j, k) := (i = I) * (0 <= j < n_j) * (0 <= k < n_k)\n",
           "A", _THP_SHAPES, {**_THP_DEF, "I": 2}),
    Kernel("THP_J",
           _THP + "B_U(i, j, k) := (0 <= i < n_i) * (j = J) * (0 <= k < n_k)\n",
           "A", _THP_SHAPES, {**_THP_DEF, "J": 2}),
    Kernel("MTT_D",
           _MTT + "B_U(i, k, l) := (i = k) * (k = l) * (0 <= i < n_i)\n"
                  "D_U(l, j) := (0 <= l < n_l) * (l = j)\n",
           "A", _MTT_SHAPES, _MTT_DEF),
    Kernel("MTT_JUT",
           _MTT + "B_U(i, k, l) := (0 <= i < k) * (0 <= k < n_k) * (0 <= l < n_l)\n"
                  "D_U(l, j) := (0 <= l < n_l) * (j = J)\n",
           "A", _MTT_SHAPES, {**_MTT_DEF, "J": 2}),
    Kernel("MTT_J",
           _MTT + "B_U(i, k, l) := (0 <= i < n_i) * (0 <= k < n_k) * (0 <= l < n_l)\n"
                  "D_U(l, j) := (0 <= l < n_l) * (j = J)\n",
           "A", _MTT_SHAPES, {**_MTT_DEF, "J": 2}),
    Kernel("SpMV_L",
           _SPMV + "B_U(i, j) := (i = 0) * (0 <= j < n_j) + (1 <= i < n_i) * (j = i - 1)\n",
           "A", _SPMV_SHAPES, _SPMV_DEF),
    Kernel("SpMV_UT",
           _SPMV + "B_U(i, j) := (0 <= i < n_i) * (i <= j < n_j)\n",
           "A", _SPMV_SHAPES, _SPMV_DEF),
    Kernel("SpMV_D",
           _SPMV + "B_U(i, j) := (0 <= i < n_i) * (i = j)\n",
           "A", _SPMV_SHAPES, _SPMV_DEF),
]}

_DTYPES = {"f64": np.float64, "i64": np.int64}


def derive_shapes(program, rule, binding):
    """Tight dense extents from the accessed regions at one binding.

    File-loaded programs carry no shape declarations, so the dense side is
    sized to the bounding box of everything the rule touches: one past the
    most value of each access's iterators on its summand's loop nest, walked
    once by rows where its innermost level has no guards (`dim_ranges`).
    """
    extents = {}
    for s in build_compressed_summands(program, rule):
        nest = build_loop_nest(iteration_space(s))
        missing = [p for p in nest.params if p not in binding]
        if missing:
            raise CodegenError(f"bindings missing parameters {missing}")
        ranges = dim_ranges(nest, binding)
        for acc in (s.output, *s.inputs):
            ext = extents.setdefault(acc.tensor, [0] * len(acc.index_names))
            for a, name in enumerate(acc.index_names):
                if name not in ranges:
                    continue
                least, most = ranges[name]
                if least < 0:
                    raise CodegenError(
                        f"{acc.tensor} is accessed at negative positions; "
                        "cannot derive a dense shape")
                ext[a] = max(ext[a], most + 1)
    return {t: tuple(e) for t, e in extents.items()}


@dataclass
class Resolved:
    name: str
    program: object
    rule: str
    binding: dict
    shapes: dict      # tensor -> tuple of ints; None for compile
    inputs: tuple     # input tensor names, sorted


def _resolve(args, kernel_name=None, with_shapes=True):
    binds = dict(args.bind or [])
    if args.stur:
        with open(args.stur) as f:
            program = parse_program(f.read())
        if not program.rules:
            raise SturError(f"{args.stur}: no rules defined")
        rule = program.rules[0].name
        binding = binds
        shapes = derive_shapes(program, rule, binding) if with_shapes else None
        name = os.path.basename(args.stur)
    else:
        name = kernel_name or (args.kernel[-1] if args.kernel else None)
        if name is None:
            raise SturError("pick a builtin with --kernel or a file with --stur")
        k = BUILTIN_KERNELS[name]
        program = parse_program(k.text)
        rule = k.rule
        binding = dict(k.defaults)
        binding.update(binds)
        shapes = {t: tuple(int(binding[s]) for s in syms)
                  for t, syms in k.shapes.items()} if with_shapes else None
    inputs = tuple(sorted({a.tensor for s in program.rule(rule).summands
                           for a in s.inputs}))
    return Resolved(name, program, rule, binding, shapes, inputs)


def _make_inputs(cfg, seed, dtype):
    return {t: random_tensor(cfg.shapes[t], seed + k, dtype)
            for k, t in enumerate(cfg.inputs)}


def _maxrel(got, ref):
    diff = np.abs(np.asarray(got, dtype=np.float64)
                  - np.asarray(ref, dtype=np.float64))
    scale = max(float(np.max(np.abs(ref))) if len(ref) else 0.0, 1e-30)
    return float(diff.max()) / scale if len(diff) else 0.0


def _verify(got, ref, dtype):
    rel = _maxrel(got, ref)
    if np.issubdtype(np.dtype(dtype), np.integer):
        ok = np.array_equal(np.asarray(got), np.asarray(ref))
    else:
        ok = rel <= FLOAT_TOL
    return ok, rel


def _corrupt_store(store):
    # negative control: damage packed values, which must surface as FAIL.
    # Out of place: a buffer that is its tensor (`runtime.aliases`) is the
    # caller's input array, which the reference reads too, so damage done
    # in place would reach both sides and verify
    for key in sorted(k for k in store if isinstance(k, int)):
        if len(store[key]):
            store[key] = store[key] + 1
            return
    raise CodegenError("--corrupt-index needs a non-empty compressed input "
                       "(compression level keeps inputs dense)")


def _refuse_redundancy_maps(cfg):
    # gather_output does not expand redundancy maps, so the packed result
    # would miss every position a map sends to a stored one
    if cfg.program.redundancy_maps:
        names = ", ".join(f"{t}_R" for t in sorted(cfg.program.redundancy_maps))
        raise CodegenError(f"redundancy maps ({names}) are not supported by run or bench")


def cmd_compile(args):
    cfg = _resolve(args, with_shapes=False)   # compile prints symbolic output only
    plan = build_plan(cfg.program, cfg.rule, args.compression[-1])
    print(f"rule {cfg.rule}  compression={plan.compression}")
    print(plan.registry.dump())
    shown = [(f"summand {si}:", sp) for si, sp in enumerate(plan.summands)]
    shown += [(f"gather buffer {bid}:", g) for bid, g in plan.gathers.items()]
    shown += [(f"pack buffer {bid}:", p) for bid, p in plan.packs.items()]
    for header, sp in shown:
        tag = " (parallel outer loop)" if sp.parallelizable else ""
        if sp.program and sp.program.run is not None:
            tag += f" ({sp.program.levels[-1].var} walked as runs)"
        if (jammed := jam_level(sp.program, sp.into)) is not None:
            tag += f" ({jammed.var} jammed by {JAM})"
        print(header + tag)
        for line in sp.source.splitlines():
            print(f"  {line}")
    if args.emit_c:
        os.makedirs(args.emit_c, exist_ok=True)
        for fname, text in emit_c_files(plan):
            path = os.path.join(args.emit_c, fname)
            with open(path, "w") as f:
                f.write(text)
            print(f"wrote {path}")
    return 0


def _run_verified(cfg, compression, args, timed=0, corrupt=False):
    """One kernel end to end: build its plan, pack random inputs (damaged
    when `corrupt`), execute once and then `timed` more times, gather, and
    verify against the dense reference.  Returns (plan, the last result,
    the timed calls' ns, ok, maxrel)."""
    _refuse_redundancy_maps(cfg)
    dtype = _DTYPES[args.dtype]
    plan = build_plan(cfg.program, cfg.rule, compression)
    tensors = _make_inputs(cfg, args.seed, dtype)
    store = build_store(plan, tensors, cfg.binding, backend=args.backend)
    if corrupt:
        _corrupt_store(store)
    times = []
    # the first call is untimed: the first call of a plan on C may build its library
    for _ in range(1 + timed):
        t0 = time.perf_counter_ns()
        result = execute(plan, store, cfg.shapes, cfg.binding,
                         workers=args.workers, dtype=dtype, backend=args.backend)
        times.append(time.perf_counter_ns() - t0)
    out = gather_output(plan, result, cfg.shapes[cfg.rule], cfg.binding)
    ref = reference_execute(cfg.program, cfg.rule, cfg.shapes,
                            {t: tensors[t].data for t in cfg.inputs},
                            cfg.binding, dtype)
    ok, rel = _verify(out.data, ref, dtype)
    return plan, result, times[1:], ok, rel


def cmd_run(args):
    *_, ok, rel = _run_verified(_resolve(args), args.compression[-1], args,
                                corrupt=args.corrupt_index)
    print(f"VERIFY: {'PASS' if ok else 'FAIL'} maxrel={rel:.3e}")
    return 0 if ok else 1


def _bench_one(cfg, compression, args):
    plan, result, times, ok, _ = _run_verified(cfg, compression, args, timed=3)
    report = footprint_report(plan.registry, cfg.binding, cfg.shapes, cfg.rule)
    return {
        "kernel": cfg.name,
        "binding": ";".join(f"{k}={v}" for k, v in sorted(cfg.binding.items())),
        "compression": compression,
        "backend": "+".join(sorted(result.backends)) or "none",
        "workers": args.workers,
        "runtime_ns": int(statistics.median(times)),
        "elements_dense": report.dense_total(),
        "elements_compressed": report.stored_total(compression),
        "rate": _frac(report.rate(compression)),
        "verify": "PASS" if ok else "FAIL",
    }


CSV_COLUMNS = ["kernel", "binding", "compression", "backend", "workers", "runtime_ns",
               "elements_dense", "elements_compressed", "rate", "verify"]


def cmd_bench(args):
    names = args.kernel if (args.kernel and not args.stur) else [None]
    rows = []
    for name in names:
        cfg = _resolve(args, kernel_name=name)
        for compression in args.compression:
            row = _bench_one(cfg, compression, args)
            rows.append(row)
            if row["verify"] != "PASS":
                # timings of a wrong kernel mean nothing
                print(f"error: verification failed for {row['kernel']} "
                      f"at {row['compression']}", file=sys.stderr)
                return 1
    sink = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        w = csv.DictWriter(sink, fieldnames=CSV_COLUMNS)
        w.writeheader()
        w.writerows(rows)
    finally:
        if args.csv:
            sink.close()
    return 0


def _bind_pair(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected NAME=INT, got {text!r}")
    name, _, val = text.partition("=")
    try:
        return name.strip(), int(val)
    except ValueError:
        raise argparse.ArgumentTypeError(f"binding {name!r} needs an integer")


def _workers(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 worker, got {n}")
    return n


def _parser():
    p = argparse.ArgumentParser(
        prog="polypack",
        description="compile structured tensor rules to compressed-layout "
                    "kernels, run them, and report storage footprints")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kernel", action="append",
                        choices=sorted(BUILTIN_KERNELS),
                        help="builtin kernel name (repeatable for bench)")
    common.add_argument("--stur", help="STUR program file (first rule is run)")
    common.add_argument("--bind", action="append", type=_bind_pair,
                        metavar="NAME=INT", help="symbol binding (repeatable)")
    common.add_argument("--dtype", choices=sorted(_DTYPES), default="f64")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=_workers, default=1,
                        help="threads for a large enough run (at most the usable CPUs)")
    common.add_argument("--compression", action="append",
                        choices=["none", "input", "input+output"],
                        help="layout level (repeatable for bench)")

    pc = sub.add_parser("compile", parents=[common],
                        help="print buffers, polynomials, and each summand's, "
                             "gather's and pack's C")
    pc.add_argument("--emit-c", metavar="DIR",
                    help="write one C file per summand, per gather and per pack into DIR")
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", choices=["c", "numpy"],
                         help="run every pack, summand and gather as compiled C (needs gcc), or "
                              "all on NumPy (default: C where gcc is on PATH and a library "
                              "builds, else NumPy)")
    pr = sub.add_parser("run", parents=[common, backend],
                        help="execute and verify against the dense reference")
    pr.add_argument("--corrupt-index", action="store_true",
                    help=argparse.SUPPRESS)
    pb = sub.add_parser("bench", parents=[common, backend],
                        help="median-of-3 timings and footprint CSV")
    pb.add_argument("--csv", metavar="FILE", help="write CSV here, not stdout")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    if not args.compression:
        args.compression = ["input+output"]
    handlers = {"compile": cmd_compile, "run": cmd_run, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except (SturError, CountingError, DomainError, PolyhedronError,
            CodegenError, IndexingFault, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
