"""One benchmark workload, run once in this process; prints one JSON line.

``run.py`` starts this file as a fresh interpreter for every sample.  A
fresh process matters: ``polyhedra._empty_cache`` is process-global and
never cleared, so a second compile in one process runs warm, while a user
pays the cold cost on every ``polypack`` invocation.  Plans are built in
the fixed order of ``WORKLOADS`` (kernels as listed, levels as listed), so
every sample fills that cache the same way.

The benchmark drives polypack's public functions (``stur.parse_program``,
``codegen.build_plan``, ``runtime.build_store``, ``codegen.execute``,
``runtime.gather_output``) on builtin rule texts from
``cli.BUILTIN_KERNELS``, generates the inputs itself, and checks every
result against ``oracle.py``, which shares no code with the compiler.

    python3 perfbench/workload.py --workload tri-bulk --seed 1 \
        --exec-seconds 5 [--trace]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

DTYPE = np.float64
PACKED, DENSE = "input+output", "none"


@dataclass(frozen=True)
class Workload:
    kernels: tuple    # (builtin name, extent for every n_* symbol or None)
    levels: tuple     # compression levels compiled, packed and verified
    processes: int    # fresh processes per untraced run; each pays a cold set-up


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "compile-suite": Workload(
        tuple((k, None) for k in (
            "TTM_DP", "TTM_J", "TTM_UT", "THP_DP", "THP_I", "THP_J",
            "MTT_D", "MTT_JUT", "MTT_J", "SpMV_L", "SpMV_UT", "SpMV_D")),
        ("none", "input", "input+output"),
        processes=2),   # about 12 s of cold compile each
    "tri-bulk": Workload(
        (("TTM_UT", 32), ("SpMV_UT", 2000)), (DENSE, PACKED), processes=3),
    "thin-slices": Workload(
        (("TTM_DP", 80), ("TTM_J", 64), ("MTT_J", 56)), (DENSE, PACKED), processes=3),
}


def nproc():
    return len(os.sched_getaffinity(0))


def import_polypack():
    """Import polypack from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polypack", "__init__.py")):
        raise SystemExit(f"perfbench: no polypack sources under {src}")
    sys.path.insert(0, src)
    import polypack.cli
    import polypack.codegen
    import polypack.counting
    import polypack.indexing
    import polypack.polyhedra
    import polypack.runtime
    import polypack.stur
    return polypack


def kernel_config(pp, kernel, size):
    """(program text spec, binding, shapes) for a builtin at one size."""
    spec = pp.cli.BUILTIN_KERNELS[kernel]
    binding = dict(spec.defaults)
    if size is not None:
        binding.update({s: size for s in binding if s.startswith("n_")})
    shapes = {t: tuple(binding[s] for s in syms) for t, syms in spec.shapes.items()}
    return spec, binding, shapes


def make_inputs(pp, spec, shapes, seed):
    """Seeded dense inputs; only these reach the program."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for t in sorted(shapes):
        if t == spec.rule:
            continue
        data = rng.uniform(-1.0, 1.0, size=math.prod(shapes[t])).astype(DTYPE)
        inputs[t] = pp.runtime.DenseTensor(shapes[t], data)
    return inputs


# On a shared virtual machine the speed can drift by 25 % and more over
# tens of seconds, for interpreter and NumPy work alike (measured on the
# 2-vCPU KVM guest of baseline.json), so raw times of runs a minute apart
# differ by that much.  Every timed step is therefore scaled by a short
# fixed calibration run next to it: scaled = raw * REFERENCE_S /
# calibration, i.e. seconds at calibration speed REFERENCE_S (about its
# median on that guest).  The calibration touches no polypack code, so at
# a fixed machine speed a change to polypack moves scaled and raw alike.
# A calibration is the median of CALIBRATION_REPS batches of
# CALIBRATION_BATCH runs of the work (about 6 ms a batch); single 1.5 ms
# runs tracked the speed of the steps around them less closely.
CALIBRATION_BATCH = 4
REFERENCE_S = 0.0015 * CALIBRATION_BATCH
CALIBRATION_REPS = 3
CALIBRATION_AGE_S = 0.1   # recalibrate before a step when the last is older
_CAL_X = np.arange(2048, dtype=np.float64)
_CAL_I = (np.arange(2048) * 7) % 2048


def _calibration_work():
    """Fixed interpreter and NumPy work, about half of each."""
    acc, seen = Fraction(0), {}
    for i in range(600):
        acc += Fraction(i, 7)
        seen[(i, i % 5)] = acc
    x = _CAL_X
    for _ in range(60):
        x = x[_CAL_I] + 1.0
    return acc, x


class Clock:
    """Times calls as (raw seconds, scale) samples; see REFERENCE_S.

    A step is scaled by a calibration at most CALIBRATION_AGE_S old when it
    starts; a step longer than that is scaled by the mean of the
    calibrations just before and just after it, since the speed may change
    while it runs.
    """

    def __init__(self):
        self.scale = 1.0
        self.calibrated_at = -math.inf

    def calibrate(self):
        runs = []
        for _ in range(CALIBRATION_REPS):
            t = time.perf_counter()
            for _ in range(CALIBRATION_BATCH):
                _calibration_work()
            runs.append(time.perf_counter() - t)
        self.scale = REFERENCE_S / statistics.median(runs)
        self.calibrated_at = time.perf_counter()

    def timed(self, fn, *args, **kwargs):
        if time.perf_counter() - self.calibrated_at > CALIBRATION_AGE_S:
            self.calibrate()
        before = self.scale
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t
        if raw <= CALIBRATION_AGE_S:
            return out, (raw, before)
        self.calibrate()
        return out, (raw, (before + self.scale) / 2)


class Case:
    """One (kernel, level) operation: compile, pack, execute, gather, verify.

    The first exception marks the operation failed; it is counted, the
    workload goes on, and the operation's timings are dropped.
    """

    def __init__(self, kernel, level, spec, binding, shapes, clock):
        self.kernel, self.level = kernel, level
        self.spec, self.binding, self.shapes = spec, binding, shapes
        self.clock = clock
        self.plan = self.store = None
        self.error = None
        self.compile = None  # Clock samples: (raw seconds, scale)
        self.pack = []       # build_store samples
        self.execute = {}    # workers -> execute samples
        self.gather = []     # gather_output samples (workers=1 results)
        self.results = {}    # workers -> latest ExecResult

    @property
    def ok(self):
        return self.error is None

    def attempt(self, what, fn, *args, **kwargs):
        """(result, Clock sample) of fn, or None after recording the failure."""
        if not self.ok:
            return None
        try:
            return self.clock.timed(fn, *args, **kwargs)
        except Exception:
            self.error = f"{self.kernel} {self.level}: {what} raised"
            print(f"perfbench: {self.error}\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None


def run_workload(pp, name, seed, exec_seconds, tracer=None):
    w = WORKLOADS[name]
    cg, rt = pp.codegen, pp.runtime
    workers2 = 2 if nproc() >= 2 else None

    def tag(label):
        if tracer is not None:
            tracer.tag = label

    # -- set-up: parse, compile (cold, fixed order), inputs, pack ---------
    tag("setup")
    cache_before = len(pp.polyhedra._empty_cache)
    clock = Clock()
    setup = []           # Clock samples of every set-up step
    configs = [(kernel, *kernel_config(pp, kernel, size)) for kernel, size in w.kernels]
    cases, inputs = [], {}
    for kernel, spec, binding, shapes in configs:
        program, t = clock.timed(pp.stur.parse_program, spec.text)
        setup.append(t)
        for level in w.levels:
            c = Case(kernel, level, spec, binding, shapes, clock)
            got = c.attempt("build_plan", cg.build_plan, program, spec.rule, level)
            if got:
                c.plan, c.compile = got
                setup.append(c.compile)
            cases.append(c)
    for ki, (kernel, spec, _, shapes) in enumerate(configs):
        inputs[kernel], t = clock.timed(make_inputs, pp, spec, shapes, seed * 1000 + ki)
        setup.append(t)

    def pack(c):
        got = c.attempt("build_store", rt.build_store, c.plan, inputs[c.kernel],
                        c.binding)
        if got:
            c.store = got[0]
            c.pack.append(got[1])
        return got

    for c in cases:
        got = pack(c)
        if got:
            setup.append(got[1])
    setup_counts = None
    if tracer is not None:
        setup_counts = dict(tracer.counters)
        setup_counts["polyhedra.empty_cache_growth"] = \
            len(pp.polyhedra._empty_cache) - cache_before

    # -- timed execution, interleaved so every config sees the same machine
    def execute(c, workers):
        got = c.attempt(f"execute(workers={workers})", cg.execute, c.plan, c.store,
                        c.shapes, c.binding, workers=workers, dtype=DTYPE)
        if got:
            c.results[workers] = got[0]
        return got

    def worker_counts(c):
        return [1, workers2] if workers2 and c.level == PACKED else [1]

    tag("warmup")
    for c in cases:
        for workers in worker_counts(c):
            execute(c, workers)

    by_key = {(c.kernel, c.level): c for c in cases}
    kernels = [k for k, _ in w.kernels]
    timed_cfgs = [(PACKED, 1), (DENSE, 1)] + ([(PACKED, workers2)] if workers2 else [])
    deadline = time.perf_counter() + exec_seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        for kernel in kernels:
            for level, workers in timed_cfgs:
                c = by_key[(kernel, level)]
                tag(f"{kernel}.{level}.w{workers}")
                got = execute(c, workers)
                if got:
                    c.execute.setdefault(workers, []).append(got[1])
            c = by_key[(kernel, PACKED)]
            tag(f"{kernel}.gather")
            got = c.ok and c.attempt("gather_output", rt.gather_output, c.plan,
                                     c.results[1], c.shapes[c.spec.rule], c.binding)
            if got:
                c.gather.append(got[1])
            tag(f"{kernel}.pack")
            for level in w.levels:
                pack(by_key[(kernel, level)])

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- verification against the independent oracle ----------------------
    tag("verify")
    for c in cases:
        if not c.ok:
            continue
        want = oracle.oracle(c.kernel, c.shapes,
                             {t: x.data for t, x in inputs[c.kernel].items()},
                             c.binding)
        for workers in worker_counts(c):
            got = c.attempt("gather_output", rt.gather_output, c.plan,
                            c.results[workers], c.shapes[c.spec.rule], c.binding)
            if got and not oracle.agrees(got[0].data, want, DTYPE):
                c.error = f"{c.kernel} {c.level} workers={workers}: oracle disagrees"
                print(f"perfbench: {c.error}", file=sys.stderr)

    packed = [c for c in cases if c.level == PACKED and c.ok]
    timed_kernels = [k for k in kernels
                     if by_key[(k, PACKED)].ok and by_key[(k, DENSE)].ok]

    def times(value):
        """Every timing of the run, each Clock sample mapped by ``value``."""
        def each(samples):
            return [value(t) for t in samples]
        return {
            "setup_s": sum(each(setup)),
            "compile_s": sum(each(c.compile for c in cases if c.ok)),
            "pack": {f"{c.kernel}.{c.level}": each(c.pack) for c in cases if c.ok},
            "packed": {k: each(by_key[(k, PACKED)].execute[1]) for k in timed_kernels},
            "dense": {k: each(by_key[(k, DENSE)].execute[1]) for k in timed_kernels},
            "par2": {k: each(by_key[(k, PACKED)].execute[workers2])
                     for k in timed_kernels} if workers2 else {},
            "gather": {k: each(by_key[(k, PACKED)].gather) for k in timed_kernels},
        }

    out = {
        "workload": name,
        "seed": seed,
        "machine": machine(),
        "scaled": times(lambda t: t[0] * t[1]),
        "raw": times(lambda t: t[0]),
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "stored": sum(stored_elements(c.store, c.results[1]) for c in packed),
        "dense_elements": sum(math.prod(s) for c in packed for s in c.shapes.values()),
        "attempted": len(cases),
        "failed": sum(not c.ok for c in cases),
        "par2_skipped": None if workers2 else f"nproc={nproc()} < 2",
    }
    if tracer is not None:
        out["layers"] = layer_metrics(pp, tracer, setup_counts, cases, kernels)
    return out


def machine():
    return {"nproc": nproc(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def stored_elements(store, result):
    """Elements actually held: every input array built plus every output."""
    n = sum(len(a) for a in store.values())
    if result.dense is not None:
        n += len(result.dense)
    return n + sum(len(a) for a in result.compressed.values())


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def install_tracer(pp):
    import tracing
    tr = tracing.Tracer()
    c = tr.counters

    def bump(key, n=1):
        c[key] += n

    tr.install(pp.stur, "parse_program", "stur.parse")
    tr.install(pp.stur, "build_compressed_summands", "stur.summands",
               lambda t, a, r: bump("stur.summands", len(r)))
    tr.install(pp.polyhedra, "fm_eliminate", "polyhedra.fm")
    tr.install(pp.polyhedra, "image", "polyhedra.image")
    tr.install(pp.polyhedra, "is_empty", "polyhedra.is_empty")
    tr.install(pp.counting, "count_points", "counting.count_points")

    def fused(t, args, result):
        bump("counting.pieces_in", len(args[0].pieces))
        bump("counting.pieces_out", len(result.pieces))
    tr.install(pp.counting, "fuse_piecewise", "counting.fuse", fused)

    def registry(t, args, result):
        for b in result.buffers:
            bump(f"indexing.buffers_{b.layout}")
    tr.install(pp.indexing, "build_registry", "indexing.build_registry", registry)
    tr.install(pp.indexing, "symbolic_indexing", "indexing.symbolic_indexing")
    tr.install(pp.indexing, "hoist_schedule", "indexing.hoist")
    tr.install(pp.codegen, "build_plan", "codegen.build_plan",
               lambda t, a, r: bump("codegen.py_source_bytes",
                                    sum(len(sp.source) for sp in r.summands)))
    tr.install(pp.codegen, "build_loop_nest", "codegen.loop_nest")
    tr.install(pp.codegen, "emit_c", "codegen.emit_c",
               lambda t, a, r: bump("codegen.c_source_bytes", len(r)))
    tr.install(pp.codegen, "execute", "codegen.execute")
    tr.install(pp.runtime, "build_store", "runtime.build_store")

    def packed(t, args, buf):
        bump("runtime.pack_calls")
        bump("runtime.pack_points", buf.length)
        bump("runtime.pack_bytes", buf.data.nbytes)
    tr.install(pp.runtime, "pack", "runtime.pack", packed)

    def chunk(t, pts):
        if t.current() == "runtime.pack":
            bump("runtime.chunks")
            bump("runtime.chunk_points", len(pts))
    tr.install_generator(pp.runtime, "iter_point_chunks", chunk)
    tr.install(pp.runtime, "unpack", "runtime.unpack")
    tr.install(pp.runtime, "gather_output", "runtime.gather_output")
    return tr


def _median_sum(tr, span, tags):
    parts = [tr.durations(span, tag) for tag in tags]
    return sum(statistics.median(p) for p in parts if p)


def layer_metrics(pp, tr, setup_counts, cases, kernels):
    """Per-layer numbers of one traced run.

    Counts cover the set-up pass (parse, compile, first pack) and one
    ``emit_c`` per plan, so they do not depend on how many timed rounds fit
    in the run.
    """
    tr.tag = "emit_c"
    for c in cases:
        if c.ok:
            pp.codegen.emit_c(c.plan)
    n = setup_counts
    is_empty_calls = len(tr.durations("polyhedra.is_empty", "setup"))
    cache_growth = n.get("polyhedra.empty_cache_growth", 0)
    fm = tr.durations("polyhedra.fm", "setup")
    setup_pack = tr.durations("runtime.pack", "setup")
    packed_tags = [f"{k}.{PACKED}.w1" for k in kernels]
    exec_packed = _median_sum(tr, "codegen.execute", packed_tags)
    exec_par2 = _median_sum(tr, "codegen.execute", [f"{k}.{PACKED}.w2" for k in kernels])
    points = sum(oracle.iteration_points(c.kernel, c.shapes, c.binding)
                 for c in cases if c.level == PACKED and c.ok)
    moved = sum(stored_elements(c.store, c.results[1]) * np.dtype(DTYPE).itemsize
                for c in cases if c.level == PACKED and c.ok)
    gathers = {k: len(tr.durations("runtime.gather_output", f"{k}.gather"))
               for k in kernels}
    unpack = sum(sum(tr.durations("runtime.unpack", f"{k}.gather")) / gathers[k]
                 for k in kernels if gathers[k])
    m = {
        "stur.parse_s": tr.total("stur.parse"),
        "stur.summands_s": tr.total("stur.summands"),
        "stur.summands": n.get("stur.summands", 0),
        "polyhedra.fm_calls": len(fm),
        "polyhedra.fm_s": sum(fm),
        "polyhedra.image_s": sum(tr.durations("polyhedra.image", "setup")),
        "polyhedra.is_empty_calls": is_empty_calls,
        "polyhedra.empty_cache_hit_ratio":
            (is_empty_calls - cache_growth) / is_empty_calls if is_empty_calls else 0.0,
        "polyhedra.empty_cache_entries": len(pp.polyhedra._empty_cache),
        "counting.count_points_calls": len(tr.durations("counting.count_points")),
        "counting.count_points_s": tr.total("counting.count_points"),
        "counting.fuse_s": tr.total("counting.fuse"),
        "counting.pieces_in": n.get("counting.pieces_in", 0),
        "counting.pieces_out": n.get("counting.pieces_out", 0),
        "indexing.registry_builds": len(tr.durations("indexing.build_registry")),
        "indexing.build_registry_s": tr.self_total("indexing.build_registry"),
        "indexing.symbolic_indexing_s": tr.total("indexing.symbolic_indexing"),
        "indexing.hoist_s": tr.total("indexing.hoist"),
        "indexing.buffers_compressed": n.get("indexing.buffers_compressed", 0),
        "indexing.buffers_dense": n.get("indexing.buffers_dense", 0),
        "codegen.build_plan_self_s": tr.self_total("codegen.build_plan"),
        "codegen.loop_nest_s": sum(tr.durations("codegen.loop_nest", "setup")),
        "codegen.py_source_bytes": n.get("codegen.py_source_bytes", 0),
        "codegen.emit_c_s": tr.total("codegen.emit_c"),
        "codegen.c_source_bytes": tr.counters.get("codegen.c_source_bytes", 0),
        "codegen.exec_packed_s": exec_packed,
        "codegen.exec_dense_s": _median_sum(
            tr, "codegen.execute", [f"{k}.{DENSE}.w1" for k in kernels]),
        "codegen.points": points,
        "codegen.points_per_s": points / exec_packed if exec_packed else 0.0,
        "codegen.bytes_moved_computed": moved,
        "codegen.fork_speedup": exec_packed / exec_par2 if exec_par2 else 0.0,
        "runtime.pack_calls": n.get("runtime.pack_calls", 0),
        "runtime.pack_points": n.get("runtime.pack_points", 0),
        "runtime.pack_bytes": n.get("runtime.pack_bytes", 0),
        "runtime.pack_points_per_s":
            n.get("runtime.pack_points", 0) / sum(setup_pack) if setup_pack else 0.0,
        "runtime.chunks": n.get("runtime.chunks", 0),
        "runtime.points_per_chunk":
            n.get("runtime.chunk_points", 0) / n["runtime.chunks"]
            if n.get("runtime.chunks") else 0.0,
        "runtime.unpack_s": unpack,
    }
    rows = {}
    for c in cases:
        for workers in (1, 2):
            d = tr.durations("codegen.execute", f"{c.kernel}.{c.level}.w{workers}")
            if d:
                suffix = "" if workers == 1 else ".w2"
                rows[f"codegen.exec_s.{c.kernel}.{c.level}{suffix}"] = statistics.median(d)
    return {"metrics": m, "exec_rows": rows}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--exec-seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    pp = import_polypack()
    tracer = install_tracer(pp) if args.trace else None
    out = run_workload(pp, args.workload, args.seed, args.exec_seconds, tracer)
    if tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
