"""Acceptance gate: one test per shipped criterion, with stated budgets.

Criteria 3+4 share one sweep (and one 60 s budget); criteria 5+8 share the
end-to-end run (120 s).  Criterion 7 is soft: measured, reported, warned on
miss, never failed, because the reference machine is not guaranteed here.
"""

import itertools
import os
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polypack.cli import BUILTIN_KERNELS
from polypack import codegen, native
from polypack.codegen import build_plan, execute, reference_execute
from polypack.counting import (
    QuasiPolynomial, count_points, fuse_piecewise, pqp_add,
)
from polypack.indexing import build_registry, symbolic_indexing
from polypack.polyhedra import (
    AccessMap, AffineExpr, Polyhedron, enumerate_points, ge, image,
    iteration_space, poly_values, preceding_slices,
)
from polypack.runtime import build_store, footprint_report, gather_output, random_tensor
from polypack.stur import build_compressed_summands, parse_program

from helpers import SUBTRI

HALF = Fraction(1, 2)


def v(name):
    return AffineExpr.var(name)


def k(c):
    return AffineExpr.constant(c)


def q(name):
    return QuasiPolynomial.var(name)


def _pass(n, detail, t0, budget=None):
    dt = time.monotonic() - t0
    line = f"CRITERION {n}: PASS ({dt:.2f}s"
    if budget is not None:
        line += f" < {budget:g}s"
        assert dt < budget, f"criterion {n}: {dt:.2f}s over the {budget}s budget"
    print(line + f") - {detail}")


UHC = """
A(i, j, k) := B(i, j, l) * C(k, l) * (0 <= i < M) * (0 <= k < P)
B_U(i, j, l) := (0 <= l) * (Q > l) * (i <= j) * (N > j) * (0 <= i)
"""

STRIDED = ("A(i) := B(i, j) * C(j)\n"
           "B_U(i, j) := (0 <= i < {n}) * (0 <= j < {n}) * ((j - i) % {n} = {s})\n")

# sizes <= 32, deliberately unequal so axes cannot be confused
RUN_BINDING = {"n_i": 9, "n_j": 12, "n_k": 7, "n_l": 5, "I": 2, "J": 3}


def _binding_for(kernel):
    syms = set(kernel.defaults)
    return {s: RUN_BINDING[s] for s in syms}


def _shapes_for(kernel, binding):
    return {t: tuple(binding[s] for s in syms)
            for t, syms in kernel.shapes.items()}


@pytest.fixture(scope="module")
def built():
    """input+output plans for the 12 builtins, compiled once."""
    t0 = time.monotonic()
    plans = {}
    for name, kern in BUILTIN_KERNELS.items():
        plans[name] = build_plan(parse_program(kern.text), kern.rule,
                                 compression="input+output")
    return {"plans": plans, "elapsed": time.monotonic() - t0}


def test_criterion_1_indexing_polynomial():
    # cross-check outside the budget: the builtin spelling carries the same
    # polynomial under renamed sizes
    i, j, l = q("i"), q("j"), q("l")
    plan = build_plan(parse_program(BUILTIN_KERNELS["TTM_UT"].text), "A")
    b = [bb for bb in plan.registry.buffers if bb.tensor == "B"][0]
    nj, nl = q("n_j"), q("n_l")
    renamed = (nj - HALF) * nl * i - HALF * nl * i.power(2) + nl * j + l
    assert b.index.rank.single_polynomial() == renamed

    t0 = time.monotonic()
    s = build_compressed_summands(parse_program(UHC), "A")[0]
    space = iteration_space(s)
    acc = [a for a in s.inputs if a.tensor == "B"][0]
    ix = symbolic_indexing(
        image(space, AccessMap.from_indices(space.dims, acc.index_names)), "B")
    poly = ix.rank.single_polynomial()
    assert poly is not None, "rank fused to more than one piece"
    n, qq = q("N"), q("Q")
    expected = (n - HALF) * qq * i - HALF * qq * i.power(2) + qq * j + l
    assert poly == expected
    _pass(1, "rank(B) = (-1/2 + N)*Q*i - 1/2*Q*i^2 + Q*j + l, single piece",
          t0, budget=1.0)


def test_criterion_2_piecewise_fusion():
    t0 = time.monotonic()
    tri = Polyhedron.build(
        ("i", "j"), ("n",),
        [ge(v("j")), ge(v("i") - v("j")), ge(v("n") - v("i") - k(1))])
    total = None
    for s in preceding_slices(tri):
        c = count_points(s, context=tri)
        total = c if total is None else pqp_add(total, c)
    interior = HALF * q("i") + HALF * q("i").power(2) + q("j")
    edge = HALF * q("i") + HALF * q("i").power(2)
    assert len(total.pieces) == 2
    polys = [p for _, p in total.pieces]
    assert interior in polys and edge in polys
    fused = fuse_piecewise(total)
    assert len(fused.pieces) == 1
    assert fused.pieces[0][1] == interior
    _pass(2, "two boundary pieces fuse to P = 1/2*i + 1/2*i^2 + j",
          t0, budget=1.0)


def _sweep_buffer(ix, results):
    params = ix.accessed.params
    for combo in itertools.product(range(1, 9), repeat=len(params)):
        binding = dict(zip(params, combo))
        pts = enumerate_points(ix.accessed, binding)
        size = int(ix.size.evaluate(binding))
        results["counts"] += 1
        if size != len(pts):
            results["count_failures"].append((ix.tensor, binding, size, len(pts)))
        if len(pts):
            ranks = ix.rank.evaluate_many(pts, binding).tolist()
        else:
            ranks = []
        results["bijections"] += 1
        if ranks != list(range(size)):
            results["bijection_failures"].append((ix.tensor, binding))


@pytest.fixture(scope="module")
def sweep(built):
    t0 = time.monotonic()
    results = {"counts": 0, "bijections": 0,
               "count_failures": [], "bijection_failures": [], "kernels": 0}
    for name, plan in built["plans"].items():
        results["kernels"] += 1
        for b in plan.registry.buffers:
            if b.layout == "compressed":
                _sweep_buffer(b.index, results)
    for n in range(1, 9):
        for s in (1, 2, 3):
            prog = parse_program(STRIDED.format(n=n, s=s))
            reg = build_registry(build_compressed_summands(prog, "A"))
            results["kernels"] += 1
            for b in reg.buffers:
                if b.layout == "compressed":
                    _sweep_buffer(b.index, results)
    reg = build_registry(build_compressed_summands(parse_program(SUBTRI), "A"))
    results["kernels"] += 1
    for b in reg.buffers:
        if b.layout == "compressed":
            _sweep_buffer(b.index, results)
    results["elapsed"] = time.monotonic() - t0
    return results


def test_criterion_3_bijection_suite(built, sweep):
    t0 = time.monotonic() - sweep["elapsed"] - built["elapsed"]
    assert sweep["bijection_failures"] == []
    _pass(3, f"{sweep['bijections']} lex bijections over {sweep['kernels']} "
             "kernels, bindings 1..8", t0, budget=60.0)


def test_criterion_4_counting_oracle(built, sweep):
    t0 = time.monotonic() - sweep["elapsed"] - built["elapsed"]
    assert sweep["count_failures"] == []
    _pass(4, f"{sweep['counts']} region counts equal enumeration cardinality",
          t0, budget=60.0)


# (backend, workers, floor) per end-to-end run of a plan, workers=1 first
# on each backend; "c" only where gcc is on PATH
RUNS = [(backend, workers, floor) for backend in (None, "numpy", "c")
        if backend != "c" or native.compiler()
        for workers, floor in ((1, None), (2, None), (8, None), (2, 0), (8, 0))]


@pytest.fixture(scope="module")
def endtoend(built):
    t0 = time.monotonic()
    results = {"exec_failures": [], "hoist_checks": 0, "hoist_failures": [],
               "runs": 0, "splits": 0}
    real_shares = codegen._shares

    def counted_shares(*args):
        shares = real_shares(*args)
        results["splits"] += len(shares) > 1
        return shares
    for name, kern in BUILTIN_KERNELS.items():
        binding = _binding_for(kern)
        shapes = _shapes_for(kern, binding)
        program = parse_program(kern.text)
        plans = {"input+output": built["plans"][name]}
        for level in ("none", "input"):
            plans[level] = build_plan(program, kern.rule, compression=level)
        for dtype in (np.int64, np.float64):
            tensors = {t: random_tensor(shapes[t], 100 + i, dtype)
                       for i, t in enumerate(sorted(
                           tt for tt in shapes if tt != kern.rule))}
            ref = reference_execute(program, kern.rule, shapes,
                                    {t: x.data for t, x in tensors.items()},
                                    binding, dtype)
            for level, plan in plans.items():
                store = build_store(plan, tensors, binding)
                # at the default floor workers > 1 runs whole at these
                # sizes; at floor 0, on 8 usable CPUs, a parallelizable
                # summand on C splits into threads wherever its points fill
                # two shares, and gives workers=1's output on its backend
                # bitwise: one output value's terms never span two shares
                for backend, workers, floor in RUNS:
                    with pytest.MonkeyPatch.context() as mp:
                        if floor is not None:
                            mp.setattr(codegen, "THREAD_POINTS", floor)
                            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
                            mp.setattr(codegen, "_shares", counted_shares)
                        res = execute(plan, store, shapes, binding,
                                      workers=workers, dtype=dtype, backend=backend)
                    out = gather_output(plan, res, shapes[kern.rule], binding).data
                    results["runs"] += 1
                    if workers == 1:
                        seq = out
                    if dtype is np.int64:
                        ok = np.array_equal(out, ref)
                    else:
                        scale = max(float(np.max(np.abs(ref))), 1e-30)
                        ok = float(np.max(np.abs(out - ref))) / scale <= 1e-12
                    if not ok or not np.array_equal(out, seq):
                        results["exec_failures"].append(
                            (name, level, backend, workers, floor, str(dtype)))
        # the lowered programs that `execute` and the C walk: at every point
        # the kernel visits, root plus each level's terms is the scaled rank
        # of a single-polynomial access and the offset of a dense one
        summands = build_compressed_summands(program, kern.rule)
        extents = {(t, axis): e for t, shape in shapes.items() for axis, e in enumerate(shape)}
        for plan in plans.values():
            for sp, summand in zip(plan.summands, summands):
                prog, st = sp.program, sp.statement
                if prog is None:
                    continue
                space = iteration_space(summand)
                for row in enumerate_points(space, binding).tolist():
                    env = {**binding, **extents, **dict(zip(space.dims, row))}
                    for col, a in enumerate((st.output, *st.inputs)):
                        if col not in prog.root:   # piecewise: evaluated per piece
                            continue
                        hoisted = poly_values(prog.root[col], {}, env) + sum(
                            poly_values(p, {}, env) * env[lv.var] ** e
                            for lv in prog.levels for t, e, p in lv.terms if t == col)
                        direct = (np.ravel_multi_index([env[it] for it in a.names],
                                                       shapes[a.tensor])
                                  if a.layout == "dense" else a.scale * a.rank.evaluate(env))
                        results["hoist_checks"] += 1
                        if hoisted != direct:
                            results["hoist_failures"].append(
                                (name, plan.compression, a.tensor, row))
    results["elapsed"] = time.monotonic() - t0
    return results


def test_criterion_5_end_to_end(built, endtoend):
    t0 = time.monotonic() - endtoend["elapsed"] - built["elapsed"]
    assert endtoend["exec_failures"] == []
    assert endtoend["splits"] > 0 or not native.compiler()
    _pass(5, f"{endtoend['runs']} runs = 12 kernels x 2 dtypes x 3 levels x "
             f"{len(RUNS) // 5} backends x workers {{1,2,8}}, and {{2,8}} at floor 0 "
             f"({endtoend['splits']} summand calls split into threads), "
             "match the dense reference, and workers=1 bitwise",
          t0, budget=120.0)


def test_criterion_8_hoisting_equivalence(built, endtoend):
    t0 = time.monotonic() - endtoend["elapsed"] - built["elapsed"]
    assert endtoend["hoist_failures"] == []
    assert endtoend["hoist_checks"] > 0
    _pass(8, f"{endtoend['hoist_checks']} lowered indices equal the scaled "
             "rank or the dense offset", t0, budget=120.0)


def test_criterion_6_compression_rates(built):
    t0 = time.monotonic()
    n = 10000
    reports = {}
    for name, kern in BUILTIN_KERNELS.items():
        binding = {s: (5 if s in ("I", "J") else n) for s in kern.defaults}
        shapes = _shapes_for(kern, binding)
        reports[name] = footprint_report(built["plans"][name].registry,
                                         binding, shapes, kern.rule)
    spmv_d = reports["SpMV_D"]
    assert spmv_d.tensor_rate("B") == n  # diagonal keeps n of n^2
    spmv_ut = reports["SpMV_UT"]
    assert spmv_ut.entry("B").stored == n * (n + 1) // 2 == 50005000
    assert spmv_ut.rate("input+output") < 2
    assert reports["MTT_D"].rate("input+output") >= \
        100 * spmv_ut.rate("input+output")
    for name, rep in reports.items():
        full, inputs_only = rep.rate("input+output"), rep.rate("input")
        assert isinstance(full, Fraction) and isinstance(inputs_only, Fraction)
        assert full >= inputs_only >= 1, name
    _pass(6, "diagonal n, triangular n(n+1)/2, MTT_D/SpMV_UT >= 100x, "
             "full >= input-only on all 12", t0, budget=5.0)


def _median_time(fn, repeats=5):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def test_criterion_7_performance_substitute():
    t0 = time.monotonic()
    notes = []

    # 7a: compressed vs uncompressed interpreter sweep on a diagonal matrix.
    # The stated n = 2^20 needs an 8 TB dense operand; cap the dense side by
    # available memory and take the largest power of two that fits.
    target_n, budget_bytes = 1 << 20, 2_500_000_000
    n = target_n
    while n > 1 and 8 * n * n > budget_bytes:
        n //= 2
    if n != target_n:
        warnings.warn(f"7a: dense operand at n=2^20 needs "
                      f"{8 * target_n * target_n / 1e12:.0f} TB; "
                      f"falling back to n={n}")
    kern = BUILTIN_KERNELS["SpMV_D"]
    binding = {"n_i": n, "n_j": n}
    shapes = _shapes_for(kern, binding)
    program = parse_program(kern.text)
    tensors = {"B": random_tensor(shapes["B"], 7, np.float64),
               "C": random_tensor(shapes["C"], 8, np.float64)}
    comp_plan = build_plan(program, "A", compression="input+output")
    none_plan = build_plan(program, "A", compression="none")
    comp_store = build_store(comp_plan, tensors, binding)
    none_store = build_store(none_plan, tensors, binding)
    t_comp = _median_time(lambda: execute(comp_plan, comp_store, shapes, binding))
    t_none = _median_time(lambda: execute(none_plan, none_store, shapes, binding))
    ratio_a = t_none / t_comp if t_comp else float("inf")
    notes.append(f"7a n={n}: compressed {t_comp * 1e3:.2f}ms vs dense "
                 f"{t_none * 1e3:.2f}ms, ratio {ratio_a:.2f}")
    if ratio_a < 2.0:
        warnings.warn(f"7a: compressed/uncompressed speedup {ratio_a:.2f} < 2 "
                      f"at n={n} (soft criterion)")
    del tensors, comp_store, none_store

    # 7b: 8-worker vs 1-worker on the upper-triangular matrix
    n = 1 << 13
    kern = BUILTIN_KERNELS["SpMV_UT"]
    binding = {"n_i": n, "n_j": n}
    shapes = _shapes_for(kern, binding)
    program = parse_program(kern.text)
    tensors = {"B": random_tensor(shapes["B"], 9, np.float64),
               "C": random_tensor(shapes["C"], 10, np.float64)}
    plan = build_plan(program, "A", compression="input+output")
    store = build_store(plan, tensors, binding)
    t_1 = _median_time(lambda: execute(plan, store, shapes, binding, workers=1),
                       repeats=3)
    t_8 = _median_time(lambda: execute(plan, store, shapes, binding, workers=8),
                       repeats=3)
    ratio_b = t_1 / t_8 if t_8 else float("inf")
    notes.append(f"7b n={n}: 1 worker {t_1 * 1e3:.1f}ms vs 8 workers "
                 f"{t_8 * 1e3:.1f}ms, ratio {ratio_b:.2f}")
    if ratio_b < 2.0:
        cpus = os.cpu_count()
        warnings.warn(f"7b: 8-worker speedup {ratio_b:.2f} < 2 on this "
                      f"machine ({cpus} CPU(s) visible; soft criterion)")
    _pass(7, "soft performance check; " + "; ".join(notes), t0)
