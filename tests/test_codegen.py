"""Loop nest, execution, and C emission tests.

The ground truth throughout is the enumeration oracle: nests must visit
exactly the enumerated points in order, and compressed execution must
reproduce the dense reference result built by direct gather/accumulate.
"""

import functools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypack import codegen, native
from polypack.cli import BUILTIN_KERNELS
from polypack.codegen import (
    BLOCK_POINTS, CodegenError, IndexingFault, KernelPlan, LoopNest, SummandPlan, Statement,
    AccessPlan, _c_bound, _c_int, build_loop_nest, build_plan, emit_c, execute,
    iter_point_chunks, reference_execute,
)
from polypack.indexing import build_registry
from polypack.polyhedra import (
    AffineExpr, Polyhedron, UnboundedError, enumerate_points, eq, ge,
    iteration_space, modeq,
)
from polypack.runtime import DenseTensor, build_store, gather_output
from polypack.stur import build_compressed_summands, parse_program

from helpers import SUBTRI, buffer_for


def v(name):
    return AffineExpr.var(name)


def k(c):
    return AffineExpr.constant(c)


FIG3 = """
A(i, j, k) := B(i, j, l) * C(k, l) * (0 <= i < M) * (0 <= k < P)
B_U(i, j, l) := (0 <= l) * (Q > l) * (i <= j) * (N > j) * (0 <= i)
"""

LEVELS = ("none", "input", "input+output")

GCC = shutil.which("gcc")
needs_gcc = pytest.mark.skipif(GCC is None, reason="no gcc to compile the emitted C")

# "c" runs each summand through its compiled C function
BACKENDS = ["numpy", pytest.param("c", marks=needs_gcc)]

SPMV_D = "A(i)=B(i,j)*C(j); B_U: (0<=i<n_i)*(i=j)"

LESLIE = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (i = 0) * (0 <= j < n_j) + (1 <= i < n_i) * (j = i - 1)
"""

DIAG_HADAMARD = """
T(x, y) := M(x, y) * V(x, y) * (0 <= x < n) * (0 <= y < n)
M_U(x, y) := (0 <= x < n) * (x = y)
"""

SPMV_UT = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (0 <= i < n) * (i <= j < n)
"""

BANDED = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (0 <= j <= i) * (i - j <= 2)
"""

BANDED_WIDE = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (0 <= j <= i) * (i - j <= 40)
"""

# two overlapping unique-set terms keep B dense, so the first summand's
# non-unit constraint stays a guard on its innermost level
HALF_GUARD = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (0 <= j < n) * (2*j <= i + 5) + (0 <= i < n) * (i <= j < n)
"""

# the first summand's j has no unit upper bound: simplification drops j < n
# as implied by 2*j <= i <= n - 1, so 2*j <= i bounds it
HALF_BOUND = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (0 <= j < n) * (2*j <= i) + (0 <= i < n) * (i <= j < n)
"""

# two overlapping unique-set terms keep B dense; the first summand's j runs
# to m - 1 but its guard 3*j <= i keeps j <= (n - 1) / 3
THIRD_GUARD = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (0 <= j < m) * (3*j <= i) + (0 <= i < n) * (j = 0)
"""


# a rectangle: no level's bounds read another
FULL_RECT = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (0 <= i < n) * (0 <= j < m)
"""

# B's two regions agree whenever m = p, but they are not equal: sharing one
# buffer read summand 1's j >= m through a layout sized for j < m
UNPROVED_EQUAL = """
A(i) := B(i, j) * C(j) * (j < m) + B(i, j) * D(j) * (j < p) * (i + j <= n + m - 2)
B_U(i, j) := (0 <= i < n) * (0 <= j < n)
"""

# dense, B's offsets over l step by B's last extent
STRIDED_BOX = """
A(i, k) := B(i, l, k) * C(l)
B_U(i, l, k) := (0 <= i < n) * (0 <= l < m) * (i <= k < n)
"""


def space_of(text, rule="A", idx=0):
    s = build_compressed_summands(parse_program(text), rule)[idx]
    return iteration_space(s)


def walk(nest, binding):
    """The nest's points as tuples, chunks concatenated in yield order."""
    return [tuple(p) for c in iter_point_chunks(nest, binding) for p in c.tolist()]


def oracle(space, binding):
    return [tuple(p) for p in enumerate_points(space, binding).tolist()]


@st.composite
def mixed_spaces(draw):
    """A 2- or 3-dim space over one parameter n whose nest mixes loop,
    strided and fixed levels, guards and rows left empty by a mod
    constraint or a guard.  Every dim is bounded below with unit
    coefficient by a constant or an outer dim, and above by n or an outer
    dim x, as d <= x + e or, with c in {2, 3}, as c*d <= x + e; so the space
    is bounded, and a level's upper side can be its non-unit inequality
    alone, a bound (c, poly) whose constant takes either sign."""
    dims = ("a", "b", "c")[:draw(st.integers(2, 3))]
    cons = []
    for pos, d in enumerate(dims):
        outer = dims[:pos]

        def side(names):
            by = draw(st.sampled_from(names))
            e = k(draw(st.integers(-2, 2)))
            return e if by is None else e + v(by)
        scale = draw(st.integers(2, 3)) if draw(st.booleans()) else 1
        cons += [ge(v(d) - side((None,) + outer)), ge(side(("n",) + outer) - v(d) * scale)]
        kind = draw(st.sampled_from(["loop", "strided", "fixed"]))
        if kind == "fixed":   # the bounds above turn into its guards
            cons.append(eq(v(d) - side((None, "n") + outer)))
        elif kind == "strided":
            phase = v(draw(st.sampled_from(outer))) if outer and draw(st.booleans()) else k(0)
            cons.append(modeq(v(d) + phase, draw(st.integers(2, 3)), draw(st.integers(0, 2))))
        if outer and draw(st.booleans()):   # a non-unit coefficient: a guard
            cons.append(ge(v(outer[-1]) + k(draw(st.integers(0, 3))) - v(d) * 2))
    return Polyhedron.build(dims, ("n",), cons)


# ---------------------------------------------------------------------------
# Packing oracle (kept local and naive on purpose)


def pack_store(plan, shapes, dense, binding, dtype):
    """Gather dense values into compressed buffers by rank; dense flats too."""
    store = {}
    input_bids = {a.buffer_id for sp in plan.summands
                  for a in sp.statement.inputs if a.layout == "compressed"}
    for b in plan.registry.buffers:
        if b.layout != "compressed" or b.id not in input_bids:
            continue
        size = int(b.index.size.evaluate(binding))
        arr = np.zeros(size, dtype=dtype)
        pts = enumerate_points(b.accessed, binding)
        if len(pts):
            ranks = b.index.rank.evaluate_many(pts, binding)
            sh = shapes[b.tensor]
            flat = np.zeros(len(pts), dtype=np.int64)
            coords = np.empty_like(pts)
            for pos, axis in enumerate(b.axes):
                coords[:, axis] = pts[:, pos]
            for axis in range(len(sh)):
                flat = flat * int(sh[axis]) + coords[:, axis]
            arr[ranks] = dense[b.tensor][flat]
        store[b.id] = arr
    for sp in plan.summands:
        for a in sp.statement.inputs:
            if a.layout == "dense":
                store[a.tensor] = dense[a.tensor]
    return store


def unpack_output(plan, res, shapes, binding, rule, dtype):
    if res.dense is not None:
        return res.dense
    out = np.zeros(int(np.prod(shapes[rule], dtype=np.int64)), dtype=dtype)
    for bid, arr in res.compressed.items():
        b = plan.registry.buffers[bid]
        pts = enumerate_points(b.accessed, binding)
        if not len(pts):
            continue
        ranks = b.index.rank.evaluate_many(pts, binding)
        sh = shapes[rule]
        flat = np.zeros(len(pts), dtype=np.int64)
        coords = np.empty_like(pts)
        for pos, axis in enumerate(b.axes):
            coords[:, axis] = pts[:, pos]
        for axis in range(len(sh)):
            flat = flat * int(sh[axis]) + coords[:, axis]
        out[flat] += arr[ranks]
    return out


def kernel_plan(nest, stmt, parallel=False, registry=None, level="none"):
    """A plan of rule A with one summand built by hand, its C emitted as
    `build_plan` emits it."""
    prog = codegen._program(nest, stmt)
    source = "\n".join(codegen._emit_c_summand("a_s0", nest.params, stmt, prog, parallel))
    return KernelPlan("A", (SummandPlan(nest, stmt, parallel, source),), registry, level)


def moved_plan(plan, prog):
    """A one-summand plan with its program replaced by `prog`, and its C
    emitted again from it."""
    sp, = plan.summands
    source = "\n".join(codegen._emit_c_summand("a_s0", sp.nest.params, sp.statement, prog,
                                                sp.parallelizable))
    moved = SummandPlan(sp.nest, sp.statement, sp.parallelizable, source)
    moved.__dict__["program"] = prog
    return KernelPlan(plan.rule, (moved,), plan.registry, plan.compression)


def no_floor(monkeypatch):
    """Set THREAD_POINTS to 0 and let the process use two CPUs: a
    `workers > 1` call splits a summand on C wherever its points fill two
    shares."""
    monkeypatch.setattr(codegen, "THREAD_POINTS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def both_floors(monkeypatch):
    """Yield twice: at the default floor, where a small `workers > 1` call
    runs whole, then at 0 (`no_floor`), where it splits."""
    floor, cpus = codegen.THREAD_POINTS, os.sched_getaffinity
    yield
    no_floor(monkeypatch)
    yield
    monkeypatch.setattr(codegen, "THREAD_POINTS", floor)
    monkeypatch.setattr(os, "sched_getaffinity", cpus)


def record_threads(monkeypatch):
    """Record every thread that starts; returns the list."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def run_and_compare(text, rule, shapes, binding, compression, workers=1,
                    dtype=np.int64, seed=0, backend=None):
    """(got, want) for a rule run by `execute` on a backend and by the dense
    reference; `text` is STUR text or a parsed program, whose levels share
    one registry."""
    program = parse_program(text) if isinstance(text, str) else text
    plan = build_plan(program, rule, compression)
    rng = np.random.default_rng(seed)
    dense = {}
    tensors = {a.tensor for sp in plan.summands for a in sp.statement.inputs}
    for t in tensors:
        n = int(np.prod(shapes[t], dtype=np.int64))
        vals = rng.integers(-3, 4, size=n)
        dense[t] = vals.astype(dtype)
    store = pack_store(plan, shapes, dense, binding, dtype)
    res = execute(plan, store, shapes, binding, workers=workers, dtype=dtype, backend=backend)
    got = unpack_output(plan, res, shapes, binding, rule, dtype)
    want = reference_execute(program, rule, shapes, dense, binding, dtype=dtype)
    return got, want


class TestLoopNest:
    def test_prism_levels(self):
        nest = build_loop_nest(space_of(FIG3))
        assert [lv.var for lv in nest.levels] == ["i", "j", "k", "l"]
        i = nest.levels[0]
        assert i.kind == "loop"
        assert {_c_bound(b, "FLOORD") for b in i.uppers} == {"-1 + M", "-1 + N"}
        j = nest.levels[1]
        assert [_c_bound(b, "CEILD") for b in j.lowers] == ["i"]
        assert [_c_bound(b, "FLOORD") for b in j.uppers] == ["-1 + N"]

    def test_diagonal_fixed_level(self):
        nest = build_loop_nest(space_of(SPMV_D))
        assert nest.levels[0].kind == "loop"
        assert nest.levels[1].kind == "fixed"
        assert _c_int(nest.levels[1].lowers[0][1]) == "i"

    def test_leslie_degenerate_level(self):
        nest = build_loop_nest(space_of(LESLIE, idx=0))
        assert nest.levels[0].kind == "fixed"
        assert _c_int(nest.levels[0].lowers[0][1]) == "0"
        assert nest.levels[1].kind == "loop"
        for n in range(1, 9):
            binding = {"n_i": n, "n_j": n}
            assert walk(nest, binding) == oracle(space_of(LESLIE, idx=0), binding)

    def test_scan_equivalence(self):
        cases = [
            (space_of(FIG3), {"M": 3, "N": 4, "P": 2, "Q": 3}),
            (space_of(FIG3), {"M": 5, "N": 2, "P": 1, "Q": 2}),
            (space_of(SPMV_D), {"n_i": 6}),
            (space_of(LESLIE, idx=1), {"n_i": 5, "n_j": 3}),
            (space_of(SPMV_UT), {"n": 5}),
            (space_of(BANDED), {"n": 7}),
        ]
        for space, binding in cases:
            assert walk(build_loop_nest(space), binding) == oracle(space, binding)

    def test_strided_level_from_mod(self):
        space = Polyhedron.build(
            ("i",), (), [ge(v("i")), ge(k(19) - v("i")), modeq(v("i"), 4, 3)])
        nest = build_loop_nest(space)
        assert nest.levels[0].kind == "strided"
        assert nest.levels[0].stride == 4
        assert walk(nest, {}) == oracle(space, {})
        assert walk(nest, {}) == [(3,), (7,), (11,), (15,), (19,)]

    def test_empty_nest(self):
        space = Polyhedron.build(("i",), (), [ge(v("i")), ge(-v("i") - k(1))])
        nest = build_loop_nest(space)
        assert walk(nest, {}) == [] == oracle(space, {})

    def test_unbounded_raises(self):
        space = Polyhedron.build(("i",), ("n",), [ge(v("i"))])
        with pytest.raises(UnboundedError):
            build_loop_nest(space)

    def test_non_unit_constraint_becomes_guard(self):
        space = Polyhedron.build(
            ("i",), (), [ge(v("i")), ge(k(9) - v("i")), ge(k(7) - v("i") * 2)])
        nest = build_loop_nest(space)
        assert walk(nest, {}) == oracle(space, {})
        assert walk(nest, {}) == [(0,), (1,), (2,), (3,)]

    def test_non_unit_bound_without_unit_bound(self):
        program = parse_program(HALF_BOUND)
        for level in ("none", "input", "input+output"):
            for sp in build_plan(program, "A", level).summands:
                assert all(lv.lowers and lv.uppers for lv in sp.nest.levels)
        for idx in (0, 1):
            space = space_of(HALF_BOUND, idx=idx)
            nest = build_loop_nest(space)
            for n in (1, 2, 7, 20):
                assert walk(nest, {"n": n}) == oracle(space, {"n": n})

    def test_non_unit_lower_bound_and_equality(self):
        # 3*i >= n rounds up; 2*j = i bounds j on both sides
        space = Polyhedron.build(("i", "j"), ("n",), [
            ge(v("i") * 3 - v("n")), ge(v("n") - k(1) - v("i")),
            eq(v("j") * 2 - v("i"))])
        nest = build_loop_nest(space)
        assert nest.levels[0].lowers and nest.levels[1].uppers
        for n in (1, 2, 7, 20):
            assert walk(nest, {"n": n}) == oracle(space, {"n": n})

    def test_builtin_regions_and_spaces(self):
        for kern in BUILTIN_KERNELS.values():
            summands = build_compressed_summands(parse_program(kern.text), kern.rule)
            polys = [iteration_space(s) for s in summands] + [
                b.accessed for b in build_registry(summands).buffers
                if b.layout == "compressed"]
            for poly in polys:
                nest = build_loop_nest(poly)
                for size in (1, 2, 5, 9):
                    binding = {p: size for p in poly.params}
                    assert walk(nest, binding) == oracle(poly, binding), (
                        kern.name, str(poly), size)

    def test_strided_level_above_loop(self):
        space = Polyhedron.build(("i", "j"), (), [
            ge(v("i")), ge(k(9) - v("i")), ge(v("j")), ge(k(9) - v("j")),
            modeq(v("i"), 3, 1)])
        nest = build_loop_nest(space)
        assert [lv.kind for lv in nest.levels] == ["strided", "loop"]
        got = walk(nest, {})
        assert len(got) == 30
        assert got == oracle(space, {})

    def test_row_longer_than_block(self):
        space = Polyhedron.build(("i", "j"), ("n",), [
            ge(v("i")), ge(k(2) - v("i")), ge(v("j")), ge(v("n") - v("j"))])
        binding = {"n": BLOCK_POINTS + 100}
        chunks = list(iter_point_chunks(build_loop_nest(space), binding))
        assert [len(c) for c in chunks] == [BLOCK_POINTS + 101] * 3
        assert walk(build_loop_nest(space), binding) == oracle(space, binding)

    def test_short_rows_cross_block_boundaries(self):
        # triangle rows of length 1..n; the total is no multiple of the block
        space = Polyhedron.build(("i", "j"), ("n",), [
            ge(v("i")), ge(v("n") - k(1) - v("i")), ge(v("j")), ge(v("i") - v("j"))])
        binding = {"n": 170}
        chunks = list(iter_point_chunks(build_loop_nest(space), binding))
        assert len(chunks) > 1
        assert max(len(c) for c in chunks) <= BLOCK_POINTS
        assert walk(build_loop_nest(space), binding) == oracle(space, binding)

    def test_rows_of_length_zero(self):
        space = Polyhedron.build(("i", "j"), (), [
            ge(v("i")), ge(k(6) - v("i")), ge(v("j") - k(3)), ge(v("i") - v("j"))])
        got = walk(build_loop_nest(space), {})
        assert got[0] == (3, 3)
        assert got == oracle(space, {})

    def test_all_fixed_nest(self):
        space = Polyhedron.build(("i", "j"), ("n",), [
            eq(v("i") - v("n")), eq(v("j") - v("i") + k(1)), ge(v("n"))])
        nest = build_loop_nest(space)
        assert [lv.kind for lv in nest.levels] == ["fixed", "fixed"]
        assert walk(nest, {"n": 4}) == [(4, 3)] == oracle(space, {"n": 4})
        assert walk(nest, {"n": -1}) == [] == oracle(space, {"n": -1})

    def test_zero_dim_nest(self):
        space = Polyhedron.build((), ("n",), [ge(v("n") - k(1))])
        nest = build_loop_nest(space)
        chunks = list(iter_point_chunks(nest, {"n": 3}))
        assert [c.shape for c in chunks] == [(1, 0)]
        assert walk(nest, {"n": 0}) == [] == oracle(space, {"n": 0})

    @settings(max_examples=100, deadline=None)
    @given(space=mixed_spaces(), n=st.integers(0, 7))
    def test_walker_matches_enumeration(self, space, n):
        # the points in order, chunks of at most BLOCK_POINTS unless one
        # innermost row is longer, and each dim's least and most value
        nest = build_loop_nest(space)
        binding = {"n": n}
        want = oracle(space, binding)
        pts = np.array(want, dtype=np.int64).reshape(-1, len(space.dims))
        ranges = {d: (int(pts[:, c].min()), int(pts[:, c].max()))
                  for c, d in enumerate(space.dims)} if len(pts) else {}
        for block in (1, 5, BLOCK_POINTS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(codegen, "BLOCK_POINTS", block)
                chunks = list(iter_point_chunks(nest, binding))
                assert [tuple(p) for c in chunks for p in c.tolist()] == want
                assert all(len(c) <= block or (c[:, :-1] == c[0, :-1]).all() for c in chunks)
                assert codegen.dim_ranges(nest, binding) == ranges


class TestExecute:
    def test_spmv_diagonal_values(self):
        program = parse_program(SPMV_D)
        plan = build_plan(program, "A", "input+output")
        shapes = {"A": (3,), "B": (3, 3), "C": (3,)}
        binding = {"n_i": 3}
        dense = {
            "B": np.diag([1.0, 2.0, 3.0]).ravel(),
            "C": np.ones(3),
        }
        store = pack_store(plan, shapes, dense, binding, np.float64)
        assert store[plan.registry.assignment[(0, "in0")]].tolist() == [1.0, 2.0, 3.0]
        res = execute(plan, store, shapes, binding)
        got = unpack_output(plan, res, shapes, binding, "A", np.float64)
        assert got.tolist() == [1.0, 2.0, 3.0]

    def test_prism_all_ones(self):
        program = parse_program(FIG3)
        plan = build_plan(program, "A", "input+output")
        binding = {"M": 2, "N": 2, "P": 2, "Q": 2}
        shapes = {"A": (2, 2, 2), "B": (2, 2, 2), "C": (2, 2)}
        dense = {"B": np.ones(8), "C": np.ones(4)}
        store = pack_store(plan, shapes, dense, binding, np.float64)
        res = execute(plan, store, shapes, binding)
        got = unpack_output(plan, res, shapes, binding, "A", np.float64)
        a = got.reshape(2, 2, 2)
        for kk in range(2):
            assert a[:, :, kk].tolist() == [[2.0, 2.0], [0.0, 2.0]]

    def test_diagonal_hadamard(self):
        program = parse_program(DIAG_HADAMARD)
        plan = build_plan(program, "T", "input+output")
        binding = {"n": 4}
        shapes = {"T": (4, 4), "M": (4, 4), "V": (4, 4)}
        m = np.zeros((4, 4))
        np.fill_diagonal(m, [2.0, 3.0, 4.0, 5.0])
        vv = np.arange(16, dtype=np.float64).reshape(4, 4)
        dense = {"M": m.ravel(), "V": vv.ravel()}
        store = pack_store(plan, shapes, dense, binding, np.float64)
        res = execute(plan, store, shapes, binding)
        got = unpack_output(plan, res, shapes, binding, "T", np.float64).reshape(4, 4)
        want = np.zeros((4, 4))
        np.fill_diagonal(want, [2.0 * 0, 3.0 * 5, 4.0 * 10, 5.0 * 15])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("compression", ["none", "input", "input+output"])
    @pytest.mark.parametrize("text,rule,shapes,binding", [
        (FIG3, "A", {"A": (3, 4, 2), "B": (3, 4, 3), "C": (2, 3)},
         {"M": 3, "N": 4, "P": 2, "Q": 3}),
        (SPMV_D, "A", {"A": (5,), "B": (5, 5), "C": (5,)}, {"n_i": 5}),
        (SPMV_UT, "A", {"A": (6,), "B": (6, 6), "C": (6,)}, {"n": 6}),
        (LESLIE, "A", {"A": (5,), "B": (5, 5), "C": (5,)},
         {"n_i": 5, "n_j": 5}),
        (BANDED, "A", {"A": (7,), "B": (7, 7)}, {"n": 7}),
        # several BLOCK_POINTS blocks per summand from here on
        (SPMV_UT, "A", {"A": (300,), "B": (300, 300), "C": (300,)}, {"n": 300}),
        (BUILTIN_KERNELS["MTT_J"].text, "A",
         {"A": (20, 3), "B": (20, 100, 100), "C": (100, 3), "D": (100, 3)},
         {"n_i": 20, "n_j": 3, "n_k": 100, "n_l": 100, "J": 2}),
        (BUILTIN_KERNELS["THP_J"].text, "A", {t: (200, 3, 200) for t in "ABC"},
         {"n_i": 200, "n_j": 3, "n_k": 200, "J": 2}),
        (BANDED_WIDE, "A", {"A": (1000,), "B": (1000, 1000)}, {"n": 1000}),
        (HALF_GUARD, "A", {"A": (300,), "B": (300, 300)}, {"n": 300}),
        (HALF_BOUND, "A", {"A": (7,), "B": (7, 7)}, {"n": 7}),
        (HALF_BOUND, "A", {"A": (300,), "B": (300, 300)}, {"n": 300}),
        # rectangular inner levels: a row of more than BLOCK_POINTS values
        # below the outer levels, and a nest of two loop levels only
        (BUILTIN_KERNELS["TTM_UT"].text, "A",
         {"A": (40, 40, 40), "B": (40, 40, 40), "C": (40, 40)},
         {"n_i": 40, "n_j": 40, "n_k": 40, "n_l": 40}),
        (BUILTIN_KERNELS["MTT_J"].text, "A",
         {"A": (3, 4), "B": (3, 91, 91), "C": (91, 4), "D": (91, 4)},
         {"n_i": 3, "n_j": 4, "n_k": 91, "n_l": 91, "J": 1}),
        (FULL_RECT, "A", {"A": (7,), "B": (7, 9), "C": (9,)}, {"n": 7, "m": 9}),
        (STRIDED_BOX, "A", {"A": (6, 6), "B": (6, 4, 6), "C": (4,)}, {"n": 6, "m": 4}),
        # outer rows (i, k) repeat the output index A[i, J]
        (BUILTIN_KERNELS["MTT_JUT"].text, "A",
         {"A": (12, 3), "B": (12, 12, 9), "C": (12, 3), "D": (9, 3)},
         {"n_i": 12, "n_j": 3, "n_k": 12, "n_l": 9, "J": 1}),
        (UNPROVED_EQUAL, "A", {t: (6, 6) if t == "B" else (6,) for t in "ABCD"},
         {"n": 6, "m": 3, "p": 6}),
    ])
    def test_matches_reference(self, compression, text, rule, shapes, binding):
        got, want = run_and_compare(text, rule, shapes, binding, compression)
        assert np.array_equal(got, want)

    def test_matches_reference_float(self):
        got, want = run_and_compare(
            FIG3, "A", {"A": (3, 4, 2), "B": (3, 4, 3), "C": (2, 3)},
            {"M": 3, "N": 4, "P": 2, "Q": 3}, "input+output", dtype=np.float64)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_piecewise_rank_vector_path(self):
        # the banded region fuses to a piecewise rank over i, so compressed
        # indexing takes the masked piece-by-piece path
        program = parse_program(BANDED)
        plan = build_plan(program, "A", "input+output")
        b_plan = plan.summands[0].statement.inputs[0]
        assert b_plan.layout == "compressed"
        got, want = run_and_compare(
            BANDED, "A", {"A": (9,), "B": (9, 9)}, {"n": 9}, "input+output")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_workers_bitwise_identical(self, workers, monkeypatch):
        shapes = {"A": (9,), "B": (9, 9), "C": (9,)}
        seq, _ = run_and_compare(SPMV_UT, "A", shapes, {"n": 9}, "input+output",
                                 workers=1)
        for _ in both_floors(monkeypatch):
            par, want = run_and_compare(SPMV_UT, "A", shapes, {"n": 9},
                                        "input+output", workers=workers)
            assert np.array_equal(seq, par)
            assert np.array_equal(par, want)

    def test_unproved_region_equality_demotes(self):
        # B's regions overlap without being provably equal: B is demoted
        plan = build_plan(parse_program(UNPROVED_EQUAL), "A", "input+output")
        assert "tensor=B id=1 dense reason=partial-overlap" in plan.registry.dump()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_indexing_fault_on_short_buffer(self, backend):
        # B's packed diagonal one slot short: the point walk's last index
        # is checked against the array it reads
        program = parse_program(SPMV_D)
        plan = build_plan(program, "A", "input+output")
        shapes = {"A": (3,), "B": (3, 3), "C": (3,)}
        binding = {"n_i": 3}
        dense = {"B": np.ones(9), "C": np.ones(3)}
        store = pack_store(plan, shapes, dense, binding, np.float64)
        b = plan.summands[0].statement.inputs[0].buffer_id
        store[b] = store[b][:-1]
        with pytest.raises(IndexingFault, match=f"buffer {b} of B$"):
            execute(plan, store, shapes, binding, backend=backend)

    def test_int64_overflow_raises_before_allocating(self, monkeypatch):
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
        n = 2 ** 32

        def no_alloc(*args):
            raise AssertionError("an output buffer was allocated")
        monkeypatch.setattr(codegen, "_zero_outputs", no_alloc)
        with pytest.raises(IndexingFault, match="of B "):
            execute(plan, {}, {"A": (n,), "B": (n, n), "C": (n,)},
                    {"n_i": n, "n_j": n})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_dense_input_raises(self, workers, monkeypatch):
        # B at `none` holds 35 of its 6x6 values: typed, before any output
        # is allocated or a thread started
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "none")

        def no_alloc(*args):
            raise AssertionError("an output buffer was allocated")
        monkeypatch.setattr(codegen, "_zero_outputs", no_alloc)
        store = {"B": np.ones(35), "C": np.ones(6)}
        shapes = {"A": (6,), "B": (6, 6), "C": (6,)}
        with pytest.raises(IndexingFault, match=r"dense input B holds 35 values"):
            execute(plan, store, shapes, {"n_i": 6, "n_j": 6}, workers=workers)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape_b,workers", [((8, 4), 1), ((8, 4), 2), ((4, 8), 1)])
    def test_dense_access_outside_extent_raises(self, shape_b, workers, backend, monkeypatch):
        # j (inner) or i (outer) runs past B's short axis: B[i, j] would
        # read the next row instead
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "none")
        store = {"B": np.arange(32.0), "C": np.ones(6)}
        shapes = {"A": (6,), "B": shape_b, "C": (6,)}
        started = record_threads(monkeypatch)
        for _ in both_floors(monkeypatch):
            with pytest.raises(IndexingFault, match="of B "):
                execute(plan, store, shapes, {"n_i": 6, "n_j": 6}, workers=workers,
                        backend=backend)
        # at floor 0 on C the call split, and every share's thread is done
        assert len(started) == (workers > 1 and backend == "c")
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_guard_drops_every_value_outside_extent(self, backend):
        # j in [0, 5] leaves B's axis of extent 2, but 3*j <= i <= 5 drops
        # every j >= 2 before the check
        program = parse_program(THIRD_GUARD)
        plan = build_plan(program, "A", "none")
        assert plan.summands[0].nest.levels[1].guards
        shapes = {"A": (6,), "B": (6, 2)}
        binding = {"n": 6, "m": 6}
        dense = {"B": np.arange(12, dtype=np.int64)}
        got = execute(plan, dense, shapes, binding, dtype=np.int64, backend=backend).dense
        want = reference_execute(program, "A", shapes, dense, binding, dtype=np.int64)
        assert np.array_equal(got, want)

    def test_strided_outer_level_split_across_workers(self, monkeypatch):
        # i = 1 mod 3 outermost: at n = 302 the second worker's chunk starts
        # at i = 152, off the phase, and must be re-aligned to it
        space = Polyhedron.build(("i", "j"), ("n",), [
            ge(v("i")), ge(v("n") - k(1) - v("i")), ge(v("j")),
            ge(v("n") - k(1) - v("j")), modeq(v("i"), 3, 1)])
        nest = build_loop_nest(space)
        assert nest.levels[0].kind == "strided"
        stmt = Statement(AccessPlan("A", 0, "dense", ("i",)), (
            AccessPlan("B", 1, "dense", ("i", "j")),
            AccessPlan("C", 2, "dense", ("j",))))
        plan = kernel_plan(nest, stmt, True)
        n = 302
        rng = np.random.default_rng(5)
        store = {"B": rng.integers(-3, 4, n * n), "C": rng.integers(-3, 4, n)}
        shapes = {"A": (n,), "B": (n, n), "C": (n,)}
        seq = execute(plan, store, shapes, {"n": n}, dtype=np.int64).dense
        want = np.zeros(n, dtype=np.int64)
        want[1::3] = (store["B"].reshape(n, n) @ store["C"])[1::3]
        assert np.array_equal(seq, want)
        for _ in both_floors(monkeypatch):
            par = execute(plan, store, shapes, {"n": n}, workers=2, dtype=np.int64).dense
            assert np.array_equal(par, seq)

    def test_all_empty_summands(self):
        text = "A(i) := B(i) * (0 <= i < n) * (i >= 5) * (i <= 3)"
        program = parse_program(text)
        plan = build_plan(program, "A", "input+output")
        res = execute(plan, {}, {"A": (4,)}, {"n": 4})
        # no summand writes A: its output is dense zeros in the call's dtype
        assert res.compressed == {} and res.dense.dtype == np.float64
        assert res.dense.tolist() == [0.0] * 4

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_sizes_evaluated_for_outputs_only(self, name, workers, monkeypatch):
        # an input's length is its packed array's: execute evaluates a size
        # polynomial once per compressed output buffer
        kern = BUILTIN_KERNELS[name]
        binding = {s: 7 if s.startswith("n_") else x for s, x in kern.defaults.items()}
        shapes = {t: tuple(binding[s] for s in syms) for t, syms in kern.shapes.items()}
        plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
        dense = {t: np.ones(int(np.prod(shapes[t]))) for t in shapes if t != kern.rule}
        store = pack_store(plan, shapes, dense, binding, np.float64)
        calls, real = [], codegen.buffer_length

        def counted(index, binding):
            calls.append(index)
            return real(index, binding)
        monkeypatch.setattr(codegen, "buffer_length", counted)
        res = execute(plan, store, shapes, binding, workers=workers)
        outs = {sp.statement.output.buffer_id for sp in plan.summands
                if sp.statement.output.layout == "compressed"}
        assert outs and sorted(res.compressed) == sorted(outs)
        assert sorted(map(id, calls)) == sorted(id(plan.registry.buffers[b].index) for b in outs)

    # j's level per kind over 0 <= i < n, each reaching j = n - 1 at n = 6;
    # where a rule packs B with that level, its text
    EXTENT_LEVELS = {
        "loop": ([ge(v("j")), ge(v("n") - k(1) - v("j"))],
                 "A(i) := B(i, j) * C(j)\nB_U(i, j) := (0 <= i < n) * (0 <= j < n)\n"),
        "strided": ([ge(v("j")), ge(v("n") - k(1) - v("j")), modeq(v("j"), 2, 1)], None),
        "fixed": ([eq(v("j") - v("i"))], SPMV_D.replace("n_i", "n")),
        # the non-unit coefficient stays a guard: j runs to n - 1 from i = 4
        "guarded": ([ge(v("j")), ge(v("n") - k(1) - v("j")),
                     ge(v("i") + v("n") - v("j") * 2)], None),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", sorted(EXTENT_LEVELS))
    def test_dense_extent_checked_on_every_level_kind(self, kind, backend):
        # B one short on the axis j indexes: each backend raises the same
        # fault, and so do the pack of B and the gather of a short A where
        # a rule packs them
        n, (inner, text) = 6, self.EXTENT_LEVELS[kind]
        space = Polyhedron.build(("i", "j"), ("n",), [
            ge(v("i")), ge(v("n") - k(1) - v("i")), *inner])
        nest = build_loop_nest(space)
        assert nest.levels[1].kind == ("loop" if kind == "guarded" else kind)
        assert bool(nest.levels[1].guards) == (kind == "guarded")
        stmt = Statement(AccessPlan("A", 0, "dense", ("i",)), (
            AccessPlan("B", 1, "dense", ("i", "j")), AccessPlan("C", 2, "dense", ("j",))))
        store = {"B": np.ones(n * (n - 1)), "C": np.ones(n)}
        shapes = {"A": (n,), "B": (n, n - 1), "C": (n,)}
        with pytest.raises(IndexingFault, match="an index of B leaves its dense extent"):
            execute(kernel_plan(nest, stmt), store, shapes, {"n": n}, backend=backend)
        if text is None:
            return
        program, binding = parse_program(text), {"n": n}
        short = {"B": DenseTensor((n, n - 1), store["B"]), "C": DenseTensor((n,), store["C"])}
        with pytest.raises(IndexingFault, match="an index of B leaves its dense extent"):
            build_store(build_plan(program, "A", "input"), short, binding, backend=backend)
        plan = build_plan(program, "A", "input+output")
        tensors = {**short, "B": DenseTensor((n, n), np.ones(n * n))}
        res = execute(plan, build_store(plan, tensors, binding, backend=backend),
                      {**shapes, "B": (n, n)}, binding, backend=backend)
        assert plan.gathers and res.backends == {backend}
        with pytest.raises(IndexingFault, match="an index of A leaves its dense extent"):
            gather_output(plan, res, (n - 1,), binding)


@functools.cache
def outer_points(name, n):
    """Points of each parallelizable summand of a builtin with every size n,
    per value of its outermost var, counted on the enumeration."""
    kern = BUILTIN_KERNELS[name]
    plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
    binding = {s: n for s in kern.defaults}
    out = {}
    for sp in plan.summands:
        if sp.parallelizable:
            out[sp.name] = np.zeros(n, dtype=np.int64)
            for pts in iter_point_chunks(sp.nest, binding):
                out[sp.name] += np.bincount(pts[:, 0], minlength=n)
    return out


def default_run(name, level, dtype=np.int64, **sizes):
    """A builtin at its default binding, with `sizes` put over it: (plan,
    store, shapes, binding)."""
    kern = BUILTIN_KERNELS[name]
    binding = {**kern.defaults, **sizes}
    shapes = {t: tuple(binding[s] for s in syms) for t, syms in kern.shapes.items()}
    plan = build_plan(parse_program(kern.text), kern.rule, level)
    rng = np.random.default_rng(17)
    dense = {t: rng.integers(-3, 4, int(np.prod(shapes[t]))).astype(dtype)
             for t in shapes if t != kern.rule}
    return plan, pack_store(plan, shapes, dense, binding, dtype), shapes, binding


def same_result(a, b):
    return (np.array_equal(a.dense, b.dense) if a.dense is not None else b.dense is None) \
        and sorted(a.compressed) == sorted(b.compressed) \
        and all(np.array_equal(a.compressed[k], b.compressed[k]) for k in a.compressed)


class TestThreads:
    @pytest.mark.parametrize("backend", [None, pytest.param("c", marks=needs_gcc)])
    @pytest.mark.parametrize("level", LEVELS)
    def test_small_call_starts_no_thread(self, level, backend, monkeypatch):
        # every builtin at its default binding is far below THREAD_POINTS:
        # workers=2 starts no thread and gives workers=1's output bitwise
        runs = {name: default_run(name, level) for name in BUILTIN_KERNELS}
        want = {name: execute(*run, dtype=np.int64, backend=backend)
                for name, run in runs.items()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        started = record_threads(monkeypatch)
        for name, run in runs.items():
            got = execute(*run, workers=2, dtype=np.int64, backend=backend)
            assert same_result(got, want[name]), name
        assert started == []

    @pytest.mark.parametrize("threads", range(2, 9))
    @pytest.mark.parametrize("name,n", [("SpMV_UT", 2000), ("TTM_UT", 64), ("TTM_UT", 128)])
    def test_shares_balance_points(self, name, n, threads, monkeypatch):
        # at floor 0 the outermost range is cut into chunks that hold each
        # of its values once, each thread's ascending, dealt in snake
        # order; rows i hold points in proportion to n - i, and each
        # thread's points, counted on the enumeration, lie within 2% of
        # an equal share, whether or not the threads divide the chunks
        plan, _, shapes, binding = default_run(name, "input+output",
                                               **{s: n for s in BUILTIN_KERNELS[name].defaults})
        env = {**binding, **{(t, a): e for t, sh in shapes.items() for a, e in enumerate(sh)}}
        monkeypatch.setattr(codegen, "THREAD_POINTS", 0)
        split = [sp for sp in plan.summands if sp.parallelizable]
        assert split
        for sp in split:
            lists = codegen._shares(sp, env, threads)
            assert len(lists) == threads
            assert all(chunks == sorted(chunks) for chunks in lists)
            dealt = sorted((chunk, t) for t, chunks in enumerate(lists) for chunk in chunks)
            values = [x for (lo, hi), _ in dealt for x in range(lo, hi + 1)]
            assert values == list(range(n))
            for c, (_, t) in enumerate(dealt):
                assert t == (c % threads if c // threads % 2 == 0
                             else threads - 1 - c % threads)
            points = outer_points(name, n)[sp.name]
            for chunks in lists:
                held = sum(int(points[lo:hi + 1].sum()) for lo, hi in chunks)
                assert abs(held * threads / points.sum() - 1) <= 0.02, (sp.name, chunks)

    @needs_gcc
    @pytest.mark.parametrize("workers,cpus,threads", [(8, 3, 2), (2, 3, 1), (8, 1, 0),
                                                      (3, 8, 2)])
    def test_threads_capped_at_cpus(self, workers, cpus, threads, monkeypatch):
        # the calling thread and at most cpus - 1 more, never `workers` of
        # them
        plan, store, shapes, binding = default_run("SpMV_UT", "input+output")
        want = execute(plan, store, shapes, binding, dtype=np.int64)
        no_floor(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        started = record_threads(monkeypatch)
        got = execute(plan, store, shapes, binding, workers=workers, dtype=np.int64)
        assert len(started) == threads
        assert same_result(got, want)

    @pytest.mark.parametrize("name,sizes", [("SpMV_UT", {"n_i": 1, "n_j": 64}),
                                            ("TTM_UT", {}), ("MTT_J", {})])
    def test_unsplit_call_starts_no_thread(self, name, sizes, monkeypatch):
        # at floor 0, points that one outermost value holds fill one share
        # only: SpMV_UT with one row does not split; TTM_UT and MTT_J, with
        # eight values of i, split on C and give workers=1's output bitwise
        plan, store, shapes, binding = default_run(name, "input+output", **sizes)
        assert plan.summands[0].parallelizable
        want = execute(plan, store, shapes, binding, dtype=np.int64)
        no_floor(monkeypatch)
        started = record_threads(monkeypatch)
        assert same_result(execute(plan, store, shapes, binding, workers=2, dtype=np.int64),
                           want)
        assert len(started) == (binding["n_i"] > 1 and GCC is not None)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cpus", [2, None])
    def test_no_affinity(self, cpus, workers, backend, monkeypatch):
        # off Linux os has no sched_getaffinity: a call runs all the same,
        # its threads capped at os.cpu_count(), or 1 where that is unknown
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(codegen, "THREAD_POINTS", 0)
        started = record_threads(monkeypatch)
        kern = BUILTIN_KERNELS["SpMV_UT"]
        binding, shapes = builtin_case("SpMV_UT", 8)
        got, want = run_and_compare(kern.text, kern.rule, shapes, binding, "input+output",
                                    workers=workers, backend=backend)
        assert np.array_equal(got, want)
        assert len(started) == (workers == 2 and cpus == 2 and backend == "c")

    @pytest.mark.parametrize("level", LEVELS)
    def test_numpy_walk_never_splits(self, level, monkeypatch):
        # backend "numpy" at floor 0: every builtin runs in the calling
        # thread and gives workers=1's output bitwise
        runs = {name: default_run(name, level) for name in BUILTIN_KERNELS}
        want = {name: execute(*run, dtype=np.int64, backend="numpy")
                for name, run in runs.items()}
        no_floor(monkeypatch)
        started = record_threads(monkeypatch)
        for name, run in runs.items():
            got = execute(*run, workers=8, dtype=np.int64, backend="numpy")
            assert same_result(got, want[name]) and got.backends == {"numpy"}, name
        assert started == []

    def test_extents_gate_the_walk_of_points(self, monkeypatch):
        # SpMV_UT's extents bound its points by n * n: at n = 2000 (4M)
        # they cannot give two threads THREAD_POINTS; at n = 8192 (67M)
        # they give two shares; no point or row is walked for either
        kern = BUILTIN_KERNELS["SpMV_UT"]
        sp, = build_plan(parse_program(kern.text), kern.rule, "input+output").summands

        def walked(*args):
            raise AssertionError("the points of a summand were walked")
        for fn_name in ("_expand", "dim_ranges", "_leaf_blocks"):
            monkeypatch.setattr(codegen, fn_name, walked)
        for n, shares in ((2000, 1), (8192, 2)):
            env = {"n_i": n, "n_j": n, ("A", 0): n, ("B", 0): n, ("B", 1): n, ("C", 0): n}
            assert len(codegen._shares(sp, env, 2)) == shares
        assert codegen._shares(sp, env, 1) == [[codegen._WHOLE]]

    def test_fault_of_lowest_chunk(self, monkeypatch):
        # a C function that fails at two outermost values with different
        # faults, the lower in a chunk of the thread started second (three
        # threads, CHUNKS a thread, dealt in snake order over 24 rows: row
        # 3 is chunk 3, the third thread's) and the higher in one of the
        # caller's (row 5): workers=3 raises workers=1's fault, row 3's
        plan, store, shapes, binding = default_run("SpMV_UT", "input+output", n_i=24, n_j=24)
        sp, = plan.summands
        faults = {3: 3, 5: 2}    # row -> status
        messages = codegen._faults(sp.statement)
        assert messages[2] != messages[1]
        ends = [k for k, (kind, _) in enumerate(sp.c_args) if kind == "share"]

        class Function:
            argtypes = restype = None

            def __call__(self, *args):
                lo, hi = max(args[ends[0]], 0), min(args[ends[1]], 23)
                return next((faults[x] for x in range(lo, hi + 1) if x in faults), 0)

        class Library:
            pass
        lib = Library()
        setattr(lib, sp.name, Function())
        env = codegen._bind(plan, shapes, binding).env
        arrays = (np.zeros(24), *[store[a.key] for a in sp.program.leaves[1:]])
        monkeypatch.setattr(codegen, "THREAD_POINTS", 0)
        lists = codegen._shares(sp, env, 3)
        assert (3, 3) in lists[2] and (5, 5) in lists[0]
        raised = []
        for threads in (1, 3):
            with pytest.raises(IndexingFault) as err:
                codegen._run(sp, lib, arrays, env, threads)
            raised.append(str(err.value))
        assert raised == [messages[2]] * 2
        # eight threads on fewer CPUs, switching every microsecond: no
        # thread's status is lost
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                with pytest.raises(IndexingFault, match=re.escape(messages[2])):
                    codegen._run(sp, lib, arrays, env, 8)
        finally:
            sys.setswitchinterval(interval)


def test_levels_share_one_registry(monkeypatch):
    built = []

    def counted(summands):
        built.append(build_registry(summands))
        return built[-1]
    monkeypatch.setattr(codegen, "build_registry", counted)
    program = parse_program(SPMV_UT)
    plans = [build_plan(program, "A", level)
             for level in ("none", "input", "input+output")]
    assert len(built) == 1
    assert all(p.registry is built[0] for p in plans)
    again = build_plan(parse_program(SPMV_UT), "A", "input+output")
    assert len(built) == 2 and again.registry is built[1] is not built[0]


class TestBind:
    """`execute` binds a plan once per (binding, shapes) and checks what the
    store, the environment and the module's state can change on every
    call."""

    def count_binds(self, monkeypatch):
        """Count each call of what only a bind may call; returns the list."""
        calls = []
        for name in ("buffer_length", "_check_int64", "guards_mask"):
            def counted(*args, _real=getattr(codegen, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(codegen, name, counted)
        return calls

    @needs_gcc
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", ["TTM_UT", "MTT_D", "SpMV_UT"])
    def test_second_call_binds_nothing(self, name, level, monkeypatch):
        plan, store, shapes, binding = default_run(name, level)
        first = execute(plan, store, shapes, binding, dtype=np.int64)
        calls = self.count_binds(monkeypatch)
        again = execute(plan, store, {**shapes}, {**binding}, dtype=np.int64)
        assert calls == [] and again.backends == {"c"}
        assert same_result(again, first)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_dense_input_on_a_hit_raises(self, workers):
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "none")
        shapes, binding = {"A": (6,), "B": (6, 6), "C": (6,)}, {"n_i": 6, "n_j": 6}
        store = {"B": np.ones(36), "C": np.ones(6)}
        execute(plan, store, shapes, binding, workers=workers)
        store["B"] = store["B"][:35]
        with pytest.raises(IndexingFault, match=r"dense input B holds 35 values"):
            execute(plan, store, shapes, binding, workers=workers)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_short_buffer_on_a_hit_raises(self, backend):
        plan = build_plan(parse_program(SPMV_D), "A", "input+output")
        shapes, binding = {"A": (3,), "B": (3, 3), "C": (3,)}, {"n_i": 3}
        store = pack_store(plan, shapes, {"B": np.ones(9), "C": np.ones(3)}, binding,
                           np.float64)
        execute(plan, store, shapes, binding, backend=backend)
        b = plan.summands[0].statement.inputs[0].buffer_id
        store[b] = store[b][:-1]
        with pytest.raises(IndexingFault, match=f"buffer {b} of B$"):
            execute(plan, store, shapes, binding, backend=backend)

    @needs_gcc
    @pytest.mark.parametrize("change", ["strided", "float32"])
    def test_arrays_off_c_walk_on_a_hit(self, change):
        plan, store, shapes, binding = default_run("SpMV_UT", "input+output",
                                                   dtype=np.float64)
        want = execute(plan, store, shapes, binding)
        assert want.backends == {"c"}
        dtype = np.float64
        if change == "strided":
            store = {k: np.repeat(x, 2)[::2] for k, x in store.items()}
            assert not any(x.flags.c_contiguous for x in store.values())
        else:
            dtype, store = np.float32, {k: x.astype(np.float32) for k, x in store.items()}
        got = execute(plan, store, shapes, binding, dtype=dtype)
        assert got.backends == {"numpy"} and sorted(got.compressed) == sorted(want.compressed)
        for b, x in want.compressed.items():
            assert got.compressed[b].dtype == dtype
            assert np.array_equal(got.compressed[b], x.astype(dtype))

    def test_bindings_alternate_and_the_oldest_is_dropped(self, monkeypatch):
        kern = BUILTIN_KERNELS["SpMV_UT"]
        program = parse_program(kern.text)
        plan = build_plan(program, kern.rule, "input+output")
        rng = np.random.default_rng(4)

        def run(n):
            shapes = {"A": (n,), "B": (n, n), "C": (n,)}
            binding = {"n_i": n, "n_j": n}
            dense = {t: rng.integers(-3, 4, math.prod(shapes[t])) for t in ("B", "C")}
            tensors = {t: DenseTensor(shapes[t], x) for t, x in dense.items()}
            res = execute(plan, build_store(plan, tensors, binding), shapes, binding,
                          dtype=np.int64)
            got = gather_output(plan, res, shapes["A"], binding).data
            want = reference_execute(program, kern.rule, shapes, dense, binding,
                                     dtype=np.int64)
            assert np.array_equal(got, want), n
        for n in (5, 7, 5, 7):
            run(n)
        sizes = range(1, codegen._BINDS + 4)
        for n in sizes:
            run(n)
        assert len(plan._binds) == codegen._BINDS
        calls = self.count_binds(monkeypatch)
        run(sizes[-1])
        assert "buffer_length" not in calls
        run(sizes[0])   # dropped as the oldest: bound again
        assert "buffer_length" in calls and len(plan._binds) == codegen._BINDS

    def test_threads_share_one_plan(self):
        # four threads, more than the CPUs, call one plan at more bindings
        # than the memo keeps, switching often: every result is right and
        # the memo ends within its cap
        plan = build_plan(parse_program(SPMV_D), "A", "input+output")
        runs = []
        for n in range(1, codegen._BINDS + 6):
            shapes, binding = {"A": (n,), "B": (n, n), "C": (n,)}, {"n_i": n}
            dense = {"B": np.arange(n * n), "C": np.arange(n) + 1}
            store = pack_store(plan, shapes, dense, binding, np.int64)
            want = dense["B"].reshape(n, n).diagonal() * dense["C"]
            runs.append((store, shapes, binding, want))
        wrong = []

        def work(k):
            for store, shapes, binding, want in runs[k:] + runs[:k]:
                res = execute(plan, store, shapes, binding, dtype=np.int64)
                if not np.array_equal(unpack_output(plan, res, shapes, binding, "A",
                                                    np.int64), want):
                    wrong.append(binding)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and len(plan._binds) <= codegen._BINDS

    def test_overflow_raises_on_every_call(self, monkeypatch):
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
        n = 2 ** 32

        def no_alloc(*args):
            raise AssertionError("an output buffer was allocated")
        monkeypatch.setattr(codegen, "_zero_outputs", no_alloc)
        for _ in range(2):
            with pytest.raises(IndexingFault, match="of B "):
                execute(plan, {}, {"A": (n,), "B": (n, n), "C": (n,)},
                        {"n_i": n, "n_j": n})
        assert plan.__dict__.get("_binds", {}) == {}

    @needs_gcc
    def test_no_compiler_after_a_c_call(self, tmp_path, monkeypatch):
        plan, store, shapes, binding = default_run("SpMV_UT", "input+output")
        want = execute(plan, store, shapes, binding, dtype=np.int64)
        assert want.backends == {"c"}
        monkeypatch.setenv("PATH", str(tmp_path))   # no gcc there
        got = execute(plan, store, shapes, binding, dtype=np.int64)
        assert got.backends == {"numpy"} and same_result(got, want)

        def no_alloc(*args):
            raise AssertionError("an output buffer was allocated")
        monkeypatch.setattr(codegen, "_zero_outputs", no_alloc)
        with pytest.raises(CodegenError, match="gcc is not on PATH"):
            execute(plan, store, shapes, binding, dtype=np.int64, backend="c")
        with pytest.raises(CodegenError, match="unknown backend 'cuda'"):
            execute(plan, store, shapes, binding, dtype=np.int64, backend="cuda")


class TestBox:
    """Summands whose inner levels form a box (loop levels of stride 1,
    bounded by parameters, without guards) run on C and on the walk like
    any other; every fault the array contraction that ran them once raised
    must still be raised, on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_whole_nest_box_across_workers(self, workers, backend, monkeypatch):
        plan = build_plan(parse_program(FULL_RECT), "A", "input+output")
        assert plan.summands[0].parallelizable
        for _ in both_floors(monkeypatch):
            got, want = run_and_compare(FULL_RECT, "A", {"A": (9,), "B": (9, 5), "C": (5,)},
                                        {"n": 9, "m": 5}, "input+output", workers=workers,
                                        backend=backend)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("inputs", [(("i", "j"), ("i",)), (("j",),)])
    def test_output_fixed_across_rows(self, inputs, backend):
        # A[j] over outer rows i = 1 mod 3: the rows' products are summed,
        # or, when no input moves with i either, counted
        space = Polyhedron.build(("i", "j"), ("n",), [
            ge(v("i")), ge(v("n") - k(1) - v("i")), ge(v("j")),
            ge(v("n") - k(1) - v("j")), modeq(v("i"), 3, 1)])
        stmt = Statement(AccessPlan("A", 0, "dense", ("j",)), tuple(
            AccessPlan(t, c + 1, "dense", names)
            for c, (t, names) in enumerate(zip("BC", inputs))))
        plan = kernel_plan(build_loop_nest(space), stmt)
        n = 10
        rng = np.random.default_rng(7)
        shapes = {"A": (n,), **{t: (n,) * len(names) for t, names in zip("BC", inputs)}}
        store = {t: rng.integers(-3, 4, n ** len(names)) for t, names in zip("BC", inputs)}
        got = execute(plan, store, shapes, {"n": n}, dtype=np.int64, backend=backend).dense
        if len(inputs) == 2:
            want = store["C"][1::3] @ store["B"].reshape(n, n)[1::3]
        else:
            want = len(range(1, n, 3)) * store["B"]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grids_follow_the_binding(self, backend):
        # one plan run at alternating bindings, shapes and worker counts
        plan = build_plan(parse_program(FULL_RECT), "A", "none")
        rng = np.random.default_rng(11)
        for n, m, workers in [(9, 5, 1), (9, 5, 2), (4, 7, 1), (9, 5, 1), (9, 6, 1)]:
            shapes = {"A": (n,), "B": (n, m), "C": (m,)}
            dense = {t: rng.integers(-3, 4, int(np.prod(shapes[t]))) for t in "BC"}
            got = execute(plan, dense, shapes, {"n": n, "m": m}, workers=workers,
                          dtype=np.int64, backend=backend).dense
            assert np.array_equal(got, dense["B"].reshape(n, m) @ dense["C"])
        with pytest.raises(IndexingFault, match="of C "):
            execute(plan, dense, {**shapes, "C": (m - 1,)}, {"n": n, "m": m}, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("sizes", [(8, 8, 8), (12, 5, 9), (13, 13, 2), (56, 56, 56)])
    def test_repeated_output_rows_added(self, sizes, level, backend):
        # MTT_JUT's outer rows (i, J, k) repeat A[i, J] next to each other:
        # every one of them is added
        kern = BUILTIN_KERNELS["MTT_JUT"]
        n_i, n_k, n_l = sizes
        binding = {**kern.defaults, "n_i": n_i, "n_k": n_k, "n_l": n_l}
        shapes = {t: tuple(binding[s] for s in syms) for t, syms in kern.shapes.items()}
        got, want = run_and_compare(kern.text, kern.rule, shapes, binding, level,
                                    backend=backend)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeated_output_rows_apart(self, backend):
        # outer rows (i, j) with j >= i repeat A[j] one i apart, not only
        # next to each other
        space = Polyhedron.build(("i", "j", "k"), ("n", "m"), [
            ge(v("i")), ge(v("j") - v("i")), ge(v("n") - k(1) - v("j")),
            ge(v("k")), ge(v("m") - k(1) - v("k"))])
        stmt = Statement(AccessPlan("A", 0, "dense", ("j",)), (
            AccessPlan("B", 1, "dense", ("i", "j", "k")), AccessPlan("C", 2, "dense", ("k",))))
        plan = kernel_plan(build_loop_nest(space), stmt)
        n, m = 7, 4
        rng = np.random.default_rng(23)
        store = {"B": rng.integers(-3, 4, n * n * m), "C": rng.integers(-3, 4, m)}
        got = execute(plan, store, {"A": (n,), "B": (n, n, m), "C": (m,)},
                      {"n": n, "m": m}, dtype=np.int64, backend=backend).dense
        want = np.triu(store["B"].reshape(n, n, m) @ store["C"]).sum(axis=0)
        assert np.array_equal(got, want)

    def ttm_ut(self, level):
        kern = BUILTIN_KERNELS["TTM_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, level)
        n = 6
        binding = {"n_i": n, "n_j": n, "n_k": n, "n_l": n}
        shapes = {"A": (n, n, n), "B": (n, n, n), "C": (n, n)}
        dense = {t: np.ones(int(np.prod(shapes[t]))) for t in "BC"}
        return plan, pack_store(plan, shapes, dense, binding, np.float64), shapes, binding

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_short_buffer_raises(self, backend):
        # B's packed triangle one slot short: its reads are checked against
        # the array they read
        plan, store, shapes, binding = self.ttm_ut("input+output")
        b = plan.summands[0].statement.inputs[0].buffer_id
        store[b] = store[b][:-1]
        with pytest.raises(IndexingFault, match=f"buffer {b} of B$"):
            execute(plan, store, shapes, binding, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_short_dense_input_raises(self, backend):
        # TTM_UT at `none`, size 8, with B one value short of 8^3
        kern = BUILTIN_KERNELS["TTM_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "none")
        shapes = {t: tuple(kern.defaults[s] for s in syms)
                  for t, syms in kern.shapes.items()}
        store = {"B": np.ones(511), "C": np.ones(64)}
        with pytest.raises(IndexingFault, match=r"dense input B holds 511 values"):
            execute(plan, store, shapes, kern.defaults, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_box_level_past_dense_extent_raises(self, backend):
        plan, store, shapes, binding = self.ttm_ut("none")
        store["C"] = np.ones(6 * 5)
        with pytest.raises(IndexingFault, match="of C "):
            execute(plan, store, {**shapes, "C": (6, 5)}, binding, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_integral_base_raises(self, backend):
        # B's scaled rank one unit off: half a slot; the C is emitted again
        # from the moved program
        plan, store, shapes, binding = self.ttm_ut("input+output")
        sp = plan.summands[0]
        b = sp.statement.inputs[0]
        assert b.scale == 2
        prog = sp.program
        plan = moved_plan(plan, prog._replace(root={**prog.root, 1: prog.root[1] + ((1, ()),)}))
        with pytest.raises(IndexingFault, match="non-integer index"):
            execute(plan, store, shapes, binding, backend=backend)

    def test_coefficient_off_scale_walks_points(self):
        # B's rank is lexicographic in (x, y, z), so x's coefficient is the
        # triangle's size n(n+1)/2; iterating x innermost, the scaled
        # coefficient n^2 + n is no multiple of the scale 2, and x is
        # walked point by point
        text = """
        A(x) := B(x, y, z) * C(y, z)
        B_U(x, y, z) := (0 <= x < m) * (0 <= y < n) * (y <= z < n)
        """
        program = parse_program(text)
        plan = build_plan(program, "A", "input")
        buf = buffer_for(plan.registry, 0, "in0")
        space = space_of(text)
        dims = ("y", "z", "x")
        nest = build_loop_nest(Polyhedron.build(dims, space.params, space.constraints))
        rank = codegen._rank_access("B", buf.id, ("x", "y", "z"), buf.index.rank)
        assert rank.scale == 2
        stmt = Statement(AccessPlan("A", 0, "dense", ("x",)), (
            rank, AccessPlan("C", 1, "dense", ("y", "z"))))
        kp = kernel_plan(nest, stmt, registry=plan.registry, level="input")
        assert kp.summands[0].program.run is None
        binding, shapes = {"m": 5, "n": 4}, {"A": (5,), "B": (5, 4, 4), "C": (4, 4)}
        rng = np.random.default_rng(3)
        dense = {t: rng.integers(-3, 4, int(np.prod(shapes[t]))) for t in "BC"}
        store = pack_store(kp, shapes, dense, binding, np.int64)
        want = reference_execute(program, "A", shapes, dense, binding, dtype=np.int64)
        for backend in ("numpy", "c") if GCC else ("numpy",):
            got = execute(kp, store, shapes, binding, dtype=np.int64, backend=backend).dense
            assert np.array_equal(got, want), backend


def walk_of(prog, reduce=False):
    """How the emitted C walks a program's innermost level; with `reduce`, a
    run whose output index is fixed along every run reads "run+reduce"."""
    if prog.run is None:
        return "point"
    return "run+reduce" if reduce and prog.reduce else "run"


# rows start at i + 2 and end at m - 1; when m < n + 2 the rows from
# i = m - 2 on would be empty, and the projection ends i at m - 3
RAGGED = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (0 <= i < n) * (i + 2 <= j < m)
"""

# B's band rows hold w values each, so summand 1's B(j, i) steps by w - 1
# slots along its innermost j
BAND_BOTH_WAYS = """
A(i) := B(i, j) * C(j) + B(j, i) * C(j)
B_U(i, j) := (0 <= i < n) * (i <= j < i + w)
"""


def wrong_runs(prog):
    """A program whose run analysis is wrong everywhere: every leaf's step
    one more (a program without runs gets a step of 1) and `reduce`
    flipped."""
    if prog is None:
        return None
    steps = prog.run or ((),) * len(prog.leaves)
    return prog._replace(run=tuple(step + ((1, ()),) for step in steps), reduce=not prog.reduce)


@pytest.mark.parametrize("name", ["TTM_UT", "MTT_J", "SpMV_UT", "THP_J"])
def test_walk_reads_no_run_analysis(name):
    # the walk is the oracle the C is checked against, so it must not share
    # the C's run analysis: with every summand's, pack's and gather's run
    # steps and reduce made wrong, the walk's pack, execute and gather
    # still give the reference's output
    kern = BUILTIN_KERNELS[name]
    binding, shapes = builtin_case(name, 5)
    program = parse_program(kern.text)
    plan = build_plan(program, kern.rule, "input+output")
    copies = (*plan.summands, *plan.packs.values(), *plan.gathers.values())
    assert any(sp.program.run is not None for sp in copies)
    for sp in copies:
        sp.__dict__["program"] = wrong_runs(sp.program)
    dense = seeded(shapes, kern.rule, np.int64)
    tensors = {t: DenseTensor(shapes[t], x) for t, x in dense.items()}
    store = build_store(plan, tensors, binding, backend="numpy")
    res = execute(plan, store, shapes, binding, dtype=np.int64, backend="numpy")
    got = gather_output(plan, res, shapes[kern.rule], binding)
    want = reference_execute(program, kern.rule, shapes, dense, binding, dtype=np.int64)
    assert res.backends == {"numpy"} and np.array_equal(got.data, want)


def record_blocks(monkeypatch):
    """Record every (idx, m) block the NumPy walk yields; returns the list."""
    blocks, real = [], codegen._leaf_blocks

    def recorded(prog, env, arrays):
        for idx, m in real(prog, env, arrays):
            blocks.append((idx, m))
            yield idx, m
    monkeypatch.setattr(codegen, "_leaf_blocks", recorded)
    return blocks


class TestRuns:
    def test_which_builtins_walk_runs(self):
        # how the C walks every summand at input+output: a silent fallback
        # to the point walk, or losing an output add per row where the
        # output is fixed along the innermost level, fails here
        want = {"TTM_DP": ["run+reduce"], "TTM_J": ["run+reduce"], "TTM_UT": ["run+reduce"],
                "THP_DP": ["run"], "THP_I": ["run"], "THP_J": ["run"],
                "MTT_J": ["run+reduce"], "MTT_JUT": ["run+reduce"], "MTT_D": ["point"],
                "SpMV_L": ["run+reduce", "point"], "SpMV_UT": ["run+reduce"],
                "SpMV_D": ["point"]}
        got = {}
        for name, kern in BUILTIN_KERNELS.items():
            program = parse_program(kern.text)
            plans = {level: build_plan(program, kern.rule, level) for level in LEVELS}
            for plan in plans.values():
                # the per-row reduction rides on runs only
                progs = [sp.program for sp in plan.summands] + [
                    b.index.lowered_copy(b.axes, b.id)[2] for b in plan.registry.buffers
                    if b.layout == "compressed"]
                assert all(p is None or p.run is not None or not p.reduce for p in progs), name
            got[name] = [walk_of(sp.program, reduce=True)
                         for sp in plans["input+output"].summands]
        assert got == want

    def test_copies_walk_runs(self):
        # every pack/unpack copy whose innermost level is a plain loop (the
        # registry, and so the copies, are shared by all levels)
        runs = 0
        for name, kern in BUILTIN_KERNELS.items():
            plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
            for b in plan.registry.buffers:
                prog = b.index.lowered_copy(b.axes, b.id)[2] if b.layout == "compressed" else None
                if prog is not None and codegen._is_run_level(prog.levels[-1]):
                    assert walk_of(prog) == "run", (name, b.tensor)
                    runs += 1
        assert runs == 31

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("level", ["none", "input", "input+output"])
    @pytest.mark.parametrize("n,m", [(6, 5), (6, 8), (6, 13), (5, 2)])
    def test_ragged_rows(self, n, m, level, dtype, backend):
        plan = build_plan(parse_program(RAGGED), "A", level)
        assert walk_of(plan.summands[0].program) == "run"
        shapes = {"A": (n,), "B": (n, m), "C": (m,)}
        got, want = run_and_compare(RAGGED, "A", shapes, {"n": n, "m": m}, level, dtype=dtype,
                                    backend=backend)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_empty_after_rounding(self, workers, dtype, backend, monkeypatch):
        # j runs over [ceil(i/3), floor((i+1)/3)], which holds no integer when
        # i = 1 mod 3: the projection keeps those i, so their rows are empty.
        # Then a strided innermost level, walked point by point: j = 1 mod 3
        # in [i, n) holds none from i = 17 on when n = 19, and the projection
        # cannot see it past the mod constraint
        spaces = [
            ([ge(v("j") * 3 - v("i")), ge(v("i") + k(1) - v("j") * 3)],
             "run", 20, list(range(1, 20, 3))),
            ([ge(v("j") - v("i")), ge(v("n") - k(1) - v("j")), modeq(v("j"), 3, 1)],
             "point", 19, [17, 18]),
        ]
        for inner, walked, n, empty in spaces:
            space = Polyhedron.build(("i", "j"), ("n",), [
                ge(v("i")), ge(v("n") - k(1) - v("i")), *inner])
            nest = build_loop_nest(space)
            stmt = Statement(AccessPlan("A", 0, "dense", ("i",)), (
                AccessPlan("B", 1, "dense", ("i", "j")), AccessPlan("C", 2, "dense", ("j",))))
            plan = kernel_plan(nest, stmt, True)
            assert walk_of(plan.summands[0].program) == walked
            pts = enumerate_points(space, {"n": n})
            assert sorted(set(range(n)) - set(pts[:, 0].tolist())) == empty
            rng = np.random.default_rng(13)
            store = {t: rng.integers(-3, 4, n ** len(a.names)).astype(dtype)
                     for t, a in zip("BC", stmt.inputs)}
            shapes = {"A": (n,), "B": (n, n), "C": (n,)}
            want = np.zeros(n, dtype=dtype)
            np.add.at(want, pts[:, 0],
                      store["B"][pts[:, 0] * n + pts[:, 1]] * store["C"][pts[:, 1]])
            for _ in both_floors(monkeypatch):
                got = execute(plan, store, shapes, {"n": n}, workers=workers, dtype=dtype,
                              backend=backend).dense
                assert np.array_equal(got, want)
            assert codegen.dim_ranges(nest, {"n": n}) == {
                d: (int(pts[:, c].min()), int(pts[:, c].max())) for c, d in enumerate("ij")}

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("level", ["none", "input", "input+output"])
    def test_blocks_split_rows(self, level, dtype, monkeypatch):
        # on the NumPy walk at 7 points a block, SpMV_UT's rows of 12..8
        # points each take a block longer than BLOCK_POINTS, and the shorter
        # rows of one outer block are split between several; every point
        # is walked, in order
        monkeypatch.setattr(codegen, "BLOCK_POINTS", 7)
        blocks = record_blocks(monkeypatch)
        shapes = {"A": (12,), "B": (12, 12), "C": (12,)}
        got, want = run_and_compare(SPMV_UT, "A", shapes, {"n": 12}, level, dtype=dtype,
                                    backend="numpy")
        assert np.array_equal(got, want)
        assert [m for _, m in blocks] == [12, 11, 10, 9, 8, 7, 6, 5, 7, 3]
        # A's and C's indices are i and j at every level
        points = [(int(i), int(j)) for idx, _ in blocks for i, j in zip(idx[0], idx[2])]
        assert points == [(i, j) for i in range(12) for j in range(i, 12)]
        # a block longer than 7 points is one row: one value of i
        assert all(m <= 7 or len(set(idx[0].tolist())) == 1 for idx, m in blocks)

    @pytest.mark.parametrize("level", ["none", "input", "input+output"])
    def test_blocks_split_reduced_rows(self, level, monkeypatch):
        # MTT_J's output A(i, J) is fixed along k and l: at 7 points a
        # block its 9 points per i straddle blocks, each block's share
        # summed apart, and i64 sums still equal the reference's
        monkeypatch.setattr(codegen, "BLOCK_POINTS", 7)
        blocks = record_blocks(monkeypatch)
        kern = BUILTIN_KERNELS["MTT_J"]
        binding, shapes = builtin_case("MTT_J", 3)
        got, want = run_and_compare(kern.text, kern.rule, shapes, binding, level,
                                    backend="numpy")
        assert np.array_equal(got, want)
        assert sum(m for _, m in blocks) == 27
        assert any(a[0][-1] == b[0][0] for (a, _), (b, _) in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("n,w", [(7, 3), (9, 1), (4, 8)])
    def test_transposed_packed_step(self, n, w, dtype, backend):
        plan = build_plan(parse_program(BAND_BOTH_WAYS), "A", "input+output")
        sp = plan.summands[1]
        assert sp.statement.inputs[0].layout == "compressed"
        assert sp.program.run[1] == ((-1, ()), (1, (("w", 1),)))
        size = n + w - 1
        shapes = {"A": (size,), "B": (size, size), "C": (size,)}
        got, want = run_and_compare(BAND_BOTH_WAYS, "A", shapes, {"n": n, "w": w},
                                    "input+output", dtype=dtype, backend=backend)
        assert np.array_equal(got, want)

    def spmv_ut(self):
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
        assert walk_of(plan.summands[0].program) == "run"
        binding = {"n_i": 9, "n_j": 9}
        shapes = {"A": (9,), "B": (9, 9), "C": (9,)}
        store = pack_store(plan, shapes, {"B": np.ones(81), "C": np.ones(9)}, binding,
                           np.float64)
        return plan, store, shapes, binding

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_packed_input_raises(self, workers, backend, monkeypatch):
        # B's packed triangle one slot short: the last row's last index
        plan, store, shapes, binding = self.spmv_ut()
        b = plan.summands[0].statement.inputs[0].buffer_id
        store[b] = store[b][:-1]
        started = record_threads(monkeypatch)
        for _ in both_floors(monkeypatch):
            with pytest.raises(IndexingFault, match=f"buffer {b} of B$"):
                execute(plan, store, shapes, binding, workers=workers, backend=backend)
        # at floor 0 on C the call split, and every share's thread is done
        assert len(started) == (workers > 1 and backend == "c")
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shift,error", [(1, "non-integer index"),
                                             (-2, "index out of range for buffer")])
    def test_row_base_checked(self, shift, error, backend):
        # B's scaled rank moved by half a slot, or by one slot down: the
        # first row's base is no integer, or lies before the buffer; the C
        # is emitted again from the moved program
        plan, store, shapes, binding = self.spmv_ut()
        prog = plan.summands[0].program
        assert prog.leaves[1].scale == 2
        plan = moved_plan(plan, prog._replace(root={**prog.root,
                                                    1: prog.root[1] + ((shift, ()),)}))
        with pytest.raises(IndexingFault, match=error):
            execute(plan, store, shapes, binding, backend=backend)


# B is read through two buffers, one per access: the C names each
TWO_BUFFERS = """
A(i) := B(i, j) * B(j, i) * (i < j)
B_U(i, j) := (0 <= i < n) * (0 <= j < n)
"""

# a cubic rank with denominator 6, which a floating-point rank truncates
TETRAHEDRON = """
A(i) := B(i, j, k) * C(k)
B_U(i, j, k) := (0 <= i < n) * (i <= j < n) * (j <= k < n)
"""

# the mod constraint splits into the bands j - i = -7, -3, 1, 5: four buffers
BANDS = """
A(i, j) := B(i, j) * (0 <= i < 9) * (0 <= j < 9)
B_U(i, j) := ((j - i) % 4 = 1)
"""


class TestEmitC:
    def test_ranks_are_exact_integers(self):
        # FIG3's ranks have denominator 2: accumulated as 2*rank in int64_t
        # and divided exactly, never held in a double; values are ELEM, in
        # the summand's three arrays, the sums of the run over l (one line
        # for the rows of k jammed, one for a remainder row), then the two
        # arrays of the output's gather and of each input's pack
        plan = build_plan(parse_program(FIG3), "A", "input+output")
        text = emit_c(plan)
        assert "int64_t r0_0 = r0 + 2*N*P*i - P*i - P*i*i;" in text
        assert "if (r0_2 % 2) return 1;\n" in text
        assert "int64_t k0 = r0_2 / 2;" in text
        assert "(long)" not in text
        body = text.split("#endif", 1)[1]
        assert "double" not in body
        assert len(plan.packs) == 2
        assert re.findall(r"\bELEM\b\S*", body) == ["ELEM*"] * 3 + ["ELEM"] * 2 + ["ELEM*"] * 6

    def test_fixed_level_fragment(self):
        plan = build_plan(parse_program(DIAG_HADAMARD), "T", "input+output")
        text = emit_c(plan)
        assert "int64_t y = x;" in text

    def test_deterministic(self):
        a = emit_c(build_plan(parse_program(FIG3), "A", "input+output"))
        b = emit_c(build_plan(parse_program(FIG3), "A", "input+output"))
        assert a == b

    def test_loop_bound_fragment(self):
        plan = build_plan(parse_program(FIG3), "A", "input+output")
        text = emit_c(plan)
        # i, in A, is split into shares; j is not
        assert ("for (int64_t i = MAX2(0, share_lo); "
                "i <= MIN2(MIN2(-1 + M, -1 + N), share_hi); i++)") in text
        assert "for (int64_t j = i; j <= -1 + N; j++)" in text

    def test_non_unit_bound_rounds_in_c(self, tmp_path):
        plan = build_plan(parse_program(HALF_BOUND), "A", "input+output")
        assert "int64_t j_hi = FLOORD(i, 2);" in emit_c(plan)
        gcc = shutil.which("gcc") or shutil.which("cc")
        if gcc is None:
            pytest.skip("no C compiler")
        src = tmp_path / "round.c"
        src.write_text("\n".join(codegen._C_PRELUDE) + """
#include <stdio.h>
int main(void) {
  for (long a = -9; a <= 9; a++)
    for (long k = 1; k <= 4; k++)
      printf("%ld %ld\\n", FLOORD(a, k), CEILD(a, k));
  return 0;
}
""")
        exe = tmp_path / "round"
        subprocess.run([gcc, "-o", str(exe), str(src)], check=True)
        out = subprocess.run([str(exe)], check=True, capture_output=True, text=True)
        want = [f"{a // k} {-(-a // k)}" for a in range(-9, 10) for k in range(1, 5)]
        assert out.stdout.splitlines() == want

    def test_empty_summand_function_body(self):
        nest = LoopNest(("i",), (), (), (), empty=True)
        stmt = Statement(AccessPlan("A", 0, "dense", ("i",)), ())
        src = "\n".join(codegen._emit_c_summand("a_s0", nest.params, stmt, None, False))
        plan = KernelPlan("A", (SummandPlan(nest, stmt, False, src),), None, "none")
        text = emit_c(plan)
        assert "int a_s0" in text
        body = text.split("int a_s0", 1)[1]
        assert body.split("{", 1)[1].split() == ["return", "0;", "}"]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_b1", [2, 6])
    def test_dense_extent_checked_per_row(self, n_b1, backend):
        # j runs to n_j - 1 = 5 over B's second axis: past an extent of 2
        # both backends raise the same fault; the C checks each row's range
        # before the loop that reads it, so it never reads past B: every
        # row of a jammed group before the group's first loop over j, and
        # the remainder's row before its own
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "none")
        group, rest = plan.summands[0].source.split("for (int64_t i = i_j;")
        for part, rows in ((group, [f"_{u}" for u in range(codegen.JAM)]), (rest, [""])):
            for u in rows:
                assert part.index(f"if (j_lo{u} < 0 || j_hi >= n_B1) return ") \
                    < part.index("for (int64_t j")
        store = {"B": np.ones(6 * n_b1), "C": np.ones(6)}
        shapes = {"A": (6,), "B": (6, n_b1), "C": (6,)}
        if n_b1 == 2:
            with pytest.raises(IndexingFault, match="an index of B leaves its dense extent"):
                execute(plan, store, shapes, {"n_i": 6, "n_j": 6}, backend=backend)
        else:
            got = execute(plan, store, shapes, {"n_i": 6, "n_j": 6}, backend=backend).dense
            assert got.tolist() == [6, 5, 4, 3, 2, 1]

    def test_operands_named_after_their_buffers(self):
        plan = build_plan(parse_program(TWO_BUFFERS), "A", "input")
        ins = plan.summands[0].statement.inputs
        assert [(a.tensor, a.layout) for a in ins] == [("B", "compressed")] * 2
        b1, b2 = (a.buffer_id for a in ins)
        assert b1 != b2
        source = plan.summands[0].source
        assert f"const ELEM* B_{b1}, const ELEM* B_{b2}," in source
        assert f"sum += B_{b1}[k1 + j - j_lo] * B_{b2}[k2 + j - j_lo];" in source

    def test_run_level_checks_once_per_row(self):
        # SpMV_UT packed: every check and the exact division sit before the
        # row's loop, which reads base + (j - lo) and sums into one local;
        # a jammed group's rows make theirs before the group's first loop
        plan = build_plan(parse_program(BUILTIN_KERNELS["SpMV_UT"].text), "A", "input+output")
        source = plan.summands[0].source
        assert "if (MIN2" not in source   # a positive constant step: first and last in order
        group, rest = source.split("for (int64_t i = i_j;")
        before, after = group.split("for (int64_t j", 1)
        assert before.count("return") == 4 * codegen.JAM and "return" not in after
        last = codegen.JAM - 1
        assert f"if (k1_{last} < 0 || k1_{last}_hi >= len1) return 3;" in before
        loop = "for (int64_t j = j_lo; j <= j_hi; j++) sum += B_1[k1 + j - j_lo] * C_2[k2 + j - j_lo];"
        before, after = rest.split(loop)
        assert before.count("return") == 4 and "return" not in after.replace("return 0;", "")
        assert "if (k1 < 0 || k1_hi >= len1) return 3;" in before
        assert after.split("\n")[1].strip() == "A_0[k0] += sum;"


@needs_gcc
class TestEmitCMatchesReference:
    """`execute(backend="c")`, which runs every summand on C, against the
    dense reference, on f64 and bitwise on i64."""

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_builtin(self, name, dtype):
        kern = BUILTIN_KERNELS[name]
        program = parse_program(kern.text)
        binding = {s: 11 if s.startswith("n_") else v for s, v in kern.defaults.items()}
        shapes = {t: tuple(binding[s] for s in syms) for t, syms in kern.shapes.items()}
        for level in LEVELS:
            got, want = run_and_compare(program, kern.rule, shapes, binding, level,
                                        dtype=dtype, backend="c")
            assert np.array_equal(got, want), level

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_tetrahedron(self, dtype):
        # i*i*i/6 and its kin: 112 of the 200 outputs were wrong when the
        # rank was a truncated double
        shapes = {"A": (200,), "B": (200,) * 3, "C": (200,)}
        got, want = run_and_compare(TETRAHEDRON, "A", shapes, {"n": 200}, "input",
                                    dtype=dtype, backend="c")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("text,shapes,binding", [
        (LESLIE, {"A": (7,), "B": (7, 6), "C": (6,)}, {"n_i": 7, "n_j": 6}),
        (BANDS, {"A": (9, 9), "B": (9, 9)}, {}),
        (BANDED, {"A": (9,), "B": (9, 9)}, {"n": 9}),
        (HALF_BOUND, {"A": (13,), "B": (13, 13)}, {"n": 13}),
        (THIRD_GUARD, {"A": (13,), "B": (13, 6)}, {"n": 13, "m": 6}),
        (STRIDED_BOX, {"A": (6, 6), "B": (6, 4, 6), "C": (4,)}, {"n": 6, "m": 4}),
        (TWO_BUFFERS, {"A": (9,), "B": (9, 9)}, {"n": 9}),
    ], ids=["leslie", "bands", "banded", "half_bound", "third_guard",
            "strided_box", "two_buffers"])
    def test_rule(self, text, shapes, binding, level, dtype):
        got, want = run_and_compare(text, "A", shapes, binding, level,
                                    dtype=dtype, backend="c")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("level", LEVELS)
    def test_backends_agree_bitwise(self, level):
        # every builtin on i64 at its default binding: the same outputs,
        # bit for bit, from every backend, each reporting where it ran
        for name in sorted(BUILTIN_KERNELS):
            run = default_run(name, level)
            numpy = execute(*run, dtype=np.int64, backend="numpy")
            assert numpy.backends == {"numpy"}, name
            c = execute(*run, dtype=np.int64, backend="c")
            assert same_result(c, numpy) and c.backends == {"c"}, name
            default = execute(*run, dtype=np.int64)
            assert same_result(default, numpy) and default.backends == {"c"}, name

    @pytest.mark.parametrize("elem", ["double", "int64_t"])
    def test_emitted_c_compiles_without_warnings(self, elem, tmp_path):
        # every builtin at every level, the tetrahedron and the rule cases
        # above, built as the backend builds them with warnings as errors
        texts = [build_plan(parse_program(BUILTIN_KERNELS[name].text),
                            BUILTIN_KERNELS[name].rule, level).c_text
                 for name in sorted(BUILTIN_KERNELS) for level in LEVELS]
        texts += [build_plan(parse_program(text), "A", level).c_text
                  for text in (TETRAHEDRON, LESLIE, BANDS, BANDED, HALF_BOUND, THIRD_GUARD,
                               STRIDED_BOX, TWO_BUFFERS) for level in LEVELS]
        # the packed levels' texts hold each compressed output's gather
        assert sum(len(re.findall(r"^int \w+_g\d+\(", t, re.M)) for t in texts) >= 12
        files = []
        for i, text in enumerate(dict.fromkeys(texts)):
            files.append(tmp_path / f"k{i}.c")
            files[-1].write_text(text)
        flags = [f for f in native.FLAGS if f not in ("-shared", "-fPIC")]
        done = subprocess.run([GCC, *flags, "-Wall", "-Werror", "-Wno-unused-variable",
                               f"-DELEM={elem}", "-c", *map(str, files)],
                              cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_other_dtypes_walk_numpy(self, monkeypatch):
        # float32 has no C build: it runs on the NumPy walk, also for "c"
        real = codegen._run

        def no_c(sp, lib, *args):
            if lib is not None:
                raise AssertionError("a C function was called")
            return real(sp, lib, *args)
        plan, store, shapes, binding = default_run("SpMV_UT", "input+output", dtype=np.float32)
        want = execute(plan, store, shapes, binding, dtype=np.float32, backend="numpy")
        monkeypatch.setattr(codegen, "_run", no_c)
        assert same_result(execute(plan, store, shapes, binding, dtype=np.float32,
                                   backend="c"), want)


class TestLibraryCache:
    """Where the C backend finds a compiler and keeps its libraries."""

    @pytest.fixture
    def fresh(self, tmp_path, monkeypatch):
        """An empty cache directory, an empty temp directory and no library
        loaded in this process; (plan, run, numpy result) of SpMV_UT."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(native, "_LOADED", {})
        run = default_run("SpMV_UT", "input+output")
        return run, execute(*run, dtype=np.int64, backend="numpy")

    def calls_c(self, monkeypatch):
        """Record each run on C; returns the list."""
        calls, real = [], codegen._run

        def counted(sp, lib, *args):
            if lib is not None:
                calls.append((sp, lib, *args))
            return real(sp, lib, *args)
        monkeypatch.setattr(codegen, "_run", counted)
        return calls

    def test_no_compiler_default_walks_numpy(self, fresh, tmp_path, monkeypatch):
        run, want = fresh
        monkeypatch.setenv("PATH", str(tmp_path))   # no gcc there
        calls = self.calls_c(monkeypatch)
        assert same_result(execute(*run, dtype=np.int64), want)
        assert calls == [] and native._LOADED == {}

    def test_no_compiler_backend_c_raises(self, fresh, tmp_path, monkeypatch):
        run, _ = fresh
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(CodegenError, match="gcc is not on PATH"):
            execute(*run, dtype=np.int64, backend="c")

    def test_unknown_backend_raises(self, fresh):
        run, _ = fresh
        with pytest.raises(CodegenError, match="unknown backend 'fortran'"):
            execute(*run, dtype=np.int64, backend="fortran")

    def test_no_user_id_walks_numpy(self, fresh, monkeypatch):
        # where os has no getuid (Windows) no directory can be checked to
        # be ours: nothing is built, the default walks and backend "c"
        # raises
        monkeypatch.delattr(os, "getuid")
        kern = BUILTIN_KERNELS["SpMV_UT"]
        binding, shapes = builtin_case("SpMV_UT", 8)
        plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
        dense = seeded(shapes, kern.rule, np.int64)
        store = pack_store(plan, shapes, dense, binding, np.int64)
        got = execute(plan, store, shapes, binding, dtype=np.int64)
        assert got.backends == {"numpy"}
        assert np.array_equal(unpack_output(plan, got, shapes, binding, kern.rule, np.int64),
                              reference_execute(parse_program(kern.text), kern.rule, shapes,
                                                dense, binding, dtype=np.int64))
        if GCC:
            with pytest.raises(CodegenError, match="os.getuid is missing"):
                execute(plan, store, shapes, binding, dtype=np.int64, backend="c")

    @needs_gcc
    def test_built_once_then_loaded_from_disk(self, fresh, tmp_path, monkeypatch):
        run, want = fresh
        calls = self.calls_c(monkeypatch)
        assert same_result(execute(*run, dtype=np.int64), want)
        assert len(calls) == 1
        cache = tmp_path / "cache" / "polypack"
        assert sorted(p.suffix for p in cache.iterdir()) == [".c", ".so"]
        c_file, = cache.glob("*.c")
        assert c_file.read_text() == run[0].c_text
        # a new process: no gcc run, the stored library is loaded
        monkeypatch.setattr(native, "_LOADED", {})
        monkeypatch.setattr(subprocess, "run", lambda *a, **k: pytest.fail("gcc ran"))
        assert same_result(execute(*run, dtype=np.int64), want)
        assert len(calls) == 2

    @needs_gcc
    def test_stored_text_must_match(self, fresh, tmp_path, monkeypatch):
        # a stored .c that differs from the text is not trusted: rebuilt
        run, want = fresh
        execute(*run, dtype=np.int64)
        c_file, = (tmp_path / "cache" / "polypack").glob("*.c")
        c_file.write_text("/* some other text */\n")
        monkeypatch.setattr(native, "_LOADED", {})
        assert same_result(execute(*run, dtype=np.int64, backend="c"), want)
        assert c_file.read_text() == run[0].c_text

    @needs_gcc
    def test_unwritable_cache_uses_temp_dir(self, fresh, tmp_path, monkeypatch):
        run, want = fresh
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
        calls = self.calls_c(monkeypatch)
        assert same_result(execute(*run, dtype=np.int64), want)
        assert len(calls) == 1
        temp = tmp_path / "tmp" / f"polypack-{os.getuid()}"
        assert sorted(p.suffix for p in temp.iterdir()) == [".c", ".so"]

    @pytest.mark.parametrize("name,var", [("j", "sum"), ("i", "r0"), ("j", "k1"),
                                          ("i", "j_lo"), ("i", "share_lo")])
    def test_clashing_names_do_not_build(self, name, var, fresh):
        # SpMV_UT with a var renamed to a local the emitter declares:
        # shadowed, the C would compute something else (a run var `sum`
        # overwrote the row's sum and read past B), so it must not build;
        # the default walks NumPy instead
        plan = build_plan(parse_program(SPMV_UT.replace(name, var)), "A", "input+output")
        assert "#error names of the rule clash with names the emitter declares: " \
            + var in plan.c_text
        shapes, binding = {"A": (9,), "B": (9, 9), "C": (9,)}, {"n": 9}
        rng = np.random.default_rng(5)
        dense = {t: rng.integers(-3, 4, int(np.prod(shapes[t]))) for t in "BC"}
        store = pack_store(plan, shapes, dense, binding, np.int64)
        want = execute(plan, store, shapes, binding, dtype=np.int64, backend="numpy")
        got = execute(plan, store, shapes, binding, dtype=np.int64)
        assert same_result(got, want) and got.backends == {"numpy"}
        if GCC:
            with pytest.raises(CodegenError, match=f"emitter declares: {var}"):
                execute(plan, store, shapes, binding, dtype=np.int64, backend="c")

    def test_parameter_named_like_an_argument(self, fresh):
        # a parameter len1 beside buffer 1's length argument len1: both are
        # declared, so the clash shows; merged, one int64_t len1 held the
        # parameter (9), not B's length (45), and C raised a false fault
        text = "A(i) := B(i, j) * C(j)\nB_U(i, j) := (0 <= i < len1) * (i <= j < len1)\n"
        plan = build_plan(parse_program(text), "A", "input+output")
        assert plan.summands[0].source.count("int64_t len1") == 2
        assert "#error names of the rule clash with names the emitter declares: len1" \
            in plan.c_text
        shapes, binding = {"A": (9,), "B": (9, 9), "C": (9,)}, {"len1": 9}
        rng = np.random.default_rng(5)
        dense = {t: rng.integers(-3, 4, int(np.prod(shapes[t]))) for t in "BC"}
        store = pack_store(plan, shapes, dense, binding, np.int64)
        want = execute(plan, store, shapes, binding, dtype=np.int64, backend="numpy")
        got = execute(plan, store, shapes, binding, dtype=np.int64)
        assert same_result(got, want) and got.backends == {"numpy"}
        if GCC:
            with pytest.raises(CodegenError, match="emitter declares: len1"):
                execute(plan, store, shapes, binding, dtype=np.int64, backend="c")

    @needs_gcc
    def test_no_usable_directory(self, fresh, tmp_path, monkeypatch):
        run, want = fresh
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "file" / "tmp"))
        calls = self.calls_c(monkeypatch)
        assert same_result(execute(*run, dtype=np.int64), want)
        assert calls == []
        with pytest.raises(CodegenError, match="no writable directory"):
            execute(*run, dtype=np.int64, backend="c")


# the builtins whose reducing run is jammed
JAMMED = ("MTT_J", "MTT_JUT", "SpMV_UT", "TTM_DP", "TTM_J", "TTM_UT")


def spmv_ut_case(n_i, n_j):
    """SpMV_UT's (text, binding, shapes) at extents n_i and n_j."""
    return BUILTIN_KERNELS["SpMV_UT"].text, {"n_i": n_i, "n_j": n_j}, \
        {"A": (n_i,), "B": (n_i, n_j), "C": (n_j,)}


def mv_case(mask, n):
    """The (text, binding, shapes) of y = B x over the mask's region of B, at N = n."""
    return "A(i) := B(i, j) * C(j)\n" + mask, {"N": n}, {"A": (n,), "B": (n, n), "C": (n,)}


def fig3_case(p):
    """FIG3's (text, binding, shapes) with P = p values of its jammed k."""
    return FIG3, {"M": 3, "N": 4, "P": p, "Q": 5}, {"A": (3, 4, p), "B": (3, 4, 5), "C": (p, 5)}


# (text, binding, shapes) of y = B x where the bounds of row i's run over j
# read i, so that jammed rows differ in range: SpMV_UT's starts at i (a
# front peel per row), SUBTRI's at MAX2(0, i + N - k), the lower
# triangle's ends at i (a back peel; at N = 12 its last row, the only one
# to read C's last value, is in a group), the band's moves at both ends,
# and the bidiagonal band's rows share no range, so that its groups give
# way to the remainder at once
TRIANGLES = {
    **{f"SpMV_UT-{a}x{b}": spmv_ut_case(a, b) for a, b in (
        (1, 1), (3, 3), (codegen.JAM, codegen.JAM), (codegen.JAM + 1, codegen.JAM + 1),
        (13, 13), (6, 11), (11, 6))},
    "SUBTRI": (SUBTRI, {"N": 13, "k": 16}, {"A": (13,), "B": (13, 13), "C": (13,)}),
    "lower": mv_case("B_U(i, j) := (0 <= i < N) * (0 <= j <= i)\n", 12),
    "band": mv_case("B_U(i, j) := (0 <= i < N) * (0 <= j < N) * (i - 2 <= j <= i + 2)\n", 13),
    "bidiagonal": mv_case("B_U(i, j) := (0 <= i < N) * (0 <= j < N) * (i <= j <= i + 1)\n", 13),
}


def jammed_vars(plan):
    """Per summand, the var of the level its C jams (`codegen.jam_level`), or None."""
    return [getattr(codegen.jam_level(sp.program, sp.into), "var", None) for sp in plan.summands]


def unjammed_plan(monkeypatch, text, rule, level):
    """The plan of a rule built with no level jammed: every reducing run's
    C one row at a time, as it was before the jam."""
    with monkeypatch.context() as m:
        m.setattr(codegen, "jam_level", lambda prog, into=None: None)
        return build_plan(parse_program(text), rule, level)


def builtin_case(name, size):
    """A builtin's binding and shapes with every extent at `size`."""
    kern = BUILTIN_KERNELS[name]
    binding = {s: size if s.startswith("n_") else v for s, v in kern.defaults.items()}
    return binding, {t: tuple(binding[s] for s in syms) for t, syms in kern.shapes.items()}


def seeded(shapes, rule, dtype, uniform=False):
    """Dense inputs: small integers, whose sums are exact in any order, or
    uniform values in [-1, 1), whose last bits show the order of the adds."""
    rng = np.random.default_rng(7)
    return {t: (rng.uniform(-1, 1, n) if uniform else rng.integers(-3, 4, n)).astype(dtype)
            for t, n in ((t, int(np.prod(s))) for t, s in shapes.items() if t != rule)}


def run_on(plan, backend, shapes, dense, binding, dtype, **kw):
    return execute(plan, pack_store(plan, shapes, dense, binding, dtype), shapes, binding,
                   dtype=dtype, backend=backend, **kw)


@needs_gcc
class TestJam:
    """Rows of the loop just outside a reducing run jammed by `codegen.JAM`
    over one pass of the run: each output value still sums its terms in the
    order of the rows one at a time, so the C is bitwise the walk's on
    exact sums and the unjammed C's on any."""

    def test_which_summands_jam(self):
        # the six builtins whose run reduces under a plain loop jam it at
        # every level, SpMV_UT's i though its run starts at i; nothing else
        # reduces
        for name in sorted(BUILTIN_KERNELS):
            kern = BUILTIN_KERNELS[name]
            for level in LEVELS:
                plan = build_plan(parse_program(kern.text), kern.rule, level)
                want = ["i" if name == "SpMV_UT" else "k"] if name in JAMMED \
                    else [None] * len(plan.summands)
                assert jammed_vars(plan) == want, (name, level)
                assert ("sum_0" in plan.c_text) == (name in JAMMED), (name, level)
        # copies assign and never jam
        plan = build_plan(parse_program(BUILTIN_KERNELS["TTM_UT"].text), "A", "input+output")
        assert all(codegen.jam_level(sp.program, sp.into) is None
                   for sp in (*plan.gathers.values(), *plan.packs.values()))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", JAMMED)
    def test_builtin_matches_walk(self, name, level, dtype):
        # extents of 11: two groups of k and a remainder of three
        binding, shapes = builtin_case(name, 11)
        plan = build_plan(parse_program(BUILTIN_KERNELS[name].text), BUILTIN_KERNELS[name].rule, level)
        dense = seeded(shapes, plan.rule, dtype)
        got = run_on(plan, "c", shapes, dense, binding, dtype)
        assert got.backends == {"c"}
        assert same_result(got, run_on(plan, "numpy", shapes, dense, binding, dtype))

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", JAMMED)
    def test_builtin_bitwise_as_unjammed(self, name, level, monkeypatch):
        # random f64, where a change in the order of the adds would show
        binding, shapes = builtin_case(name, 11)
        kern = BUILTIN_KERNELS[name]
        plans = (build_plan(parse_program(kern.text), kern.rule, level),
                 unjammed_plan(monkeypatch, kern.text, kern.rule, level))
        assert "sum_0" in plans[0].c_text and "sum_0" not in plans[1].c_text
        dense = seeded(shapes, kern.rule, np.float64, uniform=True)
        assert same_result(*(run_on(p, "c", shapes, dense, binding, np.float64) for p in plans))

    @pytest.mark.parametrize("p", [1, 3, codegen.JAM, codegen.JAM + 1, 13])
    @pytest.mark.parametrize("level", LEVELS)
    def test_jammed_extents(self, p, level, monkeypatch):
        # FIG3 jams k over P values: no group, one group exactly, groups
        # and a remainder; the walk's output on exact sums (f64 and i64),
        # the unjammed C's on random f64
        _, binding, shapes = fig3_case(p)
        plan = build_plan(parse_program(FIG3), "A", level)
        assert jammed_vars(plan) == ["k"]
        for dtype in (np.float64, np.int64):
            dense = seeded(shapes, "A", dtype)
            assert same_result(run_on(plan, "c", shapes, dense, binding, dtype),
                               run_on(plan, "numpy", shapes, dense, binding, dtype))
        dense = seeded(shapes, "A", np.float64, uniform=True)
        assert same_result(run_on(plan, "c", shapes, dense, binding, np.float64),
                           run_on(unjammed_plan(monkeypatch, FIG3, "A", level), "c", shapes,
                                  dense, binding, np.float64))

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", JAMMED)
    def test_shares_bitwise_as_one(self, name, level, monkeypatch):
        # at floor 0, workers=2 splits the outermost level on threads and
        # gives workers=1's output bit for bit, on random f64
        binding, shapes = builtin_case(name, 11)
        plan = build_plan(parse_program(BUILTIN_KERNELS[name].text), BUILTIN_KERNELS[name].rule, level)
        dense = seeded(shapes, plan.rule, np.float64, uniform=True)
        want = run_on(plan, "c", shapes, dense, binding, np.float64)
        no_floor(monkeypatch)
        started = record_threads(monkeypatch)
        got = run_on(plan, "c", shapes, dense, binding, np.float64, workers=2)
        assert started and same_result(got, want)

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("case", TRIANGLES)
    def test_triangle_bitwise(self, case, level, monkeypatch):
        # rows whose runs differ in range: the jammed C gives the walk's
        # output on exact i64 sums, and the unjammed C's and its own at
        # workers=1 bit for bit on random f64 when workers=2 splits it
        text, binding, shapes = TRIANGLES[case]
        plan = build_plan(parse_program(text), "A", level)
        # elsewhere B's rank has pieces, so the run is not one
        if level == "none" or case.startswith("SpMV_UT") or case == "lower":
            assert jammed_vars(plan) == ["i"] and "sum_0" in plan.c_text
        dense = seeded(shapes, "A", np.int64)
        got = run_on(plan, "c", shapes, dense, binding, np.int64)
        assert got.backends == {"c"}
        assert same_result(got, run_on(plan, "numpy", shapes, dense, binding, np.int64))
        dense = seeded(shapes, "A", np.float64, uniform=True)
        want = run_on(plan, "c", shapes, dense, binding, np.float64)
        assert same_result(want, run_on(unjammed_plan(monkeypatch, text, "A", level), "c",
                                        shapes, dense, binding, np.float64))
        no_floor(monkeypatch)
        started = record_threads(monkeypatch)
        got = run_on(plan, "c", shapes, dense, binding, np.float64, workers=2)
        assert same_result(got, want)
        assert started or case == "SpMV_UT-1x1"   # one row cannot split

    @pytest.mark.parametrize("fault,tensor", [("short", "B"), ("short", "C"), ("extent", "C")])
    @pytest.mark.parametrize("case", [f"FIG3-{codegen.JAM}", f"FIG3-{codegen.JAM + 1}", *TRIANGLES])
    def test_faults_as_unjammed(self, case, fault, tensor, monkeypatch):
        # a packed buffer one value short, or C's dense shape one row short,
        # on FIG3 jammed over P = JAM or JAM + 1 values of k and on the triangles:
        # the jammed C, the unjammed C and the walk raise the same
        # IndexingFault
        text, binding, shapes = TRIANGLES.get(case) or fig3_case(int(case[5:]))
        level = "none" if fault == "extent" else "input+output"
        shapes = dict(shapes, C=(shapes["C"][0] - (fault == "extent"), *shapes["C"][1:]))
        dense = seeded(shapes, "A", np.int64)
        plans = (build_plan(parse_program(text), "A", level),
                 unjammed_plan(monkeypatch, text, "A", level))
        messages = []
        for plan, backend in ((plans[0], "c"), (plans[1], "c"), (plans[0], "numpy")):
            store = pack_store(plan, shapes, dense, binding, np.int64)
            if fault == "short":
                a = plan.summands[0].statement.inputs["BC".index(tensor)]
                assert a.layout == "compressed"
                store[a.buffer_id] = store[a.buffer_id][:-1]
            with pytest.raises(IndexingFault) as err:
                execute(plan, store, shapes, binding, dtype=np.int64, backend=backend)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]
        assert f" {tensor} " in messages[0] or messages[0].endswith(f" {tensor}")

    @pytest.mark.parametrize("case,name,var", [
        ("FIG3", "k", "sum_0"), ("FIG3", "l", "sum_3"), ("FIG3", "i", "k_j"),
        ("SpMV_UT-6x11", "n_j", "j_lo_3"), ("SpMV_UT-6x11", "n_i", "j_lo"),
        ("SpMV_UT-6x11", "n_i", "i_2"), ("lower", "N", "j_hi_1")])
    def test_clashing_names_do_not_build(self, case, name, var):
        # a name of the rule renamed to a local of the jammed group (a row's
        # sum, var or own range end, the group's first k or common range):
        # the C must not build, and the default walks NumPy instead
        text, binding, shapes = TRIANGLES.get(case) or fig3_case(6)
        text = re.sub(rf"\b{name}\b", var, text)
        binding = {var if s == name else s: n for s, n in binding.items()}
        plan = build_plan(parse_program(text), "A", "input+output")
        assert "#error names of the rule clash with names the emitter declares: " \
            + var + "\n" in plan.c_text
        dense = seeded(shapes, "A", np.int64)
        want = run_on(plan, "numpy", shapes, dense, binding, np.int64)
        got = run_on(plan, None, shapes, dense, binding, np.int64)
        assert same_result(got, want) and got.backends == {"numpy"}
        with pytest.raises(CodegenError, match=f"emitter declares: {var}"):
            run_on(plan, "c", shapes, dense, binding, np.int64)
