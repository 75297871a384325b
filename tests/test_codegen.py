"""Loop nest, execution, and C emission tests.

The ground truth throughout is the enumeration oracle: nests must visit
exactly the enumerated points in order, and compressed execution must
reproduce the dense reference result built by direct gather/accumulate.
"""

import numpy as np
import pytest

from polypack.cli import BUILTIN_KERNELS
from polypack.codegen import (
    BLOCK_POINTS, IndexingFault, KernelPlan, LoopNest, SummandPlan, Statement,
    AccessPlan, build_loop_nest, build_plan, emit_c, execute, iter_point_chunks,
    reference_execute,
)
from polypack.indexing import build_registry
from polypack.polyhedra import (
    AffineExpr, Polyhedron, UnboundedError, enumerate_points, eq, ge,
    iteration_space, modeq,
)
from polypack.stur import build_compressed_summands, parse_program


def v(name):
    return AffineExpr.var(name)


def k(c):
    return AffineExpr.constant(c)


FIG3 = """
A(i, j, k) := B(i, j, l) * C(k, l) * (0 <= i < M) * (0 <= k < P)
B_U(i, j, l) := (0 <= l) * (Q > l) * (i <= j) * (N > j) * (0 <= i)
"""

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


def space_of(text, rule="A", idx=0):
    s = build_compressed_summands(parse_program(text), rule)[idx]
    return iteration_space(s)


def walk(nest, binding):
    """The nest's points as tuples, chunks concatenated in yield order."""
    return [tuple(p) for c in iter_point_chunks(nest, binding) for p in c.tolist()]


def oracle(space, binding):
    return [tuple(p) for p in enumerate_points(space, binding).tolist()]


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


def run_and_compare(text, rule, shapes, binding, compression, workers=1,
                    dtype=np.int64, seed=0):
    program = parse_program(text)
    plan = build_plan(program, rule, compression)
    rng = np.random.default_rng(seed)
    dense = {}
    tensors = {a.tensor for sp in plan.summands for a in sp.statement.inputs}
    for t in tensors:
        n = int(np.prod(shapes[t], dtype=np.int64))
        vals = rng.integers(-3, 4, size=n)
        dense[t] = vals.astype(dtype)
    store = pack_store(plan, shapes, dense, binding, dtype)
    res = execute(plan, store, shapes, binding, workers=workers, dtype=dtype)
    got = unpack_output(plan, res, shapes, binding, rule, dtype)
    want = reference_execute(program, rule, shapes, dense, binding, dtype=dtype)
    return got, want


class TestLoopNest:
    def test_prism_levels(self):
        nest = build_loop_nest(space_of(FIG3))
        assert [lv.var for lv in nest.levels] == ["i", "j", "k", "l"]
        i = nest.levels[0]
        assert i.kind == "loop"
        assert {str(e) for e in i.uppers} == {"M - 1", "N - 1"}
        j = nest.levels[1]
        assert [str(e) for e in j.lowers] == ["i"]
        assert [str(e) for e in j.uppers] == ["N - 1"]

    def test_diagonal_fixed_level(self):
        nest = build_loop_nest(space_of(SPMV_D))
        assert nest.levels[0].kind == "loop"
        assert nest.levels[1].kind == "fixed"
        assert str(nest.levels[1].expr) == "i"

    def test_leslie_degenerate_level(self):
        nest = build_loop_nest(space_of(LESLIE, idx=0))
        assert nest.levels[0].kind == "fixed"
        assert str(nest.levels[0].expr) == "0"
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
    def test_workers_bitwise_identical(self, workers):
        shapes = {"A": (9,), "B": (9, 9), "C": (9,)}
        seq, _ = run_and_compare(SPMV_UT, "A", shapes, {"n": 9}, "input+output",
                                 workers=1)
        par, want = run_and_compare(SPMV_UT, "A", shapes, {"n": 9},
                                    "input+output", workers=workers)
        assert np.array_equal(seq, par)
        assert np.array_equal(par, want)

    def test_indexing_fault_on_short_buffer(self):
        program = parse_program(SPMV_D)
        plan = build_plan(program, "A", "input+output")
        shapes = {"A": (3,), "B": (3, 3), "C": (3,)}
        binding = {"n_i": 3}
        dense = {"B": np.ones(9), "C": np.ones(3)}
        store = pack_store(plan, shapes, dense, binding, np.float64)
        sp = plan.summands[0]
        out = np.zeros(3)
        bad_lengths = {b.id: 1 for b in plan.registry.buffers
                       if b.layout == "compressed"}
        with pytest.raises(IndexingFault):
            sp.fn(out, store, shapes, bad_lengths,
                  {"n_i": 3}, -(1 << 62), 1 << 62)

    def test_all_empty_summands(self):
        text = "A(i) := B(i) * (0 <= i < n) * (i >= 5) * (i <= 3)"
        program = parse_program(text)
        plan = build_plan(program, "A", "input+output")
        res = execute(plan, {}, {"A": (4,)}, {"n": 4})
        assert res.dense is None and res.compressed == {}


class TestEmitC:
    def test_hoisted_constant_fragment(self):
        plan = build_plan(parse_program(FIG3), "A", "input+output")
        text = emit_c(plan)
        assert "(( -0.5 + N)*Q)" in text
        assert "/* hoisted */" in text

    def test_fixed_level_fragment(self):
        plan = build_plan(parse_program(DIAG_HADAMARD), "T", "input+output")
        text = emit_c(plan)
        assert "int y = x;" in text

    def test_deterministic(self):
        a = emit_c(build_plan(parse_program(FIG3), "A", "input+output"))
        b = emit_c(build_plan(parse_program(FIG3), "A", "input+output"))
        assert a == b

    def test_loop_bound_fragment(self):
        plan = build_plan(parse_program(FIG3), "A", "input+output")
        text = emit_c(plan)
        assert "for (int i = (0); i <= MIN2((M - 1), (N - 1)); i++)" in text
        assert "for (int j = (i); j <= (N - 1); j++)" in text

    def test_empty_summand_function_body(self):
        nest = LoopNest(("i",), (), (), (), empty=True)
        out = AccessPlan("A", "out", 0, "dense", ("i",))
        plan = KernelPlan(
            "A", (SummandPlan(nest, Statement(out, ()), False),), None, "none")
        text = emit_c(plan)
        assert "void a_s0" in text
        body = text.split("void a_s0", 1)[1]
        assert body.split("{", 1)[1].strip().startswith("}")
