"""Dense <-> compressed movement, redundancy expansion, footprint math."""

import numpy as np
import pytest
from dataclasses import replace

from polypack.codegen import IndexingFault, build_plan, execute, reference_execute
from polypack.counting import DomainError, pqp_constant
from polypack.indexing import symbolic_indexing
from polypack.polyhedra import AccessMap, iteration_space
from polypack.runtime import (
    CompressedBuffer, DenseTensor, build_store, footprint_report,
    gather_output, pack, random_tensor, unpack,
)
from polypack.stur import build_compressed_summands, parse_program

LOWER = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (0 <= j <= i)
"""

DIAG = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (i = j)
"""

PRISM = """
A(i, j) := B(i, j, l) * C(j, l)
B_U(i, j, l) := (0 <= i < M) * (i <= j < N) * (0 <= l < Q)
"""

SYMMETRIC = """
A(x, y) := V(x, y) * (0 <= x < n)
V_U(x, y) := (0 <= y < n) * (y <= x)
V_R(x, y, x', y') := (x < y) * (x' = y) * (y' = x)
"""

LESLIE = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (i = 0) * (0 <= j < n_j) + (1 <= i < n_i) * (j = i - 1)
"""

SPMV_D = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (0 <= i < n_i) * (i = j)
"""

HIGH_BAND = """
A(i) := B(i)
B_U(i) := (5 <= i) * (i < n)
"""


def findex(text, tensor, rule="A", which=0):
    s = build_compressed_summands(parse_program(text), rule)[which]
    space = iteration_space(s)
    acc = [a for a in s.inputs if a.tensor == tensor][0]
    amap = AccessMap.from_indices(space.dims, acc.index_names)
    return symbolic_indexing(space, amap, tensor)


class TestPack:
    def test_lower_triangle_golden(self):
        # [DERIVED] lex scan of {j <= i} over [[1..9]] keeps 1,4,5,7,8,9
        f = findex(LOWER, "B")
        t = DenseTensor.from_array(np.arange(1, 10).reshape(3, 3))
        buf = pack(t, f, {"n": 3})
        assert buf.data.tolist() == [1, 4, 5, 7, 8, 9]
        assert buf.length == 6

    def test_diag_golden(self):
        f = findex(DIAG, "B")
        buf = pack(DenseTensor.from_array(np.diag([1, 2, 3])), f, {"n": 3})
        assert buf.data.tolist() == [1, 2, 3]

    def test_prism_smallest_binding_length(self):
        # [DERIVED] 2x2x2 prism with i <= j keeps 6 of 8 cells
        f = findex(PRISM, "B")
        t = DenseTensor.from_array(np.arange(8).reshape(2, 2, 2))
        buf = pack(t, f, {"M": 2, "N": 2, "Q": 2})
        assert buf.length == 6

    def test_every_slot_written_exactly_once(self):
        # instrumented recount: the rank image must tile [0, size)
        from polypack.counting import enumerate_points
        f = findex(PRISM, "B")
        b = {"M": 3, "N": 4, "Q": 2}
        pts = enumerate_points(f.accessed, b)
        ranks = f.rank.evaluate_many(pts, b)
        counts = np.zeros(int(f.size.evaluate(b)), dtype=np.int64)
        np.add.at(counts, ranks, 1)
        assert (counts == 1).all()

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for text, shape, binding in [
            (LOWER, (5, 5), {"n": 5}),
            (DIAG, (4, 4), {"n": 4}),
            (PRISM, (3, 4, 2), {"M": 3, "N": 4, "Q": 2}),
        ]:
            f = findex(text, "B")
            dense = rng.integers(-9, 10, size=shape)
            buf = pack(DenseTensor.from_array(dense), f, binding)
            back = unpack(buf, f, shape, binding)
            # off-structure positions zero, on-structure values restored
            again = pack(back, f, binding)
            assert again.data.tolist() == buf.data.tolist()

    def test_rank_beyond_buffer_aborts(self):
        f = findex(LOWER, "B")
        lying = replace(f, size=pqp_constant(2, f.size.context))
        t = DenseTensor.from_array(np.arange(1, 10).reshape(3, 3))
        with pytest.raises(IndexingFault):
            pack(t, lying, {"n": 3})

    def test_region_outside_dense_shape_aborts(self):
        f = findex(LOWER, "B")
        t = DenseTensor.from_array(np.arange(1, 5).reshape(2, 2))
        with pytest.raises(IndexingFault):
            pack(t, f, {"n": 3})  # region needs a 3x3 tensor

    def test_empty_region(self):
        f = findex(HIGH_BAND, "B")
        buf = pack(DenseTensor.from_array(np.arange(3)), f, {"n": 3})
        assert buf.length == 0
        back = unpack(buf, f, (3,), {"n": 3})
        assert back.data.tolist() == [0, 0, 0]


class TestUnpack:
    def test_zeros_off_structure(self):
        f = findex(LOWER, "B")
        buf = pack(DenseTensor.from_array(np.arange(1, 10).reshape(3, 3)),
                   f, {"n": 3})
        back = unpack(buf, f, (3, 3), {"n": 3})
        assert back.reshaped().tolist() == [[1, 0, 0], [4, 5, 0], [7, 8, 9]]

    def test_symmetric_expansion(self):
        prog = parse_program(SYMMETRIC)
        f = findex(SYMMETRIC, "V")
        rng = np.random.default_rng(7)
        w = rng.integers(-3, 4, size=(4, 4))
        s = w + w.T
        buf = pack(DenseTensor.from_array(s), f, {"n": 4})
        assert buf.length == 10
        full = unpack(buf, f, (4, 4), {"n": 4},
                      redmap=prog.redundancy_maps["V"])
        assert full.reshaped().tolist() == s.tolist()

    def test_redundant_image_outside_region_is_an_error(self):
        bad = SYMMETRIC.replace("(x' = y) * (y' = x)", "(x' = x) * (y' = y)")
        prog = parse_program(bad)
        f = findex(SYMMETRIC, "V")
        buf = pack(DenseTensor.from_array(np.eye(4, dtype=np.int64)),
                   f, {"n": 4})
        with pytest.raises(DomainError):
            unpack(buf, f, (4, 4), {"n": 4}, redmap=prog.redundancy_maps["V"])


class TestFootprint:
    def test_diagonal_matrix_rates(self):
        plan = build_plan(parse_program(SPMV_D), "A")
        n = 10000
        rep = footprint_report(plan.registry, {"n_i": n},
                               {"A": (n,), "B": (n, n), "C": (n,)}, "A")
        assert rep.entry("B").dense == n * n
        assert rep.entry("B").stored == n
        assert rep.tensor_rate("B") == n
        assert rep.rate("none") == 1
        assert rep.rate("input+output") >= rep.rate("input") >= 1
        # compressed totals add up buffer sizes exactly
        assert rep.stored_total("input+output") == 3 * n

    def test_demoted_tensor_stays_dense(self):
        plan = build_plan(parse_program(LESLIE), "A")
        rep = footprint_report(plan.registry, {"n_i": 5, "n_j": 5},
                               {"A": (5,), "B": (5, 5), "C": (5,)}, "A")
        assert not rep.entry("C").compressed
        assert rep.entry("C").stored == rep.entry("C").dense == 5
        assert rep.entry("B").compressed
        assert rep.entry("B").stored == 9  # first row (5) + subdiagonal (4)

    def test_render_golden(self):
        plan = build_plan(parse_program(SPMV_D), "A")
        rep = footprint_report(plan.registry, {"n_i": 10},
                               {"A": (10,), "B": (10, 10), "C": (10,)}, "A")
        assert rep.render() == "\n".join([
            "tensor=A role=output dense=10 stored=10",
            "tensor=B role=input dense=100 stored=10",
            "tensor=C role=input dense=10 stored=10",
            "total dense=120",
            "stored[none]=120 rate=1 (1.000)",
            "stored[input]=30 rate=4 (4.000)",
            "stored[input+output]=30 rate=4 (4.000)",
        ])

    def test_exact_fraction_rate(self):
        plan = build_plan(parse_program(LOWER), "A")
        n = 7
        rep = footprint_report(plan.registry, {"n": n},
                               {"A": (n,), "B": (n, n)}, "A")
        from fractions import Fraction
        assert rep.entry("B").stored == n * (n + 1) // 2
        assert rep.tensor_rate("B") == Fraction(n * n, n * (n + 1) // 2)


class TestStoreAssembly:
    def test_execute_matches_reference(self):
        prog = parse_program(SPMV_D)
        plan = build_plan(prog, "A", compression="input+output")
        n = 6
        shapes = {"A": (n,), "B": (n, n), "C": (n,)}
        tensors = {"B": random_tensor((n, n), 11, np.int64),
                   "C": random_tensor((n,), 12, np.int64)}
        store = build_store(plan, tensors, {"n_i": n})
        res = execute(plan, store, shapes, {"n_i": n}, dtype=np.int64)
        out = gather_output(plan, res, (n,), {"n_i": n})
        ref = reference_execute(prog, "A", shapes,
                                {"B": tensors["B"].data, "C": tensors["C"].data},
                                {"n_i": n}, np.int64)
        assert out.data.tolist() == ref.tolist()

    def test_multi_buffer_output_gather(self):
        # two disjoint output regions land in separate buffers; gather sums
        prog = parse_program(LESLIE)
        plan = build_plan(prog, "A", compression="input+output")
        n = 5
        shapes = {"A": (n,), "B": (n, n), "C": (n,)}
        tensors = {"B": random_tensor((n, n), 21, np.int64),
                   "C": random_tensor((n,), 22, np.int64)}
        binding = {"n_i": n, "n_j": n}
        store = build_store(plan, tensors, binding)
        res = execute(plan, store, shapes, binding, dtype=np.int64)
        out = gather_output(plan, res, (n,), binding)
        ref = reference_execute(prog, "A", shapes,
                                {"B": tensors["B"].data, "C": tensors["C"].data},
                                binding, np.int64)
        assert out.data.tolist() == ref.tolist()

    def test_dense_output_gather(self):
        prog = parse_program(SPMV_D)
        plan = build_plan(prog, "A", compression="input")
        n = 4
        shapes = {"A": (n,), "B": (n, n), "C": (n,)}
        tensors = {"B": random_tensor((n, n), 31, np.int64),
                   "C": random_tensor((n,), 32, np.int64)}
        store = build_store(plan, tensors, {"n_i": n})
        res = execute(plan, store, shapes, {"n_i": n}, dtype=np.int64)
        assert res.dense is not None
        out = gather_output(plan, res, (n,), {"n_i": n})
        ref = reference_execute(prog, "A", shapes,
                                {"B": tensors["B"].data, "C": tensors["C"].data},
                                {"n_i": n}, np.int64)
        assert out.data.tolist() == ref.tolist()


class TestGenerated:
    def test_seed_determinism(self):
        a = random_tensor((4, 4), 9)
        b = random_tensor((4, 4), 9)
        assert (a.data == b.data).all()
        c = random_tensor((4, 4), 10)
        assert (a.data != c.data).any()

    def test_integer_mode(self):
        t = random_tensor((100,), 1, np.int64)
        assert t.data.dtype == np.int64
        assert t.data.min() >= -3 and t.data.max() <= 3

    def test_shape_invariant(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 3), np.zeros(5))
