"""Index function, buffer registry, and hoisting tests.

Rank laws are checked against the enumeration oracle: for small bindings
the rank values over the accessed region must be exactly 0..size-1 in
lexicographic order.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypack.codegen import build_plan, execute, reference_execute
from polypack.counting import QuasiPolynomial, int_poly
from polypack.indexing import (
    build_registry, hoist_schedule, regions_equal, symbolic_indexing,
)
from polypack.polyhedra import (
    AccessMap, AffineExpr, Polyhedron, enumerate_points, ge, image,
    iteration_space, poly_values,
)
from polypack.runtime import DenseTensor, build_store, gather_output
from polypack.stur import build_compressed_summands, parse_program

from helpers import buffer_for, dense_tensors


def v(name):
    return AffineExpr.var(name)


def k(c):
    return AffineExpr.constant(c)


def q(name):
    return QuasiPolynomial.var(name)


HALF = Fraction(1, 2)

FIG3 = """
A(i, j, k) := B(i, j, l) * C(k, l) * (0 <= i < M) * (0 <= k < P)
B_U(i, j, l) := (0 <= l) * (Q > l) * (i <= j) * (N > j) * (0 <= i)
"""

SPMV_D = "A(i)=B(i,j)*C(j); B_U: (0<=i<n_i)*(i=j)"

LESLIE = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (i = 0) * (0 <= j < n_j) + (1 <= i < n_i) * (j = i - 1)
"""

# The first summand's space is test_integer_core's integer-slack system:
# x/2 <= y <= (x + 1)/3 has a rational y at x = 1 but no integer one
SLACK = """
A(x) := B(x, y) * (0 <= x <= n) * (x <= 2*y) * (3*y <= x + 1) + B(x, y) * (0 <= y <= x) * (x <= n)
"""


def summands(text, rule="A"):
    return build_compressed_summands(parse_program(text), rule)


def index_for(summand, slot):
    space = iteration_space(summand)
    acc = summand.output if slot == "out" else summand.inputs[int(slot[2:])]
    amap = AccessMap.from_indices(space.dims, acc.index_names)
    return symbolic_indexing(image(space, amap), acc.tensor)


def check_bijection(ix, binding):
    """rank over the enumerated region is 0..size-1, increasing with lex order."""
    pts = enumerate_points(ix.accessed, binding)
    ranks = ix.rank.evaluate_many(pts, binding)
    assert ranks.tolist() == list(range(len(pts)))
    assert ix.size.evaluate(binding) == len(pts)


class TestSymbolicIndexing:
    def test_prism_rank_polynomial(self):
        (s,) = summands(FIG3)
        ix = index_for(s, "in0")
        assert ix.tensor == "B"
        poly = ix.rank.single_polynomial()
        assert poly is not None
        n, qq, i, j, l = q("N"), q("Q"), q("i"), q("j"), q("l")
        expected = (n - HALF) * qq * i - HALF * qq * i.power(2) + qq * j + l
        assert poly == expected
        for m in range(1, 4):
            for nn in range(1, 4):
                check_bijection(ix, {"M": m, "N": nn, "P": 2, "Q": 2})

    def test_dense_vector_identity(self):
        space = Polyhedron.build(("j",), ("n",), [ge(v("j")), ge(v("n") - v("j") - k(1))])
        ix = symbolic_indexing(
            image(space, AccessMap.from_indices(("j",), ("j",))), "C")
        assert ix.rank.to_str(("j",)) == "j"
        assert ix.size.to_str(()) == "n"

    def test_spmv_diagonal(self):
        (s,) = summands(SPMV_D)
        ix = index_for(s, "in0")
        assert ix.rank.to_str(("i", "j")) == "i"
        assert ix.size.to_str(()) == "n_i"
        for n in range(1, 9):
            check_bijection(ix, {"n_i": n})

    def test_rank_of_lex_min_is_zero(self):
        (s,) = summands(FIG3)
        for slot in ("out", "in0", "in1"):
            ix = index_for(s, slot)
            binding = {"M": 3, "N": 3, "P": 3, "Q": 3}
            pts = enumerate_points(ix.accessed, binding)
            first = dict(zip(ix.accessed.dims, (int(x) for x in pts[0])))
            assert ix.rank.evaluate({**binding, **first}) == 0

    def test_bijection_law_all_accesses(self):
        (s,) = summands(FIG3)
        for slot in ("out", "in0", "in1"):
            ix = index_for(s, slot)
            for val in (1, 2, 4, 8):
                check_bijection(ix, {p: val for p in ("M", "N", "P", "Q")})

    def test_leslie_band_ranks(self):
        s0, s1 = summands(LESLIE)
        ix = index_for(s1, "in0")  # B over {1 <= i < n_i, j = i - 1}
        for n in range(1, 7):
            check_bijection(ix, {"n_i": n, "n_j": n})
        ix0 = index_for(s0, "in0")  # B over {i = 0, 0 <= j < n_j}
        for n in range(1, 7):
            check_bijection(ix0, {"n_i": n, "n_j": n})

    # a bound of y: None for the fixed end (0 below, n - 1 above), else
    # the offset c of x + c
    _Y_BOUND = st.one_of(st.none(), st.integers(-2, 2))
    _UNIT = st.sampled_from((-1, 1))

    @settings(max_examples=150, deadline=None)
    @given(lo=_Y_BOUND, hi=_Y_BOUND,
           cut=st.one_of(st.none(), st.tuples(_UNIT, _UNIT, st.integers(-3, 3))))
    def test_random_triangles_and_bands(self, lo, hi, cut):
        # 0 <= x < n, lo <= y <= hi, optionally a*x + b*y + c >= 0: size
        # counts the points and rank numbers them in lexicographic order
        x, y, n = v("x"), v("y"), v("n")
        cons = [ge(x), ge(n - x - k(1)),
                ge(y) if lo is None else ge(y - x - k(lo)),
                ge(n - k(1) - y) if hi is None else ge(x + k(hi) - y)]
        if cut is not None:
            a, b, c = cut
            cons.append(ge(x * a + y * b + k(c)))
        ix = symbolic_indexing(Polyhedron.build(("x", "y"), ("n",), cons), "T")
        for nn in range(1, 7):
            check_bijection(ix, {"n": nn})


class TestRegionsEqual:
    def box(self, cons):
        return Polyhedron.build(("@0",), ("n",), cons)

    def test_syntactic(self):
        a = self.box([ge(v("@0")), ge(v("n") - v("@0") - k(1))])
        b = self.box([ge(v("n") - v("@0") - k(1)), ge(v("@0"))])
        assert regions_equal(a, b)

    def test_implied_rewrite(self):
        a = self.box([ge(v("@0")), ge(v("n") - v("@0") - k(1))])
        b = self.box([ge(v("@0") * 2), ge(v("n") - v("@0") - k(1))])
        assert regions_equal(a, b)

    def test_unequal(self):
        a = self.box([ge(v("@0")), ge(v("n") - v("@0") - k(1))])
        b = self.box([ge(v("@0") - k(1)), ge(v("n") - v("@0") - k(1))])
        assert not regions_equal(a, b)


class TestRegistry:
    def test_shared_output_buffer(self):
        text = "O(j) := B(j) * (0 <= j < N) + C(j) * (0 <= j < N)"
        reg = build_registry(summands(text, "O"))
        assert reg.assignment[(0, "out")] == reg.assignment[(1, "out")]
        assert len({b.tensor for b in reg.buffers}) == 3
        assert len(reg.buffers) == 3
        assert dense_tensors(reg) == []

    def test_disjoint_read_regions_two_buffers(self):
        text = ("O(j) := A(i, j) * (i = 1) * (0 <= j < N)"
                " + A(i, j) * (i = 3) * (0 <= j < N)")
        reg = build_registry(summands(text, "O"))
        b0 = buffer_for(reg, 0, "in0")
        b1 = buffer_for(reg, 1, "in0")
        assert b0.id != b1.id
        assert b0.layout == b1.layout == "compressed"
        assert reg.assignment[(0, "out")] == reg.assignment[(1, "out")]

    def test_single_summand_one_buffer_per_tensor(self):
        reg = build_registry(summands(FIG3))
        assert len(reg.buffers) == 3
        assert sorted(b.tensor for b in reg.buffers) == ["A", "B", "C"]
        assert all(b.layout == "compressed" for b in reg.buffers)

    @pytest.mark.parametrize("text, extents", [
        ("A(i, j) := B(i, j) * (0 <= i < n) * (0 <= j < m)", ((v("n"),), (v("m"),))),
        # the first axis keeps every bound: its extent is their least
        ("A(i, j) := B(i, j) * (0 <= i < n) * (i < p) * (0 <= j < m)",
         ((v("n"), v("p")), (v("m"),))),
        ("A(i, j) := B(j, i) * (0 <= i < n) * (0 <= j < m)", None),   # axes out of order
        ("A(i, j) := B(i, j) * (1 <= i < n) * (0 <= j < m)", None),   # the box starts at 1
        ("A(i, j) := B(i, j) * (0 <= i < n) * (0 <= j <= i)", None),  # a triangle's rank
        # a row length that is min(m, p): two rank pieces, not one offset
        ("A(i, j) := B(i, j) * (0 <= i < n) * (0 <= j < m) * (j < p)", None),
    ])
    def test_alias_proof(self, text, extents):
        # B's buffer is proved to be B in row-major order, or not
        b = buffer_for(build_registry(summands(text)), 0, "in0")
        assert b.layout == "compressed" and b.index.extents == extents

    def test_inexact_projection_demotes_tensor(self):
        # A's first region, FM's projection of the slack system onto x,
        # holds x = 1, which no iteration writes: A is kept dense
        ss = summands(SLACK)
        space = iteration_space(ss[0])
        assert not image(space, AccessMap.from_indices(space.dims, ["x"])).exact
        reg = build_registry(ss)
        a = buffer_for(reg, 0, "out")
        assert (a.layout, a.reason) == ("dense", "inexact-projection")
        assert buffer_for(reg, 1, "out") is a
        assert buffer_for(reg, 0, "in0").reason == "partial-overlap"   # B's regions overlap
        # and the dense plan is right, x = 1 included (B[1, 0] + B[1, 1])
        program, binding, shapes = parse_program(SLACK), {"n": 7}, {"A": (8,), "B": (8, 8)}
        data = np.arange(64, dtype=np.int64)
        plan = build_plan(program, "A")
        res = execute(plan, build_store(plan, {"B": DenseTensor((8, 8), data)}, binding),
                      shapes, binding, dtype=np.int64)
        got = gather_output(plan, res, (8,), binding).data
        assert got[1] == 17
        assert np.array_equal(got, reference_execute(program, "A", shapes, {"B": data},
                                                     binding, np.int64))

    def test_leslie_partial_overlap_demotes_tensor(self):
        reg = build_registry(summands(LESLIE))
        assert dense_tensors(reg) == ["C"]
        c0 = buffer_for(reg, 0, "in1")
        c1 = buffer_for(reg, 1, "in1")
        assert c0.id == c1.id
        assert c0.layout == "dense"
        assert c0.reason == "partial-overlap"
        # A and B both split into two disjoint compressed buffers
        assert buffer_for(reg, 0, "out").id != buffer_for(reg, 1, "out").id
        assert buffer_for(reg, 0, "in0").id != buffer_for(reg, 1, "in0").id
        assert len(reg.buffers) == 5

    def test_permuted_triangle_access_demotes(self):
        # X(i,j) reads the lower wedge, X(j,i) its transpose: same cells only
        # on the diagonal, so the regions partially overlap in tensor space.
        text = ("O(i, j) := X(i, j) * (0 <= i <= j) * (j < n)"
                " + X(j, i) * (0 <= i <= j) * (j < n)")
        reg = build_registry(summands(text, "O"))
        assert dense_tensors(reg) == ["X"]
        assert buffer_for(reg, 0, "in0").reason == "partial-overlap"

    def test_permuted_square_access_shares(self):
        text = ("O(i, j) := X(i, j) * (0 <= i < n) * (0 <= j < n)"
                " + X(j, i) * (0 <= i < n) * (0 <= j < n)")
        reg = build_registry(summands(text, "O"))
        assert reg.assignment[(0, "in0")] == reg.assignment[(1, "in0")]
        assert buffer_for(reg, 0, "in0").layout == "compressed"

    def test_strided_bands_disjoint_buffers(self):
        text = ("A(i, j) := B(i, j) * (0 <= i < 8) * (0 <= j < 8)\n"
                "B_U(i, j) := ((j - i) % 8 = 2)")
        reg = build_registry(summands(text))
        b_ids = {reg.assignment[(si, "in0")] for si in range(2)}
        assert len(b_ids) == 2
        sizes = []
        for bid in b_ids:
            buf = reg.buffers[bid]
            assert buf.layout == "compressed"
            sizes.append(buf.index.size.evaluate({}))
        # bands j-i=2 and j-i=-6 hold 6 and 2 of the 64 cells
        assert sorted(sizes) == [2, 6]

    def test_registry_law_pairwise_disjoint(self):
        reg = build_registry(summands(LESLIE))
        by_tensor = {}
        for b in reg.buffers:
            if b.layout == "compressed":
                by_tensor.setdefault(b.tensor, []).append(b)
        for bufs in by_tensor.values():
            for x in range(len(bufs)):
                for y in range(x + 1, len(bufs)):
                    a, b = bufs[x].accessed, bufs[y].accessed
                    binding = {p: 5 for p in set(a.params) | set(b.params)}
                    pa = {tuple(p) for p in enumerate_points(a, binding).tolist()}
                    pb = {tuple(p) for p in enumerate_points(b, binding).tolist()}
                    assert not (pa & pb)

    def test_assignment_total(self):
        reg = build_registry(summands(LESLIE))
        for si in range(2):
            for slot in ("out", "in0", "in1"):
                assert (si, slot) in reg.assignment

    def test_dump_golden_spmv_diagonal(self):
        reg = build_registry(summands(SPMV_D))
        assert reg.dump() == (
            "tensor=A id=0 size=n_i rank=i domain=i >= 0 and -i + n_i - 1 >= 0 "
            "alias=(n_i)\n"
            "tensor=B id=1 size=n_i rank=i domain="
            "i >= 0 and -i + n_i - 1 >= 0 and i - j = 0\n"
            "tensor=C id=2 size=n_i rank=j domain=j >= 0 and -j + n_i - 1 >= 0 "
            "alias=(n_i)"
        )


def unsplit(root, levels, dims, env):
    """root plus every level's coefficient * dim**exponent, at env."""
    return poly_values(root, {}, env) + sum(
        poly_values(c, {}, env) * env[d] ** e
        for d, parts in zip(dims, levels) for e, c in parts)


class TestHoist:
    """`hoist_schedule` splits an integer poly into a root and per-level
    (exponent, coefficient) terms."""

    def prism_poly(self):
        # 2 * the prism's rank, as `codegen._program` lowers it
        n, qq, i, j, l = q("N"), q("Q"), q("i"), q("j"), q("l")
        return (n - HALF) * qq * i - HALF * qq * i.power(2) + qq * j + l

    def test_prism_plan_hoists_param_coefficient(self):
        root, levels = hoist_schedule(int_poly(self.prism_poly(), 2), ("i", "j", "l"))
        assert root == ()
        parts_i = dict(levels[0])
        assert parts_i[1] == int_poly((q("N") - HALF) * q("Q"), 2)
        assert parts_i[2] == int_poly(-HALF * q("Q"), 2)
        # loop-invariant coefficients: params only, computable above all loops
        assert all(v in {"N", "Q"} for c in parts_i.values() for _, mono in c for v, _ in mono)
        assert levels[1] == ((1, ((2, (("Q", 1),)),)),)
        assert levels[2] == ((1, ((2, ()),)),)

    def test_single_loop_identity(self):
        assert hoist_schedule(((1, (("j", 1),)),), ("j",)) == ((), (((1, ((1, ()),)),),))

    def test_triangle_levels(self):
        poly = int_poly(HALF * q("i") + HALF * q("i").power(2) + q("j"), 2)
        root, levels = hoist_schedule(poly, ("i", "j"))
        assert root == ()
        assert levels[0] == ((1, ((1, ()),)), (2, ((1, ()),)))
        assert levels[1] == ((1, ((2, ()),)),)

    def test_innermost_increment_is_linear(self):
        _, levels = hoist_schedule(int_poly(self.prism_poly(), 2), ("i", "j", "l"))
        assert max(e for e, _ in levels[-1]) == 1

    def test_plan_matches_polynomial(self):
        poly = self.prism_poly()
        dims = ("i", "j", "l")
        root, levels = hoist_schedule(int_poly(poly, 2), dims)
        binding = {"N": 7, "Q": 4}
        for i in range(0, 16, 3):
            for j in range(0, 16, 3):
                for l in range(0, 16, 5):
                    env = {**binding, "i": i, "j": j, "l": l}
                    assert unsplit(root, levels, dims, env) == 2 * poly.evaluate(env)

    def test_constant_term_hoisted(self):
        poly = int_poly(q("n") * q("n") + q("i") + QuasiPolynomial.constant(3), 1)
        root, _ = hoist_schedule(poly, ("i",))
        assert root == int_poly(q("n") * q("n") + QuasiPolynomial.constant(3), 1)

    def test_dense_offset_strides(self):
        # A(i, j)'s row-major offset, extents named (tensor, axis)
        poly = ((1, (("j", 1),)), (1, ((("A", 1), 1), ("i", 1))))
        assert hoist_schedule(poly, ("i", "j")) == (
            (), (((1, ((1, ((("A", 1), 1),)),)),), ((1, ((1, ()),)),)))

    def test_factor_and_monomial_order_kept(self):
        poly = ((3, (("i", 1), ("n", 1))), (-1, (("m", 2), ("i", 1))), (5, (("n", 1),)))
        root, levels = hoist_schedule(poly, ("i",))
        assert root == ((5, (("n", 1),)),)
        assert levels == (((1, ((3, (("n", 1),)), (-1, (("m", 2),)))),),)

    _NAMES = ("i", "j", "k", "N", "n", ("A", 0), ("A", 1), ("B", 0, "stride"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_split_property(self, data):
        dims = data.draw(st.permutations(("i", "j", "k")))[:data.draw(st.integers(2, 3))]
        names = [x for x in self._NAMES if x not in ("i", "j", "k") or x in dims]
        mono = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 3)),
                        max_size=4, unique_by=lambda f: f[0]).map(tuple)
        poly = tuple(data.draw(st.lists(st.tuples(
            st.integers(-9, 9).filter(bool), mono), max_size=6)))
        root, levels = hoist_schedule(poly, dims)
        assert len(levels) == len(dims)
        assert not any(v in dims for _, mono in root for v, _ in mono)
        for k, parts in enumerate(levels):
            assert all(e >= 1 for e, _ in parts)
            # a level's coefficients read parameters and outer dims only
            read = {v for _, c in parts for _, m in c for v, _ in m}
            assert not read & set(dims[k:])
        env = dict(zip(names, data.draw(st.lists(
            st.integers(-4, 4), min_size=len(names), max_size=len(names)))))
        assert unsplit(root, levels, dims, env) == poly_values(poly, {}, env)
