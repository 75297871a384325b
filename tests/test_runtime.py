"""Dense <-> compressed movement, redundancy expansion, footprint math."""

import math
import shutil
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypack import codegen, polyhedra, runtime
from polypack.cli import BUILTIN_KERNELS
from polypack.codegen import (
    CodegenError, IndexingFault, build_plan, execute, reference_execute,
)
from polypack.counting import DomainError, PiecewiseQuasiPolynomial, pqp_constant
from polypack.indexing import symbolic_indexing
from polypack.polyhedra import (
    AccessMap, AffineExpr, enumerate_points, image, iteration_space,
)
from polypack.runtime import (
    CompressedBuffer, DenseTensor, build_store, footprint_report,
    gather_output, pack, random_tensor, unpack,
)
from polypack.stur import RedundancyMap, build_compressed_summands, parse_program

from helpers import dense_tensor, reshaped

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="no gcc to compile the emitted C")

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

# B's region is empty, so the rule has no summands
EMPTY = """
A(i) := B(i) * C(i)
B_U(i) := (5 <= i) * (i < 3)
"""

HIGH_BAND = """
A(i) := B(i)
B_U(i) := (5 <= i) * (i < n)
"""


BANDED = """
A(i) := B(i, j)
B_U(i, j) := (0 <= i < n) * (0 <= j <= i) * (i - j <= 2)
"""

# the mod constraint splits into the bands j - i = -7, -3, 1, 5: four buffers
BANDS = """
A(i, j) := B(i, j) * (0 <= i < 9) * (0 <= j < 9)
B_U(i, j) := ((j - i) % 4 = 1)
"""


# rows start at i + 2 and end at m - 1, so the region is empty when m < 3
RAGGED = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (0 <= i < n) * (i + 2 <= j < m)
"""

# rows of w values, each starting one column further right
BAND = """
A(i) := B(i, j) * C(j)
B_U(i, j) := (0 <= i < n) * (i <= j < i + w)
"""


def findex(text, tensor, rule="A", which=0):
    s = build_compressed_summands(parse_program(text), rule)[which]
    space = iteration_space(s)
    acc = [a for a in s.inputs if a.tensor == tensor][0]
    amap = AccessMap.from_indices(space.dims, acc.index_names)
    return symbolic_indexing(image(space, amap), tensor)


class TestPack:
    def test_lower_triangle_golden(self):
        # [DERIVED] lex scan of {j <= i} over [[1..9]] keeps 1,4,5,7,8,9
        f = findex(LOWER, "B")
        t = dense_tensor(np.arange(1, 10).reshape(3, 3))
        buf = pack(t, f, {"n": 3})
        assert buf.data.tolist() == [1, 4, 5, 7, 8, 9]
        assert buf.length == 6

    def test_diag_golden(self):
        f = findex(DIAG, "B")
        buf = pack(dense_tensor(np.diag([1, 2, 3])), f, {"n": 3})
        assert buf.data.tolist() == [1, 2, 3]

    def test_prism_smallest_binding_length(self):
        # [DERIVED] 2x2x2 prism with i <= j keeps 6 of 8 cells
        f = findex(PRISM, "B")
        t = dense_tensor(np.arange(8).reshape(2, 2, 2))
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
            buf = pack(dense_tensor(dense), f, binding)
            back = unpack(buf, f, shape, binding)
            # off-structure positions zero, on-structure values restored
            again = pack(back, f, binding)
            assert again.data.tolist() == buf.data.tolist()

    def test_rank_beyond_buffer_aborts(self):
        f = findex(LOWER, "B")
        lying = replace(f, size=pqp_constant(2, f.size.context))
        t = dense_tensor(np.arange(1, 10).reshape(3, 3))
        with pytest.raises(IndexingFault):
            pack(t, lying, {"n": 3})

    def test_region_outside_dense_shape_aborts(self):
        f = findex(LOWER, "B")
        t = dense_tensor(np.arange(1, 5).reshape(2, 2))
        with pytest.raises(IndexingFault):
            pack(t, f, {"n": 3})  # region needs a 3x3 tensor

    def test_int64_overflow_raises_before_allocating(self, monkeypatch):
        kern = BUILTIN_KERNELS["SpMV_UT"]
        plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
        b = [bb for bb in plan.registry.buffers if bb.tensor == "B"][0]
        # TTM_UT's packed output A(i, j, k) ranks past int64 at n = 2^32
        kern = BUILTIN_KERNELS["TTM_UT"]
        ttm = build_plan(parse_program(kern.text), kern.rule, "input+output")
        a = ttm.summands[0].statement.output
        assert a.layout == "compressed"
        n = 2 ** 32
        binding = {"n_i": n, "n_j": n}
        # stand-ins: a 2^32 x 2^32 tensor cannot be allocated
        tensor = SimpleNamespace(shape=(n, n), data=np.zeros(0))
        buf = CompressedBuffer(b.id, 0, np.zeros(0))
        result = codegen.ExecResult(None, {a.buffer_id: np.zeros(0)})

        def no_alloc(*args, **kwargs):
            raise AssertionError("a buffer was allocated")
        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(IndexingFault, match="of B "):
            pack(tensor, b.index, binding, axes=b.axes)
        with pytest.raises(IndexingFault, match="of B "):
            unpack(buf, b.index, (n, n), binding, axes=b.axes)
        # on the copy walk, and on A's gather function for a result run on C
        for ran in ("numpy", "c"):
            with pytest.raises(IndexingFault, match="of A "):
                gather_output(ttm, replace(result, backends=frozenset({ran})), (n, n, n),
                              {f"n_{d}": n for d in "ijkl"})

    def test_empty_region(self):
        f = findex(HIGH_BAND, "B")
        buf = pack(dense_tensor(np.arange(3)), f, {"n": 3})
        assert buf.length == 0
        back = unpack(buf, f, (3,), {"n": 3})
        assert back.data.tolist() == [0, 0, 0]


def naive_copy(data, index, shape, binding, axes):
    """(compressed, dense) by the oracle: enumerate the region, evaluate
    the rank point by point, gather row-major; None when a point lies
    outside `shape`."""
    pts = enumerate_points(index.accessed, binding)
    buf = np.zeros(int(index.size.evaluate(binding)), dtype=data.dtype)
    dense = np.zeros(math.prod(shape), dtype=data.dtype)
    if len(pts):
        coords = pts[:, np.argsort(axes)]  # column axes[p] of coords is dim p
        if (coords < 0).any() or (coords >= np.array(shape)).any():
            return None
        flat = np.ravel_multi_index(tuple(coords.T), shape)
        ranks = index.rank.evaluate_many(pts, binding)
        buf[ranks] = data[flat]
        dense[flat] = data[flat]
    return buf, dense


def naive_unpack(data, index, shape, binding, axes, redmap):
    """unpack(redmap=...) by the oracle: each position of the region and of
    the map's domain within `shape` (`enumerate_points`) takes the slot
    whose rank (`evaluate_many`) is at the position, or at its image under
    the map's substitution."""
    out = np.zeros(math.prod(shape), dtype=data.dtype)
    pts = enumerate_points(index.accessed, binding)
    if len(pts):
        flat = np.ravel_multi_index(tuple(pts[:, np.argsort(axes)].T), shape)
        out[flat] = data[index.rank.evaluate_many(pts, binding)]
    cons = list(redmap.domain)
    for a, d in enumerate(redmap.iters):
        cons += [polyhedra.ge(AffineExpr.var(d)),
                 polyhedra.ge(AffineExpr.constant(shape[a] - 1) - AffineExpr.var(d))]
    pos = enumerate_points(polyhedra.Polyhedron.build(redmap.iters, tuple(binding), cons), binding)
    if len(pos):
        point = {**binding, **{d: pos[:, a] for a, d in enumerate(redmap.iters)}}
        image = np.zeros_like(pos)
        for a, p in enumerate(redmap.primed):
            e = redmap.substitution[p]
            value = e.const + sum(k * point[d] for d, k in e.coeffs.items())
            image[:, a] = np.broadcast_to(np.asarray(value, dtype=object), len(pos))
        ranks = index.rank.evaluate_many(image[:, list(axes)], binding)
        out[np.ravel_multi_index(tuple(pos.T), shape)] = data[ranks]
    return out


def oracle_cases():
    """(label, plan, buffer, binding, shape) for every compressed buffer of
    the builtins at sizes 1, 2, 5, 9, and of BANDED and BANDS, with the
    `input+output` plan that holds it."""
    for name, kern in sorted(BUILTIN_KERNELS.items()):
        plan = build_plan(parse_program(kern.text), kern.rule, "input+output")
        for size in (1, 2, 5, 9):
            binding = dict(kern.defaults)
            binding.update({s: size for s in binding if s.startswith("n_")})
            for b in plan.registry.buffers:
                if b.layout == "compressed":
                    shape = tuple(binding[s] for s in kern.shapes[b.tensor])
                    yield f"{name}.{b.id}.{size}", plan, b, binding, shape
    for name, text, sizes in (("BANDED", BANDED, (1, 2, 5, 9)), ("BANDS", BANDS, (9,))):
        plan = build_plan(parse_program(text), "A", "input+output")
        for size in sizes:
            binding = {"n": size} if text is BANDED else {}
            for b in plan.registry.buffers:
                if b.layout == "compressed" and b.tensor == "B":
                    yield f"{name}.{b.id}.{size}", plan, b, binding, (size, size)


def covers(seen, label, index, axes):
    """Add to `seen` what a non-empty buffer's case covers: its kernel,
    permuted axes, a piecewise rank, fixed levels."""
    seen.add(label.split(".")[0])
    if axes != tuple(sorted(axes)):
        seen.add("permuted")
    if len(index.rank.pieces) > 1:
        seen.add("piecewise")
    if any(lv.kind == "fixed" for lv in codegen.build_loop_nest(index.accessed).levels):
        seen.add("fixed")


class TestAgainstOracle:
    def test_pack_and_unpack_match_naive_copy(self):
        seen = set()
        rng = np.random.default_rng(17)
        for label, _, b, binding, shape in oracle_cases():
            index, axes = b.index, b.axes
            data = rng.integers(-2 ** 62, 2 ** 62, size=math.prod(shape))
            want = naive_copy(data, index, shape, binding, axes)
            tensor = DenseTensor(shape, data)
            if want is None:
                with pytest.raises(IndexingFault):
                    pack(tensor, index, binding, axes=axes)
                continue
            buf = pack(tensor, index, binding, axes=axes)
            assert buf.data.dtype == np.int64
            assert np.array_equal(buf.data, want[0]), label
            back = unpack(buf, index, shape, binding, axes=axes)
            assert np.array_equal(back.data, want[1]), label
            assert np.array_equal(pack(back, index, binding, axes=axes).data, buf.data)
            if len(buf.data):
                covers(seen, label, index, axes)
        # the cases cover every builtin, permuted axes (MTT's C(k, j)),
        # fixed levels, a piecewise rank and the bands of a mod constraint
        assert seen >= set(BUILTIN_KERNELS) | {"BANDED", "BANDS", "permuted", "piecewise",
                                               "fixed"}

    def test_lowered_once(self, monkeypatch):
        f = findex(PRISM, "B")
        binding = {"M": 3, "N": 4, "Q": 2}
        t = dense_tensor(np.arange(24).reshape(3, 4, 2))
        first = pack(t, f, binding)
        # A's output buffer: its copy is lowered by the first gather
        plan = build_plan(parse_program(PRISM), "A", "input+output")
        shapes = {"A": (3, 4), "B": (3, 4, 2), "C": (4, 2)}
        tensors = {"B": t, "C": dense_tensor(np.arange(8).reshape(4, 2))}
        res = execute(plan, build_store(plan, tensors, binding), shapes, binding,
                      dtype=np.int64, backend="numpy")
        gathered = gather_output(plan, res, shapes["A"], binding)

        def no_lowering(*args, **kwargs):
            raise AssertionError("lowered again")
        for mod in (codegen, polyhedra, runtime):
            for name in ("build_loop_nest", "fm_eliminate"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, no_lowering)
        # the rank and the size too: both are read in their lowered form
        monkeypatch.setattr(PiecewiseQuasiPolynomial, "evaluate_many", no_lowering)
        monkeypatch.setattr(PiecewiseQuasiPolynomial, "evaluate", no_lowering)
        again = pack(t, f, binding)
        assert np.array_equal(again.data, first.data)
        back = unpack(again, f, (3, 4, 2), binding)
        assert np.array_equal(pack(back, f, binding).data, first.data)
        assert np.array_equal(gather_output(plan, res, shapes["A"], binding).data,
                              gathered.data)


    def test_copy_keeps_int64_bounds(self):
        # pack and unpack bound the rank and the dense offset through the
        # program's int64 bounds, as execute bounds a summand's indices
        prog = findex(PRISM, "B").copy((0, 1, 2), 0)
        assert [t for t, _ in prog.bounds] == ["B", "B"] and prog.crude is not None


class TestRuns:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("block", [7, codegen.BLOCK_POINTS])
    @pytest.mark.parametrize("text,binding,shape", [
        (RAGGED, {"n": 6, "m": 5}, (6, 5)),
        (RAGGED, {"n": 6, "m": 13}, (6, 13)),
        (RAGGED, {"n": 5, "m": 2}, (5, 2)),
        (LOWER, {"n": 12}, (12, 12)),
        (BAND, {"n": 7, "w": 3}, (7, 9)),
    ], ids=["ragged", "ragged_wide", "ragged_empty", "lower", "band"])
    def test_round_trip(self, text, binding, shape, block, dtype, monkeypatch):
        # pack and unpack walk the region's rows as runs; with 7-point
        # blocks, rows are split between blocks and rows longer than one
        # take a block of their own
        monkeypatch.setattr(codegen, "BLOCK_POINTS", block)
        f = findex(text, "B")
        assert f.copy((0, 1), 0).run is not None
        data = np.random.default_rng(5).integers(-9, 10, size=math.prod(shape)).astype(dtype)
        want = naive_copy(data, f, shape, binding, (0, 1))
        buf = pack(DenseTensor(shape, data), f, binding)
        assert buf.data.dtype == dtype and np.array_equal(buf.data, want[0])
        back = unpack(buf, f, shape, binding)
        assert np.array_equal(back.data, want[1])


class TestUnpack:
    def test_zeros_off_structure(self):
        f = findex(LOWER, "B")
        buf = pack(dense_tensor(np.arange(1, 10).reshape(3, 3)),
                   f, {"n": 3})
        back = unpack(buf, f, (3, 3), {"n": 3})
        assert reshaped(back).tolist() == [[1, 0, 0], [4, 5, 0], [7, 8, 9]]

    def test_fault_names_the_buffer_id(self):
        # the copy is lowered per buffer id: a short buffer 7 faults as 7,
        # and the same index unpacked as buffer 0 faults as 0
        f, binding = findex(LOWER, "B"), {"n": 4}
        data = pack(dense_tensor(np.arange(16).reshape(4, 4)), f, binding).data[:-1]
        for bid in (7, 0):
            with pytest.raises(IndexingFault, match=f"buffer {bid} of B$"):
                unpack(CompressedBuffer(bid, len(data), data), f, (4, 4), binding)

    def test_symmetric_expansion(self):
        prog = parse_program(SYMMETRIC)
        f = findex(SYMMETRIC, "V")
        rng = np.random.default_rng(7)
        w = rng.integers(-3, 4, size=(4, 4))
        s = w + w.T
        buf = pack(dense_tensor(s), f, {"n": 4})
        assert buf.length == 10
        full = unpack(buf, f, (4, 4), {"n": 4},
                      redmap=prog.redundancy_maps["V"])
        assert reshaped(full).tolist() == s.tolist()

    def test_redundant_image_outside_region_is_an_error(self):
        # V's rank is one polynomial; the region's constraints still guard it
        bad = SYMMETRIC.replace("(x' = y) * (y' = x)", "(x' = x) * (y' = y)")
        prog = parse_program(bad)
        f = findex(SYMMETRIC, "V")
        assert f.rank.single_polynomial() is not None
        buf = pack(dense_tensor(np.eye(4, dtype=np.int64)),
                   f, {"n": 4}, buffer_id=3)
        # the image (x, y) of a point x < y lies outside V's region {y <= x}
        with pytest.raises(IndexingFault, match="index out of range for buffer 3 of V$"):
            unpack(buf, f, (4, 4), {"n": 4}, redmap=prog.redundancy_maps["V"])

    def test_image_between_integer_positions_is_an_error(self):
        # (x, y) -> (y / 2, x) on y >= 2x lands in the region {y' <= x'},
        # on an integer position only where y is even
        rm = parse_program(SYMMETRIC).redundancy_maps["V"]
        x, y = AffineExpr.var("x"), AffineExpr.var("y")
        half = replace(rm, domain=(polyhedra.ge(y - x * 2),),
                       substitution={"x'": y * Fraction(1, 2), "y'": x})
        even = replace(half, domain=half.domain + (polyhedra.modeq(y, 2, 0),))
        f = findex(SYMMETRIC, "V")
        buf = pack(dense_tensor(np.arange(16).reshape(4, 4)), f, {"n": 4})
        assert np.array_equal(unpack(buf, f, (4, 4), {"n": 4}, redmap=even).data,
                              naive_unpack(buf.data, f, (4, 4), {"n": 4}, (0, 1), even))
        with pytest.raises(IndexingFault):
            unpack(buf, f, (4, 4), {"n": 4}, redmap=half)   # (0, 1) -> (1/2, 0)

    @pytest.mark.parametrize("n", [1, 2, 8, 400])
    @pytest.mark.parametrize("axes", [(0, 1), (1, 0)])
    def test_expansion_matches_naive_oracle(self, n, axes):
        # with axes (1, 0) V's region is stored transposed, as its upper
        # triangle, and the map sends the lower one to it
        text = SYMMETRIC if axes == (0, 1) else SYMMETRIC.replace("(x < y)", "(y < x)")
        rm = parse_program(text).redundancy_maps["V"]
        f = findex(SYMMETRIC, "V")
        w = np.random.default_rng(n).integers(-2 ** 61, 2 ** 61, size=(n, n))
        s = w + w.T
        buf = pack(dense_tensor(s), f, {"n": n}, axes=axes)
        want = naive_unpack(buf.data, f, (n, n), {"n": n}, axes, rm)
        assert np.array_equal(want, s.ravel())
        got = unpack(buf, f, (n, n), {"n": n}, axes=axes, redmap=rm)
        assert got.data.dtype == np.int64 and np.array_equal(got.data, want)

    def test_lowered_once(self, monkeypatch):
        rm = parse_program(SYMMETRIC).redundancy_maps["V"]
        f = findex(SYMMETRIC, "V")
        s = np.arange(36).reshape(6, 6)
        s = s + s.T
        unpack(pack(dense_tensor(s[:4, :4]), f, {"n": 4}), f, (4, 4), {"n": 4}, redmap=rm)
        buf = pack(dense_tensor(s), f, {"n": 6})

        def no_lowering(*args, **kwargs):
            raise AssertionError("lowered again")
        for mod in (codegen, polyhedra, runtime):
            for name in ("build_loop_nest", "fm_eliminate", "image"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, no_lowering)
        for name in ("evaluate", "evaluate_many", "substitute"):
            monkeypatch.setattr(PiecewiseQuasiPolynomial, name, no_lowering)
        # an equal map and axes given as a list hit the same lowered copy
        again = parse_program(SYMMETRIC).redundancy_maps["V"]
        got = unpack(buf, f, (6, 6), {"n": 6}, axes=[0, 1], redmap=again)
        assert np.array_equal(got.data, s.ravel())

    # a bound of y besides 0 <= y < n: None, or the offset c of x + c
    _Y_BOUND = st.one_of(st.none(), st.integers(-2, 2))
    _UNIT = st.sampled_from((-1, 0, 1))

    @settings(max_examples=40, deadline=None)
    @given(lo=_Y_BOUND, hi=_Y_BOUND, transpose=st.booleans(),
           dom=st.tuples(_UNIT, _UNIT, st.integers(-3, 3)), n=st.integers(1, 7),
           seed=st.integers(0, 2 ** 16))
    def test_random_maps_match_naive_oracle(self, lo, hi, transpose, dom, n, seed):
        # a region 0 <= x < n, 0 <= y < n, optionally x + lo <= y <= x + hi;
        # the map (x, y) -> (y, x) or (n - 1 - x, y) on a*x + b*y + c >= 0:
        # unpack matches the oracle, or both refuse an image off the region
        x, y = AffineExpr.var("x"), AffineExpr.var("y")
        nn = AffineExpr.var("n")
        ge = polyhedra.ge
        cons = [ge(x), ge(nn - x - 1), ge(y), ge(nn - y - 1)]
        if lo is not None:
            cons.append(ge(y - x - lo))
        if hi is not None:
            cons.append(ge(x + hi - y))
        f = symbolic_indexing(polyhedra.Polyhedron.build(("x", "y"), ("n",), cons), "T")
        a, b, c = dom
        rm = RedundancyMap("T", ("x", "y"), ("x'", "y'"), (ge(x * a + y * b + c),),
                           {"x'": y, "y'": x} if transpose else {"x'": nn - x - 1, "y'": y})
        data = np.random.default_rng(seed).integers(-2 ** 62, 2 ** 62, size=n * n)
        buf = pack(DenseTensor((n, n), data), f, {"n": n})
        try:
            want = naive_unpack(buf.data, f, (n, n), {"n": n}, (0, 1), rm)
        except DomainError:
            with pytest.raises(IndexingFault):
                unpack(buf, f, (n, n), {"n": n}, redmap=rm)
            return
        assert np.array_equal(unpack(buf, f, (n, n), {"n": n}, redmap=rm).data, want)


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

    @pytest.mark.parametrize("backend", [
        "numpy", pytest.param("c", marks=needs_gcc)])
    def test_empty_rule_gathers_in_call_dtype(self, backend):
        # no summand writes A: execute still returns its dense zeros, in
        # the call's dtype, and the gather keeps them
        prog = parse_program(EMPTY)
        shapes = {"A": (6,), "B": (6,), "C": (6,)}
        for level in ("none", "input+output"):
            plan = build_plan(prog, "A", level)
            assert plan.summands == ()
            res = execute(plan, {}, shapes, {}, dtype=np.int64, backend=backend)
            out = gather_output(plan, res, shapes["A"], {})
            assert out.data.dtype == np.int64 and out.data.tolist() == [0] * 6

    def test_gathers_render_the_copies(self):
        # a gather's or a pack's C and the copy walk read one lowering per
        # buffer
        for name, kern in BUILTIN_KERNELS.items():
            program = parse_program(kern.text)
            for level in ("none", "input", "input+output"):
                plan = build_plan(program, kern.rule, level)
                for b, g in [*plan.gathers.items(), *plan.packs.items()]:
                    buf = plan.registry.buffers[b]
                    assert g.program is buf.index.copy(buf.axes, b), (name, level, b)


def record(monkeypatch):
    """Record each run of a summand or a copy (`codegen._run`, as `execute`
    and runtime call it); returns the lists (on C, walked)."""
    on_c, walked, real = [], [], codegen._run

    def counted(sp, lib, *args):
        (walked if lib is None else on_c).append((sp, lib, *args))
        return real(sp, lib, *args)
    for module in (codegen, runtime):
        monkeypatch.setattr(module, "_run", counted)
    return on_c, walked


def builtin_case(name, dtype, n=None):
    """(program, rule, binding, shapes, tensors) of a builtin, every n_*
    symbol at n when given."""
    kern = BUILTIN_KERNELS[name]
    binding = {s: n if n and s.startswith("n_") else x for s, x in kern.defaults.items()}
    shapes = {t: tuple(binding[s] for s in syms) for t, syms in kern.shapes.items()}
    tensors = {t: random_tensor(shapes[t], 40 + k, dtype)
               for k, t in enumerate(sorted(shapes)) if t != kern.rule}
    return parse_program(kern.text), kern.rule, binding, shapes, tensors


@needs_gcc
class TestGather:
    """`gather_output` copies each compressed output buffer on its C
    function where the result ran on C, and on the copy walk otherwise."""

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_backends_agree(self, name, dtype, monkeypatch):
        # every level: the default runs on C, and its result and backend
        # "numpy"'s gather to the reference, bitwise on i64; the same result
        # gathers bitwise alike on both paths
        program, rule, binding, shapes, tensors = builtin_case(name, dtype)
        want = reference_execute(program, rule, shapes,
                                 {t: x.data for t, x in tensors.items()}, binding, dtype)
        on_c, walked = record(monkeypatch)
        for level in ("none", "input", "input+output"):
            plan = build_plan(program, rule, level)
            store = build_store(plan, tensors, binding)
            outs = {}
            for backend in (None, "numpy"):
                res = execute(plan, store, shapes, binding, dtype=dtype, backend=backend)
                assert res.backends == {backend or "c"}
                del on_c[:], walked[:]
                outs[backend] = gather_output(plan, res, shapes[rule], binding).data
                assert len(walked if backend else on_c) == len(res.compressed)
                assert not (on_c if backend else walked)
                if dtype == np.int64:
                    assert np.array_equal(outs[backend], want), (level, backend)
                else:
                    assert np.allclose(outs[backend], want, rtol=1e-12, atol=1e-12)
            if res.compressed:
                walk = gather_output(plan, replace(res, backends=frozenset({"numpy"})),
                                     shapes[rule], binding)
                ran_c = gather_output(plan, replace(res, backends=frozenset({"c"})),
                                      shapes[rule], binding)
                assert np.array_equal(walk.data, ran_c.data), level

    def test_negative_zero_gathers_alike(self):
        # the C gather assigns, as the walk does: a -0.0 in an f64 output
        # buffer stays -0.0 (0.0 + -0.0 would give +0.0)
        program, rule, binding, shapes, tensors = builtin_case("TTM_UT", np.float64, n=6)
        plan = build_plan(program, rule, "input+output")
        res = execute(plan, build_store(plan, tensors, binding), shapes, binding)
        bid, = res.compressed
        res.compressed[bid][::3] = -0.0
        outs = [gather_output(plan, replace(res, backends=frozenset({ran})), shapes[rule],
                              binding).data for ran in ("c", "numpy")]
        assert np.signbit(outs[0]).sum() >= len(res.compressed[bid][::3])
        assert np.array_equal(outs[0].view(np.int64), outs[1].view(np.int64))

    def ttm_ut(self, backend):
        """TTM_UT packed at n=6, run on a backend: (plan, result, shape,
        binding, the output buffer's id)."""
        program, rule, binding, shapes, tensors = builtin_case("TTM_UT", np.int64, n=6)
        plan = build_plan(program, rule, "input+output")
        res = execute(plan, build_store(plan, tensors, binding), shapes, binding,
                      dtype=np.int64, backend=backend)
        bid, = res.compressed
        return plan, res, shapes[rule], binding, bid

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    @pytest.mark.parametrize("fault", ["short", "shape"])
    def test_faults_on_both_paths(self, fault, backend):
        # A's buffer one slot short (a rank past it), or a dense shape too
        # small for the region
        plan, res, shape, binding, bid = self.ttm_ut(backend)
        if fault == "short":
            res.compressed[bid] = res.compressed[bid][:-1]
            match = f"index out of range for buffer {bid} of A$"
        else:
            shape, match = (6, 6, 5), "an index of A leaves its dense extent"
        with pytest.raises(IndexingFault, match=match):
            gather_output(plan, res, shape, binding)

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_coverage_mismatch_raises(self, backend, monkeypatch):
        # output buffers allocated one slot longer than their size: execute
        # runs, and the gather finds a slot that no rank reaches
        real = codegen.buffer_length
        monkeypatch.setattr(codegen, "buffer_length", lambda index, b: real(index, b) + 1)
        plan, res, shape, binding, bid = self.ttm_ut(backend)
        n = len(res.compressed[bid]) - 1
        with pytest.raises(IndexingFault, match=f"^{n} of {n + 1} slots of A visited; "
                                                "rank map does not cover the buffer$"):
            gather_output(plan, res, shape, binding)

    def test_other_dtypes_gather_on_numpy(self, monkeypatch):
        # float32 has no C build: its result gathers on the walk, even one
        # that claims to have run on C
        program, rule, binding, shapes, tensors = builtin_case("TTM_UT", np.float32)
        plan = build_plan(program, rule, "input+output")
        res = execute(plan, build_store(plan, tensors, binding), shapes, binding,
                      dtype=np.float32)
        assert res.backends == {"numpy"}
        on_c, _ = record(monkeypatch)
        want = gather_output(plan, res, shapes[rule], binding)
        got = gather_output(plan, replace(res, backends=frozenset({"c"})), shapes[rule],
                            binding)
        assert on_c == [] and got.data.dtype == np.float32
        assert np.array_equal(got.data, want.data)


def signed_values(rng, n, dtype):
    """n values of a dtype: int64 over most of its range, or float64 with
    about a quarter of them -0.0."""
    if dtype == np.int64:
        return rng.integers(-2 ** 62, 2 ** 62, size=n)
    data = rng.uniform(-1.0, 1.0, size=n)
    data[rng.random(n) < 0.25] = -0.0
    return data


class TestPackOnC:
    """`pack` given a plan copies each input buffer by its C function
    (`KernelPlan.packs`) where `execute` would run C, and on the walk
    otherwise; `build_store` packs through the plan, and it, `execute`
    and `gather_output` pick C or the walk by one rule."""

    @needs_gcc
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_matches_walk(self, dtype, monkeypatch):
        # every input buffer of the oracle cases: bitwise the walk's, -0.0
        # included, or the walk's IndexingFault message
        on_c, walked = record(monkeypatch)
        rng = np.random.default_rng(29)
        seen, faults = set(), 0
        for label, plan, b, binding, shape in oracle_cases():
            if b.id not in plan.packs:
                continue
            tensor = DenseTensor(shape, signed_values(rng, math.prod(shape), dtype))
            args = (tensor, b.index, binding)
            kwargs = dict(axes=b.axes, buffer_id=b.id)
            try:
                want = pack(*args, **kwargs).data
            except IndexingFault as e:
                want = e
            del on_c[:], walked[:]
            if isinstance(want, IndexingFault):
                with pytest.raises(IndexingFault) as fault:
                    pack(*args, **kwargs, plan=plan)
                assert str(fault.value) == str(want), label
                assert len(on_c) == 1 and walked == [], label
                faults += 1
                continue
            got = pack(*args, **kwargs, plan=plan).data
            assert len(on_c) == 1 and walked == [], label
            assert got.dtype == dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), label
            if len(got):
                covers(seen, label, b.index, b.axes)
        assert seen >= {"BANDS", "permuted", "piecewise", "fixed"}
        assert faults > 0   # size 1 puts some regions outside their shapes
        if dtype == np.float64:
            assert np.signbit(got).any()

    @needs_gcc
    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_store_backends_agree(self, name, monkeypatch):
        # by default every input buffer packs on C, with "numpy" on the
        # walk, bitwise alike
        program, rule, binding, shapes, tensors = builtin_case(name, np.float64)
        on_c, walked = record(monkeypatch)
        for level in ("none", "input", "input+output"):
            plan = build_plan(program, rule, level)
            stores = {}
            for backend in (None, "c", "numpy"):
                del on_c[:], walked[:]
                stores[backend] = build_store(plan, tensors, binding, backend=backend)
                assert len(walked if backend == "numpy" else on_c) == len(plan.packs)
                assert not (on_c if backend == "numpy" else walked)
            for backend in ("c", "numpy"):
                assert stores[backend].keys() == stores[None].keys()
                for k, data in stores[None].items():
                    assert np.array_equal(data.view(np.int64),
                                          stores[backend][k].view(np.int64)), (level, k)

    def callers(self, why, tmp_path, monkeypatch):
        """SpMV_UT packed at both ends through build_store, execute and
        gather_output, as `why` has it: per caller, the runs it made (on
        C, walked) and what it returned; and the same three all on the
        walk."""
        dtype = {"float32": np.float32, "i64": np.int64}.get(why, np.float64)
        program, rule, binding, shapes, tensors = builtin_case("SpMV_UT", dtype)
        plan = build_plan(program, rule, "input+output")
        store = build_store(plan, tensors, binding, backend="numpy")
        res = execute(plan, store, shapes, binding, dtype=dtype, backend="numpy")
        want = [store, res, gather_output(plan, res, shapes[rule], binding).data]
        if why == "no gcc":
            monkeypatch.setenv("PATH", str(tmp_path))
        backend = "numpy" if why == "numpy" else None

        def strided(x):   # the same values, every other one of a longer array
            return np.repeat(x, 2)[::2] if why == "strided" else x
        tensors = {t: DenseTensor(x.shape, strided(x.data)) for t, x in tensors.items()}
        on_c, walked = record(monkeypatch)
        runs, got = [], []

        def ran(result):
            runs.append((len(on_c), len(walked)))
            got.append(result)
            del on_c[:], walked[:]
        ran(build_store(plan, tensors, binding, backend=backend))
        store = {k: strided(x) for k, x in got[0].items()}
        ran(execute(plan, store, shapes, binding, dtype=dtype, backend=backend))
        # but for backend "numpy", a result that claims to have run on C:
        # the gather's own rule decides
        res = got[1] if why == "numpy" else replace(
            got[1], compressed={k: strided(x) for k, x in got[1].compressed.items()},
            backends=frozenset({"c"}))
        ran(gather_output(plan, res, shapes[rule], binding).data)
        return plan, runs, got, want

    @pytest.mark.parametrize("why", ["no gcc", "float32", "numpy", "strided"])
    def test_walks_where_c_does_not_run(self, why, tmp_path, monkeypatch):
        # each caller walks every copy or summand, bitwise as all-walk does
        plan, runs, got, want = self.callers(why, tmp_path, monkeypatch)
        assert runs == [(0, len(plan.packs)), (0, len(plan.summands)), (0, len(plan.gathers))]
        assert len(plan.packs) > 0 and len(plan.gathers) > 0
        assert got[1].backends == {"numpy"}
        assert all(np.array_equal(got[0][k], want[0][k]) for k in want[0])
        assert all(np.array_equal(got[1].compressed[k], want[1].compressed[k])
                   for k in want[1].compressed)
        assert np.array_equal(got[2], want[2])

    @needs_gcc
    @pytest.mark.parametrize("why", ["f64", "i64"])
    def test_runs_on_c_with_gcc(self, why, tmp_path, monkeypatch):
        # each caller runs every copy or summand on C; its results equal the
        # walk's: bitwise for copies and on i64, within rounding on f64
        plan, runs, got, want = self.callers(why, tmp_path, monkeypatch)
        assert runs == [(len(plan.packs), 0), (len(plan.summands), 0), (len(plan.gathers), 0)]
        assert got[1].backends == {"c"}
        assert all(np.array_equal(got[0][k].view(np.int64), want[0][k].view(np.int64))
                   for k in want[0])

        def close(a, b):
            return np.array_equal(a, b) if why == "i64" else np.allclose(a, b, rtol=1e-12,
                                                                         atol=1e-12)
        assert all(close(got[1].compressed[k], want[1].compressed[k])
                   for k in want[1].compressed)
        assert close(got[2], want[2])

    def test_backend_c_without_gcc_raises(self, tmp_path, monkeypatch):
        program, rule, binding, shapes, tensors = builtin_case("SpMV_UT", np.float64)
        monkeypatch.setenv("PATH", str(tmp_path))   # no gcc there
        for level in ("none", "input"):
            with pytest.raises(CodegenError, match="backend 'c' needs a C compiler"):
                build_store(build_plan(program, rule, level), tensors, binding, backend="c")


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
