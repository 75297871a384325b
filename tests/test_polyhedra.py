import sys

import numpy as np
import pytest
from fractions import Fraction

from polypack import codegen, polyhedra
from polypack.cli import BUILTIN_KERNELS
from polypack.polyhedra import (
    AccessMap, AffineExpr, Constraint, Polyhedron,
    UnboundedError, enumerate_points, eq, fm_eliminate, ge, image, implies,
    is_empty, modeq, normalize_constraints, preceding_slices,
)
from polypack.stur import parse_program


def v(name):
    return AffineExpr.var(name)


def c(k):
    return AffineExpr.constant(k)


def box(lo, var, hi_sym):
    """lo <= var < hi_sym"""
    return [ge(v(var) - c(lo)), ge(AffineExpr.var(hi_sym) - v(var) - c(1))]


def diagonal(n="n"):
    return Polyhedron.build(("i", "j"), (n,), box(0, "i", n) + [eq(v("i") - v("j"))])


def upper_triangle(n="n"):
    return Polyhedron.build(
        ("i", "j"), (n,),
        box(0, "i", n) + [ge(v("j") - v("i")), ge(v(n) - v("j") - c(1))])


def ttm_space():
    cons = (box(0, "i", "M") + [ge(v("j") - v("i")), ge(v("N") - v("j") - c(1))]
            + box(0, "k", "P") + box(0, "l", "Q"))
    return Polyhedron.build(("i", "j", "k", "l"), ("M", "N", "P", "Q"), cons)


def as_set(pts):
    return {tuple(int(x) for x in row) for row in pts}


class TestAffineExpr:
    def test_arithmetic_is_exact(self):
        # integer arithmetic stays int; a number that is not an integer
        # raises rather than being truncated
        e = v("i") * 3 + v("j") - c(3)
        twice = e + e
        assert twice.coeff("i") == 6 and type(twice.coeff("i")) is int
        assert twice.const == -6 and type(twice.const) is int
        assert e.coeff("k") == 0
        with pytest.raises(TypeError):
            v("i") * Fraction(1, 2)
        with pytest.raises(TypeError):
            AffineExpr({"i": 0.5})

    def test_substitute(self):
        e = v("i") * 2 + v("j")
        out = e.substitute({"i": v("j") + c(1)})
        assert out == v("j") * 3 + c(2)

    def test_zero_coefficients_not_stored(self):
        e = v("i") - v("i")
        assert e.coeffs == {}


class TestNormalization:
    def test_strict_and_duplicate(self):
        cons = normalize_constraints([ge(v("i")), ge(v("i")), ge(c(1))])
        assert len(cons) == 1

    def test_integer_tightening(self):
        # 2i - 1 >= 0 tightens to i - 1 >= 0 over the integers
        (con,) = normalize_constraints([ge(v("i") * 2 - c(1))])
        assert con.expr == v("i") - c(1)

    def test_infeasible_equality(self):
        cons = normalize_constraints([eq(v("i") * 2 - c(1))])
        assert Polyhedron.build(("i",), (), cons).trivially_empty

    def test_parallel_pruning_keeps_tightest(self):
        cons = normalize_constraints([ge(v("i") - c(1)), ge(v("i") - c(3))])
        assert len(cons) == 1
        assert cons[0].expr == v("i") - c(3)


class TestEnumerate:
    def test_diagonal_n3(self):
        pts = enumerate_points(diagonal(), {"n": 3})
        assert [tuple(p) for p in pts] == [(0, 0), (1, 1), (2, 2)]

    def test_upper_triangle_n2(self):
        pts = enumerate_points(upper_triangle(), {"n": 2})
        assert [tuple(p) for p in pts] == [(0, 0), (0, 1), (1, 1)]

    def test_strided_diagonal_has_4_points(self):
        p = Polyhedron.build(
            ("i", "j"), ("N",),
            box(0, "i", "N") + box(0, "j", "N") + [modeq(v("j") - v("i"), 4, 2)])
        pts = enumerate_points(p, {"N": 4})
        assert len(pts) == 4
        for i, j in as_set(pts):
            assert (j - i) % 4 == 2

    def test_lexicographic_order(self):
        pts = enumerate_points(ttm_space(), {"M": 2, "N": 3, "P": 2, "Q": 2})
        key = [tuple(p) for p in pts]
        assert key == sorted(key)
        assert len(key) == len(set(key))

    def test_missing_binding_rejected(self):
        with pytest.raises(Exception, match="missing"):
            enumerate_points(diagonal(), {})

    def test_unbounded_rejected(self):
        p = Polyhedron.build(("i",), (), [ge(v("i"))])
        with pytest.raises(UnboundedError):
            enumerate_points(p, {})


class TestImage:
    def test_ttm_b_access(self):
        # projecting out k keeps {0<=i<M, i<=j<N, 0<=l<Q}
        acc = image(ttm_space(), AccessMap.from_indices(ttm_space().dims, ("i", "j", "l")))
        assert acc.dims == ("i", "j", "l")
        assert acc.exact
        for b in [{"M": 2, "N": 3, "P": 1, "Q": 2}, {"M": 4, "N": 4, "P": 2, "Q": 1}]:
            expect = {(i, j, l) for (i, j, k, l) in as_set(enumerate_points(ttm_space(), b))}
            got = as_set(enumerate_points(acc, b))
            assert got == expect

    def test_identity_map(self):
        p = upper_triangle()
        out = image(p, AccessMap.from_indices(p.dims, ("i", "j")))
        assert out.dims == p.dims
        for n in range(1, 5):
            assert as_set(enumerate_points(out, {"n": n})) == as_set(enumerate_points(p, {"n": n}))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonal_projection_oracle(self, n):
        out = image(diagonal(), AccessMap.from_indices(("i", "j"), ("j",)))
        assert out.dims == ("j",)
        expect = {(j,) for (i, j) in as_set(enumerate_points(diagonal(), {"n": n}))}
        assert as_set(enumerate_points(out, {"n": n})) == expect

    def test_selection_preserves_source_order(self):
        amap = AccessMap.from_indices(("i", "j", "k", "l"), ("k", "j", "l"))
        assert amap.selected == ("j", "k", "l")

    def test_projection_with_equality_elimination(self):
        # {0<=i<n, i=j} onto (j) is {0<=j<n}
        out = image(diagonal(), AccessMap.from_indices(("i", "j"), ("j",)))
        assert out.exact
        pts = enumerate_points(out, {"n": 5})
        assert [tuple(p) for p in pts] == [(0,), (1,), (2,), (3,), (4,)]


class TestPrecedingSlices:
    def test_ttm_three_slices(self):
        acc = image(ttm_space(), AccessMap.from_indices(ttm_space().dims, ("i", "j", "l")))
        slices = preceding_slices(acc)
        assert len(slices) == 3
        assert slices[0].dims == ("i'", "j'", "l'")
        assert set(acc.dims) <= set(slices[0].params)

    def test_one_dim(self):
        p = Polyhedron.build(("j",), ("n",), box(0, "j", "n"))
        (sl,) = preceding_slices(p)
        pts = enumerate_points(sl, {"n": 6, "j": 4})
        assert [tuple(q) for q in pts] == [(0,), (1,), (2,), (3,)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_disjoint_union_is_preceding_set(self, n):
        acc = upper_triangle()
        slices = preceding_slices(acc)
        pts = enumerate_points(acc, {"n": n})
        for rank, point in enumerate(pts):
            binding = {"n": n, "i": int(point[0]), "j": int(point[1])}
            seen = []
            for sl in slices:
                seen.extend(as_set(enumerate_points(sl, binding)))
            # pairwise disjoint union equals all lexicographically smaller points
            assert len(seen) == len(set(seen))
            expect = {tuple(q) for q in pts[:rank]}
            assert set(seen) == expect

    def test_lower_triangle_cardinality(self):
        # union size at (i,j) is i(i+1)/2 + j
        acc = Polyhedron.build(
            ("i", "j"), ("n",),
            box(0, "i", "n") + [ge(v("j")), ge(v("i") - v("j"))])
        slices = preceding_slices(acc)
        for n in (3, 5):
            for point in enumerate_points(acc, {"n": n}):
                i, j = int(point[0]), int(point[1])
                binding = {"n": n, "i": i, "j": j}
                total = sum(len(enumerate_points(sl, binding)) for sl in slices)
                assert total == i * (i + 1) // 2 + j


class TestEmptiness:
    def test_contradiction(self):
        p = Polyhedron.build(("i",), (), [ge(v("i")), ge(-v("i") - c(1))])
        assert is_empty(p.constraints)

    def test_interval_is_nonempty(self):
        p = Polyhedron.build(("i",), ("n",), box(0, "i", "n"))
        assert not is_empty(p.constraints)
        assert len(enumerate_points(p, {"n": 3})) == 3

    def test_contradiction_after_substitution(self):
        p = Polyhedron.build(
            ("i", "j"), (),
            [eq(v("i") - v("j")), ge(v("j") - v("i") - c(1))])
        assert is_empty(p.constraints)

    def test_implies(self):
        cons = [eq(v("i") - v("j")), ge(v("i"))]
        assert implies(cons, ge(v("j")))
        assert not implies(cons, ge(v("j") - c(1)))

    def test_each_system_is_proved_once_per_registry_build(self, monkeypatch):
        """`is_empty` is the one proof behind implication, disjointness and
        summand infeasibility: between two clears of its cache (one per
        `build_registry`), no normal system reaches Fourier-Motzkin twice.
        `fm_eliminate`'s projections are not proofs and are not counted."""
        seen, again, proofs = set(), [], [0]
        project, build_registry = polyhedra._project, codegen.build_registry

        def recording_project(rows, eliminate):
            if sys._getframe(1).f_code.co_name != "fm_eliminate":
                proofs[0] += 1
                key = tuple(rows)
                if key in seen:
                    again.append(key)
                seen.add(key)
            return project(rows, eliminate)

        def clearing_build_registry(summands):
            seen.clear()
            return build_registry(summands)

        monkeypatch.setattr(polyhedra, "_project", recording_project)
        monkeypatch.setattr(codegen, "build_registry", clearing_build_registry)
        polyhedra._empty_cache.clear()
        for kern in BUILTIN_KERNELS.values():
            codegen.build_plan(parse_program(kern.text), kern.rule, "input+output")
        assert proofs[0] > 0
        assert len(again) == 0, f"{len(again)} systems proved again"


class TestFourierMotzkin:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_triangle_projection_matches_oracle(self, n):
        p = upper_triangle()
        cons, exact = fm_eliminate(p.constraints, ["i"])
        q = Polyhedron.build(("j",), ("n",), cons)
        assert exact
        expect = {(j,) for (i, j) in as_set(enumerate_points(p, {"n": n}))}
        assert as_set(enumerate_points(q, {"n": n})) == expect

    def test_equality_substitution_under_negative_coefficient(self):
        # j - i = 0 written with i leading negative; project out i
        p = Polyhedron.build(
            ("i", "j"), ("n",),
            [eq(v("j") - v("i")), ge(v("i")), ge(v("n") - v("i") - c(1))])
        cons, exact = fm_eliminate(p.constraints, ["i"])
        q = Polyhedron.build(("j",), ("n",), cons)
        assert exact
        assert as_set(enumerate_points(q, {"n": 4})) == {(0,), (1,), (2,), (3,)}

    def test_mod_constraint_left_alone_when_var_kept(self):
        p = Polyhedron.build(
            ("i", "j"), ("N",),
            box(0, "i", "N") + box(0, "j", "N") + [modeq(v("j") - v("i"), 3, 1)])
        cons, exact = fm_eliminate(p.constraints, [])
        assert any(k.kind == "mod" for k in cons)
        assert exact


def test_random_boxes_project_exactly():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ndim = int(rng.integers(2, 4))
        dims = tuple("xyzw"[:ndim])
        cons = []
        for d in dims:
            lo = int(rng.integers(-2, 2))
            hi = lo + int(rng.integers(1, 4))
            cons += [ge(v(d) - c(lo)), ge(c(hi) - v(d))]
        if rng.random() < 0.5 and ndim >= 2:
            cons.append(ge(v(dims[1]) - v(dims[0])))
        p = Polyhedron.build(dims, (), cons)
        keep = tuple(d for d in dims if rng.random() < 0.6) or (dims[0],)
        q = image(p, AccessMap.from_indices(dims, keep))
        expect = {tuple(pt[dims.index(d)] for d in keep) for pt in as_set(enumerate_points(p, {}))}
        assert as_set(enumerate_points(q, {})) == expect
