"""Counting engine tests.

Every closed form asserted here is first established by the brute-force
enumerator from the polyhedra module (or by direct summation); symbolic
results must reproduce those numbers exactly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypack import counting
from polypack.counting import (
    CountingError, DegreeOverflowError, DomainError, PeriodicCountError,
    PiecewiseQuasiPolynomial, QuasiPolynomial, count_points, faulhaber_sum,
    fuse_piecewise, power_sum, pqp_add, pqp_constant,
)
from polypack.polyhedra import (
    AffineExpr, Polyhedron, PolyhedronError, UnboundedError, enumerate_points,
    eq, ge, modeq, preceding_slices,
)


def v(name):
    return AffineExpr.var(name)


def k(c):
    return AffineExpr.constant(c)


def q(name):
    return QuasiPolynomial.var(name)


HALF = Fraction(1, 2)


def interval(var="i", n="n"):
    # 0 <= var < n
    return [ge(v(var)), ge(v(n) - v(var) - k(1))]


def lower_triangle(n="n"):
    # 0 <= j <= i < n
    return Polyhedron.build(
        ("i", "j"), (n,),
        [ge(v("i")), ge(v(n) - v("i") - k(1)), ge(v("j")), ge(v("i") - v("j"))])


def brute(dims, params, cons, binding):
    return len(enumerate_points(Polyhedron.build(dims, params, cons), binding))


class TestQuasiPolynomial:
    def test_arithmetic(self):
        p = (q("i") + 1) * (q("i") + 1)
        assert p == q("i").power(2) + 2 * q("i") + 1
        assert (p - p).is_zero

    def test_substitute(self):
        p = q("i").power(2)
        got = p.substitute({"i": q("j") + 1})
        assert got == q("j").power(2) + 2 * q("j") + 1

    def test_substitute_is_simultaneous(self):
        # a swap: substituted one var at a time it would read i*i
        p = q("i") * q("j").power(2)
        assert p.substitute({"i": q("j"), "j": q("i")}) == q("j") * q("i").power(2)

    def test_coeffs_in(self):
        p = q("i").power(2) * q("j") + 2 * q("i") + QuasiPolynomial.constant(3)
        cs = p.coeffs_in("i")
        assert cs[2] == q("j")
        assert cs[1] == QuasiPolynomial.constant(2)
        assert cs[0] == QuasiPolynomial.constant(3)

    def test_evaluate_exact(self):
        p = HALF * q("i") + HALF * q("i").power(2)
        assert p.evaluate({"i": 5}) == Fraction(15)
        assert p.evaluate({"i": 2}) == Fraction(3)

    def test_to_str_orders_by_innermost_var(self):
        p = (q("N") * q("Q") * q("i") - HALF * q("Q") * q("i").power(2)
             + q("Q") * q("j") + q("l"))
        assert p.to_str(("i", "j", "l")) == "N*Q*i - 1/2*Q*i^2 + Q*j + l"

    def test_from_affine(self):
        p = QuasiPolynomial.from_affine(v("i") * 2 + v("j") * -1 + k(3))
        assert p.terms == {(("i", 1),): 2, (("j", 1),): -1, (): 3}


class TestFaulhaber:
    def test_power_sum_closed_forms(self):
        x = q("X")
        assert power_sum(0, x) == x
        assert power_sum(1, x) == HALF * x.power(2) + HALF * x
        assert power_sum(2, x) == (Fraction(1, 3) * x.power(3)
                                   + HALF * x.power(2) + Fraction(1, 6) * x)

    def test_sum_of_ones(self):
        got = faulhaber_sum(QuasiPolynomial.constant(1), "v", k(0), v("u"))
        assert got == q("u") + 1

    def test_sum_of_var(self):
        got = faulhaber_sum(q("v"), "v", k(0), v("u"))
        assert got == HALF * q("u").power(2) + HALF * q("u")

    def test_constant_over_shifted_range(self):
        # sum_{v=i}^{N-1} Q == Q*(N-i), checked against direct summation
        got = faulhaber_sum(q("Q"), "v", v("i"), v("N") - k(1))
        for n in range(1, 11):
            for i in range(n):
                for qq in range(1, 6):
                    want = sum(qq for _ in range(i, n))
                    assert got.evaluate({"N": n, "i": i, "Q": qq}) == want

    def test_negative_bounds(self):
        got = faulhaber_sum(q("v").power(2), "v", k(-3), k(2))
        want = sum(t * t for t in range(-3, 3))
        assert got.evaluate({}) == want

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        lb=st.integers(-10, 10),
        span=st.integers(0, 10),
    )
    def test_matches_direct_summation(self, coeffs, lb, span):
        p = QuasiPolynomial()
        for e, c in enumerate(coeffs):
            p = p + c * q("v").power(e)
        ub = lb + span
        got = faulhaber_sum(p, "v", k(lb), k(ub)).evaluate({})
        want = sum(p.evaluate({"v": t}) for t in range(lb, ub + 1))
        assert got == want

    def test_degree_cap(self):
        with pytest.raises(DegreeOverflowError):
            faulhaber_sum(q("v").power(7), "v", k(0), v("u"))


class TestCountPoints:
    def test_interval_with_context(self):
        p = Polyhedron.build(("i",), ("n",), interval())
        ctx = Polyhedron.build((), ("n",), [ge(v("n") - k(1))])
        got = count_points(p, context=ctx)
        assert len(got.pieces) == 1
        assert got.pieces[0][1] == q("n")
        for n in range(1, 7):
            assert got.evaluate({"n": n}) == n

    def test_interval_total_without_context(self):
        p = Polyhedron.build(("i",), ("n",), interval())
        got = count_points(p)
        assert len(got.pieces) == 2
        assert got.evaluate({"n": 3}) == 3
        assert got.evaluate({"n": 0}) == 0
        assert got.evaluate({"n": -2}) == 0

    def test_triangle_count(self):
        p = lower_triangle()
        ctx = Polyhedron.build((), ("n",), [ge(v("n") - k(1))])
        got = count_points(p, context=ctx)
        assert len(got.pieces) == 1
        assert got.pieces[0][1] == HALF * q("n") + HALF * q("n").power(2)
        for n in range(1, 13):
            want = brute(("i", "j"), ("n",), p.constraints, {"n": n})
            assert got.evaluate({"n": n}) == want

    def test_diagonal_equality(self):
        p = Polyhedron.build(("i", "j"), ("n",),
                             interval() + [eq(v("i") - v("j"))])
        ctx = Polyhedron.build((), ("n",), [ge(v("n") - k(1))])
        got = count_points(p, context=ctx)
        assert len(got.pieces) == 1
        assert got.pieces[0][1] == q("n")

    def test_partial_dims(self):
        # count j within 0 <= i <= j < n, i a parameter; the result depends on i
        p = Polyhedron.build(
            ("j",), ("i", "n"),
            [ge(v("i")), ge(v("j") - v("i")), ge(v("n") - v("j") - k(1))])
        ctx = Polyhedron.build(
            (), ("i", "n"), [ge(v("i")), ge(v("n") - v("i") - k(1))])
        got = count_points(p, context=ctx)
        assert len(got.pieces) == 1
        assert got.pieces[0][1] == q("n") - q("i")
        for n in range(1, 8):
            for i in range(n):
                want = brute(("j",), ("i", "n"),
                             p.constraints, {"n": n, "i": i})
                assert got.evaluate({"n": n, "i": i}) == want

    def test_two_lower_bounds_split(self):
        # max(0, i-2) <= j <= i gives a banded count: i+1 near the edge, then 3
        cons = [ge(v("j")), ge(v("j") - v("i") + k(2)), ge(v("i") - v("j")),
                ge(v("i")), ge(v("n") - v("i") - k(1))]
        p = Polyhedron.build(("j",), ("i", "n"), cons)
        ctx = Polyhedron.build(
            (), ("i", "n"), [ge(v("i")), ge(v("n") - v("i") - k(1))])
        got = count_points(p, context=ctx)
        assert len(got.pieces) == 2
        for n in range(1, 9):
            for i in range(n):
                want = brute(("j",), ("i", "n"), cons, {"n": n, "i": i})
                assert got.evaluate({"n": n, "i": i}) == want
                assert want == (i + 1 if i <= 2 else 3)

    def test_mod_constraint_rejected(self):
        p = Polyhedron.build(("i",), ("n",),
                             interval() + [modeq(v("i"), 2, 0)])
        with pytest.raises(PeriodicCountError):
            count_points(p)

    def test_non_unit_coefficient_rejected(self):
        p = Polyhedron.build(("j",), ("n",),
                             [ge(v("j")), ge(v("n") - v("j") * 2)])
        with pytest.raises(PeriodicCountError):
            count_points(p)

    def test_non_unit_equality_rejected(self):
        # 2*j = i fixes j only at even i: no polynomial counts it
        p = Polyhedron.build(("j",), ("i", "n"),
                             interval("j") + [eq(v("j") * 2 - v("i"))])
        with pytest.raises(PeriodicCountError, match=r"equality with coefficient 2 on j"):
            count_points(p)

    def test_unbounded_rejected(self):
        p = Polyhedron.build(("i",), (), [ge(v("i"))])
        with pytest.raises(CountingError):
            count_points(p)

    def test_empty_region_yields_total_zero(self):
        p = Polyhedron.build(("i",), ("n",),
                             interval() + [ge(-v("i") - k(1))])
        got = count_points(p)
        assert got.evaluate({"n": 4}) == 0


class TestPiecewiseArithmetic:
    def context_j(self):
        return Polyhedron.build(("j",), (), [ge(v("j"))])

    def piece(self, cons, poly, ctx):
        dom = Polyhedron.build((), ctx.dims + ctx.params, cons)
        return (dom, poly)

    def test_add_requires_same_context(self):
        ctx = self.context_j()
        other = Polyhedron.build(("j",), (), [ge(v("j") - k(1))])
        a = pqp_constant(1, ctx)
        b = pqp_constant(2, other)
        with pytest.raises(CountingError):
            pqp_add(a, b)

    def test_add_identity(self):
        ctx = self.context_j()
        t = PiecewiseQuasiPolynomial(
            (self.piece([ge(v("j") - k(1))], q("j"), ctx),
             self.piece([eq(v("j"))], QuasiPolynomial.constant(0), ctx)),
            ctx)
        got = pqp_add(t, pqp_constant(0, ctx))
        # the all-zero piece is absorbed during normalization
        assert len(got.pieces) == 1
        assert got.pieces[0][1] == q("j")

    def test_evaluate_outside_domain(self):
        ctx = self.context_j()
        t = pqp_constant(7, ctx)
        assert t.evaluate({"j": 3}) == 7
        with pytest.raises(DomainError):
            t.evaluate({"j": -1})

    def test_evaluate_non_integer(self):
        ctx = self.context_j()
        t = PiecewiseQuasiPolynomial(
            (self.piece([], HALF * q("j"), ctx),), ctx)
        assert t.evaluate({"j": 4}) == 2
        with pytest.raises(CountingError):
            t.evaluate({"j": 3})

    def test_substitute_guards_the_image(self):
        # j over 0 <= j < n, read at j = 2*i - 3 for i in [0, 9]: defined
        # where the image lies inside the old context
        ctx = Polyhedron.build(("j",), ("n",), interval("j"))
        t = PiecewiseQuasiPolynomial((self.piece([], q("j") * 3, ctx),), ctx)
        assert t.single_polynomial() == q("j") * 3
        at = Polyhedron.build(("i",), ("n",), [ge(v("i")), ge(k(9) - v("i"))])
        got = t.substitute({"j": v("i") * 2 - k(3)}, at)
        assert got.context == at and got.single_polynomial() is None
        for i in range(10):
            if i < 2 or i > 3:   # an image below 0 or at n and above
                with pytest.raises(DomainError):
                    got.evaluate({"i": i, "n": 5})
            else:
                assert got.evaluate({"i": i, "n": 5}) == 3 * (2 * i - 3)


class TestFusion:
    def context_j(self, extra=()):
        return Polyhedron.build(("j",), ("n",),
                                [ge(v("j")), ge(v("n") - v("j") - k(1))] + list(extra))

    def piece(self, cons, poly, ctx):
        dom = Polyhedron.build((), ctx.dims + ctx.params, cons)
        return (dom, poly)

    def test_fuses_vanishing_difference(self):
        ctx = self.context_j()
        t = PiecewiseQuasiPolynomial(
            (self.piece([ge(v("j") - k(1))], q("j"), ctx),
             self.piece([eq(v("j"))], QuasiPolynomial.constant(0), ctx)),
            ctx)
        got = fuse_piecewise(t)
        assert len(got.pieces) == 1
        assert got.pieces[0][1] == q("j")
        assert got.pieces[0][0].constraints == ()

    def test_does_not_fuse_mismatched_pieces(self):
        ctx = self.context_j()
        t = PiecewiseQuasiPolynomial(
            (self.piece([ge(v("j") - k(1))], q("j"), ctx),
             self.piece([eq(v("j"))], QuasiPolynomial.constant(1), ctx)),
            ctx)
        got = fuse_piecewise(t)
        assert len(got.pieces) == 2

    def test_fuses_equal_polynomials_with_exact_union(self):
        ctx = self.context_j()
        t = PiecewiseQuasiPolynomial(
            (self.piece([ge(k(1) - v("j"))], q("j"), ctx),
             self.piece([ge(v("j") - k(2))], q("j"), ctx)),
            ctx)
        got = fuse_piecewise(t)
        assert len(got.pieces) == 1
        assert got.pieces[0][1] == q("j")

    def test_union_guard_blocks_gappy_merge(self):
        ctx = self.context_j()
        t = PiecewiseQuasiPolynomial(
            (self.piece([eq(v("j"))], QuasiPolynomial.constant(1), ctx),
             self.piece([eq(v("j") - k(2))], QuasiPolynomial.constant(1), ctx)),
            ctx)
        got = fuse_piecewise(t)
        assert len(got.pieces) == 2

    def literal_pieces(self):
        """j*(j - 1) on 0 <= j <= 1 beside 0 on 2 <= j <= 3, with no
        symbol: the difference vanishes only point by point."""
        ctx = Polyhedron.build(("j",), (), [ge(v("j")), ge(k(3) - v("j"))])
        return PiecewiseQuasiPolynomial(
            (self.piece([ge(k(1) - v("j"))],
                        q("j") * (q("j") - QuasiPolynomial.constant(1)), ctx),
             self.piece([ge(v("j") - k(2))], QuasiPolynomial(), ctx)),
            ctx)

    def test_fuses_literal_domain_by_enumeration(self):
        got = fuse_piecewise(self.literal_pieces())
        assert len(got.pieces) == 1
        assert got.pieces[0][1].is_zero

    @pytest.mark.parametrize("refusal", [
        PolyhedronError("enumeration box too large"),
        UnboundedError("unbounded under binding"), MemoryError()])
    def test_refused_enumeration_keeps_pieces_apart(self, monkeypatch, refusal):
        def refuse(poly, binding):
            raise refusal
        monkeypatch.setattr(counting, "enumerate_points", refuse)
        assert len(fuse_piecewise(self.literal_pieces()).pieces) == 2

    def test_enumeration_fault_propagates(self, monkeypatch):
        """Only a refused box means "does not vanish"; any other error is a
        fault and leaves fusion."""
        def broken(poly, binding):
            raise TypeError("broken enumerator")
        monkeypatch.setattr(counting, "enumerate_points", broken)
        with pytest.raises(TypeError, match="broken enumerator"):
            fuse_piecewise(self.literal_pieces())


def rank_of(accessed):
    """Lexicographic rank of a region: fold the preceding-slice counts."""
    ctx = accessed
    total = None
    for s in preceding_slices(accessed):
        c = count_points(s, context=ctx)
        total = c if total is None else pqp_add(total, c)
    return total


class TestLexicographicRank:
    def test_lower_triangle_rank_pieces(self):
        acc = lower_triangle()
        rank = rank_of(acc)
        assert len(rank.pieces) == 2
        by_guard = {str(dom): poly for dom, poly in rank.pieces}
        base = HALF * q("i") + HALF * q("i").power(2)
        polys = {str(p) for p in by_guard.values()}
        assert str(base) in polys
        assert str(base + q("j")) in polys
        fused = fuse_piecewise(rank)
        assert len(fused.pieces) == 1
        assert fused.pieces[0][1] == base + q("j")
        assert fused.evaluate({"n": 3, "i": 2, "j": 1}) == 4
        with pytest.raises(DomainError):
            fused.evaluate({"n": 3, "i": 0, "j": 1})

    def test_lower_triangle_rank_is_lex_position(self):
        acc = lower_triangle()
        fused = fuse_piecewise(rank_of(acc))
        for n in range(1, 8):
            pts = enumerate_points(acc, {"n": n})
            ranks = fused.evaluate_many(pts, {"n": n})
            assert list(ranks) == list(range(len(pts)))

    def test_prism_rank_single_piece(self):
        # 0<=i<M, i<=j<N, 0<=l<Q; ranks fuse into one polynomial
        acc = Polyhedron.build(
            ("i", "j", "l"), ("M", "N", "Q"),
            [ge(v("i")), ge(v("M") - v("i") - k(1)),
             ge(v("j") - v("i")), ge(v("N") - v("j") - k(1)),
             ge(v("l")), ge(v("Q") - v("l") - k(1))])
        fused = fuse_piecewise(rank_of(acc))
        assert len(fused.pieces) == 1
        want = (q("N") * q("Q") * q("i") - HALF * q("Q") * q("i")
                - HALF * q("Q") * q("i").power(2) + q("Q") * q("j") + q("l"))
        assert fused.pieces[0][1] == want
        for m, n, qq in [(3, 3, 2), (2, 4, 3), (5, 3, 2), (1, 1, 1)]:
            b = {"M": m, "N": n, "Q": qq}
            pts = enumerate_points(acc, b)
            ranks = fused.evaluate_many(pts, b)
            assert list(ranks) == list(range(len(pts)))

    def test_diagonal_rank(self):
        acc = Polyhedron.build(("i", "j"), ("n",),
                               interval() + [eq(v("i") - v("j"))])
        rank = fuse_piecewise(rank_of(acc))
        assert len(rank.pieces) == 1
        assert rank.pieces[0][1] == q("i")
        for n in range(1, 7):
            pts = enumerate_points(acc, {"n": n})
            assert list(rank.evaluate_many(pts, {"n": n})) == list(range(n))

    def test_banded_rank_bijection(self):
        # max(0, i-2) <= j <= i: multi-piece rank, still a lex bijection
        acc = Polyhedron.build(
            ("i", "j"), ("n",),
            [ge(v("i")), ge(v("n") - v("i") - k(1)), ge(v("j")),
             ge(v("j") - v("i") + k(2)), ge(v("i") - v("j"))])
        fused = fuse_piecewise(rank_of(acc))
        for n in range(1, 9):
            pts = enumerate_points(acc, {"n": n})
            ranks = fused.evaluate_many(pts, {"n": n})
            assert list(ranks) == list(range(len(pts)))

    def test_evaluate_many_rejects_uncovered(self):
        acc = lower_triangle()
        fused = fuse_piecewise(rank_of(acc))
        with pytest.raises(DomainError):
            fused.evaluate_many(np.array([[0, 1]]), {"n": 3})
