"""Properties of the integer constraint core against the enumerator.

Random 2-3-dim systems with small coefficients (inequalities, maybe an
equality, maybe a mod constraint) inside a parametric box; every claim of
the Fourier-Motzkin core must agree with the points `enumerate_points`
finds at parameter values 1..6.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from polypack.polyhedra import (
    AccessMap, AffineExpr, Constraint, ModBlockedError, Polyhedron,
    enumerate_points, eq, ge, image, implies, is_empty, modeq,
    normalize_constraints,
)

DIMS = ("x", "y", "z")
NS = range(1, 7)
COEF = st.integers(-3, 3)


@st.composite
def affine(draw, names):
    return AffineExpr({d: draw(COEF) for d in names + ("n",)}, draw(st.integers(-4, 4)))


@st.composite
def systems(draw):
    dims = DIMS[:draw(st.integers(2, 3))]
    cons = []
    for d in dims:   # 0 <= d <= n + 2 keeps every system enumerable
        cons += [ge(AffineExpr.var(d)), ge(AffineExpr({d: -1, "n": 1}, 2))]
    cons += draw(st.lists(affine(dims).map(ge), min_size=1, max_size=4))
    if draw(st.booleans()):
        cons.append(eq(draw(affine(dims))))
    if draw(st.booleans()):
        cons.append(modeq(draw(affine(dims)), draw(st.integers(2, 3)), draw(st.integers(0, 2))))
    return Polyhedron.build(dims, ("n",), cons)


def points(poly, n):
    return {tuple(p) for p in enumerate_points(poly, {"n": n}).tolist()}


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rational_infeasibility_is_sound(space):
    if is_empty(space.constraints):
        assert all(not points(space, n) for n in NS)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_implies_is_sound(data):
    space = data.draw(systems())
    c = data.draw(affine(space.dims).map(data.draw(st.sampled_from([ge, eq]))))
    if implies(space.constraints, c):
        for n in NS:
            for p in points(space, n):
                assert c.satisfied({"n": n, **dict(zip(space.dims, p))})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_image_covers_the_projection(data):
    space = data.draw(systems())
    keep = data.draw(st.lists(st.sampled_from(space.dims), min_size=1, unique=True))
    amap = AccessMap.from_indices(space.dims, keep)
    try:
        img = image(space, amap)
    except ModBlockedError:
        return
    at = [space.dims.index(d) for d in amap.selected]
    for n in NS:
        shadow = {tuple(p[i] for i in at) for p in points(space, n)}
        got = points(img, n)
        assert shadow <= got
        if img.exact:
            assert shadow == got


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normalization_is_idempotent(data):
    dims = DIMS[:data.draw(st.integers(2, 3))]
    raw = data.draw(st.lists(st.one_of(
        affine(dims).map(ge), affine(dims).map(eq),
        st.builds(modeq, affine(dims), st.integers(2, 3), st.integers(0, 2))),
        min_size=1, max_size=6))
    once = normalize_constraints(raw)
    # fresh copies carry no row, so this re-derives every normal form
    fresh = [Constraint(c.kind, c.expr, c.modulus, c.residue) for c in once]
    assert normalize_constraints(once) == once
    assert normalize_constraints(fresh) == once


def test_integer_slack_clears_the_exact_flag():
    # x/2 <= y <= (x + 1)/3 has a rational y at x = 1 but no integer one
    space = Polyhedron.build(("x", "y"), ("n",), [
        ge(AffineExpr.var("x")), ge(AffineExpr({"x": -1, "n": 1})),
        ge(AffineExpr({"y": 2, "x": -1})), ge(AffineExpr({"y": -3, "x": 1}, 1))])
    img = image(space, AccessMap.from_indices(space.dims, ["x"]))
    assert not img.exact
    assert (1,) in points(img, 6) and (1,) not in {p[:1] for p in points(space, 6)}
