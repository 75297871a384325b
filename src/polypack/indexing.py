"""Compressed index functions and buffer assignment.

For each tensor access, the accessed region is the image of the iteration
space under the access map; its lexicographic rank (a piecewise polynomial)
indexes a dense 1-d buffer holding exactly the region's values.  Accesses
whose regions provably coincide share one buffer; distinct regions of a
tensor must be provably disjoint, otherwise the whole tensor falls back to a
dense uncompressed layout (the safe path when regions partially overlap).
`hoist_schedule` splits an access's index, as an integer polynomial, by
loop level, so each part is computed at the outermost level it can be.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

from .counting import QuasiPolynomial, count_points, fuse_piecewise, pqp_add, pqp_constant
from .polyhedra import (
    GE0, AccessMap, AffineExpr, Polyhedron, _empty_cache, ge, image, implies,
    int_form, is_empty, iteration_space, preceding_slices,
)


@dataclass(frozen=True)
class IndexFunction:
    """Bijection from a region's points onto 0..size-1 in lexicographic order."""

    tensor: str
    accessed: Polyhedron
    rank: object   # PiecewiseQuasiPolynomial over accessed.dims + params
    size: object   # PiecewiseQuasiPolynomial over params only
    # the alias proof (`identity_extents`): per tensor axis, the
    # AffineExprs over params whose least is the axis's extent; None
    # without a proof
    extents: tuple = None

    @cached_property
    def int_extents(self):
        """`extents` as integer polys (`polyhedra.int_form`), which
        `poly_values` evaluates."""
        return tuple(tuple(map(int_form, us)) for us in self.extents)

    def lowered_copy(self, axes, bid, redmap=None):
        """(nest, statement, program) of a copy, lowered once per (axes,
        buffer id, map) by value and cached here: pack, unpack and the
        plan's gathers (`KernelPlan.gathers`) read the same lowering."""
        key, copies = (tuple(axes), bid, redmap), self.__dict__.setdefault("copies", {})
        if key not in copies:
            from .codegen import _program, copy_statement  # codegen imports this module
            nest, stmt = copy_statement(self, *key)
            copies[key] = nest, stmt, _program(nest, stmt)
        return copies[key]


def _positivity(params):
    return Polyhedron.build(
        (), tuple(params),
        [ge(AffineExpr.var(p) - AffineExpr.constant(1)) for p in params])


def symbolic_indexing(accessed, tensor):
    """Rank and size over one accessed region (an access's `image`).

    rank sums the point counts of the region's preceding slices and fuses
    the pieces; size counts the whole region with all symbols positive.
    """
    total = None
    for s in preceding_slices(accessed):
        c = count_points(s, context=accessed)
        total = c if total is None else pqp_add(total, c)
    if total is None:  # zero-dim access: rank is identically 0
        total = pqp_constant(0, accessed)
    rank = fuse_piecewise(total)
    size = count_points(accessed, context=_positivity(accessed.params))
    return IndexFunction(tensor, accessed, rank, size)


def identity_extents(index, axes, order):
    """The alias proof of a buffer of a tensor of `order` axes whose region
    dim p reads tensor axis axes[p], or None.

    It holds where the axes are in order, the region lies in a box
    0 <= x_a <= U_a - 1 with each U_a over params only, and every rank
    piece is the row-major offset over the box, sum_a x_a * prod_{b>a} U_b,
    as a polynomial identity (never sampled).  It returns, per axis, the
    bounds U_a whose least is the axis's extent: the first axis's is not in
    the offset, so it keeps every bound the region has (SpMV_UT's A lies
    below n_i and n_j), and each later axis keeps the one the identity holds
    with.  At a binding where every extent is the tensor's and the buffer
    holds as many values as the tensor (`runtime.aliases`), the region is
    the whole box, and the buffer is the tensor in row-major order.
    """
    region = index.accessed
    if axes != tuple(range(order)):
        return None
    bounds = []
    for d in region.dims:
        x = AffineExpr.var(d)
        ups = tuple(c.expr + x + AffineExpr.constant(1) for c in region.constraints
                    if c.kind == GE0 and c.expr.coeff(d) == -1
                    and c.variables() - {d} <= set(region.params))
        if not ups:
            return None
        bounds.append(ups)
    xs = [QuasiPolynomial.var(d) for d in region.dims]

    def row_major(later):
        us = [QuasiPolynomial.from_affine(u) for u in later]
        offset = sum((x * math.prod(us[a:], start=QuasiPolynomial.constant(1))
                      for a, x in enumerate(xs)), QuasiPolynomial())
        return all(poly == offset for _, poly in index.rank.pieces)
    # the lower bounds last: `implies` is the dearest test
    later = next(filter(row_major, itertools.product(*bounds[1:])), None)
    if later is None or not all(implies(region.constraints, ge(AffineExpr.var(d)))
                                for d in region.dims):
        return None
    return (*bounds[:1], *((u,) for u in later))


# ---------------------------------------------------------------------------
# Region comparison (tensor-coordinate space)


def _canonical_region(img, index_names):
    """The region in tensor coordinates, dims ordered by axis.

    Registry decisions (share / keep apart / demote) must not depend on
    which iterators an access happens to use: X(i, j) and X(j, i) can name
    the same cells.  Axis-canonical form makes the comparison honest.
    """
    mapping = {d: f"@{index_names.index(d)}" for d in img.dims}
    renamed = img.rename(mapping)
    dims = tuple(sorted(renamed.dims, key=lambda d: int(d[1:])))
    return Polyhedron.build(dims, renamed.params, renamed.constraints)


def regions_equal(a, b):
    """Syntactic equality, then mutual implication; equality that is not
    proved counts as inequality, so the registry keeps the regions apart
    or demotes the tensor rather than share one layout between them."""
    if a.dims != b.dims:
        return False
    if frozenset(a.constraints) == frozenset(b.constraints):
        return True
    return (all(implies(b.constraints, c) for c in a.constraints)
            and all(implies(a.constraints, c) for c in b.constraints))


# ---------------------------------------------------------------------------
# Buffer registry


@dataclass(frozen=True)
class Buffer:
    id: int
    tensor: str
    layout: str            # "compressed" | "dense"
    accessed: Polyhedron   # None for dense
    axes: tuple            # tensor axis feeding each accessed dim; None for dense
    index: IndexFunction   # None for dense
    reason: str = None


@dataclass(frozen=True)
class BufferRegistry:
    buffers: tuple
    assignment: dict       # (summand index, slot) -> buffer id; slot "out"/"in<k>"

    def dump(self):
        lines = []
        for b in self.buffers:
            if b.layout == "dense":
                lines.append(f"tensor={b.tensor} id={b.id} dense reason={b.reason}")
                continue
            order = b.accessed.dims
            domain = " and ".join(str(c) for c in b.accessed.constraints)
            alias = "" if b.index.extents is None else " alias=({})".format(", ".join(
                str(us[0]) if len(us) == 1 else f"min({', '.join(map(str, us))})"
                for us in b.index.extents))
            lines.append(
                f"tensor={b.tensor} id={b.id} size={b.index.size.to_str(order)} "
                f"rank={b.index.rank.to_str(order)} domain={domain}{alias}")
        return "\n".join(lines)


def build_registry(summands):
    """Assign every access of every summand to a buffer.

    Equal regions share; unequal regions of one tensor must be provably
    disjoint or the tensor is demoted to a dense layout for all accesses
    (reason "partial-overlap").  A tensor with an access region that FM
    projected inexactly (`Polyhedron.exact` unset: the region may hold
    points no iteration reaches) is demoted too (reason
    "inexact-projection").  Index functions, each with its alias proof
    (`identity_extents`), are only computed for regions that survive as
    compressed buffers.  The emptiness cache is cleared first, so it holds
    one build's systems at most.
    """
    _empty_cache.clear()
    drafts = []      # per future buffer: dict of the data needed later
    assignment = {}
    by_tensor = {}
    demoted = {}     # tensor -> reason

    for si, s in enumerate(summands):
        space = iteration_space(s)
        slots = [("out", s.output)] + [(f"in{k}", a) for k, a in enumerate(s.inputs)]
        for slot, acc in slots:
            img = image(space, AccessMap.from_indices(space.dims, acc.index_names))
            if not img.exact:
                demoted[acc.tensor] = "inexact-projection"
            canon = _canonical_region(img, acc.index_names)
            hit = None
            for bi in by_tensor.get(acc.tensor, []):
                if regions_equal(drafts[bi]["canon"], canon):
                    hit = bi
                    break
            if hit is None:
                hit = len(drafts)
                drafts.append({
                    "tensor": acc.tensor, "img": img, "canon": canon,
                    "axes": tuple(acc.index_names.index(d) for d in img.dims),
                    "order": len(acc.index_names),
                })
                by_tensor.setdefault(acc.tensor, []).append(hit)
            assignment[(si, slot)] = hit

    for tensor, idxs in by_tensor.items():
        for x in range(len(idxs)):
            for y in range(x + 1, len(idxs)):
                a, b = drafts[idxs[x]]["canon"], drafts[idxs[y]]["canon"]
                # disjoint only when proved so: unknown counts as overlapping
                if a.dims != b.dims or not is_empty(a.constraints + b.constraints):
                    demoted.setdefault(tensor, "partial-overlap")

    buffers = []
    remap = {}
    dense_id = {}
    for bi, d in enumerate(drafts):
        if d["tensor"] in demoted:
            if d["tensor"] not in dense_id:
                dense_id[d["tensor"]] = len(buffers)
                buffers.append(Buffer(
                    id=len(buffers), tensor=d["tensor"], layout="dense",
                    accessed=None, axes=None, index=None, reason=demoted[d["tensor"]]))
            remap[bi] = dense_id[d["tensor"]]
            continue
        ix = symbolic_indexing(d["img"], d["tensor"])
        ix = replace(ix, extents=identity_extents(ix, d["axes"], d["order"]))
        remap[bi] = len(buffers)
        buffers.append(Buffer(
            id=len(buffers), tensor=d["tensor"], layout="compressed",
            accessed=ix.accessed, axes=d["axes"], index=ix))

    assignment = {key: remap[bi] for key, bi in assignment.items()}
    return BufferRegistry(tuple(buffers), assignment)


# ---------------------------------------------------------------------------
# Loop-invariant hoisting


def hoist_schedule(poly, dims):
    """Split an integer poly (`counting.int_poly`'s form) by loop level.

    Returns (root, levels): root holds the monomials that read no dim, so
    it hoists above all loops; levels[k] holds (exponent, coefficient)
    pairs for dims[k], by rising exponent, from the monomials whose deepest
    dim is dims[k], each coefficient an integer poly over the params and
    the dims before k.  root plus every coefficient * dims[k]**exponent is
    the poly again.  A monomial's other factors keep their order, and each
    coefficient's monomials keep their order in the poly.
    """
    depth = {d: k for k, d in enumerate(dims)}
    root, parts = [], [{} for _ in dims]
    for c, mono in poly:
        k = max((depth[v] for v, _ in mono if v in depth), default=None)
        if k is None:
            root.append((c, mono))
            continue
        e = sum(x for v, x in mono if v == dims[k])
        rest = tuple(f for f in mono if f[0] != dims[k])
        parts[k].setdefault(e, []).append((c, rest))
    return tuple(root), tuple(tuple((e, tuple(p)) for e, p in sorted(ps.items()))
                              for ps in parts)
