"""Loop nests, execution plans, and code emission.

A summand's iteration space becomes one nest of levels (loop / fixed /
strided, `_Level`) whose bounds, guards and phases are integer polynomials
from the start; every tensor access's index is one integer polynomial, a
compressed buffer's scaled rank or a dense row-major offset, split once per
plan by loop level (`indexing.hoist_schedule`).  One frontier expander
walks a nest level by level; every value on its frontier is an int64
column with one entry per frontier row, and every column is carried to
the leaves.
Every level is a set of rows: each frontier row has a first value and a
count there (`_ranges`), and one cutter splits the rows into blocks of at
most BLOCK_POINTS points (`_row_blocks`).  Each block drops the points
its level's guards reject and checks the values it keeps against the
dense extents its var indexes, once per block, whatever the level's kind.
Under `execute` the expander carries each access's hoisted index as a
column, adding every level's terms as array operations.
Each compressed index is checked against `len()` of the array it indexes,
so a size polynomial is evaluated only where an array is allocated (a
compressed output's here, once per binding and shapes of a plan in
`_bind`; an input's in `runtime.pack`); every index must fit int64 by its
program's bounds, and every dense input must hold its shape's values,
before anything is allocated.
The walk expands every point and checks each of its indices
(`_leaf_blocks`); equal output indices next to each other are summed
first.  Runs are the C's: an innermost loop without guards on which every
index term is degree 1 with a parameter-only coefficient that is a
multiple of its access's scale (`_Program.run`) is emitted as one checked
base per row and an unchecked inner loop.
Every copy between a buffer and its dense tensor is one statement,
dense T += T_b over the buffer's region (`copy_statement`), lowered once
per buffer (`IndexFunction.lowered_copy`); a compressed output's gather
renders it as one more C function (`KernelPlan.gathers`), and a compressed
input's pack renders it the other way round (`KernelPlan.packs`); a copy
assigns, on C as on the walk, since it writes each slot once.
`build_plan` renders each summand's lowered program once as C
(`SummandPlan.source`): the same integer bounds, guards and
index terms in int64_t, each scaled rank divided exactly and every index
checked, once per row on a run level, each failed check returned as a
status, so C and the walk share one lowering; where a run reduces under a
plain loop, that loop's rows are jammed by JAM over one pass of the
run, each row peeling the ends of its own range around the pass (a
triangle), every output value summing its terms in the same order.  `emit_c`
assembles those texts and `polypack compile` prints them.
Every lowered program, a summand's under `execute` or a copy's under
`runtime.pack`, `unpack` and `gather_output`, runs through one runner
(`_run`): its C function in the plan's library (`native`), or the walk
above, which adds a summand's product or assigns a copy's leaf.  One rule
(`_c_library`) picks C for a call where gcc is on PATH, the plan's
library builds, and every array the call reads and writes has the
output's dtype, float64 or int64, and is C-contiguous; backend "c"
requires C, backend "numpy" the walk.  A parallelizable summand's C
function takes a share of its outermost range as two more bounds on that
level, so a `workers > 1` call can run its shares on threads, wherever
the extents that bound its points give each thread THREAD_POINTS: equal
chunks of that range, CHUNKS a thread, dealt in snake order; the walk
never splits.  The compressed summands and the buffer registry are built
once per (program, rule) and shared by all three compression levels.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import native
from .counting import CountingError, DomainError, int_poly
from .indexing import build_registry, hoist_schedule
from .polyhedra import (
    EQ0, FALSE, GE0, MODEQ, AffineExpr, Polyhedron, PolyhedronError, UnboundedError,
    enumerate_points, fm_eliminate, ge, guards_mask, int_form, int_guard,
    iteration_space, poly_values,
)
from .stur import build_compressed_summands


class CodegenError(ValueError):
    pass


class IndexingFault(RuntimeError):
    """A computed compressed index fell outside its buffer: abort, never clamp."""


# ---------------------------------------------------------------------------
# Loop nests


# A nest level with its bounds, guards and phase in the integer polys of
# `polyhedra.int_form`, whose names are read from the frontier's int64
# columns, else from `env` (parameter values and (tensor, axis) shape
# extents).  kind is "loop", "strided" (var congruent to phase mod stride)
# or "fixed" (a single pass, whose expr is its only lower and upper bound;
# `single` when that expr is integral).  A bound (k, poly) is poly/k,
# rounded inward.  `_program` fills the rest: a term (column, exp, poly)
# adds poly(parent row) * var**exp to the column; extents are the (tensor,
# env name of an axis extent) the level's var indexes in a dense access.
_Level = namedtuple("_Level", "var kind stride lowers uppers phase guards single terms extents")


@dataclass(frozen=True)
class LoopNest:
    dims: tuple
    params: tuple
    levels: tuple          # _Level per dim, outermost first
    guards: tuple          # parameter-only residual constraints, as int_guard
    empty: bool = False


def _level(var, kind, lowers, uppers, guards, stride=1, phase=None):
    """A `_Level` of `_solve` bounds, an AffineExpr phase and Constraint guards."""
    return _Level(var, kind, stride, tuple(lowers), tuple(uppers),
                  None if phase is None else int_form(phase), tuple(map(int_guard, guards)),
                  kind == "fixed" and lowers[0][0] == 1, (), ())


def _solve(c, v):
    """a*v + e (>=|=) 0 as the bound (|a|, poly of -e if a > 0 else e) on v,
    -e/a rounded inward; c is normal, so its coefficients have no common
    factor and |a| is the least scale that makes -e/a an integer poly."""
    a = c.expr.coeff(v)
    rest = c.expr.drop(v)
    return abs(a), int_form(-rest if a > 0 else rest)


def build_loop_nest(space):
    """Per-level bounds from successive projections onto outer dims.

    Every original constraint is enforced: as a bound at the level of its
    deepest dim when the coefficient there is a unit, otherwise as a guard
    at that level.  A side with no unit bound is bounded by its non-unit
    inequalities instead (a non-unit equality bounds both sides and stays a
    guard).  Projections only add implied constraints, so the nest visits
    exactly the space's points in lexicographic order.  Bounds, phases and
    guards are lowered to integer form here, once (`_Level`).
    """
    dims = space.dims
    if space.trivially_empty:
        return LoopNest(dims, space.params, (), (), empty=True)
    projections = []
    for k in range(len(dims)):
        drop = list(reversed(dims[k + 1:]))
        try:
            cons, _ = fm_eliminate(space.constraints, drop)
        except PolyhedronError:
            # mod-blocked projection: keep the constraints that already
            # mention only outer dims; the rest turn into deep guards
            cons = tuple(c for c in space.constraints
                         if not (set(c.expr.variables()) & set(dims[k + 1:])))
        if FALSE in cons:
            return LoopNest(dims, space.params, (), (), empty=True)
        projections.append(cons)

    top_guards = tuple(c for c in (projections[0] if dims else space.constraints)
                       if not (set(c.expr.variables()) & set(dims)))
    levels = []
    for k, v in enumerate(dims):
        on_v = [c for c in projections[k] if c.expr.coeff(v) != 0]
        unit_eqs = [c for c in on_v if c.kind == EQ0 and abs(c.expr.coeff(v)) == 1]
        if unit_eqs:
            c0 = unit_eqs[0]
            guards = tuple(c for c in on_v if c is not c0)
            expr = (_solve(c0, v),)
            levels.append(_level(v, "fixed", expr, expr, guards))
            continue
        lowers, uppers, mods, guards = [], [], [], []
        for c in on_v:
            a = c.expr.coeff(v)
            if c.kind == GE0 and abs(a) == 1:
                (lowers if a > 0 else uppers).append(_solve(c, v))
            elif c.kind == MODEQ and abs(a) == 1:
                mods.append(c)
            else:
                guards.append(c)
        for side, sign in ((lowers, 1), (uppers, -1)):
            if not side:
                bounds = [c for c in guards if c.kind == EQ0
                          or c.kind == GE0 and c.expr.coeff(v) * sign > 0]
                side.extend(_solve(c, v) for c in bounds)
                guards = [c for c in guards if c.kind != GE0 or c not in bounds]
        if not lowers or not uppers:
            raise UnboundedError(f"unbounded iterator {v}")
        if mods:
            c0 = mods[0]
            guards.extend(mods[1:])
            sign = 1 if c0.expr.coeff(v) > 0 else -1
            # a*v + rest === r (mod m)  ->  v === sign*(r - rest) (mod m)
            phase = (AffineExpr.constant(c0.residue) - c0.expr.drop(v)) * sign
            levels.append(_level(v, "strided", lowers, uppers, guards,
                                 int(c0.modulus), phase))
        else:
            levels.append(_level(v, "loop", lowers, uppers, guards))
    return LoopNest(dims, space.params, tuple(levels),
                    tuple(map(int_guard, top_guards)))


# ---------------------------------------------------------------------------
# Frontier expansion

# Most points one enumeration block expands to; a single longer row is
# expanded whole.  Bounds the frontier's memory at any depth.
BLOCK_POINTS = 1 << 13

# Least points per thread, as the extents bound them (`_shares`: twice a
# triangle's points), for a `workers > 1` call to split a summand on C;
# with fewer it runs whole in the calling thread.  SpMV_UT's emitted C in
# chunks on a 2-vCPU guest (f64, min of 15 calls, workers=1 over workers=2):
#   points per thread  62K        1.0M       2.5M       4M         5M         16.8M
#   second vCPU busy   0.29-0.35  0.67-0.70  0.80-1.09  0.81-0.87  0.85-0.93  0.91-1.04
#   second vCPU free   0.27       0.95-1.03  1.18-1.29  1.47-1.52  1.46-1.60  1.72-1.79
# From 2.5M points a thread, where a triangle first splits, a free vCPU
# pays; a busy one pays at no size, so a higher floor would not help it.
THREAD_POINTS = 5_000_000

# Chunks per thread that a split summand's outermost range is cut into
# (`_shares`); even, so that every pass of the snake order is paired with
# one dealt the other way round.
CHUNKS = 8


def _level_range(lv, cols, env):
    """Inclusive [lo, hi] of a level over frontier columns (plain ints when
    no bound reads a column): max of the lowers and min of the uppers, with
    a strided level's lo then moved up to its phase."""
    lo = reduce(np.maximum, [-(-poly_values(p, cols, env) // k) for k, p in lv.lowers])
    hi = reduce(np.minimum, [poly_values(p, cols, env) // k for k, p in lv.uppers])
    if lv.phase is not None:
        lo = lo + (poly_values(lv.phase, cols, env) - lo) % lv.stride
    return lo, hi


def _column(v, n):
    """v as an int64 column of n rows: an int (a value that reads no
    column) repeated, a column as it is."""
    return v if isinstance(v, np.ndarray) else np.full(n, v, dtype=np.int64)


def _ranges(lv, cols, n, env):
    """(lo, counts): int64 columns of a level's first value and number of
    values on each of n frontier rows."""
    if lv.single:
        lo = hi = poly_values(lv.lowers[0][1], cols, env)
    else:
        lo, hi = _level_range(lv, cols, env)
    return _column(lo, n), _column(np.maximum((hi - lo) // lv.stride + 1, 0), n)


def _row_blocks(counts, n):
    """(s, e, starts, m) per block of rows s..e-1 of n rows with `counts`
    points each: m points in all, at most BLOCK_POINTS unless one row is
    longer, each row's first at `starts` in the block."""
    ends = np.cumsum(counts)
    s = done = 0
    while s < n:
        e = n if int(ends[-1]) - done <= BLOCK_POINTS else max(
            int(np.searchsorted(ends, done + BLOCK_POINTS, "right")), s + 1)
        stop = int(ends[e - 1])
        yield s, e, ends[s:e] - counts[s:e] - done, stop - done
        s, done = e, stop


def _expand(levels, cols, n, env, k=0):
    """Expand a frontier of n > 0 rows (cols: name -> int64 column of n
    rows) that has set every level above k, in blocks and in lexicographic
    order.

    Each row is repeated over its level's values (`_ranges`), cut into
    blocks (`_row_blocks`), with every column of the frontier; the level's
    guards drop points, the values kept are checked against the level's
    dense extents once per block, and its terms are added to their
    columns.  Yields (block, m) per innermost block of m points.
    """
    if k == len(levels):
        yield cols, n
        return
    lv = levels[k]
    coefs = [(col, e, _column(poly_values(p, cols, env), n)) for col, e, p in lv.terms]
    lo, counts = _ranges(lv, cols, n, env)
    for s, e, starts, m in _row_blocks(counts, n):
        rows = np.repeat(np.arange(s, e), counts[s:e])
        x = np.repeat(lo[s:e] - starts * lv.stride, counts[s:e])
        x += np.arange(0, m * lv.stride, lv.stride)
        block = {d: c[rows] for d, c in cols.items()}
        block[lv.var] = x
        if lv.guards:
            keep = guards_mask(lv.guards, block, env)
            rows, x = rows[keep], x[keep]
            block = {d: c[keep] for d, c in block.items()}
        if not len(x):
            continue
        if lv.extents:
            least, most = x.min(), x.max()
            for tensor, extent in lv.extents:
                if least < 0 or most >= env[extent]:
                    raise IndexingFault(f"an index of {tensor} leaves its dense extent")
        for col, exp, c in coefs:
            block[col] = block[col] + c[rows] * (x if exp == 1 else x ** exp)
        yield from _expand(levels, block, len(x), env, k + 1)


def dim_ranges(nest, binding):
    """{dim: (least, most)} over a nest's points at a binding, {} when it
    visits none.  On an innermost level without guards only the rows are
    walked, each row's first and last value standing for its points (the
    level's `_ranges`, its empty rows dropped); else every point is.  Each
    dim's range is the least and most of its column over every block."""
    ranges = {}
    if nest.empty or not nest.levels:
        return ranges
    env = {p: int(binding[p]) for p in nest.params if p in binding}
    if not guards_mask(nest.guards, {}, env):
        return ranges
    last = nest.levels[-1]
    inner = last.var
    for block, n in _expand(nest.levels if last.guards else nest.levels[:-1], {}, 1, env):
        if last.guards:
            lo = hi = block[inner]
        else:
            lo, counts = _ranges(last, block, n, env)
            rows = np.flatnonzero(counts)
            if not len(rows):
                continue
            block = {d: c[rows] for d, c in block.items()}
            lo, hi = lo[rows], lo[rows] + (counts[rows] - 1) * last.stride
        for d in nest.dims:
            least, most = (lo, hi) if d == inner else (block[d], block[d])
            least, most = int(least.min()), int(most.max())
            if d in ranges:
                least, most = min(least, ranges[d][0]), max(most, ranges[d][1])
            ranges[d] = least, most
    return ranges


def iter_point_chunks(nest, binding):
    """Yield the visited points in lexicographic order as int64 matrices
    (columns = nest dims), at most BLOCK_POINTS rows each unless one row is
    longer.  Not called in the package: tests walk nests with it, and
    tracers hook it by its name in `polypack.runtime`."""
    if nest.empty:
        return
    env = {p: int(binding[p]) for p in nest.params if p in binding}
    if guards_mask(nest.guards, {}, env):
        for block, n in _expand(nest.levels, {}, 1, env):
            yield np.array([block[d] for d in nest.dims], dtype=np.int64).reshape(-1, n).T


# ---------------------------------------------------------------------------
# Access plans and kernel plans


@dataclass(frozen=True)
class AccessPlan:
    tensor: str
    buffer_id: int
    layout: str            # "compressed" | "dense"
    names: tuple           # iterator name per tensor axis
    rank: object = None    # PiecewiseQuasiPolynomial in iterator names
    scale: int = 1         # lcm of rank denominators


@dataclass(frozen=True)
class Statement:
    output: AccessPlan
    inputs: tuple


@dataclass(frozen=True)
class SummandPlan:
    nest: LoopNest
    statement: Statement
    parallelizable: bool
    source: str = field(compare=False, default="")   # the summand's C function
    # None for a summand, which adds into leaf 0; for a copy, the leaf its C
    # function assigns to (0 the dense tensor, 1 the buffer), counting its
    # points into *count
    into: int | None = None

    @cached_property
    def program(self):
        """The summand lowered for `execute` (see `_program`)."""
        return _program(self.nest, self.statement)

    @cached_property
    def name(self):
        """The name of the summand's C function, as its source declares it:
        <rule>_s<index> for a summand, <rule>_g<buffer id> for a gather and
        <rule>_p<buffer id> for a pack, the rule in lower case."""
        return self.source[len("int "):self.source.index("(")]

    @cached_property
    def c_args(self):
        """Where each argument of the summand's C function comes from, in
        order (see `_c_signature`)."""
        return tuple(src for _, src in _c_signature(self.nest.params, self.statement,
                                                    self.parallelizable, self.into))

    @cached_property
    def axes(self):
        """Per level that is not fixed, the env names of the extents of the
        tensor axes its var indexes: the product over levels of the least
        of them bounds the summand's points while every iterator lies
        inside the extents it indexes."""
        accesses = (self.statement.output, *self.statement.inputs)
        return tuple(tuple((a.tensor, axis) for a in accesses
                           for axis, it in enumerate(a.names) if it == lv.var)
                     for lv in self.nest.levels if lv.kind != "fixed")


@dataclass(frozen=True)
class KernelPlan:
    rule: str
    summands: tuple
    registry: object
    compression: str       # "none" | "input" | "input+output"

    @cached_property
    def gathers(self):
        """{buffer id: SummandPlan} per compressed output buffer b: its
        index's copy (`IndexFunction.lowered_copy`, dense T(names) =
        T_b(names) over b's region), rendered as the C function
        `<rule>_g<b>`, which counts its points.  Rendered on first use, so
        that `build_plan` does not pay for them."""
        return self._copies([sp.statement.output for sp in self.summands], "g", 0)

    @cached_property
    def packs(self):
        """{buffer id: SummandPlan} per compressed input buffer b: the same
        copy the other way round, T_b(names) = T(names), rendered as the C
        function `<rule>_p<b>`, which counts its points."""
        return self._copies([a for sp in self.summands for a in sp.statement.inputs], "p", 1)

    def _copies(self, accesses, tag, into):
        """{buffer id: SummandPlan} of the copies of the compressed buffers
        among `accesses`, each rendered as `<rule>_<tag><b>` assigning to
        leaf `into`."""
        plans = {}
        for bid in sorted({a.buffer_id for a in accesses if a.layout == "compressed"}):
            buf = self.registry.buffers[bid]
            plans[bid] = _lowered(f"{self.rule.lower()}_{tag}{bid}",
                                  *buf.index.lowered_copy(buf.axes, bid), False, into)
        return plans

    @cached_property
    def c_text(self):
        """The plan's C: the prelude, every summand's function, then every
        gather's and every pack's."""
        return _c_text(*(sp.source for sp in self.summands),
                       *(g.source for g in self.gathers.values()),
                       *(p.source for p in self.packs.values()))


def _access_plan(registry, si, slot, acc, compression):
    bid = registry.assignment[(si, slot)]
    buf = registry.buffers[bid]
    wants = (compression == "input+output") if slot == "out" else (compression != "none")
    if buf.layout != "compressed" or not wants:
        return AccessPlan(acc.tensor, bid, "dense", tuple(acc.index_names))
    # buffer rank dims are the first access's iterators; rename to ours
    mapping = {d: acc.index_names[buf.axes[p]]
               for p, d in enumerate(buf.accessed.dims)}
    return _rank_access(acc.tensor, bid, tuple(acc.index_names),
                        buf.index.rank.rename(mapping))


def _rank_access(tensor, bid, names, rank):
    """A compressed access, scaled by the lcm of its rank's denominators."""
    scale = math.lcm(*(p.denominator_lcm() for _, p in rank.pieces))
    return AccessPlan(tensor, bid, "compressed", names, rank=rank, scale=int(scale))


# The env name of a dense tensor's axis extent in a redundancy map's copy
_AXIS_EXTENT = "@{}"


def copy_statement(index, axes, bid, redmap=None):
    """(nest, statement) of the copy between an `IndexFunction`'s buffer
    `bid` and its tensor, region dim p read along tensor axis axes[p]:
    dense T(names) += T_b(names) over the region, so leaf 0 is the dense
    row-major offset over (tensor, axis) extents and leaf 1 the rank,
    checked against the length of the buffer it indexes.  The walk and a
    copy's C function (`KernelPlan.gathers`, `packs`) assign either leaf
    from the other.

    With a redundancy map, the copy is out to the positions the map sends
    into the region: the nest is the map's domain within the tensor's
    extents (axis a's read from env at `_AXIS_EXTENT.format(a)`), and the
    rank is read at the map's image, guarded by the region's constraints
    (`PiecewiseQuasiPolynomial.substitute`): an image outside the region
    fails its check.
    """
    if redmap is None:
        space, rank = index.accessed, index.rank
        names = tuple(index.accessed.dims[axes.index(a)] for a in range(len(axes)))
    else:
        cons, names = list(redmap.domain), redmap.iters
        for a, d in enumerate(names):
            x = AffineExpr.var(d)
            cons += [ge(x), ge(AffineExpr.var(_AXIS_EXTENT.format(a)) - x - 1)]
        space = Polyhedron.build(names, sorted(
            {v for c in cons for v in c.variables()} - set(names)), cons)
        rank = index.rank.substitute({d: redmap.substitution[redmap.primed[a]]
                                      for d, a in zip(index.accessed.dims, axes)}, space)
    return build_loop_nest(space), Statement(
        AccessPlan(index.tensor, None, "dense", names),
        (_rank_access(index.tensor, bid, names, rank),))


def build_plan(program, rule, compression="input+output"):
    if compression not in ("none", "input", "input+output"):
        raise CodegenError(f"unknown compression level {compression!r}")
    if rule not in program.compiled:
        summands = build_compressed_summands(program, rule)
        program.compiled[rule] = summands, build_registry(summands)
    summands, registry = program.compiled[rule]
    plans = []
    for si, s in enumerate(summands):
        nest = build_loop_nest(iteration_space(s))
        out_plan = _access_plan(registry, si, "out", s.output, compression)
        ins = tuple(_access_plan(registry, si, f"in{k}", a, compression)
                    for k, a in enumerate(s.inputs))
        stmt = Statement(out_plan, ins)
        par = (not nest.empty and len(nest.levels) > 0
               and nest.levels[0].kind != "fixed"
               and nest.dims[0] in s.output.index_names)
        plans.append(_lowered(f"{rule.lower()}_s{si}", nest, stmt, _program(nest, stmt), par))
    return KernelPlan(rule, tuple(plans), registry, compression)


def _lowered(name, nest, stmt, prog, parallel, into=None):
    """A SummandPlan whose lowered program, read by its C function and the
    walk alike, is rendered as the C function `name` (a copy's when `into`
    is set), or without a name is only walked."""
    sp = SummandPlan(nest, stmt, parallel, name and "\n".join(
        _emit_c_summand(name, nest.params, stmt, prog, parallel, into)), into)
    sp.__dict__["program"] = prog
    return sp


# ---------------------------------------------------------------------------
# Execution

_INT64_MAX = (1 << 63) - 1


def _poly_names(*polys):
    return {v for poly in polys for _, mono in poly for v, _ in mono}


def _magnitude(poly, ext):
    """Largest |value| of an int poly while every |name| <= ext[name]."""
    return sum(abs(c) * math.prod([ext[v] ** e for v, e in mono]) for c, mono in poly)


# An access at the frontier's leaves: column `col` carries its index unless
# `pieces` evaluate it; `key` is its store key, a buffer id when compressed,
# and `tensor` the tensor it reads.
_Leaf = namedtuple("_Leaf", "col key scale pieces tensor")

# guards: the nest's parameter-only guards; root: column -> parameter-only
# part of each carried index; bounds: per access, its tensor and the polys
# over env names that must fit int64; crude: (sum of |coeff|, top degree)
# over them, a bound through the largest env value; run: per leaf, the int
# poly step of its index along the innermost level when the C runs it
# (`_run_steps`), else None; reduce: the output index is fixed along every
# run.  Only the C emitter, `jam_level` and `polypack compile` read run and
# reduce: the walk expands every point.
_Program = namedtuple("_Program", "guards levels root leaves bounds crude reduce run")


def _program(nest, stmt):
    """A nest and a statement's accesses in integer form for `execute`.

    Every access whose index is one polynomial carries it down the levels
    as an accumulator column: the integer poly, the scaled rank of a
    compressed access or the offset of a dense one (row-major, products of
    (tensor, axis) extents), is split once by `hoist_schedule` into the
    parameter-only root and each level's terms, and each level learns the
    dense extents its var indexes.  The int64 rule bounds the unsplit
    poly.  The C runs the innermost level as runs when it is a run level
    (`_run_steps`).
    """
    if nest.empty:
        return None
    dims = nest.dims
    levels = list(nest.levels)
    terms = [[] for _ in levels]
    extents = [set() for _ in levels]
    root, leaves, bounds = {}, [], []
    for col, a in enumerate((stmt.output,) + tuple(stmt.inputs)):
        pieces = None
        if a.layout == "dense":
            poly, stride = (), ()
            for axis in reversed(range(len(a.names))):
                it = a.names[axis]
                poly += ((1, stride + ((it, 1),)),)
                extents[dims.index(it)].add((a.tensor, (a.tensor, axis)))
                stride += (((a.tensor, axis), 1),)
        elif (single := a.rank.single_polynomial()) is not None:
            poly = int_poly(single, a.scale)
        else:
            pieces = a.rank.lowered[1]
        if pieces is None:
            root[col], split = hoist_schedule(poly, dims)
            for k, parts in enumerate(split):
                terms[k].extend((col, e, p) for e, p in parts)
        polys = [p for _, p, _ in pieces] if pieces else [poly]
        # an iterator is bounded by the extent of the axis it indexes here
        own = dict(reversed([(it, (a.tensor, axis)) for axis, it in enumerate(a.names)]))
        bounds.append((a.tensor, tuple(tuple((c, tuple((own.get(v, v), e) for v, e in mono))
                                             for c, mono in p) for p in polys)))
        leaves.append(_Leaf(col, a.tensor if a.layout == "dense" else a.buffer_id,
                            a.scale if pieces is None else 1, pieces, a.tensor))
    every = [t for _, polys in bounds for p in polys for t in p]
    crude = (sum(abs(c) for c, _ in every),
             max((sum(e for _, e in mono) for _, mono in every), default=0))

    run = _run_steps(dims, levels, terms, leaves)
    levels = tuple(lv._replace(terms=tuple(t), extents=tuple(sorted(x)))
                   for lv, t, x in zip(levels, terms, extents))
    return _Program(nest.guards, levels, root, tuple(leaves), tuple(bounds), crude,
                    run is not None and not run[0], run)


def _is_run_level(lv):
    """A level whose values on each row of the levels above are one run."""
    return lv.kind == "loop" and not lv.guards


def _run_steps(dims, levels, terms, leaves):
    """Per leaf, the int poly its index moves by per step of the innermost
    level, when that level is a run level on which every access's terms are
    degree 1 with parameter-only coefficients that are multiples of its
    scale (so each row's indices are base + step * (j - lo)); else None."""
    if not levels or not _is_run_level(levels[-1]) \
            or any(a.pieces is not None for a in leaves):
        return None
    steps = [() for _ in leaves]
    for col, e, p in terms[-1]:
        scale = leaves[col].scale
        if e != 1 or _poly_names(p) & set(dims) or any(c % scale for c, _ in p):
            return None
        steps[col] += tuple((c // scale, mono) for c, mono in p)
    return tuple(steps)


def _check_int64(progs, env):
    """Raise IndexingFault when an index of one of the programs (None for
    an empty nest) can exceed int64 for iterators within the shape extents
    they index, at the env's values."""
    ext = {name: abs(v) for name, v in env.items()}
    top = max([1, *ext.values()])
    for prog in progs:
        if prog is not None and prog.crude[0] * top ** prog.crude[1] > _INT64_MAX:
            for tensor, polys in prog.bounds:
                if any(_magnitude(p, ext) > _INT64_MAX for p in polys):
                    raise IndexingFault(f"an index of {tensor} can exceed int64 at this binding")


def _range_fault(bid, tensor):
    """The message of an index of `tensor` outside its buffer `bid`."""
    return f"index out of range for buffer {bid} of {tensor}"


def _exact(v, scale):
    """v / scale for a column v, raising on any remainder: a rank is
    integral."""
    if scale == 1:
        return v
    v, rest = divmod(v, scale)
    if rest.any():
        raise IndexingFault("non-integer index")
    return v


def _leaf_index(a, cols, n, env, array):
    """Int64 index of one access over n leaf rows, a compressed one checked
    against the array it indexes; a piecewise rank is evaluated piece by
    piece behind its masks, -1 where none covers."""
    if a.pieces is None:
        idx = _exact(cols[a.col], a.scale)
    else:
        idx = np.full(n, -1, dtype=np.int64)
        for guards, poly, s in a.pieces:
            mask = np.broadcast_to(guards_mask(guards, cols, env), n)
            if mask.any():
                sub = {d: c[mask] for d, c in cols.items()}
                idx[mask] = _exact(np.broadcast_to(poly_values(poly, sub, env),
                                                   int(mask.sum())), s)
    # as uint64 a negative index is huge: one pass checks both ends
    if isinstance(a.key, int) and idx.view(np.uint64).max() >= len(array):
        raise IndexingFault(_range_fault(a.key, a.tensor))
    return idx


def _leaf_blocks(prog, env, arrays):
    """Walk a program's points from its root, one row of columns, in
    lexicographic order, every one expanded (`_expand`), and yield (idx,
    m) per block of m points: idx holds each leaf's int64 index, every one
    checked against the array it reads before the block is yielded
    (`_leaf_index`)."""
    root = {col: _column(poly_values(p, {}, env), 1) for col, p in prog.root.items()}
    for block, m in _expand(prog.levels, root, 1, env):
        yield [_leaf_index(a, block, m, env, x) for a, x in zip(prog.leaves, arrays)], m


@dataclass
class ExecResult:
    dense: object          # flat ndarray or None
    compressed: dict       # output buffer id -> flat ndarray
    backends: frozenset = frozenset()   # where summands ran: "c", "numpy"


def buffer_length(index, binding):
    """The length of an `IndexFunction`'s buffer: its lowered size at an int
    binding."""
    context, pieces = index.size.lowered
    hits = [(poly, s) for guards, poly, s in pieces if guards_mask(guards, {}, binding)]
    if not hits or not guards_mask(context, {}, binding):
        raise DomainError(f"no size piece of {index.tensor}'s buffer covers {binding}")
    length, rest = divmod(poly_values(hits[0][0], {}, binding), hits[0][1])
    if rest:
        raise CountingError(f"non-integer size of {index.tensor}'s buffer")
    return length


def _zero_outputs(lengths, dtype):
    """The zeroed outputs at a bind's lengths (`_bind`), under the same keys."""
    return {b: np.zeros(n, dtype=dtype) for b, n in lengths.items()}


# A plan keeps its last _BINDS binds (`_bind`), the oldest dropped first
_BINDS = 16

# What `execute` needs of a plan that only the int binding and the shapes
# decide: the env; per live summand, its plan, its output's key and the
# store keys of its inputs; each dense input with the length its shape
# needs; each output's length, keyed by its buffer id, the dense output's
# by None
_Bound = namedtuple("_Bound", "env live inputs lengths")


def _bind(plan, shapes, binding):
    """The plan's `_Bound` at a binding and shapes, memoised on the plan by
    their values.  Building one finds the live summands (`guards_mask`),
    raises IndexingFault where an index can overflow int64
    (`_check_int64`), and evaluates each compressed output's size
    polynomial (`buffer_length`); a bind that raises is not kept.  A plan
    without summands writes the rule's dense output, all zeros."""
    key = (tuple(binding.items()), tuple(shapes), tuple(map(tuple, shapes.values())))
    memo = plan.__dict__.setdefault("_binds", {})
    bound = memo.get(key)
    if bound is not None:
        return bound
    binding = {k: int(v) for k, v in binding.items()}
    env = {**binding, **{(t, axis): int(e) for t, shape in shapes.items()
                         for axis, e in enumerate(shape)}}
    live = [sp for sp in plan.summands
            if sp.program is not None and guards_mask(sp.program.guards, {}, env)]
    _check_int64([sp.program for sp in live], env)

    def out(sp):
        o = sp.statement.output
        return None if o.layout == "dense" else o.buffer_id
    bound = _Bound(
        env, tuple((sp, out(sp), tuple(a.key for a in sp.program.leaves[1:])) for sp in live),
        tuple((t, math.prod(shapes[t])) for t in sorted(
            {a.tensor for sp in live for a in sp.statement.inputs if a.layout == "dense"})),
        {b: math.prod(shapes[plan.rule]) if b is None
         else buffer_length(plan.registry.buffers[b].index, binding)
         for b in dict.fromkeys(map(out, plan.summands)) or [None]})
    memo[key] = bound
    for old in list(memo)[:-_BINDS]:   # another thread may drop one first
        memo.pop(old, None)
    return bound


# The C element type of each dtype the emitted C is built for
_C_ELEMENTS = {np.dtype(np.float64): "double", np.dtype(np.int64): "int64_t"}


def _c_library(plan, backend, arrays):
    """The plan's library (`native.library`) where C runs one call that
    reads and writes `arrays`, else None, the walk: C runs where gcc is on
    PATH, the library builds, and every array has the first's dtype, which
    has a C element type, and is C-contiguous.  Backend "numpy" always
    walks, and so does None without a plan; backend "c" raises
    CodegenError without a plan, without gcc or without a library, and
    any other backend raises too."""
    if backend not in (None, "c", "numpy"):
        raise CodegenError(f"unknown backend {backend!r}")
    if backend == "numpy" or backend is None and plan is None:
        return None
    if plan is None:
        raise CodegenError("backend 'c' needs a plan's library, and there is no plan")
    gcc = native.compiler()
    if backend == "c" and gcc is None:
        raise CodegenError("backend 'c' needs a C compiler, and gcc is not on PATH")
    elem = _C_ELEMENTS.get(arrays[0].dtype) if arrays else None
    if elem is None or gcc is None or not all(
            x.dtype == arrays[0].dtype and x.flags.c_contiguous for x in arrays):
        return None
    try:
        return native.library(plan.c_text, elem)
    except native.BuildError as e:
        if backend == "c":
            raise CodegenError(str(e)) from e
        return None


# The share of a summand's outermost range that a call of its C function
# runs when the summand is not split: two bounds that bind nothing (unread
# where the summand is not parallelizable, whose function takes none)
_WHOLE = (-_INT64_MAX - 1, _INT64_MAX)


def _shares(sp, env, threads):
    """The chunks [lo, hi] of a summand's outermost range that its C calls
    run, one ascending list per thread of at most `threads`: where it is
    parallelizable and the extents that bound its points (`SummandPlan.axes`)
    give each thread THREAD_POINTS, runs of n // (T * CHUNKS) of its n
    values (at least one, the last run shorter), chunk c dealt to thread
    c % T on even passes and T - 1 - c % T on odd ones (snake order), so
    that a triangle's rows even out unmeasured; else the whole range."""
    if threads < 2 or not sp.parallelizable:
        return [[_WHOLE]]
    threads = min(threads, math.prod(min((env[x] for x in names if x in env), default=math.inf)
                                     for names in sp.axes) // max(THREAD_POINTS, 1))
    if threads < 2:
        return [[_WHOLE]]
    lo, hi = (int(x) for x in _level_range(sp.program.levels[0], {}, env))
    step = max(1, (hi - lo + 1) // (threads * CHUNKS))
    lists = [[] for _ in range(threads)]
    for c, first in enumerate(range(lo, hi + 1, step)):
        t = c % threads if c // threads % 2 == 0 else threads - 1 - c % threads
        lists[t].append((first, min(first + step - 1, hi)))
    lists = [chunks for chunks in lists if chunks]
    return lists if len(lists) > 1 else [[_WHOLE]]


def _run(sp, lib, arrays, env, threads=1):
    """Run a summand, or a copy (`sp.into` set), on the arrays at its leaf
    columns; returns the points a copy visited.

    With a library (`_c_library`) its C function runs once per chunk of
    its outermost range (`_shares`, dealt to at most `threads`): the first
    thread's chunks in this thread and each other's on a thread of its own,
    every one joined before this returns.  Each thread runs its chunks in
    ascending order and stops at its first nonzero status; chunks write
    disjoint output values of the same arrays.  The IndexingFault raised is
    that of the lowest failing chunk, the one `workers=1` raises.  Without,
    every point of the program is walked by `_leaf_blocks`, every index
    checked before the block reads a store: a summand adds the product of
    its inputs into leaf 0, equal output indices next to each other summed
    first, and a copy assigns leaf `into` from the other.
    """
    prog, into = sp.program, sp.into
    if lib is not None:
        if into is not None:   # its C function counts the points into one more array
            arrays = (*arrays, np.zeros(1, dtype=np.int64))
        fn = getattr(lib, sp.name)
        if fn.argtypes is None:
            fn.argtypes = [ctypes.c_void_p if kind == "ptr" else ctypes.c_int64
                           for kind, _ in sp.c_args]
            fn.restype = ctypes.c_int
        failed = []   # (chunk, status) per thread that stopped at a nonzero status

        def call(chunks):
            for share in chunks:
                status = fn(*[
                    arrays[x].ctypes.data if kind == "ptr" else len(arrays[x]) if kind == "len"
                    else share[x] if kind == "share" else env[x] for kind, x in sp.c_args])
                if status:
                    failed.append((share, status))
                    return
        first, *rest = _shares(sp, env, threads)
        others = []
        try:
            for chunks in rest:
                t = threading.Thread(target=call, args=(chunks,))
                t.start()
                others.append(t)
            call(first)
        finally:
            for t in others:
                t.join()
        if failed:
            raise IndexingFault(_faults(sp.statement)[min(failed)[1] - 1])
        return 0 if into is None else int(arrays[-1][0])
    visited = 0
    if prog is None or not guards_mask(prog.guards, {}, env):
        return visited
    out = arrays[0]
    for idx, m in _leaf_blocks(prog, env, arrays):
        visited += m
        if into is not None:
            arrays[into][idx[into]] = arrays[1 - into][idx[1 - into]]
            continue
        prod = np.ones(m, dtype=out.dtype) if len(idx) == 1 else None
        for x, i in zip(arrays[1:], idx[1:]):
            prod = x[i] if prod is None else prod * x[i]
        # collapse runs of equal output index; others may repeat
        o = idx[0]
        starts = np.flatnonzero(np.concatenate(([True], o[1:] != o[:-1])))
        np.add.at(out, o[starts], np.add.reduceat(prod, starts))
    return visited


def execute(plan, store, shapes, binding, workers=1, dtype=np.float64, backend=None):
    """Run every summand; returns zero-initialized-then-accumulated outputs.

    Each live summand runs through `_run`, on its compiled C function
    (`SummandPlan.source`, built once per plan text and element type by
    `native.library`) where `_c_library` allows: by default where gcc is
    on PATH, a library builds, and the output and the store arrays it
    reads are all float64 or all int64 and contiguous; else on the NumPy
    walk.  Backend "numpy" runs every summand on the walk; backend "c"
    raises CodegenError without gcc or without a library.  Both raise the
    same IndexingFault on a bad index.  The result's `backends` names the
    ones that ran, and `gather_output` gathers by the same rule where it
    names "c", else on the walk.

    With workers > 1 a parallelizable summand on C runs on up to `workers`
    threads, capped at the CPUs this process may use (the machine's where
    the OS cannot tell), the calling thread among them, wherever the
    extents that bound its points give each THREAD_POINTS (see `_shares`):
    equal chunks of its outermost range, dealt in snake order.  Every chunk
    of a summand is joined before the next summand starts, since two
    summands can write one output value.  A chunk writes disjoint output
    values in place and sums each one's terms in the same order, so
    results are bitwise identical to `workers=1`.  The NumPy walk never
    splits.  Index ranges that can overflow int64 and a dense input
    shorter than its shape raise IndexingFault before any output is
    allocated.

    What only the int binding and the shapes decide is checked once per
    (binding, shapes) and kept on the plan (`_bind`): the live summands,
    the int64 bound and each output's length.  What the store, PATH, the
    loaded libraries or THREAD_POINTS can change is checked on every call:
    the backend, each dense input's length against its shape, C or the
    walk per summand (`_c_library`), the threads and each summand's shares.
    """
    _c_library(plan, backend, ())   # an unknown backend, or "c" without gcc, raises
    env, live, inputs, lengths = _bind(plan, shapes, binding)
    for t, need in inputs:
        if len(store[t]) < need:
            raise IndexingFault(f"dense input {t} holds {len(store[t])} values, "
                                f"fewer than its shape {tuple(shapes[t])}")
    outs = _zero_outputs(lengths, dtype)
    threads = 1
    if workers > 1:   # os.sched_getaffinity exists on Linux only
        threads = min(workers, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1)
    ran = set()
    for sp, out, keys in live:
        arrays = (outs[out], *[store[k] for k in keys])
        lib = _c_library(plan, backend, arrays)
        _run(sp, lib, arrays, env, threads)
        ran.add("numpy" if lib is None else "c")
    return ExecResult(outs.pop(None, None), outs, frozenset(ran))


# ---------------------------------------------------------------------------
# Dense reference


def reference_execute(program, rule, shapes, dense, binding, dtype=np.float64):
    """Naive oracle: enumerate each summand's masked space, gather, accumulate.

    `dense` maps tensor name -> flat row-major array covering `shapes`.
    Returns the flat dense output for the rule's tensor.
    """
    summands = build_compressed_summands(program, rule)
    out = np.zeros(int(np.prod(shapes[rule], dtype=np.int64)), dtype=dtype)
    for s in summands:
        space = iteration_space(s)
        if space.trivially_empty:
            continue
        pts = enumerate_points(space, binding)
        if not len(pts):
            continue
        col = {d: pts[:, i] for i, d in enumerate(space.dims)}

        def flat(access):
            sh = shapes[access.tensor]
            idx = np.zeros(len(pts), dtype=np.int64)
            for axis, it in enumerate(access.index_names):
                idx = idx * int(sh[axis]) + col[it]
            return idx

        val = np.ones(len(pts), dtype=dtype)
        for a in s.inputs:
            val = val * dense[a.tensor][flat(a)]
        np.add.at(out, flat(s.output), val)
    return out


# ---------------------------------------------------------------------------
# C emission

# Rows of the loop just outside a reducing run that one pass of the run
# feeds (`jam_level`).  Measured over 2, 4 and 8 on TTM_UT, TTM_DP, TTM_J,
# MTT_J and MTT_JUT in-process on a 2-vCPU guest (6 alternating rounds,
# min of 21 calls): 2 left packed TTM_UT at n=64 at 2.9-3.5 ms against
# 2.2-2.7 ms for 4; 8 read within 10% of 4 (a little faster on TTM_DP and
# on TTM_UT at n=32, the same elsewhere) for twice the group's text and 16%
# more cold gcc time over the builtin plans.
JAM = 4


def _c_name(v):
    """The C name of an int poly's name: (tensor, axis) is that axis's extent."""
    return v if isinstance(v, str) else f"n_{v[0]}{v[1]}"


def _c_int(poly):
    """An int poly (see `polyhedra.int_form`) as an int64_t expression."""
    parts = []
    for c, mono in poly:
        f = "*".join(_c_name(v) for v, e in mono for _ in range(e))
        parts.append(str(c) if not f else f if c == 1 else "-" + f if c == -1 else f"{c}*{f}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _c_guard(g):
    kind, poly, modulus, residue = g
    e = _c_int(poly)
    if kind == GE0:
        return f"{e} >= 0"
    if kind == EQ0:
        return f"{e} == 0"
    return f"MODP({e}, {modulus}) == {residue}"


def _c_bound(bound, rounding):
    """A lowered (k, poly) bound poly/k, rounded by `rounding` (CEILD for a
    lower bound, FLOORD for an upper one) unless k is 1."""
    k, poly = bound
    return _c_int(poly) if k == 1 else f"{rounding}({_c_int(poly)}, {k})"


def _c_operand(a):
    """An access's array in C: a compressed one is named after its buffer,
    since one tensor can have several."""
    return a.tensor if a.layout == "dense" else f"{a.tensor}_{a.buffer_id}"


def _c_signature(params, stmt, share, into=None):
    """(declaration, source) per argument of a summand's C function, in
    order: the output's array, each distinct input array, the parameters,
    then each dense access's extents and each compressed access's buffer
    length, with `share` the first and last outermost value to run, and
    for a copy (`into` the leaf it writes) the int64 that counts the
    points.  Only the written array, the output's for a summand, is not
    const.  A source is ("ptr", column) for the array at a leaf column (the
    count's follows the last access's), ("len", column) for its length,
    ("env", name) for an int of env, or ("share", 0 or 1) for an end of the
    share."""
    arrays, sizes = {}, {}
    for col, a in enumerate((stmt.output,) + tuple(stmt.inputs)):
        const = "" if col == (into or 0) else "const "
        arrays.setdefault(f"{const}ELEM* {_c_operand(a)}", ("ptr", col))
        if a.layout == "dense":
            for axis in range(len(a.names)):
                sizes.setdefault(f"int64_t n_{a.tensor}{axis}", ("env", (a.tensor, axis)))
        else:
            sizes.setdefault(f"int64_t len{a.buffer_id}", ("len", col))
    # a parameter is never merged with an emitted argument of its name: that clash must show
    ends = (("int64_t share_lo", ("share", 0)), ("int64_t share_hi", ("share", 1)))
    count = ("int64_t* count", ("ptr", len(stmt.inputs) + 1))
    return (*arrays.items(), *((f"int64_t {p}", ("env", p)) for p in params),
            *sizes.items(), *(ends if share else ()), *((count,) if into is not None else ()))


def _faults(stmt):
    """The IndexingFault message of each nonzero status a summand's C
    function returns, status 1 first: a non-integer rank, then per access
    an index out of its compressed buffer or out of its tensor's dense
    extents."""
    return tuple(dict.fromkeys(["non-integer index"] + [
        f"an index of {a.tensor} leaves its dense extent" if a.layout == "dense"
        else _range_fault(a.buffer_id, a.tensor)
        for a in (stmt.output,) + tuple(stmt.inputs)]))


_C_PRELUDE = [
    "/* generated kernel code */",
    "#include <stdint.h>",
    "#ifndef ELEM   /* the element type */",
    "#define ELEM double",
    "#endif",
    "#define MAX2(a, b) ((a) > (b) ? (a) : (b))",
    "#define MIN2(a, b) ((a) < (b) ? (a) : (b))",
    "#define MODP(a, m) ((((a) % (m)) + (m)) % (m))",
    "#define FLOORD(a, k) (((a) >= 0 ? (a) : (a) - (k) + 1) / (k))",
    "#define CEILD(a, k) (-FLOORD(-(a), (k)))",
    "",
]


def _c_text(*sources):
    """The prelude, then each summand's C function after a blank line."""
    return "\n".join(_C_PRELUDE + ["\n\n".join(sources)]).rstrip() + "\n"


def emit_c(plan):
    """Freestanding C99 text mirroring the plan: one function per summand,
    then one per gather and one per pack."""
    return plan.c_text


def emit_c_files(plan):
    """(filename, text) per summand, named <rule>_<summand index>.c, then
    per gather and per pack, named <rule>_g<buffer id>.c and
    <rule>_p<buffer id>.c."""
    return [(f"{plan.rule}_{si}.c", _c_text(sp.source)) for si, sp in enumerate(plan.summands)] \
        + [(f"{plan.rule}_{tag}{bid}.c", _c_text(sp.source))
           for tag, copies in (("g", plan.gathers), ("p", plan.packs))
           for bid, sp in copies.items()]


def jam_level(prog, into=None):
    """The level whose rows a summand's C jams by JAM over one pass of its
    run, or None.  Jammed: a summand's (`into` None) reducing run
    (`prog.reduce`) under a plain loop (stride 1, no phase, no guards).
    The run's bounds may read that loop's var, so that each row's run has
    its own range (a triangle, a band); that var need not index the
    output."""
    if prog is None or not prog.reduce or into is not None or len(prog.levels) < 2:
        return None
    outer = prog.levels[-2]
    return None if outer.kind != "loop" or outer.guards else outer


def _renamed(bound, names):
    """A lowered (k, poly) bound with each name of `names` (a dict) read as its value."""
    if not names:
        return bound
    k, poly = bound
    return k, tuple((c, tuple((names.get(y, y), e) for y, e in mono)) for c, mono in poly)


def _emit_c_summand(name, params, stmt, prog, share, into=None):
    """A summand's C function `name`, rendered from its lowered `_Program`
    (None when the nest is empty): the integer bounds, guards and index
    terms that `execute` walks, with every index accumulated in int64_t.
    With `share` the outermost level has two more bounds, the arguments
    share_lo and share_hi, so that a call runs only that share of its
    range.  A summand adds the product of its inputs into its output; a
    copy (`into` the leaf it writes: 0 the dense tensor, 1 the buffer)
    assigns the other leaf's value, as the copy walk does, and every point
    that passes its checks adds 1 to *count (a run, its length).

    The function returns 0, or at the first failing check the status whose
    message `_faults` gives, before the store read that check guards.  On a
    run level (`prog.run`) each row's first index of every access is
    divided exactly once, the row's first and last index checked against
    the buffer length or the level's value range against the dense
    extents, and the inner loop reads base + step * (j - lo) unchecked;
    where the output is fixed along every run (`prog.reduce`) the row's sum
    is added to it once.  Any other innermost level checks every point.

    Where `jam_level` names the level v just outside such a run, rows
    v_j .. v_j + JAM - 1 form a group.  An end of the run's range whose
    bounds read no v is computed once above v's loop; each row v_u of a
    group computes the others itself (lo_u, hi_u), and the group runs while
    JAM values of v remain and the rows' common range [max lo_u, min hi_u]
    is not empty.  Each row gets its own suffixed locals (v_u, the indices,
    the checks) in row order; its sum_u adds its front peel [lo_u, lo),
    then one pass over the common range feeds every sum_u, then each row
    adds its back peel (hi, hi_u], and the sums are added to their outputs
    in row order.  A rectangle, where no end reads v, peels nothing.  The
    remainder loop from v_j is the same row at width 1.  Each output value
    still sums its terms in the order the unjammed loop does, so results
    are bitwise the same.  Every check of a group, in the order the
    unjammed rows make them, runs before the group's first read: a failing
    check returns its usual status with the group's earlier rows not yet
    added to the output, which `execute` raises either way.
    """
    accesses = (stmt.output,) + tuple(stmt.inputs)
    sig = _c_signature(params, stmt, share, into)
    out = [f"int {name}({', '.join(decl for decl, _ in sig)}) {{"]
    if prog is None:
        return out + ["  return 0;", "}"]
    faults = _faults(stmt)
    declared = [decl.split()[-1] for decl, _ in sig]
    loops = []   # the var of every loop header written
    depth = 1
    jammed = jam_level(prog, into)
    run = prog.levels[-1] if prog.run is not None else None
    # the run's ends ("lo", "hi") that each row computes itself: both
    # unjammed, else those whose bounds read the jammed var
    own = [end for end, b in (("lo", run.lowers), ("hi", run.uppers)) if jammed is None
           or any(x == jammed.var for _, p in b for _, mono in p for x, _ in mono)] if run else []

    def put(s):
        out.append("  " * depth + s)

    def let(key, e):
        declared.append(key)
        put(f"int64_t {key} = {e};")

    def block(header):
        nonlocal depth
        put(header + " {")
        depth += 1

    def close():
        nonlocal depth
        depth -= 1
        put("}")

    def fail(message):
        return f"return {faults.index(message) + 1};"

    def exact(scale, e, key):
        """key = e / scale, failing on a remainder: a rank is integral."""
        if scale == 1:
            return let(key, e)
        e = e if e.isidentifier() else f"({e})"
        put(f"if ({e} % {scale}) {fail(faults[0])}")
        let(key, f"{e} / {scale}")

    def bounds(lv, names=None):
        # the outermost level of a share also lies in [share_lo, share_hi];
        # `names` renames vars, as a jammed row reads its own
        ends = ["share_lo", "share_hi"] if share and lv is prog.levels[0] else []
        lo = reduce(lambda x, y: f"MAX2({x}, {y})",
                    [_c_bound(_renamed(b, names), "CEILD") for b in lv.lowers] + ends[:1])
        hi = reduce(lambda x, y: f"MIN2({x}, {y})",
                    [_c_bound(_renamed(b, names), "FLOORD") for b in lv.uppers] + ends[1:])
        return lo, hi

    def loop(v, first, last, step=1):
        """The header of a loop declaring v; sibling loops may declare one var."""
        declared.append(v)
        loops.append(v)
        inc = "++" if step == 1 else f" += {step}"
        return f"for (int64_t {v} = {first}; {v} <= {last}; {v}{inc})"

    def extents(lv, lo, hi):
        # the values the guards keep, as `execute` checks
        for tensor, extent in lv.extents:
            put(f"if ({lo} < 0 || {hi} >= {_c_name(extent)}) "
                f"{fail(f'an index of {tensor} leaves its dense extent')}")

    def advance(acc, lv, k, at, sfx=""):
        # each column so far plus this level's terms, poly(outer) * at**e
        for col in dict.fromkeys(t for t, _, _ in lv.terms):
            step = ((1, ((acc[col], 1),)),) + tuple(
                (c, mono + ((at, e),)) for t, e, p in lv.terms if t == col for c, mono in p)
            let(f"r{col}_{k}{sfx}", _c_int(step))
            acc[col] = f"r{col}_{k}{sfx}"

    def run_range(ends, sfx=""):
        """The run's `ends` as v_lo / v_hi, or with `sfx` (_u) a jammed
        row's own, read at its var."""
        names = {jammed.var: jammed.var + sfx} if sfx else None
        for end, bound in zip(("lo", "hi"), bounds(run, names)):
            if end in ends:
                let(f"{run.var}_{end}{sfx}", bound)

    def span(sfx):
        """A row's run range: the ends it computes itself suffixed as its
        locals, the ends its group shares not."""
        return [f"{run.var}_{end}{sfx if end in own else ''}" for end in ("lo", "hi")]

    def along(key, step, at, lo):
        """key + step * (at - lo): an index `at` on a row whose run starts at lo."""
        return _c_int(((1, ((key, 1),)),) + tuple(
            (c * sign, mono + ((x, 1),)) for c, mono in step
            for x, sign in ((at, 1), (lo, -1))))

    def run_rows(acc, width):
        """Each row's index per leaf on the run, its checks made: `width`
        rows of the jammed level from its v_j, their locals suffixed _u, or
        at width 1 the row of the enclosing loop's own var."""
        v, k = run.var, len(prog.levels) - 1
        rows = []
        for u in range(width):
            sfx = f"_{u}" if width > 1 else ""
            lo, hi = span(sfx)
            row = dict(acc)
            if width > 1:
                x = f"{jammed.var}_{u}"
                if not own:   # else the group named its rows before their ranges
                    let(x, f"{jammed.var}_j + {u}" if u else f"{jammed.var}_j")
                extents(jammed, x, x)
                advance(row, jammed, k - 1, x, sfx)
            if width == 1:   # a jammed group runs only where every row's run is not empty
                run_range(own)
                block(f"if ({v}_lo <= {v}_hi)")
            if not u or own:
                extents(run, lo, hi)
            advance(row, run, k, lo, sfx)
            index = {}
            for a, leaf, step in zip(accesses, prog.leaves, prog.run):
                key = f"k{leaf.col}{sfx}"
                exact(leaf.scale, row[leaf.col], key)
                if a.layout == "compressed":
                    low = high = key
                    if step:
                        let(f"{key}_hi", along(key, step, hi, lo))
                        low, high = key, f"{key}_hi"
                        if any(mono or c < 0 for c, mono in step):   # a step of unknown sign
                            low, high = f"MIN2({key}, {key}_hi)", f"MAX2({key}, {key}_hi)"
                    put(f"if ({low} < 0 || {high} >= len{a.buffer_id}) "
                        f"{fail(_range_fault(a.buffer_id, a.tensor))}")
                index[leaf.col] = along(key, step, v, lo)
            rows.append(index)
        return rows

    def statement(rows):
        """Each row's product into its output, or for a copy the other
        leaf's value assigned; on a reducing run, through one sum per row."""
        written = into or 0
        prods = [" * ".join(f"{_c_operand(a)}[{index[col]}]"
                            for col, a in enumerate(accesses) if col != written) or "1"
                 for index in rows]
        targets = [f"{_c_operand(accesses[written])}[{index[written]}]" for index in rows]
        if into is not None:
            put("*count += 1;" if run is None else f"*count += {run.var}_hi - {run.var}_lo + 1;")
        if run is None:
            put(f"{targets[0]} {'+=' if into is None else '='} {prods[0]};")
            return
        v = run.var
        if not prog.reduce:   # a copy, or a summand whose output moves along the run
            put(f"{loop(v, f'{v}_lo', f'{v}_hi')} {targets[0]} "
                f"{'+=' if into is None else '='} {prods[0]};")
            return
        sums = ["sum"] if len(rows) == 1 else [f"sum_{u}" for u in range(len(rows))]
        declared.extend(sums)
        put("ELEM " + ", ".join(f"{s} = 0" for s in sums) + ";")
        adds = [f"{s} += {p};" for s, p in zip(sums, prods)]
        spans = [span(f"_{u}" if len(rows) > 1 else "") for u in range(len(rows))]
        for (lo, _), add in zip(spans, adds):   # each row's front peel, before the common range
            if lo != f"{v}_lo":
                put(f"{loop(v, lo, f'{v}_lo - 1')} {add}")
        if len(adds) == 1:
            put(f"{loop(v, f'{v}_lo', f'{v}_hi')} {adds[0]}")
        else:
            block(loop(v, f"{v}_lo", f"{v}_hi"))
            for add in adds:
                put(add)
            close()
        for (_, hi), add in zip(spans, adds):   # and its back peel, after it
            if hi != f"{v}_hi":
                put(f"{loop(v, f'{v}_hi + 1', hi)} {add}")
        for t, s in zip(targets, sums):
            put(f"{t} += {s};")

    for g in prog.guards:
        put(f"if (!({_c_guard(g)})) return 0;")
    acc = {}   # column -> the C variable holding its index so far
    for col, poly in prog.root.items():
        acc[col] = f"r{col}"
        let(f"r{col}", _c_int(poly))
    for k, lv in enumerate(prog.levels if run is None else prog.levels[:-1]):
        v = lv.var
        if lv.single:
            let(v, _c_int(lv.lowers[0][1]))
        elif lv is jammed:   # groups of JAM rows from v_j, then the rows left one by one
            lo, hi = bounds(lv)
            r = run.var
            run_range([end for end in ("lo", "hi") if end not in own])   # every row's alike
            let(f"{v}_j", lo)
            if not own:
                block(f"for (; {r}_lo <= {r}_hi && {v}_j <= {hi} - {JAM - 1}; {v}_j += {JAM})")
            else:   # each row's own range; the group runs on their common range
                block(f"for (; {v}_j <= {hi} - {JAM - 1}; {v}_j += {JAM})")
                for u in range(JAM):
                    let(f"{v}_{u}", f"{v}_j + {u}" if u else f"{v}_j")
                    run_range(own, f"_{u}")
                for end, most in (("lo", "MAX2"), ("hi", "MIN2")):
                    if end in own:
                        let(f"{r}_{end}", reduce(lambda x, y: f"{most}({x}, {y})",
                                                 [f"{r}_{end}_{u}" for u in range(JAM)]))
                put(f"if ({r}_lo > {r}_hi) break;")
            statement(run_rows(acc, JAM))
            close()
            block(loop(v, f"{v}_j", hi))
        else:
            lo, hi = bounds(lv)
            if lv.phase is not None:
                let(f"{v}_lo", lo)
                put(f"{v}_lo += MODP({_c_int(lv.phase)} - {v}_lo, {lv.stride});")
                lo = f"{v}_lo"
            block(loop(v, lo, hi, lv.stride))
        for g in lv.guards:   # outside every loop, skipping the point ends the call
            put(f"if (!({_c_guard(g)})) {'continue' if depth > 1 else 'return 0'};")
        extents(lv, v, v)
        advance(acc, lv, k, v)
    if run is not None:
        statement(run_rows(acc, 1))
    else:
        index = {}
        for a, leaf in zip(accesses, prog.leaves):
            key = f"k{leaf.col}"
            if leaf.pieces is None:
                exact(leaf.scale, acc[leaf.col], key)
            else:
                let(key, "-1")
                for guards, poly, s in leaf.pieces:
                    block(f"if ({' && '.join(f'({_c_guard(g)})' for g in guards) or '1'})")
                    exact(s, _c_int(poly), f"{key}_")
                    put(f"{key} = {key}_;")
                    close()
            if a.layout == "compressed":
                put(f"if ({key} < 0 || {key} >= len{a.buffer_id}) "
                    f"{fail(_range_fault(a.buffer_id, a.tensor))}")
            index[leaf.col] = key
        statement([index])
    while depth > 1:
        close()
    out.append("  return 0;")
    out.append("}")
    # a name of the rule that the emitter also declares (`sum`, `r0`, a
    # var's `_lo` ...) would be shadowed or redeclared, and the C could
    # compute something else: such a function must not build.  Sibling
    # loops (a jammed group's peels and pass, the remainder's) may each
    # declare a var, so a var is declared once or by its loop headers alone
    ours = {*params, *(lv.var for lv in prog.levels),
            *(a.tensor for a in accesses if a.layout == "dense")}
    clash = sorted({n for n in declared
                    if n in ours and declared.count(n) > max(1, loops.count(n))})
    if clash:
        out.insert(1, "#error names of the rule clash with names the emitter declares: "
                   + ", ".join(clash))
    return out
