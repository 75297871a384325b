"""Loop nests, execution plans, and code emission.

A summand's iteration space becomes a nest of levels (loop / fixed /
strided); every tensor access becomes either a compressed-buffer index
plan (the rank polynomial, accumulated incrementally per loop level) or a
dense row-major offset.  The primary execution path generates Python
source with the innermost non-degenerate level vectorized over numpy;
emit_c renders the same plan as C text.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .indexing import build_registry, hoist_schedule
from .polyhedra import (
    EQ0, FALSE, GE0, MODEQ, AffineExpr, PolyhedronError, UnboundedError,
    affine_columns, constraints_mask, enumerate_points, fm_eliminate,
    iteration_space,
)
from .stur import build_compressed_summands


class CodegenError(ValueError):
    pass


class IndexingFault(RuntimeError):
    """A computed compressed index fell outside its buffer: abort, never clamp."""


# ---------------------------------------------------------------------------
# Loop nests


@dataclass(frozen=True)
class LoopLevel:
    var: str
    kind: str              # "loop" | "fixed" | "strided"
    lowers: tuple = ()     # AffineExpr, inclusive; iterate from max(lowers)
    uppers: tuple = ()     # AffineExpr, inclusive; iterate to min(uppers)
    stride: int = 1
    phase: AffineExpr = None   # strided: var congruent to phase mod stride
    expr: AffineExpr = None    # fixed: var = expr, single pass
    guards: tuple = ()         # residual constraints checked at this level


@dataclass(frozen=True)
class LoopNest:
    dims: tuple
    params: tuple
    levels: tuple
    guards: tuple          # parameter-only residual constraints
    empty: bool = False


def _solve_unit(c, v):
    """a*v + e (>=|=) 0 with a = +-1: the bound/value expr for v."""
    rest = c.expr.drop(v)
    return -rest if c.expr.coeff(v) > 0 else rest


def build_loop_nest(space):
    """Per-level bounds from successive projections onto outer dims.

    Every original constraint is enforced: as a bound at the level of its
    deepest dim when the coefficient there is a unit, otherwise as a guard
    at that level.  Projections only add implied constraints, so the nest
    visits exactly the space's points in lexicographic order.
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
            levels.append(LoopLevel(v, "fixed", expr=_solve_unit(c0, v), guards=guards))
            continue
        lowers, uppers, mods, guards = [], [], [], []
        for c in on_v:
            a = c.expr.coeff(v)
            if c.kind == GE0 and abs(a) == 1:
                (lowers if a > 0 else uppers).append(_solve_unit(c, v))
            elif c.kind == MODEQ and abs(a) == 1:
                mods.append(c)
            else:
                guards.append(c)
        if not lowers or not uppers:
            raise UnboundedError(f"unbounded iterator {v}")
        if mods:
            c0 = mods[0]
            guards.extend(mods[1:])
            sign = 1 if c0.expr.coeff(v) > 0 else -1
            # a*v + rest === r (mod m)  ->  v === sign*(r - rest) (mod m)
            phase = (AffineExpr.constant(c0.residue) - c0.expr.drop(v)) * sign
            levels.append(LoopLevel(v, "strided", tuple(lowers), tuple(uppers),
                                    stride=int(c0.modulus), phase=phase,
                                    guards=tuple(guards)))
        else:
            levels.append(LoopLevel(v, "loop", tuple(lowers), tuple(uppers),
                                    guards=tuple(guards)))
    return LoopNest(dims, space.params, tuple(levels), top_guards)


# Most points one enumeration block expands to; a single longer row is
# expanded whole.  Bounds the frontier's memory at any depth.
BLOCK_POINTS = 1 << 13


def _level_range(lv, cols, env, n):
    """Inclusive int64 [lo, hi] columns of a level over n frontier rows: a
    fixed level's one value, else max(lowers)..min(uppers) with a strided
    level's lo moved up to its phase."""
    lowers, uppers = ((lv.expr,),) * 2 if lv.kind == "fixed" else (lv.lowers, lv.uppers)
    lo = np.max([-(-v // k) for v, k in
                 (affine_columns(e, cols, env, n) for e in lowers)], axis=0)
    hi = np.min([v // k for v, k in
                 (affine_columns(e, cols, env, n) for e in uppers)], axis=0)
    if lv.kind == "strided":
        phase, _ = affine_columns(lv.phase, cols, env, n)
        lo = lo + (phase - lo) % lv.stride
    return lo, hi


def _row_blocks(lengths):
    """Consecutive row slices expanding to at most BLOCK_POINTS points each,
    or to one row when that row alone is longer."""
    ends = np.cumsum(lengths)
    start, base = 0, 0
    while start < len(lengths):
        stop = max(int(np.searchsorted(ends, base + BLOCK_POINTS, "right")), start + 1)
        yield start, stop
        start, base = stop, int(ends[stop - 1])


def _expand(nest, env, k, cols, n):
    """Points below a frontier of n > 0 rows (cols: var -> int64 column)
    that has set every level above k, in lexicographic order."""
    if k == len(nest.levels):
        yield np.array([cols[d] for d in nest.dims], dtype=np.int64).reshape(-1, n).T
        return
    lv = nest.levels[k]
    lo, hi = _level_range(lv, cols, env, n)
    lengths = np.maximum((hi - lo) // lv.stride + 1, 0)
    for start, stop in _row_blocks(lengths):
        counts = lengths[start:stop]
        rows = np.repeat(np.arange(start, stop), counts)
        offset = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        block = {d: c[rows] for d, c in cols.items()}
        block[lv.var] = lo[rows] + offset * lv.stride
        if lv.guards:
            keep = constraints_mask(lv.guards, block, env, len(rows))
            block = {d: c[keep] for d, c in block.items()}
        if len(block[lv.var]):
            yield from _expand(nest, env, k + 1, block, len(block[lv.var]))


def iter_point_chunks(nest, binding):
    """Yield the visited points in lexicographic order as int64 matrices
    (columns = nest dims).

    The frontier of partial points grows one level at a time: each row is
    repeated over the level's [lo, hi] range (one value on a fixed level),
    and the level's guards drop rows.  Used by pack/unpack, which cannot
    afford the box-scan enumerator.
    """
    if nest.empty:
        return
    env = {p: int(binding[p]) for p in nest.params if p in binding}
    if all(g.satisfied(env) for g in nest.guards):
        yield from _expand(nest, env, 0, {}, 1)


# ---------------------------------------------------------------------------
# Access plans and kernel plans


@dataclass(frozen=True)
class AccessPlan:
    tensor: str
    slot: str              # "out" | "in<k>"
    buffer_id: int
    layout: str            # "compressed" | "dense"
    names: tuple           # iterator name per tensor axis
    rank: object = None    # PiecewiseQuasiPolynomial in iterator names
    plan: object = None    # HoistPlan when the rank is a single polynomial
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
    source: str = field(compare=False, default="")
    fn: object = field(compare=False, default=None)


@dataclass(frozen=True)
class KernelPlan:
    rule: str
    summands: tuple
    registry: object
    compression: str       # "none" | "input" | "input+output"
    schedule: str = "identity"


def _access_plan(registry, si, slot, acc, compression, space):
    bid = registry.assignment[(si, slot)]
    buf = registry.buffers[bid]
    wants = (compression == "input+output") if slot == "out" else (compression != "none")
    if buf.layout != "compressed" or not wants:
        return AccessPlan(acc.tensor, slot, bid, "dense", tuple(acc.index_names))
    # buffer rank dims are the first access's iterators; rename to ours
    mapping = {d: acc.index_names[buf.axes[p]]
               for p, d in enumerate(buf.accessed.dims)}
    rank = buf.index.rank.rename(mapping)
    poly = rank.single_polynomial()
    plan = hoist_schedule(poly, space.dims) if poly is not None else None
    scale = 1
    for _, piece_poly in rank.pieces:
        scale = scale * piece_poly.denominator_lcm() // math.gcd(
            scale, piece_poly.denominator_lcm())
    return AccessPlan(acc.tensor, slot, bid, "compressed", tuple(acc.index_names),
                      rank=rank, plan=plan, scale=int(scale))


def build_plan(program, rule, compression="input+output"):
    if compression not in ("none", "input", "input+output"):
        raise CodegenError(f"unknown compression level {compression!r}")
    summands = build_compressed_summands(program, rule)
    registry = build_registry(summands)
    plans = []
    for si, s in enumerate(summands):
        space = iteration_space(s)
        nest = build_loop_nest(space)
        out_plan = _access_plan(registry, si, "out", s.output, compression, space)
        ins = tuple(_access_plan(registry, si, f"in{k}", a, compression, space)
                    for k, a in enumerate(s.inputs))
        stmt = Statement(out_plan, ins)
        par = (not nest.empty and len(nest.levels) > 0
               and nest.levels[0].kind != "fixed"
               and nest.dims[0] in s.output.index_names)
        src = _generate_source(nest, stmt)
        fn = _compile_source(src)
        plans.append(SummandPlan(nest, stmt, par, src, fn))
    return KernelPlan(rule, tuple(plans), registry, compression)


# ---------------------------------------------------------------------------
# Python source generation

_PI = "i_"     # iterator prefix in generated code
_PP = "p_"     # parameter prefix


def _n(v, dims):
    return (_PI if v in dims else _PP) + v


def _py_affine(expr, dims):
    parts = []
    for v, a in sorted(expr.coeffs.items()):
        assert Fraction(a).denominator == 1
        parts.append(f"{int(a)}*{_n(v, dims)}")
    parts.append(str(int(expr.const)))
    return "(" + " + ".join(parts) + ")"


def _py_poly(qp, scale, dims):
    """Integer code for scale*qp; scale must clear all denominators."""
    parts = []
    for mono, coeff in sorted(qp.terms.items()):
        c = coeff * scale
        assert c.denominator == 1
        factors = [str(int(c))]
        for v, e in mono:
            factors.extend([_n(v, dims)] * e)
        parts.append("*".join(factors))
    return "(" + (" + ".join(parts) if parts else "0") + ")"


def _py_guard(c, dims):
    scaled, _ = c.expr.scaled_integer()
    e = _py_affine(scaled, dims)
    if c.kind == GE0:
        return f"({e} >= 0)"
    if c.kind == EQ0:
        return f"({e} == 0)"
    return f"({e} % {c.modulus} == {c.residue % c.modulus})"


class _Emitter:
    def __init__(self):
        self.lines = []
        self.depth = 1

    def put(self, text):
        self.lines.append("    " * self.depth + text)

    def text(self):
        return "\n".join(self.lines) + "\n"


def _generate_source(nest, stmt):
    """Python source for one summand; deepest non-fixed level vectorized.

    Signature: fn(out, store, shapes, lengths, b, lo0, hi0) where `store`
    maps compressed buffer id -> flat array and dense tensor name -> flat
    row-major array, `lengths` maps buffer id -> length, and [lo0, hi0]
    clamps the outermost level inclusively (parallel chunking).
    """
    dims = nest.dims
    em = _Emitter()
    em.lines.append("def _summand(out, store, shapes, lengths, b, lo0, hi0):")
    if nest.empty:
        em.put("return")
        return em.text()
    for p in nest.params:
        em.put(f"{_PP}{p} = b['{p}']")
    for g in nest.guards:
        em.put(f"if not {_py_guard(g, dims)}: return")

    accesses = [stmt.output] + list(stmt.inputs)
    vec_level = -1
    for k, lv in enumerate(nest.levels):
        if lv.kind != "fixed":
            vec_level = k

    hoisted = {}   # (access index, level) -> accumulator code name

    def emit_const_accs():
        for ai, a in enumerate(accesses):
            if a.plan is not None:
                em.put(f"r{ai}_c = {_py_poly(a.plan.const, a.scale, dims)}")
                hoisted[(ai, -1)] = f"r{ai}_c"

    def emit_hoist_steps(k):
        for ai, a in enumerate(accesses):
            if a.plan is None:
                continue
            prev = hoisted[(ai, k - 1)]
            parts = []
            for e, coeff in a.plan.levels[k]:
                mono = "*".join([_n(dims[k], dims)] * e)
                parts.append(f"{_py_poly(coeff, a.scale, dims)}*{mono}")
            if parts:
                em.put(f"r{ai}_{k} = {prev} + " + " + ".join(parts))
                hoisted[(ai, k)] = f"r{ai}_{k}"
            else:
                hoisted[(ai, k)] = prev

    emit_const_accs()
    in_loop = False
    scalar_upto = vec_level if vec_level >= 0 else len(nest.levels)
    for k in range(scalar_upto):
        lv = nest.levels[k]
        v = _n(lv.var, dims)
        if lv.kind == "fixed":
            em.put(f"{v} = {_py_affine(lv.expr, dims)}")
        else:
            lo = _py_max([_py_affine(e, dims) for e in lv.lowers]
                         + (["lo0"] if k == 0 else []))
            hi = _py_min([_py_affine(e, dims) for e in lv.uppers]
                         + (["hi0"] if k == 0 else []))
            if lv.kind == "strided":
                em.put(f"_s{k} = {lo}")
                em.put(f"_s{k} += ({_py_affine(lv.phase, dims)} - _s{k}) % {lv.stride}")
                em.put(f"for {v} in range(_s{k}, {hi} + 1, {lv.stride}):")
            else:
                em.put(f"for {v} in range({lo}, {hi} + 1):")
            em.depth += 1
            in_loop = True
        skip = "continue" if in_loop else "return"
        for g in lv.guards:
            em.put(f"if not {_py_guard(g, dims)}: {skip}")
        emit_hoist_steps(k)

    if vec_level < 0:
        _emit_body(em, nest, stmt, accesses, hoisted, None, set())
        return em.text()

    lv = nest.levels[vec_level]
    k = vec_level
    v = _n(lv.var, dims)
    lo = _py_max([_py_affine(e, dims) for e in lv.lowers] + (["lo0"] if k == 0 else []))
    hi = _py_min([_py_affine(e, dims) for e in lv.uppers] + (["hi0"] if k == 0 else []))
    if lv.kind == "strided":
        em.put(f"_lo = {lo}")
        em.put(f"_lo += ({_py_affine(lv.phase, dims)} - _lo) % {lv.stride}")
        em.put(f"{v} = np.arange(_lo, {hi} + 1, {lv.stride}, dtype=np.int64)")
    else:
        em.put(f"{v} = np.arange({lo}, {hi} + 1, dtype=np.int64)")

    # deeper levels are all fixed; fold their exprs into one substitution so
    # their guards become pure functions of the vector and outer scalars
    subs = {}
    for deeper in nest.levels[vec_level + 1:]:
        subs[deeper.var] = deeper.expr.substitute(subs) if subs else deeper.expr
    mask_cs = list(lv.guards)
    for deeper in nest.levels[vec_level + 1:]:
        mask_cs.extend(g.substitute(subs) for g in deeper.guards)
    if mask_cs:
        em.put(f"_m = " + " & ".join(_py_guard(g, dims) for g in mask_cs))
        em.put(f"{v} = {v}[_m]")
    em.put(f"if len({v}) == 0: " + ("continue" if in_loop else "return"))
    emit_hoist_steps(k)
    varying = {lv.var}
    for j in range(vec_level + 1, len(nest.levels)):
        deeper = nest.levels[j]
        em.put(f"{_n(deeper.var, dims)} = {_py_affine(subs[deeper.var], dims)}")
        varying.add(deeper.var)
        emit_hoist_steps(j)
    _emit_body(em, nest, stmt, accesses, hoisted, lv.var, varying)
    return em.text()


def _py_max(parts):
    return parts[0] if len(parts) == 1 else "max(" + ", ".join(parts) + ")"


def _py_min(parts):
    return parts[0] if len(parts) == 1 else "min(" + ", ".join(parts) + ")"


def _varies(a, varying):
    return bool(set(a.names) & varying)


def _emit_index(em, ai, a, nest, hoisted, vec):
    """Emit idx{ai} computation; returns the code variable name."""
    dims = nest.dims
    name = f"idx{ai}"
    if a.layout == "dense":
        code = "0"
        for axis, it in enumerate(a.names):
            code = f"({code}*shapes['{a.tensor}'][{axis}] + {_n(it, dims)})"
        em.put(f"{name} = {code}")
        return name
    if a.plan is not None:
        acc = hoisted[(ai, len(nest.levels) - 1)]
        if a.scale == 1:
            em.put(f"{name} = {acc}")
        else:
            em.put(f"_r{ai} = {acc}")
            bad = f"(_r{ai} % {a.scale}).any()" if vec else f"_r{ai} % {a.scale}"
            em.put(f"if {bad}: raise IndexingFault('non-integer index')")
            em.put(f"{name} = _r{ai} // {a.scale}")
        return name
    # piecewise rank: evaluate piece by piece behind domain masks
    if vec:
        em.put(f"{name} = np.full(len(_vec), -1, dtype=np.int64)")
        for dom, poly in a.rank.pieces:
            cond = " & ".join(_py_guard(c, dims) for c in dom.constraints) or "True"
            s = poly.denominator_lcm()
            em.put(f"_pm = np.broadcast_to(np.asarray({cond}), _vec.shape)")
            em.put(f"_pv = np.broadcast_to(np.asarray({_py_poly(poly, s, dims)}), _vec.shape)")
            if s != 1:
                em.put(f"if (_pv[_pm] % {s}).any(): raise IndexingFault('non-integer index')")
                em.put(f"_pv = _pv // {s}")
            em.put(f"{name} = np.where(_pm, _pv, {name})")
    else:
        em.put(f"{name} = -1")
        for dom, poly in a.rank.pieces:
            cond = " and ".join(_py_guard(c, dims) for c in dom.constraints) or "True"
            s = poly.denominator_lcm()
            em.put(f"if {cond}:")
            em.depth += 1
            em.put(f"_pv = {_py_poly(poly, s, dims)}")
            if s != 1:
                em.put(f"if _pv % {s}: raise IndexingFault('non-integer index')")
                em.put(f"_pv = _pv // {s}")
            em.put(f"{name} = _pv")
            em.depth -= 1
    return name


def _strictly_increasing(out, nest, vec_var, varying):
    """Output indices strictly increase along the vector: plain `+=` is safe.

    Holds when the vectorized var itself is an output index and no deeper
    (vector-valued) var also feeds the output; the rank is then strictly
    monotone along the vector because lex order is.
    """
    others = varying - {vec_var}
    return vec_var in out.names and not (set(out.names) & others)


def _emit_body(em, nest, stmt, accesses, hoisted, vec_var, varying):
    dims = nest.dims
    vec = vec_var is not None
    if vec:
        em.put(f"_vec = {_n(vec_var, dims)}")
    names = [
        _emit_index(em, ai, a, nest, hoisted, vec and _varies(a, varying))
        for ai, a in enumerate(accesses)
    ]
    for ai, a in enumerate(accesses):
        if a.layout != "compressed":
            continue
        n, lim = names[ai], f"lengths[{a.buffer_id}]"
        if vec and _varies(a, varying):
            em.put(f"if len({n}) and (int({n}.min()) < 0 or int({n}.max()) >= {lim}):")
        else:
            em.put(f"if {n} < 0 or {n} >= {lim}:")
        em.depth += 1
        em.put(f"raise IndexingFault('index out of range for buffer {a.buffer_id}')")
        em.depth -= 1
    loads = []
    for ai, a in enumerate(accesses[1:], start=1):
        ref = (f"store[{a.buffer_id}]" if a.layout == "compressed"
               else f"store['{a.tensor}']")
        loads.append(f"{ref}[{names[ai]}]")
    prod = " * ".join(loads)
    out = stmt.output
    if not vec:
        em.put(f"out[{names[0]}] += {prod or '1'}")
    elif not _varies(out, varying):
        if not prod:
            em.put(f"out[{names[0]}] += len(_vec)")
        elif any(_varies(a, varying) for a in accesses[1:]):
            em.put(f"out[{names[0]}] += ({prod}).sum()")
        else:
            em.put(f"out[{names[0]}] += ({prod}) * len(_vec)")
    elif _strictly_increasing(out, nest, vec_var, varying):
        em.put(f"out[{names[0]}] += {prod or '1'}")
    else:
        em.put(f"np.add.at(out, {names[0]}, {prod or '1'})")


def _compile_source(src):
    glob = {"np": np, "IndexingFault": IndexingFault}
    exec(compile(src, "<summand>", "exec"), glob)
    return glob["_summand"]


# ---------------------------------------------------------------------------
# Execution


@dataclass
class ExecResult:
    dense: object          # flat ndarray or None
    compressed: dict       # output buffer id -> flat ndarray


def _buffer_lengths(plan, binding):
    return {b.id: int(b.index.size.evaluate(binding))
            for b in plan.registry.buffers if b.layout == "compressed"}


def _zero_outputs(plan, shapes, lengths, dtype):
    dense_out, comp = None, {}
    for sp in plan.summands:
        o = sp.statement.output
        if o.layout == "dense":
            if dense_out is None:
                dense_out = np.zeros(int(np.prod(shapes[o.tensor], dtype=np.int64)),
                                     dtype=dtype)
        elif o.buffer_id not in comp:
            comp[o.buffer_id] = np.zeros(lengths[o.buffer_id], dtype=dtype)
    return dense_out, comp


_BIG = 1 << 62

_FORK_STATE = None


def _fork_worker(chunks):
    plan, store, shapes, lengths, binding, dtype = _FORK_STATE
    dense_out, comp = _zero_outputs(plan, shapes, lengths, dtype)
    for si, lo, hi in chunks:
        sp = plan.summands[si]
        o = sp.statement.output
        arr = dense_out if o.layout == "dense" else comp[o.buffer_id]
        sp.fn(arr, store, shapes, lengths, binding, lo, hi)
    return pickle.dumps((dense_out, comp))


def execute(plan, store, shapes, binding, workers=1, dtype=np.float64):
    """Run every summand; returns zero-initialized-then-accumulated outputs.

    Parallel runs split the outermost range of parallelizable summands into
    per-worker chunks writing disjoint output slices, so results are
    bitwise identical to the sequential path for integer data.
    """
    binding = {k: int(v) for k, v in binding.items()}
    lengths = _buffer_lengths(plan, binding)
    dense_out, comp = _zero_outputs(plan, shapes, lengths, dtype)

    if workers <= 1 or not any(
            sp.parallelizable for sp in plan.summands if not sp.nest.empty):
        for sp in plan.summands:
            if sp.nest.empty:
                continue
            o = sp.statement.output
            arr = dense_out if o.layout == "dense" else comp[o.buffer_id]
            sp.fn(arr, store, shapes, lengths, binding, -_BIG, _BIG)
        return ExecResult(dense_out, comp)

    per_worker = [[] for _ in range(workers)]
    for si, sp in enumerate(plan.summands):
        if sp.nest.empty:
            continue
        if not sp.parallelizable:
            per_worker[0].append((si, -_BIG, _BIG))
            continue
        lo, hi = (int(x[0]) for x in _level_range(sp.nest.levels[0], {}, binding, 1))
        n = hi - lo + 1
        if n <= 0:
            continue
        step = -(-n // workers)
        for w in range(workers):
            clo = lo + w * step
            chi = min(hi, clo + step - 1)
            if clo <= chi:
                per_worker[w].append((si, clo, chi))

    global _FORK_STATE
    _FORK_STATE = (plan, store, shapes, lengths, binding, dtype)
    try:
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            results = pool.map(_fork_worker, per_worker)
    finally:
        _FORK_STATE = None
    for blob in results:
        d, c = pickle.loads(blob)
        if d is not None:
            dense_out += d
        for bid, arr in c.items():
            comp[bid] += arr
    return ExecResult(dense_out, comp)


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


def _c_float(f):
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else repr(float(f))


def _c_monomial(mono):
    factors = []
    for v, e in mono:
        factors.extend([v] * e)
    return "*".join(factors)


def _c_poly(qp):
    """Factored rendering: pull out the common monomial, constant term first,
    e.g. (-1/2 + N)*Q prints as (( -0.5 + N)*Q)."""
    terms = sorted(qp.terms.items())
    if not terms:
        return "0"
    if len(terms) == 1:
        mono, c = terms[0]
        m = _c_monomial(mono)
        if not m:
            return _c_float(c)
        return m if c == 1 else f"{_c_float(c)}*{m}"
    common = None
    for mono, _ in terms:
        exps = dict(mono)
        if common is None:
            common = exps
        else:
            common = {v: min(e, exps.get(v, 0)) for v, e in common.items()}
    common = {v: e for v, e in (common or {}).items() if e > 0}
    reduced = []
    for mono, c in terms:
        red = tuple((v, e - common.get(v, 0)) for v, e in mono if e > common.get(v, 0))
        reduced.append((sum(e for _, e in red), red, c))
    reduced.sort(key=lambda t: (t[0], t[1]))
    inner_parts = []
    for _, red, c in reduced:
        m = _c_monomial(red)
        if not m:
            inner_parts.append(_c_float(c))
        elif c == 1:
            inner_parts.append(m)
        else:
            inner_parts.append(f"{_c_float(c)}*{m}")
    inner = " + ".join(inner_parts).replace("+ -", "- ")
    if inner.startswith("-"):
        inner = " " + inner
    if not common:
        return f"({inner})"
    return f"(({inner})*{_c_monomial(tuple(sorted(common.items())))})"


def _c_affine(expr):
    parts = []
    for v, a in sorted(expr.coeffs.items()):
        a = int(a)
        parts.append(v if a == 1 else f"{a}*{v}")
    c = int(expr.const)
    if c or not parts:
        parts.append(str(c))
    return " + ".join(parts).replace("+ -", "- ")


def _c_guard(c):
    scaled, _ = c.expr.scaled_integer()
    e = _c_affine(scaled)
    if c.kind == GE0:
        return f"{e} >= 0"
    if c.kind == EQ0:
        return f"{e} == 0"
    return f"MODP({e}, {c.modulus}) == {c.residue % c.modulus}"


def _c_fold(parts, macro):
    out = parts[0]
    for p in parts[1:]:
        out = f"{macro}({out}, {p})"
    return out


_C_PRELUDE = [
    "/* generated kernel code */",
    "#include <stdlib.h>",
    "#define MAX2(a, b) ((a) > (b) ? (a) : (b))",
    "#define MIN2(a, b) ((a) < (b) ? (a) : (b))",
    "#define MODP(a, m) ((((a) % (m)) + (m)) % (m))",
    "",
]


def emit_c(plan, dtype="double"):
    """Freestanding C99 text mirroring the plan, one function per summand."""
    lines = list(_C_PRELUDE)
    for si, sp in enumerate(plan.summands):
        lines.extend(_emit_c_summand(plan, si, sp, dtype))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def emit_c_files(plan, dtype="double"):
    """(filename, text) per summand, named <rule>_<summand index>.c."""
    out = []
    for si, sp in enumerate(plan.summands):
        text = "\n".join(_C_PRELUDE + _emit_c_summand(plan, si, sp, dtype))
        out.append((f"{plan.rule}_{si}.c", text.rstrip() + "\n"))
    return out


def _emit_c_summand(plan, si, sp, dtype):
    stmt = sp.statement
    accesses = [stmt.output] + list(stmt.inputs)
    params = sp.nest.params
    args = [f"{dtype}* {stmt.output.tensor}"]
    seen = {stmt.output.tensor}
    for a in stmt.inputs:
        if a.tensor not in seen:
            args.append(f"const {dtype}* {a.tensor}")
            seen.add(a.tensor)
    for p in params:
        args.append(f"long {p}")
    for a in accesses:
        if a.layout == "dense":
            for axis in range(len(a.names)):
                arg = f"long n_{a.tensor}{axis}"
                if arg not in args:
                    args.append(arg)
        else:
            arg = f"long len{a.buffer_id}"
            if arg not in args:
                args.append(arg)
    out = [f"void {plan.rule.lower()}_s{si}({', '.join(args)}) {{"]
    ind = [1]

    def put(s):
        out.append("  " * ind[0] + s)

    if sp.nest.empty:
        out.append("}")
        return out
    for g in sp.nest.guards:
        put(f"if (!({_c_guard(g)})) return;")

    hoist = {}
    for ai, a in enumerate(accesses):
        if a.plan is None:
            continue
        put(f"double r{ai}_c = {_c_poly(a.plan.const)};")
        hoist[(ai, -1)] = f"r{ai}_c"
        for k, parts in enumerate(a.plan.levels):
            for e, coeff in parts:
                if coeff.variables() and coeff.variables() <= set(params):
                    name = f"h{ai}_{k}_{e}"
                    put(f"double {name} = {_c_poly(coeff)};  /* hoisted */")
                    hoist[(ai, k, e)] = name

    closes = 0
    for k, lv in enumerate(sp.nest.levels):
        v = lv.var
        if lv.kind == "fixed":
            put(f"int {v} = {_c_affine(lv.expr)};")
        else:
            lo = _c_fold([f"({_c_affine(e)})" for e in lv.lowers], "MAX2")
            hi = _c_fold([f"({_c_affine(e)})" for e in lv.uppers], "MIN2")
            if lv.kind == "strided":
                put(f"int {v}_lo = {lo};")
                put(f"{v}_lo += MODP(({_c_affine(lv.phase)}) - {v}_lo, {lv.stride});")
                put(f"for (int {v} = {v}_lo; {v} <= {hi}; {v} += {lv.stride}) {{")
            else:
                put(f"for (int {v} = {lo}; {v} <= {hi}; {v}++) {{")
            ind[0] += 1
            closes += 1
        for g in lv.guards:
            put(f"if (!({_c_guard(g)})) continue;")
        for ai, a in enumerate(accesses):
            if a.plan is None:
                continue
            prev = hoist[(ai, k - 1)]
            parts = []
            for e, coeff in a.plan.levels[k]:
                cexpr = hoist.get((ai, k, e)) or _c_poly(coeff)
                parts.append(f"{cexpr}*" + "*".join([v] * e))
            if parts:
                put(f"double r{ai}_{k} = {prev} + " + " + ".join(parts) + ";")
                hoist[(ai, k)] = f"r{ai}_{k}"
            else:
                hoist[(ai, k)] = prev

    last = len(sp.nest.levels) - 1
    refs = []
    for ai, a in enumerate(accesses):
        if a.layout == "dense":
            code = "0"
            for axis, it in enumerate(a.names):
                code = f"({code} * n_{a.tensor}{axis} + {it})"
            put(f"long k{ai} = {code};")
        elif a.plan is not None:
            put(f"long k{ai} = (long)({hoist[(ai, last)]});")
            put(f"if (k{ai} < 0 || k{ai} >= len{a.buffer_id}) abort();")
        else:
            put(f"long k{ai} = -1;")
            for dom, poly in a.rank.pieces:
                cond = " && ".join(f"({_c_guard(c)})" for c in dom.constraints) or "1"
                put(f"if ({cond}) k{ai} = (long)({_c_poly(poly)});")
            put(f"if (k{ai} < 0 || k{ai} >= len{a.buffer_id}) abort();")
        refs.append(f"k{ai}")
    prod = " * ".join(f"{a.tensor}[{refs[ai]}]"
                      for ai, a in enumerate(accesses) if ai > 0)
    put(f"{stmt.output.tensor}[{refs[0]}] += {prod};")
    for _ in range(closes):
        ind[0] -= 1
        put("}")
    out.append("}")
    return out
