"""Dense <-> compressed data movement and storage accounting.

Packing gathers the accessed positions of a dense tensor into rank order;
unpacking scatters a buffer back out, optionally expanding redundant
positions through a redundancy map.  Each is one copy statement, dense
T(names) += T_b(names) over the buffer's region (leaf 0 the dense
row-major offset, leaf 1 the rank), lowered once per (index, axes, buffer
id, map) and cached on the index (`IndexFunction.copy`), and walked by the
same blocks of checked indices as `codegen.execute` (`_leaf_blocks`) under
its env, the binding plus (tensor, axis) extents: a region whose innermost
level is a plain loop is walked as runs, one checked base per row, and any
other point by point; pack walks it the other way round (`_copy`).
Packing a plan's inputs (`build_store`) runs each buffer's copy as the C
function that the plan's library renders from it (`KernelPlan.packs`)
where `execute` would run C, and gathering a result's compressed outputs
runs it as another (`KernelPlan.gathers`) where the result ran on C; each
runs on that walk otherwise, and the first pack of a plan on C builds or
loads the library `execute` then calls.  Unpack always walks.  A copy's
rank and offset are bounded by the same int64 rule as a summand's indices
(`codegen._check_int64`) before any array is allocated, each rank is
checked against the compressed array it indexes, each position against
the shape, and every copy must visit every slot of its buffer.  The
footprint report prices a registry's layout choices in exact element
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# iter_point_chunks is not called here: tracers hook it by this name
from .codegen import (
    _AXIS_EXTENT, _C_ELEMENTS, IndexingFault, _c_copy, _c_library, _check_int64,
    _leaf_blocks, buffer_length, iter_point_chunks,
)
from .polyhedra import guards_mask


@dataclass
class DenseTensor:
    shape: tuple
    data: np.ndarray  # flat, row-major

    def __post_init__(self):
        self.shape = tuple(int(e) for e in self.shape)
        want = math.prod(self.shape)
        if len(self.data) != want:
            raise ValueError(
                f"flat length {len(self.data)} != product of shape {self.shape}")


@dataclass
class CompressedBuffer:
    id: int
    length: int
    data: np.ndarray


def _copy(prog, env, dense, data, into_buffer=False):
    """Walk a copy program (`IndexFunction.copy`) as `execute` walks a
    summand, doing dense[offset] = data[rank] on each block, or the reverse
    `into_buffer`; returns the points it visited.  Every rank is checked
    against `data` and every position against the dense extents before the
    block is copied."""
    visited = 0
    if prog is not None and guards_mask(prog.guards, {}, env):
        for (offset, rank), m, _ in _leaf_blocks(prog, env, (dense, data)):
            visited += m
            if into_buffer:
                data[rank] = dense[offset]
            else:
                dense[offset] = data[rank]
    return visited


def _check_covered(written, data, tensor):
    """Raise IndexingFault unless a copy visited every slot of `data`."""
    if written != len(data):
        raise IndexingFault(
            f"{written} of {len(data)} slots of {tensor} visited; "
            "rank map does not cover the buffer")


def pack(tensor, index, binding, axes=None, buffer_id=0, plan=None, backend=None):
    """Gather accessed positions of a dense tensor into rank order.

    The copy (`IndexFunction.copy`) runs from the tensor into the buffer:
    given the `plan` that reads the buffer, as its pack's C function
    (`KernelPlan.packs`) where `backend` allows, as `execute`'s does (gcc
    on PATH, float64 or int64 data, contiguous), else on the copy walk.
    The rank map is a bijection onto [0, size), so every compressed slot
    is written exactly once; a rank or coordinate out of range, or a rank
    that could overflow int64, aborts rather than wrap.
    """
    axes = tuple(range(len(tensor.shape))) if axes is None else axes
    prog, binding = index.copy(axes, buffer_id), {p: int(v) for p, v in binding.items()}
    env = {**binding, **{(index.tensor, a): e for a, e in enumerate(tensor.shape)}}
    _check_int64([prog], env)
    length = buffer_length(index, binding)
    out = np.zeros(length, dtype=tensor.data.dtype)
    if plan is not None and tensor.data.flags.c_contiguous \
            and _c_library(plan, out.dtype, backend) is not None:
        visited = _c_copy(plan, buffer_id, tensor.data, out, env, into_buffer=True)
    else:
        visited = _copy(prog, env, tensor.data, out, into_buffer=True)
    _check_covered(visited, out, index.tensor)
    return CompressedBuffer(buffer_id, length, out)


def unpack(buf, index, shape, binding, axes=None, redmap=None):
    """Scatter a compressed buffer back into a dense tensor.

    The buffer's copy (`IndexFunction.copy`, keyed by `buf.id`) is walked
    from the buffer into the tensor.  Positions off the accessed set stay
    zero unless a redundancy map sends them to a stored position (the copy
    through the map); an image outside the accessed set or between integer
    positions raises IndexingFault before any wrong slot is read.
    """
    shape = tuple(int(e) for e in shape)
    axes = tuple(range(len(shape))) if axes is None else axes
    prog = index.copy(axes, buf.id)
    mapped = None if redmap is None else index.copy(axes, buf.id, redmap)
    env = {**{p: int(v) for p, v in binding.items()},
           **{(index.tensor, a): e for a, e in enumerate(shape)},
           # the map's nest reads each axis's extent by axis
           **{_AXIS_EXTENT.format(a): e for a, e in enumerate(shape)}}
    _check_int64([prog, mapped], env)
    out = np.zeros(math.prod(shape), dtype=buf.data.dtype)
    _check_covered(_copy(prog, env, out, buf.data), buf.data, index.tensor)
    _copy(mapped, env, out, buf.data)
    return DenseTensor(shape, out)


# ---------------------------------------------------------------------------
# Store assembly around an execution plan

def build_store(plan, tensors, binding, backend=None):
    """Pack what a kernel plan reads: compressed slots keyed by buffer id,
    flat dense arrays keyed by tensor name.  Each buffer is packed by
    `pack` through the plan, on C or the walk as `backend` chooses
    (`execute`'s argument, with its meaning)."""
    _c_library(plan, None, backend)   # an unknown backend, or "c" without gcc, raises
    inputs = [a for sp in plan.summands for a in sp.statement.inputs]
    store = {}
    for bid in sorted({a.buffer_id for a in inputs if a.layout == "compressed"}):
        b = plan.registry.buffers[bid]
        store[bid] = pack(tensors[b.tensor], b.index, binding, axes=b.axes,
                          buffer_id=bid, plan=plan, backend=backend).data
    for t in sorted({a.tensor for a in inputs if a.layout == "dense"}):
        store[t] = np.ascontiguousarray(tensors[t].data)
    return store


def gather_output(plan, result, shape, binding):
    """Collect an ExecResult into one dense tensor for the rule output.

    Each compressed output buffer is copied to its positions by its
    index's copy (`IndexFunction.copy`): where the result ran on C ("c" in
    its `backends`), as its gather's C function (`codegen._c_copy`),
    else on the copy walk.  Either way the copy is bounded by the int64
    rule before the output is allocated, each rank is checked against the
    buffer and each position against `shape`, and every slot of the buffer
    must be visited.
    """
    shape = tuple(int(e) for e in shape)
    if result.dense is not None:
        return DenseTensor(shape, result.dense)
    bufs, buffers = sorted(result.compressed.items()), plan.registry.buffers
    dtype = bufs[0][1].dtype   # C reads every buffer as this dtype, contiguous
    on_c = "c" in result.backends and dtype in _C_ELEMENTS and all(
        d.dtype == dtype and d.flags.c_contiguous for _, d in bufs)
    env = {**{p: int(v) for p, v in binding.items()},
           **{(plan.rule, a): e for a, e in enumerate(shape)}}
    progs = {bid: buffers[bid].index.copy(buffers[bid].axes, bid) for bid, _ in bufs}
    _check_int64(progs.values(), env)
    total = np.zeros(math.prod(shape), dtype=dtype)
    # output buffers are disjoint, or the registry would have demoted the
    # tensor: each position is written by one buffer at most
    for bid, data in bufs:
        visited = (_c_copy(plan, bid, total, data, env) if on_c
                   else _copy(progs[bid], env, total, data))
        _check_covered(visited, data, buffers[bid].tensor)
    return DenseTensor(shape, total)


# ---------------------------------------------------------------------------
# Footprint accounting

@dataclass(frozen=True)
class TensorFootprint:
    tensor: str
    dense: int
    stored: int
    compressed: bool  # False when the registry demoted the tensor


@dataclass(frozen=True)
class FootprintReport:
    entries: tuple
    output: str

    def entry(self, tensor):
        for e in self.entries:
            if e.tensor == tensor:
                return e
        raise KeyError(tensor)

    def tensor_rate(self, tensor):
        e = self.entry(tensor)
        return Fraction(e.dense, e.stored) if e.stored else Fraction(e.dense)

    def dense_total(self):
        return sum(e.dense for e in self.entries)

    def stored_total(self, level):
        if level not in ("none", "input", "input+output"):
            raise ValueError(f"unknown compression level {level!r}")
        total = 0
        for e in self.entries:
            keep_dense = level == "none" or (
                level == "input" and e.tensor == self.output)
            total += e.dense if keep_dense else e.stored
        return total

    def rate(self, level):
        stored = self.stored_total(level)
        dense = self.dense_total()
        return Fraction(dense, stored) if stored else Fraction(dense)

    def render(self):
        lines = []
        for e in self.entries:
            role = "output" if e.tensor == self.output else "input"
            note = "" if e.compressed else " (kept dense)"
            lines.append(f"tensor={e.tensor} role={role} "
                         f"dense={e.dense} stored={e.stored}{note}")
        lines.append(f"total dense={self.dense_total()}")
        for level in ("none", "input", "input+output"):
            r = self.rate(level)
            lines.append(f"stored[{level}]={self.stored_total(level)} "
                         f"rate={_frac(r)} ({float(r):.3f})")
        return "\n".join(lines)


def _frac(r):
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def footprint_report(registry, binding, shapes, output):
    """Exact element counts, dense vs registry layout, per tensor.

    No data is allocated; each buffer is sized as `pack` and `execute` size
    it, from its lowered size polynomial (`codegen.buffer_length`).
    """
    binding = {p: int(v) for p, v in binding.items()}
    per = {}
    for b in registry.buffers:
        per.setdefault(b.tensor, []).append(b)
    entries = []
    for tensor in sorted(per):
        dense = math.prod(int(e) for e in shapes[tensor])
        bufs = per[tensor]
        if any(b.layout == "dense" for b in bufs):
            entries.append(TensorFootprint(tensor, dense, dense, False))
        else:
            stored = sum(buffer_length(b.index, binding) for b in bufs)
            entries.append(TensorFootprint(tensor, dense, stored, True))
    return FootprintReport(tuple(entries), output)


# ---------------------------------------------------------------------------
# Generated data

def random_tensor(shape, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    n = math.prod(int(e) for e in shape)
    if np.issubdtype(np.dtype(dtype), np.integer):
        data = rng.integers(-3, 4, size=n).astype(dtype, copy=False)
    else:
        data = rng.uniform(-1.0, 1.0, size=n).astype(dtype, copy=False)
    return DenseTensor(tuple(shape), data)
