"""Dense <-> compressed data movement and storage accounting.

Packing gathers the accessed positions of a dense tensor into rank order;
unpacking scatters a buffer back out, optionally expanding redundant
positions through a redundancy map.  Each is a copy statement between a
compressed rank and a dense row-major offset, lowered once per index
function (`IndexFunction.program`) or (map, axes) (`mapped_program`), and
walked by the same blocks of checked indices as `codegen.execute`
(`_leaf_blocks`): a region whose innermost level is a plain loop is walked
as runs, one checked base per row, and any other point by point.  Gathering
a result's compressed outputs runs each buffer's copy as the C function
that the plan's library holds (`KernelPlan.gathers`) where the result ran
on C, and on that walk otherwise.  A copy's rank and offset are bounded by
the same int64 rule as a summand's indices (`codegen._check_int64`) before
any array is allocated, each rank is checked against the compressed array
it indexes, and a copy from a buffer must visit every slot.  The footprint
report prices a registry's layout choices in exact element counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# iter_point_chunks is not called here: tracers hook it by this name
from .codegen import (
    _AXIS_EXTENT, _C_ELEMENTS, IndexingFault, _c_gather, _check_int64, _leaf_blocks,
    buffer_length, iter_point_chunks,
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


def _copy_env(index, shape, axes, binding):
    """The env of a copy between an index's region and a dense tensor of
    `shape` read along `axes` (see `codegen.copy_program`), after checking
    that no rank or dense offset can exceed int64 there."""
    env = {p: int(v) for p, v in binding.items()}
    for p, ax in enumerate(axes):
        env[(index.tensor, p)] = int(shape[ax])
        env[(index.tensor, p, "stride")] = math.prod(int(e) for e in shape[ax + 1:])
    if index.program is not None:
        _check_int64([index.program], env)
    return env


def _copies(prog, env, data, buffer_id, tensor=None):
    """(rank, dense offset) int64 columns per block of a copy program (see
    `codegen.copy_program`), walked as `execute` walks a summand.

    Ranks are checked against the compressed array `data`, a fault naming
    it buffer `buffer_id`, and positions against the dense shape before a
    block is yielded; given the `tensor` of an index's own copy, its ranks
    must cover all of `data`.
    """
    written = 0
    if prog is not None and guards_mask(prog.guards, {}, env):
        prog = prog._replace(leaves=(prog.leaves[0], prog.leaves[1]._replace(key=buffer_id)))
        for (offset, rank), m, _ in _leaf_blocks(prog, env, (None, data)):
            written += m
            yield rank, offset
    if tensor is not None:
        _check_covered(written, data, tensor)


def _check_covered(written, data, tensor):
    """Raise IndexingFault unless a copy visited every slot of `data`."""
    if written != len(data):
        raise IndexingFault(
            f"{written} of {len(data)} slots of {tensor} visited; "
            "rank map does not cover the buffer")


def pack(tensor, index, binding, axes=None, buffer_id=0):
    """Gather accessed positions of a dense tensor into rank order.

    The rank map is a bijection onto [0, size), so every compressed slot
    is written exactly once; a rank or coordinate out of range, or a rank
    that could overflow int64, aborts rather than wrap.
    """
    axes = tuple(range(len(tensor.shape))) if axes is None else axes
    env = _copy_env(index, tensor.shape, axes, binding)
    length = buffer_length(index, {p: int(v) for p, v in binding.items()})
    out = np.zeros(length, dtype=tensor.data.dtype)
    for rank, offset in _copies(index.program, env, out, buffer_id, index.tensor):
        out[rank] = tensor.data[offset]
    return CompressedBuffer(buffer_id, length, out)


def _scatter(data, prog, env, out, buffer_id, tensor=None):
    """Write each slot of `data` that `_copies` reaches to its place in `out`."""
    for rank, offset in _copies(prog, env, data, buffer_id, tensor):
        out[offset] = data[rank]


def unpack(buf, index, shape, binding, axes=None, redmap=None):
    """Scatter a compressed buffer back into a dense tensor.

    Positions off the accessed set stay zero unless a redundancy map sends
    them to a stored position (`IndexFunction.mapped_program`); an image
    outside the accessed set or between integer positions raises
    IndexingFault before any wrong slot is read.
    """
    shape = tuple(int(e) for e in shape)
    axes = tuple(range(len(shape))) if axes is None else tuple(axes)
    env = _copy_env(index, shape, axes, binding)
    mapped = None if redmap is None else index.mapped_program(redmap, axes)
    if mapped is not None:   # its nest reads each axis's extent by axis
        env.update((_AXIS_EXTENT.format(a), e) for a, e in enumerate(shape))
        _check_int64([mapped], env)
    out = np.zeros(math.prod(shape), dtype=buf.data.dtype)
    _scatter(buf.data, index.program, env, out, buf.id, index.tensor)
    _scatter(buf.data, mapped, env, out, buf.id)
    return DenseTensor(shape, out)


# ---------------------------------------------------------------------------
# Store assembly around an execution plan

def build_store(plan, tensors, binding):
    """Pack what a kernel plan reads: compressed slots keyed by buffer id,
    flat dense arrays keyed by tensor name."""
    comp_ids, dense_names = set(), set()
    for sp in plan.summands:
        for a in sp.statement.inputs:
            if a.layout == "compressed":
                comp_ids.add(a.buffer_id)
            else:
                dense_names.add(a.tensor)
    store = {}
    for bid in sorted(comp_ids):
        b = plan.registry.buffers[bid]
        store[bid] = pack(tensors[b.tensor], b.index, binding,
                          axes=b.axes, buffer_id=bid).data
    for t in sorted(dense_names):
        store[t] = np.ascontiguousarray(tensors[t].data)
    return store


def gather_output(plan, result, shape, binding):
    """Collect an ExecResult into one dense tensor for the rule output.

    Each compressed output buffer is copied to its positions: where the
    result ran on C ("c" in its `backends`), by its gather's C function
    (`codegen._c_gather`), else by its index's copy walk.  Either way the
    copy is bounded by the int64 rule before the output is allocated, each
    rank is checked against the buffer and each position against `shape`,
    and every slot of the buffer must be visited.
    """
    shape = tuple(int(e) for e in shape)
    if result.dense is not None:
        return DenseTensor(shape, result.dense)
    bufs, buffers = sorted(result.compressed.items()), plan.registry.buffers
    if not bufs:
        return DenseTensor(shape, np.zeros(math.prod(shape)))
    dtype = bufs[0][1].dtype   # C reads every buffer as this dtype, contiguous
    on_c = "c" in result.backends and dtype in _C_ELEMENTS and all(
        d.dtype == dtype and d.flags.c_contiguous for _, d in bufs)
    if on_c:
        env = {**{p: int(v) for p, v in binding.items()},
               **{(plan.rule, a): e for a, e in enumerate(shape)}}
        _check_int64([g.program for g in plan.gathers.values() if g.program is not None], env)
    else:
        envs = {bid: _copy_env(buffers[bid].index, shape, buffers[bid].axes, binding)
                for bid, _ in bufs}
    total = np.zeros(math.prod(shape), dtype=dtype)
    # output buffers are disjoint, or the registry would have demoted the
    # tensor: each position is written by one buffer at most
    for bid, data in bufs:
        if on_c:
            _check_covered(_c_gather(plan, bid, data, total, env), data, buffers[bid].tensor)
        else:
            _scatter(data, buffers[bid].index.program, envs[bid], total, bid, buffers[bid].tensor)
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
