"""Dense <-> compressed data movement and storage accounting.

Packing gathers the accessed positions of a dense tensor into rank order;
unpacking scatters a buffer back out, optionally expanding redundant
positions through a redundancy map.  Each is one copy statement, dense
T(names) += T_b(names) over the buffer's region (leaf 0 the dense
row-major offset, leaf 1 the rank), lowered once per (index, axes, buffer
id, map) and cached on the index (`IndexFunction.lowered_copy`), under the
env of the binding plus (tensor, axis) extents.  pack, unpack and
gather_output share one copy driver (`_run_copies`): the int64 rule
(`codegen._check_int64`, the one a summand's indices obey) bounds every
copy's rank and offset before the array is allocated, each copy runs by
codegen's one runner (`_run`) on C or its walk as codegen's one rule
(`_c_library`) decides, and every copy of a buffer must visit every slot.
Packing a plan's inputs (`build_store`) runs each buffer's copy as the
plan's pack (`KernelPlan.packs`) with `execute`'s backend, so the first
pack of a plan on C builds or loads the library `execute` then calls;
gathering a result's compressed outputs runs them as its gathers
(`KernelPlan.gathers`), where the result ran on C ("c" in
`ExecResult.backends`) by that rule and else on the walk.  pack without a
plan and unpack, which has none, walk; pack's backend "c" without a plan
raises, as there is no library to run.  Either way each rank is checked
against the compressed array it indexes and each position against the
shape.  No copy runs for a buffer that is its tensor in row-major order
(`aliases`): the registry proves, once per buffer, that its region lies
in a box from 0 whose extents read parameters only and that its rank is
the row-major offset over that box (`indexing.identity_extents`); a call
checks in integers that each extent is the tensor's and that the buffer
holds as many values as the tensor, so the region is the whole box.
There `build_store` puts the tensor's own flat array in the store, and
`gather_output` returns a lone such output buffer as the output.  The
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
    _AXIS_EXTENT, IndexingFault, _c_library, _check_int64, _lowered, _run, buffer_length,
    iter_point_chunks,
)
from .polyhedra import poly_values


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


def _run_copies(copies, env, length, dtype, plan=None, backend=None):
    """Run copies into one new zeroed array of `length` and `dtype`, which
    each copy (sp, array, tensor) writes from `array`, and return it.  The
    copies' indices are bounded by the int64 rule before the array is
    allocated; each runs on C or the walk by one rule (`codegen._c_library`
    of `plan` and `backend`), and one that names its buffer's `tensor` must
    visit every slot of that buffer."""
    _check_int64([sp.program for sp, _, _ in copies], env)
    out = np.zeros(length, dtype=dtype)
    for sp, array, tensor in copies:
        arrays = (array, out) if sp.into else (out, array)
        visited = _run(sp, _c_library(plan, backend, arrays), arrays, env)
        if tensor is not None and visited != len(arrays[1]):
            raise IndexingFault(f"{visited} of {len(arrays[1])} slots of {tensor} visited; "
                                "rank map does not cover the buffer")
    return out


def pack(tensor, index, binding, axes=None, buffer_id=0, plan=None, backend=None):
    """Gather accessed positions of a dense tensor into rank order.

    The copy (`IndexFunction.lowered_copy`) runs from the tensor into the
    buffer: given the `plan` that reads the buffer, as its pack
    (`KernelPlan.packs`) on C where `backend` and the arrays allow
    (`codegen._c_library`), else on the copy walk; without a plan,
    backend "c" raises CodegenError.  The rank map is a bijection onto
    [0, size), so every compressed slot is written exactly once; a rank or
    coordinate out of range, or a rank that could overflow int64, aborts
    rather than wrap.
    """
    axes = tuple(range(len(tensor.shape))) if axes is None else axes
    binding = {p: int(v) for p, v in binding.items()}
    sp = plan.packs[buffer_id] if plan is not None else _lowered(
        "", *index.lowered_copy(axes, buffer_id), False, 1)
    env = {**binding, **{(index.tensor, a): e for a, e in enumerate(tensor.shape)}}
    out = _run_copies([(sp, tensor.data, index.tensor)], env, buffer_length(index, binding),
                      tensor.data.dtype, plan, backend)
    return CompressedBuffer(buffer_id, len(out), out)


def unpack(buf, index, shape, binding, axes=None, redmap=None):
    """Scatter a compressed buffer back into a dense tensor.

    The buffer's copy (`IndexFunction.lowered_copy`, keyed by `buf.id`) is
    walked from the buffer into the tensor.  Positions off the accessed set
    stay zero unless a redundancy map sends them to a stored position (the
    copy through the map); an image outside the accessed set raises
    IndexingFault before any wrong slot is read.
    """
    shape = tuple(int(e) for e in shape)
    axes = tuple(range(len(shape))) if axes is None else axes
    copies = [(_lowered("", *index.lowered_copy(axes, buf.id), False, 0),
               buf.data, index.tensor)]
    if redmap is not None:   # no coverage: the map need not reach every slot
        copies.append((_lowered("", *index.lowered_copy(axes, buf.id, redmap), False, 0),
                       buf.data, None))
    env = {**{p: int(v) for p, v in binding.items()},
           **{(index.tensor, a): e for a, e in enumerate(shape)},
           # the map's nest reads each axis's extent by axis
           **{_AXIS_EXTENT.format(a): e for a, e in enumerate(shape)}}
    return DenseTensor(shape, _run_copies(copies, env, math.prod(shape), buf.data.dtype))


# ---------------------------------------------------------------------------
# Store assembly around an execution plan

def aliases(index, shape, binding):
    """Whether a buffer is its tensor of `shape` in row-major order at an
    int binding: its index has an alias proof (`IndexFunction.extents`),
    each axis's extent is the shape's, and the buffer holds as many values
    as the shape.  The proof puts the region in the box of the extents,
    and a region as large as its box is the box, so the rank is the
    row-major offset and a copy either way would move every value to the
    slot it came from."""
    return (index.extents is not None and len(index.extents) == len(shape)
            and all(min(poly_values(u, {}, binding) for u in us) == e
                    for us, e in zip(index.int_extents, shape))
            and buffer_length(index, binding) == math.prod(shape))


def build_store(plan, tensors, binding, backend=None):
    """Pack what a kernel plan reads: compressed slots keyed by buffer id,
    flat dense arrays keyed by tensor name.  A buffer that is its tensor
    (`aliases`) is the tensor's flat array, not a copy, so the store may
    share memory with the caller's inputs; each other buffer is packed by
    `pack` through the plan, on C or the walk as `backend` chooses
    (`execute`'s argument, with its meaning)."""
    _c_library(plan, backend, ())   # an unknown backend, or "c" without gcc, raises
    binding = {p: int(v) for p, v in binding.items()}
    inputs = [a for sp in plan.summands for a in sp.statement.inputs]
    store = {}
    for bid in sorted({a.buffer_id for a in inputs if a.layout == "compressed"}):
        b = plan.registry.buffers[bid]
        t = tensors[b.tensor]
        if aliases(b.index, t.shape, binding):
            store[bid] = np.ascontiguousarray(t.data)
        else:
            store[bid] = pack(t, b.index, binding, axes=b.axes, buffer_id=bid, plan=plan,
                              backend=backend).data
    for t in sorted({a.tensor for a in inputs if a.layout == "dense"}):
        store[t] = np.ascontiguousarray(tensors[t].data)
    return store


def gather_output(plan, result, shape, binding):
    """Collect an ExecResult into one dense tensor for the rule output.

    A dense result, or a lone compressed output buffer that is the output
    (`aliases`) and holds its full length, is returned as it is: the
    tensor may be the result's own buffer.  Otherwise each compressed
    output buffer is copied to its positions by its gather
    (`KernelPlan.gathers`): where the result ran on C ("c" in its
    `backends`) by the rule `execute` follows (`codegen._c_library`), else
    on the copy walk.  Either way the copies are bounded by the int64 rule
    before the output is allocated, each rank is checked against the
    buffer and each position against `shape`, and every slot of each
    buffer must be visited.
    """
    shape = tuple(int(e) for e in shape)
    if result.dense is not None:
        return DenseTensor(shape, result.dense)
    bufs = sorted(result.compressed.items())
    binding = {p: int(v) for p, v in binding.items()}
    if len(bufs) == 1 and len(bufs[0][1]) == math.prod(shape) and aliases(
            plan.registry.buffers[bufs[0][0]].index, shape, binding):
        return DenseTensor(shape, bufs[0][1])
    env = {**binding, **{(plan.rule, a): e for a, e in enumerate(shape)}}
    # output buffers are disjoint, or the registry would have demoted the
    # tensor: each position is written by one buffer at most
    copies = [(plan.gathers[bid], data, plan.registry.buffers[bid].tensor) for bid, data in bufs]
    return DenseTensor(shape, _run_copies(copies, env, math.prod(shape), bufs[0][1].dtype, plan,
                                          None if "c" in result.backends else "numpy"))


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
