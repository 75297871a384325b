"""Dense <-> compressed data movement and storage accounting.

Packing gathers the accessed positions of a dense tensor into rank order;
unpacking scatters a buffer back out, optionally expanding redundant
positions through a redundancy map.  The footprint report prices a
registry's layout choices in exact element counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codegen import IndexingFault, build_loop_nest, iter_point_chunks
from .polyhedra import GE0, AffineExpr, Constraint, Polyhedron, affine_columns


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

    @staticmethod
    def zeros(shape, dtype=np.float64):
        return DenseTensor(tuple(shape), np.zeros(math.prod(
            int(e) for e in shape), dtype=dtype))

    @staticmethod
    def from_array(arr):
        arr = np.asarray(arr)
        return DenseTensor(arr.shape, np.ascontiguousarray(arr).ravel())

    def reshaped(self):
        return self.data.reshape(self.shape)


@dataclass
class CompressedBuffer:
    id: int
    length: int
    data: np.ndarray


def _flat_offsets(coords, shape):
    off = np.zeros(len(coords), dtype=np.int64)
    for a, extent in enumerate(shape):
        off = off * int(extent) + coords[:, a]
    return off


def _tensor_coords(pts, axes):
    coords = np.empty_like(pts)
    for pos, ax in enumerate(axes):
        coords[:, ax] = pts[:, pos]
    return coords


def _check_box(coords, shape, tensor):
    for a, extent in enumerate(shape):
        col = coords[:, a]
        if len(col) and (col.min() < 0 or col.max() >= int(extent)):
            raise IndexingFault(
                f"position outside the dense extent of {tensor} on axis {a}")


def pack(tensor, index, binding, axes=None, buffer_id=0):
    """Gather accessed positions of a dense tensor into rank order.

    The rank map is a bijection onto [0, size), so every compressed slot
    is written exactly once; a rank or coordinate out of range aborts
    rather than wrap.
    """
    length = int(index.size.evaluate(binding))
    out = np.zeros(length, dtype=tensor.data.dtype)
    if axes is None:
        axes = tuple(range(len(tensor.shape)))
    nest = build_loop_nest(index.accessed)
    written = 0
    for pts in iter_point_chunks(nest, binding):
        ranks = index.rank.evaluate_many(pts, binding)
        if len(ranks) and (ranks.min() < 0 or ranks.max() >= length):
            raise IndexingFault(
                f"rank outside [0, {length}) while packing {index.tensor}")
        coords = _tensor_coords(pts, axes)
        _check_box(coords, tensor.shape, index.tensor)
        out[ranks] = tensor.data[_flat_offsets(coords, tensor.shape)]
        written += len(ranks)
    if written != length:
        raise IndexingFault(
            f"packed {written} of {length} slots of {index.tensor}; "
            "rank map does not cover the buffer")
    return CompressedBuffer(buffer_id, length, out)


def _redmap_domain(rm, shape):
    cons = list(rm.domain)
    for a, name in enumerate(rm.iters):
        v = AffineExpr({name: Fraction(1)}, Fraction(0))
        cons.append(Constraint(GE0, v))
        cons.append(Constraint(GE0, AffineExpr(
            {name: Fraction(-1)}, Fraction(int(shape[a]) - 1))))
    names = set()
    for c in cons:
        names |= c.variables()
    params = tuple(sorted(names - set(rm.iters)))
    return Polyhedron.build(rm.iters, params, cons)


def unpack(buf, index, shape, binding, axes=None, redmap=None):
    """Scatter a compressed buffer back into a dense tensor.

    Positions off the accessed set stay zero unless a redundancy map sends
    them to a stored position; a mapped image outside the accessed set
    raises (DomainError from the rank evaluation).
    """
    shape = tuple(int(e) for e in shape)
    out = np.zeros(math.prod(shape), dtype=buf.data.dtype)
    if axes is None:
        axes = tuple(range(len(shape)))
    nest = build_loop_nest(index.accessed)
    for pts in iter_point_chunks(nest, binding):
        ranks = index.rank.evaluate_many(pts, binding)
        if len(ranks) and (ranks.min() < 0 or ranks.max() >= buf.length):
            raise IndexingFault(
                f"rank outside [0, {buf.length}) while unpacking {index.tensor}")
        coords = _tensor_coords(pts, axes)
        _check_box(coords, shape, index.tensor)
        out[_flat_offsets(coords, shape)] = buf.data[ranks]
    if redmap is not None:
        dom = _redmap_domain(redmap, shape)
        for pts in iter_point_chunks(build_loop_nest(dom), binding):
            cols = {d: pts[:, k] for k, d in enumerate(redmap.iters)}
            image = np.empty_like(pts)
            for k, pname in enumerate(redmap.primed):
                vals, scale = affine_columns(
                    redmap.substitution[pname], cols, binding, len(pts))
                if (vals % scale).any():
                    raise IndexingFault("redundancy map lands between integer positions")
                image[:, k] = vals // scale
            acc = np.empty_like(image)
            for pos, ax in enumerate(axes):
                acc[:, pos] = image[:, ax]
            ranks = index.rank.evaluate_many(acc, binding)
            out[_flat_offsets(pts, shape)] = buf.data[ranks]
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
    by_id = {b.id: b for b in plan.registry.buffers}
    store = {}
    for bid in sorted(comp_ids):
        b = by_id[bid]
        store[bid] = pack(tensors[b.tensor], b.index, binding,
                          axes=b.axes, buffer_id=bid).data
    for t in sorted(dense_names):
        store[t] = np.ascontiguousarray(tensors[t].data)
    return store


def gather_output(plan, result, shape, binding):
    """Collect an ExecResult into one dense tensor for the rule output."""
    shape = tuple(int(e) for e in shape)
    if result.dense is not None:
        return DenseTensor(shape, result.dense)
    by_id = {b.id: b for b in plan.registry.buffers}
    dtype = None
    for data in result.compressed.values():
        dtype = data.dtype
        break
    if dtype is None:
        return DenseTensor.zeros(shape)
    total = np.zeros(math.prod(shape), dtype=dtype)
    # disjoint output buffers scatter to disjoint positions; summing is exact
    for bid in sorted(result.compressed):
        b = by_id[bid]
        buf = CompressedBuffer(bid, len(result.compressed[bid]),
                               result.compressed[bid])
        total += unpack(buf, b.index, shape, binding, axes=b.axes).data
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

    No data is allocated; sizes come from evaluating the size polynomials.
    """
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
            stored = sum(int(b.index.size.evaluate(binding)) for b in bufs)
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
