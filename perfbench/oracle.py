"""Independent NumPy oracle for the builtin kernels.

One hand-written expression per builtin: ``np.einsum`` over the dense
inputs, with each structured input masked by its unique set spelled out
directly (``np.triu``, diagonals, fixed indices).  The oracle shares no
parser, Fourier-Motzkin, counting or enumeration code with the compiler and
has no cap on the size of the iteration box.

The masks transcribe the rule texts of ``cli.BUILTIN_KERNELS``;
``test_perfbench.py`` cross-checks every one against ``reference_execute``.
"""

from __future__ import annotations

import numpy as np

FLOAT_TOL = 1e-12    # matches cli.FLOAT_TOL


def _eye(shape, k=0):
    return np.eye(shape[0], shape[1], k=k, dtype=bool)


def _upper(shape, k=0):
    return np.triu(np.ones(shape[:2], dtype=bool), k=k)


def _only(extent, value):
    m = np.zeros(extent, dtype=bool)
    if 0 <= value < extent:
        m[value] = True
    return m


def _first_row_or_subdiagonal(shape):
    m = _eye(shape, k=-1)
    m[0, :] = True
    return m


def _diagonal3(shape):
    i = np.arange(shape[0])[:, None, None]
    k = np.arange(shape[1])[None, :, None]
    l = np.arange(shape[2])[None, None, :]
    return (i == k) & (k == l)


# kernel -> (einsum subscripts, input order, masks(binding, shapes))
_TTM = ("ijl,kl->ijk", ("B", "C"))
_THP = ("ijk,ijk->ijk", ("B", "C"))
_MTT = ("ikl,kj,lj->ij", ("B", "C", "D"))
_SPMV = ("ij,j->i", ("B", "C"))

KERNELS = {
    "TTM_DP": (*_TTM, lambda b, s: {"B": _eye(s["B"])[:, :, None]}),
    "TTM_J": (*_TTM, lambda b, s: {"B": _only(s["B"][1], b["J"])[None, :, None]}),
    "TTM_UT": (*_TTM, lambda b, s: {"B": _upper(s["B"])[:, :, None]}),
    "THP_DP": (*_THP, lambda b, s: {"B": _eye(s["B"])[:, :, None]}),
    "THP_I": (*_THP, lambda b, s: {"B": _only(s["B"][0], b["I"])[:, None, None]}),
    "THP_J": (*_THP, lambda b, s: {"B": _only(s["B"][1], b["J"])[None, :, None]}),
    "MTT_D": (*_MTT, lambda b, s: {"B": _diagonal3(s["B"]), "D": _eye(s["D"])}),
    "MTT_JUT": (*_MTT, lambda b, s: {"B": _upper(s["B"][:2], k=1)[:, :, None],
                                     "D": _only(s["D"][1], b["J"])[None, :]}),
    "MTT_J": (*_MTT, lambda b, s: {"D": _only(s["D"][1], b["J"])[None, :]}),
    "SpMV_L": (*_SPMV, lambda b, s: {"B": _first_row_or_subdiagonal(s["B"])}),
    "SpMV_UT": (*_SPMV, lambda b, s: {"B": _upper(s["B"])}),
    "SpMV_D": (*_SPMV, lambda b, s: {"B": _eye(s["B"])}),
}


def oracle(kernel, shapes, dense, binding):
    """Flat row-major output of ``kernel``.

    ``shapes`` maps tensor name -> tuple of ints; ``dense`` maps each input
    tensor name -> flat row-major array.
    """
    subscripts, inputs, masks = KERNELS[kernel]
    mask = masks(binding, shapes)
    operands = []
    for t in inputs:
        x = np.asarray(dense[t]).reshape(shapes[t])
        if t in mask:
            x = np.where(mask[t], x, np.zeros((), x.dtype))
        operands.append(x)
    return np.ascontiguousarray(np.einsum(subscripts, *operands)).ravel()


def iteration_points(kernel, shapes, binding):
    """Points one execution visits: the oracle's term count on all-ones inputs."""
    ones = {t: np.ones(int(np.prod(shapes[t])), dtype=np.int64)
            for t in KERNELS[kernel][1]}
    return int(oracle(kernel, shapes, ones, binding).sum())


def agrees(got, want, dtype):
    """Exact for integer dtypes; max error relative to max |want| otherwise."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if np.issubdtype(np.dtype(dtype), np.integer):
        return bool(np.array_equal(got, want))
    if not len(want):
        return True
    scale = max(float(np.max(np.abs(want))), 1e-30)
    return float(np.max(np.abs(got - want))) / scale <= FLOAT_TOL
