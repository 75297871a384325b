"""Small conveniences shared by the tests; the library does not need them."""

import numpy as np

from polypack.runtime import DenseTensor

# y = B x over a sub-triangle: row i's run over j starts at MAX2(0, i + N - k)
SUBTRI = ("A(i) := B(i, j) * C(j)\n"
          "B_U(i, j) := (0 <= i < N) * (0 <= j < N) * (j - i >= N - k)\n")


def buffer_for(registry, summand_idx, slot):
    """The buffer a summand's slot ("out" or "in<k>") reads or writes."""
    return registry.buffers[registry.assignment[(summand_idx, slot)]]


def dense_tensors(registry):
    """The sorted names of the tensors the registry keeps dense."""
    return sorted({b.tensor for b in registry.buffers if b.layout == "dense"})


def dense_tensor(arr):
    """A DenseTensor holding an n-d array in row-major order."""
    arr = np.asarray(arr)
    return DenseTensor(arr.shape, np.ascontiguousarray(arr).ravel())


def reshaped(tensor):
    """A DenseTensor's values as an n-d array."""
    return tensor.data.reshape(tensor.shape)
