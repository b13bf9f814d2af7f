"""The array type at the package's public boundary.

A Tensor wraps the pixels of a LabeledImage and the input and output of
network.forward / network.logits; everything inside the package (ops, the
forward plans, training, the deconv tracer) works on plain ndarrays. Feature
maps are laid out (channels, height, width) row-major. Model data is
float32, and the ops accumulate in their input's dtype, so a float32 input
runs float32 GEMMs throughout. float64 is kept as given so verification
code (finite differences, oracles) runs the exact same ops in float64.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


class Tensor:
    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        arr = np.ascontiguousarray(arr)
        if arr.ndim == 0:
            raise DimensionError("tensor needs at least one axis")
        if min(arr.shape) < 1:
            raise DimensionError(f"tensor extents must be >= 1, got {arr.shape}")
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"
