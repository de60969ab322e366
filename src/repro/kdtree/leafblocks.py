"""Structure-of-arrays leaf blocks for the hot leaf-scan kernels.

The kd-tree finaliser permutes points into leaf order, so every leaf owns a
contiguous ``[start, start+count)`` slice of the point array.  The query
kernels, however, used to stream that data row-major (array-of-structs):
each distance accumulation touched ``dims`` consecutive float64 values per
point and the batched engine gathered whole ``(count, dims)`` row blocks.
:class:`LeafBlocks` stores the *transposed* layout instead — one contiguous
float64 column per dimension — so a leaf scan streams ``count`` consecutive
values per dimension (cache-line-aligned runs) and the batched engine
gathers flat 1-D columns.

Two scan kernels live here, one for each query engine:

- :func:`scan_columns_sq` — scalar engine: contiguous column slices.
- :func:`gather_columns_sq` — batched engine: fancy-indexed column gathers.

Both accumulate ``sum_d (x_d - q_d)**2`` with *identical* per-dimension
ordering (dim 0, then 1, ...), so they are IEEE bit-identical per
element.  That shared ordering is what keeps the vectorized-vs-scalar
byte-equality tests exact: the two engines no longer merely agree
mathematically, they execute the same floating-point op sequence per
candidate.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.annotations import exactness_path

__all__ = ["LeafBlocks", "gather_columns_sq", "scan_columns_sq"]


class LeafBlocks:
    """Per-dimension column copies of a kd-tree's leaf-ordered points.

    ``coords`` is the ``(dims, n_points)`` C-contiguous float64 transpose
    of the tree's (already leaf-permuted) point array.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: np.ndarray):
        if coords.ndim != 2 or coords.dtype != np.float64:
            raise ValueError("coords must be a 2-D float64 array")
        if not coords.flags.c_contiguous:
            raise ValueError("leaf block columns must be C-contiguous")
        self.coords = coords

    @classmethod
    def from_points(cls, points: np.ndarray) -> "LeafBlocks":
        """Build blocks from an ``(n, dims)`` float64 point array."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        return cls(np.ascontiguousarray(pts.T))

    @property
    def nbytes(self) -> int:
        return int(self.coords.nbytes)


@exactness_path
def scan_columns_sq(coords: np.ndarray, start: int, count: int, query: np.ndarray) -> np.ndarray:
    """Squared distances from ``query`` to one leaf's contiguous columns.

    ``coords`` is a ``(dims, n)`` column block, ``query`` a ``(dims,)``
    vector.  Accumulates per dimension in index order —
    the canonical op sequence shared with :func:`gather_columns_sq`.
    """
    end = start + count
    acc = np.zeros(count, dtype=coords.dtype)
    for d in range(coords.shape[0]):
        diff = coords[d, start:end] - query[d]
        acc += diff * diff
    return acc


@exactness_path
def gather_columns_sq(coords: np.ndarray, idx: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances for a batch of gathered leaf candidates.

    ``idx`` is an ``(m, cmax)`` int array of point indices (padded entries
    may repeat index 0 — callers mask them out), ``queries`` an
    ``(m, dims)`` array.  Element ``(i, j)``
    executes exactly the op sequence of :func:`scan_columns_sq` on point
    ``idx[i, j]`` and query ``i``, so the two engines match bit-for-bit.
    """
    acc = np.zeros(idx.shape, dtype=coords.dtype)
    for d in range(coords.shape[0]):
        diff = coords[d][idx] - queries[:, d, None]
        acc += diff * diff
    return acc
