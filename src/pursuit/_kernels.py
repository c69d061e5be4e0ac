"""Hot inner loop of the layer sweeps: the min/max filter over reach sets.

A value layer for ``k`` cops is a dense array of shape ``(P,) * (k + 1)``
(robber axis first).  One backward-induction step applies, per axis, a
filter that replaces each slice index by the extreme over its reach list
(CSR arrays ``indptr``/``indices``).  The filter is plain numpy.  It pads
each reach list to the widest, ``W``, with the point's own index, and folds
``W`` gathered slabs per block of output entries that hold about
``BLOCK_BYTES`` of layer and arg table.  A point always reaches itself, so a
pad repeats a value of its list: it never changes a min or a max, nor wins
an arg, which moves only on a strict gain.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_BYTES = 262144  # 32k float64 entries; a ball-net sweep took 3x as long with 4k or 128k


def active_backend() -> str:
    return "numpy"


def pad_reach(indptr, indices) -> np.ndarray:
    """The reach lists as a ``(P, W)`` table, each padded with its own index,
    in the narrowest unsigned dtype that holds ``P - 1``."""
    counts = np.diff(indptr)
    own = np.arange(counts.size, dtype=np.min_scalar_type(counts.size - 1))[:, None]
    rows = np.repeat(own, counts.max(initial=1), axis=1)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = indices  # row-major = CSR order
    return rows


def reach_filter(values, indptr, indices, axis, mode, want_arg=False, *, rows):
    """Extreme-over-reach filter along one axis of a dense layer.

    ``out[..., i, ...] = mode over j in reach(i) of values[..., j, ...]``.
    Ties resolve to the lowest reach index (reach lists are ascending).
    ``rows`` is ``pad_reach(indptr, indices)``.
    Returns the filtered array, and the arg table too if ``want_arg``, in
    the dtype of ``rows``.  A min or a max picks one of its inputs, so the
    result keeps the input's dtype.
    """
    fold, better = (np.minimum, np.less) if mode == "min" else (np.maximum, np.greater)
    values = np.asarray(values)
    shape = values.shape
    P = indptr.size - 1
    a, b = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    # A trailing axis would gather rows one element wide; view it as
    # (1, P, a) instead.  Results are written through the same transposed
    # view, so the only extra array is the contiguous copy of the input.
    flip = b == 1 and a > 1

    def as3(x):
        return x.reshape(a, P).T[None] if flip else x.reshape(a, P, b)

    src = np.ascontiguousarray(as3(values))
    out = np.empty(shape, dtype=values.dtype)
    arg = np.empty(shape, dtype=rows.dtype) if want_arg else None
    out3 = as3(out)
    arg3 = as3(arg) if want_arg else None
    entry_bytes = out.itemsize + (arg.itemsize if want_arg else 0)
    step = max(1, BLOCK_BYTES // (entry_bytes * a * b))
    for lo in range(0, P, step):
        block = rows[lo:lo + step]
        acc = src[:, block[:, 0], :]
        best = np.broadcast_to(block[:, :1], acc.shape).copy() if want_arg else None
        for w in range(1, block.shape[1]):
            slab = src[:, block[:, w], :]
            if want_arg:  # strict, so the first hit (lowest index) stays
                np.copyto(best, block[:, w, None], where=better(slab, acc))
            fold(acc, slab, out=acc)
        out3[:, lo:lo + step, :] = acc
        if want_arg:
            arg3[:, lo:lo + step, :] = best
    return (out, arg) if want_arg else out
