"""Hot inner loop of the layer sweeps: the min/max filter over reach sets.

A value layer for ``k`` cops is a dense array of shape ``(P,) * (k + 1)``
(robber axis first).  One backward-induction step applies, per axis, a
filter that replaces each slice index by the extreme over its reach list
(CSR arrays ``indptr``/``indices``).  The filter is plain numpy: one
gather and one reduction per net point.
"""

from __future__ import annotations

import math

import numpy as np

_REDUCERS = {
    "min": (np.ndarray.min, np.ndarray.argmin),
    "max": (np.ndarray.max, np.ndarray.argmax),
}


def active_backend() -> str:
    return "numpy"


def reach_filter(values, indptr, indices, axis, mode, want_arg=False):
    """Extreme-over-reach filter along one axis of a dense layer.

    ``out[..., i, ...] = mode over j in reach(i) of values[..., j, ...]``.
    Ties resolve to the lowest reach index (reach lists are ascending).
    Returns the filtered array, plus the argmin/argmax index array when
    ``want_arg`` is set.
    """
    extreme, pick = _REDUCERS[mode]
    values = np.asarray(values, dtype=np.float64)
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
    out = np.empty(shape)
    arg = np.empty(shape, dtype=np.int64) if want_arg else None
    out3 = as3(out)
    arg3 = as3(arg) if want_arg else None
    for i in range(P):
        local = indices[indptr[i]:indptr[i + 1]]
        sub = src[:, local, :]
        out3[:, i, :] = extreme(sub, axis=1)
        if want_arg:
            arg3[:, i, :] = local[pick(sub, axis=1)]  # first hit = lowest index
    return (out, arg) if want_arg else out
