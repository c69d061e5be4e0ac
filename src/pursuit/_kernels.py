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

A pair plan (``pair_plan``) reads each list as runs of consecutive indices,
gathered from the layer stacked on its pair extremes (entry ``P + j`` is the
extreme of entries ``j`` and ``j + 1``): a run of ``m > 1`` costs
``ceil(m / 2)`` gathers, not ``m``.  The stack, about two layers, is built
in a pass per call, and the plan pays only over many sweeps of one reach
set, so only uniform limit loops use it; other value filters and all arg
filters read the padded table.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_BYTES = 262144  # 32k float64 entries; a ball-net sweep took 3x as long with 4k or 128k


def active_backend() -> str:
    return "numpy"


def _padded(counts, entries, top: int) -> np.ndarray:
    """Row ``i`` holds the next ``counts[i]`` of ``entries``, padded with
    ``i`` to the widest row, in the narrowest unsigned dtype that holds ``top``."""
    own = np.arange(counts.size, dtype=np.min_scalar_type(top))[:, None]
    rows = np.repeat(own, counts.max(initial=1), axis=1)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = entries  # row-major = CSR order
    return rows


def pad_reach(indptr, indices) -> np.ndarray:
    """The reach lists as a ``(P, W)`` table, each padded with its own index,
    in the narrowest unsigned dtype that holds ``P - 1``."""
    return _padded(np.diff(indptr), indices, indptr.size - 2)


def pair_plan(indptr, indices) -> np.ndarray | None:
    """The reach lists read through pair extremes, or None when pairs save
    nothing: when the plan's width ``G`` has ``G + 1 >= W``, as it has for
    every ``W < 4``.

    A run ``s, ..., s + m - 1`` of a list reads ``s`` if ``m == 1``, else the
    pairs ``P + s, P + s + 2, ...``; an odd run's last pair is ``P + s + m - 2``,
    which overlaps the pair before it.  Rows are padded with their own index."""
    P, counts = indptr.size - 1, np.diff(indptr)
    row = np.repeat(np.arange(P), counts)
    start = (np.diff(row, prepend=-1) != 0) | (np.diff(indices, prepend=-2) != 1)
    end = np.append(start[1:], True)  # a run's last entry
    pos = np.arange(indices.size) - np.flatnonzero(start)[np.cumsum(start) - 1]
    keep = pos % 2 == 0
    entry = np.where(end & (pos == 0), indices, P + indices - end)  # see above
    plan = np.bincount(row[keep], minlength=P)
    if plan.max() + 1 >= counts.max():
        return None
    return _padded(plan, entry[keep], 2 * P - 2)


def reach_filter(values, indptr, indices, axis, mode, want_arg=False, *, rows,
                 pairs=False):
    """Extreme-over-reach filter along one axis of a dense layer.

    ``out[..., i, ...] = mode over j in reach(i) of values[..., j, ...]``.
    Ties resolve to the lowest reach index (reach lists are ascending).
    ``rows`` is ``pad_reach(indptr, indices)``, or with ``pairs`` the plan
    of ``pair_plan``, which takes no arg table and gives the padded table's
    bits on integer layers (of float ``0.0`` and ``-0.0`` it may pick either).
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

    if pairs:  # entry P + j of the stack is the extreme of entries j and j + 1
        view = as3(values)
        src = np.empty((view.shape[0], 2 * P - 1, view.shape[2]), dtype=values.dtype)
        src[:, :P] = view
        fold(src[:, :P - 1], src[:, 1:P], out=src[:, P:])
    else:
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
