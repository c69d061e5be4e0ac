"""Compact geodesic spaces with intrinsic metric, geodesic stepping and nets.

Four concrete presentations are supported:

* :class:`MetricGraphSpace` -- a graph whose edges are real intervals of
  prescribed length; points are ``(edge_id, offset)`` pairs and distances
  are shortest paths through edge endpoints.
* :class:`BallSpace` -- the Euclidean ball of a given radius (convex, so
  geodesics are straight chords).
* :class:`SphereSpace` -- the round unit sphere with great-circle distance.
* :class:`ProductSpace` -- an l_p product of a base space with a real
  interval fiber.

All spaces answer ``distance``, ``step_toward`` (move along a geodesic with
a travel budget), point validation, uniform sampling, and JSON descriptions.
Distance queries are pure and safe to share between threads; a space never
mutates after construction.

Tie-breaking is deterministic everywhere: metric graphs prefer routes whose
edge-id sequence is lexicographically smallest among equal-length routes,
and antipodal sphere targets are nudged by a 1e-9 rotation before stepping.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, MalformedPointError

NORM_TOL = 1e-9
ANTIPODAL_NUDGE = 1e-9
DEFAULT_POINT_BUDGET = 20_000
_BLOCK_ENTRIES = 8192  # matrix entries per row block of a net build


class Space:
    """A compact geodesic space, as the game uses it: the metric, and moves
    of bounded length along a geodesic.

    ``distance(p, q)`` and ``step_toward(p, q, t)`` are the only public
    queries.  Each validates both points once with ``validate_point``
    (which raises :class:`MalformedPointError`), ``step_toward`` rejects a
    negative budget, and then the subclass's ``_distance(p, q)`` or
    ``_step(p, q, t)`` answers.  Code that already holds valid points, such
    as net points or a product's factors, calls those two directly.  A
    subclass also defines ``describe`` and the JSON codec ``point_to_json``
    / ``point_from_json`` (which parses a JSON list's numbers as config
    numbers are parsed).

    A batch is a space's array form of a list of points: edge-id and offset
    arrays on metric graphs, an ``(n, d)`` array of rows on balls and
    spheres, and a base batch with an array of fiber coordinates on
    products.  ``_batch(points)`` builds one, and ``_point(batch, i)`` is its
    ``i``-th point with the Python types of the scalar queries.  Three
    queries pass batches, bit for bit as their scalar forms:
    ``random_points(rng, n)`` draws as ``n`` calls of ``random_point`` do,
    in one block of ``_doubles`` per point if set; ``_distances(p, qs)`` is
    the float array of ``_distance(p, q)`` over the batch ``qs``; and
    ``_steps(p, qs, ts)`` the batch of ``_step(p, q, t)`` over paired targets
    and budgets.  Every space answers them with array code, except that
    sphere steps loop over ``_step`` (the default ``_steps``).
    """

    def distance(self, p, q) -> float:
        self.validate_point(p)
        self.validate_point(q)
        return self._distance(p, q)

    def step_toward(self, p, q, t: float):
        """Point on a geodesic from ``p`` to ``q`` at distance ``min(t, d(p,q))``
        from ``p``. ``t`` must be nonnegative; ``t >= d`` returns ``q``."""
        self.validate_point(p)
        self.validate_point(q)
        if t < 0:
            raise ValueError("negative travel budget")
        return self._step(p, q, t)

    def _steps(self, p, qs, ts):
        return self._batch([self._step(p, self._point(qs, i), t)
                            for i, t in enumerate(np.asarray(ts, dtype=float).tolist())])

    _doubles = None  # doubles per random point, when that count is fixed

    def random_point(self, rng: np.random.Generator):
        return self._point(self.random_points(rng, 1), 0)

    def random_points(self, rng: np.random.Generator, n: int):
        if self._doubles is None:
            return self._batch([self.random_point(rng) for _ in range(n)])
        return self._points_from(rng.random((n, self._doubles)))


def _norm(v) -> float:
    """``float(np.linalg.norm(v))`` for a 1-d float64 vector, bit for bit
    (numpy's norm takes ``sqrt(v.dot(v))`` there), without its dispatch."""
    return math.sqrt(v.dot(v))


def _row_norms(x) -> np.ndarray:
    """``_norm`` of each row of an ``(n, d)`` float64 array, bit for bit.

    A stacked ``matmul`` of each row with itself calls the BLAS dot that
    ``v.dot(v)`` calls, given the same vector layout: unit stride, and the
    16-byte alignment of a fresh vector (SSE2 kernels such as Prescott's
    sum a misaligned vector in another order), so the rows are copied into
    a buffer whose rows are padded to an even length.  Other numpy forms
    give other bits, so none may replace it: ``np.einsum`` and
    ``(x * x).sum(1)`` differ from ``v.dot(v)`` in many rows, and so does a
    gemv ``x @ p``; and beside it, ``np.arctan2`` differs from
    ``math.atan2`` and ``np.hypot`` from ``math.hypot`` in the last bit.
    ``np.vecdot`` gives the same bits, but it needs numpy 2, and numpy 1.24
    is supported."""
    n, d = x.shape
    rows = np.empty((n, d + d % 2))[:, :d]
    rows[...] = x
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _norms(x) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)``, bit for bit."""
    return np.sqrt((x * x).sum(axis=-1))


def _check_budget(count, budget: int) -> None:
    if count > budget:
        raise CapacityError("net points", count, budget)


def _ceil_div(a: float, b: float, slack: float = 0.0):
    """``math.ceil(a / b - slack)`` for a count of net points or segments,
    or ``inf`` when ``a / b`` is too large for a float (``b`` may even have
    underflowed to 0), which the budget check then reports."""
    x = a / b if b > 0 else math.inf
    return math.ceil(x - slack) if x < math.inf else math.inf


def _row_blocks(n: int, rows) -> np.ndarray:
    """The ``n x n`` matrix whose rows ``r`` (a slice) are ``rows(r)``,
    filled in blocks of about ``_BLOCK_ENTRIES`` entries so that no
    temporary is matrix-sized."""
    out = np.empty((n, n))
    step = max(1, _BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, n, step):
        r = slice(lo, lo + step)
        out[r] = rows(r)
    return out


# ---------------------------------------------------------------------------
# Metric graphs


class MetricGraphSpace(Space):
    """Metric graph: vertices joined by edges of positive length.

    Points are ``(edge_index, offset)`` with ``0 <= offset <= length``;
    a vertex is aliased by offset 0 / length of any incident edge.  All-pairs
    vertex distances are precomputed once (repeated Dijkstra with a
    deterministic predecessor tie-break), so point queries are O(1) plus a
    constant number of endpoint combinations.
    """

    def __init__(self, vertices, edges):
        self.vertex_ids = [str(v) for v in vertices]
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise ConfigError("duplicate vertex ids")
        self._vindex = {v: i for i, v in enumerate(self.vertex_ids)}
        self.edges = []
        for e in edges:
            u, v, length = e
            length = float(length)
            if not 0 < length < math.inf:
                raise ConfigError(f"edge ({u},{v}) length must be finite and positive, "
                                  f"got {length}")
            if str(u) not in self._vindex or str(v) not in self._vindex:
                raise ConfigError(f"edge ({u},{v}) references unknown vertex")
            self.edges.append((self._vindex[str(u)], self._vindex[str(v)], length))
        if not self.edges:
            raise ConfigError("metric graph needs at least one edge")
        self._build_shortest_paths()
        self._ends = np.array([(u, v) for u, v, _ in self.edges], dtype=np.intp)
        self._lengths = lengths = np.array([w for _, _, w in self.edges])
        with np.errstate(over="ignore"):
            if lengths.sum() == math.inf:  # weigh by lengths scaled below the float range
                lengths = lengths / lengths.max()
        # the CDF that Generator.choice builds from p = lengths / sum
        self._cdf = (lengths / lengths.sum()).cumsum()
        self._cdf /= self._cdf[-1]
        self._doubles = 2  # an edge's and an offset's

    # -- construction helpers

    def _build_shortest_paths(self):
        nv = len(self.vertex_ids)
        adj = [[] for _ in range(nv)]
        for ei, (u, v, w) in enumerate(self.edges):
            adj[u].append((v, w, ei))
            adj[v].append((u, w, ei))
        dist = np.full((nv, nv), np.inf)
        # pred[s][v] = (previous vertex, edge index) on the chosen shortest
        # path from s to v; ties prefer the smaller (vertex, edge) pair.
        pred = [[None] * nv for _ in range(nv)]
        for s in range(nv):
            dist[s, s] = 0.0
            heap = [(0.0, s)]
            done = [False] * nv
            while heap:
                d, u = heapq.heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                for v, w, ei in adj[u]:
                    nd = d + w
                    if nd < dist[s, v]:
                        dist[s, v] = nd
                        pred[s][v] = (u, ei)
                        heapq.heappush(heap, (nd, v))
                    elif nd == dist[s, v] and pred[s][v] is not None:
                        if (u, ei) < pred[s][v]:
                            pred[s][v] = (u, ei)
        if not np.isfinite(dist).all():  # no path, or every path's length overflows
            seen, todo = {0}, [0]
            while todo:
                for v, _, _ in adj[todo.pop()]:
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            if len(seen) < nv:
                raise ConfigError("metric graph is not connected")
            raise ConfigError("metric graph distances pass the float range "
                              f"(largest float {sys.float_info.max!r})")
        # enforce exact symmetry regardless of per-source rounding
        self.vdist = np.minimum(dist, dist.T)
        self._pred = pred

    # -- basic point handling

    def validate_point(self, p) -> None:
        try:
            e, off = p
            e = _whole(e)
            off = _num(off)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedPointError(f"not a graph point: {p!r}") from exc
        if not 0 <= e < len(self.edges):
            raise MalformedPointError(f"edge index {e} out of range")
        length = self.edges[e][2]
        if not -1e-12 <= off <= length + 1e-12:
            raise MalformedPointError(
                f"offset {off} outside [0, {length}] on edge {e}"
            )

    def vertex_point(self, v):
        """Canonical ``(edge, offset)`` address of a vertex (lowest edge id)."""
        vi = self._vindex[str(v)] if not isinstance(v, int) else v
        for ei, (u, w, length) in enumerate(self.edges):
            if u == vi:
                return (ei, 0.0)
            if w == vi:
                return (ei, length)
        raise MalformedPointError(f"vertex {v} is isolated")

    def point_to_json(self, p):
        return [int(p[0]), float(p[1])]

    def point_from_json(self, obj):
        e, off = _json_list(obj, 2)
        p = (_whole(e), _num(off))
        self.validate_point(p)
        return p

    def describe(self) -> dict:
        return {
            "type": "metric_graph",
            "vertices": list(self.vertex_ids),
            "edges": [
                [self.vertex_ids[u], self.vertex_ids[v], repr(w)]
                for u, v, w in self.edges
            ],
        }

    # -- metric

    def _exits(self, e: int, off: float):
        """``(vertex, cost to reach it, its offset)`` for both ends of edge ``e``."""
        u, v, length = self.edges[e]
        return (u, off, 0.0), (v, length - off, length)

    @np.errstate(over="ignore")  # a route past the float range is inf
    def _routes(self, ep: int, op_: float, eq: int, oq: float) -> list:
        """``(length, exits)`` of each candidate route from ``(ep, op_)`` to
        ``(eq, oq)``: the shared edge (``exits`` None) if any, then each pair
        of exits ``(x, cx, off_x)``, ``(y, cy, off_y)`` (see ``_exits``)
        joined by the chosen vertex path, summed ``(cx + vdist[x, y]) + cy``."""
        routes = [(abs(op_ - oq), None)] if ep == eq else []
        exits_q = self._exits(eq, oq)
        for ex in self._exits(ep, op_):
            for ey in exits_q:
                routes.append((ex[1] + self.vdist[ex[0], ey[0]] + ey[1], (ex, ey)))
        return routes

    def _distance(self, p, q) -> float:
        # canonical argument order makes symmetry exact; the strict running
        # minimum keeps the type of the first shortest length (Python inf if none)
        p, q = sorted([(int(p[0]), float(p[1])), (int(q[0]), float(q[1]))])
        best = math.inf
        for length, _ in self._routes(*p, *q):
            if length < best:
                best = length
        return best

    def _batch(self, points):
        n = len(points)
        return (np.fromiter((int(p[0]) for p in points), np.intp, n),
                np.fromiter((float(p[1]) for p in points), float, n))

    def _point(self, batch, i: int):
        return int(batch[0][i]), float(batch[1][i])

    def _exit_arrays(self, edge, off):
        """The exits of each point of the batch ``(edge, off)``, or of one
        point: the vertices at both ends of its edge and the cost of reaching
        each (``_exits``), as two arrays with a leading axis of 2."""
        return self._ends[edge].T, np.array([off, self._lengths[edge] - off])

    def _exit_routes(self, x, cx, y, cy):
        """The four routes from exits ``(x, cx)`` of one set of points to
        exits ``(y, cy)`` of a batch (``_exit_arrays``), each joined by the
        chosen vertex path, axes ``(2, ..., 2, n)``: summed from the first
        point's side ``(cx + vdist[x, y]) + cy``, and from the second's
        ``(cy + vdist[x, y]) + cx``."""
        vd = self.vdist[x].take(y, axis=-1)
        cx = cx[..., None, None]
        fwd = cx + vd
        fwd += cy
        vd += cy  # in place: a block of rows makes two temporaries, not five
        vd += cx
        return fwd, vd

    @np.errstate(over="ignore")  # a route past the float range is inf, as in _distance
    def _rows(self, ep, op_, exits_p, qs) -> np.ndarray:
        """``_distance`` from points with edge ids ``ep``, offsets ``op_``
        and exits ``exits_p`` to each point of the batch ``qs`` (edge ids,
        offsets and exits), bit for bit.  Scalars give one row; a block of
        rows has columns.  Each route is summed from the lexicographically
        smaller point's side, as ``_distance`` sums it."""
        eq, oq, exits_q = qs
        fwd, bwd = self._exit_routes(*exits_p, *exits_q)
        swap = (eq < ep) | ((eq == ep) & (oq < op_))
        via = np.where(swap, bwd.min(axis=(0, -2)), fwd.min(axis=(0, -2)))
        return np.minimum(np.where(eq == ep, np.abs(op_ - oq), np.inf), via)

    def _distances(self, p, qs) -> np.ndarray:
        ep, op_ = int(p[0]), float(p[1])
        return self._rows(ep, op_, self._exit_arrays(ep, op_), (*qs, self._exit_arrays(*qs)))

    def pairwise(self, points) -> np.ndarray:
        """Matrix of ``distance`` over ``points``, equal to it bit for bit."""
        edge, off = self._batch(points)
        y, cy = exits = self._exit_arrays(edge, off)
        qs = (edge, off, exits)
        return _row_blocks(len(points), lambda r: self._rows(
            edge[r, None], off[r, None], (y[:, r], cy[:, r]), qs))

    # -- geodesic routes

    def _path_segments(self, x: int, y: int) -> list:
        """Segments ``(edge, off_from, off_to)`` of the chosen shortest path
        from vertex ``x`` to vertex ``y``."""
        segs = []
        while y != x:
            prev, ei = self._pred[x][y]
            u, _, length = self.edges[ei]
            segs.append((ei, 0.0, length) if prev == u else (ei, length, 0.0))
            y = prev
        return segs[::-1]

    def _route_segments(self, ep, op_, eq, oq, exits):
        """Segments ``(edge, off_from, off_to)`` of one candidate route from
        ``(ep, op_)`` to ``(eq, oq)``: the shared edge when ``exits`` is
        None, else out through p's exit ``(x, cx, off_x)`` (see ``_exits``),
        along the chosen vertex path and in through q's exit ``(y, cy, off_y)``."""
        if exits is None:
            return [(ep, op_, oq)]
        (x, cx, off_x), (y, cy, off_y) = exits
        segs = [(ep, op_, off_x)] if cx > 0 else []
        segs += self._path_segments(x, y)
        if cy > 0:
            segs.append((eq, off_y, oq))
        return segs

    def _step(self, p, q, t: float):
        """Walk ``t`` along the shortest route; among routes of equal length
        the one with the smallest edge-id sequence wins (the first candidate
        on a tie), and only tied routes have their segments built.  Every
        segment has positive length."""
        ep, op_ = int(p[0]), float(p[1])
        eq, oq = int(q[0]), float(q[1])
        if t == 0.0:
            return (ep, op_)
        routes = self._routes(ep, op_, eq, oq)
        total = min(length for length, _ in routes)
        if t >= total:
            return (eq, oq)
        segs = min((self._route_segments(ep, op_, eq, oq, exits)
                    for length, exits in routes if length == total),
                   key=lambda r: tuple(s[0] for s in r))
        remaining = t
        for ei, a, b in segs:
            seg_len = abs(b - a)
            if remaining <= seg_len:
                direction = 1.0 if b > a else -1.0
                return (ei, float(a + direction * remaining))
            remaining -= seg_len
        return (eq, oq)

    @np.errstate(over="ignore")  # a route past the float range is inf
    def _steps(self, p, qs, ts):
        """``_step`` from ``p`` toward each point of the batch ``qs`` with
        budgets ``ts``, bit for bit.  The five route lengths are summed as
        ``_routes`` sums them; ``t == 0`` stays at ``p``, a target within its
        budget is returned, and a step that stays inside the first segment
        of the one shortest route, on the origin's own edge, is ``op_ +- t``.
        Every other target (tied routes, a step that leaves the edge) goes
        through ``_step``."""
        ep, op_ = int(p[0]), float(p[1])
        eq, oq = qs
        t = np.asarray(ts, dtype=float)
        via, _ = self._exit_routes(*self._exit_arrays(ep, op_), *self._exit_arrays(eq, oq))
        routes = np.concatenate([np.where(eq == ep, np.abs(oq - op_), np.inf)[None],
                                 via.reshape(4, len(eq))])
        total = routes.min(axis=0)
        wins = routes == total
        first = wins.argmax(axis=0)
        # the shared edge runs to q; exits 1-2 walk down to offset 0 and
        # exits 3-4 up to the edge's length, each from op_ along edge ep
        up_room = self.edges[ep][2] - op_
        room = np.array([np.inf, op_, op_, up_room, up_room])[first]
        up = np.where(first == 0, oq > op_, first >= 3)
        moving = t != 0.0
        reached = moving & (t >= total)
        ahead = moving & ~reached
        fast = ahead & (wins.sum(axis=0) == 1) & (t <= room)  # t > 0, so room > 0
        walked = op_ + np.where(up, t, -t)
        edge = np.where(reached, eq, ep)
        off = np.where(reached, oq, np.where(fast, walked, op_))
        for i in np.flatnonzero(ahead & ~fast).tolist():
            edge[i], off[i] = self._step(p, self._point(qs, i), float(t[i]))
        return edge, off

    def _points_from(self, u):
        """Uniform points by length, each ``rng.choice(len(edges), p=lengths /
        lengths.sum())`` then ``rng.uniform(0, lengths[e])`` bit for bit: the
        edge is the ``side="right"`` insertion point of one double in
        ``choice``'s CDF, and ``uniform(0, L)`` is ``0 + L * rng.random()``."""
        e = np.searchsorted(self._cdf, u[:, 0], side="right")
        return e, self._lengths[e] * u[:, 1]


# ---------------------------------------------------------------------------
# Coordinate vectors: Euclidean balls and round spheres


class _VectorSpace(Space):
    """A space whose points are float coordinate vectors, ``ambient`` of them."""

    def _batch(self, points):
        return np.array(points, dtype=float).reshape(len(points), self.ambient)

    def _point(self, batch, i: int):
        return batch[i].copy()

    @staticmethod
    def _coords(p, n: int) -> np.ndarray:
        """``p`` as ``n`` floats, parsed by ``_num``'s rule unless it is a float array."""
        try:
            arr = p if isinstance(p, np.ndarray) and p.dtype == float else \
                np.array([_num(x) for x in p], dtype=float)
        except (TypeError, ValueError) as exc:
            raise MalformedPointError(f"not a coordinate vector: {p!r}") from exc
        if arr.shape != (n,):
            raise MalformedPointError(f"expected {n} coordinates, got shape {arr.shape}")
        return arr

    def point_to_json(self, p):
        return [float(x) for x in np.asarray(p, float)]

    def point_from_json(self, obj):
        p = np.array([_num(x) for x in _json_list(obj)])
        with np.errstate(over="ignore"):  # a huge coordinate's norm is inf, which fails
            self.validate_point(p)
        return p


class BallSpace(_VectorSpace):
    """Closed Euclidean ball of given dimension and radius.

    The ball is convex, so the intrinsic metric coincides with the Euclidean
    one and geodesics are chords.
    """

    def __init__(self, dimension: int, radius: float = 1.0):
        if dimension < 1:
            raise ConfigError("ball dimension must be >= 1")
        if not 0 < radius < math.inf:
            raise ConfigError(f"ball radius must be finite and positive, got {radius}")
        self.dimension = int(dimension)
        self.radius = float(radius)

    @property
    def ambient(self) -> int:
        return self.dimension

    def validate_point(self, p) -> None:
        norm = _norm(self._coords(p, self.ambient))
        if not norm <= self.radius + NORM_TOL:  # a NaN or inf coordinate fails too
            raise MalformedPointError(f"norm {norm} exceeds radius {self.radius}")

    def _distance(self, p, q) -> float:
        return _norm(np.asarray(p, float) - np.asarray(q, float))

    def _step(self, p, q, t: float):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        if t == 0.0:
            return p.copy()
        d = _norm(q - p)
        if t >= d or d == 0.0:
            return q.copy()
        return p + (t / d) * (q - p)

    def _distances(self, p, qs) -> np.ndarray:
        return _row_norms(np.asarray(p, float) - qs)

    def _steps(self, p, qs, ts):
        p = np.asarray(p, float)
        t = np.asarray(ts, dtype=float)[:, None]
        diff = qs - p
        d = _row_norms(diff)[:, None]
        with np.errstate(all="ignore"):  # only in rows that stay or reach their target
            moved = p + (t / d) * diff
        return np.where(t == 0.0, p, np.where((t >= d) | (d == 0.0), qs, moved))

    def random_points(self, rng: np.random.Generator, n: int):
        """Each point draws a direction, ``normal(dimension)``, and unless
        its norm is 0 (the center) a radius from one ``uniform()``, which is
        ``rng.random()`` bit for bit; the draws interleave, so they are made
        point by point, and only the scaling is one array product."""
        rows, scale = np.zeros((n, self.dimension)), np.zeros(n)
        for i in range(n):
            direction = rng.normal(size=self.dimension)
            norm = _norm(direction)
            if norm != 0:
                rows[i] = direction
                scale[i] = self.radius * rng.random() ** (1.0 / self.dimension) / norm
        return scale[:, None] * rows

    def describe(self) -> dict:
        return {"type": "ball", "dimension": self.dimension, "radius": repr(self.radius)}

    def pairwise(self, points) -> np.ndarray:
        arr = np.asarray(points, float)
        return _row_blocks(len(arr), lambda r: _norms(arr[r, None] - arr))


class SphereSpace(_VectorSpace):
    """Unit sphere of dimension ``n`` embedded in ``n+1`` coordinates.

    Distance is the great-circle angle in ``[0, pi]`` computed with the
    well-conditioned ``2*atan2(|u-v|, |u+v|)`` form, which is exact at both
    coincident and antipodal pairs.  Stepping toward an antipodal target is
    ambiguous; the target is rotated by 1e-9 (in the (x1,x2) plane on the
    circle, around the first coordinate axis otherwise) to pick one geodesic
    reproducibly.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ConfigError("sphere dimension must be >= 1")
        self.dimension = int(dimension)

    @property
    def ambient(self) -> int:
        return self.dimension + 1

    def validate_point(self, p) -> None:
        arr = self._coords(p, self.ambient)
        if not abs(_norm(arr) - 1.0) <= NORM_TOL:  # a NaN or inf coordinate fails too
            raise MalformedPointError(f"point is not on the unit sphere: {arr}")

    def _distance(self, p, q) -> float:
        u = np.asarray(p, float)
        v = np.asarray(q, float)
        return 2.0 * math.atan2(_norm(u - v), _norm(u + v))

    def _distances(self, p, qs) -> np.ndarray:
        u = np.asarray(p, float)
        return 2.0 * np.array(list(map(math.atan2, _row_norms(u - qs).tolist(),
                                       _row_norms(u + qs).tolist())), dtype=float)

    def _antipodal_tangent(self, p):
        """Unit tangent at ``p`` toward a target rotated by the nudge angle
        out of the exact antipode.

        This is the limit direction of the geodesic to the nudged target,
        evaluated analytically: forming ``q_nudged - (-p)`` numerically
        would cancel catastrophically at the 1e-9 scale.  The rotation
        plane is (x1,x2) on the circle and (x2,x3) -- around the first
        coordinate axis -- in higher dimension.
        """
        i, j = (0, 1) if self.dimension == 1 else (1, 2)
        one_minus_c = 2.0 * math.sin(ANTIPODAL_NUDGE / 2.0) ** 2
        s = math.sin(ANTIPODAL_NUDGE)
        u = np.zeros(self.ambient)
        u[i] = one_minus_c * p[i] + s * p[j]
        u[j] = one_minus_c * p[j] - s * p[i]
        w = u - np.dot(p, u) * p
        nw = _norm(w)
        if nw < 1e-30:
            # target axis is perpendicular to the rotation plane: fall back
            # to the most orthogonal coordinate direction
            m = int(np.argmin(np.abs(p)))
            w = np.zeros(self.ambient)
            w[m] = 1.0
            w = w - np.dot(p, w) * p
            nw = _norm(w)
        return w / nw

    def _step(self, p, q, t: float):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        if t == 0.0:
            return p.copy()
        theta = self._distance(p, q)
        if t >= theta:
            return q.copy()
        if math.pi - theta <= 1e-12:
            w = self._antipodal_tangent(p)
        else:
            w = q - np.dot(p, q) * p
            nw = _norm(w)
            if nw == 0.0:
                return p.copy()
            w = w / nw
        out = math.cos(t) * p + math.sin(t) * w
        return out / _norm(out)

    def random_point(self, rng: np.random.Generator):
        n = 0.0
        while n == 0:
            v = rng.normal(size=self.ambient)
            n = _norm(v)
        return v / n

    def describe(self) -> dict:
        return {"type": "sphere", "dimension": self.dimension}

    def pairwise(self, points) -> np.ndarray:
        arr = np.asarray(points, float)
        return _row_blocks(len(arr), lambda r: 2.0 * np.arctan2(
            _norms(arr[r, None] - arr), _norms(arr[r, None] + arr)))


# ---------------------------------------------------------------------------
# l_p products with an interval fiber


def lp_remainder(p: float, total: float, part: float) -> float:
    """``(total^p - part^p)^(1/p)``, ``combine`` undone: 0 when ``part``
    exceeds ``total``, ``inf`` when a power other than a square overflows."""
    if p == 2.0:
        return np.sqrt(max(0.0, total * total - part * part))
    try:
        return max(0.0, total**p - part**p) ** (1.0 / p)
    except OverflowError:
        return math.inf


class ProductSpace(Space):
    """l_p product of a base space with the interval ``[0, fiber_length]``.

    ``d_p((a,s),(b,t)) = (d(a,b)^p + |s-t|^p)^(1/p)``; when the fiber
    coordinates coincide this reduces to the base distance exactly.
    """

    def __init__(self, base: Space, fiber_length: float = 1.0, p: float = 2.0):
        if not 0 < fiber_length < math.inf:
            raise ConfigError(f"fiber length must be finite and positive, got {fiber_length}")
        if not 1 <= p < math.inf:
            raise ConfigError(f"product exponent must be finite and satisfy p >= 1, got {p}")
        self.base = base
        self.fiber_length = float(fiber_length)
        self.p = float(p)
        self._doubles = None if base._doubles is None else base._doubles + 1

    def validate_point(self, pt) -> None:
        try:
            b, s = pt
            s = _num(s)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedPointError(f"not a product point: {pt!r}") from exc
        self.base.validate_point(b)
        if not -NORM_TOL <= s <= self.fiber_length + NORM_TOL:
            raise MalformedPointError(
                f"fiber coordinate {s} outside [0, {self.fiber_length}]"
            )

    def combine(self, d_base: float, d_fiber: float) -> float:
        # zero components short-circuit so degenerate products are exact
        if d_fiber == 0.0:
            return d_base
        if d_base == 0.0:
            return d_fiber
        if self.p == 1.0:
            return d_base + d_fiber
        if self.p == 2.0:
            return math.hypot(d_base, d_fiber)
        try:
            return (d_base**self.p + d_fiber**self.p) ** (1.0 / self.p)
        except OverflowError:  # a power past the float range
            return math.inf

    def _distance(self, pt, qt) -> float:
        return self.combine(
            self.base._distance(pt[0], qt[0]), abs(float(pt[1]) - float(qt[1]))
        )

    def _combined(self, d_base, d_fiber) -> np.ndarray:
        """``combine`` of each pair of entries of two arrays, one call each:
        ``np.hypot`` would give other bits than ``math.hypot``."""
        return np.array(list(map(self.combine, d_base.tolist(), d_fiber.tolist())),
                        dtype=float)

    def _distances(self, pt, qts) -> np.ndarray:
        bq, sq = qts
        return self._combined(self.base._distances(pt[0], bq), np.abs(float(pt[1]) - sq))

    def _step(self, pt, qt, t: float):
        """Both parts move by the same fraction ``t / total`` of the way;
        ``t == 0`` stays at ``pt``, and a budget of at least ``total`` ends
        on ``qt``."""
        d_base = self.base._distance(pt[0], qt[0])
        if t == 0.0:
            return self.base._step(pt[0], pt[0], 0.0), float(pt[1])
        ds = float(qt[1]) - float(pt[1])
        total = self.combine(d_base, abs(ds))
        if t >= total or total == 0.0:
            return self.base._step(qt[0], qt[0], 0.0), float(qt[1])
        lam = t / total
        return self.base._step(pt[0], qt[0], lam * d_base), float(float(pt[1]) + lam * ds)

    def _steps(self, pt, qts, ts):
        """``_step``'s arithmetic over the batch ``qts``, then one base step
        toward every target, with budget 0 where the step stays at ``pt``
        and ``inf`` where it ends on its target."""
        bq, sq = qts
        s, t = float(pt[1]), np.asarray(ts, dtype=float)
        d_base = self.base._distances(pt[0], bq)
        ds = sq - s
        total = self._combined(d_base, np.abs(ds))
        stay, end = t == 0.0, (t >= total) | (total == 0.0)
        with np.errstate(all="ignore"):  # only in rows that stay or end
            lam = t / total
            budget = np.where(stay, 0.0, np.where(end, np.inf, lam * d_base))
            fiber = np.where(stay, s, np.where(end, sq, s + lam * ds))
        return self.base._steps(pt[0], bq, budget), fiber

    def random_point(self, rng: np.random.Generator):  # the base, then the fiber's double
        return (self.base.random_point(rng), self.fiber_length * rng.random())

    def _points_from(self, u):  # fibers: uniform(0, L) is 0 + L * u
        return self.base._points_from(u[:, :-1]), self.fiber_length * u[:, -1]

    def _batch(self, pts):
        return (self.base._batch([pt[0] for pt in pts]),
                np.fromiter((float(pt[1]) for pt in pts), float, len(pts)))

    def _point(self, batch, i: int):
        return self.base._point(batch[0], i), float(batch[1][i])

    def describe(self) -> dict:
        return {
            "type": "product",
            "base": self.base.describe(),
            "fiber_length": repr(self.fiber_length),
            "p": repr(self.p),
        }

    def point_to_json(self, pt):
        return [self.base.point_to_json(pt[0]), float(pt[1])]

    def point_from_json(self, obj):
        b, s = _json_list(obj, 2)
        pt = (self.base.point_from_json(b), _num(s))
        self.validate_point(pt)
        return pt


# ---------------------------------------------------------------------------
# Nets


@dataclass
class Net:
    """Finite sample of a space with a covering-radius bound and the full
    pairwise intrinsic distance matrix."""

    space: Space
    points: list
    h: float
    matrix: np.ndarray
    requested_h: float = 0.0
    _reach_cache: dict = field(default_factory=dict, repr=False)
    _ranks: tuple | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.points)

    def nearest_index(self, point) -> int:
        self.space.validate_point(point)
        return int(np.argmin(self.space._distances(point, self.space._batch(self.points))))

    def index_of(self, point) -> int:
        """Index of a net point coinciding with ``point`` (within 1e-9)."""
        i = self.nearest_index(point)
        if self.space._distance(point, self.points[i]) > 1e-9:
            raise MalformedPointError(f"point {point!r} is not aligned with the net")
        return i

    def describe(self) -> dict:
        return {
            "space": self.space.describe(),
            "size": self.size,
            "covering_radius": self.h,
            "requested_h": self.requested_h,
        }


def _graph_net(space: MetricGraphSpace, h: float, budget: int):
    nsegs = [max(1, _ceil_div(length, h, 1e-12)) for _, _, length in space.edges]
    _check_budget(len(space.vertex_ids) + sum(n - 1 for n in nsegs), budget)
    points = [space.vertex_point(v) for v in range(len(space.vertex_ids))]
    worst_spacing = 0.0
    for ei, ((_, _, length), nseg) in enumerate(zip(space.edges, nsegs)):
        spacing = length / nseg
        worst_spacing = max(worst_spacing, spacing)
        # interior offsets lie strictly inside (0, length): no vertex repeats
        points.extend((ei, j * spacing) for j in range(1, nseg))
    return points, worst_spacing / 2.0


def _ball_pitch(n: int, h: float) -> float:
    if n == 1:
        return h * math.sqrt(2.0)
    if n == 2:
        return h  # = h * sqrt(2/n); grid covers within h/sqrt(2)
    return h / math.sqrt(n)  # conservative: survives boundary clipping


def _ball_net(space: BallSpace, h: float, budget: int):
    n, radius = space.dimension, space.radius
    pitch = _ball_pitch(n, h)
    half = _ceil_div(radius, pitch)
    side = 2 * half + 1
    # the grid's size, exact while it fits a float, so it is quick to form and print
    grid = side ** n if n * math.log2(side) < 1000 else math.inf
    if grid > 8 * budget:  # before the grid is allocated
        raise CapacityError("net points", grid, budget)
    # _norms sums n squares of coordinate differences, each at most (2 r)^2
    if (2 * radius) * (2 * radius) * n == math.inf:
        raise CapacityError("net distances", math.inf, sys.float_info.max)
    if n == 1:
        m = max(1, _ceil_div(2 * radius, pitch, 1e-12))
        _check_budget(m + 1, budget)
        xs = np.linspace(-radius, radius, m + 1)
        return [np.array([x]) for x in xs], (2 * radius / m) / 2.0
    if (half * pitch) * (half * pitch) * n == math.inf:  # the grid's squared norms
        raise CapacityError("net grid norms", math.inf, sys.float_info.max)
    axis = np.arange(-half, half + 1) * pitch
    mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    norms = _norms(mesh)
    inside = mesh[norms <= radius + 1e-12]
    _check_budget(len(inside), budget)  # before the rim loops, which scan it
    points = list(inside)
    if n == 2:
        m_ring = max(3, math.ceil(2 * math.pi * radius / h - 1e-12))
        for j in range(m_ring):
            ang = 2 * math.pi * j / m_ring
            pt = np.array([radius * math.cos(ang), radius * math.sin(ang)])
            if (_norms(pt - inside) > 1e-12).all():
                points.append(pt)
    else:
        # project near-miss grid points onto the boundary to patch the rim
        shell = mesh[(norms > radius + 1e-12) & (norms <= radius + pitch * math.sqrt(n) / 2)]
        kept = np.concatenate([inside, np.empty_like(shell)])  # points so far
        count = len(inside)
        for g in shell:
            pt = g * (radius / _norm(g))
            if (_norms(pt - kept[:count]) > 1e-9).all():
                points.append(pt)
                kept[count] = pt
                count += 1
    _check_budget(len(points), budget)
    return points, h


def _circle_net(h: float, budget: int):
    m = max(3, _ceil_div(2 * math.pi, h, 1e-12))
    _check_budget(m, budget)
    pts = [
        np.array([math.cos(2 * math.pi * j / m), math.sin(2 * math.pi * j / m)])
        for j in range(m)
    ]
    return pts, math.pi / m


_ICOSA_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICOSA_VERTS = [
    (-1, _ICOSA_T, 0), (1, _ICOSA_T, 0), (-1, -_ICOSA_T, 0), (1, -_ICOSA_T, 0),
    (0, -1, _ICOSA_T), (0, 1, _ICOSA_T), (0, -1, -_ICOSA_T), (0, 1, -_ICOSA_T),
    (_ICOSA_T, 0, -1), (_ICOSA_T, 0, 1), (-_ICOSA_T, 0, -1), (-_ICOSA_T, 0, 1),
]
_ICOSA_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def _icosphere_net(space: SphereSpace, h: float, budget: int):
    verts = [v / _norm(v) for v in np.array(_ICOSA_VERTS)]
    faces = list(_ICOSA_FACES)
    _check_budget(len(verts), budget)

    def max_edge(vs, fs):
        worst = 0.0
        for a, b, c in fs:
            for i, j in ((a, b), (b, c), (c, a)):
                worst = max(worst, space._distance(vs[i], vs[j]))
        return worst

    while max_edge(verts, faces) > h:
        # one subdivision quadruples faces and roughly quadruples vertices
        _check_budget(4 * len(verts), budget)
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / _norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces

    # _ICOSA_FACES wind outward and the four-way split keeps that winding,
    # so every face normal is nonzero and points away from the origin
    cover = 0.0
    for a, b, c in faces:
        normal = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        cover = max(cover, space._distance(normal / _norm(normal), verts[a]))
    return verts, cover


def build_net(space: Space, h: float, point_budget: int = DEFAULT_POINT_BUDGET) -> Net:
    """Construct a net with covering radius at most ``h``.

    Metric graphs get all vertices plus points spaced at most ``h`` along each
    edge; balls an axis-aligned grid plus a boundary layer; the circle a
    uniform angular grid; the 2-sphere a subdivided icosphere; products the
    Cartesian product of factor nets.  Raises :class:`CapacityError` when the
    construction would exceed ``point_budget`` points, which must lie in
    ``[1, DEFAULT_POINT_BUDGET]``: a matrix of more points is out of scope.
    """
    if not 0 < h < math.inf:
        raise ConfigError(f"target covering radius must be finite and positive, got {h}")
    if not 1 <= point_budget <= DEFAULT_POINT_BUDGET:
        raise ConfigError(f"point_budget must lie in [1, {DEFAULT_POINT_BUDGET}], "
                          f"got {point_budget}")
    if isinstance(space, MetricGraphSpace):
        points, cover = _graph_net(space, h, point_budget)
    elif isinstance(space, BallSpace):
        points, cover = _ball_net(space, h, point_budget)
    elif isinstance(space, SphereSpace):
        if space.dimension == 1:
            points, cover = _circle_net(h, point_budget)
        elif space.dimension == 2:
            points, cover = _icosphere_net(space, h, point_budget)
        else:
            raise ConfigError(
                "net construction is implemented for spheres of dimension 1 and 2 only"
            )
    elif isinstance(space, ProductSpace):
        h_factor = h / 2.0 ** (1.0 / space.p)
        nseg = max(1, _ceil_div(space.fiber_length, h_factor, 1e-12))
        _check_budget(nseg + 1, point_budget)  # before the fiber is made
        fiber = [space.fiber_length * j / nseg for j in range(nseg + 1)]
        fiber_cover = (space.fiber_length / nseg) / 2.0
        # base * fiber <= budget exactly when base <= budget // fiber
        try:
            base_net = build_net(space.base, h_factor, point_budget // len(fiber))
        except CapacityError as exc:
            raise CapacityError("net points", exc.required * len(fiber),
                                point_budget) from exc
        # the largest distance, before any is formed: no entry may pass the float range
        if space.combine(float(base_net.matrix.max()), space.fiber_length) == math.inf:
            raise CapacityError("net distances", math.inf, sys.float_info.max)
        points = [(bp, s) for bp in base_net.points for s in fiber]
        base = np.repeat(np.arange(base_net.size), len(fiber))  # each point's base index
        svals = np.tile(np.asarray(fiber), base_net.size)

        def rows(r):
            d_base = np.take(base_net.matrix[base[r]], base, axis=1)
            d_fib = np.abs(svals[r, None] - svals[None, :])
            if space.p == 1.0:
                return d_base + d_fib
            if space.p == 2.0:
                return np.hypot(d_base, d_fib)
            out = (d_base**space.p + d_fib**space.p) ** (1.0 / space.p)
            out = np.where(d_fib == 0.0, d_base, out)
            return np.where(d_base == 0.0, d_fib, out)
        cover = space.combine(base_net.h, fiber_cover)
        return Net(space, points, cover, _row_blocks(len(points), rows), requested_h=h)
    else:
        raise ConfigError(f"no net construction for {type(space).__name__}")
    matrix = space.pairwise(points)
    return Net(space, points, min(cover, h), matrix, requested_h=h)


# ---------------------------------------------------------------------------
# JSON space descriptions


def _num(value) -> float:
    """Parse a finite number that may arrive as a decimal string; a boolean
    is not a number."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{value!r} is not a number")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _json_list(obj, length: int | None = None) -> list:
    """A JSON point's list of entries, checked for ``length`` when given."""
    if not isinstance(obj, list) or (length is not None and len(obj) != length):
        want = "a list" if length is None else f"a list of {length} entries"
        raise MalformedPointError(f"a point must be {want}, got {obj!r}")
    return obj


def _whole(value) -> int:
    """Parse a whole number such as ``3``, ``3.0`` or ``"3"``."""
    x = _num(value)
    if not x.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return value if type(value) is int else int(x)


def space_from_config(cfg: dict) -> Space:
    """Build a space from its JSON description (see each class's ``describe``)."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("space description must be an object with a 'type' field")
    kind = cfg["type"]
    try:
        if kind == "metric_graph":
            vertices, edges = cfg["vertices"], cfg["edges"]
            if not (isinstance(vertices, list) and isinstance(edges, list)
                    and all(isinstance(e, list) and len(e) == 3 for e in edges)):
                raise ConfigError("a metric graph needs a list of vertices and a "
                                  "list of [u, v, length] edges")
            return MetricGraphSpace(vertices, [(u, v, _num(w)) for u, v, w in edges])
        if kind == "ball":
            return BallSpace(_whole(cfg["dimension"]), _num(cfg.get("radius", 1.0)))
        if kind == "sphere":
            return SphereSpace(_whole(cfg["dimension"]))
        if kind == "product":
            return ProductSpace(
                space_from_config(cfg["base"]),
                _num(cfg.get("fiber_length", 1.0)),
                _num(cfg.get("p", 2.0)),
            )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad space description: {exc}") from exc
    raise ConfigError(f"unknown space type {kind!r}")
