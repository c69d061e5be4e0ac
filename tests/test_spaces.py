import gc
import heapq
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pursuit
from pursuit.errors import (
    CapacityError,
    ConfigError,
    MalformedPointError,
)
from pursuit.solver import solve_volatile
from pursuit.spaces import (
    BallSpace,
    MetricGraphSpace,
    ProductSpace,
    SphereSpace,
    _BLOCK_ENTRIES,
    _ICOSA_FACES,
    _ICOSA_VERTS,
    _ball_net,
    _dijkstra,
    _icosphere_net,
    _norm,
    _norms,
    _pair_norms,
    _row_norms,
    build_net,
    space_from_config,
)

from conftest import cycle_point, make_cycle, make_interval, make_star

ALL_SPACES = ["interval", "cycle", "star", "ball1", "ball2", "circle", "sphere2", "cyl"]


def space_by_name(name):
    return {
        "interval": make_interval(1.0),
        "cycle": make_cycle(2.0),
        "star": make_star(3, 1.0),
        "ball1": BallSpace(1, 1.0),
        "ball2": BallSpace(2, 1.0),
        "circle": SphereSpace(1),
        "sphere2": SphereSpace(2),
        "cyl": ProductSpace(make_cycle(2.0), fiber_length=1.0, p=2.0),
    }[name]


# ---------------------------------------------------------------------------
# distance


def test_sphere_antipodal_diameter():
    s = SphereSpace(1)
    north = np.array([0.0, 1.0])
    south = np.array([0.0, -1.0])
    assert s.distance(north, south) == pytest.approx(math.pi, abs=0)


def test_interval_distance_offsets():
    space = make_interval(1.0)
    assert space.distance((0, 0.2), (0, 0.9)) == pytest.approx(0.7)


def test_cycle_wraparound_distance():
    # oracle: enumerate both arcs and take the minimum
    space = make_cycle(2.0)
    p, q = cycle_point(space, 0.3), cycle_point(space, 1.8)
    direct = abs(1.8 - 0.3)
    expected = min(direct, 2.0 - direct)
    assert expected == 0.5
    assert space.distance(p, q) == pytest.approx(expected, abs=1e-12)


def test_distance_rejects_malformed_points():
    space = make_interval(1.0)
    with pytest.raises(MalformedPointError):
        space.distance((0, 0.2), (5, 0.1))
    with pytest.raises(MalformedPointError):
        space.distance((0, 0.2), (0, 3.0))
    ball = BallSpace(2)
    with pytest.raises(MalformedPointError):
        ball.distance(np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    sph = SphereSpace(1)
    with pytest.raises(MalformedPointError):
        sph.distance(np.array([1.0, 0.0]), np.array([0.5, 0.5]))


# one malformed point per space: an edge id or offset out of range, an
# infinite edge id, a point outside the ball, the wrong shape, off the sphere
_MALFORMED = {
    "interval": (5, 0.1), "cycle": (0, 3.0), "star": (math.inf, 0.0),
    "ball1": np.array([2.0]), "ball2": np.zeros(3), "circle": np.array([0.5, 0.5]),
    "sphere2": np.array([1.0, 0.0]), "cyl": ((0, 0.5), 2.0),
}


@pytest.mark.parametrize("name", ["interval", "ball2", "circle", "sphere2", "cyl"])
def test_step_toward_rejects_a_nan_budget(name, rng):
    space = space_by_name(name)
    p, q = space.random_point(rng), space.random_point(rng)
    with pytest.raises(ValueError, match="negative travel budget"):
        space.step_toward(p, q, math.nan)


@pytest.mark.parametrize("name", ALL_SPACES)
def test_public_queries_check_points_and_budget(name, rng):
    space = space_by_name(name)
    p, q = space.random_point(rng), space.random_point(rng)
    with pytest.raises(ValueError, match="negative travel budget"):
        space.step_toward(p, q, -0.1)
    bad = _MALFORMED[name]
    for args in ((bad, q), (p, bad)):
        with pytest.raises(MalformedPointError):
            space.distance(*args)
        with pytest.raises(MalformedPointError):
            space.step_toward(*args, 0.5)


_NON_NUMBERS = [math.nan, math.inf, -math.inf, True, np.True_, "x", None]


def with_non_number(p, bad):
    """``p`` with one number replaced by ``bad``: the first coordinate of a
    ball or sphere point, a graph point's offset, a product point's fiber."""
    if isinstance(p, np.ndarray):
        return [bad, *p[1:].tolist()]
    return (p[0], bad)


@pytest.mark.parametrize("name", ALL_SPACES)
@pytest.mark.parametrize("bad", _NON_NUMBERS, ids=repr)
def test_points_reject_non_numbers(name, bad, rng):
    # ball and sphere coordinates once went through np.asarray(p, float),
    # which read True as 1.0 and let NaN through to a NaN distance
    space = space_by_name(name)
    p, q = space.random_point(rng), space.random_point(rng)
    malformed = with_non_number(p, bad)
    for args in ((malformed, q), (q, malformed)):
        with pytest.raises(MalformedPointError):
            space.distance(*args)
        with pytest.raises(MalformedPointError):
            space.step_toward(*args, 0.5)


@pytest.mark.parametrize("space, p, q, d", [
    (BallSpace(2), [0.6, 0], (0, 0), 0.6),
    (BallSpace(2), np.array([1, 0]), [0.0, np.float32(0.0)], 1.0),
    (BallSpace(1), ["0.5"], np.array([-0.5]), 1.0),
    (SphereSpace(1), [1, 0], np.array([-1, 0]), math.pi),
])
def test_vector_points_accept_numbers_of_any_type(space, p, q, d):
    assert space.distance(p, q) == d
    assert space.distance(np.array(p, dtype=float), np.array(q, dtype=float)) == d


def test_vector_points_reject_boolean_arrays_and_bad_shapes():
    ball = BallSpace(2)
    for bad in (np.array([True, False]), np.zeros((1, 2)), 0.5, [[0.0, 0.0]], "ab"):
        with pytest.raises(MalformedPointError):
            ball.distance(bad, [0.0, 0.0])


def test_vertex_alias_zero_distance():
    space = make_cycle(2.0)
    # offset 0 of edge 1 is vertex u, also addressed as offset 0 of edge 0
    assert space.distance((1, 0.0), space.vertex_point("u")) == 0.0
    assert space.distance((1, 1.0), space.vertex_point("v")) == 0.0


@pytest.mark.parametrize("name", ALL_SPACES)
def test_metric_axioms_random_triples(name, rng):
    space = space_by_name(name)
    for _ in range(1000 // 3):
        a, b, c = (space.random_point(rng) for _ in range(3))
        dab = space.distance(a, b)
        assert space.distance(b, a) == dab  # symmetry, exact
        assert space.distance(a, a) == 0.0
        assert dab <= space.distance(a, c) + space.distance(c, b) + 1e-9


# ---------------------------------------------------------------------------
# step_toward


@pytest.mark.parametrize("name", ALL_SPACES)
def test_step_zero_budget_is_identity(name, rng):
    space = space_by_name(name)
    p, q = space.random_point(rng), space.random_point(rng)
    r = space.step_toward(p, q, 0.0)
    assert space.distance(p, r) == 0.0


def test_ball_chord_step():
    ball = BallSpace(2)
    out = ball.step_toward(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.25)
    assert np.allclose(out, [0.25, 0.0], atol=0)


def test_cycle_step_tie_break():
    # both arcs have length 1; the tie-break takes the arc through edge 0
    space = make_cycle(2.0)
    p, q = (0, 0.0), (0, 1.0)
    r = space.step_toward(p, q, 0.4)
    assert r == (0, 0.4)
    assert space.distance(r, q) == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("name", ["interval", "star", "ball2", "circle", "sphere2", "cyl"])
def test_step_composition(name, rng):
    space = space_by_name(name)
    for _ in range(60):
        p, q = space.random_point(rng), space.random_point(rng)
        d = space.distance(p, q)
        if d < 1e-6:
            continue
        t1, t2 = 0.3 * d, 0.4 * d
        one = space.step_toward(p, q, t1 + t2)
        two = space.step_toward(space.step_toward(p, q, t1), q, t2)
        assert space.distance(one, two) <= 1e-9


def test_step_composition_cycle_exact(rng):
    space = make_cycle(2.0)
    for _ in range(60):
        p, q = space.random_point(rng), space.random_point(rng)
        d = space.distance(p, q)
        t1 = 0.25 * d
        t2 = 0.5 * d
        one = space.step_toward(p, q, t1 + t2)
        two = space.step_toward(space.step_toward(p, q, t1), q, t2)
        assert space.distance(one, two) <= 1e-12


def test_step_overshoot_returns_target():
    space = make_interval(1.0)
    assert space.step_toward((0, 0.1), (0, 0.8), 5.0) == (0, 0.8)
    sph = SphereSpace(1)
    q = np.array([0.0, 1.0])
    out = sph.step_toward(np.array([1.0, 0.0]), q, 5.0)
    assert np.array_equal(out, q)


def test_sphere_antipodal_step_deterministic():
    sph = SphereSpace(1)
    p = np.array([1.0, 0.0])
    q = np.array([-1.0, 0.0])
    r1 = sph.step_toward(p, q, 0.3)
    r2 = sph.step_toward(p, q, 0.3)
    assert np.array_equal(r1, r2)
    assert sph.distance(p, r1) == pytest.approx(0.3, abs=1e-9)


def test_sphere_antipodal_step_off_the_nudge_plane():
    # (1, 0, 0) is fixed by the nudge's rotation of the (x2, x3) plane, so the
    # tangent falls back to the most orthogonal coordinate axis
    sph = SphereSpace(2)
    p = np.array([1.0, 0.0, 0.0])
    q = -p
    out = sph.step_toward(p, q, 0.5)
    assert np.array_equal(out, sph.step_toward(p, q, 0.5))
    sph.validate_point(out)
    assert sph.distance(p, out) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# fast paths equal the plain forms they replace


@pytest.mark.parametrize("lengths", [[1.7], [0.5, 0.5, 0.5], [1.0, 1.5, 2.0, 0.25]])
@pytest.mark.parametrize("seed", [0, 1, 7, 20240817])
def test_graph_random_point_equals_choice_then_uniform(lengths, seed):
    space = MetricGraphSpace(["a", "b"], [("a", "b", w) for w in lengths])
    arr = np.array(lengths)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(1000):
        e = int(twin.choice(len(lengths), p=arr / arr.sum()))
        expected = (e, float(twin.uniform(0.0, arr[e])))
        got = space.random_point(rng)
        assert got == expected and type(got[0]) is int and type(got[1]) is float
    assert rng.bit_generator.state == twin.bit_generator.state


def test_graph_draws_when_the_total_length_passes_the_float_range():
    # each edge fits a float but their sum does not: the draws stay uniform
    # by length, as on the same graph scaled down by its longest edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = MetricGraphSpace(["u", "v"], [("u", "v", w) for w in (1e308, 1e308, 5e307)])
        drawn = huge.random_points(np.random.default_rng(0), 64)
    unit = MetricGraphSpace(["u", "v"], [("u", "v", w) for w in (1.0, 1.0, 0.5)])
    want = unit.random_points(np.random.default_rng(0), 64)
    assert drawn[0].tolist() == want[0].tolist()
    assert set(drawn[0].tolist()) == {0, 1, 2}
    assert (drawn[1] <= huge._lengths[drawn[0]]).all()


def _reference_draw(space, rng):
    """One point by the scalar draw rules: ``choice`` then ``uniform`` on a
    metric graph, the base point then ``uniform`` on a product, ``normal``
    then ``uniform`` on a ball."""
    if isinstance(space, ProductSpace):
        return (_reference_draw(space.base, rng),
                float(rng.uniform(0.0, space.fiber_length)))
    if isinstance(space, MetricGraphSpace):
        lengths = np.array([w for _, _, w in space.edges])
        e = int(rng.choice(len(lengths), p=lengths / lengths.sum()))
        return (e, float(rng.uniform(0.0, lengths[e])))
    # a ball: a normal direction, then a uniform radius unless the direction is 0
    direction = rng.normal(size=space.dimension)
    norm = float(np.linalg.norm(direction))
    if norm == 0:
        return np.zeros(space.dimension)
    return (space.radius * rng.uniform() ** (1.0 / space.dimension) / norm) * direction


def _same_point(a, b):
    """Equal values of equal Python types, arrays compared by dtype and bits."""
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return (type(b) is tuple and len(a) == len(b)
                and all(_same_point(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def _same_batch(a, b):
    """Equal batches: arrays of equal dtype, shape and bits, through tuples."""
    if isinstance(a, tuple):
        return (type(b) is tuple and len(a) == len(b)
                and all(_same_batch(x, y) for x, y in zip(a, b)))
    return (type(a) is type(b) is np.ndarray and a.dtype == b.dtype
            and a.shape == b.shape and a.tobytes() == b.tobytes())


_THETA = MetricGraphSpace(["a", "b"], [("a", "b", 1.0), ("a", "b", 1.5), ("a", "b", 2.0)])


@pytest.mark.parametrize("space", [
    _THETA,
    ProductSpace(_THETA, fiber_length=0.7),
    ProductSpace(ProductSpace(make_star(3, 0.5), fiber_length=2.0), fiber_length=0.3, p=1.0),
    ProductSpace(BallSpace(2), fiber_length=1.5),
    BallSpace(3, 0.5),
], ids=["graph", "product", "product-of-product", "product-of-ball", "ball"])
@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_random_points_equal_calls_of_random_point(space, n):
    rngs = [np.random.default_rng(20240817) for _ in range(3)]
    drawn = space.random_points(rngs[0], n)
    batch = [space._point(drawn, i) for i in range(n)]
    calls = [space.random_point(rngs[1]) for _ in range(n)]
    reference = [_reference_draw(space, rngs[2]) for _ in range(n)]
    assert type(batch) is list and len(batch) == n
    assert _same_batch(drawn, space._batch(calls))
    assert all(_same_point(a, b) and _same_point(a, c)
               for a, b, c in zip(batch, calls, reference))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert rngs[0].bit_generator.state == rngs[2].bit_generator.state


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_row_norms_equal_norm_of_each_row(dim):
    # the stacked matmul dot against v.dot(v) of each row as a fresh vector,
    # over scales whose squares round differently, with the rows given
    # C-contiguous, column-major and one double off the 16-byte alignment
    x = np.random.default_rng(dim).normal(size=(10_000, dim))
    x *= 10.0 ** np.arange(-3, 4).repeat(-(-10_000 // 7))[:10_000, None]
    want = np.array([_norm(v.copy()) for v in x])
    shifted = np.empty(x.size + 1)[1:].reshape(x.shape)
    shifted[...] = x
    for rows in (x, np.asfortranarray(x), shifted):
        got = _row_norms(rows)
        assert got.dtype == float and got.tobytes() == want.tobytes()


@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=4))
def test_norm_equals_numpy_norm(xs):
    v = np.array(xs)
    with np.errstate(over="ignore"):  # both overflow to inf alike
        got, want = _norm(v), float(np.linalg.norm(v))
    assert type(got) is float and got == want


def _reference_step(space, p, q, t):
    """``step_toward`` as first written: build every candidate route in
    full, then take the minimum by (total, edge-id tuple)."""
    if t == 0.0:
        return (int(p[0]), float(p[1]))
    routes = []
    ep, op_ = int(p[0]), float(p[1])
    eq, oq = int(q[0]), float(q[1])
    if ep == eq:
        routes.append((abs(oq - op_), [(ep, op_, oq)]))
    u_p, v_p, len_p = space.edges[ep]
    u_q, v_q, len_q = space.edges[eq]
    for x, cx, off_x in [(u_p, op_, 0.0), (v_p, len_p - op_, len_p)]:
        for y, cy, off_y in [(u_q, oq, 0.0), (v_q, len_q - oq, len_q)]:
            total = cx + space.vdist[x, y] + cy
            segs = [(ep, op_, off_x)] if cx > 0 else []
            segs.extend(space._path_segments(x, y))
            if cy > 0:
                segs.append((eq, off_y, oq))
            routes.append((total, segs))
    total, segs = min(routes, key=lambda r: (r[0], tuple(s[0] for s in r[1])))
    if t >= total:
        return (eq, oq)
    remaining = t
    for ei, a, b in segs:
        seg_len = abs(b - a)
        if remaining <= seg_len:
            if seg_len == 0:
                continue
            return (ei, a + (1.0 if b > a else -1.0) * remaining)
        remaining -= seg_len
    return (eq, oq)


def _assert_steps_match_reference(space, pairs):
    for p, q in pairs:
        for t in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 1.3, 2.5):
            got = space.step_toward(p, q, t)
            want = _reference_step(space, p, q, t)
            assert got == want and type(got[1]) is type(want[1]), (p, q, t)


def test_step_toward_equals_reference_on_antipodal_cycle_points():
    # every pair is a tie between the two arcs
    space = make_cycle(2.0)
    arcs = [0.0, 0.125, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 1.875]
    _assert_steps_match_reference(
        space, [(cycle_point(space, s), cycle_point(space, s + 1.0)) for s in arcs]
    )


def test_step_toward_equals_reference_on_equal_edge_theta():
    # three unit edges between a and b: routes through a and through b tie
    # for equal offsets on different edges, and vertex aliases tie three ways
    space = MetricGraphSpace(["a", "b"], [("a", "b", 1.0)] * 3)
    points = [(e, off) for e in range(3) for off in (0.0, 0.25, 0.5, 0.75, 1.0)]
    _assert_steps_match_reference(space, [(p, q) for p in points for q in points])


def _reference_path_segments(space):
    """``_path_segments`` as first written: each Dijkstra keeps a table of
    predecessors ``(vertex, edge)``, of which a tie keeps the smaller pair,
    and a path walks that table back from its end."""
    nv = len(space.vertex_ids)
    adj = [[] for _ in range(nv)]
    for ei, (u, v, w) in enumerate(space.edges):
        adj[u].append((v, w, ei))
        adj[v].append((u, w, ei))
    dist = np.full((nv, nv), np.inf)
    pred = [[None] * nv for _ in range(nv)]
    for s in range(nv):
        dist[s, s] = 0.0
        heap, done = [(0.0, s)], [False] * nv
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w, ei in adj[u]:
                if d + w < dist[s, v]:
                    dist[s, v] = d + w
                    pred[s][v] = (u, ei)
                    heapq.heappush(heap, (d + w, v))
                elif d + w == dist[s, v] and pred[s][v] is not None:
                    pred[s][v] = min(pred[s][v], (u, ei))

    def segments(x, y):
        segs = []
        while y != x:
            prev, ei = pred[x][y]
            u, _, length = space.edges[ei]
            segs.append((ei, 0.0, length) if prev == u else (ei, length, 0.0))
            y = prev
        return segs[::-1]
    return dist, segments


def _random_graph(rng, lengths=(0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.7, 1.1)):
    """A connected graph of 2 to 10 vertices: a random spanning tree, then
    parallel edges and loops, with lengths drawn from ``lengths``, by default
    a few non-dyadic values so that sums tie now and then and round otherwise."""
    nv = int(rng.integers(2, 11))
    order = rng.permutation(nv)
    pairs = [(order[i], order[rng.integers(i)]) for i in range(1, nv)]
    pairs += [tuple(rng.integers(nv, size=2)) for _ in range(rng.integers(2 * nv + 1))]
    edges = [(str(u), str(v), lengths[rng.integers(len(lengths))])
             for u, v in rng.permutation(np.array(pairs))]
    return MetricGraphSpace([str(v) for v in range(nv)], edges)


def test_path_segments_equal_the_predecessor_table_on_random_graphs():
    rng = np.random.default_rng(33)
    ties = 0
    for _ in range(240):
        space = _random_graph(rng)
        assert not hasattr(space, "_pred")
        dist, reference = _reference_path_segments(space)
        nv = len(space.vertex_ids)
        assert np.array([space._search(s)[0] for s in range(nv)]).tobytes() == dist.tobytes()
        for x in range(nv):
            for y in range(nv):
                assert space._path_segments(x, y) == reference(x, y), (space.edges, x, y)
        ties += sum(sum(dist[x, u] + w == dist[x, y] for u, w, _ in space._adj[y]) > 1
                    for x in range(nv) for y in range(nv) if y != x)
    assert ties > 200  # pairs whose last hop the tie-break chooses


def test_path_segments_follow_the_settle_order_past_an_absorbed_edge():
    # from s, p is settled at 1e17 and then y at 1e17 + 1 == 1e17, though
    # y's index is the smaller one; the only hop into y is from p
    space = MetricGraphSpace(["s", "y", "p"], [("s", "p", 1e17), ("p", "y", 1.0)])
    _, reference = _reference_path_segments(space)
    for x in range(3):
        for y in range(3):
            assert space._path_segments(x, y) == reference(x, y), (x, y)
    assert space._path_segments(0, 1) == [(0, 0.0, 1e17), (1, 0.0, 1.0)]


_ALL_PATHS = """import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from pursuit.spaces import MetricGraphSpace
for vertices, edges in json.load(sys.stdin):
    space = MetricGraphSpace(vertices, edges)
    n = len(vertices)
    print(json.dumps([[space._path_segments(x, y) for y in range(n)] for x in range(n)]))
"""


def test_vertex_paths_end_on_graphs_with_absorbed_edges():
    # 1e17 + 1 == 1e17 + 5 == 1e17: such edges join vertices at one distance
    # from the source.  The paths are read in a child process with a 1 GiB
    # address space, so that a hop cycle fails instead of hanging the suite.
    rng = np.random.default_rng(34)
    graphs = [_random_graph(rng, (1e17, 3e17, 1.0, 5.0)) for _ in range(120)]
    src = str(Path(pursuit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    stdin = json.dumps([(g.vertex_ids, [(g.vertex_ids[u], g.vertex_ids[v], w)
                                        for u, v, w in g.edges]) for g in graphs])
    proc = subprocess.run([sys.executable, "-c", _ALL_PATHS], input=stdin,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    level_hops = 0
    for space, rows in zip(graphs, map(json.loads, proc.stdout.splitlines()), strict=True):
        d = [space._search(x)[0] for x in range(len(space.vertex_ids))]
        for x, row in enumerate(rows):
            for y, segs in enumerate(row):
                walk = [x]
                for ei, a, b in segs:
                    u, v, length = space.edges[ei]
                    prev, nxt = (u, v) if (a, b) == (0.0, length) else (v, u)
                    assert sorted((a, b)) == [0.0, length] and prev == walk[-1]
                    assert d[x][prev] + length == d[x][nxt]
                    level_hops += d[x][prev] == d[x][nxt]
                    walk.append(nxt)
                assert walk[-1] == y and len(set(walk)) == len(walk), (space.edges, x, y)
    assert level_hops > 100


def _path_graph(nv):
    return MetricGraphSpace([str(i) for i in range(nv)],
                            [(str(i), str(i + 1), 1.0) for i in range(nv - 1)])


def test_graph_build_keeps_no_table_per_vertex_pair():
    # the table is made symmetric in place, so its build holds one matrix;
    # the raw rows beside np.minimum(dist, dist.T) held two, with a bool
    # mask besides, and a predecessor tuple per vertex pair about ten
    nv = 400
    tracemalloc.start()
    try:
        space = _path_graph(nv)
        assert space.vdist[0, nv - 1] == nv - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * space.vdist.nbytes


def test_graph_net_past_its_budget_fails_before_any_vertex_table():
    nv = 400
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="net points: required 799 exceeds budget 100"):
            build_net(_path_graph(nv), 0.5, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nv * nv * 8  # one V x V float matrix


def test_graph_vertex_table_is_built_on_the_first_distance_query():
    space = make_cycle(2.0)
    assert "vdist" not in vars(space)
    assert space.distance((0, 0.0), (1, 0.5)) == 0.5
    assert "vdist" in vars(space)
    assert not hasattr(space, "_dist") and not hasattr(space, "_rank")


def test_graph_paths_reuse_recent_searches_and_let_the_space_go():
    space = _path_graph(50)
    for _ in range(3):
        assert space._path_segments(0, 49) == [(e, 0.0, 1.0) for e in range(49)]
    assert space._path_segments(49, 0) == [(e, 1.0, 0.0) for e in range(48, -1, -1)]
    assert space._search.cache_info()[:2] == (2, 2)  # hits, misses
    ref = weakref.ref(space)
    gc.disable()
    try:
        del space
        assert ref() is None  # the cache holds no reference back to the space
    finally:
        gc.enable()


def _reference_vertex_point(space, vi):
    """``vertex_point`` as first written: the first edge, by id, at ``vi``."""
    for ei, (u, w, length) in enumerate(space.edges):
        if u == vi:
            return (ei, 0.0)
        if w == vi:
            return (ei, length)


def test_vertex_point_is_the_lowest_incident_edge_on_random_graphs():
    rng = np.random.default_rng(35)
    for _ in range(240):
        space = _random_graph(rng)
        for vi, name in enumerate(space.vertex_ids):
            want = _reference_vertex_point(space, vi)
            assert space.vertex_point(vi) == space.vertex_point(name) == want
            assert type(space.vertex_point(vi)[1]) is float
        for vi in (-1, len(space.vertex_ids)):
            with pytest.raises(MalformedPointError, match=f"vertex index {vi} out of range"):
                space.vertex_point(vi)


def test_graph_steps_keep_the_hop_read_back_not_the_smallest_vertex_path():
    # x-a-y (edges 2, 0) and x-b-y (edges 1, 3) tie; read back from y the
    # hop is (a, 0) before (b, 3), so the walk takes 4, 2, 0, 5 though
    # 4, 1, 3, 5 is the smaller sequence of the same length
    space = MetricGraphSpace(
        ["x", "a", "b", "y", "s", "t"],
        [("a", "y", 1.0), ("x", "b", 1.0), ("x", "a", 1.0), ("b", "y", 1.0),
         ("s", "x", 1.0), ("y", "t", 1.0)])
    assert space._path_segments(0, 3) == [(2, 0.0, 1.0), (0, 0.0, 1.0)]
    assert space.step_toward((4, 0.5), (5, 0.5), 1.0) == (2, 0.5)


def _assert_same(got, want):
    """Equal values of the same Python types, through tuples and arrays."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), (got, want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (got, want)
    else:
        assert got == want, (got, want)


def _assert_batch_equals_loop(space, p, qs, ts):
    batch = space._batch(qs)
    got = space._distances(p, batch)
    want = [space._distance(p, q) for q in qs]
    assert type(got) is np.ndarray and got.dtype == float
    assert got.tolist() == [float(d) for d in want], (p, qs)
    stepped = space._steps(p, batch, ts)
    steps = [space._point(stepped, i) for i in range(len(qs))]
    assert type(steps) is list and len(steps) == len(qs)
    assert _same_batch(stepped, space._batch(steps))
    for q, t, step in zip(qs, ts, steps):
        _assert_same(step, space._step(p, q, t))


_THETA = MetricGraphSpace(["a", "b"], [("a", "b", 1.0)] * 3)
_MIXED_GRAPH = MetricGraphSpace(
    ["a", "b", "c"],
    [("a", "b", 1.0), ("b", "c", 0.5), ("a", "c", 1.5), ("a", "b", 2.0), ("c", "c", 0.75)],
)
_BATCH_SPACES = {
    "cycle": make_cycle(2.0),
    "theta": _THETA,
    "star": make_star(3, 1.0),
    "mixed": _MIXED_GRAPH,
    "cyl": ProductSpace(make_cycle(2.0), fiber_length=1.0, p=2.0),
    "theta-l1": ProductSpace(_THETA, fiber_length=0.5, p=1.0),
    "star-l3": ProductSpace(make_star(3, 1.0), fiber_length=1.0, p=3.0),
    "ball-cyl": ProductSpace(BallSpace(2), fiber_length=1.0, p=2.0),
    "ball1": BallSpace(1),
    "ball2": BallSpace(2),
    "ball3": BallSpace(3),
    "sphere2": SphereSpace(2),
}
_BUDGETS = [0.0, 0.1, 0.25, 0.5, 1.0, 2.5]


def _graph_points(space):
    """Points at the quarter offsets of every edge, vertex aliases included."""
    return [(e, length * j / 4.0) for e, (_, _, length) in enumerate(space.edges)
            for j in range(5)]


@st.composite
def _graph_point(draw, space):
    e = draw(st.integers(0, len(space.edges) - 1))
    length = space.edges[e][2]
    off = draw(st.sampled_from([0.0, length / 4, length / 2, length])
               | st.floats(0.0, length))
    return (e, off)


@st.composite
def _vector_point(draw, space):
    """A ball point at a drawn radius, or a sphere point, in a drawn direction."""
    n = space.ambient
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = _norm(v)
    if norm == 0.0:
        v, norm = np.eye(n)[0], 1.0
    if isinstance(space, SphereSpace):
        return v / norm
    return (draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)) / norm) * v


@st.composite
def _batch_case(draw):
    name = draw(st.sampled_from(sorted(_BATCH_SPACES)))
    space = _BATCH_SPACES[name]
    if isinstance(space, (BallSpace, SphereSpace)):
        point = _vector_point(space)
    elif isinstance(space, ProductSpace):
        base = space.base
        if isinstance(base, BallSpace):
            angle = st.floats(0.0, 2 * math.pi)
            base_point = st.builds(
                lambda r, a: np.array([r * math.cos(a), r * math.sin(a)]),
                st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), angle)
        else:
            base_point = _graph_point(base)
        fiber = st.sampled_from([0.0, space.fiber_length]) | st.floats(0.0, space.fiber_length)
        point = st.tuples(base_point, fiber)
    else:
        point = _graph_point(space)
    p = draw(point)
    # coincident targets, and on balls and spheres the antipode
    same = st.just(p) | st.just(-p) if isinstance(p, np.ndarray) else st.just(p)
    qs = draw(st.lists(point | same, max_size=12))
    ts = draw(st.lists(st.sampled_from(_BUDGETS) | st.floats(0.0, 3.0),
                       min_size=len(qs), max_size=len(qs)))
    return space, p, qs, ts


@given(_batch_case())
def test_batch_queries_equal_scalar_loop(case):
    _assert_batch_equals_loop(*case)


def _mixed_budgets(count):
    return [_BUDGETS[i % len(_BUDGETS)] for i in range(count)]


@pytest.mark.parametrize("space", [make_cycle(2.0), _THETA, _MIXED_GRAPH],
                         ids=["cycle", "theta", "mixed"])
def test_batch_queries_equal_scalar_loop_on_tied_and_aliased_points(space):
    # every quarter point against every other: coincident points, vertex
    # aliases at offset 0 and offset L, antipodal cycle points and the
    # equal-edge theta's tied routes; each budget in turn per target
    points = _graph_points(space)
    for i, p in enumerate(points):
        qs = points[i:] + points[:i]
        for shift in range(len(_BUDGETS)):
            ts = _mixed_budgets(len(qs) + shift)[shift:]
            _assert_batch_equals_loop(space, p, qs, ts)


def test_batch_queries_equal_scalar_loop_on_antipodal_cycle_points():
    space = make_cycle(2.0)
    arcs = [0.0, 0.125, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 1.875]
    for s in arcs:
        p = cycle_point(space, s)
        qs = [cycle_point(space, s + 1.0)] * len(_BUDGETS)
        _assert_batch_equals_loop(space, p, qs, _BUDGETS)
        # the far point with budgets at and beyond the distance
        _assert_batch_equals_loop(space, p, qs[:3], [1.0, 1.0 + 1e-12, 5.0])


def test_batch_queries_equal_scalar_loop_on_random_points(rng):
    # lengths whose sums round differently in the two summation orders, so
    # a distance summed from the wrong point's side shows
    space = MetricGraphSpace(["a", "b", "c"], [("a", "b", 0.1), ("b", "c", 0.7),
                                               ("a", "c", 0.3), ("a", "b", 1.1)])
    for _ in range(40):
        p = space.random_point(rng)
        qs = [space.random_point(rng) for _ in range(40)]
        ts = rng.uniform(0.0, 0.5, len(qs)).tolist()
        _assert_batch_equals_loop(space, p, qs, ts)


@pytest.mark.parametrize("name", ["cyl", "theta-l1", "star-l3", "ball-cyl"])
def test_product_batch_queries_equal_scalar_loop(name, rng):
    space = _BATCH_SPACES[name]
    for _ in range(20):
        p = space.random_point(rng)
        qs = [space.random_point(rng) for _ in range(8)] + [p]
        # coincident base or fiber: the combine short cuts
        qs += [(p[0], qs[0][1]), (qs[1][0], p[1])]
        ts = _mixed_budgets(len(qs))
        _assert_batch_equals_loop(space, p, qs, ts)


def test_batch_queries_take_no_targets():
    for space in _BATCH_SPACES.values():
        p = space.random_point(np.random.default_rng(0))
        empty = space._batch([])
        assert space._distances(p, empty).shape == (0,)
        assert _same_batch(space._steps(p, empty, []), empty)


@pytest.mark.parametrize("p", [(0.7, 0.2), (True, 0.2), (np.True_, 0.2), (1.5, 0.0),
                               (0, True), ("x", 0.2), (None, 0.2)])
def test_graph_points_reject_fractional_and_boolean_parts(p):
    # a bare int() once truncated 0.7 to edge 0 and read True as edge 1
    space = make_cycle(2.0)
    with pytest.raises(MalformedPointError):
        space.distance(p, (0, 0.9))
    with pytest.raises(MalformedPointError):
        space.step_toward((0, 0.9), p, 0.1)


def test_graph_points_accept_integer_edge_ids():
    space = make_cycle(2.0)
    for e in (1, np.int64(1), np.int32(1), np.intp(1), 1.0):
        assert space.distance((e, 0.2), (1, 0.2)) == 0.0
        assert space.step_toward((e, 0.2), (1, 0.7), 0.25) == (1, 0.45)


@pytest.mark.parametrize("fiber", [True, np.True_, "x", None])
def test_product_points_reject_boolean_fiber(fiber):
    space = ProductSpace(make_cycle(2.0), fiber_length=1.0)
    with pytest.raises(MalformedPointError):
        space.distance(((0, 0.5), fiber), ((0, 0.5), 0.5))
    assert space.distance(((0, 0.5), np.float64(1.0)), ((0, 0.5), 0.5)) == 0.5


# ---------------------------------------------------------------------------
# nets


def test_cycle_net_8_points():
    space = make_cycle(2.0)
    net = build_net(space, 0.25)
    assert net.size == 8
    assert net.h == pytest.approx(0.125, abs=0)
    # oracle: every arc midpoint between adjacent net points is within h
    positions = sorted({0.25 * j for j in range(8)})
    for j in range(8):
        mid = positions[j] + 0.125
        p = cycle_point(space, mid)
        assert min(space.distance(p, q) for q in net.points) <= 0.125 + 1e-12


def test_interval_net_three_points():
    net = build_net(make_interval(1.0), 0.5)
    offsets = sorted(off for _, off in net.points)
    assert offsets == [0.0, 0.5, 1.0]


def test_circle_net_closed_form():
    net = build_net(SphereSpace(1), math.pi / 4)
    assert net.size == 8
    angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in net.points)
    assert np.allclose(angles, [k * math.pi / 4 for k in range(8)], atol=1e-12)
    for i in range(8):
        for j in range(8):
            k = abs(i - j)
            expected = min(k, 8 - k) * math.pi / 4
            assert net.matrix[i, j] == pytest.approx(expected, abs=1e-12)


def test_net_matrix_matches_space(rng):
    net = build_net(make_star(3, 1.0), 0.5)
    for _ in range(50):
        i, j = rng.integers(0, net.size, size=2)
        assert net.matrix[i, j] == pytest.approx(
            net.space.distance(net.points[i], net.points[j]), abs=1e-9
        )
    assert np.array_equal(net.matrix, net.matrix.T)


def _distance_loop(space, points):
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = space.distance(points[i], points[j])
    return out


@pytest.mark.parametrize("graph", [
    make_cycle(2.0),
    MetricGraphSpace(["u", "v"], [("u", "v", 0.7), ("u", "v", 2.9)]),
    MetricGraphSpace(["u", "v", "w"], [("u", "v", 1.3), ("v", "v", 1.1),
                                       ("u", "w", 0.45), ("v", "u", 0.3)]),
    make_star(4, 0.37),
])
@pytest.mark.parametrize("h", [0.4, 0.02])  # 0.02: nets of several row blocks
def test_graph_pairwise_equals_distance_loop_bitwise(graph, h, rng):
    net = build_net(graph, h)
    assert net.matrix.tobytes() == _distance_loop(graph, net.points).tobytes()
    points = list(net.points) + [graph.random_point(rng) for _ in range(20)]
    points += [(1, 0.0), (0, 0.0), points[3]]  # vertex aliases and a repeat
    order = rng.permutation(len(points))
    points = [points[i] for i in order]
    assert graph.pairwise(points).tobytes() == _distance_loop(graph, points).tobytes()


def _broadcast_ball(points):
    """Ball ``pairwise`` as first written: one broadcast over all pairs."""
    arr = np.asarray(points, float)
    diff = arr[:, None, :] - arr[None, :, :]
    out = np.sqrt((diff * diff).sum(axis=2))
    return np.minimum(out, out.T)


def _broadcast_sphere(points):
    arr = np.asarray(points, float)
    diff = np.linalg.norm(arr[:, None, :] - arr[None, :, :], axis=2)
    summ = np.linalg.norm(arr[:, None, :] + arr[None, :, :], axis=2)
    out = 2.0 * np.arctan2(diff, summ)
    return np.minimum(out, out.T)


def _broadcast_product(net):
    """A product net's matrix as first written: the base matrix repeated
    over the fiber, the fiber gaps broadcast, both combined at full size."""
    space = net.space
    base = build_net(space.base, net.requested_h / 2.0 ** (1.0 / space.p))
    nf = net.size // base.size
    d_base = np.repeat(np.repeat(base.matrix, nf, axis=0), nf, axis=1)
    svals = np.array([s for _, s in net.points])
    d_fib = np.abs(svals[:, None] - svals[None, :])
    if space.p == 1.0:
        return d_base + d_fib
    if space.p == 2.0:
        return np.hypot(d_base, d_fib)
    matrix = (d_base**space.p + d_fib**space.p) ** (1.0 / space.p)
    matrix = np.where(d_fib == 0.0, d_base, matrix)
    return np.where(d_base == 0.0, d_fib, matrix)


@pytest.mark.parametrize("space, h, reference", [
    (BallSpace(1), 0.01, _broadcast_ball),
    (BallSpace(2, 1.3), 0.07, _broadcast_ball),
    (BallSpace(3), 0.4, _broadcast_ball),
    (BallSpace(9), 30.0, _broadcast_ball),  # numpy's sum unrolls by 8 from 8 terms up
    (SphereSpace(1), 0.01, _broadcast_sphere),
    (SphereSpace(2), 0.4, _broadcast_sphere),
    (SphereSpace(2), 0.2, _broadcast_sphere),
    (ProductSpace(make_cycle(2.0), 1.0, 1.0), 0.15, _broadcast_product),
    (ProductSpace(make_cycle(2 * math.pi), 1.0, 2.0), 0.3, _broadcast_product),
    (ProductSpace(make_star(3, 0.7), 0.9, 3.0), 0.12, _broadcast_product),
    (ProductSpace(ProductSpace(make_interval(1.0), 0.7, 2.0), 0.5, 3.0), 0.15,
     _broadcast_product),
])
def test_net_matrix_equals_broadcast_formula_bitwise(space, h, reference):
    net = build_net(space, h)
    assert net.size > 2 * max(1, _BLOCK_ENTRIES // net.size)  # several row blocks
    assert net.matrix.tobytes() == reference(net if reference is _broadcast_product
                                             else net.points).tobytes()


@pytest.mark.parametrize("space", [BallSpace(9), SphereSpace(9)])
def test_pairwise_equals_broadcast_formula_on_random_points(space, rng):
    points = [space.random_point(rng) for _ in range(400)]
    want = (_broadcast_ball if isinstance(space, BallSpace) else _broadcast_sphere)(points)
    assert space.pairwise(points).tobytes() == want.tobytes()


@pytest.mark.parametrize("space, h", [
    (BallSpace(2), 0.05), (SphereSpace(2), 0.2),
    (ProductSpace(make_cycle(2 * math.pi), 1.0, 2.0), 0.1), (make_cycle(2.0), 0.003),
], ids=["ball", "sphere", "product", "graph"])
def test_net_build_allocates_little_beyond_its_matrix(space, h):
    tracemalloc.start()
    try:
        net = build_net(space, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.size > 600 and peak <= net.matrix.nbytes + 2_000_000


@pytest.mark.parametrize(
    "name,h",
    [("interval", 0.3), ("cycle", 0.25), ("star", 0.4), ("ball1", 0.3),
     ("ball2", 0.35), ("circle", 0.3), ("cyl", 0.6)],
)
def test_net_covering_radius_statistical(name, h, rng):
    space = space_by_name(name)
    net = build_net(space, h)
    worst = 0.0
    for _ in range(1000):
        x = space.random_point(rng)
        worst = max(worst, min(space.distance(x, p) for p in net.points))
    assert worst <= net.h + 1e-9
    assert net.h <= h + 1e-12


def test_icosphere_net_covering(rng):
    space = SphereSpace(2)
    net = build_net(space, 0.6)
    worst = 0.0
    for _ in range(500):
        x = space.random_point(rng)
        worst = max(worst, min(space.distance(x, p) for p in net.points))
    assert worst <= net.h + 1e-9


@pytest.mark.parametrize("budget", [0, 20_001])
def test_net_budget_outside_its_range_is_a_config_error(budget):
    # checked first: a budget past DEFAULT_POINT_BUDGET would admit a matrix
    # too large to allocate, and one below 1 is no budget
    with pytest.raises(ConfigError, match="point_budget"):
        build_net(make_interval(1.0), 0.5, point_budget=budget)


def test_build_net_rejects_a_space_it_has_no_builder_for():
    class Unbuilt(pursuit.Space):
        pass

    with pytest.raises(ConfigError, match="no net construction for Unbuilt"):
        build_net(Unbuilt(), 0.5)


def test_icosphere_faces_wind_outward():
    # the icosphere cover takes each face's normal as it comes: at every
    # level up to 642 points no face is degenerate or winds inward
    space = SphereSpace(2)
    verts = [v / _norm(v) for v in np.array(_ICOSA_VERTS)]
    faces = list(_ICOSA_FACES)
    for size in (12, 42, 162, 642):
        h = max(space._distance(verts[i], verts[j])
                for a, b, c in faces for i, j in ((a, b), (b, c), (c, a)))
        net = build_net(space, h)  # stops subdividing at this level
        assert net.size == len(verts) == size
        assert np.array(net.points).tobytes() == np.array(verts).tobytes()
        for a, b, c in faces:
            normal = np.cross(verts[b] - verts[a], verts[c] - verts[a])
            assert _norm(normal) > 0 and np.dot(normal, verts[a] + verts[b] + verts[c]) > 0
        cache, subdivided = {}, []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / _norm(m))
                cache[key] = len(verts) - 1
            return cache[key]
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            subdivided += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = subdivided


def _reference_icosphere_net(space, h):
    """The icosphere net with its longest edge and its cover taken face by face."""
    verts = [v / _norm(v) for v in np.array(_ICOSA_VERTS)]
    faces = list(_ICOSA_FACES)

    def max_edge():
        return max(space._distance(verts[i], verts[j])
                   for a, b, c in faces for i, j in ((a, b), (b, c), (c, a)))

    while max_edge() > h:
        cache, subdivided = {}, []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / _norm(m))
                cache[key] = len(verts) - 1
            return cache[key]
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            subdivided += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = subdivided
    cover = 0.0
    for a, b, c in faces:
        normal = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        cover = max(cover, space._distance(normal / _norm(normal), verts[a]))
    return verts, cover


@pytest.mark.parametrize("h", [0.4, 0.2, 0.1])
def test_icosphere_net_equals_face_by_face_reference(h):
    space = SphereSpace(2)
    points, cover = _icosphere_net(space, h, 20_000)
    want_points, want_cover = _reference_icosphere_net(space, h)
    assert np.array(points).tobytes() == np.array(want_points).tobytes()
    assert type(cover) is float and cover.hex() == want_cover.hex()


@pytest.mark.parametrize("dim", range(1, 10))
@pytest.mark.parametrize("op", [np.subtract, np.add])
def test_pair_norms_equal_norms_of_the_broadcast(dim, op, rng):
    # left to right below 8 coordinates, numpy's own sum from 8 on
    x = rng.standard_normal((23, dim)) * rng.choice([1e-150, 1e-3, 1.0, 1e3, 1e150],
                                                     size=(23, dim))
    for a, b in ((x, x), (x[:5], x), (x[7:8], x[::-1])):
        want = _norms(op(a[:, None], b))
        assert _pair_norms(a, b, op).tobytes() == want.tobytes()


def test_dijkstra_returns_the_settle_order_and_search_its_ranks(rng):
    for _ in range(20):
        nv = int(rng.integers(2, 12))
        edges = [(i, int(rng.integers(0, i)), float(rng.choice([0.5, 1.0, 1.5])))
                 for i in range(1, nv)]
        edges += [(int(u), int(v), 1.0) for u, v in rng.integers(0, nv, (4, 2)) if u != v]
        space = MetricGraphSpace(range(nv), edges)
        for s in range(nv):
            row, order = _dijkstra(space._adj, s)
            assert sorted(order) == list(range(nv)) and order[0] == s
            assert [row[v] for v in order] == sorted(row)
            assert space._search(s) == (row, {v: r for r, v in enumerate(order)})


def test_net_budget_capacity_error():
    with pytest.raises(CapacityError) as err:
        build_net(make_interval(1.0), 1e-6, point_budget=100)
    assert "100" in str(err.value)
    with pytest.raises(CapacityError):
        build_net(BallSpace(2), 1e-4, point_budget=100)


def test_circle_net_budget_checked_before_points():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            build_net(SphereSpace(1), 1e-5, point_budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.required == 628319 and peak < 1_000_000


def _reference_ball_net(space, h):
    """``_ball_net`` for dimension >= 2 as first written: every rim
    candidate is tested against every kept point in a Python loop."""
    n, radius = space.dimension, space.radius
    pitch = h if n == 2 else h / math.sqrt(n)
    half = math.ceil(radius / pitch)
    axis = np.arange(-half, half + 1) * pitch
    mesh = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    norms = np.linalg.norm(mesh, axis=1)
    inside = [mesh[i] for i in range(len(mesh)) if norms[i] <= radius + 1e-12]
    points = list(inside)
    if n == 2:
        m_ring = max(3, math.ceil(2 * math.pi * radius / h - 1e-12))
        for j in range(m_ring):
            ang = 2 * math.pi * j / m_ring
            pt = np.array([radius * math.cos(ang), radius * math.sin(ang)])
            if all(np.linalg.norm(pt - q) > 1e-12 for q in inside):
                points.append(pt)
    else:
        shell = mesh[(norms > radius + 1e-12) & (norms <= radius + pitch * math.sqrt(n) / 2)]
        for g in shell:
            pt = g * (radius / np.linalg.norm(g))
            if all(np.linalg.norm(pt - q) > 1e-9 for q in points):
                points.append(pt)
    return points


@pytest.mark.parametrize("dim, radius, h", [
    # at h 0.2 and 0.25 four rim points coincide with grid points
    (2, 1.0, 0.08), (2, 1.0, 0.13), (2, 1.0, 0.2), (2, 1.0, 0.25), (2, 0.5, 0.08),
    (2, 0.5, 0.3), (2, 1.7, 0.2),
    (3, 0.5, 0.3), (3, 1.0, 0.5),
])
def test_ball_net_equals_reference_construction(dim, radius, h):
    space = BallSpace(dim, radius)
    points, cover = _ball_net(space, h, 10**6)
    want = _reference_ball_net(space, h)
    assert cover == h
    assert np.array(points).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_coarse_ball_nets_build_or_fail_without_overflow(dim):
    # from the diameter up: a grid whose squared norms pass the float range
    # is a capacity error, and every other net is the first construction's
    space = BallSpace(dim, 1.0)
    h = 2.0
    while h < 1e308:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                points, _ = _ball_net(space, h, 10**6)
            except CapacityError as err:
                assert dim >= 2 and h > 1e150 and err.required == math.inf
            else:
                assert dim == 1 or h < 1e160
                if dim >= 2:
                    want = _reference_ball_net(space, h)
                    assert np.array(points).tobytes() == np.array(want).tobytes()
        h *= 16


@pytest.mark.parametrize("h, budget", [(0.03, 1000), (0.0071, 20_000)])
def test_ball_net_budget_checked_before_rim(h, budget):
    # 3505 and 62 301 points inside the disc: rejected before the rim loop
    start = time.perf_counter()
    with pytest.raises(CapacityError) as err:
        build_net(BallSpace(2), h, point_budget=budget)
    assert time.perf_counter() - start < 0.5
    assert err.value.available == budget and err.value.required > budget


def test_sphere3_net_unsupported():
    with pytest.raises(ConfigError):
        build_net(SphereSpace(3), 0.5)


def test_net_index_lookup():
    net = build_net(make_interval(1.0), 0.5)
    i = net.index_of((0, 0.5))
    assert net.points[i] == (0, 0.5)
    with pytest.raises(MalformedPointError):
        net.index_of((0, 0.3))


@pytest.mark.parametrize("space, h", [
    (make_star(3, 1.0), 0.125), (BallSpace(2), 0.3), (SphereSpace(2), 0.6),
    (ProductSpace(make_cycle(2.0), fiber_length=1.0, p=2.0), 0.25),
])
def test_nearest_index_is_the_first_closest_point(space, h, rng):
    net = build_net(space, h)
    for _ in range(20):
        p = space.random_point(rng)
        d = [space.distance(p, q) for q in net.points]
        assert net.nearest_index(p) == d.index(min(d))
        assert net.nearest_index(p) == int(np.argmin(
            space._distances(p, space._batch(net.points))))


# ---------------------------------------------------------------------------
# products


def test_product_reduces_to_base_distance(rng):
    space = ProductSpace(make_cycle(2.0), fiber_length=1.0, p=3.0)
    for _ in range(50):
        a = space.base.random_point(rng)
        b = space.base.random_point(rng)
        s = rng.uniform(0, 1)
        assert space.distance((a, s), (b, s)) == space.base.distance(a, b)


def test_product_lp_formula():
    space = ProductSpace(make_interval(1.0), fiber_length=1.0, p=2.0)
    d = space.distance(((0, 0.0), 0.0), ((0, 0.3), 0.4))
    assert d == pytest.approx(math.hypot(0.3, 0.4), abs=1e-12)


def test_product_net_is_cartesian():
    space = ProductSpace(make_interval(1.0), fiber_length=1.0, p=2.0)
    net = build_net(space, 1.0)
    base_net = build_net(space.base, 1.0 / math.sqrt(2.0))
    fiber_vals = sorted({s for _, s in net.points})
    assert net.size == base_net.size * len(fiber_vals)


def test_product_net_budget_checked_before_base_matrix():
    # fiber of 355 points, so the base may have 20 000 // 355 = 56; the 2222
    # base points of the cycle fail before any point or matrix is made
    space = ProductSpace(make_cycle(2 * math.pi), fiber_length=1.0, p=2.0)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            build_net(space, 0.004)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5 and peak < 5_000_000
    assert err.value.available == 20_000
    assert err.value.required == 2222 * 355


def test_product_net_budget_checked_before_fiber():
    # 1 414 215 fiber points, 46 MB as a list of floats: the fiber alone is
    # over budget, and is rejected before its list or the base net is made
    space = ProductSpace(make_interval(1.0), fiber_length=1000.0, p=2.0)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            build_net(space, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.required == 1414215 and peak < 1_000_000


def test_product_net_budget_is_exact():
    space = ProductSpace(make_interval(1.0), fiber_length=1.0, p=2.0)
    size = build_net(space, 0.25).size
    assert build_net(space, 0.25, point_budget=size).size == size
    with pytest.raises(CapacityError) as err:
        build_net(space, 0.25, point_budget=size - 1)
    assert err.value.required == size and err.value.available == size - 1


# ---------------------------------------------------------------------------
# JSON descriptions


@pytest.mark.parametrize("name", ALL_SPACES)
def test_space_config_round_trip(name, rng):
    space = space_by_name(name)
    clone = space_from_config(space.describe())
    for _ in range(20):
        a, b = space.random_point(rng), space.random_point(rng)
        aj = clone.point_from_json(space.point_to_json(a))
        bj = clone.point_from_json(space.point_to_json(b))
        assert clone.distance(aj, bj) == pytest.approx(space.distance(a, b), abs=1e-12)


def test_space_config_decimal_strings():
    cfg = {
        "type": "metric_graph",
        "vertices": ["a", "b"],
        "edges": [["a", "b", "0.1"]],
    }
    space = space_from_config(cfg)
    assert space.edges[0][2] == 0.1


@pytest.mark.parametrize("make", [
    lambda x: MetricGraphSpace(["a", "b"], [("a", "b", x)]),
    lambda x: BallSpace(2, x),
    lambda x: ProductSpace(make_cycle(2.0), x),
    lambda x: ProductSpace(make_cycle(2.0), 1.0, x),
    lambda x: build_net(make_interval(1.0), x),
    lambda x: solve_volatile(build_net(make_interval(1.0), 0.5), 1, [],
                             [0.1, x], "cop_guarantee"),
], ids=["edge-length", "ball-radius", "fiber-length", "product-p", "net-h",
        "perturbation"])
@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_constructors_reject_non_finite_lengths(make, x):
    with pytest.raises(ConfigError, match="finite"):
        make(x)


def test_space_config_errors():
    with pytest.raises(ConfigError):
        space_from_config({"type": "torus"})
    with pytest.raises(ConfigError):
        space_from_config({"type": "metric_graph", "vertices": ["a"], "edges": []})
    with pytest.raises(ConfigError):
        space_from_config(
            {"type": "metric_graph", "vertices": ["a", "b"],
             "edges": [["a", "b", "-1"]]}
        )
    # a string of vertex names, an object of edges, an edge as a string
    for vertices, edges in [("ab", [["a", "b", "1"]]),
                            (["a", "b", "c"], {"ab1": 1, "bc1": 2}),
                            (["a", "b"], ["ab1"]),
                            (["a", "b"], [["a", "b", "1", "2"]]),
                            (["a", "b"], [("a", "b", 1)])]:
        with pytest.raises(ConfigError, match="list of vertices"):
            space_from_config({"type": "metric_graph", "vertices": vertices,
                               "edges": edges})
    # disconnected, the second also with a distance past the float range
    for edges in ([["a", "b", "1"], ["c", "d", "1"]],
                  [["a", "b", "1e308"], ["b", "c", "1e308"]]):
        with pytest.raises(ConfigError, match="not connected"):
            space_from_config({"type": "metric_graph",
                               "vertices": ["a", "b", "c", "d"], "edges": edges})
