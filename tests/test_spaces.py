import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pursuit.errors import (
    CapacityError,
    ConfigError,
    MalformedPointError,
)
from pursuit.solver import Perturbation
from pursuit.spaces import (
    BallSpace,
    MetricGraphSpace,
    ProductSpace,
    SphereSpace,
    _ball_net,
    _norm,
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
            segs.extend(space._hop_segment(*hop) for hop in space._vertex_path(x, y))
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
    lambda x: Perturbation([0.1, x]),
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
    with pytest.raises(ConfigError):
        # disconnected
        space_from_config(
            {"type": "metric_graph", "vertices": ["a", "b", "c", "d"],
             "edges": [["a", "b", "1"], ["c", "d", "1"]]}
        )
