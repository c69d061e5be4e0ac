import math
import tracemalloc

import numpy as np
import pytest

from pursuit.errors import (
    CapacityError,
    ConfigError,
    MalformedPointError,
)
from pursuit.spaces import (
    BallSpace,
    MetricGraphSpace,
    ProductSpace,
    SphereSpace,
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
