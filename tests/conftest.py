import math
import os

import numpy as np
import pytest
from hypothesis import settings

from pursuit.spaces import BallSpace, MetricGraphSpace, ProductSpace, SphereSpace, build_net

# HYPOTHESIS_PROFILE=ci runs every property that sets no example count of its
# own on 500 examples, the same ones on every run
settings.register_profile("ci", max_examples=500, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_cycle(total_length: float = 2.0) -> MetricGraphSpace:
    """Cycle as a 2-vertex, 2-edge metric graph; edge ids 0 and 1."""
    half = total_length / 2.0
    return MetricGraphSpace(["u", "v"], [("u", "v", half), ("u", "v", half)])


def cycle_point(space: MetricGraphSpace, s: float):
    """Point at arc position ``s`` in [0, total); edge 0 covers [0, half]."""
    half = space.edges[0][2]
    total = 2 * half
    s = s % total
    if s <= half:
        return (0, s)
    return (1, total - s)


def make_interval(length: float = 1.0) -> MetricGraphSpace:
    return MetricGraphSpace(["a", "b"], [("a", "b", length)])


def make_star(arms: int = 3, arm_length: float = 1.0) -> MetricGraphSpace:
    vertices = ["c"] + [f"t{i}" for i in range(arms)]
    edges = [("c", f"t{i}", arm_length) for i in range(arms)]
    return MetricGraphSpace(vertices, edges)


def random_oracle_instances(count: int = 20, seed: int = 0) -> list:
    """Randomized small instances (net <= 6, k <= 2, N <= 3) whose exhaustive
    tree stays at or below 120 000 nodes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        shape = rng.choice(["path", "cycle", "star"])
        if shape == "path":
            n_edges = int(rng.integers(1, 3))
            verts = [f"v{i}" for i in range(n_edges + 1)]
            edges = [
                (verts[i], verts[i + 1], float(rng.uniform(0.5, 1.5)))
                for i in range(n_edges)
            ]
        elif shape == "cycle":
            half = float(rng.uniform(0.5, 1.5))
            verts = ["a", "b"]
            edges = [("a", "b", half), ("a", "b", half)]
        else:
            verts = ["c", "x", "y", "z"]
            edges = [("c", w, float(rng.uniform(0.5, 1.2))) for w in "xyz"]
        space = MetricGraphSpace(verts, edges)
        total = float(sum(w for _, _, w in space.edges))
        net = build_net(space, total / float(rng.uniform(1.5, 3.0)))
        if net.size > 6:
            continue
        k = int(rng.integers(1, 3))
        N = int(rng.integers(1, 4))
        taus = [float(rng.uniform(0.8, 2.2) * net.h) for _ in range(N)]
        worst_reach = max(
            int((net.matrix[i] <= t + 1e-12).sum())
            for i in range(net.size)
            for t in taus
        )
        if (worst_reach ** (k + 1)) ** N > 120_000:
            continue
        out.append((net, k, taus))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cycle2():
    return make_cycle(2.0)


@pytest.fixture
def interval():
    return make_interval(1.0)


@pytest.fixture
def ball2():
    return BallSpace(2, 1.0)


@pytest.fixture
def circle():
    return SphereSpace(1)


@pytest.fixture
def cylinder(cycle2):
    return ProductSpace(make_cycle(2 * math.pi), fiber_length=1.0, p=2.0)
