"""Seeded command lists for the benchmark workloads.

A workload is a list of ``pursuit`` CLI commands, each a dict with an
``id``, the subcommand, its JSON config (or ``"default"`` for the built-in
verify pack) and the ``--seed`` it is given.  The seed picks start
positions, the greedy robber's ``--seed`` and the order-like choices of the
dyadic verify instances.  It never changes a net size, a horizon or a
strategy's step count, so every seed asks for the same amount of work.

This module imports nothing from ``pursuit``; net sizes below are the sizes
``build_net`` gives for these configs, and ``selftest.py`` checks them.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi


def _num(x: float) -> str:
    """Edge lengths and radii travel as round-trip decimal strings."""
    return repr(float(x))


def cycle(length: float, split: float | None = None) -> dict:
    """Cycle of the given length as two parallel edges between u and v."""
    a = length / 2.0 if split is None else split
    return {"type": "metric_graph", "vertices": ["u", "v"],
            "edges": [["u", "v", _num(a)], ["u", "v", _num(length - a)]]}


BALL2 = {"type": "ball", "dimension": 2, "radius": "1"}
SPHERE2 = {"type": "sphere", "dimension": 2}
CIRCLE = {"type": "sphere", "dimension": 1}
THETA = {"type": "metric_graph", "vertices": ["a", "b"],
         "edges": [["a", "b", "1"], ["a", "b", "1.5"], ["a", "b", "2"]]}
STAR = {"type": "metric_graph", "vertices": ["c", "x", "y", "z", "w"],
        "edges": [["c", "x", "1"], ["c", "y", "1.25"], ["c", "z", "1.5"],
                  ["c", "w", "0.75"]]}
LONG_THETA = {"type": "metric_graph", "vertices": ["a", "b"],
              "edges": [["a", "b", "4"], ["a", "b", "5"], ["a", "b", "6"]]}
CYCLE_2PI = cycle(TWO_PI)
CYLINDER = {"type": "product", "base": CYCLE_2PI, "fiber_length": "1", "p": "2"}

WORKLOADS = ("limit-solve", "graph-policy", "play-verify")

# Points in the net of each solve command (``build_net`` at these configs);
# start indices are drawn below these sizes.
NET_SIZES = {
    "ball-limit": 568, "cycle-k2-limit": 72, "sphere-standard": 162,
    "cylinder-duration": 180, "theta-policy": 150, "star-policy": 152,
    "cycle-policy": 200, "cycle-k2-policy": 40, "long-theta-value": 599,
    "tail-duration": 8,
}
# Upper bound on the exhaustive-oracle nodes of one dyadic instance, summed
# over its start tuples; the largest drawn instance has 48 448.
ORACLE_NODE_CAP = 100_000


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding is stable across Python versions and platforms
    return random.Random(f"perfbench/{workload}/{int(seed)}")


def _cmd(cid: str, command: str, config, seed: int = 0) -> dict:
    return {"id": cid, "command": command, "config": config, "seed": int(seed)}


def _starts(rng: random.Random, size: int, k: int) -> list:
    return [[rng.randrange(size) for _ in range(k + 1)] for _ in range(3)]


def _solve(cid: str, rng: random.Random, space, net_h, k: int, mode: str,
           **extra) -> dict:
    """A solve command with three seeded start tuples."""
    cfg = {"space": space, "net_h": net_h, "k": k, "mode": mode,
           "starts": _starts(rng, NET_SIZES[cid], k)}
    cfg.update(extra)
    return _cmd(cid, "solve", cfg)


# ---------------------------------------------------------------------------
# limit-solve: value-only sweeps to convergence over large layers


def limit_solve(rng: random.Random) -> list:
    return [
        # the ball example at desk scale, k=1
        _solve("ball-limit", rng, BALL2, 0.08, 1, "limit",
               agility={"kind": "uniform", "t": 0.2}, horizon={"N": 8}, N_max=64),
        # k=2: three-axis layers of 373k entries
        _solve("cycle-k2-limit", rng, CYCLE_2PI, TWO_PI / 72, 2, "limit",
               agility={"kind": "uniform", "t": math.pi / 12}, horizon={"N": 8},
               N_max=64),
        # default family of three uniform agilities
        _solve("sphere-standard", rng, SPHERE2, 0.4, 1, "standard",
               agility={"kind": "uniform", "t": 0.4}, horizon={"N": 4}, N_max=64),
        # duration held fixed while the step count doubles
        _solve("cylinder-duration", rng, CYLINDER, 0.3, 1, "limit",
               horizon={"N": 2, "T": 2.0}, N_max=32),
        # 44 points, capture threshold: k=1 fails, so k=2 is solved too
        _cmd("theta-copnumber", "copnumber", {
            "space": THETA, "net_h": 0.1, "k_max": 2, "theta": 0.0,
            "N_max": 32}),
    ]


# ---------------------------------------------------------------------------
# graph-policy: finite solves with argmin/argmax tables on metric graphs


def graph_policy(rng: random.Random) -> list:
    def policy(cid, space, net_h, k, t, N):
        return _solve(cid, rng, space, net_h, k, "finite",
                      agility={"kind": "uniform", "t": t}, horizon={"N": N},
                      store_policy=True)

    return [
        policy("theta-policy", THETA, 0.03, 1, 0.1, 6),
        policy("star-policy", STAR, 0.03, 1, 0.1, 6),
        policy("cycle-policy", cycle(6.0), 0.03, 1, 0.1, 6),
        policy("cycle-k2-policy", cycle(2.0), 0.05, 2, 0.1, 3),
        # a large net with a one-step value-only solve: net build heavy
        _solve("long-theta-value", rng, LONG_THETA, 0.025, 1, "finite",
               agility={"kind": "uniform", "t": 0.05}, horizon={"N": 1}),
    ]


# ---------------------------------------------------------------------------
# play-verify: many tiny calls (arena stepping, lemma checks, oracle)


def _play(space, robber, cops, start, t, N) -> dict:
    return {"space": space, "robber": {"name": robber}, "cops": {"name": cops},
            "start": start, "agility": {"kind": "uniform", "t": t}, "N": N}


def _unit(rng: random.Random, dim: int) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return [x / n for x in v]


def play_commands(rng: random.Random) -> list:
    """Four plays that last exactly ``N`` steps for every seed: the starts
    are at least ``2 t N`` apart, and each side moves at most ``t`` a step,
    so no capture can end a game early."""
    # ball: robber at radius 0.8, cop at radius 0.4 roughly opposite;
    # distance >= 1.16 > 2 * 0.0025 * 200
    phi = rng.uniform(0.0, TWO_PI)
    psi = phi + math.pi + rng.uniform(-0.5, 0.5)
    ball_start = {"robber": [0.8 * math.cos(phi), 0.8 * math.sin(phi)],
                  "cops": [[0.4 * math.cos(psi), 0.4 * math.sin(psi)]]}
    # sphere: cop within 30 degrees of the robber's antipode; distance >= 2.6
    u = _unit(rng, 3)
    w = _unit(rng, 3)
    c = [-a + 0.5 * b for a, b in zip(u, w)]
    cn = math.sqrt(sum(x * x for x in c))
    sphere_start = {"robber": u, "cops": [[x / cn for x in c]]}
    # theta: robber on the 1.5 edge, cop on the 2 edge; distance >= 1.4
    theta_start = {"robber": [1, rng.uniform(0.6, 0.9)],
                   "cops": [[2, rng.uniform(0.8, 1.2)]]}
    # cylinder: base points on opposite edges of the cycle; distance >= 2
    cyl_start = {"robber": [[0, rng.uniform(1.0, 2.0)], rng.uniform(0.0, 1.0)],
                 "cops": [[[1, rng.uniform(1.0, 2.0)], rng.uniform(0.0, 1.0)]]}
    return [
        _cmd("ball-play", "play", _play(
            BALL2, "greedy_robber", "radial_cop", ball_start, 0.0025, 200),
            rng.randrange(2**31)),
        _cmd("sphere-play", "play", _play(
            SPHERE2, "antipodal_robber", "follower_cop", sphere_start, 0.004,
            400)),
        _cmd("theta-play", "play", _play(
            THETA, "greedy_robber", "follower_cop", theta_start, 0.0025, 250),
            rng.randrange(2**31)),
        _cmd("cylinder-play", "play", _play(
            CYLINDER, "greedy_robber", "cylinder_lift_cop", cyl_start, 0.0035,
            250), rng.randrange(2**31)),
    ]


def _permuted(rng: random.Random, values) -> list:
    out = list(values)
    rng.shuffle(out)
    return out


def _lemma_fields(rng: random.Random, taus: list, h: float) -> dict:
    """Seeded perturbation, subdivision and adversary radii for one
    instance; none of them changes the instance's cost."""
    N = len(taus)
    bumped = list(taus)
    bumped[rng.randrange(N)] += h
    eps = [0.0] * (N + 1)
    eps[rng.randrange(N)] = h
    return {"taus": taus, "taus_perturbed": bumped,
            "subdivide": [rng.randrange(1, N + 1), 0.5], "volatile_eps": eps}


def dyadic_pack(rng: random.Random) -> list:
    """Tiny dyadic instances, two draws of each of four slots.  Each slot
    draws among isomorphic spaces (edge splits and arm orders) and among
    orderings of a fixed step multiset, so net size, cop count, horizon and
    the exhaustive-tree size are the same for every seed (the oracle's step
    prefix is fixed; only later steps are permuted)."""
    return [inst for d in range(2) for inst in _dyadic_slots(rng, f"-{d}")]


def _dyadic_slots(rng: random.Random, tag: str) -> list:
    h = 0.25
    cyc8 = {"name": "cycle-8" + tag,
            "space": cycle(2.0, rng.choice([0.5, 1.0, 1.5])),
            "h": h, "k": 1, "oracle_N": 2,
            "minmax": {"coarse_h": 0.5, "eps": 0.25,
                       "taus": _permuted(rng, [0.5, 0.5, 0.25, 0.5])}}
    cyc8.update(_lemma_fields(
        rng, [0.25, 0.5] + _permuted(rng, [0.25, 0.25, 0.5, 0.5]), h))
    cyc4 = {"name": "cycle-4-k2" + tag,
            "space": cycle(1.0, rng.choice([0.25, 0.5, 0.75])),
            "h": h, "k": 2, "oracle_N": 2}
    cyc4.update(_lemma_fields(rng, [0.25, 0.25, 0.5], h))
    arms = _permuted(rng, ["0.5", "1", "1"])
    star = {"name": "star-11" + tag,
            "space": {"type": "metric_graph", "vertices": ["c", "x", "y", "z"],
                      "edges": [["c", leaf, arm] for leaf, arm in zip("xyz", arms)]},
            "h": h, "k": 1, "oracle_N": 2}
    star.update(_lemma_fields(rng, [0.25] * 5, h))
    a = rng.choice([0.5, 0.75, 1.0, 1.25, 1.5])
    path = {"name": "path-9-k2" + tag,
            "space": {"type": "metric_graph", "vertices": ["a", "m", "b"],
                      "edges": [["a", "m", _num(a)], ["m", "b", _num(2.0 - a)]]},
            "h": h, "k": 2, "oracle_N": 1}
    path.update(_lemma_fields(rng, [0.25, 0.25, 0.25], h))
    return [cyc8, cyc4, star, path]


def play_verify(rng: random.Random) -> list:
    return play_commands(rng) + [
        _cmd("verify-default", "verify", "default"),
        _cmd("verify-dyadic", "verify", {"instances": dyadic_pack(rng)}),
    ]


# ---------------------------------------------------------------------------
# probe tail: every layer, a few milliseconds


def probe_tail(rng: random.Random) -> list:
    """A few tiny commands appended to every workload so that each layer the
    trace reports runs at least once: a k=2 instance with every lemma
    (volatile filters on all axes, policy filters through the minmax
    probe), a short play, a copnumber and a duration solve."""
    inst = {"name": "tail-cycle-4-k2", "space": cycle(2.0), "h": 0.5, "k": 2,
            "taus": [0.5] * 3, "taus_perturbed": [0.5, 1.0, 0.5],
            "subdivide": [2, 0.5], "volatile_eps": [0.5, 0.5, 0.0, 0.0],
            "oracle_N": 1,
            "minmax": {"coarse_h": 1.0, "eps": 0.5, "taus": [0.5, 0.5]}}
    phi = rng.uniform(0.0, TWO_PI)
    return [
        _cmd("tail-verify", "verify", {"instances": [inst]}),
        _cmd("tail-play", "play", _play(
            CIRCLE, "antipodal_robber", "follower_cop",
            {"robber": [math.cos(phi), math.sin(phi)],
             "cops": [[-math.cos(phi + 0.3), -math.sin(phi + 0.3)]]},
            0.05, 20)),
        _cmd("tail-copnumber", "copnumber", {
            "space": {"type": "metric_graph", "vertices": ["a", "b"],
                      "edges": [["a", "b", "1"]]},
            "net_h": 0.25, "k_max": 1, "family": [{"kind": "uniform", "t": 0.25}],
            "N_max": 8}),
        _solve("tail-duration", rng, cycle(2.0), 0.25, 1, "limit",
               horizon={"N": 1, "T": 1.0}, N_max=8),
    ]


_BUILDERS = {
    "limit-solve": limit_solve,
    "graph-policy": graph_policy,
    "play-verify": play_verify,
}


def commands(workload: str, seed: int) -> list:
    """The workload's command list for ``seed``; same seed, same list."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    return _BUILDERS[workload](rng) + probe_tail(rng)
