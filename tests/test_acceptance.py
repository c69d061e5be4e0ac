"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from pursuit.arena import get_strategy, run_game
from pursuit.game import Agility, Position, trajectory_value
from pursuit.solver import limit_value, solve_finite, standard_value
from pursuit.spaces import BallSpace, ProductSpace, SphereSpace, build_net
from pursuit.verify import exhaustive_value, minmax_gap_probe, run_suite

from conftest import make_cycle, random_oracle_instances


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_circle_value():
    t0 = time.monotonic()
    net = build_net(SphereSpace(1), 2 * math.pi / 64)
    assert net.size == 64
    tau = Agility.uniform(math.pi / 16)
    res = limit_value(net, 1, tau, 1e-9, 64)
    antipodal = (32, 0)  # angle pi apart in the angular grid
    assert net.matrix[antipodal] == pytest.approx(math.pi, abs=1e-12)
    v = res.values[antipodal]
    target = math.pi - math.pi / 16
    ok_limit = abs(v - target) <= 1e-6

    family = [Agility.uniform(t) for t in (math.pi / 8, math.pi / 16, math.pi / 32)]
    sres = standard_value(net, 1, family, 1e-9, 64)
    vals = [m[1].values[antipodal] for m in sres.members]
    ok_incr = vals[0] < vals[1] < vals[2]
    final = sres.values[antipodal]
    ok_final = final >= math.pi - math.pi / 32 - 2 * net.h
    elapsed = time.monotonic() - t0
    report(
        1, "circle value",
        ok_limit and ok_incr and ok_final and elapsed < 10.0,
        f"limit={v:.9f} (target {target:.9f}), family={[f'{x:.4f}' for x in vals]}, "
        f"final={final:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_two_cops_win_circle():
    t0 = time.monotonic()
    net = build_net(make_cycle(2 * math.pi), 2 * math.pi / 64)
    assert net.size == 64
    res = limit_value(net, 2, Agility.uniform(math.pi / 16), 1e-9, 64)
    worst = res.values.max()
    bound = 2 * net.h + math.pi / 16
    elapsed = time.monotonic() - t0
    report(
        2, "two cops on the circle",
        worst <= bound and elapsed < 60.0,
        f"worst-start={worst:.6f} <= {bound:.6f}, {elapsed:.1f}s",
    )


def test_criterion_3_ball_cop_wins():
    t0 = time.monotonic()
    net = build_net(BallSpace(2, 1.0), 0.1)
    res = limit_value(net, 1, Agility.uniform(0.2), 1e-9, 64)
    worst = res.values.max()
    bound = 2 * net.h + 0.2
    elapsed = time.monotonic() - t0
    report(
        3, "ball cop-wins",
        worst <= bound and elapsed < 300.0,
        f"net={net.size} points, worst-start={worst:.6f} <= {bound:.6f}, {elapsed:.1f}s",
    )


def test_criterion_4_cylinder_preserves_value():
    t0 = time.monotonic()
    base_space = make_cycle(2 * math.pi)
    product = ProductSpace(base_space, fiber_length=1.0, p=2.0)
    pnet = build_net(product, (math.pi / 16) * math.sqrt(2.0))
    bnet = build_net(base_space, math.pi / 16)
    assert bnet.size == 32
    tau = Agility.uniform(math.pi / 16)
    bres = limit_value(bnet, 1, tau, 1e-9, 64)
    pres = limit_value(pnet, 1, tau, 1e-9, 64)
    fiber0 = [i for i, (bp, s) in enumerate(pnet.points) if s == 0.0]
    base_of = [bnet.index_of(pnet.points[i][0]) for i in fiber0]
    worst = max(
        abs(pres.values[ip, jp] - bres.values[ib, jb])
        for ip, ib in zip(fiber0, base_of)
        for jp, jb in zip(fiber0, base_of)
    )
    bound = 4 * pnet.h + math.pi / 16
    elapsed = time.monotonic() - t0
    report(
        4, "cylinder preservation",
        worst <= bound and elapsed < 300.0,
        f"max |v_product - v_base| = {worst:.6f} <= {bound:.6f} "
        f"over {len(fiber0) ** 2} matched starts, {elapsed:.1f}s",
    )


def test_criterion_5_lemma_suite():
    t0 = time.monotonic()
    reports = run_suite()
    exact = {"L1-equality", "step-monotone", "subdivision-monotone",
             "volatile-sandwich"}
    ok = True
    worst_exact = 0.0
    worst_cont = 0.0
    for r in reports:
        ok = ok and r.passed
        if r.lemma in exact:
            worst_exact = max(worst_exact, r.violation)
            ok = ok and r.violation == 0.0
        elif r.lemma in ("pos-continuity", "agility-continuity"):
            worst_cont = max(worst_cont, r.violation)
            ok = ok and r.violation <= 1e-9
    elapsed = time.monotonic() - t0
    report(
        5, "lemma suite",
        ok and elapsed < 60.0,
        f"{len(reports)} reports, exact worst={worst_exact:g}, "
        f"continuity worst={worst_cont:g}, {elapsed:.1f}s",
    )


def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    instances = random_oracle_instances(20, seed=20240817)
    worst = 0.0
    checked = 0
    for net, k, taus in instances:
        table = solve_finite(net, k, taus)
        for tup in np.ndindex(*table.top.shape):
            expected = exhaustive_value(net, taus, tup[0], tup[1:])
            worst = max(worst, abs(float(table.top[tup]) - expected))
            checked += 1
    elapsed = time.monotonic() - t0
    report(
        6, "oracle equivalence",
        worst == 0.0 and elapsed < 30.0,
        f"20 instances, {checked} tuples, max |diff| = {worst:g}, {elapsed:.1f}s",
    )


def test_criterion_7_minmax_gap():
    t0 = time.monotonic()
    space = make_cycle(2 * math.pi)
    fine = build_net(space, 2 * math.pi / 16)
    coarse = build_net(space, 2 * math.pi / 8)
    assert fine.size == 16 and coarse.size == 8
    eps = (2 * math.pi / 8) / 2  # half the coarse spacing
    probe = minmax_gap_probe(fine, 1, [math.pi / 4] * 8, coarse=coarse)
    elapsed = time.monotonic() - t0
    report(
        7, "min-max gap",
        probe.gap <= 4 * eps and elapsed < 30.0,
        f"gap={probe.gap:.6f} <= {4 * eps:.6f}, {elapsed:.1f}s",
    )


def test_criterion_8_arena_fidelity():
    t0 = time.monotonic()
    space = SphereSpace(1)
    start = Position(np.array([0.0, -1.0]), [np.array([0.0, 1.0])])
    robber = get_strategy(space, "antipodal_robber")
    cops = get_strategy(space, "follower_cop")
    traj = run_game(space, robber, cops, start, Agility.uniform(0.05), 1000)
    min_gap = min(traj.gaps())
    ok = (not traj.captured) and min_gap >= math.pi - 0.05
    elapsed = time.monotonic() - t0
    report(
        8, "arena fidelity",
        ok,
        f"min gap over 1000 steps = {min_gap:.15f} >= {math.pi - 0.05:.15f}, "
        f"value={trajectory_value(traj):.6f}, {elapsed:.1f}s",
    )
