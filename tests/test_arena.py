import math

import numpy as np
import pytest

from pursuit.arena import (
    builtin_strategies,
    export_gaps_csv,
    export_trajectory_jsonl,
    get_strategy,
    lift_slope,
    run_game,
)
from pursuit.errors import CapacityError, ConfigError, StrategyFaultError
from pursuit.game import Agility, Position, robber_cop_distance, trajectory_value
from pursuit.solver import policy_playout, solve_finite
from pursuit.spaces import (
    DEFAULT_POINT_BUDGET,
    BallSpace,
    MetricGraphSpace,
    ProductSpace,
    SphereSpace,
    build_net,
)

from conftest import make_cycle, make_interval


def interval_positions(space, r, c):
    return Position((0, r), [(0, c)])


# ---------------------------------------------------------------------------
# run_game basics


def test_stand_still_vs_follower_capture():
    space = make_interval(1.0)
    rob = get_strategy(space, "stand_still_robber")
    cop = get_strategy(space, "follower_cop")
    traj = run_game(space, rob, cop, interval_positions(space, 1.0, 0.0),
                    Agility.uniform(0.25), 4)
    assert traj.captured
    assert traj.capture_step == 4
    assert trajectory_value(traj) == 0.0


@pytest.mark.parametrize("kappa", [math.nan, -0.1])
def test_run_game_rejects_bad_capture_radius(kappa):
    # a robber standing on its cop must not play on uncaptured
    space = make_interval(1.0)
    with pytest.raises(ValueError, match="kappa"):
        run_game(space, get_strategy(space, "stand_still_robber"),
                 get_strategy(space, "stand_still_cops"),
                 interval_positions(space, 0.5, 0.5), Agility.uniform(0.25), 2,
                 kappa=kappa)


@pytest.mark.parametrize("N", [0, -1])
def test_run_game_needs_a_step(N):
    space = make_interval(1.0)
    with pytest.raises(ValueError, match="need at least one step"):
        run_game(space, get_strategy(space, "stand_still_robber"),
                 get_strategy(space, "stand_still_cops"),
                 interval_positions(space, 0.5, 0.0), Agility.uniform(0.25), N)


@pytest.mark.parametrize("name", ["cycle", "ball", "cylinder"])
def test_stored_gaps_equal_recomputed_distances(name, rng):
    space, cops = {
        "cycle": (make_cycle(2.0), "follower_cop"),
        "ball": (BallSpace(2), "radial_cop"),
        "cylinder": (ProductSpace(make_cycle(2 * math.pi)), "cylinder_lift_cop"),
    }[name]
    start = Position(space.random_point(rng), [space.random_point(rng)])
    traj = run_game(space, get_strategy(space, "greedy_robber", samples=4, seed=5),
                    get_strategy(space, cops), start, Agility.uniform(0.05), 30,
                    kappa=0.0)
    gaps = traj.gaps
    want = [robber_cop_distance(space, pos) for pos in traj.positions]
    assert len(gaps) == traj.steps + 1
    assert gaps == want and [type(g) for g in gaps] == [type(g) for g in want]


def test_follower_gap_nonincreasing(rng):
    space = make_cycle(2.0)
    rob = get_strategy(space, "greedy_robber", samples=8, seed=3)
    cop = get_strategy(space, "follower_cop")
    start = Position(space.random_point(rng), [space.random_point(rng)])
    traj = run_game(space, rob, cop, start, Agility.uniform(0.1), 50, kappa=0.0)
    gaps = traj.gaps
    # compare gap after the cops' move with the pre-move gap each step
    for prev, cur, t in zip(gaps[:-1], gaps[1:], traj.taus[1:]):
        assert cur <= prev + t + 1e-9
    # recorded moves respect the step budgets
    for a, b, t in zip(traj.positions[:-1], traj.positions[1:], traj.taus[1:]):
        assert space.distance(a.robber, b.robber) <= t + 1e-9
        for ca, cb in zip(a.cops, b.cops):
            assert space.distance(ca, cb) <= t + 1e-9


def test_follower_closes_exactly(rng):
    space = BallSpace(2)
    cop = get_strategy(space, "follower_cop")
    for _ in range(30):
        pos = Position(space.random_point(rng), [space.random_point(rng)])
        t = float(rng.uniform(0.01, 0.4))
        old = space.distance(pos.robber, pos.cops[0])
        (new_cop,) = cop(pos, t, 1)
        new = space.distance(pos.robber, new_cop)
        assert new == pytest.approx(max(0.0, old - t), abs=1e-9)


def test_budget_violation_raises():
    space = make_interval(1.0)

    def cheat(pos, t, n):
        return (0, 1.0) if pos.robber[1] < 0.5 else (0, 0.0)

    cop = get_strategy(space, "follower_cop")
    with pytest.raises(StrategyFaultError) as err:
        run_game(space, cheat, cop, interval_positions(space, 0.0, 0.5),
                 Agility.uniform(0.1), 3)
    assert err.value.side == "robber"
    assert err.value.step == 1


def test_cop_arity_fault():
    space = make_interval(1.0)

    def half_team(pos, t, n):
        return (pos.cops[0],)

    rob = get_strategy(space, "stand_still_robber")
    with pytest.raises(StrategyFaultError):
        run_game(space, rob, half_team,
                 Position((0, 1.0), [(0, 0.0), (0, 0.5)]),
                 Agility.uniform(0.1), 2)


def test_antipodal_robber_holds_distance():
    space = SphereSpace(1)
    start = Position(np.array([0.0, -1.0]), [np.array([0.0, 1.0])])
    rob = get_strategy(space, "antipodal_robber")
    cop = get_strategy(space, "follower_cop")
    eps = 0.05
    traj = run_game(space, rob, cop, start, Agility.uniform(eps), 200)
    assert not traj.captured
    assert min(traj.gaps) >= math.pi - eps


def test_antipodal_exact_after_robber_move():
    space = SphereSpace(1)
    rob = get_strategy(space, "antipodal_robber")
    cop_at = np.array([math.cos(0.3), math.sin(0.3)])
    pos = Position(-cop_at + 0.0, [cop_at])
    out = rob(pos, 0.05, 1)
    assert space.distance(out, cop_at) == math.pi


def test_radial_cop_trend_on_ball():
    space = BallSpace(2)

    def circling(pos, t, n):
        # constant-radius orbit: rotate by the arc the budget allows
        r = np.asarray(pos.robber, float)
        radius = float(np.linalg.norm(r))
        ang = math.atan2(r[1], r[0]) + 0.999 * t / radius
        return np.array([radius * math.cos(ang), radius * math.sin(ang)])

    start = Position(np.array([0.8, 0.0]), [np.array([-0.2, 0.1])])
    cop = get_strategy(space, "radial_cop")
    traj = run_game(space, circling, cop, start, Agility.uniform(0.05), 400, kappa=0.0)
    gaps = traj.gaps
    assert gaps[-1] < gaps[0]
    # trend check: quarter-window averages decrease along the realized play
    # (a predictable orbiter is eventually pinned by the segment pursuer)
    q = max(1, len(gaps) // 4)
    means = [np.mean(gaps[i * q:(i + 1) * q]) for i in range(4) if gaps[i * q:(i + 1) * q]]
    assert all(b < a for a, b in zip(means[:-1], means[1:]))
    assert all(g > 0.0 for g in gaps[:-1])  # positive until the final closing


def test_radial_cop_reaches_segment():
    space = BallSpace(2)
    cop = get_strategy(space, "radial_cop")
    pos = Position(np.array([0.5, 0.5]), [np.array([0.1, 0.0])])
    (new,) = cop(pos, 0.2, 1)
    r = np.asarray(pos.robber)
    rhat = r / np.linalg.norm(r)
    s = float(np.dot(new, rhat))
    assert np.linalg.norm(new - s * rhat) <= 1e-9  # on the segment
    assert space.distance(pos.cops[0], new) <= 0.2 + 1e-9


def test_radial_cop_heads_for_a_robber_at_the_center():
    space = BallSpace(2)
    cop = get_strategy(space, "radial_cop")
    pos = Position(np.zeros(2), [np.array([0.5, 0.0])])
    (near,) = cop(pos, 0.2, 1)  # the center is out of reach: a step toward it
    assert near[1] == 0.0 and near[0] == pytest.approx(0.3, abs=1e-9)
    (there,) = cop(pos, 0.5, 1)  # within reach: the center itself
    assert np.array_equal(there, np.zeros(2))


# ---------------------------------------------------------------------------
# catalog


def test_catalog_lists_and_docs():
    cat = builtin_strategies()
    for name in ("follower_cop", "antipodal_robber", "cylinder_lift_cop",
                 "greedy_robber", "radial_cop"):
        assert name in cat
        assert cat[name]["params"]
    with pytest.raises(ConfigError) as err:
        get_strategy(make_interval(1.0), "warp_robber")
    assert "follower_cop" in str(err.value)


def test_cylinder_lift_slope_inequality():
    slope = lift_slope(2.0, 0.1)
    assert slope > 5.05
    assert slope - math.sqrt(slope**2 - 1.0) < 0.1
    s3 = lift_slope(3.0, 0.05)
    assert s3 - (s3**3 - 1.0) ** (1 / 3) < 0.05


def test_cylinder_lift_cop_closes_fiber():
    space = ProductSpace(make_cycle(2.0), fiber_length=1.0, p=2.0)
    cop = get_strategy(space, "cylinder_lift_cop", eps=0.1)
    pos = Position(((0, 0.5), 1.0), [((0, 0.5), 0.0)])
    (new,) = cop(pos, 0.2, 1)
    assert 0.0 < new[1] <= 1.0
    assert space.distance(pos.cops[0], new) <= 0.2 + 1e-9


@pytest.mark.parametrize("name,space_maker", [
    ("follower_cop", lambda: make_cycle(2.0)),
    ("greedy_robber", lambda: make_cycle(2.0)),
    ("radial_cop", lambda: BallSpace(2)),
    ("antipodal_robber", lambda: SphereSpace(1)),
    ("cylinder_lift_cop", lambda: ProductSpace(make_interval(1.0), 1.0, 2.0)),
])
def test_builtin_budget_feasible_randomized(name, space_maker, rng):
    space = space_maker()
    move = get_strategy(space, name)
    side = builtin_strategies()[name]["side"]
    for _ in range(1000 // 5):
        pos = Position(space.random_point(rng),
                       [space.random_point(rng), space.random_point(rng)])
        t = float(rng.uniform(0.01, 0.5))
        out = move(pos, t, 1)
        moves = [out] if side == "robber" else list(out)
        anchors = [pos.robber] if side == "robber" else list(pos.cops)
        for a, b in zip(anchors, moves):
            assert space.distance(a, b) <= t + 1e-9


@pytest.mark.parametrize("samples", [DEFAULT_POINT_BUDGET + 1, 1e30])
def test_greedy_robber_samples_are_bounded_by_the_point_budget(samples):
    space = BallSpace(2)
    with pytest.raises(CapacityError, match="samples"):
        get_strategy(space, "greedy_robber", samples=samples)
    move = get_strategy(space, "greedy_robber", samples=DEFAULT_POINT_BUDGET)
    pos = Position(np.array([0.5, 0.0]), [np.array([0.0, 0.0])])
    assert space.distance(pos.robber, move(pos, 0.1, 1)) <= 0.1 + 1e-9


def reference_greedy_robber(space, samples=32, seed=0):
    """The greedy robber as first written: one validated ``step_toward`` per
    drawn target, and every candidate scored with ``distance`` per cop."""
    rng = np.random.default_rng(seed)

    def move(pos, t, n):
        t_eff = t * (1.0 - 1e-12)
        candidates = [pos.robber]
        for _ in range(samples):
            candidates.append(space.step_toward(pos.robber, space.random_point(rng), t_eff))
        scores = [
            min(space.distance(cand, c) for c in pos.cops) for cand in candidates
        ]
        return candidates[int(np.argmax(scores))]

    return move


_THETA = MetricGraphSpace(["a", "b"], [("a", "b", 1.0), ("a", "b", 1.5), ("a", "b", 2.0)])
_STAR = MetricGraphSpace(["c", "x", "y", "z", "w"],
                         [("c", "x", 1.0), ("c", "y", 1.25), ("c", "z", 1.5), ("c", "w", 0.75)])
_CYLINDER = ProductSpace(make_cycle(2 * math.pi), fiber_length=1.0, p=2.0)


@pytest.mark.parametrize("seed", [0, 7, 20240817])
@pytest.mark.parametrize("name", ["theta", "star", "cylinder", "ball", "ball3", "sphere"])
def test_greedy_robber_equals_reference(name, seed, tmp_path):
    space, cops, robber, cop_starts, t = {
        "theta": (_THETA, "follower_cop", (1, 0.7), [(2, 1.0)], 0.05),
        # the robber crosses the center before it is cornered on a leaf
        "star": (_STAR, "follower_cop", (1, 0.1), [(2, 1.4), (1, 0.9)], 0.05),
        "cylinder": (_CYLINDER, "cylinder_lift_cop", ((0, 1.5), 0.3),
                     [((1, 1.5), 0.8)], 0.07),
        "ball": (BallSpace(2), "radial_cop", np.array([0.8, 0.0]),
                 [np.array([-0.4, 0.1])], 0.02),
        "ball3": (BallSpace(3), "radial_cop", np.array([0.0, 0.8, 0.0]),
                  [np.array([-0.3, -0.2, 0.1])], 0.02),
        "sphere": (SphereSpace(2), "follower_cop", np.array([0.0, 0.0, 1.0]),
                   [np.array([0.6, 0.0, -0.8])], 0.03),
    }[name]
    start = Position(robber, cop_starts)
    trajectories = []
    for move in (get_strategy(space, "greedy_robber", seed=seed),
                 reference_greedy_robber(space, seed=seed)):
        traj = run_game(space, move, get_strategy(space, cops), start,
                        Agility.uniform(t), 60)
        out = tmp_path / f"{len(trajectories)}.jsonl"
        export_trajectory_jsonl(traj, out)
        trajectories.append(out.read_bytes())
    assert trajectories[0] == trajectories[1]


def test_wrong_space_strategy_errors():
    with pytest.raises(ConfigError):
        get_strategy(make_interval(1.0), "antipodal_robber")
    with pytest.raises(ConfigError):
        get_strategy(SphereSpace(1), "radial_cop")


# ---------------------------------------------------------------------------
# net policies replayed in the arena


def test_run_game_reproduces_policy_playout():
    space = make_cycle(2.0)
    net = build_net(space, 0.25)
    taus = [0.25] * 4
    policy = solve_finite(net, 1, taus, store_policy=True)
    start_idx = (0, 1)
    net_traj = policy_playout(net, policy, policy, start_idx, taus)

    def point_moves(side):
        # the net policy as a point strategy; positions stay on net points
        def move(pos, t, n):
            m = policy.N - n + 1
            r = net.index_of(pos.robber)
            cops = tuple(net.index_of(c) for c in pos.cops)
            if side == "robber":
                return net.points[policy.robber_move(m, (r, *cops))]
            return tuple(net.points[j] for j in policy.cop_moves(m, r, cops))
        return move

    start = Position(net.points[0], [net.points[1]])
    arena_traj = run_game(space, point_moves("robber"), point_moves("cops"), start,
                          Agility.uniform(0.25), 4, kappa=0.0)
    assert arena_traj.captured == net_traj.captured
    assert len(arena_traj.positions) == len(net_traj.positions)
    for a, b in zip(arena_traj.positions, net_traj.positions):
        assert space.distance(a.robber, b.robber) == 0.0
        for ca, cb in zip(a.cops, b.cops):
            assert space.distance(ca, cb) == 0.0


# ---------------------------------------------------------------------------
# exports


def test_trajectory_exports(tmp_path):
    space = make_interval(1.0)
    rob = get_strategy(space, "stand_still_robber")
    cop = get_strategy(space, "follower_cop")
    traj = run_game(space, rob, cop, interval_positions(space, 1.0, 0.0),
                    Agility.uniform(0.25), 4)
    jl = tmp_path / "traj.jsonl"
    cs = tmp_path / "gaps.csv"
    export_trajectory_jsonl(traj, jl)
    export_gaps_csv(traj, cs)
    lines = jl.read_text().strip().splitlines()
    assert len(lines) == len(traj.positions)
    import json

    rec = json.loads(lines[1])
    assert set(rec) == {"n", "t", "robber", "cops", "gap"}
    assert rec["t"] == 0.25
    rows = cs.read_text().strip().splitlines()
    assert rows[0] == "n,t,gap"
    assert len(rows) == len(traj.positions) + 1
