import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pursuit import solver
from pursuit import _kernels
from pursuit._kernels import BLOCK_BYTES, pad_reach, pair_plan, reach_filter
from pursuit.errors import CapacityError, ConfigError, PlayoutError
from pursuit.game import Agility, trajectory_value
from pursuit.solver import (
    cop_number_estimate,
    duration_value,
    limit_value,
    policy_playout,
    reach_set,
    solve_finite,
    solve_volatile,
    standard_value,
)
from pursuit.spaces import (
    BallSpace,
    MetricGraphSpace,
    ProductSpace,
    SphereSpace,
    build_net,
    space_from_config,
)
from pursuit.verify import _coarse_to_fine, _subnet, default_pack

from conftest import make_cycle, make_interval, make_star

REACH_SLACK = 1e-12


# ---------------------------------------------------------------------------
# independent oracle: memoization-free exhaustive game-tree search


def brute_value(net, k, taus, r, cops, variant="endpoint"):
    D = net.matrix
    P = net.size

    def reach(i, t):
        return [j for j in range(P) if D[i, j] <= t + REACH_SLACK]

    def rec(r, cops, m):
        d0 = min(D[r, c] for c in cops)
        if m == 0:
            return d0
        t = taus[len(taus) - m]
        best = -math.inf
        for rn in reach(r, t):
            worst = math.inf
            for cn in itertools.product(*[reach(c, t) for c in cops]):
                v = rec(rn, cn, m - 1)
                if v < worst:
                    worst = v
            if worst > best:
                best = worst
        if variant == "intermediate":
            best = min(d0, best)
        return best

    return rec(r, tuple(cops), len(taus))


def interval_net3():
    return build_net(make_interval(1.0), 0.5)


def cycle_net(n_points, total=2.0):
    return build_net(make_cycle(total), total / n_points)


def antipodal_pair(net):
    """Index pair realizing the diameter of the net."""
    flat = int(np.argmax(net.matrix))
    return np.unravel_index(flat, net.matrix.shape)


# ---------------------------------------------------------------------------
# reach sets


def reach_list(rs, i):
    """The CSR reach list of net point ``i``."""
    return rs.indices[rs.indptr[i]:rs.indptr[i + 1]]


def test_reach_contains_self_and_slack():
    net = interval_net3()
    rs0 = reach_set(net, 0.0)
    for i in range(net.size):
        assert i in reach_list(rs0, i)
    rs = reach_set(net, 0.5)  # step equal to spacing must admit neighbors
    left = net.index_of((0, 0.0))
    mid = net.index_of((0, 0.5))
    assert sorted(reach_list(rs, left)) == sorted([left, mid])
    assert list(reach_list(rs, mid)) == [0, 1, 2]
    for i in range(net.size):
        for j in range(net.size):
            assert (j in reach_list(rs, i)) == (net.matrix[i, j] <= 0.5 + REACH_SLACK)


def test_reach_cache_reused():
    net = interval_net3()
    assert reach_set(net, 0.5) is reach_set(net, 0.5)


@pytest.mark.parametrize("t", [-0.5, math.nan, math.inf])
def test_solve_rejects_a_step_no_point_can_take(t):
    with pytest.raises(ConfigError, match="reach radius"):
        solve_finite(cycle_net(8), 1, [0.25, t])


# ---------------------------------------------------------------------------
# solve_finite


def test_base_case_is_distance():
    net = interval_net3()
    table = solve_finite(net, 1, [])
    r, c = net.index_of((0, 1.0)), net.index_of((0, 0.0))
    assert table.top[r, c] == 1.0
    assert np.array_equal(table.top, net.matrix)


def test_interval_cop_corners_robber():
    net = interval_net3()
    r, c = net.index_of((0, 1.0)), net.index_of((0, 0.0))
    expected = brute_value(net, 1, [0.5, 0.5], r, [c])
    assert expected == 0.0
    table = solve_finite(net, 1, [0.5, 0.5])
    assert table.top[r, c] == expected


def test_cycle_antipodal_holds_gap():
    net = cycle_net(4)
    r, c = antipodal_pair(net)
    expected = brute_value(net, 1, [0.5, 0.5], r, [c])
    assert expected == 0.5
    table = solve_finite(net, 1, [0.5, 0.5])
    assert table.top[r, c] == expected


@pytest.mark.parametrize("k,N", [(1, 3), (2, 2)])
def test_solver_matches_oracle_exhaustively(k, N):
    net = cycle_net(4)
    taus = [0.5] * N
    table = solve_finite(net, k, taus)
    for tup in itertools.product(range(net.size), repeat=k + 1):
        assert table.top[tup] == brute_value(net, k, taus, tup[0], tup[1:])


def test_intermediate_matches_its_oracle():
    net = build_net(make_star(3, 1.0), 0.5)
    taus = [0.5, 0.5]
    table = solve_finite(net, 1, taus, variant="intermediate")
    for tup in itertools.product(range(net.size), repeat=2):
        assert table.top[tup] == brute_value(net, 1, taus, tup[0], tup[1:],
                                             variant="intermediate")


def test_endpoint_equals_intermediate_on_aligned_net():
    net = cycle_net(8)
    taus = [0.25] * 4
    a = solve_finite(net, 1, taus, store_layers=True)
    b = solve_finite(net, 1, taus, variant="intermediate", store_layers=True)
    for m in range(5):
        assert np.array_equal(a.layers[m], b.layers[m])


def test_step_monotone_in_horizon():
    net = cycle_net(8)
    short = solve_finite(net, 1, [0.25] * 2)
    long = solve_finite(net, 1, [0.25] * 5)
    assert (long.top <= short.top).all()


def test_cop_symmetry_of_values():
    net = interval_net3()
    table = solve_finite(net, 2, [0.5, 0.5])
    assert np.array_equal(table.top, np.swapaxes(table.top, 1, 2))


def test_three_cops_against_oracle():
    net = build_net(make_interval(1.0), 1.0)  # two points
    taus = [1.0, 1.0]
    table = solve_finite(net, 3, taus)
    for tup in itertools.product(range(net.size), repeat=4):
        assert table.top[tup] == brute_value(net, 3, taus, tup[0], tup[1:])


def test_solve_on_icosphere_net():
    from pursuit.spaces import SphereSpace

    net = build_net(SphereSpace(2), 1.1)  # plain icosahedron, 12 points
    res = limit_value(net, 2, Agility.uniform(1.1), 1e-9, 16)
    assert res.values.max() <= math.pi
    assert res.values.min() >= 0.0
    single = limit_value(net, 1, Agility.uniform(1.1), 1e-9, 16)
    # doubling up a cop on the same point never helps the robber
    for r in range(net.size):
        for c in range(net.size):
            assert res.values[r, c, c] <= single.values[r, c] + 1e-12


def test_solve_on_ball_based_product():
    from pursuit.spaces import BallSpace, ProductSpace

    space = ProductSpace(BallSpace(1, 1.0), fiber_length=1.0, p=2.0)
    net = build_net(space, 0.8)
    res = limit_value(net, 1, Agility.uniform(0.8), 1e-9, 16)
    assert res.values.max() <= 0.8 + 2 * net.h  # single cop corners on a box


def test_state_budget_capacity_error(monkeypatch):
    net = cycle_net(8)
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", 100)
    with pytest.raises(CapacityError) as err:
        solve_finite(net, 2, [0.25])
    assert err.value.required == 8**3
    assert err.value.available == 100


@pytest.mark.parametrize("budget", [1, 2, 7, 8, 100, 4096, 4097, 2**24 - 1, 2**24, 10**12])
def test_max_net_points_is_the_exact_integer_root(monkeypatch, budget):
    # perfect powers such as 2**24 = 256**3 = 64**4 are where a float root lands low
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", budget)
    for k in range(1, 50):
        P = solver.max_net_points(k)
        assert P ** (k + 1) <= budget < (P + 1) ** (k + 1), (k, P)
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", 2**24)
    assert [solver.max_net_points(k) for k in (1, 2, 3, 10**8)] == [4096, 256, 64, 1]
    with pytest.raises(ConfigError):
        solver.max_net_points(0)


@pytest.mark.parametrize("k", [1, 2])
def test_stored_tables_must_fit_the_byte_budget(monkeypatch, k):
    # per step, k + 1 arg tables of 8**(k + 1) 1-byte net indices and one
    # layer of 8**(k + 1) 8-byte floats
    net, N = cycle_net(8), 3
    index_bytes = np.min_scalar_type(net.size - 1).itemsize
    assert index_bytes == 1
    policy, layers = index_bytes * 8 ** (k + 1) * N * (k + 1), 8 * 8 ** (k + 1) * N
    monkeypatch.setattr(solver, "STORED_BYTES_BUDGET", policy + layers)
    table = solve_finite(net, k, [0.25] * N, store_policy=True, store_layers=True)
    assert len(table.moves) == N and len(table.layers) == N + 1
    monkeypatch.setattr(solver, "STORED_BYTES_BUDGET", 0)
    solve_finite(net, k, [0.25] * N)  # layers 0 and N are the state budget's

    def no_sweep(*args):
        raise AssertionError("swept before the byte check")
    monkeypatch.setattr(solver, "_sweep", no_sweep)
    for budget, flags in [(policy + layers - 1, {"store_policy": True, "store_layers": True}),
                          (policy - 1, {"store_policy": True}),
                          (layers - 1, {"store_layers": True})]:
        monkeypatch.setattr(solver, "STORED_BYTES_BUDGET", budget)
        with pytest.raises(CapacityError) as err:
            solve_finite(net, k, [0.25] * N, **flags)
        assert err.value.required == budget + 1 and err.value.available == budget


@pytest.mark.parametrize("budget, solve, bad, good, message", [
    ("DEFAULT_STATE_BUDGET", solve_finite, ([0.25], "bogus"), ([0.25], "endpoint"),
     "unknown variant 'bogus'"),
    ("DEFAULT_STATE_BUDGET", solve_volatile, ([0.25], [0.0, 0.0], "bogus"),
     ([0.25], [0.0, 0.0], "robber_guarantee"), "unknown side 'bogus'"),
    ("STORED_BYTES_BUDGET", solver._solve, ([0.25] * 2, [0.0] * 2, "cop_guarantee"),
     ([0.25] * 2, [0.0] * 3, "cop_guarantee"), "perturbation needs 3 radii, got 2"),
    ("STORED_BYTES_BUDGET", solver._solve, ([0.25], [0.0, -0.1], "robber_guarantee"),
     ([0.25], [0.0, 0.1], "robber_guarantee"),
     "perturbation radii must be finite and nonnegative"),
], ids=["variant", "side", "short-eps", "negative-eps"])
def test_input_checks_come_before_the_budgets(monkeypatch, budget, solve, bad, good, message):
    # a zero budget that the good inputs exceed; _solve keeps every layer so
    # that the byte budget is exceeded too
    net = cycle_net(8)
    monkeypatch.setattr(solver, budget, 0)
    flags = {"store_layers": True} if solve is solver._solve else {}
    with pytest.raises(CapacityError):
        solve(net, 1, *good, **flags)
    with pytest.raises(ConfigError) as err:
        solve(net, 1, *bad, **flags)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# policies


def test_policy_moves_are_reachable():
    net = cycle_net(8)
    taus = [0.25, 0.25, 0.25]
    policy = solve_finite(net, 1, taus, store_policy=True)
    for m in range(1, 4):
        t = taus[3 - m]
        rs = reach_set(net, t)
        for r in range(net.size):
            for c in range(net.size):
                rm = policy.robber_move(m, (r, c))
                assert rm in reach_list(rs, r)
                (cm,) = policy.cop_moves(m, rm, (c,))
                assert cm in reach_list(rs, c)


def test_playout_optimal_vs_optimal_attains_table_value():
    net = cycle_net(8)
    taus = [0.25] * 4
    table = solve_finite(net, 1, taus, store_policy=True)
    for start in [(0, 4), (1, 5), (0, 1), (2, 2), (3, 7)]:
        traj = policy_playout(net, table, table, start, taus)
        assert trajectory_value(traj) == table.top[start]


class IndexSource:
    """A hand-written playout source in net indices: the robber stays put
    unless ``robber_to`` names its destination, and each cop steps to the
    reachable net point nearest the revealed robber."""

    def __init__(self, net, taus, robber_to=None):
        self.net, self.taus, self.robber_to = net, list(taus), robber_to

    @property
    def N(self):
        return len(self.taus)

    def robber_move(self, m, tup):
        return tup[0] if self.robber_to is None else self.robber_to(tup[0])

    def cop_moves(self, m, r_new, cops):
        D = self.net.matrix
        t = self.taus[self.N - m]
        moves = []
        for c in cops:
            feasible = np.nonzero(D[c] <= t + REACH_SLACK)[0]
            moves.append(int(feasible[np.argmin(D[feasible, r_new])]))
        return tuple(moves)


def test_playout_cross_evaluations():
    net = cycle_net(8)
    taus = [0.25] * 4
    table = solve_finite(net, 1, taus, store_policy=True)
    follower = IndexSource(net, taus)
    start = antipodal_pair(net)
    vs_follower = policy_playout(net, table, follower, start, taus)
    assert trajectory_value(vs_follower) >= table.top[start]

    net_i = interval_net3()
    taus_i = [0.5] * 4
    table_i = solve_finite(net_i, 1, taus_i, store_policy=True)
    stand_still = IndexSource(net_i, taus_i)
    r, c = net_i.index_of((0, 1.0)), net_i.index_of((0, 0.0))
    traj = policy_playout(net_i, stand_still, table_i, (r, c), taus_i)
    assert traj.captured
    assert trajectory_value(traj) == 0.0


def test_table_without_policy_answers_no_move():
    net = cycle_net(8)
    taus = [0.25] * 2
    table = solve_finite(net, 1, taus)
    assert table.moves == {}
    with pytest.raises(PlayoutError, match="no robber policy layer"):
        policy_playout(net, table, table, (0, 4), taus)
    with pytest.raises(PlayoutError, match="no cop policy layer"):
        policy_playout(net, IndexSource(net, taus), table, (0, 4), taus)


@pytest.mark.parametrize("k", [1, 2])
def test_moves_hold_one_arg_table_per_axis(k):
    net = cycle_net(8)
    table = solve_finite(net, k, [0.25] * 2, store_policy=True)
    assert sorted(table.moves) == [1, 2]
    for m in (1, 2):
        assert len(table.moves[m]) == k + 1
        assert all(arg.shape == (net.size,) * (k + 1) for arg in table.moves[m])


def test_playout_horizon_mismatch_error():
    net = interval_net3()
    policy = solve_finite(net, 1, [0.5], store_policy=True)
    with pytest.raises(PlayoutError):
        policy_playout(net, policy, policy, (2, 0), [0.5, 0.5])


def test_playout_budget_violation_error():
    net = interval_net3()
    a, b = net.index_of((0, 0.0)), net.index_of((0, 1.0))
    taus = [0.1, 0.1]
    teleporter = IndexSource(net, taus, robber_to=lambda r: a if r == b else b)
    policy = solve_finite(net, 1, taus, store_policy=True)
    with pytest.raises(PlayoutError, match="budget"):
        policy_playout(net, teleporter, policy, (2, 0), taus)


def test_playout_rejects_a_cop_source_of_the_wrong_arity():
    net = interval_net3()
    taus = [0.5]
    policy = solve_finite(net, 1, taus, store_policy=True)

    class TwoCops(IndexSource):  # answers for two cops in a one-cop game
        def cop_moves(self, m, r_new, cops):
            return super().cop_moves(m, r_new, cops) * 2

    with pytest.raises(PlayoutError, match="cop move arity mismatch"):
        policy_playout(net, policy, TwoCops(net, taus), (2, 0), taus)


def test_captured_playout_is_worth_zero():
    net = cycle_net(8)
    taus = [0.25] * 3
    policy = solve_finite(net, 2, taus, store_policy=True)
    late = 0
    for start in itertools.product(range(net.size), repeat=3):
        traj = policy_playout(net, policy, policy, start, taus)
        if traj.captured:
            late += traj.capture_step > 0
            assert trajectory_value(traj) == 0.0
    assert late


# ---------------------------------------------------------------------------
# volatile games


def test_volatile_zero_perturbation_identical():
    net = cycle_net(8)
    taus = [0.25, 0.25]
    plain = solve_finite(net, 1, taus)
    for side in ("cop_guarantee", "robber_guarantee"):
        vol = solve_volatile(net, 1, taus, [0.0, 0.0, 0.0], side)
        assert np.array_equal(vol.top, plain.top)


def test_volatile_base_clamp():
    # one tuple at distance 1, radius 0.6: floor at max(1 - 1.2, 0) = 0
    net = interval_net3()
    vol = solve_volatile(net, 1, [], [0.6], "cop_guarantee")
    r, c = net.index_of((0, 1.0)), net.index_of((0, 0.0))
    assert vol.top[r, c] == 0.0
    rob = solve_volatile(net, 1, [], [0.6], "robber_guarantee")
    assert rob.top[r, c] == 1.0


def test_volatile_sandwich_order():
    net = build_net(make_interval(1.0), 0.25)
    taus = [0.25]
    eps = [0.25, 0.0]
    lo = solve_volatile(net, 1, taus, eps, "cop_guarantee")
    hi = solve_volatile(net, 1, taus, eps, "robber_guarantee")
    mid = solve_finite(net, 1, taus)
    assert (lo.top <= mid.top).all()
    assert (mid.top <= hi.top).all()


def test_volatile_schedule_length_validation():
    net = interval_net3()
    with pytest.raises(ConfigError):
        solve_volatile(net, 1, [0.5, 0.5], [0.1], "cop_guarantee")


@pytest.mark.parametrize("side", ["cop_guarantee", "robber_guarantee"])
def test_volatile_rejects_negative_radius(side):
    net = interval_net3()
    with pytest.raises(ConfigError, match="nonnegative"):
        solve_volatile(net, 1, [0.5], [0.5, -0.1], side)


@pytest.mark.parametrize("side", ["cop_guarantee", "robber_guarantee"])
@pytest.mark.parametrize("k", [0, -1])
def test_volatile_needs_a_cop(k, side):
    net = interval_net3()
    with pytest.raises(ConfigError, match="need at least one cop"):
        solve_volatile(net, k, [0.5], [0.0, 0.0], side)


def brute_volatile(net, k, taus, eps, side, r, cops):
    """Independent recursion: adversary displaces every coordinate within
    eps before each step (and shrinks/keeps the base distance)."""
    D = net.matrix
    P = net.size
    N = len(taus)

    def reach(i, t):
        return [j for j in range(P) if D[i, j] <= t + REACH_SLACK]

    def rec(r, cops, m):
        e = eps[N - m]
        if m == 0:
            d = min(D[r, c] for c in cops)
            return max(d - 2 * e, 0.0) if side == "cop_guarantee" else d
        t = taus[N - m]

        def after_moves(ra, ca):
            best = -math.inf
            for rn in reach(ra, t):
                worst = math.inf
                for cn in itertools.product(*[reach(c, t) for c in ca]):
                    worst = min(worst, rec(rn, cn, m - 1))
                best = max(best, worst)
            return best

        adversary = min if side == "cop_guarantee" else max
        return adversary(
            after_moves(ra, ca)
            for ra in reach(r, e)
            for ca in itertools.product(*[reach(c, e) for c in cops])
        )

    return rec(r, tuple(cops), N)


@pytest.mark.parametrize("side", ["cop_guarantee", "robber_guarantee"])
def test_volatile_matches_brute_recursion(side):
    net = cycle_net(4)
    taus = [0.5, 0.5]
    eps = [0.5, 0.0, 0.5]
    vol = solve_volatile(net, 1, taus, eps, side)
    for tup in itertools.product(range(net.size), repeat=2):
        assert vol.top[tup] == brute_volatile(net, 1, taus, eps, side,
                                              tup[0], tup[1:])


def test_volatile_matches_brute_two_cops():
    net = interval_net3()
    taus = [0.5]
    eps = [0.5, 0.5]
    for side in ("cop_guarantee", "robber_guarantee"):
        vol = solve_volatile(net, 2, taus, eps, side)
        for tup in itertools.product(range(net.size), repeat=3):
            assert vol.top[tup] == brute_volatile(net, 2, taus, eps, side,
                                                  tup[0], tup[1:])


# ---------------------------------------------------------------------------
# limit and standard values


def test_limit_value_saturating_cops():
    # one cop available per net point: spread them and the gap is within h
    net = interval_net3()
    k = net.size
    res = limit_value(net, k, Agility.uniform(0.5), 1e-9, 4)
    spread = (2, 0, 1, 2)  # robber anywhere, cops on every point
    assert res.values[spread] <= net.h


def test_limit_value_circle_plateau():
    net = build_net(make_cycle(2 * math.pi), 2 * math.pi / 64)
    res = limit_value(net, 1, Agility.uniform(math.pi / 16), 1e-9, 16)
    assert res.converged
    r, c = antipodal_pair(net)
    assert res.values[r, c] == pytest.approx(math.pi - math.pi / 16, abs=1e-9)


def test_limit_value_interval_capture():
    net = interval_net3()
    for t in (0.5, 1.0):
        res = limit_value(net, 1, Agility.uniform(t), 1e-9, 16)
        assert res.values.max() == 0.0


def test_limit_value_matches_explicit_resolve():
    # the uniform fast path must agree with independent fixed-N solves
    net = cycle_net(8)
    res = limit_value(net, 1, Agility.uniform(0.25), 1e-12, 8)
    table = solve_finite(net, 1, [0.25] * res.achieved_N)
    assert np.array_equal(res.values, table.top)


def test_limit_value_decreasing_agility():
    net = cycle_net(4)
    res = limit_value(net, 1, Agility.harmonic(0.5), 1e-9, 8)
    assert res.achieved_N >= 2
    # the doubling driver must agree with a direct fixed-horizon solve
    table = solve_finite(net, 1, Agility.harmonic(0.5).prefix(res.achieved_N))
    assert np.array_equal(res.values, table.top)


def test_limit_value_rejects_increasing():
    net = interval_net3()
    with pytest.raises(ConfigError):
        limit_value(net, 1, Agility.explicit([0.1, 0.2, 0.3, 0.4]), 1e-9, 4)


@pytest.mark.parametrize("tail", [1.0, 0.0])
def test_limit_value_probes_the_whole_explicit_schedule(tail):
    # uniform over the first 16 steps only: not one iterated operator
    net = build_net(make_interval(8.0), 0.25)
    steps = [0.25] * 16 + [tail] * 4
    with pytest.raises(ConfigError, match="uniform or decreasing"):
        limit_value(net, 1, Agility.explicit(steps), 1e-9, 64)


def test_limit_value_nonconverged_flag():
    net = cycle_net(8)
    res = limit_value(net, 1, Agility.uniform(0.25), 1e-15, 1)
    assert not res.converged


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9])
def test_limit_value_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigError, match="tolerance"):
        limit_value(cycle_net(8), 1, Agility.uniform(0.25), tol, 8)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9])
def test_duration_value_rejects_bad_tolerance(tol):
    with pytest.raises(ConfigError, match="tolerance"):
        duration_value(cycle_net(8), 1, 0.5, 1, tol, 8)


@pytest.mark.parametrize("T,N_start,message", [
    (0.0, 1, "duration T must be positive"),
    (-0.5, 1, "duration T must be positive"),
    (0.5, 0, "N must be at least 1"),
])
def test_duration_value_rejects_bad_duration_and_start(T, N_start, message):
    with pytest.raises(ConfigError, match=message):
        duration_value(cycle_net(8), 1, T, N_start, 1e-9, 8)


def assert_fails_before_any_work(monkeypatch, call, message):
    """``call(net)`` raises ``message`` before it ranks the net or builds a reach set."""
    def fail(*args):
        raise AssertionError("reach_set was called")

    monkeypatch.setattr(solver, "reach_set", fail)
    net = cycle_net(8)
    with pytest.raises(ConfigError) as err:
        call(net)
    assert str(err.value) == message
    assert "ranked" not in net.__dict__


@pytest.mark.parametrize("tol,N_max,message", [
    (0.0, 8, "tolerance must be positive"),
    (1e-9, 0, "N_max must be at least 1, got 0"),
])
def test_limit_value_checks_its_bounds_before_any_work(monkeypatch, tol, N_max, message):
    assert_fails_before_any_work(
        monkeypatch, lambda net: limit_value(net, 1, Agility.uniform(0.25), tol, N_max), message)


_ENTRY_POINT_FAULTS = {
    "finite-variant": (lambda net: solve_finite(net, 1, [0.25], "sideways"),
                       "unknown variant 'sideways'"),
    "limit-shape": (lambda net: limit_value(net, 1, Agility.explicit([0.1, 0.3])),
                    "limit_value needs a uniform or decreasing agility"),
    "limit-harmonic-N_max": (lambda net: limit_value(net, 1, Agility.harmonic(0.5), N_max=0),
                             "N_max must be at least 1, got 0"),
    "standard-empty": (lambda net: standard_value(net, 1, []),
                       "no instances: agility family is empty"),
    "standard-geometric": (lambda net: standard_value(net, 1, [Agility.geometric(1.0, 0.5)]),
                           "agility Agility.geometric(a=1.0, rho=0.5) is outside the "
                           "standard set (divergent sum required)"),
    "standard-default-tol": (lambda net: standard_value(net, 1, tol=0.0),
                             "tolerance must be positive"),
    "standard-member-N_max": (
        lambda net: standard_value(net, 1, [Agility.uniform(0.25)], N_max=0),
        "N_max must be at least 1, got 0"),
    "copnumber-k_max": (lambda net: cop_number_estimate(net, 0),
                        "k_max must be at least 1"),
    "copnumber-theta": (lambda net: cop_number_estimate(net, 1, theta=-1.0),
                        "threshold must be nonnegative"),
    "copnumber-theta-nan": (lambda net: cop_number_estimate(net, 1, theta=math.nan),
                            "threshold must be nonnegative"),
    "copnumber-empty": (lambda net: cop_number_estimate(net, 1, family=[]),
                        "no instances: agility family is empty"),
    "copnumber-N_max": (lambda net: cop_number_estimate(net, 2, N_max=0),
                        "N_max must be at least 1, got 0"),
}


@pytest.mark.parametrize("case", list(_ENTRY_POINT_FAULTS))
def test_entry_points_check_their_arguments_before_any_work(monkeypatch, case):
    call, message = _ENTRY_POINT_FAULTS[case]
    assert_fails_before_any_work(monkeypatch, call, message)


def theta_net():
    """17 points on a theta graph with branches of length 1, 1.5 and 2."""
    space = MetricGraphSpace(["a", "b"], [("a", "b", 1.0), ("a", "b", 1.5),
                                          ("a", "b", 2.0)])
    return build_net(space, 0.25)


def reference_limit(net, k, t, tol, N_max):
    """Horizon doubling over independent fixed-N solves, no fixed-point skip."""
    def top(N):
        return solve_finite(net, k, [t] * N).ranks
    return solver._doubling(top, net, 1, N_max, tol)


def assert_same_limit(res, ref):
    assert np.array_equal(res.values, ref.values)
    assert (res.achieved_N, res.gap, res.converged, res.log) == \
        (ref.achieved_N, ref.gap, ref.converged, ref.log)


def test_limit_value_stops_sweeping_at_fixed_point(monkeypatch):
    # on the theta net with k=1 and t=0.25, layer 6 is the first fixed
    # point: sweep 7 returns it unchanged, between checkpoints 4 and 8
    net = theta_net()
    V = [solve_finite(net, 1, [0.25] * n).top for n in range(9)]
    assert not np.array_equal(V[5], V[6]) and np.array_equal(V[6], V[7])
    calls = []
    sweep = solver._sweep

    def counted(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(solver, "_sweep", counted)
    res = limit_value(net, 1, Agility.uniform(0.25), 1e-9, 64)
    assert len(calls) == 7  # not 16: the layer was checked at 8 and 16
    assert res.converged and res.achieved_N == 16
    assert np.array_equal(res.values, V[6])


def test_limit_value_long_uniform_explicit_schedule():
    net = build_net(make_interval(8.0), 0.25)
    res = limit_value(net, 1, Agility.explicit([0.25] * 20), 1e-9, 64)
    assert_same_limit(res, limit_value(net, 1, Agility.uniform(0.25), 1e-9, 20))


@pytest.mark.parametrize("make_net,k,N_max,converged", [
    (theta_net, 1, 64, True),  # first unchanged sweep 7
    (theta_net, 1, 6, False),  # stops on the fixed layer, before checking it
    (theta_net, 1, 4, False),  # stops before the fixed point
    (lambda: cycle_net(8), 2, 64, True),  # first unchanged sweep 5
    (lambda: cycle_net(8), 2, 3, False),
    (theta_net, 2, 64, True),  # first unchanged sweep 9
])
def test_limit_value_matches_resolving_doubling(make_net, k, N_max, converged):
    net = make_net()
    res = limit_value(net, k, Agility.uniform(0.25), 1e-9, N_max)
    ref = reference_limit(net, k, 0.25, 1e-9, N_max)
    assert_same_limit(res, ref)
    assert res.converged is converged


def ball_net(h=0.3):
    return build_net(BallSpace(2), h)


def sphere_net():
    return build_net(SphereSpace(2), 0.6)


def cylinder_net():
    return build_net(ProductSpace(make_cycle(2.0), 1.0, 2.0), 0.25)


def pack_nets():
    """Every net the default verify pack builds, coarse nets included."""
    nets = {}
    for inst in default_pack():
        space = space_from_config(inst["space"])
        nets[inst["name"]] = lambda space=space, h=inst["h"]: build_net(space, h)
        if "minmax" in inst:
            nets[inst["name"] + "-coarse"] = \
                lambda space=space, h=inst["minmax"]["coarse_h"]: build_net(space, h)
    return nets


def cycle_subnet():
    """The coarse cycle net as the min-max probe solves it: a subnet of the fine one."""
    fine = cycle_net(8)
    return _subnet(fine, _coarse_to_fine(fine, cycle_net(4)))


RANKED_NETS = {
    "theta": theta_net, "cycle": lambda: cycle_net(8), "ball": ball_net,
    "ball-P568": lambda: ball_net(0.08), "sphere": sphere_net, "cylinder": cylinder_net,
    "circle": lambda: build_net(SphereSpace(1), 0.3),
    "ball-1d": lambda: build_net(BallSpace(1), 0.2),
    "ball-3d": lambda: build_net(BallSpace(3), 0.5),
    "cycle-subnet": cycle_subnet, **pack_nets(),
}


@pytest.mark.parametrize("make_net", RANKED_NETS.values(), ids=RANKED_NETS.keys())
def test_distance_ranks_decode_to_the_matrix_bits(make_net):
    # every solve sweeps these ranks; np.unique would merge -0.0 into 0.0
    # and sort NaN last, so this is the guard that no net holds either
    net = make_net()
    levels, ranks = net.ranked
    assert ranks.dtype in (np.uint8, np.uint16)
    assert ranks.dtype == np.min_scalar_type(levels.size - 1)
    assert not np.isnan(levels).any() and (np.diff(levels) > 0).all()
    assert np.array_equal(levels[ranks].view(np.int64), net.matrix.view(np.int64))


@pytest.mark.parametrize("make_net", RANKED_NETS.values(), ids=RANKED_NETS.keys())
def test_net_matrix_is_symmetric_bit_for_bit(make_net):
    # Net.ranked sorts the upper triangle only and mirrors its ranks
    matrix = make_net().matrix
    assert np.array_equal(matrix.view(np.int64), matrix.T.view(np.int64))


# maps of R^3 that take the icosphere onto itself point for point: negation
# and the sign flip of each coordinate
SPHERE_SYMMETRIES = {
    "negation": lambda p: -p, "flip-x": lambda p: p * [-1, 1, 1],
    "flip-y": lambda p: p * [1, -1, 1], "flip-z": lambda p: p * [1, 1, -1],
}
ICOSPHERE_H = {12: 1.2, 42: 0.8, 162: 0.6, 642: 0.3}  # net size -> net_h


def point_permutation(net, f):
    """``g`` with ``points[g[i]] == f(points[i])``, or None when some image is
    no net point; -0.0 and 0.0 name one coordinate."""
    index = {tuple(p.tolist()): i for i, p in enumerate(net.points)}
    images = [index.get(tuple(f(p).tolist())) for p in net.points]
    return None if None in images else np.array(images)


def is_automorphism(D, g) -> bool:
    return np.array_equal(D[np.ix_(g, g)].view(np.int64), D.view(np.int64))


@pytest.mark.parametrize("P", ICOSPHERE_H)
def test_icosphere_sign_maps_are_matrix_automorphisms(P):
    net = build_net(SphereSpace(2), ICOSPHERE_H[P])
    assert net.size == P
    for f in SPHERE_SYMMETRIES.values():
        g = point_permutation(net, f)
        assert g is not None and sorted(g) == list(range(P))
        assert is_automorphism(net.matrix, g)
    # a coordinate swap maps some point off the net
    assert point_permutation(net, lambda p: p[[1, 0, 2]]) is None
    # a transposition of two points is a permutation but no automorphism
    g = np.arange(P)
    g[[0, 1]] = [1, 0]
    assert not is_automorphism(net.matrix, g)


@pytest.mark.parametrize("P, k", [(162, 1), (42, 1), (42, 2)])
def test_value_layers_are_invariant_under_icosphere_symmetries(P, k):
    # a sweep reads only the matrix, so an automorphism g of it maps every
    # value layer onto itself: V[g r, g c1, ...] == V[r, c1, ...]; arg tables
    # break ties toward the lowest index and need not be invariant
    net = build_net(SphereSpace(2), ICOSPHERE_H[P])
    h = net.h
    taus, eps = [h, 2 * h, h], [h, 0.0, 2 * h, h]
    layers = []
    for variant in ("endpoint", "intermediate"):
        layers += solve_finite(net, k, taus, variant, store_layers=True).layers.values()
    for side in ("cop_guarantee", "robber_guarantee"):
        layers += solve_volatile(net, k, taus, eps, side).layers.values()
    layers.append(limit_value(net, k, Agility.uniform(h)).ranks)
    std = standard_value(net, k)
    layers += [std.ranks] + [res.ranks for _, res in std.members]
    assert all(V.shape == (P,) * (k + 1) for V in layers)
    for f in SPHERE_SYMMETRIES.values():
        g = point_permutation(net, f)
        assert is_automorphism(net.matrix, g)  # before the layers rely on it
        for V in layers:
            assert np.array_equal(V[np.ix_(*[g] * (k + 1))], V)


def float_doubling(top, N, N_max, tol):
    """Horizon doubling on float64 top layers, with the change taken as the
    sup norm of the whole difference: ``(values, achieved_N, gap, converged,
    log)``."""
    log, prev = [], None
    while True:
        V = top(N)
        if prev is not None:
            dec = float(np.abs(prev - V).max())
            log.append((N, dec))
            if dec < tol:
                return V, N, dec, True, log
        prev = V
        if N >= N_max:
            return V, N, log[-1][1] if log else math.inf, False, log
        N = min(2 * N, N_max)


def float_limit(net, k, t, tol, N_max):
    """The uniform limit loop on float64 layers, with the same fixed-point
    skip: the loop as it ran before layers were swept as ranks."""
    rs = reach_set(net, t)
    V, done, fixed = solver._base_layer(net.matrix, k), 0, False

    def top(N):
        nonlocal V, done, fixed
        while done < N and not fixed:
            U, _ = solver._sweep(V, rs, k)
            fixed = np.array_equal(U, V)
            V, done = U, done + 1
        return V
    return float_doubling(top, 1, N_max, tol)


@pytest.mark.parametrize("make_net,k,t,N_max,dtype,stop", [
    (theta_net, 1, 0.25, 64, np.uint8, "fixed"),  # first unchanged sweep 7
    (theta_net, 1, 0.25, 4, np.uint8, "N_max"),
    (ball_net, 1, 0.5, 64, np.uint16, "fixed"),
    (sphere_net, 1, 0.5, 32, np.uint16, "N_max"),  # layers still oscillate
    (cylinder_net, 1, 0.25, 64, np.uint8, "tol"),  # converges with gap > 0
    (lambda: cycle_net(8), 2, 0.25, 64, np.uint8, "fixed"),
    (lambda: cycle_net(8), 2, 0.25, 3, np.uint8, "N_max"),
    (ball_net, 2, 0.25, 64, np.uint16, "fixed"),
    (ball_net, 2, 0.5, 4, np.uint16, "N_max"),
])
def test_rank_limit_equals_float_loop(monkeypatch, make_net, k, t, N_max, dtype, stop):
    net = make_net()
    ref = float_limit(net, k, t, 1e-9, N_max)
    dtypes = []
    sweep = solver._sweep

    def recorded(V, *args):
        dtypes.append(V.dtype)
        return sweep(V, *args)

    monkeypatch.setattr(solver, "_sweep", recorded)
    res = limit_value(net, k, Agility.uniform(t), 1e-9, N_max)
    assert set(dtypes) == {np.dtype(dtype)}
    assert res.values.dtype == np.float64
    values, *rest = ref
    assert np.array_equal(res.values.view(np.int64), values.view(np.int64))
    # the logged changes are the float sup norms, bit for bit
    assert (res.achieved_N, res.gap, res.converged, res.log) == tuple(rest)
    assert res.converged is (stop != "N_max")
    assert (res.gap == 0.0) is (stop == "fixed")


@pytest.mark.parametrize("make_net,k,T,moved", [
    (cylinder_net, 1, 2.0, True), (theta_net, 1, 1.0, True),
    (lambda: cycle_net(8), 2, 1.0, False),  # every change is an exact 0.0
], ids=["cylinder", "theta", "cycle-k2"])
def test_duration_log_equals_float_sup_norms(make_net, k, T, moved):
    net = make_net()
    res = duration_value(net, k, T, 1, 1e-9, 16)
    values, *rest = float_doubling(
        lambda N: solve_finite(net, k, [T / N] * N).top, 1, 16, 1e-9)
    assert np.array_equal(res.values.view(np.int64), values.view(np.int64))
    assert (res.achieved_N, res.gap, res.converged, res.log) == tuple(rest)
    assert any(dec > 0.0 for _, dec in res.log) is moved


def float_finite(net, k, taus, variant, store_policy, store_layers):
    """``solve_finite``'s layers and arg tables from float64 sweeps: the
    solve as it ran before layers were swept as ranks."""
    N = len(taus)
    V = base = solver._base_layer(net.matrix, k)
    layers, moves = {0: base}, {}
    for m in range(1, N + 1):
        V, args = solver._sweep(V, reach_set(net, taus[N - m]), k, store_policy)
        if variant == "intermediate":
            V = np.minimum(base, V)
        if store_policy:
            moves[m] = args
        if store_layers:
            layers[m] = V
    layers[N] = V
    return layers, moves


def float_volatile(net, k, taus, eps, side):
    """``solve_volatile``'s layers from float64 sweeps, with the clamp on the
    base layer itself."""
    N = len(taus)
    V = solver._base_layer(net.matrix, k)
    if side == "cop_guarantee":
        V = np.maximum(V - 2.0 * eps[N], 0.0)
    layers = {0: V}
    mode = "min" if side == "cop_guarantee" else "max"
    for m in range(1, N + 1):
        V, _ = solver._sweep(V, reach_set(net, taus[N - m]), k)
        if eps[N - m] > 0:
            adv = reach_set(net, eps[N - m])
            for axis in range(k + 1):
                V = reach_filter(V, adv.indptr, adv.indices, axis, mode, rows=adv.rows)
    layers[N] = V
    return layers


def spy_layer_dtypes(monkeypatch) -> list:
    """Record the dtype of every layer ``_sweep`` and ``reach_filter`` take."""
    seen = []

    def spy(fn):
        def recorded(V, *args, **kwargs):
            seen.append(V.dtype)
            return fn(V, *args, **kwargs)
        return recorded

    monkeypatch.setattr(solver, "_sweep", spy(solver._sweep))
    monkeypatch.setattr(solver, "reach_filter", spy(solver.reach_filter))
    return seen


def decoded_layers(table) -> dict:
    """A table's stored rank layers decoded to floats; each must be unsigned."""
    assert {layer.dtype.kind for layer in table.layers.values()} == {"u"}
    return {m: table.levels[r] for m, r in table.layers.items()}


def assert_same_bits(got: dict, want: dict):
    assert got.keys() == want.keys()
    for m, layer in want.items():
        assert got[m].dtype == layer.dtype == np.float64
        assert np.array_equal(got[m].view(np.int64), layer.view(np.int64)), m


RANK_SOLVE_NETS = [
    (theta_net, 1), (sphere_net, 1), (ball_net, 1), (cylinder_net, 1),
    (theta_net, 2), (lambda: build_net(SphereSpace(2), 1.0), 2), (ball_net, 2),
    (cylinder_net, 2),
]
RANK_SOLVE_IDS = ["theta-k1", "sphere-k1", "ball-k1", "cylinder-k1",
                  "theta-k2", "sphere-k2", "ball-k2", "cylinder-k2"]


@pytest.mark.parametrize("make_net,k", RANK_SOLVE_NETS, ids=RANK_SOLVE_IDS)
def test_rank_finite_solve_equals_float_sweeps(monkeypatch, make_net, k):
    net = make_net()
    taus = [2 * net.h, net.h, 2 * net.h][:4 - k]
    cases = [(variant, stores) for variant in ("endpoint", "intermediate")
             for stores in ((False, False), (True, True))]
    refs = [float_finite(net, k, taus, variant, *stores) for variant, stores in cases]
    seen = spy_layer_dtypes(monkeypatch)
    for (variant, (policy, layers)), (ref_layers, ref_moves) in zip(cases, refs):
        table = solve_finite(net, k, taus, variant, store_policy=policy, store_layers=layers)
        assert_same_bits(decoded_layers(table), ref_layers)
        assert table.moves.keys() == ref_moves.keys()
        for m, args in ref_moves.items():
            assert len(table.moves[m]) == len(args) == k + 1
            for got, want in zip(table.moves[m], args):
                assert got.dtype == np.min_scalar_type(net.size - 1)
                assert np.array_equal(got, want)
    assert seen and {dt.kind for dt in seen} == {"u"}


@pytest.mark.parametrize("n,dtype", [(255, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_arg_tables_use_the_narrowest_index_type(n, dtype):
    fine = cycle_net(512)
    net = _subnet(fine, np.arange(n))  # the fine net's first n points
    assert net.size == n and np.min_scalar_type(n - 1) == dtype
    taus = [2 * net.h, net.h]
    assert reach_set(net, net.h).rows.dtype == dtype
    table = solve_finite(net, 1, taus, store_policy=True)
    _, ref_moves = float_finite(net, 1, taus, "endpoint", True, False)
    for m, args in ref_moves.items():
        for got, want in zip(table.moves[m], args):
            assert got.dtype == dtype and np.array_equal(got, want)
    start = (0, n // 2)
    traj = policy_playout(net, table, table, start, taus)
    assert traj.steps == len(taus)


@pytest.mark.parametrize("make_net,k", RANK_SOLVE_NETS, ids=RANK_SOLVE_IDS)
def test_rank_volatile_solve_equals_float_sweeps(monkeypatch, make_net, k):
    net = make_net()
    taus = [2 * net.h, net.h, 2 * net.h][:4 - k]
    N, h = len(taus), net.h
    cases = [(eps, side) for eps in ([0.0] * (N + 1), [h, 0.0, 2 * h, h][:N + 1])
             for side in ("cop_guarantee", "robber_guarantee")]
    refs = [float_volatile(net, k, taus, eps, side) for eps, side in cases]
    seen = spy_layer_dtypes(monkeypatch)
    for (eps, side), ref in zip(cases, refs):
        assert_same_bits(decoded_layers(solve_volatile(net, k, taus, eps, side)), ref)
    assert seen and {dt.kind for dt in seen} == {"u"}


def test_each_net_is_ranked_once(monkeypatch):
    nets = {"standard": theta_net(), "cop-number": theta_net(),
            "duration": theta_net(), "decreasing": theta_net()}
    ranked = []
    unique = np.unique

    def counted(a, *args, **kwargs):
        ranked.append(a)
        return unique(a, *args, **kwargs)

    def upper(net):
        return net.matrix[np.triu_indices(net.size)]

    monkeypatch.setattr(np, "unique", counted)
    res = standard_value(nets["standard"], 1)
    assert len(res.members) == 3 and len(ranked) == 1
    assert np.array_equal(ranked[0], upper(nets["standard"]))
    cop = cop_number_estimate(nets["cop-number"], 2, theta=0.0)
    assert [k for k, _ in cop.per_k] == [1, 2] and len(ranked) == 2
    assert np.array_equal(ranked[1], upper(nets["cop-number"]))
    # each solves several horizons, each with its own finite solve
    dur = duration_value(nets["duration"], 1, 1.0, 1, 1e-9, 8)
    assert len(dur.log) >= 2 and len(ranked) == 3
    assert np.array_equal(ranked[2], upper(nets["duration"]))
    dec = limit_value(nets["decreasing"], 1, Agility.harmonic(0.5), 1e-9, 8)
    assert len(dec.log) >= 2 and len(ranked) == 4
    assert np.array_equal(ranked[3], upper(nets["decreasing"]))


def test_standard_and_cop_number_match_resolving_doubling():
    net = theta_net()
    family = [Agility.uniform(0.25), Agility.uniform(0.5)]
    for k in (1, 2):
        res = standard_value(net, k, family, 1e-9, 32)
        refs = [reference_limit(net, k, ag.tau(1), 1e-9, 32) for ag in family]
        for (desc, lim), ag, ref in zip(res.members, family, refs):
            assert desc == ag.describe()
            assert_same_limit(lim, ref)
        assert np.array_equal(res.values, np.maximum(*[r.values for r in refs]))
    cop = cop_number_estimate(net, 2, theta=0.0, family=family, N_max=32)
    expected = [
        (k, max(float(reference_limit(net, k, ag.tau(1), 1e-9, 32).values.max())
                for ag in family))
        for k in (1, 2)
    ]
    assert cop.per_k == expected


def test_standard_value_family_max_and_diagnostics():
    net = build_net(make_cycle(2 * math.pi), 2 * math.pi / 32)
    family = [Agility.uniform(math.pi / 8), Agility.uniform(math.pi / 16)]
    res = standard_value(net, 1, family, 1e-9, 32)
    r, c = antipodal_pair(net)
    vals = [m[1].values[r, c] for m in res.members]
    assert vals[0] < vals[1]  # finer uniform schedule favors the robber
    assert res.values[r, c] == max(vals)


def test_standard_value_two_cops_pin_cycle():
    net = cycle_net(8)
    res = standard_value(net, 2, [Agility.uniform(0.25)], 1e-9, 32)
    assert res.worst_start() <= 2 * net.h


def test_standard_value_ball_single_cop_wins():
    from pursuit.spaces import BallSpace

    net = build_net(BallSpace(2, 1.0), 0.2)
    fam = [Agility.uniform(0.2), Agility.uniform(0.4)]
    res = standard_value(net, 1, fam, 1e-9, 32)
    assert res.worst_start() <= 2 * net.h + max(ag.tau(1) for ag in fam)


def test_standard_value_rejects_bad_family():
    net = interval_net3()
    with pytest.raises(ConfigError):
        standard_value(net, 1, [])
    with pytest.raises(ConfigError):
        standard_value(net, 1, [Agility.geometric(1.0, 0.5)])
    with pytest.raises(ConfigError, match="empty"):
        cop_number_estimate(net, 1, family=[])


def test_cop_number_interval_strong():
    net = interval_net3()
    res = cop_number_estimate(net, 2, theta=0.0, family=[Agility.uniform(0.5)])
    assert res.estimate == 1


def test_cop_number_cycle_needs_two():
    net = cycle_net(8)
    fam = [Agility.uniform(0.25)]
    theta = 2 * net.h + 0.25
    res = cop_number_estimate(net, 2, theta=theta, family=fam)
    assert res.estimate == 2
    # with one cop the worst start stays near the antipodal separation
    k1_worst = dict(res.per_k)[1]
    assert k1_worst > theta
    assert k1_worst == pytest.approx(1.0 - 0.25, abs=1e-9)


def test_cop_number_sentinel():
    net = cycle_net(8)
    res = cop_number_estimate(net, 1, theta=0.0, family=[Agility.uniform(0.25)])
    assert res.estimate is None
    assert res.label() == "> 1"


@pytest.mark.parametrize("theta", [math.nan, -0.25])
def test_cop_number_rejects_bad_threshold(theta):
    with pytest.raises(ConfigError, match="threshold"):
        cop_number_estimate(cycle_net(8), 1, theta=theta,
                            family=[Agility.uniform(0.25)])


# ---------------------------------------------------------------------------
# reach filter against a brute-force loop over the reach lists


def loop_filter(values, rs, axis, mode):
    """Per entry: the extreme over the reach list and the first reach index
    attaining it."""
    moved = np.moveaxis(values, axis, 0)
    out = np.empty(moved.shape)
    arg = np.empty(moved.shape, dtype=np.int64)
    extreme = min if mode == "min" else max
    for i in range(moved.shape[0]):
        reach = [int(j) for j in reach_list(rs, i)]
        for rest in np.ndindex(moved.shape[1:]):
            vals = [moved[(j,) + rest] for j in reach]
            best = extreme(vals)
            out[(i,) + rest] = best
            arg[(i,) + rest] = reach[vals.index(best)]
    return np.moveaxis(out, 0, axis), np.moveaxis(arg, 0, axis)


@pytest.mark.parametrize("net_maker, k, t", [
    (lambda: build_net(make_star(3), 0.25), 1, 0.5),
    (lambda: cycle_net(8), 2, 0.25),
    # reach widths 3..7, varying by row
    (lambda: build_net(make_star(3), 0.25), 2, 0.5),
    # every reach list is the whole net
    (lambda: cycle_net(8), 2, 10.0),
])
@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("want_arg", [False, True])
def test_reach_filter_matches_loop(net_maker, k, t, mode, want_arg):
    net = net_maker()
    rs = reach_set(net, t)
    rng = np.random.default_rng(7)
    # few distinct integer values, so most reach lists contain ties
    V = rng.integers(0, 3, size=(net.size,) * (k + 1)).astype(float)
    # the transposed input is non-contiguous; its last axis is trailing
    for layer in (V, V.T):
        for axis in range(k + 1):
            want_out, want_idx = loop_filter(layer, rs, axis, mode)
            got = reach_filter(layer, rs.indptr, rs.indices, axis, mode, want_arg,
                               rows=rs.rows)
            out, idx = got if want_arg else (got, None)
            assert out.tobytes() == want_out.tobytes()
            if want_arg:
                assert np.array_equal(idx, want_idx)


def row_filter(values, indptr, indices, axis, mode, want_arg=False):
    """The per-row filter the blocked kernel replaced: one gather and one
    reduction per net point."""
    extreme, pick = {"min": (np.ndarray.min, np.ndarray.argmin),
                     "max": (np.ndarray.max, np.ndarray.argmax)}[mode]
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape
    P = indptr.size - 1
    a, b = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    flip = b == 1 and a > 1

    def as3(x):
        return x.reshape(a, P).T[None] if flip else x.reshape(a, P, b)

    src = np.ascontiguousarray(as3(values))
    out = np.empty(shape)
    arg = np.empty(shape, dtype=np.int64)
    out3, arg3 = as3(out), as3(arg)
    for i in range(P):
        local = indices[indptr[i]:indptr[i + 1]]
        sub = src[:, local, :]
        out3[:, i, :] = extreme(sub, axis=1)
        arg3[:, i, :] = local[pick(sub, axis=1)]
    return (out, arg) if want_arg else out


def assert_same_filter(layer, rs, axis, mode, want_arg):
    got = reach_filter(layer, rs.indptr, rs.indices, axis, mode, want_arg,
                       rows=rs.rows)
    want = row_filter(layer, rs.indptr, rs.indices, axis, mode, want_arg)
    if want_arg:
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("want_arg", [False, True])
def test_reach_filter_spans_blocks_on_every_axis(mode, want_arg):
    net = build_net(make_star(3), 0.08)  # 40 points, reach widths 3..7
    rs = reach_set(net, 0.2)
    k = 2
    # the other two axes hold P**2 float64 entries, so every axis needs two blocks
    assert net.size > BLOCK_BYTES // (8 + 1) // net.size ** k
    V = np.random.default_rng(3).integers(0, 3, size=(net.size,) * (k + 1))
    for layer in (V.astype(float), V.T.astype(float)):
        for axis in range(k + 1):
            assert_same_filter(layer, rs, axis, mode, want_arg)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("want_arg", [False, True])
def test_reach_filter_on_ranks_matches_float_filter(monkeypatch, dtype, mode, want_arg):
    net = build_net(make_star(3), 0.08)  # 40 points
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 4096)
    assert net.size > 4096 // net.size ** 2  # every axis spans blocks
    rs = reach_set(net, 0.2)
    rng = np.random.default_rng(5)
    L = min(np.iinfo(dtype).max + 1, 70_000)
    levels = np.cumsum(rng.random(L) + 0.01)  # strictly increasing floats
    # four ranks, the dtype's extremes among them, so most reach lists tie
    R = rng.choice([0, 1, L // 2, L - 1], size=(net.size,) * 3).astype(dtype)
    for layer in (R, R.T):
        for axis in range(3):
            got = reach_filter(layer, rs.indptr, rs.indices, axis, mode, want_arg,
                               rows=rs.rows)
            want = row_filter(levels[layer], rs.indptr, rs.indices, axis, mode, want_arg)
            if want_arg:
                (got, arg), (want, want_idx) = got, want
                assert np.array_equal(arg, want_idx)
            assert got.dtype == dtype
            assert levels[got].tobytes() == want.tobytes()


@st.composite
def reach_layers(draw):
    """Ascending reach lists that contain their own row, and a small
    integer-valued layer over them, so most reach lists hold ties."""
    P = draw(st.integers(1, 6))
    k = draw(st.integers(1, 2))
    lists = [sorted({i} | set(draw(st.lists(st.integers(0, P - 1), max_size=P))))
             for i in range(P)]
    indptr = np.cumsum([0] + [len(r) for r in lists], dtype=np.int64)
    indices = np.array([j for r in lists for j in r], dtype=np.int64)
    rs = solver.ReachSet(indptr, indices, pad_reach(indptr, indices))
    flat = draw(st.lists(st.integers(0, 2), min_size=P ** (k + 1),
                         max_size=P ** (k + 1)))
    layer = np.array(flat, dtype=float).reshape((P,) * (k + 1))
    return rs, layer, draw(st.integers(0, k)), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(reach_layers(), st.sampled_from(["min", "max"]), st.booleans())
def test_reach_filter_matches_row_filter(case, mode, want_arg):
    rs, layer, axis, transpose = case
    assert_same_filter(layer.T if transpose else layer, rs, axis, mode, want_arg)



# ---------------------------------------------------------------------------
# pair plans: reach lists read as runs of consecutive indices


def reference_plan_row(reach, P):
    """The plan of one ascending reach list, run by run: a lone index stays
    itself, a run ``s..s+m-1`` reads the pairs ``P + s, P + s + 2, ...``, and
    an odd run's last pair steps back to ``P + s + m - 2``."""
    runs = []
    for j in reach:
        if runs and j == runs[-1][-1] + 1:
            runs[-1].append(j)
        else:
            runs.append([j])
    row = []
    for run in runs:
        if len(run) == 1:
            row.append(run[0])
        else:
            row += [P + run[0] + min(q, len(run) - 2) for q in range(0, len(run), 2)]
    return row


def assert_plan_reads_reach(rs, rows):
    P = rs.indptr.size - 1
    for i in range(P):
        reach = [int(j) for j in reach_list(rs, i)]
        want = reference_plan_row(reach, P)
        row = rows[i].tolist()
        assert row[:len(want)] == want
        assert set(row[len(want):]) <= {i}  # padded with its own index only
        covered = set()
        for e in row:
            covered |= {e} if e < P else {e - P, e - P + 1}
        assert covered == set(reach)


def csr(lists):
    indptr = np.cumsum([0] + [len(r) for r in lists], dtype=np.int64)
    return indptr, np.array([j for r in lists for j in r], dtype=np.int64)


@pytest.mark.parametrize("lists,pairs", [
    ([[0, 1, 2], [0, 1, 2], [0, 1, 2]], False),  # W = 3 < 4, though one run each
    ([[0, 1, 2, 3]] * 4, True),  # one run of 4: G = 2
    ([[0, 2, 4, 6], [1, 3, 5, 7]] * 4, False),  # lone entries only: G = W = 4
    ([[0, 1, 3, 5], [0, 1, 3, 5], [2, 3, 5, 7], [1, 3, 5, 7]]
     + [[i, 0, 1, 2] if i > 2 else [0, 1, 2] for i in range(4, 8)], False),  # G + 1 = W
    ([list(range(8))] * 8, True),  # G = 4 against W = 8
    ([[0, 1, 2, 4, 5]] + [[1, 2, 3, 4, 5]] * 5, True),  # odd runs overlap: G = 3
])
def test_pair_plan_falls_back_when_pairs_save_nothing(lists, pairs):
    lists = [sorted(set(r) | {i}) for i, r in enumerate(lists)]
    indptr, indices = csr(lists)
    plan = pair_plan(indptr, indices)
    rs = solver.ReachSet(indptr, indices, pad_reach(indptr, indices))
    assert (plan is not None) is pairs
    assert (rs.paired is rs) is not pairs  # the padded set stands for its own plan
    if pairs:
        P = len(lists)
        assert plan.dtype == np.min_scalar_type(2 * P - 2)
        assert plan.shape[1] + 1 < max(map(len, lists))
        assert_plan_reads_reach(rs, plan)
        assert np.array_equal(rs.paired.rows, plan) and rs.paired.pairs


def test_pair_plan_widths_on_limit_nets():
    # W -> G on nets of the benchmark's limit solves
    cases = [
        (build_net(BallSpace(2), 0.08), 0.2, 24, 15),
        (build_net(SphereSpace(2), 0.4), None, 20, 15),  # the t = 4h member
        (cycle_net(72, 2 * math.pi), math.pi / 12, 7, 5),
    ]
    for net, t, W, G in cases:
        rs = reach_set(net, 4 * net.h if t is None else t)
        assert rs.rows.shape[1] == W
        assert rs.paired.pairs and rs.paired.rows.shape[1] == G
        assert rs.paired is rs.paired  # cached
        assert_plan_reads_reach(rs, rs.paired.rows)
    sphere = build_net(SphereSpace(2), 0.4)
    rs = reach_set(sphere, 2 * sphere.h)  # 7 -> 6: the padded table stays
    assert rs.rows.shape[1] == 7 and rs.paired is rs


@st.composite
def paired_nets(draw):
    """A small graph, ball, sphere or product net and a reach radius of up to
    six covering radii, sized so that a layer with ``k`` cops stays small."""
    k = draw(st.integers(1, 2))
    cap = 64 if k == 1 else 24
    kind = draw(st.sampled_from(["graph", "ball", "sphere", "product"]))
    if kind == "graph":
        nv = draw(st.integers(2, 5))
        lengths = st.floats(0.25, 2.0)
        edges = [(i, draw(st.integers(0, i - 1)), draw(lengths)) for i in range(1, nv)]
        edges += draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1),
                                         lengths).filter(lambda e: e[0] != e[1]),
                               max_size=3))
        space = MetricGraphSpace(range(nv), edges)
        h = sum(w for *_, w in space.edges) / draw(st.integers(2, cap // 2))
    elif kind == "ball":
        dim = draw(st.integers(1, 3))
        space, h = BallSpace(dim), draw(st.sampled_from([[0.08, 0.15, 0.3], [0.3, 0.5],
                                                          [0.6, 0.9]][dim - 1]))
    elif kind == "sphere":
        dim = draw(st.integers(1, 2))
        space, h = SphereSpace(dim), draw(st.sampled_from([[0.1, 0.3, 0.7], [0.6, 1.0]][dim - 1]))
    else:
        space = ProductSpace(make_cycle(draw(st.floats(1.0, 4.0))), 1.0,
                             draw(st.sampled_from([1.0, 2.0, 3.0])))
        h = draw(st.floats(0.3, 0.8))
    try:
        net = build_net(space, h, cap)
    except CapacityError:
        net = build_net(space, h * 4, cap)
    return net, k, net.h * draw(st.floats(0.0, 6.0))


@given(paired_nets(), st.sampled_from([np.uint8, np.uint16]), st.sampled_from([3, None]),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@settings(deadline=None)
def test_paired_filter_equals_padded_filter(case, dtype, high, seed, transpose, small_blocks):
    net, k, t = case
    rs = reach_set(net, t)
    plan = pair_plan(rs.indptr, rs.indices)
    pairs = plan is not None
    event(f"pairs={pairs}")
    if pairs:
        assert_plan_reads_reach(rs, plan)
    rows = plan if pairs else rs.rows
    # few distinct ranks, so most reach lists tie, or the dtype's whole range
    high = high or np.iinfo(dtype).max + 1
    layer = np.random.default_rng(seed).integers(0, high, (net.size,) * (k + 1), dtype)
    layer = layer.T if transpose else layer  # non-contiguous, its last axis trailing
    with mock.patch.object(_kernels, "BLOCK_BYTES", 64 if small_blocks else BLOCK_BYTES):
        for axis in range(k + 1):
            for mode in ("min", "max"):
                want = reach_filter(layer, rs.indptr, rs.indices, axis, mode, rows=rs.rows)
                got = reach_filter(layer, rs.indptr, rs.indices, axis, mode, rows=rows,
                                   pairs=pairs)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()


def test_uniform_limit_loop_sweeps_the_pair_plan(monkeypatch):
    # the plan is built once per reach set and swept with its flag; a finite
    # solve of the same radius keeps the padded table
    net = build_net(BallSpace(2), 0.3)
    seen = []
    real = solver.reach_filter

    def spied(*args, rows, pairs=False):
        seen.append((rows.shape[1], pairs))
        return real(*args, rows=rows, pairs=pairs)

    monkeypatch.setattr(solver, "reach_filter", spied)
    limit_value(net, 1, Agility.uniform(1.0), 1e-9, 8)
    rs = reach_set(net, 1.0)
    assert rs.paired.pairs
    assert set(seen) == {(rs.paired.rows.shape[1], True)}
    seen.clear()
    solve_finite(net, 1, [1.0] * 2, store_policy=True)
    assert set(seen) == {(rs.rows.shape[1], False)}


def test_paired_sweep_peaks_one_stack_above_the_padded_sweep():
    # the stack holds the layer and its P - 1 pair extremes; the padded lead
    # filter reads its input in place, so the paired sweep's peak may pass
    # the padded sweep's by that whole stack, and by no more
    net = build_net(BallSpace(2), 0.08)
    rs = reach_set(net, 0.2)
    paired = rs.paired
    assert paired.pairs
    V = solver._base_layer(net.ranked[1], 1)
    peaks = []
    for r in (rs, paired):
        tracemalloc.start()
        try:
            U, _ = solver._sweep(V, r, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del U
    stack = (2 * net.size - 1) * net.size * V.itemsize
    assert peaks[1] - peaks[0] <= stack + 4096


def reference_sup_change(levels, prev, V):
    """The doubling check's sup norm over the entries that moved."""
    moved = prev != V
    return float(np.abs(levels[prev[moved]] - levels[V[moved]]).max(initial=0.0))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("n", [1, solver.SUP_CHUNK - 1, solver.SUP_CHUNK,
                               solver.SUP_CHUNK + 1, 3 * solver.SUP_CHUNK + 5])
def test_sup_change_equals_masked_reference(dtype, n):
    rng = np.random.default_rng(n)
    L = np.iinfo(dtype).max + 1
    levels = np.cumsum(rng.random(L) + 0.01)
    prev = rng.integers(0, L, n, dtype)
    V = np.where(rng.random(n) < 0.5, prev, rng.integers(0, L, n, dtype))
    for a, b in ((prev, V), (V, prev), (prev[::-1], V)):
        assert solver._sup_change(levels, a, b) == reference_sup_change(levels, a, b)
    # the largest change sits at the last entry, in the last chunk
    V = prev.copy()
    V[-1] = L - 1 if prev[-1] != L - 1 else 0
    want = reference_sup_change(levels, prev, V)
    assert want > 0 and solver._sup_change(levels, prev, V) == want
    # 2-d layers are read whole
    if n % 2 == 0:
        assert solver._sup_change(levels, prev.reshape(2, -1), V.reshape(2, -1)) == want
    for same in (prev.copy(), prev):  # all equal, and the same array
        got = solver._sup_change(levels, prev, same)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
