import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuit import verify
from pursuit.errors import CapacityError, ConfigError, PlayoutError
from pursuit.game import trajectory_value
from pursuit.solver import policy_playout, reach_set, solve_finite
from pursuit.spaces import (
    BallSpace,
    Net,
    ProductSpace,
    SphereSpace,
    build_net,
    space_from_config,
)
from pursuit.verify import (
    LEMMA_IDS,
    default_pack,
    exhaustive_value,
    minmax_gap_probe,
    run_suite,
    suite_passed,
)

from conftest import make_cycle, make_interval, random_oracle_instances


def test_default_pack_all_pass():
    reports = run_suite()
    assert suite_passed(reports)
    exact = {"L1-equality", "step-monotone", "subdivision-monotone",
             "volatile-sandwich", "minmax-gap", "oracle-equivalence"}
    for r in reports:
        if r.lemma in exact:
            assert r.violation == 0.0
        else:
            assert r.violation <= 1e-9


def test_every_lemma_covered():
    reports = run_suite()
    covered = {r.lemma for r in reports}
    assert covered == set(LEMMA_IDS)


def test_suite_deterministic():
    a = [json.dumps(r.to_json(), sort_keys=True) for r in run_suite()]
    b = [json.dumps(r.to_json(), sort_keys=True) for r in run_suite()]
    assert a == b


def test_suite_builds_each_net_once(monkeypatch):
    built = []

    def counting_build_net(space, h, *args, **kwargs):
        built.append(h)
        return build_net(space, h, *args, **kwargs)

    monkeypatch.setattr(verify, "build_net", counting_build_net)
    pack = default_pack()
    run_suite(pack)
    coarse = [inst["minmax"]["coarse_h"] for inst in pack if "minmax" in inst]
    assert coarse  # the pack lifts at least one coarse net
    assert sorted(built) == sorted([inst["h"] for inst in pack] + coarse)


def test_oversize_instance_guard():
    inst = default_pack()[0] | {"h": 0.05}  # 21 points > limit of 12
    with pytest.raises(CapacityError) as err:
        run_suite([inst])
    assert err.value.available == 12


def test_tiny_coarse_h_fails_within_the_suite_net_limit(monkeypatch):
    budgets = []

    def recording_build_net(space, h, *args, **kwargs):
        budgets.append(args[0] if args else kwargs["point_budget"])
        return build_net(space, h, *args, **kwargs)

    def no_solve(*args, **kwargs):
        raise AssertionError("a lemma ran before every net was built")

    monkeypatch.setattr(verify, "build_net", recording_build_net)
    monkeypatch.setattr(verify, "solve_finite", no_solve)
    pack = default_pack()
    inst = next(i for i in pack if "minmax" in i)
    tiny = inst | {"minmax": inst["minmax"] | {"coarse_h": 0.002}}
    with pytest.raises(CapacityError) as err:
        run_suite([pack[0], tiny])
    assert err.value.what == "net points" and err.value.available == 12
    assert budgets and max(budgets) == 12


def count_oracle_nodes(net, k, taus):
    """Walk the exhaustive tree from every start tuple and count nodes."""
    reach = [[j for j in range(net.size) if net.matrix[i, j] <= t + 1e-12]
             for t in taus for i in range(net.size)]

    def count(tup, d):
        if d == len(taus):
            return 1
        row = d * net.size
        return 1 + sum(count(nxt, d + 1) for nxt in
                       itertools.product(*[reach[row + i] for i in tup]))

    return sum(count(tup, 0)
               for tup in itertools.product(range(net.size), repeat=k + 1))


@pytest.mark.parametrize("name", ["interval-3", "cycle-4-k2", "trivial-2"])
def test_oracle_node_count_matches_tree_walk(name):
    inst = next(i for i in default_pack() if i["name"] == name)
    net = build_net(space_from_config(inst["space"]), inst["h"])
    taus = inst["taus"][:inst["oracle_N"]]
    assert verify._oracle_nodes(net, inst["k"], taus) == \
        count_oracle_nodes(net, inst["k"], taus)


def test_each_instance_solves_its_plain_game_once(monkeypatch):
    # and each prefix of it, which step-monotone and the oracle both read;
    # minmax-gap's policy solves are not plain ones
    calls = []

    def counting_solve(net, k, taus, *args, **kwargs):
        calls.append((list(taus), kwargs.get("variant", "endpoint"),
                      kwargs.get("store_policy", False)))
        return solve_finite(net, k, taus, *args, **kwargs)

    monkeypatch.setattr(verify, "solve_finite", counting_solve)
    for inst in default_pack():
        calls.clear()
        run_suite([inst])
        taus = inst["taus"]
        for M in range(1, len(taus) + 1):
            assert calls.count((taus[:M], "endpoint", False)) == 1, (inst["name"], M)


def test_suite_memory_is_one_value_layer():
    # shaped like perfbench's path-9-k2: 9 points, two cops, 729 tuples
    inst = {"name": "path-9-k2",
            "space": {"type": "metric_graph", "vertices": ["a", "m", "b"],
                      "edges": [["a", "m", "0.75"], ["m", "b", "1.25"]]},
            "h": 0.25, "k": 2, "taus": [0.25] * 3,
            "taus_perturbed": [0.25, 0.5, 0.25], "subdivide": [2, 0.5],
            "volatile_eps": [0.0, 0.25, 0.0, 0.0], "oracle_N": 1}
    run_suite([inst])  # warm imports and caches outside the measurement
    tracemalloc.start()
    try:
        reports = run_suite([inst])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reports[0].instance == "path-9-k2[P=9,k=2,N=3]"
    assert suite_passed(reports)
    assert peak < 4_000_000


def pairwise_pos_continuity(D, V):
    """pos-continuity over the full (P^(k+1))^2 matrix of tuple pairs, as
    the suite first computed it."""
    k = V.ndim - 1
    P = D.shape[0]
    size = P ** (k + 1)
    dpos = np.zeros((size, size))
    for axis in range(k + 1):
        rep_in = P ** (k - axis)
        rep_out = P**axis
        idx = np.tile(np.repeat(np.arange(P), rep_in), rep_out)
        dpos = np.maximum(dpos, D[np.ix_(idx, idx)])
    flat = V.reshape(-1)
    diff = np.abs(flat[:, None] - flat[None, :])
    return max(0.0, float((diff - 2.0 * dpos).max()))


def pos_continuity(D, V):
    return verify._violation_pos_continuity(
        SimpleNamespace(matrix=D), {"k": V.ndim - 1}, [SimpleNamespace(top=V)], None)


_tied = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def distances_and_values(draw):
    P = draw(st.integers(1, 6))
    k = draw(st.integers(1, 2))
    entry = st.one_of(_tied, st.floats(0.0, 4.0))
    D = np.array(draw(st.lists(entry, min_size=P * P, max_size=P * P)))
    D = D.reshape(P, P)
    if draw(st.booleans()):  # symmetric with a zero diagonal, like a net
        D = np.triu(D, 1) + np.triu(D, 1).T
    if draw(st.booleans()):  # values unrelated to D: violations are positive
        value = st.one_of(_tied, st.floats(-4.0, 4.0))
        V = np.array(draw(st.lists(value, min_size=P ** (k + 1),
                                   max_size=P ** (k + 1))))
        V = V.reshape((P,) * (k + 1))
    else:  # the robber-to-cops distance under D, as in a base layer
        V = np.full((P,) * (k + 1), np.inf)
        for j in range(1, k + 1):
            V = np.minimum(V, D.reshape([P if a in (0, j) else 1 for a in range(k + 1)]))
    return D, V


@settings(max_examples=300, deadline=None)
@given(distances_and_values())
def test_pos_continuity_equals_pairwise_matrix(case):
    D, V = case
    assert pos_continuity(D, V) == pairwise_pos_continuity(D, V)


def test_blocked_pos_continuity_equals_pairwise_matrix_at_k2():
    # a 1728-entry layer: blocks of 4 start tuples, so the block cap applies
    net = build_net(make_cycle(3.0), 0.25)
    assert net.size == 12
    plain = solve_finite(net, 2, [0.25, 0.5])
    per = verify.POS_BLOCK_ENTRIES // plain.top.size
    assert 1 < per < plain.top.size
    noisy = plain.top + np.random.default_rng(0).uniform(-0.5, 0.5, plain.top.shape)
    for V in (plain.top, noisy):
        assert pos_continuity(net.matrix, V) == pairwise_pos_continuity(net.matrix, V)
    assert pos_continuity(net.matrix, noisy) > 0.0


def test_pos_continuity_reports_a_positive_violation():
    D = np.array([[0.0, 0.25], [0.25, 0.0]])
    V = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert pos_continuity(D, V) == pairwise_pos_continuity(D, V) == 0.5


def test_empty_pack_error():
    with pytest.raises(ConfigError):
        run_suite([])


# ---------------------------------------------------------------------------
# minmax gap probe


def test_probe_identity_coarse_gap_zero():
    net = build_net(make_cycle(2.0), 0.25)
    res = minmax_gap_probe(net, 1, [0.25] * 4, coarse=net)
    assert res.gap == 0.0


def test_probe_interval_everything_captured():
    net = build_net(make_interval(1.0), 0.25)
    coarse = build_net(make_interval(1.0), 0.5)
    res = minmax_gap_probe(net, 1, [0.5] * 4, coarse=coarse)
    assert res.gap == 0.0
    assert res.upper.max() == 0.0


def test_probe_cycle_gap_within_bound():
    space = make_cycle(4.0)
    fine = build_net(space, 0.25)
    coarse = build_net(space, 0.5)
    eps = 0.25
    res = minmax_gap_probe(fine, 1, [0.5] * 8, coarse=coarse)
    assert 0.0 <= res.gap <= 4 * eps
    assert (res.upper >= res.lower - 1e-12).all()


def test_probe_playouts_stay_on_net_indices(monkeypatch):
    space = make_cycle(4.0)
    fine = build_net(space, 0.25)
    coarse = build_net(space, 0.5)
    want = minmax_gap_probe(fine, 1, [0.5] * 8, coarse=coarse)
    calls = []
    nearest_index = Net.nearest_index

    def counted(self, point):
        calls.append(point)
        return nearest_index(self, point)

    monkeypatch.setattr(Net, "nearest_index", counted)
    got = minmax_gap_probe(fine, 1, [0.5] * 8, coarse=coarse)
    # one call per coarse point, to map the coarse net onto the fine one;
    # the playouts never snap a point to the net
    assert len(calls) == coarse.size
    assert np.array_equal(got.upper, want.upper)
    assert np.array_equal(got.lower, want.lower)


def test_lifted_moves_take_the_first_closest_point_of_the_reach_list():
    # on a cycle of length 4 a point and its antipode tie at every target
    net = build_net(make_cycle(4.0), 0.25)
    fine_of = sorted(verify._coarse_to_fine(net, build_net(net.space, 0.5)))
    taus = [0.5, 0.25, 1.0]
    table = solve_finite(verify._subnet(net, fine_of), 1, taus, store_policy=True)
    lifted = verify._LiftedPolicy(net, fine_of, table)
    curs, targets = np.indices((net.size, net.size)).reshape(2, -1)
    for m in range(1, len(taus) + 1):
        rs = reach_set(net, taus[len(taus) - m])
        got = lifted._advance(m, curs, targets)
        for cur, target, move in zip(curs, targets, got):
            reach = rs.indices[rs.indptr[cur]:rs.indptr[cur + 1]]
            want = int(reach[np.argmin(net.matrix[reach, target])])
            assert move == want


def _half_units(values):
    """Rows of a (5, 5, 5) table of multiples of 0.5 as digit strings, one
    string per robber index."""
    assert np.array_equal(values * 2, np.round(values * 2))
    return ["".join(str(int(v * 2)) for v in row.flat) for row in values]


@pytest.mark.parametrize("taus,upper,lower,gap", [
    ([0.5] * 3, [
        "0000004023000000202203023",
        "4032000000303202022000000",
        "1000003012000000101102012",
        "2010002001101000000001001",
        "3021001000202101011000000",
    ], [
        "0000001000000000000000000",
        "1000000000000000000000000",
        "0000001000000000000000000",
        "0000000000000000000000000",
        "1000000000000000000000000",
    ], 1.5),
    # a long first step: the lifted moves must use each step's own budget
    ([1.0, 0.5, 0.5], [
        "0000002002000000000002002",
        "2020000000202000000000000",
        "0000002002000000000002002",
        "0000002001000000000001001",
        "2020000000202000000000000",
    ], ["0" * 25] * 5, 1.0),
], ids=["uniform", "long-first-step"])
def test_probe_lifts_two_cops(taus, upper, lower, gap):
    # interval of length 2 at spacing 0.5, lifted from its 3-point 1.0-net
    fine = build_net(make_interval(2.0), 0.5)
    coarse = build_net(make_interval(2.0), 1.0)
    res = minmax_gap_probe(fine, 2, taus, coarse=coarse)
    assert _half_units(res.upper) == upper
    assert _half_units(res.lower) == lower
    assert res.gap == gap


def per_tuple_probe(net, k, taus, coarse):
    """``upper`` and ``lower`` as the probe first computed them: one
    ``policy_playout`` per start tuple and side, scored by ``trajectory_value``."""
    fine_of = sorted(verify._coarse_to_fine(net, coarse))
    fine = solve_finite(net, k, taus, store_policy=True)
    lifted = verify._LiftedPolicy(
        net, fine_of, solve_finite(verify._subnet(net, fine_of), k, taus, store_policy=True))
    upper, lower = np.empty((net.size,) * (k + 1)), np.empty((net.size,) * (k + 1))
    for tup in itertools.product(range(net.size), repeat=k + 1):
        upper[tup] = trajectory_value(policy_playout(net, fine, lifted, tup, taus))
        lower[tup] = trajectory_value(policy_playout(net, lifted, fine, tup, taus))
    return upper, lower


@pytest.mark.parametrize("space,h,coarse_h,k,taus", [
    (make_cycle(4.0), 0.25, 0.5, 1, [0.5, 0.25, 0.5]),
    (make_cycle(2.0), 0.25, 0.5, 2, [0.5, 0.25, 0.5]),
    (make_interval(2.0), 0.5, 1.0, 2, [1.0, 0.5, 0.5]),
    (BallSpace(2), 0.9, 0.9, 1, [0.9, 0.9, 0.9]),
], ids=["cycle-k1", "cycle-k2", "interval-k2", "ball"])
def test_batched_probe_equals_per_tuple_playouts(space, h, coarse_h, k, taus):
    net = build_net(space, h)
    coarse = net if coarse_h == h else build_net(space, coarse_h)
    res = minmax_gap_probe(net, k, taus, coarse=coarse)
    upper, lower = per_tuple_probe(net, k, taus, coarse)
    assert np.array_equal(res.upper, upper) and np.array_equal(res.lower, lower)
    # some plays end in a capture from a start that is not one
    start = solve_finite(net, k, []).top
    assert ((upper == 0.0) & (start > 0.0)).any() or ((lower == 0.0) & (start > 0.0)).any()


def test_ball_probe_values_are_distances_not_matrix_entries():
    built = build_net(BallSpace(2), 0.9)
    d = np.array([[built.space.distance(p, q) for q in built.points] for p in built.points])
    # a matrix one ulp above every positive distance, so that the two sources
    # disagree on every OpenBLAS kernel, not only where their roundings differ
    net = Net(built.space, built.points, built.h, np.where(d > 0, np.nextafter(d, np.inf), d))
    pairs = [(i, j) for i in range(net.size) for j in range(net.size)
             if net.matrix[i, j] != net.space.distance(net.points[i], net.points[j])]
    assert pairs
    res = minmax_gap_probe(net, 1, [0.0], coarse=net)
    for i, j in pairs:  # zero steps: each play stays at its start
        assert res.upper[i, j] == net.space.distance(net.points[i], net.points[j])


class _Teleporter:
    """A robber source in index arrays that jumps to the antipode of a
    cycle net from the starts ``where(robber, cops)`` picks, else stays."""

    def __init__(self, size, where):
        self.N, self.size, self.where = 2, size, where

    def robber_move(self, m, tup):
        return np.where(self.where(tup[0], tup[1]), (tup[0] + self.size // 2) % self.size, tup[0])


def test_batched_playout_rejects_teleports_from_uncaptured_starts():
    net = build_net(make_cycle(2.0), 0.25)
    taus = [0.25, 0.25]
    table = solve_finite(net, 1, taus, store_policy=True)
    gaps = net.matrix.copy()
    # jumps from captured starts only: those plays ended, so no move is checked
    captured = _Teleporter(net.size, lambda r, c: r == c)
    values = verify._playout_values(net, captured, table, 1, taus, gaps)
    assert (values.reshape(net.size, net.size).diagonal() == 0.0).all()
    with pytest.raises(PlayoutError, match="budget") as err:
        verify._playout_values(net, _Teleporter(net.size, lambda r, c: r == 3),
                               table, 1, taus, gaps)
    assert err.value.position[0] == 3 and err.value.step == 1


def test_probe_rejects_foreign_coarse():
    fine = build_net(make_cycle(2.0), 0.25)
    alien = build_net(make_cycle(2.0), 0.35)  # 1/3 offsets, not on the fine grid
    with pytest.raises(ConfigError):
        minmax_gap_probe(fine, 1, [0.5] * 2, coarse=alien)


def test_probe_rejects_coarse_net_of_another_space():
    # the interval net's points (0, 0.0), (0, 0.5), (0, 1.0) read as ball points
    fine = build_net(BallSpace(2), 0.5)
    other = build_net(make_interval(1.0), 0.5)
    assert (fine.size, other.size) == (25, 3)
    with pytest.raises(ConfigError, match="another space"):
        minmax_gap_probe(fine, 1, [0.5] * 2, coarse=other)


# ---------------------------------------------------------------------------
# oracle helpers


def reference_exhaustive_value(net, k, taus, r, cops):
    """The unpruned oracle: full minimax over the game tree."""
    D = net.matrix
    P = net.size
    taus = list(taus)
    slack = 1e-12

    def reach(i, t):
        return [j for j in range(P) if D[i, j] <= t + slack]

    def rec(r, cops, m):
        if m == 0:
            return min(D[r, c] for c in cops)
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
        return best

    return rec(int(r), tuple(int(c) for c in cops), len(taus))


def assert_oracle_equals_reference(net, k, taus, tuples):
    for tup in tuples:
        want = reference_exhaustive_value(net, k, taus, tup[0], tup[1:])
        got = exhaustive_value(net, taus, tup[0], tup[1:])
        assert got == want and np.signbit(got) == np.signbit(want), (tup, got, want)


@pytest.mark.parametrize("seed", [0, 11])
def test_pruned_oracle_equals_reference_on_random_instances(seed):
    for net, k, taus in random_oracle_instances(20, seed=seed):
        assert_oracle_equals_reference(
            net, k, taus, itertools.product(range(net.size), repeat=k + 1))


@pytest.mark.parametrize("inst", default_pack(), ids=lambda inst: inst["name"])
def test_pruned_oracle_equals_reference_on_default_pack(inst):
    # instances without an oracle horizon are searched two steps deep
    net = build_net(space_from_config(inst["space"]), inst["h"])
    k = inst["k"]
    assert_oracle_equals_reference(
        net, k, inst["taus"][:inst.get("oracle_N", 2)],
        itertools.product(range(net.size), repeat=k + 1))


@st.composite
def tied_oracle_games(draw):
    """Symmetric matrices over {0, 0.5, 1, 1.5} with a zero diagonal, steps
    from {0, 0.5, 1} (zero-length steps included) and one start tuple; at
    most 15 625 leaves per tree."""
    P = draw(st.integers(1, 5))
    k = draw(st.integers(1, 2))
    N = draw(st.integers(1, 3 if k == 1 else 2))
    half = st.sampled_from([0.0, 0.5, 1.0, 1.5])
    matrix = np.zeros((P, P))
    for i, j in itertools.combinations(range(P), 2):
        matrix[i, j] = matrix[j, i] = draw(half)
    taus = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=N, max_size=N))
    tup = draw(st.tuples(*[st.integers(0, P - 1)] * (k + 1)))
    return Net(None, list(range(P)), 0.5, matrix), k, taus, tup


@given(tied_oracle_games())
@settings(max_examples=300, deadline=None)
def test_pruned_oracle_equals_reference_on_tied_matrices(game):
    net, k, taus, tup = game
    assert_oracle_equals_reference(net, k, taus, [tup])


@pytest.mark.parametrize("space,h,k,taus", [
    (BallSpace(2), 0.9, 1, [0.9, 0.9]),
    (SphereSpace(2), 1.2, 1, [1.2, 1.2]),
    (ProductSpace(make_interval(1.0), 0.5), 0.5, 1, [0.5, 0.5]),
    (make_cycle(2.0), 0.5, 2, [0.5, 0.5]),
], ids=["ball", "icosphere", "product", "cycle-k2"])
def test_oracle_with_passed_lists_equals_oracle_without_and_reference(space, h, k, taus):
    net = build_net(space, h)
    assert net.size <= 12
    lists = verify._oracle_lists(net, taus)
    for tup in itertools.product(range(net.size), repeat=k + 1):
        want = reference_exhaustive_value(net, k, taus, tup[0], tup[1:])
        alone = exhaustive_value(net, taus, tup[0], tup[1:])
        passed = exhaustive_value(net, taus, tup[0], tup[1:], lists=lists)
        for got in (alone, passed):
            assert got == want and np.signbit(got) == np.signbit(want), (tup, got, want)


@pytest.mark.parametrize("r,cops", [
    (-1, (0,)),  # a negative robber index
    (0, (3,)),   # a cop index past the net
    (0, ()),     # no cop
], ids=["negative-robber", "cop-past-the-net", "no-cop"])
def test_exhaustive_value_rejects_bad_arguments(r, cops):
    net = build_net(make_interval(1.0), 0.5)
    assert net.size == 3
    with pytest.raises(ValueError):
        exhaustive_value(net, [0.5], r, cops)


@pytest.mark.parametrize("k", [1, 2])
def test_oracle_without_steps_is_the_start_distance(k):
    net = build_net(make_cycle(2.0), 0.5)
    start = solve_finite(net, k, []).top
    for tup in itertools.product(range(net.size), repeat=k + 1):
        assert exhaustive_value(net, [], tup[0], tup[1:]) == start[tup]


def test_exhaustive_matches_solver_on_randomized_instances():
    for net, k, taus in random_oracle_instances(5, seed=11):
        table = solve_finite(net, k, taus)
        for tup in np.ndindex(*table.top.shape):
            assert table.top[tup] == exhaustive_value(net, taus, tup[0], tup[1:])


def test_random_instances_respect_caps():
    instances = random_oracle_instances(8, seed=2)
    assert len(instances) == 8
    for net, k, taus in instances:
        assert net.size <= 6
        assert 1 <= k <= 2
        assert 1 <= len(taus) <= 3


def test_random_instances_deterministic():
    a = random_oracle_instances(4, seed=9)
    b = random_oracle_instances(4, seed=9)
    for (na, ka, ta), (nb, kb, tb) in zip(a, b):
        assert ka == kb and ta == tb
        assert np.array_equal(na.matrix, nb.matrix)
