"""Certification suite: every solver inequality checked on small instances.

Each check solves tiny net games exhaustively and measures the worst
violation of one inequality.  The checks of an instance share one plain
(endpoint) solve of its game, with every layer kept, and no check holds an
array larger than one value layer (or, on a smaller layer, 8192 entries):

* ``L1-equality``        endpoint and running-minimum recursions coincide
* ``step-monotone``      values never increase when the horizon grows
* ``pos-continuity``     |value difference| <= 2 * position distance
* ``agility-continuity`` |value difference| <= 2 * schedule l1 distance
* ``subdivision-monotone`` splitting a step never hurts the robber
* ``volatile-sandwich``  perturbed values bracket the plain value within
                         twice the accumulated adversary radius
* ``minmax-gap``         coarse-policy cross-evaluation gap <= 4 * radius
* ``oracle-equivalence`` the layered solver equals a memoization-free
                         alpha-beta game-tree search, exact at the root

The default instance pack uses dyadic edge lengths and spacings so the
exact checks run on exactly representable arithmetic; tolerances are 0 for
the exact inequalities and 1e-9 over the stated bound for the continuity
checks (analytic-space matrices carry rounding).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CapacityError, ConfigError, MalformedPointError, PlayoutError
from .game import Agility, subdivide
from .solver import (
    REACH_SLACK,
    ValueTable,
    reach_set,
    solve_finite,
    solve_volatile,
)
from .spaces import Net, build_net, space_from_config

SUITE_NET_LIMIT = 12
SUITE_K_LIMIT = 2
SUITE_N_LIMIT = 6
SUITE_ORACLE_NODE_LIMIT = 1_000_000
CONTINUITY_TOL = 1e-9
POS_BLOCK_ENTRIES = 8192  # entries per block of pos-continuity pairs


@dataclass
class LemmaReport:
    lemma: str
    instance: str
    violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violation <= self.tolerance

    def to_json(self) -> dict:
        return asdict(self) | {"passed": self.passed}


# ---------------------------------------------------------------------------
# independent oracle


def _oracle_lists(net: Net, taus) -> tuple:
    """``net.matrix`` as lists and each step's reach lists, not from ``reach_set``."""
    D = net.matrix.tolist()
    return D, [[[j for j, d in enumerate(row) if d <= t + 1e-12] for row in D] for t in taus]


def exhaustive_value(net: Net, taus, r: int, cops, *, lists=None) -> float:
    """Memoization-free alpha-beta minimax over the net game tree from the
    robber at ``r`` and one cop at each index of ``cops`` (at least one),
    scoring the final distance; min and max are exact, so the root, searched
    with the window (-inf, inf), gets the full tree's value bit for bit.

    Kept deliberately independent of the layered solver: plain recursion over
    ``lists = _oracle_lists(net, taus)``, built here unless a caller passes them.
    """
    P = net.size
    start = (int(r), *(int(c) for c in cops))
    if len(start) < 2 or not all(0 <= i < P for i in start):
        raise ValueError(f"want a robber and at least one cop in [0, {P}), got {start}")
    D, reach = _oracle_lists(net, taus) if lists is None else lists

    def rec(r, cops, m, alpha, beta):
        if m == 0:
            return min(D[r][c] for c in cops)
        step = reach[-m]
        if m == 1:  # a min over cop tuples of each tuple's min is one over their union
            near = [c for cop in cops for c in step[cop]]
            return max(min(map(D[rn].__getitem__, near)) for rn in step[r])
        best = -math.inf
        for rn in step[r]:
            lo = max(alpha, best)
            worst = math.inf
            for cn in itertools.product(*[step[c] for c in cops]):
                v = rec(rn, cn, m - 1, lo, min(beta, worst))
                if v < worst:
                    worst = v
                    if worst <= lo:
                        break
            if worst > best:
                best = worst
                if best >= beta:
                    break
        return best

    return rec(start[0], start[1:], len(reach), -math.inf, math.inf)


# ---------------------------------------------------------------------------
# coarse-policy cross evaluation


def _coarse_to_fine(net: Net, coarse: Net) -> list:
    if coarse.space.describe() != net.space.describe():
        raise ConfigError("coarse net lies in another space than the fine net")
    try:
        return [net.index_of(p) for p in coarse.points]
    except MalformedPointError as exc:
        raise ConfigError(
            f"coarse net is not a subset of the fine net: {exc}"
        ) from exc


def _subnet(net: Net, indices) -> Net:
    pts = [net.points[i] for i in indices]
    matrix = net.matrix[np.ix_(indices, indices)].copy()
    return Net(net.space, pts, net.h, matrix, requested_h=net.h)


@dataclass
class _LiftedPolicy:
    """Coarse-net policy replayed on the fine net, in fine-net indices (ints or
    index arrays): positions round to the nearest coarse member, moves head
    for the coarse target within the step's budget."""

    net: Net
    fine_of: np.ndarray  # coarse index -> fine index, ascending
    table: ValueTable  # the coarse solve, with its moves

    def __post_init__(self):
        # fine -> coarse index of the nearest coarse member (lowest on ties)
        self.to_coarse = np.argmin(self.net.matrix[:, self.fine_of], axis=1)

    @property
    def N(self) -> int:
        return self.table.N

    def _advance(self, m: int, cur, target_fine):
        # a pad repeats cur, which the row holds earlier: the same first minimum
        rows = reach_set(self.net, float(self.table.taus[self.N - m])).rows[cur]
        best = np.argmin(self.net.matrix[rows, np.expand_dims(target_fine, -1)], axis=-1)
        return np.take_along_axis(rows, best[..., None], axis=-1)[..., 0]

    def robber_move(self, m: int, tup):
        target = self.table.robber_move(m, tuple(self.to_coarse[i] for i in tup))
        return self._advance(m, tup[0], self.fine_of[target])

    def cop_moves(self, m: int, robber_new, cops: tuple) -> tuple:
        moves = self.table.cop_moves(
            m, self.to_coarse[robber_new], tuple(self.to_coarse[c] for c in cops))
        return tuple(self._advance(m, c, self.fine_of[j])
                     for c, j in zip(cops, moves))


def _playout_values(net: Net, robber_source, cop_source, k: int, taus, gaps):
    """``trajectory_value(policy_playout(...))`` of every start tuple at once:
    0.0 once captured (on ``net.matrix``), else the running minimum of ``gaps``."""
    D, N = net.matrix, len(taus)
    r, *cops = np.indices((net.size,) * (k + 1)).reshape(k + 1, -1)
    value, free = gaps[r, cops].min(axis=0), D[r, cops].min(axis=0) > 0.0
    for n, t in enumerate(taus, 1):
        r_new = robber_source.robber_move(N - n + 1, (r, *cops))
        cops_new = cop_source.cop_moves(N - n + 1, r_new, tuple(cops))
        over = free & (D[(r, *cops), (r_new, *cops_new)] > t + REACH_SLACK).any(axis=0)
        if over.any():  # a move is checked until its play is captured
            raise PlayoutError(tuple(int(x[over.argmax()]) for x in (r, *cops)), n,
                               "move exceeds the step budget")
        r, cops = r_new, cops_new
        value = np.minimum(value, gaps[r, cops].min(axis=0))
        free &= D[r, cops].min(axis=0) > 0.0
    return np.where(free, value, 0.0).reshape((net.size,) * (k + 1))


@dataclass
class ProbeResult:
    gap: float
    upper: np.ndarray
    lower: np.ndarray


def minmax_gap_probe(net: Net, k: int, taus, coarse: Net) -> ProbeResult:
    """Cross-evaluate optimal fine-net policies against policies solved on a
    coarse net and lifted back onto the fine net, over the steps ``taus``.

    ``coarse`` must lie in the space of ``net``, and each of its points must
    be a point of ``net`` (within 1e-9), else :class:`ConfigError` is raised.
    ``upper`` plays the fine-optimal robber against the lifted cops,
    ``lower`` the lifted robber against the fine-optimal cops; the reported
    gap is the worst ``upper - lower`` over all start tuples, all played at
    once.  Contract: the gap stays within 4x the distance from a fine point
    to its nearest coarse point, plus fine-net slack; the caller checks it.
    """
    fine_of = np.array(sorted(_coarse_to_fine(net, coarse)))

    fine_policy = solve_finite(net, k, taus, store_policy=True)
    coarse_policy = solve_finite(_subnet(net, fine_of), k, taus,
                                 store_policy=True)
    lifted = _LiftedPolicy(net, fine_of, coarse_policy)
    points = net.space._batch(net.points)
    gaps = np.array([net.space._distances(p, points) for p in net.points])

    upper = _playout_values(net, fine_policy, lifted, k, taus, gaps)
    lower = _playout_values(net, lifted, fine_policy, k, taus, gaps)
    return ProbeResult(float((upper - lower).max()), upper, lower)


# ---------------------------------------------------------------------------
# lemma batteries


def _violation_l1_equality(net, inst, plain, coarse) -> float:
    b = solve_finite(net, inst["k"], inst["taus"], variant="intermediate",
                     store_layers=True)
    return max(
        float(np.abs(plain.levels[plain.layers[m]] - b.levels[b.layers[m]]).max())
        for m in range(len(inst["taus"]) + 1)
    )


def _violation_step_monotone(net, inst, plain, coarse) -> float:
    taus = inst["taus"]
    worst = 0.0
    for M in range(1, len(taus)):
        short = solve_finite(net, inst["k"], taus[:M])
        worst = max(worst, float((plain.top - short.top).max()))
    return max(0.0, worst)


def _violation_pos_continuity(net, inst, plain, coarse) -> float:
    """Worst |V(a) - V(b)| - 2 * d(a, b) over tuple pairs, where d is the
    largest coordinate distance; ``max(layer, POS_BLOCK_ENTRIES)`` pairs at a time."""
    V, D = plain.top, net.matrix
    along = [tuple(-1 if j == i else 1 for j in range(V.ndim)) for i in range(V.ndim)]
    per = max(1, POS_BLOCK_ENTRIES // V.size)
    worst = 0.0
    for lo in range(0, V.size, per):
        a = np.unravel_index(np.arange(lo, min(lo + per, V.size)), V.shape)
        dpos = functools.reduce(np.maximum, (
            D[ai].reshape(len(ai), *shape) for ai, shape in zip(a, along)))
        va = V[a].reshape(-1, *(1,) * V.ndim)  # the block's tuples on a new first axis
        worst = max(worst, float((np.abs(V - va) - 2.0 * dpos).max()))
    return worst


def _violation_agility_continuity(net, inst, plain, coarse) -> float:
    taus = inst["taus"]
    other = inst["taus_perturbed"]
    ell1 = sum(abs(a - b) for a, b in zip(taus, other))
    b = solve_finite(net, inst["k"], other)
    return max(0.0, float(np.abs(plain.top - b.top).max()) - 2.0 * ell1)


def _violation_subdivision(net, inst, plain, coarse) -> float:
    taus = inst["taus"]
    i, alpha = inst["subdivide"]
    finer = subdivide(Agility.explicit(taus), i, alpha)
    fine = solve_finite(net, inst["k"], finer.prefix(len(taus) + 1))
    return max(0.0, float((plain.top - fine.top).max()))


def _violation_volatile(net, inst, plain, coarse) -> float:
    taus = inst["taus"]
    k = inst["k"]
    N = len(taus)
    # zero radii must reproduce the plain solve exactly
    worst = 0.0
    for side in ("cop_guarantee", "robber_guarantee"):
        vol = solve_volatile(net, k, taus, [0.0] * (N + 1), side)
        worst = max(worst, float(np.abs(vol.top - plain.top).max()))
    eps = np.asarray(inst["volatile_eps"], dtype=float)
    lo = solve_volatile(net, k, taus, eps, "cop_guarantee")
    hi = solve_volatile(net, k, taus, eps, "robber_guarantee")
    d_n = float(eps[:N + 1].sum())
    d_n1 = float(eps[:N].sum())
    worst = max(worst, float(((plain.top - 2.0 * d_n) - lo.top).max()))
    worst = max(worst, float((hi.top - (plain.top + 2.0 * d_n1)).max()))
    return max(0.0, worst)


def _violation_minmax_gap(net, inst, plain, coarse) -> float:
    cfg = inst["minmax"]
    res = minmax_gap_probe(net, inst["k"], cfg["taus"], coarse)
    return max(0.0, res.gap - 4.0 * cfg["eps"])


def _violation_oracle(net, inst, plain, coarse) -> float:
    n_oracle = inst["oracle_N"]
    taus = inst["taus"][:n_oracle]
    table = plain if len(taus) == len(inst["taus"]) else solve_finite(net, inst["k"], taus)
    lists = _oracle_lists(net, taus)
    worst = 0.0
    for tup in itertools.product(range(net.size), repeat=inst["k"] + 1):
        expected = exhaustive_value(net, taus, tup[0], tup[1:], lists=lists)
        worst = max(worst, abs(float(table.top[tup]) - expected))
    return worst


_LEMMA_RUNNERS = {
    "L1-equality": (_violation_l1_equality, 0.0),
    "step-monotone": (_violation_step_monotone, 0.0),
    "pos-continuity": (_violation_pos_continuity, CONTINUITY_TOL),
    "agility-continuity": (_violation_agility_continuity, CONTINUITY_TOL),
    "subdivision-monotone": (_violation_subdivision, 0.0),
    "volatile-sandwich": (_violation_volatile, 0.0),
    "minmax-gap": (_violation_minmax_gap, 0.0),
    "oracle-equivalence": (_violation_oracle, 0.0),
}
LEMMA_IDS = tuple(_LEMMA_RUNNERS)


# ---------------------------------------------------------------------------
# instance pack and suite driver


def default_pack() -> list:
    """Small dyadic instances covering every check at least once."""
    interval = {"type": "metric_graph", "vertices": ["a", "b"],
                "edges": [["a", "b", "1"]]}
    cycle = {"type": "metric_graph", "vertices": ["u", "v"],
             "edges": [["u", "v", "1"], ["u", "v", "1"]]}
    star = {"type": "metric_graph", "vertices": ["c", "x", "y", "z"],
            "edges": [["c", "x", "1"], ["c", "y", "1"], ["c", "z", "1"]]}
    return [
        {
            "name": "interval-3", "space": interval, "h": 0.5, "k": 1,
            "taus": [0.5] * 4,
            "taus_perturbed": [1.0, 0.5, 0.5, 0.5],
            "subdivide": (1, 0.5),
            "volatile_eps": [0.5, 0.0, 0.0, 0.0, 0.0],
            "oracle_N": 3,
        },
        {
            "name": "cycle-4", "space": cycle, "h": 0.5, "k": 1,
            "taus": [0.5] * 4,
            "taus_perturbed": [0.5, 1.0, 0.5, 0.5],
            "subdivide": (2, 0.5),
            "volatile_eps": [0.5, 0.0, 0.0, 0.0, 0.0],
            "oracle_N": 3,
        },
        {
            "name": "cycle-4-k2", "space": cycle, "h": 0.5, "k": 2,
            "taus": [0.5] * 3,
            "taus_perturbed": [0.5, 0.5, 1.0],
            "subdivide": (1, 0.5),
            "volatile_eps": [0.5, 0.0, 0.0, 0.0],
            "oracle_N": 2,
        },
        {
            "name": "cycle-8", "space": cycle, "h": 0.25, "k": 1,
            "taus": [0.5] * 6,
            "taus_perturbed": [1.0, 0.5, 0.5, 0.5, 0.5, 0.5],
            "subdivide": (1, 0.5),
            "volatile_eps": [0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0],
            "minmax": {"coarse_h": 0.5, "eps": 0.25, "taus": [0.5] * 4},
        },
        {
            "name": "star-3", "space": star, "h": 0.5, "k": 1,
            "taus": [0.5] * 4,
            "taus_perturbed": [0.5, 0.75, 0.75, 0.5],
            "subdivide": (3, 0.5),
            "volatile_eps": [0.5, 0.5, 0.0, 0.0, 0.0],
        },
        {
            "name": "trivial-2", "space": interval, "h": 1.0, "k": 1,
            "taus": [1.0, 1.0],
            "taus_perturbed": [2.0, 1.0],
            "subdivide": (1, 0.5),
            "volatile_eps": [1.0, 0.0, 0.0],
            "oracle_N": 2,
        },
    ]


def _instance_label(inst, net) -> str:
    return (
        f"{inst['name']}[P={net.size},k={inst['k']},N={len(inst['taus'])}]"
    )


def _is_number(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _is_int(x, lo: int, hi=math.inf) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and lo <= x <= hi


def _is_steps(x, least: int, most=math.inf) -> bool:
    return (isinstance(x, (list, tuple)) and least <= len(x) <= most
            and all(_is_number(v) and v >= 0 for v in x))


def _check_instance(inst) -> None:
    """Shape checks on one pack instance, run before any net is built."""
    if not (isinstance(inst, dict) and isinstance(inst.get("name"), str)
            and "space" in inst):
        raise ConfigError(f"pack instance {inst!r} needs a name string and a space")
    h, taus, sub = inst.get("h"), inst.get("taus"), inst.get("subdivide")
    N = len(taus) if _is_steps(taus, 1) else 0
    mm = inst.get("minmax", {"coarse_h": 1.0, "eps": 0.0, "taus": [1.0]})
    checks = [
        ("h", _is_number(h) and h > 0, "a finite number > 0"),
        ("k", _is_int(inst.get("k"), 1), "an integer >= 1"),
        ("taus", N > 0, "a non-empty list of finite numbers >= 0"),
        ("taus_perturbed", _is_steps(inst.get("taus_perturbed"), N, N),
         f"a list of {N} finite numbers >= 0"),
        ("subdivide", isinstance(sub, (list, tuple)) and len(sub) == 2
         and _is_int(sub[0], 1, N) and _is_number(sub[1]) and 0 <= sub[1] <= 1,
         f"[i, alpha] with 1 <= i <= {N} and 0 <= alpha <= 1"),
        ("volatile_eps", _is_steps(inst.get("volatile_eps"), N + 1),
         f"a list of at least {N + 1} finite numbers >= 0"),
        ("oracle_N", _is_int(inst.get("oracle_N", 1), 1, N),
         f"an integer in [1, {N}]"),
        ("minmax", isinstance(mm, dict) and _is_number(mm.get("coarse_h"))
         and mm["coarse_h"] > 0 and _is_number(mm.get("eps")) and mm["eps"] >= 0
         and _is_steps(mm.get("taus"), 1),
         "an object with coarse_h > 0, one finite eps >= 0 and a taus list"),
    ]
    for key, ok, want in checks:
        if not ok:
            raise ConfigError(f"instance {inst['name']!r}: {key} must be {want}")


def _guard_instance(inst, net) -> None:
    if inst["k"] > SUITE_K_LIMIT:
        raise CapacityError("suite cop count", inst["k"], SUITE_K_LIMIT)
    if len(inst["taus"]) > SUITE_N_LIMIT:
        raise CapacityError("suite horizon", len(inst["taus"]), SUITE_N_LIMIT)
    if "minmax" in inst and len(inst["minmax"]["taus"]) > SUITE_N_LIMIT:
        raise CapacityError("suite min-max horizon", len(inst["minmax"]["taus"]),
                            SUITE_N_LIMIT)
    if "oracle_N" in inst:
        nodes = _oracle_nodes(net, inst["k"], inst["taus"][:inst["oracle_N"]])
        if nodes > SUITE_ORACLE_NODE_LIMIT:
            raise CapacityError("suite oracle tree nodes", nodes,
                                SUITE_ORACLE_NODE_LIMIT)


def _oracle_nodes(net, k: int, taus) -> int:
    """Nodes of the full game trees of all start tuples: an upper bound on
    the nodes the pruned ``exhaustive_value`` visits.

    At depth d each player independently follows one of ``paths_d(i)``
    move sequences from its start ``i``, so summed over the ``k + 1``
    start coordinates depth d has ``(sum_i paths_d(i)) ** (k + 1)`` nodes.
    """
    walks = np.eye(net.size, dtype=np.int64)  # walks[i, j]: d-step paths i -> j
    nodes = net.size ** (k + 1)
    for t in taus:
        walks = walks @ (net.matrix <= t + REACH_SLACK)
        nodes += int(walks.sum()) ** (k + 1)
    return nodes


def _run_instance(inst, net, coarse) -> list:
    label = _instance_label(inst, net)
    plain = solve_finite(net, inst["k"], inst["taus"], store_layers=True)
    reports = []
    for lemma, (runner, tol) in _LEMMA_RUNNERS.items():
        if lemma == "minmax-gap" and coarse is None:
            continue
        if lemma == "oracle-equivalence" and "oracle_N" not in inst:
            continue
        reports.append(LemmaReport(lemma, label, runner(net, inst, plain, coarse), tol))
    return reports


def run_suite(instances=None) -> list:
    """Run every applicable check on every instance; reports are ordered by
    (instance, check) and identical across runs."""
    if instances is None:
        instances = default_pack()
    if not isinstance(instances, (list, tuple)) or not instances:
        raise ConfigError("no instances: a pack needs a non-empty list of instances")
    for inst in instances:
        _check_instance(inst)
    # size guards fire before any solve; no net may exceed the suite's limit
    nets = []
    for inst in instances:
        net = build_net(space_from_config(inst["space"]), inst["h"], SUITE_NET_LIMIT)
        _guard_instance(inst, net)
        coarse = (build_net(net.space, inst["minmax"]["coarse_h"], SUITE_NET_LIMIT)
                  if "minmax" in inst else None)
        nets.append((net, coarse))
    return [r for inst, (net, coarse) in zip(instances, nets)
            for r in _run_instance(inst, net, coarse)]


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)
