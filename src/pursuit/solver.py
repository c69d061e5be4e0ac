"""Finite-game minimax solver over nets, perturbed-game bounds, limit and
standard values, policies, playouts and cop-number estimates.

Players move on net points only.  The value of the ``N``-step game is
computed by backward induction: the base layer is the robber-to-cops
distance, and each later layer applies, for the step's duration ``t``,
a min-filter over every cop axis followed by a max-filter over the robber
axis, each restricted to the points reachable within ``t``.

Layers are dense ``(P,) * (k + 1)`` arrays of ranks into ``levels``, the
net's sorted distinct distances (``Net.ranked``), since a min or a max picks
one of its inputs; results do not depend on evaluation order (pure max/min
with a fixed tie-break).
Reachability uses closed balls with a 1e-12 slack so that a step equal to
the net spacing admits the intended moves despite floating-point rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import pad_reach, pair_plan, reach_filter
from .errors import CapacityError, ConfigError, PlayoutError
from .game import Agility, Position, Trajectory

REACH_SLACK = 1e-12
DEFAULT_STATE_BUDGET = 16_777_216
STORED_BYTES_BUDGET = 2**30  # the arg tables and extra layers one finite solve keeps
MAX_AXES = 32  # the most array axes that every supported numpy allows
SUP_CHUNK = 16384  # layer entries per step of a doubling check's sup norm: two 128 KiB buffers


# ---------------------------------------------------------------------------
# reach sets


@dataclass
class ReachSet:
    """CSR lists of net indices within a closed ball of radius ``t``, padded in
    ``rows``, or read through pair extremes there if ``pairs`` (``pair_plan``)."""

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    pairs: bool = False

    @functools.cached_property
    def paired(self) -> ReachSet:
        """These lists with the pair plan as ``rows``, or this set when pairs save nothing."""
        plan = pair_plan(self.indptr, self.indices)
        return self if plan is None else ReachSet(self.indptr, self.indices, plan, True)


def reach_set(net, t: float) -> ReachSet:
    """Reach structure for radius ``t`` (cached on the net)."""
    key = float(t)
    cached = net._reach_cache.get(key)
    if cached is not None:
        return cached
    if not 0 <= key < math.inf:  # NaN too: every point must reach itself
        raise ConfigError(f"reach radius must be a finite number >= 0, got {t}")
    mask = net.matrix <= t + REACH_SLACK
    counts = mask.sum(axis=1)
    indptr = np.zeros(net.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.nonzero(mask)[1].astype(np.int64, copy=False)
    rs = ReachSet(indptr, indices, pad_reach(indptr, indices))
    net._reach_cache[key] = rs
    return rs


# ---------------------------------------------------------------------------
# tables


@dataclass
class _Ranked:
    """A layer given as ``ranks`` into the sorted ``levels`` it takes its
    values from; ``values`` is ``levels[ranks]``, decoded on first read."""

    levels: np.ndarray
    ranks: np.ndarray

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self.levels[self.ranks]

    def worst_start(self) -> float:
        # levels are sorted, so the max of ranks decodes to the max of values
        return float(self.levels[self.ranks.max()])


@dataclass
class ValueTable(_Ranked):
    """Per-layer game values over net position tuples, and the moves that
    attain them.

    ``layers[m]`` holds the value with ``m`` remaining steps as a dense
    array indexed ``[robber, cop_1, ..., cop_k]`` of ranks into ``levels``,
    the distance levels the solve swept; ``levels[layers[m]]`` decodes it.
    Layer 0 is the robber-to-cops distance ``d`` (``solve_volatile``'s
    ``cop_guarantee`` levels are ``max(d - 2*eps[N], 0)``); layer ``N`` is
    the full-horizon value, ``ranks``, and ``top`` is its decoded ``values``.
    Only layers 0 and ``N`` are retained unless the solve stored all of them.

    ``moves[m]``, filled by a solve with ``store_policy``, lists the arg
    table of every axis, in the narrowest unsigned dtype that holds the net
    index ``P - 1``: ``moves[m][0][r, c1..ck]`` is the robber's move
    and ``moves[m][j][r', c1..ck]`` is cop ``j``'s move given the robber
    already moved to ``r'`` (``robber_move`` and ``cop_moves`` read them for
    ints or index arrays).  Ties resolve to the lowest net index for the
    robber and the lexicographically smallest cop tuple.
    """

    taus: np.ndarray
    layers: dict
    moves: dict = field(default_factory=dict)

    @property
    def N(self) -> int:
        return len(self.taus)

    @property
    def top(self) -> np.ndarray:
        return self.values

    def robber_move(self, m: int, tup):
        if m not in self.moves:
            raise PlayoutError(tuple(tup), m, "no robber policy layer")
        return self.moves[m][0][tuple(tup)]

    def cop_moves(self, m: int, robber_new, cops: tuple) -> tuple:
        if m not in self.moves:
            raise PlayoutError((robber_new, *cops), m, "no cop policy layer")
        chosen = []
        for j, arg in enumerate(self.moves[m][1:]):  # cop j's argmin table
            chosen.append(arg[(robber_new, *chosen, *cops[j:])])
        return tuple(chosen)


# ---------------------------------------------------------------------------
# core solves


def max_net_points(k: int) -> int:
    """The largest net size ``P`` whose ``P ** (k + 1)`` states fit the state
    budget, found in integers (a float root can land an ulp low)."""
    if k < 1:
        raise ConfigError("need at least one cop")
    budget = DEFAULT_STATE_BUDGET
    if k + 1 >= budget.bit_length():  # 2 ** (k + 1) > budget
        return 1
    P = int(budget ** (1.0 / (k + 1)))
    while P ** (k + 1) > budget:
        P -= 1
    while (P + 1) ** (k + 1) <= budget:
        P += 1
    return P


def _states_error(P: int, k: int) -> CapacityError:
    """The error for a net of ``P`` points with ``k`` cops past the state budget."""
    # exact while it fits a float, so it is quick to form and print
    states = P ** (k + 1) if (k + 1) * math.log2(P) < 1000 else math.inf
    return CapacityError("solver states", states, DEFAULT_STATE_BUDGET)


def _check_state_budget(net, k: int) -> None:
    if net.size > max_net_points(k):
        raise _states_error(net.size, k)
    if k + 1 > MAX_AXES:  # a one-point net has one state for any k
        raise CapacityError("solver layer axes", k + 1, MAX_AXES)


def _base_layer(D, k: int) -> np.ndarray:
    """Robber-to-cops distance over all tuples: min over cop axes of ``D``."""
    P = D.shape[0]
    out = None
    for j in range(1, k + 1):
        shape = [1] * (k + 1)
        shape[0] = P
        shape[j] = P
        term = D.reshape(shape)
        out = term if out is None else np.minimum(out, term)
    return np.broadcast_to(out, (P,) * (k + 1)).copy()


def _sweep(V, rs: ReachSet, k: int, want_policy: bool = False):
    """One backward-induction step: cop min-filters on axes k..1, then the
    robber max-filter on axis 0.  Returns the next layer and the arg table
    of every axis in axis order, all None unless ``want_policy``."""
    args = [None] * (k + 1)
    for axis in range(k, -1, -1):
        V = reach_filter(V, rs.indptr, rs.indices, axis, "min" if axis else "max",
                         want_policy, rows=rs.rows, pairs=rs.pairs)
        if want_policy:
            V, args[axis] = V
    return V, args


def _solve(net, k: int, taus, eps=None, side=None, *, floor: bool = False,
           store_policy: bool = False, store_layers: bool = False) -> ValueTable:
    """The backward-induction loop of both finite solves.  Each step sweeps
    the reach of its duration, takes the running minimum with the base layer
    if ``floor``, then lets the adversary of ``side`` move every axis within
    ``eps[N - m]`` when that radius is positive; no ``eps`` means all zero."""
    _check_state_budget(net, k)
    taus = np.asarray(list(taus), dtype=float)
    N = taus.size
    eps = np.zeros(N + 1) if eps is None else np.asarray(list(eps), dtype=float)
    if not ((eps >= 0) & (eps < math.inf)).all():
        raise ConfigError("perturbation radii must be finite and nonnegative")
    if eps.size < N + 1:
        raise ConfigError(f"perturbation needs {N + 1} radii, got {eps.size}")
    # per step, k + 1 arg tables of net indices and one layer, each P^(k+1)
    # entries; 8 bytes bound a layer entry's rank dtype
    index_bytes = np.min_scalar_type(net.size - 1).itemsize
    stored = net.size ** (k + 1) * N * (index_bytes * (k + 1) * store_policy + 8 * store_layers)
    if stored > STORED_BYTES_BUDGET:
        raise CapacityError("stored table bytes", stored, STORED_BYTES_BUDGET)
    levels, ranks = net.ranked
    if side == "cop_guarantee":  # nondecreasing, so it commutes with every min and max
        levels = np.maximum(levels - 2.0 * eps[N], 0.0)  # levels >= +0.0 keep bits at eps 0
    V = base = _base_layer(ranks, k)
    layers, moves = {0: base}, {}
    adv_mode = "min" if side == "cop_guarantee" else "max"
    for m in range(1, N + 1):
        V, args = _sweep(V, reach_set(net, float(taus[N - m])), k, store_policy)
        if floor:
            V = np.minimum(base, V)
        if eps[N - m] > 0:
            adv = reach_set(net, float(eps[N - m]))
            for axis in range(k + 1):
                V = reach_filter(V, adv.indptr, adv.indices, axis, adv_mode, rows=adv.rows)
        if store_policy:
            moves[m] = args
        if store_layers or m == N:
            layers[m] = V
    return ValueTable(levels, V, taus, layers, moves)


def solve_finite(net, k: int, taus, variant: str = "endpoint", *,
                 store_policy: bool = False, store_layers: bool = False):
    """Backward-induction value of the ``N``-step net game.

    ``variant="endpoint"`` scores the final distance only; ``"intermediate"``
    additionally takes the running minimum with the current distance at
    every level.  Returns the :class:`ValueTable`; with ``store_policy``
    it also answers ``robber_move`` and ``cop_moves``.  Raises
    :class:`CapacityError` when the tables it would keep besides layers 0
    and ``N`` pass ``STORED_BYTES_BUDGET``.
    """
    if variant not in ("endpoint", "intermediate"):
        raise ConfigError(f"unknown variant {variant!r}")
    return _solve(net, k, taus, floor=variant == "intermediate",
                  store_policy=store_policy, store_layers=store_layers)


def solve_volatile(net, k: int, taus, eps, side: str) -> ValueTable:
    """Value of the net game when an adversary displaces every coordinate by
    at most ``eps[n]`` after step ``n``.

    ``eps`` holds at least ``N + 1`` finite nonnegative radii, one per
    completed step with ``eps[0]`` acting on the start; radii past ``eps[N]``
    are ignored.  ``side="cop_guarantee"`` lets the adversary help the cops
    (the base case clamps ``max(d - 2*eps[N], 0)`` and each level takes the
    worst nearby tuple); ``side="robber_guarantee"`` lets it help the
    robber.  With all radii zero both sides coincide with the endpoint solve
    exactly.
    """
    if side not in ("cop_guarantee", "robber_guarantee"):
        raise ConfigError(f"unknown side {side!r}")
    return _solve(net, k, taus, eps, side)


# ---------------------------------------------------------------------------
# limits, standard value, cop number


@dataclass
class LimitResult(_Ranked):
    """The last top layer of a horizon doubling as ``ranks`` into the net's
    distance ``levels``; ``gap`` is the last logged change."""

    achieved_N: int
    converged: bool
    log: list = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.log[-1][1] if self.log else math.inf


def _sup_change(levels, prev, V) -> float:
    """``max |levels[prev] - levels[V]|`` over all entries, +0.0 if none moved,
    taken ``SUP_CHUNK`` entries at a time with no layer-sized temporary."""
    if prev is V:
        return 0.0
    prev, V, worst = prev.reshape(-1), V.reshape(-1), 0.0
    x, y = np.empty((2, min(SUP_CHUNK, V.size)))
    for lo in range(0, V.size, SUP_CHUNK):
        a, b = x[:V.size - lo], y[:V.size - lo]  # the whole buffer but at the end
        levels.take(prev[lo:lo + SUP_CHUNK], out=a, mode="clip")  # "raise" buffers
        levels.take(V[lo:lo + SUP_CHUNK], out=b, mode="clip")
        worst = max(worst, float(np.abs(np.subtract(a, b, out=a), out=a).max()))
    return worst


def _check_doubling(N: int, N_max: int, tol: float) -> None:
    """The bounds of a horizon doubling from ``N``, checked before any solve."""
    if not tol > 0:  # NaN too: it would never stop the doubling
        raise ConfigError("tolerance must be positive")
    if N_max < N:
        raise ConfigError(f"N_max must be at least {N}, got {N_max}")


def _doubling(top, net, N: int, N_max: int, tol: float) -> LimitResult:
    """Horizon doubling: compare ``top(N)``, the ``N``-step top layer as
    ranks into the net's distance levels, at N, 2N, 4N, ... (capped at
    ``N_max``) and stop once consecutive layers differ by less than ``tol``
    in sup norm.  The caller has passed ``_check_doubling``."""
    log = []
    prev = None
    while True:
        V = top(N)
        levels = net.ranked[0]  # ranked by top(N) at the latest
        if prev is not None:
            dec = _sup_change(levels, prev, V)
            log.append((N, dec))
            if dec < tol:
                return LimitResult(levels, V, N, True, log)
        prev = V
        if N >= N_max:
            return LimitResult(levels, V, N, False, log)
        N = min(2 * N, N_max)


def limit_value(net, k: int, agility: Agility, tol: float = 1e-9,
                N_max: int = 64) -> LimitResult:
    """Long-horizon value for a fixed agility, by horizon doubling.

    Solves at N = 1, 2, 4, ... and stops when consecutive tables differ by
    less than ``tol`` in sup norm or ``N_max`` is reached; ``converged``
    is False when the last decrement still exceeded ``tol``.  The returned
    table upper-bounds the infinite-horizon net-game value only on nets
    where the value does not rise with the horizon (step-monotone, checked
    on metric graphs only); a sweep can raise it on ball and sphere nets.
    The agility must be uniform or strictly decreasing; an explicit
    schedule is checked over all its steps and caps ``N_max`` at its length.

    With a uniform agility one operator is iterated, extending a single
    layer; once a sweep returns its input unchanged, every later layer is
    that same array, so sweeping stops at this exact fixed point while the
    doubling checks and their log go on as before.
    """
    _check_state_budget(net, k)
    if agility.length is not None:  # an explicit schedule is probed whole
        N_max = min(N_max, agility.length)
        probe = N_max
    else:  # a closed-form kind keeps its shape at every step
        probe = min(N_max, 16)
    if not (agility.is_uniform(probe) or agility.is_decreasing(probe)):
        raise ConfigError("limit_value needs a uniform or decreasing agility")
    _check_doubling(1, N_max, tol)

    if agility.is_uniform(probe):
        # one operator extends one layer, over enough sweeps to pay for a pair plan
        rs = reach_set(net, agility.tau(1)).paired
        V, done, fixed = _base_layer(net.ranked[1], k), 0, False

        def top(N):
            nonlocal V, done, fixed
            while done < N and not fixed:
                U, _ = _sweep(V, rs, k)
                fixed = np.array_equal(U, V)
                V, done = U, done + 1
            return V
    else:
        def top(N):
            return solve_finite(net, k, agility.prefix(N)).ranks
    return _doubling(top, net, 1, N_max, tol)


def duration_value(net, k: int, T: float, N_start: int = 1,
                   tol: float = 1e-9, N_max: int = 64) -> LimitResult:
    """Fixed total duration ``T`` split into ever more uniform steps.

    Doubling ``N`` with ``tau = T/N`` walks a subdivision chain and stops
    when the increment drops below ``tol``.  Where subdivision-monotone
    holds (checked on metric graphs only; it can fail on ball nets), values
    are pointwise nondecreasing along the chain and the result lower-bounds
    the fixed-duration net-game value.
    """
    if T <= 0:
        raise ConfigError("duration T must be positive")
    if N_start < 1:
        raise ConfigError("N must be at least 1")
    _check_doubling(N_start, N_max, tol)

    def top(N):
        return solve_finite(net, k, [T / N] * N).ranks
    return _doubling(top, net, N_start, N_max, tol)


@dataclass
class StandardResult(_Ranked):
    """The pointwise maximum of the members' values, kept as ``ranks`` into
    the net's distance ``levels``."""

    members: list  # (agility description, LimitResult) pairs


def _family_or_default(net, family) -> list:
    """``family``, or when it is None the uniform schedules at one, two and
    four covering radii; an empty family is an error."""
    if family is None:
        return [Agility.uniform(net.h * s) for s in (1.0, 2.0, 4.0)]
    if not family:
        raise ConfigError("no instances: agility family is empty")
    return family


def standard_value(net, k: int, family=None, tol: float = 1e-9,
                   N_max: int = 64) -> StandardResult:
    """Lower bound for the standard-game value: the pointwise maximum of
    ``limit_value`` over an agility family.

    The family must sit in the standard set (positive, divergent sum) and be
    uniform or decreasing; the true supremum over all admissible schedules
    is not computable, so only this one-sided bound is reported.
    """
    family = _family_or_default(net, family)
    for ag in family:
        if not ag.in_sigma0:
            raise ConfigError(
                f"agility {ag!r} is outside the standard set (divergent sum required)"
            )
    best = None
    members = []
    for ag in family:
        res = limit_value(net, k, ag, tol, N_max)
        members.append((ag.describe(), res))
        # levels increase strictly, so the max of ranks decodes to the max of values
        best = res.ranks if best is None else np.maximum(best, res.ranks)
    return StandardResult(res.levels, best, members)


@dataclass
class CopNumberResult:
    estimate: int | None  # None means "> k_max"
    k_max: int
    theta: float
    per_k: list  # (k, worst-start value) pairs

    def label(self) -> str:
        return str(self.estimate) if self.estimate is not None else f"> {self.k_max}"


def cop_number_estimate(net, k_max: int, theta: float | None = None,
                        family=None, tol: float = 1e-9,
                        N_max: int = 64) -> CopNumberResult:
    """Smallest ``k <= k_max`` whose worst-start standard value is at most
    ``theta``; with ``theta = 0`` this estimates the capture (strong) cop
    number on the net.  Defaults ``theta`` to twice the covering radius plus
    the largest first-step length (discretization slack).
    """
    if k_max < 1:
        raise ConfigError("k_max must be at least 1")
    fam = _family_or_default(net, family)
    if theta is None:
        theta = 2.0 * net.h + max(ag.tau(1) for ag in fam)
    if not theta >= 0:  # NaN too: no worst-start value would meet it
        raise ConfigError("threshold must be nonnegative")
    per_k = []
    estimate = None
    for k in range(1, k_max + 1):
        res = standard_value(net, k, fam, tol, N_max)
        worst = res.worst_start()
        per_k.append((k, worst))
        if worst <= theta:
            estimate = k
            break
    return CopNumberResult(estimate, k_max, float(theta), per_k)


# ---------------------------------------------------------------------------
# playouts


def policy_playout(net, robber_source, cop_source, start, taus) -> Trajectory:
    """Execute one game on the net: the robber moves first, the destination
    is revealed, then the cops move; stops early on capture, when a cop
    stands on the robber's net point (distance 0).

    Each source answers in net indices, as a :class:`ValueTable` solved
    with ``store_policy`` does: it has a horizon ``N`` and answers
    ``robber_move(m, tup)`` or ``cop_moves(m, r_new, cops)`` with
    ``m = N - n + 1`` at step ``n``.  A
    move longer than the step's duration (plus the reach slack) raises
    :class:`PlayoutError`.
    """
    taus = [float(t) for t in taus]
    N = len(taus)
    for source in (robber_source, cop_source):
        if source.N < N:
            raise PlayoutError((), N, f"policy horizon {source.N} < playout {N}")
    D = net.matrix
    r, *cops = (int(i) for i in start)
    cops = tuple(cops)
    traj = Trajectory(net.space)
    for n, t in enumerate([0.0] + taus):  # n = 0 records the start
        if n:
            r_new = int(robber_source.robber_move(robber_source.N - n + 1, (r, *cops)))
            cops_new = tuple(int(c) for c in
                             cop_source.cop_moves(cop_source.N - n + 1, r_new, cops))
            if len(cops_new) != len(cops):
                raise PlayoutError((r, *cops), n, "cop move arity mismatch")
            if any(D[a, b] > t + REACH_SLACK
                   for a, b in zip((r, *cops), (r_new, *cops_new))):
                raise PlayoutError((r, *cops), n, "move exceeds the step budget")
            r, cops = r_new, cops_new
        traj.append(Position(net.points[r], [net.points[c] for c in cops]), t)
        if min(D[r, c] for c in cops) <= 0.0:
            traj.captured, traj.capture_step = True, n
            break
    return traj
