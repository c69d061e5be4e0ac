"""Continuous strategies executed on the true space (not the net).

A strategy is a move function, a step-length-dependent Markov rule: it
sees the current position, the step duration and the step index, and
returns destination point(s) within the travel budget.  ``run_game``
alternates moves with the robber first, revealing his destination before
the cops move, and records the trajectory.

Built-in strategies keep a relative 1e-12 safety margin below the budget
so that floating-point rounding can never trip the budget validator; a
move that should exactly reach a target still snaps onto it whenever the
measured distance is within the documented 1e-9 compliance tolerance.
``run_game`` validates the start (through its first gap) and every move
(through its budget check), so built-in strategies query the space with
``_distance``/``_step`` and the batch queries, which skip validation.
"""

from __future__ import annotations

import csv
import functools
import json
import math

import numpy as np

from .errors import CapacityError, StrategyFaultError, UnknownStrategyError
from .game import Agility, Position, Trajectory
from .spaces import (DEFAULT_POINT_BUDGET, BallSpace, ProductSpace, Space, SphereSpace,
                     _norm, lp_remainder)

BUDGET_TOL = 1e-9
TRAVEL_GUARD = 1e-12


def _guarded(t: float) -> float:
    return t * (1.0 - TRAVEL_GUARD)


def _reach_or_step(space: Space, frm, target, t: float):
    """Snap onto ``target`` when it is within the budget tolerance,
    otherwise advance the guarded budget along the geodesic."""
    if space._distance(frm, target) <= t + BUDGET_TOL:
        return target
    return space._step(frm, target, _guarded(t))


def _each_cop(chase):
    """The cops' move function that moves each cop to ``chase(cop, robber, t)``."""

    def move(pos: Position, t: float, n: int):
        return tuple(chase(c, pos.robber, t) for c in pos.cops)

    return move


# ---------------------------------------------------------------------------
# built-in strategies: each ``make_*`` returns the move callable, and
# ``_CATALOG`` alone gives the strategy's name and side


def make_follower_cop(space: Space):
    """Each cop moves straight toward the revealed robber position along a
    geodesic, covering min(t, distance); the gap never increases."""
    return _each_cop(lambda c, robber, t: _reach_or_step(space, c, robber, t))


def make_stand_still_cops(space: Space):
    """Cops that never move (baseline opponent)."""
    return _each_cop(lambda c, robber, t: c)


def make_stand_still_robber(space: Space):
    """Robber that never moves (baseline opponent)."""

    def move(pos: Position, t: float, n: int):
        return pos.robber

    return move


def make_antipodal_robber(space: Space):
    """Sphere evader: head for the point antipodal to the nearest cop,
    snapping onto it exactly whenever it is reachable this step."""
    if not isinstance(space, SphereSpace):
        raise UnknownStrategyError("antipodal_robber needs a sphere space")

    def move(pos: Position, t: float, n: int):
        dists = [space._distance(pos.robber, c) for c in pos.cops]
        nearest = pos.cops[int(np.argmin(dists))]
        target = -np.asarray(nearest, dtype=float)
        return _reach_or_step(space, pos.robber, target, t)

    return move


def make_radial_cop(space: Space):
    """Ball pursuer: if a point of the center-to-robber segment is within
    reach, take the one closest to the robber; otherwise move straight
    toward the center."""
    if not isinstance(space, BallSpace):
        raise UnknownStrategyError("radial_cop needs a ball space")

    def chase_one(c, robber, t):
        c = np.asarray(c, float)
        r = np.asarray(robber, float)
        t_eff = _guarded(t)
        rn = _norm(r)
        if rn == 0.0:
            target = np.zeros(space.dimension)
            return _reach_or_step(space, c, target, t)
        rhat = r / rn
        proj = float(np.dot(rhat, c))
        disc = proj * proj - (float(np.dot(c, c)) - t_eff * t_eff)
        if disc >= 0.0:
            root = np.sqrt(disc)
            lo, hi = max(0.0, proj - root), min(rn, proj + root)
            if lo <= hi:
                return hi * rhat
        return space._step(c, np.zeros(space.dimension), t_eff)

    return _each_cop(chase_one)


def lift_slope(p: float, eps: float) -> float:
    """Smallest practical slope T with T - (T^p - 1)^(1/p) < eps (p > 1)."""
    if p <= 1:
        raise UnknownStrategyError("cylinder lift needs exponent p > 1")
    if eps <= 0:
        raise UnknownStrategyError("cylinder lift needs eps > 0")
    if p == 2.0:
        T = (1.0 + eps * eps) / (2.0 * eps)
    else:
        def slack(T):
            return T - lp_remainder(p, T, 1.0)

        lo, hi = 1.0, 2.0
        while slack(hi) >= eps:
            hi *= 2.0
        if slack(hi) == -math.inf:  # T^p passed the float range first
            raise UnknownStrategyError(f"cylinder lift: eps {eps} is too small for p = {p}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slack(mid) >= eps:
                lo = mid
            else:
                hi = mid
        T = hi
    return T * (1.0 + 1e-9)


def make_cylinder_lift_cop(space: Space, eps: float = 0.1):
    """Product-space pursuer: follows the robber's base coordinate while
    climbing the fiber at a constant slope, chosen so the climb costs less
    than ``eps`` extra path length per unit of fiber gained."""
    if not isinstance(space, ProductSpace):
        raise UnknownStrategyError("cylinder_lift_cop needs a product space")
    slope = lift_slope(space.p, eps)

    def chase_one(c, robber, t):
        t_eff = _guarded(t)
        fiber_gap = float(robber[1]) - float(c[1])
        climb = min(t_eff / slope, abs(fiber_gap))
        new_s = float(c[1]) + np.sign(fiber_gap) * climb
        new_base = space.base._step(c[0], robber[0], lp_remainder(space.p, t_eff, climb))
        return (new_base, new_s)

    return _each_cop(chase_one)


def make_greedy_robber(space: Space, samples: int = 32, seed: int = 0):
    """Heuristic evader: probes a fixed number of sampled destinations within
    the step budget and keeps the one maximizing the distance to the nearest
    cop.  This is a plain local search, not a boundary-approach evader; it
    carries no guarantee of avoiding capture."""
    if samples < 0:
        raise UnknownStrategyError("greedy_robber needs samples >= 0")
    if samples > DEFAULT_POINT_BUDGET:  # before any step draws that many points
        raise CapacityError("greedy_robber samples", samples, DEFAULT_POINT_BUDGET)
    if seed < 0:
        raise UnknownStrategyError("greedy_robber needs seed >= 0")
    rng = np.random.default_rng(seed)

    def move(pos: Position, t: float, n: int):
        # stepping draws nothing, so drawing every target first keeps the stream;
        # the candidates are staying put, then each step in one batch
        targets = space.random_points(rng, samples)
        steps = space._steps(pos.robber, targets, np.full(samples, _guarded(t)))
        stay = min(space._distance(c, pos.robber) for c in pos.cops)
        scores = functools.reduce(np.minimum, [space._distances(c, steps) for c in pos.cops])
        best = int(np.argmax(np.concatenate(([stay], scores))))
        return pos.robber if best == 0 else space._point(steps, best - 1)

    return move


_CATALOG = {
    "follower_cop": ("cops", make_follower_cop, "no parameters"),
    "stand_still_cops": ("cops", make_stand_still_cops, "no parameters"),
    "stand_still_robber": ("robber", make_stand_still_robber, "no parameters"),
    "antipodal_robber": ("robber", make_antipodal_robber,
                         "no parameters; sphere spaces only"),
    "radial_cop": ("cops", make_radial_cop, "no parameters; ball spaces only"),
    "cylinder_lift_cop": ("cops", make_cylinder_lift_cop,
                          "eps: extra path length per unit fiber (default 0.1); "
                          "product spaces with p > 1 only"),
    "greedy_robber": ("robber", make_greedy_robber,
                      "samples: candidate moves per step (default 32, at most 20000); "
                      "seed: sampling seed (default 0)"),
}


def builtin_strategies() -> dict:
    """Catalog of named strategy constructors with parameter docs."""
    return {
        name: {"side": side, "make": make, "params": params}
        for name, (side, make, params) in _CATALOG.items()
    }


def get_strategy(space: Space, name: str, **params):
    """The move function of a built-in strategy, fresh for one game."""
    if name not in _CATALOG:
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; valid names: {sorted(_CATALOG)}"
        )
    _, make, _ = _CATALOG[name]
    return make(space, **params)


# ---------------------------------------------------------------------------
# game loop


def run_game(space: Space, robber, cops, start: Position,
             tau: Agility, N: int, kappa: float = 1e-9) -> Trajectory:
    """Play ``N`` steps on the true space: the robber moves, his destination
    is revealed, then each cop moves; stops early when some cop comes within
    ``kappa`` of the robber.

    ``robber`` and ``cops`` are move functions, such as :func:`get_strategy`
    returns.  At step ``n`` of duration ``t``, ``robber(position, t, n)``
    returns the robber's destination point, and ``cops(position, t, n)``,
    given the position with the robber already moved, returns a sequence of
    ``k`` cop destinations.  Each destination must lie within ``t`` of its
    mover; a move beyond the 1e-9 compliance tolerance, or a wrong number of
    cop moves, raises :class:`StrategyFaultError`.
    """
    if N < 1:
        raise ValueError("need at least one step")
    if not kappa >= 0:  # NaN too: no gap would ever count as a capture
        raise ValueError(f"capture radius kappa must be >= 0, got {kappa}")

    def check(side, n, t, old, new):
        for a, b in zip(old, new):
            moved = space.distance(a, b)
            if moved > t + BUDGET_TOL:
                raise StrategyFaultError(side, n, f"moved {moved} > budget {t}")

    traj = Trajectory(space)
    pos, t = start, 0.0
    for n in range(N + 1):  # n = 0 records the start
        if n:
            t = tau.tau(n)
            r_new = robber(pos, t, n)
            check("robber", n, t, [pos.robber], [r_new])
            c_new = tuple(cops(Position(r_new, pos.cops), t, n))
            if len(c_new) != pos.k:
                raise StrategyFaultError("cops", n, "wrong number of cop moves")
            check("cops", n, t, pos.cops, c_new)
            pos = Position(r_new, c_new)
        traj.append(pos, t)
        if traj.gaps[-1] <= kappa:
            traj.captured, traj.capture_step = True, n
            break
    return traj


# ---------------------------------------------------------------------------
# trajectory export


def export_trajectory_jsonl(traj: Trajectory, path) -> None:
    """One JSON record per recorded step: index, duration, coordinates, gap."""
    space = traj.space
    with open(path, "w") as fh:
        for n, (pos, t, gap) in enumerate(zip(traj.positions, traj.taus, traj.gaps)):
            rec = {
                "n": n,
                "t": t,
                "robber": space.point_to_json(pos.robber),
                "cops": [space.point_to_json(c) for c in pos.cops],
                "gap": gap,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def export_gaps_csv(traj: Trajectory, path) -> None:
    """Flat n,t,gap series for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t", "gap"])
        for n, (t, gap) in enumerate(zip(traj.taus, traj.gaps)):
            writer.writerow([n, repr(t), repr(gap)])
