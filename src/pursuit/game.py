"""Game-level objects: positions, agility schedules, trajectories and the
realized game value.

An *agility* is the robber-chosen schedule of step durations: step ``n``
permits every player a move of length at most ``tau(n)``.  Schedules are
evaluated lazily through the ``tau`` accessor so that infinite families
(uniform, geometric, harmonic) stay cheap; explicit prefixes are plain
lists.  The standard admissible set contains the positive schedules with a
divergent sum; divergence is decided by kind, not by numeric summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AgilityError, ArityError
from .spaces import _num

# ---------------------------------------------------------------------------
# Positions


@dataclass(frozen=True)
class Position:
    """A (robber, cops) tuple of points on one space."""

    robber: object
    cops: tuple

    def __init__(self, robber, cops):
        object.__setattr__(self, "robber", robber)
        object.__setattr__(self, "cops", tuple(cops))
        if len(self.cops) < 1:
            raise ArityError("a position needs at least one cop")

    @property
    def k(self) -> int:
        return len(self.cops)


def robber_cop_distance(space, pos: Position) -> float:
    """min over cops of d(robber, cop) within one position."""
    return min(space.distance(pos.robber, c) for c in pos.cops)


# ---------------------------------------------------------------------------
# Agility schedules


class Agility:
    """Step-duration schedule with a 1-based accessor ``tau(n)``.

    Four kinds, each closed-form: ``explicit`` (finite list of nonnegative
    steps), ``uniform(t)``, ``geometric(a, rho)`` with ``rho < 1``
    (convergent sum, flagged as outside the standard set) and
    ``harmonic(a)`` (``a/n``).
    """

    def __init__(self, kind, *, values=None, t=None, a=None, rho=None):
        self.kind = kind
        self._values = list(values) if values is not None else None
        self._t = t
        self._a = a
        self._rho = rho
        if kind == "explicit":
            if not self._values:
                raise AgilityError("explicit agility needs at least one step")
            if any(not 0 <= v < math.inf for v in self._values):
                raise AgilityError("step durations must be finite and nonnegative")
        elif kind == "uniform":
            if t is None or not 0 < t < math.inf:
                raise AgilityError("uniform agility needs a finite t > 0")
        elif kind == "geometric":
            if a is None or not 0 < a < math.inf or rho is None or not 0 < rho < 1:
                raise AgilityError(
                    "geometric agility needs a finite a > 0 and 0 < rho < 1")
        elif kind == "harmonic":
            if a is None or not 0 < a < math.inf:
                raise AgilityError("harmonic agility needs a finite a > 0")
        else:
            raise AgilityError(f"unknown agility kind {kind!r}")

    # -- constructors

    @staticmethod
    def explicit(values) -> "Agility":
        return Agility("explicit", values=values)

    @staticmethod
    def uniform(t: float) -> "Agility":
        return Agility("uniform", t=t)

    @staticmethod
    def geometric(a: float, rho: float) -> "Agility":
        return Agility("geometric", a=a, rho=rho)

    @staticmethod
    def harmonic(a: float) -> "Agility":
        return Agility("harmonic", a=a)

    # -- accessor and views

    def tau(self, n: int) -> float:
        if n < 1:
            raise IndexError("agility steps are 1-based")
        if self.kind == "explicit":
            if n > len(self._values):
                raise IndexError(f"explicit agility has {len(self._values)} steps")
            return self._values[n - 1]
        if self.kind == "uniform":
            return self._t
        if self.kind == "geometric":
            return self._a * self._rho ** (n - 1)
        return self._a / n

    def prefix(self, n_steps: int) -> list:
        return [self.tau(n) for n in range(1, n_steps + 1)]

    @property
    def length(self):
        """Number of usable steps, or ``None`` when unbounded."""
        return len(self._values) if self.kind == "explicit" else None

    def is_decreasing(self, n_steps: int) -> bool:
        """True iff tau(n+1) < tau(n) over the tested prefix."""
        vals = self.prefix(n_steps)
        return all(b < a for a, b in zip(vals[:-1], vals[1:]))

    def is_uniform(self, n_steps: int = 2) -> bool:
        if self.kind == "uniform":
            return True
        vals = self.prefix(min(n_steps, self.length or n_steps))
        return all(v == vals[0] for v in vals)

    @property
    def in_sigma0(self) -> bool:
        """Membership in the standard set: positive with divergent sum.

        Decided by kind: uniform and harmonic diverge, geometric does not,
        finite explicit prefixes make no divergence claim.
        """
        return self.kind in ("uniform", "harmonic")

    def describe(self) -> dict:
        if self.kind == "explicit":
            return {"kind": "explicit", "steps": list(self._values)}
        if self.kind == "uniform":
            return {"kind": "uniform", "t": self._t}
        if self.kind == "geometric":
            return {"kind": "geometric", "a": self._a, "rho": self._rho}
        return {"kind": "harmonic", "a": self._a}

    def __repr__(self):
        d = self.describe()
        inner = ", ".join(f"{k}={v}" for k, v in d.items() if k != "kind")
        return f"Agility.{d['kind']}({inner})"


def agility_from_config(cfg: dict) -> Agility:
    """Parse the run-config agility description; a missing, non-numeric or
    non-finite field raises :class:`AgilityError`."""
    if not isinstance(cfg, dict):
        raise AgilityError(f"agility must be an object, not {cfg!r}")
    kind = cfg.get("kind")
    try:
        if kind == "uniform":
            return Agility.uniform(_num(cfg["t"]))
        if kind == "explicit":
            return Agility.explicit([_num(v) for v in cfg["steps"]])
        if kind == "harmonic":
            return Agility.harmonic(_num(cfg["a"]))
        if kind == "geometric":
            return Agility.geometric(_num(cfg["a"]), _num(cfg["rho"]))
    except KeyError as exc:
        raise AgilityError(f"{kind} agility needs field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, AgilityError):
            raise
        raise AgilityError(f"bad {kind} agility: {exc}") from exc
    raise AgilityError(f"unknown agility kind {kind!r}")


def subdivide(tau: Agility, i: int, alpha: float) -> Agility:
    """Split step ``i`` of an explicit schedule into consecutive pieces of
    ``alpha`` and ``1-alpha`` of its duration; later steps shift up by one.
    The result is explicit and one step longer.

    ``alpha`` in {0, 1} is allowed: the zero-length piece is kept as a step
    of duration 0.
    """
    if tau.kind != "explicit":
        raise AgilityError(f"subdivide needs an explicit schedule, not {tau!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 1 <= i <= tau.length:
        raise IndexError(f"step index {i} outside the usable range")
    vals = list(tau._values)
    piece = vals[i - 1]
    out = vals[: i - 1] + [alpha * piece, (1 - alpha) * piece] + vals[i:]
    return Agility.explicit(out)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class Trajectory:
    """Recorded play: the initial position plus the position after the cops'
    move of every completed step, with the step durations used and each
    position's gap (``robber_cop_distance``)."""

    space: object
    positions: list = field(default_factory=list)
    taus: list = field(default_factory=list)
    captured: bool = False
    capture_step: int | None = None
    _gaps: list = field(default_factory=list, repr=False)  # None until read

    def append(self, position: Position, t: float) -> None:
        self.positions.append(position)
        self.taus.append(t)
        self._gaps.append(None)

    @property
    def steps(self) -> int:
        return len(self.positions) - 1

    def gap(self, n: int) -> float:
        """Gap of position ``n``, computed on its first read, once."""
        if self._gaps[n] is None:
            self._gaps[n] = robber_cop_distance(self.space, self.positions[n])
        return self._gaps[n]

    def gaps(self) -> list:
        return [self.gap(n) for n in range(len(self.positions))]


def trajectory_value(traj: Trajectory) -> float:
    """Realized value: 0 on capture, otherwise the minimum over all recorded
    steps (including the initial position) of the robber-to-cops distance."""
    if not traj.positions:
        raise ValueError("empty trajectory")
    if traj.captured:
        return 0.0
    return min(traj.gaps())
