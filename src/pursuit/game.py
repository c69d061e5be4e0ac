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

from .errors import ConfigError
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
            raise ConfigError("a position needs at least one cop")

    @property
    def k(self) -> int:
        return len(self.cops)


def robber_cop_distance(space, pos: Position) -> float:
    """min over cops of d(robber, cop) within one position."""
    return min(space.distance(pos.robber, c) for c in pos.cops)


# ---------------------------------------------------------------------------
# Agility schedules


def _step_list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"steps must be a list, not {value!r}")
    return [_num(v) for v in value]


# each kind's fields, under their config names, with the parser of each
_FIELDS = {
    "explicit": {"steps": _step_list},
    "uniform": {"t": _num},
    "geometric": {"a": _num, "rho": _num},
    "harmonic": {"a": _num},
}


def _kind_fields(kind) -> dict:
    if not (isinstance(kind, str) and kind in _FIELDS):
        raise ConfigError(f"unknown agility kind {kind!r}")
    return _FIELDS[kind]


class Agility:
    """Step-duration schedule with a 1-based accessor ``tau(n)``.

    Four kinds, each closed-form: ``explicit`` (finite list of nonnegative
    ``steps``), ``uniform(t)``, ``geometric(a, rho)`` with ``rho < 1``
    (convergent sum, flagged as outside the standard set) and
    ``harmonic(a)`` (``a/n``).  ``Agility(kind, **fields)`` keeps the
    kind's fields under their config names; a missing field is None.
    """

    def __init__(self, kind, **fields):
        self.kind = kind
        self._fields = f = {name: fields.get(name) for name in _kind_fields(kind)}
        if kind == "explicit":
            f["steps"] = steps = [] if f["steps"] is None else list(f["steps"])
            if not steps:
                raise ConfigError("explicit agility needs at least one step")
            if any(not 0 <= v < math.inf for v in steps):
                raise ConfigError("step durations must be finite and nonnegative")
        elif kind == "uniform":
            if f["t"] is None or not 0 < f["t"] < math.inf:
                raise ConfigError("uniform agility needs a finite t > 0")
        elif kind == "geometric":
            a, rho = f["a"], f["rho"]
            if a is None or not 0 < a < math.inf or rho is None or not 0 < rho < 1:
                raise ConfigError("geometric agility needs a finite a > 0 and 0 < rho < 1")
        elif f["a"] is None or not 0 < f["a"] < math.inf:
            raise ConfigError("harmonic agility needs a finite a > 0")

    # -- constructors

    @staticmethod
    def explicit(steps) -> "Agility":
        return Agility("explicit", steps=steps)

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
        f = self._fields
        if self.kind == "explicit":
            if n > len(f["steps"]):
                raise IndexError(f"explicit agility has {len(f['steps'])} steps")
            return f["steps"][n - 1]
        if self.kind == "uniform":
            return f["t"]
        if self.kind == "geometric":
            return f["a"] * f["rho"] ** (n - 1)
        return f["a"] / n

    def prefix(self, n_steps: int) -> list:
        return [self.tau(n) for n in range(1, n_steps + 1)]

    @property
    def length(self):
        """Number of usable steps, or ``None`` when unbounded."""
        return len(self._fields["steps"]) if self.kind == "explicit" else None

    def is_decreasing(self, n_steps: int) -> bool:
        """True iff tau(n+1) < tau(n) over the tested prefix."""
        vals = self.prefix(n_steps)
        return all(b < a for a, b in zip(vals[:-1], vals[1:]))

    def is_uniform(self, n_steps: int = 2) -> bool:
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
        """The config object of this agility."""
        return {"kind": self.kind, **{name: list(v) if name == "steps" else v
                                      for name, v in self._fields.items()}}

    def __repr__(self):
        d = self.describe()
        inner = ", ".join(f"{k}={v}" for k, v in d.items() if k != "kind")
        return f"Agility.{d['kind']}({inner})"


def agility_from_config(cfg: dict) -> Agility:
    """Parse the run-config agility description; a missing, non-numeric or
    non-finite field raises :class:`ConfigError`."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"agility must be an object, not {cfg!r}")
    kind = cfg.get("kind")
    parsers = _kind_fields(kind)
    try:
        fields = {name: parse(cfg[name]) for name, parse in parsers.items()}
    except KeyError as exc:
        raise ConfigError(f"{kind} agility needs field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {kind} agility: {exc}") from exc
    return Agility(kind, **fields)


def subdivide(tau: Agility, i: int, alpha: float) -> Agility:
    """Split step ``i`` of an explicit schedule into consecutive pieces of
    ``alpha`` and ``1-alpha`` of its duration; later steps shift up by one.
    The result is explicit and one step longer.

    ``alpha`` in {0, 1} is allowed: the zero-length piece is kept as a step
    of duration 0.
    """
    if tau.kind != "explicit":
        raise ConfigError(f"subdivide needs an explicit schedule, not {tau!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 1 <= i <= tau.length:
        raise IndexError(f"step index {i} outside the usable range")
    vals = tau.prefix(tau.length)
    piece = vals[i - 1]
    out = vals[: i - 1] + [alpha * piece, (1 - alpha) * piece] + vals[i:]
    return Agility.explicit(out)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class Trajectory:
    """Recorded play: the initial position plus the position after the cops'
    move of every completed step, with the step durations used and each
    position's gap (``robber_cop_distance``), all three lists filled by
    ``append``."""

    space: object
    positions: list = field(default_factory=list)
    taus: list = field(default_factory=list)
    captured: bool = False
    capture_step: int | None = None
    gaps: list = field(default_factory=list)

    def append(self, position: Position, t: float) -> None:
        self.positions.append(position)
        self.taus.append(t)
        self.gaps.append(robber_cop_distance(self.space, position))

    @property
    def steps(self) -> int:
        return len(self.positions) - 1


def trajectory_value(traj: Trajectory) -> float:
    """Realized value: 0 on capture, otherwise the minimum over all recorded
    steps (including the initial position) of the robber-to-cops distance."""
    if not traj.positions:
        raise ValueError("empty trajectory")
    if traj.captured:
        return 0.0
    return min(traj.gaps)
