import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuit.errors import ConfigError
from pursuit.game import (
    Agility,
    Position,
    Trajectory,
    agility_from_config,
    robber_cop_distance,
    subdivide,
    trajectory_value,
)

from conftest import cycle_point

# ---------------------------------------------------------------------------
# positions


def test_robber_cop_distance_min_over_cops(interval):
    p = Position((0, 1.0), [(0, 0.0), (0, 0.5)])
    assert robber_cop_distance(interval, p) == 0.5


def test_position_needs_a_cop():
    with pytest.raises(ConfigError):
        Position((0, 0.0), [])


# ---------------------------------------------------------------------------
# agility: accessors and flags


def test_agility_kinds_accessor():
    assert Agility.uniform(0.25).tau(7) == 0.25
    assert Agility.explicit([3.0, 2.0, 1.0]).tau(2) == 2.0
    assert Agility.geometric(1.0, 0.5).tau(3) == 0.25
    assert Agility.harmonic(2.0).tau(4) == 0.5


def test_agility_sigma0_flags():
    assert Agility.uniform(1.0).in_sigma0
    assert Agility.harmonic(1.0).in_sigma0
    assert not Agility.geometric(1.0, 0.5).in_sigma0
    assert not Agility.explicit([1.0, 1.0]).in_sigma0  # finite, no claim


def test_agility_decreasing():
    assert Agility.harmonic(1.0).is_decreasing(10)
    assert Agility.geometric(1.0, 0.9).is_decreasing(10)
    assert not Agility.uniform(1.0).is_decreasing(5)
    assert not Agility.explicit([1.0, 2.0]).is_decreasing(2)


def test_agility_validation():
    with pytest.raises(ConfigError):
        Agility.explicit([])
    with pytest.raises(ConfigError):
        Agility.uniform(0.0)
    with pytest.raises(ConfigError):
        Agility.geometric(1.0, 1.5)
    with pytest.raises(ConfigError):
        agility_from_config({"kind": "mystery"})


@pytest.mark.parametrize("cfg", [
    {"kind": "uniform", "t": 10**400},
    {"kind": "explicit", "steps": [1.0, 10**400]},
])
def test_agility_rejects_numbers_past_the_float_range(cfg):
    # json reads a long integer literal as an int, which float() cannot take
    with pytest.raises(ConfigError, match="too large to convert to float"):
        agility_from_config(cfg)


def test_agility_config_round_trip():
    for cfg in (
        {"kind": "uniform", "t": 0.25},
        {"kind": "explicit", "steps": [1.0, 0.5]},
        {"kind": "harmonic", "a": 1.0},
        {"kind": "geometric", "a": 1.0, "rho": 0.5},
    ):
        ag = agility_from_config(cfg)
        assert agility_from_config(ag.describe()).prefix(2) == ag.prefix(2)


# ---------------------------------------------------------------------------
# subdivide


def test_subdivide_basic_rule():
    # splitting step 1 of (1,1) at alpha=1/2 gives (0.5, 0.5, 1)
    out = subdivide(Agility.explicit([1.0, 1.0]), 1, 0.5)
    assert out.prefix(3) == [0.5, 0.5, 1.0]


def test_subdivide_boundary_alpha():
    tau = Agility.explicit([1.0, 2.0])
    out = subdivide(tau, 1, 1.0)
    assert out.kind == "explicit" and out.length == 3
    assert out.prefix(3) == [1.0, 0.0, 2.0]
    assert not out.in_sigma0
    out0 = subdivide(Agility.explicit([1.0, 1.0, 1.0]), 2, 0.0)
    assert out0.prefix(4) == [1.0, 0.0, 1.0, 1.0]
    with pytest.raises(ConfigError):
        subdivide(Agility.uniform(1.0), 2, 0.0)


def test_subdivide_four_case_rule():
    # oracle: apply the four-case rule to uniform(1) truncated to 3 steps
    tau = Agility.explicit(Agility.uniform(1.0).prefix(3))
    out = subdivide(tau, 2, 0.25)
    assert out.prefix(4) == [1.0, 0.25, 0.75, 1.0]


def test_subdivide_index_error():
    with pytest.raises(IndexError):
        subdivide(Agility.explicit([1.0, 1.0]), 3, 0.5)
    with pytest.raises(IndexError):
        subdivide(Agility.explicit([1.0]), 0, 0.5)


@given(
    vals=st.lists(st.floats(min_value=0.125, max_value=4.0), min_size=1, max_size=6),
    i=st.integers(min_value=1, max_value=6),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_subdivide_preserves_total(vals, i, alpha):
    i = 1 + (i - 1) % len(vals)
    tau = Agility.explicit(vals)
    out = subdivide(tau, i, alpha)
    assert sum(out.prefix(len(vals) + 1)) == pytest.approx(sum(tau.prefix(len(vals))), abs=1e-12)


# ---------------------------------------------------------------------------
# trajectory value


def _traj_from_gaps(space, gaps):
    traj = Trajectory(space)
    for n, g in enumerate(gaps):
        pos = Position(cycle_point(space, g), [cycle_point(space, 0.0)])
        traj.append(pos, 0.0 if n == 0 else 0.5)
    return traj


def test_trajectory_value_capture(cycle2):
    traj = _traj_from_gaps(cycle2, [1.0, 0.5])
    traj.captured = True
    traj.capture_step = 1
    assert trajectory_value(traj) == 0.0


def test_trajectory_value_single_position(interval):
    traj = Trajectory(interval)
    traj.append(Position((0, 1.0), [(0, 0.0)]), 0.0)
    assert trajectory_value(traj) == 1.0


def test_trajectory_value_min_of_gaps(cycle2):
    traj = _traj_from_gaps(cycle2, [1.0, 0.5, 0.5, 0.5])
    assert trajectory_value(traj) == pytest.approx(0.5, abs=1e-12)


def test_trajectory_value_monotone_under_extension(cycle2):
    gaps = [1.0, 0.8, 0.9, 0.4, 0.7]
    values = []
    for n in range(1, len(gaps) + 1):
        values.append(trajectory_value(_traj_from_gaps(cycle2, gaps[:n])))
    assert all(b <= a for a, b in zip(values[:-1], values[1:]))
