import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuit import cli, solver, verify
from pursuit.cli import main

CYCLE = {
    "type": "metric_graph",
    "vertices": ["u", "v"],
    "edges": [["u", "v", "1"], ["u", "v", "1"]],
}
INTERVAL = {
    "type": "metric_graph",
    "vertices": ["a", "b"],
    "edges": [["a", "b", "1"]],
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, out="out", extra=()):
    path = write_config(tmp_path, f"{command}.json", cfg)
    return main([command, "--config", path, "--out", str(tmp_path / out), *extra])


# ---------------------------------------------------------------------------
# solve


def test_solve_cycle_symmetric_values(tmp_path, capsys):
    cfg = {
        "space": CYCLE, "net_h": 0.25, "k": 1, "mode": "limit",
        "agility": {"kind": "uniform", "t": 0.25}, "horizon": {"N": 8},
    }
    assert run(tmp_path, "solve", cfg) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    values = np.asarray(result["values"]["flat"]).reshape(result["values"]["shape"])
    # rotational symmetry: the value depends only on the ring separation
    net_pts = 8
    by_gap = {}
    order = [0, 2, 3, 4, 1, 7, 6, 5]  # ring order of the net points
    for a in range(net_pts):
        for b in range(net_pts):
            sep = min((order.index(a) - order.index(b)) % 8,
                      (order.index(b) - order.index(a)) % 8)
            by_gap.setdefault(sep, set()).add(values[a, b])
    for sep, vals in by_gap.items():
        assert len(vals) == 1, f"values differ at separation {sep}"
    out = capsys.readouterr().out
    assert "worst-start value" in out


def test_solve_n0_values_equal_distance_matrix(tmp_path):
    cfg = {
        "space": INTERVAL, "net_h": 0.5, "k": 1, "mode": "finite",
        "agility": {"kind": "uniform", "t": 0.5}, "horizon": {"N": 0},
    }
    assert run(tmp_path, "solve", cfg) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    values = np.asarray(result["values"]["flat"]).reshape(result["values"]["shape"])
    expected = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
    assert np.array_equal(values, expected)


def test_solve_all_starts_enumeration(tmp_path):
    cfg = {
        "space": INTERVAL, "net_h": 0.5, "k": 1, "mode": "finite",
        "agility": {"kind": "uniform", "t": 0.5}, "horizon": {"N": 1},
        "starts": "all",
    }
    assert run(tmp_path, "solve", cfg) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    assert len(result["values"]["flat"]) == 9


def test_solve_explicit_starts_and_policy(tmp_path):
    cfg = {
        "space": INTERVAL, "net_h": 0.5, "k": 1, "mode": "finite",
        "agility": {"kind": "uniform", "t": 0.5}, "horizon": {"N": 2},
        "starts": [[1, 0]], "store_policy": True,
    }
    assert run(tmp_path, "solve", cfg) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    assert result["values"]["per_start"] == [{"start": [1, 0], "value": 0.0}]
    assert "policy" in result and "1" in result["policy"]


def test_solve_duration_mode(tmp_path):
    cfg = {
        "space": CYCLE, "net_h": 0.25, "k": 1, "mode": "limit",
        "horizon": {"N": 2, "T": 2.0}, "N_max": 16,
    }
    assert run(tmp_path, "solve", cfg) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    assert result["convergence"]


def test_solve_round_trip_reproducible(tmp_path):
    cfg = {
        "space": CYCLE, "net_h": 0.25, "k": 1, "mode": "standard",
        "agility": {"kind": "uniform", "t": 0.25}, "horizon": {"N": 4},
        "family": [{"kind": "uniform", "t": 0.25}, {"kind": "uniform", "t": 0.5}],
        "N_max": 16,
    }
    assert run(tmp_path, "solve", cfg, out="a") == 0
    first = (tmp_path / "a" / "solve_result.json").read_bytes()
    # rerun from the embedded config snapshot
    snapshot = json.loads(first)["config"]
    assert run(tmp_path, "solve", snapshot, out="b") == 0
    second = (tmp_path / "b" / "solve_result.json").read_bytes()
    assert first == second


def test_solve_config_errors(tmp_path, capsys):
    bad = {"space": CYCLE, "net_h": 0.25, "k": 1,
           "agility": {"kind": "uniform", "t": 0.25}}
    assert run(tmp_path, "solve", bad) == 2  # missing horizon
    assert "horizon" in capsys.readouterr().err
    both = {"space": CYCLE, "net_h": 0.25, "k": 1, "mode": "finite",
            "agility": {"kind": "uniform", "t": 0.25},
            "horizon": {"N": 2, "T": 1.0}}
    assert run(tmp_path, "solve", both) == 2
    tiny = {"space": CYCLE, "net_h": 1e-9, "k": 1, "mode": "finite",
            "agility": {"kind": "uniform", "t": 0.25}, "horizon": {"N": 1}}
    assert run(tmp_path, "solve", tiny) == 2  # capacity
    short = {"space": CYCLE, "net_h": 0.25, "k": 1, "mode": "finite",
             "agility": {"kind": "explicit", "steps": [0.25]},
             "horizon": {"N": 3}}
    assert run(tmp_path, "solve", short) == 2  # agility shorter than horizon
    capsys.readouterr()
    no_steps = {"space": CYCLE, "net_h": 0.25, "k": 1, "mode": "limit",
                "horizon": {"N": 0, "T": 1.0}}
    assert run(tmp_path, "solve", no_steps) == 2  # T split into zero steps
    negative = {"space": CYCLE, "net_h": 0.25, "k": 1, "mode": "finite",
                "agility": {"kind": "uniform", "t": 0.25}, "horizon": {"N": -3}}
    assert run(tmp_path, "solve", negative) == 2
    err = capsys.readouterr().err
    assert err.count("horizon.N") == 2
    for net_h in ("nan", "inf", "abc", None):
        bad_h = {"space": CYCLE, "net_h": net_h, "k": 1, "mode": "finite",
                 "agility": {"kind": "uniform", "t": 0.25}, "horizon": {"N": 1}}
        assert run(tmp_path, "solve", bad_h) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "net_h" in err[0]


@pytest.mark.parametrize("agility", [
    5,
    {"kind": "uniform"},
    {"kind": "uniform", "t": "nan"},
    {"kind": "uniform", "t": "inf"},
    {"kind": "uniform", "t": "abc"},
    {"kind": "uniform", "t": None},
    {"kind": "uniform", "t": 10**400},  # an int json reads past the float range
    {"kind": "explicit"},
    {"kind": "explicit", "steps": 5},
    {"kind": "explicit", "steps": [0.25, "nan"]},
    {"kind": "explicit", "steps": [0.25, "-inf"]},
    {"kind": "harmonic"},
    {"kind": "harmonic", "a": "inf"},
    {"kind": "geometric", "a": 1.0},
    {"kind": "geometric", "a": "nan", "rho": 0.5},
    {"kind": "geometric", "a": 1.0, "rho": "nan"},
    # steps must be a list, not a string of digits or an object's keys
    {"kind": "explicit", "steps": "12"},
    {"kind": "explicit", "steps": {"0.25": 1}},
])
def test_solve_rejects_bad_agility(tmp_path, capsys, agility):
    cfg = {"space": CYCLE, "net_h": 0.25, "k": 1, "mode": "finite",
           "agility": agility, "horizon": {"N": 1}}
    assert run(tmp_path, "solve", cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "agility" in err[0]


# 3947 points at net_h 0.0038: about 0.3 s and 150 MB to build
LONG_THETA = {"type": "metric_graph", "vertices": ["a", "b"],
              "edges": [["a", "b", "4"], ["a", "b", "5"], ["a", "b", "6"]]}
LONG_THETA_SOLVE = {"space": LONG_THETA, "net_h": 0.0038, "k": 1, "mode": "limit",
                    "agility": {"kind": "uniform", "t": 0.05}, "horizon": {"N": 1}}
LONG_THETA_COPNUMBER = {"space": LONG_THETA, "net_h": 0.0038, "k_max": 1}


@pytest.mark.parametrize("command,fields,message", [
    ("solve", {"mode": "sideways"}, "error: unknown solve mode 'sideways'"),
    ("solve", {"agility": {"kind": "mystery"}}, "error: unknown agility kind 'mystery'"),
    ("solve", {"tol": "small"}, "error: bad tol: could not convert string to float: 'small'"),
    ("copnumber", {"k_max": "two"},
     "error: bad k_max: could not convert string to float: 'two'"),
    ("copnumber", {"theta": "x"}, "error: bad theta: could not convert string to float: 'x'"),
    ("copnumber", {"family": [{"kind": "mystery"}]}, "error: unknown agility kind 'mystery'"),
])
def test_config_faults_are_reported_before_the_net_is_built(tmp_path, capsys, monkeypatch,
                                                            command, fields, message):
    def unbuilt(*args):
        raise AssertionError("build_net was called")

    monkeypatch.setattr(cli, "build_net", unbuilt)
    valid = LONG_THETA_SOLVE if command == "solve" else LONG_THETA_COPNUMBER
    with pytest.raises(AssertionError, match="build_net"):  # the fault is the only one
        run(tmp_path, command, valid)
    assert run(tmp_path, command, {**valid, **fields}) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not (tmp_path / "out").exists()


ONE_POINT = {"type": "metric_graph", "vertices": ["a"], "edges": [["a", "a", "1"]]}


def test_solve_takes_at_most_31_cops(tmp_path, capsys):
    # a one-point net has one state for any k; k + 1 axes pass numpy's 32 at k = 32
    cfg = {"space": ONE_POINT, "net_h": 2, "k": 31, "mode": "finite",
           "agility": {"kind": "uniform", "t": 1}, "horizon": {"N": 1}}
    assert run(tmp_path, "solve", cfg) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    assert result["values"]["shape"] == [1] * 32 and result["worst_start"] == 0.0
    capsys.readouterr()
    assert run(tmp_path, "solve", {**cfg, "k": 32}, out="k32") == 2
    assert capsys.readouterr().err == \
        "capacity error: solver layer axes: required 33 exceeds budget 32\n"
    assert not (tmp_path / "k32").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("where", ["ball_radius", "edge_length",
                                   "fiber_length", "product_p"])
def test_solve_rejects_non_finite_space_numbers(tmp_path, capsys, where, bad):
    spaces = {
        "ball_radius": {"type": "ball", "dimension": 2, "radius": bad},
        "edge_length": {"type": "metric_graph", "vertices": ["u", "v"],
                        "edges": [["u", "v", "1"], ["u", "v", bad]]},
        "fiber_length": {"type": "product", "base": INTERVAL,
                         "fiber_length": bad},
        "product_p": {"type": "product", "base": INTERVAL, "p": bad},
    }
    cfg = {"space": spaces[where], "net_h": 0.5, "k": 1, "mode": "finite",
           "agility": {"kind": "uniform", "t": 0.5}, "horizon": {"N": 1}}
    assert run(tmp_path, "solve", cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "finite" in err[0]


@pytest.mark.parametrize("space, net_h", [
    ({"type": "sphere", "dimension": 1}, 1e-320),
    ({"type": "metric_graph", "vertices": ["u", "v"], "edges": [["u", "v", "1e300"]]},
     1e-10),
    ({"type": "ball", "dimension": 2, "radius": "1e300"}, 1e-10),
    ({"type": "product", "base": INTERVAL, "fiber_length": "1e300"}, 1e-10),
    ({"type": "ball", "dimension": 100_000}, 0.5),
    ({"type": "ball", "dimension": 3_000_000}, 0.5),
    # the covering radius of a factor, or the ball's grid pitch, underflows to 0
    ({"type": "product", "base": INTERVAL, "p": 1}, 5e-324),
    ({"type": "ball", "dimension": 4}, 5e-324),
], ids=["circle", "edge", "ball-radius", "fiber", "ball-dim-1e5", "ball-dim-3e6",
        "factor-h", "pitch"])
def test_solve_rejects_nets_too_large_for_a_float(tmp_path, capsys, space, net_h):
    cfg = {"space": space, "net_h": net_h, "k": 1, "mode": "finite",
           "agility": {"kind": "uniform", "t": 0.5}, "horizon": {"N": 1}}
    start = time.perf_counter()
    assert run(tmp_path, "solve", cfg) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("capacity error: net points")


@pytest.mark.parametrize("command, extra", [
    ("solve", {"k": 1, "mode": "finite", "agility": {"kind": "uniform", "t": 0.25},
               "horizon": {"N": 1}}),
    ("copnumber", {"k_max": 1}),  # k = 1 is the first it solves
])
def test_nets_past_the_state_budget_fail_before_their_matrix(tmp_path, capsys, monkeypatch,
                                                            command, extra):
    from pursuit import solver, spaces
    monkeypatch.setattr(solver, "DEFAULT_STATE_BUDGET", 100)  # at k = 1, 10 points
    cfg = {"space": CYCLE, "net_h": 0.25, **extra}  # 8 points
    assert run(tmp_path, command, cfg) == 0
    capsys.readouterr()

    def no_matrix(*args):
        raise AssertionError("built the matrix")
    monkeypatch.setattr(spaces, "_row_blocks", no_matrix)
    assert run(tmp_path, command, cfg | {"net_h": 0.125}) == 2  # 16 points
    err = capsys.readouterr().err.splitlines()
    assert err == ["capacity error: solver states: required 256 exceeds budget 100"]
    # past a point budget above the cap, the point budget is named
    assert run(tmp_path, command, cfg | {"net_h": 0.125, "point_budget": 12}) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["capacity error: net points: required 16 exceeds budget 12"]


_HUGE_PRODUCT = {"type": "product", "fiber_length": "1e150", "p": "3",
                 "base": {"type": "metric_graph", "vertices": ["u", "v"],
                          "edges": [["u", "v", "1e150"]]}}
_HUGE_PATH = {"type": "metric_graph", "vertices": ["u", "v", "w"],
              "edges": [["u", "v", "1e308"], ["v", "w", "1e308"]]}
_CYLINDER_P3 = {"type": "product", "base": CYCLE, "fiber_length": "1", "p": "3"}
# u-w is 1.6e308: every vertex distance fits a float, a few net route sums do not
_LONG_PATH = {"type": "metric_graph", "vertices": ["u", "v", "w"],
              "edges": [["u", "v", "8e307"], ["v", "w", "8e307"]]}


def _lift_play(agility, params=None):
    return {"space": _CYLINDER_P3, "robber": {"name": "stand_still_robber"},
            "cops": {"name": "cylinder_lift_cop", "params": params or {}},
            "start": {"robber": [[0, 0.5], 1.0], "cops": [[[0, 0.0], 0.0]]},
            "agility": agility, "N": 2}


@pytest.mark.parametrize("command, cfg, code, err_start", [
    # a distance of the product net is past the float range
    ("solve", {"space": _HUGE_PRODUCT, "net_h": 4e149, "k": 1, "mode": "finite",
               "agility": {"kind": "uniform", "t": 1e149}, "horizon": {"N": 1}},
     2, "capacity error: net distances"),
    # the gap between the players is past it: inf
    ("play", {"space": _HUGE_PRODUCT, "robber": {"name": "stand_still_robber"},
              "cops": {"name": "follower_cop"},
              "start": {"robber": [[0, 0.0], 0.0], "cops": [[[0, 1e150], 1e150]]},
              "agility": {"kind": "uniform", "t": 1e149}, "N": 2}, 0, None),
    # no slope within eps is found before T^p passes the float range
    ("play", _lift_play({"kind": "uniform", "t": 0.25}, {"eps": 1e-300}),
     2, "error: cylinder lift"),
    # t^p of the step passes it: the base budget is inf
    ("play", _lift_play({"kind": "uniform", "t": 1e200}), 0, None),
    # the u-w distance, the sum of two edges, passes it: connected all the same
    ("solve", {"space": _HUGE_PATH, "net_h": 5e307, "k": 1, "mode": "finite",
               "agility": {"kind": "uniform", "t": 1e307}, "horizon": {"N": 1}},
     2, "error: metric graph distances pass the float range"),
    # the square of a net distance passes it (a play on that ball needs no squares)
    ("solve", {"space": {"type": "ball", "dimension": 2, "radius": "1e200"},
               "net_h": 5e199, "k": 1, "mode": "limit",
               "agility": {"kind": "uniform", "t": 1e199}, "horizon": {"N": 4}},
     2, "capacity error: net distances"),
    # the grid of a coarse net on a small ball: its squared norms pass it
    ("solve", {"space": {"type": "ball", "dimension": 2, "radius": 1}, "net_h": 1e300,
               "k": 1, "mode": "finite", "agility": {"kind": "uniform", "t": 1},
               "horizon": {"N": 1}},
     2, "capacity error: net grid norms"),
], ids=["solve-product", "play-follower", "lift-eps", "lift-step", "graph-sum",
        "ball-square", "ball-grid"])
@pytest.mark.filterwarnings("error")
def test_float_powers_past_the_range_end_without_a_traceback(tmp_path, capsys, command,
                                                             cfg, code, err_start):
    assert run(tmp_path, command, cfg) == code
    err = capsys.readouterr().err.splitlines()
    if err_start is None:
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith(err_start)


@pytest.mark.filterwarnings("error")
def test_graph_route_sums_past_the_range_keep_the_worst_start_value(tmp_path, capsys):
    cfg = {"space": _LONG_PATH, "net_h": 4e307, "k": 1, "mode": "finite",
           "agility": {"kind": "uniform", "t": 4e307}, "horizon": {"N": 1}}
    assert run(tmp_path, "solve", cfg) == 0
    out, err = capsys.readouterr()
    # the value printed when the overflow warned, before the sums were guarded
    assert err == "" and "worst-start value: 1.1999999999999999e+308" in out


@pytest.mark.parametrize("robber, value", [
    ("stand_still_robber", "1.1999116680942081e+296"),
    ("greedy_robber", "8.6777891578376635e+306"),
], ids=["stand-still", "greedy"])
@pytest.mark.filterwarnings("error")
def test_graph_plays_past_the_range_keep_their_value(tmp_path, capsys, robber, value):
    cfg = _PLAY | {"space": _LONG_PATH, "robber": {"name": robber},
                   "start": {"robber": [0, 1e307], "cops": [[1, 5e307]]},
                   "agility": {"kind": "uniform", "t": 4e307}, "N": 3}
    assert run(tmp_path, "play", cfg) == 0
    out, err = capsys.readouterr()
    # the value printed when the overflow warned, before the scalar routes were guarded
    assert err == "" and f"trajectory value: {value}" in out


_TIMED_MAIN = """import sys, time
from pursuit.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


@pytest.mark.parametrize("space, net_h, k", [
    (INTERVAL, 0.25, 10_000),
    (INTERVAL, 0.25, 10**8),
    # one net point: one state for any k, but more axes than numpy allows
    ({"type": "metric_graph", "vertices": ["u"], "edges": [["u", "u", "1"]]}, 2, 100),
], ids=["k-1e4", "k-1e8", "one-point-k-100"])
def test_solve_rejects_large_cop_counts_quickly(tmp_path, space, net_h, k):
    cfg = {"space": space, "net_h": net_h, "k": k, "mode": "finite",
           "agility": {"kind": "uniform", "t": 0.5}, "horizon": {"N": 1}}
    proc = _run_child(tmp_path, "solve", cfg)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("capacity error: solver")
    assert float(proc.stdout) < 1.0


def _run_child(tmp_path, command, cfg):
    """``main`` on ``cfg`` in a child process with a 1 GiB address space, so
    that an unbounded run times out or runs out of memory instead of hanging
    the suite or the machine; its stdout ends with the seconds ``main`` took."""
    path = write_config(tmp_path, f"{command}.json", cfg)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")  # few thread buffers under an address-space limit
    return subprocess.run(
        [sys.executable, "-c", _LIMITED_AS + _TIMED_MAIN, command, "--config", path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=30)


_LIMITED_AS = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"


def test_solve_rejects_a_horizon_past_the_byte_budget_before_its_steps(tmp_path):
    # 10**12 steps once grew agility.prefix(N) until memory ran out; under a
    # 1 GiB address space that is a MemoryError within seconds
    cfg = {"space": INTERVAL, "net_h": 0.5, "k": 1, "mode": "finite",
           "agility": {"kind": "uniform", "t": 0.5}, "horizon": {"N": 10**12}}
    proc = _run_child(tmp_path, "solve", cfg)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert err == ["capacity error: horizon.N step bytes: required 8000000000000 "
                   f"exceeds budget {solver.STORED_BYTES_BUDGET}"]
    assert float(proc.stdout) < 1.0


def test_play_rejects_steps_past_the_byte_budget_before_the_first(tmp_path):
    # 10**12 stand-still steps once ran until killed, recording every step
    cfg = {"space": INTERVAL, "robber": {"name": "stand_still_robber"},
           "cops": {"name": "stand_still_cops"},
           "start": {"robber": [0, "1"], "cops": [[0, "0"]]},
           "agility": {"kind": "uniform", "t": 0.25}, "N": 10**12}
    proc = _run_child(tmp_path, "play", cfg)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "capacity error: N recorded step bytes: required 186000000000186 "
        f"exceeds budget {solver.STORED_BYTES_BUDGET}"]
    assert float(proc.stdout) < 1.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [solver.STORED_BYTES_BUDGET // 186 - 1,
                               solver.STORED_BYTES_BUDGET // 186])
def test_play_steps_are_checked_at_186_bytes_each(tmp_path, capsys, monkeypatch, n):
    def no_game(*args):
        raise AssertionError("played")
    monkeypatch.setattr(cli, "run_game", no_game)
    cfg = _PLAY | {"N": n}
    if (n + 1) * 186 > solver.STORED_BYTES_BUDGET:
        assert run(tmp_path, "play", cfg) == 2
        assert "N recorded step bytes" in capsys.readouterr().err
    else:  # within the budget: on to the game
        with pytest.raises(AssertionError, match="played"):
            run(tmp_path, "play", cfg)


@pytest.mark.parametrize("n", [2**27, 2**27 + 1])
def test_horizon_steps_are_checked_at_eight_bytes_each(tmp_path, capsys, monkeypatch, n):
    def no_prefix(self, n_steps):
        raise AssertionError("steps listed")
    monkeypatch.setattr(cli.Agility, "prefix", no_prefix)
    cfg = _SOLVE | {"mode": "finite", "horizon": {"N": n}}
    if n * 8 > solver.STORED_BYTES_BUDGET:
        assert run(tmp_path, "solve", cfg) == 2
        assert "horizon.N step bytes" in capsys.readouterr().err
    else:  # within the budget: on to the steps
        with pytest.raises(AssertionError, match="steps listed"):
            run(tmp_path, "solve", cfg)


@pytest.mark.parametrize("vertices, edges, robber, cop", [
    # 1e17 + 1 == 1e17: the edge a-b reaches c's distance from both a and b,
    # and a predecessor table once sent c -> a through b and c -> b through a
    (["a", "b", "c"], [["c", "a", "1e17"], ["c", "b", "1e17"], ["a", "b", "1"]],
     [2, "0.5"], [0, "1"]),
    # y, at p's distance from s, is settled after p though its index is smaller
    (["s", "y", "p"], [["s", "p", "1e17"], ["p", "y", "1"]], [1, "1"], [0, 0]),
], ids=["cycle", "path"])
def test_play_on_a_graph_with_an_absorbed_edge_ends(tmp_path, vertices, edges, robber, cop):
    cfg = {"space": {"type": "metric_graph", "vertices": vertices, "edges": edges},
           "robber": {"name": "stand_still_robber"}, "cops": {"name": "follower_cop"},
           "start": {"robber": robber, "cops": [cop]},
           "agility": {"kind": "uniform", "t": 1e15}, "N": 3}
    proc = _run_child(tmp_path, "play", cfg)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("steps played: 3\n")


def test_play_on_a_graph_past_the_vertex_limit_exits_before_any_table(tmp_path):
    # the vertex table of 20 001 vertices is 3.2 GB: under a 1 GiB address
    # space its build once ended in a MemoryError traceback with exit 1
    nv = 20_001
    cfg = _PLAY | {"space": {"type": "metric_graph", "vertices": [str(i) for i in range(nv)],
                             "edges": [[str(i), str(i + 1), "1"] for i in range(nv - 1)]}}
    proc = _run_child(tmp_path, "play", cfg)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "capacity error: graph vertices: required 20001 exceeds budget 20000"]
    assert float(proc.stdout) < 1.0


_SOLVE = {"space": CYCLE, "net_h": 0.25, "k": 1, "mode": "limit",
          "agility": {"kind": "uniform", "t": 0.25}, "horizon": {"N": 1}}
_COPNUMBER = {"space": CYCLE, "net_h": 0.5, "k_max": 1,
              "family": [{"kind": "uniform", "t": 0.5}]}
_PLAY = {"space": INTERVAL, "robber": {"name": "stand_still_robber"},
         "cops": {"name": "follower_cop"},
         "start": {"robber": [0, 1.0], "cops": [[0, 0.0]]},
         "agility": {"kind": "uniform", "t": 0.25}, "N": 2}

_PACK_INSTANCE = {
    "name": "cycle-4", "space": CYCLE, "h": 0.5, "k": 1,
    "taus": [0.5, 0.5], "taus_perturbed": [1.0, 0.5],
    "subdivide": [1, 0.5], "volatile_eps": [0.5, 0.0, 0.0],
    "oracle_N": 2,
    "minmax": {"coarse_h": 1.0, "eps": 0.5, "taus": [0.5, 0.5]},
}


_BAD_NUMBERS = [
    ("solve", {"k": "x"}, "k"),
    ("solve", {"k": 2.5}, "k"),
    ("solve", {"k": 0}, "cop"),
    ("solve", {"horizon": {"N": 1, "T": "abc"}}, "horizon.T"),
    ("solve", {"horizon": {"N": 2.7}}, "horizon.N"),
    ("solve", {"horizon": {"N": "x"}}, "horizon.N"),
    ("solve", {"point_budget": "abc"}, "point_budget"),
    ("solve", {"point_budget": 10 ** 400}, "point_budget"),
    ("solve", {"tol": "abc"}, "tol"),
    ("solve", {"tol": "nan"}, "tol"),
    ("solve", {"N_max": "x"}, "N_max"),
    ("solve", {"horizon": {"N": 4, "T": 1}, "tol": -1}, "tolerance"),
    ("solve", {"horizon": {"N": 4, "T": 1}, "tol": 0}, "tolerance"),
    ("solve", {"horizon": {"N": 4, "T": 1}, "N_max": 2}, "N_max"),
    ("solve", {"N_max": 0}, "N_max"),
    ("solve", {"N_max": -3}, "N_max"),
    ("solve", {"mode": "standard", "N_max": 0}, "N_max"),
    ("solve", {"starts": 5}, "starts"),
    ("solve", {"starts": ["01"]}, "start"),
    ("solve", {"starts": [["a", 0]]}, "start"),
    ("solve", {"starts": [[0, 1.5]]}, "start"),
    ("copnumber", {"k_max": "x"}, "k_max"),
    ("copnumber", {"theta": "abc"}, "theta"),
    ("copnumber", {"theta": "inf"}, "theta"),
    ("copnumber", {"tol": None}, "tol"),
    ("copnumber", {"N_max": 1.5}, "N_max"),
    ("copnumber", {"N_max": 0}, "N_max"),
    ("copnumber", {"N_max": -3}, "N_max"),
    ("play", {"N": "x"}, "N"),
    ("play", {"N": 2.5}, "N"),
    ("play", {"kappa": "nan"}, "kappa"),
    ("play", {"N": 0}, "N"),
    ("play", {"robber": {"name": "greedy_robber", "params": {"samples": "x"}}},
     "samples"),
    ("play", {"robber": {"name": "greedy_robber", "params": {"samples": 2.5}}},
     "samples"),
    ("play", {"kappa": -1}, "kappa"),
    ("solve", {"space": {"type": "ball", "dimension": 2.5}}, "integer"),
    ("solve", {"space": {"type": "sphere", "dimension": "1.5"}}, "integer"),
    ("solve", {"k": True}, "k"),
    ("solve", {"space": CYCLE | {"edges": [["u", "v", True], ["u", "v", "1"]]}},
     "space"),
    ("solve", {"agility": {"kind": "uniform", "t": True}}, "agility"),
    ("copnumber", {"k_max": True}, "k_max"),
    ("play", {"N": True}, "N"),
    # a point budget below 1 or past the default of 20 000
    ("solve", {"point_budget": 0}, "point_budget"),
    ("solve", {"point_budget": -3}, "point_budget"),
    ("solve", {"point_budget": 20_001}, "point_budget"),
    # more greedy_robber samples than the point budget: one capacity line
    ("play", {"robber": {"name": "greedy_robber", "params": {"samples": 1e30}}},
     "samples"),
    ("play", {"robber": {"name": "greedy_robber", "params": {"samples": 20_001}}},
     "samples"),
]


@pytest.mark.parametrize("command,changes,field", _BAD_NUMBERS, ids=[
    f"{command}-{json.dumps(changes, separators=(',', ':'))[:40]}"
    for command, changes, _ in _BAD_NUMBERS
])
def test_rejects_bad_numeric_fields(tmp_path, capsys, command, changes, field):
    base = {"solve": _SOLVE, "copnumber": _COPNUMBER, "play": _PLAY}[command]
    cfg = base | changes
    if "T" in cfg.get("horizon", {}):
        del cfg["agility"]
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and field in err[0]


def test_integral_numeric_fields_accept_whole_floats(tmp_path):
    assert run(tmp_path, "solve", _SOLVE, out="a") == 0
    whole = _SOLVE | {"k": 1.0, "horizon": {"N": "1"}, "N_max": 64.0}
    assert run(tmp_path, "solve", whole, out="b") == 0
    a = json.loads((tmp_path / "a" / "solve_result.json").read_text())
    b = json.loads((tmp_path / "b" / "solve_result.json").read_text())
    assert a["values"] == b["values"] and b["k"] == 1


_BALL_PLAY = _PLAY | {"space": {"type": "ball", "dimension": 2},
                      "start": {"robber": [0.5, 0.0], "cops": [[0.0, 0.0]]}}
_BALL1_PLAY = _PLAY | {"space": {"type": "ball", "dimension": 1},
                       "start": {"robber": [0.5], "cops": [[0.0]]}}
_PRODUCT_PLAY = _PLAY | {"space": {"type": "product", "base": INTERVAL},
                         "start": {"robber": [[0, 1.0], 0.5], "cops": [[[0, 0.0], 0.0]]}}
_SPHERE_PLAY = _PLAY | {"space": {"type": "sphere", "dimension": 2},
                        "start": {"robber": [1.0, 0.0, 0.0], "cops": [[0.0, 0.0, 1.0]]}}


def _start(base, robber=None, cop=None):
    """``base`` with one start point replaced."""
    start = base["start"] | ({"robber": robber} if cop is None else {"cops": [cop]})
    return base | {"start": start}


_BAD_INPUTS = [
    ("solve", 5, "config"),
    ("copnumber", 5, "config"),
    ("play", 5, "config"),
    ("verify", [1], "config"),
    ("solve", _SOLVE | {"horizon": 5}, "horizon"),
    ("solve", _SOLVE | {"mode": "standard", "family": 5}, "family"),
    ("copnumber", _COPNUMBER | {"family": 5}, "family"),
    ("play", _PLAY | {"start": 5}, "start"),
    ("play", _PLAY | {"robber": 5}, "robber"),
    ("play", _PLAY | {"robber": {"name": "stand_still_robber",
                                 "params": {"foo": 1}}}, "foo"),
    ("play", _PLAY | {"robber": {"name": "greedy_robber", "params": 5}}, "params"),
    ("play", _PLAY | {"start": {"robber": [0], "cops": [[0, 0.0]]}}, "start"),
    ("play", _PLAY | {"start": {"robber": [0, 1.0], "cops": 5}}, "start"),
    ("play", _BALL_PLAY | {"start": {"robber": "abc", "cops": [[0.0, 0.0]]}},
     "start"),
    ("solve", _SOLVE | {"mode": "finite", "store_policy": "false"}, "store_policy"),
    ("solve", _SOLVE | {"mode": "finite", "store_policy": 1}, "store_policy"),
    ("solve", _SOLVE | {"mode": "standard", "family": []}, "family"),
    ("copnumber", _COPNUMBER | {"family": []}, "family"),
    ("play", _PLAY | {"robber": {"name": "follower_cop"}}, "config.robber"),
    ("play", _PLAY | {"cops": {"name": "greedy_robber"}}, "config.cops"),
    ("play", _PLAY | {"robber": {"name": "greedy_robber", "params": {"seed": -3}}},
     "seed"),
    ("play", _PLAY | {"robber": {"name": "greedy_robber",
                                 "params": {"samples": -1}}}, "samples"),
    # start points: a graph point is [edge, offset] with a whole edge id and
    # a finite offset, a ball point a list of numbers, a product point
    # [base point, fiber]; booleans are not numbers
    *[("play", _start(_PLAY, robber=point), "start") for point in
      ([0.5, 1.0], [False, 1.0], [0, True], "01", [0, 0.5, 7], [math.inf, 1.0])],
    ("play", _start(_BALL_PLAY, robber=[True, 0.0]), "start"),
    ("play", _start(_PRODUCT_PLAY, cop=[[0, 0.0], True]), "start"),
    ("play", _start(_BALL1_PLAY, robber="0"), "start"),
    # solve configs
    ("solve", {k: v for k, v in _SOLVE.items() if k != "agility"}
     | {"horizon": {"N": 1, "T": 0}}, "horizon.T"),
    ("solve", _SOLVE | {"mode": "finite", "starts": [[0]]}, "start"),
    ("solve", _SOLVE | {"mode": "finite", "starts": [[0, 99]]}, "out-of-range"),
    ("solve", _SOLVE | {"mode": "finite", "starts": []}, "empty"),
    ("solve", _SOLVE | {"mode": "bogus"}, "mode"),
    ("solve", _SOLVE | {"mode": "finite", "variant": "bogus"}, "variant"),
    # spaces and agilities
    ("solve", _SOLVE | {"space": {"type": "metric_graph", "vertices": ["u", "u"],
                                  "edges": [["u", "u", "1"]]}}, "duplicate"),
    ("solve", _SOLVE | {"space": INTERVAL | {"edges": [["a", "x", "1"]]}}, "unknown"),
    ("solve", _SOLVE | {"space": 5}, "object"),
    ("solve", _SOLVE | {"space": {"type": "ball", "dimension": 0}}, "ball"),
    ("solve", _SOLVE | {"space": {"type": "sphere", "dimension": 0}}, "sphere"),
    ("solve", _SOLVE | {"agility": {"kind": "explicit", "steps": [-0.25]}}, "nonnegative"),
    ("solve", _SOLVE | {"agility": {"kind": "harmonic", "a": 0}}, "harmonic"),
    ("copnumber", _COPNUMBER | {"k_max": 0}, "k_max"),
    # verify packs past the suite's limits
    ("verify", {"instances": [_PACK_INSTANCE | {"k": 3}]}, "cop"),
    ("verify", {"instances": [_PACK_INSTANCE | {
        "taus": [0.5] * 7, "taus_perturbed": [0.5] * 7, "volatile_eps": [0.0] * 8}]},
     "horizon"),
    # the cylinder lift needs p > 1, eps > 0 and a product space
    ("play", _lift_play(_PLAY["agility"]) | {"space": _CYLINDER_P3 | {"p": "1"}},
     "exponent"),
    ("play", _lift_play(_PLAY["agility"], {"eps": 0}), "eps"),
    ("play", _lift_play(_PLAY["agility"]) | {
        "space": CYCLE, "start": {"robber": [0, 0.5], "cops": [[0, 0.0]]}}, "product"),
    # the default pack is asked for by name, not by a file
    ("verify", {"pack": "default"}, "instances"),
    # variant and store_policy are fields of finite solves only
    ("solve", _SOLVE | {"mode": "limit", "variant": "bogus"}, "variant"),
    ("solve", _SOLVE | {"mode": "limit", "variant": "intermediate", "store_policy": True},
     "variant"),
    ("solve", _SOLVE | {"mode": "limit", "store_policy": True}, "store_policy"),
    ("solve", _SOLVE | {"mode": "standard", "variant": "endpoint"}, "variant"),
    ("solve", _SOLVE | {"mode": "standard", "store_policy": False}, "store_policy"),
    # a coordinate whose square overflows: its norm is inf, with no warning
    ("play", _start(_BALL_PLAY, robber=[1e200, 0.0]), "radius"),
    ("play", _start(_SPHERE_PLAY, robber=[1e200, 0.0, 0.0]), "sphere"),
]


@pytest.mark.parametrize("command,cfg,needle", _BAD_INPUTS, ids=[
    f"{command}-{i}-{needle}" for i, (command, _, needle) in enumerate(_BAD_INPUTS)
])
@pytest.mark.filterwarnings("error")
def test_rejects_malformed_inputs(tmp_path, capsys, command, cfg, needle):
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and needle in err[0]


@pytest.mark.parametrize("text, needle", [
    (None, "not found"), ("{", "not valid JSON"), ("directory", "cannot read"),
    (b"\xff\xfe\x00", "cannot read"),
], ids=["missing", "not-json", "directory", "undecodable"])
def test_rejects_unreadable_config_files(tmp_path, capsys, text, needle):
    path = tmp_path / "config.json"
    if text == "directory":
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and needle in err[0]


@pytest.mark.parametrize("command,cfg,out", [
    ("solve", _SOLVE, "file"),
    ("play", _PLAY, "file"),
    ("verify", {"instances": [_PACK_INSTANCE]}, "file/x"),
], ids=["solve-into-a-file", "play-into-a-file", "verify-under-a-file"])
def test_unwritable_outputs_exit_2_in_one_line(tmp_path, capsys, command, cfg, out):
    (tmp_path / "file").write_text("")
    assert run(tmp_path, command, cfg, out=out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "cannot write output" in err[0]


# small valid configs of every command, with most optional fields set
_VALID_CONFIGS = [
    ("solve", _SOLVE),
    ("solve", _SOLVE | {"mode": "finite", "variant": "intermediate", "store_policy": True,
                        "starts": [[0, 1]], "point_budget": 100}),
    ("solve", {k: v for k, v in _SOLVE.items() if k != "agility"}
     | {"horizon": {"N": 2, "T": 1}, "tol": 1e-6, "N_max": 4}),
    ("solve", _SOLVE | {"mode": "standard", "N_max": 4,
                        "family": [{"kind": "harmonic", "a": 0.5}]}),
    ("play", _PLAY),
    ("play", _BALL_PLAY | {"robber": {"name": "greedy_robber",
                                      "params": {"samples": 2, "seed": 1}},
                           "cops": {"name": "radial_cop"}, "kappa": 0.01}),
    ("play", _PRODUCT_PLAY | {"cops": {"name": "cylinder_lift_cop",
                                       "params": {"eps": 0.5}}}),
    ("copnumber", _COPNUMBER | {"theta": 0.5, "tol": 1e-6, "N_max": 4}),
    ("verify", {"instances": [_PACK_INSTANCE]}),
]
# what a mutation puts in place of a value; no number grows
_REPLACEMENTS = ["x", [1], {"a": 1}, True, False, None, math.nan, math.inf, -math.inf]


def _mutation_sites(obj, path=()):
    """Paths to every value nested in ``obj``, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _mutation_sites(value, path + (key,))


@st.composite
def _mutated_configs(draw):
    """A valid config with one or two values dropped or replaced."""
    command, cfg = draw(st.sampled_from(_VALID_CONFIGS))
    cfg = json.loads(json.dumps(cfg))
    for _ in range(draw(st.integers(1, 2))):
        sites = list(_mutation_sites(cfg))
        if not sites:
            break
        *path, key = draw(st.sampled_from(sites))
        parent = cfg
        for step in path:
            parent = parent[step]
        replacement = draw(st.sampled_from(["drop", *_REPLACEMENTS]))
        if replacement == "drop":
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(replacement))
    return command, cfg


def test_valid_configs_run(tmp_path):
    for i, (command, cfg) in enumerate(_VALID_CONFIGS):
        assert run(tmp_path, command, cfg, out=str(i)) == 0, (command, cfg)


@settings(max_examples=300, deadline=None)
@given(case=_mutated_configs())
def test_mutated_configs_run_or_fail_in_one_line(tmp_path_factory, case):
    command, cfg = case
    where = tmp_path_factory.mktemp("mutant")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(where, command, cfg)
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 2 and len(lines) == 1), (code, lines)


@pytest.mark.parametrize("tail", [1.0, 0.0])
def test_limit_rejects_schedule_uniform_for_16_steps_only(tmp_path, capsys, tail):
    cfg = {"space": INTERVAL | {"edges": [["a", "b", "8"]]}, "net_h": 0.25,
           "k": 1, "mode": "limit", "horizon": {"N": 20},
           "agility": {"kind": "explicit", "steps": [0.25] * 16 + [tail] * 4}}
    assert run(tmp_path, "solve", cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "uniform or decreasing" in err[0]
    cfg["agility"]["steps"] = [0.25] * 20
    assert run(tmp_path, "solve", cfg, out="uniform") == 0


def test_solve_store_policy_false_dumps_no_policy(tmp_path):
    assert run(tmp_path, "solve", _SOLVE | {"mode": "finite",
                                            "store_policy": False}) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    assert "policy" not in result


def test_whole_dimensions_and_typed_params_still_run(tmp_path):
    ball = {"type": "ball", "dimension": 2.0, "radius": "1"}
    assert run(tmp_path, "solve", _SOLVE | {"space": ball, "net_h": 0.5}) == 0
    greedy = {"name": "greedy_robber", "params": {"samples": "4", "seed": 3.0}}
    assert run(tmp_path, "play", _BALL_PLAY | {"robber": greedy}) == 0


# ---------------------------------------------------------------------------
# result JSON writer


def _decoded(obj):
    """``obj`` with every rank layer replaced by the flat list of its values."""
    if isinstance(obj, solver._Ranked):
        return obj.levels[obj.ranks.reshape(-1)].tolist()
    if isinstance(obj, dict):
        return {key: _decoded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_decoded, obj))
    return obj


def _assert_dump_matches_json(directory, obj):
    path = directory / "dump.json"
    cli._dump(obj, path)
    assert path.read_bytes() == (json.dumps(
        _decoded(obj), sort_keys=True, indent=1) + "\n").encode()


def _ranked(array):
    """``array`` as a rank layer over its distinct bit patterns, so that
    ``-0.0`` and ``0.0`` are two levels."""
    bits, ranks = np.unique(array.view(f"u{array.itemsize}"), return_inverse=True)
    return solver._Ranked(bits.view(array.dtype),
                          ranks.reshape(array.shape).astype(np.min_scalar_type(bits.size - 1)))


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(),
)
_leaf_lists = st.one_of(
    st.lists(st.integers()),
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    st.lists(st.floats()),
    st.lists(st.one_of(st.integers(), st.floats(), st.booleans())),
)
_json_like = st.recursive(
    st.one_of(_scalars, _leaf_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=_json_like)
def test_dump_matches_json_dump(tmp_path_factory, obj):
    _assert_dump_matches_json(tmp_path_factory.mktemp("dump"), obj)


def test_dump_matches_json_dump_on_nested_scalars(tmp_path):
    scalars = [-0.0, 0.0, 1e-320, 5e-324, 1.7976931348623157e308, -3, 2**70, True,
               False, None, "a\"b\u00e9", np.float64(-0.0), np.float64(0.1),
               float("nan"), float("inf"), -math.inf, np.float64("nan")]
    obj = {"scalars": scalars, "each": [[x] for x in scalars],
           "mixed": [1, [2.5, {"x": -0.0, "y": [None, True]}], (), [], {}, 3],
           "tuple": (1e-320, "s", np.float64(2.0)), "one": 1e-320, "none": None,
           "nan": float("nan"), "np": np.float64(1.5), "text": "x"}
    for value in (obj, scalars, tuple(scalars), [obj, scalars]):
        _assert_dump_matches_json(tmp_path, value)


@pytest.mark.parametrize("odd", [None, float("nan"), np.float64(0.25), 1, True])
def test_dump_matches_json_dump_across_chunks(tmp_path, odd):
    n = 2 * cli._DUMP_CHUNK + 3
    ints = list(range(-5, n - 5))
    floats = [i / 7 for i in range(n)]
    for items in (ints, floats):
        mixed = list(items)
        mixed[cli._DUMP_CHUNK + 1] = odd
        _assert_dump_matches_json(tmp_path, {"plain": items, "mixed": mixed,
                                             "nested": [items, [mixed], {}, []]})


def test_dump_array_across_chunks(tmp_path):
    n = 2 * cli._DUMP_CHUNK + 3
    floats = np.arange(n) / 7
    floats[cli._DUMP_CHUNK + 2] = -0.0
    floats[cli._DUMP_CHUNK + 3] = 0.0
    ints = np.arange(-5, n - 5) % 11 - 5
    _assert_dump_matches_json(tmp_path, {
        "floats": _ranked(floats), "ints": _ranked(ints),
        "nested": [_ranked(floats), [_ranked(ints)], {}, []]})
    text = (tmp_path / "dump.json").read_text()
    assert "-0.0" in text and "-5" in text


def _count_unique_calls(monkeypatch):
    calls = []
    real_unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(len(args[0]))
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    return calls


@pytest.mark.parametrize("array", [
    np.arange(2 * cli._DUMP_CHUNK + 3)[::-1] % 300,
    np.array([3, 0, 2, 2, 1], dtype=np.int32),
    np.array([255, 0, 7] + [1] * 300, dtype=np.uint8),
    np.array([2, 0, 1, 1], dtype=">i8"),
    (np.arange(12) % 4)[::3],
    np.array([4, 0, 4, 1, 3]),  # max == size - 1
], ids=["int64", "int32", "uint8", "big-endian", "strided", "max-is-size-1"])
def test_dump_writes_in_range_ints_from_their_own_table(tmp_path, monkeypatch, array):
    # a policy table: net indices written as ranks into the indices themselves
    calls = _count_unique_calls(monkeypatch)
    table = solver._Ranked(np.arange(int(array.max()) + 1), array)
    _assert_dump_matches_json(tmp_path, {"a": table, "in": [table]})
    assert calls == []


@pytest.mark.parametrize("array", [
    np.array([5, 0, 4, 1, 3]),  # max == size
    np.array([3, -1, 2, 0]),
    np.array([-2**63, 2**63 - 1, -1, 0, -1]),
    np.array([2**64 - 1, 2**63, 2**63 + 1, 0, 1], dtype=np.uint64),
], ids=["max-is-size", "negative", "int64-extremes", "uint64-above-2**63"])
def test_dump_codes_other_ints_per_chunk(tmp_path, monkeypatch, array):
    layer = _ranked(array)
    calls = _count_unique_calls(monkeypatch)
    _assert_dump_matches_json(tmp_path, {"a": layer})
    assert calls == []
    assert json.loads((tmp_path / "dump.json").read_text())["a"] == array.tolist()


def test_dump_codes_floats_per_chunk_by_bit_pattern(tmp_path, monkeypatch):
    chunk = cli._DUMP_CHUNK
    floats = np.arange(2 * chunk + 9) / 7  # more distinct values than one chunk
    floats[-1] = floats[3]  # a value of the first chunk recurs in the last
    floats[1], floats[chunk + 2], floats[2 * chunk + 2] = 0.0, -0.0, 0.0
    layer = _ranked(floats)
    calls = _count_unique_calls(monkeypatch)
    _assert_dump_matches_json(tmp_path, {"floats": layer})
    assert calls == []
    lines = (tmp_path / "dump.json").read_text().splitlines()
    assert [lines[2 + i].strip(" ,") for i in (1, chunk + 2, 2 * chunk + 2)] == [
        "0.0", "-0.0", "0.0"]


@pytest.mark.parametrize("array", [
    np.arange(6.0).reshape(2, 3),
    np.array([True, False, True]),
    np.array([0.1, -0.0, np.nan, np.inf], dtype=np.float32),
    np.array(2.5),
    np.array(7),
    np.array([1.5, -0.0, np.nan], dtype=">f8"),
    np.arange(10.0)[::3],
], ids=["2d", "bool", "float32", "0d-float", "0d-int", "big-endian", "strided"])
def test_dump_matches_json_dump_on_other_arrays(tmp_path, array):
    # json.dump takes no array, and neither does the writer: a layer comes as ranks
    obj = {"a": array, "in": [array, {"b": array}]}
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        cli._dump(obj, tmp_path / "dump.json")


@pytest.mark.parametrize("obj", [
    {1: "a"}, {None: "a"}, {0.5: "a"}, {True: "a"}, {"a": [{"b": 1, 2: 3}]},
], ids=["int-key", "none-key", "float-key", "bool-key", "nested-key"])
def test_dump_rejects_non_string_keys(tmp_path, obj):
    # json.dump would write these as strings; no result has them
    with pytest.raises(TypeError):
        cli._dump(obj, tmp_path / "dump.json")


def _assert_coded_dump_matches_json(directory, levels, codes):
    layer = solver._Ranked(levels, codes)
    _assert_dump_matches_json(directory, {"a": layer, "in": [layer]})


_LEVELS = np.cumsum(np.random.default_rng(11).random(5000) + 1e-3) / 7  # strictly increasing


@pytest.mark.parametrize("levels,codes", [
    (_LEVELS, np.full(1000, 7, dtype=np.uint16)),  # one level, as in a limit layer
    (_LEVELS, np.random.default_rng(2).choice(
        [0, 3, 17, 999, 4999], size=3000).astype(np.uint16)),  # a sparse subset
    (np.array([0.0, 5e-324, 1e308]), np.array([2, 0, 1, 1, 0, 2], dtype=np.uint8)),
    (_LEVELS[:200], np.arange(2 * cli._DUMP_CHUNK + 3, dtype=np.uint8) % 200),
    (_LEVELS[:200], np.arange(cli._DUMP_CHUNK, dtype=np.uint8) % 200),
    (_LEVELS[:1], np.zeros(1, dtype=np.uint8)),
    # net indices, the levels of a policy table, in both of its code types
    *[(np.arange(P), (np.arange(2 * cli._DUMP_CHUNK + 3)[::-1]
                      % min(P, np.iinfo(dtype).max + 1)).astype(dtype))
      for dtype in (np.uint8, np.uint16) for P in (255, 256, 257)],
], ids=["one-level", "sparse-levels", "extremes", "across-chunks", "one-full-chunk",
        "one-entry", *[f"index-{P}-{t}" for t in ("uint8", "uint16") for P in (255, 256, 257)]])
def test_coded_dump_matches_json_dump_of_decoded_floats(tmp_path, monkeypatch, levels, codes):
    calls = _count_unique_calls(monkeypatch)
    _assert_coded_dump_matches_json(tmp_path, levels, codes)
    assert calls == []  # the codes index their texts: nothing is sorted


def test_coded_dump_formats_each_used_level_once(tmp_path, monkeypatch):
    formatted = []
    real_repr = repr

    def counting_repr(value):
        formatted.append(value)
        return real_repr(value)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    codes = np.arange(2 * cli._DUMP_CHUNK + 3, dtype=np.uint16) % 5 * 900
    cli._dump({"a": solver._Ranked(_LEVELS, codes)}, tmp_path / "dump.json")
    assert formatted == _LEVELS[[0, 900, 1800, 2700, 3600]].tolist()


def test_dump_of_a_long_coded_array_peaks_far_below_its_size():
    codes = (np.arange(2_000_000) % 1000).astype(np.uint16)  # 4 MB of codes
    # distance levels, and net indices as in a policy table
    for levels in (np.arange(1000) / 7, np.arange(1000)):
        tracemalloc.start()
        try:
            cli._dump({"a": solver._Ranked(levels, codes)}, Path(os.devnull))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6, levels.dtype


def test_dump_matches_json_dump_on_policy_result(tmp_path, monkeypatch):
    dumped = []
    real_dump = cli._dump

    def recording_dump(obj, path):
        dumped.append(obj)
        real_dump(obj, path)

    monkeypatch.setattr(cli, "_dump", recording_dump)
    cfg = {"space": CYCLE, "net_h": 0.1, "k": 1, "mode": "finite",
           "agility": {"kind": "uniform", "t": 0.1}, "horizon": {"N": 3},
           "store_policy": True}
    assert run(tmp_path, "solve", cfg) == 0
    (result,) = dumped
    assert result["policy"]["3"]["robber"].ranks.size
    assert isinstance(result["values"]["flat"], solver._Ranked)
    written = (tmp_path / "out" / "solve_result.json").read_bytes()
    assert written == (json.dumps(_decoded(result), sort_keys=True, indent=1) + "\n").encode()


@pytest.mark.parametrize("cfg", [
    {"mode": "finite", "store_policy": True, "horizon": {"N": 3}},
    {"mode": "limit", "horizon": {"N": 2}, "N_max": 8},
    {"mode": "standard", "horizon": {"N": 2}, "N_max": 8, "starts": [[0, 5], [3, 3]]},
], ids=["finite-policy", "limit", "standard"])
def test_solve_values_are_dumped_without_sorting(tmp_path, monkeypatch, cfg):
    # the solve ranks its net with np.unique; the writer must not sort again
    dumping, sorted_in_dump = [], []
    real_dump, real_unique = cli._dump, np.unique

    def spied_unique(*args, **kwargs):
        if dumping:
            sorted_in_dump.append(len(args[0]))
        return real_unique(*args, **kwargs)

    def spied_dump(obj, path):
        dumping.append(path)
        try:
            real_dump(obj, path)
        finally:
            dumping.clear()

    monkeypatch.setattr(np, "unique", spied_unique)
    monkeypatch.setattr(cli, "_dump", spied_dump)
    base = {"space": CYCLE, "net_h": 0.1, "k": 1, "agility": {"kind": "uniform", "t": 0.1}}
    assert run(tmp_path, "solve", {**base, **cfg}) == 0
    assert sorted_in_dump == []
    doc = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    assert len(doc["values"]["flat"]) == 20 * 20


@pytest.mark.parametrize("command,cfg,n_coded", [
    # one value layer, and k + 1 policy tables per step
    ("solve", _SOLVE | {"mode": "finite", "store_policy": True, "horizon": {"N": 2}},
     1 + 2 * 2),
    ("solve", _SOLVE | {"k": 2, "mode": "finite", "store_policy": True,
                        "horizon": {"N": 2}, "starts": [[0, 1, 2]]}, 1 + 2 * 3),
    ("solve", _SOLVE | {"N_max": 8}, 1),
    ("solve", {k: v for k, v in _SOLVE.items() if k != "agility"}
     | {"horizon": {"N": 2, "T": 1}, "N_max": 8}, 1),
    ("solve", _SOLVE | {"mode": "standard", "N_max": 8}, 1),
    ("copnumber", _COPNUMBER, 0),
    ("verify", {"instances": [_PACK_INSTANCE]}, 0),
], ids=["finite-k1", "finite-k2", "limit", "duration", "standard", "copnumber", "verify"])
def test_every_result_array_reaches_the_writer_coded(tmp_path, monkeypatch, command, cfg,
                                                     n_coded):
    # every layer reaches the writer as ranks, never as decoded floats
    seen = []
    real_write_json = cli._write_json

    def spied_write_json(write, obj, newline):
        seen.append(obj)
        real_write_json(write, obj, newline)

    monkeypatch.setattr(cli, "_write_json", spied_write_json)
    assert run(tmp_path, command, cfg) == 0
    assert not [obj for obj in seen if isinstance(obj, np.ndarray)]
    assert sum(isinstance(obj, solver._Ranked) for obj in seen) == n_coded


@pytest.mark.parametrize("command,cfg", [
    ("solve", _SOLVE | {"mode": "finite", "store_policy": True, "horizon": {"N": 2},
                        "starts": [[0, 1]]}),
    ("solve", _SOLVE | {"N_max": 8}),
    ("solve", {k: v for k, v in _SOLVE.items() if k != "agility"}
     | {"horizon": {"N": 2, "T": 1}, "N_max": 8}),
    ("solve", _SOLVE | {"mode": "standard", "N_max": 8, "starts": [[0, 1]]}),
    ("copnumber", _COPNUMBER),
], ids=["finite", "limit", "duration", "standard", "copnumber"])
def test_commands_write_layers_without_decoding_them(tmp_path, monkeypatch, command, cfg):
    def no_values(self):
        raise AssertionError("a layer was decoded to floats")

    monkeypatch.setattr(solver._Ranked, "values", property(no_values))
    assert run(tmp_path, command, cfg) == 0


# ---------------------------------------------------------------------------
# play


def test_play_sphere_antipodal(tmp_path, capsys):
    cfg = {
        "space": {"type": "sphere", "dimension": 1},
        "robber": {"name": "antipodal_robber"},
        "cops": {"name": "follower_cop"},
        "start": {"robber": [0.0, -1.0], "cops": [[0.0, 1.0]]},
        "agility": {"kind": "uniform", "t": 0.1},
        "N": 100,
    }
    assert run(tmp_path, "play", cfg) == 0
    out = capsys.readouterr().out
    value = float(out.split("trajectory value:")[1].strip())
    assert value >= math.pi - 0.1
    lines = (tmp_path / "out" / "trajectory.jsonl").read_text().strip().splitlines()
    assert len(lines) == 101
    rec = json.loads(lines[5])
    assert rec["gap"] >= math.pi - 0.1


def test_play_interval_capture_printed(tmp_path, capsys):
    cfg = {
        "space": INTERVAL,
        "robber": {"name": "stand_still_robber"},
        "cops": {"name": "follower_cop"},
        "start": {"robber": [0, 1.0], "cops": [[0, 0.0]]},
        "agility": {"kind": "uniform", "t": 0.25},
        "N": 10,
    }
    assert run(tmp_path, "play", cfg) == 0
    out = capsys.readouterr().out
    assert "captured at step 4" in out
    assert "trajectory value: 0" in out


def test_play_ball_greedy_vs_radial_gaps(tmp_path):
    cfg = {
        "space": {"type": "ball", "dimension": 2, "radius": "1"},
        "robber": {"name": "greedy_robber"},
        "cops": {"name": "radial_cop"},
        "start": {"robber": [0.8, 0.0], "cops": [[-0.2, 0.1]]},
        "agility": {"kind": "uniform", "t": 0.05},
        "N": 400,
    }
    assert run(tmp_path, "play", cfg, extra=("--seed", "7")) == 0
    rows = (tmp_path / "out" / "gaps.csv").read_text().strip().splitlines()[1:]
    gaps = [float(r.split(",")[2]) for r in rows]
    # positive until the pursuer finally closes, decreasing in trend
    assert all(g > 0 for g in gaps[:-1])
    q = max(1, len(gaps) // 4)
    means = [np.mean(gaps[i * q:(i + 1) * q]) for i in range(4) if gaps[i * q:(i + 1) * q]]
    assert all(b < a for a, b in zip(means[:-1], means[1:]))
    assert gaps[-1] < gaps[0]


def test_play_unknown_strategy(tmp_path, capsys):
    cfg = {
        "space": INTERVAL,
        "robber": {"name": "warp_robber"},
        "cops": {"name": "follower_cop"},
        "start": {"robber": [0, 1.0], "cops": [[0, 0.0]]},
        "agility": {"kind": "uniform", "t": 0.25},
        "N": 5,
    }
    assert run(tmp_path, "play", cfg) == 2
    assert "warp_robber" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# copnumber


def test_copnumber_interval_strong(tmp_path, capsys):
    cfg = {
        "space": INTERVAL, "net_h": 0.5, "k_max": 2, "theta": 0.0,
        "family": [{"kind": "uniform", "t": 0.5}],
    }
    assert run(tmp_path, "copnumber", cfg) == 0
    result = json.loads((tmp_path / "out" / "copnumber.json").read_text())
    assert result["estimate"] == 1
    assert "cop number estimate: 1" in capsys.readouterr().out


def test_copnumber_round_trip_reproducible(tmp_path):
    cfg = {
        "space": CYCLE, "net_h": 0.5, "k_max": 2,
        "family": [{"kind": "uniform", "t": 0.5}], "N_max": 16,
    }
    assert run(tmp_path, "copnumber", cfg, out="a") == 0
    first = (tmp_path / "a" / "copnumber.json").read_bytes()
    snapshot = json.loads(first)["config"]
    assert run(tmp_path, "copnumber", snapshot, out="b") == 0
    assert first == (tmp_path / "b" / "copnumber.json").read_bytes()


def test_copnumber_cycle_sentinel(tmp_path):
    cfg = {
        "space": CYCLE, "net_h": 0.25, "k_max": 1, "theta": 0.0,
        "family": [{"kind": "uniform", "t": 0.25}],
    }
    assert run(tmp_path, "copnumber", cfg) == 0
    result = json.loads((tmp_path / "out" / "copnumber.json").read_text())
    assert result["estimate"] == "> 1"
    assert result["per_k"][0][1] > 0


# ---------------------------------------------------------------------------
# verify


def test_verify_default_all_pass(tmp_path, capsys):
    assert main(["verify", "--config", "default", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(r["passed"] for r in report)
    assert "suite: PASS" in capsys.readouterr().out


def test_verify_oversize_pack(tmp_path, capsys):
    pack = {
        "instances": [{
            "name": "too-big",
            "space": CYCLE, "h": 2.0 / 13, "k": 1,
            "taus": [0.25], "taus_perturbed": [0.5],
            "subdivide": [1, 0.5], "volatile_eps": [0.25, 0.0],
        }]
    }
    assert run(tmp_path, "verify", pack) == 2
    assert "12" in capsys.readouterr().err


def test_verify_rejects_oversize_oracle_tree(tmp_path, capsys, monkeypatch):
    # 8 points, each reaching all 8 in one step: 6.9e10 oracle nodes
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the oracle tree was capped")

    monkeypatch.setattr(verify, "solve_finite", no_solve)
    monkeypatch.setattr(verify, "exhaustive_value", no_solve)
    pack = {"instances": [{
        "name": "wide-oracle", "space": CYCLE, "h": 0.25, "k": 2,
        "taus": [2, 2, 2], "taus_perturbed": [2, 2, 2],
        "subdivide": [1, 0.5], "volatile_eps": [0, 0, 0, 0],
        "oracle_N": 3,
    }]}
    assert run(tmp_path, "verify", pack) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "oracle tree nodes" in err[0]
    assert "68853957120" in err[0] and "1000000" in err[0]


def test_verify_rejects_long_minmax_horizon(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the min-max horizon was capped")

    monkeypatch.setattr(verify, "solve_finite", no_solve)
    inst = _PACK_INSTANCE | {"minmax": _PACK_INSTANCE["minmax"] | {"taus": [0.5] * 200}}
    assert run(tmp_path, "verify", {"instances": [inst]}) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "suite min-max horizon" in err[0]
    assert "200" in err[0] and "6" in err[0]


def test_verify_empty_pack(tmp_path, capsys):
    assert run(tmp_path, "verify", {"instances": []}) == 2
    assert "no instances" in capsys.readouterr().err


_BAD_PACKS = [
    5,
    [5],
    [_PACK_INSTANCE | {"name": 5}],
    [{k: v for k, v in _PACK_INSTANCE.items() if k != "space"}],
    [_PACK_INSTANCE | {"h": 0}],
    [_PACK_INSTANCE | {"h": "0.5"}],
    [_PACK_INSTANCE | {"k": "x"}],
    [_PACK_INSTANCE | {"k": 0}],
    [_PACK_INSTANCE | {"k": 1.5}],
    [{k: v for k, v in _PACK_INSTANCE.items() if k != "taus"}],
    [_PACK_INSTANCE | {"taus": [0.5, -0.5]}],
    [_PACK_INSTANCE | {"taus": [0.5, float("nan")]}],
    [_PACK_INSTANCE | {"taus_perturbed": [1.0]}],
    [_PACK_INSTANCE | {"subdivide": [3, 0.5]}],
    [_PACK_INSTANCE | {"subdivide": [1, 2.0]}],
    [_PACK_INSTANCE | {"subdivide": 1}],
    [_PACK_INSTANCE | {"volatile_eps": [0.5, 0.0]}],
    [_PACK_INSTANCE | {"oracle_N": 3}],
    [_PACK_INSTANCE | {"minmax": {"coarse_h": 1.0, "eps": [0.5, 0.5],
                                  "taus": [0.5]}}],
    [_PACK_INSTANCE | {"minmax": {"eps": 0.5, "taus": [0.5]}}],
    [_PACK_INSTANCE | {"minmax": 5}],
]


@pytest.mark.parametrize("instances", _BAD_PACKS,
                         ids=[f"pack-{i}" for i in range(len(_BAD_PACKS))])
def test_verify_rejects_malformed_instances(tmp_path, capsys, monkeypatch,
                                            instances):
    def no_build(*args, **kwargs):
        raise AssertionError("a net was built before the pack was checked")

    monkeypatch.setattr(verify, "build_net", no_build)
    # a valid instance first: nothing runs until every instance is checked
    pack = [_PACK_INSTANCE] + instances if isinstance(instances, list) else instances
    assert run(tmp_path, "verify", {"instances": pack}) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_verify_accepts_the_sample_instance(tmp_path):
    assert run(tmp_path, "verify", {"instances": [_PACK_INSTANCE]}) == 0
