import json
import math

import numpy as np
import pytest

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


def test_verify_empty_pack(tmp_path, capsys):
    assert run(tmp_path, "verify", {"instances": []}) == 2
    assert "no instances" in capsys.readouterr().err
