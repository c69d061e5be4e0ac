"""Command line entry point.

Usage::

    pursuit solve     --config solve.json    [--out DIR] [--seed N]
    pursuit play      --config play.json     [--out DIR] [--seed N]
    pursuit copnumber --config copnum.json   [--out DIR] [--seed N]
    pursuit verify    --config default|pack.json [--out DIR]

Configs are JSON; space descriptions carry edge lengths as decimal strings.
Results are written as JSON with sorted keys and shortest round-trip float
formatting, so a rerun of the same config reproduces byte-identical output.
Exit codes: 0 success, 1 failed verification, 2 bad config, capacity or an
output that cannot be written.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .arena import (
    builtin_strategies,
    export_gaps_csv,
    export_trajectory_jsonl,
    get_strategy,
    run_game,
)
from .errors import CapacityError, PursuitError, ConfigError
from .game import Agility, Position, agility_from_config, trajectory_value
from .solver import (STORED_BYTES_BUDGET, cop_number_estimate, duration_value, limit_value,
                     max_net_points, solve_finite, standard_value, _check_cop_number,
                     _check_doubling, _check_family, _check_limit, _check_variant, _Ranked,
                     _states_error)
from .spaces import DEFAULT_POINT_BUDGET, _num, _whole, build_net, space_from_config
from .verify import run_suite, suite_passed


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}): {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _field(cfg: dict, key: str, path: str = "config"):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must be an object, not {cfg!r}")
    if key not in cfg:
        raise ConfigError(f"missing field {path}.{key}")
    return cfg[key]


def _float(value, name: str) -> float:
    """A finite number, possibly given as a decimal string."""
    try:
        return _num(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


def _int(value, name: str) -> int:
    """An integral number such as ``3``, ``3.0`` or ``"3"``."""
    try:
        return _whole(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


_DUMP_CHUNK = 16384  # layer entries written per step by _dump


def _dump(obj, path: Path) -> None:
    """Write ``obj`` as the bytes of ``json.dump(obj, fh, sort_keys=True,
    indent=1)`` plus a newline, where each :class:`_Ranked` stands for the
    flat list of its values, streaming to the file as it goes; a layer is
    written ``_DUMP_CHUNK`` entries at a time (see ``_write_json``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        _write_json(fh.write, obj, "\n")
        fh.write("\n")


def _write_json(write, obj, newline: str) -> None:
    """Encode ``obj`` as the json module does with ``sort_keys=True`` and
    ``indent=1``; ``newline`` is a line break plus the indent of ``obj``.

    A :class:`_Ranked` layer (a solve's value layer or policy table) is
    written as the flat array ``levels[ranks]``, chunk by chunk as
    ``texts[ranks]``, an object array of texts gathered by numpy: ``texts``
    holds the ``repr`` of each level the ranks use, json's own text for an
    int or a finite float, formatted once.  Nothing is sorted.
    """
    inner = newline + " "
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        sep = "{"
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            write(sep + inner + json.dumps(key) + ": ")
            _write_json(write, value, inner)
            sep = ","
        write(newline + "}")
    elif isinstance(obj, _Ranked):
        flat = obj.ranks.reshape(-1)
        chunks = [flat[start:start + _DUMP_CHUNK]
                  for start in range(0, flat.size, _DUMP_CHUNK)]
        used = np.zeros(obj.levels.size, dtype=bool)
        for codes in chunks:
            # numpy assigns through an intp index in half the time of a
            # uint8 or uint16 one, cast included
            used[codes.astype(np.intp)] = True
        texts = np.empty(obj.levels.size, dtype=object)
        texts[used] = list(map(repr, obj.levels[used].tolist()))
        sep = "," + inner
        write("[" + inner)
        for i, codes in enumerate(chunks):
            if i:
                write(sep)
            write(sep.join(texts[codes].tolist()))
        write(newline + "]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        sep = "," + inner
        write("[" + inner)
        for i, value in enumerate(obj):
            if i:
                write(sep)
            _write_json(write, value, inner)
        write(newline + "]")
    else:
        write(json.dumps(obj))


def _net_from_config(cfg: dict, k: int):
    """The config's net, for a solve with ``k`` cops.  A net of more than
    ``max_net_points(k)`` points has more states than the solver takes, so
    that many is the build's budget when it is the smaller: such a net fails
    before its matrix is built, with the solver-state error."""
    space = space_from_config(_field(cfg, "space"))
    h = _float(_field(cfg, "net_h"), "net_h")
    budget = _int(cfg.get("point_budget", DEFAULT_POINT_BUDGET), "point_budget")
    cap = max_net_points(k)
    if not cap < budget <= DEFAULT_POINT_BUDGET:  # build_net rejects a budget out of range
        return build_net(space, h, budget)
    try:
        return build_net(space, h, cap)
    except CapacityError as exc:
        if exc.what != "net points":
            raise
        if exc.required > budget:  # past the point budget too
            raise CapacityError("net points", exc.required, budget) from exc
        raise _states_error(exc.required, k) from exc


def _enough_steps(agility, n: int, name: str) -> None:
    """An explicit agility must provide the ``n`` steps that ``name`` asks for."""
    if agility.length is not None and agility.length < n:
        raise ConfigError(f"agility provides {agility.length} steps but {name} is {n}")


def _horizon(cfg: dict):
    """Returns ``(N, T or None, agility)``; with ``horizon.T`` the agility
    is uniform at ``T / N``."""
    hz = _field(cfg, "horizon")
    n = _int(_field(hz, "N", "config.horizon"), "horizon.N")
    least = 1 if "T" in hz else 0  # T is split into N uniform steps
    if n < least:
        raise ConfigError(f"horizon.N must be at least {least}")
    if 8 * n > STORED_BYTES_BUDGET:  # a float per step, before any list of steps
        raise CapacityError("horizon.N step bytes", 8 * n, STORED_BYTES_BUDGET)
    if "T" in hz:
        if "agility" in cfg:
            raise ConfigError("give either horizon.T or an agility, not both")
        T = _float(hz["T"], "horizon.T")
        if T <= 0:
            raise ConfigError("horizon.T must be positive")
        return n, T, Agility.uniform(T / n)
    agility = agility_from_config(_field(cfg, "agility"))
    _enough_steps(agility, n, "horizon.N")
    return n, None, agility


def _family(cfg: dict):
    """The agility family of a standard solve or copnumber; None (an absent
    or null ``family``) for the default family."""
    family = cfg.get("family")
    if family is None:
        return None
    if not isinstance(family, list):
        raise ConfigError("family must be a list of agility objects")
    return [agility_from_config(f) for f in family]


def _starts(cfg: dict, k: int, net):
    """The explicit start tuples, or None for ``"all"``."""
    starts = cfg.get("starts", "all")
    if starts == "all":
        return None
    if not isinstance(starts, list):
        raise ConfigError('starts must be "all" or a list of index lists')
    tuples = []
    for row in starts:
        if not isinstance(row, list):
            raise ConfigError(f"start tuple {row!r} is not a list")
        tup = tuple(_int(i, "start index") for i in row)
        if len(tup) != k + 1:
            raise ConfigError(f"start tuple {row} needs {k + 1} indices")
        if any(not 0 <= i < net.size for i in tup):
            raise ConfigError(f"start tuple {row} has out-of-range indices")
        tuples.append(tup)
    if not tuples:
        raise ConfigError("starts list is empty")
    return tuples


def _values_block(levels: np.ndarray, ranks: np.ndarray, tuples):
    """The value layer ``levels[ranks]``, written from its ranks."""
    out = {"shape": list(ranks.shape), "flat": _Ranked(levels, ranks)}
    if tuples is not None:
        out["per_start"] = [
            {"start": list(t), "value": float(levels[ranks[t]])} for t in tuples
        ]
    return out


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    k = _int(_field(cfg, "k"), "k")
    mode = cfg.get("mode", "finite")
    for key in ("variant", "store_policy"):
        if key in cfg and mode != "finite":
            raise ConfigError(f"{key} is a field of mode 'finite', not of mode {mode!r}")
    tol = _float(cfg.get("tol", 1e-9), "tol")
    n_max = _int(cfg.get("N_max", 64), "N_max")
    store_policy = cfg.get("store_policy", False)
    if not isinstance(store_policy, bool):
        raise ConfigError(f"store_policy must be true or false, not {store_policy!r}")
    n, T, agility = _horizon(cfg)
    variant = cfg.get("variant", "endpoint")
    family = _family(cfg) if mode == "standard" else None
    if mode == "finite":
        _check_variant(variant)
    elif mode == "limit" and T is not None:
        _check_doubling(n, n_max, tol)
    elif mode == "limit":
        _check_limit(agility, tol, n_max)
    elif mode == "standard":
        _check_family(family, tol, n_max)
    else:
        raise ConfigError(f"unknown solve mode {mode!r}")
    # every check above, the solver's too, comes before the net is built; the starts index it
    net = _net_from_config(cfg, k)
    tuples = _starts(cfg, k, net)

    convergence = []
    members = None
    policy_dump = None
    if mode == "finite":
        taus = agility.prefix(n)
        res = solve_finite(net, k, taus, variant=variant, store_policy=store_policy)
        if store_policy:
            index = np.arange(net.size)  # every policy entry is a net index
            policy_dump = {
                str(m): {
                    "robber": _Ranked(index, args[0]),
                    "cops": [_Ranked(index, t) for t in args[1:]],
                }
                for m, args in sorted(res.moves.items())
            }
    elif mode == "limit":
        if T is not None:
            res = duration_value(net, k, T, n, tol, n_max)
        else:
            res = limit_value(net, k, agility, tol, n_max)
        convergence = [[int(N), float(d)] for N, d in res.log]
        taus = agility.prefix(res.achieved_N) if T is None else [T / res.achieved_N] * res.achieved_N
    else:
        res = standard_value(net, k, family, tol, n_max)
        members = [
            {
                "agility": desc,
                "achieved_N": lim.achieved_N,
                "gap": lim.gap,
                "converged": lim.converged,
                "log": [[int(N), float(d)] for N, d in lim.log],
            }
            for desc, lim in res.members
        ]
        convergence = [row for m in members for row in m["log"]]
        taus = agility.prefix(n)

    result = {
        "command": "solve",
        "config": cfg,
        "net": net.describe(),
        "k": k,
        "mode": mode,
        "tau_prefix": [float(t) for t in taus],
        "values": _values_block(res.levels, res.ranks, tuples),
        "worst_start": res.worst_start(),
        "convergence": convergence,
    }
    if members is not None:
        result["members"] = members
    if policy_dump is not None:
        result["policy"] = policy_dump
    _dump(result, Path(args.out) / "solve_result.json")
    print(f"net: {net.size} points, covering radius {net.h:.6g}")
    print(f"worst-start value: {result['worst_start']:.17g}")
    if convergence:
        print("convergence (N, change):")
        for N, d in convergence:
            print(f"  {N:5d}  {d:.3e}")
    return 0


def _strategy_from_config(space, cfg: dict, side: str, seed: int):
    """The catalog strategy in slot ``side`` ("robber" or "cops"), which
    must be a strategy of that side.  Each param must be one its constructor
    takes, and is parsed as an int or a float, like the param's default."""
    path = f"config.{side}"
    scfg = _field(cfg, side)
    name = _field(scfg, "name", path)
    params = scfg.get("params", {})
    if not isinstance(name, str) or not isinstance(params, dict):
        raise ConfigError(f"{path} needs a name string and a params object")
    entry = builtin_strategies().get(name)
    if entry is None:
        return get_strategy(space, name)  # raises ConfigError
    if entry["side"] != side:
        raise ConfigError(f"{path}: {name} is a {entry['side']} strategy")
    accepted = inspect.signature(entry["make"]).parameters
    parsed = {}
    for key, value in params.items():
        if key == "space" or key not in accepted:
            raise ConfigError(f"{path}.params: {name} takes no parameter {key!r}")
        parse = _int if type(accepted[key].default) is int else _float
        parsed[key] = parse(value, f"{path}.params.{key}")
    if "seed" in accepted:
        parsed.setdefault("seed", seed)
    return get_strategy(space, name, **parsed)


def cmd_play(args) -> int:
    cfg = _load_config(args.config)
    space = space_from_config(_field(cfg, "space"))
    robber = _strategy_from_config(space, cfg, "robber", args.seed)
    cops = _strategy_from_config(space, cfg, "cops", args.seed)
    start_cfg = _field(cfg, "start")
    robber_start = _field(start_cfg, "robber", "config.start")
    cops_start = _field(start_cfg, "cops", "config.start")
    try:
        start = Position(space.point_from_json(robber_start),
                         [space.point_from_json(p) for p in cops_start])
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise ConfigError(f"bad config.start: {exc}") from exc
    agility = agility_from_config(_field(cfg, "agility"))
    n_steps = _int(_field(cfg, "N"), "N")
    # the start and each step are recorded, about 186 bytes each with players
    # standing still (tracemalloc, any space, k = 1), checked before any step
    recorded = 186 * (n_steps + 1)
    if recorded > STORED_BYTES_BUDGET:
        raise CapacityError("N recorded step bytes", recorded, STORED_BYTES_BUDGET)
    _enough_steps(agility, n_steps, "N")
    kappa = _float(cfg.get("kappa", 1e-9), "kappa")
    traj = run_game(space, robber, cops, start, agility, n_steps, kappa)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_trajectory_jsonl(traj, out / "trajectory.jsonl")
    export_gaps_csv(traj, out / "gaps.csv")
    value = trajectory_value(traj)
    print(f"steps played: {traj.steps}")
    if traj.captured:
        print(f"captured at step {traj.capture_step}")
    print(f"trajectory value: {value:.17g}")
    return 0


def cmd_copnumber(args) -> int:
    cfg = _load_config(args.config)
    k_max = _int(_field(cfg, "k_max"), "k_max")
    theta = cfg.get("theta")
    theta = None if theta is None else _float(theta, "theta")
    family = _family(cfg)
    tol = _float(cfg.get("tol", 1e-9), "tol")
    n_max = _int(cfg.get("N_max", 64), "N_max")
    _check_cop_number(k_max, theta, family, tol, n_max)
    net = _net_from_config(cfg, 1)  # the first cop count it solves
    res = cop_number_estimate(net, k_max, theta=theta, family=family, tol=tol, N_max=n_max)
    result = {
        "command": "copnumber",
        "config": cfg,
        "net": net.describe(),
        "estimate": res.estimate if res.estimate is not None else f"> {k_max}",
        "theta": res.theta,
        "per_k": [[int(k), float(v)] for k, v in res.per_k],
    }
    _dump(result, Path(args.out) / "copnumber.json")
    print(f"threshold: {res.theta:.17g}")
    for k, v in res.per_k:
        print(f"  k={k}: worst-start value {v:.17g}")
    print(f"cop number estimate: {res.label()}")
    return 0


def cmd_verify(args) -> int:
    default = args.config == "default"
    reports = run_suite(None if default else _field(_load_config(args.config), "instances"))
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag}  {r.lemma:22s} {r.instance}  "
              f"violation={r.violation:.3e} tol={r.tolerance:g}")
    _dump([r.to_json() for r in reports], Path(args.out) / "verify_report.json")
    ok = suite_passed(reports)
    print("suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pursuit",
        description="Pursuit games on geodesic spaces: solve, play, estimate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("play", cmd_play),
        ("copnumber", cmd_copnumber),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON config path ('default' for verify)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized strategies")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except PursuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # _load_config reports read faults, so an output failed
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
