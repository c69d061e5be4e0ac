"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that the generator is deterministic per seed and keeps the work the
same across seeds, that the dyadic verify packs stay under the oracle cap
and pass the suite, that a perturbed value or policy entry is counted as a
failed op, that traced counts repeat exactly, and that every metric name is
well formed, has a unit and matches BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import traceback
from pathlib import Path

import run
import workloads
from checks import reference_digest
from tracer import Tracer, layer_metrics

pursuit = run.import_pursuit()
from pursuit.cli import main as cli_main  # noqa: E402
from pursuit.spaces import build_net, space_from_config  # noqa: E402
from pursuit.verify import run_suite, suite_passed  # noqa: E402

SEEDS = range(6)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tmpdir():
    import tempfile

    run.SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.SCRATCH)


def _shape(cmd) -> object:
    """What decides a command's cost: its config without the seeded parts."""
    cfg = cmd["config"]
    if not isinstance(cfg, dict):
        return cfg
    if "instances" in cfg:
        return [_instance_cost(inst) for inst in cfg["instances"]]
    return {k: v for k, v in cfg.items() if k not in ("starts", "start")}


def _net(inst):
    return build_net(space_from_config(inst["space"]), inst["h"])


def _oracle_nodes(inst) -> int:
    """Exact node count of the exhaustive oracle's trees over all starts."""
    if "oracle_N" not in inst:
        return 0
    net = _net(inst)
    D = net.matrix
    taus = inst["taus"][:inst["oracle_N"]]
    reach = {t: [[j for j in range(net.size) if D[i, j] <= t + 1e-12]
                 for i in range(net.size)] for t in set(taus)}
    memo = {}

    def nodes(r, cops, m):
        key = (r, cops, m)
        if key not in memo:
            total = 1
            if m:
                t = taus[len(taus) - m]
                moves = [()]
                for c in cops:
                    moves = [mv + (j,) for mv in moves for j in reach[t][c]]
                total += sum(nodes(rn, cn, m - 1)
                             for rn in reach[t][r] for cn in moves)
            memo[key] = total
        return memo[key]

    k = inst["k"]
    starts = [()]
    for _ in range(k + 1):
        starts = [s + (i,) for s in starts for i in range(net.size)]
    return sum(nodes(s[0], s[1:], len(taus)) for s in starts)


def _instance_cost(inst) -> tuple:
    return (_net(inst).size, inst["k"], len(inst["taus"]), inst.get("oracle_N"),
            "minmax" in inst, _oracle_nodes(inst))


def test_generator_deterministic():
    for w in workloads.WORKLOADS:
        for seed in SEEDS:
            assert workloads.commands(w, seed) == workloads.commands(w, seed), (w, seed)
        assert workloads.commands(w, 0) != workloads.commands(w, 1), w


def test_seed_keeps_work_constant():
    for w in workloads.WORKLOADS:
        first = [_shape(c) for c in workloads.commands(w, SEEDS[0])]
        for seed in SEEDS[1:]:
            assert [_shape(c) for c in workloads.commands(w, seed)] == first, (w, seed)


def test_net_sizes_and_starts():
    for w in workloads.WORKLOADS:
        for cmd in workloads.commands(w, 0):
            cfg = cmd["config"]
            if cmd["command"] == "solve":
                size = build_net(space_from_config(cfg["space"]), cfg["net_h"]).size
                assert size == workloads.NET_SIZES[cmd["id"]], (cmd["id"], size)


def test_dyadic_packs_capped_and_passing():
    for seed in SEEDS[:3]:
        pack = workloads.dyadic_pack(workloads._rng("play-verify", seed))
        for inst in pack:
            assert _oracle_nodes(inst) <= workloads.ORACLE_NODE_CAP, inst["name"]
        assert suite_passed(run_suite(pack)), seed


def _tiny_solve(tmp: Path):
    cfg = {"space": workloads.cycle(2.0), "net_h": 0.25, "k": 1, "mode": "finite",
           "agility": {"kind": "uniform", "t": 0.25}, "horizon": {"N": 2},
           "store_policy": True}
    cmds = [workloads._cmd("tiny-policy", "solve", cfg)]
    return cmds, run.write_configs(cmds, tmp / "configs")


def _perturbing(edit):
    """cli main that rewrites the result file through ``edit`` afterwards."""
    def call(argv):
        rc = cli_main(argv)
        path = Path(argv[argv.index("--out") + 1]) / "solve_result.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return rc
    return call


def _bump_value(doc):
    doc["values"]["flat"][3] += 1e-12


def _bump_policy(doc):
    row = doc["policy"]["1"]["robber"]
    row[0] = (row[0] + 1) % 8


def test_perturbed_output_is_a_failed_op():
    with _tmpdir() as tmp, contextlib.redirect_stderr(io.StringIO()):
        tmp = Path(tmp)
        cmds, argvs = _tiny_solve(tmp)
        clean = run.Runner(cli_main, cmds, argvs, tmp, None)
        clean.run_pass(warmup=True)
        clean.run_pass()
        assert clean.failed == 0 and clean.attempted == 2
        digest = clean.digests["tiny-policy"]
        for edit in (_bump_value, _bump_policy):
            # against the recorded reference
            r = run.Runner(_perturbing(edit), cmds, argvs, tmp, {"tiny-policy": digest})
            r.run_pass(warmup=True)
            assert r.failed == 1, edit.__name__
            # against the warm-up pass
            r = run.Runner(cli_main, cmds, argvs, tmp, None)
            r.run_pass(warmup=True)
            r.main = _perturbing(edit)
            r.run_pass()
            assert r.failed == 1, edit.__name__
        # a nonzero exit counts too, and so do the passes after a failed warm-up
        r = run.Runner(lambda argv: 2, cmds, argvs, tmp, None)
        r.run_pass(warmup=True)
        assert r.failed == 1
        r.main = cli_main
        r.run_pass()
        assert r.failed == 2


def test_digest_ignores_logs_only():
    with _tmpdir() as tmp:
        out = Path(tmp)
        cmds, argvs = _tiny_solve(out)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argvs[0] + ["--out", str(out)]) == 0
        before = reference_digest("solve", out)
        path = out / "solve_result.json"
        doc = json.loads(path.read_text())
        doc["convergence"] = [[1, 0.5]]
        doc["tau_prefix"] = []
        path.write_text(json.dumps(doc))
        assert reference_digest("solve", out) == before
        _bump_value(doc)
        path.write_text(json.dumps(doc))
        assert reference_digest("solve", out) != before


def test_trace_counts_repeat():
    with _tmpdir() as tmp:
        tmp = Path(tmp)
        cmds = workloads.probe_tail(workloads._rng("limit-solve", 0))
        argvs = run.write_configs(cmds, tmp / "configs")
        runner = run.Runner(cli_main, cmds, argvs, tmp, None)
        runner.run_pass(warmup=True)
        counts = []
        for _ in range(2):
            tr = Tracer()
            tr.install()
            try:
                runner.run_pass(call=lambda argv: tr.span("cli.main", cli_main, argv))
            finally:
                tr.uninstall()
            m = layer_metrics(tr.spans)
            counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
        assert runner.failed == 0
        assert counts[0] == counts[1]
        assert all(counts[0][k] > 0 for k in counts[0]), counts[0]
        # every filter kind the tracer reports ran in the tail
        for kind in ("filter_s.min.lead", "filter_s.max.mid", "filter_s.max_arg.lead"):
            assert m[f"kernels.{kind}"][0] > 0, kind


def test_metric_names_and_units():
    spec = json.loads(run.BENCHMARK.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
    produced = {k: u for k, (v, u) in layer_metrics([]).items()}
    produced["trace_overhead_frac"] = "ratio"
    assert produced == run.declared_metrics(trace=True)
    end_to_end = set(run.declared_metrics(trace=False))
    assert end_to_end == {"wall_s", "setup_s", "peak_rss_mb"}


def main() -> int:
    failures = 0
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    with contextlib.suppress(OSError):
        run.SCRATCH.rmdir()
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
