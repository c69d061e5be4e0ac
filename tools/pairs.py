"""Benchmark two checkouts in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE LABEL --workload W --pairs N --seconds S --seed K

Runs ``perfbench/run.py --workload W --seed K+i --seconds S --trace 0`` in
the checkout ``PARENT`` and in the checkout ``CHANGE`` for pairs
i = 0..N-1.  At an even pair the parent runs first, at an odd pair the
change, so that drift of the host does not favour one side.  ``--workload``
may be given more than once; each workload gets its own N pairs, in the
order given.  Each run uses its own checkout's ``perfbench/`` and ``src/``;
this script imports neither.  Before the first run it removes every
``__pycache__`` directory under both, so that neither side starts from
bytecode the other lacks (under ``PYTHONDONTWRITEBYTECODE=1`` one side
would compile every module in every run and the other none).

Writes ``BENCH_<LABEL>.json`` in the current directory, with every run's
result line, and prints each side's median, Q1 and Q3 of each end-to-end
metric, the number of pairs the change won and a verdict against the
metric's ``bound`` in ``BENCHMARK.json``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

RUNS_COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"pairs: {' '.join(argv[1:])} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def remove_bytecode(checkout: Path) -> None:
    """Remove every ``__pycache__`` directory under ``checkout``'s ``src/`` and
    ``perfbench/``, printing the path of each."""
    for top in ("src", "perfbench"):
        for cache in sorted((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)
            print(f"removed {cache}", flush=True)


def quartiles(xs: list) -> tuple:
    """``(Q1, median, Q3)``; one sample is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list, change: list, bound: float, lower: bool) -> str:
    """``within bound``, ``worse than bound`` or ``unresolved`` for one metric.

    ``bound`` is the largest relative loss of the change's median against
    the parent's.  When the parent's own spread, (Q3 - Q1) / median, exceeds
    it, the runs cannot tell the two apart unless every change run beats
    every parent run.
    """
    sign = 1 if lower else -1
    q1, med, q3 = quartiles(parent)
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if (q3 - q1) / med > bound and not beats_all:
        return "unresolved"
    loss = sign * (quartiles(change)[1] / med - 1)
    return "worse than bound" if loss > bound else "within bound"


def summarize(runs: list, metrics: list) -> None:
    """Print each side's quartiles and the change's wins, per workload and metric."""
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = len(mine) // 2
        print(f"{workload}: {pairs} pairs")
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            side = {s: [r["result"]["metrics"][name]["value"] for r in mine if r["side"] == s]
                    for s in ("parent", "change")}  # each in seed order, so zip pairs them
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(side["parent"], side["change"]))
            stats = {s: quartiles(v) for s, v in side.items()}
            (pq1, pmed, pq3), (cq1, cmed, cq3) = stats["parent"], stats["change"]
            rel = (cmed / pmed - 1) * 100
            print(f"  {name:12s} parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  "
                  f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  "
                  f"{rel:+.1f} %  change wins {wins}/{pairs}  ({metric['unit']})  "
                  + verdict(side["parent"], side["change"], metric["bound"], lower))
        failed = sum(r["result"]["failed"] for r in mine)
        wrong = sum(not r["result"]["correct"] for r in mine)
        print(f"  failed commands {failed}, incorrect runs {wrong}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("label", help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--what", default="", help="what the change does")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for where in checkouts.values():
        if not (where / "perfbench" / "run.py").is_file():
            parser.error(f"{where} has no perfbench/run.py")
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    for where in checkouts.values():
        remove_bytecode(where)

    runs = []
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"order": len(runs), "seed": seed, "side": side,
                             "workload": workload, "result": result})
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics), flush=True)

    last = args.seed + args.pairs - 1
    doc = {
        "host": f"{os.cpu_count()} CPUs ({platform.machine()}), "
                f"Python {platform.python_version()}, "
                f"numpy {importlib.metadata.version('numpy')}",
        "label": args.label,
        "runs": runs,
        "runs_command": RUNS_COMMAND.format(seconds=args.seconds),
        "runs_note": ("alternating pairs: at an even seed offset the parent runs first, "
                      "at an odd one the change (order gives the run sequence); seeds "
                      f"{args.seed}-{last} for each of {', '.join(args.workload)}"),
        "what": args.what,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    summarize(runs, metrics)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
