"""Benchmark of the ``pursuit`` CLI: one workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload limit-solve --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --record-reference 16   # rewrite reference.json

A workload is a seeded list of ``pursuit`` commands (see ``workloads.py``).
One client runs them in this process through ``pursuit.cli.main(argv)``,
one command at a time (a closed loop).  After an untimed warm-up pass the
list is repeated until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median pass
time; ``setup_s``, the median over fresh processes, one started after each
timed pass, of the time from process start to the first command
(interpreter start, ``import pursuit``, config generation and writing);
``peak_rss_mb``, the run's own ``ru_maxrss``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` plus ``trace_overhead_frac``.

Every command's outputs are checked (see ``checks.py``); a nonzero exit, a
missing output or a mismatch counts in ``failed``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs go to ``.perfbench_tmp/`` under the
repository root and are deleted after each command; the spans of the last
traced pass are written to ``.perfbench_out/<workload>.spans.jsonl``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_MIN_SAMPLES = 3
SETUP_TIMEOUT_S = 60


def import_pursuit():
    """Import ``pursuit`` from this checkout's ``src/`` and nowhere else."""
    init = SRC / "pursuit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pursuit

    if Path(pursuit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported pursuit from {pursuit.__file__}")
    return pursuit


def set_pursuit_threads() -> None:
    """One verify worker per usable CPU; the package default of 4
    oversubscribes a two-CPU machine."""
    os.environ["PURSUIT_THREADS"] = str(len(os.sched_getaffinity(0)))


def write_configs(cmds, directory: Path) -> list:
    """Write each command's config and return its argv (minus ``--out``)."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for cmd in cmds:
        config = cmd["config"]
        if config != "default":
            path = directory / f"{cmd['id']}.json"
            path.write_text(json.dumps(config, sort_keys=True))
            config = str(path)
        argvs.append([cmd["command"], "--config", config,
                      "--seed", str(cmd["seed"])])
    return argvs


class Runner:
    """Runs the command list and checks every command's outputs."""

    def __init__(self, cli_main, cmds, argvs, scratch: Path, expected):
        self.main = cli_main
        self.cmds = cmds
        self.argvs = argvs
        self.out = scratch / "out"
        self.expected = expected  # command id -> reference digest, or None
        self.baseline = None  # command id -> file hashes of the warm-up pass
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def _fail(self, cmd, why: str) -> None:
        self.failed += 1
        print(f"FAILED {cmd['id']}: {why}", file=sys.stderr)

    def _check(self, cmd, rc: int, warmup: bool) -> None:
        if rc != 0:
            return self._fail(cmd, f"exit code {rc}")
        try:
            hashes = checks.file_hashes(cmd["command"], self.out)
            if warmup:
                digest = checks.reference_digest(cmd["command"], self.out)
        except (OSError, ValueError, KeyError) as exc:
            return self._fail(cmd, f"unreadable output: {exc!r}")
        if warmup:
            self.digests[cmd["id"]] = digest
            self.baseline[cmd["id"]] = hashes
            if self.expected is not None and self.expected.get(cmd["id"]) != digest:
                self._fail(cmd, "output differs from the recorded reference")
        elif hashes != self.baseline.get(cmd["id"]):  # None if warm-up failed
            self._fail(cmd, "output differs from the warm-up pass")

    def run_pass(self, call=None, warmup: bool = False) -> float:
        """One pass over the list; returns the seconds spent in the CLI."""
        if warmup:
            self.baseline = {}
        gc.collect()
        busy = 0.0
        for cmd, argv in zip(self.cmds, self.argvs):
            shutil.rmtree(self.out, ignore_errors=True)
            full = argv + ["--out", str(self.out)]
            sink = io.StringIO()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = call(full) if call else self.main(full)
            except Exception as exc:  # a traceback is a failed op, not a crash
                busy += time.perf_counter() - t0
                self._fail(cmd, f"raised {exc!r}")
                continue
            busy += time.perf_counter() - t0
            self._check(cmd, rc, warmup)
        shutil.rmtree(self.out, ignore_errors=True)
        return busy


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter that only sets up (imports
    ``pursuit``, generates and writes the configs) to its exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> None:
    import_pursuit()
    scratch = SCRATCH / f"setup-{os.getpid()}"
    try:
        write_configs(workloads.commands(workload, seed), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def environment(pursuit) -> dict:
    import numpy

    from pursuit import _kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "PURSUIT_THREADS": os.environ["PURSUIT_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.active_backend(),
        "pursuit": pursuit.__version__,
    }


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed_passes(runner: Runner, seconds: float, trace, between=None) -> tuple:
    """Repeat passes while another fits in ``seconds`` (at least one).  With
    a tracer, passes alternate untraced and traced; ``between()`` runs after
    each round, untimed.  Returns (untraced times, traced (time, metrics)
    pairs)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(runner.run_pass())
        if trace is not None:
            trace.reset()
            trace.install()
            try:
                busy = runner.run_pass(
                    call=lambda argv: trace.span("cli.main", runner.main, argv))
            finally:
                trace.uninstall()
            traced.append((busy, layer_metrics(trace.spans)))
        if between is not None:
            between()
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:  # the next round would overrun
            return plain, traced


def summarize_traced(plain, traced, units) -> dict:
    metrics = {}
    for name, unit in units.items():
        if name == "trace_overhead_frac":
            value = (statistics.median(b for b, _ in traced)
                     / statistics.median(plain) - 1.0)
        elif unit == "count":
            values = {m[name][0] for _, m in traced}
            if len(values) != 1:
                print(f"note: count {name} varied between passes: {sorted(values)}",
                      file=sys.stderr)
            value = traced[0][1][name][0]
        else:
            value = statistics.median(m[name][0] for _, m in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pursuit = import_pursuit()
    from pursuit.cli import main as cli_main

    set_pursuit_threads()
    units = declared_metrics(trace)
    scratch = SCRATCH / str(os.getpid())
    try:
        cmds = workloads.commands(workload, seed)
        argvs = write_configs(cmds, scratch / "configs")
        expected = checks.expected_digests(checks.load_reference(REFERENCE),
                                           workload, seed)
        runner = Runner(cli_main, cmds, argvs, scratch, expected)
        warmup = runner.run_pass(warmup=True)

        info = environment(pursuit)
        info.update({"workload": workload, "seed": seed, "commands": len(cmds),
                     "reference": expected is not None,
                     "warmup_s": round(warmup, 4)})
        if trace:
            tr = Tracer()
            plain, traced = timed_passes(runner, seconds, tr)
            tr.write(str(TRACE_OUT / f"{workload}.spans.jsonl"))
            metrics = summarize_traced(plain, traced, units)
            info.update({"untraced_passes": len(plain), "traced_passes": len(traced)})
        else:
            # set-up samples are spread over the same window as the passes
            setup = []
            plain, _ = timed_passes(
                runner, seconds, None,
                between=lambda: setup.append(measure_setup(workload, seed)))
            while len(setup) < SETUP_MIN_SAMPLES:
                setup.append(measure_setup(workload, seed))
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": {"value": statistics.median(plain), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
            }
            info.update({"timed_passes": len(plain),
                         "pass_s": [round(p, 4) for p in plain],
                         "setup_samples_s": [round(x, 4) for x in setup]})
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != units:
            raise SystemExit(f"perfbench: metrics {got} differ from BENCHMARK.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def record_reference(count: int) -> None:
    """Record reference digests for seeds 0..count-1 of every workload."""
    from pursuit.cli import main as cli_main

    set_pursuit_threads()
    digests = {}
    scratch = SCRATCH / f"record-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            digests[workload] = {}
            for seed in range(count):
                cmds = workloads.commands(workload, seed)
                argvs = write_configs(cmds, scratch / "configs")
                runner = Runner(cli_main, cmds, argvs, scratch, None)
                runner.run_pass(warmup=True)
                if runner.failed:
                    raise SystemExit(f"perfbench: {workload} seed {seed} failed")
                digests[workload][str(seed)] = runner.digests
                print(f"recorded {workload} seed {seed}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {"digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", type=int, metavar="SEEDS")
    args = parser.parse_args()
    if args.record_reference is not None:
        import_pursuit()
        record_reference(args.record_reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
