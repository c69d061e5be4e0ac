"""Record the outputs of every benchmark workload command.

    python3 tools/outputs.py SRC OUT SEED...

Imports ``pursuit`` from ``SRC`` (a checkout's ``src/``) and nowhere else,
runs the commands of ``perfbench/workloads.py`` at each seed, and writes
each command's output files, ``stdout``, ``stderr`` and ``exit_code`` under
``OUT/<workload>/<seed>/<id>/``.  ``diff -r`` of two such trees, say of a
parent commit and of a change, shows every output that differs.
"""

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def main(src: str, out: str, *seeds: str) -> None:
    init = Path(src, "pursuit", "__init__.py").resolve()
    if not init.is_file():
        sys.exit(f"outputs: {init} not found")
    sys.path.insert(0, str(init.parent.parent))
    import pursuit.cli

    if Path(pursuit.__file__).resolve() != init:
        sys.exit(f"outputs: imported pursuit from {pursuit.__file__}, not {init}")
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for cmd in workloads.commands(workload, int(seed)):
                where = Path(out, workload, seed, cmd["id"])
                where.mkdir(parents=True, exist_ok=True)
                config = cmd["config"]
                if config != "default":
                    config = where / "config.json"
                    config.write_text(json.dumps(cmd["config"], sort_keys=True))
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = pursuit.cli.main([cmd["command"], "--config", str(config),
                                                 "--seed", str(cmd["seed"]), "--out", str(where)])
                    except Exception:  # a traceback is an output too
                        traceback.print_exc()
                        code = 1
                (where / "stdout").write_text(stdout.getvalue())
                (where / "stderr").write_text(stderr.getvalue())
                (where / "exit_code").write_text(f"{code}\n")


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
