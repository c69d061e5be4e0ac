import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98]  # spread (Q3 - Q1) / median = 2 %
WIDE = [0.7, 1.0, 1.3, 0.8, 1.2]  # spread 40 %


@pytest.mark.parametrize("parent,change,lower,want", [
    (PARENT, [1.04, 1.05, 1.03, 1.06, 1.04], True, "within bound"),
    (PARENT, [1.10, 1.12, 1.09, 1.11, 1.10], True, "worse than bound"),
    (PARENT, [0.90, 0.91, 0.89, 0.92, 0.90], False, "worse than bound"),
    (PARENT, [1.50, 1.40, 1.60, 1.45, 1.55], False, "within bound"),
    (WIDE, [1.0, 1.0, 1.0, 1.0, 1.0], True, "unresolved"),
    (WIDE, [3.0, 3.0, 3.0, 3.0, 3.0], True, "unresolved"),
    (WIDE, [0.6, 0.65, 0.5, 0.55, 0.6], True, "within bound"),  # beats every parent run
    (WIDE, [1.4, 1.5, 1.45, 1.35, 1.4], False, "within bound"),
])
def test_pairs_verdict(parent, change, lower, want):
    assert pairs.verdict(parent, change, 0.05, lower) == want


def test_pairs_removes_bytecode_under_src_and_perfbench_only(tmp_path, capsys):
    kept, removed = [], []
    for side in ("parent", "change"):
        checkout = tmp_path / side
        for where in ("src/pursuit", "src", "perfbench"):
            cache = checkout / where / "__pycache__"
            cache.mkdir(parents=True)
            (cache / "m.cpython-311.pyc").write_bytes(b"pyc")
            removed.append(cache)
        for where in ("src/pursuit/m.py", "tests/__pycache__/t.pyc",
                      "tools/__pycache__/pairs.pyc", "__pycache__/x.pyc"):
            (checkout / where).parent.mkdir(parents=True, exist_ok=True)
            (checkout / where).write_bytes(b"kept")
            kept.append(checkout / where)
    for side in ("parent", "change"):
        pairs.remove_bytecode(tmp_path / side)
    printed = capsys.readouterr().out.splitlines()
    assert sorted(printed) == sorted(f"removed {cache}" for cache in removed)
    assert not any(cache.exists() for cache in removed)
    assert all(path.read_bytes() == b"kept" for path in kept)
