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
