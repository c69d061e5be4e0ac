"""README's examples run as written, so the README cannot drift from the code."""

import json
import re
from pathlib import Path

from pursuit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_readme_python_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_solve_config_runs(tmp_path):
    (config,) = _blocks("json")
    path = tmp_path / "solve.json"
    path.write_text(config)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    result = json.loads((tmp_path / "out" / "solve_result.json").read_text())
    assert result["config"] == json.loads(config)
