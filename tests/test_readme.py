"""The README's quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    assert "best_arc_search" in block and "run_table" in block
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    assert "| n |" in capsys.readouterr().out
