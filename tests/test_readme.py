"""The README's quick start and command-line examples run as written, and
the names it gives exist."""

import importlib
import pathlib
import pkgutil
import re
import shlex

import vandcond
from vandcond import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(pattern):
    text = README.read_text(encoding="utf-8")
    return re.search(pattern, text, re.S | re.M).group(1)


def test_quick_start_runs(capsys):
    block = _block(r"^```python\n(.*?)^```")
    assert "best_arc_search" in block and "run_table" in block
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    assert "| n |" in capsys.readouterr().out


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # In order, in one directory: a later line reads a file an earlier one wrote.
    lines = _block(r"^## Command line\n+```sh\n(.*?)^```").splitlines()
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "vandcond", line
        assert cli.main(argv[1:]) == 0, (line, capsys.readouterr().err)
    capsys.readouterr()


def test_named_module_attributes_exist():
    # `module.name` or `vandcond.module.name`, for a module of the package.
    modules = {m.name for m in pkgutil.iter_modules(vandcond.__path__)}
    names = {(module, name) for module, name in
             re.findall(r"`(?:vandcond\.)?(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
             if module in modules}
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"vandcond.{module}"), name), (module, name)
