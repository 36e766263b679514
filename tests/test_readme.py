"""The README's library quick start runs, and every API name it cites exists."""

import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# `balora.<module>.<name>`, optionally followed on the same line by
# ` / `<name>`` siblings from the same module.
_CITED = re.compile(r"`balora\.(\w+)\.(\w+)`((?:[ \t]*/[ \t]*`\w+`)*)")


def _cited_names() -> list[tuple[str, str]]:
    names = []
    for module, first, rest in _CITED.findall(README):
        names += [(module, name) for name in [first, *re.findall(r"`(\w+)`", rest)]]
    return names


def test_quick_start_runs():
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})


def test_cited_api_names_resolve():
    names = _cited_names()
    assert ("uncertainty", "uq_report") in names and ("variational", "AdamW") in names
    missing = [f"balora.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"balora.{module}"), name)]
    assert not missing, f"README cites names that do not exist: {missing}"
