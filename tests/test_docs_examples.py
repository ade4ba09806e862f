"""Execute the code examples embedded in README.md and docs/*.md.

Documentation examples rot silently unless they run.  This module
extracts every fenced ``python`` block from the Markdown documentation
and executes it:

- blocks written as plain scripts are ``exec``-ed, cumulatively per
  file (later blocks may use names defined by earlier ones);
- blocks written in doctest style (``>>>``) run under
  :mod:`doctest` with output checking.

Lines whose expected output is elided in the docs are conventionally
prefixed with ``# ...`` or shown as comments; plain-script blocks only
fail on exceptions, which is exactly the "does the example still run"
contract.  Shell (```bash```) blocks are out of scope.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = sorted(
    [ROOT / "README.md", *(ROOT / "docs").glob("*.md")],
    key=lambda p: p.name,
)
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path: Path) -> list[str]:
    return _FENCE.findall(path.read_text(encoding="utf-8"))


CASES = [
    pytest.param(path, i, id=f"{path.name}-block{i}")
    for path in DOC_FILES
    for i in range(len(_python_blocks(path)))
]


def test_documentation_has_runnable_examples():
    """The extraction must find the real examples, not an empty set."""
    total = sum(len(_python_blocks(path)) for path in DOC_FILES)
    assert total >= 2
    assert any(_python_blocks(ROOT / "README.md"))


# Cumulative per-file namespaces so multi-block examples compose.
_NAMESPACES: dict[Path, dict] = {}


@pytest.mark.parametrize("path,index", CASES)
def test_documentation_example_runs(path, index):
    block = _python_blocks(path)[index]
    namespace = _NAMESPACES.setdefault(path, {"__name__": "__docs__"})
    if ">>>" in block:
        parser = doctest.DocTestParser()
        test = parser.get_doctest(
            block, namespace, f"{path.name}[{index}]", str(path), 0
        )
        runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
        runner.run(test)
        assert runner.failures == 0, (
            f"doctest block {index} of {path.name} failed"
        )
    else:
        exec(compile(block, f"{path.name}[{index}]", "exec"), namespace)


#: ``path::qualified.name`` anchors of the algorithm-to-code map.
_ANCHOR = re.compile(r"`(src/repro/[\w/]+\.py)::([\w.]+)`")
_ALGORITHM = ROOT / "docs" / "ALGORITHM.md"


def _anchors() -> list[tuple[str, str]]:
    return _ANCHOR.findall(_ALGORITHM.read_text(encoding="utf-8"))


def test_algorithm_map_uses_names_not_line_numbers():
    """Line numbers drift with every edit above them; names do not."""
    text = _ALGORITHM.read_text(encoding="utf-8")
    assert not re.findall(r"\.py:\d+|`:\d+`", text)
    assert len(_anchors()) >= 40


@pytest.mark.parametrize(
    "path, name",
    [pytest.param(path, name, id=f"{path}::{name}")
     for path, name in sorted(set(_anchors()))],
)
def test_algorithm_map_anchor_resolves(path, name):
    """Each anchor names something its file defines."""
    import importlib

    assert (ROOT / path).is_file()
    module = importlib.import_module(
        path.removeprefix("src/").removesuffix(".py").replace("/", ".")
    )
    target = module
    for part in name.split("."):
        target = getattr(target, part)
    if hasattr(target, "__module__"):
        assert target.__module__ == module.__name__
