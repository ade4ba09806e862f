"""Docstring checks: ``sparsify``, ``solvers``, ``stream``, ``serve``,
``core``, ``analysis``, ``obs``.

The public-docstring completeness contract — summary punctuation
(pydocstyle D415) plus numpydoc ``Parameters``/``Returns``/``Raises``
sections — is owned by the R403 rule of the ``repro lint`` static
analyzer (:mod:`repro.analysis.hygiene`); this suite asserts *through*
that rule so there is a single source of truth.  The audited API
surface is still enumerated by runtime reflection (one parametrized
case per public function, same test IDs as before the linter existed),
which doubles as a live cross-check that the AST rule sees exactly the
functions the import system exposes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys

import pytest

import repro.analysis
import repro.core
import repro.obs
import repro.serve
import repro.solvers
import repro.sparsify
import repro.stream
from repro.analysis import LintConfig, lint_files

PACKAGES = (repro.sparsify, repro.solvers, repro.stream, repro.serve,
            repro.core, repro.analysis, repro.obs)


def _iter_modules():
    for package in PACKAGES:
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            yield importlib.import_module(f"{package.__name__}.{info.name}")


def _public_functions():
    """Yield ``(qualified_name, function)`` pairs under audit."""
    seen: set[int] = set()
    for module in _iter_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or id(obj) in seen:
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                seen.add(id(obj))
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                seen.add(id(obj))
                for attr, member in vars(obj).items():
                    is_public = not attr.startswith("_") or attr == "__call__"
                    if is_public and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


@functools.lru_cache(maxsize=None)
def _docstring_findings(path: str):
    """R403 findings of one module file, keyed by offending symbol."""
    result = lint_files([path], LintConfig(rules=("R403",)))
    by_symbol: dict[str, list[str]] = {}
    for finding in result.findings:
        by_symbol.setdefault(finding.symbol, []).append(finding.format())
    return by_symbol


CASES = sorted(_public_functions(), key=lambda item: item[0])


def test_audit_is_not_vacuous():
    """The walker must see the real API surface, not an empty set."""
    names = [name for name, _ in CASES]
    assert len(names) > 40
    assert any("similarity_aware.sparsify_graph" in n for n in names)
    assert any("cholesky.DirectSolver.update" in n for n in names)
    assert any("engine.QueryEngine.resistance" in n for n in names)
    assert any("registry.SparsifierRegistry.register" in n for n in names)
    assert any("pipeline.SparsifyPipeline.run" in n for n in names)
    assert any("stages.DensifyStage.run" in n for n in names)
    assert any("framework.lint_paths" in n for n in names)


@pytest.mark.parametrize("qualified,func", CASES, ids=[n for n, _ in CASES])
def test_public_function_docstring(qualified, func):
    """Every audited function is clean under the R403 AST rule."""
    module = sys.modules[func.__module__]
    symbol = qualified.removeprefix(func.__module__ + ".")
    findings = _docstring_findings(module.__file__).get(symbol, [])
    assert not findings, (
        f"{qualified} fails the R403 docstring contract:\n"
        + "\n".join(findings)
    )
