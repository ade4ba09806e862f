"""Rule framework and driver of the ``repro lint`` static analyzer.

The linter is a project-specific AST checker: it parses every target
file once (:class:`ParsedModule`), runs the registered rules in two
passes — a *collect* pass that lets cross-file rules gather global
facts (the stage-contract rule needs every ``Stage`` declaration
before it can validate a pipeline composition in another file) and a
*check* pass that emits :class:`~repro.analysis.finding.Finding`
objects — and filters the result through per-line suppression
comments::

    risky_call()  # repro-lint: disable=R101
    another()     # repro-lint: disable=R101,R301
    third()       # repro-lint: disable=all

Rules register themselves with the :func:`register` decorator;
:data:`RULES` is the registry the driver and the documentation
generator iterate.  All configuration — which module may touch global
RNG state, which packages are order-sensitive or docstring-audited,
the pipeline-context dataflow names — lives in :class:`LintConfig` so
tests can lint fixture snippets under a tailored policy.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.finding import Finding

__all__ = [
    "LintConfig",
    "LintResult",
    "LintRun",
    "ParsedModule",
    "RULES",
    "Rule",
    "lint_files",
    "lint_paths",
    "register",
]

_SUPPRESS = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Context names that are always available on a fresh
#: :class:`~repro.core.context.PipelineContext` (constructor knobs and
#: defaulted bookkeeping) — stages may read them without declaring.
CONTEXT_KNOBS = frozenset({
    "graph", "rng", "sigma2", "tree_method", "t", "num_vectors",
    "power_iterations", "max_iterations", "max_edges_per_iteration",
    "similarity_mode", "converged", "iterations", "profile",
})

#: Context names that *flow* between stages (None/NaN until a stage or
#: the caller defines them) — reads and writes of these are what the
#: ``requires``/``provides`` contract declares.
CONTEXT_FLOWING = frozenset({
    "initial_mask", "tree_indices", "state", "lambda_max", "lambda_min",
    "sigma2_estimate", "threshold", "off_tree", "heats", "candidates",
    "added", "edge_mask", "rescale",
})

#: Dataflow effects of ``PipelineContext`` helper methods: calling
#: ``ctx.ensure_state()`` reads the backbone and defines ``state``
#: (``initial_mask`` is an *optional* warm start of the helper, so it
#: is deliberately not treated as a contract requirement).
CONTEXT_METHOD_EFFECTS = {
    "ensure_state": (("tree_indices", "state"), ("state",)),
    "edge_cap": (("max_edges_per_iteration",), ()),
}


@dataclass(frozen=True)
class LintConfig:
    """Policy knobs of one lint run.

    Attributes
    ----------
    rng_module:
        Path suffix of the one module allowed to touch global NumPy /
        stdlib RNG state (rule R101 exempts it).
    order_sensitive:
        Path fragments of mask-/tree-producing packages where rule
        R102 flags iteration over sets (hash-order leaks into results).
    docstring_packages:
        Path fragments of the packages under the R403 public-docstring
        audit.
    locked_method_suffix:
        Methods whose name ends with this suffix are assumed to be
        called with the lock already held (rule R301 skips them).
    context_knobs, context_flowing:
        The pipeline-context name partition rules R201–R204 check
        against (defaults mirror ``repro.core.context``).
    rules:
        Optional subset of rule ids to run (``None`` runs every
        registered rule).
    """

    rng_module: str = "utils/rng.py"
    order_sensitive: tuple = (
        "repro/sparsify/", "repro/trees/", "repro/core/", "repro/stream/",
    )
    docstring_packages: tuple = (
        "repro/sparsify/", "repro/solvers/", "repro/stream/",
        "repro/serve/", "repro/core/", "repro/analysis/", "repro/obs/",
    )
    locked_method_suffix: str = "_locked"
    context_knobs: frozenset = CONTEXT_KNOBS
    context_flowing: frozenset = CONTEXT_FLOWING
    rules: tuple | None = None


class ParsedModule:
    """One target file, parsed once and shared by every rule.

    Attributes
    ----------
    path:
        The file's path as given to the linter (used in findings).
    source:
        Full source text.
    lines:
        Source split into lines (1-based access via ``lines[i - 1]``).
    tree:
        The parsed :class:`ast.Module`.
    suppressions:
        ``line -> {rule ids}`` parsed from ``# repro-lint: disable=``
        comments (the id ``all`` suppresses every rule on that line).
    """

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.suppressions: dict[int, set[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _SUPPRESS.search(line)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                self.suppressions[number] = {i for i in ids if i}

    @property
    def posix(self) -> str:
        """The path in POSIX form, for fragment matching."""
        return self.path.as_posix()

    def in_any(self, fragments: Iterable[str]) -> bool:
        """Whether the module path matches any configured fragment.

        Parameters
        ----------
        fragments:
            Path fragments (e.g. ``"repro/sparsify/"``).

        Returns
        -------
        bool
            True when any fragment occurs in the POSIX path.
        """
        posix = self.posix
        return any(fragment in posix for fragment in fragments)


@dataclass
class LintRun:
    """Cross-file state shared by both rule passes.

    Attributes
    ----------
    config:
        The run's :class:`LintConfig`.
    stage_classes:
        ``class name -> StageInfo`` gathered by the stage-contract
        rule's collect pass (see ``repro.analysis.contracts``).
    """

    config: LintConfig
    stage_classes: dict = field(default_factory=dict)


class Rule:
    """Base class of every lint rule.

    Subclasses set ``rule_id``/``title`` and implement :meth:`check`;
    rules that need cross-file facts gather them in :meth:`collect`,
    which the driver runs over *every* module before any check.
    """

    rule_id: str = "R000"
    title: str = "abstract rule"

    def collect(self, module: ParsedModule, run: LintRun) -> None:
        """Gather cross-file facts from one module (first pass).

        Parameters
        ----------
        module:
            The parsed module.
        run:
            Shared run state to stash facts on.
        """
        return None

    def check(self, module: ParsedModule, run: LintRun) -> Iterator[Finding]:
        """Yield findings for one module (second pass).

        Parameters
        ----------
        module:
            The parsed module.
        run:
            Shared run state (collect-pass facts and config).

        Returns
        -------
        Iterator[Finding]
            The rule's findings in this module.

        Raises
        ------
        NotImplementedError
            Always, on the base class.
        """
        raise NotImplementedError


#: Registry of every known rule, ``rule id -> rule class``.
RULES: dict[str, type] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to :data:`RULES`.

    Parameters
    ----------
    rule_cls:
        A :class:`Rule` subclass with a unique ``rule_id``.

    Returns
    -------
    type
        The class, unchanged (decorator protocol).

    Raises
    ------
    ValueError
        If the rule id is already registered.
    """
    if rule_cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id!r}")
    RULES[rule_cls.rule_id] = rule_cls
    return rule_cls


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run.

    Attributes
    ----------
    findings:
        Unsuppressed findings, sorted by location then rule.
    suppressed:
        Number of findings silenced by ``# repro-lint: disable=``
        comments.
    files:
        Number of files analyzed.
    """

    findings: tuple
    suppressed: int
    files: int


def _iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(path)
    return files


def _parse(path: Path) -> ParsedModule:
    """Read and parse one file (syntax errors become ``ValueError``)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise ValueError(f"{path}: cannot parse: {exc.msg} (line {exc.lineno})")
    return ParsedModule(path, source, tree)


def lint_files(
    files: Sequence[str | Path], config: LintConfig | None = None
) -> LintResult:
    """Run the registered rules over an explicit file list.

    Parameters
    ----------
    files:
        Python files to analyze (no directory expansion).
    config:
        Lint policy (default :class:`LintConfig`).

    Returns
    -------
    LintResult
        Sorted unsuppressed findings plus run counters.

    Raises
    ------
    ValueError
        If a file cannot be parsed.
    """
    # Importing the rule modules registers them; deferred to avoid an
    # import cycle (rules import the framework).
    from repro.analysis import (  # noqa: F401
        contracts,
        determinism,
        hygiene,
        locks,
        observability,
    )

    config = config or LintConfig()
    modules = [_parse(Path(f)) for f in files]
    active = [
        cls()
        for rule_id, cls in sorted(RULES.items())
        if config.rules is None or rule_id in config.rules
    ]
    run = LintRun(config)
    for rule in active:
        for module in modules:
            rule.collect(module, run)
    findings: list[Finding] = []
    suppressed = 0
    for rule in active:
        for module in modules:
            for found in rule.check(module, run):
                silenced = module.suppressions.get(found.line, ())
                if "all" in silenced or found.rule in silenced:
                    suppressed += 1
                else:
                    findings.append(found)
    return LintResult(tuple(sorted(findings)), suppressed, len(modules))


def lint_paths(
    paths: Sequence[str | Path], config: LintConfig | None = None
) -> LintResult:
    """Run the registered rules over files and/or directory trees.

    Parameters
    ----------
    paths:
        Files or directories; directories are walked for ``*.py``.
    config:
        Lint policy (default :class:`LintConfig`).

    Returns
    -------
    LintResult
        Sorted unsuppressed findings plus run counters.

    Raises
    ------
    FileNotFoundError
        If a path does not exist.
    ValueError
        If a file cannot be parsed.
    """
    return lint_files(_iter_python_files(paths), config)


def dotted_name(node: ast.AST) -> str | None:
    """Flatten a ``Name``/``Attribute`` chain into ``"a.b.c"``.

    Parameters
    ----------
    node:
        An expression node (typically a call's ``func``).

    Returns
    -------
    str or None
        The dotted name, or ``None`` when the chain contains anything
        but names and attribute accesses.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
