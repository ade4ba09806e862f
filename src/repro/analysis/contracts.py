"""R2 stage-contract rules: ``requires``/``provides`` vs. actual dataflow.

A :class:`~repro.core.stage.Stage` declares the pipeline-context names
it consumes (``requires``) and defines (``provides``); the pipeline's
runtime wiring validation trusts those declarations.  These rules close
the loop statically: the ``ctx.<attr>`` reads and writes inside every
stage class are inferred from the AST and cross-checked against the
declarations, so contract drift is caught at lint time instead of as a
``PipelineValidationError`` (or worse, a silent parity break) at run
time.

- **R201** — a stage reads a *flowing* context name it neither
  requires nor provides (nor receives from a sub-stage it drives).
- **R202** — a stage writes a context name it does not declare in
  ``provides``.
- **R203** — a declared requirement is never read, or a declared
  provision is never written (dead contract entries mislead both the
  wiring validator and human readers).
- **R204** — a statically visible ``SparsifyPipeline([...])``
  composition orders stages so that a requirement is only produced by
  a *later* stage (names absent from the whole composition are assumed
  to be pre-mounted on the context and are not flagged).

The analysis understands the repo's loop-driver idiom: stage instances
assigned to ``self.<attr>`` in ``__init__`` contribute their
``provides`` to the driver's available names, and calls to context
helpers (``ctx.ensure_state()``) count as reads/writes of the names
they touch (:data:`~repro.analysis.framework.CONTEXT_METHOD_EFFECTS`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.finding import Finding
from repro.analysis.framework import (
    CONTEXT_METHOD_EFFECTS,
    LintRun,
    ParsedModule,
    Rule,
    dotted_name,
    register,
)

__all__ = ["StageContractRule", "PipelineOrderRule", "StageInfo"]

#: Method names whose call on ``ctx.<name>.<method>(...)`` mutates the
#: named context value in place (counts as a write for R202/R203).
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "remove", "discard", "setdefault", "sort",
})


@dataclass
class StageInfo:
    """Statically extracted contract of one ``Stage`` subclass.

    Attributes
    ----------
    name:
        Class name.
    module_posix:
        POSIX path of the defining module.
    lineno:
        Line of the ``class`` statement.
    requires, provides:
        Union of the class-level declarations and every
        ``self.requires/provides = (...)`` assignment in ``__init__``
        (branch-dependent declarations are unioned).
    child_classes:
        Names of stage classes instantiated and stored on ``self`` in
        ``__init__`` — the loop-driver pattern; their ``provides``
        count as internally produced names.
    reads, writes:
        ``ctx.<attr>`` loads/stores inferred from the method bodies,
        mapped to the first line each was seen on.
    """

    name: str
    module_posix: str
    lineno: int
    requires: set = field(default_factory=set)
    provides: set = field(default_factory=set)
    child_classes: list = field(default_factory=list)
    reads: dict = field(default_factory=dict)
    writes: dict = field(default_factory=dict)


def _is_stage_class(node: ast.ClassDef) -> bool:
    """Whether a class statically subclasses ``Stage``."""
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "Stage":
            return True
        if isinstance(base, ast.Attribute) and base.attr == "Stage":
            return True
    return False


def _string_tuple(node: ast.AST) -> set | None:
    """Extract a tuple/list of string constants, or ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names: set = set()
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        names.add(element.value)
    return names


def _ctx_param(func: ast.FunctionDef) -> str | None:
    """The name of the pipeline-context parameter, if the method has one."""
    for arg in func.args.args + func.args.kwonlyargs:
        if arg.arg == "ctx":
            return "ctx"
        annotation = arg.annotation
        if annotation is not None:
            text = ast.unparse(annotation)
            if "PipelineContext" in text:
                return arg.arg
    return None


def _extract_stage(node: ast.ClassDef, module: ParsedModule) -> StageInfo:
    """Build the :class:`StageInfo` of one stage class definition."""
    info = StageInfo(node.name, module.posix, node.lineno)
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id in (
                    "requires", "provides"
                ):
                    names = _string_tuple(stmt.value)
                    if names is not None:
                        getattr(info, target.id).update(names)
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name == "__init__":
            _extract_init(stmt, info)
        param = _ctx_param(stmt)
        if param is not None:
            _extract_ctx_usage(stmt, param, info)
    return info


def _extract_init(func: ast.FunctionDef, info: StageInfo) -> None:
    """Union dynamic contract assignments and child-stage attributes."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if target.attr in ("requires", "provides"):
                names = _string_tuple(node.value)
                if names is not None:
                    getattr(info, target.attr).update(names)
            elif isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func)
                if callee is not None and callee.split(".")[-1].endswith("Stage"):
                    info.child_classes.append(callee.split(".")[-1])


def _record(mapping: dict, name: str, lineno: int) -> None:
    """Record the first line a context name was seen on."""
    mapping.setdefault(name, lineno)


def _extract_ctx_usage(
    func: ast.FunctionDef, param: str, info: StageInfo
) -> None:
    """Infer ``ctx.<attr>`` reads/writes from one method body."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == param):
                    _record(info.writes, target.attr, target.lineno)
                    if isinstance(node, ast.AugAssign):
                        _record(info.reads, target.attr, target.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id == param:
                _record(info.reads, node.attr, node.lineno)
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if not isinstance(func_expr, ast.Attribute):
                continue
            target = func_expr.value
            # ctx.helper() with declared dataflow effects.
            if (isinstance(target, ast.Name) and target.id == param
                    and func_expr.attr in CONTEXT_METHOD_EFFECTS):
                reads, writes = CONTEXT_METHOD_EFFECTS[func_expr.attr]
                for name in reads:
                    _record(info.reads, name, node.lineno)
                for name in writes:
                    _record(info.writes, name, node.lineno)
            # ctx.<name>.append(...) and friends mutate <name> in place.
            elif (func_expr.attr in _MUTATORS
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == param):
                _record(info.writes, target.attr, node.lineno)


@register
class StageContractRule(Rule):
    """R201–R203: per-class contract checks of every ``Stage`` subclass."""

    rule_id = "R201"
    title = "stage contract drift"

    def collect(self, module: ParsedModule, run: LintRun) -> None:
        """Gather every stage class declaration into the run state.

        Parameters
        ----------
        module:
            The parsed module.
        run:
            Shared run state; ``run.stage_classes`` is populated.
        """
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_stage_class(node):
                run.stage_classes[node.name] = _extract_stage(node, module)

    def check(self, module: ParsedModule, run: LintRun) -> Iterator[Finding]:
        """Cross-check inferred dataflow against declared contracts.

        Parameters
        ----------
        module:
            The parsed module.
        run:
            Shared run state with every collected stage class.

        Returns
        -------
        Iterator[Finding]
            R201 (undeclared read), R202 (undeclared write) and R203
            (dead declaration) findings for stages in this module.
        """
        flowing = run.config.context_flowing
        path = str(module.path)
        for info in run.stage_classes.values():
            if info.module_posix != module.posix:
                continue
            child_provides: set = set()
            for child in info.child_classes:
                child_info = run.stage_classes.get(child)
                if child_info is not None:
                    child_provides |= child_info.provides
            declared = info.requires | info.provides | child_provides
            for name in sorted(set(info.reads) & flowing - declared):
                yield Finding(
                    path, info.reads[name], 0, "R201",
                    f"stage '{info.name}' reads ctx.{name} but declares it "
                    "in neither requires nor provides",
                    symbol=info.name,
                )
            for name in sorted(set(info.writes) - info.provides):
                yield Finding(
                    path, info.writes[name], 0, "R202",
                    f"stage '{info.name}' writes ctx.{name} without "
                    "declaring it in provides",
                    symbol=info.name,
                )
            for name in sorted((info.requires & flowing) - set(info.reads)):
                yield Finding(
                    path, info.lineno, 0, "R203",
                    f"stage '{info.name}' declares requires={name!r} but "
                    "never reads it (dead declaration)",
                    symbol=info.name,
                )
            for name in sorted(
                info.provides - set(info.writes) - child_provides
            ):
                yield Finding(
                    path, info.lineno, 0, "R203",
                    f"stage '{info.name}' declares provides={name!r} but "
                    "never writes it (dead declaration)",
                    symbol=info.name,
                )


@register
class PipelineOrderRule(Rule):
    """R204: mis-ordered statically visible pipeline compositions."""

    rule_id = "R204"
    title = "pipeline composition order"

    def check(self, module: ParsedModule, run: LintRun) -> Iterator[Finding]:
        """Validate literal ``SparsifyPipeline([...])`` stage lists.

        Parameters
        ----------
        module:
            The parsed module.
        run:
            Shared run state with every collected stage class.

        Returns
        -------
        Iterator[Finding]
            One finding per requirement produced only by a later
            stage of the same composition.
        """
        flowing = run.config.context_flowing
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            callee = dotted_name(node.func)
            if callee is None or callee.split(".")[-1] != "SparsifyPipeline":
                continue
            stage_list = node.args[0]
            if not isinstance(stage_list, (ast.List, ast.Tuple)):
                continue
            infos = []
            for element in stage_list.elts:
                if not isinstance(element, ast.Call):
                    infos = []
                    break
                name = dotted_name(element.func)
                info = run.stage_classes.get(
                    name.split(".")[-1] if name else ""
                )
                if info is None:
                    infos = []
                    break
                infos.append(info)
            if not infos:
                continue  # not fully resolvable statically
            provided_later = [set() for _ in infos]
            running: set = set()
            for i in range(len(infos) - 1, -1, -1):
                provided_later[i] = set(running)
                running |= infos[i].provides
            available: set = set()
            for i, info in enumerate(infos):
                for req in sorted((info.requires & flowing) - available):
                    if req in provided_later[i]:
                        yield Finding(
                            str(module.path), stage_list.elts[i].lineno,
                            stage_list.elts[i].col_offset, "R204",
                            f"pipeline stage '{info.name}' requires "
                            f"'{req}', which only a later stage of this "
                            "composition provides (stages mis-ordered)",
                            symbol=info.name,
                        )
                available |= info.provides
