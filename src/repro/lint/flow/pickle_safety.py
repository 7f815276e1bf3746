"""RPL108 — unpicklable values crossing a process boundary.

Everything handed to a process pool is pickled: the callable, its
arguments, and whatever the worker returns.  Values that cannot be
pickled fail at submission time at best; at worst they *appear* to work
under fork (the child inherits the object) and break only when the
start method changes — so the rule bans them statically.

Positive evidence, gathered at the submission sites and worker entries
the :mod:`~repro.lint.flow.workers` index discovered:

- a **lambda** or **locally defined function** submitted to a pool
  (pickle serializes functions by qualified name; neither has an
  importable one);
- a **submission argument** whose inferred type is unpicklable: a live
  simulation object (:class:`~repro.sim.engine.Engine`,
  :class:`~repro.sim.events.Event`, :class:`~repro.sim.resources.
  Facility` — all carrying engine back-references), a telemetry sink
  (live handles, parent-side buffers), or a local bound by ``open(...)``;
- a worker entry whose **parameter annotations** or **returned locals**
  are of those same types — the return value crosses the boundary just
  like the arguments did.

Receivers the type inference cannot pin contribute nothing.  Workers
exchange plain dicts of scalars by convention (see
:mod:`repro.sweep.worker`); this rule is what keeps that convention
honest as the codebase grows.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic
from ..rules import FlowRule, dotted_name, register
from .effects import iter_own_statements
from .symbols import ClassInfo, Module, Project
from .workers import worker_index

#: Project classes that must never cross a process boundary.
UNPICKLABLE_CLASSES = frozenset({
    "repro.sim.engine.Engine",
    "repro.sim.events.Event",
    "repro.sim.resources.Facility",
})

#: Base classes whose whole subtree is boundary-banned.
UNPICKLABLE_BASES = ("TelemetrySink",)


def _unpicklable_reason(project: Project, class_qual: str) -> str | None:
    """Why ``class_qual`` must not be pickled, or None if it may be."""
    if class_qual in UNPICKLABLE_CLASSES:
        return f"{class_qual} carries live simulation state"
    info = project.class_info(class_qual)
    if info is not None and _derives_from(project, info, UNPICKLABLE_BASES):
        return f"{class_qual} is a live telemetry sink"
    return None


def _derives_from(
    project: Project, info: ClassInfo, names: tuple, _depth: int = 0
) -> bool:
    if _depth > 8:
        return False
    if info.name in names:
        return True
    module = project.modules.get(info.module)
    if module is None:
        return False
    for base in info.base_exprs:
        chain = dotted_name(base)
        if not chain:
            continue
        if chain[-1] in names:
            return True
        symbol = project.resolve_dotted(module, chain)
        if symbol is None or symbol.kind != "class":
            continue
        base_info = project.class_info(symbol.qualname)
        if base_info is not None and _derives_from(
            project, base_info, names, _depth + 1
        ):
            return True
    return False


def _open_handles(fn_node: ast.AST) -> set[str]:
    """Local names bound by ``open(...)`` (assign or ``with`` target)."""
    handles: set[str] = set()

    def is_open(value: ast.expr) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "open"
        )

    for stmt in iter_own_statements(getattr(fn_node, "body", [])):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and is_open(stmt.value)
        ):
            handles.add(stmt.targets[0].id)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name) and is_open(
                    item.context_expr
                ):
                    handles.add(item.optional_vars.id)
    return handles


@register
class PickleSafety(FlowRule):
    """Only picklable values may cross the process boundary.

    Checks every pool submission site (callable and arguments) and
    every worker entry's parameters and returns against the inferred
    types the call graph's local type inference can pin.
    """

    id = "RPL108"
    title = "unpicklable value crossing a process boundary"
    hint = (
        "exchange plain dicts/dataclasses of scalars with workers; "
        "rebuild live objects (engines, sinks, handles) inside the "
        "worker from the payload"
    )

    def run(self) -> list[Diagnostic]:
        index = worker_index(self.project)
        for site in index.submissions:
            self._check_site(index, site)
        for entry in sorted(index.entries):
            self._check_entry(index, entry)
        return sorted(self.diagnostics)

    # ------------------------------------------------------------------
    def _check_site(self, index, site) -> None:
        if site.target_kind == "lambda":
            self.report(
                site.path, site.line, site.col,
                f"lambda submitted to {site.api} in {site.caller}; "
                f"lambdas have no importable qualified name and cannot "
                f"be pickled",
            )
        elif site.target_kind == "local-function":
            self.report(
                site.path, site.line, site.col,
                f"locally defined function {site.target} submitted to "
                f"{site.api}; only module-level functions pickle",
            )
        fn = index.graph.functions.get(site.caller)
        module = index.project.modules.get(site.module)
        if fn is None or module is None:
            return
        types = index.graph.local_types(fn)
        handles = _open_handles(fn.node)
        for arg in [*site.call.args, *[k.value for k in site.call.keywords]]:
            self._check_value(
                index.project, module, types, handles, arg,
                f"argument to {site.api} in {site.caller}",
                site.path,
            )

    def _check_entry(self, index, entry: str) -> None:
        fn = index.graph.functions.get(entry)
        if fn is None:
            return
        module = index.project.modules.get(fn.module)
        if module is None:
            return
        path = module.ctx.path
        # Parameter annotations: these values arrive via pickle.
        from .callgraph import annotation_class

        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            class_qual = annotation_class(
                index.project, module, arg.annotation
            )
            if class_qual is None:
                continue
            reason = _unpicklable_reason(index.project, class_qual)
            if reason is not None:
                self.report(
                    path, arg.lineno, arg.col_offset,
                    f"worker entry {entry} takes parameter {arg.arg!r} of "
                    f"unpicklable type: {reason}",
                )
        # Returns: these values leave via pickle.
        types = index.graph.local_types(fn)
        handles = _open_handles(fn.node)
        for stmt in iter_own_statements(fn.node.body):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                self._check_value(
                    index.project, module, types, handles, stmt.value,
                    f"return value of worker entry {entry}",
                    path,
                )

    def _check_value(
        self,
        project: Project,
        module: Module,
        types: dict,
        handles: set,
        expr: ast.expr,
        what: str,
        path: str,
    ) -> None:
        if isinstance(expr, ast.Lambda):
            self.report(
                path, expr.lineno, expr.col_offset,
                f"lambda as {what}; lambdas cannot be pickled",
            )
            return
        chain = dotted_name(expr)
        if not chain:
            return
        text = ".".join(chain)
        if len(chain) == 1 and chain[0] in handles:
            self.report(
                path, expr.lineno, expr.col_offset,
                f"open file handle {chain[0]!r} as {what}; handles "
                f"cannot cross process boundaries",
            )
            return
        class_qual = types.get(text)
        if class_qual is None:
            return
        reason = _unpicklable_reason(project, class_qual)
        if reason is not None:
            self.report(
                path, expr.lineno, expr.col_offset,
                f"{text!r} as {what} has unpicklable type: {reason}",
            )
