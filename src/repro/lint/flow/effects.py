"""Interprocedural effect-and-purity summaries over the call graph.

The determinism story of this repository rests on every seeded run being
a pure function of ``(scenario, seed)``.  The per-file rules catch the
obvious impurities (RPL001 wall clock, RPL002 ad-hoc RNGs, RPL003 set
iteration), but cross-function effects — a helper three calls below
``Scenario.run_cluster`` quietly reading ``os.environ``, a mutator that
tears contract state on its exception path, a fault driver that emits
half of a paired telemetry protocol before raising — need a *summary* of
what each function does that composes across the call graph.

This module computes one :class:`EffectSummary` per function:

- **ambient reads** — ``os.environ``, wall-clock calls, global-RNG
  draws, and reads of module-level globals that some function mutates
  (``global`` statement); each with its source location;
- **self writes** — attributes the function stores on ``self``
  (including subscript stores, augmented assigns, and ``del``);
- **emissions** — ``sink.emit(Record(...))`` sites whose argument
  resolves to a :class:`~repro.runtime.telemetry.TelemetryRecord`
  subclass, in source order;
- **head raise** — whether the function validates-then-raises before
  performing any effect (the shape of a guard like
  ``MembershipRoster.commission``).

Only self writes are propagated over :class:`~repro.lint.flow.callgraph.
CallGraph` edges: ``all_self_writes`` closes them over *intra-class*
calls (``self.repartition()`` inside ``add_server`` writes whatever
``repartition`` writes).  Ambient reads stay direct; each consuming rule
follows them through its own reachability walk.  RPL104–RPL110 read
the summaries and RPL103 reads the same call graph; one analysis
instance is shared per project so the linter builds the graph once.

Everything here is positive evidence only: a call that cannot be
resolved, a receiver whose class is unknown, or a record argument that
is not a literal constructor contributes *nothing*, never a guess.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass

from ..rules import dotted_name
from .callgraph import CallGraph, FunctionNode
from .symbols import ClassInfo, Module, Project

#: Fully qualified callables that read the wall clock.
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module prefixes whose draws use interpreter-global RNG state.
GLOBAL_RNG_PREFIXES = ("random.", "numpy.random.")


@dataclass(frozen=True, order=True)
class AmbientRead:
    """One read of process-ambient state inside a function body."""

    kind: str    #: ``environ`` / ``wall-clock`` / ``global-rng`` / ``mutable-global``
    detail: str  #: what was read, e.g. ``os.environ`` or ``repro.x._cache``
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class EmissionSite:
    """One ``<sink>.emit(Record(...))`` call with a resolved record type."""

    record: str  #: terminal class name, e.g. ``FaultInjected``
    line: int
    col: int


@dataclass
class EffectSummary:
    """What one function does to the world, directly and transitively."""

    qualname: str
    #: Direct ambient reads, in source order.
    reads: tuple[AmbientRead, ...] = ()
    #: Attributes this function writes on ``self`` (direct stores only).
    self_writes: frozenset = frozenset()
    #: Resolved telemetry emissions, in source order.
    emissions: tuple[EmissionSite, ...] = ()
    #: The function raises (a non-``AssertionError``) before any effect —
    #: the validate-at-head shape of a guard method.
    head_raise: bool = False
    #: Fixpoint: self writes closed over intra-class ``self.m()`` calls.
    all_self_writes: frozenset = frozenset()


# ----------------------------------------------------------------------
# Shared AST helpers (also used by the consuming rules)
# ----------------------------------------------------------------------
def written_self_attr(target: ast.expr) -> str | None:
    """The ``self`` attribute a store target writes, peeling subscripts.

    ``self._owner[idx]`` and ``self._shares`` both resolve to their
    attribute name; anything not rooted at ``self`` returns None.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def raise_escapes(stmt: ast.Raise) -> bool:
    """Whether a ``raise`` signals a real error to the caller.

    ``raise AssertionError(...)`` marks a branch the author believes
    unreachable (closed enums, internal sanity) and ``raise
    NotImplementedError`` marks an abstract stub a subclass overrides —
    neither is an input-validation path, so the paired-telemetry and
    torn-state rules exempt both.  Everything else (including a bare
    re-raise) escapes.
    """
    exc = stmt.exc
    if exc is None:
        return True
    if isinstance(exc, ast.Call):
        exc = exc.func
    chain = dotted_name(exc)
    return not (
        chain and chain[-1] in ("AssertionError", "NotImplementedError")
    )


def record_class(project: Project, module: Module, call: ast.Call) -> str | None:
    """Terminal class name if ``call`` constructs a telemetry record."""
    chain = dotted_name(call.func)
    if not chain:
        return None
    symbol = project.resolve_dotted(module, chain)
    if symbol is None or symbol.kind != "class":
        return None
    info = project.class_info(symbol.qualname)
    if info is not None and _is_record_class(project, info):
        return symbol.qualname.rsplit(".", 1)[-1]
    return None


def _is_record_class(project: Project, info: ClassInfo, _depth: int = 0) -> bool:
    """Whether ``info`` subclasses (or is) ``TelemetryRecord``."""
    if _depth > 8:
        return False
    if info.name == "TelemetryRecord":
        return True
    module = project.modules.get(info.module)
    if module is None:
        return False
    for base in info.base_exprs:
        chain = dotted_name(base)
        if not chain:
            continue
        if chain[-1] == "TelemetryRecord":
            return True
        symbol = project.resolve_dotted(module, chain)
        if symbol is None or symbol.kind != "class":
            continue
        base_info = project.class_info(symbol.qualname)
        if base_info is not None and _is_record_class(
            project, base_info, _depth + 1
        ):
            return True
    return False


def emitted_record(
    project: Project, module: Module, node: ast.AST
) -> str | None:
    """Terminal record class name if ``node`` is a resolved emission.

    An emission is ``<anything>.emit(Record(...))`` with exactly one
    positional argument that is a constructor of a project class derived
    from ``TelemetryRecord``.
    """
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Call)
    ):
        return record_class(project, module, node.args[0])
    return None


def iter_emissions(project: Project, module: Module, nodes):
    """Yield ``(record_name, call)`` for each emission in ``nodes``.

    Nested function bodies are not entered — their emissions belong to
    their own summary.
    """
    stack = list(nodes)
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        record = emitted_record(project, module, current)
        if record is not None:
            yield record, current
        stack.extend(ast.iter_child_nodes(current))


def iter_own_statements(stmts):
    """Pre-order walk over statements, not descending into nested defs."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield stmt
        for block in _child_blocks(stmt):
            yield from iter_own_statements(block)


def _child_blocks(stmt: ast.stmt):
    """Statement lists nested directly inside one compound statement."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
class EffectAnalysis:
    """Per-function effect summaries plus their self-write fixpoint."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph(project)
        #: ``module.name`` -> True for module-level globals some function
        #: mutates (via a ``global`` statement).
        self.mutated_globals = self._collect_mutated_globals()
        self.summaries: dict[str, EffectSummary] = {}
        for qualname, fn in self.graph.functions.items():
            self.summaries[qualname] = self._summarize(fn)
        self._propagate()

    # ------------------------------------------------------------------
    def _collect_mutated_globals(self) -> frozenset:
        mutated: set[str] = set()
        for fn in self.graph.functions.values():
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Global):
                    for name in node.names:
                        mutated.add(f"{fn.module}.{name}")
        return frozenset(mutated)

    # ------------------------------------------------------------------
    def _summarize(self, fn: FunctionNode) -> EffectSummary:
        module = self.project.modules[fn.module]
        scanner = _FunctionScanner(self, module, fn)
        scanner.scan()
        return EffectSummary(
            qualname=fn.qualname,
            reads=tuple(sorted(set(scanner.reads))),
            self_writes=frozenset(scanner.self_writes),
            emissions=tuple(
                sorted(scanner.emissions, key=lambda e: (e.line, e.col))
            ),
            head_raise=self._head_raise(fn),
        )

    def _head_raise(self, fn: FunctionNode) -> bool:
        """Raise-before-any-effect: the validate-at-head guard shape.

        Effects that end the head are ``self`` stores and bare call
        statements (a call's own effects are unknown, so a raise after
        one is no longer pure validation).
        """
        for stmt in iter_own_statements(fn.node.body):
            if isinstance(stmt, ast.Raise):
                return raise_escapes(stmt)
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                if any(written_self_attr(t) is not None for t in targets):
                    return False
            elif isinstance(stmt, ast.Delete):
                if any(written_self_attr(t) is not None for t in stmt.targets):
                    return False
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                return False
        return False

    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        """Close self writes over intra-class call edges, to a fixpoint.

        A cross-class call mutates a different object's state, not this
        receiver's, so only edges between methods of one class carry
        writes.
        """
        writes = {q: set(s.self_writes) for q, s in self.summaries.items()}
        edges = [
            (writes[caller], writes[callee])
            for caller, callees in self.graph.edges.items()
            if caller in writes
            for callee in callees
            if callee in writes and self._intra_class(caller, callee)
        ]
        changed = True
        while changed:
            changed = False
            for caller, callee in edges:
                if not caller >= callee:
                    caller |= callee
                    changed = True
        for qualname, summary in self.summaries.items():
            summary.all_self_writes = frozenset(writes[qualname])

    def _intra_class(self, caller: str, callee: str) -> bool:
        a = self.graph.functions[caller].owner
        b = self.graph.functions[callee].owner
        return a is not None and a is b


class _FunctionScanner(ast.NodeVisitor):
    """Collects one function's direct effects (nested defs excluded)."""

    def __init__(
        self, analysis: EffectAnalysis, module: Module, fn: FunctionNode
    ) -> None:
        self.analysis = analysis
        self.project = analysis.project
        self.module = module
        self.fn = fn
        self.reads: list[AmbientRead] = []
        self.self_writes: list[str] = []
        self.emissions: list[EmissionSite] = []

    def scan(self) -> None:
        for stmt in self.fn.node.body:
            self.visit(stmt)

    # -- scoping -------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Nested defs are separate graph nodes; do not descend."""

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- ambient reads -------------------------------------------------
    def _read(self, kind: str, detail: str, node: ast.AST) -> None:
        self.reads.append(
            AmbientRead(
                kind=kind,
                detail=detail,
                path=self.module.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    def _ambient_chain(self, chain: tuple[str, ...], node: ast.AST) -> bool:
        """Classify a dotted load; True when it was consumed as a read."""
        qualified = self.project.qualify_chain(self.module, chain)
        if qualified is None:
            return False
        if qualified == "os.environ" or qualified.startswith("os.environ."):
            self._read("environ", "os.environ", node)
            return True
        symbol = self.project.resolve_dotted(self.module, chain)
        if (
            symbol is not None
            and symbol.kind == "value"
            and symbol.qualname in self.analysis.mutated_globals
        ):
            self._read("mutable-global", symbol.qualname, node)
            return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if chain:
            qualified = self.project.qualify_chain(self.module, chain)
            if qualified in WALL_CLOCK:
                self._read("wall-clock", qualified, node)
            elif qualified == "os.getenv":
                self._read("environ", "os.getenv", node)
            elif qualified is not None and qualified.startswith(
                GLOBAL_RNG_PREFIXES
            ):
                self._read("global-rng", qualified, node)
        record = emitted_record(self.project, self.module, node)
        if record is not None:
            self.emissions.append(
                EmissionSite(
                    record=record, line=node.lineno, col=node.col_offset
                )
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = dotted_name(node)
        if chain and self._ambient_chain(chain, node):
            return  # consumed the whole chain; don't re-visit its parts
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._ambient_chain((node.id,), node)

    # -- self writes ---------------------------------------------------
    def _note_writes(self, targets) -> None:
        for target in targets:
            attr = written_self_attr(target)
            if attr is not None:
                self.self_writes.append(attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_writes(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_writes([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_writes([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._note_writes(node.targets)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# One analysis per project (every consuming rule shares it)
# ----------------------------------------------------------------------
_ANALYSES: "weakref.WeakKeyDictionary[Project, EffectAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def effect_analysis(project: Project) -> EffectAnalysis:
    """The (memoized) effect analysis for ``project``."""
    analysis = _ANALYSES.get(project)
    if analysis is None:
        analysis = EffectAnalysis(project)
        _ANALYSES[project] = analysis
    return analysis
