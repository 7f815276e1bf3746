"""RPL106 — contract-protected state mutated before a reachable raise.

A ``@checks_invariants`` mutator promises its class invariants hold on
*every* exit.  The contract wrapper re-validates on successful return —
but an exception path skips the wrapper's check and, worse, skips the
caller's assumption that a failed call changed nothing.  A mutator that
writes protected state and *then* validates its arguments leaves the
object torn when validation raises: ``MappedInterval.add_server`` with a
bad share fraction must not have already doubled the partition count.

The rule combines three existing pieces of evidence:

- *which attributes are protected* comes from RPL103's protected-state
  table — the ``self.<attr>`` reads of the class validator
  (``check_invariants``/``check_consistency``) in the same layers;
- *which methods promise atomicity* are those RPL103 also treats as
  contract mutators: the ones carrying a contract decorator
  (``@checks_invariants``/``@preserves``/``@invariant``);
- *which calls write protected state* comes from the effect analysis:
  a ``self.helper()`` call counts as a write when the callee's
  transitively-propagated ``all_self_writes`` (intra-class closure)
  intersects the protected set — ``add_server`` tears state through
  ``self.repartition()``, not through a direct store.

Write tracking uses *may* semantics (a write on any path taints the
raise) while raises are only reported when they escape: ``raise
AssertionError`` (unreachable-branch markers) and raises inside ``try``
blocks with handlers are exempt.  The fix is validate-then-mutate:
hoist every argument check above the first protected write.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic
from ..rules import FlowRule, dotted_name, register
from .callgraph import FunctionNode
from .effects import (
    EffectAnalysis,
    effect_analysis,
    iter_own_statements,
    raise_escapes,
    written_self_attr,
)
from .mutation import is_contract_mutator, protected_classes
from .symbols import Module


@register
class MutateThenRaise(FlowRule):
    """Contract-decorated mutators must validate before they mutate.

    When a mutator raises after writing validator-read state (directly
    or through an intra-class helper), the exception path publishes a
    half-applied transition: the caller catches the error believing
    nothing changed, the contract wrapper never re-validates, and the
    torn object poisons every later step of a seeded run.  Reorder the
    method so all argument/legality raises precede the first protected
    write.
    """

    id = "RPL106"
    title = "protected state written before a reachable raise"
    hint = (
        "hoist the validation raise above the first write (or helper "
        "call that writes) so a failed mutator leaves the object intact"
    )

    def run(self) -> list[Diagnostic]:
        analysis = effect_analysis(self.project)
        graph = analysis.graph
        for info, protected in protected_classes(self.project):
            for method in sorted(info.methods):
                qualname = f"{info.qualname}.{method}"
                fn = graph.functions.get(qualname)
                if fn is None or not is_contract_mutator(fn):
                    continue
                module = self.project.modules[fn.module]
                walker = _TornWalker(self, analysis, module, fn, protected)
                walker.walk(fn.node.body, None, in_try=False)
        return sorted(self.diagnostics)


class _TornWalker:
    """Order-aware walk tracking whether protected state may be written.

    The write state is ``None`` (clean so far) or ``(line, what)``
    describing the first tainting write, which the report names so the
    reader sees both ends of the torn window.
    """

    def __init__(
        self,
        rule: MutateThenRaise,
        analysis: EffectAnalysis,
        module: Module,
        fn: FunctionNode,
        protected: frozenset,
    ) -> None:
        self.rule = rule
        self.analysis = analysis
        self.module = module
        self.fn = fn
        self.protected = protected
        self._reported: set[tuple] = set()

    # ------------------------------------------------------------------
    def walk(self, stmts, written, in_try: bool):
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, ast.Raise):
                if written and not in_try and raise_escapes(stmt):
                    self._report(stmt, written)
                continue
            if isinstance(stmt, ast.If):
                then = self.walk(stmt.body, written, in_try)
                other = self.walk(stmt.orelse, written, in_try)
                written = written or then or other
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                # A raise in iteration N follows the writes of 1..N-1:
                # walk the body already tainted by anything it may write.
                body_written = written or self._may_write(stmt.body)
                self.walk(stmt.body, body_written, in_try)
                written = body_written
                continue
            if isinstance(stmt, ast.Try):
                guarded = in_try or bool(stmt.handlers)
                body_written = self.walk(stmt.body, written, guarded)
                for handler in stmt.handlers:
                    self.walk(handler.body, body_written, in_try)
                body_written = self.walk(stmt.orelse, body_written, in_try)
                written = self.walk(stmt.finalbody, body_written, in_try)
                continue
            if isinstance(stmt, ast.With):
                written = self.walk(stmt.body, written, in_try)
                continue
            written = written or self._stmt_write(stmt)
            if isinstance(stmt, ast.Return):
                break
        return written

    # ------------------------------------------------------------------
    def _stmt_write(self, stmt: ast.stmt):
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            attr = written_self_attr(target)
            if attr is not None and attr in self.protected:
                return (stmt.lineno, f"self.{attr}")
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if len(chain) != 2 or chain[0] != "self":
                continue
            callee = self.analysis.graph.resolve_site(self.fn, node)
            if callee is None:
                continue
            summary = self.analysis.summaries.get(callee)
            if summary is None:
                continue
            touched = summary.all_self_writes & self.protected
            if touched:
                what = ", ".join(f"self.{a}" for a in sorted(touched))
                return (node.lineno, f"self.{chain[1]}() (writes {what})")
        return None

    def _may_write(self, stmts):
        for stmt in iter_own_statements(stmts):
            write = self._stmt_write(stmt)
            if write:
                return write
        return None

    def _report(self, stmt: ast.Raise, written) -> None:
        key = (stmt.lineno, stmt.col_offset)
        if key in self._reported:
            return
        self._reported.add(key)
        line, what = written
        self.rule.report(
            self.module.ctx.path,
            stmt.lineno,
            stmt.col_offset,
            f"{what} on line {line} mutates contract-protected state "
            f"before this raise — the exception path leaves the object "
            f"torn; validate before mutating",
        )
