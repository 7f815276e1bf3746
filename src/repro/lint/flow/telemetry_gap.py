"""RPL105 — paired telemetry emissions that an exception path can split.

The telemetry stream is this repository's replay evidence: consumers
(metrics, the chaos soak, ``repro-dsan``) rely on *protocol* pairs —
a :class:`~repro.runtime.telemetry.FaultInjected` record is always
followed by the :class:`~repro.runtime.telemetry.MembershipChanged`
record describing what that fault did; a move-start is eventually paired
with a move-finish.  A function that emits the first half of such a pair
and *then* runs validation that can raise leaves a dangling record in
the stream: the sink says a fault was applied that the roster in fact
rejected, and every digest-chain comparison downstream of it diverges
from the harness state.

Positive-evidence scoping (why this converges to zero on clean code):

- only functions whose own body emits **two or more distinct record
  types** are examined — they are the ones implementing a protocol;
- a gap is reported at an escaping ``raise`` in the function's own body,
  or at a call to a *direct* callee whose own body has a
  validation-raise-at-head (a guard like ``MembershipRoster.commission``
  that raises before performing any effect).  Deeper raises are internal
  errors, not validation the caller should have hoisted;
- ``raise AssertionError`` (closed-enum / unreachable branches) is
  exempt, as are raises inside ``try`` blocks that have handlers;
- ``if sink.enabled:`` guards are transparent: the analysis reasons
  about the telemetry-enabled world, which is the only one with a
  stream to tear.

The fix is always the same: validate first, emit after — legality
checks belong before the first record of the pair.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic
from ..rules import FlowRule, dotted_name, register
from .callgraph import FunctionNode
from .effects import (
    EffectAnalysis,
    effect_analysis,
    iter_emissions,
    raise_escapes,
)
from .symbols import Module


@register
class TelemetryGap(FlowRule):
    """A validation raise between paired telemetry emissions.

    Every path that emits the first record of a multi-record protocol
    must reach the records that complete it; an exception in between
    publishes an event that never happened.  Emit after validating —
    or validate in the caller before the first emission.
    """

    id = "RPL105"
    title = "telemetry pair split by an exception path"
    hint = (
        "hoist the validation (or the legality-checking call) above the "
        "first emission so a rejected event emits nothing"
    )

    def run(self) -> list[Diagnostic]:
        analysis = effect_analysis(self.project)
        for qualname in sorted(analysis.summaries):
            summary = analysis.summaries[qualname]
            kinds = {site.record for site in summary.emissions}
            if len(kinds) < 2:
                continue
            fn = analysis.graph.functions[qualname]
            module = self.project.modules[fn.module]
            walker = _GapWalker(self, analysis, module, fn, frozenset(kinds))
            walker.walk(fn.node.body, frozenset(), in_try=False)
        return sorted(self.diagnostics)


def _is_sink_guard(test: ast.expr) -> bool:
    """Whether an ``if`` test is the ``<sink>.enabled`` hot-path guard."""
    chain = dotted_name(test)
    return bool(chain) and chain[-1] == "enabled"


class _GapWalker:
    """Order-aware walk tracking which record types have been emitted.

    The emitted set uses *must* semantics across branches (intersection)
    so only records every path has published count as dangling — except
    under a transparent sink guard, where the enabled world's state is
    taken as-is.
    """

    def __init__(
        self,
        rule: TelemetryGap,
        analysis: EffectAnalysis,
        module: Module,
        fn: FunctionNode,
        all_kinds: frozenset,
    ) -> None:
        self.rule = rule
        self.analysis = analysis
        self.module = module
        self.fn = fn
        self.all_kinds = all_kinds
        self._reported: set[tuple] = set()

    # ------------------------------------------------------------------
    def walk(self, stmts, emitted: frozenset, in_try: bool) -> frozenset:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, ast.Raise):
                if not in_try and raise_escapes(stmt):
                    self._check(stmt, emitted, "this raise fires")
                continue
            if isinstance(stmt, ast.If):
                if _is_sink_guard(stmt.test) and not stmt.orelse:
                    emitted = self.walk(stmt.body, emitted, in_try)
                else:
                    then = self.walk(stmt.body, emitted, in_try)
                    other = self.walk(stmt.orelse, emitted, in_try)
                    emitted = then & other
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                # Second iterations see the first's emissions: re-walk the
                # body with everything it may emit (reports de-dupe).
                may_emit = emitted | self._emissions_of(stmt.body)
                self.walk(stmt.body, emitted, in_try)
                self.walk(stmt.body, may_emit, in_try)
                # The loop may run zero times: must-state is unchanged.
                continue
            if isinstance(stmt, ast.Try):
                guarded = in_try or bool(stmt.handlers)
                self.walk(stmt.body, emitted, guarded)
                for handler in stmt.handlers:
                    self.walk(handler.body, emitted, in_try)
                self.walk(stmt.orelse, emitted, in_try)
                self.walk(stmt.finalbody, emitted, in_try)
                continue
            if isinstance(stmt, ast.With):
                emitted = self.walk(stmt.body, emitted, in_try)
                continue
            # Simple statement: check raising callees against the state
            # *before* it runs, then fold in what it emits.
            if not in_try:
                self._check_callees(stmt, emitted)
            emitted = emitted | self._emissions_of([stmt])
            if isinstance(stmt, ast.Return):
                break
        return emitted

    # ------------------------------------------------------------------
    def _emissions_of(self, stmts) -> frozenset:
        return frozenset(
            record
            for record, _ in iter_emissions(
                self.analysis.project, self.module, stmts
            )
        )

    def _check_callees(self, stmt: ast.stmt, emitted: frozenset) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = self.analysis.graph.resolve_site(self.fn, node)
            if callee is None:
                continue
            summary = self.analysis.summaries.get(callee)
            if summary is not None and summary.head_raise:
                self._check(
                    node, emitted, f"{callee} can reject the call and raise"
                )

    def _check(self, node: ast.AST, emitted: frozenset, reason: str) -> None:
        if not emitted or self.all_kinds <= emitted:
            return
        key = (node.lineno, node.col_offset)
        if key in self._reported:
            return
        self._reported.add(key)
        pending = ", ".join(sorted(self.all_kinds - emitted))
        have = ", ".join(sorted(emitted))
        self.rule.report(
            self.module.ctx.path,
            node.lineno,
            node.col_offset,
            f"{have} already emitted but {pending} is skipped when "
            f"{reason} — the stream records an event that never completed",
        )
