"""RPL103 — mutation of contract-protected state outside its mutators.

``repro.contracts`` guards the interval/ownership invariants at runtime:
classes in ``core/``, ``cluster/``, ``fs/`` and ``membership/`` expose a
validator (``check_invariants``/``check_consistency``) and wrap their
mutators in ``@checks_invariants``/``@preserves``/``@invariant``.  The
guarantee only holds if *every* write to the validated state goes
through a wrapped mutator — a direct ``cluster._ownership[x] = y`` from
another module bypasses the contract entirely and, with
``REPRO_CONTRACTS=off``, is indistinguishable from correct code until an
invariant test fails.

This rule computes, per protected class:

- the *protected attributes*: every ``self.<attr>`` the validator reads;
- the *sanctioned writers*: ``__init__``/``__post_init__``/``__new__``,
  any method carrying a contract decorator, and every method reachable
  from a sanctioned writer through the intra-class call graph (helpers
  like ``_shrink`` called by a ``@checks_invariants`` mutator inherit
  its sanction);

then flags every attribute store (including subscript writes and
``del``) whose receiver resolves to a protected class when the write is
(a) outside the class entirely, or (b) in an unsanctioned method.
Constructor field binds are not mutations and never fire.

The protected-state table (:data:`PROTECTED_LAYERS`,
:func:`protected_attrs`, :func:`is_contract_mutator`) is shared with
RPL106 (:mod:`~repro.lint.flow.torn_state`).
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic
from ..rules import FlowRule, register
from .callgraph import CallGraph, FunctionNode
from .dataflow import Lattice, SymbolicEvaluator, finalize, run_evaluators
from .effects import effect_analysis
from .symbols import ClassInfo, Project

#: Validator method names that define a class's protected state.
VALIDATORS = ("check_invariants", "check_consistency")

#: Decorators (by terminal name, resolved against ``repro.contracts``)
#: that sanction a method to mutate protected state.
CONTRACT_DECORATORS = frozenset({"checks_invariants", "preserves", "invariant"})

#: Layers whose validated classes hold contract-protected state.
PROTECTED_LAYERS = ("core", "cluster", "fs", "membership")

#: Methods sanctioned by construction semantics rather than contracts.
_CONSTRUCTION = frozenset({"__init__", "__post_init__", "__new__"})


def protected_attrs(info: ClassInfo) -> frozenset:
    """Every ``self.<attr>`` the class's validator(s) read."""
    out: set[str] = set()
    for name in VALIDATORS:
        validator = info.methods.get(name)
        if validator is None:
            continue
        for node in ast.walk(validator):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr not in info.methods
            ):
                out.add(node.attr)
    return frozenset(out)


def protected_classes(project: Project):
    """Yield ``(info, attrs)`` for each class holding protected state.

    A class qualifies when it lives in a :data:`PROTECTED_LAYERS` layer
    and its validator reads at least one ``self`` attribute.
    """
    for info in project.iter_classes():
        parts = info.module.split(".")
        if len(parts) < 2 or parts[1] not in PROTECTED_LAYERS:
            continue
        attrs = protected_attrs(info)
        if attrs:
            yield info, attrs


def is_contract_mutator(fn: FunctionNode) -> bool:
    """Whether ``fn`` carries one of :data:`CONTRACT_DECORATORS`."""
    return any(
        decorator.rsplit(".", 1)[-1] in CONTRACT_DECORATORS
        for decorator in fn.decorators
    )


def _sanctioned_methods(graph: CallGraph, class_qualname: str) -> frozenset:
    """Methods allowed to write the class's protected attributes."""
    prefix = f"{class_qualname}."
    seeds: set[str] = set()
    for qualname, fn in graph.functions.items():
        if not qualname.startswith(prefix):
            continue
        if qualname[len(prefix):] in _CONSTRUCTION or is_contract_mutator(fn):
            seeds.add(qualname)
    # Sanction propagates through intra-class calls only: a decorated
    # mutator may delegate to private helpers, but a cross-class call
    # never launders a write.
    sanctioned = set(seeds)
    frontier = list(seeds)
    while frontier:
        current = frontier.pop()
        for callee in graph.edges.get(current, ()):
            if callee.startswith(prefix) and callee not in sanctioned:
                sanctioned.add(callee)
                frontier.append(callee)
        # Nested defs inherit their parent scope's sanction.
        for qualname in graph.functions:
            if (
                qualname.startswith(f"{current}.<locals>.")
                and qualname not in sanctioned
            ):
                sanctioned.add(qualname)
                frontier.append(qualname)
    return frozenset(sanctioned)


@register
class ContractBypass(FlowRule):
    """Interval/ownership state must change only through contract-wrapped
    mutators.

    The runtime contracts in ``repro.contracts`` re-validate class
    invariants after every wrapped mutator, which is what lets the
    half-occupancy and boundary-preservation properties survive
    refactoring.  A write that reaches the same state from outside —
    another class poking ``_ownership``, or an undecorated method
    flipping ``servers`` — skips validation and can only be caught,
    much later, by a failing statistical test.  This rule finds such
    writes across function and module boundaries by resolving each
    attribute store's receiver class; helpers called by a sanctioned
    mutator are themselves sanctioned, so contract-clean refactorings
    do not fire it.
    """

    id = "RPL103"
    title = "contract bypass: protected state written outside its mutators"
    hint = (
        "route the write through a @checks_invariants/@preserves/"
        "@invariant mutator on the owning class"
    )

    def run(self) -> list[Diagnostic]:
        protected = {
            info.qualname: attrs
            for info, attrs in protected_classes(self.project)
        }
        if not protected:
            return []
        graph = effect_analysis(self.project).graph
        sanctioned = {
            qualname: _sanctioned_methods(graph, qualname)
            for qualname in protected
        }
        lattice = Lattice()
        run_evaluators(
            self.project,
            lambda module, qualname, fn, owner: SymbolicEvaluator(
                self.project, lattice, module, qualname, fn, owner
            ),
        )
        finalize(lattice)
        seen: set[tuple] = set()
        for store in lattice.stores:
            if store.is_ctor:
                continue
            for atom in lattice.resolve(store.owner_atoms):
                if atom.kind != "instance":
                    continue
                target = atom.key[0]
                attrs = protected.get(target)
                if attrs is None or store.attr not in attrs:
                    continue
                if store.context in sanctioned[target]:
                    continue
                key = (store.path, store.line, store.col, target, store.attr)
                if key in seen:
                    continue
                seen.add(key)
                if store.context_class == target:
                    detail = (
                        f"method {store.context} is not a contract-wrapped "
                        f"mutator"
                    )
                else:
                    detail = f"written from outside the class ({store.context})"
                self.report(
                    store.path,
                    store.line,
                    store.col,
                    f"write to {target}.{store.attr} bypasses its contract "
                    f"({detail})",
                )
        return sorted(self.diagnostics)
