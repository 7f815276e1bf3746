"""Whole-program facts the flow rules share instead of recomputing.

Every flow rule that needs the call graph reads the one instance the
memoized effect analysis builds, and RPL103/RPL106 read one
protected-state table (layers, validator-read attributes, contract
decorators), so RPL103 guards ``membership/`` exactly as RPL106 does.
"""

from repro.lint import lint_project
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.mutation import ContractBypass
from repro.lint.flow.torn_state import MutateThenRaise

ROSTER_MODULE = (
    "from ..contracts import checks_invariants\n"
    "class Roster:\n"
    "    def __init__(self):\n"
    "        self._states = {}\n"
    "    def check_invariants(self):\n"
    "        for name in self._states:\n"
    "            assert name\n"
    "    @checks_invariants\n"
    "    def commission(self, name):\n"
    "        self._states[name] = 'active'\n"
)


def test_every_flow_rule_shares_one_call_graph(monkeypatch):
    built = []
    original = CallGraph.__init__

    def counting_init(self, project):
        built.append(project)
        original(self, project)

    monkeypatch.setattr(CallGraph, "__init__", counting_init)
    findings = lint_project({
        "src/repro/core/box.py": ROSTER_MODULE.replace("Roster", "Box"),
        "src/repro/membership/roster.py": ROSTER_MODULE,
        "src/repro/cluster/driver.py": (
            "from ..membership.roster import Roster\n"
            "def drive(names):\n"
            "    roster = Roster()\n"
            "    for name in sorted(names):\n"
            "        roster.commission(name)\n"
            "    return roster\n"
        ),
    })
    assert findings == []
    assert len(built) == 1


def test_rpl103_guards_membership_layer():
    findings = lint_project({
        "src/repro/membership/roster.py": ROSTER_MODULE + (
            "    def force(self, name):\n"
            "        self._states[name] = 'dead'\n"
        ),
    }, rules=[ContractBypass])
    assert [d.rule_id for d in findings] == ["RPL103"]
    assert findings[0].path == "src/repro/membership/roster.py"
    assert "Roster._states" in findings[0].message
    assert "not a contract-wrapped mutator" in findings[0].message


def test_rpl103_and_rpl106_share_the_protected_state_table():
    torn = ROSTER_MODULE + (
        "    @checks_invariants\n"
        "    def retire(self, name):\n"
        "        self._states[name] = 'retired'\n"
        "        if name == 'root':\n"
        "            raise ValueError(name)\n"
        "    def force(self, name):\n"
        "        self._states[name] = 'dead'\n"
    )
    for layer in ("core", "cluster", "fs", "membership"):
        findings = lint_project(
            {f"src/repro/{layer}/roster.py": torn},
            rules=[ContractBypass, MutateThenRaise],
        )
        assert sorted(d.rule_id for d in findings) == ["RPL103", "RPL106"], layer
    outside = lint_project(
        {"src/repro/metrics/roster.py": torn},
        rules=[ContractBypass, MutateThenRaise],
    )
    assert outside == []
