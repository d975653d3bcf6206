"""A replication bound that cuts an enumeration short is reported: once
as a diagnostic, and in the message of an urgency violation it causes."""

import pytest

from hybridpi import simulator
from hybridpi.kernel import UrgencyViolation
from hybridpi.parser import parse_term
from hybridpi.simulator import simulate

from conftest import sim_config


def test_truncation_is_named_in_the_urgency_violation(monkeypatch):
    # at depth 2 the innermost a!<> is never unfolded, so the pending
    # a() . b!<> looks like a sync the scheduler failed to take
    p = parse_term("(repl repl repl a!<>) || a() . b!<>")
    monkeypatch.setattr(simulator, "REPL_DEPTH", 2)
    with pytest.raises(UrgencyViolation, match=r"match: \{a\?\}.*repl_depth=2"):
        simulate(p, sim_config(1.0))
    monkeypatch.setattr(simulator, "REPL_DEPTH", 3)
    assert simulate(p, sim_config(1.0)).trace[0].kind == "Sync"


def test_truncation_adds_one_diagnostic(monkeypatch):
    monkeypatch.setattr(simulator, "REPL_DEPTH", 2)
    res = simulate(parse_term("repl repl repl a!<>"), sim_config(1.0))
    assert res.status == "horizon"
    assert res.diagnostics == [("repl-depth-truncated", "repl_depth=2")]
    monkeypatch.undo()
    assert simulate(parse_term("repl repl repl a!<>"), sim_config(1.0)).diagnostics == []
