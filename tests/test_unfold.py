"""Replication unfolding: the second copy, the stamp counter, restriction
chains, and the stamps of a full network run."""

import hashlib

from hybridpi.kernel import Concretion, Proc, discrete_transitions
from hybridpi.parser import parse_term
from hybridpi.simulator import simulate, trace_to_jsonl
from hybridpi.syntax import Parallel, Restriction
from hybridpi.zoo import load
from conftest import sim_config


def test_self_synchronising_factory_keeps_its_copy_to_copy_syncs():
    p = parse_term("repl (c!<> || c() . repl d())")
    ctr = [0]
    enum = discrete_transitions(p, counter=ctr)
    syncs = [t for t in enum.transitions if isinstance(t.agent, Proc)]
    stamps = [tuple(tag.split("#", 1)[1] for tag in t.tags) for t in syncs]
    # one sync inside copy #1, then copy #1 with copy #2 in both directions
    assert stamps == [("1", "1"), ("1", "2"), ("1", "2")]
    for t in syncs[1:]:
        assert isinstance(t.agent.body, Parallel) and t.agent.body.right is p
    assert ctr == [2]


def test_factory_without_self_sync_advances_the_counter_as_before():
    # the skipped second copy and its nested unfold still draw their stamps
    p = parse_term("repl (a() . 0 || repl b())")
    ctr = [0]
    enum = discrete_transitions(p, counter=ctr)
    assert ctr == [6]
    assert [t.tags for t in enum.transitions] == [("run:2:11#1",), ("run:2:27#1#2",)]
    discrete_transitions(p, counter=ctr)
    assert ctr == [12]


def test_restriction_chain_hides_its_names_and_nests_innermost_first():
    p = parse_term("new a, b . (a!<> || b() || c!<>)")
    (t,) = discrete_transitions(p).transitions
    assert isinstance(t.agent, Concretion) and t.chan.display == "c"
    assert isinstance(t.agent, Concretion) and t.agent.restricted == ()
    outer = t.agent.body
    assert isinstance(outer, Restriction) and outer.name.display == "a"
    assert isinstance(outer.body, Restriction) and outer.body.name.display == "b"


def test_network_trace_keeps_its_stamps():
    inst = load("handover-network")
    res = simulate(inst.main.entry, sim_config(10.0, 1e-2))
    digest = hashlib.sha256(trace_to_jsonl(res.trace).encode()).hexdigest()
    assert digest == "4e2110efdf1da3f9c962566c1e96fa875149f27a644955d970ae41915e2dc550"
