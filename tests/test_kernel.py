import math

import pytest

from hybridpi.kernel import (
    Abstraction,
    Concretion,
    IntegratorConfig,
    OpenSystem,
    Proc,
    UndefinedDynamics,
    UrgencyViolation,
    apply,
    continuous_step,
    discrete_transitions,
    survey,
)
from hybridpi.parser import parse_term, pretty
from hybridpi.syntax import (
    Const,
    Replication,
    alpha_equivalent,
    canonical_key,
    free_names,
    prune,
    refresh,
    struct_congruent,
)
from termgen import random_terms


def kinds(p, depth=8):
    return sorted(tr.kind for tr in discrete_transitions(p, depth).transitions)


def test_sum_offers_all_enabled_branches():
    p = parse_term("tau . a!<1> + b(v) + c!<0>")
    assert kinds(p) == ["in", "out", "tau"]


def test_guards_pass_block_or_diagnose():
    assert kinds(parse_term("[0 < 1] . tau")) == ["pass"]
    assert kinds(parse_term("[1 < 0] . tau")) == []
    enum = discrete_transitions(parse_term("[u < 1] . tau"))
    assert not enum.transitions
    assert any(d[0] == "undefined-guard" for d in enum.diagnostics)


def test_sync_and_value_passing():
    p = parse_term("a(v) . b!<v + 1> || a!<1>")
    enum = discrete_transitions(p)
    taus = [tr for tr in enum.transitions if isinstance(tr.agent, Proc)]
    assert len(taus) == 1 and taus[0].kind == "sync"
    after = prune(taus[0].agent.body)
    enum2 = discrete_transitions(after)
    (out,) = enum2.transitions
    assert out.kind == "out" and out.chan.display == "b"


def test_a_non_finite_payload_is_passed_as_its_expression():
    # inf has no literal; passed by value it would print as the name `inf`
    p = parse_term("c!<1e300 * 1e300> || c(x) . d!<x>")
    (sync,) = [tr for tr in discrete_transitions(p).transitions if tr.kind == "sync"]
    shown = pretty(prune(sync.agent.body))
    assert "inf" not in shown
    assert pretty(parse_term(shown)) == shown


def test_restriction_hides_and_enables_internal_sync():
    closed = parse_term("new a . (a(v) || a!<1>)")
    assert kinds(closed) == ["sync"]
    hidden = parse_term("new a . a!<1>")
    assert kinds(hidden) == []


def test_sense_is_non_perturbing():
    cell = parse_term("{5, 0 | h' = v, v' = -9.8 ; ready v!, v?}")
    enum = discrete_transitions(cell)
    senses = [tr for tr in enum.transitions if tr.kind == "sense"]
    (s,) = senses
    assert isinstance(s.agent, Concretion)
    assert s.payload == (Const(0.0),)
    # the continuation keeps evolving the very same cell
    assert canonical_key(s.agent.body) == canonical_key(cell)


def test_actuate_rewrites_one_coordinate_only():
    cell = parse_term("{5, 0 | h' = v, v' = -9.8 ; ready v!, v?}")
    enum = discrete_transitions(cell)
    (a,) = [tr for tr in enum.transitions if tr.kind == "actuate"]
    assert isinstance(a.agent, Abstraction)
    after = apply(a.agent, Concretion((), (Const(7.9),), parse_term("0")))
    (branch,) = prune(after).branches
    new_cell = branch[0]
    assert [e.value for e in new_cell.init] == [5.0, 7.9]
    assert new_cell.fields == cell.branches[0][0].fields


def test_replication_unfolds_and_persists():
    p = parse_term("repl a(v) . tau")
    enum = discrete_transitions(p)
    (tr,) = enum.transitions
    assert isinstance(tr.agent, Abstraction)
    body = apply(tr.agent, Concretion((), (Const(0.0),), parse_term("0")))
    # the replication itself survives next to the unfolded copy
    assert any(isinstance(q, Replication) for q in _components(prune(body)))
    assert not enum.truncated


def _components(p):
    from hybridpi.syntax import Parallel

    if isinstance(p, Parallel):
        yield from _components(p.left)
        yield from _components(p.right)
    else:
        yield p


def test_replication_depth_exhaustion_flags_truncation():
    p = parse_term("repl a(v) . tau")
    enum = discrete_transitions(p, depth=0)
    assert enum.truncated and not enum.transitions


def test_enumeration_coherent_under_alpha_refresh():
    for text in random_terms(707, 40):
        p = parse_term(text)
        a = discrete_transitions(p).transitions
        b = discrete_transitions(refresh(p)).transitions
        assert sorted(tr.kind for tr in a) == sorted(tr.kind for tr in b)
        assert sorted(
            tr.chan.display for tr in a if tr.chan and tr.chan in free_names(p)
        ) == sorted(tr.chan.display for tr in b if tr.chan and tr.chan.display in
                    {n.display for n in free_names(p)})


def test_ready_set_of_cell():
    cell = parse_term("{5, 0 | h' = v, v' = -9.8 ; ready v!, v?}")
    r = survey(cell)[1]
    assert {(n.display, pol) for n, pol in r} == {("v", True), ("v", False)}


def test_continuous_stop_at_boundary():
    p = parse_term("{1 | v' = v & v < 5}")
    res = continuous_step(p, 10.0, IntegratorConfig(step=1e-3))
    assert res.duration == pytest.approx(math.log(5.0), abs=1e-6)
    (stop,) = res.stops
    (value,) = stop.values.values()
    assert value == pytest.approx(5.0, abs=1e-6)


def test_horizon_chops_the_flow():
    p = parse_term("{1 | v' = v & v < 5}")
    res = continuous_step(p, 1.0, IntegratorConfig(step=1e-3))
    assert res.duration == pytest.approx(1.0)
    assert not res.stops
    (end,) = res.full_flow.right_limit().values()
    assert end == pytest.approx(math.e, rel=1e-9)
    # the surviving cell resumes from the chopped state
    again = continuous_step(res.process, 10.0, IntegratorConfig(step=1e-3))
    assert res.duration + again.duration == pytest.approx(math.log(5.0), abs=1e-6)


def test_rk4_order_at_least_four():
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        p = parse_term("{1 | v' = v & v < 99}")
        res = continuous_step(p, 1.0, IntegratorConfig(step=step))
        (end,) = res.full_flow.right_limit().values()
        errs.append(abs(end - math.e))
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


def test_urgency_preempts_evolution():
    p = parse_term("tau . 0 || {0 | c' = 1 & c < 1}")
    with pytest.raises(UrgencyViolation):
        continuous_step(p, 1.0, IntegratorConfig())
    q = parse_term("a(v) . 0 || a!<1> || {0 | c' = 1 & c < 1}")
    with pytest.raises(UrgencyViolation):
        continuous_step(q, 1.0, IntegratorConfig())


def test_open_system_rejected_without_environment():
    p = parse_term("{0 | p' = u & p < 1}")
    with pytest.raises(OpenSystem):
        continuous_step(p, 1.0, IntegratorConfig())
    (u,) = [n for n in free_names(p) if n.display == "u"]
    res = continuous_step(p, 0.4, IntegratorConfig(step=1e-3), env={u: 2.0})
    (end,) = res.full_flow.right_limit().values()
    assert end == pytest.approx(0.8)


def test_duplicate_guarantee_rejected():
    p = parse_term("{0 | c' = 1} || {1 | c' = 2}")
    with pytest.raises(OpenSystem):
        continuous_step(p, 1.0, IntegratorConfig())


def test_pure_waiting_blocks_nothing():
    p = parse_term("a(v) . tau")
    res = continuous_step(p, 2.0, IntegratorConfig())
    assert res.duration == 2.0 and res.full_flow is None
    assert {n.display for n, _ in res.ready} == {"a"}


# -- every exit of continuous_step --------------------------------------------


def test_cell_outside_its_boundary_stops_at_once():
    p = parse_term("{5 | x' = 1 & x < 1}(z) . a!<z>")
    res = continuous_step(p, 1.0, IntegratorConfig(step=1e-3))
    assert res.duration == 0.0 and res.full_flow is None
    (stop,) = res.stops
    assert stop.tag == "run:2:5"
    assert {n.display: v for n, v in stop.values.items()} == {"x": 5.0}
    # the stop value is passed to the continuation
    assert pretty(res.process) == "a!<5>"


@pytest.mark.parametrize("horizon", [0.0, -1.0])
def test_non_positive_horizon_is_refused(horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        continuous_step(parse_term("{0 | x' = 1}"), horizon, IntegratorConfig())


@pytest.mark.parametrize(
    "src, horizon, message",
    [
        ("{u | x' = 1}", 1.0, r"initial value .* does not evaluate to a real"),
        ("{0 | x' = 1 & sqrt(x - 2) < 1}", 1.0, "boundary undefined at start"),
        ("{0, 0 | x' = 1, y' = sqrt(1 - x)}", 2.0, "dynamics undefined during integration"),
    ],
)
def test_undefined_dynamics_exits(src, horizon, message):
    with pytest.raises(UndefinedDynamics, match=message):
        continuous_step(parse_term(src), horizon, IntegratorConfig(step=1e-3))


def test_open_system_names_every_missing_variable_sorted():
    with pytest.raises(OpenSystem, match=r"without a defining cell or environment value: a, b$"):
        continuous_step(parse_term("{0 | x' = b + a}"), 1.0, IntegratorConfig())
