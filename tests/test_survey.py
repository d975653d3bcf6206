"""The continuous survey reads which branches of a sum are live from the
sum's memoised enumeration: its silent moves are the urgent reasons, its
first cell is the sum's cell, its input and output moves are its ready set
otherwise, and a sum with branches but neither moves nor a cell is
blocked.  A reference survey that classifies the prefixes itself, as the
survey did before it read the enumeration, is the oracle."""

import pytest

from hybridpi import flows as fl
from hybridpi import kernel, simulator
from hybridpi.equivalence import bind_env
from hybridpi.kernel import Proc, Survey, discrete_transitions, dual, describe_ready
from hybridpi.parser import parse, parse_term
from hybridpi.syntax import Continuous, Guard, Input, Parallel, Replication, Restriction, Sum, Tau, prune, refresh
from hybridpi.zoo import list_models, model_text

from conftest import sim_config
from termgen import random_terms


def reference_survey(p):
    sv = Survey()
    return sv, _reference(p, sv)


def _reference(p, sv):
    if isinstance(p, Sum):
        if not p.branches:
            return frozenset()
        cont_branch = None
        waiting = []
        live = 0
        for pi, cont in p.branches:
            if isinstance(pi, Tau):
                sv.urgent.append(("tau", p.tag))
                live += 1
            elif isinstance(pi, Guard):
                v = fl.eval_expr(pi.cond)
                if v is True:
                    sv.urgent.append(("pass", p.tag))
                    live += 1
            elif isinstance(pi, Continuous):
                if cont_branch is None:
                    cont_branch = (pi, cont)
                live += 1
            else:
                waiting.append(pi)
                live += 1
        if cont_branch is not None:
            pi, cont = cont_branch
            sv.cells.append(kernel._CellInfo(p, pi, cont))
            return frozenset((pi.vars[i], pol) for i, pol in pi.ready)
        if waiting:
            return frozenset((pi.chan, not isinstance(pi, Input)) for pi in waiting)
        if live == 0:
            sv.blocked.append(p.tag)
        return frozenset()
    if isinstance(p, Parallel):
        rl = _reference(p.left, sv)
        rr = _reference(p.right, sv)
        clash = dual(rl) & rr
        if clash:
            sv.urgent.append(("match", describe_ready(clash)))
        return rl | rr
    if isinstance(p, Restriction):
        return frozenset(i for i in _reference(p.body, sv) if i[0] != p.name)
    if isinstance(p, Replication):
        r = _reference(p.body, sv)
        clash = dual(r) & r
        if clash:
            sv.urgent.append(("match", describe_ready(clash)))
        return r
    raise TypeError(p)


def assert_surveys_agree(p):
    want, want_ready = reference_survey(p)
    got, got_ready = kernel.survey(p)
    assert len(got.cells) == len(want.cells)
    for g, w in zip(got.cells, want.cells):
        assert g.site is w.site and g.prefix is w.prefix and g.cont is w.cont
    assert got.urgent == want.urgent
    assert got.blocked == want.blocked
    assert got_ready == want_ready


# sums the generated terms never hold: undecided guards at the spine, and
# cells beside other branches
HAND_TERMS = [
    "[u < 1] . a!<>",
    "[u < 1] . a!<> + b() . 0",
    "[2 < 1] . tau",
    "[0 < 1] . tau + [u < 1] . tau + a!<1> + [2 < 1] . b!<>",
    "{0 | x' = 1 & x < 5} + a() . b!<>",
    "({0 | x' = 1 & x < 5} + a() . b!<>) || new w . {0 | w' = 1 & w < 1} . a!<>",
    "{0 | c' = 1 ; ready c!} + c() . 0 + c!<1>",
    "tau . 0 + {0 | x' = 1 & x < 1} + {0 | y' = 1 & y < 1}",
    "[u < 1] . tau + {0, 0 | h' = 1, v' = 0 ; ready v!, v?}",
    "repl ([u < 1] . a!<> + c(v) . 0) || c!<0>",
    "new c . ([3 < 1] . c!<> || c() . 0 || {0 | z' = 1 & z < 2})",
    "0",
]


def _spine_successors(p, levels):
    """p and the targets of its silent moves, `levels` moves deep."""
    out, frontier = [p], [p]
    for _ in range(levels):
        nxt = []
        for q in frontier:
            enum = discrete_transitions(q, 4)
            nxt += [prune(enum.agent(i).body) for i, t in enumerate(enum.frame.moves) if t.shape is Proc][:3]
        out += nxt
        frontier = nxt
    return out


@pytest.mark.parametrize("text", HAND_TERMS)
def test_survey_matches_the_reference_on_hand_terms(text):
    assert_surveys_agree(parse_term(text))  # not enumerated: the survey enumerates the sums
    p = parse_term(text)
    discrete_transitions(p, 1)
    assert_surveys_agree(p)  # enumerated: every sum's frame is a memo hit
    for q in _spine_successors(refresh(p), 2):
        assert_surveys_agree(q)


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_survey_matches_the_reference_on_generated_terms(seed):
    for text in random_terms(seed, 25, budget=7, repl=True):
        p = parse_term(text)
        assert_surveys_agree(p)
        for q in _spine_successors(refresh(p), 3):
            assert_surveys_agree(q)


def test_survey_matches_the_reference_on_every_bundled_model(monkeypatch):
    steps = {fn: e.step for e in list_models() for fn in e.files.values()}
    surveyed = []
    step = simulator.continuous_step

    def checked(p, *args, **kwargs):
        assert_surveys_agree(p)
        surveyed.append(p)
        return step(p, *args, **kwargs)

    monkeypatch.setattr(simulator, "continuous_step", checked)
    for fn in sorted(fn for fn in steps if fn.endswith(".hpc")):
        before = len(surveyed)
        p = parse(model_text(fn)).entry
        simulator.simulate(p, sim_config(20.0, steps[fn]), bind_env(p, {"u": 0.0}))
        assert len(surveyed) > before, fn


def test_a_sums_frame_serves_every_depth():
    p = parse_term("a!<> + [0 < 1] . tau + {0 | x' = 1 & x < 1}")
    assert discrete_transitions(p, 1).frame is discrete_transitions(p, 5).frame


def test_survey_evaluates_no_guard_of_an_enumerated_term(monkeypatch):
    p = parse_term("(([0 < 1] . a!<> + [u < 1] . tau) || b() . 0) || ({0 | x' = 1 & x < 1} || repl ([2 < 1] . c!<>))")
    discrete_transitions(p)

    def evaluated(*args, **kwargs):
        raise AssertionError("a guard was evaluated again")

    monkeypatch.setattr(kernel.fl, "eval_expr", evaluated)
    sv, ready = kernel.survey(p)
    tags = [q.tag for q in (p.left.left, p.right.right.body)]
    assert sv.urgent == [("pass", tags[0])] and sv.blocked == [tags[1]]
    assert len(sv.cells) == 1 and {(n.display, pol) for n, pol in ready} == {("b", False)}
