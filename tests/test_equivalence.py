import math
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridpi import equivalence
from hybridpi.equivalence import (
    _refine,
    _saturate,
    approx_bisim,
    bind_env,
    build_lts,
    discretize,
    lipschitz_estimate,
    rk4_increment,
    strong_bisim,
    suggest_step,
    weak_bisim,
)
from hybridpi.flows import eval_expr
from hybridpi.kernel import ContinuousUnsupported
from hybridpi.parser import parse_term
from hybridpi.simulator import Environment, simulate
from hybridpi.syntax import Parallel, Restriction, Replication, Sum, Var, fresh, prune, refresh
from termgen import random_terms

from conftest import sim_config

WAIT = "def wait(d) = new w . {0 | w' = 1 & w < d};"
NIL = Sum(())


def lts(text_or_proc, **kw):
    p = parse_term(text_or_proc) if isinstance(text_or_proc, str) else text_or_proc
    return build_lts(p, **kw)


def test_build_lts_counts_states():
    l = lts("tau . a!<1>")
    assert len(l.states) == 3
    assert not l.bounded and not l.truncated


def test_build_lts_rejects_cells_and_flags_bounds():
    with pytest.raises(ContinuousUnsupported):
        lts("{0 | c' = 1}")
    wide = lts("a(v) . b!<v> . b!<v>", universe=(0.0, 1.0))
    assert len(wide.states) > 3  # one branch per universe instantiation
    capped = lts("repl a(v) . a!<v>", max_states=3)
    assert capped.bounded


def test_strong_bisim_basics():
    ok, _ = strong_bisim(lts("a!<1> || 0"), lts("a!<1>"))
    assert ok
    bad, _ = strong_bisim(lts("a!<1>"), lts("a!<0>"))
    assert not bad
    asym, _ = strong_bisim(lts("tau . a!<1>"), lts("a!<1>"))
    assert not asym


def test_strong_bisim_is_equivalence_relation():
    terms = [parse_term(t) for t in random_terms(808, 20)]
    for p in terms:
        lp = lts(p)
        ok, _ = strong_bisim(lp, lts(refresh(p)))
        assert ok
        q = Parallel(p, NIL)
        fwd, _ = strong_bisim(lp, lts(q))
        bwd, _ = strong_bisim(lts(q), lp)
        assert fwd and bwd


def test_weak_is_coarser_than_strong():
    ok, _ = weak_bisim(lts("tau . a!<1>"), lts("a!<1>"))
    assert ok
    for p in (parse_term(t) for t in random_terms(909, 15)):
        a, b = lts(p), lts(Parallel(NIL, p))
        if strong_bisim(a, b)[0]:
            assert weak_bisim(a, b)[0]
    no, _ = weak_bisim(lts("a!<1>"), lts("b!<1>"))
    assert not no


def test_weak_chopping_consistent_and_skew_refuted():
    p = parse_term("wait(3)", prelude=WAIT)
    q = parse_term("wait(1) . tau . wait(1) . tau . tau . wait(1)", prelude=WAIT)
    cfg = sim_config(5.0)
    assert approx_bisim(p, q, 0.0, 0.0, cfg).status == "consistent"
    r = parse_term("wait(2)", prelude=WAIT)
    verdict = approx_bisim(parse_term("wait(3)", prelude=WAIT), r, 0.0, 0.0, cfg)
    assert verdict.status == "refuted"
    assert verdict.counterexample["skew"] == pytest.approx(1.0, abs=1e-6)


def test_approx_refutation_replays():
    p = parse_term("{0 | x' = 1 & x < 10}")
    q = parse_term("{0 | x' = 2 & x < 10}")
    cfg = sim_config(3.0)
    verdict = approx_bisim(p, q, 1.0, 10.0, cfg, observe=("x",))
    assert verdict.status == "refuted" and verdict.counterexample["variable"] == "x"
    # replaying the reported scenario reproduces the reported distance
    again = approx_bisim(p, q, 1.0, 10.0, cfg, observe=("x",))
    assert again.counterexample["distance"] == verdict.counterexample["distance"]
    assert verdict.counterexample["distance"] == pytest.approx(3.0, abs=1e-6)


def test_rk4_increment_matches_textbook_stages():
    v = fresh("v")
    (phi,) = rk4_increment([v], [Var(v)], 0.1)
    got = eval_expr(phi, {v: 1.0})
    h = 0.1
    k1 = 1.0
    k2 = 1.0 + h / 2 * k1
    k3 = 1.0 + h / 2 * k2
    k4 = 1.0 + h * k3
    assert got == pytest.approx((k1 + 2 * k2 + 2 * k3 + k4) / 6.0, abs=1e-12)


def disc_endpoint(res):
    ev = [e for e in res.trace if e.kind == "Sync" and e.values][-1]
    return ev.values[0]


def test_discretize_structure_and_endpoint():
    v = fresh("v")
    from hybridpi.syntax import Const

    q = discretize([Const(1.0)], [v], [Var(v)], 1.0, 0.1)
    assert isinstance(q, Restriction)
    assert isinstance(q.body, Parallel)
    assert any(isinstance(s, Replication) for s in (q.body.left, q.body.right))
    res = simulate(q, sim_config(5.0))
    last_sync = [e for e in res.trace if e.kind == "Sync"][-1]
    assert last_sync.time == pytest.approx(1.0, abs=1e-9)
    assert abs(disc_endpoint(res) - math.e) <= 1e-3


def test_discretize_partial_final_step():
    v = fresh("v")
    from hybridpi.syntax import Const

    q = discretize([Const(1.0)], [v], [Var(v)], 0.25, 0.1)
    res = simulate(q, sim_config(5.0))
    # two full 0.1 s rounds, then one shortened 0.05 s cell
    evolves = [e.values[0] for e in res.trace if e.kind == "Evolve"]
    assert any(abs(d - 0.05) < 1e-9 for d in evolves)
    syncs = [e.time for e in res.trace if e.kind == "Sync"]
    assert syncs[-1] == pytest.approx(0.2, abs=1e-9)


def test_discretize_input_validation():
    v = fresh("v")
    from hybridpi.syntax import Const

    with pytest.raises(ValueError):
        discretize([Const(1.0)], [v], [Var(v)], -1.0, 0.1)
    with pytest.raises(ValueError):
        discretize([Const(1.0)], [v], [Var(fresh("w"))], 1.0, 0.1)


def test_lipschitz_estimate_linear_field():
    v = fresh("v")
    L = lipschitz_estimate([v], [3.0 * Var(v) if False else _scale(v, 3.0)], [(0.0, 1.0)])
    assert 2.5 < L <= 3.0 + 1e-9


def _scale(n, k):
    from hybridpi.syntax import Const, Op

    return Op("*", (Const(k), Var(n)))


def test_suggest_step_sane():
    s = suggest_step(1e-3, 1.0, 1.0)
    assert 0 < s < 1.0
    assert suggest_step(1e-3, 2.0, 1.0) < s
    assert suggest_step(1e-3, 1.0, 0.0) == pytest.approx(0.1)


def test_bind_env_by_display_name():
    p = parse_term("{0 | x' = u & x < 1}")
    env = bind_env(p, {"u": 2.0, "unused": 9.0})
    assert isinstance(env, Environment)
    vals, _ = env.at(0.0)
    assert list(vals.values()) == [2.0]
    assert bind_env(p, None) is None


# ---------------------------------------------------------------------------
# Partition refinement against the round-based oracle
# ---------------------------------------------------------------------------


def rounds_refine(edges):
    """Round-based refinement: every round recomputes each state's signature
    and renumbers the blocks by first member in sorted state order."""
    block = {s: 0 for s in edges}
    while True:
        renum, new = {}, {}
        for s in sorted(edges, key=lambda x: (x[0], x[1])):
            sig = (block[s], frozenset((l, block[t]) for l, t in edges[s]))
            new[s] = renum.setdefault(sig, len(renum))
        if new == block:
            return block
        block = new


LABELS = [("tau",), ("out", "a", (1.0,)), ("in", "a", (0.0,))]


@st.composite
def edge_dicts(draw):
    n = draw(st.integers(0, 12))
    states = [(draw(st.sampled_from("ab")), f"s{i}") for i in range(n)]
    succ = st.tuples(st.sampled_from(LABELS), st.sampled_from(states)) if n else st.nothing()
    return {s: tuple(draw(st.lists(succ, max_size=3))) for s in states}


@settings(max_examples=400, deadline=None)
@given(edge_dicts())
def test_refine_matches_the_round_based_oracle(edges):
    assert _refine(edges) == rounds_refine(edges)
    weak = _saturate(edges)
    assert _refine(weak) == rounds_refine(weak)


def raw_lts(p):
    """The LTS of p as written: build_lts with its prune/refresh of the
    initial term and of every target turned off."""
    with mock.patch.multiple(equivalence, prune=lambda q: q, refresh=lambda q: q):
        return build_lts(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_prune_and_refresh_preserve_strong_bisimilarity(seed):
    p = parse_term(random_terms(seed, 1)[0])
    lp = raw_lts(p)
    assert not lp.bounded
    for q in (prune(p), refresh(p)):
        assert strong_bisim(lp, raw_lts(q))[0]


CHAIN = "mu x(n) @ <0> . i() . ([n < {N}] . {step}x!<n+1> + [n >= {N}] . {end}!<>)"


def test_bisim_scales_to_long_counter_chains():
    n = 650
    chains = {
        "good": CHAIN.format(N=n, step="", end="good"),
        "bad": CHAIN.format(N=n, step="", end="bad"),
        "tau": "0 || " + CHAIN.format(N=n, step="tau . ", end="good"),
    }
    ltss = {k: lts(text, max_states=100_000) for k, text in chains.items()}
    assert not any(l.bounded or l.truncated for l in ltss.values())
    start = time.perf_counter()
    verdicts = {
        f"{mode.__name__}_{other}": mode(ltss["good"], ltss[other])[0]
        for other in ("bad", "tau")
        for mode in (strong_bisim, weak_bisim)
    }
    elapsed = time.perf_counter() - start
    assert verdicts == {"strong_bisim_bad": False, "weak_bisim_bad": False,
                        "strong_bisim_tau": False, "weak_bisim_tau": True}
    assert elapsed < 10.0
