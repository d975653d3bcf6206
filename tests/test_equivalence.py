import json
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridpi import equivalence
from hybridpi.equivalence import (
    _merged_edges,
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
from hybridpi.kernel import ContinuousUnsupported, OpenSystem
from hybridpi.parser import parse, parse_term
from hybridpi.simulator import Environment, simulate
from hybridpi.syntax import NIL, Const, Guard, HpiError, Op, Output, Parallel, Restriction, Replication, Sum, Var, fresh, prefixed, prune, refresh
from hybridpi.zoo import load
from termgen import TermGen, random_terms

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


def test_approx_rejects_nan_or_negative_tolerances():
    p = parse_term("{0 | x' = 1 & x < 10}")
    q = parse_term("{0 | x' = 2 & x < 10}")
    with mock.patch.object(equivalence, "check_scenario", side_effect=AssertionError("scenario ran")):
        for eps, delta in ((math.nan, 0.0), (0.0, math.nan), (-1.0, 0.0), (0.0, -1.0)):
            with pytest.raises(ValueError):
                approx_bisim(p, q, eps, delta, sim_config(1.0), observe=("x",))


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
    for bad in (math.nan, math.inf):
        for duration, step in ((bad, 0.1), (1.0, bad)):
            with pytest.raises(ValueError):
                discretize([Const(1.0)], [v], [Var(v)], duration, step)
    with pytest.raises(ValueError):
        discretize([Const(1.0)], [v], [Var(fresh("w"))], 1.0, 0.1)


@pytest.mark.parametrize("box", [[(math.nan, math.nan)], [(0.0, 0.0)], [(-math.inf, math.inf)], [(1.0, -1.0)],
                                 [(-1.0, 1.0), (2.0, 2.0)]])
def test_lipschitz_estimate_refuses_a_box_that_is_not_one(box):
    v, w = fresh("v"), fresh("w")
    with pytest.raises(ValueError, match="box bounds must be finite with lo < hi"):
        lipschitz_estimate([v, w][:len(box)], [Var(v), Var(w)][:len(box)], box)


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


def test_bind_env_binds_only_names_read_as_values():
    # a is free but only a channel; u is read by a payload
    p = parse_term("a(v) . b!<v> || c!<u>")
    vals, _ = bind_env(p, {"a": 1.0, "u": 2.0}).at(0.0)
    assert {n.display: v for n, v in vals.items()} == {"u": 2.0}


@pytest.mark.parametrize("spec", [{"u": 1.0}, [(0.0, {"v": 0.0}), (1.0, {"u": 1.0})]], ids=["constant", "piecewise"])
def test_bind_env_refuses_a_display_that_two_names_share(spec):
    # with names hashed by identity a table built from the set would bind
    # either u, by memory address
    u1, u2 = fresh("u"), fresh("u")
    p = Parallel(prefixed(Output(fresh("c"), (Var(u1),)), NIL), prefixed(Output(fresh("c"), (Var(u2),)), NIL))
    with pytest.raises(HpiError, match="environment key 'u' is the display of 2 distinct names"):
        bind_env(p, spec)
    assert bind_env(p, {"v": 1.0}).at(0.0)[0] == {}


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


# ---------------------------------------------------------------------------
# Bisimilarity by its definition
# ---------------------------------------------------------------------------


def tau_reach(edges):
    """Each state's states reached by zero or more tau steps."""
    reach = {}
    for s in edges:
        seen, layer = {s}, [s]
        while layer:
            layer = [t for u in layer for l, t in edges[u] if l == ("tau",) and t not in seen]
            seen.update(layer)
        reach[s] = seen
    return reach


def bisimilarity(edges, weak):
    """The greatest symmetric R such that s R t and s -l-> s' give a t' with
    t =l=> t' and s' R t'.  Strong: =l=> is -l->.  Weak: =tau=> is zero or
    more tau steps and =l=> is =tau=> -l-> =tau=> (Milner, Communication and
    Concurrency, 1989, ch. 5)."""
    if weak:
        reach = tau_reach(edges)
        answers = {(t, l): reach[t] if l == ("tau",) else
                   {t3 for u in reach[t] for l2, t2 in edges[u] if l2 == l for t3 in reach[t2]}
                   for t in edges for l in {l for outs in edges.values() for l, _ in outs}}
    else:
        answers = {}
        for t, outs in edges.items():
            for l, t2 in outs:
                answers.setdefault((t, l), set()).add(t2)

    def matched(s, t, rel):
        return all(any((s2, t2) in rel for t2 in answers.get((t, l), ())) for l, s2 in edges[s])

    rel = {(s, t) for s in edges for t in edges}
    while True:
        keep = {(s, t) for s, t in rel if matched(s, t, rel) and matched(t, s, rel)}
        if keep == rel:
            return rel
        rel = keep


def assert_partition_is(block, rel):
    for s in block:
        for t in block:
            assert (block[s] == block[t]) == ((s, t) in rel), (s, t)


@settings(max_examples=300, deadline=None)
@given(edge_dicts())
def test_refinement_is_bisimilarity_by_definition(edges):
    assert_partition_is(_refine(edges), bisimilarity(edges, weak=False))
    assert_partition_is(_refine(_saturate(edges)), bisimilarity(edges, weak=True))


def tau_law_pair(seed):
    """Milner's third tau-law with an input prefix: a(w) . (tau . Q + R)
    against the same term + a(w) . Q, for generated Q and summands R."""
    gen = TermGen(random.Random(seed))
    q, r = gen.term(3, ("w",)), gen.sum(3, ("w",))
    p = f"a(w) . (tau . ({q}) + ({r}))"
    return p, f"{p} + a(w) . ({q})"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bisim_partitions_are_bisimilarity_by_definition_on_tau_law_instances(seed):
    a, b = (lts(t) for t in tau_law_pair(seed))
    edges = _merged_edges(a, b)
    got = {False: strong_bisim(a, b), True: weak_bisim(a, b)}
    rel = {weak: bisimilarity(edges, weak) for weak in got}
    for weak, (_, block) in got.items():
        assert_partition_is(block, rel[weak])
    for weak, (ok, _) in got.items():
        assert ok == (None if a.cut or b.cut else (("a", a.initial), ("b", b.initial)) in rel[weak])
    assert got[True][0] is not False


def test_api_verdict_over_a_cut_lts_is_none():
    # d(x) . x!<> receives the private a, and the values 0 and 1, which are dropped
    dropped = lts("new a . (d!<a> || a() . e!<>) || d(x) . x!<>")
    other = lts("new a . tau . (a() . e!<> || a!<>)")
    bounded = lts("repl a(v) . a!<v>", max_states=3)
    truncated = lts("repl repl a!<1>", repl_depth=1)
    assert dropped.cut == ["dropped 8 instantiations"] and not other.cut
    assert bounded.cut == ["hit max_states=3"] and truncated.cut == ["hit repl depth=1"]
    for cut in (dropped, bounded, truncated):
        for check in (strong_bisim, weak_bisim):
            assert check(cut, other)[0] is None and check(other, cut)[0] is None
            assert check(cut, cut)[0] is None


@pytest.mark.parametrize("check", [strong_bisim, weak_bisim])
def test_api_verdict_over_an_undefined_guard_is_none(check):
    # the guard reads u, which nothing binds: whether a!<> can happen is undecided
    guarded = build_lts(parse("run [u < 1] . a!<>;").entry)
    untagged = lts(Sum(((Guard(Op("<", (Var(fresh("u")), Const(1.0)))), NIL),)))
    nil = lts("0")
    assert guarded.cut == ["undefined guard at run:1:5"] and untagged.cut == ["undefined guard"]
    assert not guarded.truncated and not guarded.bounded and not guarded.skipped
    for cut in (guarded, untagged):
        assert check(cut, nil)[0] is None and check(nil, cut)[0] is None


def test_lts_keeps_each_diagnostic_once_in_walk_order():
    # both states meet the same three
    l = lts("tau . 0 || [u < 1] . a!<> || (repl repl b!<>) || [u < 2] . c!<>", repl_depth=1)
    assert len(l.states) == 2 and l.truncated
    assert l.cut == ["undefined guard at run:2:16", "hit repl depth=1", "undefined guard at run:2:54"]


@pytest.mark.parametrize("check", [strong_bisim, weak_bisim])
def test_an_extruded_name_never_matches_a_free_name_spelled_like_its_placeholder(check):
    extruded, free = lts("new a . d!<a>"), lts("d!<priv0>")
    assert [l for l, _ in extruded.transitions[extruded.initial]] == [("out", "d", (("priv", 0),))]
    assert [l for l, _ in free.transitions[free.initial]] == [("out", "d", (("name", "priv0"),))]
    assert check(extruded, free)[0] is False


@pytest.mark.parametrize("bounds, message", [
    ({"max_states": 0}, "max_states must be at least 1, got 0"),
    ({"repl_depth": -1}, "repl_depth must be at least 0, got -1"),
])
def test_build_lts_refuses_bounds_that_bound_nothing(bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        lts("a!<>", **bounds)
    assert len(lts("a!<>", max_states=1, repl_depth=0).states) == 1


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


def _spec_system_approx(eps, scenarios, **kw):
    inst = load("spec-system")
    return approx_bisim(inst.models["spec"].entry, inst.models["system"].entry, eps, 1e9,
                        sim_config(30.0, 2e-2), scenarios=scenarios, observe=("x",), **kw)


@pytest.mark.parametrize("eps, scenarios, status", [
    (400.0, [{"u": -0.1}, {"u": 0.0}, {"u": 0.1}], "consistent"),
    (40.0, [{"u": 0.0}, {"u": 0.1}, {"u": -0.1}, {"u": 0.05}], "refuted"),  # ends the fold at 1
])
def test_approx_pool_gives_the_serial_verdict_and_leaves_no_process(eps, scenarios, status):
    serial = _spec_system_approx(eps, scenarios, jobs=1).to_dict()
    default = _spec_system_approx(eps, scenarios).to_dict()
    pooled = _spec_system_approx(eps, scenarios, jobs=len(scenarios))
    assert not multiprocessing.active_children()
    assert pooled.to_dict() == serial == default
    assert pooled.status == status
    if status == "refuted":
        assert pooled.counterexample["scenario"] == 1 and len(pooled.per_scenario) == 2


def test_approx_pool_raises_the_serial_error_and_leaves_no_process():
    errors = []
    for jobs in (1, 2):
        with pytest.raises(HpiError) as e:
            _spec_system_approx(400.0, [{"u": 0.0}, {}], jobs=jobs)  # system.hpc reads u
        errors.append((type(e.value), str(e.value)))
        assert not multiprocessing.active_children()
    assert errors[0] == errors[1] == (OpenSystem, "variables without a defining cell or environment value: u")


DYING_WORKERS = """
import json, multiprocessing, os, sys, time
from hybridpi import equivalence
from hybridpi.cli import main
from hybridpi.kernel import IntegratorConfig
from hybridpi.simulator import SimConfig
from hybridpi.zoo import load

real = equivalence.check_scenario

def die(p, q, cfg, sc, observe):
    os._exit(9)

out = []
models = load("spec-system").models
equivalence.check_scenario = die
start = time.perf_counter()
try:
    equivalence.approx_bisim(models["spec"].entry, models["system"].entry, 400, 1e9,
                             SimConfig(30.0, IntegratorConfig(2e-2)), scenarios=[{"u": 0.0}] * 3, jobs=2)
except equivalence.HpiError as e:
    out.append([str(e), time.perf_counter() - start])
# through the CLI, with only scenario 1 dying
equivalence.check_scenario = lambda p, q, cfg, sc, observe: (die if sc["u"] else real)(p, q, cfg, sc, observe)
files = os.path.join(os.path.dirname(equivalence.__file__), "models")
start = time.perf_counter()
rc = main(["approx", f"{files}/spec.hpc", f"{files}/system.hpc", "--eps", "400", "--delta", "1e9",
           "--observe", "x", "--horizon", "30", "--scenarios", sys.argv[1], "--jobs", "2"])
out.append([rc, time.perf_counter() - start])
out.append(multiprocessing.active_children())
print(json.dumps(out))
"""


def test_approx_pool_names_the_scenario_of_a_dying_worker(tmp_path):
    # a pool replaces a dead worker without reporting its scenario; the
    # check must raise instead of waiting for good, hence the timeout
    scenarios = tmp_path / "sc.json"
    scenarios.write_text('[{"u": 0.0}, {"u": 0.1}, {"u": 0.0}]')
    src = os.path.dirname(os.path.dirname(equivalence.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", DYING_WORKERS, str(scenarios)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    (message, took), (rc, cli_took), left = json.loads(done.stdout)
    assert re.fullmatch(r"scenario [0-2]: its worker process ended with exit code 9", message)
    assert rc == 3 and done.stderr == "error: scenario 1: its worker process ended with exit code 9\n"
    assert took < 5 and cli_took < 5 and left == []


def test_approx_reports_each_runs_diagnostics_per_scenario():
    # a's cell stops, then its guard over the unbound u is undefined
    p = parse("run {0 | x' = 1 & x < 1} . [u < 1] . a!<>;").entry
    q = parse("run {0 | x' = 1 & x < 1};").entry
    for jobs in (1, 2):
        v = approx_bisim(p, q, 1.0, 1e9, sim_config(2.0), scenarios=[None, None], observe=("x",), jobs=jobs)
        assert v.status == "consistent"
        assert [s["diagnostics"] for s in v.per_scenario] == [{"a": [("undefined-guard", "run:1:28")], "b": []}] * 2


def test_approx_pool_runs_the_scenarios_in_workers_unless_threads_run():
    def where(*_):
        return {"skew": 0.0, "distance": float(os.getpid()), "variable": "x"}

    def pids(jobs):
        with mock.patch.object(equivalence, "check_scenario", where):
            v = approx_bisim(NIL, NIL, math.inf, 0.0, sim_config(1.0), scenarios=[None] * 4, jobs=jobs)
        return {s["distance"] for s in v.per_scenario}

    assert os.getpid() not in pids(2)
    assert pids(1) == {os.getpid()}
    release = threading.Event()
    t = threading.Thread(target=release.wait)
    t.start()
    try:
        assert pids(2) == {os.getpid()}  # forking beside a running thread is unsafe
    finally:
        release.set()
        t.join(timeout=10)
    assert not t.is_alive()
