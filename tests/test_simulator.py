import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridpi import simulator
from hybridpi.flows import Flow
from hybridpi.kernel import IntegratorConfig
from hybridpi.parser import parse, parse_term
from hybridpi.simulator import (
    Environment,
    SimConfig,
    TraceEvent,
    detect_zeno,
    exhaustive_traces,
    simulate,
    trace_to_jsonl,
    trajectory_series,
    _column_labels,
    trajectory_to_csv,
)
from hybridpi.equivalence import bind_env
from hybridpi.syntax import HpiError, alpha_equivalent, fresh
from hybridpi.zoo import list_models, load, model_text
from termgen import random_terms

from conftest import sim_config


def run_model(id_, **kw):
    inst = load(id_)
    cfg = sim_config(kw.pop("horizon", inst.entry.horizon), kw.pop("step", inst.entry.step), **kw)
    return simulate(inst.main.entry, cfg)


def test_bitwise_determinism_on_zeno_run():
    outs = []
    for _ in range(2):
        res = run_model("ball", horizon=12.0)
        outs.append((trace_to_jsonl(res.trace), trajectory_to_csv(res.segments), res.status))
    assert outs[0] == outs[1]
    assert outs[0][2] == "zeno"


def test_urgent_sync_never_preceded_by_evolution():
    res = simulate(parse_term("x(y) . tau || x!<1>"), sim_config(1.0))
    kinds = [ev.kind for ev in res.trace]
    assert kinds[0] == "Sync"
    assert "Evolve" not in kinds[: kinds.index("Sync") + 1]


def test_time_additivity():
    for id_ in ("wait", "bigben"):
        res = run_model(id_)
        total = sum(ev.values[0] for ev in res.trace if ev.kind == "Evolve")
        assert total == pytest.approx(res.end_time, abs=1e-9)


def test_wait_terminates_by_inaction():
    res = run_model("wait")
    assert res.status == "inaction"
    assert res.end_time == pytest.approx(3.0, abs=1e-6)


def test_clock_runs_to_horizon():
    res = run_model("bigben")
    assert res.status == "horizon"
    senses = [ev for ev in res.trace if ev.kind == "Sense"]
    times = [ev.time for ev in senses]
    assert times[0] == pytest.approx(0.0, abs=1e-6)
    assert all(b - a == pytest.approx(2.0, abs=1e-3) for a, b in zip(times, times[1:]))


def test_zeno_detection_on_ball():
    res = run_model("ball", horizon=12.0)
    assert res.zeno is not None and res.zeno.flagged
    assert res.zeno.accumulation == pytest.approx(9.09, abs=0.05)


def test_detect_zeno_geometric_oracle():
    t, gap = 0.0, 1.0
    trace = []
    for _ in range(40):
        trace.append(TraceEvent(t, "Sync", "a", []))
        t += gap
        gap *= 0.5
    rep = detect_zeno(trace, max_events=20, window=1.0)
    assert rep.flagged
    assert rep.accumulation == pytest.approx(2.0, abs=1e-3)
    calm = [TraceEvent(float(k), "Sync", "a", []) for k in range(10)]
    assert not detect_zeno(calm, max_events=20, window=1.0).flagged


def test_environment_profile_drives_open_variable():
    p = parse_term("{0 | x' = u & x < 100}")
    env = Environment([(0.0, {"u": 1.0}), (1.0, {"u": -1.0})])
    from hybridpi.equivalence import bind_env

    res = simulate(p, sim_config(2.0), bind_env(p, [(0.0, {"u": 1.0}), (1.0, {"u": -1.0})]))
    ts, xs = trajectory_series(res.segments, "x")
    assert xs[-1] == pytest.approx(0.0, abs=1e-9)
    assert max(xs) == pytest.approx(1.0, abs=1e-9)
    assert env.at(0.5) == ({"u": 1.0}, 1.0)


def test_environment_must_start_at_zero():
    with pytest.raises(ValueError):
        Environment([(1.0, {"u": 1.0})])


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_environment_piece_must_start_at_a_finite_time(start):
    with pytest.raises(ValueError, match="not finite"):
        Environment([(0.0, {"u": 0.0}), (start, {"u": 5.0})])


def test_observed_display_of_two_names_in_one_segment_is_refused():
    res = simulate(parse_term("{0 | x' = 1} || new x . {0 | x' = 100}"), sim_config(1.0))
    with pytest.raises(HpiError, match="observed variable 'x' is the display of 2 distinct names"):
        trajectory_series(res.segments, "x")


def test_policy_random_is_seed_deterministic():
    text = "tau . a!<0> + tau . a!<1> || a(v) . tau"
    runs = []
    for _ in range(2):
        cfg = SimConfig(horizon=1.0, policy="random", seed=7)
        runs.append(trace_to_jsonl(simulate(parse_term(text), cfg).trace))
    assert runs[0] == runs[1]


def test_exhaustive_traces_cover_both_choices():
    p = parse_term("new a . (a(v) . tau || a!<1>)")
    (trace,), _ = exhaustive_traces(p)
    assert [k for k, _ in trace] == ["sync", "tau"]
    q = parse_term("tau . b!<0> + [0 < 1] . tau || b(v)")
    kinds = {tuple(k for k, _ in tr) for tr in exhaustive_traces(q)[0]}
    assert kinds == {("tau", "sync"), ("pass", "tau")}


def test_exhaustive_traces_report_what_the_walk_left_undecided():
    p = parse_term("repl repl repl tau . a!<>")
    assert exhaustive_traces(p, max_depth=3, repl_depth=1) == ([[]], [("repl-depth-truncated", "repl_depth=1")])
    q = parse_term("[u < 1] . tau . a!<> + tau")
    assert exhaustive_traces(q, max_depth=3) == ([[("tau", None)]], [("undefined-guard", q.tag)])
    assert exhaustive_traces(parse_term("tau . a!<>"))[1] == []


TRACE_KIND = {"tau": "Tau", "pass": "Tau", "sync": "Sync", "sense": "Sense", "actuate": "Actuate"}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_first_policy_trace_is_a_prefix_of_an_exhaustive_path(seed):
    p = parse_term(random_terms(seed, 1)[0])
    with mock.patch.object(simulator, "REPL_DEPTH", 4):
        res = simulate(p, sim_config(1.0))
    got = [(ev.kind, ev.chan) for ev in res.trace if ev.kind in TRACE_KIND.values()]
    paths = [[(TRACE_KIND[k], c) for k, c in path] for path in exhaustive_traces(p, max_depth=32, repl_depth=4)[0]]
    # policy first always takes the first transition, so it walks the first path
    assert got == paths[0][: len(got)]


def test_trace_jsonl_is_valid_json_lines():
    res = run_model("wait")
    lines = trace_to_jsonl(res.trace).strip().splitlines()
    rows = [json.loads(ln) for ln in lines]
    assert all(set(r) == {"time", "kind", "chan", "values", "provenance"} for r in rows)
    assert all(isinstance(r["provenance"], list) for r in rows)


def test_trajectory_csv_header_and_rows():
    res = run_model("wait")
    lines = trajectory_to_csv(res.segments).strip().splitlines()
    assert lines[0].startswith("time,")
    assert len(lines) > 100
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0


def test_trajectory_csv_without_variables_has_a_time_only_header():
    res = simulate(parse_term("a!<1> || a(x) . 0"), sim_config(1.0))
    assert res.status == "inaction" and not res.segments
    assert trajectory_to_csv(res.segments) == "time\n"


def _csv_per_cell(segments) -> str:
    # the per-cell formatter the block writer replaced, kept as the reference
    labels = _column_labels(segments)
    names = list(labels)
    lines = [",".join(["time"] + [labels[n] for n in names])]
    for t0, flow in segments:
        idx = {n: j for j, n in enumerate(flow.names)}
        for i, tt in enumerate(flow.times):
            row = [f"{t0 + tt:.17g}"]
            for n in names:
                j = idx.get(n)
                row.append("nan" if j is None else f"{flow.values[i, j]:.17g}")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_the_per_cell_formatter():
    x, x2, y = fresh("x"), fresh("x"), fresh("y")  # x and x2 share a display
    segments = [
        (0.0, Flow((x, y), [0.0, 0.1, 0.30000000000000004], [[-0.0, 1.0], [5e-324, 1e308], [-math.inf, 2.5]])),
        # a t0 offset, y missing (nan fill), columns in another order
        (0.30000000000000004, Flow((x2, x), [0.0, 1e-3], [[1.0 / 3.0, -1e-310], [math.pi, -0.0]])),
        (1.7, Flow((y, x), [0.0, 0.25, 0.5], [[7.0, 2.0], [-2.2250738585072014e-308, 1e16], [0.1, -123.456]])),
    ]
    got = trajectory_to_csv(segments)
    assert got == _csv_per_cell(segments)
    assert got.splitlines()[0] == "time,x,y,x_2"
    assert "nan" in got and "-inf" in got and "4.9406564584124654e-324" in got


def test_trajectory_csv_matches_the_per_cell_formatter_on_models():
    for id_ in ("wait", "ball"):
        res = run_model(id_, horizon=3.0)
        assert trajectory_to_csv(res.segments) == _csv_per_cell(res.segments)


def test_deadlock_names_the_blocked_sum():
    res = simulate(parse_term("[1 < 0] . a!<> || {0 | x' = 1 & x < 2}"), sim_config(5.0))
    assert res.status == "deadlock" and res.end_time == 0.0
    last = json.loads(trace_to_jsonl(res.trace).splitlines()[-1])
    assert last == {"time": 0.0, "kind": "Deadlock", "chan": None, "values": None, "provenance": ["run:2:5"]}


def test_deadlock_names_every_blocked_sum_in_walk_order():
    res = simulate(parse_term("[1 < 0] . a!<> || new c . [2 < 1] . c!<>"), sim_config(5.0))
    assert res.status == "deadlock"
    assert [(ev.kind, ev.provenance) for ev in res.trace] == [("Deadlock", ["run:2:5", "run:2:31"])]


def test_deadlock_after_evolution_names_the_continuation():
    res = simulate(parse_term("{0 | x' = 1 & x < 1}(z) . [z < 0] . a!<>"), sim_config(5.0))
    assert res.status == "deadlock"
    assert [ev.kind for ev in res.trace] == ["Evolve", "Stop", "Deadlock"]
    stop, dead = res.trace[-2:]
    assert dead.time == stop.time == pytest.approx(1.0, abs=1e-6)
    assert stop.provenance == ["run:2:5"] and dead.provenance == ["run:2:31"]


def test_inaction_is_not_a_deadlock():
    res = simulate(parse_term("{0 | x' = 1 & x < 1}(z) . 0"), sim_config(5.0))
    assert res.status == "inaction"
    assert all(ev.kind != "Deadlock" for ev in res.trace)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0.0)
    with pytest.raises(ValueError):
        SimConfig(policy="eager")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SimConfig(horizon=bad)
        with pytest.raises(ValueError):
            IntegratorConfig(step=bad)


# -- root-private names -----------------------------------------------------


def _outcome(p, cfg, env=None):
    res = simulate(p, cfg, env)
    return res, (trace_to_jsonl(res.trace), trajectory_to_csv(res.segments), res.status, res.end_time, res.diagnostics)


def assert_same_as_restrictions_in_the_term(p, cfg, env=None):
    """simulate keeps root-private names aside; with `_peel` returning its
    input, they stay in the term as restriction nodes, as the oracle."""
    got, seen = _outcome(p, cfg, env)
    with mock.patch.object(simulator, "_peel", lambda q, names, hidden: q):
        want, expected = _outcome(p, cfg, env)
    assert seen == expected
    assert alpha_equivalent(got.final_process, want.final_process)
    return got


@pytest.mark.parametrize("policy", ["first", "random"])
def test_root_private_names_change_no_bundled_run(policy):
    entries = [e for e in list_models() if "main" in e.files]
    assert len(entries) >= 7
    for entry in entries:
        p = load(entry.id).main.entry
        cfg = sim_config(min(entry.horizon, 20.0), entry.step, policy=policy, seed=3)
        assert_same_as_restrictions_in_the_term(p, cfg, bind_env(p, entry.env))


@pytest.mark.parametrize("repl", [False, True])
def test_root_private_names_change_no_generated_run(repl):
    terms = random_terms(11, 60, budget=6, repl=repl)
    # a self-synchronising copy grows the term at every step: a low Zeno
    # bound ends such a run after a few dozen steps
    with mock.patch.object(simulator, "REPL_DEPTH", 4), mock.patch.object(simulator, "ZENO_MAX_EVENTS", 40):
        for i, text in enumerate(terms):
            for policy in ("first", "random"):
                cfg = sim_config(1.0, policy=policy, seed=i)
                assert_same_as_restrictions_in_the_term(parse_term(f"new a . ({text})"), cfg)


def _evolve_ready(text):
    res = assert_same_as_restrictions_in_the_term(parse_term(text), sim_config(2.0))
    return [ev.provenance for ev in res.trace if ev.kind == "Evolve"]


def test_evolve_hides_a_waiting_root_private_channel():
    # one evolution until the cell stops at x = 1, one waiting to the horizon
    assert _evolve_ready("new c . (c() . 0 || {0 | x' = 1 & x < 1})") == [["{}"]] * 2
    assert _evolve_ready("d() . 0 || {0 | x' = 1 & x < 1}") == [["{d?}"]] * 2


def test_evolve_hides_a_name_extruded_to_the_root():
    # the sync on d at time 0 leaves (new c) at the root of the term
    text = "(new c . d!<c> . 0) || d(y) . (y() . 0 || e() . 0 || {0 | x' = 1 & x < 1})"
    assert _evolve_ready(text) == [["{e?}"]] * 2
