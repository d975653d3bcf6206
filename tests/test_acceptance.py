"""End-to-end acceptance checks: analytic oracles, desk-scale co-simulation
bands, certificate margins, mobility provenance, and bitwise determinism."""

import hashlib
import math
import time

import numpy as np
import pytest

from hybridpi.certificates import check_certificate
from hybridpi.equivalence import approx_bisim, bind_env, build_lts, discretize, strong_bisim
from hybridpi.parser import parse_term
from hybridpi.simulator import simulate, trace_to_jsonl, trajectory_series, trajectory_to_csv
from hybridpi.syntax import (
    Const,
    Guard,
    Op,
    Parallel,
    Restriction,
    Sum,
    Var,
    fresh,
    refresh,
)
from hybridpi.zoo import automaton_h, certificate_h, load
from termgen import TermGen

import random

from conftest import sim_config

NIL = Sum(())
WAIT = "def wait(d) = new w . {0 | w' = 1 & w < d};"


# -- exponential cell stops at ln 5 ------------------------------


def run_exponential():
    p = parse_term("{1 | v' = v & v < 5}(y) . tau")
    return simulate(p, sim_config(5.0, 1e-3))


def test_01_exponential_boundary_stop():
    t0 = time.monotonic()
    res = run_exponential()
    elapsed = time.monotonic() - t0
    (stop,) = [ev for ev in res.trace if ev.kind == "Stop"]
    assert stop.time == pytest.approx(math.log(5.0), abs=1e-3)
    (value,) = stop.values.values()
    assert value == pytest.approx(5.0, abs=1e-3)
    assert elapsed < 1.0


# -- bouncing ball oracles ------------------------------------------------


def run_ball():
    inst = load("ball")
    return simulate(inst.main.entry, sim_config(12.0, inst.entry.step))


def test_02_bouncing_ball_oracles():
    res = run_ball()
    first_stop = [ev for ev in res.trace if ev.kind == "Stop"][0]
    assert first_stop.time == pytest.approx(math.sqrt(2 * 5 / 9.8), abs=2e-3)
    first_act = [ev for ev in res.trace if ev.kind == "Actuate"][0]
    assert first_act.values[0] == pytest.approx(7.920, abs=2e-2)
    assert res.status == "zeno" and res.zeno.flagged
    assert res.zeno.accumulation == pytest.approx(9.09, abs=0.05)


# -- urgency ------------------------------------------------------


def run_urgent():
    return simulate(parse_term("x(y) . tau || x!<1>"), sim_config(1.0))


def test_03_matched_pair_synchronizes_without_delay():
    res = run_urgent()
    kinds = [ev.kind for ev in res.trace]
    sync_at = kinds.index("Sync")
    assert "Evolve" not in kinds[: sync_at + 1]
    assert res.trace[sync_at].time == 0.0


# -- algebraic laws on random discrete terms ----------------------


def bisimilar(p, q) -> bool:
    return strong_bisim(build_lts(p), build_lts(q))[0]


def test_04_algebraic_law_suite():
    t0 = time.monotonic()
    gen = TermGen(random.Random(20260823), chans=("a", "b"))
    genq = TermGen(random.Random(1), chans=("a", "b", "x"))
    genr = TermGen(random.Random(2), chans=("a", "b", "x", "y"))
    # (new x) 0 ~ 0, once: it has no generated parts
    assert bisimilar(Restriction(fresh("x"), NIL), NIL)
    for i in range(200):
        shared: dict = {}
        p = parse_term(gen.term(4), shared)
        # P || 0 ~ P
        assert bisimilar(Parallel(p, NIL), p), i
        # M + 0 ~ M: an inert alternative adds no behavior
        m = parse_term(gen.sum(4, ()), shared)
        padded = Sum(m.branches + ((Guard(Op("false", ())), NIL),), tag=m.tag)
        assert bisimilar(padded, m), i
        # (new x)(P || Q) ~ P || (new x) Q  when x not free in P
        q = parse_term(genq.term(4), shared)
        xn = shared.get("x") or fresh("x")
        assert bisimilar(
            Restriction(xn, Parallel(p, q)), Parallel(p, Restriction(xn, q))
        ), i
        # (new x)(new y) R ~ (new y)(new x) R
        r = parse_term(genr.term(4), shared)
        yn = shared.get("y") or fresh("y")
        assert bisimilar(
            Restriction(xn, Restriction(yn, r)),
            Restriction(yn, Restriction(xn, r)),
        ), i
    assert time.monotonic() - t0 < 60.0


# -- congruence contexts ------------------------------------------


def test_05_congruence_spot_checks():
    gen = TermGen(random.Random(31), chans=("a", "b"))
    guard = Guard(Op("false", ()))  # inert companion branch for the sum context
    checked = 0
    for i in range(50):
        shared: dict = {}
        p = parse_term(gen.term(4), shared)
        q = refresh(Parallel(NIL, p))  # bisimilar to p by construction
        assert bisimilar(p, q)
        m = parse_term(gen.sum(3, ()), shared)
        r = parse_term(gen.term(3), shared)
        b = Guard(Op("<", (Const(0.0), Const(1.0))))
        for cp, cq in (
            (Sum(((b, p),) + m.branches), Sum(((b, q),) + m.branches)),
            (Restriction(fresh("x"), p), Restriction(fresh("x"), q)),
            (Parallel(p, r), Parallel(q, r)),
        ):
            assert bisimilar(cp, cq), i
            checked += 1
    assert checked == 150


# -- weak chopping of delays ------------------------------------------------


def chopping_verdicts():
    cfg = sim_config(5.0)
    p = parse_term("wait(3)", prelude=WAIT)
    chopped = parse_term("wait(1) . tau . wait(1) . tau . tau . wait(1)", prelude=WAIT)
    shorter = parse_term("wait(2)", prelude=WAIT)
    ok = approx_bisim(p, chopped, 0.0, 0.0, cfg)
    bad = approx_bisim(parse_term("wait(3)", prelude=WAIT), shorter, 0.0, 0.0, cfg)
    return ok, bad


def test_06_chopped_delays_coincide():
    ok, bad = chopping_verdicts()
    assert ok.status == "consistent"
    assert bad.status == "refuted"
    assert bad.counterexample["skew"] == pytest.approx(1.0, abs=1e-6)


# -- discretization accuracy ---------------------------------------


def disc_endpoint(step: float) -> float:
    v = fresh("v")
    q = discretize([Const(1.0)], [v], [Var(v)], 1.0, step)
    res = simulate(q, sim_config(2.0))
    ev = [e for e in res.trace if e.kind == "Sync" and e.values][-1]
    return ev.values[0]


def test_07_rk4_discretization_endpoint_and_order():
    errs = [abs(disc_endpoint(s) - math.e) for s in (0.1, 0.05, 0.025)]
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


# -- ideal-train kinematics ----------------------------------------


def run_spec():
    inst = load("spec-system")
    return simulate(inst.models["spec"].entry, sim_config(310.0, 1e-2))


def test_08_ideal_train_checkpoints():
    res = run_spec()
    tv, vv = trajectory_series(res.segments, "v")
    tp, pv = trajectory_series(res.segments, "p")
    t_full_speed = tv[np.argmax(vv >= 40.0 - 1e-9)]
    assert t_full_speed == pytest.approx(40.0, abs=0.5)
    assert np.interp(t_full_speed, tp, pv) == pytest.approx(800.0, abs=2.0)
    assert pv[-1] == pytest.approx(10000.0, abs=2.0)
    assert tp[-1] == pytest.approx(290.0, abs=0.5)


# -- desk-scale train co-simulation --------------------------------


def scenario_set():
    scs = [{"u": -0.1}, {"u": 0.0}, {"u": 0.1}]
    for i in range(20):
        rng = np.random.default_rng(1234 + i)
        ts = np.arange(0.0, 400.0, 1.0)
        us = rng.uniform(-0.1, 0.1, len(ts))
        scs.append([(float(t), {"u": float(u)}) for t, u in zip(ts, us)])
    return scs


def test_09_successful_handover_distance_bound():
    inst = load("spec-system")
    spec = inst.models["spec"].entry
    system = inst.models["system"].entry
    t0 = time.monotonic()
    verdict = approx_bisim(
        spec, system, 400.0, 1e9, sim_config(310.0, 2e-2),
        scenarios=scenario_set(), observe=("x",),
    )
    elapsed = time.monotonic() - t0
    assert verdict.status == "consistent"
    assert verdict.max_distance <= 400.0
    worst_constant = max(s["distance"] for s in verdict.per_scenario[:3])
    assert 120.0 <= worst_constant <= 280.0
    assert elapsed < 30.0


def cosimulate_failed(scenario, step=1e-2):
    """One scenario of the refused-handover pair; returns the observed
    distance on x and the disturbed train's final position."""
    inst = load("spec-system-failed")
    cfg = sim_config(400.0, step)
    dists = []
    finals = []
    series = []
    for role in ("spec", "system"):
        p = inst.models[role].entry
        res = simulate(p, cfg, bind_env(p, scenario))
        series.append(trajectory_series(res.segments, "x"))
    (t1, x1), (t2, x2) = series
    end = min(t1[-1], t2[-1])
    grid = np.unique(np.concatenate([t1[t1 <= end], t2[t2 <= end]]))
    dist = float(np.max(np.abs(np.interp(grid, t1, x1) - np.interp(grid, t2, x2))))
    return dist, float(x2[-1])


def test_10_refused_handover_distance_and_parking():
    worst_dist = 0.0
    worst_final = -math.inf
    for sc in scenario_set():
        dist, final = cosimulate_failed(sc)
        worst_dist = max(worst_dist, dist)
        worst_final = max(worst_final, final)
    assert worst_dist <= 300.0
    assert worst_final <= 5002.0


# -- certificate margins ------------------------------------------


def run_certcheck(samples=100_000):
    return check_certificate(automaton_h(), certificate_h(), samples=samples)


def test_11_certificate_margins_and_witnesses():
    t0 = time.monotonic()
    out = run_certcheck()
    elapsed = time.monotonic() - t0
    by_cond = {}
    for r in out["reports"]:
        by_cond.setdefault(r.condition, []).append(r)
    # the all-zero initial state pins the certificate value exactly
    (bc1,) = by_cond["BC-1"]
    assert bc1.ok
    assert bc1.min_margin == pytest.approx(-0.40900, abs=1e-12)
    assert bc1.max_margin == pytest.approx(-0.40900, abs=1e-12)
    assert all(r.ok for r in by_cond["BC-2"])
    assert all(r.ok for r in by_cond["BC-4"])
    # the reconstructed guard edges violate BC-3; every violation must
    # carry a concrete witness point
    violations = [r for r in out["reports"] if not r.ok]
    assert violations and all(r.condition == "BC-3" for r in violations)
    for r in violations:
        assert r.witness is not None and "value" in r.witness
    assert any(r.ok for r in by_cond["BC-3"])  # the protection-curve edges pass
    assert elapsed < 60.0


# -- channel mobility in the handover network ---------------------


@pytest.fixture(scope="module")
def network_run():
    inst = load("handover-network")
    res = simulate(inst.main.entry, sim_config(450.0, 1e-2))
    return res


def sector_of(ev):
    """The sector instance stamp on a train sense/actuate event: the tag
    that is not shared with every other such event."""
    return [t for t in ev.provenance if "#" in t]


def test_12_provenance_migrates_at_handovers(network_run):
    res = network_run
    syncs = {ev.chan: ev.time for ev in res.trace
             if ev.kind == "Sync" and ev.chan in ("ch0", "ch1", "ch2")}
    assert set(syncs) == {"ch0", "ch1", "ch2"}
    assert syncs["ch0"] == 0.0 < syncs["ch1"] < syncs["ch2"]

    # target-position actuations arrive exactly at the handover syncs
    q_acts = [ev for ev in res.trace if ev.kind == "Actuate" and ev.chan == "q"]
    assert [ev.values[0] for ev in q_acts] == [5000.0, 10000.0, 15000.0]
    assert [ev.time for ev in q_acts] == [syncs["ch0"], syncs["ch1"], syncs["ch2"]]

    # the sector stamp on p/v/a traffic changes exactly at the handovers
    events = [ev for ev in res.trace
              if ev.kind in ("Sense", "Actuate") and ev.chan in ("p", "v", "a")]
    train_tags = set(events[0].provenance)
    for ev in events:
        train_tags &= set(ev.provenance)
    changes = []
    cur = None
    for ev in events:
        (tag,) = [t for t in ev.provenance if t not in train_tags]
        stamp = tag.split("#")[1]
        if stamp != cur:
            changes.append((ev.time, stamp))
            cur = stamp
    assert [t for t, _ in changes] == [syncs["ch0"], syncs["ch1"], syncs["ch2"]]
    assert len({s for _, s in changes}) == 3

    tp, pv = trajectory_series(res.segments, "p")
    assert pv[-1] == pytest.approx(15000.0, abs=5.0)


def test_handover_copies_keep_their_stamps(network_run):
    # the 450-s run commits moves of factory copies at every handover, so
    # its trace pins the stamp each committed copy draws
    digest = hashlib.sha256(trace_to_jsonl(network_run.trace).encode()).hexdigest()
    assert digest == "a176e5b93e7fb608bf6f76cb92e812f3e63578619aa5799d36fd58447020cbd9"


# -- determinism ---------------------------------------------------


def test_13_reruns_are_bitwise_identical(network_run):
    assert trace_to_jsonl(run_exponential().trace) == trace_to_jsonl(run_exponential().trace)
    assert trace_to_jsonl(run_ball().trace) == trace_to_jsonl(run_ball().trace)
    assert trace_to_jsonl(run_urgent().trace) == trace_to_jsonl(run_urgent().trace)

    ok_a, bad_a = chopping_verdicts()
    ok_b, bad_b = chopping_verdicts()
    assert ok_a.to_dict() == ok_b.to_dict() and bad_a.to_dict() == bad_b.to_dict()

    assert disc_endpoint(0.1) == disc_endpoint(0.1)

    a, b = run_spec(), run_spec()
    assert trace_to_jsonl(a.trace) == trace_to_jsonl(b.trace)
    assert trajectory_to_csv(a.segments) == trajectory_to_csv(b.segments)

    # one scenario each from the co-simulation sets
    inst = load("spec-system")
    sc = scenario_set()[2]
    v1 = approx_bisim(inst.models["spec"].entry, inst.models["system"].entry,
                      400.0, 1e9, sim_config(310.0, 2e-2), scenarios=[sc], observe=("x",))
    v2 = approx_bisim(inst.models["spec"].entry, inst.models["system"].entry,
                      400.0, 1e9, sim_config(310.0, 2e-2), scenarios=[sc], observe=("x",))
    assert v1.to_dict() == v2.to_dict()
    assert cosimulate_failed(sc) == cosimulate_failed(sc)

    c1, c2 = run_certcheck(20_000), run_certcheck(20_000)
    assert c1["conditions"] == c2["conditions"]

    inst = load("handover-network")
    again = simulate(inst.main.entry, sim_config(450.0, 1e-2))
    assert trace_to_jsonl(again.trace) == trace_to_jsonl(network_run.trace)
    assert trajectory_to_csv(again.segments) == trajectory_to_csv(network_run.segments)
