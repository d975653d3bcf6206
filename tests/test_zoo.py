import math

import numpy as np
import pytest

from hybridpi.certificates import automaton_to_json, certificate_to_json
from hybridpi.flows import eval_expr
from hybridpi.kernel import discrete_transitions
from hybridpi.parser import parse_term
from hybridpi.simulator import simulate, trace_to_jsonl, trajectory_to_csv
from hybridpi.syntax import prune
from hybridpi.zoo import (
    A_MAX,
    A_MIN,
    V_MAX,
    ModelNotFound,
    automaton_h,
    certificate_h,
    control_law_f,
    fixture_text,
    list_models,
    load,
    model_text,
    v_lim,
)

from conftest import sim_config

IDS = {
    "bigben",
    "wait",
    "ball",
    "vehicle",
    "handover-network",
    "spec-system",
    "spec-system-failed",
    "composed-automaton-H",
}


def test_listing_and_lookup():
    assert {e.id for e in list_models()} == IDS
    with pytest.raises(ModelNotFound):
        load("no-such-model")


def test_every_hpc_model_parses_and_has_defaults():
    for entry in list_models():
        inst = load(entry.id)
        assert entry.horizon > 0 and entry.step > 0
        if entry.id == "composed-automaton-H":
            assert inst.automaton is not None and inst.certificate is not None
        else:
            assert inst.main.entry is not None


def test_protection_curve_oracles():
    assert v_lim(0.0, 10000.0) == V_MAX
    assert v_lim(9800.0, 10000.0) == pytest.approx(20.0)
    assert v_lim(9999.5, 10000.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        v_lim(10000.0, 10000.0)


def test_control_law_oracles():
    assert control_law_f(0.0, 0.0, 10000.0, 1.0) == A_MAX
    assert control_law_f(9995.0, 3.0, 10000.0, 1.0) == A_MIN
    with pytest.raises(ValueError):
        control_law_f(10000.0, 0.0, 10000.0, 1.0)


def test_control_law_range():
    rng = np.random.default_rng(42)
    for _ in range(500):
        p0 = rng.uniform(0.0, 9999.0)
        v0 = rng.uniform(-1.0, 41.0)
        assert control_law_f(p0, v0, 10000.0, 1.0) in (A_MIN, 0.0, A_MAX)


def _model_law(prelude, p0, v0, pe):
    """The acceleration a model's `drive` sends after reading v0."""
    p = parse_term(f"drive(v, a, {p0!r}, {pe!r}, k) || v!<{v0!r}>", prelude=prelude)
    while True:
        trs = discrete_transitions(p).transitions
        sent = [tr.payload for tr in trs if tr.kind == "out" and tr.chan.display == "a"]
        if sent:
            ((value,),) = sent
            return eval_expr(value)
        (step,) = [tr for tr in trs if tr.kind in ("sync", "pass")]
        p = prune(step.agent.body)


def _law_points(rng, pe, n):
    """n points near the full-power/coast curve, n near the coast/brake
    curve and n at random, kept where pe - (p0 + v0 + 0.5) > 0."""
    for _ in range(n):
        gap = rng.uniform(0.0, 900.0)  # to pe after a full-power period
        v_up = math.sqrt(2.0 * gap) - 1.0
        gap_q = rng.uniform(0.0, 900.0)  # to pe after a coasting period
        v_q = math.sqrt(2.0 * gap_q)
        for p0, v0 in ((pe - gap - v_up - 0.5, v_up), (pe - gap_q - v_q, v_q),
                       (rng.uniform(0.0, pe), rng.uniform(0.0, 41.0))):
            if v0 >= 0.0 and pe - (p0 + v0 + 0.5) > 0:
                yield p0, v0


@pytest.mark.parametrize("filename", ["system.hpc", "system-failed.hpc", "network.hpc"])
def test_control_law_matches_each_models_drive(filename):
    """control_law_f is the oracle of the law the models write in `drive`.
    Only where pe - (p0 + v0 + 0.5) > 0: beyond it the model's
    `max(0, ...)` and the Python law's `pe > p_next` may disagree."""
    text = model_text(filename)
    prelude = text[: text.index("\nrun ")]
    rng = np.random.default_rng(7)
    seen = set()
    for p0, v0 in _law_points(rng, 5000.0, 100):
        want = control_law_f(p0, v0, 5000.0, 1.0)
        assert _model_law(prelude, p0, v0, 5000.0) == want, (p0, v0)
        seen.add(want)
    assert seen == {A_MIN, 0.0, A_MAX}


def advance(p, v, a, d=1.0):
    """Exact kinematics over one period, stopping if the speed hits zero."""
    if a < 0 and v + a * d < 0:
        t = v / -a
        return p + v * t + 0.5 * a * t * t, 0.0
    return p + v * d + 0.5 * a * d * d, v + a * d


def test_sector_safety_grid():
    pe = 10000.0
    for p0 in np.arange(0.0, pe - 1.0, 487.0):
        for v0 in np.arange(0.0, 41.0, 5.0):
            p, v = float(p0), min(float(v0), v_lim(p0, pe) if p0 < pe else 0.0)
            for _ in range(600):
                if pe - p <= 1e-9:
                    break  # parked exactly at the sector end
                a = control_law_f(p, v, pe, 1.0)
                p, v = advance(p, v, a)
                assert p <= pe + 1.0, (p0, v0)


def test_fixtures_regenerate_bitwise():
    for id_, kinds in (("bigben", ("trace",)), ("wait", ("trace", "trajectory"))):
        inst = load(id_)
        e = inst.entry
        res = simulate(inst.main.entry, sim_config(e.horizon, e.step))
        if "trace" in kinds:
            assert trace_to_jsonl(res.trace) == fixture_text(e.fixtures["trace"])
        if "trajectory" in kinds:
            assert trajectory_to_csv(res.segments) == fixture_text(e.fixtures["trajectory"])


def test_bundled_automaton_files_match_builders():
    assert model_text("automaton-h.json") == automaton_to_json(automaton_h())
    assert model_text("certificate.json") == certificate_to_json(certificate_h())


def test_certificate_value_at_origin():
    phi = certificate_h().phi["run"]
    zeros = np.zeros(len(automaton_h().all_coords))
    assert phi(zeros) == pytest.approx(-0.40900, abs=1e-12)


def test_vehicle_model_exchanges_control():
    inst = load("vehicle")
    res = simulate(inst.main.entry, sim_config(20.0, 1e-3))
    assert any(ev.kind == "Sync" for ev in res.trace)
    assert any(ev.kind == "Evolve" for ev in res.trace)


def test_a_file_named_for_two_roles_is_parsed_once():
    inst = load("spec-system")
    assert inst.entry.files["main"] == inst.entry.files["system"]
    assert inst.models["main"] is inst.models["system"]
