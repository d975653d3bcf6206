import json

import pytest

from hybridpi.cli import main
from hybridpi.zoo import list_models, model_text


@pytest.fixture
def hpc(tmp_path):
    def write(name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    return write


def test_parse_prints_elaborated_term(hpc, capsys):
    f = hpc("m.hpc", "const k = 2;\nrun a!<k> . 0;")
    assert main(["parse", f]) == 0
    out = capsys.readouterr().out
    assert "const k = 2;" in out and "run a!<2>;" in out


def test_parse_error_is_model_exit(hpc, capsys):
    f = hpc("bad.hpc", "run a!<;")
    assert main(["parse", f]) == 3
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_model_exit(capsys):
    assert main(["simulate", "/nonexistent.hpc"]) == 3


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["approx", "a.hpc", "b.hpc"])  # --eps/--delta are required
    assert e.value.code == 2


def test_simulate_writes_identical_artifacts_on_rerun(hpc, tmp_path, capsys):
    f = hpc("w.hpc", model_text("wait.hpc"))
    trace = tmp_path / "t.jsonl"
    traj = tmp_path / "x.csv"
    outs = []
    for _ in range(2):
        assert main(["simulate", f, "--horizon", "5", "--out-trace", str(trace),
                     "--out-traj", str(traj)]) == 0
        outs.append((trace.read_text(), traj.read_text()))
    assert outs[0] == outs[1]
    assert "status=inaction" in capsys.readouterr().err


def test_lts_json_document(hpc, tmp_path):
    f = hpc("d.hpc", "run tau . a!<1>;")
    out = tmp_path / "lts.json"
    assert main(["lts", f, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"initial", "states", "transitions", "bounded", "truncated", "skipped"}
    assert len(doc["states"]) == 3


def test_bisim_exit_codes(hpc, capsys):
    a = hpc("a.hpc", "run a!<1> || 0;")
    b = hpc("b.hpc", "run a!<1>;")
    c = hpc("c.hpc", "run a!<0>;")
    assert main(["bisim", a, b, "--mode", "strong"]) == 0
    assert main(["bisim", a, c, "--mode", "strong"]) == 1
    t = hpc("t.hpc", "run tau . a!<1>;")
    assert main(["bisim", t, b, "--mode", "strong"]) == 1
    assert main(["bisim", t, b, "--mode", "weak"]) == 0


def test_approx_with_scenarios_and_report(hpc, tmp_path):
    a = hpc("a.hpc", "run {0 | x' = u & x < 100};")
    b = hpc("b.hpc", "run {0 | x' = u & x < 100};")
    sc = hpc("sc.json", json.dumps([{"u": 0.5}, [[0.0, {"u": 1.0}], [1.0, {"u": -1.0}]]]))
    out = tmp_path / "report.json"
    rc = main(["approx", a, b, "--eps", "0.001", "--delta", "0", "--observe", "x",
               "--scenarios", sc, "--horizon", "2", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "consistent" and rep["scenarios"] == 2


def test_approx_refuted_and_jobs_merge(hpc, tmp_path):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    b = hpc("b.hpc", "run {0 | x' = 2 & x < 100};")
    sc = hpc("sc.json", json.dumps([{}, {}]))
    out = tmp_path / "report.json"
    rc = main(["approx", a, b, "--eps", "0.5", "--delta", "10", "--observe", "x",
               "--scenarios", sc, "--horizon", "2", "--jobs", "2", "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert rep["status"] == "refuted" and rep["counterexample"]["variable"] == "x"


def test_approx_report_is_the_same_for_every_jobs_value(hpc, tmp_path):
    a = hpc("a.hpc", "run {0 | x' = u & x < 100};")
    b = hpc("b.hpc", "run {0 | x' = 1 & x < 100};")
    sc = hpc("sc.json", json.dumps([{"u": 1}, {"u": 1}, {"u": 5}]))
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"report{jobs}.json"
        rc = main(["approx", a, b, "--eps", "0.5", "--delta", "10", "--observe", "x",
                   "--scenarios", sc, "--horizon", "2", "--jobs", jobs, "--out", str(out)])
        assert rc == 1
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["counterexample"]["scenario"] == 2
    assert [s["scenario"] for s in reports[0]["per_scenario"]] == [0, 1, 2]


def test_approx_jobs_parse_error_is_model_exit(hpc, capsys):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    bad = hpc("bad.hpc", "run a!<;")
    sc = hpc("sc.json", json.dumps([{}, {}]))
    assert main(["approx", a, bad, "--eps", "1", "--delta", "1", "--scenarios", sc,
                 "--horizon", "1", "--jobs", "2"]) == 3
    assert "error:" in capsys.readouterr().err


def test_discretize_emits_runnable_model(hpc, tmp_path):
    f = hpc("cell.hpc", "run {1 | v' = v & v < 99};")
    out = tmp_path / "disc.hpc"
    assert main(["discretize", f, "--eps", "0.001", "--duration", "1",
                 "--step", "0.1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("run ") and text.rstrip().endswith(";")
    assert main(["parse", str(out)]) == 0


def test_certcheck_exit_codes(hpc, tmp_path, capsys):
    # the bundled pair has surfaced guard-edge violations: exit 1
    aut = hpc("h.json", model_text("automaton-h.json"))
    cert = hpc("c.json", model_text("certificate.json"))
    out = tmp_path / "cert-report.json"
    rc = main(["certcheck", aut, cert, "--samples", "2000", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "BC-1" in err and "witness" in err
    rep = json.loads(out.read_text())
    assert rep["ok"] is False and "reports" not in rep


def test_non_finite_tolerances_and_horizons_are_model_exit(hpc, capsys):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    b = hpc("b.hpc", "run {0 | x' = 2 & x < 100};")
    sc = hpc("sc.json", json.dumps([{}, {}]))
    aut = hpc("h.json", model_text("automaton-h.json"))
    cert = hpc("c.json", model_text("certificate.json"))
    for argv in (
        ["simulate", a, "--horizon", "nan"],
        ["simulate", a, "--horizon", "inf"],
        ["simulate", a, "--step", "nan"],
        ["approx", a, b, "--eps", "nan", "--delta", "1", "--observe", "x", "--horizon", "1"],
        ["approx", a, b, "--eps", "1", "--delta", "-1", "--observe", "x", "--horizon", "1",
         "--scenarios", sc, "--jobs", "2"],
        ["certcheck", aut, cert, "--samples", "100", "--tol", "nan"],
    ):
        assert main(argv) == 3, argv
        assert "error:" in capsys.readouterr().err


def test_models_list_and_run(capsys):
    assert main(["models", "list"]) == 0
    out = capsys.readouterr().out
    for e in list_models():
        assert e.id in out
    assert main(["models", "run", "wait"]) == 0
    assert "status=inaction" in capsys.readouterr().err
    assert main(["models", "run", "no-such-model"]) == 3
    assert main(["models", "run", "composed-automaton-H"]) == 3


def test_models_show_prints_sources(capsys):
    assert main(["models", "show", "ball"]) == 0
    out = capsys.readouterr().out
    assert "ball.hpc" in out and "ready v!" in out


def test_seed_env_variable_sets_default(hpc, monkeypatch, capsys):
    monkeypatch.setenv("HYBRIDPI_SEED", "11")
    from hybridpi.cli import _sim_config, build_parser

    args = build_parser().parse_args(["simulate", "x.hpc"])
    assert _sim_config(args).seed == 11


def test_blow_up_is_model_exit_naming_the_time(hpc, tmp_path, capsys):
    f = hpc("blow.hpc", "run {1 | x' = x*x};")
    traj = tmp_path / "x.csv"
    assert main(["simulate", f, "--horizon", "2", "--out-traj", str(traj)]) == 3
    err = capsys.readouterr().err
    assert "not finite 1.003 s into the evolution" in err
    assert not traj.exists()


def test_deep_term_is_model_exit_not_a_traceback(hpc, capsys):
    f = hpc("deep.hpc", "run " + "tau . " * 600 + "0;")
    assert main(["simulate", f, "--horizon", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_simulate_prints_diagnostics_as_warnings(hpc, capsys):
    # the second copy is not built, so the guard is reported once, for copy #1
    f = hpc("g.hpc", "run (repl ([x < 1] . b!<> + a() . 0)) || (a!<> . a!<>);")
    assert main(["simulate", f, "--horizon", "1"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "warning: undefined-guard at run:1:12#1"
    assert err[1].startswith("status=horizon")


CHAIN = "run mu x(n) @ <0> . i() . ([n < 30] . x!<n+1> + [n >= 30] . {end}!<>);"


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_bisim_on_a_cut_off_lts_is_inconclusive(hpc, capsys, mode):
    # 20 states stop both chains before the ends that tell them apart
    good = hpc("good.hpc", CHAIN.format(end="good"))
    bad = hpc("bad.hpc", CHAIN.format(end="bad"))
    assert main(["bisim", good, bad, "--mode", mode, "--max-states", "20"]) == 3
    err = capsys.readouterr().err
    assert f"inconclusive: {good} hit max_states=20" in err
    assert "holds" not in err
    assert main(["bisim", good, bad, "--mode", mode]) == 1


def test_bisim_on_a_truncated_lts_is_inconclusive(hpc, capsys):
    f = hpc("r.hpc", "run repl repl a!<1>;")
    assert main(["bisim", f, f, "--depth", "1"]) == 3
    err = capsys.readouterr().err
    assert f"inconclusive: {f} hit repl depth=1" in err and "holds" not in err


def test_lts_summary_names_truncation(hpc, tmp_path, capsys):
    f = hpc("r.hpc", "run repl repl a!<1>;")
    assert main(["lts", f, "--depth", "1", "--out", str(tmp_path / "l.json")]) == 0
    assert "truncated=True" in capsys.readouterr().err



def _certcheck_error(hpc, capsys, automaton, certificate, *flags):
    aut = hpc("h.json", automaton if automaton is not None else model_text("automaton-h.json"))
    cert = hpc("c.json", certificate if certificate is not None else model_text("certificate.json"))
    assert main(["certcheck", aut, cert, "--samples", "16", *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    return aut, cert, err


def test_certcheck_automaton_without_coords_is_model_exit(hpc, capsys):
    doc = json.loads(model_text("automaton-h.json"))
    del doc["coords"]
    aut, _, err = _certcheck_error(hpc, capsys, json.dumps(doc), None)
    assert f"{aut}: automaton: missing 'coords'" in err


def test_certcheck_top_level_list_is_model_exit(hpc, capsys):
    aut, _, err = _certcheck_error(hpc, capsys, "[1, 2]", None)
    assert f"{aut}: automaton: expected a JSON object, got list" in err
    _, cert, err = _certcheck_error(hpc, capsys, None, "[]")
    assert f"{cert}: certificate: expected a JSON object, got list" in err


def test_certcheck_certificate_missing_a_location_is_model_exit(hpc, capsys):
    for part, key in (("phi", "phi"), ("lambda", "lambda")):
        doc = json.loads(model_text("certificate.json"))
        doc[key] = {}
        _, _, err = _certcheck_error(hpc, capsys, None, json.dumps(doc))
        assert f"certificate has no {part} for location 'run'" in err


def test_certcheck_zero_samples_is_model_exit(hpc, capsys):
    _, _, err = _certcheck_error(hpc, capsys, None, None, "--samples", "0")
    assert "samples must be a positive count, got 0" in err


def test_approx_malformed_scenario_is_model_exit(hpc, capsys):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    sc = hpc("sc.json", json.dumps([[0, 1]]))
    assert main(["approx", a, a, "--eps", "1", "--delta", "1", "--scenarios", sc, "--horizon", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sc}: malformed scenario 0") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("scenarios", [[{"u": "abc"}], [[["a", {"u": 1}]]]])
def test_approx_scenario_with_a_bad_value_names_file_and_index(hpc, capsys, scenarios):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    sc = hpc("sc.json", json.dumps([{"u": 1}] + scenarios))
    assert main(["approx", a, a, "--eps", "1", "--delta", "1", "--scenarios", sc, "--horizon", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sc}: malformed scenario 1 (could not convert") and len(err.strip().splitlines()) == 1


def test_certcheck_bad_term_key_names_file_and_key(hpc, capsys):
    doc = json.loads(model_text("certificate.json"))
    doc["phi"]["run"]["x,0"] = 1.0
    _, cert, err = _certcheck_error(hpc, capsys, None, json.dumps(doc))
    assert f"{cert}: certificate: term 'x,0': invalid literal" in err


def test_certcheck_location_without_field_names_the_location(hpc, capsys):
    doc = json.loads(model_text("automaton-h.json"))
    del doc["locations"]["run"]["field"]
    aut, _, err = _certcheck_error(hpc, capsys, json.dumps(doc), None)
    assert f"{aut}: automaton: location 'run': missing 'field'" in err


def test_simulate_env_with_a_bad_value_names_the_flag(hpc, capsys):
    f = hpc("w.hpc", model_text("wait.hpc"))
    assert main(["simulate", f, "--horizon", "1", "--env", "u=abc"]) == 3
    err = capsys.readouterr().err
    assert err == "error: --env u: 'abc' is not a number\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_lts_and_bisim_reject_a_non_finite_universe(hpc, tmp_path, capsys, value):
    f = hpc("r.hpc", "run a(x) . b!<x>;")
    out = tmp_path / "l.json"
    assert main(["lts", f, "--universe", "0", value, "--out", str(out)]) == 3
    assert main(["bisim", f, f, "--universe", value]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("error: universe values must be finite") for e in err)
    assert not out.exists()


def test_arity_mismatch_is_model_exit(hpc, capsys):
    f = hpc("ar.hpc", "run a(x) . 0 || a!<1, 2>;")
    assert main(["simulate", f, "--horizon", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: arity mismatch: abstraction of 1 applied to 2 values\n"


def test_bad_seed_env_variable_is_model_exit(hpc, monkeypatch, capsys):
    f = hpc("w.hpc", model_text("wait.hpc"))
    monkeypatch.setenv("HYBRIDPI_SEED", "abc")
    assert main(["simulate", f, "--horizon", "1"]) == 3
    assert capsys.readouterr().err == "error: HYBRIDPI_SEED: 'abc' is not an integer\n"


def test_certcheck_truncated_json_names_file_and_part(hpc, capsys):
    aut, _, err = _certcheck_error(hpc, capsys, model_text("automaton-h.json")[:100], None)
    assert err.startswith(f"error: {aut}: automaton: Unterminated string")
    _, cert, err = _certcheck_error(hpc, capsys, None, '{"phi": ')
    assert err.startswith(f"error: {cert}: certificate: Expecting value: line 1 column 9")


def test_approx_truncated_scenarios_name_the_file(hpc, capsys):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    sc = hpc("sc.json", '[{"u": 1}')
    assert main(["approx", a, a, "--eps", "1", "--delta", "1", "--scenarios", sc, "--horizon", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sc}: Expecting ',' delimiter") and len(err.strip().splitlines()) == 1


def test_bad_seed_env_variable_only_refuses_a_seed_it_would_supply(hpc, monkeypatch, capsys):
    f = hpc("w.hpc", model_text("wait.hpc"))
    d = hpc("d.hpc", "run a(v) . b!<v>;")
    monkeypatch.setenv("HYBRIDPI_SEED", "abc")
    assert main(["parse", d]) == 0
    assert main(["lts", d]) == 0
    assert main(["bisim", d, d]) == 0
    assert main(["simulate", f, "--horizon", "1", "--seed", "5"]) == 0
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert "error" not in capsys.readouterr().err


def test_approx_takes_no_output_flags(hpc, capsys):
    f = hpc("w.hpc", model_text("wait.hpc"))
    for flag in ("--out-trace", "--out-traj"):
        with pytest.raises(SystemExit) as e:
            main(["approx", f, f, "--eps", "1", "--delta", "0", flag, "x"])
        assert e.value.code == 2


def test_event_limit_is_model_exit(hpc, monkeypatch, capsys):
    from hybridpi import simulator

    monkeypatch.setattr(simulator, "MAX_EVENTS", 10)
    f = hpc("r.hpc", "run repl tau . a!<>;")
    assert main(["simulate", f, "--horizon", "1"]) == 3
    assert capsys.readouterr().err == "error: more than 10 events\n"
