import json
import sys

import pytest

from hybridpi.cli import main
from hybridpi.syntax import MAX_DEPTH
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


def test_parse_prints_a_flat_parallel_flat(hpc, capsys):
    f = hpc("m.hpc", "run a!<> || b!<> || c!<> || (d!<> || e!<>);")
    assert main(["parse", f]) == 0
    assert capsys.readouterr().out == "run a!<> || b!<> || c!<> || (d!<> || e!<>);\n"


def test_parse_error_is_model_exit(hpc, capsys):
    f = hpc("bad.hpc", "run a!<;")
    assert main(["parse", f]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    ("const x = 1; run {0 | x' = 1};", "1:23: ODE variable 'x' shadows a constant"),
    ("run {0, 0 | x' = 1, x' = 2};", "1:21: duplicate ODE variable 'x'"),
    ("run new y . {0 | x' = 1 ; ready y!};", "1:33: ready item 'y' is not an ODE variable"),
    ("run {0 | x' = 1 ; ready x};", "1:26: ready item needs ! (sense) or ? (actuate)"),
    ("run {0, 1 | x' = 1};", "1:5: continuous prefix has 2 initial value(s) for 1 variable(s)"),
    ("run {0 | x' = 1}(a, b);", "1:5: continuous prefix binds 2 name(s) for 1 variable(s)"),
])
def test_parse_errors_of_a_continuous_prefix(hpc, capsys, text, line):
    f = hpc("c.hpc", text)
    assert main(["parse", f]) == 3
    assert capsys.readouterr().err == f"error: {line}\n"


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


@pytest.mark.parametrize("a, b, mode, code", [
    # Milner's third tau-law with an input prefix: the extra a-move to b!<>
    # is matched by a followed by tau
    ("a() . (tau . b!<> + c!<>)", "a() . (tau . b!<> + c!<>) + a() . b!<>", "weak", 0),
    ("a() . (tau . b!<> + c!<>)", "a() . (tau . b!<> + c!<>) + a() . b!<>", "strong", 1),
    ("d!<> . (tau . b!<> + c!<>)", "d!<> . (tau . b!<> + c!<>) + d!<> . b!<>", "weak", 0),
    ("tau . a!<> + b!<>", "a!<> + b!<>", "weak", 1),
], ids=["input-weak", "input-strong", "output-weak", "tau-summand-weak"])
def test_bisim_weak_steps_close_under_tau_after_inputs_and_outputs(hpc, capsys, a, b, mode, code):
    fa, fb = hpc("a.hpc", f"run {a};"), hpc("b.hpc", f"run {b};")
    assert main(["bisim", fa, fb, "--mode", mode]) == code
    assert capsys.readouterr().err == f"{mode} bisimulation: {'refuted' if code else 'holds'}\n"


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


def test_approx_prints_each_runs_diagnostics(hpc, tmp_path, capsys):
    # a's cell stops, then its guard over the unbound u is undefined
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 1} . [u < 1] . a!<>;")
    b = hpc("b.hpc", "run {0 | x' = 1 & x < 1};")
    sc = hpc("sc.json", json.dumps([{}, {}]))
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"report{jobs}.json"
        assert main(["approx", a, b, "--eps", "1", "--delta", "1", "--observe", "x", "--scenarios", sc,
                     "--horizon", "2", "--jobs", jobs, "--out", str(out)]) == 0
        runs.append((json.loads(out.read_text()), capsys.readouterr().err))
    assert runs[0] == runs[1]
    report, err = runs[0]
    assert [s["diagnostics"] for s in report["per_scenario"]] == [{"a": [["undefined-guard", "run:1:28"]], "b": []}] * 2
    assert err.splitlines() == [
        f"warning: {a} scenario 0: undefined-guard at run:1:28",
        f"warning: {a} scenario 1: undefined-guard at run:1:28",
        "consistent: max distance 0, max skew 0",
    ]


def test_approx_jobs_parse_error_is_model_exit(hpc, capsys):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    bad = hpc("bad.hpc", "run a!<;")
    sc = hpc("sc.json", json.dumps([{}, {}]))
    assert main(["approx", a, bad, "--eps", "1", "--delta", "1", "--scenarios", sc,
                 "--horizon", "1", "--jobs", "2"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_approx_jobs_below_one_is_model_exit(hpc, capsys, jobs):
    a = hpc("a.hpc", "run {0 | x' = 1 & x < 100};")
    sc = hpc("sc.json", json.dumps([{}, {}]))
    assert main(["approx", a, a, "--eps", "1", "--delta", "1", "--scenarios", sc,
                 "--horizon", "1", "--jobs", jobs]) == 3
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"


def test_approx_scenario_error_is_the_same_for_every_jobs_value(hpc, capsys):
    a, b = hpc("spec.hpc", model_text("spec.hpc")), hpc("system.hpc", model_text("system.hpc"))
    sc = hpc("sc.json", json.dumps([{"u": 0.0}, {}]))  # scenario 1 leaves system.hpc's u open
    errs = []
    for jobs in ("1", "2"):
        assert main(["approx", a, b, "--eps", "400", "--delta", "1e9", "--observe", "x",
                     "--scenarios", sc, "--horizon", "30", "--step", "2e-2", "--jobs", jobs]) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: variables without a defining cell or environment value: u\n"


def test_discretize_emits_runnable_model(hpc, tmp_path):
    f = hpc("cell.hpc", "run {1 | v' = v & v < 99};")
    out = tmp_path / "disc.hpc"
    assert main(["discretize", f, "--eps", "0.001", "--duration", "1",
                 "--step", "0.1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("run ") and text.rstrip().endswith(";")
    assert main(["parse", str(out)]) == 0


@pytest.mark.parametrize("box", ["nan", "0", "inf"])
def test_discretize_refuses_a_box_that_is_not_one(hpc, capsys, box):
    f = hpc("decay.hpc", "run {1 | x' = -x};")
    assert main(["discretize", f, "--eps", "1e-3", "--duration", "1", "--box", box]) == 3
    assert capsys.readouterr().err.startswith("error: box bounds must be finite with lo < hi")


def test_discretize_refuses_a_lipschitz_estimate_whose_growth_overflows(hpc, capsys):
    # exp(L*T) overflows for L = 1000 over 1 s: a model error, not a traceback
    f = hpc("fast.hpc", "run {1 | x' = 1000 * x};")
    assert main(["discretize", f, "--eps", "1e-3", "--duration", "1"]) == 3
    assert capsys.readouterr().err == "error: exp(L*T) overflows for the Lipschitz estimate 1000; give --step\n"


def test_discretize_of_a_slow_field_takes_the_small_growth_limit(hpc, capsys):
    # exp(L*T) - 1 cancels to 0 for L = 1e-20; the step is the limit eps / (10*T)
    f = hpc("slow.hpc", "run {1 | x' = 1e-20 * x};")
    assert main(["discretize", f, "--eps", "1e-3", "--duration", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "estimated Lipschitz constant 1e-20, chose step 0.0001\n"
    assert out.startswith("run ") and out.endswith(";\n")


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
    assert main(["models", "show", "nope"]) == 3
    assert capsys.readouterr().err == "error: no model named 'nope'; see list_models()\n"


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


def test_deep_term_is_refused_whatever_the_recursion_limit(hpc, capsys):
    f = hpc("deep.hpc", "run " + "tau . " * 600 + "0;")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        assert main(["simulate", f, "--horizon", "1"]) == 3
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().err == f"error: 1:1: process nested 601 levels deep; at most {MAX_DEPTH} are allowed\n"


@pytest.mark.parametrize("body, code, last", [
    ("new a . " * 250 + "0", 0, "status=inaction"),  # 251 levels, within MAX_DEPTH
    ("repl " * 250 + "a!<>", 0, "status=horizon"),
    ("new a . " * 300 + "0", 3, f"error: 1:1: process nested 301 levels deep; at most {MAX_DEPTH} are allowed"),
], ids=["new", "repl", "new-past-max-depth"])
def test_binder_chains_parse_at_the_default_recursion_limit(hpc, capsys, body, code, last):
    # the parser loops over a chain of new and repl heads, so a chain costs
    # it no frames per head, and only MAX_DEPTH refuses a deep one
    f = hpc("chain.hpc", f"run {body};")
    assert main(["simulate", f, "--horizon", "1"]) == code
    assert capsys.readouterr().err.splitlines()[-1].startswith(last)


@pytest.mark.parametrize("argv", [
    ["simulate", "WAIT", "--env", "zz=5"],
    ["models", "run", "spec-system", "--env", "u=0.1", "--env", "zz=3"],
])
def test_env_key_the_model_does_not_read_is_model_exit(hpc, capsys, argv):
    argv = [hpc("w.hpc", model_text("wait.hpc")) if a == "WAIT" else a for a in argv]
    assert main(argv + ["--horizon", "1"]) == 3
    assert capsys.readouterr().err == "error: --env: key 'zz' is read by no name of the model\n"


def test_env_key_that_names_only_a_channel_is_model_exit(hpc, capsys):
    # a is a free name, but no field, guard or payload reads it as a value
    f = hpc("chan.hpc", "run a(v) . b!<v>;")
    assert main(["simulate", f, "--horizon", "1", "--env", "a=1"]) == 3
    assert capsys.readouterr().err == "error: --env: key 'a' is read by no name of the model\n"


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


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_bisim_over_an_undefined_guard_is_inconclusive(hpc, capsys, mode):
    guarded = hpc("g.hpc", "run [u < 1] . a!<>;")
    nil = hpc("nil.hpc", "run 0;")
    assert main(["bisim", guarded, nil, "--mode", mode]) == 3
    assert capsys.readouterr().err == f"inconclusive: {guarded} undefined guard at run:1:5\n"


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_bisim_refutes_a_free_name_spelled_like_an_extruded_one(hpc, capsys, mode):
    extruded = hpc("x.hpc", "run new a . d!<a>;")
    free = hpc("f.hpc", "run d!<priv0>;")
    assert main(["bisim", extruded, free, "--mode", mode]) == 1
    assert capsys.readouterr().err == f"{mode} bisimulation: refuted\n"


def test_lts_prints_diagnostics_as_warnings(hpc, capsys):
    f = hpc("g.hpc", "run [u < 1] . a!<>;")
    assert main(["lts", f]) == 0
    out, err = capsys.readouterr()
    assert set(json.loads(out)) == {"initial", "states", "transitions", "bounded", "truncated", "skipped"}
    assert err == "warning: undefined-guard at run:1:5\nstates=1 bounded=False truncated=False skipped=0\n"


@pytest.mark.parametrize("command", ["lts", "bisim"])
@pytest.mark.parametrize("flag, message", [
    ("--max-states", "max_states must be at least 1, got -1"),
    ("--depth", "repl_depth must be at least 0, got -1"),
])
def test_bounds_that_bound_nothing_are_model_exit(hpc, capsys, command, flag, message):
    f = hpc("a.hpc", "run a!<>;")
    files = [f] if command == "lts" else [f, f]
    assert main([command, *files, flag, "-1"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("path, key, named", [
    (("edges", 2, "reset"), "zz", "edge 'spec-tick' reset names 'zz'"),
    (("box",), "zz", "box names 'zz'"),
    (("locations", "run", "init", "box"), "zz", "location 'run' init box names 'zz'"),
    (("locations", "run", "field"), "q", "location 'run' field names 'q'"),
])
def test_certcheck_automaton_key_naming_no_coordinate_is_model_exit(hpc, capsys, path, key, named):
    doc = json.loads(model_text("automaton-h.json"))
    table = doc
    for step in path:
        table = table[step]
    table[key] = table[next(iter(table))]  # a valid entry under a key naming nothing
    aut, _, err = _certcheck_error(hpc, capsys, json.dumps(doc), None)
    assert f"{aut}: automaton: malformed ({named}, which is not a state coordinate)" in err


@pytest.mark.parametrize("misspell, named", [
    ((("edges", "edgse"), ("locations", "run", "unsafe", "unsafe_")), "automaton: unknown key 'edgse'"),
    ((("locations", "run", "unsafe", "unsafe_"),), "automaton: location 'run': unknown key 'unsafe_'"),
])
def test_certcheck_unknown_automaton_key_is_model_exit(hpc, capsys, misspell, named):
    doc = json.loads(model_text("automaton-h.json"))
    for *path, key, wrong in misspell:
        table = doc
        for step in path:
            table = table[step]
        table[wrong] = table.pop(key)
    aut, _, err = _certcheck_error(hpc, capsys, json.dumps(doc), None)
    assert f"{aut}: {named}" in err


def test_certcheck_unknown_certificate_key_is_model_exit(hpc, capsys):
    doc = json.loads(model_text("certificate.json"))
    doc["gamm"] = doc["gamma"]
    _, cert, err = _certcheck_error(hpc, capsys, None, json.dumps(doc))
    assert f"{cert}: certificate: unknown key 'gamm'" in err


@pytest.mark.parametrize("scenarios, index", [
    ([{"u": 0.0, "zz": 5}], 0),
    ({"scenarios": [{"u": 0.0}, [[0, {"u": 1.0}], [1, {"u": 0.5, "zz": 2}]]]}, 1),
])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_approx_scenario_key_neither_system_reads_is_model_exit(hpc, capsys, scenarios, index, jobs):
    a, b = hpc("spec.hpc", model_text("spec.hpc")), hpc("system.hpc", model_text("system.hpc"))
    sc = hpc("sc.json", json.dumps(scenarios))
    args = ["approx", a, b, "--eps", "400", "--delta", "1", "--horizon", "1", "--scenarios", sc, "--jobs", jobs]
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {sc}: scenario {index}: key 'zz' is read by neither system\n"
    # a key that only one system reads (spec.hpc reads no u) is accepted
    sc = hpc("sc.json", json.dumps([{"u": 0.0}]))
    assert main(args) == 0


def test_certcheck_gamma_for_no_edge_is_model_exit(hpc, capsys):
    doc = json.loads(model_text("certificate.json"))
    doc["gamma"]["sys-braek"] = 0.5
    _, _, err = _certcheck_error(hpc, capsys, None, json.dumps(doc))
    assert "certificate gamma names 'sys-braek', which is no edge label" in err


@pytest.mark.parametrize("part", ["phi", "lambda"])
def test_certcheck_key_for_no_location_is_model_exit(hpc, capsys, part):
    doc = json.loads(model_text("certificate.json"))
    doc[part]["rnu"] = doc[part]["run"]
    _, _, err = _certcheck_error(hpc, capsys, None, json.dumps(doc))
    assert f"certificate {part} names 'rnu', which is no location" in err


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


def test_lts_counts_a_repeated_universe_value_once(hpc, tmp_path):
    f = hpc("r.hpc", "run a(x) . b!<x>;")
    labels = []
    for universe in (["1", "1"], ["1", "0", "1"]):
        out = tmp_path / "l.json"
        assert main(["lts", f, "--universe", *universe, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        labels.append([label for label, _ in doc["transitions"][doc["initial"]]])
    assert labels == [[["in", "a", [1.0]]], [["in", "a", [1.0]], ["in", "a", [0.0]]]]


@pytest.mark.parametrize("start", ["NaN", "Infinity", "-Infinity"])
def test_approx_scenario_piece_at_no_finite_time_is_model_exit(hpc, capsys, start):
    a = hpc("a.hpc", "run {0 | x' = u & x < 100};")
    sc = hpc("sc.json", f'[{{"u": 0.0}}, [[0, {{"u": 0.0}}], [{start}, {{"u": 5}}]]]')
    assert main(["approx", a, a, "--eps", "1", "--delta", "1", "--scenarios", sc, "--horizon", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sc}: malformed scenario 1 (environment piece starts at a time that is not finite")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_approx_observed_display_of_two_names_is_model_exit(hpc, capsys, jobs):
    one = hpc("one.hpc", "run {0 | x' = 1};")
    two = hpc("two.hpc", "run {0 | x' = 1} || new x . {0 | x' = 100};")
    assert main(["approx", one, two, "--eps", "1", "--delta", "1e9", "--observe", "x", "--horizon", "5",
                 "--jobs", jobs]) == 3
    assert capsys.readouterr().err == "error: observed variable 'x' is the display of 2 distinct names\n"


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


@pytest.mark.parametrize("doc, message", [
    ({"u": 0.1}, "unknown key 'u'"),
    ({"scenarios": [{"u": 0.1}], "scenarioz": 3}, "unknown key 'scenarioz'"),
    ({"scenarios": {"u": 0.1}}, "'scenarios' must be a list, got dict"),
    (0.1, "'scenarios' must be a list, got float"),
    ([{"u": 0.1}, 5], "malformed scenario 1 (not a binding or a profile: 5)"),
])
def test_approx_scenario_file_that_is_not_a_list_of_scenarios_is_model_exit(hpc, capsys, doc, message):
    a = hpc("a.hpc", "run {0 | x' = u & x < 100};")
    sc = hpc("sc.json", json.dumps(doc))
    assert main(["approx", a, a, "--eps", "1", "--delta", "1", "--scenarios", sc, "--horizon", "1"]) == 3
    assert capsys.readouterr().err == f"error: {sc}: {message}\n"


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


def test_and_is_strict_in_boundaries_and_guards(hpc, capsys):
    # `false and 1/0 < 1` is undefined, not false: the compiled boundary and
    # the interpreted guard agree
    cell = hpc("cell.hpc", "run {1 | x' = -1 & false and 1/0 < 1};")
    assert main(["simulate", cell, "--horizon", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: boundary undefined at start")
    guard = hpc("guard.hpc", "run [false and 1/0 < 1] . 0;")
    assert main(["simulate", guard, "--horizon", "1"]) == 0
    assert capsys.readouterr().err.startswith("warning: undefined-guard at run:1:5")


def test_bisim_over_dropped_instantiations_is_inconclusive(hpc, tmp_path, capsys):
    # the received value x is used as a channel: every numeric instantiation
    # is dropped, so the LTS of a has lost its edges
    a, b = hpc("a.hpc", "run a(x) . x!<>;"), hpc("b.hpc", "run 0;")
    for mode in ("strong", "weak"):
        assert main(["bisim", a, b, "--mode", mode]) == 3
        err = capsys.readouterr().err
        assert f"inconclusive: {a} dropped 2 instantiations" in err and "holds" not in err
    assert main(["lts", a, "--out", str(tmp_path / "l.json")]) == 0
    assert "skipped=2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parse", "simulate"])
def test_non_finite_number_is_model_exit(hpc, capsys, command):
    f = hpc("inf.hpc", "run a!<1e400>;")
    assert main([command, f]) == 3
    assert capsys.readouterr().err == "error: 1:8: number 1e400 is not finite\n"
