"""Command-line frontend.

Every subcommand is deterministic given its flags; diagnostics go to
standard error and machine-readable artifacts go to files (or standard
output where the artifact is a term).  All units are SI: seconds for
times, meters for positions.

Exit codes: 0 success (or: consistent / bisimilar / certificate holds),
1 refuted / violated, 2 usage error, 3 model or input error, or a
bisimulation left inconclusive: `bisim` prints the reasons an LTS gives
for being cut (LTS.cut) when the library's verdict is None.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import zoo
from .certificates import automaton_from_json, certificate_from_json, check_certificate
from .equivalence import (
    approx_bisim,
    bind_env,
    build_lts,
    discretize,
    lipschitz_estimate,
    strong_bisim,
    suggest_step,
    weak_bisim,
)
from .kernel import IntegratorConfig
from .parser import parse, pretty
from .simulator import Environment, SimConfig, simulate, trace_to_jsonl, trajectory_to_csv
from .syntax import HpiError, Continuous, Sum, value_names

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_MODEL = 3


def _seed(args) -> int:
    """--seed, else HYBRIDPI_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    v = os.environ.get("HYBRIDPI_SEED", "0")
    try:
        return int(v)
    except ValueError:
        raise HpiError(f"HYBRIDPI_SEED: {v!r} is not an integer") from None


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise HpiError(f"cannot read {path}: {e}") from e


def _load_json(path: str, load, *args):
    """load(the text of path, *args), naming the file in an input error."""
    text = _read(path)
    try:
        return load(text, *args)
    except (HpiError, json.JSONDecodeError) as e:
        raise HpiError(f"{path}: {e}") from None


def _load_entry(path: str):
    """Parse a model file and return its run process."""
    m = parse(_read(path))
    if m.entry is None:
        raise HpiError(f"{path}: no `run` clause")
    return m.entry


def _env_pairs(pairs):
    out = {}
    for kv in pairs or ():
        if "=" not in kv:
            raise HpiError(f"--env expects NAME=VALUE, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError:
            raise HpiError(f"--env {k}: {v!r} is not a number") from None
    return out


def _refuse_unread(keys, procs, where: str, readers: str):
    """Refuse the first sorted key that procs read as no value (bind_env would drop it)."""
    unread = sorted(set(keys) - {n.display for p in procs for n in value_names(p)})
    if unread:
        raise HpiError(f"{where}: key {unread[0]!r} is read by {readers}")


def _warn(diagnostics, where: str = "") -> None:
    """Each (kind, tag) diagnostic as a warning on standard error."""
    for kind, tag in diagnostics:
        print(f"warning: {where}{kind}" + (f" at {tag}" if tag else ""), file=sys.stderr)


def _sim_config(args, entry: zoo.ModelEntry = None) -> SimConfig:
    horizon = args.horizon if args.horizon is not None else (entry.horizon if entry else 10.0)
    step = args.step if args.step is not None else (entry.step if entry else 1e-3)
    return SimConfig(
        horizon=horizon,
        integrator=IntegratorConfig(step=step),
        policy=args.policy,
        seed=_seed(args),
    )


def _run(args, p, entry: zoo.ModelEntry = None) -> int:
    """Simulate p, write the artifacts asked for, report on standard error."""
    cfg = _sim_config(args, entry)
    env = _env_pairs(args.env)
    _refuse_unread(env, (p,), "--env", "no name of the model")
    res = simulate(p, cfg, bind_env(p, env or (entry.env if entry else None)))
    if args.out_trace:
        with open(args.out_trace, "w") as f:
            f.write(trace_to_jsonl(res.trace))
    if args.out_traj:
        with open(args.out_traj, "w") as f:
            f.write(trajectory_to_csv(res.segments))
    _warn(res.diagnostics)
    parts = [f"status={res.status}", f"end={res.end_time:.6g}s", f"events={len(res.trace)}"]
    if res.zeno and res.zeno.flagged:
        acc = res.zeno.accumulation
        parts.append(f"zeno accumulation~{acc:.4g}s" if acc else "zeno")
    print(" ".join(parts), file=sys.stderr)
    return EXIT_OK


# -- scenarios ---------------------------------------------------------------


def _load_scenarios(path):
    """A JSON list (or {"scenarios": [...]}) of either constant bindings
    {"u": 0.1} or piecewise profiles [[t, {"u": v}], ...]."""
    if path is None:
        return [None]
    data = _load_json(path, json.loads)
    if isinstance(data, dict):
        unknown = sorted(set(data) - {"scenarios"})
        if unknown:
            raise HpiError(f"{path}: unknown key {unknown[0]!r}")
        data = data.get("scenarios", [])
    if not isinstance(data, list):
        raise HpiError(f"{path}: 'scenarios' must be a list, got {type(data).__name__}")
    out = []
    try:
        for sc in data:
            if isinstance(sc, dict):
                out.append({k: float(v) for k, v in sc.items()})
            elif isinstance(sc, list):
                profile = [(float(t), {k: float(v) for k, v in d.items()}) for t, d in sc]
                Environment(profile)  # refuses a piece start that is not finite, and a first one not at 0
                out.append(profile)
            else:
                raise TypeError(f"not a binding or a profile: {sc!r}")
    except (TypeError, AttributeError, ValueError) as e:
        raise HpiError(f"{path}: malformed scenario {len(out)} ({e})") from None
    return out or [None]


# -- subcommands -------------------------------------------------------------


def cmd_parse(args) -> int:
    m = parse(_read(args.file))
    if m.constants:
        for k, v in m.constants.items():
            print(f"const {k} = {v:g};")
    if m.entry is not None:
        print(f"run {pretty(m.entry)};")
    else:
        print("(no run clause)", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    return _run(args, _load_entry(args.file))


def cmd_lts(args) -> int:
    p = _load_entry(args.file)
    lts = build_lts(p, universe=tuple(args.universe), repl_depth=args.depth, max_states=args.max_states)
    doc = {
        "initial": lts.initial,
        "states": sorted(lts.states),
        "transitions": {k: [[list(l), t] for l, t in v] for k, v in lts.transitions.items()},
        "bounded": lts.bounded,
        "truncated": lts.truncated,
        "skipped": lts.skipped,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text)
    _warn(lts.diagnostics)
    print(f"states={len(lts.states)} bounded={lts.bounded} truncated={lts.truncated} skipped={lts.skipped}",
          file=sys.stderr)
    return EXIT_OK


def cmd_bisim(args) -> int:
    ltss = {
        path: build_lts(_load_entry(path), universe=tuple(args.universe), repl_depth=args.depth,
                        max_states=args.max_states)
        for path in (args.file_a, args.file_b)
    }
    check = strong_bisim if args.mode == "strong" else weak_bisim
    ok, _ = check(ltss[args.file_a], ltss[args.file_b])
    if ok is None:
        print("\n".join(f"inconclusive: {path} {why}" for path, l in ltss.items() for why in l.cut), file=sys.stderr)
        return EXIT_MODEL
    print(f"{args.mode} bisimulation: {'holds' if ok else 'refuted'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_approx(args) -> int:
    scenarios = _load_scenarios(args.scenarios)
    p, q = _load_entry(args.file_a), _load_entry(args.file_b)
    for i, sc in enumerate(scenarios):
        pieces = [sc] if isinstance(sc, dict) else [d for _, d in sc or ()]
        _refuse_unread(set().union(*pieces), (p, q), f"{args.scenarios}: scenario {i}", "neither system")
    v = approx_bisim(p, q, args.eps, args.delta, _sim_config(args), scenarios=scenarios,
                     observe=tuple(args.observe or ()), jobs=args.jobs)
    report = v.to_dict()
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps(report, indent=2))
    for sc in report["per_scenario"]:
        for system, path in (("a", args.file_a), ("b", args.file_b)):
            _warn(sc["diagnostics"][system], f"{path} scenario {sc['scenario']}: ")
    print(
        f"{report['status']}: max distance {report['max_distance']:.6g}, max skew {report['max_skew']:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK if report["status"] == "consistent" else EXIT_REFUTED


def _first_continuous(p):
    if isinstance(p, Sum):
        for pi, _ in p.branches:
            if isinstance(pi, Continuous):
                return pi
    raise HpiError("discretize expects a file whose run clause starts with a continuous prefix")


def cmd_discretize(args) -> int:
    p = _load_entry(args.file)
    cell = _first_continuous(p)
    if args.step is not None:
        step = args.step
    else:
        box = [(-abs(args.box), abs(args.box))] * len(cell.vars)
        lip = lipschitz_estimate(cell.vars, cell.fields, box, seed=_seed(args))
        step = suggest_step(args.eps, args.duration, lip)
        print(f"estimated Lipschitz constant {lip:.4g}, chose step {step:.4g}", file=sys.stderr)
    q = discretize(cell.init, cell.vars, cell.fields, args.duration, step)
    text = f"run {pretty(q)};\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_certcheck(args) -> int:
    h = _load_json(args.automaton, automaton_from_json)
    cert = _load_json(args.certificate, certificate_from_json, h.all_coords)
    result = check_certificate(h, cert, samples=args.samples, tol=args.tol, seed=_seed(args))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({k: v for k, v in result.items() if k != "reports"}, f, indent=2)
    for r in result["reports"]:
        mark = "ok " if r.ok else "BAD"
        print(
            f"{mark} {r.condition:<5} {r.where:<18} samples={r.samples} "
            f"min={r.min_margin} max={r.max_margin}",
            file=sys.stderr,
        )
        if r.witness:
            print(f"    witness: {r.witness}", file=sys.stderr)
    return EXIT_OK if result["ok"] else EXIT_REFUTED


def cmd_models(args) -> int:
    if args.action == "list":
        for e in zoo.list_models():
            print(f"{e.id:<22} {e.description}")
        return EXIT_OK
    if args.id is None:
        raise HpiError(f"models {args.action} requires a model id")
    inst = zoo.load(args.id)
    if args.action == "show":
        for role, fn in inst.entry.files.items():
            print(f"# --- {role}: {fn}")
            print(zoo.model_text(fn))
        return EXIT_OK
    # run
    if inst.automaton is not None:
        raise HpiError(f"{args.id} is an automaton; use `hybridpi certcheck` on its files")
    return _run(args, inst.main.entry, inst.entry)


# -- argument parsing --------------------------------------------------------


def _add_seed_flag(sp):
    sp.add_argument("--seed", type=int, default=None, help="random seed (default: HYBRIDPI_SEED, else 0)")


def _add_sim_flags(sp, run=True):
    """The simulation flags; with run, also the environment and output flags of a single run."""
    sp.add_argument("--horizon", type=float, default=None, help="simulation horizon in seconds")
    sp.add_argument("--step", type=float, default=None, help="integrator step in seconds")
    _add_seed_flag(sp)
    sp.add_argument("--policy", choices=("first", "random"), default="first")
    if run:
        sp.add_argument("--out-trace", metavar="FILE.jsonl", help="write the event trace here")
        sp.add_argument("--out-traj", metavar="FILE.csv", help="write the trajectory table here")
        sp.add_argument("--env", action="append", metavar="NAME=VALUE",
                        help="bind a guaranteed variable to a constant (repeatable)")


def _add_lts_flags(sp):
    sp.add_argument("--universe", type=float, nargs="+", default=[0.0, 1.0],
                    help="values substituted for input binders")
    sp.add_argument("--depth", type=int, default=4, help="replication unfolding bound")
    sp.add_argument("--max-states", type=int, default=4000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hybridpi",
        description="Workbench for hybrid process terms: simulate, compare, discretize, certify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a model file and print the elaborated term")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("simulate", help="run the closed-system scheduler on a model file")
    sp.add_argument("file")
    _add_sim_flags(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("lts", help="enumerate the discrete transition system of a model file")
    sp.add_argument("file")
    _add_lts_flags(sp)
    sp.add_argument("--out", metavar="FILE.json")
    sp.set_defaults(fn=cmd_lts)

    sp = sub.add_parser("bisim", help="decide strong or weak bisimilarity of two discrete models")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--mode", choices=("strong", "weak"), default="strong")
    _add_lts_flags(sp)
    sp.set_defaults(fn=cmd_bisim)

    sp = sub.add_parser("approx", help="co-simulate two models and bound distance and time skew")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--eps", type=float, required=True, help="allowed distance on observed variables (m)")
    sp.add_argument("--delta", type=float, required=True, help="allowed skew on evolution time (s)")
    sp.add_argument("--observe", nargs="+", metavar="VAR", help="variables compared across the two systems")
    sp.add_argument("--scenarios", metavar="FILE.json", help="scenario list (constants or piecewise profiles)")
    sp.add_argument("--jobs", type=int, metavar="N",
                    help="at most N worker processes for the scenarios (default: the usable CPUs)")
    sp.add_argument("--out", metavar="FILE.json")
    _add_sim_flags(sp, run=False)
    sp.set_defaults(fn=cmd_approx)

    sp = sub.add_parser("discretize", help="replace a continuous prefix by a stepped recursion")
    sp.add_argument("file")
    sp.add_argument("--eps", type=float, required=True, help="target endpoint accuracy")
    sp.add_argument("--duration", type=float, required=True, help="evolution length to cover (s)")
    sp.add_argument("--step", type=float, default=None, help="override the suggested step")
    sp.add_argument("--box", type=float, default=10.0, help="half-width of the Lipschitz sampling box")
    _add_seed_flag(sp)
    sp.add_argument("--out", metavar="FILE.hpc")
    sp.set_defaults(fn=cmd_discretize)

    sp = sub.add_parser("certcheck", help="sample-check barrier-certificate conditions BC-1..BC-4")
    sp.add_argument("automaton", metavar="AUTOMATON.json")
    sp.add_argument("certificate", metavar="CERT.json")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--tol", type=float, default=1e-6)
    _add_seed_flag(sp)
    sp.add_argument("--out", metavar="REPORT.json")
    sp.set_defaults(fn=cmd_certcheck)

    sp = sub.add_parser("models", help="list, show, or run a bundled model")
    sp.add_argument("action", choices=("list", "show", "run"))
    sp.add_argument("id", nargs="?", default=None)
    _add_sim_flags(sp)
    sp.set_defaults(fn=cmd_models)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (HpiError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except RecursionError:
        print("error: term nested too deeply for the recursion limit", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
