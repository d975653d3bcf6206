"""Every flag a subcommand declares is read by that subcommand: each row
of the invocation table runs through a namespace that records attribute
reads, and the reads of a subcommand's rows must cover its dests."""

import argparse
import json

from hybridpi.cli import build_parser
from hybridpi.zoo import model_text


class RecordingNamespace(argparse.Namespace):
    reads = None  # the names read since recording started, or None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def _invocations(tmp_path):
    def write(name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    drift = write("drift.hpc", "run {0 | x' = u & x < 1};")
    decay = write("decay.hpc", "run {1 | x' = 0 - x};")
    chat = write("chat.hpc", "run a(v) . b!<v>;")
    aut = write("h.json", model_text("automaton-h.json"))
    cert = write("c.json", model_text("certificate.json"))
    scenarios = write("sc.json", json.dumps([{"u": 1.0}]))
    out = str(tmp_path / "out")
    sim = ["--horizon", "1", "--step", "1e-2", "--seed", "3", "--policy", "random"]
    run = ["--out-trace", out + ".jsonl", "--out-traj", out + ".csv", "--env", "u=1"]
    lts = ["--universe", "0", "1", "--depth", "2", "--max-states", "100"]
    return [
        ["parse", chat],
        ["simulate", drift, *sim, *run],
        ["lts", chat, *lts, "--out", out],
        ["bisim", chat, chat, "--mode", "weak", *lts],
        ["approx", drift, drift, "--eps", "1", "--delta", "0", "--observe", "x",
         "--scenarios", scenarios, "--jobs", "1", "--out", out, *sim],
        ["discretize", decay, "--eps", "1e-3", "--duration", "1", "--step", "0.1", "--out", out],
        ["discretize", decay, "--eps", "1e-3", "--duration", "1", "--box", "2", "--seed", "3"],
        ["certcheck", aut, cert, "--samples", "16", "--tol", "1e-6", "--seed", "3", "--out", out],
        ["models", "run", "spec-system", *sim, *run],
    ]


def test_every_declared_flag_is_read(tmp_path, capsys):
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    read: dict = {}
    for argv in _invocations(tmp_path):
        args = ap.parse_args(argv, namespace=RecordingNamespace())
        args.reads = set()
        args.fn(args)
        read.setdefault(argv[0], set()).update(args.reads)
    capsys.readouterr()
    assert set(read) == set(sub.choices)
    for command, sp in sub.choices.items():
        dests = {a.dest for a in sp._actions if a.dest != "help"}
        assert dests <= read[command], f"{command} never reads {sorted(dests - read[command])}"
