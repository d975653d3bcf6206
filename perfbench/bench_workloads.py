"""The four benchmark workloads: inputs, the timed phase, and the output
checks against known answers.

Each workload has a ``full`` size (what BENCHMARK.json measures), a
``tiny`` size (for the benchmark's own tests) and a ``roadmap`` size (the
inputs of the ad-hoc profile in ROADMAP.md, one repetition of which takes
seconds to minutes).  A ``full`` repetition takes a few tenths of a
second, so that a run holds dozens of them.  ``build`` makes the inputs
(this is set-up time), ``phase`` is one timed repetition, ``check`` returns
one ``(item, problems)`` pair per checked output, and ``exports`` returns
the exported texts whose sha256 digests are recorded.

Only ``cosim`` consumes the seed; the others ignore it.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Known answers.  The ``roadmap`` rows come from the acceptance suite and
# the paper's oracles; the ``full`` and ``tiny`` rows are the seed code's
# outputs at those sizes.
# ---------------------------------------------------------------------------

EXPECT = {
    "network": {
        "roadmap": {"status": "horizon", "events": 3801,
                    "q_acts": [5000.0, 10000.0, 15000.0], "final_p": 15000.0},
        "full": {"status": "horizon", "events": 105, "q_acts": [5000.0], "final_p": 50.0},
        "tiny": {"status": "horizon", "events": 51, "q_acts": [5000.0], "final_p": 8.0},
    },
    "cosim": {
        "roadmap": {"status": "consistent", "eps": 400.0, "constant_band": [120.0, 280.0]},
        "full": {"status": "consistent", "eps": 400.0, "constant_band": [40.0, 50.0]},
        "tiny": {"status": "consistent", "eps": 400.0, "constant_band": [4.0, 6.0]},
    },
    "trajectory": {
        "roadmap": {"v_max": 40.0, "t_v_max": 40.0, "p_at_v_max": 800.0, "p_end": 10000.0,
                    "t_end": 290.0, "ball_first_stop": math.sqrt(2 * 5 / 9.8),
                    "ball_accumulation": 9.09},
    },
    "verify": {
        "roadmap": {"strong_bad": False, "weak_bad": False, "strong_tau": False,
                    "weak_tau": True, "bc1_margin": -0.409},
    },
}
for _w in ("trajectory", "verify"):
    EXPECT[_w]["full"] = EXPECT[_w]["tiny"] = dict(EXPECT[_w]["roadmap"])


def _close(label, got, want, tol) -> list:
    if got is None or not abs(got - want) <= tol:
        return [f"{label} = {got!r}, expected {want!r} +- {tol}"]
    return []


def _equal(label, got, want) -> list:
    return [] if got == want else [f"{label} = {got!r}, expected {want!r}"]


def _sim_config(hp, horizon, step):
    return hp.simulator.SimConfig(
        horizon=horizon, integrator=hp.kernel.IntegratorConfig(step=step), policy="first"
    )


class Network:
    """handover-network under policy first, exported to JSONL and CSV."""

    name = "network"
    items = 1
    step = 1e-2

    def __init__(self, size, expect=None):
        self.horizon = {"full": 10.0, "tiny": 4.0, "roadmap": 450.0}[size]
        self.expect = expect or EXPECT[self.name][size]

    def build(self, hp, seed):
        inst = hp.zoo.load("handover-network")
        return {"entry": inst.main.entry, "cfg": _sim_config(hp, self.horizon, self.step)}

    def phase(self, hp, inp):
        res = hp.simulator.simulate(inp["entry"], inp["cfg"])
        trace = hp.simulator.trace_to_jsonl(res.trace)
        traj = hp.simulator.trajectory_to_csv(res.segments)
        return {"res": res, "trace": trace, "traj": traj}

    def check(self, hp, inp, out):
        exp = self.expect
        res = out["res"]
        errs = _equal("status", res.status, exp["status"])
        errs += _equal("events", len(res.trace), exp["events"])
        syncs = {ev.chan: ev.time for ev in res.trace
                 if ev.kind == "Sync" and ev.chan in ("ch0", "ch1", "ch2")}
        q_acts = [ev for ev in res.trace if ev.kind == "Actuate" and ev.chan == "q"]
        errs += _equal("q actuations", [ev.values[0] for ev in q_acts], exp["q_acts"])
        sync_times = [syncs.get(f"ch{i}") for i in range(len(q_acts))]
        errs += _equal("q actuation times", [ev.time for ev in q_acts], sync_times)
        _, pv = hp.simulator.trajectory_series(res.segments, "p")
        errs += _close("final p", float(pv[-1]) if len(pv) else None, exp["final_p"], 5.0)
        return [("network", errs)]

    def exports(self, out):
        return {"network.trace.jsonl": out["trace"], "network.traj.csv": out["traj"]}


class Cosim:
    """approx_bisim on spec-system: three constant disturbances plus K
    piecewise-constant profiles with 1-s pieces drawn from the seed."""

    name = "cosim"
    items = 1
    step = 2e-2

    def __init__(self, size, expect=None):
        self.horizon, self.profiles = {"full": (30.0, 2), "tiny": (10.0, 1),
                                       "roadmap": (310.0, 2)}[size]
        self.expect = expect or EXPECT[self.name][size]

    def build(self, hp, seed):
        inst = hp.zoo.load("spec-system")
        rng = np.random.default_rng(seed)
        scenarios = [{"u": -0.1}, {"u": 0.0}, {"u": 0.1}]
        for _ in range(self.profiles):
            us = rng.uniform(-0.1, 0.1, 400)
            scenarios.append([(float(t), {"u": float(u)}) for t, u in enumerate(us)])
        return {
            "spec": inst.models["spec"].entry,
            "system": inst.models["system"].entry,
            "cfg": _sim_config(hp, self.horizon, self.step),
            "scenarios": scenarios,
        }

    def phase(self, hp, inp):
        return hp.equivalence.approx_bisim(
            inp["spec"], inp["system"], self.expect["eps"], 1e9, inp["cfg"],
            scenarios=inp["scenarios"], observe=("x",),
        )

    def check(self, hp, inp, verdict):
        exp = self.expect
        errs = _equal("status", verdict.status, exp["status"])
        errs += _equal("scenarios", len(verdict.per_scenario), len(inp["scenarios"]))
        if verdict.max_distance > exp["eps"]:
            errs.append(f"max distance {verdict.max_distance} > {exp['eps']}")
        lo, hi = exp["constant_band"]
        worst = max((s["distance"] for s in verdict.per_scenario[:3]), default=None)
        if worst is None or not lo <= worst <= hi:
            errs.append(f"worst constant-disturbance distance {worst} outside [{lo}, {hi}]")
        return [("cosim", errs)]

    def exports(self, out):
        return {}


class Trajectory:
    """The ideal train at a fine step, then the bouncing ball up to its
    Zeno abort; both runs exported."""

    name = "trajectory"
    items = 2

    def __init__(self, size, expect=None):
        self.train_step, self.ball_step = {"full": (1e-2, 1e-3), "tiny": (5e-2, 2e-3),
                                           "roadmap": (1e-3, 1e-4)}[size]
        self.expect = expect or EXPECT[self.name][size]

    def build(self, hp, seed):
        return {
            "train": hp.zoo.load("spec-system").models["spec"].entry,
            "ball": hp.zoo.load("ball").main.entry,
            "train_cfg": _sim_config(hp, 310.0, self.train_step),
            "ball_cfg": _sim_config(hp, 12.0, self.ball_step),
        }

    def phase(self, hp, inp):
        sim = hp.simulator
        out = {}
        for run in ("train", "ball"):
            res = sim.simulate(inp[run], inp[f"{run}_cfg"])
            out[run] = res
            out[f"{run}.trace.jsonl"] = sim.trace_to_jsonl(res.trace)
            out[f"{run}.traj.csv"] = sim.trajectory_to_csv(res.segments)
        return out

    def check(self, hp, inp, out):
        exp = self.expect
        series = hp.simulator.trajectory_series
        train = out["train"]
        errs = _equal("train status", train.status, "horizon")
        tv, vv = series(train.segments, "v")
        tp, pv = series(train.segments, "p")
        reached = vv >= exp["v_max"] - 1e-9
        if len(tp) == 0 or not reached.any():
            errs.append(f"train never reaches {exp['v_max']} m/s")
        else:
            t_full = float(tv[np.argmax(reached)])
            errs += _close("time at full speed", t_full, exp["t_v_max"], 0.5)
            errs += _close("p at full speed", float(np.interp(t_full, tp, pv)), exp["p_at_v_max"], 2.0)
            errs += _close("final p", float(pv[-1]), exp["p_end"], 2.0)
            errs += _close("time at final p", float(tp[-1]), exp["t_end"], 0.5)

        ball = out["ball"]
        berrs = _equal("ball status", ball.status, "zeno")
        stops = [ev.time for ev in ball.trace if ev.kind == "Stop"]
        berrs += _close("first stop", stops[0] if stops else None, exp["ball_first_stop"], 2e-3)
        acc = ball.zeno.accumulation if ball.zeno is not None else None
        berrs += _close("Zeno accumulation", acc, exp["ball_accumulation"], 0.05)
        return [("train", errs), ("ball", berrs)]

    def exports(self, out):
        return {k: v for k, v in out.items() if k.endswith((".jsonl", ".csv"))}


_CHAIN = "mu x(n) @ <0> . i() . ([n < {N}] . {step}x!<n+1> + [n >= {N}] . {end}!<>)"


class Verify:
    """Strong and weak bisimilarity on counter-chain pairs, then the
    bundled barrier-certificate check."""

    name = "verify"
    items = 5

    def __init__(self, size, expect=None):
        self.chain, self.samples = {"full": (50, 20_000), "tiny": (10, 10_000),
                                    "roadmap": (150, 100_000)}[size]
        self.expect = expect or EXPECT[self.name][size]

    def build(self, hp, seed):
        parse = hp.parser.parse_term
        n = self.chain
        return {
            "good": parse(_CHAIN.format(N=n, step="", end="good")),
            "bad": parse(_CHAIN.format(N=n, step="", end="bad")),
            # an inert 0 and a tau before each recursive call: weakly but
            # not strongly bisimilar to "good"
            "tau": parse("0 || " + _CHAIN.format(N=n, step="tau . ", end="good")),
            "automaton": hp.zoo.automaton_h(),
            "certificate": hp.zoo.certificate_h(),
        }

    def phase(self, hp, inp):
        eq = hp.equivalence
        lts = {k: eq.build_lts(inp[k]) for k in ("good", "bad", "tau")}
        out = {"lts": lts}
        for other in ("bad", "tau"):
            out[f"strong_{other}"] = eq.strong_bisim(lts["good"], lts[other])[0]
            out[f"weak_{other}"] = eq.weak_bisim(lts["good"], lts[other])[0]
        out["cert"] = hp.certificates.check_certificate(
            inp["automaton"], inp["certificate"], samples=self.samples
        )
        return out

    def check(self, hp, inp, out):
        exp = self.expect
        items = []
        for other in ("bad", "tau"):
            # a verdict from a cut-off LTS is never accepted
            cut = [f"LTS {k} is {flag}" for k in ("good", other)
                   for flag in ("bounded", "truncated") if getattr(out["lts"][k], flag)]
            for mode in ("strong", "weak"):
                key = f"{mode}_{other}"
                items.append((key, cut + _equal(key, out[key], exp[key])))
        reports = out["cert"]["reports"]
        errs = []
        bc1 = [r for r in reports if r.condition == "BC-1"]
        if len(bc1) != 1:
            errs.append(f"{len(bc1)} BC-1 reports, expected 1")
        else:
            errs += _close("BC-1 min margin", bc1[0].min_margin, exp["bc1_margin"], 1e-12)
            errs += _close("BC-1 max margin", bc1[0].max_margin, exp["bc1_margin"], 1e-12)
        bad = [r for r in reports if not r.ok]
        if not bad:
            errs.append("no violations, expected BC-3 violations")
        for r in bad:
            if r.condition != "BC-3":
                errs.append(f"unexpected {r.condition} violation at {r.where}")
            elif r.witness is None or "value" not in r.witness:
                errs.append(f"BC-3 violation at {r.where} without a witness")
        items.append(("certcheck", errs))
        return items

    def exports(self, out):
        return {}


WORKLOADS = {w.name: w for w in (Network, Cosim, Trajectory, Verify)}
