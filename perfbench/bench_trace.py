"""Span tracing for the benchmark's traced run.

The tracer wraps the module attributes through which hybridpi's modules
call one another (``hybridpi.simulator.discrete_transitions``,
``hybridpi.kernel.refresh``, ...), so every call into a layer's public
entry point records a span: name, calling module, start, end, parent span
and request id.  Nothing inside the package changes; the wrappers are
installed around a traced repetition and removed after it.

The per-expression evaluators in ``hybridpi.flows`` are not wrapped: they
run millions of times per repetition and the wrapper would dominate.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

_DISCRETE_KINDS = ("Tau", "Sync", "Sense", "Actuate")


def _enum_info(args, kwargs, out):
    return len(out.transitions)


def _cont_info(args, kwargs, out):
    if out is None:
        return (0, 0)
    samples = 0 if out.full_flow is None else len(out.full_flow.times)
    return (samples, len(out.stops))


def _simulate_info(args, kwargs, out):
    committed = sum(1 for ev in out.trace if ev.kind in _DISCRETE_KINDS)
    return (len(out.trace), committed)


def _export_info(args, kwargs, out):
    return len(out)


def _lts_info(args, kwargs, out):
    return (len(out.states), sum(len(v) for v in out.transitions.values()))


def _cert_info(args, kwargs, out):
    return kwargs["samples"]


# (module under hybridpi, attribute, span name, result summariser).  Each
# row is one place where a caller looks a layer entry point up at call time.
TARGETS = (
    ("zoo", "parse", "parser.parse", None),
    ("parser", "parse", "parser.parse", None),
    ("parser", "parse_term", "parser.parse", None),
    ("simulator", "discrete_transitions", "kernel.discrete_transitions", _enum_info),
    ("equivalence", "discrete_transitions", "kernel.discrete_transitions", _enum_info),
    ("simulator", "continuous_step", "kernel.continuous_step", _cont_info),
    ("kernel", "refresh", "syntax.refresh", None),
    ("simulator", "refresh", "syntax.refresh", None),
    ("equivalence", "refresh", "syntax.refresh", None),
    ("simulator", "prune", "syntax.prune", None),
    ("equivalence", "prune", "syntax.prune", None),
    ("equivalence", "canonical_key", "syntax.canonical_key", None),
    ("simulator", "simulate", "simulator.simulate", _simulate_info),
    ("equivalence", "simulate", "simulator.simulate", _simulate_info),
    ("simulator", "trace_to_jsonl", "simulator.export", _export_info),
    ("simulator", "trajectory_to_csv", "simulator.export", _export_info),
    ("simulator", "trajectory_series", "simulator.trajectory_series", None),
    ("equivalence", "trajectory_series", "simulator.trajectory_series", None),
    ("equivalence", "approx_bisim", "equivalence.approx_bisim", None),
    ("equivalence", "build_lts", "equivalence.build_lts", _lts_info),
    ("equivalence", "strong_bisim", "equivalence.strong_bisim", None),
    ("equivalence", "weak_bisim", "equivalence.weak_bisim", None),
    ("certificates", "check_certificate", "certificates.check_certificate", _cert_info),
)

# span record fields
NAME, VIA, START, END, PARENT, REQUEST, INFO = range(7)


class Tracer:
    """Keeps spans in memory; ``traced(request)`` installs the wrappers for
    the duration of one request (a setup build or a repetition)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._request = None

    def _wrap(self, fn, name, via, info):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # parse_term -> parse folds into the outer span
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, via, 0.0, 0.0, stack[-1] if stack else -1, self._request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def traced(self, request: str):
        saved = []
        self._request = request
        try:
            for mod_name, attr, name, info in TARGETS:
                mod = importlib.import_module(f"hybridpi.{mod_name}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, mod_name, info))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._request = None

    # -- analysis ---------------------------------------------------------

    def _cosim_sims(self) -> dict:
        """approx_bisim span -> its simulate child spans, in call order.
        Each scenario makes two simulate calls: spec, then system."""
        out: dict = {}
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            if p >= 0 and s[NAME] == "simulator.simulate" and self.spans[p][NAME] == "equivalence.approx_bisim":
                out.setdefault(p, []).append(i)
        return out

    def scenarios(self) -> list:
        """Scenario index per span (None outside a co-simulation); a span
        inherits its parent's scenario."""
        out = [None] * len(self.spans)
        for sims in self._cosim_sims().values():
            for k, i in enumerate(sims):
                out[i] = k // 2
        for i, s in enumerate(self.spans):
            if out[i] is None and s[PARENT] >= 0:
                out[i] = out[s[PARENT]]
        return out

    def write(self, path) -> None:
        """One JSON object per span; the request id is
        workload/repetition[/scenario]."""
        scen = self.scenarios()
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                req = s[REQUEST] if scen[i] is None else f"{s[REQUEST]}/{scen[i]}"
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "via": s[VIA], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "request": req,
                }, separators=(",", ":")) + "\n")

    def summary(self, request: str) -> dict:
        """Per span name, over the spans of one request: calls, total
        seconds, self seconds (duration minus the part covered by child
        spans), calls per calling module, and the result summaries."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict = {}
        for i, s in enumerate(self.spans):
            if s[REQUEST] != request:
                continue
            row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "via": {}, "info": []})
            dur = s[END] - s[START]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            row["via"][s[VIA]] = row["via"].get(s[VIA], 0) + 1
            if s[INFO] is not None:
                row["info"].append(s[INFO])
        return out

    def scenario_times(self, request: str) -> list:
        """Seconds per co-simulation scenario: from the start of its first
        simulate call to the start of the next scenario (or the end of the
        approx_bisim call)."""
        out = []
        for p, sims in self._cosim_sims().items():
            if self.spans[p][REQUEST] != request:
                continue
            bounds = [self.spans[i][START] for i in sims[::2]] + [self.spans[p][END]]
            out += [b - a for a, b in zip(bounds, bounds[1:])]
        return out


def per_layer_metrics(tracer: Tracer, setup_request: str, rep_request: str,
                      steppers_compiled: int, overhead_ratio: float) -> dict:
    """The per-layer metrics, by the names BENCHMARK.json lists."""
    setup = tracer.summary(setup_request)
    rep = tracer.summary(rep_request)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "via": {}, "info": []}

    def row(name, table=rep):
        return table.get(name, empty)

    enum = row("kernel.discrete_transitions")
    cont = row("kernel.continuous_step")
    sim = row("simulator.simulate")
    refresh = row("syntax.refresh")
    transitions = sum(enum["info"])
    committed = sum(c for _, c in sim["info"])
    approx = row("equivalence.approx_bisim")
    lts = row("equivalence.build_lts")
    cert = row("certificates.check_certificate")
    scen = tracer.scenario_times(rep_request)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "parser.parse_s": row("parser.parse", setup)["total_s"],
        "parser.parse_calls": row("parser.parse", setup)["calls"],
        "syntax.refresh_calls": refresh["calls"],
        "syntax.refresh_s": refresh["total_s"],
        "syntax.prune_calls": row("syntax.prune")["calls"],
        "syntax.prune_s": row("syntax.prune")["total_s"],
        "syntax.canonical_key_calls": row("syntax.canonical_key")["calls"],
        "syntax.canonical_key_s": row("syntax.canonical_key")["total_s"],
        "kernel.enum_calls": enum["calls"],
        "kernel.enum_s": enum["total_s"],
        "kernel.transitions_enumerated": transitions,
        "kernel.refresh_per_enum": ratio(refresh["via"].get("kernel", 0), enum["calls"]),
        "kernel.commit_ratio": ratio(committed, transitions),
        "kernel.cont_calls": cont["calls"],
        "kernel.cont_s": cont["total_s"],
        "kernel.rk4_samples": sum(n for n, _ in cont["info"]),
        "kernel.stops": sum(k for _, k in cont["info"]),
        "kernel.steppers_compiled": steppers_compiled,
        "simulator.simulate_s": sim["total_s"],
        "simulator.self_s": sim["self_s"],
        "simulator.trace_events": sum(n for n, _ in sim["info"]),
        "simulator.export_s": row("simulator.export")["total_s"],
        "simulator.export_bytes": sum(row("simulator.export")["info"]),
        "simulator.series_s": row("simulator.trajectory_series")["total_s"],
        "equivalence.approx_s": approx["total_s"],
        "equivalence.approx_self_s": approx["self_s"],
        "equivalence.scenario_p50_s": statistics.median(scen) if scen else 0.0,
        "equivalence.lts_s": lts["total_s"],
        "equivalence.lts_states": sum(n for n, _ in lts["info"]),
        "equivalence.lts_edges": sum(e for _, e in lts["info"]),
        "equivalence.strong_s": row("equivalence.strong_bisim")["total_s"],
        "equivalence.weak_s": row("equivalence.weak_bisim")["total_s"],
        "certificates.check_s": cert["total_s"],
        "certificates.samples_per_s": ratio(sum(cert["info"]), cert["total_s"]),
        "trace.overhead_ratio": overhead_ratio,
    }
