"""Closed-system execution: urgent discrete steps interleaved with
continuous evolution, with trace/trajectory recording, nondeterminism
policies, and Zeno detection.

Four fixed limits bound a run: more than ZENO_MAX_EVENTS discrete events
within ZENO_WINDOW seconds aborts it as Zeno, more than MAX_EVENTS events
in all is an error, and replication unfolds at most REPL_DEPTH times per
enumeration."""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import flows as fl
from .kernel import (
    IntegratorConfig,
    Proc,
    UrgencyViolation,
    continuous_step,
    describe_ready,
    discrete_transitions,
    survey,
)
from .syntax import HpiError, Process, Var, is_nil, prune, refresh

ZENO_MAX_EVENTS = 1000
ZENO_WINDOW = 1.0
MAX_EVENTS = 2_000_000
REPL_DEPTH = 64


@dataclass
class SimConfig:
    horizon: float = 10.0
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    policy: str = "first"  # first | random
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.policy not in ("first", "random"):
            raise ValueError(f"unknown policy {self.policy!r}")


@dataclass
class TraceEvent:
    time: float
    kind: str  # Tau | Sync | Sense | Actuate | Evolve | Stop | ZenoAbort | Deadlock
    chan: Optional[str] = None
    values: Union[list, dict, None] = None
    provenance: list = field(default_factory=list)


@dataclass
class ZenoReport:
    flagged: bool
    accumulation: Optional[float] = None
    peak_events: int = 0  # most events seen in one window


@dataclass
class SimResult:
    trace: list  # of TraceEvent
    segments: list  # of (start time, Flow) over all recorded variables
    status: str  # horizon | inaction | deadlock | zeno
    final_process: Process
    end_time: float
    zeno: Optional[ZenoReport] = None
    diagnostics: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Environment profiles (externally guaranteed variables, e.g. a disturbance)
# ---------------------------------------------------------------------------


class Environment:
    """Piecewise-constant values for names no cell guarantees.

    Construct from a plain dict (constant for all time) or a list of
    (start_time, dict) pieces sorted by start time, first piece at 0.
    """

    def __init__(self, spec):
        if isinstance(spec, dict):
            self.pieces = [(0.0, dict(spec))]
        else:
            pieces = sorted(((float(t), dict(d)) for t, d in spec), key=lambda x: x[0])
            if not pieces or pieces[0][0] != 0.0:
                raise ValueError("environment pieces must start at time 0")
            self.pieces = pieces

    def at(self, t: float):
        """Returns (values, end) where end is when the piece changes."""
        lo = 0
        for i, (t0, _) in enumerate(self.pieces):
            if t0 <= t + 1e-12:
                lo = i
            else:
                break
        end = self.pieces[lo + 1][0] if lo + 1 < len(self.pieces) else math.inf
        return self.pieces[lo][1], end


# ---------------------------------------------------------------------------
# Simulation loop
# ---------------------------------------------------------------------------


def _payload_values(payload) -> list:
    out = []
    for e in payload or ():
        v = fl.eval_expr(e)
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append(float(v))
        else:
            out.append(v.name.display if isinstance(v, Var) else repr(v))
    return out


def simulate(p: Process, cfg: SimConfig, env: Optional[Environment] = None) -> SimResult:
    environment = env or Environment({})
    rng = np.random.default_rng(cfg.seed) if cfg.policy == "random" else None
    p = refresh(p)
    t = 0.0
    trace: list = []
    segments: list = []
    diagnostics: list = []
    recent: deque = deque()  # discrete event times for the Zeno window
    unfolds = [0]
    status = "horizon"
    n_events = 0

    def note_discrete(ev: TraceEvent) -> bool:
        nonlocal n_events
        trace.append(ev)
        n_events += 1
        if n_events > MAX_EVENTS:
            raise HpiError(f"more than {MAX_EVENTS} events")
        recent.append(ev.time)
        while recent and ev.time - recent[0] > ZENO_WINDOW:
            recent.popleft()
        return len(recent) > ZENO_MAX_EVENTS

    while t < cfg.horizon - 1e-12:
        enum = discrete_transitions(p, REPL_DEPTH, counter=unfolds)
        if enum.truncated:
            enum.diagnostics.append(("repl-depth-truncated", f"repl_depth={REPL_DEPTH}"))
        diagnostics.extend(d for d in enum.diagnostics if d not in diagnostics)
        taus = [tr for tr in enum.transitions if isinstance(tr.agent, Proc)]
        if taus:
            tr = taus[0] if rng is None else taus[int(rng.integers(len(taus)))]
            kind = {"tau": "Tau", "pass": "Tau", "sync": "Sync", "sense": "Sense", "actuate": "Actuate"}[tr.kind]
            ev = TraceEvent(
                t,
                kind,
                tr.chan.display if tr.chan else None,
                _payload_values(tr.payload),
                list(tr.tags),
            )
            overflow = note_discrete(ev)
            p = prune(tr.agent.body)
            if overflow:
                status = "zeno"
                break
            continue
        values, piece_end = environment.at(t)
        horizon = min(cfg.horizon - t, piece_end - t)
        try:
            res = continuous_step(p, horizon, cfg.integrator, values)
        except UrgencyViolation as e:
            if not enum.truncated:
                raise
            raise UrgencyViolation(
                f"{e}; replication unfolding was truncated at repl_depth={REPL_DEPTH}"
            ) from None
        if res is None:
            if is_nil(prune(p)):
                status = "inaction"
            else:
                status = "deadlock"
                blocked = dict.fromkeys(tag for tag in survey(p)[0].blocked if tag)
                trace.append(TraceEvent(t, "Deadlock", provenance=list(blocked)))
            break
        if res.duration > 0:
            trace.append(
                TraceEvent(t, "Evolve", values=[res.duration], provenance=[describe_ready(res.ready)])
            )
            if res.full_flow is not None:
                segments.append((t, res.full_flow))
            t += res.duration
        for st in res.stops:
            ev = TraceEvent(
                t,
                "Stop",
                values={n.display: v for n, v in st.values.items()},
                provenance=[st.tag] if st.tag else [],
            )
            if note_discrete(ev):
                status = "zeno"
                break
        p = prune(res.process)
        if status == "zeno":
            break
        if res.duration == 0 and not res.stops:
            raise HpiError("continuous step made no progress")
    else:
        t = cfg.horizon

    zeno = None
    if status == "zeno":
        zeno = detect_zeno(trace)
        trace.append(TraceEvent(t, "ZenoAbort", values=[zeno.accumulation] if zeno.accumulation else []))
    else:
        t = min(t, cfg.horizon)
    return SimResult(trace, segments, status, p, t, zeno, diagnostics)


# ---------------------------------------------------------------------------
# Zeno detection
# ---------------------------------------------------------------------------


def detect_zeno(
    trace: Sequence[TraceEvent], max_events: int = ZENO_MAX_EVENTS, window: float = ZENO_WINDOW
) -> ZenoReport:
    """Flags dense event clusters; estimates the accumulation point by
    geometric extrapolation of the gaps between distinct event times."""
    times = []
    for ev in trace:
        if ev.kind in ("Evolve", "ZenoAbort", "Deadlock"):
            continue
        if not times or ev.time > times[-1]:
            times.append(ev.time)
        # events at an already-seen time do not add a new instant
    flagged = False
    peak = 0
    lo = 0
    all_times = [ev.time for ev in trace if ev.kind not in ("Evolve", "ZenoAbort", "Deadlock")]
    for hi in range(len(all_times)):
        while all_times[hi] - all_times[lo] > window:
            lo += 1
        peak = max(peak, hi - lo + 1)
    if peak > max_events:
        flagged = True
    accumulation = None
    if len(times) >= 4:
        gaps = [times[i + 1] - times[i] for i in range(len(times) - 1)]
        # gaps shorter than the event-localization floor saturate and would
        # bias the ratio toward 1; extrapolate from the last reliable pair
        floor = 1e-6
        for i in range(len(gaps) - 2, -1, -1):
            g1, g2 = gaps[i], gaps[i + 1]
            if g1 > floor and g2 > floor:
                r = g2 / g1
                if 0.0 < r < 0.95:
                    accumulation = times[i + 2] + g2 * r / (1.0 - r)
                break
    return ZenoReport(flagged, accumulation, peak)


# ---------------------------------------------------------------------------
# Exhaustive exploration of small discrete fragments
# ---------------------------------------------------------------------------


def exhaustive_traces(p: Process, max_depth: int = 8, repl_depth: int = 4) -> list:
    """All maximal discrete tau-sequences up to max_depth, as lists of
    (kind, chan display) pairs.  Intended for small fragments only."""
    out: list = []

    def go(q: Process, acc: list, depth: int):
        if depth >= max_depth:
            out.append(acc)
            return
        enum = discrete_transitions(q, repl_depth)
        taus = [tr for tr in enum.transitions if isinstance(tr.agent, Proc)]
        if not taus:
            out.append(acc)
            return
        for tr in taus:
            go(prune(tr.agent.body), acc + [(tr.kind, tr.chan.display if tr.chan else None)], depth + 1)

    go(prune(refresh(p)), [], 0)
    return out


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def trace_to_jsonl(trace: Sequence[TraceEvent]) -> str:
    lines = []
    for ev in trace:
        lines.append(
            json.dumps(
                {
                    "time": ev.time,
                    "kind": ev.kind,
                    "chan": ev.chan,
                    "values": ev.values,
                    "provenance": ev.provenance,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _column_labels(segments) -> dict:
    """Name -> unique display label, in order of first appearance."""
    labels: dict = {}
    used: set = set()
    for _, flow in segments:
        for n in flow.names:
            if n in labels:
                continue
            s = n.display
            k = 1
            while s in used:
                k += 1
                s = f"{n.display}_{k}"
            used.add(s)
            labels[n] = s
    return labels


def trajectory_to_csv(segments) -> str:
    """The union of all recorded variables on the concatenated grid; a
    variable absent from a segment renders as nan."""
    labels = _column_labels(segments)
    names = list(labels)
    parts = [",".join(["time"] + [labels[n] for n in names]) + "\n"]
    row_fmt = ",".join(["%.17g"] * (1 + len(names))) + "\n"
    for t0, flow in segments:
        idx = {n: j for j, n in enumerate(flow.names)}
        block = np.full((len(flow.times), 1 + len(names)), np.nan)
        block[:, 0] = t0 + flow.times
        for c, n in enumerate(names, 1):
            j = idx.get(n)
            if j is not None:
                block[:, c] = flow.values[:, j]
        parts.append((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def trajectory_series(segments, display: str):
    """Concatenated (times, values) arrays for one variable by display name."""
    ts: list = []
    vs: list = []
    for t0, flow in segments:
        for j, n in enumerate(flow.names):
            if n.display == display:
                ts.append(t0 + flow.times)
                vs.append(flow.values[:, j])
                break
    if not ts:
        return np.array([]), np.array([])
    return np.concatenate(ts), np.concatenate(vs)
