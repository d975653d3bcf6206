"""Bundled models: clocks, the bouncing ball, the shuttling vehicle, the
train handover network, the ideal/disturbed train pairs, and the composed
automaton with its barrier certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .certificates import (
    BarrierCertificate,
    Edge,
    HybridAutomaton,
    Location,
    Polynomial,
    SetDesc,
)
from .parser import ModelFile, parse
from .syntax import HpiError


class ModelNotFound(HpiError):
    pass


@dataclass(frozen=True)
class ModelEntry:
    id: str
    description: str
    files: dict  # role -> file name under models/
    horizon: float = 10.0  # a sensible default simulation window
    env: Optional[dict] = None  # default environment values, by display name
    step: float = 1e-3  # default integrator step for this model
    fixtures: Optional[dict] = None  # kind -> file name under fixtures/


_ENTRIES = [
    ModelEntry(
        "bigben",
        "a global clock sensed every two seconds by a recursive observer",
        {"main": "bigben.hpc"},
        horizon=10.0,
        fixtures={"trace": "bigben.trace.jsonl"},
    ),
    ModelEntry(
        "wait",
        "a pure three-second delay implemented as a private clock",
        {"main": "wait.hpc"},
        horizon=5.0,
        fixtures={"trace": "wait.trace.jsonl", "trajectory": "wait.traj.csv"},
    ),
    ModelEntry(
        "ball",
        "the bouncing ball; Zeno with accumulation near t = 9.09 s",
        {"main": "ball.hpc"},
        horizon=12.0,
    ),
    ModelEntry(
        "vehicle",
        "a vehicle shuttling between two base stations exchanging control",
        {"main": "vehicle.hpc"},
        horizon=60.0,
    ),
    ModelEntry(
        "handover-network",
        "three rail sectors plus a terminus driving one train to 15000 m",
        {"main": "network.hpc"},
        horizon=450.0,
        step=1e-2,
    ),
    ModelEntry(
        "spec-system",
        "ideal vs disturbed train, successful handover (observe x)",
        {"spec": "spec.hpc", "system": "system.hpc", "main": "system.hpc"},
        horizon=310.0,
        env={"u": 0.0},
        step=1e-2,
    ),
    ModelEntry(
        "spec-system-failed",
        "ideal vs disturbed train, refused handover; parks before 5000 m",
        {"spec": "spec-failed.hpc", "system": "system-failed.hpc", "main": "system-failed.hpc"},
        horizon=400.0,
        env={"u": 0.0},
        step=1e-2,
    ),
    ModelEntry(
        "composed-automaton-H",
        "joint ideal/disturbed train automaton with a linear barrier certificate",
        {"automaton": "automaton-h.json", "certificate": "certificate.json"},
    ),
]

_BY_ID = {e.id: e for e in _ENTRIES}


def list_models() -> list:
    return list(_ENTRIES)


def model_text(filename: str) -> str:
    return resources.files("hybridpi").joinpath("models").joinpath(filename).read_text()


def fixture_text(filename: str) -> str:
    return resources.files("hybridpi").joinpath("fixtures").joinpath(filename).read_text()


@dataclass
class ModelInstance:
    entry: ModelEntry
    models: dict = field(default_factory=dict)  # role -> ModelFile
    automaton: Optional[HybridAutomaton] = None
    certificate: Optional[BarrierCertificate] = None

    @property
    def main(self) -> ModelFile:
        return self.models["main"]


def load(id: str) -> ModelInstance:
    entry = _BY_ID.get(id)
    if entry is None:
        raise ModelNotFound(f"no model named {id!r}; see list_models()")
    inst = ModelInstance(entry)
    if id == "composed-automaton-H":
        inst.automaton = automaton_h()
        inst.certificate = certificate_h()
        return inst
    # a file named for two roles is parsed once, in order of first naming
    parsed = {fn: parse(model_text(fn)) for fn in dict.fromkeys(entry.files.values())}
    inst.models = {role: parsed[fn] for role, fn in entry.files.items()}
    return inst


# ---------------------------------------------------------------------------
# Maximum protection curve and the sector control law
# ---------------------------------------------------------------------------

V_MAX = 40.0
A_MIN = -1.0
A_MAX = 1.0


def v_lim(p0: float, pe: float) -> float:
    """Largest velocity at p0 from which braking at A_MIN stops by pe."""
    gap = pe - p0
    if gap <= 0:
        raise ValueError("v_lim requires pe > p0")
    if gap >= V_MAX**2 / (-2 * A_MIN):
        return V_MAX
    return math.sqrt(-2 * A_MIN * gap)


def _safe(v_next: float, p_next: float, pe: float) -> bool:
    return pe > p_next and v_next <= v_lim(p_next, pe)


def control_law_f(p0: float, v0: float, pe: float, d: float) -> float:
    """Acceleration command: full power if safe one period ahead, coasting
    if holding speed is safe, otherwise full braking."""
    if pe <= p0:
        raise ValueError("control law requires pe > p0")
    if _safe(v0 + A_MAX * d, p0 + v0 * d + 0.5 * A_MAX * d * d, pe):
        return A_MAX
    if _safe(v0, p0 + v0 * d, pe):
        return 0.0
    return A_MIN


# ---------------------------------------------------------------------------
# The composed automaton and its certificate
# ---------------------------------------------------------------------------

H_COORDS = ("p1", "v1", "a1", "c1", "p2", "v2", "a2", "c2")
H_PARAMS = {"u": (-0.1, 0.1)}
_ALL = H_COORDS + tuple(H_PARAMS)

PHI_COEFFS = {
    "p1": 0.12386,
    "v1": 0.60533,
    "a1": -0.00588,
    "c1": -8.19308,
    "p2": 0.12017,
    "v2": 0.58482,
    "a2": -0.03074,
    "c2": 0.64709,
}
PHI_CONST = -0.40900
LAMBDA = 0.25
GAMMA = 1.0


def _v(n):
    return Polynomial.var(_ALL, n)


def _c(x):
    return Polynomial.constant(_ALL, float(x))


def automaton_h() -> HybridAutomaton:
    """One location over (p,v,a,c) for each train; the period-1 controller
    steps become guarded edges on the clocks.  The ideal train switches
    stage at 800 m and 9200 m; the disturbed one follows the protection
    curve toward pe = 10000 m with prediction horizon d = 1 s."""
    pe, d = 10000.0, 1.0
    p2, v2 = _v("p2"), _v("v2")
    field_ = {
        "p1": _v("v1"),
        "v1": _v("a1"),
        "c1": _c(1),
        "p2": v2,
        "v2": _v("a2") + _v("u"),
        "c2": _c(1),
    }
    box = {
        "p1": (0.0, 10100.0),
        "v1": (-1.0, 41.0),
        "a1": (-1.2, 1.2),
        "c1": (0.0, 1.1),
        "p2": (0.0, 10100.0),
        "v2": (-1.0, 41.0),
        "a2": (-1.2, 1.2),
        "c2": (0.0, 1.1),
    }
    init = SetDesc(box={c: (0.0, 0.0) for c in H_COORDS})
    gap = _v("p1") - p2
    unsafe = SetDesc(clauses=((_c(400) - gap,), (_c(400) + gap,)))

    # one-period predictions for the disturbed train
    vp = v2 + _c(d)  # velocity after full power
    pp = p2 + d * v2 + _c(0.5 * d * d)  # position after full power
    pq = p2 + d * v2  # position at constant speed
    gap_p = _c(pe) - pp
    gap_q = _c(pe) - pq

    def curve_ok(v_next, gap_next):
        # v_next <= V_lim(...) as a union of polynomial clauses
        speed = v_next - _c(V_MAX)
        return (
            (speed, _c(800) - gap_next),  # far enough: limit is V_MAX
            (speed, v_next),  # not moving forward
            (speed, v_next * v_next - 2.0 * gap_next),  # braking curve
        )

    def curve_bad(v_next, gap_next):
        return (
            (_c(V_MAX) - v_next,),
            (gap_next - _c(800), -1.0 * v_next, 2.0 * gap_next - v_next * v_next),
        )

    tick1 = _c(1) - _v("c1")
    tick2 = _c(1) - _v("c2")
    b1, not_b1 = curve_ok(vp, gap_p), curve_bad(vp, gap_p)
    b2, not_b2 = curve_ok(v2, gap_q), curve_bad(v2, gap_q)

    edges = [
        Edge("run", "run", SetDesc(((_c(800) - _v("p1"), tick1),)),
             {"a1": _c(0), "c1": _c(0)}, "spec-up-stable"),
        Edge("run", "run", SetDesc(((_c(9200) - _v("p1"), tick1),)),
             {"a1": _c(-1), "c1": _c(0)}, "spec-stable-down"),
        Edge("run", "run", SetDesc(((tick1,),)), {"c1": _c(0)}, "spec-tick"),
        Edge("run", "run", SetDesc(tuple((tick2,) + cl for cl in b1)),
             {"a2": _c(1), "c2": _c(0)}, "sys-accel"),
        Edge("run", "run",
             SetDesc(tuple((tick2,) + n + b for n in not_b1 for b in b2)),
             {"a2": _c(0), "c2": _c(0)}, "sys-coast"),
        Edge("run", "run", SetDesc(tuple((tick2,) + n for n in not_b2)),
             {"a2": _c(-1), "c2": _c(0)}, "sys-brake"),
    ]
    loc = Location("run", field_, SetDesc(), init, unsafe)
    return HybridAutomaton(H_COORDS, dict(H_PARAMS), box, {"run": loc}, edges)


def certificate_h() -> BarrierCertificate:
    phi = _c(PHI_CONST)
    for name, coef in PHI_COEFFS.items():
        phi = phi + coef * _v(name)
    return BarrierCertificate({"run": phi}, {"run": LAMBDA}, {"*": GAMMA})
