"""Bundled models: clocks, the bouncing ball, the shuttling vehicle, the
train handover network, the ideal/disturbed train pairs, and the composed
automaton with its barrier certificate.

The composed automaton H and its certificate are read from their two files
(`automaton-h.json`, `certificate.json`: the files `certcheck` takes). H has
one location over (p, v, a, c) for each train, and the period-1 controller
steps are guarded edges on the clocks. The ideal train switches stage at
800 m and 9,200 m; the disturbed one follows the protection curve toward
pe = 10,000 m with prediction horizon d = 1 s (`control_law_f`)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .certificates import (
    BarrierCertificate,
    HybridAutomaton,
    automaton_from_json,
    certificate_from_json,
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
    files = entry.files
    if "automaton" in files:
        h = inst.automaton = automaton_from_json(model_text(files["automaton"]))
        inst.certificate = certificate_from_json(model_text(files["certificate"]), h.all_coords)
        return inst
    # a file named for two roles is parsed once, in order of first naming
    parsed = {fn: parse(model_text(fn)) for fn in dict.fromkeys(files.values())}
    inst.models = {role: parsed[fn] for role, fn in files.items()}
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


def automaton_h() -> HybridAutomaton:
    """The composed automaton H, read from `automaton-h.json`."""
    return load("composed-automaton-H").automaton


def certificate_h() -> BarrierCertificate:
    """H's barrier certificate, read from `certificate.json`."""
    return load("composed-automaton-H").certificate
