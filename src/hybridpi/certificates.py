"""Hybrid automata, polynomial barrier certificates, and sampling checks.

A certificate is a polynomial per location; the four conditions are checked
on deterministic low-discrepancy samples of the relevant sets (plus box
vertices), so a reported violation is sound while a pass is empirical.

A key that names nothing is refused: a JSON object key that its kind does
not allow (see ``_KEYS``), on reading; an automaton's field, reset or box
key (top-level or a set's) that is no state coordinate, on construction;
and a certificate's phi or lambda key that is no location and gamma label
that is neither `*` nor an edge's, by `check_certificate`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.stats import qmc

from .syntax import HpiError


# ---------------------------------------------------------------------------
# Polynomials over named coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    coords: tuple  # of str, the variable order for exponent vectors
    terms: tuple  # of (exponent tuple, coefficient), sorted

    @staticmethod
    def make(coords: Sequence[str], mapping: dict) -> "Polynomial":
        coords = tuple(coords)
        acc: dict = {}
        for exp, c in mapping.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(coords):
                raise ValueError("exponent vector length does not match coords")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            if c:
                acc[exp] = acc.get(exp, 0.0) + float(c)
        terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0.0))
        return Polynomial(coords, terms)

    @staticmethod
    def constant(coords: Sequence[str], c: float) -> "Polynomial":
        return Polynomial.make(coords, {tuple(0 for _ in coords): c})

    @staticmethod
    def var(coords: Sequence[str], name: str) -> "Polynomial":
        exp = tuple(1 if c == name else 0 for c in coords)
        if sum(exp) != 1:
            raise ValueError(f"unknown coordinate {name!r}")
        return Polynomial.make(coords, {exp: 1.0})

    def __call__(self, point) -> float:
        # point: array-like in coords order
        return float(self.eval_batch(np.asarray([point], dtype=float))[0])

    def eval_batch(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0])
        for exp, c in self.terms:
            v = np.full(pts.shape[0], c)
            for j, e in enumerate(exp):
                if e:
                    v = v * pts[:, j] ** e
            out += v
        return out

    def diff(self, name: str) -> "Polynomial":
        j = self.coords.index(name)
        acc: dict = {}
        for exp, c in self.terms:
            if exp[j] == 0:
                continue
            e2 = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
            acc[e2] = acc.get(e2, 0.0) + c * exp[j]
        return Polynomial.make(self.coords, acc)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0.0) + c
        return Polynomial.make(self.coords, acc)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial.make(self.coords, {e: c * other for e, c in self.terms})
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0.0) + c1 * c2
        return Polynomial.make(self.coords, acc)

    __rmul__ = __mul__

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1.0)

    def substitute(self, assignment: dict) -> "Polynomial":
        """Composition: each named coordinate replaced by a polynomial."""
        out = Polynomial.constant(self.coords, 0.0)
        for exp, c in self.terms:
            term = Polynomial.constant(self.coords, c)
            for name, e in zip(self.coords, exp):
                if not e:
                    continue
                base = assignment.get(name, Polynomial.var(self.coords, name))
                for _ in range(e):
                    term = term * base
            out = out + term
        return out

    def describe(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in sorted(self.terms, key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(
                f"{n}" + (f"^{e}" if e > 1 else "")
                for n, e in zip(self.coords, exp)
                if e
            )
            parts.append(f"{c:+g}" + (f"*{mono}" if mono else ""))
        return " ".join(parts)


def lie_derivative(phi: Polynomial, field_: dict) -> Polynomial:
    """<grad(phi), f> with f given per coordinate; missing coordinates have
    zero drift."""
    out = Polynomial.constant(phi.coords, 0.0)
    for name, f in field_.items():
        out = out + phi.diff(name) * f
    return out


# ---------------------------------------------------------------------------
# Sets, locations, automata
# ---------------------------------------------------------------------------


@dataclass
class SetDesc:
    """Union of conjunctions of polynomial inequalities p(x) <= 0, sampled
    inside a per-set box (falling back to the automaton box)."""

    clauses: tuple = ((),)  # tuple of tuples of Polynomial
    box: Optional[dict] = None  # coord -> (lo, hi) overrides

    def contains(self, pts: np.ndarray) -> np.ndarray:
        if not self.clauses:
            return np.zeros(pts.shape[0], dtype=bool)
        ok = np.zeros(pts.shape[0], dtype=bool)
        for clause in self.clauses:
            good = np.ones(pts.shape[0], dtype=bool)
            for poly in clause:
                good &= poly.eval_batch(pts) <= 0.0
            ok |= good
        return ok


@dataclass
class Location:
    name: str
    field: dict  # coord -> Polynomial (drift)
    invariant: SetDesc = field(default_factory=SetDesc)
    init: Optional[SetDesc] = None
    unsafe: Optional[SetDesc] = None


@dataclass
class Edge:
    source: str
    target: str
    guard: SetDesc
    reset: dict  # coord -> Polynomial; identity if absent
    label: str = ""


@dataclass
class HybridAutomaton:
    coords: tuple  # state coordinates
    params: dict  # disturbance name -> (lo, hi); sampled jointly in BC-2
    box: dict  # coord -> (lo, hi)
    locations: dict  # name -> Location
    edges: list

    def __post_init__(self):
        for e in self.edges:
            if e.source not in self.locations or e.target not in self.locations:
                raise ValueError(f"edge {e.label!r} references an unknown location")
        for c in self.coords:
            if c not in self.box:
                raise ValueError(f"coordinate {c!r} has no box bounds")
        # a key naming no state coordinate would otherwise be ignored
        keyed = [("box", self.box)]
        for name, l in self.locations.items():
            sets = {"invariant": l.invariant, "init": l.init, "unsafe": l.unsafe}
            keyed += [(f"location {name!r} field", l.field)]
            keyed += [(f"location {name!r} {k} box", s.box) for k, s in sets.items() if s]
        for e in self.edges:
            keyed += [(f"edge {e.label!r} reset", e.reset), (f"edge {e.label!r} guard box", e.guard.box)]
        for where, table in keyed:
            for k in table or ():
                if k not in self.coords:
                    raise ValueError(f"{where} names {k!r}, which is not a state coordinate")

    @property
    def all_coords(self) -> tuple:
        return self.coords + tuple(self.params)


@dataclass
class BarrierCertificate:
    phi: dict  # location -> Polynomial
    lam: dict  # location -> float
    gamma: dict  # edge label -> float, nonnegative

    def __post_init__(self):
        for k, g in self.gamma.items():
            if g < 0:
                raise ValueError(f"gamma for edge {k!r} must be nonnegative")


# ---------------------------------------------------------------------------
# Sampling checks
# ---------------------------------------------------------------------------


def _sample_box(bounds: list, n: int, seed: int) -> np.ndarray:
    d = len(bounds)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    sampler = qmc.Sobol(d=d, scramble=True, seed=seed)
    pts = sampler.random_base2(max(1, math.ceil(math.log2(n))))[:n]
    pts = lo + pts * (hi - lo)
    if d <= 12:
        verts = np.array(list(itertools.product(*[(b[0], b[1]) for b in bounds])))
        pts = np.vstack([pts, verts])
    return pts


def _set_points(h: HybridAutomaton, s: Optional[SetDesc], n: int, seed: int, with_params: bool):
    override = (s.box or {}) if s else {}
    bounds = [override.get(c, h.box[c]) for c in h.coords]
    if with_params:
        bounds.extend(h.params[p] for p in h.params)
    pts = _sample_box(bounds, n, seed)
    if s is not None and s.clauses != ((),):
        # set polynomials live over all_coords; pad any unsampled param columns
        pad = np.zeros((pts.shape[0], 0 if with_params else len(h.params)))
        pts = pts[s.contains(np.hstack([pts, pad]))]
    return pts


@dataclass
class ConditionReport:
    condition: str
    where: str
    samples: int
    min_margin: Optional[float]
    max_margin: Optional[float]
    ok: bool
    witness: Optional[dict] = None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _report(cond, where, vals, pts, coords, ok_mask) -> ConditionReport:
    if len(vals) == 0:
        return ConditionReport(cond, where, 0, None, None, True, note="empty sample")
    bad = ~ok_mask
    witness = None
    ok = not bad.any()
    if not ok:
        # the most violating point
        idx = int(np.argmax(bad * np.abs(vals)))
        witness = {c: float(x) for c, x in zip(coords, pts[idx])}
        witness["value"] = float(vals[idx])
    return ConditionReport(
        cond, where, len(vals), float(np.min(vals)), float(np.max(vals)), ok, witness
    )


def check_certificate(
    h: HybridAutomaton,
    cert: BarrierCertificate,
    samples: int = 100_000,
    tol: float = 1e-6,
    seed: int = 0,
) -> dict:
    if not tol >= 0:  # a NaN tolerance fails every comparison
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    if samples < 1:
        raise ValueError(f"samples must be a positive count, got {samples}")
    for name in h.locations:
        for part, table in (("phi", cert.phi), ("lambda", cert.lam)):
            if name not in table:
                raise HpiError(f"certificate has no {part} for location {name!r}")
    for part, table in (("phi", cert.phi), ("lambda", cert.lam)):
        for name in sorted(table.keys() - h.locations.keys()):
            raise HpiError(f"certificate {part} names {name!r}, which is no location")
    labels = {e.label or f"e{i}" for i, e in enumerate(h.edges)}
    for label in sorted(cert.gamma.keys() - labels - {"*"}):
        raise HpiError(f"certificate gamma names {label!r}, which is no edge label")
    reports: list = []
    all_coords = h.all_coords

    for name, loc in h.locations.items():
        phi = cert.phi[name]
        # BC-1: phi <= 0 on Init
        if loc.init is not None:
            pts = _set_points(h, loc.init, samples, seed, with_params=False)
            vals = phi.eval_batch(pts)
            reports.append(_report("BC-1", name, vals, pts, all_coords, vals <= tol))
        # BC-2: <grad phi, f> - lam*phi <= 0 on the invariant (params sampled jointly)
        lie = lie_derivative(phi, loc.field) - cert.lam[name] * phi
        pts = _set_points(h, loc.invariant, samples, seed + 1, with_params=True)
        vals = lie.eval_batch(pts)
        reports.append(_report("BC-2", name, vals, pts, all_coords, vals <= tol))
        # BC-4: phi > 0 on Unsafe
        if loc.unsafe is not None:
            pts = _set_points(h, loc.unsafe, samples, seed + 2, with_params=False)
            vals = phi.eval_batch(pts)
            reports.append(_report("BC-4", name, vals, pts, all_coords, vals > -tol))

    for i, e in enumerate(h.edges):
        label = e.label or f"e{i}"
        gamma = cert.gamma.get(label, cert.gamma.get("*", 1.0))
        phi_s = cert.phi[e.source]
        phi_t = cert.phi[e.target]
        # BC-3: gamma*phi_src(x) - phi_tgt(reset(x)) >= 0 on the guard
        post = phi_t.substitute(e.reset)
        expr = gamma * phi_s - post
        pts = _set_points(h, e.guard, samples, seed + 3 + i, with_params=False)
        vals = expr.eval_batch(pts)
        reports.append(_report("BC-3", label, vals, pts, all_coords, vals >= -tol))

    ok = all(r.ok for r in reports)
    return {"ok": ok, "tolerance": tol, "samples": samples, "conditions": [r.to_dict() for r in reports], "reports": reports}


def invariant_region(cert: BarrierCertificate) -> dict:
    """The sublevel sets phi_l <= 0, per location, as readable inequalities."""
    return {name: f"{phi.describe()} <= 0" for name, phi in cert.phi.items()}


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------


def _poly_from_json(coords, obj) -> Polynomial:
    mapping = {}
    for key, c in obj.items():
        try:
            mapping[tuple(int(x) for x in key.split(","))] = float(c)
        except ValueError as e:
            raise HpiError(f"term {key!r}: {e}") from None
    return Polynomial.make(coords, mapping)


def _poly_to_json(p: Polynomial) -> dict:
    return {",".join(str(e) for e in exp): c for exp, c in p.terms}


def _set_from_json(coords, obj, where: str) -> SetDesc:
    if obj is None:
        return SetDesc()
    _keys(obj, "set", where)
    clauses = tuple(
        tuple(_poly_from_json(coords, ineq) for ineq in clause) for clause in obj.get("ineqs", [[]])
    )
    box = {k: (float(v[0]), float(v[1])) for k, v in obj.get("box", {}).items()} or None
    return SetDesc(clauses, box)


def _set_to_json(s: Optional[SetDesc]):
    if s is None:
        return None
    out = {"ineqs": [[_poly_to_json(p) for p in clause] for clause in s.clauses]}
    if s.box:
        out["box"] = {k: list(v) for k, v in s.box.items()}
    return out


# The keys each kind of JSON object may carry, (required, optional): the
# keys the writers write.  A reader refuses any other key, so a misspelled
# one is an error, never a silently dropped condition.
_KEYS = {
    "automaton": ({"coords", "box", "locations"}, {"params", "edges"}),
    "location": ({"field"}, {"invariant", "init", "unsafe"}),
    "edge": ({"source", "target"}, {"guard", "reset", "label"}),
    "set": (set(), {"ineqs", "box"}),
    "certificate": ({"phi", "lambda", "gamma"}, set()),
}


def _keys(obj: dict, kind: str, where: str = "") -> None:
    """Refuse a key of obj, a `kind` object at `where`, that the kind does
    not allow, then a required key it lacks."""
    required, optional = _KEYS[kind]
    at = f"{where}: " if where else ""
    for k in sorted(obj.keys() - required - optional):
        raise HpiError(f"{at}unknown key {k!r}")
    for k in sorted(required - obj.keys()):
        raise HpiError(f"{at}missing {k!r}")


def _from_json(text: str, what: str, build):
    """build(the JSON object in text), with a malformed part reported as an
    HpiError instead of a TypeError or the like (``_keys`` words a missing
    or unknown key)."""
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise HpiError(f"expected a JSON object, got {type(obj).__name__}")
        return build(obj)
    except (HpiError, json.JSONDecodeError) as e:
        raise HpiError(f"{what}: {e}") from None
    except (TypeError, AttributeError, IndexError, KeyError, ValueError) as e:
        raise HpiError(f"{what}: malformed ({e})") from None


def automaton_from_json(text: str) -> HybridAutomaton:
    return _from_json(text, "automaton", _automaton)


def _automaton(obj: dict) -> HybridAutomaton:
    _keys(obj, "automaton")
    coords = tuple(obj["coords"])
    params = {k: (float(v[0]), float(v[1])) for k, v in obj.get("params", {}).items()}
    all_coords = coords + tuple(params)
    box = {k: (float(v[0]), float(v[1])) for k, v in obj["box"].items()}
    locations = {}
    for name, l in obj["locations"].items():
        at = f"location {name!r}"
        _keys(l, "location", at)
        locations[name] = Location(
            name,
            {k: _poly_from_json(all_coords, v) for k, v in l["field"].items()},
            _set_from_json(all_coords, l.get("invariant"), f"{at} invariant"),
            _set_from_json(all_coords, l["init"], f"{at} init") if l.get("init") else None,
            _set_from_json(all_coords, l["unsafe"], f"{at} unsafe") if l.get("unsafe") else None,
        )
    edges = []
    for i, e in enumerate(obj.get("edges", [])):
        label = e.get("label", f"e{i}")
        _keys(e, "edge", f"edge {label!r}")
        guard = _set_from_json(all_coords, e.get("guard"), f"edge {label!r} guard")
        reset = {k: _poly_from_json(all_coords, v) for k, v in e.get("reset", {}).items()}
        edges.append(Edge(e["source"], e["target"], guard, reset, label))
    return HybridAutomaton(coords, params, box, locations, edges)


def automaton_to_json(h: HybridAutomaton) -> str:
    obj = {
        "coords": list(h.coords),
        "params": {k: list(v) for k, v in h.params.items()},
        "box": {k: list(v) for k, v in h.box.items()},
        "locations": {
            name: {
                "field": {k: _poly_to_json(v) for k, v in l.field.items()},
                "invariant": _set_to_json(l.invariant),
                "init": _set_to_json(l.init),
                "unsafe": _set_to_json(l.unsafe),
            }
            for name, l in h.locations.items()
        },
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "guard": _set_to_json(e.guard),
                "reset": {k: _poly_to_json(v) for k, v in e.reset.items()},
                "label": e.label,
            }
            for e in h.edges
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True)


def certificate_from_json(text: str, coords: Sequence[str]) -> BarrierCertificate:
    coords = tuple(coords)

    def build(obj: dict) -> BarrierCertificate:
        _keys(obj, "certificate")
        phi = {name: _poly_from_json(coords, p) for name, p in obj["phi"].items()}
        lam = {name: float(v) for name, v in obj["lambda"].items()}
        gamma = {name: float(v) for name, v in obj["gamma"].items()}
        return BarrierCertificate(phi, lam, gamma)

    return _from_json(text, "certificate", build)


def certificate_to_json(cert: BarrierCertificate) -> str:
    return json.dumps(
        {
            "phi": {name: _poly_to_json(p) for name, p in cert.phi.items()},
            "lambda": cert.lam,
            "gamma": cert.gamma,
        },
        indent=2,
        sort_keys=True,
    )
