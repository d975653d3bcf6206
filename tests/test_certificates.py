import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hybridpi.certificates import (
    BarrierCertificate,
    Edge,
    HybridAutomaton,
    Location,
    Polynomial,
    SetDesc,
    automaton_from_json,
    automaton_to_json,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    invariant_region,
    lie_derivative,
)
from hybridpi.syntax import HpiError

XY = ("x", "y")


def x():
    return Polynomial.var(XY, "x")


def y():
    return Polynomial.var(XY, "y")


def c(v):
    return Polynomial.constant(XY, v)


def test_polynomial_arithmetic_numerically():
    p = 2.0 * x() + y() * y() - c(3.0)
    q = x() * y() + c(1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        pt = rng.uniform(-2, 2, 2)
        assert (p + q)(pt) == pytest.approx(p(pt) + q(pt))
        assert (p * q)(pt) == pytest.approx(p(pt) * q(pt))
        assert (p - q)(pt) == pytest.approx(p(pt) - q(pt))
    pts = rng.uniform(-2, 2, (100, 2))
    assert np.allclose(p.eval_batch(pts), [p(pt) for pt in pts])


def test_polynomial_diff_and_substitute():
    p = x() * x() * y() + 3.0 * y()
    assert p.diff("x").terms == (2.0 * x() * y()).terms
    assert p.diff("y").terms == (x() * x() + c(3.0)).terms
    comp = p.substitute({"x": y() + c(1.0)})
    rng = np.random.default_rng(1)
    for _ in range(20):
        px, py = rng.uniform(-2, 2, 2)
        assert comp((px, py)) == pytest.approx(p(((py + 1.0), py)))


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial.var(XY, "z")
    with pytest.raises(ValueError):
        Polynomial.make(XY, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial.make(XY, {(-1, 0): 1.0})


def test_lie_derivative_linearity():
    field_ = {"x": y(), "y": -1.0 * x() + c(0.5)}
    p1 = x() * x() + y()
    p2 = x() * y() - c(2.0)
    lhs = lie_derivative(2.0 * p1 + (-3.0) * p2, field_)
    rhs = 2.0 * lie_derivative(p1, field_) + (-3.0) * lie_derivative(p2, field_)
    assert lhs.terms == rhs.terms


def test_lie_derivative_matches_finite_differences():
    field_ = {"x": y(), "y": -1.0 * x()}
    phi = x() * x() * y() + y()
    lphi = lie_derivative(phi, field_)
    sol = solve_ivp(lambda t, s: [s[1], -s[0]], (0, 2), [1.0, 0.3],
                    rtol=1e-12, atol=1e-12, dense_output=True)
    h = 1e-5
    for t in np.linspace(0.1, 1.9, 7):
        fd = (phi(sol.sol(t + h)) - phi(sol.sol(t - h))) / (2 * h)
        want = lphi(sol.sol(t))
        assert fd == pytest.approx(want, rel=1e-6, abs=1e-8)


X1 = ("x",)


def one_d_automaton():
    px = Polynomial.var(X1, "x")
    k = lambda v: Polynomial.constant(X1, v)
    loc = Location(
        "run",
        {"x": -1.0 * px},
        SetDesc(),
        init=SetDesc(box={"x": (-0.5, 0.5)}),
        unsafe=SetDesc(((k(1.5) - px,),)),
    )
    edge = Edge("run", "run", SetDesc(((px + k(1.0),),)), {"x": 0.5 * px}, "shrink")
    h = HybridAutomaton(X1, {}, {"x": (-2.0, 2.0)}, {"run": loc}, [edge])
    cert = BarrierCertificate({"run": px * px - k(2.25)}, {"run": 0.0}, {"*": 1.0})
    return h, cert


def test_check_certificate_all_conditions_pass():
    h, cert = one_d_automaton()
    out = check_certificate(h, cert, samples=4000, seed=3)
    assert out["ok"]
    names = {r["condition"] for r in out["conditions"]}
    assert names == {"BC-1", "BC-2", "BC-3", "BC-4"}
    for r in out["conditions"]:
        assert r["ok"] and r["witness"] is None
        assert r["samples"] > 0


def test_flipped_certificate_fails_with_witness():
    h, cert = one_d_automaton()
    flipped = BarrierCertificate(
        {"run": -1.0 * cert.phi["run"]}, cert.lam, cert.gamma
    )
    out = check_certificate(h, flipped, samples=4000, seed=3)
    assert not out["ok"]
    bad = [r for r in out["conditions"] if not r["ok"]]
    assert any(r["condition"] == "BC-4" for r in bad)
    for r in bad:
        assert r["witness"] is not None
        assert "x" in r["witness"] and "value" in r["witness"]


def test_check_certificate_is_deterministic():
    h, cert = one_d_automaton()
    a = check_certificate(h, cert, samples=2000, seed=5)
    b = check_certificate(h, cert, samples=2000, seed=5)
    assert a["conditions"] == b["conditions"]


def test_check_certificate_rejects_nan_or_negative_tol():
    h, cert = one_d_automaton()
    for tol in (float("nan"), -1e-6):
        with pytest.raises(ValueError):
            check_certificate(h, cert, samples=100, tol=tol)


def test_gamma_must_be_nonnegative():
    with pytest.raises(ValueError):
        BarrierCertificate({"run": c(0.0)}, {"run": 0.0}, {"*": -1.0})


def test_automaton_validation():
    h, _ = one_d_automaton()
    with pytest.raises(ValueError):
        HybridAutomaton(X1, {}, {"x": (-2.0, 2.0)}, {"run": h.locations["run"]},
                        [Edge("run", "gone", SetDesc(), {}, "bad")])
    with pytest.raises(ValueError):
        HybridAutomaton(("x", "q"), {}, {"x": (-2.0, 2.0)}, {"run": h.locations["run"]}, [])


def test_keys_naming_no_coordinate_or_edge_are_refused():
    h, cert = one_d_automaton()
    loc, (edge,) = h.locations["run"], h.edges
    bad_edge = Edge("run", "run", edge.guard, {"y": edge.reset["x"]}, "shrink")
    with pytest.raises(ValueError, match="edge 'shrink' reset names 'y'"):
        HybridAutomaton(X1, {}, h.box, {"run": loc}, [bad_edge])
    with pytest.raises(ValueError, match="^box names 'u'"):
        HybridAutomaton(X1, {"u": (0.0, 1.0)}, {**h.box, "u": (0.0, 1.0)}, {"run": loc}, [])
    typo = BarrierCertificate(cert.phi, cert.lam, {"*": 1.0, "shrnk": 0.5})
    with pytest.raises(HpiError, match="gamma names 'shrnk'"):
        check_certificate(h, typo, samples=16)


def test_json_round_trips():
    h, cert = one_d_automaton()
    text = automaton_to_json(h)
    again = automaton_from_json(text)
    assert automaton_to_json(again) == text
    ctext = certificate_to_json(cert)
    cagain = certificate_from_json(ctext, X1)
    assert certificate_to_json(cagain) == ctext
    json.loads(text), json.loads(ctext)  # both are plain JSON documents


def test_invariant_region_describes_sublevel_sets():
    _, cert = one_d_automaton()
    region = invariant_region(cert)
    assert set(region) == {"run"} and region["run"].endswith("<= 0")
