"""The binder-aware rewrite behind substitute, refresh and definition
instances, on what discrete generated terms do not reach: cell binders,
cell variables and ready names, and substitutions that must fail.

Substitution and renewal defer the sums they reach; they are checked
against the eager rewrite they replace, which rebuilds every branch at
once."""

import pytest

from hybridpi import kernel, syntax
from hybridpi.equivalence import bind_env
from hybridpi.kernel import IntegratorConfig
from hybridpi.parser import ParseError, parse, parse_term
from hybridpi.simulator import SimConfig, simulate
from hybridpi.syntax import (
    Const,
    Continuous,
    Guard,
    Input,
    Op,
    Output,
    Parallel,
    Replication,
    Restriction,
    SubstitutionError,
    Sum,
    Var,
    alpha_equivalent,
    canonical_key,
    free_names,
    fresh,
    refresh,
    subst_expr,
    substitute,
)
from hybridpi.zoo import list_models, load
from termgen import random_terms

CELL = "{0, 1 | x' = u, y' = x & x < 5 ; ready x!, y?}(a, b) . c!<a + b>"


def by_display(p):
    return {n.display: n for n in free_names(p)}


def tags(p):
    """Every sum tag of p, depth first."""
    if isinstance(p, Sum):
        return [p.tag] + [t for _, cont in p.branches for t in tags(cont)]
    if isinstance(p, Parallel):
        return tags(p.left) + tags(p.right)
    return tags(p.body)


def test_refresh_renews_cell_binders_and_stamps_tags():
    p = parse_term(CELL)
    q = refresh(p, "#3")
    (pi, cont), = p.branches
    (qi, qcont), = q.branches
    assert [b.display for b in qi.binders] == ["a", "b"]
    assert set(qi.binders).isdisjoint(pi.binders)
    # the fresh binders are the ones the continuation reads
    (out, _), = qcont.branches
    assert out.payload == (Op("+", (Var(qi.binders[0]), Var(qi.binders[1]))),)
    assert qi.vars == pi.vars and qi.ready == pi.ready and qi.fields == pi.fields
    assert free_names(q) == free_names(p)
    assert canonical_key(q) == canonical_key(p)
    assert tags(q) == [t and t + "#3" for t in tags(p)] and tags(q)[1].endswith("#3")


def test_capture_under_a_cell_binder_renames_it():
    p = parse_term("{0 | x' = 1}(z) . c!<z + w>")
    (pi, _), = p.branches
    z = pi.binders[0]
    q = substitute(p, {by_display(p)["w"]: Var(z)})
    (qi, qcont), = q.branches
    (out, _), = qcont.branches
    z2 = qi.binders[0]
    assert z2 != z and z2.display == "z"
    assert out.payload == (Op("+", (Var(z2), Var(z))),)
    assert z in free_names(q)


@pytest.mark.parametrize("text", ["{0 | x' = 1}", "{0 | x' = 1 ; ready x!}", "{0 | x' = 1 ; ready x?}(v) . c!<v>"])
def test_substituting_a_non_name_for_a_cell_variable_fails(text):
    p = parse_term(text)
    s = {by_display(p)["x"]: Const(2.0)}
    for rewrite in (lambda: substitute(p, s), lambda: refresh(p, "@1", s)):
        with pytest.raises(SubstitutionError, match="for x in continuous variable position"):
            rewrite()


def test_substituting_a_non_name_for_a_channel_fails():
    p = parse_term("tau . c!<1>")
    with pytest.raises(SubstitutionError, match="for c in channel position"):
        substitute(p, {by_display(p)["c"]: Const(2.0)})


def test_definition_call_with_a_non_name_channel_names_its_position():
    with pytest.raises(ParseError) as e:
        parse("def f(c) = c!<1>; run f(2);")
    assert str(e.value) == "1:23: in call to f: cannot substitute non-name expression for c in channel position"
    assert (e.value.line, e.value.col) == (1, 23)


def test_one_pass_instance_equals_refresh_then_substitute():
    for text in random_terms(11, 150) + [CELL]:
        p = parse_term(text)
        names = sorted(free_names(p), key=lambda n: n.id)
        if len(names) < 2:
            continue
        s = {names[0]: Var(names[1]), names[1]: Var(names[0])}
        one, two = refresh(p, "@7", s), substitute(refresh(p, "@7"), s)
        assert canonical_key(one) == canonical_key(two)
        assert tags(one) == tags(two)


# -- deferred sums against the eager rewrite ---------------------------------


def eager_substitute(p, s, renew=False, suffix=None):
    """substitute (and, renewing, refresh) as it was before sums were
    deferred."""
    if not renew and (not s or free_names(p).isdisjoint(s)):
        return p
    if isinstance(p, Sum):
        tag = p.tag if suffix is None else (p.tag + suffix if p.tag else None)
        return Sum(tuple(eager_branch(pi, cont, s, renew, suffix) for pi, cont in p.branches), tag=tag)
    if isinstance(p, Restriction):
        (name,), inner = syntax._scope((p.name,), p.body, s, renew)
        return Restriction(name, eager_substitute(p.body, inner, renew, suffix))
    if isinstance(p, Parallel):
        return Parallel(eager_substitute(p.left, s, renew, suffix), eager_substitute(p.right, s, renew, suffix))
    return Replication(eager_substitute(p.body, s, renew, suffix))


def eager_refresh(p, suffix, s):
    return eager_substitute(p, dict(s), True, suffix)


def eager_branch(pi, cont, s, renew, suffix):
    inner = s
    if isinstance(pi, Input):
        chan = syntax.name_for(s, pi.chan, "channel")
        binders, inner = syntax._scope(pi.binders, cont, s, renew)
        pi = Input(chan, binders)
    elif isinstance(pi, Output):
        pi = Output(syntax.name_for(s, pi.chan, "channel"), tuple(subst_expr(e, s) for e in pi.payload))
    elif isinstance(pi, Guard):
        pi = Guard(subst_expr(pi.cond, s))
    elif isinstance(pi, Continuous):
        vars_ = tuple(syntax.name_for(s, v, "continuous variable") for v in pi.vars)
        init = tuple(subst_expr(e, s) for e in pi.init)
        fields = tuple(subst_expr(e, s) for e in pi.fields)
        boundary = subst_expr(pi.boundary, s)
        binders, inner = syntax._scope(pi.binders, cont, s, renew)
        pi = Continuous(init, vars_, fields, boundary, pi.ready, binders)
    return pi, eager_substitute(cont, inner, renew, suffix)


def bodies(p):
    """(binders, body) of every input and cell continuation in p, and p
    itself with no binders, depth first."""
    out = [((), p)]
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Sum):
            for pi, cont in q.branches:
                if isinstance(pi, (Input, Continuous)) and pi.binders:
                    out.append((pi.binders, cont))
                todo.append(cont)
        elif isinstance(q, Parallel):
            todo += (q.right, q.left)
        else:
            todo.append(q.body)
    return out


def bound_names(p):
    """Every name that an input, a cell or a restriction in p binds."""
    out = set()
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Sum):
            for pi, cont in q.branches:
                out.update(getattr(pi, "binders", ()))
                todo.append(cont)
        elif isinstance(q, Parallel):
            todo += (q.left, q.right)
        else:
            if isinstance(q, Restriction):
                out.add(q.name)
            todo.append(q.body)
    return out


def substitutions(binders, body):
    """Value and name substitutions for the binders of body, and for its
    free names: renamings, captures and non-names in name slots."""
    free = sorted(free_names(body), key=lambda n: n.id)
    out = []
    if binders:
        out.append({b: Const(float(i) + 0.5) for i, b in enumerate(binders)})
        out.append({b: Var(free[i % len(free)]) for i, b in enumerate(binders)} if free else {})
    for i, n in enumerate(free):
        other = free[(i + 1) % len(free)]
        out += [{n: Const(2.0)}, {n: Var(other)}, {n: Var(fresh(n.display))}, {n: Var(other), other: Var(n)}]
    return [m for m in out if m]


def outcome(rewrite):
    # a renaming may also make two cell variables one (a ValueError)
    try:
        return rewrite(), None
    except (SubstitutionError, ValueError) as e:
        return None, (type(e), str(e))


def assert_defers_like_the_eager_rewrite(p):
    checked = 0
    for binders, body in bodies(p):
        checked += assert_renews_like_the_eager_refresh(binders, body, {})
        for s in substitutions(binders, body):
            checked += assert_renews_like_the_eager_refresh(binders, body, s)
            lazy, lazy_error = outcome(lambda: substitute(body, s))
            eager, eager_error = outcome(lambda: eager_substitute(body, s))
            assert lazy_error == eager_error
            if eager_error:
                continue
            # free names of the result before any of its sums is built
            assert free_names(lazy) == free_names(eager)
            if isinstance(lazy, Sum):
                assert free_names(Sum(lazy.branches, lazy.tag)) == free_names(eager)
            assert alpha_equivalent(lazy, eager)
            if frozenset().union(*map(syntax.expr_names, s.values())).isdisjoint(bound_names(body)):
                assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
            checked += 1
    return checked


def assert_renews_like_the_eager_refresh(binders, body, s):
    """refresh(body, suffix, s), with body's own binders renamed apart as a
    replication copy's agent has them, against the eager refresh: the same
    error at the call, or the same term and tags once built."""
    _, ren = syntax.rename_apart(binders, frozenset(binders))
    s = {**s, **{b: v for b, v in ren.items() if b not in s}}
    lazy, lazy_error = outcome(lambda: refresh(body, "#5", s))
    eager, eager_error = outcome(lambda: eager_refresh(body, "#5", s))
    assert lazy_error == eager_error
    if eager_error:
        return 0
    assert free_names(lazy) == free_names(eager)
    assert canonical_key(lazy) == canonical_key(eager)
    assert tags(lazy) == tags(eager)
    return 1


@pytest.mark.parametrize("repl", [False, True])
def test_deferred_substitution_matches_the_eager_rewrite_on_generated_terms(repl):
    checked = 0
    for text in random_terms(19, 120, budget=6, repl=repl):
        checked += assert_defers_like_the_eager_rewrite(parse_term(text))
    assert checked > 500


def test_deferred_substitution_matches_the_eager_rewrite_on_bundled_models():
    roots = [m.entry for e in list_models() for m in load(e.id).models.values()]
    assert sum(assert_defers_like_the_eager_rewrite(r) for r in roots) > 500


def test_deferred_sum_compares_and_hashes_as_its_built_sum():
    p = parse_term("a(x) . ([x < 1] . b!<x> + [x >= 1] . c!<x + 1>)")
    (pi, body), = p.branches
    q = substitute(body, {pi.binders[0]: Const(2.0)})
    assert type(q) is not Sum and "branches" not in vars(q)
    assert "b" in {n.display for n in free_names(q)} and "branches" not in vars(q)
    built = Sum(q.branches, q.tag)
    assert q == built and built == q and hash(q) == hash(built) and repr(q) == repr(built)
    assert {q: 1}[built] == 1 and q != Sum(q.branches, "other")


def test_spec_system_leaves_the_handover_branch_unbuilt(monkeypatch):
    # one 1-s control period of the disturbed train: p(p0) substitutes p0
    # into both guarded branches, and p0 < ph is the one taken
    applied = []

    def recording(f, c):
        out = real(f, c)
        applied.append(out)
        return out

    real = kernel.apply
    monkeypatch.setattr(kernel, "apply", recording)
    inst = load("spec-system")
    cfg = SimConfig(horizon=1.5, integrator=IntegratorConfig(step=1e-2))
    res = simulate(inst.main.entry, cfg, bind_env(inst.main.entry, {"u": 0.0}))
    assert res.status == "horizon"
    handovers = []
    todo = list(applied)
    while todo:  # the sums at the top of each applied sync's result
        q = todo.pop()
        if isinstance(q, Restriction):
            todo.append(q.body)
        elif isinstance(q, Parallel):
            todo += (q.left, q.right)
        elif isinstance(q, Sum) and [type(pi) for pi, _ in q.branches] == [Guard, Guard]:
            cont = q.branches[1][1]
            first = cont.src.branches[0][0] if isinstance(cont, syntax._Deferred) else None
            if isinstance(first, Output) and first.chan.display == "handover":
                handovers.append(cont)
    assert len(handovers) == 2  # the syncs at t = 0 and t = 1
    assert not any("branches" in vars(cont) for cont in handovers)


@pytest.mark.parametrize("text", ["{0, 1 | x' = 1, y' = 2}", "tau . a(z) . {0, 1 | x' = 1, y' = 2}"])
def test_two_cell_variables_renamed_to_one_raise_at_the_call(text):
    p = parse_term(text)
    x, y = by_display(p)["x"], by_display(p)["y"]
    z = fresh("z")
    for s in ({x: Var(z), y: Var(z)}, {x: Var(y)}):
        for rewrite in (lambda: substitute(p, s), lambda: refresh(p, "#1", s)):
            with pytest.raises(ValueError, match="continuous variables must be pairwise distinct"):
                rewrite()
    # a renaming onto two names that are not slots of p defers, and builds
    q = refresh(p, "#1", {x: Var(z), y: Var(fresh("w"))})
    assert isinstance(q, syntax._Deferred) and canonical_key(q)


def test_network_run_leaves_the_far_sectors_control_loops_unbuilt(monkeypatch):
    # 10 s of handover-network: the train stays in sector 0, so sectors 1
    # and 2 never receive on their chin; their control loops, everything
    # after that input (run:42:35 onward), must stay unbuilt
    built = []  # the tag of every sum built, at once or deferred
    init, build = Sum.__init__, syntax._build

    def recording_init(self, branches, tag=None):
        built.append(tag)
        init(self, branches, tag)

    def recording_build(p):
        built.append(p.tag)
        return build(p)

    monkeypatch.setattr(Sum, "__init__", recording_init)
    monkeypatch.setattr(syntax, "_build", recording_build)
    res = simulate(load("handover-network").main.entry, SimConfig(horizon=10.0, integrator=IntegratorConfig(step=1e-2)))
    monkeypatch.undo()
    assert res.status == "horizon"
    # each sector's copy stamp, from the sync with its sec!<...> (lines 25-27)
    stamp = {}
    for ev in res.trace:
        if ev.kind == "Sync" and ev.chan == "sec":
            (out,), (copy,) = [t for t in ev.provenance if t.startswith("run:2")], [t for t in ev.provenance if t.startswith("run:38")]
            stamp[int(out.split(":")[1]) - 25] = copy.split("#")[1]
    assert len(stamp) == 3 and len(set(stamp.values())) == 3
    read = {"run:40:14", "run:41:mu-call", "run:41:mu-body", "run:42:16"}  # up to the chin input
    by_sector = {i: {t.split("#")[0] for t in built if t and t.split("#")[1:2] == [k]} for i, k in stamp.items()}
    assert "run:42:35" in by_sector[0] and any(t.startswith("drive:") for t in by_sector[0])
    assert by_sector[1] <= read and by_sector[2] <= read
