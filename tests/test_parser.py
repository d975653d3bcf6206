import math
import random
import string

import pytest

from hybridpi.kernel import discrete_transitions
from hybridpi.parser import ParseError, parse, parse_term, pretty
from hybridpi.syntax import (
    NIL,
    Const,
    Continuous,
    Op,
    Output,
    Parallel,
    Replication,
    Restriction,
    MAX_DEPTH,
    Sum,
    alpha_equivalent,
    canonical_key,
    depth,
    free_names,
    prune,
    refresh,
)
from hybridpi.zoo import list_models, model_text
from termgen import random_terms


def test_model_file_shape():
    m = parse("const k = 2;\ndef ping(c) = c!<k>;\nrun ping(a) || a(v);")
    assert "k" in m.constants and m.constants["k"] == 2.0
    assert "ping" in m.definitions
    assert isinstance(m.entry, Parallel)


def test_const_substitution_and_call_grafting():
    shared: dict = {}
    m = parse("const k = 2;\ndef twice(c) = c!<k> . c!<k>;\nrun twice(a) . b!<1>;", shared)
    want = parse_term("a!<2> . a!<2> . b!<1>", shared)
    assert alpha_equivalent(m.entry, want)


def test_mu_expands_to_private_replication():
    p = parse_term("mu x . tau . x!<>")
    assert isinstance(p, Restriction)
    assert isinstance(p.body, Parallel)
    sides = (p.body.left, p.body.right)
    assert any(isinstance(s, Replication) for s in sides)
    assert not free_names(p)


def test_binder_form_extends_over_parallel():
    p = parse_term("new x . tau || x!<1>")
    assert isinstance(p, Restriction)
    assert isinstance(p.body, Parallel)
    assert not free_names(p)
    q = parse_term("(new x . tau) || x!<1>")
    assert isinstance(q, Parallel)
    assert {n.display for n in free_names(q)} == {"x"}


def test_continuous_prefix_pieces():
    p = parse_term("{5, 0 | h' = v, v' = -9.8 & h > 0 ; ready v!, v?}(hf, vf)")
    (branch,) = p.branches
    cell, _ = branch
    assert isinstance(cell, Continuous)
    assert [v.display for v in cell.vars] == ["h", "v"]
    assert len(cell.init) == 2 and len(cell.fields) == 2
    assert len(cell.ready) == 2
    assert [b.display for b in cell.binders] == ["hf", "vf"]


def test_ready_set_optional_and_boundary_optional():
    p = parse_term("{0 | c' = 1}")
    (branch,) = p.branches
    cell, _ = branch
    assert len(cell.ready) == 0 and not cell.binders


@pytest.mark.parametrize(
    "bad",
    [
        "run ;",
        "run a!<1>",  # missing semicolon
        "run {0 | c' & c < 1};",
        "run new . tau;",
        "run a(1) . 0;",
        "run [x <] . tau;",
        "def f(a = tau; run f(1);",
        "run f(1);",  # unknown definition
        "run mu . tau;",
    ],
)
def test_malformed_inputs_raise_parse_error(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_fuzz_never_crashes():
    rng = random.Random(20260823)
    vocab = list(string.ascii_lowercase) + list("0123456789") + [
        "new", "mu", "repl", "run", "def", "const", "tau", "ready",
        "||", "+", ".", "(", ")", "{", "}", "|", "!", "<", ">", "'", "=",
        "&", ";", ",", "[", "]",
    ]
    for _ in range(300):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 25)))
        try:
            parse(text)
        except ParseError:
            pass


def test_pretty_roundtrip_random_terms():
    for text in random_terms(606, 80):
        shared: dict = {}
        p = parse_term(text, shared)
        assert alpha_equivalent(parse_term(pretty(p), shared), p)


def test_pretty_roundtrip_bundled_models():
    for entry in list_models():
        for fn in entry.files.values():
            if not fn.endswith(".hpc"):
                continue
            shared: dict = {}
            m = parse(model_text(fn), shared)
            again = parse_term(pretty(m.entry), shared)
            assert alpha_equivalent(again, m.entry), fn


@pytest.mark.parametrize("src, printed", [
    ("a!<> || b!<> || c!<> || (d!<> || e!<>)", "a!<> || b!<> || c!<> || (d!<> || e!<>)"),
    ("(new x . x!<>) || (repl b!<>) || new y . y!<>", "(new x . x!<>) || (repl b!<>) || new y . y!<>"),
    ("a!<> || (b!<> || new x . x!<>) || c!<>", "a!<> || (b!<> || new x . x!<>) || c!<>"),
])
def test_flat_parallels_print_flat(src, printed):
    # the left spine prints without parentheses; a component that is not
    # the last keeps them around a new or a repl, which would else swallow
    # the components after it
    shared: dict = {}
    p = parse_term(src, shared)
    assert pretty(p) == printed
    assert alpha_equivalent(parse_term(printed, shared), p)


# one term of each kind of nesting, each MAX_DEPTH deep
DEEPEST = {
    "prefix chain": "tau . " * (MAX_DEPTH - 1) + "0",
    "new chain": "new a . " * (MAX_DEPTH - 1) + "0",
    "repl chain": "repl " * (MAX_DEPTH - 2) + "a!<>",
    "flat parallel": "a!<> || " * (MAX_DEPTH - 2) + "0",
    "right-nested parallel": "a!<> || (" * (MAX_DEPTH - 2) + "0" + ")" * (MAX_DEPTH - 2),
}


@pytest.mark.parametrize("src", DEEPEST.values(), ids=list(DEEPEST))
def test_every_term_the_parser_accepts_can_be_walked(src):
    shared: dict = {}
    p = parse_term(src, shared)
    assert depth(p) == MAX_DEPTH
    discrete_transitions(p)
    q = prune(refresh(p))
    canonical_key(q)
    canonical_key(q, flatten=True)
    assert alpha_equivalent(parse_term(pretty(p), shared), p)


# canonical_key and pretty of one source per expression form; the literals
# were recorded before conditions and arithmetic shared one grammar
@pytest.mark.parametrize("src, key, printed", [
    ('new a . a(x, y, z) . [not x < 1] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (not (< b[1.0] c[1.0])) (sum ))))))',
     'new a . a(x, y, z).[1 <= x]'),
    ('new a . a(x, y, z) . [x <= 1 or y >= 2] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (not (and (not (not (< c[1.0] b[1.0]))) (not (not (< b[1.1] c[2.0]))))) (sum ))))))',
     'new a . a(x, y, z).[x <= 1 or 2 <= y]'),
    ('new a . a(x, y, z) . [x > 1 and y == 2 and z != 3] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (and (and (< c[1.0] b[1.0]) (and (not (< b[1.1] c[2.0])) (not (< c[2.0] b[1.1])))) (not (and (not (< b[1.2] c[3.0])) (not (< c[3.0] b[1.2]))))) (sum ))))))',
     'new a . a(x, y, z).[(1 < x and y == 2) and (z < 3 or 3 < z)]'),
    ('new a . a(x, y, z) . [(x < 1 or y < 2) and not (z < 3 and x < y)] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (and (not (and (not (< b[1.0] c[1.0])) (not (< b[1.1] c[2.0])))) (not (and (< b[1.2] c[3.0]) (< b[1.0] b[1.1])))) (sum ))))))',
     'new a . a(x, y, z).[(x < 1 or y < 2) and not (z < 3 and x < y)]'),
    ('new a . a(x, y, z) . [not not false or true] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (not (and (not (not (not false))) (not (not false)))) (sum ))))))',
     'new a . a(x, y, z).[not true or true]'),
    ('new a . a(x, y, z) . [not (x == y)] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (not (and (not (< b[1.0] b[1.1])) (not (< b[1.1] b[1.0])))) (sum ))))))',
     'new a . a(x, y, z).[x < y or y < x]'),
    ('new a . a(x, y, z) . [((x + 1)) * 2 < ((y))] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (< (* (+ b[1.0] c[1.0]) c[2.0]) b[1.1]) (sum ))))))',
     'new a . a(x, y, z).[(x + 1) * 2 < y]'),
    ('new a . a(x, y, z) . [x - y / z >= (x - y) / z] . 0',
     '(new (sum (in b[0.0]/3 (sum (guard (not (< (- b[1.0] (/ b[1.1] b[1.2])) (/ (- b[1.0] b[1.1]) b[1.2]))) (sum ))))))',
     'new a . a(x, y, z).[(x - y) / z <= x - y / z]'),
    ('new a . a(x, y, z) . a!<-3, -(2), - x, -(x + y), x - -1> . 0',
     '(new (sum (in b[0.0]/3 (sum (out b[0.0] [c[-3.0] c[-2.0] (neg b[1.0]) (neg (+ b[1.0] b[1.1])) (- b[1.0] c[-1.0])] (sum ))))))',
     'new a . a(x, y, z).a!<-3, -2, -x, -(x + y), x - (-1)>'),
    ('new a . a(x, y, z) . a!<x * -y, -x * y, x - (y - z), (x - y) - z> . 0',
     '(new (sum (in b[0.0]/3 (sum (out b[0.0] [(* b[1.0] (neg b[1.1])) (* (neg b[1.0]) b[1.1]) (- b[1.0] (- b[1.1] b[1.2])) (- (- b[1.0] b[1.1]) b[1.2])] (sum ))))))',
     'new a . a(x, y, z).a!<x * -y, -x * y, x - (y - z), x - y - z>'),
    ('new a . a(x, y, z) . a!<min(x, -1), max(x * 2, y) / sqrt(y + 1)> . 0',
     '(new (sum (in b[0.0]/3 (sum (out b[0.0] [(min b[1.0] c[-1.0]) (/ (max (* b[1.0] c[2.0]) b[1.1]) (sqrt (+ b[1.1] c[1.0])))] (sum ))))))',
     'new a . a(x, y, z).a!<min(x, -1), max(x * 2, y) / sqrt(y + 1)>'),
    ("new x . {1 | x' = -x & not (x < 0.5) and (x > 0.25)} . 0",
     '(new (sum (ode [b[0.0]] [c[1.0]] [(neg b[0.0])] (and (not (< b[0.0] c[0.5])) (< c[0.25] b[0.0])) {}/0 (sum ))))',
     "new x . {1 | x' = -x & 0.5 <= x and 0.25 < x}"),
])
def test_expression_forms_parse_and_print_as_pinned(src, key, printed):
    p = parse_term(src)
    assert canonical_key(p) == key
    assert pretty(p) == printed


@pytest.mark.parametrize("bad, where, msg", [
    # a missing operand is reported where it is missing
    ("run [(x < )] . 0;", "1:11", "expected an expression"),
    ("run [(x < 1 and )] . 0;", "1:17", "expected an expression"),
    # sort errors are reported at the start of the ill-sorted operand
    ("run [(1 < 2) + 3 < 4] . 0;", "1:6", "expected an arithmetic expression"),
    ("run a!<true>;", "1:8", "expected an arithmetic expression"),
    ("run [x] . 0;", "1:6", "expected a condition"),
])
def test_expression_errors_name_the_faulty_token(bad, where, msg):
    with pytest.raises(ParseError) as e:
        parse(bad)
    assert str(e.value) == f"{where}: {msg}"


@pytest.mark.parametrize("bad, msg", [
    ("run a!<1e400>;", "1:8: number 1e400 is not finite"),
    ("run a!<-1e400>;", "1:9: number 1e400 is not finite"),
    ("const k = 1e309;\nrun a!<k>;", "1:11: number 1e309 is not finite"),
    ("run {0 | x' = 1 & x < 1.5e999};", "1:23: number 1.5e999 is not finite"),
])
def test_non_finite_number_is_refused_where_it_is_written(bad, msg):
    with pytest.raises(ParseError) as e:
        parse(bad)
    assert str(e.value) == msg


def test_non_finite_constants_print_without_crashing():
    # the parser never builds them; a term built directly still prints
    (out, _), = parse_term("c!<1>").branches
    for value, text in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
        p = Sum(((Output(out.chan, (Const(value), Op("-", (Const(1.0), Const(value))))), NIL),))
        shown = f"({text})" if value < 0 else text
        assert pretty(p) == f"c!<{text}, 1 - {shown}>"


def test_nesting_is_bounded_at_parse_time():
    # the root is level 1 and each sum, parallel, new or repl adds one (a!<>
    # is two: a sum and its 0); a definition instance, its sums deferred,
    # nests as its body
    assert depth(parse_term("tau . " * (MAX_DEPTH - 1) + "0")) == MAX_DEPTH
    assert depth(parse_term("a!<> || " * (MAX_DEPTH - 2) + "0")) == MAX_DEPTH
    deep = "def f = " + "tau . " * MAX_DEPTH + "0;"
    for text, prelude in [("tau . " * MAX_DEPTH + "0", ""), ("a!<> || " * (MAX_DEPTH - 1) + "0", ""), ("f", deep)]:
        with pytest.raises(ParseError, match=f"^2:1: process nested {MAX_DEPTH + 1} levels deep; at most {MAX_DEPTH} are allowed$"):
            parse_term(text, prelude=prelude)
