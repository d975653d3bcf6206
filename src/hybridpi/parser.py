"""Surface syntax: tokenizer, recursive-descent parser, pretty-printer.

Model files have three section kinds:

    const NAME = REAL;
    def NAME(p1, ...) = PROCESS;
    run PROCESS;

Process grammar (`#` starts a line comment):

    process := sum ('||' sum)*
    sum     := branch ('+' branch)* | '0'
    branch  := prefix ('.' chain)? | binder-form | '(' process ')' | call
    chain   := branch with binder-form bodies extending maximally right
    prefix  := 'tau' | name '(' names ')' | name '!' '<' exprs '>'
             | '[' cond ']' | continuous
    continuous := '{' exprs '|' odes ('&' cond)? (';' 'ready'? items)? '}'
                  ('(' names ')')?
    binder-form := 'new' names '.' process | 'repl' process
                 | 'mu' name ('(' names ')')? ('@' '<' exprs '>')? '.' process

`mu x(y1,...) @ <e1,...> . P` expands to `new x . (x!<e1,...> || repl x(y1,...).P)`.
Binder-form bodies extend as far right as possible; parenthesize to cut them
short.

Conditions (`cond`) and arithmetic (`exprs`) are one grammar, read by
precedence climbing over the binding levels of `_INFIX`, which the printer
reads too.  Loosest first: 1 `or`, 2 `and`, 3 the non-associative
comparisons `< <= > >= == !=` and the operand of `not`, 4 `+ -`, 5 `* /`,
6 unary `-`, numbers, names, `min`/`max`/`sqrt` calls, `true`, `false` and
`( ... )`.  `or`, `and` and `not` join conditions, as guards and boundaries
must be; other positions read arithmetic from level 4, so `>` ends a payload.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    ARITY,
    CONNECTIVES,
    Const,
    Continuous,
    Expr,
    Guard,
    HpiError,
    Input,
    MAX_DEPTH,
    Name,
    NIL,
    Op,
    Output,
    Parallel,
    Prefix,
    Process,
    Replication,
    Restriction,
    Sum,
    TRUE,
    Tau,
    Var,
    b_eq,
    b_ge,
    b_gt,
    b_le,
    b_ne,
    b_or,
    depth,
    free_names,
    fresh,
    is_nil,
    refresh,
    restrict,
)


class ParseError(HpiError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg, self.line, self.col = msg, line, col

    def __reduce__(self):  # unpickled from a worker process by these arguments
        return type(self), (self.msg, self.line, self.col)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+|\#[^\n]*)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|\||==|!=|<=|>=|[(){}\[\]<>,.+!?|&;=@'*/-])
    """,
    re.VERBOSE,
)

KEYWORDS = {"const", "def", "run", "new", "repl", "mu", "tau", "ready", "true", "false", "and", "or", "not"}
FUNCS = {"min", "max", "sqrt"}


@dataclass
class Token:
    kind: str  # num | ident | op | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    toks = []
    pos = 0
    line = 1
    bol = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - bol + 1)
        if m.lastgroup == "num" and not math.isfinite(float(m.group())):
            raise ParseError(f"number {m.group()} is not finite", line, m.start() - bol + 1)
        if m.lastgroup != "ws":
            toks.append(Token(m.lastgroup, m.group(), line, m.start() - bol + 1))
        nl = m.group().count("\n")
        if nl:
            line += nl
            bol = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    toks.append(Token("eof", "", line, len(text) - bol + 1))
    return toks


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _binary(op: str):
    return lambda a, b: Op(op, (a, b))


# Each surface infix operator's binding level (higher binds tighter) and the
# term it builds; levels up to _CMP build conditions, the ones above arithmetic.
_INFIX = {
    "or": (1, b_or),
    "and": (2, _binary("and")),
    "<": (3, _binary("<")),
    "<=": (3, b_le),
    ">": (3, b_gt),
    ">=": (3, b_ge),
    "==": (3, b_eq),
    "!=": (3, b_ne),
    **{op: (4, _binary(op)) for op in "+-"},
    **{op: (5, _binary(op)) for op in "*/"},
}
_CMP = _INFIX["<"][0]
_ATOM = max(lv for lv, _ in _INFIX.values()) + 1


def _check_sort(t: Token, e: Expr, cond: bool) -> Expr:
    """e, if it is a condition exactly when `cond`; t is where it starts."""
    if cond != (isinstance(e, Op) and e.op in CONNECTIVES):
        raise ParseError(f"expected {'a condition' if cond else 'an arithmetic expression'}", t.line, t.col)
    return e


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


@dataclass
class ModelFile:
    constants: dict = field(default_factory=dict)  # str -> float
    definitions: dict = field(default_factory=dict)  # str -> (params, body)
    entry: Optional[Process] = None
    names: dict = field(default_factory=dict)  # display -> Name (free names)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, names: Optional[dict] = None):
        self.toks = tokenize(text)
        self.i = 0
        self.consts: dict = {}
        self.defs: dict = {}
        self.names: dict = {} if names is None else names
        self.scope: list = []  # stack of {display: Name}
        self.ctx = "run"
        self.inst = [0]  # definition instantiation counter

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("op", "ident")

    def eat(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.fail("expected an identifier")
        return self.next()

    def comma_list(self, item, close: Optional[str] = None) -> list:
        """Comma-separated items read by `item`; with `close`, the list
        may be empty and then ends before that token."""
        if close is not None and self.at(close):
            return []
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return out

    def binder(self) -> Name:
        return self.bind(self.ident().text)

    # -- name resolution ----------------------------------------------------

    def lookup(self, display: str) -> Optional[Name]:
        for frame in reversed(self.scope):
            n = frame.get(display)
            if n is not None:
                return n
        return None

    def resolve(self, display: str) -> Name:
        n = self.lookup(display)
        if n is not None:
            return n
        n = self.names.get(display)
        if n is None:
            n = fresh(display)
            self.names[display] = n
        return n

    def bind(self, display: str) -> Name:
        n = fresh(display)
        self.scope[-1][display] = n
        return n

    def tag(self, t: Token) -> str:
        return f"{self.ctx}:{t.line}:{t.col}"

    # -- top level ----------------------------------------------------------

    def parse_model(self) -> ModelFile:
        m = ModelFile(names=self.names)
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "const":
                self.next()
                name = self.ident().text
                self.eat("=")
                v = self.parse_signed_number()
                self.eat(";")
                self.consts[name] = v
            elif t.text == "def":
                self.next()
                name = self.ident()
                params = []
                self.scope.append({})
                if self.at("("):
                    self.next()
                    params = self.comma_list(self.binder, ")")
                    self.eat(")")
                self.eat("=")
                old = self.ctx
                self.ctx = name.text
                body = self.parse_process()
                self.ctx = old
                self.scope.pop()
                self.eat(";")
                if name.text in self.defs:
                    raise ParseError(f"duplicate definition {name.text!r}", name.line, name.col)
                self.defs[name.text] = (tuple(params), body)
            elif t.text == "run":
                self.next()
                if m.entry is not None:
                    self.fail("duplicate run section")
                self.scope.append({})
                m.entry = self.parse_process()
                self.scope.pop()
                self.eat(";")
                if depth(m.entry) > MAX_DEPTH:
                    raise ParseError(f"process nested {depth(m.entry)} levels deep; at most {MAX_DEPTH} are allowed", t.line, t.col)
            else:
                self.fail("expected const, def, or run")
        m.constants = dict(self.consts)
        m.definitions = dict(self.defs)
        return m

    def parse_signed_number(self) -> float:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        t = self.peek()
        if t.kind != "num":
            self.fail("expected a number")
        self.next()
        v = float(t.text)
        return -v if neg else v

    # -- processes ----------------------------------------------------------

    def parse_process(self) -> Process:
        p = self.parse_sum()
        while self.at("||"):
            self.next()
            p = Parallel(p, self.parse_sum())
        return p

    def parse_sum(self) -> Process:
        first = self.parse_chain()
        if not (self.at("+") and isinstance(first, Sum)):
            return first
        branches = first.branches
        while self.at("+"):
            t = self.next()
            nxt = self.parse_chain()
            if not isinstance(nxt, Sum):
                raise ParseError("only prefixed terms and 0 may be summands", t.line, t.col)
            branches += nxt.branches
        return Sum(branches, tag=first.tag)

    def parse_binder_form(self) -> Process:
        # a chain of new and repl heads, each over all that follows, costs
        # no frame per head: its innermost body is parsed once and wrapped
        depth = len(self.scope)
        heads = []  # binders of a new, None for a repl
        while self.peek().text in ("new", "repl"):
            if self.next().text == "new":
                self.scope.append({})
                heads.append(self.comma_list(self.binder))
                self.eat(".")
            else:
                heads.append(None)
        if heads:
            body = self.parse_process()
            del self.scope[depth:]  # one scope per new
            for ns in reversed(heads):
                body = Replication(body) if ns is None else restrict(ns, body)
            return body
        # mu name (params)? (@ <exprs>)? . process
        self.next()
        nm = self.ident()
        param_toks: list = []
        if self.at("("):
            self.next()
            param_toks = self.comma_list(self.ident, ")")
            self.eat(")")
        start: list = []  # parsed in the outer scope, before binders exist
        if self.at("@"):
            self.next()
            self.eat("<")
            start = self.comma_list(self.parse_level, ">")
            self.eat(">")
        if len(start) != len(param_toks):
            raise ParseError(
                f"mu {nm.text}: {len(param_toks)} parameter(s) but {len(start)} initial value(s)",
                nm.line,
                nm.col,
            )
        self.eat(".")
        self.scope.append({})
        chan = self.bind(nm.text)
        params = [self.bind(pt.text) for pt in param_toks]
        body = self.parse_process()
        self.scope.pop()
        starter = Sum(((Output(chan, tuple(start)), NIL),), tag=f"{self.ctx}:{nm.line}:mu-call")
        server = Sum(((Input(chan, tuple(params)), body),), tag=f"{self.ctx}:{nm.line}:mu-body")
        return Restriction(chan, Parallel(starter, Replication(server)))

    def parse_chain(self) -> Process:
        """A branch: prefix with an optional dot continuation, or an atom."""
        t = self.peek()
        if t.kind == "num" and t.text == "0":
            self.next()
            return NIL
        if t.text == "(":
            self.next()
            p = self.parse_process()
            self.eat(")")
            return p
        if t.text in ("new", "repl", "mu"):
            return self.parse_binder_form()
        depth = len(self.scope)
        pi = self.try_parse_prefix()
        if pi is None:
            # plain identifier: a definition call
            return self.parse_call()
        cont: Process = NIL
        if self.at("."):
            self.next()
            cont = self.parse_chain()
        while len(self.scope) > depth:
            self.scope.pop()
        return Sum(((pi, cont),), tag=self.tag(t))

    def parse_call(self) -> Process:
        nm = self.ident()
        if nm.text not in self.defs:
            raise ParseError(f"unknown definition {nm.text!r}", nm.line, nm.col)
        args: list = []
        if self.at("("):
            self.next()
            args = self.comma_list(self.parse_level, ")")
            self.eat(")")
        params, body = self.defs[nm.text]
        if len(args) != len(params):
            raise ParseError(
                f"{nm.text} expects {len(params)} argument(s), got {len(args)}", nm.line, nm.col
            )
        self.inst[0] += 1
        try:
            inst = refresh(body, f"@{self.inst[0]}", dict(zip(params, args)))
        except HpiError as e:
            raise ParseError(f"in call to {nm.text}: {e}", nm.line, nm.col) from None
        if self.at("."):
            # call with continuation: graft onto the definition's unique tail
            self.next()
            cont = self.parse_chain()
            try:
                inst = _graft(inst, cont)
            except HpiError as e:
                raise ParseError(f"in call to {nm.text}: {e}", nm.line, nm.col) from None
        return inst

    def try_parse_prefix(self) -> Optional[Prefix]:
        t = self.peek()
        if t.text == "tau":
            self.next()
            return Tau()
        if t.text == "[":
            self.next()
            b = self.parse_level(1, True)
            self.eat("]")
            return Guard(b)
        if t.text == "{":
            return self.parse_continuous()
        if t.kind == "ident" and t.text not in KEYWORDS:
            nxt = self.toks[self.i + 1]
            if nxt.text == "!" and self.toks[self.i + 2].text == "<":
                chan = self.resolve(self.next().text)
                self.next()  # !
                self.eat("<")
                payload = self.comma_list(self.parse_level, ">")
                self.eat(">")
                return Output(chan, tuple(payload))
            if nxt.text == "(" and (t.text not in self.defs or self.lookup(t.text) is not None):
                chan = self.resolve(self.next().text)
                self.next()  # (
                self.scope.append({})
                binders = self.comma_list(self.binder, ")")
                self.eat(")")
                # the frame stays open over the continuation; parse_chain
                # restores the scope depth after parsing it
                return Input(chan, tuple(binders))
        return None

    def parse_continuous(self) -> Continuous:
        t = self.eat("{")
        init = self.comma_list(self.parse_level)
        self.eat("|")
        vars_: list = []
        fields: list = []

        def ode():
            nm = self.ident()
            self.eat("'")
            self.eat("=")
            if nm.text in self.consts:
                raise ParseError(f"ODE variable {nm.text!r} shadows a constant", nm.line, nm.col)
            v = self.resolve(nm.text)
            if v in vars_:
                raise ParseError(f"duplicate ODE variable {nm.text!r}", nm.line, nm.col)
            vars_.append(v)
            fields.append(self.parse_level())

        def ready_item():
            nm = self.ident()
            n = self.resolve(nm.text)
            if n not in vars_:
                raise ParseError(f"ready item {nm.text!r} is not an ODE variable", nm.line, nm.col)
            if self.at("!") or self.at("?"):
                return vars_.index(n), self.next().text == "!"
            self.fail("ready item needs ! (sense) or ? (actuate)")

        self.comma_list(ode)
        boundary = TRUE
        if self.at("&"):
            self.next()
            boundary = self.parse_level(1, True)
        items = set()
        if self.at(";"):
            self.next()
            if self.at("ready"):
                self.next()
            items = set(self.comma_list(ready_item))
        self.eat("}")
        binders: list = []
        if self.at("("):
            self.next()
            self.scope.append({})  # binders scope over the continuation
            binders = self.comma_list(self.binder, ")")
            self.eat(")")
        n = len(vars_)
        if len(init) != n:
            raise ParseError(f"continuous prefix has {len(init)} initial value(s) for {n} variable(s)", t.line, t.col)
        if binders and len(binders) != n:
            raise ParseError(f"continuous prefix binds {len(binders)} name(s) for {n} variable(s)", t.line, t.col)
        return Continuous(tuple(init), tuple(vars_), tuple(fields), boundary, frozenset(items), tuple(binders))

    # -- expressions --------------------------------------------------------

    def parse_level(self, level: int = _CMP + 1, cond: Optional[bool] = False) -> Expr:
        """An expression whose infix operators bind at `level` or tighter and
        that is a condition (True), arithmetic (False, the default) or either."""
        t = self.peek()
        e = self.parse_operand()
        while True:
            lv, build = _INFIX.get(self.peek().text, (0, None))
            if lv < level:
                return e if cond is None else _check_sort(t, e, cond)
            self.next()
            # or/and join conditions; the others take arithmetic operands
            e = build(_check_sort(t, e, lv < _CMP), self.parse_level(lv + 1, lv < _CMP))

    def parse_operand(self) -> Expr:
        t = self.next()
        if t.text == "not":
            return Op("not", (self.parse_level(_CMP, True),))
        if t.text == "-":
            inner = self.parse_level(_ATOM)
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Op("neg", (inner,))
        if t.text == "true":
            return TRUE
        if t.text == "false":
            return Op("false", ())
        if t.kind == "num":
            return Const(float(t.text))
        if t.text == "(":
            e = self.parse_level(1, None)
            self.eat(")")
            return e
        if t.kind == "ident" and t.text in FUNCS:
            self.eat("(")
            args = self.comma_list(self.parse_level)
            self.eat(")")
            want = ARITY[t.text]
            if len(args) != want:
                raise ParseError(f"{t.text} takes {want} argument(s)", t.line, t.col)
            return Op(t.text, tuple(args))
        if t.kind == "ident" and t.text not in KEYWORDS:
            if self.lookup(t.text) is None and t.text in self.consts:
                return Const(self.consts[t.text])
            return Var(self.resolve(t.text))
        raise ParseError("expected an expression", t.line, t.col)


def _graft(p: Process, cont: Process) -> Process:
    """Append `cont` at a definition body's unique inaction tail, so that a
    sequential definition like wait can be used as a derived prefix."""
    if isinstance(p, Sum):
        if len(p.branches) != 1:
            raise HpiError("definition is not sequential; cannot take a continuation")
        pi, c = p.branches[0]
        if is_nil(c):
            return Sum(((pi, cont),), tag=p.tag)
        return Sum(((pi, _graft(c, cont)),), tag=p.tag)
    if isinstance(p, Restriction):
        return Restriction(p.name, _graft(p.body, cont))
    raise HpiError("definition is not sequential; cannot take a continuation")


def parse(text: str, names: Optional[dict] = None) -> ModelFile:
    return _Parser(text, names).parse_model()


def parse_term(text: str, names: Optional[dict] = None, prelude: str = "") -> Process:
    """Parse a bare process expression, with an optional const/def prelude."""
    m = parse(f"{prelude}\nrun {text};", names)
    return m.entry


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


class _Printer:
    def __init__(self):
        self.display: dict = {}  # Name -> str
        self.used: set = set(KEYWORDS) | FUNCS | {"0"}

    def name(self, n: Name) -> str:
        s = self.display.get(n)
        if s is not None:
            return s
        base = n.display or "x"
        s = base
        k = 1
        while s in self.used:
            s = f"{base}_{k}"
            k += 1
        self.used.add(s)
        self.display[n] = s
        return s

    def expr(self, e: Expr, level: int = 1) -> str:
        """e in a context that binds at `level`, by the levels of _INFIX;
        conditions print through the sugar they were most likely spelled in."""
        if isinstance(e, Const):
            v = e.value
            if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
                s = str(int(v))
            else:
                s = f"{v:.17g}"
            return f"({s})" if v < 0 and level > _INFIX["-"][0] else s
        if isinstance(e, Var):
            return self.name(e.name)
        if e.op == "not":
            (a,) = e.args
            if a.op == "false":
                return "true"
            if a.op == "<":
                return self.infix(a.args[1], "<=", a.args[0], level)
            if a.op == "and" and all(x.op == "not" for x in a.args):
                return self.infix(a.args[0].args[0], "or", a.args[1].args[0], level)
            return f"not {self.expr(a, _CMP)}"
        if e.op == "false":
            return "false"
        if e.op == "and":
            l, r = e.args
            # a == b expands to not (a < b) and not (b < a)
            if l.op == r.op == "not" and l.args[0].op == r.args[0].op == "<":
                (lt,), (gt,) = l.args, r.args
                if lt.args == gt.args[::-1]:
                    return self.infix(lt.args[0], "==", lt.args[1], level)
        if e.op in _INFIX:
            return self.infix(e.args[0], e.op, e.args[1], level)
        if e.op == "neg":
            return f"-{self.expr(e.args[0], _ATOM)}"
        return f"{e.op}({', '.join(self.expr(a) for a in e.args)})"

    def infix(self, l: Expr, op: str, r: Expr, level: int) -> str:
        lv = _INFIX[op][0]
        # arithmetic chains print left-associated; conditions parenthesize
        # a nested connective or comparison on either side
        s = f"{self.expr(l, lv if lv > _CMP else lv + 1)} {op} {self.expr(r, lv + 1)}"
        return f"({s})" if lv < level else s

    def prefix(self, pi: Prefix) -> str:
        if isinstance(pi, Tau):
            return "tau"
        if isinstance(pi, Input):
            return f"{self.name(pi.chan)}({', '.join(self.name(n) for n in pi.binders)})"
        if isinstance(pi, Output):
            return f"{self.name(pi.chan)}!<{', '.join(self.expr(e) for e in pi.payload)}>"
        if isinstance(pi, Guard):
            return f"[{self.expr(pi.cond)}]"
        init = ", ".join(self.expr(e) for e in pi.init)
        odes = ", ".join(f"{self.name(v)}' = {self.expr(f)}" for v, f in zip(pi.vars, pi.fields))
        s = f"{{{init} | {odes}"
        if pi.boundary != TRUE:
            s += f" & {self.expr(pi.boundary)}"
        if pi.ready:
            items = sorted((self.name(pi.vars[i]), pol) for i, pol in pi.ready)
            s += " ; ready " + ", ".join(f"{n}{'!' if pol else '?'}" for n, pol in items)
        s += "}"
        if pi.binders:
            s += f"({', '.join(self.name(n) for n in pi.binders)})"
        return s

    def process(self, p: Process, level: int = 0) -> str:
        # level: 0 = parallel context, 1 = sum context, 2 = chain context
        if isinstance(p, Parallel):
            # the left spine prints flat; every component but the last
            # prints in sum context, so a `new` there cannot swallow the
            # next one, and a right-nested parallel stays parenthesized so
            # reparsing restores the same association
            rights = []
            while isinstance(p, Parallel):
                rights.append(p.right)
                p = p.left
            *init, last = [p, *reversed(rights)]
            rlev = 1 if isinstance(last, Parallel) else 0
            s = " || ".join([self.process(q, 1) for q in init] + [self.process(last, rlev)])
            return f"({s})" if level > 0 else s
        if isinstance(p, Sum):
            if not p.branches:
                return "0"
            parts = []
            for pi, cont in p.branches:
                head = self.prefix(pi)
                if is_nil(cont):
                    parts.append(head)
                else:
                    parts.append(f"{head}.{self.process(cont, 2)}")
            s = " + ".join(parts)
            if len(p.branches) > 1 and level > 1:
                return f"({s})"
            return s
        if isinstance(p, Restriction):
            ns = [p.name]
            body = p.body
            while isinstance(body, Restriction):
                ns.append(body.name)
                body = body.body
            s = f"new {', '.join(self.name(n) for n in ns)} . {self.process(body, 0)}"
            return f"({s})" if level > 0 else s
        if isinstance(p, Replication):
            s = f"repl {self.process(p.body, 0)}"
            return f"({s})" if level > 0 else s
        raise TypeError(p)


def pretty(p: Process) -> str:
    pr = _Printer()
    frees = sorted(free_names(p), key=lambda n: n.id)
    for n in frees:
        pr.name(n)  # free names claim their displays first
    return pr.process(p, 0)
