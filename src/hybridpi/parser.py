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
             | '[' bool ']' | continuous
    continuous := '{' exprs '|' odes ('&' bool)? (';' 'ready'? items)? '}'
                  ('(' names ')')?
    binder-form := 'new' names '.' process | 'repl' process
                 | 'mu' name ('(' names ')')? ('@' '<' exprs '>')? '.' process

`mu x(y1,...) @ <e1,...> . P` expands to `new x . (x!<e1,...> || repl x(y1,...).P)`.
Binder-form bodies extend as far right as possible; parenthesize to cut them
short.  Bool operators are spelled `and`, `or`, `not`, with comparisons
`< <= > >= == !=` between arithmetic expressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    ARITY,
    BAnd,
    BFalse,
    BNot,
    BoolExpr,
    Const,
    Continuous,
    Expr,
    Guard,
    HpiError,
    Input,
    Less,
    Name,
    NIL,
    Op,
    Output,
    Parallel,
    Prefix,
    Process,
    Replication,
    Restriction,
    Substitution,
    Sum,
    Tau,
    Var,
    b_eq,
    b_ge,
    b_gt,
    b_le,
    b_ne,
    b_or,
    b_true,
    free_names,
    fresh,
    is_nil,
    refresh,
)


class ParseError(HpiError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


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
        t = self.next()
        if t.text == "new":
            self.scope.append({})
            ns = self.comma_list(self.binder)
            self.eat(".")
            body = self.parse_process()
            self.scope.pop()
            for n in reversed(ns):
                body = Restriction(n, body)
            return body
        if t.text == "repl":
            return Replication(self.parse_process())
        # mu name (params)? (@ <exprs>)? . process
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
            start = self.comma_list(self.parse_expr, ">")
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
            args = self.comma_list(self.parse_expr, ")")
            self.eat(")")
        params, body = self.defs[nm.text]
        if len(args) != len(params):
            raise ParseError(
                f"{nm.text} expects {len(params)} argument(s), got {len(args)}", nm.line, nm.col
            )
        self.inst[0] += 1
        try:
            inst = refresh(body, f"@{self.inst[0]}", Substitution(zip(params, args)))
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
            b = self.parse_bool()
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
                payload = self.comma_list(self.parse_expr, ">")
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
        init = self.comma_list(self.parse_expr)
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
            fields.append(self.parse_expr())

        def ready_item():
            nm = self.ident()
            n = self.resolve(nm.text)
            if n not in vars_:
                raise ParseError(f"ready item {nm.text!r} is not an ODE variable", nm.line, nm.col)
            if self.at("!") or self.at("?"):
                return n, self.next().text == "!"
            self.fail("ready item needs ! (sense) or ? (actuate)")

        self.comma_list(ode)
        boundary = b_true()
        if self.at("&"):
            self.next()
            boundary = self.parse_bool()
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
        if len(init) != len(vars_):
            raise ParseError(
                f"continuous prefix has {len(init)} initial value(s) for {len(vars_)} variable(s)",
                t.line,
                t.col,
            )
        if binders and len(binders) != len(vars_):
            raise ParseError(
                f"continuous prefix binds {len(binders)} name(s) for {len(vars_)} variable(s)",
                t.line,
                t.col,
            )
        try:
            return Continuous(
                tuple(init), tuple(vars_), tuple(fields), boundary, frozenset(items), tuple(binders)
            )
        except ValueError as e:
            raise ParseError(str(e), t.line, t.col) from None

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            op = self.next().text
            e = Op(op, (e, self.parse_term()))
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            e = Op(op, (e, self.parse_factor()))
        return e

    def parse_factor(self) -> Expr:
        t = self.peek()
        if t.text == "-":
            self.next()
            inner = self.parse_factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Op("neg", (inner,))
        if t.kind == "num":
            self.next()
            return Const(float(t.text))
        if t.text == "(":
            self.next()
            e = self.parse_expr()
            self.eat(")")
            return e
        if t.kind == "ident" and t.text in FUNCS:
            self.next()
            self.eat("(")
            args = self.comma_list(self.parse_expr)
            self.eat(")")
            want = ARITY[t.text]
            if len(args) != want:
                raise ParseError(f"{t.text} takes {want} argument(s)", t.line, t.col)
            return Op(t.text, tuple(args))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            c = None
            if self.lookup(t.text) is None:
                c = self.consts.get(t.text)
            if c is not None:
                return Const(c)
            return Var(self.resolve(t.text))
        self.fail("expected an expression")

    # -- booleans -----------------------------------------------------------

    def parse_bool(self) -> BoolExpr:
        b = self.parse_band()
        while self.at("or"):
            self.next()
            b = b_or(b, self.parse_band())
        return b

    def parse_band(self) -> BoolExpr:
        b = self.parse_bnot()
        while self.at("and"):
            self.next()
            b = BAnd(b, self.parse_bnot())
        return b

    def parse_bnot(self) -> BoolExpr:
        if self.at("not"):
            self.next()
            return BNot(self.parse_bnot())
        return self.parse_batom()

    def parse_batom(self) -> BoolExpr:
        t = self.peek()
        if t.text == "true":
            self.next()
            return b_true()
        if t.text == "false":
            self.next()
            return BFalse()
        if t.text == "(":
            save = self.i
            self.next()
            try:
                b = self.parse_bool()
                self.eat(")")
                return b
            except ParseError:
                self.i = save  # parenthesized arithmetic; fall through
        return self.parse_comparison()

    def parse_comparison(self) -> BoolExpr:
        lhs = self.parse_expr()
        t = self.peek()
        ops = {"<": None, "<=": b_le, ">": b_gt, ">=": b_ge, "==": b_eq, "!=": b_ne}
        if t.text not in ops:
            self.fail("expected a comparison operator")
        self.next()
        rhs = self.parse_expr()
        if t.text == "<":
            return Less(lhs, rhs)
        return ops[t.text](lhs, rhs)


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

    # expressions, with precedence: 0 add, 1 mul, 2 atom
    def expr(self, e: Expr, prec: int = 0) -> str:
        if isinstance(e, Const):
            v = e.value
            if v == int(v) and abs(v) < 1e16:
                s = str(int(v))
            else:
                s = f"{v:.17g}"
            if v < 0 and prec > 0:
                return f"({s})"
            return s
        if isinstance(e, Var):
            return self.name(e.name)
        if e.op in ("+", "-"):
            s = f"{self.expr(e.args[0], 0)} {e.op} {self.expr(e.args[1], 1)}"
            return f"({s})" if prec > 0 else s
        if e.op in ("*", "/"):
            s = f"{self.expr(e.args[0], 1)} {e.op} {self.expr(e.args[1], 2)}"
            return f"({s})" if prec > 1 else s
        if e.op == "neg":
            return f"-{self.expr(e.args[0], 2)}"
        return f"{e.op}({', '.join(self.expr(a) for a in e.args)})"

    def bool(self, b: BoolExpr, prec: int = 0) -> str:
        # sugar recognizers, outermost first
        if isinstance(b, BNot):
            a = b.arg
            if isinstance(a, BFalse):
                return "true"
            if isinstance(a, Less):
                return self._cmp(a.rhs, "<=", a.lhs)
            if isinstance(a, BAnd) and isinstance(a.lhs, BNot) and isinstance(a.rhs, BNot):
                s = f"{self.bool(a.lhs.arg, 1)} or {self.bool(a.rhs.arg, 1)}"
                return f"({s})" if prec > 0 else s
            return f"not {self.bool(a, 2)}"
        if isinstance(b, BFalse):
            return "false"
        if isinstance(b, Less):
            return self._cmp(b.lhs, "<", b.rhs)
        eq = self._match_eq(b)
        if eq is not None:
            return self._cmp(eq[0], "==", eq[1])
        s = f"{self.bool(b.lhs, 2)} and {self.bool(b.rhs, 2)}"
        return f"({s})" if prec > 1 else s

    def _cmp(self, l: Expr, op: str, r: Expr) -> str:
        return f"{self.expr(l)} {op} {self.expr(r)}"

    def _match_eq(self, b: BAnd):
        l, r = b.lhs, b.rhs
        if (
            isinstance(l, BNot)
            and isinstance(l.arg, Less)
            and isinstance(r, BNot)
            and isinstance(r.arg, Less)
            and l.arg.lhs == r.arg.rhs
            and l.arg.rhs == r.arg.lhs
        ):
            return (l.arg.lhs, l.arg.rhs)
        return None

    def prefix(self, pi: Prefix) -> str:
        if isinstance(pi, Tau):
            return "tau"
        if isinstance(pi, Input):
            return f"{self.name(pi.chan)}({', '.join(self.name(n) for n in pi.binders)})"
        if isinstance(pi, Output):
            return f"{self.name(pi.chan)}!<{', '.join(self.expr(e) for e in pi.payload)}>"
        if isinstance(pi, Guard):
            return f"[{self.bool(pi.cond)}]"
        init = ", ".join(self.expr(e) for e in pi.init)
        odes = ", ".join(f"{self.name(v)}' = {self.expr(f)}" for v, f in zip(pi.vars, pi.fields))
        s = f"{{{init} | {odes}"
        if not (isinstance(pi.boundary, BNot) and isinstance(pi.boundary.arg, BFalse)):
            s += f" & {self.bool(pi.boundary)}"
        if pi.ready:
            items = sorted(pi.ready, key=lambda it: (self.name(it[0]), it[1]))
            s += " ; ready " + ", ".join(f"{self.name(n)}{'!' if pol else '?'}" for n, pol in items)
        s += "}"
        if pi.binders:
            s += f"({', '.join(self.name(n) for n in pi.binders)})"
        return s

    def process(self, p: Process, level: int = 0) -> str:
        # level: 0 = parallel context, 1 = sum context, 2 = chain context
        if isinstance(p, Parallel):
            # keep a right-nested parallel parenthesized so reparsing
            # restores the same association
            rlev = 1 if isinstance(p.right, Parallel) else 0
            s = f"{self.process(p.left, 1)} || {self.process(p.right, rlev)}"
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
