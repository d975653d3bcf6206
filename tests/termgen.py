"""Random generation of small discrete terms, as surface-syntax strings.

Terms stay within the discrete fragment (no continuous cells) so they can
feed the bounded LTS construction.  Values are drawn from {0, 1} and
channels from a small fixed pool; received variables may appear in guards
and payloads but never in channel position.  In replication mode
(``repl=True``) a term may also be one of three replications: a factory,
whose body holds replications under a prefix; a plain loop, whose body
holds none; and a self-synchronising copy, whose body both sends and
receives on one channel.  Without it the term stream is as it was.
"""

import random


class TermGen:
    def __init__(self, rng: random.Random, chans=("a", "b"), repl: bool = False):
        self.rng = rng
        self.chans = chans
        self.counter = 0
        self.repl = repl

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def value(self, bound):
        pool = ["0", "1"] + list(bound)
        return self.rng.choice(pool)

    def prefix(self, bound):
        """Returns (prefix text, names bound by it)."""
        roll = self.rng.random()
        if roll < 0.3:
            return "tau", ()
        c = self.rng.choice(self.chans)
        if roll < 0.55:
            v = self.fresh("v")
            return f"{c}({v})", (v,)
        if roll < 0.8:
            return f"{c}!<{self.value(bound)}>", ()
        op = self.rng.choice(["<", "<=", ">", ">="])
        return f"[{self.value(bound)} {op} {self.value(bound)}]", ()

    def sum(self, budget: int, bound) -> str:
        k = 2 if budget >= 2 and self.rng.random() < 0.4 else 1
        branches = []
        for _ in range(k):
            pi, extra = self.prefix(bound)
            cont = self.term(budget - k, bound + extra)
            branches.append(pi if cont == "0" else f"{pi} . ({cont})")
        return " + ".join(branches)

    def replication(self, budget: int, bound) -> str:
        kind = self.rng.choice(("factory", "loop", "self-sync"))
        if kind == "factory":
            pi, extra = self.prefix(bound)
            inner = self.replication(budget - 2, bound + extra) if budget > 2 else "repl 0"
            rest = self.term(budget - 2, bound + extra)
            return f"(repl ({pi} . ({inner} || {rest})))"
        if kind == "loop":
            self.repl = False
            body = self.sum(budget, bound)
            self.repl = True
            return f"(repl ({body}))"
        c = self.rng.choice(self.chans)
        v = self.fresh("v")
        cont = self.term(budget - 2, bound + (v,))
        return f"(repl ({c}!<{self.value(bound)}> || {c}({v}) . ({cont})))"

    def term(self, budget: int, bound=()) -> str:
        if self.repl and budget > 0 and self.rng.random() < 0.25:
            return self.replication(budget, bound)
        if budget <= 0 or self.rng.random() < 0.15:
            return "0"
        roll = self.rng.random()
        if roll < 0.6:
            return self.sum(budget, bound)
        if roll < 0.85:
            left = self.term(budget // 2, bound)
            right = self.term(budget - budget // 2, bound)
            return f"({left} || {right})"
        n = self.fresh("n")
        old = self.chans
        self.chans = old + (n,)
        body = self.term(budget - 1, bound)
        self.chans = old
        return f"(new {n} . ({body}))"


def random_terms(seed: int, count: int, budget: int = 4, chans=("a", "b"), repl: bool = False):
    gen = TermGen(random.Random(seed), chans, repl)
    return [gen.term(budget) for _ in range(count)]
