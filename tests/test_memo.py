import dataclasses
import gc
import weakref

from hybridpi.kernel import discrete_transitions
from hybridpi.parser import parse_term
from hybridpi.syntax import Sum, free_names, refresh


def test_enumerated_replication_is_collectable():
    # the memoised enumeration holds targets Parallel(copy, p) that point
    # back at p; the cycle must not keep p alive once the caller drops it
    p = refresh(parse_term("repl a(x) . b!<x>"))
    enum = discrete_transitions(p)
    assert enum.transitions
    wr = weakref.ref(p)
    del p, enum
    gc.collect()
    assert wr() is None


def test_memo_is_invisible_to_equality_hash_repr_and_replace():
    p = parse_term("a(x) . b!<x>")
    q = Sum(p.branches, p.tag)
    free_names(p)
    discrete_transitions(p)
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    r = dataclasses.replace(p)
    assert r == p and vars(r).keys() == vars(q).keys()
