from hybridpi.syntax import Continuous, Input, Output, Parallel, Replication, Sum, Tau, constructs
from hybridpi.parser import parse_term


def test_constructs_reach_continuations_and_replication_bodies():
    p = parse_term("a() . repl (tau . b!<>) || {0 | x' = 1 & x < 1}")
    assert constructs(p) == {Parallel, Sum, Input, Replication, Tau, Output, Continuous}
    assert constructs(p) is constructs(p)  # memoised on the node
    assert Replication not in constructs(parse_term("repl a() . b!<>").body)
