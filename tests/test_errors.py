"""Every workbench error survives pickling: a scenario that fails in an
approx_bisim worker process reaches the caller by pickle, and must arrive
with its type and message (and a parse error with its position)."""

import importlib
import pickle
import pkgutil

import hybridpi
from hybridpi.parser import ParseError
from hybridpi.syntax import HpiError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_round_trips_through_pickle():
    for m in pkgutil.iter_modules(hybridpi.__path__):
        importlib.import_module(f"hybridpi.{m.name}")
    classes = list(_subclasses(HpiError))
    assert ParseError in classes and len(classes) >= 8
    for cls in [HpiError, *classes]:
        e = cls("boom", 3, 7) if issubclass(cls, ParseError) else cls("boom")
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is cls and str(back) == str(e), cls
        if isinstance(e, ParseError):
            assert (back.line, back.col, str(back)) == (3, 7, "3:7: boom")
