"""Every trusted construction is checked in Tier-1.

The library builds most of its Σ-sets, diagrams, units and symmetric
products itself, through private constructors that skip the relation
checks the public constructors run (`SigmaSet._built`,
`TruncatedISet._built` and `_derived`, `ISetMorphism._built`,
`CommMonoidPresentation._built`).  The autouse fixture below wraps each
of them: the object is built as shipped, then checked in full, and the
trusted-built object is returned.  So every test runs the shipped path
and still validates every object it builds.  The same wrappers are in
place while the test modules are collected, for the objects their
parameter lists build.

A test marked `unchecked_construction` runs without the wrappers; it is
how a test sees what the shipped path costs.
"""

import functools

import pytest

from tamebox.iset import ISetMorphism, TruncatedISet
from tamebox.opalg import CommMonoidPresentation
from tamebox.sigma import SigmaSet

# (class, private constructor, the full check of what it built from the
# receiver, the class or the diagram it was called on)
TRUSTED = [
    (SigmaSet, "_built",
     lambda out, cls: SigmaSet(out.m, out.points, out.transpositions)),
    (TruncatedISet, "_built", lambda out, cls: out._check(0, out.N)),
    # a derived diagram adds the levels above those it shares
    (TruncatedISet, "_derived",
     lambda out, X: out._check(min(out.N, X.N) + 1, out.N)),
    (ISetMorphism, "_built",
     lambda out, cls: ISetMorphism(out.source, out.target, out.maps)),
    (CommMonoidPresentation, "_built",
     lambda out, cls: CommMonoidPresentation(
         out.carrier, out.unit_point, out.table, out.level_cap)),
]


def checked(constructor, check):
    """The constructor, a function or a classmethod, made to check what
    it builds before returning it."""
    shipped = getattr(constructor, "__func__", constructor)

    @functools.wraps(shipped)
    def build(receiver, *args, **kwargs):
        out = shipped(receiver, *args, **kwargs)
        check(out, receiver)
        return out

    return classmethod(build) if constructor is not shipped else build


def check_trusted(monkeypatch):
    for cls, name, check in TRUSTED:
        monkeypatch.setattr(cls, name, checked(cls.__dict__[name], check))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "unchecked_construction: run the library's trusted constructors "
        "without the checks the autouse fixture adds")


@pytest.hookimpl(hookwrapper=True)
def pytest_collection(session):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_trusted(monkeypatch)
        yield


@pytest.fixture(autouse=True)
def checked_construction(request, monkeypatch):
    if not request.node.get_closest_marker("unchecked_construction"):
        check_trusted(monkeypatch)
