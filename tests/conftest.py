"""Every trusted construction is checked in Tier-1.

The library builds most of its Σ-sets, diagrams, units and symmetric
products, and the quasi-affine injections and operad elements of its
certificates, itself, through private constructors that skip the checks
the public constructors run (`SigmaSet._built`, `TruncatedISet._built`
and `_derived`, `ISetMorphism._built`, `CommMonoidPresentation._built`,
`QuasiAffineInjection._built`, `OperadElement._built`).  The autouse
fixture below wraps each of them: the object is built as shipped, then
checked in full, and the trusted-built object is returned.  So every
test runs the shipped path and still validates every object it builds.
The same wrappers are in place while the test modules are collected,
for the objects their parameter lists build.

An injection or an element is checked on the arguments of the call:
the public constructor runs on them and must give what `_built` gave.
The public constructor of an injection reads rows only, so the spans
are checked as the rows `rows_of` writes for them.  The normal form of
spans that describe no injection can look valid, so a check of the
output alone would miss a bad build.

A test marked `unchecked_construction` runs without the wrappers; it is
how a test sees what the shipped path costs.
"""

import functools

import pytest

from tamebox.injections import OperadElement, QuasiAffineInjection
from tamebox.iset import ISetMorphism, TruncatedISet
from tamebox.opalg import CommMonoidPresentation
from tamebox.sigma import SigmaSet


def on_output(check):
    """A check of what the call built, given the receiver of the call:
    the class, or the diagram a derived one was built from."""
    def run(build, receiver, *args, **kwargs):
        out = build()
        check(out, receiver)
        return out
    return run


def rows_of(spans):
    """Spans (first, last, mod, v0, step) as the rows the public
    constructor reads, with a and b as integer pairs: a = step/mod and
    b = v0 - a*first."""
    return [(first, last, mod, first % mod, (step, mod),
             (v0 * mod - step * first, mod))
            for first, last, mod, v0, step in spans]


def on_arguments(public, attribute):
    """A check of the arguments of the call: `public` runs on them
    first, and the trusted constructor must build the same."""
    def run(build, receiver, arg):
        expected = getattr(public(arg), attribute)
        out = build()
        if getattr(out, attribute) != expected:
            raise AssertionError(
                f"{type(out).__name__}._built gave "
                f"{getattr(out, attribute)!r}, the public constructor "
                f"{expected!r}")
        return out
    return run


# (class, private constructor, the full check of each call)
TRUSTED = [
    (SigmaSet, "_built", on_output(
        lambda out, cls: SigmaSet(out.m, out.points, out.transpositions))),
    (TruncatedISet, "_built",
     on_output(lambda out, cls: out._check(0, out.N))),
    # a derived diagram adds the levels above those it shares
    (TruncatedISet, "_derived",
     on_output(lambda out, X: out._check(min(out.N, X.N) + 1, out.N))),
    (ISetMorphism, "_built", on_output(
        lambda out, cls: ISetMorphism(out.source, out.target, out.maps))),
    (CommMonoidPresentation, "_built", on_output(
        lambda out, cls: CommMonoidPresentation(
            out.carrier, out.unit_point, out.table, out.level_cap))),
    (QuasiAffineInjection, "_built",
     on_arguments(lambda spans: QuasiAffineInjection(rows_of(spans)),
                  "spans")),
    (OperadElement, "_built", on_arguments(OperadElement, "slots")),
]


def checked(constructor, check):
    """The constructor, a function or a classmethod, made to check each
    build: `check(build, receiver, *args, **kwargs)` gets the receiver
    and the arguments of the call and `build`, which runs the shipped
    constructor on them, and returns what it built once checked."""
    shipped = getattr(constructor, "__func__", constructor)

    @functools.wraps(shipped)
    def build(receiver, *args, **kwargs):
        return check(lambda: shipped(receiver, *args, **kwargs),
                     receiver, *args, **kwargs)

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
