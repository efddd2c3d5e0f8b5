"""Command line: document-driven access to every operation plus the
seeded self-test harness.

Every command prints one JSON report to stdout and exits 0 when the
command passed or produced a value, 1 when a checked law failed, and 2
on input errors.  With --deterministic the report carries no timing
field, so identical inputs give byte-identical reports.

The sub-commands form one table, `COMMANDS`, in `--help` order: the
`@command` decorator enters each handler `(args, report) -> exit code`,
which fills the report, with its name, help and argument specs.
`build_parser` builds the parser from the table once, on first use.
Each spec says how its argument is read: `main` reads them all for the
handler, through `documents`, and hashes them into the report's
`inputs`; a handler never parses.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from typing import Callable, NamedTuple

from . import documents as docs
from .errors import DegreeTooLarge, ParseError, TameboxError, ValidationError
from .iset import (
    canonicalize,
    day_convolution,
    flat_replacement,
    is_flat,
    n_iso_check,
)
from .mset import DEFAULT_DEGREE_BOUND, box, decompose_table, mset_iso_equal
from .opalg import (
    CommMonoidPresentation,
    algebra_table,
    certify_agreement,
    infinite_symmetric_product,
    monoid_to_algebra,
    operadic_to_box,
    verify_certificate,
    wedge_iso,
)
from .sigma import point_key


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _emit(report, deterministic, started):
    if not deterministic:
        report["elapsedMs"] = int((time.monotonic() - started) * 1000)
    sys.stdout.write(docs.canonical_json(report) + "\n")


def _verdict(report, ok):
    report["outcome"] = "pass" if ok else "fail"
    return 0 if ok else 1


class Command(NamedTuple):
    name: str
    help: str
    arguments: tuple  # arg(...) specs
    handler: Callable  # (args, report) -> exit code


class Arg(NamedTuple):
    flags: tuple
    kwargs: dict  # for argparse's add_argument
    minimum: int | None
    read: object  # a tuple of document kinds, a shape, PLAIN or OUTPUT


# the value as given, or no input: output only.  A shape of `documents`
# reads inline JSON (or @file).
PLAIN, OUTPUT = "plain", "output"

COMMANDS = []


def arg(*flags, minimum=None, read=PLAIN, **kwargs):
    """An argument spec.  Every integer one but `--seed` declares its
    least value; `main` rejects a smaller value as an input error."""
    return Arg(flags, kwargs, minimum, read)


GLOBAL_ARGUMENTS = (
    arg("--window", type=int, default=8, minimum=0),
    arg("--degree-bound", type=int, default=DEFAULT_DEGREE_BOUND, minimum=0),
    arg("--level-bound", type=int, default=6, minimum=0),
    arg("--deterministic", action="store_true", read=OUTPUT,
        help="omit timing so reports are byte-stable"),
)


def command(name, help, *arguments):
    """Add the decorated handler to `COMMANDS` under `name`."""

    def register(handler):
        COMMANDS.append(Command(name, help, arguments, handler))
        return handler

    return register


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="tamebox",
        description="exact calculus of finitely supported injection actions",
    )
    specs = _add_arguments(parser, GLOBAL_ARGUMENTS)
    sub = parser.add_subparsers(dest="command")
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(handler=cmd.handler,
                       specs=specs + _add_arguments(p, cmd.arguments))
    return parser


def _add_arguments(parser, arguments):
    """Add the specs to the parser; return their (action, spec) pairs."""
    return [(parser.add_argument(*spec.flags, **spec.kwargs), spec)
            for spec in arguments]


def _read_arguments(args):
    """Check and read the arguments in declaration order, each value read
    back on `args`: a document as a `Document`, inline JSON as its
    shape's reader returns it.  Return the inputs by dest: a document's
    payload, inline JSON as parsed, a plain value, or None when
    omitted."""
    given = {}
    for action, spec in args.specs:
        if spec.read is OUTPUT:
            continue
        value = given[action.dest] = getattr(args, action.dest)
        if value is None:
            continue
        if type(spec.read) is tuple:  # document kinds
            value = docs.parse_document(_read(value), spec.read, value)
            given[action.dest] = value.payload
        elif spec.read is not PLAIN:  # a shape: inline JSON, or @file
            flag = action.option_strings[0]
            raw = given[action.dest] = (
                docs.load_json(_read(value[1:]), value[1:])
                if value.startswith("@") else docs.load_json(value, flag))
            value = docs.reader(spec.read)(raw, flag)
        elif spec.minimum is not None and value < spec.minimum:
            raise ValidationError(f"at least {spec.minimum}",
                                  f"{action.option_strings[0]}={value}")
        setattr(args, action.dest, value)
    return given


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    started = time.monotonic()
    report = {"command": args.command, "inputs": "", "outcome": "value"}
    try:
        given = docs.canonical_json(_read_arguments(args))
        report["inputs"] = hashlib.sha256(given.encode("utf-8")).hexdigest()
        code = args.handler(args, report)
        _emit(report, args.deterministic, started)
        return code
    except TameboxError as e:
        # drop what the handler wrote: it may be what failed to encode
        report = {"command": args.command, "inputs": report["inputs"],
                  "outcome": "error",
                  "error": {"type": type(e).__name__, "message": str(e)}}
    _emit(report, args.deterministic, started)
    return 2


@command("support", "support of an element",
         arg("--element", required=True, read=docs.ELEMENT))
def _support(args, report):
    report["value"] = sorted(docs.element(args.element).image)
    return 0


@command("act", "apply an injection to an element",
         arg("injection", read=("partial-injection", "qa-injection")),
         arg("mset", read=("mset",)),
         arg("--element", required=True, read=docs.ELEMENT))
def _act(args, report):
    X = args.mset.value
    x = docs.element(args.element, X)
    report["value"] = docs.encode_element(X.act(args.injection.value, x))
    return 0


@command("box", "box product of two canonical actions",
         arg("left", read=("mset",)), arg("right", read=("mset",)))
def _box(args, report):
    out = box(args.left.value, args.right.value, args.degree_bound)
    report["value"] = docs.encode_document("mset", out)
    return 0


@command("decompose", "window round trip of an action",
         arg("mset", read=("mset",)))
def _decompose(args, report):
    X = args.mset.value
    out = decompose_table(X, args.window, degree_bound=args.degree_bound)
    agrees = mset_iso_equal(out, X)
    report["value"] = docs.encode_document("mset", out)
    return _verdict(report, agrees)


@command("flat-check", "flatness of a truncated diagram",
         arg("iset", read=("iset",)),
         arg("--mode", choices=("latching", "direct", "both"), default="both"))
def _flat_check(args, report):
    out = is_flat(args.iset.value, args.mode)
    if out.witness is not None:
        report["counterexample"] = repr(out.witness)
    return _verdict(report, out.flat)


@command("flatten", "flat replacement with its unit",
         arg("iset", read=("iset",)))
def _flatten(args, report):
    _, eta = flat_replacement(args.iset.value, args.degree_bound)
    unit = docs.MORPHISM.encode(eta)
    report["value"] = {
        "flat": unit["target"],  # the unit's target is the replacement
        "unit": unit,
        "unitLevelwiseBijective": eta.level_bijective(),
    }
    return 0


@command("day", "convolution of two truncated diagrams",
         arg("left", read=("iset",)), arg("right", read=("iset",)))
def _day(args, report):
    out = day_convolution(args.left.value, args.right.value)
    report["value"] = docs.encode_document("iset", out)
    return 0


@command("canonicalize", "canonical action of the colimit",
         arg("iset", read=("iset",)))
def _canonicalize(args, report):
    out = canonicalize(args.iset.value, args.degree_bound)
    report["value"] = docs.encode_document("mset", out)
    return 0


@command("n-iso", "does a morphism induce a colimit bijection",
         arg("morphism", read=("morphism",)))
def _n_iso(args, report):
    return _verdict(report, n_iso_check(args.morphism.value))


@command("sum", "sum of two disjointly supported elements",
         arg("monoid", read=("monoid",)),
         arg("--x", required=True, read=docs.ELEMENT),
         arg("--y", required=True, read=docs.ELEMENT))
def _sum(args, report):
    P = args.monoid.value
    x, y = (docs.element(e, P.carrier) for e in (args.x, args.y))
    report["value"] = docs.encode_element(P.add(x, y))
    return 0


@command("operad-act", "derived operadic action",
         arg("monoid", read=("monoid",)),
         arg("operad", read=("operad-element",)),
         arg("--args", required=True, read=[docs.ELEMENT],
             help="JSON list of elements (or @file)"))
def _operad_act(args, report):
    P = args.monoid.value
    elements = [docs.element(fields, P.carrier) for fields in args.args]
    A = monoid_to_algebra(P)
    report["value"] = docs.encode_element(A(args.operad.value, elements))
    return 0


@command("to-algebra", "derive the algebra of a monoid",
         arg("monoid", read=("monoid",)))
def _to_algebra(args, report):
    monoid_to_algebra(args.monoid.value)
    report["outcome"] = "pass"
    report["value"] = {"algebraOf": args.monoid.payload}
    return 0


@command("to-monoid", "read the monoid back off the algebra",
         arg("monoid", read=("monoid",)))
def _to_monoid(args, report):
    P = args.monoid.value
    A = monoid_to_algebra(P)
    unit, table = algebra_table(A)
    same = table == P.table and unit == P.unit_point
    # P was validated on loading, and A keeps its carrier and cap
    back = P if same else CommMonoidPresentation(A.carrier, unit, table,
                                                 A.level_cap)
    report["value"] = docs.encode_document("monoid", back)
    return _verdict(report, same)


@command("a3", "certify two agreeing operad elements",
         arg("--phi", required=True, read=("operad-element",)),
         arg("--psi", required=True, read=("operad-element",)),
         arg("--constraints", required=True, read=[[int]],
             help="JSON list of integer lists (or @file)"),
         arg("--emit", read=OUTPUT,
             help="write the certificate document here"))
def _a3(args, report):
    constraints = [set(A) for A in args.constraints]
    # certify_agreement has verified the chain; it raises if that fails
    cert = certify_agreement(args.phi.value, args.psi.value, constraints)
    if args.emit:
        # encoded before the file is opened: a failure leaves no file
        text = docs.serialize_document("certificate", cert) + "\n"
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ValidationError(f"a writable path ({e.strerror})",
                                  f"--emit={args.emit}") from None
    report["outcome"] = "pass"
    report["value"] = {"chainLength": len(cert)}
    return 0


@command("verify-cert", "verify a certificate",
         arg("certificate", read=("certificate",)),
         arg("--phi", read=("operad-element",)),
         arg("--psi", read=("operad-element",)))
def _verify_cert(args, report):
    phi, psi = (e.value if e else None for e in (args.phi, args.psi))
    ok, at, reason = verify_certificate(args.certificate.value, phi, psi)
    if not ok:
        report["counterexample"] = {"step": at, "reason": reason}
    return _verdict(report, ok)


@command("chi", "operadic pairing into the box product",
         arg("operad", read=("operad-element",)),
         arg("left", read=("mset",)), arg("right", read=("mset",)),
         arg("--x", required=True, read=docs.ELEMENT),
         arg("--y", required=True, read=docs.ELEMENT))
def _chi(args, report):
    X, Y = args.left.value, args.right.value
    x, y = docs.element(args.x, X), docs.element(args.y, Y)
    fx, fy = operadic_to_box(X, Y, args.operad.value, x, y)
    report["value"] = {"first": docs.encode_element(fx),
                       "second": docs.encode_element(fy)}
    return 0


def _level(args):
    """`--level`, or else `--level-bound`; every level up to it is built,
    each doubling the cost, so it is refused past the degree bound."""
    level = args.level if args.level is not None else args.level_bound
    if level > args.degree_bound:
        raise DegreeTooLarge(f"level {level} beyond the degree bound")
    return level


@command("xinf", "symmetric-product monoid of a pointed set",
         arg("--points", type=int, required=True, minimum=1),
         arg("--level", type=int, minimum=0))
def _xinf(args, report):
    level = _level(args)
    points = ["*"] + [f"a{i}" for i in range(1, args.points)]
    P = infinite_symmetric_product(points, "*", level)
    report["value"] = docs.encode_document("monoid", P)
    return 0


@command("wedge-iso", "wedge against the box of products",
         arg("--x", type=int, default=2, minimum=1),
         arg("--y", type=int, default=3, minimum=1),
         arg("--level", type=int, minimum=0))
def _wedge_iso(args, report):
    level = _level(args)
    xs = ["*"] + [f"a{i}" for i in range(1, args.x)]
    ys = ["*"] + [f"b{i}" for i in range(1, args.y)]
    maps, ok = wedge_iso(xs, "*", ys, "*", level)
    report["value"] = {str(k): len(v) for k, v in sorted(maps.items())}
    return _verdict(report, ok)


@command("orbit-set", "orbits of a canonical action",
         arg("mset", read=("mset",)))
def _orbit_set(args, report):
    orbits = args.mset.value.orbit_set()
    report["value"] = [
        [m, docs.point_name(p)]
        for m, p in sorted(orbits, key=lambda mp: (mp[0], point_key(mp[1])))
    ]
    return 0


@command("selftest", "run every law suite",
         arg("--seed", type=int, default=0),
         arg("--cases", type=int, minimum=1))
def _selftest(args, report):
    # imported here, so that the document commands load no law suites
    from .selftest import run_selftest

    result = run_selftest(seed=args.seed, cases=args.cases, window=args.window,
                          degree_bound=args.degree_bound,
                          include_timing=not args.deterministic)
    report["value"] = result
    return _verdict(report, all(not s["failures"] for s in result["suites"]))


if __name__ == "__main__":
    sys.exit(main())
