"""Command line: document-driven access to every operation plus the
seeded self-test harness.

Every command prints one JSON report to stdout and exits 0 when the
command passed or produced a value, 1 when a checked law failed, and 2
on input errors.  With --deterministic the report carries no timing
field, so identical inputs give byte-identical reports.

The sub-commands form one table, `COMMANDS`, in `--help` order: the
`@command` decorator enters each handler `(args, report) -> exit code`,
which fills the report, with its name, help and argparse argument specs.
`build_parser` builds the parser from the table once, on first use.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Callable, NamedTuple

from . import documents as docs
from .errors import ParseError, TameboxError, ValidationError, WindowTooSmall
from .iset import (
    canonicalize,
    day_convolution,
    flat_replacement,
    is_flat,
    n_iso_check,
)
from .mset import box, decompose_table, mset_iso_equal
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
from .selftest import run_selftest
from .sigma import point_key


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _load(path, *kinds):
    return docs.parse_document(_read(path), kinds, path)


def _inline_json(text):
    if text.startswith("@"):
        text = _read(text[1:]).decode("utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"inline JSON: {e}") from None


def _element_arg(text, carrier):
    return docs.decode_element(_inline_json(text), carrier)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(docs.canonical_json(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


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


COMMANDS = []


def arg(*flags, minimum=None, **kwargs):
    """An argparse argument spec.  Every integer one but `--seed` declares
    its least value; `main` rejects a smaller value as an input error."""
    return flags, kwargs, minimum


GLOBAL_ARGUMENTS = (
    arg("--window", type=int, default=8, minimum=0),
    arg("--degree-bound", type=int, default=7, minimum=0),
    arg("--level-bound", type=int, default=6, minimum=0),
    arg("--deterministic", action="store_true",
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
    minima = _add_arguments(parser, GLOBAL_ARGUMENTS)
    sub = parser.add_subparsers(dest="command")
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(handler=cmd.handler,
                       minima=minima + _add_arguments(p, cmd.arguments))
    return parser


def _add_arguments(parser, arguments):
    """Add the specs to the parser; return their (action, minimum) pairs."""
    return [(parser.add_argument(*flags, **kwargs), minimum)
            for flags, kwargs, minimum in arguments]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    started = time.monotonic()
    report = {"command": args.command, "inputs": "", "outcome": "value"}
    try:
        for action, minimum in args.minima:
            value = getattr(args, action.dest)
            if minimum is not None and value is not None and value < minimum:
                raise ValidationError(f"at least {minimum}",
                                      f"{action.option_strings[0]}={value}")
        code = args.handler(args, report)
    except TameboxError as e:
        report["outcome"] = "error"
        report["error"] = {"type": type(e).__name__, "message": str(e)}
        code = 2
    _emit(report, args.deterministic, started)
    return code


@command("support", "support of an element", arg("--element", required=True))
def _support(args, report):
    payload = _inline_json(args.element)
    x = docs.decode_element(payload)
    report["inputs"] = _digest([payload])
    report["value"] = sorted(x.image)
    return 0


@command("act", "apply an injection to an element",
         arg("injection"), arg("mset"), arg("--element", required=True))
def _act(args, report):
    inj = _load(args.injection, "partial-injection", "qa-injection")
    mset = _load(args.mset, "mset")
    x = _element_arg(args.element, mset.value)
    report["inputs"] = _digest([inj.payload, mset.payload, list(x.image)])
    report["value"] = docs.encode_element(mset.value.act(inj.value, x))
    return 0


@command("box", "box product of two canonical actions",
         arg("left"), arg("right"))
def _box(args, report):
    left = _load(args.left, "mset")
    right = _load(args.right, "mset")
    report["inputs"] = _digest([left.payload, right.payload])
    out = box(left.value, right.value, args.degree_bound)
    report["value"] = docs.encode_document("mset", out)
    return 0


@command("decompose", "window round trip of an action", arg("mset"))
def _decompose(args, report):
    mset = _load(args.mset, "mset")
    report["inputs"] = _digest([mset.payload])
    X = mset.value
    if args.window < 2 * X.max_level:
        raise WindowTooSmall(f"window {args.window} below twice the top "
                             f"level {X.max_level}")
    table = X.elements_up_to(args.window)
    out = decompose_table(table, X.act, args.window,
                          degree_bound=args.degree_bound)
    agrees = mset_iso_equal(out, X)
    report["value"] = docs.encode_document("mset", out)
    return _verdict(report, agrees)


@command("flat-check", "flatness of a truncated diagram", arg("iset"),
         arg("--mode", choices=("latching", "direct", "both"), default="both"))
def _flat_check(args, report):
    iset = _load(args.iset, "iset")
    report["inputs"] = _digest([iset.payload, args.mode])
    out = is_flat(iset.value, args.mode)
    if out.witness is not None:
        report["counterexample"] = repr(out.witness)
    return _verdict(report, out.flat)


@command("flatten", "flat replacement with its unit", arg("iset"))
def _flatten(args, report):
    iset = _load(args.iset, "iset")
    report["inputs"] = _digest([iset.payload])
    _, eta = flat_replacement(iset.value, args.degree_bound)
    unit = docs.MORPHISM.encode(eta)
    report["value"] = {
        "flat": unit["target"],  # the unit's target is the replacement
        "unit": unit,
        "unitLevelwiseBijective": eta.level_bijective(),
    }
    return 0


@command("day", "convolution of two truncated diagrams",
         arg("left"), arg("right"))
def _day(args, report):
    left = _load(args.left, "iset")
    right = _load(args.right, "iset")
    report["inputs"] = _digest([left.payload, right.payload])
    out = day_convolution(left.value, right.value)
    report["value"] = docs.encode_document("iset", out)
    return 0


@command("canonicalize", "canonical action of the colimit", arg("iset"))
def _canonicalize(args, report):
    iset = _load(args.iset, "iset")
    report["inputs"] = _digest([iset.payload])
    out = canonicalize(iset.value, args.degree_bound)
    report["value"] = docs.encode_document("mset", out)
    return 0


@command("n-iso", "does a morphism induce a colimit bijection",
         arg("morphism"))
def _n_iso(args, report):
    morph = _load(args.morphism, "morphism")
    report["inputs"] = _digest([morph.payload])
    return _verdict(report, n_iso_check(morph.value))


@command("sum", "sum of two disjointly supported elements", arg("monoid"),
         arg("--x", required=True), arg("--y", required=True))
def _sum(args, report):
    monoid = _load(args.monoid, "monoid")
    P = monoid.value
    x = _element_arg(args.x, P.carrier)
    y = _element_arg(args.y, P.carrier)
    report["inputs"] = _digest([monoid.payload, list(x.image), list(y.image)])
    report["value"] = docs.encode_element(P.add(x, y))
    return 0


@command("operad-act", "derived operadic action", arg("monoid"),
         arg("operad"),
         arg("--args", required=True, help="JSON list of elements (or @file)"))
def _operad_act(args, report):
    monoid = _load(args.monoid, "monoid")
    operad = _load(args.operad, "operad-element")
    P = monoid.value
    raw = _inline_json(args.args)
    elements = [docs.element(fields, P.carrier) for fields in
                docs.reader([docs.ELEMENT])(raw, "--args")]
    report["inputs"] = _digest([monoid.payload, operad.payload, raw])
    A = monoid_to_algebra(P)
    report["value"] = docs.encode_element(A(operad.value, elements))
    return 0


@command("to-algebra", "derive the algebra of a monoid", arg("monoid"))
def _to_algebra(args, report):
    monoid = _load(args.monoid, "monoid")
    report["inputs"] = _digest([monoid.payload])
    monoid_to_algebra(monoid.value)
    report["outcome"] = "pass"
    report["value"] = {"algebraOf": monoid.payload}
    return 0


@command("to-monoid", "read the monoid back off the algebra", arg("monoid"))
def _to_monoid(args, report):
    monoid = _load(args.monoid, "monoid")
    report["inputs"] = _digest([monoid.payload])
    P = monoid.value
    A = monoid_to_algebra(P)
    unit, table = algebra_table(A)
    same = table == P.table and unit == P.unit_point
    # P was validated on loading, and A keeps its carrier and cap
    back = P if same else CommMonoidPresentation(A.carrier, unit, table,
                                                 A.level_cap)
    report["value"] = docs.encode_document("monoid", back)
    return _verdict(report, same)


@command("a3", "certify two agreeing operad elements",
         arg("--phi", required=True), arg("--psi", required=True),
         arg("--constraints", required=True,
             help="JSON list of integer lists (or @file)"),
         arg("--emit", help="write the certificate document here"))
def _a3(args, report):
    phi = _load(args.phi, "operad-element")
    psi = _load(args.psi, "operad-element")
    # read as a certificate's constraint sets are
    read = docs.CERTIFICATE.readers["A"]
    constraints = [set(A) for A in read(_inline_json(args.constraints),
                                        "--constraints")]
    report["inputs"] = _digest([phi.payload, psi.payload,
                                [sorted(A) for A in constraints]])
    # certify_agreement has verified the chain; it raises if that fails
    cert = certify_agreement(phi.value, psi.value, constraints)
    report["outcome"] = "pass"
    report["value"] = {"chainLength": len(cert)}
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(docs.serialize_document("certificate", cert) + "\n")
    return 0


@command("verify-cert", "verify a certificate", arg("certificate"),
         arg("--phi"), arg("--psi"))
def _verify_cert(args, report):
    cert = _load(args.certificate, "certificate")
    phi = _load(args.phi, "operad-element").value if args.phi else None
    psi = _load(args.psi, "operad-element").value if args.psi else None
    report["inputs"] = _digest([cert.payload])
    ok, at, reason = verify_certificate(cert.value, phi, psi)
    if not ok:
        report["counterexample"] = {"step": at, "reason": reason}
    return _verdict(report, ok)


@command("chi", "operadic pairing into the box product", arg("operad"),
         arg("left"), arg("right"),
         arg("--x", required=True), arg("--y", required=True))
def _chi(args, report):
    operad = _load(args.operad, "operad-element")
    left = _load(args.left, "mset")
    right = _load(args.right, "mset")
    x = _element_arg(args.x, left.value)
    y = _element_arg(args.y, right.value)
    report["inputs"] = _digest([operad.payload, left.payload, right.payload,
                                list(x.image), list(y.image)])
    fx, fy = operadic_to_box(left.value, right.value, operad.value, x, y)
    report["value"] = {"first": docs.encode_element(fx),
                       "second": docs.encode_element(fy)}
    return 0


@command("xinf", "symmetric-product monoid of a pointed set",
         arg("--points", type=int, required=True, minimum=1),
         arg("--level", type=int, minimum=0))
def _xinf(args, report):
    level = args.level if args.level is not None else args.level_bound
    points = ["*"] + [f"a{i}" for i in range(1, args.points)]
    report["inputs"] = _digest([points, level])
    P = infinite_symmetric_product(points, "*", level)
    report["value"] = docs.encode_document("monoid", P)
    return 0


@command("wedge-iso", "wedge against the box of products",
         arg("--x", type=int, default=2, minimum=1),
         arg("--y", type=int, default=3, minimum=1),
         arg("--level", type=int, minimum=0))
def _wedge_iso(args, report):
    level = args.level if args.level is not None else args.level_bound
    xs = ["*"] + [f"a{i}" for i in range(1, args.x)]
    ys = ["*"] + [f"b{i}" for i in range(1, args.y)]
    report["inputs"] = _digest([xs, ys, level])
    maps, ok = wedge_iso(xs, "*", ys, "*", level)
    report["value"] = {str(k): len(v) for k, v in sorted(maps.items())}
    return _verdict(report, ok)


@command("orbit-set", "orbits of a canonical action", arg("mset"))
def _orbit_set(args, report):
    mset = _load(args.mset, "mset")
    report["inputs"] = _digest([mset.payload])
    orbits = mset.value.orbit_set()
    report["value"] = [
        [m, docs.point_name(p)]
        for m, p in sorted(orbits, key=lambda mp: (mp[0], point_key(mp[1])))
    ]
    return 0


@command("selftest", "run every law suite",
         arg("--seed", type=int, default=0),
         arg("--cases", type=int, minimum=1))
def _selftest(args, report):
    report["inputs"] = _digest([args.seed, args.cases, args.window,
                                args.degree_bound])
    result = run_selftest(seed=args.seed, cases=args.cases, window=args.window,
                          degree_bound=args.degree_bound,
                          include_timing=not args.deterministic)
    report["value"] = result
    return _verdict(report, all(not s["failures"] for s in result["suites"]))


if __name__ == "__main__":
    sys.exit(main())
