"""JSON documents for every value the command line accepts or emits.

A document is {"kind": ..., "formatVersion": 1, "payload": ...}; the
payload is validated by the owning module's constructor before any
command touches it, and a payload of the wrong shape or with values out
of range raises `ValidationError`.  Serialization is canonical (sorted
keys, no whitespace variation) so equal values produce identical bytes.
"""

from __future__ import annotations

import json
import re
from math import gcd

from .errors import ParseError, ValidationError
from .injections import (
    OperadElement,
    PartialInjection,
    QuasiAffineInjection,
)
from .iset import ISetMorphism, TruncatedISet
from .mset import CanonicalTameMSet, MElement
from .opalg import Certificate, CertificateStep, CommMonoidPresentation
from .sigma import SigmaSet, point_key

FORMAT_VERSION = 1

_RATIO = re.compile(r"(-?[1-9][0-9]*)/([1-9][0-9]*)")

# what decoding raises on a payload of the wrong shape, and what the
# library constructors raise on values out of range (a piece with lo < 1)
_MALFORMED = (AttributeError, IndexError, KeyError, OverflowError, TypeError,
             ValueError, ZeroDivisionError)


def canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- encoding ---------------------------------------------------------------


def _ratio_out(num, den):
    """num/den in lowest terms: an int, or the string "p/q"."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return num if den == 1 else f"{num}/{den}"


def encode_partial(f: PartialInjection):
    return {"map": {str(k): v for k, v in sorted(f.mapping.items())}}


def encode_qa(f: QuasiAffineInjection):
    # span (first, last, mod, v0, step): a = step/mod, b = v0 - a*first
    return {
        "pieces": [
            {
                "lo": first,
                "hi": last,
                "mod": mod,
                "res": first % mod,
                "a": _ratio_out(step, mod),
                "b": _ratio_out(v0 * mod - step * first, mod),
            }
            for first, last, mod, v0, step in f.spans
        ]
    }


def encode_injection(f):
    if isinstance(f, PartialInjection):
        return encode_partial(f)
    return encode_qa(f)


def encode_operad(e: OperadElement):
    return {"arity": e.arity, "slots": [encode_injection(s) for s in e.slots]}


class PointNames:
    """Stable string identifiers for structured point objects."""

    def __init__(self, points):
        ordered = sorted(points, key=point_key)
        taken = {p for p in ordered if isinstance(p, str)}
        width = max(len(str(max(len(ordered) - 1, 0))), 1)
        self.to_name = {}
        self.from_name = {}
        for i, p in enumerate(ordered):
            if isinstance(p, str):
                name = p
            else:
                # fixed width keeps the name order aligned with the
                # point order, so orbit representatives survive a trip
                name = f"p{i:0{width}d}"
                while name in taken:
                    name = "p" + name
                taken.add(name)
            self.to_name[p] = name
            self.from_name[name] = p


def encode_sigma(ss: SigmaSet, names: PointNames = None):
    names = names or PointNames(ss.points)
    return {
        "m": ss.m,
        "points": sorted(names.to_name[p] for p in ss.points),
        "s": [
            {names.to_name[p]: names.to_name[q] for p, q in t.items()}
            for t in ss.transpositions
        ],
    }


def encode_mset(X: CanonicalTameMSet):
    out = {"levels": {}, "maxLevel": X.max_level}
    for m, ss in sorted(X.levels.items()):
        out["levels"][str(m)] = encode_sigma(ss)
    return out


def encode_element(x: MElement, names: PointNames = None):
    point = names.to_name[x.point] if names else (
        x.point if isinstance(x.point, str) else repr(x.point)
    )
    return {"level": x.level, "image": list(x.image), "point": point}


def encode_iset(X: TruncatedISet, layers=None):
    layers = layers or [PointNames(level) for level in X.levels]
    return {
        "N": X.N,
        "stableFrom": X.stable_from,
        "levels": [sorted(n.to_name.values()) for n in layers],
        "incl": [
            {layers[m].to_name[p]: layers[m + 1].to_name[q]
             for p, q in X.incl[m].items()}
            for m in range(X.N)
        ],
        "s": [
            [
                {layers[m].to_name[p]: layers[m].to_name[q]
                 for p, q in t.items()}
                for t in X.transp[m]
            ]
            for m in range(X.N + 1)
        ],
    }


def encode_iset_morphism(f: ISetMorphism):
    src = [PointNames(level) for level in f.source.levels]
    tgt = [PointNames(level) for level in f.target.levels]
    return {
        "morphism": "iset",
        "source": encode_iset(f.source, src),
        "target": encode_iset(f.target, tgt),
        "levels": [
            {src[m].to_name[p]: tgt[m].to_name[q]
             for p, q in f.maps[m].items()}
            for m in range(f.source.N + 1)
        ],
    }


def encode_monoid(P: CommMonoidPresentation):
    names = {m: PointNames(ss.points) for m, ss in P.carrier.levels.items()}
    sums = []
    for ((m, ra), (n, rb)), val in sorted(
        P.table.items(), key=lambda kv: repr(kv[0])
    ):
        sums.append(
            {
                "a": [m, names[m].to_name[ra]],
                "b": [n, names[n].to_name[rb]],
                "result": {
                    "level": val.level,
                    "image": list(val.image),
                    "point": names[val.level].to_name[val.point],
                },
            }
        )
    return {
        "carrier": encode_mset(P.carrier),
        "unit": names[0].to_name[P.unit_point],
        "levelCap": P.level_cap,
        "sums": sums,
    }


def encode_certificate(c: Certificate):
    return {
        "n": c.n,
        "A": [sorted(A) for A in c.constraints],
        "chain": [
            {
                "elem": encode_operad(s.element),
                "move": [encode_qa(f) for f in s.move],
                "dir": s.direction,
            }
            for s in c.steps
        ],
        "final": encode_operad(c.final),
    }


ENCODERS = {
    "partial-injection": encode_partial,
    "qa-injection": encode_qa,
    "operad-element": encode_operad,
    "sigma-set": encode_sigma,
    "mset": encode_mset,
    "iset": encode_iset,
    "morphism": encode_iset_morphism,
    "monoid": encode_monoid,
    "certificate": encode_certificate,
}


def wrap(kind, payload):
    return {"kind": kind, "formatVersion": FORMAT_VERSION, "payload": payload}


# -- decoding ---------------------------------------------------------------


def _int(value, field):
    """An integer-valued field: JSON integers only, so a float, a bool
    or a numeric string is refused rather than coerced."""
    if type(value) is not int:
        raise ValidationError("integer field", f"{field}={value!r}")
    return value


def _int_key(key, field):
    """An integer object key in the one form the encoder writes, str(m),
    so that "+1" or " 01" cannot stand in for the key "1"."""
    try:
        m = int(key)
    except ValueError:
        m = None
    if m is None or str(m) != key:
        raise ValidationError("integer key as str(m)", f"{field}={key!r}")
    return m


def _list(value, field):
    """A field the encoder writes as a JSON array; a string or an object
    is refused rather than iterated."""
    if type(value) is not list:
        raise ValidationError("array field", f"{field}={value!r}")
    return value


def _obj(value, field):
    """A field the encoder writes as a JSON object; a list of pairs is
    refused rather than read as a table."""
    if type(value) is not dict:
        raise ValidationError("object field", f"{field}={value!r}")
    return value


def _objs(value, field):
    """An array of objects."""
    return [_obj(v, field) for v in _list(value, field)]


def _frac_in(v):
    """A ratio as `_ratio_out` writes it, as the integer pair (p, q): a
    JSON integer, or the string "p/q" in ASCII decimal with q >= 2,
    gcd(p, q) = 1 and a sign on p only."""
    if isinstance(v, str):
        m = _RATIO.fullmatch(v)
        if m is None or int(m[2]) < 2 or gcd(int(m[1]), int(m[2])) != 1:
            raise ValidationError("ratio p/q in lowest terms", repr(v))
        return int(m[1]), int(m[2])
    return _int(v, "ratio"), 1


def decode_partial(payload):
    try:
        return PartialInjection(
            {_int_key(k, "map"): _int(v, "map")
             for k, v in _obj(payload["map"], "map").items()})
    except KeyError as e:
        raise ValidationError("partial-injection fields", str(e)) from None


def decode_qa(payload):
    return QuasiAffineInjection([
        (_int(raw["lo"], "lo"),
         None if raw.get("hi") is None else _int(raw["hi"], "hi"),
         _int(raw["mod"], "mod"),
         _int(raw["res"], "res"),
         _frac_in(raw["a"]),
         _frac_in(raw["b"]))
        for raw in _objs(payload["pieces"], "pieces")
    ])


def decode_injection(payload):
    if "map" in _obj(payload, "injection"):
        return decode_partial(payload)
    if "pieces" in payload:
        return decode_qa(payload)
    raise ValidationError("injection shape", "expected map or pieces")


def decode_operad(payload):
    slots = [decode_injection(raw)
             for raw in _list(payload["slots"], "slots")]
    e = OperadElement(slots)
    if e.arity != _int(payload["arity"], "arity"):
        raise ValidationError("arity", payload["arity"])
    return e


def decode_sigma(payload):
    m = _int(payload["m"], "m")
    return SigmaSet(m, _list(payload["points"], "points"),
                    _objs(payload["s"], "s"))


def decode_mset(payload):
    levels = {}
    for key, raw in _obj(payload.get("levels", {}), "levels").items():
        levels[_int_key(key, "levels")] = decode_sigma(_obj(raw, "levels"))
    return CanonicalTameMSet(levels)


def decode_element(payload, X: CanonicalTameMSet = None):
    """An element from its JSON fields, checked against the carrier X
    when one is given.  Elements also arrive outside documents, as
    command-line arguments, so this catches malformed fields itself."""
    try:
        level = _int(payload["level"], "level")
        image = tuple(_int(v, "image")
                      for v in _list(payload["image"], "image"))
        point = payload["point"]
        if len(image) != level:
            raise ValidationError("one image entry per level", image)
        if len(set(image)) != len(image):
            raise ValidationError("distinct image entries", image)
        if any(v < 1 for v in image):
            raise ValidationError("positive image entries", image)
        if X is not None:
            # an unsorted image is fine on input: the carrier knows how to
            # push the sorting permutation into the point
            ss = X.levels.get(level)
            if ss is None or point not in ss.point_set:
                raise ValidationError("element of the carrier", payload)
            return X.canonical(level, image, point)
    except _MALFORMED as e:
        raise ValidationError("element fields", repr(e)) from None
    if tuple(sorted(image)) != image:
        raise ValidationError("canonical image order", image)
    return MElement(level, image, point)


def decode_iset(payload):
    N = _int(payload["N"], "N")
    levels = [_list(l, "levels") for l in _list(payload["levels"], "levels")]
    incl = _objs(payload["incl"], "incl")
    transp = [_objs(ts, "s") for ts in _list(payload["s"], "s")]
    return TruncatedISet(N, levels, incl, transp,
                         _int(payload["stableFrom"], "stableFrom"))


def decode_iset_morphism(payload):
    if not isinstance(payload, dict) or payload.get("morphism") != "iset":
        raise ValidationError("morphism discriminator", "morphism")
    src = decode_iset(_obj(payload["source"], "source"))
    tgt = decode_iset(_obj(payload["target"], "target"))
    return ISetMorphism(src, tgt, _objs(payload["levels"], "levels"))


def decode_monoid(payload):
    carrier = decode_mset(_obj(payload["carrier"], "carrier"))
    table = {}
    for raw in _objs(payload["sums"], "sums"):
        m, ra = _list(raw["a"], "a")
        n, rb = _list(raw["b"], "b")
        m, n = _int(m, "a"), _int(n, "b")
        val = decode_element(_obj(raw["result"], "result"), carrier)
        table[((m, ra), (n, rb))] = val
    cap = payload.get("levelCap")
    return CommMonoidPresentation(
        carrier, payload["unit"], table,
        None if cap is None else _int(cap, "levelCap"),
    )


def decode_certificate(payload):
    steps = []
    for raw in _objs(payload["chain"], "chain"):
        steps.append(
            CertificateStep(
                decode_operad(_obj(raw["elem"], "elem")),
                tuple(decode_qa(f) for f in _objs(raw["move"], "move")),
                raw["dir"],
            )
        )
    return Certificate(
        _int(payload["n"], "n"),
        [frozenset(_int(a, "A") for a in _list(A, "A"))
         for A in _list(payload["A"], "A")],
        steps,
        decode_operad(_obj(payload["final"], "final")),
    )


DECODERS = {
    "partial-injection": decode_partial,
    "qa-injection": decode_qa,
    "operad-element": decode_operad,
    "sigma-set": decode_sigma,
    "mset": decode_mset,
    "iset": decode_iset,
    "morphism": decode_iset_morphism,
    "monoid": decode_monoid,
    "certificate": decode_certificate,
}


class Document:
    def __init__(self, kind, payload, value):
        self.kind = kind
        self.payload = payload
        self.value = value


def parse_document(data) -> Document:
    """Decode and validate one document from bytes or text."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(str(e)) from None
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(str(e)) from None
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ParseError("document must be an object with a kind")
    # a missing version reads as the only one there is; True == 1 and
    # 1.0 == 1 in Python, so the type is checked too
    version = raw.get("formatVersion", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported formatVersion {version!r}")
    kind = raw["kind"]
    payload = raw.get("payload")
    decode = DECODERS.get(kind) if isinstance(kind, str) else None
    if decode is None:
        raise ParseError(f"unknown document kind {kind!r}")
    try:
        value = decode(payload)
    except _MALFORMED as e:
        raise ValidationError(f"{kind} payload", repr(e)) from None
    return Document(kind, payload, value)


def encode_document(kind, value):
    """The document as a dict of string keys and lists, as JSON reads it."""
    if kind not in ENCODERS:
        raise ParseError(f"unknown document kind {kind!r}")
    return wrap(kind, ENCODERS[kind](value))


def serialize_document(kind, value):
    return canonical_json(encode_document(kind, value))
