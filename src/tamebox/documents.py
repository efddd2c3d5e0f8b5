"""JSON documents for every value the command line accepts or emits.

A document is {"kind": ..., "formatVersion": 1, "payload": ...}; each
kind describes its payload once, as a `Kind` with fields and their JSON
shapes.  A payload of another shape, or with values the owning module's
constructor refuses, raises `ValidationError`.  Serialization is canonical
(sorted keys, no whitespace variation): equal values give identical bytes.
"""

from __future__ import annotations

import json
import re
import sys
from math import gcd
from operator import itemgetter
from typing import NamedTuple

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
_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")

# what the library constructors raise on values out of range (a piece
# with lo < 1) and on points they cannot hash
_MALFORMED = (AttributeError, IndexError, KeyError, OverflowError, TypeError,
             ValueError, ZeroDivisionError)


def load_json(data, source=None):
    """The JSON value of text, or of bytes in strict UTF-8.  Any failure,
    Python's digit or nesting limit too, is a `ParseError`."""
    try:
        return json.loads(data if isinstance(data, str) else data.decode())
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError too
        raise ParseError(f"{source}: {e}" if source else str(e)) from None


def canonical_json(value):
    # every value encoded is a tree, so the cycle check only costs time
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          check_circular=False)
    except ValueError:  # an integer past Python's digit limit
        n = sys.get_int_max_str_digits()
        raise ValidationError(f"output integers of {n} digits at most"
                              ) from None


# -- shapes -----------------------------------------------------------------
# A field's shape is `int`, `str`, a shape function below, a nested `Kind`,
# a tuple of kinds (one of them), `[shape]`, `{int: shape}` or `{point:
# point}` (a point table).  No value is coerced: a float, a bool or "3" is
# no integer, a string no array, a list of pairs no object.


def _json(json_type, text):
    """The reader of one JSON type, which refuses values of the others."""
    def read(value, field):
        # type(), not isinstance(): bool is a subclass of int
        if type(value) is not json_type:
            raise ValidationError(f"{text} field", f"{field}={value!r}")
        return value
    return read


_INT, _STR, _ARRAY, _OBJECT = (_json(int, "integer"), _json(str, "string"),
                               _json(list, "array"), _json(dict, "object"))


def reader(shape):
    """The function (value, field name) -> value for the constructor."""
    if shape is int or shape is str:
        return _INT if shape is int else _STR
    if type(shape) is list:
        if shape[0] is point:
            return _ARRAY
        item = reader(shape[0])
        return lambda v, field: [item(x, field) for x in _ARRAY(v, field)]
    if type(shape) is tuple:  # one of these kinds, told by its first field
        def one_of(value, field):
            for kind in shape:
                if next(iter(kind.fields)) in _OBJECT(value, field):
                    return kind.read(value, field)
            raise ValidationError(" or ".join(k.text for k in shape), field)
        return one_of
    if type(shape) is dict:
        if point in shape:  # {point: point}
            return _OBJECT
        item = reader(shape[int])

        def int_keyed(value, field):
            out = {}
            for k, v in _OBJECT(value, field).items():
                # the one form the encoders write, str(m), so that "+1"
                # or " 01" cannot stand in for the key "1"
                if not _INT_KEY.fullmatch(k):
                    raise ValidationError("integer key", f"{field}={k!r}")
                out[int(k)] = item(v, field)
            return out
        return int_keyed
    return shape.read if isinstance(shape, Kind) else shape


def ratio(value, field):
    """A ratio as `_ratio_out` writes it, as the integer pair (p, q): a
    JSON integer, or the string "p/q" in ASCII decimal with q >= 2,
    gcd(p, q) = 1 and a sign on p only."""
    if isinstance(value, str):
        m = _RATIO.fullmatch(value)
        if m is None or int(m[2]) < 2 or gcd(int(m[1]), int(m[2])) != 1:
            raise ValidationError("ratio p/q in lowest terms", repr(value))
        return int(m[1]), int(m[2])
    return _INT(value, field), 1


def orbit(value, field):  # an orbit representative [level, point]
    if len(_ARRAY(value, field)) != 2:
        raise ValidationError("[integer, point] field", f"{field}={value!r}")
    return _INT(value[0], field), value[1]


def point(value, field):
    # a point is a JSON scalar; in point lists and tables `SigmaSet` and
    # `TruncatedISet` catch the others, so no entry there is checked
    if isinstance(value, (list, dict)):
        raise ValidationError("point field", f"{field}={value!r}")
    return value


def int_or_null(value, field):
    return value if value is None else _INT(value, field)


class Kind:
    """A JSON object of described fields.  `read` hands the values, in
    description order (None for an omitted optional one), to `build`;
    `encode` writes the values of `parts`.  Both default to the values."""

    def __init__(self, text, fields, build=None, parts=None, optional=()):
        self.text = text
        self.fields = fields  # {name: shape}
        self.readers = {name: reader(shape) for name, shape in fields.items()}
        self.build = build
        self.parts = parts or (lambda *values: values)
        self.optional = optional

    def read(self, value, field):
        _OBJECT(value, field)
        values = []
        for name, read in self.readers.items():
            if name in value:
                values.append(read(value[name], name))
            elif name in self.optional:
                values.append(None)
            else:
                raise ValidationError("required field", f"{self.text}.{name}")
        return values if self.build is None else self.build(*values)

    def encode(self, *args):
        return dict(zip(self.fields, self.parts(*args)))


def _ratio_out(num, den):
    """num/den in lowest terms: an int, or the string "p/q"."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return num if den == 1 else f"{num}/{den}"


def point_name(p):
    """A point's name where no `PointNames` table is at hand."""
    return p if isinstance(p, str) else repr(p)


class PointNames:
    """Stable string identifiers for structured point objects."""

    def __init__(self, points):
        ordered = sorted(points, key=point_key)
        taken = {p for p in ordered if isinstance(p, str)}
        width = max(len(str(max(len(ordered) - 1, 0))), 1)
        self.to_name = {}
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

    def table(self, t, target=None):
        """The point table t by name: keys named here, values by target."""
        target = target or self
        return {self.to_name[p]: target.to_name[q] for p, q in t.items()}


# -- kinds ------------------------------------------------------------------

PARTIAL = Kind("partial-injection", {"map": {int: int}}, PartialInjection,
               lambda f: ({str(k): v for k, v in sorted(f.mapping.items())},))


def _piece_parts(span):
    # span (first, last, mod, v0, step): a = step/mod, b = v0 - a*first
    first, last, mod, v0, step = span
    return (first, last, mod, first % mod, _ratio_out(step, mod),
            _ratio_out(v0 * mod - step * first, mod))


# a piece i -> a*i + b on {i >= lo, i <= hi, i = res mod mod}, read as
# the row of values `QuasiAffineInjection` takes
QA_PIECE = Kind("qa-piece", {"lo": int, "hi": int_or_null, "mod": int,
                             "res": int, "a": ratio, "b": ratio},
                parts=_piece_parts, optional={"hi"})


_PIECE_FIELDS = itemgetter(*QA_PIECE.fields)


def _piece_objects(spans):
    """QA_PIECE's encoding of each span.  A span of mod one, as every
    point and most other spans are, has integers a and b and is written
    here."""
    return [{"lo": first, "hi": last, "mod": 1, "res": 0, "a": step,
             "b": v0 - step * first} if mod == 1
            else QA_PIECE.encode((first, last, mod, v0, step))
            for first, last, mod, v0, step in spans]


def _bulk(kind, row):
    """Read a list of `kind`s through `row`; a value `row` gives None for,
    or cannot index, goes through `kind`, which refuses what it must."""
    def read(value, field):
        rows = []
        for x in _ARRAY(value, field):
            try:
                got = row(x)
            except (KeyError, TypeError):  # a field left out, or no object
                got = None
            rows.append(kind.read(x, field) if got is None else got)
        return rows
    return read


def _piece_row(piece):
    # JSON integers, hi also null, as `_piece_objects` writes most pieces
    lo, hi, mod, res, a, b = _PIECE_FIELDS(piece)
    if (type(lo) is type(mod) is type(res) is type(a) is type(b) is int
            and (hi is None or type(hi) is int)):
        return lo, hi, mod, res, (a, 1), (b, 1)
    return None


_piece_rows = _bulk(QA_PIECE, _piece_row)


QA = Kind("qa-injection", {"pieces": [QA_PIECE]}, QuasiAffineInjection,
          lambda f: (_piece_objects(f.spans),))
# pieces are read in bulk; the description stays what documents are
# checked against
QA.readers["pieces"] = _piece_rows


def _operad(arity, slots):
    if len(slots) != arity:
        raise ValidationError("arity", arity)
    return OperadElement(slots)


OPERAD = Kind(
    "operad-element",
    {"arity": int, "slots": [(PARTIAL, QA)]}, _operad,
    lambda e: (e.arity, [(PARTIAL if isinstance(s, PartialInjection)
                          else QA).encode(s) for s in e.slots]))


def _sigma_parts(ss, names=None):
    names = names or PointNames(ss.points)
    return (ss.m, sorted(names.to_name[p] for p in ss.points),
            [names.table(t) for t in ss.transpositions])


SIGMA = Kind("sigma-set", {"m": int, "points": [point],
                           "s": [{point: point}]}, SigmaSet, _sigma_parts)


def _mset(levels, max_level):
    X = CanonicalTameMSet(levels)
    if max_level is not None and max_level != X.max_level:
        raise ValidationError("maxLevel equal to the top level",
                              f"maxLevel={max_level}, top {X.max_level}")
    return X


MSET = Kind("mset", {"levels": {int: SIGMA}, "maxLevel": int}, _mset,
            lambda X, names=None: (
                {str(m): SIGMA.encode(ss, names and names[m])
                 for m, ss in sorted(X.levels.items())}, X.max_level),
            optional={"maxLevel"})

# read as its field values, which `element` makes an element
ELEMENT = Kind("element", {"level": int, "image": [int], "point": point},
               parts=lambda x, names=None: (
                   x.level, list(x.image),
                   names.to_name[x.point] if names else point_name(x.point)))
encode_element = ELEMENT.encode


def element(fields, X: CanonicalTameMSet = None):
    """The element with ELEMENT's field values, checked against the
    carrier X when one is given."""
    level, image, point = fields
    image = tuple(image)
    if len(image) != level:
        raise ValidationError("one image entry per level", image)
    if len(set(image)) != len(image):
        raise ValidationError("distinct image entries", image)
    if min(image, default=1) < 1:
        raise ValidationError("positive image entries", image)
    if X is not None:
        # an unsorted image is fine on input: the carrier knows how to
        # push the sorting permutation into the point
        ss = X.levels.get(level)
        if ss is None or point not in ss.point_set:
            raise ValidationError("element of the carrier", fields)
        return X.canonical(level, image, point)
    if tuple(sorted(image)) != image:
        raise ValidationError("canonical image order", image)
    return MElement(level, image, point)


def _iset_parts(X: TruncatedISet, layers=None):
    layers = layers or [PointNames(level) for level in X.levels]
    return (
        X.N,
        [sorted(n.to_name.values()) for n in layers],
        [layers[m].table(X.incl[m], layers[m + 1]) for m in range(X.N)],
        [[layers[m].table(t) for t in X.transp[m]] for m in range(X.N + 1)],
        X.stable_from,
    )


ISET = Kind("iset", {"N": int, "levels": [[point]], "incl": [{point: point}],
                     "s": [[{point: point}]], "stableFrom": int},
            TruncatedISet, _iset_parts)


def _morphism(tag, source, target, levels):
    if tag != "iset":
        raise ValidationError("morphism discriminator", "morphism")
    return ISetMorphism(source, target, levels)


def _morphism_parts(f: ISetMorphism):
    src = [PointNames(level) for level in f.source.levels]
    tgt = [PointNames(level) for level in f.target.levels]
    return ("iset", ISET.encode(f.source, src), ISET.encode(f.target, tgt),
            [src[m].table(f.maps[m], tgt[m]) for m in range(f.source.N + 1)])


MORPHISM = Kind("morphism", {"morphism": str, "source": ISET, "target": ISET,
                            "levels": [{point: point}]},
                _morphism, _morphism_parts)

# a sum of two orbit representatives, read as its field values
SUM = Kind("sum", {"a": orbit, "b": orbit, "result": ELEMENT})


def _sum_row(s):
    # integers and scalar points, as `_monoid_parts` writes every sum
    a, b, result = s["a"], s["b"], s["result"]
    level, image, p = result["level"], result["image"], result["point"]
    if (type(a) is type(b) is type(image) is list and len(a) == len(b) == 2
            and type(a[0]) is type(b[0]) is type(level) is int
            and all(type(v) is int for v in image)
            and not isinstance(p, (list, dict))):
        return [tuple(a), tuple(b), [level, image, p]]
    return None


def _monoid(carrier, unit, level_cap, sums):
    table = {}
    for a, b, result in sums:
        if (a, b) in table:
            raise ValidationError("one sum per representative pair",
                                  f"a={a}, b={b}")
        table[a, b] = element(result, carrier)
    return CommMonoidPresentation(carrier, unit, table, level_cap)


def _monoid_parts(P: CommMonoidPresentation):
    names = {m: PointNames(ss.points) for m, ss in P.carrier.levels.items()}
    sums = [
        SUM.encode([m, names[m].to_name[ra]], [n, names[n].to_name[rb]],
                   encode_element(val, names[val.level]))
        for ((m, ra), (n, rb)), val in sorted(
            P.table.items(), key=lambda kv: point_key(kv[0])[1])
    ]
    return (MSET.encode(P.carrier, names), names[0].to_name[P.unit_point],
            P.level_cap, sums)


MONOID = Kind("monoid", {"carrier": MSET, "unit": point,
                         "levelCap": int_or_null, "sums": [SUM]},
              _monoid, _monoid_parts, optional={"levelCap"})
# sums are read in bulk, as pieces are
MONOID.readers["sums"] = _sum_rows = _bulk(SUM, _sum_row)

STEP = Kind("certificate-step", {"elem": OPERAD, "move": [QA], "dir": str},
            CertificateStep)
CERTIFICATE = Kind(
    "certificate",
    {"n": int, "A": [[int]], "chain": [STEP], "final": OPERAD},
    Certificate, lambda c: (
        c.n, [sorted(A) for A in c.constraints],
        [STEP.encode(OPERAD.encode(s.element),
                     [QA.encode(f) for f in s.move], s.direction)
         for s in c.steps],
        OPERAD.encode(c.final)))

# the document kinds
KINDS = {kind.text: kind for kind in (
    PARTIAL, QA, OPERAD, SIGMA, MSET, ISET, MORPHISM, MONOID, CERTIFICATE)}


def wrap(kind, payload):
    return {"kind": kind, "formatVersion": FORMAT_VERSION, "payload": payload}


class Document(NamedTuple):
    kind: str
    payload: object  # the JSON as read: reports hash it
    value: object


def parse_document(data, kinds=(), source=None) -> Document:
    """Decode and validate one document from bytes or text.  Given the
    accepted `kinds`, a document of another kind is refused before its
    payload is read; `source` names the document there and in decoding
    errors."""
    raw = load_json(data, source)
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ParseError("document must be an object with a kind")
    # a missing version reads as the only one there is; True == 1 and
    # 1.0 == 1 in Python, so the type is checked too
    version = raw.get("formatVersion", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported formatVersion {version!r}")
    kind = raw["kind"]
    described = KINDS.get(kind) if isinstance(kind, str) else None
    if described is None:
        raise ParseError(f"unknown document kind {kind!r}")
    if kinds and kind not in kinds:
        raise ValidationError(f"document kind {' or '.join(kinds)}, found "
                              f"{kind}", source)
    payload = raw.get("payload")
    try:
        value = described.read(payload, f"{kind} payload")
    except _MALFORMED as e:
        raise ValidationError(f"{kind} payload", repr(e)) from None
    return Document(kind, payload, value)


def encode_document(kind, value):
    """The document as a dict of string keys and lists, as JSON reads it."""
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    return wrap(kind, KINDS[kind].encode(value))


def serialize_document(kind, value):
    return canonical_json(encode_document(kind, value))
