"""Every field of every document kind, driven by the descriptions in
`tamebox.documents`: a required field cannot be dropped, an optional one
can, and no field takes a value of another JSON type.  Each malformed
document is also run through the command that reads its kind, which
must report a ValidationError with exit code 2 and never raise; no
command reads a bare sigma-set, so its documents go to orbit-set, which
refuses them by kind before reading the payload."""

import copy
import json
import os
import random
import re
from typing import NamedTuple

import pytest

from tamebox import documents as docs
from tamebox.cli import main
from tamebox.errors import ValidationError
from tamebox.generators import random_operad_element, random_sigma_set
from tamebox.injections import PartialInjection, QuasiAffineInjection
from tamebox.iset import (
    flat_replacement,
    representable_iset,
    restriction_coequalizer,
)
from tamebox.mset import injection_mset
from tamebox.opalg import cyclic_monoid, trivial_from_abelian

HERE = os.path.dirname(__file__)
CERTIFICATE = os.path.join(HERE, "data", "parent_golden_certificate.json")
README = os.path.join(HERE, os.pardir, "README.md")

ELEMENT_ARG = '{"level":2,"image":[1,2],"point":"p0"}'

# one valid document per kind and the command that reads it, with
# <bad> for its path; an omitted optional field reads as its default,
# so the seeds hold the defaults there: the monoid's cap is the
# carrier's degree bound (7) and the pieces of the quasi-affine map are
# unbounded (hi null)
SEEDS = [
    ("partial-injection", PartialInjection({1: 4, 2: 1}),
     ["act", "<bad>", "<m2>", "--element", ELEMENT_ARG]),
    ("qa-injection", QuasiAffineInjection.affine(2, -1),
     ["act", "<bad>", "<m2>", "--element", ELEMENT_ARG]),
    ("operad-element", random_operad_element(random.Random(3), 2),
     ["verify-cert", "<cert>", "--phi", "<bad>"]),
    ("sigma-set", random_sigma_set(random.Random(5), 3),
     ["orbit-set", "<bad>"]),
    ("mset", injection_mset(2), ["orbit-set", "<bad>"]),
    ("iset", representable_iset(1, 3), ["flat-check", "<bad>"]),
    ("morphism", flat_replacement(restriction_coequalizer(3))[1],
     ["n-iso", "<bad>"]),
    ("monoid", trivial_from_abelian(*cyclic_monoid(3)),
     ["to-algebra", "<bad>"]),
    ("certificate", None, ["verify-cert", "<bad>"]),
]


def _seed_document(kind, value):
    if value is None:
        with open(CERTIFICATE, encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(docs.serialize_document(kind, value))


def _locations(shape, value, path):
    """(kind, path) of every described object inside value."""
    if isinstance(shape, docs.Kind):
        yield shape, path
        for name, inner in shape.fields.items():
            if name in value:
                yield from _locations(inner, value[name], path + [name])
    elif type(shape) is tuple:
        kind = next(k for k in shape if next(iter(k.fields)) in value)
        yield from _locations(kind, value, path)
    elif type(shape) is list:
        for i, v in enumerate(value):
            yield from _locations(shape[0], v, path + [i])
    elif type(shape) is dict and int in shape:
        for key, v in value.items():
            yield from _locations(shape[int], v, path + [key])


def _replacements(shape):
    """Values of other JSON types than the shape's."""
    if shape in (int, docs.int_or_null):
        return [2.5, True, "3"]
    if shape is docs.ratio:
        return [2.5, True, [1, 2]]
    if shape is str:
        return [3, ["fwd"]]
    if shape is docs.point:
        return [["p0"], {"p0": "p1"}]
    if type(shape) is list or shape is docs.orbit:
        return ["ab", {"a": 1}]
    return [[["a", "b"]]]  # an object: a list of pairs stands in


class Case(NamedTuple):
    id: str
    kind: str  # the described object the case changes
    document: dict
    path: list  # of the object inside the document
    field: str
    value: object  # the replacement, None to drop the field
    decodes: bool
    argv: list


def _cases():
    cases = []
    for kind, value, argv in SEEDS:
        doc = _seed_document(kind, value)
        seen = set()
        for described, path in _locations(docs.KINDS[kind],
                                          doc["payload"], ["payload"]):
            if described.text in seen:
                continue
            seen.add(described.text)
            where = "/".join(map(str, path[1:]))
            for name, shape in described.fields.items():
                label = f"{kind}:{described.text}@{where}.{name}"
                cases.append(Case(f"{label}-dropped", described.text, doc,
                                  path, name, None,
                                  name in described.optional, argv))
                for bad in _replacements(shape):
                    text = json.dumps(bad, separators=(",", ":"))
                    cases.append(Case(f"{label}={text}", described.text, doc,
                                      path, name, bad, False, argv))
    return cases


CASES = _cases()


def _all_kinds():
    """Every Kind reachable from the document kinds."""
    out, todo = {}, list(docs.KINDS.values())
    while todo:
        shape = todo.pop()
        if isinstance(shape, docs.Kind):
            if shape.text in out:
                continue
            out[shape.text] = shape
            todo.extend(shape.fields.values())
        elif type(shape) in (list, tuple):
            todo.extend(shape)
        elif type(shape) is dict:
            todo.extend(shape.values())
    return out


def _mutated(doc, path, name, bad):
    doc = copy.deepcopy(doc)
    target = doc
    for step in path:
        target = target[step]
    if bad is None:
        del target[name]
    else:
        target[name] = bad
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fields")
    m2 = tmp / "m2.json"
    m2.write_text(docs.serialize_document("mset", injection_mset(2)))
    return {"m2": str(m2), "cert": CERTIFICATE, "bad": str(tmp / "bad.json")}


def test_every_kind_has_a_seed_location():
    assert {case.kind for case in CASES} == set(_all_kinds())


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_field_against_its_description(case, capsys, files):
    text = json.dumps(_mutated(case.document, case.path, case.field,
                               case.value))
    if case.decodes:
        docs.parse_document(text)
        return
    with pytest.raises(ValidationError):
        docs.parse_document(text)
    with open(files["bad"], "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = [files[a[1:-1]] if a.startswith("<") else a for a in case.argv]
    code = main(["--deterministic", *argv])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["type"] == "ValidationError"
    # the payload, not the kind check of the command, refused it
    unread = case.document["kind"] == "sigma-set"
    assert report["error"]["message"].startswith("document kind") == unread


# the README's names of the shapes that are not built of others
SHAPE_TEXT = {int: "integer", str: "string", docs.point: "point",
              docs.ratio: "ratio", docs.orbit: "[integer, point]",
              docs.int_or_null: "integer or null"}


def _shape_text(shape):
    if isinstance(shape, docs.Kind):
        return shape.text
    if type(shape) is list:
        return f"[{_shape_text(shape[0])}]"
    if type(shape) is tuple:
        return " or ".join(kind.text for kind in shape)
    if type(shape) is dict:
        ((key, item),) = shape.items()
        return f"{{{_shape_text(key)}: {_shape_text(item)}}}"
    return SHAPE_TEXT[shape]


def _readme_tables():
    """{kind: [(field, shape, required or optional)]} from the README's
    "Document formats" section: a heading #### `kind` and its table."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Document formats", 1)[1].split("\n## ", 1)[0]
    tables, kind = {}, None
    for line in section.splitlines():
        heading = re.fullmatch(r"#### `([a-z-]+)`", line)
        if heading:
            kind = heading[1]
            tables[kind] = []
        row = re.fullmatch(r"\| `(\w+)` \| `(.+)` \| (required|optional) \|",
                           line)
        if row:
            tables[kind].append(row.groups())
    return tables


def test_readme_tables_are_the_descriptions():
    described = {
        kind.text: [(name, _shape_text(shape),
                     "optional" if name in kind.optional else "required")
                    for name, shape in kind.fields.items()]
        for kind in _all_kinds().values()
    }
    assert _readme_tables() == described
