import json
import random

import pytest

from test_mset import unit_mset
from tamebox import documents as docs
from tamebox.documents import (
    canonical_json,
    parse_document,
    serialize_document,
)
from tamebox.errors import (
    InvalidMorphism,
    ParseError,
    ValidationError,
    ValidationFailed,
)
from tamebox.generators import disjoint_lanes, random_quasi_affine
from tamebox.injections import (
    OperadElement,
    PartialInjection,
    QuasiAffineInjection,
    order_embed_avoiding,
)
from tamebox.iset import (
    ISetMorphism,
    quotient_iset,
    representable_iset,
    support_filtration,
)
from tamebox.mset import injection_mset
from tamebox.opalg import (
    certify_agreement,
    cyclic_monoid,
    infinite_symmetric_product,
    trivial_from_abelian,
)
from tamebox.selftest import agreement_instances
from tamebox.sigma import regular_sigma_set, trivial_sigma_set


SAMPLES = [
    ("partial-injection", PartialInjection({1: 4, 2: 1})),
    ("qa-injection", order_embed_avoiding({2, 3})),
    ("qa-injection", QuasiAffineInjection.affine(2, -1)),
    ("operad-element", OperadElement(disjoint_lanes(2))),
    (
        "operad-element",
        OperadElement([PartialInjection({1: 3}), PartialInjection({2: 4})]),
    ),
    ("sigma-set", regular_sigma_set(2)),
    ("mset", injection_mset(2)),
    ("mset", unit_mset()),
    ("iset", representable_iset(1, 3)),
    ("monoid", trivial_from_abelian(*cyclic_monoid(3))),
    ("monoid", infinite_symmetric_product(["*", "a"], "*", 3)),
]


class TestRoundTrips:
    @pytest.mark.parametrize("kind,value", SAMPLES,
                             ids=[k for k, _ in SAMPLES])
    def test_serialize_parse_serialize_stable(self, kind, value):
        text = serialize_document(kind, value)
        doc = parse_document(text)
        assert doc.kind == kind
        again = serialize_document(kind, doc.value)
        assert again == text

    def test_certificate_round_trip(self):
        s = OperadElement(disjoint_lanes(2))
        phi = OperadElement(
            [s.slot(1).compose(QuasiAffineInjection.affine(2, 0)),
             s.slot(2).compose(QuasiAffineInjection.affine(1, 3))]
        )
        cert = certify_agreement(phi, s, [set(), set()])
        text = serialize_document("certificate", cert)
        doc = parse_document(text)
        assert serialize_document("certificate", doc.value) == text

    def test_morphism_round_trip(self):
        from tamebox.iset import flat_replacement

        X = representable_iset(1, 3)
        _, eta = flat_replacement(X)
        text = serialize_document("morphism", eta)
        doc = parse_document(text)
        assert serialize_document("morphism", doc.value) == text

    def test_generated_names_step_around_string_points(self):
        # the integer point sorts first and would be named p0, which the
        # string point holds: it becomes pp0
        ss = trivial_sigma_set(1, [5, "p0"])
        names = docs.PointNames(ss.points)
        assert names.to_name == {5: "pp0", "p0": "p0"}
        text = serialize_document("sigma-set", ss)
        assert json.loads(text)["payload"]["points"] == ["p0", "pp0"]
        assert serialize_document("sigma-set",
                                  parse_document(text).value) == text

    def test_filtration_iset_round_trip(self):
        X = support_filtration(injection_mset(1), 3)
        text = serialize_document("iset", X)
        doc = parse_document(text)
        assert serialize_document("iset", doc.value) == text


class TestValidationSurface:
    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_document(b"{nope")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_document(canonical_json({"kind": "mystery", "payload": {}}))

    def test_unhashable_kind(self):
        with pytest.raises(ParseError):
            parse_document(canonical_json({"kind": [], "payload": {}}))

    @pytest.mark.parametrize("text", ["[]", '"mset"', '{"payload": {}}'],
                             ids=["array", "string", "no-kind"])
    def test_document_must_be_an_object_with_a_kind(self, text):
        with pytest.raises(ParseError,
                           match="document must be an object with a kind"):
            parse_document(text)

    def test_unknown_kind_is_not_encoded(self):
        with pytest.raises(ParseError, match="unknown document kind 'mystery'"):
            docs.encode_document("mystery", unit_mset())

    def test_another_kind_names_the_accepted_kinds_and_the_one_found(self):
        text = serialize_document("mset", unit_mset())
        with pytest.raises(ValidationError) as info:
            parse_document(text, ("partial-injection", "qa-injection"), "f")
        assert str(info.value) == ("document kind partial-injection or "
                                   "qa-injection, found mset at f")

    def test_non_involution_rejected(self):
        payload = {"m": 2, "points": ["a", "b", "c"],
                   "s": [{"a": "b", "b": "c", "c": "a"}]}
        with pytest.raises(ValidationError):
            parse_document(
                canonical_json({"kind": "sigma-set", "payload": payload})
            )

    def test_gap_in_pieces_rejected(self):
        payload = {"pieces": [
            {"lo": 1, "hi": 6, "mod": 1, "res": 0, "a": 1, "b": 0},
            {"lo": 8, "hi": None, "mod": 1, "res": 0, "a": 1, "b": 0},
        ]}
        from tamebox.errors import NotCovering

        with pytest.raises(NotCovering):
            parse_document(
                canonical_json({"kind": "qa-injection", "payload": payload})
            )

    def test_unsorted_element_canonicalized_against_carrier(self):
        from tamebox.documents import ELEMENT, element

        X = injection_mset(2)
        raw = {"level": 2, "image": [4, 1], "point": "a"}
        # the regular degree-2 set uses permutation tuples as points
        raw["point"] = (1, 2)
        got = element(ELEMENT.read(raw, "element"), X)
        assert got.image == (1, 4)
        assert got == X.canonical(2, (4, 1), (1, 2))

    @pytest.mark.parametrize("field", ["N", "stableFrom"])
    @pytest.mark.parametrize("value", [2.5, True, "3"],
                             ids=["float", "bool", "string"])
    def test_integer_fields_are_not_coerced(self, field, value):
        # int() would read each value as a level this diagram accepts
        N = int(value) if field == "N" else 4
        raw = json.loads(serialize_document("iset", representable_iset(1, N)))
        raw["payload"][field] = value
        with pytest.raises(ValidationError, match="integer field"):
            parse_document(canonical_json(raw))

    @pytest.mark.parametrize("ratio", ["1_0/10", " 1/1", "2/2", "3/1",
                                       "1/-2", "+1/2", "1/2 ", "01/2",
                                       "-0/3", "1/"])
    def test_ratio_must_be_as_encoded(self, ratio):
        # int() read the first four as slopes 1, 1, 1 and 3
        payload = {"pieces": [
            {"lo": 1, "hi": None, "mod": 1, "res": 0, "a": ratio, "b": 0},
        ]}
        with pytest.raises(ValidationError, match="ratio"):
            parse_document(
                canonical_json({"kind": "qa-injection", "payload": payload})
            )

    def test_encoded_quasi_affine_injections_round_trip(self):
        # certificate chains hold slots with slopes and offsets "p/q"
        rng = random.Random("documents:ratios")
        values = [random_quasi_affine(rng) for _ in range(100)]
        for _, (phi, psi, A) in agreement_instances(rng, 10):
            cert = certify_agreement(phi, psi, A)
            values += [f for e in cert.chain() for f in e.slots]
            values += [f for step in cert.steps for f in step.move]
        assert any(p.a.denominator > 1 for f in values for p in f.pieces)
        for f in values:
            text = serialize_document("qa-injection", f)
            assert parse_document(text).value == f

    def test_spec_shaped_inputs_accepted(self):
        doc = parse_document(canonical_json({
            "kind": "partial-injection",
            "formatVersion": 1,
            "payload": {"map": {"1": 4, "2": 1}},
        }))
        assert doc.value.mapping == {1: 4, 2: 1}
        doc = parse_document(canonical_json({
            "kind": "qa-injection",
            "payload": {"pieces": [
                {"lo": 1, "hi": None, "mod": 2, "res": 1, "a": 1, "b": 1},
                {"lo": 1, "hi": None, "mod": 2, "res": 0, "a": 1, "b": -1},
            ]},
        }))
        assert doc.value(1) == 2 and doc.value(2) == 1


# -- the bulk reader and writer of pieces ---------------------------------
# `qa-injection` writes and reads its pieces through a fast path; each
# piece must be written as the described `qa-piece` writes it, and read
# as it reads it, or be refused alike.

PIECE = {"lo": 2, "hi": 9, "mod": 3, "res": 1, "a": 2, "b": -1}


def _with(**changes):
    piece = dict(PIECE, **changes)
    return {k: v for k, v in piece.items() if v is not _DROP}


_DROP = object()

PIECES = {
    "integers": PIECE,
    "hi null": _with(hi=None),
    "hi left out": _with(hi=_DROP),
    "lo left out": _with(lo=_DROP),
    "ratio string": _with(a="1/2", b="-3/2"),
    "ratio not in lowest terms": _with(b="4/2"),
    "bool for an integer": _with(mod=True),
    "float for an integer": _with(lo=2.0),
    "float for res": _with(res=1.0),
    "ratio string for a only": _with(a="1/2"),
    "string for hi": _with(hi="9"),
    "extra field": _with(note="ignored"),
    "array for a piece": [2, 9, 3, 1, 2, -1],
    "null for a piece": None,
}


def test_bulk_piece_writer_writes_as_the_description():
    spans = [span for f in (order_embed_avoiding({2, 5}),
                            QuasiAffineInjection.affine(3, -2),
                            random_quasi_affine(random.Random(7)))
             for span in f.spans]
    spans += [(4, None, 3, 7, 2), (2, 8, 2, 5, 6), (1, 1, 1, 9, 1)]
    assert docs._piece_objects(spans) == \
        [docs.QA_PIECE.encode(span) for span in spans]


@pytest.mark.parametrize("case", PIECES)
def test_bulk_piece_reader_reads_as_the_description(case):
    def outcome(read):
        try:
            return [tuple(row) for row in read()]
        except ValidationError as e:
            return e.invariant, e.location

    piece = PIECES[case]
    assert outcome(lambda: docs._piece_rows([piece], "pieces")) == \
        outcome(lambda: [docs.QA_PIECE.read(piece, "pieces")])


# -- the bulk reader of sums -----------------------------------------------
# `monoid` reads its sums through a fast path; each sum must be read as
# the described `sum` reads it, or be refused alike.

SUM = {"a": [1, "a"], "b": [1, "b"],
       "result": {"level": 2, "image": [1, 2], "point": "ab"}}


def _sum_with(**changes):
    out = dict(SUM, **changes)
    return {k: v for k, v in out.items() if v is not _DROP}


def _result_with(**changes):
    result = dict(SUM["result"], **changes)
    return _sum_with(result={k: v for k, v in result.items()
                             if v is not _DROP})


SUMS = {
    "integers": SUM,
    "unsorted image": _result_with(image=[2, 1]),
    "float level": _result_with(level=2.0),
    "bool level": _result_with(level=True),
    "float image entry": _result_with(image=[1, 2.0]),
    "bool image entry": _result_with(image=[True, 2]),
    "string for an image": _result_with(image="12"),
    "null for an image": _result_with(image=None),
    "array for a point": _result_with(point=["ab"]),
    "object for a point": _result_with(point={"ab": 1}),
    "null for a point": _result_with(point=None),
    "point left out": _result_with(point=_DROP),
    "array for a result": _sum_with(result=[2, [1, 2], "ab"]),
    "result left out": _sum_with(result=_DROP),
    "representative of three entries": _sum_with(a=[1, "a", 0]),
    "string of two for a representative": _sum_with(b="1b"),
    "object of two for a representative": _sum_with(a={"m": 1, "r": "a"}),
    "string level of a representative": _sum_with(a=["1", "a"]),
    "bool level of a representative": _sum_with(b=[True, "b"]),
    "array point of a representative": _sum_with(a=[1, ["a"]]),
    "b left out": _sum_with(b=_DROP),
    "extra field": _sum_with(note="ignored"),
    "array for a sum": [[1, "a"], [1, "b"], {"level": 0}],
    "null for a sum": None,
    "string for a sum": "sum",
}


@pytest.mark.parametrize("case", SUMS)
def test_bulk_sum_reader_reads_as_the_description(case):
    def outcome(read):
        try:
            return read()
        except ValidationError as e:
            return e.invariant, e.location

    value = SUMS[case]
    assert outcome(lambda: docs._sum_rows([value], "sums")) == \
        outcome(lambda: [docs.SUM.read(value, "sums")])


# -- boundary refusals ---------------------------------------------------
# One valid document per kind; each refusal below mutates a fresh copy of
# its payload once.  Level k of rep_1 = representable_iset(1, 3) holds
# p0, p1, p2 for the injections with value 1, 2, 3, and each swap table
# s[k][i - 1] of its document moves them as s_i moves the values.

REP = representable_iset(1, 3)
VALID = {
    "iset": REP,
    "sigma-set": trivial_sigma_set(4, ["a", "b", "c"]),
    "morphism": ISetMorphism(REP, REP, [{p: p for p in level}
                                        for level in REP.levels]),
    "monoid": infinite_symmetric_product(["*", "a"], "*", 3),
    "operad-element": OperadElement(disjoint_lanes(2)),
}


def payload_of(kind, value):
    return json.loads(serialize_document(kind, value))["payload"]


def setting(path, value):
    """The mutation that sets the entry at path, a list of keys."""
    def mutate(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value
    return mutate


def deleting(path):
    def mutate(payload):
        for key in path[:-1]:
            payload = payload[key]
        del payload[path[-1]]
    return mutate


def repeating(path, index):
    """The mutation that appends a copy of entry `index` of the list at
    path."""
    def mutate(payload):
        for key in path:
            payload = payload[key]
        payload.append(json.loads(json.dumps(payload[index])))
    return mutate


def both(*mutations):
    def mutate(payload):
        for mutation in mutations:
            mutation(payload)
    return mutate


def unchanged(payload):
    pass


def read(value):
    return value


# (kind, mutation, what is done with the value read, error, invariant:
# the `invariant` of a ValidationError, else the message)
REFUSALS = {
    "iset-span": ("iset", setting(["N"], 4), read,
                  ValidationError, "level data must span 0..N"),
    "iset-stability-range": ("iset", setting(["stableFrom"], 4), read,
                             ValidationError, "stability level out of range"),
    "iset-inclusion-domain": ("iset", deleting(["incl", 2, "p1"]), read,
                              ValidationError, "inclusion domain"),
    # 2 -> 3 and 1 -> 1 at level 2: s_1 does not commute with it
    "iset-inclusion-naturality": ("iset", setting(["incl", 2, "p1"], "p2"),
                                  read, ValidationError,
                                  "inclusion naturality"),
    # both points of level 2 go to 3: natural, but the double inclusion
    # of level 1 lands on 3, which s_2 moves
    "iset-double-inclusion": ("iset", setting(["incl", 2],
                                              {"p0": "p2", "p1": "p2"}),
                              read, ValidationError, "double inclusion"),
    "quotient-seed-outside-its-level": (
        "iset", unchanged,
        lambda X: quotient_iset(X, [(2, "p0", "nowhere")]),
        ValidationError, "seed point in its level"),
    "sigma-bijection": ("sigma-set", setting(["s", 0, "a"], "b"), read,
                        ValidationError, "bijection"),
    # s_1 = (a b) and s_3 = (b c) are involutions that do not commute
    "sigma-commutation": ("sigma-set", both(
        setting(["s", 0], {"a": "b", "b": "a", "c": "c"}),
        setting(["s", 2], {"a": "a", "b": "c", "c": "b"})), read,
        ValidationError, "commutation"),
    "sigma-table-count": ("sigma-set", deleting(["s", 2]), read,
                          ValidationError,
                          "one table per adjacent transposition"),
    "morphism-truncations": ("morphism", setting(
        ["target"], payload_of("iset", representable_iset(1, 2))), read,
        InvalidMorphism, "source and target truncations differ"),
    "morphism-level-count": ("morphism", deleting(["levels", 3]), read,
                             InvalidMorphism,
                             "one level map per level required"),
    "morphism-domain": ("morphism", deleting(["levels", 1, "p0"]), read,
                        InvalidMorphism, "level 1 map domain mismatch"),
    "morphism-outside-target": ("morphism",
                                setting(["levels", 1, "p0"], "nowhere"),
                                read, InvalidMorphism,
                                "level 1 map lands outside target"),
    # 3 -> 1 at level 3 keeps the inclusions natural, but not s_1
    "morphism-transposition-naturality": (
        "morphism", setting(["levels", 3, "p2"], "p0"), read,
        InvalidMorphism, "transposition naturality at level 3"),
    # without sums, no sum result needs level 0 before the check
    "monoid-no-level-0": ("monoid", both(
        deleting(["carrier", "levels", "0"]), setting(["sums"], [])), read,
        ValidationFailed, "no level-0 part to hold the unit"),
    "monoid-unit-missing": ("monoid", setting(["unit"], "nowhere"), read,
                            ValidationFailed,
                            "unit point missing from level 0"),
    "monoid-sum-table": ("monoid", deleting(["sums", -1]), read,
                         ValidationFailed,
                         "sum table must cover exactly the representative "
                         "pairs within the level cap"),
    "monoid-repeated-sum": ("monoid", repeating(["sums"], 0), read,
                            ValidationError,
                            "one sum per representative pair"),
    "operad-arity": ("operad-element", setting(["arity"], 3), read,
                     ValidationError, "arity"),
    "morphism-discriminator": ("morphism", setting(["morphism"], "mset"),
                               read, ValidationError,
                               "morphism discriminator"),
    # an element's fields, as `element` reads them, against a carrier
    # read from a document or against none
    "element-distinct-image-entries": (
        "sigma-set", unchanged, lambda ss: docs.element((2, [1, 1], "a")),
        ValidationError, "distinct image entries"),
    "element-positive-image-entries": (
        "sigma-set", unchanged, lambda ss: docs.element((2, [0, 1], "a")),
        ValidationError, "positive image entries"),
    "element-of-the-carrier": (
        "monoid", unchanged, lambda P: docs.element((1, [1], "b"), P.carrier),
        ValidationError, "element of the carrier"),
    "element-canonical-image-order": (
        "sigma-set", unchanged, lambda ss: docs.element((2, [2, 1], "a")),
        ValidationError, "canonical image order"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_boundary_refuses_each_broken_invariant(case):
    kind, mutate, use, error, invariant = REFUSALS[case]
    payload = payload_of(kind, VALID[kind])
    mutate(payload)
    with pytest.raises(error) as raised:
        use(parse_document(canonical_json(
            {"kind": kind, "payload": payload})).value)
    assert getattr(raised.value, "invariant", str(raised.value)) == invariant
