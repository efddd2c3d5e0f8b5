"""The integer quasi-affine kernel of tamebox.injections against the
rational kernel kept in qa_oracle.

Compared: normal forms (or the class of error a faulty piece list
raises), composition, image membership and image disjointness, on
random piece lists, on spoiled normal forms, on the outputs of the
certificate helpers of tamebox.opalg, and on every chain element and
move of the certificates acceptance criterion 8 builds.  Documents of
quasi-affine injections decode to the value written, and spoiled ones
keep the errors of the Fraction-based reader."""

import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_oracle as oracle
from tamebox import injections
from tamebox.documents import (
    QA_PIECE,
    _piece_rows,
    _ratio_out,
    canonical_json,
    parse_document,
    serialize_document,
)
from tamebox.errors import (
    NotCovering,
    NotInjective,
    TameboxError,
    ValidationError,
)
from tamebox.generators import disjoint_lanes, random_quasi_affine
from tamebox.injections import (
    OperadElement,
    Piece,
    QuasiAffineInjection,
    _clashing_slots,
    _piece,
    _reindex,
    _transported,
    order_embed_avoiding,
)
from tamebox.opalg import (
    _merge_even_odd,
    _widen,
    certify_agreement,
)
from tamebox.selftest import agreement_instances

kernel_settings = settings(derandomize=True, deadline=None, database=None,
                           max_examples=200)

seeds = st.integers(0, 10**6)


def outcome(build):
    """What a construction gives: its pieces, or the class of its error."""
    try:
        return build()
    except (NotCovering, NotInjective, ValueError) as e:
        return type(e)


def random_qa(rng):
    """A quasi-affine injection from the generator family, passed
    through up to two certificate helpers or lane placements, so that
    periods above one and long point heads occur."""
    f = random_quasi_affine(rng)
    s = OperadElement(disjoint_lanes(2))
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(5)
        if kind == 0:
            f = s.slot(rng.randint(1, 2)).compose(f)
        elif kind == 1:
            f = order_embed_avoiding(rng.sample(range(1, 12), 3)).compose(f)
        elif kind == 2:
            g = random_quasi_affine(rng)
            f = _merge_even_odd(s.slot(2).compose(f), s.slot(1).compose(g))
        elif kind == 3:
            f = _widen(f, rng.choice((10, 21)))[1]
        else:
            free = [v for v in range(1, 12)
                    if not oracle.progressions_contain(f, v)]
            f = QuasiAffineInjection._built(
                _reindex(f.spans, free, values=True, collapse=True))
    return f


def refine(rng, p):
    """Cut a piece into pieces describing the same map."""
    lo, hi, mod, res, a, b = p
    k = rng.choice((1, 1, 2, 3))
    parts = [Piece(lo, hi, k * mod, res + j * mod, a, b) for j in range(k)]
    if rng.random() < 0.4:
        lo2, hi2, mod2, res2, _, _ = part = rng.choice(parts)
        cut = lo2 + rng.randint(1, 3 * mod2)
        if hi2 is None or cut <= hi2:
            parts.remove(part)
            parts += [Piece(lo2, cut - 1, mod2, res2, a, b),
                      Piece(cut, hi2, mod2, res2, a, b)]
    return parts


def spoil(rng, pieces):
    """One edit that may break coverage, injectivity, integrality or
    the bounds of a piece; returns the number (0-7) of the edit."""
    i = rng.randrange(len(pieces))
    lo, hi, mod, res, a, b = p = pieces[i]
    edit = rng.randrange(8)
    if edit == 0:
        del pieces[i]
    elif edit == 1:
        pieces.append(p)
    elif edit == 2:
        pieces[i] = p._replace(b=b + rng.choice((-3, -2, -1, 1, 2, 3)))
    elif edit == 3:
        half = Fraction(1, 2)
        pieces[i] = p._replace(a=a * half) if rng.random() < 0.5 else \
            p._replace(b=b + half)
    elif edit == 4:
        pieces[i] = p._replace(a=rng.choice((0, -1, -a)))
    elif edit == 5:
        pieces[i] = p._replace(mod=mod + rng.randint(1, 2))
    elif edit == 6:
        pieces[i] = p._replace(lo=rng.choice((0, lo + rng.randint(1, 4))))
    else:
        pieces[i] = p._replace(hi=lo - 1 if rng.random() < 0.5 else
                               (lo + rng.randint(0, 5) if hi is None else None))
    return edit


def random_pieces(rng):
    if rng.random() < 0.15:
        # a short list drawn from scratch, valid only by chance
        return [
            Piece(rng.randint(1, 4), rng.choice((None, rng.randint(1, 6))),
                  rng.randint(1, 3), rng.randint(0, 2),
                  rng.choice((1, 1, 2, Fraction(1, 2))),
                  rng.randint(-2, 3))
            for _ in range(rng.randint(0, 4))
        ]
    pieces = [q for p in random_qa(rng).pieces for q in refine(rng, p)]
    if rng.random() < 0.6:
        spoil(rng, pieces)
    rng.shuffle(pieces)
    return pieces


@kernel_settings
@given(seeds)
def test_normal_form_matches_oracle(seed):
    pieces = random_pieces(random.Random(f"qa:pieces:{seed}"))
    assert outcome(lambda: QuasiAffineInjection(pieces).pieces) == \
        outcome(lambda: oracle.normalize(pieces))


def test_random_pieces_reach_every_outcome():
    seen = {outcome(lambda: type(QuasiAffineInjection(random_pieces(
        random.Random(f"qa:pieces:{seed}")))))
        for seed in range(300)}
    assert seen == {QuasiAffineInjection, NotCovering, NotInjective, ValueError}


def shaped_spans(rng):
    """The spans of a normal form in order, with one edit: the tail
    split into two classes (period not minimal), a tail offset changed,
    a point value moved onto another image, or the last point moved
    onto its tail map (threshold not minimal).  The edited spans keep
    the normal shape unless a value drops below one."""
    f = random_qa(rng)
    spans = list(f.spans)
    p = spans[-1][2]
    t = len(spans) - p + 1
    edit = rng.randrange(4 if t > 1 else 2)
    if edit == 0:
        spans[t - 1:] = [(lo + k * p, None, 2 * p, v + k * s, 2 * s)
                         for k in (0, 1) for lo, _, _, v, s in spans[t - 1:]]
    elif edit == 1:
        i = rng.randrange(t - 1, len(spans))
        first, last, mod, v, s = spans[i]
        spans[i] = (first, last, mod, v + rng.choice((-3, -2, -1, 1, 2, 3)), s)
    elif edit == 2:
        i = rng.randrange(1, t)
        spans[i - 1] = (i, i, 1, f(rng.choice(
            [j for j in range(1, t + 2 * p) if j != i])), 1)
    else:
        # the last tail span starts at t - 1 + p, in the class of t - 1
        _, _, _, v, s = spans[-1]
        spans[t - 2] = (t - 1, t - 1, 1, v - s, 1)
    return spans


def takes_shaped_path(rows):
    """Whether the construction skips the domain checks: it then tests
    overlaps only once, for the images, and never fails to cover."""
    with mock.patch.object(injections, "_first_overlap",
                           wraps=injections._first_overlap) as spy:
        got = outcome(lambda: QuasiAffineInjection(rows))
    return spy.call_count == 1 and got is not NotCovering


def shaped_rows(seed):
    """The spans of `shaped_spans` as the rows a document reads for
    them, with a and b as integer pairs."""
    spans = shaped_spans(random.Random(f"qa:shaped-rows:{seed}"))
    return spans, _piece_rows([QA_PIECE.encode(sp) for sp in spans], "pieces")


@kernel_settings
@given(seeds)
def test_shaped_rows_match_the_full_checks_and_the_oracle(seed):
    """Rows in the normal shape skip the coverage checks; the reader
    finds the shape `_normal_shape` finds in their spans, which pass
    the full checks, and what they build, or the error they raise, is
    that of the oracle."""
    spans, rows = shaped_rows(seed)
    got = outcome(lambda: injections._spans_of_rows(rows))
    if type(got) is tuple:
        assert got == (spans, injections._normal_shape(spans))
        injections._check_cover(spans, [injections._image(sp) for sp in spans],
                                shaped=False)
    assert outcome(lambda: QuasiAffineInjection(rows).pieces) == \
        outcome(lambda: oracle.normalize([_piece(sp) for sp in spans]))


def test_shaped_rows_mostly_take_the_shaped_path():
    taken = [takes_shaped_path(shaped_rows(seed)[1]) for seed in range(200)]
    assert 100 <= sum(taken) < 200
    rows = [(lo, hi, mod, res, a.as_integer_ratio(), b.as_integer_ratio())
            for lo, hi, mod, res, a, b in random_pieces(
                random.Random("qa:pieces:0"))]
    assert not takes_shaped_path(rows)


@pytest.mark.parametrize("spans, row", [
    # a point row whose residue misses its lo describes no point: the
    # reader drops the row and finds a gap where it was
    (order_embed_avoiding({3}).spans, (1, 1, 2, 0, (1, 1), (0, 1))),
    # an unbounded row of the odd numbers whose residue is even starts
    # at 2, on the domain of the other row
    (((1, None, 2, 1, 2), (2, None, 2, 4, 4)),
     (1, None, 2, 0, (1, 1), (0, 1))),
    # a point row widened to a range reaches the next point
    (order_embed_avoiding({3}).spans, (1, 2, 1, 0, (1, 1), (0, 1))),
])
def test_shaped_rows_off_their_residue_are_refused(spans, row):
    rows = _piece_rows([QA_PIECE.encode(sp) for sp in spans], "pieces")
    assert injections._spans_of_rows(rows)[1]
    rows[0] = row
    assert outcome(lambda: QuasiAffineInjection(rows)) is NotCovering


def pieces_document(pieces):
    def ratio(x):
        return _ratio_out(*Fraction(x).as_integer_ratio())

    return canonical_json({"kind": "qa-injection", "formatVersion": 1,
                           "payload": {"pieces": [
                               {"lo": lo, "hi": hi, "mod": mod, "res": res,
                                "a": ratio(a), "b": ratio(b)}
                               for lo, hi, mod, res, a, b in pieces]}})


@kernel_settings
@given(seeds)
def test_documents_decode_to_the_value_written(seed):
    f = random_qa(random.Random(f"qa:documents:{seed}"))
    assert parse_document(serialize_document("qa-injection", f)).value == f


# sha256 of the outcomes of test_spoiled_documents_keep_their_errors,
# recorded when the decoder still read ratios as Fractions
SPOILED_DOCUMENTS_SHA256 = (
    "964967d47407bca39214de63680709c8db5e33641cfa669c777a0daaa871f4af"
)


def test_spoiled_documents_keep_their_errors():
    """Every spoiling edit, written as a document, gets the error class
    and message (or the value) the Fraction reader gave: the checks run
    in the same order."""
    outcomes, edits = [], set()
    for seed in range(300):
        rng = random.Random(f"qa:spoiled-documents:{seed}")
        pieces = [q for p in random_qa(rng).pieces for q in refine(rng, p)]
        edits.add(spoil(rng, pieces))
        rng.shuffle(pieces)
        try:
            value = parse_document(pieces_document(pieces)).value
            outcomes.append(serialize_document("qa-injection", value))
        except TameboxError as e:
            outcomes.append(f"{type(e).__name__}: {e}")
    assert edits == set(range(8))
    assert {o.split(":")[0] for o in outcomes} >= {
        c.__name__ for c in (NotCovering, NotInjective, ValidationError)}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == SPOILED_DOCUMENTS_SHA256


@kernel_settings
@given(seeds)
def test_compose_matches_oracle(seed):
    rng = random.Random(f"qa:compose:{seed}")
    f, g = random_qa(rng), random_qa(rng)
    identity = QuasiAffineInjection.identity()
    for outer, inner in ((f, g), (identity, g), (f, identity)):
        assert outer.compose(inner).pieces == \
            oracle.compose(outer.pieces, inner.pieces)


@kernel_settings
@given(seeds)
def test_images_match_oracle(seed):
    rng = random.Random(f"qa:images:{seed}")
    f, g = random_qa(rng), random_qa(rng)
    if rng.random() < 0.5:
        s = OperadElement(disjoint_lanes(2))
        f, g = s.slot(1).compose(f), s.slot(2).compose(g)
    for v in range(1, 80):
        assert oracle.progressions_contain(f, v) == \
            oracle.image_contains(f.pieces, v)
    assert (_clashing_slots((f, g)) is None) == \
        oracle.images_disjoint(f.pieces, g.pieces)


@kernel_settings
@given(seeds)
def test_certificate_helpers_match_oracle(seed):
    rng = random.Random(f"qa:helpers:{seed}")
    u, w = random_qa(rng), random_qa(rng)
    move, widened = _widen(u, rng.choice((10, 21, 36, 55)))
    assert widened.pieces == oracle.compose(u.pieces, move.pieces)
    assert len(widened.spans) == 1
    assert outcome(lambda: _merge_even_odd(u, w).pieces) == \
        outcome(lambda: oracle.merge_even_odd(u.pieces, w.pieces))
    s = OperadElement(disjoint_lanes(2))
    assert _merge_even_odd(s.slot(2).compose(u), s.slot(1).compose(w)).pieces \
        == oracle.merge_even_odd(s.slot(2).compose(u).pieces,
                                 s.slot(1).compose(w).pieces)
    # each mode of _reindex against the construction it replaced, on cut
    # sets with values up to about 10**3
    bound = rng.choice((25, 1000))
    cuts = sorted(rng.sample(range(1, bound), rng.randint(0, 4)))
    e = order_embed_avoiding(cuts)

    def reindexed(spans, values, collapse):
        return QuasiAffineInjection._built(
            _reindex(spans, cuts, values=values, collapse=collapse))

    assert reindexed(w.spans, values=True, collapse=False) == e.compose(w)
    assert reindexed(w.spans, values=False, collapse=True) == w.compose(e)
    free = [v for v in rng.sample(range(1, bound), 8)
            if not oracle.progressions_contain(u, v)]
    avoid = set(rng.sample(free, min(len(free), rng.randint(0, 3))))
    if rng.random() < 0.2:
        avoid.add(u(rng.randint(1, 5)))
    assert outcome(lambda: QuasiAffineInjection._built(_reindex(
        u.spans, sorted(avoid), values=True, collapse=True)).pieces) == \
        outcome(lambda: oracle.drop_values(u.pieces, avoid))
    # a move fixing the cuts, by its definition
    lifted = _transported(w, cuts, {a: a for a in cuts})
    assert lifted.compose(e) == e.compose(w) and lifted.fixes_pointwise(cuts)
    # _transported against the two-step construction it replaced:
    # composition with order_embed_avoiding(over), then the oracle's
    # inflation along e_A, A the keys of the pins, on cuts, keys and
    # pinned values up to about 10**3.  The oracle pairs every piece of
    # e_A with every piece of its target, and checks its output pair by
    # pair, so both reach it as runs
    over = sorted(rng.sample(range(1, bound), rng.randint(0, 4)))
    keys = rng.sample(range(1, bound), min(len(over), rng.randint(0, 3)))
    pinned = dict(zip(keys, rng.sample(over, len(keys))))
    target = order_embed_avoiding(over).compose(w)
    lifted = _transported(w, over, pinned)
    assert lifted.pieces == oracle.inflate_along(
        runs(order_embed_avoiding(keys), unit=True), runs(target), pinned)


def runs(f, unit=False):
    """Pieces describing f with its points merged, class by class
    modulo its period, into runs along which f is increasing and
    affine, with slope one when `unit`: a few pieces per affine
    stretch, however large its values."""
    p = f.spans[-1][2]
    n = len(f.spans) - p  # f's points are 1, ..., n
    pieces = [_piece(sp) for sp in f.spans[n:]]
    for i in range(1, min(p, n) + 1):
        while i <= n:
            d, j = f(i + p) - f(i), i
            while (d == p if unit else d > 0) and j + p <= n \
                    and f(j + p) - f(j) == d:
                j += p
            pieces.append(_piece((i, j, p, f(i), d) if j > i
                                 else (i, i, 1, f(i), 1)))
            i = j + p
    return pieces


def test_criterion_8_chains_match_oracle():
    """Every chain element, slot and move of criterion 8's certificates
    is an oracle normal form, every step holds under oracle composition,
    and the slots of every element have disjoint images."""
    normal = {}

    def pieces(f):
        p = f.pieces
        if p not in normal:
            normal[p] = oracle.normalize(p)
        assert normal[p] == p
        return p

    rng = random.Random("acceptance:certs")
    for case, (phi, psi, constraints) in enumerate(
            agreement_instances(rng, 50)):
        cert = certify_agreement(phi, psi, constraints)
        chain = cert.chain()
        for e in chain:
            slots = [pieces(s) for s in e.slots]
            for i in range(len(slots)):
                for j in range(i + 1, len(slots)):
                    assert oracle.images_disjoint(slots[i], slots[j]), \
                        f"instance {case}"
        for idx, step in enumerate(cert.steps):
            src, dst = chain[idx], chain[idx + 1]
            if step.direction == "bwd":
                src, dst = dst, src
            for s, f, t, A in zip(src.slots, step.move, dst.slots,
                                  cert.constraints):
                moved = oracle.compose(pieces(s), pieces(f))
                assert moved == pieces(t), f"instance {case}, step {idx}"
                assert all(oracle.evaluate(f.pieces, a) == a for a in A)
