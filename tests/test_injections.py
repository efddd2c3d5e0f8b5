import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_oracle
from tamebox.errors import (
    ArityMismatch,
    DomainMismatch,
    IndexOutOfRange,
    NotCovering,
    NotInjective,
    TameboxError,
)
from tamebox.generators import disjoint_lanes, random_quasi_affine
from tamebox.injections import (
    OperadElement,
    PartialInjection,
    Piece,
    QuasiAffineInjection,
    _reindex,
    compose_any,
    order_embed_avoiding,
)


def naive_order_embed_avoiding(avoid, upto):
    """Direct list of the first `upto` values of the order embedding."""
    out = []
    v = 0
    for _ in range(upto):
        v += 1
        while v in avoid:
            v += 1
        out.append(v)
    return out


def qa_values(f, upto):
    return [f(i) for i in range(1, upto + 1)]


def complete(f):
    """The total extension of a partial injection sending the
    complement of its domain order-preservingly onto the complement of
    its image."""
    img = set(f.mapping.values())
    bound = max(set(f.mapping) | img, default=0)
    pieces = [Piece(k, k, 1, 0, 1, v - k) for k, v in f.mapping.items()]
    free_targets = iter(sorted(set(range(1, bound + 1)) - img))
    for i in sorted(set(range(1, bound + 1)) - set(f.mapping)):
        pieces.append(Piece(i, i, 1, 0, 1, next(free_targets) - i))
    pieces.append(Piece(bound + 1, None, 1, 0, 1, 0))
    return QuasiAffineInjection(pieces)


def permute(phi, sigma):
    """The right action of a permutation on an operad element: slot k
    becomes slot sigma(k)."""
    if len(sigma) != phi.arity:
        raise ArityMismatch("permutation degree differs from arity")
    return OperadElement(tuple(phi.slots[sigma[k] - 1]
                               for k in range(phi.arity)))


def random_slots(rng):
    """Two to four slots, each a quasi-affine or a partial injection in
    one of one to four residue lanes, every lane taken at least once:
    slots in one lane often share image values, and slots in distinct
    lanes never do."""
    n = rng.randint(2, 4)
    m = rng.randint(1, n)
    lanes = disjoint_lanes(m)
    order = [k % m for k in range(n)]
    rng.shuffle(order)
    slots = []
    for k in order:
        if rng.random() < 0.5:
            slots.append(lanes[k].compose(random_quasi_affine(rng)))
        else:
            keys = rng.sample(range(1, 10), rng.randint(0, 4))
            values = rng.sample(range(1, 10), len(keys))
            slots.append(PartialInjection(
                {a: lanes[k](v) for a, v in zip(keys, values)}))
    return slots


class TestPartialInjection:
    def test_pointwise_composition(self):
        outer = PartialInjection({1: 4, 2: 1})
        inner = PartialInjection({1: 2, 3: 1})
        assert outer.compose(inner) == PartialInjection({1: 1, 3: 4})

    def test_identity_is_neutral(self):
        f = PartialInjection({2: 7, 5: 1})
        ident = PartialInjection.identity_on(f.mapping.values())
        assert ident.compose(f) == f
        assert f.compose(PartialInjection.identity_on(f.mapping)) == f

    def test_composition_needs_covered_image(self):
        with pytest.raises(DomainMismatch):
            PartialInjection({1: 2}).compose(PartialInjection({1: 3}))

    def test_identity_on(self):
        assert PartialInjection.identity_on({1, 2, 3}).mapping == {1: 1, 2: 2, 3: 3}
        assert PartialInjection.identity_on(set()).mapping == {}

    def test_rejects_collisions(self):
        with pytest.raises(NotInjective):
            PartialInjection({1: 3, 2: 3})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PartialInjection({0: 1})
        with pytest.raises(ValueError):
            PartialInjection({1: 0})

    @pytest.mark.parametrize("mapping", [
        {2.5: 3}, {True: 7}, {"3": 4}, {1: 2.0}, {1: False}, {1: "2"},
    ])
    def test_refuses_keys_and_values_that_are_no_ints(self, mapping):
        with pytest.raises(ValueError, match="not a map of integers"):
            PartialInjection(mapping)

    def test_associativity_random(self):
        rng = random.Random(11)
        for _ in range(50):
            vals = rng.sample(range(1, 30), 12)
            f = PartialInjection(dict(zip(vals[0:3], vals[3:6])))
            g = PartialInjection(dict(zip(vals[3:6], vals[6:9])))
            h = PartialInjection(dict(zip(vals[6:9], vals[9:12])))
            assert h.compose(g.compose(f)) == h.compose(g).compose(f)

    def test_complete_extends_and_avoids(self):
        f = PartialInjection({1: 4, 2: 1})
        c = complete(f)
        assert c(1) == 4 and c(2) == 1
        taken = set()
        for i in range(1, 50):
            v = c(i)
            assert v not in taken
            taken.add(v)
        offs = [c(i) for i in range(3, 50)]
        assert offs == sorted(offs)
        assert not set(offs) & {4, 1}


class TestOrderEmbedAvoiding:
    def test_empty_is_identity(self):
        assert order_embed_avoiding(set()) == QuasiAffineInjection.identity()

    def test_single_is_shift(self):
        assert order_embed_avoiding({1}) == QuasiAffineInjection.affine(1, 1)

    def test_two_three_pieces(self):
        f = order_embed_avoiding({2, 3})
        assert f.pieces == (
            Piece(1, 1, 1, 0, 1, 0),
            Piece(2, None, 1, 0, 1, 2),
        )

    def test_against_naive_enumeration(self):
        rng = random.Random(5)
        for _ in range(25):
            avoid = set(rng.sample(range(1, 15), rng.randint(0, 6)))
            f = order_embed_avoiding(avoid)
            assert qa_values(f, 20) == naive_order_embed_avoiding(avoid, 20)

    @pytest.mark.parametrize("avoid", [{0, 3}, {-1}, {2.5, 4}, {True}])
    def test_refuses_values_that_are_no_positive_integers(self, avoid):
        # {0, 3} once gave a map onto omega minus {2, 3}, and {True} the
        # shift by one
        with pytest.raises(ValueError):
            order_embed_avoiding(avoid)


def test_reindex_builds_per_cut_not_per_value():
    """Across one cut at 10**9, every mode of `_reindex` cuts an affine
    map into two spans: what it builds grows with the number of cuts,
    not with their values.  The odd values of f avoid the cut."""
    f = QuasiAffineInjection.affine(2, -1)
    for values in (True, False):
        for collapse in (True, False):
            spans = _reindex(f.spans, [10**9], values, collapse)
            assert len(spans) == 2, (values, collapse)


def random_qa(rng):
    """A random quasi-affine injection, built by composing simple ones."""
    atoms = [
        QuasiAffineInjection.identity(),
        QuasiAffineInjection.affine(2, 0),
        QuasiAffineInjection.affine(2, -1),
        QuasiAffineInjection.affine(3, 1),
        QuasiAffineInjection.affine(1, rng.randint(0, 5)),
        order_embed_avoiding(set(rng.sample(range(1, 10), rng.randint(0, 4)))),
        OperadElement(disjoint_lanes(2)).slot(rng.randint(1, 2)),
    ]
    f = atoms[rng.randrange(len(atoms))]
    for _ in range(rng.randint(0, 2)):
        f = f.compose(atoms[rng.randrange(len(atoms))])
    return f


class TestQuasiAffine:
    @pytest.mark.parametrize("a, b", [(0, 1), (1, -1), (-2, 5), (3, -2)])
    def test_affine_is_the_row_it_names(self, a, b):
        # it must agree with the public constructor on the row, refusals
        # too
        def outcome(build):
            try:
                return build().spans
            except NotInjective as e:
                return str(e)

        assert outcome(lambda: QuasiAffineInjection.affine(a, b)) == \
            outcome(lambda: QuasiAffineInjection([Piece(1, None, 1, 0, a, b)]))

    def test_affine_composition(self):
        double = QuasiAffineInjection.affine(2, 0)
        shift = QuasiAffineInjection.affine(1, 1)
        assert double.compose(shift) == QuasiAffineInjection.affine(2, 2)
        assert len(double.compose(shift).pieces) == 1

    def test_trivial_patch_normalizes_away(self):
        d_plus = QuasiAffineInjection.affine(2, 0)
        patched = QuasiAffineInjection(
            [Piece(1, None, 2, 0, 2, 0), Piece(1, None, 2, 1, 2, 0)]
        )
        assert patched == d_plus
        assert len(patched.pieces) == 1

    def test_involution_composes_to_identity(self):
        # swap odds and evens: a genuine quasi-affine involution
        swap = QuasiAffineInjection(
            [Piece(1, None, 2, 1, 1, 1), Piece(1, None, 2, 0, 1, -1)]
        )
        assert swap.compose(swap) == QuasiAffineInjection.identity()
        for i in range(1, 1001):
            assert swap(swap(i)) == i

    def test_fractional_slope_piece(self):
        # (i+1)/2 on 1 mod 4 fills the odds; the rest spreads over the evens
        f = QuasiAffineInjection(
            [
                Piece(1, None, 4, 1, Fraction(1, 2), Fraction(1, 2)),
                Piece(1, None, 4, 3, 1, 1),
                Piece(1, None, 2, 0, 2, -2),
            ]
        )
        assert [f(i) for i in (1, 5, 9, 13)] == [1, 3, 5, 7]
        assert [f(i) for i in range(1, 9)] == [1, 2, 4, 6, 3, 10, 8, 14]
        # composing onto the fractional piece gives an exactly affine map
        into_piece = QuasiAffineInjection.affine(4, -3)
        assert f.compose(into_piece) == QuasiAffineInjection.affine(2, -1)

    def test_rejects_gap(self):
        with pytest.raises(NotCovering):
            QuasiAffineInjection([Piece(2, None, 1, 0, 1, 0)])

    def test_rejects_overlap(self):
        with pytest.raises(NotCovering):
            QuasiAffineInjection(
                [Piece(1, None, 1, 0, 1, 0), Piece(5, None, 2, 0, 1, 100)]
            )

    def test_rejects_image_collision(self):
        with pytest.raises(NotInjective):
            QuasiAffineInjection(
                [Piece(1, 1, 1, 0, 1, 4), Piece(2, None, 1, 0, 1, 3)]
            )

    def test_long_bounded_piece_is_not_enumerated(self):
        # a bounded piece that the tail map continues leaves no points
        n = 10**12
        f = QuasiAffineInjection(
            [Piece(1, n, 1, 0, 1, 0), Piece(n + 1, None, 1, 0, 1, 0)]
        )
        assert f == QuasiAffineInjection.identity()
        with pytest.raises(NotCovering):
            QuasiAffineInjection(
                [Piece(1, n, 1, 0, 1, 0), Piece(n, None, 1, 0, 1, 1)]
            )

    def test_rejects_values_below_one(self):
        with pytest.raises(NotInjective):
            QuasiAffineInjection([Piece(1, None, 1, 0, 1, -1)])

    @pytest.mark.parametrize("row", [
        Piece(1.9, None, 1, 0, 1, 0), Piece(True, None, 1, 0, 1, 0),
        Piece(1, None, 1.5, 0, 1, 0), Piece(1, None, 1, 0.0, 1, 0),
        Piece(1, 3.0, 1, 0, 1, 0), Piece(1, None, 1, "0", 1, 0),
        Piece("1", None, 1, 0, 1, 0), Piece(1, True, 1, 0, 1, 0),
        Piece(1, "3", 1, 0, 1, 0), Piece(1, None, True, 0, 1, 0),
        Piece(1, None, "1", 0, 1, 0), Piece(1, None, 1, False, 1, 0),
    ], ids=["lo-float", "lo-bool", "mod-float", "res-float", "hi-float",
            "res-str", "lo-str", "hi-bool", "hi-str", "mod-bool", "mod-str",
            "res-bool"])
    def test_refuses_bounds_that_are_no_ints(self, row):
        # read through int(), lo 1.9 was 1 and mod 1.5 was 1
        with pytest.raises(ValueError, match="not an int"):
            QuasiAffineInjection([row, Piece(4, None, 1, 0, 1, 0)])

    @pytest.mark.parametrize("a, b", [
        ("3", 0), (1, True), (2.0, 0), (1, "1/2"), ((2, 1.0), 0),
        ((2.0, 1), 0), ((1, True), 0), (1, (1, 0)), (1, (1, -2)), ((1, 1, 1), 0),
        (1, 0.5),
    ], ids=["a-str", "b-bool", "a-float", "b-ratio-str", "pair-float-den",
            "pair-float-num", "pair-bool-den", "pair-den-0", "pair-den-negative",
            "triple", "b-float"])
    def test_refuses_slopes_and_offsets_that_are_no_ratios(self, a, b):
        # "3", True and 2.0 were read as 3, 1 and 2; (2.0, 1) raised a
        # TypeError
        with pytest.raises(ValueError, match="not an int|unpack"):
            QuasiAffineInjection([Piece(1, None, 1, 0, a, b)])

    def test_reads_rows_only(self):
        # the five integer fields of a span are no row
        with pytest.raises(ValueError):
            QuasiAffineInjection([(1, None, 1, 1, 1)])

    def test_rows_given_as_lists_are_read_as_tuples(self):
        # a list row is read into tuple spans: the injection is hashable
        # and equal to the identity
        f = QuasiAffineInjection([[1, None, 1, 0, 1, 0]])
        assert f == QuasiAffineInjection.identity()
        assert hash(f) == hash(QuasiAffineInjection.identity())

    @pytest.mark.parametrize("rows,message", [
        ([Piece(1, None, 0, 0, 1, 0)], "piece bounds must be positive"),
        ([Piece(0, None, 1, 0, 1, 1)], "piece bounds must be positive"),
        ([Piece(1, None, -1, 0, 1, 0)], "piece bounds must be positive"),
        ([Piece(1, None, 1, 0, 1, 0), Piece(3, 2, 1, 0, 1, 6)], "hi < lo"),
    ], ids=["mod-0", "lo-0", "mod-negative", "hi-below-lo"])
    def test_row_bounds_checked(self, rows, message):
        with pytest.raises(ValueError, match=message):
            QuasiAffineInjection(rows)

    def test_equality_matches_windowed_evaluation(self):
        rng = random.Random(17)
        for _ in range(200):
            f = random_qa(rng)
            g = random_qa(rng)
            bound = max(p.lo for p in f.pieces + g.pieces)
            mods = 1
            for p in f.pieces + g.pieces:
                mods = mods * p.mod // __import__("math").gcd(mods, p.mod)
            window = 10 * max(bound, 1) * mods
            window = min(window, 4000)
            same = qa_values(f, window) == qa_values(g, window)
            assert (f == g) == same

    def test_compose_agrees_pointwise(self):
        rng = random.Random(23)
        for _ in range(100):
            f = random_qa(rng)
            g = random_qa(rng)
            h = f.compose(g)
            for i in range(1, 200):
                assert h(i) == f(g(i))

    @given(st.integers(1, 6), st.integers(0, 9), st.integers(1, 6), st.integers(0, 9))
    def test_affine_compose_law(self, a1, b1, a2, b2):
        f = QuasiAffineInjection.affine(a1, b1)
        g = QuasiAffineInjection.affine(a2, b2)
        assert f.compose(g) == QuasiAffineInjection.affine(a1 * a2, a1 * b2 + b1)

    def test_image_contains(self):
        f = QuasiAffineInjection.affine(2, 0)
        assert qa_oracle.progressions_contain(f, 8)
        assert not qa_oracle.progressions_contain(f, 7)


class TestOperadElement:
    def test_interleave_slots(self):
        s = OperadElement(disjoint_lanes(2))
        assert [s.slot(1)(i) for i in range(1, 5)] == [1, 3, 5, 7]
        assert [s.slot(2)(i) for i in range(1, 5)] == [2, 4, 6, 8]

    def test_slot_range(self):
        with pytest.raises(IndexOutOfRange):
            OperadElement(disjoint_lanes(2)).slot(3)

    def test_arity_one_slot_is_element(self):
        f = QuasiAffineInjection.affine(2, 0)
        e = OperadElement([f])
        assert e.slot(1) == f

    def test_rejects_overlapping_slots(self):
        with pytest.raises(NotInjective):
            OperadElement(
                [QuasiAffineInjection.affine(2, 0), QuasiAffineInjection.affine(4, 0)]
            )
        with pytest.raises(NotInjective):
            OperadElement([PartialInjection({1: 5}), PartialInjection({2: 5})])

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=200)
    @given(st.integers(0, 10**6))
    def test_slot_check_matches_pairwise_oracle(self, seed):
        slots = random_slots(random.Random(f"slots:{seed}"))
        try:
            OperadElement(slots)
            got = None
        except TameboxError as e:
            got = type(e), str(e)
        assert got == qa_oracle.slots_clash(slots)

    def test_unit_laws(self):
        s = OperadElement(disjoint_lanes(2))
        ident = OperadElement([QuasiAffineInjection.identity()])
        assert s.compose([ident, ident]) == s
        assert ident.compose([s]) == s

    def test_nullary_composition_drops_block(self):
        s = OperadElement(disjoint_lanes(2))
        eps = OperadElement([])
        ident = OperadElement([QuasiAffineInjection.identity()])
        e = s.compose([eps, ident])
        assert e.arity == 1
        for j in range(1, 20):
            assert e.slot(1)(j) == s.slot(2)(j)

    def test_composition_formula_blockwise(self):
        rng = random.Random(31)
        for _ in range(20):
            phi = OperadElement([compose_any(lane, random_qa(rng))
                                 for lane in disjoint_lanes(2)])
            psi1 = OperadElement(disjoint_lanes(2))
            psi2 = OperadElement([random_qa(rng)])
            out = phi.compose([psi1, psi2])
            assert out.arity == 3
            for j in range(1, 30):
                assert out.slot(1)(j) == phi.slot(1)(psi1.slot(1)(j))
                assert out.slot(2)(j) == phi.slot(1)(psi1.slot(2)(j))
                assert out.slot(3)(j) == phi.slot(2)(psi2.slot(1)(j))

    def test_associativity_random(self):
        rng = random.Random(41)
        ident = OperadElement([QuasiAffineInjection.identity()])
        for _ in range(20):
            phi = OperadElement(disjoint_lanes(2))
            psi = OperadElement([compose_any(lane, random_qa(rng))
                                 for lane in disjoint_lanes(2)])
            chi = OperadElement([random_qa(rng)])
            lhs = phi.compose([psi, ident]).compose([chi, ident, ident])
            rhs = phi.compose([psi.compose([chi, ident]), ident])
            assert lhs == rhs

    def test_symmetric_equivariance(self):
        # (phi sigma)(k, i) = phi(sigma(k), i)
        rng = random.Random(43)
        for _ in range(20):
            phi = OperadElement([compose_any(lane, random_qa(rng))
                                 for lane in disjoint_lanes(2)])
            swapped = permute(phi, (2, 1))
            for j in range(1, 30):
                assert swapped.slot(1)(j) == phi.slot(2)(j)
                assert swapped.slot(2)(j) == phi.slot(1)(j)
            assert permute(swapped, (2, 1)) == phi

    def test_block_equivariance_of_composition(self):
        # gamma(phi sigma; parts permuted) = gamma(phi; parts) block-permuted
        f = QuasiAffineInjection.affine(4, 0)
        g = QuasiAffineInjection.affine(4, -2)
        h = QuasiAffineInjection.affine(2, -1)
        phi = OperadElement(disjoint_lanes(2))
        p1 = OperadElement([f, g])
        p2 = OperadElement([h])
        lhs = permute(phi, (2, 1)).compose([p2, p1])
        rhs = phi.compose([p1, p2])
        # block permutation for sigma=(2 1) with arities (2,1): (3,1,2)
        assert lhs.slots == (rhs.slots[2], rhs.slots[0], rhs.slots[1])

    def test_arity_mismatch(self):
        s = OperadElement(disjoint_lanes(2))
        with pytest.raises(ArityMismatch):
            s.compose([s])


# ---------------------------------------------------------------------
# operad composition across the two representations


def _pointwise(outer, inner):
    """outer after inner on the keys of a partial inner."""
    return PartialInjection({k: outer(v) for k, v in inner.mapping.items()})


def test_mixed_slots_compose_as_their_values_do():
    # a total outer slot after partial inner ones is partial, defined
    # where the inner one is
    lanes = OperadElement(disjoint_lanes(2))
    parts = [OperadElement([PartialInjection({1: 3, 2: 1}),
                            PartialInjection({1: 2})]),
             OperadElement([PartialInjection({1: 1})])]
    got = lanes.compose(parts)
    assert got.slots == tuple(_pointwise(lanes.slot(m + 1), inner)
                              for m, part in enumerate(parts)
                              for inner in part.slots)
    assert got.slots[0] == PartialInjection({1: 5, 2: 1})
    moves = [PartialInjection({1: 2}), PartialInjection({1: 1, 2: 3})]
    assert lanes.precompose(moves).slots == tuple(
        _pointwise(s, f) for s, f in zip(lanes.slots, moves))
    partial = OperadElement([PartialInjection({1: 3}),
                             PartialInjection({2: 4})])
    shift = QuasiAffineInjection.affine(1, 1)
    assert partial.postcompose(shift).slots == (
        PartialInjection({1: 4}), PartialInjection({2: 5}))


def test_partial_slot_after_a_total_one_is_refused():
    lanes = OperadElement(disjoint_lanes(2))
    with pytest.raises(DomainMismatch, match="total injection under a partial"):
        lanes.postcompose(PartialInjection({1: 1}))
    with pytest.raises(DomainMismatch, match="total injection under a partial"):
        compose_any(PartialInjection({1: 1}), QuasiAffineInjection.identity())


@pytest.mark.parametrize("build,error", [
    (lambda s: OperadElement([s.slot(1), {1: 1}]), ValueError),
    (lambda s: s.precompose([QuasiAffineInjection.identity()]),
     ArityMismatch),
], ids=["bad-slot", "precompose-arity"])
def test_operad_element_refusals(build, error):
    with pytest.raises(error):
        build(OperadElement(disjoint_lanes(2)))


def test_injections_hash_and_show_as_their_values():
    f = PartialInjection({2: 5, 1: 3})
    assert 2 in f and 3 not in f
    assert hash(f) == hash(PartialInjection({1: 3, 2: 5}))
    assert repr(f) == "PartialInjection({1->3, 2->5})"
    with pytest.raises(DomainMismatch, match="3 not in domain"):
        f(3)
    g = QuasiAffineInjection.affine(2, 0)
    assert repr(g) == f"QuasiAffineInjection({list(g.pieces)!r})"
    with pytest.raises(DomainMismatch, match="0 is not a positive natural"):
        g(0)
    e = OperadElement([f, g.compose(QuasiAffineInjection.affine(1, 5))])
    assert hash(e) == hash(OperadElement(list(e.slots)))
    assert repr(e) == f"OperadElement({list(e.slots)!r})"


def test_bounded_piece_meeting_a_class_once_is_read_there():
    # 1 -> 1 and 3 -> 2 on the odd points up to 3, slope 1/2; past them
    # the period-4 tail swaps 4k+2 and 4k+3.  Each residue class mod 4
    # meets the bounded piece in one point at most, where the tail map
    # of that class agrees with it (1) or not (3)
    half = Fraction(1, 2)
    rows = [Piece(1, 3, 2, 1, half, half), Piece(2, None, 4, 2, 1, 1),
            Piece(4, None, 4, 0, 1, 0), Piece(5, None, 4, 1, 1, 0),
            Piece(7, None, 4, 3, 1, -1)]
    f = QuasiAffineInjection(rows)
    expected = {1: 1, 3: 2}
    for i in range(2, 41):
        if i not in expected:
            expected[i] = i + 1 if i % 4 == 2 else i - 1 if i % 4 == 3 else i
    assert [f(i) for i in range(1, 41)] == [expected[i] for i in range(1, 41)]
    assert f.pieces == qa_oracle.normalize(rows)
