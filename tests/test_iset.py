import random
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colimit_oracle as oracle
from corpus import late_pairs
from test_mset import sample_mset, unit_mset
from tamebox import iset
from tamebox.errors import (
    DegreeTooLarge,
    InvalidMorphism,
    NotTame,
    TruncationExceeded,
    ValidationError,
)
from tamebox.generators import random_iset
from tamebox.iset import (
    ISetMorphism,
    OmegaColimit,
    canonicalize,
    constant_iset,
    day_convolution,
    faithful_extension,
    flat_replacement,
    is_flat,
    latching,
    mono_pushout_injective,
    n_iso_check,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
    TruncatedISet,
)
from tamebox.mset import (
    CanonicalTameMSet,
    box,
    box_pair,
    box_split,
    injection_mset,
    mset_iso_equal,
    support,
)
from tamebox.sigma import induce, iso_equal, trivial_sigma_set


def class_support(colim, c):
    """The support of a colimit class: the image of its element."""
    return support(colim.class_to_element(c))


def box_projections(XY, X, Y):
    """The projections of a convolution of X and Y at their truncation
    onto X and Y, through the public constructor, which checks that
    they are natural: a point z, a box element of the generators, goes
    to each part of `box_split(z)` moved into z's level."""
    def project(i, Z):
        maps = []
        for n, level in enumerate(XY.levels):
            parts = [box_split(z)[i] for z in level]
            maps.append({z: Z.map_along(e.image, n, e.point)
                         for z, e in zip(level, parts)})
        return ISetMorphism(XY, Z, maps)

    return project(0, X), project(1, Y)


class TestValidation:
    def test_representable_passes(self):
        for m in range(0, 3):
            representable_iset(m, 4)

    def test_stability_declaration_checked(self):
        X = representable_iset(1, 3)
        with pytest.raises(ValidationError):
            TruncatedISet(3, X.levels, X.incl, X.transp, 0)

    @pytest.mark.parametrize("N, stable_from", [
        (True, None), (1.0, None), (1, True), (1, 0.0),
    ], ids=["N-bool", "N-float", "stable-bool", "stable-float"])
    def test_refuses_levels_that_are_no_ints(self, N, stable_from):
        # N = True and the stability levels True and 0.0 were kept as
        # given; N = 1.0 raised a TypeError
        X = constant_iset(["p"], 1)
        with pytest.raises(ValidationError):
            TruncatedISet(N, X.levels, X.incl, X.transp, stable_from)

    def test_minimal_stable_from(self):
        # with no declared level the validator keeps the least that holds
        for D, s in ((representable_iset(2, 4), 2),
                     (constant_iset(["p", "q"], 3), 0)):
            found = TruncatedISet(D.N, D.levels, D.incl, D.transp)
            assert found.stable_from == s == oracle.minimal_stable_from(
                D.N, D.levels, D.incl, D.transp)


class TestOmegaColimit:
    def test_representable_classes_are_values(self):
        X = representable_iset(1, 4)
        colim = OmegaColimit(X)
        # injections {1} -> {1..4} up to extension: one class per target
        assert len(colim.classes) == 4

    def test_constant_one_class_per_point(self):
        C = constant_iset(["p", "q"], 3)
        colim = OmegaColimit(C)
        assert len(colim.classes) == 2

    @pytest.mark.parametrize("X", [
        representable_iset(2, 5), constant_iset(["p", "q"], 3),
        restriction_coequalizer(4),
    ], ids=["representable", "constant", "coequalizer"])
    def test_inclusions_keep_the_class(self, X):
        # a node and its image along the inclusion name one class, and
        # the classes are the points of the top level
        colim = OmegaColimit(X)
        for m in range(X.N):
            for x in X.levels[m]:
                assert colim.root[m, x] == colim.root[m + 1, X.incl[m][x]]
        assert sorted(colim.root[X.N, p] for p in X.levels[X.N]) == sorted(
            colim.classes)

    def test_supports(self):
        X = representable_iset(2, 5)
        colim = OmegaColimit(X)
        assert class_support(colim, colim.root[2, (1, 2)]) == {1, 2}
        assert class_support(colim, colim.root[4, (4, 2)]) == {2, 4}

    def test_level_zero_support_empty(self):
        C = constant_iset(["p"], 3)
        colim = OmegaColimit(C)
        assert class_support(colim, colim.classes[0]) == frozenset()

    def test_coequalizer_class_supported_nowhere(self):
        # one class, empty support, despite having no level-0 member
        Q = restriction_coequalizer(4)
        assert Q.levels[0] == []
        colim = OmegaColimit(Q)
        assert len(colim.classes) == 1
        assert class_support(colim, colim.classes[0]) == frozenset()


class TestCanonicalize:
    def test_representable(self):
        for m in range(0, 3):
            out = canonicalize(representable_iset(m, 2 * m if m else 1))
            assert mset_iso_equal(out, injection_mset(m))

    def test_constant_singleton(self):
        out = canonicalize(constant_iset(["*"], 2))
        assert mset_iso_equal(out, unit_mset())

    def test_coequalizer_is_point(self):
        out = canonicalize(restriction_coequalizer(4))
        assert mset_iso_equal(out, unit_mset())

    def test_precondition(self):
        with pytest.raises(TruncationExceeded):
            canonicalize(representable_iset(2, 3))

    @pytest.mark.parametrize("build", [canonicalize, flat_replacement])
    def test_precondition_names_the_stability_level(self, build):
        # flat_replacement's message used to stop before the level
        with pytest.raises(TruncationExceeded,
                           match="^truncation 3 below twice the stability "
                                 "level 2$"):
            build(representable_iset(2, 3))

    @pytest.mark.parametrize("build", [canonicalize, flat_replacement])
    def test_degree_bound(self, build):
        # the bound is checked before a level of the colimit is built
        with pytest.raises(DegreeTooLarge,
                           match="^level 1 beyond degree bound 0$"):
            build(representable_iset(1, 2), degree_bound=0)
        build(representable_iset(1, 2), degree_bound=1)

    def test_round_trip_with_filtration(self):
        W = sample_mset()
        X = support_filtration(W, 4)
        assert mset_iso_equal(canonicalize(X), W)

    def test_class_first_seen_above_its_support(self):
        # the swap of {1, 2} acts on the class's representative at
        # level 3, so it must be defined on {1..3}
        X = late_pairs(6)
        point = CanonicalTameMSet({2: trivial_sigma_set(2, ["*"])})
        assert mset_iso_equal(canonicalize(X), point)
        flat, eta = flat_replacement(X)
        assert mset_iso_equal(canonicalize(flat), point)
        assert n_iso_check(eta) and not eta.level_bijective()


class TestFiltration:
    def test_injection_level_sizes(self):
        X = support_filtration(injection_mset(1), 4)
        assert [len(l) for l in X.levels] == [0, 1, 2, 3, 4]

    def test_unit_constant(self):
        X = support_filtration(unit_mset(), 3)
        assert [len(l) for l in X.levels] == [1, 1, 1, 1]

    def test_always_flat(self):
        for W in (sample_mset(), injection_mset(2), unit_mset()):
            X = support_filtration(W, 4)
            assert is_flat(X, "both").flat

    def test_counit_bijection(self):
        # a filtration class holds one element of W; sending the class
        # to it is a bijection onto the window table
        W = sample_mset()
        X = support_filtration(W, 4)
        colim = OmegaColimit(X)
        elements = {root_point for (_, root_point) in colim.classes}
        assert elements == set(W.elements_up_to(4))
        assert len(colim.classes) == len(W.elements_up_to(4))


class TestLatching:
    def test_level_zero_empty(self):
        X = representable_iset(1, 3)
        assert latching(X, 0).classes == []

    def test_representable_level_one(self):
        X = representable_iset(1, 3)
        data = latching(X, 1)
        assert data.classes == []
        assert data.injective

    def test_coequalizer_witness_at_two(self):
        Q = restriction_coequalizer(4)
        data = latching(Q, 2)
        assert len(data.classes) == 2
        assert not data.injective
        assert data.witness[0] == 2


class TestFlatness:
    def test_representables_flat(self):
        for m in range(0, 3):
            assert is_flat(representable_iset(m, 4), "both").flat

    def test_constant_flat(self):
        assert is_flat(constant_iset(["p", "q"], 3), "both").flat

    def test_coequalizer_not_flat_both_modes(self):
        Q = restriction_coequalizer(4)
        lat = is_flat(Q, "latching")
        direct = is_flat(Q, "direct")
        assert not lat.flat and not direct.flat
        assert lat.witness[0] == 2
        # the one generator, (1,) at level 1, counts two points at level
        # 2, one along each face, but (1,) and (2,) are one point there
        assert direct.witness == ("count", 2, 1, 2)

    def test_modes_agree_on_quotients(self):
        X = support_filtration(sample_mset(), 4)
        Q = quotient_iset(X, [(1, X.levels[1][0], X.levels[1][1])])
        assert is_flat(Q, "latching").flat == is_flat(Q, "direct").flat


class TestAdjunction:
    def test_unit_bijective_iff_flat(self):
        flat = support_filtration(sample_mset(), 4)
        _, eta = flat_replacement(flat)
        assert eta.level_bijective()
        Q = restriction_coequalizer(4)
        _, etaq = flat_replacement(Q)
        assert not etaq.level_bijective()

    def test_unit_is_colimit_bijection(self):
        for X in (
            support_filtration(sample_mset(), 4),
            restriction_coequalizer(4),
            representable_iset(1, 4),
        ):
            _, eta = flat_replacement(X)
            assert n_iso_check(eta)

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=100)
    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_n_iso_matches_two_colimit_oracle(self, seed, N):
        # the unit and the identity are colimit bijections, the inclusion
        # into X with one more point is not, and the map onto one point
        # is one exactly when the colimit has a single class, which the
        # top level may not show when its points merge past it
        X = random_iset(random.Random(seed), N, N // 2)
        _, eta = flat_replacement(X)
        ident = ISetMorphism(X, X, [{p: p for p in l} for l in X.levels])
        point = constant_iset(["*"], N)
        collapse = ISetMorphism(X, point, [{p: "*" for p in l}
                                           for l in X.levels])
        assert all("*" not in l for l in X.levels)
        wider = TruncatedISet(
            N, [l + ["*"] for l in X.levels],
            [{**d, "*": "*"} for d in X.incl],
            [[{**t, "*": "*"} for t in ts] for ts in X.transp])
        extra = ISetMorphism(X, wider, ident.maps)
        for f in (eta, ident, collapse, extra):
            assert n_iso_check(f) == oracle.n_iso_check(f)
        assert n_iso_check(eta) and n_iso_check(ident)
        assert not n_iso_check(extra)

    def test_coequalizer_replacement_is_constant_point(self):
        Q = restriction_coequalizer(4)
        flat, eta = flat_replacement(Q)
        assert [len(l) for l in flat.levels] == [1, 1, 1, 1, 1]
        assert len(Q.levels[0]) == 0

    def test_identity_is_n_iso(self):
        X = representable_iset(1, 3)
        ident = ISetMorphism(X, X, [{p: p for p in l} for l in X.levels])
        assert n_iso_check(ident)

    def test_levelwise_comparison_of_representables(self):
        # restriction along {1} -> {1,2} is not levelwise bijective,
        # and on truncated colimit classes it is not a bijection either
        # (target classes outnumber source classes inside the window)
        X2 = representable_iset(2, 4)
        X1 = representable_iset(1, 4)
        maps = [
            {t: (t[0],) for t in X2.levels[k]} for k in range(5)
        ]
        f = ISetMorphism(X2, X1, maps)
        assert not f.level_bijective()
        assert not n_iso_check(f)

    def test_triangle_identities_on_tables(self):
        # the unit followed by the colimit comparison is the identity
        # on classes, read through the canonical element of each class
        W = sample_mset()
        X = support_filtration(W, 4)
        Wc = canonicalize(X)
        assert mset_iso_equal(Wc, W)
        flat, eta = flat_replacement(X)
        colim = OmegaColimit(X)
        colim_flat = OmegaColimit(flat)
        for c in colim.classes:
            m, x = c
            image = colim_flat.root[m, eta.maps[m][x]]
            assert colim_flat.class_to_element(image).image == colim.class_to_element(c).image


class TestMonoPushout:
    def test_sub_mset_inclusion(self):
        big = sample_mset()
        small = CanonicalTameMSet({1: trivial_sigma_set(1, ["a"])})
        X = support_filtration(small, 4)
        Y = support_filtration(big, 4)
        maps = [{e: e for e in X.levels[m]} for m in range(5)]
        f = ISetMorphism(X, Y, maps)
        for n in range(0, 5):
            assert mono_pushout_injective(f, n)


class TestDayConvolution:
    # rep_m ⊛ rep_m is rep_2m (Day), checked deep as well as at 4
    @pytest.mark.parametrize("m, N", [(1, 4), (1, 14), (2, 10)])
    def test_representables_convolve(self, m, N):
        R = representable_iset(m, N)
        X = day_convolution(R, R)
        # level n of rep_2m holds the injections of {1..2m} into {1..n}
        assert [len(l) for l in X.levels] == [perm(n, 2 * m)
                                              for n in range(N + 1)]
        assert mset_iso_equal(canonicalize(X), injection_mset(2 * m))

    def test_unit_neutral(self):
        X = support_filtration(sample_mset(), 4)
        E = constant_iset(["*"], 4)
        XY = day_convolution(X, E)
        assert mset_iso_equal(canonicalize(XY), canonicalize(X))

    def test_matches_box_product(self):
        A = support_filtration(sample_mset(), 6)
        B = support_filtration(injection_mset(1), 6)
        XY = day_convolution(A, B)
        lhs = canonicalize(XY)
        rhs = box(canonicalize(A), canonicalize(B))
        assert mset_iso_equal(lhs, rhs)

    def test_projections_validate_and_match(self):
        # a point is a box element of the generators: its two parts,
        # moved into the level, are the projections onto the factors,
        # which the public constructor checks for naturality
        A = support_filtration(injection_mset(1), 4)
        B = support_filtration(unit_mset(), 4)
        XY = day_convolution(A, B)
        q1, q2 = box_projections(XY, A, B)
        assert all(q.maps[4] for q in (q1, q2))
        assert len(set(q1.maps[4].values())) == len(A.levels[4])

    def test_projections_match_box_projections(self):
        # at the colimit, the pair of convolution projections is a
        # bijection onto the disjointly supported pairs of classes,
        # matching the product pairing elementwise: the class of a box
        # element z goes to the box_pair of the class elements of the
        # two parts of z
        A = support_filtration(sample_mset(), 4)
        B = support_filtration(injection_mset(1), 4)
        XY = day_convolution(A, B)
        q1, q2 = box_projections(XY, A, B)
        colim = OmegaColimit(XY)
        colim_a = OmegaColimit(A)
        colim_b = OmegaColimit(B)
        seen = set()
        for c in colim.classes:
            n, pt = c
            ca = colim_a.root[n, q1.maps[n][pt]]
            cb = colim_b.root[n, q2.maps[n][pt]]
            ea = colim_a.class_to_element(ca)
            eb = colim_b.class_to_element(cb)
            assert not support(ea) & support(eb)
            pair = box_pair(ea, eb)
            assert support(pair) == class_support(colim, c)
            assert (ea, eb) not in seen
            seen.add((ea, eb))
        window_pairs = {
            (xa, xb)
            for (_, xa) in colim_a.classes
            for (_, xb) in colim_b.classes
            if not set(xa.image) & set(xb.image)
        }
        # the filtration classes carry their elements as root points
        assert len(seen) == len(window_pairs)

    def test_degree_eight_level_is_the_rank_two_representable(self):
        # level 8 is one 56-point orbit; so is the orbit of 3-subsets of
        # {1..8}, whose stabilizer S_3 x S_5 is not conjugate to S_6
        R = representable_iset(1, 8)
        level = oracle.level_sigma(day_convolution(R, R), 8)
        assert iso_equal(level,
                         oracle.level_sigma(representable_iset(2, 8), 8))
        subsets = induce(trivial_sigma_set(3, ["x"]),
                         trivial_sigma_set(5, ["y"]))
        assert len(subsets) == len(level) == 56
        assert not iso_equal(level, subsets)

    @pytest.mark.parametrize("N", [4, 14])
    def test_nonflat_factor_still_matches(self, N):
        # B is rep_1, with elements for points
        Q = restriction_coequalizer(N)
        B = support_filtration(injection_mset(1), N)
        XY = day_convolution(Q, B)
        lhs = canonicalize(XY)
        rhs = box(canonicalize(Q), canonicalize(B))
        assert mset_iso_equal(lhs, rhs)

    @pytest.mark.parametrize("N", [5, 6, 8])
    @pytest.mark.parametrize("order", ["Q*rep1", "rep1*Q", "Q*Q"])
    def test_coequalizer_products_match_box(self, order, N):
        # canonicalize(X ⊛ Y) ≅ box(canonicalize X, canonicalize Y) with
        # Q = restriction_coequalizer(N) on either side; Q ⊛ rep_1 fails
        # at each N when the Day seeds put a generator of the second
        # factor on the first values of the complement
        Q = restriction_coequalizer(N)
        R = representable_iset(1, N)
        X, Y = {"Q*rep1": (Q, R), "rep1*Q": (R, Q), "Q*Q": (Q, Q)}[order]
        XY, ref = day_convolution(X, Y), oracle.day_by_blocks(X, Y)
        assert [len(l) for l in XY.levels] == [len(l) for l in ref.levels]
        assert XY.stable_from == ref.stable_from
        lhs = canonicalize(XY)
        assert mset_iso_equal(lhs, canonicalize(ref))
        assert mset_iso_equal(lhs, box(canonicalize(X), canonicalize(Y)))


class TestMorphismValidation:
    def test_rejects_non_natural(self):
        X = representable_iset(1, 3)
        bad = [dict(d) for d in [{p: p for p in l} for l in X.levels]]
        bad[2][(1,)] = (2,)
        bad[2][(2,)] = (1,)
        with pytest.raises(InvalidMorphism):
            ISetMorphism(X, X, bad)


class TestDayVsBoxGate:
    def test_short_count_fails_and_reports_skips(self, monkeypatch):
        import random

        from tamebox import selftest

        def out_of_window(X, Y):
            raise TruncationExceeded("forced")

        monkeypatch.setattr(selftest, "day_convolution", out_of_window)
        tally = selftest.suite_day_vs_box(random.Random(0), cases=3)
        assert (tally.ran, tally.skipped) == (0, 30)
        assert tally.failures == [
            "ran 0 of 3 cases in 30 draws; skipped 30 past the truncation"
        ]

    def test_draw_past_the_truncation_is_a_named_skip(self, monkeypatch):
        # random_iset draws restriction_coequalizer(1), whose seed lies at
        # level 2, outside a window of 1
        import random

        from tamebox import selftest

        with pytest.raises(TruncationExceeded):
            restriction_coequalizer(1)
        raised = []

        def recording(*args):
            try:
                return random_iset(*args)
            except TruncationExceeded:
                raised.append(args[1])
                raise

        monkeypatch.setattr(selftest, "random_iset", recording)
        tally = selftest.suite_day_vs_box(random.Random(1), cases=5, window=1)
        assert (tally.ran, tally.failures) == (5, [])
        assert tally.skipped >= len(raised) > 0
        monkeypatch.setattr(selftest, "random_iset",
                            lambda rng, N, *rest: restriction_coequalizer(N))
        tally = selftest.suite_day_vs_box(random.Random(1), cases=2, window=1)
        assert (tally.ran, tally.skipped) == (0, 20)
        assert tally.failures == [
            "ran 0 of 2 cases in 20 draws; skipped 20 past the truncation"
        ]


def test_day_seeds_the_relations_of_both_factors():
    # Q ⊛ Q: each factor identifies its two points of level 2; without
    # the second factor's relation, level n would keep n points
    Q = restriction_coequalizer(6)
    assert [len(l) for l in day_convolution(Q, Q).levels] == [
        0, 0, 2, 1, 1, 1, 1]


def test_levels_past_the_truncation_are_refused():
    X = representable_iset(1, 3)
    with pytest.raises(TruncationExceeded, match="level 4 beyond truncation 3"):
        X.map_along((1,), 4, (1,))
    with pytest.raises(TruncationExceeded, match="level 4 beyond truncation 3"):
        latching(X, 4)
    with pytest.raises(TruncationExceeded,
                       match=r"level 5 beyond truncation 3 \+ 1"):
        iset._colimit_under(X, 5)


def test_flatness_modes_are_named_and_must_agree(monkeypatch):
    Q = restriction_coequalizer(4)
    with pytest.raises(ValueError, match="unknown flatness mode 'sideways'"):
        is_flat(Q, "sideways")
    # a latching route that finds a merge everywhere disagrees with the
    # direct route on a flat diagram
    X = representable_iset(1, 3)
    monkeypatch.setattr(iset, "latching", lambda X, n: iset.LatchingData(
        [], {}, False, (n, None, None, None)))
    with pytest.raises(NotTame, match="flatness criteria disagree"):
        is_flat(X, "both")


def test_canonical_extension_stops_at_its_height_budget(monkeypatch):
    # a probe that always finds a merge: the extension climbs to
    # N + 2 max(s, 1) + 6 and is refused there
    Q = restriction_coequalizer(4)
    assert not Q.free and Q.stable_from == 1
    monkeypatch.setattr(iset, "_next_level_merges", lambda X: True)
    with pytest.raises(TruncationExceeded,
                       match="does not settle within the allowed height 12"):
        faithful_extension(Q)


def test_a_draw_no_diagram_meets_falls_back_to_a_representable(
        monkeypatch):
    # every draw is the restriction coequalizer, of stability 1
    rng = random.Random(0)
    monkeypatch.setattr(rng, "random", lambda: 0.99)
    X = random_iset(rng, 3, 0)
    assert X.levels == representable_iset(0, 3).levels


@pytest.mark.parametrize("seed, sizes", [
    (12, [0, 0, 2, 3, 3]), (256, [2, 2, 4, 8, 11])])
def test_unit_is_colimit_bijection_where_points_merge_past_the_top(
        seed, sizes):
    # the faithful extension reaches level 7, where the 3 points of the
    # first draw's X(4) form 1 class and the 11 of the second 9: the
    # top level map is no bijection, the map of classes is
    X = random_iset(random.Random(seed), 4, 2)
    assert [len(level) for level in X.levels] == sizes
    _, eta = flat_replacement(X)
    assert not eta._bijective_at(4)
    assert n_iso_check(eta)
