import random

import pytest

import colimit_oracle as oracle
from tamebox.errors import (
    DegreeTooLarge,
    InvalidMorphism,
    NotTame,
    OverlappingSupports,
    SupportNotCovered,
    WindowTooSmall,
)
from tamebox.injections import PartialInjection, order_embed_avoiding
from tamebox.mset import (
    CanonicalTameMSet,
    MElement,
    MSetMorphism,
    box,
    box_pair,
    box_split,
    coequalize,
    decompose_table,
    injection_mset,
    injection_split_iso,
    mset_iso_equal,
    orbit_product_bijection,
    support,
)
from tamebox.opalg import symmetric_product_carrier
from tamebox.sigma import (
    SigmaSet,
    regular_sigma_set,
    trivial_sigma_set,
    word_sigma_set,
)


def sample_mset():
    """A fixed point, two fixed level-1 points, and the pairs over
    {0, 1} with s_1 swapping the entries; `test_iset` shares it."""
    return CanonicalTameMSet(
        {
            0: trivial_sigma_set(0, ["fix"]),
            1: trivial_sigma_set(1, ["a", "b"]),
            2: word_sigma_set(2, range(2)),
        }
    )


def unit_mset():
    """The unit of the box product: one fixed point `*`."""
    return CanonicalTameMSet({0: trivial_sigma_set(0, ["*"])})


class TestSupportAndAction:
    def test_injection_support_is_image(self):
        I3 = injection_mset(3)
        x = I3.canonical(3, (1, 2, 3), (1, 2, 3))
        assert support(x) == {1, 2, 3}

    def test_level_zero_empty_support(self):
        assert support(MElement(0, (), "fix")) == frozenset()

    def test_action_moves_support(self):
        X = sample_mset()
        x = X.canonical(2, (1, 2), (0, 1))
        f = PartialInjection({1: 4, 2: 1})
        assert support(X.act(f, x)) == {4, 1}

    def test_identity_on_support_fixes(self):
        X = sample_mset()
        x = X.canonical(2, (2, 5), (1, 0))
        assert X.act(PartialInjection.identity_on({2, 5}), x) == x

    def test_maps_agreeing_on_support_agree(self):
        X = sample_mset()
        x = X.canonical(2, (1, 3), (1, 0))
        f = PartialInjection({1: 7, 3: 2, 5: 9})
        g = PartialInjection({1: 7, 3: 2, 5: 4, 6: 6})
        assert X.act(f, x) == X.act(g, x)

    def test_direct_evaluation(self):
        I2 = injection_mset(2)
        x = I2.canonical(2, (1, 2), (1, 2))
        f = PartialInjection({1: 4, 2: 1})
        moved = I2.act(f, x)
        assert moved.image == (1, 4)
        assert moved == I2.canonical(2, (4, 1), (1, 2))

    def test_action_requires_support_coverage(self):
        X = sample_mset()
        x = X.canonical(2, (1, 2), (0, 0))
        with pytest.raises(SupportNotCovered):
            X.act(PartialInjection({1: 5}), x)

    def test_action_is_injective_on_tables(self):
        X = sample_mset()
        table = X.elements_up_to(4)
        f = PartialInjection({1: 2, 2: 5, 3: 1, 4: 3})
        images = [X.act(f, e) for e in table]
        assert len(set(images)) == len(images)

    def test_action_image_is_support_condition(self):
        # the image of acting by f consists exactly of the elements
        # supported inside the image of f
        X = sample_mset()
        window = 5
        f = PartialInjection({1: 2, 2: 4, 3: 1, 4: 5, 5: 3})
        table = X.elements_up_to(window)
        hit = {X.act(f, e) for e in table}
        expected = {
            e for e in table if support(e) <= set(f.image())
        }
        assert hit == expected

    def test_intersecting_supports(self):
        # an element supported on two sets is supported on their
        # intersection: acting by anything fixing the intersection of
        # the supports fixes the element
        X = sample_mset()
        for e in X.elements_up_to(4):
            supp = support(e)
            fixing = PartialInjection(
                {v: v for v in supp} | {v: v + 10 for v in range(5, 9)}
            )
            assert X.act(fixing, e) == e

    def test_canonicalization_sorts_image(self):
        I2 = injection_mset(2)
        e = I2.canonical(2, (4, 1), (1, 2))
        assert e.image == (1, 4)
        assert e.point == (2, 1)


class TestEnumeration:
    def test_injections_one_to_three(self):
        assert len(injection_mset(1).elements_up_to(3)) == 3

    def test_injections_two_to_three(self):
        # brute force: injective maps {1,2} -> {1..3}
        brute = [
            (a, b) for a in range(1, 4) for b in range(1, 4) if a != b
        ]
        assert len(injection_mset(2).elements_up_to(3)) == len(brute) == 6

    def test_unit_single_element(self):
        for N in range(0, 5):
            assert len(unit_mset().elements_up_to(N)) == 1


class TestDecompose:
    def test_round_trip_injections(self):
        out = decompose_table(injection_mset(1), 3)
        assert set(out.levels) == {1}
        assert len(out.levels[1]) == 1

    def test_fixed_point(self):
        out = decompose_table(unit_mset(), 4)
        assert set(out.levels) == {0}

    def test_round_trip_mixed(self):
        X = sample_mset()
        out = decompose_table(X, 6)
        assert mset_iso_equal(out, X)

    def test_window_too_small(self):
        # the window must reach twice the top level, also where the
        # table below it is empty
        with pytest.raises(WindowTooSmall,
                           match="^window 3 below twice the top level 2$"):
            decompose_table(sample_mset(), 3)
        X = injection_mset(3)
        for window in range(6):
            with pytest.raises(WindowTooSmall):
                decompose_table(X, window)
        assert mset_iso_equal(decompose_table(X, 6), X)

    def test_incomplete_table_rejected(self):
        # the oracle decomposes a caller's table, and checks its size
        X = sample_mset()
        table = X.elements_up_to(4)[:-1]
        with pytest.raises(NotTame):
            oracle.decompose_table(table, lambda f, e: X.act(f, e), 4)

    def test_window_below_top_level_is_invisible(self):
        # the oracle cannot check the window: below the top level the
        # table is empty and so is the action it decomposes to
        X = injection_mset(3)
        assert X.elements_up_to(2) == []
        out = oracle.decompose_table(X.elements_up_to(2), X.act, 2)
        assert out.levels == {}
        assert not mset_iso_equal(out, X)
        for window in (3, 4, 5):
            with pytest.raises(WindowTooSmall):
                oracle.decompose_table(X.elements_up_to(window), X.act,
                                       window)
        out = oracle.decompose_table(X.elements_up_to(6), X.act, 6)
        assert mset_iso_equal(out, X)

    def test_degree_bound(self):
        # the bound is checked before a level is built, and the message
        # names it as box's does
        X = injection_mset(2)
        with pytest.raises(DegreeTooLarge,
                           match="^level 2 beyond degree bound 1$"):
            decompose_table(X, 4, degree_bound=1)
        out = decompose_table(X, 4, degree_bound=2)
        assert mset_iso_equal(out, X)
        x = X.canonical(2, (1, 2), (1, 2))
        u = MSetMorphism(X, X, {(2, (1, 2)): x})
        with pytest.raises(DegreeTooLarge,
                           match="^level 2 beyond degree bound 1$"):
            coequalize(u, u, 4, degree_bound=1)


class TestBox:
    def test_injections_box_to_regular(self):
        out = box(injection_mset(1), injection_mset(1))
        assert set(out.levels) == {2}
        assert mset_iso_equal(out, injection_mset(2))

    def test_unit_is_neutral(self):
        X = sample_mset()
        out = box(X, unit_mset())
        assert mset_iso_equal(out, X)

    def test_pairing_bijects_onto_table(self):
        X = sample_mset()
        Y = injection_mset(1)
        XY = box(X, Y)
        window = 6
        pairs = [
            (x, y)
            for x in X.elements_up_to(window)
            for y in Y.elements_up_to(window)
            if not support(x) & support(y)
        ]
        paired = [box_pair(x, y) for x, y in pairs]
        assert len(set(paired)) == len(paired)
        assert set(paired) == set(XY.elements_up_to(window))
        for (x, y), z in zip(pairs, paired):
            assert box_split(z) == (x, y)

    def test_pairing_rejects_overlap(self):
        X = injection_mset(1)
        with pytest.raises(OverlappingSupports):
            box_pair(
                X.canonical(1, (1,), (1,)), X.canonical(1, (1,), (1,))
            )

    def test_projections_commute_with_action(self):
        rng = random.Random(9)
        X = sample_mset()
        Y = injection_mset(1)
        XY = box(X, Y)
        table = XY.elements_up_to(5)
        for _ in range(25):
            vals = rng.sample(range(1, 12), 5)
            f = PartialInjection(dict(zip(range(1, 6), vals)))
            z = rng.choice(table)
            x, y = box_split(z)
            zx, zy = box_split(XY.act(f, z))
            assert zx == X.act(f, x)
            assert zy == Y.act(f, y)

    def test_symmetry_and_associativity_iso(self):
        X = injection_mset(1)
        Y = sample_mset()
        assert mset_iso_equal(box(X, Y), box(Y, X))
        Z = unit_mset()
        assert mset_iso_equal(box(box(X, Y), Z), box(X, box(Y, Z)))

    def test_degree_bound(self):
        with pytest.raises(DegreeTooLarge):
            box(injection_mset(4), injection_mset(4))
        with pytest.raises(DegreeTooLarge):
            box(injection_mset(1), injection_mset(1), degree_bound=0)

    def test_one_sigma_set_per_pair_and_per_level(self, monkeypatch):
        # one induced set per pair of factor levels, then one tagged
        # union per product level
        X = sample_mset()
        PX = symmetric_product_carrier(["*", "a1"], "*", 4)
        PY = symmetric_product_carrier(["*", "b1", "b2"], "*", 4)
        built = []
        init = SigmaSet.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(SigmaSet, "__init__", counting)
        box(X, X)
        assert len(built) == 9 + 5
        built.clear()
        # the product wedge-iso --x 2 --y 3 --level 4 builds
        box(PX, PY, degree_bound=7, level_cap=4)
        assert len(built) == 15 + 5


class TestSplitIso:
    def test_trivial_degenerate(self):
        forward, ok = injection_split_iso(0, 0, 3)
        assert ok and len(forward) == 1

    def test_one_one_window_three(self):
        forward, ok = injection_split_iso(1, 1, 3)
        assert ok and len(forward) == 6

    def test_image_characterization(self):
        forward, ok = injection_split_iso(2, 1, 5)
        assert ok
        for t, (a, b) in forward.items():
            assert not set(a) & set(b)

    def test_range(self):
        for m in range(0, 4):
            for n in range(0, 4 - m):
                _, ok = injection_split_iso(m, n, 6)
                assert ok


class TestMorphismsAndCoequalizer:
    def test_equivariance_validated(self):
        # sending a free orbit generator anywhere is fine, but a
        # 2-cycle point cannot land on a support-2 element whose
        # stabilizer does not match
        I2 = injection_mset(2)
        X = CanonicalTameMSet({2: word_sigma_set(2, range(2))})
        with pytest.raises(InvalidMorphism):
            MSetMorphism(
                X,
                X,
                {
                    (2, (0, 0)): X.canonical(2, (1, 2), (0, 1)),
                    (2, (0, 1)): X.canonical(2, (1, 2), (0, 1)),
                },
            )

    def test_refuses_a_value_with_a_repeated_image_entry(self):
        # (1, 1) is its own sorted form but no injection: read as an
        # element, the morphism was accepted and failed only in `apply`
        S = injection_mset(2)
        T = CanonicalTameMSet({2: trivial_sigma_set(2, ["t"])})
        with pytest.raises(InvalidMorphism, match="not in the target"):
            MSetMorphism(S, T, {(2, (1, 2)): MElement(2, (1, 1), "t")})

    def test_stabilizer_must_fix_the_value(self):
        # every representative has a value; the swap fixes (0, 0) but
        # moves the value (0, 1) placed at 1, 2 to (1, 0)
        X = CanonicalTameMSet({2: word_sigma_set(2, range(2))})
        values = {(2, p): X.canonical(2, (1, 2), p)
                  for p in ((0, 0), (0, 1), (1, 1))}
        MSetMorphism(X, X, values)
        with pytest.raises(InvalidMorphism, match="stabilizer"):
            MSetMorphism(X, X, {**values, (2, (0, 0)): values[(2, (0, 1))]})

    def test_apply_is_equivariant(self):
        rng = random.Random(13)
        I1 = injection_mset(1)
        X = sample_mset()
        u = MSetMorphism(I1, X, {(1, (1,)): X.canonical(1, (1,), "b")})
        for _ in range(20):
            v = rng.randint(1, 9)
            x = I1.canonical(1, (v,), (1,))
            f = PartialInjection({v: rng.randint(1, 9)})
            assert u.apply(I1.act(f, x)) == X.act(f, u.apply(x))

    def test_apply_after_moving_off_a_support(self):
        # moving y off {1} by the order embedding that avoids it
        # changes nothing an equivariant map to a fixed point can see
        X = injection_mset(1)
        Y = unit_mset()
        u = MSetMorphism(X, Y, {(1, (1,)): MElement(0, (), "*")})
        f = order_embed_avoiding({1})
        for img in ((1,), (2,), (5,)):
            y = X.canonical(1, img, (1,))
            moved = X.act(f, y)
            assert moved.image == (img[0] + 1,)
            assert u.apply(moved) == u.apply(y) == MElement(0, (), "*")

    def test_coequalize_equal_maps_is_identityish(self):
        X = injection_mset(1)
        Y = sample_mset()
        u = MSetMorphism(X, Y, {(1, (1,)): Y.canonical(1, (1,), "a")})
        out = coequalize(u, u, 6)
        assert mset_iso_equal(out, Y)

    def test_coequalize_collapses_generators(self):
        # the two restriction maps from injections on {1,2} to
        # injections on {1}: identifying them collapses everything to
        # one fixed point
        I2 = injection_mset(2)
        I1 = injection_mset(1)
        u = MSetMorphism(I2, I1, {(2, (1, 2)): I1.canonical(1, (1,), (1,))})
        v = MSetMorphism(I2, I1, {(2, (1, 2)): I1.canonical(1, (2,), (1,))})
        out = coequalize(u, v, 6)
        assert set(out.levels) == {0}
        assert len(out.levels[0]) == 1

    def test_coequalize_refuses_sources_with_other_points(self):
        # level keys alone agree, and v used to be applied to the points
        # of u's source: a bare KeyError on 'a'
        T = injection_mset(1)
        x = T.canonical(1, (1,), (1,))
        u = MSetMorphism(CanonicalTameMSet({1: trivial_sigma_set(1, ["a"])}),
                         T, {(1, "a"): x})
        v = MSetMorphism(CanonicalTameMSet({1: trivial_sigma_set(1, ["b"])}),
                         T, {(1, "b"): x})
        with pytest.raises(InvalidMorphism, match="share a source"):
            coequalize(u, v, 4)

    def test_coequalize_refuses_sources_with_other_tables(self):
        # the same points, swapped by s_1 in one source and fixed in the
        # other: the pair used to be coequalized along u's action; an
        # equal copy of u's source is the same source
        R = injection_mset(2)
        F = CanonicalTameMSet({2: trivial_sigma_set(2, R.levels[2].points)})
        T = unit_mset()
        star = MElement(0, (), "*")
        u = MSetMorphism(R, T, {(2, (1, 2)): star})
        v = MSetMorphism(F, T, {(2, p): star for p in F.levels[2].points})
        with pytest.raises(InvalidMorphism, match="share a source"):
            coequalize(u, v, 4)
        w = MSetMorphism(injection_mset(2), T, {(2, (1, 2)): star})
        assert mset_iso_equal(coequalize(u, w, 4), T)

    def test_box_commutes_with_coequalizer(self):
        I2, I1 = injection_mset(2), injection_mset(1)
        W = CanonicalTameMSet({1: trivial_sigma_set(1, ["w"])})
        u = MSetMorphism(I2, I1, {(2, (1, 2)): I1.canonical(1, (1,), (1,))})
        v = MSetMorphism(I2, I1, {(2, (1, 2)): I1.canonical(1, (2,), (1,))})
        coeq = coequalize(u, v, 6)
        lhs = box(W, coeq)
        # box with W is levelwise induction; coequalizing the induced
        # parallel pair gives the same canonical form
        WI1 = box(W, I1)
        WI2 = box(W, I2)
        assignments_u = {}
        assignments_v = {}
        for k, rep in WI2.orbit_set():
            z = MElement(k, tuple(range(1, k + 1)), rep)
            (wx, ix) = box_split(z)
            assignments_u[(k, rep)] = box_pair(wx, u.apply(ix))
            assignments_v[(k, rep)] = box_pair(wx, v.apply(ix))
        bu = MSetMorphism(WI2, WI1, assignments_u)
        bv = MSetMorphism(WI2, WI1, assignments_v)
        rhs = coequalize(bu, bv, 6)
        assert mset_iso_equal(lhs, rhs)


class TestOrbitSets:
    def test_injection_msets_connected(self):
        for m in range(0, 5):
            assert len(injection_mset(m).orbit_set()) == 1

    def test_unit_orbit(self):
        assert len(unit_mset().orbit_set()) == 1

    def test_product_formula(self):
        X = sample_mset()
        Y = CanonicalTameMSet({0: trivial_sigma_set(0, ["*"]),
                               1: regular_sigma_set(1)})
        XY = box(X, Y)
        mapping, ok = orbit_product_bijection(X, Y, XY)
        assert ok
        assert len(XY.orbit_set()) == len(X.orbit_set()) * len(Y.orbit_set())


@pytest.mark.parametrize("window", [2, 3, 4, 6])
def test_coequalize_seeds_source_orbits_above_the_window(window):
    # the generator of the free orbit on {1, 2, 3} goes to a at {1} and
    # to b at {2}; identifying them collapses the two fixed points onto
    # one of level 0.  At window 2 no source element fits, and the pair
    # used to go unseeded, leaving {1: 2}
    T = CanonicalTameMSet({1: trivial_sigma_set(1, ["a", "b"])})
    S = injection_mset(3)
    rep = S.levels[3].orbits()[0][0]
    u = MSetMorphism(S, T, {(3, rep): MElement(1, (1,), "a")})
    v = MSetMorphism(S, T, {(3, rep): MElement(1, (2,), "b")})
    out = coequalize(u, v, window)
    assert {m: len(ss) for m, ss in out.levels.items()} == {0: 1}


@pytest.mark.parametrize("values", [(30, 10, 20), (4, 9, 1, 7)])
def test_canonical_pushes_the_ranks_of_the_image_into_the_point(values):
    # an element of injection_mset(m) given by an injective tuple reads
    # the tuple back off its sorted image through its point
    m = len(values)
    x = injection_mset(m).canonical(m, values, tuple(range(1, m + 1)))
    assert x.image == tuple(sorted(values))
    assert tuple(x.image[k - 1] for k in x.point) == values


@pytest.mark.parametrize("key", ["1", 1.0, True], ids=["str", "float", "bool"])
def test_refuses_level_keys_that_are_no_ints(key):
    # each was read as level 1 through int()
    with pytest.raises(ValueError, match="not an int"):
        CanonicalTameMSet({key: trivial_sigma_set(1, ["a"])})


def test_refuses_a_level_holding_a_set_of_another_degree():
    with pytest.raises(ValueError, match="level 2 holds a degree-1 set"):
        CanonicalTameMSet({2: regular_sigma_set(1)})


def test_elements_need_distinct_image_entries_and_injective_moves():
    X = injection_mset(2)
    x = X.canonical(2, (1, 2), (1, 2))
    with pytest.raises(ValueError, match="image entries must be distinct"):
        X.canonical(2, (1, 1), (1, 2))
    # any callable moves an element; one that is not injective on the
    # support is refused
    with pytest.raises(SupportNotCovered,
                       match="map not injective on the support"):
        X.act(lambda i: 1, x)


def test_morphism_needs_a_value_inside_each_representative_support():
    I1, X = injection_mset(1), sample_mset()
    with pytest.raises(InvalidMorphism,
                       match=r"no value for representative \(1, \(1,\)\)"):
        MSetMorphism(I1, X, {})
    with pytest.raises(InvalidMorphism, match="not supported inside 1..1"):
        MSetMorphism(I1, X, {(1, (1,)): X.canonical(1, (2,), "b")})


def test_coequalizer_refuses_other_targets_and_a_short_window():
    I1 = injection_mset(1)
    ident = MSetMorphism(I1, I1, {(1, (1,)): I1.canonical(1, (1,), (1,))})
    to_point = MSetMorphism(I1, unit_mset(), {(1, (1,)): MElement(0, (), "*")})
    with pytest.raises(InvalidMorphism,
                       match="parallel pair must share a target"):
        coequalize(ident, to_point, 6)
    with pytest.raises(WindowTooSmall,
                       match="window 1 below twice the maximal support size"):
        coequalize(ident, ident, 1)
