import random
from functools import cache
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import monoid_oracle as oracle
import sigma_oracle
from corpus import LABEL_DRAWS, shuffled_draw
from tamebox import sigma
from tamebox.errors import ValidationError
from tamebox.generators import random_sigma_set
from tamebox.iset import constant_iset
from tamebox.opalg import infinite_symmetric_product
from tamebox.sigma import (
    SigmaSet,
    all_injective_tuples,
    identity_perm,
    induce,
    iso_equal,
    perm_compose,
    perm_inverse,
    perm_word,
    point_key,
    regular_sigma_set,
    transposition_perm,
    trivial_sigma_set,
    word_sigma_set,
)


def perm_from_word(m, word):
    p = tuple(range(1, m + 1))
    for i in reversed(word):
        p = perm_compose(transposition_perm(m, i), p)
    return p


def tuple_action_set(m, width):
    """The symmetric group permuting coordinate positions of tuples."""
    points = list(product(range(width), repeat=m))

    def act(i, t):
        t = list(t)
        t[i - 1], t[i] = t[i], t[i - 1]
        return tuple(t)

    tables = [{t: act(i, t) for t in points} for i in range(1, m)]
    return SigmaSet(m, points, tables)


def equivariant_bijection_exists(a, b):
    """Backtracking search for an equivariant bijection; the slow
    oracle that iso_type comparison must reproduce."""
    if a.m != b.m or len(a.points) != len(b.points):
        return False
    gens = list(range(1, a.m))
    bp = list(b.points)

    def extend(assign, todo):
        if not todo:
            return True
        p = todo[0]
        for q in bp:
            if q in assign.values():
                continue
            trial = dict(assign)
            trial[p] = q
            stack = [p]
            ok = True
            while stack and ok:
                x = stack.pop()
                for i in gens:
                    y = a.transpositions[i - 1][x]
                    fy = b.transpositions[i - 1][trial[x]]
                    if y in trial:
                        if trial[y] != fy:
                            ok = False
                            break
                    elif fy in trial.values():
                        ok = False
                        break
                    else:
                        trial[y] = fy
                        stack.append(y)
            if ok and extend(trial, [t for t in todo[1:] if t not in trial]):
                assign.clear()
                assign.update(trial)
                return True
        return False

    return extend({}, list(a.points))


class TestPermWords:
    def test_words_reproduce_permutations(self):
        for m in range(1, 6):
            for sigma in permutations(range(1, m + 1)):
                assert perm_from_word(m, perm_word(sigma)) == sigma

    def test_inverse(self):
        for sigma in all_injective_tuples(4, 4):
            assert perm_compose(sigma, perm_inverse(sigma)) == (1, 2, 3, 4)

    def test_injections_listed_once_and_permutations_in_order(self):
        # the orbit and table code reads permutations in this order
        for n in range(5):
            for m in range(n + 1):
                listed = all_injective_tuples(m, n)
                assert len(listed) == len(set(listed))
                assert set(listed) == set(permutations(range(1, n + 1), m))
            assert all_injective_tuples(n, n) == list(
                permutations(range(1, n + 1)))


class TestValidation:
    def test_rejects_non_involution(self):
        with pytest.raises(ValidationError):
            SigmaSet(2, ["a", "b", "c"], [{"a": "b", "b": "c", "c": "a"}])

    def test_rejects_braid_violation(self):
        # two commuting swaps on four points cannot satisfy the braid
        # relation for adjacent generators
        pts = [0, 1, 2, 3]
        s1 = {0: 1, 1: 0, 2: 3, 3: 2}
        s2 = {0: 2, 2: 0, 1: 3, 3: 1}
        with pytest.raises(ValidationError):
            SigmaSet(3, pts, [s1, s2])

    @pytest.mark.parametrize("m, tables", [
        (True, []), (2.0, [{"a": "a"}]), ("2", [{"a": "a"}]),
    ], ids=["bool", "float", "str"])
    def test_refuses_degrees_that_are_no_ints(self, m, tables):
        # True was kept as the degree; 2.0 and "2" raised a TypeError
        with pytest.raises(ValidationError, match="integer degree"):
            SigmaSet(m, ["a"], tables)

    @pytest.mark.parametrize("build", [
        lambda: trivial_sigma_set(2, ["x", "x"]),
        lambda: word_sigma_set(2, ["a", "a"]),
        lambda: constant_iset(["k", "k"], 2),
        lambda: infinite_symmetric_product(["*", "a", "a"], "*", 2),
    ], ids=["trivial", "words", "constant", "symmetric-product"])
    def test_trusted_builds_refuse_repeated_caller_points(self, build):
        # a trusted constructor skips the relations, not the caller's data
        with pytest.raises(ValidationError) as exc:
            build()
        assert exc.value.invariant == "distinct points"


class TestOrbits:
    def test_trivial_action_two_orbits(self):
        ss = trivial_sigma_set(2, ["a", "b"])
        assert len(ss.orbits()) == 2

    def test_regular_sigma2_one_orbit(self):
        ss = regular_sigma_set(2)
        assert len(ss.orbits()) == 1

    def test_ordered_pairs_transitive(self):
        # ordered pairs of distinct elements of {1,2,3}: brute force
        # over all 6 group elements confirms a single orbit
        pts = [t for t in product(range(1, 4), repeat=2) if t[0] != t[1]]
        full = tuple_action_set(2, 0)  # placeholder, rebuilt below
        points = pts

        def act(i, t):
            s = transposition_perm(3, i)
            return (s[t[0] - 1], s[t[1] - 1])

        tables = [{t: act(i, t) for t in points} for i in range(1, 3)]
        ss = SigmaSet(3, points, tables)
        assert len(ss.orbits()) == 1
        reachable = set()
        for sigma in all_injective_tuples(3, 3):
            reachable.add((sigma[0], sigma[1]))
        assert reachable == set(
            (sigma[pts[0][0] - 1], sigma[pts[0][1] - 1])
            for sigma in all_injective_tuples(3, 3)
        )
        assert len(ss.orbits()[0][1]) == 6

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=100)
    @example(tuple_action_set(3, 2))
    @given(st.builds(shuffled_draw, st.integers(0, 10**6), st.integers(0, 5)))
    def test_transversal_carries_rep(self, ss):
        tr = ss.rooted_transversal()
        roots = {p: rep for rep, members in ss.orbits() for p in members}
        for p, (root, sigma) in tr.items():
            assert root == roots[p]
            assert ss.act_perm(sigma, root) == p
        for rep, members in ss.orbits():
            assert rep == min(members, key=point_key)


def check_stabilizer_generators(ss):
    """Schreier generators of every orbit against the stabilizer found by
    running all of the symmetric group; returns the orbit count."""
    for rep, _ in ss.orbits():
        gens = ss.stabilizer_generators(rep)
        assert gens == sorted(set(gens))
        assert identity_perm(ss.m) not in gens
        assert oracle.closure(gens, ss.m) == sigma_oracle.stabilizer(
            ss, rep), rep
    return len(ss.orbits())


class TestStabilizerGenerators:
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=450)
    @given(st.integers(0, 10**6), st.integers(0, 5))
    def test_random_sets(self, seed, m):
        ss = random_sigma_set(random.Random(seed), m, max_points=12)
        assert check_stabilizer_generators(ss) > 0

    @pytest.mark.parametrize("ss", [
        regular_sigma_set(4), trivial_sigma_set(0, ["x", "y"]),
        trivial_sigma_set(1, ["x"]), trivial_sigma_set(5, ["x", "y"]),
        word_sigma_set(4, "ab"), word_sigma_set(5, "abc"),
        word_sigma_set(3, ""),
    ], ids=["regular 4", "trivial 0", "trivial 1", "trivial 5",
            "words 4 ab", "words 5 abc", "words 3 none"])
    def test_named_sets(self, ss):
        check_stabilizer_generators(ss)

    def test_fixed_point_generated_by_the_transpositions(self):
        ss = trivial_sigma_set(4, ["x"])
        assert ss.stabilizer_generators("x") == sorted(
            transposition_perm(4, i) for i in range(1, 4))

    def test_same_group_as_the_enumerated_generators(self):
        ss = word_sigma_set(5, "ab")
        for rep, _ in ss.orbits():
            old = oracle.generators(sigma_oracle.stabilizer(ss, rep))
            assert oracle.closure(old, 5) == oracle.closure(
                ss.stabilizer_generators(rep), 5)


class TestIsoType:
    def test_regular_orbit_trivial_stabilizer(self):
        assert regular_sigma_set(3).iso_type() == ("S3:trivial",)

    def test_fixed_point_full_stabilizer(self):
        assert trivial_sigma_set(3, ["x"]).iso_type() == ("S3:full",)

    def test_swap_vs_fixed_points_differ(self):
        swap = SigmaSet(2, ["a", "b"], [{"a": "b", "b": "a"}])
        fixed = trivial_sigma_set(2, ["a", "b"])
        assert swap.iso_type() != fixed.iso_type()

    def test_sign_set_has_alternating_stabilizer(self):
        # every transposition swaps the two signs, so A_4 fixes each
        def sign_set(plus, minus):
            return SigmaSet(4, [plus, minus],
                            [{plus: minus, minus: plus}] * 3)

        signs = sign_set("+", "-")
        assert signs.iso_type() == ("S4:alternating",)
        assert iso_equal(signs, sign_set(1, -1))
        assert not iso_equal(signs, trivial_sigma_set(4, ["+", "-"]))
        assert not iso_equal(signs, regular_sigma_set(4))

    def test_complete_invariant_random(self):
        rng = random.Random(7)
        pool = []
        for m in (2, 3):
            pool.append(regular_sigma_set(m) if m <= 3 else None)
            pool.append(trivial_sigma_set(m, ["a", "b"]))
            pool.append(tuple_action_set(m, 2))
            pool.append(tuple_action_set(m, 3))
        pool = [s for s in pool if s is not None]
        for _ in range(30):
            a = rng.choice(pool)
            b = rng.choice(pool)
            if a.m != b.m:
                continue
            assert iso_equal(a, b) == equivariant_bijection_exists(a, b)


def coset_sigma_set(m, group):
    """The degree-m symmetric group acting on the left cosets of a
    subgroup, each coset named by its least member."""
    name = {}
    for g in all_injective_tuples(m, m):
        if g not in name:
            coset = [perm_compose(g, h) for h in group]
            name.update(dict.fromkeys(coset, min(coset)))
    points = sorted(set(name.values()))
    tables = [{c: name[perm_compose(transposition_perm(m, i), c)]
               for c in points} for i in range(1, m)]
    return SigmaSet(m, points, tables)


def small_subgroups(m):
    """Every subgroup of the degree-m symmetric group that one or two
    permutations generate, in a fixed order."""
    cyclic = {frozenset(oracle.closure([g], m)): g
              for g in all_injective_tuples(m, m)}
    gens = list(cyclic.values())
    groups = set(cyclic)
    for i, g in enumerate(gens):
        groups.update(frozenset(oracle.closure([g, h], m))
                      for h in gens[i + 1:])
    return sorted(groups, key=lambda group: (len(group), sorted(group)))


@cache
def coset_sets(m):
    return [coset_sigma_set(m, group) for group in small_subgroups(m)]


def label_mismatches(sets):
    """The pairs of sets on which iso_type and the oracle disagree about
    equality, and the number of oracle classes."""
    new = [ss.iso_type() for ss in sets]
    old = [sigma_oracle.iso_type(ss) for ss in sets]
    bad = [(i, j) for i in range(len(sets)) for j in range(i)
           if (new[i] == new[j]) != (old[i] == old[j])]
    return bad, len(set(old))


class TestLabelAgreement:
    """iso_type against the stabilizer labels of `sigma_oracle`."""

    @pytest.mark.parametrize("m,classes", [(3, 4), (4, 11), (5, 19)])
    def test_coset_sets_of_small_subgroups(self, m, classes):
        # a coset set's stabilizers are the conjugates of its subgroup,
        # and every subgroup of S_3, S_4 and S_5 is generated by two
        # permutations, so every conjugacy class appears
        assert label_mismatches(coset_sets(m)) == ([], classes)

    def test_shuffled_draws_keep_their_labels(self):
        # the corpus (corpus.py) compares these labels under two hash
        # seeds; here each must be its unshuffled draw's label
        for m in range(6):
            sets = [shuffled_draw(seed, m) for seed in range(LABEL_DRAWS)]
            for seed, ss in enumerate(sets):
                plain = random_sigma_set(random.Random(seed), m,
                                         max_points=12)
                assert ss.iso_type() == plain.iso_type(), (m, seed)
            assert not label_mismatches(sets)[0], m

    def test_mutant_dropping_a_table_disagrees(self, monkeypatch):
        label = sigma.subgroup_conjugacy_label

        def drop_last_table(m, tables):
            return label.__wrapped__(m, tables[:-1])

        monkeypatch.setattr(sigma, "subgroup_conjugacy_label", drop_last_table)
        assert label_mismatches(coset_sets(4))[0]


class TestWordSigmaSet:
    @pytest.mark.parametrize("m,width", [(0, 2), (1, 3), (2, 2), (3, 3)])
    def test_points_and_tables_of_positions(self, m, width):
        words = word_sigma_set(m, range(width))
        tuples = tuple_action_set(m, width)
        assert words.points == tuples.points
        assert words.transpositions == tuples.transpositions

    def test_no_letters(self):
        assert len(word_sigma_set(0, [])) == 1
        assert len(word_sigma_set(2, [])) == 0


class TestInduce:
    def test_degree_zero_pair(self):
        z = trivial_sigma_set(0, ["z"])
        w = trivial_sigma_set(0, ["w"])
        out = induce(z, w)
        assert out.m == 0 and len(out) == 1

    def test_two_free_points_give_regular(self):
        z = trivial_sigma_set(1, ["z"])
        w = trivial_sigma_set(1, ["w"])
        out = induce(z, w)
        assert iso_equal(out, regular_sigma_set(2))

    def test_counting_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            m = rng.randint(0, 2)
            n = rng.randint(0, 2)
            z = tuple_action_set(m, rng.randint(1, 3))
            w = tuple_action_set(n, rng.randint(1, 3))
            out = induce(z, w)
            assert len(out) == comb(m + n, m) * len(z) * len(w)

    def test_symmetric_up_to_iso(self):
        z = tuple_action_set(1, 3)
        w = regular_sigma_set(2)
        assert iso_equal(induce(z, w), induce(w, z))

    def test_associative_up_to_iso(self):
        a = trivial_sigma_set(1, ["a"])
        b = tuple_action_set(1, 2)
        c = trivial_sigma_set(0, ["c", "c2"])
        assert iso_equal(induce(induce(a, b), c), induce(a, induce(b, c)))


class TestPointKey:
    def test_set_insertion_order(self):
        # 1 and 9 share a hash slot, so the two reprs differ
        assert repr(frozenset([1, 9])) != repr(frozenset([9, 1]))
        assert point_key(frozenset([1, 9])) == point_key(frozenset([9, 1]))
        assert point_key((frozenset([1, 9]), "z")) == point_key(
            (frozenset([9, 1]), "z")
        )

    def test_unchanged_without_sets(self):
        from tamebox.mset import MElement

        for p in ["a{b", (1, "x{", ()), (2,), MElement(1, (3,), "p{")]:
            assert point_key(p) == (type(p).__name__, repr(p))

    def test_induce_tables_consistent_at_degree_nine(self):
        ind = induce(trivial_sigma_set(4, ["z"]), trivial_sigma_set(5, ["w"]))
        keys = {p: point_key(p) for p in ind.points}
        for t in ind.transpositions:
            for q in t.values():
                assert point_key(q) == keys[q]
