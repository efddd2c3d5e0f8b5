"""UnionFind against a naive partition, and the representatives its
callers build on it: numbering nodes in point_key order names every
class by its key-least member and lists the classes in key order.  The
second half checks that naming against brute-force closures on seeded
diagrams of every random_iset family."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tamebox.errors import TameboxError
from tamebox.generators import random_iset, random_mset, random_sigma_set
from tamebox.iset import (
    OmegaColimit,
    canonicalize,
    constant_iset,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from tamebox.mset import MSetMorphism, coequalize, injection_mset
from tamebox.sigma import point_key
from tamebox.unionfind import UnionFind

derandomized = settings(derandomize=True, deadline=None, database=None,
                        max_examples=100)


def naive_classes(nodes, pairs):
    """The partition generated by pairs, relabelling whole classes.
    Classes come in the order of their first nodes, each listing its
    members in node order."""
    label = {n: i for i, n in enumerate(nodes)}
    for a, b in pairs:
        old, new = label[b], label[a]
        for n in label:
            if label[n] == old:
                label[n] = new
    classes = {}
    for n in nodes:
        classes.setdefault(label[n], []).append(n)
    return list(classes.values())


def assert_rooted_at_least(uf, classes):
    """Every id rooted at the least id of its class, and the roots in
    increasing order."""
    least = {i: c[0] for c in classes for i in c}
    assert [uf.root_id(i) for i in sorted(least)] == [least[i]
                                                      for i in sorted(least)]
    assert uf.root_ids() == [c[0] for c in classes]


@derandomized
@given(st.integers(1, 30), st.data())
def test_union_find_matches_naive_partition(count, data):
    ids = st.integers(0, count - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
    cut = data.draw(st.integers(0, len(pairs)))
    uf = UnionFind(count)
    for a, b in pairs[:cut]:  # one pair per call, then one bulk call
        uf.union_ids([a], [b])
    uf.union_ids([a for a, _ in pairs[cut:]], [b for _, b in pairs[cut:]])
    classes = naive_classes(list(range(count)), pairs)
    assert_rooted_at_least(uf, classes)
    # repeated in both directions: nothing changes
    uf.union_ids([a for a, _ in pairs] + [b for _, b in pairs],
                 [b for _, b in pairs] + [a for a, _ in pairs])
    assert_rooted_at_least(uf, classes)


@derandomized
@given(st.lists(st.integers(-15, 15), min_size=1, max_size=30), st.data())
def test_nodes_numbered_by_key_are_named_by_their_least(nodes, data):
    # quotient_iset's numbering: nodes sorted by point_key get the ids
    # 0, 1, ..., so each class is rooted at its key-least node, and the
    # roots decode to those nodes in key order
    order = sorted(set(nodes), key=point_key)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(order),
                                         st.sampled_from(order)),
                               max_size=40))
    rank = {n: i for i, n in enumerate(order)}
    uf = UnionFind(len(order))
    uf.union_ids([rank[a] for a, _ in pairs], [rank[b] for _, b in pairs])
    rep_of, reps = named_by_least(naive_classes(order, pairs))
    assert {n: order[uf.root_id(rank[n])] for n in order} == rep_of
    assert [order[i] for i in uf.root_ids()] == reps


# -- key-least representatives of the library's union-finds ---------------

FAMILIES = ("random", "filtration", "quotient", "representable", "constant",
            "coequalizer")


def diagram(kind, seed, N, max_stable=2):
    rng = random.Random(f"representatives:{kind}:{seed}:{N}")
    top = min(max_stable, N)
    if kind == "random":
        return random_iset(rng, N, top)
    if kind == "representable":
        return representable_iset(rng.randint(0, top), N)
    if kind == "constant":
        return constant_iset([f"k{i}" for i in range(rng.randint(1, 3))], N)
    if kind == "coequalizer":
        return restriction_coequalizer(N)
    X = support_filtration(random_mset(rng, max_level=top, max_points=3), N)
    if kind == "quotient":
        levels = [m for m in range(N + 1) if len(X.levels[m]) >= 2]
        if levels:
            m = rng.choice(levels)
            X = quotient_iset(X, [(m, *rng.sample(X.levels[m], 2))])
    return X


def least(members, key=point_key):
    return min(members, key=key)


def named_by_least(classes, key=point_key):
    """Representative of every member, and the representatives in key
    order, of classes named by their key-least members."""
    reps = sorted((least(c, key) for c in classes), key=key)
    rep_of = {n: least(c, key) for c in classes for n in c}
    return rep_of, reps


def quotient_closure(X, seeds):
    """Per level, the classes of the smallest relation containing the
    seeds and closed under transpositions and inclusions."""
    pairs = [[] for _ in range(X.N + 1)]
    for m, a, b in seeds:
        pairs[m].append((a, b))
    while True:
        classes = [naive_classes(X.levels[m], pairs[m])
                   for m in range(X.N + 1)]
        grown = False
        for m, level in enumerate(classes):
            for c in level:
                for x in c[1:]:
                    images = [(m, t[c[0]], t[x]) for t in X.transp[m]]
                    if m < X.N:
                        images.append((m + 1, X.incl[m][c[0]], X.incl[m][x]))
                    for k, a, b in images:
                        if (a, b) not in pairs[k]:
                            pairs[k].append((a, b))
                            grown = True
        if not grown:
            return classes


def check_orbits(ss):
    classes = naive_classes(
        ss.points, [(p, q) for t in ss.transpositions for p, q in t.items()])
    expected = sorted(((least(c), sorted(c, key=point_key)) for c in classes),
                      key=lambda rm: point_key(rm[0]))
    assert ss.orbits() == expected


def check_colimit(X):
    nodes = [(m, p) for m in range(X.N + 1) for p in X.levels[m]]
    pairs = [((m, p), (m + 1, X.incl[m][p]))
             for m in range(X.N) for p in X.levels[m]]
    key = lambda n: (n[0], point_key(n[1]))  # noqa: E731
    rep_of, reps = named_by_least(naive_classes(nodes, pairs), key)
    C = OmegaColimit(X)
    assert C.classes == reps
    assert C.root == rep_of


@derandomized
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 4))
def test_quotient_and_colimit_named_by_key_least_member(kind, seed, N):
    X = diagram(kind, seed, N)
    check_colimit(X)
    rng = random.Random(seed)
    levels = [m for m in range(N + 1) if len(X.levels[m]) >= 2]
    if not levels:
        return
    seeds = []
    for _ in range(rng.randint(1, 2)):
        m = rng.choice(levels)
        seeds.append((m, *rng.sample(X.levels[m], 2)))
    Q = quotient_iset(X, seeds)
    named = [named_by_least(c) for c in quotient_closure(X, seeds)]
    for m, (rep_of, reps) in enumerate(named):
        assert Q.levels[m] == reps
        for t, u in zip(X.transp[m], Q.transp[m]):
            assert u == {r: rep_of[t[r]] for r in reps}
        if m < N:
            assert Q.incl[m] == {r: named[m + 1][0][X.incl[m][r]]
                                 for r in reps}
    check_colimit(Q)


def drawn_action(kind, seed, N, rng):
    """The canonical action of a drawn diagram, or a drawn action where
    the diagram has none."""
    try:
        return canonicalize(diagram(kind, seed, N))
    except TameboxError:
        return random_mset(rng, max_level=2, max_points=3)


def parallel_pair(rng, W):
    """Two maps out of the free orbit on {1..k} into W, sending its
    generator to two different elements where there are two, and the
    least window their coequalizer takes."""
    k = max(1, W.max_level)
    S = injection_mset(k)
    values = W.elements_up_to(k)
    rep = S.levels[k].orbits()[0][0]
    pair = rng.sample(values, 2) if len(values) > 1 else values * 2
    u, v = (MSetMorphism(S, W, {(k, rep): value}) for value in pair)
    return u, v, max(2 * W.max_level, 2)


@derandomized
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 4))
def test_orbits_and_coequalizer_named_by_key_least_member(kind, seed, N):
    rng = random.Random(seed)
    W = drawn_action(kind, seed, N, rng)
    for ss in W.levels.values():
        check_orbits(ss)
    for m in range(2, N + 1):
        ss = random_sigma_set(rng, m, max_points=8)
        if ss is not None:
            check_orbits(ss)
    u, v, window = parallel_pair(rng, W)
    table = W.elements_up_to(window)
    rep_of, reps = named_by_least(naive_classes(
        table, [(u.apply(x), v.apply(x))
                for x in u.source.elements_up_to(window)]))
    out = coequalize(u, v, window)
    for level in out.levels.values():
        assert all(rep_of[p] == p for p in level.points)
        assert level.points == sorted(level.points, key=point_key)
        check_orbits(level)
