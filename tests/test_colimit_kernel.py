"""The face-indexed colimit kernels of tamebox.iset against the
brute-force tuple enumerations kept in colimit_oracle, on seeded
diagrams of every generator family at N <= 4, the tabulated
structure maps (face tables, the faces that hold each point with a
preimage along each, completion words, filtration swaps) and the class
elements pulled down along them against the oracles that recompute
them, the direct flatness route and merge levels against the route
that rebuilds every meet's span and the rescan of every inclusion, the
latching-pushout check against the pushout built by union-find,
the stopping rule of the canonical extension on two pinned diagrams
whose merges lie just past the given top and on seeded draws, the
count that reads a free diagram off its generators against both
flatness routes, and the extension that keeps a free diagram as it is
against the stopping rule run on every diagram, the
canonical action of the colimit against the decomposition of its
class table, on every criterion-4 instance and adjunction draw, and
the window tables and coequalizers of canonical actions, which
decompose through the colimit, against the support tests and the
union-find they replaced."""

import json
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import colimit_oracle as oracle
import tamebox.iset as iset
import test_acceptance as acceptance
import test_iset
import test_unionfind as unionfind
from corpus import late_merges, late_pairs, mset_text
from tamebox import selftest
from tamebox.documents import parse_document, serialize_document
from tamebox.errors import (
    TameboxError,
    TruncationExceeded,
    ValidationError,
)
from tamebox.generators import random_iset, random_mset
from tamebox.iset import (
    ISetMorphism,
    OmegaColimit,
    TruncatedISet,
    _colimit_under,
    _day_factors,
    _next_level_merges,
    canonicalize,
    constant_iset,
    day_convolution,
    faithful_extension,
    flat_replacement,
    is_flat,
    lan_extend,
    latching,
    mono_pushout_injective,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from tamebox.mset import (
    CanonicalTameMSet,
    MElement,
    MSetMorphism,
    all_injective_tuples,
    box,
    coequalize,
    decompose_table,
    injection_mset,
    mset_iso_equal,
    support,
)
from tamebox.opalg import (
    CommMonoidPresentation,
    infinite_symmetric_product,
    wedge_iso,
)
from tamebox.sigma import (
    SigmaSet,
    completion_word,
    regular_sigma_set,
    trivial_sigma_set,
    walk,
)

KINDS = ("random", "filtration", "quotient", "representable", "coequalizer")
# every family random_iset draws from, and random_iset itself
FAMILIES = KINDS + ("constant",)

kernel_settings = settings(derandomize=True, deadline=None, database=None,
                           max_examples=100)


def diagram(kind, seed, N, max_stable=2):
    rng = random.Random(f"kernel:{kind}:{seed}:{N}")
    top = min(max_stable, N)
    if kind == "random":
        return random_iset(rng, N, top)
    if kind == "representable":
        return representable_iset(rng.randint(0, top), N)
    if kind == "coequalizer":
        return restriction_coequalizer(N)
    if kind == "constant":
        return constant_iset([f"k{i}" for i in range(rng.randint(1, 3))], N)
    X = support_filtration(random_mset(rng, max_level=top, max_points=3), N)
    if kind == "quotient":
        levels = [m for m in range(N + 1) if len(X.levels[m]) >= 2]
        if levels:
            m = rng.choice(levels)
            X = quotient_iset(X, [(m, *rng.sample(X.levels[m], 2))])
    return X


def assert_revalidates(X):
    """A derived diagram validated only its new levels: the full
    constructor accepts all of it and finds the same stability level,
    which is the least one by the brute-force reference."""
    full = TruncatedISet(X.N, X.levels, X.incl, X.transp)
    assert full.stable_from == X.stable_from == oracle.minimal_stable_from(
        X.N, X.levels, X.incl, X.transp)


def canonical_or_none(X):
    try:
        return canonicalize(X)
    except TruncationExceeded:
        return None


@kernel_settings
@given(st.sampled_from(KINDS), st.integers(0, 10**6), st.integers(2, 4))
def test_latching_matches_oracle(kind, seed, N):
    X = diagram(kind, seed, N)
    for n in range(N + 1):
        data = latching(X, n)
        values = oracle.latching_values(X, n)
        assert len(data.classes) == len(values)
        assert data.injective == (len(set(values.values())) == len(values))
        assert Counter(data.values.values()) == Counter(values.values())


@kernel_settings
@given(st.sampled_from(KINDS), st.integers(0, 10**6), st.integers(2, 4))
def test_lookup_partition_matches_oracle(kind, seed, N):
    # every (injection, element) pair of the oracle resolves, and the
    # two kernels partition the pairs into the same classes
    X = diagram(kind, seed, N)
    for n in range(1, N + 2):
        classes, lookup = _colimit_under(X, n)
        _, old = oracle.colimit_under(X, n)
        pairs = {(root, lookup(alpha, x)) for (alpha, x), root in old.items()}
        assert len(pairs) == len(set(old.values())) == len(classes)
        assert {c for _, c in pairs} == set(classes)


@kernel_settings
@given(st.sampled_from(KINDS), st.integers(0, 10**6), st.integers(2, 4))
def test_lan_extend_matches_oracle(kind, seed, N):
    X = diagram(kind, seed, N)
    E = lan_extend(X)
    F = oracle.lan_extend(X)
    assert_revalidates(E)
    try:
        G = faithful_extension(X)
    except TruncationExceeded:
        pass
    else:  # padded past the given top, as far as N + 1
        assert_revalidates(G if G.N > N else lan_extend(G))
    assert [len(l) for l in E.levels] == [len(l) for l in F.levels]
    assert E.stable_from == F.stable_from
    assert E.merge_level == F.merge_level
    assert oracle.level_sigma(E, E.N).iso_type() == \
        oracle.level_sigma(F, F.N).iso_type()


@settings(kernel_settings, max_examples=50)
@given(st.sampled_from(KINDS), st.sampled_from(KINDS),
       st.integers(0, 10**6), st.integers(2, 3))
@example("coequalizer", "representable", 2, 3)  # Q ⊛ rep_1
@example("representable", "coequalizer", 3, 3)  # rep_1 ⊛ Q
def test_day_convolution_matches_oracle(left, right, seed, N):
    X = diagram(left, seed, N, max_stable=1)
    Y = diagram(right, seed + 1, N, max_stable=1)
    try:
        for factor in _day_factors(X, Y):
            assert_revalidates(factor)
        new = day_convolution(X, Y)
    except TruncationExceeded:
        with pytest.raises(TruncationExceeded):
            oracle.day_convolution(X, Y)
        return
    X, Y, classes = oracle.day_classes(X, Y)
    old = oracle.day_diagram(classes)
    assert_revalidates(new)
    assert [len(l) for l in new.levels] == [len(l) for l in old.levels]
    assert new.stable_from == old.stable_from
    a, b = canonical_or_none(new), canonical_or_none(old)
    assert (a is None) == (b is None)
    if a is not None:
        assert mset_iso_equal(a, b)
    # each point is the first of its class among the nodes (m1, A +
    # complement, x, y), A sorted, in the order of m1, then A, then the
    # positions of x and y, and each level lists them in that order
    for n, level in enumerate(classes):
        def key(node):
            m1, gamma, x, y = node
            return (m1, gamma[:m1], X.levels[m1].index(x),
                    Y.levels[n - m1].index(y))

        maximal = [(m1, gamma, x, y) for m1, gamma, x, y in level
                   if len(gamma) == n and sorted(gamma[:m1]) == list(
                       gamma[:m1]) and sorted(gamma[m1:]) == list(gamma[m1:])]
        first = {}
        for node in sorted(maximal, key=key):
            first.setdefault(level[node], node)
        assert len(first) == len(set(level.values()))
        assert new.levels[n] == list(first.values())


def broken_top(kind):
    """The next level of representable_iset(1, 2), from lan_extend,
    broken in one way."""
    X = representable_iset(1, 2)
    E = lan_extend(X)
    level, incl = list(E.levels[3]), dict(E.incl[2])
    transp = [dict(t) for t in E.transp[3]]
    if kind == "involution":
        # s_1 becomes a 3-cycle on three of its points
        a, b, c = level[:3]
        transp[0].update({a: b, b: c, c: a})
    elif kind == "inclusion":
        incl[next(iter(incl))] = "missing"
    else:
        # a point fixed by every transposition, outside the image
        level.append("extra")
        for t in transp:
            t["extra"] = "extra"
    return X, level, incl, transp


@pytest.mark.parametrize("kind", ["involution", "inclusion", "stability"])
def test_extension_step_rejects_like_full_constructor(kind):
    # `_derived` trusts the relations, keeps the data checks and
    # computes the stability level; the conftest fixture adds the
    # relation checks, as for every trusted build in Tier-1
    X, level, incl, transp = broken_top(kind)
    declared = X.stable_from
    with pytest.raises(ValidationError) as full:
        TruncatedISet(3, X.levels + [level], X.incl + [incl],
                      X.transp + [transp], declared)
    if kind == "stability":
        assert (full.value.invariant, full.value.location) == ("stability", 2)
        # the least level that holds is the top level itself
        assert X._derived(3, [level], [incl], [transp]).stable_from == 3
        return
    with pytest.raises(ValidationError) as step:
        X._derived(3, [level], [incl], [transp])
    assert (step.value.invariant, step.value.location) == (
        full.value.invariant, full.value.location)


@pytest.fixture
def validation_counts(monkeypatch):
    # SigmaSet validations, and levels tabulated rather than shared
    # with the diagram a derived one comes from
    counts = {"sigma": 0, "tabulated": 0}
    sigma_init = SigmaSet.__init__
    tabulate = TruncatedISet._tabulate

    def counted_sigma(self, *args, **kwargs):
        counts["sigma"] += 1
        sigma_init(self, *args, **kwargs)

    def counted_tabulate(self, n):
        counts["tabulated"] += 1
        tabulate(self, n)

    monkeypatch.setattr(SigmaSet, "__init__", counted_sigma)
    monkeypatch.setattr(TruncatedISet, "_tabulate", counted_tabulate)
    return counts


def test_each_level_validated_once(validation_counts):
    # three levels, then nine extensions adding one level each
    X = representable_iset(2, 2)
    for _ in range(9):
        X = lan_extend(X)
    assert X.N == 11
    assert validation_counts == {"sigma": 12, "tabulated": 12}


def test_day_convolution_validates_only_its_levels(validation_counts):
    # the factors, cut from X, share its tables; only the convolution's
    # seven levels build theirs
    X = representable_iset(1, 6)
    validation_counts.update(sigma=0, tabulated=0)
    XY = day_convolution(X, X)
    assert XY.N == 6
    assert validation_counts == {"sigma": 7, "tabulated": 7}


# ---------------------------------------------------------------------
# trusted construction: the library's own builds skip the relation
# checks, and the fixture in conftest.py checks them in every other test


def test_checked_construction_refuses_a_wrong_table():
    # s_1 a 3-cycle: no involution, built as shipped, past the checks
    shipped = SigmaSet._built.__wrapped__
    bad = shipped(SigmaSet, 2, "abc", [{"a": "b", "b": "c", "c": "a"}])
    with pytest.raises(ValidationError) as exc:
        support_filtration(CanonicalTameMSet({2: bad}), 3)
    assert (exc.value.invariant, exc.value.location) == ("involution", "s_1")


@pytest.mark.unchecked_construction
def test_library_constructions_run_no_relation_check(monkeypatch):
    checks = Counter()

    def counted(key, run):
        def call(*args, **kwargs):
            checks[key] += 1
            return run(*args, **kwargs)
        return call

    for cls, name in [(SigmaSet, "__init__"), (TruncatedISet, "_check"),
                      (ISetMorphism, "__init__"),
                      (CommMonoidPresentation, "__init__")]:
        monkeypatch.setattr(cls, name, counted(f"{cls.__name__}.{name}",
                                               getattr(cls, name)))
    built = {
        "box": lambda: box(injection_mset(2), injection_mset(2)),
        "support_filtration": lambda: support_filtration(
            box(injection_mset(1), injection_mset(2)), 5),
        "day_convolution": lambda: day_convolution(
            representable_iset(1, 4), representable_iset(1, 4)),
        "lan_extend": lambda: lan_extend(lan_extend(representable_iset(2, 3))),
        "wedge_iso": lambda: wedge_iso(["*", "a"], "*", ["*", "b", "c"], "*",
                                       4),
        "infinite_symmetric_product": lambda: infinite_symmetric_product(
            ["*", "a", "b"], "*", 3),
    }
    for name, build in built.items():
        build()
        assert checks == Counter(), name
    # the counters see the public constructors, which still check
    X = representable_iset(1, 2)
    TruncatedISet(X.N, X.levels, X.incl, X.transp)
    assert checks == {"SigmaSet.__init__": 3, "TruncatedISet._check": 1}


# ---------------------------------------------------------------------
# tabulated structure maps against the oracles that recompute them


def outcome(fn, *args):
    """A value, or the library error or missing table entry raised
    instead."""
    try:
        return fn(*args)
    except (TameboxError, KeyError) as exc:
        return ("raises", type(exc).__name__)


def face_mismatches(X):
    """Every face table read back through the levels: entry j - 1 of
    level n against the oracle's map along the face that skips j."""
    bad = []
    for n in range(X.N + 1):
        rows = X.face_positions(n)
        if len(rows) != n:
            bad.append(("face count", n))
        for j, row in enumerate(rows, start=1):
            alpha = tuple(v for v in range(1, n + 1) if v != j)
            if len(row) != len(X.levels[n - 1]):
                bad.append(("face", alpha, n, None))
            for y, p in zip(X.levels[n - 1], row):
                if X.levels[n][p] != oracle.map_along(X, alpha, n, y):
                    bad.append(("face", alpha, n, y))
    return bad


def map_along_mismatches(X):
    """Every injection into n <= N and every point, through map_along
    and through the face tables, against the oracle."""
    bad = []
    for n in range(X.N + 1):
        for m in range(n + 1):
            for alpha in all_injective_tuples(m, n):
                for x in X.levels[m]:
                    if (outcome(X.map_along, alpha, n, x)
                            != outcome(oracle.map_along, X, alpha, n, x)):
                        bad.append(("map_along", alpha, n, x))
    return bad + face_mismatches(X)


def support_mismatches(colim):
    """Every class's support and element against the oracle's, wherever
    the oracle's support answers: it needs one level of headroom at or
    below the stability level, where the library pulls a face image
    down instead."""
    bad = []
    for c in colim.classes:
        try:
            expected = oracle.support(colim, c)
        except TruncationExceeded:
            continue
        if outcome(lambda: support(colim.class_to_element(c))) != expected:
            bad.append(("support", c))
        if (outcome(colim.class_to_element, c)
                != outcome(oracle.class_to_element, colim, c)):
            bad.append(("element", c))
    return bad


def swap_mismatches(W, N):
    X = iset.support_filtration(W, N)
    expected = oracle.filtration_swaps(W, N)
    return [(m, i) for m in range(N + 1) for i in range(1, m)
            if X.transp[m][i - 1] != expected[m][i - 1]]


@kernel_settings
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 4),
       st.booleans())
def test_structure_maps_match_oracles(kind, seed, N, extend):
    X = diagram(kind, seed, N)
    if extend:
        X = lan_extend(X)
    assert map_along_mismatches(X) == []
    assert support_mismatches(OmegaColimit(X)) == []


@kernel_settings
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_filtration_swaps_match_oracle(seed, N):
    W = random_mset(random.Random(f"swaps:{seed}"),
                    max_level=min(N, 3), max_points=4)
    assert swap_mismatches(W, N) == []


@kernel_settings
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_filtration_levels_are_the_elements_up_to_each_level(seed, N):
    # each level is filtered from the top one, which keeps its order
    W = random_mset(random.Random(f"swaps:{seed}"),
                    max_level=min(N, 3), max_points=4)
    X = iset.support_filtration(W, N)
    assert X.levels == [W.elements_up_to(m) for m in range(N + 1)]


@kernel_settings
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 4),
       st.booleans())
def test_no_generators_above_the_stability_level(kind, seed, N, extend):
    # validation makes each level above stable_from generated from the
    # one below, the least level or one a document declares, so every
    # class element there is pulled down along a face
    X = diagram(kind, seed, N)
    if extend:
        X = lan_extend(X)
    assert all(X.generators(m) == []
               for m in range(X.stable_from + 1, X.N + 1))
    document = json.loads(serialize_document("iset", X))
    for s in range(X.stable_from, X.N + 1):
        document["payload"]["stableFrom"] = s
        Y = parse_document(json.dumps(document)).value
        assert Y.stable_from == s
        assert all(Y.generators(m) == [] for m in range(s + 1, Y.N + 1))


def test_face_image_at_the_top_stability_level_is_pulled_down():
    # level 2 is both the top and the stability level, so a support test
    # there has no level of headroom; one Lan level adds it and keeps
    # every class's name, since its inclusion identifies nothing
    X = diagram("filtration", 0, 2)
    assert X.N == X.stable_from == 2 and not _next_level_merges(X)
    colim, wide = OmegaColimit(X), OmegaColimit(lan_extend(X))
    assert (2, MElement(1, (2,), (1,))) in colim.classes
    for m, x in colim.classes:
        top_generator = m == X.N and x in X.generators(m)
        assert outcome(colim.class_to_element, (m, x)) == (
            ("raises", "TruncationExceeded") if top_generator
            else oracle.class_to_element(wide, (m, x)))


def image_of(X, alpha, n):
    """The image in X(n) of the injection with value tuple alpha, by the
    oracle's map_along."""
    return {oracle.map_along(X, alpha, n, u) for u in X.levels[len(alpha)]}


def flatness_mismatches(X):
    """The direct route against the oracle's pair search: the same
    verdict, the same merge witness, and a support witness ("support",
    n, z, S) at the oracle's first failing level with z in the face
    that skips i exactly when i is outside S, and z outside the image
    of S."""
    report = is_flat(X, "direct")
    flat, witness = oracle.direct_flatness(X)
    if report.flat != flat:
        return [("verdict", report.witness, witness)]
    if flat or witness[0] == "inclusion":
        return [] if report.witness == witness else [("witness", witness)]
    kind, n, z, S = report.witness
    bad = [] if (kind, n) == ("support", witness[1]) else [("level", n)]
    for i in range(1, n + 1):
        face = tuple(v for v in range(1, n + 1) if v != i)
        if (z in image_of(X, face, n)) == (i in S):
            bad.append(("face", i))
    if z in image_of(X, S, n):
        bad.append(("image", S))
    return bad


@kernel_settings
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 5),
       st.booleans())
def test_direct_flatness_and_merge_level_match_oracles(kind, seed, N, extend):
    # lan_extend and the cut below read the merges their source recorded
    X = diagram(kind, seed, N)
    if extend:
        X = lan_extend(X)
    assert flatness_mismatches(X) == []
    for Y in (X, X._derived(X.N - 1)):
        assert Y.merge_level == oracle.merge_level(Y)


def generated_subdiagram(Y, seeds):
    """The inclusion into Y of the sub-diagram generated by the seeds,
    (level, point) pairs: their orbits, pushed up the inclusions."""
    keep = [set() for _ in Y.levels]
    for m, p in seeds:
        keep[m].add(p)
    for m in range(Y.N + 1):
        keep[m] = {r for p in keep[m] for r in walk(p, Y.transp[m])}
        if m < Y.N:
            keep[m + 1] |= {Y.incl[m][p] for p in keep[m]}
    levels = [[p for p in Y.levels[m] if p in keep[m]]
              for m in range(Y.N + 1)]
    X = TruncatedISet(
        Y.N, levels,
        [{p: Y.incl[m][p] for p in levels[m]} for m in range(Y.N)],
        [[{p: t[p] for p in levels[m]} for t in Y.transp[m]]
         for m in range(Y.N + 1)])
    return ISetMorphism(X, Y, [{p: p for p in level} for level in levels])


def pushout_mismatches(f):
    """The pushout check at every level against the union-find oracle
    where either latching map is injective, and against a refusal where
    neither is."""
    X, Y = f.source, f.target
    bad = []
    for n in range(X.N + 1):
        if oracle.latching_injective(Y, n) or oracle.latching_injective(X, n):
            expected = oracle.mono_pushout_injective(f, n)
        else:
            expected = ("raises", "PreconditionViolated")
        got = outcome(mono_pushout_injective, f, n)
        if got != expected:
            bad.append((n, got, expected))
    return bad


@kernel_settings
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 4))
def test_mono_pushout_matches_union_find_oracle(kind, seed, N):
    Y = diagram(kind, seed, N)
    rng = random.Random(f"pushout:{seed}")
    points = [(m, p) for m in range(N + 1) for p in Y.levels[m]]
    seeds = rng.sample(points, min(len(points), rng.randint(1, 2)))
    assert pushout_mismatches(generated_subdiagram(Y, seeds)) == []


# each comparison above fails on a mutant of what it checks


def test_map_along_comparison_catches_a_skipped_inclusion_walk(monkeypatch):
    def no_walk(self, alpha, n, x):
        for i in completion_word(alpha, n):
            x = self.transp[n][i][x]
        return x

    X = lan_extend(representable_iset(1, 2))
    assert map_along_mismatches(X) == []
    monkeypatch.setattr(TruncatedISet, "map_along", no_walk)
    assert "map_along" in {kind for kind, *_ in map_along_mismatches(X)}


def test_flatness_and_pushout_comparisons_catch_faces_holding_nothing(
        monkeypatch):
    # the coequalizer's injective inclusions fail to preserve an
    # intersection at level 2; (1,) and (2,) at level 2 lie in faces of
    # the representable, but the sub-diagram they generate starts there
    Q = restriction_coequalizer(4)
    f = generated_subdiagram(representable_iset(1, 3), [(2, (2,))])
    assert flatness_mismatches(Q) == [] and pushout_mismatches(f) == []
    monkeypatch.setattr(TruncatedISet, "faces_holding",
                        lambda X, n: [{} for _ in X.levels[n]])
    assert flatness_mismatches(Q) != []
    assert pushout_mismatches(f) != []


def test_face_comparison_catches_a_shifted_face_table(monkeypatch):
    def shifted(self, k):
        rows = real(self, k)
        return rows[1:] + rows[:1]

    X = representable_iset(2, 3)
    assert map_along_mismatches(X) == []
    real = TruncatedISet.face_positions
    monkeypatch.setattr(TruncatedISet, "face_positions", shifted)
    assert "face" in {kind for kind, *_ in map_along_mismatches(X)}


def test_support_comparison_catches_an_unmoved_support(monkeypatch):
    # every preimage recorded along the inclusion's face, whatever face
    # holds the point: the support is pulled back without being pushed
    # along the face it came from
    def inclusion_only(self, n):
        return [{n: p0 for p0 in held.values()} for held in real(self, n)]

    assert support_mismatches(OmegaColimit(representable_iset(1, 3))) == []
    real = TruncatedISet.faces_holding
    monkeypatch.setattr(TruncatedISet, "faces_holding", inclusion_only)
    kinds = {kind for kind, *_ in support_mismatches(OmegaColimit(
        representable_iset(1, 3)))}
    assert "support" in kinds


def test_support_comparison_catches_an_unmoved_element_image(monkeypatch):
    # the element recursion keeping the inner image instead of moving
    # it along the face that holds the point
    def unmoved(self, c):
        m, x = c
        X = self.iset
        held = X.faces_holding(m)[X.positions(m)[x]]
        if not held:
            return real(self, c)
        x0 = X.levels[m - 1][next(iter(held.values()))]
        return self.class_to_element(self.class_of(m - 1, x0))

    assert support_mismatches(OmegaColimit(representable_iset(1, 3))) == []
    real = OmegaColimit.class_to_element
    monkeypatch.setattr(OmegaColimit, "class_to_element", unmoved)
    kinds = {kind for kind, *_ in support_mismatches(OmegaColimit(
        representable_iset(1, 3)))}
    assert "support" in kinds


def test_element_comparison_catches_a_memo_keyed_by_level(monkeypatch):
    # (1, 2) and (2, 1) name two classes at level 2
    assert support_mismatches(OmegaColimit(representable_iset(2, 4))) == []
    real = OmegaColimit.class_to_element
    memo = {}

    def by_level(self, c):
        if c[0] not in memo:
            memo[c[0]] = real(self, c)
        return memo[c[0]]

    monkeypatch.setattr(OmegaColimit, "class_to_element", by_level)
    kinds = {kind for kind, *_ in support_mismatches(OmegaColimit(
        representable_iset(2, 4)))}
    assert "element" in kinds


def test_swap_comparison_catches_a_point_left_in_place(monkeypatch):
    def image_only(W, N):
        X = real(W, N)
        for m in range(N + 1):
            for i, t in enumerate(X.transp[m], start=1):
                swap = {i: i + 1, i + 1: i}
                for e in t:
                    image = tuple(sorted(swap.get(v, v) for v in e.image))
                    t[e] = MElement(e.level, image, e.point)
        return X

    W = CanonicalTameMSet({2: regular_sigma_set(2)})
    assert swap_mismatches(W, 3) == []
    real = iset.support_filtration
    monkeypatch.setattr(iset, "support_filtration", image_only)
    assert swap_mismatches(W, 3) != []


# ---------------------------------------------------------------------
# position tables, the integer form the colimit kernels read


def position_mismatches(X):
    """Every level's position table against the level list, and every
    face table read back through the levels against the oracle."""
    bad = []
    for m in range(X.N + 1):
        if X.positions(m) != {x: i for i, x in enumerate(X.levels[m])}:
            bad.append(("positions", m))
    return bad + face_mismatches(X)


@kernel_settings
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 4),
       st.booleans())
def test_position_tables_match_oracle(kind, seed, N, extend):
    X = diagram(kind, seed, N)
    if extend:
        # built on X first, so the extension must share them
        tables = [X.face_positions(k) for k in range(X.N + 1)]
        X = lan_extend(X)
        assert all(X.face_positions(k) is tables[k] for k in range(N + 1))
    assert position_mismatches(X) == []


def test_position_comparison_catches_a_shifted_row(monkeypatch):
    def shifted(self, k):
        rows = real(self, k)
        return [row[1:] + row[:1] for row in rows]

    X = representable_iset(2, 3)
    assert position_mismatches(X) == []
    real = TruncatedISet.face_positions
    monkeypatch.setattr(TruncatedISet, "face_positions", shifted)
    assert "face" in {kind for kind, *_ in position_mismatches(X)}


# ---------------------------------------------------------------------
# face tables of derived diagrams


@pytest.mark.parametrize("kind", FAMILIES)
def test_derived_diagrams_serve_no_stale_face_table(kind):
    X = diagram(kind, 0, 3)
    tables = [X.face_positions(k) for k in range(X.N + 1)]
    chain = X
    for _ in range(3):
        chain = lan_extend(chain)
        assert face_mismatches(chain) == []
    # the levels a derived diagram shares keep their tables
    assert all(chain.face_positions(k) is tables[k] for k in range(X.N + 1))
    padded = faithful_extension(X)
    while padded.N < X.N + 2:
        padded = lan_extend(padded)
    assert face_mismatches(padded) == []
    for factor in _day_factors(X, diagram(kind, 1, 2)):
        assert face_mismatches(factor) == []


def holding_mismatches(X):
    """The levels whose faces-holding table differs from the faces
    whose images, by the oracle's map_along, hold each point, or
    records a position that its face does not carry onto the point."""
    bad = []
    for n in range(X.N + 1):
        faces = [tuple(v for v in range(1, n + 1) if v != i)
                 for i in range(1, n + 1)]
        images = [image_of(X, alpha, n) for alpha in faces]
        for z, held in zip(X.levels[n], X.faces_holding(n)):
            if held.keys() != {i for i, image in enumerate(images, start=1)
                               if z in image} or any(
                    oracle.map_along(X, faces[i - 1], n, X.levels[n - 1][p0])
                    != z for i, p0 in held.items()):
                bad.append(n)
                break
    return bad


@pytest.mark.parametrize("kind", FAMILIES)
def test_derived_diagrams_serve_no_stale_faces_holding_table(kind):
    X = diagram(kind, 0, 3)
    tables = [X.faces_holding(n) for n in range(X.N + 1)]
    chain = X
    for _ in range(3):
        chain = lan_extend(chain)
        assert holding_mismatches(chain) == []
    # the levels a derived diagram shares keep their tables, and a cut
    # serves those of the levels it keeps
    assert all(chain.faces_holding(n) is tables[n] for n in range(X.N + 1))
    cut = chain._derived(X.N + 1)
    assert cut.faces_holding(X.N + 1) is chain.faces_holding(X.N + 1)
    assert holding_mismatches(cut) == []
    for factor in _day_factors(X, diagram(kind, 1, 2)):
        assert holding_mismatches(factor) == []


# ---------------------------------------------------------------------
# the stopping rule of the canonical extension


@pytest.mark.parametrize("name, points", [("stable-2", {0: 1, 2: 1}),
                                          ("stable-1", {0: 3, 1: 1})])
def test_merges_forced_past_the_given_top_are_seen(name, points):
    # injective inclusions, not flat, and already at twice the
    # stability level: only the merge test of the next Lan level sees
    # that it identifies two points; trusting the given top names
    # {2: 2} and {0: 2, 1: 3} points instead
    X = late_merges(name)
    assert X.merge_level == 0 and not is_flat(X, "both").flat
    assert X.N == 2 * X.stable_from
    E = X
    for _ in range(2 * X.stable_from + 2):  # extended by hand
        E = lan_extend(E)
    assert E.merge_level == X.N + 1
    assert faithful_extension(X).N > X.N
    W = canonicalize(X)
    assert mset_text(W) == mset_text(canonicalize(E))
    assert {k: len(ss.points) for k, ss in W.levels.items()} == points


@kernel_settings
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 7))
def test_nothing_merges_past_a_faithful_extension(kind, seed, N):
    E = faithful_extension(diagram(kind, seed, N, max_stable=3))
    F = E
    for _ in range(3):
        F = lan_extend(F)
        assert (F.stable_from, F.merge_level) == (E.stable_from,
                                                  E.merge_level)


@kernel_settings
@given(st.sampled_from(FAMILIES), st.sampled_from(FAMILIES),
       st.integers(0, 10**6), st.integers(2, 7))
def test_day_factors_reach_the_convolution_bound_in_one_pass(left, right,
                                                             seed, N):
    X = diagram(left, seed, N, max_stable=3)
    Y = diagram(right, seed + 1, N, max_stable=3)
    A, B = faithful_extension(X), faithful_extension(Y)
    left_factor, right_factor = _day_factors(X, Y)
    assert left_factor.N == right_factor.N >= (
        A.stable_from + B.stable_from + max(A.merge_level, B.merge_level))


# ---------------------------------------------------------------------
# free diagrams: the count, and the extension that keeps them as they are


def free_draws(seed, N):
    """Two random_iset draws at N, the first of stability at most 3 and
    the second, a Day factor, at most 1, so that the convolution of
    both stays small; None where random_iset refuses N (the restriction
    coequalizer needs level 2)."""
    rng = random.Random(f"free:{seed}:{N}")
    try:
        return random_iset(rng, N, min(3, N)), random_iset(rng, N, min(1, N))
    except TruncationExceeded:
        return None


def filtration_quotient(m):
    """The support filtration at 4 of the free orbit on {1..m}, with the
    first two elements of level 2 identified: for m = 1 those on {1} and
    {2}, which gives the restriction coequalizer again, not flat; for
    m = 2 the two on {1, 2}, which leaves the unordered pairs, free on
    one point that Σ_2 fixes."""
    F = support_filtration(injection_mset(m), 4)
    return quotient_iset(F, [(2, *F.levels[2][:2])])


# fixed diagrams, and whether they are flat
COUNTED = {
    **{f"rep{m} at {N}": (lambda m=m, N=N: representable_iset(m, N), True)
       for m, N in [(0, 3), (1, 1), (2, 4), (3, 3), (3, 6)]},
    **{f"restriction coequalizer at {N}": (
        lambda N=N: restriction_coequalizer(N), False) for N in (2, 4)},
    "constant at 3": (lambda: constant_iset(["a", "b"], 3), True),
    "quotient of a filtration, not flat": (lambda: filtration_quotient(1),
                                           False),
    "quotient of a filtration, flat": (lambda: filtration_quotient(2), True),
}


def assert_count_is_flatness(X):
    assert X.free == is_flat(X, "both").flat
    if X.free:
        assert faithful_extension(X) is X


@pytest.mark.parametrize("name", COUNTED)
def test_count_reads_flatness_on_fixed_diagrams(name):
    build, flat = COUNTED[name]
    X = build()
    assert X.free == flat
    assert_count_is_flatness(X)


@kernel_settings
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_count_matches_both_flatness_routes(seed, N):
    draws = free_draws(seed, N)
    assume(draws is not None)
    for X in draws:
        assert_count_is_flatness(X)


def encoded_outputs(X, Y):
    """The bytes of canonicalize(X), of the unit of its flat replacement
    and of X ⊛ Y, each as a document, or the error class and message."""
    def outcome(kind, build):
        try:
            return serialize_document(kind, build())
        except TameboxError as exc:
            return type(exc).__name__, str(exc)

    return (outcome("mset", lambda: canonicalize(X)),
            outcome("morphism", lambda: flat_replacement(X)[1]),
            outcome("iset", lambda: day_convolution(X, Y)))


def stopping_rule_mismatch(X, Y):
    """encoded_outputs, against the same with the count patched to
    False, so that every diagram runs the stopping rule: None when they
    agree, else both."""
    got = encoded_outputs(X, Y)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(TruncatedISet, "free",
                            property(lambda self: False))
        want = encoded_outputs(X, Y)
    return None if got == want else (got, want)


# free Day factors below twice their stability level, with the second
# factor: the stopping rule built the first up to 6
LOW_FREE_FACTORS = {f"rep{a} with rep{b} at {N}": (a, b, N)
                    for a, b, N in [(3, 0, 4), (3, 1, 4), (3, 1, 5)]}
STOPPED = {
    **{name: lambda a=a, b=b, N=N: (representable_iset(a, N),
                                    representable_iset(b, N))
       for name, (a, b, N) in LOW_FREE_FACTORS.items()},
    # not free: the stopping rule extends them past the given top
    **{name: lambda name=name: (late_merges(name), representable_iset(0, 4))
       for name in ("stable-1", "stable-2")},
    "restriction coequalizer at 2": lambda: (restriction_coequalizer(2),
                                             representable_iset(1, 2)),
}


@pytest.mark.parametrize("name", STOPPED)
def test_free_diagrams_answer_as_the_stopping_rule_on_fixed_pairs(name):
    assert stopping_rule_mismatch(*STOPPED[name]()) is None


@kernel_settings
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_free_diagrams_answer_as_the_stopping_rule(seed, N):
    draws = free_draws(seed, N)
    assume(draws is not None)
    assert stopping_rule_mismatch(*draws) is None


@pytest.fixture
def extension_counts(monkeypatch):
    # calls of the Lan extension by one level and of its merge test
    counts = {"lan_extend": 0, "_next_level_merges": 0}

    def counted(name):
        real = getattr(iset, name)

        def call(X):
            counts[name] += 1
            return real(X)
        return call

    for name in counts:
        monkeypatch.setattr(iset, name, counted(name))
    return counts


FREE_WORK = {
    **{name: lambda name=name: day_convolution(*STOPPED[name]())
       for name in LOW_FREE_FACTORS},
    "decompose_table of a level-3 action at window 6":
        lambda: decompose_table(injection_mset(3), 6),
    "canonicalize rep2 at 4": lambda: canonicalize(representable_iset(2, 4)),
}


@pytest.mark.parametrize("name", FREE_WORK)
def test_free_diagrams_build_no_lan_level_and_test_no_merge(
        name, extension_counts):
    FREE_WORK[name]()
    assert extension_counts == {"lan_extend": 0, "_next_level_merges": 0}


def test_extension_counts_see_the_stopping_rule(extension_counts):
    # a diagram that is not free runs both
    faithful_extension(late_merges("stable-1"))
    assert extension_counts["lan_extend"] > 0
    assert extension_counts["_next_level_merges"] > 0


# ---------------------------------------------------------------------
# the canonical action against the table decomposition it replaced


def canonical_mismatch(X, degree_bound=7):
    """canonicalize against the decomposition oracle: None when both
    raise the same error with the same message, or build the same
    levels with the same points in the same order and the same tables;
    else the two outcomes."""
    def outcome_of(build):
        try:
            W = build(X, degree_bound)
        except TameboxError as exc:
            return type(exc).__name__, str(exc)
        return {m: (A.points, A.transpositions) for m, A in W.levels.items()}

    got = outcome_of(canonicalize)
    want = outcome_of(oracle.canonical_by_decomposition)
    return None if got == want else (got, want)


@kernel_settings
@given(st.sampled_from(FAMILIES), st.integers(0, 10**6), st.integers(2, 7),
       st.sampled_from((7, 2, 1)))
def test_canonical_action_matches_decomposition(kind, seed, N, degree_bound):
    # stability up to 3 and N up to 7, so that levels with two swaps
    # are built
    X = diagram(kind, seed, N, max_stable=3)
    assert canonical_mismatch(X, degree_bound) is None


TWO_SWAPS = {
    "representable": lambda: representable_iset(3, 7),
    # a seeded action whose level 3 has three points and s_1 != s_2
    "filtration": lambda: support_filtration(random_mset(
        random.Random("two-swaps:6"), max_level=3, max_points=3), 7),
}


@pytest.mark.parametrize("kind", TWO_SWAPS)
def test_canonical_action_matches_decomposition_with_two_swaps(kind):
    # stability 3 at N = 7, so that level 3 of the canonical action
    # carries two different swaps, which a swapped table order changes
    X = TWO_SWAPS[kind]()
    assert X.stable_from == 3
    s_1, s_2 = canonicalize(X).levels[3].transpositions
    assert s_1 != s_2
    assert canonical_mismatch(X) is None


def recorded(monkeypatch, name):
    """The (diagram, degree bound) pairs the law suites pass to the
    selftest function `name` from now on."""
    calls = []
    real = getattr(selftest, name)

    def record(X, degree_bound):
        calls.append((X, degree_bound))
        return real(X, degree_bound)

    monkeypatch.setattr(selftest, name, record)
    return calls


def test_canonical_action_matches_decomposition_on_criterion_4(monkeypatch):
    # both factors and their convolution, for each of the 20 cases
    calls = recorded(monkeypatch, "canonicalize")
    acceptance.test_criterion_04_day_vs_box()
    assert len(calls) >= 3 * 20
    assert [canonical_mismatch(*call) for call in calls] == [None] * len(calls)


def test_canonical_action_matches_decomposition_on_adjunction_draws(
        monkeypatch):
    # the 50 diagrams whose flat replacement criterion 6 checks
    calls = recorded(monkeypatch, "flat_replacement")
    acceptance.test_criterion_06_adjunction()
    assert len(calls) == 50
    assert [canonical_mismatch(*call) for call in calls] == [None] * 50


def test_canonical_comparison_catches_a_class_filed_under_its_name(
        monkeypatch):
    # the mutant takes each class named at or below the stability level
    # as supported on {1..the level of its name}: the class of {1, 2} in
    # late_pairs, first seen at level 3, lands at level 3
    def at_name(colim, c):
        if c[0] > colim.iset.stable_from:
            return real(colim, c)
        return MElement(c[0], tuple(range(1, c[0] + 1)), c)

    X = late_pairs(6)
    assert canonical_mismatch(X) is None
    real = OmegaColimit.class_to_element
    monkeypatch.setattr(OmegaColimit, "class_to_element", at_name)
    assert canonical_mismatch(X) is not None
    with pytest.raises(AssertionError):
        test_iset.TestCanonicalize().test_class_first_seen_above_its_support()


# ---------------------------------------------------------------------
# window tables and coequalizers against the support tests they replaced


def text_of(build):
    """`corpus.mset_text` of what build returns, or its error type and
    message."""
    try:
        return mset_text(build())
    except TameboxError as exc:
        return type(exc).__name__, str(exc)


@settings(kernel_settings, max_examples=12)
@given(st.integers(0, 10**6))
def test_window_tables_decompose_as_the_oracle_does(seed):
    # levels up to 4, at windows 2s..2s+2, and at the degree bound s - 1
    X = random_mset(random.Random(f"window:{seed}"), max_level=4,
                    max_points=3)
    s = X.max_level
    for window, degree_bound in [(w, 7) for w in range(2 * s, 2 * s + 3)] + [
            (2 * s, s - 1)]:
        assert text_of(lambda: decompose_table(X, window, degree_bound)) == (
            text_of(lambda: oracle.decompose_table(
                X.elements_up_to(window), X.act, window, degree_bound)))


def source_above_the_window():
    """The free orbit on {1, 2, 3} sent to the fixed level-1 point a at
    {1} and to b at {2}: at window 2 no source element fits, and only
    the seed of its orbit identifies a with b."""
    T = CanonicalTameMSet({1: trivial_sigma_set(1, ["a", "b"])})
    S = injection_mset(3)
    rep = S.levels[3].orbits()[0][0]
    return (MSetMorphism(S, T, {(3, rep): MElement(1, (1,), "a")}),
            MSetMorphism(S, T, {(3, rep): MElement(1, (2,), "b")}))


@kernel_settings
@given(st.sampled_from(unionfind.FAMILIES), st.integers(0, 10**6),
       st.integers(2, 4))
@example("source above the window", 0, 2)
def test_coequalizers_match_the_union_find_oracle(kind, seed, N):
    # the draws of test_unionfind, at the least window and one above;
    # their sources never lie above the window, so one pair with a
    # source above it is checked at windows 2-4
    if kind == "source above the window":
        u, v = source_above_the_window()
        windows = (2, 3, 4)
    else:
        rng = random.Random(seed)
        u, v, window = unionfind.parallel_pair(
            rng, unionfind.drawn_action(kind, seed, N, rng))
        windows = (window, window + 1)
    for w in windows:
        assert text_of(lambda: coequalize(u, v, w)) == text_of(
            lambda: oracle.coequalize(u, v, w))
