"""The face-indexed colimit kernels of tamebox.iset against the
brute-force tuple enumerations kept in colimit_oracle, on seeded
diagrams of every generator family at N <= 4."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colimit_oracle as oracle
import tamebox.iset as iset
from tamebox.errors import TruncationExceeded, ValidationError
from tamebox.generators import random_iset, random_mset
from tamebox.iset import (
    TruncatedISet,
    _colimit_under,
    _day_factors,
    canonicalize,
    day_convolution,
    faithful_extension,
    lan_extend,
    latching,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from tamebox.mset import mset_iso_equal
from tamebox.sigma import SigmaSet

KINDS = ("random", "filtration", "quotient", "representable", "coequalizer")

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
        assert_revalidates(faithful_extension(X, at_least=N + 1))
    except TruncationExceeded:
        pass
    assert [len(l) for l in E.levels] == [len(l) for l in F.levels]
    assert E.stable_from == F.stable_from
    assert E.merge_level == F.merge_level
    assert E.level_sigma(E.N).iso_type() == F.level_sigma(F.N).iso_type()


@settings(kernel_settings, max_examples=50)
@given(st.sampled_from(KINDS), st.sampled_from(KINDS),
       st.integers(0, 10**6), st.integers(2, 3))
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
    old = oracle.day_convolution(X, Y)
    assert_revalidates(new)
    assert [len(l) for l in new.levels] == [len(l) for l in old.levels]
    assert new.stable_from == old.stable_from
    a, b = canonical_or_none(new), canonical_or_none(old)
    assert (a is None) == (b is None)
    if a is not None:
        assert mset_iso_equal(a, b)


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
    X, level, incl, transp = broken_top(kind)
    declared = X.stable_from
    with pytest.raises(ValidationError) as full:
        TruncatedISet(3, X.levels + [level], X.incl + [incl],
                      X.transp + [transp], declared)
    with pytest.raises(ValidationError) as step:
        X._derived(3, [level], [incl], [transp], declared)
    assert (step.value.invariant, step.value.location) == (
        full.value.invariant, full.value.location)
    if kind == "stability":
        assert (full.value.invariant, full.value.location) == ("stability", 2)
        # undeclared, the top level itself becomes the stability level
        assert X._derived(3, [level], [incl], [transp]).stable_from == 3


@pytest.fixture
def validation_counts(monkeypatch):
    counts = {"sigma": 0, "generated": 0}
    sigma_init = SigmaSet.__init__
    generated = iset._generated_from_below

    def counted_sigma(self, *args, **kwargs):
        counts["sigma"] += 1
        sigma_init(self, *args, **kwargs)

    def counted_generated(*args):
        counts["generated"] += 1
        return generated(*args)

    monkeypatch.setattr(SigmaSet, "__init__", counted_sigma)
    monkeypatch.setattr(iset, "_generated_from_below", counted_generated)
    return counts


def test_each_level_validated_once(validation_counts):
    # three levels, then nine extensions adding one level each
    X = representable_iset(2, 2)
    for _ in range(9):
        X = lan_extend(X)
    assert X.N == 11
    assert validation_counts == {"sigma": 12, "generated": 11}


def test_day_convolution_validates_only_its_levels(validation_counts):
    X = representable_iset(1, 6)
    validation_counts.update(sigma=0, generated=0)
    XY = day_convolution(X, X)
    assert XY.N == 6
    assert validation_counts == {"sigma": 7, "generated": 6}
