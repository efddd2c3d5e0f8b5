"""The face-indexed colimit kernels of tamebox.iset against the
brute-force tuple enumerations kept in colimit_oracle, on seeded
diagrams of every generator family at N <= 4."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colimit_oracle as oracle
from tamebox.errors import TruncationExceeded
from tamebox.generators import random_iset, random_mset
from tamebox.iset import (
    _colimit_under,
    canonicalize,
    day_convolution,
    lan_extend,
    latching,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from tamebox.mset import mset_iso_equal

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
        new = day_convolution(X, Y)
    except TruncationExceeded:
        with pytest.raises(TruncationExceeded):
            oracle.day_convolution(X, Y)
        return
    old = oracle.day_convolution(X, Y)
    assert [len(l) for l in new.levels] == [len(l) for l in old.levels]
    assert new.stable_from == old.stable_from
    a, b = canonical_or_none(new), canonical_or_none(old)
    assert (a is None) == (b is None)
    if a is not None:
        assert mset_iso_equal(a, b)
