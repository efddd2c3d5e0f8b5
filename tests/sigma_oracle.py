"""Isomorphism types of Σ_m-sets as the library computed them before
it read them off the orbit tables, kept as a test oracle for
tamebox.sigma.SigmaSet.iso_type.

`stabilizer` runs every permutation of the degree through `act_perm`;
`conjugacy_label` names the trivial, full and alternating subgroups
and labels any other subgroup by its least conjugate, found by running
every permutation; `iso_type` is the sorted list of those labels, one
per orbit."""

from functools import lru_cache
from math import factorial

from tamebox.sigma import all_injective_tuples, perm_compose, perm_inverse


def stabilizer(ss, p):
    """The permutations that fix the point p."""
    return frozenset(
        sigma for sigma in all_injective_tuples(ss.m, ss.m)
        if ss.act_perm(sigma, p) == p)


@lru_cache(maxsize=None)
def conjugacy_label(m, subgroup):
    """A string determined exactly by the conjugacy class of the
    subgroup inside the degree-m symmetric group."""
    order = len(subgroup)
    if order == 1:
        return f"S{m}:trivial"
    if order == factorial(m):
        return f"S{m}:full"
    if 2 * order == factorial(m):
        return f"S{m}:alternating"
    best = None
    for g in all_injective_tuples(m, m):
        ginv = perm_inverse(g)
        conj = tuple(sorted(perm_compose(perm_compose(g, h), ginv)
                            for h in subgroup))
        if best is None or conj < best:
            best = conj
    return f"S{m}:c{best}"


def iso_type(ss):
    """Multiset of stabilizer conjugacy labels, one per orbit."""
    return tuple(sorted(conjugacy_label(ss.m, stabilizer(ss, rep))
                        for rep, _ in ss.orbits()))
