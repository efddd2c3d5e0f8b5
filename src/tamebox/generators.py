"""Seeded random instances for the law suites.

Everything draws from a caller-supplied random.Random, so a seed pins
the full stream of generated objects; the self-test harness and the
test suite share these builders.
"""

from __future__ import annotations

from .injections import (
    OperadElement,
    QuasiAffineInjection,
    _transported,
    order_embed_avoiding,
)
from .iset import (
    constant_iset,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from .mset import CanonicalTameMSet
from .sigma import (
    SigmaSet,
    regular_sigma_set,
    trivial_sigma_set,
    word_sigma_set,
)


def random_quasi_affine(rng):
    atoms = [
        QuasiAffineInjection.identity(),
        QuasiAffineInjection.affine(2, 0),
        QuasiAffineInjection.affine(2, -1),
        QuasiAffineInjection.affine(3, rng.randint(0, 2)),
        QuasiAffineInjection.affine(1, rng.randint(0, 5)),
        order_embed_avoiding(set(rng.sample(range(1, 10), rng.randint(0, 4)))),
    ]
    f = atoms[rng.randrange(len(atoms))]
    for _ in range(rng.randint(0, 2)):
        f = f.compose(atoms[rng.randrange(len(atoms))])
    return f


def disjoint_lanes(n):
    """n total injections with pairwise disjoint images (residue lanes)."""
    return [QuasiAffineInjection.affine(n, i - n) for i in range(1, n + 1)]


def random_operad_element(rng, n):
    lanes = disjoint_lanes(n)
    return OperadElement(
        [lane.compose(random_quasi_affine(rng)) for lane in lanes]
    )


def random_agreeing_pair(rng, n, constraint_sizes):
    """A pair agreeing on random constraint sets, produced by hidden
    moves that fix the sets pointwise."""
    phi = random_operad_element(rng, n)
    constraints = [
        frozenset(rng.sample(range(1, 8), size)) for size in constraint_sizes
    ]
    psi = phi
    for _ in range(rng.randint(1, 3)):
        psi = psi.precompose(tuple(
            _transported(random_quasi_affine(rng), sorted(A), {a: a for a in A})
            for A in constraints))
    return phi, psi, constraints


def random_prescribed_pair(rng, n, constraint_sizes):
    """A pair agreeing on constraint sets where the second element is
    drawn independently off them: only the prescribed values are
    shared, so nothing relates the two by construction."""
    phi = random_operad_element(rng, n)
    constraints = [
        frozenset(rng.sample(range(1, 8), size)) for size in constraint_sizes
    ]
    pinned = [
        {a: phi.slot(i + 1)(a) for a in constraints[i]} for i in range(n)
    ]
    taken = sorted(v for pin in pinned for v in pin.values())
    lanes = disjoint_lanes(n)
    slots = [_transported(lanes[i].compose(random_quasi_affine(rng)), taken,
                          pinned[i]) for i in range(n)]
    return phi, OperadElement(slots), constraints


def random_sigma_set(rng, m, max_points=5):
    """A union of orbits of a genuine degree-m action, within a point
    budget; may come back empty."""
    if m == 0:
        k = rng.randint(1, max_points)
        return trivial_sigma_set(0, [f"c{i}" for i in range(k)])
    if m <= 3 and rng.random() < 0.25:
        base = regular_sigma_set(m)
    else:
        base = word_sigma_set(m, range(rng.randint(1, 3)))
    orbits = [members for _, members in base.orbits()]
    rng.shuffle(orbits)
    chosen = []
    total = 0
    for members in orbits:
        if total + len(members) <= max_points:
            chosen.extend(members)
            total += len(members)
    if not chosen:
        return None
    tables = [{p: t[p] for p in chosen} for t in base.transpositions]
    return SigmaSet(m, chosen, tables)


def random_mset(rng, max_level=4, max_points=5):
    levels = {}
    for m in range(max_level + 1):
        if rng.random() < (0.55 if m else 0.6):
            ss = random_sigma_set(rng, m, max_points)
            if ss is not None and len(ss):
                levels[m] = ss
    if not levels:
        levels[0] = trivial_sigma_set(0, ["c0"])
    return CanonicalTameMSet(levels)


def random_sub_mset(rng, X: CanonicalTameMSet):
    """A sub-action: a random union of orbits at every level."""
    levels = {}
    for m, ss in X.levels.items():
        chosen = []
        for _, members in ss.orbits():
            if rng.random() < 0.6:
                chosen.extend(members)
        if chosen:
            tables = [{p: t[p] for p in chosen} for t in ss.transpositions]
            levels[m] = SigmaSet(m, chosen, tables)
    return CanonicalTameMSet(levels)


def random_iset(rng, N, max_stable, merge_cap=None):
    """A validated truncated diagram with stability at most max_stable;
    an optional cap keeps inclusion merges away from the truncation
    top, so the colimit machinery stays applicable."""
    for _ in range(20):
        kind = rng.random()
        if kind < 0.45:
            W = random_mset(rng, max_level=max_stable, max_points=3)
            X = support_filtration(W, N)
        elif kind < 0.7:
            W = random_mset(rng, max_level=max_stable, max_points=3)
            X = support_filtration(W, N)
            top = N if merge_cap is None else max(merge_cap, 1)
            seeds = []
            for _ in range(rng.randint(1, 2)):
                candidates = [m for m in range(top + 1)
                              if len(X.levels[m]) >= 2]
                if not candidates:
                    continue
                lv = rng.choice(candidates)
                a, b = rng.sample(X.levels[lv], 2)
                seeds.append((lv, a, b))
            if seeds:
                X = quotient_iset(X, seeds)
        elif kind < 0.85:
            X = representable_iset(rng.randint(0, max_stable), N)
        elif kind < 0.95:
            X = constant_iset([f"k{i}" for i in range(rng.randint(1, 3))], N)
        else:
            X = restriction_coequalizer(N)
        if X.stable_from > max_stable:
            continue
        if merge_cap is not None and X.merge_level > merge_cap:
            continue
        return X
    return representable_iset(min(1, max_stable), N)
