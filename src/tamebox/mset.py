"""Canonical finitely supported actions of the injection monoid.

A tame action decomposes levelwise: level m collects the elements
supported on exactly {1..m}, a finite symmetric-group set.  A concrete
element is a pair (image tuple, point): the tuple places the abstract
level-m point at m concrete naturals.  Canonical representatives keep
the image sorted, so equality is tuple comparison and no group search
is ever needed.

The box product of two such actions pairs disjointly supported
elements; its canonical form is computed levelwise by induction of
symmetric-group sets, and the explicit pairing/unpairing maps are what
the law suites exercise.

The window table of an action, or its quotient by a parallel pair,
returns to canonical form through the colimit kernel of `iset`: as the
colimit of the support filtration up to the window.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import (
    DegreeTooLarge,
    InvalidMorphism,
    OverlappingSupports,
    SupportNotCovered,
    WindowTooSmall,
)
from .injections import PartialInjection
from .sigma import (
    SigmaSet,
    all_injective_tuples,
    induce,
    iso_equal,
    point_key,
    regular_sigma_set,
)

DEFAULT_DEGREE_BOUND = 7  # the top level that built canonical forms may have


class MElement(NamedTuple):
    """One element: a point of level `level` placed at the naturals in
    `image` (kept sorted for canonical representatives)."""

    level: int
    image: tuple
    point: object


def support(x: MElement):
    """The support is the set of image entries; empty at level zero."""
    return frozenset(x.image)


class CanonicalTameMSet:
    """A level family of symmetric-group sets; empty levels omitted."""

    def __init__(self, levels):
        lv = {}
        for m, ss in levels.items():
            if type(m) is not int:
                raise ValueError(f"level {m!r} is not an int")
            if len(ss) == 0:
                continue
            if ss.m != m:
                raise ValueError(f"level {m} holds a degree-{ss.m} set")
            lv[m] = ss
        self.levels = lv

    @property
    def max_level(self):
        return max(self.levels, default=0)

    def has_element(self, x: MElement):
        ss = self.levels.get(x.level)
        return (
            ss is not None
            and x.point in ss.point_set
            and len(x.image) == x.level
            and tuple(sorted(set(x.image))) == x.image  # strictly increasing
        )

    def canonical(self, level, image, point):
        """The canonical representative of [image, point]: sort the
        image and push the sorting permutation into the point."""
        image = tuple(image)
        if len(set(image)) != len(image):
            raise ValueError("image entries must be distinct")
        return self._sorted(level, image, point)

    def _sorted(self, level, image, point):
        """`canonical` of an image tuple of distinct entries."""
        ordered = tuple(sorted(image))
        if ordered == image:
            return MElement(level, image, point)
        # the ranks of the entries: the inverse of the sorting permutation
        # (up to the degree bound, `index` beats an argsort)
        rank = tuple([ordered.index(v) + 1 for v in image])
        new_point = self.levels[level].act_perm(rank, point)
        return MElement(level, ordered, new_point)

    def place(self, values, x: MElement) -> MElement:
        """g_* x for the injection g given by its value tuple on
        {1..k}, where k bounds the support of x."""
        image = [values[v - 1] for v in x.image]
        return self.canonical(x.level, image, x.point)

    def act(self, f, x: MElement) -> MElement:
        """Apply an injection defined on the support of x."""
        partial = isinstance(f, PartialInjection)
        image = tuple(map(f.mapping.get if partial else f, x.image))
        if partial and None in image:
            v = x.image[image.index(None)]
            raise SupportNotCovered(f"{v} not in the domain of {f!r}")
        if len(set(image)) != len(image):
            raise SupportNotCovered("map not injective on the support")
        return self._sorted(x.level, image, x.point)

    def elements_up_to(self, N):
        """All canonical elements supported inside {1..N}."""
        out = []
        for m in sorted(self.levels):
            if m > N:
                continue
            ss = self.levels[m]
            for S in combinations(range(1, N + 1), m):
                for p in ss.points:
                    out.append(MElement(m, S, p))
        return out

    def count_up_to(self, N):
        return sum(
            comb(N, m) * len(ss) for m, ss in self.levels.items() if m <= N
        )

    def orbit_set(self):
        """The set of orbits of the action: one entry per orbit of each
        level, since the action preserves levels."""
        return [
            (m, rep)
            for m in sorted(self.levels)
            for rep, _ in self.levels[m].orbits()
        ]

    def __repr__(self):
        sizes = {m: len(ss) for m, ss in sorted(self.levels.items())}
        return f"CanonicalTameMSet(levels={sizes})"


def mset_iso_equal(X: CanonicalTameMSet, Y: CanonicalTameMSet):
    """Levelwise isomorphism of the underlying symmetric-group sets."""
    if set(X.levels) != set(Y.levels):
        return False
    return all(iso_equal(X.levels[m], Y.levels[m]) for m in X.levels)


def semifree_mset(A: SigmaSet):
    """The tame action freely built on one symmetric-group set."""
    return CanonicalTameMSet({A.m: A})


def injection_mset(m):
    """The action on injections {1..m} -> omega by postcomposition."""
    return semifree_mset(regular_sigma_set(m))


def _tagged_union(m, parts):
    """One degree-m set from (tag, set) pairs with distinct tags: the
    point p of the set tagged t becomes (t, p), in the order of the
    parts.  Each part is a Σ_m-set, so their disjoint union is one."""
    tagged = [{p: (tag, p) for p in ss.points} for tag, ss in parts]
    points = [q for names in tagged for q in names.values()]
    tables = []
    for i in range(m - 1):
        t = {}
        for names, (_, ss) in zip(tagged, parts):
            s = ss.transpositions[i]
            t.update((q, names[s[p]]) for p, q in names.items())
        tables.append(t)
    return SigmaSet._built(m, points, tables)


def box(X: CanonicalTameMSet, Y: CanonicalTameMSet,
        degree_bound=DEFAULT_DEGREE_BOUND, level_cap=None):
    """The box product in canonical form: level k is the disjoint union
    over m+n=k of the induced product of the factor levels, tagged
    (m, n).  With a level cap, higher levels are omitted instead of
    raising."""
    parts = {}
    for m, A in X.levels.items():
        for n, B in Y.levels.items():
            k = m + n
            if level_cap is not None and k > level_cap:
                continue
            if k > degree_bound:
                raise DegreeTooLarge(
                    f"box level {k} beyond degree bound {degree_bound}"
                )
            parts.setdefault(k, []).append(((m, n), induce(A, B)))
    levels = {k: _tagged_union(k, ps) for k, ps in parts.items()}
    return CanonicalTameMSet(levels)


def box_pair(x: MElement, y: MElement) -> MElement:
    """The element of the box product carried by a disjointly
    supported pair."""
    sx, sy = set(x.image), set(y.image)
    if sx & sy:
        raise OverlappingSupports(f"supports {sx} and {sy} meet")
    joint = tuple(sorted(sx | sy))
    positions = frozenset(j + 1 for j, v in enumerate(joint) if v in sx)
    tag = (x.level, y.level)
    return MElement(len(joint), joint, (tag, (positions, x.point, y.point)))


def box_split(z: MElement):
    """The two projections of a box-product element."""
    (m, n), (positions, p, q) = z.point
    xs = tuple(z.image[j - 1] for j in sorted(positions))
    ys = tuple(
        z.image[j - 1] for j in range(1, z.level + 1) if j not in positions
    )
    return MElement(m, xs, p), MElement(n, ys, q)


def injection_split_iso(m, n, N):
    """The restriction map from injections on {1..m+n} to pairs of
    injections on {1..m} and {1..n}, tabulated inside window N.

    Returns (forward map, bijective flag): the map restricts to a
    bijection onto the disjointly supported pairs.
    """
    k = m + n
    forward = {t: (t[:m], t[m:]) for t in all_injective_tuples(k, N)}
    pairs = set(forward.values())
    disjoint = set()
    for a in all_injective_tuples(m, N):
        for b in all_injective_tuples(n, N):
            if not set(a) & set(b):
                disjoint.add((a, b))
    bijective = len(pairs) == len(forward) and pairs == disjoint
    return forward, bijective


def decompose_table(X: CanonicalTameMSet, window,
                    degree_bound=DEFAULT_DEGREE_BOUND):
    """The canonical form recovered from the elements of X supported
    inside {1..window}, the window at least twice X's top level.

    Those elements form the support filtration of X up to the window,
    and the colimit of that diagram is X again: the class of an element
    supported on exactly {1..k} is named by the element, and each level
    lists its points in table order, `X.elements_up_to(window)`.  The
    table and its action are X's own, so there is no support, closure
    or size of a caller's table to refuse: only a window below twice
    the top level and a level beyond the degree bound are."""
    # imported here, since iset imports this module
    from .iset import _canonical_named, support_filtration

    if window < 2 * X.max_level:
        raise WindowTooSmall(f"window {window} below twice the top level "
                             f"{X.max_level}")
    F = support_filtration(X, window)
    return _canonical_named(F, F.positions(window).__getitem__, degree_bound)


class MSetMorphism:
    """An equivariant map, stored on orbit representatives only."""

    def __init__(self, source: CanonicalTameMSet, target: CanonicalTameMSet,
                 assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        for m, ss in source.levels.items():
            for rep, _ in ss.orbits():
                key = (m, rep)
                if key not in self.assignment:
                    raise InvalidMorphism(f"no value for representative {key}")
                val = self.assignment[key]
                if not target.has_element(val):
                    raise InvalidMorphism(f"value {val!r} not in the target")
                if not set(val.image) <= set(range(1, m + 1)):
                    raise InvalidMorphism(
                        f"value for {key} not supported inside 1..{m}"
                    )
                for sigma in ss.stabilizer_generators(rep):
                    if target.place(sigma, val) != val:
                        raise InvalidMorphism(
                            f"stabilizer of {key} does not fix the value"
                        )

    def apply(self, x: MElement) -> MElement:
        # x = g_*[1..level, rep], g read off the transversal
        rep, sigma = self.source.levels[x.level].rooted_transversal()[x.point]
        return self.target.place([x.image[k - 1] for k in sigma],
                                 self.assignment[(x.level, rep)])


def coequalize(u: MSetMorphism, v: MSetMorphism, window,
               degree_bound=DEFAULT_DEGREE_BOUND):
    """Identify u(x) with v(x) and return the canonical form of the
    quotient: the colimit of the support filtration of the target up to
    the window, quotiented by the pair u(x), v(x) of the standard element
    x of each source orbit, moved onto {1..|J|}, J their joint support,
    and seeded at level |J|, within the window; every other pair is an
    image of these.  Each class is named by its point at the window, the
    least of its elements there in key order, which may lie above the
    level of its support; each level lists its points in key order."""
    # imported here, since iset imports this module
    from .iset import _canonical_named, quotient_iset, support_filtration

    def tables(X):  # the points and tables of each level: X's action
        return {m: (ss.point_set, ss.transpositions)
                for m, ss in X.levels.items()}

    if u.source is not v.source and tables(u.source) != tables(v.source):
        raise InvalidMorphism("parallel pair must share a source")
    if u.target is not v.target and tables(u.target) != tables(v.target):
        raise InvalidMorphism("parallel pair must share a target")
    target = u.target
    if window < 2 * target.max_level:
        raise WindowTooSmall(
            f"window {window} below twice the maximal support size"
        )
    seeds = []
    for m, rep in u.source.orbit_set():
        x = MElement(m, tuple(range(1, m + 1)), rep)
        pair = u.apply(x), v.apply(x)
        J = sorted({j for y in pair for j in y.image})
        seeds.append((len(J), *(y._replace(image=tuple(
            J.index(j) + 1 for j in y.image)) for y in pair)))
    Q = quotient_iset(support_filtration(target, window), seeds)
    return _canonical_named(Q, point_key, degree_bound)


def orbit_product_bijection(X: CanonicalTameMSet, Y: CanonicalTameMSet,
                            XY: CanonicalTameMSet):
    """The bijection from the orbits of XY, the box product of X and Y,
    onto pairs of factor orbits; returns (mapping, bijective flag)."""
    mapping = {}
    for k, rep in XY.orbit_set():
        (m, n), (positions, p, q) = rep
        zroot = X.levels[m].orbit_root(p)
        wroot = Y.levels[n].orbit_root(q)
        mapping[(k, rep)] = ((m, zroot), (n, wroot))
    targets = set(mapping.values())
    product = {
        (a, b) for a in X.orbit_set() for b in Y.orbit_set()
    }
    bijective = len(targets) == len(mapping) and targets == product
    return mapping, bijective
