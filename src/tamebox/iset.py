"""Truncated diagrams over finite sets and injections.

A TruncatedISet stores levels 0..N of a functor on the category of
finite sets and injections, presented by the standard inclusions and
the adjacent transpositions.  The generating relations are validated
by evaluation at the boundary and trusted by construction inside, where
Tier-1 checks them through a test fixture; the stability level,
declared or else the least that holds, records from where on every
higher element comes from a lower one.

On top of this sit the colimit over the inclusions with its induced
monoid action, exact support computation, flatness checking by two
independent routes (latching maps, and the count of generators), the
latching pushouts of monomorphisms, the Day convolution along
concatenation, and the passage back and forth to canonical tame actions.

Latching objects and the Lan extension by one level are colimits over
comma categories of injections into n.  Those categories are preorders:
the injections into n that are not bijections are, up to isomorphism,
the proper subsets of {1..n}.  Each colimit is therefore computed face
by face: one union-find node per maximal face and element, glued along
the faces one size down through the face maps, and any (injection,
element) pair is resolved onto a maximal face by sorting it and acting
by the rank permutation.  The nodes are integer ids, numbered from the
face and the positions of the points in their levels, in the order the
nodes are listed; `unionfind.UnionFind` roots every class at its least
id, so each class is named by its first node.  What is glued at level n
depends only on n and is built once per n.

Quotients and the Day convolution share one closure loop, `_quotient`,
which names each class by its first point in an order its caller
gives.  The Day convolution is a quotient of the support filtration of
the box product of the factors' generators, by both factors' relations
(see `day_convolution`): its points are box elements.

Each level's face maps, the faces that hold each point with a
preimage along each, and the points no face holds, its generators, are
tabulated on the positions of the points when the level is added,
straight from the inclusion and the transposition tables; a derived
diagram shares the tables of the levels it shares.
Every reader of faces reads them there, the colimit's class elements
too; any other injection is applied by walking the inclusions and then
a cached transposition word.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import (
    DegreeTooLarge,
    InvalidMorphism,
    NotTame,
    PreconditionViolated,
    TruncationExceeded,
    ValidationError,
)
from .mset import (DEFAULT_DEGREE_BOUND, CanonicalTameMSet, MElement, box,
                   box_pair)
from .sigma import SigmaSet, all_injective_tuples, completion_word, point_key
from .unionfind import UnionFind


class TruncatedISet:
    """Levels 0..N with functoriality and stability.

    The relations (`_check`) are validated at the boundary, by the
    public constructor, which documents use, and trusted by
    construction inside: every diagram the library builds comes from
    `_built` or `_derived`, and Tier-1 checks them through a test
    fixture.  Every constructor checks the points and inclusions it
    records, tabulates each level it adds (`_settle`) and keeps the
    least stability level that holds; a document may declare one,
    refused if it fails.  A derived diagram shares the levels and
    tables of the diagram it comes from."""

    def __init__(self, N, levels, incl, transp, stable_from=None):
        self._take(N, [list(l) for l in levels], [dict(d) for d in incl],
                   [[dict(t) for t in ts] for ts in transp])
        if stable_from is not None and (type(stable_from) is not int
                                        or not 0 <= stable_from <= N):
            raise ValidationError("stability level out of range")
        self._settle(stable_from, check=True)

    @classmethod
    def _built(cls, N, levels, incl, transp):
        """The diagram on level data the library built so that the
        relations hold; only what `_settle` reads is checked, and the
        stability level is the least that holds."""
        out = object.__new__(cls)
        out._take(N, levels, incl, transp)
        out._settle()
        return out

    def _derived(self, n, levels=(), incl=(), transp=()):
        """The diagram on levels 0..n that shares this one's levels up
        to min(n, N), with their tables, and has above them the given
        data, which the library built so that the relations hold; the
        stability level is the least that holds."""
        k = min(n, self.N)
        out = object.__new__(TruncatedISet)
        out._take(n, self.levels[: k + 1] + list(levels),
                  self.incl[:k] + list(incl),
                  self.transp[: k + 1] + list(transp), self)
        out._settle()
        return out

    def _take(self, N, levels, incl, transp, base=None):
        """Record the level data, and the tables of the levels 0..min(N,
        base.N) it shares with base; `_settle` tabulates the rest."""
        if type(N) is not int:
            raise ValidationError("integer truncation level", repr(N))
        if len(levels) != N + 1 or len(incl) != N or len(transp) != N + 1:
            raise ValidationError("level data must span 0..N")
        self.N, self.levels, self.incl, self.transp = N, levels, incl, transp
        k = min(N, base.N) + 1 if base else 0
        self._merges = base._merges[: k - 1] if base else []
        self._positions = base._positions[:k] if base else []
        self._faces = base._faces[:k] if base else []
        self._holding = base._holding[:k] if base else []
        self._generators = base._generators[:k] if base else []

    def _check(self, lo, N):
        """The relations on levels lo..N, against the levels below,
        whose inclusions `_record_merges` has checked."""
        # per-level symmetric-group validation (involutions, Coxeter)
        for m in range(lo, N + 1):
            SigmaSet(m, self.levels[m], self.transp[m])
        # naturality of inclusions against transpositions
        for m in range(max(lo - 1, 0), N):
            for i in range(1, m):
                s_lo = self.transp[m][i - 1]
                s_hi = self.transp[m + 1][i - 1]
                for x in self.levels[m]:
                    if self.incl[m][s_lo[x]] != s_hi[self.incl[m][x]]:
                        raise ValidationError("inclusion naturality", (m, i))
        # the two inclusions into level m+2 agree after the new swap
        for m in range(max(lo - 2, 0), N - 1):
            s_new = self.transp[m + 2][m]  # swaps m+1 and m+2
            for x in self.levels[m]:
                y = self.incl[m + 1][self.incl[m][x]]
                if s_new[y] != y:
                    raise ValidationError("double inclusion", m)

    def _record_merges(self, lo, N):
        """Check that each inclusion into levels lo..N maps level into
        level, and record whether it identifies two elements."""
        for m in range(max(lo - 1, 0), N):
            if self.incl[m].keys() != self.positions(m).keys():
                raise ValidationError("inclusion domain", m)
            image = set(self.incl[m].values())
            if not image <= self.positions(m + 1).keys():
                raise ValidationError("inclusion target", m)
            self._merges.append(len(image) != len(self.incl[m]))

    def _settle(self, stable_from=None, check=False):
        """Check the levels not yet tabulated, their inclusions and, if
        asked, their relations (`_check`), and that they hold distinct
        points; tabulate them, and keep the stability level: the
        declared one, refused if it fails, or else the least."""
        lo, N = len(self._positions), self.N
        self._positions += [{x: i for i, x in enumerate(level)}
                            for level in self.levels[lo:]]
        self._record_merges(lo, N)
        if check:
            self._check(lo, N)
        for n in range(lo, N + 1):
            if len(self._positions[n]) != len(self.levels[n]):
                raise ValidationError("distinct points", n)
            self._tabulate(n)
        # level n is generated from n - 1 when its faces hold all of it:
        # s_1 .. s_{n-2} keep the image of the inclusion, so the coset
        # representatives s_j ... s_{n-1} carry it onto all its images
        failing = [n for n, g in enumerate(self._generators) if g]
        if stable_from is None:
            stable_from = max(failing, default=0)
        for n in failing:
            if n > stable_from:
                raise ValidationError("stability", n - 1)
        self.stable_from = stable_from

    def _tabulate(self, n):
        """Build the face table, the faces-holding table and the
        generators of level n (`face_positions`, `faces_holding`,
        `generators`): the face that skips n is the inclusion, and the
        one that skips j+1 is s_{j+1} after the one that skips j+2."""
        pos, level = self._positions[n], self.levels[n]
        faces, holding = [], [{} for _ in level]
        if n:
            row = [pos[self.incl[n - 1][y]] for y in self.levels[n - 1]]
            faces.append(row)
            for t in reversed(self.transp[n]):
                row = [pos[t[level[p]]] for p in row]
                faces.append(row)
            faces.reverse()
        for i, row in enumerate(faces, start=1):
            for p0, p in enumerate(row):
                holding[p][i] = p0
        self._faces.append(faces)
        self._holding.append(holding)
        self._generators.append([z for z, held in zip(level, holding)
                                 if not held])

    @property
    def merge_level(self):
        """The highest level where an inclusion map identifies two
        elements; zero when all inclusions are injective."""
        return max((m + 1 for m, merges in enumerate(self._merges) if merges),
                   default=0)

    @property
    def free(self):
        """Whether X is free on its generators G_m (`generators`), that
        is flat: whether |X(n)| = Σ_m C(n, m)·|G_m| for every n ≤ N.  The
        free diagram F_G on the Σ_m-sets G_m maps onto X, since a point
        is a generator or in a face image; Σ_m acts freely on I(m, n), so
        |F_G(n)| is that sum.  X is flat exactly when the map is a
        bijection: F_G is flat, and by induction on n an injective
        latching map splits X(n) as its image and G_n, as F_G(n) splits."""
        return self._count_failure() is None

    def _count_failure(self):
        """("count", n, |X(n)|, Σ_m C(n, m)·|G_m|) at the first level n
        where the count of `free` fails, or None where it holds."""
        g = [len(gens) for gens in self._generators]
        for n, level in enumerate(self.levels):
            total = sum(comb(n, m) * g[m] for m in range(n + 1))
            if total != len(level):
                return "count", n, len(level), total
        return None

    def positions(self, m):
        """Each point of level m sent to its index in the level."""
        return self._positions[m]

    def face_positions(self, k):
        """The k face maps X(k-1) -> X(k) on positions: entry j lists
        the position in level k of the image of each point of level
        k-1, in level order, along the order embedding of {1..k-1} that
        skips j+1."""
        return self._faces[k]

    def faces_holding(self, n):
        """For each point of level n, in level order, a dict sending
        each value i whose face, the order embedding that skips i, has
        the point in its image to the position in level n-1 of a
        preimage along that face, the last in level order."""
        return self._holding[n]

    def generators(self, n):
        """The points of level n in no face image, in level order."""
        return self._generators[n]

    def map_along(self, alpha, n, x):
        """Apply the functor to the injection given by the value tuple
        alpha into {1..n}; x lives at level len(alpha).  The injection
        is the inclusion into {1..n} followed by the permutation that
        completes alpha with the unused values in increasing order."""
        if n > self.N:
            raise TruncationExceeded(f"level {n} beyond truncation {self.N}")
        incl = self.incl
        for k in range(len(alpha), n):
            x = incl[k][x]
        tabs = self.transp[n]
        for i in completion_word(alpha, n):
            x = tabs[i][x]
        return x


def _nested(levels, swap):
    """The levels, inclusions and transpositions of the diagram on
    levels that each hold the one below, with the identity as
    inclusions and s_i sending x to swap(x, i), found once on the top
    level.  One rule at every level makes the inclusions natural; each
    caller's rule is an action of the permutations, and s_{m+1} fixes
    level m under it, so the relations hold."""
    N = len(levels) - 1
    moves = [{x: swap(x, i) for x in levels[N]} for i in range(1, N)]
    incl = [{x: x for x in level} for level in levels[:-1]]
    transp = [[{x: move[x] for x in level} for move in moves[:max(m - 1, 0)]]
              for m, level in enumerate(levels[:-1])] + [moves]
    return levels, incl, transp


def representable_iset(m, N):
    """The functor represented by {1..m}: level k holds the injections
    {1..m} -> {1..k}, and the maps post-compose, which is functorial.
    `_swapped` runs uncached, or its cache would keep every injection."""
    return TruncatedISet._built(N, *_nested(
        [all_injective_tuples(m, k) for k in range(N + 1)],
        _swapped.__wrapped__))


def constant_iset(points, N):
    """The same points at every level, every map the identity: each
    s_i fixes each point x, the first of the swap's arguments (x, i)."""
    return TruncatedISet._built(N, *_nested([list(points)] * (N + 1),
                                            lambda *x_i: x_i[0]))


def support_filtration(W: CanonicalTameMSet, N):
    """The diagram of elements supported inside {1..m}; always flat
    (see `_filtration`)."""
    return TruncatedISet._built(N, *_filtration(W, N))


def _filtration(W: CanonicalTameMSet, N):
    """The levels, inclusions and transpositions of the support
    filtration, for a caller that quotients them before it builds a
    diagram.

    Level m keeps, in order, the elements of level N whose image ends
    at m or below: the list `W.elements_up_to(m)`.  The swap s_i moves
    an element's point by s_p of its Σ-set when i and i+1 are the p-th
    and (p+1)-th entries of its sorted image, and else exchanges i and
    i+1 in its image, which keeps it sorted; the moved element is the
    level's own, found by its plain tuple.  This is the action of W on
    its elements supported inside {1..m}, so the relations hold."""
    if N < W.max_level:
        raise TruncationExceeded(
            f"truncation {N} below maximal level {W.max_level}"
        )
    top = W.elements_up_to(N)
    own = {e: e for e in top}

    def swap(e, i):
        k, image, p = e
        if i in image and i + 1 in image:
            return own[k, image, W.levels[k].transpositions[image.index(i)][p]]
        return own[k, _swapped(image, i), p]

    ends = [max(e.image, default=0) for e in top]
    return _nested([[e for e, end in zip(top, ends) if end <= m]
                    for m in range(N + 1)], swap)


def _quotient(order, incl, transp, seeds):
    """The points listed level by level in `order`, with tables that
    satisfy the relations, modulo the functorial closure of the seeds,
    (level, point, point) triples: the images of each identified pair
    under every transposition and inclusion are identified, so the maps
    are well defined on classes.  Each class is named by its first point
    in `order`, and the classes are listed in that order."""
    N = len(order) - 1
    rank = [{p: i for i, p in enumerate(points)} for points in order]
    uf = [UnionFind(len(points)) for points in order]

    def find(m, p):
        return order[m][uf[m].root_id(rank[m][p])]

    work = list(seeds)
    while work:
        m, a, b = work.pop()
        ra, rb = find(m, a), find(m, b)
        if ra == rb:
            continue
        uf[m].union_ids((rank[m][ra],), (rank[m][rb],))
        for t in transp[m]:
            work.append((m, t[ra], t[rb]))
        if m < N:
            work.append((m + 1, incl[m][ra], incl[m][rb]))

    levels = [[order[m][i] for i in u.root_ids()] for m, u in enumerate(uf)]
    return TruncatedISet._built(
        N, levels,
        [{p: find(m + 1, incl[m][p]) for p in levels[m]} for m in range(N)],
        [[{p: find(m, t[p]) for p in levels[m]} for t in transp[m]]
         for m in range(N + 1)])


def quotient_iset(X: TruncatedISet, seeds):
    """Quotient by the functorial closure of seed identifications,
    given as (level, point, point) triples, each point in its level;
    every class is named by its least point in `point_key` order (see
    `_quotient`)."""
    seeds = [(m, a, b) for m, a, b in seeds]
    for m, a, b in seeds:
        if not 0 <= m <= X.N:
            raise TruncationExceeded(
                f"seed at level {m} outside the truncation 0..{X.N}"
            )
        for p in (a, b):
            if p not in X.positions(m):
                raise ValidationError("seed point in its level", (m, p))
    return _quotient([sorted(level, key=point_key) for level in X.levels],
                     X.incl, X.transp, seeds)


def restriction_coequalizer(N):
    """The designated non-flat example: identify the two restriction
    maps from the rank-two representable to the rank-one one."""
    return quotient_iset(representable_iset(1, N), [(2, (1,), (2,))])


class OmegaColimit:
    """The colimit over the inclusions.  Its classes are the points of
    level N: a class holds the nodes the inclusions carry to one, and
    `root[m, x]` names the class of the node x at level m."""

    def __init__(self, X: TruncatedISet):
        self.iset = X
        # each level pushed to the top once, from N down
        top = [None] * X.N + [{p: p for p in X.levels[X.N]}]
        for m in range(X.N - 1, -1, -1):
            top[m] = {p: top[m + 1][X.incl[m][p]] for p in X.levels[m]}
        # level by level, each in key order: every class is named by its
        # (level, key)-least node, and classes lists them in that order
        name, self.root = {}, {}
        for m in range(X.N + 1):
            for p in sorted(X.levels[m], key=point_key):
                self.root[m, p] = name.setdefault(top[m][p], (m, p))
        self.classes = list(name.values())
        self._elements = {}

    def class_to_element(self, c) -> MElement:
        """The canonical element a class corresponds to under the
        decomposition of the colimit as a tame action: its support, and
        the class obtained by pushing the support onto an initial
        segment.

        A point that a face holds is pulled down to its preimage along
        that face (`TruncatedISet.faces_holding`), and the element of
        the preimage is pushed forward: its image moves along the face
        and its point stays, since a tame element is acted on through
        its support only.  Any preimage gives the one canonical element.
        Only a generator's support is found by single test injections."""
        got = self._elements.get(c)
        if got is not None:
            return got
        m, x = c
        X = self.iset
        held = X.faces_holding(m)[X.positions(m)[x]]
        if held:
            i, p0 = next(iter(held.items()))
            inner = self.class_to_element(
                self.root[m - 1, X.levels[m - 1][p0]])
            got = inner._replace(
                image=tuple(j if j < i else j + 1 for j in inner.image))
        else:
            if 0 < m == X.N:
                raise TruncationExceeded(
                    "support test needs one level of headroom"
                )
            # j is in the support when moving it to m + 1 moves c
            S = [j for j in range(1, m + 1) if self.root[m + 1, X.map_along(
                tuple(m + 1 if v == j else v for v in range(1, m + 1)),
                m + 1, x)] != c]
            # and the permutation that ranks S first pushes it down
            order = S + [v for v in range(1, m + 1) if v not in S]
            got = MElement(len(S), tuple(S), self.root[m, X.map_along(
                tuple(order.index(v) + 1 for v in range(1, m + 1)), m, x)])
        self._elements[c] = got
        return got


def canonicalize(X: TruncatedISet, degree_bound=DEFAULT_DEGREE_BOUND):
    """The canonical tame action carried by the colimit (see
    `_canonical_colimit`)."""
    return _canonical_colimit(X, degree_bound)[1]


def _canonical_named(X: TruncatedISet, key, degree_bound):
    """`canonicalize(X)` with each class named by its point at X's top
    level, which no two classes share, and each level listed by the key
    of those names."""
    W = canonicalize(X, degree_bound)
    levels = {}
    for k, ss in W.levels.items():
        name = {c: X.map_along(tuple(range(1, c[0] + 1)), X.N, c[1])
                for c in ss.points}
        points = sorted(ss.points, key=lambda c: key(name[c]))
        levels[k] = SigmaSet._built(
            k, [name[c] for c in points],
            [{name[c]: name[t[c]] for c in points} for t in ss.transpositions])
    return CanonicalTameMSet(levels)


def _canonical_colimit(X: TruncatedISet, degree_bound):
    """The colimit of X, taken in its canonical extension, and the
    canonical tame action it carries.

    The truncation must reach twice the declared stability level; the
    colimit is taken in the faithful extension (`faithful_extension`: X
    itself when free), so that merges forced just past the given levels
    are seen rather than silently missed.

    Level k holds, in class order, the classes supported on exactly
    {1..k}: each comes from level s, the extension's stability level,
    and an injection fixing {1..k} moves it into {1..s}, so all are
    named at or below s.  s_i sends the class of x to that of s_i x, an
    equivariant image of x's level, so the relations hold."""
    s = X.stable_from
    if X.N < 2 * s:
        raise TruncationExceeded(
            f"truncation {X.N} below twice the stability level {s}"
        )
    colim = OmegaColimit(faithful_extension(X))
    E = colim.iset
    points = {}
    for c in colim.classes:
        if c[0] <= E.stable_from:
            e = colim.class_to_element(c)
            if e.image == tuple(range(1, e.level + 1)):
                points.setdefault(e.level, []).append(c)
    levels = {}
    for k in sorted(points):
        if k > degree_bound:
            raise DegreeTooLarge(f"level {k} beyond degree bound "
                                 f"{degree_bound}")
        tables = [{c: colim.root[c[0], E.transp[c[0]][i][c[1]]]
                   for c in points[k]} for i in range(k - 1)]
        levels[k] = SigmaSet._built(k, points[k], tables)
    return colim, CanonicalTameMSet(levels)


class ISetMorphism:
    """A levelwise map, validated against the generating morphisms at
    the boundary and trusted from `_built` for the library's own."""

    def __init__(self, source: TruncatedISet, target: TruncatedISet, maps):
        if source.N != target.N:
            raise InvalidMorphism("source and target truncations differ")
        self.source = source
        self.target = target
        self.maps = [dict(d) for d in maps]
        if len(self.maps) != source.N + 1:
            raise InvalidMorphism("one level map per level required")
        for m in range(source.N + 1):
            if set(self.maps[m]) != set(source.levels[m]):
                raise InvalidMorphism(f"level {m} map domain mismatch")
            if not set(self.maps[m].values()) <= set(target.levels[m]):
                raise InvalidMorphism(f"level {m} map lands outside target")
        for m in range(source.N):
            for x in source.levels[m]:
                if self.maps[m + 1][source.incl[m][x]] != target.incl[m][self.maps[m][x]]:
                    raise InvalidMorphism(f"inclusion naturality at level {m}")
        for m in range(source.N + 1):
            for s_src, s_tgt in zip(source.transp[m], target.transp[m]):
                for x in source.levels[m]:
                    if self.maps[m][s_src[x]] != s_tgt[self.maps[m][x]]:
                        raise InvalidMorphism(
                            f"transposition naturality at level {m}")

    @classmethod
    def _built(cls, source, target, maps):
        """The morphism the library built natural, one map per level."""
        out = object.__new__(cls)
        out.source, out.target, out.maps = source, target, maps
        return out

    def _bijective_at(self, m):
        return (len(set(self.maps[m].values())) == len(self.source.levels[m])
                == len(self.target.levels[m]))

    def level_bijective(self):
        return all(self._bijective_at(m) for m in range(self.source.N + 1))


def n_iso_check(f: ISetMorphism):
    """Whether f induces a bijection on the colimit classes of the points
    of level N, read as `canonicalize` reads them, in the colimit of the
    faithful extension of source and target, where points that merge
    past the truncation are one class; past the extension's hard top
    this raises `TruncationExceeded`."""
    N = f.source.N
    src, tgt = (OmegaColimit(faithful_extension(X)).root
                for X in (f.source, f.target))
    image = {src[N, x]: tgt[N, y] for x, y in f.maps[N].items()}
    return (len(set(image.values())) == len(image)
            == len({tgt[N, y] for y in f.target.levels[N]}))


def flat_replacement(X: TruncatedISet, degree_bound=DEFAULT_DEGREE_BOUND):
    """The flat diagram on the colimit, with the comparison map into it.

    Returns (replacement, unit morphism); classes and supports are
    taken in the canonical extension so late merges are respected.  The
    unit sends a point to the element of its colimit class, which is
    natural because the colimit's action is induced by X's maps."""
    colim, W = _canonical_colimit(X, degree_bound)
    flat = support_filtration(W, X.N)
    maps = []
    for m in range(X.N + 1):
        maps.append(
            {x: colim.class_to_element(colim.root[m, x])
             for x in X.levels[m]}
        )
    return flat, ISetMorphism._built(X, flat, maps)


class LatchingData(NamedTuple):
    classes: list
    values: dict  # class -> its image in X(n)
    injective: bool
    witness: tuple  # (n, class, class, shared value), or None


@lru_cache(maxsize=None)
def _face_shape(n):
    """What `_colimit_under` glues at level n, which depends only on n:
    the maximal proper faces of {1..n}, faces[i] missing n - i, and one
    row (i, j, i2, j2) per pair of values a < b.  The faces i = n - b
    and i2 = n - a meet in the face missing both, whose points reach
    face i along the face map j = a - 1 and face i2 along j2 = b - 2."""
    faces = list(combinations(range(1, n + 1), n - 1))
    rows = [(n - b, a - 1, n - a, b - 2)
            for a, b in combinations(range(1, n + 1), 2)]
    return faces, rows


def _colimit_under(X: TruncatedISet, n):
    """The colimit of X over the proper subobjects of {1..n}, n at most
    one past the truncation.

    The injections into n that are not bijections form, up to
    isomorphism, the poset of proper subsets S of {1..n}, each standing
    for its order embedding.  Every pair (alpha, x) is therefore equal
    to a pair (S, x') with S a maximal proper face, |S| = n-1, and two
    such faces S1, S2 meet in one face of size n-2 whose elements are
    glued through the two face maps.  The node (S, x) has the id
    i * |X(n-1)| + (position of x), S = faces[i] missing n - i, so ids
    follow the order (S, x) and each class is named by its first node.
    Returns the classes (S, x) and the resolver sending any (alpha, x),
    alpha a value tuple of length at most n-1, to its class."""
    if n > X.N + 1:
        raise TruncationExceeded(f"level {n} beyond truncation {X.N} + 1")
    k = n - 1
    faces, rows = _face_shape(n)
    level = X.levels[k]
    size = len(level)
    uf = UnionFind(n * size)
    if k >= 1:
        d = X.face_positions(k)
        uf.union_ids([i * size + z for i, j, _, _ in rows for z in d[j]],
                     [i * size + z for _, _, i, j in rows for z in d[j]])
    pos = X.positions(k)

    def node(r):
        return faces[r // size], level[r % size]

    def lookup(alpha, x):
        # alpha lies in the face missing the greatest value it misses,
        # and its ranks there keep the values below that one
        gap = next(v for v in range(n, 0, -1) if v not in alpha)
        beta = tuple(v if v < gap else v - 1 for v in alpha)
        return node(uf.root_id(
            (n - gap) * size + pos[X.map_along(beta, k, x)]))

    return [node(r) for r in uf.root_ids()], lookup


def latching(X: TruncatedISet, n) -> LatchingData:
    """The comparison from the colimit over proper subobjects into
    level n.  The colimit is glued from the n maximal faces of {1..n}
    along their pairwise meets (see `_colimit_under`), so a class is a
    pair (S, x) with S a sorted (n-1)-subset."""
    if n == 0:
        return LatchingData([], {}, True, None)
    if n > X.N:
        raise TruncationExceeded(f"level {n} beyond truncation {X.N}")
    classes, _ = _colimit_under(X, n)
    # S misses one value g, and maps x along the face that skips g
    d, pos, level = X.face_positions(n), X.positions(n - 1), X.levels[n]
    total = n * (n + 1) // 2
    values = {c: level[d[total - sum(c[0]) - 1][pos[c[1]]]] for c in classes}
    seen = {}
    injective = True
    witness = None
    for c, v in values.items():
        if v in seen:
            injective = False
            witness = (n, seen[v], c, v)
            break
        seen[v] = c
    return LatchingData(classes, values, injective, witness)


def lan_extend(X: TruncatedISet) -> TruncatedISet:
    """One canonical level on top of the truncation: the colimit over
    everything below, with functoriality by post-composition.  This is
    the extension the truncated data denotes, with nothing added and
    nothing guessed.

    The new level N+1 is the union of X(N) over the N+1 faces of size
    N, glued along the faces of size N-1; its points are the pairs
    (S, x) that come first in their class.  A transposition moves S
    and the resolver sorts the moved face back, acting on x by the
    rank permutation.  The new maps act on a colimit over injections by
    post-composition, which is functorial, so the relations hold."""
    n = X.N + 1
    classes, lookup = _colimit_under(X, n)
    new_incl = {x: lookup(tuple(range(1, n)), x) for x in X.levels[X.N]}
    new_transp = []
    for i in range(1, n):
        new_transp.append({c: lookup(_swapped(c[0], i), c[1])
                           for c in classes})
    return X._derived(n, [classes], [new_incl], [new_transp])


@lru_cache(maxsize=None)
def _swapped(values, i):
    """The value tuple with i and i+1 exchanged: a face of {1..n}, or a
    decomposition's permutation, moved by the transposition s_i."""
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(v, v) for v in values)


def faithful_extension(X: TruncatedISet):
    """X itself if X is free (`TruncatedISet.free`): the Lan extension
    of a free diagram is free, so it never merges.  Else X extended by
    `lan_extend`, one level at a time, until it reaches max(2s, s +
    merge level), s its stability level, and the next Lan level's
    inclusion identifies nothing, refused past N + 2 max(s, 1) + 6.  Lan
    levels keep s, and the colimit of a faithful extension is that of
    every higher one, so merges just past the given levels are seen."""
    if X.free:
        return X
    hard_top = X.N + 2 * max(X.stable_from, 1) + 6
    cur = X
    while (cur.N < max(2 * cur.stable_from, cur.stable_from + cur.merge_level)
           or _next_level_merges(cur)):
        if cur.N >= hard_top:
            raise TruncationExceeded(
                "canonical extension does not settle within the allowed "
                f"height {hard_top}"
            )
        cur = lan_extend(cur)
    return cur


def _next_level_merges(X: TruncatedISet):
    """Whether the inclusion into `lan_extend(X)` identifies two
    points.  It sends x to the class of the node on the face {1..N}
    that has x's position as its id; a union links the greater root
    under the lesser, so those nodes are all roots unless two of them
    were glued.  When nothing merges, it saves building a Lan level
    that would be thrown away."""
    classes, _ = _colimit_under(X, X.N + 1)
    top = tuple(range(1, X.N + 1))
    return sum(S == top for S, _ in classes) < len(X.levels[X.N])


class FlatnessReport(NamedTuple):
    flat: bool
    witness: tuple  # why X is not flat, or None


def is_flat(X: TruncatedISet, mode="latching") -> FlatnessReport:
    """Flatness by latching maps, or directly by the count that
    `TruncatedISet.free` reads; `both` insists the routes agree.  The
    latching route names the first latching map that is not injective,
    the direct route the first level n where the count fails, as
    ("count", n, |X(n)|, Σ_m C(n, m)·|G_m|): below the first such map X
    is free, and there the count fails, so both name one level."""
    if mode == "both":
        a = is_flat(X, "latching")
        b = is_flat(X, "direct")
        if a.flat != b.flat:
            raise NotTame("flatness criteria disagree; internal error")
        return FlatnessReport(a.flat, a.witness or b.witness)
    if mode == "latching":
        for n in range(1, X.N + 1):
            data = latching(X, n)
            if not data.injective:
                return FlatnessReport(False, data.witness)
        return FlatnessReport(True, None)
    if mode != "direct":
        raise ValueError(f"unknown flatness mode {mode!r}")
    witness = X._count_failure()
    return FlatnessReport(witness is None, witness)


def mono_pushout_injective(f: ISetMorphism, n):
    """Whether the comparison out of the latching pushout of a
    levelwise monomorphism f: X -> Y is injective at level n.

    If the latching map of Y is injective, so is the comparison on the
    classes that meet the latching object of Y and on the points of X(n)
    in no face of X; it fails only where such a point lands in a face
    of Y.  If only that of X is, the pushout keeps the latching object
    of Y injective, and the latching map of Y factors through the
    comparison."""
    X, Y = f.source, f.target
    if latching(Y, n).injective:
        in_face, pos = Y.faces_holding(n), Y.positions(n)
        return not any(in_face[pos[f.maps[n][x]]] for x in X.generators(n))
    if latching(X, n).injective:
        return False
    raise PreconditionViolated(
        f"neither latching map is injective at level {n}")


def _day_factors(X: TruncatedISet, Y: TruncatedISet):
    """Both factors made faithful (`faithful_extension`: a free one as
    it is), extended canonically to one height and cut there: min(X.N,
    Y.N), or, where it is higher, sA + sB + max(mA, mB) from the
    stability and merge levels of the faithful extensions.  Factors
    whose inclusions identify elements would make the convolution merge
    classes beyond a lower window.  Lan levels keep the stability level,
    and past a faithful extension nothing merges: that height is final."""
    A, B = faithful_extension(X), faithful_extension(Y)
    target = max(min(X.N, Y.N), A.stable_from + B.stable_from
                 + max(A.merge_level, B.merge_level))
    factors = []
    for E in (A, B):
        while E.N < target:
            E = lan_extend(E)
        factors.append(E._derived(target))
    return tuple(factors)


def _generator_mset(X: TruncatedISet):
    """The generators of X as a tame action: level m is the Σ_m-set
    `X.generators(m)` under `X.transp[m]`, which keeps it, since a
    permutation carries the image of a face onto that of a face."""
    return CanonicalTameMSet({m: SigmaSet._built(
        m, gens, [{g: t[g] for g in gens} for t in X.transp[m]])
        for m, gens in enumerate(map(X.generators, range(X.N + 1))) if gens})


def _relations(X: TruncatedISet):
    """(k, e, e') for each element e of the generator action supported
    inside {1..k} whose image X(ι_S)p in X(k), S its image and p its
    point, is that of an earlier one, e' the first: the pairs generate
    the kernel of F_G -> X.  There are none when X is free, as F_G -> X
    is then a bijection."""
    if X.free:
        return []
    out = []
    for k in range(X.N + 1):
        first = {}  # each image in X(k) sent to its first preimage
        for a in range(k + 1):
            for S in combinations(range(1, k + 1), a):
                for p in X.generators(a):
                    e = MElement(a, S, p)
                    e0 = first.setdefault(X.map_along(S, k, p), e)
                    if e0 is not e:
                        out.append((k, e, e0))
    return out


def day_convolution(X: TruncatedISet, Y: TruncatedISet):
    """The convolution along concatenation: level n is the colimit of
    X(m1) x Y(m2) over decompositions of {1..n}.  Both factors are
    first extended canonically (see `_day_factors`).

    The free diagram F_G on the generator action G of X
    (`_generator_mset`) maps onto X by (S, p) -> X(ι_S)p.  Convolution
    is cocontinuous in each variable and I(a,-) ⊛ I(b,-) is I(a+b,-)
    (Day, "On closed categories of functors", 1970), so F_G ⊛ F_H is the
    support filtration of `box(G, H)`, and X ⊛ Y is its quotient by the
    closure of seeds: each relation of X at level k (`_relations`)
    followed by each generator of Y placed on k+1..k+m, and each
    generator of X on 1..a followed by each relation of Y moved onto
    a+1..a+k.  So a point is a box element, split by `box_split`, and
    `_quotient` names each class by its first element in the level
    order of the filtration."""
    X, Y = _day_factors(X, Y)
    N = X.N
    F = _filtration(box(_generator_mset(X), _generator_mset(Y),
                        degree_bound=N, level_cap=N), N)

    def placed(Z, m, a):  # the generators of Z(m), each on a+1..a+m
        return [MElement(m, tuple(range(a + 1, a + m + 1)), q)
                for q in Z.generators(m)]

    def moved(e, a):  # e along v -> v + a
        return e._replace(image=tuple(v + a for v in e.image))

    seeds = [(k + m, box_pair(e, y), box_pair(e0, y))
             for k, e, e0 in _relations(X) for m in range(N - k + 1)
             for y in placed(Y, m, k)]
    seeds += [(a + k, box_pair(x, moved(f, a)), box_pair(x, moved(f0, a)))
              for k, f, f0 in _relations(Y) for a in range(N - k + 1)
              for x in placed(X, a, 0)]
    return _quotient(*F, seeds) if seeds else TruncatedISet._built(N, *F)
