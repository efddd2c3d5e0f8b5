"""Finite symmetric-group sets presented by adjacent-transposition tables.

A SigmaSet of degree m is a finite set of points together with one
bijection per adjacent transposition s_1 .. s_{m-1}.  The Coxeter
relations hold in every set, so the action of an arbitrary permutation
is well defined through any decomposition into adjacent transpositions.
They are validated at the boundary, on every set built from outside
data, and trusted by construction inside: a set the library builds so
that they hold skips the check (`SigmaSet._built`), and Tier-1 checks
each such build through a test fixture.

Every search is one breadth-first `walk` along the tables.  One walk
per orbit, from its key-least point (the representative), gives the
orbits and the transversal, hence stabilizer generators by Schreier's
lemma.  Stabilizer classes are read off the tables renumbered in walk
order (`subgroup_conjugacy_label`): no search lists the group.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .errors import ValidationError


def point_key(p):
    """A deterministic total order on point identifiers: the type name
    and the repr, except that set members are listed in key order.  A
    set's own repr follows its hash table, which depends on the order
    of insertion and, for strings, on PYTHONHASHSEED."""
    r = repr(p)
    if "{" in r:
        r = _value_repr(p)
    return (type(p).__name__, r)


def _value_repr(p):
    """repr(p) with the members of every nested frozenset sorted by
    point_key; identical to repr(p) when p contains no set."""
    if isinstance(p, frozenset):  # not empty: its repr holds a brace
        items = ", ".join(r for _, r in sorted(map(point_key, p)))
        return f"{type(p).__name__}({{{items}}})"
    if type(p) is tuple:
        parts = [point_key(q)[1] for q in p]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
    if isinstance(p, tuple) and hasattr(p, "_fields"):
        parts = ", ".join(f"{name}={point_key(q)[1]}"
                          for name, q in zip(p._fields, p))
        return f"{type(p).__name__}({parts})"
    return repr(p)


@lru_cache(maxsize=None)
def perm_word(sigma):
    """Adjacent-transposition word for a permutation in one-line
    notation; applying s_{w[0]} after s_{w[1]} after ... gives sigma."""
    p = list(sigma)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)
                changed = True
    word.reverse()
    return tuple(word)


@lru_cache(maxsize=None)
def completion_word(alpha, n):
    """The permutation of {1..n} that extends the injective value tuple
    alpha by the unused values in increasing order, as 0-based
    transposition-table indices in the order they apply."""
    used = set(alpha)
    sigma = alpha + tuple(v for v in range(1, n + 1) if v not in used)
    return tuple(i - 1 for i in reversed(perm_word(sigma)))


def perm_compose(s, t):
    """(s t)(x) = s(t(x)) in one-line notation."""
    return tuple([s[v - 1] for v in t])


def perm_inverse(s):
    inv = [0] * len(s)
    for x, v in enumerate(s, start=1):
        inv[v - 1] = x
    return tuple(inv)


def identity_perm(m):
    return tuple(range(1, m + 1))


def transposition_perm(m, i):
    p = list(range(1, m + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def all_injective_tuples(m, n):
    """All injections {1..m} -> {1..n} as value tuples; for m = n, the
    permutations of {1..m} in lexicographic order."""
    out = []
    for values in combinations(range(1, n + 1), m):
        out.extend(permutations(values))
    return out


def walk(start, tables):
    """Breadth-first search from start, trying the tables in order at
    each point: a dict in discovery order that sends start to None and
    each other point to (the point it was reached from, the index of
    the table)."""
    via = {start: None}
    queue = [start]
    for q in queue:  # the queue grows while it is read
        for i, t in enumerate(tables):
            r = t[q]
            if r not in via:
                via[r] = (q, i)
                queue.append(r)
    return via


def _numbered(start, tables):
    """The tables on the positions of the walk from start: entry k of
    table i is the position of the image of the k-th point."""
    pos = {p: k for k, p in enumerate(walk(start, tables))}
    return tuple(tuple(pos[t[p]] for p in pos) for t in tables)


class SigmaSet:
    """A finite set with an action of the symmetric group.

    The public constructor checks the relations; `_built` trusts them,
    for tables the library has built so that they hold."""

    def __init__(self, m, points, transpositions):
        self._take(m, points, [dict(t) for t in transpositions])
        for i, t in enumerate(self.transpositions, start=1):
            if set(t) != self.point_set or set(t.values()) != self.point_set:
                raise ValidationError("bijection", f"s_{i}")
            for p in self.points:
                if t[t[p]] != p:
                    raise ValidationError("involution", f"s_{i}")
        for i in range(1, m - 1):
            for j in range(i + 2, m):
                si, sj = self.transpositions[i - 1], self.transpositions[j - 1]
                for p in self.points:
                    if si[sj[p]] != sj[si[p]]:
                        raise ValidationError("commutation", f"s_{i} s_{j}")
        for i in range(1, m - 1):
            si, sj = self.transpositions[i - 1], self.transpositions[i]
            for p in self.points:
                q = p
                for _ in range(3):
                    q = si[sj[q]]
                if q != p:
                    raise ValidationError("braid", f"s_{i} s_{i + 1}")

    @classmethod
    def _built(cls, m, points, tables):
        """The set on tables the library built to satisfy the relations:
        only the caller's data, distinct points and one table per
        transposition, is checked."""
        out = object.__new__(cls)
        out._take(m, points, tables)
        return out

    def _take(self, m, points, tables):
        if type(m) is not int:
            raise ValidationError("integer degree", repr(m))
        if m < 0:
            raise ValidationError("negative degree", m)
        self.points = list(points)
        self.point_set = set(self.points)
        if len(self.point_set) != len(self.points):
            raise ValidationError("distinct points", m)
        if len(tables) != max(m - 1, 0):
            raise ValidationError("one table per adjacent transposition", m)
        self.m = m
        self.transpositions = tables

    def __len__(self):
        return len(self.points)

    def act_perm(self, sigma, p):
        """Action of a permutation given in one-line notation."""
        for i in reversed(perm_word(sigma)):
            p = self.transpositions[i - 1][p]
        return p

    @cached_property
    def _search(self):
        """Orbits and rooted transversal, one walk per orbit, each from
        the first point in key order that no earlier walk reached: the
        key-least point, the orbit's representative."""
        transversal = {}
        groups = {}
        for p in sorted(self.points, key=point_key):
            if p not in transversal:
                for r, via in walk(p, self.transpositions).items():
                    u = identity_perm(self.m)
                    if via is not None:
                        # s_{i+1} u_q: u_q with the values i+1, i+2 swapped
                        q, i = via
                        u = list(transversal[q][1])
                        a, b = u.index(i + 1), u.index(i + 2)
                        u[a], u[b] = i + 2, i + 1
                        u = tuple(u)
                    transversal[r] = (p, u)
            groups.setdefault(transversal[p][0], []).append(p)
        return groups, transversal

    def orbits(self):
        """Partition into orbits, with the least point of each orbit as
        its representative.  Returns a list of (rep, members) pairs."""
        return list(self._search[0].items())

    def rooted_transversal(self):
        """For every point p, its orbit representative r and a
        permutation sigma with sigma . r = p; computed once."""
        return self._search[1]

    def orbit_root(self, p):
        return self.rooted_transversal()[p][0]

    def stabilizer_generators(self, rep):
        """Schreier generators of the stabilizer of an orbit representative,
        sorted and without the identity: u_q^-1 s u_p for p in the orbit, s
        an adjacent transposition, q = s . p and u the transversal."""
        tv = self.rooted_transversal()
        orbit = self._search[0][rep]
        inverse = {p: perm_inverse(tv[p][1]) for p in orbit}
        gens = set()
        for p in orbit:
            for i, t in enumerate(self.transpositions):
                w = inverse[t[p]]
                ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]  # u_q^-1 s
                gens.add(perm_compose(ws, tv[p][1]))
        return sorted(gens - {identity_perm(self.m)})

    def iso_type(self):
        """Multiset of orbit labels, one per orbit.  Two SigmaSets of
        equal degree are isomorphic exactly when these coincide."""
        return tuple(sorted(
            subgroup_conjugacy_label(self.m, _numbered(rep, self.transpositions))
            for rep, _ in self.orbits()))


@lru_cache(maxsize=None)
def subgroup_conjugacy_label(m, tables):
    """A string determined exactly by the conjugacy class of the point
    stabilizers of a transitive degree-m set on the points 0..n-1, a
    class that determines the set.  Orbits of m!, 1 and 2 points
    (trivial, full, alternating stabilizers) are named; any other gets
    the least `_numbered(x, tables)` over the x whose first row (how x's
    neighbours are numbered) is least, a choice free of the numbering."""
    n = len(tables[0]) if tables else 1
    if n == factorial(m):
        return f"S{m}:trivial"
    if n == 1:
        return f"S{m}:full"
    if n == 2:
        return f"S{m}:alternating"
    rows = []
    for x in range(n):
        seen = {x: 0}
        rows.append(tuple(seen.setdefault(t[x], len(seen)) for t in tables))
    least = min(rows)
    best = min(_numbered(x, tables) for x in range(n) if rows[x] == least)
    return f"S{m}:c{best}"


def iso_equal(a: SigmaSet, b: SigmaSet):
    return a.m == b.m and a.iso_type() == b.iso_type()


def trivial_sigma_set(m, points):
    """Every permutation fixing every point: identity tables satisfy
    every relation."""
    return SigmaSet._built(
        m, points, [{p: p for p in points} for _ in range(max(m - 1, 0))])


def regular_sigma_set(m):
    """The symmetric group acting on itself by left multiplication; the
    tables are multiplication by the s_i, which satisfy the relations in
    the group."""
    points = all_injective_tuples(m, m)
    tables = []
    for i in range(1, m):
        s = transposition_perm(m, i)
        tables.append({p: perm_compose(s, p) for p in points})
    return SigmaSet._built(m, points, tables)


def word_sigma_set(m, letters):
    """The words of length m over the letters, in product order, with
    the symmetric group permuting positions; s_i swaps the letters at i
    and i+1, which is the action of the transposition on positions."""
    points = list(product(letters, repeat=m))
    tables = [
        {w: w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:] for w in points}
        for i in range(1, m)
    ]
    return SigmaSet._built(m, points, tables)


def induce(Z: SigmaSet, W: SigmaSet):
    """Induct a degree-m set and a degree-n set up to degree m+n.

    Points are triples (S, z, w) with S an m-subset of {1..m+n}; an
    adjacent transposition either swaps membership across the boundary
    of S or acts through the rank-induced transposition on one factor.
    The triple stands for the class of (the shuffle placing {1..m} on S,
    z, w) in Σ_{m+n} x_{Σ_m x Σ_n} (Z x W), and s_i times that shuffle
    is a shuffle times the rank transposition or the identity, so the
    tables are the left action of Σ_{m+n}: the relations hold.
    """
    m, n = Z.m, W.m
    k = m + n
    pairs = list(product(Z.points, W.points))
    blocks = {}  # S as a set -> (S, its points, in the order of pairs)
    for S in combinations(range(1, k + 1), m):
        F = frozenset(S)
        blocks[F] = (S, [(F, z, w) for z, w in pairs])
    points = [p for _, block in blocks.values() for p in block]
    tables = []
    for i in range(1, k):
        swap = frozenset((i, i + 1))
        t = {}
        for F, (S, block) in blocks.items():
            if swap <= F:
                s = Z.transpositions[S.index(i)]
                t.update((p, (F, s[p[1]], p[2])) for p in block)
            elif swap.isdisjoint(F):
                # i is the r-th value outside S, r = i - #(S below i)
                s = W.transpositions[i - 1 - sum(v < i for v in S)]
                t.update((p, (F, p[1], s[p[2]])) for p in block)
            else:  # the same pair, over S with i and i+1 exchanged
                t.update(zip(block, blocks[F ^ swap][1]))
        tables.append(t)
    return SigmaSet._built(k, points, tables)
