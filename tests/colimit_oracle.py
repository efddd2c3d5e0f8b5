"""Brute-force colimit kernels, kept as test oracles.

These enumerate every injective value tuple into {1..n}, one
union-find node per (injection, element) pair, and close under
precomposition with adjacent transpositions and the last inclusion.
They are exponentially slower than the face-indexed kernels in
`tamebox.iset` and serve only to cross-check them at small levels.
`minimal_stable_from` is the reference for the stability level the
validator finds.  `day_by_blocks` is the Day convolution the library
built before it became a quotient of the support filtration of the
box product of the factors' generators: its own block enumeration,
swap rule and tables, glued by the first factor's relations only.

The structure maps the kernels tabulate are recomputed here without
the tables: `map_along` builds the completing permutation and acts by
its sorted word, `support` finds a preimage by scanning every face of
every lower point, and `filtration_swaps` acts on canonical elements
through partial injections.

`direct_flatness` is the direct flatness route that rebuilds the span
of every meet and compares every pair of subsets, and `merge_level`
rescans every inclusion; the library reads flatness off the count of
the generators it tabulates and merges off the images it builds once.

`mono_pushout_injective` builds the latching pushout of a levelwise
monomorphism in a union-find over the brute-force latching classes;
the library reads the answer off which latching maps are injective and
the faces that hold each point.

`n_iso_check` extends source and target by the brute-force
`lan_extend` as high as the library's faithful extension reaches,
builds both colimits over the inclusions by union-find over the nodes
of every level, and compares the classes of the level-N nodes; the
library reads the classes off the colimit of the faithful extension.

`canonical_by_decomposition` decomposes the colimit's low classes as
an action table: it tests every support again by single injections,
acts by each swap through the colimit and validates each level; the
library reads the levels off the class elements and the swaps off the
transposition tables.

`decompose_table` recovers the canonical form of a window table of a
caller's action by the same support tests, with a closure and a size
check, and `coequalize` feeds it the classes of a union-find over the
target's elements in a window widened to close every seed's relations,
restricted to the window table; the library takes the colimit of the support
filtration, quotiented by the pair's seeds for a coequalizer, and
names its classes by their elements at the window.
"""

from itertools import combinations, permutations

from tamebox.errors import (
    DegreeTooLarge,
    InvalidMorphism,
    NotTame,
    TruncationExceeded,
    WindowTooSmall,
)
from tamebox.injections import PartialInjection
from tamebox.iset import (
    OmegaColimit,
    TruncatedISet,
    _day_factors,
    _quotient,
    _swapped,
    faithful_extension,
)
from tamebox.mset import (
    DEFAULT_DEGREE_BOUND,
    CanonicalTameMSet,
    MElement,
    MSetMorphism,
)
from tamebox.sigma import SigmaSet, all_injective_tuples, perm_word, point_key


def _find_in(parent):
    def find(node):
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb, key=point_key)] = min(ra, rb, key=point_key)

    return find, union


def minimal_stable_from(N, levels, incl, transp):
    """The least s such that for every m from s on, each orbit of level
    m+1 under the transpositions meets the image of level m."""

    def generated(m):
        parent = {p: p for p in levels[m + 1]}
        find, union = _find_in(parent)
        for t in transp[m + 1]:
            for p, q in t.items():
                union(p, q)
        hit = {find(y) for y in incl[m].values()}
        return all(find(p) in hit for p in levels[m + 1])

    s = N
    while s > 0 and generated(s - 1):
        s -= 1
    return s


def colimit_under(X: TruncatedISet, n):
    """Classes of pairs (injection into n, lower element) under the
    over-category relations, and the class of every pair."""
    parent = {}
    top = min(n - 1, X.N)
    for m in range(top + 1):
        for alpha in all_injective_tuples(m, n):
            for x in X.levels[m]:
                parent[(alpha, x)] = (alpha, x)
    find, union = _find_in(parent)
    for m in range(top + 1):
        for beta in all_injective_tuples(m, n):
            for i in range(1, m):
                swapped = list(beta)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                for x in X.levels[m]:
                    union((tuple(swapped), x), (beta, X.transp[m][i - 1][x]))
            if m >= 1:
                alpha = beta[: m - 1]
                for x0 in X.levels[m - 1]:
                    union((alpha, x0), (beta, X.incl[m - 1][x0]))
    lookup = {node: find(node) for node in parent}
    classes = sorted(set(lookup.values()), key=point_key)
    return classes, lookup


def level_sigma(X: TruncatedISet, m):
    """Level m of X as a Σ_m-set, validated again."""
    return SigmaSet(m, X.levels[m], X.transp[m])


def map_along(X: TruncatedISet, alpha, n, x):
    """X applied to the injection with value tuple alpha into {1..n}:
    the inclusions up to level n, then the permutation that completes
    alpha by the unused values in increasing order."""
    m = len(alpha)
    if n > X.N:
        raise TruncationExceeded(f"level {n} beyond truncation {X.N}")
    for k in range(m, n):
        x = X.incl[k][x]
    used = set(alpha)
    rest = iter(v for v in range(1, n + 1) if v not in used)
    sigma = tuple(alpha) + tuple(next(rest) for _ in range(n - m))
    for i in reversed(perm_word(sigma)):
        x = X.transp[n][i - 1][x]
    return x


def latching_values(X: TruncatedISet, n):
    """The latching comparison: the image in X(n) of every class."""
    classes, _ = colimit_under(X, n)
    return {c: map_along(X, c[0], n, c[1]) for c in classes}


def first_preimage(X: TruncatedISet, m, x):
    """The first (alpha, x0) with alpha an (m-1)-subset of {1..m}
    carrying x0 onto x: x0 in level order, then alpha in
    `combinations` order; None when there is none."""
    for x0 in X.levels[m - 1]:
        for alpha in combinations(range(1, m + 1), m - 1):
            if map_along(X, alpha, m, x0) == x:
                return alpha, x0
    return None


def act(colim, f, c):
    """The class of f_* c for an injection f given as a dict on
    {1..m}, m the level of c's representative."""
    m, x = c
    values = tuple(f[j] for j in range(1, m + 1))
    n = max(values, default=0)
    return colim.root[n, map_along(colim.iset, values, n, x)]


def support(colim, c):
    """The support of a class of an OmegaColimit: single test
    injections at or below the stability level, else pushed forward
    from the first preimage one level down."""
    m, x = c
    X = colim.iset
    if m == 0:
        return frozenset()
    if m <= X.stable_from:
        if m + 1 > X.N:
            raise TruncationExceeded("support test needs one level of headroom")
        keep = []
        for j in range(1, m + 1):
            f = {v: v for v in range(1, m + 1) if v != j}
            f[j] = m + 1
            if act(colim, f, c) != c:
                keep.append(j)
        return frozenset(keep)
    found = first_preimage(X, m, x)
    if found is None:
        raise NotTame(f"no preimage below level {m}")
    alpha, x0 = found
    inner = support(colim, colim.root[m - 1, x0])
    return frozenset(alpha[j - 1] for j in inner)


def class_to_element(colim, c):
    """The canonical element of a class: its support pushed onto an
    initial segment, the rest after it in order."""
    m, _ = c
    S = sorted(support(colim, c))
    rest = [v for v in range(1, m + 1) if v not in S]
    down = {v: r for r, v in enumerate(S + rest, start=1)}
    return MElement(len(S), tuple(S), act(colim, down, c))


def canonical_by_decomposition(X: TruncatedISet,
                               degree_bound=DEFAULT_DEGREE_BOUND):
    """The canonical action of the colimit, taken in the canonical
    extension, by decomposing the table of classes named at or below
    its stability level s: each class's support is tested from its
    name's level down and checked by moving the rest away, each swap
    acts through the colimit and must stay in the table, each level is
    validated, and the table must hold every element supported inside
    {1..s}."""
    if X.N < 2 * X.stable_from:
        raise TruncationExceeded(f"truncation {X.N} below twice the "
                                 f"stability level {X.stable_from}")
    colim = OmegaColimit(faithful_extension(X))
    s = colim.iset.stable_from
    table = [c for c in colim.classes if c[0] <= s]

    def tested_support(c):
        m = c[0]
        S = [j for j in range(1, m + 1) if act(colim, {
            v: m + 1 if v == j else v for v in range(1, m + 1)}, c) != c]
        spares = iter(range(m + 1, 2 * m + 1))
        away = {v: v if v in S else next(spares) for v in range(1, m + 1)}
        if act(colim, away, c) != c:
            raise NotTame(f"support tests inconsistent for {c!r}")
        return S

    supports = {c: tested_support(c) for c in table}
    levels = {}
    for k in sorted({len(S) for S in supports.values()}):
        points = [c for c in table if supports[c] == list(range(1, k + 1))]
        if not points:
            continue
        if k > degree_bound:
            raise DegreeTooLarge(
                f"level {k} beyond degree bound {degree_bound}")
        swaps = []
        for i in range(1, k):
            swap = {i: i + 1, i + 1: i}
            t = {c: act(colim, {v: swap.get(v, v)
                                for v in range(1, c[0] + 1)}, c)
                 for c in points}
            if not set(t.values()) <= set(table):
                raise NotTame("table not closed under the level action")
            swaps.append(t)
        levels[k] = SigmaSet(k, points, swaps)
    out = CanonicalTameMSet(levels)
    if out.count_up_to(s) != len(table):
        raise NotTame("table size does not match the canonical form")
    return out


def decompose_table(table, action, window, degree_bound=DEFAULT_DEGREE_BOUND):
    """Recover the canonical form of a finite table of a caller's action.

    `table` must list, once each, the elements supported inside
    {1..window} of a tame action whose maximal support size s satisfies
    2*s <= window; `action` evaluates partial injections on elements,
    and may reach values up to `window`.  Supports are computed with
    single test injections: an element whose image is S is supported on
    S minus {j} exactly when the map fixing S minus {j} and moving j
    outside S fixes the element.  The relations of each level are
    checked, since the action is the caller's.

    Elements outside the table are invisible here, so the window
    condition cannot be checked: the table of a level-3 action up to
    window 2 is empty and gives the empty action.  Callers pass a
    window of at least twice the action's top level, as `decompose`
    does.
    """
    table = list(table)
    moves = {}  # (S, j) -> the map fixing S but j and moving j out of S

    def support_of(e):
        S = tuple(sorted(set(e.image)))
        if 2 * len(S) > window:
            raise WindowTooSmall(
                f"support bound {len(S)} needs window >= {2 * len(S)}"
            )
        if any(v > window for v in S):
            raise WindowTooSmall("initial support exceeds the window")
        spares = [v for v in range(1, window + 1) if v not in S]
        supp = set()
        for j in S:
            f = moves.get((S, j))
            if f is None:
                f = moves[S, j] = PartialInjection(
                    {v: v for v in S if v != j} | {j: spares[0]})
            if action(f, e) != e:
                supp.add(j)
        # consistency: fixing the support and moving the rest out must
        # leave the element alone
        rest = iter(spares)
        mapping = {v: v if v in supp else next(rest) for v in S}
        if action(PartialInjection(mapping), e) != e:
            raise NotTame(f"support tests inconsistent for {e!r}")
        return supp

    supports = {}
    for e in table:
        supports[e] = support_of(e)

    levels = {}
    table_set = set(table)
    for k in sorted({len(s) for s in supports.values()}):
        segment = set(range(1, k + 1))
        pts = [e for e in table if supports[e] == segment]
        if not pts:
            continue
        if k > degree_bound:
            raise DegreeTooLarge(
                f"level {k} beyond degree bound {degree_bound}"
            )
        tabs = []
        for i in range(1, k):
            # on all of {1..window}: an element supported on {1..k} may
            # be represented higher up, where the action reads more values
            f = PartialInjection(
                {v: v for v in range(1, window + 1) if v not in (i, i + 1)}
                | {i: i + 1, i + 1: i}
            )
            t = {}
            for e in pts:
                img = action(f, e)
                if img not in table_set:
                    raise NotTame("table not closed under the level action")
                t[e] = img
            tabs.append(t)
        levels[k] = SigmaSet(k, pts, tabs)

    out = CanonicalTameMSet(levels)
    if out.count_up_to(window) != len(table):
        raise NotTame(
            "table size does not match the reconstructed canonical form"
        )
    return out


def coequalize(u: MSetMorphism, v: MSetMorphism, window,
               degree_bound=DEFAULT_DEGREE_BOUND):
    """Identify u(x) with v(x) and return the canonical form of the
    quotient.  As in the library, each source orbit gives one pair: u
    and v of its standard element, with joint support J.  Every pair is
    an image of these, so the union is taken over the images of each
    under every injection of J into a wider window, of t + |J| values
    for t the target's top level, where chains that pass above the
    window close: a source orbit above the window can still identify
    elements inside it.  Classes are named by their least element
    inside the window."""
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
        seeds.append((J, pair))
    wide = max([window] + [target.max_level + len(J) for J, _ in seeds])
    # linked by key, so every class is named by its least element
    find, union = _find_in({x: x for x in target.elements_up_to(wide)})
    for J, pair in seeds:
        for values in combinations(range(1, wide + 1), len(J)):
            for placed in permutations(values):
                f = PartialInjection(dict(zip(J, placed)))
                union(*(target.act(f, y) for y in pair))
    table = target.elements_up_to(window)
    name = {}  # the root of each class -> its least element in the window
    for x in sorted(table, key=point_key):
        name.setdefault(find(x), x)

    def class_action(f, root):
        return name[find(target.act(f, root))]

    roots = [x for x in sorted(table, key=point_key) if name[find(x)] == x]
    return decompose_table(roots, class_action, window,
                           degree_bound=degree_bound)


def filtration_swaps(W, N):
    """The adjacent-swap tables of the support filtration of W up to
    level N, acting through partial injections."""
    out = []
    for m in range(N + 1):
        elements = W.elements_up_to(m)
        tabs = []
        for i in range(1, m):
            f = PartialInjection(
                {v: v for v in range(1, m + 1) if v not in (i, i + 1)}
                | {i: i + 1, i + 1: i}
            )
            tabs.append({e: W.act(f, e) for e in elements})
        out.append(tabs)
    return out


def lan_extend(X: TruncatedISet) -> TruncatedISet:
    n = X.N + 1
    classes, lookup = colimit_under(X, n)
    new_incl = {
        x: lookup[(tuple(range(1, X.N + 1)), x)] for x in X.levels[X.N]
    }
    new_transp = []
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        new_transp.append({
            c: lookup[(tuple(swap.get(v, v) for v in c[0]), c[1])]
            for c in classes
        })
    levels = X.levels + [classes]
    incl = X.incl + [new_incl]
    transp = X.transp + [new_transp]
    s = minimal_stable_from(n, levels, incl, transp)
    return TruncatedISet(n, levels, incl, transp, s)


def day_convolution(X: TruncatedISet, Y: TruncatedISet):
    """The convolution of the same extended factors as
    `tamebox.iset.day_convolution`, one node per (split, injection,
    x, y)."""
    return day_diagram(day_classes(X, Y)[2])


def day_by_blocks(X: TruncatedISet, Y: TruncatedISet):
    """The convolution as the library built it before it became a
    quotient of the support filtration of the generators' box product:
    F_X ⊛ Y modulo the kernel of F_X -> X convolved with Y.  A point is
    (m1, gamma, x, y): gamma is the sorted first block A followed by the
    sorted complement, x a generator of X(m1) on A and y in Y on the
    complement.  s_i acts on x or y when i and i+1 lie in one block,
    else swaps them across, which keeps both blocks sorted.  Each (S, p)
    in F_X(k) with the image of an earlier one is identified with it,
    both followed by each generator q of Y placed on k+1..k+m.  Points
    are listed by m1, then A, then the positions of x and y, and
    `_quotient` names each class by its first point."""
    X, Y = _day_factors(X, Y)
    N = X.N
    gx, gy = ([Z.generators(a) for a in range(N + 1)] for Z in (X, Y))

    def blocks(n, A):
        return A + tuple(v for v in range(1, n + 1) if v not in A)

    order = [[(a, blocks(n, A), p, y)
              for a in range(n + 1) for A in combinations(range(1, n + 1), a)
              for p in gx[a] for y in Y.levels[n - a]]
             for n in range(N + 1)]

    def swap(n, c, i):
        a, gamma, p, y = c
        j, k = gamma.index(i), gamma.index(i + 1)
        if j < a and k < a:
            return a, gamma, X.transp[a][j][p], y
        if j >= a and k >= a:
            return a, gamma, p, Y.transp[n - a][j - a][y]
        return a, _swapped(gamma, i), p, y

    incl = [{c: (c[0], c[1] + (n + 1,), c[2], Y.incl[n - c[0]][c[3]])
             for c in points} for n, points in enumerate(order[:N])]
    transp = [[{c: swap(n, c, i) for c in points} for i in range(1, n)]
              for n, points in enumerate(order)]

    def node(k, S, p, m, q):  # (S, p) in F_X(k), then q on k+1..k+m
        a = len(S)
        y = Y.map_along(tuple(range(k - a + 1, k - a + m + 1)), k + m - a, q)
        return a, blocks(k + m, S), p, y

    seeds = []
    for k in range(N + 1):
        first = {}  # each image in X(k) sent to its first preimage
        for a in range(k + 1):
            for S in combinations(range(1, k + 1), a):
                for p in gx[a]:
                    e = first.setdefault(X.map_along(S, k, p), (S, p))
                    seeds += [(k + m, node(k, S, p, m, q), node(k, *e, m, q))
                              for m in range(N - k + 1) for q in gy[m]
                              if e != (S, p)]
    return _quotient(order, incl, transp, seeds)


def day_classes(X: TruncatedISet, Y: TruncatedISet):
    """The factors extended as `tamebox.iset.day_convolution` extends
    them, and the classes of each level n of their convolution: every
    node (m1, gamma, x, y), gamma an injective tuple into {1..n} whose
    first m1 values carry x and the rest y, sent to the key-least node
    of its class."""
    X, Y = _day_factors(X, Y)
    classes = []
    for n in range(X.N + 1):
        parent = {}
        for m1 in range(n + 1):
            for m2 in range(n + 1 - m1):
                for gamma in all_injective_tuples(m1 + m2, n):
                    for x in X.levels[m1]:
                        for y in Y.levels[m2]:
                            node = (m1, gamma, x, y)
                            parent[node] = node
        find, union = _find_in(parent)
        for node in list(parent):
            m1, gamma, x, y = node
            m2 = len(gamma) - m1
            for i in range(1, m1):
                g = list(gamma)
                g[i - 1], g[i] = g[i], g[i - 1]
                union((m1, tuple(g), x, y),
                      (m1, gamma, X.transp[m1][i - 1][x], y))
            if m1 >= 1:
                g = gamma[: m1 - 1] + gamma[m1:]
                for x0 in X.levels[m1 - 1]:
                    if X.incl[m1 - 1][x0] == x:
                        union((m1 - 1, g, x0, y), node)
            for i in range(1, m2):
                g = list(gamma)
                g[m1 + i - 1], g[m1 + i] = g[m1 + i], g[m1 + i - 1]
                union((m1, tuple(g), x, Y.transp[m2][i - 1][y]), node)
            if m2 >= 1:
                g = gamma[:-1]
                for y0 in Y.levels[m2 - 1]:
                    if Y.incl[m2 - 1][y0] == y:
                        union((m1, g, x, y0), node)
        classes.append({node: find(node) for node in parent})
    return X, Y, classes


def day_diagram(classes):
    """The convolution whose points are the key-least nodes of the
    classes `day_classes` found, acting on nodes by post-composition."""
    N = len(classes) - 1
    levels = [sorted(set(level.values()), key=point_key) for level in classes]
    incl = [{c: classes[n + 1][c] for c in levels[n]} for n in range(N)]
    transp = []
    for n in range(N + 1):
        tabs = []
        for i in range(1, n):
            swap = {i: i + 1, i + 1: i}
            tabs.append({
                c: classes[n][(c[0], tuple(swap.get(v, v) for v in c[1]),
                               c[2], c[3])]
                for c in levels[n]
            })
        transp.append(tabs)
    s = minimal_stable_from(N, levels, incl, transp)
    return TruncatedISet(N, levels, incl, transp, s)


def merge_level(X: TruncatedISet):
    """The highest level where an inclusion identifies two elements;
    zero when all inclusions are injective."""
    out = 0
    for m in range(X.N):
        vals = list(X.incl[m].values())
        if len(set(vals)) != len(vals):
            out = m + 1
    return out


def direct_flatness(X: TruncatedISet):
    """(flat, witness) by the direct criterion: every inclusion is
    injective, and for order embeddings alpha, beta into {1..n} every
    pair (u, v) with alpha_* u = beta_* v comes from one element of
    the meet through the two maps onto alpha and beta."""
    for m in range(X.N):
        vals = list(X.incl[m].values())
        if len(set(vals)) != len(vals):
            return False, ("inclusion", m)
    table_cache = {}

    def tab(alpha, target):
        key = (alpha, target)
        got = table_cache.get(key)
        if got is None:
            got = {
                u: map_along(X, alpha, target, u)
                for u in X.levels[len(alpha)]
            }
            table_cache[key] = got
        return got

    for n in range(X.N + 1):
        for a in range(n):
            if not X.levels[a]:
                continue
            for alpha in combinations(range(1, n + 1), a):
                ia = set(alpha)
                back_a = {v: u for u, v in tab(alpha, n).items()}
                for b in range(a, n):
                    if not X.levels[b]:
                        continue
                    for beta in combinations(range(1, n + 1), b):
                        meet = sorted(ia & set(beta))
                        gamma1 = tuple(alpha.index(d) + 1 for d in meet)
                        gamma2 = tuple(beta.index(d) + 1 for d in meet)
                        t1 = tab(gamma1, a)
                        t2 = tab(gamma2, b)
                        spanned = {
                            (t1[w], t2[w]) for w in X.levels[len(meet)]
                        }
                        tb = tab(beta, n)
                        for v in X.levels[b]:
                            u = back_a.get(tb[v])
                            if u is not None and (u, v) not in spanned:
                                return False, ("pullback", n, alpha, beta,
                                               u, v)
    return True, None


def omega_classes(X: TruncatedISet):
    """The class of every (level, point) node of the colimit over the
    inclusions, by union-find over the nodes of every level."""
    parent = {(m, p): (m, p) for m in range(X.N + 1) for p in X.levels[m]}
    find, union = _find_in(parent)
    for m in range(X.N):
        for p in X.levels[m]:
            union((m, p), (m + 1, X.incl[m][p]))
    return {node: find(node) for node in parent}


def n_iso_check(f):
    """Whether f induces a bijection of colimit classes, from the
    classes of the level-N nodes of both colimits, each taken as high
    as the faithful extension reaches, where nothing merges any more."""
    def classes(X):
        top = faithful_extension(X).N
        while X.N < top:
            X = lan_extend(X)
        return omega_classes(X)

    N = f.source.N
    src, tgt = classes(f.source), classes(f.target)
    images = {src[N, x]: tgt[N, y] for x, y in f.maps[N].items()}
    return (len(set(images.values())) == len(images)
            == len({tgt[N, y] for y in f.target.levels[N]}))


def latching_injective(X: TruncatedISet, n):
    """Whether the brute-force latching comparison into X(n) is
    injective."""
    values = list(latching_values(X, n).values())
    return len(set(values)) == len(values)


def mono_pushout_injective(f, n):
    """Whether the comparison out of the latching pushout of f: X -> Y
    at level n is injective: the latching classes of Y and the points
    of X(n), glued along the latching classes of X."""
    X, Y = f.source, f.target
    classes_x, _ = colimit_under(X, n)
    classes_y, class_y = colimit_under(Y, n)
    nodes = [("L", c) for c in classes_y] + [("X", x) for x in X.levels[n]]
    parent = {node: node for node in nodes}
    find, union = _find_in(parent)
    for alpha, x in classes_x:
        union(("L", class_y[alpha, f.maps[len(alpha)][x]]),
              ("X", map_along(X, alpha, n, x)))
    images = {}
    for kind, payload in nodes:
        value = (map_along(Y, payload[0], n, payload[1]) if kind == "L"
                 else f.maps[n][payload])
        if images.setdefault(find((kind, payload)), value) != value:
            return False
    return len(set(images.values())) == len(images)
