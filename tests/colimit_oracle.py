"""Brute-force colimit kernels, kept as test oracles.

These enumerate every injective value tuple into {1..n}, one
union-find node per (injection, element) pair, and close under
precomposition with adjacent transpositions and the last inclusion.
They are exponentially slower than the face-indexed kernels in
`tamebox.iset` and serve only to cross-check them at small levels.
`minimal_stable_from` is the reference for the stability level the
validator finds.
"""

from tamebox.iset import TruncatedISet, _day_factors
from tamebox.mset import all_injective_tuples
from tamebox.sigma import point_key


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


def latching_values(X: TruncatedISet, n):
    """The latching comparison: the image in X(n) of every class."""
    classes, _ = colimit_under(X, n)
    return {c: X.map_along(c[0], n, c[1]) for c in classes}


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
    X, Y = _day_factors(X, Y)
    N = X.N
    levels = []
    finds = []
    for n in range(N + 1):
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
        levels.append(sorted({find(node) for node in parent}, key=point_key))
        finds.append(find)
    incl = [{c: finds[n + 1](c) for c in levels[n]} for n in range(N)]
    transp = []
    for n in range(N + 1):
        tabs = []
        for i in range(1, n):
            swap = {i: i + 1, i + 1: i}
            tabs.append({
                c: finds[n]((c[0], tuple(swap.get(v, v) for v in c[1]),
                             c[2], c[3]))
                for c in levels[n]
            })
        transp.append(tabs)
    s = minimal_stable_from(N, levels, incl, transp)
    return TruncatedISet(N, levels, incl, transp, s)
