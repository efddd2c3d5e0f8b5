"""Disjoint sets over the integer ids 0..count-1.

It is for gluing: quotients and the colimit kernels of `iset`.  Orbits
and the colimit over the inclusions, which the structure gives, are
read off it instead.

The classes live in one parent array, and a union links the greater
root under the lesser, so the representative of every class is its
least id.  A caller numbers its nodes and decodes the ids itself,
hashing nothing: the colimit kernels of `iset` number each node by its
face and the positions of its points and join them in bulk with
`union_ids`, and the closure loop of `iset._quotient` numbers each
level's points in the order its caller lists them (point_key order for
quotient_iset, the support filtration's order for the Day
convolution), so that every class is named by its first point and
`root_ids` lists the classes in that order with no further sort.
"""

from __future__ import annotations


class UnionFind:
    def __init__(self, count):
        """Singleton classes on the ids 0..count-1."""
        self._parent = list(range(count))

    def root_id(self, i):
        """The least id in the class of id i."""
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union_ids(self, left, right):
        """Join the classes of left[j] and right[j] for every j."""
        parent = self._parent
        for a, b in zip(left, right):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b

    def root_ids(self):
        """The least id of every class, in increasing order."""
        return [i for i, p in enumerate(self._parent) if i == p]
