"""Disjoint sets over integer ids, with hashable nodes on top.

It is for gluing: quotients, coequalizers and the colimit kernels of
`iset`.  Orbits and the colimit over the inclusions, which
the structure gives, are read off it instead.

The classes live in one parent array over the ids 0..n-1, and a union
links the greater root under the lesser, so the representative of every
class is its least id.  Two entry points share that array:

- `UnionFind.over(count)` gives bare ids 0..count-1; a caller that can
  number its nodes (the colimit kernels of `iset` number each node by
  its face and the positions of its points) joins them in bulk with
  `union_ids`, and decodes `root_id` and `root_ids` itself, hashing
  nothing.
- `UnionFind(nodes)`, `add`, `union`, `find` and `roots` intern
  hashable nodes as ids in insertion order, so the representative of a
  class is its first-inserted node.  Representatives therefore depend
  only on the order of insertion, never on how the nodes print.

A caller that wants every class named by its least member under some
key inserts the nodes sorted by that key: the first-inserted member of
a class is then its least, and roots() lists the classes in key order
with no further sort.  quotient_iset inserts in point_key order this
way.
"""

from __future__ import annotations


class UnionFind:
    def __init__(self, nodes=()):
        self.ids = {}
        self.nodes = []
        self._parent = []
        for node in nodes:
            self.add(node)

    @classmethod
    def over(cls, count):
        """Singleton classes on the ids 0..count-1, with no nodes."""
        uf = cls()
        uf._parent = list(range(count))
        return uf

    def add(self, node):
        if node not in self.ids:
            i = self.ids[node] = len(self._parent)
            self._parent.append(i)
            self.nodes.append(node)

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

    def find(self, node):
        """The representative of the class of a node added before."""
        return self.nodes[self.root_id(self.ids[node])]

    def union(self, a, b):
        self.union_ids((self.ids[a],), (self.ids[b],))

    def roots(self):
        """One representative per class, in insertion order."""
        return [self.nodes[i] for i in self.root_ids()]
