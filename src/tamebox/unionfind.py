"""Disjoint sets over hashable nodes.

Nodes are interned as integer ids in insertion order, and a union links
the later root under the earlier one, so the representative of every
class is its first-inserted node.  Representatives therefore depend
only on the order of insertion, never on how the nodes print.

A caller that wants every class named by its least member under some
key inserts the nodes sorted by that key: the first-inserted member of
a class is then its least, and roots() lists the classes in key order
with no further sort.  quotient_iset, OmegaColimit, mset.coequalize
and SigmaSet.orbits insert in point_key order this way.
"""

from __future__ import annotations


class UnionFind:
    def __init__(self, nodes=()):
        self.ids = {}
        self.nodes = []
        self._parent = []
        for node in nodes:
            self.add(node)

    def add(self, node):
        if node not in self.ids:
            self.ids[node] = len(self.nodes)
            self._parent.append(len(self.nodes))
            self.nodes.append(node)

    def _root(self, i):
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def find(self, node):
        """The representative of the class of a node added before."""
        return self.nodes[self._root(self.ids[node])]

    def union(self, a, b):
        ra = self._root(self.ids[a])
        rb = self._root(self.ids[b])
        if ra < rb:
            self._parent[rb] = ra
        elif rb < ra:
            self._parent[ra] = rb

    def roots(self):
        """One representative per class, in insertion order."""
        return [node for i, node in enumerate(self.nodes) if self._root(i) == i]
