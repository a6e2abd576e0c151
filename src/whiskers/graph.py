"""Finite simple graphs with the primitives the rest of the package consumes.

Vertices are opaque string tokens in a fixed order; adjacency is stored as
per-vertex bitsets over that order, so all the exhaustive desk-scale
algorithms (maximal independent sets, independent-set counting, chordality)
run on machine words / Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

MAX_VERTICES = 512  # documented cap; exhaustive algorithms dominate anyway


class GraphError(ValueError):
    pass


class ResourceLimit(RuntimeError):
    """An explicit resource bound was exceeded (never a silent approximation)."""


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: no loops, no multi-edges, stable vertex order."""

    __slots__ = ("vertices", "_pos", "_adj", "_edges")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()):
        vs = tuple(vertices)
        seen = set()
        for v in vs:
            if v in seen:
                raise GraphError(f"duplicate vertex {v!r}")
            seen.add(v)
        extra = []
        edge_list = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at {u!r}")
            for w in (u, v):
                if w not in seen:
                    seen.add(w)
                    extra.append(w)
            edge_list.append((u, v))
        vs = vs + tuple(extra)
        if len(vs) > MAX_VERTICES:
            raise GraphError(f"graph exceeds {MAX_VERTICES} vertices")
        pos = {v: i for i, v in enumerate(vs)}
        adj = [0] * len(vs)
        for u, v in edge_list:
            iu, iv = pos[u], pos[v]
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        self.vertices = vs
        self._pos = pos
        self._adj = tuple(adj)
        self._edges = frozenset(frozenset((u, v)) for u, v in edge_list)

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> frozenset[frozenset[str]]:
        return self._edges

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: str) -> bool:
        return v in self._pos

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.vertices == other.vertices
                and self._edges == other._edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self._edges)} edges)"

    def _require(self, v: str) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self._adj[self._require(u)] >> self._require(v) & 1)

    def neighbors(self, v: str) -> frozenset[str]:
        return self._from_mask(self._adj[self._require(v)])

    def closed_neighborhood(self, v: str) -> frozenset[str]:
        i = self._require(v)
        return self._from_mask(self._adj[i] | (1 << i))

    def degree(self, v: str) -> int:
        return self._adj[self._require(v)].bit_count()

    # -- bitmask helpers ---------------------------------------------------

    def _to_mask(self, vs: Iterable[str]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self._require(v)
        return m

    def _from_mask(self, mask: int) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in _mask_bits(mask))

    def sort_set(self, vs: Iterable[str]) -> tuple[str, ...]:
        """Canonical form of a vertex subset: sorted by vertex order."""
        return tuple(sorted(vs, key=self._pos.__getitem__))

    def sort_sets(self, sets: Iterable[Iterable[str]]) -> list[tuple[str, ...]]:
        """Canonicalize each set and sort the list lexicographically."""
        keyed = sorted(
            (tuple(sorted(self._pos[v] for v in s)) for s in sets))
        return [tuple(self.vertices[i] for i in key) for key in keyed]

    # -- derived graphs ----------------------------------------------------

    def _induce_mask(self, keep: int) -> "Graph":
        vs = [self.vertices[i] for i in range(len(self.vertices)) if keep >> i & 1]
        g = Graph(vs)
        adj = []
        pos_new = g._pos
        for v in vs:
            m = self._adj[self._pos[v]] & keep
            adj.append(sum(1 << pos_new[self.vertices[i]] for i in _mask_bits(m)))
        g._adj = tuple(adj)
        g._edges = frozenset(e for e in self._edges
                             if all(keep >> self._pos[w] & 1 for w in e))
        return g

    def delete_vertices(self, vs: Iterable[str]) -> "Graph":
        drop = self._to_mask(vs)
        keep = ((1 << len(self.vertices)) - 1) & ~drop
        return self._induce_mask(keep)

    def induce(self, vs: Iterable[str]) -> "Graph":
        return self._induce_mask(self._to_mask(vs))

    def delete_closed_neighborhood(self, v: str) -> "Graph":
        i = self._require(v)
        keep = ((1 << len(self.vertices)) - 1) & ~(self._adj[i] | (1 << i))
        return self._induce_mask(keep)

    def complement(self) -> "Graph":
        n = len(self.vertices)
        edges = [(self.vertices[i], self.vertices[j])
                 for i in range(n) for j in range(i + 1, n)
                 if not self._adj[i] >> j & 1]
        return Graph(self.vertices, edges)

    def disjoint_union(self, other: "Graph") -> "Graph":
        common = set(self.vertices) & set(other.vertices)
        if common:
            raise GraphError(f"vertex sets overlap: {sorted(common)}")
        return Graph(self.vertices + other.vertices,
                     [tuple(e) for e in self._edges] + [tuple(e) for e in other._edges])

    def components(self) -> list[frozenset[str]]:
        n = len(self.vertices)
        seen = 0
        out = []
        for i in range(n):
            if seen >> i & 1:
                continue
            comp = 1 << i
            frontier = comp
            while frontier:
                nxt = 0
                for j in _mask_bits(frontier):
                    nxt |= self._adj[j]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            out.append(self._from_mask(comp))
        return out

    # -- independence ------------------------------------------------------

    def is_independent(self, vs: Iterable[str]) -> bool:
        m = self._to_mask(vs)
        return all(not self._adj[i] & m for i in _mask_bits(m))

    def is_clique(self, vs: Iterable[str]) -> bool:
        m = self._to_mask(vs)
        return all((self._adj[i] | (1 << i)) & m == m for i in _mask_bits(m))

    def maximal_independent_sets(self) -> list[tuple[str, ...]]:
        """All inclusion-maximal independent sets, lexicographically sorted.

        The edgeless graph (including the empty graph) yields the single
        set V(G).
        """
        n = len(self.vertices)
        adj = self._adj
        out: list[int] = []

        # Bron-Kerbosch with pivoting on the complement graph: maximal
        # independent sets here are maximal cliques there.
        full = (1 << n) - 1
        nonadj = [full & ~(adj[i] | (1 << i)) for i in range(n)]

        def expand(r: int, p: int, x: int) -> None:
            if not p and not x:
                out.append(r)
                return
            pivot = max(_mask_bits(p | x), key=lambda i: (nonadj[i] & p).bit_count())
            for i in _mask_bits(p & ~nonadj[pivot]):
                bit = 1 << i
                expand(r | bit, p & nonadj[i], x & nonadj[i])
                p &= ~bit
                x |= bit

        expand(0, full, 0)
        if n == 0:
            out = [0]
        out.sort(key=lambda m: tuple(_mask_bits(m)))
        return [tuple(self.vertices[i] for i in _mask_bits(m)) for m in out]

    def minimal_vertex_covers(self) -> list[tuple[str, ...]]:
        full = set(self.vertices)
        covers = [frozenset(full - set(s)) for s in self.maximal_independent_sets()]
        return self.sort_sets(covers)

    def independent_set_count(self) -> int:
        """Number of independent subsets of V(G), including the empty set."""
        adj = self._adj

        @lru_cache(maxsize=None)
        def count(avail: int) -> int:
            if not avail:
                return 1
            i = (avail & -avail).bit_length() - 1
            rest = avail & ~(1 << i)
            return count(rest) + count(rest & ~adj[i])

        result = count((1 << len(self.vertices)) - 1)
        count.cache_clear()
        return result

    # -- chordality ----------------------------------------------------------

    def is_chordal(self) -> tuple[bool, tuple[str, ...]]:
        """Chordality with certificate.

        Returns (True, perfect elimination ordering) or (False, induced
        cycle of length >= 4 in cyclic order).
        """
        n = len(self.vertices)
        adj = self._adj
        if n == 0:
            return True, ()

        # Maximum cardinality search.
        weight = [0] * n
        numbered = 0
        order: list[int] = []
        for _ in range(n):
            best = max((i for i in range(n) if not numbered >> i & 1),
                       key=lambda i: (weight[i], -i))
            order.append(best)
            numbered |= 1 << best
            for j in _mask_bits(adj[best] & ~numbered):
                weight[j] += 1
        # Reversed MCS order is the PEO candidate: for each vertex, its
        # neighbours later in `peo` must form a clique.
        peo = order[::-1]
        later = 0
        for v in order:  # iterate from the back of peo
            nb = adj[v] & later
            bits = list(_mask_bits(nb))
            for a in range(len(bits)):
                for b in range(a + 1, len(bits)):
                    u, w = bits[a], bits[b]
                    if not adj[u] >> w & 1:
                        return False, self._induced_cycle(v, u, w)
            later |= 1 << v
        return True, tuple(self.vertices[i] for i in peo)

    def _induced_cycle(self, v: int, u: int, w: int) -> tuple[str, ...]:
        # u, w are non-adjacent neighbours of v; a shortest u-w path avoiding
        # N[v] \ {u, w} closes up with v to a chordless cycle of length >= 4.
        adj = self._adj
        forbidden = (adj[v] | (1 << v)) & ~(1 << u) & ~(1 << w)
        prev = {u: None}
        queue = [u]
        while queue:
            nxt = []
            for a in queue:
                for b in _mask_bits(adj[a] & ~forbidden):
                    if b not in prev:
                        prev[b] = a
                        nxt.append(b)
            if w in prev:
                break
            queue = nxt
        if w not in prev:  # cannot happen when MCS check fails, but be safe
            raise GraphError("internal error: no chordless cycle found")
        path = []
        cur: int | None = w
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        path.append(v)
        return tuple(self.vertices[i] for i in path)


# -- convenience constructors ---------------------------------------------

def path_graph(names: Iterable[str]) -> Graph:
    ns = list(names)
    return Graph(ns, list(zip(ns, ns[1:])))


def cycle_graph(names: Iterable[str]) -> Graph:
    ns = list(names)
    if len(ns) < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(ns, list(zip(ns, ns[1:])) + [(ns[-1], ns[0])])


def complete_graph(names: Iterable[str]) -> Graph:
    ns = list(names)
    return Graph(ns, [(ns[i], ns[j]) for i in range(len(ns)) for j in range(i + 1, len(ns))])


def edgeless_graph(names: Iterable[str]) -> Graph:
    return Graph(list(names))
