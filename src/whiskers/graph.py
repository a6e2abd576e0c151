"""Finite simple graphs with the primitives the rest of the package consumes.

Vertices are opaque string tokens in a fixed order; adjacency is stored as
per-vertex bitsets over that order, so all the exhaustive desk-scale
algorithms (maximal independent sets, independent-set counting, chordality)
run on machine words / Python ints.

The graph engine `_vd` decides vertex decomposability of Ind(G[u]) on
vertex masks within VD_GRAPH_NODE_BOUND, and lists no maximal independent
set.  `_witness` is its one (beta) test, Woodroofe's dominated neighbour
(2009, Lemma 6) included, and `_vd` gives its rules.  The engine answers
`is_vd_graph`, and `decomposability.shedding_vertices` on a flag complex,
which asks `_witness` for (beta) too, as does `decomposability._walk`,
which certifies flag complexes.  `ideals.betti_recursive_cover` folds the
engine memo's splits.
Every link of a VD complex is VD (Provan-Billera 1980; Bjorner-Wachs 1997
for non-pure complexes), so a vertex mask is refuted at the first trial
vertex whose link is not VD; a VD mask meets none and keeps its split.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator

MAX_VERTICES = 512  # documented cap; exhaustive algorithms dominate anyway
# Maximal independent sets one enumeration may emit.  A perfect matching on
# 2k vertices has 2^k of them: 2^16 took about 0.4 s on a 2-vCPU Xeon with
# Python 3.11, and each further edge doubles the time and the memory.  The
# pi build of C22, with 39,603, stays under the bound.
MIS_ENUMERATION_BOUND = 1 << 16
# Work one graph-level VD verdict or shedding list may take: engine nodes
# (distinct vertex sets) plus witness branches.  The tests, the property
# suites and the benchmark's inputs take at most 1,420; a unit costs 2-80 us
# on a 2-vCPU Xeon with Python 3.11, so the bound is a few seconds.
VD_GRAPH_NODE_BOUND = 1 << 17


class GraphError(ValueError):
    pass


class ResourceLimit(RuntimeError):
    """An explicit resource bound was exceeded (never a silent approximation)."""


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _position_key(mask: int) -> str:
    """A string that sorts as the tuple of the mask's positions.

    Character i is "0" where bit i is set and "1" where it is not, up to
    the highest set bit.  Take the first position where two masks differ.
    If the mask without it has a later position, the mask that holds it has
    the smaller tuple and the smaller character; if not, the mask without
    it has a prefix for its tuple and a prefix for its string.  The string
    is the complement on bits 0..L - 1, with bit L set as a stop, read
    backwards from bit 0.  It takes no loop over the bits.
    """
    return bin(mask ^ ((2 << mask.bit_length()) - 1))[:2:-1]


def _by_position(masks: Iterable[int]) -> list[int]:
    """Vertex-subset masks in lexicographic order of their position tuples."""
    return sorted(masks, key=_position_key)


def _close_up(masks: Iterable[int], keep: int) -> list[int]:
    """The masks cut to the positions in ``keep``, which are renumbered
    0, 1, ... in order.  Each run of consecutive kept positions moves down
    by one shift, so a mask takes one AND and one shift per run."""
    runs: list[tuple[int, int]] = []
    kept = 0
    while keep:
        low = keep & -keep
        run = keep & ~(keep + low)
        runs.append((run, low.bit_length() - 1 - kept))
        kept += run.bit_count()
        keep ^= run
    out = []
    for m in masks:
        c = 0
        for run, shift in runs:
            c |= (m & run) >> shift
        out.append(c)
    return out


def _component(adj: tuple[int, ...], keep: int, i: int) -> int:
    """The vertices of G[keep] joined to vertex i, which lies in ``keep``."""
    comp = frontier = 1 << i
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & keep & ~comp
        comp |= frontier
    return comp


def _isolated(adj: tuple[int, ...], keep: int) -> int:
    """The vertices of ``keep`` with no neighbour in ``keep``."""
    out = 0
    rest = keep
    while rest:
        low = rest & -rest
        if not adj[low.bit_length() - 1] & keep:
            out |= low
        rest ^= low
    return out


def _mis_walk(adj: tuple[int, ...], keep: int, emit: Callable[[int], bool]) -> bool:
    """Call ``emit`` on each maximal independent set of G[keep], as a mask.

    Bron-Kerbosch with pivoting on the complement graph: maximal independent
    sets here are maximal cliques there.  The pivot is the vertex of p | x
    that keeps the most of p, the lowest one on a tie, and the candidates go
    lowest first.  The walk stops at the first call that returns True and
    then returns True itself.
    """
    nonadj = [keep & ~(a | 1 << i) for i, a in enumerate(adj)]

    def expand(r: int, p: int, x: int) -> bool:
        if not p and not x:
            return emit(r)
        most = -1
        rest = p | x
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            kept = (nonadj[i] & p).bit_count()
            if kept > most:
                most, pivot = kept, i
            rest ^= low
        cand = p & ~nonadj[pivot]
        while cand:
            bit = cand & -cand
            near = nonadj[bit.bit_length() - 1]
            if expand(r | bit, p & near, x & near):
                return True
            p ^= bit
            x |= bit
            cand ^= bit
        return False

    return expand(0, keep, 0)


class _Memo(dict):
    """`_vd`'s splits by vertex mask, and the work spent so far."""

    __slots__ = ("work",)

    def __init__(self) -> None:
        super().__init__()
        self.work = 0

    def spend(self) -> None:
        self.work += 1
        if self.work > VD_GRAPH_NODE_BOUND:
            raise ResourceLimit(f"{self.work} graph VD nodes exceeds the graph "
                                f"VD node bound {VD_GRAPH_NODE_BOUND}")


def _vd(adj: tuple[int, ...], u: int, memo: _Memo) -> int:
    """The split of Ind(G[u]) recorded in ``memo``, on G's adjacency bitsets.

    It is 0 when the complex is not VD, and True when no edge is left.  An
    isolated vertex is a cone point, and a cone is VD exactly when its base
    is, so the memo key is ``u`` without them.  Separate components give a
    join, VD exactly when each part is (Provan-Billera); the split is then
    the lowest vertex's component.  Otherwise it is the bit of an x where
    Ind(G[u] - x) and Ind(G[u] - N[x]) are VD and (beta) holds, trying x
    by descending degree in G[u].  `_witness` decides (beta); a neighbour y
    with N[y] inside N[x], which makes (beta) hold (Woodroofe 2009, Lemma
    6), ends its first scan.  Where (beta) holds the link Ind(G[u] - N[x])
    is decided first: a link of a VD complex is VD, so one that is not
    gives 0 at once.  A VD u never meets such a link, so its split is the
    first x in that order whose deletion and link are both VD.
    """
    u &= ~_isolated(adj, u)
    if not u:
        return True
    known = memo.get(u)
    if known is not None:
        return known
    memo.spend()
    comp = _component(adj, u, (u & -u).bit_length() - 1)
    if comp != u:
        split = comp if _vd(adj, comp, memo) and _vd(adj, u ^ comp, memo) else 0
        memo[u] = split
        return split
    closed = {}
    rest = u
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        closed[i] = adj[i] & u | low
        rest ^= low
    split = 0
    for x in sorted(closed, key=lambda i: -closed[i].bit_count()):
        bit = 1 << x
        link = u & ~closed[x]
        if _witness(adj, link, adj[x] & u, memo):
            continue
        if not _vd(adj, link, memo):
            break
        if _vd(adj, u ^ bit, memo):
            split = bit
            break
    memo[u] = split
    return split


def _witness(adj: tuple[int, ...], avail: int, undominated: int,
             memo: _Memo) -> bool:
    """Whether an independent set inside ``avail`` dominates ``undominated``.

    With ``avail`` = u - N[x] and ``undominated`` = N(x) in u, such a set
    grows to a maximal independent set of G[u] - N[x] that stays maximal in
    G[u] - x, so it exists exactly when (beta) fails at x.  The search
    branches on the undominated vertex with the fewest candidates and stops
    at the first set found.
    """
    if not undominated:
        return True
    memo.spend()
    fewest = avail
    rest = undominated
    while rest:
        low = rest & -rest
        cand = (adj[low.bit_length() - 1] | low) & avail
        if not cand:
            return False
        if cand.bit_count() < fewest.bit_count():
            fewest = cand
        rest ^= low
    while fewest:
        low = fewest & -fewest
        near = adj[low.bit_length() - 1] | low
        if _witness(adj, avail & ~near, undominated & ~near, memo):
            return True
        avail ^= low  # later branches leave this candidate out
        fewest ^= low
    return False


def _mask_tuples(names: tuple[str, ...], masks: Iterable[int]) -> list[tuple[str, ...]]:
    """Each mask as the tuple of its names, in position order."""
    out = []
    for m in masks:
        named = []
        while m:
            low = m & -m
            named.append(names[low.bit_length() - 1])
            m ^= low
        out.append(tuple(named))
    return out


class Graph:
    """Immutable simple graph: no loops, no multi-edges, stable vertex order.

    ``_mis`` holds the maximal independent sets once they are listed; a
    derived graph starts without them."""

    __slots__ = ("vertices", "_pos", "_adj", "_mis")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()):
        """The checked entry for names and edges from outside; edge ends
        that are not listed in ``vertices`` are added after them."""
        pos: dict[str, int] = {}
        for v in vertices:
            if v in pos:
                raise GraphError(f"duplicate vertex {v!r}")
            pos[v] = len(pos)
        pairs = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at {u!r}")
            pairs.append((pos.setdefault(u, len(pos)), pos.setdefault(v, len(pos))))
        if len(pos) > MAX_VERTICES:
            raise GraphError(f"graph exceeds {MAX_VERTICES} vertices")
        adj = [0] * len(pos)
        for iu, iv in pairs:
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        self.vertices, self._pos, self._adj = tuple(pos), pos, tuple(adj)
        self._mis = None

    @classmethod
    def _from_adj(cls, vertices: Iterable[str], adj: Iterable[int]) -> "Graph":
        """Vertices and bitsets of a derived graph, taken as they are; only
        the vertex cap, which a union or a build can pass, is checked."""
        g = cls.__new__(cls)
        g.vertices, g._adj, g._mis = tuple(vertices), tuple(adj), None
        if len(g.vertices) > MAX_VERTICES:
            raise GraphError(f"graph exceeds {MAX_VERTICES} vertices")
        g._pos = {v: i for i, v in enumerate(g.vertices)}
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> frozenset[frozenset[str]]:
        vs = self.vertices
        return frozenset(frozenset((vs[i], vs[j])) for i, j in self.edge_pairs())

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Every edge as a position pair i < j, in lexicographic order."""
        return [(i, j) for i, a in enumerate(self._adj)
                for j in _mask_bits(a >> i + 1 << i + 1)]

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: str) -> bool:
        return v in self._pos

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.vertices == other.vertices
                and self._adj == other._adj)

    def __hash__(self) -> int:
        return hash((self.vertices, self._adj))

    def __repr__(self) -> str:
        edges = sum(a.bit_count() for a in self._adj) // 2
        return f"Graph({len(self.vertices)} vertices, {edges} edges)"

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
        return tuple(sorted(vs, key=self._require))

    def sort_sets(self, sets: Iterable[Iterable[str]]) -> list[tuple[str, ...]]:
        """Canonicalize each set and sort the list lexicographically."""
        keyed = sorted(
            (tuple(sorted(map(self._require, s))) for s in sets))
        return [tuple(self.vertices[i] for i in key) for key in keyed]

    # -- derived graphs ----------------------------------------------------

    def _induce_mask(self, keep: int) -> "Graph":
        old = list(_mask_bits(keep))
        return Graph._from_adj([self.vertices[i] for i in old],
                               _close_up([self._adj[i] for i in old], keep))

    def delete_vertices(self, vs: Iterable[str]) -> "Graph":
        drop = self._to_mask(vs)
        keep = ((1 << len(self.vertices)) - 1) & ~drop
        return self._induce_mask(keep)

    def induce(self, vs: Iterable[str]) -> "Graph":
        return self._induce_mask(self._to_mask(vs))

    def complement(self) -> "Graph":
        full = (1 << len(self.vertices)) - 1
        return Graph._from_adj(
            self.vertices, (full & ~(a | 1 << i) for i, a in enumerate(self._adj)))

    def disjoint_union(self, other: "Graph") -> "Graph":
        common = set(self.vertices) & set(other.vertices)
        if common:
            raise GraphError(f"vertex sets overlap: {sorted(common)}")
        n = len(self.vertices)
        return Graph._from_adj(self.vertices + other.vertices,
                               self._adj + tuple(a << n for a in other._adj))

    def components(self) -> list[frozenset[str]]:
        rest = (1 << len(self.vertices)) - 1
        out = []
        while rest:
            comp = _component(self._adj, rest, (rest & -rest).bit_length() - 1)
            rest ^= comp
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
        set V(G).  Raises ResourceLimit over MIS_ENUMERATION_BOUND sets.
        """
        return _mask_tuples(self.vertices, self._mis_masks())

    def _mis_masks(self) -> tuple[int, ...]:
        """``maximal_independent_sets`` as position masks, in the same order.

        The graph does not change, so the first listing that stays within
        the bound is kept and every later call returns it.
        """
        if self._mis is not None:
            return self._mis
        out: list[int] = []

        def emit(r: int) -> bool:
            out.append(r)
            return len(out) > MIS_ENUMERATION_BOUND

        if _mis_walk(self._adj, (1 << len(self.vertices)) - 1, emit):
            raise ResourceLimit("maximal independent sets exceed the "
                                f"enumeration bound {MIS_ENUMERATION_BOUND}")
        self._mis = tuple(_by_position(out))
        return self._mis

    def minimal_vertex_covers(self) -> list[tuple[str, ...]]:
        full = (1 << len(self.vertices)) - 1
        return _mask_tuples(self.vertices,
                            _by_position(full ^ m for m in self._mis_masks()))

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


def is_vd_graph(g: Graph) -> bool:
    """VD of a graph = VD of its independence complex, decided by the graph
    engine `_vd` on the adjacency bitsets; no maximal independent set is
    listed and no certificate is built.  Raises ResourceLimit past
    VD_GRAPH_NODE_BOUND."""
    return bool(_vd(g._adj, (1 << len(g.vertices)) - 1, _Memo()))


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
