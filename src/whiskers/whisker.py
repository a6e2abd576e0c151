"""Clique partitions, cluster partitions, and the whiskered constructions.

A partition spec consists of a clique partition W_1..W_d of the base graph,
a coarsening into clusters U_1..U_s (cliques sharing a cluster must have no
connecting edges), a whisker graph A_i for each clique, and a whisker graph
B_j for each cluster containing at least two cliques.  The four construction
kinds:

  pi  every cluster a single clique, every |A_i| = 1 (classic one whisker
      per clique);
  cc  all |A_i| = |B_j| = 1, whisker graphs edgeless;
  mc  whisker graphs edgeless, any sizes;
  md  whisker graphs arbitrary but each must induce a vertex decomposable
      subgraph.

The kinds nest in ``KINDS`` order: a spec fits its most specific kind
(``derive_kind``) and every later one, so a requested kind is checked by its
place in that order, plus the vertex decomposability of the whisker graphs
for md.  ``build_whiskered`` checks a spec once with ``_check``, which
``poset.count_facets_pi`` calls alone; ``_assemble`` then builds on
adjacency bitsets, each whisker graph shifted past the vertices before it.
Residuals and seeded random builds, valid by construction, skip the checks.

The type of a construction is (d, r) with d the number of cliques and r the
number of multi-clique clusters.  Deleting a base vertex v or its closed
neighbourhood N[v] leaves a build of the same family plus detached whisker
pieces; both decompositions share one residual rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, GraphError, _mask_bits, edgeless_graph, is_vd_graph

KINDS = ("pi", "cc", "mc", "md")


class WhiskerError(ValueError):
    pass


@dataclass(frozen=True)
class PartitionSpec:
    """Clique partition + cluster partition + whisker attachment graphs.

    ``cliques[i]`` is W_{i+1}; ``clusters[j]`` lists clique indices (into
    ``cliques``); ``whisker_a[i]`` is the graph A_{i+1}; ``whisker_b[j]`` is
    B for cluster j (None for single-clique clusters).
    """

    cliques: tuple[tuple[str, ...], ...]
    clusters: tuple[tuple[int, ...], ...]
    whisker_a: tuple[Graph, ...]
    whisker_b: tuple[Graph | None, ...]

    @property
    def d(self) -> int:
        return len(self.cliques)

    @property
    def r(self) -> int:
        return sum(1 for c in self.clusters if len(c) > 1)

    @property
    def type(self) -> tuple[int, int]:
        return self.d, self.r


def default_spec(g: Graph,
                 cliques: Sequence[Iterable[str]],
                 clusters: Sequence[Iterable[int]] | None = None,
                 a_sizes: Sequence[int] | None = None,
                 b_sizes: dict[int, int] | None = None,
                 a_graphs: dict[int, Graph] | None = None,
                 b_graphs: dict[int, Graph] | None = None) -> PartitionSpec:
    """Build a spec with generated whisker vertex names a<i>.<k> / b<j>.<k>.

    Indices in generated names are 1-based.  Explicit ``a_graphs`` /
    ``b_graphs`` entries override the generated edgeless whiskers.
    """
    cl = tuple(tuple(g.sort_set(w)) for w in cliques)
    if clusters is None:
        cls = tuple((i,) for i in range(len(cl)))
    else:
        cls = tuple(tuple(sorted(c)) for c in clusters)
    a_sizes = a_sizes or [1] * len(cl)
    b_sizes = b_sizes or {}
    a_graphs = a_graphs or {}
    b_graphs = b_graphs or {}
    was = tuple(a_graphs.get(i, edgeless_graph(
        f"a{i + 1}.{k + 1}" for k in range(a_sizes[i]))) for i in range(len(cl)))
    wbs = []
    for j, c in enumerate(cls):
        if len(c) <= 1:
            wbs.append(None)
        elif j in b_graphs:
            wbs.append(b_graphs[j])
        else:
            wbs.append(edgeless_graph(
                f"b{j + 1}.{k + 1}" for k in range(b_sizes.get(j, 1))))
    return PartitionSpec(cl, cls, was, tuple(wbs))


def trivial_spec(g: Graph) -> PartitionSpec:
    """Singleton cliques, singleton clusters: the classic whiskering setup."""
    return default_spec(g, [(v,) for v in g.vertices])


def _whisker_graphs(spec: PartitionSpec) -> list[tuple[str, Graph]]:
    """(label, graph) for each whisker graph, A1, A2, ... then B1, B2, ...,
    passing over the None of a single-clique cluster."""
    return ([(f"A{i + 1}", a) for i, a in enumerate(spec.whisker_a) if a is not None]
            + [(f"B{j + 1}", b) for j, b in enumerate(spec.whisker_b) if b is not None])


def validate_partitions(g: Graph, spec: PartitionSpec) -> list[str]:
    """All spec invariants; returns a list of violations (empty = ok)."""
    bad: list[str] = []
    seen: set[str] = set()
    for i, w in enumerate(spec.cliques):
        if not w:
            bad.append(f"clique W{i + 1} is empty")
            continue
        for v in w:
            if v not in g:
                bad.append(f"clique W{i + 1} uses unknown vertex {v!r}")
            elif v in seen:
                bad.append(f"vertex {v!r} appears in more than one clique")
            seen.add(v)
        if all(v in g for v in w) and not g.is_clique(w):
            bad.append(f"W{i + 1} = {{{' '.join(w)}}} is not a clique")
    missing = set(g.vertices) - seen
    if missing:
        bad.append(f"vertices not covered by cliques: {' '.join(sorted(missing))}")

    used: set[int] = set()
    for j, c in enumerate(spec.clusters):
        if not c:
            bad.append(f"cluster U{j + 1} is empty")
        for i in c:
            if not 0 <= i < spec.d:
                bad.append(f"cluster U{j + 1} references missing clique {i + 1}")
            elif i in used:
                bad.append(f"clique W{i + 1} appears in more than one cluster")
            used.add(i)
        # condition (2): cliques sharing a cluster have no connecting edges
        for a in range(len(c)):
            for b in range(a + 1, len(c)):
                i1, i2 = c[a], c[b]
                if not (0 <= i1 < spec.d and 0 <= i2 < spec.d):
                    continue
                for u in spec.cliques[i1]:
                    for v in spec.cliques[i2]:
                        if u in g and v in g and g.has_edge(u, v):
                            bad.append(
                                f"edge {u}-{v} connects cliques W{i1 + 1}, W{i2 + 1}"
                                f" inside cluster U{j + 1}")
    uncovered = set(range(spec.d)) - used
    if uncovered:
        bad.append("cliques not covered by clusters: "
                   + " ".join(f"W{i + 1}" for i in sorted(uncovered)))

    if len(spec.whisker_a) != spec.d:
        bad.append("need exactly one whisker graph A_i per clique")
    if len(spec.whisker_b) != len(spec.clusters):
        bad.append("whisker_b must align with the cluster list")
    taken = set(g.vertices)
    for name, wg in _whisker_graphs(spec):
        if not wg.vertices:
            bad.append(f"whisker graph {name} is empty")
        for v in wg.vertices:
            if v in taken:
                bad.append(f"whisker vertex {v!r} ({name}) collides with another vertex")
            taken.add(v)
    for j, b in enumerate(spec.whisker_b):
        if j < len(spec.clusters):
            if len(spec.clusters[j]) > 1 and b is None:
                bad.append(f"multi-clique cluster U{j + 1} needs a whisker graph B")
            if len(spec.clusters[j]) <= 1 and b is not None:
                bad.append(f"single-clique cluster U{j + 1} must not carry a whisker graph B")
    return bad


@dataclass(frozen=True)
class WhiskeredGraph:
    graph: Graph
    base: Graph
    spec: PartitionSpec
    kind: str
    added: frozenset[str]

    @property
    def type(self) -> tuple[int, int]:
        return self.spec.type


def derive_kind(spec: PartitionSpec) -> str:
    """The most specific construction kind a spec qualifies for."""
    whiskers = list(spec.whisker_a) + [b for b in spec.whisker_b if b is not None]
    if any(any(h._adj) for h in whiskers):
        return "md"
    if any(len(h.vertices) > 1 for h in whiskers):
        return "mc"
    if all(len(c) == 1 for c in spec.clusters):
        return "pi"
    return "cc"


def _check_kind(spec: PartitionSpec, kind: str) -> list[str]:
    derived = derive_kind(spec)
    if KINDS.index(kind) < KINDS.index(derived):
        return [f"kind={kind} does not fit a spec of kind {derived}"]
    if kind != "md":
        return []
    return [f"kind=md whisker graph {label} is not vertex decomposable"
            for label, h in _whisker_graphs(spec) if not is_vd_graph(h)]


def _check(g: Graph, spec: PartitionSpec, kind: str) -> None:
    """Raise WhiskerError unless the spec builds a kind ``kind`` graph on g."""
    if kind not in KINDS:
        raise WhiskerError(f"unknown kind {kind!r}")
    bad = validate_partitions(g, spec) + _check_kind(spec, kind)
    if bad:
        raise WhiskerError("invalid partition spec: " + "; ".join(bad))


def build_whiskered(g: Graph, spec: PartitionSpec, kind: str) -> WhiskeredGraph:
    _check(g, spec, kind)
    return _assemble(g, spec, kind)


def _assemble(g: Graph, spec: PartitionSpec, kind: str) -> WhiskeredGraph:
    """The build of a spec already checked against g and kind."""
    # each whisker graph with the base vertices its vertices are joined to
    pieces = [(a, spec.cliques[i]) for i, a in enumerate(spec.whisker_a)]
    pieces += [(b, [w for i in spec.clusters[j] for w in spec.cliques[i]])
               for j, b in enumerate(spec.whisker_b) if b is not None]
    vertices = list(g.vertices)
    adj = list(g._adj)
    for h, attach in pieces:
        start = len(vertices)
        attach_mask = g._to_mask(attach)
        block = (1 << len(h.vertices)) - 1 << start
        for x in _mask_bits(attach_mask):
            adj[x] |= block
        vertices.extend(h.vertices)
        adj.extend(a << start | attach_mask for a in h._adj)
    added = frozenset(vertices[len(g.vertices):])
    return WhiskeredGraph(Graph._from_adj(vertices, adj), g, spec, kind, added)


# -- structural decompositions ----------------------------------------------

def _residual(w: WhiskeredGraph,
              removed: frozenset[str]) -> tuple[WhiskeredGraph, list[Graph]]:
    """W.graph minus ``removed`` ({v} or N[v] for a base vertex v), as a
    whiskered graph on the surviving base vertices plus detached pieces.

    A clique left empty drops out, and its A detaches unless A was removed
    with it.  A cluster whose B was removed (v's own, on the link side)
    splits into singleton clusters of its surviving cliques, which condition
    (2) keeps whole.  Any other cluster left without cliques detaches its B,
    and one left with a single clique folds its B into that clique's A.
    """
    spec = w.spec
    cliques: list[tuple[str, ...]] = []
    whisker_a: list[Graph] = []
    remap: dict[int, int] = {}
    isolated: list[Graph] = []
    for i, c in enumerate(spec.cliques):
        rest = tuple(x for x in c if x not in removed)
        if rest:
            remap[i] = len(cliques)
            cliques.append(rest)
            whisker_a.append(spec.whisker_a[i])
        elif removed.isdisjoint(spec.whisker_a[i].vertices):
            isolated.append(w.graph.induce(spec.whisker_a[i].vertices))

    clusters: list[tuple[int, ...]] = []
    whisker_b: list[Graph | None] = []
    for j, c in enumerate(spec.clusters):
        members = tuple(remap[i] for i in c if i in remap)
        b = spec.whisker_b[j]
        if b is not None and not removed.isdisjoint(b.vertices):
            clusters += [(m,) for m in members]
            whisker_b += [None] * len(members)
        elif not members:
            if b is not None:
                isolated.append(w.graph.induce(b.vertices))
        elif len(members) == 1 and b is not None:
            whisker_a[members[0]] = whisker_a[members[0]].disjoint_union(b)
            clusters.append(members)
            whisker_b.append(None)
        else:
            clusters.append(members)
            whisker_b.append(b)
    base = w.base.induce(x for x in w.base.vertices if x not in removed)
    residual = PartitionSpec(tuple(cliques), tuple(clusters),
                             tuple(whisker_a), tuple(whisker_b))
    return _assemble(base, residual, derive_kind(residual)), isolated


def decompose_delete(w: WhiskeredGraph, v: str) -> tuple[WhiskeredGraph, list[Graph]]:
    """W.graph minus v: residual whiskered graph and detached pieces."""
    if v not in w.base:
        raise GraphError(f"{v!r} is not a base vertex")
    return _residual(w, frozenset([v]))


def decompose_link(w: WhiskeredGraph, v: str) -> tuple[WhiskeredGraph, list[Graph], tuple[int, int]]:
    """W.graph minus N[v]: residual whiskered graph, detached pieces, and type."""
    if v not in w.base:
        raise GraphError(f"{v!r} is not a base vertex")
    residual, isolated = _residual(w, w.graph.closed_neighborhood(v))
    return residual, isolated, residual.type
