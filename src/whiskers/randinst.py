"""Seeded random instances for the property suites.

Instances are (base graph, partition spec) pairs that always validate, with
a total vertex budget covering base + whiskers.  All randomness flows from a
caller-supplied random.Random, so a fixed seed reproduces byte-identical
suites.
"""

from __future__ import annotations

import random

from .graph import Graph, edgeless_graph, path_graph
from .whisker import (PartitionSpec, WhiskerError, WhiskeredGraph, _assemble,
                      default_spec, validate_partitions)

# Cliques a random cluster partition puts into one cluster at most.
MAX_CLUSTER_CLIQUES = 3


def random_graph(rng: random.Random, n: int, p: float = 0.4,
                 prefix: str = "v") -> Graph:
    names = [f"{prefix}{i + 1}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(names, edges)


def random_clique_partition(rng: random.Random, g: Graph) -> list[tuple[str, ...]]:
    order = list(g.vertices)
    rng.shuffle(order)
    cliques: list[list[str]] = []
    for v in order:
        homes = [c for c in cliques if g.is_clique(c + [v])]
        if homes and rng.random() < 0.6:
            rng.choice(homes).append(v)
        else:
            cliques.append([v])
    return [tuple(g.sort_set(c)) for c in cliques]


def random_cluster_partition(rng: random.Random, g: Graph,
                             cliques: list[tuple[str, ...]]) -> list[tuple[int, ...]]:
    def independent(c1, c2) -> bool:
        return not any(g.has_edge(u, v) for u in cliques[c1] for v in cliques[c2])

    order = list(range(len(cliques)))
    rng.shuffle(order)
    clusters: list[list[int]] = []
    for i in order:
        homes = [c for c in clusters
                 if len(c) < MAX_CLUSTER_CLIQUES and all(independent(i, j) for j in c)]
        if homes and rng.random() < 0.5:
            rng.choice(homes).append(i)
        else:
            clusters.append([i])
    return [tuple(sorted(c)) for c in clusters]


def _random_vd_whisker(rng: random.Random, names: list[str]) -> Graph:
    """Small vertex decomposable graph: edgeless, a path, or a whiskered core."""
    style = rng.random()
    if len(names) == 1 or style < 0.4:
        return edgeless_graph(names)
    if style < 0.8:
        return path_graph(names)
    # pendant construction: a small star plus leftovers, always chordal => VD
    center, *rest = names
    return Graph(names, [(center, x) for x in rest])


def random_instance(rng: random.Random, kind: str, max_base: int = 8,
                    max_total: int = 14) -> tuple[Graph, PartitionSpec]:
    """A valid (graph, spec) pair for the requested kind within the budget."""
    while True:
        n = rng.randint(1, max_base)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        cliques = random_clique_partition(rng, g)
        if kind == "pi":
            clusters = [(i,) for i in range(len(cliques))]
        else:
            clusters = random_cluster_partition(rng, g, cliques)
        d = len(cliques)
        r = sum(1 for c in clusters if len(c) > 1)
        budget = max_total - n - d - r
        if budget < 0:
            continue
        a_sizes = [1] * d
        b_sizes = {j: 1 for j, c in enumerate(clusters) if len(c) > 1}
        if kind in ("mc", "md"):
            slots = list(range(d)) + [("b", j) for j in b_sizes]
            for _ in range(budget):
                if not slots or rng.random() < 0.4:
                    break
                pick = rng.choice(slots)
                if isinstance(pick, tuple):
                    b_sizes[pick[1]] += 1
                else:
                    a_sizes[pick] += 1
        a_graphs = {}
        b_graphs = {}
        if kind == "md":
            for i in range(d):
                names = [f"a{i + 1}.{t + 1}" for t in range(a_sizes[i])]
                a_graphs[i] = _random_vd_whisker(rng, names)
            for j in b_sizes:
                names = [f"b{j + 1}.{t + 1}" for t in range(b_sizes[j])]
                b_graphs[j] = _random_vd_whisker(rng, names)
        spec = default_spec(g, cliques, clusters, a_sizes, b_sizes,
                            a_graphs, b_graphs)
        problems = validate_partitions(g, spec)
        if problems:
            raise WhiskerError(f"random instance is invalid: {problems[0]}")
        return g, spec


def random_build(rng: random.Random, kind: str, max_base: int = 8,
                 max_total: int = 14) -> WhiskeredGraph:
    # random_instance has just validated the spec, and it fits kind
    return _assemble(*random_instance(rng, kind, max_base, max_total), kind)


def random_complex_facets(rng: random.Random,
                          n_vertices: int) -> list[tuple[str, ...]]:
    """Random nonvoid facet list on vertices 1..n (antichain after reduction)."""
    names = [str(i + 1) for i in range(n_vertices)]
    n_facets = rng.randint(1, max(2, n_vertices))
    out = []
    for _ in range(n_facets):
        size = rng.randint(0, n_vertices)
        out.append(tuple(sorted(rng.sample(names, size))))
    return out
