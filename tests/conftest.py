"""Shared example builders and small independent oracles."""

import random

import pytest

from whiskers import (Graph, PartitionSpec, SimplicialComplex, build_whiskered,
                      cycle_graph, default_spec, edgeless_graph,
                      independence_complex, path_graph)
from whiskers.randinst import random_build, random_complex_facets, random_graph


def c6():
    return cycle_graph([f"v{i}" for i in range(1, 7)])


def c6_ears_spec(g=None):
    g = g or c6()
    return default_spec(g, [("v1", "v2"), ("v3", "v4"), ("v5", "v6")])


def c6_ears():
    g = c6()
    return build_whiskered(g, c6_ears_spec(g), "pi")


def l6():
    return path_graph([f"v{i}" for i in range(1, 7)])


def fig_odd_even():
    """L6, singleton cliques, clusters {v1,v3,v5} and {v2,v4,v6} (cc)."""
    g = l6()
    spec = default_spec(g, [(v,) for v in g.vertices],
                        clusters=[(0, 2, 4), (1, 3, 5)])
    return build_whiskered(g, spec, "cc")


def fig_mc():
    """L6 with cliques {v3,v4},{v1,v2},{v5,v6}, cluster {W2,W3}, |A| = 2,2,1
    on {v1,v2},{v5,v6},{v3,v4} and |B1| = 2 (the drawn version)."""
    g = l6()
    cliques = (("v1", "v2"), ("v3", "v4"), ("v5", "v6"))
    clusters = ((0, 2), (1,))
    a = (edgeless_graph(["a1.1", "a1.2"]), edgeless_graph(["a2.1"]),
         edgeless_graph(["a3.1", "a3.2"]))
    b = (edgeless_graph(["b1.1", "b1.2"]), None)
    spec = PartitionSpec(cliques, clusters, a, b)
    return build_whiskered(g, spec, "mc")


def c8_cc():
    """C8 with cliques W_i = {v_{2i-1}, v_{2i}} and clusters W1|W3, W2|W4."""
    g = cycle_graph([f"v{i}" for i in range(1, 9)])
    spec = default_spec(g, [("v1", "v2"), ("v3", "v4"), ("v5", "v6"),
                            ("v7", "v8")], clusters=[(0, 2), (1, 3)])
    return build_whiskered(g, spec, "cc")


def seeded_graphs():
    """The empty graph, edgeless graphs, seeded random graphs on 0-12
    vertices and seeded pi/cc/mc/md builds."""
    rng = random.Random("seeded-graphs")
    out = [Graph(), edgeless_graph(["a"]), edgeless_graph(["x", "y", "z"])]
    out += [random_graph(rng, n % 13, rng.uniform(0.05, 0.9)) for n in range(39)]
    out += [random_build(rng, kind, max_base=6, max_total=12).graph
            for kind in ("pi", "cc", "mc", "md") * 3]
    return out


def fresh_copy(g, rng):
    """g rebuilt from its names, edges shuffled and their ends swapped at
    random."""
    edges = [tuple(rng.sample(e, 2)) for e in sorted(map(sorted, g.edges))]
    rng.shuffle(edges)
    return Graph(g.vertices, edges)


def all_antichains(n):
    """All nonempty antichains of subsets of {0..n-1}, as bitmask lists."""
    subs = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    out = []

    def rec(start, chosen):
        if chosen:
            out.append(list(chosen))
        for idx in range(start, len(subs)):
            m = subs[idx]
            if all(m & c != m and m & c != c for c in chosen):
                chosen.append(m)
                rec(idx + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def seeded_complexes():
    """Every antichain on at most 5 vertices as a complex, the void and
    irrelevant complexes, seeded random complexes on 1-9 vertices and Ind
    of seeded pi/cc/mc/md builds of up to 12 vertices."""
    out = [SimplicialComplex((), []), SimplicialComplex((), [()]),
           SimplicialComplex("ab", [])]
    for n in range(1, 6):
        names = [str(i) for i in range(n)]
        out += [SimplicialComplex(names, [[names[b] for b in range(n) if m >> b & 1]
                                          for m in ac])
                for ac in all_antichains(n)]
    rng = random.Random("seeded-complexes")
    for t in range(400):
        names = [str(i + 1) for i in range(t % 9 + 1)]
        out.append(SimplicialComplex(names, random_complex_facets(rng, len(names))))
    out += [independence_complex(random_build(rng, kind, max_base=6, max_total=12).graph)
            for kind in ("pi", "cc", "mc", "md") * 10]
    return out


@pytest.fixture
def report(capsys):
    """Print a line straight to the terminal, bypassing capture."""
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)
    return emit
