"""Graph core: enumeration, counting, chordality, canonical orderings."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiskers import (Graph, GraphError, ResourceLimit, complete_graph,
                      cycle_graph, default_spec, format_graph, graph_to_dot,
                      path_graph)
from whiskers.graph import (MAX_VERTICES, MIS_ENUMERATION_BOUND, _by_position,
                            _component, _isolated, _mask_bits, _mis_walk)
from whiskers.randinst import random_graph

from conftest import c6, fresh_copy, seeded_graphs


def brute_independent_subsets(g):
    return [set(c) for k in range(len(g.vertices) + 1)
            for c in combinations(g.vertices, k) if g.is_independent(c)]


def brute_minimal_covers(g):
    """The vertex subsets that meet every edge and lose that property when
    any one of their vertices is dropped."""
    edges = g.edges
    covers = {frozenset(c) for k in range(len(g.vertices) + 1)
              for c in combinations(g.vertices, k)
              if not any(e.isdisjoint(c) for e in edges)}
    return [c for c in covers if not any(c - {v} in covers for v in c)]


def brute_chordal(g):
    for k in range(4, len(g.vertices) + 1):
        for sub in combinations(g.vertices, k):
            h = g.induce(sub)
            if all(h.degree(v) == 2 for v in sub) and len(h.components()) == 1:
                return False
    return True


def graphs(max_n=9):
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            lambda seed, p: random_graph(random.Random(seed), n, p),
            st.integers(0, 10 ** 6), st.floats(0.05, 0.9)))


def test_construction_rejects_bad_edges():
    # endpoints not declared up front are appended in first-seen order
    assert Graph(["a"], [("a", "b")]).vertices == ("a", "b")
    names = [f"v{i}" for i in range(MAX_VERTICES + 1)]
    half = Graph(names[:MAX_VERTICES // 2 + 1], [])
    other = Graph(names[MAX_VERTICES // 2 + 1:] + ["w"], [])
    for call, message in (
            (lambda: Graph(["a", "b"], [("a", "a")]), "loop at 'a'"),
            (lambda: Graph(["a", "a"], []), "duplicate vertex 'a'"),
            (lambda: Graph(names, []), f"graph exceeds {MAX_VERTICES} vertices"),
            # the cap counts edge ends added after the listed vertices
            (lambda: Graph(names[:-1], [("v0", "w")]),
             f"graph exceeds {MAX_VERTICES} vertices"),
            # a union is checked by the derived graphs' cap
            (lambda: half.disjoint_union(other),
             f"graph exceeds {MAX_VERTICES} vertices"),
            (lambda: half.disjoint_union(Graph(["v1", "v2", "x"], [])),
             "vertex sets overlap: ['v1', 'v2']"),
            (lambda: cycle_graph(["a", "b"]), "cycle needs at least 3 vertices")):
        with pytest.raises(GraphError) as err:
            call()
        assert str(err.value) == message, message


def test_unknown_names_raise_graph_error():
    # names from outside input fail as GraphError, a usage error (exit 2)
    g = cycle_graph(["1", "2", "3"])
    with pytest.raises(GraphError, match="unknown vertex 'zz'"):
        g.sort_set(["zz"])
    with pytest.raises(GraphError, match="unknown vertex 'zz'"):
        g.sort_sets([["1"], ["2", "zz"]])
    with pytest.raises(GraphError, match="unknown vertex 'zz'"):
        default_spec(g, [("zz",)])


def test_basic_accessors():
    g = path_graph(["1", "2", "3"])
    assert g.has_edge("1", "2") and not g.has_edge("1", "3")
    assert g.neighbors("2") == {"1", "3"}
    assert g.closed_neighborhood("2") == {"1", "2", "3"}
    assert g.degree("1") == 1
    assert g.complement().has_edge("1", "3")
    assert g.complement().complement().edges == g.edges


def test_subgraph_ops():
    g = cycle_graph(["1", "2", "3", "4", "5"])
    h = g.induce(["1", "2", "4"])
    assert h.vertices == ("1", "2", "4") and h.edges == {frozenset(("1", "2"))}
    assert g.delete_vertices(["5"]).vertices == ("1", "2", "3", "4")


def _old_format_graph(g):
    """format_graph as it was written when graphs kept a frozenset of edges:
    the edge names sorted by vertex position."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    pairs = sorted(sorted(e, key=pos.__getitem__) for e in g.edges)
    pairs.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {u} {v}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def test_derived_graphs_match_fresh_builds():
    """Graphs derived on bitsets equal, hash, list and print like graphs
    built from names, whatever the order and direction of the edges."""
    rng = random.Random(11)
    graphs = seeded_graphs()
    for g, other in zip(graphs, graphs[1:] + graphs[:1]):
        vs = g.vertices
        keep = {v for v in vs if rng.random() < 0.6}
        drop = set(vs) - keep
        centre = rng.choice(vs) if vs else None
        gone = g.closed_neighborhood(centre) if vs else set()
        renamed = Graph([f"{v}'" for v in other.vertices],
                        [(f"{u}'", f"{v}'") for u, v in map(sorted, other.edges)])
        pairs = {frozenset(p) for p in combinations(vs, 2)}
        cases = [(g.induce(keep), {e for e in g.edges if e <= keep}),
                 (g.delete_vertices(drop), {e for e in g.edges if e <= keep}),
                 (g.complement(), pairs - g.edges),
                 (g.disjoint_union(renamed), g.edges | renamed.edges)]
        if vs:
            cases.append((g.delete_vertices(g.closed_neighborhood(centre)),
                          {e for e in g.edges if not e & gone}))
        for h, edges in cases:
            fresh = fresh_copy(h, rng)
            assert h.edges == fresh.edges == edges
            assert h == fresh and hash(h) == hash(fresh)
            assert format_graph(h) == format_graph(fresh) == _old_format_graph(h)
            assert graph_to_dot(h) == graph_to_dot(fresh)
            assert repr(h) == repr(fresh) == (f"Graph({len(h.vertices)} vertices, "
                                              f"{len(edges)} edges)")
        assert g.complement() != g or len(vs) < 2


def test_mis_enumeration_bound():
    """A perfect matching on 2k vertices has 2^k maximal independent sets."""
    k = MIS_ENUMERATION_BOUND.bit_length() - 1
    at_bound = Graph([], [(f"a{i}", f"b{i}") for i in range(k)])
    assert len(at_bound.maximal_independent_sets()) == MIS_ENUMERATION_BOUND
    over = Graph([], [(f"a{i}", f"b{i}") for i in range(k + 1)])
    # a listing over the bound is not kept, so a second call raises too
    for _ in range(2):
        with pytest.raises(ResourceLimit,
                           match="^maximal independent sets exceed the "
                                 f"enumeration bound {MIS_ENUMERATION_BOUND}$"):
            over.maximal_independent_sets()
    assert over._mis is None


def test_mis_listing_is_kept_on_the_graph_only():
    """The first listing is kept and handed out again; a graph derived from
    one that holds its listing starts without one."""
    rng = random.Random(23)
    for g in seeded_graphs():
        assert g._mis is None
        first = g._mis_masks()
        assert g._mis_masks() is first and g._mis is first
        assert g.maximal_independent_sets() == g.maximal_independent_sets()
        keep = [v for v in g.vertices if rng.random() < 0.6]
        renamed = Graph([f"{v}'" for v in g.vertices])
        for h in (g.induce(keep), g.delete_vertices(keep), g.complement(),
                  g.disjoint_union(renamed), fresh_copy(g, rng)):
            assert h._mis is None


def _ref_mis_walk(adj, keep, emit):
    """The walk as generators: the pivot by ``max`` over ``_mask_bits``,
    which keeps the lowest index on a tie, and candidates lowest first."""
    nonadj = [keep & ~(a | 1 << i) for i, a in enumerate(adj)]

    def expand(r, p, x):
        if not p and not x:
            return emit(r)
        pivot = max(_mask_bits(p | x), key=lambda i: (nonadj[i] & p).bit_count())
        for i in _mask_bits(p & ~nonadj[pivot]):
            bit = 1 << i
            if expand(r | bit, p & nonadj[i], x & nonadj[i]):
                return True
            p &= ~bit
            x |= bit
        return False

    return expand(0, keep, 0)


def test_mis_walk_matches_the_generator_reference():
    """The same sets in the same order, on whole graphs of 0-18 vertices and
    on proper vertex subsets, and the same stop when ``emit`` says so."""
    rng = random.Random(41)
    for t in range(190):
        n = t % 19
        g = random_graph(rng, n, rng.uniform(0.05, 0.9))
        full = (1 << n) - 1
        keeps = [full]
        for _ in range(2 if n else 0):
            sub = rng.getrandbits(n)
            keeps.append(sub if sub != full else sub ^ 1 << rng.randrange(n))
        for keep in keeps:
            seqs = []
            for walk in (_mis_walk, _ref_mis_walk):
                out = []
                assert not walk(g._adj, keep, lambda r: out.append(r))
                seqs.append(out)
            assert seqs[0] == seqs[1]
            stop = rng.randint(1, len(seqs[0]))
            cut = []
            for walk in (_mis_walk, _ref_mis_walk):
                out = []
                assert walk(g._adj, keep,
                            lambda r: out.append(r) or len(out) == stop)
                cut.append(out)
            assert cut[0] == cut[1] == seqs[0][:stop]


def test_by_position_matches_the_tuple_key():
    """`_by_position`'s string key sorts masks as the tuples of their
    positions did: on random families over 0-40 and 512 positions, with
    the empty mask, repeats and positions up to 511."""
    rng = random.Random(59)
    for t in range(300):
        n = 512 if t % 10 == 9 else t % 41
        family = [rng.getrandbits(n) & rng.getrandbits(n)
                  for _ in range(rng.randint(0, 80))]
        family += [0, (1 << n) - 1, 1 << max(n - 1, 0)] + family[:5]
        rng.shuffle(family)
        assert _by_position(family) == sorted(family,
                                              key=lambda m: tuple(_mask_bits(m)))


def test_components_and_union():
    g = path_graph(["1", "2"]).disjoint_union(path_graph(["3", "4", "5"]))
    comps = g.components()
    assert sorted(len(c) for c in comps) == [2, 3]
    assert {"1", "2"} in comps


def test_component_and_isolated_masks():
    """The mask helpers on random vertex subsets U, against a search over
    names with ``has_edge``; ``components`` partitions U the same way."""
    rng = random.Random(8)
    for g in seeded_graphs():
        for _ in range(4):
            keep = [v for v in g.vertices if rng.random() < 0.7]
            u = g._to_mask(keep)
            assert g._from_mask(_isolated(g._adj, u)) == \
                {v for v in keep if not any(g.has_edge(v, w) for w in keep)}
            comps = []
            for v in keep:
                comp, todo = {v}, [v]
                while todo:
                    a = todo.pop()
                    new = {b for b in keep if b not in comp and g.has_edge(a, b)}
                    comp |= new
                    todo += new
                assert g._from_mask(_component(g._adj, u, g._require(v))) == comp
                if comp not in comps:
                    comps.append(comp)
            assert g.induce(keep).components() == comps


def test_independent_set_counts_small():
    assert complete_graph(["1", "2", "3"]).independent_set_count() == 4
    assert path_graph(["1", "2", "3"]).independent_set_count() == 5
    assert c6().independent_set_count() == 18


def test_c6_maximal_independent_sets():
    mis = {frozenset(s) for s in c6().maximal_independent_sets()}
    assert mis == {frozenset({"v1", "v3", "v5"}), frozenset({"v2", "v4", "v6"}),
                   frozenset({"v1", "v4"}), frozenset({"v2", "v5"}),
                   frozenset({"v3", "v6"})}


def test_edgeless_and_empty_graph_mis():
    assert Graph([], []).maximal_independent_sets() == [()]
    assert Graph(["a", "b"], []).maximal_independent_sets() == [("a", "b")]


@settings(max_examples=60, deadline=None)
@given(graphs(8))
def test_mis_and_count_match_brute_force(g):
    brute = brute_independent_subsets(g)
    assert g.independent_set_count() == len(brute)
    brute_max = {frozenset(s) for s in brute
                 if not any(set(s) < t for t in brute)}
    assert {frozenset(s) for s in g.maximal_independent_sets()} == brute_max


@settings(max_examples=60, deadline=None)
@given(graphs(8))
def test_cover_bijection(g):
    assert g.minimal_vertex_covers() == g.sort_sets(brute_minimal_covers(g))


def test_chordality_examples():
    ok, peo = path_graph(["1", "2", "3", "4"]).is_chordal()
    assert ok and len(peo) == 4
    ok, cyc = c6().is_chordal()
    assert not ok and len(cyc) == 6


@settings(max_examples=80, deadline=None)
@given(graphs(9))
def test_chordality_matches_brute_force(g):
    verdict, cert = g.is_chordal()
    assert verdict == brute_chordal(g)
    if not verdict:
        h = g.induce(cert)
        assert len(cert) >= 4
        assert all(h.degree(v) == 2 for v in cert)
        assert len(h.components()) == 1
    else:
        # perfect elimination ordering: later neighbors of each vertex clique
        order = list(cert)
        later = {v: set(order[i + 1:]) for i, v in enumerate(order)}
        for v in order:
            assert g.is_clique(g.neighbors(v) & later[v])


@settings(max_examples=40, deadline=None)
@given(graphs(8))
def test_deterministic_orderings(g):
    assert g.maximal_independent_sets() == g.maximal_independent_sets()
    assert g.induce(g.vertices[:4]).vertices == g.vertices[:4]
