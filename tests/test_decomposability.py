"""Vertex decomposability, certificates, shedding, shellability, SCM."""

import hashlib
import random
import time
import tracemalloc
from functools import reduce
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiskers import (Graph, SimplicialComplex, VDCertificate, build_whiskered,
                      complete_graph, cycle_graph, default_spec,
                      edgeless_graph, independence_complex, path_graph,
                      simplex_on, trivial_spec)
from whiskers import decomposability, graph
from whiskers.complexes import ComplexError
from whiskers.decomposability import (ResourceLimit, _flag_graph, _split,
                                      is_scm_via_dual, is_shellable,
                                      is_unmixed, is_vd_brute_force,
                                      is_vd_graph, is_vertex_decomposable,
                                      shedding_vertices, verify_certificate)
from whiskers.fields import GF2, QQ
from whiskers.graph import _by_position
from whiskers.ideals import MonomialIdeal, has_linear_resolution
from whiskers.randinst import random_build, random_complex_facets, random_graph

from conftest import (all_antichains, c6, c6_ears, seeded_complexes,
                      seeded_graphs)


def complexes(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda seed: SimplicialComplex(
                [str(i + 1) for i in range(n)],
                random_complex_facets(random.Random(seed), n)),
            st.integers(0, 10 ** 6)))


def test_simplex_is_vd():
    cert = is_vertex_decomposable(simplex_on("abc"))
    assert cert.decomposable and cert.tree == ("simplex",)


def test_irrelevant_complex_is_vd():
    assert is_vertex_decomposable(SimplicialComplex("a", [()])).decomposable


def test_void_complex_rejected():
    void = SimplicialComplex("a", [])
    for fn, message in (
            (is_vertex_decomposable, "void complex: vertex decomposability undefined"),
            (is_vd_brute_force, "void complex: vertex decomposability undefined"),
            (shedding_vertices, "void complex has no shedding vertices"),
            (is_shellable, "void complex: shellability undefined"),
            (is_scm_via_dual, "void complex: SCM test undefined")):
        with pytest.raises(ComplexError) as err:
            fn(void)
        assert str(err.value) == message, fn.__name__
    # so does the replay, even of the one-leaf tree, which accepts one facet
    with pytest.raises(ComplexError) as err:
        verify_certificate(SimplicialComplex("ab", []),
                           VDCertificate(True, tree=("simplex",)))
    assert str(err.value) == "void complex: vertex decomposability undefined"


def test_c6_not_vd_but_whiskered_is():
    assert not is_vd_graph(c6())
    assert not is_vertex_decomposable(independence_complex(c6())).decomposable
    assert is_vertex_decomposable(independence_complex(c6_ears().graph)).decomposable


def test_refutation_carries_stuck_subcomplex():
    cert = is_vertex_decomposable(independence_complex(c6()))
    assert not cert.decomposable and cert.refutation
    lines = cert.to_lines()
    assert any(line.startswith("stuck") for line in lines)


def test_certificate_replay_rejects_tampering():
    """Replay re-splits the facets at every node.  Ind(P4) has the facets
    ac, ad, bd and the tree shed b (deletion: shed c, link: simplex); (beta)
    fails at a, whose link facet c is a facet of the deletion (bd, c)."""
    c = independence_complex(path_graph(list("abcd")))
    cert = is_vertex_decomposable(c)
    deletion, link = ("shed", "c", ("simplex",), ("simplex",)), ("simplex",)
    assert cert.tree == ("shed", "b", deletion, link)
    assert verify_certificate(c, cert)
    ind_c6 = independence_complex(c6())
    assert not verify_certificate(ind_c6, is_vertex_decomposable(ind_c6))
    assert not verify_certificate(c, VDCertificate(False, refutation=(("a",),)))
    for tree in (("shed", "a", deletion, link),  # (beta) fails at a
                 ("shed", "b", ("simplex",), link),  # a subtree cut short
                 ("shed", "b", link, deletion)):  # children swapped
        assert not verify_certificate(c, VDCertificate(True, tree=tree)), tree
    # a shed vertex in no facet of its node leaves the deletion as it was
    # and a void link, which a "simplex" leaf would accept
    path = SimplicialComplex("abc", ["ab", "bc"])
    real = is_vertex_decomposable(path).tree
    assert real == ("shed", "a", ("simplex",), ("simplex",))
    assert verify_certificate(path, VDCertificate(True, tree=real))
    for ambient, v in (("abc", "zz"), ("abcd", "d")):
        c = SimplicialComplex(ambient, ["ab", "bc"])
        tree = ("shed", v, real, ("simplex",))
        assert not verify_certificate(c, VDCertificate(True, tree=tree)), v


def test_certificate_replay_rejects_malformed_trees():
    """A node that is not ("simplex",) or a 4-tuple ("shed", v, deletion,
    link) replays to False, without an exception."""
    c = independence_complex(path_graph(list("abcd")))
    leaf = ("simplex",)
    for tree in (None, ("shed", "a"), ("leaf",), ("simplex", "a"), [],
                 ["simplex"], ("shed", "b", None, leaf),
                 ("shed", "b", ("shed", "c", leaf, leaf), None),
                 ("shed", "b", ("shed", "c", leaf, leaf), leaf, leaf),
                 ("shed", ["b"], leaf, leaf), ("shed", None, leaf, leaf)):
        assert not verify_certificate(c, VDCertificate(True, tree=tree)), tree
    assert not verify_certificate(c, VDCertificate(True))


def _code_names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def test_replay_calls_neither_search():
    """The replay checks both searches, so it shares no code with them:
    no split, search or walk of this module and nothing defined in graph."""
    own = {name for name, value in vars(graph).items()
           if getattr(value, "__module__", None) == graph.__name__}
    used = _code_names(verify_certificate.__code__)
    assert not used & (own | {"_split", "_split_masks", "_search", "_walk",
                              "_key", "graph"})
    assert "_masks" in used


def test_chordal_graphs_are_vd():
    assert is_vd_graph(path_graph(list("abcde")))
    assert is_vd_graph(complete_graph(list("abcd")))


def test_shedding_vertices_of_whiskered_c6():
    c = independence_complex(c6_ears().graph)
    shed = set(shedding_vertices(c))
    assert {f"v{i}" for i in range(1, 7)} <= shed
    weak = set(shedding_vertices(c, weak=True))
    assert shed <= weak


@settings(max_examples=120, deadline=None)
@given(complexes(7))
def test_vd_matches_brute_force(c):
    cert = is_vertex_decomposable(c)
    assert cert.decomposable == is_vd_brute_force(c)
    if cert.decomposable:
        assert verify_certificate(c, cert)


def _brute_shedding(c):
    """(strong, weak) shedding lists from the label-level split and the
    brute-force oracle on each deletion and link."""
    strong, weak = [], []
    for x in sorted({v for f in c.facets for v in f}, key=str):
        split = _split(c.facets, x)
        if split is None:
            continue
        weak.append(x)
        if all(is_vd_brute_force(SimplicialComplex(c.ambient, part))
               for part in split):
            strong.append(x)
    return strong, weak


def _is_flag(c):
    """Flag on its support: no minimal nonface has more than two vertices
    (the one-vertex ones are the ambient vertices outside the support)."""
    return all(len(m) <= 2 for m in c.minimal_nonfaces())


@settings(max_examples=120, deadline=None)
@given(complexes(7))
def test_shedding_vertices_match_brute_force(c):
    """The search's refuted set answers verdicts by facet set, so the
    shedding lists get their own ground truth.  A flag complex goes to the
    graph engine and any other to the facet search, so the route is checked
    against the minimal nonfaces too."""
    assert (_flag_graph(c) is not None) == _is_flag(c)
    strong, weak = _brute_shedding(c)
    assert shedding_vertices(c) == strong
    assert shedding_vertices(c, weak=True) == weak


def test_independence_complex_carries_its_graph():
    """Ind(G) hands `_flag_graph` G's bitsets, which are what the walk finds
    on the same facets built from names: isolated vertices, edgeless graphs
    and the empty graph included.  Equality and hashing ignore them."""
    rng = random.Random(47)
    cases = seeded_graphs() + [
        Graph(["z"], [("a", "b")]),
        random_graph(rng, 9, 0.4).disjoint_union(edgeless_graph(["i1", "i2"]))]
    for g in cases:
        carried = independence_complex(g)
        named = SimplicialComplex(g.vertices, g.maximal_independent_sets())
        assert carried == named and hash(carried) == hash(named)
        assert _flag_graph(carried) is g._adj
        assert _flag_graph(named) == g._adj
        # a complex derived from Ind(G) walks again
        if g.vertices:
            v = g.vertices[0]
            assert _flag_graph(carried.deletion([v])) == \
                _flag_graph(named.deletion([v]))


def test_non_flag_complexes_take_the_facet_route():
    """The boundary of a triangle is the smallest complex that is not flag;
    with a fourth ambient vertex outside its support it is still not flag,
    while a flag complex with such a vertex goes to the graph engine."""
    triangle = [("a", "b"), ("b", "c"), ("a", "c")]
    cases = [(SimplicialComplex("abc", triangle), False),
             (SimplicialComplex("abcd", triangle), False),
             (SimplicialComplex("abcd", triangle + [("c", "d")]), False),
             (SimplicialComplex("abcde", [("a", "b"), ("b", "c"), ("d",)]), True),
             (SimplicialComplex("abcd", [("a", "b", "c")]), True),
             (SimplicialComplex("ab", [()]), True)]
    for c, flag in cases:
        assert (_flag_graph(c) is not None) == flag == _is_flag(c)
        strong, weak = _brute_shedding(c)
        assert shedding_vertices(c) == strong
        assert shedding_vertices(c, weak=True) == weak
    assert shedding_vertices(cases[0][0]) == ["a", "b", "c"]


def _cone(c, apex):
    return SimplicialComplex(list(c.ambient) + [apex],
                             [set(f) | {apex} for f in c.facets])


_HOLLOW = [("t1", "t2"), ("t2", "t3"), ("t1", "t3")]


def _hollow_join(g):
    """Ind(g) joined with the hollow triangle t1 t2 t3, which is not flag:
    t1 t2 t3 is a minimal nonface of three vertices.  A join is VD exactly
    when both parts are (Provan-Billera), so the verdict is Ind(g)'s."""
    return SimplicialComplex(list(g.vertices) + ["t1", "t2", "t3"],
                             [f | set(e) for f in independence_complex(g).facets
                              for e in _HOLLOW])


def test_cones_share_verdicts_and_shedding():
    """The refuted set keys a cone by its base, so a cone and a double cone
    must give the base's verdict, replayable certificates of their own, and
    the base's shedding lists: the apex never sheds, its deletion is void."""
    rng = random.Random(53)
    cases = []
    for t in range(40):
        n = rng.randint(1, 6 if t % 2 else 11)
        cases.append(SimplicialComplex([str(i + 1) for i in range(n)],
                                       random_complex_facets(rng, n)))
    cases += [independence_complex(random_graph(rng, rng.randint(4, 13),
                                                 rng.uniform(0.25, 0.5)))
              for _ in range(25)]
    verdicts = set()
    for c in cases:
        cone = _cone(c, "apex")
        cones = [cone, _cone(cone, "top")]
        verdict = is_vertex_decomposable(c).decomposable
        if len(c.ambient) <= 6:
            assert verdict == is_vd_brute_force(c)
        strong, weak = shedding_vertices(c), shedding_vertices(c, weak=True)
        for k in cones:
            cert = is_vertex_decomposable(k)
            assert cert.decomposable == verdict
            if verdict:
                assert verify_certificate(k, cert)
            assert shedding_vertices(k) == strong
            assert shedding_vertices(k, weak=True) == weak
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert max(len(c.ambient) for c in cases) >= 10


def test_vd_exhaustive_4_vertices():
    names = ["1", "2", "3", "4"]
    for ac in all_antichains(4):
        facets = [tuple(n for b, n in enumerate(names) if m >> b & 1)
                  for m in ac]
        c = SimplicialComplex(names, facets)
        cert = is_vertex_decomposable(c)
        assert cert.decomposable == is_vd_brute_force(c)


# Two VD graphs that a search refuting a node at a deletion that is not VD
# would refute.  Each has a vertex where (beta) holds with a VD link and a
# deletion that is not VD, and the engine, trying vertices by descending
# degree, meets it before a shedding vertex.  In the seven-vertex graph,
# with shedding vertices v5 and v6, that vertex is v1, which the engine
# tries first at the root.  The nine-vertex graph sheds v5 and v6 too; the
# engine tries v5 (degree 7) first, and in its deletion (beta) holds at v2
# in that way, which comes before the shedding vertex v6 there.
def _seven_vertex_graph():
    edges = "v1v2 v1v5 v1v6 v2v3 v2v5 v3v6 v3v7 v4v6 v5v7"
    return Graph([f"v{i}" for i in range(1, 8)],
                 [(e[:2], e[2:]) for e in edges.split()])


def _nine_vertex_graph():
    edges = ("v1v3 v1v4 v1v5 v1v7 v1v9 v2v3 v2v4 v2v5 v2v6 v2v9 v3v5 v3v6 "
             "v4v5 v4v6 v4v8 v5v6 v5v7 v5v8 v6v7 v8v9")
    return Graph([f"v{i}" for i in range(1, 10)],
                 [(e[:2], e[2:]) for e in edges.split()])


def test_graph_and_complex_vd_agree(monkeypatch):
    """The graph engine against the facet search, which share no code:
    the graphs above and seeded graphs of up to 12 vertices, some with
    isolated vertices and some with three or four components.  Ind(G) is
    flag, so its certificate would come from the graph walk, which shares
    `_witness` with the engine; with no flag graph found, the facet search
    decides it."""
    monkeypatch.setattr(decomposability, "_flag_graph", lambda delta: None)
    rng = random.Random(17)
    cases = [_seven_vertex_graph(), _nine_vertex_graph()]
    cases += [random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.8))
              for _ in range(160)]
    for t in range(60):
        parts = [random_graph(rng, rng.randint(1, 3), rng.uniform(0.3, 0.9),
                              prefix=p) for p in "abcd"[:3 + t % 2]]
        g = parts[0]
        for h in parts[1:]:
            g = g.disjoint_union(h)
        if t % 3 and len(g.vertices) + t % 3 <= 12:
            g = g.disjoint_union(edgeless_graph([f"z{i}" for i in range(t % 3)]))
        cases.append(g)
    verdicts = set()
    for g in cases:
        verdict = is_vd_graph(g)
        assert verdict == \
            is_vertex_decomposable(independence_complex(g)).decomposable
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert max(len(g.vertices) for g in cases) == 12
    assert sum(any(g.degree(v) == 0 for v in g.vertices) for g in cases) >= 40
    assert sum(len(g.components()) >= 3 for g in cases) >= 60


def _with_pendants(g, rng):
    """g with a pendant vertex hung on about a third of its vertices."""
    hung = [v for v in g.vertices if rng.random() < 0.35]
    return Graph(g.vertices + tuple(f"p{v}" for v in hung),
                 [tuple(e) for e in g.edges] + [(v, f"p{v}") for v in hung])


def _simplicial_cover(h):
    """Whether every vertex of h lies in N[s] for a simplicial vertex s,
    by names; and h's simplicial vertices."""
    simplicial = {v for v in h.vertices if h.is_clique(h.neighbors(v))}
    covered = set().union(*(h.closed_neighborhood(s) for s in simplicial))
    return covered == set(h.vertices), simplicial


def test_every_recorded_split_is_valid():
    """Each split in the engine's memo against the references `_split` and
    `is_vd_brute_force`, on the graphs above, seeded graphs of up to 10
    vertices, the same with pendant vertices, and pi, cc, mc and md builds,
    the md ones whole and without their base vertices.  At a shed vertex x,
    (beta) holds on Ind(G[u]) and the deletion and link are VD; a split of
    several vertices is a union of components of G[u], so no edge of G[u]
    crosses it; and a node recorded 0 is not VD.  Where every vertex of
    G[u] lies in N[s] for a simplicial s, the split is a neighbour of a
    simplicial vertex, as the simplicial-cover rule records."""
    rng = random.Random(29)
    cases = [_seven_vertex_graph(), _nine_vertex_graph()]
    cases += [random_graph(rng, rng.randint(2, 10), rng.uniform(0.15, 0.7))
              for _ in range(80)]
    builds = [random_build(rng, "md", 6, 12) for _ in range(20)]
    cases += [w.graph for w in builds]
    cases += [w.graph.delete_vertices(w.base.vertices) for w in builds]
    cases += [random_build(rng, kind, 6, 12).graph
              for kind in ("pi", "cc", "mc", "md") * 5]
    cases += [_with_pendants(random_graph(rng, rng.randint(3, 7),
                                          rng.uniform(0.2, 0.7)), rng)
              for _ in range(40)]
    c5 = cycle_graph([f"c{i}" for i in range(5)])  # VD, nothing simplicial
    cases += [c5.disjoint_union(random_graph(rng, rng.randint(4, 7),
                                             rng.uniform(0.3, 0.8)))
              for _ in range(30)]
    brute = {}

    def vd(facets):
        key = frozenset(map(frozenset, facets))
        if key not in brute:
            brute[key] = is_vd_brute_force(SimplicialComplex(
                sorted(set().union(*key)), key))
        return brute[key]

    sheds = products = refuted = covers = 0
    for g in cases:
        memo = graph._Memo()
        graph._vd(g._adj, (1 << len(g.vertices)) - 1, memo)
        for u, split in memo.items():
            h = g._induce_mask(u)
            cover, simplicial = _simplicial_cover(h)
            if cover:
                assert split and split & (split - 1) == 0
                assert h.neighbors(g.vertices[split.bit_length() - 1]) & simplicial
                covers += 1
            if not split:
                assert not vd(independence_complex(h).facets)
                refuted += 1
            elif split & (split - 1):
                assert split & ~u == 0 and split != u
                part = g._from_mask(split)
                assert all((a in part) == (b in part) for a, b in h.edges)
                products += 1
            else:
                facets = frozenset(independence_complex(h).facets)
                parts = _split(facets, g.vertices[split.bit_length() - 1])
                assert parts is not None
                assert vd(parts[0]) and vd(parts[1])
                sheds += 1
    assert sheds >= 400 and products >= 40 and refuted >= 40 and covers >= 350


def test_vd_graph_matches_the_walk():
    """`is_vd_graph` against the graph walk of `is_vertex_decomposable`,
    which never calls `_vd`: seeded pi, cc, mc and md builds of up to 16
    vertices, and seeded graphs with pendant vertices, most of which the
    simplicial-cover rule cannot decide at the root.  Some of those lie
    beside C4, C6, C7 or C8, so they have a simplicial vertex and are not
    VD."""
    rng = random.Random("simplicial-cover")
    builds = [random_build(rng, kind, 8, 16).graph
              for kind in ("pi", "cc", "mc", "md") * 15]
    pendants = [_with_pendants(random_graph(rng, rng.randint(4, 10),
                                            rng.uniform(0.2, 0.6)), rng)
                for _ in range(80)]
    pendants += [cycle_graph([f"c{i}" for i in range(n)]).disjoint_union(
                     _with_pendants(random_graph(rng, rng.randint(2, 5), 0.5),
                                    rng))
                 for n in (4, 6, 7, 8) * 5]
    undecided = []
    for g in builds + pendants:
        verdict = is_vd_graph(g)
        assert verdict == \
            is_vertex_decomposable(independence_complex(g)).decomposable
        if not _simplicial_cover(g)[0]:
            undecided.append((verdict, any(g.degree(v) == 1 for v in g.vertices)))
    assert max(len(g.vertices) for g in builds) == 16
    assert len(undecided) >= 80
    assert undecided.count((True, True)) >= 40
    assert undecided.count((False, True)) >= 15


def test_flag_shedding_matches_label_reference():
    """Strong and weak shedding lists of seeded independence complexes,
    which are flag and so go to the graph engine, against the label-level
    reference search below and its (beta) test, and the graphs above."""
    rng = random.Random(19)
    memo = {}
    cases = [_seven_vertex_graph(), _nine_vertex_graph()]
    for t in range(80):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.15, 0.7))
        if t % 4 == 0:
            g = g.disjoint_union(edgeless_graph(["z"]))
        cases.append(g)
    for g in cases:
        c = independence_complex(g)
        assert _flag_graph(c) is not None
        facets = frozenset(c.facets)
        weak = [x for x in sorted({v for f in facets for v in f})
                if _ref_split(facets, x)[2]]
        assert shedding_vertices(c) == _ref_shedding(c, memo)
        assert shedding_vertices(c, weak=True) == weak


def _recorded_memos(monkeypatch):
    """The `_Memo`s that `decomposability` makes from now on."""
    memos = []

    class Recorded(graph._Memo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(decomposability, "_Memo", Recorded)
    return memos


def test_shedding_on_large_pi_builds(monkeypatch):
    """Every base vertex of a pi build sheds (Woodroofe 2009, Lemma 6) and
    no whisker vertex satisfies (beta).  Through the facet search, weak
    mode took about 6 s on C18 and strong mode about 16 s.  The work is
    pinned too, as a clock alone is loose and slows under a tracer: weak
    mode takes one `_witness` unit a vertex, and strong mode adds one
    engine node for the whole graph and one for each base vertex's
    deletion, which the simplicial-cover rule decides.  Searching them
    took 563 and 688 units of work on C18 and C20."""
    memos = _recorded_memos(monkeypatch)
    for n in (18, 20):
        g = cycle_graph([f"v{i}" for i in range(n)])
        c = independence_complex(build_whiskered(g, trivial_spec(g), "pi").graph)
        start = time.process_time()
        strong, weak = shedding_vertices(c), shedding_vertices(c, weak=True)
        assert time.process_time() - start < 3
        assert strong == weak == sorted(g.vertices)
        assert [m.work for m in memos] == [3 * n + 1, 2 * n]
        assert len(memos[0]) == n + 1 and not memos[1]
        memos.clear()


def test_pi_builds_take_one_engine_node():
    """Each whisker of a pi build is simplicial, and its closed neighbourhood
    holds its clique, so the simplicial-cover rule decides the build at the
    root.  The engine searched 54, 102 and 134 nodes on the whiskered C10,
    C16 and C20 without it.  The split is the lowest base vertex, the
    lowest neighbour of the first whisker."""
    for n in (10, 16, 20):
        g = cycle_graph([f"v{i}" for i in range(n)])
        w = build_whiskered(g, trivial_spec(g), "pi")
        memo = graph._Memo()
        assert graph._vd(w.graph._adj, (1 << 2 * n) - 1, memo) == 1
        assert memo.work == 1 and memo == {(1 << 2 * n) - 1: 1}


def test_vd_graph_node_budget(monkeypatch):
    """The engine's work is bounded by VD_GRAPH_NODE_BOUND, with a one-line
    message that names the bound.  C10 has no simplicial vertex, so the
    simplicial-cover rule never decides it: the engine refutes it in 21
    units of work."""
    g = cycle_graph([f"v{i}" for i in range(10)])
    memo = graph._Memo()
    assert not graph._vd(g._adj, (1 << 10) - 1, memo) and memo.work == 21
    monkeypatch.setattr(graph, "VD_GRAPH_NODE_BOUND", 10)
    message = "^11 graph VD nodes exceeds the graph VD node bound 10$"
    with pytest.raises(ResourceLimit, match=message):
        is_vd_graph(g)
    with pytest.raises(ResourceLimit, match=message):
        shedding_vertices(independence_complex(g))


def _k_n_and_two_edges(n):
    """The 1-skeleton of K_n beside two disjoint edges: not flag, and not
    VD, since its edges do not form one connected graph (Bjorner-Wachs
    1996).  The facet search refutes about 2^n subcomplexes on it."""
    ks = [f"k{i}" for i in range(n)]
    return SimplicialComplex(ks + ["a1", "a2", "b1", "b2"],
                             list(combinations(ks, 2))
                             + [("a1", "a2"), ("b1", "b2")])


def test_facet_search_refutation_budget(monkeypatch):
    """The facet search refutes at most VD_REFUTATION_BOUND subcomplexes,
    with a one-line message that names the bound, for certificates and for
    the non-flag route of shedding lists alike."""
    small = _k_n_and_two_edges(8)
    assert not is_vertex_decomposable(small).decomposable
    bound = decomposability.VD_REFUTATION_BOUND
    message = (f"^{bound + 1} refuted subcomplexes exceeds the VD search "
               f"refutation bound {bound}$")
    with pytest.raises(ResourceLimit, match=message):
        is_vertex_decomposable(_k_n_and_two_edges(13))
    monkeypatch.setattr(decomposability, "VD_REFUTATION_BOUND", 10)
    message = ("^11 refuted subcomplexes exceeds the VD search "
               "refutation bound 10$")
    with pytest.raises(ResourceLimit, match=message):
        is_vertex_decomposable(small)
    with pytest.raises(ResourceLimit, match=message):
        shedding_vertices(small)


def _g7():
    """Ind of a 7-vertex graph: a 4-cycle beside a path, with h-triangle
    (1, 5, 0), so only a search refutes it."""
    edges = ("1-2 1-3 1-4 1-7 2-4 2-5 2-6 3-4 3-5 3-6 3-7 4-7 5-6 5-7 "
             "6-7").split()
    return independence_complex(Graph([], [tuple(e.split("-")) for e in edges]))


def test_graph_walk_budgets(monkeypatch):
    """The graph walk refutes Ind(g7) at 27 subcomplexes, which count
    against VD_REFUTATION_BOUND with the facet search's message.  Its
    (beta) tests take 139 witness units in all, at most 7 at one node: each
    node has a memo of its own, so VD_GRAPH_NODE_BOUND bounds one node."""
    g7 = _g7()
    lines = is_vertex_decomposable(g7).to_lines()
    assert lines[0] == "stuck"
    monkeypatch.setattr(decomposability, "VD_REFUTATION_BOUND", 27)
    assert is_vertex_decomposable(g7).to_lines() == lines
    monkeypatch.setattr(decomposability, "VD_REFUTATION_BOUND", 26)
    with pytest.raises(ResourceLimit, match="^27 refuted subcomplexes exceeds "
                       "the VD search refutation bound 26$"):
        is_vertex_decomposable(g7)
    monkeypatch.undo()
    monkeypatch.setattr(graph, "VD_GRAPH_NODE_BOUND", 7)
    assert is_vertex_decomposable(g7).to_lines() == lines
    monkeypatch.setattr(graph, "VD_GRAPH_NODE_BOUND", 6)
    with pytest.raises(ResourceLimit, match="^7 graph VD nodes exceeds the "
                       "graph VD node bound 6$"):
        is_vertex_decomposable(g7)


def _calls(monkeypatch, name):
    """A counter of the calls to the search ``name`` of `decomposability`."""
    calls = [0]
    search = getattr(decomposability, name)

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(decomposability, name, counted)
    return calls


def test_trial_rule_call_counts(monkeypatch):
    """Both searches skip a trial vertex whose refuted deletion they have
    met, and search the link before the deletion.  On Ind(G) of 100 seeded
    random graphs of 18-24 vertices the walk makes 4,247 calls, and the
    facet search 6,120 on the hollow joins of the first 40.  Deletion-first
    made 14,532 and 32,411 calls, and link-first without the skip 6,285 and
    11,626.  The K_n beside two edges family favours deletion-first: on K_10
    the facet search makes 10,201 calls, deletion-first 5,021, and
    link-first without the skip 45,901."""
    rng = random.Random("trial-rule")
    graphs = [random_graph(rng, rng.randint(18, 24), rng.uniform(0.2, 0.5))
              for _ in range(100)]
    walk = _calls(monkeypatch, "_walk")
    verdicts = [is_vertex_decomposable(independence_complex(g)).decomposable
                for g in graphs]
    assert verdicts.count(True) == 7 and walk[0] <= 4247
    search = _calls(monkeypatch, "_search")
    for g in graphs[:40]:
        is_vertex_decomposable(_hollow_join(g))
    assert search[0] <= 6120
    search[0] = 0
    assert not is_vertex_decomposable(_k_n_and_two_edges(10)).decomposable
    assert search[0] <= 10201


def test_shedding_rule_call_counts(monkeypatch):
    """Strong shedding lists off the graph route follow its rule: the facet
    search decides the whole complex once, then only each deletion where
    (beta) holds, and never a link.  On the hollow joins of 40 seeded
    random graphs of 6-12 vertices, 34 of them VD, that takes 8,485
    `_search` calls; searching each such vertex's deletion and link took
    12,917."""
    rng = random.Random("shedding-rule")
    cases = [_hollow_join(random_graph(rng, rng.randint(6, 12),
                                       rng.uniform(0.2, 0.5)))
             for _ in range(40)]
    verdicts = [is_vertex_decomposable(c).decomposable for c in cases]
    assert verdicts.count(True) == 34
    search, top, depth, calls = decomposability._search, [], [0], [0]

    def traced(facets, order, refuted):
        calls[0] += 1
        if not depth[0]:
            top.append(list(facets))
        depth[0] += 1
        try:
            return search(facets, order, refuted)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(decomposability, "_search", traced)
    for c, verdict in zip(cases, verdicts):
        top.clear()
        assert bool(shedding_vertices(c)) == verdict
        splits = (decomposability._split_masks(c._masks, x)
                  for x in decomposability._top_order(c))
        deletions = [split[0] for split in splits if split] if verdict else []
        assert top == [list(c._masks)] + deletions
    assert calls[0] <= 8485


def test_shedding_makes_no_search_without_beta(monkeypatch):
    """Strong shedding lists decide the whole complex at the first vertex
    where (beta) holds, so where none does no search runs, on either
    route: the non-flag complex 1246 / 135 / 236 and Ind(C4), two disjoint
    edges."""
    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(decomposability, "_search", no_search)
    monkeypatch.setattr(decomposability, "_vd", no_search)
    hollow = SimplicialComplex("123456", ["1246", "135", "236"])
    c4 = SimplicialComplex("abcd", ["ac", "bd"])
    assert _flag_graph(hollow) is None and _flag_graph(c4) is not None
    for c in (hollow, c4):
        assert shedding_vertices(c) == shedding_vertices(c, weak=True) == []


def _renamed(g, rng):
    """g with its vertices in a shuffled position order under fresh names,
    so neither the position order nor the old names fix the string order."""
    names = dict(zip(g.vertices, (f"r{k}" for k in rng.sample(range(1000), len(g)))))
    order = list(g.vertices)
    rng.shuffle(order)
    return Graph([names[v] for v in order],
                 [(names[a], names[b]) for a, b in map(tuple, g.edges)])


def _walk_cases():
    """Seeded random graphs of 1-15 vertices, pi/cc/mc/md builds and
    whiskered cycles C3-C16 with trivial and ear specs, all renamed."""
    rng = random.Random("graph-walk")
    graphs = [random_graph(rng, 1 + t % 15, rng.uniform(0.15, 0.6))
              for t in range(150)]
    graphs += [random_build(rng, kind, max_base=8, max_total=16).graph
               for kind in ("pi", "cc", "mc", "md") * 5]
    for n in range(3, 17):
        g = cycle_graph([f"v{i}" for i in range(n)])
        vs = g.vertices
        for spec in (trivial_spec(g),
                     default_spec(g, [vs[i:i + 2] for i in range(0, n, 2)])):
            graphs.append(build_whiskered(g, spec, "pi").graph)
    return [independence_complex(_renamed(g, rng)) for g in graphs]


def test_graph_walk_matches_facet_search(monkeypatch):
    """The walk on vertex masks gives the facet search's tree on every flag
    complex, and `is_vertex_decomposable` never reaches the facet search on
    one: its text is the text that the facet search gives when no flag
    graph is found."""
    cases = _walk_cases()
    verdicts = set()
    for c in cases:
        order = decomposability._top_order(c)
        tree = decomposability._search(c._masks, order, set())
        assert tree == decomposability._walk(
            _flag_graph(c), reduce(int.__or__, c._masks), order, set())
        verdicts.add(tree is not None)
    assert verdicts == {True, False}
    with monkeypatch.context() as m:
        m.setattr(decomposability, "_flag_graph", lambda delta: None)
        expected = [is_vertex_decomposable(c).to_lines() for c in cases]

    def no_search(*args):
        raise AssertionError("the facet search ran")

    monkeypatch.setattr(decomposability, "_search", no_search)
    assert [is_vertex_decomposable(c).to_lines() for c in cases] == expected


# -- the h-triangle check ------------------------------------------------------

def _ref_h_triangle(c):
    """The h-triangle from every subset of the support, each face with its
    largest facet, and the polynomial identity sum_j h_{i,j} x^(i-j) =
    sum_k f_{i,k} (x - 1)^(i-k) (Bjorner-Wachs 1996), expanded by repeated
    multiplication: no binomial and no sign rule is shared with the code."""
    facets = c.facets
    support = sorted({v for f in facets for v in f})
    f_rows = {}
    for m in range(1 << len(support)):
        face = {support[b] for b in range(len(support)) if m >> b & 1}
        degree = max((len(f) for f in facets if face <= f), default=None)
        if degree is not None:
            f_rows.setdefault(degree, [0] * (degree + 1))[len(face)] += 1
    rows = {}
    for i, f in f_rows.items():
        poly = [0] * (i + 1)  # poly[e] is the coefficient of x^e
        for k in range(i + 1):
            power = [1]
            for _ in range(i - k):  # times (x - 1)
                power = [(power[e - 1] if e else 0) - (power[e] if e < len(power) else 0)
                         for e in range(len(power) + 1)]
            for e, a in enumerate(power):
                poly[e] += f[k] * a
        rows[i] = [poly[i - j] for j in range(i + 1)]
    return rows


def _h_cases():
    """Every antichain on at most 4 vertices, seeded random complexes on
    1-9 vertices, and Ind of seeded graphs and builds of up to 12 vertices."""
    cases = []
    for n in range(1, 5):
        names = [str(i) for i in range(n)]
        cases += [SimplicialComplex(names, [[names[b] for b in range(n) if m >> b & 1]
                                            for m in ac])
                  for ac in all_antichains(n)]
    rng = random.Random("h-triangle")
    for t in range(600):
        names = [str(i + 1) for i in range(t % 9 + 1)]
        cases.append(SimplicialComplex(names, random_complex_facets(rng, len(names))))
    cases += [independence_complex(random_graph(rng, rng.randint(1, 12), 0.35))
              for _ in range(30)]
    cases += [independence_complex(random_build(rng, kind, max_base=6, max_total=12).graph)
              for kind in ("pi", "cc", "mc", "md") * 5]
    return cases


def test_h_triangle_matches_the_face_sweep():
    """Rows come largest facet size first, one per size that has a facet,
    and equal the reference on every antichain of at most 4 vertices, on
    seeded random complexes and on Ind of seeded builds and graphs."""
    nonpure = 0
    for c in _h_cases():
        rows = list(decomposability._h_triangle(c._masks))
        sizes = [i for i, _ in rows]
        assert sizes == sorted({m.bit_count() for m in c._masks}, reverse=True)
        assert dict(rows) == _ref_h_triangle(c), c.facet_tuples()
        nonpure += len(sizes) > 1
    assert nonpure > 100


def test_h_triangle_counts_the_restrictions_of_a_shelling():
    """On a shellable complex h_{i,j} counts the facets of size i whose
    restriction, the vertices v with F - v in an earlier facet, has size j
    (Bjorner-Wachs 1996, Thm 3.4), pure or not."""
    shelled = nonpure = 0
    for c in _h_cases():
        if len(c._masks) > 8:
            continue
        order = is_shellable(c)
        if order is None:
            continue
        shelled += 1
        counts = {}
        for k, f in enumerate(map(set, order)):
            r = [v for v in f if any(f - {v} <= set(e) for e in order[:k])]
            counts[len(f), len(r)] = counts.get((len(f), len(r)), 0) + 1
        rows = dict(decomposability._h_triangle(c._masks))
        nonpure += len(rows) > 1
        assert {(i, j): h for i, row in rows.items()
                for j, h in enumerate(row) if h} == counts, order
    assert shelled > 300 and nonpure > 100


def test_h_triangle_never_refutes_a_vd_complex():
    """A negative entry holds only where the brute-force oracle finds no
    decomposition, and it refutes most of the complexes that are not VD."""
    refuted = not_vd = 0
    for c in _h_cases():
        if len(c.ambient) > 9:
            continue
        negative = any(min(row) < 0 for _, row in
                       decomposability._h_triangle(c._masks))
        vd = is_vd_brute_force(c)
        assert not (negative and vd), c.facet_tuples()
        refuted += negative
        not_vd += not vd
    assert refuted > not_vd // 2 > 0


def test_h_triangle_refutes_before_the_search(monkeypatch):
    """Ind(C4) and Ind(C6) have negative entries (h_{2,2} = -1 and
    h_{3,2} = -3), so they are refuted without a search and list their
    facets as the search would.  A 7-vertex graph whose Ind is a 4-cycle
    beside a path, six edges in all, has h = (1, 5, 0): it is not VD, and
    only a search can say so.  These complexes are flag, so that search is
    the graph walk; neither it nor the facet search may run on the others."""
    def no_search(*args):
        raise AssertionError("the facet search ran")

    def no_walk(*args):
        raise AssertionError("the graph walk ran")

    monkeypatch.setattr(decomposability, "_search", no_search)
    monkeypatch.setattr(decomposability, "_walk", no_walk)
    c4 = independence_complex(cycle_graph(["a", "b", "c", "d"]))
    assert dict(decomposability._h_triangle(c4._masks)) == {2: [1, 2, -1]}
    assert is_vertex_decomposable(c4).to_lines() == [
        "stuck", "  facet a c", "  facet b d"]
    c6_ind = independence_complex(c6())
    assert dict(decomposability._h_triangle(c6_ind._masks))[3] == [1, 3, -3, 1]
    assert is_vertex_decomposable(c6_ind).to_lines() == [
        "stuck", "  facet v1 v3 v5", "  facet v1 v4", "  facet v2 v4 v6",
        "  facet v2 v5", "  facet v3 v6"]
    g7 = _g7()
    assert dict(decomposability._h_triangle(g7._masks)) == {2: [1, 5, 0]}
    with pytest.raises(AssertionError, match="the graph walk ran"):
        is_vertex_decomposable(g7)
    monkeypatch.undo()
    assert is_vertex_decomposable(g7).to_lines() == [
        "stuck", "  facet 1 5", "  facet 1 6", "  facet 2 3", "  facet 2 7",
        "  facet 4 5", "  facet 4 6"]


def test_h_triangle_check_changes_no_output(monkeypatch):
    """With the check switched off by a zero bound, every complex gets the
    same certificate or refutation text from the search alone."""
    cases = _h_cases()
    with_check = [is_vertex_decomposable(c).to_lines() for c in cases]
    monkeypatch.setattr(decomposability, "H_TRIANGLE_BOUND", 0)
    assert [is_vertex_decomposable(c).to_lines() for c in cases] == with_check


def test_h_triangle_bound(monkeypatch):
    """Past H_TRIANGLE_BOUND (a sum of 2^|F| over the facets) the check is
    skipped, and the search refutes two disjoint 20-vertex facets at once.
    The K_n + two edges inputs of the refutation budget test keep h_{2,2} =
    C(n, 2) - n - 1 >= 0, so the check lets them through to the search."""
    for n in (8, 13):
        rows = dict(decomposability._h_triangle(_k_n_and_two_edges(n)._masks))
        assert rows == {2: [1, n + 2, comb(n, 2) - n - 1]}

    def no_walk(facets):
        raise AssertionError("the h-triangle walk ran")

    monkeypatch.setattr(decomposability, "_h_triangle", no_walk)
    two = SimplicialComplex([f"a{i}" for i in range(20)] + [f"b{i}" for i in range(20)],
                            [[f"a{i}" for i in range(20)], [f"b{i}" for i in range(20)]])
    start = time.process_time()
    cert = is_vertex_decomposable(two)
    assert time.process_time() - start < 1
    assert not cert.decomposable and len(cert.refutation) == 2


def test_vd_respects_components():
    rng = random.Random(23)
    for _ in range(30):
        g1 = random_graph(rng, rng.randint(1, 5), 0.5, prefix="u")
        g2 = random_graph(rng, rng.randint(1, 5), 0.5, prefix="w")
        assert is_vd_graph(g1.disjoint_union(g2)) == \
            (is_vd_graph(g1) and is_vd_graph(g2))


def test_vd_implies_shellable():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 7)
        c = SimplicialComplex([str(i + 1) for i in range(n)],
                              random_complex_facets(rng, n))
        if is_vertex_decomposable(c).decomposable:
            order = is_shellable(c)
            assert order is not None
            # replay the shelling condition on the returned order
            for j in range(1, len(order)):
                fj = set(order[j])
                for fi in (set(f) for f in order[:j]):
                    assert any(len(fj - set(fk)) == 1 and fj - set(fk) <= fj - fi
                               for fk in order[:j])


def _is_shelling(order):
    """The definition (Bjorner-Wachs 1996): each facet after the first
    meets the complex of the earlier ones in a pure complex one dimension
    lower, so every maximal intersection with an earlier facet misses
    exactly one of its vertices."""
    for j in range(1, len(order)):
        meets = [order[j] & f for f in order[:j]]
        if any(len(order[j] - m) != 1 for m in meets
               if not any(m < u for u in meets)):
            return False
    return True


def test_shellable_verdict_matches_every_order():
    """On every complex of at most 4 vertices, so at most 6 facets, among
    the seeded complexes, which hold every antichain, is_shellable returns
    None exactly when no order of the facets is a shelling by the
    definition, and otherwise an order of the facets that is one.  Ind(C4),
    two disjoint edges, has none."""
    c4 = independence_complex(cycle_graph(["a", "b", "c", "d"]))
    cases = [c for c in seeded_complexes()
             if len(c.ambient) <= 4 and not c.is_void] + [c4]
    verdicts = {True: 0, False: 0}
    for c in cases:
        order = is_shellable(c)
        exists = any(_is_shelling(p) for p in permutations(c.facets))
        assert (order is not None) == exists, c.facet_tuples()
        if order is not None:
            assert sorted(order) == sorted(c.facet_tuples())
            assert _is_shelling([frozenset(f) for f in order]), order
        verdicts[exists] += 1
    assert is_shellable(c4) is None
    assert verdicts == {True: 381, False: 4}


def _shelling_by_names(c, bound):
    """A backtracking over facets as frozensets of names, trying them in
    the order of c.facets and each set of placed facets once: its first
    order, None, or the text of its refusal past ``bound`` facets."""
    facets = list(c.facets)
    t = len(facets)
    if t > bound:
        return f"{t} facets exceeds the shelling bound {bound}"
    seen = set()

    def extends(chosen, j):
        fj = facets[j]
        ones = [k for k in chosen if len(fj - facets[k]) == 1]
        return all(any(fj - facets[k] <= fj - facets[i] for k in ones)
                   for i in chosen)

    def search(order):
        if len(order) == t:
            return order
        if frozenset(order) in seen:
            return None
        seen.add(frozenset(order))
        for j in range(t):
            if j not in order and extends(order, j):
                hit = search(order + (j,))
                if hit is not None:
                    return hit
        return None

    hit = search(())
    return None if hit is None else [c.facet_tuples()[j] for j in hit]


def test_shellable_matches_the_name_level_search():
    """The same first order, the same None and the same refusal as a
    backtracking on names, on every antichain of at most 5 vertices and on
    seeded random complexes and Ind of seeded builds."""
    bound = decomposability.DEFAULT_SHELLING_FACET_BOUND
    seen = {"order": 0, "none": 0, "refused": 0}
    for c in (c for c in seeded_complexes() if not c.is_void):
        try:
            got = is_shellable(c)
        except ResourceLimit as err:
            got = str(err)
        assert got == _shelling_by_names(c, bound), c.facet_tuples()
        seen["order" if isinstance(got, list) else
             "none" if got is None else "refused"] += 1
    assert seen == {"order": 7511, "none": 694, "refused": 9}


def test_shelling_resource_limit(monkeypatch):
    g = random_graph(random.Random(1), 10, 0.2)
    c = independence_complex(g)
    assert len(c.facets) == 10
    monkeypatch.setattr(decomposability, "DEFAULT_SHELLING_FACET_BOUND", 3)
    with pytest.raises(ResourceLimit, match="^10 facets exceeds the shelling bound 3$"):
        is_shellable(c)


def test_unmixed():
    assert is_unmixed(c6_ears().graph)
    assert not is_unmixed(path_graph(list("abc")))


def test_scm_examples():
    # VD complexes are sequentially Cohen-Macaulay
    assert is_scm_via_dual(independence_complex(c6_ears().graph))
    assert is_scm_via_dual(independence_complex(path_graph(list("abcd"))))
    # Ind(C6) itself is not SCM over Q or F2
    assert not is_scm_via_dual(independence_complex(c6()), QQ)
    assert not is_scm_via_dual(independence_complex(c6()), GF2)


def test_scm_bounds_are_the_face_set_and_the_oracle():
    """A simplex is SCM at any size, before its faces are listed: the
    20-simplex has 2^20 faces, past FACE_ENUMERATION_BOUND.  Past the
    oracle's 16 variables every other complex is refused, by the face set
    when it is too large, else by the oracle at the first component."""
    names = [f"x{i}" for i in range(20)]
    assert is_scm_via_dual(SimplicialComplex(names, [names]))
    assert is_scm_via_dual(SimplicialComplex(names, [names]), QQ)
    with pytest.raises(ResourceLimit, match="^faces exceed the face "
                       "enumeration bound 262144$"):
        is_scm_via_dual(SimplicialComplex(names, [names[:19], names[19:]]))
    seventeen = SimplicialComplex(names[:17], [("x0", "x1"), ("x2",)])
    for k in (GF2, QQ):
        with pytest.raises(ResourceLimit, match="^ambient size 17 exceeds "
                           "the oracle bound 16$"):
            is_scm_via_dual(seventeen, k)


def test_scm_of_builds_of_15_and_16_vertices():
    """Ind of seeded pi/cc/mc/md builds of 15 and 16 vertices is SCM over
    F2 and QQ, as the paper claims, and a replayed VD certificate backs
    each verdict.  Ind(C6 + P9) and Ind(C6 + P10), of 15 and 16 vertices,
    are not SCM: a join is SCM only when both parts are, and Ind(C6) is
    not."""
    rng = random.Random("scm-15-16")
    for kind in ("pi", "cc", "mc", "md"):
        for size in (15, 16, 15, 16):
            w = random_build(rng, kind, max_base=8, max_total=size)
            while len(w.graph) != size:
                w = random_build(rng, kind, max_base=8, max_total=size)
            c = independence_complex(w.graph)
            assert is_scm_via_dual(c, GF2) and is_scm_via_dual(c, QQ)
            cert = is_vertex_decomposable(c)
            assert cert.decomposable and verify_certificate(c, cert)
    for k in (9, 10):
        g = c6().disjoint_union(path_graph([f"p{i}" for i in range(k)]))
        c = independence_complex(g)
        assert len(c.ambient) == 6 + k
        assert not is_scm_via_dual(c, GF2)
        assert not is_scm_via_dual(c, QQ)


def _ref_scm_components(delta):
    """{e: the squarefree degree-e monomials of the dual's facet ideal}, for
    each generator degree e, by padding each generator with every choice of
    e - |g| further vertices: the route that the filter of the face set by
    size replaced, kept as ground truth."""
    n = len(delta.ambient)
    full = (1 << n) - 1
    dual = [full ^ m for m in delta._masks]
    out = {}
    for e in sorted({g.bit_count() for g in dual}):
        gens_e = set()
        for g in dual:
            if g.bit_count() <= e:
                room = [1 << i for i in range(n) if not g >> i & 1]
                gens_e.update(g | sum(extra) for extra
                              in combinations(room, e - g.bit_count()))
        out[e] = _by_position(gens_e)
    return out


def _ref_is_scm_via_dual(delta, k):
    full = (1 << len(delta.ambient)) - 1
    if full in delta._masks:  # a simplex: the dual ideal is the unit ideal
        return True
    return all(has_linear_resolution(MonomialIdeal._from_masks(delta.ambient, gens), k)
               for gens in _ref_scm_components(delta).values())


def test_scm_matches_the_padding_sweep():
    """The degree-e component is the complements of the (n - e)-faces, and
    the verdict over F2 and QQ equals the padding sweep's: every antichain
    on at most 5 vertices, seeded random complexes and Ind of seeded
    builds."""
    seen = set()
    for c in seeded_complexes():
        if c.is_void:
            continue
        n = len(c.ambient)
        full = (1 << n) - 1
        faces = c._face_masks()
        for e, gens in _ref_scm_components(c).items():
            assert gens == _by_position(full ^ f for f in faces
                                        if f.bit_count() == n - e)
        for k in (GF2, QQ):
            verdict = is_scm_via_dual(c, k)
            assert verdict == _ref_is_scm_via_dual(c, k), c.facet_tuples()
            seen.add(verdict)
    assert seen == {True, False}


def test_scm_matches_the_padding_sweep_on_15_vertices():
    """On 15 vertices, past the seeded complexes above, the verdict over F2
    and QQ equals the padding sweep's: Ind of seeded random graphs and
    seeded random facets of 1-5 vertices."""
    rng = random.Random("scm-15")
    names = [f"x{i}" for i in range(15)]
    cases = [independence_complex(random_graph(rng, 15, rng.uniform(0.2, 0.5)))
             for _ in range(20)]
    cases += [SimplicialComplex(names, [rng.sample(names, rng.randint(1, 5))
                                        for _ in range(rng.randint(2, 8))])
              for _ in range(10)]
    seen = set()
    for c in cases:
        assert len(c.ambient) == 15
        for k in (GF2, QQ):
            verdict = is_scm_via_dual(c, k)
            assert verdict == _ref_is_scm_via_dual(c, k), c.facet_tuples()
            seen.add(verdict)
    assert seen == {True, False}


def test_vd_memo_is_released_after_each_call():
    """The graph engine's memo and the searches' refuted sets live for one
    top-level call, so a long-lived process keeps none of them once the
    calls return.  Flag complexes take the graph walk for certificates and
    the engine for shedding lists, and the hollow joins, which are not
    flag, take the facet search for both."""
    rng = random.Random(12)
    cases = [independence_complex(random_graph(rng, rng.randint(12, 15), 0.35))
             for _ in range(60)]
    cases += [_hollow_join(random_graph(rng, rng.randint(9, 12), 0.35))
              for _ in range(20)]
    tracemalloc.start()
    try:
        for c in cases:
            is_vertex_decomposable(c)
            shedding_vertices(c)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 500_000


def test_scm_on_random_builds():
    rng = random.Random(7)
    for t in range(12):
        w = random_build(rng, ["pi", "cc", "mc", "md"][t % 4],
                         max_base=6, max_total=12)
        assert is_scm_via_dual(independence_complex(w.graph))


# -- reference: the search on frozensets of labels that the bitmask kernel
# replaced, kept as an independent copy ---------------------------------------

def _ref_canonical(facets):
    support = sorted({v for f in facets for v in f}, key=str)
    pos = {v: i for i, v in enumerate(support)}
    return frozenset(frozenset(pos[v] for v in f) for f in facets), support


def _ref_split(facets, x):
    keep = [f for f in facets if x not in f]
    cand = [f - {x} for f in facets if x in f]
    return keep, cand, all(any(c < k for k in keep) for c in cand)


def _ref_vertex_order(facets):
    closed = {}
    for f in facets:
        for v in f:
            closed.setdefault(v, set()).update(f)
    return sorted(closed, key=lambda v: (-len(closed[v]) + 1, v))


def _ref_translate(node, labels):
    if node[0] == "simplex":
        return node
    return ("shed", labels[node[1]], _ref_translate(node[2], labels),
            _ref_translate(node[3], labels))


def _ref_search(facets, memo):
    """(True, tree) or (False, stuck facet set), in the caller's labels."""
    if len(facets) <= 1:
        return True, ("simplex",)
    key, labels = _ref_canonical(facets)
    if key not in memo:
        memo[key] = _ref_core(key, memo)
    ok, payload = memo[key]
    if ok:
        return True, _ref_translate(payload, labels)
    return False, frozenset(frozenset(labels[i] for i in f) for f in payload)


def _ref_core(facets, memo):
    for x in _ref_vertex_order(facets):
        keep, cand, beta = _ref_split(facets, x)
        if not beta:
            continue
        ok_d, tree_d = _ref_search(frozenset(keep), memo)
        if not ok_d:
            continue
        ok_l, tree_l = _ref_search(frozenset(cand), memo)
        if not ok_l:
            continue
        return True, ("shed", x, tree_d, tree_l)
    return False, facets


def _ref_certificate(delta, memo):
    ok, payload = _ref_search(frozenset(delta.facets), memo)
    if ok:
        return VDCertificate(True, tree=payload)
    stuck = tuple(tuple(sorted(f, key=str))
                  for f in sorted(payload, key=lambda f: sorted(map(str, f))))
    return VDCertificate(False, refutation=stuck)


def _ref_shedding(delta, memo):
    facets = frozenset(delta.facets)
    out = []
    for x in sorted({v for f in facets for v in f}):
        keep, cand, beta = _ref_split(facets, x)
        if (beta and _ref_search(frozenset(keep), memo)[0]
                and _ref_search(frozenset(cand), memo)[0]):
            out.append(x)
    return out


def test_bitmask_search_matches_label_reference():
    """Byte-identical certificates, refutations and shedding lists.  Past
    ten support labels the search orders canonical labels as decimal
    strings (0, 1, 10, ...), and the kernel has to follow that order."""
    rng = random.Random(41)
    cases = [independence_complex(random_graph(rng, 11 + t % 8,
                                               rng.uniform(0.3, 0.55)))
             for t in range(40)]
    for n in range(8, 13):
        names = [f"x{i}" for i in rng.sample(range(10 * n), n)]
        rng.shuffle(names)
        g = cycle_graph(names)
        cases.append(independence_complex(
            build_whiskered(g, trivial_spec(g), "pi").graph))
    memo = {}
    verdicts = set()
    for c in cases:
        cert = is_vertex_decomposable(c)
        assert cert.to_lines() == _ref_certificate(c, memo).to_lines()
        assert shedding_vertices(c) == _ref_shedding(c, memo)
        if cert.decomposable:
            assert verify_certificate(c, cert)
        verdicts.add(cert.decomposable)
    assert verdicts == {True, False}


def _hollow_joins():
    rng = random.Random(29)
    graphs = [random_graph(rng, 8 + t % 5, rng.uniform(0.25, 0.55))
              for t in range(10)]
    graphs += [build_whiskered(g, trivial_spec(g), "pi").graph
               for g in (cycle_graph([f"v{i}" for i in range(1, n + 1)])
                         for n in (5, 6))]
    return [_hollow_join(g) for g in graphs]


def test_non_flag_search_matches_label_reference():
    """Certificates, refutations and strong and weak shedding lists of
    complexes that are not flag, and so go to the facet search, against the
    label-level reference.  The supports have 11-15 vertices, so the
    decimal-string label order nests."""
    memo = {}
    verdicts = set()
    for c in _hollow_joins():
        assert _flag_graph(c) is None
        assert 11 <= len(c.ambient) <= 15
        cert = is_vertex_decomposable(c)
        assert cert.to_lines() == _ref_certificate(c, memo).to_lines()
        assert shedding_vertices(c) == _ref_shedding(c, memo)
        facets = frozenset(c.facets)
        weak = [x for x in sorted({v for f in facets for v in f})
                if _ref_split(facets, x)[2]]
        assert shedding_vertices(c, weak=True) == weak
        verdicts.add(cert.decomposable)
    assert verdicts == {True, False}


def _pinned_cases():
    rng = random.Random(7)
    pi_builds = []
    for n in range(8, 15):
        g = cycle_graph([f"x{i}" for i in rng.sample(range(10 * n), n)])
        vs = g.vertices
        ears = default_spec(g, [vs[i:i + 2] for i in range(0, n, 2)])
        for spec in (trivial_spec(g), ears):
            pi_builds.append(independence_complex(
                build_whiskered(g, spec, "pi").graph))
    randoms = [independence_complex(random_graph(rng, 12 + t % 7, 0.3))
               for t in range(30)]
    return pi_builds, randoms


def _vd_digest(cases):
    h = hashlib.sha256()
    for c in cases:
        lines = is_vertex_decomposable(c).to_lines()
        lines += [" ".join(shedding_vertices(c)),
                  " ".join(shedding_vertices(c, weak=True))]
        h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()


def test_vd_outputs_match_pinned_digests():
    """Certificates and shedding lists (strong and weak) hash to the values
    that the search gave when it renumbered every subcomplex.  The pi builds
    of C8-C14 have up to 28 vertices, so the decimal-string label order
    nests several levels deep; 14 of the 30 random graphs are VD."""
    pi_builds, randoms = _pinned_cases()
    assert _vd_digest(pi_builds) == (
        "b0c32225827c05545ee156eab47e459e67c1b6a411399a7c37557b2f2c7a8b80")
    assert _vd_digest(randoms) == (
        "6b1e23c16ae6722c7f3eac421d4d1f342316bafbdd4481e83c224ea1affdb0d2")


# -- reference: the replay that re-split frozensets of names and the
# refutation that string-sorted the named facets, kept as independent copies --

def _ref_replay(delta, cert, absent):
    """The name-level replay; every shed of a vertex in no facet of its
    node, which it accepted, goes into ``absent``."""
    if not cert.decomposable:
        return False

    def walk(facets, node):
        if node[0] == "simplex":
            return len(facets) <= 1
        _, x, tree_d, tree_l = node
        if not any(x in f for f in facets):
            absent.append(x)
        split = _split(facets, x)
        if split is None:
            return False
        return (walk(frozenset(split[0]), tree_d)
                and walk(frozenset(split[1]), tree_l))

    return walk(frozenset(delta.facets), cert.tree)


def _ref_refutation(delta):
    return tuple(tuple(sorted(f, key=str))
                 for f in sorted(delta.facets, key=lambda f: sorted(map(str, f))))


def _shed_paths(node, path=()):
    if node[0] == "shed":
        yield path
        yield from _shed_paths(node[2], path + (2,))
        yield from _shed_paths(node[3], path + (3,))


def _replace(node, path, new):
    if not path:
        return new
    i = path[0]
    return node[:i] + (_replace(node[i], path[1:], new),) + node[i + 1:]


def _tampered(tree, support, rng):
    """Each shed node with its children swapped, its vertex replaced by
    another of the complex's support, its subtree cut to a leaf, or its
    deletion or link put under a shed of its own vertex, which no facet
    there holds."""
    for path in _shed_paths(tree):
        node = tree
        for i in path:
            node = node[i]
        _, v, tree_d, tree_l = node
        other = rng.choice([u for u in support if u != v])
        leaf = ("simplex",)
        for new in (("shed", v, tree_l, tree_d), ("shed", other, tree_d, tree_l),
                    leaf, ("shed", v, ("shed", v, tree_d, leaf), tree_l),
                    ("shed", v, tree_d, ("shed", v, tree_l, leaf))):
            yield _replace(tree, path, new)


def _mixed_names(rng, n):
    """n names whose string order differs from their order here."""
    pool = ["9", "10", "B", "a", "11", "1", "x2", "x10", "Z", "100", "b", "_"]
    names = rng.sample(pool, n)
    while names == sorted(names):
        rng.shuffle(names)
    return names


def test_mask_replay_and_refutation_match_name_reference():
    """The mask replay and the rank-mask refutation against copies of the
    name-level code they replaced, on Ind(G) of seeded graphs and on seeded
    facet lists whose names sort differently as strings than by position,
    and on every tampering of each certificate: the texts agree, and so do
    the verdicts, except that a shed of a vertex in no facet of its node,
    which the name-level replay accepted, is rejected."""
    rng = random.Random(53)
    cases = []
    for t in range(60):
        n = 4 + t % 9
        names = _mixed_names(rng, n)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        rename = dict(zip(g.vertices, names)).__getitem__
        cases.append(independence_complex(
            Graph(names, [map(rename, e) for e in g.edges])))
        facets = random_complex_facets(rng, n)
        cases.append(SimplicialComplex(
            names, [[names[int(v) - 1] for v in f] for f in facets]))
    verdicts, outcomes, absent_seen = set(), set(), 0
    for c in cases:
        cert = is_vertex_decomposable(c)
        verdicts.add(cert.decomposable)
        if not cert.decomposable:
            assert cert.refutation == _ref_refutation(c)
            continue
        assert verify_certificate(c, cert) and _ref_replay(c, cert, [])
        support = sorted(c.support())
        if len(support) < 2:
            continue
        for tree in _tampered(cert.tree, support, rng):
            forged = VDCertificate(True, tree=tree)
            absent = []
            ref = _ref_replay(c, forged, absent)
            assert verify_certificate(c, forged) == (ref and not absent), tree
            absent_seen += ref and bool(absent)
            outcomes.add(ref)
    assert verdicts == outcomes == {True, False}
    assert absent_seen
