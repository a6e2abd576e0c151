"""Whiskered builds: validation, neighborhoods, figures, decompositions."""

import random
from dataclasses import replace

import pytest

from whiskers import (Graph, GraphError, PartitionSpec, WhiskerError,
                      build_whiskered, cycle_graph, decompose_delete,
                      decompose_link, default_spec, derive_kind,
                      edgeless_graph, path_graph, trivial_spec,
                      validate_partitions)
from whiskers.graph import MAX_VERTICES
from whiskers.whisker import KINDS
from whiskers.randinst import random_build, random_instance

from conftest import c6, c6_ears, c8_cc, fig_mc, fig_odd_even


def test_validate_rejects_nonclique():
    g = path_graph(["1", "2", "3"])
    spec = default_spec(g, [("1", "3"), ("2",)])
    assert any("clique" in v for v in validate_partitions(g, spec))
    with pytest.raises(WhiskerError):
        build_whiskered(g, spec, "pi")


def test_validate_rejects_connected_cluster():
    g = path_graph(["1", "2"])
    spec = default_spec(g, [("1",), ("2",)], clusters=[(0, 1)])
    assert any("edge" in v for v in validate_partitions(g, spec))


def test_derive_kind():
    g = path_graph(["1", "2"])
    assert derive_kind(trivial_spec(g)) == "pi"
    g2 = edgeless_graph(["1", "2"])
    assert derive_kind(default_spec(g2, [("1",), ("2",)], clusters=[(0, 1)])) == "cc"
    spec = default_spec(g2, [("1",), ("2",)], clusters=[(0, 1)],
                        a_sizes=[2, 1])
    assert derive_kind(spec) == "mc"


def test_kind_constraints():
    g = edgeless_graph(["1", "2"])
    spec = default_spec(g, [("1",), ("2",)], clusters=[(0, 1)], a_sizes=[2, 1])
    with pytest.raises(WhiskerError):
        build_whiskered(g, spec, "cc")  # |A1| = 2 is not a cc build


def test_kinds_rejected_exactly_before_the_derived_kind():
    rng = random.Random(17)
    derived = set()
    for kind in KINDS:
        for _ in range(8):
            g, spec = random_instance(rng, kind)
            least = KINDS.index(derive_kind(spec))
            derived.add(KINDS[least])
            for t, requested in enumerate(KINDS):
                if t < least:
                    with pytest.raises(WhiskerError, match=f"kind={requested}"):
                        build_whiskered(g, spec, requested)
                else:
                    assert build_whiskered(g, spec, requested).kind == requested
    assert derived == set(KINDS)


def test_md_rejects_a_whisker_graph_that_is_not_vd():
    # Ind(C4) is two disjoint edges, which is not vertex decomposable
    g = path_graph(["1", "2"])
    a1 = cycle_graph(["a1.1", "a1.2", "a1.3", "a1.4"])
    spec = default_spec(g, [("1",), ("2",)], a_graphs={0: a1})
    assert derive_kind(spec) == "md"
    with pytest.raises(WhiskerError, match="A1") as err:
        build_whiskered(g, spec, "md")
    assert "A2" not in str(err.value)


def test_c6_ears_build():
    w = c6_ears()
    assert w.kind == "pi" and w.type == (3, 0)
    assert len(w.graph.vertices) == 9
    # each whisker vertex sees exactly its clique
    for i, a in enumerate(["a1.1", "a2.1", "a3.1"]):
        assert w.graph.neighbors(a) == set(w.spec.cliques[i])


def test_fig_odd_even_incidences():
    w = fig_odd_even()
    g = w.graph
    assert len(g.vertices) == 14 and len(g.edges) == 17
    for i in range(1, 7):  # pendant whisker on each path vertex
        assert g.neighbors(f"a{i}.1") == {f"v{i}"}
    assert g.neighbors("b1.1") == {"v1", "v3", "v5"}
    assert g.neighbors("b2.1") == {"v2", "v4", "v6"}
    assert w.kind == "cc" and w.type == (6, 2)


def test_fig_mc_incidences():
    w = fig_mc()
    g = w.graph
    assert w.kind == "mc" and w.type == (3, 1)
    assert len(g.vertices) == 13
    for a in ("a1.1", "a1.2"):
        assert g.neighbors(a) == {"v1", "v2"}
    assert g.neighbors("a2.1") == {"v3", "v4"}
    for a in ("a3.1", "a3.2"):
        assert g.neighbors(a) == {"v5", "v6"}
    for b in ("b1.1", "b1.2"):
        assert g.neighbors(b) == {"v1", "v2", "v5", "v6"}


def test_c8_cc_decomposition_types():
    w = c8_cc()
    assert w.type == (4, 2)
    deleted, iso = decompose_delete(w, "v8")
    assert deleted.type == (4, 2) and not iso
    assert deleted.graph == w.graph.delete_vertices(["v8"])
    linked, iso2, derived_type = decompose_link(w, "v8")
    assert derived_type == (3, 1) and linked.type == (3, 1)
    assert sorted(linked.base.vertices) == ["v2", "v3", "v4", "v5", "v6"]


def shape(residual, isolated):
    """The residual's cliques, clusters, whisker sizes and detached pieces."""
    s = residual.spec
    return (s.cliques, s.clusters, [len(a) for a in s.whisker_a],
            [None if b is None else len(b) for b in s.whisker_b],
            [p.vertices for p in isolated])


def test_residual_detaches_a_of_a_deleted_clique():
    # W1 = {v1} disappears; A1 is not adjacent to v1's removal, so it detaches
    assert shape(*decompose_delete(fig_odd_even(), "v1")) == (
        (("v2",), ("v3",), ("v4",), ("v5",), ("v6",)), ((1, 3), (0, 2, 4)),
        [1, 1, 1, 1, 1], [1, 1], [("a1.1",)])


def test_residual_removes_a_with_its_clique():
    # W4 = {v7, v8} lies in N[v8], and so does A4; W2 loses B2 and stands alone
    residual, iso, _ = decompose_link(c8_cc(), "v8")
    assert shape(residual, iso) == (
        (("v2",), ("v3", "v4"), ("v5", "v6")), ((0, 2), (1,)),
        [1, 1, 1], [1, None], [])


def test_residual_folds_b_into_the_lone_clique():
    # delete: U1 = {W1, W3, W5} keeps only W5 once v1 and v3 are gone
    w = decompose_delete(decompose_delete(fig_odd_even(), "v1")[0], "v3")
    assert shape(*w) == (
        (("v2",), ("v4",), ("v5",), ("v6",)), ((2,), (0, 1, 3)),
        [1, 1, 2, 1], [None, 1], [("a3.1",)])
    assert w[0].kind == "mc"
    assert w[0].spec.whisker_a[2].vertices == ("a5.1", "b1.1")
    # link: N[v2] empties W1 and W3, so B1 folds into A5
    residual, iso, _ = decompose_link(fig_odd_even(), "v2")
    assert shape(residual, iso) == (
        (("v4",), ("v5",), ("v6",)), ((1,), (0,), (2,)),
        [1, 2, 1], [None, None, None], [("a1.1",), ("a3.1",)])
    assert residual.spec.whisker_a[1].vertices == ("a5.1", "b1.1")


def test_residual_detaches_b_of_an_emptied_cluster():
    # N[2] holds both cliques of U1 = {W1, W3} but not B1
    g = path_graph(["1", "2", "3"])
    w = build_whiskered(g, default_spec(g, [("1",), ("2",), ("3",)],
                                        clusters=[(0, 2), (1,)]), "cc")
    residual, iso, _ = decompose_link(w, "2")
    assert shape(residual, iso) == ((), (), [], [],
                                    [("a1.1",), ("a3.1",), ("b1.1",)])


def test_residual_splits_the_cluster_of_a_link_vertex():
    # B1 is adjacent to v2, so W3's surviving mate stands alone
    residual, iso, _ = decompose_link(fig_mc(), "v2")
    assert shape(residual, iso) == (
        (("v4",), ("v5", "v6")), ((1,), (0,)), [1, 2], [None, None], [])
    assert residual.kind == "mc"


def test_decompositions_reassemble_randomly():
    rng = random.Random(99)
    for t in range(40):
        w = random_build(rng, ["pi", "cc", "mc", "md"][t % 4])
        v = rng.choice(w.base.vertices)
        for residual, iso, target in (
                (*decompose_delete(w, v), w.graph.delete_vertices([v])),
                (*decompose_link(w, v)[:2],
                 w.graph.delete_vertices(w.graph.closed_neighborhood(v)))):
            pieces = [residual.graph] + iso
            assert sorted(v for p in pieces for v in p.vertices) == \
                sorted(target.vertices)
            assert set().union(*(p.edges for p in pieces)) == target.edges
            assert not validate_partitions(residual.base, residual.spec)
            # a residual is assembled without checks; the checked build of
            # its own base, spec and kind must give the same whiskered graph
            assert residual.kind == derive_kind(residual.spec)
            assert build_whiskered(residual.base, residual.spec,
                                   residual.kind) == residual


def test_empty_base_degenerates():
    # empty bases arise as link residuals; the build is the empty graph
    w = build_whiskered(Graph([], []), trivial_spec(Graph([], [])), "pi")
    assert w.graph.vertices == () and w.type == (0, 0)


def test_random_instances_validate():
    rng = random.Random(3)
    for kind in ("pi", "cc", "mc", "md"):
        for _ in range(10):
            g, spec = random_instance(rng, kind)
            assert validate_partitions(g, spec) == []
            w = build_whiskered(g, spec, kind)
            assert len(w.graph.vertices) <= 14
    # random_build skips the checks that build_whiskered runs
    for s in range(40):
        kind = KINDS[s % 4]
        assert random_build(random.Random(s), kind) == build_whiskered(
            *random_instance(random.Random(s), kind), kind)


def test_assembled_graphs_keep_the_vertex_cap():
    # unions and builds are assembled from bitsets, but still capped
    a = edgeless_graph(f"a{i}" for i in range(MAX_VERTICES // 2 + 1))
    b = edgeless_graph(f"b{i}" for i in range(MAX_VERTICES // 2 + 1))
    for make in (lambda: a.disjoint_union(b),
                 lambda: build_whiskered(a, trivial_spec(a), "pi")):
        with pytest.raises(GraphError, match=f"^graph exceeds {MAX_VERTICES} vertices$"):
            make()


def test_random_instance_raises_on_invalid_spec(monkeypatch):
    # a raise, not an assert, so that python -O keeps the check
    import whiskers.randinst as randinst
    monkeypatch.setattr(randinst, "validate_partitions",
                        lambda g, spec: ["clique W1 is empty", "second"])
    with pytest.raises(WhiskerError, match="clique W1 is empty"):
        random_instance(random.Random(0), "pi")


# Two disjoint edges a-b and c-d, and a valid cc spec on them: cliques
# W1 = {a, b} and W2 = {c, d} in one cluster U1, one vertex per whisker.
_TWO_EDGES = Graph(list("abcd"), [("a", "b"), ("c", "d")])
_A1, _A2, _A3 = (edgeless_graph([f"a{i}.1"]) for i in (1, 2, 3))
_B1, _B2 = (edgeless_graph([f"b{j}.1"]) for j in (1, 2))
_CC = PartitionSpec((("a", "b"), ("c", "d")), ((0, 1),), (_A1, _A2), (_B1,))

# (changes to _CC, every violation that validate_partitions reports)
_SPEC_VIOLATIONS = [
    (dict(cliques=(("a", "b"), ("c", "d"), ()), clusters=((0, 1), (2,)),
          whisker_a=(_A1, _A2, _A3), whisker_b=(_B1, None)),
     ["clique W3 is empty"]),
    (dict(cliques=(("a", "b"), ("c", "d", "x"))),
     ["clique W2 uses unknown vertex 'x'"]),
    (dict(cliques=(("a", "b"), ("c", "d"), ("d",)), clusters=((0, 1), (2,)),
          whisker_a=(_A1, _A2, _A3), whisker_b=(_B1, None)),
     ["vertex 'd' appears in more than one clique"]),
    (dict(cliques=(("a", "b", "c"), ("d",)), clusters=((0,), (1,)),
          whisker_b=(None, None)),
     ["W1 = {a b c} is not a clique"]),
    (dict(cliques=(("a", "b"), ("c",))), ["vertices not covered by cliques: d"]),
    (dict(clusters=((0, 1), ()), whisker_b=(_B1, None)), ["cluster U2 is empty"]),
    (dict(clusters=((0, 1, 2),)), ["cluster U1 references missing clique 3"]),
    (dict(clusters=((0, 1), (1,)), whisker_b=(_B1, None)),
     ["clique W2 appears in more than one cluster"]),
    (dict(cliques=(("a",), ("b",), ("c", "d")), clusters=((0, 1), (2,)),
          whisker_a=(_A1, _A2, _A3), whisker_b=(_B1, None)),
     ["edge a-b connects cliques W1, W2 inside cluster U1"]),
    (dict(clusters=((0,),), whisker_b=(None,)),
     ["cliques not covered by clusters: W2"]),
    (dict(whisker_a=(_A1,)), ["need exactly one whisker graph A_i per clique"]),
    (dict(whisker_b=(_B1, None)), ["whisker_b must align with the cluster list"]),
    (dict(whisker_a=(edgeless_graph([]), _A2)), ["whisker graph A1 is empty"]),
    (dict(whisker_a=(_A1, edgeless_graph(["c", "a2.2"]))),
     ["whisker vertex 'c' (A2) collides with another vertex"]),
    (dict(whisker_b=(None,)), ["multi-clique cluster U1 needs a whisker graph B"]),
    (dict(clusters=((0,), (1,)), whisker_b=(None, _B2)),
     ["single-clique cluster U2 must not carry a whisker graph B"]),
]


@pytest.mark.parametrize("changes, violations", _SPEC_VIOLATIONS)
def test_partition_spec_refusals(changes, violations):
    """Every violation of a hand-built spec is reported, and refused by
    build_whiskered with all of them on one line; kind md adds none here,
    since every whisker graph is edgeless."""
    spec = replace(_CC, **changes)
    assert validate_partitions(_TWO_EDGES, spec) == violations
    with pytest.raises(WhiskerError) as exc:
        build_whiskered(_TWO_EDGES, spec, "md")
    assert str(exc.value) == "invalid partition spec: " + "; ".join(violations)


def test_build_and_decompositions_refuse_bad_arguments():
    """An unknown kind is refused before the spec is checked, and the
    decompositions split only at base vertices."""
    assert validate_partitions(_TWO_EDGES, _CC) == []
    with pytest.raises(WhiskerError, match="^unknown kind 'xx'$"):
        build_whiskered(_TWO_EDGES, _CC, "xx")
    w = build_whiskered(_TWO_EDGES, _CC, "cc")
    for decompose in (decompose_delete, decompose_link):
        with pytest.raises(GraphError, match="^'b1.1' is not a base vertex$"):
            decompose(w, "b1.1")
