"""Seeded random invariant suites.

Each check takes a random.Random and an instance count and returns a list of
violation descriptions (empty = pass).  The CLI `properties` subcommand runs
them all from one seed.  The test suite runs them only through that
subcommand, at count 2 (`test_cli_properties_deterministic`); CI runs it at
count 200 at three seeds.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, factorial
from typing import Callable

from .complexes import SimplicialComplex, independence_complex
from .decomposability import (is_unmixed, is_vd_graph, is_vertex_decomposable,
                              shedding_vertices)
from .fields import GF2, QQ, FieldSpec
from .graph import Graph
from .ideals import (_hochster_linear, betti_oracle, betti_recursive_cover,
                     has_linear_resolution, ideal_of)
from .poset import FacetPoset, count_facets_pi
from .randinst import (random_build, random_complex_facets, random_graph,
                       random_instance)
from .whisker import build_whiskered, decompose_delete, decompose_link

# Instances each suite may draw in one run.  All 16 suites take about 6 ms
# per count on a 2-vCPU Xeon with Python 3.11, so the bound is about a minute.
COUNT_BOUND = 10_000


def _brute_independent_subsets(g: Graph) -> list[frozenset[str]]:
    return [frozenset(c) for k in range(len(g.vertices) + 1)
            for c in combinations(g.vertices, k) if g.is_independent(c)]


def _brute_chordal(g: Graph) -> bool:
    # chordless cycle search over all vertex subsets of size >= 4
    vs = g.vertices
    for k in range(4, len(vs) + 1):
        for sub in combinations(vs, k):
            h = g.induce(sub)
            if all(h.degree(v) == 2 for v in sub):
                comps = h.components()
                if len(comps) == 1:
                    return False
    return True


def check_cover_bijection(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        g = random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.7))
        mis = g.maximal_independent_sets()
        edges = g.edges
        covers = {frozenset(c) for k in range(len(g.vertices) + 1)
                  for c in combinations(g.vertices, k)
                  if not any(e.isdisjoint(c) for e in edges)}
        minimal = [c for c in covers if not any(c - {v} in covers for v in c)]
        if g.minimal_vertex_covers() != g.sort_sets(minimal):
            bad.append(f"instance {t}: minimal vertex covers disagree with brute force")
        brute = _brute_independent_subsets(g)
        if g.independent_set_count() != len(brute):
            bad.append(f"instance {t}: independent_set_count disagrees with brute force")
        brute_max = {s for s in brute
                     if not any(s < t2 for t2 in brute)}
        if brute_max != {frozenset(s) for s in mis}:
            bad.append(f"instance {t}: MIS enumeration disagrees with brute force")
    return bad


def check_chordality(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.1, 0.8))
        verdict, cert = g.is_chordal()
        if verdict != _brute_chordal(g):
            bad.append(f"instance {t}: chordality verdict disagrees with brute force")
            continue
        if not verdict:
            cyc = g.induce(cert)
            if not (len(cert) >= 4 and all(cyc.degree(v) == 2 for v in cert)
                    and len(cyc.components()) == 1):
                bad.append(f"instance {t}: returned cycle {cert} is not an induced cycle")
    return bad


def check_dual_involution(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        n = rng.randint(1, 8)
        c = SimplicialComplex([str(i + 1) for i in range(n)],
                              random_complex_facets(rng, n))
        if c.alexander_dual().alexander_dual() != c:
            bad.append(f"instance {t}: Alexander dual is not an involution")
    return bad


def check_deletion_link(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        n = rng.randint(1, 8)
        c = SimplicialComplex([str(i + 1) for i in range(n)],
                              random_complex_facets(rng, n))
        verts = sorted(c.support())
        if not verts:
            continue
        v = rng.choice(verts)
        _, lk = c.deletion_and_link([v])
        facets = c.facets
        for f in lk.facets:
            if not c.has_face(f | {v}) or f | {v} not in facets:
                bad.append(f"instance {t}: lk facet union {{{v}}} is not a facet")
                break
    return bad


def check_euler_homology(rng: random.Random, count: int) -> list[str]:
    """Over F2, F3 and QQ the alternating sum of the reduced homology dims is
    the reduced Euler characteristic of the f-vector.  By universal
    coefficients dim H~_i(k) >= dim H~_i(QQ) for every field k: torsion can
    only add to it."""
    bad = []
    for t in range(count):
        n = rng.randint(1, 8)
        c = SimplicialComplex([str(i + 1) for i in range(n)],
                              random_complex_facets(rng, n))
        chi = c.euler_characteristic_reduced()
        over_q = c.reduced_homology_dims(QQ)
        for k in (GF2, FieldSpec(3), QQ):
            dims = over_q if k is QQ else c.reduced_homology_dims(k)
            alt = sum((-1) ** i * d for i, d in dims.items() if i >= 0)
            alt -= dims.get(-1, 0)
            if alt != chi:
                bad.append(f"instance {t}: homology Euler sum over {k} != f-vector value")
            if any(dims.get(i, 0) < d for i, d in over_q.items()):
                bad.append(f"instance {t}: homology over {k} is below that over QQ")
    return bad


def check_fh_inverse(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        n = rng.randint(1, 8)
        c = SimplicialComplex([str(i + 1) for i in range(n)],
                              random_complex_facets(rng, n))
        f = c.f_vector()
        h = c.h_vector()
        d = c.dim
        back = tuple(sum(comb(d + 1 - k, j - k) * h[k] for k in range(j + 1))
                     for j in range(d + 2))
        if back != f:
            bad.append(f"instance {t}: inverse transform does not recover the f-vector")
    return bad


def check_whisker_structure(rng: random.Random, count: int) -> list[str]:
    bad = []
    kinds = ["pi", "cc", "mc", "md"]
    for t in range(count):
        w = random_build(rng, kinds[t % 4])
        spec = w.spec
        for i, a in enumerate(spec.whisker_a):
            want = set(spec.cliques[i])
            for av in a.vertices:
                outside = w.graph.neighbors(av) - set(a.vertices)
                if outside != want:
                    bad.append(f"instance {t}: A{i + 1} vertex {av} has wrong base neighbours")
        for j, b in enumerate(spec.whisker_b):
            if b is None:
                continue
            want = {x for i in spec.clusters[j] for x in spec.cliques[i]}
            for bv in b.vertices:
                outside = w.graph.neighbors(bv) - set(b.vertices)
                if outside != want:
                    bad.append(f"instance {t}: B{j + 1} vertex {bv} has wrong base neighbours")
    return bad


def _graphs_union_equal(whole: Graph, parts: list[Graph]) -> bool:
    verts = [v for p in parts for v in p.vertices]
    if sorted(verts) != sorted(whole.vertices):
        return False
    return set().union(*(p.edges for p in parts)) == whole.edges


def check_decompose(rng: random.Random, count: int) -> list[str]:
    bad = []
    kinds = ["pi", "cc", "mc", "md"]
    for t in range(count):
        w = random_build(rng, kinds[t % 4])
        v = rng.choice(w.base.vertices)
        res, iso = decompose_delete(w, v)
        if not _graphs_union_equal(w.graph.delete_vertices([v]), [res.graph] + iso):
            bad.append(f"instance {t}: delete pieces do not reassemble the graph")
        res2, iso2, _ = decompose_link(w, v)
        removed = w.graph.closed_neighborhood(v)
        if not _graphs_union_equal(w.graph.delete_vertices(removed), [res2.graph] + iso2):
            bad.append(f"instance {t}: link pieces do not reassemble the graph")
    return bad


def check_chordal_preservation(rng: random.Random, count: int) -> list[str]:
    # Equivalence holds when every cluster is one clique (every added vertex
    # is then simplicial).  For multi-clique clusters only the forward
    # direction holds: a B vertex joined to two cliques of its cluster that
    # are linked by a two-edge path closes an induced 4-cycle.
    bad = []
    for t in range(count):
        g, spec = random_instance(rng, "pi")
        w = build_whiskered(g, spec, "pi")
        if w.graph.is_chordal()[0] != g.is_chordal()[0]:
            bad.append(f"instance {t}: chordality not preserved by the pi build")
        g2, spec2 = random_instance(rng, "cc")
        w2 = build_whiskered(g2, spec2, "cc")
        if w2.graph.is_chordal()[0] and not g2.is_chordal()[0]:
            bad.append(f"instance {t}: cc build chordal but its base is not")
    return bad


def check_purity(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        w = random_build(rng, "cc", max_base=6, max_total=12)
        d, r = w.type
        sizes = sorted(len(s) for s in w.graph.maximal_independent_sets())
        if sizes[0] < d or sizes[-1] != d + r:
            bad.append(f"instance {t}: facet sizes {sizes} violate [d, d+r] = [{d}, {d + r}]")
        w2 = random_build(rng, "pi", max_base=6, max_total=12)
        if not is_unmixed(w2.graph):
            bad.append(f"instance {t}: pi build is not unmixed")
    return bad


def check_vd_constructions(rng: random.Random, count: int) -> list[str]:
    bad = []
    kinds = ["pi", "cc", "mc", "md"]
    for t in range(count):
        w = random_build(rng, kinds[t % 4], max_base=6, max_total=12)
        ind = independence_complex(w.graph)
        verdict = is_vertex_decomposable(ind).decomposable
        if is_vd_graph(w.graph) != verdict:
            bad.append(f"instance {t}: graph and facet VD verdicts disagree")
        if not verdict:
            bad.append(f"instance {t}: {w.kind} build is not vertex decomposable")
            continue
        shed = set(shedding_vertices(ind))
        missing = set(w.base.vertices) - shed
        if missing:
            bad.append(f"instance {t}: base vertices {sorted(missing)} are not shedding")
    return bad


def check_vd_components(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        g1 = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.7), prefix="u")
        g2 = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.7), prefix="w")
        g = g1.disjoint_union(g2)
        if is_vd_graph(g) != (is_vd_graph(g1) and is_vd_graph(g2)):
            bad.append(f"instance {t}: VD of a disjoint union is not the conjunction")
    return bad


def check_poset(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        g, spec = random_instance(rng, "pi", max_base=6, max_total=12)
        w = build_whiskered(g, spec, "pi")
        p = FacetPoset(w)
        direct = len(independence_complex(w.graph).facets)
        if not len(p) == direct == count_facets_pi(g, spec) == g.independent_set_count():
            bad.append(f"instance {t}: facet counts disagree across the three routes")
        covered = set()
        base_parts = p.base_parts
        for f in p.maximal_elements():
            size, chains = p.interval_stats(f)
            r = len(f - p.whisker_set)
            if size != 2 ** r or chains != factorial(r):
                bad.append(f"instance {t}: interval below {sorted(f)} is not (2^r, r!)")
            covered.update(i for i, bp in enumerate(base_parts)
                           if bp <= f - p.whisker_set)
        if len(covered) != len(p):
            bad.append(f"instance {t}: intervals below maximal elements miss some facets")
    return bad


def check_betti_recursion(rng: random.Random, count: int) -> list[str]:
    bad = []
    kinds = ["pi", "cc", "mc", "md"]
    for t in range(count):
        w = random_build(rng, kinds[t % 4], max_base=5, max_total=10)
        k = QQ if t % 5 == 0 else GF2
        rec_t = betti_recursive_cover(w, k=k)
        ora_t = betti_oracle(ideal_of(w.graph, "cover"), k)
        if rec_t != ora_t:
            bad.append(f"instance {t}: recursion and oracle disagree over {k}")
    return bad


def check_froeberg(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
        while not g.edges:
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
        ideal = ideal_of(g, "edge")
        linear = has_linear_resolution(ideal, GF2)
        if linear != g.complement().is_chordal()[0]:
            bad.append(f"instance {t}: linear resolution != chordal complement")
        # every False is the oracle's own verdict; a True may be the pass's
        if linear and not _hochster_linear(ideal, GF2):
            bad.append(f"instance {t}: linear quotients != Hochster oracle")
    return bad


def check_ideal_identities(rng: random.Random, count: int) -> list[str]:
    bad = []
    for t in range(count):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.7))
        ind = independence_complex(g)
        if ideal_of(ind, "stanley-reisner") != ideal_of(g, "edge"):
            bad.append(f"instance {t}: Stanley-Reisner ideal of Ind G != edge ideal")
        via_dual = ideal_of(ind.alexander_dual(), "stanley-reisner")
        via_complement = ideal_of(ind.complement_facet_complex(), "facet")
        if not (via_dual == via_complement == ideal_of(g, "cover")):
            bad.append(f"instance {t}: cover ideal routes disagree")
    return bad


CHECKS: dict[str, Callable[[random.Random, int], list[str]]] = {
    "cover-bijection": check_cover_bijection,
    "chordality": check_chordality,
    "dual-involution": check_dual_involution,
    "deletion-link": check_deletion_link,
    "euler-homology": check_euler_homology,
    "fh-inverse": check_fh_inverse,
    "whisker-structure": check_whisker_structure,
    "decompose": check_decompose,
    "chordal-preservation": check_chordal_preservation,
    "purity": check_purity,
    "vd-constructions": check_vd_constructions,
    "vd-components": check_vd_components,
    "poset": check_poset,
    "betti-recursion": check_betti_recursion,
    "froeberg": check_froeberg,
    "ideal-identities": check_ideal_identities,
}
