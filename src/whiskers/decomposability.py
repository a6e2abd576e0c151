"""Vertex decomposability certificates, shedding vertices, shellability,
unmixedness, and the componentwise-linear-dual criterion.

The decomposability search works on bare facet sets (frozensets of ints over
a renumbered support) with a global memo table, so label-coinciding
subproblems across a whole test suite are solved once.  The public entry
points translate back to the caller's vertex names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import ComplexError, SimplicialComplex, independence_complex
from .fields import GF2, FieldSpec
from .graph import Graph, ResourceLimit

DEFAULT_SHELLING_FACET_BOUND = 12
DEFAULT_SCM_AMBIENT_BOUND = 14


# A certificate tree is either ("simplex",) or ("shed", v, del_tree, lk_tree).
Tree = tuple


@dataclass(frozen=True)
class VDCertificate:
    decomposable: bool
    tree: Tree | None = None
    refutation: tuple[tuple[str, ...], ...] | None = None  # stuck subcomplex facets

    def to_lines(self) -> list[str]:
        if self.decomposable:
            out: list[str] = []

            def walk(node: Tree, depth: int) -> None:
                pad = "  " * depth
                if node[0] == "simplex":
                    out.append(pad + "simplex")
                else:
                    out.append(pad + f"shed {node[1]}")
                    walk(node[2], depth + 1)
                    walk(node[3], depth + 1)

            walk(self.tree, 0)
            return out
        lines = ["stuck"]
        lines += ["  facet " + " ".join(f) for f in self.refutation]
        return lines


FacetSet = frozenset  # of frozenset[int]


def _canonical(facets: Iterable[frozenset]) -> tuple[FacetSet, list]:
    """Renumber the support to 0..m-1; returns (key, inverse label list)."""
    support = sorted({v for f in facets for v in f}, key=str)
    pos = {v: i for i, v in enumerate(support)}
    key = frozenset(frozenset(pos[v] for v in f) for f in facets)
    return key, support


def _translate_tree(node: Tree, labels: list) -> Tree:
    if node[0] == "simplex":
        return node
    return ("shed", labels[node[1]],
            _translate_tree(node[2], labels), _translate_tree(node[3], labels))


def _split(facets: FacetSet, x) -> tuple[list, list, bool]:
    """(deletion facets, link facets, condition-beta holds) for vertex x."""
    keep = [f for f in facets if x not in f]
    cand = [f - {x} for f in facets if x in f]
    beta = all(any(c < k for k in keep) for c in cand)
    if beta:
        del_facets = keep
    else:
        del_facets = keep + [c for c in cand if not any(c < k for k in keep)]
    return del_facets, cand, beta


def _vertex_order(facets: FacetSet) -> list:
    """Trial order: descending degree in the 1-skeleton, ties by label."""
    closed: dict = {}
    for f in facets:
        for v in f:
            closed.setdefault(v, set()).update(f)
    return sorted(closed, key=lambda v: (-len(closed[v]) + 1, v))


_vd_memo: dict[FacetSet, tuple[bool, Tree | FacetSet]] = {}


def _vd_search(facets: FacetSet) -> tuple[bool, Tree | FacetSet]:
    """Returns (True, tree) or (False, stuck facet set), in current labels."""
    if len(facets) <= 1:
        return True, ("simplex",)
    key, labels = _canonical(facets)
    hit = _vd_memo.get(key)
    if hit is None:
        hit = _vd_search_core(key)
        _vd_memo[key] = hit
    ok, payload = hit
    if ok:
        return True, _translate_tree(payload, labels)
    return False, frozenset(frozenset(labels[i] for i in f) for f in payload)


def _vd_search_core(facets: FacetSet) -> tuple[bool, Tree | FacetSet]:
    for x in _vertex_order(facets):
        del_facets, lk_facets, beta = _split(facets, x)
        if not beta:
            continue
        ok_d, tree_d = _vd_search(frozenset(del_facets))
        if not ok_d:
            continue
        ok_l, tree_l = _vd_search(frozenset(lk_facets))
        if not ok_l:
            continue
        return True, ("shed", x, tree_d, tree_l)
    return False, facets


def is_vertex_decomposable(delta: SimplicialComplex) -> VDCertificate:
    """Exact decision with a replayable certificate or a stuck subcomplex."""
    if delta.is_void:
        raise ComplexError("void complex: vertex decomposability undefined")
    ok, payload = _vd_search(frozenset(delta.facets))
    if ok:
        return VDCertificate(True, tree=payload)
    stuck = tuple(tuple(sorted(f, key=str)) for f in sorted(payload, key=lambda f: sorted(map(str, f))))
    return VDCertificate(False, refutation=stuck)


def is_vd_graph(g: Graph) -> bool:
    """VD of a graph = VD of its independence complex."""
    return is_vertex_decomposable(independence_complex(g)).decomposable


def verify_certificate(delta: SimplicialComplex, cert: VDCertificate) -> bool:
    """Replay a positive certificate, re-checking conditions at every node."""
    if not cert.decomposable:
        return False

    def walk(facets: FacetSet, node: Tree) -> bool:
        if node[0] == "simplex":
            return len(facets) <= 1
        _, x, tree_d, tree_l = node
        del_facets, lk_facets, beta = _split(facets, x)
        if not beta:
            return False
        return (walk(frozenset(del_facets), tree_d)
                and walk(frozenset(lk_facets), tree_l))

    return walk(frozenset(delta.facets), cert.tree)


def is_vd_brute_force(delta: SimplicialComplex) -> bool:
    """Non-memoized reference implementation (independent oracle)."""
    if delta.is_void:
        raise ComplexError("void complex: vertex decomposability undefined")

    def rec(facets: frozenset) -> bool:
        if len(facets) <= 1:
            return True
        for x in {v for f in facets for v in f}:
            del_facets, lk_facets, beta = _split(facets, x)
            if beta and rec(frozenset(del_facets)) and rec(frozenset(lk_facets)):
                return True
        return False

    return rec(frozenset(delta.facets))


def shedding_vertices(delta: SimplicialComplex, weak: bool = False) -> list[str]:
    """Vertices satisfying conditions (alpha) and (beta); weak mode tests
    (beta) only."""
    if delta.is_void:
        raise ComplexError("void complex has no shedding vertices")
    facets = frozenset(delta.facets)
    out = []
    for x in sorted({v for f in facets for v in f}):
        del_facets, lk_facets, beta = _split(facets, x)
        if not beta:
            continue
        if weak:
            out.append(x)
            continue
        if (_vd_search(frozenset(del_facets))[0]
                and _vd_search(frozenset(lk_facets))[0]):
            out.append(x)
    return out


def is_shellable(delta: SimplicialComplex,
                 facet_bound: int = DEFAULT_SHELLING_FACET_BOUND) -> list[tuple[str, ...]] | None:
    """A shelling order, or None if none exists.

    Whether a facet can extend a prefix depends only on the prefix as a set,
    so the backtracking runs over subsets of facets.
    """
    if delta.is_void:
        raise ComplexError("void complex: shellability undefined")
    facets = list(delta.facets)
    t = len(facets)
    if t > facet_bound:
        raise ResourceLimit(f"{t} facets exceeds the shelling bound {facet_bound}")
    if t == 1:
        return delta.facet_tuples()

    def can_extend(chosen: tuple[int, ...], j: int) -> bool:
        fj = facets[j]
        ones = [k for k in chosen if len(fj - facets[k]) == 1]
        for i in chosen:
            diff_i = fj - facets[i]
            if not any(fj - facets[k] <= diff_i for k in ones):
                return False
        return True

    seen: set[frozenset[int]] = set()

    def search(order: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(order) == t:
            return order
        key = frozenset(order)
        if key in seen:
            return None
        seen.add(key)
        for j in range(t):
            if j in order:
                continue
            if can_extend(order, j):
                hit = search(order + (j,))
                if hit is not None:
                    return hit
        return None

    hit = search(())
    if hit is None:
        return None
    tuples = delta.facet_tuples()
    return [tuples[j] for j in hit]


def is_unmixed(g: Graph) -> bool:
    """All maximal independent sets (equivalently minimal covers) share one size."""
    sizes = {len(s) for s in g.maximal_independent_sets()}
    return len(sizes) <= 1


def is_scm_via_dual(delta: SimplicialComplex, k: FieldSpec = GF2,
                    ambient_bound: int = DEFAULT_SCM_AMBIENT_BOUND) -> bool:
    """Sequential Cohen-Macaulayness via the componentwise-linear dual test.

    For each generator degree e of the dual's facet ideal, the squarefree
    degree-e component ideal must have a linear resolution (Betti numbers
    vanishing off j = i + e), checked with the Betti oracle.
    """
    from .ideals import MonomialIdeal, betti_oracle, ideal_of

    if delta.is_void:
        raise ComplexError("void complex: SCM test undefined")
    if len(delta.ambient) > ambient_bound:
        raise ResourceLimit(
            f"ambient size {len(delta.ambient)} exceeds the SCM bound {ambient_bound}")
    dual = ideal_of(delta.complement_facet_complex(), "facet")
    if dual.is_unit or dual.is_zero:
        return True
    ambient = set(dual.ambient)
    degrees = sorted({len(g) for g in dual.generators})
    for e in degrees:
        # all squarefree degree-e monomials of the ideal
        gens_e = set()
        for g in dual.generators:
            if len(g) > e:
                continue
            room = sorted(ambient - g)
            from itertools import combinations
            for extra in combinations(room, e - len(g)):
                gens_e.add(g | frozenset(extra))
        comp = MonomialIdeal(dual.ambient, gens_e)
        table = betti_oracle(comp, k, ambient_bound=ambient_bound)
        if any(j != i + e for (i, j) in table.entries):
            return False
    return True
