"""Vertex decomposability certificates, shedding vertices, shellability,
unmixedness, and the componentwise-linear-dual criterion.

The decomposability search works on facets stored as int bitmasks over a
renumbered support, with a memo table keyed by the canonical facet set, so
label-coinciding subproblems within one top-level call are solved once.  The
memo lives only as long as that call, so a long-lived process keeps none of
it.  Vertex names become bits once, on the way in, and the certificate tree
is translated back to names on the way out.  A subcomplex is renumbered
in the order of its labels as strings: the names at the top, and the decimal
strings of the parent's bit numbers below it (0, 1, 10, 11, ..., 2, ...).
The trial order breaks ties by that numbering, so it fixes which
certificate is found.

A refutation is the input complex itself.  A failed subcomplex only sends
its parent on to the next trial vertex, so the search is stuck exactly when
the top complex is, and ``VDCertificate.refutation`` lists the input's
facets.  The label-level ``_split`` serves only the
certificate replay and the brute-force oracle, which check the kernel
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection

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
    refutation: tuple[tuple[str, ...], ...] | None = None  # the input's facets

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


FacetSet = frozenset  # of frozenset[str], the facets of a complex


def _canonical(facets: Collection[int], by_str: bool) -> tuple[frozenset[int], list[int]]:
    """Renumber the support to 0..m-1; returns (key, old bit of each new bit).

    The new numbering follows the old bits in increasing order, or, when
    ``by_str`` is set, in the order of the old bit numbers as decimal strings
    (0, 1, 10, 11, ..., 2, ...).  Each run of old bits that stay adjacent
    moves with one shift and mask.
    """
    support = 0
    for f in facets:
        support |= f
    old = [i for i in range(support.bit_length()) if support >> i & 1]
    if by_str and support.bit_length() > 10:
        old.sort(key=str)
    runs = []  # (old start, mask, new start) of each run
    start = 0
    for j in range(1, len(old) + 1):
        if j == len(old) or old[j] != old[j - 1] + 1:
            runs.append((old[start], (1 << (j - start)) - 1, start))
            start = j
    key = []
    for f in facets:
        g = 0
        for src, mask, dst in runs:
            g |= (f >> src & mask) << dst
        key.append(g)
    return frozenset(key), old


def _translate_tree(node: Tree, labels: list) -> Tree:
    if node[0] == "simplex":
        return node
    return ("shed", labels[node[1]],
            _translate_tree(node[2], labels), _translate_tree(node[3], labels))


def _split(facets: FacetSet, x) -> tuple[list, list] | None:
    """(deletion facets, link facets) for vertex x, or None when condition
    (beta) fails: some link facet is a facet of the deletion."""
    keep = [f for f in facets if x not in f]
    cand = [f - {x} for f in facets if x in f]
    if all(any(c < k for k in keep) for c in cand):
        return keep, cand
    return None


def _split_masks(facets: Collection[int], bit: int) -> tuple[list[int], list[int]] | None:
    """`_split` on bitmask facets; ``bit`` is the shed vertex's bit."""
    keep = [f for f in facets if not f & bit]
    link = [f ^ bit for f in facets if f & bit]
    for c in link:
        for k in keep:
            if not c & ~k:  # facets form an antichain, so c != k
                break
        else:
            return None
    return keep, link


def _vertex_order(facets: frozenset[int]) -> list[int]:
    """Trial order: descending degree in the 1-skeleton, ties by label."""
    closed = [0] * max(facets).bit_length()  # the support is 0..m-1
    for f in facets:
        rest = f
        while rest:
            low = rest & -rest
            closed[low.bit_length() - 1] |= f
            rest ^= low
    return sorted(range(len(closed)), key=lambda v: -closed[v].bit_count())


# A memo maps canonical facet bitmasks to the tree in canonical labels, or
# False; one lives for one top-level call.
Memo = dict[frozenset[int], Tree | bool]


def _vd_search(facets: list[int], memo: Memo, names: list | None = None) -> Tree | bool:
    """The tree in the caller's labels, or False if not decomposable.

    Without ``names`` the caller's labels are its own bit numbers, and the
    subcomplex is renumbered in their order as decimal strings.  With
    ``names``, bit i is called names[i] and the bits are in the names'
    string order already.
    """
    if len(facets) <= 1:
        return ("simplex",)
    key, old = _canonical(facets, names is None)
    tree = memo.get(key)
    if tree is None:
        tree = memo[key] = _vd_search_core(key, memo)
    if tree is False:
        return False
    return _translate_tree(tree, old if names is None else [names[i] for i in old])


def _vd_search_core(facets: frozenset[int], memo: Memo) -> Tree | bool:
    for x in _vertex_order(facets):
        split = _split_masks(facets, 1 << x)
        if split is None:
            continue
        tree_d = _vd_search(split[0], memo)
        if tree_d is False:
            continue
        tree_l = _vd_search(split[1], memo)
        if tree_l is False:
            continue
        return ("shed", x, tree_d, tree_l)
    return False


def _facet_masks(delta: SimplicialComplex) -> tuple[list[int], list]:
    """The facets as bitmasks over the support, numbered in string order."""
    names = sorted({v for f in delta.facets for v in f}, key=str)
    bit = {v: 1 << i for i, v in enumerate(names)}
    return [sum(bit[v] for v in f) for f in delta.facets], names


def is_vertex_decomposable(delta: SimplicialComplex) -> VDCertificate:
    """Exact decision with a replayable certificate or a stuck subcomplex.

    A refutation is the input complex itself: its facets, sorted as strings.
    """
    if delta.is_void:
        raise ComplexError("void complex: vertex decomposability undefined")
    facets, names = _facet_masks(delta)
    tree = _vd_search(facets, {}, names)
    if tree is not False:
        return VDCertificate(True, tree=tree)
    stuck = tuple(tuple(sorted(f, key=str))
                  for f in sorted(delta.facets, key=lambda f: sorted(map(str, f))))
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
        split = _split(facets, x)
        if split is None:
            return False
        return (walk(frozenset(split[0]), tree_d)
                and walk(frozenset(split[1]), tree_l))

    return walk(frozenset(delta.facets), cert.tree)


def is_vd_brute_force(delta: SimplicialComplex) -> bool:
    """Non-memoized reference implementation (independent oracle)."""
    if delta.is_void:
        raise ComplexError("void complex: vertex decomposability undefined")

    def rec(facets: frozenset) -> bool:
        if len(facets) <= 1:
            return True
        for x in {v for f in facets for v in f}:
            split = _split(facets, x)
            if split and rec(frozenset(split[0])) and rec(frozenset(split[1])):
                return True
        return False

    return rec(frozenset(delta.facets))


def shedding_vertices(delta: SimplicialComplex, weak: bool = False) -> list[str]:
    """Vertices satisfying conditions (alpha) and (beta); weak mode tests
    (beta) only."""
    if delta.is_void:
        raise ComplexError("void complex has no shedding vertices")
    facets, names = _facet_masks(delta)
    memo: Memo = {}
    out = []
    for i, x in enumerate(names):
        split = _split_masks(facets, 1 << i)
        if split is None:
            continue
        if weak or (_vd_search(split[0], memo, names) is not False
                    and _vd_search(split[1], memo, names) is not False):
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


def is_scm_via_dual(delta: SimplicialComplex, k: FieldSpec = GF2) -> bool:
    """Sequential Cohen-Macaulayness via the componentwise-linear dual test.

    For each generator degree e of the dual's facet ideal, the squarefree
    degree-e component ideal must have a linear resolution (Betti numbers
    vanishing off j = i + e), checked with the Betti oracle.
    """
    from .ideals import MonomialIdeal, has_linear_resolution, ideal_of

    if delta.is_void:
        raise ComplexError("void complex: SCM test undefined")
    if len(delta.ambient) > DEFAULT_SCM_AMBIENT_BOUND:
        raise ResourceLimit(f"ambient size {len(delta.ambient)} exceeds the SCM "
                            f"bound {DEFAULT_SCM_AMBIENT_BOUND}")
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
            for extra in combinations(room, e - len(g)):
                gens_e.add(g | frozenset(extra))
        if not has_linear_resolution(MonomialIdeal(dual.ambient, gens_e), k):
            return False
    return True
