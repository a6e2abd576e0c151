"""Vertex decomposability certificates, shedding vertices, shellability,
unmixedness, and the componentwise-linear-dual criterion.

The graph engine of `graph` answers `is_vd_graph`, re-exported here, and
`shedding_vertices` on a flag complex Ind(H), whose facets only
`_flag_graph` reads.  In strong mode both routes of `shedding_vertices`
decide the complex once, at the first vertex where (beta) holds, then only
each deletion where (beta) holds.

Certificates come from two searches that find the same trees.  A
certificate names shed vertices, which its replay turns into bits and
re-splits mask by mask, and its text depends on the trial order, so both
follow one label order and `check-vd` output does not change with the
route.  On a flag complex Ind(H), `is_vertex_decomposable` runs the graph
walk `_walk`, which keeps each subcomplex Ind(H[u]) as its vertex mask u
and asks `graph._witness` for (beta).  Every other complex, and in
`shedding_vertices` its deletions, goes to the facet search `_search`.
The facet search starts from the complex's own ``_masks`` and keeps every
subcomplex as int bitmasks over those position bits, never renumbered.
Both have one mode: they follow the label order and return a certificate
tree or None.

The trial order is descending degree in the 1-skeleton, ties broken by each
subcomplex's labels, so the labels fix which certificate is found.  The top
labels are the support's bits in the string order of their names.  Below
it, a child's labels are its support in the order of the parent's labels as
decimal strings (0, 1, 10, 11, ..., 2, ...); under ten labels that is the
numeric order.

A search remembers refutations only, in a set that lives for one
top-level call, so a long-lived process keeps none of it.  The facet
search keeps facet sets, each with its cone points (the vertices in every
facet) removed, and the walk keeps vertex masks without their isolated
vertices, which are the cone points of Ind(H[u]).  A cone x*G is vertex
decomposable exactly when G is (Provan-Billera), so a cone shares its
base's entry, and vertex decomposability does not depend on the trial
order, so a refutation holds on every path.  A decomposable subcomplex met
again is searched again, on its own labels.  Every link of a VD complex is
VD (Provan-Billera 1980; Bjorner-Wachs 1997 for non-pure complexes), so
the search skips a trial vertex whose deletion is refuted, tries each
other one's link first, and refutes the node at the first link that is not
VD.  A VD node meets no such link, and the set holds only true
refutations, so a tree depends on the facets and the labels alone.  At
most VD_REFUTATION_BOUND refutations are made before ResourceLimit.

Both parts of the rule pay for themselves.  A link is smaller than its
deletion, and a VD subcomplex is searched in full each time it is met, so
a deletion-first search builds whole trees for deletions of nodes that a
link refutes at once.  Without the skip, the link of a trial vertex whose
deletion is refuted is searched in full again.  On random Ind(G) past 16
vertices either change made more than twice the calls;
`test_trial_rule_call_counts` pins the counts.

A refutation is the input complex itself.  A failed deletion sends its
parent on to the next trial vertex and a failed link refutes the parent,
so the search is stuck exactly when the top complex is, and
``VDCertificate.refutation`` lists the input's facets, each as its names
in string order, the facets in the order of those name tuples.  It is
written from the masks: the names are ranked once, each facet becomes the
mask of its ranks, and position order on those masks is the order wanted,
so names are put on only at the end.  `verify_certificate` replays a
certificate on the complex's masks with its own split, and the label-level
``_split`` serves only the brute-force oracle; both check every search
independently.

A refutation found without the search has the same text.  A VD complex
is shellable (Bjorner-Wachs 1997, Thm 11.3), and a shellable complex, pure
or not, has no negative entry in its h-triangle (Bjorner-Wachs 1996,
Thm 3.4).  `is_vertex_decomposable` counts that triangle once, at the
root, in one pass over the faces (`_h_triangle`), and a negative entry
refutes the input before any search.  The pass lists the sum of 2^|F|
subsets over the facets, so it runs only within H_TRIANGLE_BOUND; past it,
or when no entry is negative, the search decides.  The same check at every
node of the search was slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import groupby
from typing import Collection, Iterator

from .complexes import ComplexError, SimplicialComplex, _f_to_h
from .fields import GF2, FieldSpec
from .graph import (Graph, ResourceLimit, _by_position, _mask_tuples, _Memo,
                    _mis_walk, _vd, _witness, is_vd_graph)
from .ideals import MonomialIdeal, _linear_step, has_linear_resolution

# Facets of a shelling search, which visits each prefix set once: a star of
# 11 edges beside a disjoint edge visits 2^11 and fails in 0.012-0.018 s
# (CPU, 2-vCPU Xeon, Python 3.11); each facet fewer took 2.2-2.5 times less.
DEFAULT_SHELLING_FACET_BOUND = 12
# Subcomplexes one search, the facet search or the graph walk, may refute.
# Both refute the same subcomplexes.  A certificate on F facets has F - 1
# shed nodes, which the input bounds, so only refutations are counted.
# The tests, the property suites and the benchmark's inputs refute at most
# 266.  Of Ind(G) of 4,000 random graphs of 16-34 vertices, one of 24
# vertices runs past the bound and the next largest refutes 3,149.  The
# 1-skeleton of K_n beside two disjoint edges reaches the bound in 0.3-0.6 s
# for every n from 13 to 30 (CPU, 2-vCPU Xeon, Python 3.11).
VD_REFUTATION_BOUND = 1 << 12
# Sum of 2^|F| over the facets up to which `is_vertex_decomposable` looks
# for a negative h-triangle entry before it searches; the pass lists that
# many subsets.  The benchmark's random Ind(G) of 12-15 vertices reach
# 2,880, and the pi build of C10 (125,952) goes straight to the search.  It
# only prunes, so going over it never raises.
H_TRIANGLE_BOUND = 1 << 14


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
    link = []
    for f in facets:
        if f & bit:
            c = f ^ bit
            for k in keep:
                if not c & ~k:  # facets form an antichain, so c != k
                    break
            else:  # most failing calls stop here, before the rest of link
                return None
            link.append(c)
    return keep, link


@cache
def _string_order(m: int) -> list[int]:
    """The labels 0..m-1 in the order of their decimal strings."""
    return sorted(range(m), key=str)


def _key(facets: Collection[int]) -> frozenset[int]:
    """The facet set with its cone points removed: a cone is VD exactly
    when its base is, so cones share their base's key."""
    apex = -1
    for f in facets:
        apex &= f
    return frozenset(f ^ apex for f in facets) if apex else frozenset(facets)


def _search(facets: Collection[int], order: list[int],
            refuted: set[frozenset[int]]) -> Tree | None:
    """The certificate tree over the input's bits, or None.

    ``order`` lists the parent's support bits in the order of its labels as
    decimal strings, and label i of this subcomplex is the i-th of them
    inside its support.  ``refuted`` holds the `_key` of each facet set
    already found not VD.  A trial vertex where (beta) holds is skipped
    when its deletion is refuted; otherwise its link is searched first,
    and a link that is not VD refutes this node at once, since every link
    of a VD complex is VD (Provan-Billera 1980; Bjorner-Wachs 1997).  The
    deletion is searched only then (the module docstring says why).
    Raises ResourceLimit past VD_REFUTATION_BOUND refutations.
    """
    if len(facets) <= 1:
        return ("simplex",)
    key = _key(facets)
    if key in refuted:
        return None
    support = 0
    for f in facets:
        support |= f
    order = [b for b in order if b & support]
    below = [order[i] for i in _string_order(len(order))]
    closed = dict.fromkeys(order, 0)
    for f in facets:
        rest = f
        while rest:
            low = rest & -rest
            closed[low] |= f
            rest ^= low
    # trial order: descending degree in the 1-skeleton, ties by label
    for x in sorted(order, key=lambda b: -closed[b].bit_count()):
        split = _split_masks(facets, x)
        if split is None or _key(split[0]) in refuted:
            continue
        tree_l = _search(split[1], below, refuted)
        if tree_l is None:
            break
        tree_d = _search(split[0], below, refuted)
        if tree_d is None:
            continue
        return ("shed", x, tree_d, tree_l)
    _refute(refuted, key)
    return None


def _refute(refuted: set, key) -> None:
    refuted.add(key)
    if len(refuted) > VD_REFUTATION_BOUND:
        raise ResourceLimit(f"{len(refuted)} refuted subcomplexes exceeds the "
                            f"VD search refutation bound {VD_REFUTATION_BOUND}")


def _walk(adj: tuple[int, ...], u: int, order: list[int],
          refuted: set[int]) -> Tree | None:
    """`_search` on Ind(G[u]), kept as the vertex mask ``u`` of the flag
    graph G with adjacency bitsets ``adj``.

    Ind(G[u]) is a simplex when G[u] has no edge, and its cone points are
    the isolated vertices of G[u], so ``refuted`` holds u without them.
    Where (beta) holds at x, the deletion is Ind(G[u - x]) and the link is
    Ind(G[u - N[x]]), with u - x and u - N[x] as their supports, and
    `graph._witness` decides (beta) on u - N[x] and N(x) in u.  A cone
    point never sheds, since its deletion is void.  Descending degree in
    the 1-skeleton is ascending degree in G[u], ties by label.  The trial
    rule is `_search`'s: skip a refuted deletion, else search the link,
    then the deletion.  Each node gives `_witness` a fresh `_Memo`, so
    VD_GRAPH_NODE_BOUND bounds one node's (beta) work, and refutations
    count against VD_REFUTATION_BOUND as in `_search`.
    """
    near = {}  # N(b) in u, for each b of u in label order
    key = 0
    for b in order:
        if b & u:
            near[b] = nb = adj[b.bit_length() - 1] & u
            if nb:
                key |= b
    if not key:
        return ("simplex",)
    if key in refuted:
        return None
    order = list(near)
    below = [order[i] for i in _string_order(len(order))]
    degree = {b: nb.bit_count() for b, nb in near.items() if nb}
    memo = _Memo()
    for x in sorted(degree, key=degree.__getitem__):
        link = u & ~(near[x] | x)
        if _witness(adj, link, near[x], memo):
            continue
        # G[u - x] loses its edges at x: the neighbours of x left isolated
        drop = x
        rest = near[x]
        while rest:
            low = rest & -rest
            if near[low] == x:
                drop |= low
            rest ^= low
        if key & ~drop in refuted:
            continue
        tree_l = _walk(adj, link, below, refuted)
        if tree_l is None:
            break
        tree_d = _walk(adj, u ^ x, below, refuted)
        if tree_d is None:
            continue
        return ("shed", x, tree_d, tree_l)
    _refute(refuted, key)
    return None


def _h_triangle(facets: Collection[int]) -> Iterator[tuple[int, list[int]]]:
    """The rows (i, [h_{i,0}, ..., h_{i,i}]) of the h-triangle, one per
    facet size i, largest first (Bjorner-Wachs 1996, Sec. 3).

    f_{i,k} counts the faces of size k whose largest facet has size i.
    Facets go largest first, so a face takes its degree from the first
    facet that holds it, and row i is final once the facets of size i are
    done.  h_{i,j}, the sum over k of (-1)^(j-k) C(i-k, j-k) f_{i,k}, is
    the transform `_f_to_h` of degree i, applied to each row in place.
    """
    seen: set[int] = set()
    for i, group in groupby(sorted(facets, key=int.bit_count, reverse=True),
                            int.bit_count):
        row = [0] * (i + 1)  # f_{i,0..i}, then h_{i,0..i}
        for m in group:
            sub = m
            while True:
                if sub not in seen:
                    seen.add(sub)
                    row[sub.bit_count()] += 1
                if not sub:
                    break
                sub = (sub - 1) & m
        yield i, _f_to_h(row)


def _flag_graph(delta: SimplicialComplex) -> tuple[int, ...] | None:
    """Adjacency bitsets of the graph H with Ind(H) = delta on its support,
    or None when delta is not flag.

    H is the complement of the 1-skeleton on the support.  Each facet is
    independent in H, so delta = Ind(H) exactly when every maximal
    independent set of H is a facet; the walk stops at the first that is
    not, so it lists at most one set more than delta has facets.  A complex
    made by `independence_complex(g)` needs no walk: every vertex of G lies
    in a maximal independent set, and two vertices share one exactly when
    they are not adjacent, so H is G.
    """
    carried = getattr(delta, "_graph_adj", None)
    if carried is not None:
        return carried
    skeleton = [0] * len(delta.ambient)
    support = 0
    for f in delta._masks:
        support |= f
        rest = f
        while rest:
            low = rest & -rest
            skeleton[low.bit_length() - 1] |= f
            rest ^= low
    adj = tuple(support & ~near if near else 0 for near in skeleton)
    facets = set(delta._masks)
    if _mis_walk(adj, support, lambda m: m not in facets):
        return None
    return adj


def _name_order(ambient: tuple) -> list[int]:
    """The positions of ``ambient`` in the string order of their names,
    equal strings by position."""
    return sorted(range(len(ambient)), key=lambda i: str(ambient[i]))


def _top_order(delta: SimplicialComplex) -> list[int]:
    """The support's position bits, in the string order of their names."""
    support = reduce(int.__or__, delta._masks, 0)
    return [1 << i for i in _name_order(delta.ambient) if support >> i & 1]


def is_vertex_decomposable(delta: SimplicialComplex) -> VDCertificate:
    """Exact decision with a replayable certificate or a stuck subcomplex.

    A refutation is the input complex itself: its facets, sorted as the
    tuples of their names' strings.
    A VD complex is shellable (Bjorner-Wachs 1997, Thm 11.3), and a
    shellable one has no negative h-triangle entry (Bjorner-Wachs 1996,
    Thm 3.4), so within H_TRIANGLE_BOUND a negative entry refutes the input
    before any search.  Otherwise a flag complex Ind(H) is decided by the
    graph walk on H's vertex masks, free for `independence_complex`
    outputs, and only a complex that is not flag by the facet search; both
    give the same tree.
    """
    if delta.is_void:
        raise ComplexError("void complex: vertex decomposability undefined")
    masks = delta._masks
    if (sum(1 << m.bit_count() for m in masks) <= H_TRIANGLE_BOUND
            and any(min(row) < 0 for _, row in _h_triangle(masks))):
        tree = None
    elif (adj := _flag_graph(delta)) is not None:
        tree = _walk(adj, reduce(int.__or__, masks), _top_order(delta), set())
    else:
        tree = _search(masks, _top_order(delta), set())
    if tree is not None:

        def named(node: Tree) -> Tree:
            if node[0] == "simplex":
                return node
            return ("shed", delta.ambient[node[1].bit_length() - 1],
                    named(node[2]), named(node[3]))

        return VDCertificate(True, tree=named(tree))
    # bit r of a rank mask is the r-th name in string order, so position
    # order on rank masks is the order of the facets' sorted name strings
    order = _name_order(delta.ambient)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = 1 << r
    ranked = []
    for m in masks:
        rm = 0
        while m:
            low = m & -m
            rm |= rank[low.bit_length() - 1]
            m ^= low
        ranked.append(rm)
    names = tuple(delta.ambient[i] for i in order)
    stuck = tuple(_mask_tuples(names, _by_position(ranked)))
    return VDCertificate(False, refutation=stuck)


def verify_certificate(delta: SimplicialComplex, cert: VDCertificate) -> bool:
    """Replay a positive certificate on the complex's position masks,
    re-checking the shedding conditions at every node.

    Each shed name becomes its bit once.  A node's masks split into the
    deletion (the facets without x) and the link (the others, less x), and
    (beta) holds when every link mask lies inside a deletion mask; facets
    form an antichain, so inside means properly inside.  The replay has
    its own loop and calls neither search, so it checks both.  It rejects
    a negative certificate, a node that is neither ("simplex",) nor a
    4-tuple ("shed", v, deletion, link), a name outside the ambient set, a
    shed vertex in no facet of its node (a void link), a failed (beta), and
    a "simplex" leaf on more than one facet.  Each shed takes its vertex
    out of the support, so no tree replays deeper than the support.  Like
    the searches, it raises ComplexError on the void complex.
    """
    if delta.is_void:
        raise ComplexError("void complex: vertex decomposability undefined")
    if not cert.decomposable:
        return False
    bit = {v: 1 << i for i, v in enumerate(delta.ambient)}

    def replay(facets: Collection[int], node) -> bool:
        if node == ("simplex",):
            return len(facets) <= 1
        if type(node) is not tuple or len(node) != 4 or node[0] != "shed":
            return False
        try:
            x = bit[node[1]]
        except (KeyError, TypeError):  # not a name of the ambient set
            return False
        keep, link = [], []
        for f in facets:
            if f & x:
                link.append(f ^ x)
            else:
                keep.append(f)
        if not link:
            return False
        for c in link:
            for k in keep:
                if not c & ~k:
                    break
            else:
                return False
        return replay(keep, node[2]) and replay(link, node[3])

    return replay(delta._masks, cert.tree)


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
    (beta) only.

    In strong mode both routes decide the whole complex once, at the first
    vertex where (beta) holds, so a complex where none does is never
    searched.  When it is not VD no vertex sheds, since a shedding vertex
    with a VD deletion and link would make it VD.  When it is, so is every
    link (Provan-Billera 1980), and only the deletion at each vertex where
    (beta) holds is decided.  A flag complex is Ind(H) of a graph H: the
    graph engine decides (beta) with `_witness`, which also covers a
    neighbour y of x with N[y] inside N[x] (Woodroofe 2009, Lemma 6), and
    the rest with `_vd`.  Any other complex goes to the facet search, with
    one refuted set for the complex and its deletions.
    """
    if delta.is_void:
        raise ComplexError("void complex has no shedding vertices")
    order = _top_order(delta)
    adj = _flag_graph(delta)
    if adj is None:
        whole = delta._masks
        refuted: set[frozenset[int]] = set()

        def vd(facets) -> bool:
            return _search(facets, order, refuted) is not None

        def beta() -> Iterator[tuple[int, list[int]]]:
            for x in order:
                split = _split_masks(whole, x)
                if split is not None:
                    yield x, split[0]
    else:
        whole = reduce(int.__or__, delta._masks)
        engine = _Memo()

        def vd(u) -> bool:
            return _vd(adj, u, engine)

        def beta() -> Iterator[tuple[int, int]]:
            for x in order:
                near = adj[x.bit_length() - 1]
                if not _witness(adj, whole & ~(near | x), near, engine):
                    yield x, whole ^ x
    shed = []
    decided = weak
    for x, deletion in beta():
        if not decided:
            if not vd(whole):
                break
            decided = True
        if weak or vd(deletion):
            shed.append(x)
    return [delta.ambient[x.bit_length() - 1] for x in shed]


def is_shellable(delta: SimplicialComplex) -> list[tuple[str, ...]] | None:
    """A shelling order, or None if none exists.

    The backtracking keeps each facet as the complement of its mask: F_j
    extends an order when ``_linear_step`` accepts its complement after
    the order's complements.  That depends only on the order as a set, a
    mask of facet indices, so each set is searched once.  Facets are tried
    in ``_masks`` order, the order of ``delta.facets``.
    """
    if delta.is_void:
        raise ComplexError("void complex: shellability undefined")
    t = len(delta._masks)
    if t > DEFAULT_SHELLING_FACET_BOUND:
        raise ResourceLimit(f"{t} facets exceeds the shelling bound "
                            f"{DEFAULT_SHELLING_FACET_BOUND}")
    full = (1 << len(delta.ambient)) - 1
    comp = [full ^ m for m in delta._masks]
    seen: set[int] = set()

    def search(order: tuple[int, ...], used: int) -> tuple[int, ...] | None:
        if len(order) == t:
            return order
        if used in seen:
            return None
        seen.add(used)
        placed = [comp[i] for i in order]
        for j in range(t):
            if not used >> j & 1 and _linear_step(placed, comp[j]):
                hit = search(order + (j,), used | 1 << j)
                if hit is not None:
                    return hit
        return None

    hit, tuples = search((), 0), delta.facet_tuples()
    return None if hit is None else [tuples[j] for j in hit]


def is_unmixed(g: Graph) -> bool:
    """All maximal independent sets (equivalently minimal covers) share one size."""
    sizes = {m.bit_count() for m in g._mis_masks()}
    return len(sizes) <= 1


def is_scm_via_dual(delta: SimplicialComplex, k: FieldSpec = GF2) -> bool:
    """Sequential Cohen-Macaulayness via the componentwise-linear dual test
    (Eagon-Reiner 1998, Duval 1996): for each generator degree e of the
    dual's facet ideal, generated by the facets' complements, the degree-e
    component must have a linear resolution (``has_linear_resolution``).
    An e-set S holds some V - F exactly when V - S lies in the facet F, so
    the component is the complements of the (n - e)-faces, a filter of
    ``_face_masks``, the one face enumeration.  That is the ideal of the
    Alexander dual of the pure skeleton on the (n - e)-faces.  Every pure
    skeleton of a VD complex is shellable, so the component has linear
    quotients (Herzog-Hibi-Zheng 2004) and the greedy certificate answers
    it without the Betti oracle; the oracle decides each component that
    the certificate does not place, and so every False.

    A simplex of any size is SCM.  Every other complex is bounded where
    the work runs: the face set by FACE_ENUMERATION_BOUND, and each
    component by the oracle's DEFAULT_ORACLE_AMBIENT_BOUND (16), past
    which ``has_linear_resolution`` raises ResourceLimit.  So every
    complex on at most 16 vertices is answered, and none past it.
    """
    if delta.is_void:
        raise ComplexError("void complex: SCM test undefined")
    n = len(delta.ambient)
    sizes = {m.bit_count() for m in delta._masks}
    if n in sizes:  # a simplex: the dual ideal is the unit ideal
        return True
    full, faces = (1 << n) - 1, delta._face_masks()
    for s in sorted(sizes, reverse=True):  # dual degrees e = n - s, upwards
        gens = _by_position(full ^ f for f in faces if f.bit_count() == s)
        if not has_linear_resolution(MonomialIdeal._from_masks(delta.ambient, gens), k):
            return False
    return True
