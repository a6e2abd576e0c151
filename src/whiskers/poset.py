"""The partial order on facets of the independence complex of a pi-build.

Facets are ordered by inclusion of their base parts (F1 <= F2 iff
F1 minus the whisker set is contained in F2 minus the whisker set); the
all-whisker facet is the least element.  Interval statistics are computed by
explicit traversal so the closed forms (2^r elements, r! maximal chains) are
tested rather than assumed.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, GraphError, ResourceLimit
from .whisker import PartitionSpec, WhiskeredGraph, _check


# The inclusion-exclusion count sums over every nonempty subset of the
# maximal independent sets: 2^20 terms took about a second on a 2-vCPU Xeon
# with Python 3.11.
INCLUSION_EXCLUSION_MIS_BOUND = 20


class PosetError(ValueError):
    pass


class FacetPoset:
    """Facets and base parts are kept as position masks over ``w.graph``;
    ``facets``, ``base_parts``, ``least`` and ``maximal_elements`` name them
    on each read."""

    def __init__(self, w: WhiskeredGraph):
        if w.kind != "pi":
            raise PosetError("the facet poset is defined for kind=pi builds only")
        self.whiskered = w
        self.whisker_set = w.added
        g = w.graph
        added = g._to_mask(w.added)
        masks = g._mis_masks()
        parts = [f & ~added for f in masks]
        if len(set(parts)) != len(parts):
            raise PosetError("antisymmetry violated: two facets share a base part")
        # a base part sorts by its size, then by its names in string order:
        # with bit n-1-r for the name of string rank r, a larger mask among
        # parts of one size is an earlier sorted list of ranks
        n = len(g.vertices)
        flip = [0] * n
        for r, i in enumerate(sorted(range(n), key=g.vertices.__getitem__)):
            flip[i] = 1 << n - 1 - r
        keys = []
        for part in parts:
            rev, rest = 0, part
            while rest:
                low = rest & -rest
                rev |= flip[low.bit_length() - 1]
                rest ^= low
            keys.append((part.bit_count(), -rev))
        order = sorted(range(len(parts)), key=keys.__getitem__)
        self._facets = [masks[i] for i in order]
        self._parts = [parts[i] for i in order]
        if self._parts[0]:
            raise PosetError("least element (the all-whisker facet) is missing")
        self._index = {bp: i for i, bp in enumerate(self._parts)}
        # Hasse diagram: covers add exactly one base vertex
        base = g._to_mask(w.base.vertices)
        self.covers: list[list[int]] = []
        for small in self._parts:
            ups = []
            rest = base & ~small
            while rest:
                low = rest & -rest
                j = self._index.get(small | low)
                if j is not None:
                    ups.append(j)
                rest ^= low
            ups.sort()
            self.covers.append(ups)

    def __len__(self) -> int:
        return len(self._facets)

    def _named(self, mask: int) -> frozenset[str]:
        return self.whiskered.graph._from_mask(mask)

    @property
    def facets(self) -> list[frozenset[str]]:
        return [self._named(m) for m in self._facets]

    @property
    def base_parts(self) -> list[frozenset[str]]:
        return [self._named(m) for m in self._parts]

    @property
    def least(self) -> frozenset[str]:
        return self._named(self._facets[0])

    def le(self, f1: frozenset[str], f2: frozenset[str]) -> bool:
        return f1 - self.whisker_set <= f2 - self.whisker_set

    def maximal_elements(self) -> list[frozenset[str]]:
        return [self._named(m) for m, ups in zip(self._facets, self.covers) if not ups]

    def interval_stats(self, f: frozenset[str]) -> tuple[int, int]:
        """(size of [W, F], number of maximal chains), by explicit traversal."""
        names = frozenset(f) - self.whisker_set
        try:
            i = self._index.get(self.whiskered.graph._to_mask(names))
        except GraphError:
            i = None
        if i is None:
            raise PosetError("not a poset element")
        top = self._parts[i]
        if self.covers[i]:
            raise PosetError("interval statistics are defined for maximal elements")
        # chains by dynamic programming up the covers; parts below i come first
        chains = {0: 1}
        for j in range(i):
            if j in chains:
                for up in self.covers[j]:
                    if not self._parts[up] & ~top:
                        chains[up] = chains.get(up, 0) + chains[j]
        return len(chains), chains.get(i, 0)

    def to_dot(self) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, f in enumerate(self.facets):
            lines.append(f'  n{i} [label="{" ".join(sorted(f))}"];')
        for i, ups in enumerate(self.covers):
            for j in ups:
                lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def count_facets_pi(g: Graph, spec: PartitionSpec) -> int:
    """Facet count of the pi-build's independence complex by
    inclusion-exclusion over the boolean intervals below the maximal
    independent sets of the base graph.  Raises WhiskerError when the spec
    does not build a pi build on g, and ResourceLimit when there are more
    than INCLUSION_EXCLUSION_MIS_BOUND maximal independent sets."""
    _check(g, spec, "pi")
    mis = [frozenset(s) for s in g.maximal_independent_sets()]
    if len(mis) > INCLUSION_EXCLUSION_MIS_BOUND:
        raise ResourceLimit(f"{len(mis)} maximal independent sets > "
                            f"bound {INCLUSION_EXCLUSION_MIS_BOUND}")
    total = 0
    for k in range(1, len(mis) + 1):
        for sub in combinations(mis, k):
            inter = frozenset.intersection(*sub)
            total += (-1) ** (k + 1) * 2 ** len(inter)
    return total
