"""The partial order on facets of the independence complex of a pi-build.

Facets are ordered by inclusion of their base parts (F1 <= F2 iff
F1 minus the whisker set is contained in F2 minus the whisker set); the
all-whisker facet is the least element.  Interval statistics are computed by
explicit traversal so the closed forms (2^r elements, r! maximal chains) are
tested rather than assumed.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import independence_complex
from .graph import Graph, ResourceLimit
from .whisker import PartitionSpec, WhiskeredGraph, build_whiskered


# The inclusion-exclusion count sums over every nonempty subset of the
# maximal independent sets: 2^20 terms took about a second on a 2-vCPU Xeon
# with Python 3.11.
INCLUSION_EXCLUSION_MIS_BOUND = 20


class PosetError(ValueError):
    pass


class FacetPoset:
    def __init__(self, w: WhiskeredGraph):
        if w.kind != "pi":
            raise PosetError("the facet poset is defined for kind=pi builds only")
        self.whiskered = w
        self.complex = independence_complex(w.graph)
        self.whisker_set = w.added
        facets = list(self.complex.facets)
        base_parts = [f - w.added for f in facets]
        if len(set(base_parts)) != len(base_parts):
            raise PosetError("antisymmetry violated: two facets share a base part")
        order = sorted(range(len(facets)),
                       key=lambda i: (len(base_parts[i]),
                                      tuple(sorted(base_parts[i]))))
        self.facets = [facets[i] for i in order]
        self.base_parts = [base_parts[i] for i in order]
        if self.base_parts[0] != frozenset():
            raise PosetError("least element (the all-whisker facet) is missing")
        self._index = {bp: i for i, bp in enumerate(self.base_parts)}
        # Hasse diagram: covers add exactly one base vertex
        base = set(w.base.vertices)
        self.covers: list[list[int]] = []
        for small in self.base_parts:
            ups = (self._index.get(small | {v}) for v in base - small)
            self.covers.append(sorted(j for j in ups if j is not None))

    def __len__(self) -> int:
        return len(self.facets)

    @property
    def least(self) -> frozenset[str]:
        return self.facets[0]

    def le(self, f1: frozenset[str], f2: frozenset[str]) -> bool:
        return f1 - self.whisker_set <= f2 - self.whisker_set

    def maximal_elements(self) -> list[frozenset[str]]:
        return [self.facets[i] for i in range(len(self.facets)) if not self.covers[i]]

    def interval_stats(self, f: frozenset[str]) -> tuple[int, int]:
        """(size of [W, F], number of maximal chains), by explicit traversal."""
        f = frozenset(f)
        top = f - self.whisker_set
        i = self._index.get(top)
        if i is None:
            raise PosetError("not a poset element")
        if self.covers[i]:
            raise PosetError("interval statistics are defined for maximal elements")
        # chains by dynamic programming up the covers; parts below i come first
        chains = {0: 1}
        for j in range(i):
            if j in chains:
                for up in self.covers[j]:
                    if self.base_parts[up] <= top:
                        chains[up] = chains.get(up, 0) + chains[j]
        return len(chains), chains.get(i, 0)

    def to_dot(self) -> str:
        def label(i: int) -> str:
            return " ".join(sorted(self.facets[i]))

        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i in range(len(self.facets)):
            lines.append(f'  n{i} [label="{label(i)}"];')
        for i, ups in enumerate(self.covers):
            for j in ups:
                lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def count_facets_pi(g: Graph, spec: PartitionSpec) -> int:
    """Facet count of the pi-build's independence complex by
    inclusion-exclusion over the boolean intervals below the maximal
    independent sets of the base graph.  Raises ResourceLimit when there
    are more than INCLUSION_EXCLUSION_MIS_BOUND of them."""
    # validates the spec for kind=pi as a side effect
    build_whiskered(g, spec, "pi")
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
