"""Squarefree monomial ideals and graded Betti numbers.

Two independent routes to Betti numbers of cover ideals are provided and
cross-validated: a homology oracle (Hochster-style sum of reduced homology
of vertex-subset restrictions) and a memoised splitting recursion on vertex
masks of the build, at base vertices first and then where the graph engine
`graph._vd` splits.  Its table does not depend on the field.

Indexing convention: a BettiTable with module="ideal" resolves the ideal I
itself, so beta_{i,j}(S/I) = beta_{i-1,j}(I) for i >= 1; module="quotient"
tables carry the (0,0) -> 1 entry of S/I.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import compress
from math import comb
from typing import Iterable, Iterator

from .complexes import (SimplicialComplex, _homology_masks, _MaskFamily,
                        _named, _normalise, independence_complex)
from .fields import GF2, FieldSpec
from .graph import (Graph, ResourceLimit, _by_position, _isolated, _mask_tuples,
                    _Memo, _vd)
from .whisker import WhiskeredGraph, build_whiskered

# Variables the Betti oracle takes unless a caller raises the bound.  The
# squarefree Veronese ideals in 16 variables, where most restrictions
# contribute, took 0.6-6.6 s of CPU time over F2 on a 2-vCPU Xeon with
# Python 3.11 (degree 6, 8,008 generators: 6.6 s, 23 MB peak); in 15
# variables degree 6 took 2.1 s, so each variable costs about three times.
DEFAULT_ORACLE_AMBIENT_BOUND = 16
# No ambient_bound raises the oracle past this many variables: its tables and
# cached masks take about n * 2^n * (n // 8 + 1) bytes, and one 20-variable
# ideal already peaked at 97 MB.
ORACLE_AMBIENT_CEILING = 20
# Distinct subproblems of betti_recursive_cover (the pi build of C100 takes
# 198).  Its tables key beta_{i,j} by i * _STEP_I + j, j < 2^16: shifts are
# sums, and int keys give the garbage collector nothing to track.
RECURSION_NODE_BOUND = 5_000
_STEP_I = 1 << 16


class IdealError(ValueError):
    pass


class MonomialIdeal(_MaskFamily):
    """Squarefree monomial ideal: an antichain of vertex subsets over an
    explicit ambient vertex set.  The unit ideal is the single generator
    empty-set; the zero ideal has no generators.  Like a complex's facets,
    the minimal generators are stored only as position masks in ``_masks``;
    ``generators`` names them on each read."""

    __slots__ = ()

    def __init__(self, ambient: Iterable[str], generators: Iterable[Iterable[str]]):
        self.ambient, self._masks = _normalise(ambient, generators, IdealError,
                                               "generator", minimal=True)

    @property
    def generators(self) -> tuple[frozenset[str], ...]:
        return _named(self.ambient, self._masks)

    @property
    def is_zero(self) -> bool:
        return not self._masks

    @property
    def is_unit(self) -> bool:
        return self._masks == (0,)

    def generator_tuples(self) -> list[tuple[str, ...]]:
        return _mask_tuples(self.ambient, self._masks)

    def __repr__(self) -> str:
        return f"MonomialIdeal({len(self.ambient)} vars, {len(self._masks)} gens)"


def ideal_of(source, kind: str) -> MonomialIdeal:
    """stanley-reisner / facet ideals of a complex; edge / cover ideals of a
    graph."""
    if kind in ("stanley-reisner", "facet"):
        if not isinstance(source, SimplicialComplex):
            raise IdealError(f"{kind} ideal needs a simplicial complex")
        if kind == "facet":
            return MonomialIdeal._from_masks(source.ambient, source._masks)
        return MonomialIdeal._from_masks(source.ambient,
                                         _by_position(source._nonface_masks()))
    if kind in ("edge", "cover"):
        if not isinstance(source, Graph):
            raise IdealError(f"{kind} ideal needs a graph")
        if kind == "edge":
            return MonomialIdeal._from_masks(
                source.vertices, [1 << i | 1 << j for i, j in source.edge_pairs()])
        full = (1 << len(source.vertices)) - 1
        return MonomialIdeal._from_masks(
            source.vertices, _by_position(full ^ m for m in source._mis_masks()))
    raise IdealError(f"unknown ideal kind {kind!r}")


# -- Betti tables ------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    field: FieldSpec
    entries: dict[tuple[int, int], int] = dc_field(default_factory=dict)
    module: str = "ideal"  # or "quotient"

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           {k: v for k, v in self.entries.items() if v})

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def pd(self) -> int:
        if not self.entries:
            raise IdealError("empty Betti table has no projective dimension")
        return max(i for i, _ in self.entries)

    def reg(self) -> int:
        if not self.entries:
            raise IdealError("empty Betti table has no regularity")
        return max(j - i for i, j in self.entries)

    def as_quotient(self) -> "BettiTable":
        if self.module == "quotient":
            return self
        if self.entries == {(0, 0): 1}:  # unit ideal: S/I = 0
            return BettiTable(self.field, {}, "quotient")
        out = {(i + 1, j): v for (i, j), v in self.entries.items()}
        out[(0, 0)] = 1
        return BettiTable(self.field, out, "quotient")

    def as_ideal(self) -> "BettiTable":
        if self.module == "ideal":
            return self
        if not self.entries:  # S/I = 0: I is the unit ideal
            return BettiTable(self.field, {(0, 0): 1}, "ideal")
        if self.entries.get((0, 0)) != 1:
            raise IdealError("quotient table must carry the (0,0) -> 1 entry")
        return BettiTable(self.field,
                          {(i - 1, j): v for (i, j), v in self.entries.items() if i >= 1},
                          "ideal")

    def to_tsv(self) -> str:
        lines = ["i\tj\tbeta"]
        for (i, j) in sorted(self.entries):
            lines.append(f"{i}\t{j}\t{self.entries[(i, j)]}")
        return "\n".join(lines) + "\n"


def betti_join(t1: BettiTable, t2: BettiTable) -> BettiTable:
    """Convolution of quotient-convention tables of two complexes on
    disjoint vertex sets; equals the table of their join."""
    if t1.field != t2.field:
        raise IdealError("field mismatch in join formula")
    if t1.module != "quotient" or t2.module != "quotient":
        raise IdealError("join formula takes quotient-convention tables")
    out: dict[tuple[int, int], int] = {}
    for (p, r), a in t1.entries.items():
        for (q, s), b in t2.entries.items():
            key = (p + q, r + s)
            out[key] = out.get(key, 0) + a * b
    return BettiTable(t1.field, out, "quotient")


# -- the homology oracle -------------------------------------------------------

# Homology by face list and field, for the restrictions that are walked.
# Pass 0 of each of seeds 0-5 fills 21-270 entries on the benchmark's scm
# workload and 539-595 on betti; a cache that reaches the bound is cleared
# and starts over.
HOM_CACHE_BOUND = 1 << 16
_hom_cache: dict[tuple, dict[int, int]] = {}

_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")


@cache
def _subset_masks(n: int, width: int) -> tuple[int, ...]:
    """masks[b] packs one width-bit field per subset W of n vertices, field
    W at bit width * W; the field is all ones when b is not in W, else 0.

    Built by doubling: a run of 2^b full fields, then that run with 2^b
    empty fields after it, repeated 2^(n-b-1) times.  Kept for the life of
    the process; at n = 16 the 24-bit set is 3 MB.
    """
    masks = []
    run, span = (1 << width) - 1, width
    for b in range(n):
        m, period = run, span << 1
        for _ in range(b + 1, n):
            m |= m << period
            period <<= 1
        masks.append(m)
        run |= run << span
        span <<= 1
    return tuple(masks)


def _byte_table(bits: int, size: int) -> bytes:
    """Bits 0 .. size-1 as one 0/1 byte each."""
    return format(bits, f"0{size}b").encode()[::-1].translate(_ASCII_BITS)


def _restriction_homology(w: int, nonface: bytes, faces: int,
                          k: FieldSpec) -> dict[int, int]:
    """Reduced homology dims of the restriction to W of the complex whose
    faces are the S with nonface[S] == 0; ``faces`` counts those inside W.

    The faces of the Alexander dual inside W are the S whose complement
    W - S is a nonface, so the two counts add up to 2^|W|; the smaller
    family is walked (the faces on a tie), and a dual result is read through
    H~_i(D) = H~_{|W|-i-3}(D^dual), where |W| counts every vertex of W.
    Only the family's support is numbered: the bits b of W with {b} in the
    family.  Both families are closed under subsets, so the walk goes level
    by level, one face size at a time, from the empty set, adding support
    bits in increasing order; on the dual side it holds the complement
    W - S and clears them instead.  Either way a set t held is in the
    family when nonface[t] == dual.  The order depends only on the family,
    so the list is a cache key for every W whose family is the same complex,
    whatever vertices of W lie in none of its faces.
    """
    nw = w.bit_count()
    dual = 2 * faces > 1 << nw
    origin = w if dual else 0
    bits = []
    rest = w
    while rest:
        low = rest & -rest
        rest ^= low
        if nonface[origin ^ low] == dual:
            bits.append(low)
    found = [0]
    level = [(origin, 0, 0)]
    while level:
        grown = []
        for s, local, start in level:
            for i in range(start, len(bits)):
                t = s ^ bits[i]
                if nonface[t] == dual:
                    found.append(local | 1 << i)
                    grown.append((t, local | 1 << i, i + 1))
        level = grown
    key = (tuple(found), k.p)
    hit = _hom_cache.get(key)
    if hit is None:
        if len(_hom_cache) >= HOM_CACHE_BOUND:
            _hom_cache.clear()
        hit = _hom_cache[key] = _homology_masks(found, k)
    if dual:
        return {nw - d - 3: dim for d, dim in hit.items() if dim}
    return hit


def _subset_tables(gens: tuple[int, ...],
                   n: int) -> tuple[bytes, bytes, bytes, bytes, int]:
    """Tables over the 2^n subsets of n vertices with the given distinct
    generator masks, built with whole-table big-int operations instead of a
    loop over subsets.  A nonempty W contributes when every vertex of W lies
    in a generator inside W; any other W has a cone point, so its
    restriction is acyclic.  A contributing W is the union of the generators
    inside it: with one it is that generator, with two it is their union.
    Returns (nonface, pairs, walked, faces_below, nbytes), one 0/1 byte per
    subset in the first three:
    - nonface: the upward closure of the generators;
    - pairs: the contributing W with exactly two generators inside;
    - walked: the contributing W with three or more generators inside, the
      only W whose restriction ``_betti_terms`` walks;
    - faces_below: one little-endian counter of nbytes = n // 8 + 1 bytes
      per subset (so 2^n fits), the number of faces inside it: the face
      indicator summed over subsets, one shift-add per vertex.
    The generators inside W are counted up to three by one carry-save pass:
    ``up`` is the supersets of a generator, the AND of the subsets holding
    each of its vertices, and it carries into ``twice`` where ``once`` is
    set and into ``thrice`` where ``twice`` is; the pass also ORs it into
    ``covered[b]`` for each vertex b of the generator.
    """
    size = 1 << n
    full = (1 << size) - 1
    masks = _subset_masks(n, 1)
    holding = [full ^ m for m in masks]  # the W that hold vertex b
    covered = [0] * n  # the W that contain a generator holding vertex b
    once = twice = thrice = 0
    for g in gens:
        vertices = [b for b in range(g.bit_length()) if g >> b & 1]
        up = full
        for b in vertices:
            up &= holding[b]
        for b in vertices:
            covered[b] |= up
        thrice |= twice & up
        twice |= once & up
        once |= up
    contributing = full ^ 1  # W = 0 never contributes
    for b in range(n):
        contributing &= masks[b] | covered[b]

    nbytes = n // 8 + 1
    packed = bytearray(nbytes * size)
    packed[::nbytes] = _byte_table(full ^ once, size)
    below = int.from_bytes(packed, "little")
    for b, m in enumerate(_subset_masks(n, 8 * nbytes)):
        below += (below & m) << (8 * nbytes << b)
    return (_byte_table(once, size),
            _byte_table(contributing & twice & ~thrice, size),
            _byte_table(contributing & thrice, size),
            below.to_bytes(nbytes * size, "little"), nbytes)


def _betti_terms(ideal: MonomialIdeal, k: FieldSpec, ambient_bound: int,
                 skip_up_to: int = 0) -> Iterator[tuple[int, int, int]]:
    """The nonzero (i, j, dim) terms of Hochster's sum for a proper nonzero
    ideal, leaving out every W of at most ``skip_up_to`` vertices.

    The terms of a W with one or two generators inside come from the tables
    of ``_subset_tables`` without a walk, by the upper Koszul complex
    (Miller-Sturmfels 2005, Thm 1.34) over every field: first each
    generator g, as W = g, gives (0, |g|, 1) in the ideal's order; then
    each W = g | g' of two, whose Alexander dual is the two disjoint
    simplices W - g and W - g', gives (1, |W|, 1) in increasing order of W.
    Last come the terms of the W with three or more generators inside,
    restriction by restriction in increasing order of W, each walked by
    ``_restriction_homology``."""
    n = len(ideal.ambient)
    if n > ambient_bound:
        raise ResourceLimit(f"ambient size {n} exceeds the oracle bound {ambient_bound}")
    if n > ORACLE_AMBIENT_CEILING:
        raise ResourceLimit(f"ambient size {n} exceeds the oracle ceiling "
                            f"{ORACLE_AMBIENT_CEILING}, which no bound raises")
    nonface, pairs, walked, faces_below, nbytes = _subset_tables(ideal._masks, n)
    for g in ideal._masks:
        if g.bit_count() > skip_up_to:
            yield 0, g.bit_count(), 1
    for w in compress(range(1 << n), pairs):
        if w.bit_count() > skip_up_to:
            yield 1, w.bit_count(), 1
    for w in compress(range(1 << n), walked):
        j = w.bit_count()
        if j <= skip_up_to:
            continue
        at = nbytes * w
        faces = int.from_bytes(faces_below[at:at + nbytes], "little")
        for hdeg, dim in _restriction_homology(w, nonface, faces, k).items():
            i = j - hdeg - 2
            if i >= 0 and dim:
                yield i, j, dim


def betti_oracle(ideal: MonomialIdeal, k: FieldSpec = GF2,
                 ambient_bound: int = DEFAULT_ORACLE_AMBIENT_BOUND) -> BettiTable:
    """Exact graded Betti numbers of the ideal over k.

    Sums reduced homology over the vertex-subset restrictions of the complex
    whose Stanley-Reisner ideal this is (Hochster's formula).  Bitset tables
    over all 2^n subsets pick the restrictions that can contribute and count
    the generators inside each up to three.  A restriction with one or two
    generators gives its one term from the tables, the generators' first and
    then the pairs'; only those with three or more are walked, and the
    tables tell each walk which subsets are faces and whether the
    restriction or its Alexander dual has fewer faces (see
    ``_subset_tables`` and ``_betti_terms``).  Raises ResourceLimit over
    ``ambient_bound`` or ``ORACLE_AMBIENT_CEILING`` variables.
    """
    if ideal.is_zero:
        return BettiTable(k, {}, "ideal")
    if ideal.is_unit:
        return BettiTable(k, {(0, 0): 1}, "ideal")
    entries: dict[tuple[int, int], int] = {}
    for i, j, dim in _betti_terms(ideal, k, ambient_bound):
        entries[(i, j)] = entries.get((i, j), 0) + dim
    return BettiTable(k, entries, "ideal")


# -- recursion for cover ideals of whiskered graphs -----------------------------

def betti_recursive_cover(w: WhiskeredGraph, k: FieldSpec = GF2) -> BettiTable:
    """Betti table of the cover ideal J of a whiskered graph by one memoised
    splitting rule, on vertex masks over ``w.graph``'s adjacency bitsets.

    At a shedding vertex x with m = |N(x)| left, J(G) = x J(G - x) +
    m_{N(x)} J(G - N[x]), so the table is the deletion table at (i, j+1)
    plus the link table at (i, j+m) and (i+1, j+m+1).  A base vertex sheds,
    as a whisker neighbour y has N[y] inside N[x] (Woodroofe 2009, Lemma 6),
    so the lowest one left goes first, as in the paper.  Isolated vertices,
    in no minimal cover, are dropped, so a pi, cc or mc build ends there.
    An md build leaves its whisker graphs, split where `graph._vd`
    records: at a shed vertex, or into components, whose tables convolve.
    No step depends on the field; ``k`` only labels the table.  Raises
    ResourceLimit past RECURSION_NODE_BOUND distinct subproblems, or past
    VD_GRAPH_NODE_BOUND in ``_vd``.
    """
    adj = w.graph._adj
    base = w.graph._to_mask(w.base.vertices)
    memo, tables = _Memo(), {0: {0: 1}}  # no edge left: the unit ideal

    def rec(u: int) -> dict[int, int]:
        u &= ~_isolated(adj, u)
        if u in tables:
            return tables[u]
        split = u & base & -(u & base) or _vd(adj, u, memo)  # base first
        if not split:
            raise IdealError("the graph is not vertex decomposable")
        if split & (split - 1):  # a component's mask, not a shed vertex's bit
            table, rest = {}, rec(u ^ split).items()
            for a, x in rec(split).items():
                for b, y in rest:
                    table[a + b] = table.get(a + b, 0) + x * y
        else:
            near = adj[split.bit_length() - 1] & u
            m = near.bit_count()
            table = {key + 1: v for key, v in rec(u ^ split).items()}
            for key, v in rec(u & ~(near | split)).items():
                for at in (key + m, key + _STEP_I + m + 1):
                    table[at] = table.get(at, 0) + v
        if len(tables) >= RECURSION_NODE_BOUND:
            raise ResourceLimit(f"{len(tables) + 1} recursion nodes exceeds the "
                                f"recursion node bound {RECURSION_NODE_BOUND}")
        tables[u] = table
        return table

    return BettiTable(k, {divmod(key, _STEP_I): v for key, v
                          in rec((1 << len(adj)) - 1).items()}, "ideal")


# -- closed formula for pi-builds ------------------------------------------------

@dataclass(frozen=True)
class ClosedFormBetti:
    i: int
    oracle: int
    formula: int

    @property
    def discrepancy(self) -> bool:
        return self.oracle != self.formula


def betti_closed_pi(g: Graph, spec, i: int, k: FieldSpec = GF2) -> ClosedFormBetti:
    """Evaluate the closed-form beta_{i, i+n} of the pi-build's cover ideal
    (n = base vertex count) alongside the oracle; the oracle adjudicates."""
    wg = build_whiskered(g, spec, "pi")
    ind = independence_complex(g)
    f = ind.f_vector()
    d = ind.dim
    formula = sum(comb(j, i) * f[j] for j in range(1, d + 2))
    table = betti_oracle(ideal_of(wg.graph, "cover"), k)
    oracle = table.get(i, i + len(g.vertices))
    return ClosedFormBetti(i, oracle, formula)


def _linear_quotients(gens: tuple[int, ...], budget: int) -> bool:
    """True when a greedy order of the generators has linear quotients.

    The order grows a prefix P by the first generator g left whose colon
    P : g is generated by variables.  Over squarefree masks P : g is
    generated by the differences p - g, so every p in P must meet
    ``singles``, the union of the one-vertex differences: it lies outside
    g, and a one-vertex difference always meets it.  Each difference counts
    against ``budget``; False means the order was not found in it, or at
    all, and says nothing about the ideal.
    """
    placed, rest = [gens[0]], list(gens[1:])
    while rest:
        for at, g in enumerate(rest):
            budget -= len(placed)
            if budget < 0:
                return False
            singles = 0
            for p in placed:
                d = p & ~g
                if not d & (d - 1):
                    singles |= d
            for p in placed:
                if not p & singles:
                    break
            else:  # every placed generator meets singles
                placed.append(rest.pop(at))
                break
        else:
            return False
    return True


def _hochster_linear(ideal: MonomialIdeal, k: FieldSpec) -> bool:
    """The oracle's verdict on a proper nonzero ideal of one degree e: no
    term of Hochster's sum off the strand j = i + e."""
    e = ideal._masks[0].bit_count()
    # A W of at most e + 1 vertices gives terms on the strand only, so those
    # W are skipped.  Below e vertices the restriction is a simplex, and at e
    # it is a simplex or the boundary of W.  At e + 1 it holds every
    # (e-1)-subset of W; its one possible (e-1)-cycle needs every e-subset,
    # so a generator inside W leaves none, and without one it is a simplex.
    # The pairs' terms (1, |g | g'|) come from the tables before any walk,
    # so two generators whose union has more than e + 1 vertices answer
    # False at once; the restrictions with three or more generators are
    # walked only after every pair lies on the strand, and the walks stop
    # at the first term off it.
    return all(j == i + e for i, j, _ in
               _betti_terms(ideal, k, DEFAULT_ORACLE_AMBIENT_BOUND, e + 1))


def has_linear_resolution(ideal: MonomialIdeal, k: FieldSpec = GF2) -> bool:
    """All generators in one degree e and beta_{i,j} = 0 unless j = i + e.

    An order of the generators with linear quotients certifies a linear
    resolution over every field (Herzog-Takayama 2002), so a greedy search
    for one (``_linear_quotients``) comes first, within n * 2^n
    differences for n variables, about the work of the oracle's subset
    tables.  Every other ideal, and every False, goes to the Hochster
    oracle over k; so does an ideal past DEFAULT_ORACLE_AMBIENT_BOUND
    variables, which the oracle refuses with ResourceLimit.
    """
    if ideal.is_zero or ideal.is_unit:
        return True
    if len({m.bit_count() for m in ideal._masks}) > 1:
        return False
    n = len(ideal.ambient)
    if n <= DEFAULT_ORACLE_AMBIENT_BOUND and _linear_quotients(ideal._masks, n << n):
        return True
    return _hochster_linear(ideal, k)
