"""Simplicial complexes by facet list.

Supports deletion, link, Alexander dual, join, restriction, f/h-vectors and
reduced homology over a prime field or the rationals.  The void complex (no
facets) and the irrelevant complex (single empty facet) are distinct values.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Iterator

from .fields import QQ, FieldSpec, reduce_column
from .graph import (MAX_VERTICES, Graph, ResourceLimit, _by_position, _close_up,
                    _mask_bits, _mask_tuples)

# Faces one face set may hold.  The tests and the property suites reach at
# most 23,168; 2^18 faces took 0.05 s and 15 MB on a 2-vCPU Xeon with
# Python 3.11, and 2^20 took 0.22 s and 77 MB.
FACE_ENUMERATION_BOUND = 1 << 18


class ComplexError(ValueError):
    pass


def _f_to_h(row: list[int]) -> list[int]:
    """Turn (f_0, ..., f_n) into (h_0, ..., h_n) in place and return it.

    h_j is the sum over k of (-1)^(j-k) C(n-k, j-k) f_k, the coefficients
    of sum_j h_j x^(n-j) = sum_k f_k (x-1)^(n-k): a Taylor shift by -1,
    done by n rounds of synthetic division by x - 1, with no binomial.
    """
    n = len(row) - 1
    for r in range(n):
        for j in range(1, n + 1 - r):
            row[j] -= row[j - 1]
    return row


def _maximal(masks: list[int]) -> list[int]:
    """Indices of the inclusion-maximal masks; of equal masks, the first.

    Masks are taken from largest to smallest.  Bit j of holders[b] says that
    the j-th kept mask contains bit b, so a mask lies inside a kept one
    exactly when the AND of holders over its bits is nonzero.
    """
    holders = [0] * max(masks, default=0).bit_length()
    kept: list[int] = []
    for i in sorted(range(len(masks)), key=lambda i: -masks[i].bit_count()):
        inside = (1 << len(kept)) - 1
        rest = masks[i]
        while rest and inside:
            low = rest & -rest
            inside &= holders[low.bit_length() - 1]
            rest ^= low
        if inside:
            continue
        rest = masks[i]
        while rest:
            low = rest & -rest
            holders[low.bit_length() - 1] |= 1 << len(kept)
            rest ^= low
        kept.append(i)
    return kept


def _normalise(ambient: Iterable[str], sets: Iterable[Iterable[str]],
               error: type[ValueError], noun: str,
               minimal: bool = False) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The ambient tuple and the antichain of a set family as position masks.

    Keeps the inclusion-maximal sets, or with ``minimal`` the minimal ones
    (the maximal complements), and sorts them with ``_by_position``.  It is
    where the names of a complex's facets or an ideal's generators become
    bits; ``_named`` turns the masks back into names.
    """
    amb = tuple(ambient)
    pos = {v: i for i, v in enumerate(amb)}
    if len(pos) != len(amb):
        raise error("duplicate ambient vertices")
    fs = [frozenset(s) for s in sets]
    for f in fs:
        if not f <= pos.keys():
            raise error(f"{noun} {sorted(f)} not within ambient set")
    bit = {v: 1 << i for v, i in pos.items()}
    masks = [sum(map(bit.__getitem__, f)) for f in fs]
    flip = (1 << len(amb)) - 1 if minimal else 0
    return amb, tuple(_by_position(masks[i] for i in _maximal([flip ^ m for m in masks])))


def _named(ambient: tuple[str, ...], masks: Iterable[int]) -> tuple[frozenset[str], ...]:
    out = []
    for m in masks:
        names = []
        while m:
            low = m & -m
            names.append(ambient[low.bit_length() - 1])
            m ^= low
        out.append(frozenset(names))
    return tuple(out)


class _MaskFamily:
    """An antichain of subsets of ``ambient``, stored only as position masks
    in ``_masks``, in ``_by_position`` order; equality and hashing read
    them.  Names are built from the masks when a caller asks for them."""

    __slots__ = ("ambient", "_masks")

    @classmethod
    def _from_masks(cls, ambient: tuple[str, ...], masks: Iterable[int]):
        """The family of ``masks``, already an antichain over ``ambient`` in
        ``_by_position`` order, so names are never turned into bits."""
        family = cls.__new__(cls)
        family.ambient, family._masks = ambient, tuple(masks)
        return family

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.ambient == other.ambient
                and self._masks == other._masks)

    def __hash__(self) -> int:
        return hash((self.ambient, self._masks))


class SimplicialComplex(_MaskFamily):
    """Facets are stored as position masks over ``ambient`` in ``_masks``;
    ``facets`` names them on each read, in the same position order.

    A complex made by ``independence_complex(g)`` also carries ``g._adj`` in
    ``_graph_adj``, the graph H with Ind(H) equal to it; on any other
    complex that slot is unset.  Equality and hashing ignore it."""

    __slots__ = ("_graph_adj",)

    def __init__(self, ambient: Iterable[str], facets: Iterable[Iterable[str]]):
        """The checked entry for names and facets from outside, within the
        graphs' MAX_VERTICES: a certificate's depth is at most its support."""
        ambient = tuple(ambient)
        if len(ambient) > MAX_VERTICES:
            raise ComplexError(f"complex exceeds {MAX_VERTICES} vertices")
        self.ambient, self._masks = _normalise(ambient, facets, ComplexError, "facet")

    @property
    def facets(self) -> tuple[frozenset[str], ...]:
        return _named(self.ambient, self._masks)

    # -- basics --------------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self._masks

    @property
    def is_irrelevant(self) -> bool:
        return self._masks == (0,)

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ComplexError("void complex has no dimension")
        return max(m.bit_count() for m in self._masks) - 1

    def __repr__(self) -> str:
        return f"SimplicialComplex(ambient={len(self.ambient)}, facets={len(self._masks)})"

    def facet_tuples(self) -> list[tuple[str, ...]]:
        return _mask_tuples(self.ambient, self._masks)

    def support(self) -> frozenset[str]:
        return _named(self.ambient, [reduce(int.__or__, self._masks, 0)])[0]

    def _face_masks(self) -> set[int]:
        """Every face as a position mask, the empty face included.

        Raises ResourceLimit past FACE_ENUMERATION_BOUND faces.  A facet
        whose 2^|F| subsets alone pass the bound is refused before they are
        listed, so the set never holds more than twice the bound.
        """
        faces: set[int] = set()
        for m in self._masks:
            if 1 << m.bit_count() <= FACE_ENUMERATION_BOUND:
                faces.update(_subsets_of(m))
                if len(faces) <= FACE_ENUMERATION_BOUND:
                    continue
            raise ResourceLimit("faces exceed the face enumeration bound "
                                f"{FACE_ENUMERATION_BOUND}")
        return faces

    def has_face(self, s: Iterable[str]) -> bool:
        fs = frozenset(s)
        m = self._positions(fs)
        # a name outside the ambient set has no position, so no face holds it
        return m.bit_count() == len(fs) and any(not m & ~f for f in self._masks)

    def minimal_nonfaces(self) -> list[frozenset[str]]:
        """Minimal subsets of the ambient set that are not faces."""
        return list(_named(self.ambient, self._nonface_masks()))

    def _nonface_masks(self) -> list[int]:
        """``minimal_nonfaces`` as position masks, by size, then position: the
        nonfaces N with every N - {c} a face, read off ``_face_masks``, the one
        face enumeration, each from the face N - {max N} and the bit max N."""
        if self.is_void:
            return [0]
        faces = self._face_masks()
        out = [n for s in faces for b in range(s.bit_length(), len(self.ambient))
               if (n := s | 1 << b) not in faces
               and all(n ^ 1 << i in faces for i in _mask_bits(s))]
        return sorted(_by_position(out), key=int.bit_count)

    # -- constructions ---------------------------------------------------------

    def _positions(self, names: frozenset[str]) -> int:
        """The mask of the ambient positions of those names in ``ambient``."""
        return sum(1 << i for i, v in enumerate(self.ambient) if v in names)

    def _cut(self, keep: int, masks: Iterable[int],
             antichain: bool = False) -> "SimplicialComplex":
        """The complex on the positions in ``keep`` whose facets are the
        maximal ``masks`` cut to them; ``antichain`` says that the cut masks
        are one already."""
        amb = tuple(v for i, v in enumerate(self.ambient) if keep >> i & 1)
        cut = _close_up(masks, keep)
        if not antichain:
            cut = [cut[i] for i in _maximal(cut)]
        return SimplicialComplex._from_masks(amb, _by_position(cut))

    def deletion(self, h: Iterable[str]) -> "SimplicialComplex":
        full = (1 << len(self.ambient)) - 1
        return self._cut(full ^ self._positions(frozenset(h)), self._masks)

    def link(self, h: Iterable[str]) -> "SimplicialComplex":
        hs = frozenset(h)
        gone = self._positions(hs)
        facets = [m for m in self._masks if m & gone == gone]
        if not facets or gone.bit_count() < len(hs):
            raise ComplexError(f"{sorted(hs)} is not a face; link undefined")
        # facets that hold h stay an antichain once h is taken out
        full = (1 << len(self.ambient)) - 1
        return self._cut(full ^ gone, facets, antichain=True)

    def deletion_and_link(self, h: Iterable[str]) -> tuple["SimplicialComplex", "SimplicialComplex"]:
        return self.deletion(h), self.link(h)

    def alexander_dual(self) -> "SimplicialComplex":
        if not self.ambient:
            raise ComplexError("Alexander dual needs a nonempty ambient set")
        full = (1 << len(self.ambient)) - 1
        return SimplicialComplex._from_masks(
            self.ambient, _by_position(full ^ m for m in self._nonface_masks()))

    def complement_facet_complex(self) -> "SimplicialComplex":
        full = (1 << len(self.ambient)) - 1
        return SimplicialComplex._from_masks(
            self.ambient, _by_position(full ^ m for m in self._masks))

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        overlap = set(self.ambient) & set(other.ambient)
        if overlap:
            raise ComplexError(f"ambient sets overlap: {sorted(overlap)}")
        # unions of two antichains on disjoint sets are an antichain
        n = len(self.ambient)
        return SimplicialComplex._from_masks(
            self.ambient + other.ambient,
            _by_position(f1 | f2 << n for f1 in self._masks for f2 in other._masks))

    def restriction(self, w: Iterable[str]) -> "SimplicialComplex":
        return self._cut(self._positions(frozenset(w)), self._masks)

    # -- enumerative invariants -------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_d)."""
        if self.is_void:
            raise ComplexError("void complex has no f-vector")
        counts = [0] * (self.dim + 2)
        for m in self._face_masks():
            counts[m.bit_count()] += 1
        return tuple(counts)

    def h_vector(self) -> tuple[int, ...]:
        """Binomial transform of the f-vector: (h_0, ..., h_{d+1}).

        For nonpure complexes this is the same formal transform with
        d = dim.
        """
        return tuple(_f_to_h(list(self.f_vector())))

    def purity_range(self) -> tuple[int, int]:
        """(min facet dim, max facet dim); pure iff the two agree."""
        if self.is_void:
            raise ComplexError("void complex has no purity range")
        sizes = [m.bit_count() for m in self._masks]
        return min(sizes) - 1, max(sizes) - 1

    @property
    def is_pure(self) -> bool:
        lo, hi = self.purity_range()
        return lo == hi

    def euler_characteristic_reduced(self) -> int:
        f = self.f_vector()
        return -f[0] + sum((-1) ** k * f[k + 1] for k in range(self.dim + 1))

    # -- homology ---------------------------------------------------------------

    def reduced_homology_dims(self, k: FieldSpec = QQ) -> dict[int, int]:
        """Dims of reduced homology over k, as {i: dim} for i = -1 .. dim.

        Void complex: empty mapping (all zero).  Irrelevant complex: {-1: 1}.
        """
        if self.is_void:
            return {}
        return _homology_masks(self._face_masks(), k)


def _subsets_of(mask: int) -> Iterator[int]:
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _homology_masks(faces: Iterable[int], k: FieldSpec) -> dict[int, int]:
    """Reduced homology dims of a complex given as face bitmasks (incl. 0).

    The faces of each dimension are indexed once, in the order they arrive.
    The boundaries are reduced top down, d_top first and d_0 (onto the empty
    face) last, each column by ``fields.reduce_column``: over F2 a bitset
    of its facets' indices, over any other field a sparse {index: +-1} dict
    of its d+1 entries (-1 written as p - 1 over F_p), built by a lowest-bit
    loop over the face.  rank d_d is the number of pivots.  Clearing (the
    twist of persistent homology) skips the column of every d-face that is
    the low of a d_{d+1} pivot: that pivot z is a cycle, d_d z = 0, and its
    highest entry lies at the face, so the face's column is a combination
    of columns of lower index and the rank is the same without it, for any
    face order.
    """
    by_dim: dict[int, list[int]] = {}
    for m in faces:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    top = max(by_dim)
    if top == -1:
        return {-1: 1}
    p = k.p
    neg = 0 if p is None else p  # sign -> neg - sign flips it
    ranks = {top + 1: 0}  # rank of boundary C_d -> C_{d-1}
    lows: dict = {}  # the lows of d_{d+1}, by index of d-face
    for d in range(top, -1, -1):
        rows = {m: i for i, m in enumerate(by_dim[d - 1])}
        pivots: dict = {}
        for i, m in enumerate(by_dim[d]):
            if i in lows:
                continue
            rest = m
            if p == 2:
                c = 0
                while rest:
                    low = rest & -rest
                    c |= 1 << rows[m ^ low]
                    rest ^= low
            else:
                c, sign = {}, 1
                while rest:
                    low = rest & -rest
                    c[rows[m ^ low]] = sign
                    sign = neg - sign
                    rest ^= low
            reduce_column(c, pivots, p)
        ranks[d] = len(pivots)
        lows = pivots
    return {d: len(by_dim.get(d, ())) - ranks.get(d, 0) - ranks[d + 1]
            for d in range(-1, top + 1)}


# -- graph-derived complexes ----------------------------------------------

def independence_complex(g: Graph) -> SimplicialComplex:
    """Ind G: facets are the maximal independent sets of G.  It carries G's
    adjacency bitsets, so `decomposability._flag_graph` needs no walk."""
    c = SimplicialComplex._from_masks(g.vertices, g._mis_masks())
    c._graph_adj = g._adj
    return c


def simplex_on(vertices: Iterable[str]) -> SimplicialComplex:
    vs = tuple(vertices)
    return SimplicialComplex(vs, [vs])
