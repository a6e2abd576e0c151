"""Facet-list complexes: duality, deletion/link, f/h vectors, homology."""

import random
import time
import tracemalloc
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiskers import (ComplexError, ResourceLimit, SimplicialComplex,
                      build_whiskered, cycle_graph, independence_complex,
                      simplex_on, trivial_spec)
from whiskers.cli import run
from whiskers.complexes import FACE_ENUMERATION_BOUND, _homology_masks
from whiskers.decomposability import is_scm_via_dual, is_vertex_decomposable
from whiskers.fields import GF2, QQ, FieldSpec
from whiskers.graph import MAX_VERTICES, _by_position
from whiskers.ideals import IdealError, MonomialIdeal, ideal_of
from whiskers.randinst import random_complex_facets

from conftest import c6, seeded_complexes, seeded_graphs


def complexes(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda seed: SimplicialComplex(
                [str(i + 1) for i in range(n)],
                random_complex_facets(random.Random(seed), n)),
            st.integers(0, 10 ** 6)))


def test_void_vs_irrelevant():
    void = SimplicialComplex(["1"], [])
    irr = SimplicialComplex(["1"], [()])
    assert void.is_void and not irr.is_void
    assert irr.is_irrelevant and not void.is_irrelevant
    assert void != irr
    assert irr.dim == -1
    assert irr.reduced_homology_dims(GF2) == {-1: 1}
    assert void.reduced_homology_dims(GF2) == {}


def test_facets_form_antichain():
    c = SimplicialComplex(["1", "2", "3"], [("1", "2"), ("1",), ("3",)])
    assert c.facet_tuples() == [("1", "2"), ("3",)]
    # the bitmask filter against a pairwise one, on seeded families
    rng = random.Random(3)
    for _ in range(300):
        amb = [str(i) for i in range(rng.randint(0, 8))]
        family = [frozenset(rng.sample(amb, rng.randint(0, len(amb))))
                  for _ in range(rng.randint(0, 12))]
        want = {s for s in family if not any(s < t for t in family)}
        facets = SimplicialComplex(amb, family).facets
        assert len(facets) == len(want) and set(facets) == want
        assert list(facets) == sorted(facets, key=lambda f: sorted(map(int, f)))


def test_vertex_cap():
    """A complex from outside has at most MAX_VERTICES ambient vertices, as
    a graph has: a certificate is at most as deep as its support, so a star
    on the cap still gets one within the recursion limit."""
    leaves = [f"x{i}" for i in range(MAX_VERTICES)]
    star = SimplicialComplex(["c"] + leaves[1:], [("c", x) for x in leaves[1:]])
    assert len(star.ambient) == MAX_VERTICES
    assert is_vertex_decomposable(star).decomposable
    with pytest.raises(ComplexError, match=f"^complex exceeds {MAX_VERTICES} vertices$"):
        SimplicialComplex(["c"] + leaves, [("c", x) for x in leaves])


def test_independence_complex_of_large_pi_build():
    """Maximal independent sets are already an antichain, so the maximal-set
    filter must not be quadratic in them.  The pi build of C20 has one facet
    per independent set of C20: 15,127 of them.  The complex stores only
    their position masks, so a second, untimed build holds under 4 MB; a
    copy of every facet as a frozenset of names held about 35 MB."""
    c20 = cycle_graph([f"v{i}" for i in range(20)])
    g = build_whiskered(c20, trivial_spec(c20), "pi").graph
    start = time.process_time()
    ind = independence_complex(g)
    assert time.process_time() - start < 3.0
    assert len(ind.facets) == c20.independent_set_count() == 15127
    tracemalloc.start()
    try:
        again = independence_complex(g)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == ind
    assert held < 4 * 2**20, held


def test_independence_complex_matches_name_route():
    """The complex built from the enumeration's masks equals the one the
    normaliser builds from the names of the maximal independent sets."""
    for g in seeded_graphs():
        ind = independence_complex(g)
        by_names = SimplicialComplex(g.vertices, g.maximal_independent_sets())
        assert ind == by_names and hash(ind) == hash(by_names)
        assert ind.facets == by_names.facets
        assert ind.facet_tuples() == g.maximal_independent_sets()


def test_faces_and_nonfaces():
    c = independence_complex(cycle_graph(["1", "2", "3", "4"]))
    assert c.has_face({"1", "3"}) and not c.has_face({"1", "2"})
    assert c.has_face(set()) and not c.has_face({"1", "x"}) and not c.has_face({"x"})
    void = SimplicialComplex(["1", "2"], [])
    assert not void.has_face(set()) and not void.has_face({"1"})
    irrelevant = SimplicialComplex(["1", "2"], [()])
    assert irrelevant.has_face(set()) and not irrelevant.has_face({"1"})
    assert not irrelevant.has_face({"x"})
    nonfaces = {frozenset(f) for f in c.minimal_nonfaces()}
    assert nonfaces == {frozenset({"1", "2"}), frozenset({"2", "3"}),
                        frozenset({"3", "4"}), frozenset({"1", "4"})}


def _ref_nonface_masks(c):
    """The minimal nonfaces by a sweep of every subset of up to dim + 2
    ambient vertices, each tested against every facet: the route that the
    one pass over the face set replaced, kept as ground truth."""
    if c.is_void:
        return [0]
    out = []
    bits = [1 << i for i in range(len(c.ambient))]
    for k in range(1, min(c.dim + 2, len(bits)) + 1):
        for sub in combinations(bits, k):
            m = sum(sub)
            if all(m & ~f for f in c._masks) and all(x & ~m for x in out):
                out.append(m)
    return out


def test_nonfaces_match_the_subset_sweep():
    """Minimal nonfaces, the Alexander dual and the Stanley-Reisner ideal,
    all read from the face set, against the sweep: equal masks in equal
    order on every antichain of at most 5 vertices, seeded random
    complexes and Ind of seeded builds."""
    for c in seeded_complexes():
        want = _ref_nonface_masks(c)
        assert c._nonface_masks() == want, c.facet_tuples()
        assert c.minimal_nonfaces() == [
            frozenset(c.ambient[i] for i in range(len(c.ambient)) if m >> i & 1)
            for m in want]
        assert ideal_of(c, "stanley-reisner") == MonomialIdeal._from_masks(
            c.ambient, _by_position(want))
        if c.ambient:
            full = (1 << len(c.ambient)) - 1
            assert c.alexander_dual() == SimplicialComplex._from_masks(
                c.ambient, _by_position(full ^ m for m in want))


def test_nonfaces_of_a_large_independence_complex_are_fast():
    """Ind of the pi build of C10 has 20 vertices and 23,168 faces.  The
    subset sweep took 7-9 s of CPU time on its 20 minimal nonfaces
    (Xeon, Python 3.11); the pass over the face set takes about 0.03 s."""
    c10 = cycle_graph([f"v{i}" for i in range(10)])
    ind = independence_complex(build_whiskered(c10, trivial_spec(c10), "pi").graph)
    start = time.process_time()
    nonfaces = ind.minimal_nonfaces()
    assert time.process_time() - start < 1.0
    # the edges of the build, since Ind of a graph is a flag complex
    assert len(nonfaces) == 20 and all(len(f) == 2 for f in nonfaces)


def test_face_enumeration_bound(monkeypatch, capsys):
    """The face set holds at most FACE_ENUMERATION_BOUND faces, and every
    route that reads it raises one ResourceLimit with a one-line message:
    the f-vector, homology, minimal nonfaces and the SCM test, and the CLI
    exits 3 when a property suite goes over."""
    message = f"^faces exceed the face enumeration bound {FACE_ENUMERATION_BOUND}$"
    k = FACE_ENUMERATION_BOUND.bit_length() - 1
    assert simplex_on([f"v{i}" for i in range(k)]).f_vector()[-1] == 1
    over = simplex_on([f"v{i}" for i in range(k + 1)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=message):
            over.f_vector()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before its 2^(k + 1) faces are listed
    ind = independence_complex(c6())  # 18 faces, 8 at most per facet
    monkeypatch.setattr("whiskers.complexes.FACE_ENUMERATION_BOUND", 18)
    assert ind.f_vector() == (1, 6, 9, 2)
    monkeypatch.setattr("whiskers.complexes.FACE_ENUMERATION_BOUND", 17)
    message = "^faces exceed the face enumeration bound 17$"
    for route in (ind.f_vector, ind.reduced_homology_dims, ind.minimal_nonfaces,
                  ind.alexander_dual, lambda: is_scm_via_dual(ind)):
        with pytest.raises(ResourceLimit, match=message):
            route()
    monkeypatch.setattr("whiskers.complexes.FACE_ENUMERATION_BOUND", 4)
    capsys.readouterr()
    assert run(["properties", "--count", "1"]) == 3
    assert capsys.readouterr().err == (
        "resource limit: faces exceed the face enumeration bound 4\n")


def test_full_simplex_has_void_dual():
    assert simplex_on(["1", "2"]).alexander_dual().is_void


def test_deletion_link_examples():
    c = independence_complex(c6())
    dele, link = c.deletion_and_link(["v1"])
    assert not any("v1" in f for f in dele.facets)
    for f in link.facets:
        assert c.has_face(f | {"v1"})


def test_link_of_nonface_raises():
    c = independence_complex(c6())
    with pytest.raises(ComplexError):
        c.link({"v1", "v2"})


def test_complex_refusals():
    """Each refusal of a complex, and of an ideal's generators, which share
    the normaliser, raises its own error type with its message."""
    void = SimplicialComplex("ab", [])
    for call, error, message in (
            (lambda: void.dim, ComplexError, "void complex has no dimension"),
            (void.f_vector, ComplexError, "void complex has no f-vector"),
            (void.h_vector, ComplexError, "void complex has no f-vector"),
            (void.purity_range, ComplexError, "void complex has no purity range"),
            (lambda: void.is_pure, ComplexError, "void complex has no purity range"),
            (lambda: SimplicialComplex("aba", [("a",)]), ComplexError,
             "duplicate ambient vertices"),
            (lambda: SimplicialComplex("ab", [("a", "z")]), ComplexError,
             "facet ['a', 'z'] not within ambient set"),
            (lambda: MonomialIdeal("aba", [("a",)]), IdealError,
             "duplicate ambient vertices"),
            (lambda: MonomialIdeal("ab", [("z",)]), IdealError,
             "generator ['z'] not within ambient set"),
            (SimplicialComplex((), [()]).alexander_dual, ComplexError,
             "Alexander dual needs a nonempty ambient set"),
            (lambda: simplex_on("abc").join(simplex_on("cde")), ComplexError,
             "ambient sets overlap: ['c']")):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message, message


@settings(max_examples=80, deadline=None)
@given(complexes(8))
def test_alexander_dual_involution(c):
    assert c.alexander_dual().alexander_dual() == c


@settings(max_examples=60, deadline=None)
@given(complexes(7))
def test_dual_facets_complement_minimal_nonfaces(c):
    dual_facets = {frozenset(c.ambient) - f for f in c.alexander_dual().facets}
    assert dual_facets == {frozenset(f) for f in c.minimal_nonfaces()}


@settings(max_examples=60, deadline=None)
@given(complexes(8))
def test_euler_characteristic_vs_homology(c):
    chi = c.euler_characteristic_reduced()
    for k in (GF2, QQ):
        dims = c.reduced_homology_dims(k)
        assert chi == sum((-1) ** i * d for i, d in dims.items())


@settings(max_examples=60, deadline=None)
@given(complexes(8))
def test_fh_transform_inverts(c):
    f, h = c.f_vector(), c.h_vector()
    d = c.dim
    assert f == tuple(sum(comb(d + 1 - k, j - k) * h[k] for k in range(j + 1))
                      for j in range(d + 2))
    assert sum(h) == len(c.facets) or not c.is_pure


def test_homology_known_values():
    # hollow triangle: one 1-cycle
    c = SimplicialComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert c.reduced_homology_dims(QQ) == {-1: 0, 0: 0, 1: 1}
    # two points: one reduced 0-class
    c = SimplicialComplex("ab", [("a",), ("b",)])
    assert c.reduced_homology_dims(GF2)[0] == 1
    # solid simplex: acyclic
    assert all(v == 0 for v in simplex_on("abcd").reduced_homology_dims(QQ).values())
    # octahedron boundary (S^2): H2 = 1 over both fields
    oct_facets = [(x, y, z) for x in ("a1", "a2") for y in ("b1", "b2")
                  for z in ("c1", "c2")]
    c = SimplicialComplex(["a1", "a2", "b1", "b2", "c1", "c2"], oct_facets)
    for k in (GF2, QQ):
        assert c.reduced_homology_dims(k) == {-1: 0, 0: 0, 1: 0, 2: 1}
    # 6-vertex real projective plane: 2-torsion in H1, so only F2 sees it
    rp2 = SimplicialComplex("123456", [
        "123", "134", "145", "156", "126", "235", "245", "246", "346", "356"])
    assert rp2.reduced_homology_dims(GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    for k in (FieldSpec(3), QQ):
        assert rp2.reduced_homology_dims(k) == {-1: 0, 0: 0, 1: 0, 2: 0}
    # mod-3 Moore space: the disc o * u0..u8 with its boundary wound three
    # times round the triangle a b c, so only F3 sees the 3-torsion in H1
    tris = set()
    for i in range(9):
        v, w = "abc"[i % 3], "abc"[(i + 1) % 3]
        u, u1 = f"u{i}", f"u{(i + 1) % 9}"
        tris |= {frozenset((v, w, u)), frozenset((w, u, u1)),
                 frozenset(("o", u, u1))}
    assert len(tris) == 27
    moore = SimplicialComplex(["a", "b", "c", "o"] + [f"u{i}" for i in range(9)],
                              tris)
    assert moore.reduced_homology_dims(FieldSpec(3)) == {-1: 0, 0: 0, 1: 1, 2: 1}
    for k in (GF2, FieldSpec(5), QQ):
        assert moore.reduced_homology_dims(k) == {-1: 0, 0: 0, 1: 0, 2: 0}


def _dense_rank(mat, p):
    """Rank of a dense integer matrix by row echelon form, over F_p, or over
    QQ when p is 0: a row is cleared by an integer combination with the
    pivot row and then divided by the gcd of its entries."""
    rows = [[x % p if p else x for x in r] for r in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[col]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if not b:
                continue
            if p:
                f = b * pow(a, -1, p)
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
            else:
                r = [a * x - b * y for x, y in zip(rows[i], top)]
                g = gcd(*r)
                rows[i] = [x // g for x in r] if g > 1 else r
        rank += 1
    return rank


def _dense_homology(facets, p):
    """{d: dim} of reduced homology over F_p (QQ when p is 0), from dense
    boundary matrices with the sign (-1)^i on the face that drops the i-th
    vertex in sorted order."""
    faces = {s for f in facets for r in range(len(f) + 1)
             for s in combinations(sorted(f), r)}
    by_dim = {}
    for s in sorted(faces):
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    ranks = {-1: 0, top + 1: 0}
    for d in range(0, top + 1):
        index = {s: i for i, s in enumerate(by_dim[d - 1])}
        mat = [[0] * len(by_dim[d]) for _ in index]
        for j, s in enumerate(by_dim[d]):
            for i in range(len(s)):
                mat[index[s[:i] + s[i + 1:]]][j] = (-1) ** i
        ranks[d] = _dense_rank(mat, p)
    return {d: len(by_dim[d]) - ranks[d] - ranks[d + 1]
            for d in range(-1, top + 1)}


def test_homology_matches_dense_ranks():
    """The boundary reduction with clearing against dense boundary ranks,
    on seeded complexes of up to 9 vertices over F2, F3 and QQ.  Half are
    random facet lists, half are many small facets, which leave holes.  The
    faces go to the kernel reshuffled for each field: the pivots and lows
    depend on the face order, the dims must not."""
    rng = random.Random(31)
    holes = 0
    for t in range(200):
        n = rng.randint(1, 9)
        names = [str(i + 1) for i in range(n)]
        if t % 2:
            facets = random_complex_facets(rng, n)
        else:
            facets = [rng.sample(names, rng.randint(1, min(n, 4)))
                      for _ in range(rng.randint(1, 12))]
        c = SimplicialComplex(names, facets)
        faces = list(c._face_masks())
        for p, k in ((2, GF2), (3, FieldSpec(3)), (0, QQ)):
            want = _dense_homology(c.facet_tuples(), p)
            rng.shuffle(faces)
            assert _homology_masks(faces, k) == want, (c.facet_tuples(), k)
            assert c.reduced_homology_dims(k) == want, (c.facet_tuples(), k)
            holes += any(want[d] for d in want if d > 0)
    assert holes >= 50  # the suite meets nontrivial higher homology


def test_join_of_complexes():
    # join of two two-point complexes is a 4-cycle: H1 = 1
    pts = lambda a, b: SimplicialComplex([a, b], [(a,), (b,)])
    j = pts("a", "b").join(pts("c", "d"))
    assert j.reduced_homology_dims(QQ) == {-1: 0, 0: 0, 1: 1}


def test_purity_and_restriction():
    c = SimplicialComplex("abcd", [("a", "b", "c"), ("c", "d")])
    assert not c.is_pure and c.purity_range() == (1, 2)
    r = c.restriction({"a", "b", "d"})
    assert {frozenset(f) for f in r.facets} == {frozenset("ab"), frozenset("d")}
