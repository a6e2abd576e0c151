"""Monomial ideals and Betti tables.

Ground truth here is a from-scratch Koszul-homology computation written in
this file: beta_{i,j}(S/I) = dim_k H_i(K(x_1..x_n) (x) S/I)_j.  It shares no
code with the package's Hochster-style oracle.  The paper's unmemoised
recursion, on vertex names, is a second ground truth for the package's
memoised one on pi, cc and mc builds.
"""

import random
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd

import pytest

from whiskers import (Graph, SimplicialComplex, betti_closed_pi, betti_join,
                      betti_oracle, betti_recursive_cover, build_whiskered,
                      cycle_graph, default_spec, has_linear_resolution,
                      ideal_of, independence_complex, is_scm_via_dual,
                      path_graph, trivial_spec)
from whiskers.fields import GF2, QQ, FieldSpec, rank_modp, rank_rational
from whiskers.ideals import (HOM_CACHE_BOUND, ORACLE_AMBIENT_CEILING,
                             RECURSION_NODE_BOUND, BettiTable, IdealError,
                             MonomialIdeal, ResourceLimit, _betti_terms,
                             _hochster_linear, _hom_cache, _linear_quotients,
                             _restriction_homology, _subset_masks,
                             _subset_tables)
from whiskers.graph import _by_position
from whiskers.randinst import random_build, random_graph
from whiskers.whisker import WhiskeredGraph

from conftest import c6, c6_ears_spec, seeded_graphs


# -- independent Koszul oracle --------------------------------------------------

def _rank_gf2(rows):
    """Rank of int-bitset rows: reduce each row by the kept rows, keyed by
    their lowest bit, and keep what is left."""
    kept = {}
    for r in rows:
        while r:
            low = r & -r
            if low not in kept:
                kept[low] = r
                break
            r ^= kept[low]
    return len(kept)


def _rank_q(rows):
    """Rank over QQ by fraction-free sparse elimination: rows are {col: int}
    and a row is cleared with integer multiples of the pivot, then divided
    by the gcd of its entries."""
    work = [{c: x for c, x in enumerate(r) if x} for r in rows]
    work = [r for r in work if r]
    rank = 0
    while work:
        col = min(min(r) for r in work)
        pivot = next(r for r in work if col in r)
        rank += 1
        a = pivot[col]
        rest = []
        for r in work:
            if r is pivot:
                continue
            b = r.get(col)
            if b is not None:
                r = {c: a * r.get(c, 0) - b * pivot.get(c, 0)
                     for c in r.keys() | pivot.keys()}
                r = {c: x for c, x in r.items() if x}
                g = gcd(*r.values()) if r else 1
                r = {c: x // g for c, x in r.items()}
            if r:
                rest.append(r)
        work = rest
    return rank


def _rank_p(rows, p):
    """Rank over F_p by sparse elimination, as _rank_q does over QQ: a row
    is cleared with the pivot times its entry over the pivot's."""
    work = [{c: x % p for c, x in enumerate(r) if x % p} for r in rows]
    work = [r for r in work if r]
    rank = 0
    while work:
        col = min(min(r) for r in work)
        pivot = next(r for r in work if col in r)
        rank += 1
        inv = pow(pivot[col], -1, p)
        rest = []
        for r in work:
            if r is pivot:
                continue
            b = r.get(col)
            if b is not None:
                f = b * inv % p
                r = {c: (r.get(c, 0) - f * pivot.get(c, 0)) % p
                     for c in r.keys() | pivot.keys()}
                r = {c: x for c, x in r.items() if x}
            if r:
                rest.append(r)
        work = rest
    return rank


def koszul_betti(ideal, p):
    """{(i, j): beta_{i,j}(S/I)} for the quotient over F_p, or over QQ when
    p is 0, j up to the variable count."""
    n = len(ideal.ambient)
    gens = [sum(1 << t for t, v in enumerate(ideal.ambient) if v in g)
            for g in ideal.generator_tuples()]

    def in_ideal(u):
        # squarefree generators: g divides u iff it lies in u's support
        support = sum(1 << t for t, e in enumerate(u) if e)
        return any(g & support == g for g in gens)

    standard = {}  # degree -> monomials outside the ideal

    def monomials(deg):
        if deg not in standard:
            standard[deg] = []
            for c in combinations_with_replacement(range(n), deg):
                u = [0] * n
                for t in c:
                    u[t] += 1
                if not in_ideal(u):
                    standard[deg].append(tuple(u))
        return standard[deg]

    def basis(i, j):
        if not 0 <= i <= n or j - i < 0:
            return []
        return [(T, u) for T in combinations(range(n), i)
                for u in monomials(j - i)]

    def rank_d(i, j):
        dom, cod = basis(i, j), basis(i - 1, j)
        if not dom or not cod:
            return 0
        index = {b: a for a, b in enumerate(cod)}
        rows = []
        for T, u in dom:
            row = 0 if p == 2 else [0] * len(cod)
            for sign_pos, t in enumerate(T):
                xu = tuple(e + (1 if s == t else 0) for s, e in enumerate(u))
                if in_ideal(xu):
                    continue
                a = index[(tuple(x for x in T if x != t), xu)]
                if p == 2:
                    row ^= 1 << a
                else:
                    row[a] += (-1) ** sign_pos
            rows.append(row)
        if p == 2:
            return _rank_gf2(rows)
        return _rank_p(rows, p) if p else _rank_q(rows)

    out = {}
    for j in range(0, n + 1):
        for i in range(0, n + 1):
            h = len(basis(i, j)) - rank_d(i, j) - rank_d(i + 1, j)
            if h:
                out[(i, j)] = h
    return out


def small_ideals(rng, max_n=5):
    n = rng.randint(1, max_n)
    amb = [f"x{t + 1}" for t in range(n)]
    gens = []
    for _ in range(rng.randint(0, n + 2)):
        size = rng.randint(1, n)
        gens.append(tuple(sorted(rng.sample(amb, size))))
    return MonomialIdeal(amb, gens)


def test_oracle_matches_koszul_homology():
    rng = random.Random(2024)
    cases = [(small_ideals(rng), QQ if t % 4 == 0 else GF2) for t in range(25)]
    # cover ideals walk mostly the Alexander dual's faces, edge ideals mostly
    # the restriction's own faces
    for _ in range(6):
        g = random_graph(rng, rng.randint(3, 6), rng.uniform(0.3, 0.7))
        cases += [(ideal_of(g, "cover"), GF2), (ideal_of(g, "edge"), GF2)]
    # W = {x1} has as many faces as dual faces; the tie walks the faces
    cases.append((MonomialIdeal(["x1", "x2", "x3", "x4"],
                                [("x1",), ("x2", "x3"), ("x3", "x4")]), QQ))
    for ideal, field in cases:
        got = betti_oracle(ideal, field).as_quotient().entries
        want = koszul_betti(ideal, field.p or 0)
        assert got == want, (ideal.generator_tuples(), got, want)


def test_rank_kernels_match_brute_force():
    """rank_modp against the size of the row span (p^rank), rank_rational
    against the independent _rank_q above.  The kernels take sparse rows,
    one {col: value} dict per row, and leave them as they were."""
    rng = random.Random(7)
    mats = [[], [[]], [[], []], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]],
            [[1, 2], [0, 0], [2, 4]]]
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)  # tall and wide
        mats.append([[rng.choice([0, 0, 1, -1, 2, 3, -4]) for _ in range(cols)]
                     for _ in range(rows)])
    # larger ones, where QQ elimination meets pivots other than +-1; the
    # span has up to p^10 vectors, so past 5 rows only _rank_q checks them
    big = []
    for _ in range(60):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        big.append([[rng.choice([0, 0, 1, -1, 2, 3, -4]) for _ in range(cols)]
                    for _ in range(rows)])
    for mat in mats + big:
        sparse = [{c: x for c, x in enumerate(r) if x} for r in mat]
        before = repr(sparse)
        if len(mat) <= 5:
            for p in (2, 3, 5):
                span = {tuple(sum(c * x for c, x in zip(coeffs, col)) % p
                              for col in zip(*mat))
                        for coeffs in product(range(p), repeat=len(mat))}
                assert len(span) == p ** rank_modp(sparse, p), (mat, p)
        assert rank_rational(sparse) == _rank_q(mat), mat
        assert repr(sparse) == before, mat


# -- conventions and table algebra ----------------------------------------------

def test_ideal_kinds_and_identities():
    for g in [c6()] + seeded_graphs():
        ind = independence_complex(g)
        assert ideal_of(ind, "stanley-reisner") == ideal_of(g, "edge")
        if g.vertices:  # the empty ambient set has no Alexander dual
            assert ideal_of(ind.alexander_dual(), "stanley-reisner") \
                == ideal_of(ind.complement_facet_complex(), "facet") \
                == ideal_of(g, "cover")
        # each kind equals the ideal the normaliser builds from names
        full = set(g.vertices)
        covers = [full - set(s) for s in g.maximal_independent_sets()]
        nonfaces = [s for k in range(len(full) + 1)
                    for s in combinations(g.vertices, k) if not ind.has_face(s)]
        for kind, source, ambient, gens in (
                ("edge", g, g.vertices, g.edges),
                ("cover", g, g.vertices, covers),
                ("facet", ind, ind.ambient, ind.facets),
                ("stanley-reisner", ind, ind.ambient, nonfaces)):
            got, want = ideal_of(source, kind), MonomialIdeal(ambient, gens)
            assert got == want and hash(got) == hash(want), kind
            assert got.generator_tuples() == want.generator_tuples(), kind


def test_generator_antichain():
    ideal = MonomialIdeal("abc", [("a",), ("a", "b"), ("b", "c")])
    assert ideal.generator_tuples() == [("a",), ("b", "c")]
    # the bitmask filter against a pairwise one, on seeded families
    rng = random.Random(3)
    for _ in range(300):
        amb = [str(i) for i in range(rng.randint(0, 8))]
        family = [frozenset(rng.sample(amb, rng.randint(0, len(amb))))
                  for _ in range(rng.randint(0, 12))]
        want = {s for s in family if not any(t < s for t in family)}
        gens = MonomialIdeal(amb, family).generators
        assert len(gens) == len(want) and set(gens) == want
        assert list(gens) == sorted(gens, key=lambda g: sorted(map(int, g)))


def test_unit_and_zero_conventions():
    unit = betti_oracle(MonomialIdeal("ab", [()]), GF2)
    assert unit.entries == {(0, 0): 1}
    assert unit.as_quotient().entries == {}
    zero = betti_oracle(MonomialIdeal("ab", []), GF2)
    assert zero.entries == {}
    assert zero.as_quotient().entries == {(0, 0): 1}
    assert zero.as_quotient().as_ideal() == zero


def test_quotient_shift_roundtrip():
    t = betti_oracle(ideal_of(c6(), "edge"), GF2)
    q = t.as_quotient()
    assert q.get(0, 0) == 1
    assert all(q.get(i + 1, j) == t.get(i, j) for (i, j) in t.entries)
    assert q.as_ideal() == t


def test_known_tables():
    t = betti_oracle(MonomialIdeal("xy", [("x", "y")]), QQ)
    assert t.entries == {(0, 2): 1}
    t = betti_oracle(MonomialIdeal("xyz", [("x",), ("y",), ("z",)]), QQ)
    assert t.entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    # 5-cycle Stanley-Reisner quotient is Gorenstein with socle in degree 5
    t = betti_oracle(ideal_of(cycle_graph(list("abcde")), "edge"), QQ)
    assert t.as_quotient().entries == {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}


def test_field_dependence_is_possible():
    with pytest.raises(ValueError):
        FieldSpec.parse("4")
    assert FieldSpec.parse("0") == QQ and FieldSpec.parse("2") == GF2


def test_base_case_resolution():
    for r in range(2, 7):
        amb = [f"x{t}" for t in range(1, r + 1)]
        t = betti_oracle(MonomialIdeal(amb, [("x1",), tuple(amb[1:])]), GF2)
        if r == 2:
            assert t.entries == {(0, 1): 2, (1, 2): 1}
        else:
            assert t.entries == {(0, 1): 1, (0, r - 1): 1, (1, r): 1}


# -- recursion, join, closed formula ---------------------------------------------

def test_recursion_matches_oracle():
    rng = random.Random(41)
    for t in range(30):
        w = random_build(rng, ["pi", "cc", "mc"][t % 3], max_base=5, max_total=10)
        field = QQ if t % 3 == 0 else GF2
        # odd primes too, so the mod-p kernel meets the recursion
        for k in (field, FieldSpec(3), FieldSpec(5)):
            assert betti_recursive_cover(w, k=k) \
                == betti_oracle(ideal_of(w.graph, "cover"), k)


def _binary_recursion(w):
    """The paper's recursion without a memo, on vertex names: split off the
    first base vertex left, until only the edgeless whisker graphs of a pi,
    cc or mc build are left, whose cover ideal is the unit ideal."""
    g = w.graph

    def rec(h):
        left = [v for v in w.base.vertices if v in h]
        if not left:
            return {(0, 0): 1}
        x = left[0]
        near = g.neighbors(x) & h
        out = {(i, j + 1): v for (i, j), v in rec(h - {x}).items()}
        m = len(near)
        for (i, j), v in rec(h - near - {x}).items():
            for key in ((i, j + m), (i + 1, j + m + 1)):
                out[key] = out.get(key, 0) + v
        return out

    return BettiTable(GF2, rec(frozenset(g.vertices)), "ideal")


def test_recursion_matches_binary_recursion():
    """The memoised fold against the unmemoised recursion on seeded pi, cc
    and mc builds of up to 20 vertices and the pi builds of C3-C16."""
    rng = random.Random(43)
    builds = [random_build(rng, ["pi", "cc", "mc"][t % 3], max_base=8,
                           max_total=20) for t in range(90)]
    for n in range(3, 17):
        g = cycle_graph([f"v{i}" for i in range(n)])
        builds.append(build_whiskered(g, trivial_spec(g), "pi"))
    for w in builds:
        assert betti_recursive_cover(w) == _binary_recursion(w), w.graph


def _has_whisker_edges(w):
    """Whether an edge of the build joins two whisker vertices, so that the
    recursion goes on past the base vertices."""
    return any(set(e) <= w.added for e in w.graph.edges)


def test_recursion_matches_oracle_on_md():
    """md builds of each size from 6 to 16 vertices, three of each, over F2,
    F3 and QQ in turn; about half of them have whisker graphs with edges.
    The first is C6 with three ear cliques and the paths a1.1 - a1.2 - a1.3
    and a2.1 - a2.2 - a2.3 as A1 and A2, whose tables convolve once the base
    is gone."""
    rng = random.Random(47)
    fields = (GF2, FieldSpec(3), QQ)
    g = c6()
    paths = {i: path_graph([f"a{i + 1}.{t}" for t in (1, 2, 3)]) for i in (0, 1)}
    spec = default_spec(g, c6_ears_spec(g).cliques, a_sizes=[3, 3, 1],
                        a_graphs=paths)
    builds = [build_whiskered(g, spec, "md")]
    for n in range(6, 17):
        while len(builds) < 3 * (n - 5) + 1:
            w = random_build(rng, "md", max_base=6, max_total=n)
            if len(w.graph) == n:
                builds.append(w)
    assert sum(map(_has_whisker_edges, builds)) >= 16
    for t, w in enumerate(builds):
        k = fields[t % 3]
        assert betti_recursive_cover(w, k=k) \
            == betti_oracle(ideal_of(w.graph, "cover"), k), w.graph


def _independent_set_sizes(g):
    """i_s(G) for every s, by i(G) = i(G - v) + t i(G - N[v]) at the first
    vertex v left, memoised on the vertices left."""
    pos = {v: b for b, v in enumerate(g.vertices)}
    closed = [sum(1 << pos[u] for u in g.neighbors(v)) | 1 << pos[v]
              for v in g.vertices]

    @cache
    def count(left):
        if not left:
            return (1,)
        low = left & -left
        out = [*count(left ^ low), 0]
        for s, c in enumerate(count(left & ~closed[low.bit_length() - 1])):
            out[s + 1] += c
        return tuple(out)

    return list(count((1 << len(closed)) - 1))


def _k_polynomial(table):
    """sum_{i,j} (-1)^i beta_{i,j} t^j over the quotient, as {j: coeff}."""
    got: dict[int, int] = {}
    for (i, j), beta in table.as_quotient().entries.items():
        got[j] = got.get(j, 0) + (-1) ** i * beta
    return {j: c for j, c in got.items() if c}


def _cover_k_polynomial(n, sizes):
    """1 - sum_s i_s t^(n-s) (1-t)^s, from the independent-set counts i_s
    of a graph on n vertices, as {j: coeff}."""
    expected = {0: 1}
    for s, count in enumerate(sizes):
        for e in range(s + 1):  # t^(n-s) (1-t)^s, term t^(n-s+e)
            j = n - s + e
            expected[j] = expected.get(j, 0) - count * comb(s, e) * (-1) ** e
    return {j: c for j, c in expected.items() if c}


def test_recursion_k_polynomial_past_oracle_bound():
    """J(G) is the Stanley-Reisner ideal of Ind(G)^dual, so the K-polynomial
    of S/J(G) is sum_{i,j} (-1)^i beta_{i,j} t^j
    = 1 - sum_s i_s(G) t^(n-s) (1-t)^s.  Checked on builds the oracle's
    16-vertex bound rules out."""
    rng = random.Random(17)
    cycles = [cycle_graph([f"v{i}" for i in range(n)]) for n in (12, 14)]
    builds = [build_whiskered(g, trivial_spec(g), "pi") for g in cycles]
    while len(builds) < 32:
        w = random_build(rng, ["pi", "cc", "mc"][len(builds) % 3],
                         max_base=10, max_total=30)
        if len(w.graph) >= 17:
            builds.append(w)
    for w in builds:
        assert _k_polynomial(betti_recursive_cover(w)) == _cover_k_polynomial(
            len(w.graph), _independent_set_sizes(w.graph)), w.graph


def test_recursion_k_polynomial_on_large_md_builds():
    """md builds of each size from 17 to 30 vertices, past the oracle's
    bound."""
    rng = random.Random(53)
    builds = []
    for n in range(17, 31):
        while len(builds) < n - 16:
            w = random_build(rng, "md", max_base=10, max_total=n)
            if len(w.graph) == n:
                builds.append(w)
    assert sum(map(_has_whisker_edges, builds)) >= 12
    for w in builds:
        assert _k_polynomial(betti_recursive_cover(w)) == _cover_k_polynomial(
            len(w.graph), _independent_set_sizes(w.graph)), w.graph


def _cycle_independent_sets(n):
    """i_t(C_n) for every t by a DP along the cycle.  An independent set of
    a path leaves its last vertex out, or holds it and leaves the one before
    out.  One of C_n leaves v0 out (a path on n - 1 vertices), or holds v0
    and leaves both its neighbours out (a path on n - 3)."""
    paths = [[1] + [0] * n, [1, 1] + [0] * (n - 1)]  # on 0 and 1 vertices
    for _ in range(n - 2):
        paths.append([a + (paths[-2][t - 1] if t else 0)
                      for t, a in enumerate(paths[-1])])
    return [a + (paths[n - 3][t - 1] if t else 0)
            for t, a in enumerate(paths[n - 1])]


def test_recursion_on_whiskered_cycles():
    """The pi builds of C3-C60, up to 120 vertices.  A pi build is
    Cohen-Macaulay, so its cover ideal has a linear resolution: every entry
    lies at j = i + n, and the K-polynomial fixes each of them.  An
    independent set of the build is one of C_n, of size t, plus any of the
    n - t whiskers off it."""
    for n in range(3, 61):
        g = cycle_graph([f"v{i}" for i in range(n)])
        table = betti_recursive_cover(build_whiskered(g, trivial_spec(g), "pi"))
        assert all(j == i + n for i, j in table.entries), n
        cycle = _cycle_independent_sets(n)
        sizes = [sum(cycle[t] * comb(n - t, s - t) for t in range(min(s, n) + 1))
                 for s in range(2 * n + 1)]
        assert _k_polynomial(table) == _cover_k_polynomial(2 * n, sizes), n


def test_recursion_node_bound_edge():
    """The pi build of C16 passes the K-polynomial check well inside
    RECURSION_NODE_BOUND distinct subproblems.  The pi build of a dense
    random graph on 60 vertices goes over: its base vertices leave too many
    distinct induced subgraphs.  An independent set of size s in the C16
    build is one of size t in C16 plus any s - t of the 16 - t whiskers off
    it, which gives i_s from C16's counts."""
    c16 = cycle_graph([f"v{i}" for i in range(16)])
    base = _independent_set_sizes(c16)
    sizes = [sum(base[t] * comb(16 - t, s - t) for t in range(min(s, 16) + 1))
             for s in range(33)]
    w = build_whiskered(c16, trivial_spec(c16), "pi")
    assert _k_polynomial(betti_recursive_cover(w)) \
        == _cover_k_polynomial(32, sizes)
    dense = random_graph(random.Random(1), 60, 0.2)
    with pytest.raises(ResourceLimit,
                       match=f"^{RECURSION_NODE_BOUND + 1} recursion nodes "
                             f"exceeds the recursion node bound "
                             f"{RECURSION_NODE_BOUND}$"):
        betti_recursive_cover(build_whiskered(dense, trivial_spec(dense), "pi"))


def test_recursion_refuses_a_graph_that_is_not_vd():
    """A WhiskeredGraph made by hand around C4, whose independence complex
    is two disjoint edges, has no split to fold."""
    w = WhiskeredGraph(cycle_graph(list("abcd")), Graph(), None, "md",
                       frozenset("abcd"))
    with pytest.raises(IdealError, match="not vertex decomposable"):
        betti_recursive_cover(w)


def _face_sizes(n, adj, cover):
    """Faces of the complex of I(G) (independent sets) or of J(G) (sets
    whose complement holds an edge), counted by size over all 2^n subsets."""
    independent = bytearray(1 << n)
    independent[0] = 1
    counts = [0] * (n + 1)
    for s in range(1, 1 << n):
        b = (s & -s).bit_length() - 1
        independent[s] = independent[s & (s - 1)] and not adj[b] & s
    full = (1 << n) - 1
    for s in range(1 << n):
        if not independent[full ^ s] if cover else independent[s]:
            counts[s.bit_count()] += 1
    return counts


def test_oracle_k_polynomial_up_to_bound():
    """sum_{i,j} (-1)^i beta_{i,j}(S/I) t^j = sum_F t^|F| (1-t)^(n-|F|) over
    the faces F of the complex of I, for cover ideals of builds with 12-16
    vertices and edge ideals of graphs with up to 13, so the bitset tables
    are exercised up to the oracle's bound."""
    rng = random.Random(31)
    cases = []
    for n in (12, 13, 14, 15, 16, 16):
        while True:
            w = random_build(rng, ["pi", "cc", "mc", "md"][len(cases) % 4],
                             max_base=8, max_total=n)
            if len(w.graph) == n:
                break
        cases.append((w.graph, "cover"))
    for n in (11, 12, 13):
        cases.append((random_graph(rng, n, rng.uniform(0.3, 0.6)), "edge"))
    for g, kind in cases:
        n = len(g)
        pos = {v: b for b, v in enumerate(g.vertices)}
        adj = [sum(1 << pos[u] for u in g.neighbors(v)) for v in g.vertices]
        expected: dict[int, int] = {}
        for f, count in enumerate(_face_sizes(n, adj, kind == "cover")):
            for e in range(n - f + 1):  # t^f (1-t)^(n-f), term t^(f+e)
                expected[f + e] = expected.get(f + e, 0) \
                    + count * comb(n - f, e) * (-1) ** e
        got: dict[int, int] = {}
        table = betti_oracle(ideal_of(g, kind), GF2).as_quotient()
        for (i, j), beta in table.entries.items():
            got[j] = got.get(j, 0) + (-1) ** i * beta
        assert {j: c for j, c in got.items() if c} \
            == {j: c for j, c in expected.items() if c}, (kind, g)



def test_subset_tables_match_per_subset_reference():
    """The bitset tables of the oracle and the masks they are built from,
    against one loop over all subsets: the nonfaces, the contributing W
    with exactly two generators inside and those with three or more, which
    with the minimal generators make up all the contributing W, and the
    face counts."""
    for n in range(7):
        for width in (1, 8, 16, 24):
            field = (1 << width) - 1
            want = tuple(sum(field << width * w for w in range(1 << n)
                             if not w >> b & 1) for b in range(n))
            assert _subset_masks(n, width) == want, (n, width)
    rng = random.Random(12)
    for t in range(60):
        n = 1 + t % 10
        gens = sorted({rng.getrandbits(n) | 1 << rng.randrange(n)
                       for _ in range(rng.randint(0, n + 2))})
        nonface, pairs, walked, faces_below, nbytes = _subset_tables(gens, n)
        covered, inside = [0] * (1 << n), [0] * (1 << n)
        for s in range(1 << n):
            for g in gens:
                if g & s == g:
                    covered[s] |= g
                    inside[s] += 1
        contributing = [s != 0 and c == s for s, c in enumerate(covered)]
        assert list(nonface) == [int(c != 0) for c in covered], gens
        assert list(pairs) == [int(c and m == 2)
                               for c, m in zip(contributing, inside)], gens
        assert list(walked) == [int(c and m >= 3)
                                for c, m in zip(contributing, inside)], gens
        # the rest of the contributing W are the minimal generators
        assert [s for s, c in enumerate(contributing) if c and inside[s] == 1] \
            == [g for g in gens if inside[g] == 1], gens
        counts = [int.from_bytes(faces_below[nbytes * w:nbytes * (w + 1)],
                                 "little") for w in range(1 << n)]
        assert counts == [sum(not covered[s] for s in range(w + 1) if s & w == s)
                          for w in range(1 << n)], gens


def test_join_formula_matches_oracle():
    rng = random.Random(8)
    for t in range(25):
        field = QQ if t % 5 == 0 else GF2
        g1 = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8), prefix="u")
        g2 = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.8), prefix="w")
        j = betti_join(betti_oracle(ideal_of(g1, "edge"), field).as_quotient(),
                       betti_oracle(ideal_of(g2, "edge"), field).as_quotient())
        assert j == betti_oracle(ideal_of(g1.disjoint_union(g2), "edge"),
                                 field).as_quotient()


def test_ideal_and_table_refusals():
    """ideal_of, BettiTable and betti_join refuse with IdealError and say
    why: a source of the wrong type, an unknown kind, mismatched fields,
    tables not in the quotient convention, pd and reg of an empty table,
    and a quotient table without (0,0)."""
    g, cx = c6(), independence_complex(c6())
    edge = BettiTable(GF2, {(0, 2): 1, (1, 3): 1})
    quotient = edge.as_quotient()
    for call, message in (
            (lambda: ideal_of(g, "facet"), "facet ideal needs a simplicial complex"),
            (lambda: ideal_of(g, "stanley-reisner"),
             "stanley-reisner ideal needs a simplicial complex"),
            (lambda: ideal_of(cx, "edge"), "edge ideal needs a graph"),
            (lambda: ideal_of(cx, "cover"), "cover ideal needs a graph"),
            (lambda: ideal_of(g, "bogus"), "unknown ideal kind 'bogus'"),
            (lambda: betti_join(quotient, BettiTable(QQ, quotient.entries, "quotient")),
             "field mismatch in join formula"),
            (lambda: betti_join(quotient, edge),
             "join formula takes quotient-convention tables"),
            (lambda: betti_join(edge, quotient),
             "join formula takes quotient-convention tables"),
            (BettiTable(GF2).pd, "empty Betti table has no projective dimension"),
            (BettiTable(GF2).reg, "empty Betti table has no regularity"),
            (BettiTable(GF2, {(1, 2): 1}, "quotient").as_ideal,
             "quotient table must carry the (0,0) -> 1 entry")):
        with pytest.raises(IdealError) as err:
            call()
        assert str(err.value) == message, message


def test_closed_formula_c6_ears():
    g = c6()
    spec = c6_ears_spec(g)
    r0 = betti_closed_pi(g, spec, 0, GF2)
    assert (r0.oracle, r0.formula, r0.discrepancy) == (18, 17, True)
    for i in range(1, 4):
        r = betti_closed_pi(g, spec, i, GF2)
        assert r.oracle == r.formula, i


def test_pd_reg_recursion():
    """The printed recursive pd/reg formulas need the link side shifted by
    m = |N(v)| in the whiskered graph; in that form they hold exactly."""
    rng = random.Random(5)
    paper_form_violations = 0
    for _ in range(25):
        w = random_build(rng, "mc", max_base=5, max_total=10)
        v = w.base.vertices[0]
        m = len(w.graph.neighbors(v))
        def pr(g):
            table = betti_oracle(ideal_of(g, "edge"), GF2).as_quotient()
            return table.pd(), table.reg()

        pd, rg = pr(w.graph)
        pd1, rg1 = pr(w.graph.delete_vertices([v]))
        pd2, rg2 = pr(w.graph.delete_vertices(w.graph.closed_neighborhood(v)))
        assert pd == max(pd1 + 1, pd2 + m)
        assert rg == max(rg1, rg2 + 1)
        if pd != max(pd2, pd1 + 1) or rg != max(rg2, rg1 + 1):
            paper_form_violations += 1
    assert paper_form_violations > 0  # the unshifted form genuinely fails


def test_froeberg_criterion():
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
        if not g.edges:
            continue
        assert has_linear_resolution(ideal_of(g, "edge"), GF2) \
            == g.complement().is_chordal()[0]
    # principal ideals always have a linear (trivial) resolution
    assert has_linear_resolution(MonomialIdeal("abc", [("a", "b")]), GF2)
    # the early exit against the full table, on ideals of one degree
    for _ in range(60):  # about a quarter of these are not linear
        n = rng.randint(3, 8)
        amb = [f"x{t}" for t in range(n)]
        e = rng.randint(2, n - 1)
        ideal = MonomialIdeal(amb, [rng.sample(amb, e)
                                    for _ in range(rng.randint(2, 8))])
        table = betti_oracle(ideal, GF2)
        assert has_linear_resolution(ideal, GF2) \
            == all(j == i + e for (i, j) in table.entries), ideal.generators


def test_linear_resolution_early_exits(monkeypatch):
    """The zero and the unit ideal are linear, and generators of two
    degrees are not, before any term is walked.  The oracle agrees on the
    mixed ideal: (0,2), (0,3) and (1,4) lie on no single strand."""
    mixed = MonomialIdeal("abcd", [("a", "b"), ("b", "c", "d")])
    assert betti_oracle(mixed, GF2).entries == {(0, 2): 1, (0, 3): 1, (1, 4): 1}

    def no_walk(*args):
        raise AssertionError("walked the Betti terms")

    monkeypatch.setattr("whiskers.ideals._betti_terms", no_walk)
    assert has_linear_resolution(MonomialIdeal("ab", []), GF2)
    assert has_linear_resolution(MonomialIdeal("ab", [()]), GF2)
    assert not has_linear_resolution(mixed, GF2)


def test_strand_prune_matches_the_oracle():
    """``has_linear_resolution`` leaves out every W of at most e + 1
    vertices.  On seeded ideals of one degree e = 1-4 over three fields,
    every term of such a W lies on the strand, the pruned walk yields the
    other terms in the same order, and the verdict is the full table's."""
    rng = random.Random(61)
    linear = 0
    for t in range(90):
        field = (GF2, FieldSpec.parse("3"), QQ)[t % 3]
        e = 1 + t % 4
        n = rng.randint(e + 1, 9)
        amb = [f"x{i}" for i in range(n)]
        ideal = MonomialIdeal(amb, [rng.sample(amb, e)
                                    for _ in range(rng.randint(1, 9))])
        full = list(_betti_terms(ideal, field, 16))
        assert all(j == i + e for i, j, _ in full if j <= e + 1)
        assert list(_betti_terms(ideal, field, 16, e + 1)) == \
            [term for term in full if term[1] > e + 1]
        table = betti_oracle(ideal, field)
        verdict = all(j == i + e for (i, j) in table.entries)
        assert has_linear_resolution(ideal, field) == verdict
        linear += verdict
    assert 10 < linear < 80


def test_pairs_refute_before_any_walk(monkeypatch):
    """Two generators whose union holds no third give the term
    (1, |g | g'|, 1), read from the tables before any restriction is walked.
    The edge ideal of two disjoint edges, whose complement is C4, is not
    linear with the walk patched to raise.  On seeded edge ideals every
    ideal whose complement has an induced C4 is refuted without a walk, and
    every verdict is Froeberg's: linear exactly when the complement is
    chordal."""
    def no_walk(*args):
        raise AssertionError("walked a restriction")

    two_edges = Graph("abcd", [("a", "b"), ("c", "d")])
    with monkeypatch.context() as patch:
        patch.setattr("whiskers.ideals._restriction_homology", no_walk)
        assert not has_linear_resolution(ideal_of(two_edges, "edge"), GF2)

    walks = []

    def counted(*args):
        walks.append(args[0])
        return _restriction_homology(*args)

    monkeypatch.setattr("whiskers.ideals._restriction_homology", counted)
    rng = random.Random("pairs-first")
    graphs = [g for g in seeded_graphs() if g.edges]
    graphs += [random_graph(rng, rng.randint(4, 9), rng.uniform(0.3, 0.8))
               for _ in range(60)]
    refuted = walked = 0
    for g in graphs:
        co = g.complement()
        c4 = any(all(len(co.neighbors(v) & set(s)) == 2 for v in s)
                 for s in combinations(g.vertices, 4))
        walks.clear()
        verdict = has_linear_resolution(ideal_of(g, "edge"), GF2)
        assert verdict == co.is_chordal()[0], g.edges
        if c4:
            assert not verdict and not walks, g.edges
            refuted += 1
        walked += bool(walks)
    assert (len(graphs), refuted, walked) == (101, 50, 3)


def test_oracle_terms_from_tables_match_koszul():
    """Ideals whose contributing W mostly hold one or two generators, where
    the oracle reads the terms from its tables: cover ideals of seeded
    forests and of cycles, and edge ideals of matchings beside isolated
    vertices.  Every table over F2, F3 and QQ equals the Koszul one."""
    rng = random.Random("table-terms")
    cases = []
    for _ in range(6):
        names = [f"v{i}" for i in range(rng.randint(3, 5))]
        edges = [(v, rng.choice(names[:i])) for i, v in enumerate(names)
                 if i and rng.random() < 0.8]
        cases.append(ideal_of(Graph(names, edges), "cover"))
    cases += [ideal_of(cycle_graph([f"c{i}" for i in range(n)]), "cover")
              for n in (3, 4, 5)]
    for pairs in (1, 2):
        names = [f"x{i}" for i in range(2 * pairs + rng.randint(0, 1))]
        cases.append(ideal_of(Graph(names, [(names[2 * t], names[2 * t + 1])
                                            for t in range(pairs)]), "edge"))
    read = walked = 0
    for ideal in cases:
        _, pairs, rest, _, _ = _subset_tables(ideal._masks, len(ideal.ambient))
        read += len(ideal._masks) + sum(pairs)
        walked += sum(rest)
        for field in (GF2, FieldSpec(3), QQ):
            got = betti_oracle(ideal, field).as_quotient().entries
            assert got == koszul_betti(ideal, field.p or 0), \
                (ideal.generator_tuples(), field)
    assert read > 2 * walked


def _build_components(rng, count):
    """The degree components that ``is_scm_via_dual`` tests on Ind of
    ``count`` seeded pi/cc/mc/md builds of 8-11 vertices: per facet size s
    below n, the complements of the s-faces."""
    out = []
    for t in range(count):
        kind, n = ("pi", "cc", "mc", "md")[t % 4], 8 + t % 4
        w = random_build(rng, kind, 8, n)
        while len(w.graph.vertices) != n:
            w = random_build(rng, kind, 8, n)
        ind = independence_complex(w.graph)
        full, faces = (1 << n) - 1, ind._face_masks()
        out += [MonomialIdeal._from_masks(ind.ambient, _by_position(
                    full ^ f for f in faces if f.bit_count() == s))
                for s in {m.bit_count() for m in ind._masks} if s < n]
    return out


def test_linear_quotients_match_the_oracle():
    """An order with linear quotients certifies a linear resolution over
    every field: whenever the greedy pass accepts, the oracle's table lies
    on the strand over F2, F3 and QQ, and ``has_linear_resolution`` is the
    oracle's verdict over all three.  Inputs: seeded ideals of one degree
    e = 1-4 (about a third not linear), the edge ideals of the seeded
    graphs, and the SCM components of 40 seeded builds, which the pass
    places in full (builds are VD, so every component is shellable)."""
    rng = random.Random("linear-quotients")
    drawn = []
    for t in range(160):
        e = 1 + t % 4
        amb = [f"x{i}" for i in range(rng.randint(e + 1, 9))]
        drawn.append(MonomialIdeal(amb, [rng.sample(amb, e)
                                         for _ in range(rng.randint(2, 7))]))
    edges = [ideal_of(g, "edge") for g in seeded_graphs() if g.edges]
    builds = _build_components(rng, 40)
    fields = (GF2, FieldSpec(3), QQ)
    placed, not_linear = [], []
    for family in (drawn, edges, builds):
        placed.append(0)
        not_linear.append(0)
        for ideal in family:
            n, e = len(ideal.ambient), ideal._masks[0].bit_count()
            accepted = _linear_quotients(ideal._masks, n << n)
            for k in fields:
                truth = _hochster_linear(ideal, k)
                assert has_linear_resolution(ideal, k) == truth, \
                    (ideal.generator_tuples(), k)
                if accepted:
                    assert all(j == i + e for i, j in betti_oracle(ideal, k).entries), \
                        (ideal.generator_tuples(), k)
            placed[-1] += accepted
            not_linear[-1] += not truth  # over QQ, the last field
    assert [len(drawn), len(edges), len(builds)] == [160, 41, 77]
    assert not_linear == [57, 28, 0]
    assert placed == [103, 13, 77]


def test_linear_resolution_refuses_past_the_oracle_bound():
    """Past DEFAULT_ORACLE_AMBIENT_BOUND variables the greedy pass does not
    run: the oracle's refusal is the answer, though one edge is linear."""
    one_edge = MonomialIdeal([f"x{i}" for i in range(17)], [("x0", "x1")])
    with pytest.raises(ResourceLimit) as raised:
        has_linear_resolution(one_edge, GF2)
    assert str(raised.value) == "ambient size 17 exceeds the oracle bound 16"


def test_linear_quotients_budget_falls_back_to_the_oracle(monkeypatch):
    """The squarefree Veronese ideal of degree 4 in 10 variables has linear
    quotients in lex order, but the greedy pass needs 21,945 differences,
    past 10 * 2^10: the oracle answers it.  The edge ideal of a graph with
    chordal complement is placed, and no Betti term is walked."""
    amb = [f"x{i}" for i in range(10)]
    veronese = MonomialIdeal(amb, list(combinations(amb, 4)))
    assert len(veronese._masks) == 210
    assert not _linear_quotients(veronese._masks, 10 << 10)
    assert not _linear_quotients(veronese._masks, 21_944)
    assert _linear_quotients(veronese._masks, 21_945)
    walks = []
    terms = _betti_terms

    def counted(*args):
        walks.append(args[0])
        return terms(*args)

    monkeypatch.setattr("whiskers.ideals._betti_terms", counted)
    assert has_linear_resolution(veronese, GF2)
    assert walks == [veronese]

    def no_walk(*args):
        raise AssertionError("walked the Betti terms")

    monkeypatch.setattr("whiskers.ideals._betti_terms", no_walk)
    g = path_graph([f"v{i}" for i in range(1, 8)]).complement()
    assert g.complement().is_chordal()[0]
    assert has_linear_resolution(ideal_of(g, "edge"), GF2)


def test_scm_of_rp2_comes_from_the_oracle(monkeypatch):
    """The 6-vertex RP^2 is Cohen-Macaulay over QQ and F3 but not over F2,
    so no order of its dual's generators has linear quotients, which would
    hold over every field: its one component goes to the oracle over each
    field, and the oracle decides."""
    rp2 = SimplicialComplex("123456", [
        "123", "134", "145", "156", "126", "235", "245", "246", "346", "356"])
    walks = []
    terms = _betti_terms

    def counted(*args):
        walks.append(args[1])
        return terms(*args)

    monkeypatch.setattr("whiskers.ideals._betti_terms", counted)
    for k, verdict in ((GF2, False), (QQ, True), (FieldSpec(3), True)):
        assert is_scm_via_dual(rp2, k) == verdict, k
    assert walks == [GF2, QQ, FieldSpec(3)]


def test_oracle_resource_limit():
    big = MonomialIdeal([f"x{i}" for i in range(20)], [("x0", "x1")])
    with pytest.raises(ResourceLimit):
        betti_oracle(big, GF2, ambient_bound=10)
    # a raised bound stops at the ceiling, before any table is built
    over = MonomialIdeal([f"x{i}" for i in range(ORACLE_AMBIENT_CEILING + 1)],
                         [("x0", "x1")])
    with pytest.raises(ResourceLimit,
                       match=f"ceiling {ORACLE_AMBIENT_CEILING}"):
        betti_oracle(over, GF2, ambient_bound=40)


def test_hom_cache_is_bounded():
    """A full cache is cleared on the next miss, and the table is unchanged."""
    ideal = ideal_of(c6(), "edge")
    want = betti_oracle(ideal, GF2)
    _hom_cache.clear()
    _hom_cache.update({("filler", t): {} for t in range(HOM_CACHE_BOUND)})
    assert betti_oracle(ideal, GF2) == want
    assert 0 < len(_hom_cache) < HOM_CACHE_BOUND
    assert not any(key[0] == "filler" for key in _hom_cache)


def test_hom_cache_keeps_fields_apart():
    """The Stanley-Reisner ring of the 6-vertex RP^2 has 2-torsion in its
    homology, so its F2 and QQ tables differ.  One warm cache serves both
    fields in turn, and each table still equals the Koszul one."""
    rp2 = SimplicialComplex("123456", [
        "123", "134", "145", "156", "126", "235", "245", "246", "346", "356"])
    ideal = ideal_of(rp2, "stanley-reisner")
    want = {p: koszul_betti(ideal, p) for p in (2, 0)}
    assert want[2] != want[0]
    _hom_cache.clear()
    for field in (GF2, QQ, GF2):
        got = betti_oracle(ideal, field).as_quotient().entries
        assert got == want[field.p or 0], field


def _walked_families(ideal) -> tuple[int, int]:
    """(restrictions the oracle walks, distinct complexes among them).

    The oracle walks the contributing W with three or more generators
    inside; the terms of the others come from its tables.  Per walked W,
    the family walked is the restriction's faces or, when they are more
    than half the subsets of W, the Alexander dual's (the S with W - S a
    nonface).  Two families count once when they are the same complex
    after each is renumbered over its own support."""
    walked, seen = 0, set()
    for w in range(1, 1 << len(ideal.ambient)):
        inside = [g for g in ideal._masks if g & w == g]
        if sum(1 << b for b in range(w.bit_length())
               if any(g >> b & 1 for g in inside)) != w:
            continue  # a cone point: the restriction is acyclic
        if len(inside) <= 2:
            continue  # W is a generator or the union of two
        walked += 1
        subsets = [s for s in range(w + 1) if s & w == s]
        faces = {s for s in subsets if not any(g & s == g for g in inside)}
        if 2 * len(faces) > len(subsets):
            faces = {w ^ s for s in subsets if s not in faces}
        support = [b for b in range(w.bit_length())
                   if any(s >> b & 1 for s in faces)]
        seen.add(frozenset(sum(1 << i for i, b in enumerate(support)
                               if s >> b & 1) for s in faces))
    return walked, len(seen)


def test_hom_cache_shares_entries_across_ghost_vertices():
    """A vertex of W in none of the walked faces does not split the cache:
    the variable of a degree-1 generator is one on the restriction's side,
    and cover ideals have them on the Alexander dual's.  On one warm cache
    every table over F2, F3 and QQ equals the Koszul one; from a cleared
    cache each ideal leaves one entry per distinct complex walked."""
    rng = random.Random(18)
    ideals = []
    for _ in range(8):
        amb = [f"x{t + 1}" for t in range(rng.randint(4, 5))]
        ghosts = rng.sample(amb, 2)
        rest = [v for v in amb if v not in ghosts]
        gens = [(v,) for v in ghosts]
        gens += [tuple(rng.sample(rest, rng.randint(2, len(rest))))
                 for _ in range(rng.randint(1, len(rest)))]
        ideals.append(MonomialIdeal(amb, gens))
    for _ in range(8):
        g = random_graph(rng, rng.randint(3, 5), rng.uniform(0.3, 0.7))
        ideals.append(ideal_of(g, "cover"))
    _hom_cache.clear()
    for ideal in ideals:
        for field in (GF2, FieldSpec(3), QQ):
            got = betti_oracle(ideal, field).as_quotient().entries
            assert got == koszul_betti(ideal, field.p or 0), \
                (ideal.generator_tuples(), field)
    for ideal in ideals:
        _hom_cache.clear()
        betti_oracle(ideal, GF2)
        assert len(_hom_cache) == _walked_families(ideal)[1], \
            ideal.generator_tuples()
    # the cover ideal of C7 walks 8 restrictions, all copies of 5 complexes
    _hom_cache.clear()
    c7 = ideal_of(cycle_graph(list("abcdefg")), "cover")
    betti_oracle(c7, GF2)
    assert len(_hom_cache) == 5 < _walked_families(c7)[0] == 8


def test_tsv_output():
    t = BettiTable(GF2, {(0, 2): 3, (1, 3): 2})
    assert t.to_tsv() == "i\tj\tbeta\n0\t2\t3\n1\t3\t2\n"
