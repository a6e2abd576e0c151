"""Monomial ideals and Betti tables.

Ground truth here is a from-scratch Koszul-homology computation written in
this file: beta_{i,j}(S/I) = dim_k H_i(K(x_1..x_n) (x) S/I)_j.  It shares no
code with the package's Hochster-style oracle.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest

from whiskers import (betti_closed_pi, betti_join, betti_oracle,
                      betti_recursive_cover, build_whiskered, cycle_graph,
                      has_linear_resolution, ideal_of, independence_complex,
                      trivial_spec)
from whiskers.fields import GF2, QQ, FieldSpec, rank_modp, rank_rational
from whiskers.ideals import BettiTable, IdealError, MonomialIdeal, ResourceLimit
from whiskers.randinst import random_build, random_graph

from conftest import c6, c6_ears_spec


# -- independent Koszul oracle --------------------------------------------------

def _rank_gf2(rows):
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def _rank_q(rows):
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        row = rows.pop(piv)
        rank += 1
        inv = 1 / row[col]
        row = [x * inv for x in row]
        rows = [[x - r[col] * y for x, y in zip(r, row)] if r[col] else r
                for r in rows]
        rows = [r for r in rows if any(r)]
        col += 1
    return rank


def koszul_betti(ideal, p):
    """{(i, j): beta_{i,j}(S/I)} for the quotient, j up to the variable count."""
    n = len(ideal.ambient)
    pos = {v: t for t, v in enumerate(ideal.ambient)}
    gens = [tuple(1 if v in g else 0 for v in ideal.ambient)
            for g in ideal.generator_tuples()]

    def in_ideal(u):
        return any(all(u[t] >= g[t] for t in range(n)) for g in gens)

    def monomials(deg):
        for c in combinations_with_replacement(range(n), deg):
            u = [0] * n
            for t in c:
                u[t] += 1
            yield tuple(u)

    def basis(i, j):
        if not 0 <= i <= n or j - i < 0:
            return []
        return [(T, u) for T in combinations(range(n), i)
                for u in monomials(j - i) if not in_ideal(u)]

    def rank_d(i, j):
        dom, cod = basis(i, j), basis(i - 1, j)
        if not dom or not cod:
            return 0
        index = {b: a for a, b in enumerate(cod)}
        rows = []
        for T, u in dom:
            row = [0] * len(cod) if p == 0 else 0
            for sign_pos, t in enumerate(T):
                xu = tuple(e + (1 if s == t else 0) for s, e in enumerate(u))
                if in_ideal(xu):
                    continue
                a = index[(tuple(x for x in T if x != t), xu)]
                if p == 0:
                    row[a] += (-1) ** sign_pos
                else:
                    row ^= 1 << a
            rows.append(row)
        return _rank_gf2(rows) if p else _rank_q(rows)

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
    against the independent _rank_q above."""
    rng = random.Random(7)
    mats = [[], [[]], [[], []], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]],
            [[1, 2], [0, 0], [2, 4]]]
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)  # tall and wide
        mats.append([[rng.choice([0, 0, 1, -1, 2, 3, -4]) for _ in range(cols)]
                     for _ in range(rows)])
    for mat in mats:
        for p in (2, 3, 5):
            span = {tuple(sum(c * x for c, x in zip(coeffs, col)) % p
                          for col in zip(*mat))
                    for coeffs in product(range(p), repeat=len(mat))}
            assert len(span) == p ** rank_modp(mat, p), (mat, p)
        assert rank_rational(mat) == _rank_q(mat), mat


# -- conventions and table algebra ----------------------------------------------

def test_ideal_kinds_and_identities():
    g = c6()
    ind = independence_complex(g)
    assert ideal_of(ind, "stanley-reisner") == ideal_of(g, "edge")
    assert ideal_of(ind.alexander_dual(), "stanley-reisner") \
        == ideal_of(ind.complement_facet_complex(), "facet") \
        == ideal_of(g, "cover")


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
        assert betti_recursive_cover(w, k=field) \
            == betti_oracle(ideal_of(w.graph, "cover"), field)


def test_recursion_rejects_md():
    rng = random.Random(4)
    w = random_build(rng, "md", max_base=4, max_total=10)
    with pytest.raises(IdealError):
        betti_recursive_cover(w)


def _independent_set_sizes(g):
    """i_s(G) for every s, by walking all independent sets."""
    pos = {v: b for b, v in enumerate(g.vertices)}
    adj = [sum(1 << pos[u] for u in g.neighbors(v)) for v in g.vertices]
    counts = [0] * (len(adj) + 1)

    def walk(start, blocked, size):
        counts[size] += 1
        for b in range(start, len(adj)):
            if not blocked >> b & 1:
                walk(b + 1, blocked | adj[b], size + 1)

    walk(0, 0, 0)
    return counts


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
        n = len(w.graph)
        expected = {0: 1}
        for s, count in enumerate(_independent_set_sizes(w.graph)):
            for e in range(s + 1):  # t^(n-s) (1-t)^s, term t^(n-s+e)
                j = n - s + e
                expected[j] = expected.get(j, 0) - count * comb(s, e) * (-1) ** e
        got: dict[int, int] = {}
        for (i, j), beta in betti_recursive_cover(w).as_quotient().entries.items():
            got[j] = got.get(j, 0) + (-1) ** i * beta
        assert {j: c for j, c in got.items() if c} \
            == {j: c for j, c in expected.items() if c}, w.graph


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


def test_oracle_resource_limit():
    big = MonomialIdeal([f"x{i}" for i in range(20)], [("x0", "x1")])
    with pytest.raises(ResourceLimit):
        betti_oracle(big, GF2, ambient_bound=10)


def test_tsv_output():
    t = BettiTable(GF2, {(0, 2): 3, (1, 3): 2})
    assert t.to_tsv() == "i\tj\tbeta\n0\t2\t3\n1\t3\t2\n"
