"""Facet poset of pi-builds: order, intervals, counting routes."""

import io
import random
from math import factorial

import pytest

from whiskers import (FacetPoset, PosetError, ResourceLimit, WhiskerError,
                      build_whiskered, count_facets_pi, cycle_graph,
                      default_spec, format_graph, format_partition,
                      independence_complex, trivial_spec)
from whiskers import whisker
from whiskers.cli import run
from whiskers.poset import INCLUSION_EXCLUSION_MIS_BOUND
from whiskers.randinst import random_instance

from conftest import c6, c6_ears, c6_ears_spec, fig_odd_even


def test_requires_pi_kind():
    with pytest.raises(PosetError):
        FacetPoset(fig_odd_even())


def test_c6_ears_counts():
    g = c6()
    p = FacetPoset(c6_ears())
    assert len(p) == 18
    assert count_facets_pi(g, c6_ears_spec(g)) == 18
    assert g.independent_set_count() == 18


def test_least_element_is_all_whiskers():
    p = FacetPoset(c6_ears())
    assert p.least == frozenset({"a1.1", "a2.1", "a3.1"})
    assert all(p.le(p.least, f) for f in p.facets)


def test_order_is_base_part_inclusion():
    p = FacetPoset(c6_ears())
    w = p.whisker_set
    for f1 in p.facets:
        for f2 in p.facets:
            assert p.le(f1, f2) == (f1 - w <= f2 - w)


def test_c6_ears_interval_stats():
    p = FacetPoset(c6_ears())
    maxes = p.maximal_elements()
    sizes = sorted(len(f - p.whisker_set) for f in maxes)
    assert sizes == [2, 2, 2, 3, 3]
    for f in maxes:
        r = len(f - p.whisker_set)
        assert p.interval_stats(f) == (2 ** r, factorial(r))


def test_interval_stats_rejects_nonmaximal():
    """A set that is not maximal, or not an element at all: an edge of C6,
    and a name outside the build."""
    p = FacetPoset(c6_ears())
    for f, message in (
            (p.least, "interval statistics are defined for maximal elements"),
            (frozenset({"v1", "v2"}), "not a poset element"),
            (frozenset({"zz"}), "not a poset element")):
        with pytest.raises(PosetError) as err:
            p.interval_stats(f)
        assert str(err.value) == message, sorted(f)


def test_intervals_cover_poset():
    p = FacetPoset(c6_ears())
    covered = set()
    for f in p.maximal_elements():
        top = f - p.whisker_set
        covered |= {bp for bp in p.base_parts if bp <= top}
    assert len(covered) == len(p)


def test_hasse_dot_shape():
    p = FacetPoset(c6_ears())
    dot = p.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == \
        sum(len(ups) for ups in p.covers)


def test_random_pi_instances():
    rng = random.Random(14)
    for _ in range(25):
        g, spec = random_instance(rng, "pi", max_base=6, max_total=12)
        w = build_whiskered(g, spec, "pi")
        p = FacetPoset(w)
        direct = len(independence_complex(w.graph).facets)
        assert len(p) == direct == count_facets_pi(g, spec) \
            == g.independent_set_count()
        for f in p.maximal_elements():
            r = len(f - p.whisker_set)
            assert p.interval_stats(f) == (2 ** r, factorial(r))


def test_count_facets_pi_budget():
    # C10 has 17 maximal independent sets and C12 has 29
    c10 = cycle_graph([f"v{i}" for i in range(10)])
    assert count_facets_pi(c10, trivial_spec(c10)) == 123
    c12 = cycle_graph([f"v{i}" for i in range(12)])
    with pytest.raises(ResourceLimit,
                       match=f"29 maximal independent sets > bound "
                             f"{INCLUSION_EXCLUSION_MIS_BOUND}"):
        count_facets_pi(c12, trivial_spec(c12))


def test_count_facets_pi_checks_the_spec_without_a_build(monkeypatch):
    """An invalid spec or kind gives the message of ``build_whiskered``, and
    a valid one is counted without assembling a build."""
    g = c6()
    bad = [default_spec(g, [("v1", "v3"), ("v2",), ("v4", "v5", "v6")]),
           default_spec(g, [(v,) for v in g.vertices], a_sizes=[2] + [1] * 5)]
    messages = []
    for spec in bad:
        with pytest.raises(WhiskerError) as err:
            build_whiskered(g, spec, "pi")
        messages.append(str(err.value))

    def no_build(*args):
        raise AssertionError("count_facets_pi assembled a build")

    monkeypatch.setattr(whisker, "_assemble", no_build)
    for spec, message in zip(bad, messages):
        with pytest.raises(WhiskerError) as err:
            count_facets_pi(g, spec)
        assert str(err.value) == message
    assert count_facets_pi(g, c6_ears_spec(g)) == 18


def test_cli_facets_builds_once(tmp_path, monkeypatch):
    g = cycle_graph([f"v{i}" for i in range(1, 11)])
    (tmp_path / "c10.graph").write_text(format_graph(g))
    (tmp_path / "c10.part").write_text(format_partition(trivial_spec(g)))
    calls = []
    assemble = whisker._assemble
    monkeypatch.setattr(whisker, "_assemble",
                        lambda *args: calls.append(args) or assemble(*args))
    out = io.StringIO()
    assert run(["facets", "--graph", str(tmp_path / "c10.graph"),
                "--partition", str(tmp_path / "c10.part")], out=out) == 0
    assert out.getvalue().endswith("123 facets\ninclusion-exclusion count: "
                                   "123\nindependent-set count: 123\n")
    assert len(calls) == 1


def test_order_matches_the_sorted_rank_key():
    """Parts sort by size, then by the sorted string ranks of their names,
    on builds whose names are shuffled against the position order and
    whose numbers sort as strings (v10 before v2)."""
    rng = random.Random(53)
    for t in range(24):
        n = 4 + t % 9
        names = [f"v{i}" for i in range(1, n + 1)]
        rng.shuffle(names)
        g = cycle_graph(names)
        vs = g.vertices
        if t % 2:
            spec = default_spec(g, [vs[i:i + 2] for i in range(0, n, 2)])
        else:
            spec = trivial_spec(g)
        w = build_whiskered(g, spec, "pi")
        p = FacetPoset(w)
        gw = w.graph
        rank = {i: r for r, i in enumerate(sorted(range(len(gw.vertices)),
                                                  key=lambda i: gw.vertices[i]))}
        added = gw._to_mask(w.added)
        parts = [f & ~added for f in gw._mis_masks()]
        old = sorted(parts, key=lambda m: (
            m.bit_count(), sorted(rank[b] for b in range(m.bit_length())
                                  if m >> b & 1)))
        assert p._parts == old
        assert len(set(old)) == len(old)


def _pairwise_covers(p):
    """The Hasse covers by definition: one more element and a proper
    superset, in index order."""
    bps = p.base_parts
    return [[j for j, big in enumerate(bps)
             if len(big) == len(small) + 1 and small < big]
            for small in bps]


def _seeded_pi_builds():
    rng = random.Random(29)
    builds = [build_whiskered(*random_instance(rng, "pi", max_base=7,
                                               max_total=14), "pi")
              for _ in range(15)]
    for n in range(6, 13):
        # names like x17 sort as strings, not as numbers
        g = cycle_graph([f"x{i}" for i in rng.sample(range(10 * n), n)])
        vs = g.vertices
        builds.append(build_whiskered(g, trivial_spec(g), "pi"))
        ears = default_spec(g, [vs[i:i + 2] for i in range(0, n, 2)])
        builds.append(build_whiskered(g, ears, "pi"))
    return builds


def test_covers_match_pairwise_reference():
    """Elements sort by base-part size, then by names in string order,
    which is not the graph's position order for names like x17."""
    for w in _seeded_pi_builds():
        p = FacetPoset(w)
        assert p.facets == sorted(independence_complex(w.graph).facets,
                                  key=lambda f: (len(f - w.added), sorted(f - w.added)))
        ref = _pairwise_covers(p)
        assert p.covers == ref
        lines = ["digraph hasse {", "  rankdir=BT;"]
        lines += [f'  n{i} [label="{" ".join(sorted(f))}"];'
                  for i, f in enumerate(p.facets)]
        lines += [f"  n{i} -> n{j};" for i, ups in enumerate(ref) for j in ups]
        lines.append("}")
        assert p.to_dot() == "\n".join(lines)


def test_cli_poset_on_c16(tmp_path):
    g = cycle_graph([f"v{i}" for i in range(16)])
    (tmp_path / "c16.graph").write_text(format_graph(g))
    (tmp_path / "c16.part").write_text(format_partition(trivial_spec(g)))
    out = io.StringIO()
    code = run(["poset", "--graph", str(tmp_path / "c16.graph"),
                "--partition", str(tmp_path / "c16.part")], out=out)
    assert code == 0
    assert out.getvalue().startswith("2207 elements, ")
    assert g.independent_set_count() == 2207
