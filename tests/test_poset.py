"""Facet poset of pi-builds: order, intervals, counting routes."""

import random
from math import factorial

import pytest

from whiskers import (FacetPoset, PosetError, ResourceLimit, build_whiskered,
                      count_facets_pi, cycle_graph, independence_complex,
                      trivial_spec)
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
    p = FacetPoset(c6_ears())
    with pytest.raises(PosetError):
        p.interval_stats(p.least)


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
