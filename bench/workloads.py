"""The four seeded benchmark workloads: inputs, items and output checks.

Every workload turns a seed string into a list of items.  An item is one
closed-loop call chain into ``whiskers`` that the worker times; its result is
kept and checked only after the timed phase.  ``check`` returns, per item,
``None`` or the reason the output is wrong.  ``digest`` gives the canonical
text of a result, which the reference digests in ``reference.json`` pin.

Items look up the library's functions as attributes of ``whiskers`` (``W``)
at call time, so that the tracer's wrappers see the calls.  Sizes are fixed
per workload (see README.md for why each was chosen).
``scale`` shrinks the item counts for the smoke test only.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from io import StringIO
from math import factorial
from typing import Any, Callable

import whiskers as W
from whiskers import (FieldSpec, build_whiskered, cycle_graph, default_spec,
                      derive_kind, trivial_spec)
from whiskers import cli
from whiskers.fields import GF2, QQ
from whiskers.io import (format_graph, format_partition, parse_graph,
                         parse_partition)
from whiskers.randinst import random_build, random_graph

FIELDS = [GF2, FieldSpec(3), QQ]
BUILD_KINDS = ["pi", "cc", "mc"]


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    data: dict = field(default_factory=dict)


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _exact_build(rng: random.Random, kind: str, n: int, max_base: int):
    """A seeded build with exactly n vertices, so that item cost depends on
    structure and not on a size drawn at random."""
    while True:
        w = random_build(rng, kind, max_base=max_base, max_total=n)
        if len(w.graph.vertices) == n:
            return w


def _table_text(t) -> str:
    return f"{t.field} " + " ".join(f"{i},{j}:{b}" for (i, j), b
                                    in sorted(t.entries.items()))


# -- betti: oracle and recursion on the cover ideal, F2 -> F3 -> QQ ------------

def betti_items(seed: str, scale: float = 1.0, workdir: str = "") -> list[Item]:
    rng = random.Random(f"betti:{seed}")
    items = []
    for t in range(_count(150, scale)):
        k = FIELDS[t % 3]
        # QQ oracle cost grows fastest with size: 9-vertex QQ items ran
        # from 5 ms to 1.3 s and swamped the pass-to-pass spread
        n = 7 + t % 4 if k.p else 7 + t // 3 % 2
        w = _exact_build(rng, BUILD_KINDS[t // 3 % 3], n, max_base=7)
        items.append(Item("oracle", lambda w=w, k=k:
                           W.betti_oracle(W.ideal_of(w.graph, "cover"), k),
                           {"pair": t}))
        items.append(Item("recursive", lambda w=w, k=k:
                          W.betti_recursive_cover(w, k=k), {"pair": t}))
    return items


def betti_check(items: list[Item], results: list) -> list[str | None]:
    by_pair: dict[int, list] = {}
    for item, res in zip(items, results):
        by_pair.setdefault(item.data["pair"], []).append(res)
    out = []
    for item in items:
        tables = by_pair[item.data["pair"]]
        out.append(None if tables[0] == tables[-1]
                   else "oracle table != recursive table")
    return out


def betti_digest(item: Item, result) -> str:
    return _table_text(result)


# -- scm: linear resolution of edge ideals and SCM via the dual, over F2 -------

def scm_items(seed: str, scale: float = 1.0, workdir: str = "") -> list[Item]:
    rng = random.Random(f"scm:{seed}")
    items = []
    for t in range(_count(100, scale)):
        g = random_graph(rng, 5 + t % 5, rng.uniform(0.15, 0.85))
        while not g.edges:
            g = random_graph(rng, 5 + t % 5, rng.uniform(0.15, 0.85))
        items.append(Item("linear", lambda g=g: W.has_linear_resolution(
            W.ideal_of(g, "edge"), GF2), {"graph": g}))
        w = _exact_build(rng, ["pi", "cc", "mc", "md"][t % 4], 8 + t % 4,
                         max_base=8)
        items.append(Item("scm", lambda w=w:
                          W.is_scm_via_dual(W.independence_complex(w.graph))))
    return items


def scm_check(items: list[Item], results: list) -> list[str | None]:
    out = []
    for item, res in zip(items, results):
        if item.label == "linear":
            chordal = item.data["graph"].complement().is_chordal()[0]
            out.append(None if res == chordal else
                       "linear resolution != chordal complement (Froberg)")
        else:
            out.append(None if res is True else "build is not SCM")
    return out


def scm_digest(item: Item, result) -> str:
    return repr(result)


# -- vd: decomposability of random graphs and pi builds of cycles --------------

def _vd_random(g):
    c = W.independence_complex(g)
    cert = W.is_vertex_decomposable(c)
    replay = W.verify_certificate(c, cert) if cert.decomposable else None
    return cert, replay


def _vd_pi(w):
    c = W.independence_complex(w.graph)
    shed = W.shedding_vertices(c)
    p = W.FacetPoset(w)
    stats = [(sorted(f - w.added), p.interval_stats(f))
             for f in p.maximal_elements()]
    return len(c.facets), len(p), shed, stats, w.base.independent_set_count()


def _relabelled_cycle(rng: random.Random, n: int):
    names = [f"x{i}" for i in rng.sample(range(10 * n), n)]
    return cycle_graph(names)


def vd_items(seed: str, scale: float = 1.0, workdir: str = "") -> list[Item]:
    rng = random.Random(f"vd:{seed}")
    items = []
    for t in range(_count(120, scale)):
        # 16-17 vertices gave refutations of up to 1.5 s; at 12-15 and
        # p = 0.35 about 40% of the graphs are VD
        g = random_graph(rng, 12 + t % 4, 0.35)
        items.append(Item("random", lambda g=g: _vd_random(g)))
        if t % 5 == 4:  # the pi items are the top fifth: p90 falls in them
            u = t // 5
            base = _relabelled_cycle(rng, 8 + u % 3)
            vs = base.vertices
            if u // 3 % 2:
                spec = default_spec(base, [vs[i:i + 2]
                                           for i in range(0, len(vs), 2)])
            else:
                spec = trivial_spec(base)
            w = build_whiskered(base, spec, "pi")
            items.append(Item("pi", lambda w=w: _vd_pi(w)))
    return items


def vd_check(items: list[Item], results: list) -> list[str | None]:
    out = []
    for item, res in zip(items, results):
        bad = None
        if item.label == "random":
            cert, replay = res
            if cert.decomposable and replay is not True:
                bad = "certificate replay failed"
        else:
            facets, poset_size, shed, stats, isc = res
            if not facets == poset_size == isc:
                bad = "facet count != base independent_set_count"
            elif not shed:
                bad = "pi build has no shedding vertex"
            elif any(st != (2 ** len(top), factorial(len(top)))
                     for top, st in stats):
                bad = "interval statistics != (2^r, r!)"
        out.append(bad)
    return out


def vd_digest(item: Item, result) -> str:
    if item.label == "random":
        cert, replay = result
        return "\n".join(cert.to_lines()) + f"\nreplay {replay}"
    return repr(result)


# -- cli: a desk session of subcommands on seeded input files -------------------

def cli_items(seed: str, scale: float = 1.0, workdir: str = "") -> list[Item]:
    rng = random.Random(f"cli:{seed}")
    items = []

    def add(argv, **data):
        items.append(Item(argv[0], lambda argv=argv: _cli_call(argv),
                          {"argv": argv, **data}))

    for t in range(_count(60, scale)):
        kind = ["pi", "cc", "mc", "md"][t % 4]
        w = _exact_build(rng, kind, 6 + t % 4, max_base=6)
        gpath = os.path.join(workdir, f"g{t}.graph")
        ppath = os.path.join(workdir, f"p{t}.part")
        with open(gpath, "w", encoding="utf-8") as fh:
            fh.write(format_graph(w.base))
        with open(ppath, "w", encoding="utf-8") as fh:
            fh.write(format_partition(w.spec))
        build = ["--graph", gpath, "--partition", ppath]
        add(["build", *build], files=(gpath, ppath))
        add(["check-vd", *build, "--expect-vd"])
        add(["export-dot", *build], files=(gpath, ppath))
        add(["export-dot", "--graph", gpath], files=(gpath, None))
        if derive_kind(w.spec) == "pi":
            add(["facets", *build], files=(gpath, ppath))
            add(["poset", *build], files=(gpath, ppath))
        if derive_kind(w.spec) in BUILD_KINDS:
            field = ["2", "3", "0"][t % 3]
            add(["betti", *build, "--method", "both", "--field", field])
        if t % 20 == 19:
            add(["properties", "--seed", str(rng.randrange(10 ** 6)),
                 "--count", "1"])
    return items


def _cli_call(argv: list[str]) -> tuple[int, str]:
    out = StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


def _load(files):
    gpath, ppath = files
    with open(gpath, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    if ppath is None:
        return g, None
    with open(ppath, encoding="utf-8") as fh:
        spec = parse_partition(fh.read(), g)
    return g, build_whiskered(g, spec, derive_kind(spec))


def _cli_problem(item: Item, code: int, text: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    cmd = item.label
    if cmd == "check-vd":
        return None if lines[0] == "vertex-decomposable" else "build not VD"
    if cmd == "betti":
        return None if lines[-1] == "diff: empty" else "methods disagree"
    if cmd == "properties":
        m = re.fullmatch(r"(\d+)/(\d+) suites passed", lines[-1])
        return None if m and m[1] == m[2] else "a property suite failed"
    g, w = _load(item.data["files"])
    if cmd == "build":
        header = f"# kind={w.kind} type=({w.type[0]},{w.type[1]})"
        ok = lines[0] == header and parse_graph("\n".join(lines[1:])) == w.graph
        return None if ok else "build output does not round-trip"
    if cmd == "export-dot":
        target = w.graph if w else g
        edges = sum(" -- " in line for line in lines)
        return None if edges == len(target.edges) else "DOT edge count wrong"
    isc = g.independent_set_count()
    if cmd == "facets":
        counts = {int(lines[-3].split()[0]), int(lines[-2].rsplit(" ", 1)[1]),
                  int(lines[-1].rsplit(" ", 1)[1]),
                  sum(line.startswith("facet ") for line in lines)}
        return None if counts == {isc} else "facet counts disagree"
    if cmd == "poset":
        if int(lines[0].split()[0]) != isc:
            return "poset size != base independent_set_count"
        base = set(g.vertices)
        for line in lines[1:]:
            m = re.fullmatch(r"maximal (.*): interval size (\d+), (\d+) "
                             r"maximal chains", line)
            if m:
                r = len(base.intersection(m[1].split()))
                if (int(m[2]), int(m[3])) != (2 ** r, factorial(r)):
                    return "interval statistics != (2^r, r!)"
        return None
    return f"unchecked command {cmd}"


def cli_check(items: list[Item], results: list) -> list[str | None]:
    out = []
    for item, res in zip(items, results):
        try:
            out.append(_cli_problem(item, *res))
        except (IndexError, ValueError) as exc:  # output not in the format
            out.append(f"malformed output: {exc!r}")
    return out


def cli_digest(item: Item, result) -> str:
    code, text = result
    return f"{code}\n{text}"


WORKLOADS = {
    "betti": (betti_items, betti_check, betti_digest),
    "scm": (scm_items, scm_check, scm_digest),
    "vd": (vd_items, vd_check, vd_digest),
    "cli": (cli_items, cli_check, cli_digest),
}
