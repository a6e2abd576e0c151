"""Line-oriented text formats and DOT export.

Graph files:      optional `vertex <name>` lines, then `edge <u> <v>` lines;
                  `#` starts a comment; vertices may be declared implicitly
                  by edges, isolated vertices need explicit `vertex` lines.
Complex files:    `facet v1 v2 ...` lines plus optional `vertex` lines for
                  ambient vertices in no facet.
Partition files:  `clique W1: v1 v2`, `cluster U1: W1 W3`,
                  `whiskerA W1: size=2 edges=(1-2)`,
                  `whiskerB U1: size=2 edges=()` (edges use 1-based local
                  indices into the whisker's vertices).

Graph and complex files share one scanner of `vertex` lines and body lines.
A partition file fills one declaration table (keyword -> name -> line) that
keeps file order, and one resolver gives each A and B its declared whisker,
else one vertex.
"""

from __future__ import annotations

import re

from .complexes import SimplicialComplex
from .graph import MAX_VERTICES, Graph, edgeless_graph
from .whisker import PartitionSpec


class ParseError(ValueError):
    pass


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _scan(text: str, keyword: str, arity: int | None, form: str):
    """(names in order of first mention, name lists of the ``keyword``
    lines) of a file of `vertex <name>` lines and ``keyword`` lines naming
    ``arity`` vertices, or any number when ``arity`` is None."""
    names: dict[str, None] = {}
    bodies: list[list[str]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            names.setdefault(parts[1])
        elif parts[0] == keyword and arity in (None, len(parts) - 1):
            names.update(dict.fromkeys(parts[1:]))
            bodies.append(parts[1:])
        else:
            raise ParseError(f"line {lineno}: expected 'vertex <name>' or '{form}'")
    return names, bodies


# -- graphs --------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    return Graph(*_scan(text, "edge", 2, "edge <u> <v>"))


def format_graph(g: Graph) -> str:
    # every vertex is declared so the round-trip preserves vertex order
    vs = g.vertices
    lines = [f"vertex {v}" for v in vs]
    lines += [f"edge {vs[i]} {vs[j]}" for i, j in g.edge_pairs()]
    return "\n".join(lines) + "\n"


# -- complexes -------------------------------------------------------------------

def parse_complex(text: str) -> SimplicialComplex:
    return SimplicialComplex(*_scan(text, "facet", None, "facet v1 v2 ..."))


def format_complex(c: SimplicialComplex) -> str:
    in_facet = c.support()
    lines = [f"vertex {v}" for v in c.ambient if v not in in_facet]
    lines += ["facet " + " ".join(f) for f in c.facet_tuples()]
    return "\n".join(lines) + "\n"


# -- partition specs ---------------------------------------------------------------

_EDGES_RE = re.compile(r"size=(\d+)\s+edges=\(([^)]*)\)")


def _echo(pair: str) -> str:
    """`` in '<pair>'`` when ascii() prints the pair in at most 26
    characters, which are as many bytes, else "": an error stays one short
    line."""
    shown = ascii(pair)
    return f" in {shown}" if len(shown) <= 26 else ""


def _parse_whisker(lineno: int, rest: str, prefix: str) -> Graph:
    m = _EDGES_RE.fullmatch(rest.strip())
    if not m:
        raise ParseError(f"line {lineno}: expected 'size=<n> edges=(...)'")
    digits = m.group(1).lstrip("0") or "0"
    # int() refuses 4,300 digits, so the length is checked first
    if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
        raise ParseError(f"line {lineno}: whisker size exceeds "
                         f"the {MAX_VERTICES}-vertex graph bound")
    size = int(digits)
    if size < 1:
        raise ParseError(f"line {lineno}: whisker size must be >= 1")
    names = [f"{prefix}.{k + 1}" for k in range(size)]
    edges = []
    spec = m.group(2).strip()
    for pair in spec.split(",") if spec else ():
        ends = [x.strip() for x in pair.split("-")]
        if len(ends) != 2 or not all(x.isdecimal() for x in ends):
            raise ParseError(f"line {lineno}: bad edge pair{_echo(pair)}")
        # an index with more digits than the size is out of range, and is
        # refused before int(), which stops at 4,300 digits, zeros included
        ends = [x.lstrip("0") or "0" for x in ends]
        if any(len(x) > len(digits) or not 1 <= int(x) <= size for x in ends):
            raise ParseError(f"line {lineno}: edge index out of range{_echo(pair)}")
        a, b = map(int, ends)
        edges.append((names[a - 1], names[b - 1]))
    return Graph(names, edges)


def _whisker(raw: dict[str, tuple[int, str]], name: str, prefix: str) -> Graph:
    """Pop and parse the whisker declared for ``name``, or else one vertex."""
    if name in raw:
        return _parse_whisker(*raw.pop(name), prefix)
    return edgeless_graph([f"{prefix}.1"])


def parse_partition(text: str, g: Graph) -> PartitionSpec:
    # keyword -> name -> (line number, text after the colon), in file order
    decl: dict[str, dict[str, tuple[int, str]]] = {
        "clique": {}, "cluster": {}, "whiskerA": {}, "whiskerB": {}}
    for lineno, line in _lines(text):
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<keyword> <name>: ...'")
        kw, name = parts
        table = decl.get(kw)
        if table is None:
            raise ParseError(f"line {lineno}: unknown keyword {kw!r}")
        if name in table:
            raise ParseError(f"line {lineno}: duplicate {kw} {name}")
        table[name] = (lineno, rest)

    index = {name: i for i, name in enumerate(decl["clique"])}
    in_cluster: set[str] = set()
    # (name, clique indices); not a dict, since an unmentioned clique's
    # singleton cluster takes the clique's name, which a cluster may share
    clusters: list[tuple[str, tuple[int, ...]]] = []
    for cname, (lineno, rest) in decl["cluster"].items():
        members = rest.split()
        here: set[str] = set()
        for w in members:
            if w not in index:
                raise ParseError(f"line {lineno}: cluster {cname} references "
                                 f"unknown clique {w}")
            if w in here:
                raise ParseError(f"line {lineno}: clique {w} repeats in cluster {cname}")
            if w in in_cluster:
                raise ParseError(f"line {lineno}: clique {w} appears in more "
                                 f"than one cluster")
            here.add(w)
        in_cluster |= here
        clusters.append((cname, tuple(sorted(index[w] for w in members))))
    clusters += [(w, (i,)) for w, i in index.items() if w not in in_cluster]

    raw_a, raw_b = decl["whiskerA"], decl["whiskerB"]
    whisker_a = tuple(_whisker(raw_a, w, f"a{i + 1}") for w, i in index.items())
    if raw_a:  # the first left over, in file order
        name, (lineno, _) = next(iter(raw_a.items()))
        raise ParseError(f"line {lineno}: whiskerA for unknown clique {name}")
    whisker_b = tuple(_whisker(raw_b, cname, f"b{j + 1}") if len(members) > 1 else None
                      for j, (cname, members) in enumerate(clusters))
    if raw_b:
        name, (lineno, _) = next(iter(raw_b.items()))
        raise ParseError(f"line {lineno}: whiskerB for unknown or single-clique "
                         f"cluster {name}")

    return PartitionSpec(tuple(tuple(rest.split()) for _, rest in decl["clique"].values()),
                         tuple(members for _, members in clusters), whisker_a, whisker_b)


def format_partition(spec: PartitionSpec) -> str:
    lines = []
    for i, w in enumerate(spec.cliques):
        lines.append(f"clique W{i + 1}: " + " ".join(w))
    # every cluster is written (even singletons) to preserve cluster order
    for j, c in enumerate(spec.clusters):
        lines.append(f"cluster U{j + 1}: " + " ".join(f"W{i + 1}" for i in c))

    def edges_of(g: Graph) -> str:
        return ",".join(f"{i + 1}-{j + 1}" for i, j in g.edge_pairs())

    for i, a in enumerate(spec.whisker_a):
        lines.append(f"whiskerA W{i + 1}: size={len(a.vertices)} edges=({edges_of(a)})")
    for j, b in enumerate(spec.whisker_b):
        if b is not None:
            lines.append(f"whiskerB U{j + 1}: size={len(b.vertices)} edges=({edges_of(b)})")
    return "\n".join(lines) + "\n"


# -- DOT --------------------------------------------------------------------------

def graph_to_dot(g: Graph) -> str:
    vs = g.vertices
    lines = ["graph G {"]
    lines += [f'  "{v}";' for v in vs]
    lines += [f'  "{vs[i]}" -- "{vs[j]}";' for i, j in g.edge_pairs()]
    lines.append("}")
    return "\n".join(lines) + "\n"
