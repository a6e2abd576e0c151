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


# -- graphs --------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    vertices: dict[str, None] = {}  # in order of first mention
    edges: list[tuple[str, str]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.setdefault(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            vertices.update(dict.fromkeys(parts[1:]))
            edges.append((parts[1], parts[2]))
        else:
            raise ParseError(f"line {lineno}: expected 'vertex <name>' or 'edge <u> <v>'")
    return Graph(vertices, edges)


def format_graph(g: Graph) -> str:
    # every vertex is declared so the round-trip preserves vertex order
    vs = g.vertices
    lines = [f"vertex {v}" for v in vs]
    lines += [f"edge {vs[i]} {vs[j]}" for i, j in g.edge_pairs()]
    return "\n".join(lines) + "\n"


# -- complexes -------------------------------------------------------------------

def parse_complex(text: str) -> SimplicialComplex:
    ambient: dict[str, None] = {}  # in order of first mention
    facets: list[tuple[str, ...]] = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            ambient.setdefault(parts[1])
        elif parts[0] == "facet":
            ambient.update(dict.fromkeys(parts[1:]))
            facets.append(tuple(parts[1:]))
        else:
            raise ParseError(f"line {lineno}: expected 'vertex <name>' or 'facet v1 v2 ...'")
    return SimplicialComplex(ambient, facets)


def format_complex(c: SimplicialComplex) -> str:
    in_facet = c.support()
    lines = [f"vertex {v}" for v in c.ambient if v not in in_facet]
    lines += ["facet " + " ".join(f) for f in c.facet_tuples()]
    return "\n".join(lines) + "\n"


# -- partition specs ---------------------------------------------------------------

_EDGES_RE = re.compile(r"size=(\d+)\s+edges=\(([^)]*)\)")


def _parse_whisker(lineno: int, rest: str, prefix: str) -> Graph:
    m = _EDGES_RE.fullmatch(rest.strip())
    if not m:
        raise ParseError(f"line {lineno}: expected 'size=<n> edges=(...)'")
    size = int(m.group(1))
    if size < 1:
        raise ParseError(f"line {lineno}: whisker size must be >= 1")
    if size > MAX_VERTICES:
        raise ParseError(f"line {lineno}: whisker size {size} exceeds "
                         f"the {MAX_VERTICES}-vertex graph bound")
    names = [f"{prefix}.{k + 1}" for k in range(size)]
    edges = []
    spec = m.group(2).strip()
    if spec:
        for pair in spec.split(","):
            try:
                a, b = (int(x) for x in pair.strip().split("-"))
            except ValueError:
                raise ParseError(f"line {lineno}: bad edge pair {pair!r}") from None
            if not (1 <= a <= size and 1 <= b <= size):
                raise ParseError(f"line {lineno}: edge index out of range in {pair!r}")
            edges.append((names[a - 1], names[b - 1]))
    return Graph(names, edges)


def parse_partition(text: str, g: Graph) -> PartitionSpec:
    clique_names: list[str] = []
    cliques: dict[str, tuple[str, ...]] = {}
    cluster_names: list[str] = []
    clusters: dict[str, list[str]] = {}
    whisker_a_raw: dict[str, tuple[int, str]] = {}
    whisker_b_raw: dict[str, tuple[int, str]] = {}

    for lineno, line in _lines(text):
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<keyword> <name>: ...'")
        kw, name = parts
        if kw == "clique":
            if name in cliques:
                raise ParseError(f"line {lineno}: duplicate clique {name}")
            clique_names.append(name)
            cliques[name] = tuple(rest.split())
        elif kw == "cluster":
            if name in clusters:
                raise ParseError(f"line {lineno}: duplicate cluster {name}")
            cluster_names.append(name)
            clusters[name] = rest.split()
        elif kw == "whiskerA":
            if name in whisker_a_raw:
                raise ParseError(f"line {lineno}: duplicate whiskerA {name}")
            whisker_a_raw[name] = (lineno, rest)
        elif kw == "whiskerB":
            if name in whisker_b_raw:
                raise ParseError(f"line {lineno}: duplicate whiskerB {name}")
            whisker_b_raw[name] = (lineno, rest)
        else:
            raise ParseError(f"line {lineno}: unknown keyword {kw!r}")

    index = {name: i for i, name in enumerate(clique_names)}
    in_cluster: set[str] = set()
    cluster_list: list[tuple[int, ...]] = []
    cluster_name_of: list[str] = []
    for cname in cluster_names:
        members = clusters[cname]
        for w in members:
            if w not in index:
                raise ParseError(f"cluster {cname} references unknown clique {w}")
            if w in in_cluster:
                raise ParseError(f"clique {w} appears in more than one cluster")
            in_cluster.add(w)
        cluster_list.append(tuple(sorted(index[w] for w in members)))
        cluster_name_of.append(cname)
    for wname in clique_names:  # unmentioned cliques become singleton clusters
        if wname not in in_cluster:
            cluster_list.append((index[wname],))
            cluster_name_of.append(wname)

    whisker_a = []
    for i, wname in enumerate(clique_names):
        if wname in whisker_a_raw:
            lineno, rest = whisker_a_raw.pop(wname)
            whisker_a.append(_parse_whisker(lineno, rest, f"a{i + 1}"))
        else:
            whisker_a.append(edgeless_graph([f"a{i + 1}.1"]))
    if whisker_a_raw:
        raise ParseError(f"whiskerA for unknown clique {sorted(whisker_a_raw)[0]}")

    whisker_b: list[Graph | None] = []
    for j, members in enumerate(cluster_list):
        if len(members) <= 1:
            whisker_b.append(None)
            continue
        cname = cluster_name_of[j]
        if cname in whisker_b_raw:
            lineno, rest = whisker_b_raw.pop(cname)
            whisker_b.append(_parse_whisker(lineno, rest, f"b{j + 1}"))
        else:
            whisker_b.append(edgeless_graph([f"b{j + 1}.1"]))
    if whisker_b_raw:
        raise ParseError(f"whiskerB for unknown or single-clique cluster "
                         f"{sorted(whisker_b_raw)[0]}")

    return PartitionSpec(tuple(cliques[w] for w in clique_names),
                         tuple(cluster_list), tuple(whisker_a), tuple(whisker_b))


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
