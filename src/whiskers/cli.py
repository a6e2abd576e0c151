"""Command-line front end.

Exit codes: 0 success; 1 property violation or refutation under --expect-vd
or a nonempty --method both diff; 2 usage or parse error; 3 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import properties as prop_suites
from .complexes import ComplexError, independence_complex
from .decomposability import is_vertex_decomposable
from .fields import FieldSpec
from .graph import GraphError, ResourceLimit
from .ideals import (DEFAULT_ORACLE_AMBIENT_BOUND, ORACLE_AMBIENT_CEILING,
                     IdealError, betti_oracle, betti_recursive_cover, ideal_of)
from .io import (ParseError, format_graph, graph_to_dot, parse_complex,
                 parse_graph, parse_partition)
from .poset import FacetPoset, PosetError, count_facets_pi
from .whisker import KINDS, WhiskerError, build_whiskered, derive_kind

USAGE_ERRORS = (ParseError, WhiskerError, GraphError, PosetError, IdealError,
                ComplexError, OSError)
LIMIT_ERRORS = (ResourceLimit,)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: byte {exc.start} is not UTF-8") from None


def _load(args):
    """(graph, build) from --graph [--partition] [--kind]: the build of the
    --graph file's graph when --partition is given, else (that graph, None)."""
    g = parse_graph(_read(args.graph))
    if not args.partition:
        return g, None
    spec = parse_partition(_read(args.partition), g)
    w = build_whiskered(g, spec, args.kind or derive_kind(spec))
    return w.graph, w


def _add_build_args(sub) -> None:
    sub.add_argument("--graph", required=True, help="base graph file")
    sub.add_argument("--partition", required=True, help="partition spec file")
    sub.add_argument("--kind", choices=KINDS, default=None,
                     help="construction kind (default: derived from the spec)")


def cmd_build(args, out) -> int:
    _, w = _load(args)
    out.write(f"# kind={w.kind} type=({w.type[0]},{w.type[1]})\n")
    out.write(format_graph(w.graph))
    return 0


def cmd_check_vd(args, out) -> int:
    if args.complex:
        c = parse_complex(_read(args.complex))
    elif args.graph:
        c = independence_complex(_load(args)[0])
    else:
        raise ParseError("check-vd needs --complex or --graph [--partition]")
    cert = is_vertex_decomposable(c)
    out.write(("vertex-decomposable\n" if cert.decomposable
               else "not vertex-decomposable\n"))
    for line in cert.to_lines():
        out.write(line + "\n")
    return 0 if cert.decomposable or not args.expect_vd else 1


def cmd_facets(args, out) -> int:
    _, w = _load(args)
    c = independence_complex(w.graph)
    facets = c.facet_tuples()
    for f in facets:
        out.write("facet " + " ".join(f) + "\n")
    out.write(f"{len(facets)} facets\n")
    if w.kind == "pi":
        try:
            count = count_facets_pi(w.base, w.spec)
        except ResourceLimit as exc:
            count = f"skipped ({exc})"
        out.write(f"inclusion-exclusion count: {count}\n")
        out.write(f"independent-set count: {w.base.independent_set_count()}\n")
    return 0


def cmd_poset(args, out) -> int:
    _, w = _load(args)
    p = FacetPoset(w)
    out.write(f"{len(p)} elements, least element: "
              + (" ".join(sorted(p.least)) or "(empty)") + "\n")
    for f in p.maximal_elements():
        size, chains = p.interval_stats(f)
        out.write(f"maximal {' '.join(sorted(f))}: interval size {size}, "
                  f"{chains} maximal chains\n")
    out.write(p.to_dot() + "\n")
    return 0


def cmd_betti(args, out) -> int:
    if args.oracle_bound < 0:
        raise ParseError(f"--oracle-bound {args.oracle_bound} is below 0")
    if args.method != "oracle" and (not args.partition or args.ideal != "cover"):
        raise IdealError(f"--method {args.method} needs --partition and the "
                         "cover ideal")
    target, w = _load(args)
    tables = {}
    if args.method in ("oracle", "both"):
        tables["oracle"] = betti_oracle(ideal_of(target, args.ideal), args.field,
                                        ambient_bound=args.oracle_bound)
    if args.method in ("recursive", "both"):
        tables["recursive"] = betti_recursive_cover(w, k=args.field)
    shown = tables.get("oracle", next(iter(tables.values())))
    if args.quotient:
        shown = shown.as_quotient()
    out.write(shown.to_tsv())
    if args.method == "both":
        a, b = tables["oracle"], tables["recursive"]
        keys = sorted(set(a.entries) | set(b.entries))
        diffs = [(i, j) for i, j in keys if a.get(i, j) != b.get(i, j)]
        if diffs:
            out.write("diff: methods disagree at "
                      + ", ".join(f"({i},{j})" for i, j in diffs) + "\n")
            return 1
        out.write("diff: empty\n")
    return 0


def cmd_properties(args, out) -> int:
    if args.count < 1:
        raise ParseError(f"--count {args.count} is below 1")
    if args.count > prop_suites.COUNT_BOUND:
        raise ResourceLimit(f"--count {args.count} exceeds the property count "
                            f"bound {prop_suites.COUNT_BOUND}")
    failures = 0
    for name, fn in prop_suites.CHECKS.items():
        bad = fn(random.Random(f"{args.seed}:{name}"), args.count)
        out.write(f"{'FAIL' if bad else 'PASS'} {name}\n")
        for line in bad:
            out.write(f"  {line}\n")
        failures += bool(bad)
    out.write(f"{len(prop_suites.CHECKS) - failures}/{len(prop_suites.CHECKS)} "
              "suites passed\n")
    return 1 if failures else 0


def cmd_export_dot(args, out) -> int:
    out.write(graph_to_dot(_load(args)[0]))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, without the usage block before it;
    subparsers are made of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once and shared; parsing leaves no state in it."""
    ap = _Parser(prog="whiskers")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("build", help="build a whiskered graph and print it")
    _add_build_args(s)
    s.set_defaults(fn=cmd_build)

    s = sub.add_parser("check-vd", help="vertex decomposability certificate")
    s.add_argument("--graph", help="graph file (uses its independence complex)")
    s.add_argument("--partition", help="optional partition file; builds first")
    s.add_argument("--kind", choices=KINDS, default=None)
    s.add_argument("--complex", help="simplicial complex file")
    s.add_argument("--expect-vd", action="store_true",
                   help="exit 1 on a refutation")
    s.set_defaults(fn=cmd_check_vd)

    s = sub.add_parser("facets", help="facets of the independence complex")
    _add_build_args(s)
    s.set_defaults(fn=cmd_facets)

    s = sub.add_parser("poset", help="facet poset stats and Hasse DOT (kind=pi)")
    _add_build_args(s)
    s.set_defaults(fn=cmd_poset)

    s = sub.add_parser("betti", help="graded Betti numbers")
    s.add_argument("--graph", required=True)
    s.add_argument("--partition", default=None)
    s.add_argument("--kind", choices=KINDS, default=None)
    s.add_argument("--ideal", choices=["cover", "edge"], default="cover")
    s.add_argument("--method", choices=["oracle", "recursive", "both"],
                   default="oracle")
    s.add_argument("--field", type=FieldSpec.parse, default="2",
                   help="a prime, or 0 for rationals")
    s.add_argument("--quotient", action="store_true",
                   help="report the quotient ring convention")
    s.add_argument("--oracle-bound", type=int,
                   default=DEFAULT_ORACLE_AMBIENT_BOUND,
                   help="ambient vertex bound for the homology oracle "
                        f"(at most {ORACLE_AMBIENT_CEILING} takes effect)")
    s.set_defaults(fn=cmd_betti)

    s = sub.add_parser("properties", help="seeded random invariant suites")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=10,
                   help="instances per suite")
    s.set_defaults(fn=cmd_properties)

    s = sub.add_parser("export-dot", help="DOT drawing of a graph")
    s.add_argument("--graph", required=True)
    s.add_argument("--partition", default=None)
    s.add_argument("--kind", choices=KINDS, default=None)
    s.set_defaults(fn=cmd_export_dot)
    return ap


def run(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args, out)
    except LIMIT_ERRORS as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
