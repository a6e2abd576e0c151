"""File formats, DOT export, and the command-line interface."""

import contextlib
import io
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whiskers
from whiskers import (build_whiskered, cycle_graph, format_complex, format_graph,
                      format_partition, graph_to_dot, parse_complex,
                      parse_graph, parse_partition, trivial_spec)
from whiskers import cli, properties
from whiskers.cli import run
from whiskers.decomposability import VD_REFUTATION_BOUND
from whiskers.fields import FieldSpec
from whiskers.graph import MAX_VERTICES, MIS_ENUMERATION_BOUND
from whiskers.ideals import ORACLE_AMBIENT_CEILING, BettiTable
from whiskers.io import ParseError
from whiskers.properties import COUNT_BOUND
from whiskers.randinst import random_complex_facets, random_graph, random_instance
from whiskers.whisker import KINDS

from conftest import c6

C6_TEXT = """\
# hexagon
edge v1 v2
edge v2 v3
edge v3 v4
edge v4 v5
edge v5 v6
edge v6 v1
"""

EARS_TEXT = """\
clique W1: v1 v2
clique W2: v3 v4
clique W3: v5 v6
"""

ODD_EVEN_TEXT = """\
clique W1: v1
clique W2: v2
clique W3: v3
clique W4: v4
clique W5: v5
clique W6: v6
cluster U1: W1 W3 W5
cluster U2: W2 W4 W6
"""


def test_parse_graph_roundtrip():
    g = parse_graph(C6_TEXT)
    assert g == c6()
    assert parse_graph(format_graph(g)) == g


def test_parse_graph_isolated_vertices():
    g = parse_graph("vertex a\nedge b c\n")
    assert g.vertices == ("a", "b", "c") and g.degree("a") == 0
    assert parse_graph(format_graph(g)) == g


def test_parse_graph_rejects_junk():
    with pytest.raises(ParseError):
        parse_graph("edge a\n")
    with pytest.raises(ParseError):
        parse_graph("triangle a b c\n")


def test_complex_roundtrip():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 7)
        from whiskers import SimplicialComplex
        c = SimplicialComplex([str(i + 1) for i in range(n)],
                              random_complex_facets(rng, n))
        assert parse_complex(format_complex(c)).facets == c.facets


def test_partition_roundtrip():
    g = c6()
    spec = parse_partition(EARS_TEXT, g)
    assert spec.cliques == (("v1", "v2"), ("v3", "v4"), ("v5", "v6"))
    assert parse_partition(format_partition(spec), g) == spec
    rng = random.Random(77)
    for kind in ("pi", "cc", "mc"):
        for _ in range(8):
            g2, spec2 = random_instance(rng, kind)
            assert parse_partition(format_partition(spec2), g2) == spec2


def test_partition_whisker_edges():
    g = parse_graph("vertex a\n")
    spec = parse_partition("clique W1: a\nwhiskerA W1: size=3 edges=(1-2,2-3)\n", g)
    wa = spec.whisker_a[0]
    assert wa.vertices == ("a1.1", "a1.2", "a1.3")
    assert wa.has_edge("a1.1", "a1.2") and not wa.has_edge("a1.1", "a1.3")


# (text, exact ParseError message), one case per partition rule
_PARTITION_ERRORS = [
    (EARS_TEXT + "clique W1: v1\n", "line 4: duplicate clique W1"),
    (ODD_EVEN_TEXT + "cluster U1: W2\n", "line 9: duplicate cluster U1"),
    (EARS_TEXT + "whiskerA W2: size=1 edges=()\nwhiskerA W2: size=2 edges=()\n",
     "line 5: duplicate whiskerA W2"),
    (ODD_EVEN_TEXT + "whiskerB U2: size=1 edges=()\nwhiskerB U2: size=2 edges=()\n",
     "line 10: duplicate whiskerB U2"),
    ("clique W1: a\nwhisker W1: size=1 edges=()\n", "line 2: unknown keyword 'whisker'"),
    ("clique W1: a\nclique W2 b\n", "line 2: expected '<keyword> <name>: ...'"),
    ("clique W1: a\ncluster U1: W1 W9\n", "line 2: cluster U1 references unknown clique W9"),
    ("clique W1: a\nclique W2: b\ncluster U1: W1\ncluster U2: W2 W1\n",
     "line 4: clique W1 appears in more than one cluster"),
    ("clique W1: a\nclique W2: b\nclique W3: c\ncluster U1: W1 W1 W3\n",
     "line 4: clique W1 repeats in cluster U1"),
    ("clique W1: a\nwhiskerA W7: size=1 edges=()\n", "line 2: whiskerA for unknown clique W7"),
    ("clique W1: a\nwhiskerA W9: size=1 edges=()\nwhiskerA W7: size=1 edges=()\n",
     "line 2: whiskerA for unknown clique W9"),
    (EARS_TEXT + "whiskerB W1: size=1 edges=()\n",
     "line 4: whiskerB for unknown or single-clique cluster W1"),
    (EARS_TEXT + "whiskerA W1: size=0 edges=()\n", "line 4: whisker size must be >= 1"),
    (EARS_TEXT + "whiskerA W1: size=2\n", "line 4: expected 'size=<n> edges=(...)'"),
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-3)\n",
     "line 4: edge index out of range in '1-3'"),
    # past int()'s 4,300 digits, and not echoed
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-" + "9" * 5000 + ")\n",
     "line 4: edge index out of range"),
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-2,1-x)\n",
     "line 4: bad edge pair in '1-x'"),
    # a pair is echoed only when it is short
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-" + "x" * 5000 + ")\n",
     "line 4: bad edge pair"),
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-2-" + "9" * 5000 + ")\n",
     "line 4: bad edge pair"),
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1" + " " * 5000 + "-9)\n",
     "line 4: edge index out of range"),
    # int() counts leading zeros toward its 4,300 digits
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-" + "0" * 5000 + "3)\n",
     "line 4: edge index out of range"),
    # echoed only when short as ascii() prints it: this pair of 24
    # characters prints as 92
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-" + "\x01" * 22 + ")\n",
     "line 4: bad edge pair"),
    (EARS_TEXT + "whiskerA W3: size=2 edges=(1-\x01)\n",
     "line 4: bad edge pair in '1-\\x01'"),
]


def test_partition_parse_errors_and_name_collision():
    g = c6()
    for text, message in _PARTITION_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_partition(text, g)
        assert str(exc.value) == message
    # W1's singleton cluster keeps the name W1 next to the cluster W1
    spec = parse_partition("clique W1: a\nclique W2: b\nclique W3: c\n"
                           "cluster W1: W2 W3\nwhiskerB W1: size=2 edges=()\n",
                           parse_graph("vertex a\nedge b c\n"))
    assert spec.clusters == ((1, 2), (0,))
    assert spec.whisker_b[0].vertices == ("b1.1", "b1.2")
    assert spec.whisker_b[1] is None
    # a zero-padded index reads as its value
    spec = parse_partition(EARS_TEXT + "whiskerA W1: size=2 edges=(1-"
                           + "0" * 5000 + "2)\n", g)
    assert spec.whisker_a[0].has_edge("a1.1", "a1.2")


def test_dot_export():
    dot = graph_to_dot(c6())
    assert dot.startswith("graph") and dot.count("--") == 6


# -- CLI --------------------------------------------------------------------------

@pytest.fixture
def files(tmp_path):
    (tmp_path / "c6.graph").write_text(C6_TEXT)
    (tmp_path / "ears.part").write_text(EARS_TEXT)
    (tmp_path / "l6.graph").write_text(
        "".join(f"edge v{i} v{i + 1}\n" for i in range(1, 6)))
    (tmp_path / "oddeven.part").write_text(ODD_EVEN_TEXT)
    return tmp_path


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_cli_build_roundtrip(files):
    code, text = run_cli("build", "--graph", str(files / "c6.graph"),
                         "--partition", str(files / "ears.part"))
    assert code == 0
    reparsed = parse_graph(text)
    g = parse_graph(C6_TEXT)
    w = build_whiskered(g, parse_partition(EARS_TEXT, g), "pi")
    assert reparsed == w.graph


def test_cli_facets(files):
    code, text = run_cli("facets", "--graph", str(files / "c6.graph"),
                         "--partition", str(files / "ears.part"))
    assert code == 0 and text.endswith("18 facets\n"
                                       "inclusion-exclusion count: 18\n"
                                       "independent-set count: 18\n")


def _write_pi_cycle(files, n):
    g = cycle_graph([f"v{i}" for i in range(n)])
    (files / f"c{n}.graph").write_text(format_graph(g))
    (files / f"c{n}.part").write_text(format_partition(trivial_spec(g)))
    return str(files / f"c{n}.graph"), str(files / f"c{n}.part")


def test_cli_facets_skips_inclusion_exclusion_over_budget(files):
    graph, part = _write_pi_cycle(files, 12)
    start = time.perf_counter()
    code, text = run_cli("facets", "--graph", graph, "--partition", part)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert text.splitlines()[-3:] == [
        "322 facets",
        "inclusion-exclusion count: skipped "
        "(29 maximal independent sets > bound 20)",
        "independent-set count: 322"]


def test_cli_betti_recursion_node_budget(files, capsys):
    """The pi build of a dense random graph on 60 vertices has more distinct
    subproblems than the recursion's budget allows."""
    g = random_graph(random.Random(1), 60, 0.2)
    graph, part = files / "dense.graph", files / "dense.part"
    graph.write_text(format_graph(g))
    part.write_text(format_partition(trivial_spec(g)))
    start = time.perf_counter()
    code, text = run_cli("betti", "--graph", str(graph), "--partition",
                         str(part), "--method", "recursive")
    assert time.perf_counter() - start < 1
    assert code == 3 and text == ""
    assert capsys.readouterr().err.startswith("resource limit: ")


def test_cli_betti_oracle_ceiling(files, capsys):
    """--oracle-bound cannot lift the oracle past its ceiling."""
    graph, part = _write_pi_cycle(files, 11)  # 22 vertices
    start = time.perf_counter()
    code, text = run_cli("betti", "--graph", graph, "--partition", part,
                         "--oracle-bound", "40")
    assert time.perf_counter() - start < 1
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ")
    assert f"ceiling {ORACLE_AMBIENT_CEILING}" in err
    code, text = run_cli("betti", "--graph", str(files / "l6.graph"),
                         "--oracle-bound", "40")
    assert code == 0 and text.startswith("i\tj\tbeta")


def test_cli_poset(files):
    code, text = run_cli("poset", "--graph", str(files / "c6.graph"),
                         "--partition", str(files / "ears.part"))
    assert code == 0 and "18 elements" in text and "digraph" in text


def test_cli_betti_both(files):
    code, text = run_cli("betti", "--graph", str(files / "l6.graph"),
                         "--partition", str(files / "oddeven.part"),
                         "--method", "both")
    assert code == 0 and "diff: empty" in text and text.startswith("i\tj\tbeta")


def test_cli_betti_both_reports_disagreement(files, monkeypatch):
    """--method both prints the oracle's table, then every entry where the
    recursion differs, and exits 1: here one entry changed, one added."""
    recursive = cli.betti_recursive_cover

    def off(w, k):
        t = recursive(w, k=k)
        return BettiTable(t.field, {**t.entries, (1, 8): t.get(1, 8) + 1,
                                    (4, 12): 1}, t.module)

    monkeypatch.setattr(cli, "betti_recursive_cover", off)
    argv = ["betti", "--graph", str(files / "l6.graph"),
            "--partition", str(files / "oddeven.part")]
    _, oracle = run_cli(*argv, "--method", "oracle")
    code, text = run_cli(*argv, "--method", "both")
    assert code == 1
    assert text == oracle + "diff: methods disagree at (1,8), (4,12)\n"


def test_cli_check_vd(files):
    code, text = run_cli("check-vd", "--graph", str(files / "c6.graph"),
                         "--partition", str(files / "ears.part"), "--expect-vd")
    assert code == 0 and text.startswith("vertex-decomposable")
    code, text = run_cli("check-vd", "--graph", str(files / "c6.graph"),
                         "--expect-vd")
    assert code == 1 and text.startswith("not vertex-decomposable")
    code, _ = run_cli("check-vd", "--graph", str(files / "c6.graph"))
    assert code == 0


def test_cli_export_dot(files):
    code, text = run_cli("export-dot", "--graph", str(files / "c6.graph"))
    assert code == 0 and text.startswith("graph")


def test_cli_properties_deterministic(files):
    code1, text1 = run_cli("properties", "--seed", "3", "--count", "2")
    code2, text2 = run_cli("properties", "--seed", "3", "--count", "2")
    assert code1 == code2 == 0 and text1 == text2
    assert text1.count("PASS") == 16


def test_froeberg_suite_checks_graphs_with_edges(monkeypatch):
    """The suite draws again until a graph has an edge, so each instance
    tests one ideal.  Under `properties --seed 3` the first two draws have
    no edge, and skipping them tested none."""
    calls = [0]
    linear = properties.has_linear_resolution

    def counted(*args):
        calls[0] += 1
        return linear(*args)

    monkeypatch.setattr(properties, "has_linear_resolution", counted)
    assert properties.check_froeberg(random.Random("3:froeberg"), 2) == []
    assert calls[0] == 2


def test_froeberg_suite_checks_the_pass_against_the_oracle(monkeypatch):
    """A linear-quotients pass that accepts every ideal is caught twice on
    the one instance of six whose edge ideal is not linear: by the
    chordal complement and by the Hochster oracle."""
    monkeypatch.setattr("whiskers.ideals._linear_quotients",
                        lambda gens, budget: True)
    assert properties.check_froeberg(random.Random("froeberg-pass"), 6) == [
        "instance 1: linear resolution != chordal complement",
        "instance 1: linear quotients != Hochster oracle"]


def test_cli_properties_reports_a_failing_suite(monkeypatch):
    """A failing suite prints FAIL with its detail lines indented, the
    count of suites passed, and exits 1."""
    monkeypatch.setitem(properties.CHECKS, "froeberg",
                        lambda rng, count: ["instance 0: injected"])
    code, text = run_cli("properties", "--seed", "3", "--count", "2")
    lines = [f"FAIL {name}\n  instance 0: injected\n" if name == "froeberg"
             else f"PASS {name}\n" for name in properties.CHECKS]
    assert code == 1
    assert text == "".join(lines) + "15/16 suites passed\n"


def test_cli_error_codes(files, capsys):
    code, _ = run_cli("facets", "--graph", "missing.graph",
                      "--partition", str(files / "ears.part"))
    assert code == 2
    code, _ = run_cli("no-such-command")
    assert code == 2
    code, _ = run_cli("betti", "--graph", str(files / "l6.graph"),
                      "--oracle-bound", "2")
    assert code == 3
    # a bound below 0 is a usage error, found before the graph file is read
    capsys.readouterr()
    code, text = run_cli("betti", "--graph", "missing.graph", "--oracle-bound", "-1")
    assert (code, text, capsys.readouterr().err) == (
        2, "", "error: --oracle-bound -1 is below 0\n")
    # so is --method recursive or both without --partition and the cover
    # ideal, found before the oracle runs: on the path of 17 vertices the
    # oracle would refuse with exit 3
    (files / "p17.graph").write_text(
        "".join(f"edge v{i} v{i + 1}\n" for i in range(1, 17)))
    for method, extra in (("both", []), ("recursive", []),
                          ("both", ["--partition", str(files / "ears.part"),
                                    "--ideal", "edge"])):
        code, text = run_cli("betti", "--graph", str(files / "p17.graph"),
                             "--method", method, *extra)
        assert (code, text, capsys.readouterr().err) == (
            2, "", f"error: --method {method} needs --partition and the "
                   "cover ideal\n"), (method, extra)
    (files / "empty.cx").write_text("")
    code, _ = run_cli("check-vd", "--complex", str(files / "empty.cx"))
    assert code == 2
    capsys.readouterr()
    code, text = run_cli("check-vd")
    assert (code, text, capsys.readouterr().err) == (
        2, "", "error: check-vd needs --complex or --graph [--partition]\n")
    for field in ("4", "x", "1"):
        code, _ = run_cli("betti", "--graph", str(files / "l6.graph"),
                          "--field", field)
        assert code == 2
    for name, text in (
            ("dup-a.part", EARS_TEXT + "whiskerA W1: size=1 edges=()\n"
                                       "whiskerA W1: size=2 edges=()\n"),
            ("dup-b.part", ODD_EVEN_TEXT + "whiskerB U1: size=1 edges=()\n"
                                           "whiskerB U1: size=2 edges=()\n"),
            # rejected before any of the 10^8 whisker names is built
            ("huge.part", EARS_TEXT + "whiskerA W1: size=100000000 edges=()\n"),
            ("no-edges.part", EARS_TEXT + "whiskerA W1: size=2\n"),
            # rejected before int(), which refuses more than 4,300 digits
            ("long.part", EARS_TEXT + "whiskerA W1: size=" + "9" * 5000
                          + " edges=()\n"),
            # an edge index of 5,000 digits, refused before int() too
            ("wide.part", EARS_TEXT + "whiskerA W1: size=2 edges=(1-"
                          + "9" * 5000 + ")\n"),
            # bad and out-of-range pairs of 5,000 characters, not echoed
            ("letters.part", EARS_TEXT + "whiskerA W1: size=2 edges=(1-"
                             + "x" * 5000 + ")\n"),
            ("triple.part", EARS_TEXT + "whiskerA W1: size=2 edges=(1-2-"
                            + "9" * 5000 + ")\n"),
            ("spaced.part", EARS_TEXT + "whiskerA W1: size=2 edges=(1"
                            + " " * 5000 + "-9)\n"),
            # 5,000 leading zeros, which int() counts too
            ("zeros.part", EARS_TEXT + "whiskerA W1: size=2 edges=(1-"
                           + "0" * 5000 + "3)\n"),
            # a pair of 24 characters that ascii() prints as 92
            ("control.part", EARS_TEXT + "whiskerA W1: size=2 edges=(1-"
                             + "\x01" * 22 + ")\n")):
        (files / name).write_text(text)
        capsys.readouterr()
        code, out = run_cli("build", "--graph", str(files / "c6.graph"),
                            "--partition", str(files / name))
        err = capsys.readouterr().err
        assert (code, out, len(err.splitlines())) == (2, "", 1), name
        assert len(err) < 100, name  # no 5,000 digits echoed
    # a byte that is not UTF-8, and a star one vertex past the cap, whose
    # certificate would recurse once per leaf
    (files / "latin1.graph").write_bytes(b"edge v1 \xff\n")
    (files / "star.cx").write_text(
        "".join(f"facet c x{i}\n" for i in range(MAX_VERTICES)))
    for flag, name, message in (
            ("--graph", "latin1.graph", "byte 8 is not UTF-8"),
            ("--complex", "star.cx", f"complex exceeds {MAX_VERTICES} vertices")):
        capsys.readouterr()
        code, out = run_cli("check-vd", flag, str(files / name))
        err = capsys.readouterr().err
        assert (code, out, len(err.splitlines())) == (2, "", 1), name
        assert err.startswith("error: ") and err.endswith(f"{message}\n"), name
    # checked before any suite runs: an unbounded count would run for weeks
    capsys.readouterr()
    for count, status, err in (
            ("0", 2, "error: --count 0 is below 1\n"),
            ("-3", 2, "error: --count -3 is below 1\n"),
            ("1000000000", 3, "resource limit: --count 1000000000 exceeds the "
                              f"property count bound {COUNT_BOUND}\n")):
        start = time.perf_counter()
        code, text = run_cli("properties", "--count", count)
        assert time.perf_counter() - start < 1, count
        assert (code, text, capsys.readouterr().err) == (status, "", err), count
    # a perfect matching on 40 vertices has 2^20 maximal independent sets
    (files / "m40.graph").write_text(
        "".join(f"edge a{i} b{i}\n" for i in range(20)))
    capsys.readouterr()
    for command in ("check-vd", "betti"):
        start = time.perf_counter()
        code, _ = run_cli(command, "--graph", str(files / "m40.graph"))
        assert time.perf_counter() - start < 3, command
        assert code == 3, command
        assert capsys.readouterr().err == (
            "resource limit: maximal independent sets exceed the enumeration "
            f"bound {MIS_ENUMERATION_BOUND}\n"), command
    # the 1-skeleton of K_20 beside two disjoint edges is not flag, so the
    # facet search decides it; it would refute about 2^20 subcomplexes
    ks = [f"k{i}" for i in range(20)]
    (files / "k20.cx").write_text(
        "".join(f"facet {a} {b}\n" for i, a in enumerate(ks) for b in ks[i + 1:])
        + "facet a1 a2\nfacet b1 b2\n")
    capsys.readouterr()
    start = time.perf_counter()
    code, text = run_cli("check-vd", "--complex", str(files / "k20.cx"))
    assert time.perf_counter() - start < 1
    assert (code, text, capsys.readouterr().err) == (
        3, "", f"resource limit: {VD_REFUTATION_BOUND + 1} refuted subcomplexes "
               f"exceeds the VD search refutation bound {VD_REFUTATION_BOUND}\n")


def test_cli_betti_rejects_huge_field(files, capsys):
    """A characteristic past the bound is refused before trial division,
    which would run for hours on 2^61 - 1 (a prime)."""
    with pytest.raises(ValueError, match="below 2\\^31"):
        FieldSpec(2**61 - 1)
    capsys.readouterr()
    start = time.perf_counter()
    code, text = run_cli("betti", "--graph", str(files / "l6.graph"),
                         "--field", "2305843009213693951")
    assert time.perf_counter() - start < 1
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        "whiskers betti: error: argument --field: invalid parse value: "
        "'2305843009213693951'"]


def test_field_spec_parse():
    """A prime field is its characteristic, with an optional F in either
    case; 1 is no prime."""
    assert FieldSpec.parse("F5") == FieldSpec(5)
    assert FieldSpec.parse("f3") == FieldSpec(3)
    for text in ("1", "F1"):
        with pytest.raises(ValueError, match="^characteristic must be prime, "
                           "got 1$"):
            FieldSpec.parse(text)


def test_cli_usage_errors_are_one_line(files, capsys):
    """argparse's usage errors print their error line and no usage block."""
    l6 = str(files / "l6.graph")
    for argv in (["betti", "--graph", l6, "--field", "4"], ["no-such-command"],
                 [], ["build", "--graph", "x"]):
        capsys.readouterr()
        code, text = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and text == "", argv
        assert len(err.splitlines()) == 1 and ": error: " in err, argv


def test_cli_deterministic_output(files):
    args = ("betti", "--graph", str(files / "l6.graph"),
            "--partition", str(files / "oddeven.part"), "--quotient")
    assert run_cli(*args) == run_cli(*args)


def _fresh_process(argv):
    src = os.path.dirname(os.path.dirname(whiskers.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "whiskers.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_reused_parser_matches_fresh_process(files, capsys):
    """One parser serves every run() call; no parsed value may carry over."""
    l6, oddeven = str(files / "l6.graph"), str(files / "oddeven.part")
    calls = [
        ["betti", "--graph", l6, "--partition", oddeven, "--method", "both",
         "--field", "3", "--quotient"],
        ["betti", "--graph", l6, "--field", "4"],  # parse error: exit 2
        ["betti", "--graph", l6, "--partition", oddeven],
        ["check-vd", "--graph", str(files / "c6.graph"), "--expect-vd"],
    ]
    for argv in calls:
        code, text = run_cli(*argv)
        err = capsys.readouterr().err
        assert (code, text, err) == _fresh_process(argv), argv


# -- fuzzing: any input ends with an exit code, never a traceback ---------------

_NAME = st.sampled_from("abcdefgh")  # at most 8 vertices
_JUNK = st.text(alphabet="abW1U2:=()-,#x0 \té", max_size=12)
_GRAPH_LINE = st.one_of(
    _NAME.map("vertex {}".format),
    st.tuples(_NAME, _NAME).map(lambda e: f"edge {e[0]} {e[1]}"))
_COMPLEX_LINE = st.one_of(
    st.lists(_NAME, max_size=8).map(lambda f: "facet " + " ".join(f)),
    _NAME.map("vertex {}".format))
_WHISKER = st.tuples(
    st.sampled_from([0, 1, 2, 600]),  # 0 and 600 are out of range
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2),
).map(lambda t: f"size={t[0]} edges=("
      + ",".join(f"{a}-{b}" for a, b in t[1]) + ")")
_CLIQUE = st.integers(1, 4)
_PARTITION_LINE = st.one_of(
    st.tuples(_CLIQUE, st.lists(_NAME, max_size=3)).map(
        lambda t: f"clique W{t[0]}: " + " ".join(t[1])),
    st.tuples(st.integers(1, 2), st.lists(_CLIQUE, max_size=3)).map(
        lambda t: f"cluster U{t[0]}: " + " ".join(f"W{w}" for w in t[1])),
    st.tuples(_CLIQUE, _WHISKER).map(lambda t: f"whiskerA W{t[0]}: {t[1]}"),
    st.tuples(st.integers(1, 2), _WHISKER).map(
        lambda t: f"whiskerB U{t[0]}: {t[1]}"))
_FLAGS = st.one_of(st.just([]), st.lists(st.sampled_from([
    ["--expect-vd"], ["--kind", "pi"], ["--kind", "cc"], ["--kind", "mc"],
    ["--kind", "md"], ["--kind"], ["--complex"], ["--bogus"], ["-h"]]),
    max_size=2).map(lambda fs: [f for flag in fs for f in flag]))
_BETTI_CHOICES = [
    ["--method", "oracle"], ["--method", "recursive"], ["--method", "both"],
    ["--field", "2"], ["--field", "3"], ["--field", "0"], ["--field", "4"],
    ["--quotient"], ["--ideal", "edge"], ["--ideal", "cover"],
    ["--oracle-bound", "3"], ["--oracle-bound", "40"]]
_BETTI_FLAGS = st.lists(st.sampled_from(_BETTI_CHOICES), max_size=4).map(
    lambda fs: [f for flag in fs for f in flag])
# the betti flags after which --method both still compares the two routes:
# no bad field, no edge ideal and no oracle bound below the build
_BOTH_FLAGS = st.lists(st.sampled_from([
    flag for flag in _BETTI_CHOICES if flag not in (
        ["--field", "4"], ["--ideal", "edge"], ["--oracle-bound", "3"])]),
    max_size=4).map(lambda fs: [f for flag in fs for f in flag])


def _join(draw, lines):
    """The lines as text; one text in four gets a junk line."""
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    return "\n".join(lines)


@st.composite
def _complex_text(draw):
    return _join(draw, draw(st.lists(_COMPLEX_LINE, min_size=1, max_size=12)))


@st.composite
def _instance_texts(draw):
    """Graph and partition text of a valid seeded instance of a drawn kind."""
    g, spec = random_instance(random.Random(draw(st.integers(0, 2**16))),
                              draw(st.sampled_from(KINDS)),
                              max_base=6, max_total=10)
    return format_graph(g), format_partition(spec)


@st.composite
def _build_texts(draw):
    """Graph and partition text.  One pair in four is a valid seeded
    instance; of the others, two partitions in three start with one clique
    per named vertex, so that many builds get past validation."""
    mode = draw(st.integers(0, 3))
    if mode == 3:
        return draw(_instance_texts())
    lines = draw(st.lists(_GRAPH_LINE, min_size=1, max_size=12))
    part = draw(st.lists(_PARTITION_LINE, max_size=12)) if mode != 1 else []
    if mode:
        names = sorted({v for line in lines for v in line.split()[1:]})
        part[:0] = [f"clique W{i + 1}: {v}" for i, v in enumerate(names)]
    return _join(draw, lines), _join(draw, part)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(texts=_build_texts(), instance=_instance_texts(), cx=_complex_text(),
       command=st.sampled_from(range(12)), flags=_FLAGS, betti_flags=_BETTI_FLAGS,
       both_flags=_BOTH_FLAGS)
def test_cli_run_fuzz(fuzz_dir, texts, instance, cx, command, flags, betti_flags,
                      both_flags):
    """Complex, graph and partition text with random flags: every run ends
    with exit 0, 1, 2 or 3 and raises nothing, a run that exits 2 or 3
    writes one stderr line, and betti --method both never finds the oracle
    and the recursion apart (exit 1).  The last command is the cross-check,
    drawn only on seeded instances of the four kinds and with flags that
    let it compare."""
    graph, part = instance if command == 11 else texts
    paths = {}
    for name, text in (("g.graph", graph), ("p.part", part), ("c.cx", cx)):
        (fuzz_dir / name).write_text(text, encoding="utf-8")
        paths[name] = str(fuzz_dir / name)
    alone = ["--graph", paths["g.graph"]]
    build = [*alone, "--partition", paths["p.part"]]
    argv = [["check-vd", "--complex", paths["c.cx"]], ["build", *build],
            ["check-vd", *build], ["betti", *build], ["betti", *alone],
            ["facets", *build], ["facets", *alone], ["poset", *build],
            ["poset", *alone], ["export-dot", *build],
            ["export-dot", *alone], ["betti", *build]][command]
    if command == 11:
        argv += both_flags + ["--method", "both"]
    else:
        argv += flags
        if argv[0] == "betti":
            argv += betti_flags
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(*argv)
    assert code in (0, 1, 2, 3), argv
    if code in (2, 3):
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    methods = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--method"]
    if argv[0] == "betti" and methods[-1:] == ["both"]:
        assert code != 1, argv
