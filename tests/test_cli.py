"""End-to-end CLI flows, driven in-process through main(argv)."""

import json
import random
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookembed import (
    BookEmbedding,
    Graph,
    TreeDecomposition,
    book_thickness_exact,
    complete_bipartite,
    complete_graph,
    decomposition_from_certificate,
    embed_ktree,
    is_k_tree,
    random_ktree,
    validate_decomposition,
    validate_embedding,
)
from bookembed import cli
from bookembed.bruteforce import random_connected_graph
from bookembed.cli import main
from util import cycle, without_edge


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---- gen ----


def test_gen_json_is_byte_stable(capsys):
    code1, out1, err1 = _run(capsys, "gen", "--family", "split", "--k", "3", "--m", "4")
    code2, out2, _ = _run(capsys, "gen", "--family", "split", "--k", "3", "--m", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    g = Graph.from_json_dict(json.loads(out1))
    assert g.n == 7 and g.m == 15
    assert "generated split: 7 vertices, 15 edges" in err1


def test_gen_text_format_round_trips(capsys):
    code, out, _ = _run(capsys, "gen", "--family", "path-power", "--n", "6", "--k", "2",
                        "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "6 9"
    assert Graph.from_text(out).m == 9


def test_gen_with_treedec(capsys):
    # random-ktree has a certificate of its own; the rest are recognized at
    # the width their edge count names, not at --k: K5 is a 4-tree, K3 (the
    # split graph with m = 0) a 2-tree and P3 (K1,2) a 1-tree
    for argv, k in ((("random-ktree", "--n", "12", "--k", "2", "--seed", "5"), 2),
                    (("path-power", "--n", "9", "--k", "3"), 3),
                    (("complete", "--n", "5"), 4),
                    (("split", "--k", "3", "--m", "0"), 2),
                    (("complete-bipartite", "--k", "2", "--m", "1"), 1)):
        code, out, _ = _run(capsys, "gen", "--family", *argv, "--with-treedec")
        assert code == 0
        payload = json.loads(out)
        g = Graph.from_json_dict(payload["graph"])
        td = TreeDecomposition.from_json_dict(payload["decomposition"])
        rep = validate_decomposition(g, td)
        assert rep.valid and rep.smooth and rep.width == k


def test_gen_usage_errors(capsys):
    code, out, err = _run(capsys, "gen", "--family", "q")  # missing --k
    _assert_one_line_error(code, out, err)
    assert err == "error: gen --family q requires --k\n"
    _assert_one_line_error(*_run(capsys, "gen", "--family", "q", "--k", "3"))  # domain error
    # a negative size is refused as such, not squared into a count above the limit
    code, out, err = _run(capsys, "gen", "--family", "complete-bipartite", "--k", "-2000",
                          "--m", "-2000")
    _assert_one_line_error(code, out, err)
    assert "--k must be non-negative, got -2000" in err
    code, out, err = _run(capsys, "gen", "--family", "complete-bipartite", "--k", "2", "--m", "2",
                          "--with-treedec")  # C4 is no k-tree
    _assert_one_line_error(code, out, err)
    assert err == "error: --with-treedec is not available for family complete-bipartite\n"


@pytest.mark.parametrize("argv", [
    ["complete", "--n", "4"],  # K4, a 3-tree
    ["complete", "--n", "5"],  # K5, a 4-tree
    ["complete-bipartite", "--k", "2", "--m", "2"],  # C4, no k-tree
    ["random-ktree", "--n", "9", "--k", "2"],  # a certificate of its own
    ["q", "--k", "4"],
])
def test_gen_with_treedec_as_text_is_refused_before_a_build(capsys, monkeypatch, argv):
    _unbuildable(monkeypatch, argv[0], sizable=False)
    code, out, err = _run(capsys, "gen", "--family", *argv, "--with-treedec", "--format", "text")
    _assert_one_line_error(code, out, err)
    assert err == "error: --with-treedec requires JSON output\n"


def test_gen_complete_bipartite_and_dujwoo(capsys):
    code, out, _ = _run(capsys, "gen", "--family", "complete-bipartite", "--k", "2", "--m", "3")
    assert code == 0 and Graph.from_json(out).n == 5
    code, out, _ = _run(capsys, "gen", "--family", "dujwoo", "--k", "3", "--m", "2")
    assert code == 0
    g = Graph.from_json(out)
    assert (g.n, g.m) == (7, 15) and is_k_tree(g, 3) is not None


def test_gen_families_keep_their_order_and_required_parameters(capsys):
    first_needed = {"complete": "n", "split": "k", "q": "k", "path-power": "n",
                    "dujwoo": "k", "complete-bipartite": "k", "random-ktree": "n"}
    code, out, err = _run(capsys, "gen", "--family", "nope")
    _assert_one_line_error(code, out, err)
    listed = err[err.index("choose from"):]
    assert sorted(first_needed, key=listed.index) == list(first_needed)
    for fam, p in first_needed.items():
        code, out, err = _run(capsys, "gen", "--family", fam)
        _assert_one_line_error(code, out, err)
        assert err == f"error: gen --family {fam} requires --{p}\n"


def test_unknown_family_and_command_exit_2(capsys):
    # argparse's own errors are one `error:` line too, with no usage text
    for argv, message in [
        (["gen", "--family", "nope"], "argument --family: invalid choice: 'nope'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["bt"], "the following arguments are required: --graph"),
        (["bt", "--graph", "g.json", "--frob"], "unrecognized arguments: --frob"),
        (["bt", "--graph", "g.json", "--max-pages", "two"], "argument --max-pages: invalid int"),
        (["treedec"], "the following arguments are required: treedec_command"),
    ]:
        code, out, err = _run(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert err.startswith(f"error: {message}"), argv


# ---- bt / check ----


def test_bt_writes_report_and_witness(capsys, tmp_path):
    gpath = tmp_path / "k23.json"
    gpath.write_text(complete_bipartite(2, 3).to_json())
    wpath = tmp_path / "witness.json"
    code, out, err = _run(capsys, "bt", "--graph", str(gpath), "--witness", str(wpath))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "exact"
    assert report["book_thickness"] == 2
    assert report["lower_bound"] == 2
    assert "book thickness 2" in err

    emb = BookEmbedding.from_json(wpath.read_text())
    assert validate_embedding(complete_bipartite(2, 3), emb).ok
    # the file and the report carry the witness as the library writes it
    solved = book_thickness_exact(complete_bipartite(2, 3))
    assert wpath.read_text() == solved.witness.to_json()
    assert json.dumps(report["witness"], sort_keys=True) + "\n" == solved.witness.to_json()

    code, out, _ = _run(capsys, "check", "--graph", str(gpath), "--embedding", str(wpath))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_bt_respects_budgets(capsys, tmp_path):
    # bt 3, root bound 2: the root bound alone would close a complete graph
    gpath = tmp_path / "g9.json"
    gpath.write_text(random_connected_graph(9, random.Random(9), 0.5).to_json())
    code, out, _ = _run(capsys, "bt", "--graph", str(gpath), "--max-pages", "1")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "lower-bound-only"
    assert report["lower_bound"] == 2


@pytest.mark.parametrize("flag, value", [
    ("--max-pages", "-1"), ("--node-limit", "-5"), ("--time-budget", "-1"),
])
def test_bt_negative_budgets_and_caps_are_usage_errors(capsys, tmp_path, flag, value):
    gpath = tmp_path / "k33.json"
    gpath.write_text(complete_bipartite(3, 3).to_json())
    code, out, err = _run(capsys, "bt", "--graph", str(gpath), flag, value)
    _assert_one_line_error(code, out, err)
    assert flag[2:].replace("-", "_") in err


def test_check_flags_bad_embedding(capsys, tmp_path):
    g = complete_graph(4)
    gpath = tmp_path / "k4.json"
    gpath.write_text(g.to_json())
    bad = BookEmbedding(tuple(range(4)), {e: 1 for e in g.edges}, 1)
    epath = tmp_path / "bad.json"
    epath.write_text(bad.to_json())
    code, out, err = _run(capsys, "check", "--graph", str(gpath), "--embedding", str(epath))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["first_conflict"] == [[0, 2], [1, 3]]
    assert "INVALID" in err


def test_bt_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = _run(capsys, "bt", "--graph", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err


def test_bt_witness_into_a_missing_directory_prints_no_report(capsys, tmp_path):
    gpath = tmp_path / "k33.json"
    gpath.write_text(complete_bipartite(3, 3).to_json())
    wpath = tmp_path / "nodir" / "w.json"
    code, out, err = _run(capsys, "bt", "--graph", str(gpath), "--witness", str(wpath))
    _assert_one_line_error(code, out, err)
    assert str(wpath) in err


@pytest.mark.parametrize("command", ["bt", "embed", "check", "treedec"])
@pytest.mark.parametrize("raw", [
    b"\xff\xfe{",  # a UTF-16 byte order mark
    b'{"n": 3, "edges": [[0, 1]], "labels": {"1": "\xe9"}}',  # a Latin-1 role
], ids=["utf16-bom", "latin1-role"])
def test_graph_files_that_are_not_utf8_are_usage_errors(capsys, tmp_path, command, raw):
    gpath = tmp_path / "bad.json"
    gpath.write_bytes(raw)
    other = tmp_path / "other.json"
    other.write_text("{}")
    extra = {"check": ["--embedding", str(other)], "treedec": ["--treedec", str(other)]}
    argv = ["treedec", "validate"] if command == "treedec" else [command]
    code, out, err = _run(capsys, *argv, "--graph", str(gpath), *extra.get(command, []))
    _assert_one_line_error(code, out, err)
    assert f"error: graph {gpath}: 'utf-8' codec can't decode byte" in err


def _assert_one_line_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bt_bad_text_header_is_a_usage_error(capsys, tmp_path):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("3 x\n0 1\n")
    _assert_one_line_error(*_run(capsys, "bt", "--graph", str(gpath)))


@pytest.mark.parametrize("name, text", [
    ("huge.json", '{"n": 100000000000, "edges": [[0, 1]]}'),
    ("huge.json", '{"n": 1000001, "edges": []}'),
    ("huge.txt", "100000000000 1\n0 1\n"),
    ("huge.txt", "100000000000000000000 0\n"),
])
def test_graph_files_above_the_vertex_limit_are_usage_errors(capsys, tmp_path, monkeypatch,
                                                             name, text):
    gpath = tmp_path / name
    gpath.write_text(text)

    def built(*args, **kwargs):  # the count must be refused before a graph is built
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "__init__", built)
    code, out, err = _run(capsys, "bt", "--graph", str(gpath))
    _assert_one_line_error(code, out, err)
    assert "is above the limit of 1000000" in err


def _unbuildable(monkeypatch, fam, sizable=True):
    """Make `fam`'s builder raise, and with sizable=False its size too."""
    need, size, _ = cli._FAMILIES[fam]

    def build(args):
        raise AssertionError("the family was built")

    def sized(args):
        raise AssertionError("the family was sized")

    monkeypatch.setitem(cli._FAMILIES, fam, (need, size if sizable else sized, build))


@pytest.mark.parametrize("argv", [
    ["path-power", "--n", "100000000000", "--k", "1"],
    ["complete", "--n", "1000001"],
    ["random-ktree", "--n", "100000000000000000000", "--k", "2"],
    ["q", "--k", "1000"],  # k + 11(2k^2 + 1) = 22,001,011 vertices
    ["q", "--k", "4", "--n", "1000001"],
    ["split", "--k", "1", "--m", "1000000"],
    ["dujwoo", "--k", "2", "--m", "500000"],
    ["complete-bipartite", "--k", "1000000", "--m", "1"],
])
def test_gen_above_the_vertex_limit_is_a_usage_error(capsys, monkeypatch, argv):
    _unbuildable(monkeypatch, argv[0])
    code, out, err = _run(capsys, "gen", "--family", *argv)
    _assert_one_line_error(code, out, err)
    assert "is above the limit of 1000000" in err


@pytest.mark.parametrize("argv", [
    ["complete", "--n", "100000"],  # 4,999,950,000 edges
    ["split", "--k", "2", "--m", "500000"],
    ["q", "--k", "4", "--n", "300000"],
    ["path-power", "--n", "1000000", "--k", "2"],
    ["dujwoo", "--k", "3", "--m", "200000"],
    ["complete-bipartite", "--k", "1000", "--m", "1001"],
    ["random-ktree", "--n", "600000", "--k", "2"],
])
def test_gen_above_the_edge_limit_is_a_usage_error(capsys, monkeypatch, argv):
    _unbuildable(monkeypatch, argv[0])
    code, out, err = _run(capsys, "gen", "--family", *argv)
    _assert_one_line_error(code, out, err)
    assert "edge count" in err and "is above the limit of 1000000" in err


def test_gen_at_the_edge_limit_is_built(monkeypatch):
    _unbuildable(monkeypatch, "complete-bipartite")
    with pytest.raises(AssertionError, match="the family was built"):
        main(["gen", "--family", "complete-bipartite", "--k", "1000", "--m", "1000"])


def test_gen_vertex_counts_match_the_families():
    parse = cli.build_parser().parse_args
    for argv in (["complete", "--n", "5"], ["split", "--k", "3", "--m", "4"],
                 ["split", "--k", "3", "--m", "0"], ["q", "--k", "4"], ["q", "--k", "5"],
                 ["q", "--k", "4", "--n", "400"], ["q", "--k", "4", "--n", "500"],
                 ["path-power", "--n", "9", "--k", "3"],
                 ["dujwoo", "--k", "3", "--m", "2"], ["complete-bipartite", "--k", "2", "--m", "3"],
                 ["random-ktree", "--n", "12", "--k", "3"]):
        args = parse(["gen", "--family", *argv])
        _, size, build = cli._FAMILIES[argv[0]]
        g = build(args)[0]
        assert size(args) == (g.n, g.m), argv


# each family at about 10^5 edges; a family added to gen needs a row here
_AT_1E5_EDGES = {
    "complete": ["--n", "448"],
    "split": ["--k", "50", "--m", "2000"],
    "q": ["--k", "16"],
    "path-power": ["--n", "25000", "--k", "4"],
    "dujwoo": ["--k", "4", "--m", "12500"],
    "complete-bipartite": ["--k", "100", "--m", "1000"],
    "random-ktree": ["--n", "600", "--k", "200"],
}


@pytest.mark.parametrize("family", list(cli._FAMILIES))
def test_gen_families_build_in_memory_linear_in_their_size(family):
    # the gen limits bound n + m, so a family must build in O(n + m) memory
    # to stay within them; a k-tree that kept every k-clique it made would
    # hold O(nk^2) ints, about 1,600 bytes per vertex plus edge here
    args = cli.build_parser().parse_args(["gen", "--family", family, *_AT_1E5_EDGES[family]])
    _, size, build = cli._FAMILIES[family]
    n, m = size(args)
    assert 5 * 10**4 <= m <= 2 * 10**5
    tracemalloc.start()
    try:
        build(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 800 * (n + m), f"{peak / (n + m):.0f} bytes per vertex plus edge"


@pytest.mark.parametrize("command", ["bt", "embed"])
def test_out_of_range_edge_is_a_usage_error(capsys, tmp_path, command):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[0, 5]]}))
    _assert_one_line_error(*_run(capsys, command, "--graph", str(gpath)))


@pytest.mark.parametrize("n", [3.5, "3", 3.0])
def test_non_integer_vertex_count_is_a_usage_error(capsys, tmp_path, n):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"n": n, "edges": [[0, 1]]}))
    _assert_one_line_error(*_run(capsys, "bt", "--graph", str(gpath)))


def test_labels_that_are_no_json_object_are_a_usage_error(capsys, tmp_path):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1]], "labels": [1]}))
    code, out, err = _run(capsys, "bt", "--graph", str(gpath))
    _assert_one_line_error(code, out, err)
    assert "labels must be a JSON object" in err


@pytest.mark.parametrize("command", ["bt", "check", "embed"])
def test_label_keys_that_are_no_decimal_ids_are_usage_errors(capsys, tmp_path, command):
    # " 01" and "1" would both name vertex 1, the last one silently winning
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"n": 3, "edges": [[0, 1]], "labels": {"1": "a", " 01": "b"}}))
    epath = tmp_path / "emb.json"
    epath.write_text(json.dumps({"order": [0, 1, 2], "pages": [[0, 1, 1]]}))
    extra = ["--embedding", str(epath)] if command == "check" else []
    code, out, err = _run(capsys, command, "--graph", str(gpath), *extra)
    _assert_one_line_error(code, out, err)
    assert "label key ' 01' is not a vertex id in decimal" in err


@pytest.mark.parametrize("name, text, why", [
    ("labels.txt", "3 1\n0 1\n# label 1 a\n# label 01 b\n", "label key '01' is not a vertex id"),
    ("labels.txt", "3 1\n0 1\n# label 1 a\n# label 1 b\n", "repeated key '1'"),
    ("labels.json", '{"n": 3, "edges": [[0, 1]], "labels": {"1": "a", "1": "b"}}',
     "repeated key '1'"),
    ("n.json", '{"n": 3, "n": 2, "edges": [[0, 1]]}', "repeated key 'n'"),
    ("role.json", '{"n": 3, "edges": [[0, 1]], "labels": {"1": 5}}', "label role 5 is not a string"),
    ("digit.txt", "3 1\n0 \u0661\n", "edge endpoint '\u0661' is not a vertex id"),
    ("under.txt", "3 1\n0 1_0\n", "edge endpoint '1_0' is not a vertex id"),
    ("short.txt", "3 1\n0 1\n# label 1\n", "bad label line"),
    ("long.txt", "3 1\n0 1\n# label 1 a b\n", "bad label line"),
])
def test_text_and_json_graph_files_share_the_id_rules(capsys, tmp_path, name, text, why):
    gpath = tmp_path / name
    gpath.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "bt", "--graph", str(gpath))
    _assert_one_line_error(code, out, err)
    assert why in err


def test_gen_empty_complete_graph_is_a_usage_error(capsys):
    _assert_one_line_error(*_run(capsys, "gen", "--family", "complete", "--n", "0"))


def test_non_integer_vertex_ids_are_usage_errors(capsys, tmp_path):
    gpath = tmp_path / "p3.json"
    gpath.write_text(Graph(3, [(0, 1), (1, 2)]).to_json())
    bad = tmp_path / "bad.json"
    for argv, payload in [
        ("check --graph {g} --embedding {bad}",
         {"order": [0, 1, "x"], "pages": [[0, 1, 1], [1, 2, 1]]}),
        ("embed --graph {g} --method first-fit --order {bad}", [0, 2, 1.0]),
        # a set or dict built first would merge true and 1.0 with 1
        ("bt --graph {bad}", {"n": 3, "edges": [[0, 1], [0, True]]}),
        ("check --graph {g} --embedding {bad}",
         {"order": [0, 1, 2], "pages": [[0, 1, 1], [1, 2, 1], [1.0, 0, 1]]}),
    ]:
        bad.write_text(json.dumps(payload))
        _assert_one_line_error(*_run(capsys, *(a.format(g=gpath, bad=bad) for a in argv.split())))


def test_an_edge_on_two_page_rows_is_a_usage_error(capsys, tmp_path):
    gpath = tmp_path / "p3.json"
    gpath.write_text(Graph(3, [(0, 1), (1, 2)]).to_json())
    epath = tmp_path / "emb.json"
    epath.write_text(json.dumps({"order": [0, 1, 2], "pages": [[0, 1, 1], [1, 0, 2], [1, 2, 1]]}))
    code, out, err = _run(capsys, "check", "--graph", str(gpath), "--embedding", str(epath))
    _assert_one_line_error(code, out, err)
    assert "two page rows name the same edge" in err


# ---- embed ----


def test_embed_ktree_via_cli(capsys, tmp_path):
    code, out, _ = _run(capsys, "gen", "--family", "path-power", "--n", "9", "--k", "3")
    gpath = tmp_path / "p9.json"
    gpath.write_text(out)
    code, out, err = _run(capsys, "embed", "--graph", str(gpath), "--method", "ktree",
                          "--k", "3")
    assert code == 0
    emb = BookEmbedding.from_json_dict(json.loads(out))
    assert validate_embedding(Graph.from_json(gpath.read_text()), emb).ok
    assert "pages" in err


def test_embed_ktree_puts_q4_on_five_pages(capsys, tmp_path):
    code, out, _ = _run(capsys, "gen", "--family", "q", "--k", "4")
    assert code == 0
    gpath = tmp_path / "q4.json"
    gpath.write_text(out)
    code, out, err = _run(capsys, "embed", "--graph", str(gpath), "--method", "ktree")
    assert code == 0
    assert "uses 5 pages" in err
    epath = tmp_path / "emb.json"
    epath.write_text(out)
    code, out, _ = _run(capsys, "check", "--graph", str(gpath), "--embedding", str(epath))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["ok"] is True and verdict["pages_used"] == 5


def test_embed_infers_k_when_omitted(capsys, tmp_path):
    code, out, _ = _run(capsys, "gen", "--family", "random-ktree", "--n", "10", "--k", "2")
    gpath = tmp_path / "t2.json"
    gpath.write_text(out)
    code, out, _ = _run(capsys, "embed", "--graph", str(gpath), "--method", "ktree")
    assert code == 0
    emb = BookEmbedding.from_json_dict(json.loads(out))
    assert validate_embedding(Graph.from_json(gpath.read_text()), emb).ok


def test_embed_with_k_zero_is_a_usage_error(capsys, tmp_path):
    gpath = tmp_path / "p3.json"
    gpath.write_text(Graph(3, [(0, 1), (1, 2)]).to_json())
    code, out, err = _run(capsys, "embed", "--graph", str(gpath), "--method", "ktree", "--k", "0")
    _assert_one_line_error(code, out, err)
    assert err == "error: --k: k must be positive\n"


def test_embed_rejects_non_ktrees(capsys, tmp_path):
    gpath = tmp_path / "c5.json"
    gpath.write_text(cycle(5).to_json())
    code, _, err = _run(capsys, "embed", "--graph", str(gpath), "--method", "ktree")
    assert code == 1
    assert "not a k-tree" in err


@pytest.mark.parametrize("g", [
    Graph(1),  # no k in 1..n-1
    Graph(3),  # no edges
    cycle(4),  # 4 edges: a 1-tree on 4 vertices has 3, a 2-tree 5
    Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)]),  # 4 edges again
    # 7 edges, a 2-tree's count, but vertex 4 has degree 1
    Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]),
], ids=["K1", "empty", "C4", "triangle-and-edge", "K4-and-pendant"])
def test_embed_without_k_rejects_graphs_no_width_fits(capsys, tmp_path, g):
    gpath = tmp_path / "g.json"
    gpath.write_text(g.to_json())
    code, out, err = _run(capsys, "embed", "--graph", str(gpath), "--method", "ktree")
    assert (code, out) == (1, "")
    assert err == "graph is not a k-tree for the requested (or any matching) k\n"


def test_embed_without_k_recognizes_once(capsys, monkeypatch, tmp_path):
    # the edge count alone names the one width that can fit, so embed asks
    # the recognizer once, and gets what naming the width would have given
    calls = []

    def counting(g, k=None):
        calls.append(k)
        return is_k_tree(g, k)

    monkeypatch.setattr(cli, "is_k_tree", counting)
    gpath = tmp_path / "g.json"
    for n in range(2, 13):
        for k in range(1, n):
            g, _ = random_ktree(n, k, seed=n * k)
            gpath.write_text(g.to_json())
            calls.clear()
            code, out, _ = _run(capsys, "embed", "--graph", str(gpath))
            assert (code, calls) == (0, [None])
            assert out == embed_ktree(g, is_k_tree(g, k)).to_json()
            gpath.write_text(without_edge(g, *g.edges[0]).to_json())
            calls.clear()
            _run(capsys, "embed", "--graph", str(gpath))
            assert calls == [None]


def test_embed_first_fit_with_explicit_order(capsys, tmp_path):
    g = complete_graph(5)
    gpath = tmp_path / "k5.json"
    gpath.write_text(g.to_json())
    opath = tmp_path / "order.json"
    opath.write_text(json.dumps([4, 2, 0, 1, 3]))
    code, out, _ = _run(capsys, "embed", "--graph", str(gpath), "--method", "first-fit",
                        "--order", str(opath))
    assert code == 0
    emb = BookEmbedding.from_json_dict(json.loads(out))
    assert emb.order == (4, 2, 0, 1, 3)
    assert validate_embedding(g, emb).ok


def test_embed_first_fit_rejects_a_bad_order(capsys, tmp_path):
    gpath = tmp_path / "k5.json"
    gpath.write_text(complete_graph(5).to_json())
    opath = tmp_path / "bad.json"
    for bad, message in (([0, 1, 2, 2, 3], "error:"),
                         ({"order": [0, 1, 2, 3, 4]}, "expected a JSON list")):
        opath.write_text(json.dumps(bad))
        code, out, err = _run(capsys, "embed", "--graph", str(gpath), "--method",
                              "first-fit", "--order", str(opath))
        _assert_one_line_error(code, out, err)
        assert message in err


# ---- treedec validate ----


def test_treedec_validate_via_cli(capsys, tmp_path):
    code, out, _ = _run(capsys, "gen", "--family", "random-ktree", "--n", "9", "--k", "3",
                        "--with-treedec")
    payload = json.loads(out)
    gpath = tmp_path / "g.json"
    tpath = tmp_path / "td.json"
    gpath.write_text(json.dumps(payload["graph"]))
    tpath.write_text(json.dumps(payload["decomposition"]))
    code, out, err = _run(capsys, "treedec", "validate", "--graph", str(gpath),
                          "--treedec", str(tpath))
    assert code == 0
    assert json.loads(out)["valid"] is True
    assert "width 3" in err

    # drop a vertex from every bag that holds it: edge coverage breaks
    broken = payload["decomposition"]
    victim = broken["bags"][0][0]
    broken["bags"] = [[v for v in bag if v != victim] for bag in broken["bags"]]
    tpath.write_text(json.dumps(broken))
    code, out, _ = _run(capsys, "treedec", "validate", "--graph", str(gpath),
                        "--treedec", str(tpath))
    assert code == 1
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("bags, tree_edges", [
    ([[0, 1, "a"], [0, 1, 3]], [[0, 1]]),
    ([[0, 1, 2.0], [0, 1, 3]], [[0, 1]]),  # would pass every check as vertex 2
    ([[0, 1, 2], [0, 1, 3]], [[0.0, 1]]),
    ([[0, 1, 2, 2.0], [0, 1, 3]], [[0, 1]]),  # a set would merge 2.0 into 2
    ([[0, 1, 2], [0, 1, 3]], [[0, 1], [False, True]]),  # and (False, True) into (0, 1)
])
def test_treedec_validate_rejects_non_integer_ids(capsys, tmp_path, bags, tree_edges):
    gpath = tmp_path / "g.json"  # K4 minus (2, 3): bags {0, 1, 2} - {0, 1, 3}
    gpath.write_text(Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]).to_json())
    tpath = tmp_path / "td.json"
    tpath.write_text(json.dumps({"bags": bags, "tree_edges": tree_edges}))
    _assert_one_line_error(*_run(capsys, "treedec", "validate", "--graph", str(gpath),
                                 "--treedec", str(tpath)))


# ---- oracle ----


def test_oracle_subcommand(capsys):
    code, out, err = _run(capsys, "oracle", "--max-n", "4", "--samples", "3")
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert summary["bt_checked"] > 0
    assert "all agree" in err


@pytest.mark.parametrize("max_n", ["8", "-3"])
def test_oracle_rejects_max_n_outside_0_to_7(capsys, max_n):
    # enumerating every graph on 8 vertices does not finish
    code, out, err = _run(capsys, "oracle", "--max-n", max_n)
    assert code == 2 and out == ""
    assert err == f"error: oracle: --max-n must be between 0 and 7, got {max_n}\n"


@pytest.mark.parametrize("samples", ["-1", "-50"])
def test_oracle_rejects_negative_samples(capsys, samples):
    # a negative count would check no random graph yet report ok
    code, out, err = _run(capsys, "oracle", "--max-n", "3", "--samples", samples)
    assert code == 2 and out == ""
    assert err == f"error: oracle: --samples must be at least 0, got {samples}\n"


# ---- fuzzing the input files ----


# small ints only: a vertex count below the limit but far above these sizes
# would allocate a set per vertex
_JUNK = st.one_of(st.integers(-2, 12), st.sampled_from(
    [10**20, -(10**20), 1.0, 0.5, True, None, "1", "x", [], {}, [0, 1], [[0, 1]], {"1": 1}]))


def _places(x, path=()):
    """The path to every value inside parsed JSON, the root first."""
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from _places(value, (*path, key))


@st.composite
def _mutated_files(draw):
    """The bytes of a graph, an embedding and a decomposition file for one
    small k-tree, after one to three mutations: a value replaced, dropped or
    copied (a dict entry under another key), a graph written as text, a
    text cut short, or a byte that is no UTF-8 put in."""
    k = draw(st.integers(1, 3))
    g, cert = random_ktree(draw(st.integers(k + 1, 8)), k, draw(st.integers(0, 2**16)))
    data = {"graph": g.to_json_dict(), "embedding": embed_ktree(g, cert).to_json_dict(),
            "treedec": decomposition_from_certificate(cert).to_json_dict()}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(data)))
        place = draw(st.sampled_from(list(_places(data[name]))))
        if not place:  # the whole file
            data[name] = draw(_JUNK)
            continue
        *head, last = place
        parent = data[name]
        for key in head:
            parent = parent[key]
        action = draw(st.sampled_from(("set", "drop", "copy")))
        if action == "set":
            parent[last] = draw(_JUNK)
        elif action == "drop":
            del parent[last]
        elif isinstance(parent, list):
            parent.append(parent[last])
        else:
            parent[draw(st.sampled_from(("n", "edges", "labels", "order", "pages", "bags",
                                         "tree_edges", "7")))] = parent[last]
    texts = {name: json.dumps(value) for name, value in data.items()}
    if draw(st.booleans()):
        try:
            texts["graph"] = Graph.from_json_dict(data["graph"]).to_text()
        except (ValueError, KeyError, TypeError):
            pass
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(texts)))
        texts[name] = texts[name][:draw(st.integers(0, len(texts[name])))]
    files = {name: text.encode() for name, text in texts.items()}
    if draw(st.integers(0, 3)) == 0:  # 0xff starts no UTF-8 character
        name = draw(st.sampled_from(sorted(files)))
        i = draw(st.integers(0, len(files[name])))
        files[name] = files[name][:i] + b"\xff" + files[name][i:]
    return files


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_mutated_files())
def test_mutated_files_exit_cleanly(files):
    """Every command ends in exit 0, 1 or 2, never a traceback, and an exit
    2 prints exactly one `error:` line on stderr and nothing on stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in files.items():
            Path(tmp, name).write_bytes(raw)
        g, emb, td = (str(Path(tmp, name)) for name in ("graph", "embedding", "treedec"))
        for argv in (["bt", "--graph", g, "--node-limit", "50"], ["embed", "--graph", g],
                     ["embed", "--graph", g, "--method", "first-fit"],
                     ["check", "--graph", g, "--embedding", emb],
                     ["treedec", "validate", "--graph", g, "--treedec", td]):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                _assert_one_line_error(code, out.getvalue(), err.getvalue())
