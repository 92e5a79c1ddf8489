import json

import pytest

from zfpaths.cli import build_parser, main, resolve_graph
from zfpaths.errors import UsageError
from zfpaths.graphs import Graph, complete_bipartite, complete_graph, fig8_graph, path_graph
from zfpaths.nullity import certify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resolve_builtins():
    assert resolve_graph("K4") == complete_graph(4)
    assert resolve_graph("P7") == path_graph(7)
    assert resolve_graph("K3,3") == complete_bipartite(3, 3)
    assert resolve_graph("fig8:1,1,1,1,1") == fig8_graph([1, 1, 1, 1, 1])
    assert resolve_graph("C~") == complete_graph(4)


def test_resolve_rejects_garbage(tmp_path):
    with pytest.raises(UsageError):
        resolve_graph("K4,")
    with pytest.raises(UsageError):
        resolve_graph("!!nope")
    corpus = tmp_path / "two.g6"
    corpus.write_text("C~\nBw\n")
    with pytest.raises(UsageError, match="holds 2 graphs; expected exactly one"):
        resolve_graph(str(corpus))


def test_fnum_k4(capsys):
    code, out, err = run_cli(capsys, "fnum", "K4")
    assert code == 0
    assert json.loads(out) == {"f": 3, "witness": [0, 1, 2]}
    assert "forcing number 3" in err


def test_classify_p7(capsys):
    code, out, _ = run_cli(capsys, "classify", "P7")
    assert code == 0
    assert json.loads(out) == {"tag": "Path_FM1", "f": 1, "m": 1}


def test_closure_with_set(capsys):
    code, out, _ = run_cli(capsys, "closure", "C4", "--set", "0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["layers"] == [[0, 1], [2, 3]]


def test_chains_default_minimum_set(capsys):
    code, out, _ = run_cli(capsys, "chains", "K4")
    assert code == 0
    assert json.loads(out) == {"origin": [0, 1, 2], "chains": [[0, 3], [1], [2]]}


def test_chains_of_the_empty_set_is_not_the_minimum_set(capsys):
    # an empty --set names the empty set, as it does for closure
    code, out, err = run_cli(capsys, "chains", "K4", "--set", "")
    assert code == 2 and out == ""
    assert "chain extraction needs a complete forcing run" in err


def test_tfnum(capsys):
    code, out, _ = run_cli(capsys, "tfnum", "P4")
    assert json.loads(out) == {"f_t": 2, "witness": [0, 1]}


def test_draw_fig8_svg(capsys, tmp_path):
    target = tmp_path / "d.svg"
    code, out, err = run_cli(capsys, "draw", "fig8:1,1,1,1,1", "--out", str(target))
    assert code == 0
    assert json.loads(out)["format"] == "svg"
    svg = target.read_text()
    assert svg.startswith("<svg")
    assert "3-row drawing" in err


def test_draw_json_stdout(capsys):
    code, out, _ = run_cli(capsys, "draw", "K4")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3 and len(payload["rows"]) == 3


def test_draw_format_is_the_out_extension(capsys, tmp_path):
    _, document, _ = run_cli(capsys, "draw", "K4")
    for name, fmt in (("x.svg", "svg"), ("x.json", "json"), ("x", "json")):
        target = tmp_path / name
        code, out, _ = run_cli(capsys, "draw", "K4", "--out", str(target))
        assert code == 0
        assert json.loads(out) == {"out": str(target), "format": fmt}
        if fmt == "svg":
            assert target.read_text().startswith("<svg")
        else:
            # the file holds the document that stdout prints without --out
            assert target.read_text() == document
    # the format has one source: there is no --format option
    code, _, err = run_cli(capsys, "draw", "K4", "--format", "svg")
    assert code == 2 and "unrecognized arguments: --format" in err


def test_nullity_subcommand(capsys):
    code, out, _ = run_cli(capsys, "nullity", "C4", "--target", "2", "--budget", "8x600")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["n", "edges", "diag", "weights", "eigenvalues", "k", "tol_zero"]
    assert payload["k"] == 2
    # the printed matrix certifies the printed nullity again
    host = Graph(payload["n"], [tuple(e) for e in payload["edges"]])
    weights = [payload["weights"][f"{u}-{v}"] for u, v in host.edges]
    assert certify(host, payload["diag"], weights, payload["k"]).k == payload["k"]


def test_nullity_not_achieved(capsys):
    code, out, _ = run_cli(capsys, "nullity", "P4", "--target", "2", "--budget", "2x100")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "achieved": False,
        "target": 2,
        "best_k": payload["best_k"],
        "left_pattern": payload["left_pattern"],
        "stalled": payload["stalled"],
    }


def test_nullity_counts_restarts_that_left_the_pattern(capsys):
    # figure-8 target-3 restarts diverge, so each one stalls short of the
    # zero threshold; K4 target-4 restarts converge to the zero matrix, so
    # each one reaches it with every weight below the floor
    argv = ["nullity", "fig8:1,1,1,1,1", "--target", "3", "--budget", "2x2000", "--seed", "2024"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["best_k"] == 0 and payload["left_pattern"] == 0 and payload["stalled"] == 2
    assert "of 2 restarts, 2 stalled short of the zero threshold and 0 reached it below" in err
    code, out, err = run_cli(capsys, "nullity", "K4", "--target", "4", "--budget", "2x2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_k"] == 0 and payload["left_pattern"] == 2 and payload["stalled"] == 0
    assert "of 2 restarts, 0 stalled short of the zero threshold and 2 reached it below" in err


def test_search_draw(capsys):
    code, out, _ = run_cli(capsys, "search-draw", "P5", "--k", "1")
    payload = json.loads(out)
    assert payload["found"] is True and payload["k"] == 1
    code, out, err = run_cli(capsys, "search-draw", "K4", "--k", "2")
    assert code == 0 and json.loads(out) == {"found": False, "k": 2}
    assert "no drawing with at most 2 rows exists" in err
    # the search is exact, so it takes no budget
    code, _, _ = run_cli(capsys, "search-draw", "P5", "--k", "1", "--budget", "2000")
    assert code == 2


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    payload = json.loads(out)
    assert payload["count"] == 6
    assert "C~" in payload["graphs"]


def test_verify_builtin_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--nmax", "3", "--budget", "10x500")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []


def test_verify_counts_skipped_graphs(capsys, tmp_path):
    # K5 has degree 4, so no check runs on it
    corpus = tmp_path / "k5.g6"
    corpus.write_text("D~{\n")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert code == 0
    assert json.loads(out)["totals"] == {"skipped": 1}
    assert "1 graphs, 1 skipped," in err
    # nor on the graph with no vertices, which has no forcing number
    corpus.write_text("?\n")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert code == 0
    assert json.loads(out)["totals"] == {"skipped": 1}
    assert "1 graphs, 1 skipped, 0 violations" in err


def test_verify_conflicting_sources(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_verify_rejects_nmax_below_one(capsys, nmax):
    code, out, err = run_cli(capsys, "verify", "--nmax", nmax)
    assert code == 2 and out == ""
    assert "--nmax must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("nullity", "K4", "--target", "3", "--seed", "-1"),
        ("verify", "--nmax", "3", "--seed", "-100000"),
        ("search-draw", "K4", "--k", "0"),
        ("search-draw", "K4", "--k", "-1"),
        ("nullity", "K4", "--target", "3", "--budget", "0x10"),
        ("nullity", "K4", "--target", "3", "--budget", "1x0"),
        ("verify", "--nmax", "3", "--budget", "50"),
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "at least" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--nmax", "3", "--resume"),
        ("verify", "--nmax", "3", "--checks", ""),
    ],
)
def test_verify_rejects_argument_it_would_ignore(capsys, argv):
    # --resume without --out would recompute everything; an empty --checks
    # would run every check
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2 and out == ""


def test_verify_corrupt_resume_file_is_io_error(capsys, tmp_path):
    out = tmp_path / "r.jsonl"
    out.write_text("this is not json\n")
    code, _, err = run_cli(capsys, "verify", "--nmax", "2", "--resume", "--out", str(out))
    assert code == 2
    assert err.startswith("I/O error:")


def test_unknown_builtin_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "fnum", "Q17")
    assert code == 2
    assert "usage error" in err


def test_diff_of_two_runs(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(["verify", "--nmax", "4", "--budget", "10x500", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "diff", str(a), str(b))
    payload = json.loads(out)
    assert code == 0 and payload["same"] is True and payload["differences"] == []
    assert payload["records"] == [11, 11]
    # a changed field and a torn last line both differ; neither file is touched
    lines = a.read_text().splitlines(keepends=True)
    rec = json.loads(lines[0])
    rec["f"] += 1
    a.write_text(json.dumps(rec) + "\n" + "".join(lines[1:]))
    b.write_bytes(b.read_bytes()[:-40])
    before = (a.read_bytes(), b.read_bytes())
    code, out, _ = run_cli(capsys, "diff", str(a), str(b))
    payload = json.loads(out)
    assert code == 1 and payload["same"] is False and payload["records"] == [11, 10]
    assert f"{rec['graph']} f: {rec['f']} != {rec['f'] - 1}" in payload["differences"]
    assert len(payload["differences"]) == 2
    assert (a.read_bytes(), b.read_bytes()) == before


@pytest.mark.parametrize("content", [None, "this is not json\n", "[1, 2]\n"])
def test_diff_missing_or_corrupt_file_is_io_error(capsys, tmp_path, content):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(json.dumps({"graph": "A_", "f": 1}) + "\n")
    if content is not None:
        bad.write_text(content)
    for argv in ((str(good), str(bad)), (str(bad), str(good))):
        code, out, err = run_cli(capsys, "diff", *argv)
        assert code == 2 and out == ""
        assert err.startswith("I/O error:")


@pytest.mark.parametrize("argv", [("verify", "--corpus"), ("fnum",)])
def test_non_ascii_corpus_file_is_a_format_error(capsys, tmp_path, argv):
    corpus = tmp_path / "bad.g6"
    corpus.write_bytes(b"C~\n\xc3\xa9\n")
    code, out, err = run_cli(capsys, *argv, str(corpus))
    assert code == 2 and out == ""
    assert err.startswith("error: non-ASCII byte on line 2")


@pytest.mark.parametrize("argv", [("verify", "--corpus"), ("fnum",)])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"C~\nBw\nC\n", "error: line 3: record too short"),
        (b"~??\n", "error: line 1: multi-byte graph6 size form"),
    ],
)
def test_malformed_corpus_record_names_its_line(capsys, tmp_path, argv, content, message):
    corpus = tmp_path / "bad.g6"
    corpus.write_bytes(content)
    code, out, err = run_cli(capsys, *argv, str(corpus))
    assert code == 2 and out == ""
    assert err.startswith(message)


# every subcommand, once on success and once on failure; {dir} is a scratch
# directory holding one records file, r.jsonl, and a corpus of two graphs, two.g6
CONTRACT_SUCCESS = [
    ("fnum", "K4"),
    ("tfnum", "P4"),
    ("closure", "C4", "--set", "0,1"),
    ("chains", "K4"),
    ("draw", "K4"),
    ("classify", "P7"),
    ("nullity", "C4", "--target", "2", "--budget", "8x600"),
    ("search-draw", "P5", "--k", "1"),
    ("verify", "--nmax", "3", "--budget", "10x500"),
    ("diff", "{dir}/r.jsonl", "{dir}/r.jsonl"),
    ("enumerate", "--n", "4"),
]
CONTRACT_FAILURE = [
    ("fnum", "Q17"),
    ("tfnum", "P1"),
    ("closure", "P3", "--set", "a"),
    ("chains", "K4", "--set", ""),
    ("draw", "K4", "--out", "{dir}/missing/d.svg"),
    ("classify", "{dir}/two.g6"),
    ("nullity", "K4", "--target", "3", "--seed", "-1"),
    ("search-draw", "K4", "--k", "0"),
    ("verify",),
    ("diff", "{dir}/r.jsonl", "{dir}/missing.jsonl"),
    ("enumerate", "--n", "11"),
]


@pytest.fixture
def contract_dir(tmp_path):
    (tmp_path / "r.jsonl").write_text(json.dumps({"graph": "A_", "f": 1}) + "\n")
    (tmp_path / "two.g6").write_text("C~\nBw\n")
    return tmp_path


def test_contract_lists_every_subcommand():
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    assert {argv[0] for argv in CONTRACT_SUCCESS} == {argv[0] for argv in CONTRACT_FAILURE}
    assert {argv[0] for argv in CONTRACT_SUCCESS} == commands and len(commands) == 11


@pytest.mark.parametrize("argv", CONTRACT_SUCCESS, ids=lambda argv: argv[0])
def test_success_prints_one_document_and_one_note(capsys, contract_dir, argv):
    code, out, err = run_cli(capsys, *(a.format(dir=contract_dir) for a in argv))
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    assert isinstance(json.loads(out), dict)
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", CONTRACT_FAILURE, ids=lambda argv: argv[0])
def test_failure_prints_nothing_on_stdout(capsys, contract_dir, argv):
    code, out, err = run_cli(capsys, *(a.format(dir=contract_dir) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(("usage error:", "error:", "I/O error:"))


def test_closure_set_must_be_integers(capsys):
    code, out, err = run_cli(capsys, "closure", "P3", "--set", "a")
    assert code == 2 and out == ""
    assert err == "usage error: vertex set must be comma-separated integers, got 'a'\n"
