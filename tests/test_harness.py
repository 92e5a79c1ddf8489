import json
import sys

import pytest

from zfpaths import chains, drawing, harness
from zfpaths.cli import main
from zfpaths.errors import InternalLogicError, NumericalFailureError, UnsupportedInputError
from zfpaths.graphs import (
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    Graph,
    fig8_graph,
    parse_graph6,
    path_graph,
)
from zfpaths.harness import ALL_CHECKS, diff_records, run_suite
from zfpaths.nullity import NotAchieved, NullityCertificate, classify


def strip_timings(records):
    return {
        key: {k: v for k, v in rec.items() if k != "timings"}
        for key, rec in records.items()
    }


def test_builtin_suite_small_clean():
    report = run_suite(4, nullity_budget=(15, 800), seed=2)
    assert report.ok, report.violations
    # 10 connected graphs up to n=4 plus the union of two disjoint edges
    assert report.cursor == 1 + 1 + 2 + 6 + 1
    assert report.cursor == len(report.records)
    assert report.totals.get("ThreeParallel_FM3", 0) >= 1


def test_suite_survives_one_failing_graph(monkeypatch):
    real = harness.maximize_nullity

    def fail_on_k4(g, *args, **kwargs):
        if canonical_form(g) == "C~":
            raise NumericalFailureError("Jacobi sweep did not converge")
        return real(g, *args, **kwargs)

    monkeypatch.setattr(harness, "maximize_nullity", fail_on_k4)
    report = run_suite(4, nullity_budget=(15, 800), seed=2)
    assert report.cursor == len(report.records) == 1 + 1 + 2 + 6 + 1
    assert report.violations == [
        ("C~", "check aborted: NumericalFailureError: Jacobi sweep did not converge")
    ]
    # the checks that ran before the failure keep their results
    assert report.records["C~"]["f"] == 3 and report.records["C~"]["drawing_ok"]
    # and the graphs checked after it are checked in full
    for key, rec in report.records.items():
        if key != "C~" and rec["tag"] != "Beyond":
            assert rec["m_certified"] == rec["f"], key


def spy_on_nullity_targets(monkeypatch):
    """(graph, target) of every call the harness makes to maximize_nullity."""
    calls = []
    real = harness.maximize_nullity

    def spy(g, target, *args, **kwargs):
        calls.append((g, target))
        return real(g, target, *args, **kwargs)

    monkeypatch.setattr(harness, "maximize_nullity", spy)
    return calls


def test_suite_asks_only_for_classified_m_off_figure8(monkeypatch):
    asked = spy_on_nullity_targets(monkeypatch)
    report = run_suite(4, nullity_budget=(15, 800), seed=2)
    assert report.ok and not report.warnings
    assert len(asked) == sum(rec["tag"] != "Beyond" for rec in report.records.values())
    assert all(target == classify(g).m for g, target in asked)


def test_suite_overruns_on_figure8_only(tmp_path, monkeypatch):
    calls = spy_on_nullity_targets(monkeypatch)
    path = tmp_path / "two.g6"
    path.write_text(f"{encode_graph6(fig8_graph((1, 1, 1, 1, 1)))}\n{encode_graph6(path_graph(5))}\n")
    report = run_suite(str(path), nullity_budget=(20, 1200), seed=0)
    # target 2 then the over-run to 3 on the figure-8 graph; only m = 1 on P5
    assert [(g.n, target) for g, target in calls] == [(10, 2), (10, 3), (5, 1)]
    assert report.ok and not report.warnings
    fig8 = next(rec for rec in report.records.values() if rec["n"] == 10)
    assert fig8["tag"] == "Figure8_F3M2" and fig8["f"] == 3 and fig8["m_certified"] == 2


def _forged_failure(g):
    raise InternalLogicError("forged failure")


def _forged_certificate(g, target, **kwargs):
    return NullityCertificate(g, (), (), target, (), 1.0)


# one forged fault per check: (check, graph, the harness name patched, its
# stand-in, the violations and the warnings the check must report)
FORGED_FAULTS = [
    (
        "T_iff",
        complete_graph(4),
        "build_parallel_drawing",
        _forged_failure,
        [
            "drawing construction failed: forged failure",
            "T_iff: no verified 3-row drawing despite f=3",
        ],
        [],
    ),
    (
        "P_left",
        complete_graph(4),
        "leftmost_set",
        lambda d: frozenset(),
        [
            "P_left: leftmost set [] does not force",
            "P_left: leftmost set smaller than the forcing number",
        ],
        [],
    ),
    (
        "C_ft",
        disjoint_union([path_graph(2)] * 2),
        "total_forcing_number",
        lambda g: (5, (0, 1, 2, 3)),
        [
            "C_ft: total forcing 5 exceeds twice the 2-row drawing",
            "C_ft: union of 2 edges should have total forcing 4",
        ],
        [],
    ),
    (
        "L_order",
        path_graph(3),
        "check_order_lemmas",
        lambda cs: ["a", "b", "c", "d"],
        ["L_order: ['a', 'b', 'c']"],
        [],
    ),
    (
        "E_bounds",
        Graph(1),
        "forcing_number",
        lambda g: (2, (0,)),
        ["E_bounds: f=2 above n/2+1", "E_bounds: edgeless graph must have f = n"],
        [],
    ),
    (
        "E_bounds",
        path_graph(4),
        "total_forcing_number",
        lambda g: (3, (0, 1, 2)),
        ["E_bounds: f_t=3 outside [f, 2f]"],
        [],
    ),
    (
        "T_fmk",
        complete_graph(4),
        "maximize_nullity",
        lambda g, target, **kwargs: NotAchieved(target, 1, 1, 0, 1),
        ["T_fmk: optimizer reached only 1, classification says 3"],
        [],
    ),
    (
        "T_fmk",
        fig8_graph((1, 1, 1, 1, 1)),
        "maximize_nullity",
        _forged_certificate,
        [],
        ["T_fmk over-run: certified 3 above classified 2"],
    ),
]


@pytest.mark.parametrize(
    "check, g, name, forged, violations, warnings",
    FORGED_FAULTS,
    ids=[f"{case[0]}-{case[2]}" for case in FORGED_FAULTS],
)
def test_each_detector_fires_on_a_forged_fault(
    tmp_path, monkeypatch, check, g, name, forged, violations, warnings
):
    monkeypatch.setattr(harness, name, forged)
    corpus = tmp_path / "one.g6"
    corpus.write_text(encode_graph6(g) + "\n")
    report = run_suite(str(corpus), checks=(check,))
    key = canonical_form(g)
    assert report.violations == [(key, v) for v in violations]
    assert report.warnings == [(key, w) for w in warnings]


def test_suite_verifies_each_drawing_once(monkeypatch):
    calls = []
    real = drawing.verify_drawing

    def spy(d):
        calls.append(d.host)
        return real(d)

    # every zfpaths module that binds the verifier by name calls the spy
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "zfpaths" and getattr(mod, "verify_drawing", None) is real:
            monkeypatch.setattr(mod, "verify_drawing", spy)
    report = run_suite(4, nullity_budget=(15, 800), seed=2)
    drawn = sum(rec["drawing_ok"] is True for rec in report.records.values())
    assert report.ok and drawn == report.cursor == 11
    assert len(calls) == drawn


def test_suite_extracts_each_graphs_chains_once(tmp_path, monkeypatch):
    # the drawing and L_order read one chain set per graph
    calls = []
    real = chains.chains_for

    def spy(g, colored):
        calls.append(encode_graph6(g))
        return real(g, colored)

    # every zfpaths module that binds the extractor by name calls the spy
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "zfpaths" and getattr(mod, "chains_for", None) is real:
            monkeypatch.setattr(mod, "chains_for", spy)
    chains.forcing_chains.cache_clear()
    # F = 1, 2, 3 (K4, a figure-8 graph, C4 with an isolated vertex) and 4
    graphs = [path_graph(5), cycle_graph(6), complete_graph(4), fig8_graph((1, 1, 1, 1, 1)),
              disjoint_union([cycle_graph(4), Graph(1)]), complete_bipartite(3, 3)]
    corpus = tmp_path / "structure.g6"
    corpus.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    report = run_suite(str(corpus), checks=("T_iff", "P_left", "C_ft", "L_order", "E_bounds"))
    assert report.ok and report.cursor == len(graphs)
    assert sorted(calls) == sorted(encode_graph6(g) for g in graphs)


def test_graph_listed_twice_is_checked_and_written_once(tmp_path, monkeypatch):
    checked = []
    real = harness._check_one

    def spy(g, key, *args):
        checked.append(key)
        return real(g, key, *args)

    monkeypatch.setattr(harness, "_check_one", spy)
    corpus, out = tmp_path / "twice.g6", tmp_path / "r.jsonl"
    corpus.write_text("Bw\nBo\nBw\n")  # K3, P3, K3
    report = run_suite(str(corpus), out_path=str(out), nullity_budget=(15, 800), seed=0)
    triangle = canonical_form(parse_graph6("Bw"))
    assert sorted(checked) == sorted({triangle, canonical_form(parse_graph6("Bo"))})
    keys = [json.loads(line)["graph"] for line in out.read_text().splitlines()]
    assert sorted(keys) == sorted(checked)
    # the second copy still counts, as a resumed record does
    assert report.cursor == 3 and sum(report.totals.values()) == 3
    assert report.totals[report.records[triangle]["tag"]] == 2


def test_two_labelings_above_the_key_cap_are_two_records(tmp_path):
    # canonical keys stop at n = 10, so an 11-vertex graph is keyed by its
    # labeled graph6 string and each labeling gets its own record
    g = path_graph(11)
    labelings = [encode_graph6(g), encode_graph6(g.relabel([(v + 1) % 11 for v in range(11)]))]
    corpus = tmp_path / "p11.g6"
    corpus.write_text("".join(line + "\n" for line in labelings))
    report = run_suite(str(corpus), checks=("E_bounds",), seed=0)
    assert sorted(report.records) == sorted(labelings)
    assert labelings[0] != labelings[1]


def test_suite_classifies_k4_and_k33(tmp_path):
    path = tmp_path / "two.g6"
    path.write_text("# corpus\nC~\nEFz_\n")  # K4 and K3,3
    report = run_suite(str(path), checks=("T_iff", "E_bounds"), seed=0)
    recs = list(report.records.values())
    tags = {r["n"]: r["tag"] for r in recs}
    assert tags[4] == "ThreeParallel_FM3"
    assert tags[6] == "Beyond"


def test_suite_path_union_sharpness():
    # the unions of 2..4 disjoint edges need n_max = 8 to be in the corpus
    report = run_suite(8, checks=("C_ft",), seed=0)
    for j in (2, 3, 4):
        rec = report.records[canonical_form(disjoint_union([path_graph(2)] * j))]
        assert rec["f"] == j
        assert rec["f_t"] == rec["n"]  # two vertices per component
    assert report.ok


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_builtin_corpus_respects_nmax(n_max):
    report = run_suite(n_max, checks=("E_bounds",), seed=0)
    assert max(rec["n"] for rec in report.records.values()) <= n_max


def test_suite_skips_high_degree_graphs(tmp_path):
    path = tmp_path / "star.g6"
    path.write_text("Ds_\n")  # K(1,4): degree four center
    report = run_suite(str(path), seed=0)
    rec = next(iter(report.records.values()))
    assert rec["skipped"] is True


def test_suite_records_and_resume(tmp_path):
    out = tmp_path / "records.jsonl"
    full = run_suite(3, out_path=str(out), seed=1, nullity_budget=(10, 600))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == full.cursor
    # truncate to simulate an interrupted run, then resume
    out.write_text("\n".join(lines[:2]) + "\n")
    resumed = run_suite(3, out_path=str(out), resume=True, seed=1, nullity_budget=(10, 600))
    assert strip_timings(resumed.records) == strip_timings(full.records)
    assert resumed.cursor == full.cursor


def test_suite_determinism_excluding_timings(tmp_path):
    a = run_suite(3, seed=5, nullity_budget=(10, 600))
    b = run_suite(3, seed=5, nullity_budget=(10, 600))
    assert strip_timings(a.records) == strip_timings(b.records)
    assert diff_records(a.records, b.records) == []


def test_diff_reports_field_difference():
    a = run_suite(2, checks=("E_bounds",), seed=0)
    b = run_suite(2, checks=("E_bounds",), seed=0)
    key = next(iter(b.records))
    b.records[key] = dict(b.records[key], f=99)
    lines = diff_records(a.records, b.records)
    assert len(lines) == 1 and key in lines[0] and "99" in lines[0]


def test_unknown_check_rejected():
    with pytest.raises(UnsupportedInputError, match=r"unknown checks: \['bogus'\]"):
        run_suite(2, checks=("T_iff", "bogus"))


def test_corrupt_resume_file_is_io_error(tmp_path):
    out = tmp_path / "r.jsonl"
    out.write_text("this is not json\n")
    with pytest.raises(OSError):
        run_suite(2, out_path=str(out), resume=True)
    # a bad line followed by a good one was not torn by a killed run
    out.write_text("{torn\n" + json.dumps({"graph": "A_"}) + "\n")
    with pytest.raises(OSError):
        run_suite(2, out_path=str(out), resume=True)


def test_resume_drops_torn_last_line(tmp_path):
    # a run killed mid-write leaves the last record without its newline
    out = tmp_path / "r.jsonl"
    assert main(["verify", "--nmax", "4", "--out", str(out)]) == 0
    out.write_bytes(out.read_bytes()[:-40])
    resumed = run_suite(4, out_path=str(out), resume=True)
    assert diff_records(run_suite(4).records, resumed.records) == []
    lines = out.read_text().splitlines()
    assert len(lines) == resumed.cursor
    assert all(json.loads(line)["graph"] for line in lines)


def test_resume_without_a_records_file_is_a_fresh_run(tmp_path):
    out = tmp_path / "r.jsonl"
    resumed = run_suite(4, out_path=str(out), resume=True)
    fresh = run_suite(4)
    assert diff_records(fresh.records, resumed.records) == []
    assert diff_records(fresh.records, harness.read_records(str(out))[0]) == []


def test_read_records_skips_blank_lines(tmp_path):
    out = tmp_path / "r.jsonl"
    lines = [json.dumps({"graph": "A_", "f": 1}), "", json.dumps({"graph": "Bw", "f": 2})]
    out.write_text("\n".join(lines) + "\n")
    records, whole = harness.read_records(str(out))
    assert records == {"A_": {"graph": "A_", "f": 1}, "Bw": {"graph": "Bw", "f": 2}}
    assert whole == out.stat().st_size


def test_resume_remakes_records_made_by_other_checks(tmp_path, monkeypatch):
    # records of an E_bounds-only run have no drawing or nullity fields set
    out = tmp_path / "r.jsonl"
    assert main(["verify", "--nmax", "4", "--checks", "E_bounds", "--out", str(out)]) == 0
    resumed = run_suite(4, out_path=str(out), resume=True)
    fresh = run_suite(4)
    assert diff_records(fresh.records, resumed.records) == []
    # the remade records were appended, and the file's later lines win
    assert diff_records(fresh.records, harness.read_records(str(out))[0]) == []
    # a run under the checks that made the records reuses every one
    checked = []
    monkeypatch.setattr(harness, "_check_one", lambda g, key, *args: checked.append(key))
    again = run_suite(4, out_path=str(out), resume=True)
    assert checked == [] and diff_records(fresh.records, again.records) == []
    monkeypatch.undo()
    # so is a run under another nullity budget: one Newton step per restart
    # certifies no classified nullity, and the resumed run must not say so
    assert main(["verify", "--nmax", "4", "--budget", "1x1", "--out", str(out)]) == 1
    resumed = run_suite(4, out_path=str(out), resume=True)
    assert resumed.ok and diff_records(fresh.records, resumed.records) == []
    # and under another seed, which may change what the search certifies
    assert main(["verify", "--nmax", "4", "--seed", "1", "--out", str(out)]) == 0
    real = harness._check_one
    monkeypatch.setattr(
        harness, "_check_one", lambda g, key, *args: checked.append(key) or real(g, key, *args)
    )
    resumed = run_suite(4, out_path=str(out), resume=True)
    assert len(checked) == resumed.cursor == 11
    assert diff_records(fresh.records, resumed.records) == []


def test_all_checks_constant():
    assert set(ALL_CHECKS) == {"T_iff", "T_fmk", "C_ft", "P_left", "L_order", "E_bounds"}


def test_records_carry_the_fields_the_benchmark_oracles_read(tmp_path):
    # perfbench/run.py checks every record by these fields alone
    fields = ("n", "f", "f_t", "tag", "m_certified", "drawing_ok", "violations", "skipped")
    corpus = tmp_path / "two.g6"
    corpus.write_text(f"{encode_graph6(complete_graph(4))}\n{encode_graph6(complete_graph(5))}\n")
    report = run_suite(str(corpus), nullity_budget=(15, 800))
    k4, k5 = sorted(report.records.values(), key=lambda rec: rec["n"])
    # K5 is skipped for its degree
    assert [tuple(rec[name] for name in fields) for rec in (k4, k5)] == [
        (4, 3, 3, "ThreeParallel_FM3", 3, True, [], False),
        (5, None, None, None, None, None, [], True),
    ]


def test_jsonl_lines_parse(tmp_path):
    out = tmp_path / "r.jsonl"
    run_suite(2, out_path=str(out), seed=0)
    for line in out.read_text().strip().splitlines():
        rec = json.loads(line)
        assert {"graph", "n", "f", "f_t", "tag", "m_certified", "drawing_ok", "timings"} <= set(rec)
        if rec["f_t"] is not None:
            assert rec["f"] <= rec["f_t"] <= 2 * rec["f"]
        if rec["m_certified"] is not None:
            assert rec["m_certified"] <= rec["f"]
