"""CLI behaviour: reports, exit codes, determinism."""

import gc
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from isotess import cli
from isotess.cli import main
from isotess.interchange import canonical_json, save
from isotess.rational import parse_rational

from conftest import finite_corpus, k4_record, wheel_record


# a triangle: a simple plane graph that violates the tessellation axioms
TRIANGLE = {
    "vertices": [{"id": 0, "rotation": [0, 2]}, {"id": 1, "rotation": [1, 0]},
                 {"id": 2, "rotation": [2, 1]}],
    "edges": [{"id": 0, "ends": [0, 1], "length": "1"},
              {"id": 1, "ends": [1, 2], "length": "1"},
              {"id": 2, "ends": [2, 0], "length": "1"}],
    "unbounded_face_reps": [[0, 0]],
}


def run(args):
    return main(args)


def read(path):
    return json.loads(path.read_text())


def test_gen_then_curvature(tmp_path, capsys):
    graph = tmp_path / "pq73.json"
    out = tmp_path / "curv.json"
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "3",
                "--output", str(graph)]) == 0
    assert run(["curvature", str(graph), "--output", str(out)]) == 0
    capsys.readouterr()
    report = read(out)
    values = set(report["result"]["char_value"].values())
    assert "1/21" in values
    assert report["result"]["globals"]["observed"] is True


def test_gauss_bonnet_k4(tmp_path, capsys):
    path = tmp_path / "k4.json"
    save(k4_record(), path)
    out = tmp_path / "gb.json"
    assert run(["gauss-bonnet", str(path), "--output", str(out)]) == 0
    capsys.readouterr()
    report = read(out)
    assert report["result"]["sum"] == "1"
    assert report["result"]["holds"] is True


def test_alpha_netree(tmp_path, capsys):
    graph = tmp_path / "t6.json"
    out = tmp_path / "alpha.json"
    assert run(["gen", "netree", "--p", "6", "--depth", "3",
                "--output", str(graph)]) == 0
    assert run(["alpha", str(graph), "--budget-edges", "6",
                "--output", str(out)]) == 0
    capsys.readouterr()
    report = read(out)
    assert report["result"]["alpha_exact"] == "1/3"
    brute = [b for b in report["result"]["bounds"]
             if b["provenance"] == "bruteforce_upper"][0]
    assert brute["value"] == "1/3"
    assert brute["witness"] == [0]


def test_validate_exit_codes(tmp_path, capsys):
    tri = tmp_path / "w5.json"
    save(wheel_record(5), tri)
    assert run(["validate", str(tri)]) == 0
    capsys.readouterr()
    # a triangle violates the degree condition: exit 2
    bad = tmp_path / "tri.json"
    save(TRIANGLE, bad)
    assert run(["validate", str(bad)]) == 2
    capsys.readouterr()


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == 4
    missing = tmp_path / "missing.json"
    assert run(["validate", str(missing)]) == 4
    capsys.readouterr()
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"vertices": []}'.encode("utf-16-le"))
    assert run(["faces", str(utf16)]) == 4
    assert "not UTF-8" in capsys.readouterr().err
    # json.loads refuses an integer of more digits than Python converts
    record = k4_record()
    record["vertices"][0]["id"] = 987654321
    huge = tmp_path / "huge-id.json"
    huge.write_text(canonical_json(record).replace("987654321", "9" * 5001, 1))
    assert run(["faces", str(huge)]) == 4
    assert "too many digits" in capsys.readouterr().err
    # json.loads recurses once per nesting level
    record = k4_record()
    record["family"] = "nested"
    deep = tmp_path / "deep.json"
    deep.write_text(canonical_json(record).replace('"nested"', "[" * 100_000 + "]" * 100_000))
    assert run(["faces", str(deep)]) == 4
    assert "nested deeper" in capsys.readouterr().err


def test_budget_exhausted_exit_code(tmp_path, capsys):
    graph = tmp_path / "sq.json"
    run(["gen", "pq", "--p", "4", "--q", "4", "--radius", "3",
         "--output", str(graph)])
    assert run(["alpha", str(graph), "--budget-edges", "6",
                "--max-yield", "10"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["alpha", "compare"])
def test_scan_deeper_than_recursion_limit_exit_code(tmp_path, capsys, command):
    graph = tmp_path / "pq73r6.json"
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "6",
                "--output", str(graph)]) == 0
    capsys.readouterr()
    assert run([command, str(graph), "--budget-edges", "990"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("OutOfRange: ") and "Traceback" not in err


# one edge with two ends of degree 1: its only connected subgraph is the
# whole graph, which has an empty boundary
ONE_EDGE = {
    "vertices": [{"id": 0, "rotation": [0]}, {"id": 1, "rotation": [0]}],
    "edges": [{"id": 0, "ends": [0, 1], "length": "1"}],
    "unbounded_face_reps": [[0, 1]],
}


def _pq73r1(tmp_path, center_frontier=False):
    # every edge of the radius-1 ball touches the frontier rim
    path = tmp_path / "pq73r1.json"
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "1",
                "--output", str(path)]) == 0
    if center_frontier:
        record = read(path)
        record["frontier_vertices"] = sorted(set(record["frontier_vertices"]) | {0})
        save(record, path)
    return path


@pytest.mark.parametrize("case,command,code", [
    ("pq73r1", "alpha", 0),
    ("pq73r1", "compare", 0),
    ("one_edge", "alpha", 0),
    ("one_edge", "compare", 0),
    ("pq73r1_center_frontier", "comb-alpha", 2),
    ("pq73r1_center_frontier", "bounds", 2),
    ("pq73r1_center_frontier", "alpha", 2),
    ("pq73r1_center_frontier", "compare", 2),
])
def test_nothing_to_enumerate_is_not_a_budget_exit(tmp_path, capsys, case, command, code):
    # exit 3 means a hit --max-yield; a scan with nothing to choose from
    # reports the brute-force bound as not available, or fails the
    # frontier-free precondition when no vertex is frontier-free
    if case == "one_edge":
        path = tmp_path / "one_edge.json"
        save(ONE_EDGE, path)
    else:
        path = _pq73r1(tmp_path, center_frontier=case.endswith("center_frontier"))
    out = tmp_path / "report.json"
    assert run([command, str(path), "--output", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "EmptyFrontierFreeRegion" in err
        return
    report = read(out)["result"]
    bracket = report["alpha"] if command == "compare" else report
    brute = [b for b in bracket["bounds"] if b["provenance"] == "bruteforce_upper"]
    assert len(brute) == 1
    assert brute[0]["value"] == "inf" and brute[0]["certified"] is False
    assert brute[0]["note"].startswith("not available: no ")


def test_alpha_bytes_identical_across_workers(tmp_path, capsys):
    graph = tmp_path / "sq.json"
    run(["gen", "pq", "--p", "4", "--q", "4", "--radius", "3",
         "--output", str(graph)])
    outs = []
    for w in (1, 4, 8):
        out = tmp_path / f"a{w}.json"
        assert run(["alpha", str(graph), "--budget-edges", "5",
                    "--workers", str(w), "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]


def test_report_determinism_same_input(tmp_path, capsys):
    graph = tmp_path / "g.json"
    run(["gen", "pq", "--p", "3", "--q", "7", "--radius", "3",
         "--output", str(graph)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["curvature", str(graph), "--output", str(a)])
    run(["curvature", str(graph), "--output", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_compare_gk_divergence(tmp_path, capsys):
    graph = tmp_path / "gk.json"
    out = tmp_path / "cmp.json"
    run(["gen", "gk", "--k", "3", "--rows", "3", "--cols", "3",
         "--tree-depth", "2", "--output", str(graph)])
    assert run(["compare", str(graph), "--budget-generators", "4",
                "--output", str(out)]) == 0
    capsys.readouterr()
    report = read(out)
    assert report["result"]["divergence_flag"] is True
    assert report["result"]["comb"]["closed_form"] == "0"
    assert Fraction(report["result"]["alpha"]["best_lower"]) == Fraction(65, 189)


def test_compare_lattice_no_flag(tmp_path, capsys):
    graph = tmp_path / "sq.json"
    out = tmp_path / "cmp.json"
    run(["gen", "pq", "--p", "4", "--q", "4", "--radius", "2",
         "--output", str(graph)])
    assert run(["compare", str(graph), "--output", str(out)]) == 0
    capsys.readouterr()
    report = read(out)
    assert report["result"]["divergence_flag"] is False


def test_compare_tree_combmetric(tmp_path, capsys):
    graph = tmp_path / "t3.json"
    out = tmp_path / "cmp.json"
    run(["gen", "tree", "--p", "3", "--radius", "4", "--output", str(graph)])
    assert run(["compare", str(graph), "--output", str(out)]) == 0
    capsys.readouterr()
    result = read(out)["result"]
    assert result["combmetric_check"]["alpha_comb"] == "1/3"
    assert result["combmetric_check"]["transformed"] == "1/2"
    assert result["combmetric_check"]["matches_alpha_exact"] is True
    assert result["alpha"]["alpha_exact"] == "1/2"


def test_witness_command(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["witness", "--k", "3", "--l", "2", "--output", str(out)]) == 0
    capsys.readouterr()
    report = read(out)
    assert report["result"]["measure"] == "9"
    assert report["result"]["boundary_degree"] == 9
    graph = tmp_path / "gk.json"
    run(["gen", "gk", "--k", "3", "--rows", "2", "--cols", "2",
         "--tree-depth", "2", "--output", str(graph)])
    assert run(["witness", "--k", "3", "--l", "2", "--input", str(graph),
                "--output", str(out)]) == 0
    capsys.readouterr()
    assert read(out)["result"]["cross_checked"] is True
    # a record of another family, or of G_k with another k, fails the
    # precondition (exit 2) before any work
    ball = tmp_path / "pq.json"
    run(["gen", "pq", "--p", "4", "--q", "4", "--radius", "2", "--output", str(ball)])
    assert run(["witness", "--k", "3", "--l", "2", "--input", str(ball)]) == 2
    assert run(["witness", "--k", "4", "--l", "2", "--input", str(graph)]) == 2
    err = capsys.readouterr().err
    assert err.count("GraphError: cross-check needs") == 2 and "Traceback" not in err
    # a G_3 file whose root tree edge was lengthened no longer yields the
    # attached tree: a failed cross-check, not an assertion
    g3 = tmp_path / "g3.json"
    run(["gen", "gk", "--k", "3", "--output", str(g3)])
    record = read(g3)
    edge = next(e for e in record["edges"] if e["id"] == 72)
    assert edge["ends"] == [3, 55]
    edge["length"] = "3/2"
    save(record, g3)
    assert run(["witness", "--k", "3", "--l", "2", "--input", str(g3)]) == 2
    err = capsys.readouterr().err
    assert "GraphError: tree cut has" in err and "Traceback" not in err
    # k, tree_depth and cols are read as JSON integers (exit 4 when missing
    # or not one); a cols that names no vertex fails the precondition (exit 2)
    for edit, code, name in ((lambda f: f.pop("tree_depth"), 4, "tree_depth"),
                             (lambda f: f.update(cols="3"), 4, "cols"),
                             (lambda f: f.update(cols=1000000), 2, "cols"),
                             (lambda f: f.update(k=3.0), 4, "k must be")):
        run(["gen", "gk", "--k", "3", "--output", str(g3)])
        record = read(g3)
        edit(record["family"])
        save(record, g3)
        assert run(["witness", "--k", "3", "--l", "2", "--input", str(g3)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and name in err


@pytest.mark.parametrize("l,code", [(14000, 0), (15000, 2), (1_000_000_000, 2)])
def test_witness_digit_limit(tmp_path, capsys, l, code):
    # a measure Python could not write is a failed precondition (exit 2);
    # for a huge l the bound on its digits rules before (k-1)^l is formed
    out = tmp_path / "w.json"
    start = time.perf_counter()
    assert run(["witness", "--k", "3", "--l", str(l), "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert len(read(out)["result"]["measure"]) > 4000
    else:
        assert "OutOfRange" in err and not out.exists()
    if l > 10**6:
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("lengths", ["one 1e-400", "all 1e400"])
def test_lengths_outside_float_range(tmp_path, capsys, lengths):
    # exact lengths below the least positive float or above the largest
    # one: every analysis command succeeds, and the Cheeger upper end is
    # exact, here the finite graph's 0
    which, length = lengths.split()
    record = k4_record()
    for item in record["edges"][:1] if which == "one" else record["edges"]:
        item["length"] = length
    path = tmp_path / "k4.json"
    save(record, path)
    for command in ("validate", "faces", "curvature", "gauss-bonnet", "bounds",
                    "alpha", "comb-alpha", "compare"):
        assert run([command, str(path)]) == 0, command
        out, err = capsys.readouterr()
        assert "Traceback" not in err, command
        result = json.loads(out)["result"]
        if command in ("alpha", "compare"):
            bracket = result["alpha"] if command == "compare" else result
            assert bracket["cheeger"]["lambda0_upper"] == "0"
            assert bracket["cheeger"]["ell_min"] == str(parse_rational(length))


def test_report_value_digit_limit(tmp_path, capsys):
    # each length has 1,401 digits, but the vertex weights and characteristic
    # values sum reciprocals over the lcm of several of them: a report value
    # Python could not write is a failed precondition (exit 2)
    record = k4_record()
    for item, k in zip(record["edges"], (1, 3, 7, 9, 13, 19)):
        item["length"] = f"1/{10**1400 + k}"
    path = tmp_path / "k4.json"
    save(record, path)
    for command, code in (("validate", 0), ("faces", 0), ("gauss-bonnet", 0),
                          ("comb-alpha", 0), ("curvature", 2), ("bounds", 2),
                          ("alpha", 2), ("compare", 2)):
        assert run([command, str(path)]) == code, command
        out, err = capsys.readouterr()
        assert "Traceback" not in err, command
        if code == 2:
            assert "OutOfRange" in err and not out, command


@pytest.mark.parametrize("length", ["1e-400", "1/2", "2"])
def test_lengths_outside_family_certified_range(tmp_path, capsys, length):
    # the pq(7,3) closed forms and the certified ell_min = ell_star = 1 hold
    # only for unit lengths: commands that report them refuse the record
    path = tmp_path / "pq73r2.json"
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "2",
                "--output", str(path)]) == 0
    record = read(path)
    record["edges"][3]["length"] = length
    save(record, path)
    for command, code in (("validate", 0), ("faces", 0), ("curvature", 0),
                          ("gauss-bonnet", 2), ("comb-alpha", 0), ("bounds", 4),
                          ("alpha", 4), ("compare", 4)):
        assert run([command, str(path), "--budget-edges", "2"]
                   if command in ("bounds", "alpha", "comb-alpha", "compare")
                   else [command, str(path)]) == code, command
        err = capsys.readouterr().err
        assert "Traceback" not in err, command
        if code == 4:
            assert "ell_" in err, command


def _argv_with_exit(tmp_path, code):
    graph = tmp_path / "pq73r2.json"
    if not graph.exists():
        assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "2",
                    "--output", str(graph)]) == 0
    return {
        0: ["faces", str(graph)],
        2: ["gauss-bonnet", str(graph)],
        3: ["alpha", str(graph), "--max-yield", "10"],
        4: ["faces", str(tmp_path / "missing.json")],
    }[code]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_main_restores_collector_state(tmp_path, capsys, enabled, code):
    argv = _argv_with_exit(tmp_path, code)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_collector_state_on_error(tmp_path, capsys, monkeypatch,
                                                enabled):
    # also when the command raises past main, and when argparse exits
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_witness", boom)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError):
            run(["witness", "--k", "3", "--l", "2"])
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            run(["faces"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def _cyclic_garbage(argv) -> tuple[int, int]:
    """(exit code, objects a collection finds after ``main(argv)``), with the
    collector off for the call, as a caller that disabled it would see."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = run(argv)
        return code, gc.collect()
    finally:
        if was:
            gc.enable()


def test_paused_commands_leave_no_input_sized_cycles(tmp_path, capsys):
    # with collection paused for the command, the garbage it leaves in
    # cycles does not grow with the input: only the argparse parser
    small, large = tmp_path / "k4.json", tmp_path / "pq73r4.json"
    save(k4_record(), small)
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "4",
                "--output", str(large)]) == 0
    _cyclic_garbage(["faces", str(small)])  # first-call caches
    counts = {_cyclic_garbage(["faces", str(path)]) for path in (small, large)}
    capsys.readouterr()
    assert len(counts) == 1 and next(iter(counts))[0] == 0, counts


def test_paused_alpha_leaves_no_scan_sized_cycles(tmp_path, capsys):
    path = tmp_path / "pq73r2.json"
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "2",
                "--output", str(path)]) == 0
    argv = ["alpha", str(path), "--budget-edges"]
    _cyclic_garbage(argv + ["2"])  # first-call caches
    counts = {_cyclic_garbage(argv + [budget]) for budget in ("2", "6")}
    capsys.readouterr()
    assert len(counts) == 1 and next(iter(counts))[0] == 0, counts


@pytest.mark.parametrize("command", [
    ["bounds"], ["alpha", "--budget-edges", "3"],
    ["compare", "--budget-edges", "3"], ["comb-alpha"]])
def test_paused_scans_leave_no_input_sized_cycles(tmp_path, capsys, command):
    # a scan frees its closures and what they hold, such as the star-like
    # pass's generator sets, when it returns, not at the next collection
    paths = [tmp_path / f"pq73r{radius}.json" for radius in (2, 4)]
    for radius, path in zip((2, 4), paths):
        assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", str(radius),
                    "--output", str(path)]) == 0
    argvs = [[command[0], str(path), *command[1:]] for path in paths]
    _cyclic_garbage(argvs[0])  # first-call caches
    counts = {_cyclic_garbage(argv) for argv in argvs}
    capsys.readouterr()
    assert len(counts) == 1 and next(iter(counts))[0] == 0, counts


def test_gen_roundtrip_validates(tmp_path, capsys):
    graph = tmp_path / "ball.json"
    run(["gen", "pq", "--p", "3", "--q", "6", "--radius", "3",
         "--output", str(graph)])
    assert run(["validate", str(graph)]) == 0
    assert run(["faces", str(graph)]) == 0
    capsys.readouterr()


def test_bounds_command(tmp_path, capsys):
    graph = tmp_path / "gk.json"
    out = tmp_path / "bounds.json"
    run(["gen", "gk", "--k", "3", "--rows", "3", "--cols", "3",
         "--tree-depth", "3", "--output", str(graph)])
    assert run(["bounds", str(graph), "--budget-generators", "3",
                "--output", str(out)]) == 0
    capsys.readouterr()
    report = read(out)
    by_prov = {}
    for b in report["result"]["bounds"]:
        by_prov.setdefault(b["provenance"], []).append(b)
    # observed c*/K and the certified family closed form coincide for G_3
    assert any(b["value"] == "65/189" for b in by_prov["cK_lower"])
    assert any(b["certified"] for b in by_prov["cK_lower"])
    assert "est01_empirical" in by_prov


def test_gen_invalid_params_exit(tmp_path, capsys):
    assert run(["gen", "pq", "--p", "3", "--q", "5", "--radius", "2",
                "--output", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(vertices=[{"id": 0}], edges=[]),
    lambda r: r["vertices"][0].update(id="x"),
    lambda r: r.update(vertices=[], edges=[]),
    lambda r: r.update(true_degree={"0": "a"}),
    lambda r: r.update(unbounded_face_reps=[[0]]),
    lambda r: r["edges"][0].update(ends=[0, 1, 2]),
    lambda r: r["edges"][0].pop("length"),
    lambda r: r["vertices"][0].update(id=0.9),
    lambda r: r["edges"][0].update(id=0.5),
    lambda r: r["vertices"][0].update(
        rotation=[float(e) for e in r["vertices"][0]["rotation"]]),
    lambda r: r["edges"][0].update(ends=[r["edges"][0]["ends"][0], True]),
    lambda r: r.update(true_degree={"0": 3.7}),
    # True == 1 == 1.0: a value after an equal valid length is still checked
    lambda r: r["edges"][1].update(length=True),
    lambda r: r["edges"][1].update(length=1.0),
    lambda r: (r["edges"][0].update(length=1), r["edges"][1].update(length=True)),
    lambda r: (r["edges"][0].update(length=1), r["edges"][1].update(length=1.0)),
    # a true_degree key must be str(v) for a vertex v of the record
    lambda r: r.update(true_degree={"999": 3}),
    lambda r: r.update(true_degree={"0_0": 3}),
    lambda r: r.update(true_degree={"0": 3, "00": 3}),
    # a length Python could read but not write back: over the digit limit
    lambda r: r["edges"][0].update(length="1e-999999"),
    lambda r: r["edges"][0].update(length="1e-4300"),
    # one grammar on every Python, whatever its Fraction accepts
    lambda r: r["edges"][0].update(length="1 /2"),
    lambda r: r["edges"][0].update(length="1_000"),
    lambda r: r["edges"][0].update(length="\u0663"),
], ids=["no-rotation", "id-not-int", "no-vertices", "true-degree-not-int",
        "short-face-rep", "three-ends", "no-length", "vertex-id-float",
        "edge-id-float", "rotation-floats", "edge-end-bool", "true-degree-float",
        "length-bool-after-str", "length-float-after-str", "length-bool-after-int",
        "length-float-after-int", "true-degree-unknown-vertex",
        "true-degree-key-underscore", "true-degree-key-leading-zero",
        "length-exponent-over-digit-limit", "length-denominator-over-digit-limit",
        "length-space-before-slash", "length-underscore", "length-arabic-indic-digit"])
def test_malformed_record_exit_code(tmp_path, capsys, mutate):
    record = k4_record()
    mutate(record)
    path = tmp_path / "bad.json"
    save(record, path)
    assert run(["faces", str(path)]) == 4
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize("family,code", [
    ("x", 4),
    ([], 4),
    ({"kind": "pq", "p": "abc", "q": 3}, 4),
    ({"kind": "pq", "p": 7.9, "q": 3}, 4),
    ({"kind": "pq", "p": 4, "q": "abc"}, 4),
    ({"kind": "gk"}, 4),
    ({"kind": "gk", "k": True}, 4),
    ({"kind": "netree", "p": 0}, 2),
    ({"kind": "pq", "p": 2, "q": 7}, 2),
    ({"kind": "gk", "k": 2}, 2),
    ({"kind": "pq", "p": 7, "q": "inf"}, 0),
    ({"kind": "mystery"}, 0),
    (None, 0),
    # exact closed forms of a huge p or q, written as they are
    ({"kind": "pq", "p": 10**400, "q": 3}, 0),
    ({"kind": "pq", "p": 7, "q": 10**400}, 0),
    # a root of more digits than Python writes is out of range (exit 2)
    ({"kind": "pq", "p": 10**2500, "q": 3}, 2),
])
def test_family_block_exit_code(tmp_path, capsys, family, code):
    # malformed blocks are malformed input; values the generator rejects
    # are its own errors; absent blocks and unknown kinds are ignored.  A
    # well-formed pq block describes a ball of an infinite tessellation,
    # which K4, a finite graph, is not: every command refuses it at the
    # family gate (exit 2)
    record = k4_record()
    record["family"] = family
    path = tmp_path / "k4.json"
    save(record, path)
    claims = code == 0 and isinstance(family, dict) and family["kind"] == "pq"
    gate = ("FamilyMismatch: family pq: the graph has no frontier, so it is "
            "no ball of an infinite tessellation\n")
    want = 2 if claims else code
    for command in ("alpha", "bounds", "compare", "comb-alpha"):
        assert run([command, str(path), "--budget-edges", "3"]) == want, command
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert ("malformed input: family" in err) == (code == 4)
        if claims:  # no report, one line on stderr
            assert out == "" and err == gate, command


BRACKET_REFUSAL = "the best certified lower bound exceeds the best certified upper bound"


@pytest.mark.parametrize("family,refusals", [
    # G_k certifies alpha >= 65/189 > 0 and alpha_comb = 0
    ({"kind": "gk", "k": 3}, {
        "alpha": BRACKET_REFUSAL,
        "bounds": "a certified lower bound exceeds alpha = 0 of a finite graph",
        "compare": BRACKET_REFUSAL,
        "comb-alpha": None}),
    # a non-equilateral tree certifies alpha_S > 0 and alpha_comb = 3/5
    ({"kind": "netree", "p": 5}, {
        "alpha": None, "bounds": None, "compare": None,
        "comb-alpha": "the closed-form alpha_comb exceeds the enumerated upper bound"}),
], ids=["gk", "netree"])
def test_family_claims_refused_on_finite_graph(tmp_path, capsys, family, refusals):
    # blocks that the family gate does not check: K4, a finite graph with
    # alpha = 0 and a vertex set of cut 0, contradicts the positive values
    # they certify, and each command that reports one refuses it (exit 2)
    record = k4_record()
    record["family"] = family
    path = tmp_path / "k4.json"
    save(record, path)
    for command, refusal in refusals.items():
        assert run([command, str(path), "--budget-edges", "3"]) == (2 if refusal else 0)
        out, err = capsys.readouterr()
        if refusal:  # no report, one line on stderr
            assert out == "" and err == f"OutOfRange: {refusal}\n", command
        else:
            assert err == "" and json.loads(out)["input"]["family"] == family, command


def _frontier_degree_6(record):
    record["true_degree"][str(record["frontier_vertices"][0])] = 6


@pytest.mark.parametrize("gen,edit,named", [
    # the (4,4) lattice, alpha = 0, declared the (7,3) tessellation: at the
    # parent every command trusted it and reported alpha = (7 sqrt 5 - 5)/22
    ("4 4 3", lambda r: r.update(family={"kind": "pq", "p": 7, "q": 3, "radius": 3}),
     "vertex 0 has degree 4, not p = 7"),
    ("7 3 3", _frontier_degree_6, "vertex "),
    # radius 4: at radius 3 every heptagon touches the frontier
    ("3 7 4", lambda r: r.update(family={"kind": "pq", "p": 3, "q": "inf", "radius": 4}),
     "tile "),
], ids=["pq44-as-pq73", "pq73-frontier-degree-6", "pq37-as-tree"])
def test_family_gate_refuses_contradicted_pq_block(tmp_path, capsys, gen, edit, named):
    # a pq block is checked against the graph before anything is enumerated:
    # a contradiction is a failed precondition (exit 2), no report and one
    # line on stderr naming the first vertex or tile that differs
    path = tmp_path / "ball.json"
    p, q, radius = gen.split()
    assert run(["gen", "pq", "--p", p, "--q", q, "--radius", radius,
                "--output", str(path)]) == 0
    record = read(path)
    edit(record)
    save(record, path)
    capsys.readouterr()
    for command in ("bounds", "alpha", "comb-alpha", "compare"):
        assert run([command, str(path)]) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, command
        assert err.startswith(f"FamilyMismatch: family pq: {named}"), (command, err)


def test_comb_alpha_reads_the_block_before_enumerating(tmp_path, capsys):
    # a malformed block is malformed input (exit 4) even where the scan
    # would exhaust its budget (exit 3) first
    path = tmp_path / "pq73r3.json"
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "3",
                "--output", str(path)]) == 0
    record = read(path)
    record["family"] = "x"
    save(record, path)
    capsys.readouterr()
    assert run(["comb-alpha", str(path), "--max-yield", "1"]) == 4
    assert capsys.readouterr().err.startswith("malformed input: family block")


@pytest.mark.parametrize("argv", [
    ["alpha", "g.json", "--budget-edges", "0"],
    ["alpha", "g.json", "--workers", "0"],
    ["alpha", "g.json", "--workers", "-3"],
    ["bounds", "g.json", "--budget-generators", "0"],
    ["comb-alpha", "g.json", "--max-yield", "0"],
    ["gen", "pq", "--p", "4", "--q", "abc", "--radius", "2", "--output", "g.json"],
    # --tolerance is gone from every command
    *([command, "g.json", "--tolerance", value]
      for command in ("alpha", "compare") for value in ("nan", "inf", "1e400", "-1")),
    *([command, "g.json", "--tolerance", "1e-12"]
      for command in ("bounds", "comb-alpha")),
])
def test_numeric_flags_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_flags_attached_only_where_read(capsys):
    for argv in (["faces", "g.json", "--workers", "2"],
                 ["validate", "g.json", "--budget-edges", "3"],
                 ["comb-alpha", "g.json", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_parser_reused_keeps_defaults(tmp_path, capsys):
    # main parses every call with one parser; a flag given in one call
    # must not stay as the default of the next
    path = tmp_path / "pq73r2.json"
    assert run(["gen", "pq", "--p", "7", "--q", "3", "--radius", "2",
                "--output", str(path)]) == 0
    capsys.readouterr()
    budgets = []
    for argv in (["alpha", str(path), "--budget-edges", "2"], ["alpha", str(path)]):
        assert run(argv) == 0
        budgets.append(json.loads(capsys.readouterr().out)["budget"]["max_edges"])
    assert budgets == [2, 6]


# sha256 of the --help text at 80 columns, as the parser wrote it when
# every call built its own; Python 3.13 wraps the top-level usage line
# differently from 3.10-3.12
HELP_DIGESTS = {
    (): "bc6062c8ce0a0bbb7a790494adc95bd8767ede5c4281406c303fc5a8109b34d9"
        if sys.version_info < (3, 13) else
        "385c9a9f5427f97fbd314c93682e8e20f25ca9192a9ade8cf16b6c433d33bd7a",
    ("validate",): "912fe43aab83fc423d2cde5db72e6880dd18304158409692490aa48d03441e1a",
    ("faces",): "78979cd07d8d77d89b32f7afd6e9eac27c2b2c61c7415badd4e6e1085fa712ed",
    ("curvature",): "790cf9eaacc753fc1afeca7adca383e3a140b2de7b8f14c22bfec8e19d06910a",
    ("gauss-bonnet",): "ed1f000e544b695957148fefeaa5b0f85b53a50629d709c1656f61b95712a77d",
    ("bounds",): "82438e3ccc4a61addf29d981c1d44ba52ed522a3c648822bf9ad1f9b591cff8e",
    ("alpha",): "1005308a4ec144d0d363d02f146365e0a122cd744827379a95535ef71c1c53a1",
    ("comb-alpha",): "b7039446f3cce4630c2cacd5d047510959ea666ab3f84cbdcda7528b3334b1b0",
    ("compare",): "4e3d0c158734a2e6f49575d5b8f1122170cd0eeaf3c816d790ce00c7d5585b23",
    ("gen",): "4b53598c16c47230e02ad018f5670a7cbb39868d771d9de2fe49a14c0416f3f7",
    ("gen", "pq"): "b88eef40b25c53c19e32c87f1c78e1a9f221da81632d0655dcf45529d8a95c6a",
    ("gen", "tree"): "2346b11567a2b6f733dd614ad23a6f129db383327d509e8fed0fd3bf3cad681b",
    ("gen", "gk"): "3961ebc189a12b00ffeed1b0198787f95a6f04499654af79382029e0ea15696f",
    ("gen", "netree"): "2a478a1e7f28c651a360a86e2e996d797dcf567871fa2da4e89b04a66b905e5c",
    ("witness",): "671f8aad9a451c17039ca8afd7bcc7d9b3c0353ff91bbd1e73f0941eb4be5742",
}


def test_help_text_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    for _ in range(2):  # one parser serves both rounds; help must not change it
        got = {}
        for command in HELP_DIGESTS:
            with pytest.raises(SystemExit) as exc:
                run([*command, "--help"])
            assert exc.value.code == 0
            got[command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == HELP_DIGESTS


# Exit code and sha256 of the report of every analysis command on small
# inputs.  A change that alters a report on purpose must update these pins.
REPORT_DIGESTS = {
    "K4": {
        "validate": (0, "09d65dd6dcfd53619fce2c1a52e9223374e842cc63dbcb8b650fcf73c6880886"),
        "faces": (0, "639e458280fca11ca962935166faa3436e9d040d4a5bd099e3135a7d3f320a9e"),
        "curvature": (0, "1b3a78c5e252905dd05d4848558cdb86615fc88e8976b934ceb97b627006f442"),
        "gauss-bonnet": (0, "e756893b8b92a3c807ea30aebeef8fabb2addb939c4d17cace1b3647c4b9c3cd"),
        "bounds": (0, "6df0b9ec7c5e2dee41af7b1c119c42e7092bfad81efda286a9ebc6baba8eb1f7"),
        "alpha": (0, "5618309484fea1d33f8d5b931aba326751d4ec021798589bf23262c0ac30f431"),
        "comb-alpha": (0, "123bbf173020abaec0e24a4d3453c724d22d837f11412f86bd7ed6619e78ab0d"),
        "compare": (0, "4fced93126cc878ad6c919ccf4c6121f0fcd09f758bd59f22bddde9318f89ab1"),
    },
    "W4": {
        "validate": (0, "3924a69425d7ecaf22646439b74e662d049b90858d0850c9edcbe40e1a61f187"),
        "faces": (0, "8e3e0641438599ce31c38872e3e2dd5e1084498550141c1142eec3ab6befecf2"),
        "curvature": (0, "f4e2ac099142c49d29d2cba554c3ebd5b41544c9cfa9da8c5221cc895eeb7ee6"),
        "gauss-bonnet": (0, "7540bdd6a8d6cf9f702628a39615abf181df7e8bc74681939c11fba6ce63b318"),
        "bounds": (0, "f7f3b4f823f9b451434efec121a75c7c22d7b011e34b43b2c96906797659f677"),
        "alpha": (0, "08163aa5886fe4f941facc647502c46170e1e39488b787749f0de2d366b7e624"),
        "comb-alpha": (0, "c4ddb243f3849ca7652906548f294234176bae740a7467e9d2f0797d480fad37"),
        "compare": (0, "f65ce90973023db986b8cd558314ea2ca89f144e39527ee108621334af8ddc94"),
    },
    "W5": {
        "validate": (0, "e79fb28a6595a8fb2526865313011fc6ce10c4441d1ffd043a0a8253c4bd8863"),
        "faces": (0, "b3eb98815931b58fe9428b04b141990efc51e92f0ac7a5cf4be875203f504c01"),
        "curvature": (0, "8e63e149350a6f359724de4fef29d6835c90d8e86997b7d83645d7c7094dc986"),
        "gauss-bonnet": (0, "9ea0ef030a0682b42861611cfb07ceae7595b07dc05d5c89d41ee0e66ebff1e3"),
        "bounds": (0, "26cce2e495ee62c2c855cc918091c7ee8854cec17a972d889364a510c329df2f"),
        "alpha": (0, "67425e487271cfbed107362b5372a855e36d7ed3a0e7c19123e63b1eba057f34"),
        "comb-alpha": (0, "ff7b8203d8b84e2abd03ed58180b9e7de072bbb16bbd61f145d43e86fa879bc9"),
        "compare": (0, "52e4d6740e732b2d49b094d03e8a516869122ef95d6dd618376be2f68f5b7ffd"),
    },
    "W6": {
        "validate": (0, "319a8e6d566bee157d24d1ddda962904accb7c3cad71246977f1923c408ef678"),
        "faces": (0, "8746dcd91c1df0fbfd11215733777a565d767ae06d34af1e26a75862371ca939"),
        "curvature": (0, "8bc71374863846fa2267ee72f1b882c5257327bc13d2416e788ee095a0326a90"),
        "gauss-bonnet": (0, "4f498379b23f802c81b14f209968178a6bd0c1127a88bc501474a0964d8fc448"),
        "bounds": (0, "931391373e047341ae14d088df802b47c5035c9b506690dc14fb99653df3e86c"),
        "alpha": (0, "6f1375f0ed7db8b81170cf8acaf3ac26d10a6c355489892cbf3f97a40d69103a"),
        "comb-alpha": (0, "5d0abe2e1d6316ad713fff9db6ee8b7d3623a35f106c2d9e246db43f856453b9"),
        "compare": (0, "34490519c5f50abe8f7d3b48d00e784724bdcca16f9f1597a82a704dacc7ac11"),
    },
    "trihex": {
        "validate": (0, "23dcc173f3c3a4de00bea150a00f5a44397388a70ceb5211c57d7f976460fc2d"),
        "faces": (0, "e3ed575bd8dde2aba415a7316f96e9c9227db2b4c87b99a9373b4db0de874db4"),
        "curvature": (0, "652fc923aca475dc6d23124124b162ea01290bfe1e28bebaa4f1aede0bbea1b4"),
        "gauss-bonnet": (0, "dbd8930d9a23137af582b41278c8bcdba074cb121aa0374d44c1a1619c142d67"),
        "bounds": (0, "233c0451792703bac741e1c992d924a5583211d59f5545cacfff0e1d122b8c73"),
        "alpha": (0, "5128a775e301b51d50084e3cbb6edcf7861aef7d6807e103c77328094c63a349"),
        "comb-alpha": (0, "07d90df07456c57a6243c142e1ecc2aff54fa81b04d81651de078f43adddfb0b"),
        "compare": (0, "79bc204582cba0d15152d46bdbc75da19134fd16c47bf7aa821c4bb5f2b24b84"),
    },
    "tri": {
        "validate": (2, "1a16c746503039932dd4a95c35dea881a71989ecbe4128f73bc19c6b218fc033"),
        "faces": (0, "f0b0930220c85d6a51487d37c3de9e492d646362205a7b41c5777b16903417ec"),
        "curvature": (0, "5067d1f7dc7d9938e5c4390f78d3eed25222e4ecd4199bc231bbb07026665211"),
        "gauss-bonnet": (2, "e60e8a966dbcc0b3783eb7dda2cc9fe6b36267a764832d652128e2749b2c94d8"),
        "bounds": (0, "85f71c591d0d66fb0905784b9c9a90306ebc4055925c7f050e464a02e81d47b2"),
        "alpha": (0, "f85dc034b876989ca7f5c803e0ef865b1ddecf4f93ac681c54a63b095ab2dbfb"),
        "comb-alpha": (0, "5a204416dab2a184fc6e4cc8ef13a3a9f3642acc404b9b1be9d441e5a9ca93a5"),
        "compare": (0, "41cc7524acf15ce2c270f746dae2568c9fcf0b171028831ad1431209a72a5e27"),
    },
    "pq44r2": {
        "validate": (0, "3c6c93785f335f68b04b0d2977017477cde6d2e5d0d22c76c7eab1dc5a2a4731"),
        "faces": (0, "a2883343718cf6ff277454648026a42fe29af37530cfd9e898a8f0fc47eb72b4"),
        "curvature": (0, "2c42bb638027500a3d5411245ad3aebac3b7d4e4d698cf60057098d8d4ad4aab"),
        "gauss-bonnet": (2, "efc83a5a82ca823df204590ee05bc025affe22faa4d9265dcc0679725e590502"),
        "bounds": (0, "f93f93ed85bde1d7568a1b07ce58cfaf79561c0c0f035e64034597888a7d9563"),
        "alpha": (0, "404bbff3af2f349c015c86cd7f321ca2f89ec30cf67cc14592708c4d9fa2f0b9"),
        "comb-alpha": (0, "848a5b26abaa1e8ce85e71e33ea3403d7cc09e3d3e4c8459cf2cde906f964c3a"),
        "compare": (0, "772c05c6476edf3ed28cc6366403d1f36cdfdd3ae26ea15dcea2552b9214bb0c"),
    },
    "pq37r2": {
        "validate": (0, "5e06b75873f2193ba8f4908d64f72f609aa5ab0331523ef18f57998ea41303f1"),
        "faces": (0, "2306a58db055b9286a51c0317d4efef89af1f13671e2982562615772c023bcd5"),
        "curvature": (0, "d27d7badea2fd350f15db0fa61ed6fefdf8a5dca7999a55753ef87d98810dd1d"),
        "gauss-bonnet": (2, "73c4ad6ac2839f5749d3d178dd71d4ef44c1edf6958f1689d70f5c7bbb04ca37"),
        "bounds": (0, "3184175df148303292c3d430d29efb9193e15c2978f615724c990347c40349cf"),
        "alpha": (0, "849f72495583edd191c8cfc96abf3bb0c4fcb91e204753f8b71d98b166a954ef"),
        "comb-alpha": (0, "fdb597e07ffaba121797c2aa1937253286d21f095f6ea583c460a5a6b8535673"),
        "compare": (0, "45d328615128d9b7bbad9979e35e0d6242fc2854bb433e346a862fd7ebb14f66"),
    },
    "tree3r3": {
        "validate": (0, "e3e189c4395b78290d5ccc20b7100933ca62d61effb6124d8b77f0b21aa8453f"),
        "faces": (0, "b68804ac924f980d95862d3e60c267597782222d5d46b1553effe5d1f312a695"),
        "curvature": (0, "8518179262db4d79eebce5766f92cc0b6fcd05f507ecbbf1f0b8e8a4623ba7f3"),
        "gauss-bonnet": (2, "a6fe05957616208365b83858b4371e7dc2010dc63f4b9ce05171b30509f1be92"),
        "bounds": (0, "aa587eef593e3e6615aecf6d3062b7ec35f8ea66ea524090ca23d637dc9e4fea"),
        "alpha": (0, "6aeec7e6f3ddcbeef4b1789ce753ccb65a726654d591df286870a9bc97205e99"),
        "comb-alpha": (0, "c578e398e6ce165ee21e4cc794b3f97d14e4a7749e6970970b15f15061bfd63e"),
        "compare": (0, "2740ca3a9252689fd2039cda4ec48dc485a4ccc7d3d0fafe98abd29db327d449"),
    },
    "gk3": {
        "validate": (0, "8489d19a257e3c27b44ae858ecb718e9757b850df6452bedbf0dd83783cab50c"),
        "faces": (0, "723fcc22269693eab8edba1339aa209470168e1fad87bd7672d2fdb403a9586c"),
        "curvature": (0, "9bbb33e0f9d961b8a4608db842085fd0d0324fb2006d610ff68fed2629e9941c"),
        "gauss-bonnet": (2, "65c5134d004f7a6309f13f543955e020dfc23df345ff9aa0c5ea493bc29a63f8"),
        "bounds": (0, "2bfd72a498585a1dff7ab80c9dcc0bfa44ad53439099c7ad7c6e7d9f45e22635"),
        "alpha": (0, "e5e200b50bb1b75987edd2f2766aaac07106ff27fde10515b173e084da013868"),
        "comb-alpha": (0, "81c41b9cb52b9b946b90016f5a5c9b12b21bea49432d94cfc1c12109bff862d8"),
        "compare": (0, "3ee1738db3c0a224066950ad5dbb66257421e5a08d3b498f79721ca4f8a2fb13"),
    },
    # seeded rational lengths, decimal strings among them (_relength)
    "W5-rational": {
        "validate": (0, "551e8b16fb16689c94a6ea354e7ef5b1eac5e05cc91d566783e4a9bc49760748"),
        "faces": (0, "0d727963d64df4330768a2d73bb460ebef85003729f93d0756cb16df41bfcede"),
        "curvature": (0, "294d752109c147ab78658340c9a3fdd632b6fe8567160a5575c7012576316344"),
        "gauss-bonnet": (0, "36a983c609cf787b26c530d62730a6cae4b93d99b37c8fb84c45ddbe98420930"),
        "bounds": (0, "265b964eaef6ff2da6cfe8126e555a06a603beeece94db5130d2c91f6c8fb83b"),
    },
    "pq44r2-rational": {
        "validate": (0, "3f750885f0113fe1dfb4a69b020e9a122c7fa8bafa94099feeb693c55142bde6"),
        "faces": (0, "0e02c5eb2a3815f1d67b1a303d15bf0f3d78f8166681c6c35d9bcb435c9af77d"),
        "curvature": (0, "316901b6633f61d6094b93be0baaea9cf1b17d9c5d794b04e6f0f9529abb80d6"),
        "gauss-bonnet": (2, "cd5cb75c5ae372f370b1e09b359b230bd84873728d2cad2b830e51e412f24241"),
        "bounds": (0, "528201434a383b02f21362deb8993d6a442f7658eb606ec2aa059ee94dc197be"),
    },
    "netree63": {
        "validate": (0, "cfabcbe7918bce91aa603ef9bc29522b979776ca0a90844ff74941ef03f57fa7"),
        "faces": (0, "534e552b36af8d97e65d73a4cb9106f8cbfc8103a5233110b7063f0aafca150f"),
        "curvature": (0, "6002b4392e6ec96cd09f84608e9ffd28ad6fcfbf887b7b2f14046cbb9ba0710d"),
        "gauss-bonnet": (2, "c0e6c92832aaddeed821091e50178837ff53d27fa0ea77ad291aa395b974d231"),
        "bounds": (0, "39de64e0189635696fb8ecfb35c167deb93a69000d685ac14afc43cee8b8435c"),
        "alpha": (0, "f4bee474f0a11f04f33876771354fc9e813573ef3665b3a2898813b0a11de05b"),
        "comb-alpha": (0, "9eeaa0c9d7f564a6f2c0a7601cf4a8c4c206922bd12e1d5902bdd0803c5c8d53"),
        "compare": (0, "71df2aeed4794f03c778e1d8df13411ef5a1f7ac754644530ff2f3d3cd7e5aef"),
    },
}

_GENERATED = {
    "pq44r2": ["pq", "--p", "4", "--q", "4", "--radius", "2"],
    "pq37r2": ["pq", "--p", "3", "--q", "7", "--radius", "2"],
    "tree3r3": ["tree", "--p", "3", "--radius", "3"],
    "gk3": ["gk", "--k", "3", "--rows", "2", "--cols", "2", "--tree-depth", "2"],
    "netree63": ["netree", "--p", "6", "--depth", "3"],
}


LENGTH_POOL = ["1", "0.25", "3/2", "2", "7/3", "0.2", "5/8", "9/7"]


def _relength(record: dict, seed: str) -> dict:
    rng = random.Random(seed)
    for item in record["edges"]:
        item["length"] = rng.choice(LENGTH_POOL)
    return record


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, record in finite_corpus() + [("tri", TRIANGLE)]:
        paths[name] = root / f"{name}.json"
        save(record, paths[name])
    for name, argv in _GENERATED.items():
        paths[name] = root / f"{name}.json"
        assert main(["gen", *argv, "--output", str(paths[name])]) == 0
    for name in ("W5", "pq44r2"):
        rational = f"{name}-rational"
        paths[rational] = root / f"{rational}.json"
        save(_relength(read(paths[name]), rational), paths[rational])
    return paths


def _reject_constant(token):
    raise ValueError(f"{token} is not standard JSON")


def _reject_float(token):
    raise ValueError(f"{token}: a report holds no float")


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digests_pinned(pinned_inputs, capsys, name):
    capsys.readouterr()
    got = {}
    for command in REPORT_DIGESTS[name]:
        argv = [command, str(pinned_inputs[name])]
        if command in ("bounds", "alpha", "comb-alpha", "compare"):
            argv += ["--budget-edges", "3", "--budget-generators", "2"]
        code = main(argv)
        text = capsys.readouterr().out
        got[command] = (code, hashlib.sha256(text.encode("utf-8")).hexdigest())
        # the canonical writer is json.dumps(sort_keys=True, indent=2); a
        # report is standard JSON, with no NaN or Infinity token
        parsed = json.loads(text, parse_constant=_reject_constant,
                            parse_float=_reject_float)
        assert canonical_json(parsed) + "\n" == text, command
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text, command
    assert got == REPORT_DIGESTS[name]


# sha256 of the witness and gen reports.  ``gk3`` stands for the pinned
# gk3 file; gen runs in an empty directory with a relative --output, since
# its report echoes the path.
WITNESS_DIGESTS = {
    ("--k", "3", "--l", "2"):
        "c61d541b940c069dc554aff1fe7f806144403ecaa33da7562a6e7cf2732ca298",
    ("--k", "3", "--l", "2", "--input", "gk3"):
        "1fb7447145d77e56c2901ab7413de243e7761aa689c25594b118a1912ee6ee52",
    ("--k", "5", "--l", "40"):
        "ccb16c6f06c274369f3326b104068137fdd79ce3a47a5a72d85239cdebb89427",
}
GEN_DIGESTS = {
    "pq44r2": "b5b1891d5b79b70bfb991a9cb4d88fc5301142fbfe606809ee608a1de1ffd838",
    "pq37r2": "19f26e8301ad336dc01d71bd149ba776a93906a23d3bcb4b5c969ec1247085d9",
    "tree3r3": "4744c64ed941c9d55f12010f3f48da488412d750e0797c4fe165ed55f586374f",
    "gk3": "9ca25470219c86c7a8823d59c57d8ea25c8997a3f4be489636ef6747a27f2b70",
    "netree63": "dde54d7ff55dde032516c591f5d675ff563b68d80b059705db2f7654cc9f0d0b",
}


def test_witness_and_gen_digests_pinned(pinned_inputs, tmp_path, monkeypatch, capsys):
    capsys.readouterr()
    got = {}
    for argv in WITNESS_DIGESTS:
        assert main(["witness", *(str(pinned_inputs.get(a, a)) for a in argv)]) == 0
        got[argv] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == WITNESS_DIGESTS
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, argv in _GENERATED.items():
        assert main(["gen", *argv, "--output", f"{name}.json"]) == 0
        got[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == GEN_DIGESTS
