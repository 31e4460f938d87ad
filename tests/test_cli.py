"""CLI behaviour: reports, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from isotess.cli import main
from isotess.interchange import save

from conftest import k4_record, wheel_record


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
    save({
        "vertices": [{"id": 0, "rotation": [0, 2]}, {"id": 1, "rotation": [1, 0]},
                     {"id": 2, "rotation": [2, 1]}],
        "edges": [{"id": 0, "ends": [0, 1], "length": "1"},
                  {"id": 1, "ends": [1, 2], "length": "1"},
                  {"id": 2, "ends": [2, 0], "length": "1"}],
        "unbounded_face_reps": [[0, 0]],
    }, bad)
    assert run(["validate", str(bad)]) == 2
    capsys.readouterr()


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == 4
    missing = tmp_path / "missing.json"
    assert run(["validate", str(missing)]) == 4
    capsys.readouterr()


def test_budget_exhausted_exit_code(tmp_path, capsys):
    graph = tmp_path / "sq.json"
    run(["gen", "pq", "--p", "4", "--q", "4", "--radius", "3",
         "--output", str(graph)])
    assert run(["alpha", str(graph), "--budget-edges", "6",
                "--max-yield", "10"]) == 3
    capsys.readouterr()


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
], ids=["no-rotation", "id-not-int", "no-vertices", "true-degree-not-int",
        "short-face-rep", "three-ends", "no-length"])
def test_malformed_record_exit_code(tmp_path, capsys, mutate):
    record = k4_record()
    mutate(record)
    path = tmp_path / "bad.json"
    save(record, path)
    assert run(["faces", str(path)]) == 4
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["alpha", "g.json", "--budget-edges", "0"],
    ["alpha", "g.json", "--workers", "0"],
    ["alpha", "g.json", "--workers", "-3"],
    ["bounds", "g.json", "--budget-generators", "0"],
    ["comb-alpha", "g.json", "--max-yield", "0"],
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
