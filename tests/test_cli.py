import json

import pytest

from frontalforge.cli import main
from frontalforge.curve import circle
from frontalforge.normalform import (EdgeNormalForm, ScalarProfile,
                                     SurfaceProfile)


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    one = SurfaceProfile.constant(1.0)
    nf = EdgeNormalForm(circle(1.0, 1.5), ScalarProfile.constant(0.3),
                        one, one)
    scene = {
        "germs": {"circle_edge": {"normal_form": nf.to_json()}},
        "curves": {"ring": {"builtin": "circle",
                            "params": {"radius": 1.0, "span": 1.5}}},
    }
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    path.write_text(json.dumps(scene))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_analyze_catalog(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, rep, _ = run(capsys, "analyze", "--germ", "cuspidal_edge")
    assert code == 0
    assert rep["results"]["singular_components"] >= 1
    # without --out nothing is written
    assert rep["files"] == [] and not any(tmp_path.iterdir())


def test_analyze_unknown_germ(capsys):
    code, _, err = run(capsys, "analyze", "--germ", "nope")
    assert code == 1
    assert "error" in err


def test_normalform_scene(capsys, monkeypatch, tmp_path, scene_path):
    monkeypatch.chdir(tmp_path)
    code, rep, _ = run(capsys, "normalform", "--scene", scene_path,
                       "--germ", "circle_edge")
    assert code == 0
    assert "theta" in json.dumps(rep)
    assert rep["files"] == [] and not any(tmp_path.iterdir())


def test_normalform_straight_crease_fails(capsys):
    # the straight-edged model has zero crease curvature: a legitimate
    # computation failure, not a usage error
    code, _, err = run(capsys, "normalform", "--germ", "cuspidal_edge")
    assert code == 2
    assert "error" in err


def test_isomers(capsys, scene_path):
    code, rep, _ = run(capsys, "isomers", "--scene", scene_path,
                       "--germ", "circle_edge",
                       "--curve-symmetry", "positive",
                       "--metric-symmetry", "symmetry")
    assert code == 0
    assert rep["results"]["congruence_count"] == 1
    assert rep["results"]["congruence_exact"] is True


def test_strip_and_fold(capsys, scene_path, tmp_path):
    code, rep, _ = run(capsys, "strip", "--scene", scene_path,
                       "--germ", "circle_edge", "--out", str(tmp_path))
    assert code == 0
    code, rep, _ = run(capsys, "fold", "--scene", scene_path,
                       "--germ", "circle_edge", "--out", str(tmp_path))
    assert code == 0


def test_strip_determinism(capsys, scene_path, tmp_path):
    reports = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        _, rep, _ = run(capsys, "strip", "--scene", scene_path,
                        "--germ", "circle_edge", "--out", str(out))
        rep.pop("files", None)
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_symmetry_expected_match(capsys):
    code, rep, _ = run(capsys, "symmetry", "--germ", "swallowtail")
    assert code == 0
    assert rep["results"]["expected_match"] is True
    assert rep["results"]["labels"] == ["iii"]


def test_symmetry_mismatch_exit_code(capsys):
    # a tolerance below the detector's residual floor (~1.6e-14) certifies
    # no symmetry, so the found labels cannot match the catalog entry
    code, _, err = run(capsys, "symmetry", "--germ", "cuspidal_edge",
                       "--tol", "1e-300")
    assert code == 3
    assert "!= expected" in err


def test_symmetry_ccr_with_involution(capsys):
    code, rep, _ = run(capsys, "symmetry", "--germ", "ccr_example",
                       "--with-involution")
    assert code == 0
    inv = rep["results"]["findings"][0]["involution"]
    assert inv["sign"] == -1


def test_match_subcommand(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, rep, _ = run(capsys, "match", "--f1", "t^6,t^9",
                       "--f2", "t^2,t^3")
    assert code == 0
    assert rep["results"]["residual_image"] < 1e-6
    assert rep["files"] == [] and not any(tmp_path.iterdir())


def test_proper_subcommand(capsys):
    code, rep, _ = run(capsys, "proper", "--map", "x*sin(1/x)",
                       "--at", "0.0")
    assert code == 0
    assert rep["results"]["verdict"] == "suspected_infinite"


def test_export(capsys, tmp_path):
    code, rep, _ = run(capsys, "export", "--germ", "cuspidal_edge",
                       "--out", str(tmp_path))
    assert code == 0
    objs = list(tmp_path.glob("*.obj"))
    assert objs and objs[0].read_text().startswith("v ")


def test_report_file_written(capsys, tmp_path):
    code, rep, _ = run(capsys, "proper", "--map", "x^3", "--at", "0.0",
                       "--out", str(tmp_path))
    assert code == 0
    files = list(tmp_path.glob("report_*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text())["results"]["verdict"] == rep["results"]["verdict"]


def test_missing_scene_file(capsys):
    code, _, err = run(capsys, "analyze", "--scene", "/nonexistent.json",
                       "--germ", "circle_edge")
    assert code == 1


def test_usage_error(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
