import json
import math

import numpy as np
import pytest

from frontalforge.cli import load_scene, main
from frontalforge.curve import circle
from frontalforge.exprlang import MapDef
from frontalforge.germ import CATALOG_NAMES
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


def test_analyze_warns_on_a_type_ii_base(capsys):
    code, rep, _ = run(capsys, "analyze", "--germ", "swallowtail")
    assert code == 0
    assert rep["results"]["limiting_normal_curvature"] is None
    assert rep["warnings"] == [
        "limiting normal curvature: singular image is not regular at the "
        "base point (type II?)"]


def test_analyze_fails_on_a_programming_error(capsys, monkeypatch):
    # only the germ's own failures become warnings; anything else exits 2
    def broken(germ, p=None):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr("frontalforge.cli.limiting_normal_curvature", broken)
    code, rep, err = run(capsys, "analyze", "--germ", "cuspidal_edge")
    assert code == 2 and rep is None
    assert "ZeroDivisionError: float division by zero" in err


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


def test_normalform_extracts_from_a_germ(capsys, monkeypatch, tmp_path):
    # ms_edge defaults to (u, v^2, u^2 + v^3): its crease (u, 0, u^2) is a
    # planar parabola and the cusp opens across its plane
    monkeypatch.chdir(tmp_path)
    code, rep, _ = run(capsys, "normalform", "--germ", "ms_edge")
    assert code == 0
    inv = rep["results"]["invariants"]
    u = np.array([i["u"] for i in inv])
    np.testing.assert_allclose([i["theta"] for i in inv], math.pi / 2,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose([i["kappa_s"] for i in inv], 0.0, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose([i["kappa_nu"] for i in inv],
                               2 / (1 + 4 * u ** 2) ** 1.5, rtol=0,
                               atol=1e-10)
    assert rep["files"] == [] and not any(tmp_path.iterdir())


def test_analyze_map_reports_the_exact_singular_normal(capsys):
    # (v^2, v^3, u) has no analytic normal; the limit of f_u x f_v at the
    # base point on the singular set is exactly (0, 1, 0)
    code, rep, _ = run(capsys, "analyze", "--map", "v^2,v^3,u")
    assert code == 0
    assert rep["results"]["normal_at_base"] == [0.0, 1.0, 0.0]


def test_isomers(capsys, scene_path):
    code, rep, _ = run(capsys, "isomers", "--scene", scene_path,
                       "--germ", "circle_edge",
                       "--curve-symmetry", "positive",
                       "--metric-symmetry", "symmetry")
    assert code == 0
    assert rep["results"]["congruence_count"] == 1
    assert rep["results"]["congruence_exact"] is True


def test_strip_and_fold(capsys, scene_path, tmp_path):
    # unit circle crease, theta = 0.3: kappa = 1, tau = 0, alpha = 0.3 and
    # beta = pi/2, so the ruling is cos(0.3) n + sin(0.3) b
    code, rep, _ = run(capsys, "strip", "--scene", scene_path,
                       "--germ", "circle_edge", "--out", str(tmp_path))
    assert code == 0
    res = rep["results"]
    for row in res["profiles"]:
        for key, want in (("kappa", 1.0), ("tau", 0.0), ("alpha", 0.3),
                          ("beta", math.pi / 2)):
            assert abs(row[key] - want) <= 1e-12, (key, row)
    assert res["max_abs_gaussian_curvature"] < 1e-6
    hw = res["halfwidth"]
    with open(tmp_path / "circle_edge_strip.obj") as fh:
        verts = np.array([ln.split()[1:] for ln in fh if ln.startswith("v ")],
                         dtype=float)
    u, v = (x.ravel() for x in np.meshgrid(np.linspace(-1.5, 1.5, 33),
                                           np.linspace(-hw, hw, 9),
                                           indexing="ij"))
    n = np.column_stack([-np.cos(u), -np.sin(u), 0 * u])
    b = np.array([0.0, 0.0, 1.0])
    want = (np.column_stack([np.cos(u), np.sin(u), 0 * u])
            + v[:, None] * (math.cos(0.3) * n + math.sin(0.3) * b))
    np.testing.assert_allclose(verts, want, rtol=0, atol=1e-8)
    code, rep, _ = run(capsys, "fold", "--scene", scene_path,
                       "--germ", "circle_edge", "--out", str(tmp_path))
    assert code == 0
    assert rep["results"]["crease_residual"] <= 1e-15


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


def test_symmetry_of_a_germ_without_a_type_fails_validation(capsys):
    # a --map germ has no singularity type, which no rule covers
    code, rep, err = run(capsys, "symmetry", "--map", "v^2,v^3,u")
    assert code == 3
    assert rep["results"]["validation_failures"] == [
        "unsupported singularity type None"]
    assert "validation failure: unsupported singularity type None" in err


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


def test_proper_names_a_point_without_a_value(capsys):
    code, rep, err = run(capsys, "proper", "--map", "log(x)", "--at", "-1")
    assert code == 2 and rep is None
    assert "ProbeError: f(-1.0) is not finite" in err


@pytest.mark.parametrize("flags", [("--r0", "-0.5"), ("--r0", "0"),
                                   ("--levels", "0"), ("--grid", "0")])
def test_proper_rejects_bad_windows(capsys, flags):
    code, rep, err = run(capsys, "proper", "--map", "x^2", *flags)
    assert code == 1 and rep is None
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("data, key", [
    ({"germs": {}, "tolerances": {"tol": 1e-8}}, "tolerances"),
    ({"curves": {}, "out_dir": "out"}, "out_dir")])
def test_scene_rejects_unknown_keys(capsys, tmp_path, data, key):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    code, rep, err = run(capsys, "analyze", "--scene", str(path), "--germ",
                         "cuspidal_edge")
    assert code == 1 and rep is None
    assert err.startswith("scene error: ")
    assert repr(key) in err


@pytest.mark.parametrize("text, message", [
    (json.dumps({"germs": {}, "tolerances": {}}), "unknown scene keys"),
    (json.dumps({"germs": {"g": {"catalog": "nope"}}}),
     "unknown catalog germ 'nope'"),
    ('{"germs": ', "scene parse error at line 1"),
    (None, "cannot read scene file"),
], ids=["keys", "reference", "parse", "missing"])
def test_scene_error_names_its_file(capsys, tmp_path, text, message):
    path = tmp_path / "named_scene.json"
    if text is not None:
        path.write_text(text)
    code, rep, err = run(capsys, "analyze", "--scene", str(path), "--germ",
                         "cuspidal_edge")
    assert code == 1 and rep is None
    assert err.startswith(f"scene error: {path}: {message}")


def helix_normal_form():
    """The expression normal form of a helix crease with theta = 0.4 +
    0.1 u and a = b = 1."""
    from frontalforge.curve import helix
    one = SurfaceProfile.constant(1.0)
    return EdgeNormalForm(helix(1.0, 0.4, 1.2),
                          ScalarProfile.from_expr("0.4 + 0.1*u"), one, one)


@pytest.mark.parametrize("data, message", [
    ({"germs": {"g": {"components": ["u", "v^2", "v^3+"]}}},
     "germ 'g': ExprSyntaxError: "),
    ({"germs": {"g": {"normal_form": {
        k: v for k, v in helix_normal_form().to_json().items()
        if k != "theta"}}}},
     "germ 'g': missing key 'theta'"),
    ({"curves": {"c": {"components": ["cos(u)", "sin(u)", "u"]}}},
     "curve 'c': missing key 'domain'"),
], ids=["syntax", "normal_form", "curve"])
def test_scene_entry_errors_name_the_entry(capsys, tmp_path, data, message):
    # entries are built at load time; a failure is a scene error, exit 1
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    code, rep, err = run(capsys, "analyze", "--scene", str(path), "--germ",
                         "cuspidal_edge")
    assert code == 1 and rep is None
    assert err.startswith(f"scene error: {path}: {message}")


@pytest.mark.parametrize("sub", ["analyze", "symmetry"])
def test_germ_commands_realize_a_normal_form_entry(capsys, tmp_path, sub):
    # analyze and symmetry need a surface germ: an expression normal form
    # is realized with from_normal_form, and a sampled one fails naming
    # its non-expression parts
    from frontalforge.normalform import from_normal_form, to_normal_form
    from frontalforge.symmetry import detect_symmetries
    nf = helix_normal_form()
    germ = from_normal_form(nf)
    sampled = to_normal_form(germ, n_stations=17, nv=9)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"germs": {
        "helix_edge": {"normal_form": nf.to_json()},
        "sampled": {"normal_form": sampled.to_json()}}}))
    code, rep, _ = run(capsys, sub, "--scene", str(path), "--germ",
                       "helix_edge")
    assert code == 0
    if sub == "analyze":
        # kappa_nu = kappa sin(theta) at u = 0, with kappa = 1 / 1.16
        assert rep["results"]["singular_components"] == 1
        assert rep["results"]["limiting_normal_curvature"] == pytest.approx(
            math.sin(0.4) / (1.0 + 0.4 ** 2), rel=1e-6)
    else:
        assert rep["results"]["labels"] == sorted(
            f.label for f in detect_symmetries(germ))
    code, rep, err = run(capsys, sub, "--scene", str(path), "--germ",
                         "sampled")
    assert code == 2 and rep is None
    assert err == ("error: NormalFormError: a germ needs an expression "
                   "normal form; not expressions: crease, theta, a, b\n")


def test_export(capsys, tmp_path):
    code, rep, _ = run(capsys, "export", "--germ", "cuspidal_edge",
                       "--out", str(tmp_path))
    assert code == 0
    objs = list(tmp_path.glob("*.obj"))
    assert objs and objs[0].read_text().startswith("v ")


def test_export_meshes_normal_forms_directly(capsys, tmp_path):
    # an expression normal form and a sampled one are meshed by one
    # EdgeNormalForm.evaluate call; the files equal those of the
    # per-point meshes: the expression germ's, and evaluate's per point
    from frontalforge.curve import helix
    from frontalforge.devfold import _lattice_mesh, write_obj
    from frontalforge.normalform import from_normal_form, to_normal_form
    nf = EdgeNormalForm(helix(1.0, 0.4, 1.2),
                        ScalarProfile.from_expr("0.3 + 0.2*sin(u)"),
                        SurfaceProfile.from_expr("1 + 0.1*u + 0.2*v"),
                        SurfaceProfile.from_expr("0.8 - 0.1*u*v"))
    sampled = to_normal_form(from_normal_form(nf), n_stations=17, nv=9)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"germs": {
        "expr": {"normal_form": nf.to_json()},
        "sampled": {"normal_form": sampled.to_json()}}}))
    scene = load_scene(str(path))
    germ = from_normal_form(scene.germ("expr"))
    for name, point in (("expr", lambda u, v: germ((u, v))),
                        ("sampled", scene.germ("sampled").evaluate)):
        code, rep, _ = run(capsys, "export", "--scene", str(path), "--germ",
                           name, "--nu", "17", "--nv", "9",
                           "--out", str(tmp_path))
        assert code == 0 and rep["results"] == {"vertices": 153, "faces": 128}
        us, vs = germ.grid(17, 9)
        write_obj(_lattice_mesh(point, us, vs), tmp_path / "reference.obj")
        assert ((tmp_path / f"{name}_surface.obj").read_bytes()
                == (tmp_path / "reference.obj").read_bytes())


@pytest.mark.parametrize("name", CATALOG_NAMES + ("map",))
def test_export_meshes_a_germ_with_one_points_call(name, capsys, tmp_path,
                                                   monkeypatch):
    # the lattice goes through germ.points in one call; the file equals
    # the per-point mesh of the germ's float path
    from frontalforge.devfold import _lattice_mesh, write_obj
    from frontalforge.germ import SurfaceGerm, catalog
    if name == "map":
        args = ["--map", "u,v^2*exp(u),v^3*sin(u)+cos(v)"]
        germ = SurfaceGerm(MapDef("cli_map", ("u", "v"), (
            "u", "v^2*exp(u)", "v^3*sin(u)+cos(v)")), [[-1, 1], [-1, 1]])
        name = "cli_map"
    else:
        args = ["--germ", name]
        germ = catalog(name)
    points = SurfaceGerm.points
    calls = []

    def counted(self, X):
        calls.append(len(X))
        return points(self, X)

    monkeypatch.setattr(SurfaceGerm, "points", counted)
    code, rep, _ = run(capsys, "export", *args, "--nu", "17", "--nv", "9",
                       "--out", str(tmp_path))
    assert code == 0 and calls == [153]
    us, vs = germ.grid(17, 9)
    write_obj(_lattice_mesh(lambda u, v: germ((u, v)), us, vs),
              tmp_path / "reference.obj")
    assert ((tmp_path / f"{name}_surface.obj").read_bytes()
            == (tmp_path / "reference.obj").read_bytes())


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
