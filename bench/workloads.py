"""The four workloads: seeded inputs, the operation on the program, and the
check of its output against the closed forms in oracles.py.

A workload draws rounds of operations.  Every round holds the same kinds
of operation in the same order; only the seeded parameters differ, so a
run of whole rounds attempts the same mix whatever its seed or length.
Program entry points are looked up through their modules at call time,
so the tracer's wrappers see every call.
"""
from __future__ import annotations

import os

import numpy as np

import frontalforge.curve as ffcurve
import frontalforge.devfold as ffdevfold
import frontalforge.germ as ffgerm
import frontalforge.geom as ffgeom
import frontalforge.isomer as ffisomer
import frontalforge.match as ffmatch
import frontalforge.normalform as ffnf
import frontalforge.numkit as ffnumkit
import frontalforge.symmetry as ffsym
from frontalforge.exprlang import MapDef

import oracles as orc
from oracles import CheckFailure, check_close, check_equal


class Op:
    """One operation: `run()` calls the program, `check(out)` compares its
    output with the oracle, `exprs(out)` lists the expression trees the
    operation built or used (for the tree-size counters)."""

    def __init__(self, kind, run, check, exprs=None, expect_failure=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.exprs = exprs or (lambda out: [])
        self.expect_failure = expect_failure


def _map_exprs(*maps):
    out = []
    for m in maps:
        if isinstance(m, MapDef):
            out.extend(m.components)
    return out


def _germ_exprs(germ):
    return _map_exprs(germ.map, germ.normal_map)


# ------------------------------------------------------------ edge normal forms

HALFWIDTH = 0.15
SPAN = 1.0
ROUNDTRIP_GRID = (3, 3)      # stations x sections
# small grids, so that a 12 s run holds about ten export operations
SURFACE_MESH = (9, 5)        # stations x widths of the exported surface
FOLD_MESH = (9, 5)           # stations x widths of the strip and fold meshes
STRIP_K_GRID = (7, 3)        # stations (ends dropped) x widths for |K|
STRIP_STATIONS = 9           # stations for beta, crease and dual checks
SAMPLE_STATIONS = 33         # admissibility and focal-distance samples


def draw_edge(rng, crease: str) -> dict:
    if crease == "circle":
        cp = {"r": rng.uniform(1.0, 1.5)}
    else:
        cp = {"a": rng.uniform(0.8, 1.2), "b": rng.uniform(0.3, 0.8)}
    return {
        "crease": crease, "crease_params": cp,
        "th0": rng.uniform(0.3, 0.6), "th1": rng.uniform(0.05, 0.15),
        "a": [rng.uniform(0.8, 1.2)] + list(rng.uniform(-0.2, 0.2, 3)),
        "b": [rng.uniform(0.5, 1.0)] + list(rng.uniform(-0.2, 0.2, 3)),
    }


A_TERMS = ((0, 0), (1, 0), (0, 1), (1, 1))
B_TERMS = ((0, 0), (1, 0), (0, 1), (2, 0))
A_SOURCE = "a0 + a1*u + a2*v + a3*u*v"
B_SOURCE = "b0 + b1*u + b2*v + b3*u^2"


def edge_oracle(p: dict) -> orc.EdgeSurface:
    cp = p["crease_params"]
    crease = orc.Circle(cp["r"]) if p["crease"] == "circle" else \
        orc.Helix(cp["a"], cp["b"])
    a = orc.Poly2([(c, i, j) for c, (i, j) in zip(p["a"], A_TERMS)])
    b = orc.Poly2([(c, i, j) for c, (i, j) in zip(p["b"], B_TERMS)])
    return orc.EdgeSurface(crease, p["th0"], p["th1"], a, b)


def edge_normal_form(p: dict):
    cp = p["crease_params"]
    if p["crease"] == "circle":
        crease = ffcurve.circle(cp["r"], SPAN)
    else:
        crease = ffcurve.helix(cp["a"], cp["b"], SPAN)
    theta = ffnf.ScalarProfile.from_expr(
        "th0 + th1*sin(u)", {"th0": p["th0"], "th1": p["th1"]})
    a = ffnf.SurfaceProfile.from_expr(
        A_SOURCE, {f"a{k}": float(c) for k, c in enumerate(p["a"])})
    b = ffnf.SurfaceProfile.from_expr(
        B_SOURCE, {f"b{k}": float(c) for k, c in enumerate(p["b"])})
    return ffnf.EdgeNormalForm(crease, theta, a, b, halfwidth=HALFWIDTH)


def roundtrip_op(p: dict) -> Op:
    ref = edge_oracle(p)

    def run():
        nf = edge_normal_form(p)
        germ = ffnf.from_normal_form(nf)
        ns, nv = ROUNDTRIP_GRID
        nf2 = ffnf.to_normal_form(germ, n_stations=ns, nv=nv)
        invs = [nf2.invariants(float(u)) for u in nf2.station_samples]
        return {"germ": germ, "nf": nf2, "invariants": invs}

    def check(out):
        nf2 = out["nf"]
        ns, nv = ROUNDTRIP_GRID
        us, vs, a_grid = nf2.a.grid
        _, _, b_grid = nf2.b.grid
        check_close("stations", nf2.station_samples,
                    np.linspace(-SPAN, SPAN, ns), 1e-12)
        check_close("sections", vs, np.linspace(-HALFWIDTH, HALFWIDTH, nv),
                    1e-12)
        us = np.asarray(nf2.station_samples)
        check_close("theta", nf2.theta_samples, ref.theta(us), 1e-8)
        check_close("kappa", [i["kappa"] for i in out["invariants"]],
                    ref.crease.kappa(us), 1e-8)
        check_close("tau", [i["tau"] for i in out["invariants"]],
                    ref.crease.tau(us), 1e-8)
        U, V = np.meshgrid(us, vs, indexing="ij")
        check_close("a grid", a_grid, ref.a(U, V), 1e-8)
        check_close("b grid", b_grid, ref.b(U, V), 1e-8)

    return Op(p["crease"], run, check, lambda out: _germ_exprs(out["germ"]))


def _read_obj_vertices(path):
    with open(path) as fh:
        rows = [line.split()[1:] for line in fh if line.startswith("v ")]
    return np.array(rows, dtype=float)


def export_op(p: dict, outdir: str) -> Op:
    ref = edge_oracle(p)

    def run():
        nf = edge_normal_form(p)
        germ = ffnf.from_normal_form(nf)
        us, vs = germ.grid(*SURFACE_MESH)
        mesh = ffdevfold._lattice_mesh(lambda u, v: germ((u, v)), us, vs)
        surface_obj = os.path.join(outdir, "surface.obj")
        ffdevfold.write_obj(mesh, surface_obj)
        iso = ffisomer.isomer_set(nf, SAMPLE_STATIONS)
        strip = ffdevfold.ist(nf, n_check=SAMPLE_STATIONS)
        ku, kv = STRIP_K_GRID
        k_us = strip.stations(ku)[1:-1]
        k_vs = np.linspace(-0.9, 0.9, kv) * strip.halfwidth
        K = [[ffdevfold.gaussian_curvature(strip, float(u), float(v))
              for v in k_vs] for u in k_us]
        st = strip.stations(STRIP_STATIONS)
        betas = [strip.beta(float(u)) for u in st]
        fold = ffdevfold.curved_folding(strip)
        files = []
        for tag, piece in zip(("strip", "dual"), fold.pieces()):
            files.append(os.path.join(outdir, f"fold_{tag}.obj"))
            ffdevfold.write_obj(ffdevfold.strip_mesh(piece, *FOLD_MESH),
                                files[-1])
        files.append(os.path.join(outdir, "fold.obj"))
        fold_mesh = ffdevfold.folding_mesh(fold, *FOLD_MESH)
        ffdevfold.write_obj(fold_mesh, files[-1])
        crease = [fold(float(u), 0.0) for u in st]
        dual_theta = [iso.dual.theta(float(u)) for u in st]
        return {"germ": germ, "mesh": mesh, "surface_obj": surface_obj,
                "K": np.array(K), "stations": st, "betas": np.array(betas),
                "crease": np.array(crease), "dual_theta": np.array(dual_theta),
                "fold_mesh": fold_mesh, "files": files, "isomers": iso}

    def check(out):
        mesh = out["mesh"]
        nu, nv = SURFACE_MESH
        check_close("mesh u", mesh.us, np.linspace(-SPAN, SPAN, nu), 1e-12)
        check_close("mesh v", mesh.vs,
                    np.linspace(-HALFWIDTH, HALFWIDTH, nv), 1e-12)
        U, V = np.meshgrid(mesh.us, mesh.vs, indexing="ij")
        want = ref(U, V).reshape(-1, 3)
        check_close("surface mesh", mesh.vertices, want, 1e-9)
        # OBJ coordinates carry 9 significant digits
        check_close("surface OBJ", _read_obj_vertices(out["surface_obj"])
                    / np.maximum(1.0, np.abs(want)), want
                    / np.maximum(1.0, np.abs(want)), 1e-8)
        check_close("strip K", out["K"], np.zeros_like(out["K"]), 1e-6)
        st = out["stations"]
        betas = out["betas"]
        if not (np.all(betas > 0.0) and np.all(betas < np.pi)):
            raise CheckFailure(f"beta leaves (0, pi): {betas}")
        check_close("cotangent identity", orc.cotangent_residual(
            betas, ref.theta(st), ref.theta_prime(st), ref.crease.kappa(st),
            ref.crease.tau(st)), np.zeros(len(st)), 1e-8)
        check_close("fold crease", out["crease"], ref.crease.point(st), 1e-12)
        check_close("dual theta", out["dual_theta"], -ref.theta(st), 1e-12)
        check_equal("isomer set", [name for name, _ in
                                   out["isomers"].members()],
                    ["base", "dual", "inverse", "inverse_dual"])
        fold_rows = len(_read_obj_vertices(out["files"][-1]))
        check_equal("fold OBJ vertices", fold_rows,
                    out["fold_mesh"].vertices.shape[0])

    return Op(p["crease"], run, check, lambda out: _germ_exprs(out["germ"]))


def edge_round(rng, workload: str, outdir: str):
    ops = []
    for crease in ("circle", "helix"):
        p = draw_edge(rng, crease)
        ops.append(roundtrip_op(p) if workload == "edge_roundtrip"
                   else export_op(p, outdir))
    return ops


# ------------------------------------------------------------ catalog germs

def _signed(rng, lo, hi):
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def draw_sw_example(rng) -> dict:
    """b, c != 0; |b| stays above 0.9, since the detector misses the
    reflection (iii) for |b| below about 0.65 (see README)."""
    return {"b": _signed(rng, 0.9, 1.5), "c": _signed(rng, 0.5, 1.5)}


def draw_ms_edge(rng) -> dict:
    """Coefficients with the parity that forces the reflection (ii):
    a0, b0 even, b2 odd, b3 even in u; b0(0) != 0 rules out the rest.
    |b0(0)| stays at most 1, since the detector misses (ii) for some
    larger ones (see README)."""
    small = lambda: float(rng.uniform(-0.3, 0.3))
    return {
        "a0": orc.Poly2([(small(), 2, 0)]),
        "b0": orc.Poly2([(_signed(rng, 0.5, 1.0), 0, 0), (small(), 2, 0)]),
        "b2": orc.Poly2([(small(), 1, 0), (small(), 3, 0)]),
        "b3": orc.Poly2([(_signed(rng, 0.5, 1.0), 0, 0), (small(), 2, 0),
                         (small(), 0, 1)]),
    }


def catalog_germ(name: str, params: dict | None):
    if name == "ms_edge":
        return ffgerm.catalog(name, **{k: v.source()
                                       for k, v in params.items()})
    return ffgerm.catalog(name, **(params or {}))


def symmetry_op(name: str, params: dict | None = None) -> Op:
    _, _, table = orc.symmetry_entry(name, params)

    def run():
        germ = catalog_germ(name, params)
        findings = ffsym.detect_symmetries(germ, tol=1e-6)
        failures = ffsym.validate_findings(germ, findings)
        return {"germ": germ, "findings": findings, "failures": failures}

    def check(out):
        got = {f.label: f for f in out["findings"]}
        check_equal(f"{name} labels", sorted(got), sorted(s.label for s in table))
        for s in table:
            iso = got[s.label].isometry
            check_close(f"{name} ({s.label}) Q", iso.Q, s.Q, 1e-8)
            check_close(f"{name} ({s.label}) b", iso.b, np.zeros(3), 1e-8)
        check_equal(f"{name} validation failures", out["failures"], [])
        if not orc.closed_under_composition(
                [f.isometry.Q for f in out["findings"]]):
            raise CheckFailure(f"{name}: symmetries not closed under composition")

    return Op(name, run, check, lambda out: _germ_exprs(out["germ"]))


SYMMETRY_GERMS = ("cuspidal_edge", "swallowtail", "cuspidal_cross_cap",
                  "ccr_example")


def symmetry_round(rng):
    ops = [symmetry_op(name) for name in SYMMETRY_GERMS]
    ops.append(symmetry_op("sw_example", draw_sw_example(rng)))
    ops.append(symmetry_op("ms_edge", draw_ms_edge(rng)))
    return ops


# ----------------------------------------------------------- connecting maps

PLANE_SAMPLES = (64, 2048)   # n1 seeds on f1, n2 lift samples of f2
PSI_TOL = 5e-7


def draw_plane_pair(rng, m: int, kind: str) -> orc.PlanePair:
    if kind == "scale":
        return orc.PlanePair(m, kind, c=_signed(rng, 0.5, 0.9))
    if kind == "cubic":
        return orc.PlanePair(m, kind, c=float(rng.uniform(0.1, 0.3)))
    # t^5 into (t^2, t^5) is left out: f1 = (t^10, t^25) is so flat at 0
    # that psi is only good to 1e-7 there and the pair costs twice the rest
    return orc.PlanePair(m, kind, k=int(rng.choice((3, 5))) if m == 3 else 3)


def plane_op(pair: orc.PlanePair) -> Op:
    def run():
        f1 = ffmatch.PlaneMap(MapDef("f1", ("t",), pair.f1_sources()),
                              ffnumkit.Interval(-pair.h1, pair.h1))
        f2 = ffmatch.PlaneMap(MapDef("f2", ("t",), pair.f2_sources()),
                              ffnumkit.Interval(-pair.h2, pair.h2))
        n1, n2 = PLANE_SAMPLES
        return {"f1": f1, "f2": f2,
                "psi": ffmatch.connecting_map(f1, f2, n1=n1, n2=n2)}

    def check(out):
        cm = out["psi"]
        t = np.array([x[0] for x in cm.samples_in])
        check_close(f"plane psi ({pair.kind}, m={pair.m})",
                    [y[0] for y in cm.samples_out], pair.psi(t), PSI_TOL)
        check_equal("plane sign", cm.sign, pair.e)

    return Op(f"plane_{pair.m}", run, check,
              lambda out: _map_exprs(out["f1"].map, out["f2"].map))


#: (germ, label) pairs whose involutions the connecting_map workload draws
INVOLUTION_PAIRS = tuple((name, s.label) for name in
                         ("cuspidal_edge", "swallowtail", "cuspidal_cross_cap")
                         for s in orc.CATALOG_TABLE[name][2])


def involution_op(name: str, label: str, params: dict | None = None,
                  expect_failure: bool = False) -> Op:
    _, _, table = orc.symmetry_entry(name, params)
    sym = next(s for s in table if s.label == label)

    def run():
        germ = catalog_germ(name, params)
        rep = ffsym.connecting_involution(germ, ffgeom.Isometry(sym.Q))
        return {"germ": germ, "report": rep}

    def check(out):
        cm = out["report"]["psi"]
        x = np.array(cm.samples_in)
        want = np.stack(sym.psi(x[:, 0], x[:, 1]), axis=-1)
        check_close(f"{name} ({label}) psi", cm.samples_out, want, PSI_TOL)
        check_equal(f"{name} ({label}) sign", out["report"]["sign"], sym.e)

    return Op(f"involution_{name}", run, check,
              lambda out: _germ_exprs(out["germ"]), expect_failure)


PSI_KINDS = ("scale", "cubic", "power")


def connecting_round(rng, k: int):
    """Round k: the psi kinds and the catalog involution cycle with k, so
    runs of the same length hold the same kinds whatever the seed."""
    ops = [plane_op(draw_plane_pair(rng, 3, PSI_KINDS[k % 3])),
           plane_op(draw_plane_pair(rng, 5, PSI_KINDS[(k + 1) % 3]))]
    name, label = INVOLUTION_PAIRS[k % len(INVOLUTION_PAIRS)]
    ops.append(involution_op(name, label))
    ops.append(involution_op("sw_example", "iii", draw_sw_example(rng)))
    # the polish lands on the wrong sheet along u = 0 (see README)
    ops.append(involution_op("ccr_example", "ii", expect_failure=True))
    return ops


WORKLOADS = ("edge_roundtrip", "edge_export", "symmetry_detect",
             "connecting_map")


def make_round(workload: str, rng, k: int, outdir: str):
    """Round k of a workload, drawing its parameters from rng."""
    if workload in ("edge_roundtrip", "edge_export"):
        return edge_round(rng, workload, outdir)
    if workload == "symmetry_detect":
        return symmetry_round(rng)
    if workload == "connecting_map":
        return connecting_round(rng, k)
    raise KeyError(workload)
