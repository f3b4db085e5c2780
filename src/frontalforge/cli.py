"""Command-line front end.

Subcommands: analyze, normalform, isomers, strip, fold, symmetry, match,
proper, export.  Inputs come from a JSON scene file and/or direct flags
(--germ for catalog names, --map for expression maps).  Reports are JSON on
stdout with deterministic key order; meshes and tables go to --out.

Exit codes: 0 success, 1 usage error, 2 computation failure, 3 validation
failure (a detected symmetry set violating the classification rules or the
expected catalog table).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import exprlang as ex
from .curve import SpaceCurve, circle, helix
from .germ import (CATALOG_NAMES, GermError, SurfaceGerm, area_density,
                   catalog, limiting_normal_curvature, singular_curve)
from .isomer import (SymmetryPredicates, congruence_count, isomer_set,
                     right_equivalence_classes)
from .devfold import (_grid_mesh, curved_folding, folding_mesh,
                      gaussian_curvature, ist, strip_mesh, write_obj,
                      write_profile_csv)
from .match import PlaneMap, connecting_map, properness_probe
from .normalform import EdgeNormalForm, from_normal_form, to_normal_form
from .numkit import Interval
from .symmetry import (EXPECTED_CATALOG_LABELS, connecting_involution,
                       detect_symmetries, self_intersections,
                       validate_findings, verify_c2)

__all__ = ["main", "load_scene", "Scene", "SceneError"]


class SceneError(Exception):
    pass


class UsageError(Exception):
    pass


class Scene:
    """Named curves and germs loaded from a JSON object with the keys
    "curves" and "germs"; any other key is a SceneError, and so is an
    entry that fails to build.  Each SceneError names the scene's path."""

    def __init__(self, data: dict, path: str = "<inline>"):
        self.path = path
        unknown = sorted(set(data) - {"curves", "germs"})
        if unknown:
            raise self._error(f"unknown scene keys {unknown}")
        self.curves = data.get("curves", {})
        self.germs = data.get("germs", {})
        names = list(self.curves) + list(self.germs)
        if len(set(names)) != len(names):
            raise self._error("scene names must be unique across curves "
                              "and germs")
        # build everything eagerly so bad entries fail at load time, each
        # as a SceneError naming the entry
        for kind, build, entries in (("curve", self.curve, self.curves),
                                     ("germ", self.germ, self.germs)):
            for name in entries:
                try:
                    build(name)
                except SceneError:
                    raise
                except KeyError as err:
                    raise self._error(f"{kind} '{name}': missing key {err}")
                except Exception as err:
                    raise self._error(f"{kind} '{name}': "
                                      f"{type(err).__name__}: {err}")

    def _error(self, msg: str) -> SceneError:
        return SceneError(f"{self.path}: {msg}")

    def curve(self, name: str) -> SpaceCurve:
        try:
            spec = self.curves[name]
        except KeyError:
            raise self._error(f"unresolved curve reference '{name}'")
        if "builtin" in spec:
            builders = {"circle": circle, "helix": helix}
            try:
                builder = builders[spec["builtin"]]
            except KeyError:
                raise self._error(f"unknown builtin curve '{spec['builtin']}'")
            return builder(**spec.get("params", {}))
        m = ex.MapDef(name, (spec.get("variable", "u"),),
                      spec["components"], spec.get("params"))
        return SpaceCurve(m, Interval(*spec["domain"]), name)

    def germ(self, name: str):
        try:
            spec = self.germs[name]
        except KeyError:
            if name in CATALOG_NAMES:
                return catalog(name)
            raise self._error(f"unresolved germ reference '{name}'")
        if "catalog" in spec:
            if spec["catalog"] not in CATALOG_NAMES:
                raise self._error(f"unknown catalog germ '{spec['catalog']}'")
            return catalog(spec["catalog"], **spec.get("params", {}))
        if "normal_form" in spec:
            return EdgeNormalForm.from_json(spec["normal_form"])
        m = ex.MapDef(name, tuple(spec.get("variables", ("u", "v"))),
                      spec["components"], spec.get("params"))
        nm = None
        if "normal" in spec:
            nm = ex.MapDef(name + "_normal", m.variables, spec["normal"],
                           spec.get("params"))
        return SurfaceGerm(m, spec.get("domain", [[-1, 1], [-1, 1]]),
                           base=spec.get("base", (0.0, 0.0)),
                           normal_map=nm, name=name,
                           sing_type=spec.get("sing_type"))


def load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise SceneError(f"{path}: cannot read scene file: {err.strerror}")
    except json.JSONDecodeError as err:
        raise SceneError(f"{path}: scene parse error at line {err.lineno}, "
                         f"column {err.colno}: {err.msg}")
    return Scene(data, path)


# ------------------------------------------------------------------ plumbing

def _resolve_germ(args, scene: Scene | None):
    if getattr(args, "germ", None):
        name = args.germ
        if scene is not None and name in scene.germs:
            return scene.germ(name), name
        if name in CATALOG_NAMES:
            params = json.loads(args.params) if getattr(args, "params", None) else {}
            return catalog(name, **params), name
        raise UsageError(f"unknown germ '{name}' (not in scene or catalog)")
    if getattr(args, "map", None):
        comps = [c.strip() for c in args.map.split(",")]
        if len(comps) != 3:
            raise UsageError("--map needs three comma-separated components")
        m = ex.MapDef("cli_map", ("u", "v"), comps)
        dom = [args.domain, args.domain] if getattr(args, "domain", None) else \
            [[-1, 1], [-1, 1]]
        return SurfaceGerm(m, dom, name="cli_map"), "cli_map"
    raise UsageError("one of --germ or --map is required")


def _resolve_surface(args, scene):
    """The germ as a SurfaceGerm: a normal-form scene entry is realized
    with `from_normal_form`, which raises NormalFormError on a sampled
    one."""
    obj, name = _resolve_germ(args, scene)
    if isinstance(obj, EdgeNormalForm):
        return from_normal_form(obj), name
    return obj, name


def _resolve_edge(args, scene):
    obj, name = _resolve_germ(args, scene)
    if isinstance(obj, EdgeNormalForm):
        return obj, name
    return to_normal_form(obj), name


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    print(text)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"report_{report['subcommand']}.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _base_report(args, sub: str, **inputs) -> dict:
    rep = {"subcommand": sub, "tool": "frontal-forge",
           "version": __version__, "tol": args.tol, "warnings": []}
    rep["inputs"] = {k: v for k, v in inputs.items() if v is not None}
    return rep


def _write_files(args, writers) -> list:
    """Call write(path) for each (file name, write) pair with the path
    under --out, and return the paths; without --out nothing is written."""
    out = getattr(args, "out", None)
    if not out:
        return []
    os.makedirs(out, exist_ok=True)
    paths = []
    for fname, write in writers:
        paths.append(os.path.join(out, fname))
        write(paths[-1])
    return paths


# --------------------------------------------------------------- subcommands

def cmd_analyze(args, scene):
    germ, name = _resolve_surface(args, scene)
    rep = _base_report(args, "analyze", germ=name)
    components = singular_curve(germ, tol=max(args.tol * 1e-6, 1e-14))
    flat = [s for comp in components for s in comp.samples]
    try:
        knu = limiting_normal_curvature(germ)
    except (GermError, ex.ExprError) as err:
        knu = None
        rep["warnings"].append(f"limiting normal curvature: {err}")
    rep["results"] = {
        "singular_components": len(components),
        "singular_samples": len(flat),
        "types": sorted({s.sing_type for s in flat}),
        "limiting_normal_curvature": knu,
        "area_density_at_base": float(area_density(germ)(germ.base)),
        "normal_at_base": [float(c) for c in germ.normal_field(germ.base)],
    }

    def write_csv(path):
        with open(path, "w") as fh:
            fh.write("u,v,x,y,z,type\n")
            for s in flat:
                fh.write("%.12g,%.12g,%.12g,%.12g,%.12g,%s\n"
                         % (s.point[0], s.point[1], s.image[0], s.image[1],
                            s.image[2], s.sing_type))

    rep["files"] = _write_files(args, [(f"{name}_singular.csv", write_csv)])
    _emit(rep, args)
    return 0


def cmd_normalform(args, scene):
    germ, name = _resolve_germ(args, scene)
    rep = _base_report(args, "normalform", germ=name)
    nf = germ if isinstance(germ, EdgeNormalForm) else \
        to_normal_form(germ, tol=min(args.tol, 1e-10))
    us = nf.stations(17)
    inv = nf.invariants(us) | {"u": us}
    rep["results"] = {
        "normal_form": nf.to_json(),
        "invariants": [dict(zip(inv, map(float, row)))
                       for row in zip(*inv.values())],
    }

    def write_json(path):
        with open(path, "w") as fh:
            json.dump(nf.to_json(), fh, sort_keys=True, indent=2)

    rep["files"] = _write_files(args, [(f"{name}_normalform.json", write_json)])
    _emit(rep, args)
    return 0


def cmd_isomers(args, scene):
    nf, name = _resolve_edge(args, scene)
    rep = _base_report(args, "isomers", germ=name)
    iso = isomer_set(nf)
    rep["results"] = iso.report()
    rep["results"]["right_equivalence_classes"] = \
        right_equivalence_classes(iso, tol=args.tol)
    preds = SymmetryPredicates(planar=args.planar,
                               curve_symmetry=args.curve_symmetry,
                               metric_symmetry=args.metric_symmetry)
    count, exact = congruence_count(preds)
    rep["results"]["congruence_count"] = count
    rep["results"]["congruence_exact"] = exact
    _emit(rep, args)
    return 0


def cmd_strip(args, scene):
    nf, name = _resolve_edge(args, scene)
    rep = _base_report(args, "strip", germ=name)
    strip = ist(nf, halfwidth=args.halfwidth)
    us = strip.stations(33)
    vs = np.linspace(-strip.halfwidth, strip.halfwidth, 9)
    maxk = float(np.max(np.abs(gaussian_curvature(strip, us[:, None], vs))))
    prof = strip.profile(strip.stations(17))
    rep["results"] = {
        "halfwidth": strip.halfwidth,
        "max_abs_gaussian_curvature": maxk,
        "developable_within_tol": maxk < args.tol,
        "profiles": [dict(zip(prof, map(float, row)))
                     for row in zip(*prof.values())],
    }
    rep["files"] = _write_files(args, [
        (f"{name}_strip.obj", lambda path: write_obj(strip_mesh(strip), path)),
        (f"{name}_strip_profile.csv",
         lambda path: write_profile_csv(strip, path))])
    _emit(rep, args)
    return 0


def cmd_fold(args, scene):
    nf, name = _resolve_edge(args, scene)
    rep = _base_report(args, "fold", germ=name, split=args.split)
    strip = ist(nf, halfwidth=args.halfwidth)
    fold = curved_folding(strip, split=args.split)
    writers = [(f"{name}_fold_{tag}.obj",
                lambda path, piece=piece: write_obj(strip_mesh(piece), path))
               for tag, piece in zip(("strip", "dual"), fold.pieces())]
    writers.append((f"{name}_fold.obj",
                    lambda path: write_obj(folding_mesh(fold), path)))
    files = _write_files(args, writers)
    us = strip.stations(17)
    crease_err = float(np.max(np.linalg.norm(
        fold(us, 0.0) - strip.crease(us), axis=-1)))
    rep["results"] = {"split": fold.split, "crease_residual": crease_err}
    rep["files"] = files
    _emit(rep, args)
    return 0


def cmd_symmetry(args, scene):
    germ, name = _resolve_surface(args, scene)
    rep = _base_report(args, "symmetry", germ=name)
    findings = detect_symmetries(germ, tol=args.tol)
    failures = validate_findings(germ, findings)
    results = {"findings": [f.to_json() for f in findings],
               "labels": sorted(f.label for f in findings),
               "validation_failures": failures}
    if args.with_involution:
        for f, js in zip(findings, results["findings"]):
            inv = connecting_involution(germ, f.isometry, tol=args.tol)
            js["involution"] = {
                "sign": inv["sign"],
                "involution_residual": inv["involution_residual"],
                "orientation": inv["orientation"],
                "singular_curve_direction": inv["singular_curve_direction"],
            }
    if args.with_locus:
        locus = self_intersections(germ, tol=min(args.tol, 1e-8))
        results["self_intersections"] = locus.to_json()
        if findings and not locus.empty:
            results["c2_report"] = verify_c2(germ, findings[0], locus,
                                             tol=args.tol)
    expected = EXPECTED_CATALOG_LABELS.get(name)
    if expected is not None:
        results["expected_labels"] = sorted(expected)
        results["expected_match"] = sorted(expected) == results["labels"]
    rep["results"] = results
    _emit(rep, args)
    if failures:
        print("validation failure: " + "; ".join(failures), file=sys.stderr)
        return 3
    if expected is not None and not results["expected_match"]:
        print(f"validation failure: labels {results['labels']} != expected "
              f"{sorted(expected)} for '{name}'", file=sys.stderr)
        return 3
    return 0


def _parse_plane_map(src: str, domain) -> PlaneMap:
    comps = [c.strip() for c in src.split(",")]
    if len(comps) != 2:
        raise UsageError("plane maps need two comma-separated components")
    free = set()
    for c in comps:
        free |= ex.free_vars(ex.parse(c))
    free -= {"pi", "e"}
    if len(free) > 1:
        raise UsageError(f"plane map must use one variable, found {sorted(free)}")
    var = free.pop() if free else "t"
    m = ex.MapDef("cli_curve", (var,), comps)
    return PlaneMap(m, Interval(*domain))


def cmd_match(args, scene):
    rep = _base_report(args, "match", f1=args.f1, f2=args.f2)
    dom = args.domain or [-0.5, 0.5]
    if args.f1 and args.f2:
        f1 = _parse_plane_map(args.f1, dom)
        f2 = _parse_plane_map(args.f2, dom)
    else:
        raise UsageError("match needs --f1 and --f2 expression maps")
    cm = connecting_map(f1, f2, tol=args.tol)
    rep["results"] = cm.to_json()
    rep["files"] = _write_files(args, [("connecting_map.csv", cm.write_csv)])
    _emit(rep, args)
    return 0


def cmd_proper(args, scene):
    rep = _base_report(args, "proper", map=args.map, at=args.at)
    e = ex.parse(args.map)
    free = sorted(ex.free_vars(e) - {"pi", "e"})
    if len(free) > 1:
        raise UsageError(f"--map must use one variable, found {free}")
    var = free[0] if free else "x"
    m = ex.MapDef("proper", (var,), [e])
    try:
        probe = properness_probe(lambda xs: m.eval_grid({var: xs})[0],
                                 args.at, r0=args.r0, levels=args.levels,
                                 grid=args.grid)
    except ValueError as err:
        raise UsageError(str(err))
    rep["results"] = probe.to_json()
    _emit(rep, args)
    return 0


def cmd_export(args, scene):
    germ, name = _resolve_germ(args, scene)
    rep = _base_report(args, "export", germ=name)
    if isinstance(germ, EdgeNormalForm):
        us = germ.interval.grid(args.nu)
        vs = Interval(-germ.halfwidth, germ.halfwidth).grid(args.nv)
        mesh = _grid_mesh(us, vs, germ.evaluate(us[:, None], vs))
    else:
        us, vs = germ.grid(args.nu, args.nv)
        uv = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1)
        mesh = _grid_mesh(us, vs, germ.points(uv.reshape(-1, 2)))
    rep["files"] = _write_files(
        args, [(f"{name}_surface.obj", lambda path: write_obj(mesh, path))])
    rep["results"] = {"vertices": int(mesh.vertices.shape[0]),
                      "faces": len(mesh.faces)}
    _emit(rep, args)
    return 0


# -------------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="frontal-forge",
                description="Singular-surface toolkit: cuspidal edge normal "
                            "forms, isomers, developable strips, curved "
                            "foldings, symmetry detection, connecting maps.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, tol):
        sp.add_argument("--scene", help="JSON scene file")
        sp.add_argument("--tol", type=float, default=tol)
        sp.add_argument("--out", help="output directory", default=None)

    def germ_flags(sp):
        sp.add_argument("--germ", help="catalog or scene germ name")
        sp.add_argument("--map", help="three comma-separated components "
                                      "in u, v")
        sp.add_argument("--params", help="JSON catalog parameters")
        sp.add_argument("--domain", type=float, nargs=2, default=None)

    sp = sub.add_parser("analyze", help="singular curve and invariants")
    common(sp, 1e-8); germ_flags(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("normalform", help="edge normal form JSON")
    common(sp, 1e-10); germ_flags(sp)
    sp.set_defaults(fn=cmd_normalform)

    sp = sub.add_parser("isomers", help="isomer set and congruence counts")
    common(sp, 1e-8); germ_flags(sp)
    sp.add_argument("--planar", action="store_true")
    sp.add_argument("--curve-symmetry", default="none",
                    choices=["none", "positive", "negative"])
    sp.add_argument("--metric-symmetry", default="none",
                    choices=["none", "symmetry", "effective_symmetry"])
    sp.set_defaults(fn=cmd_isomers)

    sp = sub.add_parser("strip", help="developable strip from the edge")
    common(sp, 1e-6); germ_flags(sp)
    sp.add_argument("--halfwidth", type=float, default=None)
    sp.set_defaults(fn=cmd_strip)

    sp = sub.add_parser("fold", help="curved folding meshes")
    common(sp, 1e-6); germ_flags(sp)
    sp.add_argument("--halfwidth", type=float, default=None)
    sp.add_argument("--split", default="u", choices=["u", "v"])
    sp.set_defaults(fn=cmd_fold)

    sp = sub.add_parser("symmetry", help="detect extrinsic symmetries")
    common(sp, 1e-6); germ_flags(sp)
    sp.add_argument("--with-involution", action="store_true")
    sp.add_argument("--with-locus", action="store_true")
    sp.set_defaults(fn=cmd_symmetry)

    sp = sub.add_parser("match", help="connecting map between plane maps")
    common(sp, 1e-6)
    sp.add_argument("--f1", help="two comma-separated components")
    sp.add_argument("--f2", help="two comma-separated components")
    sp.add_argument("--domain", type=float, nargs=2, default=None)
    sp.set_defaults(fn=cmd_match)

    sp = sub.add_parser("proper", help="pointwise properness probe")
    common(sp, 1e-6)
    sp.add_argument("--map", required=True, help="scalar expression")
    sp.add_argument("--at", type=float, default=0.0)
    sp.add_argument("--r0", type=float, default=0.5)
    sp.add_argument("--levels", type=int, default=8)
    sp.add_argument("--grid", type=int, default=4096)
    sp.set_defaults(fn=cmd_proper)

    sp = sub.add_parser("export", help="surface mesh OBJ")
    common(sp, 1e-8); germ_flags(sp)
    sp.add_argument("--nu", type=int, default=65)
    sp.add_argument("--nv", type=int, default=33)
    sp.set_defaults(fn=cmd_export)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        scene = load_scene(args.scene) if getattr(args, "scene", None) else None
        return args.fn(args, scene)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SceneError as err:
        print(f"scene error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # module-level computation failures
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
