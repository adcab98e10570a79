"""Model file parsing and serialization.

A model file is a JSON document:

    {
      "model": {"kind": "lattice", "rank": 2, "canonical": ["-3", 1],
                "effective_generators": [[0, 1], [1, -1]],
                "intersection_form": [[1, 0], [0, -1]]}        (form optional)
             | {"kind": "del_pezzo", "degree": 8, "quadric": false}
             | {"kind": "toric", "rays": [[1, 0], ...], "max_cones": [[0, 1], ...]},
      "line_bundle": [rational, ...] | {"toric_coeffs": [int, ...]},
      "subvarieties": [{"name": ..., "model": ..., "restricted_bundle": ...}],
      "fibration": {"projection": [[int, ...], ...]}            (optional)
    }

Rationals are integers or "p/q" strings; floats are rejected everywhere.
Parse errors carry line/column positions from the JSON decoder; schema
errors carry the JSON path of the offending value.  Fixture files are the
same format plus "id", "description", "source", and "expected" blocks, so
every fixture is directly consumable by the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import delpezzo, toric
from .errors import SchemaError
from .invariants import SubvarietyDatum, VarietyModel
from .qlinalg import MatQ, VecQ

_FIXTURE_KEYS = {"id", "description", "source", "expected", "name"}
_TOP_KEYS = {"model", "line_bundle", "subvarieties", "fibration"} | _FIXTURE_KEYS


def parse_rational(x, path: str) -> Fraction:
    if isinstance(x, bool):
        raise SchemaError("expected a rational, got a boolean", path)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise SchemaError("floating-point values are forbidden; use 'p/q' strings", path)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"not a rational: {x!r}", path) from None
    raise SchemaError(f"expected a rational, got {type(x).__name__}", path)


def parse_int(x, path: str) -> int:
    q = parse_rational(x, path)
    if q.denominator != 1:
        raise SchemaError(f"expected an integer, got {q}", path)
    return int(q)


def _expect_list(x, path: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"expected an array, got {type(x).__name__}", path)
    return x


def _expect_dict(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(f"expected an object, got {type(x).__name__}", path)
    return x


def parse_vector(x, path: str) -> VecQ:
    return VecQ([parse_rational(v, f"{path}[{i}]") for i, v in enumerate(_expect_list(x, path))])


def parse_int_matrix(x, path: str) -> MatQ:
    rows = [
        [parse_int(v, f"{path}[{i}][{j}]") for j, v in enumerate(_expect_list(r, f"{path}[{i}]"))]
        for i, r in enumerate(_expect_list(x, path))
    ]
    return MatQ(rows)


@dataclass
class LoadedModel:
    """A parsed model plus whatever extra structure its kind provides."""

    kind: str
    variety: VarietyModel
    fan: toric.Fan | None = None
    surface: delpezzo.DelPezzoModel | None = None


@dataclass
class LoadedProblem:
    name: str
    model: LoadedModel
    bundle_class: VecQ
    bundle_toric_coeffs: tuple[int, ...] | None
    subvarieties: tuple[tuple[str, SubvarietyDatum], ...]
    fibration: MatQ | None
    raw: dict = field(repr=False, default_factory=dict)


def _parse_model(node, path: str, strict_fan: bool = False) -> LoadedModel:
    node = _expect_dict(node, path)
    kind = node.get("kind")
    if kind == "lattice":
        allowed = {"kind", "rank", "canonical", "effective_generators", "intersection_form", "name"}
        _reject_unknown(node, allowed, path)
        rank = parse_int(node.get("rank"), f"{path}.rank")
        canonical = parse_vector(node.get("canonical"), f"{path}.canonical")
        gens = [
            parse_vector(g, f"{path}.effective_generators[{i}]")
            for i, g in enumerate(_expect_list(node.get("effective_generators"), f"{path}.effective_generators"))
        ]
        form = None
        if node.get("intersection_form") is not None:
            rows = [
                parse_vector(r, f"{path}.intersection_form[{i}]")
                for i, r in enumerate(_expect_list(node["intersection_form"], f"{path}.intersection_form"))
            ]
            form = MatQ([r.entries for r in rows])
        from .cones import ConeQ
        from .errors import InvalidModel

        try:
            variety = VarietyModel(
                name=str(node.get("name", "lattice-model")),
                ns_rank=rank,
                canonical=canonical,
                eff_cone=ConeQ(gens, ambient_dim=rank),
                intersection_form=form,
            )
        except InvalidModel as e:
            raise SchemaError(str(e), path) from None
        return LoadedModel("lattice", variety)
    if kind == "del_pezzo":
        _reject_unknown(node, {"kind", "degree", "quadric"}, path)
        degree = parse_int(node.get("degree"), f"{path}.degree")
        quadric = node.get("quadric", False)
        if not isinstance(quadric, bool):
            raise SchemaError("'quadric' must be a boolean", f"{path}.quadric")
        from .errors import DegreeOutOfRange

        try:
            surf = delpezzo.quadric_surface() if quadric else delpezzo.del_pezzo(degree)
        except DegreeOutOfRange as e:
            raise SchemaError(str(e), f"{path}.degree") from None
        return LoadedModel("del_pezzo", surf.variety(), surface=surf)
    if kind == "toric":
        _reject_unknown(node, {"kind", "rays", "max_cones", "smooth"}, path)
        rays = [
            [parse_int(v, f"{path}.rays[{i}][{j}]") for j, v in enumerate(_expect_list(r, f"{path}.rays[{i}]"))]
            for i, r in enumerate(_expect_list(node.get("rays"), f"{path}.rays"))
        ]
        cones = [
            [parse_int(v, f"{path}.max_cones[{i}][{j}]") for j, v in enumerate(_expect_list(c, f"{path}.max_cones[{i}]"))]
            for i, c in enumerate(_expect_list(node.get("max_cones"), f"{path}.max_cones"))
        ]
        smooth = node.get("smooth", False)
        if not isinstance(smooth, bool):
            raise SchemaError("'smooth' must be a boolean", f"{path}.smooth")
        from .errors import InvalidModel

        try:
            fan = toric.Fan(rays, cones, require_smooth=smooth, strict=strict_fan)
        except InvalidModel as e:
            raise SchemaError(str(e), path) from None
        return LoadedModel("toric", toric.variety_model(fan), fan=fan)
    raise SchemaError(
        f"unknown model kind {kind!r} (expected lattice, del_pezzo, or toric)",
        f"{path}.kind",
    )


def _reject_unknown(node: dict, allowed: set, path: str):
    unknown = set(node) - allowed
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}", path)


def _parse_bundle(node, model: LoadedModel, path: str) -> tuple[VecQ, tuple[int, ...] | None]:
    if isinstance(node, dict):
        _reject_unknown(node, {"toric_coeffs"}, path)
        if model.fan is None:
            raise SchemaError("toric_coeffs requires a toric model", path)
        coeffs = [
            parse_int(v, f"{path}.toric_coeffs[{i}]")
            for i, v in enumerate(_expect_list(node.get("toric_coeffs"), f"{path}.toric_coeffs"))
        ]
        if len(coeffs) != len(model.fan.rays):
            raise SchemaError(
                f"expected {len(model.fan.rays)} coefficients, got {len(coeffs)}",
                f"{path}.toric_coeffs",
            )
        cls = toric.ns_presentation(model.fan).divisor_class(coeffs)
        return cls, tuple(coeffs)
    vec = parse_vector(node, path)
    if vec.dim != model.variety.ns_rank:
        raise SchemaError(
            f"bundle has dimension {vec.dim}, model rank is {model.variety.ns_rank}",
            path,
        )
    return vec, None


def parse_problem(doc: dict, strict_fan: bool = False) -> LoadedProblem:
    doc = _expect_dict(doc, "$")
    _reject_unknown(doc, _TOP_KEYS, "$")
    if "model" not in doc:
        raise SchemaError("missing required key 'model'", "$")
    if "line_bundle" not in doc:
        raise SchemaError("missing required key 'line_bundle'", "$")
    model = _parse_model(doc["model"], "$.model", strict_fan)
    bundle, coeffs = _parse_bundle(doc["line_bundle"], model, "$.line_bundle")
    subs = []
    for i, sub in enumerate(_expect_list(doc.get("subvarieties", []), "$.subvarieties")):
        spath = f"$.subvarieties[{i}]"
        sub = _expect_dict(sub, spath)
        _reject_unknown(sub, {"name", "model", "restricted_bundle", "expected"}, spath)
        name = sub.get("name")
        if not isinstance(name, str):
            raise SchemaError("subvariety needs a string 'name'", f"{spath}.name")
        smodel = _parse_model(sub.get("model"), f"{spath}.model", strict_fan)
        sbundle, _ = _parse_bundle(sub.get("restricted_bundle"), smodel, f"{spath}.restricted_bundle")
        from .errors import BigFailureOnY, InvalidModel

        try:
            datum = SubvarietyDatum(name, smodel.variety, sbundle)
        except (BigFailureOnY, InvalidModel) as e:
            raise SchemaError(str(e), spath) from None
        subs.append((name, datum))
    fib = None
    if doc.get("fibration") is not None:
        fnode = _expect_dict(doc["fibration"], "$.fibration")
        _reject_unknown(fnode, {"projection"}, "$.fibration")
        fib = parse_int_matrix(fnode.get("projection"), "$.fibration.projection")
    name = doc.get("name") or doc.get("id") or "model"
    return LoadedProblem(
        name=str(name),
        model=model,
        bundle_class=bundle,
        bundle_toric_coeffs=coeffs,
        subvarieties=tuple(subs),
        fibration=fib,
        raw=doc,
    )


def load_problem(path: str, strict_fan: bool = False) -> LoadedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    return parse_problem(doc, strict_fan)


# -- serialization ----------------------------------------------------------


def rational_to_json(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


def vector_to_json(v: VecQ) -> list:
    return [rational_to_json(x) for x in v]


def vector_to_str_list(v: VecQ) -> list[str]:
    return [str(x) for x in v]


def problem_to_dict(problem: LoadedProblem) -> dict:
    """Re-serialize a loaded problem to the model file format."""
    model = _model_to_dict(problem.model)
    if problem.bundle_toric_coeffs is not None:
        bundle = {"toric_coeffs": list(problem.bundle_toric_coeffs)}
    else:
        bundle = vector_to_json(problem.bundle_class)
    out = {"model": model, "line_bundle": bundle, "name": problem.name}
    if problem.subvarieties:
        out["subvarieties"] = [
            {
                "name": name,
                "model": _model_to_dict(_loaded_from_variety(datum.model)),
                "restricted_bundle": vector_to_json(datum.restricted_bundle),
            }
            for name, datum in problem.subvarieties
        ]
    if problem.fibration is not None:
        out["fibration"] = {
            "projection": [[int(x) for x in row] for row in problem.fibration.row_list()]
        }
    return out


def _loaded_from_variety(variety: VarietyModel) -> LoadedModel:
    from .invariants import DelPezzo, Toric

    prov = variety.provenance
    if isinstance(prov, DelPezzo):
        surf = delpezzo.quadric_surface() if prov.quadric else delpezzo.del_pezzo(prov.degree)
        return LoadedModel("del_pezzo", variety, surface=surf)
    if isinstance(prov, Toric):
        return LoadedModel("toric", variety, fan=prov.fan)
    return LoadedModel("lattice", variety)


def _model_to_dict(model: LoadedModel) -> dict:
    if model.kind == "del_pezzo":
        out = {"kind": "del_pezzo", "degree": model.surface.degree}
        if model.surface.quadric:
            out["quadric"] = True
        return out
    if model.kind == "toric":
        return {
            "kind": "toric",
            "rays": [list(r) for r in model.fan.rays],
            "max_cones": [list(c) for c in model.fan.max_cones],
            "smooth": model.fan.smooth_checked,
        }
    v = model.variety
    out = {
        "kind": "lattice",
        "rank": v.ns_rank,
        "canonical": vector_to_json(v.canonical),
        "effective_generators": [vector_to_json(g) for g in v.eff_cone.generators],
    }
    if v.intersection_form is not None:
        out["intersection_form"] = [
            vector_to_json(r) for r in v.intersection_form.row_list()
        ]
    return out
