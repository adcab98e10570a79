"""Model file parsing.

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

Rationals are integers or strings -?[0-9]+(/[0-9]+)?, never "1e3", "1_000",
"1.5" or " 1", and floats are rejected everywhere.  Schema errors carry the
JSON path of the offending value.  Fixture files are the same format plus
"id", "description", "source", and "expected" blocks, so every fixture is
directly consumable by the CLI.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import delpezzo, toric
from .cones import ConeQ
from .errors import BigFailureOnY, DegreeOutOfRange, InvalidModel, SchemaError
from .invariants import SubvarietyDatum, VarietyModel
from .qlinalg import MatQ, VecQ, as_rat

_FIXTURE_KEYS = {"id", "description", "source", "expected", "name"}
_TOP_KEYS = {"model", "line_bundle", "subvarieties", "fibration"} | _FIXTURE_KEYS


def decode_json(data: bytes, source: str):
    """The JSON value of a model or catalog file.  A file that fails to
    decode (not UTF-8, not JSON at some line and column, an integer past
    Python's 4300-digit limit, too deep) is a SchemaError naming the file."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"invalid JSON in {source}: {e}") from None


def parse_rational(x, path: str) -> Fraction:
    if isinstance(x, float):
        raise SchemaError("floating-point values are forbidden; use 'p/q' strings", path)
    try:
        return as_rat(x)
    except TypeError:
        raise SchemaError(f"expected a rational, got {type(x).__name__}", path) from None
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"not a rational: {x!r}", path) from None


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


def parse_int_matrix(x, path: str, entry=parse_int) -> MatQ:
    """A matrix of `entry` values, integers by default; a row whose length
    differs from row 0 is a schema error at that row's path."""
    rows = [
        [entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(_expect_list(r, f"{path}[{i}]"))]
        for i, r in enumerate(_expect_list(x, path))
    ]
    for i, r in enumerate(rows):
        if len(r) != len(rows[0]):
            raise SchemaError(f"row has {len(r)} entries, row 0 has {len(rows[0])}", f"{path}[{i}]")
    return MatQ(rows)


class LoadedModel(NamedTuple):
    """A parsed model plus whatever extra structure its kind provides."""

    kind: str
    variety: VarietyModel
    fan: toric.Fan | None = None
    surface: delpezzo.DelPezzoModel | None = None


class LoadedProblem(NamedTuple):
    name: str
    model: LoadedModel
    bundle_class: VecQ
    bundle_toric_coeffs: tuple[int, ...] | None
    subvarieties: tuple[tuple[str, SubvarietyDatum], ...]
    fibration: MatQ | None


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
        for i, g in enumerate(gens):
            if g.dim != rank:
                raise SchemaError(
                    f"generator has {g.dim} entries, rank is {rank}",
                    f"{path}.effective_generators[{i}]",
                )
        form = None
        if node.get("intersection_form") is not None:
            form = parse_int_matrix(node["intersection_form"], f"{path}.intersection_form", parse_rational)
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
        if quadric and degree != 8:
            raise SchemaError("the quadric surface has degree 8", f"{path}.degree")
        try:
            surf = delpezzo.quadric_surface() if quadric else delpezzo.del_pezzo(degree)
        except DegreeOutOfRange as e:
            raise SchemaError(str(e), f"{path}.degree") from None
        return LoadedModel("del_pezzo", surf, surface=surf)
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
    )


def read_file(path) -> bytes:
    """The bytes of a model or catalog file; one that cannot be read
    (missing, a directory, no permission) is a SchemaError naming it and
    the reason."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror or e}") from None


def load_problem(path: str, strict_fan: bool = False) -> LoadedProblem:
    return parse_problem(decode_json(read_file(path), path), strict_fan)


def vector_to_str_list(v: VecQ) -> list[str]:
    return [str(x) for x in v]
