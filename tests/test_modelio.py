import json
import time
from fractions import Fraction

import pytest

from fujita import modelio
from fujita.errors import SchemaError
from fujita.qlinalg import VecQ


BASE = {
    "model": {
        "kind": "lattice",
        "rank": 2,
        "canonical": ["-3", 1],
        "effective_generators": [[0, 1], [1, -1]],
    },
    "line_bundle": [2, -1],
}


def test_parse_basic_lattice():
    p = modelio.parse_problem(BASE)
    assert p.model.variety.ns_rank == 2
    assert p.bundle_class == VecQ([2, -1])
    assert p.model.variety.canonical == VecQ([Fraction(-3), 1])


def test_rational_string_forms():
    assert modelio.parse_rational("7/3", "$") == Fraction(7, 3)
    assert modelio.parse_rational("3/6", "$") == Fraction(1, 2)
    assert modelio.parse_rational(-4, "$") == -4
    with pytest.raises(SchemaError):
        modelio.parse_rational(True, "$")
    with pytest.raises(SchemaError):
        modelio.parse_rational(0.25, "$")
    with pytest.raises(SchemaError):
        modelio.parse_rational("3/0", "$")
    # one grammar, -?[0-9]+(/[0-9]+)?: no exponent, underscore, decimal
    # point or space; "1e1000000" is rejected before 10**1000000 is built,
    # which alone takes a quarter of a second
    for literal in ("1e3", "1_000", "1.5", " 1", "1e1000000"):
        start = time.perf_counter()
        with pytest.raises(SchemaError) as exc:
            modelio.parse_rational(literal, "$.line_bundle[1]")
        assert time.perf_counter() - start < 0.05, literal
        assert exc.value.path == "$.line_bundle[1]", literal


def test_unknown_top_level_key():
    doc = dict(BASE, extra=1)
    with pytest.raises(SchemaError, match="unknown keys"):
        modelio.parse_problem(doc)


def test_missing_keys_report_path():
    with pytest.raises(SchemaError, match=r"\$"):
        modelio.parse_problem({"model": BASE["model"]})


def test_bundle_dimension_checked():
    doc = dict(BASE, line_bundle=[1, 2, 3])
    with pytest.raises(SchemaError, match="line_bundle"):
        modelio.parse_problem(doc)


def test_toric_coeffs_on_lattice_model_rejected():
    doc = dict(BASE, line_bundle={"toric_coeffs": [1, 1]})
    with pytest.raises(SchemaError, match="toric"):
        modelio.parse_problem(doc)


def test_subvariety_not_big_is_schema_error():
    doc = dict(
        BASE,
        subvarieties=[
            {
                "name": "thin",
                "model": {
                    "kind": "lattice",
                    "rank": 1,
                    "canonical": [-2],
                    "effective_generators": [[1]],
                },
                "restricted_bundle": [0],
            }
        ],
    )
    with pytest.raises(SchemaError, match="not big"):
        modelio.parse_problem(doc)


def test_quadric_of_another_degree_is_a_schema_error_at_its_degree():
    quadric = {"kind": "del_pezzo", "degree": 3, "quadric": True}
    with pytest.raises(SchemaError) as top:
        modelio.parse_problem({"model": quadric, "line_bundle": [1, 1]})
    assert top.value.path == "$.model.degree"
    doc = {
        "model": {"kind": "del_pezzo", "degree": 8, "quadric": True},
        "line_bundle": [1, 1],
        "subvarieties": [{"name": "q", "model": quadric, "restricted_bundle": [1, 1]}],
    }
    with pytest.raises(SchemaError) as sub:
        modelio.parse_problem(doc)
    assert sub.value.path == "$.subvarieties[0].model.degree"


def test_load_problem_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "model": }\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="line 2"):
        modelio.load_problem(str(bad))


def test_load_problem_maps_every_decode_failure(tmp_path):
    # an integer past Python's 4300-digit limit, bytes that are not UTF-8
    # and nesting past the recursion limit fail in the decoder itself
    too_long = json.dumps(BASE).replace('"-3"', "-" + "1" * 5001)
    for name, data in (
        ("long.json", too_long.encode()),
        ("latin1.json", '{"name": "caf\xe9"}'.encode("latin-1")),
        ("deep.json", b"[" * 100000 + b"]" * 100000),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(SchemaError, match=f"invalid JSON in .*{name}"):
            modelio.load_problem(str(path))
