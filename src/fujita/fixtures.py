"""Catalog of worked-example models with expected outputs.

Each fixture is a JSON file in the model-file format the CLI accepts, plus
an `expected` block of exact values; running a fixture recomputes every
declared invariant and compares exactly.  The catalog is append-only and
fixture ids are stable.  `FUJITA_FIXTURE_DIR` overrides the catalog
directory.
"""

from __future__ import annotations

import os
import pathlib
from importlib import resources
from typing import NamedTuple

from . import invariants, modelio, toric
from .errors import RigidityUndecidable, SchemaError
from .modelio import LoadedProblem, parse_rational


class Fixture(NamedTuple):
    id: str
    description: str
    source: str
    problem: LoadedProblem
    expected: dict
    sub_expected: dict


class CheckResult(NamedTuple):
    name: str
    expected: object
    actual: object
    ok: bool


class FixtureReport(NamedTuple):
    fixture_id: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _fixture_dir():
    override = os.environ.get("FUJITA_FIXTURE_DIR")
    if override:
        return pathlib.Path(override)
    return resources.files("fujita") / "fixtures_data"


def _iter_fixture_files(directory):
    """Each catalog file's path, with its JSON value."""
    try:
        entries = sorted(directory.iterdir(), key=lambda p: p.name)
    except OSError as e:
        raise SchemaError(f"cannot read the catalog directory {directory}: {e.strerror or e}") from None
    for entry in entries:
        if entry.name.endswith(".json"):
            yield entry, modelio.decode_json(modelio.read_file(entry), str(entry))


def load_catalog(strict_fan: bool = False) -> dict[str, Fixture]:
    """Load and parse every fixture file, keyed by id.  A SchemaError in a
    file names the file before its JSON path."""
    catalog: dict[str, Fixture] = {}
    for entry, doc in _iter_fixture_files(_fixture_dir()):
        try:
            fid = doc.get("id") if isinstance(doc, dict) else None
            if not isinstance(fid, str):
                raise SchemaError("fixture file without string 'id'")
            if fid in catalog:
                raise SchemaError(f"duplicate fixture id {fid!r}")
            problem = modelio.parse_problem(doc, strict_fan=strict_fan)
            expected = modelio._expect_dict(doc.get("expected", {}), "$.expected")
            for key in ("balanced_toric", "fibration_b"):
                if key in expected and problem.bundle_toric_coeffs is None:
                    raise SchemaError("needs a toric model and a toric_coeffs bundle", f"$.expected.{key}")
            if "fibration_b" in expected and problem.fibration is None:
                raise SchemaError("needs a fibration block", "$.expected.fibration_b")
        except SchemaError as e:
            raise SchemaError(e.message, f"{entry}: {e.path}") from None
        sub_expected = {}
        for sub in doc.get("subvarieties", []):
            if "expected" in sub:
                sub_expected[sub["name"]] = sub["expected"]
        catalog[fid] = Fixture(
            id=fid,
            description=str(doc.get("description", "")),
            source=str(doc.get("source", "")),
            problem=problem,
            expected=expected,
            sub_expected=sub_expected,
        )
    return catalog


def fixture_ids(catalog=None) -> list[str]:
    catalog = catalog if catalog is not None else load_catalog()
    return sorted(catalog)


def run_fixture(fixture: Fixture) -> FixtureReport:
    """Recompute every expected invariant of a fixture and compare exactly."""
    p = fixture.problem
    exp = fixture.expected
    m = p.model.variety
    checks: list[CheckResult] = []

    def add(name, expected, actual):
        checks.append(CheckResult(name, expected, actual, expected == actual))

    if "ns_rank" in exp:
        add("ns_rank", int(exp["ns_rank"]), m.ns_rank)

    res = None
    if {"a", "b", "rigid"} & set(exp):
        res = invariants.b_invariant(m, p.bundle_class)
    if "a" in exp:
        add("a", str(parse_rational(exp["a"], "expected.a")), str(res.fujita.a))
    if "b" in exp:
        add("b", int(exp["b"]), res.b)
    if "rigid" in exp:
        try:
            rigid = invariants.is_rigid_class(m, res.fujita.boundary_class)
        except RigidityUndecidable:
            rigid = None
        add("rigid", bool(exp["rigid"]), rigid)
    if "balanced_toric" in exp:
        add(
            "balanced_toric",
            bool(exp["balanced_toric"]),
            toric.toric_balanced_all_subvarieties(p.model.fan, p.bundle_toric_coeffs),
        )
    if "fibration_b" in exp:
        pair = toric.fibration_b_crosscheck(p.model.fan, p.bundle_toric_coeffs, p.fibration)
        add("fibration_b", [int(x) for x in exp["fibration_b"]], list(pair))

    for name, datum in p.subvarieties:
        sexp = fixture.sub_expected.get(name, {})
        prefix = f"{name}."
        if "ns_rank" in sexp:
            add(prefix + "ns_rank", int(sexp["ns_rank"]), datum.model.ns_rank)
        if {"a", "b"} & set(sexp):
            ay, by = invariants.invariant_pair(datum.model, datum.restricted_bundle)
            if "a" in sexp:
                add(prefix + "a", str(parse_rational(sexp["a"], "expected.a")), str(ay))
            if "b" in sexp:
                add(prefix + "b", int(sexp["b"]), by)
        if "verdict" in sexp:
            verdict = invariants.balanced_verdict(m, p.bundle_class, datum)
            add(prefix + "verdict", str(sexp["verdict"]), verdict.classification.value)

    return FixtureReport(fixture.id, tuple(checks))
