"""Versioned catalog of worked-example models with expected outputs.

Each fixture is a JSON file in the model-file format the CLI accepts, plus
an `expected` block of exact values; running a fixture recomputes every
declared invariant and compares exactly.  The catalog is append-only within
a major version and ids are stable.  `FUJITA_FIXTURE_DIR` overrides the
catalog directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources

from . import invariants, modelio, toric
from .errors import RigidityUndecidable, SchemaError, UnknownFixture
from .modelio import LoadedProblem, parse_rational

CATALOG_VERSION = "1"


@dataclass(frozen=True)
class Fixture:
    id: str
    description: str
    source: str
    problem: LoadedProblem
    expected: dict
    sub_expected: dict


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    actual: object
    ok: bool


@dataclass(frozen=True)
class FixtureReport:
    fixture_id: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _fixture_dir():
    override = os.environ.get("FUJITA_FIXTURE_DIR")
    if override:
        return override
    return resources.files("fujita") / "fixtures_data"


def _iter_fixture_files(directory):
    if isinstance(directory, str):
        names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
        for n in names:
            with open(os.path.join(directory, n), "r", encoding="utf-8") as fh:
                yield json.load(fh)
    else:
        for entry in sorted(directory.iterdir(), key=lambda p: p.name):
            if entry.name.endswith(".json"):
                yield json.loads(entry.read_text(encoding="utf-8"))


def load_catalog(directory=None, strict_fan: bool = False) -> dict[str, Fixture]:
    """Load and parse every fixture file, keyed by id."""
    directory = directory if directory is not None else _fixture_dir()
    catalog: dict[str, Fixture] = {}
    for doc in _iter_fixture_files(directory):
        fid = doc.get("id")
        if not isinstance(fid, str):
            raise SchemaError("fixture file without string 'id'")
        if fid in catalog:
            raise SchemaError(f"duplicate fixture id {fid!r}")
        problem = modelio.parse_problem(doc, strict_fan=strict_fan)
        sub_expected = {}
        for sub in doc.get("subvarieties", []):
            if "expected" in sub:
                sub_expected[sub["name"]] = sub["expected"]
        catalog[fid] = Fixture(
            id=fid,
            description=str(doc.get("description", "")),
            source=str(doc.get("source", "")),
            problem=problem,
            expected=doc.get("expected", {}),
            sub_expected=sub_expected,
        )
    return catalog


def fixture_ids(catalog=None) -> list[str]:
    catalog = catalog if catalog is not None else load_catalog()
    return sorted(catalog)


def run_fixture(fixture, catalog=None) -> FixtureReport:
    """Recompute every expected invariant of a fixture and compare exactly."""
    if isinstance(fixture, str):
        catalog = catalog if catalog is not None else load_catalog()
        if fixture not in catalog:
            raise UnknownFixture(fixture)
        fixture = catalog[fixture]
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
