import json

import pytest

from fujita import fixtures

EXPECTED_IDS = {
    "cubic-threefold",
    "x22-lines",
    "bt-cubic-fibration",
    "pgl2-p3",
    "mu-threefold-divisor",
    "toric-no-control",
    "quadric-anticanonical",
    "p2-toric",
    "dp6-toric",
    "f2-hirzebruch",
    "bl1p2-ruling-fibration",
    "p1xp1-o21-fibration",
} | {f"dp{d}-anticanonical" for d in range(1, 10)}


@pytest.fixture(scope="module")
def catalog():
    return fixtures.load_catalog()


def test_catalog_ids_stable(catalog):
    assert set(catalog) == EXPECTED_IDS


def test_every_fixture_passes(catalog):
    for fid in sorted(catalog):
        report = fixtures.run_fixture(catalog[fid])
        bad = [c for c in report.checks if not c.ok]
        assert not bad, (fid, bad)
        assert report.checks, fid


def test_headline_values(catalog):
    def values(fid):
        return {c.name: c.actual for c in fixtures.run_fixture(catalog[fid]).checks}

    cubic = values("cubic-threefold")
    assert cubic["a"] == "2" and cubic["b"] == 1
    assert cubic["line.verdict"] == "weakly_balanced_not_balanced"

    bt = values("bt-cubic-fibration")
    assert bt["b"] == 2
    assert bt["smooth-cubic-fiber.a"] == "1" and bt["smooth-cubic-fiber.b"] == 7
    assert bt["smooth-cubic-fiber.verdict"] == "not_weakly_balanced"

    pgl = values("pgl2-p3")
    assert pgl["b"] == 2 and pgl["plane-section.b"] == 1
    assert pgl["plane-section.verdict"] == "balanced"

    mu = values("mu-threefold-divisor")
    assert mu["a"] == "1"
    assert mu["boundary-divisor-normalization.a"] == "2"

    nc = values("toric-no-control")
    assert nc["ns_rank"] == 5 and nc["nef-threefold.ns_rank"] == 8
    assert nc["b"] == 5 and nc["nef-threefold.b"] == 1
    assert nc["nef-threefold.verdict"] == "balanced"

    x22 = values("x22-lines")
    assert x22["a"] == x22["line.a"] == "2"
    assert x22["b"] == x22["line.b"] == 1


def test_fixture_dir_override(tmp_path, monkeypatch, catalog):
    src = catalog["cubic-threefold"]
    doc = json.loads(
        (fixtures._fixture_dir() / "cubic-threefold.json").read_text(encoding="utf-8")
    )
    (tmp_path / "only.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("FUJITA_FIXTURE_DIR", str(tmp_path))
    small = fixtures.load_catalog()
    assert set(small) == {"cubic-threefold"}
    assert fixtures.run_fixture(small["cubic-threefold"]).passed
    assert small["cubic-threefold"].description == src.description
