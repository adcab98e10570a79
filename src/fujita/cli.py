"""Command-line front end.

    fujita invariants <file>...     exact a, b, face generators, rigidity
    fujita balanced <file>...       verdict per subvariety datum
    fujita zariski <file>...        Zariski decomposition of the class in "line_bundle"
    fujita fixtures list            catalog listing
    fujita fixtures run [ID...]     pass-fail table

Flags: --json (machine output, byte-for-byte deterministic), --strict-fan
(terminality of each singular cone, |det| at most 2^16; every fan is checked
for exact completeness whatever the flag).  `fixtures list` takes no ids.
FUJITA_FIXTURE_DIR overrides the fixture catalog directory.

Exit codes: 0 ok, 1 fixture failure or stdout closed early (as in
`fujita fixtures run | head`), 2 parse or schema error, 3 bundle not big
(also a class outside the effective cone, which is not big either),
4 canonical class pseudo-effective, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import delpezzo, fixtures, invariants, modelio
from .errors import (
    FujitaError,
    InternalError,
    KPseudoEffective,
    NotBig,
    NotPseudoEffective,
    RigidityUndecidable,
    SchemaError,
)
from .modelio import vector_to_str_list
from .qlinalg import inertia, MatQ

EXIT_OK = 0
EXIT_FIXTURE_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_NOT_BIG = 3
EXIT_K_PSEFF = 4
EXIT_INTERNAL = 5


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _error_payload(exc: Exception) -> tuple[int, dict]:
    if isinstance(exc, SchemaError):
        code, name = EXIT_SCHEMA, "schema_error"
    elif isinstance(exc, KPseudoEffective):
        code, name = EXIT_K_PSEFF, "k_pseudo_effective"
    elif isinstance(exc, NotBig):
        code, name = EXIT_NOT_BIG, "not_big"
    elif isinstance(exc, NotPseudoEffective):
        code, name = EXIT_NOT_BIG, "not_pseudo_effective"
    else:
        code, name = EXIT_INTERNAL, "internal_error"
    return code, {"error": {"code": name, "message": str(exc)}}


def _report_invariants(path: str, strict_fan: bool) -> dict:
    problem = modelio.load_problem(path, strict_fan)
    m = problem.model.variety
    res = invariants.b_invariant(m, problem.bundle_class)
    report = {
        "a": str(res.fujita.a),
        "b": res.b,
        "face_generators": [vector_to_str_list(g) for g in res.face.generator_vectors()],
        "model": problem.name,
        "ns_rank": m.ns_rank,
        "paths": [invariants.b_route(m)],
    }
    if problem.model.kind == "del_pezzo":
        case = delpezzo.surface_b(m, problem.bundle_class)
        if case.b != res.b:
            raise InternalError(
                f"surface case analysis b={case.b} disagrees with {report['paths'][0]} b={res.b}"
            )
        report["paths"].append("surface_case")
        report["surface_case"] = case.case.value
    try:
        report["rigid"] = invariants.is_rigid_class(m, res.fujita.boundary_class)
        report["paths"].append(
            "divisor_polytope" if problem.model.kind == "toric" else "zariski"
        )
    except RigidityUndecidable:
        pass
    return report


def _report_balanced(path: str, strict_fan: bool) -> list:
    problem = modelio.load_problem(path, strict_fan)
    m = problem.model.variety
    out = []
    for name, datum in problem.subvarieties:
        verdict = invariants.balanced_verdict(m, problem.bundle_class, datum)
        out.append(
            {
                "name": name,
                "pair_x": [str(verdict.pair_x[0]), verdict.pair_x[1]],
                "pair_y": [str(verdict.pair_y[0]), verdict.pair_y[1]],
                "verdict": verdict.classification.value,
            }
        )
    return out


def _report_zariski(path: str, strict_fan: bool) -> dict:
    problem = modelio.load_problem(path, strict_fan)
    m = problem.model.variety
    if m.intersection_form is None:
        raise SchemaError(
            "zariski needs a model with an intersection form (del_pezzo or lattice surface)",
            "$.model",
        )
    d = problem.bundle_class
    dec = delpezzo.zariski_for_variety(m, d)
    support = list(dec.negative_support)
    recomposed = dec.positive + dec.negative
    negatives = delpezzo.negative_classes(m)
    gram = MatQ([[m.pair(ci, cj) for cj, _ in support] for ci, _ in support])
    checks = {
        "decomposition_exact": recomposed == d,
        "positive_orthogonal_to_support": all(
            m.pair(dec.positive, c) == 0 for c, _ in support
        ),
        "support_gram_negative_definite": (
            inertia(gram) == (0, len(support), 0) if support else True
        ),
        "positive_nonnegative_on_negative_curves": all(
            m.pair(dec.positive, c) >= 0 for c in negatives
        ),
    }
    return {
        "positive": vector_to_str_list(dec.positive),
        "negative": [
            {"class": vector_to_str_list(c), "mult": str(x)}
            for c, x in support
        ],
        "checks": checks,
        "model": problem.name,
    }


_REPORTERS = {
    "invariants": _report_invariants,
    "balanced": _report_balanced,
    "zariski": _report_zariski,
}


def _process_file(command: str, path: str, strict_fan: bool) -> tuple[int, dict | list]:
    try:
        return EXIT_OK, _REPORTERS[command](path, strict_fan)
    except FujitaError as exc:
        return _error_payload(exc)
    except Exception as exc:  # pragma: no cover - defensive
        return EXIT_INTERNAL, {
            "error": {"code": "internal_error", "message": f"{type(exc).__name__}: {exc}"}
        }


def _emit_human(command: str, path: str, payload) -> None:
    print(f"== {path}")
    if isinstance(payload, dict) and "error" in payload:
        print(f"error ({payload['error']['code']}): {payload['error']['message']}")
        return
    if command == "invariants":
        print(f"a = {payload['a']}")
        print(f"b = {payload['b']}")
        if "rigid" in payload:
            print(f"adjoint class rigid: {payload['rigid']}")
        if payload["face_generators"]:
            print("minimal face generators:")
            for g in payload["face_generators"]:
                print(f"  {g}")
        else:
            print("minimal face: the origin")
        print("paths: " + ", ".join(payload["paths"]))
    elif command == "balanced":
        if not payload:
            print("no subvariety data in file")
        for entry in payload:
            print(
                f"{entry['name']}: X {tuple(entry['pair_x'])} vs Y {tuple(entry['pair_y'])} "
                f"-> {entry['verdict']}"
            )
    elif command == "zariski":
        print(f"positive part: {payload['positive']}")
        if payload["negative"]:
            for item in payload["negative"]:
                print(f"negative: {item['mult']} x {item['class']}")
        else:
            print("negative part: zero")
        for name, ok in sorted(payload["checks"].items()):
            print(f"check {name}: {'ok' if ok else 'FAILED'}")


def _run_files(command: str, paths: list[str], as_json: bool, strict_fan: bool) -> int:
    exit_code = EXIT_OK
    for path in paths:
        code, payload = _process_file(command, path, strict_fan)
        if as_json:
            print(_json_dumps(payload))
        else:
            _emit_human(command, path, payload)
        if exit_code == EXIT_OK:
            exit_code = code
    return exit_code


def _fixture_report(fixture: fixtures.Fixture) -> dict:
    report = fixtures.run_fixture(fixture)
    return {
        "id": report.fixture_id,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "expected": c.expected, "actual": c.actual, "ok": c.ok}
            for c in report.checks
        ],
    }


def _cmd_fixtures(ns) -> int:
    catalog = fixtures.load_catalog(strict_fan=ns.strict_fan)
    if ns.action == "list":
        if ns.json:
            print(
                _json_dumps(
                    [
                        {"id": f.id, "description": f.description}
                        for f in (catalog[i] for i in sorted(catalog))
                    ]
                )
            )
        else:
            for fid in sorted(catalog):
                print(f"{fid}: {catalog[fid].description}")
        return EXIT_OK
    ids = ns.ids or sorted(catalog)
    missing = [i for i in ids if i not in catalog]
    if missing:
        raise SchemaError(f"unknown fixture ids: {', '.join(missing)}")
    reports = [_fixture_report(catalog[fid]) for fid in ids]
    all_passed = all(r["passed"] for r in reports)
    if ns.json:
        print(_json_dumps(reports))
    else:
        for r in reports:
            mark = "PASS" if r["passed"] else "FAIL"
            print(f"{mark} {r['id']}")
            for c in r["checks"]:
                cm = "ok" if c["ok"] else "MISMATCH"
                print(
                    f"    {cm:8s} {c['name']}: expected {c['expected']!r}, got {c['actual']!r}"
                )
    return EXIT_OK if all_passed else EXIT_FIXTURE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fujita",
        description="Exact invariants of polarized varieties with polyhedral effective cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--strict-fan",
            action="store_true",
            help="also check that each singular fan cone is terminal",
        )

    for name, doc in [
        ("invariants", "compute a, b, the minimal face, and rigidity"),
        ("balanced", "balanced verdicts against the file's subvariety data"),
        ("zariski", "Zariski decomposition of the class in 'line_bundle'"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("files", nargs="+", metavar="FILE")
        add_common(p)

    pf = sub.add_parser("fixtures", help="list or run the fixture catalog")
    pf.add_argument("action", choices=["list", "run"])
    pf.add_argument("ids", nargs="*", metavar="ID")
    add_common(pf)
    return parser


def _dispatch(ns) -> int:
    try:
        if ns.command == "fixtures":
            return _cmd_fixtures(ns)
        return _run_files(ns.command, ns.files, ns.json, ns.strict_fan)
    except FujitaError as exc:
        code, payload = _error_payload(exc)
        if getattr(ns, "json", False):
            print(_json_dumps(payload))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "fixtures" and ns.action == "list" and ns.ids:
        parser.error(f"fixtures list takes no ids, got {' '.join(ns.ids)}")
    try:
        code = _dispatch(ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  As the `signal` module documentation
        # recommends, point stdout at devnull so the flush at interpreter exit
        # cannot raise again, and exit with 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
