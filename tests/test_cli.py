import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import fujita
from fujita import cli, delpezzo, fixtures, toric
from fujita.fixtures import _fixture_dir


def fixture_path(fid):
    return str(_fixture_dir() / f"{fid}.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def fresh_python(probe):
    """stdout of a new interpreter that runs probe with this sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


P2_FAN = {"kind": "toric", "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}


def write(tmp_path, doc, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


class TestInvariantsCommand:
    def test_del_pezzo_three_anticanonical(self, capsys):
        code, out = run_cli(
            capsys, "invariants", fixture_path("dp3-anticanonical"), "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["a"] == "1" and report["b"] == 7 and report["rigid"] is True

    def test_rank_one_lattice(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {
                "model": {
                    "kind": "lattice",
                    "rank": 1,
                    "canonical": [-2],
                    "effective_generators": [[1]],
                },
                "line_bundle": [1],
            },
        )
        code, out = run_cli(capsys, "invariants", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["a"] == "2" and report["b"] == 1
        assert "rigid" not in report  # no rigidity oracle on a bare lattice

    def test_toric_plane(self, capsys):
        code, out = run_cli(capsys, "invariants", fixture_path("p2-toric"), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["a"] == "3" and report["b"] == 1

    def test_human_output(self, capsys):
        code, out = run_cli(capsys, "invariants", fixture_path("dp3-anticanonical"))
        assert code == 0
        assert "a = 1" in out and "b = 7" in out

    def test_deterministic_bytes(self, capsys):
        _, out1 = run_cli(capsys, "invariants", fixture_path("dp6-toric"), "--json")
        _, out2 = run_cli(capsys, "invariants", fixture_path("dp6-toric"), "--json")
        assert out1 == out2

    def test_exit_2_on_schema_error(self, capsys, tmp_path):
        path = write(tmp_path, {"model": {"kind": "nonsense"}, "line_bundle": [1]})
        code, out = run_cli(capsys, "invariants", path, "--json")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "schema_error"

    def test_exit_2_on_float(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {
                "model": {
                    "kind": "lattice",
                    "rank": 1,
                    "canonical": [-1.5],
                    "effective_generators": [[1]],
                },
                "line_bundle": [1],
            },
        )
        code, out = run_cli(capsys, "invariants", path, "--json")
        assert code == 2

    @pytest.mark.parametrize(
        "place, literal, path",
        [
            ("canonical", "-1e0", "$.model.canonical[0]"),
            ("generator", "1_0", "$.model.effective_generators[0][0]"),
            ("bundle", "1e1", "$.line_bundle[0]"),
            ("bundle", "-1.5", "$.line_bundle[0]"),
            ("bundle", " -1 ", "$.line_bundle[0]"),
            ("bundle", "1e1000000", "$.line_bundle[0]"),
        ],
    )
    def test_exit_2_on_a_literal_outside_the_grammar(self, capsys, tmp_path, place, literal, path):
        # each alone loaded before, and "1e1" made a = 1/10 with exit 0
        values = {"canonical": "-1", "generator": "1", "bundle": "1", place: literal}
        model = {
            "kind": "lattice",
            "rank": 1,
            "canonical": [values["canonical"]],
            "effective_generators": [[values["generator"]]],
        }
        code, out = run_cli(
            capsys, "invariants", write(tmp_path, {"model": model, "line_bundle": [values["bundle"]]}), "--json"
        )
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (2, "schema_error")
        assert error["message"] == f"{path}: not a rational: {literal!r}"

    def test_exit_2_on_an_integer_past_the_digit_limit(self, capsys, tmp_path):
        # the JSON decoder's ValueError was an internal error (exit 5)
        model = {"kind": "lattice", "rank": 1, "canonical": [-1], "effective_generators": [[1]]}
        p = tmp_path / "long.json"
        text = json.dumps({"model": model, "line_bundle": [1]})
        p.write_text(text.replace("[-1]", "[-" + "1" * 5001 + "]"), encoding="utf-8")
        code, out = run_cli(capsys, "invariants", str(p), "--json")
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (2, "schema_error")
        assert "4300 digits" in error["message"]

    @pytest.mark.parametrize(
        "case, path",
        [
            ("generator", "$.model.effective_generators[1]"),
            ("form", "$.model.intersection_form[1]"),
            ("projection", "$.fibration.projection[1]"),
        ],
    )
    def test_exit_2_on_ragged_rows(self, capsys, tmp_path, case, path):
        # one row of another length than the rest, in each matrix of the format
        model = {
            "kind": "lattice",
            "rank": 2,
            "canonical": [-1, -1],
            "effective_generators": [[1, 0], [0, 1]],
            "intersection_form": [[0, 1], [1, 0]],
        }
        doc = {"model": model, "line_bundle": [1, 1]}
        if case == "generator":
            model["effective_generators"] = [[1, 0], [0, 1, 0]]
        elif case == "form":
            model["intersection_form"] = [[0, 1], [1]]
        else:
            doc = {
                "model": {
                    "kind": "toric",
                    "rays": [[1, 0], [0, 1], [-1, -1]],
                    "max_cones": [[0, 1], [1, 2], [0, 2]],
                },
                "line_bundle": {"toric_coeffs": [1, 0, 0]},
                "fibration": {"projection": [[1, 0], [0]]},
            }
        code, out = run_cli(capsys, "invariants", write(tmp_path, doc), "--json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "schema_error"
        assert error["message"].startswith(path + ": ")

    @pytest.mark.parametrize("degree", [3, 9])
    def test_exit_2_on_a_quadric_of_another_degree(self, capsys, tmp_path, degree):
        # the quadric surface has degree 8; any other degree is a schema error
        doc = {"model": {"kind": "del_pezzo", "degree": degree, "quadric": True}, "line_bundle": [1, 1]}
        code, out = run_cli(capsys, "invariants", write(tmp_path, doc), "--json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "schema_error"
        assert error["message"] == "$.model.degree: the quadric surface has degree 8"

    @pytest.mark.parametrize("flags", [(), ("--strict-fan",)])
    def test_exit_2_on_overlapping_fan(self, capsys, tmp_path, flags):
        # two cones on the same side of the wall through (0, 1)
        model = {
            "kind": "toric",
            "rays": [[1, 0], [0, 1], [1, 1000], [-1, 0], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
        }
        path = write(tmp_path, {"model": model, "line_bundle": {"toric_coeffs": [1, 0, 0, 1, 1]}})
        code, out = run_cli(capsys, "invariants", path, "--json", *flags)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "schema_error"
        assert error["message"] == "$.model: maximal cones on wall (1,) do not cover both sides"

    def test_exit_2_on_a_strict_fan_cone_over_the_walk_bound(self, capsys, tmp_path):
        # four cones of |det| q: they load, but strict mode walks none of them
        q = toric.TERMINAL_WALK_BOUND + 1
        model = {
            "kind": "toric",
            "rays": [[1, 0, 0], [0, 0, 1], [1, q, 1], [-2, -q, -2]],
            "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        }
        path = write(tmp_path, {"model": model, "line_bundle": {"toric_coeffs": [1, 1, 1, 1]}})
        assert run_cli(capsys, "invariants", path, "--json")[0] == 0
        code, out = run_cli(capsys, "invariants", path, "--json", "--strict-fan")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "schema_error"
        assert error["message"] == f"$.model: cone (0, 1, 2) has |det| {q}, over the walk bound 65536"

    def test_exit_5_when_the_surface_case_disagrees(self, capsys, monkeypatch):
        real = delpezzo.surface
        monkeypatch.setattr(delpezzo, "surface", lambda m, d: real(m, d)._replace(b=8))
        code, out = run_cli(capsys, "invariants", fixture_path("dp3-anticanonical"), "--json")
        assert code == 5
        error = json.loads(out)["error"]
        assert error["code"] == "internal_error"
        assert error["message"] == "surface case analysis b=8 disagrees with polyhedral b=7"

    DP1_PLUS_H = {"model": {"kind": "del_pezzo", "degree": 1}, "line_bundle": [4] + [-1] * 8}

    def test_degree_one_b_from_the_zariski_face(self, tmp_path):
        # L = -K + H on the degree-1 surface: b was tens of seconds of DD
        # for the cone's 19 440 facets; the certified Zariski face needs
        # none.  Timed in a new interpreter, so no cache of this process
        # helps, and the route is named first in `paths`
        path = write(tmp_path, self.DP1_PLUS_H)
        probe = (
            "import contextlib, io, json, time, fujita.cli\n"
            "out = io.StringIO()\n"
            "t0 = time.perf_counter()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = fujita.cli.main(['invariants', '--json', {path!r}])\n"
            "print(json.dumps([code, time.perf_counter() - t0, out.getvalue()]))\n"
        )
        code, elapsed, out = json.loads(fresh_python(probe))
        report = json.loads(out)
        assert code == 0 and elapsed < 1, elapsed
        assert (report["a"], report["b"], report["surface_case"]) == ("3/4", 1, "base_point")
        assert report["paths"] == ["zariski_face", "surface_case", "zariski"]
        assert len(report["face_generators"]) == 8 and report["rigid"] is True

    def test_exit_5_when_the_zariski_face_fails_its_check(self, capsys, tmp_path, monkeypatch):
        # a decomposition with its support dropped: s = -K vanishes nowhere,
        # and the face certificate fails
        real = delpezzo.zariski_for_variety
        monkeypatch.setattr(
            delpezzo, "zariski_for_variety", lambda m, d: real(m, d)._replace(negative_support=())
        )
        code, out = run_cli(capsys, "invariants", write(tmp_path, self.DP1_PLUS_H), "--json")
        assert code == 5
        assert json.loads(out)["error"]["code"] == "internal_error"

    def test_exit_2_on_bad_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        code, out = run_cli(capsys, "invariants", str(p), "--json")
        assert code == 2
        assert "line 1" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"), ("", "Is a directory")])
    def test_exit_2_on_an_unreadable_path(self, capsys, tmp_path, name, reason):
        # the OSError of `open` was an internal error, exit 5
        path = str(tmp_path / name)
        code, out = run_cli(capsys, "invariants", path, "--json")
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (2, "schema_error")
        assert error["message"] == f"$: cannot read {path}: {reason}"

    @pytest.mark.parametrize("command", ["invariants", "balanced", "zariski"])
    @pytest.mark.parametrize(
        "model, bundle, message",
        [
            (
                {"rank": 2, "canonical": [-1, 1], "effective_generators": [[0, 1]],
                 "intersection_form": [[1, 0], [0, -1]]},
                [1, 1],
                "effective cone generators must span Q^2",
            ),
            ({"rank": 0, "canonical": [], "effective_generators": []}, [], "effective cone needs a nonzero generator"),
            (
                {"rank": 2, "canonical": [-1, -1], "effective_generators": [[1, 0], [-1, 0], [0, 1]],
                 "intersection_form": [[1, 0], [0, -1]]},
                [1, 1],
                "effective cone must be strict (no lines)",
            ),
        ],
        ids=["proper-subspace", "rank-0", "non-strict"],
    )
    def test_exit_2_on_a_cone_that_is_not_full_dimensional_and_strict(
        self, capsys, tmp_path, command, model, bundle, message
    ):
        # the first two answered not_big (exit 3), an empty balanced list or
        # a Zariski decomposition (exit 0) before the cone checked its span
        doc = {"model": {"kind": "lattice", **model}, "line_bundle": bundle, "subvarieties": []}
        code, out = run_cli(capsys, command, write(tmp_path, doc), "--json")
        error = json.loads(out)["error"]
        assert (code, error["code"], error["message"]) == (2, "schema_error", f"$.model: {message}")

    def test_exit_3_not_big(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {
                "model": {"kind": "del_pezzo", "degree": 8},
                "line_bundle": [1, -1],
            },
        )
        code, out = run_cli(capsys, "invariants", path, "--json")
        assert code == 3
        assert json.loads(out)["error"]["code"] == "not_big"

    def test_exit_4_k_pseudo_effective(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {
                "model": {
                    "kind": "lattice",
                    "rank": 1,
                    "canonical": [1],
                    "effective_generators": [[1]],
                },
                "line_bundle": [1],
            },
        )
        code, out = run_cli(capsys, "invariants", path, "--json")
        assert code == 4
        assert json.loads(out)["error"]["code"] == "k_pseudo_effective"

    def test_rationals_as_strings(self, capsys, tmp_path):
        # fractional answer stays exact on the wire
        path = write(
            tmp_path,
            {
                "model": {
                    "kind": "lattice",
                    "rank": 1,
                    "canonical": [-2],
                    "effective_generators": [[1]],
                },
                "line_bundle": ["3/5"],
            },
        )
        code, out = run_cli(capsys, "invariants", path, "--json")
        assert code == 0
        assert json.loads(out)["a"] == "10/3"


class TestBalancedCommand:
    def test_cubic_threefold(self, capsys):
        code, out = run_cli(capsys, "balanced", fixture_path("cubic-threefold"), "--json")
        assert code == 0
        entries = json.loads(out)
        assert entries[0]["verdict"] == "weakly_balanced_not_balanced"

    def test_bt_cubic(self, capsys):
        code, out = run_cli(capsys, "balanced", fixture_path("bt-cubic-fibration"), "--json")
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "not_weakly_balanced"

    def test_pgl2(self, capsys):
        code, out = run_cli(capsys, "balanced", fixture_path("pgl2-p3"), "--json")
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "balanced"


class TestZariskiCommand:
    def test_exceptional(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {"model": {"kind": "del_pezzo", "degree": 8}, "line_bundle": [0, 1]},
        )
        code, out = run_cli(capsys, "zariski", path, "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["positive"] == ["0", "0"]
        assert rep["negative"] == [{"class": ["0", "1"], "mult": "1"}]

    def test_nef(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {"model": {"kind": "del_pezzo", "degree": 8}, "line_bundle": [1, -1]},
        )
        code, out = run_cli(capsys, "zariski", path, "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["positive"] == ["1", "-1"] and rep["negative"] == []

    def test_degree6_checks_echoed(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {"model": {"kind": "del_pezzo", "degree": 6}, "line_bundle": [3, 1, -1, -1]},
        )
        code, out = run_cli(capsys, "zariski", path, "--json")
        assert code == 0
        rep = json.loads(out)
        assert all(rep["checks"].values())
        assert rep["negative"]

    def test_toric_rejected(self, capsys):
        code, out = run_cli(capsys, "zariski", fixture_path("p2-toric"), "--json")
        assert code == 2

    @pytest.mark.parametrize("model", [{"degree": 8}, {"degree": 6}])
    def test_exit_3_outside_cone(self, capsys, tmp_path, model):
        # an outside class is not big either; on degree 6 the kernel fails
        # first and the cone is asked after it
        bundle = [-1, 0] if model["degree"] == 8 else [-1, 0, 0, 0]
        path = write(tmp_path, {"model": {"kind": "del_pezzo", **model}, "line_bundle": bundle})
        code, out = run_cli(capsys, "zariski", path, "--json")
        assert code == 3
        assert json.loads(out) == {
            "error": {"code": "not_pseudo_effective", "message": "class is not pseudo-effective"}
        }

    def test_exit_3_outside_cone_human(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {"model": {"kind": "del_pezzo", "degree": 8}, "line_bundle": [-1, 0]},
        )
        code, out = run_cli(capsys, "zariski", path)
        assert code == 3
        assert out == (
            f"== {path}\n"
            "error (not_pseudo_effective): class is not pseudo-effective\n"
        )


CHECKS_OK = [
    "check decomposition_exact: ok",
    "check positive_nonnegative_on_negative_curves: ok",
    "check positive_orthogonal_to_support: ok",
    "check support_gram_negative_definite: ok",
]

# stdout after the "== path" line of each command on a catalog file
HUMAN_OUTPUT = {
    ("invariants", "bl1p2-ruling-fibration"): [
        "a = 2",
        "b = 1",
        "adjoint class rigid: False",
        "minimal face generators:",
        "  ['1', '-1']",
        "  ['1', '-1']",
        "paths: polyhedral, divisor_polytope",
    ],
    ("balanced", "cubic-threefold"): [
        "line: X ('2', 1) vs Y ('2', 1) -> weakly_balanced_not_balanced",
    ],
    ("balanced", "pgl2-p3"): ["plane-section: X ('1', 2) vs Y ('1', 1) -> balanced"],
    ("balanced", "bt-cubic-fibration"): [
        "smooth-cubic-fiber: X ('1', 2) vs Y ('1', 7) -> not_weakly_balanced",
    ],
    ("zariski", "dp3-anticanonical"): [
        "positive part: ['3', '-1', '-1', '-1', '-1', '-1', '-1']",
        "negative part: zero",
        *CHECKS_OK,
    ],
}


class TestHumanOutput:
    @pytest.mark.parametrize("command, fid", sorted(HUMAN_OUTPUT))
    def test_catalog_file(self, capsys, command, fid):
        path = fixture_path(fid)
        code, out = run_cli(capsys, command, path)
        assert code == 0
        assert out == "".join(f"{line}\n" for line in [f"== {path}", *HUMAN_OUTPUT[command, fid]])

    def test_zariski_negative_part(self, capsys, tmp_path):
        path = write(
            tmp_path,
            {"model": {"kind": "del_pezzo", "degree": 6}, "line_bundle": [3, 1, -1, -1]},
        )
        code, out = run_cli(capsys, "zariski", path)
        assert code == 0
        lines = [
            f"== {path}",
            "positive part: ['3', '0', '-1', '-1']",
            "negative: 1 x ['0', '1', '0', '0']",
            *CHECKS_OK,
        ]
        assert out == "".join(f"{line}\n" for line in lines)


class TestFixturesCommand:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "fixtures", "list")
        assert code == 0
        assert "cubic-threefold" in out

    def test_run_single(self, capsys):
        code, out = run_cli(capsys, "fixtures", "run", "cubic-threefold")
        assert code == 0
        assert "PASS cubic-threefold" in out

    def test_run_json(self, capsys):
        code, out = run_cli(capsys, "fixtures", "run", "x22-lines", "--json")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["passed"] is True

    def test_exit_5_when_the_surface_case_disagrees(self, capsys, monkeypatch):
        # `fixtures run` checks the invariants report that the CLI prints,
        # so a surface case analysis whose b is off by one stops it as it
        # stops `invariants`; it passed when the runner computed b itself
        real = delpezzo.surface
        monkeypatch.setattr(delpezzo, "surface", lambda m, d: real(m, d)._replace(b=real(m, d).b + 1))
        code, out = run_cli(capsys, "fixtures", "run", "dp3-anticanonical", "--json")
        assert (code, json.loads(out)) == (
            5,
            {"error": {"code": "internal_error", "message": "surface case analysis b=8 disagrees with polyhedral b=7"}},
        )

    def test_catalog_run_adds_little_peak_memory(self):
        # the whole catalog run in a fresh interpreter adds under 1 MB of
        # peak RSS to the import of the CLI on CPython 3.11 (x86-64 Linux);
        # the degree-1 del Pezzo facets (19 440 of them) would add about 12 MB.
        # A small interpreter starts the probe: Linux carries the peak RSS of
        # the process that starts a program into the program's ru_maxrss, and
        # this test process is far larger than the probe.
        probe = (
            "import os, resource, sys, fujita.cli\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            "code = fujita.cli.main(['fixtures', 'run', '--json'])\n"
            "sys.stdout = sys.__stdout__\n"
            "print(code, peak() - before)\n"
        )
        launcher = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {probe!r}], check=True)"
        code, grown = map(int, fresh_python(launcher).split())
        kib = grown // 1024 if sys.platform == "darwin" else grown  # bytes there
        assert code == 0
        assert kib <= 2048, f"fixtures run --json added {kib} KiB of peak RSS"

    def test_unknown_id(self, capsys):
        # was a bare stderr line, with stdout empty under --json too
        code = cli.main(["fixtures", "run", "nope", "p2-toric", "missing-fixture", "--json"])
        assert (code, *capsys.readouterr()) == (
            2,
            '{"error":{"code":"schema_error","message":"$: unknown fixture ids: nope, missing-fixture"}}\n',
            "",
        )
        code = cli.main(["fixtures", "run", "nope", "p2-toric"])
        assert (code, *capsys.readouterr()) == (2, "", "error: $: unknown fixture ids: nope\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_list_takes_no_ids(self, capsys, flags):
        # the ids were ignored, and the whole catalog listed with exit 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["fixtures", "list", "extra-id", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fixtures list takes no ids, got extra-id" in captured.err

    @pytest.mark.parametrize("text", ['{"id": "x", "model": ', "[1]"])
    def test_exit_2_on_a_malformed_catalog_file(self, capsys, tmp_path, monkeypatch, text):
        # the truncated file was a JSONDecodeError traceback with exit 1, the
        # fixture-failure code, and the array an AttributeError
        (tmp_path / "x.json").write_text(text, encoding="utf-8")
        monkeypatch.setenv("FUJITA_FIXTURE_DIR", str(tmp_path))
        code, out = run_cli(capsys, "fixtures", "list", "--json")
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (2, "schema_error")
        if text.startswith("{"):
            assert f"invalid JSON in {tmp_path / 'x.json'}: Expecting value: line 1" in error["message"]

    @pytest.mark.parametrize(
        "doc, where",
        [
            ([1], "$: fixture file without string 'id'"),
            (
                {"id": "x", "model": {"kind": "del_pezzo", "degree": 3, "rank": 7}, "line_bundle": [3] + [-1] * 6},
                "$.model: unknown keys ['rank']",
            ),
        ],
    )
    def test_a_catalog_schema_error_names_the_file(self, capsys, tmp_path, monkeypatch, doc, where):
        (tmp_path / "x.json").write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setenv("FUJITA_FIXTURE_DIR", str(tmp_path))
        code, out = run_cli(capsys, "fixtures", "list", "--json")
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (2, "schema_error")
        assert error["message"] == f"{tmp_path / 'x.json'}: {where}"

    def test_exit_2_on_an_unreadable_catalog(self, capsys, tmp_path, monkeypatch):
        # a missing catalog directory, and a directory named like a catalog
        # file, were OSError tracebacks with exit 1
        for directory, message in (
            (tmp_path / "missing", f"cannot read the catalog directory {tmp_path / 'missing'}: No such file or directory"),
            (tmp_path, f"cannot read {tmp_path / 'x.json'}: Is a directory"),
        ):
            (tmp_path / "x.json").mkdir(exist_ok=True)
            monkeypatch.setenv("FUJITA_FIXTURE_DIR", str(directory))
            code, out = run_cli(capsys, "fixtures", "list", "--json")
            error = json.loads(out)["error"]
            assert (code, error["code"], error["message"]) == (2, "schema_error", f"$: {message}")

    def test_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        doc = {
            "id": "broken",
            "description": "deliberately wrong expectation",
            "model": {"kind": "del_pezzo", "degree": 9},
            "line_bundle": [3],
            "expected": {"a": "7"},
        }
        (tmp_path / "broken.json").write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setenv("FUJITA_FIXTURE_DIR", str(tmp_path))
        code, out = run_cli(capsys, "fixtures", "run")
        assert code == 1
        assert "MISMATCH" in out

    @pytest.mark.parametrize(
        "model, bundle, expected, where",
        [
            (
                {"kind": "del_pezzo", "degree": 3},
                [3, -1, -1, -1, -1, -1, -1],
                {"balanced_toric": True},
                "$.expected.balanced_toric: needs a toric model and a toric_coeffs bundle",
            ),
            (P2_FAN, {"toric_coeffs": [1, 1, 1]}, {"fibration_b": [1, 2]}, "$.expected.fibration_b: needs a fibration block"),
            (P2_FAN, [3], {"balanced_toric": True}, "$.expected.balanced_toric: needs a toric model and a toric_coeffs bundle"),
            (P2_FAN, [3], {"fibration_b": [1, 2]}, "$.expected.fibration_b: needs a toric model and a toric_coeffs bundle"),
            (P2_FAN, [3], 5, "$.expected: expected an object, got int"),
        ],
        ids=["balanced-toric-on-del-pezzo", "fibration-b-without-fibration", "balanced-toric-on-a-vector",
             "fibration-b-on-a-vector", "not-an-object"],
    )
    def test_exit_2_on_an_expectation_the_fixture_cannot_check(
        self, capsys, tmp_path, monkeypatch, model, bundle, expected, where
    ):
        # each was a traceback with exit 1 from `fixtures run`: an
        # AttributeError on the missing fan or projection, a TypeError on
        # the missing toric coefficients
        doc = {"id": "x", "model": model, "line_bundle": bundle, "expected": expected}
        (tmp_path / "x.json").write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setenv("FUJITA_FIXTURE_DIR", str(tmp_path))
        code, out = run_cli(capsys, "fixtures", "run", "--json")
        error = json.loads(out)["error"]
        assert (code, error["code"], error["message"]) == (2, "schema_error", f"{tmp_path / 'x.json'}: {where}")


class TestBatchMode:
    def test_serial_run_loads_no_process_pool(self):
        # every batch runs in this process: nothing forks, imports
        # multiprocessing or pickles a result
        files = [fixture_path("dp7-anticanonical"), fixture_path("p2-toric")]
        probe = (
            "import contextlib, io, sys\n"
            "from fujita import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(['invariants', *{files!r}, '--json']), cli.main(['fixtures', 'run', '--json'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        assert fresh_python(probe) == "[0, 0] []"

    def test_import_loads_no_dataclasses(self):
        # the records are NamedTuples: dataclasses, with the inspect module
        # it loads, would add to the start-up of every cold fujita process
        probe = (
            "import sys; before = set(sys.modules); import fujita.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        assert fresh_python(probe) == "[]"
        package = pathlib.Path(cli.__file__).parent
        assert [p.name for p in package.glob("*.py") if "dataclass" in p.read_text()] == []

    def test_source_names_no_process_pool(self):
        package = pathlib.Path(cli.__file__).parent
        pool = re.compile(r"multiprocessing|concurrent\.futures|sched_getaffinity")
        assert [p.name for p in package.glob("*.py") if pool.search(p.read_text())] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", fixture_path("p2-toric")],
            ["balanced", fixture_path("pgl2-p3")],
            ["zariski", fixture_path("dp7-anticanonical")],
            ["fixtures", "list"],
            ["fixtures", "run"],
        ],
        ids=["invariants", "balanced", "zariski", "fixtures-list", "fixtures-run"],
    )
    def test_jobs_is_a_usage_error(self, capsys, argv):
        # every batch runs in one process; the option that chose a pool is gone
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--json", "--jobs", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    @pytest.mark.parametrize(
        "kinds, code",
        [(["ok", "schema"], 2), (["not_big", "schema"], 3), (["schema", "not_big"], 2)],
        ids=["ok-schema", "not-big-schema", "schema-not-big"],
    )
    def test_batch_error_code_first_failure(self, capsys, tmp_path, kinds, code):
        # each file prints its line in argument order; the exit code is the
        # first failure's
        files = {
            "ok": (fixture_path("dp7-anticanonical"), None),
            "schema": (write(tmp_path, {"model": {"kind": "nonsense"}, "line_bundle": [1]}, "bad.json"), "schema_error"),
            "not_big": (
                write(tmp_path, {"model": {"kind": "del_pezzo", "degree": 8}, "line_bundle": [1, -1]}, "small.json"),
                "not_big",
            ),
        }
        got, out = run_cli(capsys, "invariants", *(files[k][0] for k in kinds), "--json")
        assert got == code
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line.get("error", {}).get("code") for line in lines] == [files[k][1] for k in kinds]


@pytest.fixture
def count_catalog_loads(monkeypatch):
    calls = []
    real = fixtures.load_catalog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fixtures, "load_catalog", counting)
    return calls


class TestFixturesCatalogLoads:
    def test_serial_run_loads_catalog_once(self, capsys, count_catalog_loads):
        ids = ["cubic-threefold", "p2-toric", "x22-lines"]
        code, out = run_cli(capsys, "fixtures", "run", *ids, "--json")
        assert code == 0
        assert [r["id"] for r in json.loads(out)] == ids
        assert len(count_catalog_loads) == 1


class _BrokenStdout:
    """A stdout whose reader has gone away, as in `fujita ... | head`."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestBrokenPipe:
    def test_exit_without_traceback(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", _BrokenStdout(fh.fileno()))
            code = cli.main(["fixtures", "list"])
        assert code == 1
        assert capsys.readouterr().err == ""


class TestStrictFan:
    def test_strict_flag_accepted(self, capsys):
        code, _ = run_cli(
            capsys, "invariants", fixture_path("pgl2-p3"), "--json", "--strict-fan"
        )
        assert code == 0


def test_bug_guards_survive_optimization():
    # python -O strips assert statements; every bug guard raises InternalError
    found = []
    for path in sorted(pathlib.Path(fujita.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
