"""The benchmark's span tracer wraps fixed names in the `fujita` modules;
each must still resolve, or every traced benchmark run fails at install.
The benchmark's self-test must pass, so that a changed default-seed
answer, CLI stdout or exit code fails here and not only in a benchmark
run, and so must a short traced run of each in-process workload."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    missing = []
    for layer, names in targets.items():
        home = importlib.import_module(f"fujita.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(home, qual, None))
            if not found:
                missing.append(f"{layer}.{qual}")
    assert not missing, f"tracer targets no longer in fujita: {missing}"


def test_bench_selftest_passes():
    # about 5 s: one default-seed round of every workload, with planted faults
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize("workload", ["toric-polytope", "dp-dual-path"])
def test_traced_worker_run_succeeds(workload):
    # about 1-2 s: the tracer reads names and attributes of the program
    # (`ConeQ._facets` among them) while it runs, which resolving the
    # targets above does not exercise
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["failed"] == 0, out["problems"]
    assert isinstance(out["trace"], dict) and out["trace"]
