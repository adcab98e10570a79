"""The benchmark's span tracer wraps fixed names in the `fujita` modules;
each must still resolve, or every traced benchmark run fails at install."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
