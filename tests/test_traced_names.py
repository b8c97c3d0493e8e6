"""Every function the benchmark's tracer wraps still exists in `gaussdeg`.

`bench/tracing.py` looks the layer functions up by name, so deleting or
renaming one would otherwise only show up in a traced benchmark run.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    ("module_name", "qualified"),
    [
        (module_name, qualified)
        for module_name, *functions in _layers().values()
        for qualified in functions
    ],
)
def test_traced_name_resolves(module_name, qualified):
    home = importlib.import_module(f"gaussdeg.{module_name}")
    assert callable(reduce(getattr, qualified.split("."), home))
