"""The benchmark's traced runs (perfbench/tracing.py) rebind solver names in
facsec's modules and read the partition cache; a refactor must keep both."""

import importlib
import importlib.util
from pathlib import Path

from facsec import model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_bound_in_its_module():
    tracing = load_tracing()
    points = tracing.SPAN_POINTS + tracing.COUNT_POINTS
    assert points
    missing = [
        f"facsec.{module}.{name}"
        for module, name, _ in points
        if not hasattr(importlib.import_module(f"facsec.{module}"), name)
    ]
    assert not missing


def test_partition_cache_is_readable():
    info = model.partition_by_cost.cache_info()
    assert info.maxsize is not None
