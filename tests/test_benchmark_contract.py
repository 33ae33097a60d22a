"""The benchmark's traced runs (perfbench/tracing.py) rebind solver names in
facsec's modules and read the partition cache, and its sweep check
(perfbench/worker.py) counts and indexes a sweep's cells; a refactor must keep
all three."""

import importlib
import importlib.util
from pathlib import Path

from facsec import analysis, model

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


def test_sweep_grid_length_and_indexing_match_its_iteration():
    # Sweep.check reads len(cells) and samples cells[t] of each regime_sweep result
    profile = model.FacilityProfile(17.0, (("e1", 20.0), ("e2", 19.0), ("e3", 18.0)))
    grid = analysis.regime_sweep(profile, (0.0, 4.0), (0.0, 4.0), (3, 5))
    cells = list(grid)
    assert len(grid) == len(cells) == 15
    assert [grid[t] for t in range(len(grid))] == cells
