"""Smoke test of ``tools/sweep_traffic.py``, the sweep timing table."""

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_traffic.py"


def _tool():
    spec = importlib.util.spec_from_file_location("sweep_traffic", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_212_grids_and_sweeps_one():
    tool = _tool()
    grids = tool.grids()
    assert len(grids) == 212
    assert len({(name, tuple(options)) for name, _, options in grids}) == 212
    assert sum(options[-2:] == ["--grid", "41"] for _, _, options in grids) == 106
    cli = sys.modules[tool.import_program().__module__]
    sweep = cli.sweep_levels
    (name, text, options), = [g for g in grids if g[0] == "cross_quadratic"
                              and g[2] == ["--grid", "41"]]
    digest, klass, best = tool.sweep_grid(cli, text, options, 2)
    assert re.fullmatch("[0-9a-f]{16}", digest) and klass == "41^2"
    assert 0 < best < 10
    assert tool.sweep_grid(cli, text, options, 0) == (digest, klass, None)
    assert cli.sweep_levels is sweep
