"""Smoke test of ``tools/acceptance_set.py``, the byte-identity digest."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "acceptance_set.py"


def _tool():
    spec = importlib.util.spec_from_file_location("acceptance_set", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_digest_repeats():
    tool = _tool()
    runs = tool.runs()
    assert len(runs) == 220
    examples = [r for r in runs
                if r[0] == "analyze" and r[1] in tool.workloads.RELAX_EXAMPLES]
    main = tool.import_program()
    first = tool.digest_lines(main, examples)
    assert len(first) == 5
    assert tool.digest_lines(main, examples) == first
