"""Checks of the benchmark's own parts.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402
from corpus import DEFAULT_SEED, corpus  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_default_corpus_is_the_criterion_7_corpus():
    from switchstat import parse_problem
    from tests.test_acceptance import _random_problem_text

    rng = np.random.default_rng(20260808)
    texts = []
    while len(texts) < 100:
        text = _random_problem_text(rng)
        try:
            parse_problem(text)
        except Exception:
            continue
        texts.append(text)
    assert corpus(DEFAULT_SEED) == texts


def test_other_seeds_change_coefficients_but_not_shapes():
    def shape(text):
        return re.sub(r"\d+\.\d+|(?<![\w^])\d+", "#", text)

    base, other = corpus(DEFAULT_SEED), corpus(7)
    assert other == corpus(7)
    assert [shape(t) for t in other] == [shape(t) for t in base]
    assert sum(a != b for a, b in zip(base, other)) == len(base)


def test_compare_checks_named_keys_within_tolerance():
    want = {"points": [{"x": [0.0, 1.0], "w_index": 1, "classification": "saddle",
                        "strongly_stable": True}]}
    near = json.loads(json.dumps(want))
    near["points"][0]["x"][1] += 1e-9
    assert verdicts.compare("analyze", near, want) == []
    far = json.loads(json.dumps(want))
    far["points"][0]["x"][1] += 1e-7
    assert verdicts.compare("analyze", far, want)
    flipped = json.loads(json.dumps(want))
    flipped["points"][0]["w_index"] = 0
    assert verdicts.compare("analyze", flipped, want)


def test_extract_ignores_other_report_keys():
    report = {
        "points": [{
            "x": [0.0], "classification": "minimizer", "w_index": {"w_index": 0},
            "strong_stability": {"strongly_stable": True}, "new_counter": 3,
        }],
        "summary": {"anything": 1},
    }
    assert verdicts.extract("analyze", report) == {"points": [{
        "x": [0.0], "w_index": 0, "classification": "minimizer",
        "strongly_stable": True,
    }]}


def test_invariants_flag_a_moved_point(tmp_path):
    from switchstat import parse_problem
    from switchstat.cli import main

    text = workloads.RELAX_EXAMPLES["cross_quadratic"]
    src, out = tmp_path / "p.txt", tmp_path / "r.json"
    src.write_text(text)
    assert main(["analyze", str(src), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    problem = parse_problem(text)
    assert report["points"] and verdicts.invariant_failures(report, problem) == []
    report["points"][0]["x"][0] += 1e-3
    assert verdicts.invariant_failures(report, problem)


def test_expected_covers_every_fixed_item():
    expected = json.loads((HERE / "expected.json").read_text())
    for name in workloads.NAMES:
        assert set(expected[name]) == {i.name for i in workloads.items(name)}


def test_import_split_attributes_nested_imports():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |         numpy.linalg",
        "import time:        20 |         50 |       scipy.linalg",
        "import time:        10 |         60 |     scipy",
        "import time:         5 |          5 |     argparse",
        "import time:         7 |        222 |   switchstat",
        "import time:         3 |        225 | switchstat.cli",
    ]
    split = run.import_split("\n".join(lines))
    assert split == pytest.approx({"numpy": 150e-6, "scipy": 60e-6, "switchstat": 15e-6})


def test_tracer_rebinds_every_consumer_and_restores():
    import switchstat.relaxation as relaxation
    import switchstat.stationarity as stationarity

    original = stationarity.newton_solve_branch
    tracer = Tracer()
    tracer.install()
    try:
        assert stationarity.newton_solve_branch is not original
        assert relaxation.newton_solve_branch is stationarity.newton_solve_branch
    finally:
        tracer.uninstall()
    assert stationarity.newton_solve_branch is original
    assert relaxation.newton_solve_branch is original


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ("cli.cmd", 0.0, 10.0, -1, 0),
        ("stationarity.search", 1.0, 7.0, 0, 0),
        ("stationarity.newton", 2.0, 5.0, 1, 0),
        ("cli.render", 8.0, 9.0, 0, 0),
    ]
    s = tracer.summary()
    assert s["self"]["cli.cmd"] == pytest.approx(3.0)
    assert s["self"]["stationarity.search"] == pytest.approx(3.0)
    assert tracer.calls_under("stationarity.newton", "cli.cmd") == 1


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        emitted = {n: u for n, u in table.items() if n not in run.NOT_IN_JSON}
        assert {m["name"]: m["unit"] for m in spec[key]} == emitted
