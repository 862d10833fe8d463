"""End-to-end CLI behaviour: exit codes, report content, determinism."""

import hashlib
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from switchstat.cli import main, render_json
from switchstat.expr import parse_problem
from switchstat.linalg import ToleranceConfig
from switchstat.stationarity import SolveConfig, config_fields
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)
from tests.test_stationarity import LEVELSETS_3D, MID3

SRC = Path(__file__).resolve().parent.parent / "src"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv, name,
                                   code=2):
    """``argv`` (command first, problem file left out) exits ``code`` naming
    ``name`` before the search starts, and writes no report."""
    from switchstat import cli, stationarity

    def no_search(*args):
        raise AssertionError("the search started")

    for module in (cli, stationarity):
        monkeypatch.setattr(module, "search_stationary_points", no_search)
    src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
    out = tmp_path / "report.json"
    assert main([argv[0], src, *argv[1:], "--json", str(out)]) == code
    assert name in capsys.readouterr().err
    assert not out.exists()


class TestAnalyze:
    def test_relaxation_example_report(self, tmp_path, capsys):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--box", "-2", "2", "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["summary"]["num_points"] == 3
        points = report["points"]
        assert [pt["x"] for pt in points] == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert points[0]["classification"] == "saddle"
        assert points[0]["w_index"]["w_index"] == 1
        assert points[1]["classification"] == "minimizer"
        assert points[2]["classification"] == "minimizer"
        assert all(pt["strong_stability"]["strongly_stable"] for pt in points)
        human = capsys.readouterr().out
        assert "W-stationary points" in human

    def test_instability_report(self, tmp_path):
        src = _write(tmp_path, "p.txt", INSTABILITY_BOTH)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["summary"]["num_points"] == 1
        stab = report["points"][0]["strong_stability"]
        assert stab["strongly_stable"] is False
        assert stab["failure_reason"] == "ND3_FAILS"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        src = _write(tmp_path, "bad.txt", "vars: x\nobjective: x +\n")
        assert main(["analyze", src]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.txt")]) == 2

    def test_pattern_cap_exit_3(self, tmp_path):
        text = "vars: x1 x2\nobjective: x1\n" + "".join(
            f"switch: x1 - {i} | x2 - {i}\n" for i in range(3)
        )
        src = _write(tmp_path, "caps.txt", text)
        assert main(["analyze", src, "--tol", "pattern_cap=10"]) == 3

    def test_tol_override_changes_config_echo(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out, "--tol", "tol_resid=1e-9"]) == 0
        report = json.loads(Path(out).read_text())
        assert report["config"]["tol_resid"] == 1e-9

    def test_unknown_tol_key_exit_2(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        assert main(["analyze", src, "--tol", "bogus=1"]) == 2

    def test_config_record_holds_every_flattened_field(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        names = [f.name for f in fields(SolveConfig) if f.name != "lin"] + [
            f.name for f in fields(ToleranceConfig)
        ]
        config = json.loads(Path(out).read_text())["config"]
        assert sorted(config) == sorted(names)
        assert config == config_fields()

    @pytest.mark.parametrize("key", sorted(config_fields()))
    def test_tol_at_the_default_changes_no_byte(self, tmp_path, key):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        plain, tol = str(tmp_path / "plain.json"), str(tmp_path / "tol.json")
        assert main(["analyze", src, "--json", plain]) == 0
        value = config_fields()[key]
        assert main(["analyze", src, "--json", tol, "--tol", f"{key}={value!r}"]) == 0
        assert Path(tol).read_bytes() == Path(plain).read_bytes()

    @pytest.mark.parametrize("pair", ["lin=1", "grid_points=2.5", "seed=x"])
    def test_tol_key_or_value_outside_the_fields_exit_2(self, tmp_path, capsys, pair):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        assert main(["analyze", src, "--tol", pair]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--tol", "max_halvings=-1"],
         ["analyze", "--tol", "tol_feas=nan"],
         ["analyze", "--tol", "tol_feas=inf"],
         ["analyze", "--tol", "tol_feas=-inf"],
         ["analyze", "--tol", "tol_feas=-1"],
         ["analyze", "--tol", "box_inflation=-0.5"],
         ["analyze", "--tol", "rank_floor=-1e-3"],
         ["analyze", "--tol", "pattern_cap=-1"],
         ["analyze", "--tol", "subset_cap=-1"],
         ["analyze", "--tol", "seed=-2"],
         ["relax", "--box", "-1", "2", "--tol", "match_radius=-1"]],
        ids=" ".join,
    )
    def test_negative_budget_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        key = argv[-1].partition("=")[0]
        _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv, key)

    @pytest.mark.parametrize(
        "argv, name",
        [(["analyze", "--seed", "-1"], "seed"),
         (["levelsets", "--auto", "-3"], "--auto"),
         (["levelsets", "--auto", "8", "--feas-scale", "-1"], "feas_scale"),
         (["levelsets", "--auto", "8", "--feas-scale", "nan"], "feas_scale"),
         (["levelsets", "--levels=nan,1"], "--levels entry 'nan'"),
         (["levelsets", "--levels=1,inf"], "--levels entry 'inf'"),
         (["levelsets", "--levels=-inf,1"], "--levels entry '-inf'")],
        ids=["seed", "auto", "feas-scale-negative", "feas-scale-nan",
             "levels-nan", "levels-inf", "levels-minus-inf"],
    )
    def test_out_of_range_option_exit_2(
        self, tmp_path, capsys, monkeypatch, argv, name
    ):
        _assert_rejected_before_search(tmp_path, capsys, monkeypatch, argv, name)

    def test_rejected_sign_listed(self, tmp_path):
        src = _write(
            tmp_path, "p.txt", "vars: x1 x2\nobjective: x2 + x1^2\nineq: 0 - x2\n"
        )
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["summary"]["num_points"] == 0
        assert report["summary"]["num_rejected_sign"] == 1
        assert report["rejected_sign"][0]["reason"] == "sign condition"

    def test_out_of_scope_stability_without_licq(self, tmp_path):
        src = _write(
            tmp_path,
            "p.txt",
            "vars: x1 x2\nobjective: x1 + x2\nineq: x1 + x2\nswitch: x1 | x2\n",
        )
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        pts = report["points"]
        assert len(pts) == 1
        assert pts[0]["licq"] is False
        assert pts[0]["multipliers"]["unique"] is False
        assert pts[0]["strong_stability"]["out_of_scope"] is True

    def test_subset_cap_is_per_point_out_of_scope(self, tmp_path, capsys):
        # the stability enumeration at the origin needs 2 inequality subsets
        src = _write(
            tmp_path, "p.txt", "vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x2\n"
        )
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out, "--tol", "subset_cap=1"]) == 0
        report = json.loads(Path(out).read_text())
        assert report["summary"]["num_points"] == 1
        pt = report["points"][0]
        assert pt["x"] == [0.0, 0.0]
        assert pt["strong_stability"] == {
            "out_of_scope": True,
            "reason": "2 inequality subsets exceed subset_cap=1",
        }
        assert "subset_cap=1" in capsys.readouterr().out

    def test_pattern_cap_still_exits_3_with_subset_cap(self, tmp_path):
        src = _write(
            tmp_path, "p.txt", "vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x2\n"
        )
        out = str(tmp_path / "report.json")
        code = main(
            ["analyze", src, "--json", out,
             "--tol", "subset_cap=1", "--tol", "pattern_cap=1"]
        )
        assert code == 3
        assert not (tmp_path / "report.json").exists()


class TestRelaxCommand:
    def test_three_paths(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = str(tmp_path / "report.json")
        code = main(
            ["relax", src, "--box", "-1", "2", "--t0", "0.1", "--json", out]
        )
        assert code == 0
        report = json.loads(Path(out).read_text())
        limits = sorted(tuple(path["limit"]) for path in report["paths"])
        assert limits == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
        assert all(path["matched"] is not None for path in report["paths"])
        diag = [p for p in report["paths"] if p["limit"] == [0.0, 0.0]][0]
        assert diag["multiplier_blowup"] is True
        assert not any(p["lost"] for p in report["paths"])

    def test_negative_t0_exit_2(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        assert main(["relax", src, "--t0", "-1"]) == 2

    def test_path_loss_exit_4_with_partial_report(self, tmp_path):
        src = _write(
            tmp_path,
            "p.txt",
            "vars: x1 x2\nobjective: 0 - (x1-1)^2 - (x2-1)^2\nswitch: x1 | x2\n",
        )
        out = str(tmp_path / "report.json")
        code = main(["relax", src, "--t0", "2.0", "--json", out])
        assert code == 4
        report = json.loads(Path(out).read_text())
        lost = [p for p in report["paths"] if p["lost"]]
        assert lost
        assert len(lost[0]["samples"]) >= 2

    def test_schedule_beyond_the_step_cap_exit_3_before_search(
        self, tmp_path, capsys, monkeypatch
    ):
        # about 2e7 steps per path; the count stops at the cap
        _assert_rejected_before_search(
            tmp_path, capsys, monkeypatch, ["relax", "--rho", "0.999999"],
            "exceeds the step cap of 100000 steps", code=3,
        )

    @pytest.mark.parametrize("slack, code", [(0, 0), (-1, 3)])
    def test_step_cap_at_the_default_schedule(self, tmp_path, monkeypatch,
                                              slack, code):
        from switchstat import relaxation

        steps = len(relaxation._schedule(0.1, 0.5, 1e-10)) - 1
        assert steps == 30
        monkeypatch.setattr(relaxation, "_MAX_STEPS", steps + slack)
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = tmp_path / "report.json"
        assert main(["relax", src, "--json", str(out)]) == code
        assert out.exists() is (code == 0)

    def test_no_switches_trivial_paths(self, tmp_path):
        src = _write(tmp_path, "p.txt", "vars: x1\nobjective: (x1-1)^2\n")
        out = str(tmp_path / "report.json")
        assert main(["relax", src, "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        assert len(report["paths"]) == 1
        xs = {tuple(s["x"]) for s in report["paths"][0]["samples"]}
        assert xs == {(1.0,)}


class TestLevelsetsCommand:
    def test_explicit_levels(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        out = str(tmp_path / "report.json")
        code = main(
            ["levelsets", src, "--box", "-2", "2", "--levels=-1,1", "--json", out]
        )
        assert code == 0
        report = json.loads(Path(out).read_text())
        assert report["counts"] == [2, 1]
        assert report["mountain_pass"]["holds"] is True

    def test_auto_levels(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = str(tmp_path / "report.json")
        assert main(["levelsets", src, "--auto", "8", "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        counts = report["counts"]
        # transitions 0 -> 2 -> 1 across the sweep
        compact = [counts[0]]
        for c in counts[1:]:
            if c != compact[-1]:
                compact.append(c)
        assert compact == [0, 2, 1]
        assert report["mountain_pass"]["r"] == 2
        assert report["mountain_pass"]["r_s"] == 1

    def test_auto_level_span_breaks_zero_ties_by_sign(self):
        from switchstat.cli import _auto_levels, _finite_span

        def span(values):
            lo, hi = _finite_span(np.array(values))
            return (lo, math.copysign(1.0, lo)), (hi, math.copysign(1.0, hi))

        # the least prefers -0.0 and the greatest +0.0, in any order
        for values in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [np.nan, 0.0, -0.0]):
            assert span(values)[0] == (0.0, -1.0)
        for values in ([-1.0, 0.0, -0.0], [-0.0, 0.0, -1.0], [np.inf, -0.0, 0.0]):
            assert span(values)[1] == (0.0, 1.0)
        assert span([-0.0, -0.0]) == ((0.0, -1.0), (0.0, -1.0))
        assert span([0.0, 0.0]) == ((0.0, 1.0), (0.0, 1.0))
        assert span([-2.0, 3.0, np.nan]) == ((-2.0, -1.0), (3.0, 1.0))
        with pytest.raises(ValueError, match="no finite values"):
            _finite_span(np.array([np.nan, -np.inf]))
        # the greatest level is the span's end, so its sign reaches the report
        levels = _auto_levels(np.array([-1.0, -0.0, 0.0, -0.0]), [], 3)
        assert [math.copysign(1.0, a) for a in levels] == [-1.0, -1.0, 1.0]

    @pytest.mark.parametrize(
        "objective, levels",
        # 0*x1*x2 is -0.0 or +0.0 at every node; 0*(0-x1) - x2^2 ties at its
        # greatest value, which numpy's max over a copy of the finite values
        # gave as -0
        [("0*x1*x2", "0"), ("0*(0-x1) - x2^2", "-4, -3.42857142857,"
          " -2.85714285714, -2.28571428571, -1.71428571429, -1.14285714286,"
          " -0.571428571429, 0")],
    )
    def test_auto_levels_with_both_zeros(self, tmp_path, capsys, objective,
                                         levels):
        from switchstat.topology import GridSpec, objective_values

        src = _write(tmp_path, "p.txt", f"vars: x1 x2\nobjective: {objective}\n")
        p = parse_problem(f"vars: x1 x2\nobjective: {objective}\n")
        fvals = objective_values(p, GridSpec.for_problem(p, (-2.0, 2.0)))
        assert (fvals == 0).any() and np.signbit(fvals[fvals == 0]).any()
        assert not np.signbit(fvals[fvals == 0]).all()
        assert main(["levelsets", src, "--auto", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"levels: {levels}"

    def test_auto_levels_copy_no_objective_array(self):
        import tracemalloc

        from switchstat.cli import _auto_levels

        fvals = np.linspace(-1.0, 1.0, 101**3).reshape((101,) * 3)
        fvals[0, 0, :7] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.0, -0.0]
        tracemalloc.start()
        try:
            levels = _auto_levels(fvals, [], 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels == list(np.linspace(fvals[0, 0, 7], 1.0, 8))
        # a bool array or two, not a float copy of the finite values
        assert peak < fvals.nbytes // 4

    def test_dimension_exit_5(self, tmp_path):
        src = _write(
            tmp_path, "p.txt", "vars: a b c d\nobjective: a + b + c + d\n"
        )
        assert main(["levelsets", src, "--levels", "0"]) == 5

    def test_degenerate_skips_mountain_pass(self, tmp_path):
        src = _write(tmp_path, "p.txt", INSTABILITY_BOTH)
        out = str(tmp_path / "report.json")
        assert main(["levelsets", src, "--levels", "0.5,1.5", "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        assert "skipped" in report["mountain_pass"]

    def test_emit_labels(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        out = str(tmp_path / "report.json")
        code = main(
            [
                "levelsets",
                src,
                "--levels",
                "0",
                "--grid",
                "21",
                "--json",
                out,
                "--emit-labels",
            ]
        )
        assert code == 0
        report = json.loads(Path(out).read_text())
        labels = report["labels_by_level"][0]["labels"]
        assert len(labels) == 21 * 21
        assert set(labels) <= {-1, 0, 1}

    def test_each_distinct_sublevel_set_is_labelled_once(self, tmp_path, monkeypatch):
        from switchstat import topology

        label, calls = topology._label, []

        def spy(*args, **kwargs):
            calls.append(1)
            return label(*args, **kwargs)

        monkeypatch.setattr(topology, "_label", spy)
        src = _write(tmp_path, "p.txt", LEVELSETS_3D)
        out = tmp_path / "report.json"
        argv = ["levelsets", src, "--auto", "8", "--grid", "41", "--json", str(out)]
        assert main(argv) == 0
        plain = len(calls)
        levels = len(json.loads(out.read_text())["levels"])
        calls.clear()
        assert main(argv + ["--emit-labels"]) == 0
        assert levels == 17
        assert 0 < plain <= levels
        assert len(calls) == plain

    def test_levels_and_auto_exclusive(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        assert main(["levelsets", src, "--levels", "0", "--auto", "4"]) == 2


# SHA-256 of each example's `analyze --json` report at the default box and
# configuration: a change to any byte of them must be deliberate and update
# these digests.  relax reports are left out because their bits depend on the
# LAPACK and libm builds; mid3's analyze reports and one levelsets report are
# pinned below.
ANALYZE_DIGESTS = [
    (CROSS_LINEAR,
     "50c9fcad856d16f2a0a1570e71e10781a531df6f3f9cba352306b7fbedba8dc2"),
    (CROSS_QUADRATIC,
     "79e11e1caec0215aef1f164ec43d250e02b9cb18688463fb0455d9b8ba17cea6"),
    (INSTABILITY_BOTH,
     "afc0b0d1c057df17102c5aebbd1a24a68b0fdf7e375c6660af3d28f382356a3c"),
    (INSTABILITY_ONE,
     "002d580e17e483acdc9631d35465bde53e5a3f8798117d65862dca4b12c9ea9f"),
    (STABLE_WITHOUT_ND2,
     "60c2066472bcf50b4b8ee23fbfdcf5af64481a51027ad1b62c723c76a730cc0b"),
]


# SHA-256 of mid3's `analyze --json` report at seeds 0 and 7.  Its multipliers
# pass through LAPACK's least-squares solve: on another LAPACK build, record
# them again from a checkout whose search is known to be unchanged.
MID3_DIGESTS = [
    ("0", "0cecbc1c6c807cf78a44e72bd289bf597fd4a373f898a802b190ccff1d673059"),
    ("7", "9cc82dde27fd25cd029bb7e42266a406917aa227f1acfd1dda876712d0313c11"),
]


# SHA-256 of the `levelsets --auto 8 --grid 41 --emit-labels --json` report
# on levelsets-3d, which holds the label grid of every level.  Its levels
# include midpoints of stationary values, whose bits pass through LAPACK: on
# another LAPACK build, record it again from a checkout whose labelling is
# known to be unchanged.
LEVELSETS_LABELS_DIGEST = (
    "e95e2a903b5d5d980613b482cd445cc6ad2cfc30b811569af2327a16097a0130"
)


class TestDeterminism:
    def test_levelsets_labels_report_digest(self, tmp_path):
        src = _write(tmp_path, "p.txt", LEVELSETS_3D)
        out = tmp_path / "report.json"
        argv = ["levelsets", src, "--auto", "8", "--grid", "41", "--emit-labels"]
        assert main(argv + ["--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == LEVELSETS_LABELS_DIGEST

    @pytest.mark.parametrize("text, digest", ANALYZE_DIGESTS, ids=[
        "cross_linear", "cross_quadratic", "instability_both",
        "instability_one", "stable_without_nd2",
    ])
    def test_analyze_report_digest(self, tmp_path, text, digest):
        src = _write(tmp_path, "p.txt", text)
        out = tmp_path / "report.json"
        assert main(["analyze", src, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed, digest", MID3_DIGESTS, ids=["seed0", "seed7"])
    def test_mid3_analyze_report_digest(self, tmp_path, seed, digest):
        src = _write(tmp_path, "p.txt", MID3)
        out = tmp_path / "report.json"
        assert main(["analyze", src, "--seed", seed, "--json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_byte_identical_across_runs(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        outs = []
        for i in range(2):
            out = str(tmp_path / f"report{i}.json")
            assert main(["analyze", src, "--json", out]) == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_json_is_key_sorted(self, tmp_path):
        src = _write(tmp_path, "p.txt", STABLE_WITHOUT_ND2)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        text = Path(out).read_text()
        parsed = json.loads(text)

        def canon(obj):
            if isinstance(obj, dict):
                return {k: canon(obj[k]) for k in sorted(obj)}
            if isinstance(obj, list):
                return [canon(v) for v in obj]
            return obj

        assert json.dumps(parsed, sort_keys=True) == json.dumps(canon(parsed))

    def test_integer_lists_render_as_the_generic_branch(self):
        ints = [3, -1, 0, 1234567, -7]
        # numpy integers are not exactly int, so they take the item loop
        generic = [np.int64(v) for v in ints]
        doc = {"a": ints, "b": [{"labels": ints}, [0, 1]]}
        ref = {"a": generic, "b": [{"labels": generic}, [np.int64(0), 1]]}
        assert render_json(doc) == render_json(ref)
        assert render_json(ints) == render_json(generic)
        mixed = [1, True, 0, False]
        assert render_json(mixed) == "[\n  1,\n  true,\n  0,\n  false\n]\n"
        assert json.loads(render_json(doc)) == doc

    def test_float_round_trip(self):
        values = [0.1, 1e-10, 2.0, -0.0, 123456.789, 1e300]
        text = render_json(values)
        assert json.loads(text) == values


class TestRangeErrors:
    def test_overflow_in_a_newton_trial_is_contained(self, tmp_path):
        # Newton trials step to large x1, where exp(x1) overflows
        src = _write(
            tmp_path,
            "p.txt",
            "vars: x1 x2\nobjective: exp(x1) - 1000*x1 + x2^2\nswitch: x1 | x2\n",
        )
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        assert [pt["x"] for pt in report["points"]] == [[0.0, 0.0]]

    # lanes whose pattern leaves the log inequality unpinned converge to
    # x1 < -0.5, where the inequality is undefined: such a candidate is
    # infeasible, not an error
    UNDEFINED_CONSTRAINT = (
        "vars: x1 x2\nobjective: (x1+1)^2 + (x2-1)^2\nineq: log(x1+0.5)\n"
        "switch: x1 | x2\n"
    )

    def test_undefined_constraint_at_a_candidate_is_contained(self, tmp_path):
        src = _write(tmp_path, "p.txt", self.UNDEFINED_CONSTRAINT)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        (pt,) = report["points"]
        assert pt["x"] == [0.5, 0.0]
        assert pt["f"] == 3.25
        assert pt["w_index"]["w_index"] == 0
        assert pt["classification"] == "minimizer"
        assert pt["strong_stability"]["strongly_stable"] is True
        assert main(["relax", src]) == 0
        assert main(["levelsets", src, "--auto", "4"]) == 0

    def test_nan_constraint_value_is_infeasible(self, tmp_path):
        # the inequality is inf - inf - 1 = nan at every x1 != 0 (-1 in exact
        # arithmetic), so (1, 0) is no point
        src = _write(
            tmp_path,
            "p.txt",
            "vars: x1 x2\nobjective: (x1-1)^2 + x2^2\n"
            "ineq: (10^300*x1)*(10^300*x1) - (10^300*x1)*(10^300*x1) - 1\n",
        )
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["points"] == []
        assert report["summary"]["num_points"] == 0

    @pytest.mark.parametrize(
        "command", [["analyze"], ["relax"], ["levelsets", "--auto", "3"]], ids=" ".join
    )
    @pytest.mark.parametrize(
        "options",
        [["--box", "0", "inf"], ["--box", "0", "1.7e308"],
         ["--tol", "box_inflation=1e308"]],
        ids=" ".join,
    )
    def test_box_not_finite_after_inflation_exit_2(
        self, tmp_path, capsys, command, options
    ):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = tmp_path / "report.json"
        argv = [command[0], src, *command[1:], *options, "--json", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: box [^\n]*\n", err), err
        assert not out.exists()

    @staticmethod
    def _in_a_process(tmp_path, text, command, *options, code=None):
        """``command`` on the problem ``text`` in a new process with
        ``options``, run by ``python -c code`` (``switchstat.cli`` when
        None), under a timeout that makes a hang a failure; returns the
        finished process and the report path."""
        src = _write(tmp_path, "p.txt", text)
        out = tmp_path / "report.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        runner = ["-m", "switchstat.cli"] if code is None else ["-c", code]
        run = subprocess.run(
            [sys.executable, *runner, command, src, *options, "--json", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        return run, out

    @classmethod
    def _relax_in_a_process(cls, tmp_path, *options):
        """``relax`` on the cross-quadratic problem, as :meth:`_in_a_process`."""
        return cls._in_a_process(tmp_path, CROSS_QUADRATIC, "relax", *options)

    def test_infinite_t0_exit_2(self, tmp_path):
        # from t0 = inf the schedule t <- max(rho*t, tmin) never gets below
        # inf, so the run would hang
        run, out = self._relax_in_a_process(tmp_path, "--t0", "inf")
        assert run.returncode == 2
        assert run.stderr == "error: --t0 must be finite, got inf\n"
        assert not out.exists()

    def test_schedule_beyond_the_step_cap_exit_3(self, tmp_path):
        # about 2e7 continuation steps per path: without the cap the run
        # would effectively hang
        run, out = self._relax_in_a_process(tmp_path, "--rho", "0.999999")
        assert run.returncode == 3
        assert run.stderr == (
            "error: continuation from t0=0.1 to t_min=1e-10 at rho=0.999999"
            " exceeds the step cap of 100000 steps\n"
        )
        assert not out.exists()

    def test_grid_beyond_the_node_cap_exit_3_before_search(self, tmp_path):
        # 257^3 nodes, just past the cap of 2^24: the run stops before the
        # search and before any array of the grid, which the spies check;
        # the timeout stops a run that got past them
        code = (
            "import sys\n"
            "from switchstat import cli\n"
            "def spy(*args):\n"
            "    raise AssertionError('called before the grid cap')\n"
            "cli.search_stationary_points = cli.feasibility_mask = spy\n"
            "cli.objective_values = spy\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        run, out = self._in_a_process(
            tmp_path, LEVELSETS_3D, "levelsets", "--auto", "8", "--grid", "257",
            code=code,
        )
        assert run.returncode == 3
        assert run.stderr == (
            "error: a grid of 257^3 nodes exceeds the grid cap of 16777216 nodes\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["analyze"], ["relax"], ["levelsets", "--auto", "8"]],
        ids=" ".join,
    )
    def test_start_rows_beyond_the_start_cap_exit_3_before_search(
        self, tmp_path, command
    ):
        # 2^17 + 1 rows of a 1-variable problem, just past the cap: the run
        # stops before any row is built and before any lane is solved, which
        # the spies check; the timeout stops a run that got past them
        code = (
            "import sys\n"
            "from switchstat import cli, stationarity\n"
            "def spy(*args):\n"
            "    raise AssertionError('called past the start cap')\n"
            "stationarity._newton_solve_patterns = stationarity._affine_form = spy\n"
            "cli.feasibility_mask = cli.objective_values = spy\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        run, out = self._in_a_process(
            tmp_path, "vars: x1\nobjective: x1^2\n", command[0], *command[1:],
            "--tol", "grid_points=131073", code=code,
        )
        assert run.returncode == 3
        assert run.stderr == (
            "error: 131073^1 multi-start rows exceed the start cap of 131072 rows\n"
        )
        assert not out.exists()

    def test_infinite_t0_and_tmin_exit_2_before_search(self, tmp_path, capsys,
                                                       monkeypatch):
        # with tmin = inf too the schedule ends at once, so only the check
        # up front keeps the searches from running
        _assert_rejected_before_search(
            tmp_path, capsys, monkeypatch, ["relax", "--t0", "inf", "--tmin", "inf"],
            "--t0 must be finite, got inf",
        )

    @pytest.mark.parametrize(
        "command", [["analyze"], ["relax"], ["levelsets", "--auto", "3"]], ids=" ".join
    )
    @pytest.mark.parametrize(
        "objective", ["1e999*x1 + x2^2", "x1^" + "1" * 400 + " + x2^2"],
        ids=["literal", "exponent"],
    )
    def test_number_beyond_the_float_range_exit_2(self, tmp_path, capsys,
                                                  command, objective):
        src = _write(tmp_path, "p.txt",
                     f"vars: x1 x2\nobjective: {objective}\nswitch: x1 | x2\n")
        out = tmp_path / "report.json"
        assert main([command[0], src, *command[1:], "--json", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: line 2, column \d+: [^\n]*float range\n", err), err
        assert not out.exists()

    def test_log_of_an_underflowing_square(self, tmp_path):
        # the grid start at x1 = 0 evaluates log at 1e-310, whose square
        # underflows to 0.0 in the second derivative
        src = _write(
            tmp_path,
            "p.txt",
            "vars: x1 x2\nobjective: log(x1^2 + 1e-310) + x2^2\nswitch: x1 | x2\n",
        )
        assert main(["analyze", src, "--json", str(tmp_path / "r.json")]) == 0


class TestNegativeNumbers:
    """Every token ``float`` reads is an option's value, also one that starts
    with a minus sign and that argparse alone would take for an option."""

    @pytest.mark.parametrize(
        "command", [["analyze"], ["relax"], ["levelsets", "--auto", "3"]], ids=" ".join
    )
    def test_negative_float_tokens_are_values(self, tmp_path, command):
        # argparse alone reads only -N and -N.N as numbers, and took -1e1 for
        # an option
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        reports = []
        for lo in ("-10", "-1e1", "-1E1", "-1.0e+1"):
            out = tmp_path / f"{lo}.json"
            argv = [command[0], src, *command[1:], "--box", lo, "1", "--json", str(out)]
            assert main(argv) == 0, lo
            reports.append(out.read_bytes())
        assert reports[1:] == reports[:1] * 3

    @pytest.mark.parametrize(
        "command", [["analyze"], ["relax"], ["levelsets", "--auto", "3"]], ids=" ".join
    )
    def test_negative_infinite_box_exit_2(self, tmp_path, capsys, command):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = tmp_path / "report.json"
        argv = [command[0], src, *command[1:], "--box", "-inf", "0", "--json", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: box [^\n]*\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [("--t0", "-1e-1", "--t0 must be positive, got -0.1"),
         ("--tmin", "-1e-3", "--tmin must lie in (0, t0], got -0.001"),
         ("--rho", "-5E-1", "--rho must lie in (0, 1), got -0.5")],
        ids=["t0", "tmin", "rho"],
    )
    def test_relax_reads_negative_float_tokens(self, tmp_path, capsys, option,
                                               value, message):
        # the value reaches relax's own range check, not argparse's usage error
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        assert main(["relax", src, option, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err

    def test_negative_levels_still_need_the_equals_form(self, tmp_path, capsys):
        # "-1,1" is no float, so it stays an option string, as README says
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        assert main(["levelsets", src, "--levels", "-1,1"]) == 2
        assert "--levels: expected one argument" in capsys.readouterr().err
        assert main(["levelsets", src, "--levels=-1,1"]) == 0


class TestSeedJitter:
    def test_seeded_runs_are_reproducible(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["analyze", src, "--seed", "42", "--json", out1]) == 0
        assert main(["analyze", src, "--seed", "42", "--json", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        report = json.loads(Path(out1).read_text())
        assert report["summary"]["num_points"] == 3


def _permute_vars(text, order):
    """``text`` with its ``vars:`` names listed in ``order``."""
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("vars:"))
    names = lines[i].split()[1:]
    lines[i] = "vars: " + " ".join(names[j] for j in order) + "\n"
    return "".join(lines)


def _verdicts(tmp_path, text, box=(-2.0, 2.0)):
    """What ``analyze`` decides in ``box``, in terms free of the coordinate
    order and origin."""
    src = _write(tmp_path, "p.txt", text)
    out = str(tmp_path / "report.json")
    box_args = ["--box", str(box[0]), str(box[1])]
    assert main(["analyze", src, *box_args, "--json", out]) == 0
    report = json.loads(Path(out).read_text())
    points = sorted(
        (
            round(pt["f"], 6),
            pt["classification"],
            None if pt["w_index"] is None else pt["w_index"]["w_index"],
            pt["strong_stability"].get("strongly_stable"),
        )
        for pt in report["points"]
    )
    return len(points), points, len(report["rejected_sign"])


def _orders(n):
    return list(itertools.permutations(range(n)))


class TestVariablePermutation:
    """Reordering the variables relabels coordinates and changes no verdict."""

    @pytest.mark.parametrize(
        "text, orders",
        [
            (CROSS_LINEAR, _orders(2)),
            (CROSS_QUADRATIC, _orders(2)),
            (INSTABILITY_BOTH, _orders(2)),
            (INSTABILITY_ONE, _orders(2)),
            (STABLE_WITHOUT_ND2, _orders(2)),
            (LEVELSETS_3D, _orders(3)),
            (MID3, [(1, 2, 0)]),
        ],
        ids=[
            "cross_linear", "cross_quadratic", "instability_both",
            "instability_one", "stable_without_nd2", "levelsets_3d", "mid3",
        ],
    )
    def test_analyze_verdicts(self, tmp_path, text, orders):
        expected = _verdicts(tmp_path, text)
        assert expected[0] > 0
        for order in orders:
            assert _verdicts(tmp_path, _permute_vars(text, order)) == expected, order


def _relax_paths(tmp_path, text, order):
    """The exit code of ``relax --box -1 2`` on ``text`` with its variables
    listed in ``order``, and its paths sorted by limit: the limit and the
    matched point's x mapped back to the original order, the matched
    point's f, classification and W-index, and whether the path was lost."""
    src = _write(tmp_path, "p.txt", _permute_vars(text, order))
    out = str(tmp_path / "report.json")
    code = main(["relax", src, "--box", "-1", "2", "--json", out])
    report = json.loads(Path(out).read_text())

    def back(x):
        original = [0.0] * len(x)
        for k, j in enumerate(order):
            original[j] = x[k]
        return np.array(original)

    paths = []
    for path in report["paths"]:
        m = path["matched"]
        paths.append((
            back(path["limit"]),
            None if m is None else (back(m["x"]), m["f"], m["classification"],
                                    m["w_index"]),
            path["lost"],
        ))
    paths.sort(key=lambda path: tuple(np.round(path[0], 4)))
    return code, paths


class TestRelaxVariablePermutation:
    """Reversing the variables relabels the continuation paths' coordinates
    and changes no limit, match or loss."""

    # instability_one has no relaxed KKT point in the box, so no path
    @pytest.mark.parametrize(
        "text, count",
        [(CROSS_LINEAR, 1), (CROSS_QUADRATIC, 3), (INSTABILITY_BOTH, 1),
         (INSTABILITY_ONE, 0), (STABLE_WITHOUT_ND2, 1)],
        ids=[
            "cross_linear", "cross_quadratic", "instability_both",
            "instability_one", "stable_without_nd2",
        ],
    )
    def test_relax_paths(self, tmp_path, text, count):
        n = len(next(line for line in text.splitlines()
                     if line.startswith("vars:")).split()) - 1
        code, expected = _relax_paths(tmp_path, text, tuple(range(n)))
        assert (code, len(expected)) == (0, count)
        got_code, got = _relax_paths(tmp_path, text, tuple(reversed(range(n))))
        assert got_code == code
        assert len(got) == len(expected)
        for (limit, matched, lost), (ref_limit, ref_matched, ref_lost) in zip(
            got, expected
        ):
            assert np.allclose(limit, ref_limit, rtol=0.0, atol=1e-6)
            assert lost == ref_lost
            assert (matched is None) == (ref_matched is None)
            if matched is not None:
                assert np.allclose(matched[0], ref_matched[0], rtol=0.0, atol=1e-6)
                assert matched[1] == pytest.approx(ref_matched[1], abs=1e-6)
                assert matched[2:] == ref_matched[2:]


def _translate(text, c):
    """``text`` with every variable ``x`` replaced by ``(x - c)``: the problem
    moved by ``c`` along every axis."""
    lines = text.splitlines(keepends=True)
    names = next(line for line in lines if line.startswith("vars:")).split()[1:]
    word = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    shift = f"- {c}" if c > 0 else f"+ {-c}"
    return "".join(
        line if line.startswith("vars:")
        else word.sub(lambda m: f"({m.group(1)} {shift})", line)
        for line in lines
    )


class TestTranslation:
    """Moving the problem and the box by c along every axis changes no
    verdict."""

    @pytest.mark.parametrize(
        "text",
        [CROSS_LINEAR, CROSS_QUADRATIC, INSTABILITY_BOTH, INSTABILITY_ONE,
         STABLE_WITHOUT_ND2, LEVELSETS_3D, MID3],
        ids=[
            "cross_linear", "cross_quadratic", "instability_both",
            "instability_one", "stable_without_nd2", "levelsets_3d", "mid3",
        ],
    )
    def test_analyze_verdicts(self, tmp_path, text):
        expected = _verdicts(tmp_path, text)
        assert expected[0] > 0
        for c in (0.5, 0.25, -1.0):
            moved = _translate(text, c)
            assert moved != text
            assert _verdicts(tmp_path, moved, (-2.0 + c, 2.0 + c)) == expected, c


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks(section):
    """(language, text) of each fenced block in README's ``## section``."""
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", body, re.S)


class TestReadme:
    """The entry points README documents keep working as written."""

    def test_library_block_runs(self, capsys):
        (block,) = [code for lang, code in _readme_blocks("Library")
                    if lang == "python"]
        exec(compile(block, str(README), "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert sum("minimizer" in line for line in lines) == 2

    def test_cli_examples_run(self, tmp_path):
        # the problem file README shows, under the name its examples use
        (problem,) = [code for lang, code in _readme_blocks("Problem files")
                      if not lang]
        src = _write(tmp_path, "problem.txt", problem)
        out = str(tmp_path / "report.json")
        (examples,) = [code for lang, code in _readme_blocks("CLI") if lang == "sh"]
        lines = [line for line in examples.splitlines() if line.strip()]
        assert len(lines) == 4
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "switchstat"
            argv = [{"problem.txt": src, "report.json": out}.get(a, a)
                    for a in argv[1:]]
            Path(out).unlink(missing_ok=True)
            assert main(argv) == 0, line
            assert json.loads(Path(out).read_text())["command"] == argv[0]
