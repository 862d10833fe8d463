"""End-to-end CLI behaviour: exit codes, report content, determinism."""

import itertools
import json
import re

import numpy as np
import pytest

from switchstat.cli import main, render_json
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)
from tests.test_stationarity import LEVELSETS_3D, MID3


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestAnalyze:
    def test_relaxation_example_report(self, tmp_path, capsys):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--box", "-2", "2", "--json", out]) == 0
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
        assert report["config"]["tol_resid"] == 1e-9

    def test_unknown_tol_key_exit_2(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        assert main(["analyze", src, "--tol", "bogus=1"]) == 2

    def test_negative_budget_exit_2(self, tmp_path, capsys):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = tmp_path / "report.json"
        assert main(["analyze", src, "--tol", "max_halvings=-1",
                     "--json", str(out)]) == 2
        assert "max_halvings" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_sign_listed(self, tmp_path):
        src = _write(
            tmp_path, "p.txt", "vars: x1 x2\nobjective: x2 + x1^2\nineq: 0 - x2\n"
        )
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
        lost = [p for p in report["paths"] if p["lost"]]
        assert lost
        assert len(lost[0]["samples"]) >= 2

    def test_no_switches_trivial_paths(self, tmp_path):
        src = _write(tmp_path, "p.txt", "vars: x1\nobjective: (x1-1)^2\n")
        out = str(tmp_path / "report.json")
        assert main(["relax", src, "--json", out]) == 0
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
        assert report["counts"] == [2, 1]
        assert report["mountain_pass"]["holds"] is True

    def test_auto_levels(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out = str(tmp_path / "report.json")
        assert main(["levelsets", src, "--auto", "8", "--json", out]) == 0
        report = json.loads(open(out).read())
        counts = report["counts"]
        # transitions 0 -> 2 -> 1 across the sweep
        compact = [counts[0]]
        for c in counts[1:]:
            if c != compact[-1]:
                compact.append(c)
        assert compact == [0, 2, 1]
        assert report["mountain_pass"]["r"] == 2
        assert report["mountain_pass"]["r_s"] == 1

    def test_dimension_exit_5(self, tmp_path):
        src = _write(
            tmp_path, "p.txt", "vars: a b c d\nobjective: a + b + c + d\n"
        )
        assert main(["levelsets", src, "--levels", "0"]) == 5

    def test_degenerate_skips_mountain_pass(self, tmp_path):
        src = _write(tmp_path, "p.txt", INSTABILITY_BOTH)
        out = str(tmp_path / "report.json")
        assert main(["levelsets", src, "--levels", "0.5,1.5", "--json", out]) == 0
        report = json.loads(open(out).read())
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
        report = json.loads(open(out).read())
        labels = report["labels_by_level"][0]["labels"]
        assert len(labels) == 21 * 21
        assert set(labels) <= {-1, 0, 1}

    def test_levels_and_auto_exclusive(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_LINEAR)
        assert main(["levelsets", src, "--levels", "0", "--auto", "4"]) == 2


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        outs = []
        for i in range(2):
            out = str(tmp_path / f"report{i}.json")
            assert main(["analyze", src, "--json", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_json_is_key_sorted(self, tmp_path):
        src = _write(tmp_path, "p.txt", STABLE_WITHOUT_ND2)
        out = str(tmp_path / "report.json")
        assert main(["analyze", src, "--json", out]) == 0
        text = open(out).read()
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
        report = json.loads(open(out).read())
        assert [pt["x"] for pt in report["points"]] == [[0.0, 0.0]]


class TestSeedJitter:
    def test_seeded_runs_are_reproducible(self, tmp_path):
        src = _write(tmp_path, "p.txt", CROSS_QUADRATIC)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["analyze", src, "--seed", "42", "--json", out1]) == 0
        assert main(["analyze", src, "--seed", "42", "--json", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        report = json.loads(open(out1).read())
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
    report = json.loads(open(out).read())
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
