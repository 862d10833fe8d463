"""Digest of the acceptance set: one SHA-256 per CLI run over its exit code,
standard output, standard error and JSON report.

The set has 220 runs: ``analyze`` on mid3 (seeds 0 and 7), on the five
examples of the test suite and on the 100 criterion-7 corpus problems at
their ``grid_points``; ``relax`` on the five examples at the default box and
at ``--box -1 2``, on mid3 and on the 100 corpus problems at their
``grid_points``; ``levelsets --auto 8`` on ``levelsets-3d`` at the default
grid and at ``--grid 41``.  The corpus ``relax`` runs are the ones whose
continuation often leaves its frozen pattern and recovers.  A change that promises byte-identical
behaviour must leave every line the same:

    python3 tools/acceptance_set.py > change.txt
    (cd PARENT_CHECKOUT && python3 tools/acceptance_set.py) > parent.txt
    diff parent.txt change.txt

Each line is ``<sha256> <run>``; the last is the SHA-256 of the lines above
it.  Every run calls ``switchstat.cli.main`` in this process, with
``switchstat`` imported from this checkout's ``src`` (anything else is an
error).  The problem texts come from ``perfbench/workloads.py``, read only.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def import_program():
    """``switchstat.cli.main`` from this checkout's ``src``, never from an
    installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import switchstat.cli

    if Path(switchstat.cli.__file__).resolve().parent != src / "switchstat":
        raise SystemExit(f"error: switchstat imported from {switchstat.cli.__file__}")
    return switchstat.cli.main


def runs():
    """``(command, problem name, problem text, options)`` for every run, the
    options being the CLI arguments after the problem file."""
    mid3, examples = workloads.MID3, workloads.RELAX_EXAMPLES
    corpus = workloads.items("analyze-corpus")
    out = [("analyze", "mid3", mid3, []),
           ("analyze", "mid3", mid3, ["--seed", "7"])]
    out += [("analyze", name, text, []) for name, text in examples.items()]
    out += [("analyze", item.name, item.text, list(item.options))
            for item in corpus]
    for box in ([], ["--box", "-1", "2"]):
        out += [("relax", name, text, box) for name, text in examples.items()]
    out.append(("relax", "mid3", mid3, []))
    out += [("relax", item.name, item.text, list(item.options))
            for item in corpus]
    out += [("levelsets", "levelsets-3d", workloads.LEVELSETS_3D,
             ["--auto", "8", *grid]) for grid in ([], ["--grid", "41"])]
    return out


def digest_lines(main, selected):
    """One ``<sha256> <run>`` line per run of ``selected``, each run in a
    fresh working directory under relative file names, so that no path
    reaches the output."""
    lines = []
    home = os.getcwd()
    for command, name, text, options in selected:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                Path("problem.txt").write_text(text, encoding="utf-8")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "problem.txt", *options,
                                 "--json", "report.json"])
                report = Path("report.json")
                parts = [str(code).encode(), out.getvalue().encode(),
                         err.getvalue().encode(),
                         report.read_bytes() if report.exists() else b"no report"]
            finally:
                os.chdir(home)
        h = hashlib.sha256()
        for part in parts:
            h.update(b"%d:" % len(part) + part)
        lines.append(f"{h.hexdigest()} {' '.join([command, name, *options])}")
    return lines


def main():
    lines = digest_lines(import_program(), runs())
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines))
    print(f"{total} total ({len(lines)} runs)")


if __name__ == "__main__":
    main()
