"""Sweep traffic: the level sweep of ``levelsets --auto 8`` on 212 grids,
timed grid by grid.

The grids are those of ``levelsets-3d``, the five examples of the test suite
and the 100 criterion-7 corpus problems (at their ``grid_points``), each at
the command's default grid (401 points per axis up to 2-D, 101 in 3-D) and at
``--grid 41``.  Each grid runs ``switchstat.cli.main`` in this process with
``cli.sweep_levels`` wrapped, so the sweep sees the command's own mask,
objective values and levels, and the wrapper runs that sweep 5 times:

    python3 tools/sweep_traffic.py            # digests, best-of-5 times
    python3 tools/sweep_traffic.py --counts   # digests only

Each grid line is ``<digest> <grid class> <run>``, with the best sweep time
in ms after the digest unless ``--counts``.  The digest is a SHA-256 prefix
of the sweep's levels and component counts, so two checkouts that count
alike print the same digests; ``--counts`` runs each sweep once and is a
labelling smoke that needs no oracle.  The last lines give, per grid class
(``101^3``, ``41^3``, ``401^2``, ...), the number of grids and the total of
their best times, and the SHA-256 of all digests.  ``switchstat`` is
imported from this checkout's ``src`` and the problem texts come from
``perfbench/workloads.py``, as in ``tools/acceptance_set.py``.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from acceptance_set import import_program, workloads  # noqa: E402


def grids():
    """``(problem name, problem text, options)`` for every grid, the options
    being the CLI arguments after ``--auto 8``."""
    problems = [("levelsets-3d", workloads.LEVELSETS_3D, [])]
    problems += [(name, text, []) for name, text in workloads.RELAX_EXAMPLES.items()]
    problems += [(item.name, item.text, list(item.options))
                 for item in workloads.items("analyze-corpus")]
    return [(name, text, options + grid)
            for name, text, options in problems
            for grid in ([], ["--grid", "41"])]


def sweep_grid(cli, text, options, repeat):
    """``(digest, grid class, best seconds)`` of one grid's sweep, run
    ``repeat`` times (at least once); the seconds are None when ``repeat``
    is 0."""
    sweep, seen = cli.sweep_levels, []

    def timed(mask, fvals, levels):
        times = []
        for _ in range(max(1, repeat)):
            start = time.perf_counter()
            result = sweep(mask, fvals, levels)
            times.append(time.perf_counter() - start)
        seen.append((mask.shape, result, min(times) if repeat else None))
        return result

    with tempfile.TemporaryDirectory() as work:
        problem = Path(work) / "problem.txt"
        problem.write_text(text, encoding="utf-8")
        cli.sweep_levels = timed
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["levelsets", str(problem), "--auto", "8", *options])
        finally:
            cli.sweep_levels = sweep
    if code != 0 or len(seen) != 1:
        raise RuntimeError(f"levelsets {' '.join(options)} exited {code}")
    shape, result, best = seen[0]
    counted = repr((result.levels, result.counts)).encode()
    return hashlib.sha256(counted).hexdigest()[:16], f"{shape[0]}^{len(shape)}", best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--counts", action="store_true",
                        help="print the digests only, each sweep run once")
    repeat = 0 if parser.parse_args(argv).counts else 5
    cli = sys.modules[import_program().__module__]
    digests, totals = [], defaultdict(lambda: [0, 0.0])
    for name, text, options in grids():
        digest, klass, best = sweep_grid(cli, text, options, repeat)
        digests.append(digest)
        run = " ".join([name, *options])
        if best is None:
            print(f"{digest} {klass} {run}")
        else:
            print(f"{digest} {best * 1e3:8.3f} {klass} {run}")
            totals[klass][0] += 1
            totals[klass][1] += best
    for klass, (count, seconds) in sorted(totals.items()):
        print(f"class {klass}: {count} grids, {seconds:.4f} s")
    total = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    print(f"{total} total ({len(digests)} grids)")


if __name__ == "__main__":
    main()
