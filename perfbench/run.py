"""Benchmark of the switchstat command line: analyze, relax and levelsets.

    python3 perfbench/run.py --workload analyze-mid3 --seed 20260808 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in a fresh child interpreter (``worker.py``), one
``switchstat.cli.main([...])`` call per item, closed loop and
single-threaded.  ``setup_s`` and the ``import.*`` split come from further
fresh interpreters that only import ``switchstat.cli``.  With ``--trace 0``
the end-to-end metrics are printed, with ``--trace 1`` the per-layer ones;
every item's exit code and verdicts are checked either way.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passed, 1
when a check failed and 2 when the benchmark could not run.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from corpus import DEFAULT_SEED  # noqa: E402
from workloads import NAMES  # noqa: E402

# fresh interpreters per setup_s / import split measurement, before and after
# the workload, so that the median spans the run's own time
SETUP_BEFORE, SETUP_AFTER = 2, 3
WORKER_TIMEOUT = 160.0  # seconds; a run must end within 180

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
}
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.switchstat_s": "s",
    "expr.parse_ms": "ms",
    "expr.grad_us": "us",
    "expr.hess_us": "us",
    "stationarity.search_s": "s",
    "stationarity.newton_s": "s",
    "stationarity.newton_calls": "count",
    "stationarity.newton_us": "us",
    "stationarity.accept_s": "s",
    "stationarity.converged": "count",
    "stationarity.converged_ratio": "ratio",
    "stationarity.singular_jacobian": "count",
    "stationarity.points": "count",
    "stationarity.points_per_solve": "ratio",
    "linalg.calls": "count",
    "linalg.s": "s",
    "classify.classify_s": "s",
    "classify.stability_s": "s",
    "classify.subsets": "count",
    "relaxation.seed_s": "s",
    "relaxation.continue_s": "s",
    "relaxation.steps": "count",
    "relaxation.newton_per_step": "calls/step",
    "relaxation.fallbacks": "count",
    "relaxation.lost": "count",
    "topology.fvals_s": "s",
    "topology.mask_s": "s",
    "topology.label_s": "s",
    "topology.label_ns_per_node": "ns",
    "topology.nodes": "count",
    "topology.active_nodes": "count",
    "cli.self_ms": "ms",
    "cli.render_ms": "ms",
    "cli.report_kb": "KiB",
    "trace.overhead_ratio": "ratio",
}
# printed but not in the JSON result: fail_ratio is 0 on a correct run and
# is carried by ``failed``/``attempted``; these layer times are 0 on every
# workload that never calls the layer
NOT_IN_JSON = {
    "fail_ratio",
    "classify.stability_s",
    "relaxation.seed_s",
    "relaxation.continue_s",
    "topology.fvals_s",
    "topology.mask_s",
    "topology.label_s",
    "topology.label_ns_per_node",
}
IMPORT_OWNERS = ("numpy", "scipy", "switchstat")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _import_cli(extra=()):
    """(wall seconds, stderr) of a fresh interpreter that imports
    switchstat.cli."""
    cmd = [sys.executable, *extra, "-c", "import switchstat.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"importing switchstat.cli failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def import_split(stderr):
    """Seconds of ``-X importtime`` self time owned by numpy, scipy and
    switchstat.  A module imported inside numpy or scipy, whatever its name,
    belongs to the outermost of the two that imported it; the rest of the
    import of switchstat.cli belongs to switchstat."""
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)", line)
        if m:
            entries.append((m.group(3), int(m.group(1)), len(m.group(2))))
    # output is post-order: the parent of an entry is the first later entry
    # with a smaller indent
    parents = []
    for i, (_, _, depth) in enumerate(entries):
        parents.append(next(
            (j for j in range(i + 1, len(entries)) if entries[j][2] < depth), None
        ))
    out = dict.fromkeys(IMPORT_OWNERS, 0.0)
    for i, (_, self_us, _) in enumerate(entries):
        owner, j = None, i
        while j is not None:
            name = entries[j][0]
            for pkg in IMPORT_OWNERS:
                if name == pkg or name.startswith(pkg + "."):
                    if pkg != "switchstat" or owner is None:
                        owner = pkg
            j = parents[j]
        if owner is not None:
            out[owner] += self_us / 1e6
    return out


def run_worker(workload, seed, seconds, trace):
    out = HERE / "_work" / f"result-{workload}-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {exc.timeout} s") from exc
    finally:
        out.unlink(missing_ok=True)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def import_samples(trace, n):
    """``n`` import measurements: wall seconds, or with ``trace`` the
    ``-X importtime`` split."""
    if trace:
        return [import_split(_import_cli(["-X", "importtime"])[1]) for _ in range(n)]
    return [_import_cli()[0] for _ in range(n)]


def bench(workload, seed, seconds, trace):
    """Measure one workload; returns (metrics, result record)."""
    samples = import_samples(trace, SETUP_BEFORE)
    res = run_worker(workload, seed, seconds, trace)
    samples += import_samples(trace, SETUP_AFTER)
    metrics = {"fail_ratio": res["failed"] / res["attempted"]}
    if trace:
        metrics.update(res["layers"])
        for own in IMPORT_OWNERS:
            metrics[f"import.{own}_s"] = statistics.median(s[own] for s in samples)
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(res["traced_walls"]) / statistics.fmean(res["walls"]) - 1.0
        )
        spans_dir = HERE / "_out"
        spans_dir.mkdir(exist_ok=True)
        (spans_dir / f"spans-{workload}-{seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "item"],
                        "spans": res["spans"]}),
            encoding="utf-8",
        )
    else:
        # Means over the timed passes: the host's speed switches between
        # levels for seconds at a time, and a mean weighs each level by the
        # time spent in it where a median over passes snaps to one level.
        item_means = [statistics.fmean(runs) for runs in zip(*res["latencies"])]
        metrics.update({
            "setup_s": statistics.median(samples),
            "wall_s": statistics.fmean(res["walls"]),
            "item_p50_ms": 1e3 * statistics.median(item_means),
            "item_p90_ms": 1e3 * percentile(item_means, 0.9),
            "peak_rss_mb": res["peak_rss_mb"],
        })
    return metrics, res


def report(workload, trace, metrics, res):
    """Human-readable lines for one workload."""
    table = PER_LAYER if trace else END_TO_END
    lines = [
        f"== {workload}: {len(res['walls'])} untraced + {len(res['traced_walls'])}"
        f" traced timed passes, {sum(map(len, res['latencies']))} timed items,"
        f" {res['attempted']} items checked, {res['failed']} failed"
    ]
    for name, unit in table.items():
        value = metrics[name]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name:32s} {text:>14s} {unit}")
    lines.append(f"  exact counts: {json.dumps(res['counts'], sort_keys=True)}")
    lines += [f"  FAILED {msg}" for msg in res["failures"]]
    lines += [f"  COUNT MISMATCH {msg}" for msg in res["gate_failures"]]
    return lines


def json_metrics(trace, metrics):
    table = PER_LAYER if trace else END_TO_END
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in table.items()
        if name not in NOT_IN_JSON
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "switchstat" / "__init__.py").is_file():
        print(f"error: no switchstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            metrics, res = bench(name, args.seed, args.seconds, args.trace)
            print("\n".join(report(name, args.trace, metrics, res)), flush=True)
            results[name] = (metrics, res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = all(not r["failed"] and not r["gate_failures"] for _, r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
    }
    if args.workload == "all":
        summary["workloads"] = {
            name: json_metrics(args.trace, m) for name, (m, _) in results.items()
        }
    else:
        summary["metrics"] = json_metrics(args.trace, results[args.workload][0])
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
