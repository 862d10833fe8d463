"""Run one workload in this process and write its raw measurements as JSON.

``run.py`` starts this file in a fresh interpreter per workload, so no
workload inherits another's imports or peak memory.  Every pass calls
``switchstat.cli.main([...])`` once per item, closed loop and
single-threaded; after a short warm-up, passes repeat until ``--seconds`` are
used.  The warm-up runs items on smaller inputs (``Item.warmup``) for about
``WARMUP_SECONDS``, so that the run's time goes to timed passes.  With
``--trace 1`` the warm-up runs under the span tracer, and each timed pass
runs every item twice back to back, untraced and then traced, so that the
tracing overhead is measured under the same machine conditions.

    python3 perfbench/worker.py --workload analyze-mid3 --seed 20260808 \
        --seconds 28 --trace 0 --out result.json
    python3 perfbench/worker.py --workload analyze-mid3 --record

``--record`` runs one pass on the default seed and stores its verdicts in
``expected.json``.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import verdicts
import workloads
from corpus import DEFAULT_SEED
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
MIN_PASSES = 2  # timed untraced passes in an untraced run
MAX_SECONDS = 100.0  # no pass starts after this, whatever --seconds says
EVAL_SECONDS = 0.25  # time spent on each of the eval_gradient/eval_hessian loops
WARMUP_SECONDS = 1.0  # no warm-up item starts after this

# per-layer counts that must repeat exactly in every traced pass
TRACED_COUNTS = (
    "stationarity.newton_calls",
    "stationarity.points",
    "stationarity.converged",
    "stationarity.singular_jacobian",
    "linalg.calls",
    "classify.subsets",
    "relaxation.steps",
    "relaxation.fallbacks",
    "relaxation.lost",
    "topology.nodes",
    "topology.active_nodes",
)


def import_program():
    """Import ``switchstat.cli`` from this checkout's ``src``, never from
    an installed copy."""
    src = ROOT / "src"
    if not (src / "switchstat" / "__init__.py").is_file():
        raise SystemExit(f"error: no switchstat sources under {src}")
    sys.path.insert(0, str(src))
    import switchstat.cli

    if Path(switchstat.cli.__file__).resolve().parent != src / "switchstat":
        raise SystemExit(f"error: switchstat imported from {switchstat.cli.__file__}")
    return switchstat.cli.main


class Workload:
    """The items of one workload written to files under ``workdir``."""

    def __init__(self, name, seed, workdir, checked=True):
        self.name = name
        self.items = workloads.items(name, seed)
        self.workdir = workdir
        self.problem_paths = []
        for item in self.items:
            problem = workdir / f"{item.name}.txt"
            problem.write_text(item.text, encoding="utf-8")
            self.problem_paths.append(str(problem))
        self.expected = None
        if checked and workloads.has_expected(name, seed):
            self.expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
        self._problems = {}

    def problem(self, item):
        if item.name not in self._problems:
            from switchstat.expr import parse_problem

            self._problems[item.name] = parse_problem(item.text)
        return self._problems[item.name]

    def report_paths(self, slot):
        return [str(self.workdir / f"{item.name}.{slot}.json") for item in self.items]


def run_pass(main, wl, tracers):
    """One closed-loop pass: every item runs once per entry of ``tracers``
    (``None`` runs untraced), the entries back to back for each item.
    Returns, per entry, the item latencies in seconds and the exit codes
    with captured output."""
    slots = [([], []) for _ in tracers]
    reports = [wl.report_paths(slot) for slot in range(len(tracers))]
    for path in itertools.chain.from_iterable(reports):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    for i, (item, problem) in enumerate(zip(wl.items, wl.problem_paths)):
        for slot, tracer in enumerate(tracers):
            argv = item.argv(problem, reports[slot][i])
            sink = io.StringIO()
            if tracer is not None:
                tracer.item = i
                tracer.install()
            try:
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main(argv)
                latency = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            slots[slot][0].append(latency)
            slots[slot][1].append((code, sink.getvalue()))
    return slots


def warm_up(main, wl, tracer):
    """Run items on their warm-up options until ``WARMUP_SECONDS`` are used,
    at least one item; returns (items run, failure messages).  Only the exit
    code is checked: the smaller inputs have no stored verdicts."""
    ran, failures = 0, []
    report = str(wl.workdir / "warmup.json")
    start = time.perf_counter()
    for item, problem in zip(wl.items, wl.problem_paths):
        if ran and time.perf_counter() - start > WARMUP_SECONDS:
            break
        ran += 1
        sink = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(item.argv(problem, report, warmup=True))
        finally:
            if tracer is not None:
                tracer.uninstall()
        want = 0 if wl.expected is None else wl.expected[item.name]["exit"]
        if code != want:
            failures.append(f"{item.name} warm-up: exit {code}, expected {want}:"
                            f" {sink.getvalue().strip()[-200:]}")
    return ran, failures


def check_pass(wl, slot, outcomes):
    """(failure messages, one per failed item; exact counts from the reports)."""
    failures, counts = [], {}
    for item, report_path, (code, output) in zip(wl.items, wl.report_paths(slot), outcomes):
        want = None if wl.expected is None else wl.expected[item.name]
        errors = []
        want_exit = 0 if want is None else want["exit"]
        if code != want_exit:
            errors.append(f"exit {code}, expected {want_exit}: {output.strip()[-200:]}")
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except FileNotFoundError:
            report = None
            if want_exit == 0:
                errors.append("no report written")
        if report is not None:
            if want is not None:
                got = verdicts.extract(item.command, report)
                errors += verdicts.compare(item.command, got, want["verdicts"])
            if item.command == "analyze":
                errors += verdicts.invariant_failures(report, wl.problem(item))
            for key, value in verdicts.report_counts(item.command, report).items():
                counts[key] = counts.get(key, 0) + value
        if errors:
            failures.append(f"{item.name}: " + "; ".join(errors[:3]))
    return failures, counts


def layer_metrics(tracer, n_items):
    """Per-layer figures of one traced pass."""
    s = tracer.summary()
    calls, total, self_time = s["calls"], s["total"], s["self"]
    facts = s["facts"]
    search = facts["stationarity.search"]
    newton_calls = calls["stationarity.newton"]
    steps = facts["relaxation.continue"]["steps"]
    nodes = facts["topology.label"]["nodes"]
    label_s = self_time["topology.label"]
    renders = max(calls["cli.render"], 1)
    return {
        "expr.parse_ms": 1e3 * total["expr.parse"] / max(calls["expr.parse"], 1),
        "stationarity.search_s": total["stationarity.search"],
        "stationarity.newton_s": total["stationarity.newton"],
        "stationarity.newton_calls": newton_calls,
        "stationarity.newton_us": 1e6 * total["stationarity.newton"] / max(newton_calls, 1),
        "stationarity.accept_s": self_time["stationarity.search"],
        "stationarity.converged": search["converged"],
        "stationarity.converged_ratio": search["converged"] / max(search["solves"], 1),
        "stationarity.singular_jacobian": search["singular_jacobian"],
        "stationarity.points": search["points"],
        "stationarity.points_per_solve": search["points"] / max(search["solves"], 1),
        "linalg.calls": calls["linalg"],
        "linalg.s": s["outer_total"]["linalg"],
        "classify.classify_s": total["classify.classify"],
        "classify.stability_s": total["classify.stability"],
        "classify.subsets": facts["classify.stability"]["subsets"],
        "relaxation.seed_s": total["relaxation.seed"],
        "relaxation.continue_s": total["relaxation.continue"],
        "relaxation.steps": steps,
        "relaxation.newton_per_step": (
            tracer.calls_under("stationarity.newton", "relaxation.continue") / steps
            if steps else 0.0
        ),
        "relaxation.fallbacks": tracer.calls_under(
            "stationarity.enumerate", "relaxation.continue"
        ),
        "relaxation.lost": facts["relaxation.continue"]["lost"],
        "topology.fvals_s": total["topology.fvals"],
        "topology.mask_s": total["topology.mask"],
        "topology.label_s": label_s,
        "topology.label_ns_per_node": 1e9 * label_s / nodes if nodes else 0.0,
        "topology.nodes": nodes,
        "topology.active_nodes": facts["topology.label"]["active_nodes"],
        "cli.self_ms": 1e3 * self_time["cli.cmd"] / n_items,
        "cli.render_ms": 1e3 * total["cli.render"] / renders,
        "cli.report_kb": facts["cli.render"]["bytes"] / 1024 / renders,
    }


def eval_costs(wl, seconds=EVAL_SECONDS):
    """Microseconds per ``eval_gradient`` / ``eval_hessian`` call on the
    workload's own expressions at its multi-start grid points."""
    import numpy as np
    from switchstat.expr import EvalDomainError, eval_gradient, eval_hessian

    pairs = []
    for item in wl.items:
        p = wl.problem(item)
        exprs = [p.objective, *p.equalities, *p.inequalities]
        exprs += [f for pair in p.switches for f in pair]
        axis = np.linspace(item.box[0], item.box[1], item.grid_points)
        for x in itertools.product(axis.tolist(), repeat=p.n):
            for e in exprs:
                try:
                    eval_hessian(e, x)
                except EvalDomainError:
                    continue
                pairs.append((e, x))
    out = {}
    for name, fn in (("expr.grad_us", eval_gradient), ("expr.hess_us", eval_hessian)):
        spent, calls = 0.0, 0
        while spent < seconds:
            t0 = time.perf_counter()
            for e, x in pairs:
                fn(e, x)
            spent += time.perf_counter() - t0
            calls += len(pairs)
        out[name] = 1e6 * spent / calls
    return out


def measure(main, wl, seconds, traced):
    """Warm-up plus timed passes; returns the raw result record."""
    attempted, failures, gate = 0, [], []
    walls, traced_walls, latencies, layers = [], [], [], []
    base = {}  # first report counts and first traced counts seen

    def one_pass(tracers):
        nonlocal attempted
        slots = run_pass(main, wl, tracers)
        for slot, (tracer, (_, outcomes)) in enumerate(zip(tracers, slots)):
            attempted += len(outcomes)
            bad, counts = check_pass(wl, slot, outcomes)
            failures.extend(bad)
            if base.setdefault("report", counts) != counts:
                gate.append(f"report counts {counts} != {base['report']}")
            if tracer is not None:
                figures = layer_metrics(tracer, len(wl.items))
                exact = {k: figures[k] for k in TRACED_COUNTS}
                if base.setdefault("traced", exact) != exact:
                    gate.append(f"traced counts {exact} != {base['traced']}")
                layers.append(figures)
        return slots

    last_tracer = Tracer() if traced else None
    ran, warm_failures = warm_up(main, wl, last_tracer)
    attempted += ran
    failures.extend(warm_failures)
    start = time.perf_counter()
    while True:
        if traced:
            last_tracer = Tracer()
            (lat, _), (traced_lat, _) = one_pass([None, last_tracer])
            traced_walls.append(sum(traced_lat))
        else:
            ((lat, _),) = one_pass([None])
        walls.append(sum(lat))
        latencies.append(lat)
        elapsed = time.perf_counter() - start
        enough = len(walls) >= (1 if traced else MIN_PASSES)
        pass_seconds = elapsed / len(walls)
        if enough and (elapsed + pass_seconds > seconds or elapsed > MAX_SECONDS):
            break

    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "latencies": latencies,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "gate_failures": gate[:10],
        "counts": base["report"],
    }
    if traced:
        result["layers"] = {
            k: statistics.median(f[k] for f in layers) for k in layers[0]
        }
        result["layers"].update(eval_costs(wl))
        result["spans"] = last_tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def record(main, wl):
    """Store this workload's verdicts on the default seed in expected.json."""
    ((_, outcomes),) = run_pass(main, wl, [None])
    entry = {}
    for item, report_path, (code, _) in zip(wl.items, wl.report_paths(0), outcomes):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        entry[item.name] = {
            "exit": code,
            "verdicts": verdicts.extract(item.command, report),
        }
    data = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    data[wl.name] = entry
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the result record here")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        ap.error("--record needs the default seed")
    if not args.record and not args.out:
        ap.error("--out is required")

    program = import_program()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = Workload(args.workload, args.seed, workdir, checked=not args.record)
        if args.record:
            record(program, wl)
            return 0
        result = measure(program, wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
