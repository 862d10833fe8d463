"""Command-line front end: analyze / relax / levelsets.

Every number in a report is produced by a library operation; the CLI only
assembles and serialises.  JSON output is key-sorted with floats rendered at
17 significant digits, so identical inputs and configuration produce
byte-identical files.

Exit codes: 0 ok, 2 input error, 3 enumeration cap exceeded, 4 numerical
failure, 5 unsupported dimension.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .classify import classify_point
from .expr import Problem, format_problem, parse_problem
from .linalg import SingularSystemError
from .relaxation import (
    PathLossError,
    _schedule,
    continue_path,
    kkt_points_relaxed,
    relax,
)
from .stationarity import (
    DEFAULT_CONFIG,
    CombinatorialCapError,
    NotStationaryError,
    SolveConfig,
    config_fields,
    search_stationary_points,
    with_overrides,
)
from .topology import (
    DegenerateInputError,
    DimensionError,
    GridSpec,
    critical_level_report,
    feasibility_mask,
    mountain_pass_check,
    objective_values,
    sweep_level_labels,
    sweep_levels,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NUMERICAL = 4
EXIT_DIMENSION = 5

# exit code per exception type, the first match winning: the ValueError
# subclasses come before ValueError itself
_EXIT_CODES = (
    (CombinatorialCapError, EXIT_CAP),
    (DimensionError, EXIT_DIMENSION),
    ((SingularSystemError, NotStationaryError, DegenerateInputError), EXIT_NUMERICAL),
    ((OSError, ValueError), EXIT_INPUT),
)


# ---------------------------------------------------------------------------
# deterministic JSON rendering
# ---------------------------------------------------------------------------


def _json_escape(s):
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _render(obj, out, indent):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise ValueError(f"non-finite value {v} is not representable in JSON")
        out.append(format(v, ".17g"))
    elif isinstance(obj, str):
        out.append(_json_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            out.append(pad + "  " + _json_escape(str(key)) + ": ")
            _render(obj[key], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        if all(type(item) is int for item in obj):
            # long integer lists (label grids) in one join, with the bytes
            # the loop below writes; bool, a subclass of int, takes the loop
            sep = ",\n" + pad + "  "
            out.append("[" + sep[1:] + sep.join(map(str, obj)) + "\n" + pad + "]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _render(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def render_json(obj) -> str:
    """Key-sorted JSON with floats at 17 significant digits."""
    out = []
    _render(obj, out, 0)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# report fragments
# ---------------------------------------------------------------------------


def _problem_record(p: Problem):
    return {
        "n": p.n,
        "var_names": list(p.var_names),
        "num_equalities": len(p.equalities),
        "num_inequalities": len(p.inequalities),
        "num_switches": p.k,
        "text": format_problem(p).splitlines(),
    }


def _multiplier_record(mult):
    return {
        "lambda": list(mult.lam),
        "mu": list(mult.mu),
        "sigma1": list(mult.sigma1),
        "sigma2": list(mult.sigma2),
        "unique": mult.unique,
    }


def _index_record(idx):
    return {
        "J0": list(idx.j0),
        "alpha": list(idx.alpha),
        "beta": list(idx.beta),
        "gamma": list(idx.gamma),
    }


def _stability_record(verdict):
    if isinstance(verdict, Exception):
        return {"out_of_scope": True, "reason": str(verdict)}
    return {
        "strongly_stable": verdict.strongly_stable,
        "nd3_holds": verdict.nd3_holds,
        "failure_reason": verdict.failure_reason,
        "subsets": [
            {"J_star": list(s.j_star), "dimension": s.dim, "det_sign": s.det_sign}
            for s in verdict.subsets
        ],
    }


def _point_record(p, pt, cfg):
    cls = classify_point(p, pt.x, pt.mult, pt.idx, cfg)
    rec = {
        "x": list(pt.x),
        "f": pt.f_value,
        "residual": pt.residual,
        "licq": pt.licq,
        "index_sets": _index_record(pt.idx),
        "multipliers": _multiplier_record(pt.mult),
        "nondegeneracy": {
            "nd1": cls.nd.nd1,
            "nd2": cls.nd.nd2,
            "nd3": cls.nd.nd3,
            "nd4": cls.nd.nd4,
            "nondegenerate": cls.nd.nondegenerate,
            "notes": list(cls.nd.notes),
        },
        "w_index": None
        if cls.w is None
        else {
            "QI": cls.w.qi,
            "BI": cls.w.bi,
            "w_index": cls.w.w,
            "degenerate": cls.w.degenerate,
            "tangent_dim": cls.w.tangent_dim,
        },
        "classification": cls.verdict,
        "is_local_minimizer": cls.is_local_minimizer,
        "strong_stability": _stability_record(cls.stability),
    }
    return rec, cls


def _base_report(command, p, cfg):
    return {
        "artifact": {"name": "switchstat", "version": __version__},
        "command": command,
        "problem": _problem_record(p),
        "config": config_fields(cfg),
    }


def _emit(report, args, human_lines):
    text = render_json(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    for line in human_lines:
        print(line)


def _fmt_x(x):
    return "(" + ", ".join(format(v, ".12g") for v in x) + ")"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    p = _load_problem(args.problem_file)
    cfg = _config_from_args(args)
    box = (args.box[0], args.box[1])
    result = search_stationary_points(p, box, cfg)
    points = []
    human = [
        f"problem: n={p.n}, equalities={len(p.equalities)},"
        f" inequalities={len(p.inequalities)}, switches={p.k}",
        f"W-stationary points in box [{args.box[0]:g}, {args.box[1]:g}]^{p.n}:"
        f" {len(result.points)}",
    ]
    for i, pt in enumerate(result.points):
        rec, cls = _point_record(p, pt, cfg)
        points.append(rec)
        stab = cls.stability
        if isinstance(stab, Exception):
            stable_text = f"stability characterization not applicable ({stab})"
        elif stab.strongly_stable:
            stable_text = "strongly stable"
        else:
            stable_text = f"not strongly stable ({stab.failure_reason})"
        w_text = (
            f"w={cls.w.w} (QI={cls.w.qi}, BI={cls.w.bi})" if cls.w else "w=?"
        )
        human.append(
            f"  [{i}] x = {_fmt_x(pt.x)}  f = {pt.f_value:.12g}  {w_text}"
            f"  {cls.verdict}  {stable_text}"
        )
    if result.rejected_sign:
        human.append(f"rejected by sign condition: {len(result.rejected_sign)}")
    report = _base_report("analyze", p, cfg)
    report["box"] = [float(args.box[0]), float(args.box[1])]
    report["points"] = points
    report["rejected_sign"] = [
        {
            "x": list(r.x),
            "reason": r.reason,
            "multipliers": _multiplier_record(r.mult),
        }
        for r in result.rejected_sign
    ]
    report["summary"] = {
        "num_points": len(points),
        "num_rejected_sign": len(result.rejected_sign),
        "solves": result.diagnostics.get("solves", 0),
    }
    _emit(report, args, human)
    return EXIT_OK


def cmd_relax(args) -> int:
    p = _load_problem(args.problem_file)
    cfg = _config_from_args(args)
    box = (args.box[0], args.box[1])
    if args.t0 <= 0:
        raise ValueError(f"--t0 must be positive, got {args.t0}")
    if not math.isfinite(args.t0):
        raise ValueError(f"--t0 must be finite, got {args.t0}")
    if not 0.0 < args.rho < 1.0:
        raise ValueError(f"--rho must lie in (0, 1), got {args.rho}")
    if not 0.0 < args.tmin <= args.t0:
        raise ValueError(
            f"--tmin must lie in (0, t0], got {args.tmin} with t0={args.t0}"
        )
    _schedule(args.t0, args.rho, args.tmin)
    rp = relax(p, args.t0)
    seeds = kkt_points_relaxed(rp, box, cfg)
    stationary = search_stationary_points(p, box, cfg).points
    paths = []
    human = [f"relaxation seeds at t0={args.t0:g}: {len(seeds)}"]
    lost_any = False
    for seed in seeds:
        try:
            path = continue_path(
                p, seed, args.t0, args.rho, args.tmin, cfg, stationary=stationary
            )
            lost = False
        except PathLossError as exc:
            path = exc.path
            lost = True
            lost_any = True
        paths.append(_path_record(p, seed, path, cfg, lost))
        human.append(
            f"  seed {_fmt_x(seed.x)} -> limit {_fmt_x(path.limit)}"
            + ("  [matched]" if path.matched_stationary else "")
            + ("  [path lost]" if lost else "")
            + ("  [multipliers diverge]" if path.multiplier_blowup else "")
        )
    report = _base_report("relax", p, cfg)
    report["box"] = [float(args.box[0]), float(args.box[1])]
    report["t0"] = float(args.t0)
    report["rho"] = float(args.rho)
    report["t_min"] = float(args.tmin)
    report["paths"] = paths
    report["stationary_points"] = [
        {"x": list(pt.x), "f": pt.f_value} for pt in stationary
    ]
    _emit(report, args, human)
    return EXIT_NUMERICAL if lost_any else EXIT_OK


def _path_record(p, seed, path, cfg, lost):
    matched = None
    if path.matched_stationary is not None:
        pt = path.matched_stationary
        cls = classify_point(p, pt.x, pt.mult, pt.idx, cfg)
        matched = {
            "x": list(pt.x),
            "f": pt.f_value,
            "classification": cls.verdict,
            "w_index": None if cls.w is None else cls.w.w,
        }
    return {
        "seed_x": list(seed.x),
        "samples": [
            {
                "t": s.t,
                "x": list(s.x),
                "residual": s.residual,
                "multipliers": _multiplier_record(s.mult),
            }
            for s in path.samples
        ],
        "final_x": list(path.final_x),
        "limit": list(path.limit),
        "matched": matched,
        "multiplier_blowup": path.multiplier_blowup,
        "lost": lost,
    }


def cmd_levelsets(args) -> int:
    p = _load_problem(args.problem_file)
    cfg = _config_from_args(args)
    box = (args.box[0], args.box[1])
    if args.auto is not None and args.auto < 0:
        raise ValueError(f"--auto must be >= 0, got {args.auto}")
    grid = GridSpec.for_problem(p, box, args.grid, args.feas_scale)
    levels = None if args.levels is None else _parse_levels(args.levels)
    result = search_stationary_points(p, box, cfg)
    mask = feasibility_mask(p, grid)
    fvals = objective_values(p, grid)
    if levels is None:
        levels = _auto_levels(fvals, result.points, args.auto)
    if args.emit_labels:
        sweep, labels = sweep_level_labels(mask, fvals, levels)
    else:
        sweep = sweep_levels(mask, fvals, levels)
    crit = critical_level_report(sweep, result.points)
    classifications = [
        classify_point(p, pt.x, pt.mult, pt.idx, cfg) for pt in result.points
    ]
    if all(c.nd.nondegenerate for c in classifications):
        mp = mountain_pass_check(classifications)
        mp_record = {
            "r": mp.r,
            "r_s": mp.r_s,
            "holds": mp.holds,
            "compact_assumed": mp.compact_assumed,
            "connected_assumed": mp.connected_assumed,
            "ties": [list(t) for t in mp.ties],
        }
        mp_text = (
            f"mountain pass: r={mp.r} minimizers, r_s={mp.r_s} index-1 saddles,"
            f" r_s >= r-1 {'holds' if mp.holds else 'VIOLATED'}"
        )
    else:
        mp_record = {"skipped": "degenerate stationary points present"}
        mp_text = "mountain pass: skipped (degenerate stationary points)"
    report = _base_report("levelsets", p, cfg)
    report["box"] = [float(args.box[0]), float(args.box[1])]
    report["grid"] = {
        "resolution": grid.resolution,
        "feas_scale": grid.feas_scale,
        "box": [list(b) for b in grid.box],
    }
    report["levels"] = list(sweep.levels)
    report["counts"] = list(sweep.counts)
    report["change_levels"] = list(sweep.change_levels)
    report["critical_levels"] = {
        "consistent": crit.consistent,
        "changes": [
            {
                "level": c.level,
                "prev_level": c.prev_level,
                "count": c.count,
                "prev_count": c.prev_count,
                "nearest_stationary_value": c.nearest_value,
                "gap": None if c.nearest_value is None else c.gap,
                "bracketed": c.bracketed,
            }
            for c in crit.changes
        ],
    }
    report["mountain_pass"] = mp_record
    report["stationary_points"] = [
        {"x": list(pt.x), "f": pt.f_value, "classification": cls.verdict}
        for pt, cls in zip(result.points, classifications)
    ]
    # component counts only observe dimension-0 topology; attachments of
    # cells of dimension >= 2 leave them unchanged and stay unverified
    report["higher_index_not_checked"] = [
        {"x": list(c.x), "w_index": c.w.w}
        for c in classifications
        if c.w is not None and c.w.w >= 2
    ]
    if args.emit_labels:
        report["labels_by_level"] = [
            {"level": a, "labels": lb} for a, lb in zip(sweep.levels, labels)
        ]
    human = [
        f"levels: {', '.join(format(a, '.12g') for a in sweep.levels)}",
        f"counts: {', '.join(str(c) for c in sweep.counts)}",
        f"critical-level consistency: {'CONSISTENT' if crit.consistent else 'VIOLATION'}",
        mp_text,
    ]
    _emit(report, args, human)
    return EXIT_OK


def _parse_levels(text):
    """The sorted levels of a ``--levels`` list; a nan or infinite entry has
    no sublevel set to count and cannot be reported."""
    try:
        levels = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --levels list: {exc}") from exc
    for entry, a in zip(text.split(","), levels):
        if not math.isfinite(a):
            raise ValueError(f"--levels entry {entry.strip()!r} is not finite")
    return sorted(levels)


def _finite_span(fvals):
    """(least, greatest) of the finite ``fvals``, read in place with no copy
    of them.  Where -0.0 and +0.0 tie, the least is -0.0 and the greatest
    +0.0, as IEEE 754-2019 minimum and maximum have it."""
    finite = np.isfinite(fvals)
    if not finite.any():
        raise ValueError("objective has no finite values on the grid")
    lo = float(np.min(fvals, where=finite, initial=np.inf))
    hi = float(np.max(fvals, where=finite, initial=-np.inf))
    if lo == 0.0 or hi == 0.0:
        zeros, negative = fvals == 0.0, np.signbit(fvals)
        if lo == 0.0:
            lo = -0.0 if np.any(zeros & negative) else 0.0
        if hi == 0.0:
            hi = 0.0 if np.any(zeros & ~negative) else -0.0
    return lo, hi


def _auto_levels(fvals, points, count):
    base = np.linspace(*_finite_span(fvals), count)
    values = sorted({pt.f_value for pt in points})
    mids = [
        0.5 * (values[i] + values[i + 1])
        for i in range(len(values) - 1)
        if values[i + 1] - values[i] > 1e-12
    ]
    return sorted(set(float(v) for v in base) | set(mids))


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _load_problem(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _config_from_args(args) -> SolveConfig:
    defaults = config_fields(DEFAULT_CONFIG)
    overrides = {}
    for pair in args.tol or []:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"--tol needs key=value, got {pair!r}")
        if key not in defaults:
            raise ValueError(f"unknown --tol key {key!r}")
        # int or float, as the field's default
        overrides[key] = type(defaults[key])(value)
    if args.seed != 0:
        overrides["seed"] = args.seed
    return with_overrides(DEFAULT_CONFIG, **overrides)


def _add_common(sp):
    sp.add_argument("problem_file", help="problem definition file")
    sp.add_argument(
        "--box",
        nargs=2,
        type=float,
        default=[-2.0, 2.0],
        metavar=("LO", "HI"),
        help="search box applied on every axis (default -2 2)",
    )
    sp.add_argument("--json", metavar="PATH", help="write the JSON report here")
    sp.add_argument(
        "--tol",
        action="append",
        metavar="KEY=VALUE",
        help="override a tolerance/configuration field (repeatable)",
    )
    sp.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for multi-start jitter (0 = regular grid, no jitter)",
    )


class _NumberTokens:
    """Stands in for argparse's negative-number pattern, which knows only
    ``-N`` and ``-N.N``: every token that ``float`` reads, such as ``-1e1``
    or ``-inf``, is a value, never an option."""

    @staticmethod
    def match(token):
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser``, and the class of its subparsers, that takes
    every float token as a value, so ``--box -1e1 1`` parses like
    ``--box -10 1``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NumberTokens


def build_parser():
    parser = _Parser(
        prog="switchstat",
        description=(
            "Find, classify and stability-check W-stationary points of"
            " switching-constrained programs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="find and classify W-stationary points")
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("relax", help="relax the switching constraints and track KKT points")
    _add_common(pr)
    pr.add_argument("--t0", type=float, default=0.1, help="initial relaxation width")
    pr.add_argument("--rho", type=float, default=0.5, help="geometric reduction factor")
    pr.add_argument("--tmin", type=float, default=1e-10, help="final relaxation width")
    pr.set_defaults(func=cmd_relax)

    pl = sub.add_parser("levelsets", help="sublevel-set component counts across levels")
    _add_common(pl)
    pl.add_argument("--grid", type=int, default=None, help="grid points per axis")
    pl.add_argument(
        "--feas-scale",
        type=float,
        default=1.0,
        help="feasibility thickening scale in grid cells",
    )
    group = pl.add_mutually_exclusive_group(required=True)
    group.add_argument("--levels", help="comma-separated level values")
    group.add_argument(
        "--auto", type=int, help="pick N levels spanning the sampled objective range"
    )
    pl.add_argument(
        "--emit-labels",
        action="store_true",
        help="include flat per-level component label grids in the JSON report",
    )
    pl.set_defaults(func=cmd_levelsets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
