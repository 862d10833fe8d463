"""Verdict checks behind ``fail_ratio`` and the report-side exact counts.

Only the keys named here are compared; any other report key may change
without counting as a failure.
"""

X_TOL = {"analyze": 1e-8, "relax": 1e-6}  # coordinate tolerance per command


def extract(command, report):
    """The verdicts of one report that the benchmark checks."""
    if command == "analyze":
        return {
            "points": [
                {
                    "x": pt["x"],
                    "w_index": None if pt["w_index"] is None else pt["w_index"]["w_index"],
                    "classification": pt["classification"],
                    "strongly_stable": pt["strong_stability"].get("strongly_stable"),
                }
                for pt in report["points"]
            ]
        }
    if command == "relax":
        return {
            "paths": [
                {
                    "limit": path["limit"],
                    "matched": None
                    if path["matched"] is None
                    else {
                        "x": path["matched"]["x"],
                        "classification": path["matched"]["classification"],
                        "w_index": path["matched"]["w_index"],
                    },
                    "lost": path["lost"],
                }
                for path in report["paths"]
            ]
        }
    if command == "levelsets":
        mp = report["mountain_pass"]
        return {
            "counts": report["counts"],
            "consistent": report["critical_levels"]["consistent"],
            "mountain_pass": {key: mp.get(key) for key in ("r", "r_s", "holds")},
        }
    raise ValueError(f"unknown command {command!r}")


def compare(command, got, want, path="", out=None):
    """Differences between extracted verdicts: coordinates (keys ``x`` and
    ``limit``) within the command's tolerance, everything else exactly."""
    out = [] if out is None else out
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return out
        for key in want:
            if key in ("x", "limit"):
                _compare_vector(got[key], want[key], X_TOL[command], f"{path}.{key}", out)
            else:
                compare(command, got[key], want[key], f"{path}.{key}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: {len(got)} entries, expected {len(want)}")
            return out
        for i, (g, w) in enumerate(zip(got, want)):
            compare(command, g, w, f"{path}[{i}]", out)
    elif got != want:
        out.append(f"{path}: {got!r} != {want!r}")
    return out


def _compare_vector(got, want, tol, path, out):
    if len(got) != len(want) or any(abs(g - w) > tol for g, w in zip(got, want)):
        out.append(f"{path}: {got} not within {tol:g} of {want}")


def invariant_failures(report, problem):
    """Checks that hold for any input: every reported point meets the
    report's residual and feasibility tolerances."""
    from switchstat.stationarity import (
        Multipliers,
        feasibility_violation,
        stationarity_residual,
    )

    cfg = report["config"]
    out = []
    for i, pt in enumerate(report.get("points", [])):
        m = pt["multipliers"]
        mult = Multipliers(
            tuple(m["lambda"]), tuple(m["mu"]), tuple(m["sigma1"]),
            tuple(m["sigma2"]), m["unique"],
        )
        resid = stationarity_residual(problem, pt["x"], mult)
        feas = feasibility_violation(problem, pt["x"])
        if not resid <= cfg["tol_resid"]:
            out.append(f"points[{i}]: residual {resid:.3e} > tol_resid")
        if not feas <= cfg["tol_feas"]:
            out.append(f"points[{i}]: feasibility violation {feas:.3e} > tol_feas")
    return out


def report_counts(command, report):
    """Exact counts visible in a report; they must repeat across passes."""
    if command == "analyze":
        return {
            "stationarity.points": len(report["points"]),
            "stationarity.solves": report["summary"]["solves"],
            "classify.subsets": sum(
                len(pt["strong_stability"].get("subsets", ())) for pt in report["points"]
            ),
        }
    if command == "relax":
        return {
            "stationarity.points": len(report["stationary_points"]),
            "relaxation.steps": sum(len(p["samples"]) - 1 for p in report["paths"]),
            "relaxation.lost": sum(1 for p in report["paths"] if p["lost"]),
        }
    return {
        "stationarity.points": len(report["stationary_points"]),
        "topology.levels": len(report["levels"]),
    }
