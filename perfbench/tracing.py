"""In-memory span tracer that wraps the public functions of each layer.

``from .x import y`` copies a binding into the importing module, so a wrapper
is installed in every ``switchstat`` module that holds the original function
(for example ``newton_solve_branch`` in both ``stationarity`` and
``relaxation``).  The program itself is not edited.

A span is ``(name, start, end, parent, item)``; the parent is the index of
the enclosing span or -1.  Self time is a span's duration minus the time its
direct child spans cover.
"""

import sys
import time
from collections import Counter, defaultdict

PACKAGE = "switchstat"
# (module, function, span name)
TARGETS = [
    ("cli", "cmd_analyze", "cli.cmd"),
    ("cli", "cmd_relax", "cli.cmd"),
    ("cli", "cmd_levelsets", "cli.cmd"),
    ("cli", "render_json", "cli.render"),
    ("expr", "parse_problem", "expr.parse"),
    ("stationarity", "search_stationary_points", "stationarity.search"),
    ("stationarity", "newton_solve_branch", "stationarity.newton"),
    ("stationarity", "enumerate_branches", "stationarity.enumerate"),
    ("linalg", "rank", "linalg"),
    ("linalg", "nullspace_basis", "linalg"),
    ("linalg", "solve_linear", "linalg"),
    ("linalg", "inertia", "linalg"),
    ("linalg", "det_sign", "linalg"),
    ("classify", "classify_point", "classify.classify"),
    ("classify", "check_strong_stability", "classify.stability"),
    ("relaxation", "kkt_points_relaxed", "relaxation.seed"),
    ("relaxation", "continue_path", "relaxation.continue"),
    ("topology", "objective_values", "topology.fvals"),
    ("topology", "feasibility_mask", "topology.mask"),
    ("topology", "sublevel_labels", "topology.label"),
]


class Tracer:
    """Records spans and facts per span name while installed; ``uninstall``
    restores every rebound name."""

    def __init__(self):
        self.spans = []
        self.facts = defaultdict(Counter)  # span name -> counts from results
        self.item = -1
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name)
            for mod in modules.values():
                if getattr(mod, fn_name, None) is original:
                    self._undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for mod, fn_name, original in reversed(self._undo):
            setattr(mod, fn_name, original)
        self._undo.clear()

    def _wrap(self, fn, name):
        spans, stack, facts = self.spans, self._stack, self.facts[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                _record_failure(facts, name, exc)
                raise
            else:
                end = clock()
                _record_result(facts, name, result)
                return result
            finally:
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation --------------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds, self seconds, seconds of the
        spans whose parent has another name, and the facts taken from
        results."""
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls, total, self_time = Counter(), Counter(), Counter()
        outer_total = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - children[i]
            if parent < 0 or self.spans[parent][0] != name:
                outer_total[name] += end - start
        return {
            "calls": calls,
            "total": total,
            "self": self_time,
            "outer_total": outer_total,
            "facts": self.facts,
        }

    def calls_under(self, name, ancestor):
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n


def _record_result(counts, name, result):
    if name == "stationarity.search":
        diag = result.diagnostics
        counts["solves"] += diag.get("solves", 0)
        counts["converged"] += diag.get("converged", 0)
        counts["singular_jacobian"] += diag.get("singular_jacobian", 0)
        counts["points"] += len(result.points)
    elif name == "classify.stability":
        counts["subsets"] += len(result.subsets)
    elif name == "relaxation.continue":
        counts["steps"] += len(result.samples) - 1
    elif name == "topology.label":
        labels, _ = result
        counts["nodes"] += labels.size
        counts["active_nodes"] += int((labels >= 0).sum())
    elif name == "cli.render":
        counts["bytes"] += len(result.encode("utf-8"))


def _record_failure(counts, name, exc):
    if name == "relaxation.continue" and hasattr(exc, "path"):
        counts["lost"] += 1
        counts["steps"] += len(exc.path.samples) - 1
