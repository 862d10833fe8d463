"""The benchmark's workloads: problem files and the CLI arguments of each item.

An item is one ``switchstat.cli.main([...])`` call on one problem file.  Only
``analyze-corpus`` draws its inputs from the workload seed; the other three
run fixed problems, so their verdicts are checked against the stored
expectations for every seed.
"""

from dataclasses import dataclass

from corpus import DEFAULT_SEED, corpus, grid_points

MID3 = """\
vars: x1 x2 x3
objective: (x1-1)^2 + (x2-1)^2 + (x3+0.5)^2 + 0.3*x1*x2*x3 + sin(x1)
ineq: 2 - x1 - x2 - x3
ineq: x3 + 1
switch: x1 | x2
switch: x2 - 0.5 | x3
"""

LEVELSETS_3D = """\
vars: x1 x2 x3
objective: (x1^2-1)^2 + (x2^2-1)^2 + (x3-0.5)^2 + 0.2*x1*x2
switch: x1 - 0.5 | x3
"""

# the five examples of the test suite's fixtures
RELAX_EXAMPLES = {
    "cross_linear": """\
vars: x1 x2
objective: x1 + x2
switch: x1 | x2
""",
    "cross_quadratic": """\
vars: x1 x2
objective: (x1-1)^2 + (x2-1)^2
switch: x1 | x2
""",
    "instability_both": """\
vars: x1 x2
objective: x1^2 + x2^2
switch: x1 | x2
""",
    "instability_one": """\
vars: x1 x2
objective: x1 + x2^2
switch: x1 | x2
""",
    "stable_without_nd2": """\
vars: x1 x2
objective: x1^2 + x2^2
ineq: x2
""",
}

NAMES = ("analyze-mid3", "analyze-corpus", "relax-corners", "levelsets-3d")


@dataclass(frozen=True)
class Item:
    name: str
    text: str
    command: str
    options: tuple  # CLI options after the problem file, before --json
    box: tuple = (-2.0, 2.0)
    grid_points: int = 5
    warmup: tuple = ()  # options added for the warm-up call: a smaller run

    def argv(self, problem_path, report_path, warmup=False):
        extra = self.warmup if warmup else ()
        return [self.command, problem_path, *self.options, *extra, "--json", report_path]


def items(workload, seed=DEFAULT_SEED):
    """Items of ``workload`` for ``seed``, in the order they run."""
    if workload == "analyze-mid3":
        return [Item("mid3", MID3, "analyze", (), warmup=("--tol", "grid_points=2"))]
    if workload == "analyze-corpus":
        out = []
        for i, text in enumerate(corpus(seed)):
            g = grid_points(text)
            out.append(
                Item(f"p{i:03d}", text, "analyze", ("--tol", f"grid_points={g}"),
                     grid_points=g, warmup=("--tol", "grid_points=2"))
            )
        return out
    if workload == "relax-corners":
        return [
            Item(name, text, "relax", ("--box", "-1", "2"), box=(-1.0, 2.0))
            for name, text in RELAX_EXAMPLES.items()
        ]
    if workload == "levelsets-3d":
        return [Item("ls3", LEVELSETS_3D, "levelsets", ("--auto", "8"),
                     warmup=("--grid", "21"))]
    raise ValueError(f"unknown workload {workload!r}")


def has_expected(workload, seed):
    """Whether the stored expected verdicts describe this workload's inputs."""
    return workload != "analyze-corpus" or seed == DEFAULT_SEED
