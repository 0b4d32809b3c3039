"""Self-test of the solve benchmark at a tiny size (N=2, P=2, n=4).

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs the benchmark command on a tiny workload with --trace 0 and 1 and
checks that every metric BENCHMARK.json names is emitted with its unit.
Runs a tiny copy of each real workload's solve list with --trace 1 and
checks that no per-layer metric reads 0 on it.  Then checks that the
correctness gate passes good solutions and flags a deliberately perturbed
one, and that a pass converts seconds to probe sweeps by the probe time
around each call.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from gate import check_solutions  # noqa: E402
from worker import import_sgfem, timed_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIZE = {"N": 2, "P": 2, "n": 4}
TINY = dict(SIZE, solves=[["mb", None], ["kron", None], ["gs", None],
                          ["hs", None], ["ahs", None], ["ahgs", None],
                          ["hs", 1]])


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def run_tiny(trace: int, spec: dict = TINY, name: str = "tiny") -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds",
                         "0", "--trace", str(trace)], workloads={name: spec})
    lines = out.getvalue().strip().splitlines()
    expect(code == 0, f"{name} --trace {trace} exits 0")
    env = json.loads(lines[-2])["env"]
    expect({"nproc", "python", "numpy", "scipy", "blas", "blas_threads_env",
            "git_commit"} <= set(env), f"--trace {trace} prints the "
           "environment block")
    return json.loads(lines[-1])


def check_metrics(result: dict, declared: list, mode: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}
           and result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{mode}: result line shape")
    emitted = result["metrics"]
    for m in declared:
        got = emitted.get(m["name"])
        expect(got is not None and got["unit"] == m["unit"]
               and isinstance(got["value"], (int, float)),
               f"{mode}: {m['name']} emitted in {m['unit']}")
    expect(set(emitted) == {m["name"] for m in declared},
           f"{mode}: no metric beyond those declared")


def check_gate() -> None:
    sg = import_sgfem()
    op, b = sg.build_problem(TINY["N"], TINY["P"], TINY["n"], 100.0)
    runs = []
    for kind in ("mb", "hs", "ahgs"):
        pre = sg.make_preconditioner(op, kind)
        x, rep = sg.flexible_cg(op.matvec, pre.apply, b, tol=run.TOL)
        runs.append((kind, x, rep, pre))
    expect(all(not c["reasons"] for c in check_solutions(op, b, runs,
                                                         run.TOL)),
           "gate passes converged solutions")

    label, x, rep, pre = runs[1]
    bad = x.copy()
    bad[len(bad) // 2] += 1e-5 * abs(bad).max()
    checks = check_solutions(op, b, [runs[0], (label, bad, rep, pre)],
                             run.TOL)
    reasons = " ".join(checks[1]["reasons"])
    expect("relative residual" in reasons and "differs from" in reasons,
           "gate flags a perturbed solution by residual and by agreement")


class SteadyProbe:
    """A probe whose every sample reads the same time."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(self.seconds)


def check_probe_units() -> None:
    sg = import_sgfem()
    probe = SteadyProbe(0.25)
    *_, figures = timed_pass(sg, TINY, 100.0, run.TOL, run.MAXIT,
                             probe=probe)
    expect(len(probe.samples) == 2 * len(TINY["solves"]) + 2,
           "the probe is sampled before each library call and after the last")
    expect(abs(figures["total_sweeps"] * 0.25 - figures["total_s"])
           <= 1e-9 * figures["total_s"]
           and abs(figures["solve_sweeps"] * 0.25 - figures["solve_s"])
           <= 1e-9 * figures["solve_s"],
           "sweeps are seconds over the probe time")


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_metrics(run_tiny(0), bench["end_to_end"], "--trace 0")
    traced = run_tiny(1)
    check_metrics(traced, bench["per_layer"], "--trace 1")
    for name, spec in WORKLOADS.items():
        copy = run_tiny(1, dict(SIZE, solves=spec["solves"]), f"tiny-{name}")
        zero = [k for k, v in copy["metrics"].items() if v["value"] == 0]
        expect(not zero, f"tiny-{name}: no per-layer metric reads 0"
               + (f" (0: {', '.join(zero)})" if zero else ""))
    check_probe_units()
    check_gate()


if __name__ == "__main__":
    main()
