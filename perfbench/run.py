"""Solve benchmark for sgfem.

Usage, from the repository root:

    python3 perfbench/run.py --workload table-n10 --seed 0 --seconds 45 --trace 0

Each workload builds one stochastic Galerkin problem and solves it to
tol 1e-8 under a fixed list of preconditioners through the public path
build_problem -> make_preconditioner -> flexible_cg.  Every pass runs cold
in a fresh worker process, one at a time, with one BLAS thread.

--trace 0 measures the end-to-end metrics over cold passes, started
while they should end within --seconds (at least MIN_PASSES).  Every pass
times each library call on its own and samples a fixed probe kernel just
before and after it; total_sweeps and solve_sweeps give the time in
probe sweeps, so that the host's speed at the moment divides out.  Each
metric is the median over the passes.

--trace 1 runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.  The tracing overhead is the measured
cost of one span times the number of spans; the traced minus the untraced
total_s is printed beside it.  A traced run whose layers leave more than
UNATTRIBUTED_MAX of the pass unattributed exits with code 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A failed solve, a residual above
tol or solutions that disagree make the command exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYERS, ROOT_SPAN, layer_self_times  # noqa: E402
from workloads import MAXIT, TOL, WORKLOADS, cov_for_seed  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
MIN_PASSES = 2        # cold passes per run, at least
BUDGET_S = 170.0      # a run must end within 180 s
BLAS_THREADS = "1"    # OpenBLAS threading slows these small dense products
UNATTRIBUTED_MAX = 0.01  # share of the traced pass the layers may miss


class WorkerError(RuntimeError):
    pass


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = BLAS_THREADS
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget exhausted before the run finished")
    try:
        out = subprocess.run([sys.executable, WORKER, json.dumps(job)],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {BUDGET_S:.0f} s budget") \
            from exc
    if out.returncode != 0:
        raise WorkerError(f"worker failed with code {out.returncode}:\n"
                          f"{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def solve_failures(passes) -> tuple[int, int, list]:
    attempted, lines = 0, []
    for p in passes:
        for s in p["solves"]:
            attempted += 1
            if s["reasons"]:
                lines.append(f"{s['label']}: {'; '.join(s['reasons'])}")
    return attempted, len(lines), lines


def _metrics(rows) -> dict:
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def end_to_end(passes) -> dict:
    def med(key):
        return statistics.median(p[key] for p in passes)

    return _metrics([
        ("total_sweeps", med("total_sweeps"), "sweep"),
        ("setup_s", med("setup_s"), "s"),
        ("solve_sweeps", med("solve_sweeps"), "sweep"),
        ("iterations", statistics.median_low(p["iterations"] for p in passes),
         "count"),
        ("kappa_max", med("kappa_max"), "ratio"),
        ("peak_rss_mb", med("peak_rss_mb"), "MB"),
    ])


def per_layer(traced) -> dict:
    """Per-layer figures of the traced pass.  A ``_s`` figure of one
    function is the self time of its spans."""
    spans = traced["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    layers = layer_self_times(spans)
    n_spans = sum(agg["calls"] for agg in spans.values())
    return _metrics([
        ("random_field.discrete_kl_s", self_s("random_field.discrete_kl"),
         "s"),
        ("random_field.gpc_coefficients_s",
         self_s("random_field.gpc_coefficients"), "s"),
        ("chaos.build_c_tensor_s", self_s("chaos.build_c_tensor"), "s"),
        ("chaos.tensor_nnz", traced["tensor_nnz"], "count"),
        ("fem.assemble_stiffness_family_s",
         self_s("fem.assemble_stiffness_family"), "s"),
        ("fem.apply_dirichlet_s", self_s("fem.apply_dirichlet"), "s"),
        ("galerkin.matvec_calls", calls("galerkin.matvec"), "count"),
        ("galerkin.matvec_s", self_s("galerkin.matvec"), "s"),
        ("galerkin.tmatvec_calls", calls("galerkin.tmatvec"), "count"),
        ("galerkin.tmatvec_s", self_s("galerkin.tmatvec"), "s"),
        ("galerkin.products", traced["counters"]["products"], "count"),
        ("galerkin.summations", traced["counters"]["summations"], "count"),
        ("galerkin.diag_block_s", self_s("galerkin.diag_block"), "s"),
        # diagonal plus level blocks: level blocks alone read 0 where no
        # exact hs runs, and a time that never varies is no measurement
        ("galerkin.block_assembly_s",
         self_s("galerkin.diag_block") + self_s("galerkin.level_block"), "s"),
        ("galerkin.matvec_flops_computed", traced["matvec_cost"]["flops"],
         "flop"),
        ("galerkin.matvec_bytes_computed", traced["matvec_cost"]["bytes"],
         "B"),
        ("preconditioners.setup_s", self_s("preconditioners.setup"), "s"),
        ("preconditioners.apply_calls", calls("preconditioners.apply"),
         "count"),
        ("preconditioners.apply_self_s", self_s("preconditioners.apply"),
         "s"),
        ("krylov.matvecs", sum(s["matvecs"] for s in traced["solves"]),
         "count"),
        ("linalg.factorize_calls", calls("linalg.factorize"), "count"),
        ("linalg.factorize_s", self_s("linalg.factorize"), "s"),
        ("linalg.factorized_rows",
         traced["counts"].get("linalg.factorized_rows", 0), "count"),
        ("linalg.solve_calls", calls("linalg.solve"), "count"),
        ("linalg.solve_s", self_s("linalg.solve"), "s"),
        *((f"{layer}.self_s", layers[layer], "s") for layer in LAYERS),
        ("trace.unattributed_s", self_s(ROOT_SPAN), "s"),
        ("trace.overhead_s", traced["span_cost_s"] * n_spans, "s"),
        ("trace.spans", n_spans, "count"),
    ])


def measure(spec: dict, cov: float, seconds: float, trace: bool) -> dict:
    """Run the workers of one benchmark run and aggregate their output."""
    deadline = time.monotonic() + BUDGET_S
    job = {"spec": spec, "cov": cov, "tol": TOL, "maxit": MAXIT,
           "trace": False}
    if trace:
        untraced = run_worker(job, deadline)
        traced = run_worker(dict(job, trace=True), deadline)
        passes = [untraced, traced]
        metrics = per_layer(traced)
        value = {name: m["value"] for name, m in metrics.items()}
        layers = sum(value[f"{layer}.self_s"] for layer in LAYERS)
        share = value["trace.unattributed_s"] / traced["total_s"]
        notes = [f"self times: layers {layers:.4f} s + unattributed "
                 f"{value['trace.unattributed_s']:.4f} s "
                 f"({100 * share:.3f} %) = traced total "
                 f"{traced['total_s']:.4f} s",
                 f"tracing overhead: {value['trace.spans']} spans x "
                 f"{1e6 * traced['span_cost_s']:.3f} us = "
                 f"{value['trace.overhead_s']:.4f} s; traced minus untraced "
                 f"total_s {traced['total_s'] - untraced['total_s']:+.4f} s"]
        if not share <= UNATTRIBUTED_MAX:
            raise WorkerError(
                f"the traced layers miss {100 * share:.2f} % of the pass "
                f"(limit {100 * UNATTRIBUTED_MAX:.0f} %)")
    else:
        passes, last_s = [], 0.0
        start = time.monotonic()
        # Start a pass while it should end within --seconds; a pass lasts
        # about as long as the one before it.
        while (len(passes) < MIN_PASSES
               or (time.monotonic() - start + last_s <= seconds
                   and time.monotonic() + 2.0 * last_s < deadline)):
            t0 = time.monotonic()
            passes.append(run_worker(job, deadline))
            last_s = time.monotonic() - t0
        metrics = end_to_end(passes)
        notes = [f"passes {len(passes)}, each: " + ", ".join(
            f"total_s {p['total_s']:.4f} setup_s {p['setup_s']:.4f} "
            f"solve_s {p['solve_s']:.4f} probe_s {p['probe_s']:.6f}"
            for p in passes)]
    attempted, failed, failures = solve_failures(passes)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "notes": notes, "passes": passes}


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = workloads[args.workload]
    cov = cov_for_seed(args.seed)
    try:
        run = measure(spec, cov, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = run["passes"][0]
    env = dict(first["env"], git_commit=git_commit())
    print(f"workload {args.workload} seed {args.seed} cov {cov!r} % "
          f"trace {args.trace}")
    for p in run["passes"]:
        for s in p["solves"]:
            print(f"  {s['label']:<12} it {s['iterations']:4d}  "
                  f"kappa {s['kappa']:8.3f}  relres {s['relres']:.2e}")
    for note in run["notes"]:
        print(f"  {note}")
    print(f"  solves_failed {run['failed']}/{run['attempted']}")
    for line in run["failures"]:
        print(f"  FAILED {line}")
    for name, m in run["metrics"].items():
        print(f"  {name:<36} {m['value']!r} {m['unit']}")
    print(json.dumps({"env": env}))
    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
