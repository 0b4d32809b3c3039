"""One cold benchmark pass, run in its own process.

Usage: python3 perfbench/worker.py '<job json>'

The job names a workload spec, the CoV and whether to trace.  The worker
builds the problem, runs every solve, checks the solutions and prints one
JSON object as the last line of its standard output.  An untraced pass
also samples the HostProbe between its library calls.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from gate import check_solutions
from tracing import ROOT_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_sgfem():
    """Import sgfem from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sgfem", "__init__.py")):
        raise SystemExit(f"sgfem sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import sgfem
    return sgfem


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                             if k in os.environ},
    }


def _truncation(sg, spec, lt):
    return None if lt is None else sg.standard_truncation(spec["N"], lt)


def matvec_cost(op) -> dict:
    """Computed (not measured) work of one full matvec.

    flops: 2·nnz(K) per K_i v_(k) product, as counted by ``products``, and
    2·n_dof per tensor term, as counted by ``summations``.  bytes: the
    compulsory traffic, each stored K_i, the input, the output and the
    tensor read or written once.
    """
    before = dict(op.counters)
    op.matvec(np.ones(op.n_global))
    products = op.counters["products"] - before["products"]
    summations = op.counters["summations"] - before["summations"]
    op.counters.update(before)
    K = op.k_mats[0]
    t = op.tensor
    k_bytes = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    tensor_bytes = t.i.nbytes + t.j.nbytes + t.k.nbytes + t.val.nbytes
    return {
        "flops": 2 * K.nnz * products + 2 * op.n_dof * summations,
        "bytes": len(op.k_mats) * k_bytes + 2 * op.n_global * 8
        + tensor_bytes,
    }


class HostProbe:
    """A fixed piece of work that uses nothing of sgfem, timed between the
    library calls of a pass to gauge how fast the host runs at that moment.

    One sweep repeats the pattern of the Galerkin matvec with the mesh's
    block size: for each of MATS random sparse matrices K (about 10 stored
    entries a row), U = K V^T over COLS vectors, then W += G U with a dense
    COLS x COLS matrix G.  Its inputs are made once, untimed: about 8 MB at
    n=32, 1 MB at n=10.  A sample is the time of one sweep, averaged over
    the whole sweeps of at least SAMPLE_S.
    """

    MATS = 60
    COLS = 35
    SAMPLE_S = 0.1

    def __init__(self, n: int):
        import scipy.sparse as sps
        size = (n + 1) ** 2
        self.mats = [(sps.random(size, size, density=9 / size,
                                 random_state=seed)
                      + sps.identity(size)).tocsr()
                     for seed in range(self.MATS)]
        rng = np.random.default_rng(0)
        self.V = rng.standard_normal((self.COLS, size))
        self.G = rng.standard_normal((self.COLS, self.COLS)) / self.COLS
        self.samples: list[float] = []

    def sample(self) -> None:
        clock = time.perf_counter
        sweeps, t0 = 0, clock()
        while sweeps == 0 or clock() - t0 < self.SAMPLE_S:
            W = np.zeros_like(self.V)
            for K in self.mats:
                W += self.G @ (K @ self.V.T).T
            sweeps += 1
        self.samples.append((clock() - t0) / sweeps)


def timed_pass(sg, spec, cov, tol, maxit, tracer=None, probe=None):
    """Setup and every solve, each call timed on its own.  A probe, if
    given, is sampled before each call and after the last, outside the
    call times."""
    clock = time.perf_counter
    if tracer is not None:
        tracer.open(ROOT_SPAN)
    segments = {}

    def timed(name, call):
        if probe is not None:
            probe.sample()
        t0 = clock()
        out = call()
        segments[name] = clock() - t0
        return out

    op, b = timed("setup:build_problem", lambda: sg.build_problem(
        spec["N"], spec["P"], spec["n"], cov))
    runs = []
    for kind, lt in spec["solves"]:
        label = kind if lt is None else f"{kind}:lt={lt}"
        pre = timed(f"setup:{label}", lambda: sg.make_preconditioner(
            op, kind, _truncation(sg, spec, lt)))
        x, rep = timed(f"solve:{label}", lambda: sg.flexible_cg(
            op.matvec, pre.apply, b, tol=tol, maxit=maxit))
        runs.append((label, x, rep, pre))
    if probe is not None:
        probe.sample()
    if tracer is not None:
        tracer.close()

    def total(prefix, values):
        return sum(v for name, v in values.items() if name.startswith(prefix))

    figures = {
        "total_s": sum(segments.values()),
        "setup_s": total("setup:", segments),
        "solve_s": total("solve:", segments),
        "iterations": sum(run[2].iterations for run in runs),
        "kappa_max": max(run[2].kappa for run in runs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": dict(op.counters),
    }
    if probe is not None:
        # each call in sweeps of the probe, timed just before and after it
        s = probe.samples
        sweeps = {name: t / (0.5 * (s[i] + s[i + 1]))
                  for i, (name, t) in enumerate(segments.items())}
        figures.update(total_sweeps=sum(sweeps.values()),
                       solve_sweeps=total("solve:", sweeps),
                       probe_s=statistics.median(s))
    return op, b, runs, figures


def checked(op, b, runs, figures, tol) -> dict:
    """The pass figures plus the correctness gate and the computed costs."""
    checks = check_solutions(op, b, runs, tol)
    for check, (_, _, rep, _) in zip(checks, runs):
        check.update(iterations=rep.iterations, kappa=rep.kappa,
                     matvecs=rep.matvecs)
    return dict(figures, solves=checks, tensor_nnz=op.tensor.nnz,
                matvec_cost=matvec_cost(op))


def span_cost(calls: int = 50_000) -> float:
    """Measured cost of one span: a call through an empty traced wrapper
    minus the bare call, the median of five rounds."""
    def nothing():
        return None

    tracer = Tracer()
    traced = tracer._traced("calibrate", nothing)
    clock = time.perf_counter
    rounds = []
    for _ in range(5):
        t0 = clock()
        for _ in range(calls):
            nothing()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        rounds.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(rounds)


def main(argv):
    job = json.loads(argv[1])
    sg = import_sgfem()
    spec, cov = job["spec"], job["cov"]
    if job["trace"]:
        with Tracer() as tracer:
            timed = timed_pass(sg, spec, cov, job["tol"], job["maxit"], tracer)
        result = checked(*timed, job["tol"])
        result["spans"] = tracer.span_totals()
        result["counts"] = dict(tracer.counts)
        result["span_cost_s"] = span_cost()
    else:
        timed = timed_pass(sg, spec, cov, job["tol"], job["maxit"],
                           probe=HostProbe(spec["n"]))
        result = checked(*timed, job["tol"])
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
