"""The bench's in-process path on a tiny problem: ``perfbench/worker.py``'s
``timed_pass`` and ``checked``, untraced and inside the bench tracer, as a
bench worker runs them.  A rename or a changed result in the package that
the bench relies on fails here, before a bench run reports it as a failed
run.  The traced pass's 1 % unattributed bound is checked by
``perfbench/selftest.py``, not here: at this size it is timing noise."""

import json
import os
import sys

import pytest

import sgfem as sg
import sgfem.experiments as experiments
from sgfem.preconditioners import KINDS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
# the bench's modules import each other by name, as scripts do
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import tracing  # noqa: E402
from worker import HostProbe, checked, span_cost, timed_pass  # noqa: E402

TINY = {"N": 1, "P": 1, "n": 2,
        "solves": [[kind, None] for kind in KINDS] + [["gs", 1]]}


def declared(kind: str) -> set:
    """The metric names ``BENCHMARK.json`` declares under ``kind``."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def bench_pass(tracer=None, probe=None) -> dict:
    result = checked(*timed_pass(sg, TINY, 100.0, run.TOL, run.MAXIT,
                                 tracer=tracer, probe=probe), run.TOL)
    assert [s["reasons"] for s in result["solves"]] == \
        [[]] * len(TINY["solves"])
    return result


@pytest.fixture(scope="module")
def untraced():
    probe = HostProbe(TINY["n"])
    probe.SAMPLE_S = 0.0  # one probe sweep a sample: the units, not a time
    return bench_pass(probe=probe)


@pytest.fixture(scope="module")
def traced():
    # a cached tensor or mesh would leave build_c_tensor or build_mesh
    # without a span
    experiments._cached_tensor.cache_clear()
    experiments._cached_mesh.cache_clear()
    with tracing.Tracer() as tracer:
        result = bench_pass(tracer)
    result["spans"] = tracer.span_totals()
    result["counts"] = dict(tracer.counts)
    result["span_cost_s"] = span_cost(calls=1000)
    return result


def test_untraced_pass_gives_every_end_to_end_figure(untraced):
    metrics = run.end_to_end([untraced])
    assert set(metrics) == declared("end_to_end")
    assert metrics["iterations"]["value"] > 0


def test_traced_pass_gives_every_per_layer_figure(traced):
    metrics = run.per_layer(traced)
    assert set(metrics) == declared("per_layer")


def test_traced_pass_counts_the_operator_work(traced):
    """The per-layer figures derived from the operator's counters are
    not 0: the full product counts its tensor terms without running a
    K_i product, and the sweeps' pushes run K_i products."""
    metrics = run.per_layer(traced)
    for name in ("galerkin.products", "galerkin.summations",
                 "galerkin.matvec_flops_computed",
                 "galerkin.matvec_bytes_computed"):
        assert metrics[name]["value"] > 0, name


def test_traced_pass_has_a_span_in_every_layer(traced):
    layers = {name.split(".", 1)[0] for name in traced["spans"]}
    assert set(tracing.LAYERS) <= layers


def test_traced_pass_has_a_span_for_every_hook(traced):
    """Every hooked function and method, and every preconditioner's
    apply, is on the pass's path: a change that moved one of them off
    it would leave a per-layer figure reading 0."""
    hooks = [hook[-1] for hook in tracing.FUNCTION_HOOKS
             + tracing.METHOD_HOOKS] + ["preconditioners.apply"]
    assert [name for name in hooks
            if traced["spans"].get(name, {}).get("calls", 0) < 1] == []


def test_tracer_restores_the_package(traced):
    """Leaving the tracer puts every patched function back."""
    assert sg.flexible_cg.__module__ == "sgfem.krylov"
    assert not hasattr(sg.flexible_cg, "__wrapped__")
