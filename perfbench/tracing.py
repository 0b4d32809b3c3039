"""Span tracing around the public calls into each sgfem layer.

The tracer patches functions and methods of the sgfem modules from the
outside; the library itself is unchanged.  Each call records a span
(name, start, end, parent) in memory, and a layer's self time is the
duration of its spans minus the part their child spans cover.  Spans nest
strictly because the solver is single-threaded.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time

ROOT_SPAN = "bench.pass"
LAYERS = ("random_field", "chaos", "fem", "galerkin", "preconditioners",
          "krylov", "linalg")

# (module, attribute, span name): module-level functions.  Every sgfem
# module that imported the function by name gets the traced version.
FUNCTION_HOOKS = (
    ("sgfem.random_field", "discrete_kl", "random_field.discrete_kl"),
    ("sgfem.random_field", "gpc_coefficients",
     "random_field.gpc_coefficients"),
    ("sgfem.chaos", "build_c_tensor", "chaos.build_c_tensor"),
    ("sgfem.fem", "build_mesh", "fem.build_mesh"),
    ("sgfem.fem", "assemble_load", "fem.assemble_load"),
    ("sgfem.fem", "assemble_stiffness_family",
     "fem.assemble_stiffness_family"),
    ("sgfem.fem", "apply_dirichlet", "fem.apply_dirichlet"),
    ("sgfem.preconditioners", "make_preconditioner", "preconditioners.setup"),
    ("sgfem.krylov", "flexible_cg", "krylov.flexible_cg"),
    ("sgfem.linalg", "factorize", "linalg.factorize"),
)

# (module, class, method, span name)
METHOD_HOOKS = (
    ("sgfem.galerkin", "GalerkinOperator", "__init__",
     "galerkin.operator_init"),
    ("sgfem.galerkin", "GalerkinOperator", "matvec", "galerkin.matvec"),
    ("sgfem.galerkin", "GalerkinOperator", "tmatvec", "galerkin.tmatvec"),
    ("sgfem.galerkin", "GalerkinOperator", "assemble_diag_block",
     "galerkin.diag_block"),
    ("sgfem.galerkin", "GalerkinOperator", "assemble_level_block",
     "galerkin.level_block"),
    ("sgfem.linalg", "Factorization", "solve", "linalg.solve"),
)

class Tracer:
    """In-memory span recorder that patches sgfem entry points.

    Use as a context manager: entering installs the hooks, leaving
    restores the original functions.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _traced(self, name: str, fn):
        spans, stack = self.spans, self._stack
        # A full matvec runs as one tmatvec over all blocks; only the
        # tmatvec calls made by preconditioners get spans of their own.
        skip_tmatvec = name == "galerkin.tmatvec"
        count_rows = name == "linalg.factorize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (skip_tmatvec and stack
                    and spans[stack[-1]][0] == "galerkin.matvec"):
                return fn(*args, **kwargs)
            if count_rows:
                self.counts["linalg.factorized_rows"] += args[0].shape[0]
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in
                   ("sgfem", "sgfem.experiments", "sgfem.random_field",
                    "sgfem.chaos", "sgfem.fem", "sgfem.galerkin",
                    "sgfem.preconditioners", "sgfem.krylov", "sgfem.linalg")]
        for module, attr, name in FUNCTION_HOOKS:
            original = getattr(sys.modules[module], attr)
            traced = self._traced(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)
        for module, cls, attr, name in METHOD_HOOKS:
            owner = getattr(sys.modules[module], cls)
            self._patch(owner, attr, self._traced(name, getattr(owner, attr)))
        pre = sys.modules["sgfem.preconditioners"]
        for cls in list(vars(pre).values()):
            if (isinstance(cls, type) and issubclass(cls, pre.Preconditioner)
                    and "apply" in vars(cls)):
                self._patch(cls, "apply",
                            self._traced("preconditioners.apply", cls.apply))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- derived figures ---------------------------------------------------

    def span_totals(self) -> dict:
        """Span name -> {"calls", "self_s"} over closed spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - covered
        return out


def layer_self_times(totals: dict) -> dict:
    """Self time per layer: the sum over that layer's span names."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, agg in totals.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += agg["self_s"]
    return out
