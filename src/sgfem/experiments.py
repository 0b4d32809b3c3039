"""Experiment driver: parameter sweeps, count and norm reports, case export.

Builds the lognormal-diffusion block systems at a given configuration,
solves them with flexible CG under each requested preconditioner and
collects (iterations, condition estimate) rows shaped like the report
tables.  All runs are deterministic; re-running any command reproduces
its output bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .chaos import build_c_tensor, write_c_tensor
from .fem import assemble_load, build_mesh, dirichlet_nnz
from .galerkin import (
    GalerkinOperator,
    adaptive_truncation,
    standard_truncation,
)
from .krylov import flexible_cg
from .linalg import check_fits, write_matrix_market
from .preconditioners import KINDS, make_preconditioner
from .random_field import (
    ExponentialCovariance,
    check_kl_modes,
    discrete_kl,
    field_parameters,
    gpc_coefficients,
)

# column labels used in report headers, keyed by preconditioner kind
LABELS = {"mb": "mb", "kron": "K", "hs": "hS", "ahs": "ahS", "gs": "GS",
          "ahgs": "ahGS"}

# preconditioners compared in the truncation tables
TRUNC_KINDS = ("hs", "ahs", "gs", "ahgs")

# fixed CoV (percent) for the sweeps that do not vary it
DEFAULT_COV = 100.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the sweeps.  The expansion degree of the coefficient is
    always twice the solution degree.  CoV values are positive percentages;
    ``cov_list`` drives the CoV-iterating tables while the fixed-CoV
    sweeps run at 100%."""

    N: int = 4
    P: int = 4
    n: int = 10
    cov_list: tuple = (25.0, 50.0, 75.0, 100.0, 125.0, 150.0)
    mu_log: float = 1.0
    L: float = 0.5
    preconds: tuple = ("mb", "kron", "hs", "ahs", "gs", "ahgs")
    lt_list: tuple = (0, 1, 2, 3, 4, 8)
    tau_list: tuple = (100.0, 10.0, 1.0, 0.1, 0.0)
    mesh_list: tuple = (5, 10, 15, 20)
    tol: float = 1e-8
    maxit: int = 1000
    sigma_mode: str = "moment"
    norm: str = "frob"

    def __post_init__(self):
        if self.sigma_mode not in ("moment", "gaussian"):
            raise ValueError(f"unknown sigma mode {self.sigma_mode!r}")
        if self.norm not in ("frob", "two"):
            raise ValueError(f"unknown norm {self.norm!r}")
        for kind in self.preconds:
            if kind not in KINDS:
                raise ValueError(f"unknown preconditioner {kind!r}")
        for f in fields(self):
            if getattr(self, f.name) == ():
                raise ValueError(f"config field {f.name} must have at "
                                 f"least one entry")
        # each entry of a list field; the comparisons fail on NaN
        checks = [(name, f">= {low}", lambda v, low=low: v >= low)
                  for name, low in (("N", 1), ("P", 0), ("n", 1),
                                    ("maxit", 0), ("lt_list", 0),
                                    ("tau_list", 0), ("mesh_list", 1))]
        checks += [(name, "> 0", lambda v: v > 0)
                   for name in ("tol", "mu_log", "L", "cov_list")]
        checks += [(name, "finite", math.isfinite)
                   for name in ("tol", "mu_log", "L", "cov_list")]
        for name, rule, ok in checks:
            value = getattr(self, name)
            entries = value if isinstance(value, tuple) else (value,)
            if not all(ok(v) for v in entries):
                raise ValueError(f"config field {name} must be {rule}, "
                                 f"got {value!r}")


# ReportRow: a dict mapping column name -> cell value (int, float or str).


@dataclass(frozen=True)
class Report:
    """A named table: ordered column names plus one dict per row."""

    name: str
    columns: tuple
    rows: tuple


_INT_KEYS = ("N", "P", "ndof", "lt", "n_mats", "nnz")


def _format_cell(key, value):
    if value is None or value == "":
        return ""
    if key.endswith("kappa"):
        return f"{value:.2f}" if np.isfinite(value) else "inf"
    if key.endswith("_it") or key in _INT_KEYS:
        return str(int(value))
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def report_csv(report: Report) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_format_cell(c, row.get(c, ""))
                              for c in report.columns))
    return "\n".join(lines) + "\n"


def report_markdown(report: Report) -> str:
    head = "| " + " | ".join(report.columns) + " |"
    sep = "|" + "|".join(" --- " for _ in report.columns) + "|"
    lines = [head, sep]
    for row in report.rows:
        cells = [_format_cell(c, row.get(c, "")) for c in report.columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def _cached_tensor(N, P, pprime):
    return build_c_tensor(N, P, pprime)


@functools.lru_cache(maxsize=8)
def _cached_mesh(n):
    return build_mesh(n)


def check_problem(N, P, n) -> None:
    """Refuse, before any work, what :func:`build_problem` cannot build:
    more KL modes than the (n + 1)² mesh nodes (ValueError), or what the
    operator holds past physical memory (MemoryError): K_0's data, nnz
    doubles on the Dirichlet pattern (:func:`~sgfem.fem.dirichlet_nnz`),
    and what it keeps for each of the 4n² points once it has multiplied
    and filled a band: the n₁² + n₂² doubles of the Gauss-point
    product's stored factors A_q and B_q, for the half-grid sizes
    n₁ = C(⌊N/2⌋ + P, P) and n₂ = C(⌈N/2⌉ + P, P), from which the band
    fills read their pair fields too, the mean and the N modes, 104
    bytes of the gradient matrix (two rows of four entries and an int32
    column each, and two int32 row pointers) and 32 of the slot map that
    every assembly on the mesh shares (four int64 slots).  The other
    K_i, up to C(N + 2P, N), are assembled and checked by what reads
    them (:meth:`~sgfem.galerkin.GalerkinOperator.family`).  Other
    arguments that :func:`build_problem` rejects pass; it names them."""
    if P < 0 or n < 1:
        return
    check_kl_modes(N, (n + 1) ** 2)
    points = 4 * n * n
    n1, n2 = math.comb(N // 2 + P, P), math.comb(N - N // 2 + P, P)
    doubles = n1 * n1 + n2 * n2 + N + 1
    check_fits(8 * dirichlet_nnz(n) + points * (8 * doubles + 136), lambda: (
        f"the problem at N = {N}, P = {P}, n = {n}, its K_0 and its "
        f"Gauss-point data, needs"))


def build_problem(N, P, n, cov_pct, mu_log=1.0, L=0.5,
                  sigma_mode="moment"):
    """Assemble the block operator and right-hand side for one setup.

    Returns (op, b).  The right-hand side carries the unit load in the
    mean block; boundary rows are constrained to zero.  The operator
    assembles K_0, treated by :func:`~sgfem.fem.apply_dirichlet`, and
    holds the field at the Gauss points, where its full product runs
    (:meth:`~sgfem.galerkin.GalerkinOperator.matvec`); it assembles other
    K_i only for what reads them.  The KL modes and the bytes
    of what the operator holds are checked before any work
    (:func:`check_problem`).
    """
    check_problem(N, P, n)
    mesh = _cached_mesh(n)
    g0, sg = field_parameters(mu_log, cov_pct / 100.0, sigma_mode)
    kl = discrete_kl(mesh, ExponentialCovariance(sg, L), N, g0=g0)
    tensor = _cached_tensor(N, P, 2 * P)
    coeffs = gpc_coefficients(kl, tensor.iset, mesh)
    op = GalerkinOperator(tensor, coeffs, mesh)
    b = np.zeros(op.n_global)
    b[:op.n_dof] = assemble_load(mesh, 1.0)
    b[mesh.boundary] = 0.0
    return op, b


def _problem(config, **vary):
    """build_problem at the config's settings and the default CoV, with
    ``vary`` (build_problem arguments) on top."""
    args = dict(N=config.N, P=config.P, n=config.n, cov_pct=DEFAULT_COV,
                mu_log=config.mu_log, L=config.L,
                sigma_mode=config.sigma_mode)
    args.update(vary)
    return build_problem(**args)


def matrix_norm(K, which="frob"):
    """Frobenius norm, or the two-norm estimated by power iteration with
    a fixed starting vector.  The iteration runs on K'K so indefinite
    matrices with near-tied extreme eigenvalues still converge."""
    if which == "frob":
        return float(np.linalg.norm(K.data))
    if which != "two":
        raise ValueError(f"unknown norm {which!r}")
    m = K.shape[0]
    v = 1.0 + np.arange(m) / m  # deterministic, not an eigenvector
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(1000):
        w = K.T @ (K @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ (K.T @ (K @ v)))
        if abs(lam_new - lam) <= 1e-14 * max(abs(lam_new), 1.0):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(abs(lam)))


def stiffness_norms(op: GalerkinOperator, which="frob") -> np.ndarray:
    family = op.family(range(len(op.tensor.iset)), "the stiffness norms")
    return np.array([matrix_norm(K, which)
                     for K in op.family_matrices(family)])


def count_pattern(tensor, indices):
    """(nnz of the union (j,k) pattern, total retained tensor entries)
    over the retained coefficient indices."""
    keep = np.isin(tensor.i, np.asarray(indices))
    m1 = len(tensor.jkset)
    pairs = np.unique(tensor.j[keep] * m1 + tensor.k[keep])
    return int(pairs.size), int(np.count_nonzero(keep))


def degree_truncation(N, P, lt):
    """The standard truncation of degree lt for a solution of degree P:
    a degree past 2P, the tensor's, keeps what 2P keeps and builds no
    larger index set."""
    return standard_truncation(N, min(lt, 2 * P))


def emit_c_pattern(N, P, lt):
    """Counts for a standard truncation of the coefficient tensor."""
    tensor = _cached_tensor(N, P, 2 * P)
    return count_pattern(tensor, degree_truncation(N, P, lt).indices)


def _solve_row(op, b, kinds, config, trunc=None):
    """Cells for one table row; non-convergence is recorded, not raised.

    Every kind's preconditioner is made before the row's first solve, so
    a setup refused for its size refuses the row before any solve of it.
    A sweep builds its factors only at its first apply, and each
    preconditioner is dropped after its solve."""
    pres = [make_preconditioner(op, kind, trunc) for kind in kinds]
    cells = {}
    failed = []
    for kind in kinds:
        _, rep = flexible_cg(op.matvec, pres.pop(0).apply, b,
                             tol=config.tol, maxit=config.maxit)
        label = LABELS[kind]
        cells[f"{label}_it"] = rep.iterations
        cells[f"{label}_kappa"] = rep.kappa
        if not rep.converged:
            failed.append(label)
    cells["nonconverged"] = ";".join(failed)
    return cells


def _pair_columns(kinds):
    cols = []
    for kind in kinds:
        cols += [f"{LABELS[kind]}_it", f"{LABELS[kind]}_kappa"]
    return cols


# The plain sweeps, by table name: (row column, build_problem argument it
# sets, config -> swept values, swept value -> cell, rows carry ndof).
_SWEEPS = {
    "logN": ("N", "N", lambda c: range(1, c.N + 1), None, True),
    "logP": ("P", "P", lambda c: range(1, c.P + 1), None, True),
    "logCoV": ("cov", "cov_pct", lambda c: c.cov_list, None, False),
    "logh": ("h", "n", lambda c: c.mesh_list, "1/{}".format, True),
}

# The truncation set a value of "lt" (standard) or "tau" (adaptive)
# names: (config, op) -> value -> truncation set, so the norms of op an
# adaptive set reads are computed once for all the values.
TRUNCATIONS = {
    "lt": lambda c, op: functools.partial(degree_truncation, c.N, c.P),
    "tau": lambda c, op: functools.partial(
        adaptive_truncation, k_norms=stiffness_norms(op, c.norm),
        tensor=op.tensor),
}

# The truncation sweeps, one row per (CoV, swept value): (row column, a
# key of TRUNCATIONS; config field of the swept values).
_TRUNC_SWEEPS = {"trunc-std": ("lt", "lt_list"),
                 "trunc-adapt": ("tau", "tau_list")}

TABLE_KINDS = tuple(_SWEEPS) + tuple(_TRUNC_SWEEPS)


def run_table(config: ExperimentConfig, which: str) -> Report:
    """Sweep one variable, holding the rest at the defaults, and solve
    each system once per preconditioner."""
    if which in _SWEEPS:
        return _sweep_table(config, which, *_SWEEPS[which])
    if which in _TRUNC_SWEEPS:
        return _trunc_table(config, which, *_TRUNC_SWEEPS[which])
    raise ValueError(f"unknown table {which!r}; expected one of "
                     f"{TABLE_KINDS}")


def _sweep_table(config, which, column, arg, values, cell, ndof):
    values = values(config)
    for value in values:  # refuse any swept problem before the first solve
        check_problem(*(value if name == arg else getattr(config, name)
                        for name in ("N", "P", "n")))
    rows = []
    for value in values:
        op, b = _problem(config, **{arg: value})
        row = {column: value if cell is None else cell(value)}
        if ndof:
            row["ndof"] = op.n_global
        row.update(_solve_row(op, b, config.preconds, config))
        rows.append(row)
    cols = ([column] + (["ndof"] if ndof else [])
            + _pair_columns(config.preconds) + ["nonconverged"])
    return Report(which, tuple(cols), tuple(rows))


def _trunc_table(config, which, column, field):
    kinds = tuple(k for k in TRUNC_KINDS if k in config.preconds)
    if not kinds:
        raise ValueError(f"the {which} table compares "
                         f"{', '.join(TRUNC_KINDS)}; preconds names none "
                         f"of them")
    rows = []
    for cov in config.cov_list:
        op, b = _problem(config, cov_pct=cov)
        make = TRUNCATIONS[column](config, op)
        for value in getattr(config, field):
            trunc = make(value)
            _, n_mv = count_pattern(op.tensor, trunc.indices)
            row = {"cov": cov, column: value, "n_mats": len(trunc),
                   "nnz": n_mv}
            row.update(_solve_row(op, b, kinds, config, trunc))
            rows.append(row)
    cols = (["cov", column, "n_mats", "nnz"] + _pair_columns(kinds)
            + ["nonconverged"])
    return Report(which, tuple(cols), tuple(rows))


def emit_norm_decay(config: ExperimentConfig):
    """Data behind the norm-decay plots: per-matrix norms and the
    weighted coefficient matrix log10 Σ_i c_ijk ‖K_i‖.

    Returns (norms_report, weighted_report).
    """
    op, _ = _problem(config, cov_pct=config.cov_list[0])
    norms = stiffness_norms(op, config.norm)
    norm_rows = tuple({"i": i, "norm": float(v)}
                      for i, v in enumerate(norms))
    W = op.tensor.g_sum(norms)
    jj, kk = np.nonzero(W)
    weighted_rows = tuple(
        {"j": int(j), "k": int(k), "log10_weight": float(np.log10(W[j, k]))}
        for j, k in zip(jj, kk))
    return (Report("norms", ("i", "norm"), norm_rows),
            Report("weighted", ("j", "k", "log10_weight"), weighted_rows))


def export_case(config: ExperimentConfig, path, cov=DEFAULT_COV,
                cap=5000):
    """Write one problem instance to ``path``: the stiffness matrices in
    Matrix Market form, the coefficient tensor as text triples, the load
    vector, and the dense global matrix when its size is under ``cap``.

    Returns a manifest dict mapping artifact names to file paths (the
    "global" entry holds a refusal message when the cap is exceeded).
    Raises :class:`MemoryError` before any file is written when the
    dense global matrix the cap admits, or the stiffness family that
    the export reads, exceeds physical memory.
    """
    op, b = _problem(config, cov_pct=cov)
    n = op.n_global
    if n <= cap:
        check_fits(8 * n * n, lambda: (
            f"the dense global matrix of {n} rows needs"),
            f"; a cap below {n} skips it")
    kdata = op.family(range(len(op.tensor.iset)), "sg export")
    family = op.family_matrices(kdata)
    manifest = {}
    try:
        os.makedirs(path, exist_ok=True)
        for i, K in enumerate(family):
            fname = os.path.join(path, f"k_{i:04d}.mtx")
            write_matrix_market(fname, K)
            manifest[f"k_{i:04d}"] = fname
        fname = os.path.join(path, "c_tensor.txt")
        write_c_tensor(fname, op.tensor)
        manifest["c_tensor"] = fname
        fname = os.path.join(path, "load.mtx")
        write_matrix_market(fname, b.reshape(-1, 1))
        manifest["load"] = fname
        if n <= cap:
            A = op.assemble_global_dense(cap=cap, kdata=kdata)
            fname = os.path.join(path, "global.mtx")
            write_matrix_market(fname, A)
            manifest["global"] = fname
        else:
            manifest["global"] = (f"refused: size {n} exceeds cap {cap}; "
                                  f"rerun with cap >= {n}")
    except OSError as exc:
        raise OSError(f"export to {path!s} failed: {exc}") from exc
    return manifest


def parse_config_text(text: str) -> dict:
    """Flat key=value lines into typed config fields.  '#' starts a
    comment; blank lines are skipped.  Each value converts to the type of
    the field's default; a list field splits on commas and converts each
    entry to the type of the default's entries."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got "
                             f"{raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                conv = type(default[0])
                out[key] = tuple(conv(v.strip())
                                 for v in value.split(",") if v.strip())
            else:
                out[key] = type(default)(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return out


def load_config(path=None, **overrides) -> ExperimentConfig:
    """Config file first, then explicit overrides (CLI flags) on top."""
    values = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    return ExperimentConfig(**values)

