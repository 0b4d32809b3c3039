"""Conjugate gradient solvers and the Lanczos condition estimate.

``flexible_cg`` is the workhorse: the search direction update uses the
Polak-Ribiere-style coefficient built from successive preconditioned
residual differences, so preconditioners that are themselves iterative
(inner Krylov solves) remain admissible.  ``pcg`` is the textbook method
kept as an independent oracle: with a fixed SPD preconditioner both must
produce the same iterates.

Both solvers start from the zero vector, test convergence on the true
relative residual carried by the recurrence (explicitly refreshed every 50
iterations and at acceptance), and record the α/β coefficients from which
the Lanczos tridiagonal gives the condition number estimate of the
preconditioned operator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

_REFRESH = 50  # explicit residual recomputation period


@dataclass
class SolveReport:
    """Outcome of one CG solve.

    ``residuals[k]`` is the relative residual after iteration k+1;
    ``kappa`` estimates cond(M⁻¹A) from the Lanczos tridiagonal (1 when
    fewer than 2 iterations ran); ``matvecs`` counts operator
    applications including residual refreshes.  ``rho_history[k]`` is
    r·M⁻¹r of the residual entering iteration k+1, so entry 0 is b·M⁻¹b
    and the list has one entry per iteration.  The residual of the
    returned iterate is never preconditioned, so its r·M⁻¹r is not
    recorded: a caller that needs it applies M⁻¹ once more.
    """

    iterations: int = 0
    residuals: list = field(default_factory=list)
    kappa: float = 1.0
    wall_time: float = 0.0
    matvecs: int = 0
    converged: bool = False
    breakdown: bool = False
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    rho_history: list = field(default_factory=list)


def lanczos_condition_estimate(alphas, betas) -> float:
    """κ = λ_max/λ_min of the Lanczos tridiagonal built from CG
    coefficients.

    T[k,k] = 1/α_k + β_{k−1}/α_{k−1} (first term only for k=0) and
    T[k,k+1] = sqrt(max(β_k, 0))/α_k.  Fewer than 2 iterations give
    κ = 1, and a smallest eigenvalue of T that is not positive κ = inf.
    """
    if len(alphas) < 2:
        return 1.0
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas[:len(a) - 1], dtype=float)
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    off = np.sqrt(np.maximum(b, 0.0)) / a[:-1]
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals = np.linalg.eigh(T)[0]  # ascending
    if vals[0] <= 0:
        return float("inf")
    return float(vals[-1] / vals[0])


def _run_cg(apply_A, apply_M, b, tol, maxit, flexible):
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tol must be positive, got {tol}")
    if maxit < 0:
        raise ValueError(f"maxit must be non-negative, got {maxit}")
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side b has non-finite entries")
    t0 = time.perf_counter()
    report = SolveReport()
    x = np.zeros_like(b)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        report.converged = True
        report.wall_time = time.perf_counter() - t0
        return x, report

    r = b.copy()
    z = apply_M(r)
    p = z.copy()
    rho = float(r @ z)
    for k in range(maxit):
        if not math.isfinite(rho):
            report.breakdown = True
            break
        q = apply_A(p)
        report.matvecs += 1
        pAp = float(p @ q)
        if not 0.0 < pAp < math.inf:
            report.breakdown = True
            break
        alpha = rho / pAp
        x += alpha * p
        r_old = r if flexible else None  # r is rebound, never written
        r = r - alpha * q
        if (k + 1) % _REFRESH == 0:
            r = b - apply_A(x)
            report.matvecs += 1
        relres = float(np.linalg.norm(r) / norm_b)
        report.iterations = k + 1
        report.alphas.append(alpha)
        report.residuals.append(relres)
        report.rho_history.append(rho)
        if relres <= tol:
            # accept only a verified true residual
            r_true = b - apply_A(x)
            report.matvecs += 1
            relres = float(np.linalg.norm(r_true) / norm_b)
            report.residuals[-1] = relres
            if relres <= tol:
                report.converged = True
                break
            r = r_true
        z = apply_M(r)
        if flexible:
            beta = float(z @ (r - r_old)) / rho
            rho = float(r @ z)
        else:
            rho_new = float(r @ z)
            beta = rho_new / rho
            rho = rho_new
        report.betas.append(beta)
        p = z + beta * p

    report.kappa = lanczos_condition_estimate(report.alphas, report.betas)
    report.wall_time = time.perf_counter() - t0
    return x, report


def flexible_cg(apply_A, apply_M, b, tol: float = 1e-8, maxit: int = 1000
                ) -> tuple[np.ndarray, SolveReport]:
    """Flexible preconditioned CG from a zero initial guess.

    Converges when ‖b − Ax‖/‖b‖ ≤ tol; a non-converged or broken-down run
    returns the last iterate with the flags set and does not raise.  A
    p·Ap that is not positive and finite, or a non-finite r·M⁻¹r, is a
    breakdown.  A tol that is not positive (NaN included), a negative
    maxit or a non-finite entry of b raises ValueError before any work.
    """
    return _run_cg(apply_A, apply_M, b, tol, maxit, flexible=True)


def pcg(apply_A, apply_M, b, tol: float = 1e-8, maxit: int = 1000
        ) -> tuple[np.ndarray, SolveReport]:
    """Standard preconditioned CG (fixed-preconditioner oracle); arguments
    and checks as in ``flexible_cg``."""
    return _run_cg(apply_A, apply_M, b, tol, maxit, flexible=False)

