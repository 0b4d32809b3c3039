"""Correctness gate for the solutions of one benchmark pass.

The gate trusts nothing the solver reports except its Lanczos condition
estimate.  For every solution x it recomputes the relative residual
‖b − A x‖/‖b‖ with ``op.matvec`` and requires it to meet the solve
tolerance.  It then checks that all solutions on one operator agree.

Agreement bound.  For a solution x with residual r = b − A x and an SPD
preconditioner M, ‖x − x*‖_A² = r·A⁻¹r ≤ r·M⁻¹r / λ_min(M⁻¹A) and
‖x*‖_A² = b·A⁻¹b ≥ b·M⁻¹b / λ_max(M⁻¹A), so

    ‖x − x*‖_A / ‖x*‖_A ≤ sqrt(κ(M⁻¹A)) · ‖r‖_{M⁻¹} / ‖b‖_{M⁻¹},

with ‖v‖_{M⁻¹}² = v·M⁻¹v computed by one apply of the run's own
preconditioner.  The gate scales this bound from the run's measured
2-norm residual to the tolerance, i.e. multiplies it by tol/(‖r‖/‖b‖):
for a solution that meets tol the scaled bound is at least the true one,
and a solution that misses tol is held to what a solution at tol could be
off by.  Two solutions a and b may differ by the sum of their two bounds.
The Lanczos κ underestimates the true one; the factor SAFETY covers that.
"""

from __future__ import annotations

import math

import numpy as np

SAFETY = 10.0


def _a_norm(op, v) -> float:
    return math.sqrt(max(float(v @ op.matvec(v)), 0.0))


def _error_bound(op, pre, b, x, kappa, tol) -> float:
    """Bound on ‖x − x*‖_A / ‖x*‖_A for a residual of tol, in the run's
    preconditioner norm."""
    r = b - op.matvec(x)
    r_2 = float(np.linalg.norm(r))
    if r_2 == 0.0:
        return 0.0
    r_m = math.sqrt(max(float(r @ pre.apply(r)), 0.0))
    b_m = math.sqrt(float(b @ pre.apply(b)))
    return (SAFETY * math.sqrt(kappa) * tol * (r_m / r_2)
            / (b_m / float(np.linalg.norm(b))))


def check_solutions(op, b, runs, tol):
    """Check solutions ``runs = [(label, x, report, preconditioner)]``.

    Returns one dict per run with the measured residual, the A-norm
    distance to the first run's solution and its bound, and the reasons
    the run failed (empty when it passed).
    """
    norm_b = float(np.linalg.norm(b))
    ref_label, ref_x, ref_rep, ref_pre = runs[0]
    ref_norm = _a_norm(op, ref_x)
    ref_bound = _error_bound(op, ref_pre, b, ref_x, ref_rep.kappa, tol)
    checked = []
    for label, x, rep, pre in runs:
        item = {"label": label, "reasons": []}
        if not rep.converged:
            item["reasons"].append("solver did not report convergence")
        item["relres"] = float(np.linalg.norm(b - op.matvec(x))) / norm_b
        if not item["relres"] <= tol:
            item["reasons"].append(
                f"relative residual {item['relres']:.3e} > tol {tol:.1e}")
        if x is not ref_x:
            err = _a_norm(op, x - ref_x) / ref_norm
            limit = _error_bound(op, pre, b, x, rep.kappa, tol) + ref_bound
            item.update(agreement=err, agreement_bound=limit)
            if not err <= limit:
                item["reasons"].append(
                    f"differs from {ref_label} by {err:.3e} in the A norm "
                    f"(bound {limit:.3e})")
        checked.append(item)
    return checked
