"""CG solver checks: finite termination, flexible/standard agreement,
Lanczos condition estimates against dense eigensolves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfem.krylov import (
    flexible_cg,
    lanczos_condition_estimate,
    pcg,
)


def spd(n, seed, spread=10.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(1.0, spread, n)
    return Q @ np.diag(vals) @ Q.T, vals


class TestBasics:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        x, rep = flexible_cg(lambda v: v, lambda v: v, b)
        assert rep.converged and rep.iterations == 1
        np.testing.assert_allclose(x, b, atol=1e-12)

    def test_diagonal_two_iterations(self):
        A = np.diag([1.0, 2.0])
        b = np.array([1.0, 1.0])
        x, rep = flexible_cg(lambda v: A @ v, lambda v: v, b)
        assert rep.converged and rep.iterations <= 2
        np.testing.assert_allclose(x, [1.0, 0.5], atol=1e-10)

    def test_zero_rhs(self):
        x, rep = pcg(lambda v: v, lambda v: v, np.zeros(4))
        assert rep.converged and rep.iterations == 0
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_maxit_reported_not_raised(self):
        A, _ = spd(40, 0, spread=1e6)
        b = np.ones(40)
        _, rep = flexible_cg(lambda v: A @ v, lambda v: v, b,
                             tol=1e-14, maxit=3)
        assert not rep.converged
        assert rep.iterations == 3

    def test_breakdown_reported(self):
        A = np.diag([1.0, -1.0])
        b = np.array([0.0, 1.0])
        _, rep = flexible_cg(lambda v: A @ v, lambda v: v, b)
        assert rep.breakdown and not rep.converged

    def test_converged_residual_is_true_residual(self):
        A, _ = spd(12, 5)
        b = np.arange(1.0, 13.0)
        x, rep = flexible_cg(lambda v: A @ v, lambda v: v, b, tol=1e-10)
        true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert rep.converged
        assert rep.residuals[-1] == pytest.approx(true_rel, rel=1e-6)
        assert true_rel <= 1e-10

    def test_long_run_with_refresh(self):
        A, _ = spd(120, 2, spread=1e5)
        b = np.ones(120)
        x, rep = pcg(lambda v: A @ v, lambda v: v, b, tol=1e-10, maxit=500)
        assert rep.converged
        assert len(rep.residuals) == rep.iterations
        np.testing.assert_allclose(A @ x, b, atol=1e-7)


class TestArgumentChecks:
    """Invalid tolerances and iteration limits fail before any work."""

    @pytest.mark.parametrize("solver", [flexible_cg, pcg])
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_non_positive_tol_rejected(self, solver, tol):
        calls = []

        def apply_A(v):
            calls.append(1)
            return v

        with pytest.raises(ValueError, match="tol"):
            solver(apply_A, lambda v: v, np.ones(3), tol=tol, maxit=50)
        assert not calls

    @pytest.mark.parametrize("solver", [flexible_cg, pcg])
    def test_negative_maxit_rejected(self, solver):
        with pytest.raises(ValueError, match="maxit"):
            solver(lambda v: v, lambda v: v, np.ones(3), maxit=-1)

    @pytest.mark.parametrize("solver", [flexible_cg, pcg])
    def test_zero_maxit_returns_the_start(self, solver):
        x, rep = solver(lambda v: v, lambda v: v, np.ones(3), maxit=0)
        assert rep.iterations == 0 and not rep.converged
        np.testing.assert_array_equal(x, np.zeros(3))


    @pytest.mark.parametrize("solver", [flexible_cg, pcg])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rhs_rejected(self, solver, bad):
        calls = []

        def apply_A(v):
            calls.append(1)
            return v

        b = np.array([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            solver(apply_A, lambda v: v, b)
        assert not calls


class TestNonFiniteBreakdown:
    """A NaN or inf inside the iteration stops it at once as a breakdown,
    instead of running to maxit."""

    @pytest.mark.parametrize("solver", [flexible_cg, pcg])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_pAp(self, solver, bad):
        A = np.diag([1.0, 2.0, 3.0])

        def apply_A(v):
            w = A @ v
            w[1] = bad
            return w

        x, rep = solver(apply_A, lambda v: v, np.ones(3))
        assert rep.breakdown and not rep.converged
        assert rep.matvecs == 1 and rep.iterations == 0
        np.testing.assert_array_equal(x, np.zeros(3))

    @pytest.mark.parametrize("solver", [flexible_cg, pcg])
    def test_non_finite_rho_at_start(self, solver):
        calls = []

        def apply_A(v):
            calls.append(1)
            return v

        _, rep = solver(apply_A, lambda v: np.full_like(v, np.nan),
                        np.ones(3))
        assert rep.breakdown and not rep.converged
        assert not calls

    @pytest.mark.parametrize("solver", [flexible_cg, pcg])
    def test_non_finite_rho_later(self, solver):
        A, _ = spd(20, 3)
        applies = []

        def apply_M(v):
            applies.append(1)
            return v if len(applies) < 3 else np.full_like(v, np.nan)

        _, rep = solver(lambda v: A @ v, apply_M, np.ones(20), maxit=1000)
        assert rep.breakdown and not rep.converged
        assert rep.iterations == 2 and rep.matvecs == 2
        assert np.isfinite(rep.kappa)


class TestFlexibleMatchesStandard:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identical_iteration_counts_fixed_preconditioner(self, seed):
        A, _ = spd(30, seed, spread=200.0)
        Minv = np.linalg.inv(np.diag(np.diag(A)))
        b = np.random.default_rng(seed + 10).standard_normal(30)
        xf, rf = flexible_cg(lambda v: A @ v, lambda v: Minv @ v, b, tol=1e-10)
        xs, rs = pcg(lambda v: A @ v, lambda v: Minv @ v, b, tol=1e-10)
        assert rf.iterations == rs.iterations
        np.testing.assert_allclose(xf, xs, atol=1e-8)


class TestMonotonicity:
    # the preconditioned residual norm sqrt(rho) itself is NOT monotone for
    # CG (it provably oscillates on generic systems); what CG guarantees is
    # monotone decay of the error in the A-norm, so that is what we assert,
    # plus overall decay of rho
    def test_error_energy_norm_nonincreasing(self):
        A, _ = spd(25, 7, spread=500.0)
        Minv = np.diag(1.0 / np.diag(A))
        b = np.random.default_rng(3).standard_normal(25)
        x_exact = np.linalg.solve(A, b)
        # deterministic solver: maxit snapshots reproduce the trajectory
        errs = []
        for m in range(1, 26):
            x, _ = pcg(lambda v: A @ v, lambda v: Minv @ v, b, tol=1e-16,
                       maxit=m)
            e = x - x_exact
            errs.append(float(e @ (A @ e)))
        errs = np.array(errs)
        assert np.all(np.diff(errs) <= 1e-10 * errs[:-1])

    @pytest.mark.parametrize("solver", [pcg, flexible_cg])
    def test_rho_history_is_entering_residual(self, solver):
        # entry k belongs to the iterate after k iterations, the accepted
        # iterate has none, and the list has one entry per iteration
        A, _ = spd(12, 5, spread=80.0)
        Minv = np.diag(1.0 / np.diag(A))
        b = np.random.default_rng(6).standard_normal(12)
        x, rep = solver(lambda v: A @ v, lambda v: Minv @ v, b, tol=1e-10)
        rho = rep.rho_history
        assert rep.converged
        assert len(rho) == rep.iterations
        assert rho[0] == pytest.approx(b @ Minv @ b, rel=1e-14)
        for k in range(1, rep.iterations):
            xk, _ = solver(lambda v: A @ v, lambda v: Minv @ v, b,
                           tol=1e-16, maxit=k)
            r = b - A @ xk
            assert rho[k] == pytest.approx(r @ Minv @ r, rel=1e-6), k
        r = b - A @ x
        assert r @ Minv @ r < 1e-3 * rho[-1]

    def test_rho_overall_decay(self):
        A, _ = spd(25, 7, spread=500.0)
        Minv = np.diag(1.0 / np.diag(A))
        b = np.random.default_rng(3).standard_normal(25)
        _, rep = pcg(lambda v: A @ v, lambda v: Minv @ v, b, tol=1e-10)
        rho = rep.rho_history
        assert rho[-1] < 1e-12 * rho[0]


def looped_tridiagonal(alphas, betas):
    """The Lanczos tridiagonal of CG coefficients, entry by entry:
    T[k,k] = 1/α_k + β_{k−1}/α_{k−1} and T[k,k+1] = sqrt(max(β_k, 0))/α_k
    (oracle of the estimate's array expressions)."""
    m = len(alphas)
    T = np.zeros((m, m))
    for k in range(m):
        T[k, k] = 1.0 / alphas[k]
        if k > 0:
            T[k, k] += betas[k - 1] / alphas[k - 1]
        if k < m - 1:
            off = np.sqrt(max(betas[k], 0.0)) / alphas[k]
            T[k, k + 1] = T[k + 1, k] = off
    return T


@st.composite
def cg_coefficients(draw):
    """α > 0 and β, some of them ≤ 0, for m in [2, 60] iterations; β has
    m − 1 entries, or m when the last iteration also made one."""
    m = draw(st.integers(2, 60))
    alphas = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    n_beta = m - 1 + draw(st.integers(0, 1))
    betas = draw(st.lists(st.floats(-0.5, 2.0), min_size=n_beta,
                          max_size=n_beta))
    return alphas, betas


class TestConditionEstimate:
    def test_trivial_cases(self):
        assert lanczos_condition_estimate([], []) == 1.0
        assert lanczos_condition_estimate([0.5], []) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(coefficients=cg_coefficients())
    def test_matches_looped_tridiagonal(self, coefficients):
        """κ from the array-built tridiagonal against the looped one's
        eigenvalues.  An eigenvalue is off by about ε‖T‖, which moves κ
        by up to about ε·κ relative: the tolerance is 1e-12, widened for
        κ past 100.  A λ_min that is zero to roundoff may come out with
        either sign."""
        alphas, betas = coefficients
        vals = np.linalg.eigvalsh(looped_tridiagonal(alphas, betas))
        lo, hi = vals[0], vals[-1]
        kappa = lanczos_condition_estimate(alphas, betas)
        if abs(lo) <= 1e-12 * hi:
            assert kappa == float("inf") or kappa >= 1e11
        elif lo < 0:
            assert kappa == float("inf")
        else:
            assert kappa == pytest.approx(
                hi / lo, rel=1e-12 * max(1.0, hi / lo / 100))

    @pytest.mark.parametrize("beta", [-1.0, -2.0])
    def test_non_positive_smallest_eigenvalue_gives_inf(self, beta):
        """α = (1, 1): a β_0 ≤ 0 couples nothing, and T = diag(1, 1 + β_0)
        has the smallest eigenvalue 0 or −1."""
        assert lanczos_condition_estimate([1.0, 1.0], [beta]) == \
            float("inf")

    def test_two_eigenvalue_system(self):
        A = np.diag([1.0, 10.0])
        b = np.array([1.0, 1.0])
        _, rep = pcg(lambda v: A @ v, lambda v: v, b, tol=1e-12)
        assert rep.kappa == pytest.approx(10.0, rel=1e-8)

    def test_identity_kappa_one(self):
        _, rep = pcg(lambda v: v, lambda v: v, np.ones(5))
        assert rep.kappa == 1.0

    def test_unpreconditioned_estimate_matches_spectrum(self):
        A, vals = spd(8, 11, spread=50.0)
        b = np.random.default_rng(1).standard_normal(8)
        _, rep = pcg(lambda v: A @ v, lambda v: v, b, tol=1e-13, maxit=50)
        assert rep.kappa == pytest.approx(vals[-1] / vals[0], rel=0.05)

    def test_preconditioned_estimate_matches_generalized_eigensolve(self):
        A, _ = spd(10, 4, spread=300.0)
        M = np.diag(np.diag(A))
        Minv = np.linalg.inv(M)
        b = np.random.default_rng(8).standard_normal(10)
        _, rep = pcg(lambda v: A @ v, lambda v: Minv @ v, b, tol=1e-13,
                     maxit=60)
        ev = np.linalg.eigvals(Minv @ A).real
        assert rep.kappa == pytest.approx(ev.max() / ev.min(), rel=0.05)

    def test_kappa_at_least_one(self):
        A, _ = spd(9, 13)
        b = np.ones(9)
        _, rep = flexible_cg(lambda v: A @ v, lambda v: v, b)
        assert rep.kappa >= 1.0
