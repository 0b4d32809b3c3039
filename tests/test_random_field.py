"""Random-field checks: moment matching (Monte Carlo oracle), discrete KL
(trace identity, hand eigensolve, analytic tensorized eigenvalues, the
separable construction against the dense weighted eigensolve), and the
chaos coefficient closed form (Gauss-Hermite projection oracle)."""

import math

import numpy as np
import pytest
from conftest import (
    covariance_matrix,
    hermite,
    kl_eigenpairs,
    traced_memory,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss
from scipy.optimize import brentq

from sgfem.chaos import multi_index_set
from sgfem.fem import assemble_load, build_mesh
from sgfem.random_field import (
    ExponentialCovariance,
    KLExpansion,
    discrete_kl,
    field_parameters,
    gpc_coefficients,
)


class TestFieldParameters:
    def test_unit_mean_unit_cov(self):
        g0, sg = field_parameters(1.0, 1.0)
        assert sg == pytest.approx(math.sqrt(math.log(2)), abs=1e-12)
        assert g0 == pytest.approx(-math.log(2) / 2, abs=1e-12)

    def test_vanishing_cov_limit(self):
        g0, sg = field_parameters(math.exp(0.5), 1e-12)
        assert sg == pytest.approx(0.0, abs=1e-10)
        assert g0 == pytest.approx(0.5, abs=1e-10)

    def test_monte_carlo_round_trip(self):
        rng = np.random.default_rng(0)
        g0, sg = field_parameters(2.0, 0.6)
        k = np.exp(g0 + sg * rng.standard_normal(1_000_000))
        assert k.mean() == pytest.approx(2.0, rel=0.01)
        assert k.std() / k.mean() == pytest.approx(0.6, rel=0.01)

    def test_gaussian_mode_takes_sigma_literally(self):
        g0, sg = field_parameters(1.0, 1.0, mode="gaussian")
        assert sg == 1.0
        assert g0 == pytest.approx(-0.5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            field_parameters(-1.0, 0.5)
        with pytest.raises(ValueError):
            field_parameters(1.0, 0.5, mode="bogus")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mean_naming_it(self, bad):
        with pytest.raises(ValueError, match="mu_log .*finite"):
            field_parameters(bad, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["moment", "gaussian"])
    def test_rejects_non_finite_cov_naming_it(self, bad, mode):
        with pytest.raises(ValueError, match="cov .*finite"):
            field_parameters(1.0, bad, mode)


def covariance(spec, x, y) -> float:
    """The kernel of the dense oracle between two points."""
    return covariance_matrix(spec, np.array([x, y], dtype=float))[0, 1]


class TestCovariance:
    def test_variance_on_diagonal(self):
        spec = ExponentialCovariance(0.7, 0.5)
        assert covariance(spec, [0.3, 0.4], [0.3, 0.4]) == \
            pytest.approx(0.49)

    def test_one_correlation_length(self):
        spec = ExponentialCovariance(1.0, 0.5)
        assert covariance(spec, [0.0, 0.0], [0.25, 0.25]) == \
            pytest.approx(math.exp(-1))

    def test_separability(self):
        spec = ExponentialCovariance(1.3, 0.4)
        x, y = [0.1, 0.8], [0.5, 0.3]
        c1 = covariance(spec, [x[0], 0.0], [y[0], 0.0])
        c2 = covariance(spec, [0.0, x[1]], [0.0, y[1]])
        assert covariance(spec, x, y) == \
            pytest.approx(c1 * c2 / spec.sigma**2)

    def test_matrix_symmetric(self):
        pts = np.random.default_rng(3).random((7, 2))
        C = covariance_matrix(ExponentialCovariance(1.0, 0.5), pts)
        np.testing.assert_allclose(C, C.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(C), 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExponentialCovariance(1.0, 0.0)

    @pytest.mark.parametrize("sigma, L, name", [
        (math.nan, 0.5, "sigma"), (math.inf, 0.5, "sigma"),
        (1.0, math.nan, "correlation length L"),
        (1.0, math.inf, "correlation length L")])
    def test_rejects_non_finite_parameters_naming_them(self, sigma, L, name):
        # NaN passes a plain comparison such as L <= 0
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            ExponentialCovariance(sigma, L)


class TestKlEigenpairs:
    """The dense KL oracle against hand and direct eigensolves."""

    def test_two_point_hand_oracle(self):
        # equal weights 1/2: B = C/2, eigenvalues (σ²/2)(1 ± ρ)
        sigma, L = 1.2, 0.5
        rho = math.exp(-1.0 / L)
        C = sigma**2 * np.array([[1.0, rho], [rho, 1.0]])
        lam, phi, energy = kl_eigenpairs(C, np.array([0.5, 0.5]), 1)
        assert lam[0] == pytest.approx(sigma**2 * (1 + rho) / 2, abs=1e-12)
        assert energy == pytest.approx((1 + rho) / 2, abs=1e-12)

    def test_unequal_weights_match_direct_eigensolve(self):
        rng = np.random.default_rng(5)
        pts = rng.random((6, 2))
        C = covariance_matrix(ExponentialCovariance(1.0, 0.7), pts)
        w = rng.random(6) + 0.5
        lam, _, _ = kl_eigenpairs(C, w, 3)
        ws = np.sqrt(w)
        ref = np.linalg.eigvalsh(C * np.outer(ws, ws))[::-1]
        np.testing.assert_allclose(lam, ref[:3], atol=1e-12)

    def test_rank_deficient_raises(self):
        v = np.array([1.0, 2.0, 3.0])
        C = np.outer(v, v)  # rank one
        with pytest.raises(ValueError):
            kl_eigenpairs(C, np.ones(3) / 3, 2)


class TestDiscreteKl:
    def test_trace_identity(self):
        # sum of ALL weighted eigenvalues = σ² · (domain area) exactly
        mesh = build_mesh(8)
        spec = ExponentialCovariance(0.83, 0.5)
        kl = discrete_kl(mesh, spec, 4)
        total = kl.lambdas.sum() / kl.energy_fraction
        assert total == pytest.approx(spec.sigma**2, rel=1e-10)

    def test_orthonormal_in_lumped_mass(self):
        mesh = build_mesh(6)
        kl = discrete_kl(mesh, ExponentialCovariance(1.0, 0.5), 5)
        W = assemble_load(mesh, 1.0)
        phi = kl.modes / np.sqrt(kl.lambdas)[:, None]
        gram = (phi * W) @ phi.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_eigenvalues_decay(self):
        kl = discrete_kl(build_mesh(7), ExponentialCovariance(1.0, 0.5), 6)
        assert np.all(np.diff(kl.lambdas) <= 0)
        assert 0 < kl.energy_fraction <= 1

    def test_deterministic(self):
        mesh = build_mesh(5)
        spec = ExponentialCovariance(1.0, 0.5)
        a = discrete_kl(mesh, spec, 3)
        b = discrete_kl(mesh, spec, 3)
        assert np.array_equal(a.modes, b.modes)

    def test_mean_constant_carried(self):
        kl = discrete_kl(build_mesh(4), ExponentialCovariance(1.0, 0.5), 2,
                         g0=-0.25)
        assert kl.g0 == -0.25


def exponential_kernel_eigenvalues_1d(L, count):
    """Analytic eigenvalues of e^{-|s-t|/L} on [0,1].

    With c = 1/L and half-width a = 1/2, eigenvalues are 2c/(ω²+c²) where
    ω runs over the positive roots of c = ω tan(ωa) (even modes) and
    ω = −c tan(ωa) (odd modes).
    """
    c = 1.0 / L
    a = 0.5

    def f_even(w):
        return c - w * math.tan(w * a)

    def f_odd(w):
        return w + c * math.tan(w * a)

    roots = []
    grid = np.linspace(1e-9, (2 * count + 2) * math.pi, 200_000)
    for f in (f_even, f_odd):
        vals = np.array([f(w) for w in grid])
        sign_change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        for i in sign_change:
            lo, hi = grid[i], grid[i + 1]
            # skip tan singularities: root must be a genuine zero
            try:
                w = brentq(f, lo, hi, xtol=1e-13)
            except ValueError:
                continue
            if abs(f(w)) < 1e-6:
                roots.append(w)
    lams = sorted((2 * c / (w * w + c * c) for w in roots), reverse=True)
    return np.array(lams[:count])


class TestAnalyticCrossCheck:
    def test_top_eigenvalues_match_separable_products(self):
        # 2D kernel is the tensor product of two 1D kernels, so its
        # spectrum is the product set of the 1D spectra
        sigma, L = 1.0, 0.5
        lam1 = exponential_kernel_eigenvalues_1d(L, 8)
        products = sorted((a * b for a in lam1 for b in lam1), reverse=True)
        expect = sigma**2 * np.array(products[:4])
        kl = discrete_kl(build_mesh(20), ExponentialCovariance(sigma, L), 4)
        np.testing.assert_allclose(kl.lambdas, expect, rtol=0.05)


class TestCanonicalEigenbasis:
    def test_degenerate_pair_modes_are_separable(self):
        # mixed-direction eigenvalue pairs of the product kernel must come
        # out as rank-1 grid fields, not an arbitrary rotation of them
        kl = discrete_kl(build_mesh(10), ExponentialCovariance(1.0, 0.5), 4)
        assert kl.lambdas[1] == pytest.approx(kl.lambdas[2], rel=1e-12)
        for mode in kl.modes:
            s = np.linalg.svd(mode.reshape(11, 11), compute_uv=False)
            assert s[1] <= 1e-10 * s[0]

    @staticmethod
    def _axis_frequencies(M):
        u, _, vt = np.linalg.svd(M)
        fx = vt[0][np.abs(vt[0]) > 1e-8 * np.abs(vt[0]).max()]
        fy = u[:, 0][np.abs(u[:, 0]) > 1e-8 * np.abs(u[:, 0]).max()]
        return (int(np.count_nonzero(np.diff(np.sign(fx)))),
                int(np.count_nonzero(np.diff(np.sign(fy)))))

    def test_pair_ordered_by_x_frequency(self):
        kl = discrete_kl(build_mesh(10), ExponentialCovariance(1.0, 0.5), 3)
        fa = self._axis_frequencies(kl.modes[1].reshape(11, 11))
        fb = self._axis_frequencies(kl.modes[2].reshape(11, 11))
        assert fa[0] < fb[0]
        assert fa == fb[::-1]

    def test_truncation_inside_pair_still_separable(self):
        # the 4th and 5th eigenvalues coincide; keeping four modes must
        # not leave an arbitrary mixture in the last retained slot
        mesh = build_mesh(8)
        spec = ExponentialCovariance(1.0, 0.5)
        kl4 = discrete_kl(mesh, spec, 4)
        kl5 = discrete_kl(mesh, spec, 5)
        assert kl5.lambdas[3] == pytest.approx(kl5.lambdas[4], rel=1e-10)
        s = np.linalg.svd(kl4.modes[3].reshape(9, 9), compute_uv=False)
        assert s[1] <= 1e-10 * s[0]
        np.testing.assert_array_equal(kl4.modes, kl5.modes[:4])


def _cluster_projector(phi, W):
    """W-orthogonal projector Σ_j φ_j φ_jᵀ W onto the span of the rows."""
    return phi.T @ (phi * W)


class TestSeparableKl:
    """The 1-D product construction against the dense weighted eigensolve.

    The dense solver may return any rotation inside an eigenvalue pair, so
    modes are compared through the W-orthogonal projector of each cluster
    of (numerically) equal eigenvalues.
    """

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), L=st.floats(0.2, 2.0),
           sigma=st.floats(1e-3, 2.0),
           N=st.integers(1, 8))
    def test_matches_dense_oracle(self, n, L, sigma, N):
        mesh = build_mesh(n)
        N = min(N, mesh.n_nodes)
        spec = ExponentialCovariance(sigma, L)
        kl = discrete_kl(mesh, spec, N)
        W = assemble_load(mesh, 1.0)
        # a few extra oracle pairs so a cluster cut by the truncation is
        # still spanned in full
        m = min(mesh.n_nodes, N + 4)
        C = covariance_matrix(spec, mesh.nodes)
        lam, phi, _ = kl_eigenpairs(C, W, m)
        np.testing.assert_allclose(kl.lambdas, lam[:N], rtol=1e-12, atol=0)
        assert kl.energy_fraction == pytest.approx(kl_eigenpairs(C, W, N)[2],
                                                   rel=1e-12)
        sep = kl.modes / np.sqrt(kl.lambdas)[:, None]
        for d in range(N):
            near = np.abs(lam - kl.lambdas[d]) <= 1e-6 * kl.lambdas[d]
            P_dense = _cluster_projector(phi[near], W)
            np.testing.assert_allclose(P_dense @ sep[d], sep[d], atol=1e-8)
            mine = np.abs(kl.lambdas - kl.lambdas[d]) <= 1e-6 * kl.lambdas[d]
            if mine.sum() == near.sum():  # the whole cluster is kept
                np.testing.assert_allclose(_cluster_projector(sep[mine], W),
                                           P_dense, atol=1e-8)

    def test_positive_at_corner_node(self):
        for n, N in ((1, 4), (4, 10), (10, 8), (17, 12)):
            kl = discrete_kl(build_mesh(n), ExponentialCovariance(0.9, 0.4), N)
            assert np.all(kl.modes[:, 0] > 0), (n, N)

    @pytest.mark.parametrize("n", [5, 8, 13])
    @pytest.mark.parametrize("sigma", [0.3, 1.1])
    def test_mirrored_pairs_tie_exactly(self, n, sigma):
        # eigenvalues equal to rounding are bitwise equal, and the modes of
        # such a pair are exact transposes of each other on the grid
        kl = discrete_kl(build_mesh(n), ExponentialCovariance(sigma, 0.4), 20)
        lam, side = kl.lambdas, n + 1
        pairs = np.flatnonzero(np.abs(np.diff(lam)) <= 1e-12 * lam[1:])
        assert len(pairs) >= 6
        for d in pairs:
            assert lam[d] == lam[d + 1]
            np.testing.assert_array_equal(
                kl.modes[d].reshape(side, side),
                kl.modes[d + 1].reshape(side, side).T)

    def test_memory_scales_with_the_grid_side(self):
        # the dense path would allocate ~430 MB at n = 64
        mesh = build_mesh(64)
        spec = ExponentialCovariance(1.0, 0.5)
        _, peak = traced_memory(lambda: discrete_kl(mesh, spec, 8))
        assert discrete_kl(mesh, spec, 8).modes.shape == (8, 65 * 65)
        assert peak < 5e6

    @pytest.mark.parametrize("N", [0, -1, 26])
    def test_mode_count_out_of_range_fails_fast(self, N):
        with pytest.raises(ValueError, match="n_modes"):
            discrete_kl(build_mesh(4), ExponentialCovariance(1.0, 0.5), N)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            discrete_kl(build_mesh(3), ExponentialCovariance(0.0, 0.5), 2)


class TestGpcCoefficients:
    @staticmethod
    def _setup(n=4, N=2, cov=1.0):
        mesh = build_mesh(n)
        g0, sg = field_parameters(1.0, cov)
        kl = discrete_kl(mesh, ExponentialCovariance(sg, 0.5), N, g0=g0)
        return mesh, kl

    def test_mean_coefficient_closed_form(self):
        mesh, kl = self._setup()
        basis = multi_index_set(2, 3)
        fields = gpc_coefficients(kl, basis, mesh)
        G = np.array([mesh.interpolate(m) for m in kl.modes])
        expect = np.exp(kl.g0 + 0.5 * (G**2).sum(axis=0))
        np.testing.assert_allclose(fields.values([0])[0], expect, atol=1e-14)
        assert np.all(fields.values([0])[0] > 0)

    def test_zero_modes_degenerate(self):
        mesh = build_mesh(3)
        kl = KLExpansion(g0=-0.1, lambdas=np.array([1.0, 1.0]),
                         modes=np.zeros((2, mesh.n_nodes)),
                         energy_fraction=1.0)
        basis = multi_index_set(2, 2)
        values = gpc_coefficients(kl, basis, mesh).values(range(len(basis)))
        np.testing.assert_allclose(values[0], math.exp(-0.1))
        np.testing.assert_allclose(values[1:], 0.0)

    def test_projection_oracle(self):
        # k_i at a fixed point must equal E[exp(g)ψ_i]/E[ψ_i²] by
        # tensorized Gauss-Hermite quadrature, sign included
        mesh, kl = self._setup(n=4, N=2, cov=1.0)
        basis = multi_index_set(2, 4)
        fields = gpc_coefficients(kl, basis, mesh)
        e, q = 5, 2  # arbitrary fixed quadrature point
        g = np.array([mesh.interpolate(m)[e, q] for m in kl.modes])

        x, w = hermegauss(48)
        w = w / math.sqrt(2 * math.pi)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        W2 = np.outer(w, w)
        expg = np.exp(kl.g0 + g[0] * X1 + g[1] * X2)
        values = fields.values(range(len(basis)))
        for pos, idx in enumerate(basis.indices):
            psi = hermite(idx[0], X1) * hermite(idx[1], X2)
            norm = math.factorial(idx[0]) * math.factorial(idx[1])
            oracle = float((W2 * expg * psi).sum()) / norm
            assert abs(values[pos][e, q] - oracle) < 1e-10, idx

    def test_dimension_mismatch(self):
        mesh, kl = self._setup(N=2)
        with pytest.raises(ValueError):
            gpc_coefficients(kl, multi_index_set(3, 2), mesh)


def sample_field(kl: KLExpansion, xi) -> np.ndarray:
    """Nodal values of exp(g(x, ξ)) for one realization ξ (oracle)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (kl.N,):
        raise ValueError(f"xi must have length {kl.N}")
    return np.exp(kl.g0 + xi @ kl.modes)


class TestSampleField:
    def test_zero_xi(self):
        _, kl = TestGpcCoefficients._setup()
        np.testing.assert_allclose(sample_field(kl, np.zeros(2)),
                                   math.exp(kl.g0))

    def test_single_mode_shift(self):
        mesh, kl = TestGpcCoefficients._setup()
        got = sample_field(kl, np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, np.exp(kl.g0 + kl.modes[0]),
                                   atol=1e-14)

    def test_wrong_length(self):
        _, kl = TestGpcCoefficients._setup()
        with pytest.raises(ValueError):
            sample_field(kl, np.zeros(3))


class TestExpansionConvergence:
    def test_error_decreases_in_expansion_degree(self):
        mesh, kl = TestGpcCoefficients._setup(n=5, N=2, cov=1.0)
        rng = np.random.default_rng(42)
        xis = rng.uniform(-2.0, 2.0, size=(10, 2))
        worst = []
        for pp in (2, 4, 6, 8):
            basis = multi_index_set(2, pp)
            fields = gpc_coefficients(kl, basis, mesh)
            values = fields.values(range(len(basis)))
            G = np.array([mesh.interpolate(m) for m in kl.modes])
            errs = []
            for xi in xis:
                psi = np.array([
                    hermite(i[0], xi[0]) * hermite(i[1], xi[1])
                    for i in basis.indices])
                approx = np.tensordot(psi, values, axes=1)
                exact = np.exp(kl.g0 + xi[0] * G[0] + xi[1] * G[1])
                errs.append(np.max(np.abs(approx - exact) / exact))
            worst.append(max(errs))
        assert worst[0] > worst[1] > worst[2] > worst[3]
