"""Lognormal diffusion coefficient k(x, ξ) = exp[g(x, ξ)].

The Gaussian exponent g is a truncated Karhunen-Loeve expansion
g = g_0 + Σ_d g_d(x) ξ_d with independent standard Gaussian ξ_d and mode
fields g_d already scaled by the square roots of the covariance
eigenvalues.  The exponential L1 kernel and the lumped Q1 weights are
both tensor products over the two axes, so ``discrete_kl`` builds the
modes from one 1-D eigensolve on the grid coordinates.  The dense
weighted eigensolve over all nodes, the oracle it is checked against,
lives in the tests (``tests/conftest.py``).  The chaos coefficients of
k against the unnormalized Hermite basis have the closed form

    k_i(x) = [Π_d g_d(x)^{i_d} / i_d!] · exp(g_0 + ½ Σ_d g_d(x)²),

which equals the projection E[exp(g) ψ_i] / E[ψ_i²]; the tests pin this
against a Gauss-Hermite projection oracle, sign included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sgfem.chaos import MultiIndexSet, _half_grid
from sgfem.fem import Mesh


def field_parameters(mu_log: float, cov: float, mode: str = "moment"
                     ) -> tuple[float, float]:
    """Gaussian exponent parameters (g_0, σ_g) for a target lognormal.

    ``mode="moment"`` matches the lognormal mean and coefficient of
    variation exactly: σ_g = sqrt(ln(1+cov²)), g_0 = ln(μ) − σ_g²/2.
    ``mode="gaussian"`` takes cov literally as the Gaussian σ_g (the mean
    stays matched; the realized lognormal CoV is then sqrt(exp(σ_g²)−1)).
    """
    if not 0 < mu_log < math.inf:
        raise ValueError(f"lognormal mean mu_log must be positive and "
                         f"finite, got {mu_log!r}")
    if not 0 <= cov < math.inf:
        raise ValueError(f"coefficient of variation cov must be "
                         f"non-negative and finite, got {cov!r}")
    if mode == "moment":
        sigma_g = math.sqrt(math.log1p(cov * cov))
    elif mode == "gaussian":
        sigma_g = cov
    else:
        raise ValueError(f"unknown mode: {mode}")
    g0 = math.log(mu_log) - 0.5 * sigma_g * sigma_g
    return g0, sigma_g


@dataclass(frozen=True)
class ExponentialCovariance:
    """Separable exponential kernel σ² exp(−‖x−y‖₁ / L)."""

    sigma: float
    L: float

    def __post_init__(self):
        # the comparisons fail on NaN
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"standard deviation sigma must be "
                             f"non-negative and finite, got {self.sigma!r}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"correlation length L must be positive and "
                             f"finite, got {self.L!r}")


@dataclass(frozen=True)
class KLExpansion:
    """Truncated KL expansion of the Gaussian exponent.

    ``modes`` rows are the nodal fields g_d = sqrt(λ_d) φ_d; ``g0`` is the
    constant mean; ``energy_fraction`` is the retained share of the total
    discrete variance.
    """

    g0: float
    lambdas: np.ndarray
    modes: np.ndarray
    energy_fraction: float

    @property
    def N(self) -> int:
        return len(self.lambdas)


def check_kl_modes(n_modes: int, n_nodes: int) -> None:
    """Refuse a count of KL modes outside 1 to a mesh's ``n_nodes``."""
    if not 1 <= n_modes <= n_nodes:
        raise ValueError(f"n_modes = {n_modes} KL modes requested; the mesh "
                         f"has {n_nodes} nodes, so 1 to {n_nodes} are "
                         "possible")


def discrete_kl(mesh: Mesh, spec: ExponentialCovariance, n_modes: int,
                g0: float = 0.0) -> KLExpansion:
    """KL expansion of the exponent field on a mesh, from 1-D eigenpairs.

    The lumped mass weights are the nodal integrals ∫ φ_l dx, which on the
    uniform Q1 grid are the products w1[iy]·w1[ix] of the 1-D trapezoid
    weights.  The L1 kernel factors as σ² c(x₁−y₁) c(x₂−y₂), so the
    weighted covariance matrix is σ² A1 ⊗ A1 with A1 = W1^{1/2} C1 W1^{1/2}
    on the n+1 grid coordinates, and its eigenpairs are the products of
    the 1-D ones: λ = σ²·(μ_a μ_b), φ = φ_a(y) φ_b(x).  One (n+1)×(n+1)
    eigensolve suffices; no (n+1)²×(n+1)² matrix is formed.

    Modes are taken by descending λ; a mixed-direction pair (a, b), (b, a)
    ties exactly, and the mode of lower x-index comes first.  Each 1-D
    factor is signed positive at coordinate 0, so every mode is positive
    at node 0 (x = y = 0).  ``energy_fraction`` is Σ λ_kept over the
    trace σ²·(Σμ)² of the full weighted matrix.
    """
    side = mesh.n + 1
    check_kl_modes(n_modes, side * side)
    x = mesh.nodes[:side, 0]
    w1 = np.full(side, mesh.h)
    w1[[0, -1]] = 0.5 * mesh.h
    s1 = np.sqrt(w1)
    C1 = np.exp(-np.abs(x[:, None] - x[None, :]) / spec.L)
    mu, vecs = np.linalg.eigh(C1 * np.outer(s1, s1))
    mu, vecs = mu[::-1], vecs[:, ::-1]  # descending
    vecs *= np.where(vecs[0] < 0, -1.0, 1.0)
    phi1 = vecs / s1[:, None]  # columns orthonormal in the W1 inner product

    # λ[a, b] for y-index a, x-index b; σ² multiplies last so that
    # (a, b) and (b, a) round to the same value
    lam_all = spec.sigma**2 * (mu[:, None] * mu[None, :])
    iy, ix = np.divmod(np.arange(side * side), side)
    order = np.lexsort((iy, ix, -lam_all.ravel()))[:n_modes]
    lam = lam_all.ravel()[order]
    floor = 1e-12 * lam[0]
    if not lam[-1] > floor:
        raise ValueError(f"only {int(np.sum(lam_all > floor))} eigenvalues "
                         f"are positive to tolerance, {n_modes} modes "
                         "requested")
    # the 1-D factors multiply first, so a mirrored pair of modes are
    # exact transposes of each other on the grid
    grid = phi1.T[iy[order]][:, :, None] * phi1.T[ix[order]][:, None, :]
    modes = np.sqrt(lam)[:, None] * grid.reshape(n_modes, side * side)
    energy = float(lam.sum() / (spec.sigma**2 * mu.sum() ** 2))
    return KLExpansion(g0, lam, modes, energy)


@dataclass(frozen=True)
class CoefficientFields:
    """The lognormal field at quadrature points and its chaos
    coefficients k_i.

    ``basis`` is the multi-index set the coefficients run over.  ``mean``
    holds a_0 = exp(g_0 + ½ Σ_d g_d²) and ``modes[d]`` the exponent mode
    g_d, each of shape (n_elements, 4), so that every coefficient is
    k_i = a_0 Π_d g_d^{i_d} / i_d!.  The mean is strictly positive.  A
    :class:`~sgfem.galerkin.GalerkinOperator` takes the field whole, on
    its tensor's i-set: it multiplies and fills its block factors at the
    points from ``mean`` and the :meth:`powers` of ``modes``, assembles
    K_0 from ``mean`` and the K_i that a caller asks for from their
    :meth:`values`; kron's trace weights are :meth:`moments`.  Both
    evaluate the closed form of the k_i from ``mean`` and ``modes``, so
    an edited field moves them all; :meth:`moments` groups its factors
    by halves of the dimensions and forms no k_i.
    """

    basis: MultiIndexSet
    mean: np.ndarray
    modes: np.ndarray

    def values(self, indices) -> np.ndarray:
        """The k_i of the basis positions ``indices`` at the points, shape
        (len(indices), n_elements, 4), computed anew at each call, each
        row bit for bit whatever the others; index 0's is ``mean``."""
        degrees = np.arange(self.basis.degree + 1)[:, None, None, None]
        powers = self.modes[None] ** degrees
        values = np.empty((len(indices),) + self.mean.shape)
        for row, pos in zip(values, indices):
            row[:] = self.mean
            for d, p in enumerate(self.basis.indices[pos]):
                if p:
                    row *= powers[p, d] / math.factorial(p)
        return values

    def powers(self, degree: int) -> np.ndarray:
        """g_d^a/a! for a = 0 to ``degree`` of every mode d at every
        point, by repeated products, shape (points, N, degree + 1), the
        points in the order of ``mean``'s entries."""
        g = self.modes.reshape(len(self.modes), -1).T
        powers = np.empty(g.shape + (degree + 1,))
        powers[..., 0] = 1.0
        for a in range(1, degree + 1):
            np.multiply(powers[..., a - 1], g, out=powers[..., a])
            powers[..., a] /= a
        return powers

    def moments(self, weights: np.ndarray) -> np.ndarray:
        """Σ_q k_i(q) w(q) over the points for every k_i, with the point
        weights ``weights`` of the mean's shape, equal to the products of
        :meth:`values` with them to rounding, without forming the k_i.
        With the dimensions split in two halves, k_i = a_0 x_i' y_i'' for
        x and y the products of g_d^{i_d}/i_d! over either half, so the
        moments are entries of one matrix product (x · a_0 w) yᵀ over
        the halves' distinct multi-indices.  Its temporaries, the g_d^a/a!
        and the two factors, take N·(P′ + 1) + n₁′ + n₂′ doubles a point
        for the n₁′ and n₂′ distinct multi-indices of the halves (126 at
        N = 4, P′ = 8)."""
        idx, deg = self.basis.as_array(), self.basis.degree
        powers = self.powers(deg)
        points, N = powers.shape[:2]
        halves, h = [], N // 2
        for lo, hi in ((0, h), (h, N)):
            grid, position = _half_grid(idx[:, lo:hi], deg)
            factor = np.ones((len(grid), points))
            for e, d in enumerate(range(lo, hi)):
                factor *= powers[:, d, grid[:, e]].T
            halves.append((factor, position))
        (x, first), (y, second) = halves
        aw = self.mean.ravel() * np.asarray(weights, dtype=float).ravel()
        return ((x * aw) @ y.T)[first, second]


def gpc_coefficients(kl: KLExpansion, basis: MultiIndexSet, mesh: Mesh
                     ) -> CoefficientFields:
    """The field at the mesh quadrature points, whose k_i have a closed
    form (:meth:`CoefficientFields.values`)."""
    if basis.N != kl.N:
        raise ValueError(f"basis dimension {basis.N} does not match "
                         f"{kl.N} KL modes")
    # g_d at quadrature points via bilinear interpolation, (N, n_e, 4)
    G = np.array([mesh.interpolate(m) for m in kl.modes])
    base = np.exp(kl.g0 + 0.5 * np.sum(G * G, axis=0))
    return CoefficientFields(basis, base, G)
