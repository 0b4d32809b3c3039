"""Preconditioners for the stochastic Galerkin system.

Six kinds, all linear maps applied blockwise on the (M+1)*N_dof global
vector:

  mb    mean-based, diag(G_0) ⊗ K_0
  kron  Kronecker product G ⊗ K_0 with trace-fitted G
  gs    symmetric block Gauss-Seidel over all M+1 blocks
  hs    hierarchical Schur complement sweep over degree levels with exact
        level solves
  ahs   hs with every level solve replaced by its diagonal block solves
  ahgs  symmetric Gauss-Seidel over degree levels with diagonal block
        solves (forward products against untouched levels vanish because
        the initial guess is zero)

hs and ahs are one class, ``SchurSweep``, and differ only in the level
solve; ahgs is ``LevelGaussSeidel``.  Off-diagonal block products inside
gs/hs/ahs/ahgs run through the operator's truncated product and honor
the configured TruncationSet; diagonal and level blocks are always
assembled with the full sum.
"""

from __future__ import annotations

import numpy as np

from sgfem.galerkin import GalerkinOperator, TruncationSet, full_truncation
from sgfem.krylov import pcg
from sgfem.linalg import factorize


class Preconditioner:
    """Fixed linear map v = M⁻¹ r for one configuration."""

    def __init__(self, op: GalerkinOperator, trunc: TruncationSet):
        self.op = op
        self.trunc = trunc

    def apply(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _blocks(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(r, dtype=float).reshape(self.op.M + 1,
                                                  self.op.n_dof)


class MeanBased(Preconditioner):
    """v_(j) = (G_0)_jj⁻¹ K_0⁻¹ r_(j)."""

    def __init__(self, op, trunc):
        super().__init__(op, trunc)
        self._f0 = factorize(op.k_mats[0])
        jj, _, vv = op.tensor.slice_coords(0)  # G_0 is diagonal
        g0 = np.zeros(op.M + 1)
        g0[jj] = vv
        self._g0 = g0

    def apply(self, r):
        R = self._blocks(r)
        V = self._f0.solve(R.T).T / self._g0[:, None]
        return V.ravel()


class Kronecker(Preconditioner):
    """(G ⊗ K_0)⁻¹ with G = Σ_α [tr(K_αᵀK_0)/tr(K_0ᵀK_0)] G_α.

    The traces reduce to data-array dot products because all K_α share one
    sparsity pattern.
    """

    def __init__(self, op, trunc):
        super().__init__(op, trunc)
        self._f0 = factorize(op.k_mats[0])
        d0 = op.k_mats[0].data
        weights = (op._kdata @ d0) / float(d0 @ d0)
        t = op.tensor
        G = np.zeros((op.M + 1, op.M + 1))
        np.add.at(G, (t.j, t.k), weights[t.i] * t.val)
        self.g_matrix = G
        self._fg = factorize(G)

    def apply(self, r):
        R = self._blocks(r)
        Y = self._f0.solve(R.T).T  # K_0 solve per block
        V = self._fg.solve(Y)      # mix across the block index
        return V.ravel()


class BlockGaussSeidel(Preconditioner):
    """Symmetric block Gauss-Seidel sweep j = 0..M then M..0.

    Equals the inverse of (L+D) D⁻¹ (D+U) with D the assembled diagonal
    blocks and L/U the truncated strictly lower/upper block parts.

    The sweeps run in push form: once block k is solved, one truncated
    product with the single column block k subtracts its coupling from
    every row still to be solved (later rows going forward, earlier rows
    going back), so each K_i y_(k) is computed once per half sweep.
    """

    def __init__(self, op, trunc):
        super().__init__(op, trunc)
        self._solv = [op.assemble_diag_block(j)[1] for j in range(op.M + 1)]

    def apply(self, r):
        op, trunc, last = self.op, self.trunc, self.op.M
        rhs = self._blocks(r).copy()  # r minus the pushed products
        V = np.empty_like(rhs)
        for k in range(last + 1):
            V[k] = self._solv[k].solve(rhs[k])
            if k < last:
                rhs[k + 1:] -= op.tmatvec(range(k + 1, last + 1),
                                          range(k, k + 1), trunc,
                                          V[k:k + 1])
        # the last forward solve is also the first backward one
        for k in range(last, 0, -1):
            rhs[:k] -= op.tmatvec(range(k), range(k, k + 1), trunc,
                                  V[k:k + 1])
            V[k - 1] = self._solv[k - 1].solve(rhs[k - 1])
        return V.ravel()


class _LevelSolver:
    """Level solves for the hierarchical sweeps.

    ``exact=True`` solves with the whole level matrix D_ℓ: through its
    factorization, or with ``inner="cg"`` by an inner CG run on D_ℓ
    preconditioned with the level's diagonal blocks, which factorizes no
    level matrix.  ``exact=False`` solves only the diagonal blocks of the
    level.  ``counters`` sums the inner CG iterations and counts the inner
    solves that stopped unconverged at ``inner_maxit``.
    """

    def __init__(self, op: GalerkinOperator, exact: bool, inner: str,
                 inner_tol: float, inner_maxit: int):
        self.op = op
        self.exact = exact
        self.inner = inner
        self.inner_tol = inner_tol
        self.inner_maxit = inner_maxit
        self.counters = {"inner_iterations": 0, "inner_unconverged": 0}
        self._diag = {}
        self._level_mats = {}  # D_ℓ by level, for inner CG

    def _diag_solvers(self, level):
        if level not in self._diag:
            self._diag[level] = [self.op.assemble_diag_block(j)[1]
                                 for j in self.op.levels.blocks(level)]
        return self._diag[level]

    def _solve_diag(self, level, R):
        out = np.empty_like(R)
        for row, f in enumerate(self._diag_solvers(level)):
            out[row] = f.solve(R[row])
        return out

    def solve(self, level: int, R: np.ndarray) -> np.ndarray:
        """Solve D_ℓ X = R with R given blockwise, shape (size_ℓ, n_dof)."""
        if not self.exact:
            return self._solve_diag(level, R)
        if self.inner == "cg":
            if level not in self._level_mats:
                self._level_mats[level] = self.op.level_matrix(level)
            D = self._level_mats[level]
            x, rep = pcg(lambda v: D @ v,
                         lambda v: self._solve_diag(
                             level, v.reshape(R.shape)).ravel(),
                         R.ravel(), tol=self.inner_tol,
                         maxit=self.inner_maxit)
            self.counters["inner_iterations"] += rep.iterations
            self.counters["inner_unconverged"] += not rep.converged
            return x.reshape(R.shape)
        F = self.op.level_factorization(level)
        return F.solve(R.ravel()).reshape(R.shape)


class SchurSweep(Preconditioner):
    """hs/ahs: hierarchical Schur complement sweep over degree levels.

    ``counters`` is the level solver's: the inner CG iterations and
    unconverged inner solves of hs with ``inner="cg"``, zero otherwise.
    """

    def __init__(self, op, trunc, solver: _LevelSolver):
        super().__init__(op, trunc)
        self._solver = solver
        self.counters = solver.counters

    def apply(self, r):
        """Downward pre-correction, coarse solve, upward post-correction."""
        op, trunc, lm = self.op, self.trunc, self.op.levels
        g = self._blocks(r).copy()
        for level in range(lm.P, 0, -1):
            blk = lm.blocks(level)
            z = self._solver.solve(level, g[blk])
            g[:blk[0]] -= op.tmatvec(range(blk[0]), blk, trunc, z)
        v = np.zeros_like(g)
        v[0] = op.assemble_diag_block(0)[1].solve(g[0])
        for level in range(1, lm.P + 1):
            blk = lm.blocks(level)
            corr = op.tmatvec(blk, range(blk[0]), trunc, v[:blk[0]])
            v[blk] = self._solver.solve(level, g[blk] - corr)
        return v.ravel()


class LevelGaussSeidel(Preconditioner):
    """ahgs: symmetric Gauss-Seidel over degree levels 0..P then P..0."""

    def __init__(self, op, trunc, solver: _LevelSolver):
        super().__init__(op, trunc)
        self._solver = solver

    def apply(self, r):
        """With the zero start the forward sweep never touches higher
        levels."""
        op, trunc, lm = self.op, self.trunc, self.op.levels
        R = self._blocks(r)
        rhs_fwd = R.copy()
        U = np.zeros_like(R)
        for level in range(lm.P + 1):
            blk = lm.blocks(level)
            if level > 0:
                rhs_fwd[blk] -= op.tmatvec(blk, range(blk[0]), trunc,
                                           U[:blk[0]])
            U[blk] = self._solver.solve(level, rhs_fwd[blk])
        V = U.copy()
        for level in range(lm.P - 1, -1, -1):
            blk = lm.blocks(level)
            above = range(blk[-1] + 1, op.M + 1)
            corr = op.tmatvec(blk, above, trunc, V[blk[-1] + 1:])
            V[blk] = self._solver.solve(level, rhs_fwd[blk] - corr)
        return V.ravel()


# kind -> (class, level solves: None for the blockwise kinds, True for
# exact level solves, False for the level's diagonal block solves)
_KIND_TABLE = {
    "mb": (MeanBased, None),
    "kron": (Kronecker, None),
    "gs": (BlockGaussSeidel, None),
    "hs": (SchurSweep, True),
    "ahs": (SchurSweep, False),
    "ahgs": (LevelGaussSeidel, False),
}

KINDS = tuple(_KIND_TABLE)


def make_preconditioner(op: GalerkinOperator, kind: str,
                        trunc: TruncationSet | None = None,
                        inner: str = "direct", inner_tol: float = 1e-8,
                        inner_maxit: int = 500) -> Preconditioner:
    """Build one of the six preconditioners.

    ``trunc`` restricts the off-diagonal products of gs/hs/ahs/ahgs
    (default: no truncation).  ``inner="cg"`` replaces the exact level
    solves of hs by inner CG runs, which makes the map non-linear across
    applications; pair it with the flexible outer solver.  The arguments
    are checked before any work.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind: {kind!r}, "
                         f"expected one of {KINDS}")
    if inner not in ("direct", "cg"):
        raise ValueError(f"unknown inner solve {inner!r}, expected "
                         f"'direct' or 'cg'")
    if inner == "cg" and kind != "hs":
        raise ValueError(f"inner='cg' replaces the exact level solves of "
                         f"hs; kind {kind!r} has none")
    if not inner_tol > 0:
        raise ValueError(f"inner_tol must be > 0, got {inner_tol!r}")
    if not inner_maxit >= 0:
        raise ValueError(f"inner_maxit must be >= 0, got {inner_maxit!r}")
    if trunc is None:
        trunc = full_truncation(op.tensor)
    cls, exact = _KIND_TABLE[kind]
    if exact is None:
        return cls(op, trunc)
    return cls(op, trunc, _LevelSolver(op, exact, inner, inner_tol,
                                       inner_maxit))
