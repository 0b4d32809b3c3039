"""Preconditioners for the stochastic Galerkin system.

Six kinds, all linear maps applied blockwise on the (M+1)*N_dof global
vector.  Two are one Kronecker map (G ⊗ K_0)⁻¹, one class
(``Kronecker``) that differs by kind only in the weights w_α of
G = Σ_α w_α G_α:

  kind  weights
  mb    the mean's only, so G = G_0 (mean-based)
  kron  every one, trace-fitted

Both solve K_0 with the factor of the mean diagonal block, K^{(0,0)} = K_0.
The other four are symmetric block Gauss-Seidel sweeps, one class
(``BlockGaussSeidel``) that differs by kind only in how the blocks are
grouped, in which order the groups are swept and how a group is solved:

  kind  groups          order       group solve
  gs    single blocks   ascending   diagonal block
  ahgs  degree levels   ascending   the level's diagonal blocks
  ahs   degree levels   descending  the level's diagonal blocks
  hs    degree levels   descending  exact D_ℓ (banded Cholesky)

hs is the hierarchical Schur complement preconditioner: the descending
sweep is its downward pre-correction and upward post-correction.  Each
group has one factor, so a group solve is one call: D_ℓ for hs, the
group's block diagonal otherwise (a single block for gs), so a level of
one block is a diagonal block in every kind.  Off-diagonal block products
inside the sweeps (pushes) honor the configured TruncationSet; the
factors always take the full sum.  A level sweep (hs, ahs, ahgs) whose
truncation keeps every tensor index pushes at the Gauss points
(``op.gauss_plan``): each push goes from one level to all the levels
after or before it and multiplies slices of the operator's stored A_q
and B_q, ordered by degree, reading no K_i and copying no sub-block.
gs pushes each single block to every block after it; at the Gauss
points each such push costs nearly a full grid product, which made its
apply 2.4–8× slower, so it keeps the family's product (``op.plan``).  So
do the truncated sweeps, whose pushes need only the retained K_i; the
operator assembles the family when such a sweep is made.
Each preconditioner owns the factorizations and product plans it builds:
sweeps on one operator share none, and a dropped preconditioner frees
them.

An apply takes r's free-node entries once and runs every solve and push
on them; each fixed row is one division by its diagonal, computed and
checked when the preconditioner is made.
"""

from __future__ import annotations

import numpy as np

from sgfem.galerkin import GalerkinOperator, TruncationSet, full_truncation
from sgfem.linalg import check_band_fits, factorize


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


class Kronecker(Preconditioner):
    """(G ⊗ K_0)⁻¹ with G = Σ_α w_α G_α: mb and kron.

    Unless ``fitted``, only the mean weight is kept, w = e_0, so G = G_0
    exactly (mean-based, Powell & Elman 2009): the other weights add exact
    zeros.  When ``fitted``, every weight is the trace fit
    w_α = tr(K_αᵀK_0)/tr(K_0ᵀK_0) (Ullmann 2010), the traces taken at
    the Gauss points from the field and K_0 (``op.k0_traces``), so no
    K_α is assembled.  K_0's factor is that of the mean diagonal block:
    c_i00 = δ_i0, so K^{(0,0)} = K_0, which the operator holds.  Neither
    kind reads the stiffness family or the Gauss-point product.
    """

    def __init__(self, op, trunc, fitted: bool):
        super().__init__(op, trunc)
        self._divisor = op.fixed_divisor(range(1))
        self._f0 = op.assemble_diag_block(range(1))
        if fitted:
            traces = op.k0_traces()
            weights = traces / traces[0]
        else:
            weights = np.zeros(op.Mprime + 1)
            weights[0] = 1.0
        self.g_matrix = op.tensor.g_sum(weights)
        self._fg = factorize(self.g_matrix)

    def apply(self, r):
        op, R = self.op, self._blocks(r)
        # K_0 solve per block, then the mix across the block index, each
        # in place on a Fortran-ordered temporary
        Y = np.empty(R.shape, order="F")
        Y[:, op.free] = self._f0.solve(R.take(op.free, axis=1).T,
                                       overwrite_b=True).T
        Y[:, op.fixed] = R[:, op.fixed] / self._divisor
        return self._fg.solve(Y, overwrite_b=True).ravel()


class BlockGaussSeidel(Preconditioner):
    """Symmetric block Gauss-Seidel over groups of consecutive blocks:
    gs, hs, ahs and ahgs, with the groups, order and group solve of the
    kind table.

    Equals the inverse of (D + L_π) D⁻¹ (D + U_π) with D the group
    matrices (whole level matrices for hs, the diagonal blocks otherwise)
    and L_π/U_π the truncated couplings of a row to the groups before/after
    its own in the sweep order π.

    The sweep runs forward through the groups, then back, in push form:
    once a group is solved, one product with its column blocks subtracts
    its coupling from every row still to be solved, so each group's
    solution is pushed once per half sweep.  In either order those rows
    are one slice of blocks, computed once here; the forward sweep's last
    group pushes to an empty slice, a product with no terms.

    The levels are the runs of equal total degree in the basis's graded
    order, ``op.tensor.jkset.total_degrees()``.  Each group is solved by
    one factor of its blocks: of all their pairs, the level matrix D_ℓ,
    when ``exact``, else of their block diagonal.  Every group's factor
    and the plans of its two pushes are built at the first apply and kept
    in ``_sweep``, their only owner, so the band bytes of every factor
    the sweep will hold are summed here and checked against physical
    memory together, before any work.  A sweep whose pushes run through
    the stiffness family (gs, or a truncated level sweep) has the
    operator assemble it here, at setup, once per operator.
    """

    def __init__(self, op, trunc, by_level: bool, descending: bool,
                 exact: bool):
        super().__init__(op, trunc)
        end = op.M + 1
        # a group is a run of blocks of one key: their total degree (a
        # level) or their own index (a single block)
        keys = op.tensor.jkset.total_degrees() if by_level else range(end)
        bounds = np.searchsorted(keys, range(keys[-1] + 2)).tolist()
        groups = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            after, before = slice(hi, end), slice(0, lo)
            if descending:
                after, before = before, after
            # its blocks, rows to push to going forward, rows to push to
            # going back
            groups.append((range(lo, hi), after, before))
        sizes = [len(blk) for blk, _, _ in groups]
        check_band_fits([s * op.n_free for s in sizes],
                        [op.run_band(s if exact else 1) for s in sizes], (
            "; hs's exact level solves need them, while ahs and ahgs "
            "factorize only the levels' diagonal blocks") if exact else "")
        self._exact = exact
        self._groups = groups[::-1] if descending else groups
        self._sweep: list | None = None  # built at the first apply
        self._divisor = op.fixed_divisor(range(end))
        terms = len(op.tensor.iset)
        self._at_points = (by_level and np.count_nonzero(
            trunc.indices < terms) == terms)
        if not self._at_points:
            op.family("the pushes of a truncated level sweep" if by_level
                      else "gs's pushes")

    def _build(self) -> list:
        """Per group in sweep order: its blocks' entries in the flat
        free-node layout, its factor, and its forward and backward push
        rows' entries, each with the plan of its product: at the Gauss
        points when the sweep is over levels and the truncation keeps
        every tensor index, through the family otherwise."""
        op, trunc, f = self.op, self.trunc, self.op.n_free
        factor = (op.assemble_level_block if self._exact
                  else op.assemble_diag_block)
        if self._at_points:
            plan = op.gauss_plan
        else:
            def plan(rows, cols):
                return op.plan(rows, cols, trunc)

        def entries(blocks):
            return slice(blocks.start * f, blocks.stop * f)

        return [(entries(blk), factor(blk),
                 entries(forward), plan(forward, blk),
                 entries(back), plan(back, blk))
                for blk, forward, back in self._groups]

    def apply(self, r):
        if self._sweep is None:
            self._sweep = self._build()
        op, tmatvec, sweep = self.op, self.op.tmatvec, self._sweep
        R = self._blocks(r)
        # r's free entries, C-ordered, minus the pushed products
        rhs = R.take(op.free, axis=1).ravel()
        V = np.empty_like(rhs)
        for blk, f, forward, push, _, _ in sweep:
            V[blk] = f.solve(rhs[blk])
            rhs[forward] -= tmatvec(push, V[blk])
        # the last forward solve is also the first backward one
        for t in range(len(sweep) - 1, 0, -1):
            blk, _, _, _, back, push = sweep[t]
            rhs[back] -= tmatvec(push, V[blk])
            blk, f = sweep[t - 1][:2]
            V[blk] = f.solve(rhs[blk])
        out = np.empty_like(R)
        out[:, op.free] = V.reshape(len(R), op.n_free)
        out[:, op.fixed] = R[:, op.fixed] / self._divisor
        return out.ravel()


# kind -> (class, its keyword arguments); a sweep's are its groups
# (degree levels or single blocks), order and group solve (exact D_ℓ or
# the block diagonal) as in the kind table above
_KIND_TABLE = {
    "mb": (Kronecker, dict(fitted=False)),
    "kron": (Kronecker, dict(fitted=True)),
    "gs": (BlockGaussSeidel, dict(by_level=False, descending=False,
                                  exact=False)),
    "hs": (BlockGaussSeidel, dict(by_level=True, descending=True,
                                  exact=True)),
    "ahs": (BlockGaussSeidel, dict(by_level=True, descending=True,
                                   exact=False)),
    "ahgs": (BlockGaussSeidel, dict(by_level=True, descending=False,
                                    exact=False)),
}

KINDS = tuple(_KIND_TABLE)


def make_preconditioner(op: GalerkinOperator, kind: str,
                        trunc: TruncationSet | None = None) -> Preconditioner:
    """Build one of the six preconditioners.

    ``trunc`` restricts the off-diagonal products of gs/hs/ahs/ahgs
    (default: no truncation).  The kind is checked before any work, and
    so, for a sweep, is the sum of the band bytes of every factorization
    it will build at its first apply and keep: a sum past physical
    memory raises :class:`MemoryError`, as does, for gs or a truncated
    sweep, a stiffness family that the operator cannot assemble.  A
    fixed row whose diagonal is not positive raises
    :class:`~sgfem.linalg.FactorizationError`.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind: {kind!r}, "
                         f"expected one of {KINDS}")
    if trunc is None:
        trunc = full_truncation(op.tensor)
    cls, args = _KIND_TABLE[kind]
    return cls(op, trunc, **args)
