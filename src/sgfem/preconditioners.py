"""Preconditioners for the stochastic Galerkin system.

Six kinds, all linear maps applied blockwise on the (M+1)*N_dof global
vector.  Two are one Kronecker map (G ⊗ K_0)⁻¹, one class
(``Kronecker``) that differs by kind only in the weights w_α of
G = Σ_α w_α G_α:

  kind  weights
  mb    the mean's only, so G = G_0 (mean-based)
  kron  every one, trace-fitted

Both solve K_0 with the factor of the mean diagonal block, K^{(0,0)} = K_0.
The other four are symmetric block Gauss-Seidel sweeps over the degree
levels, one class (``BlockGaussSeidel``) that differs by kind only in
which order the levels are swept and how a level is solved:

  kind  groups          order       level solve
  gs    degree levels   ascending   its blocks one by one
  ahgs  degree levels   ascending   the level's diagonal blocks
  ahs   degree levels   descending  the level's diagonal blocks
  hs    degree levels   descending  exact D_ℓ (banded Cholesky)

hs is the hierarchical Schur complement preconditioner: the descending
sweep is its downward pre-correction and upward post-correction.  A
level is solved by one factor, D_ℓ for hs and its block diagonal for ahs
and ahgs, or by gs one block at a time, each on its slice of the level's
block-diagonal factor; a level of one block is a diagonal block in every
kind.  Off-diagonal block products inside the sweeps honor the
configured TruncationSet; the factors always take the full sum.  Levels
couple by the same rule in every kind: in the ascending pass a level
pulls the products of all lower levels just before it is solved, and in
the descending pass it pushes its own to all lower levels just after.
When the truncation keeps every tensor index these couplings run at the
Gauss points (``op.gauss_plan``), multiplying slices of the operator's
stored A_q and B_q, ordered by degree, that span only the level and
those below it, reading no K_i and copying no sub-block.  A truncated
sweep couples levels through the family (``op.plan``), since it needs
only the retained K_i.  Inside a level gs couples each block to the
level's blocks before it: on the way up it pulls from them just before
the block is solved, on the way down it pushes to them just after.
When the truncation keeps every index these couplings run through the
level's pair blocks K^{(jk)}, filled once from the pair fields at the
points (``op.pair_plans``), one sparse product a block pair: at the
Gauss points each would cost nearly a product over the level's whole
grid.  Truncated, gs pushes through the family on the way up too, from
each block to the later blocks of its level, so that each K_i v_(k) is
computed once.  Each preconditioner owns the factorizations, product
plans, pair blocks and K_i it builds: sweeps on one operator share none,
and a dropped preconditioner frees them.

An apply takes r's free-node entries once and runs every solve and
product on them; each fixed row is one division by its diagonal,
computed and checked when the preconditioner is made.
"""

from __future__ import annotations

import numpy as np

from sgfem.galerkin import GalerkinOperator, TruncationSet, full_truncation
from sgfem.linalg import check_fits, factorize


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
    """Symmetric block Gauss-Seidel over the degree levels: gs, hs, ahs
    and ahgs, with the order and level solve of the kind table.

    Equals the inverse of (D + L_π) D⁻¹ (D + U_π) with D the matrices
    solved (whole level matrices for hs, the diagonal blocks otherwise)
    and L_π/U_π the truncated couplings of a row to the units solved
    before/after its own in the sweep order π.

    The levels are the runs of equal total degree in the basis's graded
    order, ``op.tensor.jkset.total_degrees()``.  A unit is a run of
    blocks solved by one factor: a level, or for gs each block of it.
    The sweep runs one pass ascending through the units and one
    descending, in the kind's order; the last solve of the first pass is
    also the first of the second, and one product runs between two
    solves: a level's pull (module docstring) before its first unit is
    solved ascending and its push after that unit is solved descending,
    and gs's couplings inside a level around its other units.

    Every unit's factor and every plan, gs's pair blocks with them, are
    built at the first apply and kept in ``_sweep``, their only owner.
    A sweep that multiplies through the family assembles the K_i it
    retains here, at setup.  The bytes of all it will keep, the band of
    every factor, gs's pair blocks and the retained K_i, are summed here
    and checked against physical memory together, before any work.
    """

    def __init__(self, op, trunc, descending: bool, solve: str):
        super().__init__(op, trunc)
        keys = op.tensor.jkset.total_degrees()
        bounds = np.searchsorted(keys, range(keys[-1] + 2)).tolist()
        levels = list(map(range, bounds[:-1], bounds[1:]))
        # (its level, its blocks) of every unit, in ascending order
        self._units = [(level, unit) for level in levels
                       for unit in ([range(j, j + 1) for j in level]
                                    if solve == "blocks" else [level])]
        exact = solve == "exact"
        terms = len(op.tensor.iset)
        retained = trunc.indices[trunc.indices < terms]
        self._at_points = len(retained) == terms
        self._pairs = solve == "blocks" and self._at_points
        # the bytes the sweep keeps: a band factor per unit, gs's pair
        # blocks inside its levels and a truncated sweep's K_i
        rows = np.array([len(unit) for _, unit in self._units]) * op.n_free
        bands = np.array([op.run_band(len(unit) if exact else 1)
                          for _, unit in self._units])
        sizes = 8 * rows * (bands + 1)
        pairs = op.pair_bytes(levels) if self._pairs else 0
        kept = 0 if self._at_points else 8 * len(retained) * op.nnz

        def what():
            big = int(np.argmax(sizes))
            held = [f"band factor of {rows[big]} rows and {bands[big]} "
                    f"sub-diagonals and the {len(sizes) - 1} other band "
                    f"factors kept with it"]
            held += [f"{name}, {size} bytes" for name, size in (
                ("gs's pair blocks inside its levels", pairs),
                (f"the {len(retained)} K_i of its truncated couplings",
                 kept)) if size]
            return " and ".join(held) + " need"

        check_fits(int(sizes.sum()) + pairs + kept, what, (
            "; hs's exact level solves need them, while ahs and ahgs "
            "factorize only the levels' diagonal blocks") if exact else "")
        self._exact, self._descending = exact, descending
        self._sweep: tuple | None = None  # built at the first apply
        self._divisor = op.fixed_divisor(range(op.M + 1))
        if not self._at_points:
            # its rows, which its plans share
            self._family = list(op.family(
                retained, "the couplings of a truncated sweep"))

    def _build(self) -> tuple:
        """The first solve, then the steps that follow it in sweep order:
        each a product subtracted from some rows' entries in the flat
        free-node layout, with its plan and the entries of its column
        blocks, and then the solve of one unit's entries by its factor."""
        op, trunc, f, units = self.op, self.trunc, self.op.n_free, self._units
        factor = (op.assemble_level_block if self._exact
                  else op.assemble_diag_block)

        def family(rows, cols):
            return op.plan(rows, cols, trunc, self._family)

        between = op.gauss_plan if self._at_points else family

        def entries(blocks):
            return slice(blocks.start * f, blocks.stop * f)

        def coupling(rows, cols, plan):
            return entries(rows), entries(cols), plan

        # a factor per level, built in first-pass order; gs's blocks slice
        # it, and its couplings inside the level read the level's pairs
        levels = list(dict.fromkeys(level for level, _ in units))
        factors = {level: factor(level) for level in
                   (levels[::-1] if self._descending else levels)}
        inside = {level: op.pair_plans(level) for level in levels
                  if self._pairs}
        solves = [(entries(unit), factors[level] if unit == level else
                   factors[level].diagonal_block(slice(
                       (unit.start - level.start) * f,
                       (unit.stop - level.start) * f)))
                  for level, unit in units]
        # the product before each unit past the first is solved
        # ascending, and after it is solved descending
        before, after = [], []
        for (_, prev), (level, unit) in zip(units[:-1], units[1:]):
            below, lower = range(level.start), range(level.start, unit.start)
            if not lower:
                before.append(coupling(level, below, between(level, below)))
                after.append(coupling(below, level, between(below, level)))
            elif self._pairs:
                pull, push = inside[level][len(lower) - 1]
                before.append(coupling(unit, lower, pull))
                after.append(coupling(lower, unit, push))
            else:
                later = range(unit.start, level.stop)
                before.append(coupling(later, prev, family(later, prev)))
                after.append(coupling(lower, unit, family(lower, unit)))
        ascend = [c + s for c, s in zip(before, solves[1:])]
        descend = [c + s for c, s in zip(after[::-1], solves[-2::-1])]
        if self._descending:
            return solves[-1], descend + ascend
        return solves[0], ascend + descend

    def apply(self, r):
        if self._sweep is None:
            self._sweep = self._build()
        op, tmatvec, ((blk, f), steps) = self.op, self.op.tmatvec, self._sweep
        R = self._blocks(r)
        # r's free entries, C-ordered, minus the solved units' products
        rhs = R.take(op.free, axis=1).ravel()
        V = np.empty_like(rhs)
        V[blk] = f.solve(rhs[blk])
        for rows, cols, plan, blk, f in steps:
            rhs[rows] -= tmatvec(plan, V[cols])
            V[blk] = f.solve(rhs[blk])
        out = np.empty_like(R)
        out[:, op.free] = V.reshape(len(R), op.n_free)
        out[:, op.fixed] = R[:, op.fixed] / self._divisor
        return out.ravel()


# kind -> (class, its keyword arguments); a sweep's are its order and
# level solve (its blocks one by one, the block diagonal or exact D_ℓ)
# as in the kind table above
_KIND_TABLE = {
    "mb": (Kronecker, dict(fitted=False)),
    "kron": (Kronecker, dict(fitted=True)),
    "gs": (BlockGaussSeidel, dict(descending=False, solve="blocks")),
    "hs": (BlockGaussSeidel, dict(descending=True, solve="exact")),
    "ahs": (BlockGaussSeidel, dict(descending=True, solve="diagonal")),
    "ahgs": (BlockGaussSeidel, dict(descending=False, solve="diagonal")),
}

KINDS = tuple(_KIND_TABLE)


def make_preconditioner(op: GalerkinOperator, kind: str,
                        trunc: TruncationSet | None = None) -> Preconditioner:
    """Build one of the six preconditioners.

    ``trunc`` restricts the off-diagonal products of gs/hs/ahs/ahgs
    (default: no truncation).  The kind is checked before any work, and
    so, for a sweep, is the sum of the bytes of all it will keep: the
    bands of every factorization it builds at its first apply, the pair
    blocks that an untruncated gs fills then, and the K_i that a
    truncated sweep retains, which it assembles here and owns.  A sum
    past physical memory raises :class:`MemoryError`.  A fixed row
    whose diagonal is not positive raises
    :class:`~sgfem.linalg.FactorizationError`.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind: {kind!r}, "
                         f"expected one of {KINDS}")
    if trunc is None:
        trunc = full_truncation(op.tensor)
    cls, args = _KIND_TABLE[kind]
    return cls(op, trunc, **args)
