"""Matrix-free stochastic Galerkin operator.

The global system matrix has (M+1)x(M+1) blocks K^{(j,k)} = Σ_i c_ijk
K_i of size N_dof.  The operator derives everything from one input, the
lognormal field on the mesh: K_0, the stiffness matrix of the field's
mean, which it assembles at once, and the field's mean and modes at the
Gauss points; the other K_i only a caller holds
(:meth:`GalerkinOperator.family`).  The matrix is never assembled for
products: the truncated blockwise product (tMAT-VEC) through the family
computes w_(j) = Σ_k Σ_{i∈set} c_ijk K_i v_(k) in two steps.  First
every needed product K_i v_(k) is computed once, however many row blocks
use it, and written as one row of a stacked product buffer.  Then the
buffer is mixed into the row blocks by one sparse coupling matrix
holding the c_ijk.  The buffer is filled and mixed in chunks of bounded
size, so a product over all blocks never holds every K_i v_(k) at once.
Which products a call needs, on which K_i, and how they mix form a
plan, an object built by ``plan(rows, cols, trunc, family)`` from the
tensor's entries grouped by column block and the set's K_i, and held by
its user with those K_i.

A product over the full tensor need not stream the K_i at all: it can
multiply at the Gauss points from the lognormal field and the mesh,
exactly since P′ ≥ 2P (:class:`_GaussPointProduct`), with a plan built
by ``gauss_plan(rows, cols)``.  The full product always runs there, and
so do the couplings between degree levels of every sweep whose
truncation keeps every tensor index.  A product at the Gauss points
multiplies slices of stored factors whose half grids are ordered by
total degree; it applies the full tensor and scatters through the whole
grid of its row blocks however few its column blocks are, while a
product through the family costs what its retained K_i do.  So the
truncated sweeps run through the family.  The band fills, ``block``,
gs's couplings inside a level and kron's trace weights do not: a block
K^{(jk)} = Dᵀ diag(C_q[j,k]) D is the stiffness matrix of its pair
field C_q[j,k] = A_q[j₁,k₁] · B_q[j₂,k₂], read from the product's
stored factors and assembled as a K_i is
(:func:`~sgfem.fem.stiffness_data`), and tr(K_iᵀK_0) is the field's
moment Σ_q k_i(q) u(q) with the point weights u of K_0's data
(:func:`~sgfem.fem.point_weights`).  gs's pulls and pushes inside a
level, between one block and those before it, multiply such blocks,
filled once for the level, with plans built by ``pair_plans(level)``:
one sparse product a block pair, where the family runs one a K_i.

Products and block factors run on the free nodes only.  The fixed nodes
are the mesh's boundary, and K_0 and the family are assembled on their
Dirichlet pattern: a boundary row b holds only its diagonal, its column
is in no other row and K_i[b,b] = 0 for every i > 0, while K_0[b,b] = 1.
Its rows are diagonal: c_0jk = δ_jk (G_0)_jj (the chaos basis is
orthogonal, not normalised), so (A v)_(j)[b] = (G_0)_jj · (K_0[b,b] ·
v_(j)[b]).  So :meth:`tmatvec` and the factors take and return free-node
blocks, shape (blocks, n_free), and the layout changes once at the edge
of a call: :meth:`matvec` writes a fixed node by the closed form, and a
preconditioner divides a fixed row by its :meth:`fixed_divisor`.  Results
are bit for bit those of products over every node, whose other terms on
b are all ±0.0.

A block factor is one band factor of consecutive blocks taken as runs
of s blocks side by side: one run of all of them holds all their pairs
(a level matrix D_ℓ, say), and runs of one block their block diagonal.
One filler places every run's pairs and one builder factorizes the
band.  The operator knows blocks only; which blocks a preconditioner
factorizes, and why, is the preconditioner's.  A factor is filled
straight into band storage with the FULL coefficient sum (truncation
only ever applies to off-diagonal products inside preconditioners) and
factorized anew on each request; the caller owns it.  ``block(j, k)``,
one block as the fills take it, and a dense assembly of the whole matrix
through the family are brute-force oracles for small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from sgfem.chaos import CijkTensor, _half_grid, triple_product_table
from sgfem.fem import (
    Mesh,
    apply_dirichlet,
    assemble_stiffness_family,
    gradient_matrix,
    point_weights,
    stiffness_data,
)
from sgfem.linalg import (
    Factorization,
    FactorizationError,
    check_band_fits,
    check_fits,
    csr_on,
    factorize_band,
)
from sgfem.random_field import CoefficientFields

# The raw CSR kernels behind ``csr_matrix @ x``: they accumulate into a
# caller-owned output, which lets products land directly in the stacked
# buffer, and they skip the per-call dispatch of the public operator.  On
# a 2-vCPU Xeon host, ``K @ x`` with 961 nonzeros (121-node mesh) takes
# 7.0 µs and the raw kernel 2.5 µs.  The module is private to scipy; a
# scipy without it gets the same calls on the public products.
try:
    from scipy.sparse._sparsetools import csc_matvecs, csr_matvec, csr_matvecs
except ImportError:
    def _slots(Ap, Aj, Ax):
        """(Ax, Aj, Ap) from slot Ap[0] on, which the raw kernels start
        at and scipy's constructors take as 0."""
        lo, hi = Ap[0], Ap[-1]
        return Ax[lo:hi], Aj[lo:hi], Ap - lo

    def csr_matvec(n_row, n_col, Ap, Aj, Ax, Xx, Yx):
        """Yx += A Xx for the CSR matrix (Ap, Aj, Ax)."""
        Yx += sp.csr_matrix(_slots(Ap, Aj, Ax), shape=(n_row, n_col)) @ Xx

    def csr_matvecs(n_row, n_col, n_vecs, Ap, Aj, Ax, Xx, Yx):
        """Yx += A X for the CSR matrix (Ap, Aj, Ax) and the n_vecs
        columns of X, both X and Y flat in row-major order."""
        A = sp.csr_matrix(_slots(Ap, Aj, Ax), shape=(n_row, n_col))
        Yx += (A @ Xx.reshape(n_col, n_vecs)).ravel()

    def csc_matvecs(n_row, n_col, n_vecs, Ap, Ai, Ax, Xx, Yx):
        """Yx += A X for the CSC matrix (Ap, Ai, Ax), as csr_matvecs."""
        A = sp.csc_matrix(_slots(Ap, Ai, Ax), shape=(n_row, n_col))
        Yx += (A @ Xx.reshape(n_col, n_vecs)).ravel()


_CHUNK_BYTES = 1 << 20      # stacked product buffer per chunk


@dataclass(frozen=True)
class TruncationSet:
    """Retained coefficient indices for truncated off-diagonal products.

    Index 0 (the mean) is always a member, so any truncated preconditioner
    keeps at least mean-based strength.
    """

    indices: np.ndarray
    provenance: str

    def __post_init__(self):
        if len(self.indices) == 0 or self.indices[0] != 0:
            raise ValueError("truncation set must contain index 0")
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("truncation indices must be sorted, unique")

    def __len__(self) -> int:
        return len(self.indices)


def standard_truncation(N: int, lt: int) -> TruncationSet:
    """Degree-based truncation: all indices of total degree ≤ ℓ_t.

    In the graded ordering these are exactly the first (N+ℓ_t choose ℓ_t)
    indices.  Raises :class:`MemoryError` when their int64s exceed
    physical memory.
    """
    if lt < 0:
        raise ValueError("truncation degree must be non-negative")
    count = math.comb(N + lt, lt)
    check_fits(8 * count, lambda: (
        f"the standard truncation of degree lt = {lt} at N = {N}, its "
        f"{count} indices, needs"))
    return TruncationSet(np.arange(count, dtype=np.int64), f"standard:lt={lt}")


def adaptive_truncation(tau: float, k_norms: np.ndarray,
                        tensor: CijkTensor) -> TruncationSet:
    """Norm-based truncation: keep i when max_jk(c_ijk)·‖K_i‖ ≥ τ.

    Index 0 is kept unconditionally.  A NaN or negative norm is refused.
    """
    if not tau >= 0:  # NaN too
        raise ValueError(f"threshold must be non-negative, got {tau!r}")
    k_norms = np.asarray(k_norms, dtype=float)
    if len(k_norms) != len(tensor.iset):
        raise ValueError("one norm per coefficient matrix required")
    bad = np.flatnonzero(~(k_norms >= 0))  # NaN too
    if len(bad):
        raise ValueError(f"k_norms must be non-negative, got "
                         f"{float(k_norms[bad[0]])!r} at index {bad[0]}")
    cmax = np.zeros(len(tensor.iset))
    np.maximum.at(cmax, tensor.i, tensor.val)
    keep = np.flatnonzero(cmax * k_norms >= tau)
    if len(keep) == 0 or keep[0] != 0:
        keep = np.concatenate([[0], keep]).astype(np.int64)
    return TruncationSet(np.asarray(keep, dtype=np.int64), f"adaptive:tau={tau}")


def full_truncation(tensor: CijkTensor) -> TruncationSet:
    """No truncation: every coefficient matrix retained."""
    return TruncationSet(np.arange(len(tensor.iset), dtype=np.int64), "full")


@dataclass(frozen=True)
class _Chunk:
    """One bounded slice of a plan's stacked products.

    ``steps`` lists the products by K_i's data: for a single column block
    that of buffer row p, otherwise (the data, first buffer row, column
    positions) with one buffer row per column.  The
    ``mix_*`` arrays hold the (rows × buffer rows) coupling matrix of
    c_ijk values in CSR form.
    """

    steps: list
    n_products: int
    mix_indptr: np.ndarray
    mix_indices: np.ndarray
    mix_data: np.ndarray


@dataclass(frozen=True)
class _Plan:
    """The products and mixing of one truncated product, over ``n_rows``
    row blocks and ``n_cols`` column blocks, in bounded chunks."""

    n_rows: int
    n_cols: int
    chunks: tuple
    products: int
    summations: int


@dataclass(frozen=True)
class _PairPlan:
    """One coupling inside a run of consecutive blocks from s, through
    the run's pair blocks (:meth:`GalerkinOperator.pair_plans`): the pull
    into a block q from the m = q − s blocks before it (one row block),
    or the push from q to them (one column block).  ``data`` is q's m
    pairs (q, p), a flat view of the run's: K^{(qp)} = K^{(pq)}, so both
    directions read it.  ``indptr`` and ``indices`` are the CSR pattern
    of the m pairs stacked, rows (pair, free node), views of the run's.
    ``summations`` counts the c_ijk terms with j in the row blocks and k
    in the column blocks."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    summations: int


@dataclass(frozen=True)
class _GaussPlan:
    """One product at the Gauss points over the full tensor, from
    ``n_cols`` column blocks S to ``n_rows`` row blocks T.

    ``hulls`` holds the ranges of positions (T₁, S₁, S₂, T₂) in the half
    grids that span the blocks' half-grid multi-indices, as slices:
    A_q[T₁, S₁] and B_q[S₂, T₂] are views of a point's stored factors.
    S₂, the width the B product contracts, is at least two positions
    wide where the second half grid has two.
    ``embed`` places the gradient component c of column block k, entry
    c·n_cols + k, in the (S₁, 2, S₂) grid, and ``pick`` takes those of
    the row blocks from the (T₁, 2, T₂) grid.  ``summations`` counts the
    c_ijk terms with j in T and k in S.
    """

    n_rows: int
    n_cols: int
    hulls: tuple
    embed: np.ndarray
    pick: np.ndarray
    summations: int


class _GaussPointProduct:
    """Products on the free nodes from the field at the Gauss points,
    exact for P′ ≥ 2P.

    With the closed forms a_α = a_0 Π_d g_d^{α_d}/α_d! and
    c_αjk = Π_d T[α_d, j_d, k_d], the coupling at a point q is
    C_q[j, k] = Σ_α a_α c_αjk = a_0 Π_d m_d[j_d, k_d] with the 1-D
    matrices m_d[a, b] = Σ_α g_d^α/α! T[α, a, b], exactly, since
    c_αjk ≠ 0 needs |α| ≤ |j| + |k| ≤ 2P.  Splitting the dimensions in
    two halves, C_q = a_0 (A_q ⊗ B_q) on the grid of (first half, second
    half) multi-indices, each ordered by total degree, in which the
    total-degree set is embedded; at N = 4 that grid is 15 × 15 for 70
    blocks.  This is the sum factorization of spectral elements (Orszag
    1980) at the quadrature points of matrix-free FEM (Kronbichler &
    Kormann 2012).  A product from column blocks S to row blocks T (a
    :class:`_GaussPlan`) then
    1. gathers the gradients of S's blocks at the points through the
       free-column gradient matrix D (:func:`~sgfem.fem.gradient_matrix`),
    2. embeds them in the (S₁ × S₂) grid of their half-grid multi-indices
       and multiplies by A_q[T₁, S₁] from the left and B_q[S₂, T₂] from
       the right (both factors are symmetric), two batched matmuls,
    3. takes T's entries of the (T₁ × T₂) grid and scatters them with Dᵀ.
    S₁, S₂, T₁ and T₂ are ranges of half-grid positions, so the
    sub-blocks are views of the stored factors.  The ranges of a level,
    of the levels above it and of those below it hold just their blocks'
    multi-indices; those of other blocks may hold more, whose grid
    entries are zero.  The full product is the plan of all blocks to all
    blocks, whose sub-blocks are the factors.

    A_q, with a_0 folded in, and B_q are stored for every point, n₁² +
    n₂² doubles a point for the half-grid sizes n₁ and n₂, and the band
    fills read their pair fields there too (:meth:`pair_fields`).  They
    are formed in chunks of points from the m_d, the field's powers
    g_d^α/α! (:meth:`~sgfem.random_field.CoefficientFields.powers`)
    times the 1-D table, and the m_d dropped.
    Every product runs in chunks of points in one workspace of about
    ``_CHUNK_BYTES``, sized for the full product, so that any plan's
    grid, half product and gradients fit in it.
    """

    def __init__(self, tensor: CijkTensor, field: CoefficientFields,
                 mesh: Mesh, free: np.ndarray):
        N, P = tensor.jkset.N, tensor.jkset.degree
        jk = tensor.jkset.as_array()
        h, s = N // 2, (P + 1) ** 2
        (first, self._pos1), (second, self._pos2) = (
            _half_grid(jk[:, :h], P), _half_grid(jk[:, h:], P))
        n1, n2 = self._shape = len(first), len(second)
        # a point's factors of A_q, one per dimension of the first half,
        # then of B_q: the entries of m_d in the point's row of m
        take = np.concatenate(
            [(d * s + part[:, None, e] * (P + 1) + part[None, :, e]).ravel()
             for part, dims in ((first, range(h)), (second, range(h, N)))
             for e, d in enumerate(dims)])
        # the m_d at every point, entry d·(P + 1)² + a·(P + 1) + b, the
        # sum over α ≤ 2P as one matrix product
        table = triple_product_table(2 * P, P).reshape(2 * P + 1, s)
        m = (field.powers(2 * P) @ table).reshape(-1, N * s)
        a0, points = field.mean.ravel(), len(m)
        # A_q with a_0 and B_q, from chunks of the m_d's entries
        self._a = np.empty((points, n1 * n1))
        self._b = np.empty((points, n2 * n2))
        step = max(_CHUNK_BYTES // (8 * len(take)), 1)
        for lo in range(0, points, step):
            hi = min(lo + step, points)
            F = m[lo:hi].take(take, axis=1)
            FA = F[:, :h * n1 * n1].reshape(hi - lo, h, n1 * n1)
            FB = F[:, h * n1 * n1:].reshape(hi - lo, N - h, n2 * n2)
            A, B = self._a[lo:hi], self._b[lo:hi]
            A[:] = a0[lo:hi, None]
            for e in range(h):
                A *= FA[:, e]
            B[:] = FB[:, 0]
            for e in range(1, N - h):
                B *= FB[:, e]
        grad = gradient_matrix(mesh)[:, free].tocsr()
        self._d = grad.indptr, grad.indices, grad.data
        # one flat workspace for the chunk's points per array of the full
        # product, which any plan's arrays fit: the grid, the half product
        # and the gradients, which the result overwrites
        widths = (2 * n1 * n2, 2 * n1 * n2, 2 * len(jk))
        self._points = min(max(_CHUNK_BYTES // (8 * sum(widths)), 1),
                           points)
        self._work = [np.empty(self._points * w) for w in widths]

    def plan(self, rows, cols, summations: int) -> _GaussPlan:
        """The plan of the product from the blocks ``cols`` to the blocks
        ``rows`` (index arrays), whose c_ijk terms number
        ``summations``."""
        hulls, offsets = [], []
        for blocks in (rows, cols):
            for pos in (self._pos1, self._pos2):
                p = pos[blocks]
                lo, hi = (p.min(), p.max() + 1) if len(p) else (0, 0)
                hulls.append(slice(lo, hi))
                offsets.append(p - lo)
        # a one-wide S₂ takes a zero position more where the half grid
        # has one: numpy's matmul leaves BLAS at a contracted width of 1
        lo, n2 = hulls[3].start, self._shape[1]
        if hulls[3].stop - lo == 1 and n2 > 1:
            start = min(lo, n2 - 2)
            hulls[3] = slice(start, start + 2)
            offsets[3] += lo - start
        (t1, t2, s1, s2), (r1, r2, c1, c2) = hulls, offsets

        def entries(p1, p2, width):
            return ((p1 * 2)[None, :] + np.arange(2)[:, None]) * width + p2

        return _GaussPlan(len(rows), len(cols), (t1, s1, s2, t2),
                          entries(c1, c2, s2.stop - s2.start).ravel(),
                          entries(r1, r2, t2.stop - t2.start).ravel(),
                          summations)

    def pair_fields(self, j, k) -> np.ndarray:
        """The pair fields C_q[j[p], k[p]] = A_q[j₁, k₁] · B_q[j₂, k₂] at
        every point, one C-contiguous row per pair p."""
        (n1, n2), (p1, p2) = self._shape, (self._pos1, self._pos2)
        C = self._a.take(p1[j] * n1 + p1[k], axis=1)
        C *= self._b.take(p2[j] * n2 + p2[k], axis=1)
        return np.ascontiguousarray(C.T)

    def factors(self, plan: _GaussPlan, points: slice):
        """A_q[T₁, S₁] and B_q[S₂, T₂] of ``plan`` at the ``points``,
        strided views of the stored factors."""
        (n1, n2), (t1, s1, s2, t2) = self._shape, plan.hulls
        return (self._a[points].reshape(-1, n1, n1)[:, t1, s1],
                self._b[points].reshape(-1, n2, n2)[:, s2, t2])

    def apply(self, plan: _GaussPlan, vt: np.ndarray) -> np.ndarray:
        """The product of ``plan`` applied to the free-node column blocks
        ``vt``, node-major (n_free, n_cols) and C-ordered; the result is
        node-major, (n_free, n_rows)."""
        (f, n_cols), (x, y, g) = vt.shape, self._work
        ip, ix, dx = self._d
        W = np.zeros((f, plan.n_rows))
        if not (plan.n_rows and n_cols):
            return W
        for lo in range(0, len(self._a), self._points):
            hi = min(lo + self._points, len(self._a))
            A, B = self.factors(plan, slice(lo, hi))
            (q, t1, s1), (_, s2, t2) = A.shape, B.shape
            # the column blocks' gradients at the chunk's points, in the grid
            rows = ip[2 * lo:2 * hi + 1]
            G = g[:2 * q * n_cols].reshape(q, 2 * n_cols)
            G.fill(0.0)
            csr_matvecs(2 * q, f, n_cols, rows, ix, dx, vt.ravel(), G.ravel())
            X = x[:q * s1 * 2 * s2].reshape(q, s1 * 2 * s2)
            X.fill(0.0)
            X[:, plan.embed] = G
            Y = y[:q * t1 * 2 * s2].reshape(q, t1, 2 * s2)
            np.matmul(A, X.reshape(q, s1, 2 * s2), out=Y)
            X = x[:q * 2 * t1 * t2].reshape(q, 2 * t1, t2)
            np.matmul(Y.reshape(q, 2 * t1, s2), B, out=X)
            G = g[:2 * q * plan.n_rows].reshape(q, 2 * plan.n_rows)
            np.take(X.reshape(q, -1), plan.pick, axis=1, out=G, mode="clip")
            csc_matvecs(f, 2 * q, plan.n_rows, rows, ix, dx, G.ravel(),
                        W.ravel())
        return W


class GalerkinOperator:
    """Blockwise operator of the lognormal field ``field`` on ``mesh``,
    with the chaos tensor ``tensor``.

    The constructor assembles K_0, the stiffness matrix of the field's
    mean, and fixes the mesh's boundary by
    :func:`~sgfem.fem.apply_dirichlet`, which sets K_0's boundary diagonal
    to 1.  The rest it derives from the field at the Gauss points (module
    docstring): the full product, the sweeps' couplings between levels,
    every band fill and :meth:`block`, all from the Gauss-point product's
    stored factors, built at the first use, and the traces tr(K_iᵀK_0)
    (:meth:`k0_traces`).  It holds no other K_i: :meth:`family`
    assembles those a caller names, anew at each call, for the caller to
    own, :meth:`family_matrices` wraps its rows as CSR matrices, and
    ``k_mats`` is the whole family so wrapped.

    A call of :meth:`tmatvec` runs a plan that :meth:`plan` built for
    (row blocks, column blocks, truncation set): the needed pairs (i, k),
    grouped by i and cut into chunks whose products fit a buffer of about
    ``_CHUNK_BYTES``, and per chunk the sparse coupling matrix that mixes
    the buffer rows into the row blocks.  Or it runs a plan that
    :meth:`gauss_plan` built for (row blocks, column blocks) at the
    Gauss points, in chunks of points in a workspace of about the same
    size.  Or it runs a plan of :meth:`pair_plans`, a coupling inside
    a run of blocks through the run's pair blocks.  The caller holds the
    plan, so a plan lives as long as its user.  All calls share the
    buffer and the workspace, so an operator must not run two products
    at once (from two threads).

    The constructor refuses, with ValueError, a tensor with P′ < 2P and
    a field on another basis than the tensor's i-set or at other points
    than the mesh's, before any assembly.

    The fixed nodes ``fixed`` are the mesh's boundary, ascending; the
    other nodes are ``free``, of which there are ``n_free``; products,
    mixing and band fills run on a free-node CSR.  ``nnz`` counts the
    stored entries of K_0's pattern, the length of a K_i's data.

    Product and summation counters accumulate across applications:
    ``summations`` counts the c_ijk terms a product covers (the cost
    measure of the truncated product), ``products`` the sparse
    matrix-vector products K_i v_(k) actually run, which only the
    family's plans run: a product at the Gauss points or through pair
    blocks counts its terms and no product.  Within one call each K_i
    v_(k) is computed once for all row blocks.
    """

    def __init__(self, tensor: CijkTensor, field: CoefficientFields,
                 mesh: Mesh):
        iset = tensor.iset
        if iset.degree < 2 * tensor.jkset.degree:
            raise ValueError(
                f"the Gauss-point product needs P' >= 2P, got "
                f"P' = {iset.degree}, P = {tensor.jkset.degree}")
        points = (len(mesh.elements), 4)
        if (field.basis != iset or field.mean.shape != points
                or field.modes.shape != (iset.N,) + points):
            raise ValueError(f"the field is not on the tensor's i-set with "
                             f"a mean and {iset.N} modes at the mesh's "
                             f"{points} Gauss points")
        self.tensor = tensor
        # the boundary diagonal 1; the load is the caller's, so the zero
        # one treated here is dropped
        self._k0 = apply_dirichlet(
            assemble_stiffness_family(mesh, field.mean[None])[0],
            np.zeros(mesh.n_nodes), mesh)[0]
        self.n_dof = mesh.n_nodes
        self.nnz = len(self._k0.data)
        self.M = len(tensor.jkset) - 1
        self.Mprime = len(iset) - 1
        self.counters = {"summations": 0, "products": 0}
        self._fix_boundary(mesh.boundary)
        # (G_0)_jj = c_0jj: G_0 is diagonal, the chaos basis orthogonal
        zero = tensor.i == 0
        self._g0 = np.zeros(self.M + 1)
        self._g0[tensor.j[zero]] = tensor.val[zero]
        self._buffer: np.ndarray | None = None
        self._buffer_rows: list = []
        self._field, self._mesh = field, mesh
        self._gauss: _GaussPointProduct | None = None
        self._full: _GaussPlan | None = None
        self._by_k: tuple | None = None

    def _fix_boundary(self, boundary: np.ndarray) -> None:
        """Fix the mesh's boundary nodes, on whose Dirichlet pattern K_0
        and the family are assembled (module docstring), and lay out the
        free-node CSR of that pattern.

        Free row r holds the slots from row free[r]'s first up to the
        next free row's first: the slot of a fixed row that lies between
        two free rows joins the one before it, with its column set to
        the zero pad entry past the free nodes, so it adds ±0.0.  The
        band of the block factors is that of the free-node pattern: its
        largest row-minus-column offset, which no pad slot sets.
        """
        n, ip, ix = self.n_dof, self._k0.indptr, self._k0.indices
        self.fixed, self._fixed_slots = boundary, ip[boundary]
        is_fixed = np.zeros(n, dtype=bool)
        is_fixed[boundary] = True
        self.free = free = np.flatnonzero(~is_fixed)
        self.n_free = f = len(free)
        lo, hi = (ip[free[0]], ip[free[-1] + 1]) if f else (0, 0)
        self._free_span = slice(lo, hi)
        # the free rows' slots, and their columns, in a whole data row
        self._row_indptr = np.append(ip[free], hi).astype(ix.dtype)
        column = np.full(n, f, dtype=ix.dtype)
        column[free] = np.arange(f)
        self._row_indices = column[ix]
        self._free_indices = self._row_indices[lo:hi]
        self._free_rows = rows = np.repeat(np.arange(f),
                                           np.diff(self._row_indptr))
        self._band = int((rows - self._free_indices).max(initial=0))
        # the slot of entry (b, a) for each entry (a, b) below the
        # diagonal: the pattern is symmetric, and its slots ascend by row
        # and column, the pad slots last in their row
        cols = self._free_indices.astype(np.int64)
        low = rows > cols
        self._mirror = np.searchsorted(rows * (f + 1) + cols,
                                       cols[low] * (f + 1) + rows[low])

    def family(self, indices, purpose: str) -> np.ndarray:
        """The data of the K_i of the coefficient ``indices``, assembled
        anew from the field's values at them, as one C-contiguous
        (len(indices), nnz) array on K_0's pattern, index 0's row K_0's
        data as the operator holds it.  The data and the values,
        8·len(indices)·(nnz + points) bytes, are checked against physical
        memory first: a MemoryError names ``purpose``."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        nnz, size = self.nnz, self._field.mean.size
        check_fits(8 * len(indices) * (nnz + size), lambda: (
            f"the stiffness family for {purpose}, {len(indices)} "
            f"matrices of {nnz} stored entries, with the coefficient "
            f"values at its {size} points, needs"))
        data = stiffness_data(self._mesh, self._field.values(indices))
        data[indices == 0] = self._k0.data
        return data

    def family_matrices(self, data: np.ndarray) -> list[sp.csr_matrix]:
        """The rows of ``data``, K_i's data as :meth:`family` gives it, as
        CSR matrices on K_0's pattern, each viewing its row."""
        k0 = self._k0
        return [csr_on(row, k0.indices, k0.indptr, k0.shape) for row in data]

    @property
    def k_mats(self) -> list[sp.csr_matrix]:
        """The whole family, assembled anew at each read."""
        return self.family_matrices(
            self.family(range(len(self.tensor.iset)), "k_mats"))

    @property
    def n_global(self) -> int:
        return (self.M + 1) * self.n_dof

    # -- truncated blockwise product ------------------------------------

    def _chunk_rows(self) -> int:
        """Buffer rows per chunk: about _CHUNK_BYTES, and at least one
        coefficient's products over all M+1 column blocks."""
        return max(_CHUNK_BYTES // (8 * self.n_dof), self.M + 1)

    def _blocks(self, blocks) -> np.ndarray:
        """Distinct block indices in [0, M], given as such or as a
        range."""
        if (len(set(blocks)) != len(blocks)
                or not all(0 <= b <= self.M for b in blocks)):
            raise ValueError(f"block indices must be distinct and in "
                             f"[0, {self.M}], got {list(blocks)}")
        return np.asarray(blocks, dtype=np.int64).reshape(-1)

    def plan(self, row_blocks, col_blocks, trunc: TruncationSet,
             family) -> _Plan:
        """The plan of w_(j) = Σ_{k∈col_blocks} Σ_{i∈trunc} c_ijk K_i v_(k)
        for :meth:`tmatvec`, through ``family``, the data of the K_i of
        the set's indices inside the tensor, one row per index in the
        set's order, as :meth:`family` gives it or as a list of its rows.
        The plan holds the rows it multiplies, so plans given one list
        share them.  The blocks are given as in :meth:`_blocks`."""
        rows, cols = self._blocks(row_blocks), self._blocks(col_blocks)
        t = self.tensor
        n_cols = len(cols)
        pos_r = np.full(self.M + 1, -1, dtype=np.int64)
        pos_r[rows] = np.arange(len(rows))
        pos_c = np.full(self.M + 1, -1, dtype=np.int64)
        pos_c[cols] = np.arange(n_cols)
        # indices past the tensor (a degree above 2P) carry no c_ijk
        keep = np.zeros(len(t.iset), dtype=bool)
        keep[trunc.indices[trunc.indices < len(t.iset)]] = True
        if len(family) != keep.sum():
            raise ValueError(f"{len(family)} K_i for {keep.sum()} indices")
        row = np.cumsum(keep) - 1  # each kept index's row of the family
        # the retained terms among the column blocks' entries, in any
        # order: the products and the mixing below order them
        by_k, starts = self._entries_by_k()
        counts = starts[cols + 1] - starts[cols]
        sel = by_k[np.repeat(starts[cols] - np.cumsum(counts) + counts,
                             counts) + np.arange(counts.sum())]
        sel = sel[keep[t.i[sel]] & (pos_r[t.j[sel]] >= 0)]
        rr, vv = pos_r[t.j[sel]], t.val[sel]
        pairs, prod = np.unique(t.i[sel] * n_cols + pos_c[t.k[sel]],
                                return_inverse=True)
        pi, pk = pairs // n_cols, pairs % n_cols
        # cut the products into chunks at coefficient boundaries
        starts = np.flatnonzero(np.diff(pi, prepend=-1))
        bounds = np.append(starts, len(pairs))
        cap, cuts, lo = self._chunk_rows(), [0], 0
        for g in range(1, len(bounds)):
            if bounds[g] - lo > cap:
                lo = bounds[g - 1]
                cuts.append(lo)
        cuts.append(len(pairs))
        idx_dtype = self._k0.indices.dtype
        order = np.lexsort((prod, rr))
        chunks = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a == b:
                continue
            m = order[(prod[order] >= a) & (prod[order] < b)]
            indptr = np.zeros(len(rows) + 1, dtype=idx_dtype)
            np.cumsum(np.bincount(rr[m], minlength=len(rows)),
                      out=indptr[1:])
            if n_cols == 1:
                steps = [family[r] for r in row[pi[a:b]]]
            else:
                steps = [(family[row[pi[s]]], s - a, pk[s:e])
                         for s, e in zip(bounds[:-1], bounds[1:])
                         if a <= s < b]
            chunks.append(_Chunk(steps, b - a, indptr,
                                 (prod[m] - a).astype(idx_dtype),
                                 np.ascontiguousarray(vv[m], dtype=float)))
        return _Plan(len(rows), n_cols, tuple(chunks), len(pairs), len(sel))

    def _entries_by_k(self) -> tuple[np.ndarray, np.ndarray]:
        """The tensor's entries grouped by k and where each k's group
        starts (M + 2 bounds), computed at the first plan and kept."""
        if self._by_k is None:
            k = self.tensor.k
            order = np.argsort(k, kind="stable")
            self._by_k = order, np.searchsorted(k[order], range(self.M + 2))
        return self._by_k

    def _chunk_buffer(self, n_products: int) -> np.ndarray:
        """The stacked product buffer's first rows, one entry per free
        node, shared by all calls."""
        if self._buffer is None:
            self._buffer = np.empty((self._chunk_rows(), self.n_free))
            self._buffer_rows = list(self._buffer)
        return self._buffer[:n_products]

    def _gauss_product(self) -> _GaussPointProduct:
        """The Gauss-point product, built at its first use."""
        if self._gauss is None:
            self._gauss = _GaussPointProduct(self.tensor, self._field,
                                             self._mesh, self.free)
        return self._gauss

    def gauss_plan(self, row_blocks, col_blocks) -> _GaussPlan:
        """The plan of w_(j) = Σ_{k∈col_blocks} Σ_i c_ijk K_i v_(k) over
        the full tensor for :meth:`tmatvec`, at the Gauss points (module
        docstring).  The blocks are given as in :meth:`_blocks`."""
        rows, cols = self._blocks(row_blocks), self._blocks(col_blocks)
        t = self.tensor
        summations = np.count_nonzero(np.isin(t.j, rows) & np.isin(t.k, cols))
        return self._gauss_product().plan(rows, cols, int(summations))

    def pair_bytes(self, runs) -> int:
        """The bytes of the :meth:`pair_plans` of every run of blocks in
        ``runs``, held at once: of a run of s > 1 blocks, the
        s(s − 1)/2 pairs' data and the pattern of s − 1 of them
        stacked."""
        f, nnz = self.n_free, self._free_span.stop - self._free_span.start
        s = np.array([len(run) for run in runs if len(run) > 1], np.int64)
        return 8 * int(np.sum(s * (s - 1) // 2)) * nnz + \
            self._row_indices.itemsize * int(np.sum((s - 1) * (nnz + f) + 1))

    def pair_plans(self, blocks: range) -> list:
        """For each block q of the consecutive ``blocks`` past the first,
        the plans for :meth:`tmatvec` of the pull into q from the blocks
        s..q−1 before it, s = blocks.start, and of the push from q to
        them, as a (pull, push) pair.

        They share the run's pair blocks: the pairs (q, p), p < q, in
        row-major order, each block K^{(qp)} = K^{(pq)} one row on the
        free span of K_0's pattern, filled as the band fills are
        (:meth:`_pair_values`), so that q's pairs are one slice; and the
        pattern of s − 1 pairs stacked, rows (pair, free node), whose
        first rows every slice reads, of :meth:`pair_bytes`, which are
        not checked here."""
        f, s, t = self.n_free, len(blocks), self.tensor
        nnz = self._free_span.stop - self._free_span.start
        j, k = t.j - blocks.start, t.k - blocks.start
        # the c_ijk terms of each pair of the run's blocks
        inside = (j >= 0) & (j < s) & (k >= 0) & (k < s)
        terms = np.bincount(j[inside] * s + k[inside],
                            minlength=s * s).reshape(s, s)
        q, p = np.tril_indices(s, -1)
        data = np.empty((len(q), nnz))
        for part, values in self._pair_values(blocks.start + q,
                                              blocks.start + p):
            data[part] = values[:, self._free_span]
        longest = max(s - 1, 0)
        starts = self._row_indptr[:-1] - self._free_span.start
        indptr = np.append(np.arange(longest)[:, None] * nnz + starts,
                           longest * nnz).astype(self._row_indices.dtype)
        indices = np.tile(self._free_indices, longest)
        plans = []
        for m in range(1, s):
            pairs = (indptr[:m * f + 1], indices[:m * nnz],
                     data[m * (m - 1) // 2:m * (m + 1) // 2].reshape(-1))
            plans.append((_PairPlan(1, m, *pairs, int(terms[m, :m].sum())),
                          _PairPlan(m, 1, *pairs, int(terms[:m, m].sum()))))
        return plans

    def tmatvec(self, plan: _Plan | _GaussPlan | _PairPlan,
                v: np.ndarray) -> np.ndarray:
        """The product of a plan of :meth:`plan`, :meth:`gauss_plan` or
        :meth:`pair_plans` applied to ``v`` on the free nodes: ``v``
        holds the plan's column blocks, shape (n_cols, n_free) or flat,
        and the result its row blocks in the input layout.  Through the
        family, each needed product K_i v_(k) is computed once and
        shared.  At the Gauss points and through the pair blocks a call
        counts its c_ijk terms in ``summations`` and runs no
        ``products``: a pair block is the sum over i, multiplied once."""
        f, v = self.n_free, np.asarray(v, dtype=float)
        V = v.reshape(plan.n_cols, f)
        if isinstance(plan, _GaussPlan):
            W = self._gauss_product().apply(plan, np.ascontiguousarray(V.T))
            self.counters["summations"] += plan.summations
            return W.T.ravel() if v.ndim == 1 else W.T
        if isinstance(plan, _PairPlan):
            # the m pairs stacked, rows (pair, free node), columns the
            # free nodes and the zero pad entry past them
            m = plan.n_rows * plan.n_cols
            if plan.n_rows == 1:  # a pull: Σ_p K^{(qp)} v_(p), transposed
                w = np.zeros(f + 1)
                csc_matvecs(f + 1, m * f, 1, plan.indptr, plan.indices,
                            plan.data, V.ravel(), w)
                W = w[None, :f]
            else:  # a push: K^{(pq)} v_(q) for each p
                y = np.zeros(f + 1)
                y[:f] = V[0]
                W = np.zeros((m, f))
                csr_matvec(m * f, f + 1, plan.indptr, plan.indices,
                           plan.data, y, W.ravel())
            self.counters["summations"] += plan.summations
            return W.ravel() if v.ndim == 1 else W
        single_column = plan.n_cols == 1
        W = np.zeros((plan.n_rows, f))
        ip, ix = self._row_indptr, self._row_indices
        # the entries of v, then the zero pad entry
        if single_column:
            y = np.zeros(f + 1)
            y[:f] = V[0]
        else:
            Vt = np.zeros((f + 1, plan.n_cols))
            Vt[:f] = V.T
        for ch in plan.chunks:
            S = self._chunk_buffer(ch.n_products)
            if single_column:
                S.fill(0.0)
                out = self._buffer_rows
                for p, ki in enumerate(ch.steps):
                    csr_matvec(f, f + 1, ip, ix, ki, y, out[p])
            else:
                for ki, p, ks in ch.steps:
                    m = len(ks)
                    U = np.zeros((f, m))
                    csr_matvecs(f, f + 1, m, ip, ix, ki,
                                Vt.take(ks, axis=1).ravel(), U.ravel())
                    S[p:p + m] = U.T
            csr_matvecs(plan.n_rows, ch.n_products, f, ch.mix_indptr,
                        ch.mix_indices, ch.mix_data, S.ravel(), W.ravel())
        self.counters["products"] += plan.products
        self.counters["summations"] += plan.summations
        return W.ravel() if v.ndim == 1 else W

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Full product A v over all blocks with the complete tensor, on
        every node: ``v`` of shape (M+1, n_dof) or flat, the result in
        the input layout.  A fixed node b of block j gets the closed form
        (G_0)_jj · (K_0[b,b] · v_(j)[b]).

        The free nodes are multiplied at the Gauss points by
        :meth:`tmatvec` on the plan of all blocks to all blocks
        (:meth:`gauss_plan`, built at the first call), reading no K_i; a
        call counts the tensor's terms in ``summations`` and runs no
        ``products``."""
        v = np.asarray(v, dtype=float)
        V = v.reshape(self.M + 1, self.n_dof)
        W = np.empty_like(V)
        if self._full is None:
            self._full = self.gauss_plan(range(self.M + 1), range(self.M + 1))
        W[:, self.free] = self.tmatvec(self._full, V.T[self.free].T)
        W[:, self.fixed] = self._g0[:, None] * (
            self._k0.data[self._fixed_slots] * V[:, self.fixed])
        return W.ravel() if v.ndim == 1 else W

    def fixed_divisor(self, blocks: range) -> np.ndarray:
        """(G_0)_jj · K_0[b,b] for each block j of the consecutive
        ``blocks`` and fixed node b, shape (blocks, fixed nodes): the
        diagonal of a fixed row.  Raises :class:`FactorizationError`
        when one is not positive."""
        divisor = np.outer(self._g0[blocks.start:blocks.stop],
                           self._k0.data[self._fixed_slots])
        if not np.all(divisor > 0):  # NaN too
            raise FactorizationError("non-positive divisor of a diagonal "
                                     "row: matrix is not positive definite")
        return divisor

    # -- assembled blocks -------------------------------------------------

    def block(self, j: int, k: int) -> sp.csr_matrix | None:
        """Assembled block K^{(j,k)} with the full sum, or None if zero:
        the stiffness matrix of its pair field, as the band fills take
        it (:meth:`_pair_values`), with a fixed row's diagonal
        (G_0)_jj · K_0[b,b] when j = k.  The pair field of block (0, 0)
        is the mean, whose matrix is K_0."""
        t = self.tensor
        if not np.any((t.j == j) & (t.k == k)):
            return None
        (_, data), = self._pair_values(np.array([j]), np.array([k]))
        data = data[0].copy()
        if j == k:
            data[self._fixed_slots] = (self._g0[j]
                                       * self._k0.data[self._fixed_slots])
        return sp.csr_matrix((data, self._k0.indices, self._k0.indptr),
                             shape=(self.n_dof, self.n_dof))

    def assemble_diag_block(self, blocks: range) -> Factorization:
        """A new factorization of the block diagonal of the consecutive
        ``blocks``, K^{(j,j)} = Σ_i c_ijj K_i (never truncated) for each
        j in block-major order: the band of their runs of one block side
        by side (:meth:`_factor`), one factor that solves them all.  The
        entries that would couple a block to the next stay 0, so the
        factor is block diagonal too."""
        return self._factor(blocks, 1)

    def assemble_level_block(self, blocks: range) -> Factorization:
        """A new factorization of the matrix of the consecutive
        ``blocks``, every pair K^{(j,k)} = Σ_i c_ijk K_i (never
        truncated), such as a level matrix D_ℓ, never assembled: the
        band of one run of all the blocks (:meth:`_factor`), so the band
        is run_band(s) instead of about n_free·s for the s blocks."""
        return self._factor(blocks, len(blocks))

    def _factor(self, blocks: range, s: int) -> Factorization:
        """A banded Cholesky of the consecutive ``blocks`` in runs of s
        blocks (:meth:`_fill_band`), the band's bytes checked against
        physical memory before it is filled in place.  A run of s > 1
        blocks holds its rows in node-interleaved order, which ``rows``
        maps back to block-major order."""
        f = self.n_free
        check_band_fits(len(blocks) * f, self.run_band(s))
        rows = None
        if s > 1:
            rows = (np.arange(f)[:, None] + np.arange(s) * f).ravel()
        return factorize_band(self._fill_band(blocks, s), rows)

    def run_band(self, s: int) -> int:
        """Sub-diagonals of the node-interleaved band of a run of s
        blocks, s·b + s − 1 for the free pattern's band b; b for one
        block."""
        return s * self._band + s - 1

    def _fill_band(self, blocks: range, s: int) -> np.ndarray:
        """The free rows of the consecutive ``blocks`` in lower band
        storage with run_band(s) sub-diagonals, as runs of s blocks side
        by side, s one or len(blocks): a run's rows are node-interleaved,
        row (free node)·s + block, and its band holds the matrix of all
        its pairs, filled straight from their values
        (:meth:`_pair_values`) in one pass over every run.

        Entry (a, b) of the free pattern in pair (r, c) is entry
        (a·s + r, b·s + c) of its run's matrix; it lies in the lower
        triangle when a > b, or when a = b and r ≥ c, so only pairs with
        r ≥ c write the diagonal node entries.  Pad slots, whose column
        is past every free node, write nothing.  Only the pairs with
        r ≥ c are computed: block (k, j) is the transpose of block (j, k)
        bit for bit, since the pair fields and the element matrices are
        symmetric, so pair (c, r) writes the entries (b, a) of pair
        (r, c).
        """
        f, band, span = self.n_free, self.run_band(s), self._free_span
        node, cols = self._free_rows, self._free_indices.astype(np.int64)
        lower = node >= cols
        # the band's transpose, C-ordered: entry (a, b) of pair (r, c) of
        # run t goes to row (t·n_free + b)·s + c, column (a − b)·s + r − c,
        # which is position base + t·s·n_free·(band + 1) + c·band + r of
        # its flat array
        abT = np.zeros((len(blocks) * f, band + 1))
        flat = abT.reshape(-1)
        base = (cols * (band + 1) + node - cols) * s
        at_lower = base[None, lower]
        r, c = np.tri(s, dtype=bool).nonzero()
        run = np.arange(0, len(blocks), s)[:, None]
        shift = (run * (f * (band + 1)) + c * band + r).ravel()
        j, k = blocks.start + run + r, blocks.start + run + c
        if s > 1:  # one run, whose pairs r > c write their mirrors too
            flip, at_low = r * band + c, base[None, node > cols]
        for part, values in self._pair_values(j.ravel(), k.ravel()):
            values = values[:, span]
            flat[at_lower + shift[part, None]] = values[:, lower]
            if s > 1:
                off = r[part] > c[part]
                flat[at_low + flip[part][off, None]] = \
                    values[off][:, self._mirror]
        return abT.T

    def _pair_values(self, j, k):
        """The blocks (j[p], k[p]) on the Dirichlet pattern, as (slice of
        p, data) chunks, the data of the chunk's pairs as rows.  Block
        (j, k) = Σ_i c_ijk K_i is the stiffness matrix of the pair field
        C_q[j, k] = A_q[j₁, k₁] · B_q[j₂, k₂] of the Gauss-point product
        (:meth:`_GaussPointProduct.pair_fields`), exactly since P′ ≥ 2P,
        assembled as a K_i is (:func:`~sgfem.fem.stiffness_data`).  A
        first pair (0, 0) is K_0, whose data the operator holds and
        yields, for the caller to read only: c_i00 = δ_i0 and c_000 = 1,
        so K^{(00)} = K_0, and the Gauss-point product is built only
        where another pair needs it.  A chunk's fields, data and the
        caller's gathers of the data take about a quarter of
        ``_CHUNK_BYTES``, beside the assembly's own chunk."""
        mean = int(len(j) > 0 and j[0] == k[0] == 0)
        if mean:
            yield slice(0, 1), self._k0.data[None]
        if len(j) > mean:
            gauss, mesh = self._gauss_product(), self._mesh
            points = self._field.mean.size
            step = max(_CHUNK_BYTES // (64 * (points + self.nnz)), 1)
            for lo in range(mean, len(j), step):
                fields = gauss.pair_fields(j[lo:lo + step], k[lo:lo + step])
                yield slice(lo, lo + step), stiffness_data(
                    mesh, fields.reshape(len(fields), -1, 4))

    def k0_traces(self) -> np.ndarray:
        """tr(K_iᵀK_0) for every coefficient index i, from the field at
        the Gauss points, assembling no K_i: with u the point weights of
        K_0's data (:func:`~sgfem.fem.point_weights`), the trace is
        Σ_q k_i(q) u(q)
        (:meth:`~sgfem.random_field.CoefficientFields.moments`), plus,
        for i = 0, Σ_b K_0[b,b]² over the fixed nodes, where every other
        K_i holds 0."""
        d0 = self._k0.data
        traces = self._field.moments(point_weights(self._mesh, d0))
        fixed = d0[self._fixed_slots]
        traces[0] += fixed @ fixed
        return traces

    def assemble_global_dense(self, cap: int = 5000,
                              kdata: np.ndarray | None = None) -> np.ndarray:
        """Explicit global matrix for brute-force verification and
        ``sg export``, every block Σ_i c_ijk K_i from the family, the
        c_ijk in ascending i: ``kdata``, the whole family's data as
        :meth:`family` gives it, or when None read here once."""
        n = self.n_global
        if n > cap:
            raise ValueError(f"global dimension {n} exceeds the dense "
                             f"assembly cap {cap}")
        nd, k0 = self.n_dof, self._k0
        if kdata is None:
            kdata = self.family(range(len(self.tensor.iset)),
                                "the dense assembly")
        A = np.zeros((n, n))
        t, m1 = self.tensor, self.M + 1
        for pair in np.unique(t.j * m1 + t.k).tolist():
            j, k = divmod(pair, m1)
            sel = np.flatnonzero((t.j == j) & (t.k == k))
            A[j * nd:(j + 1) * nd, k * nd:(k + 1) * nd] = sp.csr_matrix(
                (t.val[sel] @ kdata[t.i[sel]], k0.indices, k0.indptr),
                shape=(nd, nd)).toarray()
        return A
