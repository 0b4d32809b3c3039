"""Shared helpers: build small end-to-end problem instances, probe linear
maps, find the factorizations and product plans an object holds, trace
the memory of a call and read a sweep's steps in blocks; oracles of the
family's product plans by a scan of the whole tensor, of the full
product through the stiffness family and through the 1-D matrices m_d
at the Gauss points, of the pair fields from the m_d, of the degree
levels, of lower band storage, of the band fills through the family's
coupling, of the coupling matrices, of the Hermite polynomials and of
the dense KL eigenproblem."""

import math
import tracemalloc

import numpy as np
from hypothesis import settings
from numpy.polynomial.hermite_e import hermeval

from sgfem.chaos import _half_grid, build_c_tensor, triple_product_table
from sgfem.fem import (
    assemble_load,
    build_mesh,
    gradient_matrix,
)
from sgfem.galerkin import (
    GalerkinOperator,
    _Chunk,
    _Plan,
    csc_matvecs,
    csr_matvecs,
    full_truncation,
)
from sgfem.linalg import Factorization
from sgfem.random_field import (
    ExponentialCovariance,
    discrete_kl,
    field_parameters,
    gpc_coefficients,
)

# a failing property prints its @reproduce_failure blob, so a failure
# replayed from a local example database reproduces anywhere
settings.register_profile("sgfem", print_blob=True)
settings.load_profile("sgfem")


def build_inputs(N, P, n, cov=1.0, mu_log=1.0, L=0.5, Pprime=None):
    """Small-scale pipeline up to the operator: mesh -> KL -> tensor ->
    coefficients of degree P′ (default 2P).  Returns (tensor, field,
    mesh): the operator's arguments."""
    mesh = build_mesh(n)
    g0, sg = field_parameters(mu_log, cov)
    kl = discrete_kl(mesh, ExponentialCovariance(sg, L), N, g0=g0)
    tensor = build_c_tensor(N, P, 2 * P if Pprime is None else Pprime)
    return tensor, gpc_coefficients(kl, tensor.iset, mesh), mesh


def build_operator(N, P, n, cov=1.0, mu_log=1.0, L=0.5):
    """Full pipeline at small scale: :func:`build_inputs`, the block
    operator and the load with its boundary entries zeroed.  Returns
    (op, b, mesh, field) with b the global right-hand side (unit load in
    the mean block only)."""
    tensor, field, mesh = build_inputs(N, P, n, cov, mu_log, L)
    op = GalerkinOperator(tensor, field, mesh)
    b = np.zeros(op.n_global)
    b[:op.n_dof] = assemble_load(mesh, 1.0)
    b[mesh.boundary] = 0.0
    return op, b, mesh, field


def all_indices(op) -> range:
    """Every coefficient index of the operator's tensor."""
    return range(len(op.tensor.iset))


def retained_family(op, trunc) -> np.ndarray:
    """The data of the K_i of ``trunc``'s indices inside the tensor, the
    family that a plan of ``trunc`` multiplies (``op.plan``)."""
    kept = trunc.indices[trunc.indices < len(op.tensor.iset)]
    return op.family(kept, "a test plan")


def family_plan(op, rows, cols, trunc) -> _Plan:
    """``op.plan`` of ``trunc`` through its retained K_i, assembled for
    this plan alone."""
    return op.plan(rows, cols, trunc, retained_family(op, trunc))


def scan_plan(op, rows, cols, trunc, family) -> _Plan:
    """The plan of ``op.plan(rows, cols, trunc, family)`` from a scan of
    every tensor entry for those in the blocks and the set (oracle of
    the plan's selection through the entries indexed by column block),
    its steps ``family``'s rows."""
    kept = trunc.indices[trunc.indices < len(op.tensor.iset)]
    krows = dict(zip(kept.tolist(), family))
    rows, cols = op._blocks(rows), op._blocks(cols)
    t, n_cols = op.tensor, len(cols)
    pos_r = np.full(op.M + 1, -1, dtype=np.int64)
    pos_r[rows] = np.arange(len(rows))
    pos_c = np.full(op.M + 1, -1, dtype=np.int64)
    pos_c[cols] = np.arange(n_cols)
    keep = np.zeros(len(t.iset), dtype=bool)
    keep[trunc.indices[trunc.indices < len(t.iset)]] = True
    sel = np.flatnonzero(keep[t.i] & (pos_r[t.j] >= 0) & (pos_c[t.k] >= 0))
    rr, vv = pos_r[t.j[sel]], t.val[sel]
    pairs, prod = np.unique(t.i[sel] * n_cols + pos_c[t.k[sel]],
                            return_inverse=True)
    pi, pk = pairs // n_cols, pairs % n_cols
    starts = np.flatnonzero(np.diff(pi, prepend=-1))
    bounds = np.append(starts, len(pairs))
    cap, cuts, lo = op._chunk_rows(), [0], 0
    for g in range(1, len(bounds)):
        if bounds[g] - lo > cap:
            lo = bounds[g - 1]
            cuts.append(lo)
    cuts.append(len(pairs))
    idx_dtype = op._k0.indices.dtype
    order = np.lexsort((prod, rr))
    chunks = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        m = order[(prod[order] >= a) & (prod[order] < b)]
        indptr = np.zeros(len(rows) + 1, dtype=idx_dtype)
        np.cumsum(np.bincount(rr[m], minlength=len(rows)), out=indptr[1:])
        steps = ([krows[i] for i in pi[a:b].tolist()] if n_cols == 1 else
                 [(krows[int(pi[s])], s - a, pk[s:e])
                  for s, e in zip(bounds[:-1], bounds[1:]) if a <= s < b])
        chunks.append(_Chunk(steps, b - a, indptr,
                             (prod[m] - a).astype(idx_dtype),
                             np.ascontiguousarray(vv[m], dtype=float)))
    return _Plan(len(rows), n_cols, tuple(chunks), len(pairs), len(sel))


def sweep_steps(pre):
    """The built sweep of a block Gauss-Seidel ``pre`` in blocks: the
    unit it solves first, then per step its product's row blocks, column
    blocks and plan, and the unit it then solves, each unit a range."""
    f = pre.op.n_free

    def blocks(entries):
        return range(entries.start // f, entries.stop // f)

    (first, _), steps = pre._sweep
    return blocks(first), [(blocks(rows), blocks(cols), plan, blocks(blk))
                           for rows, cols, plan, blk, _ in steps]


def family_matvec(op, V, family=None) -> np.ndarray:
    """The full product through the stiffness family ``family``, every
    K_i's data (by default the operator's), shape (M+1, n_dof) (oracle
    of the Gauss-point product): the truncated product over every block
    and every K_i on the free nodes, and the closed form
    (G_0)_jj · K_0[b,b] · v_(j)[b] on a fixed node b."""
    if family is None:
        family = op.family(all_indices(op), "the family oracle")
    V = np.asarray(V, dtype=float).reshape(op.M + 1, op.n_dof)
    blocks = range(op.M + 1)
    W = np.empty_like(V)
    W[:, op.free] = op.tmatvec(
        op.plan(blocks, blocks, full_truncation(op.tensor), family),
        V[:, op.free])
    W[:, op.fixed] = np.diag(g_matrix(0, op.tensor))[:, None] * (
        family[0, op._fixed_slots] * V[:, op.fixed])
    return W


def md_factors(op) -> np.ndarray:
    """The 1-D matrices m_d[a, b] = Σ_α g_d^α/α! T[α, a, b] of every
    dimension d at every point, shape (points, N·(P + 1)²), entry
    d·(P + 1)² + a·(P + 1) + b: the powers g_d^α/α! by repeated
    products, then the sum over α as one matrix product with the 1-D
    table."""
    tensor, modes = op.tensor, op._field.modes
    N, P = tensor.jkset.N, tensor.jkset.degree
    g = modes.reshape(N, -1).T
    powers = np.empty(g.shape + (2 * P + 1,))
    powers[..., 0] = 1.0
    for a in range(1, 2 * P + 1):
        np.multiply(powers[..., a - 1], g, out=powers[..., a])
        powers[..., a] /= a
    table = triple_product_table(2 * P, P).reshape(2 * P + 1, (P + 1) ** 2)
    return (powers @ table).reshape(len(g), N * (P + 1) ** 2)


def md_pair_fields(op, j, k) -> np.ndarray:
    """The pair fields C_q[j[p], k[p]] = a_0 Π_d m_d[j_d, k_d] at every
    point, one row per pair, each m_d multiplied onto a_0 in turn in the
    order of the dimensions (oracle of the fills' pair fields, which
    share its order of operations at N ≤ 2)."""
    jk, side = op.tensor.jkset.as_array(), op.tensor.jkset.degree + 1
    m = md_factors(op)
    fields = np.repeat(op._field.mean.reshape(1, -1), len(j), axis=0)
    for d in range(jk.shape[1]):
        fields *= m[:, d * side ** 2 + jk[j, d] * side + jk[k, d]].T
    return fields


def md_matvec(op, V) -> np.ndarray:
    """The full product on the free nodes, shape (M+1, n_free), by the
    Gauss-point kernel that forms A_q and B_q from the 1-D matrices m_d
    at every call and stores neither (bitwise oracle of ``matvec``).
    Every point is multiplied on its own and the scatter adds the points
    in order, so one chunk of all points gives the numbers of any
    chunking."""
    tensor, mean, mesh = op.tensor, op._field.mean, op._mesh
    N, P = tensor.jkset.N, tensor.jkset.degree
    jk = tensor.jkset.as_array()
    h, s = N // 2, (P + 1) ** 2
    (first, pos1), (second, pos2) = (_half_grid(jk[:, :h], P),
                                     _half_grid(jk[:, h:], P))
    n1, n2 = len(first), len(second)
    take = np.concatenate(
        [(d * s + part[:, None, e] * (P + 1) + part[None, :, e]).ravel()
         for part, dims in ((first, range(h)), (second, range(h, N)))
         for e, d in enumerate(dims)])
    pos = ((pos1 * 2 * n2 + pos2)[None, :]
           + (np.arange(2) * n2)[:, None]).ravel()
    m = md_factors(op)
    q, m1 = len(m), len(jk)
    F = np.take(m, take, axis=1)
    A = np.empty((q, n1 * n1))
    A[:] = mean.ravel()[:, None]
    for e in range(h):
        A *= F[:, e * n1 * n1:(e + 1) * n1 * n1]
    B = F[:, h * n1 * n1:h * n1 * n1 + n2 * n2]
    for e in range(1, N - h):
        B *= F[:, h * n1 * n1 + e * n2 * n2:h * n1 * n1 + (e + 1) * n2 * n2]
    grad = gradient_matrix(mesh)[:, op.free].tocsr()
    vt = np.asarray(V, dtype=float).reshape(m1, op.n_dof).T[op.free]
    G = np.zeros((q, 2 * m1))
    csr_matvecs(2 * q, op.n_free, m1, grad.indptr, grad.indices, grad.data,
                vt.ravel(), G.ravel())
    X = np.zeros((q, 2 * n1 * n2))
    X[:, pos] = G
    Y = np.matmul(A.reshape(q, n1, n1), X.reshape(q, n1, 2 * n2))
    X = np.matmul(Y.reshape(q, 2 * n1, n2), B.reshape(q, n2, n2))
    G = np.take(X.reshape(q, -1), pos, axis=1)
    W = np.zeros((op.n_free, m1))
    csc_matvecs(op.n_free, 2 * q, m1, grad.indptr, grad.indices, grad.data,
                G.ravel(), W.ravel())
    return W.T


def binomial_levels(N, P) -> list:
    """The degree levels of the graded basis of dimension N and degree P
    from the binomial count: level ℓ is the range of the next
    C(N+ℓ−1, ℓ) blocks (oracle of the basis's graded order)."""
    sizes = [math.comb(N + level - 1, level) for level in range(P + 1)]
    offsets = np.cumsum([0] + sizes).tolist()
    return [range(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]


def levels(op) -> list:
    """:func:`binomial_levels` of an operator's basis."""
    return binomial_levels(op.tensor.jkset.N, op.tensor.jkset.degree)


def band_fill(A) -> np.ndarray:
    """Lower band storage of a sparse symmetric matrix in its given order
    (oracle of the operator's band fills): the lower triangle's entries
    go straight into ``ab[i - j, j] = a_ij``, whose width is the largest
    ``i - j`` of a stored entry."""
    A = A.tocoo(copy=False)
    low = A.row >= A.col
    rows, cols = A.row[low], A.col[low]
    offset = rows - cols
    ab = np.zeros((int(offset.max(initial=0)) + 1, A.shape[0]), order="F")
    ab[offset, cols] = A.data[low]
    return ab


def family_band(op, blocks) -> np.ndarray:
    """The band of ``op._fill_band(blocks, len(blocks))``, filled from
    the stiffness family's coupling (oracle of the fill from the Gauss
    points): every pair (r, c) of the run with a c_ijk gets Σ_i c_ijk K_i
    over the free rows as one row of the (pairs × i) coupling times the
    stacked K_i data, and writes its entries of the lower triangle, entry
    (a, b) of the free pattern at (a·s + r, b·s + c)."""
    f, s, lo = op.n_free, len(blocks), blocks.start
    band = op.run_band(s)
    t = op.tensor
    sel = np.flatnonzero((t.j >= lo) & (t.j < lo + s)
                         & (t.k >= lo) & (t.k < lo + s))
    pair = (t.j[sel] - lo) * s + (t.k[sel] - lo)
    # stable, so each pair keeps the tensor's ascending i
    sel = sel[np.argsort(pair, kind="stable")]
    pairs, counts = np.unique(pair, return_counts=True)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    kdata = op.family(all_indices(op), "the family oracle")
    values = np.zeros((len(pairs), kdata.shape[1]))
    csr_matvecs(len(pairs), len(kdata), kdata.shape[1], indptr,
                t.i[sel].astype(np.int64), t.val[sel], kdata.ravel(),
                values.ravel())
    values = values[:, op._free_span]
    cols = op._free_indices.astype(np.int64)
    node = np.repeat(np.arange(f), np.diff(op._row_indptr))
    low, diag = node > cols, node == cols
    abT = np.zeros((s * f, band + 1))
    flat = abT.reshape(-1)
    base = cols * (s * (band + 1)) + (node - cols) * s
    r, c = pairs // s, pairs % s
    shift = (c * band + r)[:, None]
    flat[base[low] + shift] = values[:, low]
    on = r >= c
    flat[base[diag] + shift[on]] = values[on][:, diag]
    return abT.T


def probe_matrix(apply, n: int) -> np.ndarray:
    """Dense matrix of a linear map, column by column (oracle helper)."""
    P = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        P[:, j] = apply(e)
        e[j] = 0.0
    return P


def held_factors(obj, cls=Factorization) -> list:
    """Every Factorization (or other ``cls``) reachable from ``obj``, once
    each, through the attributes of sgfem objects and the items of dicts,
    lists and tuples."""
    seen, found, todo = set(), [], [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, cls):
            found.append(x)
        elif isinstance(x, dict):
            todo += x.values()
        elif isinstance(x, (list, tuple)):
            todo += x
        elif type(x).__module__.startswith("sgfem."):
            todo += vars(x).values()
    return found


def traced_memory(fn):
    """(kept, peak) bytes that ``fn()`` allocates, under tracemalloc: kept
    is what is still allocated when it returns, its result included, and
    peak the most that was allocated at once."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()  # held, so that kept counts it
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept - before, peak - before


def g_matrix(alpha, tensor) -> np.ndarray:
    """Dense coupling matrix G_α, (G_α)_jk = c_αjk, scattered from the
    tensor's coordinates (oracle of :meth:`CijkTensor.g_sum`).
    Symmetric; G_0 is diagonal with entries E[ψ_j²]."""
    m1 = len(tensor.jkset)
    G = np.zeros((m1, m1))
    sel = tensor.i == alpha
    G[tensor.j[sel], tensor.k[sel]] = tensor.val[sel]
    return G


def hermite(n, x):
    """Probabilists' Hermite polynomial He_n at x (scalar or array),
    from numpy's HermiteE series."""
    return hermeval(x, [0] * n + [1])


def covariance_matrix(spec, points) -> np.ndarray:
    """The kernel σ² exp(−‖x−y‖₁ / L) of an ``ExponentialCovariance``
    over a point set, shape (n, n)."""
    d = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    return spec.sigma**2 * np.exp(-d / spec.L)


def kl_eigenpairs(C, weights, n_modes):
    """Top eigenpairs of the weighted covariance operator, by one dense
    eigensolve over all points (oracle of ``discrete_kl``).

    Solves the lumped-mass Galerkin form of the covariance eigenproblem,
    W^{1/2} C W^{1/2} z = λ z with diagonal W, then φ = W^{−1/2} z, so
    the φ are orthonormal in the W-inner product.  Returns (λ
    descending, φ rows, retained energy fraction Σ_retained λ / Σ_all
    λ).
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("lumped mass weights must be positive")
    ws = np.sqrt(w)
    vals, vecs = np.linalg.eigh(C * np.outer(ws, ws))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if n_modes > len(vals):
        raise ValueError("more modes requested than discrete eigenvalues")
    floor = 1e-12 * max(vals[0], 0.0)
    if vals[0] <= 0 or np.any(vals[:n_modes] <= floor):
        raise ValueError(f"only {int(np.sum(vals > floor))} eigenvalues are "
                         f"positive to tolerance, {n_modes} modes requested")
    lam = vals[:n_modes].copy()
    phi = (vecs[:, :n_modes] / ws[:, None]).T
    return lam, phi, float(lam.sum() / vals.sum())
