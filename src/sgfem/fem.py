"""Bilinear quadrilateral finite elements on the unit square.

Uniform n-by-n grid of Q1 elements, lexicographic node numbering (x runs
fastest), 2x2 Gauss quadrature.  A stiffness family, one matrix per
coefficient field evaluated at the quadrature points, is assembled
straight onto the Dirichlet pattern: boundary nodes keep only their
diagonal, so no boundary coupling is ever stored.  Its CSR matrices share
one sparsity pattern, which the block operator relies on, and every
assembly on a mesh shares that pattern's slot map
(:attr:`Mesh.dirichlet_pattern`): the matrices' data alone is
``stiffness_data``, and ``point_weights`` is its transpose, a matrix's
data back to weights at the points.  A single matrix
(``assemble_stiffness``) is the Neumann one, on the full pattern.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from sgfem.linalg import csr_on

# reference square [-1,1]^2, counterclockwise corners
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_GPTS = np.array([[s, t] for t in (-1 / np.sqrt(3), 1 / np.sqrt(3))
                  for s in (-1 / np.sqrt(3), 1 / np.sqrt(3))])


def _shape(xi, eta):
    """Q1 shape functions at one reference point, shape (4,)."""
    return 0.25 * np.array([(1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                            (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)])


def _shape_grad(xi, eta):
    """Reference gradients, shape (2, 4)."""
    return 0.25 * np.array([
        [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
        [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
    ])

# shape values at the 4 Gauss points, (4 gauss, 4 nodes)
_S = np.array([_shape(*g) for g in _GPTS])
# reference gradients at the 4 Gauss points, (4 gauss, 2, 4 nodes)
_GRAD = np.array([_shape_grad(*g) for g in _GPTS])
# per-Gauss-point gradient outer products for the Laplacian form; the
# quadrature weight h^2/4 cancels the (2/h)^2 gradient scaling, so these
# are mesh-size independent
_GRADPROD = np.array([_shape_grad(*g).T @ _shape_grad(*g) for g in _GPTS])
# element matrices and their slots per chunk of fields in an assembly
_ELEMENT_BYTES = 1 << 17


@dataclass(frozen=True)
class Mesh:
    """Uniform Q1 mesh of the unit square.

    nodes: (n+1)^2 coordinates, id = iy*(n+1) + ix.
    elements: (n^2, 4) corner node ids, counterclockwise from lower-left.
    boundary: sorted ids of nodes on the outer boundary.
    quad_points: (n^2, 4, 2) physical Gauss point coordinates.
    quad_weights: (4,) weights per element, summing to the element area.
    """

    n: int
    h: float
    nodes: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def interpolate(self, nodal: np.ndarray) -> np.ndarray:
        """Evaluate a nodal field at all quadrature points, shape (n^2, 4)."""
        nodal = np.asarray(nodal, dtype=float)
        if nodal.shape != (self.n_nodes,):
            raise ValueError("nodal field has wrong length")
        return nodal[self.elements] @ _S.T

    @functools.cached_property
    def dirichlet_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR indices and indptr of the Dirichlet pattern, without
        the boundary's couplings, and its slot map (:func:`_pattern`),
        computed at the first use and kept: every assembly of a family,
        and of its data and point weights, on this mesh reads them."""
        return _pattern(self, self.boundary)


def gradient_matrix(mesh: Mesh) -> sp.csr_matrix:
    """The gradients of a nodal field at every Gauss point, scaled so
    that the stiffness matrix of a field k at the points is Dᵀ diag(k) D,
    each value of k repeated for both components: a CSR matrix of
    n_elements · 8 rows, row 8e + 2q + c the component c at Gauss
    point q of element e, over the mesh nodes.  The quadrature weight
    h²/4 cancels the (2/h)² of the two gradients, so the entries are
    the reference gradients, whatever the mesh size."""
    ne = len(mesh.elements)
    shape = (ne, 4, 2, 4)
    return sp.csr_matrix((np.broadcast_to(_GRAD, shape).ravel(),
                          np.broadcast_to(mesh.elements[:, None, None],
                                          shape).ravel(),
                          np.arange(0, 32 * ne + 1, 4)),
                         shape=(8 * ne, mesh.n_nodes))


def build_mesh(n: int) -> Mesh:
    """Uniform n-by-n Q1 grid on [0,1]^2 with h = 1/n."""
    if n < 1:
        raise ValueError("need at least one element per side")
    h = 1.0 / n
    side = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = ey.ravel() * (n + 1) + ex.ravel()
    elements = np.column_stack([ll, ll + 1, ll + n + 2, ll + n + 1])

    ix = np.arange((n + 1) ** 2) % (n + 1)
    iy = np.arange((n + 1) ** 2) // (n + 1)
    boundary = np.flatnonzero((ix == 0) | (ix == n) | (iy == 0) | (iy == n))

    centers = nodes[elements[:, 0]] + h / 2  # element midpoints
    quad_points = centers[:, None, :] + (h / 2) * _GPTS[None, :, :]
    quad_weights = np.full(4, h * h / 4)
    return Mesh(n, h, nodes, elements, boundary, quad_points, quad_weights)


def _pattern(mesh: Mesh, dropped):
    """Canonical CSR pattern of the Q1 stiffness matrix without the
    couplings of the ``dropped`` nodes, which keep only their diagonal,
    plus the slot map taking each (element, row-corner, col-corner)
    contribution to its position in the shared data array.  A
    contribution that touches a dropped node maps to the discard slot
    nnz, one past the pattern, so it is left out of every sum."""
    el = mesh.elements
    rows = np.repeat(el, 4, axis=1).ravel()
    cols = np.tile(el, (1, 4)).ravel()
    nn = mesh.n_nodes
    off = np.zeros(nn, dtype=bool)
    off[dropped] = True
    key = rows * nn + cols
    key[off[rows] | off[cols]] = nn * nn  # sorts last: the discard slot
    uniq, slots = np.unique(
        np.concatenate([key, np.flatnonzero(off) * (nn + 1), [nn * nn]]),
        return_inverse=True)
    uniq = uniq[:-1]
    indices = (uniq % nn).astype(np.int32)
    counts = np.bincount((uniq // nn).astype(np.int64), minlength=nn)
    indptr = np.zeros(nn + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indices, indptr, slots[:len(key)]


def _element_sums(coeffs: np.ndarray, slots: np.ndarray,
                  nnz: int) -> np.ndarray:
    """The data of one matrix per field of ``coeffs``, (n_fields,
    n_elements, 4), on a pattern of ``nnz`` entries with the slot map
    ``slots`` of :func:`_pattern`, as one C-contiguous (n_fields, nnz)
    array.  The element matrices Ke[e] = Σ_q c[e,q] gradprod[q] are
    summed into their slots in element order; chunks of fields whose
    element matrices and shifted slots take about ``_ELEMENT_BYTES``
    share one bincount, each field's slots shifted past the bins of the
    fields before it, so a field's sums are those of its own bincount."""
    out = np.empty((len(coeffs), nnz))
    step = max(_ELEMENT_BYTES // (16 * len(slots)), 1)
    shifted = slots + (nnz + 1) * np.arange(min(step, len(coeffs)))[:, None]
    for lo in range(0, len(coeffs), step):
        c = coeffs[lo:lo + step]
        # flattening matches _pattern (row corner slow, column corner fast)
        ke = np.einsum("peq,qlm->pelm", c, _GRADPROD)
        sums = np.bincount(shifted[:len(c)].ravel(), weights=ke.reshape(-1),
                           minlength=len(c) * (nnz + 1))
        out[lo:lo + len(c)] = sums.reshape(len(c), nnz + 1)[:, :nnz]
    return out


def _fields(mesh: Mesh, coeffs) -> np.ndarray:
    """``coeffs`` as float, refused unless (n_fields, n_elements, 4)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 3 or coeffs.shape[1:] != (len(mesh.elements), 4):
        raise ValueError("coeffs must have shape (n_fields, n_elements, 4)")
    return coeffs


def _assemble(mesh: Mesh, coeffs, pattern) -> list[sp.csr_matrix]:
    """One matrix per field on ``pattern``, (indices, indptr, slots) of
    :func:`_pattern`, their data the rows of one C-contiguous
    (n_fields, nnz) array."""
    indices, indptr, slots = pattern
    stack = _element_sums(_fields(mesh, coeffs), slots, len(indices))
    return [csr_on(data, indices, indptr, (mesh.n_nodes, mesh.n_nodes))
            for data in stack]


def assemble_stiffness_family(mesh: Mesh, coeffs: np.ndarray) -> list[sp.csr_matrix]:
    """Assemble one stiffness matrix per coefficient field, with
    homogeneous Dirichlet conditions on the outer boundary.

    ``coeffs`` has shape (n_fields, n_elements, 4): values of each field at
    the element quadrature points.  Each K_i is the Neumann matrix of its
    field with the boundary rows and columns zeroed, stored on the
    Dirichlet pattern: a boundary node keeps only its diagonal slot, which
    holds 0, and every element contribution that touches a boundary node
    is left out of the sums.  :func:`apply_dirichlet` on K_0 then sets its
    unit boundary diagonal.  All returned CSR matrices share the same
    indices/indptr arrays (one sparsity pattern, of
    :func:`dirichlet_nnz` entries, :attr:`Mesh.dirichlet_pattern`), so
    blockwise sums stay aligned.  Their data arrays are the rows of one
    C-contiguous (n_fields, nnz) array, :func:`stiffness_data`, which
    :class:`~sgfem.galerkin.GalerkinOperator` gives for the K_i a caller
    asks for.
    """
    return _assemble(mesh, coeffs, mesh.dirichlet_pattern)


def stiffness_data(mesh: Mesh, coeffs: np.ndarray) -> np.ndarray:
    """The data of :func:`assemble_stiffness_family`'s matrices of the
    fields ``coeffs``, bit for bit, as one C-contiguous (n_fields, nnz)
    array, without the matrices."""
    indices, _, slots = mesh.dirichlet_pattern
    return _element_sums(_fields(mesh, coeffs), slots, len(indices))


def point_weights(mesh: Mesh, data: np.ndarray) -> np.ndarray:
    """The weights u at the points, shape (n_elements, 4), whose sum
    Σ_q k(q) u(q) with any field k is the dot product of ``data`` with
    the data of k's matrix (:func:`stiffness_data`): u[e, q] = Σ_{l,m}
    gradprod[q, l, m] · data[slot of (e, l, m)], where a contribution
    that touches a boundary node, in no slot, weighs 0."""
    _, _, slots = mesh.dirichlet_pattern
    gathered = np.append(data, 0.0)[slots].reshape(-1, 16)
    return gathered @ _GRADPROD.reshape(4, 16).T


def dirichlet_nnz(n: int) -> int:
    """Stored entries of a matrix of :func:`assemble_stiffness_family` on
    the n-by-n mesh: the 9-point couplings of the (n − 1)² interior
    nodes, (3n − 5)² for n ≥ 2, and the 4n boundary diagonals."""
    return (3 * n - 5) ** 2 * (n >= 2) + 4 * n


def assemble_stiffness(mesh: Mesh, coeff) -> sp.csr_matrix:
    """Stiffness matrix for one coefficient field, no boundary condition.

    ``coeff`` is a scalar or an (n_elements, 4) array of values at the
    quadrature points; entries are ∫ k ∇φ_l·∇φ_m dx by 2x2 Gauss
    quadrature, exactly symmetric.
    """
    if np.isscalar(coeff):
        coeff = np.full((len(mesh.elements), 4), float(coeff))
    return _assemble(mesh, np.asarray(coeff)[None], _pattern(mesh, []))[0]


def assemble_load(mesh: Mesh, f: float) -> np.ndarray:
    """Load vector (∫ f φ_l dx) for a constant source f."""
    contrib = float(f) * (_S.T @ mesh.quad_weights)  # per-corner, any element
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, mesh.elements.ravel(), np.tile(contrib, len(mesh.elements)))
    return load


def apply_dirichlet(K: sp.csr_matrix, f: np.ndarray,
                    mesh: Mesh) -> tuple[sp.csr_matrix, np.ndarray]:
    """Homogeneous Dirichlet conditions on the outer boundary, size kept.

    Boundary rows and columns are zeroed in place of elimination and the
    boundary diagonal is set to 1.  Zeroed entries stay stored, so the
    sparsity pattern survives unchanged.  On a family from
    :func:`assemble_stiffness_family`, whose boundary rows store only a
    zero diagonal, one call on K_0 treats the whole family.

    K is treated in place: its data array is overwritten and K itself is
    returned.  A caller that still needs the untreated matrix passes a
    copy.  f is left as it is; the returned load is a copy with the
    boundary entries zeroed.
    """
    on_bdry = np.zeros(mesh.n_nodes, dtype=bool)
    on_bdry[mesh.boundary] = True
    row_of = np.repeat(np.arange(mesh.n_nodes), np.diff(K.indptr))
    kill = on_bdry[row_of] | on_bdry[K.indices]
    K.data[kill] = 0.0
    K.data[kill & (row_of == K.indices)] = 1.0
    f = np.asarray(f, dtype=float).copy()
    f[mesh.boundary] = 0.0
    return K, f
