"""Bilinear quadrilateral finite elements on the unit square.

Uniform n-by-n grid of Q1 elements, lexicographic node numbering (x runs
fastest), 2x2 Gauss quadrature.  Assembly supports a family of coefficient
fields evaluated at the quadrature points and returns CSR matrices that all
share one sparsity pattern, which the block operator and the boundary
treatment rely on.
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
# per-Gauss-point gradient outer products for the Laplacian form; the
# quadrature weight h^2/4 cancels the (2/h)^2 gradient scaling, so these
# are mesh-size independent
_GRADPROD = np.array([_shape_grad(*g).T @ _shape_grad(*g) for g in _GPTS])


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

    @functools.cached_property
    def _dirichlet_slots(self):
        """(indptr, indices, slots, diagonal slots) of the stiffness
        pattern: the data slots ``apply_dirichlet`` zeroes and the
        boundary diagonal ones.  Computed once per mesh, so a stiffness
        family on it is treated without recomputing them per matrix."""
        indices, indptr, _ = _pattern(self)
        return (indptr, indices) + _boundary_slots(indptr, indices, self)

    def interpolate(self, nodal: np.ndarray) -> np.ndarray:
        """Evaluate a nodal field at all quadrature points, shape (n^2, 4)."""
        nodal = np.asarray(nodal, dtype=float)
        if nodal.shape != (self.n_nodes,):
            raise ValueError("nodal field has wrong length")
        return nodal[self.elements] @ _S.T


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


def _pattern(mesh: Mesh):
    """Canonical CSR pattern of the Q1 stiffness matrix plus the slot map
    taking each (element, row-corner, col-corner) contribution to its
    position in the shared data array."""
    el = mesh.elements
    rows = np.repeat(el, 4, axis=1).ravel()
    cols = np.tile(el, (1, 4)).ravel()
    nn = mesh.n_nodes
    key = rows * nn + cols
    uniq, slots = np.unique(key, return_inverse=True)
    indices = (uniq % nn).astype(np.int32)
    counts = np.bincount((uniq // nn).astype(np.int64), minlength=nn)
    indptr = np.zeros(nn + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indices, indptr, slots


def assemble_stiffness_family(mesh: Mesh, coeffs: np.ndarray) -> list[sp.csr_matrix]:
    """Assemble one stiffness matrix per coefficient field.

    ``coeffs`` has shape (n_fields, n_elements, 4): values of each field at
    the element quadrature points.  All returned CSR matrices share the
    same indices/indptr arrays (one sparsity pattern), so later value
    surgery and blockwise sums stay aligned.  Their data arrays are the
    rows of one C-contiguous (n_fields, nnz) array, which
    :class:`~sgfem.galerkin.GalerkinOperator` adopts as its stacked data
    instead of copying the family.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 3 or coeffs.shape[1:] != (len(mesh.elements), 4):
        raise ValueError("coeffs must have shape (n_fields, n_elements, 4)")
    indices, indptr, slots = _pattern(mesh)
    nnz = len(indices)
    stack = np.empty((len(coeffs), nnz))
    out = []
    for data, c in zip(stack, coeffs):
        # element matrices: Ke[e] = sum_q c[e,q] * gradprod[q];
        # flattening matches _pattern (row corner slow, column corner fast)
        ke = np.einsum("eq,qlm->elm", c, _GRADPROD)
        data[:] = np.bincount(slots, weights=ke.reshape(-1), minlength=nnz)
        out.append(csr_on(data, indices, indptr,
                          (mesh.n_nodes, mesh.n_nodes)))
    return out


def assemble_stiffness(mesh: Mesh, coeff) -> sp.csr_matrix:
    """Stiffness matrix for one coefficient field.

    ``coeff`` is a scalar or an (n_elements, 4) array of values at the
    quadrature points; entries are ∫ k ∇φ_l·∇φ_m dx by 2x2 Gauss
    quadrature, exactly symmetric.
    """
    if np.isscalar(coeff):
        coeff = np.full((len(mesh.elements), 4), float(coeff))
    return assemble_stiffness_family(mesh, np.asarray(coeff)[None])[0]


def assemble_load(mesh: Mesh, f: float) -> np.ndarray:
    """Load vector (∫ f φ_l dx) for a constant source f."""
    contrib = float(f) * (_S.T @ mesh.quad_weights)  # per-corner, any element
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, mesh.elements.ravel(), np.tile(contrib, len(mesh.elements)))
    return load


def _boundary_slots(indptr: np.ndarray, indices: np.ndarray, mesh: Mesh):
    """Data slots of a CSR pattern in a boundary row or column, and the
    boundary diagonal slots."""
    on_bdry = np.zeros(mesh.n_nodes, dtype=bool)
    on_bdry[mesh.boundary] = True
    row_of = np.repeat(np.arange(mesh.n_nodes), np.diff(indptr))
    kill = on_bdry[row_of] | on_bdry[indices]
    return np.flatnonzero(kill), np.flatnonzero(kill & (row_of == indices))


def apply_dirichlet(K: sp.csr_matrix, f: np.ndarray, mesh: Mesh,
                    diagonal: float = 1.0) -> tuple[sp.csr_matrix, np.ndarray]:
    """Homogeneous Dirichlet conditions on the outer boundary, size kept.

    Boundary rows and columns are zeroed in place of elimination and the
    boundary diagonal is set to ``diagonal`` (1 for a solvable matrix, 0
    when the matrix only ever appears inside coefficient sums).  Zeroed
    entries stay stored, so the sparsity pattern survives unchanged and a
    treated family still shares one pattern;
    :class:`~sgfem.galerkin.GalerkinOperator` drops the slots that are
    zero in every K_i.

    K is treated in place: its data array is overwritten and K itself is
    returned, so a stiffness family is treated without a second copy of
    it.  A caller that still needs the untreated matrix passes a copy.
    f is left as it is; the returned load is a copy with the boundary
    entries zeroed.  A K on the mesh's stiffness pattern reuses the slots
    cached on the mesh; any other pattern gets its slots computed.
    """
    indptr, indices, slots, diag = mesh._dirichlet_slots
    if not (np.array_equal(K.indptr, indptr)
            and np.array_equal(K.indices, indices)):
        slots, diag = _boundary_slots(K.indptr, K.indices, mesh)
    K.data[slots] = 0.0
    if diagonal != 0.0:
        K.data[diag] = diagonal
    f = np.asarray(f, dtype=float).copy()
    f[mesh.boundary] = 0.0
    return K, f
