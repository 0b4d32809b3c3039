"""Dense/sparse linear algebra kernels shared by the rest of the package.

Dense matrices are C-ordered ``numpy.ndarray``s and sparse matrices are
``scipy.sparse.csr_matrix`` in canonical form (sorted, deduplicated column
indices per row).  The factorizations are delegated to LAPACK through
numpy/scipy; this module pins down the conventions the solver relies on:
deterministic results for identical inputs, residual guarantees on the
factorization round trip, the memory checks made before a large
allocation, and Matrix Market output that a reader gets back bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs


class FactorizationError(ValueError):
    """Raised on a non-positive Cholesky pivot or a pivot singular to
    tolerance."""


def csr_on(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
           shape: tuple) -> sp.csr_matrix:
    """A CSR matrix whose data array is ``data`` itself.  The constructor
    alone would copy a ``data`` that views part of a larger array, such
    as one row of a stack of matrices' data."""
    K = sp.csr_matrix((data, indices, indptr), shape=shape)
    K.data = data
    return K


# read once, at import: the host's memory does not change while a
# process runs, and a process's first ``os.sysconf`` call costs about 15 µs
_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def physical_memory() -> int:
    """Bytes of physical memory of the host, from ``os.sysconf`` at
    import."""
    return _PHYSICAL_MEMORY


def check_fits(need: int, what, hint: str = "") -> None:
    """Raise :class:`MemoryError` when ``need`` bytes exceed physical
    memory, the message reading "``what()`` ``need`` bytes, more than the
    bytes of physical memory", with ``hint`` appended.  ``what`` is
    called only to refuse."""
    have = physical_memory()
    if need > have:
        raise MemoryError(
            f"{what()} {need} bytes ({need / 2**30:.2f} GiB), more than "
            f"the {have} bytes ({have / 2**30:.2f} GiB) of physical "
            f"memory{hint}")


def check_band_fits(n: int, band: int) -> None:
    """Raise :class:`MemoryError` when the lower band storage of an
    ``n``-row matrix with ``band`` sub-diagonals, n × (band + 1)
    doubles, exceeds physical memory."""
    check_fits(8 * n * (band + 1), lambda: (
        f"band factor of {n} rows and {band} sub-diagonals needs"))


@dataclass
class Factorization:
    """Cholesky factorization of a symmetric positive definite matrix.

    ``kind`` is ``"cholesky"`` (dense, from :func:`factorize`) or
    ``"band"`` (banded, from :func:`factorize_band`, the factor in
    LAPACK's lower band storage).  ``n`` is the number of rows of the
    system it solves.  A band factor may hold them in its own order:
    ``rows`` then lists for each row of the factor the row of the system
    it solves; it is None for a factor in the system's order.  ``solve``
    reproduces ``A^{-1} b`` with relative residual below 1e-12 for
    well-conditioned matrices.
    """

    kind: str
    n: int
    _state: tuple = field(repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        """``A^{-1} b`` for b of n rows and any number of columns.  With
        ``overwrite_b`` LAPACK may solve in b's memory, which it does for
        a contiguous float b, Fortran-ordered when it has columns: b is
        the caller's to give up.  A factor in its own order solves its
        gathered copy of b in place."""
        b = np.asarray(b, dtype=float)
        if self.rows is None:
            return self._solve(b, overwrite_b)
        x = np.empty_like(b)
        x[self.rows] = self._solve(b.take(self.rows, axis=0), True)
        return x

    def diagonal_block(self, rows: slice) -> Factorization:
        """The factor of the diagonal block ``rows``, consecutive rows of
        a band factor in the system's order whose matrix couples them to
        no other row: a view of the band's columns ``rows``."""
        if self.kind != "band" or self.rows is not None:
            raise ValueError("a diagonal block is a slice of a band factor "
                             "in the system's order")
        ab = self._state[0][:, rows]
        return Factorization("band", ab.shape[1], (ab,))

    def _solve(self, b: np.ndarray, overwrite_b: bool) -> np.ndarray:
        if self.kind == "cholesky":
            return sla.cho_solve(self._state, b, overwrite_b=overwrite_b)
        if not len(b):
            return b.copy()  # LAPACK refuses a system of no rows
        return dpbtrs(self._state[0], b, lower=1, overwrite_b=overwrite_b)[0]


def factorize_band(ab: np.ndarray,
                   rows: np.ndarray | None = None) -> Factorization:
    """Banded Cholesky of an SPD matrix given in LAPACK's lower band
    storage, a Fortran-ordered (band + 1, n) array: the factor overwrites
    ``ab`` in place and is all the result keeps.  ``rows``, if given,
    are the system rows of the band's rows (:class:`Factorization`).

    Raises :class:`FactorizationError` on a non-positive pivot, or when
    a pivot L_ii² falls to 1e-14 of the largest.
    """
    ab, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise FactorizationError(f"non-positive pivot in row {info - 1}: "
                                 f"matrix is not positive definite")
    pivots = ab[0] ** 2
    if len(pivots) and pivots.min() <= 1e-14 * max(pivots.max(), 1.0):
        raise FactorizationError("matrix is singular to tolerance")
    return Factorization("band", ab.shape[1], (ab,), rows)


def factorize(A: np.ndarray) -> Factorization:
    """LAPACK's dense Cholesky factorization of a symmetric positive
    definite matrix, from its lower triangle, for repeated solves.

    Raises :class:`FactorizationError` on a non-positive pivot, and
    ValueError for a matrix that is not square or not dense: band
    factors of sparse matrices come from :func:`factorize_band`.
    """
    if sp.issparse(A):
        raise ValueError("factorize takes a dense matrix; band factors of "
                         "sparse matrices come from factorize_band")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    try:
        c, low = sla.cho_factor(A, lower=True)
    except sla.LinAlgError as exc:
        raise FactorizationError(f"non-positive pivot: {exc}") from exc
    return Factorization("cholesky", A.shape[0], (c, low))


def write_matrix_market(path, A) -> None:
    """Write a matrix in Matrix Market coordinate real general format.

    Values are printed with 17 significant decimal digits, which
    round-trips IEEE binary64 exactly, so a reader gets the stored values
    back bit for bit.  A sparse input is written in its stored order, its
    explicitly stored zeros kept; a dense input writes its nonzeros in
    row-major order.
    """
    coo = sp.coo_matrix(A)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r + 1} {c + 1} {v:.16e}\n")
