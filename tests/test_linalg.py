"""Kernel-level checks: factorizations, memory checks, matrix IO."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from conftest import band_fill, build_operator, traced_memory
from hypothesis import given, settings
from hypothesis import strategies as st

import sgfem.linalg as linalg
from sgfem.linalg import (
    FactorizationError,
    check_band_fits,
    factorize,
    factorize_band,
    write_matrix_market,
)


class TestFactorize:
    def test_diagonal_solve(self):
        F = factorize(np.diag([4.0, 4.0, 4.0]))
        np.testing.assert_allclose(F.solve(np.array([8.0, 4.0, 0.0])),
                                   [2.0, 1.0, 0.0], atol=1e-14)

    def test_spd_matches_inverse(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6 * np.eye(6)
        b = rng.standard_normal(6)
        F = factorize(A)
        assert F.kind == "cholesky"
        np.testing.assert_allclose(F.solve(b), np.linalg.inv(A) @ b, atol=1e-10)

    def test_indefinite_raises_without_fallback(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])  # symmetric, not PD
        with pytest.raises(FactorizationError, match="non-positive pivot"):
            factorize(A)

    def test_cholesky_rejects_indefinite(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(FactorizationError):
            factorize(A)

    def test_singular_raises(self):
        A = np.ones((3, 3))
        with pytest.raises(FactorizationError):
            factorize(A)

    def test_sparse_solve(self):
        """factorize is dense only: a sparse matrix is refused, and its
        band factor comes from factorize_band."""
        rng = np.random.default_rng(9)
        B = rng.standard_normal((8, 8))
        A = B @ B.T + 8 * np.eye(8)
        As = sp.csr_matrix(A)
        b = rng.standard_normal(8)
        with pytest.raises(ValueError, match="dense.*factorize_band"):
            factorize(As)
        F = band_factor(As)
        assert F.kind == "band"
        np.testing.assert_allclose(F.solve(b), np.linalg.solve(A, b), atol=1e-10)

    def test_sparse_singular_raises(self):
        A = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(FactorizationError):
            band_factor(A)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(13)
        B = rng.standard_normal((5, 5))
        A = B @ B.T + 5 * np.eye(5)
        Bmat = rng.standard_normal((5, 3))
        X = factorize(A).solve(Bmat)
        np.testing.assert_allclose(A @ X, Bmat, atol=1e-10)


def random_sparse_spd(n, density, seed):
    """Sparse symmetric, strictly diagonally dominant with a positive
    diagonal, hence SPD; canonical CSR."""
    rng = np.random.default_rng(seed)
    S = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=rng.standard_normal)
    S = sp.tril(S, k=-1)
    S = S + S.T
    dom = np.asarray(abs(S).sum(axis=1)).ravel()
    return sp.csr_matrix(S + sp.diags(dom + rng.uniform(0.1, 2.0, n)))


def band_pivots(F):
    """The Cholesky pivots L_ii², read from the band factor."""
    return F._state[0][0] ** 2


def band_factor(A):
    """factorize_band of a sparse matrix's band in its own order."""
    return factorize_band(band_fill(A))


class TestBandCholesky:
    """factorize_band: banded Cholesky of a sparse matrix's band in its
    own order, and the band-size check made before a band is allocated."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.3),
           m=st.integers(2, 5), seed=st.integers(0, 2**16))
    def test_solves_and_pivots(self, n, density, m, seed):
        A = random_sparse_spd(n, density, seed)
        F = band_factor(A)
        assert F.kind == "band" and F.n == n
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(n)
        x = F.solve(b)
        assert x.shape == (n,)
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        B = rng.standard_normal((n, m))
        X = F.solve(B)
        assert X.shape == (n, m)
        assert np.all(np.linalg.norm(B - A @ X, axis=0)
                      <= 1e-12 * np.linalg.norm(B, axis=0))
        L = np.linalg.cholesky(A.toarray())
        np.testing.assert_allclose(band_pivots(F), np.diag(L) ** 2,
                                   rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 30), density=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**16))
    def test_indefinite_raises(self, n, density, seed):
        A = random_sparse_spd(n, density, seed)
        lam = np.linalg.eigvalsh(A.toarray())
        # shift one eigenvalue past zero, by a margin far above roundoff
        shift = lam[0] + 0.5 * max(lam[1] - lam[0], 1e-3 * lam[-1])
        with pytest.raises(FactorizationError):
            band_factor(sp.csr_matrix(A - shift * sp.eye(n)))

    def test_singular_to_tolerance_raises(self):
        # Neumann 1-D Laplacian: rows sum to zero, the last pivot is 0 in
        # exact arithmetic and roundoff-sized in floating point
        n = 12
        A = sp.diags([-np.ones(n - 1), np.r_[1.0, 2 * np.ones(n - 2), 1.0],
                      -np.ones(n - 1)], [-1, 0, 1])
        with pytest.raises(FactorizationError):
            band_factor(sp.csr_matrix(A))
        with pytest.raises(FactorizationError, match="singular"):
            band_factor(sp.csr_matrix(np.diag([1.0, 1e-15, 2.0])))

    def test_band_from_lower_triangle(self):
        A = sp.csr_matrix(sp.diags([np.full(4, -1.0), np.full(6, 4.0),
                             np.full(4, -1.0)], [-2, 0, 2], shape=(6, 6)))
        F = band_factor(A)
        assert F._state[0].shape == (3, 6)  # the diagonal and two below

    def test_order_solves_in_the_original_rows(self):
        """A band factor of a system in its own order solves the system:
        each factor row solves the system row ``rows`` maps it to, for
        one right-hand side and for several."""
        A = random_sparse_spd(9, 0.3, 4)
        rng = np.random.default_rng(0)
        rows = rng.permutation(9)  # factor row -> system row
        S = np.zeros((9, 9))
        S[np.ix_(rows, rows)] = A.toarray()
        F = factorize_band(band_fill(A), rows)
        assert F.n == 9
        for b in (rng.standard_normal(9), rng.standard_normal((9, 3))):
            x = F.solve(b)
            assert x.shape == b.shape
            np.testing.assert_allclose(S @ x, b, atol=1e-12)

    def test_solve_in_place(self):
        """With ``overwrite_b`` a band factor solves a contiguous b, one
        column or Fortran-ordered columns, in its own memory, to the
        numbers of a solve on a copy; without it b is left as it is."""
        A = random_sparse_spd(40, 0.2, 5)
        F = factorize_band(band_fill(A))
        rng = np.random.default_rng(1)
        for b in (rng.standard_normal(40),
                  np.asfortranarray(rng.standard_normal((40, 3)))):
            want = F.solve(b)
            assert not np.shares_memory(want, b)
            own = b.copy(order="A")
            x = F.solve(own, overwrite_b=True)
            assert np.shares_memory(x, own)
            np.testing.assert_array_equal(x, want)

    def test_ordered_factor_solves_its_gathered_copy_in_place(self):
        """A factor in its own order gathers b into its order and solves
        that copy in place: a solve holds the copy and the result, not a
        third array for LAPACK."""
        n = 20000
        ab = np.zeros((2, n), order="F")
        ab[0], ab[1, :-1] = 4.0, -1.0
        F = factorize_band(ab, np.random.default_rng(2).permutation(n))
        b = np.random.default_rng(3).standard_normal(n)
        _, peak = traced_memory(lambda: F.solve(b))
        assert peak <= 2.1 * b.nbytes

    def test_factor_of_no_rows(self, capfd):
        """A band factor of no rows, a mesh with no free node, solves one
        right-hand side and several to empty results, without a call
        that LAPACK refuses."""
        F = factorize_band(np.zeros((1, 0), order="F"))
        for b in (np.zeros(0), np.zeros((0, 3))):
            assert F.solve(b).shape == b.shape
        assert capfd.readouterr() == ("", "")

    def test_band_bytes_checked_before_allocation(self, monkeypatch):
        """A band builder checks the band's bytes before it allocates the
        band: here the operator's factor of its whole block diagonal."""
        op, _, _, _ = build_operator(2, 1, 3)
        blocks = range(op.M + 1)
        band = op.run_band(1)
        rows = len(blocks) * op.n_free
        need = 8 * rows * (band + 1)
        assert op.assemble_diag_block(blocks)._state[0].nbytes == need
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        check_band_fits(rows, band)  # fits exactly
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)

        def no_band(*args, **kwargs):
            raise AssertionError("band allocated")

        monkeypatch.setattr(np, "empty", no_band)
        with pytest.raises(MemoryError, match=f"needs {need} bytes"):
            op.assemble_diag_block(blocks)
        # with the band fitting, the patched allocation is reached: the
        # refusal above came before it
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="band allocated"):
            op.assemble_diag_block(blocks)


class TestMatrixMarket:
    def test_round_trip_general_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((6, 4))
        D[rng.random((6, 4)) < 0.5] = 0.0
        A = sp.csr_matrix(D)
        p = tmp_path / "a.mtx"
        write_matrix_market(p, A)
        B = scipy.io.mmread(p).tocsr()
        assert B.shape == A.shape
        assert np.array_equal(A.toarray(), B.toarray())
        # bit-exact: stored values identical, not merely close
        assert np.array_equal(np.sort(A.data), np.sort(B.data))

    def test_header_and_one_based_indices(self, tmp_path):
        A = sp.csr_matrix(np.array([[0.0, 1.5], [0.0, 0.0]]))
        p = tmp_path / "h.mtx"
        write_matrix_market(p, A)
        lines = p.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[1] == "2 2 1"
        assert lines[2].split()[:2] == ["1", "2"]

    def test_explicit_zeros_preserved(self, tmp_path):
        A = sp.csr_matrix((np.array([0.0, 2.0]), (np.array([0, 1]),
                           np.array([0, 1]))), shape=(2, 2))
        p = tmp_path / "z.mtx"
        write_matrix_market(p, A)
        B = scipy.io.mmread(p)
        assert B.nnz == 2  # stored zero survives the round trip
