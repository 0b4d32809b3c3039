"""Kernel-level checks: CSR conversion, factorizations, symmetric eig,
matrix IO."""

import numpy as np
import pytest
import scipy.sparse as sp

from sgfem.linalg import (
    FactorizationError,
    NotSymmetricError,
    as_csr,
    factorize,
    read_matrix_market,
    sym_eig,
    write_matrix_market,
)


class TestAsCsr:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(7)
        D = rng.standard_normal((5, 5))
        D[rng.random((5, 5)) < 0.4] = 0.0
        x = rng.standard_normal(5)
        np.testing.assert_allclose(as_csr(D) @ x, D @ x, atol=1e-14)


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

    def test_nonsymmetric_falls_back_to_lu(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        b = rng.standard_normal(5)
        F = factorize(A)
        assert F.kind == "lu"
        np.testing.assert_allclose(A @ F.solve(b), b, atol=1e-10)

    def test_indefinite_auto_falls_back(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])  # symmetric, not PD
        F = factorize(A)
        assert F.kind == "lu"
        np.testing.assert_allclose(F.solve(np.array([1.0, 2.0])), [2.0, 1.0])

    def test_cholesky_rejects_indefinite(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(FactorizationError):
            factorize(A, kind="cholesky")

    def test_singular_raises(self):
        A = np.ones((3, 3))
        with pytest.raises(FactorizationError):
            factorize(A, kind="lu")

    def test_sparse_solve(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((8, 8))
        A = B @ B.T + 8 * np.eye(8)
        As = as_csr(A)
        b = rng.standard_normal(8)
        F = factorize(As)
        assert F.kind == "splu"
        np.testing.assert_allclose(F.solve(b), np.linalg.solve(A, b), atol=1e-10)

    def test_sparse_singular_raises(self):
        A = as_csr(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(FactorizationError):
            factorize(A)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(13)
        B = rng.standard_normal((5, 5))
        A = B @ B.T + 5 * np.eye(5)
        Bmat = rng.standard_normal((5, 3))
        X = factorize(A).solve(Bmat)
        np.testing.assert_allclose(A @ X, Bmat, atol=1e-10)


class TestSymEig:
    def test_diagonal(self):
        vals, vecs = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-14)

    def test_two_by_two(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        vals, vecs = sym_eig(A)
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(vecs[:, 0], [s, s], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        B = rng.standard_normal((9, 9))
        A = (B + B.T) / 2
        vals, vecs = sym_eig(A)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, A, atol=1e-10)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(9), atol=1e-10)
        np.testing.assert_allclose(vals.sum(), np.trace(A), atol=1e-10)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((6, 6))
        A = (B + B.T) / 2
        _, vecs = sym_eig(A)
        for j in range(6):
            col = vecs[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestMatrixMarket:
    def test_round_trip_general_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((6, 4))
        D[rng.random((6, 4)) < 0.5] = 0.0
        A = as_csr(D)
        p = tmp_path / "a.mtx"
        write_matrix_market(p, A)
        B = read_matrix_market(p)
        assert B.shape == A.shape
        assert np.array_equal(A.toarray(), B.toarray())
        # bit-exact: stored values identical, not merely close
        assert np.array_equal(np.sort(A.data), np.sort(B.data))

    def test_round_trip_symmetric(self, tmp_path):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((5, 5))
        A = as_csr(B + B.T)
        p = tmp_path / "s.mtx"
        write_matrix_market(p, A, symmetry="symmetric")
        C = read_matrix_market(p)
        assert np.array_equal(A.toarray(), C.toarray())
        # lower triangle only on disk
        with open(p) as fh:
            fh.readline()
            n_stored = int(fh.readline().split()[2])
        assert n_stored == 15

    def test_header_and_one_based_indices(self, tmp_path):
        A = as_csr(np.array([[0.0, 1.5], [0.0, 0.0]]))
        p = tmp_path / "h.mtx"
        write_matrix_market(p, A)
        lines = p.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[1] == "2 2 1"
        assert lines[2].split()[:2] == ["1", "2"]

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(p)

    def test_explicit_zeros_preserved(self, tmp_path):
        A = sp.csr_matrix((np.array([0.0, 2.0]), (np.array([0, 1]),
                           np.array([0, 1]))), shape=(2, 2))
        p = tmp_path / "z.mtx"
        write_matrix_market(p, A)
        B = read_matrix_market(p)
        assert B.nnz == 2  # stored zero survives the round trip
