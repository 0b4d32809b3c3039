"""FEM assembly checks: reference element, load, boundary treatment."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import traced_memory
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfem.fem import (
    apply_dirichlet,
    assemble_load,
    assemble_stiffness,
    assemble_stiffness_family,
    build_mesh,
    dirichlet_nnz,
    point_weights,
    stiffness_data,
)
from sgfem.linalg import factorize

# exact Q1 Laplacian element matrix on a square (any size)
Q1_LAPLACE = np.array([
    [4, -1, -2, -1],
    [-1, 4, -1, -2],
    [-2, -1, 4, -1],
    [-1, -2, -1, 4],
]) / 6.0


def boundary_zeroed(K, mesh) -> np.ndarray:
    """K as a dense matrix with its boundary rows and columns zeroed."""
    D = K.toarray()
    D[mesh.boundary, :] = 0.0
    D[:, mesh.boundary] = 0.0
    return D


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """One array in memory: the same address, shape, strides and type."""
    return a.__array_interface__ == b.__array_interface__


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBuildMesh:
    def test_node_counts(self):
        assert build_mesh(10).n_nodes == 121
        assert build_mesh(5).n_nodes == 36
        m = build_mesh(1)
        assert m.n_nodes == 4 and len(m.elements) == 1

    def test_lexicographic_numbering(self):
        m = build_mesh(2)
        np.testing.assert_allclose(m.nodes[0], [0.0, 0.0])
        np.testing.assert_allclose(m.nodes[1], [0.5, 0.0])
        np.testing.assert_allclose(m.nodes[3], [0.0, 0.5])

    def test_element_corners_counterclockwise(self):
        m = build_mesh(2)
        np.testing.assert_array_equal(m.elements[0], [0, 1, 4, 3])

    def test_boundary(self):
        m = build_mesh(4)
        assert len(m.boundary) == 16  # 4n on a square ring
        interior = np.setdiff1d(np.arange(m.n_nodes), m.boundary)
        for i in interior:
            x, y = m.nodes[i]
            assert 0 < x < 1 and 0 < y < 1

    def test_quadrature_weights_sum_to_area(self):
        m = build_mesh(3)
        np.testing.assert_allclose(m.quad_weights.sum(), m.h**2)

    def test_quad_points_inside_elements(self):
        m = build_mesh(2)
        for e, el in enumerate(m.elements):
            lo = m.nodes[el[0]]
            assert np.all(m.quad_points[e] > lo)
            assert np.all(m.quad_points[e] < lo + m.h)

    def test_interpolate_reproduces_bilinear(self):
        m = build_mesh(3)
        nodal = 2.0 * m.nodes[:, 0] - m.nodes[:, 1] + 0.5
        got = m.interpolate(nodal)
        expect = 2.0 * m.quad_points[..., 0] - m.quad_points[..., 1] + 0.5
        np.testing.assert_allclose(got, expect, atol=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_mesh(0)


class TestStiffness:
    def test_single_unit_element(self):
        m = build_mesh(1)
        K = assemble_stiffness(m, 1.0).toarray()
        order = m.elements[0]  # oracle rows follow local corner order
        np.testing.assert_allclose(K[np.ix_(order, order)], Q1_LAPLACE,
                                   atol=1e-14)
        np.testing.assert_allclose(np.diag(K), 2 / 3)

    def test_constant_rows_sum_to_zero(self):
        K = assemble_stiffness(build_mesh(4), 1.0)
        np.testing.assert_allclose(K @ np.ones(25), 0.0, atol=1e-13)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(6)
        m = build_mesh(3)
        coeff = 1.0 + rng.random((9, 4))
        K = assemble_stiffness(m, coeff)
        assert np.array_equal(K.toarray(), K.toarray().T)

    def test_mesh_size_invariance_for_unit_coefficient(self):
        # the Laplacian form is scale-free in 2D: element matrices agree
        K2 = assemble_stiffness(build_mesh(1), 1.0).toarray()
        m = build_mesh(2)
        K4 = assemble_stiffness(m, 1.0).toarray()
        el = m.elements[0]
        # corner node 0 of element 0 touches no other element
        assert K4[el[0], el[0]] == pytest.approx(K2[0, 0])

    def test_family_shares_pattern_and_matches_single(self):
        rng = np.random.default_rng(10)
        m = build_mesh(3)
        coeffs = 1.0 + rng.random((3, 9, 4))
        family = assemble_stiffness_family(m, coeffs)
        assert all(np.shares_memory(f.indices, family[0].indices)
                   for f in family)
        for c, Kf in zip(coeffs, family):
            assert_bitwise(Kf.toarray(),
                           boundary_zeroed(assemble_stiffness(m, c), m))

    def test_linear_in_coefficient(self):
        m = build_mesh(2)
        rng = np.random.default_rng(12)
        a = rng.random((4, 4)) + 0.5
        b = rng.random((4, 4)) + 0.5
        Ka = assemble_stiffness(m, a).toarray()
        Kb = assemble_stiffness(m, b).toarray()
        Kab = assemble_stiffness(m, a + 2 * b).toarray()
        np.testing.assert_allclose(Kab, Ka + 2 * Kb, atol=1e-13)


class TestLoad:
    def test_partition_of_unity(self):
        for n in (1, 3, 7):
            f = assemble_load(build_mesh(n), 1.0)
            assert f.sum() == pytest.approx(1.0)

    def test_zero_source(self):
        np.testing.assert_array_equal(assemble_load(build_mesh(3), 0.0),
                                      np.zeros(16))

    def test_single_element_quarters(self):
        np.testing.assert_allclose(assemble_load(build_mesh(1), 1.0),
                                   np.full(4, 0.25))


class TestDirichlet:
    def test_elimination_oracle(self):
        m = build_mesh(4)
        K = assemble_stiffness(m, 1.0)
        f = assemble_load(m, 1.0)
        Kt, ft = apply_dirichlet(K, f, m)
        u = np.linalg.solve(Kt.toarray(), ft)
        # independent route: eliminate boundary rows/cols then solve
        interior = np.setdiff1d(np.arange(m.n_nodes), m.boundary)
        Kd = K.toarray()[np.ix_(interior, interior)]
        ui = np.linalg.solve(Kd, f[interior])
        np.testing.assert_allclose(u[interior], ui, atol=1e-12)
        np.testing.assert_array_equal(u[m.boundary], 0.0)

    def test_pattern_preserved(self):
        m = build_mesh(3)
        K = assemble_stiffness(m, 1.0)
        Kt, _ = apply_dirichlet(K, np.zeros(m.n_nodes), m)
        assert np.array_equal(K.indices, Kt.indices)
        assert np.array_equal(K.indptr, Kt.indptr)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(1)
        m = build_mesh(3)
        K = assemble_stiffness(m, 1.0 + rng.random((9, 4)))
        Kt, _ = apply_dirichlet(K, np.zeros(m.n_nodes), m)
        D = Kt.toarray()
        assert np.array_equal(D, D.T)

    def test_spd_after_treatment(self):
        m = build_mesh(5)
        K = assemble_stiffness(m, 1.0)
        Kt, _ = apply_dirichlet(K, np.zeros(m.n_nodes), m)
        factorize(Kt.toarray())  # must not raise

    def test_patch_zero_data(self):
        m = build_mesh(4)
        K = assemble_stiffness(m, 1.0)
        Kt, ft = apply_dirichlet(K, np.zeros(m.n_nodes), m)
        u = np.linalg.solve(Kt.toarray(), ft)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)


class TestDirichletInPlace:
    """apply_dirichlet treats K in place, on any pattern."""

    @staticmethod
    def _reference(K, mesh):
        # dense route: zero boundary rows and columns, set the diagonal
        D = boundary_zeroed(K, mesh)
        D[mesh.boundary, mesh.boundary] = 1.0
        return D

    def test_treats_k_in_place_and_copies_f(self):
        m = build_mesh(3)
        K = assemble_stiffness(m, 1.0)
        f = assemble_load(m, 1.0)
        f_before = f.copy()
        expect = self._reference(K, m)
        Kt, ft = apply_dirichlet(K, f, m)
        assert Kt is K
        np.testing.assert_array_equal(K.toarray(), expect)
        np.testing.assert_array_equal(f, f_before)
        assert ft is not f and np.all(ft[m.boundary] == 0.0)

    def test_alternating_meshes_and_patterns(self):
        # the stiffness pattern, the Dirichlet family's pattern and a
        # full one, on meshes interleaved freely
        rng = np.random.default_rng(7)
        meshes = [build_mesh(3), build_mesh(4), build_mesh(3)]
        for m in meshes * 2:
            coeff = 1.0 + rng.random((m.n**2, 4))
            for K in (assemble_stiffness(m, coeff),
                      assemble_stiffness_family(m, coeff[None])[0],
                      sp.csr_matrix(1.0 + rng.random((m.n_nodes,) * 2))):
                expect = self._reference(K, m)
                apply_dirichlet(K, np.zeros(m.n_nodes), m)
                np.testing.assert_array_equal(K.toarray(), expect)


class TestDirichletFamily:
    """The family on the Dirichlet pattern against the Neumann single
    assembly."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), n_fields=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_zeroed_neumann_matrices_on_one_array(self, n, n_fields, seed):
        m = build_mesh(n)  # n = 1: every node is on the boundary
        coeffs = np.random.default_rng(seed).uniform(
            0.1, 10.0, (n_fields, n * n, 4))
        family = assemble_stiffness_family(m, coeffs)
        for c, K in zip(coeffs, family):
            assert_bitwise(K.toarray(),
                           boundary_zeroed(assemble_stiffness(m, c), m))
        first = family[0]
        assert first.nnz == dirichlet_nnz(n)
        stack = first.data.base
        assert stack.flags.c_contiguous
        assert stack.shape == (n_fields, first.nnz)
        for K, row in zip(family, stack, strict=True):
            assert same_array(K.data, row)
            assert same_array(K.indices, first.indices)
            assert same_array(K.indptr, first.indptr)
        for b in m.boundary:
            assert first.indices[first.indptr[b]:first.indptr[b + 1]] \
                .tolist() == [b]
        apply_dirichlet(first, np.zeros(m.n_nodes), m)
        assert stack.any(axis=0).all()

    def test_chunked_data_and_point_weights(self):
        """The data of 70 fields at n = 4, three chunks of the assembly,
        are those of one field at a time bit for bit, with or without
        the matrices; the point weights of data d are its transpose, so
        their sum against a field is d's dot product with that field's
        data."""
        m = build_mesh(4)
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(0.1, 10.0, (70, 16, 4))
        data = stiffness_data(m, coeffs)
        assert_bitwise(data, assemble_stiffness_family(m, coeffs)[0].data.base)
        for c, row in zip(coeffs, data):
            assert_bitwise(row, stiffness_data(m, c[None])[0])
        d = rng.standard_normal(data.shape[1])
        np.testing.assert_allclose(
            coeffs.reshape(70, -1) @ point_weights(m, d).ravel(), data @ d,
            rtol=1e-13)

    def test_assembly_peak_near_the_family(self):
        """Memory regression guard: assembling the family of N = P = 4
        (495 fields) at n = 32 peaks under 1.05 times its bytes."""
        mesh = build_mesh(32)
        coeffs = 1.0 + np.random.default_rng(3).random(
            (495, len(mesh.elements), 4))
        nnz = assemble_stiffness_family(mesh, coeffs[:1])[0].nnz
        family = len(coeffs) * nnz * 8
        kept, peak = traced_memory(
            lambda: assemble_stiffness_family(mesh, coeffs))
        assert kept >= family
        assert peak < 1.05 * family


class TestRefinement:
    def test_energy_monotone_under_nested_refinement(self):
        energies = []
        for n in (2, 4, 8):
            m = build_mesh(n)
            K = assemble_stiffness(m, 1.0)
            f = assemble_load(m, 1.0)
            Kt, ft = apply_dirichlet(K, f, m)
            u = np.linalg.solve(Kt.toarray(), ft)
            energies.append(ft @ u)
        assert energies[0] < energies[1] < energies[2]
