"""Chaos basis checks against Gauss-Hermite quadrature oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from conftest import g_matrix, hermite, traced_memory
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss

import sgfem.chaos as chaos
from sgfem.chaos import (
    CijkTensor,
    build_c_tensor,
    multi_index_set,
    triple_product_1d,
    write_c_tensor,
)


def gauss_expectation_1d(f, n_nodes):
    """E[f(ξ)] for standard Gaussian ξ, exact for poly degree ≤ 2n−1."""
    x, w = hermegauss(n_nodes)
    return (w @ f(x)) / math.sqrt(2 * math.pi)


class TestMultiIndexSet:
    def test_cardinality_formula(self):
        for N in range(1, 7):
            for P in range(0, 9):
                s = multi_index_set(N, P)
                assert len(s) == math.comb(N + P, P)

    def test_four_by_four_has_seventy(self):
        assert len(multi_index_set(4, 4)) == 70

    def test_degenerate(self):
        s = multi_index_set(1, 0)
        assert s.indices == ((0,),)

    def test_ordering_two_by_two(self):
        s = multi_index_set(2, 2)
        assert s.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_graded_and_zero_first(self):
        s = multi_index_set(3, 4)
        assert s.indices[0] == (0, 0, 0)
        degs = s.total_degrees()
        assert np.all(np.diff(degs) >= 0)


class TestHermiteEval:
    """The quadrature oracles' He_n is the probabilists' family with the
    factorial norm that the chaos basis assumes."""

    def test_degree_zero(self):
        assert hermite(0, 3.7) == 1.0

    def test_degree_two_at_zero(self):
        assert hermite(2, 0.0) == -1.0

    def test_degree_three(self):
        assert hermite(3, 2.0) == 2.0  # 8 - 6

    def test_degree_four_closed_form(self):
        x = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(hermite(4, x),
                                   x**4 - 6 * x**2 + 3, atol=1e-12)

    def test_orthogonality_with_factorial_norm(self):
        for n in range(6):
            for m in range(6):
                val = gauss_expectation_1d(
                    lambda x: hermite(n, x) * hermite(m, x), 8)
                expect = math.factorial(n) if n == m else 0.0
                assert abs(val - expect) < 1e-10


class TestTripleProduct1D:
    def test_basic_values(self):
        assert triple_product_1d(0, 1, 1) == 1.0
        assert triple_product_1d(1, 1, 1) == 0.0  # odd total degree
        assert triple_product_1d(1, 1, 2) == 2.0

    def test_against_quadrature(self):
        for a in range(9):
            for b in range(5):
                for c in range(5):
                    nodes = (a + b + c) // 2 + 1
                    oracle = gauss_expectation_1d(
                        lambda x: hermite(a, x) * hermite(b, x)
                        * hermite(c, x), max(nodes, 2))
                    assert abs(triple_product_1d(a, b, c) - oracle) < 1e-8, \
                        (a, b, c)

    def test_permutation_symmetry(self):
        import itertools
        for trip in [(2, 3, 3), (1, 2, 3), (4, 2, 2)]:
            vals = {triple_product_1d(*p) for p in itertools.permutations(trip)}
            assert len(vals) == 1

    def test_nonnegative(self):
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    assert triple_product_1d(a, b, c) >= 0.0


def multivariate_quadrature_cijk(idx_i, idx_j, idx_k, n_nodes=10):
    """Tensorized Gauss-Hermite evaluation of E[ψ_i ψ_j ψ_k]."""
    x, w = hermegauss(n_nodes)
    w = w / math.sqrt(2 * math.pi)
    total = 1.0
    for a, b, c in zip(idx_i, idx_j, idx_k):
        f = hermite(a, x) * hermite(b, x) * hermite(c, x)
        total *= w @ f
    return total


def looped_c_tensor(N, P, Pprime) -> CijkTensor:
    """The tensor built one expansion index at a time (oracle)."""
    iset, jkset = multi_index_set(N, Pprime), multi_index_set(N, P)
    T = chaos.triple_product_table(Pprime, P)
    jk = jkset.as_array()
    m1 = len(jkset)
    iis, jjs, kks, vals = [], [], [], []
    for a, idx in enumerate(iset.indices):
        G = np.ones((m1, m1))
        for d in range(N):
            cols = jk[:, d]
            G *= T[idx[d]][np.ix_(cols, cols)]
        jj, kk = np.nonzero(G)
        iis.append(np.full(len(jj), a, dtype=np.int64))
        jjs.append(jj)
        kks.append(kk)
        vals.append(G[jj, kk])
    return CijkTensor(iset, jkset, np.concatenate(iis), np.concatenate(jjs),
                      np.concatenate(kks), np.concatenate(vals))


def assert_same_bits(got: CijkTensor, want: CijkTensor) -> None:
    for name in ("i", "j", "k", "val"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestCijkTensor:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_looped_build_bit_for_bit(self, data):
        N, P = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
        Pprime = data.draw(st.integers(P, 2 * P + 1))
        chunk = data.draw(st.sampled_from([8, 1000, chaos._CHUNK_BYTES]))
        with mock.patch.object(chaos, "_CHUNK_BYTES", chunk):
            got = build_c_tensor(N, P, Pprime)
        assert_same_bits(got, looped_c_tensor(N, P, Pprime))

    @pytest.mark.parametrize("N,P,Pprime", [(4, 4, 8), (5, 5, 5)])
    def test_matches_looped_build_at_bench_shapes(self, N, P, Pprime):
        assert_same_bits(build_c_tensor(N, P, Pprime),
                         looped_c_tensor(N, P, Pprime))

    def test_matches_quadrature_past_the_dense_oracle(self):
        """At (6, 4, 8), where the dense build would take seconds, 200
        stored entries and 200 absent triples against 10-node
        Gauss-Hermite quadrature, exact up to degree 19 ≥ 8 + 4 + 4."""
        t = build_c_tensor(6, 4, 8)
        assert t.nnz == 105770
        rng = np.random.default_rng(7)
        m1 = len(t.jkset)
        stored = set(((t.i * m1 + t.j) * m1 + t.k).tolist())
        absent = []
        while len(absent) < 200:
            a, b, c = (int(rng.integers(len(s)))
                       for s in (t.iset, t.jkset, t.jkset))
            if (a * m1 + b) * m1 + c not in stored:
                absent.append((a, b, c, 0.0))
        present = [(t.i[e], t.j[e], t.k[e], t.val[e])
                   for e in rng.choice(t.nnz, 200, replace=False)]
        for a, b, c, value in present + absent:
            oracle = multivariate_quadrature_cijk(
                t.iset.indices[a], t.jkset.indices[b], t.jkset.indices[c])
            assert abs(value - oracle) <= 1e-10 * max(abs(oracle), 1.0), \
                (a, b, c)

    @pytest.mark.parametrize("N,P,Pprime", [(4, 4, 8), (5, 5, 5)])
    def test_build_holds_coupling_matrices_in_chunks(self, N, P, Pprime):
        """All coupling matrices G_α at once would take 19 MB at
        (4, 4, 8) and 128 MB at (5, 5, 5).  The build holds the finished
        runs of i (2 MB at (5, 5, 5)), their concatenation and one run's
        expansion, about 64 B an entry within ``_CHUNK_BYTES``."""
        _, peak = traced_memory(lambda: build_c_tensor(N, P, Pprime))
        assert peak < 8e6

    def test_origin_entry(self):
        t = build_c_tensor(2, 2, 4)
        assert t.i[0] == t.j[0] == t.k[0] == 0
        assert t.val[0] == 1.0

    def test_zero_slice_is_diagonal_of_factorials(self):
        t = build_c_tensor(3, 3, 6)
        G0 = g_matrix(0, t)
        expect = [np.prod([math.factorial(d) for d in idx])
                  for idx in t.jkset.indices]
        np.testing.assert_array_equal(G0, np.diag(np.diag(G0)))
        np.testing.assert_allclose(np.diag(G0), expect)

    def test_all_stored_entries_nonzero(self):
        t = build_c_tensor(2, 2, 4)
        assert np.all(t.val != 0.0)

    def test_jk_symmetry(self):
        t = build_c_tensor(3, 2, 4)
        for alpha in range(len(t.iset)):
            G = g_matrix(alpha, t)
            np.testing.assert_array_equal(G, G.T)

    def test_full_expansion_entry_count(self):
        # N=4, P=4, P'=8: 495 coupling matrices, 12,585 nonzeros in total
        t = build_c_tensor(4, 4, 8)
        assert len(t.iset) == 495
        assert t.nnz == 12585

    def test_entry_counts_by_expansion_degree(self):
        # cumulative nonzero counts when i is restricted by total degree
        t = build_c_tensor(4, 4, 8)
        expect = {0: 70, 1: 350, 2: 1210, 3: 2610, 4: 4980, 8: 12585}
        for bound, count in expect.items():
            n_i = math.comb(4 + bound, bound)
            assert int(np.searchsorted(t.i, n_i)) == count, bound

    def test_union_pattern_by_expansion_degree(self):
        # distinct (j,k) pairs covered when i is restricted by total degree
        t = build_c_tensor(4, 4, 8)
        expect = {0: 70, 1: 350, 2: 1070, 3: 1990, 4: 3090, 8: 4900}
        m1 = len(t.jkset)
        for bound, count in expect.items():
            n_i = math.comb(4 + bound, bound)
            hi = np.searchsorted(t.i, n_i)
            pairs = np.unique(t.j[:hi] * m1 + t.k[:hi])
            assert len(pairs) == count, bound

    def test_matches_quadrature_oracle_2d(self):
        t = build_c_tensor(2, 2, 4)
        for alpha in range(len(t.iset)):
            G = g_matrix(alpha, t)
            for j, jdx in enumerate(t.jkset.indices):
                for k, kdx in enumerate(t.jkset.indices):
                    oracle = multivariate_quadrature_cijk(
                        t.iset.indices[alpha], jdx, kdx)
                    assert abs(G[j, k] - oracle) < 1e-10

    def test_matches_quadrature_oracle_3d(self):
        t = build_c_tensor(3, 1, 2)
        for alpha in range(len(t.iset)):
            G = g_matrix(alpha, t)
            for j, jdx in enumerate(t.jkset.indices):
                for k, kdx in enumerate(t.jkset.indices):
                    oracle = multivariate_quadrature_cijk(
                        t.iset.indices[alpha], jdx, kdx)
                    assert abs(G[j, k] - oracle) < 1e-10

    def test_deterministic_rebuild(self):
        t1 = build_c_tensor(3, 2, 4)
        t2 = build_c_tensor(3, 2, 4)
        assert np.array_equal(t1.val, t2.val)
        assert np.array_equal(t1.i, t2.i)

    def test_requires_pprime_at_least_p(self):
        with pytest.raises(ValueError):
            build_c_tensor(2, 3, 2)

    def test_rejects_zero_dimensions_naming_n(self):
        with pytest.raises(ValueError, match="dimension N"):
            build_c_tensor(0, 2, 4)

    def test_rejects_negative_degree_naming_p(self):
        # P' = 2P < P here too; the message must blame P, not P'
        with pytest.raises(ValueError, match="degree P must"):
            build_c_tensor(2, -1, -2)


class TestGMatrix:
    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(0, 3),
           extra=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_g_sum_is_the_weighted_sum_of_coupling_matrices(self, N, P,
                                                            extra, seed):
        """G is Σ_a w_a G_a, and each entry adds its terms in the
        tensor's order, bit for bit as one unbuffered scatter-add."""
        t = build_c_tensor(N, P, 2 * P + extra)
        w = np.random.default_rng(seed).standard_normal(len(t.iset))
        want = sum(w_a * g_matrix(a, t) for a, w_a in enumerate(w))
        got = t.g_sum(w)
        assert got.shape == (len(t.jkset),) * 2
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())
        scattered = np.zeros_like(got)
        np.add.at(scattered, (t.j, t.k), w[t.i] * t.val)
        assert got.tobytes() == scattered.tobytes()

    def test_mean_block_low_degree(self):
        t = build_c_tensor(2, 1, 2)
        np.testing.assert_array_equal(g_matrix(0, t), np.eye(3))

    def test_mean_block_with_factorials(self):
        t = build_c_tensor(1, 2, 4)
        np.testing.assert_array_equal(g_matrix(0, t), np.diag([1.0, 1.0, 2.0]))


class TestExport:
    def test_round_trip_values(self, tmp_path):
        t = build_c_tensor(2, 2, 4)
        p = tmp_path / "c.txt"
        write_c_tensor(p, t)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("%")
        assert len(lines) == 1 + t.nnz
        parsed = np.array([[float(tok) for tok in ln.split()]
                           for ln in lines[1:]])
        assert np.array_equal(parsed[:, 3], t.val)  # bit-exact
        assert np.array_equal(parsed[:, 0].astype(int), t.i)
