"""Block operator checks against the dense brute-force oracle."""

import dataclasses
import functools
import importlib.util
import math
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    all_indices,
    band_fill,
    binomial_levels,
    build_inputs,
    build_operator,
    family_band,
    family_matvec,
    family_plan,
    g_matrix,
    held_factors,
    levels,
    md_matvec,
    md_pair_fields,
    retained_family,
    scan_plan,
    sweep_steps,
    traced_memory,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgfem.experiments as experiments
import sgfem.galerkin as galerkin
import sgfem.linalg as linalg
from sgfem import build_problem, flexible_cg
from sgfem.chaos import _half_grid, build_c_tensor, multi_index_set
from sgfem.experiments import ExperimentConfig, export_case, stiffness_norms
from sgfem.fem import (
    assemble_stiffness_family,
    build_mesh,
    dirichlet_nnz,
    stiffness_data,
)
from sgfem.galerkin import (
    GalerkinOperator,
    adaptive_truncation,
    full_truncation,
    standard_truncation,
    TruncationSet,
)
from sgfem.linalg import Factorization, factorize
from sgfem.preconditioners import KINDS, make_preconditioner

SMALL = [(1, 1, 2), (2, 1, 3), (2, 2, 3)]


class TestLevelStructure:
    """The degree levels the level sweeps cut at, where the total degree
    of the basis's graded order steps, against the binomial oracle."""

    def test_four_dimensional(self):
        degrees = multi_index_set(4, 4).total_degrees()
        assert np.searchsorted(degrees, range(6)).tolist() == \
            [0, 1, 5, 15, 35, 70]
        assert [len(level) for level in binomial_levels(4, 4)] == \
            [1, 4, 10, 20, 35]

    def test_one_dimensional(self):
        degrees = multi_index_set(1, 3).total_degrees()
        assert np.diff(np.searchsorted(degrees, range(5))).tolist() == \
            [1, 1, 1, 1]

    def test_blocks_partition(self):
        seen = [j for level in binomial_levels(3, 3) for j in level]
        assert seen == list(range(len(multi_index_set(3, 3))))

    def test_matches_index_set_degrees(self):
        degs = multi_index_set(3, 4).total_degrees()
        for l, blk in enumerate(binomial_levels(3, 4)):
            assert np.all(degs[list(blk)] == l)


class TestTruncationSets:
    def test_standard_sizes(self):
        assert len(standard_truncation(4, 0)) == 1
        assert len(standard_truncation(4, 2)) == 15
        assert len(standard_truncation(4, 8)) == 495
        sizes = [len(standard_truncation(4, lt)) for lt in (0, 1, 2, 3, 4, 8)]
        assert sizes == [1, 5, 15, 35, 70, 495]

    def test_adaptive_extremes(self):
        t = build_c_tensor(2, 2, 4)
        norms = np.ones(len(t.iset))
        assert len(adaptive_truncation(0.0, norms, t)) == len(t.iset)
        far = adaptive_truncation(1e300, norms, t)
        assert list(far.indices) == [0]

    @pytest.mark.parametrize("tau", [-1.0, float("nan")])
    def test_adaptive_rejects_negative_or_nan_threshold(self, tau):
        t = build_c_tensor(2, 2, 4)
        with pytest.raises(ValueError, match="threshold"):
            adaptive_truncation(tau, np.ones(len(t.iset)), t)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_adaptive_rejects_nan_or_negative_norm(self, bad):
        """A NaN norm fails every comparison with τ, so it would drop its
        index without a word; it is refused by name, as is a negative
        one."""
        t = build_c_tensor(2, 2, 4)
        norms = np.ones(len(t.iset))
        norms[3] = bad
        with pytest.raises(ValueError,
                           match=rf"k_norms .* {bad!r} at index 3"):
            adaptive_truncation(0.0, norms, t)

    def test_standard_truncation_past_memory_refused(self, monkeypatch):
        """An index set whose int64s exceed physical memory is refused by
        ``check_fits``, naming the degree, before numpy is asked for it;
        one that fits exactly is built."""
        with pytest.raises(MemoryError,
                           match=r"degree lt = 1000000 at N = 4"):
            standard_truncation(4, 10**6)
        monkeypatch.setattr(linalg, "physical_memory", lambda: 8 * 15)
        assert len(standard_truncation(4, 2)) == 15
        with pytest.raises(MemoryError, match="its 35 indices, needs 280"):
            standard_truncation(4, 3)

    def test_adaptive_threshold_mechanism(self):
        t = build_c_tensor(2, 1, 2)
        cmax = np.zeros(len(t.iset))
        np.maximum.at(cmax, t.i, t.val)
        norms = np.arange(1.0, len(t.iset) + 1)
        tau = 2.5
        got = adaptive_truncation(tau, norms, t)
        expect = sorted({0} | {i for i in range(len(t.iset))
                              if cmax[i] * norms[i] >= tau})
        assert list(got.indices) == expect

    def test_adaptive_nesting(self):
        op, _, _, _ = build_operator(2, 2, 2)
        norms = np.array([np.sqrt((K.data**2).sum()) for K in op.k_mats])
        prev = None
        for tau in (0.0, 0.01, 0.1, 1.0, 10.0):
            cur = set(adaptive_truncation(tau, norms, op.tensor).indices)
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_rejects_missing_zero(self):
        with pytest.raises(ValueError):
            TruncationSet(np.array([1, 2]), "bad")


class TestTmatvecOracle:
    @pytest.mark.parametrize("N,P,n", SMALL)
    def test_full_product_matches_dense(self, N, P, n):
        op, _, _, _ = build_operator(N, P, n)
        A = op.assemble_global_dense()
        rng = np.random.default_rng(17)
        for _ in range(3):
            v = rng.standard_normal(op.n_global)
            got = op.matvec(v)
            want = A @ v
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_mean_block_identity(self):
        op, _, _, _ = build_operator(2, 2, 3)
        free = free_nodes(op)
        v = np.random.default_rng(3).standard_normal(len(free))
        got = op.tmatvec(
            family_plan(op, [0], [0], full_truncation(op.tensor)), v)
        np.testing.assert_allclose(got, op.k_mats[0][free][:, free] @ v,
                                   atol=1e-13)

    def test_mean_truncation_kills_off_diagonal(self):
        op, _, _, _ = build_operator(2, 2, 3)
        t0 = standard_truncation(2, 0)
        v = np.random.default_rng(4).standard_normal(op.n_free)
        for j in range(1, op.M + 1):
            got = op.tmatvec(family_plan(op, [j], [0], t0), v)
            np.testing.assert_array_equal(got, np.zeros(op.n_free))

    def test_symmetry_as_bilinear_form(self):
        op, _, _, _ = build_operator(2, 2, 3)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(op.n_global)
        w = rng.standard_normal(op.n_global)
        left = w @ op.matvec(v)
        right = v @ op.matvec(w)
        assert abs(left - right) <= 1e-12 * abs(left)

    def test_bitwise_reproducible(self):
        op, _, _, _ = build_operator(2, 1, 3)
        v = np.random.default_rng(9).standard_normal(op.n_global)
        assert np.array_equal(op.matvec(v), op.matvec(v))
        # a plan built anew gives the same bits; an empty range of rows
        # adds no products and no summations
        full = full_truncation(op.tensor)
        V = v.reshape(op.M + 1, -1)[:, op.free]
        for lo, hi in ((0, op.M + 1), (1, 3), (2, 2)):
            want = op.tmatvec(
                family_plan(op, range(lo, hi), range(1, 3), full), V[1:3])
            counters = dict(op.counters)
            got = op.tmatvec(
                family_plan(op, range(lo, hi), range(1, 3), full), V[1:3])
            assert np.array_equal(got, want)
            assert (op.counters == counters) == (lo == hi)

    def test_accepts_lists(self):
        """A list is converted as an array is, flat or nested, and keeps
        its layout."""
        op, b = build_problem(1, 1, 2, 100.0)
        np.testing.assert_array_equal(op.matvec(list(b)), op.matvec(b))
        B = b.reshape(op.M + 1, op.n_dof)
        np.testing.assert_array_equal(op.matvec(B.tolist()), op.matvec(B))
        v = B[:, op.free]
        full = full_truncation(op.tensor)
        for plan in (family_plan(op, [0, 1], [0, 1], full),
                     op.gauss_plan([0, 1], [0, 1])):
            got = op.tmatvec(plan, v.ravel().tolist())
            assert got.shape == (v.size,)
            np.testing.assert_array_equal(got, op.tmatvec(plan, v).ravel())

    def test_dimension_mismatch(self):
        op, _, _, _ = build_operator(1, 1, 2)
        plan = family_plan(op, [0], [0, 1], full_truncation(op.tensor))
        with pytest.raises(ValueError):
            op.tmatvec(plan, np.ones(op.n_free))

    @pytest.mark.parametrize("rows,cols", [([1, 1], [0]), ([0], [2, 0, 2]),
                                           ([-1], [0]), ([0], [3])])
    def test_rejects_repeated_or_out_of_range_blocks(self, rows, cols):
        op, _, _, _ = build_operator(1, 2, 2)  # blocks 0..2
        with pytest.raises(ValueError, match="distinct and in"):
            family_plan(op, rows, cols, full_truncation(op.tensor))


@functools.lru_cache(maxsize=None)
def cached_problem(N, P, n):
    """:func:`build_operator` at (N, P, n), built once."""
    return build_operator(N, P, n)


def free_oracle_product(op, A, rows, cols, seed):
    """Random column blocks ``v``, shape (cols, n_dof), and the row
    blocks of the product of the dense global matrix ``A`` with them,
    shape (rows, n_dof)."""
    nd = op.n_dof
    v = np.random.default_rng(seed).standard_normal((len(cols), nd))
    x = np.zeros((op.M + 1, nd))
    x[cols] = v
    return v, (A @ x.ravel()).reshape(op.M + 1, nd)[rows]


def family_matrices(op, family) -> list:
    """The CSR matrices on K_0's pattern whose data are the rows of
    ``family``."""
    K0 = op._k0
    return [sp.csr_matrix((row, K0.indices, K0.indptr), shape=K0.shape)
            for row in family]


def truncated_oracle(op, trunc, family):
    """Dense global matrix of ``family``, every K_i's data, with every
    K_i outside the set zeroed."""
    keep = set(trunc.indices.tolist())
    kept = [K if i in keep else K * 0.0
            for i, K in enumerate(family_matrices(op, family))]
    return dense_from_matrices(op.tensor, kept)


def kept_rows(trunc, family) -> np.ndarray:
    """The rows of ``family``, every K_i's data, that a plan of ``trunc``
    multiplies: those of its indices inside the tensor."""
    return family[trunc.indices[trunc.indices < len(family)]]


@st.composite
def tmatvec_cases(draw):
    """An operator, its family or the family edited to hold stored
    zeros, common to every K_i or in only some of them, and a random
    product of a standard or adaptive truncation."""
    N, P, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 4))
    op = cached_problem(N, P, n)[0]
    family = op.family(all_indices(op), "the test")
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        common = rng.random(family.shape[1]) < draw(
            st.sampled_from([0, 0.2, 0.6]))
        family[common | (rng.random(family.shape) < 0.3)] = 0.0
    blocks = st.lists(st.integers(0, op.M), min_size=1, max_size=op.M + 1,
                      unique=True)
    rows, cols = draw(blocks), draw(blocks)
    if draw(st.booleans()):
        trunc = standard_truncation(N, draw(st.integers(0, 2 * P)))
    else:
        norms = np.array([np.linalg.norm(row) for row in family])
        tau = draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0]))
        trunc = adaptive_truncation(tau, norms, op.tensor)
    seed = draw(st.integers(0, 2**16))
    return op, family, rows, cols, trunc, seed


class TestTmatvecProperty:
    @settings(max_examples=60, deadline=None)
    @given(tmatvec_cases())
    def test_matches_dense_oracle(self, case):
        """On the free nodes, in and out: a fixed node's column of the
        matrix is zero off its own row."""
        op, family, rows, cols, trunc, seed = case
        free = free_nodes(op)
        v, want = free_oracle_product(
            op, truncated_oracle(op, trunc, family), rows, cols, seed)
        plan = op.plan(rows, cols, trunc, kept_rows(trunc, family))
        got = op.tmatvec(plan, v[:, free])
        want = want[:, free]
        scale = np.abs(want).max(initial=1.0)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale
        # flat input gives the same numbers in flat layout
        np.testing.assert_array_equal(op.tmatvec(plan, v[:, free].ravel()),
                                      got.ravel())

    @settings(max_examples=80, deadline=None)
    @given(N=st.integers(1, 4), P=st.integers(0, 3), n=st.integers(1, 2),
           data=st.data())
    def test_plan_equals_the_scan_of_every_entry(self, N, P, n, data):
        """A plan takes its terms from its column blocks' entries of the
        tensor, indexed by k once, and equals field by field, in every
        dtype, the plan from a scan of every entry: for random row and
        column blocks in any order, a standard truncation of random
        degree, the full set or a drawn one, and chunks of random
        size."""
        op = cached_problem(N, P, n)[0]
        blocks = st.lists(st.integers(0, op.M), max_size=op.M + 1,
                          unique=True)
        rows, cols = data.draw(blocks), data.draw(blocks)
        kind = data.draw(st.sampled_from(["full", "standard", "drawn"]))
        if kind == "full":
            trunc = full_truncation(op.tensor)
        elif kind == "standard":
            lt = data.draw(st.integers(0, 2 * P + 1))
            trunc = standard_truncation(N, lt)
        else:
            extra = data.draw(st.sets(st.integers(1, op.Mprime + 3)))
            trunc = TruncationSet(np.array(sorted(extra | {0})), "drawn")
        chunk = data.draw(st.sampled_from([8 * op.n_dof, 64 * op.n_dof,
                                           galerkin._CHUNK_BYTES]))

        def same(x, y):
            if dataclasses.is_dataclass(x):
                return type(x) is type(y) and all(
                    same(getattr(x, f.name), getattr(y, f.name))
                    for f in dataclasses.fields(x))
            if isinstance(x, (list, tuple)):
                return (type(x) is type(y) and len(x) == len(y)
                        and all(map(same, x, y)))
            if isinstance(x, np.ndarray):
                return (isinstance(y, np.ndarray) and x.dtype == y.dtype
                        and np.array_equal(x, y))
            return type(x) is type(y) and x == y

        family = retained_family(op, trunc)
        with mock.patch.object(galerkin, "_CHUNK_BYTES", chunk):
            assert same(op.plan(rows, cols, trunc, family),
                        scan_plan(op, rows, cols, trunc, family))

    def test_chunked_product_matches_single_chunk(self, monkeypatch):
        op, _, mesh, field = build_operator(2, 2, 3)
        v = np.random.default_rng(12).standard_normal(op.n_global)
        want = family_matvec(op, v)
        monkeypatch.setattr(galerkin, "_CHUNK_BYTES", 8 * op.n_dof)
        small = GalerkinOperator(op.tensor, field, mesh)
        blocks = range(op.M + 1)
        assert len(family_plan(small, blocks, blocks,
                               full_truncation(op.tensor)).chunks) > 1
        np.testing.assert_allclose(family_matvec(small, v), want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())


@st.composite
def fixed_node_cases(draw):
    """A new operator, a random family on the Dirichlet pattern of the
    mesh's boundary, with the operator's K_0 edited in place into the
    family's, and a random product.

    Interior slots get random values.  A boundary node b keeps
    K_i[b,b] = 0 for every i > 0 and gets K_0[b,b] = 1 or a random
    value.  Rows and columns overlap at random, and a plan may have a
    single column."""
    N, P, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), \
        draw(st.integers(1, 4))
    op, _, mesh, field = cached_problem(N, P, n)
    op = GalerkinOperator(op.tensor, field, mesh)
    K = op._k0
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    family = rng.standard_normal((len(op.tensor.iset), K.nnz))
    slot = K.indptr[mesh.boundary]
    family[1:, slot] = 0.0
    family[0, slot[rng.random(len(slot)) < 0.5]] = 1.0
    K.data[:] = family[0]
    blocks = st.lists(st.integers(0, op.M), min_size=1, max_size=op.M + 1,
                      unique=True)
    rows = draw(blocks)
    cols = [draw(st.integers(0, op.M))] if draw(st.booleans()) \
        else draw(blocks)
    extra = draw(st.sets(st.integers(1, op.Mprime)))
    trunc = TruncationSet(np.array(sorted(extra | {0})), "drawn")
    return op, family, mesh.boundary, rows, cols, trunc


class TestFixedNodes:
    """The operator fixes the mesh's boundary; the free-node products
    agree with the dense oracle, and so do the family's full product
    and the fixed node entries of :meth:`matvec`, which come from the
    closed form (G_0)_jj · K_0[b,b] · v_(j)[b]."""

    @settings(max_examples=80, deadline=None)
    @given(fixed_node_cases(), st.integers(0, 2**16))
    def test_matches_dense_oracle(self, case, seed):
        op, family, fixed, rows, cols, trunc = case
        np.testing.assert_array_equal(op.fixed, fixed)
        np.testing.assert_array_equal(op.free, free_nodes(op))
        np.testing.assert_array_equal(
            np.sort(np.concatenate([op.fixed, op.free])),
            np.arange(op.n_dof))
        v, want = free_oracle_product(
            op, truncated_oracle(op, trunc, family), rows, cols, seed)
        got = op.tmatvec(op.plan(rows, cols, trunc,
                                 kept_rows(trunc, family)), v[:, op.free])
        scale = np.abs(want).max(initial=1.0)
        assert np.abs(got - want[:, op.free]).max(initial=0.0) <= \
            1e-13 * scale
        x = np.random.default_rng(seed).standard_normal(op.n_global)
        dense = dense_from_matrices(op.tensor, family_matrices(op, family))
        want = (dense @ x).reshape(op.M + 1, op.n_dof)
        scale = np.abs(want).max(initial=1.0)
        assert np.abs(family_matvec(op, x, family) - want).max() <= \
            1e-13 * scale
        got = op.matvec(x).reshape(op.M + 1, op.n_dof)[:, op.fixed]
        assert np.abs(got - want[:, op.fixed]).max(initial=0.0) <= \
            1e-13 * scale

    def test_operator_family_fixes_the_boundary(self):
        """The assembled family fixes exactly the boundary nodes, and the
        full product there is the closed form, bit for bit."""
        op, _, _, _ = build_operator(2, 2, 4)
        boundary = np.flatnonzero(np.diff(op.k_mats[0].indptr) == 1)
        assert len(boundary) == 16
        np.testing.assert_array_equal(op.fixed, boundary)
        v = np.random.default_rng(5).standard_normal((op.M + 1, op.n_dof))
        got = op.matvec(v)
        g0 = np.diag(g_matrix(0, op.tensor))
        k0 = op.k_mats[0].diagonal()[boundary]
        np.testing.assert_array_equal(
            got[:, boundary], g0[:, None] * (k0 * v[:, boundary]))



def dense_from_matrices(tensor, mats) -> np.ndarray:
    """Global matrix Σ c_ijk K_i summed entry by entry from the tensor and
    the matrices themselves, with no operator involved."""
    nd, M1 = mats[0].shape[0], len(tensor.jkset)
    A = np.zeros((M1 * nd, M1 * nd))
    dense = [K.toarray() for K in mats]
    for i, j, k, v in zip(tensor.i, tensor.j, tensor.k, tensor.val):
        A[j * nd:(j + 1) * nd, k * nd:(k + 1) * nd] += v * dense[i]
    return A


class TestFamily:
    """``family`` assembles the K_i a caller names from the field, anew at
    each call, and the operator keeps none of them."""

    @pytest.mark.parametrize("indices", [range(15), [0], [3, 0, 7],
                                         [14, 2], []])
    def test_rows_are_the_assembled_family(self, indices):
        """Each row is that of ``assemble_stiffness_family`` of the
        field's values bit for bit, K_0's with boundary diagonal 1.0, in
        one C-contiguous array."""
        tensor, field, mesh = build_inputs(2, 2, 4)
        op = GalerkinOperator(tensor, field, mesh)
        family = assemble_stiffness_family(
            mesh, field.values(range(len(tensor.iset))))
        want = np.array([K.data for K in family])
        assert not want[0, op._fixed_slots].any()
        want[0, op._fixed_slots] = 1.0
        got = op.family(indices, "the test")
        assert got.shape == (len(indices), dirichlet_nnz(4))
        assert got.flags.c_contiguous
        assert np.array_equal(got, want[list(indices)])
        for K, mine in zip(family, op.k_mats, strict=True):
            assert np.array_equal(K.indices, mine.indices)
            assert np.array_equal(K.indptr, mine.indptr)

    def test_assembled_anew_and_kept_by_the_caller(self):
        """Every call and every read of ``k_mats`` assembles new arrays,
        so an edit of one is seen by no other, and row 0 is K_0's data as
        the operator holds it at the call.  Memory regression guards:
        building the operator keeps well below the family's bytes, for
        it holds K_0 alone; a call at N = P = 4, n = 12 keeps only what
        it returns, the family's bytes, and peaks within 10 % of those
        and the bytes of the coefficient values it is assembled from."""
        tensor, field, mesh = build_inputs(4, 4, 12)
        family = 8 * len(tensor.iset) * dirichlet_nnz(12)
        values = 8 * len(tensor.iset) * 4 * 144
        assert family > 3e6
        kept, _ = traced_memory(lambda: GalerkinOperator(tensor, field,
                                                         mesh))
        assert kept < 0.05 * family
        op = GalerkinOperator(tensor, field, mesh)
        every = range(len(tensor.iset))
        kept, peak = traced_memory(lambda: op.family(every, "the test"))
        assert family <= kept < 1.01 * family
        assert peak < 1.1 * (family + values)
        kept, _ = traced_memory(lambda: op.family(every, "the test").size)
        assert kept < 0.01 * family
        op.family([0, 3], "the test")[:] = 7.0
        assert not np.any(op.k_mats[3].data == 7.0)
        assert not np.any(op.family([0], "the test") == 7.0)
        op._k0.data[op._fixed_slots] = 2.0
        np.testing.assert_array_equal(
            op.family([3, 0], "the test")[1, op._fixed_slots], 2.0)

    def test_oversized_family_refused_before_assembly(self, monkeypatch,
                                                      tmp_path):
        """The bytes of the asked K_i and of the coefficient values they
        are assembled from, 8·len(indices)·(nnz + points), are checked
        against physical memory before either is computed, naming what
        asked for them: ``k_mats``, the stiffness norms, the dense
        assembly and ``sg export``, which writes no file; the operator,
        which holds K_0 alone, is built within that memory."""
        tensor, field, mesh = build_inputs(2, 2, 4)
        indices = [0, 4, 9]
        need = 8 * len(indices) * (dirichlet_nnz(4) + 64)
        op = GalerkinOperator(tensor, field, mesh)
        assert need == op.family(indices, "the test").nbytes \
            + field.values(indices).nbytes
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)
        op = GalerkinOperator(tensor, field, mesh)

        def no_work(*args):
            raise AssertionError("family assembled before the refusal")

        monkeypatch.setattr(type(field), "values", no_work)
        with pytest.raises(MemoryError) as exc:
            op.family(indices, "the test")
        assert str(exc.value).startswith(
            f"the stiffness family for the test, 3 matrices of 65 stored "
            f"entries, with the coefficient values at its 64 points, needs "
            f"{need} bytes")
        with pytest.raises(MemoryError, match="for k_mats, 15 matrices"):
            op.k_mats
        with pytest.raises(MemoryError, match="for the stiffness norms, "
                                              "15 matrices"):
            stiffness_norms(op)
        with pytest.raises(MemoryError, match="for the dense assembly, "
                                              "15 matrices"):
            op.assemble_global_dense()
        monkeypatch.setattr(experiments, "_problem",
                            lambda config, **vary: (op, None))
        with pytest.raises(MemoryError, match="for sg export, 15 matrices"):
            export_case(ExperimentConfig(N=2, P=2, n=4), tmp_path / "case",
                        cap=0)
        assert not (tmp_path / "case").exists()
        # with the K_i fitting, the patched values are reached: the
        # refusal above came before them
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="family assembled"):
            op.family(indices, "the test")

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 4), P=st.integers(0, 3), n=st.integers(1, 4),
           data=st.data())
    def test_subsets_are_rows_of_the_whole(self, N, P, n, data):
        """For random index subsets in any order, the field's values and
        the family of the subset are the matching rows of those of every
        index, bit for bit, whatever chunks the assembly cuts."""
        op, _, _, field = cached_problem(N, P, n)
        every = range(len(op.tensor.iset))
        subset = data.draw(st.lists(st.sampled_from(every), unique=True))
        assert np.array_equal(field.values(subset),
                              field.values(every)[subset])
        assert np.array_equal(op.family(subset, "the test"),
                              op.family(every, "the test")[subset])


class TestCounters:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_more_indices_never_lower_counters(self, data):
        """Adding indices to a truncation set, some past the tensor, never
        lowers the products or summations of one tmatvec."""
        N, P, n = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)),
                   data.draw(st.integers(1, 4)))
        op = cached_problem(N, P, n)[0]
        blocks = st.lists(st.integers(0, op.M), min_size=1,
                          max_size=op.M + 1, unique=True)
        rows, cols = data.draw(blocks), data.draw(blocks)
        indices = st.sets(st.integers(1, op.Mprime + 3))
        base, extra = data.draw(indices), data.draw(indices)
        v = np.ones(len(cols) * op.n_free)

        def counts(idx):
            trunc = TruncationSet(np.array(sorted(idx | {0})), "drawn")
            before = dict(op.counters)
            op.tmatvec(family_plan(op, rows, cols, trunc), v)
            return [op.counters[c] - before[c]
                    for c in ("products", "summations")]

        fewer, more = counts(base), counts(base | extra)
        assert fewer[0] <= more[0] and fewer[1] <= more[1]

    def test_summation_counter_tracks_retained_entries(self):
        # count of c_ijk terms per full-block product, by truncation degree
        op, _, _, _ = build_operator(4, 4, 2)
        expect = {0: 70, 1: 350, 2: 1210, 3: 2610, 4: 4980, 8: 12585}
        blocks = range(op.M + 1)
        v = np.ones((op.M + 1) * op.n_free)
        for lt, count in expect.items():
            before = dict(op.counters)
            op.tmatvec(family_plan(op, blocks, blocks,
                                   standard_truncation(4, lt)), v)
            assert op.counters["summations"] - before["summations"] == \
                count, lt
            assert op.counters["products"] - before["products"] <= count

    def test_counters_accumulate(self):
        op, _, _, _ = build_operator(2, 1, 2)
        v = np.ones(op.n_global)
        assert op.counters == {"summations": 0, "products": 0}
        op.matvec(v)
        once = op.counters["summations"]
        op.matvec(v)
        assert op.counters["summations"] == 2 * once


class TestGaussPointProduct:
    """The full product at the Gauss points against the family's full
    product and the dense matrix."""

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 4), P=st.integers(0, 3),
           n=st.sampled_from([1, 2, 3, 5]),
           cov=st.sampled_from([50.0, 100.0, 150.0]),
           seed=st.integers(0, 2**16))
    @example(N=3, P=3, n=5, cov=150.0, seed=0)  # halves of 1 and 2 dims
    @example(N=4, P=3, n=5, cov=100.0, seed=0)
    @example(N=1, P=0, n=2, cov=100.0, seed=0)  # no free node
    def test_matches_the_family_product(self, N, P, n, cov, seed):
        """Odd N splits the dimensions into unequal halves, N = 1 into an
        empty one, and n ≤ 2 leaves at most one free node."""
        op, _ = build_problem(N, P, n, cov)
        V = np.random.default_rng(seed).standard_normal((op.M + 1,
                                                         op.n_dof))
        got = op.matvec(V)
        family = family_matvec(op, V)
        scale = np.abs(family[:, op.free]).max(initial=0.0)
        assert np.abs(got - family)[:, op.free].max(initial=0.0) <= \
            1e-14 * scale
        np.testing.assert_array_equal(got[:, op.fixed], family[:, op.fixed])
        if op.n_global <= 5000:
            dense = op.assemble_global_dense() @ V.ravel()
            assert np.abs(got.ravel() - dense).max() <= \
                1e-14 * np.abs(dense).max()

    def test_chunks_give_the_same_numbers(self, monkeypatch):
        """Every point is multiplied on its own, so chunks of a few points,
        the last one partial, give the one-chunk result bit for bit."""
        op, _ = build_problem(2, 2, 3, 100.0)
        v = np.random.default_rng(41).standard_normal(op.n_global)
        want = op.matvec(v)
        monkeypatch.setattr(galerkin, "_CHUNK_BYTES", 1)
        small = GalerkinOperator(*build_inputs(2, 2, 3))
        np.testing.assert_array_equal(small.matvec(v), want)
        assert small._gauss._points == 1

    def test_counts_the_tensor_terms_and_no_product(self):
        """A full product counts the c_ijk terms it applies, as the full
        plan does, and runs no K_i product."""
        op, _ = build_problem(2, 2, 3, 100.0)
        v = np.ones(op.n_global)
        for calls in (1, 2):
            op.matvec(v)
            assert op.counters == {"summations": calls * op.tensor.nnz,
                                   "products": 0}

    def test_an_edited_field_keeps_both_products_in_step(self):
        """The family derives from the field's mean and modes, as the
        product at the Gauss points does, so a field whose modes are
        edited still gives one operator: its full product matches its
        family's."""
        tensor, field, mesh = build_inputs(2, 2, 4)
        field = dataclasses.replace(field, modes=1.5 * field.modes)
        op = GalerkinOperator(tensor, field, mesh)
        V = np.random.default_rng(44).standard_normal((op.M + 1, op.n_dof))
        family = family_matvec(op, V)
        assert np.abs(op.matvec(V) - family).max() <= \
            1e-14 * np.abs(family).max()

    def test_reads_no_stiffness_matrix(self, monkeypatch):
        """The product comes from the field: it assembles no K_i, and
        zeroing K_0's data but its fixed diagonal, which the closed form
        of a fixed row reads, leaves it as it was."""
        def no_work(*args):
            raise AssertionError("a K_i assembled")

        monkeypatch.setattr(GalerkinOperator, "family", no_work)
        op, _ = build_problem(2, 2, 3, 100.0)
        v = np.random.default_rng(42).standard_normal(op.n_global)
        want = op.matvec(v)
        k0 = op._k0.data
        diagonal = k0[op._fixed_slots].copy()
        k0[:] = 0.0
        k0[op._fixed_slots] = diagonal
        np.testing.assert_array_equal(op.matvec(v), want)

    def test_refuses_a_coefficient_degree_below_2P(self):
        with pytest.raises(ValueError, match="P' >= 2P"):
            GalerkinOperator(*build_inputs(2, 2, 3, Pprime=3))

    def test_refuses_a_mesh_of_other_nodes(self):
        tensor, field, _ = build_inputs(2, 2, 3)
        with pytest.raises(ValueError, match=r"mesh's \(16, 4\) Gauss"):
            GalerkinOperator(tensor, field, build_mesh(4))

    def test_refuses_a_field_of_another_dimension(self):
        tensor, _, mesh = build_inputs(2, 2, 3)
        with pytest.raises(ValueError, match="2 modes"):
            GalerkinOperator(tensor, build_inputs(3, 1, 3)[1], mesh)

    @pytest.mark.parametrize("P,Pprime", [(1, None), (2, 3)],
                             ids=["lower degree", "P' = 3"])
    def test_refuses_a_field_on_another_basis(self, monkeypatch, P, Pprime):
        """A field of the tensor's dimension and the mesh's points, on
        another multi-index set than the tensor's i-set, is refused
        before any assembly."""
        tensor, _, mesh = build_inputs(2, 2, 3)
        field = build_inputs(2, P, 3, Pprime=Pprime)[1]
        assert field.basis != tensor.iset

        def no_work(*args):
            raise AssertionError("family assembled before the refusal")

        monkeypatch.setattr(galerkin, "assemble_stiffness_family", no_work)
        with pytest.raises(ValueError, match="not on the tensor's i-set"):
            GalerkinOperator(tensor, field, mesh)


@functools.lru_cache(maxsize=None)
def cached_dense(N, P, n):
    """The dense global matrix of :func:`cached_problem` at (N, P, n)."""
    return cached_problem(N, P, n)[0].assemble_global_dense()


@st.composite
def gauss_push_cases(draw):
    """An operator with N odd or even, N = 1 (an empty first half, n₁ =
    1) included, P = 0 (one block) to 3, and a consecutive row range and
    column range of its blocks, either possibly empty."""
    N, P = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    n = draw(st.sampled_from([2, 3]))
    op = cached_problem(N, P, n)[0]
    ends = st.integers(0, op.M + 1)
    rows, cols = (range(*sorted((draw(ends), draw(ends)))) for _ in range(2))
    return (N, P, n), rows, cols, draw(st.integers(0, 2**16))


class TestGaussPlan:
    """Products of row blocks from column blocks at the Gauss points
    against the family's product, the dense oracle and the kernel that
    forms A_q and B_q from the m_d at every call."""

    @settings(max_examples=60, deadline=None)
    @given(gauss_push_cases())
    @example(((1, 3, 3), range(0, 2), range(2, 4), 0))  # n₁ = 1
    @example(((5, 3, 2), range(21, 56), range(6, 21), 0))
    @example(((2, 0, 3), range(0, 1), range(0, 1), 0))  # one block
    @example(((2, 1, 2), range(0, 1), range(2, 3), 0))  # cancels
    @example(((3, 2, 3), range(3, 5), range(3, 5), 0))  # hulls past sets
    def test_matches_the_family_and_the_dense_oracle(self, case):
        """To 1e-14 of the largest entry of |A| |v|, the product in
        absolute values over every row block: a sub-block's product may
        cancel to rounding, at n = 2 even its one entry."""
        shape, rows, cols, seed = case
        op = cached_problem(*shape)[0]
        free, dense = op.free, cached_dense(*shape)
        v, want = free_oracle_product(op, dense, rows, cols, seed)
        x = np.zeros((op.M + 1, op.n_dof))
        x[cols] = np.abs(v)
        scale = (np.abs(dense) @ x.ravel()).max(initial=0.0)
        got = op.tmatvec(op.gauss_plan(rows, cols), v[:, free])
        family = op.tmatvec(
            family_plan(op, rows, cols, full_truncation(op.tensor)),
            v[:, free])
        assert got.shape == (len(rows), op.n_free)
        assert np.abs(got - family).max(initial=0.0) <= 1e-14 * scale
        assert np.abs(got - want[:, free]).max(initial=0.0) <= 1e-14 * scale
        # the full product is the plan of all blocks, bit for bit the
        # numbers of the m_d kernel
        V = np.random.default_rng(seed).standard_normal((op.M + 1,
                                                         op.n_dof))
        np.testing.assert_array_equal(op.matvec(V)[:, free],
                                      md_matvec(op, V))

    @pytest.mark.parametrize("N,P,n,cov", [
        (1, 2, 4, 100.0), (2, 1, 4, 100.0), (2, 2, 3, 100.0),
        (2, 2, 4, 100.0), (2, 2, 4, 25.0), (2, 2, 4, 50.0),
        (4, 4, 10, 100.0), (4, 4, 10, 150.0)])
    def test_matvec_bitwise_the_md_kernel(self, N, P, n, cov):
        """Every problem of the golden tables, and the default tables'
        shape at 100 and 150 % CoV."""
        op, b = build_problem(N, P, n, cov)
        V = np.random.default_rng(44).standard_normal((op.M + 1, op.n_dof))
        for v in (V, b.reshape(V.shape)):
            np.testing.assert_array_equal(op.matvec(v)[:, op.free],
                                          md_matvec(op, v))

    def test_push_counts_its_terms_and_no_product(self):
        """A push counts the c_ijk terms it covers, those the family's
        full-tensor plan counts, in ``summations``, and runs no K_i
        product."""
        op, _ = build_problem(3, 2, 3, 100.0)
        v = np.ones((4, op.n_free))
        for rows in (range(4, 10), range(0, 1), range(0, 0)):
            plan = op.gauss_plan(rows, range(1, 5))
            family = family_plan(op, rows, range(1, 5),
                                 full_truncation(op.tensor))
            assert plan.summations == family.summations
            before = dict(op.counters)
            op.tmatvec(plan, v)
            assert op.counters == {
                "summations": before["summations"] + family.summations,
                "products": before["products"]}

    def test_stored_factors_replace_the_md(self):
        """The product keeps A_q and B_q, 8·(n₁² + n₂²) bytes a point
        for the half-grid sizes n₁ = n₂ = 15 at N = P = 4, and no m_d:
        what building it keeps is the factors, the workspace of about
        ``_CHUNK_BYTES``, the gradient matrix, the positions and the
        full product's plan, less than the m_d's 100 doubles a point
        beyond them.  After a full product and the fills of every sweep
        kind, the operator holds no per-point array of floats, by point
        or by element and corner, but A_q, B_q and the field's mean and
        modes."""
        op, b = build_problem(4, 4, 10, 100.0)
        points = 4 * 10 * 10
        kept, _ = traced_memory(op._gauss_product)
        gauss = op._gauss
        factors = gauss._a.nbytes + gauss._b.nbytes
        assert factors == 8 * (15 ** 2 + 15 ** 2) * points
        work = sum(w.nbytes for w in gauss._work)
        assert work <= galerkin._CHUNK_BYTES
        grad = sum(a.nbytes for a in gauss._d)
        assert 0 <= kept - (factors + work + grad) < 8 * 100 * points
        arrays = [a for a in vars(gauss).values()
                  if isinstance(a, np.ndarray)]
        assert all(a.shape[0] != points or a is gauss._a or a is gauss._b
                   for a in arrays)
        op.matvec(b)
        for kind in KINDS:
            make_preconditioner(op, kind).apply(b)
        assert op._gauss is gauss
        field = op._field
        per_point = [id(a) for a in held_factors(op, np.ndarray)
                     if a.dtype == float and a.ndim
                     and (a.shape[0] == points or a.shape[-2:] == (100, 4))]
        assert sorted(per_point) == sorted(
            map(id, (gauss._a, gauss._b, field.mean, field.modes)))


def plan_sets(op, rows, cols):
    """The positions (T₁, S₁, S₂, T₂) of a plan's blocks in the half
    grids, each distinct and ascending."""
    gauss, rows, cols = op._gauss_product(), list(rows), list(cols)
    pos1, pos2 = gauss._pos1, gauss._pos2
    return [np.unique(pos[blocks]) for pos, blocks in
            ((pos1, rows), (pos1, cols), (pos2, cols), (pos2, rows))]


def contracted(s2, n2):
    """The positions S₂ of a plan's column blocks in a second half grid
    of n2 positions as the plan contracts them: one position widened by
    the next, or at the grid's end by the one before, where the grid
    has two."""
    if len(s2) == 1 and n2 > 1:
        lo = min(s2[0], n2 - 2)
        return np.arange(lo, lo + 2)
    return s2


class TestDegreeOrderedHalfGrids:
    """The half grids are ordered by total degree, so the half-grid
    positions of a level, of the levels above it and of those below it
    are ranges, and a sweep's pushes multiply slices of the stored A_q
    and B_q."""

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("P", range(5))
    def test_levels_are_ranges_of_both_halves(self, N, P):
        jk = multi_index_set(N, P).as_array()
        degrees = jk.sum(axis=1)
        h = N // 2
        for half in (jk[:, :h], jk[:, h:]):
            grid, pos = _half_grid(half, P)
            np.testing.assert_array_equal(grid[pos], half)
            assert np.all(np.diff(grid.sum(axis=1)) >= 0)
            for level in range(P + 1):
                for blocks in (degrees == level, degrees > level,
                               degrees < level):
                    got = np.unique(pos[blocks])
                    np.testing.assert_array_equal(
                        got, np.arange(got[0], got[-1] + 1) if len(got)
                        else got)

    @pytest.mark.parametrize("kind", ["hs", "ahs", "ahgs", "gs"])
    def test_sweep_plans_slice_the_stored_factors(self, kind):
        """Every plan between levels of an untruncated sweep at N = P = 4
        is at the Gauss points, 8 of them, and has hulls equal to its
        blocks' positions, S₂ widened where it is one position wide
        (:func:`contracted`); its sub-blocks of A_q and B_q are views of
        the stored factors."""
        op, b = build_problem(4, 4, 3, 100.0)
        pre = make_preconditioner(op, kind)
        pre.apply(b)
        gauss = op._gauss
        plans = [(rows, cols, plan) for rows, cols, plan, _
                 in sweep_steps(pre)[1]
                 if isinstance(plan, galerkin._GaussPlan)]
        assert len(plans) == 8
        for rows, cols, plan in plans:
            sets = plan_sets(op, rows, cols)
            sets[2] = contracted(sets[2], 15)
            for hull, want in zip(plan.hulls, sets):
                np.testing.assert_array_equal(
                    np.arange(hull.start, hull.stop), want)
            A, B = gauss.factors(plan, slice(0, gauss._points))
            assert np.shares_memory(A, gauss._a)
            assert np.shares_memory(B, gauss._b)

    @pytest.mark.parametrize("N,P,n", [(1, 3, 3), (2, 1, 2), (3, 2, 3),
                                       (4, 2, 2), (2, 0, 3)])
    def test_one_wide_column_hull_is_widened(self, N, P, n):
        """A push from one column block has a one-wide S₂, which the plan
        widens by a zero position where the second half grid has one, so
        the B product never contracts a width of 1: for every column
        block, to all blocks and to the blocks after it, S₂ is at least
        two wide (one at P = 0, whose grid has one position) and the
        product still matches the dense oracle to 1e-14 of |A| |v|."""
        op = cached_problem(N, P, n)[0]
        n2 = math.comb(N - N // 2 + P, P)
        dense = cached_dense(N, P, n)
        for k in range(op.M + 1):
            for rows in (range(op.M + 1), range(k + 1, op.M + 1)):
                plan = op.gauss_plan(rows, [k])
                s2 = plan.hulls[2]
                assert s2.stop - s2.start == min(2, n2)
                assert 0 <= s2.start and s2.stop <= n2
                v, want = free_oracle_product(op, dense, rows, [k], k)
                x = np.zeros((op.M + 1, op.n_dof))
                x[k] = np.abs(v)
                scale = (np.abs(dense) @ x.ravel()).max(initial=0.0)
                got = op.tmatvec(plan, v[:, op.free])
                assert np.abs(got - want[:, op.free]).max(initial=0.0) \
                    <= 1e-14 * scale

    def test_an_unaligned_range_pads_its_hulls(self):
        """Blocks 3 and 4 at N = 3, P = 2, (0, 0, 1) and (2, 0, 0), sit
        at positions 0 and 2 of either half grid: their hulls, of three
        positions each, hold one that no block of theirs takes, whose
        grid entries stay zero (the explicit example of
        ``TestGaussPlan``)."""
        op = cached_problem(3, 2, 3)[0]
        blocks = range(3, 5)
        plan = op.gauss_plan(blocks, blocks)
        for hull, want in zip(plan.hulls, plan_sets(op, blocks, blocks)):
            assert want.tolist() == [0, 2]
            assert (hull.start, hull.stop) == (0, 3)


@st.composite
def run_cases(draw):
    """A small operator and a run of its consecutive blocks."""
    N, P, n = (draw(st.integers(1, 4)), draw(st.integers(0, 3)),
               draw(st.integers(1, 5)))
    op = cached_problem(N, P, n)[0]
    lo = draw(st.integers(0, op.M))
    return (N, P, n), range(lo, draw(st.integers(lo + 1, op.M + 1)))


def recorded_assemblies(monkeypatch) -> list:
    """The matrix counts of every assembly of K_i that an operator runs
    from now on: K_0's (one matrix) and those of :meth:`family`."""
    counts = []
    assemble, family = (galerkin.assemble_stiffness_family,
                        GalerkinOperator.family)

    def recorded(mesh, coeffs):
        counts.append(len(coeffs))
        return assemble(mesh, coeffs)

    def recorded_family(op, indices, purpose):
        data = family(op, indices, purpose)
        counts.append(len(data))
        return data

    monkeypatch.setattr(galerkin, "assemble_stiffness_family", recorded)
    monkeypatch.setattr(GalerkinOperator, "family", recorded_family)
    return counts


class TestPointFills:
    """Band fills from the field at the Gauss points against the fills
    from the stiffness family's coupling, and the paths that never read
    the family."""

    @settings(max_examples=60, deadline=None)
    @given(run_cases())
    @example(((1, 0, 1), range(0, 1)))  # no free node
    @example(((4, 3, 3), range(0, 1)))
    @example(((3, 1, 2), range(0, 4)))  # entries that cancel
    def test_point_fill_matches_the_family_coupling(self, case):
        """To 1e-13 of the band's largest entry; the band of block 0
        alone, K_0's, bit for bit."""
        shape, blocks = case
        op = cached_problem(*shape)[0]
        got, want = (op._fill_band(blocks, len(blocks)),
                     family_band(op, blocks))
        assert got.shape == want.shape
        scale = np.abs(want).max(initial=0.0)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale
        if blocks == range(1):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("N,P,n", [(1, 3, 3), (2, 1, 2), (2, 3, 3),
                                       (3, 2, 3), (3, 3, 2), (4, 2, 2),
                                       (4, 4, 2)])
    def test_pair_values_match_the_md_oracle(self, N, P, n):
        """The pair fields of every block and the blocks' data that the
        fills take, the first pair's K_0's own, from the stored A_q and
        B_q, against the sequential a_0 Π_d m_d fields
        (:func:`md_pair_fields`) and their data: bit for bit at N ≤ 2,
        where both multiply in one order, and within 1e-15 of the largest
        entry at N = 3 and 4, where A_q and B_q group the m_d by halves
        first."""
        op = cached_problem(N, P, n)[0]
        j, k = (a.ravel() for a in np.indices((op.M + 1, op.M + 1)))
        fields = md_pair_fields(op, j, k)
        want = stiffness_data(op._mesh, fields.reshape(len(j), -1, 4))
        got = [op._gauss_product().pair_fields(j, k), np.concatenate(
            [data for _, data in op._pair_values(j, k)])]
        # the first pair, (0, 0), is K_0's data as the operator holds it
        np.testing.assert_array_equal(got[1][0], op.k_mats[0].data)
        got[1], want = got[1][1:], want[1:]
        for got, want in zip(got, (fields, want)):
            assert got.shape == want.shape
            if N <= 2:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= \
                    1e-15 * np.abs(want).max()

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(0, 3), n=st.integers(1, 4),
           which=st.integers(0, 2**16), seed=st.integers(0, 2**16))
    @example(N=3, P=3, n=4, which=2**16 - 1, seed=0)
    def test_pair_plans_match_the_family_and_the_blocks(self, N, P, n,
                                                        which, seed):
        """The pull into a block q of a level from the level's blocks
        before it, and the push from q to them, through the level's pair
        blocks (``op.pair_plans``), against single-column family plans
        and against Σ_k ``op.block(j, k)`` v_(k) on the free nodes, to
        1e-15 of the largest entry of the level's Σ_k |K^{(jk)}| |v_(k)|
        (one off-diagonal block may cancel down to rounding).  Each plan
        counts its c_ijk terms and runs no K_i product.  A level of one
        block has no pair plan; ``which`` picks the level and q."""
        op = cached_problem(N, P, n)[0]
        runs = [level for level in levels(op) if len(level) > 1]
        assert all(op.pair_plans(level) == [] for level in levels(op)
                   if len(level) == 1)
        if not runs:
            return
        level = runs[which % len(runs)]
        q = level.start + 1 + which // len(runs) % (len(level) - 1)
        lower, unit = range(level.start, q), range(q, q + 1)
        pull, push = op.pair_plans(level)[q - level.start - 1]
        trunc, free, t = full_truncation(op.tensor), free_nodes(op), op.tensor
        family = retained_family(op, trunc)
        v = np.zeros((op.M + 1, op.n_dof))
        v[:, free] = np.random.default_rng(seed).standard_normal(
            (op.M + 1, len(free)))

        def single(rows, k):
            plan = op.plan(rows, [k], trunc, family)
            return op.tmatvec(plan, v[[k]][:, free])

        def blocks(rows, cols, part=lambda x: x):
            w = np.zeros((len(rows), op.n_dof))
            for r, j in enumerate(rows):
                for k in cols:
                    if (K := op.block(j, k)) is not None:
                        w[r] += part(K) @ part(v[k])
            return w[:, free]

        scale = blocks(level, level, abs).max(initial=0.0)
        for plan, rows, cols, want in (
                (pull, unit, lower, sum(single(unit, k) for k in lower)),
                (push, lower, unit, single(lower, q))):
            before = dict(op.counters)
            got = op.tmatvec(plan, v[cols][:, free])
            assert op.counters["products"] == before["products"]
            assert op.counters["summations"] - before["summations"] == \
                np.count_nonzero(np.isin(t.j, rows) & np.isin(t.k, cols))
            for oracle in (want, blocks(rows, cols)):
                assert got.shape == oracle.shape
                assert np.abs(got - oracle).max(initial=0.0) <= 1e-15 * scale

    def test_point_paths_assemble_only_k0(self, monkeypatch):
        """build_problem, and mb, kron, gs, hs, ahs and ahgs made and
        applied, at N = P = 4, n = 12 assemble K_0 alone, one field, and
        what they keep is less than the family's bytes.  A truncated
        ahgs at lt = 2 then assembles its own 15 K_i."""
        counts, held = recorded_assemblies(monkeypatch), []

        def run():
            op, b = build_problem(4, 4, 12, 100.0)
            for kind in ("mb", "kron", "gs", "hs", "ahs", "ahgs"):
                make_preconditioner(op, kind).apply(b)
            op.matvec(b)
            held.append((op, b))
            return held

        kept, _ = traced_memory(run)
        assert counts == [1]
        assert kept < 8 * 495 * dirichlet_nnz(12)
        op, b = held.pop()
        make_preconditioner(op, "ahgs", standard_truncation(4, 2)).apply(b)
        assert counts == [1, 15]

    def test_solves_without_memory_for_the_family(self, monkeypatch):
        """With physical memory one byte short of the family and its
        coefficient values at N = P = 4, n = 4, kron, ahgs and gs build
        and solve, and so does ahgs at lt = 2 on its 15 K_i.  With memory
        one byte short of gs's pair blocks with its band factors, gs is
        refused when it is made, before any fill, and the refusal names
        its pair blocks inside its levels."""
        need = 8 * 495 * (dirichlet_nnz(4) + 64)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)
        counts = recorded_assemblies(monkeypatch)
        op, b = build_problem(4, 4, 4, 100.0)
        for kind, trunc in (("kron", None), ("ahgs", None),
                            ("ahgs", standard_truncation(4, 2)),
                            ("gs", None)):
            _, rep = flexible_cg(op.matvec, make_preconditioner(
                op, kind, trunc).apply, b)
            assert rep.converged
        assert counts == [1, 15]
        # the 836 pairs of the levels of 4, 10, 20 and 35 blocks on the 9
        # free rows' span of slots, with the pattern of the 3 + 9 + 19 +
        # 34 pairs that the longest pull of each level reads; the bands
        # of the 70 blocks, 9 free rows of 4 sub-diagonals each
        nnz = len(op._free_indices)
        pattern = 4 * (65 * (nnz + op.n_free) + 4)
        pairs = 8 * 836 * nnz + pattern
        held = pairs + 8 * 70 * 9 * 5
        assert held < need
        monkeypatch.setattr(linalg, "physical_memory", lambda: held - 1)

        def no_work(*args):
            raise AssertionError("pair blocks filled before the refusal")

        monkeypatch.setattr(op, "_pair_values", no_work)
        with pytest.raises(MemoryError) as exc:
            make_preconditioner(op, "gs")
        assert str(exc.value).startswith(
            f"band factor of 9 rows and 4 sub-diagonals and the 69 other "
            f"band factors kept with it and gs's pair blocks inside its "
            f"levels, {pairs} bytes need {held} bytes")
        monkeypatch.setattr(linalg, "physical_memory", lambda: held)
        make_preconditioner(op, "gs")


class TestAssembledBlocks:
    def test_mean_diagonal_block_is_mean_matrix(self):
        op, _, _, _ = build_operator(2, 2, 3)
        K = op.block(0, 0)
        np.testing.assert_array_equal(K.data, op.k_mats[0].data)

    @pytest.mark.parametrize("N,P,n", SMALL)
    def test_diag_blocks_match_dense_oracle(self, N, P, n):
        op, _, _, _ = build_operator(N, P, n)
        A = op.assemble_global_dense()
        nd, free = op.n_dof, free_nodes(op)
        for j in range(op.M + 1):
            K, F = op.block(j, j), op.assemble_diag_block(range(j, j + 1))
            want = A[j * nd:(j + 1) * nd, j * nd:(j + 1) * nd]
            np.testing.assert_allclose(K.toarray(), want, atol=1e-13)
            # factorization solves the block's free rows
            rhs = np.linspace(1, 2, len(free))
            np.testing.assert_allclose(K[free][:, free] @ F.solve(rhs), rhs,
                                       atol=1e-10)

    @pytest.mark.parametrize("N,P,n", SMALL)
    def test_level_blocks_match_dense_oracle(self, N, P, n):
        op, _, _, _ = build_operator(N, P, n)
        A = op.assemble_global_dense()
        nd = op.n_dof
        for blk in levels(op)[1:]:
            F = op.assemble_level_block(blk)
            lo, hi = blk[0] * nd, (blk[-1] + 1) * nd
            want = A[lo:hi, lo:hi]
            order = compact_rows(op, len(blk))
            ab = op._fill_band(blk, len(blk))
            np.testing.assert_allclose(band_lower(ab),
                                       np.tril(want[np.ix_(order, order)]),
                                       atol=1e-13)
            rows = free_rows(op, len(blk))
            rhs = np.linspace(-1, 1, len(rows))
            np.testing.assert_allclose(want[np.ix_(rows, rows)]
                                       @ F.solve(rhs), rhs, atol=1e-9)

    @pytest.mark.parametrize("N,P,n", SMALL + [(1, 2, 2), (4, 4, 10)])
    def test_diag_band_fill_matches_block_oracle(self, N, P, n):
        """Every diagonal block's band, filled as a run of one block,
        against the band of the free rows of the block assembled by
        ``block(j, j)``.  Not bitwise: the two sum the c_ijj K_i in
        different orders."""
        op, _, _, _ = build_operator(N, P, n)
        free = free_nodes(op)
        for j in range(op.M + 1):
            assert_same_band_values(op._fill_band(range(j, j + 1), 1),
                                    band_fill(op.block(j, j)[free][:, free]))

    def test_blocks_symmetric(self):
        op, _, _, _ = build_operator(2, 2, 3)
        for j in range(op.M + 1):
            D = op.block(j, j).toarray()
            assert np.array_equal(D, D.T)


def bmat_oracle(op, blocks):
    """The matrix of consecutive blocks, a level's D_ℓ say, through
    sp.bmat over their block() grid (independent route, in block-major
    order)."""
    return sp.bmat([[op.block(j, k) for k in blocks] for j in blocks],
                   format="csr")


def free_nodes(op):
    """The nodes a block factor's band holds: the interior of the
    (n + 1) × (n + 1) node grid, whose node iy·(n + 1) + ix is off the
    boundary when 0 < ix, iy < n."""
    inner = np.arange(1, math.isqrt(op.n_dof) - 1)
    return (inner[:, None] * math.isqrt(op.n_dof) + inner).ravel()


def free_rows(op, s):
    """The block-major rows p·n_dof + free[r] of the free nodes of a run
    of s blocks: the rows its factor solves, in the order it takes
    them."""
    return (np.arange(s)[:, None] * op.n_dof
            + free_nodes(op)).ravel().astype(np.int64)


def compact_rows(op, s):
    """For each row (free node r)·s + block p of the free nodes'
    node-interleaved order of a run of s blocks, its block-major row
    p·n_dof + free[r]."""
    return np.array([p * op.n_dof + node for node in free_nodes(op)
                     for p in range(s)], dtype=np.int64)


def oracle_band(op, blocks):
    """The free rows of the oracle matrix of the blocks in
    node-interleaved order, in lower band storage."""
    rows = compact_rows(op, len(blocks))
    return band_fill(bmat_oracle(op, blocks)[rows][:, rows])


def band_lower(ab):
    """The dense lower triangle held in lower band storage ``ab``."""
    n = ab.shape[1]
    L = np.zeros((n, n))
    for d in range(ab.shape[0]):
        L[np.arange(d, n), np.arange(n - d)] = ab[d, :n - d]
    return L


def assert_same_band_values(got, want):
    """Two unfactorized bands: the same zero pattern, values within
    1e-15 of the largest.  Bands of no rows (a mesh without free nodes)
    are equal whatever their width."""
    if got.size == want.size == 0:
        return
    assert got.shape == want.shape
    assert np.array_equal(got == 0, want == 0)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def assert_band_matches_oracle(op, blocks):
    """The unfactorized band of the blocks against the oracle's."""
    assert_same_band_values(op._fill_band(blocks, len(blocks)),
                            oracle_band(op, blocks))


def bitwise_symmetric(A):
    T = A.T.tocsr()
    T.sort_indices()
    return (np.array_equal(T.indptr, A.indptr)
            and np.array_equal(T.indices, A.indices)
            and np.array_equal(T.data, A.data))


class TestFactorizationContract:
    """Diagonal and level blocks: the level band fill against the sp.bmat
    oracle, the bitwise symmetry that makes a factor of the lower
    triangle a factor of the block, and the Factorization residual
    contract."""

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(0, 3), n=st.integers(1, 4),
           cov=st.floats(0.1, 1.5), seed=st.integers(0, 2**16))
    def test_blocks_assemble_and_solve(self, N, P, n, cov, seed):
        op, _, _, _ = build_operator(N, P, n, cov=cov)
        rng = np.random.default_rng(seed)
        cases = [(bmat_oracle(op, blocks), op.assemble_level_block(blocks),
                  len(blocks)) for blocks in levels(op)]
        for blocks in levels(op):
            assert_band_matches_oracle(op, blocks)
        cases += [(op.block(j, j), op.assemble_diag_block(range(j, j + 1)),
                   1) for j in range(op.M + 1)]
        for D, F, s in cases:
            assert bitwise_symmetric(D)
            rows = free_rows(op, s)
            b = rng.standard_normal(len(rows))
            x = F.solve(b)
            assert np.linalg.norm(b - D[rows][:, rows] @ x) <= \
                1e-12 * np.linalg.norm(b)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(0, 3), n=st.integers(1, 4),
           cov=st.floats(0.1, 1.5), seed=st.integers(0, 2**16))
    def test_band_factors_of_blocks(self, N, P, n, cov, seed):
        """Pivots against a dense Cholesky of the same ordering (the free
        rows, node-interleaved for a level of more than one block), the
        ``rows`` that map a level's band rows to its block-major free
        rows, and the residual for several right-hand sides at once."""
        op, _, _, _ = build_operator(N, P, n, cov=cov)
        rng = np.random.default_rng(seed)
        cases = [(op.block(j, j), op.assemble_diag_block(range(j, j + 1)),
                  1) for j in range(op.M + 1)]
        for blocks in levels(op):
            cases.append((bmat_oracle(op, blocks),
                          op.assemble_level_block(blocks), len(blocks)))
        for A, F, s in cases:
            rows, order = free_rows(op, s), compact_rows(op, s)
            assert F.kind == "band" and F.n == len(rows)
            if F.rows is not None:  # a level's factor
                np.testing.assert_array_equal(rows[F.rows], order)
            dense = A.toarray()[np.ix_(order, order)]
            L = np.linalg.cholesky(dense)
            np.testing.assert_allclose(F._state[0][0] ** 2, np.diag(L) ** 2,
                                       rtol=1e-12)
            B = rng.standard_normal((len(rows), 3))
            X = F.solve(B)
            assert np.all(np.linalg.norm(B - A[rows][:, rows] @ X, axis=0)
                          <= 1e-12 * np.linalg.norm(B, axis=0))

    def test_level_band_exact_from_k0_pattern(self):
        op, _, _, _ = build_operator(2, 3, 4)
        n = 4
        assert op.n_free == (n - 1) ** 2
        for blocks in levels(op):
            s = len(blocks)
            ab = op.assemble_level_block(blocks)._state[0]
            # a free node of the (n − 1)² interior couples to free rows up
            # to n below it
            assert op.run_band(s) == s * n + s - 1
            assert ab.shape == (op.run_band(s) + 1, s * op.n_free)

    def test_level_band_fill_matches_permuted_oracle(self):
        """The band filled from the block pairs' values against the free
        rows of the sp.bmat oracle in node-interleaved order.  Not
        bitwise: the values may differ in the last bit."""
        op, _, _, _ = build_operator(3, 3, 4)
        for blocks in levels(op):
            assert_band_matches_oracle(op, blocks)

    @pytest.mark.parametrize("blocks", [range(5, 8), range(2, 6),
                                        range(9, 10)],
                             ids=["in-level-2", "across-levels", "one"])
    def test_run_that_is_not_a_level(self, blocks):
        """The builder takes any run of consecutive blocks: part of level
        2 (blocks 4 to 9 at N = 3), a run across levels 1 and 2, and one
        block; its band and its solve against the sp.bmat oracle."""
        op, _, _, _ = build_operator(3, 3, 4)
        assert levels(op)[2] == range(4, 10)
        assert_band_matches_oracle(op, blocks)
        D, F = bmat_oracle(op, blocks), op.assemble_level_block(blocks)
        assert F.n == len(blocks) * op.n_free
        rows = free_rows(op, len(blocks))
        b = np.random.default_rng(12).standard_normal(F.n)
        assert np.linalg.norm(b - D[rows][:, rows] @ F.solve(b)) <= \
            1e-12 * np.linalg.norm(b)

    def test_oversized_level_band_refused_before_assembly(self,
                                                          monkeypatch):
        op, _, _, _ = build_operator(2, 3, 4)
        # level 3 at N = 2: s = 4 blocks of (n − 1)² free rows, band
        # 4·n + 3 at n = 4
        s, f, band = 4, 9, 4 * 4 + 3
        need = 8 * s * f * (band + 1)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)

        def no_fill(blocks, s):
            raise AssertionError("level band allocated")

        monkeypatch.setattr(op, "_fill_band", no_fill)
        level = levels(op)[3]
        with pytest.raises(MemoryError) as exc:
            op.assemble_level_block(level)
        # the operator names no preconditioner kind; the sweep's own
        # check adds that hint
        assert str(exc.value).endswith(f"needs {need} bytes "
                                       f"({need / 2**30:.2f} GiB), more "
                                       f"than the {need - 1} bytes "
                                       f"({(need - 1) / 2**30:.2f} GiB) of "
                                       f"physical memory")
        # with the band fitting, the patched fill is reached: the refusal
        # above came before it
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="band allocated"):
            op.assemble_level_block(level)
        monkeypatch.undo()
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        assert op.assemble_level_block(level)._state[0].nbytes == need

    def test_level_factor_keeps_only_the_band(self):
        """Memory regression guard: the bytes a level factorization keeps
        are its band storage, within 5 %, so a retained second copy of a
        factor (or of D_ℓ) fails; and the band is filled in place, so
        the peak passes it by no more than the fill's quarter chunk of
        pair values and its two gathers, one chunk in all.  The
        Gauss-point product whose factors the fill reads is built first:
        the guard is about the factor."""
        op, _ = build_problem(N=4, P=4, n=10, cov_pct=100.0)
        op._gauss_product()
        level = range(35, 70)
        kept, peak = traced_memory(lambda: op.assemble_level_block(level))
        band = op.assemble_level_block(level)._state[0].nbytes
        # 35 blocks of 81 free nodes, band 35·n + 34
        assert band == 8 * 35 * 81 * (35 * 10 + 34 + 1)
        assert abs(kept - band) <= 0.05 * band
        assert peak <= band + galerkin._CHUNK_BYTES

    @pytest.mark.parametrize("builder,kind,calls", [
        ("assemble_level_block", "hs", [range(3, 6), range(1, 3),
                                        range(0, 1)]),
        ("assemble_diag_block", "gs", [range(0, 1), range(1, 3),
                                       range(3, 6)]),
        ("assemble_diag_block", "ahgs", [range(0, 1), range(1, 3),
                                         range(3, 6)]),
        ("assemble_diag_block", "ahs", [range(3, 6), range(1, 3),
                                        range(0, 1)])],
        ids=["level", "diag", "ahgs", "ahs"])
    def test_fresh_factor_built_once_per_sweep(
            self, builder, kind, calls, monkeypatch):
        """The operator builds a new factorization on every call and
        keeps none; over two applies a sweep calls the builder once per
        level, in sweep order, with the level's blocks, level 0 included:
        gs too, which solves each block on its slice of the level's
        factor."""
        op, b, _, _ = build_operator(2, 2, 3)
        build = getattr(op, builder)
        F, G = build(calls[-1]), build(calls[-1])
        assert isinstance(F, Factorization) and F is not G
        assert np.array_equal(F._state[0], G._state[0])
        # the band spans the free nodes only
        assert F._state[0].shape[1] == len(calls[-1]) * op.n_free
        assert held_factors(op) == []
        seen = []

        def counted(arg):
            seen.append(arg)
            return build(arg)

        monkeypatch.setattr(op, builder, counted)
        pre = make_preconditioner(op, kind)
        pre.apply(b)
        pre.apply(b)
        assert seen == calls

    @pytest.mark.parametrize("N,P,n", SMALL + [(4, 4, 10)])
    def test_diag_blocks_are_one_block_diagonal_factor(self, N, P, n):
        """The factor of consecutive diagonal blocks, filled in one
        pass, is the blocks' own factors side by side, bitwise, each that
        of its block's run fill alone, in block-major order of their free
        rows and needing no permutation, with zeros in every band entry
        that would couple a block to the next, and it solves as they do,
        bitwise."""
        op, _, _, _ = build_operator(N, P, n)
        f, rng = op.n_free, np.random.default_rng(4)
        for blocks in levels(op) + [range(op.M + 1), range(1, op.M + 1)]:
            F = op.assemble_diag_block(blocks)
            alone = [op.assemble_diag_block(range(j, j + 1)) for j in blocks]
            for j, G in zip(blocks, alone):
                fill = linalg.factorize_band(op._fill_band(range(j, j + 1),
                                                            1))
                np.testing.assert_array_equal(G._state[0], fill._state[0])
            assert F.n == len(blocks) * f and F.rows is None
            ab = F._state[0]
            np.testing.assert_array_equal(
                ab, np.hstack([G._state[0] for G in alone]))
            # entry (d, c) is row c + d, column c
            d, c = np.indices(ab.shape)
            assert not ab[c % f + d >= f].any()
            R = rng.standard_normal((len(blocks), f))
            np.testing.assert_array_equal(
                F.solve(R.ravel()),
                np.concatenate([G.solve(r) for G, r in zip(alone, R)]))

    @pytest.mark.parametrize("n", [5, 10, 20, 32])
    def test_block_slices_are_the_blocks_own_factors(self, n):
        """gs solves a block on its slice of the level's block-diagonal
        factor (``diagonal_block``): each slice is a view of the level's
        band and, bit for bit, the factor of the block alone,
        ``assemble_diag_block(range(j, j + 1))``, and solves as it
        does."""
        op = build_problem(2, 2, n, 100.0)[0]
        f, rng = op.n_free, np.random.default_rng(7)
        level = range(3, 6)
        F = op.assemble_diag_block(level)
        for p, j in enumerate(level):
            S = F.diagonal_block(slice(p * f, (p + 1) * f))
            G = op.assemble_diag_block(range(j, j + 1))
            assert S.n == f and S.rows is None
            assert np.shares_memory(S._state[0], F._state[0])
            np.testing.assert_array_equal(S._state[0], G._state[0])
            r = rng.standard_normal(f)
            np.testing.assert_array_equal(S.solve(r), G.solve(r))

    def test_block_slice_needs_a_band_factor_in_system_order(self):
        """A level factor holds its rows node-interleaved and a dense
        factor no band: neither is sliced."""
        op = build_problem(2, 1, 3, 100.0)[0]
        for F in (op.assemble_level_block(range(1, 3)),
                  factorize(np.eye(2))):
            with pytest.raises(ValueError, match="system's order"):
                F.diagonal_block(slice(0, 1))


class TestCompactFactors:
    """Block factors span the free nodes: both diagonal-run and
    level-run factors must solve the free rows of their runs' matrices,
    assembled densely from ``block(j, k)``.  A fixed node's row is
    diagonal there, with the closed form (G_0)_jj · K_0[b,b] that
    ``fixed_divisor`` gives."""

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(0, 3), n=st.integers(1, 5),
           cov=st.floats(0.1, 1.5), seed=st.integers(0, 2**16))
    @example(N=2, P=2, n=1, cov=1.0, seed=0)  # none free
    @example(N=2, P=2, n=2, cov=1.0, seed=0)  # one free
    @example(N=2, P=0, n=2, cov=1.0, seed=0)  # one free, coupled to none
    def test_run_factors_solve_against_dense_blocks(self, N, P, n, cov,
                                                    seed):
        op = build_operator(N, P, n, cov=cov)[0]
        nd, rng = op.n_dof, np.random.default_rng(seed)
        free = free_nodes(op)
        fixed = np.setdiff1d(np.arange(nd), free)
        assert op.n_free == len(free) == (n - 1) ** 2
        closed = (np.diag(g_matrix(0, op.tensor))[:, None]
                  * op.k_mats[0].diagonal()[fixed])
        runs = [(blocks, op.assemble_level_block(blocks),
                 bmat_oracle(op, blocks)) for blocks in levels(op)]
        for blocks in levels(op) + [range(op.M + 1)]:
            runs.append((blocks, op.assemble_diag_block(blocks),
                         sp.block_diag([op.block(j, j) for j in blocks],
                                       format="csr")))
        for blocks, F, D in runs:
            rows = free_rows(op, len(blocks))
            b = rng.standard_normal(len(rows))
            x = F.solve(b)
            assert np.linalg.norm(b - D[rows][:, rows] @ x) <= \
                1e-12 * np.linalg.norm(b)
            at = (np.arange(len(blocks))[:, None] * nd + fixed).ravel()
            np.testing.assert_array_equal(
                D.diagonal()[at], closed[blocks.start:blocks.stop].ravel())
            assert (D[at] != 0).sum() == len(at)  # the diagonal alone
            np.testing.assert_array_equal(op.fixed_divisor(blocks),
                                          closed[blocks.start:blocks.stop])


class TestGlobalDense:
    def test_cap_refusal(self):
        op, _, _, _ = build_operator(2, 2, 3)
        with pytest.raises(ValueError):
            op.assemble_global_dense(cap=10)

    def test_symmetric_and_spd(self):
        for cov in (1.0, 1.5):
            op, _, _, _ = build_operator(2, 2, 3, cov=cov)
            A = op.assemble_global_dense()
            np.testing.assert_allclose(A, A.T, atol=1e-13)
            factorize(A)  # SPD or raises

    def test_tiny_instance_dimension(self):
        op, _, _, _ = build_operator(1, 1, 1)
        assert op.n_global == 2 * 4
        A = op.assemble_global_dense()
        assert A.shape == (8, 8)

    def test_every_block_pair_is_coupled(self):
        # any (j,k) admits i = |j-k| per dimension within degree 2P
        op, _, _, _ = build_operator(2, 2, 2)
        for j in range(op.M + 1):
            for k in range(op.M + 1):
                assert op.block(j, k) is not None


def fallback_galerkin(monkeypatch):
    """A fresh copy of the galerkin module imported without scipy's
    private CSR kernels, so that it runs on its fallback for them; the
    imported ``sgfem.galerkin`` is left as it is."""
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", None)
    spec = importlib.util.spec_from_file_location("galerkin_fallback",
                                                  galerkin.__file__)
    module = importlib.util.module_from_spec(spec)
    # dataclasses read their module's namespace while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestScipyFallback:
    def test_fallback_matches_the_raw_kernels(self, monkeypatch):
        """Without ``scipy.sparse._sparsetools`` the operator's products,
        band fills and every kind's applies run on the public CSR
        product and agree with the raw kernels' to 1e-14."""
        fb = fallback_galerkin(monkeypatch)
        assert fb.csr_matvec is not galerkin.csr_matvec
        assert fb.csr_matvecs is not galerkin.csr_matvecs
        inputs = build_inputs(3, 3, 4)
        op = GalerkinOperator(*inputs)
        op_fb = fb.GalerkinOperator(*inputs)

        def assert_close(got, want):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

        v = np.random.default_rng(40).standard_normal(op.n_global)
        assert_close(family_matvec(op_fb, v), family_matvec(op, v))
        for blocks in levels(op) + [range(op.M + 1)]:
            s = len(blocks)
            assert_close(op_fb._fill_band(blocks, s), op._fill_band(blocks, s))
        for kind in KINDS:
            for trunc in (None, standard_truncation(3, 2)):
                pre_fb = make_preconditioner(op_fb, kind, trunc)
                pre = make_preconditioner(op, kind, trunc)
                for _ in range(2):
                    assert_close(pre_fb.apply(v), pre.apply(v))
        assert op_fb.counters == op.counters

    def test_fallback_gauss_point_product(self, monkeypatch):
        """The Gauss-point product's gather and scatter run on the public
        CSR and CSC products as well, to the raw kernels' numbers within
        1e-14."""
        fb = fallback_galerkin(monkeypatch)
        assert fb.csc_matvecs is not galerkin.csc_matvecs
        inputs = build_inputs(3, 2, 4)
        v = np.random.default_rng(43).standard_normal(
            (len(inputs[0].jkset), 25))
        want = GalerkinOperator(*inputs).matvec(v)
        got = fb.GalerkinOperator(*inputs).matvec(v)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
