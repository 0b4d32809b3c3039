"""Preconditioner oracles: dense splitting/Kronecker/stage compositions,
pull-form references of the sweeps, coincidence identities, linearity and
symmetry probes."""

import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest
from conftest import (
    band_fill,
    binomial_levels,
    build_operator,
    family_plan,
    g_matrix,
    held_factors,
    levels,
    probe_matrix,
    sweep_steps,
    traced_memory,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgfem.galerkin as galerkin
import sgfem.linalg as linalg
import sgfem.preconditioners as preconditioners
from sgfem import build_problem
from sgfem.galerkin import (
    GalerkinOperator,
    _GaussPlan,
    _PairPlan,
    _Plan,
    full_truncation,
    standard_truncation,
)
from sgfem.fem import dirichlet_nnz
from sgfem.krylov import flexible_cg, pcg
from sgfem.linalg import FactorizationError
from sgfem.preconditioners import KINDS, make_preconditioner

SMALL = [(1, 1, 2), (2, 1, 3), (2, 2, 3)]


def truncated_dense_block(op, j, k, indices, dense):
    """Σ_{i in set} c_ijk K_i as a dense matrix (independent route), from
    the K_i's dense matrices ``dense``."""
    t = op.tensor
    keep = (t.j == j) & (t.k == k) & np.isin(t.i, indices)
    out = np.zeros((op.n_dof, op.n_dof))
    for i, v in zip(t.i[keep], t.val[keep]):
        out += v * dense[i]
    return out


def dense_split_parts(op, trunc):
    """(L, D, U) dense: strictly-lower/upper truncated parts, full diag."""
    nd, m1 = op.n_dof, op.M + 1
    dense = [K.toarray() for K in op.k_mats]
    L = np.zeros((m1 * nd, m1 * nd))
    U = np.zeros_like(L)
    D = np.zeros_like(L)
    for j in range(m1):
        for k in range(m1):
            if j == k:
                blk = op.block(j, j).toarray()
                tgt = D
            else:
                blk = truncated_dense_block(op, j, k, trunc.indices, dense)
                tgt = L if j > k else U
            tgt[j * nd:(j + 1) * nd, k * nd:(k + 1) * nd] = blk
    return L, D, U


def free_blocks(op, r):
    """The free-node blocks of a global vector, shape (M+1, n_free)."""
    return r.reshape(op.M + 1, op.n_dof)[:, op.free]


def with_fixed_rows(op, r, V):
    """The global result of a sweep whose free-node blocks are ``V``:
    each fixed row b of block j solved alone, r_b / ((G_0)_jj ·
    K_0[b,b]), from the dense G_0 and K_0."""
    R = r.reshape(op.M + 1, op.n_dof)
    out = np.empty_like(R)
    out[:, op.free] = V
    out[:, op.fixed] = R[:, op.fixed] / (
        np.diag(g_matrix(0, op.tensor))[:, None]
        * op.k_mats[0].diagonal()[op.fixed])
    return out.ravel()


def pull_form_gs(op, trunc, r):
    """Reference symmetric block Gauss-Seidel in pull form: each row
    gathers its own truncated products from the blocks already solved."""
    solv = [op.assemble_diag_block(range(j, j + 1)) for j in range(op.M + 1)]
    R = free_blocks(op, r)
    rhs_fwd = R.copy()
    Y = np.zeros_like(R)
    for j in range(op.M + 1):
        if j > 0:
            rhs_fwd[j] -= op.tmatvec(family_plan(op, [j], range(j), trunc),
                                     Y[:j])[0]
        Y[j] = solv[j].solve(rhs_fwd[j])
    V = Y.copy()
    for j in range(op.M - 1, -1, -1):
        corr = op.tmatvec(
            family_plan(op, [j], range(j + 1, op.M + 1), trunc),
            V[j + 1:])[0]
        V[j] = solv[j].solve(rhs_fwd[j] - corr)
    return with_fixed_rows(op, r, V)


# kind -> (groups are degree levels, descending order, exact level
# matrices): the symmetric block Gauss-Seidel sweeps, written out
# independently of the library's table
SWEEPS = {
    "gs": (False, False, False),
    "ahgs": (True, False, False),
    "ahs": (True, True, False),
    "hs": (True, True, True),
}


def dense_sweep_inverse(op, kind, trunc):
    """[(D + L_π) D⁻¹ (D + U_π)]⁻¹ as a dense matrix: D holds the full
    level matrices for hs and the full diagonal blocks otherwise, L_π/U_π
    the truncated couplings of a row to a group before/after its own in
    the sweep order π.  Couplings inside a group that D leaves out are
    dropped."""
    by_level, descending, exact = SWEEPS[kind]
    nd, m1 = op.n_dof, op.M + 1
    group = (np.repeat(np.arange(len(levels(op))),
                       [len(blk) for blk in levels(op)])
             if by_level else np.arange(m1))
    rank = -group if descending else group  # position in the sweep
    A = op.assemble_global_dense()
    dense = [K.toarray() for K in op.k_mats]
    D, L, U = (np.zeros_like(A) for _ in range(3))
    for j in range(m1):
        for k in range(m1):
            rows = slice(j * nd, (j + 1) * nd)
            cols = slice(k * nd, (k + 1) * nd)
            if j == k or (exact and group[j] == group[k]):
                D[rows, cols] = A[rows, cols]
            elif rank[k] != rank[j]:
                tgt = L if rank[k] < rank[j] else U
                tgt[rows, cols] = truncated_dense_block(
                    op, j, k, trunc.indices, dense)
    return np.linalg.inv((D + L) @ np.linalg.solve(D, D + U))


def level_solve(op, blocks, exact, R):
    """Solve one level, its blocks given, for R given in free-node
    blocks: with the
    factorization of its level matrix when exact, else block by block."""
    if exact:
        F = op.assemble_level_block(blocks)
        return F.solve(R.ravel()).reshape(R.shape)
    return np.vstack([op.assemble_diag_block(range(j, j + 1)).solve(row)
                      for j, row in zip(blocks, R)])


def pull_form_schur(op, trunc, exact, r):
    """Reference hs (exact) and ahs as the Schur complement sweep:
    downward pre-correction, coarse solve, then an upward post-correction
    in which each level gathers its products from the levels below."""
    g = free_blocks(op, r).copy()
    for blk in levels(op)[:0:-1]:
        z = level_solve(op, blk, exact, g[blk])
        g[:blk[0]] -= op.tmatvec(
            family_plan(op, range(blk[0]), blk, trunc), z)
    v = np.zeros_like(g)
    v[0] = op.assemble_diag_block(range(1)).solve(g[0])
    for blk in levels(op)[1:]:
        corr = op.tmatvec(family_plan(op, blk, range(blk[0]), trunc),
                          v[:blk[0]])
        v[blk] = level_solve(op, blk, exact, g[blk] - corr)
    return with_fixed_rows(op, r, v)


def pull_form_level_gs(op, trunc, r):
    """Reference ahgs in pull form: symmetric Gauss-Seidel over levels
    0..P then P..0, each level gathering its products from the levels
    already solved."""
    R = free_blocks(op, r)
    rhs_fwd = R.copy()
    U = np.zeros_like(R)
    for blk in levels(op):
        if blk[0] > 0:
            rhs_fwd[blk] -= op.tmatvec(
                family_plan(op, blk, range(blk[0]), trunc), U[:blk[0]])
        U[blk] = level_solve(op, blk, False, rhs_fwd[blk])
    V = U.copy()
    for blk in levels(op)[-2::-1]:
        above = range(blk[-1] + 1, op.M + 1)
        corr = op.tmatvec(family_plan(op, blk, above, trunc),
                          V[blk[-1] + 1:])
        V[blk] = level_solve(op, blk, False, rhs_fwd[blk] - corr)
    return with_fixed_rows(op, r, V)


def assembled_beforehand(monkeypatch, op) -> None:
    """Have ``op.family`` return rows of the whole family, assembled
    now: a sweep made later is then checked against physical memory for
    what it keeps alone, its factors, pair blocks and K_i, not for the
    coefficient values that an assembly of K_i passes through, whose own
    check ``TestFamily`` pins."""
    every = op.family(range(len(op.tensor.iset)), "the test")
    monkeypatch.setattr(op, "family", lambda indices, purpose:
                        every[np.asarray(indices, dtype=np.int64)])


def kept_bytes(pre) -> tuple:
    """(bands, pairs, K_i): the bytes of the band factors, of the pair
    blocks with their pattern and of the retained K_i's data that the
    sweep ``pre`` keeps after an apply."""
    bands = sum(F._state[0].nbytes for F in held_factors(pre))
    pairs = sum({id(a.base): a.base.nbytes
                 for plan in held_factors(pre, _PairPlan)
                 for a in (plan.data, plan.indptr, plan.indices)}.values())
    return bands, pairs, sum(row.nbytes for row in getattr(pre, "_family",
                                                           []))


def units(op, kind) -> list:
    """The ranges of blocks a sweep solves by one factor each, in
    ascending order: the degree levels, or for gs their blocks one by
    one."""
    if kind == "gs":
        return [range(j, j + 1) for j in range(op.M + 1)]
    return levels(op)


def level_of(op, blocks) -> set:
    """The degree levels of ``blocks``, by their index in the levels."""
    return {g for g, level in enumerate(levels(op)) for j in blocks
            if j in level}


class TestGroups:
    @pytest.mark.parametrize("P", range(5))
    @pytest.mark.parametrize("N", range(1, 5))
    def test_groups_are_the_degree_levels(self, N, P):
        """Every sweep's groups are the degree levels of the basis, of
        C(N+ℓ−1, ℓ) blocks each by the binomial oracle, one level at
        P = 0: gs solves each level's blocks one by one, the other kinds
        each level at once."""
        op, _, _, _ = build_operator(N, P, 1)
        for kind in SWEEPS:
            pre = make_preconditioner(op, kind)
            got = [level for level, _ in pre._units]
            assert sorted(set(got), key=got.index) == binomial_levels(N, P)
            assert [unit for _, unit in pre._units] == units(op, kind)
            assert all(unit[0] in level for level, unit in pre._units)

    @pytest.mark.parametrize("N,P", [(1, 3), (2, 2), (3, 2), (2, 3)])
    @pytest.mark.parametrize("kind", SWEEPS)
    def test_every_level_holds_one_pull_and_one_push(self, kind, N, P):
        """The solves are the units ascending and then descending, or the
        reverse, sharing the turning unit, with one product between two
        solves.  Between levels a sweep holds, for every level above
        level 0, one pull from all lower levels, run just before the
        level's first unit is solved ascending, and one push to all lower
        levels, run just after that unit is solved descending.  Inside a
        level only gs couples: before it solves a block ascending it
        pulls from the level's blocks before it, and after it solves a
        block descending that block pushes to them."""
        op, b, _, _ = build_operator(N, P, 3)
        pre = make_preconditioner(op, kind)
        pre.apply(b)
        first, steps = sweep_steps(pre)
        order = units(op, kind)
        solves = (order[::-1] + order[1:] if SWEEPS[kind][1]
                  else order + order[-2::-1])
        assert [first] + [unit for _, _, _, unit in steps] == solves
        # (row blocks, column blocks, unit solved before, unit solved after)
        want = set()
        for prev, unit in zip(order[:-1], order[1:]):
            level = next(lv for lv in levels(op) if unit.start in lv)
            if unit.start == level.start:
                below = range(level.start)
                want |= {(level, below, prev, unit),
                         (below, level, unit, prev)}
            else:
                lower = range(level.start, unit.start)
                want |= {(unit, lower, prev, unit), (lower, unit, unit, prev)}
        got = {(rows, cols, before, after)
               for (rows, cols, _, after), before in zip(steps, solves)}
        assert len(got) == len(steps) and got == want


class TestMeanBased:
    def test_single_block_exact(self):
        op, b, _, _ = build_operator(2, 0, 3)
        mb = make_preconditioner(op, "mb")
        x = mb.apply(b)
        np.testing.assert_allclose(op.k_mats[0] @ x, b, atol=1e-12)

    def test_inverse_round_trip(self):
        op, _, _, _ = build_operator(2, 2, 3)
        mb = make_preconditioner(op, "mb")
        K0 = op.k_mats[0].toarray()
        M = np.kron(g_matrix(0, op.tensor), K0)
        rng = np.random.default_rng(2)
        e = rng.standard_normal(op.n_global)
        np.testing.assert_allclose(mb.apply(M @ e), e, atol=1e-12)

    def test_g_matrix_is_the_mean_matrix(self):
        op, _, _, _ = build_operator(2, 2, 3)
        mb = make_preconditioner(op, "mb")
        np.testing.assert_array_equal(mb.g_matrix, g_matrix(0, op.tensor))


class TestKronecker:
    # kron's cases keep the bare (N, P, n) ids
    @pytest.mark.parametrize("kind,N,P,n", [
        pytest.param(kind, *case, id="-".join(
            map(str, case if kind == "kron" else (kind, *case))))
        for kind in ("kron", "mb") for case in SMALL])
    def test_dense_kronecker_oracle(self, kind, N, P, n):
        op, _, _, _ = build_operator(N, P, n)
        pre = make_preconditioner(op, kind)
        G = pre.g_matrix if kind == "kron" else g_matrix(0, op.tensor)
        M = np.kron(G, op.k_mats[0].toarray())
        rng = np.random.default_rng(7)
        r = rng.standard_normal(op.n_global)
        want = np.linalg.solve(M, r)
        np.testing.assert_allclose(pre.apply(r), want, atol=1e-11)

    @pytest.mark.parametrize("N,P,n,cov", [
        (1, 2, 3, 100.0), (2, 2, 4, 50.0), (3, 2, 5, 150.0),
        (4, 4, 10, 100.0)])
    def test_trace_weights_match_the_family(self, N, P, n, cov,
                                            monkeypatch):
        """The trace fit taken at the Gauss points equals the family's
        data-array dot products, (family @ d_0)/(d_0 @ d_0), to 1e-14 of
        the largest weight, and kron's G equals the G of those weights
        to 1e-14 of its largest entry; the fit reads no K_i, so the
        family is assembled after it, for the oracle."""
        op, _ = build_problem(N, P, n, cov)
        family = op.family

        def no_work(*args):
            raise AssertionError("a K_i assembled")

        monkeypatch.setattr(op, "family", no_work)
        G = make_preconditioner(op, "kron").g_matrix
        traces = op.k0_traces()
        data = family(range(len(op.tensor.iset)), "the oracle")
        d0 = data[0]
        want = (data @ d0) / (d0 @ d0)
        assert np.abs(traces / traces[0] - want).max() <= \
            1e-14 * np.abs(want).max()
        want_G = op.tensor.g_sum(want)
        assert np.abs(G - want_G).max() <= 1e-14 * np.abs(want_G).max()

    @pytest.mark.parametrize("n", [4, 10, 32])
    @pytest.mark.parametrize("kind", ["mb", "kron"])
    def test_k0_factor_is_the_factor_of_k0(self, kind, n):
        """The band factor is that of K_0's interior rows, the free
        nodes, in their order; a boundary row is solved by its diagonal,
        G_0's (0, 0) entry c_000 = 1 times K_0[b,b]."""
        op, _, mesh, _ = build_operator(1, 1, n)
        F = [F for F in held_factors(make_preconditioner(op, kind))
             if F.kind == "band"]
        assert len(F) == 1 and F[0].rows is None
        K0 = op.k_mats[0]
        interior = np.setdiff1d(np.arange(op.n_dof), mesh.boundary)
        np.testing.assert_array_equal(op.free, interior)
        np.testing.assert_array_equal(op.fixed, np.sort(mesh.boundary))
        np.testing.assert_array_equal(
            F[0]._state[0],
            linalg.factorize_band(
                band_fill(K0[interior][:, interior]))._state[0])
        np.testing.assert_array_equal(op.fixed_divisor(range(1)),
                                      [K0.diagonal()[op.fixed]])

    @pytest.mark.parametrize("kind", ["mb", "kron"])
    def test_k0_factor_forms_no_pair_fields(self, kind):
        """K_0's factor is filled from K_0's data, which the operator
        holds: making and applying mb or kron builds no Gauss-point
        product, whose factors the fills of other pairs read."""
        op, b, _, _ = build_operator(2, 2, 3)
        make_preconditioner(op, kind).apply(b)
        assert op._gauss is None

    def test_reduces_to_mean_based_when_higher_norms_vanish(self):
        """The field of the same mean with the modes set to zero, so that
        every coefficient but the mean's, and its K_i, is zero."""
        op, _, mesh, field = build_operator(2, 1, 2)
        mean = dataclasses.replace(field, modes=np.zeros_like(field.modes))
        op2 = GalerkinOperator(op.tensor, mean, mesh)
        assert not op2.family(range(1, len(op.tensor.iset)),
                              "the test").any()
        kr = make_preconditioner(op2, "kron")
        mb = make_preconditioner(op2, "mb")
        r = np.random.default_rng(1).standard_normal(op2.n_global)
        np.testing.assert_allclose(kr.apply(r), mb.apply(r), atol=1e-12)

    @pytest.mark.parametrize("kind", ["mb", "kron"])
    def test_apply_solves_its_temporaries_in_place(self, kind):
        """The K_0 solve and the G solve each run in place on the apply's
        own Fortran-ordered temporaries, so an apply holds at most two
        global vectors at once: the gathered free entries with the
        solve's array, then that array with the C-ordered result."""
        op, _, _, _ = build_operator(2, 2, 30)
        pre = make_preconditioner(op, kind)
        r = np.random.default_rng(2).standard_normal(op.n_global)
        pre.apply(r)
        _, peak = traced_memory(lambda: pre.apply(r))
        assert peak <= 2.1 * r.nbytes

    def test_weights_normalize_mean_to_one(self):
        op, _, _, _ = build_operator(2, 2, 3)
        kr = make_preconditioner(op, "kron")
        g0 = np.diag(g_matrix(0, op.tensor))
        # G's mean-mean entry carries weight 1 by construction
        assert kr.g_matrix[0, 0] == pytest.approx(g0[0], rel=1e-12)


class TestGaussSeidel:
    @pytest.mark.parametrize("N,P,n", SMALL)
    def test_dense_splitting_oracle_full(self, N, P, n):
        op, _, _, _ = build_operator(N, P, n)
        trunc = full_truncation(op.tensor)
        gs = make_preconditioner(op, "gs", trunc)
        L, D, U = dense_split_parts(op, trunc)
        M = (L + D) @ np.linalg.solve(D, D + U)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(op.n_global)
        np.testing.assert_allclose(gs.apply(r), np.linalg.solve(M, r),
                                   atol=1e-11)

    def test_dense_splitting_oracle_truncated(self):
        op, _, _, _ = build_operator(2, 2, 3)
        trunc = standard_truncation(2, 1)
        gs = make_preconditioner(op, "gs", trunc)
        L, D, U = dense_split_parts(op, trunc)
        M = (L + D) @ np.linalg.solve(D, D + U)
        r = np.random.default_rng(6).standard_normal(op.n_global)
        np.testing.assert_allclose(gs.apply(r), np.linalg.solve(M, r),
                                   atol=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(0, 3), n=st.integers(1, 4),
           cov=st.floats(0.1, 1.5))
    @example(N=3, P=3, n=4, cov=1.0)
    @pytest.mark.parametrize("lt", [None, 1, 2])
    def test_push_form_matches_pull_form(self, lt, N, P, n, cov):
        """gs's sweep by levels, pulls and pushes between them and the
        family's pushes inside them, is the pull form of the block sweep
        to 1e-13 on random instances, untruncated and truncated."""
        op, _, _, _ = build_operator(N, P, n, cov=cov)
        trunc = (full_truncation(op.tensor) if lt is None
                 else standard_truncation(N, lt))
        gs = make_preconditioner(op, "gs", trunc)
        rng = np.random.default_rng(30)
        for _ in range(3):
            r = rng.standard_normal(op.n_global)
            want = pull_form_gs(op, trunc, r)
            got = gs.apply(r)
            assert np.linalg.norm(got - want) <= \
                1e-13 * np.linalg.norm(want)

    def test_mean_truncation_reduces_to_block_diagonal_solves(self):
        op, _, _, _ = build_operator(2, 2, 3)
        gs = make_preconditioner(op, "gs", standard_truncation(2, 0))
        r = np.random.default_rng(9).standard_normal(op.n_global)
        R = free_blocks(op, r)
        want = with_fixed_rows(op, r, np.vstack([
            op.assemble_diag_block(range(j, j + 1)).solve(R[j])
            for j in range(op.M + 1)]))
        np.testing.assert_allclose(gs.apply(r), want, atol=1e-12)


class TestHierarchicalSchur:
    @pytest.mark.parametrize("N,P,n", SMALL)
    def test_dense_stage_composition_oracle(self, N, P, n):
        # replay the three stages with dense level inverses
        op, _, _, _ = build_operator(N, P, n)
        trunc = full_truncation(op.tensor)
        hs = make_preconditioner(op, "hs", trunc)
        A = op.assemble_global_dense()
        nd = op.n_dof
        rng = np.random.default_rng(11)
        r = rng.standard_normal(op.n_global)

        g = r.reshape(op.M + 1, nd).copy()
        for blk in levels(op)[:0:-1]:
            lo, hi = blk.start * nd, blk.stop * nd
            D = A[lo:hi, lo:hi]
            z = np.linalg.solve(D, g.ravel()[lo:hi])
            B = A[:lo, lo:hi]
            g.reshape(-1)[:lo] -= B @ z
        v = np.zeros_like(g)
        v[0] = np.linalg.solve(A[:nd, :nd], g[0])
        for blk in levels(op)[1:]:
            lo, hi = blk.start * nd, blk.stop * nd
            D = A[lo:hi, lo:hi]
            C = A[lo:hi, :lo]
            rhs = g.reshape(-1)[lo:hi] - C @ v.reshape(-1)[:lo]
            v.reshape(-1)[lo:hi] = np.linalg.solve(D, rhs)

        np.testing.assert_allclose(hs.apply(r), v.ravel(), atol=1e-11)

    def test_single_dimension_ahs_equals_hs(self):
        op, _, _, _ = build_operator(1, 3, 2)
        hs = make_preconditioner(op, "hs")
        ahs = make_preconditioner(op, "ahs")
        P_hs = probe_matrix(hs.apply, op.n_global)
        P_ahs = probe_matrix(ahs.apply, op.n_global)
        np.testing.assert_allclose(P_hs, P_ahs, atol=1e-12)


class TestSweeps:
    """gs, hs, ahs and ahgs against the dense splitting they invert and
    against the pull-form references."""

    @pytest.mark.parametrize("lt", [None, 1])
    @pytest.mark.parametrize("N,P,n", SMALL)
    @pytest.mark.parametrize("kind", SWEEPS)
    def test_dense_oracle(self, kind, N, P, n, lt):
        op, _, _, _ = build_operator(N, P, n)
        trunc = (full_truncation(op.tensor) if lt is None
                 else standard_truncation(N, lt))
        got = probe_matrix(make_preconditioner(op, kind, trunc).apply,
                           op.n_global)
        want = dense_sweep_inverse(op, kind, trunc)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("lt", [None, 1, 2])
    @pytest.mark.parametrize("kind", ["hs", "ahs", "ahgs"])
    def test_push_form_matches_pull_form(self, kind, lt):
        op, _, _, _ = build_operator(3, 3, 4)
        trunc = (full_truncation(op.tensor) if lt is None
                 else standard_truncation(3, lt))
        pre = make_preconditioner(op, kind, trunc)
        rng = np.random.default_rng(31)
        for _ in range(3):
            r = rng.standard_normal(op.n_global)
            if kind == "ahgs":
                want = pull_form_level_gs(op, trunc, r)
            else:
                want = pull_form_schur(op, trunc, kind == "hs", r)
            got = pre.apply(r)
            assert np.linalg.norm(got - want) <= \
                1e-13 * np.linalg.norm(want)

    @settings(max_examples=20, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(1, 3), n=st.integers(1, 4),
           cov=st.floats(0.1, 1.5), lt=st.none() | st.integers(0, 2))
    def test_dense_oracle_and_spd_property(self, N, P, n, cov, lt):
        op, _, _, _ = build_operator(N, P, n, cov=cov)
        trunc = (full_truncation(op.tensor) if lt is None
                 else standard_truncation(N, lt))
        for kind in SWEEPS:
            got = probe_matrix(make_preconditioner(op, kind, trunc).apply,
                               op.n_global)
            want = dense_sweep_inverse(op, kind, trunc)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * scale, kind
            assert np.abs(got - got.T).max() <= 1e-10 * scale, kind
            assert np.linalg.eigvalsh(got + got.T).min() > 0, kind

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_truncation_past_coefficient_degree_is_full(self, kind):
        # at P = 1 the coefficients reach degree 2; indices of degree 3
        # lie past the tensor and carry no c_ijk
        op, _, _, _ = build_operator(2, 1, 3)
        r = np.random.default_rng(8).standard_normal(op.n_global)
        got = make_preconditioner(op, kind,
                                  standard_truncation(2, 3)).apply(r)
        want = make_preconditioner(op, kind,
                                   standard_truncation(2, 2)).apply(r)
        np.testing.assert_array_equal(got, want)


class TestPushForm:
    """Which product each coupling runs: when the truncation keeps every
    tensor index, between levels at the Gauss points and inside gs's
    levels through its pair blocks; through the family otherwise."""

    @pytest.mark.parametrize("kind,lt,gauss", [
        ("ahgs", None, True), ("ahs", None, True), ("hs", None, True),
        ("ahgs", 4, True), ("hs", 5, True), ("gs", 4, True),  # every index
        ("gs", None, True), ("gs", 2, False),
        ("ahgs", 2, False), ("ahs", 1, False), ("hs", 3, False)])
    def test_products_run_only_through_the_family(self, kind, lt, gauss):
        """An apply counts the c_ijk terms of its couplings either way,
        and K_i products only through the family, so none when every
        index is kept: at N = 3, P = 2 the tensor has the 35 indices of
        degree ≤ 4.  gs then holds Gauss-point plans between levels and
        pair-block plans inside them; truncated, family plans in both."""
        op, b, _, _ = build_operator(3, 2, 3)
        trunc = None if lt is None else standard_truncation(3, lt)
        pre = make_preconditioner(op, kind, trunc)
        pre.apply(b)
        assert op.counters["summations"] > 0
        assert (op.counters["products"] == 0) == gauss
        every = lt is None or lt >= 4
        plans = {False: set(), True: set()}  # by: inside a level
        for rows, cols, plan, _ in sweep_steps(pre)[1]:
            plans[level_of(op, rows) == level_of(op, cols)].add(type(plan))
        assert plans[False] == {_GaussPlan if every else _Plan}
        assert plans[True] == (set() if kind != "gs" else
                               {_PairPlan if every else _Plan})

    @pytest.mark.parametrize("N,P", [(1, 3), (2, 2), (3, 3), (4, 4)])
    def test_gs_products_are_the_pairs_inside_the_levels(self, N, P):
        """Untruncated gs runs no K_i product per apply, where its family
        pushes inside the levels ran 4,455 at N = P = 4.  An apply counts
        every c_ijk term with j ≠ k once, counted straight from the
        tensor, and its pair-block plans those with j and k in one
        level."""
        op, b, _, _ = build_operator(N, P, 2)
        pre = make_preconditioner(op, "gs")
        pre.apply(b)
        before = dict(op.counters)
        pre.apply(b)
        t, degree = op.tensor, op.tensor.jkset.total_degrees()
        inside = (degree[t.j] == degree[t.k]) & (t.j != t.k)
        assert op.counters["products"] == before["products"]
        assert op.counters["summations"] - before["summations"] == \
            np.count_nonzero(t.j != t.k)
        assert sum(plan.summations for _, _, plan, _ in sweep_steps(pre)[1]
                   if isinstance(plan, _PairPlan)) == np.count_nonzero(inside)

    def test_products_per_apply_at_the_table_shape(self):
        """K_i products per apply at N = P = 4, n = 10: 1,000 for gs at
        lt = 2, 580 for ahgs, ahs and hs at lt = 2, none for untruncated
        gs and ahgs."""
        op, b = build_problem(4, 4, 10, 100.0)
        want = {("gs", None): 0, ("gs", 2): 1000, ("ahgs", 2): 580,
                ("ahs", 2): 580, ("hs", 2): 580, ("ahgs", None): 0}
        for (kind, lt), count in want.items():
            pre = make_preconditioner(
                op, kind, None if lt is None else standard_truncation(4, lt))
            pre.apply(b)
            before = op.counters["products"]
            pre.apply(b)
            assert op.counters["products"] - before == count, (kind, lt)

    def test_truncated_sweep_keeps_its_rows_and_bands(self):
        """ahgs at lt = 2, N = P = 4, n = 12, made and applied once on an
        operator that has run such a sweep before, keeps no more than
        1.1 times its 15 rows of K_i data and its band factors."""
        op, b = build_problem(4, 4, 12, 100.0)
        trunc, held = standard_truncation(4, 2), []
        make_preconditioner(op, "ahgs", trunc).apply(b)

        def run():
            held.append(make_preconditioner(op, "ahgs", trunc))
            held[0].apply(b)

        kept, _ = traced_memory(run)
        rows = 8 * 15 * dirichlet_nnz(12)
        bands = sum(F._state[0].nbytes for F in held_factors(held[0]))
        assert sum(row.nbytes for row in held[0]._family) == rows
        assert rows + bands <= kept <= 1.1 * (rows + bands)

    def test_gauss_point_sweep_adds_no_push_workspace(self):
        """The couplings at the Gauss points of an untruncated ahgs or gs
        share the operator's one workspace: a first apply at n = 10, which
        builds the sweep's factors and plans, keeps no more than the
        factors' bands, gs's pair blocks and one ``_CHUNK_BYTES``."""
        op, b = build_problem(4, 4, 10, 100.0)
        op.matvec(b)
        for kind in ("ahgs", "gs"):
            pre = make_preconditioner(op, kind)
            kept, _ = traced_memory(lambda: pre.apply(b))
            bands, pairs, _ = kept_bytes(pre)
            held = bands + pairs
            assert (held > bands) == (kind == "gs")
            assert held < kept <= held + galerkin._CHUNK_BYTES, kind


class TestCoincidences:
    @pytest.mark.parametrize("N,P,n", SMALL)
    def test_mean_truncation_collapses_approximate_kinds(self, N, P, n):
        op, _, _, _ = build_operator(N, P, n)
        t0 = standard_truncation(N, 0)
        probes = [probe_matrix(make_preconditioner(op, k, t0).apply,
                               op.n_global)
                  for k in ("ahs", "gs", "ahgs")]
        np.testing.assert_allclose(probes[0], probes[1], atol=1e-12)
        np.testing.assert_allclose(probes[1], probes[2], atol=1e-12)

    def test_single_dimension_ahgs_equals_gs(self):
        op, _, _, _ = build_operator(1, 3, 2)
        gs = make_preconditioner(op, "gs")
        ahgs = make_preconditioner(op, "ahgs")
        P_gs = probe_matrix(gs.apply, op.n_global)
        P_ahgs = probe_matrix(ahgs.apply, op.n_global)
        np.testing.assert_allclose(P_gs, P_ahgs, atol=1e-12)


class TestLinearMapProperties:
    @pytest.mark.parametrize("kind", ["mb", "kron", "gs", "hs", "ahs",
                                      "ahgs"])
    def test_linearity(self, kind):
        op, _, _, _ = build_operator(2, 2, 3)
        pre = make_preconditioner(op, kind)
        rng = np.random.default_rng(20)
        r, s = rng.standard_normal((2, op.n_global))
        lhs = pre.apply(1.5 * r - 0.5 * s)
        rhs = 1.5 * pre.apply(r) - 0.5 * pre.apply(s)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("kind", ["mb", "kron", "gs", "hs", "ahs",
                                      "ahgs"])
    @pytest.mark.parametrize("N,P,n", SMALL)
    def test_symmetry_probe(self, kind, N, P, n):
        op, _, _, _ = build_operator(N, P, n)
        pre = make_preconditioner(op, kind)
        P_mat = probe_matrix(pre.apply, op.n_global)
        scale = np.abs(P_mat).max()
        assert np.abs(P_mat - P_mat.T).max() <= 1e-10 * scale


    @settings(max_examples=20, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(0, 3), n=st.integers(1, 4),
           cov=st.floats(0.1, 1.5))
    def test_mb_and_kron_spd_property(self, N, P, n, cov):
        op, _, _, _ = build_operator(N, P, n, cov=cov)
        for kind in ("mb", "kron"):
            got = probe_matrix(make_preconditioner(op, kind).apply,
                               op.n_global)
            scale = np.abs(got).max()
            assert np.abs(got - got.T).max() <= 1e-10 * scale, kind
            assert np.linalg.eigvalsh(got + got.T).min() > 0, kind


@st.composite
def layout_cases(draw, instance):
    """An operator of the ``instance`` kind: with fixed and free nodes
    or with no free node (n = 1); and a seed."""
    N, cov = draw(st.integers(1, 2)), draw(st.floats(0.5, 1.5))
    if instance == "none free":
        op = build_operator(N, draw(st.integers(0, 2)), 1, cov=cov)[0]
        assert op.n_free == 0
    else:
        op = build_operator(N, draw(st.integers(1, 2)),
                            draw(st.integers(2, 4)), cov=cov)[0]
        assert len(op.fixed) and op.n_free
    return op, draw(st.integers(0, 2**16))


class TestLayoutEdge:
    """Each apply and the full product change between the global layout
    and the free-node blocks once, at their edge."""

    @pytest.mark.parametrize("instance", ["fixed", "none free"])
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_fixed_rows_by_closed_form(self, kind, instance, data):
        """The free part of an apply is bitwise blind to r's fixed
        entries; a fixed row is r_b / ((G_0)_jj · K_0[b,b]) in the
        sweeps, and G⁻¹ across blocks of r_b / K_0[b,b] in mb and kron;
        and the full product matches the dense matrix, fixed rows
        included."""
        op, seed = data.draw(layout_cases(instance))
        rng = np.random.default_rng(seed)
        pre = make_preconditioner(op, kind)
        r = rng.standard_normal(op.n_global)
        other = r.reshape(op.M + 1, op.n_dof).copy()
        other[:, op.fixed] = rng.standard_normal((op.M + 1, len(op.fixed)))
        got = pre.apply(r).reshape(op.M + 1, op.n_dof)
        np.testing.assert_array_equal(
            pre.apply(other.ravel()).reshape(op.M + 1, op.n_dof)[:, op.free],
            got[:, op.free])
        R, k0 = r.reshape(op.M + 1, op.n_dof), op.k_mats[0].diagonal()
        g0 = np.diag(g_matrix(0, op.tensor))
        if kind in SWEEPS:
            np.testing.assert_array_equal(
                got[:, op.fixed], R[:, op.fixed] / (g0[:, None]
                                                    * k0[op.fixed]))
        else:
            # each fixed node's column to 1e-12 of its scale, ‖G⁻¹‖ times
            # its largest r_b / K_0[b,b]: an entry that cancels far below
            # that scale is off by rounding relative to the scale, not to
            # itself
            G = pre.g_matrix if kind == "kron" else np.diag(g0)
            scaled = R[:, op.fixed] / k0[op.fixed]
            scale = np.linalg.norm(np.linalg.inv(G), 2) * \
                np.abs(scaled).max(axis=0, initial=0.0)
            err = np.abs(got[:, op.fixed] - np.linalg.solve(G, scaled))
            assert np.all(err <= 1e-12 * scale)
        want = op.assemble_global_dense() @ r
        assert np.abs(op.matvec(r) - want).max() <= \
            1e-13 * np.abs(want).max()


class TestFcgPcgAgreement:
    @settings(max_examples=15, deadline=None)
    @given(N=st.integers(1, 3), P=st.integers(1, 3), n=st.integers(1, 4),
           cov=st.floats(0.1, 1.5))
    @example(N=3, P=3, n=3, cov=1.5)  # mb: 13 against 14 iterations
    @example(N=2, P=3, n=4, cov=1.0)  # mb: iterates 1.1e-10 apart
    def test_same_iterations_and_iterates(self, N, P, n, cov):
        """With a fixed preconditioner flexible CG is standard CG: their
        β differ by FCG's z·r_old, which is zero in exact arithmetic.  In
        floating point it is not, and CG's fast late convergence
        amplifies that difference, so the two agree to rounding only in
        the early iterations: their residual histories agree to 1e-6
        while the residual is above 1e-3, and the counts may differ by
        one where a late residual falls on either side of tol.  Both
        solutions then lie within the tol scale of each other."""
        op, b, _, _ = build_operator(N, P, n, cov=cov)
        for kind in ("mb", "kron", "gs", "hs", "ahs", "ahgs"):
            for trunc in (None, standard_truncation(N, 1)):
                pre = make_preconditioner(op, kind, trunc)
                xf, rf = flexible_cg(op.matvec, pre.apply, b, tol=1e-8)
                xp, rp = pcg(op.matvec, pre.apply, b, tol=1e-8)
                assert rf.converged and rp.converged, kind
                assert abs(rf.iterations - rp.iterations) <= 1, kind
                assert np.linalg.norm(xf - xp) <= \
                    1e-6 * np.linalg.norm(xp), kind
                m = min(rf.iterations, rp.iterations)
                res_f, res_p = (np.array(r.residuals[:m]) for r in (rf, rp))
                early = res_p >= 1e-3
                np.testing.assert_allclose(res_f[early], res_p[early],
                                           rtol=1e-6, err_msg=kind)


class TestFactory:
    def test_unknown_kind(self):
        op, _, _, _ = build_operator(1, 1, 1)
        with pytest.raises(ValueError):
            make_preconditioner(op, "ilu")

    def test_arguments_checked_before_any_work(self, monkeypatch):
        op, _, _, _ = build_operator(1, 1, 1)

        def no_work(*args):
            raise AssertionError("block assembled before the refusal")

        for name in ("block", "assemble_diag_block", "assemble_level_block"):
            monkeypatch.setattr(op, name, no_work)
        with pytest.raises(ValueError, match="unknown preconditioner kind"):
            make_preconditioner(op, "ilu")
        # no block was assembled or factorized, no product was run
        assert op.counters == {"summations": 0, "products": 0}

    def test_non_positive_divisor_refused_at_setup(self):
        """K_0's diagonal on the fixed boundary nodes edited in place to 0,
        as assembled before the boundary is fixed (and here also to -1):
        every kind refuses it when it is made, where the divisors of the
        fixed rows are computed, before any apply."""
        op, _, mesh, field = build_operator(2, 2, 4)
        for value in (0.0, -1.0):
            untreated = GalerkinOperator(op.tensor, field, mesh)
            untreated._k0.data[untreated._k0.indptr[mesh.boundary]] = value
            assert len(untreated.fixed) == 16
            for kind in KINDS:
                with pytest.raises(FactorizationError,
                                   match="non-positive divisor of a "
                                         "diagonal row"):
                    make_preconditioner(untreated, kind)

    def test_oversized_level_band_refused_at_setup(self, monkeypatch):
        op, _, _, _ = build_operator(2, 3, 4)
        # level ℓ at N = 2: s = ℓ + 1 blocks of f = 9 free rows, band
        # s·n + s − 1 at n = 4, so 5·s² band rows of f doubles; hs keeps
        # the factors of the levels 0 to 3
        f = op.n_free
        assert f == 9
        need = 8 * f * 5 * (1 + 4 + 9 + 16)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)

        def no_work(*args):
            raise AssertionError("block assembled before the refusal")

        for name in ("block", "_pair_values", "_fill_band"):
            monkeypatch.setattr(op, name, no_work)
        with pytest.raises(MemoryError) as exc:
            make_preconditioner(op, "hs")
        assert str(exc.value).startswith(
            f"band factor of {4 * f} rows and 19 sub-diagonals and the 3 "
            f"other band factors kept with it need {need} bytes")
        assert "ahs and ahgs" in str(exc.value)
        # only the exact level solves need the level bands, and only
        # past memory
        make_preconditioner(op, "ahs")
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        make_preconditioner(op, "hs")

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_sum_of_kept_bands_refused_at_setup(self, kind, monkeypatch):
        """Every factor a sweep keeps fits in memory alone, but not all
        of them at once: the sweep is refused at setup, before any work.
        The sum checked is the bytes its factors and gs's pair blocks
        hold after an apply."""
        op, b, _, _ = build_operator(2, 3, 4)
        pre = make_preconditioner(op, kind)
        pre.apply(b)
        sizes = [F._state[0].nbytes for F in held_factors(pre)]
        need = sum(kept_bytes(pre))
        assert len(sizes) > 1 and max(sizes) <= need - 1

        op, b, _, _ = build_operator(2, 3, 4)
        assembled_beforehand(monkeypatch, op)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)
        with pytest.raises(MemoryError, match=f"need {need} bytes"):
            make_preconditioner(op, kind)
        assert op.counters == {"summations": 0, "products": 0}
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        pre = make_preconditioner(op, kind)
        pre.apply(b)
        assert sum(kept_bytes(pre)) == need

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_checked_bytes_are_the_held_bands(self, kind, monkeypatch):
        """The bytes a sweep checks at setup, untruncated and at lt = 2,
        are the bytes of the bands its factors hold after an apply, of
        gs's pair blocks and of the K_i it retains."""
        op, b, _, _ = build_operator(2, 3, 4)
        checked, check = [], preconditioners.check_fits

        def recorded(need, what, hint=""):
            checked.append(need)
            return check(need, what, hint)

        monkeypatch.setattr(preconditioners, "check_fits", recorded)
        for trunc in (None, standard_truncation(2, 2)):
            checked.clear()
            pre = make_preconditioner(op, kind, trunc)
            pre.apply(b)
            assert len(held_factors(pre)) > 1
            assert checked == [sum(kept_bytes(pre))]

    def test_sweep_checked_for_its_own_factors_only(self, monkeypatch):
        """A sweep built after another on one operator is checked for,
        and holds, its own factors and pair blocks: gs after hs, with
        memory for gs's diagonal factors and pair blocks alone, is
        accepted, and what it reaches, its operator included, holds
        exactly those."""
        op, b, _, _ = build_operator(2, 3, 4)
        hs = make_preconditioner(op, "hs")
        hs.apply(b)
        assembled_beforehand(monkeypatch, op)
        need = (8 * (op.M + 1) * op.n_free * (op.run_band(1) + 1)
                + op.pair_bytes(levels(op)))
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        gs = make_preconditioner(op, "gs")
        gs.apply(b)
        assert sum(kept_bytes(gs)) == need
        assert held_factors(hs)

    def test_bands_kept_together_checked_as_one_sum(self, monkeypatch):
        """hs at lt = 2, N = P = 3, n = 4: its level bands (52,560 B) and
        its 10 K_i (5,200 B) each fit in memory alone, but not both, so
        it is refused when made, before any work, by one message that
        names the largest band, the other bands and the K_i.  With
        memory for their sum it is made and keeps just that."""
        trunc = standard_truncation(3, 2)
        op, b, _, _ = build_operator(3, 3, 4)
        pre = make_preconditioner(op, "hs", trunc)
        pre.apply(b)
        assert kept_bytes(pre) == (52560, 0, 5200)
        need = 52560 + 5200

        op, b, _, _ = build_operator(3, 3, 4)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)
        with pytest.raises(MemoryError) as exc:
            make_preconditioner(op, "hs", trunc)
        assert str(exc.value).startswith(
            f"band factor of {10 * op.n_free} rows and 49 sub-diagonals and "
            f"the 3 other band factors kept with it and the 10 K_i of its "
            f"truncated couplings, 5200 bytes need {need} bytes")
        assert "ahs and ahgs" in str(exc.value)
        assert op.counters == {"summations": 0, "products": 0}
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        pre = make_preconditioner(op, "hs", trunc)
        pre.apply(b)
        assert sum(kept_bytes(pre)) == need

    def test_pair_blocks_checked_with_the_bands(self, monkeypatch):
        """gs at N = P = 3, n = 4: its block bands (7,200 B) and its pair
        blocks (30,692 B) each fit in memory alone, but not both, so it
        is refused when made, before any fill.  With memory for their
        sum it is made and keeps just that."""
        op, b, _, _ = build_operator(3, 3, 4)
        pre = make_preconditioner(op, "gs")
        pre.apply(b)
        assert kept_bytes(pre) == (7200, 30692, 0)
        need = 7200 + 30692

        op, b, _, _ = build_operator(3, 3, 4)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)

        def no_work(*args):
            raise AssertionError("pair blocks filled before the refusal")

        monkeypatch.setattr(op, "_pair_values", no_work)
        with pytest.raises(MemoryError) as exc:
            make_preconditioner(op, "gs")
        assert str(exc.value).startswith(
            f"band factor of {op.n_free} rows and 4 sub-diagonals and the "
            f"19 other band factors kept with it and gs's pair blocks inside "
            f"its levels, 30692 bytes need {need} bytes")
        monkeypatch.undo()
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        pre = make_preconditioner(op, "gs")
        pre.apply(b)
        assert sum(kept_bytes(pre)) == need

    def test_dropped_gs_leaves_no_stiffness_matrix(self):
        """gs fills its levels' pair blocks at its first apply, assembles
        no K_i and is the pairs' only holder: made, applied and dropped
        on an operator that has run gs before, at N = P = 4, n = 10, it
        leaves under 1 % of the 836 pairs' bytes behind, which exceed
        the family's."""
        op, b = build_problem(4, 4, 10, 100.0)
        make_preconditioner(op, "gs").apply(b)

        def pair_bytes():
            pre = make_preconditioner(op, "gs")
            pre.apply(b)
            plans = held_factors(pre, _PairPlan)
            assert len(plans) == 2 * (op.M + 1 - len(levels(op)))
            return sum({id(p.data.base): p.data.base.nbytes
                        for p in plans}.values())

        def run():
            sizes.append(pair_bytes())
            gc.collect()

        sizes = []
        kept, _ = traced_memory(run)
        pairs = sizes.pop()
        assert pairs == 8 * 836 * len(op._free_indices)
        assert pairs > 8 * 495 * dirichlet_nnz(10)
        assert kept < 0.01 * pairs

    def test_operator_holds_no_factorization(self):
        op, b, _, _ = build_operator(2, 2, 3)
        kept = [make_preconditioner(op, kind) for kind in KINDS]
        for pre in kept:
            pre.apply(b)
        assert all(held_factors(pre) for pre in kept)
        assert held_factors(op) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_dropped_preconditioner_frees_its_factors(self, kind):
        op, b, _, _ = build_operator(2, 2, 3)
        pre = make_preconditioner(op, kind)
        pre.apply(b)
        refs = [weakref.ref(F) for F in held_factors(pre)]
        del pre
        gc.collect()
        assert refs and all(ref() is None for ref in refs)

    @pytest.mark.parametrize("N,P,n", [(1, 2, 2), (2, 3, 3), (4, 4, 10)])
    @pytest.mark.parametrize("kind", SWEEPS)
    def test_one_factor_and_one_solve_per_group(self, kind, N, P, n,
                                                monkeypatch):
        """A sweep holds one factor per unit, a level or for gs each of
        its blocks, over the unit's free rows, and solves a unit with one
        call of it: 2·units − 1 solves per apply, as the last solve of
        the first pass is also the first of the second."""
        op, b, _, _ = build_operator(N, P, n)
        pre = make_preconditioner(op, kind)
        sizes = [len(unit) for unit in units(op, kind)]
        solve, used = linalg.Factorization.solve, []

        def counted(F, rhs):
            used.append(F)
            return solve(F, rhs)

        monkeypatch.setattr(linalg.Factorization, "solve", counted)
        for _ in range(2):
            used.clear()
            pre.apply(b)
            assert len(used) == 2 * len(sizes) - 1
        held = held_factors(pre)
        assert len(held) == len(sizes)
        assert {id(F) for F in used} == {id(F) for F in held}
        assert sorted(F._state[0].shape[1] for F in held) == \
            sorted(s * op.n_free for s in sizes)

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_dropped_sweep_frees_its_plans(self, kind):
        """A sweep builds the plans of its two couplings per unit past the
        first at its first apply, family, Gauss-point or pair-block
        plans, and is
        their only holder: the operator keeps none, and they die with the
        sweep."""
        op, b, _, _ = build_operator(2, 2, 3)
        plans = (_Plan, _GaussPlan, _PairPlan)
        pre = make_preconditioner(op, kind)
        assert held_factors(pre, plans) == []
        pre.apply(b)
        refs = [weakref.ref(p) for p in held_factors(pre, plans)]
        assert len(refs) == 2 * (len(units(op, kind)) - 1)
        assert held_factors(op, plans) == []
        del pre
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_sweeps_on_one_operator_apply_as_alone(self):
        """Sweeps built side by side on one operator, sharing no plan or
        factor, give first applies bitwise equal to each one built alone
        on its own operator, with the same products and summations."""
        trunc = standard_truncation(2, 1)
        op, _, _, _ = build_operator(2, 2, 3)
        r = np.random.default_rng(30).standard_normal(op.n_global)
        together = [make_preconditioner(op, kind, trunc) for kind in SWEEPS]
        for kind, pre in zip(SWEEPS, together):
            before = dict(op.counters)
            got = pre.apply(r)
            alone, _, _, _ = build_operator(2, 2, 3)
            assert np.array_equal(
                make_preconditioner(alone, kind, trunc).apply(r), got), kind
            assert alone.counters == {c: op.counters[c] - before[c]
                                      for c in before}, kind

    def test_probe_matrix_reproduces_linear_map(self):
        A = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(probe_matrix(lambda v: A @ v, 3), A)


# SHA-256 of the factors' bands and the applies that
# test_factors_and_applies_keep_their_bits hashes, recorded before the
# block factors shared one band filler and one factor builder
FACTOR_DIGESTS = {
    (4, 4, 10):
        "ceb4ac462c145a9ff8b3e5dacadb70872ff5a7ac4a05b4db2e7c8d412ae24c2e",
    (3, 3, 5):
        "ea28ca4425c74011c604adcddd8600eca181ea2af26401ebd63a82382d51eaab",
    (2, 1, 3):
        "845399fe37cc93d4711b86915b3467c3ea58e061de5994a77334b30bb25753e1",
    (1, 4, 6):
        "f91930de16f8d71a4096379096d99af16944fda1c52d2516ba88d3e8a4a60146",
}


@pytest.mark.parametrize("shape", list(FACTOR_DIGESTS))
def test_factors_and_applies_keep_their_bits(shape):
    """The factored bands of every level's diagonal and level factor
    and of the whole block diagonal, and two applies of every kind,
    untruncated and at lt = 2, hash to the recorded digest: a change of
    the fills or the builders that moves one bit shows."""
    N, P, n = shape
    op, _ = build_problem(N, P, n, 100.0)
    h = hashlib.sha256()
    for level in levels(op):
        h.update(op.assemble_diag_block(level)._state[0].tobytes())
        h.update(op.assemble_level_block(level)._state[0].tobytes())
    h.update(op.assemble_diag_block(range(op.M + 1))._state[0].tobytes())
    v = np.random.default_rng(7).standard_normal(op.n_global)
    for kind in KINDS:
        for trunc in (None, standard_truncation(N, 2)):
            pre = make_preconditioner(op, kind, trunc)
            for _ in range(2):
                h.update(pre.apply(v).tobytes())
    assert h.hexdigest() == FACTOR_DIGESTS[shape]
