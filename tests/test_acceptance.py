"""Acceptance gate: twelve end-to-end checks at fixed tolerances.

Each test prints one [PASS] line with the measured numbers; a failing
check reports the measurements in its assertion message instead.  The
small-instance oracles run dense linear algebra as the independent
route; the desk-scale checks compare iteration counts against reference
bands, orderings and trends for the default lognormal configuration.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import (
    build_operator,
    g_matrix,
    hermite,
    levels,
    probe_matrix,
)
from test_preconditioners import dense_split_parts

from sgfem.chaos import build_c_tensor, multi_index_set
from sgfem.experiments import build_problem, emit_c_pattern
from sgfem.fem import build_mesh
from sgfem.galerkin import full_truncation, standard_truncation
from sgfem.krylov import flexible_cg, pcg
from sgfem.preconditioners import KINDS, make_preconditioner
from sgfem.random_field import (
    ExponentialCovariance,
    discrete_kl,
    field_parameters,
    gpc_coefficients,
)

SMALL = [(1, 1, 2), (2, 1, 3), (2, 2, 3)]

# reference iteration counts for the default configuration
# (N=P=4, n=10, CoV=100%, tol 1e-8) and the allowed relative band
REFERENCE_IT = {"mb": 66, "kron": 37, "hs": 16, "ahs": 38, "gs": 19,
                "ahgs": 19}
BAND = 0.25


@pytest.fixture(scope="module")
def small_instances():
    return {key: build_operator(*key) for key in SMALL}


_DESK = {}


def desk_problem(n=10, cov=100.0):
    """Cached default-configuration operator at one mesh/CoV setting."""
    key = (n, cov)
    if key not in _DESK:
        _DESK[key] = build_problem(4, 4, n, cov)
    return _DESK[key]


def desk_iterations(kinds, n=10, cov=100.0):
    op, b = desk_problem(n, cov)
    out = {}
    for kind in kinds:
        pre = make_preconditioner(op, kind)
        _, rep = flexible_cg(op.matvec, pre.apply, b, tol=1e-8, maxit=1000)
        assert rep.converged, f"{kind} did not converge at n={n}"
        out[kind] = rep.iterations
    return out


def test_criterion_01_tensor_quadrature_oracle():
    """Every tensor entry matches the Gauss-Hermite quadrature route."""
    t0 = time.perf_counter()
    nodes, weights = np.polynomial.hermite_e.hermegauss(10)
    weights = weights / weights.sum()  # normalize to a probability measure
    he = np.array([hermite(d, nodes) for d in range(5)])
    T1 = np.einsum("q,aq,bq,cq->abc", weights, he, he, he)
    worst = 0.0
    checked = 0
    for N in (1, 2, 3):
        for P, Pp in ((1, 2), (2, 4)):
            tensor = build_c_tensor(N, P, Pp)
            stored = {(a, b, c): v for a, b, c, v in
                      zip(tensor.i, tensor.j, tensor.k, tensor.val)}
            iset, jkset = tensor.iset.indices, tensor.jkset.indices
            for a, ia in enumerate(iset):
                for bj, jb in enumerate(jkset):
                    for ck, kc in enumerate(jkset):
                        want = 1.0
                        for d in range(N):
                            want *= T1[ia[d], jb[d], kc[d]]
                        got = stored.get((a, bj, ck), 0.0)
                        worst = max(worst, abs(got - want))
                        checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"max |c_ijk - quadrature| = {worst:g}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    print(f"[PASS] criterion 1: {checked} entries, max dev {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_02_count_reproduction():
    """Truncation pattern counts and retained-set sizes match exactly."""
    lts = (0, 1, 2, 3, 4, 8)
    want_nnz = (70, 350, 1070, 1990, 3090, 4900)
    want_nmv = (70, 350, 1210, 2610, 4980, 12585)
    want_sizes = (1, 5, 15, 35, 70, 495)
    got = [emit_c_pattern(4, 4, lt) for lt in lts]
    got_nnz = tuple(g[0] for g in got)
    got_nmv = tuple(g[1] for g in got)
    got_sizes = tuple(len(standard_truncation(4, lt)) for lt in lts)
    assert got_nnz == want_nnz, f"nnz {got_nnz} != {want_nnz}"
    assert got_nmv == want_nmv, f"n_MV {got_nmv} != {want_nmv}"
    assert got_sizes == want_sizes, f"sizes {got_sizes} != {want_sizes}"
    print(f"[PASS] criterion 2: nnz {got_nnz}, n_MV {got_nmv}, "
          f"sizes {got_sizes}")


def test_criterion_03_operator_oracle(small_instances):
    """Block matvec agrees with the dense assembled matrix."""
    t0 = time.perf_counter()
    worst = 0.0
    for key, (op, _, _, _) in small_instances.items():
        A = op.assemble_global_dense()
        rng = np.random.default_rng(2)
        v = rng.standard_normal(op.n_global)
        want = A @ v
        rel = np.linalg.norm(op.matvec(v) - want) / np.linalg.norm(want)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"relative error {worst:g}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"
    print(f"[PASS] criterion 3: max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_preconditioner_oracles(small_instances):
    """gs, kron and hs match their dense compositions."""
    worst = {"gs": 0.0, "kron": 0.0, "hs": 0.0}
    for key, (op, _, _, _) in small_instances.items():
        A = op.assemble_global_dense()
        nd = op.n_dof
        rng = np.random.default_rng(3)
        r = rng.standard_normal(op.n_global)
        full = full_truncation(op.tensor)

        L, D, U = dense_split_parts(op, full)
        M = (L + D) @ np.linalg.solve(D, D + U)
        gs = make_preconditioner(op, "gs", full)
        worst["gs"] = max(worst["gs"],
                          np.abs(gs.apply(r) - np.linalg.solve(M, r)).max())

        K0 = op.k_mats[0].toarray()
        wts = np.array([(K.multiply(op.k_mats[0])).sum()
                        for K in op.k_mats]) / (K0 * K0).sum()
        t = op.tensor
        G = np.zeros((op.M + 1, op.M + 1))
        np.add.at(G, (t.j, t.k), wts[t.i] * t.val)
        Mk = np.kron(G, K0)
        kr = make_preconditioner(op, "kron")
        worst["kron"] = max(worst["kron"],
                            np.abs(kr.apply(r)
                                   - np.linalg.solve(Mk, r)).max())

        g = r.reshape(op.M + 1, nd).copy()
        for blk in levels(op)[:0:-1]:
            lo, hi = blk.start * nd, blk.stop * nd
            z = np.linalg.solve(A[lo:hi, lo:hi], g.ravel()[lo:hi])
            g.reshape(-1)[:lo] -= A[:lo, lo:hi] @ z
        v = np.zeros_like(g)
        v[0] = np.linalg.solve(A[:nd, :nd], g[0])
        for blk in levels(op)[1:]:
            lo, hi = blk.start * nd, blk.stop * nd
            rhs = g.reshape(-1)[lo:hi] - A[lo:hi, :lo] @ v.reshape(-1)[:lo]
            v.reshape(-1)[lo:hi] = np.linalg.solve(A[lo:hi, lo:hi], rhs)
        hs = make_preconditioner(op, "hs", full)
        worst["hs"] = max(worst["hs"],
                          np.abs(hs.apply(r) - v.ravel()).max())
    assert all(w <= 1e-11 for w in worst.values()), f"deviations {worst}"
    print(f"[PASS] criterion 4: gs {worst['gs']:.2e}, "
          f"kron {worst['kron']:.2e}, hs {worst['hs']:.2e}")


def test_criterion_05_mean_truncation_coincidence(small_instances):
    """With only the mean matrix retained, ahs, gs and ahgs coincide."""
    worst = 0.0
    for (N, P, n), (op, _, _, _) in small_instances.items():
        t0 = standard_truncation(N, 0)
        probes = [probe_matrix(make_preconditioner(op, k, t0).apply,
                               op.n_global) for k in ("ahs", "gs", "ahgs")]
        worst = max(worst, np.abs(probes[0] - probes[1]).max(),
                    np.abs(probes[1] - probes[2]).max())
    assert worst <= 1e-12, f"max pairwise deviation {worst:g}"
    print(f"[PASS] criterion 5: max pairwise deviation {worst:.2e}")


def test_criterion_06_symmetry_probes(small_instances):
    """All six preconditioners are symmetric maps."""
    worst = 0.0
    for key, (op, _, _, _) in small_instances.items():
        rng = np.random.default_rng(5)
        x = rng.standard_normal(op.n_global)
        y = rng.standard_normal(op.n_global)
        for kind in KINDS:
            pre = make_preconditioner(op, kind)
            lhs = pre.apply(x) @ y
            rhs = x @ pre.apply(y)
            dev = abs(lhs - rhs) / max(1.0, abs(lhs))
            worst = max(worst, dev)
    assert worst <= 1e-10, f"max symmetry deviation {worst:g}"
    print(f"[PASS] criterion 6: max symmetry deviation {worst:.2e}")


def test_criterion_07_desk_scale_bands():
    """Default-configuration iteration counts sit in the reference bands
    with the expected ordering."""
    t0 = time.perf_counter()
    its = desk_iterations(KINDS)
    elapsed = time.perf_counter() - t0
    for kind, ref in REFERENCE_IT.items():
        lo, hi = (1 - BAND) * ref, (1 + BAND) * ref
        assert lo <= its[kind] <= hi, \
            f"{kind}: {its[kind]} outside [{lo:.1f}, {hi:.1f}] " \
            f"(all counts {its})"
    assert its["hs"] <= its["gs"] <= its["ahgs"] < its["kron"] < its["mb"], \
        f"ordering violated: {its}"
    assert its["ahs"] > its["gs"], f"ordering violated: {its}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s"
    print(f"[PASS] criterion 7: {its}, {elapsed:.1f}s")


ROBUST_MESHES = (10, 15, 20)  # meshes on which the counts have settled


def counted_solve(op, b, apply_M, tol=1e-8, maxit=1000):
    """One flexible-CG solve counted in two norms.

    ``it`` is the reported count, which stops on ‖b − Ax‖/‖b‖ ≤ tol.
    ``it_minv`` is the first iteration of the same run whose residual
    satisfies √(r·M⁻¹r / b·M⁻¹b) ≤ tol, or None if no iterate does.
    ``rho_history`` ends one iteration before the accepted iterate, so
    r·M⁻¹r of that iterate is appended here.
    """
    x, rep = flexible_cg(op.matvec, apply_M, b, tol=tol, maxit=maxit)
    r = b - op.matvec(x)
    rho = np.array(rep.rho_history + [float(r @ apply_M(r))])
    hit = np.flatnonzero(np.sqrt(rho[1:] / rho[0]) <= tol)
    return {"it": rep.iterations, "converged": rep.converged,
            "it_minv": int(hit[0]) + 1 if hit.size else None,
            "kappa": rep.kappa}


def minv_spreads(table, meshes=ROBUST_MESHES):
    """Per-kind spread of the M⁻¹-norm counts over ``meshes``; asserts
    that every solve converged and reached the M⁻¹ target."""
    spreads = {}
    for kind in table[meshes[0]]:
        for n in table:
            cell = table[n][kind]
            assert cell["converged"] and cell["it_minv"] is not None, \
                f"{kind} at n={n}: M⁻¹ target not reached ({cell})"
        counts = [table[n][kind]["it_minv"] for n in meshes]
        spreads[kind] = max(counts) - min(counts)
    return spreads


def mesh_table_detail(table, spreads):
    """2-norm count / M⁻¹ count / κ per kind on every mesh."""
    return "; ".join(
        f"{k}: " + " ".join(
            f"n={n} {row[k]['it']}/{row[k]['it_minv']}/{row[k]['kappa']:.1f}"
            for n, row in table.items())
        + f" spread {spreads[k]}" for k in spreads)


def test_criterion_08_mesh_robustness():
    """M⁻¹-norm iteration counts spread by at most four over the meshes
    where the discretization has settled.

    The preconditioners are built from exact solves with diagonal blocks
    of the global matrix, so the spectrum of M⁻¹A is bounded
    independently of h (Powell & Elman 2009 prove it for mb).  The theory
    bounds the error in norms set by M⁻¹A; it says nothing about the
    unpreconditioned 2-norm residual on which the reported count stops,
    and that count keeps creeping up to n = 30.  The check therefore
    counts, in the same runs, the first iteration whose residual meets
    √(r·M⁻¹r / b·M⁻¹b) ≤ 1e-8, and fails if no iterate does.

    All six kinds are solved on n = 5, 10, 15, 20 and every mesh is
    printed, but the spread is asserted over n = 10, 15, 20: with 4×4
    interior nodes per block, n = 5 is pre-asymptotic and better
    conditioned than any finer mesh (mb κ 37.6 against 45–48).
    """
    meshes = (5,) + ROBUST_MESHES
    table = {}
    for n in meshes:
        op, b = desk_problem(n)
        table[n] = {kind: counted_solve(op, b,
                                        make_preconditioner(op, kind).apply)
                    for kind in KINDS}
    spreads = minv_spreads(table)
    detail = mesh_table_detail(table, spreads)
    assert all(s <= 4 for s in spreads.values()), \
        f"M⁻¹-norm spread over meshes {ROBUST_MESHES} exceeds 4 " \
        f"(cells it/it_minv/kappa) -- {detail}"
    print(f"[PASS] criterion 8 (it/it_minv/kappa, spread of it_minv over "
          f"{ROBUST_MESHES}): {detail}")


def test_criterion_08_control_point_jacobi():
    """Criterion 8 can fail: point Jacobi diag(G_0) ⊗ diag(K_0), whose
    spectrum grows as h shrinks, spreads by more than four."""
    table = {}
    for n in ROBUST_MESHES:
        op, b = build_problem(2, 2, n, 100.0)
        g0 = np.diag(g_matrix(0, op.tensor))
        scale = np.outer(g0, op.k_mats[0].diagonal()).ravel()
        table[n] = {"jacobi": counted_solve(op, b, lambda r: r / scale)}
    spreads = minv_spreads(table)
    detail = mesh_table_detail(table, spreads)
    assert spreads["jacobi"] > 4, f"control spread too small -- {detail}"
    print(f"[PASS] criterion 8 control: {detail}")


def test_criterion_09_cov_trend():
    """mb degrades monotonically with CoV; hierarchical kinds stay cheap
    at low CoV."""
    covs = (25.0, 50.0, 75.0, 100.0)
    mb = [desk_iterations(("mb",), cov=c)["mb"] for c in covs]
    assert all(a < b for a, b in zip(mb, mb[1:])), \
        f"mb not strictly increasing over CoV {covs}: {mb}"
    low = desk_iterations(("hs", "gs", "ahgs"), cov=25.0)
    assert all(v <= 12 for v in low.values()), f"CoV=25% counts {low}"
    print(f"[PASS] criterion 9: mb {mb}, CoV=25% {low}")


def test_criterion_10_fcg_pcg_agreement(small_instances):
    """Flexible and standard CG take identical iteration counts with
    every fixed preconditioner."""
    checked = 0
    for key, (op, b, _, _) in small_instances.items():
        for kind in KINDS:
            pre = make_preconditioner(op, kind)
            _, rf = flexible_cg(op.matvec, pre.apply, b, tol=1e-8)
            _, rp = pcg(op.matvec, pre.apply, b, tol=1e-8)
            assert rf.iterations == rp.iterations, \
                f"{key} {kind}: fcg {rf.iterations} != pcg {rp.iterations}"
            checked += 1
    print(f"[PASS] criterion 10: identical counts on {checked} "
          f"instance/preconditioner pairs")


def test_criterion_11_condition_estimator(small_instances):
    """The Lanczos condition estimate from a resolved solve is within 5%
    of the dense generalized eigenvalue route."""
    worst = 0.0
    for key, (op, _, _, _) in small_instances.items():
        A = op.assemble_global_dense()
        rng = np.random.default_rng(415)
        r = rng.standard_normal(op.n_global)
        for kind in KINDS:
            pre = make_preconditioner(op, kind)
            _, rep = flexible_cg(op.matvec, pre.apply, r, tol=1e-14,
                                 maxit=500)
            Minv = probe_matrix(pre.apply, op.n_global)
            M = np.linalg.inv(Minv)
            M = 0.5 * (M + M.T)
            w = sla.eigh(A, M, eigvals_only=True)
            kappa_true = w.max() / w.min()
            rel = abs(rep.kappa - kappa_true) / kappa_true
            assert rel <= 0.05, \
                f"{key} {kind}: est {rep.kappa:.4f} vs {kappa_true:.4f}"
            worst = max(worst, rel)
    print(f"[PASS] criterion 11: worst relative deviation {worst:.2e}")


def test_criterion_12_lognormal_expansion_decay():
    """Truncation error of the chaos expansion of exp(g) decreases
    monotonically with the expansion degree."""
    mesh = build_mesh(4)
    g0, sg = field_parameters(1.0, 1.0)
    kl = discrete_kl(mesh, ExponentialCovariance(sg, 0.5), 2, g0=g0)
    G = np.array([mesh.interpolate(m) for m in kl.modes])
    rng = np.random.default_rng(7)
    xis = rng.uniform(-2.0, 2.0, size=(10, 2))
    errs = []
    for pp in (2, 4, 6, 8):
        basis = multi_index_set(2, pp)
        values = gpc_coefficients(kl, basis, mesh).values(
            range(len(basis)))
        worst = 0.0
        for xi in xis:
            exact = np.exp(kl.g0 + np.tensordot(xi, G, axes=1))
            approx = np.zeros_like(exact)
            for pos, idx in enumerate(basis.indices):
                he = 1.0
                for d, p in enumerate(idx):
                    he *= hermite(p, xi[d])
                approx += values[pos] * he
            worst = max(worst, float(np.max(np.abs(approx - exact)
                                            / np.abs(exact))))
        errs.append(worst)
    assert all(a > b for a, b in zip(errs, errs[1:])), \
        f"errors not strictly decreasing: {errs}"
    print("[PASS] criterion 12: max rel errors "
          + ", ".join(f"{e:.2e}" for e in errs))
