"""Experiment driver: configs, sweep tables, counts, export, CLI."""

import math
import os
import tempfile

import numpy as np
import pytest
import scipy.io
from conftest import traced_memory
from hypothesis import given, settings
from hypothesis import strategies as st

import sgfem.experiments as experiments
import sgfem.linalg as linalg
from sgfem.chaos import build_c_tensor
from sgfem.cli import main
from sgfem.experiments import (
    ExperimentConfig,
    build_problem,
    count_pattern,
    emit_c_pattern,
    emit_norm_decay,
    export_case,
    load_config,
    matrix_norm,
    parse_config_text,
    report_csv,
    report_markdown,
    run_table,
)
from sgfem.fem import build_mesh, dirichlet_nnz
from sgfem.galerkin import (
    GalerkinOperator,
    full_truncation,
    standard_truncation,
)
from sgfem.krylov import flexible_cg
from sgfem.preconditioners import make_preconditioner

# a path that cannot be a directory: its parent is this file
UNDER_A_FILE = os.path.join(__file__, "out")

# small-but-real sweep setup used throughout; keeps each solve under a second
TINY = dict(N=2, P=2, n=4, cov_list=(25.0, 50.0), lt_list=(0, 1),
            tau_list=(1.0, 0.0), mesh_list=(3, 4), maxit=200)


def column(report, name) -> list:
    """The cells of one column of a report, row by row."""
    return [row[name] for row in report.rows]


class TestConfig:

    def test_defaults(self):
        c = ExperimentConfig()
        assert (c.N, c.P, c.n) == (4, 4, 10)
        assert c.tol == 1e-8
        assert c.mesh_list == (5, 10, 15, 20)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma mode"):
            ExperimentConfig(sigma_mode="median")
        with pytest.raises(ValueError, match="norm"):
            ExperimentConfig(norm="one")
        with pytest.raises(ValueError, match="preconditioner"):
            ExperimentConfig(preconds=("mb", "ilu"))

    @pytest.mark.parametrize("field, bad", [
        ("N", 0), ("P", -1), ("n", 0), ("tol", 0.0), ("tol", float("nan")),
        ("maxit", -3), ("mu_log", 0.0), ("mu_log", -2.0), ("L", -1.0),
        ("cov_list", (25.0, -5.0)), ("lt_list", (0, -1)),
        ("tau_list", (1.0, -0.5)), ("tau_list", (float("nan"),)),
        ("mesh_list", (3, 0)), ("cov_list", (0.0,)), ("cov_list", ()),
        ("preconds", ()), ("lt_list", ()), ("tau_list", ()),
        ("mesh_list", ()),
    ])
    def test_rejects_bad_field_naming_it(self, field, bad):
        with pytest.raises(ValueError, match=f"config field {field} must"):
            ExperimentConfig(**{field: bad})

    @pytest.mark.parametrize("field, bad", [
        ("tol", float("inf")), ("mu_log", float("inf")),
        ("L", float("inf")), ("cov_list", (50.0, float("inf"))),
    ])
    def test_rejects_non_finite_field_naming_it(self, field, bad):
        with pytest.raises(ValueError,
                           match=f"config field {field} must be finite"):
            ExperimentConfig(**{field: bad})

    def test_bad_sweep_entry_fails_before_any_solve(self, tmp_path):
        # the bad lt used to raise only after the rows before it solved
        p = tmp_path / "exp.cfg"
        p.write_text("N = 2\nP = 2\nn = 4\nlt_list = 0, 1, -1\n")
        with pytest.raises(ValueError, match="lt_list"):
            load_config(p)

    def test_parse_config_text(self):
        text = """
        # sweep setup
        N = 3
        P = 2   # trailing comment
        cov_list = 25, 50, 100
        preconds = mb, hs
        tol = 1e-10
        """
        vals = parse_config_text(text)
        assert vals["N"] == 3 and isinstance(vals["N"], int)
        assert vals["cov_list"] == (25.0, 50.0, 100.0)
        assert vals["preconds"] == ("mb", "hs")
        assert vals["tol"] == 1e-10

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("N = 2\nbogus line\n")
        with pytest.raises(ValueError, match="line 3.*frobnicate"):
            parse_config_text("N = 2\n\nfrobnicate = 7\n")

    def test_load_config_overrides_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("N = 3\nP = 3\nn = 6\n")
        c = load_config(p)
        assert (c.N, c.P, c.n) == (3, 3, 6)
        c = load_config(p, N=2, tol=1e-6)
        assert (c.N, c.P, c.n) == (2, 3, 6)
        assert c.tol == 1e-6
        # None overrides are "flag not given" and must not clobber the file
        c = load_config(p, N=None)
        assert c.N == 3

    def test_load_config_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            load_config(None, refinement=3)


class TestCounts:

    def test_pattern_examples(self):
        # dimension 4, degree 4 coefficient tensor, truncation degrees 3/0
        assert emit_c_pattern(4, 4, 3) == (1990, 2610)
        assert emit_c_pattern(4, 4, 0) == (70, 70)
        assert emit_c_pattern(1, 1, 0) == (2, 2)

    def test_degree_past_tensor_counts_as_2p(self):
        """The tensor has coefficients of degree up to 2P only: a larger
        truncation degree counts as 2P, and a huge one builds no index
        set (comb(4 + lt, lt) indices at N = 4)."""
        want = emit_c_pattern(1, 1, 2)
        assert [emit_c_pattern(1, 1, lt) for lt in (3, 5)] == [want] * 2
        want = emit_c_pattern(4, 1, 2)
        assert emit_c_pattern(4, 1, 10**9) == want
        _, peak = traced_memory(lambda: emit_c_pattern(4, 1, 10**9))
        assert peak < 1 << 20

    def test_full_truncation_counts_everything(self):
        tensor = build_c_tensor(2, 2, 4)
        trunc = full_truncation(tensor)
        nnz, n_mv = count_pattern(tensor, trunc.indices)
        assert n_mv == tensor.nnz
        m1 = len(tensor.jkset)
        dense = np.zeros((m1, m1), dtype=bool)
        dense[tensor.j, tensor.k] = True
        assert nnz == int(dense.sum())

    def test_mean_truncation_counts_diagonal(self):
        tensor = build_c_tensor(3, 2, 4)
        trunc = standard_truncation(3, 0)
        nnz, n_mv = count_pattern(tensor, trunc.indices)
        assert nnz == n_mv == len(tensor.jkset)


class TestNorms:

    def test_frobenius_matches_dense(self):
        op, _, _, _ = _small_op()
        K = op.k_mats[1]
        assert matrix_norm(K, "frob") == pytest.approx(
            np.linalg.norm(K.toarray(), "fro"), rel=1e-12)

    def test_two_norm_matches_dense(self):
        # Rayleigh quotients approach the true norm from below and the
        # estimate is only as sharp as the top singular-value gap
        op, _, _, _ = _small_op()
        for K in op.k_mats[:3]:
            got = matrix_norm(K, "two")
            want = np.linalg.norm(K.toarray(), 2)
            assert got <= want * (1.0 + 1e-12)
            assert got >= want * 0.995

    def test_unknown_norm_rejected(self):
        op, _, _, _ = _small_op()
        with pytest.raises(ValueError, match="norm"):
            matrix_norm(op.k_mats[0], "nuc")

    def test_norm_decay_reports(self):
        config = ExperimentConfig(**TINY)
        norms, weighted = emit_norm_decay(config)
        assert norms.columns == ("i", "norm")
        # one row per coefficient matrix, mean norm dominates
        assert len(norms.rows) == len(build_c_tensor(2, 2, 4).iset)
        vals = column(norms, "norm")
        assert vals[0] == max(vals) > 0
        # weighted matrix is symmetric: every (j,k) row has a (k,j) twin
        entries = {(r["j"], r["k"]): r["log10_weight"]
                   for r in weighted.rows}
        for (j, k), w in entries.items():
            assert entries[(k, j)] == pytest.approx(w, rel=1e-12)


def _small_op():
    from conftest import build_operator
    return build_operator(2, 2, 4, cov=0.5)


class TestSolveCase:
    """One preconditioned solve as a table cell and ``sg solve`` make it:
    ``make_preconditioner``, then ``flexible_cg``."""

    @staticmethod
    def solve(kind, tol, maxit):
        op, b, _, _ = _small_op()
        pre = make_preconditioner(op, kind)
        return flexible_cg(op.matvec, pre.apply, b, tol=tol, maxit=maxit)[1]

    def test_reports_iterations_and_kappa(self):
        rep = self.solve("mb", 1e-8, 200)
        assert rep.converged
        assert rep.iterations > 0
        assert rep.kappa >= 1.0

    def test_nonconvergence_is_reported_not_raised(self):
        rep = self.solve("mb", 1e-14, 2)
        assert not rep.converged
        assert rep.iterations == 2


class TestBuildProblemArguments:
    """Bad problem sizes fail fast with a message naming the argument."""

    def test_zero_dimensions(self):
        with pytest.raises(ValueError, match="n_modes = 0"):
            build_problem(0, 2, 4, 50.0)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="degree P must"):
            build_problem(2, -1, 4, 50.0)

    def test_nan_correlation_length(self):
        # refused by name, not by the KL eigensolve's symmetry check
        with pytest.raises(ValueError, match="correlation length L"):
            build_problem(2, 2, 4, 100.0, L=float("nan"))

    def test_oversized_problem_refused_before_any_work(self, monkeypatch):
        """K_0's data (65 pattern slots) and the Gauss-point data (64
        points of 4² + 4² + 3 doubles and 136 bytes) of N = 2, P = 3,
        n = 4 are checked against physical memory before the mesh is
        built."""
        need = 8 * 65 + 64 * (8 * 35 + 136)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)

        def no_mesh(n):
            raise AssertionError("mesh built")

        monkeypatch.setattr(experiments, "_cached_mesh", no_mesh)
        with pytest.raises(MemoryError) as exc:
            build_problem(2, 3, 4, 50.0)
        assert str(exc.value).startswith(
            f"the problem at N = 2, P = 3, n = 4, its K_0 and its "
            f"Gauss-point data, needs {need} bytes")
        # with the data fitting, the patched mesh is reached: the refusal
        # above came before it
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        with pytest.raises(AssertionError, match="mesh built"):
            build_problem(2, 3, 4, 50.0)

    @pytest.mark.parametrize("N,P,n", [(1, 0, 1), (1, 1, 2), (2, 3, 4),
                                       (3, 1, 5)])
    def test_checked_bytes_are_the_problem_data(self, N, P, n,
                                                monkeypatch):
        """The bytes build_problem checks are those of the K_0 data it
        assembles and at least those that the operator keeps once it has
        multiplied and filled a band: the stored factors A_q and B_q,
        n₁² + n₂² doubles a point for the half-grid sizes
        n₁ = C(⌊N/2⌋ + P, P) and n₂ = C(⌈N/2⌉ + P, P), which the band
        fills read too, the field's mean and modes, the gradient matrix,
        which has no entry in a fixed node's column, and the mesh's slot
        map.  The family's bytes, with the coefficient values, are
        checked by the operator when the family is built, not here."""
        checked, check = [], experiments.check_fits

        def recorded(need, *args):
            checked.append(need)
            return check(need, *args)

        monkeypatch.setattr(experiments, "check_fits", recorded)
        op, _ = build_problem(N, P, n, 50.0)
        mesh = build_mesh(n)
        points = len(mesh.elements) * 4
        k0 = 8 * dirichlet_nnz(n)
        n1, n2 = math.comb(N // 2 + P, P), math.comb(N - N // 2 + P, P)
        gauss = points * (8 * (n1 * n1 + n2 * n2 + N + 1) + 136)
        assert checked == [k0 + gauss]
        op.matvec(np.ones(op.n_global))
        op.assemble_level_block(range(op.M + 1))
        kept = (op._gauss._a.nbytes + op._gauss._b.nbytes
                + 8 * points * (N + 1)
                + sum(a.nbytes for a in op._gauss._d)
                + mesh.dirichlet_pattern[2].nbytes)
        assert kept <= gauss
        assert op.k_mats[0].data.nbytes == k0

    def test_gauss_point_data_alone_refused(self, monkeypatch):
        """At N = 1, P = 20, n = 2 the 41 coefficient fields and their
        stiffness data fit in 8200 bytes, but the 16 Gauss points keep
        1² + 21² = 442 doubles of A_q and B_q each: the problem, which
        builds no family, is refused for its Gauss-point data."""
        fields = 8 * 41 * (16 + 9)
        need = 8 * 9 + 16 * (8 * (442 + 2) + 136)
        assert fields < need
        monkeypatch.setattr(linalg, "physical_memory", lambda: need - 1)
        with pytest.raises(MemoryError, match=f"needs {need} bytes"):
            build_problem(1, 20, 2, 50.0)
        monkeypatch.setattr(linalg, "physical_memory", lambda: need)
        build_problem(1, 20, 2, 50.0)

    def test_oversized_problem_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "physical_memory", lambda: 1000)
        rc = main(["solve", "--precond", "mb", "--N", "2", "--P", "3",
                   "--n", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("sg solve: error: the problem at N = 2")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_more_modes_than_nodes(self):
        # n = 4 has 25 nodes; the check runs before the tensor of N = 26
        with pytest.raises(ValueError, match="25 nodes"):
            build_problem(26, 4, 4, 50.0)


def test_cached_tensor_refuses_writes():
    """Every problem of a process shares the cached tensor, so a write to
    one problem's tensor raises instead of changing the next problem."""
    op, _ = build_problem(2, 2, 3, 50.0)
    with pytest.raises(ValueError, match="read-only"):
        op.tensor.val[0] = 0.0
    assert build_problem(2, 2, 3, 50.0)[0].tensor is op.tensor

class TestTables:

    def test_logn_shape_and_ndof(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("mb", "gs")})
        rep = run_table(config, "logN")
        assert rep.columns[:2] == ("N", "ndof")
        assert column(rep, "N") == [1, 2]
        # block count times spatial dofs
        n_dof = (config.n + 1) ** 2
        m1 = [len(build_c_tensor(N, 2, 4).jkset) for N in (1, 2)]
        assert column(rep, "ndof") == [m * n_dof for m in m1]
        assert all(it > 0 for it in column(rep, "GS_it"))
        assert rep.rows[0]["nonconverged"] == ""

    def test_logcov_row_per_cov(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("hs",)})
        rep = run_table(config, "logCoV")
        assert column(rep, "cov") == [25.0, 50.0]
        assert all(k >= 1.0 for k in column(rep, "hS_kappa"))

    def test_logh_labels(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("gs",)})
        rep = run_table(config, "logh")
        assert column(rep, "h") == ["1/3", "1/4"]

    def test_trunc_std_counts_match_pattern(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("gs", "ahgs")})
        rep = run_table(config, "trunc-std")
        assert len(rep.rows) == len(config.cov_list) * len(config.lt_list)
        for row in rep.rows:
            _, n_mv = emit_c_pattern(config.N, config.P, row["lt"])
            assert row["nnz"] == n_mv

    def test_trunc_std_degree_past_tensor_repeats_2p_row(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("gs",),
                                     "cov_list": (50.0,),
                                     "lt_list": (4, 5, 9)})
        rows = run_table(config, "trunc-std").rows
        # the degree asked for is printed; the rest is the 2P = 4 row,
        # whose truncation keeps all comb(2 + 4, 4) coefficients
        assert [row.pop("lt") for row in rows] == [4, 5, 9]
        assert rows[0]["n_mats"] == 15
        assert rows[1] == rows[0] and rows[2] == rows[0]

    def test_trunc_adapt_monotone_in_tau(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("gs",)})
        rep = run_table(config, "trunc-adapt")
        by_cov = {}
        for row in rep.rows:
            by_cov.setdefault(row["cov"], []).append(row["n_mats"])
        for counts in by_cov.values():
            # smaller threshold keeps more matrices
            assert counts == sorted(counts)
            assert counts[-1] == len(build_c_tensor(2, 2, 4).iset)

    def test_oversized_setup_refused_before_the_rows_first_solve(
            self, monkeypatch):
        """Every kind's preconditioner of a row is made before the row's
        first solve: an hs whose level bands do not fit at n = 5 stops
        the table after the n = 4 row's four solves, before any solve of
        its own row.  At N = P = 4, hs's free-node bands at n = 5,
        1,337,856 bytes, outgrow the 378,560 bytes of K_0 and the
        Gauss-point data, which build_problem checks first, and the
        871,200 bytes of the stiffness family, which gs assembles."""
        solves, solve = [], experiments.flexible_cg

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "flexible_cg", counted)
        monkeypatch.setattr(linalg, "physical_memory", lambda: 1300000)
        config = ExperimentConfig(N=4, P=4, mesh_list=(4, 5),
                                  preconds=("mb", "kron", "gs", "hs"))
        with pytest.raises(MemoryError, match="hs's exact level solves"):
            run_table(config, "logh")
        assert len(solves) == 4

    @pytest.mark.parametrize("which,config,memory,refusal", [
        ("logN", dict(N=10, P=1, n=2), None,
         (ValueError, "the mesh has 9 nodes")),
        ("logh", dict(N=10, P=1, mesh_list=(3, 2)), None,
         (ValueError, "the mesh has 9 nodes")),
        ("logP", dict(N=2, P=3, n=4),
         8 * 65 + 64 * (8 * 35 + 136) - 1,
         (MemoryError, "the problem at N = 2, P = 3, n = 4"))],
        ids=["logN", "logh", "logP"])
    def test_swept_problem_refused_before_any_solve(
            self, which, config, memory, refusal, monkeypatch):
        """Every swept problem is checked before the first row is built:
        logN's N = 10 and logh's n = 2 ask for more KL modes than the
        mesh's 9 nodes, and logP's P = 3, whose Gauss-point data outgrow
        a memory that holds P = 2's; each refuses the table after 0
        solves, not after the rows before it."""
        solves, solve = [], experiments.flexible_cg

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "flexible_cg", counted)
        if memory is not None:
            monkeypatch.setattr(linalg, "physical_memory", lambda: memory)
        error, message = refusal
        with pytest.raises(error, match=message):
            run_table(ExperimentConfig(**config), which)
        assert solves == []

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown table"):
            run_table(ExperimentConfig(**TINY), "logk")

    def test_rerun_is_bit_identical(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("mb", "ahgs")})
        first = report_csv(run_table(config, "logCoV"))
        second = report_csv(run_table(config, "logCoV"))
        assert first == second


class TestReportFormats:

    def test_csv_and_markdown(self):
        config = ExperimentConfig(**{**TINY, "preconds": ("mb",)})
        rep = run_table(config, "logN")
        csv = report_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0] == ",".join(rep.columns)
        assert len(lines) == 1 + len(rep.rows)
        # kappa cells carry two decimals
        kcol = rep.columns.index("mb_kappa")
        cell = lines[1].split(",")[kcol]
        assert len(cell.split(".")[1]) == 2
        md = report_markdown(rep)
        assert md.startswith("| " + " | ".join(rep.columns))
        assert md.split("\n")[1].count("---") == len(rep.columns)


class TestExport:

    @settings(max_examples=12, deadline=None)
    @given(N=st.integers(1, 2), P=st.integers(0, 2), n=st.integers(1, 4),
           cov=st.floats(1.0, 150.0))
    def test_round_trip(self, N, P, n, cov):
        """scipy's Matrix Market reader gets every exported matrix back
        bit for bit: each K_i with its stored entries, explicit zeros
        included (the slots nonzero in some K_i), the load and the dense
        global matrix."""
        config = ExperimentConfig(N=N, P=P, n=n)
        op, b = build_problem(N, P, n, cov)
        with tempfile.TemporaryDirectory() as dest:
            manifest = export_case(config, dest, cov=cov, cap=op.n_global)
            backs = [scipy.io.mmread(manifest[f"k_{i:04d}"]).tocsr()
                     for i in range(len(op.k_mats))]
            load = scipy.io.mmread(manifest["load"]).toarray().ravel()
            A = scipy.io.mmread(manifest["global"]).toarray()
        for i, (back, K) in enumerate(zip(backs, op.k_mats)):
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(back, name),
                                      getattr(K, name)), (i, name)
        assert np.array_equal(load, b)
        assert np.array_equal(A, op.assemble_global_dense(op.n_global))
        # the exported dense global matrix acts like the operator
        v = np.random.default_rng(11).standard_normal(op.n_global)
        np.testing.assert_allclose(A @ v, op.matvec(v), rtol=1e-12,
                                   atol=1e-14)

    def test_oversized_global_refused_before_any_file(self, tmp_path,
                                                      monkeypatch):
        """The dense global matrix of N = P = 2, n = 4, 150² doubles, is
        checked against physical memory before the destination is made;
        the problem's own 15,480 bytes fit."""
        monkeypatch.setattr(linalg, "physical_memory", lambda: 100000)
        dest = tmp_path / "case"
        with pytest.raises(MemoryError) as exc:
            export_case(ExperimentConfig(**TINY), dest, cap=150)
        assert str(exc.value).startswith(
            "the dense global matrix of 150 rows needs 180000 bytes")
        assert "a cap below 150 skips it" in str(exc.value)
        assert not dest.exists()
        # a cap that skips the dense matrix exports the rest
        manifest = export_case(ExperimentConfig(**TINY), dest, cap=149)
        assert manifest["global"].startswith("refused")

    def test_cap_refusal_names_required_cap(self, tmp_path):
        config = ExperimentConfig(**TINY)
        manifest = export_case(config, tmp_path / "case", cap=10)
        op, _ = build_problem(2, 2, 4, 100.0)
        msg = manifest["global"]
        assert msg.startswith("refused")
        assert str(op.n_global) in msg
        assert f"cap >= {op.n_global}" in msg
        assert not os.path.exists(tmp_path / "case" / "global.mtx")

    def test_export_assembles_the_family_once(self, tmp_path, monkeypatch,
                                              capsys):
        """``sg export --N 2 --P 1 --n 3``, whose 48-row dense matrix is
        under the default cap, assembles the family once, for its K_i
        files and the dense matrix both, and writes that matrix."""
        purposes, family = [], GalerkinOperator.family

        def recorded(op, indices, purpose):
            purposes.append(purpose)
            return family(op, indices, purpose)

        monkeypatch.setattr(GalerkinOperator, "family", recorded)
        dest = tmp_path / "case"
        assert main(["export", "--N", "2", "--P", "1", "--n", "3",
                     "--dest", str(dest)]) == 0
        assert purposes == ["sg export"]
        assert (dest / "global.mtx").exists()
        assert "global: " in capsys.readouterr().out

    def test_io_error_carries_path(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        with pytest.raises(OSError, match="occupied"):
            export_case(ExperimentConfig(**TINY), blocker)


class TestCli:

    def test_cpattern_stdout(self, capsys):
        assert main(["cpattern", "--N", "4", "--P", "4", "--lt", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "N,P,lt,nnz,n_mv"
        assert out.splitlines()[1] == "4,4,3,1990,2610"

    def test_tables_to_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 1\nP = 1\nn = 3\npreconds = mb, gs\n")
        out = tmp_path / "t.csv"
        rc = main(["tables", "logN", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("N,ndof,mb_it,mb_kappa,GS_it")
        assert len(lines) == 2  # header plus the N=1 row
        assert "wrote" in capsys.readouterr().out

    def test_tables_markdown(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 1\nP = 1\nn = 3\npreconds = gs\n")
        rc = main(["tables", "logN", "--config", str(cfg), "--markdown"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("| N | ndof |")

    @pytest.mark.parametrize("which", ["trunc-std", "trunc-adapt"])
    def test_trunc_table_without_a_trunc_kind_refused(self, which, tmp_path,
                                                      capsys, monkeypatch):
        """A truncation table compares hs, ahs, gs and ahgs; preconds
        that name none of them are refused before any problem is built,
        with one error line and exit status 2."""
        def no_build(*args, **kwargs):
            raise AssertionError("problem built before the refusal")

        monkeypatch.setattr(experiments, "build_problem", no_build)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("preconds = mb, kron\n")
        rc = main(["tables", which, "--config", str(cfg), "--N", "1",
                   "--P", "1", "--n", "2"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.splitlines() == [
            f"sg tables: error: the {which} table compares hs, ahs, gs, "
            f"ahgs; preconds names none of them"]

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 3\nP = 1\nn = 3\npreconds = gs\n")
        rc = main(["tables", "logN", "--config", str(cfg), "--N", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 3  # header plus N in {1, 2}

    def test_solve_lt_and_tau_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--precond", "gs", "--lt", "1", "--tau", "0.5"])
        capsys.readouterr()

    def test_solve_stdout(self, capsys):
        rc = main(["solve", "--precond", "ahgs", "--lt", "1",
                   "--cov", "50", "--n", "3", "--N", "2", "--P", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        head = lines[0].split(",")
        row = dict(zip(head, lines[1].split(",")))
        assert row["precond"] == "ahgs"
        assert row["converged"] == "True"
        assert int(row["it"]) > 0

    def test_solve_lt_past_coefficient_degree(self, capsys):
        # lt + 1 indices at N = 1 would not fit in int64 for the last lt:
        # a degree past 2P counts as 2P and builds no index set
        huge = str(10**19)
        rows = {}
        for lt in ("2", "3", huge):
            assert main(["solve", "--precond", "gs", "--lt", lt,
                         "--n", "2", "--N", "1", "--P", "1"]) == 0
            head, line = capsys.readouterr().out.strip().split("\n")
            rows[lt] = dict(zip(head.split(","), line.split(",")))
            assert rows[lt].pop("lt") == lt
        assert rows["3"] == rows["2"] == rows[huge]

    def test_solve_nan_tau_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--precond", "gs", "--tau", "nan", "--n", "3",
                  "--N", "1", "--P", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == \
            "sg solve: error: argument --tau: must be >= 0, got nan"

    @pytest.mark.parametrize("argv,message", [
        (["cpattern", "--N", "0", "--P", "1", "--lt", "0"],
         "sg cpattern: error: argument --N: must be >= 1, got 0"),
        (["cpattern", "--N", "1", "--P", "-1", "--lt", "0"],
         "sg cpattern: error: argument --P: must be >= 0, got -1"),
        (["cpattern", "--N", "1", "--P", "1", "--lt", "-2"],
         "sg cpattern: error: argument --lt: must be >= 0, got -2"),
        (["cpattern", "--N", "x", "--P", "1", "--lt", "0"],
         "sg cpattern: error: argument --N: invalid int value: 'x'"),
        (["solve", "--precond", "gs", "--lt", "-1"],
         "sg solve: error: argument --lt: must be >= 0, got -1"),
        (["solve", "--precond", "gs", "--tau", "-1"],
         "sg solve: error: argument --tau: must be >= 0, got -1"),
        (["solve", "--precond", "gs", "--n", "x"],
         "sg solve: error: argument --n: invalid int value: 'x'"),
        (["solve", "--precond", "gs", "--cov", "-5"],
         "sg solve: error: argument --cov: must be > 0, got -5"),
        (["export", "--dest", "out", "--cov", "nan"],
         "sg export: error: argument --cov: must be > 0, got nan"),
        (["solve", "--precond", "gs", "--cov", "0"],
         "sg solve: error: argument --cov: must be > 0, got 0"),
        (["export", "--dest", "out", "--cov", "0"],
         "sg export: error: argument --cov: must be > 0, got 0"),
        (["export", "--dest", "out", "--cap", "-5"],
         "sg export: error: argument --cap: must be >= 0, got -5"),
        # output paths are checked before any problem is built
        (["solve", "--precond", "mb", "--N", "1", "--P", "1", "--n", "2",
          "--out", "no/such/dir/x.csv"],
         "sg solve: error: argument --out: cannot write to "
         "no/such/dir/x.csv: No such file or directory"),
        (["tables", "logN", "--out", "no/such/dir/t.csv"],
         "sg tables: error: argument --out: cannot write to "
         "no/such/dir/t.csv: No such file or directory"),
        (["cpattern", "--N", "1", "--P", "1", "--lt", "0", "--out",
          os.path.dirname(__file__)],
         f"sg cpattern: error: argument --out: cannot write to "
         f"{os.path.dirname(__file__)}: Is a directory"),
        (["norms", "--out", "no/such/dir/pre"],
         "sg norms: error: argument --out: cannot write to "
         "no/such/dir/pre_norms.csv: No such file or directory"),
        (["export", "--dest", UNDER_A_FILE],
         f"sg export: error: argument --dest: cannot write to "
         f"{UNDER_A_FILE}: Not a directory"),
    ])
    def test_bad_argument_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == message
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "--precond", "gs", "--cov", "inf"],
        ["export", "--dest", "out", "--cov", "inf"],
    ])
    def test_infinite_cov_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"sg {argv[0]}: error: argument --cov: must be finite, got inf")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["tables", "logN", "--N", "0"],
         "config field N must be >= 1, got 0"),
        (["solve", "--precond", "gs", "--tol", "0"],
         "config field tol must be > 0, got 0.0"),
        (["solve", "--precond", "gs", "--config", "no/such/exp.cfg"],
         "cannot read config file no/such/exp.cfg: No such file or "
         "directory"),
        (["solve", "--precond", "gs", "--n", "0"],
         "config field n must be >= 1, got 0"),
    ])
    def test_bad_config_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"sg: error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("line,message", [
        ("cov_list = 0", "config field cov_list must be > 0, got (0.0,)"),
        ("cov_list =", "config field cov_list must have at least one entry"),
        ("N = abc",
         "line 4: N: invalid literal for int() with base 10: 'abc'"),
    ])
    def test_bad_config_file_is_a_usage_error(self, tmp_path, capsys, line,
                                              message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"N = 2\nP = 2\nn = 3\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["norms", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"sg: error: {message}\n"
        assert captured.out == ""

    def test_unreadable_config_line_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["tables", "logN", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("sg: error: line 1:")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["solve", "--precond", "hs"],
                                         ["tables", "logh"]],
                             ids=["solve", "tables"])
    def test_solve_oversized_level_band_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, command):
        cfg = tmp_path / "exp.cfg"
        # hs's bands need 1,337,856 bytes, the problem 1,245,600
        cfg.write_text("N = 4\nP = 4\nn = 5\nmesh_list = 5\n"
                       "preconds = hs\n")
        monkeypatch.setattr(linalg, "physical_memory", lambda: 1300000)
        rc = main(command + ["--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"sg {command[0]}: error: band factor of ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""

    def test_export_oversized_global_is_one_error_line(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "physical_memory", lambda: 100000)
        dest = tmp_path / "case"
        rc = main(["export", "--N", "2", "--P", "2", "--n", "4",
                   "--dest", str(dest), "--cap", "100000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "sg export: error: the dense global matrix of 150 rows")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""
        assert not dest.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--precond", "mb", "--N", "10", "--P", "1", "--n", "2"],
        ["tables", "logN", "--N", "10", "--P", "1", "--n", "2"],
        ["export", "--N", "12", "--P", "1", "--n", "2"],
    ], ids=["solve", "tables", "export"])
    def test_problem_the_library_rejects_is_a_usage_error(
            self, tmp_path, capsys, argv):
        """More KL modes than the mesh's 9 nodes pass the config checks
        and reach build_problem, which rejects them: one error line and
        exit status 2, no rows and no files.  logN refuses before it
        solves the rows N = 1 to 9."""
        dest = tmp_path / "case"
        if argv[0] == "export":
            argv = argv + ["--dest", str(dest)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"sg {argv[0]}: error: n_modes = {argv[argv.index('--N') + 1]} "
            f"KL modes requested; the mesh has 9 nodes, so 1 to 9 are "
            f"possible\n")
        assert captured.out == ""
        assert not dest.exists()

    def test_solve_not_converged_has_its_own_status(self, capsys):
        rc = main(["solve", "--precond", "gs", "--N", "1", "--P", "1",
                   "--n", "2", "--maxit", "0"])
        assert rc == 3
        head, line = capsys.readouterr().out.strip().split("\n")
        assert dict(zip(head.split(","), line.split(",")))["converged"] \
            == "False"

    def test_solve_unknown_precond_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--precond", "ilu", "--n", "3"])
        capsys.readouterr()

    def test_norms_writes_two_files(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 2\nP = 2\nn = 3\ncov_list = 50\n")
        rc = main(["norms", "--config", str(cfg),
                   "--out", str(tmp_path / "nd")])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "nd_norms.csv").exists()
        assert (tmp_path / "nd_weighted.csv").exists()

    def test_export_prints_manifest(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 1\nP = 1\nn = 3\n")
        rc = main(["export", "--config", str(cfg),
                   "--dest", str(tmp_path / "case"), "--cap", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "c_tensor:" in out
        assert "refused" in out

    def test_rerun_bit_identical_through_cli(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 2\nP = 1\nn = 3\ncov_list = 50, 100\n"
                       "preconds = mb, hs\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["tables", "logCoV", "--config", str(cfg),
                     "--out", str(a)]) == 0
        assert main(["tables", "logCoV", "--config", str(cfg),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
