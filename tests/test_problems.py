import numpy as np
import pytest

from expriccati.errors import DimensionError, DomainError, MatrixFormatError, UsageError
from expriccati.integrators import RiccatiProblem
from expriccati.problems import (
    fdm2d_matrix,
    fdm_nonsym,
    fdm_sym,
    load_problem,
    problem_from_spec,
    random_lowrank,
    scalar_tanh_problem,
)

from helpers import fdm2d_reference, rel_err, save_problem, splitmix64_reference

# Seeds of every kind the stream must reduce mod 2^64 the same way: small,
# the benchmark's 20240 + j * 1000003, negative, and 2^63 and beyond.
SEEDS = [0, 1, 7, 20240, 20241, 20242, -1, -20240, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
         2 ** 70 + 3, 20240 + 3 * 1000003]
SHAPES = [(0, 0), (8, 0), (1, 1), (2, 2), (16, 3), (64, 2), (100, 2), (400, 2)]
FIELDS = {
    "none": (None, None),
    "benchmark": (lambda x, y: 10.0 * x, lambda x, y: 100.0 * y),
    "constant": (lambda x, y: 3.0, lambda x, y: -2.0),
    "bilinear": (lambda x, y: x * y - 0.3, lambda x, y: x * y - 0.3),
}


class TestFdmMatrix:
    def test_single_interior_node(self):
        assert np.array_equal(fdm_sym(1), [[-16.0]])

    def test_two_by_two_hand_stencil(self):
        # spacing 1/3: diagonal -4 * 9, neighbors +9
        expected = np.array(
            [
                [-36.0, 9.0, 9.0, 0.0],
                [9.0, -36.0, 0.0, 9.0],
                [9.0, 0.0, -36.0, 9.0],
                [0.0, 9.0, 9.0, -36.0],
            ]
        )
        assert np.array_equal(fdm_sym(2), expected)

    def test_laplacian_spectrum_closed_form(self):
        k = 8
        a = fdm_sym(k)
        spacing = 1.0 / (k + 1)
        exact = sorted(
            -(4.0 / spacing ** 2)
            * (np.sin(i * np.pi * spacing / 2) ** 2 + np.sin(j * np.pi * spacing / 2) ** 2)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
        )
        computed = np.sort(np.linalg.eigvalsh(a))
        assert np.allclose(computed, exact, rtol=1e-10)
        # Largest eigenvalue is the slow corner mode.
        assert computed[-1] == pytest.approx(
            -(2.0 / spacing ** 2) * (2.0 - 2.0 * np.cos(np.pi * spacing)), rel=1e-12
        )

    def test_symmetric_negative_definite_small(self):
        for k in (2, 5, 12):
            a = fdm_sym(k)
            assert np.array_equal(a, a.T)
            assert np.linalg.eigvalsh(a).max() < 0.0

    def test_gershgorin_bound_larger_grids(self):
        for k in (20, 50):
            a = fdm_sym(k)
            assert np.array_equal(a, a.T)
            radii = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
            assert np.all(np.diag(a) + radii <= 1e-9)

    def test_nonsym_structure(self):
        k = 8
        sym = fdm_sym(k)
        nonsym = fdm_nonsym(k)
        assert np.abs(nonsym - nonsym.T).max() > 1.0
        # Differences live on the convection stencil entries only.
        assert np.array_equal(np.diag(nonsym), np.diag(sym))
        assert ((nonsym != sym) <= (sym != 0)).all()
        # With node-evaluated convection coefficients the symmetric part
        # deviates from the diffusion matrix by at most f'/4 per entry.
        deviation = (nonsym + nonsym.T) / 2 - sym
        assert np.abs(deviation).max() <= 25.0 + 1e-9

    def test_constant_convection_is_antisymmetric(self):
        a = fdm2d_matrix(5, fx=lambda x, y: 3.0, fy=lambda x, y: -2.0)
        sym_part = (a + a.T) / 2
        assert rel_err(sym_part, fdm_sym(5)) <= 1e-14

    def test_zero_grid_rejected(self):
        with pytest.raises(DomainError):
            fdm2d_matrix(0)

    @pytest.mark.parametrize("fields", FIELDS.values(), ids=FIELDS.keys())
    def test_bitwise_equal_to_the_point_loop(self, fields):
        for k in range(1, 31):
            assert np.array_equal(fdm2d_matrix(k, *fields), fdm2d_reference(k, *fields)), k


class TestRandomLowrank:
    def test_deterministic(self):
        a = random_lowrank(16, 3, seed=42)
        b = random_lowrank(16, 3, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_lowrank(16, 3, seed=43))

    def test_golden_values_pin_the_stream(self):
        # First draws of the SplitMix64 stream for seed 1, column-major fill.
        out = random_lowrank(2, 2, seed=1)
        golden = np.array(
            [
                [0.566561575172281, 0.9710027535867962],
                [0.7457817572627012, 0.44435921705577214],
            ]
        )
        assert np.array_equal(out, golden)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_equal_to_the_stateful_stream(self, seed):
        for n, r in SHAPES:
            assert np.array_equal(random_lowrank(n, r, seed), splitmix64_reference(n, r, seed)), (n, r)

    def test_uniform_range_and_column_norms(self):
        out = random_lowrank(64, 2, seed=7)
        assert out.min() > 0.0 and out.max() < 1.0
        norms = np.linalg.norm(out, axis=0)
        assert np.all(norms > 0.0) and np.all(norms < np.sqrt(64.0))

    def test_zero_width(self):
        assert random_lowrank(8, 0, seed=0).shape == (8, 0)

    def test_too_many_columns_rejected(self):
        with pytest.raises(DomainError):
            random_lowrank(3, 4, seed=0)


class TestBuildSymmetricProblem:
    def test_lyapunov_special_case(self):
        n = 5
        rng = np.random.default_rng(1)
        p = RiccatiProblem(
            A=rng.standard_normal((n, n)), C=rng.standard_normal((2, n)),
            B=np.zeros((n, 1)), L0=rng.standard_normal((n, 2)), symmetric=True,
        )
        assert np.array_equal(p.G, np.zeros((n, n)))

    def test_zero_width_initial_factor(self):
        n = 4
        rng = np.random.default_rng(2)
        p = RiccatiProblem(
            A=rng.standard_normal((n, n)), C=rng.standard_normal((2, n)),
            B=rng.standard_normal((n, 2)), L0=np.zeros((n, 0)), symmetric=True,
        )
        assert np.array_equal(p.X0, np.zeros((n, n)))
        assert p.initial_factor().rank == 0

    def test_invariants_on_generated_problem(self):
        p = problem_from_spec("fdm-sym:k=8", seed=3)
        n = 64
        assert p.symmetric
        assert np.array_equal(p.D, p.A.T)
        assert rel_err(p.Q, p.C.T @ p.C) <= 1e-15
        assert rel_err(p.G, p.B @ p.B.T) <= 1e-15
        assert np.linalg.eigvalsh(p.Q).min() >= -1e-12
        assert np.linalg.eigvalsh(p.G).min() >= -1e-12
        assert p.A.shape == (n, n)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            RiccatiProblem(A=np.eye(3), C=np.eye(2), B=np.zeros((3, 1)), L0=np.zeros((3, 0)),
                           symmetric=True)


class TestProblemSpec:
    def test_tanh(self):
        p = problem_from_spec("tanh")
        assert p.A.shape == (1, 1)
        assert p.Q[0, 0] == 1.0 and p.G[0, 0] == 1.0

    def test_seed_changes_fixtures(self):
        p1 = problem_from_spec("fdm-sym:k=4", seed=1)
        p2 = problem_from_spec("fdm-sym:k=4", seed=2)
        assert np.array_equal(p1.A, p2.A)
        assert not np.array_equal(p1.B, p2.B)

    def test_rank_option(self):
        p = problem_from_spec("fdm-sym:k=4,rank=3", seed=1)
        assert p.B.shape == (16, 3)

    def test_unknown_spec_rejected(self):
        with pytest.raises(UsageError):
            problem_from_spec("heat-cube:k=3")

    def test_malformed_option_rejected(self):
        with pytest.raises(UsageError):
            problem_from_spec("fdm-sym:k=abc")
        with pytest.raises(UsageError):
            problem_from_spec("fdm-sym:points=4")

    def test_repeated_option_rejected(self):
        with pytest.raises(UsageError, match="repeated"):
            problem_from_spec("fdm-sym:k=2,k=3")
        with pytest.raises(UsageError, match="repeated"):
            problem_from_spec("fdm-nonsym:k=3,rank=1,rank=2")

    @pytest.mark.parametrize("spec", ["fdm-sym:k=3,rnak=5", "fdm-nonsym:k=3,seed=1"])
    def test_unknown_option_rejected(self, spec):
        # A misspelt rank would otherwise build the default rank 2.
        with pytest.raises(UsageError, match=r"unknown option .*valid: k, rank"):
            problem_from_spec(spec)


class TestLoadSave:
    def test_roundtrip_bitwise(self, tmp_path):
        p = problem_from_spec("fdm-sym:k=3", seed=9)
        save_problem(tmp_path / "prob", p)
        q = load_problem(tmp_path / "prob")
        for name in ("A", "D", "Q", "G", "X0", "B", "C", "L0"):
            assert np.array_equal(getattr(p, name), getattr(q, name)), name

    def test_file_spec_loader(self, tmp_path):
        p = problem_from_spec("fdm-sym:k=2", seed=4)
        save_problem(tmp_path / "prob", p)
        q = problem_from_spec(f"file:{tmp_path / 'prob'}")
        assert np.array_equal(p.A, q.A)

    def test_missing_initial_factor_means_zero(self, tmp_path):
        p = problem_from_spec("fdm-sym:k=2", seed=4)
        save_problem(tmp_path / "prob", p)
        (tmp_path / "prob" / "L0.mtx").unlink()
        (tmp_path / "prob" / "D0.mtx").unlink()
        q = load_problem(tmp_path / "prob")
        assert np.array_equal(q.X0, np.zeros((4, 4)))

    def test_missing_required_file_rejected(self, tmp_path):
        p = problem_from_spec("fdm-sym:k=2", seed=4)
        save_problem(tmp_path / "prob", p)
        (tmp_path / "prob" / "B.mtx").unlink()
        with pytest.raises(MatrixFormatError):
            load_problem(tmp_path / "prob")

    def test_tanh_problem_roundtrip(self, tmp_path):
        p = scalar_tanh_problem()
        save_problem(tmp_path / "tanh", p)
        q = load_problem(tmp_path / "tanh")
        assert np.array_equal(p.Q, q.Q)
        assert q.initial_factor().rank == 0
