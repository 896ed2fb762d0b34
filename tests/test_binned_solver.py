"""Four-corners matrix, ghost nodes, binning, evolution, and spectra."""

import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm, lu_factor, lu_solve

from linkedkde import (
    BinnedDensity,
    BinnedGrid,
    backward_euler_evolve,
    bin_samples,
    build_four_corners,
    eval_series_solution,
    ghost_values,
    matrix_exponential_evolve,
    spectral_data,
    stationary_density,
    truncation_bound,
)
from linkedkde.series_solver import transforms_from_functions


def parabolic_transforms(t):
    def c0(k):
        out = np.ones_like(k)
        out[1:] = -24.0 / (11.0 * k[1:] ** 2)
        return out

    def s0(k):
        out = np.zeros_like(k)
        out[1:] = 6.0 / (11.0 * k[1:])
        return out

    def s1(k):
        out = np.zeros_like(k)
        out[1:] = -6.0 / (11.0 * k[1:]) - 72.0 / (11.0 * k[1:] ** 3)
        return out

    return transforms_from_functions(c0, s0, s1, truncation_bound(t))


class TestFourCorners:
    def test_exact_entries_m3_r2(self):
        dense = build_four_corners(3, 2.0).to_dense()
        expected = np.array(
            [
                [4.0 / 3.0, -1.0, -2.0 / 3.0],
                [-1.0, 2.0, -1.0],
                [-1.0 / 3.0, -1.0, 5.0 / 3.0],
            ]
        )
        assert dense == pytest.approx(expected, abs=1e-15)

    def test_symmetric_at_unit_ratio(self):
        dense = build_four_corners(3, 1.0).to_dense()
        assert dense == pytest.approx(dense.T, abs=0.0)
        assert dense == pytest.approx(
            np.array([[1.5, -1.0, -0.5], [-1.0, 2.0, -1.0], [-0.5, -1.0, 1.5]]), abs=1e-15
        )

    def test_zero_column_sums(self):
        for m, r in [(50, 0.5), (2, 2.0), (7, 0.0), (13, 10.0)]:
            dense = build_four_corners(m, r).to_dense()
            assert np.abs(dense.sum(axis=0)).max() <= 1e-15

    def test_sign_pattern(self):
        dense = build_four_corners(9, 3.0).to_dense()
        off = dense - np.diag(np.diag(dense))
        assert off.max() <= 0.0
        assert np.diag(dense).min() > 0.0

    def test_matvec_matches_dense(self):
        a = build_four_corners(11, 0.7)
        rng = np.random.default_rng(0)
        v = rng.normal(size=11)
        assert a.matvec(v) == pytest.approx(a.to_dense() @ v, abs=1e-13)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_four_corners(1, 2.0)


class TestGhosts:
    def test_paper_substitution(self):
        assert ghost_values(1.0, 1.0, 2.0) == pytest.approx((4.0 / 3.0, 2.0 / 3.0))

    def test_periodic_midpoint(self):
        u0, um1 = ghost_values(0.3, 0.8, 1.0)
        assert u0 == um1 == pytest.approx(0.55)

    def test_zero_data(self):
        assert ghost_values(0.0, 0.0, 7.3) == (0.0, 0.0)

    def test_ratio_identity_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u1, um = rng.random(2)
            r = float(rng.random() * 10)
            u0, um1 = ghost_values(u1, um, r)
            assert u0 == r * um1  # exact, by construction

    def test_slope_identity(self):
        u0, um1 = ghost_values(0.4, 0.9, 2.0)
        assert (0.4 - u0) == pytest.approx(um1 - 0.9, abs=1e-16)


class TestBinning:
    def test_sample_on_node_is_not_split(self):
        bd = bin_samples([0.2], 9, r=1.0)
        expected = np.zeros(9)
        expected[1] = 10.0  # 1/h with h = 0.1
        assert bd.interior == pytest.approx(expected)

    def test_midpoint_sample_splits_evenly(self):
        bd = bin_samples([0.35], 9, r=1.0)
        assert bd.interior[2] == pytest.approx(5.0)
        assert bd.interior[3] == pytest.approx(5.0)
        assert bd.interior.sum() == pytest.approx(10.0)

    def test_boundary_weight_folds_inward(self):
        bd = bin_samples([0.0, 1.0], 9, r=2.0)
        assert bd.interior[0] == pytest.approx(5.0)
        assert bd.interior[-1] == pytest.approx(5.0)

    def test_uniform_samples_law_of_large_numbers(self):
        m, n = 99, 10_000
        rng = np.random.default_rng(4)
        bd = bin_samples(rng.random(n), m, r=1.0)
        h = bd.grid.h
        band = 5.0 * np.sqrt(1.0 / (n * h))
        # interior nodes fluctuate around one ...
        assert np.abs(bd.interior[1:-1] - 1.0).max() <= band
        # ... while the first and last node also receive the folded boundary
        # weight, whose expected share is half a tent (one half extra).
        assert bd.interior[0] == pytest.approx(1.5, abs=band)
        assert bd.interior[-1] == pytest.approx(1.5, abs=band)
        assert bd.interior.sum() * h == pytest.approx(1.0, abs=1e-12)

    def test_discrete_mass_is_exactly_one_over_h(self):
        rng = np.random.default_rng(9)
        bd = bin_samples(rng.random(137), 31, r=0.5)
        assert bd.interior.sum() == pytest.approx(1.0 / bd.grid.h, rel=1e-14)

    def test_grid_derived_quantities(self):
        grid = BinnedGrid(99)
        assert grid.h == 0.01
        assert grid.dt == 2.0 * grid.h * grid.h
        with pytest.raises(ValueError):
            BinnedGrid(1)


class TestBackwardEuler:
    def test_stationary_vector_is_fixed_point(self):
        m, r = 40, 2.0
        w0 = spectral_data(m, r).stationary
        u = BinnedDensity(grid=BinnedGrid(m), interior=w0, r=r)
        evolved = backward_euler_evolve(u, 0.173)
        assert np.abs(evolved.interior - w0).max() <= 1e-12

    def test_uniform_is_fixed_point_at_unit_ratio(self):
        u = BinnedDensity(grid=BinnedGrid(25), interior=np.ones(25), r=1.0)
        evolved = backward_euler_evolve(u, 0.08)
        assert np.abs(evolved.interior - 1.0).max() <= 1e-12

    def test_mass_conserved_and_positive_for_point_mass(self):
        m = 99
        grid = BinnedGrid(m)
        interior = np.zeros(m)
        interior[0] = 1.0 / grid.h
        u = BinnedDensity(grid=grid, interior=interior, r=2.0)
        evolved = backward_euler_evolve(u, 0.01)
        assert evolved.interior.sum() == pytest.approx(interior.sum(), rel=1e-12)
        assert evolved.interior.min() >= -1e-14

    @pytest.mark.parametrize("T", [1e300, 1e308, sys.float_info.max])
    def test_step_count_past_any_double_gives_the_stationary_profile(self, T):
        # T / dt overflows to inf here; from about 19 (m + 1)^2 steps every
        # decaying mode is already 0
        m = 99
        u = BinnedDensity(grid=BinnedGrid(m), interior=np.random.default_rng(m).random(m), r=2.0)
        assert np.array_equal(backward_euler_evolve(u, T).interior, backward_euler_evolve(u, 1e3).interior)
        assert np.abs(backward_euler_evolve(u, T).interior - matrix_exponential_evolve(u, T).interior).max() <= 1e-14

    def test_total_time_not_multiple_of_dt(self):
        # one shortened final step keeps the total time exact; compare with
        # the dense propagator product
        m, r = 8, 0.5
        grid = BinnedGrid(m)
        rng = np.random.default_rng(3)
        vals = rng.random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        T = 2.6 * grid.dt
        evolved = backward_euler_evolve(u, T)
        a = build_four_corners(m, r).to_dense()
        step = np.linalg.inv(np.eye(m) + a)
        last = np.linalg.inv(np.eye(m) + 0.6 * a)
        expected = last @ step @ step @ vals
        assert evolved.interior == pytest.approx(expected, abs=1e-12)

    def test_short_horizon_single_partial_step(self):
        m, r = 8, 0.5
        grid = BinnedGrid(m)
        vals = np.linspace(0.5, 1.5, m)
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        T = 0.3 * grid.dt
        evolved = backward_euler_evolve(u, T)
        a = build_four_corners(m, r).to_dense()
        expected = np.linalg.solve(np.eye(m) + 0.3 * a, vals)
        assert evolved.interior == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 1e6])
    @pytest.mark.parametrize("m", [199, 399])
    def test_mass_holds_over_many_steps(self, m, r):
        grid = BinnedGrid(m)
        interior = np.zeros(m)
        interior[0] = 1.0 / grid.h
        u = BinnedDensity(grid=grid, interior=interior, r=r)
        evolved = backward_euler_evolve(u, 20_000 * grid.dt)
        assert abs(grid.h * evolved.interior.sum() - 1.0) <= 1e-12
        assert evolved.interior.min() >= 0.0

    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 2.0, 1e6])
    @pytest.mark.parametrize("m", [3, 8, 40])
    def test_many_steps_match_dense_propagator_product(self, m, r):
        grid = BinnedGrid(m)
        vals = np.random.default_rng(m).random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        evolved = backward_euler_evolve(u, 100.4 * grid.dt)
        a = build_four_corners(m, r).to_dense()
        step = np.linalg.matrix_power(np.linalg.inv(np.eye(m) + a), 100)
        last = np.linalg.inv(np.eye(m) + 0.4 * a)
        assert np.abs(evolved.interior - last @ (step @ vals)).max() <= 1e-12

    @pytest.mark.parametrize("r", [0.0, 2.0, 1e6])
    @pytest.mark.parametrize("m", [200, 400])
    def test_thousand_steps_match_dense_solves(self, m, r):
        # a point mass keeps the decaying modes at the size of the result;
        # lambda = 2 - 2 cos(theta) in place of 4 sin^2(theta/2) drifts past 1e-12 here
        grid = BinnedGrid(m)
        vals = np.zeros(m)
        vals[m // 2] = 1.0
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        evolved = backward_euler_evolve(u, 1000.37 * grid.dt).interior
        a = build_four_corners(m, r).to_dense()
        step = lu_factor(np.eye(m) + a)
        expected = vals
        for _ in range(1000):
            expected = lu_solve(step, expected)
        expected = np.linalg.solve(np.eye(m) + 0.37 * a, expected)
        assert np.abs(evolved - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 1e6])
    def test_point_masses_stay_non_negative_exactly(self, r):
        # (I + alpha A)^{-1} is entrywise non-negative (an M-matrix inverse), so
        # negatives are FFT round-off, zeroed for non-negative data
        m = 99
        grid = BinnedGrid(m)
        for node in (0, 1, m // 2, m - 2, m - 1):
            interior = np.zeros(m)
            interior[node] = 1.0 / grid.h
            u = BinnedDensity(grid=grid, interior=interior, r=r)
            for T in (0.3 * grid.dt, 7.5 * grid.dt, 0.02, 0.5):
                assert backward_euler_evolve(u, T).interior.min() >= 0.0

    def test_stepwise_conservation_and_positivity(self):
        m = 60
        grid = BinnedGrid(m)
        rng = np.random.default_rng(12)
        vals = rng.random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=5.0)
        for _ in range(5):
            v = backward_euler_evolve(u, grid.dt)
            assert v.interior.sum() == pytest.approx(u.interior.sum(), rel=1e-12)
            assert v.interior.min() >= -1e-14
            u = v

    def test_long_horizon_agrees_with_matrix_exponential(self):
        # T/dt = 1.28M steps, and every mode but the stationary one has decayed by e^-20
        m = 1599
        grid = BinnedGrid(m)
        vals = np.random.default_rng(1599).random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=2.0)
        be = backward_euler_evolve(u, 1.0).interior
        exact = matrix_exponential_evolve(u, 1.0).interior
        assert np.abs(be - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_peak_memory_linear_in_m(self):
        # 2e10 steps at this m and T; an m x m array would need about 320 GB
        m = 200_000
        vals = np.random.default_rng(5).random(m)
        u = BinnedDensity(grid=BinnedGrid(m), interior=vals, r=2.0)
        tracemalloc.start()
        try:
            evolved = backward_euler_evolve(u, 1.0).interior
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * m * 8
        assert abs(evolved.sum() - vals.sum()) <= 1e-12 * vals.sum()


class TestMatrixExponential:
    @pytest.mark.parametrize("t", [1e-4, 0.05, 0.3])
    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 2.0, 10.0, 1e6, 1e300, 1e308])
    @pytest.mark.parametrize("m", [2, 3, 4, 15, 40])
    def test_matches_dense_expm_small_case(self, m, r, t):
        # at r = 1e308 the r-form stationary slope (1-r)/(1+r m) overflows to -0
        grid = BinnedGrid(m)
        vals = np.random.default_rng(m).random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        evolved = matrix_exponential_evolve(u, t)
        dense = expm(-(t / grid.dt) * build_four_corners(m, r).to_dense())
        assert np.abs(evolved.interior - dense @ vals).max() <= 1e-11

    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 7.0 / 3.0, 2.0, 1e6])
    @pytest.mark.parametrize("m", [2, 3, 4, 15, 40, 199, 1599])
    def test_bit_identical_to_scaled_basis_formula(self, m, r):
        # agreement to round-off, not bit for bit: the propagator applies this
        # decomposition by FFTs, not by this dense solve
        grid = BinnedGrid(m)
        vals = np.random.default_rng(m).random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        sd = spectral_data(m, r)
        basis = sd.vectors / np.abs(sd.vectors).max(axis=0)
        coeff = np.linalg.solve(basis, vals)
        for t in (1e-5, 1e-3, 0.05, 0.3):
            decay = np.exp(-(t / (2.0 * grid.h * grid.h)) * sd.eigenvalues)
            expected = basis @ (decay * coeff)
            got = matrix_exponential_evolve(u, t).interior
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_peak_memory_below_one_point_six_matrices(self):
        # the basis is the one m x m array; the first-class update needs half of one more
        m, r = 1599, 2.0
        u = BinnedDensity(grid=BinnedGrid(m), interior=np.ones(m), r=r)
        for call in (lambda: spectral_data(m, r), lambda: matrix_exponential_evolve(u, 1e-3)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.6 * m * m * 8

    def test_peak_memory_linear_in_m(self):
        m = 1599
        u = BinnedDensity(grid=BinnedGrid(m), interior=np.ones(m), r=2.0)
        tracemalloc.start()
        try:
            matrix_exponential_evolve(u, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * m * 8

    def test_large_m_conserves_mass_and_reaches_stationary(self):
        # an m x m basis would need about 320 GB here
        m, r = 200_000, 2.0
        vals = np.random.default_rng(5).random(m)
        u = BinnedDensity(grid=BinnedGrid(m), interior=vals, r=r)
        evolved = matrix_exponential_evolve(u, 1e-3).interior
        assert abs(evolved.sum() - vals.sum()) <= 1e-12 * vals.sum()
        w0 = 1.0 + (1.0 - r) / (1.0 + r * m) * np.arange(m)
        expected = w0 * (vals.sum() / w0.sum())
        assert np.abs(matrix_exponential_evolve(u, 50.0).interior - expected).max() <= 1e-10

    def test_large_time_reaches_stationary(self):
        m, r = 20, 2.0
        grid = BinnedGrid(m)
        rng = np.random.default_rng(8)
        vals = rng.random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        evolved = matrix_exponential_evolve(u, 50.0)
        w0 = spectral_data(m, r).stationary
        expected = w0 * (vals.sum() / w0.sum())
        assert np.abs(evolved.interior - expected).max() <= 1e-10

    def test_unit_ratio_uses_symmetric_path(self):
        # at r = 1 the operator is symmetric and the uniform vector is stationary
        u = BinnedDensity(grid=BinnedGrid(15), interior=np.ones(15), r=1.0)
        evolved = matrix_exponential_evolve(u, 0.3)
        assert np.abs(evolved.interior - 1.0).max() <= 1e-12

    def test_agrees_with_backward_euler_to_first_order(self):
        m, r = 30, 0.5
        grid = BinnedGrid(m)
        rng = np.random.default_rng(21)
        vals = rng.random(m)
        u = BinnedDensity(grid=grid, interior=vals, r=r)
        t = 0.02
        exact = matrix_exponential_evolve(u, t).interior
        be = backward_euler_evolve(u, t).interior
        assert np.abs(be - exact).max() <= 5.0 * grid.dt


class TestSpectralData:
    def test_m3_r2_exact_spectrum(self):
        sd = spectral_data(3, 2.0)
        assert np.sort(sd.eigenvalues) == pytest.approx([0.0, 2.0, 3.0], abs=1e-13)
        # cross-check against the dense characteristic polynomial
        coeffs = np.poly(build_four_corners(3, 2.0).to_dense())
        assert coeffs == pytest.approx([1.0, -5.0, 6.0, 0.0], abs=1e-12)

    def test_m3_r2_stationary_vector(self):
        sd = spectral_data(3, 2.0)
        assert sd.stationary == pytest.approx([1.0, 6.0 / 7.0, 5.0 / 7.0], abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4, 10, 50, 200])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 10.0])
    def test_residuals_trace_and_zero_count(self, m, r):
        sd = spectral_data(m, r)
        a = build_four_corners(m, r)
        assert sd.residuals().max() <= 1e-10
        assert abs(sd.eigenvalues.sum() - np.trace(a.to_dense())) <= 1e-10
        assert np.count_nonzero(sd.eigenvalues == 0.0) == 1
        nonzero = np.delete(sd.eigenvalues, sd.zero_index)
        assert nonzero.min() > 0.0
        assert nonzero.max() < 4.0
        assert np.abs(a.matvec(sd.stationary)).max() <= 1e-12

    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 2.0, 1e6])
    @pytest.mark.parametrize("m", [3, 10, 50, 200])
    def test_normalized_basis_condition_below_m(self, m, r):
        # the spectral basis is well conditioned once columns are scaled to unit
        # max-norm; the scaled-basis reference formula for the propagator relies on it
        vectors = spectral_data(m, r).vectors
        basis = vectors / np.abs(vectors).max(axis=0)
        assert np.linalg.cond(basis) <= m

    @pytest.mark.parametrize("m", [2, 3, 10, 199])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 7.0 / 3.0, 1e6])
    def test_vectors_equal_column_loop(self, m, r):
        sd = spectral_data(m, r)
        j = np.arange(1, m + 1)
        split = sd.zero_index
        # q = (1-r)/(1+r), with 1+q = 2/(1+r) and 1-q = 2r/(1+r) formed as types._q_weights forms them
        q = (1.0 - r) / (1.0 + r)
        one_plus_q = 2.0 / (1.0 + r)
        one_minus_q = r * one_plus_q
        loop = np.empty((m, m))
        for i, theta in enumerate(sd.angles):
            if i < split:
                loop[:, i] = 0.5 * one_minus_q * np.sin((j - 1) * theta) - 0.5 * one_plus_q * np.sin(j * theta)
            elif i == split:
                loop[:, i] = 1.0 + q / (m - 0.5 * (m - 1) * (1.0 + q)) * (j - 1)
            else:
                loop[:, i] = np.sin(j * theta)
        assert np.array_equal(sd.vectors, loop)

    @pytest.mark.parametrize("r", [0.0, 1e-6, 0.5, 1.0, 2.0, 1e6])
    @pytest.mark.parametrize("m", [2, 3, 4, 10, 50, 200])
    def test_closed_form_left_eigenvectors(self, m, r):
        # the left pairs and norms that matrix_exponential_evolve applies by FFT
        sd = spectral_data(m, r)
        q = (1.0 - r) / (1.0 + r)
        j = np.arange(1, m + 1)[:, None]
        split = sd.zero_index
        theta = sd.angles
        left = np.empty((m, m))
        left[:, :split] = np.cos((j - 0.5) * theta[:split])
        left[:, split] = 1.0
        second = theta[split + 1 :]
        left[:, split + 1 :] = (1.0 + q) * np.cos((j + 0.5) * second) - (1.0 - q) * np.cos(
            (j - 0.5) * second
        )
        a = build_four_corners(m, r).to_dense()
        residual = np.abs(left.T @ a - sd.eigenvalues[:, None] * left.T).max(axis=1)
        assert (residual / np.abs(left).max(axis=0)).max() <= 1e-10

        gram = left.T @ sd.vectors
        diag = np.diag(gram)
        assert np.abs(gram - np.diag(diag)).max() <= 1e-10 * np.abs(diag).max()
        expected = np.empty(m)
        expected[:split] = -(m / 2.0) * np.sin(theta[:split] / 2.0)
        expected[split] = m + q / (m - 0.5 * (m - 1) * (1.0 + q)) * m * (m - 1) / 2.0
        expected[split + 1 :] = -(m + 1.0) * np.sin(second / 2.0)
        assert np.abs(diag - expected).max() <= 1e-10 * np.abs(diag).max()

    def test_eigenvalues_independent_of_ratio(self):
        assert spectral_data(17, 0.5).eigenvalues == pytest.approx(
            spectral_data(17, 9.0).eigenvalues
        )

    def test_second_class_vectors_sample_sine_eigenfunctions(self):
        m, r = 400, 2.0
        sd = spectral_data(m, r)
        split = (m - 1) // 2
        nodes = np.arange(1, m + 1) / (m + 1)
        for k in (1, 2, 3):
            w = sd.vectors[:, split + k]
            assert np.abs(w - np.sin(2.0 * np.pi * k * nodes)).max() <= 1e-13

    def test_sine_limit_at_fixed_points(self):
        # floor indexing shifts the sample point by at most 1/(m+1), which
        # bounds the deviation by 2 pi k/(m+1); the bound shrinks with m
        r = 2.0
        worst = {}
        for m in (100, 400):
            sd = spectral_data(m, r)
            split = (m - 1) // 2
            worst[m] = 0.0
            for k in (1, 2, 3):
                w = sd.vectors[:, split + k]
                for x in np.arange(0.1, 0.95, 0.1):
                    j = int(np.floor((m + 1) * x))
                    err = abs(w[j - 1] - np.sin(2.0 * np.pi * k * x))
                    assert err <= 2.0 * np.pi * k / (m + 1) + 1e-12
                    worst[m] = max(worst[m], err)
        assert worst[400] < worst[100]

    def test_generalized_eigenfunction_limit(self):
        # (m/(2 pi k)) [(r-1) w^k - v^k] approaches the linear-weighted
        # cosine profile (r + (1-r)x) cos(2 pi k x) at rate O(1/m)
        r = 2.0
        sups = {}
        for m in (200, 400, 800):
            sd = spectral_data(m, r)
            split = (m - 1) // 2
            x = np.arange(1, m + 1) / (m + 1)
            phi = (r + (1.0 - r) * x) * np.cos(2.0 * np.pi * x)
            # the first-class column is the r form over 1 + r
            combo = (m / (2.0 * np.pi)) * ((r - 1.0) * sd.vectors[:, split + 1] - (1.0 + r) * sd.vectors[:, 0])
            sups[m] = np.abs(combo - phi).max()
        assert sups[800] < sups[400] < sups[200]
        assert sups[800] <= 5e-3


class TestConvergenceToContinuum:
    def test_second_order_for_boundary_flat_data(self):
        # initial data whose second derivative vanishes at both endpoints for
        # all time: the ghost rows are then second-order consistent and the
        # scheme converges at O(h^2)
        r, t = 2.0, 0.05
        intercept, slope = stationary_density(r)
        errors = []
        for m in (50, 100, 200, 400):
            grid = BinnedGrid(m)
            x = grid.interior_x
            u = BinnedDensity(
                grid=grid, interior=intercept + slope * x + 0.3 * np.sin(2.0 * np.pi * x), r=r
            )
            evolved = backward_euler_evolve(u, t)
            exact = (
                intercept
                + slope * x
                + 0.3 * np.exp(-2.0 * np.pi**2 * t) * np.sin(2.0 * np.pi * x)
            )
            errors.append(np.abs(evolved.interior - exact).max())
        for e1, e2 in zip(errors, errors[1:]):
            assert 3.0 <= e1 / e2 <= 5.0

    def test_first_order_for_generic_compatible_data(self):
        # with nonzero endpoint curvature the one-sided ghost coupling limits
        # the scheme to O(h); the doubling ratio settles near two
        r, t = 2.0, 0.05
        tr = parabolic_transforms(t)
        f0 = lambda x: (6.0 / 11.0) * (-2.0 * x * x + x + 2.0)
        errors = []
        for m in (100, 200, 400):
            grid = BinnedGrid(m)
            u = BinnedDensity(grid=grid, interior=f0(grid.interior_x), r=r)
            evolved = backward_euler_evolve(u, t)
            reference = eval_series_solution(tr, r, t, grid.interior_x)
            errors.append(np.abs(evolved.interior - reference).max())
        for e1, e2 in zip(errors, errors[1:]):
            assert 1.7 <= e1 / e2 <= 2.3


class TestStabilityBound:
    @pytest.mark.parametrize("r", [0.5, 2.0, 10.0])
    def test_inverse_power_infinity_norm(self, r):
        bound = max(2.0 * r / (1.0 + r), 2.0 / (1.0 + r))
        for m in (10, 50):
            a = build_four_corners(m, r).to_dense()
            step = np.linalg.inv(np.eye(m) + a)
            for K in (1, 10, 100, 10_000):
                norm = np.abs(np.linalg.matrix_power(step, K)).sum(axis=1).max()
                assert norm <= bound + 1e-10


def test_binned_density_csv_roundtrip():
    bd = bin_samples([0.2, 0.5, 0.8], 9, r=2.0)
    x, u = bd.with_boundary()
    assert x[0] == 0.0 and x[-1] == 1.0
    u0, um1 = ghost_values(bd.interior[0], bd.interior[-1], bd.r)
    assert u[0] == u0 and u[-1] == um1
