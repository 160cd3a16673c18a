import math

import numpy as np
import pytest

from bpdp.matrix_analysis import (closed_form_entry, cycle_matrix,
                                  lagrange_norm_bound,
                                  matrix_power_entry, operator_norm,
                                  perturbed_eigenvalues, perturbed_matrix,
                                  spectral_radius, unperturbed_eigenvalues)

SQRT2 = math.sqrt(2.0)


class TestCycleMatrix:
    def test_shape_and_sparsity(self):
        M = cycle_matrix()
        assert M.shape == (6, 6)
        # the bi-directed 6-cycle with one directed edge removed: 11 ones
        assert sorted(int(x) for x in np.asarray(M, dtype=int).ravel()
                      if x) == [1] * 11

    def test_power_entry_small(self):
        assert matrix_power_entry(0) == 1
        assert matrix_power_entry(1) == 4

    def test_closed_form_small(self):
        assert closed_form_entry(0) == pytest.approx(1.0, rel=1e-14)
        assert closed_form_entry(1) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("K", list(range(26)))
    def test_power_equals_closed_form(self, K):
        exact = matrix_power_entry(K)
        closed = closed_form_entry(K)
        assert abs(exact - closed) / max(closed, 1.0) < 1e-6

    def test_dominates_growth_rate(self):
        for K in range(31):
            assert closed_form_entry(K) >= (2.0 + SQRT2) ** K * (1 - 1e-12)

    def test_bipartite_odd_powers(self):
        # under the (even, odd) split of the 6-cycle the diagonal blocks of
        # odd powers vanish
        M = np.asarray(cycle_matrix(), dtype=int)
        odd = np.linalg.matrix_power(M, 5)
        even_idx = [0, 2, 4]
        assert np.all(odd[np.ix_(even_idx, even_idx)] == 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            matrix_power_entry(-1)


class TestDerivedFromTable:
    def test_equals_hand_entered_matrices(self):
        # reference: both matrices written out entry by entry
        M = cycle_matrix()
        assert M.dtype == object
        assert M.tolist() == [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 1, 0, 1, 0],
            [0, 0, 0, 1, 0, 1],
            [1, 0, 0, 0, 1, 0],
        ]
        for P in (0.01, 0.2):
            assert np.array_equal(perturbed_matrix(P), np.array([
                [0, P, 0, 0, 0, 0],
                [1, 0, P, 0, 0, 0],
                [1, 1, 0, P, 0, 0],
                [1, 2, 1, 0, 1, 1],
                [1, 0, 0, P, 0, 1],
                [1, 0, 0, 0, P, 0],
            ]))


class TestPerturbedMatrix:
    def test_entries(self):
        P = 0.01
        M = perturbed_matrix(P)
        assert M[0, 1] == P and M[1, 2] == P and M[5, 4] == P
        assert M[1, 0] == 1.0

    @pytest.mark.parametrize("P", [1e-2, 1e-4])
    def test_closed_form_roots_solve_quartic(self, P):
        s = math.sqrt(P)
        for z in perturbed_eigenvalues(P):
            if abs(abs(z) - 1.0) < 1e-9:
                continue
            assert abs(z ** 4 - 4 * z ** 2 + 2 - 4 * z * s - P) < 1e-10

    def test_eigenvalues_near_limits(self):
        P = 1e-4
        got = np.sort(perturbed_eigenvalues(P).real)
        want = np.sort(unperturbed_eigenvalues())
        assert np.max(np.abs(got - want)) <= 10 * math.sqrt(P)

    def test_limit_sequence(self):
        prev = None
        for k in range(2, 7):
            P = 10.0 ** -k
            drift = np.max(np.abs(np.sort(perturbed_eigenvalues(P).real)
                                  - np.sort(unperturbed_eigenvalues())))
            if prev is not None:
                assert drift < prev
            prev = drift

    def test_closed_form_matches_eigensolver(self):
        for P in (1e-2, 1e-3, 1e-4):
            closed = np.sort_complex(perturbed_eigenvalues(P))
            direct = np.sort_complex(
                np.linalg.eigvals(perturbed_matrix(P) / math.sqrt(P)))
            assert np.max(np.abs(closed - direct)) < 1e-9

    def test_spectral_radius_bound(self):
        for P in np.geomspace(1e-6, 1e-2, 9):
            rho = spectral_radius(perturbed_matrix(P))
            bound = math.sqrt(2.0 + SQRT2) * math.sqrt(P) * math.exp(math.sqrt(P))
            assert rho <= bound

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            perturbed_matrix(0.3)


class TestNorms:
    def test_operator_norm_diagonal(self):
        assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0,
                                                                         abs=1e-9)

    def test_operator_norm_of_symmetric_matrix(self):
        # eigenvalues 1 and 3; the all-ones start vector of a power
        # iteration is the eigenvector for 1
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert operator_norm(M) == pytest.approx(3.0, rel=1e-14)


class TestLagrangeBound:
    def test_diagonal_case(self):
        M = np.diag([1.0, 2.0, 3.0])
        for n in (1, 5, 10):
            assert lagrange_norm_bound(M, n) >= 2.0 ** n

    def test_dominates_random_matrices(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            M = rng.normal(size=(6, 6))
            for n in (1, 5, 20):
                bound = lagrange_norm_bound(M, n)
                direct = operator_norm(np.linalg.matrix_power(M, n))
                assert bound >= direct * (1 - 1e-12)

    def test_built_on_operator_norm(self):
        # d = 2, eigenvalue gap 2, rho = 3, |||M||| = 3:
        # 2 * (2 * 3 / 2) * 3^n
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        for n in (0, 1, 4):
            assert lagrange_norm_bound(M, n) == pytest.approx(6.0 * 3.0 ** n,
                                                              rel=1e-12)

    def test_perturbed_matrix_case(self):
        M = perturbed_matrix(0.01)
        bound = lagrange_norm_bound(M, 10)
        direct = operator_norm(np.linalg.matrix_power(M, 10))
        assert bound >= direct

    def test_rejects_repeated_eigenvalues(self):
        with pytest.raises(ValueError):
            lagrange_norm_bound(np.eye(4), 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lagrange_norm_bound(np.diag([1.0, 2.0]), -1)
