"""Marginal-probability matrices, the shift transform, and rank checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qident import DinaParams, QMatrix, check_conditions_DE
from qident.catalog import Q5X2_DOUBLE_IDENTITY
from qident.errors import NoPartition, TooLarge
from qident.rlcm import dina_theta_table, response_distribution
from qident.tmatrix import (
    build_t,
    rank,
    identifiable_subset_check,
    shift_matrix,
    shift_t,
    tp_vector,
)
from qident.witness import q24_constraint_gap

from tests.conftest import random_q


def _random_model(rng, j, k):
    q = random_q(rng, j, k, ensure_nonzero_rows=True)
    params = DinaParams(rng.uniform(0.05, 0.3, j), rng.uniform(0.05, 0.3, j))
    p = rng.dirichlet(np.ones(1 << k))
    return q, dina_theta_table(q, params), p


class TestBuild:
    def test_empty_pattern_row(self, rng):
        _, theta, _ = _random_model(rng, 4, 2)
        t = build_t(theta)
        assert_allclose(t[0], 1.0)

    def test_single_item_rows(self, rng):
        _, theta, _ = _random_model(rng, 4, 2)
        t = build_t(theta)
        for j in range(4):
            assert_allclose(t[1 << j], theta[j])

    def test_survival_oracle(self, rng):
        for _ in range(10):
            j = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            _, theta, p = _random_model(rng, j, k)
            dist = response_distribution(theta, p)
            tp = tp_vector(theta, p)
            for r in range(1 << j):
                manual = sum(dist[rp] for rp in range(1 << j) if (rp & r) == r)
                assert tp[r] == pytest.approx(manual, abs=1e-12)

    def test_tp_antitone(self, rng):
        _, theta, p = _random_model(rng, 5, 2)
        tp = tp_vector(theta, p)
        for r in range(32):
            for j in range(5):
                if not r >> j & 1:
                    assert tp[r | (1 << j)] <= tp[r] + 1e-15

    def test_guard(self):
        with pytest.raises(TooLarge):
            build_t(np.full((21, 2), 0.5))


class TestShift:
    def test_zero_shift_is_identity(self, rng):
        _, theta, _ = _random_model(rng, 4, 2)
        d = shift_matrix(np.zeros(4))
        assert_allclose(d, np.eye(16))
        assert_allclose(shift_t(theta, np.zeros(4)), build_t(theta))

    def test_two_item_expansion(self, rng):
        # hand expansion of (t1 - a)(t2 - b) for the four response patterns
        _, theta, _ = _random_model(rng, 2, 2)
        shift = np.array([0.3, 0.5])
        t = build_t(theta)
        expected = np.array(
            [
                np.ones(4),
                theta[0] - 0.3,
                theta[1] - 0.5,
                (theta[0] - 0.3) * (theta[1] - 0.5),
            ]
        )
        assert_allclose(shift_t(theta, shift), expected, atol=1e-14)
        assert_allclose(shift_matrix(shift) @ t, expected, atol=1e-14)

    def test_transform_identity(self, rng):
        for _ in range(5):
            j = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            _, theta, _ = _random_model(rng, j, k)
            shift = rng.uniform(-0.5, 0.5, j)
            d = shift_matrix(shift)
            assert np.max(np.abs(d @ build_t(theta) - shift_t(theta, shift))) < 1e-10
            assert np.array_equal(shift_t(theta, shift), build_t(theta - shift[:, None]))
            assert abs(abs(np.linalg.det(d)) - 1.0) < 1e-9

    def test_guessing_shift_zeroes_noncapable(self, rng):
        # subtracting the guessing values turns every row of the full-response
        # pattern into (c - g)^J times the capable indicator
        q, theta, _ = _random_model(rng, 4, 2)
        g = theta.min(axis=1)
        shifted = shift_t(theta, g)
        full = (1 << 4) - 1
        masks = q.row_masks
        for a in range(4):
            capable_all = all((a & int(m)) == int(m) for m in masks)
            if not capable_all:
                assert shifted[full, a] == pytest.approx(0.0, abs=1e-15)

    def test_composition(self, rng):
        _, theta, _ = _random_model(rng, 3, 2)
        a = rng.uniform(0, 0.4, 3)
        b = rng.uniform(0, 0.4, 3)
        composed = shift_matrix(b) @ shift_matrix(a)
        assert np.max(np.abs(composed - shift_matrix(a + b))) < 1e-10

    def test_inclusion_exclusion_recovers_pmf(self, rng):
        for _ in range(5):
            j = int(rng.integers(1, 7))
            _, theta, p = _random_model(rng, j, 2)
            tp = tp_vector(theta, p)
            dist = response_distribution(theta, p)
            for r in range(1 << j):
                total = 0.0
                for rp in range(1 << j):
                    if (rp & r) == r:
                        sign = (-1) ** (bin(rp).count("1") - bin(r).count("1"))
                        total += sign * tp[rp]
                assert total == pytest.approx(dist[r], abs=1e-10)


class TestRank:
    def test_identity_design_full_rank(self, rng):
        for k in (2, 3):
            q = QMatrix(np.eye(k, dtype=int))
            params = DinaParams(rng.uniform(0.05, 0.3, k), rng.uniform(0.05, 0.3, k))
            t = build_t(dina_theta_table(q, params))
            assert t.shape == (1 << k, 1 << k)
            assert rank(t) == 1 << k
            assert abs(np.linalg.det(t)) > 1e-12

    def test_rank_deficient(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert rank(m) == 1


class TestIdentifiableSubset:
    def test_random_parameters_pass(self, rng):
        q = Q5X2_DOUBLE_IDENTITY
        _, _, partition = check_conditions_DE(q)
        for _ in range(100):
            params = DinaParams(rng.uniform(0.05, 0.3, 5), rng.uniform(0.05, 0.3, 5))
            theta = dina_theta_table(q, params)
            p = rng.dirichlet(np.full(4, 3.0))
            assert identifiable_subset_check(theta, p, partition)

    def test_constant_rows_fail(self):
        q = Q5X2_DOUBLE_IDENTITY
        _, _, partition = check_conditions_DE(q)
        theta = np.full((5, 4), 0.5)
        theta[list(partition[0] + partition[1])] = dina_theta_table(
            q, DinaParams(np.full(5, 0.2), np.full(5, 0.1))
        )[list(partition[0] + partition[1])]
        p = np.full(4, 0.25)
        assert not identifiable_subset_check(theta, p, partition)

    def test_requires_partition(self):
        with pytest.raises(NoPartition):
            identifiable_subset_check(np.full((2, 4), 0.5), np.full(4, 0.25), None)

    def test_paired_design_proportion_constraint(self, rng):
        # the product constraint holds for generic draws, fails at uniform p
        for _ in range(20):
            p = rng.dirichlet(np.full(4, 3.0))
            assert q24_constraint_gap(p) > 1e-10
        assert q24_constraint_gap(np.full(4, 0.25)) == pytest.approx(0.0, abs=1e-18)
