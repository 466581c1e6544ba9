"""Marginal-probability matrices, the shift transform, and rank checks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qident import DinaParams, QMatrix, check_conditions_DE
from qident.catalog import Q5X2_DOUBLE_IDENTITY, incomplete_20x3_family, incomplete_20x5_family
from qident.errors import TooLarge, WrongShape
from qident.qmatrix import _cells
from qident.rlcm import pmf, response_distribution, theta_table
from qident import tmatrix
from qident.tmatrix import (
    _max_abs_difference,
    _unique_columns,
    build_t,
    shift_matrix,
    tp_vector,
)
from qident.witness import incomplete_gamma_merge, q24_constraint_gap

from tests import tmatrix_reference as reference
from tests.conftest import random_q


def _random_model(rng, j, k):
    q = random_q(rng, j, k, ensure_nonzero_rows=True)
    params = DinaParams(rng.uniform(0.05, 0.3, j), rng.uniform(0.05, 0.3, j))
    p = rng.dirichlet(np.ones(1 << k))
    return q, theta_table("dina", q, params), p


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
        with pytest.raises(TooLarge, match="J <= 20"):
            tp_vector(np.full((21, 2), 0.5), np.full(2, 0.5))
        with pytest.raises(TooLarge, match="J <= 12"):
            shift_matrix(np.full(13, 0.1))

    @pytest.mark.parametrize("shape", [(4,), (3, 4, 2)])
    def test_table_must_be_2d(self, shape):
        with pytest.raises(WrongShape, match="J x 2\\^K table"):
            build_t(np.full(shape, 0.5))


def _t_by_definition(theta):
    """T[r, a] = prod over items j in r of theta[j, a], one row at a time."""
    J, n = theta.shape
    t = np.ones((1 << J, n))
    for r in range(1 << J):
        for j in range(J):
            if r >> j & 1:
                t[r] *= theta[j]
    return t


class TestSplitKernel:
    # J = 0 and 1 leave the low half empty; odd and even J split unevenly
    # and evenly; K = 0 is a single attribute class
    SHAPES = [(j, k) for j in (0, 1, 2, 3, 7, 8) for k in (0, 1, 3)]

    @staticmethod
    def _draw(rng, j, k):
        theta = rng.uniform(0.05, 0.95, (j, 1 << k))
        p = rng.dirichlet(np.ones(1 << k))
        if k:
            p[rng.permutation(1 << k)[: 1 << (k - 1)]] = 0.0  # half the classes empty
            p /= p.sum()
        return theta, p

    @pytest.mark.parametrize("j,k", SHAPES)
    def test_build_t_matches_definition(self, rng, j, k):
        theta, _ = self._draw(rng, j, k)
        t = build_t(theta)
        assert t.shape == (1 << j, 1 << k)
        assert_allclose(t, _t_by_definition(theta), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("j,k", SHAPES)
    def test_tp_vector_is_t_times_p(self, rng, j, k):
        theta, p = self._draw(rng, j, k)
        tp = tp_vector(theta, p)
        assert tp.shape == (1 << j,)
        assert_allclose(tp, build_t(theta) @ p, rtol=0, atol=1e-15)
        assert tp[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("j,k", SHAPES)
    def test_distribution_matches_definition(self, rng, j, k):
        # the row-by-row product of theta or 1 - theta per item, summed over
        # the classes with mass
        theta, p = self._draw(rng, j, k)
        bits = (np.arange(1 << j)[:, None] >> np.arange(j)) & 1
        factors = np.where(bits[:, :, None] == 1, theta, 1.0 - theta)
        expected = np.prod(factors, axis=1) @ p
        assert_allclose(response_distribution(theta, p), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kernel", [response_distribution, tp_vector])
    @pytest.mark.parametrize("theta, p", [
        (np.full((3, 4), 0.5), np.full(3, 1 / 3)),
        (np.full((3, 4), 0.5), np.full(8, 1 / 8)),
        (np.full(4, 0.5), np.full(4, 0.25)),
    ])
    def test_weights_must_match_the_classes(self, kernel, theta, p):
        with pytest.raises(WrongShape):
            kernel(theta, p)


def _pooling_draw(rng, model, q):
    """A response table on ``q`` and a p with empty classes; GDINA values
    on a coarse grid half the time, so that items share columns."""
    J, K = q.n_items, q.n_attributes
    if model == "gdina":
        grid = rng.random() < 0.5
        base = rng.choice([0.1, 0.3, 0.6, 0.9], (J, 1 << K)) if grid else rng.uniform(0.05, 0.95, (J, 1 << K))
        params = np.take_along_axis(base, _cells(q.row_masks, K), 1)
    else:
        params = DinaParams(rng.uniform(0.05, 0.3, J), rng.uniform(0.05, 0.3, J))
    p = rng.dirichlet(np.ones(1 << K))
    p[rng.permutation(1 << K)[: rng.integers(0, 1 << K)]] = 0.0
    return theta_table(model, q, params), params, p


def _with_copies(rng, model, q, params, p, items):
    """The model on q's rows ``items``: a repeated item's copies share its row
    and parameters, except that a GDINA copy draws fresh values on the
    classes without mass, where the difference kernel still groups it."""
    if model != "gdina":
        return QMatrix(q.entries[items]), DinaParams(params.s[items], params.g[items])
    theta = params[items]
    copy = np.setdiff1d(np.arange(len(items)), np.unique(items, return_index=True)[1])
    empty = np.flatnonzero(p == 0)
    theta[np.ix_(copy, empty)] = rng.uniform(0.05, 0.95, (len(copy), len(empty)))
    return QMatrix(q.entries[items]), theta


@settings(max_examples=60, deadline=None)
@given(J=st.integers(1, 10), K=st.integers(1, 4), model=st.sampled_from(["dina", "dino", "gdina"]),
       same_q=st.booleans(), rows=st.sampled_from([None, 1, 2, 3, 5]),
       repeats=st.sampled_from(["none", "both", "one"]), seed=st.integers(0, 2**32 - 1))
def test_pooled_kernels_match_pmf(J, K, model, same_q, rows, repeats, seed):
    # the pooled half tables and the blocked difference against pmf, one
    # response pattern at a time; ``rows`` rows of H per block (None: the
    # default buffer) makes several blocks and a short last one at small J.
    # ``repeats`` copies random items in both models, where the difference
    # kernel makes each group of copies one row, or in model a only
    rng = np.random.default_rng(seed)
    q_a = random_q(rng, J, K, ensure_nonzero_rows=True)
    q_b = q_a if same_q else random_q(rng, J, K, ensure_nonzero_rows=True)
    (theta_a, params_a, p_a), (theta_b, params_b, p_b) = (
        _pooling_draw(rng, model, q_a), _pooling_draw(rng, model, q_b))
    if repeats != "none":
        items = rng.integers(0, J, J)
        q_a, params_a = _with_copies(rng, model, q_a, params_a, p_a, items)
        theta_a = theta_table(model, q_a, params_a)
    if repeats == "both":
        q_b, params_b = _with_copies(rng, model, q_b, params_b, p_b, items)
        theta_b = theta_table(model, q_b, params_b)
    P_a = np.array([pmf(model, q_a, params_a, p_a, r) for r in range(1 << J)])
    P_b = np.array([pmf(model, q_b, params_b, p_b, r) for r in range(1 << J)])
    scale = 1e-15 * max(P_a.max(), P_b.max())
    block = tmatrix._BLOCK if rows is None else rows << J // 2
    with mock.patch.object(tmatrix, "_BLOCK", block):
        diff = _max_abs_difference(theta_a, p_a, theta_b, p_b)
    assert abs(diff - np.max(np.abs(P_a - P_b))) <= scale
    assert np.max(np.abs(response_distribution(theta_a, p_a) - P_a)) <= scale
    survival = build_t(theta_a) @ p_a
    assert np.max(np.abs(tp_vector(theta_a, p_a) - survival)) <= 1e-15 * survival.max()


class TestPerItemOracle:
    """Designs with no repeated item, and the kernels that keep one row per
    item, give the per-item kernel's results bit for bit."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(31)
        for J, K in [(1, 1), (2, 3), (5, 2), (8, 3), (11, 1), (13, 4)]:
            q = random_q(rng, J, K, ensure_nonzero_rows=True)
            for model in ("dina", "gdina"):
                (theta_a, _, p_a), (theta_b, _, p_b) = (
                    _pooling_draw(rng, model, q), _pooling_draw(rng, model, q))
                yield theta_a, p_a, theta_b, p_b
        for family in (incomplete_20x3_family, incomplete_20x5_family):
            q, _, q_bar = family()
            params = DinaParams(rng.uniform(0.1, 0.3, 20), rng.uniform(0.1, 0.3, 20))
            p = rng.dirichlet(np.full(1 << q.n_attributes, 3.0))
            pair = incomplete_gamma_merge(q, q_bar, params, p)
            yield pair.truth.theta, pair.truth.p, pair.alternative.theta, pair.alternative.p

    def test_difference_and_tables_bit_for_bit(self):
        for theta_a, p_a, theta_b, p_b in self._pairs():
            J = len(theta_a)
            assert _max_abs_difference(theta_a, p_a, theta_b, p_b) == (
                reference.max_abs_difference(theta_a, p_a, theta_b, p_b))
            ones = np.ones_like(theta_a)
            assert tp_vector(theta_a, p_a).tobytes() == (
                reference.split_product(theta_a, ones, p_a).tobytes())
            assert response_distribution(theta_a, p_a).tobytes() == (
                reference.split_product(theta_a, 1.0 - theta_a, p_a).tobytes())
            if J <= 13:
                expected = reference.product_table(np.empty((1 << J, theta_a.shape[1])), theta_a, ones)
                assert build_t(theta_a).tobytes() == expected.tobytes()


def test_unique_columns_is_np_unique(rng):
    # sorted distinct columns and the inverse of np.unique(axis=1), dtype
    # and NaN (sorted last, equal to nothing) included, on 0 rows or columns
    for trial in range(400):
        shape = rng.integers(0, 5), rng.integers(0, 9)
        values = [np.array([-1, 0, 2]), np.array([0.1, 0.5, 1.0]),
                  np.array([0.1, np.nan, 1.0])][trial % 3]
        a = rng.choice(values, shape)
        cols, inverse = np.unique(a, axis=1, return_inverse=True)
        got_cols, got_inverse = _unique_columns(a)
        assert got_cols.dtype == cols.dtype
        assert_array_equal(got_cols, cols)
        assert_array_equal(got_inverse, inverse.reshape(-1))


class TestShift:
    def test_zero_shift_is_identity(self, rng):
        _, theta, _ = _random_model(rng, 4, 2)
        d = shift_matrix(np.zeros(4))
        assert_allclose(d, np.eye(16))

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
        assert_allclose(build_t(theta - shift[:, None]), expected, atol=1e-14)
        assert_allclose(shift_matrix(shift) @ t, expected, atol=1e-14)

    def test_transform_identity(self, rng):
        for _ in range(5):
            j = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            _, theta, _ = _random_model(rng, j, k)
            shift = rng.uniform(-0.5, 0.5, j)
            d = shift_matrix(shift)
            assert np.max(np.abs(d @ build_t(theta) - build_t(theta - shift[:, None]))) < 1e-10
            assert abs(abs(np.linalg.det(d)) - 1.0) < 1e-9

    def test_guessing_shift_zeroes_noncapable(self, rng):
        # subtracting the guessing values turns every row of the full-response
        # pattern into (c - g)^J times the capable indicator
        q, theta, _ = _random_model(rng, 4, 2)
        g = theta.min(axis=1)
        shifted = build_t(theta - g[:, None])
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
            t = build_t(theta_table("dina", q, params))
            assert t.shape == (1 << k, 1 << k)
            assert np.linalg.matrix_rank(t) == 1 << k
            assert abs(np.linalg.det(t)) > 1e-12


class TestIdentifiableSubset:
    def test_random_parameters_pass(self, rng):
        # generic parameters meet the constraints on the D/E partition: both
        # K-item blocks give nonsingular T-matrices, and the rest block's
        # T-matrix, column-scaled by p, has pairwise-distinct columns
        q = Q5X2_DOUBLE_IDENTITY
        _, _, (rows1, rows2, rest) = check_conditions_DE(q)
        for _ in range(100):
            params = DinaParams(rng.uniform(0.05, 0.3, 5), rng.uniform(0.05, 0.3, 5))
            theta = theta_table("dina", q, params)
            p = rng.dirichlet(np.full(4, 3.0))
            for rows in (rows1, rows2):
                assert np.linalg.matrix_rank(build_t(theta[list(rows)])) == 4
            scaled = build_t(theta[list(rest)]) * p
            gaps = np.abs(scaled[:, :, None] - scaled[:, None, :]).max(axis=0)
            assert gaps[np.triu_indices(4, 1)].min() > 1e-10

    def test_paired_design_proportion_constraint(self, rng):
        # the product constraint holds for generic draws, fails at uniform p
        for _ in range(20):
            p = rng.dirichlet(np.full(4, 3.0))
            assert q24_constraint_gap(p) > 1e-10
        assert q24_constraint_gap(np.full(4, 0.25)) == pytest.approx(0.0, abs=1e-18)
