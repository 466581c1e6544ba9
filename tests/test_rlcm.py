"""Model parameterization, pmf evaluation, and simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qident import (
    Dataset,
    DinaParams,
    GdinaParams,
    Proportions,
    QMatrix,
    beta_to_theta,
    full_distribution,
    pmf,
    simulate,
    theta_table,
    theta_to_beta,
)
from qident.catalog import Q4X2_PAIRED
from qident.errors import IllegalCoefficient, TooLarge
from qident.rlcm import (
    dina_theta_table,
    dino_theta_table,
    monotonicity_ok,
    pattern_string,
    response_distribution,
    stringent_ok,
)

from tests.conftest import random_q


class TestParams:
    def test_dina_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            DinaParams(np.array([0.5]), np.array([0.6]))

    def test_proportions_must_sum(self):
        with pytest.raises(ValueError):
            Proportions(np.array([0.5, 0.4]))

    def test_proportions_zero_only_when_allowed(self):
        with pytest.raises(ValueError):
            Proportions(np.array([0.0, 1.0]))
        prop = Proportions(np.array([0.0, 1.0]), allow_zero=True)
        assert prop.p[0] == 0.0

    def test_gdina_equality_invariant(self):
        q = QMatrix.from_rows([[1, 0]])
        theta = np.array([[0.2, 0.8, 0.3, 0.8]])  # varies with attribute 2
        with pytest.raises(ValueError):
            GdinaParams(theta).validate_for(q)
        good = GdinaParams(np.array([[0.2, 0.8, 0.2, 0.8]]))
        good.validate_for(q)

    def test_monotonicity_validator(self):
        q = QMatrix.from_rows([[1, 1]])
        bad = np.array([[0.5, 0.6, 0.6, 0.55]])  # covering pattern not maximal
        assert not monotonicity_ok(bad, q)
        good = np.array([[0.2, 0.3, 0.3, 0.8]])
        assert monotonicity_ok(good, q)
        assert not stringent_ok(np.array([[0.3, 0.3, 0.3, 0.8]]), q)
        assert stringent_ok(np.array([[0.2, 0.4, 0.5, 0.8]]), q)

    def test_valid_two_parameter_tables_always_monotone(self, rng):
        for _ in range(30):
            j = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            q = random_q(rng, j, k)
            params = DinaParams(rng.uniform(0.05, 0.45, j), rng.uniform(0.05, 0.45, j))
            assert monotonicity_ok(dina_theta_table(q, params), q)


class TestThetaTables:
    def test_dina_values(self):
        q = QMatrix.from_rows([[1, 0], [1, 1]])
        params = DinaParams(np.array([0.2, 0.2]), np.array([0.2, 0.2]))
        theta = theta_table("dina", q, params)
        assert theta[0, 0b01] == pytest.approx(0.8)
        assert theta[1, 0b01] == pytest.approx(0.2)
        # the all-ones pattern is always capable
        assert theta[1, 0b11] == pytest.approx(0.8)

    def test_dina_zero_row_always_capable(self):
        q = QMatrix.from_rows([[0, 0]])
        params = DinaParams(np.array([0.1]), np.array([0.3]))
        theta = theta_table("dina", q, params)
        for a in range(4):
            assert theta[0, a] == pytest.approx(0.9)

    def test_dino_gate(self):
        q = QMatrix.from_rows([[1, 1]])
        params = DinaParams(np.array([0.2]), np.array([0.3]))
        theta = theta_table("dino", q, params)
        assert theta[0, 0b01] == pytest.approx(0.8)  # one shared attr
        assert theta[0, 0b00] == pytest.approx(0.3)

    def test_dino_duality_with_dina(self, rng):
        # the disjunctive model is the conjunctive one with capable and
        # non-capable probabilities swapped and pattern labels complemented
        for _ in range(10):
            j = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            q = random_q(rng, j, k)
            c = rng.uniform(0.6, 0.95, size=j)
            g = rng.uniform(0.05, 0.4, size=j)
            params = DinaParams(1 - c, g)
            p = rng.dirichlet(np.ones(1 << k))
            dino = response_distribution(dino_theta_table(q, params), p)

            from qident.qmatrix import gamma_matrix

            gam = gamma_matrix(q).astype(float)
            swapped = gam * g[:, None] + (1 - gam) * c[:, None]
            p_flip = p[::-1].copy()  # complementing a pattern reverses the mask order
            dual = response_distribution(swapped, p_flip)
            assert_allclose(dino, dual, atol=1e-14)


class TestBetaConversion:
    def test_main_effect_item(self):
        q = QMatrix.from_rows([[0, 1]])
        params = beta_to_theta([{0: 0.2, 0b10: 0.6}], q)
        assert_allclose(params.theta[0], [0.2, 0.2, 0.8, 0.8])

    def test_intercept_only(self):
        q = QMatrix.from_rows([[1, 1]])
        params = beta_to_theta([{0: 0.4}], q)
        assert_allclose(params.theta[0], 0.4)

    def test_illegal_support(self):
        q = QMatrix.from_rows([[1, 0]])
        with pytest.raises(IllegalCoefficient):
            beta_to_theta([{0: 0.2, 0b10: 0.3}], q)

    def test_round_trip_against_linear_solve(self, rng):
        # independent oracle: solve the subset design system numerically
        q = random_q(rng, 4, 3, ensure_nonzero_rows=True)
        betas = []
        for j in range(4):
            mask = int(q.row_masks[j])
            subsets = [s for s in range(8) if s & mask == s]
            coefs = {s: 0.0 for s in subsets}
            coefs[0] = 0.3
            remaining = [s for s in subsets if s]
            weights = rng.uniform(0.02, 0.5 / max(len(remaining), 1), size=len(remaining))
            for s, wgt in zip(remaining, weights):
                coefs[s] = float(wgt)
            betas.append(coefs)
        params = beta_to_theta(betas, q)
        back = theta_to_beta(params, q)
        for j in range(4):
            mask = int(q.row_masks[j])
            subsets = sorted(s for s in range(8) if s & mask == s)
            design = np.array(
                [[1.0 if (s & t) == s else 0.0 for s in subsets] for t in subsets]
            )
            rhs = np.array([params.theta[j, t] for t in subsets])
            solved = np.linalg.solve(design, rhs)
            for s, value in zip(subsets, solved):
                assert back[j].get(s, 0.0) == pytest.approx(value, abs=1e-12)
                assert betas[j].get(s, 0.0) == pytest.approx(value, abs=1e-12)


class TestDistribution:
    def test_paired_design_all_zero_pattern(self):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        p = np.full(4, 0.25)
        # hand enumeration: 0.25 * (0.8^4 + 2 * 0.2^2 * 0.8^2 + 0.2^4)
        assert pmf("dina", Q4X2_PAIRED, params, p, 0) == pytest.approx(0.1156)

    def test_point_mass(self):
        q = QMatrix.from_rows([[1, 0], [0, 1]])
        params = DinaParams(np.array([0.2, 0.3]), np.array([0.1, 0.15]))
        p = np.array([0.0, 0.0, 0.0, 1.0])
        value = pmf("dina", q, params, p, 0b11)
        assert value == pytest.approx(0.8 * 0.7)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 3)),
        model=st.sampled_from(["dina", "dino"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_normalization(self, shape, model, seed):
        # the product table against the row-by-row reference, every pattern
        j, k = shape
        rng = np.random.default_rng(seed)
        q = random_q(rng, j, k)
        params = DinaParams(rng.uniform(0.05, 0.3, j), rng.uniform(0.05, 0.3, j))
        p = rng.dirichlet(np.ones(1 << k))
        p[rng.random(1 << k) < 0.25] = 0.0  # classes without mass are skipped
        dist = full_distribution(model, q, params, p)
        assert abs(dist.sum() - p.sum()) < 1e-10
        for r in range(1 << j):
            assert dist[r] == pytest.approx(pmf(model, q, params, p, r), abs=1e-14)

    def test_dina_embeds_in_gdina(self, rng):
        q = random_q(rng, 5, 3, ensure_nonzero_rows=True)
        params = DinaParams(rng.uniform(0.05, 0.3, 5), rng.uniform(0.05, 0.3, 5))
        p = rng.dirichlet(np.ones(8))
        embedded = GdinaParams.from_dina(q, params)
        embedded.validate_for(q)
        a = full_distribution("dina", q, params, p)
        b = full_distribution("gdina", q, embedded, p)
        assert np.max(np.abs(a - b)) <= 1e-14

    def test_label_swap_invariance(self, rng):
        q = random_q(rng, 5, 3, ensure_nonzero_rows=True)
        theta = rng.uniform(0.1, 0.9, (5, 8))
        # make theta respect the design, then permute attribute labels
        masks = q.row_masks
        pats = np.arange(8)
        for j in range(5):
            theta[j] = theta[j, pats & int(masks[j])]
        p = rng.dirichlet(np.ones(8))
        perm = rng.permutation(3)
        table = np.zeros(8, dtype=int)
        for a in range(8):
            for k in range(3):
                if a >> k & 1:
                    table[a] |= 1 << perm[k]
        theta2 = np.empty_like(theta)
        theta2[:, table] = theta
        p2 = np.empty_like(p)
        p2[table] = p
        a = response_distribution(theta, p)
        b = response_distribution(theta2, p2)
        assert_allclose(a, b, atol=1e-14)

    def test_guard(self):
        theta = np.full((25, 2), 0.5)
        with pytest.raises(TooLarge):
            response_distribution(theta, np.array([0.5, 0.5]))


class TestSimulate:
    def test_empty(self):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        data = simulate("dina", Q4X2_PAIRED, params, np.full(4, 0.25), 0, seed=1)
        assert data.n_subjects == 0 and len(data.patterns) == 0

    def test_seed_determinism(self):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        p = np.full(4, 0.25)
        a = simulate("dina", Q4X2_PAIRED, params, p, 500, seed=42)
        b = simulate("dina", Q4X2_PAIRED, params, p, 500, seed=42)
        assert (a.patterns == b.patterns).all() and (a.counts == b.counts).all()

    def test_frequencies_match_distribution(self):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        p = np.full(4, 0.25)
        n = 100_000
        data = simulate("dina", Q4X2_PAIRED, params, p, n, seed=7)
        dist = full_distribution("dina", Q4X2_PAIRED, params, p)
        freq = np.zeros(16)
        for pat, cnt in zip(data.patterns, data.counts):
            freq[pat] = cnt / n
        bound = 3 * np.sqrt(dist * (1 - dist) / n)
        assert (np.abs(freq - dist) <= bound + 1e-12).all()

    def test_dataset_round_trip(self):
        matrix = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]])
        data = Dataset.from_matrix(matrix)
        assert data.n_subjects == 3
        back = data.to_matrix()
        assert sorted(map(tuple, back.tolist())) == sorted(map(tuple, matrix.tolist()))


def test_pattern_string_orientation():
    # attribute 1 is bit 0 and prints first
    assert pattern_string(0b01, 2) == "10"
    assert pattern_string(0b10, 2) == "01"


def test_equal_effects_levels():
    from qident.catalog import equal_effects_theta

    q = QMatrix.from_rows([[1, 1, 0], [0, 1, 0]])
    theta = equal_effects_theta(q, lo=0.2, hi=0.8)
    # two-attribute item: levels 0.2 / 0.4 / 0.8 by mastered-subset size
    assert theta[0, 0b000] == pytest.approx(0.2)
    assert theta[0, 0b001] == pytest.approx(0.4)
    assert theta[0, 0b010] == pytest.approx(0.4)
    assert theta[0, 0b011] == pytest.approx(0.8)
    assert theta[0, 0b111] == pytest.approx(0.8)
    # single-attribute item: two levels only
    assert theta[1, 0b000] == pytest.approx(0.2)
    assert theta[1, 0b010] == pytest.approx(0.8)


def test_theta_table_dispatch(rng):
    q = random_q(rng, 3, 2, ensure_nonzero_rows=True)
    params = DinaParams(rng.uniform(0.05, 0.3, 3), rng.uniform(0.05, 0.3, 3))
    assert theta_table("dina", q, params).shape == (3, 4)
    assert theta_table("dino", q, params).shape == (3, 4)
    with pytest.raises(ValueError):
        theta_table("logit", q, params)
