"""Certified indistinguishable-alternative constructions."""

import numpy as np
import pytest

from qident import DinaParams, QMatrix, RlcmModel, q_equivalent
from qident.catalog import (
    Q4X2_PAIR_WITH_FULL_ROW,
    Q5X2_LONELY_ATTRIBUTE,
    equal_effects_theta,
    two_item_20x3_pair,
)
from qident.errors import (
    ConstraintHolds,
    InvalidFreeValues,
    NotCertified,
    NotSubsumed,
    WrongShape,
)
from qident.rlcm import dina_theta_table, response_distribution
from qident.witness import (
    CERT_TOL,
    WitnessPair,
    certify,
    dina_one_item_attr,
    dina_q24_two_solutions,
    dina_scenario_a,
    gdina_one_item_attr,
    gdina_two_item_attr,
    incomplete_gamma_merge,
    q24_constraint_gap,
)


def _dina_model(q, params, p):
    return RlcmModel(q, dina_theta_table(q, params), np.asarray(p, float), kind="dina")


class TestCertify:
    def test_truth_vs_itself_fails_distinctness(self, rng):
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        p = rng.dirichlet(np.ones(4))
        model = _dina_model(Q5X2_LONELY_ATTRIBUTE, params, p)
        pair = WitnessPair(truth=model, alternative=model, construction="self")
        with pytest.raises(NotCertified):
            certify(pair)
        assert pair.certified_max_diff == 0.0

    def test_corrupted_alternative_detected(self, rng):
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        p = rng.dirichlet(np.ones(4))
        truth = _dina_model(Q5X2_LONELY_ATTRIBUTE, params, p)
        theta_bad = truth.theta.copy()
        theta_bad[0] = theta_bad[0] + 0.01
        pair = WitnessPair(
            truth=truth,
            alternative=RlcmModel(truth.q, theta_bad, truth.p, kind="dina"),
            construction="corrupted",
        )
        with pytest.raises(NotCertified):
            certify(pair)
        assert pair.certified_max_diff > 1e-4


class TestDinaOneItemAttr:
    def test_degenerate_choice_rejected(self, rng):
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        p = rng.dirichlet(np.ones(4))
        with pytest.raises(NotCertified):
            dina_one_item_attr(Q5X2_LONELY_ATTRIBUTE, params, p, float(params.c[3]))

    def test_certified_family(self, rng):
        # a 3-attribute instance with attribute 1 on a single unit row
        q = QMatrix.from_rows(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 0, 1]]
        )
        params = DinaParams(rng.uniform(0.1, 0.3, 6), rng.uniform(0.1, 0.3, 6))
        p = rng.dirichlet(np.full(8, 3.0))
        c1 = float(params.c[0])
        pbars = []
        for c_bar in np.linspace(c1 - 0.05, c1 + 0.15, 9):
            if abs(c_bar - c1) < 1e-3:
                continue
            try:
                pair = dina_one_item_attr(q, params, p, float(c_bar))
            except InvalidFreeValues:
                continue
            assert pair.certified_max_diff < CERT_TOL
            assert abs(pair.alternative.p.sum() - 1.0) < 1e-12
            pbars.append(pair.alternative.p)
        assert len(pbars) >= 5
        # one-parameter family: distinct choices give distinct proportions
        for i in range(len(pbars)):
            for j in range(i + 1, len(pbars)):
                assert np.max(np.abs(pbars[i] - pbars[j])) > 1e-6

    def test_out_of_range_rejected(self, rng):
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        p = rng.dirichlet(np.ones(4))
        with pytest.raises(InvalidFreeValues):
            dina_one_item_attr(Q5X2_LONELY_ATTRIBUTE, params, p, 0.05)

    def test_wrong_shape(self, rng):
        q = QMatrix.from_rows([[1, 1], [1, 1], [1, 1]])
        params = DinaParams(rng.uniform(0.1, 0.3, 3), rng.uniform(0.1, 0.3, 3))
        with pytest.raises(WrongShape):
            dina_one_item_attr(q, params, np.full(4, 0.25), 0.7)


class TestDinaScenarioA:
    def test_both_sides_certify(self, rng):
        params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.full(4, 3.0))
        g1 = float(params.g[0])
        for delta in (0.02, -0.02):
            pair = dina_scenario_a(Q4X2_PAIR_WITH_FULL_ROW, params, p, g1 + delta)
            assert pair.certified_max_diff < CERT_TOL
            assert abs(pair.alternative.p.sum() - 1.0) < 1e-12

    def test_grid_family(self, rng):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        p = rng.dirichlet(np.full(4, 3.0))
        seen = []
        for g_bar in np.linspace(0.1, 0.35, 20):
            pair = dina_scenario_a(Q4X2_PAIR_WITH_FULL_ROW, params, p, float(g_bar))
            seen.append(pair.alternative.p)
        assert len(seen) == 20
        for i in range(20):
            for j in range(i + 1, 20):
                assert np.max(np.abs(seen[i] - seen[j])) > 1e-9

    def test_degenerate_rejected(self, rng):
        params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.ones(4))
        with pytest.raises((NotCertified, InvalidFreeValues)):
            dina_scenario_a(Q4X2_PAIR_WITH_FULL_ROW, params, p, float(params.g[0]))

    def test_wrong_shape(self, rng):
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        with pytest.raises(WrongShape):
            dina_scenario_a(Q5X2_LONELY_ATTRIBUTE, params, np.full(4, 0.25), 0.22)


class TestQ24:
    def test_uniform_proportions_yield_alternatives(self):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        pairs = dina_q24_two_solutions(params, np.full(4, 0.25), count=2)
        assert len(pairs) >= 2
        for pair in pairs:
            assert pair.certified_max_diff < CERT_TOL
            assert abs(pair.alternative.p.sum() - 1.0) < 1e-12
            # the alternative is a valid conjunctive model: capable beats guessing
            theta = pair.alternative.theta
            assert (theta.max(axis=1) > theta.min(axis=1)).all()

    def test_generic_proportions_raise(self, rng):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        p = rng.dirichlet(np.full(4, 3.0))
        assert q24_constraint_gap(p) > 1e-10
        with pytest.raises(ConstraintHolds):
            dina_q24_two_solutions(params, p)

    def test_rank_one_nonuniform(self):
        # independent attributes with unequal marginals still factorize
        w1, w2 = 0.3, 0.6
        p = np.array(
            [(1 - w1) * (1 - w2), w1 * (1 - w2), (1 - w1) * w2, w1 * w2]
        )
        params = DinaParams(np.array([0.2, 0.25, 0.15, 0.3]), np.array([0.1, 0.2, 0.25, 0.15]))
        pairs = dina_q24_two_solutions(params, p, count=2)
        assert len(pairs) == 2


class TestGdinaOneItemAttr:
    def test_random_instance_certifies(self, rng):
        q = QMatrix.from_rows(
            [[1, 1, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 0, 1]]
        )
        theta = equal_effects_theta(q)
        p = rng.dirichlet(np.ones(8))
        pair = gdina_one_item_attr(q, theta, p, seed=3)
        assert pair.certified_max_diff < CERT_TOL
        # the alternative design is a genuinely different matrix
        assert not q_equivalent(pair.truth.q, pair.alternative.q)
        assert (pair.alternative.q.entries[0] == 1).all()

    def test_explicit_free_values(self, rng):
        q = QMatrix.from_rows([[1, 0], [0, 1], [0, 1], [0, 1]])
        theta = equal_effects_theta(q)
        p = np.full(4, 0.25)
        low = np.array([theta[0, 0], theta[0, 2]])
        # the all-ones pattern must stay the item's maximum under the new design
        free = np.vstack([low - 0.05, [theta[0, 1] + 0.01, theta[0, 3] + 0.05]])
        pair = gdina_one_item_attr(q, theta, p, free_values=free)
        assert pair.certified_max_diff < CERT_TOL


class TestGdinaTwoItemAttr:
    def test_count_and_certification(self, rng):
        q, q_bar = two_item_20x3_pair()
        theta = equal_effects_theta(q)
        p = np.full(8, 1 / 8)
        pairs = gdina_two_item_attr(q, theta, p, count=3, seed=11)
        assert len(pairs) == 3
        for pair in pairs:
            assert pair.certified_max_diff < CERT_TOL
            assert pair.alternative.q == q_bar
            assert abs(pair.alternative.p.sum() - 1.0) < 1e-9

    def test_small_instance(self, rng):
        q = QMatrix.from_rows([[1, 1], [1, 0], [0, 1], [0, 1], [0, 1]])
        theta = equal_effects_theta(q)
        p = rng.dirichlet(np.ones(4))
        pairs = gdina_two_item_attr(q, theta, p, count=2, seed=5)
        assert all(pair.certified_max_diff < CERT_TOL for pair in pairs)


class TestGammaMerge:
    def test_20x3_first_alternative_table(self, rng):
        # the first 20x3 alternative separates exactly one merged pattern:
        # (0,1,1) becomes distinguishable, so its mass moves to (0,1,0)
        from qident.catalog import incomplete_20x3_family

        q, alt1, _ = incomplete_20x3_family()
        params = DinaParams(rng.uniform(0.1, 0.3, 20), rng.uniform(0.1, 0.3, 20))
        p = rng.dirichlet(np.full(8, 3.0))
        pair = incomplete_gamma_merge(q, alt1, params, p)
        p_bar = pair.alternative.p
        m011 = 0b110  # pattern (a1,a2,a3) = (0,1,1), little-endian mask
        m010 = 0b010
        assert p_bar[m011] == 0.0
        assert p_bar[m010] == pytest.approx(p[m010] + p[m011], abs=1e-15)
        for mask in range(8):
            if mask not in (m011, m010):
                assert p_bar[mask] == pytest.approx(p[mask], abs=1e-15)

    def test_identity_when_designs_equal(self, rng):
        q = QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        params = DinaParams(rng.uniform(0.1, 0.3, 3), rng.uniform(0.1, 0.3, 3))
        p = rng.dirichlet(np.ones(4))
        pair = incomplete_gamma_merge(q, q, params, p)
        assert pair.certified_max_diff == 0.0
        assert np.allclose(pair.alternative.p, p)

    def test_small_incomplete_merge(self, rng):
        # truth lacks the second unit row; the alternative splits the dense row
        q = QMatrix.from_rows([[1, 0], [1, 1], [1, 1], [1, 0]])
        q_bar = QMatrix.from_rows([[1, 0], [0, 1], [0, 1], [1, 0]])
        params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.ones(4))
        pair = incomplete_gamma_merge(q, q_bar, params, p)
        assert pair.certified_max_diff < CERT_TOL

    def test_not_subsumed(self, rng):
        # reversed direction: the target cannot reproduce the richer columns
        q = QMatrix.from_rows([[1, 0], [0, 1], [0, 1], [1, 0]])
        q_bar = QMatrix.from_rows([[1, 0], [1, 1], [1, 1], [1, 0]])
        params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.ones(4))
        with pytest.raises(NotSubsumed):
            incomplete_gamma_merge(q, q_bar, params, p)


class TestNegativeControl:
    def test_random_perturbations_never_certify(self, rng):
        # generically identifiable design with constraint-satisfying p:
        # perturbed alternatives stay visibly different
        params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.full(4, 3.0))
        truth = _dina_model(QMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]]), params, p)
        base = truth.distribution()
        for _ in range(50):
            theta_alt = np.clip(truth.theta + rng.uniform(-0.05, 0.05, truth.theta.shape), 0.01, 0.99)
            p_alt = rng.dirichlet(np.full(4, 3.0))
            alt = RlcmModel(truth.q, theta_alt, p_alt, kind="dina")
            diff = np.max(np.abs(base - response_distribution(theta_alt, p_alt)))
            assert diff > CERT_TOL
            del alt
