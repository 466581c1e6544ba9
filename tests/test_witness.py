"""Certified indistinguishable-alternative constructions."""

import tracemalloc

import numpy as np
import pytest

from qident import DinaParams, QMatrix, RlcmModel, Scenario, classify_dina, q_equivalent
from qident.catalog import (
    Q4X2_PAIR_WITH_FULL_ROW,
    Q4X2_PAIRED,
    Q5X2_DOUBLE_IDENTITY,
    Q5X2_LONELY_ATTRIBUTE,
    equal_effects_theta,
    two_item_20x3_pair,
)
from qident.errors import (
    ConstraintHolds,
    InvalidFreeValues,
    NotCertified,
    NotSubsumed,
    TooLarge,
    WrongShape,
)
from qident.qmatrix import enumerate_canonical, gamma_matrix
from qident.rlcm import monotonicity_ok, response_distribution, theta_table
from qident.tmatrix import _max_abs_difference
from qident.witness import (
    CERT_TOL,
    WitnessPair,
    _dina_pair,
    _first_certified,
    certify,
    dina_one_item_attr,
    dina_q24_two_solutions,
    dina_scenario_a,
    gdina_one_item_attr,
    gdina_two_item_attr,
    incomplete_gamma_merge,
    q24_constraint_gap,
)

from tests.conftest import as_qmatrices


def _dina_model(q, params, p):
    return RlcmModel(q, theta_table("dina", q, params), np.asarray(p, float))


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
            alternative=RlcmModel(truth.q, theta_bad, truth.p),
            construction="corrupted",
        )
        with pytest.raises(NotCertified):
            certify(pair)
        assert pair.certified_max_diff > 1e-4

    def test_equal_models_differ_by_exactly_zero(self):
        q, _ = two_item_20x3_pair()
        theta, p = equal_effects_theta(q), np.full(8, 1 / 8)
        pair = WitnessPair(truth=RlcmModel(q, theta, p),
                           alternative=RlcmModel(q, theta.copy(), p.copy()), construction="copy")
        with pytest.raises(NotCertified, match="coincides"):
            certify(pair)
        assert pair.certified_max_diff == 0.0

    def test_one_theta_entry_moved_by_1e9_rejected_at_j20(self):
        q = QMatrix(np.tile(np.eye(3, dtype=int), (7, 1))[:20])
        p = np.random.default_rng(0).dirichlet(np.ones(8))
        truth = _dina_model(q, DinaParams(np.full(20, 0.2), np.full(20, 0.2)), p)
        theta = truth.theta.copy()
        theta[19, 7] += 1e-9
        pair = WitnessPair(truth=truth, alternative=RlcmModel(q, theta, p), construction="moved")
        with pytest.raises(NotCertified, match="differ by"):
            certify(pair)
        assert pair.certified_max_diff > 1e-12

    def test_one_copy_of_a_repeated_item_moved_by_1e9_rejected_at_j20(self):
        # items 3, 6, ..., 18 of the 20 x 3 design are six copies of one row
        # in both models; moving one entry of the last copy splits it from
        # the others, and the grouped kernel still sees the move, as the two
        # full 2^20 distributions do
        q, _ = two_item_20x3_pair()
        pair = gdina_two_item_attr(q, equal_effects_theta(q), np.full(8, 1 / 8), count=1, seed=3)[0]
        theta = pair.alternative.theta.copy()
        theta[17, 7] += 1e-9
        moved = WitnessPair(truth=pair.truth, construction="moved",
                            alternative=RlcmModel(pair.alternative.q, theta, pair.alternative.p))
        with pytest.raises(NotCertified, match="differ by"):
            certify(moved)
        full = np.max(np.abs(response_distribution(pair.truth.theta, pair.truth.p)
                             - response_distribution(theta, pair.alternative.p)))
        assert moved.certified_max_diff == pytest.approx(full, rel=0, abs=1e-18)
        assert full > 1e-12

    def test_nan_proportion_not_certified(self, rng):
        # the model refuses a NaN p; behind it, the difference kernel still
        # carries the NaN out, which certify's "not diff < CERT_TOL" refuses
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        theta = theta_table("dina", Q5X2_LONELY_ATTRIBUTE, params)
        nan_p = np.array([np.nan, 0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="finite"):
            RlcmModel(Q5X2_LONELY_ATTRIBUTE, theta, nan_p)
        moved = theta.copy()
        moved[0] += 0.01
        assert np.isnan(_max_abs_difference(theta, nan_p, moved, np.full(4, 0.25)))

    def test_no_2j_array_at_j20(self):
        # the full distributions would be two 8 MB arrays
        q, _ = two_item_20x3_pair()
        pair = gdina_two_item_attr(q, equal_effects_theta(q), np.full(8, 1 / 8), count=1, seed=3)[0]
        tracemalloc.start()
        try:
            assert certify(pair) < CERT_TOL
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("alt_rows", [
        [[1, 0], [0, 1], [1, 1], [1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ])
    def test_models_of_other_shapes_rejected(self, alt_rows):
        truth = _dina_model(QMatrix.from_rows([[1, 0], [0, 1], [1, 1]]),
                            DinaParams(np.full(3, 0.2), np.full(3, 0.2)), np.full(4, 0.25))
        q_alt = QMatrix.from_rows(alt_rows)
        n = len(alt_rows)
        alt = _dina_model(q_alt, DinaParams(np.full(n, 0.2), np.full(n, 0.2)),
                          np.full(1 << q_alt.n_attributes, 1 / (1 << q_alt.n_attributes)))
        with pytest.raises(WrongShape):
            certify(WitnessPair(truth=truth, alternative=alt, construction="shapes"))

    def test_guard_at_j21(self):
        q = QMatrix(np.ones((21, 1), dtype=int))
        model = _dina_model(q, DinaParams(np.full(21, 0.2), np.full(21, 0.2)), np.full(2, 0.5))
        with pytest.raises(TooLarge):
            certify(WitnessPair(truth=model, alternative=model, construction="big"))


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

    def test_single_attribute(self):
        # two items on the only attribute: each row is both the unit row and
        # the all-attributes row, the classifier's scenario (a) at K = 1
        q = QMatrix.from_rows([[1], [1]])
        assert classify_dina(q).scenario is Scenario.NOT_LOCALLY_GENERIC_A
        params = DinaParams(np.full(2, 0.2), np.full(2, 0.2))
        pair = dina_scenario_a(q, params, np.full(2, 0.5), 0.22)
        assert pair.certified_max_diff < CERT_TOL
        assert pair.details["unit_item"] == 1 and pair.details["full_item"] == 2


def _scenario_a_attribute(q):
    """Oracle: some attribute required by exactly two items, one a unit row
    and the other requiring every attribute."""
    e = q.entries
    for k in range(q.n_attributes):
        items = np.flatnonzero(e[:, k])
        if len(items) == 2:
            a, b = (e[j] for j in items)
            if (a.sum() == 1 and b.all()) or (b.sum() == 1 and a.all()):
                return True
    return False


def _lone_unit_row_attribute(q):
    """Oracle: some attribute required by exactly one item, that item a unit row."""
    e = q.entries
    return any(
        e[:, k].sum() == 1 and e[np.flatnonzero(e[:, k])[0]].sum() == 1
        for k in range(q.n_attributes)
    )


class TestClassifierAgreement:
    def test_canonical_designs_get_their_witness(self):
        # every canonical design with J <= 6, K <= 3, J * K <= 15 whose form
        # the classifier names gets a certified witness at default free values
        scenario_a = not_local = lone = 0
        for J in range(1, 7):
            for K in range(1, 4):
                if J * K > 15:
                    continue
                params = DinaParams(np.full(J, 0.2), np.full(J, 0.2))
                p = np.full(1 << K, 1 / (1 << K))
                for q in as_qmatrices(enumerate_canonical(J, K), K):
                    if _scenario_a_attribute(q):
                        scenario_a += 1
                        verdict = classify_dina(q).scenario
                        assert verdict in (Scenario.NOT_LOCALLY_GENERIC_A,
                                           Scenario.NOT_GENERIC_ONE_ITEM), q.row_strings()
                        not_local += verdict is Scenario.NOT_LOCALLY_GENERIC_A
                        assert dina_scenario_a(q, params, p).certified_max_diff < CERT_TOL
                    if _lone_unit_row_attribute(q):
                        lone += 1
                        assert classify_dina(q).scenario is Scenario.NOT_GENERIC_ONE_ITEM
                        assert dina_one_item_attr(q, params, p).certified_max_diff < CERT_TOL
        assert (scenario_a, not_local, lone) == (381, 342, 268)


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

    def test_count_zero_returns_nothing(self):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        assert dina_q24_two_solutions(params, np.full(4, 0.25), count=0) == []

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

    def test_skips_weights_outside_the_open_interval(self):
        # attribute 1 mastered at 0.9: the +0.15 and +0.1 moves leave
        # (0.02, 0.98), so the first two pairs move it down to 0.75 and 0.8
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        pairs = dina_q24_two_solutions(params, np.array([0.05, 0.45, 0.05, 0.45]), count=2)
        assert [pair.details["attribute"] for pair in pairs] == [1, 1]
        assert [pair.details["weight"] for pair in pairs] == [pytest.approx(0.75),
                                                              pytest.approx(0.8)]

    def test_skips_a_block_without_covariance(self):
        # attribute 1 is never mastered: its items are independent, and no
        # mixture weight re-solves them
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        pairs = dina_q24_two_solutions(params, np.array([0.5, 0, 0.5, 0]), count=2)
        assert len(pairs) == 2
        assert all(pair.details["attribute"] == 2 for pair in pairs)


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


    def test_degenerate_denominator_is_skipped(self):
        # item 4 alone requires attribute 1 and answers 1.0 with and without
        # it, so a draw often clips both values to 1 - 1e-4: the re-solve's
        # denominator vanishes and the draw is skipped, never divided by.  No
        # other draw keeps the proportions in [0, 1]
        theta = equal_effects_theta(Q5X2_LONELY_ATTRIBUTE)
        theta[3] = 1.0
        with np.errstate(divide="raise", invalid="raise"), pytest.raises(InvalidFreeValues):
            gdina_one_item_attr(Q5X2_LONELY_ATTRIBUTE, theta, np.full(4, 0.25))


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


class TestGdinaTwoItemSampler:
    def test_no_anchor_exhausts_the_budget(self):
        # without mass on full mastery the last pattern re-solves to
        # x1_bar = x0 < max(x1): no try can anchor the promoted rows
        q, _ = two_item_20x3_pair()
        p = np.full(8, 1 / 7)
        p[7] = 0.0
        with pytest.raises(InvalidFreeValues, match="certified only 0 of 1 witnesses"):
            gdina_two_item_attr(q, equal_effects_theta(q), p)

    def test_seeded(self):
        q, _ = two_item_20x3_pair()
        theta, p = equal_effects_theta(q), np.full(8, 1 / 8)

        def draw(seed):
            return [(pair.alternative.theta.tobytes(), pair.alternative.p.tobytes())
                    for pair in gdina_two_item_attr(q, theta, p, count=2, seed=seed)]

        assert draw(3) == draw(3)
        assert draw(3) != draw(4)

    def test_first_certified_skips_a_failing_pair(self, rng):
        params = DinaParams(np.full(5, 0.2), np.full(5, 0.2))
        good = dina_one_item_attr(Q5X2_LONELY_ATTRIBUTE, params, rng.dirichlet(np.ones(4)))
        same = WitnessPair(good.truth, good.truth, "same")  # fails distinctness
        assert _first_certified(iter([None, same, good]), 1, "witnesses") == [good]


class TestGdinaPromotion:
    @pytest.mark.parametrize("build", [gdina_one_item_attr, gdina_two_item_attr])
    def test_every_attribute_on_three_items_rejected(self, build):
        q = Q5X2_DOUBLE_IDENTITY
        with pytest.raises(WrongShape):
            build(q, equal_effects_theta(q), np.full(4, 0.25))

    def test_promoted_rows_keep_order_and_mass(self, rng):
        q6 = QMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0], [0, 0, 1]])
        q20, _ = two_item_20x3_pair()
        q5 = QMatrix.from_rows([[1, 1], [1, 0], [0, 1], [0, 1], [0, 1]])
        pairs = [gdina_one_item_attr(q, equal_effects_theta(q),
                                     rng.dirichlet(np.ones(1 << q.n_attributes)), seed=seed)
                 for q in (Q5X2_LONELY_ATTRIBUTE, q6) for seed in range(3)]
        pairs += gdina_two_item_attr(q20, equal_effects_theta(q20), np.full(8, 1 / 8), count=3)
        pairs += gdina_two_item_attr(q5, equal_effects_theta(q5), rng.dirichlet(np.ones(4)),
                                     count=2, seed=5)
        for pair in pairs:
            # q5's promoted row 11 was all-ones already: check every row
            assert monotonicity_ok(pair.alternative.theta, pair.alternative.q)
            assert abs(pair.alternative.p.sum() - 1.0) < 1e-9


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
        with pytest.raises(NotCertified, match="coincides"):
            incomplete_gamma_merge(q, q, params, p)

    def test_relabeled_truth_not_certified(self, rng):
        # q is strictly identifiable; q_bar only swaps its two columns, so
        # the merge carries the truth over to its own relabeling
        q = QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        q_bar = QMatrix(q.entries[:, ::-1])
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        p = rng.dirichlet(np.ones(4))
        with pytest.raises(NotCertified, match="coincides"):
            incomplete_gamma_merge(q, q_bar, params, p)
        swap = [0, 2, 1, 3]  # masks 01 and 10 trade places
        truth = _dina_model(q, params, p)
        pair = WitnessPair(truth=truth, construction="relabeled",
                           alternative=RlcmModel(q_bar, truth.theta[:, swap], truth.p[swap]))
        with pytest.raises(NotCertified, match="coincides"):
            certify(pair)
        assert pair.certified_max_diff == 0.0

    def test_equal_columns_relabel_either_way(self):
        # under an all-ones design masks 01 and 10 answer alike: trading
        # their masses relabels the truth, evening them out does not
        q = QMatrix(np.ones((3, 2), dtype=int))
        params = DinaParams(np.full(3, 0.2), np.full(3, 0.2))
        p = np.array([0.1, 0.1, 0.3, 0.5])
        truth = _dina_model(q, params, p)
        for p_bar, distinct in (([0.1, 0.3, 0.1, 0.5], False), ([0.1, 0.2, 0.2, 0.5], True)):
            alt = _dina_model(q, params, p_bar)
            assert WitnessPair(truth, alt, "moved").is_distinct() == distinct

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
        # pattern 01 keeps its column; 10's column (0,1,1,0) has no carrier
        with pytest.raises(NotSubsumed, match="column of pattern 10$"):
            incomplete_gamma_merge(q, q_bar, params, p)

    def test_matches_the_per_pattern_merge(self):
        rng = np.random.default_rng(5)
        params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
        p = rng.dirichlet(np.ones(4))
        designs = as_qmatrices(enumerate_canonical(4, 2), 2)
        kinds = set()
        for q in designs:
            for q_bar in designs:
                outcomes = [_merge_outcome(merge, q, q_bar, params, p)
                            for merge in (incomplete_gamma_merge, _merge_by_loop)]
                assert outcomes[0] == outcomes[1]
                kinds.add(outcomes[0][0])
        assert kinds == {"p", NotSubsumed, NotCertified}


def _merge_by_loop(q, q_bar, params, p):
    """Reference merge, one pattern at a time: each ideal-response column's
    first carrier under ``q_bar`` from a dict keyed by the column's bytes."""
    gam, gam_bar = gamma_matrix(q), gamma_matrix(q_bar)
    n = gam.shape[1]
    col = [gam[:, a].tobytes() for a in range(n)]
    col_bar = [gam_bar[:, a].tobytes() for a in range(n)]
    carriers = {}
    for a in range(n):
        carriers.setdefault(col_bar[a], a)
    p_bar = np.zeros_like(p)
    for a in range(n):
        rep = a if col_bar[a] == col[a] else carriers.get(col[a])
        if rep is None:
            raise NotSubsumed("target design has no pattern reproducing the ideal-response "
                              f"column of pattern {a:0{q.n_attributes}b}")
        p_bar[rep] += p[a]
    pair = _dina_pair(q, params, p, p_bar, "IncompleteGammaMerge",
                      {"moved_mass": float(np.sum(np.abs(p_bar - p)) / 2)}, q_bar=q_bar)
    certify(pair)
    return pair


def _merge_outcome(merge, *args):
    """("p", the alternative's proportions as bytes), or the error's class
    and message."""
    try:
        return "p", merge(*args).alternative.p.tobytes()
    except (NotSubsumed, NotCertified) as err:
        return type(err), str(err)


_SG = DinaParams(np.full(4, 0.2), np.full(4, 0.2))  # c = 0.8 on every item


@pytest.mark.parametrize("call, error, message", [
    (lambda: dina_scenario_a(Q4X2_PAIR_WITH_FULL_ROW, _SG, np.full(4, 0.25), 0.9),
     InvalidFreeValues, r"g1_bar must lie in \(0, c1\)"),
    # g1_bar = 0.5 moves all the mass of the all-attributes pattern away
    (lambda: dina_scenario_a(Q4X2_PAIR_WITH_FULL_ROW, _SG, np.full(4, 0.25), 0.5),
     InvalidFreeValues, "degenerate proportion at the all-attributes pattern"),
    # g1_bar = 0.4 moves mass by 1.5x: the full-row item's re-solved c is 1.4
    (lambda: dina_scenario_a(Q4X2_PAIR_WITH_FULL_ROW, _SG, np.full(4, 0.25), 0.4),
     InvalidFreeValues, r"re-solved capable probability 1.4\d* leaves \(g2, 1\)"),
    (lambda: dina_one_item_attr(Q5X2_LONELY_ATTRIBUTE, DinaParams(np.full(5, 0.2), np.full(5, 0.2)),
                                np.full(4, 0.25), 0.21),
     InvalidFreeValues, r"resulting proportions leave \[0, 1\]"),
    (lambda: q24_constraint_gap(np.full(8, 0.125)), WrongShape, "length-4 p"),
    (lambda: dina_q24_two_solutions(DinaParams(np.full(5, 0.2), np.full(5, 0.2)),
                                    np.full(4, 0.25)),
     WrongShape, "fixed to the 4 x 2 paired design"),
    # two blocks times eight weight moves: 16 candidates in all
    (lambda: dina_q24_two_solutions(_SG, np.full(4, 0.25), count=17),
     InvalidFreeValues, "certified only 16 of 17 alternatives"),
    (lambda: incomplete_gamma_merge(Q4X2_PAIRED, Q5X2_DOUBLE_IDENTITY, _SG, np.full(4, 0.25)),
     WrongShape, "designs must share their shape"),
    (lambda: incomplete_gamma_merge(Q4X2_PAIRED, Q4X2_PAIRED, _SG, np.full(2, 0.5)),
     WrongShape, "proportion length does not match the design"),
], ids=["scenario-a-g1-bar", "scenario-a-degenerate", "scenario-a-c2-bar", "one-item-rebalance", "q24-gap-length",
        "q24-items", "q24-budget", "gamma-merge-shapes", "gamma-merge-p-length"])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
            alt = RlcmModel(truth.q, theta_alt, p_alt)
            diff = np.max(np.abs(base - response_distribution(theta_alt, p_alt)))
            assert diff > CERT_TOL
            del alt
