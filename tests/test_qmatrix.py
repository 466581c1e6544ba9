"""Condition checks, classification, enumeration, and their invariants."""

import itertools

import numpy as np
import pytest

from qident import (
    QMatrix,
    Scenario,
    check_condition_A,
    check_condition_B,
    check_condition_C,
    check_conditions_DE,
    check_generic_completeness,
    classify_dina,
    classify_gdina,
    enumerate_canonical,
    gamma_matrix,
    q_equivalent,
    strip_zero_rows,
)
from qident.catalog import (
    Q3X2_ALL_ONES,
    Q4X2_PAIR_WITH_FULL_ROW,
    Q4X2_PAIRED,
    Q5X2_DOUBLE_IDENTITY,
    Q5X2_LONELY_ATTRIBUTE,
    Q5X2_PAIRED_PLUS_ONE,
    Q5X2_SINGLE_IDENTITY,
    Q12X8_WIDE_STRICT,
)
from qident.errors import (
    AllRowsZero,
    HasZeroRows,
    NotComplete,
    ShapeMismatch,
    TooLarge,
)

from tests.conftest import brute_force_generic_complete, random_q


class TestConditionA:
    def test_paired_design_complete(self):
        ok, witness = check_condition_A(Q4X2_PAIRED)
        assert ok
        # rows 0 and 1 are the two unit rows
        assert witness == (0, 1)

    def test_wide_design_complete(self):
        ok, witness = check_condition_A(Q12X8_WIDE_STRICT)
        assert ok
        assert witness == tuple(range(8))

    def test_single_dense_row_incomplete(self):
        ok, witness = check_condition_A(QMatrix.from_rows([[1, 1]]))
        assert not ok and witness is None


class TestConditionB:
    def test_paired_design(self):
        assert check_condition_B(Q4X2_PAIRED)

    def test_bare_identity_fails(self):
        assert not check_condition_B(QMatrix(np.eye(2, dtype=int)))
        assert not check_condition_B(QMatrix(np.eye(4, dtype=int)))

    def test_identity_plus_equal_columns_fails(self):
        q = QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1], [1, 1]])
        assert not check_condition_B(q)

    def test_requires_completeness(self):
        with pytest.raises(NotComplete):
            check_condition_B(QMatrix.from_rows([[1, 1], [1, 1]]))


class TestConditionC:
    def test_paired_design_fails(self):
        assert not check_condition_C(Q4X2_PAIRED)

    def test_wide_design(self):
        assert check_condition_C(Q12X8_WIDE_STRICT)

    def test_all_ones(self):
        assert check_condition_C(QMatrix(np.ones((3, 4), dtype=int)))
        assert not check_condition_C(QMatrix(np.ones((2, 4), dtype=int)))

    def test_min_count_one(self):
        assert check_condition_C(Q4X2_PAIRED, min_count=1)


class TestGenericCompleteness:
    def test_all_ones_3x2(self):
        ok, assignment = check_generic_completeness(Q3X2_ALL_ONES)
        assert ok
        assert len(set(assignment)) == 2

    def test_zero_column(self):
        q = QMatrix.from_rows([[1, 0], [1, 0], [1, 0]])
        ok, assignment = check_generic_completeness(q)
        assert not ok and assignment is None

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            j = int(rng.integers(2, 9))
            k = int(rng.integers(1, 6))
            q = random_q(rng, j, k)
            ok, assignment = check_generic_completeness(q)
            assert ok == brute_force_generic_complete(q)
            if ok:
                assert len(set(assignment)) == k
                assert all(q.entries[assignment[a], a] for a in range(k))


class TestConditionsDE:
    def test_double_identity_plus_full(self):
        d, e, partition = check_conditions_DE(Q5X2_DOUBLE_IDENTITY)
        assert d and e
        rows1, rows2, rest = partition
        assert not set(rows1) & set(rows2)
        assert set(rows1) | set(rows2) | set(rest) == set(range(5))
        # each block carries a matching: row i of the block requires attribute i
        for rows in (rows1, rows2):
            assert all(Q5X2_DOUBLE_IDENTITY.entries[rows[a], a] for a in range(2))

    def test_blocks_without_leftover(self):
        # two generically complete blocks but nothing left for coverage
        q = QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1]])
        d, e, partition = check_conditions_DE(q)
        assert d and not e

    def test_too_few_rows(self):
        d, e, _ = check_conditions_DE(Q3X2_ALL_ONES)
        assert not (d and e)

    def test_de_implies_repetition(self, rng):
        hits = 0
        for _ in range(200):
            q = random_q(rng, int(rng.integers(3, 9)), int(rng.integers(2, 5)))
            d, e, _ = check_conditions_DE(q)
            if d and e:
                hits += 1
                assert check_condition_C(q)
        assert hits > 0

    def test_completeness_implies_generic_completeness(self, rng):
        hits = 0
        for _ in range(200):
            q = random_q(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            ok_a, _ = check_condition_A(q)
            if ok_a:
                hits += 1
                assert check_generic_completeness(q)[0]
        assert hits > 0


class TestStripZeroRows:
    def test_drops_and_maps(self):
        q = QMatrix.from_rows([[0, 0], [1, 0], [0, 1]])
        reduced, removed = strip_zero_rows(q)
        assert removed == (0,)
        assert reduced == QMatrix.from_rows([[1, 0], [0, 1]])

    def test_identity_when_clean(self):
        reduced, removed = strip_zero_rows(Q4X2_PAIRED)
        assert removed == () and reduced == Q4X2_PAIRED

    def test_trailing_zero_block(self):
        q = QMatrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]])
        reduced, removed = strip_zero_rows(q)
        assert removed == (2, 3)
        assert reduced == QMatrix.from_rows([[1, 0], [0, 1]])

    def test_all_zero(self):
        with pytest.raises(AllRowsZero):
            strip_zero_rows(QMatrix.from_rows([[0, 0]]))

    def test_idempotent(self, rng):
        q = random_q(rng, 6, 3)
        try:
            reduced, _ = strip_zero_rows(q)
        except AllRowsZero:
            return
        again, removed = strip_zero_rows(reduced)
        assert removed == () and again == reduced


class TestClassifyDina:
    def test_strict_designs(self):
        assert classify_dina(Q5X2_SINGLE_IDENTITY).scenario is Scenario.STRICT
        assert classify_dina(Q5X2_DOUBLE_IDENTITY).scenario is Scenario.STRICT
        assert classify_dina(Q12X8_WIDE_STRICT).scenario is Scenario.STRICT

    def test_pair_with_full_row_not_local(self):
        verdict = classify_dina(Q4X2_PAIR_WITH_FULL_ROW)
        assert verdict.scenario is Scenario.NOT_LOCALLY_GENERIC_A
        assert verdict.identifiable is False

    def test_paired_designs_generic(self):
        assert classify_dina(Q4X2_PAIRED).scenario is Scenario.GENERIC_B2
        assert classify_dina(Q5X2_PAIRED_PLUS_ONE).scenario is Scenario.GENERIC_B2

    def test_lonely_attribute(self):
        verdict = classify_dina(Q5X2_LONELY_ATTRIBUTE)
        assert verdict.scenario is Scenario.NOT_GENERIC_ONE_ITEM

    def test_scenario_b1_needs_three_attributes(self):
        # attribute 1 paired on unit rows; the residual passes A, B, C but
        # carries only one copy of one unit row, so the double-identity route
        # is unavailable
        q = QMatrix.from_rows(
            [
                [1, 0, 0],
                [1, 0, 0],
                [0, 1, 0],
                [0, 0, 1],
                [0, 1, 0],
                [0, 1, 1],
                [0, 1, 1],
            ]
        )
        assert classify_dina(q).scenario is Scenario.GENERIC_B1

    def test_scenario_c_mixed_partner(self):
        q = QMatrix.from_rows(
            [
                [1, 0, 0],
                [1, 1, 0],
                [0, 1, 0],
                [0, 0, 1],
                [0, 1, 0],
                [0, 1, 1],
                [0, 1, 1],
            ]
        )
        verdict = classify_dina(q)
        assert verdict.scenario is Scenario.LOCAL_GENERIC_C
        assert verdict.measure_zero_constraints

    def test_incomplete_with_dense_columns(self):
        q = QMatrix.from_rows([[1, 1], [1, 1], [0, 1], [0, 1], [0, 1]])
        assert classify_dina(q).scenario is Scenario.NOT_LOCALLY_GENERIC_A

    def test_b_violation_k2(self):
        q = QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1], [1, 1]])
        assert classify_dina(q).scenario is Scenario.NOT_LOCALLY_GENERIC_A

    def test_zero_rows_rejected(self):
        with pytest.raises(HasZeroRows):
            classify_dina(QMatrix.from_rows([[1, 0], [0, 0]]))

    def test_strip_then_classify_consistent(self):
        padded = QMatrix(
            np.vstack([Q5X2_SINGLE_IDENTITY.entries, np.zeros((2, 2), dtype=int)])
        )
        reduced, _ = strip_zero_rows(padded)
        assert classify_dina(reduced).scenario is Scenario.STRICT


class TestClassifyGdina:
    def test_single_identity_generic(self):
        verdict = classify_gdina(Q5X2_SINGLE_IDENTITY)
        assert verdict.scenario is Scenario.GENERIC_DE
        assert verdict.identifiable is True

    def test_all_ones_3x2_not_generic(self):
        verdict = classify_gdina(Q3X2_ALL_ONES)
        assert verdict.scenario is Scenario.NOT_GENERIC_K2_DE
        assert verdict.identifiable is False

    def test_two_item_attribute_20x5_fails_repetition(self):
        from qident.catalog import two_item_20x5_pair

        q, _ = two_item_20x5_pair()
        assert classify_gdina(q).scenario is Scenario.NOT_GENERIC_C_GDINA

    def test_hall_violation_label(self):
        # four attributes supported by three items only: repetition holds but
        # no attribute-item matching exists
        q = QMatrix.from_rows(
            [
                [1, 1, 1, 1, 0],
                [1, 1, 1, 1, 0],
                [1, 1, 1, 1, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 0, 1],
            ]
        )
        verdict = classify_gdina(q)
        assert verdict.condition_flags["C"] is True
        assert verdict.condition_flags["generic_complete"] is False
        assert verdict.scenario is Scenario.NOT_GENERIC_GC

    def test_saturated_square_undetermined_for_k3(self):
        # repetition and generic completeness hold, blocks impossible, K > 2:
        # outside the classified cases
        q = QMatrix(np.ones((3, 3), dtype=int))
        assert classify_gdina(q).scenario is Scenario.UNDETERMINED


class TestEnumeration:
    def test_census_5x2(self):
        mats = enumerate_canonical(5, 2)
        assert len(mats) == 121
        assert all(not m.has_zero_rows for m in mats)
        assert all(m.column_sums().min() >= 1 for m in mats)
        # representatives are pairwise inequivalent
        seen = set()
        for m in mats:
            key = tuple(sorted(m.entries[:, k].tobytes() for k in range(2)))
            assert key not in seen
            seen.add(key)

    def test_census_composition(self):
        # Counting oracle: with rows drawn from {(10),(01),(11)}, the strict
        # multisets are {e1^2,e2^2,d} (5!/2!2! = 30 arrangements, halved by
        # the column swap -> 15) and {e1^2,e2,d^2} plus its mirror (30 + 30
        # arrangements -> 30 classes); a lone attribute arises from
        # {e1,e2^4} and {d,e2^4} type multisets (5 + 5 classes); the paired
        # generic design {e1^2,e2^3} gives 10 classes; everything else is
        # not even locally generic (56 classes).
        from collections import Counter

        mats = enumerate_canonical(5, 2)
        dina = Counter(classify_dina(m).scenario for m in mats)
        assert dina[Scenario.STRICT] == 45
        assert dina[Scenario.GENERIC_B2] == 10
        assert dina[Scenario.NOT_GENERIC_ONE_ITEM] == 10
        assert dina[Scenario.NOT_LOCALLY_GENERIC_A] == 56
        # the general-model block conditions: {e1^2,e2^2,d}: 15,
        # {e1^2,e2,d^2}+mirror: 30, {e^2,d^3}: 10, {e1,e2,d^3}: 10,
        # {e,d^4}: 5, all-ones: 1 -> 71 classes; the rest fail repetition
        gdina = Counter(classify_gdina(m).scenario for m in mats)
        assert gdina[Scenario.GENERIC_DE] == 71
        assert gdina[Scenario.NOT_GENERIC_C_GDINA] == 50

    def test_singleton(self):
        mats = enumerate_canonical(1, 1)
        assert len(mats) == 1 and mats[0] == QMatrix.from_rows([[1]])

    def test_2x2_against_orbit_oracle(self):
        mats = enumerate_canonical(2, 2)
        # oracle: enumerate all 2^(2*2) matrices, drop zero rows and zero
        # columns, quotient by the two column permutations
        classes = set()
        for bits in itertools.product([0, 1], repeat=4):
            m = np.array(bits).reshape(2, 2)
            if m.sum(axis=1).min() == 0 or m.sum(axis=0).min() == 0:
                continue
            key = min(m.tobytes(), m[:, ::-1].copy().tobytes())
            classes.add(key)
        assert len(mats) == len(classes)

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_canonical(13, 2)


class TestEquivalence:
    def test_column_swap(self):
        a = QMatrix.from_rows([[1, 0], [0, 1]])
        b = QMatrix.from_rows([[0, 1], [1, 0]])
        assert q_equivalent(a, b)

    def test_reflexive(self):
        assert q_equivalent(Q4X2_PAIRED, Q4X2_PAIRED)

    def test_distinct(self):
        a = QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        b = QMatrix.from_rows([[1, 0], [0, 1], [1, 0]])
        assert not q_equivalent(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            q_equivalent(Q4X2_PAIRED, Q3X2_ALL_ONES)


class TestPermutationInvariance:
    def test_all_checks_invariant(self, rng):
        for _ in range(60):
            j = int(rng.integers(2, 8))
            k = int(rng.integers(2, 5))
            q = random_q(rng, j, k, ensure_nonzero_rows=True)
            row_perm = rng.permutation(j)
            col_perm = rng.permutation(k)
            q2 = QMatrix(q.entries[row_perm][:, col_perm])

            assert check_condition_A(q)[0] == check_condition_A(q2)[0]
            assert check_condition_C(q) == check_condition_C(q2)
            if check_condition_A(q)[0]:
                assert check_condition_B(q) == check_condition_B(q2)
            assert check_generic_completeness(q)[0] == check_generic_completeness(q2)[0]
            d1, e1, _ = check_conditions_DE(q)
            d2, e2, _ = check_conditions_DE(q2)
            assert (d1, e1 and d1) == (d2, e2 and d2)
            assert classify_dina(q).scenario == classify_dina(q2).scenario
            assert classify_gdina(q).scenario == classify_gdina(q2).scenario


class TestGammaMatrix:
    def test_boundary_columns(self):
        gam = gamma_matrix(Q4X2_PAIR_WITH_FULL_ROW)
        assert (gam[:, -1] == 1).all()  # all-ones pattern covers everything
        assert (gam[:, 0] == 0).all()  # no zero rows here

    def test_zero_row_indicator(self):
        q = QMatrix.from_rows([[0, 0], [1, 0]])
        gam = gamma_matrix(q)
        assert gam[0, 0] == 1 and gam[1, 0] == 0
