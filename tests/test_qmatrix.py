"""Condition checks, classification, enumeration, and their invariants."""

import itertools
import math

import numpy as np
import pytest

from qident import (
    QMatrix,
    qmatrix,
    Scenario,
    check_conditions_DE,
    check_generic_completeness,
    classify_batch,
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
    incomplete_20x3_family,
    incomplete_20x5_family,
    two_item_20x3_pair,
    two_item_20x5_pair,
)
from qident.cli import main
from qident.errors import AllRowsZero, HasZeroRows, TooLarge, WrongShape

from tests.conftest import as_qmatrices, brute_force_generic_complete, random_q


class TestQMatrixEntries:
    """Entries equal to 0 or 1 are accepted whatever the dtype; anything
    else, NaN included, is rejected."""

    @pytest.mark.parametrize("entries", [
        np.array([[True, False], [False, True]]),
        np.array([[1, 0], [1, 1]]),
        np.array([[1, 0], [1, 1]], dtype=np.uint8),
        np.array([[1.0, -0.0], [0.0, 1.0]]),
        np.array([[1, 0], [0, 1]], dtype=object),
        [[1, 0], [0, 1]],
    ])
    def test_accepts_zero_one(self, entries):
        q = QMatrix(entries)
        assert q.entries.dtype == np.int8
        assert np.array_equal(q.entries, np.asarray(entries).astype(int))

    @pytest.mark.parametrize("entries", [
        np.array([[1, 2], [0, 1]]),
        np.array([[1, -1], [0, 1]]),
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.array([[1j, 0], [0, 1]]),
        np.array([[1, None], [0, 1]], dtype=object),
        np.array([["1", "0"], ["0", "1"]]),
    ])
    def test_rejects_other_values(self, entries):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            QMatrix(entries)

    def test_63_attributes_classified(self):
        # bit 62 is the highest a row mask can hold; three identities are strict
        q = QMatrix(np.tile(np.eye(63, dtype=int), (3, 1)))
        assert q.row_masks.min() == 1 and q.row_masks.max() == 1 << 62
        assert not q.has_zero_rows
        assert classify_dina(q).scenario is Scenario.STRICT
        assert classify_batch(q.row_masks[None], 63, "dina").tolist() == [Scenario.STRICT.value]

    def test_dunders(self):
        # comparing with another type falls back to Python's default
        assert not Q4X2_PAIRED == "x"
        assert Q4X2_PAIRED != 0
        assert repr(Q4X2_PAIRED) == "QMatrix([[1, 0], [0, 1], [1, 0], [0, 1]])"

    def test_64_attributes_rejected(self):
        # attribute 64 would be the sign bit of an int64 mask
        with pytest.raises(TooLarge, match="at most 63 attributes"):
            QMatrix(np.tile(np.eye(64, dtype=int), (3, 1)))
        with pytest.raises(TooLarge, match="at most 63 attributes"):
            classify_batch(np.array([[1, 2, 4]]), 64, "dina")


@pytest.mark.parametrize("call, message", [
    (lambda: QMatrix(np.array([1, 0])), "expected a 2-d array, got ndim=1"),
    (lambda: QMatrix(np.zeros((0, 2), dtype=int)), r"need at least one row and one column"),
    # certify compares the theta shapes first, so only a direct call reaches it
    (lambda: qmatrix._column_maps(Q4X2_PAIRED, Q3X2_ALL_ONES), r"shapes differ"),
], ids=["1-d", "no-rows", "column-maps"])
def test_shape_guards(call, message):
    with pytest.raises(WrongShape, match=message):
        call()


def _abc(q: QMatrix) -> dict:
    """Conditions A, B and C of one design from their definitions: a unit
    row for each attribute; once the first unit row of each attribute is
    dropped, pairwise-distinct columns; every column sum at least 3."""
    K = q.n_attributes
    units = [np.flatnonzero(q.row_masks == 1 << k)[:1] for k in range(K)]
    a = all(len(u) for u in units)
    residual = np.delete(q.entries, np.concatenate(units), axis=0)
    b = a and len({residual[:, k].tobytes() for k in range(K)}) == K
    return {"A": a, "B": b, "C": bool((q.column_sums() >= 3).all())}


def _assert_abc(abc, *designs):
    """The production A, B and C flags of each design equal ``abc`` and the
    definitions in ``_abc``."""
    for q in designs:
        flags = classify_dina(q).condition_flags
        assert (flags["A"], flags["B"], flags["C"]) == abc
        assert {key: flags[key] for key in "ABC"} == _abc(q)


class TestConditionA:
    def test_paired_design_complete(self):
        _assert_abc((True, True, False), Q4X2_PAIRED)

    def test_wide_design_complete(self):
        _assert_abc((True, True, True), Q12X8_WIDE_STRICT)

    def test_single_dense_row_incomplete(self):
        _assert_abc((False, False, False),
                    QMatrix.from_rows([[1, 1]]), QMatrix.from_rows([[1, 1], [1, 1]]))


class TestConditionB:
    def test_paired_design(self):
        _assert_abc((True, True, False), Q4X2_PAIRED)

    def test_bare_identity_fails(self):
        _assert_abc((True, False, False), QMatrix(np.eye(2, dtype=int)),
                    QMatrix(np.eye(4, dtype=int)))

    def test_identity_plus_equal_columns_fails(self):
        q = QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1], [1, 1]])
        _assert_abc((True, False, True), q)


class TestConditionC:
    def test_paired_design_fails(self):
        _assert_abc((True, True, False), Q4X2_PAIRED)

    def test_wide_design(self):
        _assert_abc((True, True, True), Q12X8_WIDE_STRICT)

    def test_all_ones(self):
        _assert_abc((False, False, True), QMatrix(np.ones((3, 4), dtype=int)))
        _assert_abc((False, False, False), QMatrix(np.ones((2, 4), dtype=int)))


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

    def test_repeated_rows_decided_at_once(self):
        # two items on attribute 1 and 320 on each of the others: the covers
        # are sets of distinct row masks, not of items, so there is one
        q = QMatrix.from_rows([[1, 0, 0]] * 2 + [[0, 1, 0]] * 320 + [[0, 0, 1]] * 320)
        d, e, partition = check_conditions_DE(q)
        assert d and not e
        rows1, rows2, _ = partition
        assert _is_matching(q, rows1) and _is_matching(q, rows2)
        assert not set(rows1) & set(rows2)
        flags = classify_gdina(q).condition_flags
        assert (d, e) == (flags["D"], flags["E"])

    def test_de_implies_repetition(self, rng):
        hits = 0
        for _ in range(200):
            q = random_q(rng, int(rng.integers(3, 9)), int(rng.integers(2, 5)))
            d, e, _ = check_conditions_DE(q)
            if d and e:
                hits += 1
                assert _abc(q)["C"]
        assert hits > 0

    def test_completeness_implies_generic_completeness(self, rng):
        hits = 0
        for _ in range(200):
            q = random_q(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            if _abc(q)["A"]:
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
        assert verdict.scenario.positive is False

    def test_paired_designs_generic(self):
        assert classify_dina(Q4X2_PAIRED).scenario is Scenario.GENERIC_B2
        assert classify_dina(Q5X2_PAIRED_PLUS_ONE).scenario is Scenario.GENERIC_B2

    def test_b2_constraint_beyond_two_attributes(self):
        verdict = classify_dina(QMatrix.from_rows(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]))
        assert verdict.scenario is Scenario.GENERIC_B2
        assert verdict.measure_zero_constraints == [
            "for every attribute k: exists patterns a1, a2 with attribute k absent "
            "such that p[a1] * p[a2 + ek] != p[a2] * p[a1 + ek]"]

    def test_undetermined_is_neither_identifiable_nor_not(self):
        verdict = classify_dina(QMatrix.from_rows(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]))
        assert verdict.scenario is Scenario.UNDETERMINED
        assert verdict.scenario.positive is None

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
        assert verdict.scenario.positive is True

    def test_all_ones_3x2_not_generic(self):
        verdict = classify_gdina(Q3X2_ALL_ONES)
        assert verdict.scenario is Scenario.NOT_GENERIC_K2_DE
        assert verdict.scenario.positive is False

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


def _hall_violator(q: QMatrix, copies: int, banned=()):
    """An attribute subset S whose items outside ``banned`` number fewer
    than ``copies`` * |S|, or None."""
    entries = np.delete(q.entries, list(banned), axis=0)
    for r in range(1, q.n_attributes + 1):
        for s in itertools.combinations(range(q.n_attributes), r):
            if entries[:, list(s)].any(axis=1).sum() < copies * r:
                return s
    return None


def _is_matching(q: QMatrix, items) -> bool:
    """``items[k]`` are distinct items, item ``items[k]`` requiring attribute k."""
    return len(set(items)) == len(items) == q.n_attributes and all(
        q.entries[j, k] for k, j in enumerate(items))


def _covers(q: QMatrix):
    """Every item set whose rows jointly require every attribute."""
    for r in range(1, q.n_items + 1):
        for c in itertools.combinations(range(q.n_items), r):
            if q.entries[list(c)].any(axis=0).all():
                yield c


def _certificate_flags(q: QMatrix) -> dict:
    try:
        d, e, _ = check_conditions_DE(q)
    except TooLarge:
        d = e = None
    return {**_abc(q), "generic_complete": check_generic_completeness(q)[0], "D": d, "E": e}


def _relabeled(rng, codes: np.ndarray, K: int) -> np.ndarray:
    """Each design of an (N, J) array of row masks with its attributes and
    its items in a random order of its own."""
    tables = np.array([qmatrix._bit_permutation_table(perm, K)
                       for perm in itertools.permutations(range(K))])
    pick = rng.integers(0, len(tables), size=len(codes))
    return rng.permuted(tables[pick[:, None], codes], axis=1)


# every shape with J * K <= 15 whose enumeration takes under a second; the
# single-row shapes J = 1, K >= 8 have one design, the all-ones row
_ORACLE_SHAPES = [(J, K) for K in range(1, 8) for J in range(1, 16) if J * K <= 15]


class TestBatchedClassifier:
    """The batched kernels against the per-design certificate functions."""

    @pytest.mark.parametrize("J, K", _ORACLE_SHAPES + [(1, K) for K in range(8, 16)])
    def test_flags_match_certificates(self, J, K):
        if J == 1 and K >= 8:
            codes = np.array([[(1 << K) - 1]])
        else:
            codes = enumerate_canonical(J, K)
        designs = as_qmatrices(codes, K)
        sums = qmatrix._column_sums(codes, K)
        flags = {**qmatrix._flags(codes, K, sums, "dina"), **qmatrix._flags(codes, K, sums, "gdina")}
        for n, q in enumerate(designs):
            assert {key: flags[key][n] for key in "ABC"} == _abc(q)
            gc, assignment = check_generic_completeness(q)
            assert flags["generic_complete"][n] == gc
            if gc:
                assert _is_matching(q, assignment)
            else:
                assert _hall_violator(q, 1) is not None
            if K > 8:
                assert flags["D"] is None and flags["E"] is None
                continue
            d, e, partition = check_conditions_DE(q)
            assert (flags["D"][n], flags["E"][n]) == (d, e)
            if not d:
                assert _hall_violator(q, 2) is not None
                continue
            rows1, rows2, rest = partition
            assert _is_matching(q, rows1) and _is_matching(q, rows2)
            assert not set(rows1) & set(rows2)
            if e:
                assert q.entries[list(rest)].any(axis=0).all()
            else:  # every cover held back leaves too few items for two copies
                assert all(_hall_violator(q, 2, banned=c) for c in _covers(q))
        for model, classify in (("dina", classify_dina), ("gdina", classify_gdina)):
            assert classify_batch(codes, K, model).tolist() == [
                classify(q).scenario.value for q in designs]

    @pytest.mark.parametrize("q, dina, gdina", [
        (QMatrix.from_rows([[1]]), Scenario.NOT_GENERIC_ONE_ITEM, Scenario.NOT_GENERIC_C_GDINA),
        (QMatrix.from_rows([[1], [1]]), Scenario.NOT_LOCALLY_GENERIC_A,
         Scenario.NOT_GENERIC_C_GDINA),
        (QMatrix.from_rows([[1]] * 3), Scenario.STRICT, Scenario.GENERIC_DE),
        (QMatrix.from_rows([[1, 1], [1, 1]]), Scenario.NOT_LOCALLY_GENERIC_A,
         Scenario.NOT_GENERIC_C_GDINA),
        (Q12X8_WIDE_STRICT, Scenario.STRICT, Scenario.UNDETERMINED),
        # K = 9: past the D/E search guard
        (QMatrix(np.vstack([np.eye(9, dtype=int), np.ones((3, 9), dtype=int),
                            1 - np.eye(9, dtype=int)[:2]])),
         Scenario.UNDETERMINED, Scenario.UNDETERMINED),
        *((q, Scenario.NOT_LOCALLY_GENERIC_A, Scenario.GENERIC_DE)
          for family in (incomplete_20x3_family, incomplete_20x5_family)
          for q in family()[:2]),
        *((family()[2], Scenario.STRICT, Scenario.GENERIC_DE)
          for family in (incomplete_20x3_family, incomplete_20x5_family)),
        *((q, Scenario.NOT_LOCALLY_GENERIC_A, Scenario.NOT_GENERIC_C_GDINA)
          for pair in (two_item_20x3_pair, two_item_20x5_pair) for q in pair()),
        # K = 9 and not generically complete: four attributes on three items
        (QMatrix.from_rows([[1, 1, 1, 1, 0, 0, 0, 0, 0]] * 3
                           + np.eye(9, dtype=int)[4:].tolist() * 3),
         Scenario.NOT_LOCALLY_GENERIC_A, Scenario.NOT_GENERIC_GC),
    ])
    def test_edge_cases(self, q, dina, gdina):
        for classify, scenario in ((classify_dina, dina), (classify_gdina, gdina)):
            verdict = classify(q)
            assert verdict.scenario is scenario
            assert verdict.condition_flags == _certificate_flags(q)

    def test_single_attribute_notes(self):
        assert classify_dina(QMatrix.from_rows([[1]])).notes == []
        assert classify_dina(QMatrix.from_rows([[1], [1]])).notes == [
            "two items on a single attribute admit a continuum of alternatives"]

    def test_two_items_leave_no_residual(self):
        # J = 2: the residual of a two-item form has no rows, so only
        # scenario (a) can hold
        masks = np.array([[0b01, 0b01], [0b01, 0b11], [0b10, 0b11]])
        found = qmatrix._two_item_scenarios(masks, 2)
        assert found["a"].tolist() == [[False, False], [True, False], [False, True]]
        assert not any(found[s].any() for s in ("b2", "b1", "c"))

    def test_batch_rejects_bad_input(self):
        with pytest.raises(HasZeroRows):
            classify_batch(np.array([[1, 0]]), 1, "dina")
        with pytest.raises(ValueError, match="unknown model 'dino'"):
            classify_batch(np.array([[1]]), 1, "dino")

    def test_rule_lists_cover_every_scenario(self, rng):
        named = set()
        for J, K in ((1, 1), (2, 1), (4, 2), (5, 3), (6, 4)):
            codes = enumerate_canonical(J, K)
            codes = codes[rng.choice(len(codes), size=min(len(codes), 500), replace=False)]
            for model, (_, decide) in qmatrix._MODELS.items():
                sums = qmatrix._column_sums(codes, K)
                rules = decide(codes, K, sums, qmatrix._flags(codes, K, sums, model))
                named |= {scenario for scenario, *_ in rules}
                assert rules[-1][1].all()  # the last rule decides what the others leave
        assert named == set(Scenario)
        assert all(scenario.summary for scenario in Scenario)
        assert [s for s in Scenario if s.positive is None] == [Scenario.UNDETERMINED]

    def test_gdina_batch_30x8_matches_one_at_a_time(self):
        # 300 designs whose pooled cover search overflows its budget: the
        # three-copy screen decides E for most of them, and the overflow
        # leaves only the designs it left open Undetermined
        pool = np.array([m for m in range(1, 256) if bin(m).count("1") <= 2])
        codes = pool[np.random.default_rng(20261019).integers(0, 36, size=(300, 30))]
        verdicts = classify_batch(codes, 8, "gdina")
        undetermined = Scenario.UNDETERMINED.value
        for i, verdict in enumerate(verdicts):
            assert verdict in (undetermined, classify_batch(codes[i:i + 1], 8, "gdina")[0])
        assert (verdicts == Scenario.GENERIC_DE.value).sum() >= 246
        assert (verdicts == undetermined).sum() <= 3

    def test_chunks_follow_first_occurrence(self):
        # 1,100 designs with no repeated multiset, more than one _CHUNK, are
        # chunked as they are given: the verdicts are those of consecutive
        # _CHUNK-sized slices.  The pooled cover search reads its chunk, so
        # representatives in another order (lexicographic by sorted rows)
        # change a verdict here.
        pool = np.array([m for m in range(1, 256) if bin(m).count("1") <= 2])
        codes = pool[np.random.default_rng(20261019).integers(0, 36, size=(1_100, 30))]
        assert len(np.unique(np.sort(codes, axis=1), axis=0)) == len(codes) > qmatrix._CHUNK
        slices = range(0, len(codes), qmatrix._CHUNK)
        assert classify_batch(codes, 8, "gdina").tolist() == [
            v for s in slices for v in classify_batch(codes[s:s + qmatrix._CHUNK], 8, "gdina")]

    @pytest.mark.parametrize("J, K, shared, last", [
        (12, 6, [1, 2, 3, 4, 5, 6, 8, 9, 16, 32, 48], (63, 49)),
        (3, 40, [1, (1 << 40) - 2], ((1 << 40) - 1, (1 << 40) - 2)),
    ], ids=["12x6", "3x40"])
    def test_multisets_span_several_keys(self, rng, J, K, shared, last):
        # floor(63 / K) sorted masks share an int64 key: two keys of 10 and
        # 2 masks at 12 x 6, one mask per key at 3 x 40.  The pair shares
        # every sorted mask but the last, so its two designs agree on the
        # first key and differ in the last, and some model reads them
        # differently.  In a shuffled batch with random designs and a
        # row-permuted copy of each, every design reads as it does alone.
        pair = np.array([shared + [last[0]], shared + [last[1]]])
        codes = np.vstack([pair, rng.integers(1, 1 << K, size=(100, J))])
        batch = np.vstack([codes, rng.permuted(codes, axis=1)])[rng.permutation(2 * len(codes))]
        models = ("dina", "gdina")
        assert any(len(set(classify_batch(pair, K, model))) == 2 for model in models)
        for model in models:
            assert classify_batch(batch, K, model).tolist() == [
                classify_batch(batch[i:i + 1], K, model)[0] for i in range(len(batch))]

    def test_relabeled_copies_read_as_alone(self, rng):
        # one verdict per row multiset: in a shuffled batch of every canonical
        # 5 x 3 design and a relabeled copy of each, every design reads as it
        # does in a batch of its own
        codes = enumerate_canonical(5, 3)
        batch = np.vstack([codes, _relabeled(rng, codes, 3)])[rng.permutation(2 * len(codes))]
        for model in ("dina", "gdina"):
            assert classify_batch(batch, 3, model).tolist() == [
                classify_batch(batch[i:i + 1], 3, model)[0] for i in range(len(batch))]


class TestEnumeration:
    def test_design_rows_render_each_design_from_its_own_masks(self):
        # K = 40: a table over all 2^K row masks would not fit in memory
        masks = np.array([[(1 << 40) - 1, 5]])
        q = QMatrix((masks[0][:, None] >> np.arange(40)) & 1)
        assert qmatrix._design_rows(masks, 40) == [";".join(q.row_strings())]
        codes = enumerate_canonical(4, 2)
        assert qmatrix._design_rows(codes, 2) == [
            ";".join(m.row_strings()) for m in as_qmatrices(codes, 2)]
        assert qmatrix._design_rows(codes[:0], 2) == []

    def test_census_5x2(self):
        mats = as_qmatrices(enumerate_canonical(5, 2), 2)
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

        mats = as_qmatrices(enumerate_canonical(5, 2), 2)
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

    def test_census_6x3_pinned(self, rng):
        # the smallest shape past the J * K <= 15 certificate oracle: its
        # verdict counts are pinned, and a sample of designs classified one
        # at a time reads the same as in the whole batch
        from collections import Counter

        codes = enumerate_canonical(6, 3)
        assert len(codes) == 19_608
        pinned = {
            "dina": {Scenario.STRICT: 480, Scenario.GENERIC_B2: 15,
                     Scenario.NOT_GENERIC_ONE_ITEM: 2_850, Scenario.NOT_LOCALLY_GENERIC_A: 14_563,
                     Scenario.UNDETERMINED: 1_700},
            "gdina": {Scenario.NOT_GENERIC_C_GDINA: 10_755, Scenario.UNDETERMINED: 8_853},
        }
        sample = rng.choice(len(codes), size=200, replace=False)
        for model, counts in pinned.items():
            verdicts = classify_batch(codes, 3, model)
            assert Counter(verdicts.tolist()) == {s.value: n for s, n in counts.items()}
            for i in sample:
                assert classify_batch(codes[i:i + 1], 3, model)[0] == verdicts[i]

    def test_singleton(self):
        assert enumerate_canonical(1, 1).tolist() == [[1]]

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

    @pytest.mark.parametrize("J,K", [(1, 1), (3, 1), (1, 4), (4, 2), (3, 3), (5, 3)])
    def test_contract(self, J, K, capsys):
        # int64 row masks of shape (N, J), by increasing row key, no zero
        # row, every attribute used, and listed as `qident enumerate` does
        codes = enumerate_canonical(J, K)
        assert codes.dtype == np.int64 and codes.ndim == 2 and codes.shape[1] == J
        assert (np.diff(codes @ (1 << (K * np.arange(J - 1, -1, -1)))) > 0).all()
        assert ((codes >= 1) & (codes < 1 << K)).all()
        assert (np.bitwise_or.reduce(codes, axis=1) == (1 << K) - 1).all()
        assert main(["enumerate", str(J), str(K)]) == 0
        assert capsys.readouterr().out.splitlines() == ["index,rows"] + [
            f"{n},{';'.join(q.row_strings())}" for n, q in enumerate(as_qmatrices(codes, K))]

    @pytest.mark.parametrize("model", ["dina", "gdina"])
    @pytest.mark.parametrize("J,K", [(1, 1), (5, 2), (5, 3), (6, 3)])
    def test_classified_contract(self, J, K, model, capsys):
        # indices of 1 to 5 digits, each design's rows and its verdict from
        # classify_batch; no NUL from the padded fields, one final newline
        codes = enumerate_canonical(J, K)
        assert main(["enumerate", str(J), str(K), "--classify", "--model", model]) == 0
        out = capsys.readouterr().out
        assert "\0" not in out and out.endswith("\n") and not out.endswith("\n\n")
        rows = [";".join(q.row_strings()) for q in as_qmatrices(codes, K)]
        verdicts = classify_batch(codes, K, model)
        assert out.split("\n")[:-1] == ["index,rows,scenario"] + [
            f"{n},{row},{verdict}" for n, (row, verdict) in enumerate(zip(rows, verdicts))]

    @staticmethod
    def _burnside(J, K):
        """Column-permutation classes of J x K binary matrices without a zero
        row or a zero column.  By inclusion-exclusion over the empty cycles,
        a permutation with c cycles fixes sum_i (-1)^i C(c, i) (2^(c-i) - 1)^J
        such matrices; the classes are the mean count over all K! of them."""
        total = 0
        for perm in itertools.permutations(range(K)):
            seen, c = set(), 0
            for start in range(K):
                c += start not in seen  # each cycle counts at its first element
                k = start
                while k not in seen:
                    seen.add(k)
                    k = perm[k]
            total += sum((-1) ** i * math.comb(c, i) * (2 ** (c - i) - 1) ** J for i in range(c + 1))
        classes, rest = divmod(total, math.factorial(K))
        assert rest == 0
        return classes

    # every shape with J * K <= 12 and K <= 7, and four with K = 8 or 9
    @pytest.mark.parametrize(
        "J,K",
        [(J, K) for K in range(1, 8) for J in range(1, 12 // K + 1)]
        + [(1, 8), (1, 9), (2, 8), (3, 8)],
    )
    def test_count_matches_burnside(self, J, K):
        assert len(enumerate_canonical(J, K)) == self._burnside(J, K)

    @staticmethod
    def _min_key_over_permutations(codes, K):
        """Smallest row key (row 1 most significant) of each design of an
        (N, J) array of row masks over all K! column permutations, by brute
        force over the permutations in chunks."""
        J = codes.shape[1]
        bits = (codes[:, :, None] >> np.arange(K)) & 1
        radix = 1 << (K * np.arange(J - 1, -1, -1))
        best = np.full(len(codes), np.iinfo(np.int64).max)
        perms = itertools.permutations(range(K))
        while chunk := list(itertools.islice(perms, 50_000)):
            moved = bits @ (1 << np.array(chunk).T)  # bit k of a row goes to bit perm[k]
            best = np.minimum(best, (moved.transpose(0, 2, 1) @ radix).min(axis=1))
        return best

    # Each design is the smallest member of its class and the keys strictly
    # increase, so no class appears twice; with the Burnside count above,
    # every class appears.
    @pytest.mark.parametrize(
        "J,K", [(J, K) for K in range(1, 11) for J in range(1, 10 // K + 1)]
    )
    def test_each_design_is_its_class_minimum(self, J, K):
        codes = enumerate_canonical(J, K)
        keys = codes @ (1 << (K * np.arange(J - 1, -1, -1)))
        assert (keys == self._min_key_over_permutations(codes, K)).all()
        assert (np.diff(keys) > 0).all()

    @pytest.mark.parametrize("J,K", [(0, 2), (3, 0), (-1, 2), (3, -1)])
    def test_bad_size_is_wrong_shape(self, J, K):
        with pytest.raises(WrongShape):
            enumerate_canonical(J, K)


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
        with pytest.raises(WrongShape):
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

            assert classify_dina(q).condition_flags == classify_dina(q2).condition_flags
            assert check_generic_completeness(q)[0] == check_generic_completeness(q2)[0]
            d1, e1, _ = check_conditions_DE(q)
            d2, e2, _ = check_conditions_DE(q2)
            assert (d1, e1 and d1) == (d2, e2 and d2)
            assert classify_dina(q).scenario == classify_dina(q2).scenario
            assert classify_gdina(q).scenario == classify_gdina(q2).scenario

    @pytest.mark.parametrize("J, K", [(9, 3), (12, 4)])
    def test_batched_kernels_invariant(self, rng, J, K):
        # J = 3K, where three copies per attribute decide E for most D
        # designs.  The designs and their relabeled copies go in batches of
        # their own, so that grouping by row multiset cannot hide a kernel
        # that reads the order of rows or attributes.  Half the designs draw
        # rows of weight <= 2, which the DINA two-item rules need.
        light = np.array([m for m in range(1, 1 << K) if bin(m).count("1") <= 2])
        codes = np.vstack([light[rng.integers(0, len(light), size=(200, J))],
                           rng.integers(1, 1 << K, size=(200, J))])
        copies = _relabeled(rng, codes, K)
        for model in ("dina", "gdina"):
            flags, relabeled = (qmatrix._flags(c, K, qmatrix._column_sums(c, K), model)
                                for c in (codes, copies))
            assert all(np.array_equal(flags[key], relabeled[key]) for key in flags)
            verdicts = classify_batch(codes, K, model).tolist()
            assert classify_batch(copies, K, model).tolist() == verdicts
            assert len(set(verdicts)) >= 3


class TestGammaMatrix:
    def test_boundary_columns(self):
        gam = gamma_matrix(Q4X2_PAIR_WITH_FULL_ROW)
        assert (gam[:, -1] == 1).all()  # all-ones pattern covers everything
        assert (gam[:, 0] == 0).all()  # no zero rows here

    def test_zero_row_indicator(self):
        q = QMatrix.from_rows([[0, 0], [1, 0]])
        gam = gamma_matrix(q)
        assert gam[0, 0] == 1 and gam[1, 0] == 0
