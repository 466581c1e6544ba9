"""Model parameterization, pmf evaluation, and simulation."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qident import (
    Dataset,
    DinaParams,
    GdinaParams,
    QMatrix,
    RlcmModel,
    full_distribution,
    pmf,
    simulate,
    theta_table,
)
from qident.catalog import Q4X2_PAIRED
from qident.errors import ParseError, QidentError, TooLarge, WrongShape
from qident.io import load_params_json
from qident.rlcm import (
    _order_violations,
    monotonicity_ok,
    response_distribution,
)

from tests.conftest import random_q


def _load_p(tmp_path, p):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"model": "dina", "s": [0.2, 0.2], "g": [0.2, 0.2], "p": p}))
    return load_params_json(path)[2]


class TestParams:
    def test_dina_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            DinaParams(np.array([0.5]), np.array([0.6]))

    # p has no type of its own: the params reader checks it
    def test_proportions_must_sum(self, tmp_path):
        with pytest.raises(ParseError, match="proportions sum to 0.9, not 1"):
            _load_p(tmp_path, [0.5, 0.4])

    def test_proportions_must_be_positive(self, tmp_path):
        with pytest.raises(ParseError, match="proportions must be positive"):
            _load_p(tmp_path, [0.0, 1.0])

    def test_proportions_must_have_length_2_to_the_k(self, tmp_path):
        with pytest.raises(ParseError, match=r"proportions must have length 2\^K"):
            _load_p(tmp_path, [0.5, 0.25, 0.25])

    def test_proportions_must_be_finite(self, tmp_path):
        # NaN passes both the sum and the sign check
        with pytest.raises(ParseError, match="proportions must be finite"):
            _load_p(tmp_path, [np.nan, 0.5, 0.25, 0.25])

    # NaN compares false both ways, so a range check written as "any entry
    # outside" lets it through
    def test_dina_params_must_be_finite(self):
        with pytest.raises(ValueError, match="slipping and guessing"):
            DinaParams([np.nan, 0.1], [0.1, np.nan])

    def test_gdina_params_must_be_finite(self):
        with pytest.raises(ValueError, match="theta entries"):
            GdinaParams([[np.nan, 0.5], [0.2, 0.3]])

    def test_model_must_be_finite(self):
        q = QMatrix.from_rows([[1], [1]])
        with pytest.raises(ValueError, match="finite"):
            RlcmModel(q, [[0.2, np.inf], [0.1, 0.9]], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            RlcmModel(q, [[0.2, 0.8], [0.1, 0.9]], [np.nan, 0.5])

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
        # the strict subset order: a tie is no violation of the weak order
        # but fails the strict one
        def stringent(row):
            return _order_violations(np.array([[row]]), q.row_masks[None])[1][0]

        assert stringent([0.3, 0.3, 0.3, 0.8]) == 0
        assert stringent([0.2, 0.4, 0.5, 0.8]) < 0

    def test_valid_two_parameter_tables_always_monotone(self, rng):
        for _ in range(30):
            j = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            q = random_q(rng, j, k)
            params = DinaParams(rng.uniform(0.05, 0.45, j), rng.uniform(0.05, 0.45, j))
            assert monotonicity_ok(theta_table("dina", q, params), q)


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
            dino = response_distribution(theta_table("dino", q, params), p)

            from qident.qmatrix import gamma_matrix

            gam = gamma_matrix(q).astype(float)
            swapped = gam * g[:, None] + (1 - gam) * c[:, None]
            p_flip = p[::-1].copy()  # complementing a pattern reverses the mask order
            dual = response_distribution(swapped, p_flip)
            assert_allclose(dino, dual, atol=1e-14)


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
        p[rng.random(1 << k) < 0.25] = 0.0  # classes without mass add nothing
        dist = full_distribution(model, q, params, p)
        assert abs(dist.sum() - p.sum()) < 1e-10
        for r in range(1 << j):
            assert dist[r] == pytest.approx(pmf(model, q, params, p, r), abs=1e-14)

    def test_split_kernel_against_pmf_at_20_items(self, rng):
        q = random_q(rng, 20, 3)
        theta = rng.uniform(0.05, 0.95, (20, 8))
        p = rng.dirichlet(np.ones(8))
        p[5] = 0.0
        p /= p.sum()
        dist = response_distribution(theta, p)
        assert abs(dist.sum() - 1.0) < 1e-12
        for r in rng.choice(1 << 20, size=200, replace=False):
            assert dist[r] == pytest.approx(pmf("gdina", q, theta, p, int(r)), abs=1e-15)

    def test_dina_embeds_in_gdina(self, rng):
        q = random_q(rng, 5, 3, ensure_nonzero_rows=True)
        params = DinaParams(rng.uniform(0.05, 0.3, 5), rng.uniform(0.05, 0.3, 5))
        p = rng.dirichlet(np.ones(8))
        embedded = GdinaParams(theta_table("dina", q, params))
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

    @pytest.mark.parametrize("p", [np.full(2, 0.5), np.full(8, 0.125)])
    def test_p_length_checked(self, p):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        with pytest.raises(WrongShape, match=f"p has {len(p)} entries but the design has 4"):
            simulate("dina", Q4X2_PAIRED, params, p, 10, seed=1)

    def test_negative_n_rejected(self):
        params = DinaParams(np.full(4, 0.2), np.full(4, 0.2))
        with pytest.raises(QidentError, match="nonnegative, got -5"):
            simulate("dina", Q4X2_PAIRED, params, np.full(4, 0.25), -5, seed=1)

    def test_dataset_round_trip(self):
        matrix = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]])
        data = Dataset.from_matrix(matrix)
        assert data.n_subjects == 3
        back = data.to_matrix()
        assert sorted(map(tuple, back.tolist())) == sorted(map(tuple, matrix.tolist()))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Dataset(2, [0, 1], [3, -1]), ValueError, "counts must be nonnegative"),
        (lambda: Dataset(2, [0, 4], [1, 1]), ValueError, "pattern mask out of range"),
        (lambda: Dataset(2, [1, 1], [1, 1]), ValueError, "pattern masks must be distinct"),
        (lambda: Dataset.from_matrix([1, 0]), WrongShape, "response matrix must be 2-d"),
    ], ids=["negative-count", "pattern-out-of-range", "duplicate-pattern", "not-2-d"])
    def test_dataset_rejects(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_dataset_bounds_items_at_63(self):
        assert Dataset(63, [1 << 62], [1]).n_items == 63
        with pytest.raises(TooLarge, match="at most 63 items fit an int64 response pattern, got 65"):
            Dataset.from_matrix(np.zeros((2, 65), dtype=int))

    @pytest.mark.parametrize("matrix", [[[2, 0], [1, 1]], [[0.5, 1]], [[-1, 0]]])
    def test_dataset_rejects_non_binary_responses(self, matrix):
        # a 2 would otherwise read as a response to the next item
        with pytest.raises(ValueError, match="responses must be 0 or 1"):
            Dataset.from_matrix(matrix)


_Q12 = QMatrix.from_rows([[1], [1]])


@pytest.mark.parametrize("call, message", [
    (lambda: DinaParams([0.1, 0.2], [0.1]), "s and g must be 1-d vectors of equal length"),
    (lambda: GdinaParams([0.2, 0.8]), r"theta must be J x 2\^K"),
    (lambda: GdinaParams(np.full((2, 4), 0.5)).validate_for(_Q12),
     "theta shape does not match the Q-matrix"),
    (lambda: theta_table("gdina", _Q12, np.full((2, 4), 0.5)),
     "theta shape does not match the Q-matrix"),
    (lambda: theta_table("dina", _Q12, DinaParams([0.1] * 3, [0.1] * 3)),
     "parameter length does not match item count"),
    (lambda: Dataset(2, [0, 1], [1]), "patterns and counts must be equal-length vectors"),
    (lambda: RlcmModel(_Q12, np.full((2, 4), 0.5), np.full(2, 0.5)),
     "theta shape does not match the design"),
    (lambda: RlcmModel(_Q12, np.full((2, 2), 0.5), np.full(4, 0.25)),
     "proportion length does not match the design"),
], ids=["dina-s-g", "gdina-1-d", "gdina-validate-for", "theta-table-gdina", "theta-table-dina",
        "dataset", "model-theta", "model-p"])
def test_shape_guards(call, message):
    with pytest.raises(WrongShape, match=message):
        call()


@pytest.mark.parametrize("build, arrays", [
    (DinaParams, {"s": np.full(4, 0.2), "g": np.full(4, 0.1)}),
    (GdinaParams, {"theta": np.full((4, 4), 0.5)}),
    (functools.partial(Dataset, 2), {"patterns": np.array([0, 3]), "counts": np.array([1, 2])}),
    (functools.partial(RlcmModel, Q4X2_PAIRED),
     {"theta": np.full((4, 4), 0.5), "p": np.full(4, 0.25)}),
], ids=["DinaParams", "GdinaParams", "Dataset", "RlcmModel"])
def test_constructors_copy_their_inputs(build, arrays):
    obj = build(**arrays)
    for name, arr in arrays.items():
        assert arr.flags.writeable and not getattr(obj, name).flags.writeable


def test_equal_effects_levels():
    from qident.catalog import equal_effects_theta

    q = QMatrix.from_rows([[1, 1, 0], [0, 1, 0]])
    theta = equal_effects_theta(q)
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


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 3), J=st.integers(1, 4), size=st.integers(1, 4), data=st.data())
def test_order_kernel_matches_loops(K, J, size, data):
    # the batched monotonicity and subset-order checks against a loop over
    # designs, items and pattern pairs; ties come from a coarse value grid
    C = 1 << K
    masks = np.array(data.draw(st.lists(st.lists(st.integers(0, C - 1), min_size=J, max_size=J),
                                        min_size=size, max_size=size)))
    levels = st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9])
    theta = np.array(data.draw(st.lists(levels, min_size=size * J * C, max_size=size * J * C)))
    theta = theta.reshape(size, J, C)
    mono, order = _order_violations(theta, masks)
    for b in range(size):
        want_mono = want_order = -np.inf
        for j, row in enumerate(masks[b].tolist()):
            covering = [theta[b, j, a] for a in range(C) if a & row == row]
            other = [theta[b, j, a] for a in range(C) if a & row != row]
            if other:
                want_mono = max(want_mono, max(other) - min(covering))
            for a in range(C):
                for c in range(C):
                    if a | row == row and c | row == row and c != a and c & a == c:
                        want_order = max(want_order, theta[b, j, c] - theta[b, j, a])
        assert mono[b] == want_mono and order[b] == want_order
