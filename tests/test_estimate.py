"""EM estimation, multistart orchestration, search, and error decay."""

import numpy as np
import pytest

from qident import DinaParams, QMatrix, q_equivalent, simulate
from qident.catalog import Q4X2_PAIRED, Q5X2_SINGLE_IDENTITY
from qident.errors import DimensionMismatch, EmptyData, TooManyAttributes
from qident.estimate import (
    align_to_truth,
    em_fit,
    exhaustive_search,
    mse_experiment,
    multistart_fit,
    spearman,
)
from qident.rlcm import Dataset, dina_theta_table, full_distribution

from tests.conftest import dina_information, dina_jacobian, gap_z_score


def _simulated(rng, q, n=5000, seed=0):
    j = q.n_items
    params = DinaParams(rng.uniform(0.1, 0.3, j), rng.uniform(0.1, 0.3, j))
    p = rng.dirichlet(np.full(1 << q.n_attributes, 3.0))
    return params, p, simulate("dina", q, params, p, n, seed=seed)


class TestEmFit:
    def test_loglik_monotone(self, rng):
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=2000, seed=1)
        fit = em_fit("dina", Q5X2_SINGLE_IDENTITY, data, seed=2)
        assert (np.diff(fit.loglik_path) > -1e-9).all()
        assert fit.converged

    def test_recovers_parameters(self, rng):
        params, p, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=50_000, seed=3)
        fit = multistart_fit("dina", Q5X2_SINGLE_IDENTITY, data, restarts=6, seed=4)
        _, p_aligned, _ = align_to_truth(fit, {"s": params.s, "g": params.g, "p": p}, 2)
        assert np.abs(fit.s - params.s).max() < 0.05
        assert np.abs(fit.g - params.g).max() < 0.05
        assert np.abs(p_aligned - p).max() < 0.05
        assert fit.monotonicity_ok

    def test_near_degenerate_mixture(self):
        # almost a point mass with nearly deterministic items: the fitted
        # class proportions concentrate accordingly
        q = QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        params = DinaParams(np.full(5, 0.01), np.full(5, 0.01))
        p = np.array([0.001, 0.001, 0.001, 0.997])
        data = simulate("dina", q, params, p, 5000, seed=9)
        fit = multistart_fit("dina", q, data, restarts=4, seed=10)
        assert fit.p.max() > 0.98

    def test_dimension_mismatch(self, rng):
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=100, seed=5)
        with pytest.raises(DimensionMismatch):
            em_fit("dina", Q4X2_PAIRED, data)

    def test_empty_data(self):
        data = Dataset(4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(EmptyData):
            em_fit("dina", Q4X2_PAIRED, data)

    def test_gdina_fit(self, rng):
        from qident.catalog import equal_effects_theta

        q = Q5X2_SINGLE_IDENTITY
        theta = equal_effects_theta(q)
        p = np.full(4, 0.25)
        data = simulate("gdina", q, theta, p, 30_000, seed=6)
        fit = multistart_fit("gdina", q, data, restarts=4, seed=7)
        assert np.abs(fit.theta - theta).max() < 0.05
        assert (np.diff(fit.loglik_path) > -1e-9).all()


class TestMultistart:
    def test_single_restart_reduces_to_em(self, rng):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=1000, seed=8)
        seq = np.random.SeedSequence(21)
        lone = em_fit("dina", Q4X2_PAIRED, data, seed=np.random.default_rng(seq.spawn(1)[0]))
        multi = multistart_fit("dina", Q4X2_PAIRED, data, restarts=1, seed=21)
        assert multi.loglik == pytest.approx(lone.loglik, abs=1e-9)

    def test_best_of_restarts(self, rng):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=1000, seed=12)
        singles = [
            em_fit("dina", Q4X2_PAIRED, data, seed=np.random.default_rng(child)).loglik
            for child in np.random.SeedSequence(33).spawn(5)
        ]
        multi = multistart_fit("dina", Q4X2_PAIRED, data, restarts=5, seed=33)
        assert multi.loglik >= max(singles) - 1e-9

    def test_deterministic(self, rng):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=1000, seed=13)
        a = multistart_fit("dina", Q4X2_PAIRED, data, restarts=3, seed=5)
        b = multistart_fit("dina", Q4X2_PAIRED, data, restarts=3, seed=5)
        assert a.loglik == b.loglik
        assert np.array_equal(a.p, b.p)


class TestSearch:
    def test_shuffle_invariance(self, rng):
        q = Q5X2_SINGLE_IDENTITY
        _, _, data = _simulated(rng, q, n=4000, seed=14)
        candidates = [
            q,
            QMatrix.from_rows([[0, 1], [1, 0], [1, 0], [0, 1], [0, 1]]),
            QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1], [1, 1]]),
            QMatrix.from_rows([[1, 1], [1, 1], [1, 1], [1, 1], [1, 1]]),
        ]
        report = exhaustive_search("dina", data, candidates, restarts=3, seed=15)
        report2 = exhaustive_search("dina", data, candidates[::-1], restarts=3, seed=15)
        assert q_equivalent(report.argmax_q, report2.argmax_q)

    def test_truth_wins_at_scale(self, rng):
        from qident.rlcm import dina_theta_table

        q = Q5X2_SINGLE_IDENTITY
        params, p, data = _simulated(rng, q, n=20_000, seed=16)
        rivals = [
            QMatrix.from_rows([[0, 1], [1, 1], [1, 1], [1, 1], [0, 1]]),
            QMatrix.from_rows([[0, 1], [1, 0], [1, 1], [1, 0], [0, 1]]),
            QMatrix.from_rows([[1, 1], [1, 1], [1, 1], [1, 1], [1, 1]]),
        ]
        report = exhaustive_search("dina", data, [q] + rivals, restarts=4, seed=17)
        assert report.argmax_index == 0
        # fitting the truth from the true parameters dominates every rival fit
        oracle = em_fit("dina", q, data, init=(dina_theta_table(q, params), p))
        for entry in report.entries[1:]:
            assert oracle.loglik >= entry.loglik - 1e-6

    def test_error_entries_recorded(self, rng):
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=500, seed=18)
        candidates = [Q5X2_SINGLE_IDENTITY, Q4X2_PAIRED]  # second has wrong J
        report = exhaustive_search("dina", data, candidates, restarts=2, seed=19)
        assert report.entries[1].error is not None
        assert report.argmax_index == 0

    def test_programming_errors_propagate(self, rng):
        # only domain errors become per-candidate entries
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=200, seed=18)
        with pytest.raises(ValueError, match="unknown model"):
            exhaustive_search("xyz", data, [Q5X2_SINGLE_IDENTITY], restarts=1, seed=19)

    def test_stringent_filter_gdina(self):
        # entrywise supersets nest the saturated model, so unfiltered sweeps
        # always prefer them in-sample; the strict subset order is what
        # knocks them out (their surplus cells fit ties, not an order)
        from qident.catalog import equal_effects_theta

        q = Q5X2_SINGLE_IDENTITY
        theta = equal_effects_theta(q)
        p = np.full(4, 0.25)
        data = simulate("gdina", q, theta, p, 10_000, seed=0)
        candidates = [
            q,
            QMatrix.from_rows([[0, 1], [1, 1], [1, 1], [1, 1], [0, 1]]),
            QMatrix.from_rows([[1, 1], [1, 1], [1, 1], [1, 1], [1, 1]]),
        ]
        kwargs = dict(restarts=3, seed=25, tol=1e-6, max_iter=400)
        unfiltered = exhaustive_search("gdina", data, candidates, **kwargs)
        filtered = exhaustive_search(
            "gdina", data, candidates, require_stringent=True, **kwargs
        )
        assert unfiltered.argmax_index == 2  # the all-ones superset
        assert not unfiltered.entries[2].stringent_ok
        assert filtered.entries[0].stringent_ok
        assert filtered.argmax_index == 0
        assert q_equivalent(filtered.argmax_q, q)


class TestAlign:
    def test_recovers_swap(self, rng):
        params, p, _ = _simulated(rng, Q4X2_PAIRED, n=10, seed=20)
        swapped = np.array([p[0], p[2], p[1], p[3]])

        class Dummy:
            s = params.s
            g = params.g

        dummy = Dummy()
        dummy.p = swapped
        perm, aligned, err = align_to_truth(dummy, {"s": params.s, "g": params.g, "p": p}, 2)
        assert perm == (1, 0)
        assert np.allclose(aligned, p)
        assert err == pytest.approx(0.0, abs=1e-18)

    def test_identity_when_aligned(self, rng):
        params, p, _ = _simulated(rng, Q4X2_PAIRED, n=10, seed=22)

        class Dummy:
            s = params.s
            g = params.g

        dummy = Dummy()
        dummy.p = p.copy()
        perm, _, err = align_to_truth(dummy, {"s": params.s, "g": params.g, "p": p}, 2)
        assert perm == (0, 1)
        assert err == pytest.approx(0.0, abs=1e-18)

    def test_tie_breaks_lexicographically(self):
        class Dummy:
            s = None
            g = None
            p = np.full(4, 0.25)

        perm, _, _ = align_to_truth(Dummy(), {"p": np.full(4, 0.25)}, 2)
        assert perm == (0, 1)

    def test_guard(self):
        class Dummy:
            s = None
            g = None
            p = np.full(2**11, 1 / 2**11)

        with pytest.raises(TooManyAttributes):
            align_to_truth(Dummy(), {"p": Dummy.p}, 11)


class TestMseExperiment:
    def test_zero_replications_empty(self):
        report = mse_experiment(
            Q4X2_PAIRED, lambda rng: None, n_truths=0, n_grid=[100], replications=0
        )
        assert report.records == []

    def test_errors_shrink_with_n(self):
        def sampler(rng):
            params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
            return params, rng.dirichlet(np.full(4, 3.0))

        report = mse_experiment(
            Q4X2_PAIRED, sampler, n_truths=3, n_grid=[100, 10_000],
            replications=3, seed=5, restarts=3,
        )
        assert len(report.records) == 6
        for idx in range(3):
            small = next(r for r in report.records if r.truth_index == idx and r.n == 100)
            large = next(r for r in report.records if r.truth_index == idx and r.n == 10_000)
            assert large.mse_p < small.mse_p


    def test_counts_unconverged_replications(self):
        def sampler(rng):
            params = DinaParams(rng.uniform(0.1, 0.3, 4), rng.uniform(0.1, 0.3, 4))
            return params, rng.dirichlet(np.full(4, 3.0))

        kwargs = dict(n_truths=2, n_grid=[100, 1000], replications=3, seed=5, restarts=2)
        capped = mse_experiment(Q4X2_PAIRED, sampler, max_iter=5, **kwargs)
        assert [r.unconverged for r in capped.records] == [3, 3, 3, 3]
        # a loose tolerance stops every fit at its second sweep
        loose = mse_experiment(Q4X2_PAIRED, sampler, tol=1e3, **kwargs)
        assert [r.unconverged for r in loose.records] == [0, 0, 0, 0]


class TestFisherInformation:
    """Jacobian rank and the gap z-score behind criterion 6."""

    PARAMS_4 = DinaParams(np.full(4, 0.2), np.full(4, 0.15))

    @staticmethod
    def _rank(q, params, p):
        return int(np.linalg.matrix_rank(dina_information(q, params, p)))

    def test_paired_rank_drops_on_constraint_surface(self, rng):
        assert self._rank(Q4X2_PAIRED, self.PARAMS_4, np.full(4, 0.25)) == 7
        for _ in range(5):
            a, b = rng.uniform(0.1, 0.9, 2)
            product = np.kron([1 - b, b], [1 - a, a])
            assert self._rank(Q4X2_PAIRED, self.PARAMS_4, product) == 7
        assert self._rank(Q4X2_PAIRED, self.PARAMS_4, [0.4, 0.1, 0.1, 0.4]) == 11

    def test_single_identity_full_rank(self):
        params = DinaParams(np.full(5, 0.2), np.full(5, 0.15))
        assert self._rank(Q5X2_SINGLE_IDENTITY, params, np.full(4, 0.25)) == 13

    def test_jacobian_matches_central_differences(self, rng):
        for q in (Q4X2_PAIRED, Q5X2_SINGLE_IDENTITY):
            j = q.n_items
            params = DinaParams(rng.uniform(0.1, 0.3, j), rng.uniform(0.1, 0.3, j))
            p = rng.dirichlet(np.full(4, 3.0))

            def dist(x):
                free_p = x[2 * j :]
                p_all = np.append(free_p, 1 - free_p.sum())
                return full_distribution("dina", q, DinaParams(x[:j], x[j : 2 * j]), p_all)

            x0 = np.concatenate([params.s, params.g, p[:-1]])
            h = 1e-6
            numeric = np.column_stack(
                [(dist(x0 + h * e) - dist(x0 - h * e)) / (2 * h) for e in np.eye(len(x0))]
            )
            analytic = dina_jacobian(q, params, p)
            assert analytic.shape == (1 << j, 2 * j + 3)
            assert np.abs(analytic - numeric).max() < 1e-8
            assert np.abs(analytic.sum(axis=0)).max() < 1e-12

    def test_gap_z_score_scaling(self, rng):
        def z(d, n):
            p = np.array([0.25 + d, 0.25 - d, 0.25 - d, 0.25 + d])
            return gap_z_score(Q4X2_PAIRED, self.PARAMS_4, p, n)

        assert z(0.02, 10_000) == pytest.approx(10 * z(0.02, 100))
        # the gap itself stays identified at the surface: its standard error
        # is finite there, so the score grows linearly with the gap
        for d in (0.04, 0.02, 0.01):
            assert z(d, 1) == pytest.approx(2 * z(d / 2, 1), rel=0.05)
        assert z(0.0, 10_000) == 0.0
        a, b = rng.uniform(0.1, 0.9, 2)
        product = np.kron([1 - b, b], [1 - a, a])
        assert gap_z_score(Q4X2_PAIRED, self.PARAMS_4, product, 10_000) < 1e-6

    def test_gap_standard_error_matches_em_spread(self):
        # Off the surface the delta-method standard error is the spread of
        # the EM estimate of the gap over simulated datasets.
        p = np.array([0.35, 0.15, 0.15, 0.35])
        n = 10_000
        gap = p[1] * p[2] - p[0] * p[3]
        se = abs(gap) / gap_z_score(Q4X2_PAIRED, self.PARAMS_4, p, n)
        init = (dina_theta_table(Q4X2_PAIRED, self.PARAMS_4), p)
        estimates = []
        for rep in range(40):
            data = simulate("dina", Q4X2_PAIRED, self.PARAMS_4, p, n, seed=rep)
            fit = em_fit("dina", Q4X2_PAIRED, data, init=init, tol=1e-10)
            estimates.append(fit.p[1] * fit.p[2] - fit.p[0] * fit.p[3])
        assert 0.7 < np.std(estimates, ddof=1) / se < 1.4


def test_spearman_basic():
    assert spearman([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)
    assert abs(spearman([1, 2, 3, 4, 5], [3, 1, 4, 1, 5])) < 1.0
