"""EM estimation, multistart orchestration, search, and error decay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import (
    DinaParams,
    QMatrix,
    classify_batch,
    enumerate_canonical,
    q_equivalent,
    simulate,
)
from qident.catalog import Q4X2_PAIRED, Q5X2_SINGLE_IDENTITY
from qident import estimate
from qident.errors import EmptyData, QidentError, TooLarge, WrongShape
from qident.estimate import (
    _BATCH_CELLS,
    _fit_all,
    _flip_unit_attributes,
    _log_table,
    _observed_loglik,
    _start,
    align_to_truth,
    em_fit,
    exhaustive_search,
    mse_experiment,
    multistart_fit,
)
from qident.rlcm import Dataset, full_distribution, response_distribution, theta_table

from tests import em_reference
from tests.conftest import (
    as_qmatrices,
    dina_information,
    dina_jacobian,
    gap_z_score,
    random_q,
    spearman,
)


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

    def test_dino_recovers_parameters(self, rng):
        q = Q5X2_SINGLE_IDENTITY
        params = DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        p = rng.dirichlet(np.full(4, 3.0))
        data = simulate("dino", q, params, p, 50_000, seed=26)
        fit = multistart_fit("dino", q, data, restarts=6, seed=27)
        assert np.abs(fit.s - params.s).max() < 0.05
        assert np.abs(fit.g - params.g).max() < 0.05
        assert (np.diff(fit.loglik_path) > -1e-9).all()

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(["dina", "dino", "gdina"]),
        shape=st.tuples(st.integers(1, 4), st.integers(2, 3)),
        data=st.data(),
    )
    def test_one_sweep_matches_oracle(self, model, shape, data):
        # one EM sweep from a given start, recomputed here pattern by pattern;
        # the all-ones row requires every attribute and, at K >= 2, is no
        # unit row, so the attribute-flip canonicalization never fires
        n_rest, K = shape
        J, n_alpha = n_rest + 1, 1 << K
        rows = data.draw(st.lists(st.integers(0, n_alpha - 1), min_size=n_rest, max_size=n_rest))
        masks = [n_alpha - 1] + rows
        q = QMatrix([[m >> k & 1 for k in range(K)] for m in masks])
        seeds = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        theta0 = seeds.uniform(0.05, 0.95, size=(J, n_alpha))
        p0 = seeds.uniform(0.1, 1.0, n_alpha)
        p0 /= p0.sum()
        counts = seeds.integers(0, 4, size=1 << J)
        counts[seeds.integers(1 << J)] += 1
        patterns = np.flatnonzero(counts)
        dataset = Dataset(J, patterns, counts[patterns])

        x = (patterns[:, None] >> np.arange(J)) & 1
        post = np.array([
            [p0[a] * np.prod(np.where(xi, theta0[:, a], 1 - theta0[:, a])) for a in range(n_alpha)]
            for xi in x
        ])
        post *= (counts[patterns] / post.sum(axis=1))[:, None]
        m_tot = post.sum(axis=0)
        m1 = post.T @ x
        label = {
            "dina": lambda a, row: (a & row) == row,
            "dino": lambda a, row: (a & row) != 0,
            "gdina": lambda a, row: a & row,
        }[model]
        theta1 = np.empty((J, n_alpha))
        for j, row in enumerate(masks):
            for a in range(n_alpha):
                cell = [b for b in range(n_alpha) if label(b, row) == label(a, row)]
                theta1[j, a] = m1[cell, j].sum() / m_tot[cell].sum()
        theta1 = np.clip(theta1, 1e-4, 1 - 1e-4)
        p1 = np.clip(m_tot / counts.sum(), 1e-4 / n_alpha, None)
        p1 /= p1.sum()

        fit = em_fit(model, q, dataset, init=(theta0, p0), max_iter=1)
        np.testing.assert_allclose(fit.theta, theta1, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(fit.p, p1, rtol=1e-10, atol=1e-14)

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
        with pytest.raises(WrongShape):
            em_fit("dina", Q4X2_PAIRED, data)

    def test_empty_data(self):
        data = Dataset(4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(EmptyData):
            em_fit("dina", Q4X2_PAIRED, data)

    @pytest.mark.parametrize("theta_shape, p_len", [((4, 3), 4), ((3, 4), 4), ((4, 4), 8)])
    def test_init_shape_checked(self, rng, theta_shape, p_len):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=100, seed=5)
        init = (np.full(theta_shape, 0.5), np.full(p_len, 1 / p_len))
        with pytest.raises(WrongShape, match="init needs theta of shape"):
            em_fit("dina", Q4X2_PAIRED, data, init=init)

    def test_gdina_fit(self, rng):
        from qident.catalog import equal_effects_theta

        q = Q5X2_SINGLE_IDENTITY
        theta = equal_effects_theta(q)
        p = np.full(4, 0.25)
        data = simulate("gdina", q, theta, p, 30_000, seed=6)
        fit = multistart_fit("gdina", q, data, restarts=4, seed=7)
        assert np.abs(fit.theta - theta).max() < 0.05
        assert (np.diff(fit.loglik_path) > -1e-9).all()


def _masks(designs):
    """The designs as an (N, J) array of row masks."""
    return np.array([q.row_masks for q in designs])


def _same_fit(a, b):
    """Every FitResult field equal, arrays byte for byte."""
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


class TestBatchEngine:
    """A batch of EM fits gives every fit exactly what it gets alone."""

    @staticmethod
    def _batch(model, designs, data, seeds, max_iter, tol=1e-6):
        K = designs[0].n_attributes
        starts = [_start(model, q.row_masks, K, data, np.random.default_rng(s))
                  for q, s in zip(designs, seeds)]
        return list(_fit_all(model, _masks(designs), K, [data] * len(designs), starts, tol,
                             max_iter, paths=True))

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["dina", "dino", "gdina"]),
        shape=st.tuples(st.integers(2, 6), st.integers(1, 3)),
        size=st.integers(1, 5),
        max_iter=st.sampled_from([1, 7, 40, 300]),
        data=st.data(),
    )
    def test_each_fit_equals_fit_alone(self, model, shape, size, max_iter, data):
        J, K = shape
        mask = st.integers(1, (1 << K) - 1)
        designs = [
            QMatrix([[m >> k & 1 for k in range(K)] for m in data.draw(
                st.lists(mask, min_size=J, max_size=J))])
            for _ in range(size)
        ]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        params = DinaParams(rng.uniform(0.1, 0.3, J), rng.uniform(0.1, 0.3, J))
        p = rng.dirichlet(np.full(1 << K, 2.0))
        dataset = simulate("dina", designs[0], params, p, int(rng.integers(50, 2000)), seed=rng)
        seeds = [int(v) for v in rng.integers(2**31, size=size)]

        alone = [
            em_fit(model, q, dataset, tol=1e-6, max_iter=max_iter, seed=np.random.default_rng(s))
            for q, s in zip(designs, seeds)
        ]
        batch = self._batch(model, designs, dataset, seeds, max_iter)
        assert all(_same_fit(a, b) for a, b in zip(alone, batch))
        order = rng.permutation(size)
        shuffled = self._batch(model, [designs[i] for i in order], dataset,
                               [seeds[i] for i in order], max_iter)
        assert all(_same_fit(alone[i], b) for i, b in zip(order, shuffled))

    def test_mixed_converged_and_capped(self, rng):
        # 12 restarts on one dataset, capped at 140 sweeps: some converge
        # earlier, some are still moving; each keeps its own count
        q = Q5X2_SINGLE_IDENTITY
        _, _, data = _simulated(rng, q, n=3000, seed=28)
        seeds = list(range(12))
        batch = self._batch("dina", [q] * 12, data, seeds, max_iter=140)
        alone = [em_fit("dina", q, data, tol=1e-6, max_iter=140, seed=np.random.default_rng(s))
                 for s in seeds]
        assert {f.converged for f in batch} == {True, False}
        assert [f.iterations for f in batch] == [f.iterations for f in alone]
        assert all(_same_fit(a, b) for a, b in zip(alone, batch))
        assert all(f.iterations == 140 for f in batch if not f.converged)
        assert all(len(f.loglik_path) == f.iterations + 1 for f in batch)

    @staticmethod
    def _alone(model, designs, data, seeds, max_iter, tol=1e-6):
        return [em_fit(model, q, data, tol=tol, max_iter=max_iter, seed=np.random.default_rng(s))
                for q, s in zip(designs, seeds)]

    @pytest.mark.parametrize("model", ["dina", "gdina"])
    def test_canonical_5x2_census(self, rng, model):
        # all 121 canonical 5 x 2 designs in one batch (B * C = 484 rows per
        # GEMM), some converging early and some capped
        designs = as_qmatrices(enumerate_canonical(5, 2), 2)
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=3000, seed=40)
        seeds = range(len(designs))
        batch = self._batch(model, designs, data, seeds, max_iter=120, tol=1e-3)
        assert len(batch) == 121 and {f.converged for f in batch} == {True, False}
        alone = self._alone(model, designs, data, seeds, max_iter=120, tol=1e-3)
        assert all(_same_fit(a, b) for a, b in zip(alone, batch))

    def test_k3_gdina(self, rng):
        # eight classes per fit, different designs and starts in one batch
        designs = [random_q(rng, 6, 3, ensure_nonzero_rows=True) for _ in range(12)]
        _, _, data = _simulated(rng, designs[0], n=4000, seed=41)
        seeds = range(100, 112)
        batch = self._batch("gdina", designs, data, seeds, max_iter=80)
        assert all(_same_fit(a, b) for a, b in zip(self._alone("gdina", designs, data, seeds, 80), batch))

    def test_batch_split_into_chunks(self, rng):
        # 300 patterns, padded to 304: a full chunk's E-step GEMM passes 10^6
        # multiply-adds and its M-step sums run in pieces of 256 patterns
        q = QMatrix([[1, 0], [0, 1]] * 4 + [[1, 1]])
        _, _, data = _simulated(rng, q, n=30_000, seed=42)
        data = Dataset(q.n_items, data.patterns[:300], data.counts[:300])
        assert len(data.patterns) == 300
        size = _BATCH_CELLS // (304 << 2)
        seeds = range(size + 7)
        designs = [q] * len(seeds)
        batch = self._batch("dina", designs, data, seeds, max_iter=25)
        assert all(_same_fit(a, b) for a, b in zip(self._alone("dina", designs, data, seeds, 25), batch))

    @pytest.mark.parametrize("model", ["dina", "gdina"])
    def test_loglik_matches_2j_kernel(self, rng, model):
        # every fit of a large batch against the exact 2^J distribution
        designs = as_qmatrices(enumerate_canonical(5, 2), 2)
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=3000, seed=43)
        counts = data.counts.astype(float)
        for fit in self._batch(model, designs, data, range(len(designs)), max_iter=200):
            exact = counts @ np.log(response_distribution(fit.theta, fit.p)[data.patterns])
            assert fit.loglik == pytest.approx(exact, rel=1e-10)


class TestClassMajorOracle:
    """Every fit of the class-outer sweep is byte-equal to the fit of the
    class-major sweep it replaced (``tests/em_reference.py``): loglik,
    iterations, converged, theta, p, s, g, the loglik path and both order
    flags.  The sweep keeps the bits by three rules, and breaking any one of
    them fails these tests: a product is a multiple of 8 columns wide and
    its sums have at most 256 terms, p is normalised over a contiguous
    (m, C) array, and the loglik is one dot per fit."""

    @staticmethod
    def _check(monkeypatch, model, masks, K, datasets, starts, tol, max_iter):
        def run():
            return list(_fit_all(model, masks, K, datasets, starts, tol, max_iter, paths=True))

        fits = run()
        monkeypatch.setattr(estimate, "_em_batch", em_reference.em_batch)
        want = run()
        assert len(fits) == len(want) == len(masks)
        assert all(_same_fit(a, b) for a, b in zip(fits, want))
        return fits

    @staticmethod
    def _starts(model, masks, K, data, seeds):
        return [_start(model, mask, K, data, np.random.default_rng(s))
                for mask, s in zip(masks, seeds)]

    @pytest.mark.parametrize("model", ["dina", "dino", "gdina"])
    def test_canonical_5x2_census(self, rng, monkeypatch, model):
        # all 121 canonical 5 x 2 designs, fits leaving the batch at many sweeps
        masks = enumerate_canonical(5, 2)
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=3000, seed=40)
        starts = self._starts(model, masks, 2, data, range(len(masks)))
        fits = self._check(monkeypatch, model, masks, 2, [data] * len(masks), starts, 1e-3, 120)
        assert {f.converged for f in fits} == {True, False}
        assert len({f.iterations for f in fits}) > 10

    def test_k3_gdina(self, rng, monkeypatch):
        # eight classes per fit, where p's contiguous class sum adds in pairs
        masks = _masks([random_q(rng, 6, 3, ensure_nonzero_rows=True) for _ in range(12)])
        _, _, data = _simulated(rng, QMatrix((masks[0][:, None] >> np.arange(3)) & 1),
                                n=4000, seed=41)
        starts = self._starts("gdina", masks, 3, data, range(100, 112))
        self._check(monkeypatch, "gdina", masks, 3, [data] * 12, starts, 1e-6, 80)

    def test_batch_split_into_chunks(self, rng, monkeypatch):
        # 300 patterns padded to 304, so the M-step sums run in two pieces,
        # and more fits than one batch holds
        q = QMatrix([[1, 0], [0, 1]] * 4 + [[1, 1]])
        _, _, data = _simulated(rng, q, n=30_000, seed=42)
        data = Dataset(q.n_items, data.patterns[:300], data.counts[:300])
        size = _BATCH_CELLS // (304 << 2) + 7
        masks = np.broadcast_to(q.row_masks, (size, q.n_items))
        starts = self._starts("dina", masks, 2, data, range(size))
        self._check(monkeypatch, "dina", masks, 2, [data] * size, starts, 1e-6, 25)

    def test_decay_datasets(self, monkeypatch):
        # 48 datasets with different pattern sets, drawn as the error-decay
        # experiment draws them: 4 truths on the paired 4 x 2 design, n in
        # 1e2..1e4, 4 replications each, fit with its tolerance and cap
        q, sampler = Q4X2_PAIRED, np.random.default_rng(614)
        datasets, starts = [], []
        for idx in range(4):
            params = DinaParams(sampler.uniform(0.1, 0.3, 4), sampler.uniform(0.1, 0.3, 4))
            p = sampler.dirichlet(np.full(4, 3.0))
            for n in (100, 1_000, 10_000):
                for rep in range(4):
                    stream = np.random.default_rng((614, idx, n, rep))
                    datasets.append(simulate("dina", q, params, p, n, seed=stream))
                    starts.append(_start("dina", q.row_masks, 2, datasets[-1], stream))
        assert len({d.patterns.tobytes() for d in datasets}) > 1
        masks = np.broadcast_to(q.row_masks, (48, q.n_items))
        self._check(monkeypatch, "dina", masks, 2, datasets, starts, 1e-7, 600)


def test_gemm_rounds_rows_and_columns_alike():
    # The rule behind the batch engine's byte-equality, on the BLAS numpy
    # links: in a product of at least two rows, a multiple of 8 columns wide,
    # whose sums have at most 256 terms, each row is the same in any slice
    # of the rows, and the M-step's J columns of ones each equal the one
    # column of ones of the narrower operand [X | 1 | pad]
    rng = np.random.default_rng(7)
    for _ in range(60):
        rows, N, J = int(rng.integers(2, 600)), int(rng.integers(1, 257)), int(rng.integers(1, 64))
        A = rng.random((rows, N)) * np.exp(rng.normal(0, 5, (rows, N)))
        X = (rng.random((N, J)) < 0.5).astype(float)
        many = A @ np.hstack([X, np.ones((N, J)), np.zeros((N, -2 * J % 8))])
        one = A @ np.hstack([X, np.ones((N, 1)), np.zeros((N, -(J + 1) % 8))])
        assert (many[:, : J + 1] == one[:, : J + 1]).all()
        assert (many[:, J : 2 * J] == one[:, J : J + 1]).all()
        lo = int(rng.integers(0, rows - 1))
        hi = int(rng.integers(lo + 2, rows + 1))
        assert (A[lo:hi] @ np.hstack([X, np.ones((N, J)), np.zeros((N, -2 * J % 8))])
                == many[lo:hi]).all()


def test_shift_free_estep_at_the_clamp(rng):
    # J = 62, every theta entry at the clamp, p at its floor: fit 0 holds the
    # floor of K = 2, fit 1 the floor of K = 20 in every class (the least
    # proportion any fit can hold).  Each class's least likely pattern puts
    # its log joint below -590, where only the absence of underflow keeps
    # the E-step exact without a class-max shift.
    J, C = 62, 4
    theta = np.where(rng.random((2, C, J)) < 0.5, 1e-4, 1 - 1e-4)
    p = np.maximum([0.0, 0.0, 0.0, 1.0], 1e-4 / C)
    p = np.stack([p / p.sum(), np.full(C, 1e-4 / (1 << 20) / 1.0001)])
    X = np.vstack([theta.reshape(-1, J) == 1e-4, np.zeros(J), np.ones(J),
                   rng.random((6, J)) < 0.5]).astype(float)
    W = rng.integers(1, 1000, size=(2, len(X))).astype(float)
    XX = np.hstack([X, 1.0 - X, np.ones((len(X), 1))])
    logs = _log_table(theta.transpose(0, 2, 1), p)
    assert logs.shape == (C, 2, 2 * J + 1)
    loglik, wpost = _observed_loglik(logs, XX, W, np.empty(C * 2 * len(X)))

    # independent reference: item by item, then a max-shifted log-sum-exp
    log_joint = np.where(X == 1, np.log(theta)[:, :, None], np.log1p(-theta)[:, :, None])
    log_joint = log_joint.sum(axis=3) + np.log(p)[:, :, None]
    assert log_joint.min() < -590
    want = (W * np.logaddexp.reduce(log_joint, axis=1)).sum(axis=1)
    np.testing.assert_allclose(loglik, want, rtol=1e-12, atol=0)
    post = wpost.reshape(C, 2, -1) / W
    assert np.isfinite(post).all() and (post > 0).all()
    np.testing.assert_allclose(post.sum(axis=0), 1.0, rtol=1e-12)


def _flip_one(theta, p, masks):
    """Reference: the attribute-flip canonicalization of one fit, item by
    item in Python."""
    for k in range(len(p).bit_length() - 1):
        bit = 1 << k
        users = [j for j in range(len(masks)) if int(masks[j]) & bit]
        if not users or any(int(masks[j]) != bit for j in users):
            continue
        gap = sum(float(theta[j, bit] - theta[j, 0]) for j in users)
        if gap < 0:
            flip = np.arange(len(p)) ^ bit
            p = p[flip]
            theta = theta.copy()
            for j in users:
                theta[j] = theta[j][flip]
    return theta, p


def test_flip_batch_matches_per_design_reference(rng):
    # designs where the flip can fire (every item of each attribute a unit
    # row; the paired 4 x 2 design plus an item requiring nothing) mixed
    # with one where it never fires
    paired = np.append(Q4X2_PAIRED.row_masks, 0)
    masks = np.array([paired, Q5X2_SINGLE_IDENTITY.row_masks] * 20)
    theta = rng.uniform(0.05, 0.95, size=(len(masks), 5, 4))
    p = rng.dirichlet(np.ones(4), size=len(masks))
    want = [_flip_one(t, a, m) for t, a, m in zip(theta, p, masks)]
    got_theta, got_p = theta.copy(), p.copy()
    _flip_unit_attributes(got_theta, got_p, masks)
    for b, (t, a) in enumerate(want):
        assert got_theta[b].tobytes() == t.tobytes() and got_p[b].tobytes() == a.tobytes()
    changed = (got_p != p).any(axis=1)
    assert changed[::2].any() and not changed[1::2].any()


@pytest.mark.parametrize("masks, K", [
    (np.array([[1, 2, 8]]), 2),  # a bit the design does not have
    (np.array([[1, 2, 4, 3, 5]]), 2),
    (np.array([[-1, 1, 2]]), 2),
    (np.array([1, 2, 3]), 2),  # one design, not a batch
    (np.ones((1, 2, 3), dtype=np.int64), 2),
    (np.array([[1, 1, 1]]), 0),
    (np.zeros((2, 0), dtype=np.int64), 2),  # designs with no items
])
@pytest.mark.parametrize("entry", ["classify_batch", "exhaustive_search"])
def test_bulk_masks_checked(masks, K, entry):
    with pytest.raises(WrongShape, match=r"row masks in \[0, 2\^K\)"):
        if entry == "classify_batch":
            classify_batch(masks, K, "gdina")
        else:
            data = Dataset(masks.shape[-1], np.array([0]), np.array([1]))
            exhaustive_search("dina", data, masks, K, restarts=1)


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
            em_fit("dina", Q4X2_PAIRED, data, seed=np.random.default_rng(child))
            for child in np.random.SeedSequence(33).spawn(5)
        ]
        multi = multistart_fit("dina", Q4X2_PAIRED, data, restarts=5, seed=33)
        assert multi.loglik >= max(f.loglik for f in singles) - 1e-9
        # every restart in seed order, as each runs alone
        assert multi.restart_logliks == [f.loglik for f in singles]
        assert multi.restart_iterations == [f.iterations for f in singles]
        assert singles[0].restart_logliks is None

    def test_no_restarts_raises(self, rng):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=200, seed=13)
        for restarts in (0, -1):
            with pytest.raises(QidentError, match="restarts must be at least 1"):
                multistart_fit("dina", Q4X2_PAIRED, data, restarts=restarts)
            with pytest.raises(QidentError, match="restarts must be at least 1"):
                exhaustive_search("dina", data, _masks([Q4X2_PAIRED]), 2, restarts=restarts)

    @pytest.mark.parametrize("stop, message", [
        ({"max_iter": 0}, "max_iter must be at least 1"),
        ({"max_iter": -3}, "max_iter must be at least 1"),
        ({"tol": float("nan")}, "tol must be finite and non-negative"),
        ({"tol": float("inf")}, "tol must be finite and non-negative"),
        ({"tol": -1e-8}, "tol must be finite and non-negative"),
    ])
    def test_bad_stopping_rule_raises(self, rng, stop, message):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=200, seed=13)

        def sampler(rng):
            return DinaParams(np.full(4, 0.2), np.full(4, 0.2)), np.full(4, 0.25)

        calls = [
            lambda: em_fit("dina", Q4X2_PAIRED, data, **stop),
            lambda: multistart_fit("dina", Q4X2_PAIRED, data, restarts=2, **stop),
            lambda: exhaustive_search("dina", data, _masks([Q4X2_PAIRED]), 2, restarts=1, **stop),
            lambda: mse_experiment(Q4X2_PAIRED, sampler, n_truths=1, n_grid=[100],
                                   replications=1, restarts=1, **stop),
        ]
        for call in calls:
            with pytest.raises(QidentError, match=message):
                call()

    def test_mse_model_checked_before_any_truth(self):
        def untouched(*args, **kwargs):
            raise AssertionError("a truth was drawn before the model was checked")

        with pytest.raises(QidentError, match="model must be 'dina' or 'dino', got 'gdina'"):
            mse_experiment(Q4X2_PAIRED, untouched, n_truths=1, n_grid=[100],
                           replications=1, model="gdina")

    @pytest.mark.parametrize("bad", [{"tol": float("nan")}, {"max_iter": 0}, {"restarts": 0}])
    def test_bad_settings_raise_before_any_work(self, rng, monkeypatch, bad):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=200, seed=13)

        def untouched(*args, **kwargs):
            raise AssertionError("work done before the settings were checked")

        monkeypatch.setattr(estimate, "_start", untouched)
        run = {"restarts": 1, **bad}
        calls = [
            lambda: multistart_fit("dina", Q4X2_PAIRED, data, **run),
            lambda: exhaustive_search("dina", data, _masks([Q4X2_PAIRED]), 2, **run),
            lambda: mse_experiment(Q4X2_PAIRED, untouched, n_truths=1, n_grid=[100],
                                   replications=1, **run),
        ]
        for call in calls:
            with pytest.raises(QidentError, match="must be"):
                call()

    def test_given_start_normalized_before_floor(self, rng):
        # unnormalized, the first three classes would start near 1e-312,
        # far below the 1e-4 / C floor the E-step's bound needs
        params, _, data = _simulated(rng, Q4X2_PAIRED, n=500, seed=21)
        theta = theta_table("dina", Q4X2_PAIRED, params)
        fits = [em_fit("dina", Q4X2_PAIRED, data, init=(theta, p))
                for p in ([1e-4, 1e-4, 1e-4, 1e308], [0, 0, 0, 1])]
        assert fits[0].iterations == fits[1].iterations
        np.testing.assert_array_equal(fits[0].loglik_path, fits[1].loglik_path)
        np.testing.assert_array_equal(fits[0].p, fits[1].p)
        with pytest.raises(WrongShape, match="init p needs a positive sum"):
            em_fit("dina", Q4X2_PAIRED, data, init=(theta, np.zeros(4)))

    @pytest.mark.parametrize("part, index, value", [
        (0, (0, 0), np.nan), (0, (1, 3), np.inf), (1, 2, np.inf),
    ], ids=["nan-theta", "inf-theta", "inf-p"])
    def test_given_start_must_be_finite(self, rng, part, index, value):
        # unchecked, a NaN start runs EM to the cap with a NaN loglik, an inf
        # in theta is clipped silently and an inf in p normalizes to NaN
        params, _, data = _simulated(rng, Q4X2_PAIRED, n=500, seed=21)
        init = [theta_table("dina", Q4X2_PAIRED, params), np.full(4, 0.25)]
        init[part][index] = value
        with pytest.raises(WrongShape, match="init theta and p need finite entries"):
            em_fit("dina", Q4X2_PAIRED, data, init=tuple(init), max_iter=50)

    @pytest.mark.parametrize("part, index, value", [
        (0, (0, 0), 7.0), (0, (2, 1), -0.5), (1, 1, -0.2),
    ], ids=["theta-above-1", "theta-below-0", "negative-p"])
    def test_given_start_must_lie_in_the_parameter_space(self, rng, part, index, value):
        # unchecked, each of these is clipped to the floor or cap and fitted
        params, _, data = _simulated(rng, Q4X2_PAIRED, n=500, seed=21)
        init = [theta_table("dina", Q4X2_PAIRED, params), np.array([0.5, 0.1, 0.4, 0.3])]
        init[part][index] = value
        with pytest.raises(WrongShape, match=r"init theta needs entries in \[0, 1\] and p entries >= 0"):
            em_fit("dina", Q4X2_PAIRED, data, init=tuple(init), max_iter=50)

    def test_zero_tol_runs_to_the_cap(self, rng):
        _, _, data = _simulated(rng, Q4X2_PAIRED, n=200, seed=13)
        fit = em_fit("dina", Q4X2_PAIRED, data, tol=0.0, max_iter=7, seed=3)
        assert fit.iterations == 7 and not fit.converged

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
        report = exhaustive_search("dina", data, _masks(candidates), 2, restarts=3, seed=15)
        report2 = exhaustive_search("dina", data, _masks(candidates[::-1]), 2, restarts=3,
                                    seed=15)
        assert q_equivalent(report.argmax_q, report2.argmax_q)

    def test_truth_wins_at_scale(self, rng):
        q = Q5X2_SINGLE_IDENTITY
        params, p, data = _simulated(rng, q, n=20_000, seed=16)
        rivals = [
            QMatrix.from_rows([[0, 1], [1, 1], [1, 1], [1, 1], [0, 1]]),
            QMatrix.from_rows([[0, 1], [1, 0], [1, 1], [1, 0], [0, 1]]),
            QMatrix.from_rows([[1, 1], [1, 1], [1, 1], [1, 1], [1, 1]]),
        ]
        report = exhaustive_search("dina", data, _masks([q] + rivals), 2, restarts=4, seed=17)
        assert report.argmax_index == 0
        # fitting the truth from the true parameters dominates every rival fit
        oracle = em_fit("dina", q, data, init=(theta_table("dina", q, params), p))
        for entry in report.entries[1:]:
            assert oracle.loglik >= entry.loglik - 1e-6

    def test_no_fittable_candidate_raises(self, rng):
        # candidates share one shape, so a wrong item count fails them all
        # before any fit
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=200, seed=18)
        for candidates in ([Q4X2_PAIRED, Q4X2_PAIRED], [Q4X2_PAIRED]):
            with pytest.raises(WrongShape, match="has 5 items but the design has 4"):
                exhaustive_search("dina", data, _masks(candidates), 2, restarts=1, seed=19)
        empty = Dataset(5, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(EmptyData):
            exhaustive_search("dina", empty, _masks([Q5X2_SINGLE_IDENTITY]), 2, restarts=1)

    def test_empty_candidate_list_raises(self, rng):
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=200, seed=18)
        with pytest.raises(QidentError, match="no candidates given"):
            exhaustive_search("dina", data, np.empty((0, 5), dtype=np.int64), 2, restarts=1,
                              seed=19)

    def test_programming_errors_propagate(self, rng):
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=200, seed=18)
        with pytest.raises(ValueError, match="unknown model"):
            exhaustive_search("xyz", data, _masks([Q5X2_SINGLE_IDENTITY]), 2, restarts=1,
                              seed=19)

    def test_stringent_without_eligible_candidate_raises(self):
        # the all-ones design nests the saturated model; its fit ties or
        # breaks the subset order, so a stringent sweep has no argmax
        from qident.catalog import equal_effects_theta

        q = Q5X2_SINGLE_IDENTITY
        data = simulate("gdina", q, equal_effects_theta(q), np.full(4, 0.25), 10_000, seed=0)
        ones = np.full((1, 5), 3)
        kwargs = dict(restarts=3, seed=25, tol=1e-6, max_iter=400)
        assert not exhaustive_search("gdina", data, ones, 2, **kwargs).entries[0].stringent_ok
        with pytest.raises(QidentError, match="no fitted candidate satisfies the subset order"):
            exhaustive_search("gdina", data, ones, 2, require_stringent=True, **kwargs)

    def test_reports_iterations_and_unconverged(self, rng):
        _, _, data = _simulated(rng, Q5X2_SINGLE_IDENTITY, n=2000, seed=18)
        candidates = _masks([Q5X2_SINGLE_IDENTITY, QMatrix.from_rows([[1, 1]] * 5)])
        report = exhaustive_search("dina", data, candidates, 2, restarts=2, seed=19, max_iter=25)
        assert all(1 <= e.iterations <= 25 for e in report.entries)
        assert all(e.converged == (e.iterations < 25) for e in report.entries)
        assert report.unconverged == sum(not e.converged for e in report.entries)
        payload = report.to_json_dict()
        assert payload["unconverged"] == report.unconverged
        assert [c["iterations"] for c in payload["candidates"]] == [
            e.iterations for e in report.entries]
        assert [c["rows"] for c in payload["candidates"]] == [
            ";".join(q.row_strings()) for q in (Q5X2_SINGLE_IDENTITY, QMatrix([[1, 1]] * 5))]

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
        unfiltered = exhaustive_search("gdina", data, _masks(candidates), 2, **kwargs)
        filtered = exhaustive_search(
            "gdina", data, _masks(candidates), 2, require_stringent=True, **kwargs
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

        # three attributes: bit k of each class label moves to bit known[k]
        known = (2, 0, 1)
        p3 = rng.dirichlet(np.ones(8))
        relabel = [sum((a >> k & 1) << known[k] for k in range(3)) for a in range(8)]
        dummy.p = np.empty(8)
        dummy.p[relabel] = p3
        perm, aligned, err = align_to_truth(dummy, {"p": p3}, 3)
        assert perm == known
        assert np.array_equal(aligned, p3)
        assert err == 0.0

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

        with pytest.raises(TooLarge):
            align_to_truth(Dummy(), {"p": Dummy.p}, 11)


class TestMseExperiment:
    def test_zero_replications_empty(self):
        report = mse_experiment(
            Q4X2_PAIRED, lambda rng: None, n_truths=0, n_grid=[100], replications=0
        )
        assert report.records == []

    def test_empty_grid_draws_truths_but_fits_nothing(self):
        def sampler(rng):
            return DinaParams(np.full(4, 0.2), np.full(4, 0.2)), np.full(4, 0.25)

        # no dataset is drawn, so no EM batch is started
        report = mse_experiment(Q4X2_PAIRED, sampler, n_truths=2, n_grid=[], replications=3)
        assert report.records == []
        assert len(report.truths) == 2
        assert all((truth["p"] == 0.25).all() for truth in report.truths)

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
        init = (theta_table("dina", Q4X2_PAIRED, self.PARAMS_4), p)
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
