"""Maximum-likelihood estimation and the simulation-evidence harnesses.

One engine runs every expectation-maximization fit on pattern-count data at
a fixed design matrix, a batch of designs entering as a (B, J) array of row
masks plus K, the form ``qmatrix.classify_batch`` takes.  It holds a batch
class-outer (class, fit, pattern), so that a sweep is one matrix product for
the E-step and one for the closed-form M-step over the whole batch, for
every model: a weighted mean per (item, cell) of the response table, the
cells being capable and not capable for DINA and DINO and a & row_mask[j]
for GDINA, pooled by one ``bincount`` into bins numbered densely per fit.
Each fit stops on its own with the bits it gets alone (see ``_em_batch``).
``em_fit`` is a batch of one, ``multistart_fit`` batches its restarts,
``exhaustive_search`` sweeps candidate designs x restarts, and
``mse_experiment`` fits every replication of an error-decay experiment.

The E-step needs no class-max shift: with item probabilities clamped to
[1e-4, 1 - 1e-4] and proportions floored at 1e-4 / C, every log joint is at
least -603 (J = 63, K = 20), inside exp's normal range.

The observed-data log-likelihood is nondecreasing across iterations (up to
a small numerical slack); tests rely on this invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyData, QidentError, TooLarge, WrongShape
from .qmatrix import QMatrix, _bit_permutation_table, _cells, _check_masks, _design_rows, _gate
from .rlcm import Dataset, _order_violations, simulate

__all__ = [
    "FitResult",
    "SearchReport",
    "MseRecord",
    "MseReport",
    "em_fit",
    "multistart_fit",
    "exhaustive_search",
    "align_to_truth",
    "mse_experiment",
]

_CLAMP = 1e-4
# Largest fits x patterns x classes array one EM batch holds; larger batches
# run in chunks, which changes no result since fits never interact
_BATCH_CELLS = 1 << 16


@dataclass
class FitResult:
    """Outcome of one EM run.

    ``loglik`` is the exact observed-data log-likelihood at the returned
    parameters; ``s``/``g`` are populated for the two-parameter models only.
    ``loglik_path`` holds the loglik before each sweep and at the returned
    parameters; it is None for the fits inside a sweep or an error-decay
    experiment, which keep only their outcome.  ``restart_logliks`` and
    ``restart_iterations`` hold the loglik and sweep count of every restart
    of a ``multistart_fit``, in seed order; they are None for other fits.

    The order is audited on the output, never enforced during iteration.
    ``monotonicity_ok`` is the covering/non-covering order with ties allowed
    (``rlcm.monotonicity_ok`` is strict).  ``stringent_ok`` is the subset
    order with ties allowed: a two-parameter fit gives all non-covering
    cells of an item the same value, so those cells always tie, and
    ``search --stringent`` filters on this weak order.
    """

    model: str
    loglik: float
    s: np.ndarray | None
    g: np.ndarray | None
    theta: np.ndarray
    p: np.ndarray
    iterations: int
    converged: bool
    monotonicity_ok: bool
    stringent_ok: bool
    loglik_path: np.ndarray | None
    restart_logliks: list[float] | None = None
    restart_iterations: list[int] | None = None


def _random_init(model: str, mask: np.ndarray, K: int, rng: np.random.Generator):
    """A random start for the design with row masks ``mask`` (J,)."""
    J = len(mask)
    p = rng.dirichlet(np.ones(1 << K))
    if model in ("dina", "dino"):
        s = rng.uniform(0.05, 0.35, size=J)
        g = rng.uniform(0.05, 0.35, size=J)
        return np.where(_gate(mask, K, model), (1.0 - s)[:, None], g[:, None]), p
    cells = _cells(mask, K)
    theta = np.empty(cells.shape)
    for j in range(J):
        uniq = np.unique(cells[j])
        vals = np.sort(rng.uniform(0.1, 0.9, size=len(uniq)))
        # monotone start: cells with more required attributes get larger values
        order = np.argsort([bin(int(u)).count("1") for u in uniq], kind="stable")
        theta[j, uniq[order]] = vals
        theta[j] = theta[j, cells[j]]
    return theta, p


def _start(model: str, mask: np.ndarray, K: int, data: Dataset, rng, init=None):
    """Check one fit's inputs and return its clamped start ``(theta, p)``
    for the design with row masks ``mask`` (J,): ``init`` when given, else
    a random start drawn from ``rng``."""
    if model not in ("dina", "dino", "gdina"):
        raise ValueError(f"unknown model {model!r}")
    if data.n_items != len(mask):
        raise WrongShape(f"data has {data.n_items} items but the design has {len(mask)}")
    if data.n_subjects == 0:
        raise EmptyData("no observations")
    if init is not None:
        theta, p = np.array(init[0], float), np.array(init[1], float)
        if theta.shape != (len(mask), 1 << K) or p.shape != (1 << K,):
            raise WrongShape(f"init needs theta of shape {(len(mask), 1 << K)} and p of "
                             f"length {1 << K}, got {theta.shape} and {p.shape}")
        if not (np.isfinite(theta).all() and np.isfinite(p).all()):
            raise WrongShape("init theta and p need finite entries")
        if not (((theta >= 0) & (theta <= 1)).all() and (p >= 0).all()):
            raise WrongShape("init theta needs entries in [0, 1] and p entries >= 0")
        if not p.sum() > 0:
            raise WrongShape(f"init p needs a positive sum, got {p.sum()}")
        p /= p.sum()  # so that the floor below bounds every class from below
    else:
        theta, p = _random_init(model, mask, K, rng)
    theta = np.clip(theta, _CLAMP, 1 - _CLAMP)
    p = np.clip(p, _CLAMP, None)
    p /= p.sum()
    return theta, p


def _flip_unit_attributes(theta, p, masks):
    """Canonicalize a batch of two-parameter fits, theta (B, J, 2^K) and p
    (B, 2^K) on row masks (B, J), in place under attribute-flip symmetry.

    When every item requiring attribute k is a unit row, negating that
    attribute's mastery label (and swapping the affected items' capable and
    guessing values) is an exact model symmetry; EM can land on either
    representative.  Pick the one where capable beats guessing, which is the
    only representative inside the monotone parameter region.
    """
    for k in range(p.shape[1].bit_length() - 1):
        bit = 1 << k
        users = (masks & bit) != 0
        only_units = users.any(axis=1) & ~(users & (masks != bit)).any(axis=1)
        gap = np.where(users, theta[:, :, bit] - theta[:, :, 0], 0.0).sum(axis=1)
        flip, fits = np.arange(p.shape[1]) ^ bit, only_units & (gap < 0)
        p[fits] = p[fits][:, flip]
        items = fits[:, None] & users
        theta[items] = theta[items][:, flip]


def _log_table(theta, p):
    """[log theta | log(1 - theta) | log p] as (C, B, 2J + 1), from theta (B, J, C), p (B, C)."""
    t = theta.transpose(2, 0, 1)
    return np.log(np.concatenate([t, 1.0 - t, p.T[:, :, None]], axis=2))


def _observed_loglik(logs, XX, W, work):
    """E-step for B fits held class-outer: the log table ``logs``
    (C, B, 2J + 1) of ``_log_table`` and pattern weights W (B, N) over
    XX = [X | 1 - X | 1] (N, 2J + 1).  One GEMM writes the log joints
    (C, B, N) to the front of the flat buffer ``work``, and the class sum
    adds the outer axis in class order.  Returns each fit's observed-data
    loglik, one dot per fit so that it does not depend on the batch, and its
    posterior times W, a (C*B, N) view of ``work``.  With theta in
    [1e-4, 1 - 1e-4] and p at least 1e-4 / (1.0001 C), every log joint is at
    least J ln(1e-4) + ln(1e-4 / (1.0001 C)), -603 at J = 63 (the widest
    int64 pattern mask) and C = 2^20, above exp's normal range limit of
    -708: the joints are exponentiated with no class-max shift."""
    C, B, _ = logs.shape
    joint = work[: C * B * len(XX)].reshape(C, B, -1)
    np.matmul(logs.reshape(C * B, -1), XX.T, out=joint.reshape(C * B, -1))
    denom = np.add.reduce(np.exp(joint, out=joint), axis=0)
    # one dot per fit (np.vecdot would do the same but needs numpy >= 2)
    loglik = (W[:, None, :] @ np.log(denom)[:, :, None])[:, 0, 0]
    return loglik, np.multiply(joint, W / denom, out=joint).reshape(C * B, -1)


def _bins(local, size, width):
    """Number the bins of the m fits left in a batch 0..total-1 by per-fit
    offsets, from each fit's dense bin numbers ``local`` (m, J, C) and bin
    counts ``size``.  Returns the bins (m, J, C), the log-table index
    (C, m, 2J + 1) into the buffer [theta | 1 - theta | p (m, C)], the
    ``bincount`` index of the M-step product (C*m, width), whose pad columns
    go to p's slots, and ``total``."""
    (m, J, C), total = local.shape, int(size.sum())
    bins = local + (np.cumsum(size) - size)[:, None, None]
    by_class = bins.transpose(2, 0, 1)
    slots = 2 * total + C * np.arange(m) + np.arange(C)[:, None]  # p[b, c], (C, m)
    pad = np.broadcast_to(slots[:, :, None], (C, m, max(width - 2 * J, 1)))
    index = np.concatenate([by_class, by_class + total, pad], axis=2)
    return bins, index[:, :, : 2 * J + 1].copy(), index[:, :, :width].ravel(), total


def _em_batch(model, masks, K, X, W, starts, tol, max_iter, paths):
    """Advance one EM fit per design, given by its row masks ``masks[b]``
    over K attributes, together and yield the fits in order.

    Fit b weights the shared patterns X (N, J) by ``W[b]`` and starts from
    ``starts[b]``.  The batch is held class-outer, the log table as
    (C, B, 2J + 1) and the joints as (C, B, N).  A sweep is two GEMMs: the
    E-step of ``_observed_loglik`` and the M-step wpost (C*B, N) @
    [X | J copies of 1 | pad], the positive-response mass per (class, fit,
    item) and the class mass once per item.  One ``bincount`` pools that
    product as laid out into each fit's (item, cell) bins, numbered densely
    within the fit once per batch; clamped theta, 1 - theta and the new p
    fill its output, and one ``log`` and one ``take`` make the next log
    table.  A fit whose loglik gain drops below ``tol`` is written out and
    leaves the batch, so its iterations, path and estimate are those it gets
    alone: OpenBLAS rounds a row and a column of a product of two or more
    rows alike in any batch when the product is a multiple of 8 columns wide
    (``_fit_all`` pads the patterns, the M-step its operand) and each sum
    has at most 256 terms (the M-step sums 256 patterns at a time).  p is
    normalised over a contiguous (m, C) array: numpy adds a strided class
    sum in another order.  Without ``paths`` no loglik path is kept.  The
    attribute-flip canonicalization and the order checks run once per batch.
    """
    (B, J), C, N = masks.shape, 1 << K, len(X)
    labels = _cells(masks, K) if model == "gdina" else _gate(masks, K, model)
    # theta[j, a] pools over the classes sharing its (item, label) bin
    keys = labels + C * (np.arange(J)[:, None] + J * np.arange(B)[:, None, None])
    uniq, local = np.unique(keys, return_inverse=True)
    size = np.bincount(uniq // (C * J), minlength=B)
    local = local.reshape(B, J, C) - (np.cumsum(size) - size)[:, None, None]
    XX = np.hstack([X, 1.0 - X, np.ones((N, 1))])
    XI = np.hstack([X, np.ones((N, J)), np.zeros((N, -2 * J % 8))])
    bins, index, flat, total = _bins(local, size, XI.shape[1])
    table = _log_table(np.stack([t for t, _ in starts]), np.stack([a for _, a in starts]))
    work = np.empty(C * B * N)
    out_theta, out_p = np.empty((B, J, C)), np.empty((B, C))
    iterations, converged = np.zeros(B, dtype=int), np.zeros(B, dtype=bool)
    active, w, n, prev = np.arange(B), W, np.add.reduce(W, axis=1), np.full(B, -np.inf)
    trail = [(active[:0], prev[:0])]  # (fits, logliks) of every sweep
    for it in range(1, max_iter + 1):
        loglik, wpost = _observed_loglik(table, XX, w, work)
        mass = wpost[:, :256] @ XI[:256]
        for lo in range(256, N, 256):
            mass += wpost[:, lo:lo + 256] @ XI[lo:lo + 256]
        pooled = np.bincount(flat, mass.ravel(), 2 * total + C * len(active))
        theta, p = pooled[:total], pooled[2 * total:].reshape(-1, C)
        # posteriors are at least exp(-603) (see _observed_loglik): every class mass is positive
        np.divide(theta, pooled[total : 2 * total], out=theta)
        np.minimum(np.maximum(theta, _CLAMP, out=theta), 1 - _CLAMP, out=theta)
        np.subtract(1.0, theta, out=pooled[total : 2 * total])
        np.divide(mass[:, J].reshape(C, -1).T, n[:, None], out=p)
        np.maximum(p, _CLAMP / C, out=p)
        p /= np.add.reduce(p, axis=1, keepdims=True)
        table = np.log(pooled).take(index)

        if paths:
            trail.append((active, loglik))
        done = np.abs(loglik - prev) < tol  # prev starts at -inf: never done at sweep 1
        prev = loglik
        stop = done if it < max_iter else np.ones_like(done)
        if stop.any():
            out_theta[active[stop]], out_p[active[stop]] = theta[bins[stop]], p[stop]
            iterations[active[stop]], converged[active[stop]] = it, done[stop]
            if stop.all():
                break
            keep = ~stop
            active, table, prev, w, n = active[keep], table[:, keep], prev[keep], w[keep], n[keep]
            bins, index, flat, total = _bins(local[active], size[active], XI.shape[1])

    theta, p = out_theta, out_p
    if model != "gdina":
        _flip_unit_attributes(theta, p, masks)
    mono_ok, stringent_ok = (v <= 0 for v in _order_violations(theta, masks))
    final, _ = _observed_loglik(_log_table(theta, p), XX, W, work)
    if paths:
        order = np.argsort(np.concatenate([a for a, _ in trail]), kind="stable")
        sweeps = np.split(np.concatenate([v for _, v in trail])[order], np.cumsum(iterations)[:-1])

    # theta is gathered from pooled bins, so it is constant on an item's capable
    # and on its non-capable cells, also after the flip.  Under DINA and DINO
    # the all-ones pattern is capable on every nonzero row and the empty
    # pattern on none, and a zero row has one bin: s and g read those cells
    for b in range(B):
        yield FitResult(
            model=model,
            loglik=float(final[b]),
            s=None if model == "gdina" else 1.0 - theta[b, :, -1],
            g=None if model == "gdina" else theta[b, :, 0].copy(),
            theta=theta[b].copy(),
            p=p[b].copy(),
            iterations=int(iterations[b]),
            converged=bool(converged[b]),
            monotonicity_ok=bool(mono_ok[b]),
            stringent_ok=bool(stringent_ok[b]),
            loglik_path=np.append(sweeps[b], final[b]) if paths else None,
        )


def _check_run(tol, max_iter, restarts=1):
    """Raise :class:`QidentError` on a run setting no EM fit can take."""
    if restarts < 1:
        raise QidentError(f"restarts must be at least 1, got {restarts}")
    if max_iter < 1:
        raise QidentError(f"max_iter must be at least 1, got {max_iter}")
    if not (np.isfinite(tol) and tol >= 0):
        raise QidentError(f"tol must be finite and non-negative, got {tol}")


def _fit_all(model, masks, K, datasets, starts, tol, max_iter, paths=False):
    """EM fits of the design with row masks ``masks[b]`` over K attributes
    on ``datasets[b]`` from ``starts[b]`` (at least one), yielded in order,
    run in batches over the sorted union of the datasets' patterns.

    Each fit weights the patterns it did not observe by zero.  Such rows add
    exact zeros to the E- and M-step sums, but the loglik dot then sums in
    another order: a fit among datasets with other patterns may differ from
    the fit alone in the last bits of its loglik.
    """
    _check_run(tol, max_iter)
    patterns = np.unique(np.concatenate([d.patterns for d in datasets]))
    # zero-weight all-zero patterns pad N to a multiple of 8 (see _em_batch)
    W = np.zeros((len(datasets), len(patterns) + -len(patterns) % 8))
    for b, d in enumerate(datasets):
        W[b, np.searchsorted(patterns, d.patterns)] = d.counts
    X = np.zeros((W.shape[1], datasets[0].n_items))
    X[: len(patterns)] = (patterns[:, None] >> np.arange(datasets[0].n_items)) & 1
    size = max(1, _BATCH_CELLS // (W.shape[1] << K))
    for lo in range(0, len(masks), size):
        batch = slice(lo, lo + size)
        yield from _em_batch(
            model, masks[batch], K, X, W[batch], starts[batch], tol, max_iter, paths
        )


def _multistart(model, masks, K, datasets, seeds, restarts, tol, max_iter, paths=False):
    """Best-of-``restarts`` EM fits of the design with row masks ``masks[d]``
    on ``datasets[d]``, yielded in order, all restarts in one ``_fit_all``.
    Design d's restarts start from the children of the ``SeedSequence`` with
    entropy ``seeds[d]``; its best fit, the first of highest loglik, carries
    every restart's loglik and sweep count in seed order."""
    _check_run(tol, max_iter, restarts)
    starts = []
    for mask, data, seed in zip(masks, datasets, seeds):
        starts += [_start(model, mask, K, data, np.random.default_rng(child))
                   for child in np.random.SeedSequence(seed).spawn(restarts)]
    fits = _fit_all(model, np.repeat(masks, restarts, axis=0), K,
                    [d for d in datasets for _ in range(restarts)], starts, tol, max_iter, paths)
    for group in zip(*[fits] * restarts):  # each design's restarts, in seed order
        best = max(group, key=lambda fit: fit.loglik)
        best.restart_logliks = [fit.loglik for fit in group]
        best.restart_iterations = [fit.iterations for fit in group]
        yield best


def em_fit(
    model: str,
    q: QMatrix,
    data: Dataset,
    init=None,
    tol: float = 1e-8,
    max_iter: int = 2000,
    seed=None,
) -> FitResult:
    """Fit by EM at a fixed design matrix on pattern-count data.

    ``init`` may be a ``(theta, p)`` pair; otherwise a random start is drawn
    (slipping/guessing uniform on (0.05, 0.35), proportions flat Dirichlet,
    saturated cells started monotone).  The E-step computes posterior class
    membership per observed pattern; M-steps are closed-form with
    probabilities clamped to [1e-4, 1 - 1e-4].  Stops when the loglik gain
    drops below ``tol`` or after ``max_iter`` sweeps; a ``max_iter`` below 1
    or a ``tol`` that is negative or not finite raises :class:`QidentError`.
    """
    start = _start(model, q.row_masks, q.n_attributes, data, np.random.default_rng(seed), init)
    return next(_fit_all(model, q.row_masks[None], q.n_attributes, [data], [start], tol,
                         max_iter, paths=True))


def multistart_fit(
    model: str,
    q: QMatrix,
    data: Dataset,
    restarts: int = 10,
    seed=0,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> FitResult:
    """Best-of-``restarts`` EM runs by log-likelihood, deterministic in the
    seed; the restarts run as one batch, and the best fit carries every
    restart's loglik and sweep count."""
    return next(_multistart(model, q.row_masks[None], q.n_attributes, [data], [seed], restarts,
                            tol, max_iter, paths=True))


@dataclass
class SearchReport:
    """Per-candidate results of an exhaustive design sweep: ``entries[i]`` is
    the best fit of the design with row masks ``candidates[i]``."""

    model: str
    n_attributes: int
    candidates: np.ndarray
    entries: list[FitResult]
    argmax_index: int
    gap_to_runner_up: float
    require_stringent: bool

    @property
    def argmax_q(self) -> QMatrix:
        masks = self.candidates[self.argmax_index]
        return QMatrix((masks[:, None] >> np.arange(self.n_attributes)) & 1)

    @property
    def unconverged(self) -> int:
        """Candidates whose best fit stopped at ``max_iter``."""
        return sum(not e.converged for e in self.entries)

    def to_json_dict(self) -> dict:
        rows = _design_rows(self.candidates, self.n_attributes)
        return {
            "model": self.model,
            "requireStringent": self.require_stringent,
            "argmaxIndex": self.argmax_index,
            "gapToRunnerUp": self.gap_to_runner_up,
            "unconverged": self.unconverged,
            "candidates": [
                {
                    "index": idx,
                    "rows": text,
                    "loglik": e.loglik,
                    "stringentOk": e.stringent_ok,
                    "converged": e.converged,
                    "iterations": e.iterations,
                    "error": None,  # kept for report readers: no candidate fails on its own
                }
                for idx, (e, text) in enumerate(zip(self.entries, rows))
            ],
        }


def exhaustive_search(
    model: str,
    data: Dataset,
    candidates: np.ndarray,
    n_attributes: int,
    restarts: int = 10,
    require_stringent: bool = False,
    seed: int = 0,
    tol: float = 1e-7,
    max_iter: int = 1000,
) -> SearchReport:
    """Fit every candidate design and report which maximizes the likelihood.

    ``candidates`` is an (N, J) int64 array of row masks over
    ``n_attributes`` attributes, one design per row, as ``classify_batch``
    takes.  With ``require_stringent`` the argmax is taken only over
    candidates whose fitted table satisfies the subset order (the rest stay
    in the report but are excluded from the argmax), and the sweep raises
    :class:`QidentError` when none does.  Exact ties break toward fewer ones
    in the design, then lexicographically.  Inputs that fail one candidate
    (an item count other than the data's, empty data) fail them all, so
    they raise before any fit.

    Candidates x restarts run as one EM batch.  The restarts of candidate
    ``i`` are seeded from ``(seed, i)``, so a candidate's entry does not
    depend on the rest of the list.
    """
    masks, K = _check_masks(candidates, n_attributes), n_attributes
    if not len(masks):
        raise QidentError("no candidates given")
    entries = list(_multistart(model, masks, K, [data] * len(masks),
                               [[seed, idx] for idx in range(len(masks))], restarts, tol, max_iter))
    eligible = [i for i, e in enumerate(entries) if not require_stringent or e.stringent_ok]
    if not eligible:
        raise QidentError("no fitted candidate satisfies the subset order")

    bits = ((masks[:, :, None] >> np.arange(K)) & 1).astype(np.int8)
    ranked = sorted(eligible, key=lambda i: (
        -entries[i].loglik, int(bits[i].sum()), bits[i].tobytes()))
    logliks = [entries[i].loglik for i in ranked[:2]]
    gap = float(logliks[0] - logliks[1]) if len(ranked) > 1 else float("inf")
    return SearchReport(model, K, masks, entries, ranked[0], gap, require_stringent)


def align_to_truth(estimate: FitResult, truth: dict, n_attributes: int):
    """Relabel the estimated proportions by the attribute permutation that
    minimizes the total squared parameter error against the truth.

    ``truth`` maps 's', 'g', 'p' to arrays ('s'/'g' ignored for saturated
    fits).  Item parameters are not permuted (items are observed); only the
    class labels of ``p`` move.  Returns ``(permutation, aligned_p,
    squared_error)``; ties break toward the lexicographically smallest
    permutation.
    """
    if n_attributes > 10:
        raise TooLarge("alignment guarded to K <= 10")
    base = 0.0
    if truth.get("s") is not None and estimate.s is not None:
        base += float(np.sum((estimate.s - truth["s"]) ** 2))
        base += float(np.sum((estimate.g - truth["g"]) ** 2))
    best = None
    for perm in itertools.permutations(range(n_attributes)):
        p_aligned = estimate.p[_bit_permutation_table(perm, n_attributes)]
        err = base + float(np.sum((p_aligned - truth["p"]) ** 2))
        if best is None or err < best[2]:
            best = (perm, p_aligned, err)
    return best


@dataclass
class MseRecord:
    """Mean squared errors of one (truth, n) cell over its replications;
    ``unconverged`` counts the replications whose best fit stopped at
    ``max_iter``."""

    truth_index: int
    n: int
    mse_s: float
    mse_g: float
    mse_p: float
    unconverged: int


@dataclass
class MseReport:
    """Squared-error decay of the estimators across sample sizes."""

    records: list[MseRecord]
    truths: list[dict] = field(default_factory=list)

    def mse_p_by_truth(self, n: int) -> np.ndarray:
        recs = sorted((r for r in self.records if r.n == n), key=lambda r: r.truth_index)
        return np.array([r.mse_p for r in recs])


def mse_experiment(
    q: QMatrix,
    truth_sampler,
    n_truths: int,
    n_grid,
    replications: int,
    seed: int = 0,
    restarts: int = 4,
    model: str = "dina",
    tol: float = 1e-7,
    max_iter: int = 600,
) -> MseReport:
    """Estimate mean squared errors across truths and sample sizes.

    ``truth_sampler(rng)`` returns ``(DinaParams, p)``.  For every sampled
    truth and every n in the grid, ``replications`` datasets are simulated
    and fit by multistart EM, all fits batched together; the estimate is aligned
    to the truth over attribute permutations and squared errors are averaged
    per component.  Each cell also counts the replications whose fit hit
    ``max_iter``.  The run settings and the model, DINA or DINO, are checked
    before any truth is drawn.
    """
    _check_run(tol, max_iter, restarts)
    if model not in ("dina", "dino"):
        raise QidentError(f"model must be 'dina' or 'dino', got {model!r}")
    root = np.random.SeedSequence(seed)
    sampler_rng = np.random.default_rng(root.spawn(1)[0])
    report = MseReport(records=[])
    if replications <= 0 or n_truths <= 0:
        return report
    cells, datasets, seeds = [], [], []
    for idx in range(n_truths):
        params, p = truth_sampler(sampler_rng)
        truth = {"s": params.s, "g": params.g, "p": np.asarray(p, float)}
        report.truths.append(truth)
        for n in n_grid:
            cells.append((idx, int(n), truth))
            for rep in range(replications):
                stream = np.random.default_rng((seed, idx, int(n), rep))
                data = simulate(model, q, params, truth["p"], int(n), seed=stream)
                datasets.append(data)
                seeds.append(int(stream.integers(2**31)))
    masks = np.broadcast_to(q.row_masks, (len(datasets), q.n_items))
    fits = _multistart(model, masks, q.n_attributes, datasets, seeds, restarts, tol, max_iter)
    for idx, n, truth in cells:
        errs = np.zeros(3)
        unconverged = 0
        for rep in range(replications):
            fit = next(fits)
            _, p_aligned, _ = align_to_truth(fit, truth, q.n_attributes)
            errs[0] += float(np.mean((fit.s - truth["s"]) ** 2))
            errs[1] += float(np.mean((fit.g - truth["g"]) ** 2))
            errs[2] += float(np.mean((p_aligned - truth["p"]) ** 2))
            unconverged += not fit.converged
        mse_s, mse_g, mse_p = (float(v) for v in errs / replications)
        report.records.append(MseRecord(idx, n, mse_s, mse_g, mse_p, unconverged))
    return report

