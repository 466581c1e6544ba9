"""Maximum-likelihood estimation and the simulation-evidence harnesses.

``em_fit`` runs expectation-maximization on a pattern-count dataset at a
fixed design matrix, with one closed-form M-step for every model: a
weighted mean per (item, cell) of the response table, the cells being
capable and not capable for the conjunctive and disjunctive models and the
restrictions a & row_mask[j] for the saturated general model.
``multistart_fit`` takes the best of several random initializations,
``exhaustive_search`` sweeps a candidate list of designs, and
``mse_experiment`` measures how estimation error decays with the sample
size.

The observed-data log-likelihood is nondecreasing across iterations (up to
a small numerical slack); tests rely on this invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyData, QidentError, TooManyAttributes
from .qmatrix import QMatrix, _bit_permutation_table, _cells, gamma_matrix
from .rlcm import (
    Dataset,
    DinaParams,
    monotonicity_violation,
    simulate,
    stringent_violation,
    theta_table,
)

__all__ = [
    "FitResult",
    "SearchEntry",
    "SearchReport",
    "MseRecord",
    "MseReport",
    "em_fit",
    "multistart_fit",
    "exhaustive_search",
    "align_to_truth",
    "mse_experiment",
    "spearman",
]

_CLAMP = 1e-4


@dataclass
class FitResult:
    """Outcome of one EM run.

    ``loglik`` is the exact observed-data log-likelihood at the returned
    parameters; ``s``/``g`` are populated for the two-parameter models only.
    Monotonicity is audited on the output, never enforced during iteration.
    """

    model: str
    loglik: float
    s: np.ndarray | None
    g: np.ndarray | None
    theta: np.ndarray
    p: np.ndarray
    iterations: int
    converged: bool
    monotonicity_violation: float
    stringent_violation: float
    loglik_path: np.ndarray

    @property
    def monotonicity_ok(self) -> bool:
        """Covering/non-covering order with ties allowed (``rlcm.monotonicity_ok``
        is strict)."""
        return self.monotonicity_violation <= 0

    @property
    def stringent_ok(self) -> bool:
        """Subset order with ties allowed, unlike the strict
        ``rlcm.stringent_ok``: a two-parameter fit gives all non-covering
        cells of an item the same value, so those cells always tie, and
        ``search --stringent`` filters on this weak order."""
        return self.stringent_violation <= 0


def _pattern_bits(patterns: np.ndarray, n_items: int) -> np.ndarray:
    ks = np.arange(n_items, dtype=np.int64)
    return ((patterns[:, None] >> ks[None, :]) & 1).astype(float)


def _random_init(model: str, q: QMatrix, rng: np.random.Generator):
    J, K = q.n_items, q.n_attributes
    p = rng.dirichlet(np.ones(1 << K))
    if model in ("dina", "dino"):
        s = rng.uniform(0.05, 0.35, size=J)
        g = rng.uniform(0.05, 0.35, size=J)
        return theta_table(model, q, DinaParams(s, g)), p
    cells = _cells(q)
    theta = np.empty(cells.shape)
    for j in range(J):
        uniq = np.unique(cells[j])
        vals = np.sort(rng.uniform(0.1, 0.9, size=len(uniq)))
        # monotone start: cells with more required attributes get larger values
        order = np.argsort([bin(int(u)).count("1") for u in uniq], kind="stable")
        theta[j, uniq[order]] = vals
        theta[j] = theta[j, cells[j]]
    return theta, p


def _flip_unit_attributes(theta, p, q):
    """Canonicalize a two-parameter fit under attribute-flip symmetry.

    When every item requiring attribute k is a unit row, negating that
    attribute's mastery label (and swapping the affected items' capable and
    guessing values) is an exact model symmetry; EM can land on either
    representative.  Pick the one where capable beats guessing, which is the
    only representative inside the monotone parameter region.
    """
    masks = q.row_masks
    for k in range(q.n_attributes):
        bit = 1 << k
        users = [j for j in range(q.n_items) if int(masks[j]) & bit]
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


def _observed_loglik(theta, p, X, w):
    log_l = X @ np.log(theta) + (1.0 - X) @ np.log(1.0 - theta)
    log_post = log_l + np.log(p)[None, :]
    m = log_post.max(axis=1, keepdims=True)
    norm = np.exp(log_post - m)
    denom = norm.sum(axis=1, keepdims=True)
    loglik = float(w @ (np.log(denom[:, 0]) + m[:, 0]))
    return loglik, norm / denom


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
    drops below ``tol`` or after ``max_iter`` sweeps.
    """
    if model not in ("dina", "dino", "gdina"):
        raise ValueError(f"unknown model {model!r}")
    if data.n_items != q.n_items:
        raise DimensionMismatch(
            f"data has {data.n_items} items but the design has {q.n_items}"
        )
    if data.n_subjects == 0:
        raise EmptyData("no observations")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X = _pattern_bits(data.patterns, q.n_items)
    w = data.counts.astype(float)
    n = w.sum()

    if init is not None:
        theta, p = np.array(init[0], float), np.array(init[1], float)
    else:
        theta, p = _random_init(model, q, rng)
    theta = np.clip(theta, _CLAMP, 1 - _CLAMP)
    p = np.clip(p, _CLAMP, None)
    p /= p.sum()

    gate = gamma_matrix(q, model).astype(bool) if model in ("dina", "dino") else None
    # the M-step pools theta[j, a] over the patterns sharing its label, so
    # (item, label) flattens into one bincount bin
    labels = _cells(q) if gate is None else gate
    bins = (labels + labels.shape[1] * np.arange(q.n_items)[:, None]).ravel()

    path = []
    loglik = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_loglik, post = _observed_loglik(theta, p, X, w)
        wpost = post * w[:, None]
        m1 = wpost.T @ X  # positive-response mass per (class, item)
        m_tot = wpost.sum(axis=0)  # mass per class

        pos = np.bincount(bins, m1.T.ravel())
        tot = np.bincount(bins, np.tile(m_tot, q.n_items))
        val = np.where(tot > 0, pos / np.maximum(tot, 1e-300), 0.5)
        theta = np.clip(val, _CLAMP, 1 - _CLAMP)[bins].reshape(labels.shape)

        p = np.clip(m_tot / n, _CLAMP / theta.shape[1], None)
        p /= p.sum()

        path.append(new_loglik)
        if np.isfinite(loglik) and abs(new_loglik - loglik) < tol:
            converged = True
            break
        loglik = new_loglik

    if model in ("dina", "dino"):
        theta, p = _flip_unit_attributes(theta, p, q)
    final_loglik, _ = _observed_loglik(theta, p, X, w)
    path.append(final_loglik)

    s = g = None
    if model in ("dina", "dino"):
        c_vec = np.empty(q.n_items)
        g_vec = np.empty(q.n_items)
        for j in range(q.n_items):
            c_vec[j] = theta[j][gate[j]].max() if gate[j].any() else theta[j, 0]
            g_vec[j] = theta[j][~gate[j]].min() if (~gate[j]).any() else theta[j, 0]
        s, g = 1.0 - c_vec, g_vec

    mono = monotonicity_violation(theta, q)
    return FitResult(
        model=model,
        loglik=final_loglik,
        s=s,
        g=g,
        theta=theta,
        p=p,
        iterations=iterations,
        converged=converged,
        monotonicity_violation=mono if mono > -np.inf else 0.0,
        stringent_violation=max(0.0, stringent_violation(theta, q)),
        loglik_path=np.array(path),
    )


def multistart_fit(
    model: str,
    q: QMatrix,
    data: Dataset,
    restarts: int = 10,
    seed=0,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> FitResult:
    """Best-of-``restarts`` EM runs by log-likelihood, deterministic in the seed."""
    best = None
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for child in seq.spawn(restarts):
        fit = em_fit(
            model, q, data, tol=tol, max_iter=max_iter,
            seed=np.random.default_rng(child),
        )
        if best is None or fit.loglik > best.loglik:
            best = fit
    return best


@dataclass
class SearchEntry:
    index: int
    q: QMatrix
    loglik: float
    stringent_ok: bool
    converged: bool
    error: str | None = None


@dataclass
class SearchReport:
    """Per-candidate results of an exhaustive design sweep."""

    model: str
    entries: list[SearchEntry]
    argmax_index: int
    gap_to_runner_up: float
    require_stringent: bool

    @property
    def argmax_q(self) -> QMatrix:
        return next(e.q for e in self.entries if e.index == self.argmax_index)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "requireStringent": self.require_stringent,
            "argmaxIndex": self.argmax_index,
            "gapToRunnerUp": self.gap_to_runner_up,
            "candidates": [
                {
                    "index": e.index,
                    "rows": ";".join(e.q.row_strings()),
                    "loglik": e.loglik,
                    "stringentOk": e.stringent_ok,
                    "converged": e.converged,
                    "error": e.error,
                }
                for e in self.entries
            ],
        }


def _fit_candidate(task):
    """One candidate of an exhaustive sweep (top level so pools can pickle it)."""
    model, idx, cand, data, restarts, seed, tol, max_iter = task
    try:
        fit = multistart_fit(
            model, cand, data, restarts=restarts,
            seed=np.random.SeedSequence([seed, idx]), tol=tol, max_iter=max_iter,
        )
        return SearchEntry(
            index=idx, q=cand, loglik=fit.loglik,
            stringent_ok=fit.stringent_ok, converged=fit.converged,
        )
    except QidentError as exc:
        return SearchEntry(
            index=idx, q=cand, loglik=-np.inf,
            stringent_ok=False, converged=False, error=str(exc),
        )


def exhaustive_search(
    model: str,
    data: Dataset,
    candidates: list[QMatrix],
    restarts: int = 10,
    require_stringent: bool = False,
    seed: int = 0,
    tol: float = 1e-7,
    max_iter: int = 1000,
    workers: int = 1,
) -> SearchReport:
    """Fit every candidate design and report which maximizes the likelihood.

    With ``require_stringent`` the argmax is taken only over candidates whose
    fitted table satisfies the strict subset order (the rest stay in the
    report but are excluded from the argmax).  A fit that raises a domain
    error (:class:`QidentError`) is recorded per candidate without aborting
    the sweep; any other exception propagates.  Exact ties break toward
    fewer ones in the design, then lexicographically.  When no candidate
    can be fit (or none is given) the sweep raises :class:`QidentError`
    quoting the first candidate's error.

    Candidate fits are independent; with ``workers > 1`` they run in a
    process pool.  Per-candidate seeds derive from (seed, index), so the
    report is identical for any worker count.
    """
    tasks = [
        (model, idx, cand, data, restarts, seed, tol, max_iter)
        for idx, cand in enumerate(candidates)
    ]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_fit_candidate, tasks, chunksize=8))
    else:
        entries = [_fit_candidate(task) for task in tasks]
    entries.sort(key=lambda e: e.index)
    eligible = [
        e for e in entries
        if e.error is None and (not require_stringent or e.stringent_ok)
    ]
    if not eligible:
        eligible = [e for e in entries if e.error is None]
    if not eligible:
        reason = entries[0].error if entries else "no candidates given"
        raise QidentError(f"no candidate design could be fit: {reason}")

    def sort_key(e: SearchEntry):
        return (-e.loglik, int(e.q.entries.sum()), e.q.entries.tobytes())

    ranked = sorted(eligible, key=sort_key)
    best = ranked[0]
    gap = float(best.loglik - ranked[1].loglik) if len(ranked) > 1 else float("inf")
    return SearchReport(
        model=model,
        entries=entries,
        argmax_index=best.index,
        gap_to_runner_up=gap,
        require_stringent=require_stringent,
    )


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
        raise TooManyAttributes("alignment guarded to K <= 10")
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

    def median_mse_p(self, n: int) -> float:
        vals = [r.mse_p for r in self.records if r.n == n]
        return float(np.median(vals)) if vals else float("nan")

    def mse_p_by_truth(self, n: int) -> np.ndarray:
        recs = sorted(
            (r for r in self.records if r.n == n), key=lambda r: r.truth_index
        )
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
    and fit by multistart EM; the estimate is aligned to the truth over
    attribute permutations and squared errors are averaged per component.
    Each cell also counts the replications whose fit hit ``max_iter``.
    """
    root = np.random.SeedSequence(seed)
    sampler_rng = np.random.default_rng(root.spawn(1)[0])
    report = MseReport(records=[])
    if replications <= 0 or n_truths <= 0:
        return report
    for idx in range(n_truths):
        params, p = truth_sampler(sampler_rng)
        p = np.asarray(p, float)
        report.truths.append({"s": params.s, "g": params.g, "p": p})
        for n in n_grid:
            errs = np.zeros(3)
            unconverged = 0
            for rep in range(replications):
                stream = np.random.default_rng((seed, idx, int(n), rep))
                data = simulate(model, q, params, p, int(n), seed=stream)
                fit = multistart_fit(
                    model, q, data, restarts=restarts,
                    seed=int(stream.integers(2**31)), tol=tol, max_iter=max_iter,
                )
                _, p_aligned, _ = align_to_truth(
                    fit, {"s": params.s, "g": params.g, "p": p}, q.n_attributes
                )
                errs[0] += float(np.mean((fit.s - params.s) ** 2))
                errs[1] += float(np.mean((fit.g - params.g) ** 2))
                errs[2] += float(np.mean((p_aligned - p) ** 2))
                unconverged += not fit.converged
            errs /= replications
            report.records.append(
                MseRecord(
                    truth_index=idx, n=int(n),
                    mse_s=float(errs[0]), mse_g=float(errs[1]), mse_p=float(errs[2]),
                    unconverged=unconverged,
                )
            )
    return report


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v), float)
        r[order] = np.arange(1, len(v) + 1)
        for val in np.unique(v):
            tied = v == val
            if tied.sum() > 1:
                r[tied] = r[tied].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx**2).sum() * (ry**2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0
