"""Restricted latent class models over a Q-matrix.

Supports the conjunctive (DINA) and disjunctive (DINO) two-parameter models
and the saturated general model (GDINA), all through a common representation:
a J x 2^K table ``theta`` of positive-response probabilities with
``theta[j, a]`` = P(item j answered positively | attribute pattern a).

Encoding is little-endian throughout: attribute pattern ``a`` has bit k set
iff attribute k+1 is mastered, and a response pattern has bit j set iff item
j+1 was answered positively.  The proportion vector ``p`` is indexed by
attribute-pattern masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QidentError, TooLarge, WrongShape
from .qmatrix import QMatrix, _cells, gamma_matrix
from .tmatrix import _split_product

__all__ = [
    "DinaParams",
    "GdinaParams",
    "Dataset",
    "RlcmModel",
    "theta_table",
    "monotonicity_ok",
    "response_distribution",
    "full_distribution",
    "pmf",
    "simulate",
]

_MAX_FULL_J = 24


def _freeze(obj, **arrays) -> None:
    """Set a read-only copy of each array on ``obj`` under its keyword, past
    a frozen dataclass's guard; the caller's array stays writable."""
    for name, arr in arrays.items():
        object.__setattr__(obj, name, arr.copy())
        getattr(obj, name).setflags(write=False)


@dataclass(frozen=True)
class DinaParams:
    """Per-item slipping and guessing parameters for the two-parameter models.

    Monotonicity requires 1 - s > g elementwise.
    """

    s: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if s.shape != g.shape or s.ndim != 1:
            raise WrongShape("s and g must be 1-d vectors of equal length")
        if not ((0 < s) & (s < 1) & (0 < g) & (g < 1)).all():
            raise ValueError("slipping and guessing must lie in (0, 1)")
        if ((1.0 - s) <= g).any():
            raise ValueError("monotonicity violated: need 1 - s > g for every item")
        _freeze(self, s=s, g=g)

    @property
    def c(self) -> np.ndarray:
        """Positive-response probability of capable subjects, 1 - s."""
        return 1.0 - self.s

    @property
    def n_items(self) -> int:
        return len(self.s)


class GdinaParams:
    """Saturated item-parameter table theta of shape (J, 2^K).

    The table must depend on a pattern only through the attributes the item
    requires; ``validate_for`` checks that equality constraint and the
    monotonicity between covering and non-covering patterns.
    """

    __slots__ = ("theta",)

    def __init__(self, theta):
        arr = np.asarray(theta, dtype=float)
        if arr.ndim != 2 or arr.shape[1] & (arr.shape[1] - 1):
            raise WrongShape("theta must be J x 2^K")
        if not ((0 < arr) & (arr < 1)).all():
            raise ValueError("theta entries must lie strictly inside (0, 1)")
        _freeze(self, theta=arr)

    @property
    def n_items(self) -> int:
        return self.theta.shape[0]

    def validate_for(self, q: QMatrix) -> None:
        if self.theta.shape != (q.n_items, 1 << q.n_attributes):
            raise WrongShape("theta shape does not match the Q-matrix")
        # equality: theta depends on a only through a & mask
        cells = _cells(q.row_masks, q.n_attributes)
        varies = (np.take_along_axis(self.theta, cells, 1) != self.theta).any(axis=1)
        if varies.any():
            j = int(np.argmax(varies))
            raise ValueError(f"item {j + 1}: theta varies with non-required attributes")
        if not monotonicity_ok(self.theta, q):
            raise ValueError("theta violates monotonicity")


def theta_table(model: str, q: QMatrix, params) -> np.ndarray:
    """Uniform entry point: the J x 2^K response-probability table.

    The two-parameter models answer 1 - s where ``gamma_matrix`` marks the
    subject capable and g elsewhere.  :class:`GdinaParams` must pass
    ``validate_for(q)`` (:class:`QidentError` otherwise); a raw GDINA table
    is only checked for its shape.
    """
    if model == "gdina":
        if isinstance(params, GdinaParams):
            try:
                params.validate_for(q)
            except ValueError as exc:
                raise QidentError(f"params do not fit the design: {exc}") from None
            return params.theta
        theta = np.asarray(params, float)
        if theta.shape != (q.n_items, 1 << q.n_attributes):
            raise WrongShape("theta shape does not match the Q-matrix")
        return theta
    gate = gamma_matrix(q, model)
    if params.n_items != q.n_items:
        raise WrongShape("parameter length does not match item count")
    return np.where(gate, params.c[:, None], params.g[:, None])


def _order_violations(theta: np.ndarray, masks: np.ndarray):
    """The order violations of a batch of response tables, theta (B, J, 2^K)
    on row masks (B, J), as two (B,) arrays.

    The first is the largest excess of a non-covering over a covering
    pattern's response probability, over the items with a nonzero row
    (-inf when there is none).  The second is the largest excess of
    theta[j, b] over theta[j, a] for patterns a > b in the strict order of
    subsets of item j's required attributes (-inf when no item requires an
    attribute).  Negative means strict order, zero is a tie.
    """
    pats = np.arange(theta.shape[-1], dtype=np.int64)
    cells = _cells(masks, len(pats).bit_length() - 1)
    covers = cells == masks[..., None]
    worst_non = np.where(covers, -np.inf, theta).max(axis=-1)
    mono = (worst_non - np.where(covers, theta, np.inf).min(axis=-1)).max(axis=-1)
    below = (pats[:, None] & pats[None, :]) == pats[None, :]  # below[a, b]: b within a
    np.fill_diagonal(below, False)
    inside = cells == pats  # pattern within item j's row
    pairs = below & inside[..., :, None] & inside[..., None, :]
    excess = np.where(pairs, theta[..., None, :] - theta[..., :, None], -np.inf)
    return mono, excess.reshape(len(excess), -1).max(axis=1)


def monotonicity_ok(theta: np.ndarray, q: QMatrix) -> bool:
    """Covering patterns must answer strictly better than non-covering ones."""
    return bool(_order_violations(np.asarray(theta)[None], q.row_masks[None])[0][0] < 0)


def response_distribution(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact length-2^J distribution of the response pattern (bit j of the
    index is the response to item j+1): the product table of theta or
    1 - theta per item, weighted by p and summed over attribute patterns."""
    if theta.shape[0] > _MAX_FULL_J:
        raise TooLarge(f"full distribution guarded to J <= {_MAX_FULL_J}")
    return _split_product(theta, 1.0 - theta, p)


def full_distribution(model: str, q: QMatrix, params, p: np.ndarray) -> np.ndarray:
    return response_distribution(theta_table(model, q, params), np.asarray(p, float))


def pmf(model: str, q: QMatrix, params, p: np.ndarray, r: int) -> float:
    """Probability of one response pattern (bit j = item j+1), row by row:
    an independent reference for ``response_distribution``."""
    theta = theta_table(model, q, params)
    pvec = np.asarray(p, float)
    hits = np.array([r >> j & 1 for j in range(theta.shape[0])], dtype=bool)
    factors = np.where(hits[:, None], theta, 1.0 - theta)
    keep = pvec != 0.0
    return float(np.sum(pvec[keep] * np.prod(factors[:, keep], axis=0)))


@dataclass(frozen=True)
class Dataset:
    """Observed response patterns, each listed once, with multiplicities.
    Patterns are int64 masks, so a dataset has at most 63 items."""

    n_items: int
    patterns: np.ndarray  # unique pattern masks, int64
    counts: np.ndarray  # multiplicities, int64

    def __post_init__(self):
        if self.n_items > 63:
            raise TooLarge(f"at most 63 items fit an int64 response pattern, got {self.n_items}")
        patterns = np.asarray(self.patterns, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if patterns.shape != counts.shape or patterns.ndim != 1:
            raise WrongShape("patterns and counts must be equal-length vectors")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if len(patterns) and ((patterns < 0).any() or (patterns >= (1 << self.n_items)).any()):
            raise ValueError("pattern mask out of range for the item count")
        if len(np.unique(patterns)) != len(patterns):
            raise ValueError("pattern masks must be distinct")
        _freeze(self, patterns=patterns, counts=counts)

    @classmethod
    def from_matrix(cls, responses) -> "Dataset":
        """Build from an N x J binary response matrix."""
        arr = np.asarray(responses)
        if arr.ndim != 2:
            raise WrongShape("response matrix must be 2-d")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("responses must be 0 or 1")
        masks = (arr.astype(np.int64) << np.arange(arr.shape[1], dtype=np.int64)).sum(axis=1)
        return cls(arr.shape[1], *np.unique(masks, return_counts=True))

    @property
    def n_subjects(self) -> int:
        return int(self.counts.sum())

    def to_matrix(self) -> np.ndarray:
        """Expand back to an N x J matrix (pattern order, repeated by count)."""
        rows = np.repeat(self.patterns, self.counts)
        ks = np.arange(self.n_items, dtype=np.int64)
        return ((rows[:, None] >> ks[None, :]) & 1).astype(np.int8)


def simulate(model: str, q: QMatrix, params, p, n: int, seed=None) -> Dataset:
    """Draw n i.i.d. subjects: a pattern from p, then independent item responses.

    ``seed`` may be an int or an ``np.random.Generator``; a fixed seed gives
    a bit-identical dataset.
    """
    theta = theta_table(model, q, params)
    pvec = np.asarray(p, float)
    if pvec.shape != (theta.shape[1],):
        raise WrongShape(f"p has {pvec.size} entries but the design has {theta.shape[1]} patterns")
    if n < 0:
        raise QidentError(f"the number of subjects must be nonnegative, got {n}")
    rng = np.random.default_rng(seed)
    if n == 0:
        return Dataset(q.n_items, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    alphas = rng.choice(len(pvec), size=n, p=pvec)
    masks = np.zeros(n, dtype=np.int64)
    for j in range(q.n_items):
        hits = rng.random(n) < theta[j].take(alphas)
        masks |= hits.astype(np.int64) << j
    return Dataset(q.n_items, *np.unique(masks, return_counts=True))


@dataclass(frozen=True)
class RlcmModel:
    """A complete model specification: design, response table, proportions."""

    q: QMatrix
    theta: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if theta.shape != (self.q.n_items, 1 << self.q.n_attributes):
            raise WrongShape("theta shape does not match the design")
        if len(p) != theta.shape[1]:
            raise WrongShape("proportion length does not match the design")
        if not (np.isfinite(theta).all() and np.isfinite(p).all()):
            raise ValueError("theta and p must be finite")
        _freeze(self, theta=theta, p=p)

    def distribution(self) -> np.ndarray:
        return response_distribution(self.theta, self.p)
