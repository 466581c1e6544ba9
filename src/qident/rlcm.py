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

from .errors import (
    DimensionMismatch,
    IllegalCoefficient,
    TooLarge,
)
from .qmatrix import QMatrix, gamma_matrix
from .tmatrix import _product_table

__all__ = [
    "Proportions",
    "DinaParams",
    "GdinaParams",
    "Dataset",
    "RlcmModel",
    "dina_theta_table",
    "dino_theta_table",
    "theta_table",
    "monotonicity_violation",
    "stringent_violation",
    "monotonicity_ok",
    "stringent_ok",
    "beta_to_theta",
    "theta_to_beta",
    "response_distribution",
    "full_distribution",
    "pmf",
    "simulate",
    "pattern_string",
]

_MAX_FULL_J = 24


def pattern_string(mask: int, width: int) -> str:
    """Render a pattern mask as a 0/1 string, first coordinate first."""
    return "".join(str(mask >> k & 1) for k in range(width))


@dataclass(frozen=True)
class Proportions:
    """Population proportions over the 2^K attribute patterns.

    Entries must be positive in the strict setting; witness constructions
    produce zeros, which are admitted with ``allow_zero=True``.
    """

    p: np.ndarray
    allow_zero: bool = False

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 1 or len(arr) & (len(arr) - 1):
            raise DimensionMismatch("proportions must have length 2^K")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError(f"proportions sum to {float(arr.sum())!r}, not 1")
        if (arr < 0).any() or (not self.allow_zero and (arr <= 0).any()):
            raise ValueError("proportions must be positive (zeros only in witness models)")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def n_attributes(self) -> int:
        return int(np.log2(len(self.p)))


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
            raise DimensionMismatch("s and g must be 1-d vectors of equal length")
        if (s <= 0).any() or (s >= 1).any() or (g <= 0).any() or (g >= 1).any():
            raise ValueError("slipping and guessing must lie in (0, 1)")
        if ((1.0 - s) <= g).any():
            raise ValueError("monotonicity violated: need 1 - s > g for every item")
        s.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "g", g)

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
            raise DimensionMismatch("theta must be J x 2^K")
        if (arr <= 0).any() or (arr >= 1).any():
            raise ValueError("theta entries must lie strictly inside (0, 1)")
        arr = arr.copy()
        arr.setflags(write=False)
        self.theta = arr

    @classmethod
    def from_dina(cls, q: QMatrix, params: DinaParams) -> "GdinaParams":
        return cls(dina_theta_table(q, params))

    @property
    def n_items(self) -> int:
        return self.theta.shape[0]

    def validate_for(self, q: QMatrix, stringent: bool = False) -> None:
        if self.theta.shape != (q.n_items, 1 << q.n_attributes):
            raise DimensionMismatch("theta shape does not match the Q-matrix")
        masks = q.row_masks
        patterns = np.arange(self.theta.shape[1])
        for j in range(q.n_items):
            reduced = patterns & int(masks[j])
            # equality: theta depends on a only through a & mask
            if not np.allclose(self.theta[j], self.theta[j, reduced], atol=0, rtol=0):
                raise ValueError(f"item {j + 1}: theta varies with non-required attributes")
        if not monotonicity_ok(self.theta, q):
            raise ValueError("theta violates monotonicity")
        if stringent and not stringent_ok(self.theta, q):
            raise ValueError("theta violates the stringent monotonicity order")


def dina_theta_table(q: QMatrix, params: DinaParams) -> np.ndarray:
    return theta_table("dina", q, params)


def dino_theta_table(q: QMatrix, params: DinaParams) -> np.ndarray:
    return theta_table("dino", q, params)


def theta_table(model: str, q: QMatrix, params) -> np.ndarray:
    """Uniform entry point: the J x 2^K response-probability table.

    The two-parameter models answer 1 - s where ``gamma_matrix`` marks the
    subject capable and g elsewhere.
    """
    if model == "gdina":
        theta = params.theta if isinstance(params, GdinaParams) else np.asarray(params, float)
        if theta.shape != (q.n_items, 1 << q.n_attributes):
            raise DimensionMismatch("theta shape does not match the Q-matrix")
        return theta
    gate = gamma_matrix(q, model)
    if params.n_items != q.n_items:
        raise DimensionMismatch("parameter length does not match item count")
    return np.where(gate, params.c[:, None], params.g[:, None])


def monotonicity_violation(theta: np.ndarray, q: QMatrix) -> float:
    """Largest excess of a non-covering over a covering pattern's response
    probability, over the items with a nonzero row; -inf when there is none.

    Negative means covering patterns answer strictly better, zero is a tie.
    """
    covers = gamma_matrix(q).astype(bool)
    rows = q.row_masks != 0
    if not rows.any():
        return -np.inf
    worst_non = np.where(covers, -np.inf, theta)[rows].max(axis=1)
    best_cap = np.where(covers, theta, np.inf)[rows].min(axis=1)
    return float((worst_non - best_cap).max())


def stringent_violation(theta: np.ndarray, q: QMatrix) -> float:
    """Largest excess of theta[j, b] over theta[j, a] for patterns a > b in
    the strict order of subsets of item j's required attributes; -inf when
    no item requires an attribute.

    Negative means strict increase along the order, zero is a tie.
    """
    pats = np.arange(theta.shape[1], dtype=np.int64)
    below = (pats[:, None] & pats[None, :]) == pats[None, :]  # below[a, b]: b within a
    np.fill_diagonal(below, False)
    inside = (pats[None, :] & ~q.row_masks[:, None]) == 0  # pattern within item j's row
    pairs = below[None] & inside[:, :, None] & inside[:, None, :]
    if not pairs.any():
        return -np.inf
    return float((theta[:, None, :] - theta[:, :, None])[pairs].max())


def monotonicity_ok(theta: np.ndarray, q: QMatrix) -> bool:
    """Covering patterns must answer strictly better than non-covering ones."""
    return monotonicity_violation(theta, q) < 0


def stringent_ok(theta: np.ndarray, q: QMatrix) -> bool:
    """Strict increase along the partial order of required-attribute subsets."""
    return stringent_violation(theta, q) < 0


def beta_to_theta(betas: list[dict], q: QMatrix) -> GdinaParams:
    """Build the theta table from per-item effect coefficients.

    ``betas[j]`` maps an attribute-subset mask to its coefficient; a nonzero
    coefficient is legal only when the item requires every attribute of the
    subset.  theta[j, a] sums the coefficients of all subsets contained in
    the pattern restricted to the item's requirements.
    """
    if len(betas) != q.n_items:
        raise DimensionMismatch("need one coefficient map per item")
    K = q.n_attributes
    n = 1 << K
    patterns = np.arange(n)
    theta = np.zeros((q.n_items, n))
    for j, beta in enumerate(betas):
        mask = int(q.row_masks[j])
        for subset, coef in beta.items():
            subset = int(subset)
            if coef != 0 and (subset & mask) != subset:
                raise IllegalCoefficient(
                    f"item {j + 1}: coefficient on subset {subset:b} not supported by the row"
                )
            theta[j, (patterns & subset) == subset] += coef
    return GdinaParams(theta)


def theta_to_beta(params: GdinaParams | np.ndarray, q: QMatrix) -> list[dict]:
    """Invert the effect decomposition by subset-lattice inclusion-exclusion."""
    theta = params.theta if isinstance(params, GdinaParams) else np.asarray(params, float)
    out = []
    for j in range(q.n_items):
        mask = int(q.row_masks[j])
        beta = {}
        subset = mask
        subsets = []
        while True:
            subsets.append(subset)
            if subset == 0:
                break
            subset = (subset - 1) & mask
        for s in subsets:
            total = 0.0
            t = s
            while True:
                sign = -1.0 if bin(s ^ t).count("1") % 2 else 1.0
                total += sign * theta[j, t]
                if t == 0:
                    break
                t = (t - 1) & s
            beta[s] = total
        out.append(beta)
    return out


def response_distribution(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact length-2^J distribution of the response pattern (bit j of the
    index is the response to item j+1): the product table of theta or
    1 - theta per item, weighted by p and summed over attribute patterns."""
    J = theta.shape[0]
    if J > _MAX_FULL_J:
        raise TooLarge(f"full distribution guarded to J <= {_MAX_FULL_J}")
    out = np.zeros(1 << J)
    buf = np.empty(1 << J)
    miss = 1.0 - theta
    for a in np.flatnonzero(p):
        out += _product_table(buf, theta[:, a], miss[:, a], p[a])
    return out


def full_distribution(model: str, q: QMatrix, params, p: Proportions | np.ndarray) -> np.ndarray:
    pvec = p.p if isinstance(p, Proportions) else np.asarray(p, float)
    return response_distribution(theta_table(model, q, params), pvec)


def pmf(model: str, q: QMatrix, params, p: Proportions | np.ndarray, r: int) -> float:
    """Probability of one response pattern (bit j = item j+1), row by row:
    an independent reference for ``response_distribution``."""
    theta = theta_table(model, q, params)
    pvec = p.p if isinstance(p, Proportions) else np.asarray(p, float)
    hits = np.array([r >> j & 1 for j in range(theta.shape[0])], dtype=bool)
    factors = np.where(hits[:, None], theta, 1.0 - theta)
    keep = pvec != 0.0
    return float(np.sum(pvec[keep] * np.prod(factors[:, keep], axis=0)))


@dataclass(frozen=True)
class Dataset:
    """Observed response patterns, each listed once, with multiplicities."""

    n_items: int
    patterns: np.ndarray  # unique pattern masks, int64
    counts: np.ndarray  # multiplicities, int64

    def __post_init__(self):
        patterns = np.asarray(self.patterns, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if patterns.shape != counts.shape or patterns.ndim != 1:
            raise DimensionMismatch("patterns and counts must be equal-length vectors")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if len(patterns) and ((patterns < 0).any() or (patterns >= (1 << self.n_items)).any()):
            raise ValueError("pattern mask out of range for the item count")
        if len(np.unique(patterns)) != len(patterns):
            raise ValueError("pattern masks must be distinct")
        patterns.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_pattern_list(cls, n_items: int, raw_patterns) -> "Dataset":
        patterns, counts = np.unique(np.asarray(raw_patterns, dtype=np.int64), return_counts=True)
        return cls(n_items, patterns, counts)

    @classmethod
    def from_matrix(cls, responses) -> "Dataset":
        """Build from an N x J binary response matrix."""
        arr = np.asarray(responses, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionMismatch("response matrix must be 2-d")
        masks = (arr << np.arange(arr.shape[1], dtype=np.int64)).sum(axis=1)
        return cls.from_pattern_list(arr.shape[1], masks)

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
    pvec = p.p if isinstance(p, Proportions) else np.asarray(p, float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if n == 0:
        return Dataset(q.n_items, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    alphas = rng.choice(len(pvec), size=n, p=pvec)
    masks = np.zeros(n, dtype=np.int64)
    for j in range(q.n_items):
        hits = rng.random(n) < theta[j, alphas]
        masks |= hits.astype(np.int64) << j
    return Dataset.from_pattern_list(q.n_items, masks)


@dataclass(frozen=True)
class RlcmModel:
    """A complete model specification: design, response table, proportions."""

    q: QMatrix
    theta: np.ndarray
    p: np.ndarray
    kind: str = "gdina"

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if theta.shape != (self.q.n_items, 1 << self.q.n_attributes):
            raise DimensionMismatch("theta shape does not match the design")
        if len(p) != theta.shape[1]:
            raise DimensionMismatch("proportion length does not match the design")
        theta.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "p", p)

    def distribution(self) -> np.ndarray:
        return response_distribution(self.theta, self.p)
