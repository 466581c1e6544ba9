"""Marginal positive-response matrices.

The T-matrix of a model has shape 2^J x 2^K with entry

    T[r, a] = prod over items j with bit j of r set of theta[j, a],

the probability that a subject of pattern ``a`` answers every item of the
set ``r`` positively.  ``T @ p`` therefore stacks the survival probabilities
P(R >= r).  The parameter-shift transform maps T built from ``theta`` to T
built from ``theta - theta_star`` through an explicit unitriangular matrix,
which is the main tool behind the identifiability arguments; here it is
built as a Kronecker product of one 2 x 2 factor per item and checked
numerically.  One doubling kernel builds every product table for all
attribute patterns at once; the dense T is one such table.  A weighted sum
over the patterns (the survival vector, the exact distribution of
``rlcm.response_distribution``) splits the items into a low and a high
half, doubles one table per half and joins them with one BLAS product
over the patterns pooled by equal high-half columns; the difference of two
distributions, certifying a witness, is such a product taken in blocks of
rows, in memory O(2^(J/2) * 2^K) plus one block.
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge, WrongShape

__all__ = [
    "build_t",
    "tp_vector",
    "shift_matrix",
]

_MAX_T_J = 20
_MAX_D_J = 12
_BLOCK = 1 << 17  # entries (1 MB of float64) of the blocked difference's buffer


def _product_table(out: np.ndarray, hi, lo, weight=1.0) -> np.ndarray:
    """Fill the buffer ``out`` of 2^J rows with

        out[r] = weight * prod over items j of (hi[j] if bit j of r else lo[j])

    by successive doubling and return it.  A 2-d buffer holds one column
    per attribute pattern, with ``hi`` and ``lo`` of shape (J, 2^K).
    """
    out[0] = weight
    size = 1
    for j in range(len(hi)):
        out[size : 2 * size] = out[:size] * hi[j]
        out[:size] *= lo[j]
        size *= 2
    return out


def _half_tables(hi: np.ndarray, lo: np.ndarray, weight: np.ndarray):
    """High half table H (2^(J-h) x m) and weighted low half table L (m x 2^h),
    H @ L the weighted product table: zero weights drop out, and patterns with
    equal high-half columns of (hi, lo) share a column of H, summing in order."""
    h, keep = len(hi) // 2, weight != 0
    cols, pool = np.unique(np.vstack([hi[h:, keep], lo[h:, keep]]), axis=1, return_inverse=True)
    low = _product_table(np.empty((1 << h, keep.sum())), hi[:h, keep], lo[:h, keep], weight[keep])
    high = _product_table(np.empty((1 << (len(hi) - h), cols.shape[1])), *np.split(cols, 2))
    pooled = np.zeros((cols.shape[1], 1 << h))
    for a, c in enumerate(pool.reshape(-1)):
        pooled[c] += low[:, a]
    return high, pooled


def _split_product(hi: np.ndarray, lo: np.ndarray, weight) -> np.ndarray:
    """Weighted product table over the 2^J response patterns r: sum over a
    of weight[a] * prod over items j of (hi[j, a] if bit j of r else
    lo[j, a]), one GEMM over the pooled half tables of :func:`_half_tables`
    (items 0..h-1 and h..J-1, h = J // 2, so r = r_high * 2^h + r_low).  The
    output is allocated first so that freeing the half tables leaves no hole
    below."""
    weight = np.asarray(weight, float)
    if hi.ndim != 2 or weight.shape != hi.shape[1:]:
        raise WrongShape(f"{weight.shape} weights for a table of shape {hi.shape}")
    h = len(hi) // 2
    out = np.empty((1 << (len(hi) - h), 1 << h))
    return np.matmul(*_half_tables(hi, lo, weight), out=out).reshape(-1)


def _max_abs_difference(theta_a, p_a, theta_b, p_b) -> float:
    """max |P_a - P_b| over the 2^J patterns: both models' classes pool with
    weights (p_a, -p_b), interleaved so that equal models cancel exactly, and
    H @ L runs in blocks of rows into one buffer of ``_BLOCK`` entries.  A
    block's max |x| is max(max x, -min x), and NaN propagates to the result."""
    hi = np.stack([theta_a, theta_b], axis=-1).reshape(len(theta_a), -1)
    high, low = _half_tables(hi, 1.0 - hi, np.stack([p_a, -p_b], axis=-1).reshape(-1))
    rows = max(1, _BLOCK // low.shape[1])
    buf, worst = np.empty((rows, low.shape[1])), 0.0
    for start in range(0, len(high), rows):
        block = np.matmul(high[start : start + rows], low, out=buf[: len(high) - start])
        worst = np.maximum(worst, np.maximum(block.max(), -block.min()))
    return float(worst)


def build_t(theta: np.ndarray) -> np.ndarray:
    """Dense 2^J x 2^K T-matrix from a response-probability table."""
    if theta.ndim != 2:
        raise WrongShape(f"theta must be a J x 2^K table, got shape {theta.shape}")
    if theta.shape[0] > _MAX_T_J:
        raise TooLarge(f"dense T-matrix guarded to J <= {_MAX_T_J}")
    return _product_table(np.empty((1 << len(theta), theta.shape[1])), theta, np.ones_like(theta))


def tp_vector(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The vector T @ p of survival probabilities, without materializing T."""
    if theta.shape[0] > _MAX_T_J:
        raise TooLarge(f"survival vector guarded to J <= {_MAX_T_J}")
    return _split_product(theta, np.ones_like(theta), p)


def shift_matrix(theta_star: np.ndarray) -> np.ndarray:
    """Explicit transform D with D @ T(theta) == T(theta - theta_star).

    D[r, s] = prod over j in r \\ s of (-theta_star[j]) for s a subset of r,
    zero otherwise.  D is unitriangular in the subset order, so det D = 1.
    """
    J = len(theta_star)
    if J > _MAX_D_J:
        raise TooLarge(f"dense shift matrix guarded to J <= {_MAX_D_J}")
    d = np.ones((1, 1))
    for t in theta_star:
        # item j's factor [[1, 0], [-t, 1]] enters as bit j, the new high bit
        d = np.block([[d, np.zeros_like(d)], [-t * d, d]])
    return d
