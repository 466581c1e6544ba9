"""Marginal positive-response matrices.

The T-matrix of a model has shape 2^J x 2^K with entry

    T[r, a] = prod over items j with bit j of r set of theta[j, a],

the probability that a subject of pattern ``a`` answers every item of the
set ``r`` positively.  ``T @ p`` therefore stacks the survival probabilities
P(R >= r).  The parameter-shift transform maps T built from ``theta`` to T
built from ``theta - theta_star`` through an explicit unitriangular matrix,
which is the main tool behind the identifiability arguments; here it is
built as a Kronecker product of one 2 x 2 factor per item and checked
numerically.  One kernel builds every product table for all attribute
patterns at once, one step per row of items: a row standing for d
identical items is a digit of radix d + 1 that counts its positive copies,
and a row for one item is a doubling.  The dense T is one such table.  A
weighted sum over the patterns (the survival vector, the exact
distribution of ``rlcm.response_distribution``) splits the items into a
low and a high half, builds one table per half and joins them with one
BLAS product over the patterns pooled by equal high-half columns.  The
difference of two distributions, certifying a witness, is such a product
taken in blocks of rows, in memory O(2^(J/2) * 2^K) plus one block.  It
runs over the distinct patterns only: items whose response rows are equal
in both models on the classes with mass are exchangeable, so the
probability of a pattern depends only on how many of them it answers
positively, and they make one row.
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


def _unique_columns(a: np.ndarray):
    """``np.unique(a, axis=1, return_inverse=True)`` for a 2-d array, by one
    lexsort (row 0 the first key) and a compare of adjacent columns: the
    distinct columns in lexicographic order, and each column's index among
    them.  NaN sorts last and equals nothing, as in ``np.unique``."""
    order = np.lexsort(a[::-1]) if len(a) else np.arange(a.shape[1])
    ordered = a[:, order]
    new = np.ones(a.shape[1], bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=new[1:])
    inverse = np.empty(a.shape[1], np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[:, new], inverse


def _product_table(out: np.ndarray, hi, lo, copies, weight=1.0) -> np.ndarray:
    """Fill the buffer ``out`` with the product table of rows j that each
    stand for ``copies[j]`` items with the same (hi[j], lo[j]), and return
    it.  Index r counts the positive copies c_j of row j in the mixed radix
    copies[j] + 1 (row 0 the lowest digit), and

        out[r] = weight * prod over rows j of hi[j]^c_j * lo[j]^(copies[j] - c_j),

    built one copy at a time: copy k + 1 of row j appends digit k + 1 as
    digit k times hi[j] and multiplies digits 0..k by lo[j].  With one copy
    per row this is a doubling per item, r's bit j the response to item j.
    A 2-d buffer holds one column per attribute pattern, with ``hi`` and
    ``lo`` of shape (rows, 2^K).
    """
    out[0] = weight
    size = 1
    for j, d in enumerate(copies):
        for k in range(d):
            out[(k + 1) * size : (k + 2) * size] = out[k * size : (k + 1) * size] * hi[j]
            out[: (k + 1) * size] *= lo[j]
        size *= d + 1
    return out


def _half_tables(hi: np.ndarray, lo: np.ndarray, weight: np.ndarray, copies):
    """High half table H (high patterns x m) and weighted low half table L
    (m x low patterns) of the rows (hi, lo) with their ``copies``, H @ L the
    weighted product table: zero weights drop out, and patterns with equal
    high-half columns of (hi, lo) share a column of H, summing in order."""
    radix = np.add(copies, 1)
    count = np.cumprod(radix)
    # the low half: the most leading rows whose pattern count is at most the
    # square root of the whole (h = J // 2 with one copy per row)
    h, keep = np.count_nonzero(count * count <= np.prod(radix)), weight != 0
    cols, pool = _unique_columns(np.vstack([hi[h:, keep], lo[h:, keep]]))
    low = _product_table(np.empty((np.prod(radix[:h]), keep.sum())),
                         hi[:h, keep], lo[:h, keep], copies[:h], weight[keep])
    high = _product_table(np.empty((np.prod(radix[h:]), cols.shape[1])),
                          *np.split(cols, 2), copies[h:])
    pooled = np.zeros((cols.shape[1], len(low)))
    for a, c in enumerate(pool):
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
    copies = np.ones(len(hi), int)
    return np.matmul(*_half_tables(hi, lo, weight, copies), out=out).reshape(-1)


def _max_abs_difference(theta_a, p_a, theta_b, p_b) -> float:
    """max |P_a - P_b| over the 2^J patterns, taken over the distinct ones.
    Both models' classes pool with weights (p_a, -p_b), interleaved so that
    equal models cancel exactly.  Items whose interleaved rows agree on the
    classes with nonzero weight are exchangeable: P depends only on how many
    of them answer positively, so each such group is one row of the product
    table with its copy count, in the order of its first item.  H @ L runs
    in blocks of rows into one buffer of ``_BLOCK`` entries.  A block's
    max |x| is max(max x, -min x), and NaN propagates to the result."""
    hi = np.stack([theta_a, theta_b], axis=-1).reshape(len(theta_a), -1)
    weight = np.stack([p_a, -p_b], axis=-1).reshape(-1)
    _, group = _unique_columns(hi[:, weight != 0].T)
    _, first, copies = np.unique(group, return_index=True, return_counts=True)
    order = np.argsort(first)
    hi = hi[first[order]]
    high, low = _half_tables(hi, 1.0 - hi, weight, copies[order])
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
    J = len(theta)
    return _product_table(np.empty((1 << J, theta.shape[1])), theta, np.ones_like(theta),
                          np.ones(J, int))


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
