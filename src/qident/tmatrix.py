"""Marginal positive-response matrices and rank diagnostics.

The T-matrix of a model has shape 2^J x 2^K with entry

    T[r, a] = prod over items j with bit j of r set of theta[j, a],

the probability that a subject of pattern ``a`` answers every item of the
set ``r`` positively.  ``T @ p`` therefore stacks the survival probabilities
P(R >= r).  The parameter-shift transform maps T built from ``theta`` to T
built from ``theta - theta_star`` through an explicit unitriangular matrix,
which is the main tool behind the identifiability arguments; here it is
constructed from inclusion-exclusion and checked numerically.  One doubling
kernel fills every 2^J product table: T columns, the survival vector and
the exact distribution of ``rlcm.response_distribution``.
"""

from __future__ import annotations

import numpy as np

from .errors import NoPartition, TooLarge

__all__ = [
    "build_t",
    "tp_vector",
    "shift_t",
    "shift_matrix",
    "rank",
    "identifiable_subset_check",
]

_MAX_T_J = 20
_MAX_D_J = 12
_RANK_TOL = 1e-10


def _product_table(out: np.ndarray, hi, lo=None, weight=1.0) -> np.ndarray:
    """Fill the length-2^J buffer ``out`` with

        out[r] = weight * prod over items j of (hi[j] if bit j of r else lo[j])

    by successive doubling and return it.  ``lo=None`` stands for ones (the
    T-matrix), which leaves one multiply per doubling step.
    """
    out[0] = weight
    size = 1
    for j in range(len(hi)):
        out[size : 2 * size] = out[:size] * hi[j]
        if lo is not None:
            out[:size] *= lo[j]
        size *= 2
    return out


def build_t(theta: np.ndarray) -> np.ndarray:
    """Dense 2^J x 2^K T-matrix from a response-probability table."""
    J, n_alpha = theta.shape
    if J > _MAX_T_J:
        raise TooLarge(f"dense T-matrix guarded to J <= {_MAX_T_J}")
    t = np.empty((1 << J, n_alpha))
    for a in range(n_alpha):
        _product_table(t[:, a], theta[:, a])
    return t


def tp_vector(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The vector T @ p of survival probabilities, without materializing T."""
    J = theta.shape[0]
    if J > _MAX_T_J:
        raise TooLarge(f"survival vector guarded to J <= {_MAX_T_J}")
    out = np.zeros(1 << J)
    buf = np.empty(1 << J)
    for a in np.flatnonzero(p):
        out += _product_table(buf, theta[:, a], weight=p[a])
    return out


def shift_matrix(theta_star: np.ndarray) -> np.ndarray:
    """Explicit transform D with D @ T(theta) == T(theta - theta_star).

    D[r, s] = prod over j in r \\ s of (-theta_star[j]) for s a subset of r,
    zero otherwise.  D is unitriangular in the subset order, so det D = 1.
    """
    J = len(theta_star)
    if J > _MAX_D_J:
        raise TooLarge(f"dense shift matrix guarded to J <= {_MAX_D_J}")
    d = np.zeros((1 << J, 1 << J))
    for r in range(1 << J):
        s = r
        while True:
            extra = r & ~s
            val = 1.0
            j = 0
            while extra >> j:
                if extra >> j & 1:
                    val *= -theta_star[j]
                j += 1
            d[r, s] = val
            if s == 0:
                break
            s = (s - 1) & r
    return d


def shift_t(theta: np.ndarray, theta_star: np.ndarray) -> np.ndarray:
    """T built from the shifted table theta - theta_star (per item)."""
    return build_t(theta - np.asarray(theta_star, float)[:, None])


def rank(matrix: np.ndarray, tol: float = _RANK_TOL) -> int:
    """Numerical rank by Gaussian elimination with partial pivoting.

    A pivot counts when its magnitude exceeds ``tol`` times the largest
    pivot encountered, so the tolerance is relative.
    """
    m = np.array(matrix, dtype=float)
    rows, cols = m.shape
    r = 0
    first_pivot = None
    for c in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(np.abs(m[r:, c])))
        val = abs(m[piv, c])
        if first_pivot is None:
            threshold = 0.0 if val == 0 else tol * val
        else:
            threshold = tol * first_pivot
        if val <= threshold or val == 0.0:
            continue
        if first_pivot is None:
            first_pivot = val
        m[[r, piv]] = m[[piv, r]]
        m[r + 1 :] -= np.outer(m[r + 1 :, c] / m[r, c], m[r])
        r += 1
    return r


def identifiable_subset_check(
    theta: np.ndarray,
    p: np.ndarray,
    partition,
    tol: float = _RANK_TOL,
) -> bool:
    """Numeric check of the identifiable-subset constraints for a two-block
    partition: both block T-matrices are nonsingular and the leftover block's
    T-matrix, column-scaled by p, has pairwise-distinct columns.

    ``partition`` is ``(rows1, rows2, rest)`` as returned by the condition
    D/E search.
    """
    if partition is None:
        raise NoPartition("no block partition available; run the condition D/E check")
    rows1, rows2, rest = partition
    n_alpha = theta.shape[1]
    for rows in (rows1, rows2):
        t_block = build_t(theta[list(rows)])
        if t_block.shape[0] != n_alpha:
            # K-item block gives a 2^K x 2^K matrix; anything else is malformed
            raise NoPartition("block size does not match the attribute count")
        if rank(t_block, tol) < n_alpha:
            return False
    if rest:
        scaled = build_t(theta[list(rest)]) * p[None, :]
        for a in range(n_alpha):
            for b in range(a + 1, n_alpha):
                if np.max(np.abs(scaled[:, a] - scaled[:, b])) <= tol:
                    return False
    return True
