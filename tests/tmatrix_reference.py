"""The per-item product-table kernel that the grouped one replaced, kept as a
test oracle.

``tmatrix._max_abs_difference`` makes one row of items that are identical in
both models, with a copy count; this is the earlier kernel that doubled once
per item, split the items at J // 2 and pooled with ``np.unique``.  With no
repeated item, and for the survival vector and the distribution, which keep
one row per item, both add the same numbers in the same order, so their
results must be equal bit for bit.
"""

import numpy as np

from qident.tmatrix import _BLOCK


def product_table(out, hi, lo, weight=1.0):
    out[0] = weight
    size = 1
    for j in range(len(hi)):
        out[size : 2 * size] = out[:size] * hi[j]
        out[:size] *= lo[j]
        size *= 2
    return out


def half_tables(hi, lo, weight):
    h, keep = len(hi) // 2, weight != 0
    cols, pool = np.unique(np.vstack([hi[h:, keep], lo[h:, keep]]), axis=1, return_inverse=True)
    low = product_table(np.empty((1 << h, keep.sum())), hi[:h, keep], lo[:h, keep], weight[keep])
    high = product_table(np.empty((1 << (len(hi) - h), cols.shape[1])), *np.split(cols, 2))
    pooled = np.zeros((cols.shape[1], 1 << h))
    for a, c in enumerate(pool.reshape(-1)):
        pooled[c] += low[:, a]
    return high, pooled


def split_product(hi, lo, weight):
    """``tmatrix._split_product``: T @ p with lo = 1, the distribution with
    lo = 1 - theta."""
    h = len(hi) // 2
    out = np.empty((1 << (len(hi) - h), 1 << h))
    return np.matmul(*half_tables(hi, lo, np.asarray(weight, float)), out=out).reshape(-1)


def max_abs_difference(theta_a, p_a, theta_b, p_b):
    hi = np.stack([theta_a, theta_b], axis=-1).reshape(len(theta_a), -1)
    high, low = half_tables(hi, 1.0 - hi, np.stack([p_a, -p_b], axis=-1).reshape(-1))
    rows = max(1, _BLOCK // low.shape[1])
    buf, worst = np.empty((rows, low.shape[1])), 0.0
    for start in range(0, len(high), rows):
        block = np.matmul(high[start : start + rows], low, out=buf[: len(high) - start])
        worst = np.maximum(worst, np.maximum(block.max(), -block.min()))
    return float(worst)
