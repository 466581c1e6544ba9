"""Reference designs used by the test-suite, the demos, and the CLI docs.

Names describe the structure of each matrix, not its provenance: e.g.
``Q5X2_DOUBLE_IDENTITY`` stacks two 2 x 2 identities plus one all-ones row.
The 20-item designs come in families: a truth matrix together with one or
two alternatives that witness its non-identifiability.
"""

from __future__ import annotations

import itertools

import numpy as np

from .qmatrix import QMatrix, _cells

__all__ = [
    "Q4X2_PAIRED",
    "Q4X2_PAIR_WITH_FULL_ROW",
    "Q5X2_DOUBLE_IDENTITY",
    "Q5X2_SINGLE_IDENTITY",
    "Q5X2_PAIRED_PLUS_ONE",
    "Q5X2_LONELY_ATTRIBUTE",
    "Q3X2_ALL_ONES",
    "Q12X8_WIDE_STRICT",
    "incomplete_20x3_family",
    "incomplete_20x5_family",
    "two_item_20x3_pair",
    "two_item_20x5_pair",
    "equal_effects_theta",
]

# Two items per attribute: generically but not strictly identifiable (K = 2).
Q4X2_PAIRED = QMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])

# A unit row plus an all-ones row on attribute 1: not even locally generic.
Q4X2_PAIR_WITH_FULL_ROW = QMatrix.from_rows([[1, 0], [0, 1], [1, 1], [0, 1]])

# Strict 5 x 2 designs: two identity blocks, or one identity plus two all-ones.
Q5X2_DOUBLE_IDENTITY = QMatrix.from_rows([[0, 1], [1, 1], [1, 0], [1, 0], [0, 1]])
Q5X2_SINGLE_IDENTITY = QMatrix.from_rows([[0, 1], [1, 1], [1, 1], [1, 0], [0, 1]])

# Attribute 1 on exactly two unit rows, attribute 2 on three: generic only.
Q5X2_PAIRED_PLUS_ONE = QMatrix.from_rows([[0, 1], [1, 0], [1, 0], [0, 1], [0, 1]])

# Attribute 1 required by a single item: never generically identifiable.
Q5X2_LONELY_ATTRIBUTE = QMatrix.from_rows([[0, 1], [0, 1], [0, 1], [1, 0], [0, 1]])

# Saturated 3 x 2 design: too few rows for the two-block conditions.
Q3X2_ALL_ONES = QMatrix.from_rows([[1, 1], [1, 1], [1, 1]])

# Identity on 8 attributes plus 4 distinct-column rows: strict with J = K + 4.
Q12X8_WIDE_STRICT = QMatrix(
    np.vstack(
        [
            np.eye(8, dtype=int),
            [
                [0, 0, 1, 1, 1, 0, 1, 1],
                [0, 1, 0, 1, 0, 1, 1, 1],
                [1, 0, 0, 0, 1, 1, 1, 1],
                [1, 1, 1, 1, 1, 1, 0, 1],
            ],
        ]
    )
)


def incomplete_20x3_family() -> tuple[QMatrix, QMatrix, QMatrix]:
    """20 x 3 truth lacking the third unit row, plus two alternatives that
    replace its all-ones rows by progressively smaller rows."""

    def build(special):
        rows = [[1, 0, 0], [0, 1, 0], special]
        for _ in range(5):
            rows += [[1, 0, 0], [1, 1, 0], special]
        rows += [[1, 1, 1], [1, 1, 1]]
        return QMatrix.from_rows(rows)

    return build([1, 1, 1]), build([0, 1, 1]), build([0, 0, 1])


def incomplete_20x5_family() -> tuple[QMatrix, QMatrix, QMatrix]:
    """20 x 5 truth lacking the fifth unit row, plus two alternatives."""

    def build(special):
        units = np.eye(5, dtype=int)[:4].tolist()
        staircase = [[int(k <= i) for k in range(5)] for i in range(4)]
        rows = units + [special] + staircase + [special] + 2 * (staircase + [[1, 1, 1, 1, 1]])
        return QMatrix.from_rows(rows)

    return build([1, 1, 1, 1, 1]), build([0, 0, 1, 1, 1]), build([0, 0, 0, 0, 1])


def two_item_20x3_pair() -> tuple[QMatrix, QMatrix]:
    """20 x 3 design with attribute 1 on exactly items 1-2, and the
    alternative design promoting those two rows to all-ones."""

    def build(top):
        rows = [list(r) for r in top]
        for _ in range(6):
            rows += [[0, 1, 0], [0, 0, 1], [0, 1, 1]]
        return QMatrix.from_rows(rows)

    return (
        build([[1, 1, 0], [1, 0, 1]]),
        build([[1, 1, 1], [1, 1, 1]]),
    )


def two_item_20x5_pair() -> tuple[QMatrix, QMatrix]:
    """20 x 5 design with attribute 1 on exactly items 1-2, plus the
    all-ones-promoted alternative."""

    def build(top):
        units = np.eye(5, dtype=int)[1:].tolist()
        pairs = [[int(k in c) for k in range(5)] for c in itertools.combinations(range(1, 5), 2)]
        return QMatrix.from_rows([list(r) for r in top] + units * 3 + pairs)

    return (
        build([[1, 1, 0, 0, 0], [1, 0, 1, 0, 0]]),
        build([[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]]),
    )


def equal_effects_theta(q: QMatrix) -> np.ndarray:
    """Saturated response table with equal main and interaction effects.

    Every item responds at 0.2 with none of its required attributes and at
    0.8 with all of them; each of the 2^m - 1 effect coefficients of an
    m-attribute item is equal, so

        theta[j, a] = 0.2 + (0.8 - 0.2) * (2^overlap - 1) / (2^m - 1).
    """
    K = q.n_attributes
    overlap = (_cells(q.row_masks, K)[:, :, None] >> np.arange(K) & 1).sum(axis=2)
    m = overlap[:, -1:]  # the all-ones pattern holds every required attribute
    return 0.2 + (0.8 - 0.2) * (np.exp2(overlap) - 1.0) / np.maximum(np.exp2(m) - 1.0, 1.0)
