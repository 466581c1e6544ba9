import itertools

import numpy as np
import pytest

from qident import DinaParams, QMatrix, full_distribution, gamma_matrix
from qident.rlcm import theta_table
from qident.witness import q24_constraint_gap

ACCEPTANCE_LOG = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    ACCEPTANCE_LOG.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def as_qmatrices(masks, n_attributes: int) -> list[QMatrix]:
    """Each design of an (N, J) array of row masks, such as
    ``enumerate_canonical`` returns, as a ``QMatrix``."""
    return [QMatrix((m[:, None] >> np.arange(n_attributes)) & 1) for m in masks]


def brute_force_generic_complete(q: QMatrix) -> bool:
    """Oracle: exhaustive row-subset x column-permutation search for an
    all-ones diagonal.  Exponential; keep K <= 5, J <= 8."""
    J, K = q.n_items, q.n_attributes
    if J < K:
        return False
    entries = q.entries
    for rows in itertools.combinations(range(J), K):
        for perm in itertools.permutations(range(K)):
            if all(entries[rows[i], perm[i]] for i in range(K)):
                return True
    return False


def random_q(rng, n_items, n_attributes, ensure_nonzero_rows=False):
    while True:
        entries = (rng.random((n_items, n_attributes)) < 0.5).astype(int)
        if not ensure_nonzero_rows or entries.sum(axis=1).min() > 0:
            return QMatrix(entries)


def dina_jacobian(q: QMatrix, params: DinaParams, p) -> np.ndarray:
    """Analytic Jacobian of the 2^J DINA response distribution.

    Columns are the free parameters (s_1..s_J, g_1..g_J, p_0..p_{2^K-2});
    the last proportion is 1 minus the others.  Rows are response patterns,
    bit j = item j+1, as in ``full_distribution``.
    """
    p = np.asarray(p, float)
    theta = theta_table("dina", q, params)
    gamma = gamma_matrix(q).astype(float)
    J = q.n_items
    bits = (np.arange(1 << J)[:, None] >> np.arange(J)) & 1
    positive = (bits == 1)[:, :, None]
    # f[r, a] = P(response r | attribute pattern a)
    f = np.prod(np.where(positive, theta, 1.0 - theta), axis=1)
    # d pi(r) / d theta[j, a] = p_a f[r, a] (r_j / theta - (1 - r_j) / (1 - theta))
    d_theta = p * f[:, None, :] * np.where(positive, 1.0 / theta, -1.0 / (1.0 - theta))
    d_s = -(d_theta * gamma).sum(axis=2)
    d_g = (d_theta * (1.0 - gamma)).sum(axis=2)
    d_p = f[:, :-1] - f[:, -1:]
    return np.hstack([d_s, d_g, d_p])


def dina_information(q: QMatrix, params: DinaParams, p) -> np.ndarray:
    """Per-subject Fisher information over the free DINA parameters."""
    jac = dina_jacobian(q, params, p)
    pi = full_distribution("dina", q, params, p)
    return jac.T @ (jac / pi[:, None])


def gap_z_score(q: QMatrix, params: DinaParams, p, n: int) -> float:
    """Constraint gap of a two-attribute truth in standard errors at size n.

    The gap p(01)p(10) - p(00)p(11) is zero exactly on the surface where the
    paired 4x2 design loses identifiability.  Its standard error at n
    subjects comes from the delta method on the inverse information, so the
    score is the Wald statistic for "the truth lies on the surface": a small
    score means n responses cannot tell the truth from a surface point.
    """
    gap = q24_constraint_gap(p)
    p = np.asarray(p, float)
    # gradient of p_1 p_2 - p_0 p_3 over the free p_0..p_2 (p_3 = 1 - the rest)
    grad = np.zeros(2 * q.n_items + 3)
    grad[-3:] = [p[0] - p[3], p[0] + p[2], p[0] + p[1]]
    info = dina_information(q, params, p)
    var = float(grad @ np.linalg.pinv(info, hermitian=True) @ grad)
    return float(gap * np.sqrt(n / var)) if var > 0 else 0.0


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties (criterion 6's
    statistic)."""

    def ranks(v):
        # a tie group ending at rank `last` of `count` values averages
        # last - (count - 1) / 2
        _, group, count = np.unique(np.asarray(v, float), return_inverse=True, return_counts=True)
        return (np.cumsum(count) - (count - 1) / 2.0)[group]

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx**2).sum() * (ry**2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0
