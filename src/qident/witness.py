"""Constructive non-identifiability witnesses.

Each construction takes a true model on a deficient design and returns an
alternative model, possibly on a different design, that induces exactly the
same distribution over all 2^J response patterns.  Every returned pair is
certified by full enumeration: the maximum absolute probability difference
must stay below ``CERT_TOL`` and the two models must genuinely differ, or
an error is raised.  There are no silent near-witnesses.

Available constructions:

* ``dina_one_item_attr``   -- an attribute required by a single item, that
                              item a unit row: trade the item's capable
                              probability against the class proportions.
* ``dina_scenario_a``      -- an attribute required by exactly two items,
                              a unit row plus an all-attributes row: move
                              the first item's guessing parameter and re-
                              solve proportions and the partner's slipping.
* ``dina_q24_two_solutions`` -- the 4 x 2 design with two attribute pairs;
                              when the attributes are independent the model
                              splits into two 2-item mixtures, each with a
                              free mixing weight.
* ``gdina_one_item_attr``  -- general model, attribute on one item: the
                              alternative design promotes that row to
                              all-ones and re-solves the proportions.
* ``gdina_two_item_attr``  -- general model, attribute on exactly two
                              items: both rows promote to all-ones, with a
                              closed-form re-solve of four parameters per
                              residual pattern.
* ``incomplete_gamma_merge`` -- conjunctive model on an incomplete design:
                              merge the proportions of patterns whose
                              ideal-response columns coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintHolds,
    InvalidFreeValues,
    NotCertified,
    NotSubsumed,
    TooLarge,
    WrongShape,
)
from .qmatrix import QMatrix, gamma_matrix, q_equivalent
from .rlcm import DinaParams, RlcmModel, dina_theta_table

__all__ = [
    "CERT_TOL",
    "DISTINCT_FLOOR",
    "WitnessPair",
    "certify",
    "q24_constraint_gap",
    "dina_one_item_attr",
    "dina_scenario_a",
    "dina_q24_two_solutions",
    "gdina_one_item_attr",
    "gdina_two_item_attr",
    "incomplete_gamma_merge",
]

CERT_TOL = 1e-12
DISTINCT_FLOOR = 1e-6
_MAX_CERT_J = 20


@dataclass
class WitnessPair:
    """Two model specifications certified to induce the same distribution."""

    truth: RlcmModel
    alternative: RlcmModel
    construction: str
    certified_max_diff: float = float("nan")
    details: dict = field(default_factory=dict)

    def is_distinct(self) -> bool:
        """The pair must differ beyond numerical noise to count as a witness."""
        if not q_equivalent(self.truth.q, self.alternative.q):
            return True
        gap = max(
            float(np.max(np.abs(self.truth.theta - self.alternative.theta))),
            float(np.max(np.abs(self.truth.p - self.alternative.p))),
        )
        return gap > DISTINCT_FLOOR


def certify(pair: WitnessPair, truth_distribution: np.ndarray | None = None) -> float:
    """Exact certification by enumerating all 2^J response patterns.

    Stores and returns the maximum absolute probability difference.  Raises
    :class:`NotCertified` when the difference exceeds ``CERT_TOL`` or the
    two models do not genuinely differ.
    """
    if pair.truth.q.n_items > _MAX_CERT_J:
        raise TooLarge(f"exact certification guarded to J <= {_MAX_CERT_J}")
    base = (
        truth_distribution
        if truth_distribution is not None
        else pair.truth.distribution()
    )
    diff = float(np.max(np.abs(base - pair.alternative.distribution())))
    pair.certified_max_diff = diff
    if diff >= CERT_TOL:
        raise NotCertified(
            f"{pair.construction}: distributions differ by {diff:.3e} (>= {CERT_TOL:.0e})"
        )
    if not pair.is_distinct():
        raise NotCertified(
            f"{pair.construction}: alternative coincides with the truth "
            f"(distinctness floor {DISTINCT_FLOOR:.0e})"
        )
    return diff


def _split_by_bit(n_patterns: int, bit: int):
    """Masks without / with the given attribute bit, aligned pairwise."""
    patterns = np.arange(n_patterns)
    low = patterns[(patterns >> bit) & 1 == 0]
    return low, low | (1 << bit)


def q24_constraint_gap(p: np.ndarray) -> float:
    """|p(01)p(10) - p(00)p(11)| for a two-attribute proportion vector.

    Zero gap means the two attributes are independent, which is exactly when
    the paired 4 x 2 design loses identifiability.
    """
    p = np.asarray(p, float)
    if len(p) != 4:
        raise WrongShape("constraint gap defined for K = 2 (length-4 p)")
    # little-endian masks: 0=(00) 1=(10) 2=(01) 3=(11), labels read (a1 a2)
    return float(abs(p[2] * p[1] - p[0] * p[3]))


def dina_one_item_attr(
    q: QMatrix, params: DinaParams, p: np.ndarray, c_bar: float
) -> WitnessPair:
    """Witness when some attribute is required by exactly one item and that
    item requires nothing else.

    The alternative keeps the design and the guessing parameter, replaces
    the item's capable probability by ``c_bar`` and rescales the proportions
    so that the two per-pattern moments of the item are preserved:

        p_bar[with attribute]    = p * (c - g) / (c_bar - g)
        p_bar[without attribute] = mass balance of the aligned pair.
    """
    p = np.asarray(p, float)
    sums = q.column_sums()
    masks = q.row_masks
    target = None
    for k in np.flatnonzero(sums == 1):
        j = int(np.flatnonzero(q.entries[:, int(k)])[0])
        if masks[j] == (1 << int(k)):
            target = (j, int(k))
            break
    if target is None:
        raise WrongShape(
            "need an attribute required by exactly one item, that item a unit row"
        )
    j, k = target
    c_j, g_j = float(params.c[j]), float(params.g[j])
    if not (g_j < c_bar < 1.0):
        raise InvalidFreeValues(f"c_bar must lie in (g, 1) = ({g_j}, 1)")
    ratio = (c_j - g_j) / (c_bar - g_j)
    low, high = _split_by_bit(len(p), k)
    p_bar = np.empty_like(p)
    p_bar[high] = p[high] * ratio
    p_bar[low] = p[low] + p[high] - p_bar[high]
    if (p_bar < -1e-15).any() or (p_bar > 1 + 1e-15).any():
        raise InvalidFreeValues("resulting proportions leave [0, 1]")
    p_bar = np.clip(p_bar, 0.0, 1.0)

    s_bar = params.s.copy()
    s_bar[j] = 1.0 - c_bar
    alt_params = DinaParams(s_bar, params.g.copy())
    pair = WitnessPair(
        truth=RlcmModel(q, dina_theta_table(q, params), p, kind="dina"),
        alternative=RlcmModel(q, dina_theta_table(q, alt_params), p_bar, kind="dina"),
        construction="DinaOneItemAttr",
        details={"item": j + 1, "attribute": k + 1, "c_bar": c_bar},
    )
    certify(pair)
    return pair


def dina_scenario_a(
    q: QMatrix, params: DinaParams, p: np.ndarray, g1_bar: float
) -> WitnessPair:
    """Witness for an attribute required by exactly two items: a unit row and
    a row requiring every attribute.

    For a freely chosen guessing value of the unit-row item, the proportions
    and the all-attributes item's capable probability re-solve in closed
    form; the result matches the truth's distribution exactly for any valid
    choice, so witnesses exist in every neighborhood of the truth.
    """
    p = np.asarray(p, float)
    sums = q.column_sums()
    masks = q.row_masks
    full = (1 << q.n_attributes) - 1
    target = None
    for k in np.flatnonzero(sums == 2):
        items = [int(j) for j in np.flatnonzero(q.entries[:, int(k)])]
        units = [j for j in items if masks[j] == (1 << int(k))]
        fulls = [j for j in items if masks[j] == full]
        if units and fulls and units[0] != fulls[0]:
            target = (int(k), units[0], fulls[0])
            break
    if target is None:
        raise WrongShape(
            "need an attribute on exactly two items: a unit row and an all-ones row"
        )
    k, j1, j2 = target
    c1, g1 = float(params.c[j1]), float(params.g[j1])
    c2, g2 = float(params.c[j2]), float(params.g[j2])
    if not (0.0 < g1_bar < c1):
        raise InvalidFreeValues(f"g1_bar must lie in (0, c1) = (0, {c1})")

    low, high = _split_by_bit(len(p), k)
    ratio = (g1 - c1) / (g1_bar - c1)
    p_bar = np.empty_like(p)
    p_bar[low] = p[low] * ratio
    p_bar[high] = p[low] + p[high] - p_bar[low]
    if (p_bar < -1e-15).any() or (p_bar > 1 + 1e-15).any():
        raise InvalidFreeValues("resulting proportions leave [0, 1]")
    p_bar = np.clip(p_bar, 0.0, 1.0)

    top_low = full & ~(1 << k)  # pattern with every attribute except k
    top_high = full
    if p_bar[top_high] <= 0:
        raise InvalidFreeValues("degenerate proportion at the all-attributes pattern")
    c2_bar = (g2 * (p[top_low] - p_bar[top_low]) + c2 * p[top_high]) / p_bar[top_high]
    if not (g2 < c2_bar < 1.0):
        raise InvalidFreeValues(f"re-solved capable probability {c2_bar} leaves (g2, 1)")

    s_bar = params.s.copy()
    g_bar = params.g.copy()
    g_bar[j1] = g1_bar
    s_bar[j2] = 1.0 - c2_bar
    alt_params = DinaParams(s_bar, g_bar)
    pair = WitnessPair(
        truth=RlcmModel(q, dina_theta_table(q, params), p, kind="dina"),
        alternative=RlcmModel(q, dina_theta_table(q, alt_params), p_bar, kind="dina"),
        construction="DinaScenarioA",
        details={
            "attribute": k + 1,
            "unit_item": j1 + 1,
            "full_item": j2 + 1,
            "g1_bar": g1_bar,
            "c2_bar": c2_bar,
        },
    )
    certify(pair)
    return pair


def _mixture_moments(c_a, g_a, c_b, g_b, w):
    """First and joint positive-response moments of a 2-item 2-class mixture."""
    ma = w * c_a + (1 - w) * g_a
    mb = w * c_b + (1 - w) * g_b
    mab = w * c_a * c_b + (1 - w) * g_a * g_b
    return ma, mb, mab


def _resolve_block(ma, mb, cov, w_bar):
    """Parameters of a 2-item mixture with weight ``w_bar`` matching the
    moments (ma, mb, ma*mb + cov).  Splits the covariance symmetrically."""
    scale = w_bar * (1 - w_bar)
    if cov <= 0 or scale <= 0:
        return None
    delta = float(np.sqrt(cov / scale))
    c_a = ma + (1 - w_bar) * delta
    g_a = ma - w_bar * delta
    c_b = mb + (1 - w_bar) * delta
    g_b = mb - w_bar * delta
    vals = (c_a, g_a, c_b, g_b)
    if any(not 0.0 < v < 1.0 for v in vals) or c_a <= g_a or c_b <= g_b:
        return None
    return vals


def dina_q24_two_solutions(
    params: DinaParams, p: np.ndarray, count: int = 2, tol: float = 1e-10
) -> list[WitnessPair]:
    """Alternative parameter sets for the paired 4 x 2 design
    (items 1,3 on attribute 1; items 2,4 on attribute 2).

    Requires the proportions to violate the product constraint, i.e.
    p(01)p(10) == p(00)p(11): then the attributes are independent, the joint
    distribution factorizes into two 2-item two-class mixtures, and each
    mixture's weight is a free parameter.  Raises :class:`ConstraintHolds`
    when the constraint gap exceeds ``tol`` (no witness should exist).
    """
    q = QMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
    p = np.asarray(p, float)
    if params.n_items != 4 or len(p) != 4:
        raise WrongShape("construction fixed to the 4 x 2 paired design")
    gap = q24_constraint_gap(p)
    if gap > tol:
        raise ConstraintHolds(
            f"proportions satisfy the identifiability constraint (gap {gap:.3e})"
        )
    # independence: factor p into attribute marginals
    w1 = float(p[1] + p[3])  # attribute 1 mastered (bit 0)
    w2 = float(p[2] + p[3])  # attribute 2 mastered (bit 1)
    blocks = {
        1: ((0, 2), w1),  # items 1, 3 gate on attribute 1
        2: ((1, 3), w2),  # items 2, 4 gate on attribute 2
    }
    truth_theta = dina_theta_table(q, params)
    truth = RlcmModel(q, truth_theta, p, kind="dina")
    base = truth.distribution()

    out: list[WitnessPair] = []
    offsets = [0.15, -0.15, 0.1, -0.1, 0.2, -0.2, 0.05, -0.05]
    for attr, ((ja, jb), w) in blocks.items():
        for off in offsets:
            if len(out) >= count:
                break
            w_bar = w + off
            if not 0.02 < w_bar < 0.98 or abs(w_bar - w) < 10 * DISTINCT_FLOOR:
                continue
            ca, ga = float(params.c[ja]), float(params.g[ja])
            cb, gb = float(params.c[jb]), float(params.g[jb])
            ma, mb, mab = _mixture_moments(ca, ga, cb, gb, w)
            resolved = _resolve_block(ma, mb, mab - ma * mb, w_bar)
            if resolved is None:
                continue
            c_a, g_a, c_b, g_b = resolved
            s_bar = params.s.copy()
            g_vec = params.g.copy()
            s_bar[ja], g_vec[ja] = 1.0 - c_a, g_a
            s_bar[jb], g_vec[jb] = 1.0 - c_b, g_b
            alt_params = DinaParams(s_bar, g_vec)
            if attr == 1:
                marg1 = np.array([1 - w_bar, w_bar])
                marg2 = np.array([1 - w2, w2])
            else:
                marg1 = np.array([1 - w1, w1])
                marg2 = np.array([1 - w_bar, w_bar])
            p_bar = np.array(
                [marg1[a1] * marg2[a2] for a2 in (0, 1) for a1 in (0, 1)]
            )
            pair = WitnessPair(
                truth=truth,
                alternative=RlcmModel(q, dina_theta_table(q, alt_params), p_bar, kind="dina"),
                construction="DinaQ24TwoSolutions",
                details={"attribute": attr, "weight": w_bar},
            )
            try:
                certify(pair, truth_distribution=base)
            except NotCertified:
                continue
            out.append(pair)
        if len(out) >= count:
            break
    if len(out) < count:
        raise InvalidFreeValues(
            f"could only certify {len(out)} of {count} requested alternatives"
        )
    return out


def _free_value_loop(rng, truths, width=0.1, attempts=400):
    """Yield perturbed copies of ``truths`` within +/- width, clipped away
    from the probability boundary."""
    truths = np.asarray(truths, float)
    for _ in range(attempts):
        draw = truths + rng.uniform(-width, width, size=truths.shape)
        yield np.clip(draw, 1e-4, 1 - 1e-4)


def gdina_one_item_attr(
    q: QMatrix,
    theta: np.ndarray,
    p: np.ndarray,
    free_values: np.ndarray | None = None,
    seed=0,
) -> WitnessPair:
    """General-model witness when some attribute is required by one item.

    The alternative design replaces that item's row by all-ones; the item's
    response probabilities on the attribute-absent side are free, and the
    proportions re-solve per residual pattern from two linear moment
    equations.  ``free_values`` optionally fixes the (2, n/2) array of the
    item's alternative probabilities (row 0: attribute absent, row 1:
    attribute present); otherwise values are sampled near the truth until
    the resulting model is valid.
    """
    theta = np.asarray(theta, float)
    p = np.asarray(p, float)
    sums = q.column_sums()
    hits = np.flatnonzero(sums == 1)
    if len(hits) == 0:
        raise WrongShape("need an attribute required by exactly one item")
    k = int(hits[0])
    j = int(np.flatnonzero(q.entries[:, k])[0])

    entries = q.entries.copy()
    entries[j, :] = 1
    q_bar = QMatrix(entries)
    low, high = _split_by_bit(len(p), k)

    def attempt(free):
        bar0, bar1 = free[0], free[1]
        denom = bar1 - bar0
        if (np.abs(denom) < 1e-9).any():
            return None
        p1 = ((theta[j, low] - bar0) * p[low] + (theta[j, high] - bar0) * p[high]) / denom
        p0 = p[low] + p[high] - p1
        if (p1 < 0).any() or (p0 < 0).any() or (p1 > 1).any() or (p0 > 1).any():
            return None
        theta_bar = theta.copy()
        theta_bar[j, low] = bar0
        theta_bar[j, high] = bar1
        full = len(p) - 1
        if theta_bar[j, full] <= np.delete(theta_bar[j], full).max():
            return None  # monotonicity under the all-ones row
        p_bar = np.empty_like(p)
        p_bar[low] = p0
        p_bar[high] = p1
        return theta_bar, p_bar

    if free_values is not None:
        solved = attempt(np.asarray(free_values, float))
        if solved is None:
            raise InvalidFreeValues("free values give an invalid alternative model")
    else:
        rng = np.random.default_rng(seed)
        truths = np.vstack([theta[j, low], theta[j, high]])
        solved = None
        for free in _free_value_loop(rng, truths):
            solved = attempt(free)
            if solved is not None:
                break
        if solved is None:
            raise InvalidFreeValues("no valid free values found within the attempt budget")

    theta_bar, p_bar = solved
    pair = WitnessPair(
        truth=RlcmModel(q, theta, p, kind="gdina"),
        alternative=RlcmModel(q_bar, theta_bar, p_bar, kind="gdina"),
        construction="GdinaOneItemAttr",
        details={"item": j + 1, "attribute": k + 1},
    )
    certify(pair)
    return pair


def gdina_two_item_attr(
    q: QMatrix,
    theta: np.ndarray,
    p: np.ndarray,
    count: int = 1,
    seed=0,
    width: float = 0.1,
) -> list[WitnessPair]:
    """General-model witnesses when some attribute is required by exactly
    two items.

    Both rows promote to all-ones in the alternative design.  Per residual
    pattern, the attribute-absent probabilities of the two items are drawn
    freely near the truth and the remaining four unknowns (two attribute-
    present probabilities and the two proportions) re-solve in closed form:

        x1_bar = x0 + (x1 - x0)(y1 - y0_bar) p1 / Dy
        y1_bar = y0 + (y1 - y0)(x1 - x0_bar) p1 / Dx
        p1_bar = Dy / (y1_bar - y0_bar),   p0_bar = p0 + p1 - p1_bar

    with Dx = (x0 - x0_bar) p0 + (x1 - x0_bar) p1 and Dy alike.  Invalid
    draws (probabilities or proportions out of range, or monotonicity
    failures) are rejected and resampled.
    """
    theta = np.asarray(theta, float)
    p = np.asarray(p, float)
    sums = q.column_sums()
    target = None
    for k in np.flatnonzero(sums == 2):
        items = [int(j) for j in np.flatnonzero(q.entries[:, int(k)])]
        target = (int(k), items[0], items[1])
        break
    if target is None:
        raise WrongShape("need an attribute required by exactly two items")
    k, j1, j2 = target

    entries = q.entries.copy()
    entries[j1, :] = 1
    entries[j2, :] = 1
    q_bar = QMatrix(entries)
    low, high = _split_by_bit(len(p), k)
    full = len(p) - 1
    x0, x1 = theta[j1, low], theta[j1, high]
    y0, y1 = theta[j2, low], theta[j2, high]
    p0, p1 = p[low], p[high]
    top = int(np.flatnonzero(high == full)[0])  # cell whose high side is full mastery

    truth = RlcmModel(q, theta, p, kind="gdina")
    base = truth.distribution()
    rng = np.random.default_rng(seed)

    def solve_cell(i, x0b, y0b):
        """Closed-form re-solve of one residual-pattern cell; None when the
        draw leaves the probability simplex or degenerates."""
        dx = (x0[i] - x0b) * p0[i] + (x1[i] - x0b) * p1[i]
        dy = (y0[i] - y0b) * p0[i] + (y1[i] - y0b) * p1[i]
        if abs(dx) < 1e-12 or abs(dy) < 1e-12:
            return None
        x1b = x0[i] + (x1[i] - x0[i]) * (y1[i] - y0b) * p1[i] / dy
        y1b = y0[i] + (y1[i] - y0[i]) * (x1[i] - x0b) * p1[i] / dx
        if abs(y1b - y0b) < 1e-12:
            return None
        p1b = dy / (y1b - y0b)
        p0b = p0[i] + p1[i] - p1b
        if not (0.0 < x1b < 1.0 and 0.0 < y1b < 1.0):
            return None
        if p1b < 0.0 or p0b < 0.0:
            return None
        return x0b, y0b, x1b, y1b, p1b, p0b

    def draw_cell(i, upper_x=None, upper_y=None, lower_x=None, lower_y=None):
        """Sample a cell; the full-mastery cell must dominate, the rest must
        stay strictly below it.  Per-cell rejection keeps the accept rate
        high even with many residual patterns."""
        for _ in range(400):
            x0b = float(np.clip(x0[i] + rng.uniform(-width, width), 1e-4, 1 - 1e-4))
            y0b = float(np.clip(y0[i] + rng.uniform(-width, width), 1e-4, 1 - 1e-4))
            sol = solve_cell(i, x0b, y0b)
            if sol is None:
                continue
            _, _, x1b, y1b, _, _ = sol
            if lower_x is not None and not (x1b > lower_x and y1b > lower_y):
                continue
            if upper_x is not None and not (
                max(x0b, x1b) < upper_x and max(y0b, y1b) < upper_y
            ):
                continue
            return sol
        return None

    out: list[WitnessPair] = []
    rejected = 0
    while len(out) < count:
        if rejected > 50 * count + 100:
            raise InvalidFreeValues(
                f"certified only {len(out)} of {count} witnesses within the budget"
            )
        # anchor the full-mastery cell at or above the truth's maxima so the
        # strict order survives in the promoted all-ones rows
        anchor = draw_cell(top, lower_x=float(x1.max()), lower_y=float(y1.max()))
        if anchor is None:
            rejected += 1
            continue
        cells = [None] * len(low)
        cells[top] = anchor
        ok = True
        for i in range(len(low)):
            if i == top:
                continue
            cells[i] = draw_cell(i, upper_x=anchor[2] - 1e-6, upper_y=anchor[3] - 1e-6)
            if cells[i] is None:
                ok = False
                break
        if not ok:
            rejected += 1
            continue

        theta_bar = theta.copy()
        p_bar = np.empty_like(p)
        for i, (x0b, y0b, x1b, y1b, p1b, p0b) in enumerate(cells):
            theta_bar[j1, low[i]], theta_bar[j1, high[i]] = x0b, x1b
            theta_bar[j2, low[i]], theta_bar[j2, high[i]] = y0b, y1b
            p_bar[low[i]], p_bar[high[i]] = p0b, p1b
        if any(
            theta_bar[j, full] <= np.delete(theta_bar[j], full).max() for j in (j1, j2)
        ):
            rejected += 1
            continue
        pair = WitnessPair(
            truth=truth,
            alternative=RlcmModel(q_bar, theta_bar, p_bar, kind="gdina"),
            construction="GdinaTwoItemAttr",
            details={"attribute": k + 1, "items": (j1 + 1, j2 + 1)},
        )
        try:
            certify(pair, truth_distribution=base)
        except NotCertified:
            rejected += 1
            continue
        out.append(pair)
    return out


def incomplete_gamma_merge(
    q: QMatrix, q_bar: QMatrix, params: DinaParams, p: np.ndarray
) -> WitnessPair:
    """Conjunctive-model witness between two designs whose ideal-response
    columns are compatible.

    Patterns with identical ideal-response columns under ``q`` are
    indistinguishable; the alternative keeps the item parameters and moves
    each pattern's mass to a pattern whose column under ``q_bar`` equals its
    column under ``q``.  Raises :class:`NotSubsumed` when some column has no
    such carrier.
    """
    p = np.asarray(p, float)
    if q.entries.shape != q_bar.entries.shape:
        raise WrongShape("designs must share their shape")
    gam = gamma_matrix(q)
    gam_bar = gamma_matrix(q_bar)
    n = gam.shape[1]
    col = [gam[:, a].tobytes() for a in range(n)]
    col_bar = [gam_bar[:, a].tobytes() for a in range(n)]
    carriers: dict[bytes, int] = {}
    for a in range(n):
        if col_bar[a] not in carriers:
            carriers[col_bar[a]] = a

    p_bar = np.zeros_like(p)
    for a in range(n):
        if col_bar[a] == col[a]:
            p_bar[a] += p[a]
            continue
        rep = carriers.get(col[a])
        if rep is None:
            raise NotSubsumed(
                "target design has no pattern reproducing the ideal-response "
                f"column of pattern {a:0{q.n_attributes}b}"
            )
        p_bar[rep] += p[a]

    theta = dina_theta_table(q, params)
    theta_bar = dina_theta_table(q_bar, params)
    pair = WitnessPair(
        truth=RlcmModel(q, theta, p, kind="dina"),
        alternative=RlcmModel(q_bar, theta_bar, p_bar, kind="dina"),
        construction="IncompleteGammaMerge",
        details={"moved_mass": float(np.sum(np.abs(p_bar - p)) / 2)},
    )
    if q_equivalent(q, q_bar) and not pair.is_distinct():
        # identical designs: the merge is the identity, not a witness
        pair.certified_max_diff = 0.0
        return pair
    certify(pair)
    return pair
