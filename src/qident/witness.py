"""Constructive non-identifiability witnesses.

Each construction takes a true model on a deficient design and returns an
alternative model, possibly on a different design, that induces exactly the
same distribution over all 2^J response patterns.  Every returned pair is
certified by enumerating every distinct pattern: the maximum absolute
probability difference must stay below ``CERT_TOL`` and the two models must
genuinely differ, also after any column relabeling of the alternative's
design, or an error is raised.  There are no silent near-witnesses.  Items
whose response rows are equal in both models are exchangeable, and a
pattern's probability depends only on how many of them it answers
positively, so the stacked rows of the 20-item designs leave far fewer
distinct patterns than 2^20 (1,372 for ``two_item_20x3_pair``).

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

Scenario (a) finds its target attribute with the classifier's own search
(``qmatrix._two_item_forms``), so a design the classifier files under that
scenario gets its witness.  The other constructions take the first
attribute required by one or two items (``QMatrix.column_sums``), a
search the classifier does not share.  A construction with a single free
value (given, or the target item's default ``c_bar`` / ``g1_bar``)
certifies once and raises :class:`NotCertified` on failure; one that tries
several values (the q24 weights, drawn GDINA values) certifies them in
order and raises :class:`InvalidFreeValues` when they run out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import Q4X2_PAIRED
from .errors import (
    ConstraintHolds,
    InvalidFreeValues,
    NotCertified,
    NotSubsumed,
    TooLarge,
    WrongShape,
)
from .qmatrix import QMatrix, _bit_permutation_table, _column_maps, _two_item_forms, gamma_matrix
from .rlcm import DinaParams, RlcmModel, monotonicity_ok, theta_table
from .tmatrix import _max_abs_difference, _unique_columns

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
_Q24_TOL = 1e-10  # largest constraint gap the q24 construction treats as zero


@dataclass
class WitnessPair:
    """Two model specifications certified to induce the same distribution."""

    truth: RlcmModel
    alternative: RlcmModel
    construction: str
    certified_max_diff: float = float("nan")
    details: dict = field(default_factory=dict)

    def is_distinct(self) -> bool:
        """The pair must differ beyond numerical noise to count as a witness,
        under every column permutation that maps the alternative's design
        onto the truth's: a relabeled truth is no witness."""
        truth, alt = self.truth, self.alternative
        for perm in _column_maps(truth.q, alt.q):
            table = _bit_permutation_table(perm, truth.q.n_attributes)
            gap = max(np.max(np.abs(truth.theta - alt.theta[:, table])),
                      np.max(np.abs(truth.p - alt.p[table])))
            if gap <= DISTINCT_FLOOR:
                return False
        return True


def certify(pair: WitnessPair) -> float:
    """Exact certification over all 2^J response patterns, blockwise over
    pooled half tables in memory O(2^(J/2) * 2^K) plus one block.  Items
    identical in both models on the classes with mass are exchangeable, so
    each distinct pattern, a count of positive answers per group of such
    items, is formed once.

    Stores and returns the maximum absolute probability difference.  Raises
    :class:`WrongShape` unless the two models share J and K, and
    :class:`NotCertified` when the difference reaches ``CERT_TOL`` or is
    NaN, or when the two models do not genuinely differ.
    """
    truth, alt = pair.truth, pair.alternative
    if truth.theta.shape != alt.theta.shape:
        raise WrongShape(f"{pair.construction}: theta {truth.theta.shape} vs {alt.theta.shape}")
    if truth.q.n_items > _MAX_CERT_J:
        raise TooLarge(f"exact certification guarded to J <= {_MAX_CERT_J}")
    diff = _max_abs_difference(truth.theta, truth.p, alt.theta, alt.p)
    pair.certified_max_diff = diff
    if not diff < CERT_TOL:
        raise NotCertified(
            f"{pair.construction}: distributions differ by {diff:.3e} (>= {CERT_TOL:.0e})"
        )
    if not pair.is_distinct():
        raise NotCertified(
            f"{pair.construction}: alternative coincides with the truth "
            f"(distinctness floor {DISTINCT_FLOOR:.0e})"
        )
    return diff


def _first_certified(candidates, count: int, what: str) -> list[WitnessPair]:
    """The first ``count`` candidates, in order, that pass :func:`certify`.

    A ``None`` candidate (an invalid draw) and a candidate that fails
    certification are skipped; running out of candidates raises
    :class:`InvalidFreeValues`.
    """
    out: list[WitnessPair] = []
    if count <= 0:
        return out
    for pair in candidates:
        if pair is None:
            continue
        try:
            certify(pair)
        except NotCertified:
            continue
        out.append(pair)
        if len(out) == count:
            return out
    raise InvalidFreeValues(f"certified only {len(out)} of {count} {what} within the budget")


def _split_by_bit(n_patterns: int, bit: int):
    """Masks without / with the given attribute bit, aligned pairwise."""
    patterns = np.arange(n_patterns)
    low = patterns[(patterns >> bit) & 1 == 0]
    return low, low | (1 << bit)


def _rebalance(p: np.ndarray, bit: int, side: int, ratio: float) -> np.ndarray:
    """Proportions with every pattern on one ``side`` of the attribute bit
    (0 without it, 1 with it) scaled by ``ratio``; its aligned pattern on the
    other side takes up the difference, so each pair keeps its mass."""
    halves = _split_by_bit(len(p), bit)
    moved, other = halves[side], halves[1 - side]
    p_bar = np.empty_like(p)
    p_bar[moved] = p[moved] * ratio
    p_bar[other] = p[halves[0]] + p[halves[1]] - p_bar[moved]
    if (p_bar < -1e-15).any() or (p_bar > 1 + 1e-15).any():
        raise InvalidFreeValues("resulting proportions leave [0, 1]")
    return np.clip(p_bar, 0.0, 1.0)


def _dina_pair(q, params, p, p_bar, construction, details, s_bar=(), g_bar=(), q_bar=None):
    """The DINA truth on ``q`` and its alternative: proportions ``p_bar`` on
    ``q_bar`` (default ``q``), with the (item, value) changes ``s_bar`` and
    ``g_bar`` to the slipping and guessing parameters."""
    s, g = params.s.copy(), params.g.copy()
    for j, value in s_bar:
        s[j] = value
    for j, value in g_bar:
        g[j] = value
    q_bar = q if q_bar is None else q_bar
    return WitnessPair(
        truth=RlcmModel(q, theta_table("dina", q, params), p),
        alternative=RlcmModel(q_bar, theta_table("dina", q_bar, DinaParams(s, g)), p_bar),
        construction=construction,
        details=details,
    )


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
    q: QMatrix, params: DinaParams, p: np.ndarray, c_bar: float | None = None
) -> WitnessPair:
    """Witness when some attribute is required by exactly one item and that
    item requires nothing else.

    The alternative keeps the design and the guessing parameter, replaces
    the item's capable probability by ``c_bar`` and rescales the proportions
    so that the two per-pattern moments of the item are preserved:

        p_bar[with attribute]    = p * (c - g) / (c_bar - g)
        p_bar[without attribute] = mass balance of the aligned pair.

    ``c_bar`` defaults to max(c - 0.05, (c + g) / 2) of that item.
    """
    p = np.asarray(p, float)
    # unit[k, j]: item j is attribute k's unit row and no other item requires k
    bits = 1 << np.arange(q.n_attributes)[:, None]
    unit = (q.row_masks == bits) & (q.column_sums() == 1)[:, None]
    if not unit.any():
        raise WrongShape("need an attribute required by exactly one item, that item a unit row")
    k, j = np.argwhere(unit)[0].tolist()
    c_j, g_j = float(params.c[j]), float(params.g[j])
    if c_bar is None:
        c_bar = max(c_j - 0.05, (c_j + g_j) / 2)
    if not (g_j < c_bar < 1.0):
        raise InvalidFreeValues(f"c_bar must lie in (g, 1) = ({g_j}, 1)")
    p_bar = _rebalance(p, k, 1, (c_j - g_j) / (c_bar - g_j))
    pair = _dina_pair(q, params, p, p_bar, "DinaOneItemAttr",
                      {"item": j + 1, "attribute": k + 1, "c_bar": c_bar},
                      s_bar=[(j, 1.0 - c_bar)])
    certify(pair)
    return pair


def dina_scenario_a(
    q: QMatrix, params: DinaParams, p: np.ndarray, g1_bar: float | None = None
) -> WitnessPair:
    """Witness for an attribute required by exactly two items: a unit row and
    a row requiring every attribute (the classifier's scenario (a)).

    For a freely chosen guessing value of the unit-row item, the proportions
    and the all-attributes item's capable probability re-solve in closed
    form; the result matches the truth's distribution exactly for any valid
    choice, so witnesses exist in every neighborhood of the truth.
    ``g1_bar`` defaults to the unit-row item's g + 0.02.
    """
    p = np.asarray(p, float)
    K = q.n_attributes
    _, unit, partner, _, scenario_a = _two_item_forms(q.row_masks[None, :], K)
    hits = np.flatnonzero(scenario_a[0])
    if not hits.size:
        raise WrongShape(
            "need an attribute on exactly two items: a unit row and an all-ones row"
        )
    k = int(hits[0])
    j1, j2 = int(unit[0, k]), int(partner[0, k])
    c1, g1 = float(params.c[j1]), float(params.g[j1])
    c2, g2 = float(params.c[j2]), float(params.g[j2])
    if g1_bar is None:
        g1_bar = g1 + 0.02
    if not (0.0 < g1_bar < c1):
        raise InvalidFreeValues(f"g1_bar must lie in (0, c1) = (0, {c1})")
    p_bar = _rebalance(p, k, 0, (g1 - c1) / (g1_bar - c1))

    full = (1 << K) - 1
    top_low = full & ~(1 << k)  # pattern with every attribute except k
    top_high = full
    if p_bar[top_high] <= 0:
        raise InvalidFreeValues("degenerate proportion at the all-attributes pattern")
    c2_bar = (g2 * (p[top_low] - p_bar[top_low]) + c2 * p[top_high]) / p_bar[top_high]
    if not (g2 < c2_bar < 1.0):
        raise InvalidFreeValues(f"re-solved capable probability {c2_bar} leaves (g2, 1)")

    details = {"attribute": k + 1, "unit_item": j1 + 1, "full_item": j2 + 1,
               "g1_bar": g1_bar, "c2_bar": c2_bar}
    pair = _dina_pair(q, params, p, p_bar, "DinaScenarioA", details,
                      s_bar=[(j2, 1.0 - c2_bar)], g_bar=[(j1, g1_bar)])
    certify(pair)
    return pair


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


def dina_q24_two_solutions(params: DinaParams, p: np.ndarray, count: int = 2) -> list[WitnessPair]:
    """Alternative parameter sets for the paired 4 x 2 design
    (items 1,3 on attribute 1; items 2,4 on attribute 2).

    Requires the proportions to violate the product constraint, i.e.
    p(01)p(10) == p(00)p(11): then the attributes are independent, the joint
    distribution factorizes into two 2-item two-class mixtures, and each
    mixture's weight is a free parameter.  Raises :class:`ConstraintHolds`
    when the constraint gap exceeds 1e-10 (no witness should exist).
    The weights tried move each block's weight by 0.15, 0.1, 0.2 and 0.05,
    up and down, in that order.
    """
    p = np.asarray(p, float)
    if params.n_items != 4 or len(p) != 4:
        raise WrongShape("construction fixed to the 4 x 2 paired design")
    gap = q24_constraint_gap(p)
    if gap > _Q24_TOL:
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

    def alternative(attr, ja, jb, w, w_bar):
        if not 0.02 < w_bar < 0.98 or abs(w_bar - w) < 10 * DISTINCT_FLOOR:
            return None
        ca, ga = float(params.c[ja]), float(params.g[ja])
        cb, gb = float(params.c[jb]), float(params.g[jb])
        # first and joint positive-response moments of the block's mixture
        ma, mb = w * ca + (1 - w) * ga, w * cb + (1 - w) * gb
        mab = w * ca * cb + (1 - w) * ga * gb
        resolved = _resolve_block(ma, mb, mab - ma * mb, w_bar)
        if resolved is None:
            return None
        c_a, g_a, c_b, g_b = resolved
        # independent attributes mastered at rates m1, m2 (masks 00, 10, 01, 11)
        m1, m2 = (w_bar, w2) if attr == 1 else (w1, w_bar)
        p_bar = np.array([(1 - m1) * (1 - m2), m1 * (1 - m2), (1 - m1) * m2, m1 * m2])
        return _dina_pair(Q4X2_PAIRED, params, p, p_bar, "DinaQ24TwoSolutions",
                          {"attribute": attr, "weight": w_bar},
                          s_bar=[(ja, 1.0 - c_a), (jb, 1.0 - c_b)], g_bar=[(ja, g_a), (jb, g_b)])

    candidates = (
        alternative(attr, ja, jb, w, w + off)
        for attr, ((ja, jb), w) in blocks.items()
        for off in (0.15, -0.15, 0.1, -0.1, 0.2, -0.2, 0.05, -0.05)
    )
    return _first_certified(candidates, count, "alternatives")


def _promoted(q: QMatrix, theta: np.ndarray, p: np.ndarray, count: int, construction: str):
    """The saturated-model move shared by the GDINA constructions: the first
    attribute k required by exactly ``count`` items, those items' rows
    promoted to all-ones in the alternative design.

    Returns ``(k, items, low, high, pair)``: the patterns without and with
    attribute k, aligned pairwise, and ``pair(theta_bar, p_bar, details)``,
    the :class:`WitnessPair` of the truth and the alternative on the
    promoted design, or None when the promoted rows break the order.
    """
    hits = np.flatnonzero(q.column_sums() == count)
    if not len(hits):
        raise WrongShape(f"need an attribute required by exactly {count} item{'s' * (count > 1)}")
    k, items = int(hits[0]), np.flatnonzero(q.entries[:, hits[0]]).tolist()
    entries = q.entries.copy()
    entries[items, :] = 1
    q_bar, promoted = QMatrix(entries), QMatrix(entries[items])
    truth = RlcmModel(q, theta, p)

    def pair(theta_bar, p_bar, details):
        if not monotonicity_ok(theta_bar[items], promoted):
            return None
        return WitnessPair(truth, RlcmModel(q_bar, theta_bar, p_bar), construction, details=details)

    return (k, items, *_split_by_bit(len(p), k), pair)


def gdina_one_item_attr(q: QMatrix, theta: np.ndarray, p: np.ndarray, seed=0) -> WitnessPair:
    """General-model witness when some attribute is required by one item.

    The alternative design replaces that item's row by all-ones.  Per
    residual pattern, the item's response probabilities without and with
    the attribute are both drawn, and the two proportions re-solve from the
    pattern pair's mass and the item's first moment.  Up to 400 draws
    within +/- 0.1 of the truth are tried until one gives a valid,
    certified model.
    """
    theta = np.asarray(theta, float)
    p = np.asarray(p, float)
    k, (j,), low, high, pair = _promoted(q, theta, p, 1, "GdinaOneItemAttr")

    def alternative(free):
        bar0, bar1 = free
        denom = bar1 - bar0
        if (np.abs(denom) < 1e-9).any():
            return None
        theta_bar, p_bar = theta.copy(), np.empty_like(p)
        theta_bar[j, low], theta_bar[j, high] = bar0, bar1
        p_bar[high] = ((theta[j, low] - bar0) * p[low] + (theta[j, high] - bar0) * p[high]) / denom
        p_bar[low] = p[low] + p[high] - p_bar[high]
        if (p_bar < 0).any() or (p_bar > 1).any():
            return None
        return pair(theta_bar, p_bar, {"item": j + 1, "attribute": k + 1})

    rng = np.random.default_rng(seed)
    truths = np.vstack([theta[j, low], theta[j, high]])
    draws = (
        alternative(np.clip(truths + rng.uniform(-0.1, 0.1, size=truths.shape), 1e-4, 1 - 1e-4))
        for _ in range(400)
    )
    return _first_certified(draws, 1, "witnesses")[0]


def gdina_two_item_attr(
    q: QMatrix,
    theta: np.ndarray,
    p: np.ndarray,
    count: int = 1,
    seed=0,
) -> list[WitnessPair]:
    """General-model witnesses when some attribute is required by exactly
    two items.

    Both rows promote to all-ones in the alternative design.  Per residual
    pattern, the attribute-absent probabilities of the two items are drawn
    freely within +/- 0.1 of the truth and the remaining four unknowns (two
    attribute-present probabilities and the two proportions) re-solve in
    closed form:

        x1_bar = x0 + (x1 - x0)(y1 - y0_bar) p1 / Dy
        y1_bar = y0 + (y1 - y0)(x1 - x0_bar) p1 / Dx
        p1_bar = Dy / (y1_bar - y0_bar),   p0_bar = p0 + p1 - p1_bar

    with Dx = (x0 - x0_bar) p0 + (x1 - x0_bar) p1 and Dy alike.  An
    alternative draws 400 tries for every residual pattern at once, and each
    pattern takes its first valid try: values in range, no denominator
    below 1e-12, and below the anchor.  The last pattern's high side is full
    mastery; its x1_bar and y1_bar, the anchor, lie above the truth's maxima,
    so the promoted rows keep their strict order.  An alternative with a
    pattern left without a valid try, or failing monotonicity or
    certification, is redrawn, up to 51 * count + 100 in all.
    """
    theta = np.asarray(theta, float)
    p = np.asarray(p, float)
    k, (j1, j2), low, high, pair = _promoted(q, theta, p, 2, "GdinaTwoItemAttr")
    x0, x1 = theta[j1, low], theta[j1, high]
    y0, y1 = theta[j2, low], theta[j2, high]
    p0, p1 = p[low], p[high]
    rng = np.random.default_rng(seed)
    cell = np.arange(len(low))

    def alternative():
        x0b = np.clip(x0 + rng.uniform(-0.1, 0.1, (400, len(low))), 1e-4, 1 - 1e-4)
        y0b = np.clip(y0 + rng.uniform(-0.1, 0.1, (400, len(low))), 1e-4, 1 - 1e-4)
        dx = (x0 - x0b) * p0 + (x1 - x0b) * p1
        dy = (y0 - y0b) * p0 + (y1 - y0b) * p1
        with np.errstate(divide="ignore", invalid="ignore"):
            x1b = x0 + (x1 - x0) * (y1 - y0b) * p1 / dy
            y1b = y0 + (y1 - y0) * (x1 - x0b) * p1 / dx
            p1b = dy / (y1b - y0b)
            p0b = p0 + p1 - p1b
            ok = ((np.abs(dx) >= 1e-12) & (np.abs(dy) >= 1e-12) & (np.abs(y1b - y0b) >= 1e-12)
                  & (0 < x1b) & (x1b < 1) & (0 < y1b) & (y1b < 1) & (p1b >= 0) & (p0b >= 0))
        ok[:, -1] &= (x1b[:, -1] > x1.max()) & (y1b[:, -1] > y1.max())
        anchor = ok[:, -1].argmax()  # with no valid try, try 0: rejected below
        ok[:, :-1] &= ((np.maximum(x0b, x1b) < x1b[anchor, -1] - 1e-6)
                       & (np.maximum(y0b, y1b) < y1b[anchor, -1] - 1e-6))[:, :-1]
        if not ok.any(0).all():
            return None
        first = ok.argmax(0)
        theta_bar, p_bar = theta.copy(), np.empty_like(p)
        theta_bar[j1, low], theta_bar[j1, high] = x0b[first, cell], x1b[first, cell]
        theta_bar[j2, low], theta_bar[j2, high] = y0b[first, cell], y1b[first, cell]
        p_bar[low], p_bar[high] = p0b[first, cell], p1b[first, cell]
        return pair(theta_bar, p_bar, {"attribute": k + 1, "items": (j1 + 1, j2 + 1)})

    draws = (alternative() for _ in range(51 * count + 100))
    return _first_certified(draws, count, "witnesses")


def incomplete_gamma_merge(
    q: QMatrix, q_bar: QMatrix, params: DinaParams, p: np.ndarray
) -> WitnessPair:
    """Conjunctive-model witness between two designs whose ideal-response
    columns are compatible.

    Patterns with identical ideal-response columns under ``q`` are
    indistinguishable; the alternative keeps the item parameters and moves
    each pattern's mass to a pattern whose column under ``q_bar`` equals its
    column under ``q``.  Raises :class:`NotSubsumed` when some column has no
    such carrier, and :class:`NotCertified` when ``q_bar`` is a column
    relabeling of ``q``, which carries the truth over unchanged.
    """
    p = np.asarray(p, float)
    if q.entries.shape != q_bar.entries.shape:
        raise WrongShape("designs must share their shape")
    n = 1 << q.n_attributes
    if len(p) != n:
        raise WrongShape("proportion length does not match the design")
    # one code per distinct ideal-response column, under q then under q_bar
    _, _, code = _unique_columns(np.hstack([gamma_matrix(q), gamma_matrix(q_bar)]))
    col, col_bar = code[:n], code[n:]
    codes, first = np.unique(col_bar, return_index=True)  # each code's first carrier
    rep = np.full(2 * n, -1)
    rep[codes] = first
    carrier = np.where(col == col_bar, np.arange(n), rep[col])
    missing = np.flatnonzero(carrier < 0)
    if missing.size:
        raise NotSubsumed(
            "target design has no pattern reproducing the ideal-response "
            f"column of pattern {missing[0]:0{q.n_attributes}b}"
        )
    p_bar = np.bincount(carrier, weights=p, minlength=n)

    pair = _dina_pair(q, params, p, p_bar, "IncompleteGammaMerge",
                      {"moved_mass": float(np.sum(np.abs(p_bar - p)) / 2)}, q_bar=q_bar)
    certify(pair)
    return pair
