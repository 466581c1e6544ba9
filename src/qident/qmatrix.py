"""Binary design matrices and their identifiability conditions.

A Q-matrix is a J x K binary matrix linking J items to K latent attributes:
``q[j, k] == 1`` means item j requires attribute k.  This module represents
Q-matrices, canonicalizes and enumerates them up to column permutation, and
decides the combinatorial conditions that govern whether the matrix (together
with the model parameters of a restricted latent class model) can be
recovered from response data:

* completeness          -- some K rows form the K x K identity (condition A);
* distinctness          -- the residual block left after removing an identity
                           has pairwise-distinct columns (condition B);
* repetition            -- every attribute is required by at least three
                           items (condition C);
* generic completeness  -- some K rows admit an all-ones diagonal after row
                           and column permutation, i.e. a perfect matching
                           between attributes and items;
* double generic completeness plus leftover coverage (conditions D and E).

``classify_batch`` decides every design of an (N, J) array of row masks at
once, computing only the flags its model reads: C from column sums, A from
unit rows and B from column-bit differences for DINA, generic completeness,
D and E by Hall's condition over attribute subsets for GDINA; then the
model's decision rules run in order.  It decides each row multiset once:
every rule is invariant under row permutation, and at K <= 4 the pooled
cover search behind E cannot overflow, so no verdict depends on which other
designs share the batch.  The multisets are found in one stable sort of
each design's sorted row masks, packed floor(63 / K) to an int64 key, and
each is decided on its first design, the first of its run in that sort.
``classify_dina`` and ``classify_gdina`` run it on a batch of one, with
all six flags, and return a structured verdict for the conjunctive
two-parameter model and the saturated general model, respectively.
``check_generic_completeness`` and ``check_conditions_DE`` are the
per-design certificate checks: they return the matching and the D/E
partition behind those flags.  Both paths share two kernels over row
masks: ``_cover_sets``, the one search for the minimal covers behind E,
and ``_match_attributes``, the one bipartite matcher behind generic
completeness, D and E.

Conventions: attribute patterns and item rows are encoded little-endian as
bit masks (bit k = attribute k+1), and all checks are invariant under row and
column permutation of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AllRowsZero, HasZeroRows, TooLarge, WrongShape
from .tmatrix import _unique_columns

__all__ = [
    "QMatrix",
    "Scenario",
    "IdentifiabilityVerdict",
    "gamma_matrix",
    "strip_zero_rows",
    "check_generic_completeness",
    "check_conditions_DE",
    "classify_dina",
    "classify_gdina",
    "classify_batch",
    "enumerate_canonical",
    "q_equivalent",
]

# Search guards.  Hall's condition runs over all 2^K attribute subsets and
# the D/E matcher over covers, at most _MAX_COVER_SETS candidate sets of
# row masks; enumeration is exponential in J*K.
_MAX_K_SEARCH = 8
_MAX_COVER_SETS = 200_000
_MAX_ENUM_BITS = 24
_MAX_MASK_K = 63  # row masks are int64: bit 63 is the sign bit


def _check_width(K: int) -> None:
    if K > _MAX_MASK_K:
        raise TooLarge(f"row masks hold at most {_MAX_MASK_K} attributes, got K = {K}")


class QMatrix:
    """Immutable J x K binary design matrix.

    Rows are items, columns are attributes.  Entries must be 0 or 1, both
    dimensions must be at least 1, and there are at most 63 attributes, so
    that every row fits one int64 bit mask.
    """

    __slots__ = ("_entries", "_masks")

    def __init__(self, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2:
            raise WrongShape(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise WrongShape(f"need at least one row and one column, got {arr.shape}")
        _check_width(arr.shape[1])
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("Q-matrix entries must be 0 or 1")
        arr = arr.astype(np.int8, copy=True)
        arr.setflags(write=False)
        self._entries = arr
        masks = (arr.astype(np.int64) << np.arange(arr.shape[1], dtype=np.int64)).sum(axis=1)
        masks.setflags(write=False)
        self._masks = masks

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        return cls(np.array(rows))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n_items(self) -> int:
        return self._entries.shape[0]

    @property
    def n_attributes(self) -> int:
        return self._entries.shape[1]

    @property
    def row_masks(self) -> np.ndarray:
        """Row bit masks, little-endian (bit k = attribute k+1)."""
        return self._masks

    def column_sums(self) -> np.ndarray:
        return self._entries.sum(axis=0)

    @property
    def has_zero_rows(self) -> bool:
        return bool((self._masks == 0).any())

    def row_strings(self) -> list[str]:
        """Rows rendered as '0'/'1' strings, attribute 1 first."""
        return ["".join(str(int(v)) for v in row) for row in self._entries]

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self._entries.shape == other._entries.shape and bool(
            (self._entries == other._entries).all()
        )

    def __hash__(self):
        return hash((self._entries.shape, self._entries.tobytes()))

    def __repr__(self):
        return f"QMatrix({self._entries.tolist()})"


class Scenario(str, Enum):
    """Outcome labels for the identifiability classification.  Each label
    carries its sign, ``positive`` (True when it asserts some form of
    identifiability, False when it rules it out, None when undecided), and
    ``summary``, the one line ``qident check`` prints for it."""

    def __new__(cls, value: str, positive: bool | None, summary: str):
        member = str.__new__(cls, value)
        member._value_ = value
        member.positive = positive
        member.summary = summary
        return member

    STRICT = "StrictlyIdentifiable", True, "strictly identifiable (A, B, C)"
    GENERIC_B1 = ("GenericScenarioB1", True,
                  "generically identifiable (scenario b.1); not strict")
    GENERIC_B2 = ("GenericScenarioB2", True,
                  "generically identifiable (scenario b.2); not strict")
    LOCAL_GENERIC_C = ("LocalGenericC", True,
                       "locally generically identifiable (scenario c); not strict")
    NOT_LOCALLY_GENERIC_A = ("NotLocallyGeneric_A", False,
                             "not identifiable, not even locally generically")
    NOT_GENERIC_ONE_ITEM = ("NotGeneric_OneItemAttribute", False, "not generically identifiable: "
                            "an attribute is required by at most one item")
    NOT_GENERIC_GC = ("NotGeneric_FailsGenericCompleteness", False,
                      "not generically identifiable: generic completeness fails")
    NOT_GENERIC_C_GDINA = ("NotGeneric_FailsC_GDINA", False, "not generically identifiable: "
                           "an attribute is required by fewer than three items")
    GENERIC_DE = "GenericConditionsDE", True, "generically identifiable (conditions D and E)"
    NOT_GENERIC_K2_DE = ("NotGeneric_K2_FailsDE", False,
                         "not generically identifiable (K = 2 block conditions fail)")
    UNDETERMINED = "Undetermined", None, "undetermined: outside the classified cases"


@dataclass
class IdentifiabilityVerdict:
    """Structured outcome of the condition checks for one model family.

    ``condition_flags`` maps A, B, C, D, E and generic_complete to booleans
    (None when a guard prevented the search).  ``measure_zero_constraints``
    lists, in readable form, the inequality constraints that carve out the
    identifiable subset of the parameter space when the verdict is generic
    rather than strict.
    """

    model: str
    condition_flags: dict
    scenario: Scenario
    measure_zero_constraints: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        flags = self.condition_flags
        return {
            "model": self.model,
            "conditions": {
                "A": flags.get("A"),
                "B": flags.get("B"),
                "C": flags.get("C"),
                "D": flags.get("D"),
                "E": flags.get("E"),
                "genericComplete": flags.get("generic_complete"),
            },
            "scenario": self.scenario.value,
            "constraints": list(self.measure_zero_constraints),
            "notes": list(self.notes),
        }


def _cells(masks: np.ndarray, K: int) -> np.ndarray:
    """The (..., J, 2^K) map from (item, pattern) to the response-table cell
    the item reads, for row masks of shape (..., J): the pattern restricted
    to the item's required attributes, a & row_mask[j].  A saturated table
    is constant on each cell."""
    return np.arange(1 << K, dtype=np.int64) & np.asarray(masks)[..., None]


def _gate(masks: np.ndarray, K: int, model: str) -> np.ndarray:
    """Capable-subject gate of the two-parameter models, True where pattern
    a makes item j capable, of shape (..., J, 2^K) for row masks (..., J)."""
    cells = _cells(masks, K)
    if model == "dina":
        return cells == np.asarray(masks)[..., None]
    if model == "dino":
        return cells != 0
    raise ValueError(f"unknown model {model!r}")


def gamma_matrix(q: QMatrix, model: str = "dina") -> np.ndarray:
    """Ideal-response matrix: entry (j, a) is 1 iff a subject of pattern a is
    capable on item j, the gate of the two-parameter models.

    Conjunctive (``"dina"``): pattern a covers row j, so a zero row is always
    capable, the all-ones pattern yields an all-ones column and the all-zeros
    pattern marks zero rows.  Disjunctive (``"dino"``): a shares at least one
    required attribute, so a zero row is never capable.  Columns are indexed
    by attribute-pattern bit masks.
    """
    return _gate(q.row_masks, q.n_attributes, model).astype(np.uint8)


def strip_zero_rows(q: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Drop all-zero rows; returns the reduced matrix and the dropped indices.

    Identifiability of the full design is equivalent to identifiability of
    the reduced one, so every classifier here works on the stripped matrix.
    """
    zero = np.flatnonzero(q.row_masks == 0)
    if len(zero) == q.n_items:
        raise AllRowsZero("all rows of the Q-matrix are zero")
    if len(zero) == 0:
        return q, ()
    keep = np.flatnonzero(q.row_masks != 0)
    return QMatrix(q.entries[keep]), tuple(int(i) for i in zero)


def _match_attributes(masks: list, K: int, copies: int, banned=frozenset()):
    """Assign ``copies`` distinct non-banned items to every attribute, item
    j being given by its row mask ``masks[j]``.

    Augmenting-path bipartite matching where each attribute appears
    ``copies`` times on the left.  Returns a list of ``copies`` item lists
    (one item per attribute each) or None.
    """
    adj = [[j for j, m in enumerate(masks) if m >> k & 1 and j not in banned]
           for k in range(K)]
    owner = {}  # item -> left-node id
    match_of = [None] * (K * copies)

    def try_assign(node, seen):
        for j in adj[node % K]:
            if j in seen:
                continue
            seen.add(j)
            if j not in owner or try_assign(owner[j], seen):
                owner[j] = node
                match_of[node] = j
                return True
        return False

    for node in range(K * copies):
        if not try_assign(node, set()):
            return None
    return [[match_of[c * K + k] for k in range(K)] for c in range(copies)]


def check_generic_completeness(q: QMatrix):
    """Generic completeness: K distinct rows with an all-ones diagonal after
    some column permutation, i.e. a perfect matching attributes <-> items.

    Returns ``(flag, assignment)`` where ``assignment[k]`` is the item
    matched to attribute k (None when the matching does not exist).
    """
    result = _match_attributes(q.row_masks.tolist(), q.n_attributes, 1)
    if result is None:
        return False, None
    return True, tuple(result[0])


def check_conditions_DE(q: QMatrix):
    """Double generic completeness (D) and leftover coverage (E).

    D holds when two disjoint K-row blocks each admit a perfect matching
    attributes <-> items; because the rows inside a block may be reordered
    freely, a single capacity-2 matching decides this (no column-permutation
    search is needed).  E holds when, in addition, the rows outside the two
    blocks require every attribute.  It is decided jointly with D: each
    minimal cover of at most min(K, J - 2K) distinct row masks from
    ``_cover_sets`` is held back, one item per mask (the first; which copy
    does not matter, see ``_hall``), and the capacity-2 matching is sought
    among the other items.  Any leftover that covers every attribute holds
    such a cover, so E holds iff one of these matchings exists.

    Returns ``(d_flag, e_flag, partition)`` with ``partition = (rows1,
    rows2, rest)``; when D and E hold the partition witnesses both (``rest``
    holds the cover), otherwise it witnesses D alone (or is None when D
    fails).
    """
    if q.n_attributes > _MAX_K_SEARCH:
        raise TooLarge(f"condition D search guarded to K <= {_MAX_K_SEARCH}")
    K, masks = q.n_attributes, q.row_masks.tolist()
    first = {}
    for j, m in enumerate(masks):
        first.setdefault(m, j)
    blocks = None
    for cover in _cover_sets(sorted(first), K, min(K, len(masks) - 2 * K)):
        blocks = _match_attributes(masks, K, 2, banned={first[m] for m in cover})
        if blocks is not None:
            break
    e_flag = blocks is not None
    blocks = blocks or _match_attributes(masks, K, 2)
    if blocks is None:
        return False, False, None
    used = set(blocks[0]) | set(blocks[1])
    rest = tuple(j for j in range(len(masks)) if j not in used)
    return True, e_flag, (tuple(blocks[0]), tuple(blocks[1]), rest)


def _b1_constraint(attr: int) -> str:
    return (
        f"exists patterns a1, a2 with attribute {attr + 1} absent such that "
        f"p[a1] * p[a2 + e{attr + 1}] != p[a2] * p[a1 + e{attr + 1}]"
    )


def _b2_constraints(K: int) -> list[str]:
    if K == 2:
        return ["p(01) * p(10) != p(00) * p(11)"]
    return [
        f"for every attribute k: exists patterns a1, a2 with attribute k absent "
        f"such that p[a1] * p[a2 + ek] != p[a2] * p[a1 + ek]"
    ]


# The batched kernels below take an (N, J) int64 array of row masks, one
# design per row, all with K attributes, and return one value per design.


def _check_masks(masks, K: int) -> np.ndarray:
    """``masks`` as an (N, J) int64 array of row masks; raises
    :class:`TooLarge` past K = 63 and :class:`WrongShape` unless it is 2-d
    and every mask lies in [0, 2^K)."""
    _check_width(K)
    masks = np.asarray(masks, dtype=np.int64)
    if masks.ndim != 2 or K < 1 or not ((masks >= 0) & (masks < 1 << K)).all():
        raise WrongShape(f"expected an (N, J) array of row masks in [0, 2^K) with K >= 1, "
                         f"got shape {masks.shape} and K = {K}")
    return masks


def _design_bytes(masks: np.ndarray, n_attributes: int, end: str) -> np.ndarray:
    """Each design of an (N, J) array of row masks as its rows, '0'/'1'
    with attribute 1 first, joined by ';' and followed by the one character
    ``end``: an (N, J * (K + 1)) uint8 table, one line of bytes per design.
    No table over all 2^K row masks is built."""
    text = np.full(masks.shape + (n_attributes + 1,), ord(";"), dtype=np.uint8)
    for k in range(n_attributes):
        text[..., k] = ord("0") + ((masks >> k) & 1)
    text[:, -1, -1] = ord(end)
    return text.reshape(len(masks), masks.shape[1] * (n_attributes + 1))


def _design_rows(masks: np.ndarray, n_attributes: int) -> list[str]:
    """Each design's rows as one string, the lines of ``_design_bytes``."""
    return _design_bytes(masks, n_attributes, "\n").tobytes().decode().splitlines()


def _bits(masks: np.ndarray, K: int) -> np.ndarray:
    """(N, K, J) requirement bits: 1 where item j requires attribute k.
    Per-item arrays put the items last, so that every sum, any and argmax
    over the items of a design runs over contiguous memory."""
    return (masks[:, None, :] >> np.arange(K)[:, None]) & 1


def _is_unit(masks: np.ndarray, K: int) -> np.ndarray:
    """(N, K, J) unit rows: True where item j requires attribute k alone."""
    return masks[:, None, :] == 1 << np.arange(K)[:, None]


def _column_sums(masks: np.ndarray, K: int) -> np.ndarray:
    return _bits(masks, K).sum(axis=-1)


def _ab(masks: np.ndarray, K: int):
    """Conditions A and B of each design.

    A zero row counts as absent: it is no unit row and requires nothing, so
    a residual design is scored by zeroing the rows it drops.  B needs A:
    once one unit row per attribute is dropped, columns m and m' must still
    differ on some row.  The dropped unit rows of m and m' differ on that
    pair and the other dropped rows on neither, so B asks for at least
    three rows on which bits m and m' differ; it is counted only where A
    holds.
    """
    a = _is_unit(masks, K).any(axis=-1).all(axis=1)
    b = a.copy()
    bits = _bits(masks[a], K)
    m, m2 = np.nonzero(np.arange(K)[:, None] < np.arange(K))  # every pair m < m2
    b[a] = ((bits[:, m] != bits[:, m2]).sum(axis=-1) >= 3).all(axis=1)
    return a, b


def _two_item_forms(masks: np.ndarray, K: int):
    """Attributes required by exactly two items, one of them a unit row.

    Returns five (N, K) arrays ``(found, unit, partner, partner_mask,
    scenario_a)``: for design n and attribute k, ``found[n, k]`` says whether
    k takes the form; ``unit`` is the first unit row of k, ``partner`` the
    other item, ``partner_mask`` the partner row without attribute k, and
    ``scenario_a`` marks scenario (a), a partner requiring every attribute.
    """
    requires = _bits(masks, K)
    is_unit = _is_unit(masks, K)
    unit = is_unit.argmax(axis=-1)
    others = np.arange(masks.shape[1]) != unit[:, :, None]
    partner = (requires & others).argmax(axis=-1)
    found = (requires.sum(axis=-1) == 2) & is_unit.any(axis=-1)
    rest = ((1 << K) - 1) & ~(1 << np.arange(K))
    partner_mask = np.take_along_axis(masks, partner, axis=1) & rest
    return found, unit, partner, partner_mask, found & (partner_mask == rest)


def _cover_sets(values: list, K: int, width: int) -> list:
    """Sets of at most ``width`` masks from ``values`` whose union is every
    attribute, every inclusion-minimal one among them: each step adds a
    mask holding the lowest attribute still uncovered."""
    full = (1 << K) - 1
    found, seen = [], set()

    def extend(chosen: frozenset, covered: int):
        if covered == full:
            found.append(chosen)
            return
        if len(chosen) >= width:
            return
        lowest = ~covered & (covered + 1)
        for v in values:
            nxt = chosen | {v}
            if v & lowest and nxt not in seen:
                seen.add(nxt)
                if len(seen) > _MAX_COVER_SETS:
                    raise TooLarge("cover enumeration budget exceeded in condition E search")
                extend(nxt, covered | v)

    extend(frozenset(), 0)
    return found


def _hall(masks: np.ndarray, K: int):
    """Generic completeness, D and E of each design by Hall's condition
    over the attribute subsets S (Hall 1935).

    Write N(S) for the items that require some attribute in S.  Every
    attribute gets ``copies`` distinct items iff |N(S)| >= copies * |S| for
    every S: one copy is generic completeness, two copies are D.  E, jointly
    with D as ``check_conditions_DE`` searches for it, holds back a cover C
    (items whose rows hit every attribute) and asks for two copies among
    the other items: |N(S) \\ C| >= 2|S|.  Every cover holds a minimal one
    and a smaller C only helps, so the minimal covers decide E.  A minimal
    cover has at most K items, all with different rows, and at most J - 2K
    (take S = every attribute); which copy of a row it takes does not
    matter, so the candidates are sets of row masks.

    Three copies (|N(S)| >= 3|S|) imply E: the third lies outside the other
    two and covers every attribute.  Only the D designs this screen leaves
    open pool their masks into one cover search.  Returns ``(gc, d, e)``;
    past the search budget ``e`` is an object array, None where left open.
    """
    J = masks.shape[1]
    subsets = np.arange(1, 1 << K)
    size = np.array([bin(s).count("1") for s in subsets])
    reach = ((masks[:, None, :] & subsets[:, None]) != 0).sum(axis=-1)
    slack = reach - 2 * size
    gc = (reach >= size).all(axis=1)
    d = (slack >= 0).all(axis=1)
    e = d & (slack >= size).all(axis=1)
    todo = d & ~e
    width = min(K, J - 2 * K)
    if width < 1 or not todo.any():
        return gc, d, e
    present = np.zeros(1 << K, dtype=bool)
    present[masks[todo]] = True
    values = np.flatnonzero(present)
    try:
        covers = _cover_sets(values.tolist(), K, width)
    except TooLarge:
        return gc, d, np.where(todo, None, e)
    if not covers:
        return gc, d, e
    members = np.array([[v in c for v in values.tolist()] for c in covers], dtype=np.int64)
    inside = members @ ((values[:, None] & subsets) != 0)  # |N(S) & C| per cover
    rows = np.flatnonzero(todo)
    present = (masks[rows, None, :] == values[:, None]).any(axis=-1).astype(np.int64)
    has_cover = present @ members.T == members.sum(axis=1)
    holds = (slack[rows, None, :] >= inside).all(axis=2)
    e[rows] = (has_cover & holds).any(axis=1)
    return gc, d, e


def _flags(masks: np.ndarray, K: int, sums: np.ndarray, model: str) -> dict:
    """Condition flags of each design, keyed as in ``condition_flags``, from
    its row masks and its column sums ``sums``: the flags the rules of
    ``model`` read, A, B and C for ``"dina"`` and C, generic completeness, D
    and E for ``"gdina"``.  Beyond K = ``_MAX_K_SEARCH``, D and E are None
    and generic completeness comes from the matcher."""
    c = (sums >= 3).all(axis=1)
    if model == "dina":
        a, b = _ab(masks, K)
        return {"A": a, "B": b, "C": c}
    if K > _MAX_K_SEARCH:
        gc = np.array([_match_attributes(m, K, 1) is not None for m in masks.tolist()])
        return {"C": c, "generic_complete": gc, "D": None, "E": None}
    gc, d, e = _hall(masks, K)
    return {"C": c, "generic_complete": gc, "D": d, "E": e}


def _note(*texts: str):
    return lambda attr, sums: ([], list(texts))


def _listed(hits: np.ndarray) -> list[int]:
    return [int(k) + 1 for k in np.flatnonzero(hits)]


_FREE_GUESS = (
    "free guessing value restricted to a neighborhood of the truth "
    "(local identifiability only)"
)


def _two_item_scenarios(masks: np.ndarray, K: int) -> dict:
    """(N, K) hits of scenarios (a), (b.2), (b.1) and (c) per attribute.

    Per attribute k on exactly two items, one a unit row, the residual
    design drops both items and attribute k.  A partner requiring every
    attribute is scenario (a).  When the partner is a unit row too, b.2
    needs two unit rows of every residual attribute and b.1 needs A, B and
    C of the residual; any other partner is scenario (c) when the residual
    satisfies A, B and C.
    """
    on_two, unit, partner, partner_mask, scenario_a = _two_item_forms(masks, K)
    found = {"a": scenario_a}
    found.update((s, np.zeros_like(scenario_a)) for s in ("b2", "b1", "c"))
    n, k = np.nonzero(on_two & ~scenario_a)
    res, idx = masks[n], np.arange(len(n))
    res[idx, unit[n, k]] = 0
    res[idx, partner[n, k]] = 0
    low = (1 << k[:, None]) - 1
    res = res & low | res >> 1 & ~low  # drop attribute k
    a, b = _ab(res, K - 1)
    abc = a & b & (_column_sums(res, K - 1) >= 3).all(axis=1)
    lone = partner_mask[n, k] == 0
    b2 = lone & (_is_unit(res, K - 1).sum(axis=-1) >= 2).all(axis=1)
    found["b2"][n, k] = b2
    found["b1"][n, k] = lone & ~b2 & abc
    found["c"][n, k] = ~lone & abc
    return found


def _dina_rules(masks: np.ndarray, K: int, sums: np.ndarray, flags: dict):
    """The DINA decision rules in the order they are tried, each as
    ``(scenario, condition, attribute, render)``: which designs the rule
    decides, the attribute it names (-1 for none), and render(attribute,
    column sums) giving the constraints and the notes.  The last rule holds
    for every design.  ``sums`` are the designs' column sums.  The two-item
    scenarios are searched only in designs that the rules before them leave
    open."""
    N = len(masks)
    a, b, c = flags["A"], flags["B"], flags["C"]
    found = {s: np.zeros((N, K), dtype=bool) for s in ("a", "b2", "b1", "c")}
    todo = np.flatnonzero(~(a & b & c) & (sums > 1).all(axis=1)) if K > 1 else ()
    if len(todo):
        for s, hits in _two_item_scenarios(masks[todo], K).items():
            found[s][todo] = hits
    hit = {s: (f.any(axis=1), f.argmax(axis=1)) for s, f in found.items()}
    no = np.full(N, -1)
    return [
        (Scenario.STRICT, a & b & c, no, _note()),
        (Scenario.NOT_GENERIC_ONE_ITEM, (K == 1) & (sums[:, 0] == 1), no, _note()),
        (Scenario.NOT_LOCALLY_GENERIC_A, np.full(N, K == 1), no,  # K = 1, two items
         _note("two items on a single attribute admit a continuum of alternatives")),
        (Scenario.NOT_GENERIC_ONE_ITEM, (sums <= 1).any(axis=1), no, lambda attr, sums: (
            [], [f"attributes required by at most one item: {_listed(sums <= 1)}"])),
        (Scenario.NOT_LOCALLY_GENERIC_A, *hit["a"], lambda attr, sums: ([], [
            f"attribute {attr + 1} is required by exactly two items, one of which "
            "requires every attribute"])),
        (Scenario.GENERIC_B2, *hit["b2"], lambda attr, sums: (_b2_constraints(K), [])),
        (Scenario.GENERIC_B1, *hit["b1"], lambda attr, sums: ([_b1_constraint(attr)], [])),
        (Scenario.LOCAL_GENERIC_C, *hit["c"], lambda attr, sums: (
            [_b1_constraint(attr), _FREE_GUESS], [])),
        (Scenario.NOT_LOCALLY_GENERIC_A, ~a, no,
         _note("incomplete design: some latent classes stay equivalent")),
        (Scenario.NOT_LOCALLY_GENERIC_A, (K == 2) & ~b, no,
         _note("K = 2 residual columns coincide: alternatives exist everywhere")),
        (Scenario.UNDETERMINED, np.ones(N, dtype=bool), no,
         _note("no classified structure applies (e.g. a twice-required attribute "
               "without a unit row, with K > 2)")),
    ]


def _gdina_rules(masks: np.ndarray, K: int, sums: np.ndarray, flags: dict):
    """The GDINA decision rules in the order they are tried, as in
    ``_dina_rules``; none names an attribute."""
    N = len(masks)
    d, e = flags["D"], flags["E"]
    no = np.full(N, -1)
    return [
        (Scenario.GENERIC_DE, np.zeros(N, dtype=bool) if d is None else d & e.astype(bool), no,
         lambda attr, sums: ([
             "det T(Q1) != 0 and det T(Q2) != 0 for the two diagonal blocks",
             "T(Q*) . diag(p) has pairwise-distinct columns",
         ], [])),
        (Scenario.NOT_GENERIC_C_GDINA, ~flags["C"], no, lambda attr, sums: (
            [], [f"attributes required by fewer than three items: {_listed(sums < 3)}"])),
        (Scenario.NOT_GENERIC_GC, ~flags["generic_complete"], no, _note()),
        (Scenario.NOT_GENERIC_K2_DE, np.full(N, K == 2), no,
         _note("for two attributes the block conditions are also necessary")),
        (Scenario.UNDETERMINED, np.ones(N, dtype=bool), no, _note()),
    ]


_MODELS = {"dina": ("DINA", _dina_rules), "gdina": ("GDINA", _gdina_rules)}
_CHUNK = 1 << 10  # designs per kernel call: bounds the temporaries and peak RSS
_CODES = {scenario: code for code, scenario in enumerate(Scenario)}
_VALUES = np.array([scenario.value for scenario in Scenario], dtype=object)


def _multisets(masks: np.ndarray, n_attributes: int):
    """The distinct row multisets of an (N, J) array of row masks, as
    ``(first, inverse)``: the index of each multiset's first design, in
    order of first occurrence, and each design's index among them.

    Each design's sorted masks are packed into int64 keys, P = floor(63 /
    K) to a key and mask t of a key in bits K t to K t + K - 1.  This is
    exact, as every mask is below 2^K, and a design becomes
    ceil(J / P) keys rather than J masks: one key at 5 x 3, 8 x 2 and 12 x
    4, one mask per key at K >= 32.  ``_unique_columns`` groups the keys
    and gives each group's first occurrence, the first design of its run in
    the stable sort."""
    J = masks.shape[1]
    per = 63 // n_attributes
    keys = np.zeros((-(-J // per), len(masks)), dtype=np.int64)
    for t, column in enumerate(np.sort(masks, axis=1).T):
        keys[t // per] |= column << n_attributes * (t % per)
    _, first, group = _unique_columns(keys)
    order = np.argsort(first)
    return first[order], np.argsort(order)[group]


def _verdict_codes(masks: np.ndarray, n_attributes: int, model: str) -> np.ndarray:
    """``classify_batch`` as codes: each design's verdict as its index in
    ``Scenario``'s order of definition."""
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    masks = _check_masks(masks, n_attributes)
    if (masks == 0).any():
        raise HasZeroRows("strip zero rows before classifying")
    _, decide = _MODELS[model]
    first, multiset = _multisets(masks, n_attributes)
    distinct = masks[first]
    codes = np.empty(len(first), dtype=np.intp)
    for start in range(0, len(distinct), _CHUNK):
        chunk = distinct[start:start + _CHUNK]
        sums = _column_sums(chunk, n_attributes)
        rules = decide(chunk, n_attributes, sums, _flags(chunk, n_attributes, sums, model))
        named = np.array([_CODES[scenario] for scenario, *_ in rules])
        codes[start:start + _CHUNK] = named[np.argmax([cond for _, cond, _, _ in rules], axis=0)]
    return codes[multiset]


def classify_batch(masks: np.ndarray, n_attributes: int, model: str) -> np.ndarray:
    """Scenario values (``Scenario.value`` strings) of every design in an
    (N, J) array of row masks with no zero row, under ``"dina"`` or
    ``"gdina"``: the verdicts of ``classify_dina`` / ``classify_gdina``,
    decided for the whole batch at once.  Only the flags the model reads
    are computed, and both models share one column sum per chunk.

    There is one verdict per row multiset.  The designs are grouped by
    their sorted row masks, packed into int64 keys (``_multisets``); the
    rules run on the first design of each group, found in the stable sort
    that groups the keys, in order of first occurrence, in chunks of
    ``_CHUNK``, and every design gets its group's verdict.  This is exact:
    every rule is invariant under row permutation, and the one
    batch-dependent step, the pooled cover search for E, can only overflow
    past K = 4 (at K <= 4 a pool holds at most 15 masks and the search at
    most 1,940 sets, far below ``_MAX_COVER_SETS``).  A batch with no
    repeated multiset is chunked as it is given."""
    return _VALUES[_verdict_codes(masks, n_attributes, model)]


def _classify(q: QMatrix, model: str) -> IdentifiabilityVerdict:
    if q.has_zero_rows:
        raise HasZeroRows("strip zero rows before classifying")
    name, decide = _MODELS[model]
    K, masks = q.n_attributes, q.row_masks[None, :]
    sums = _column_sums(masks, K)
    flags = {**_flags(masks, K, sums, "dina"), **_flags(masks, K, sums, "gdina")}
    scenario, _, attr, render = next(rule for rule in decide(masks, K, sums, flags) if rule[1][0])
    constraints, notes = render(int(attr[0]), sums[0])
    flags = {key: None if v is None or v[0] is None else bool(v[0]) for key, v in flags.items()}
    return IdentifiabilityVerdict(name, flags, scenario, constraints, notes)


def classify_dina(q: QMatrix) -> IdentifiabilityVerdict:
    """Classify joint identifiability of the design under the conjunctive
    two-parameter (slipping/guessing) model.

    Decision order: conditions A+B+C give strict identifiability; an
    attribute required by at most one item rules out generic identifiability;
    an attribute required by exactly two items is classified through the
    (a)/(b.2)/(b.1)/(c) scenarios when the two rows take the canonical form
    (one of them a unit row); incompleteness rules out even local generic
    identifiability; for K = 2 the classification is exhaustive.
    """
    return _classify(q, "dina")


def classify_gdina(q: QMatrix) -> IdentifiabilityVerdict:
    """Classify joint generic identifiability under the saturated general model.

    Conditions D and E are sufficient; repetition (every attribute required
    three or more times) and generic completeness are each necessary.  For
    K = 2 the conditions are also necessary, which makes the classification
    exact there.
    """
    return _classify(q, "gdina")


def enumerate_canonical(n_items: int, n_attributes: int) -> np.ndarray:
    """All J x K designs with no zero row and no zero column, one per
    column-permutation class, as an (N, J) int64 array of row masks.

    A design's row key reads its masks as one base-2^K number, row 1 most
    significant.  Each class is represented by its member of smallest key,
    and the designs are listed by increasing key.  A design with a zero row
    reduces to its nonzero rows, and one with an unused attribute is a
    degenerate K-1 design; the classical census of 5 x 2 matrices (121
    types) counts neither.

    Read each column as a J-bit number with row 1 most significant.  When
    attribute k < k' has the smaller column, swapping the two lowers the
    key: at the first row where they differ, the 1 moves from bit k' down to
    bit k.  So the representative is the class's one arrangement with
    non-increasing columns, and the designs are the non-increasing K-tuples
    of nonzero columns whose OR reaches every row, listed one column at a
    time: no later column exceeds the current one, so it must reach the
    highest row still uncovered, and the last must cover every such row.
    """
    J, K = n_items, n_attributes
    if J < 1 or K < 1:
        raise WrongShape(f"need at least one row and one column, got {(J, K)}")
    if J * K > _MAX_ENUM_BITS:
        raise TooLarge(f"enumeration guarded to J*K <= {_MAX_ENUM_BITS}")
    full = (1 << J) - 1
    cols = np.zeros((1, 0), dtype=np.int64)  # one row per tuple listed so far
    uncovered = np.array([full], dtype=np.int64)  # the rows its columns miss
    for k in range(K):
        top = cols[:, -1] if k else uncovered  # the next column is at most this
        low = np.maximum(uncovered, 1)
        if k < K - 1:
            low = np.int64(1) << (np.frexp(low)[1] - 1)  # highest set bit
        count = np.maximum(top - low + 1, 0)
        parent = np.repeat(np.arange(len(cols)), count)
        new = np.arange(len(parent)) + np.repeat(low - np.cumsum(count) + count, count)
        uncovered = uncovered[parent] & ~new
        if k == K - 1:
            keep = uncovered == 0
            parent, new = parent[keep], new[keep]
        cols = np.column_stack([cols[parent], new])

    shifts = np.arange(J - 1, -1, -1)
    masks = np.zeros((len(cols), J), dtype=np.int64)
    for k in range(K):
        masks |= ((cols[:, k, None] >> shifts) & 1) << k
    radix = 1 << (K * np.arange(J - 1, -1, -1, dtype=np.int64))
    return masks[np.argsort(masks @ radix)]


def q_equivalent(a: QMatrix, b: QMatrix) -> bool:
    """True when some column permutation maps ``a`` onto ``b``.

    Equivalent to comparing the multisets of columns, which avoids the K!
    search.
    """
    if a.entries.shape != b.entries.shape:
        raise WrongShape(
            f"shapes differ: {a.entries.shape} vs {b.entries.shape}"
        )
    cols_a = sorted(a.entries[:, k].tobytes() for k in range(a.n_attributes))
    cols_b = sorted(b.entries[:, k].tobytes() for k in range(b.n_attributes))
    return cols_a == cols_b


def _column_maps(a: QMatrix, b: QMatrix) -> list[tuple[int, ...]]:
    """Every column permutation perm with b[:, perm[k]] == a[:, k] for all
    k, built by matching equal columns only, so a design with distinct
    columns has at most one.  Empty when the designs are not equivalent."""
    if a.entries.shape != b.entries.shape:
        raise WrongShape(f"shapes differ: {a.entries.shape} vs {b.entries.shape}")
    cols_a, cols_b = ([m.entries[:, k].tobytes() for k in range(m.n_attributes)] for m in (a, b))
    maps = [()]
    for col in cols_a:
        maps = [perm + (m,) for perm in maps
                for m, c in enumerate(cols_b) if c == col and m not in perm]
    return maps


def _bit_permutation_table(perm, K: int) -> np.ndarray:
    """Lookup table sending each K-bit mask through the column permutation:
    bit k of the mask moves to bit perm[k]."""
    bits = (np.arange(1 << K)[:, None] >> np.arange(K)) & 1
    return bits @ (1 << np.asarray(perm, dtype=np.int64))
