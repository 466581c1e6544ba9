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
* repetition            -- every attribute is required by >= ``min_count``
                           items (condition C, and condition E with count 1);
* generic completeness  -- some K rows admit an all-ones diagonal after row
                           and column permutation, i.e. a perfect matching
                           between attributes and items;
* double generic completeness plus leftover coverage (conditions D and E).

``classify_dina`` and ``classify_gdina`` combine the checks into a structured
verdict for the conjunctive two-parameter model and the saturated general
model, respectively.

Conventions: attribute patterns and item rows are encoded little-endian as
bit masks (bit k = attribute k+1), and all checks are invariant under row and
column permutation of the input.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AllRowsZero, HasZeroRows, TooLarge, WrongShape

__all__ = [
    "QMatrix",
    "Scenario",
    "IdentifiabilityVerdict",
    "gamma_matrix",
    "strip_zero_rows",
    "check_condition_A",
    "check_condition_B",
    "check_condition_C",
    "check_generic_completeness",
    "check_conditions_DE",
    "classify_dina",
    "classify_gdina",
    "enumerate_canonical",
    "q_equivalent",
]

# Search guards.  Condition B/D searches are combinatorial in K; enumeration
# is exponential in J*K.
_MAX_K_SEARCH = 8
_MAX_ENUM_BITS = 24
_MAX_ENUM_WORK = 3 * 10**8  # candidate matrices times column permutations


class QMatrix:
    """Immutable J x K binary design matrix.

    Rows are items, columns are attributes.  Entries must be 0 or 1 and both
    dimensions must be at least 1.
    """

    __slots__ = ("_entries", "_masks")

    def __init__(self, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2:
            raise WrongShape(f"expected a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise WrongShape(f"need at least one row and one column, got {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
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
    """Outcome labels for the identifiability classification."""

    STRICT = "StrictlyIdentifiable"
    GENERIC_B1 = "GenericScenarioB1"
    GENERIC_B2 = "GenericScenarioB2"
    LOCAL_GENERIC_C = "LocalGenericC"
    NOT_LOCALLY_GENERIC_A = "NotLocallyGeneric_A"
    NOT_GENERIC_ONE_ITEM = "NotGeneric_OneItemAttribute"
    NOT_GENERIC_GC = "NotGeneric_FailsGenericCompleteness"
    NOT_GENERIC_C_GDINA = "NotGeneric_FailsC_GDINA"
    GENERIC_DE = "GenericConditionsDE"
    NOT_GENERIC_K2_DE = "NotGeneric_K2_FailsDE"
    UNDETERMINED = "Undetermined"


# Scenarios that assert some form of identifiability.
_POSITIVE = {
    Scenario.STRICT,
    Scenario.GENERIC_B1,
    Scenario.GENERIC_B2,
    Scenario.LOCAL_GENERIC_C,
    Scenario.GENERIC_DE,
}


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

    @property
    def identifiable(self) -> bool | None:
        """True/False when the classification is conclusive, else None."""
        if self.scenario in _POSITIVE:
            return True
        if self.scenario is Scenario.UNDETERMINED:
            return None
        return False

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


def _cells(q: QMatrix) -> np.ndarray:
    """The (J, 2^K) map from (item, pattern) to the response-table cell the
    item reads: the pattern restricted to the item's required attributes,
    a & row_mask[j].  A saturated table is constant on each cell."""
    return np.arange(1 << q.n_attributes, dtype=np.int64)[None, :] & q.row_masks[:, None]


def gamma_matrix(q: QMatrix, model: str = "dina") -> np.ndarray:
    """Ideal-response matrix: entry (j, a) is 1 iff a subject of pattern a is
    capable on item j, the gate of the two-parameter models.

    Conjunctive (``"dina"``): pattern a covers row j, so a zero row is always
    capable, the all-ones pattern yields an all-ones column and the all-zeros
    pattern marks zero rows.  Disjunctive (``"dino"``): a shares at least one
    required attribute, so a zero row is never capable.  Columns are indexed
    by attribute-pattern bit masks.
    """
    cells = _cells(q)
    if model == "dina":
        return (cells == q.row_masks[:, None]).astype(np.uint8)
    if model == "dino":
        return (cells != 0).astype(np.uint8)
    raise ValueError(f"unknown model {model!r}")


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


def check_condition_A(q: QMatrix):
    """Completeness: do some K rows form the K x K identity up to column order?

    Returns ``(flag, witness)`` where, on success, ``witness`` is a tuple of
    row indices ``rows`` with ``rows[k]`` being the smallest-index row equal
    to the unit vector of attribute k (so selecting them in order exhibits
    the identity with the identity column permutation).
    """
    masks = q.row_masks
    rows = []
    for k in range(q.n_attributes):
        hits = np.flatnonzero(masks == (1 << k))
        if len(hits) == 0:
            return False, None
        rows.append(int(hits[0]))
    return True, tuple(rows)


def _residual_after_identity(q: QMatrix):
    """Rows left after removing one unit row per attribute.

    Which copy of a repeated unit row is removed does not matter: the
    leftover multiset of rows is the same either way, so condition B is
    well defined without searching over selections.
    """
    ok, rows = check_condition_A(q)
    if not ok:
        raise WrongShape("condition B needs a complete Q-matrix")
    drop = set(rows)
    keep = [j for j in range(q.n_items) if j not in drop]
    return q.entries[keep]


def check_condition_B(q: QMatrix) -> bool:
    """Distinctness: the residual block has pairwise-distinct columns.

    Raises :class:`WrongShape` when condition A fails.  For K = 1 the check
    is vacuous and returns True.
    """
    residual = _residual_after_identity(q)
    k = q.n_attributes
    if k == 1:
        return True
    cols = [residual[:, i].tobytes() for i in range(k)]
    return len(set(cols)) == k


def check_condition_C(q: QMatrix, min_count: int = 3) -> bool:
    """Repetition: every attribute is required by at least ``min_count`` items."""
    return bool((q.column_sums() >= min_count).all())


def _match_attributes(q: QMatrix, copies: int, banned: frozenset = frozenset()):
    """Assign ``copies`` distinct non-banned items to every attribute.

    Augmenting-path bipartite matching where each attribute appears
    ``copies`` times on the left.  Returns a list of ``copies`` item lists
    (one item per attribute each) or None.
    """
    K = q.n_attributes
    entries = q.entries
    adj = [
        [j for j in range(q.n_items) if j not in banned and entries[j, k]]
        for k in range(K)
    ]
    owner = {}  # item -> left-node id
    match_of = [None] * (K * copies)

    def try_assign(node, seen):
        k = node % K
        for j in adj[k]:
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
    result = _match_attributes(q, copies=1)
    if result is None:
        return False, None
    return True, tuple(result[0])


def _minimal_covers(q: QMatrix, budget: int = 200_000):
    """Yield inclusion-minimal item sets whose rows jointly hit every column."""
    K = q.n_attributes
    entries = q.entries
    col_items = [tuple(np.flatnonzero(entries[:, k])) for k in range(K)]
    if any(len(c) == 0 for c in col_items):
        return
    seen = set()
    work = 0

    def extend(chosen: frozenset, covered: int):
        nonlocal work
        work += 1
        if work > budget:
            raise TooLarge("cover enumeration budget exceeded in condition D/E search")
        if covered == (1 << K) - 1:
            yield chosen
            return
        k = min(
            (k for k in range(K) if not covered >> k & 1),
            key=lambda k: len(col_items[k]),
        )
        for j in col_items[k]:
            nxt = chosen | {j}
            if nxt in seen:
                continue
            seen.add(nxt)
            new_cov = covered
            for kk in range(K):
                if entries[j, kk]:
                    new_cov |= 1 << kk
            yield from extend(nxt, new_cov)

    yield from extend(frozenset(), 0)


def check_conditions_DE(q: QMatrix):
    """Double generic completeness (D) and leftover coverage (E).

    D holds when two disjoint K-row blocks each admit a perfect matching
    attributes <-> items; because the rows inside a block may be reordered
    freely, a single capacity-2 matching decides this (no column-permutation
    search is needed).  E holds, for the partition returned, when every
    attribute is required by at least one row outside the two blocks.

    Returns ``(d_flag, e_flag, partition)`` with ``partition = (rows1,
    rows2, rest)``; when D and E hold jointly the partition witnesses both,
    otherwise it witnesses D alone (or is None when D fails).
    """
    if q.n_attributes > _MAX_K_SEARCH:
        raise TooLarge(f"condition D search guarded to K <= {_MAX_K_SEARCH}")
    K = q.n_attributes
    blocks = None
    if q.n_items >= 2 * K + 1:
        # Joint search: reserve a minimal covering set for E, then ask for a
        # capacity-2 matching among the remaining items; E then holds.
        for cover in _minimal_covers(q):
            blocks = _match_attributes(q, copies=2, banned=cover)
            if blocks is not None:
                break
    joint = blocks is not None
    blocks = blocks or _match_attributes(q, copies=2)
    if blocks is None:
        return False, False, None
    used = set(blocks[0]) | set(blocks[1])
    rest = tuple(j for j in range(q.n_items) if j not in used)
    e_flag = joint or (bool(rest) and bool((q.entries[list(rest)].sum(axis=0) >= 1).all()))
    return True, e_flag, (tuple(blocks[0]), tuple(blocks[1]), rest)


def _b1_constraint(attr: int, K: int) -> str:
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


def _required_by(q: QMatrix, count: int) -> list[tuple[int, list[int]]]:
    """``(attribute, items)`` for each attribute required by exactly
    ``count`` items, in attribute order."""
    sums = q.column_sums()
    return [
        (k, [int(j) for j in np.flatnonzero(q.entries[:, k])])
        for k in range(q.n_attributes)
        if sums[k] == count
    ]


@dataclass
class _TwoItemForm:
    """One attribute required by exactly two items, one of them a unit row."""

    attribute: int
    unit_item: int
    partner_item: int
    partner_mask: int  # partner row restricted to the other attributes

    def is_scenario_a(self, n_attributes: int) -> bool:
        """Scenario (a): the partner row requires every attribute."""
        return self.partner_mask == ((1 << n_attributes) - 1) & ~(1 << self.attribute)


def _two_item_forms(q: QMatrix) -> list[_TwoItemForm]:
    masks = q.row_masks
    forms = []
    for k, items in _required_by(q, 2):
        units = [j for j in items if masks[j] == (1 << k)]
        if not units:
            continue
        unit = units[0]
        partner = items[1] if items[0] == unit else items[0]
        forms.append(
            _TwoItemForm(
                attribute=k,
                unit_item=unit,
                partner_item=partner,
                partner_mask=int(masks[partner]) & ~(1 << k),
            )
        )
    return forms


def _residual_matrix(q: QMatrix, form: _TwoItemForm) -> QMatrix | None:
    """Rows other than the two items of ``form``, with its attribute removed."""
    keep_rows = [j for j in range(q.n_items) if j not in (form.unit_item, form.partner_item)]
    keep_cols = [k for k in range(q.n_attributes) if k != form.attribute]
    if not keep_rows or not keep_cols:
        return None
    return QMatrix(q.entries[np.ix_(keep_rows, keep_cols)])


def _satisfies_abc(q: QMatrix) -> bool:
    ok_a, _ = check_condition_A(q)
    if not ok_a:
        return False
    return check_condition_B(q) and check_condition_C(q)


def _all_flags(q: QMatrix) -> dict:
    ok_a, _ = check_condition_A(q)
    flags = {
        "A": ok_a,
        "B": check_condition_B(q) if ok_a else False,
        "C": check_condition_C(q),
    }
    gc, _ = check_generic_completeness(q)
    flags["generic_complete"] = gc
    try:
        d, e, _ = check_conditions_DE(q)
    except TooLarge:
        d = e = None
    flags["D"] = d
    flags["E"] = e
    return flags


def _verdict(model, flags, scenario, constraints=(), notes=()) -> IdentifiabilityVerdict:
    return IdentifiabilityVerdict(model, flags, scenario, list(constraints), list(notes))


def classify_dina(q: QMatrix) -> IdentifiabilityVerdict:
    """Classify joint identifiability of the design under the conjunctive
    two-parameter (slipping/guessing) model.

    Decision order: conditions A+B+C give strict identifiability; an
    attribute required by at most one item rules out generic identifiability;
    an attribute required by exactly two items is classified through the
    (a)/(b.1)/(b.2)/(c) scenarios when the two rows take the canonical form
    (one of them a unit row); incompleteness rules out even local generic
    identifiability; for K = 2 the classification is exhaustive.
    """
    if q.has_zero_rows:
        raise HasZeroRows("strip zero rows before classifying")
    flags = _all_flags(q)
    sums = q.column_sums()
    K = q.n_attributes
    verdict = functools.partial(_verdict, "DINA", flags)

    if K == 1:
        # Degenerate single-attribute design: distinctness is vacuous and the
        # column-sum thresholds decide everything.
        if sums[0] >= 3:
            return verdict(Scenario.STRICT)
        if sums[0] == 1:
            return verdict(Scenario.NOT_GENERIC_ONE_ITEM)
        return verdict(
            Scenario.NOT_LOCALLY_GENERIC_A,
            notes=["two items on a single attribute admit a continuum of alternatives"],
        )

    if flags["A"] and flags["B"] and flags["C"]:
        return verdict(Scenario.STRICT)

    if (sums <= 1).any():
        bad = [int(k) + 1 for k in np.flatnonzero(sums <= 1)]
        return verdict(
            Scenario.NOT_GENERIC_ONE_ITEM,
            notes=[f"attributes required by at most one item: {bad}"],
        )

    forms = _two_item_forms(q)
    scenario_a = None
    scenario_b2 = None
    scenario_b1 = None
    scenario_c = None
    for form in forms:
        if form.is_scenario_a(K):
            scenario_a = scenario_a or form
            continue
        residual = _residual_matrix(q, form)
        if residual is None:
            continue
        if form.partner_mask == 0:
            unit_counts = [
                int((residual.row_masks == (1 << m)).sum())
                for m in range(residual.n_attributes)
            ]
            if all(c >= 2 for c in unit_counts):
                scenario_b2 = scenario_b2 or form
            elif _satisfies_abc(residual):
                scenario_b1 = scenario_b1 or form
        else:
            if _satisfies_abc(residual):
                scenario_c = scenario_c or form

    if scenario_a is not None:
        return verdict(
            Scenario.NOT_LOCALLY_GENERIC_A,
            notes=[
                f"attribute {scenario_a.attribute + 1} is required by exactly two "
                "items, one of which requires every attribute"
            ],
        )
    if scenario_b2 is not None:
        return verdict(Scenario.GENERIC_B2, constraints=_b2_constraints(K))
    if scenario_b1 is not None:
        return verdict(
            Scenario.GENERIC_B1,
            constraints=[_b1_constraint(scenario_b1.attribute, K)],
        )
    if scenario_c is not None:
        return verdict(
            Scenario.LOCAL_GENERIC_C,
            constraints=[
                _b1_constraint(scenario_c.attribute, K),
                "free guessing value restricted to a neighborhood of the truth "
                "(local identifiability only)",
            ],
        )
    if not flags["A"]:
        return verdict(
            Scenario.NOT_LOCALLY_GENERIC_A,
            notes=["incomplete design: some latent classes stay equivalent"],
        )
    if K == 2 and not flags["B"]:
        # The unique K = 2 structure with A and C but equal residual columns
        # admits alternatives for every valid parameter set.
        return verdict(
            Scenario.NOT_LOCALLY_GENERIC_A,
            notes=["K = 2 residual columns coincide: alternatives exist everywhere"],
        )
    return verdict(
        Scenario.UNDETERMINED,
        notes=["no classified structure applies (e.g. a twice-required attribute "
               "without a unit row, with K > 2)"],
    )


def classify_gdina(q: QMatrix) -> IdentifiabilityVerdict:
    """Classify joint generic identifiability under the saturated general model.

    Conditions D and E are sufficient; repetition (every attribute required
    three or more times) and generic completeness are each necessary.  For
    K = 2 the conditions are also necessary, which makes the classification
    exact there.
    """
    if q.has_zero_rows:
        raise HasZeroRows("strip zero rows before classifying")
    flags = _all_flags(q)
    K = q.n_attributes
    verdict = functools.partial(_verdict, "GDINA", flags)

    if flags["D"] and flags["E"]:
        return verdict(
            Scenario.GENERIC_DE,
            constraints=[
                "det T(Q1) != 0 and det T(Q2) != 0 for the two diagonal blocks",
                "T(Q*) . diag(p) has pairwise-distinct columns",
            ],
        )
    if not flags["C"]:
        bad = [int(k) + 1 for k in np.flatnonzero(q.column_sums() < 3)]
        return verdict(
            Scenario.NOT_GENERIC_C_GDINA,
            notes=[f"attributes required by fewer than three items: {bad}"],
        )
    if not flags["generic_complete"]:
        return verdict(Scenario.NOT_GENERIC_GC)
    if K == 2:
        return verdict(
            Scenario.NOT_GENERIC_K2_DE,
            notes=["for two attributes the block conditions are also necessary"],
        )
    return verdict(Scenario.UNDETERMINED)


def _bit_permutation_table(perm, K: int) -> np.ndarray:
    """Lookup table sending each K-bit mask through the column permutation."""
    table = np.zeros(1 << K, dtype=np.int64)
    for mask in range(1 << K):
        out = 0
        for k in range(K):
            if mask >> k & 1:
                out |= 1 << perm[k]
        table[mask] = out
    return table


def enumerate_canonical(n_items: int, n_attributes: int) -> list[QMatrix]:
    """All J x K designs with no zero row and no zero column, one
    representative per column-permutation class.

    The representative is the lexicographically smallest member under the
    row-as-bits encoding with row order preserved (row 1 most significant);
    the returned list is sorted by that encoding.  Designs leaving an
    attribute entirely unused are excluded: they are degenerate K-1 designs
    and the classical census of 5 x 2 matrices (121 types) does not count
    them.
    """
    J, K = n_items, n_attributes
    if J * K > _MAX_ENUM_BITS:
        raise TooLarge(f"enumeration guarded to J*K <= {_MAX_ENUM_BITS}")
    n_codes = (1 << K) - 1
    if n_codes**J * math.factorial(K) > _MAX_ENUM_WORK:
        raise TooLarge("enumeration workload exceeds the search budget")

    total = n_codes**J
    codes = np.empty((total, J), dtype=np.int64)
    rem = np.arange(total, dtype=np.int64)
    for j in range(J - 1, -1, -1):
        codes[:, j] = rem % n_codes + 1
        rem //= n_codes
    used = np.zeros(total, dtype=np.int64)
    for j in range(J):
        used |= codes[:, j]
    codes = codes[used == n_codes]

    radix = 1 << (K * np.arange(J - 1, -1, -1, dtype=np.int64))
    base_key = codes @ radix
    best = base_key.copy()
    for perm in itertools.permutations(range(K)):
        if perm == tuple(range(K)):
            continue
        table = _bit_permutation_table(perm, K)
        np.minimum(best, table[codes] @ radix, out=best)
    canonical = codes[base_key == best]
    canonical = canonical[np.argsort(canonical @ radix, kind="stable")]

    ks = np.arange(K, dtype=np.int64)
    out = []
    for row_codes in canonical:
        out.append(QMatrix((row_codes[:, None] >> ks[None, :]) & 1))
    return out


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
