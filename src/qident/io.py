"""File formats and deterministic report serialization.

Design matrices are plain text: one row per item, entries 0/1 separated by
commas or whitespace, no header; a single line with ';' separating rows is
also accepted (the compact form used in report CSVs).  Datasets are CSV,
either one row of 0/1 per subject or a two-column ``pattern_bits,count``
table.  Parameters travel as JSON.  Reports are serialized with sorted keys
so identical runs produce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParseError, WrongShape
from .qmatrix import QMatrix
from .rlcm import Dataset, DinaParams, GdinaParams

__all__ = [
    "parse_q_text",
    "load_q",
    "save_q",
    "load_responses_csv",
    "load_pattern_counts_csv",
    "dataset_csv",
    "save_pattern_counts_csv",
    "load_params_json",
    "save_params_json",
    "dump_report",
]

SCHEMA = "qident/1"


def _tokenize_row(raw: str):
    return raw.replace(",", " ").split()


def _binary_rows(lines, first_line: int, entry: str, compact: bool = False) -> list[list[int]]:
    """Parse rows of 0/1 entries of equal length; errors carry line and
    column, counted from ``first_line``.  With ``compact`` a lone token such
    as "0110" is read as one entry per character."""
    rows = []
    for lineno, raw in enumerate(lines, start=first_line):
        tokens = _tokenize_row(raw)
        if compact and len(tokens) == 1 and set(tokens[0]) <= {"0", "1"} and len(tokens[0]) > 1:
            tokens = list(tokens[0])
        for colno, tok in enumerate(tokens, start=1):
            if tok not in ("0", "1"):
                raise ParseError(
                    f"invalid {entry} {tok!r}, expected 0 or 1", line=lineno, column=colno
                )
        if rows and len(tokens) != len(rows[0]):
            raise ParseError(f"row has {len(tokens)} entries, expected {len(rows[0])}", line=lineno)
        rows.append([int(tok) for tok in tokens])
    return rows


def parse_q_text(text: str) -> QMatrix:
    """Parse a design matrix from text (multi-line, or ';'-separated rows)."""
    if ";" in text and "\n" not in text.strip():
        lines = [part for part in text.strip().split(";") if part.strip()]
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = _binary_rows(lines, 1, "entry", compact=True)
    if not rows:
        raise ParseError("no rows found")
    return QMatrix.from_rows(rows)


def load_q(path) -> QMatrix:
    return parse_q_text(Path(path).read_text())


def save_q(q: QMatrix, path) -> None:
    Path(path).write_text(
        "\n".join(",".join(str(int(v)) for v in row) for row in q.entries) + "\n"
    )


def _looks_like_header(tokens) -> bool:
    return any(tok not in ("0", "1") and not tok.lstrip("-").isdigit() for tok in tokens)


def load_responses_csv(path) -> Dataset:
    """One row of J 0/1 responses per subject; an optional header is skipped."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty dataset file")
    start = 1 if _looks_like_header(_tokenize_row(lines[0])) else 0
    rows = _binary_rows(lines[start:], start + 1, "response")
    if not rows:
        raise ParseError("dataset file has a header but no data rows")
    return Dataset.from_matrix(np.array(rows))


def load_pattern_counts_csv(path, n_items: int) -> Dataset:
    """Two columns: pattern bit-mask (little-endian) and count.  Each pattern
    appears once, inside [0, 2^n_items), with a nonnegative count."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty dataset file")
    start = 1 if _looks_like_header(_tokenize_row(lines[0])) else 0
    counts: dict[int, int] = {}
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        tokens = _tokenize_row(raw)
        if len(tokens) != 2:
            raise ParseError("expected two columns: pattern_bits,count", line=lineno)
        try:
            pattern, count = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer entry in {tokens}", line=lineno) from None
        if not 0 <= pattern < 1 << n_items:
            raise ParseError(f"pattern {pattern} out of range for {n_items} items", line=lineno)
        if count < 0:
            raise ParseError(f"negative count {count}", line=lineno)
        if pattern in counts:
            raise ParseError(f"pattern {pattern} listed twice", line=lineno)
        counts[pattern] = count
    # Python ints, so that Dataset checks the item count before they become int64
    return Dataset(n_items, list(counts), list(counts.values()))


def dataset_csv(data: Dataset) -> str:
    """One CSV row of 0/1 responses per subject, under an ``item1,...`` header."""
    lines = [",".join(f"item{j + 1}" for j in range(data.n_items))]
    for row in data.to_matrix():
        lines.append(",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def save_pattern_counts_csv(data: Dataset, path) -> None:
    lines = ["pattern_bits,count"]
    for pat, cnt in zip(data.patterns, data.counts):
        lines.append(f"{int(pat)},{int(cnt)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_params_json(path):
    """Load model parameters: returns ``(model, params, p_or_None)``.

    Accepted shapes: ``{"model": "dina", "s": [...], "g": [...]}`` or
    ``{"model": "gdina", "theta": [[...]]}``, each optionally with ``"p"``.
    Malformed JSON, a missing field, values the parameter classes reject and
    a p that is not 2^K finite, positive entries summing to 1 raise
    :class:`ParseError`.
    """
    try:
        obj = json.loads(Path(path).read_text())
        model = obj.get("model") if isinstance(obj, dict) else None
        if model in ("dina", "dino"):
            params = DinaParams(np.array(obj["s"], float), np.array(obj["g"], float))
        elif model == "gdina":
            params = GdinaParams(np.array(obj["theta"], float))
        else:
            raise ParseError(f"unknown or missing model field: {model!r}")
        p = np.array(obj["p"], float) if "p" in obj else None
        if p is not None:
            if p.ndim != 1 or len(p) & (len(p) - 1):
                raise WrongShape("proportions must have length 2^K")
            if not np.isfinite(p).all():
                raise ValueError("proportions must be finite")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(f"proportions sum to {float(p.sum())!r}, not 1")
            if not (p > 0).all():
                raise ValueError("proportions must be positive")
    except KeyError as exc:
        raise ParseError(f"params file lacks the field {exc}") from None
    except (TypeError, ValueError, WrongShape) as exc:
        raise ParseError(f"invalid params file: {exc}") from None
    return model, params, p


def save_params_json(path, model: str, params, p=None) -> None:
    obj = {"model": model}
    if isinstance(params, DinaParams):
        obj["s"] = params.s.tolist()
        obj["g"] = params.g.tolist()
    else:
        obj["theta"] = params.theta.tolist()
    if p is not None:
        obj["p"] = np.asarray(p).tolist()
    Path(path).write_text(dump_report(obj))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            return repr(v)
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, QMatrix):
        return ";".join(obj.row_strings())
    return obj


def dump_report(obj, schema: str | None = None) -> str:
    """Deterministic JSON: sorted keys, shortest round-trip float repr."""
    payload = _jsonable(obj)
    if schema is not None and isinstance(payload, dict):
        payload = {"schema": schema, **payload}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
