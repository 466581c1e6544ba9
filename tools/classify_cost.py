"""Time of ``qmatrix.classify_batch`` on whole canonical censuses, per model,
and of ``qmatrix._design_rows``, the text each census is printed as.

    python3 tools/classify_cost.py                          # the checkout's src/
    python3 tools/classify_cost.py --src OTHER/src --reps 7  # the checkout against OTHER

Each shape's designs are its canonical census from the checkout's
``qmatrix.enumerate_canonical`` (2,801 at 5 x 3, 3,280 at 8 x 2, 19,608 at
6 x 3 and 137,257 at 7 x 3), classified in one ``classify_batch`` call
and rendered in one ``_design_rows`` call (the rows of model "text").
The last row, GDINA only, is a sample of 300 random 30 x 8 designs: rows
drawn uniformly from the 36 masks of weight 1 or 2 with
``np.random.default_rng(20261019)``, the batch whose pooled cover search
for condition E overflows its budget.  Each time is the median over
``--reps`` calls, after one warm-up call; the undet columns count the
Undetermined verdicts.  The multisets column counts the distinct row
multisets among the designs: ``classify_batch`` runs its rules once per
multiset (211 at 5 x 3, 36 at 8 x 2, 483 at 6 x 3 and 994 at 7 x 3).

With ``--src`` both trees load into this one process through
``em_sweep_cost``'s loader, and their calls interleave rep by rep (the tree
that goes first alternates), so that the machine's drift over a run falls
on both columns alike.  The ratio column is OTHER over the checkout, and
the last column says whether the two trees' verdicts (or texts) are equal.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from em_sweep_cost import _load

SHAPES = ((5, 3), (8, 2), (6, 3), (7, 3))
MODELS = ("dina", "gdina", "text")


def _sample_30x8() -> np.ndarray:
    pool = np.array([m for m in range(1, 256) if bin(m).count("1") <= 2])
    return pool[np.random.default_rng(20261019).integers(0, len(pool), size=(300, 30))]


def _timed(qmatrix, codes, K: int, model: str):
    """Seconds of one call and its output: ``_design_rows`` for "text",
    else ``classify_batch`` under the model."""
    t0 = time.perf_counter()
    out = (qmatrix._design_rows(codes, K) if model == "text"
           else qmatrix.classify_batch(codes, K, model))
    return time.perf_counter() - t0, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=None,
                        help="a second tree's src/ to measure against the checkout's")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    checkout = Path(__file__).resolve().parents[1] / "src"
    trees = [_load(checkout, "qident_checkout", ("qmatrix",))[0]]
    if args.src is not None:
        trees.append(_load(args.src, "qident_other", ("qmatrix",))[0])

    for label, qmatrix in zip(("checkout", "other"), trees):
        print(f"{label}: qident from {Path(qmatrix.__file__).parent}")
    labels = ("checkout", "other")[: len(trees)]
    head = " ".join(f"{label + '_s':>11} {'undet':>6}" for label in labels)
    print(f"{'shape':>6} {'designs':>8} {'multisets':>9} {'model':>6} {head}"
          + (f" {'ratio':>6} {'equal':>5}" if len(trees) == 2 else ""))
    rows = []
    for J, K in SHAPES:
        codes = trees[0].enumerate_canonical(J, K)
        rows += [(f"{J}x{K}", codes, K, model) for model in MODELS]
    rows.append(("30x8s", _sample_30x8(), 8, "gdina"))
    for shape, codes, K, model in rows:
        verdicts = [_timed(qmatrix, codes, K, model)[1] for qmatrix in trees]  # warm-up
        times = [[] for _ in trees]
        for rep in range(args.reps):
            order = range(len(trees)) if rep % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                times[i].append(_timed(trees[i], codes, K, model)[0])
        secs = [statistics.median(t) for t in times]
        undet = ["-" if model == "text" else int((v == "Undetermined").sum()) for v in verdicts]
        multisets = len(np.unique(np.sort(codes, axis=1), axis=0))
        line = f"{shape:>6} {len(codes):>8} {multisets:>9} {model:>6} " + " ".join(
            f"{s:>11.4f} {u:>6}" for s, u in zip(secs, undet))
        if len(trees) == 2:
            line += f" {secs[1] / secs[0]:>6.3f} {str(list(verdicts[0]) == list(verdicts[1])):>5}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
